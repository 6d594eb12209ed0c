//! Bit-identity of the incremental SPTF pick against its references.
//!
//! The production `SptfScheduler` keeps an incremental index instead of
//! scanning the whole queue on every pick. That swap must leave the
//! `SimReport` of a Fig. 6-style cell bit-identical to the naive scan and
//! to the rescan-every-pick index — same completions in the same order at
//! the same times, same accumulated statistics — on both the MEMS device
//! and the Atlas 10K disk. Any drift here means a fast path changed *what*
//! is simulated, not just how fast.
//!
//! The engine's own fast paths have their references in unit and property
//! tests instead: the driver's per-chain event slots and the calendar
//! event queue against the binary heap (`storage-sim`'s driver and queue
//! proptests), the fleet's keyed merge against the old stable sort
//! (`mems-fleet`'s engine unit tests).

use atlas_disk::{DiskDevice, DiskParams};
use mems_device::{MemsDevice, MemsParams};
use mems_os::sched::{NaiveSptfScheduler, RescanSptfScheduler, SptfScheduler};
use storage_sim::{Driver, Scheduler, SimReport, StorageDevice, Workload};
use storage_trace::RandomWorkload;

const CAPACITY: u64 = 6_750_000;
/// The Fig. 6 saturation knee: deep queues, dense event traffic.
const RATE: f64 = 2200.0;
const REQUESTS: u64 = 1500;
const SEED: u64 = 0x5EED_0006;

fn mems_workload() -> RandomWorkload {
    RandomWorkload::paper(CAPACITY, RATE, REQUESTS, SEED)
}

fn assert_reports_identical(a: &SimReport, b: &SimReport, what: &str) {
    assert_eq!(a.completed, b.completed, "{what}: completed");
    assert_eq!(a.makespan, b.makespan, "{what}: makespan");
    assert_eq!(a.response.mean_ms(), b.response.mean_ms(), "{what}: mean");
    assert_eq!(
        a.response.sq_coeff_var(),
        b.response.sq_coeff_var(),
        "{what}: cv2"
    );
    assert_eq!(a.busy_secs, b.busy_secs, "{what}: busy");
    assert_eq!(a.max_queue_depth, b.max_queue_depth, "{what}: max queue");
    let (ca, cb) = (
        a.completions.as_ref().expect("recorded"),
        b.completions.as_ref().expect("recorded"),
    );
    assert_eq!(ca.len(), cb.len(), "{what}: completion count");
    for (x, y) in ca.iter().zip(cb) {
        assert_eq!(x.request.id, y.request.id, "{what}: service order");
        assert_eq!(x.start_service, y.start_service, "{what}: service start");
        assert_eq!(x.completion, y.completion, "{what}: completion time");
    }
}

/// Runs one Fig. 6-style cell.
fn run_cell<W: Workload, S: Scheduler, D: StorageDevice>(
    workload: W,
    scheduler: S,
    device: D,
) -> SimReport {
    Driver::new(workload, scheduler, device)
        .warmup_requests(200)
        .record_completions(true)
        .run()
}

#[test]
fn full_fast_stack_matches_full_reference_stack() {
    // Incremental SPTF vs the naive scan over every pending request.
    let fast = run_cell(
        mems_workload(),
        SptfScheduler::new(),
        MemsDevice::new(MemsParams::default()),
    );
    let reference = run_cell(
        mems_workload(),
        NaiveSptfScheduler::new(),
        MemsDevice::new(MemsParams::default()),
    );
    assert_reports_identical(&fast, &reference, "full stack");
}

#[test]
fn incremental_pick_matches_rescan() {
    let a = run_cell(
        mems_workload(),
        SptfScheduler::new(),
        MemsDevice::new(MemsParams::default()),
    );
    let b = run_cell(
        mems_workload(),
        RescanSptfScheduler::new(),
        MemsDevice::new(MemsParams::default()),
    );
    assert_reports_identical(&a, &b, "incremental vs rescan");
}

#[test]
fn incremental_pick_matches_naive_on_disk() {
    let disk = || DiskDevice::new(DiskParams::quantum_atlas_10k());
    let capacity = disk().capacity_lbns();
    let wl = || RandomWorkload::paper(capacity, 220.0, 1000, SEED);
    let fast = run_cell(wl(), SptfScheduler::new(), disk());
    let reference = run_cell(wl(), NaiveSptfScheduler::new(), disk());
    assert_reports_identical(&fast, &reference, "disk incremental vs naive");
}
