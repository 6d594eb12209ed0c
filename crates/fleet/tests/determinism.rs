//! The fleet determinism contract: bit-identical reports for any shard
//! count, worker-thread count, and barrier width — including faulted and
//! rebuild-under-load runs — plus the restructure-free event-queue
//! guarantee.

use mems_device::{MemsDevice, MemsParams};
use mems_os::fault::DegradedDevice;
use mems_os::sched::SptfScheduler;
use storage_sim::{
    ConstantDevice, Driver, FaultClock, FifoScheduler, IoKind, Request, SimTime, VecWorkload,
    Workload,
};
use storage_trace::RandomWorkload;

use mems_fleet::{FleetConfig, FleetEngine, FleetReport, RebuildPlan, VolumeSpec};

const MEMS_CAPACITY: u64 = 6_750_000;

fn collect(mut w: impl Workload) -> Vec<Request> {
    let mut out = Vec::new();
    while let Some(r) = w.next_request() {
        out.push(r);
    }
    out
}

/// A 16-station striped MEMS fleet cell, run with the given knobs.
fn striped_cell(shards: usize, threads: usize, epoch_ms: f64) -> FleetReport {
    let stations = 16;
    let volume = VolumeSpec::flat(stations, 64);
    let requests = collect(RandomWorkload::paper(
        volume.capacity(MEMS_CAPACITY),
        2000.0,
        600,
        42,
    ));
    let engine = FleetEngine::new(
        (0..stations)
            .map(|_| MemsDevice::new(MemsParams::default()))
            .collect(),
        |_| SptfScheduler::new(),
        &volume,
        &requests,
        FleetConfig {
            shards,
            threads,
            epoch: SimTime::from_ms(epoch_ms),
            warmup_requests: 50,
            ..FleetConfig::default()
        },
    );
    engine.run()
}

#[test]
fn digest_is_invariant_across_shards_and_threads() {
    let baseline = striped_cell(1, 1, 10.0);
    assert!(baseline.completed > 0);
    assert_eq!(
        baseline.station_restructures, 0,
        "every station's event slots must stay restructure-free"
    );
    for (shards, threads) in [(4, 1), (4, 4), (16, 8), (16, 16)] {
        let run = striped_cell(shards, threads, 10.0);
        assert_eq!(
            baseline.digest(),
            run.digest(),
            "shards={shards} threads={threads} diverged"
        );
    }
}

#[test]
fn digest_is_invariant_across_epoch_widths() {
    let narrow = striped_cell(4, 2, 1.0);
    let medium = striped_cell(4, 2, 37.0);
    let wide = striped_cell(4, 2, 1000.0);
    assert_eq!(narrow.digest(), medium.digest());
    assert_eq!(narrow.digest(), wide.digest());
}

#[test]
fn single_station_fleet_reproduces_the_single_loop_driver() {
    let reqs: Vec<Request> = (0..200)
        .map(|i| {
            Request::new(
                i,
                SimTime::from_ms(i as f64 * 0.37),
                (i * 8) % 4096,
                8,
                if i % 3 == 0 {
                    IoKind::Write
                } else {
                    IoKind::Read
                },
            )
        })
        .collect();

    let mut solo = Driver::new(
        VecWorkload::new(reqs.clone()),
        FifoScheduler::new(),
        ConstantDevice::new(10_000, 1e-3),
    )
    .record_completions(true);
    let solo_report = solo.run();

    let fleet = FleetEngine::new(
        vec![ConstantDevice::new(10_000, 1e-3)],
        |_| FifoScheduler::new(),
        &VolumeSpec::leaf(0),
        &reqs,
        FleetConfig::default(),
    )
    .run();

    let station = &fleet.stations[0];
    assert_eq!(station.completed, solo_report.completed);
    assert_eq!(station.makespan, solo_report.makespan);
    assert_eq!(
        station.response.mean().to_bits(),
        solo_report.response.mean().to_bits()
    );
    assert_eq!(station.busy_secs.to_bits(), solo_report.busy_secs.to_bits());
    assert_eq!(
        station.mean_queue_depth.to_bits(),
        solo_report.mean_queue_depth.to_bits()
    );
    let (a, b) = (
        station.completions.as_ref().unwrap(),
        solo_report.completions.as_ref().unwrap(),
    );
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.request.id, y.request.id);
        assert_eq!(x.start_service, y.start_service);
        assert_eq!(x.completion, y.completion);
    }
    // Fleet-level stats over a leaf volume are the station's own stream.
    assert_eq!(fleet.completed, solo_report.completed);
    assert_eq!(fleet.makespan, solo_report.makespan);
    assert_eq!(
        fleet.response.mean().to_bits(),
        solo_report.response.mean().to_bits()
    );
}

/// A mirrored pair with a tip failure on one replica and a paced rebuild
/// stream copying the survivor back — the rebuild-under-load scenario.
fn rebuild_cell(shards: usize, threads: usize) -> FleetReport {
    let volume = VolumeSpec::mirror(vec![VolumeSpec::leaf(0), VolumeSpec::leaf(1)]);
    let requests = collect(RandomWorkload::paper(
        volume.capacity(MEMS_CAPACITY),
        400.0,
        400,
        7,
    ));
    let mut engine = FleetEngine::new(
        (0..2)
            .map(|i| {
                DegradedDevice::mems(MemsDevice::new(MemsParams::default()), 90 + i)
                    .with_spare_tips(8)
            })
            .collect(),
        |_| SptfScheduler::new(),
        &volume,
        &requests,
        FleetConfig {
            shards,
            threads,
            epoch: SimTime::from_ms(20.0),
            warmup_requests: 0,
            ..FleetConfig::default()
        },
    );
    engine.set_station_faults(
        0,
        FaultClock::tip_failures(11, 4, 6400, SimTime::from_secs(0.5)),
    );
    let queued = RebuildPlan {
        source: 1,
        target: 0,
        start: SimTime::from_secs(0.5),
        pace: SimTime::from_ms(2.0),
        span_lbns: 64 * 128,
        chunk_sectors: 128,
    }
    .inject(&mut engine);
    assert_eq!(queued, 2 * 64);
    engine.run()
}

#[test]
fn faulted_rebuild_runs_stay_deterministic() {
    let a = rebuild_cell(1, 1);
    let b = rebuild_cell(2, 2);
    assert_eq!(a.digest(), b.digest());
    assert!(a.fault_events > 0, "tip failures must be delivered");
    assert_eq!(
        a.background_completed,
        2 * 64,
        "every rebuild chunk must complete"
    );
    assert_eq!(a.station_restructures, 0);
}

#[test]
fn background_ids_do_not_disturb_foreground_stats() {
    // The same foreground workload with and without an idle-period
    // background stream: foreground stats may shift only through queue
    // contention; with a rebuild starting after the workload drains,
    // foreground stats must be bit-identical.
    let volume = VolumeSpec::leaf(0);
    let requests: Vec<Request> = (0..50)
        .map(|i| Request::new(i, SimTime::from_ms(i as f64), i * 64, 8, IoKind::Read))
        .collect();
    let plain = FleetEngine::new(
        vec![ConstantDevice::new(100_000, 1e-3)],
        |_| FifoScheduler::new(),
        &volume,
        &requests,
        FleetConfig::default(),
    )
    .run();
    let mut with_bg = FleetEngine::new(
        vec![ConstantDevice::new(100_000, 1e-3)],
        |_| FifoScheduler::new(),
        &volume,
        &requests,
        FleetConfig::default(),
    );
    // Foreground drains by ~51 ms; the background stream starts at 1 s.
    for i in 0..10u64 {
        with_bg.add_background(
            0,
            SimTime::from_secs(1.0 + i as f64 * 0.01),
            i * 128,
            64,
            IoKind::Write,
        );
    }
    let with_bg = with_bg.run();
    assert_eq!(with_bg.background_completed, 10);
    assert_eq!(plain.completed, with_bg.completed);
    assert_eq!(
        plain.response.mean().to_bits(),
        with_bg.response.mean().to_bits()
    );
    assert!(with_bg.makespan > plain.makespan);
}
