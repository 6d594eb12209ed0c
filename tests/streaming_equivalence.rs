//! Streamed vs materialized equivalence across the whole stack.
//!
//! The streaming conversion's contract is bit-identity: pulling arrivals
//! incrementally from a generator (through the driver's look-ahead
//! buffer, or through the fleet engine's on-demand splitter) must produce
//! exactly the simulation that materializing the trace up front produces.
//! These tests hold that contract for every generator, on both device
//! models, at several look-ahead depths and shard/thread splits, and for
//! the overload machinery's zero-trigger invariant. A test-only routing
//! oracle holds the fleet engine's stations to standalone drivers over
//! the same routed sub-I/Os.

use atlas_disk::{DiskDevice, DiskParams};
use mems_device::{MemsDevice, MemsParams};
use mems_fleet::{FleetConfig, FleetEngine, SubIo, VolumeSpec};
use mems_os::sched::SptfScheduler;
use proptest::prelude::*;
use storage_sim::{
    Driver, FifoScheduler, IoKind, OverloadPolicy, Request, Scheduler, SimReport, SimTime,
    StorageDevice, Tracer, VecWorkload, Workload,
};
use storage_trace::{
    CelloParams, CelloWorkload, RampWorkload, RandomWorkload, ShiftingHotspotWorkload,
    StreamingParams, StreamingWorkload, TpccParams, TpccWorkload, ZipfWorkload,
};

const MEMS_CAPACITY: u64 = 6_750_000;
/// Shared generator footprint that fits both device models.
const CAPACITY: u64 = 4_000_000;
const N: u64 = 3_000;
const SEED: u64 = 0x5EED_0011;

fn collect(mut w: impl Workload) -> Vec<Request> {
    let mut out = Vec::new();
    while let Some(r) = w.next_request() {
        out.push(r);
    }
    out
}

/// Bit-exact digest of a driver run: counts, billing, and every
/// Welford-derived aggregate as raw f64 bits.
fn digest(r: &SimReport) -> (u64, u64, u64, u64, u64, u64, u64, u64, usize, u64) {
    (
        r.completed,
        r.shed,
        r.timed_out,
        r.makespan.as_secs().to_bits(),
        r.response.mean().to_bits(),
        r.response.std_dev().to_bits(),
        r.queue_time.mean().to_bits(),
        r.busy_secs.to_bits(),
        r.max_queue_depth,
        r.event_queue_restructures,
    )
}

/// Runs `make()` materialized (collected into a `VecWorkload`) and
/// streamed (pulled through the look-ahead buffer with constant-memory
/// stats) on `device`, and asserts identical digests at several
/// look-ahead depths.
fn assert_streamed_identical<W, D, S>(
    name: &str,
    make: impl Fn() -> W,
    device: impl Fn() -> D,
    scheduler: impl Fn() -> S,
) where
    W: Workload,
    D: StorageDevice,
    S: Scheduler,
{
    let materialized = Driver::new(VecWorkload::new(collect(make())), scheduler(), device())
        .warmup_requests(100)
        .run();
    assert_eq!(
        materialized.event_queue_restructures, 0,
        "{name}: materialized run restructured its event queue"
    );
    for lookahead in [1, 7, 4096] {
        let streamed = Driver::new(make(), scheduler(), device())
            .with_arrival_lookahead(lookahead)
            .streaming_stats(true)
            .warmup_requests(100)
            .run();
        assert_eq!(
            digest(&materialized),
            digest(&streamed),
            "{name}: streamed (lookahead {lookahead}) diverged from materialized"
        );
    }
}

/// Every generator, on MEMS (SPTF) and on the disk model (FIFO).
fn per_generator<W: Workload>(name: &str, make: impl Fn() -> W + Copy) {
    assert_streamed_identical(
        &format!("{name}/mems"),
        make,
        || MemsDevice::new(MemsParams::default()),
        SptfScheduler::new,
    );
    assert_streamed_identical(
        &format!("{name}/disk"),
        make,
        || DiskDevice::new(DiskParams::quantum_atlas_10k()),
        FifoScheduler::new,
    );
}

#[test]
fn random_streamed_identical() {
    per_generator("random", || RandomWorkload::paper(CAPACITY, 800.0, N, SEED));
}

#[test]
fn zipf_streamed_identical() {
    per_generator("zipf", || {
        ZipfWorkload::new(CAPACITY, 8, 0.99, 800.0, N, SEED)
    });
}

#[test]
fn hotspot_streamed_identical() {
    per_generator("hotspot", || {
        ShiftingHotspotWorkload::new(CAPACITY, 65_536, 5.0, 0.9, 800.0, N, SEED)
    });
}

#[test]
fn streaming_media_streamed_identical() {
    per_generator("streaming", || {
        StreamingWorkload::new(
            &StreamingParams {
                capacity: CAPACITY,
                requests: N,
                ..StreamingParams::default()
            },
            SEED,
        )
    });
}

#[test]
fn cello_streamed_identical() {
    per_generator("cello", || {
        CelloWorkload::new(
            &CelloParams {
                capacity: CAPACITY,
                requests: N,
                ..CelloParams::default()
            },
            SEED,
        )
    });
}

#[test]
fn tpcc_streamed_identical() {
    per_generator("tpcc", || {
        TpccWorkload::new(
            &TpccParams {
                capacity: CAPACITY,
                requests: N,
                database_sectors: CAPACITY * 3 / 10,
                ..TpccParams::default()
            },
            SEED,
        )
    });
}

#[test]
fn ramp_streamed_identical() {
    per_generator("ramp", || {
        RampWorkload::new(CAPACITY, 200.0, 2_000.0, 2.0, 2.0, N, SEED)
    });
}

const FLEET_STATIONS: usize = 16;
const FLEET_REQUESTS: u64 = 12_000;
const FLEET_BACKGROUND: u64 = 40;

fn fleet_volume() -> VolumeSpec {
    VolumeSpec::flat(FLEET_STATIONS, 64)
}

fn fleet_workload(volume: &VolumeSpec) -> RandomWorkload {
    let rate = 400.0 * FLEET_STATIONS as f64;
    RandomWorkload::paper(volume.capacity(MEMS_CAPACITY), rate, FLEET_REQUESTS, SEED)
}

fn fleet_devices() -> Vec<MemsDevice> {
    (0..FLEET_STATIONS)
        .map(|_| MemsDevice::new(MemsParams::default()))
        .collect()
}

/// Background traffic as `(station, arrival, lbn)`: each request lands at
/// the exact arrival time of a foreground sub-I/O on its station, so the
/// foreground-first tie-break is exercised, not just ordinary merging.
fn background(volume: &VolumeSpec, requests: &[Request]) -> Vec<(usize, SimTime, u64)> {
    let mut subs = Vec::new();
    (0..FLEET_BACKGROUND)
        .map(|i| {
            let req = &requests[(i as usize * 293 + 17) % requests.len()];
            subs.clear();
            volume.route(req, &mut subs);
            (subs[0].station, req.arrival, i * 9_001)
        })
        .collect()
}

fn add_background<S, D, T, W>(engine: &mut FleetEngine<S, D, T, W>, bg: &[(usize, SimTime, u64)])
where
    S: Scheduler,
    D: StorageDevice,
    T: Tracer,
    W: Workload,
{
    for &(station, at, lbn) in bg {
        engine.add_background(station, at, lbn, 64, IoKind::Read);
    }
}

fn fleet_config(shards: usize, threads: usize) -> FleetConfig {
    FleetConfig {
        shards,
        threads,
        warmup_requests: 200,
        keep_station_completions: false,
        ..FleetConfig::default()
    }
}

/// The streaming fleet must reproduce the slice-built fleet bit for bit
/// at every shard/thread split, with background traffic in flight and the
/// per-station event queues never restructuring.
#[test]
fn fleet_streamed_identical_across_splits() {
    let volume = fleet_volume();
    let requests = collect(fleet_workload(&volume));
    let bg = background(&volume, &requests);

    let mut baseline_engine = FleetEngine::new(
        fleet_devices(),
        |_| SptfScheduler::new(),
        &volume,
        &requests,
        fleet_config(1, 1),
    );
    add_background(&mut baseline_engine, &bg);
    let baseline = baseline_engine.run();
    assert_eq!(baseline.station_restructures, 0);
    assert_eq!(baseline.background_completed, FLEET_BACKGROUND);

    for (shards, threads) in [(1, 1), (4, 2), (16, 4)] {
        let mut streamed_engine = FleetEngine::streaming(
            fleet_devices(),
            |_| SptfScheduler::new(),
            volume.clone(),
            fleet_workload(&volume),
            FleetConfig {
                streaming_stats: true,
                ..fleet_config(shards, threads)
            },
        );
        add_background(&mut streamed_engine, &bg);
        let streamed = streamed_engine.run();
        assert_eq!(
            baseline.digest(),
            streamed.digest(),
            "streaming fleet diverged at shards={shards} threads={threads}"
        );
    }
}

/// Routing oracle, independent of the engine's splitter: route every
/// request up front with `VolumeSpec::route`, merge each station's
/// background by a stable arrival sort (foreground was pushed first, so it
/// wins ties), and run each station as a plain driver. Every station of
/// the fleet report must match its standalone run bit for bit, down to
/// the completion sequence.
#[test]
fn fleet_stations_match_standalone_drivers() {
    let volume = fleet_volume();
    let requests = collect(fleet_workload(&volume));
    let bg = background(&volume, &requests);

    let mut engine = FleetEngine::new(
        fleet_devices(),
        |_| SptfScheduler::new(),
        &volume,
        &requests,
        FleetConfig {
            keep_station_completions: true,
            ..fleet_config(4, 2)
        },
    );
    add_background(&mut engine, &bg);
    let fleet = engine.run();

    let mut routed: Vec<Vec<Request>> = vec![Vec::new(); FLEET_STATIONS];
    let mut subs: Vec<SubIo> = Vec::new();
    for req in &requests {
        subs.clear();
        volume.route(req, &mut subs);
        for sub in &subs {
            routed[sub.station].push(Request::new(
                req.id,
                req.arrival,
                sub.lbn,
                sub.sectors,
                sub.kind,
            ));
        }
    }
    for (i, &(station, at, lbn)) in bg.iter().enumerate() {
        let id = FLEET_REQUESTS + i as u64;
        routed[station].push(Request::new(id, at, lbn, 64, IoKind::Read));
    }

    assert_eq!(fleet.stations.len(), FLEET_STATIONS);
    for (i, (mut reqs, station)) in routed.into_iter().zip(&fleet.stations).enumerate() {
        reqs.sort_by_key(|r| r.arrival);
        let alone = Driver::new(
            VecWorkload::new(reqs),
            SptfScheduler::new(),
            MemsDevice::new(MemsParams::default()),
        )
        .record_completions(true)
        .run();
        assert_eq!(station.completed, alone.completed, "station {i}: completed");
        assert_eq!(station.makespan, alone.makespan, "station {i}: makespan");
        for (what, a, b) in [
            ("response", station.response.mean(), alone.response.mean()),
            ("queue", station.queue_time.mean(), alone.queue_time.mean()),
            (
                "service",
                station.service_time.mean(),
                alone.service_time.mean(),
            ),
            ("busy", station.busy_secs, alone.busy_secs),
        ] {
            assert_eq!(a.to_bits(), b.to_bits(), "station {i}: {what}");
        }
        assert_eq!(
            station.max_queue_depth, alone.max_queue_depth,
            "station {i}: max queue depth"
        );
        let (a, b) = (
            station.completions.as_ref().expect("kept"),
            alone.completions.as_ref().expect("recorded"),
        );
        assert_eq!(a.len(), b.len(), "station {i}: completion count");
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.request.id, y.request.id, "station {i}: service order");
            assert_eq!(x.start_service, y.start_service, "station {i}: start");
            assert_eq!(x.completion, y.completion, "station {i}: completion");
        }
    }
}

/// An overload policy whose watermarks can never trigger must be
/// invisible: digest-identical to the plain open-loop run, zero billed.
#[test]
fn zero_shed_overload_is_identical_to_open_loop() {
    let make = || RampWorkload::new(CAPACITY, 200.0, 1_500.0, 1.0, 2.0, 4_000, SEED);
    let plain = Driver::new(
        make(),
        FifoScheduler::new(),
        MemsDevice::new(MemsParams::default()),
    )
    .run();
    let policed = Driver::new(
        make(),
        FifoScheduler::new(),
        MemsDevice::new(MemsParams::default()),
    )
    .with_overload(OverloadPolicy::watermarks(1_000_000, 1))
    .run();
    assert_eq!(policed.shed, 0);
    assert_eq!(policed.timed_out, 0);
    assert_eq!(digest(&plain), digest(&policed));
}

/// A triggered policy bills every request exactly once.
#[test]
fn overload_billing_conserves_requests() {
    let n = 6_000u64;
    let report = Driver::new(
        RampWorkload::new(CAPACITY, 200.0, 3_000.0, 1.0, 2.0, n, SEED),
        FifoScheduler::new(),
        MemsDevice::new(MemsParams::default()),
    )
    .with_overload(OverloadPolicy::watermarks(128, 32).with_queue_timeout(SimTime::from_ms(120.0)))
    .run();
    assert!(report.shed > 0, "watermarks must trigger in deep overload");
    assert_eq!(report.completed + report.shed + report.timed_out, n);
}

proptest! {
    /// Digest identity holds for arbitrary seeds, rates, and look-ahead
    /// depths, not just the hand-picked cells above.
    #[test]
    fn streamed_identity_holds_for_arbitrary_cells(
        seed in 0u64..64,
        rate_step in 1u32..5,
        lookahead in 1usize..64,
    ) {
        let rate = 400.0 * f64::from(rate_step);
        let n = 400;
        let make = || RandomWorkload::paper(CAPACITY, rate, n, seed);
        let materialized = Driver::new(
            VecWorkload::new(collect(make())),
            SptfScheduler::new(),
            MemsDevice::new(MemsParams::default()),
        )
        .run();
        let streamed = Driver::new(
            make(),
            SptfScheduler::new(),
            MemsDevice::new(MemsParams::default()),
        )
        .with_arrival_lookahead(lookahead)
        .streaming_stats(true)
        .run();
        prop_assert_eq!(digest(&materialized), digest(&streamed));
    }
}
