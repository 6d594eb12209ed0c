//! The benchmark's four workloads and the one code path that builds and
//! runs a cell of any of them, wrapped in [`Timed`] or not, under any
//! tracer.
//!
//! Every workload is the paper's random mix (67% reads, exponential 4 KB
//! sizes, uniform LBNs) arriving open-loop in simulated time, on the paper
//! MEMS device with the shared seek surface. Why each one was chosen is in
//! `README.md`.

use std::sync::Arc;
use std::time::Instant;

use mems_device::{MemsDevice, MemsParams, SeekSurface};
use mems_fleet::{FleetConfig, FleetEngine, FleetReport, SubIo, VolumeSpec};
use mems_os::sched::SptfScheduler;
use storage_sim::{
    Driver, FifoScheduler, NoopTracer, Request, Scheduler, SimReport, StorageDevice, Tracer,
    VecWorkload, Workload,
};
use storage_trace::RandomWorkload;

use crate::layers::Timed;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "mems_sptf_deep",
    "mems_fifo_stream",
    "fleet_flat_sptf",
    "fleet_raidz_sptf",
];

/// The seed whose digests are recorded in `digests.txt`.
pub const DEFAULT_SEED: u64 = 1;

/// Leading completions excluded from the simulated statistics.
pub const WARMUP: u64 = 5_000;

/// Stations in each fleet workload.
const FLEET_STATIONS: usize = 64;

/// Sectors per strip in every fleet volume.
const STRIPE_UNIT: u32 = 64;

/// Arrival look-ahead of the streamed single-station workload.
const LOOKAHEAD: usize = 4096;

/// Scheduling algorithm of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sched {
    /// Shortest positioning time first (`mems_os::sched::SptfScheduler`).
    Sptf,
    /// First come, first served (`storage_sim::FifoScheduler`).
    Fifo,
}

/// How the stations are arranged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// One station driven by `storage_sim::Driver`; the fleet is bypassed.
    Single {
        /// Arrival look-ahead (1 = the driver default, unbuffered).
        lookahead: usize,
    },
    /// `VolumeSpec::flat(64, 64)`: a plain stripe over 64 stations.
    Flat,
    /// A stripe of 8 RAID-Z groups of 8 stations.
    RaidZ,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Name as given on the command line.
    pub name: &'static str,
    /// Scheduler run at every station.
    pub sched: Sched,
    /// Station arrangement.
    pub layout: Layout,
    /// Mean arrival rate per station, requests per simulated second.
    pub rate_per_station: f64,
    /// Fleet-level requests in one cell, warm-up included.
    pub requests: u64,
}

impl Spec {
    /// The workload called `name`, if there is one.
    pub fn named(name: &str) -> Option<Spec> {
        let name = WORKLOADS.into_iter().find(|w| *w == name)?;
        let (sched, layout, rate_per_station, requests) = match name {
            "mems_sptf_deep" => (
                Sched::Sptf,
                Layout::Single { lookahead: 1 },
                2000.0,
                600_000,
            ),
            "mems_fifo_stream" => (
                Sched::Fifo,
                Layout::Single {
                    lookahead: LOOKAHEAD,
                },
                500.0,
                2_000_000,
            ),
            "fleet_flat_sptf" => (Sched::Sptf, Layout::Flat, 500.0, 1_000_000),
            "fleet_raidz_sptf" => (Sched::Sptf, Layout::RaidZ, 250.0, 500_000),
            _ => unreachable!("every listed workload has a spec"),
        };
        Some(Spec {
            name,
            sched,
            layout,
            rate_per_station,
            requests,
        })
    }

    /// Number of stations.
    pub fn stations(&self) -> usize {
        match self.layout {
            Layout::Single { .. } => 1,
            Layout::Flat | Layout::RaidZ => FLEET_STATIONS,
        }
    }

    /// The fleet volume, or `None` for a single station.
    pub fn volume(&self) -> Option<VolumeSpec> {
        match self.layout {
            Layout::Single { .. } => None,
            Layout::Flat => Some(VolumeSpec::flat(FLEET_STATIONS, STRIPE_UNIT)),
            Layout::RaidZ => Some(VolumeSpec::stripe(
                (0..FLEET_STATIONS / 8)
                    .map(|g| {
                        VolumeSpec::raidz(
                            (g * 8..g * 8 + 8).map(VolumeSpec::leaf).collect(),
                            STRIPE_UNIT,
                        )
                    })
                    .collect(),
                STRIPE_UNIT,
            )),
        }
    }

    /// Fleet configuration: one thread, one shard per station, and no
    /// per-station completion streams.
    pub fn fleet_config(&self, mode: Mode) -> FleetConfig {
        FleetConfig {
            shards: self.stations(),
            threads: 1,
            warmup_requests: WARMUP,
            keep_station_completions: false,
            streaming_stats: mode != Mode::Exact,
            ..FleetConfig::default()
        }
    }

    /// The request stream of one cell: `requests` fleet-level requests
    /// drawn from `seed`, addressed over the whole volume.
    pub fn workload(&self, requests: u64, seed: u64) -> RandomWorkload {
        let leaf = MemsParams::default().geometry().total_sectors();
        let capacity = self.volume().map_or(leaf, |v| v.capacity(leaf));
        let rate = self.rate_per_station * self.stations() as f64;
        RandomWorkload::paper(capacity, rate, requests, seed)
    }
}

/// How a cell is run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The cell the end-to-end metrics time: constant-memory statistics,
    /// whose percentiles come from a log histogram with 12%-wide bins.
    Plain,
    /// [`Mode::Plain`] with the workload, schedulers and devices wrapped
    /// in [`Timed`].
    Timed,
    /// [`Mode::Plain`] retaining every response sample, so percentiles
    /// are exact. The Welford moments, and so the digest, do not change.
    Exact,
}

/// Builds the paper device's seek surface.
pub fn build_surface() -> Arc<SeekSurface> {
    Arc::new(SeekSurface::build(&MemsParams::default()).expect("paper surface within size guard"))
}

/// A paper MEMS device on the shared surface.
pub fn device(params: &MemsParams, surface: &Arc<SeekSurface>) -> MemsDevice {
    MemsDevice::new(params.clone())
        .with_seek_table(true)
        .with_seek_surface(Arc::clone(surface))
}

/// The simulated outcome of one cell.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// FNV-1a hash of the full-bit report digest.
    pub digest: u64,
    /// Fleet-level requests issued, warm-up included.
    pub attempted: u64,
    /// Requests completed after warm-up.
    pub completed: u64,
    /// Arrivals shed by an overload policy.
    pub shed: u64,
    /// Queued requests abandoned by an overload policy.
    pub timed_out: u64,
    /// Station-level sub-I/Os completed (one per request on one station).
    pub subs: u64,
    /// Simulated response time, mean, milliseconds.
    pub mean_ms: f64,
    /// Simulated response time, 99th percentile, milliseconds; exact only
    /// in [`Mode::Exact`].
    pub p99_ms: f64,
    /// Response-time samples behind the mean and p99.
    pub samples: u64,
    /// Simulated device utilization over the makespan, all stations.
    pub utilization: f64,
    /// Mean positioning time per serviced sub-I/O, milliseconds.
    pub positioning_ms_mean: f64,
    /// Mean time to first service, milliseconds.
    pub queue_ms_mean: f64,
    /// Largest scheduler queue depth at any station.
    pub max_queue_depth: usize,
    /// Simulated time of the last completion, seconds.
    pub makespan_s: f64,
    /// Each station's busy time as raw `f64` bits.
    pub station_busy: Vec<u64>,
}

impl Outcome {
    /// Whether every attempted request is accounted for exactly once.
    pub fn conserved(&self) -> bool {
        self.completed + self.shed + self.timed_out + WARMUP == self.attempted
    }

    /// Requests the simulator carried to completion, warm-up included.
    pub fn simulated(&self) -> u64 {
        self.attempted - self.shed - self.timed_out
    }

    fn from_sim(mut r: SimReport, attempted: u64) -> Outcome {
        let services = attempted - r.shed - r.timed_out;
        Outcome {
            digest: fnv1a(sim_digest(&r).as_bytes()),
            attempted,
            completed: r.completed,
            shed: r.shed,
            timed_out: r.timed_out,
            subs: services,
            mean_ms: r.response.mean_ms(),
            p99_ms: r.response.percentile(0.99) * 1e3,
            samples: r.response.count(),
            utilization: r.utilization(),
            positioning_ms_mean: r.breakdown_sum.positioning / services as f64 * 1e3,
            queue_ms_mean: r.queue_time.mean() * 1e3,
            max_queue_depth: r.max_queue_depth,
            makespan_s: r.makespan.as_secs(),
            station_busy: vec![r.busy_secs.to_bits()],
        }
    }

    fn from_fleet(mut r: FleetReport, attempted: u64) -> Outcome {
        let positioning: f64 = r.stations.iter().map(|s| s.breakdown_sum.positioning).sum();
        Outcome {
            digest: fnv1a(r.digest().as_bytes()),
            attempted,
            completed: r.completed,
            shed: r.stations.iter().map(|s| s.shed).sum(),
            timed_out: r.stations.iter().map(|s| s.timed_out).sum(),
            subs: r.subs_completed,
            mean_ms: r.response.mean_ms(),
            p99_ms: r.response.percentile(0.99) * 1e3,
            samples: r.response.count(),
            utilization: r.utilization(),
            positioning_ms_mean: positioning / r.subs_completed as f64 * 1e3,
            queue_ms_mean: r.queue_time.mean() * 1e3,
            max_queue_depth: r.max_station_queue_depth,
            makespan_s: r.makespan.as_secs(),
            station_busy: r.stations.iter().map(|s| s.busy_secs.to_bits()).collect(),
        }
    }
}

/// Full-bit digest of a [`SimReport`]: every count, and every float as
/// its IEEE-754 bit pattern, so two digests match only if the runs are
/// bit-identical.
fn sim_digest(r: &SimReport) -> String {
    let b = &r.breakdown_sum;
    let w = |x: &storage_sim::Welford| {
        format!(
            "{}:{:016x}:{:016x}:{:016x}:{:016x}",
            x.count(),
            x.mean().to_bits(),
            x.std_dev().to_bits(),
            x.min().to_bits(),
            x.max().to_bits()
        )
    };
    let bits = [
        r.makespan.as_secs(),
        r.response.mean(),
        r.response.std_dev(),
        r.response.max(),
        b.positioning,
        b.seek_x,
        b.settle,
        b.seek_y,
        b.rotation,
        b.transfer,
        b.turnaround,
        b.overhead,
        b.fault_recovery,
        b.background_wait,
        r.busy_secs,
        r.mean_queue_depth,
    ]
    .map(|x| format!("{:016x}", x.to_bits()))
    .join(",");
    format!(
        "n={} rn={} q={} s={} f=[{}] tc={} depth={} faults={} shed={} to={} restr={} rec={}",
        r.completed,
        r.response.count(),
        w(&r.queue_time),
        w(&r.service_time),
        bits,
        b.turnaround_count,
        r.max_queue_depth,
        r.fault_events,
        r.shed,
        r.timed_out,
        r.event_queue_restructures,
        r.completions.as_ref().map_or(0, Vec::len),
    )
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// One cell, built and ready to run.
enum Cell<W: Workload, S: Scheduler, D: StorageDevice, T: Tracer> {
    /// A single station.
    Single(Driver<W, S, D, T>),
    /// A streamed fleet.
    Fleet(FleetEngine<S, D, T, W>),
}

impl<W, S, D, T> Cell<W, S, D, T>
where
    W: Workload + Send,
    S: Scheduler + Send,
    D: StorageDevice + Send,
    T: Tracer + Send,
{
    /// Runs the cell to exhaustion; returns the outcome and the tracers,
    /// one per station.
    fn run(self, attempted: u64) -> (Outcome, Vec<T>) {
        match self {
            Cell::Single(mut driver) => {
                let report = driver.run();
                (
                    Outcome::from_sim(report, attempted),
                    vec![driver.into_tracer()],
                )
            }
            Cell::Fleet(engine) => {
                let run = engine.run_instrumented();
                (Outcome::from_fleet(run.report, attempted), run.tracers)
            }
        }
    }
}

/// Builds a cell of `spec` over `workload` with one scheduler, device and
/// tracer per station from the given constructors.
fn build_cell<W, S, D, T>(
    spec: &Spec,
    mode: Mode,
    workload: W,
    mut sched: impl FnMut() -> S,
    mut dev: impl FnMut() -> D,
    mut tracer: impl FnMut() -> T,
) -> Cell<W, S, D, T>
where
    W: Workload,
    S: Scheduler,
    D: StorageDevice,
    T: Tracer,
{
    match (spec.layout, spec.volume()) {
        (Layout::Single { lookahead }, _) => Cell::Single(
            Driver::new(workload, sched(), dev())
                .with_tracer(tracer())
                .with_arrival_lookahead(lookahead)
                .streaming_stats(mode != Mode::Exact)
                .warmup_requests(WARMUP),
        ),
        (_, volume) => Cell::Fleet(
            FleetEngine::streaming(
                (0..spec.stations()).map(|_| dev()).collect(),
                |_| sched(),
                volume.expect("fleet layouts have a volume"),
                workload,
                spec.fleet_config(mode),
            )
            .with_station_tracers(|_| tracer()),
        ),
    }
}

/// Builds one cell of `spec` (`requests` requests from `seed`) in `mode`
/// and runs it.
pub fn run_cell<T: Tracer + Send>(
    spec: &Spec,
    surface: &Arc<SeekSurface>,
    requests: u64,
    seed: u64,
    mode: Mode,
    tracer: impl FnMut() -> T,
) -> (Outcome, Vec<T>) {
    let cell = (spec, surface, requests, seed, mode);
    match spec.sched {
        Sched::Sptf => run_with(cell, SptfScheduler::new, tracer),
        Sched::Fifo => run_with(cell, FifoScheduler::new, tracer),
    }
}

fn run_with<S: Scheduler + Send, T: Tracer + Send>(
    (spec, surface, requests, seed, mode): (&Spec, &Arc<SeekSurface>, u64, u64, Mode),
    sched: fn() -> S,
    tracer: impl FnMut() -> T,
) -> (Outcome, Vec<T>) {
    let params = MemsParams::default();
    let workload = spec.workload(requests, seed);
    let dev = || device(&params, surface);
    if mode == Mode::Timed {
        let sched = || Timed(sched());
        let dev = || Timed(dev());
        build_cell(spec, mode, Timed(workload), sched, dev, tracer).run(requests)
    } else {
        build_cell(spec, mode, workload, sched, dev, tracer).run(requests)
    }
}

/// Builds (and drops) one [`Mode::Plain`] cell: the construction half of
/// set-up.
pub fn construct_cell(spec: &Spec, surface: &Arc<SeekSurface>, seed: u64) {
    let workload = spec.workload(spec.requests, seed);
    let params = MemsParams::default();
    let dev = || device(&params, surface);
    let mode = Mode::Plain;
    match spec.sched {
        Sched::Sptf => drop(build_cell(
            spec,
            mode,
            workload,
            SptfScheduler::new,
            dev,
            || NoopTracer,
        )),
        Sched::Fifo => drop(build_cell(
            spec,
            mode,
            workload,
            FifoScheduler::new,
            dev,
            || NoopTracer,
        )),
    }
}

/// Routes one cell's request stream through the volume outside the
/// engine. Returns each station's sub-I/O stream, in the order the
/// engine's splitter feeds it, and the host nanoseconds per sub-I/O that
/// `VolumeSpec::route` alone took over the stream.
pub fn routed_streams(spec: &Spec, requests: u64, seed: u64) -> (Vec<Vec<Request>>, f64) {
    let volume = spec.volume().expect("only fleets route");
    let mut workload = spec.workload(requests, seed);
    let stream: Vec<Request> = std::iter::from_fn(|| workload.next_request()).collect();
    let mut subs: Vec<SubIo> = Vec::with_capacity(16);
    let mut routed = 0u64;
    let t0 = Instant::now();
    for req in &stream {
        subs.clear();
        volume.route(std::hint::black_box(req), &mut subs);
        routed += subs.len() as u64;
    }
    let route_ns_per_sub = t0.elapsed().as_nanos() as f64 / routed as f64;
    let mut stations = vec![Vec::new(); spec.stations()];
    for req in &stream {
        subs.clear();
        volume.route(req, &mut subs);
        for sub in &subs {
            stations[sub.station].push(Request::new(
                req.id,
                req.arrival,
                sub.lbn,
                sub.sectors,
                sub.kind,
            ));
        }
    }
    (stations, route_ns_per_sub)
}

/// Runs each station's sub-I/O stream through its own plain `Driver`,
/// with the scheduler and device wrapped in [`Timed`] and constant-memory
/// statistics, as in a [`Mode::Timed`] fleet: the fleet's station work
/// without the fleet engine around it. Returns each
/// station's busy time as raw `f64` bits and the sub-I/Os completed, to
/// check the replay against the fleet run it stands in for.
pub fn replay_stations(
    spec: &Spec,
    surface: &Arc<SeekSurface>,
    streams: Vec<Vec<Request>>,
) -> (Vec<u64>, u64) {
    let params = MemsParams::default();
    let mut busy = Vec::with_capacity(streams.len());
    let mut subs = 0;
    for stream in streams {
        let workload = VecWorkload::new(stream);
        let dev = Timed(device(&params, surface));
        let report = match spec.sched {
            Sched::Sptf => Driver::new(workload, Timed(SptfScheduler::new()), dev)
                .streaming_stats(true)
                .run(),
            Sched::Fifo => Driver::new(workload, Timed(FifoScheduler::new()), dev)
                .streaming_stats(true)
                .run(),
        };
        busy.push(report.busy_secs.to_bits());
        subs += report.completed;
    }
    (busy, subs)
}
