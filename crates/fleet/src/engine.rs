//! The sharded fleet engine: per-station event loops, sim-time barriers,
//! and the deterministic cross-shard completion merge.
//!
//! # Execution model
//!
//! Every leaf device is a **station**: its own request queue, scheduler,
//! and event loop (a [`Driver`] stepped through the session API).
//! Stations are partitioned contiguously into **shards**; worker threads
//! advance whole shards to a common sim-time **barrier**, then the main
//! thread drains each station's completions and merges them into one
//! globally ordered stream.
//!
//! # Determinism guarantee
//!
//! Fleet results are bit-identical for any shard count, worker-thread
//! count, and barrier (epoch) width:
//!
//! * routing is a pure function of the request stream, so station
//!   timelines are **causally independent** — no station's events depend
//!   on another station's runtime state, and each station's event
//!   sequence is exactly what a standalone [`Driver::run`] over its
//!   routed sub-I/Os would produce;
//! * the merge orders completions by `(completion time, station index,
//!   station drain order)`, a total order independent of which shard or
//!   thread produced them. Each barrier drains into one reused buffer and
//!   sorts 16-byte keys, not whole completions;
//! * barriers only batch the merge: `advance_until(b)` drains *every*
//!   completion at or before `b`, so batches are disjoint time slices
//!   and their concatenation is the same total order for any width.
//!
//! With one station, the merged stream is the station's own completion
//! order, so a `shards = 1` fleet reproduces the single-loop driver
//! bit for bit (asserted by the `fleet_equivalence` integration test).

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use storage_sim::{
    Completion, Driver, FaultClock, IoKind, LogHistogram, NoopTracer, ProfScope, Profiler, Request,
    ResponseStats, RunState, Scheduler, ScopeStats, SimReport, SimTime, StorageDevice, Tracer,
    VecWorkload, Welford, Workload,
};

use crate::volume::{SubIo, VolumeSpec};

/// Fleet execution parameters.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Number of station groups advanced as units between barriers.
    pub shards: usize,
    /// Worker threads advancing shards in parallel (1 = fully serial).
    pub threads: usize,
    /// Barrier spacing in sim time; results are invariant to it.
    pub epoch: SimTime,
    /// Leading foreground completions excluded from fleet statistics.
    pub warmup_requests: u64,
    /// Retain each station's full completion stream in its
    /// [`SimReport`]. Disable for streaming-scale runs: the per-station
    /// vectors are the engine's only O(total-requests) memory term, and
    /// turning them off leaves every aggregate (and the digest) intact.
    pub keep_station_completions: bool,
    /// Use constant-memory response statistics (log-histogram
    /// percentiles) at the fleet level and in every station driver.
    /// Welford-derived fields — and therefore the digest — are
    /// bit-identical either way.
    pub streaming_stats: bool,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            shards: 1,
            threads: 1,
            epoch: SimTime::from_ms(10.0),
            warmup_requests: 0,
            keep_station_completions: true,
            streaming_stats: false,
        }
    }
}

/// Aggregated results of a fleet run.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Foreground fleet requests completed (after warm-up exclusion).
    pub completed: u64,
    /// Background (e.g. rebuild) requests completed.
    pub background_completed: u64,
    /// Per-station sub-I/Os completed, foreground and background.
    pub subs_completed: u64,
    /// Sim-time of the last sub-I/O completion anywhere in the fleet.
    pub makespan: SimTime,
    /// Foreground response times (arrival to last sub), seconds.
    pub response: ResponseStats,
    /// Foreground time-to-first-service, seconds.
    pub queue_time: Welford,
    /// Foreground first-service-to-last-completion, seconds.
    pub service_time: Welford,
    /// Background response times, seconds.
    pub background_response: Welford,
    /// Log-spaced histogram of foreground response times (p99.9 source).
    pub tail: LogHistogram,
    /// Total device busy time across every station, seconds.
    pub busy_secs: f64,
    /// Fault events delivered across the fleet.
    pub fault_events: u64,
    /// Largest scheduler queue depth seen at any station.
    pub max_station_queue_depth: usize,
    /// Event-queue restructures summed over stations. Always zero: each
    /// station driver keeps one fixed slot per event chain. Kept so
    /// [`FleetReport::digest`] keeps its format.
    pub station_restructures: u64,
    /// Each station's own [`SimReport`], in station order.
    pub stations: Vec<SimReport>,
}

impl FleetReport {
    /// Fleet throughput in foreground requests per simulated second.
    pub fn throughput(&self) -> f64 {
        let span = self.makespan.as_secs();
        if span > 0.0 {
            self.completed as f64 / span
        } else {
            0.0
        }
    }

    /// Mean station utilization: total busy time over stations x makespan.
    pub fn utilization(&self) -> f64 {
        let span = self.makespan.as_secs() * self.stations.len() as f64;
        if span > 0.0 {
            self.busy_secs / span
        } else {
            0.0
        }
    }

    /// A quantile of the foreground response-time distribution, from the
    /// log-spaced tail histogram (e.g. `0.999` for p99.9).
    pub fn tail_quantile(&self, q: f64) -> f64 {
        self.tail.quantile(q)
    }

    /// A compact bit-exact fingerprint of the run, for determinism
    /// assertions: every float is rendered as its IEEE-754 bit pattern,
    /// so two digests match only if the runs are bit-identical.
    ///
    /// Every public field participates — aggregate moments (mean, spread,
    /// extremes, counts) of each statistic plus an FNV-1a rollup of every
    /// per-station report — so a divergence anywhere in the fleet cannot
    /// slip past the CI identity gates. Digests are only ever compared
    /// run-to-run within one process, never stored as goldens, so
    /// extending this format is always safe.
    pub fn digest(&self) -> String {
        format!(
            "fg={} bg={} subs={} mk={:016x} rn={} rm={:016x} rsd={:016x} rmax={:016x} \
             qm={:016x} qmax={:016x} sm={:016x} smax={:016x} bgn={} bgm={:016x} \
             bgmax={:016x} tn={} ts={:016x} p999={:016x} busy={:016x} faults={} \
             depth={} restr={} st={:016x}",
            self.completed,
            self.background_completed,
            self.subs_completed,
            self.makespan.as_secs().to_bits(),
            self.response.count(),
            self.response.mean().to_bits(),
            self.response.std_dev().to_bits(),
            self.response.max().to_bits(),
            self.queue_time.mean().to_bits(),
            self.queue_time.max().to_bits(),
            self.service_time.mean().to_bits(),
            self.service_time.max().to_bits(),
            self.background_response.count(),
            self.background_response.mean().to_bits(),
            self.background_response.max().to_bits(),
            self.tail.count(),
            self.tail.sum().to_bits(),
            self.tail_quantile(0.999).to_bits(),
            self.busy_secs.to_bits(),
            self.fault_events,
            self.max_station_queue_depth,
            self.station_restructures,
            self.stations_fingerprint(),
        )
    }

    /// FNV-1a hash over every station's report, in station order: counts,
    /// bit patterns of the timing moments, queue and fault counters, and
    /// the per-station completion stream length. Folded into
    /// [`FleetReport::digest`] so per-station divergence (even one that
    /// cancels out in the fleet aggregates) still flips the digest.
    pub fn stations_fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut fold = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x100_0000_01b3);
        };
        for s in &self.stations {
            fold(s.completed);
            fold(s.makespan.as_secs().to_bits());
            fold(s.response.count());
            fold(s.response.mean().to_bits());
            fold(s.response.max().to_bits());
            fold(s.queue_time.mean().to_bits());
            fold(s.service_time.mean().to_bits());
            fold(s.breakdown_sum.total().to_bits());
            fold(s.busy_secs.to_bits());
            fold(s.mean_queue_depth.to_bits());
            fold(s.max_queue_depth as u64);
            fold(s.fault_events);
            fold(s.event_queue_restructures);
            fold(s.completions.as_ref().map_or(0, |c| c.len() as u64));
        }
        h
    }
}

/// One station mid-run: its driver plus the session loop state.
struct Cell<S: Scheduler, D: StorageDevice, T: Tracer, W: Workload> {
    driver: Driver<StationFeed<W>, S, D, T>,
    state: RunState,
    pending: bool,
}

/// How many sub-I/Os a streaming refill tries to leave in the asking
/// station's buffer: larger batches amortize the splitter lock without
/// affecting simulated results (buffered arrivals enter the event queue
/// one at a time either way).
const REFILL_TARGET: usize = 64;

/// The shared router behind a streaming fleet: pulls fleet-level
/// requests from the workload on demand, routes each through the volume,
/// and parks the resulting sub-I/Os in per-station ring buffers until
/// the owning station's feed asks for them.
///
/// The router emits subs in fleet order (= arrival order), and a
/// station's ring preserves it, so every station sees its subs in exactly
/// the order routing the whole request list up front would give. Ring
/// occupancy is bounded by routing skew (how many fleet requests must be
/// pulled before the asking station sees one of its own) plus the refill
/// batch — constant for stripe/mirror/parity volumes, where every station
/// appears in every few requests.
struct Splitter<W: Workload> {
    workload: W,
    volume: VolumeSpec,
    rings: Vec<VecDeque<Request>>,
    /// `(expected subs, arrival)` per fleet id, dense in id order, drained
    /// by the merge loop into the assembler each barrier.
    meta: Vec<(u32, SimTime)>,
    subs: Vec<SubIo>,
    next_id: u64,
    foreground: u64,
    exhausted: bool,
}

impl<W: Workload> Splitter<W> {
    fn new(workload: W, volume: VolumeSpec, stations: usize, foreground: u64) -> Self {
        Splitter {
            workload,
            volume,
            rings: vec![VecDeque::new(); stations],
            meta: Vec::new(),
            subs: Vec::new(),
            next_id: 0,
            foreground,
            exhausted: false,
        }
    }

    /// Moves everything already ringed for `station` into `local`, then
    /// keeps routing fleet requests until the batch target is met or the
    /// workload is exhausted.
    fn refill(&mut self, station: usize, local: &mut VecDeque<Request>) {
        debug_assert!(local.is_empty());
        std::mem::swap(local, &mut self.rings[station]);
        while local.len() < REFILL_TARGET && !self.exhausted {
            let Some(req) = self.workload.next_request() else {
                self.exhausted = true;
                break;
            };
            assert_eq!(
                req.id, self.next_id,
                "fleet workload ids must be dense 0..n in order"
            );
            assert!(
                self.next_id < self.foreground,
                "fleet workload yielded more requests than its len_hint"
            );
            self.next_id += 1;
            self.subs.clear();
            self.volume.route(&req, &mut self.subs);
            self.meta.push((self.subs.len() as u32, req.arrival));
            for sub in &self.subs {
                let r = Request::new(req.id, req.arrival, sub.lbn, sub.sectors, sub.kind);
                if sub.station == station {
                    local.push_back(r);
                } else {
                    self.rings[sub.station].push_back(r);
                }
            }
        }
    }

    /// Hands the metadata routed since the last call to the caller by
    /// swapping buffers: `out` is cleared and becomes the splitter's next
    /// buffer, so neither side reallocates once both have grown.
    fn swap_meta(&mut self, out: &mut Vec<(u32, SimTime)>) {
        out.clear();
        std::mem::swap(&mut self.meta, out);
    }
}

/// A station driver's request source: a buffered tap on the shared
/// [`Splitter`], merged by arrival with the station's (small, sorted)
/// background stream. Foreground wins arrival ties, so background work
/// queues behind foreground subs that arrive at the same instant.
struct StationFeed<W: Workload> {
    station: usize,
    local: VecDeque<Request>,
    background: VecDeque<Request>,
    splitter: Arc<Mutex<Splitter<W>>>,
}

impl<W: Workload> Workload for StationFeed<W> {
    fn next_request(&mut self) -> Option<Request> {
        if self.local.is_empty() {
            self.splitter
                .lock()
                .expect("splitter lock poisoned")
                .refill(self.station, &mut self.local);
        }
        match (self.local.front(), self.background.front()) {
            (Some(f), Some(b)) if b.arrival < f.arrival => self.background.pop_front(),
            (Some(_), _) => self.local.pop_front(),
            (None, Some(_)) => self.background.pop_front(),
            (None, None) => None,
        }
    }
}

/// In-flight assembly state of one foreground fleet request.
struct Slot {
    remaining: u32,
    arrival: SimTime,
    first_start: SimTime,
    last_end: SimTime,
}

/// Reassembles per-station sub-I/O completions into fleet-level request
/// completions, in the deterministic merged order.
///
/// Foreground requests live in a sliding window keyed by dense fleet id:
/// metadata is appended in id order, barrier by barrier as the splitter
/// routes, and fully assembled slots are reclaimed from the front, so
/// memory tracks the number of requests in flight, not the run length.
/// Background requests route to exactly one sub, so they bypass the
/// window entirely.
struct Assembler {
    foreground: u64,
    bg_arrivals: Vec<SimTime>,
    base: u64,
    slots: VecDeque<Slot>,
}

/// A fully assembled fleet request: every routed sub-I/O has completed.
struct FleetCompletion {
    id: u64,
    arrival: SimTime,
    first_start: SimTime,
    end: SimTime,
}

impl Assembler {
    fn new(foreground: u64, bg_arrivals: Vec<SimTime>) -> Self {
        Assembler {
            foreground,
            bg_arrivals,
            base: 0,
            slots: VecDeque::new(),
        }
    }

    /// Registers the next fleet request (dense id order): its routed sub
    /// count and arrival time.
    fn push_meta(&mut self, expected: u32, arrival: SimTime) {
        debug_assert!(expected > 0, "routing always produces at least one sub");
        self.slots.push_back(Slot {
            remaining: expected,
            arrival,
            first_start: SimTime::from_secs(f64::INFINITY),
            last_end: SimTime::ZERO,
        });
    }

    /// Feeds one sub-I/O completion; returns the assembled fleet
    /// completion when it was the request's last outstanding sub.
    fn feed(&mut self, c: &Completion) -> Option<FleetCompletion> {
        let id = c.request.id;
        if id >= self.foreground {
            // Background: always a single sub, no assembly needed.
            return Some(FleetCompletion {
                id,
                arrival: self.bg_arrivals[(id - self.foreground) as usize],
                first_start: c.start_service,
                end: c.completion,
            });
        }
        let idx = (id - self.base) as usize;
        let slot = &mut self.slots[idx];
        slot.first_start = slot.first_start.min(c.start_service);
        slot.last_end = slot.last_end.max(c.completion);
        slot.remaining -= 1;
        if slot.remaining == 0 {
            let fc = FleetCompletion {
                id,
                arrival: slot.arrival,
                first_start: slot.first_start,
                end: slot.last_end,
            };
            // Reclaim the assembled prefix of the window.
            while self.slots.front().is_some_and(|s| s.remaining == 0) {
                self.slots.pop_front();
                self.base += 1;
            }
            Some(fc)
        } else {
            None
        }
    }
}

/// `t`'s bit pattern mapped so that unsigned integer order equals
/// [`SimTime`]'s order ([`f64::total_cmp`]): negatives have every bit
/// flipped, non-negatives only the sign bit.
fn time_key(t: SimTime) -> u64 {
    let bits = t.as_secs().to_bits();
    bits ^ (((bits as i64 >> 63) as u64) | 1 << 63)
}

/// One barrier's cross-station completion merge, with buffers reused
/// across barriers.
///
/// Stations drain in station order into `drained`, so a completion's index
/// there grows with (station, per-station drain order). `keys` holds one
/// `(time key, station, index)` per completion; the index makes every key
/// distinct, so an unstable sort of the keys yields exactly the order of a
/// stable sort of the completions by `(completion time, station)`.
#[derive(Default)]
struct Merge {
    drained: Vec<Completion>,
    keys: Vec<(u64, u32, u32)>,
}

impl Merge {
    /// Starts a new barrier's batch.
    fn clear(&mut self) {
        self.drained.clear();
        self.keys.clear();
    }

    /// Appends everything `station` recorded since its last drain.
    fn drain_station(&mut self, station: usize, state: &mut RunState) {
        let start = self.drained.len();
        state.drain_completions_into(&mut self.drained);
        let station = u32::try_from(station).expect("station index fits u32");
        for (i, c) in self.drained.iter().enumerate().skip(start) {
            let index = u32::try_from(i).expect("barrier batch fits u32");
            self.keys.push((time_key(c.completion), station, index));
        }
    }

    /// Puts the keys in merge order.
    fn sort(&mut self) {
        self.keys.sort_unstable();
    }

    /// The batch in merge order, as `(station, completion)`.
    fn ordered(&self) -> impl Iterator<Item = (usize, &Completion)> + '_ {
        self.keys
            .iter()
            .map(|&(_, station, i)| (station as usize, &self.drained[i as usize]))
    }
}

/// A sharded multi-station fleet simulation.
///
/// Build one with [`FleetEngine::streaming`] (foreground requests pulled
/// incrementally from any [`Workload`] and routed through a
/// [`VolumeSpec`] on demand — constant memory in the run length) or with
/// [`FleetEngine::new`], which streams a request slice the same way.
/// Optionally attach per-station fault clocks and background streams, then
/// [`FleetEngine::run`] it. To observe the run, attach per-station
/// tracers with [`FleetEngine::with_station_tracers`] and use
/// [`FleetEngine::run_instrumented`], which hands the tracers back next
/// to the report. Tracers observe; they never steer — an instrumented
/// run's [`FleetReport`] is bit-identical to an untraced one.
pub struct FleetEngine<
    S: Scheduler,
    D: StorageDevice,
    T: Tracer = NoopTracer,
    W: Workload = VecWorkload,
> {
    devices: Vec<D>,
    schedulers: Vec<S>,
    faults: Vec<FaultClock>,
    tracers: Vec<T>,
    /// Fleet-level foreground requests, routed on demand by the splitter.
    workload: W,
    volume: VolumeSpec,
    /// Background requests queued per station, bypassing volume routing.
    background: Vec<Vec<Request>>,
    /// Foreground request count; background ids follow this block.
    foreground: u64,
    /// Arrival times of background requests, indexed by `id - foreground`.
    bg_arrivals: Vec<SimTime>,
    config: FleetConfig,
}

/// Everything an instrumented fleet run produces: the aggregate report,
/// each station's tracer (telemetry windows, event rings, …) and
/// post-run device (migration ledgers, degraded maps) in station order,
/// and the engine's own wall-clock profile.
pub struct FleetRun<D: StorageDevice, T: Tracer> {
    /// The aggregate fleet report — bit-identical to an untraced
    /// [`FleetEngine::run`] of the same setup.
    pub report: FleetReport,
    /// Per-station tracers, recovered from the drivers after the run.
    pub tracers: Vec<T>,
    /// Per-station devices after the run — wrapper state such as the
    /// adaptive-placement migration ledger is read from here.
    pub devices: Vec<D>,
    /// Wall-clock engine profile (barrier waits, merge time, per-shard
    /// balance). Only populated when `T::PROFILE` is set; informational,
    /// never part of a byte-gated artifact.
    pub profile: FleetProfile,
}

/// Wall-clock self-profile of the fleet engine itself: where does the
/// *engine* (as opposed to the stations' event loops) spend host time?
///
/// Populated only when the station tracer's [`Tracer::PROFILE`] flag is
/// on; a `NoopTracer`/`Telemetry` fleet compiles the `Instant` reads out
/// entirely. Wall-clock derived, therefore nondeterministic:
/// informational artifacts only, never part of a golden or digest.
#[derive(Debug, Clone, Default)]
pub struct FleetProfile {
    /// Barriers executed (equals cross-shard merge batches).
    pub barriers: u64,
    /// Total wall nanoseconds each shard spent advancing its stations,
    /// indexed by shard. Spread here = shard imbalance.
    pub shard_nanos: Vec<u64>,
    profiler: Profiler,
}

impl FleetProfile {
    fn new(shards: usize) -> Self {
        FleetProfile {
            barriers: 0,
            shard_nanos: vec![0; shards],
            profiler: Profiler::new(),
        }
    }

    /// Wall time the main thread spent inside barriers (waiting for the
    /// slowest shard), as a [`ScopeStats`].
    pub fn barrier_wait(&self) -> ScopeStats {
        self.profiler.scope(ProfScope::BarrierWait)
    }

    /// Wall time spent draining, sorting, and assembling completions.
    pub fn merge(&self) -> ScopeStats {
        self.profiler.scope(ProfScope::FleetMerge)
    }

    /// Shard imbalance: slowest shard's advance time over the mean
    /// (1.0 = perfectly balanced; 0.0 before any profiled barrier).
    pub fn imbalance(&self) -> f64 {
        let max = self.shard_nanos.iter().copied().max().unwrap_or(0);
        if max == 0 {
            return 0.0;
        }
        let mean = self.shard_nanos.iter().sum::<u64>() as f64 / self.shard_nanos.len() as f64;
        max as f64 / mean
    }

    /// The underlying [`Profiler`] (barrier-wait and fleet-merge scopes).
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// The profile as a compact JSON object (informational only).
    pub fn summary_json(&self) -> String {
        use std::fmt::Write as _;
        let bw = self.barrier_wait();
        let mg = self.merge();
        let mut s = String::with_capacity(256);
        let _ = write!(
            s,
            "{{ \"barriers\": {}, \"barrier_wait_s\": {:.6}, \"merge_s\": {:.6}, \
             \"shard_imbalance\": {:.4}, \"shard_nanos\": [",
            self.barriers,
            bw.seconds(),
            mg.seconds(),
            self.imbalance(),
        );
        for (i, n) in self.shard_nanos.iter().enumerate() {
            let _ = write!(s, "{}{n}", if i == 0 { "" } else { ", " });
        }
        s.push_str("] }");
        s
    }
}

/// Validates shared fleet construction invariants.
fn check_fleet_setup(stations: usize, volume: &VolumeSpec, config: &FleetConfig) {
    assert!(stations > 0, "fleet needs at least one device");
    assert!(
        volume.max_station() < stations,
        "volume references station {} but the fleet has {} devices",
        volume.max_station(),
        stations
    );
    assert!(config.shards >= 1, "need at least one shard");
    assert!(config.threads >= 1, "need at least one worker thread");
    assert!(config.epoch > SimTime::ZERO, "epoch must be positive");
}

impl<S: Scheduler, D: StorageDevice> FleetEngine<S, D> {
    /// Routes `requests` (fleet-level, addressed in the volume's LBN
    /// space, ids dense from 0 in arrival order) through `volume` onto
    /// the stations and prepares one driver per device.
    ///
    /// This is [`FleetEngine::streaming`] over a [`VecWorkload`] of the
    /// requests: one engine path, whichever way the requests arrive.
    ///
    /// # Panics
    ///
    /// Panics if the volume references a station outside `devices`, if
    /// request ids are not dense `0..n` in order, or if the config asks
    /// for zero shards/threads or a non-positive epoch.
    pub fn new(
        devices: Vec<D>,
        make_scheduler: impl FnMut(usize) -> S,
        volume: &VolumeSpec,
        requests: &[Request],
        config: FleetConfig,
    ) -> Self {
        for (i, req) in requests.iter().enumerate() {
            assert_eq!(
                req.id, i as u64,
                "fleet request ids must be dense 0..n in order"
            );
        }
        FleetEngine::streaming(
            devices,
            make_scheduler,
            volume.clone(),
            VecWorkload::new(requests.to_vec()),
            config,
        )
    }
}

impl<S: Scheduler, D: StorageDevice, W: Workload> FleetEngine<S, D, NoopTracer, W> {
    /// Builds a fleet whose foreground requests are pulled incrementally
    /// from `workload` and routed through `volume` on demand — nothing is
    /// materialized, so memory is constant in the run length. Every
    /// station's report is bit-identical to a standalone driver over its
    /// routed sub-I/Os, at every shard/thread split (gated by the
    /// `streaming_equivalence` integration tests).
    ///
    /// The workload must yield requests with ids dense from 0 in arrival
    /// order (every generator in `storage-trace` does) and must know its
    /// exact length: the foreground block size anchors background id
    /// allocation and the foreground/background billing split.
    ///
    /// # Panics
    ///
    /// Panics if `workload.len_hint()` is `None`, if the volume references
    /// a station outside `devices`, or if the config asks for zero
    /// shards/threads or a non-positive epoch.
    pub fn streaming(
        devices: Vec<D>,
        mut make_scheduler: impl FnMut(usize) -> S,
        volume: VolumeSpec,
        workload: W,
        config: FleetConfig,
    ) -> Self {
        check_fleet_setup(devices.len(), &volume, &config);
        let foreground = workload
            .len_hint()
            .expect("a streaming fleet workload must have an exact len_hint");

        let n = devices.len();
        FleetEngine {
            schedulers: (0..n).map(&mut make_scheduler).collect(),
            faults: (0..n).map(|_| FaultClock::empty()).collect(),
            tracers: (0..n).map(|_| NoopTracer).collect(),
            workload,
            volume,
            background: vec![Vec::new(); n],
            foreground,
            bg_arrivals: Vec::new(),
            config,
            devices,
        }
    }
}

impl<S: Scheduler, D: StorageDevice, T: Tracer, W: Workload> FleetEngine<S, D, T, W> {
    /// Attaches one tracer per station (telemetry, ring, pairs, …),
    /// rebinding the engine's tracer type. `make` is called once per
    /// station, in station order. Tracers are observation-only: the
    /// simulated results stay bit-identical to an untraced run (gated by
    /// the `fleet_observability` integration test).
    pub fn with_station_tracers<T2: Tracer>(
        self,
        mut make: impl FnMut(usize) -> T2,
    ) -> FleetEngine<S, D, T2, W> {
        let n = self.devices.len();
        FleetEngine {
            devices: self.devices,
            schedulers: self.schedulers,
            faults: self.faults,
            tracers: (0..n).map(&mut make).collect(),
            workload: self.workload,
            volume: self.volume,
            background: self.background,
            foreground: self.foreground,
            bg_arrivals: self.bg_arrivals,
            config: self.config,
        }
    }

    /// Number of stations.
    pub fn stations(&self) -> usize {
        self.devices.len()
    }

    /// Attaches a fault clock to one station's device.
    pub fn set_station_faults(&mut self, station: usize, clock: FaultClock) {
        self.faults[station] = clock;
    }

    /// Queues a background (rebuild, scrub, migration) sub-I/O directly
    /// on one station, bypassing volume routing. Returns the assigned
    /// fleet id (background ids follow the foreground block). Background
    /// completions are reported separately from foreground statistics.
    pub fn add_background(
        &mut self,
        station: usize,
        at: SimTime,
        lbn: u64,
        sectors: u32,
        kind: IoKind,
    ) -> u64 {
        let id = self.foreground + self.bg_arrivals.len() as u64;
        self.bg_arrivals.push(at);
        self.background[station].push(Request::new(id, at, lbn, sectors, kind));
        id
    }

    /// Runs the fleet to exhaustion and aggregates the report.
    ///
    /// `Send` bounds exist so shards can advance on worker threads; with
    /// `threads == 1` everything runs on the caller's thread.
    pub fn run(self) -> FleetReport
    where
        S: Send,
        D: Send,
        T: Send,
        W: Send,
    {
        self.run_instrumented().report
    }

    /// Runs the fleet and returns the report together with every
    /// station's tracer and the engine's wall-clock profile.
    ///
    /// The simulation path is exactly [`FleetEngine::run`]'s — tracers
    /// observe through the driver's existing hooks and the profile reads
    /// the host clock without feeding anything back, so the report is
    /// bit-identical to an untraced run.
    pub fn run_instrumented(self) -> FleetRun<D, T>
    where
        S: Send,
        D: Send,
        T: Send,
        W: Send,
    {
        self.run_merging(Merge::sort)
    }

    /// The run loop, with `order` putting each barrier's [`Merge`] batch
    /// in merge order. Production passes [`Merge::sort`]; the unit tests
    /// also pass the pre-key stable sort as an oracle.
    fn run_merging(mut self, mut order: impl FnMut(&mut Merge)) -> FleetRun<D, T>
    where
        S: Send,
        D: Send,
        T: Send,
        W: Send,
    {
        let n = self.devices.len();
        let config = self.config;
        let mut profile = FleetProfile::new(config.shards.min(n).max(1));

        let mut assembler = Assembler::new(self.foreground, std::mem::take(&mut self.bg_arrivals));
        let splitter = Arc::new(Mutex::new(Splitter::new(
            self.workload,
            self.volume,
            n,
            self.foreground,
        )));
        let feeds = self
            .background
            .into_iter()
            .enumerate()
            .map(|(station, mut bg)| {
                // Background pushes need not arrive in order; the sort is
                // stable, so equal-arrival requests keep insertion order.
                bg.sort_by_key(|r| r.arrival);
                StationFeed {
                    station,
                    local: VecDeque::new(),
                    background: VecDeque::from(bg),
                    splitter: Arc::clone(&splitter),
                }
            });

        let mut cells: Vec<Cell<S, D, T, W>> = Vec::with_capacity(n);
        for (((device, scheduler), tracer), (feed, faults)) in self
            .devices
            .into_iter()
            .zip(self.schedulers)
            .zip(self.tracers)
            .zip(feeds.zip(self.faults))
        {
            let mut driver = Driver::new(feed, scheduler, device)
                .with_tracer(tracer)
                .record_completions(true)
                .streaming_stats(config.streaming_stats)
                .with_faults(faults);
            let state = driver.begin();
            let pending = state.pending_events() > 0;
            cells.push(Cell {
                driver,
                state,
                pending,
            });
        }
        let mut report = FleetReport {
            completed: 0,
            background_completed: 0,
            subs_completed: 0,
            makespan: SimTime::ZERO,
            response: if config.streaming_stats {
                ResponseStats::streaming()
            } else {
                ResponseStats::new()
            },
            queue_time: Welford::new(),
            service_time: Welford::new(),
            background_response: Welford::new(),
            tail: LogHistogram::response_times(),
            busy_secs: 0.0,
            fault_events: 0,
            max_station_queue_depth: 0,
            station_restructures: 0,
            stations: Vec::with_capacity(n),
        };
        let mut station_completions: Vec<Vec<Completion>> = vec![Vec::new(); n];
        let mut emitted_fg: u64 = 0;
        let mut merge = Merge::default();
        let mut metas: Vec<(u32, SimTime)> = Vec::new();
        let epoch_secs = config.epoch.as_secs();

        // Run until every station's event queue is empty. The barrier is
        // the smallest epoch-grid point covering the earliest pending
        // event anywhere (a pure function of sim state — identical for
        // every shard/thread split).
        while let Some(next) = cells.iter().filter_map(|c| c.state.next_event_time()).min() {
            let grid = SimTime::from_secs((next.as_secs() / epoch_secs).ceil() * epoch_secs);
            let barrier = grid.max(next);

            let t0 = T::PROFILE.then(Instant::now);
            advance_shards(
                &mut cells,
                barrier,
                config.shards,
                config.threads,
                T::PROFILE.then_some(&mut profile.shard_nanos),
            );
            if let Some(t0) = t0 {
                profile
                    .profiler
                    .on_scope(ProfScope::BarrierWait, t0.elapsed().as_nanos() as u64);
            }
            profile.barriers += 1;
            let m0 = T::PROFILE.then(Instant::now);

            // Request metadata is discovered as stations pull from the
            // splitter; everything routed during this barrier interval is
            // registered before its completions are fed (a sub completes
            // only after it was routed, and routing happens strictly
            // before the barrier's drain below).
            splitter
                .lock()
                .expect("splitter lock poisoned")
                .swap_meta(&mut metas);
            for &(e, a) in &metas {
                assembler.push_meta(e, a);
            }

            // Drain in station order, then impose the global order:
            // (completion time, station, per-station drain order).
            merge.clear();
            for (i, cell) in cells.iter_mut().enumerate() {
                merge.drain_station(i, &mut cell.state);
            }
            order(&mut merge);

            for (station, c) in merge.ordered() {
                report.subs_completed += 1;
                if config.keep_station_completions {
                    station_completions[station].push(*c);
                }
                if let Some(fc) = assembler.feed(c) {
                    report.makespan = report.makespan.max(fc.end);
                    let response = (fc.end - fc.arrival).as_secs();
                    if fc.id < self.foreground {
                        emitted_fg += 1;
                        if emitted_fg > config.warmup_requests {
                            report.completed += 1;
                            report.response.push(response);
                            report
                                .queue_time
                                .push((fc.first_start - fc.arrival).as_secs());
                            report
                                .service_time
                                .push((fc.end - fc.first_start).as_secs());
                            report.tail.push(response);
                        }
                    } else {
                        report.background_completed += 1;
                        report.background_response.push(response);
                    }
                }
            }
            if let Some(m0) = m0 {
                profile
                    .profiler
                    .on_scope(ProfScope::FleetMerge, m0.elapsed().as_nanos() as u64);
            }
        }

        let mut tracers = Vec::with_capacity(n);
        let mut devices = Vec::with_capacity(n);
        for (cell, completions) in cells.into_iter().zip(station_completions) {
            let Cell {
                mut driver, state, ..
            } = cell;
            let mut station = driver.finish(state);
            report.busy_secs += station.busy_secs;
            report.fault_events += station.fault_events;
            report.station_restructures += station.event_queue_restructures;
            report.max_station_queue_depth =
                report.max_station_queue_depth.max(station.max_queue_depth);
            station.completions = config.keep_station_completions.then_some(completions);
            report.stations.push(station);
            let (tracer, device) = driver.into_observables();
            tracers.push(tracer);
            devices.push(device);
        }
        FleetRun {
            report,
            tracers,
            devices,
            profile,
        }
    }
}

/// One shard's unit of work: its contiguous cell slice plus the optional
/// wall-clock accumulator slot (profiled runs only).
type ShardJob<'a, S, D, T, W> = (&'a mut [Cell<S, D, T, W>], Option<&'a mut u64>);

/// Advances every station to `barrier`, shard by shard. Shards are
/// contiguous station ranges; worker threads take shards round-robin.
/// Stations never share state, so the split is embarrassingly parallel
/// and the post-barrier fleet state is independent of both knobs. An
/// unprofiled run with one thread (or one shard) walks the cells in place,
/// with no per-barrier allocation.
///
/// When `shard_nanos` is supplied (profiled runs), each shard's advance
/// wall time accumulates into its slot — slots are disjoint per shard,
/// so workers never contend. Timing reads the host clock and feeds
/// nothing back into simulation state.
fn advance_shards<
    S: Scheduler + Send,
    D: StorageDevice + Send,
    T: Tracer + Send,
    W: Workload + Send,
>(
    cells: &mut [Cell<S, D, T, W>],
    barrier: SimTime,
    shards: usize,
    threads: usize,
    shard_nanos: Option<&mut [u64]>,
) {
    let n = cells.len();
    let shards = shards.min(n).max(1);
    let advance_all = |shard: &mut [Cell<S, D, T, W>]| {
        for cell in shard.iter_mut() {
            if cell.pending {
                cell.pending = cell.driver.advance_until(&mut cell.state, barrier);
            }
        }
    };

    let serial = threads <= 1 || shards <= 1;
    if serial && shard_nanos.is_none() {
        advance_all(cells);
        return;
    }

    let mut slices: Vec<&mut [Cell<S, D, T, W>]> = Vec::with_capacity(shards);
    let mut rest = cells;
    let mut start = 0;
    for s in 0..shards {
        let end = (s + 1) * n / shards;
        let (head, tail) = rest.split_at_mut(end - start);
        slices.push(head);
        rest = tail;
        start = end;
    }
    let mut nanos_slots: Vec<Option<&mut u64>> = match shard_nanos {
        Some(slots) => slots.iter_mut().map(Some).collect(),
        None => (0..shards).map(|_| None).collect(),
    };
    let mut jobs: Vec<ShardJob<'_, S, D, T, W>> =
        slices.into_iter().zip(nanos_slots.drain(..)).collect();

    let advance = |(shard, slot): ShardJob<'_, S, D, T, W>| {
        let t0 = slot.is_some().then(Instant::now);
        advance_all(shard);
        if let (Some(slot), Some(t0)) = (slot, t0) {
            *slot += t0.elapsed().as_nanos() as u64;
        }
    };

    if serial {
        for job in jobs {
            advance(job);
        }
    } else {
        let workers = threads.min(shards);
        let mut queues: Vec<Vec<ShardJob<'_, S, D, T, W>>> =
            (0..workers).map(|_| Vec::new()).collect();
        for (i, job) in jobs.drain(..).enumerate() {
            queues[i % workers].push(job);
        }
        std::thread::scope(|scope| {
            for queue in queues {
                scope.spawn(move || {
                    for job in queue {
                        advance(job);
                    }
                });
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use storage_sim::{ConstantDevice, FifoScheduler};

    /// The merge before compact keys, kept as the oracle: a stable sort of
    /// whole `(completion, station)` records by `(completion time,
    /// station)`, written back as keys so the run loop can consume it.
    /// Before sorting, `keys[i]` still describes `drained[i]`.
    fn oracle_sort(merge: &mut Merge) {
        let mut batch: Vec<(Completion, usize, u32)> = merge
            .keys
            .iter()
            .map(|&(_, station, i)| (merge.drained[i as usize], station as usize, i))
            .collect();
        batch.sort_by(|a, b| a.0.completion.cmp(&b.0.completion).then(a.1.cmp(&b.1)));
        merge.keys = batch
            .into_iter()
            .map(|(c, station, i)| (time_key(c.completion), station as u32, i))
            .collect();
    }

    #[test]
    fn time_key_orders_like_sim_time() {
        let times: Vec<SimTime> = [
            f64::NEG_INFINITY,
            -1.5,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            1e-9,
            0.5,
            0.5000000000000001,
            3.0,
            f64::MAX,
            f64::INFINITY,
        ]
        .into_iter()
        .map(SimTime::from_secs)
        .collect();
        for a in &times {
            for b in &times {
                assert_eq!(time_key(*a).cmp(&time_key(*b)), a.cmp(b), "{a:?} vs {b:?}");
            }
        }
    }

    /// A striped fleet of constant-service stations: requests arrive in
    /// bursts on a 1 ms grid and span up to four stripe units, so sub-I/Os
    /// of one request, and of different requests, complete at the same
    /// instant on different stations.
    fn tied_fleet(config: FleetConfig) -> FleetEngine<FifoScheduler, ConstantDevice> {
        let stations = 6;
        let unit = 8;
        let volume = VolumeSpec::flat(stations, unit);
        let leaf_cap = 1 << 20;
        let cap = volume.capacity(leaf_cap);
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let requests: Vec<Request> = (0..600u64)
            .map(|id| {
                let at = SimTime::from_ms((id / 4) as f64);
                let sectors = 1 + (next() % (4 * u64::from(unit))) as u32;
                let lbn = next() % (cap - u64::from(sectors));
                let kind = if next() % 3 == 0 {
                    IoKind::Write
                } else {
                    IoKind::Read
                };
                Request::new(id, at, lbn, sectors, kind)
            })
            .collect();
        let devices = (0..stations)
            .map(|_| ConstantDevice::new(leaf_cap, 0.5e-3))
            .collect();
        FleetEngine::new(
            devices,
            |_| FifoScheduler::new(),
            &volume,
            &requests,
            config,
        )
    }

    /// Every merged completion as `(station, id, completion bits)`.
    fn merged_run(config: FleetConfig, sort: fn(&mut Merge)) -> (Vec<(usize, u64, u64)>, String) {
        let mut merged = Vec::new();
        let run = tied_fleet(config).run_merging(|m: &mut Merge| {
            sort(m);
            merged.extend(
                m.ordered()
                    .map(|(s, c)| (s, c.request.id, c.completion.as_secs().to_bits())),
            );
        });
        (merged, run.report.digest())
    }

    #[test]
    fn key_merge_matches_the_stable_sort_oracle() {
        for (shards, threads, epoch_ms) in [(1, 1, 10.0), (3, 1, 0.25), (6, 2, 1.0), (1, 1, 1e4)] {
            let config = FleetConfig {
                shards,
                threads,
                epoch: SimTime::from_ms(epoch_ms),
                ..FleetConfig::default()
            };
            let (merged, digest) = merged_run(config, Merge::sort);
            let (oracle, oracle_digest) = merged_run(config, oracle_sort);
            let cross_station_ties = merged
                .windows(2)
                .filter(|w| w[0].2 == w[1].2 && w[0].0 != w[1].0)
                .count();
            assert!(
                cross_station_ties > 100,
                "the fleet must tie across stations ({cross_station_ties})"
            );
            assert_eq!(
                merged, oracle,
                "merge order at {shards}/{threads}/{epoch_ms} ms"
            );
            assert_eq!(digest, oracle_digest);
        }
    }
}
