//! Outside-in layer timing: one wrapper type, [`Timed`], that forwards
//! every method of the `Workload`, `Scheduler` and
//! `StorageDevice`/`PositionOracle` traits to the wrapped value and times
//! the calls that cross a layer boundary into a thread-local [`Ledger`].
//!
//! The wrappers must forward the defaulted trait methods too: a missed
//! forward silently falls back to the trait default (`rest_key → None`
//! turns off the SPTF pick cache, bucket 0 turns off pruning), and the
//! traced run would then measure a different program. The fidelity test
//! in `tests/fidelity.rs` holds them to that.
//!
//! All load runs on one thread (`FleetConfig { threads: 1, .. }`), so a
//! thread-local ledger sees every span without synchronisation.

use std::cell::RefCell;
use std::time::Instant;

use storage_sim::{
    FaultKind, PhaseEnergy, PositionOracle, Request, SchedCounters, Scheduler, ServiceBreakdown,
    SimTime, StorageDevice, Workload,
};

/// Calls into one layer boundary and the host nanoseconds they took.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Span {
    /// Calls timed.
    pub calls: u64,
    /// Host nanoseconds inside those calls, timer cost included.
    pub nanos: u64,
}

/// Everything the wrappers record on the current thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ledger {
    /// `Workload::next_request` (the storage-trace generator).
    pub gen: Span,
    /// `Scheduler::enqueue`.
    pub enqueue: Span,
    /// `Scheduler::pick`, including the positioning queries it issues.
    pub pick: Span,
    /// `PositionOracle::position_time` (the MEMS positioning model).
    pub position: Span,
    /// `StorageDevice::service`.
    pub service: Span,
    /// Pick calls that found exactly one queued request.
    pub lone_picks: u64,
    /// Pick calls that returned a request.
    pub useful_picks: u64,
    /// Scheduler work counters accumulated over every wrapped scheduler.
    pub sched: SchedCounters,
}

impl Ledger {
    /// Spans recorded, for the timer-cost estimate.
    pub fn spans(&self) -> u64 {
        self.gen.calls
            + self.enqueue.calls
            + self.pick.calls
            + self.position.calls
            + self.service.calls
    }
}

thread_local! {
    static LEDGER: RefCell<Ledger> = RefCell::default();
}

/// Returns the current thread's ledger and resets it to zero.
pub fn take_ledger() -> Ledger {
    LEDGER.with_borrow_mut(std::mem::take)
}

#[inline(always)]
fn timed<R>(slot: fn(&mut Ledger) -> &mut Span, f: impl FnOnce() -> R) -> R {
    let t0 = Instant::now();
    let r = f();
    let nanos = t0.elapsed().as_nanos() as u64;
    LEDGER.with_borrow_mut(|l| {
        let s = slot(l);
        s.calls += 1;
        s.nanos += nanos;
    });
    r
}

/// Host nanoseconds one empty span costs, from `n` empty spans: the
/// per-span timer cost the ledger reconciliation subtracts from traced
/// totals. Leaves the ledger empty.
pub fn calibrate_span_nanos(n: u64) -> f64 {
    let t0 = Instant::now();
    for i in 0..n {
        timed(|l| &mut l.gen, || std::hint::black_box(i));
    }
    let per_span = t0.elapsed().as_nanos() as f64 / n as f64;
    take_ledger();
    per_span
}

/// Times the layer-boundary calls of the wrapped workload, scheduler or
/// device and forwards every other trait method unchanged.
#[derive(Debug, Clone)]
pub struct Timed<T>(pub T);

impl<T: Workload> Workload for Timed<T> {
    fn next_request(&mut self) -> Option<Request> {
        timed(|l| &mut l.gen, || self.0.next_request())
    }

    fn len_hint(&self) -> Option<u64> {
        self.0.len_hint()
    }
}

impl<T: Scheduler> Scheduler for Timed<T> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn enqueue(&mut self, req: Request) {
        timed(|l| &mut l.enqueue, || self.0.enqueue(req));
    }

    fn pick<O: PositionOracle + ?Sized>(&mut self, device: &O, now: SimTime) -> Option<Request> {
        let queued = self.0.len();
        let before = self.0.counters();
        let picked = timed(|l| &mut l.pick, || self.0.pick(device, now));
        let after = self.0.counters();
        LEDGER.with_borrow_mut(|l| {
            l.lone_picks += u64::from(queued == 1);
            l.useful_picks += u64::from(picked.is_some());
            l.sched.picks += after.picks - before.picks;
            l.sched.candidates_examined += after.candidates_examined - before.candidates_examined;
            l.sched.buckets_pruned += after.buckets_pruned - before.buckets_pruned;
            l.sched.cached_best_hits += after.cached_best_hits - before.cached_best_hits;
        });
        picked
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    fn counters(&self) -> SchedCounters {
        self.0.counters()
    }
}

impl<T: PositionOracle> PositionOracle for Timed<T> {
    fn position_time(&self, req: &Request, now: SimTime) -> f64 {
        timed(|l| &mut l.position, || self.0.position_time(req, now))
    }

    fn position_bucket(&self, req: &Request) -> u64 {
        self.0.position_bucket(req)
    }

    fn current_bucket(&self) -> u64 {
        self.0.current_bucket()
    }

    fn min_position_time_at_bucket_distance(&self, distance: u64) -> f64 {
        self.0.min_position_time_at_bucket_distance(distance)
    }

    fn bucket_position_time_floor(&self, bucket: u64) -> f64 {
        self.0.bucket_position_time_floor(bucket)
    }

    fn rest_key(&self, now: SimTime) -> Option<[u64; 3]> {
        self.0.rest_key(now)
    }
}

impl<T: StorageDevice> StorageDevice for Timed<T> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn capacity_lbns(&self) -> u64 {
        self.0.capacity_lbns()
    }

    fn service(&mut self, req: &Request, now: SimTime) -> ServiceBreakdown {
        timed(|l| &mut l.service, || self.0.service(req, now))
    }

    fn reset(&mut self) {
        self.0.reset();
    }

    fn phase_energy(&self, breakdown: &ServiceBreakdown) -> PhaseEnergy {
        self.0.phase_energy(breakdown)
    }

    fn on_fault(&mut self, fault: &FaultKind, now: SimTime) {
        self.0.on_fault(fault, now);
    }
}
