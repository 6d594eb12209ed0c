//! The scheduler abstraction and a baseline FIFO implementation.
//!
//! The interesting schedulers (SSTF_LBN, C-LOOK, SPTF — §4) live in the
//! `mems-os` crate; this module defines the trait the driver speaks and a
//! first-come-first-served queue used both as the paper's FCFS baseline and
//! for engine tests.

use std::collections::VecDeque;

use crate::device::PositionOracle;
use crate::request::Request;
use crate::time::SimTime;

/// Monotonic work counters a scheduler accumulates across picks.
///
/// The observability layer reads these by delta around each pick to
/// attribute per-pick work (candidates examined vs. queue depth — the
/// pruned-SPTF efficiency metric). Counting must not change which request
/// a scheduler picks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedCounters {
    /// Successful picks (calls to `pick` that returned a request).
    pub picks: u64,
    /// Candidates whose exact positioning time (or score) was evaluated.
    /// The lone candidate of a one-request queue counts as examined even
    /// though a shallow-queue pick skips computing its positioning time
    /// (with one candidate the choice does not depend on it), unless its
    /// bucket's cached winner is still valid, which counts in
    /// `cached_best_hits` exactly as the full scan would count it.
    pub candidates_examined: u64,
    /// Whole buckets skipped by a lower-bound prune (pruned SPTF only).
    pub buckets_pruned: u64,
    /// Buckets answered from the incremental per-bucket best cache instead
    /// of a rescan (incremental SPTF only).
    pub cached_best_hits: u64,
}

/// A request scheduler: holds pending requests and picks the next one to
/// service whenever the device goes idle.
///
/// `pick` is generic over the positioning oracle so the driver's event loop
/// monomorphizes the whole pick — every candidate `position_time` query
/// inlines into the concrete device model instead of hopping a vtable. The
/// trait is therefore not object-safe; code that needs a boxed scheduler
/// (CLI algorithm selection, report plumbing) goes through the
/// [`DynScheduler`] shim, which every `Scheduler` implements automatically.
pub trait Scheduler {
    /// Short algorithm name, e.g. `"SPTF"`.
    fn name(&self) -> &str;

    /// Adds a request to the pending set.
    fn enqueue(&mut self, req: Request);

    /// Removes and returns the next request to service, given the device
    /// state at `now`. Returns `None` iff no requests are pending.
    fn pick<O: PositionOracle + ?Sized>(&mut self, device: &O, now: SimTime) -> Option<Request>;

    /// Number of pending requests.
    fn len(&self) -> usize;

    /// Returns `true` if no requests are pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Monotonic work counters since construction. The default (all
    /// zeros) is for schedulers that do not instrument their picks.
    fn counters(&self) -> SchedCounters {
        SchedCounters::default()
    }
}

/// Object-safe view of a [`Scheduler`], for call sites that must erase the
/// scheduler type (e.g. picking an algorithm by name at runtime). Every
/// `Scheduler` gets this for free via a blanket impl, and
/// `Box<dyn DynScheduler>` implements `Scheduler` again, so a boxed
/// scheduler drops into any generic driver — at the cost of one dynamic
/// dispatch per pick (not per candidate).
pub trait DynScheduler {
    /// Short algorithm name, e.g. `"SPTF"`.
    fn name(&self) -> &str;

    /// Adds a request to the pending set.
    fn enqueue(&mut self, req: Request);

    /// Type-erased [`Scheduler::pick`].
    fn pick_dyn(&mut self, device: &dyn PositionOracle, now: SimTime) -> Option<Request>;

    /// Number of pending requests.
    fn len(&self) -> usize;

    /// Returns `true` if no requests are pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Monotonic work counters since construction.
    fn counters(&self) -> SchedCounters;
}

impl<S: Scheduler> DynScheduler for S {
    fn name(&self) -> &str {
        Scheduler::name(self)
    }

    fn enqueue(&mut self, req: Request) {
        Scheduler::enqueue(self, req);
    }

    fn pick_dyn(&mut self, device: &dyn PositionOracle, now: SimTime) -> Option<Request> {
        Scheduler::pick(self, device, now)
    }

    fn len(&self) -> usize {
        Scheduler::len(self)
    }

    fn counters(&self) -> SchedCounters {
        Scheduler::counters(self)
    }
}

impl Scheduler for Box<dyn DynScheduler + '_> {
    fn name(&self) -> &str {
        self.as_ref().name()
    }

    fn enqueue(&mut self, req: Request) {
        self.as_mut().enqueue(req);
    }

    fn pick<O: PositionOracle + ?Sized>(&mut self, device: &O, now: SimTime) -> Option<Request> {
        // `&O` is itself an oracle (reference blanket impl), which gives
        // the unsized-coercible `&dyn PositionOracle` the shim needs.
        self.as_mut().pick_dyn(&device, now)
    }

    fn len(&self) -> usize {
        self.as_ref().len()
    }

    fn counters(&self) -> SchedCounters {
        self.as_ref().counters()
    }
}

/// First-come-first-served scheduling (the paper's FCFS reference point).
///
/// # Examples
///
/// ```
/// use storage_sim::{ConstantDevice, FifoScheduler, IoKind, Request, Scheduler, SimTime};
///
/// let mut s = FifoScheduler::new();
/// let d = ConstantDevice::new(100, 1e-3);
/// s.enqueue(Request::new(0, SimTime::ZERO, 50, 1, IoKind::Read));
/// s.enqueue(Request::new(1, SimTime::ZERO, 10, 1, IoKind::Read));
/// assert_eq!(s.pick(&d, SimTime::ZERO).unwrap().id, 0);
/// assert_eq!(s.pick(&d, SimTime::ZERO).unwrap().id, 1);
/// ```
#[derive(Debug, Default)]
pub struct FifoScheduler {
    queue: VecDeque<Request>,
    counters: SchedCounters,
}

impl FifoScheduler {
    /// Creates an empty FCFS queue.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for FifoScheduler {
    fn name(&self) -> &str {
        "FCFS"
    }

    fn enqueue(&mut self, req: Request) {
        self.queue.push_back(req);
    }

    fn pick<O: PositionOracle + ?Sized>(&mut self, _device: &O, _now: SimTime) -> Option<Request> {
        let req = self.queue.pop_front();
        if req.is_some() {
            // FCFS considers exactly the head of the queue.
            self.counters.picks += 1;
            self.counters.candidates_examined += 1;
        }
        req
    }

    fn len(&self) -> usize {
        self.queue.len()
    }

    fn counters(&self) -> SchedCounters {
        self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::ConstantDevice;
    use crate::request::IoKind;

    // Generic over `S: Scheduler` so the trait methods resolve through the
    // bound — with both `Scheduler` and the blanket `DynScheduler` in
    // scope, direct calls on the concrete type would be ambiguous.
    fn check_arrival_order<S: Scheduler>(mut s: S) {
        let d = ConstantDevice::new(100, 1e-3);
        for i in 0..10 {
            s.enqueue(Request::new(i, SimTime::ZERO, 99 - i, 1, IoKind::Read));
        }
        assert_eq!(s.len(), 10);
        for i in 0..10 {
            assert_eq!(s.pick(&d, SimTime::ZERO).unwrap().id, i);
        }
        assert!(s.is_empty());
        assert!(s.pick(&d, SimTime::ZERO).is_none());
    }

    #[test]
    fn fifo_preserves_arrival_order() {
        check_arrival_order(FifoScheduler::new());
    }

    #[test]
    fn boxed_dyn_scheduler_preserves_arrival_order() {
        let boxed: Box<dyn DynScheduler> = Box::new(FifoScheduler::new());
        check_arrival_order(boxed);
    }
}
