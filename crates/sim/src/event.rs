//! Stable priority event queues.
//!
//! The queues order events by simulation time, breaking ties by insertion
//! order (FIFO). Stability matters: the paper's workloads can generate
//! simultaneous arrivals, and an unstable queue would make runs depend on
//! queue internals rather than on the workload seed.
//!
//! Two implementations share the same API and the exact same `(time, seq)`
//! pop order:
//!
//! * [`EventQueue`] — a calendar (bucketed) queue \[Brown 1988]: fixed-width
//!   time buckets over a power-of-two ring, each bucket kept sorted by
//!   `(time, seq)`, with an occupancy bitmap for sparse scans, an overflow
//!   min-heap for events beyond the ring's span, and an automatic rebuild
//!   that retunes the bucket width to the observed event density. This is
//!   the closed loop's queue ([`crate::closed_loop`] keeps one pending
//!   issue per thinker, so its population grows with the multiprogramming
//!   level) and the general-purpose queue the engine benches measure: pops
//!   hit the cursor bucket directly and pushes are one binary insert into
//!   a near-empty bucket, with no heap sift.
//! * [`BinaryHeapEventQueue`] — the classic `BinaryHeap` min-queue, kept as
//!   the reference implementation the property tests and the perf ladder
//!   compare against, and the oracle for the [`crate::Driver`]'s
//!   one-slot-per-chain pending set.
//!
//! The open-loop [`crate::Driver`] uses neither: with one request in
//! service it never has more than three events pending, one per chain, and
//! keeps them in fixed slots that pop in the same `(time, seq)` order.
//!
//! Pop-order equivalence between the two queues is asserted by unit tests
//! here and by the engine property tests.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// An event scheduled at a point in simulated time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event<T> {
    /// When the event fires.
    pub at: SimTime,
    /// The payload delivered to the simulation loop.
    pub payload: T,
}

#[derive(Debug)]
struct HeapEntry<T> {
    at: SimTime,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for HeapEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<T> Eq for HeapEntry<T> {}

impl<T> PartialOrd for HeapEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for HeapEntry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) wins.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The common interface of the two event-queue implementations, so
/// benchmarks and oracle tests can drive the calendar queue and its
/// binary-heap reference through one generic harness.
pub trait SimQueue<T> {
    /// Creates an empty queue.
    fn new() -> Self;

    /// Creates an empty queue able to absorb `capacity` events before any
    /// internal reallocation or restructure.
    fn with_capacity(capacity: usize) -> Self;

    /// Number of events the queue can hold before restructuring.
    fn capacity(&self) -> usize;

    /// Schedules `payload` to fire at `at`.
    fn push(&mut self, at: SimTime, payload: T);

    /// Removes and returns the earliest event, if any.
    fn pop(&mut self) -> Option<Event<T>>;

    /// Returns the firing time of the earliest event without removing it.
    fn peek_time(&self) -> Option<SimTime>;

    /// Returns the number of pending events.
    fn len(&self) -> usize;

    /// Returns `true` if no events are pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of internal restructures (heap reallocations or calendar
    /// rebuilds) since construction; zero means the pre-sizing held.
    fn restructures(&self) -> u64;
}

/// The classic binary-heap min-queue of timestamped events with FIFO
/// tie-breaking — the reference implementation for [`EventQueue`].
///
/// # Examples
///
/// ```
/// use storage_sim::{BinaryHeapEventQueue, SimTime};
///
/// let mut q = BinaryHeapEventQueue::new();
/// q.push(SimTime::from_ms(2.0), "late");
/// q.push(SimTime::from_ms(1.0), "early");
/// assert_eq!(q.pop().unwrap().payload, "early");
/// assert_eq!(q.pop().unwrap().payload, "late");
/// ```
#[derive(Debug)]
pub struct BinaryHeapEventQueue<T> {
    heap: BinaryHeap<HeapEntry<T>>,
    seq: u64,
    reallocs: u64,
}

impl<T> BinaryHeapEventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        BinaryHeapEventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            reallocs: 0,
        }
    }

    /// Creates an empty queue with room for `capacity` events before the
    /// backing heap reallocates.
    pub fn with_capacity(capacity: usize) -> Self {
        BinaryHeapEventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            seq: 0,
            reallocs: 0,
        }
    }

    /// Number of events the queue can hold without reallocating.
    pub fn capacity(&self) -> usize {
        self.heap.capacity()
    }

    /// How many pushes forced the backing heap to reallocate.
    pub fn reallocs(&self) -> u64 {
        self.reallocs
    }

    /// Schedules `payload` to fire at `at`.
    pub fn push(&mut self, at: SimTime, payload: T) {
        if self.heap.len() == self.heap.capacity() {
            self.reallocs += 1;
        }
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(HeapEntry { at, seq, payload });
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<Event<T>> {
        self.heap.pop().map(|e| Event {
            at: e.at,
            payload: e.payload,
        })
    }

    /// Returns the firing time of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Returns the number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<T> Default for BinaryHeapEventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> SimQueue<T> for BinaryHeapEventQueue<T> {
    fn new() -> Self {
        BinaryHeapEventQueue::new()
    }

    fn with_capacity(capacity: usize) -> Self {
        BinaryHeapEventQueue::with_capacity(capacity)
    }

    fn capacity(&self) -> usize {
        BinaryHeapEventQueue::capacity(self)
    }

    fn push(&mut self, at: SimTime, payload: T) {
        BinaryHeapEventQueue::push(self, at, payload);
    }

    fn pop(&mut self) -> Option<Event<T>> {
        BinaryHeapEventQueue::pop(self)
    }

    fn peek_time(&self) -> Option<SimTime> {
        BinaryHeapEventQueue::peek_time(self)
    }

    fn len(&self) -> usize {
        BinaryHeapEventQueue::len(self)
    }

    fn restructures(&self) -> u64 {
        self.reallocs
    }
}

/// Smallest ring the calendar queue ever uses.
const MIN_BUCKETS: usize = 16;
/// Largest ring the calendar queue grows to; beyond this the in-bucket
/// sorted inserts absorb further growth.
const MAX_BUCKETS: usize = 1 << 17;
/// Bucket width before the first density-tuned rebuild, in seconds.
const INITIAL_WIDTH: f64 = 1e-3;

/// One bucket: entries sorted *descending* by `(time, seq)` so the earliest
/// event is the cheap `Vec::pop` at the back.
type Bucket<T> = Vec<(SimTime, u64, T)>;

/// A calendar (bucketed) min-queue of timestamped events with FIFO
/// tie-breaking — the closed loop's event queue.
///
/// Events land in fixed-width time buckets on a power-of-two ring indexed
/// by absolute bucket number; a cursor tracks the earliest live bucket, an
/// occupancy bitmap makes skipping runs of empty buckets cheap, and events
/// beyond the ring's span wait in an overflow min-heap that migrates
/// forward as the cursor advances. When the population outgrows the ring
/// the queue rebuilds with twice the buckets and a width retuned to the
/// observed event density. Pop order is exactly ascending `(time, seq)` —
/// identical to [`BinaryHeapEventQueue`] — for every push/pop interleaving,
/// including duplicate timestamps and pushes into the past (which clamp to
/// the cursor bucket and still pop in time order).
///
/// # Examples
///
/// ```
/// use storage_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_ms(2.0), "late");
/// q.push(SimTime::from_ms(1.0), "early");
/// q.push(SimTime::from_ms(1.0), "early-second");
/// assert_eq!(q.pop().unwrap().payload, "early");
/// assert_eq!(q.pop().unwrap().payload, "early-second");
/// assert_eq!(q.pop().unwrap().payload, "late");
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug)]
pub struct EventQueue<T> {
    /// Ring of buckets; absolute bucket `b` lives at slot `b & mask`.
    ring: Vec<Bucket<T>>,
    /// `ring.len() - 1`; the ring length is always a power of two.
    mask: u64,
    /// Occupancy bitmap: bit `s` of `occupied[s / 64]` ⇔ slot `s` nonempty.
    occupied: Vec<u64>,
    /// Bucket width in seconds.
    width: f64,
    /// `1.0 / width`, cached so `bucket_of` multiplies instead of divides
    /// (a float divide costs several times a multiply on the push path).
    inv_width: f64,
    /// Absolute index of the earliest possibly-nonempty bucket. Every ring
    /// event lies in `[cursor, cursor + ring.len())`; every overflow event
    /// lies at or beyond `cursor + ring.len()`.
    cursor: u64,
    /// Events whose bucket falls beyond the ring's span, migrated into the
    /// ring (in deterministic `(time, seq)` order) as the cursor advances.
    overflow: BinaryHeap<HeapEntry<T>>,
    len: usize,
    seq: u64,
    rebuilds: u64,
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::sized(MIN_BUCKETS)
    }

    /// Creates an empty queue able to hold `capacity` events before the
    /// first automatic rebuild — callers with a known steady-state event
    /// population pre-size once and the ring never restructures mid-run.
    pub fn with_capacity(capacity: usize) -> Self {
        let buckets = capacity
            .div_ceil(2)
            .next_power_of_two()
            .clamp(MIN_BUCKETS, MAX_BUCKETS);
        Self::sized(buckets)
    }

    fn sized(buckets: usize) -> Self {
        EventQueue {
            ring: (0..buckets).map(|_| Vec::new()).collect(),
            mask: buckets as u64 - 1,
            occupied: vec![0; buckets.div_ceil(64)],
            width: INITIAL_WIDTH,
            inv_width: INITIAL_WIDTH.recip(),
            cursor: 0,
            overflow: BinaryHeap::new(),
            len: 0,
            seq: 0,
            rebuilds: 0,
        }
    }

    /// Number of events the queue absorbs before the next automatic
    /// rebuild (the ring restructure that retunes the bucket width).
    pub fn capacity(&self) -> usize {
        self.ring.len() * 2
    }

    /// How many times the ring has been rebuilt (grown and retuned) since
    /// construction. A correctly pre-sized queue reports zero — the
    /// realloc-free property `perf_smoke` tracks.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Absolute bucket index of time `t` under the current width.
    fn bucket_of(&self, t: SimTime) -> u64 {
        // `as` saturates: absurdly large times all land in the last bucket
        // index, which the overflow heap handles like any far-future event.
        // Multiplying by the cached reciprocal instead of dividing changes
        // rounding at bucket edges, but any monotone bucketing is correct:
        // pop order comes from the in-bucket sort plus cursor order.
        (t.as_secs() * self.inv_width) as u64
    }

    fn set_bit(&mut self, slot: usize) {
        self.occupied[slot / 64] |= 1u64 << (slot % 64);
    }

    fn clear_bit(&mut self, slot: usize) {
        self.occupied[slot / 64] &= !(1u64 << (slot % 64));
    }

    /// First occupied slot in circular order starting at `s0`.
    fn next_occupied_slot(&self, s0: usize) -> Option<usize> {
        let words = self.occupied.len();
        let (w0, off) = (s0 / 64, s0 % 64);
        let m = self.occupied[w0] & (!0u64 << off);
        if m != 0 {
            return Some(w0 * 64 + m.trailing_zeros() as usize);
        }
        for k in 1..words {
            let w = (w0 + k) % words;
            if self.occupied[w] != 0 {
                return Some(w * 64 + self.occupied[w].trailing_zeros() as usize);
            }
        }
        let m = self.occupied[w0] & ((1u64 << off) - 1);
        if m != 0 {
            return Some(w0 * 64 + m.trailing_zeros() as usize);
        }
        None
    }

    /// Absolute bucket index of `slot` in the current window.
    fn bucket_at_slot(&self, slot: usize) -> u64 {
        let offset = (slot as u64).wrapping_sub(self.cursor) & self.mask;
        self.cursor + offset
    }

    /// Inserts an already-sequenced entry into its bucket or the overflow
    /// heap. In-bucket order is descending `(time, seq)`; `partition_point`
    /// keeps it exact regardless of insertion order, so migration and
    /// rebuild reproduce the same layout a direct push would have built.
    fn place(&mut self, at: SimTime, seq: u64, payload: T) {
        let bucket = self.bucket_of(at).max(self.cursor);
        let span = self.ring.len() as u64;
        if bucket >= self.cursor.saturating_add(span) {
            self.overflow.push(HeapEntry { at, seq, payload });
            return;
        }
        let slot = (bucket & self.mask) as usize;
        let entries = &mut self.ring[slot];
        let pos = entries.partition_point(|&(t, s, _)| (t, s) > (at, seq));
        entries.insert(pos, (at, seq, payload));
        self.set_bit(slot);
    }

    /// Doubles the ring and retunes the bucket width to the observed event
    /// density, re-placing every pending event.
    fn rebuild(&mut self) {
        let buckets = (self.ring.len() * 2).min(MAX_BUCKETS);
        let mut pending: Vec<(SimTime, u64, T)> = Vec::with_capacity(self.len);
        for bucket in &mut self.ring {
            pending.append(bucket);
        }
        while let Some(e) = self.overflow.pop() {
            pending.push((e.at, e.seq, e.payload));
        }
        let (mut tmin, mut tmax) = (SimTime::from_secs(f64::INFINITY), SimTime::ZERO);
        for &(t, _, _) in &pending {
            tmin = tmin.min(t);
            tmax = tmax.max(t);
        }
        let span = (tmax - tmin).as_secs();
        if span > 0.0 {
            // Aim for a few events per bucket over the live span so pops
            // stay near the cursor and inserts stay short.
            self.width = (span / pending.len() as f64 * 4.0).max(1e-12);
            self.inv_width = self.width.recip();
        }
        self.ring = (0..buckets).map(|_| Vec::new()).collect();
        self.mask = buckets as u64 - 1;
        self.occupied = vec![0; buckets.div_ceil(64)];
        self.cursor = self.bucket_of(tmin);
        self.rebuilds += 1;
        for (at, seq, payload) in pending {
            self.place(at, seq, payload);
        }
    }

    /// Moves overflow events that now fall inside the ring's window into
    /// their buckets. Called whenever the cursor advances, maintaining the
    /// invariant that every overflow event is at least a full span ahead.
    fn migrate_overflow(&mut self) {
        let span = self.ring.len() as u64;
        let end = self.cursor.saturating_add(span);
        while let Some(head) = self.overflow.peek() {
            if self.bucket_of(head.at) >= end {
                break;
            }
            let e = self.overflow.pop().expect("peeked entry exists");
            self.place(e.at, e.seq, e.payload);
        }
    }

    /// Schedules `payload` to fire at `at`.
    pub fn push(&mut self, at: SimTime, payload: T) {
        let seq = self.seq;
        self.seq += 1;
        self.place(at, seq, payload);
        self.len += 1;
        if self.len > self.capacity() && self.ring.len() < MAX_BUCKETS {
            self.rebuild();
        }
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<Event<T>> {
        if self.len == 0 {
            return None;
        }
        loop {
            if let Some(slot) = self.next_occupied_slot((self.cursor & self.mask) as usize) {
                let bucket = self.bucket_at_slot(slot);
                if bucket != self.cursor {
                    self.cursor = bucket;
                    self.migrate_overflow();
                    // Migration may have filled a bucket between the old
                    // cursor and `bucket` — it cannot: overflow events were
                    // at least a span ahead of the *old* cursor, hence at or
                    // beyond `bucket`. Popping from `bucket` stays correct.
                }
                let entries = &mut self.ring[slot];
                let (at, _, payload) = entries.pop().expect("occupied bucket is nonempty");
                if entries.is_empty() {
                    self.clear_bit(slot);
                }
                self.len -= 1;
                return Some(Event { at, payload });
            }
            // Ring drained: jump the window to the overflow head and pull
            // everything now in span back into the ring.
            let head = self.overflow.peek().expect("len > 0 with empty ring");
            self.cursor = self.bucket_of(head.at);
            self.migrate_overflow();
        }
    }

    /// Returns the firing time of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.len == 0 {
            return None;
        }
        // Every ring event precedes every overflow event (the overflow is
        // at least a full span past the cursor), so scan the ring first.
        if let Some(slot) = self.next_occupied_slot((self.cursor & self.mask) as usize) {
            let (at, _, _) = *self.ring[slot].last().expect("occupied bucket");
            return Some(at);
        }
        self.overflow.peek().map(|e| e.at)
    }

    /// Returns the number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> SimQueue<T> for EventQueue<T> {
    fn new() -> Self {
        EventQueue::new()
    }

    fn with_capacity(capacity: usize) -> Self {
        EventQueue::with_capacity(capacity)
    }

    fn capacity(&self) -> usize {
        EventQueue::capacity(self)
    }

    fn push(&mut self, at: SimTime, payload: T) {
        EventQueue::push(self, at, payload);
    }

    fn pop(&mut self) -> Option<Event<T>> {
        EventQueue::pop(self)
    }

    fn peek_time(&self) -> Option<SimTime> {
        EventQueue::peek_time(self)
    }

    fn len(&self) -> usize {
        EventQueue::len(self)
    }

    fn restructures(&self) -> u64 {
        self.rebuilds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs the same scripted operations against both queue types,
    /// asserting identical pop sequences.
    fn assert_queues_agree(script: &[(f64, bool)]) {
        let mut cal: EventQueue<usize> = EventQueue::new();
        let mut heap: BinaryHeapEventQueue<usize> = BinaryHeapEventQueue::new();
        for (i, &(t_us, is_pop)) in script.iter().enumerate() {
            if is_pop {
                let (a, b) = (cal.pop(), heap.pop());
                assert_eq!(
                    a.as_ref().map(|e| (e.at, e.payload)),
                    b.as_ref().map(|e| (e.at, e.payload)),
                    "pop diverged at step {i}"
                );
            } else {
                cal.push(SimTime::from_us(t_us), i);
                heap.push(SimTime::from_us(t_us), i);
            }
            assert_eq!(cal.len(), heap.len());
        }
        loop {
            let (a, b) = (cal.pop(), heap.pop());
            assert_eq!(
                a.as_ref().map(|e| (e.at, e.payload)),
                b.as_ref().map(|e| (e.at, e.payload)),
                "drain diverged"
            );
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ms(3.0), 3);
        q.push(SimTime::from_ms(1.0), 1);
        q.push(SimTime::from_ms(2.0), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(SimTime::from_ms(1.0), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ms(1.0), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_ms(1.0)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn with_capacity_pre_sizes_and_preserves_ordering() {
        let mut q = EventQueue::with_capacity(64);
        assert!(q.capacity() >= 64);
        let cap = q.capacity();
        for i in 0..64 {
            q.push(SimTime::from_ms(f64::from(64 - i)), i);
        }
        assert_eq!(q.capacity(), cap, "pre-sized queue must not rebuild");
        assert_eq!(q.rebuilds(), 0);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        let expected: Vec<i32> = (0..64).rev().collect();
        assert_eq!(order, expected);
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ms(5.0), 5);
        q.push(SimTime::from_ms(1.0), 1);
        assert_eq!(q.pop().unwrap().payload, 1);
        q.push(SimTime::from_ms(2.0), 2);
        q.push(SimTime::from_ms(7.0), 7);
        assert_eq!(q.pop().unwrap().payload, 2);
        assert_eq!(q.pop().unwrap().payload, 5);
        assert_eq!(q.pop().unwrap().payload, 7);
    }

    #[test]
    fn growth_rebuild_preserves_order_and_counts() {
        let mut q = EventQueue::new();
        let n = 10_000u64;
        let mut x = 1u64;
        for i in 0..n {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            q.push(SimTime::from_us((x >> 40) as f64), i);
        }
        assert!(q.rebuilds() > 0, "10k events must outgrow the initial ring");
        assert!(q.capacity() >= q.len());
        let mut last = (SimTime::ZERO, 0u64);
        let mut popped = 0u64;
        while let Some(e) = q.pop() {
            assert!(
                e.at > last.0 || (e.at == last.0 && e.payload > last.1) || popped == 0,
                "pop order violated"
            );
            last = (e.at, e.payload);
            popped += 1;
        }
        assert_eq!(popped, n);
    }

    #[test]
    fn far_future_events_take_the_overflow_path() {
        let mut q = EventQueue::new();
        // The initial span is 16 buckets x 1 ms; hours-away events overflow.
        q.push(SimTime::from_secs(3600.0), 1);
        q.push(SimTime::from_ms(1.0), 0);
        q.push(SimTime::from_secs(7200.0), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_ms(1.0)));
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn push_into_the_past_clamps_but_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ms(50.0), 50);
        assert_eq!(q.pop().unwrap().payload, 50);
        // The cursor now sits at 50 ms; earlier pushes clamp to it but must
        // still pop in time order amongst themselves.
        q.push(SimTime::from_ms(10.0), 10);
        q.push(SimTime::from_ms(5.0), 5);
        q.push(SimTime::from_ms(60.0), 60);
        assert_eq!(q.pop().unwrap().payload, 5);
        assert_eq!(q.pop().unwrap().payload, 10);
        assert_eq!(q.pop().unwrap().payload, 60);
    }

    #[test]
    fn calendar_matches_heap_on_adversarial_scripts() {
        // Duplicate timestamps, bursts, long gaps, interleaved pops, and a
        // deterministic pseudo-random mix.
        let mut script: Vec<(f64, bool)> = Vec::new();
        for i in 0..64 {
            script.push((f64::from(i % 4), false));
        }
        for _ in 0..32 {
            script.push((0.0, true));
        }
        for i in 0..64 {
            script.push((f64::from(i) * 1e4, false)); // long gaps -> overflow
        }
        let mut x = 9u64;
        for _ in 0..2000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let t = (x >> 45) as f64; // heavy duplicates
            script.push((t, x & 0b11 == 0));
        }
        assert_queues_agree(&script);
    }

    #[test]
    fn heap_queue_keeps_fifo_ties() {
        let mut q = BinaryHeapEventQueue::new();
        for i in 0..100 {
            q.push(SimTime::from_ms(1.0), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }
}
