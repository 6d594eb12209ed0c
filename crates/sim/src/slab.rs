//! Slab allocation for in-flight request state.
//!
//! Rather than moving whole request and completion values through
//! event-queue entries, the driver parks each value once in a [`Slab`] and
//! threads a `u32` slot handle through the queue, shrinking event payloads
//! to a word.

/// A slot handle into a [`Slab`].
pub type SlotHandle = u32;

/// A `Vec`-backed free-list arena handing out dense `u32` slot handles.
///
/// Freed slots are recycled LIFO, so a workload with bounded concurrency
/// reuses the same few slots for its whole run and the backing `Vec` never
/// grows past the concurrency high-water mark.
///
/// # Examples
///
/// ```
/// use storage_sim::Slab;
///
/// let mut slab = Slab::new();
/// let a = slab.insert("alpha");
/// let b = slab.insert("beta");
/// assert_eq!(slab.take(a), "alpha");
/// // Slot `a` is recycled by the next insert.
/// let c = slab.insert("gamma");
/// assert_eq!(c, a);
/// assert_eq!(slab.take(b), "beta");
/// assert_eq!(slab.take(c), "gamma");
/// assert!(slab.is_empty());
/// ```
#[derive(Debug)]
pub struct Slab<T> {
    entries: Vec<Option<T>>,
    free: Vec<SlotHandle>,
    len: usize,
}

impl<T> Slab<T> {
    /// Creates an empty slab.
    pub fn new() -> Self {
        Slab {
            entries: Vec::new(),
            free: Vec::new(),
            len: 0,
        }
    }

    /// Creates an empty slab with room for `capacity` live values before
    /// the backing storage reallocates.
    pub fn with_capacity(capacity: usize) -> Self {
        Slab {
            entries: Vec::with_capacity(capacity),
            free: Vec::with_capacity(capacity),
            len: 0,
        }
    }

    /// Stores `value` and returns its slot handle.
    ///
    /// # Panics
    ///
    /// Panics if the slab would exceed `u32::MAX` slots.
    pub fn insert(&mut self, value: T) -> SlotHandle {
        self.len += 1;
        if let Some(slot) = self.free.pop() {
            self.entries[slot as usize] = Some(value);
            return slot;
        }
        let slot = SlotHandle::try_from(self.entries.len()).expect("slab exceeds u32 slots");
        self.entries.push(Some(value));
        slot
    }

    /// Removes and returns the value at `slot`, recycling the slot.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is vacant or out of bounds — handles are single-use.
    pub fn take(&mut self, slot: SlotHandle) -> T {
        let value = self.entries[slot as usize]
            .take()
            .expect("slot is occupied");
        self.free.push(slot);
        self.len -= 1;
        value
    }

    /// Number of live values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no values are live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of slots (live + recyclable) the slab has materialized — the
    /// concurrency high-water mark of the run.
    pub fn high_water(&self) -> usize {
        self.entries.len()
    }
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_recycled_lifo() {
        let mut slab = Slab::new();
        let a = slab.insert(1);
        let b = slab.insert(2);
        let c = slab.insert(3);
        assert_eq!((a, b, c), (0, 1, 2));
        assert_eq!(slab.take(b), 2);
        assert_eq!(slab.take(a), 1);
        // LIFO recycling: `a` was freed last, so it is reused first.
        assert_eq!(slab.insert(4), a);
        assert_eq!(slab.insert(5), b);
        assert_eq!(slab.insert(6), 3);
        assert_eq!(slab.len(), 4);
        assert_eq!(slab.high_water(), 4);
    }

    #[test]
    #[should_panic(expected = "slot is occupied")]
    fn double_take_panics() {
        let mut slab = Slab::new();
        let a = slab.insert(7);
        assert_eq!(slab.take(a), 7);
        let _ = slab.take(a);
    }

    #[test]
    fn bounded_concurrency_bounds_high_water() {
        let mut slab = Slab::with_capacity(2);
        for i in 0..1000 {
            let a = slab.insert(i);
            let b = slab.insert(i + 1);
            slab.take(a);
            slab.take(b);
        }
        assert_eq!(slab.high_water(), 2);
        assert!(slab.is_empty());
    }
}
