//! A bucketed calendar queue for the event loop.
//!
//! The classic DES optimisation (Brown, CACM 1988): instead of one global
//! ordered structure over every pending event, events are binned by their
//! timestamp into fixed-width *buckets*. Only the bucket currently being
//! drained (the *near* bucket) is kept heap-ordered; future buckets are
//! plain unordered `Vec`s, so the common far-future insert is an O(1)
//! push. When the near bucket drains, the next non-empty bucket is
//! heapified wholesale (O(k)) and draining continues.
//!
//! Pop order is **exactly** `(at, seq)` ascending — identical to the
//! `BinaryHeap<Scheduled>` it replaces, including same-instant FIFO
//! tie-break by insertion sequence. The property tests in
//! `tests/calendar_queue.rs` pin this against a `BTreeSet` oracle.

use crate::SimTime;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};

/// Width of a bucket, as a shift of the nanosecond timestamp: 2^20 ns
/// ≈ 1.05 ms. Simulated service times in this workspace are µs–ms scale,
/// so a bucket holds a batch worth heapifying without the heap ever
/// growing to the whole pending set. A shift keeps binning branch-free.
const BUCKET_SHIFT: u32 = 20;

struct Entry<T> {
    at: SimTime,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed so the max-heap near bucket pops the earliest (at, seq).
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A two-level calendar queue keyed by `(SimTime, seq)`.
///
/// `seq` values must be unique across the queue's lifetime (the simulator
/// hands out a monotonically increasing counter); same-timestamp entries
/// pop in `seq` order, which is insertion order.
pub struct CalendarQueue<T> {
    /// Bucket index currently being drained; all near-bucket entries bin
    /// to `<= cur`, all far entries to `> cur` at transition time.
    cur: u64,
    near: BinaryHeap<Entry<T>>,
    far: BTreeMap<u64, Vec<Entry<T>>>,
    len: usize,
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        CalendarQueue::new()
    }
}

impl<T> CalendarQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        CalendarQueue {
            cur: 0,
            near: BinaryHeap::new(),
            far: BTreeMap::new(),
            len: 0,
        }
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no entries remain.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn bucket_of(at: SimTime) -> u64 {
        at.as_nanos() >> BUCKET_SHIFT
    }

    /// Inserts an entry. `seq` must be unique for the queue's lifetime and
    /// `at` must not precede an already-popped entry's timestamp bucket
    /// (the simulator clamps scheduling to `now`, which guarantees this).
    pub fn push(&mut self, at: SimTime, seq: u64, item: T) {
        let idx = Self::bucket_of(at);
        self.len += 1;
        if idx <= self.cur || (self.near.is_empty() && self.far.is_empty()) {
            if self.near.is_empty() && self.far.is_empty() {
                self.cur = idx;
            }
            self.near.push(Entry { at, seq, item });
        } else {
            self.far
                .entry(idx)
                .or_default()
                .push(Entry { at, seq, item });
        }
    }

    /// Timestamp and seq of the earliest entry, without removing it.
    ///
    /// Takes `&mut self`: peeking may heapify the next bucket.
    pub fn peek_key(&mut self) -> Option<(SimTime, u64)> {
        self.settle();
        self.near.peek().map(|e| (e.at, e.seq))
    }

    /// Removes and returns the earliest entry as `(at, seq, item)`.
    pub fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        self.settle();
        let e = self.near.pop()?;
        self.len -= 1;
        Some((e.at, e.seq, e.item))
    }

    /// Ensures the head of `near` is the globally earliest entry: when the
    /// near bucket has drained, heapifies the next far bucket (never empty:
    /// `push` only creates a far bucket to put an entry in it).
    fn settle(&mut self) {
        if self.near.is_empty() {
            if let Some((idx, batch)) = self.far.pop_first() {
                self.cur = idx;
                self.near = BinaryHeap::from(batch);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = CalendarQueue::new();
        q.push(SimTime::from_millis(30), 0, 'c');
        q.push(SimTime::from_millis(10), 1, 'a');
        q.push(SimTime::from_millis(10), 2, 'b');
        q.push(SimTime::from_secs(500), 3, 'd');
        let mut out = Vec::new();
        while let Some((_, _, x)) = q.pop() {
            out.push(x);
        }
        assert_eq!(out, vec!['a', 'b', 'c', 'd']);
    }

    #[test]
    fn same_bucket_and_cross_bucket_interleave() {
        // Entries landing in the same 2^20 ns bucket must still order by
        // (at, seq) exactly.
        let mut q = CalendarQueue::new();
        for seq in 0..100u64 {
            q.push(SimTime::from_nanos((100 - seq) * 1000), seq, seq);
        }
        let mut prev = None;
        while let Some((at, seq, _)) = q.pop() {
            if let Some((pat, pseq)) = prev {
                assert!((at, seq) > (pat, pseq));
            }
            prev = Some((at, seq));
        }
    }

    #[test]
    fn push_after_drain_resets_current_bucket() {
        let mut q = CalendarQueue::new();
        q.push(SimTime::from_secs(100), 0, 0);
        assert!(q.pop().is_some());
        // Queue empty: a much later entry must re-anchor the calendar.
        q.push(SimTime::from_secs(5000), 1, 1);
        assert_eq!(q.peek_key(), Some((SimTime::from_secs(5000), 1)));
        assert!(q.pop().is_some());
        assert!(q.pop().is_none());
    }
}
