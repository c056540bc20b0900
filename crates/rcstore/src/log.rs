//! Log-structured memory for master copies — RAMCloud's signature storage
//! layout.
//!
//! Objects are appended to fixed-size segments; deletions only mark bytes
//! dead. A greedy cleaner compacts the lowest-utilization segments by
//! re-appending their live entries, reclaiming whole segments. The node's
//! memory pool is expressed as a *segment budget*: vertical scaling (§6.4)
//! simply raises or lowers the budget and the cleaner/evictor make the
//! physical layout follow.

use crate::{Key, RcError};
use ofc_intern::IdHashMap;

/// One log segment.
#[derive(Debug, Clone, Default)]
struct Segment {
    /// Bytes appended since the segment was opened (live + dead).
    used: u64,
    /// Live entries: key → size.
    live: IdHashMap<Key, u64>,
    /// Cached sum of `live` values, maintained on insert/remove so the
    /// per-append budget checks stay O(1) instead of O(entries).
    live_bytes: u64,
}

impl Segment {
    fn live_bytes(&self) -> u64 {
        debug_assert_eq!(self.live_bytes, self.live.values().sum::<u64>());
        self.live_bytes
    }

    /// Appends a live entry, maintaining `used` and the live-byte counter.
    fn insert(&mut self, key: Key, size: u64) {
        self.used += size;
        self.live_bytes += size;
        if let Some(old) = self.live.insert(key, size) {
            self.live_bytes -= old;
        }
    }

    /// Retires a live entry, maintaining the live-byte counter.
    fn remove(&mut self, key: &Key) -> Option<u64> {
        let size = self.live.remove(key)?;
        self.live_bytes -= size;
        Some(size)
    }
}

/// Statistics of one cleaner pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CleanStats {
    /// Segments freed.
    pub segments_freed: usize,
    /// Live bytes relocated.
    pub bytes_relocated: u64,
}

/// The log-structured store: an append-only heap of segments plus a cleaner.
#[derive(Debug)]
pub struct Log {
    segment_bytes: u64,
    /// Open segments; `None` slots are free to reuse.
    segments: Vec<Option<Segment>>,
    /// Index of the head (append) segment in `segments`.
    head: Option<usize>,
    /// Key → segment index.
    locations: IdHashMap<Key, usize>,
    /// Cached sum of live bytes across all segments (see
    /// [`Segment::live_bytes`]); keeps admission checks O(1).
    live_total: u64,
    /// Byte budget for live data (the node's cache pool size).
    budget: u64,
    cleaner_passes: u64,
}

impl Log {
    /// Creates a log with the given segment size and initial byte budget.
    ///
    /// # Panics
    ///
    /// Panics if `segment_bytes` is zero.
    pub fn new(segment_bytes: u64, budget_bytes: u64) -> Self {
        assert!(segment_bytes > 0, "segment size must be positive");
        Log {
            segment_bytes,
            segments: Vec::new(),
            head: None,
            locations: IdHashMap::default(),
            live_total: 0,
            budget: budget_bytes,
            cleaner_passes: 0,
        }
    }

    /// Segment size in bytes.
    pub fn segment_bytes(&self) -> u64 {
        self.segment_bytes
    }

    /// Budget expressed in bytes.
    pub fn budget_bytes(&self) -> u64 {
        self.budget
    }

    /// Number of currently allocated segments.
    pub fn allocated_segments(&self) -> usize {
        self.segments.iter().flatten().count()
    }

    /// Bytes physically allocated (whole segments).
    pub fn allocated_bytes(&self) -> u64 {
        self.allocated_segments() as u64 * self.segment_bytes
    }

    /// Bytes occupied by live entries (cached; O(1)).
    pub fn live_bytes(&self) -> u64 {
        debug_assert_eq!(
            self.live_total,
            self.segments
                .iter()
                .flatten()
                .map(Segment::live_bytes)
                .sum::<u64>()
        );
        self.live_total
    }

    /// Number of live entries.
    pub fn live_entries(&self) -> usize {
        self.locations.len()
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: &Key) -> bool {
        self.locations.contains_key(key)
    }

    /// Cleaner invocations so far.
    pub fn cleaner_passes(&self) -> u64 {
        self.cleaner_passes
    }

    /// Live-byte utilization of allocated space (1.0 when empty).
    pub fn utilization(&self) -> f64 {
        let alloc = self.allocated_bytes();
        if alloc == 0 {
            1.0
        } else {
            self.live_bytes() as f64 / alloc as f64
        }
    }

    /// Changes the byte budget. Shrinking below current allocation runs the
    /// cleaner; if live data still does not fit, the caller must evict
    /// before the shrink can take effect (the budget is lowered regardless —
    /// `over_budget` reports the condition).
    pub fn set_budget_bytes(&mut self, budget_bytes: u64) {
        self.budget = budget_bytes;
        if self.allocated_bytes() > self.budget {
            self.clean();
        }
    }

    /// Whether live data exceeds the byte budget.
    ///
    /// Admission is accounted in live bytes; physical segments may
    /// transiently exceed the budget between cleaner passes.
    pub fn over_budget(&self) -> bool {
        self.live_bytes() > self.budget
    }

    /// Appends an entry, running the cleaner when the budget is tight.
    ///
    /// Fails with [`RcError::OutOfMemory`] if even after cleaning no segment
    /// can hold the entry, and with [`RcError::ObjectTooLarge`] if the entry
    /// exceeds the segment size.
    pub fn append(&mut self, key: Key, size: u64) -> Result<(), RcError> {
        if size > self.segment_bytes {
            return Err(RcError::ObjectTooLarge {
                size,
                max: self.segment_bytes,
            });
        }
        // Re-appending an existing key first retires the old entry.
        self.remove(&key);

        // Admission is byte-accounted against live data; segments are a
        // physical detail the cleaner keeps close to the live volume.
        if self.live_bytes() + size > self.budget {
            return Err(RcError::OutOfMemory {
                requested: size,
                available: self.budget.saturating_sub(self.live_bytes()),
            });
        }
        // Prefer compaction over growing the physical footprint when
        // fragmentation has accumulated.
        if self.fitting_head(size).is_none()
            && self.allocated_bytes() > self.live_bytes() + self.segment_bytes
        {
            self.clean();
        }
        let head = match self.fitting_head(size) {
            Some(h) => h,
            None => self.open_head_unchecked(),
        };
        // ofc-lint: allow(panic) reason=fitting_head/open_head_unchecked only return allocated slots
        let seg = self.segments[head].as_mut().expect("head is allocated");
        seg.insert(key, size);
        self.live_total += size;
        self.locations.insert(key, head);
        Ok(())
    }

    /// Removes an entry; returns its size if it was present.
    pub fn remove(&mut self, key: &Key) -> Option<u64> {
        let seg_idx = self.locations.remove(key)?;
        let seg = self.segments[seg_idx]
            .as_mut()
            // ofc-lint: allow(panic) reason=locations only ever points at allocated segments
            .expect("location points at an allocated segment");
        // ofc-lint: allow(panic) reason=segment live maps mirror locations; a miss is heap corruption
        let size = seg.remove(key).expect("location is consistent");
        self.live_total -= size;
        // A fully dead, non-head segment is freed immediately.
        if seg.live.is_empty() && self.head != Some(seg_idx) {
            self.segments[seg_idx] = None;
        }
        Some(size)
    }

    /// Size of a live entry.
    pub fn size_of(&self, key: &Key) -> Option<u64> {
        let seg = self.locations.get(key)?;
        self.segments[*seg].as_ref()?.live.get(key).copied()
    }

    /// Iterates over live keys (unspecified order).
    pub fn keys(&self) -> impl Iterator<Item = &Key> {
        self.locations.keys()
    }

    /// Greedy cleaner: compacts segments in ascending utilization order by
    /// re-appending their live entries, freeing whole segments.
    pub fn clean(&mut self) -> CleanStats {
        self.cleaner_passes += 1;
        let mut stats = CleanStats::default();

        // An empty head segment is pure overhead: free it so a full shrink
        // can reach zero allocated segments.
        if let Some(h) = self.head {
            if self.segments[h].as_ref().is_some_and(|s| s.live.is_empty()) {
                self.segments[h] = None;
                self.head = None;
                stats.segments_freed += 1;
            }
        }

        // Candidates: allocated, not head, utilization < 1.
        let mut candidates: Vec<(usize, u64)> = self
            .segments
            .iter()
            .enumerate()
            .filter_map(|(i, s)| {
                let s = s.as_ref()?;
                if self.head == Some(i) || s.live_bytes() == s.used && s.used >= self.segment_bytes
                {
                    None
                } else {
                    Some((i, s.live_bytes()))
                }
            })
            .collect();
        candidates.sort_by_key(|&(_, live)| live);

        for (idx, _) in candidates {
            let Some(seg) = self.segments[idx].take() else {
                continue;
            };
            stats.segments_freed += 1;
            // Relocate live entries into the head (opening new heads as
            // needed within budget; the freed slot itself becomes available).
            for (key, size) in seg.live {
                self.locations.remove(&key);
                stats.bytes_relocated += size;
                let head = match self.fitting_head(size) {
                    Some(h) => h,
                    // Relocation may transiently exceed the budget (the
                    // cleaner's reserved segment); net allocation still
                    // shrinks because only fragmented segments are cleaned.
                    None => self.open_head_unchecked(),
                };
                // ofc-lint: allow(panic) reason=fitting_head/open_head_unchecked only return allocated slots
                let h = self.segments[head].as_mut().expect("head allocated");
                // Keys are Copy interned handles: relocation moves ids, no
                // allocation. Log-level live_total is unchanged (the bytes
                // stay live, only their segment changes).
                h.insert(key, size);
                self.locations.insert(key, head);
            }
        }
        stats
    }

    /// The head segment's index, if it is allocated and `size` fits.
    fn fitting_head(&self, size: u64) -> Option<usize> {
        let h = self.head?;
        let seg = self.segments[h].as_ref()?;
        (seg.used + size <= self.segment_bytes).then_some(h)
    }

    /// Opens a head segment without consulting the budget (cleaner use);
    /// returns the freshly allocated slot.
    fn open_head_unchecked(&mut self) -> usize {
        let slot = self
            .segments
            .iter()
            .position(Option::is_none)
            .unwrap_or_else(|| {
                self.segments.push(None);
                self.segments.len() - 1
            });
        self.segments[slot] = Some(Segment::default());
        self.head = Some(slot);
        slot
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(s: &str) -> Key {
        Key::from(s)
    }

    #[test]
    fn append_and_lookup() {
        let mut log = Log::new(100, 1000);
        log.append(key("a"), 30).unwrap();
        log.append(key("b"), 40).unwrap();
        assert_eq!(log.size_of(&key("a")), Some(30));
        assert_eq!(log.live_bytes(), 70);
        assert_eq!(log.live_entries(), 2);
        assert!(log.contains(&key("a")));
    }

    #[test]
    fn oversized_entry_rejected() {
        let mut log = Log::new(100, 1000);
        assert!(matches!(
            log.append(key("big"), 101),
            Err(RcError::ObjectTooLarge { .. })
        ));
    }

    #[test]
    fn remove_marks_dead_and_frees_empty_segments() {
        let mut log = Log::new(100, 1000);
        log.append(key("a"), 100).unwrap(); // fills segment 0
        log.append(key("b"), 100).unwrap(); // fills segment 1 (new head)
        assert_eq!(log.allocated_segments(), 2);
        assert_eq!(log.remove(&key("a")), Some(100));
        // Segment 0 is fully dead and not the head: freed eagerly.
        assert_eq!(log.allocated_segments(), 1);
        assert_eq!(log.remove(&key("a")), None);
    }

    #[test]
    fn budget_exhaustion_reports_oom() {
        let mut log = Log::new(100, 200); // 2 segments
        log.append(key("a"), 90).unwrap();
        log.append(key("b"), 90).unwrap();
        let err = log.append(key("c"), 50).unwrap_err();
        assert!(matches!(err, RcError::OutOfMemory { .. }));
    }

    #[test]
    fn cleaner_compacts_fragmentation() {
        let mut log = Log::new(100, 400);
        // Fill segments with pairs, then delete one of each pair: 50% dead.
        for i in 0..6 {
            log.append(key(&format!("k{i}")), 50).unwrap();
        }
        for i in [0, 2, 4] {
            log.remove(&key(&format!("k{i}")));
        }
        assert_eq!(log.live_bytes(), 150);
        assert_eq!(log.allocated_segments(), 3);
        // Appending past the fragmented head triggers compaction.
        log.append(key("new"), 60).unwrap();
        assert!(log.contains(&key("new")));
        assert!(log.cleaner_passes() >= 1);
        for i in [1, 3, 5] {
            assert!(log.contains(&key(&format!("k{i}"))), "k{i} lost by cleaner");
        }
        assert_eq!(log.live_bytes(), 210);
        // Physical footprint stays near the live volume.
        assert!(log.allocated_segments() <= 3);
    }

    #[test]
    fn reappend_replaces_old_entry() {
        let mut log = Log::new(100, 1000);
        log.append(key("a"), 30).unwrap();
        log.append(key("a"), 60).unwrap();
        assert_eq!(log.size_of(&key("a")), Some(60));
        assert_eq!(log.live_entries(), 1);
        assert_eq!(log.live_bytes(), 60);
    }

    #[test]
    fn shrink_budget_triggers_clean_and_flags_over_budget() {
        let mut log = Log::new(100, 400);
        for i in 0..4 {
            log.append(key(&format!("k{i}")), 100).unwrap();
        }
        assert_eq!(log.allocated_segments(), 4);
        // Kill half the data, then shrink to 200 bytes: fits.
        log.remove(&key("k0"));
        log.remove(&key("k1"));
        log.set_budget_bytes(200);
        assert!(!log.over_budget());
        assert!(log.allocated_segments() <= 2);
        // Shrink to 100 bytes while 200 live bytes remain: over budget until
        // the caller evicts.
        log.set_budget_bytes(100);
        assert!(log.over_budget());
    }

    #[test]
    fn utilization_tracks_liveness() {
        let mut log = Log::new(100, 1000);
        assert_eq!(log.utilization(), 1.0);
        log.append(key("a"), 50).unwrap();
        assert!((log.utilization() - 0.5).abs() < 1e-12);
        log.remove(&key("a"));
        // Head segment remains allocated but empty.
        assert_eq!(log.utilization(), 0.0);
    }

    #[test]
    fn keys_iterates_live_set() {
        let mut log = Log::new(100, 1000);
        log.append(key("a"), 10).unwrap();
        log.append(key("b"), 10).unwrap();
        log.remove(&key("a"));
        let keys: Vec<String> = log.keys().map(|k| k.to_string()).collect();
        assert_eq!(keys, vec!["b".to_string()]);
    }

    #[test]
    fn cleaner_preserves_all_live_data_under_churn() {
        let mut log = Log::new(64, 64 * 8);
        let mut expect = std::collections::HashMap::new();
        for round in 0..50u64 {
            let k = key(&format!("k{}", round % 12));
            let size = 8 + (round * 7) % 40;
            if round % 3 == 0 {
                log.remove(&k);
                expect.remove(&k);
            } else if log.append(k, size).is_ok() {
                expect.insert(k, size);
            }
        }
        for (k, &size) in &expect {
            assert_eq!(log.size_of(k), Some(size), "lost {k}");
        }
        assert_eq!(log.live_entries(), expect.len());
    }
}
