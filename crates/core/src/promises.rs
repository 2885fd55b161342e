//! Promise tracking and timestamp-stability detection (Algorithm 2 and Theorem 1).
//!
//! A process tracks, for every process `j` of its shard, which timestamps `j` has promised
//! never to use again. A timestamp `s` is *stable* once the promise sets of a majority of
//! processes contain every timestamp up to `s`: new commands are timestamped as the
//! maximum over a majority of proposals, and any two majorities intersect, so every new
//! command must get a timestamp above `s` (Theorem 1).
//!
//! Promises arrive mostly as contiguous ranges, so per process we keep the highest
//! contiguous prefix plus coalesced out-of-order ranges, giving O(1) amortized insertion
//! and O(1) `highest_contiguous_promise` queries. Stability detection is *incremental*:
//! the sorted array of per-process watermarks is maintained in place as promises arrive
//! (a watermark only ever moves up, so re-positioning it is O(1) typical, O(r) worst
//! case) and [`PromiseTracker::stable_timestamp`] returns a cached value — the paper's
//! "cheap background activity" (§3.2) instead of an allocate-and-sort per query.

use std::collections::BTreeMap;
use tempo_kernel::id::ProcessId;

/// An inclusive range of promised timestamps `[start, end]` from a single process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PromiseRange {
    /// First promised timestamp.
    pub start: u64,
    /// Last promised timestamp (inclusive).
    pub end: u64,
}

impl PromiseRange {
    /// Creates an inclusive promise range.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `start == 0` (timestamps start at 1).
    #[inline]
    pub fn new(start: u64, end: u64) -> Self {
        assert!(start >= 1, "timestamps start at 1");
        assert!(start <= end, "invalid promise range [{start}, {end}]");
        Self { start, end }
    }

    /// A range holding a single timestamp.
    #[inline]
    pub fn single(ts: u64) -> Self {
        Self::new(ts, ts)
    }

    /// Number of timestamps in the range.
    pub fn len(&self) -> u64 {
        self.end - self.start + 1
    }

    /// Whether the range is empty (never true for a constructed range).
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// A set of `u64` sequence values stored as a contiguous prefix `[1, contiguous]` plus
/// coalesced out-of-order ranges above it (`start -> end`, inclusive, non-overlapping,
/// non-adjacent).
///
/// This is the shape of both promise sets (this module) and executed-dot sets
/// ([`crate::gc`]): values arrive mostly in order, with occasional detached ranges that
/// are later absorbed into the prefix. Inserting a range is O(log k) in the number of
/// detached ranges — independent of the range's width, so one large detached range (e.g.
/// a lagging replica catching up past a recovery) costs a single map entry rather than
/// millions of point insertions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct SeqSet {
    contiguous: u64,
    sparse: BTreeMap<u64, u64>,
}

impl SeqSet {
    /// The highest `c` such that every value in `[1, c]` is present.
    #[inline]
    pub(crate) fn contiguous(&self) -> u64 {
        self.contiguous
    }

    /// Whether `value` is present.
    #[inline]
    pub(crate) fn contains(&self, value: u64) -> bool {
        value <= self.contiguous
            || self
                .sparse
                .range(..=value)
                .next_back()
                .is_some_and(|(_, end)| value <= *end)
    }

    /// Inserts a single value.
    #[inline]
    pub(crate) fn insert(&mut self, value: u64) {
        self.insert_range(value, value);
    }

    /// The values missing from the set in `(after, upto]`, lowest first, at most
    /// `limit`. Walks the coalesced ranges, so the cost is O(ranges + result), not
    /// O(width of the window).
    pub(crate) fn missing_in(&self, after: u64, upto: u64, limit: usize) -> Vec<u64> {
        let mut out = Vec::new();
        let mut next = after.max(self.contiguous) + 1;
        for (&start, &end) in &self.sparse {
            if end < next {
                continue;
            }
            if start > upto {
                break;
            }
            while next < start && next <= upto && out.len() < limit {
                out.push(next);
                next += 1;
            }
            next = next.max(end + 1);
            if next > upto || out.len() >= limit {
                break;
            }
        }
        while next <= upto && out.len() < limit {
            out.push(next);
            next += 1;
        }
        out
    }

    /// The highest value present (0 when empty), including detached ranges.
    #[inline]
    pub(crate) fn max_value(&self) -> u64 {
        self.sparse
            .last_key_value()
            .map(|(_, end)| *end)
            .unwrap_or(0)
            .max(self.contiguous)
    }

    /// Inserts the inclusive range `[start, end]`, coalescing with the prefix and any
    /// overlapping or adjacent detached ranges.
    #[inline]
    pub(crate) fn insert_range(&mut self, start: u64, end: u64) {
        debug_assert!(start >= 1 && start <= end);
        if end <= self.contiguous {
            return;
        }
        // Hot path: in-order arrival with no detached ranges to absorb.
        if self.sparse.is_empty() && start <= self.contiguous + 1 {
            self.contiguous = end;
            return;
        }
        if start <= self.contiguous + 1 {
            // Extends the prefix directly; absorb detached ranges that now continue it.
            self.contiguous = end;
            while let Some((&s, &e)) = self.sparse.first_key_value() {
                if s > self.contiguous + 1 {
                    break;
                }
                self.sparse.pop_first();
                self.contiguous = self.contiguous.max(e);
            }
            return;
        }
        let mut start = start;
        let mut end = end;
        // Fold an overlapping or adjacent predecessor range into the window.
        if let Some((&s, &e)) = self.sparse.range(..=start).next_back() {
            if e + 1 >= start {
                if e >= end {
                    return; // Fully covered already.
                }
                start = s;
            }
        }
        // Absorb every range the (possibly widened) window overlaps or abuts.
        while let Some((&s, &e)) = self.sparse.range(start..).next() {
            if s > end + 1 {
                break;
            }
            self.sparse.remove(&s);
            end = end.max(e);
        }
        self.sparse.insert(start, end);
    }
}

/// The promises received from a single process: a contiguous prefix plus coalesced
/// out-of-order promise ranges above it.
#[derive(Debug, Clone, Default)]
struct ProcessPromises {
    set: SeqSet,
}

impl ProcessPromises {
    fn add(&mut self, range: PromiseRange) {
        self.set.insert_range(range.start, range.end);
    }

    fn highest_contiguous(&self) -> u64 {
        self.set.contiguous()
    }

    fn contains(&self, ts: u64) -> bool {
        self.set.contains(ts)
    }
}

/// The `Promises` variable of Algorithm 2: promises known from every process of the shard,
/// with majority-based stability detection.
#[derive(Debug, Clone)]
pub struct PromiseTracker {
    /// Per-process promises, ordered by process identifier. Shard members have
    /// consecutive identifiers, so the common lookup is a direct index (`process -
    /// first`); a binary search covers any non-contiguous membership.
    by_process: Vec<(ProcessId, ProcessPromises)>,
    /// `⌊n/2⌋`: index into the sorted watermark array yielding the majority-stable value.
    stability_index: usize,
    /// The per-process `highest_contiguous` watermarks, kept sorted ascending and updated
    /// in place as promises arrive (process identities are irrelevant for Theorem 1, only
    /// the multiset of watermarks matters).
    sorted_watermarks: Vec<u64>,
    /// `owner[i]`: index into `by_process` of the process owning `sorted_watermarks[i]`.
    owner: Vec<usize>,
    /// `slot[j]`: index into `sorted_watermarks` holding process `j`'s watermark — the
    /// inverse of `owner`, so re-positioning a raised watermark needs no search at all.
    slot: Vec<usize>,
    /// Cached `sorted_watermarks[stability_index]`.
    stable: u64,
}

impl PromiseTracker {
    /// Creates a tracker for the given shard members.
    pub fn new(shard_processes: &[ProcessId], stability_index: usize) -> Self {
        let mut by_process: Vec<(ProcessId, ProcessPromises)> = shard_processes
            .iter()
            .map(|p| (*p, ProcessPromises::default()))
            .collect();
        by_process.sort_by_key(|(p, _)| *p);
        by_process.dedup_by_key(|(p, _)| *p);
        let r = by_process.len();
        // Validated against the deduplicated membership: a duplicate in the input must
        // not leave the index out of bounds of the watermark array.
        assert!(stability_index < r, "stability index out of range");
        Self {
            by_process,
            stability_index,
            sorted_watermarks: vec![0; r],
            owner: (0..r).collect(),
            slot: (0..r).collect(),
            stable: 0,
        }
    }

    /// Index of `process` in `by_process`: direct offset for the contiguous-identifier
    /// layout of a shard, binary search otherwise. [`Self::processes`] lists the
    /// processes in this order.
    #[inline]
    pub(crate) fn index_of(&self, process: ProcessId) -> Option<usize> {
        let first = self.by_process.first()?.0;
        let idx = process.checked_sub(first)? as usize;
        if idx < self.by_process.len() && self.by_process[idx].0 == process {
            return Some(idx);
        }
        self.by_process
            .binary_search_by_key(&process, |(p, _)| *p)
            .ok()
    }

    /// Adds a promise range issued by `process`. Ranges from unknown processes (other
    /// shards) are ignored: stability is a per-shard notion.
    #[inline]
    pub fn add(&mut self, process: ProcessId, range: PromiseRange) {
        let Some(index) = self.index_of(process) else {
            return;
        };
        let promises = &mut self.by_process[index].1;
        let before = promises.highest_contiguous();
        promises.add(range);
        let after = promises.highest_contiguous();
        if after > before {
            self.raise_watermark(index, after);
        }
    }

    /// Adds a single-timestamp promise issued by `process`.
    #[inline]
    pub fn add_single(&mut self, process: ProcessId, ts: u64) {
        self.add(process, PromiseRange::single(ts));
    }

    /// Re-positions the watermark of the process at `process_index` after it rose to
    /// `new`. Watermarks only ever move up, so this shifts the intervening entries down
    /// by one slot: O(1) when the order is unchanged, O(r) worst case (r = shard size).
    #[inline]
    fn raise_watermark(&mut self, process_index: usize, new: u64) {
        let mut i = self.slot[process_index];
        debug_assert_eq!(self.owner[i], process_index);
        debug_assert!(self.sorted_watermarks[i] < new);
        while i + 1 < self.sorted_watermarks.len() && self.sorted_watermarks[i + 1] < new {
            self.sorted_watermarks[i] = self.sorted_watermarks[i + 1];
            self.owner[i] = self.owner[i + 1];
            self.slot[self.owner[i]] = i;
            i += 1;
        }
        self.sorted_watermarks[i] = new;
        self.owner[i] = process_index;
        self.slot[process_index] = i;
        self.stable = self.sorted_watermarks[self.stability_index];
    }

    /// The highest contiguous promise received from `process`
    /// (Algorithm 2, `highest_contiguous_promise`).
    pub fn highest_contiguous_promise(&self, process: ProcessId) -> u64 {
        self.index_of(process)
            .map(|i| self.by_process[i].1.highest_contiguous())
            .unwrap_or(0)
    }

    /// Whether the given promise is known.
    pub fn contains(&self, process: ProcessId, ts: u64) -> bool {
        self.index_of(process)
            .map(|i| self.by_process[i].1.contains(ts))
            .unwrap_or(false)
    }

    /// The highest stable timestamp (Theorem 1): the entry at index `⌊n/2⌋` of the sorted
    /// per-process highest contiguous promises; a majority of processes have promised
    /// everything up to (and including) that value. O(1): the sorted array is maintained
    /// incrementally by [`Self::add`].
    #[inline]
    pub fn stable_timestamp(&self) -> u64 {
        self.stable
    }

    /// The processes tracked (the shard membership).
    pub fn processes(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.by_process.iter().map(|(p, _)| *p)
    }

    /// The contiguous promise prefix of the process at `index` (see [`Self::index_of`]).
    pub(crate) fn prefix_at(&self, index: usize) -> u64 {
        self.by_process[index].1.highest_contiguous()
    }

    /// The last timestamp of the run of promises from the process at `index` that holds
    /// `ts`, if it is above the contiguous prefix (`None` if `ts` is not promised).
    pub(crate) fn run_end(&self, index: usize, ts: u64) -> Option<u64> {
        let set = &self.by_process[index].1.set;
        if set.sparse.is_empty() {
            return None;
        }
        let (_, end) = set.sparse.range(..=ts).next_back()?;
        (ts <= *end).then_some(*end)
    }

    /// The `⌊n/2⌋` this tracker was built with: a timestamp is stable once `n` minus
    /// this many processes have promised everything up to it.
    pub fn stability_index(&self) -> usize {
        self.stability_index
    }

    /// The highest promise ever received from `process`, detached ranges included (0 if
    /// none). A rejoining process uses this as a clock floor: it must never propose a
    /// timestamp it already used in a previous incarnation.
    pub fn highest_promise(&self, process: ProcessId) -> u64 {
        self.index_of(process)
            .map(|i| self.by_process[i].1.set.max_value())
            .unwrap_or(0)
    }

    /// The contiguous promise prefix per tracked process, for seeding the tracker of a
    /// rejoining shard peer (`MRejoinAck`).
    pub fn prefixes(&self) -> Vec<(ProcessId, u64)> {
        self.by_process
            .iter()
            .map(|(p, promises)| (*p, promises.highest_contiguous()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracker_r3() -> PromiseTracker {
        // Three processes A = 0, B = 1, C = 2; stability index ⌊3/2⌋ = 1.
        PromiseTracker::new(&[0, 1, 2], 1)
    }

    #[test]
    fn figure2_promise_sets() {
        // Figure 2: r = 3, promise sets X, Y, Z and the resulting stable timestamps.
        let x = [(0u64, 1u64), (2, 3)]; // ⟨A,1⟩, ⟨C,3⟩
        let y = [(1, 1), (1, 2), (1, 3)]; // ⟨B,1..3⟩
        let z = [(0, 2), (2, 1), (2, 2)]; // ⟨A,2⟩, ⟨C,1⟩, ⟨C,2⟩

        let stable = |sets: &[&[(u64, u64)]]| {
            let mut tracker = tracker_r3();
            for set in sets {
                for (p, ts) in *set {
                    tracker.add_single(*p, *ts);
                }
            }
            tracker.stable_timestamp()
        };

        assert_eq!(stable(&[&x]), 0);
        assert_eq!(stable(&[&y]), 0);
        assert_eq!(stable(&[&z]), 0);
        assert_eq!(stable(&[&x, &y]), 1);
        assert_eq!(stable(&[&x, &z]), 2);
        assert_eq!(stable(&[&y, &z]), 2);
        assert_eq!(stable(&[&x, &y, &z]), 3);
    }

    #[test]
    fn figure3_stability_example() {
        // Figure 3 (left): promises ⟨A,1⟩, ⟨B,1⟩, ⟨C,1⟩, ⟨B,2⟩, ⟨C,2⟩, ⟨A,3⟩ make
        // timestamp 2 stable even though ⟨A,2⟩ is missing.
        let mut tracker = tracker_r3();
        for (p, ts) in [(0u64, 1u64), (1, 1), (2, 1), (1, 2), (2, 2), (0, 3)] {
            tracker.add_single(p, ts);
        }
        assert_eq!(tracker.stable_timestamp(), 2);
        // A's promise 3 is sparse (not contiguous) because A never promised 2.
        assert_eq!(tracker.highest_contiguous_promise(0), 1);
        assert!(tracker.contains(0, 3));
        assert!(!tracker.contains(0, 2));
    }

    #[test]
    fn out_of_order_promises_are_absorbed() {
        let mut tracker = tracker_r3();
        tracker.add_single(0, 3);
        tracker.add_single(0, 2);
        assert_eq!(tracker.highest_contiguous_promise(0), 0);
        tracker.add_single(0, 1);
        assert_eq!(tracker.highest_contiguous_promise(0), 3);
    }

    #[test]
    fn ranges_merge_with_prefix() {
        let mut tracker = tracker_r3();
        tracker.add(1, PromiseRange::new(1, 10));
        tracker.add(1, PromiseRange::new(5, 20));
        assert_eq!(tracker.highest_contiguous_promise(1), 20);
        tracker.add(1, PromiseRange::new(25, 30));
        assert_eq!(tracker.highest_contiguous_promise(1), 20);
        tracker.add(1, PromiseRange::new(21, 24));
        assert_eq!(tracker.highest_contiguous_promise(1), 30);
    }

    #[test]
    fn unknown_process_promises_are_ignored() {
        let mut tracker = tracker_r3();
        tracker.add_single(99, 1);
        assert_eq!(tracker.highest_contiguous_promise(99), 0);
        assert!(!tracker.contains(99, 1));
        assert_eq!(tracker.stable_timestamp(), 0);
    }

    #[test]
    fn stability_needs_a_majority_r5() {
        let mut tracker = PromiseTracker::new(&[0, 1, 2, 3, 4], 2);
        // Two processes promise up to 10: not enough for a majority of 3.
        tracker.add(0, PromiseRange::new(1, 10));
        tracker.add(1, PromiseRange::new(1, 10));
        assert_eq!(tracker.stable_timestamp(), 0);
        // Third process promises up to 7: stable = 7.
        tracker.add(2, PromiseRange::new(1, 7));
        assert_eq!(tracker.stable_timestamp(), 7);
        // Remaining processes promising more does not raise the majority value past 10.
        tracker.add(3, PromiseRange::new(1, 50));
        tracker.add(4, PromiseRange::new(1, 50));
        assert_eq!(tracker.stable_timestamp(), 10);
    }

    #[test]
    fn promise_range_len() {
        assert_eq!(PromiseRange::new(2, 5).len(), 4);
        assert_eq!(PromiseRange::single(7).len(), 1);
        assert!(!PromiseRange::single(7).is_empty());
    }

    #[test]
    #[should_panic(expected = "invalid promise range")]
    fn inverted_range_panics() {
        let _ = PromiseRange::new(5, 2);
    }

    #[test]
    fn huge_detached_range_is_one_map_entry() {
        // Regression for the sparse-promise blowup: a single detached range of a billion
        // timestamps (a lagging replica catching up past a recovery) must cost O(1), not
        // one BTreeSet entry per timestamp.
        let mut tracker = tracker_r3();
        tracker.add(0, PromiseRange::new(1_000_000_000, 2_000_000_000));
        assert!(tracker.contains(0, 1_500_000_000));
        assert!(!tracker.contains(0, 999_999_999));
        assert_eq!(tracker.highest_contiguous_promise(0), 0);
        // Filling the gap absorbs the whole range into the prefix.
        tracker.add(0, PromiseRange::new(1, 999_999_999));
        assert_eq!(tracker.highest_contiguous_promise(0), 2_000_000_000);
    }

    #[test]
    fn seq_set_coalesces_overlapping_and_adjacent_ranges() {
        let mut set = SeqSet::default();
        set.insert_range(10, 20);
        set.insert_range(30, 40);
        assert_eq!(set.sparse.len(), 2);
        // Adjacent on the left, overlapping on the right: all three merge.
        set.insert_range(21, 35);
        assert_eq!(set.sparse.len(), 1);
        assert_eq!(set.sparse.get(&10), Some(&40));
        // Fully covered insert is a no-op.
        set.insert_range(12, 18);
        assert_eq!(set.sparse.get(&10), Some(&40));
        assert!(set.contains(40) && !set.contains(41) && !set.contains(9));
        // Closing the prefix gap absorbs everything.
        set.insert_range(1, 9);
        assert_eq!(set.contiguous(), 40);
        assert!(set.sparse.is_empty());
    }

    #[test]
    fn incremental_watermarks_match_collect_and_sort() {
        // The incremental sorted-watermark maintenance must agree with the naive
        // collect-and-sort of the seed implementation after every single update.
        let mut tracker = PromiseTracker::new(&[0, 1, 2, 3, 4], 2);
        let updates = [
            (0u64, 1u64, 5u64),
            (3, 1, 2),
            (1, 1, 9),
            (0, 6, 6),
            (4, 1, 1),
            (2, 1, 7),
            (3, 3, 12),
            (4, 2, 20),
            (2, 8, 8),
            (0, 7, 30),
        ];
        for (p, start, end) in updates {
            tracker.add(p, PromiseRange::new(start, end));
            let mut naive: Vec<u64> = tracker
                .by_process
                .iter()
                .map(|(_, promises)| promises.highest_contiguous())
                .collect();
            naive.sort_unstable();
            assert_eq!(tracker.sorted_watermarks, naive);
            assert_eq!(tracker.stable_timestamp(), naive[2]);
        }
    }
}
