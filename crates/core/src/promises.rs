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
//! the stable timestamp is re-picked from the n prefixes only when one of them grows, and
//! [`PromiseTracker::stable_timestamp`] returns a cached value — the paper's "cheap
//! background activity" (§3.2) instead of an allocate-and-sort per query.

use std::collections::BTreeMap;
use std::ops::{Index, IndexMut};
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
    /// The set `[1, contiguous]`.
    pub(crate) fn with_prefix(contiguous: u64) -> Self {
        Self {
            contiguous,
            sparse: BTreeMap::new(),
        }
    }

    /// Whether the set is its contiguous prefix, with nothing above a gap.
    pub(crate) fn is_contiguous(&self) -> bool {
        self.sparse.is_empty()
    }

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

/// How many values a [`PerBucket`] page holds.
const PAGE: usize = 64;

/// One value per index — a key bucket, or a bucket and a shard member — allocated a page at
/// a time when first written: a process pays for the buckets it uses, not for all of them,
/// so a cluster starts as fast as with one scalar clock.
#[derive(Debug, Clone)]
pub(crate) struct PerBucket<T> {
    pages: Vec<Option<Box<[T; PAGE]>>>,
    /// What a value never written reads.
    zero: T,
}

impl<T: Copy + Default> PerBucket<T> {
    /// `len` values, all `T::default()`.
    pub(crate) fn new(len: usize) -> Self {
        Self {
            pages: vec![None; len.div_ceil(PAGE)],
            zero: T::default(),
        }
    }
}

impl<T> Index<usize> for PerBucket<T> {
    type Output = T;

    fn index(&self, i: usize) -> &T {
        match &self.pages[i / PAGE] {
            Some(page) => &page[i % PAGE],
            None => &self.zero,
        }
    }
}

impl<T: Copy + Default> IndexMut<usize> for PerBucket<T> {
    fn index_mut(&mut self, i: usize) -> &mut T {
        let page = &mut self.pages[i / PAGE];
        &mut page.get_or_insert_with(|| Box::new([T::default(); PAGE]))[i % PAGE]
    }
}

/// The `Promises` variable of Algorithm 2 — the promises known from every process of the
/// shard, with majority-based stability detection — once per *track*: `Stability` keeps
/// one per key bucket, [`PromiseTracker::new`] builds one.
///
/// Per track and process the contiguous prefix is kept flat, and the whole `SeqSet` only
/// while a gap lies above it; a track's stable timestamp, the `⌊n/2⌋`-th smallest prefix,
/// is re-picked when a prefix grows (a shard is a handful of processes) and cached, so a
/// query is a read — the paper's "cheap background activity" (§3.2).
#[derive(Debug, Clone)]
pub struct PromiseTracker {
    /// The shard members, in identifier order.
    processes: Vec<ProcessId>,
    /// `⌊n/2⌋`: a timestamp is stable once `n` minus this many prefixes reach it.
    stability_index: usize,
    /// Per track and process, the contiguous prefix, at `track · n + process index`...
    prefixes: PerBucket<u64>,
    /// ...and, at the same index, the whole promise set while a gap lies above it.
    gapped: BTreeMap<usize, SeqSet>,
    /// Per track, the cached stable timestamp.
    stables: PerBucket<u64>,
    /// A buffer for the prefixes a stable timestamp is picked from.
    sorted: Vec<u64>,
}

impl PromiseTracker {
    /// Creates a tracker for the given shard members.
    pub fn new(shard_processes: &[ProcessId], stability_index: usize) -> Self {
        Self::with_tracks(shard_processes, stability_index, 1)
    }

    /// Creates a tracker of `tracks` tracks for the given shard members.
    pub(crate) fn with_tracks(
        shard_processes: &[ProcessId],
        stability_index: usize,
        tracks: usize,
    ) -> Self {
        let mut processes = shard_processes.to_vec();
        processes.sort_unstable();
        processes.dedup();
        // Validated against the deduplicated membership: a duplicate in the input must
        // not leave the index out of bounds of the prefixes.
        assert!(
            stability_index < processes.len(),
            "stability index out of range"
        );
        Self {
            prefixes: PerBucket::new(tracks * processes.len()),
            gapped: BTreeMap::new(),
            stables: PerBucket::new(tracks),
            sorted: Vec::with_capacity(processes.len()),
            processes,
            stability_index,
        }
    }

    /// The shard members, in identifier order (the order of [`Self::prefix_in`]).
    pub(crate) fn processes(&self) -> &[ProcessId] {
        &self.processes
    }

    fn index_of(&self, process: ProcessId) -> Option<usize> {
        self.processes.binary_search(&process).ok()
    }

    fn slot(&self, track: usize, index: usize) -> usize {
        track * self.processes.len() + index
    }

    /// Adds a promise range issued by `process`. Ranges from unknown processes (other
    /// shards) are ignored: stability is a per-shard notion.
    pub fn add(&mut self, process: ProcessId, range: PromiseRange) {
        self.add_in(0, process, range);
    }

    /// Adds a single-timestamp promise issued by `process`.
    pub fn add_single(&mut self, process: ProcessId, ts: u64) {
        self.add(process, PromiseRange::single(ts));
    }

    /// Adds a promise range issued by `process` in `track`; returns whether the track's
    /// stable timestamp rose.
    pub(crate) fn add_in(&mut self, track: usize, process: ProcessId, range: PromiseRange) -> bool {
        let Some(index) = self.index_of(process) else {
            return false;
        };
        let slot = self.slot(track, index);
        let before = self.prefixes[slot];
        let after = match self.gapped.get_mut(&slot) {
            Some(set) => {
                set.insert_range(range.start, range.end);
                let after = set.contiguous();
                if set.is_contiguous() {
                    self.gapped.remove(&slot);
                }
                after
            }
            None if range.start <= before + 1 => before.max(range.end),
            None => {
                let mut set = SeqSet::with_prefix(before);
                set.insert_range(range.start, range.end);
                self.gapped.insert(slot, set);
                before
            }
        };
        if after == before {
            return false;
        }
        self.prefixes[slot] = after;
        let first = self.slot(track, 0);
        self.sorted.clear();
        let prefixes = (first..first + self.processes.len()).map(|i| self.prefixes[i]);
        self.sorted.extend(prefixes);
        self.sorted.sort_unstable();
        let stable = self.sorted[self.stability_index];
        let risen = stable > self.stables[track];
        if risen {
            self.stables[track] = stable;
        }
        risen
    }

    /// The highest contiguous promise received from `process`
    /// (Algorithm 2, `highest_contiguous_promise`).
    pub fn highest_contiguous_promise(&self, process: ProcessId) -> u64 {
        self.index_of(process).map_or(0, |i| self.prefix_in(0, i))
    }

    /// The contiguous prefix of the process at `index` in `track`.
    pub(crate) fn prefix_in(&self, track: usize, index: usize) -> u64 {
        self.prefixes[self.slot(track, index)]
    }

    /// The highest promise of the process at `index` in `track`, detached ranges
    /// included (0 if none).
    pub(crate) fn highest_in(&self, track: usize, index: usize) -> u64 {
        let slot = self.slot(track, index);
        let set = self.gapped.get(&slot);
        set.map_or(self.prefixes[slot], SeqSet::max_value)
    }

    /// Whether the given promise is known.
    pub fn contains(&self, process: ProcessId, ts: u64) -> bool {
        self.contains_in(0, process, ts)
    }

    /// Whether `process` promised `ts` in `track`.
    pub(crate) fn contains_in(&self, track: usize, process: ProcessId, ts: u64) -> bool {
        let Some(index) = self.index_of(process) else {
            return false;
        };
        let slot = self.slot(track, index);
        ts <= self.prefixes[slot] || self.gapped.get(&slot).is_some_and(|set| set.contains(ts))
    }

    /// The highest stable timestamp (Theorem 1): the `⌊n/2⌋`-th smallest of the
    /// per-process highest contiguous promises; a majority of processes have promised
    /// everything up to (and including) that value. O(1): cached by [`Self::add`].
    pub fn stable_timestamp(&self) -> u64 {
        self.stable_in(0)
    }

    /// The highest stable timestamp of `track`.
    pub(crate) fn stable_in(&self, track: usize) -> u64 {
        self.stables[track]
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
        // The cached stable timestamp must agree with the naive collect-and-sort of the
        // seed implementation after every single update.
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
            let mut naive: Vec<u64> = (0..5)
                .map(|p| tracker.highest_contiguous_promise(p))
                .collect();
            naive.sort_unstable();
            assert_eq!(tracker.stable_timestamp(), naive[2]);
        }
    }

    #[test]
    fn tracks_are_independent() {
        let mut tracker = PromiseTracker::with_tracks(&[0, 1, 2], 1, 3);
        assert!(!tracker.add_in(2, 0, PromiseRange::new(1, 5)));
        assert!(tracker.add_in(2, 1, PromiseRange::new(1, 4)));
        assert!(
            !tracker.add_in(1, 1, PromiseRange::new(3, 9)),
            "above a gap"
        );
        assert_eq!((tracker.stable_in(2), tracker.stable_in(1)), (4, 0));
        assert!(tracker.contains_in(1, 1, 9) && !tracker.contains_in(2, 1, 9));
        assert_eq!((tracker.prefix_in(1, 1), tracker.highest_in(1, 1)), (0, 9));
    }
}
