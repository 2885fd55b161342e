//! Committed-command garbage collection via executed-watermark exchange.
//!
//! The paper keeps per-command metadata (`CommandInfo`) alive so that a process can keep
//! answering `MCommitRequest` and `MRec` for a command (Appendix B liveness). But those
//! messages are only ever sent by *shard peers* for commands they have not yet executed:
//! once every process of the shard has executed a dot, no further message about it can be
//! generated, and its `CommandInfo` — payload included — can be dropped. Without this,
//! `Tempo::info` grows linearly with every command ever issued.
//!
//! Mirroring fantoch's `GCTrack`, each process summarises what it has executed as one
//! watermark per *origin* (the process that generated the dot): the highest `n` such that
//! every dot `⟨origin, 1⟩ ‥ ⟨origin, n⟩` has been executed locally. The watermark is
//! piggybacked on every `MPromises` broadcast (no extra messages); every process
//! takes, per origin, the minimum over its own and all peers' watermarks, and collects
//! the dots at or below it.
//!
//! Safety: executed ⟹ committed ⟹ not `pending`, and a dot never re-enters `pending`,
//! so a peer past the watermark never *initiates* `MCommitRequest`/`MRec` for a collected
//! dot again. Stale messages still in flight when the watermark advances are dropped by
//! the dispatcher via [`GcTracker::is_collected`] — they can only concern a command the
//! sender has since executed. See `DESIGN.md` ("Hot paths and GC") for the full argument.
//!
//! Limitation (partial replication): the per-origin watermark only advances through dots
//! that access this shard. An origin interleaving commands to other shards leaves
//! permanent gaps, stalling its watermark — those dots are summarised by the coalesced
//! ranges of the internal `SeqSet` but not collected. Exchanging the full range set
//! would lift this and is left to a future PR.

use crate::promises::SeqSet;
use std::collections::BTreeMap;
use std::ops::RangeInclusive;
use tempo_kernel::id::{Dot, ProcessId};

/// Executed-watermark bookkeeping for one process of a shard.
#[derive(Debug, Clone)]
pub struct GcTracker {
    /// Dots executed locally, per origin.
    executed: BTreeMap<ProcessId, SeqSet>,
    /// Per shard peer (excluding self), the executed watermark it reported per origin.
    peers: BTreeMap<ProcessId, BTreeMap<ProcessId, u64>>,
    /// Per origin, the watermark at or below which `CommandInfo` has been dropped.
    collected: BTreeMap<ProcessId, u64>,
    /// Per origin, the local watermark as of the last broadcast to the shard peers.
    last_broadcast: BTreeMap<ProcessId, u64>,
}

impl GcTracker {
    /// Creates a tracker for `process`, whose shard members are `shard_peers`
    /// (including `process` itself).
    pub fn new(process: ProcessId, shard_peers: &[ProcessId]) -> Self {
        let peers = shard_peers
            .iter()
            .copied()
            .filter(|p| *p != process)
            .map(|p| (p, BTreeMap::new()))
            .collect();
        Self {
            executed: BTreeMap::new(),
            peers,
            collected: BTreeMap::new(),
            last_broadcast: BTreeMap::new(),
        }
    }

    /// Records that `dot` executed locally.
    pub fn record_executed(&mut self, dot: Dot) {
        self.executed
            .entry(dot.source)
            .or_default()
            .insert(dot.sequence);
    }

    /// Seeds the executed set of every origin of an applied image's `frontier` with the
    /// contiguous prefix `[1, watermark]`: a restored snapshot or an installed transfer
    /// contains the effect of that prefix, so this process will never need its metadata
    /// again. Watermarks are monotone; a stale seed is a no-op.
    pub fn restore_executed(&mut self, frontier: &[(ProcessId, u64)]) {
        for &(origin, watermark) in frontier.iter().filter(|(_, w)| *w >= 1) {
            let executed = self.executed.entry(origin).or_default();
            executed.insert_range(1, watermark);
        }
    }

    /// Whether `dot` is in the local executed set (executed, skip-covered or
    /// blanket-restored here).
    pub fn is_executed(&self, dot: Dot) -> bool {
        self.executed
            .get(&dot.source)
            .is_some_and(|set| set.contains(dot.sequence))
    }

    /// Sequences of `origin` in `(local contiguous prefix, watermark]` that are missing
    /// from the local executed set, lowest first, at most `limit`. When a shard peer
    /// reports `watermark` as its frontier, each of these is a dot the peer has executed
    /// but this process has not — a candidate commit hole if no metadata exists for it
    /// either (see `Transfer::note_holes`).
    pub fn missing_below(&self, origin: ProcessId, watermark: u64, limit: usize) -> Vec<u64> {
        match self.executed.get(&origin) {
            Some(set) => set.missing_in(set.contiguous(), watermark, limit),
            None => (1..=watermark).take(limit).collect(),
        }
    }

    /// The local executed watermark per origin, for piggybacking on `MPromises`.
    /// Only origins with a non-zero watermark are reported.
    pub fn executed_frontier(&self) -> Vec<(ProcessId, u64)> {
        self.executed
            .iter()
            .filter(|(_, set)| set.contiguous() > 0)
            .map(|(origin, set)| (*origin, set.contiguous()))
            .collect()
    }

    /// Whether the local executed frontier advanced since the last
    /// [`Self::record_broadcast`]. Used to keep GC live across quiescence: the frontier
    /// normally piggybacks on promise-carrying `MPromises`, but once traffic stops the
    /// final window must still be shipped (as a frontier-only broadcast) or it would
    /// never be collected anywhere.
    pub fn frontier_changed(&self) -> bool {
        self.executed.iter().any(|(origin, set)| {
            let watermark = set.contiguous();
            watermark > 0 && self.last_broadcast.get(origin).copied().unwrap_or(0) < watermark
        })
    }

    /// Records that `frontier` was broadcast to the shard peers.
    pub fn record_broadcast(&mut self, frontier: &[(ProcessId, u64)]) {
        for (origin, watermark) in frontier {
            let entry = self.last_broadcast.entry(*origin).or_insert(0);
            *entry = (*entry).max(*watermark);
        }
    }

    /// Absorbs the executed watermark reported by shard peer `peer`. Watermarks are
    /// monotone, so stale (reordered) reports are ignored per entry.
    pub fn update_peer(&mut self, peer: ProcessId, frontier: &[(ProcessId, u64)]) {
        let Some(known) = self.peers.get_mut(&peer) else {
            return; // Not a shard peer (e.g. a sibling-shard process): ignore.
        };
        for (origin, watermark) in frontier {
            let entry = known.entry(*origin).or_insert(0);
            *entry = (*entry).max(*watermark);
        }
    }

    /// Advances the collected watermark per origin to the minimum executed watermark
    /// across this process and every shard peer, returning the newly collectable dot
    /// ranges. Each dot is returned exactly once across all calls.
    pub fn collect(&mut self) -> Vec<(ProcessId, RangeInclusive<u64>)> {
        let mut out = Vec::new();
        for (&origin, set) in &self.executed {
            let mut all_executed = set.contiguous();
            for peer in self.peers.values() {
                all_executed = all_executed.min(peer.get(&origin).copied().unwrap_or(0));
            }
            let done = self.collected.entry(origin).or_insert(0);
            if all_executed > *done {
                out.push((origin, (*done + 1)..=all_executed));
                *done = all_executed;
            }
        }
        out
    }

    /// Whether `dot`'s metadata has been garbage collected. Any message concerning a
    /// collected dot is stale (every shard peer has executed it) and safe to drop.
    pub fn is_collected(&self, dot: Dot) -> bool {
        self.collected
            .get(&dot.source)
            .is_some_and(|w| dot.sequence <= *w)
    }

    /// Number of dots collected so far (diagnostics).
    pub fn collected_count(&self) -> u64 {
        self.collected.values().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dots(tracker: &mut GcTracker, origin: ProcessId, seqs: RangeInclusive<u64>) {
        for seq in seqs {
            tracker.record_executed(Dot::new(origin, seq));
        }
    }

    #[test]
    fn collects_only_below_the_all_peer_minimum() {
        let mut gc = GcTracker::new(0, &[0, 1, 2]);
        dots(&mut gc, 0, 1..=10);
        // No peer reports yet: nothing is collectable.
        assert!(gc.collect().is_empty());
        gc.update_peer(1, &[(0, 7)]);
        assert!(gc.collect().is_empty(), "peer 2 has not reported");
        gc.update_peer(2, &[(0, 4)]);
        assert_eq!(gc.collect(), vec![(0, 1..=4)]);
        assert!(gc.is_collected(Dot::new(0, 4)));
        assert!(!gc.is_collected(Dot::new(0, 5)));
        // Advancing the slowest peer releases the next chunk exactly once.
        gc.update_peer(2, &[(0, 9)]);
        assert_eq!(gc.collect(), vec![(0, 5..=7)]);
        assert!(gc.collect().is_empty());
        assert_eq!(gc.collected_count(), 7);
    }

    #[test]
    fn stale_peer_reports_are_ignored() {
        let mut gc = GcTracker::new(0, &[0, 1, 2]);
        dots(&mut gc, 0, 1..=5);
        gc.update_peer(1, &[(0, 5)]);
        gc.update_peer(2, &[(0, 5)]);
        assert_eq!(gc.collect(), vec![(0, 1..=5)]);
        // A reordered (older) report must not roll a watermark back.
        gc.update_peer(2, &[(0, 2)]);
        dots(&mut gc, 0, 6..=6);
        gc.update_peer(1, &[(0, 6)]);
        gc.update_peer(2, &[(0, 6)]);
        assert_eq!(gc.collect(), vec![(0, 6..=6)]);
    }

    #[test]
    fn gaps_stall_the_watermark() {
        // An origin whose dot 2 never touched this shard: nothing above 1 collects.
        let mut gc = GcTracker::new(0, &[0, 1]);
        gc.record_executed(Dot::new(7, 1));
        gc.record_executed(Dot::new(7, 3));
        gc.update_peer(1, &[(7, 1)]);
        assert_eq!(gc.collect(), vec![(7, 1..=1)]);
        assert_eq!(gc.executed_frontier(), vec![(7, 1)]);
        assert!(!gc.is_collected(Dot::new(7, 3)));
    }

    #[test]
    fn non_peer_reports_are_ignored() {
        let mut gc = GcTracker::new(0, &[0, 1]);
        dots(&mut gc, 0, 1..=3);
        // Process 9 is not a shard peer; its report must not unlock collection.
        gc.update_peer(9, &[(0, 3)]);
        assert!(gc.collect().is_empty());
        gc.update_peer(1, &[(0, 3)]);
        assert_eq!(gc.collect(), vec![(0, 1..=3)]);
    }
}
