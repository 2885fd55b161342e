//! Rejoin state transfer (DESIGN.md §6): a restarted replica, or one with an execution
//! gap, gates execution until a live shard peer's *applied image* (`MState`) installs.
//! [`Transfer`] owns the gate and every decision about it; `Tempo` installs the image
//! and commits the donor's queue (below).

use crate::executor::ExecutionInfo;
use crate::gc::GcTracker;
use crate::info::CommandInfo;
use crate::messages::Message;
use crate::protocol::Tempo;
use crate::stability::{Bucket, Buckets};
use std::collections::{BTreeMap, BTreeSet};
use tempo_kernel::id::{Dot, ProcessId};
use tempo_kernel::protocol::Action;
use tempo_store::{AppliedImage, QueuedCommit, WalRecord};

/// Most missing sequences noted per origin per executed-frontier report.
const HOLE_SCAN_LIMIT: usize = 32;
/// Most commit-hole suspects tracked at once.
const HOLE_SUSPECT_CAP: usize = 256;

/// The state-transfer gate of one Tempo process.
#[derive(Debug, Default)]
pub(crate) struct Transfer {
    /// `TempoOptions::commit_request_timeout_us`: request retry and hole probe pace.
    timeout_us: u64,
    /// Execution is gated until a peer's `MState` installs: the store is missing what
    /// this replica slept through, or a gap.
    awaiting: bool,
    /// Execution gaps, `(final_ts, dot)` with their buckets: commits skipped unapplied
    /// because stability had passed them, above the installed image's floors. Executing
    /// them now would break `⟨ts, id⟩` order and skipping them leaves the store missing a
    /// write, so execution stays gated until an image covers them all (DESIGN.md §11,
    /// bug 1).
    gaps: BTreeMap<(u64, Dot), Buckets>,
    /// Suspected commit holes, `dot -> (first_seen_us, last_probe_us)`: dots a shard
    /// peer's executed frontier covers that this replica has no record of — a commit it
    /// may never have received, which stability can pass all the same (DESIGN.md §11,
    /// bug 3). Probed after a grace period; an answered probe becomes a gap.
    hole_suspects: BTreeMap<Dot, (u64, u64)>,
    /// Last time an `MStateRequest` was sent.
    last_request_us: u64,
    /// `MStateRequest`s sent so far (rotates the target across live peers).
    attempts: u64,
}

impl Transfer {
    /// An idle gate.
    pub(crate) fn new(timeout_us: u64) -> Self {
        Self {
            timeout_us,
            ..Self::default()
        }
    }

    /// Whether execution is gated on a state transfer.
    pub(crate) fn is_awaiting(&self) -> bool {
        self.awaiting
    }

    /// A new incarnation: gated until an image back-fills what it missed; no gaps yet.
    pub(crate) fn rejoin(&mut self) {
        self.awaiting = true;
        self.attempts = 0;
        self.gaps.clear();
        self.hole_suspects.clear();
    }

    /// Records a commit on `buckets` skipped unapplied, above their execution floors, as
    /// a gap.
    pub(crate) fn record_gap(&mut self, gap: (u64, Dot), buckets: Buckets, gc: &GcTracker) {
        debug_assert!(!gc.is_executed(gap.1), "gap {gap:?} executed");
        self.gaps.insert(gap, buckets);
    }

    /// Gates execution; returns whether it was not gated yet (a request is due).
    pub(crate) fn start(&mut self) -> bool {
        !std::mem::replace(&mut self.awaiting, true)
    }

    /// Whether an outstanding request is due for a retry (lost, or its target rejoining).
    pub(crate) fn retry_due(&self, now_us: u64) -> bool {
        self.awaiting && now_us.saturating_sub(self.last_request_us) >= self.timeout_us
    }

    /// The peer to ask: the next of `peers` not `suspected`, rotating so one silent peer
    /// cannot stall the transfer. With nobody to ask, `None`: execution ungates unless a
    /// gap is open (ordering safety never depended on the transfer; a gap means the
    /// store is *known* incomplete).
    pub(crate) fn next_donor(
        &mut self,
        peers: &[ProcessId],
        suspected: &BTreeSet<ProcessId>,
        now_us: u64,
    ) -> Option<ProcessId> {
        let live: Vec<_> = peers.iter().filter(|p| !suspected.contains(p)).collect();
        if live.is_empty() {
            if self.gaps.is_empty() {
                self.awaiting = false;
            }
            return None;
        }
        let donor = *live[self.attempts as usize % live.len()];
        self.attempts += 1;
        self.last_request_us = now_us;
        Some(donor)
    }

    /// An image arrived, `newer` than the applied one in some bucket: `None` if none was
    /// awaited (a late duplicate); otherwise the gate opens and the answer is `newer`.
    pub(crate) fn receive(&mut self, newer: bool) -> Option<bool> {
        if !self.awaiting {
            return None;
        }
        self.awaiting = false;
        Some(newer)
    }

    /// Closes the gaps the applied image `covers` (their dots join the executed frontier)
    /// and returns whether any closed. A gap left above keeps execution gated.
    pub(crate) fn close_gaps(
        &mut self,
        covers: impl Fn(u64, Dot, &[Bucket]) -> bool,
        gc: &mut GcTracker,
    ) -> bool {
        let open = self.gaps.len();
        self.gaps.retain(|&(ts, dot), buckets| {
            if covers(ts, dot, buckets) {
                gc.record_executed(dot);
                return false;
            }
            // An image's watermarks cover only dots its donor executed, all at or below
            // its floor: none may have marked an open gap executed.
            debug_assert!(!gc.is_executed(dot), "open gap {dot:?}@{ts} executed");
            true
        });
        if !self.gaps.is_empty() {
            self.awaiting = true;
        }
        self.gaps.len() < open
    }

    /// Notes the commit holes a peer's executed `frontier` reveals, a bounded window at a
    /// time ([`HOLE_SCAN_LIMIT`], [`HOLE_SUSPECT_CAP`]), for [`Transfer::probe_holes`] to
    /// probe. A probe that is answered delivers the commit, which lands below its buckets'
    /// stable timestamps as a gap, and the state transfer the gap starts (`MState`) closes it. A
    /// probe nobody answers is re-sent at the stale-command pace for as long as the hole
    /// lasts, with no escalation.
    pub(crate) fn note_holes(
        &mut self,
        frontier: &[(ProcessId, u64)],
        gc: &GcTracker,
        info: &BTreeMap<Dot, CommandInfo>,
        now_us: u64,
    ) {
        for &(origin, watermark) in frontier {
            for seq in gc.missing_below(origin, watermark, HOLE_SCAN_LIMIT) {
                if self.hole_suspects.len() >= HOLE_SUSPECT_CAP {
                    return;
                }
                let dot = Dot::new(origin, seq);
                if info.contains_key(&dot) {
                    continue; // Known (queued, pending or executing): not a hole.
                }
                self.hole_suspects.entry(dot).or_insert((now_us, 0));
            }
        }
    }

    /// Drops the suspects that resolved (known, executed or collected) and returns those
    /// due for a probe (`MCommitRequest`) at the stale-command pace.
    pub(crate) fn probe_holes(
        &mut self,
        gc: &GcTracker,
        info: &BTreeMap<Dot, CommandInfo>,
        now_us: u64,
    ) -> Vec<Dot> {
        let timeout = self.timeout_us;
        let mut probes = Vec::new();
        self.hole_suspects.retain(|&dot, (first_seen, last_probe)| {
            if info.contains_key(&dot) || gc.is_executed(dot) || gc.is_collected(dot) {
                return false;
            }
            if now_us.saturating_sub(*first_seen) >= timeout
                && now_us.saturating_sub(*last_probe) >= timeout
            {
                *last_probe = now_us;
                probes.push(dot);
            }
            true
        });
        probes
    }
}

impl Tempo {
    /// The one builder of this replica's applied image, what a snapshot holds and an
    /// `MState` carries.
    pub(crate) fn applied_image(&self) -> AppliedImage {
        AppliedImage {
            floors: self.executor.floors(),
            kv: self.executor.store().entries(),
            watermarks: self.gc.executed_frontier(),
            queued: self.executor.queued_entries(),
        }
    }

    /// Asks the next live shard peer for its image, or ungates if nobody is left to ask
    /// and no gap is open.
    pub(crate) fn request_state(&mut self, now_us: u64, out: &mut Vec<Action<Message>>) {
        match self
            .transfer
            .next_donor(&self.other_peers, self.recovery.suspected(), now_us)
        {
            Some(donor) => out.push(Action::send_one(donor, Message::MStateRequest)),
            None => self.sync_stability(now_us, out),
        }
    }

    pub(crate) fn handle_state_request(&mut self, from: ProcessId, out: &mut Vec<Action<Message>>) {
        if !self.joined || self.transfer.is_awaiting() {
            // Mid-rejoin (or mid-transfer) state is not a trustworthy image.
            return;
        }
        let image = self.applied_image();
        out.push(Action::send_one(from, Message::MState(image)));
    }

    pub(crate) fn handle_state(
        &mut self,
        image: AppliedImage,
        now_us: u64,
        out: &mut Vec<Action<Message>>,
    ) {
        let floors = image.floors;
        let Some(installed) = self.transfer.receive(self.executor.is_behind(&floors)) else {
            return;
        };
        if installed {
            for dot in self.executor.install(&floors, image.kv) {
                // Queued commits covered by the transferred image: their effects are
                // present without the local executor applying them.
                self.mark_executed(dot);
                self.exec_skipped += 1;
                self.gc.record_executed(dot);
            }
            self.gc.restore_executed(&image.watermarks);
            self.gc_collect();
        }
        // The donor's queue commits before the buckets' stable timestamps are raised to
        // the floors, so an entry at a floor's own timestamp is placed in ⟨ts, id⟩ order
        // rather than skipped as a gap. (Each commit's own `sync_stability` may still
        // raise them past later entries: DESIGN.md §6, "Limitations".)
        self.absorb_transferred_commits(image.queued, now_us, out);
        if installed {
            let stables = floors.iter().map(|&(bucket, ts, _)| (bucket, ts)).collect();
            self.exec_feed(ExecutionInfo::StableIn(stables), now_us, out);
            self.recovery.progress(now_us);
            // Write-through: the back-filled image lives only in the executor until a
            // snapshot captures it — force one so a second crash keeps the back-fill.
            self.snapshot(true);
        }
        let executor = &self.executor;
        let covers = |ts, dot, buckets: &[Bucket]| executor.covers(ts, dot, buckets);
        if self.transfer.close_gaps(covers, &mut self.gc) {
            self.gc_collect();
        }
        if self.transfer.is_awaiting() {
            return;
        }
        if self.executor.is_gated() {
            self.executor.ungate(&mut self.executed);
            self.exec_absorb(now_us, out);
        }
        self.sync_stability(now_us, out);
    }

    /// Commits the donor's queued entries locally — the commands a rejoiner can learn
    /// nowhere else (see `Message::MState::queued`).
    fn absorb_transferred_commits(
        &mut self,
        queued: Vec<QueuedCommit>,
        now_us: u64,
        out: &mut Vec<Action<Message>>,
    ) {
        for q in queued {
            if self.gc.is_executed(q.dot) || self.gc.is_collected(q.dot) {
                continue; // Executed (or blanket-covered) here: effect already present.
            }
            if !self.commit_learned(q.dot, &q.cmd, q.ts, now_us, out) {
                continue; // Already known; the executor dedups queued entries.
            }
            // Re-feed the `MStable` attestations the donor consumed (they are sent once
            // per replica, DESIGN.md §6); live ones clear the rest, as at the donor.
            if self.executor.is_queued(q.dot) {
                for shard in q.cmd.shards() {
                    if shard != self.shard && !q.waits.contains(&shard) {
                        let dot = q.dot;
                        self.durable.append(WalRecord::SiblingStable { dot, shard });
                        self.exec_feed(ExecutionInfo::ShardStable { dot, shard }, now_us, out);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TIMEOUT: u64 = 1_000;

    fn dot(seq: u64) -> Dot {
        Dot::new(1, seq)
    }

    /// The gaps an image with one floor `⟨ts, seq⟩` in bucket 1 covers.
    fn floor(ts: u64, seq: u64) -> impl Fn(u64, Dot, &[Bucket]) -> bool {
        move |at, d, buckets| buckets == [1] && (at, d) <= (ts, dot(seq))
    }

    fn gapped(gaps: &[(u64, u64)]) -> Transfer {
        let mut t = Transfer::new(TIMEOUT);
        t.rejoin();
        let gc = GcTracker::new(0, &[0, 1, 2]);
        for &(ts, seq) in gaps {
            t.record_gap((ts, dot(seq)), Buckets::One(1), &gc);
        }
        t
    }

    #[test]
    fn a_floor_closes_exactly_the_gaps_at_or_below_it() {
        let mut gc = GcTracker::new(0, &[0, 1, 2]);
        let mut t = gapped(&[(5, 3), (7, 1), (7, 4), (9, 2)]);
        assert_eq!(t.receive(true), Some(true));
        assert!(!t.is_awaiting());
        // ⟨7, 1⟩ is below the floor ⟨7, 2⟩, ⟨7, 4⟩ above it.
        assert!(t.close_gaps(floor(7, 2), &mut gc));
        let executed =
            |gc: &GcTracker| -> Vec<u64> { (1..=4).filter(|&s| gc.is_executed(dot(s))).collect() };
        assert_eq!(executed(&gc), vec![1, 3]);
        assert!(t.is_awaiting(), "open gaps keep execution gated");
        assert!(
            !t.close_gaps(floor(7, 3), &mut gc),
            "nothing between the floors"
        );
        assert_eq!(t.receive(true), Some(true));
        assert!(t.close_gaps(floor(9, 2), &mut gc));
        assert_eq!(executed(&gc), vec![1, 2, 3, 4]);
        assert!(!t.is_awaiting());
        // Nothing outstanding: a late image is ignored; a stale one is not installed.
        assert_eq!(t.receive(true), None);
        assert!(t.start());
        assert!(!t.start(), "already gated");
        assert_eq!(t.receive(false), Some(false));
    }

    #[test]
    fn donors_rotate_over_the_live_peers() {
        let mut t = gapped(&[]);
        let mut suspected = BTreeSet::from([1]);
        let peers = [0, 1, 3];
        let donors: Vec<_> = (0..4)
            .map(|i| t.next_donor(&peers, &suspected, 10 * i))
            .collect();
        assert_eq!(donors, [Some(0), Some(3), Some(0), Some(3)]);
        // Retries are paced from the last request.
        assert!(!t.retry_due(30 + TIMEOUT - 1));
        assert!(t.retry_due(30 + TIMEOUT));
        // Nobody to ask: with a gap open execution stays gated, without one it ungates.
        suspected.extend([0, 3]);
        let mut open = gapped(&[(4, 1)]);
        assert_eq!(open.next_donor(&peers, &suspected, 0), None);
        assert!(open.is_awaiting());
        assert_eq!(t.next_donor(&peers, &suspected, 50), None);
        assert!(!t.is_awaiting());
        assert!(!t.retry_due(u64::MAX), "nothing outstanding");
    }

    #[test]
    fn hole_suspects_are_capped_paced_and_dropped_once_resolved() {
        let mut t = Transfer::new(TIMEOUT);
        let mut gc = GcTracker::new(0, &[0, 1, 2]);
        let mut info = BTreeMap::new();
        // One report names 32 missing sequences per origin at most.
        t.note_holes(&[(1, 100)], &gc, &info, 0);
        assert_eq!(t.probe_holes(&gc, &info, TIMEOUT).len(), HOLE_SCAN_LIMIT);
        // Known dots are not holes, and the suspects never exceed the cap.
        info.insert(Dot::new(2, 1), CommandInfo::new(0));
        let frontier: Vec<_> = (2..20).map(|origin| (origin, 100)).collect();
        t.note_holes(&frontier, &gc, &info, 0);
        assert_eq!(t.hole_suspects.len(), HOLE_SUSPECT_CAP);
        assert!(!t.hole_suspects.contains_key(&Dot::new(2, 1)));
        // Probes wait out the grace period, then repeat once per timeout.
        let mut t = Transfer::new(TIMEOUT);
        t.note_holes(&[(1, 3)], &gc, &info, 100);
        assert!(t.probe_holes(&gc, &info, 100 + TIMEOUT - 1).is_empty());
        assert_eq!(
            t.probe_holes(&gc, &info, 100 + TIMEOUT),
            vec![dot(1), dot(2), dot(3)]
        );
        assert!(t.probe_holes(&gc, &info, 100 + 2 * TIMEOUT - 1).is_empty());
        // Resolved suspects — metadata arrived, executed — are dropped.
        info.insert(dot(1), CommandInfo::new(0));
        gc.record_executed(dot(2));
        assert_eq!(t.probe_holes(&gc, &info, 100 + 2 * TIMEOUT), vec![dot(3)]);
        assert_eq!(t.hole_suspects.len(), 1);
    }
}
