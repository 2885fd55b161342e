//! Timestamp stability — this process's clock, the promises it made and heard, and the
//! line-47 commit gate, owned by one component (Algorithms 1-2, Theorem 1).
//!
//! Every Tempo process keeps a scalar clock from which timestamp proposals are
//! generated. Advancing the clock *uses up* timestamps and therefore produces *promises*:
//!
//! * an **attached** promise `⟨i, t⟩` says that process `i` proposed timestamp `t` for a
//!   specific command and will never use `t` again,
//! * a **detached** promise `⟨i, u⟩` says that process `i` skipped timestamp `u` and will
//!   never propose it for any command.
//!
//! [`Stability`] registers its own promises as it makes them and buffers them for the next
//! `MPromises` (footnote 2: a promise is sent once in the absence of failures). Peers'
//! promises all go through [`Stability::absorb`], where an attached one waits behind the
//! gate until its command commits here (Algorithm 2, line 47). Own attachments also *pin*
//! the safe frontier claimed in `MPromises` below them until their command is executed at
//! every shard peer. `Tempo` says which dots committed, persists clock floors and ships
//! what this produces.

use crate::messages::PromiseBundle;
use crate::promises::{PromiseRange, PromiseTracker};
use std::collections::{BTreeMap, BTreeSet};
use tempo_kernel::id::{Dot, ProcessId};

/// Promises reported by a peer, in the shape of the message that carried them.
#[derive(Debug)]
pub enum Report {
    /// `Bundle(dot, bundle)`, from an `MCommit`: the detached ranges and the attachments
    /// to `dot` that its fast quorum made while proposing.
    Bundle(Dot, PromiseBundle),
    /// `Promises(from, frontier, detached, attached)`, from an `MPromises`: `from`
    /// promised all of `[1, frontier]` (its safe frontier: every attachment below it is
    /// executed at every shard peer), the `detached` ranges and the `attached` ones.
    Promises(ProcessId, u64, Vec<PromiseRange>, Vec<(Dot, u64)>),
    /// `Repair(from, clock, pending)`, from an `MPromiseRepair`: `from` promised all of
    /// `[1, clock]`, the timestamps in `pending` as attachments (in timestamp order).
    Repair(ProcessId, u64, Vec<(u64, Dot)>),
}

/// The `MPromises` payload: unsent detached and attached promises, and the safe frontier.
pub type Outgoing = (Vec<PromiseRange>, Vec<(Dot, u64)>, u64);

/// The clock, the promise tracker and the commit gate of one Tempo process.
#[derive(Debug)]
pub struct Stability {
    process: ProcessId,
    /// Current clock value; the next proposal is at least `clock + 1`.
    clock: u64,
    /// Detached promises made and not yet broadcast.
    unsent_detached: Vec<PromiseRange>,
    /// Attached promises made and not yet broadcast.
    unsent_attached: Vec<(Dot, u64)>,
    /// The `Promises` variable of Algorithm 2, this process included.
    promises: PromiseTracker,
    /// Attached promises to commands not committed here yet, by command (line 47).
    gated: BTreeMap<Dot, Vec<(ProcessId, u64)>>,
    /// This process's attachments to commands not yet executed at every shard peer, as
    /// `(timestamp, dot)`. The safe frontier stays below the smallest of them.
    attached_pending: BTreeSet<(u64, Dot)>,
    /// Inverse of `attached_pending`, for O(log n) unpinning when a dot is collected.
    attached_ts: BTreeMap<Dot, u64>,
    /// The highest safe frontier already broadcast (to skip no-news sends).
    last_frontier_sent: u64,
    /// Whether this incarnation claims no frontier (see [`Stability::claim_nothing`]).
    claims_nothing: bool,
}

impl Stability {
    /// A clock at zero for `process` of `shard_peers`; a timestamp is stable once the
    /// `stability_index`-th smallest promise prefix reaches it.
    pub fn new(process: ProcessId, shard_peers: &[ProcessId], stability_index: usize) -> Self {
        Self {
            process,
            clock: 0,
            unsent_detached: Vec::new(),
            unsent_attached: Vec::new(),
            promises: PromiseTracker::new(shard_peers, stability_index),
            gated: BTreeMap::new(),
            attached_pending: BTreeSet::new(),
            attached_ts: BTreeMap::new(),
            last_frontier_sent: 0,
            claims_nothing: false,
        }
    }

    /// Current clock value.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// The highest stable timestamp (Theorem 1).
    pub fn stable_timestamp(&self) -> u64 {
        self.promises.stable_timestamp()
    }

    /// Proposes a timestamp for `dot` given the coordinator's proposal `min` (Algorithm
    /// 1, lines 34-39): `max(min, clock + 1)`, to which the clock moves. The skipped range
    /// `[clock + 1, t - 1]` is a detached promise, also returned for the `MProposeAck`;
    /// `⟨self, t⟩` is an attached promise, gated until `dot` commits here and pinning the
    /// frontier below `t` until `dot` is forgotten.
    pub fn propose(&mut self, dot: Dot, min: u64) -> (u64, Option<PromiseRange>) {
        let t = min.max(self.clock + 1);
        let detached = (t > self.clock + 1).then(|| PromiseRange::new(self.clock + 1, t - 1));
        if let Some(range) = detached {
            self.promises.add(self.process, range);
            self.unsent_detached.push(range);
        }
        self.clock = t;
        self.unsent_attached.push((dot, t));
        self.admit(dot, self.process, t, false);
        if self.attached_ts.insert(dot, t).is_none() {
            // Proposals come off a strictly increasing clock, so no two dots ever share
            // an attached timestamp (timestamp uniqueness, Property 1's premise).
            debug_assert!(
                self.attached_pending.last().is_none_or(|(ts, _)| *ts < t),
                "timestamp {t} attached to a second dot"
            );
            self.attached_pending.insert((t, dot));
        }
        (t, detached)
    }

    /// Bumps the clock to at least `t` (Algorithm 1, lines 40-43), promising the skipped
    /// range `[clock + 1, t]`. Returns whether the clock moved.
    pub fn bump(&mut self, t: u64) -> bool {
        if t <= self.clock {
            return false;
        }
        let range = PromiseRange::new(self.clock + 1, t);
        self.promises.add(self.process, range);
        self.unsent_detached.push(range);
        self.clock = t;
        true
    }

    /// Raises the clock to at least `t` *without* promising anything: the replay of a
    /// durable clock floor or commit, whose range belongs to a previous life.
    pub fn restore(&mut self, t: u64) {
        self.clock = self.clock.max(t);
    }

    /// From now on this incarnation claims nothing (frontier 0, no `MPromiseRepair`): a
    /// restarted or restored one cannot enumerate its previous life's in-flight attached
    /// proposals, so any prefix claim could cover an attachment still gated at a peer and
    /// let a *healthy* replica's stability pass an uncommitted command (DESIGN.md §5).
    /// Its prefix at the peers stalls; stability proceeds through the other replicas.
    pub fn claim_nothing(&mut self) {
        self.claims_nothing = true;
    }

    /// Absorbs a peer's promises. `is_committed(dot)` says whether `dot` is committed (or
    /// collected) here: its attachments then count at once, otherwise they wait for
    /// [`Self::commit`].
    pub fn absorb(&mut self, report: Report, mut is_committed: impl FnMut(Dot) -> bool) {
        match report {
            Report::Bundle(dot, bundle) => {
                for (process, range) in bundle.detached {
                    self.promises.add(process, range);
                }
                let committed = is_committed(dot);
                for (process, ts) in bundle.attached {
                    self.admit(dot, process, ts, committed);
                }
            }
            Report::Promises(from, frontier, detached, attached) => {
                if frontier >= 1 {
                    self.promises.add(from, PromiseRange::new(1, frontier));
                }
                for range in detached {
                    self.promises.add(from, range);
                }
                for (dot, ts) in attached {
                    let committed = is_committed(dot);
                    self.admit(dot, from, ts, committed);
                }
            }
            Report::Repair(from, clock, pending) => {
                let mut next = 1;
                for (ts, dot) in pending.into_iter().take_while(|(ts, _)| *ts <= clock) {
                    if ts > next {
                        self.promises.add(from, PromiseRange::new(next, ts - 1));
                    }
                    let committed = is_committed(dot);
                    self.admit(dot, from, ts, committed);
                    next = next.max(ts + 1);
                }
                if next <= clock {
                    self.promises.add(from, PromiseRange::new(next, clock));
                }
            }
        }
    }

    /// The commit gate: an attachment to a committed command counts, any other waits.
    fn admit(&mut self, dot: Dot, process: ProcessId, ts: u64, committed: bool) {
        if committed {
            self.promises.add_single(process, ts);
            return;
        }
        let gated = self.gated.entry(dot).or_default();
        if !gated.contains(&(process, ts)) {
            gated.push((process, ts));
        }
    }

    /// `dot` committed here: its gated attachments count from now on (line 47).
    pub fn commit(&mut self, dot: Dot) {
        for (process, ts) in self.gated.remove(&dot).unwrap_or_default() {
            self.promises.add_single(process, ts);
        }
    }

    /// `dot` was collected (executed at every shard peer): it gates nothing and no longer
    /// pins the frontier. A dot executed only here needs nothing; its commit ungated it.
    pub fn forget(&mut self, dot: Dot) {
        self.gated.remove(&dot);
        if let Some(ts) = self.attached_ts.remove(&dot) {
            self.attached_pending.remove(&(ts, dot));
        }
    }

    /// Whether detached promises are waiting to be broadcast.
    pub fn has_unsent_detached(&self) -> bool {
        !self.unsent_detached.is_empty()
    }

    /// The safe frontier: every timestamp up to it is promised by this process, and every
    /// attached one among them belongs to a command executed at every shard peer.
    fn frontier(&self) -> u64 {
        if self.claims_nothing {
            return 0;
        }
        match self.attached_pending.first() {
            Some((ts, _)) => self.clock.min(ts.saturating_sub(1)),
            None => self.clock,
        }
    }

    /// Takes the `MPromises` payload (Algorithm 2, line 45) — the unsent detached and
    /// attached promises and the safe frontier — or `None` when there is nothing new to
    /// say: nothing unsent, the frontier where it was last sent, and no caller `news`.
    pub fn take_outgoing(&mut self, news: bool) -> Option<Outgoing> {
        let frontier = self.frontier();
        let unsent = !self.unsent_detached.is_empty() || !self.unsent_attached.is_empty();
        if !(news || unsent || frontier > self.last_frontier_sent) {
            return None;
        }
        // Attachments land above the clock they were drawn from, so the claimed prefix
        // only grows (per-process promise monotonicity).
        debug_assert!(
            frontier >= self.last_frontier_sent,
            "promise frontier regressed"
        );
        self.last_frontier_sent = frontier;
        let detached = std::mem::take(&mut self.unsent_detached);
        let attached = std::mem::take(&mut self.unsent_attached);
        Some((detached, attached, frontier))
    }

    /// Drops the promises not yet broadcast (a rejoining incarnation's floor bumps: they
    /// cover the previous life's range, see [`Self::claim_nothing`]).
    pub fn discard_outgoing(&mut self) {
        self.unsent_detached.clear();
        self.unsent_attached.clear();
    }

    /// The `MPromiseRepair` payload — the clock and the pinned attachments, i.e. "all of
    /// `[1, clock]` but these" — or `None` if this incarnation claims nothing.
    pub fn repair_report(&self) -> Option<(u64, Vec<(u64, Dot)>)> {
        (!self.claims_nothing)
            .then(|| (self.clock, self.attached_pending.iter().copied().collect()))
    }

    /// The `MRejoinAck` payload for a rejoining `peer`: this clock, the highest promise
    /// ever heard from `peer` and the contiguous prefix of every shard member.
    pub fn rejoin_report(&self, peer: ProcessId) -> (u64, u64, Vec<(ProcessId, u64)>) {
        let highest = self.promises.highest_promise(peer);
        (self.clock, highest, self.promises.prefixes())
    }

    /// Absorbs one `MRejoinAck`: the clock bumps to `floor` (past the replier's clock and
    /// all this process was heard promising) and the replier's prefixes seed the tracker.
    /// Returns whether the clock moved.
    pub fn absorb_rejoin(&mut self, floor: u64, prefixes: Vec<(ProcessId, u64)>) -> bool {
        let moved = self.bump(floor);
        for (process, prefix) in prefixes {
            if prefix >= 1 {
                self.promises.add(process, PromiseRange::new(1, prefix));
            }
        }
        moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_kernel::rand::Rng;

    fn dot(seq: u64) -> Dot {
        Dot::new(1, seq)
    }

    fn alone() -> Stability {
        Stability::new(0, &[0, 1, 2], 1)
    }

    #[test]
    fn proposal_takes_max_of_min_and_clock() {
        let mut s = alone();
        // Coordinator proposal: clock 0 -> proposes 1.
        assert_eq!(s.propose(dot(1), 0), (1, None));
        assert_eq!(s.clock(), 1);
        // A proposal with a higher coordinator value jumps the clock.
        assert_eq!(s.propose(dot(2), 10), (10, Some(PromiseRange::new(2, 9))));
        assert_eq!(s.clock(), 10);
        // A proposal with a lower coordinator value still advances by one.
        assert_eq!(s.propose(dot(3), 2).0, 11);
    }

    #[test]
    fn table1_example_b_clock_6_to_7() {
        // Table 1: process B has Clock = 6 and receives the coordinator proposal 6;
        // it bumps from 6 to 7 and proposes 7.
        let mut s = alone();
        s.bump(6);
        s.discard_outgoing();
        // No detached promises: the clock moved by exactly one.
        assert_eq!(s.propose(dot(1), 6), (7, None));
        let (detached, attached, _) = s.take_outgoing(false).expect("an attachment is news");
        assert!(detached.is_empty());
        assert_eq!(attached, vec![(dot(1), 7)]);
    }

    #[test]
    fn table1_example_d_process_c_generates_detached_promises() {
        // Table 1 d): process C has Clock = 1 and receives proposal 6: it proposes 6 and
        // generates detached promises 2, 3, 4, 5 (§3.2 "Promise collection").
        let mut s = alone();
        s.bump(1);
        s.discard_outgoing();
        assert_eq!(s.propose(dot(9), 6), (6, Some(PromiseRange::new(2, 5))));
        let (detached, attached, _) = s.take_outgoing(false).expect("promises are news");
        assert_eq!(detached, vec![PromiseRange::new(2, 5)]);
        assert_eq!(attached, vec![(dot(9), 6)]);
    }

    #[test]
    fn bump_generates_detached_up_to_target() {
        let mut s = alone();
        s.propose(dot(1), 0);
        s.discard_outgoing();
        // Committing a command with timestamp 5 bumps the clock and promises 2..=5.
        assert!(s.bump(5));
        let (detached, _, _) = s.take_outgoing(false).expect("a bump is news");
        assert_eq!(detached, vec![PromiseRange::new(2, 5)]);
        // Bumping to a lower or equal value is a no-op.
        assert!(!s.bump(3));
        assert!(!s.has_unsent_detached());
        assert_eq!(s.clock(), 5);
    }

    #[test]
    fn has_unsent_detached_tracks_the_buffer() {
        let mut s = alone();
        assert!(!s.has_unsent_detached());
        s.propose(dot(1), 0);
        assert!(
            !s.has_unsent_detached(),
            "attached promises are not detached ones"
        );
        assert!(s.take_outgoing(false).is_some());
        assert!(s.take_outgoing(false).is_none(), "nothing new to say");
        s.bump(10);
        assert!(s.has_unsent_detached());
    }

    /// The reference the property test holds `Stability` to: one set of promised
    /// timestamps per process, attachments that count only once their command committed,
    /// and stability as the highest timestamp a majority's contiguous prefixes reach.
    struct Model {
        clock: u64,
        promised: Vec<BTreeSet<u64>>,
        gated: Vec<(Dot, ProcessId, u64)>,
        /// Committed (or collected) dots.
        committed: BTreeSet<Dot>,
        /// This process's attachments not yet forgotten.
        pinned: BTreeMap<Dot, u64>,
        /// Attachments that waited behind the gate and then counted.
        released: u64,
    }

    impl Model {
        fn promise(&mut self, process: ProcessId, from: u64, to: u64) {
            self.promised[process as usize].extend(from..=to);
        }

        fn attach(&mut self, dot: Dot, process: ProcessId, ts: u64) {
            if self.committed.contains(&dot) {
                self.promised[process as usize].insert(ts);
            } else {
                self.gated.push((dot, process, ts));
            }
        }

        fn commit(&mut self, dot: Dot) {
            self.committed.insert(dot);
            let (now, still): (Vec<_>, Vec<_>) = self.gated.drain(..).partition(|g| g.0 == dot);
            self.gated = still;
            for (_, process, ts) in now {
                self.promised[process as usize].insert(ts);
                self.released += 1;
            }
        }

        fn prefixes(&self) -> Vec<u64> {
            let prefix = |set: &BTreeSet<u64>| (1..).take_while(|ts| set.contains(ts)).count();
            self.promised.iter().map(|set| prefix(set) as u64).collect()
        }

        fn stable(&self) -> u64 {
            let mut prefixes = self.prefixes();
            prefixes.sort_unstable_by(|a, b| b.cmp(a));
            prefixes[prefixes.len() / 2]
        }
    }

    /// One seeded interleaving of every operation at process 0 of an `n`-process shard,
    /// checked against [`Model`] after each step. Returns the final stable timestamp and
    /// how many attachments the gate held and then released.
    fn interleaving(n: u64, seed: u64, restored: bool) -> (u64, u64) {
        let mut rng = Rng::new(seed);
        let peers: Vec<ProcessId> = (0..n).collect();
        let mut s = Stability::new(0, &peers, (n / 2) as usize);
        if restored {
            s.claim_nothing();
        }
        let mut m = Model {
            clock: 0,
            promised: vec![BTreeSet::new(); n as usize],
            gated: Vec::new(),
            committed: BTreeSet::new(),
            pinned: BTreeMap::new(),
            released: 0,
        };
        let mut dots: Vec<Dot> = Vec::new();
        let mut sent_frontier = 0;
        for step in 0..80 {
            // A known dot most of the time, a fresh one otherwise.
            let pick = |rng: &mut Rng, dots: &mut Vec<Dot>| {
                if dots.is_empty() || rng.gen_bool(0.3) {
                    dots.push(Dot::new(1 + rng.gen_range(n), step + 1));
                }
                *rng.choose(dots)
            };
            let peer = 1 + rng.gen_range(n - 1);
            let committed = m.committed.clone();
            let committed = |dot: Dot| committed.contains(&dot);
            match rng.gen_range(9) {
                0 => {
                    let dot = Dot::new(0, step + 1);
                    let min = m.clock.saturating_sub(2) + rng.gen_range(6);
                    let t = min.max(m.clock + 1);
                    let detached = (t > m.clock + 1).then(|| PromiseRange::new(m.clock + 1, t - 1));
                    assert_eq!(s.propose(dot, min), (t, detached));
                    m.promise(0, m.clock + 1, t - 1);
                    m.attach(dot, 0, t);
                    m.pinned.insert(dot, t);
                    m.clock = t;
                    dots.push(dot);
                }
                1 => {
                    let t = m.clock.saturating_sub(2) + rng.gen_range(6);
                    assert_eq!(s.bump(t), t > m.clock);
                    if t > m.clock {
                        m.promise(0, m.clock + 1, t);
                        m.clock = t;
                    }
                }
                2 => {
                    let frontier = rng.gen_range(m.clock + 3);
                    let start = 1 + rng.gen_range(m.clock + 5);
                    let detached = vec![PromiseRange::new(start, start + rng.gen_range(4))];
                    let attached: Vec<(Dot, u64)> = (0..rng.gen_range(3))
                        .map(|_| (pick(&mut rng, &mut dots), 1 + rng.gen_range(m.clock + 5)))
                        .collect();
                    m.promise(peer, 1, frontier);
                    m.promise(peer, detached[0].start, detached[0].end);
                    for &(dot, ts) in &attached {
                        m.attach(dot, peer, ts);
                    }
                    s.absorb(
                        Report::Promises(peer, frontier, detached, attached),
                        committed,
                    );
                }
                3 => {
                    let dot = pick(&mut rng, &mut dots);
                    let bundle = PromiseBundle {
                        attached: (0..rng.gen_range(n))
                            .map(|_| (rng.gen_range(n), 1 + rng.gen_range(m.clock + 5)))
                            .collect(),
                        detached: (0..rng.gen_range(2))
                            .map(|_| {
                                let start = 1 + rng.gen_range(m.clock + 5);
                                (rng.gen_range(n), PromiseRange::new(start, start + 2))
                            })
                            .collect(),
                    };
                    for &(process, range) in &bundle.detached {
                        m.promise(process, range.start, range.end);
                    }
                    for &(process, ts) in &bundle.attached {
                        m.attach(dot, process, ts);
                    }
                    s.absorb(Report::Bundle(dot, bundle), committed);
                }
                4 => {
                    let clock = rng.gen_range(m.clock + 6);
                    let mut stamps: Vec<u64> = (0..rng.gen_range(4))
                        .map(|_| 1 + rng.gen_range(clock + 3))
                        .collect();
                    stamps.sort_unstable();
                    stamps.dedup();
                    let pending: Vec<(u64, Dot)> = stamps
                        .into_iter()
                        .map(|ts| (ts, pick(&mut rng, &mut dots)))
                        .collect();
                    for ts in 1..=clock {
                        match pending.iter().find(|(p, _)| *p == ts) {
                            Some(&(_, dot)) => m.attach(dot, peer, ts),
                            None => m.promise(peer, ts, ts),
                        }
                    }
                    s.absorb(Report::Repair(peer, clock, pending), committed);
                }
                5 | 6 => {
                    let open: Vec<Dot> = dots
                        .iter()
                        .copied()
                        .filter(|d| !m.committed.contains(d))
                        .collect();
                    if let Some(&dot) = open.get(rng.gen_range(open.len() as u64 + 1) as usize) {
                        s.commit(dot);
                        m.commit(dot);
                    }
                }
                7 => {
                    // GC collects only what executed everywhere, hence committed here.
                    let done: Vec<Dot> = m.committed.iter().copied().collect();
                    if let Some(&dot) = done.get(rng.gen_range(done.len() as u64 + 1) as usize) {
                        s.forget(dot);
                        m.pinned.remove(&dot);
                    }
                }
                _ => {
                    if let Some((_, _, frontier)) = s.take_outgoing(rng.gen_bool(0.3)) {
                        assert!(frontier >= sent_frontier, "frontier regressed");
                        assert!(frontier <= m.clock);
                        assert!(
                            m.pinned.values().all(|ts| frontier < *ts),
                            "frontier {frontier} covers a pinned attachment {:?}",
                            m.pinned
                        );
                        assert!(!restored || frontier == 0, "a restored instance claimed");
                        sent_frontier = frontier;
                    }
                    match s.repair_report() {
                        Some((clock, pending)) => {
                            assert!(!restored);
                            assert_eq!(clock, m.clock);
                            let mut pinned: Vec<(u64, Dot)> =
                                m.pinned.iter().map(|(d, t)| (*t, *d)).collect();
                            pinned.sort_unstable();
                            assert_eq!(pending, pinned);
                        }
                        None => assert!(restored),
                    }
                }
            }
            assert_eq!(
                s.stable_timestamp(),
                m.stable(),
                "seed {seed}, step {step}: stable timestamp diverged from the model"
            );
            let (clock, highest, prefixes) = s.rejoin_report(peer);
            let highest_heard = m.promised[peer as usize].last().copied().unwrap_or(0);
            assert_eq!((clock, highest), (m.clock, highest_heard));
            let prefixes: Vec<u64> = prefixes.into_iter().map(|(_, prefix)| prefix).collect();
            assert_eq!(prefixes, m.prefixes(), "seed {seed}, step {step}");
            if step % 8 == 7 {
                // The whole state, not only what it is summarised into.
                for (p, promised) in (0..n).zip(&m.promised) {
                    for ts in 1..m.clock + 12 {
                        assert_eq!(s.promises.contains(p, ts), promised.contains(&ts));
                    }
                }
                let gated = |(dot, list): (&Dot, &Vec<(ProcessId, u64)>)| {
                    list.iter()
                        .map(|(p, ts)| (*dot, *p, *ts))
                        .collect::<Vec<_>>()
                };
                let gated: BTreeSet<_> = s.gated.iter().flat_map(gated).collect();
                assert_eq!(gated, m.gated.iter().copied().collect());
            }
        }
        (m.stable(), m.released)
    }

    /// Runs 300 interleavings (every tenth restored) and checks that they exercised
    /// both stability and the gate.
    fn interleavings(n: u64, first_seed: u64) {
        let (mut stable, mut released) = (0, 0);
        for seed in first_seed..first_seed + 300 {
            let (s, r) = interleaving(n, seed, seed % 10 == 9);
            stable += u64::from(s > 0);
            released += r;
        }
        assert!(stable > 200 && released > 300, "{stable} {released}");
    }

    #[test]
    fn stability_matches_a_naive_model_n3() {
        interleavings(3, 0);
    }

    #[test]
    fn stability_matches_a_naive_model_n5() {
        interleavings(5, 1_000);
    }
}
