//! Liveness and recovery (§5, Algorithm 4; Appendix B, Algorithm 6 lines 75-78):
//! [`Recovery`] owns the suspicion set and the shard leadership, the pending dots and
//! their per-dot attempts (probe and takeover pacing, recovery ballots and acks), the
//! promise-repair pacing and the rejoin handshake's quorum. `Tempo`'s liveness and
//! recovery handlers (below) act on its decisions and build the messages.

use crate::durable::Floor;
use crate::info::{CommandInfo, Phase};
use crate::messages::{Message, RecPhase};
use crate::protocol::Tempo;
use crate::stability::{Bucket, Buckets, Report};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use tempo_kernel::config::Config;
use tempo_kernel::id::{Dot, ProcessId};
use tempo_kernel::protocol::{Action, Executor};
use tempo_kernel::trace::ProcEvent;
use tempo_store::WalRecord;

/// The takeover timeout over `TempoOptions::commit_request_timeout_us` (the reason is
/// given there).
pub(crate) const RECOVERY_TIMEOUT_RATIO: u64 = 2;

/// One counted `MRecAck`: the replier's `(ts, phase, abal)`.
pub(crate) type RecAck = (u64, RecPhase, u64);

/// The liveness state of one dot, from its first probe or takeover until GC collects it.
#[derive(Debug, Default)]
struct Attempt {
    /// `MRecAck`s counted at `ballot`, by replier; execution clears them.
    acks: BTreeMap<ProcessId, RecAck>,
    /// The ballot `acks` answer.
    ballot: u64,
    /// Whether a full recovery quorum was acted on since the last takeover.
    done: bool,
    /// Whether this process ever took the dot over (`recoveries_completed` at commit).
    recovering: bool,
    /// Last probe (`MCommitRequest` + payload resend); 0 = never.
    last_probe_us: u64,
    /// Last takeover; 0 = never.
    last_recovery_us: u64,
}

/// The liveness and recovery state of one Tempo process.
#[derive(Debug, Default)]
pub(crate) struct Recovery {
    process: ProcessId,
    /// The shard's processes in identifier order: ranks and leadership.
    peers: Arc<[ProcessId]>,
    /// This process's rank within the shard, in `1..=n`.
    rank: u64,
    /// `Config::n`: the ballot stride.
    n: u64,
    /// `Config::recovery_quorum_size`.
    quorum: usize,
    /// `TempoOptions::commit_request_timeout_us`: the probe and repair pace.
    timeout_us: u64,
    /// Processes suspected to have failed (leadership, fast quorums, donors).
    suspected: BTreeSet<ProcessId>,
    /// Dots not yet committed at this process.
    pending: BTreeSet<Dot>,
    attempts: BTreeMap<Dot, Attempt>,
    last_exec_progress_us: u64,
    last_repair_request_us: u64,
    /// Shard peers that answered the current `MRejoin` handshake.
    rejoin_acks: BTreeSet<ProcessId>,
}

impl Recovery {
    /// Nothing pending, nobody suspected.
    pub(crate) fn new(
        process: ProcessId,
        peers: Arc<[ProcessId]>,
        config: Config,
        timeout_us: u64,
    ) -> Self {
        let rank = peers
            .iter()
            .position(|p| *p == process)
            .expect("process must belong to its shard");
        Self {
            process,
            peers,
            rank: rank as u64 + 1,
            n: config.n() as u64,
            quorum: config.recovery_quorum_size(),
            timeout_us,
            ..Self::default()
        }
    }

    pub(crate) fn suspected(&self) -> &BTreeSet<ProcessId> {
        &self.suspected
    }

    /// Whether this process is the lowest unsuspected process of its shard.
    pub(crate) fn is_leader(&self) -> bool {
        self.peers.iter().find(|p| !self.suspected.contains(p)) == Some(&self.process)
    }

    /// A ballot of this process above `current`: ballots are `rank + k·n`, so each
    /// belongs to one process (`next_ballot(0)` is the coordinator's slow-path ballot).
    pub(crate) fn next_ballot(&self, current: u64) -> u64 {
        if current == 0 {
            self.rank
        } else {
            self.rank + self.n * ((current - 1) / self.n + 1)
        }
    }

    /// `dot` is pending here: the payload is known, the timestamp not yet.
    pub(crate) fn pend(&mut self, dot: Dot) {
        self.pending.insert(dot);
    }

    /// `dot` committed here; returns whether this process had taken it over.
    pub(crate) fn committed(&mut self, dot: Dot) -> bool {
        self.pending.remove(&dot);
        self.attempts.get(&dot).is_some_and(|a| a.recovering)
    }

    /// `dot` executed here: its counted acks go.
    pub(crate) fn executed(&mut self, dot: Dot) {
        if let Some(attempt) = self.attempts.get_mut(&dot) {
            attempt.acks.clear();
        }
    }

    /// GC collected `dot`.
    pub(crate) fn forget(&mut self, dot: Dot) {
        self.pending.remove(&dot);
        self.attempts.remove(&dot);
    }

    /// The pending dots older than a timeout (`info`'s `since_us`), each with whether to
    /// probe it (ask the shard for the outcome, re-send the payload) and whether to take
    /// it over (`start_recovery`): a probe at most once per timeout; a takeover only at
    /// the leader, only with the payload, and at most once per recovery timeout — it
    /// *retries* until the dot commits, because under message loss a whole `MRec` round
    /// can vanish.
    pub(crate) fn scan(
        &mut self,
        info: &BTreeMap<Dot, CommandInfo>,
        now_us: u64,
    ) -> Vec<(Dot, bool, bool)> {
        let timeout = self.timeout_us;
        let retry = RECOVERY_TIMEOUT_RATIO * timeout;
        let leader = self.is_leader();
        let attempts = &mut self.attempts;
        let since = |last: u64| now_us.saturating_sub(last);
        self.pending
            .iter()
            .filter_map(|&dot| {
                let info = info.get(&dot)?;
                let age = since(info.since_us);
                if age < timeout {
                    return None;
                }
                let attempt = attempts.get(&dot);
                let probe = since(attempt.map_or(0, |a| a.last_probe_us)) >= timeout;
                let take_over = leader
                    && info.has_payload()
                    && age >= retry
                    && since(attempt.map_or(0, |a| a.last_recovery_us)) >= retry;
                if probe {
                    attempts.entry(dot).or_default().last_probe_us = now_us;
                }
                Some((dot, probe, take_over))
            })
            .collect()
    }

    /// Starts (or retries) a takeover of `dot`, whose joined ballot is `current`: the
    /// acks of the previous round go, and the new round's ballot is returned.
    pub(crate) fn start(&mut self, dot: Dot, current: u64, now_us: u64) -> u64 {
        debug_assert!(
            self.pending.contains(&dot),
            "recovery started for {dot:?}, which is not pending"
        );
        let attempt = self.attempts.entry(dot).or_default();
        attempt.acks.clear();
        attempt.done = false;
        attempt.recovering = true;
        attempt.last_recovery_us = now_us;
        self.next_ballot(current)
    }

    /// Counts `from`'s `MRecAck` at `ballot` when it is the `joined` ballot and the round
    /// is not done; the acks, once they first form a recovery quorum (Algorithm 4,
    /// line 86: `|Q| = r - f`).
    pub(crate) fn ack(
        &mut self,
        dot: Dot,
        from: ProcessId,
        ack: RecAck,
        ballot: u64,
        joined: u64,
    ) -> Option<&BTreeMap<ProcessId, RecAck>> {
        if joined != ballot {
            return None;
        }
        let attempt = self.attempts.entry(dot).or_default();
        if attempt.done {
            return None;
        }
        debug_assert!(
            self.peers.contains(&from),
            "{dot:?}: MRecAck from {from}, not a shard peer"
        );
        debug_assert!(
            attempt.acks.is_empty() || attempt.ballot == ballot,
            "{dot:?}: acks at ballot {} and {ballot} counted together",
            attempt.ballot
        );
        attempt.ballot = ballot;
        attempt.acks.insert(from, ack);
        if attempt.acks.len() < self.quorum {
            return None;
        }
        debug_assert!(
            ballot % self.n == self.rank % self.n,
            "{dot:?}: recovery at ballot {ballot}, not of rank {}",
            self.rank
        );
        attempt.done = true;
        Some(&attempt.acks)
    }

    /// The execution stage made progress.
    pub(crate) fn progress(&mut self, now_us: u64) {
        self.last_exec_progress_us = now_us;
    }

    /// Whether to ask the peers to re-state their promises (`MPromiseRequest`): commands
    /// are `unexecuted` and execution made no progress for a timeout, and no request
    /// went out within one. The probes cover the commit side of liveness; this covers
    /// stability — an `MPromises` delta lost to the network leaves a gap in this
    /// process's view of a peer's prefix that freezes a bucket's stable timestamp (the
    /// lossy-link nemesis found replicas frozen this way).
    pub(crate) fn repair_due(&mut self, unexecuted: bool, now_us: u64) -> bool {
        let since = |last: u64| now_us.saturating_sub(last);
        if !unexecuted
            || since(self.last_exec_progress_us) < self.timeout_us
            || since(self.last_repair_request_us) < self.timeout_us
        {
            return false;
        }
        self.last_repair_request_us = now_us;
        true
    }

    /// A new `MRejoin` handshake.
    pub(crate) fn rejoin(&mut self) {
        self.rejoin_acks.clear();
    }

    /// Counts `from`'s `MRejoinAck`: `None` for a peer already counted, otherwise
    /// whether this process and the repliers now form a recovery quorum.
    pub(crate) fn rejoin_ack(&mut self, from: ProcessId) -> Option<bool> {
        self.rejoin_acks
            .insert(from)
            .then(|| self.rejoin_acks.len() + 1 >= self.quorum)
    }
}

/// The timestamp a recovery proposes from a quorum of `acks` (Algorithm 4, lines
/// 86-96): the value accepted at the highest ballot, if any; otherwise the highest
/// proposal over every ack when the initial coordinator cannot have taken the fast path
/// (it replied, or a fast-quorum replier computed its proposal in `MRec`: `s` of line
/// 93), else over the repliers in `fast_quorum` only. Never below 1.
pub(crate) fn recovered_ts(
    acks: &BTreeMap<ProcessId, RecAck>,
    fast_quorum: &[ProcessId],
    initial: ProcessId,
) -> u64 {
    let accepted = acks.values().filter(|(_, _, abal)| *abal != 0);
    if let Some((ts, _, _)) = accepted.max_by_key(|(_, _, abal)| *abal) {
        return *ts;
    }
    let in_quorum = |p: &ProcessId| fast_quorum.contains(p);
    let coordinator_replied = in_quorum(&initial) && acks.contains_key(&initial);
    let safe_to_use_all = coordinator_replied
        || acks
            .iter()
            .any(|(p, (_, phase, _))| in_quorum(p) && *phase == RecPhase::RecoverR);
    acks.iter()
        .filter(|(p, _)| safe_to_use_all || in_quorum(p))
        .map(|(_, (ts, _, _))| *ts)
        .max()
        .unwrap_or(0)
        .max(1)
}

impl Tempo {
    /// Marks a process as suspected of having failed; the lowest non-suspected process of
    /// the shard acts as the recovery leader (a stand-in for the Ω failure detector of
    /// Appendix B), and new commands pick fast quorums avoiding suspected processes.
    pub fn suspect(&mut self, process: ProcessId) {
        self.recovery.suspected.insert(process);
    }

    /// Withdraws a suspicion (the process restarted and is participating again).
    pub fn unsuspect(&mut self, process: ProcessId) {
        self.recovery.suspected.remove(&process);
    }

    /// Whether this process is the current recovery leader of its shard.
    pub fn is_leader(&self) -> bool {
        self.recovery.is_leader()
    }

    /// Takes `dot` over as its coordinator, with a ballot above the joined one
    /// (Algorithm 4, line 75), unless it is no longer pending here.
    fn start_recovery(&mut self, dot: Dot, now_us: u64, out: &mut Vec<Action<Message>>) {
        let Some(info) = self.info.get(&dot) else {
            return;
        };
        if !info.phase.is_pending() {
            return;
        }
        let ballot = self.recovery.start(dot, info.bal, now_us);
        self.metrics.recoveries_started += 1;
        self.tracer
            .process_event(now_us, self.process, ProcEvent::RecoveryStarted);
        let rec = Message::MRec { dot, ballot };
        out.push(Action::send(self.shard_peers.to_vec(), rec));
    }

    /// Asks the shard for the outcome of `dot` (Algorithm 6, line 96).
    fn request_commit(&self, dot: Dot, out: &mut Vec<Action<Message>>) {
        let request = Message::MCommitRequest { dot };
        out.push(Action::send(self.shard_peers.to_vec(), request));
    }

    /// The liveness tick (`TIMER_LIVENESS`; Algorithm 6, lines 75-78
    /// and 95-96): acts on [`Recovery::scan`], probes the suspected commit holes, and
    /// asks for a promise repair when execution stalls ([`Recovery::repair_due`]).
    pub(crate) fn liveness_scan(&mut self, now_us: u64, out: &mut Vec<Action<Message>>) {
        for (dot, probe, take_over) in self.recovery.scan(&self.info, now_us) {
            let info = &self.info[&dot];
            if probe {
                self.request_commit(dot, out);
                // Re-send the payload so that every replica can take part in recovery
                // (Algorithm 6, line 77).
                if let Some(cmd) = &info.cmd {
                    let targets = self.view.all_replicas(cmd);
                    let (cmd, quorums) = (cmd.clone(), info.quorums.clone());
                    let payload = Message::MPayload { dot, cmd, quorums };
                    out.push(Action::send(targets, payload));
                }
            }
            if take_over {
                self.start_recovery(dot, now_us, out);
            }
        }
        for dot in self.transfer.probe_holes(&self.gc, &self.info, now_us) {
            self.request_commit(dot, out);
        }
        let unexecuted = self.metrics.committed > self.executor.executed() + self.exec_skipped;
        if self.recovery.repair_due(unexecuted, now_us) && !self.other_peers.is_empty() {
            let targets = self.other_peers.clone();
            out.push(Action::send(targets, Message::MPromiseRequest));
        }
    }

    pub(crate) fn handle_promise_request(
        &mut self,
        from: ProcessId,
        out: &mut Vec<Action<Message>>,
    ) {
        // A rejoining, restarted or restored incarnation sends no repair (see
        // `Stability::claim_nothing`); the requester's comes from the other peers.
        if !self.joined {
            return;
        }
        if let Some((clocks, pending)) = self.stability.repair_report() {
            let repair = Message::MPromiseRepair { clocks, pending };
            out.push(Action::send_one(from, repair));
        }
    }

    /// Absorbs a peer's complete promise state (`Report::Repair`). For a gated attachment
    /// the dot id is itself the cure: ask the sender for the outcome (`MCommitRequest`) —
    /// the command may have committed at a quorum that excludes this process, with its
    /// payload and commit both lost, and then nobody would ever retransmit it (the
    /// coordinator only re-sends payloads of commands still pending *there*).
    pub(crate) fn handle_promise_repair(
        &mut self,
        from: ProcessId,
        clocks: Vec<(Bucket, u64)>,
        pending: Vec<(Bucket, u64, Dot)>,
        now_us: u64,
        out: &mut Vec<Action<Message>>,
    ) {
        self.absorb(Report::Repair(from, clocks, pending), now_us, None, |dot| {
            out.push(Action::send_one(from, Message::MCommitRequest { dot }));
        });
        self.sync_stability(now_us, out);
    }

    pub(crate) fn handle_rec(
        &mut self,
        from: ProcessId,
        dot: Dot,
        ballot: u64,
        now_us: u64,
        out: &mut Vec<Action<Message>>,
    ) {
        // Algorithm 4, lines 76-85.
        if self.info_mut(dot, now_us).phase.is_committed_or_executed() {
            // Liveness: share the outcome with the would-be coordinator.
            self.handle_commit_request(from, dot, out);
            return;
        }
        if !self.joined {
            // A rejoining process may still share a commit it knows about, but must not
            // make recovery proposals (its clock floor is not yet re-established).
            return;
        }
        let info = self.info.get_mut(&dot).expect("info exists");
        if info.bal >= ballot {
            let nack = Message::MRecNAck {
                dot,
                ballot: info.bal,
            };
            out.push(Action::send_one(from, nack));
            return;
        }
        // Cannot participate without the payload (the phase would still be `start`).
        if !info.has_payload() {
            return;
        }
        if info.bal == 0 && info.phase == Phase::Propose {
            info.phase = Phase::RecoverP;
        }
        if info.bal == 0 && info.phase == Phase::Payload {
            let in_fast_quorum = info
                .quorums
                .get(&self.shard)
                .is_some_and(|q| q.contains(&self.process));
            if in_fast_quorum && self.stability.claims_nothing() {
                // A fast-quorum member's proposal made here, in `MRec`, tells the
                // recovery that the initial coordinator cannot have taken the fast path
                // (line 93) — but a restarted incarnation may have proposed for this
                // command, or even committed it as its coordinator, in the life it
                // forgot. It stays out: the other processes of a recovery quorum decide.
                // Outside the fast quorum its proposal proves nothing and counts only
                // once the fast path is ruled out, so it answers.
                return;
            }
            let cmd = info.cmd.as_ref().expect("checked above");
            let buckets = Buckets::of(cmd, self.shard);
            let (t, _) = self.stability.propose(dot, 0, &buckets);
            self.durable.cover(Floor::Clock, self.stability.clock());
            let info = self.info.get_mut(&dot).expect("info exists");
            info.ts = t;
            info.phase = Phase::RecoverR;
        }
        let info = self.info.get_mut(&dot).expect("info exists");
        info.bal = ballot;
        let phase = info.phase.rec_phase().unwrap_or(RecPhase::RecoverR);
        let (ts, abal) = (info.ts, info.abal);
        // Write-ahead: the joined ballot must survive a crash, or a recovered replica
        // could accept a value at a ballot it already promised away.
        self.durable.append(WalRecord::Ballot { dot, bal: ballot });
        let ack = Message::MRecAck {
            dot,
            ts,
            phase,
            abal,
            ballot,
        };
        out.push(Action::send_one(from, ack));
    }

    pub(crate) fn handle_rec_ack(
        &mut self,
        from: ProcessId,
        dot: Dot,
        ack: RecAck,
        ballot: u64,
        out: &mut Vec<Action<Message>>,
    ) {
        // Algorithm 4, lines 86-96 (pre: bal[id] = b, |Q| = r - f).
        let Some(info) = self.info.get_mut(&dot) else {
            return;
        };
        let Some(acks) = self.recovery.ack(dot, from, ack, ballot, info.bal) else {
            return;
        };
        info.consensus_acks.clear();
        let fast_quorum = info.quorums.get(&self.shard).map_or(&[][..], Vec::as_slice);
        let ts = recovered_ts(acks, fast_quorum, dot.initial_coordinator());
        let consensus = Message::MConsensus { dot, ts, ballot };
        out.push(Action::send(self.shard_peers.to_vec(), consensus));
    }

    pub(crate) fn handle_rec_nack(
        &mut self,
        dot: Dot,
        ballot: u64,
        now_us: u64,
        out: &mut Vec<Action<Message>>,
    ) {
        let Some(info) = self.info.get_mut(&dot) else {
            return;
        };
        if info.bal >= ballot {
            return;
        }
        info.bal = ballot;
        self.durable.append(WalRecord::Ballot { dot, bal: ballot });
        if self.recovery.is_leader() {
            self.start_recovery(dot, now_us, out);
        }
    }

    pub(crate) fn handle_commit_request(
        &mut self,
        from: ProcessId,
        dot: Dot,
        out: &mut Vec<Action<Message>>,
    ) {
        let Some(ts) = self.committed_timestamp(dot) else {
            return;
        };
        if let Some(cmd) = self.info[&dot].cmd.clone() {
            out.push(Action::send_one(
                from,
                Message::MCommitInfo { dot, cmd, ts },
            ));
        }
    }

    // ---------------------------------------------------------------- rejoin

    /// Broadcasts `MRejoin` to the shard peers (initially from `Protocol::rejoin`,
    /// re-sent from the liveness timer while the handshake is incomplete so that message
    /// loss cannot leave the process unjoined forever).
    pub(crate) fn send_rejoin(&mut self, out: &mut Vec<Action<Message>>) {
        if !self.other_peers.is_empty() {
            out.push(Action::send(self.other_peers.clone(), Message::MRejoin));
        }
    }

    pub(crate) fn handle_rejoin(&mut self, from: ProcessId, out: &mut Vec<Action<Message>>) {
        if !self.joined {
            // A process that is itself mid-rejoin has nothing trustworthy to report.
            return;
        }
        let (clock, your_highest, prefixes) = self.stability.rejoin_report(from);
        let ack = Message::MRejoinAck {
            clock,
            your_highest,
            prefixes,
        };
        out.push(Action::send_one(from, ack));
    }

    pub(crate) fn handle_rejoin_ack(
        &mut self,
        from: ProcessId,
        clock: u64,
        your_highest: u64,
        prefixes: Vec<(Bucket, ProcessId, u64)>,
        now_us: u64,
        out: &mut Vec<Action<Message>>,
    ) {
        if self.joined {
            return;
        }
        let Some(quorum) = self.recovery.rejoin_ack(from) else {
            return;
        };
        // Clock floor, for every bucket: never propose at or below (a) any timestamp a
        // previous incarnation of this process used (as recorded by the peer) or (b) the
        // peer's own highest clock. Over a recovery quorum of replies, (b) guarantees new
        // proposals land above any stable timestamp derivable when the handshake
        // completes — see DESIGN.md §5. The peer's contiguous prefixes seed the promise
        // tracks so stability detection works again at this process (a prefix report is
        // a promise witness).
        if self
            .stability
            .absorb_rejoin(clock.max(your_highest), prefixes)
        {
            self.durable.cover(Floor::Clock, self.stability.clock());
        }
        // This process plus the repliers form a recovery quorum: safe to participate.
        if quorum {
            // Discard every promise buffered during the handshake (the floor bumps
            // above, plus any pre-join clock movement): broadcasting them would claim
            // the previous incarnation's range, which may contain attached proposals
            // still gated at the peers (DESIGN.md §5). The ranges stay registered in
            // the *local* tracker — this incarnation's own stability view — where the
            // exec-floor skip in `commit_with` already accounts for them.
            self.stability.discard_outgoing();
            self.joined = true;
            if self.transfer.is_awaiting() {
                // Back-fill the applied state from a peer before serving anything.
                self.request_state(now_us, out);
            } else {
                self.sync_stability(now_us, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::Quorums;
    use crate::messages::RecPhase::{RecoverP as P, RecoverR as R};
    use tempo_kernel::command::{Command, KVOp};
    use tempo_kernel::id::Rifl;

    const T: u64 = 1_000;

    fn recovery(process: ProcessId, config: Config) -> Recovery {
        let peers: Arc<[ProcessId]> = (0..config.n() as u64).collect();
        Recovery::new(process, peers, config, T)
    }

    fn acks(list: &[(ProcessId, RecAck)]) -> BTreeMap<ProcessId, RecAck> {
        list.iter().copied().collect()
    }

    #[test]
    fn the_highest_accepted_value_wins() {
        let acks = acks(&[
            (0, (5, P, 0)),
            (1, (7, P, 3)),
            (2, (4, R, 6)),
            (3, (9, R, 2)),
        ]);
        assert_eq!(recovered_ts(&acks, &[0, 1], 0), 4);
    }

    #[test]
    fn without_an_accepted_value_the_fast_quorum_rule_picks_the_proposals() {
        let fq = [0, 1, 2];
        // The initial coordinator replied: it cannot have taken the fast path.
        let coordinator = acks(&[(0, (3, P, 0)), (1, (4, P, 0)), (3, (9, P, 0))]);
        assert_eq!(recovered_ts(&coordinator, &fq, 0), 9);
        // A fast-quorum replier computed its proposal in `MRec`: likewise.
        let late = acks(&[(1, (4, R, 0)), (2, (5, P, 0)), (3, (9, P, 0))]);
        assert_eq!(recovered_ts(&late, &fq, 0), 9);
        // A `RecoverR` outside the fast quorum proves nothing: the intersection decides.
        let outside = acks(&[(1, (4, P, 0)), (2, (5, P, 0)), (3, (9, R, 0))]);
        assert_eq!(recovered_ts(&outside, &fq, 0), 5);
        // Nothing in the intersection, or only zeros: never below 1.
        assert_eq!(recovered_ts(&outside, &[4], 0), 1);
        assert_eq!(recovered_ts(&acks(&[(1, (0, P, 0))]), &fq, 0), 1);
    }

    #[test]
    fn ballots_climb_and_keep_the_rank() {
        for n in [3, 5] {
            let config = Config::full(n, 1);
            for process in 0..n as u64 {
                let r = recovery(process, config);
                assert_eq!(r.next_ballot(0), process + 1, "the coordinator's ballot");
                for current in 0..40 {
                    let b = r.next_ballot(current);
                    assert!(b > current, "{b} above {current}");
                    assert_eq!(b % n as u64, (process + 1) % n as u64, "rank of {b}");
                }
            }
        }
    }

    #[test]
    fn probes_and_takeovers_are_paced_per_dot_and_only_the_leader_takes_over() {
        let (a, b) = (Dot::new(1, 1), Dot::new(1, 2));
        let cmd = Command::single(Rifl::new(1, 1), 0, 7, KVOp::Get, 0);
        let mut with_payload = CommandInfo::new(0);
        with_payload.learn_payload(&cmd, &Quorums::new());
        let info = BTreeMap::from([(a, with_payload), (b, CommandInfo::new(T))]);
        let stale = |dot, probe, take_over| (dot, probe, take_over);
        let mut r = recovery(0, Config::full(3, 1));
        r.pend(a);
        r.pend(b);
        assert!(r.is_leader());
        assert_eq!(r.scan(&info, T - 1), []);
        assert_eq!(r.scan(&info, T), [stale(a, true, false)]);
        assert_eq!(r.scan(&info, 2 * T - 1), [stale(a, false, false)]);
        // Old enough for a takeover; `b` has no payload to recover with.
        assert_eq!(
            r.scan(&info, 2 * T),
            [stale(a, true, true), stale(b, true, false)]
        );
        assert_eq!(r.start(a, 0, 2 * T), 1);
        assert_eq!(
            r.scan(&info, 3 * T),
            [stale(a, true, false), stale(b, true, false)]
        );
        assert_eq!(
            r.scan(&info, 4 * T),
            [stale(a, true, true), stale(b, true, false)]
        );
        assert_eq!(r.start(a, 1, 4 * T), 4);
        // A suspected leader hands the takeover on.
        let mut follower = recovery(1, Config::full(3, 1));
        follower.pend(a);
        assert!(!follower.is_leader());
        assert_eq!(follower.scan(&info, 2 * T), [stale(a, true, false)]);
        follower.suspected.insert(0);
        assert!(follower.is_leader());
        assert_eq!(follower.scan(&info, 4 * T), [stale(a, true, true)]);
        // Committed dots leave the scan, reporting whether they were taken over.
        assert!(r.committed(a));
        assert!(!r.committed(b));
        assert_eq!(r.scan(&info, 8 * T), []);
    }

    #[test]
    fn a_round_counts_each_peer_once_at_the_joined_ballot() {
        let dot = Dot::new(1, 1);
        let mut r = recovery(0, Config::full(5, 2));
        r.pend(dot);
        let ballot = r.start(dot, 0, 0);
        let ack = (4, P, 0);
        assert!(
            r.ack(dot, 1, ack, ballot, ballot + 5).is_none(),
            "not joined"
        );
        assert!(r.ack(dot, 1, ack, ballot, ballot).is_none());
        assert!(r.ack(dot, 1, ack, ballot, ballot).is_none(), "counted once");
        assert!(r.ack(dot, 2, ack, ballot, ballot).is_none());
        assert_eq!(r.ack(dot, 3, ack, ballot, ballot).map(|a| a.len()), Some(3));
        assert!(
            r.ack(dot, 4, ack, ballot, ballot).is_none(),
            "the round is done"
        );
        // Execution clears the acks; a retry reopens the round at a higher ballot.
        r.executed(dot);
        let retry = r.start(dot, ballot, T);
        assert_eq!(retry, 6);
        assert!(r.ack(dot, 1, ack, retry, retry).is_none());
        r.forget(dot);
        assert!(!r.committed(dot), "GC forgot the takeover");
    }

    #[test]
    fn repairs_wait_for_a_stall_and_are_paced() {
        let mut r = recovery(0, Config::full(3, 1));
        assert!(!r.repair_due(false, 10 * T), "nothing unexecuted");
        r.progress(T);
        assert!(!r.repair_due(true, 2 * T - 1));
        assert!(r.repair_due(true, 2 * T));
        assert!(!r.repair_due(true, 3 * T - 1), "one request per timeout");
        r.progress(3 * T);
        assert!(!r.repair_due(true, 4 * T - 1), "execution progressed");
        assert!(r.repair_due(true, 4 * T));
    }

    #[test]
    fn the_rejoin_quorum_counts_each_peer_once() {
        let mut r = recovery(0, Config::full(5, 2));
        r.rejoin();
        assert_eq!(r.rejoin_ack(1), Some(false));
        assert_eq!(r.rejoin_ack(1), None);
        assert_eq!(r.rejoin_ack(2), Some(true), "two peers and this process");
        r.rejoin();
        assert_eq!(r.rejoin_ack(2), Some(false), "a new handshake starts over");
    }
}
