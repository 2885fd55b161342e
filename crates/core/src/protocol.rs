//! The Tempo protocol state machine (Algorithms 1-6 of the paper).
//!
//! One [`Tempo`] instance runs per process, i.e. per (site, shard) pair. The instance
//! implements:
//!
//! * the **commit protocol** (§3.1): fast path when the highest timestamp proposal is made
//!   by at least `f` fast-quorum processes, slow path through single-decree Flexible Paxos
//!   otherwise;
//! * the **execution protocol** (§3.2): promises, background stability detection
//!   (Theorem 1) and execution in `⟨timestamp, id⟩` order;
//! * the **multi-partition protocol** (§4): per-shard coordinators, final timestamp as the
//!   maximum over shards, `MBump` for faster stability and the `MStable` exchange;
//! * the **recovery protocol** (§5 / Algorithm 4) and the liveness mechanisms of
//!   Appendix B (`MRecNAck`, `MCommitRequest`, periodic payload resend), in `recovery.rs`.
//!
//! This file keeps the ordering path, the execution feed, GC, the promise broadcast and
//! the [`Protocol`] impl. `Tempo` composes [`Stability`], `Durable` (WAL, floors,
//! snapshots), `Transfer` (state transfer, execution gate) and `Recovery` (suspicion,
//! pending dots, takeovers, repair pacing, the rejoin quorum).
//!
//! Handlers never call one another. Algorithm 1 sends to the sending process freely
//! (`MSubmit`, `MPropose`, `MProposeAck`, `MCommit` all reach the coordinator itself);
//! here that is an ordinary [`Action::Send`] whose targets include this process, and the
//! kernel's `Driver` hands the copy back through [`Protocol::handle`] once the handler
//! that emitted it has returned — so a handler's view of `self` is never changed under
//! it by another handler.

use crate::durable::{Durable, Floor};
use crate::executor::{ExecutionInfo, TempoExecutor};
use crate::gc::GcTracker;
use crate::info::{CommandInfo, Phase};
use crate::messages::{Message, PromiseBundle, Quorums};
use crate::promises::PromiseRange;
use crate::recovery::Recovery;
use crate::stability::{bucket_of, Bucket, Buckets, Gating, Report, Stability};
use crate::transfer::Transfer;
use std::collections::BTreeMap;
use std::sync::Arc;
use tempo_kernel::command::{Command, Key};
use tempo_kernel::config::Config;
use tempo_kernel::id::{Dot, DotGen, ProcessId, ShardId};
use tempo_kernel::membership::Membership;
use tempo_kernel::protocol::{
    Action, Executed, Executor, Protocol, ProtocolMetrics, TimerId, View,
};
use tempo_kernel::trace::{CmdPhase, ProcEvent, Tracer};
use tempo_kernel::util::max_and_count;
use tempo_store::WalRecord;

/// Timer driving the periodic `MPromises` broadcast (Algorithm 2, line 45), registered
/// by the protocol itself via [`Action::Schedule`].
const TIMER_PROMISES: TimerId = TimerId(1);
/// Timer driving the liveness scan: payload resend, `MCommitRequest` and recovery
/// take-over for commands pending too long (Appendix B).
const TIMER_LIVENESS: TimerId = TimerId(2);
/// One-shot timer behind the burst-edge `MPromises` flush (see `Tempo::arm_flush`).
const TIMER_FLUSH: TimerId = TimerId(3);

/// Interval of the periodic `MPromises` broadcast, in microseconds. Fresh detached
/// promises do not wait for it (they leave with the flush below); the tick is the healing
/// cadence — safe frontier, executed watermarks for GC, snapshots, and whatever promise a
/// lost message left behind.
const PROMISE_INTERVAL_US: u64 = 5_000;
/// Delay of the one-shot flush, in microseconds: the shortest a driver allows, i.e. "once
/// the scheduler next looks at timers" — between bursts in `tempo-runtime`, after the
/// current step in `tempo-sim`. Detached promises are on the critical path of stability
/// (a peer's prefix has a hole until they arrive), so they leave with the burst that made
/// them instead of up to `PROMISE_INTERVAL_US` later.
const FLUSH_DELAY_US: u64 = 1;
/// Interval of the liveness scan over pending commands, in microseconds.
const LIVENESS_INTERVAL_US: u64 = 5_000;

/// Tunable options of the Tempo implementation. The defaults are the configuration
/// evaluated in the paper. `MBump` (§4, "Faster stability") and promise piggybacking on
/// `MProposeAck`/`MCommit` (§3.2) are always on.
#[derive(Debug, Clone, Copy)]
pub struct TempoOptions {
    /// How long a command may stay pending before this process probes for it — asks the
    /// shard for the commit outcome (`MCommitRequest`) and re-sends the payload — and the
    /// pace of those probes, of promise repairs, state-transfer retries and commit-hole
    /// probes, in microseconds. The shard leader takes a command over (`MRec`) once it is
    /// pending for twice this, and retries at that pace until it commits: the probe is
    /// tried before the takeover, and a retry (which bumps the ballot and discards the
    /// acks of the previous round) must be slower than an `MRec` round trip or it would
    /// discard every reply. `driver_conformance` and the chaos batteries of
    /// `crates/runtime/tests` shorten it.
    pub commit_request_timeout_us: u64,
    /// Install a durable snapshot (truncating the WAL) once this many records were
    /// appended since the previous one; the durability and chaos batteries lower it.
    pub snapshot_every_appends: u64,
}

impl Default for TempoOptions {
    fn default() -> Self {
        Self {
            commit_request_timeout_us: 1_000_000,
            snapshot_every_appends: 256,
        }
    }
}

/// The Tempo protocol instance at one process.
#[derive(Debug)]
pub struct Tempo {
    // The fields `durable.rs`, `transfer.rs` and `recovery.rs` touch are `pub(crate)`.
    pub(crate) process: ProcessId,
    pub(crate) shard: ShardId,
    config: Config,
    pub(crate) view: View,
    membership: Membership,
    /// Processes of this shard, in identifier order (defines ballot ranks). Shared so
    /// that shard-wide sends cost a reference bump, not a `Vec` clone per call.
    pub(crate) shard_peers: Arc<[ProcessId]>,
    /// `shard_peers` other than this process: the targets of shard-wide reports.
    pub(crate) other_peers: Vec<ProcessId>,
    pub(crate) dot_gen: DotGen,
    /// The clocks, the promises and the line-47 commit gate, per bucket.
    pub(crate) stability: Stability,
    pub(crate) info: BTreeMap<Dot, CommandInfo>,
    /// The execution stage: stability-ordered execution (Algorithm 2/3).
    pub(crate) executor: TempoExecutor,
    /// Committed-command GC: executed watermarks of this process and its shard peers.
    pub(crate) gc: GcTracker,
    /// The WAL, its floors and snapshots; inert without a store.
    pub(crate) durable: Durable,
    /// The state transfer and its execution gate.
    pub(crate) transfer: Transfer,
    /// Suspicion, the pending dots, takeovers, repair pacing and the rejoin quorum.
    pub(crate) recovery: Recovery,
    /// The buckets whose stable timestamp rose, on their way to the executor (see
    /// [`Self::sync_stability`]), and the executor's output on its way out (see
    /// [`Self::exec_absorb`]): empty between steps, fields only so that their
    /// allocations are reused.
    risen: Vec<(Bucket, u64)>,
    pub(crate) executed: Vec<Executed>,
    drained: (Vec<Dot>, Vec<Dot>),
    /// Whether a `TIMER_FLUSH` firing is outstanding (a driver queues one firing per
    /// `Schedule`, so a burst of bumps must arm it once).
    flush_armed: bool,
    /// Commands committed but never applied by the execution stage: duplicates of
    /// state an installed image already holds, and gaps below local stability that an
    /// image must close (only at restarted incarnations; see `commit_with`).
    pub(crate) exec_skipped: u64,
    pub(crate) metrics: ProtocolMetrics,
    /// Whether this instance is a full participant. `false` only between a restart (see
    /// [`Protocol::rejoin`]) and the completion of the `MRejoin` handshake: until then
    /// the process makes no timestamp proposals, because its clock restarted at zero and
    /// a proposal below a previous incarnation's promises would break Theorem 1.
    pub(crate) joined: bool,
    /// Lifecycle tracing handle (disabled by default; see [`Protocol::attach_tracer`]).
    pub(crate) tracer: Tracer,
}

impl Tempo {
    /// Creates a Tempo instance with non-default options.
    pub fn with_options(
        process: ProcessId,
        shard: ShardId,
        config: Config,
        options: TempoOptions,
    ) -> Self {
        let membership = Membership::from_config(&config);
        debug_assert_eq!(membership.shard_of(process), shard);
        let shard_peers: Arc<[ProcessId]> = membership.processes_of_shard(shard).into();
        let stability = Stability::new(process, &shard_peers, config.stability_index());
        let gc = GcTracker::new(process, &shard_peers);
        let view = View::trivial(config, process);
        let timeout_us = options.commit_request_timeout_us;
        Self {
            process,
            shard,
            config,
            view,
            membership,
            other_peers: shard_peers
                .iter()
                .copied()
                .filter(|p| *p != process)
                .collect(),
            recovery: Recovery::new(process, shard_peers.clone(), config, timeout_us),
            shard_peers,
            dot_gen: DotGen::new(process),
            stability,
            info: BTreeMap::new(),
            executor: TempoExecutor::new(process, shard, config),
            gc,
            durable: Durable::new(options.snapshot_every_appends),
            transfer: Transfer::new(timeout_us),
            risen: Vec::new(),
            executed: Vec::new(),
            drained: (Vec::new(), Vec::new()),
            flush_armed: false,
            exec_skipped: 0,
            metrics: ProtocolMetrics::default(),
            joined: true,
            tracer: Tracer::disabled(),
        }
    }

    /// The highest clock over the buckets (exposed for tests and diagnostics).
    pub fn clock_value(&self) -> u64 {
        self.stability.clock()
    }

    /// The highest stable timestamp of `key`'s bucket at this process (Theorem 1).
    pub fn stable_timestamp(&self, key: Key) -> u64 {
        self.stability.stable_timestamp(bucket_of(key))
    }

    /// The phase of a command at this process, if known.
    pub fn phase_of(&self, dot: Dot) -> Option<Phase> {
        self.info.get(&dot).map(|i| i.phase)
    }

    /// Number of commands with live metadata at this process. Bounded in steady state:
    /// the executed-watermark GC drops entries once every shard peer executed them.
    pub fn info_len(&self) -> usize {
        self.info.len()
    }

    /// Read access to the committed-command GC state (tests and diagnostics).
    pub fn gc_tracker(&self) -> &GcTracker {
        &self.gc
    }

    /// The consensus state `(ts, bal, abal)` of a command at this process, if any
    /// (diagnostics and durability tests: this is exactly what `Ballot`/`Accept` WAL
    /// records must bring back after a crash).
    pub fn consensus_state(&self, dot: Dot) -> Option<(u64, u64, u64)> {
        self.info.get(&dot).map(|i| (i.ts, i.bal, i.abal))
    }

    /// Whether this instance is still waiting for a rejoin state transfer to install
    /// (execution is gated while true; see DESIGN.md §6).
    pub fn is_awaiting_state(&self) -> bool {
        self.transfer.is_awaiting()
    }

    /// Commands committed at this process but never applied by the local executor:
    /// duplicates an installed image covers, plus gaps (commits that landed below local
    /// stability) for a state transfer to close.
    pub fn exec_skipped(&self) -> u64 {
        self.exec_skipped
    }

    /// The committed (final) timestamp of a command at this process, if committed.
    pub fn committed_timestamp(&self, dot: Dot) -> Option<u64> {
        let info = self.info.get(&dot);
        info.filter(|i| i.phase.is_committed_or_executed())
            .map(|i| i.final_ts)
    }

    /// Whether this instance is a full participant (always true unless it restarted and
    /// its `MRejoin` handshake has not completed yet).
    pub fn is_joined(&self) -> bool {
        self.joined
    }

    // ---------------------------------------------------------------- helpers

    pub(crate) fn info_mut(&mut self, dot: Dot, now_us: u64) -> &mut CommandInfo {
        info_entry(&mut self.info, dot, now_us)
    }

    /// Bumps the clocks of `buckets` to `t` (see [`Stability::bump`]), keeping the durable
    /// clock floor ahead.
    pub(crate) fn clock_bump(&mut self, buckets: &[Bucket], t: u64) {
        if self.stability.bump(buckets, t) {
            self.durable.cover(Floor::Clock, self.stability.clock());
        }
    }

    /// Feeds a peer's promises through the commit gate ([`Stability::absorb`]). A
    /// committed dot's attachments count in its buckets, and so do those of `committing`,
    /// which commits in this very handler; a collected dot's are dropped (gating would
    /// resurrect its `CommandInfo` as a zombie); any other uncommitted dot gets a
    /// `CommandInfo`, and `gated` hears of it.
    pub(crate) fn absorb(
        &mut self,
        report: Report,
        now_us: u64,
        committing: Option<Dot>,
        mut gated: impl FnMut(Dot),
    ) {
        let (info, gc, shard) = (&mut self.info, &self.gc, self.shard);
        self.stability.absorb(report, |dot| {
            if gc.is_collected(dot) {
                return Gating::Collected;
            }
            let info = info_entry(info, dot, now_us);
            if info.phase.is_committed_or_executed() || committing == Some(dot) {
                let cmd = info
                    .cmd
                    .as_ref()
                    .expect("committed commands have a payload");
                return Gating::Counts(Buckets::of(cmd, shard));
            }
            gated(dot);
            Gating::Waits
        });
    }

    /// A fast quorum of `size` processes of `shard` made of the closest replicas that are
    /// not suspected of having failed; suspected replicas fill remaining slots (in
    /// distance order) only when too few are left — a quorum must always be formed, and
    /// a wrong suspicion merely costs latency, never safety.
    fn alive_fast_quorum(&self, shard: ShardId, size: usize) -> Vec<ProcessId> {
        let closest = self.view.closest(shard);
        let mut quorum: Vec<ProcessId> = closest
            .iter()
            .copied()
            .filter(|p| !self.recovery.suspected().contains(p))
            .take(size)
            .collect();
        if quorum.len() < size {
            for p in closest {
                if quorum.len() == size {
                    break;
                }
                if !quorum.contains(p) {
                    quorum.push(*p);
                }
            }
        }
        assert!(
            quorum.len() == size,
            "shard {shard} cannot form a fast quorum"
        );
        quorum
    }

    /// The per-shard coordinators for a submission (`I^i_c`), preferring non-suspected
    /// replicas: the closest live replica of every accessed shard.
    fn alive_coordinators(&self, cmd: &Command) -> Vec<ProcessId> {
        cmd.shards()
            .map(|shard| {
                self.view
                    .closest(shard)
                    .iter()
                    .copied()
                    .find(|p| !self.recovery.suspected().contains(p))
                    .unwrap_or_else(|| self.view.closest_process(shard))
            })
            .collect()
    }

    // ------------------------------------------------------------ commit path

    fn handle_submit(
        &mut self,
        dot: Dot,
        cmd: Command,
        quorums: Quorums,
        now_us: u64,
        out: &mut Vec<Action<Message>>,
    ) {
        // Algorithm 1, lines 5-8: this process acts as the coordinator of `cmd` at its own
        // shard. The proposal is Clock + 1; the clock itself is bumped when this process
        // handles its own MPropose (it belongs to the fast quorum).
        debug_assert!(cmd.accesses(self.shard));
        let t = self.stability.clock_over(&Buckets::of(&cmd, self.shard)) + 1;
        let fast_quorum = quorums
            .get(&self.shard)
            .cloned()
            .expect("quorums must cover the coordinator's shard");
        let shard_processes = self.membership.processes_of_shard(self.shard);
        let payload_targets: Vec<ProcessId> = shard_processes
            .into_iter()
            .filter(|p| !fast_quorum.contains(p))
            .collect();
        let rifl = cmd.rifl;
        let propose = Message::MPropose {
            dot,
            cmd: cmd.clone(),
            quorums: quorums.clone(),
            ts: t,
        };
        out.push(Action::send(fast_quorum, propose));
        self.tracer
            .phase(now_us, self.process, rifl, CmdPhase::Proposed);
        if !payload_targets.is_empty() {
            let payload = Message::MPayload { dot, cmd, quorums };
            out.push(Action::send(payload_targets, payload));
        }
    }

    fn handle_payload(
        &mut self,
        dot: Dot,
        cmd: Command,
        quorums: Quorums,
        now_us: u64,
        out: &mut Vec<Action<Message>>,
    ) {
        self.tracer
            .phase(now_us, self.process, cmd.rifl, CmdPhase::PayloadDelivered);
        let info = self.info_mut(dot, now_us);
        info.learn_payload(&cmd, &quorums);
        if info.phase == Phase::Start {
            info.phase = Phase::Payload;
            self.recovery.pend(dot);
        }
        // A commit may have been waiting for the payload (multi-shard races).
        self.try_complete_commit(dot, now_us, out);
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_propose(
        &mut self,
        from: ProcessId,
        dot: Dot,
        cmd: Command,
        quorums: Quorums,
        ts: u64,
        now_us: u64,
        out: &mut Vec<Action<Message>>,
    ) {
        // Algorithm 1, lines 12-16 (pre: id ∈ start).
        self.tracer
            .phase(now_us, self.process, cmd.rifl, CmdPhase::PayloadDelivered);
        {
            let info = self.info_mut(dot, now_us);
            let late = info.phase != Phase::Start;
            info.learn_payload(&cmd, &quorums);
            if late {
                // Either recovery already reached this process or a commit arrived first;
                // in both cases we must not produce a proposal anymore.
                self.try_complete_commit(dot, now_us, out);
                return;
            }
        }
        if !self.joined {
            // A restarted process must not propose until the rejoin handshake recovered
            // its clock floor: a proposal below a previous incarnation's promises would
            // violate Theorem 1. Keep the payload so recovery can involve this process
            // later; the coordinator's quorum stays incomplete and the command commits
            // through the liveness/recovery path instead.
            self.info_mut(dot, now_us).phase = Phase::Payload;
            self.recovery.pend(dot);
            self.try_complete_commit(dot, now_us, out);
            return;
        }
        self.info_mut(dot, now_us).phase = Phase::Propose;
        self.recovery.pend(dot);
        let buckets = Buckets::of(&cmd, self.shard);
        let (proposal, detached) = self.stability.propose(dot, ts, &buckets);
        self.durable.cover(Floor::Clock, self.stability.clock());
        self.info_mut(dot, now_us).ts = proposal;
        let ack = Message::MProposeAck {
            dot,
            ts: proposal,
            detached,
        };
        out.push(Action::send_one(from, ack));
        // §4, "Faster stability": tell colocated sibling-shard processes to bump the
        // clocks of the command's buckets on their shard to this proposal.
        if cmd.is_multi_shard() {
            for sibling in self.view.local_coordinators(&cmd) {
                let shard = self.membership.shard_of(sibling);
                if shard != self.shard {
                    let buckets = Buckets::of(&cmd, shard).to_vec();
                    let bump = Message::MBump {
                        dot,
                        ts: proposal,
                        buckets,
                    };
                    out.push(Action::send_one(sibling, bump));
                }
            }
        }
        // A commit may have been waiting for the payload (multi-shard or slow-path races).
        self.try_complete_commit(dot, now_us, out);
    }

    fn handle_propose_ack(
        &mut self,
        from: ProcessId,
        dot: Dot,
        ts: u64,
        detached: Vec<(Bucket, PromiseRange)>,
        out: &mut Vec<Action<Message>>,
    ) {
        // Algorithm 1, lines 17-21 (pre: id ∈ propose and a reply from the full quorum).
        let f = self.config.f();
        let shard = self.shard;
        let (ready, fast_quorum) = {
            let info = match self.info.get_mut(&dot) {
                Some(info) => info,
                None => return,
            };
            if info.phase != Phase::Propose || info.commit_sent {
                return;
            }
            info.proposals.insert(from, ts);
            for (bucket, range) in detached {
                info.proposal_detached.push((from, bucket, range));
            }
            let quorum = info.quorums.get(&shard).cloned().unwrap_or_default();
            let ready = !quorum.is_empty() && quorum.iter().all(|q| info.proposals.contains_key(q));
            (ready, quorum)
        };
        if !ready {
            return;
        }
        // All fast-quorum processes replied: compute the timestamp and pick a path.
        let (cmd, attached, proposal_detached, my_ballot) = {
            let info = self.info.get(&dot).expect("info exists");
            let attached: Vec<(ProcessId, u64)> = fast_quorum
                .iter()
                .map(|q| (*q, *info.proposals.get(q).expect("proposal present")))
                .collect();
            (
                info.cmd.clone().expect("coordinator knows the payload"),
                attached,
                info.proposal_detached.clone(),
                self.recovery.next_ballot(0),
            )
        };
        let proposals = attached.iter().map(|(_, ts)| *ts);
        let (t, count) = max_and_count(proposals).expect("quorum not empty");
        if count >= f {
            self.metrics.fast_paths += 1;
            {
                let info = self.info.get_mut(&dot).expect("info exists");
                info.commit_sent = true;
            }
            let commit = Message::MCommit {
                dot,
                shard,
                ts: t,
                promises: PromiseBundle {
                    attached,
                    detached: proposal_detached,
                },
            };
            out.push(Action::send(self.view.all_replicas(&cmd), commit));
        } else {
            self.metrics.slow_paths += 1;
            {
                let info = self.info.get_mut(&dot).expect("info exists");
                info.ts = t;
                info.consensus_acks.clear();
            }
            let consensus = Message::MConsensus {
                dot,
                ts: t,
                ballot: my_ballot,
            };
            out.push(Action::send(self.shard_peers.to_vec(), consensus));
        }
    }

    fn handle_commit(
        &mut self,
        dot: Dot,
        shard: ShardId,
        ts: u64,
        promises: PromiseBundle,
        now_us: u64,
        out: &mut Vec<Action<Message>>,
    ) {
        let info = self.info_mut(dot, now_us);
        let executed = info.phase == Phase::Execute;
        if !executed {
            info.shard_commits.insert(shard, ts);
        }
        // A commit that completes in this handler would release the bundle's attachments
        // (line 47) before anything reads the tracker: they count at once instead.
        let completes = !info.phase.is_committed_or_executed()
            && info.has_payload()
            && info.all_shards_committed();
        let report = Report::Bundle(dot, promises);
        self.absorb(report, now_us, completes.then_some(dot), |_| {});
        if !executed {
            self.try_complete_commit(dot, now_us, out);
        }
    }

    /// Commits `dot` locally once the payload is known and a per-shard timestamp has been
    /// received from every accessed shard (Algorithm 3, lines 56-59).
    fn try_complete_commit(&mut self, dot: Dot, now_us: u64, out: &mut Vec<Action<Message>>) {
        let final_ts = {
            let info = match self.info.get(&dot) {
                Some(info) => info,
                None => return,
            };
            if info.phase.is_committed_or_executed()
                || !info.has_payload()
                || !info.all_shards_committed()
            {
                return;
            }
            info.max_shard_commit()
        };
        self.commit_with(dot, final_ts, now_us, out);
    }

    /// Commits `dot` at `ts` with the payload `cmd`, an outcome learned from a peer
    /// (`MCommitInfo`, or a transferred queue entry); `false` if it was committed here.
    pub(crate) fn commit_learned(
        &mut self,
        dot: Dot,
        cmd: &Command,
        ts: u64,
        now_us: u64,
        out: &mut Vec<Action<Message>>,
    ) -> bool {
        let info = self.info_mut(dot, now_us);
        if info.phase.is_committed_or_executed() {
            return false;
        }
        info.learn_payload(cmd, &Quorums::new());
        self.commit_with(dot, ts, now_us, out);
        true
    }

    pub(crate) fn commit_with(
        &mut self,
        dot: Dot,
        final_ts: u64,
        now_us: u64,
        out: &mut Vec<Action<Message>>,
    ) {
        let cmd = {
            let info = self.info.get_mut(&dot).expect("info exists");
            if info.phase.is_committed_or_executed() {
                return;
            }
            info.final_ts = final_ts;
            info.phase = Phase::Commit;
            info.cmd.clone().expect("committed commands have a payload")
        };
        self.metrics.committed += 1;
        self.tracer
            .phase(now_us, self.process, cmd.rifl, CmdPhase::Committed);
        if self.recovery.committed(dot) {
            // This process took over as the command's coordinator at some point and the
            // command now has a timestamp: the recovery path ran to completion.
            self.metrics.recoveries_completed += 1;
            self.tracer
                .process_event(now_us, self.process, ProcEvent::RecoveryCompleted);
        }
        let buckets = Buckets::of(&cmd, self.shard);
        // Attached promises for this command may now enter its buckets' tracks (line 47).
        self.stability.commit(dot, &buckets);
        // Generate detached promises up to the committed timestamp (line 25/59); this is
        // what lets stability reach `final_ts` even when it exceeds this shard's clocks.
        self.clock_bump(&buckets, final_ts);
        // A commit at or below an execution floor of its buckets is a duplicate of state
        // this replica already *holds*: a rejoin state transfer installed a peer's image
        // complete up to the floor, so the command's effect is present even though the
        // local executor never applied it. So is one of a command executed here — by a
        // previous incarnation whose image this one restored — or at the donor of an
        // installed image (the executed frontier it restored).
        let transferred = self.executor.covers(final_ts, dot, &buckets) || self.gc.is_executed(dot);
        let passed = buckets
            .iter()
            .any(|b| final_ts <= self.executor.stable_in(*b));
        if transferred || passed {
            // Not placeable in ⟨ts, id⟩ order anymore. In the normal regime this cannot
            // happen — the line-47 commit gate keeps each bucket's stable timestamp
            // strictly below a command's timestamp until it commits locally — but a
            // *restarted* incarnation's tracks are deliberately seeded past old commands
            // (rejoin prefixes, safe frontiers, promise repairs), so late back-fills of
            // pre-crash commands land below stability. `transferred`: a true duplicate;
            // otherwise an execution gap (see `Transfer`). Either way the `MStable`
            // attestation keeps sibling shards live. NOT written to the WAL: replaying it
            // into a partial image would corrupt the image.
            self.exec_skipped += 1;
            if !transferred {
                self.transfer.record_gap((final_ts, dot), buckets, &self.gc);
                self.executor.gate();
                if self.joined && self.transfer.start() {
                    self.request_state(now_us, out);
                }
            }
            self.mark_executed(dot);
            if transferred {
                self.gc.record_executed(dot);
                self.gc_collect();
            }
            // A gapped dot enters the executed frontier only once an image covers it:
            // the frontier is shipped onward and blanket-restored (DESIGN.md §11, bug 2).
            if cmd.is_multi_shard() {
                let targets = self.view.all_replicas(&cmd);
                out.push(Action::send(targets, Message::MStable { dot }));
            }
            self.sync_stability(now_us, out);
            return;
        }
        // Hand the command to the execution stage; a multi-shard command additionally
        // waits for an `MStable` attestation from every *other* accessed shard.
        // Stability is a shard-global property and every replica of the command
        // broadcasts `MStable` once it is locally stable, so the wait is keyed by shard
        // and satisfied by whichever replica's attestation arrives first — a crashed
        // attestor (even one that dies after this commit) cannot stall execution.
        let waits: Vec<ShardId> = if cmd.is_multi_shard() {
            cmd.shards().filter(|s| *s != self.shard).collect()
        } else {
            Vec::new()
        };
        // Write-ahead: the commit (payload included) must survive a crash so the
        // rebuilt replica replays it instead of forgetting it (DESIGN.md §6).
        self.durable.append_commit(dot, final_ts, &cmd, &waits);
        self.exec_feed(
            ExecutionInfo::Committed {
                dot,
                ts: final_ts,
                cmd,
                waits,
            },
            now_us,
            out,
        );
        self.sync_stability(now_us, out);
    }

    // --------------------------------------------------------------- consensus

    fn handle_consensus(
        &mut self,
        from: ProcessId,
        dot: Dot,
        ts: u64,
        ballot: u64,
        now_us: u64,
        out: &mut Vec<Action<Message>>,
    ) {
        // Algorithm 5, lines 30-34 (pre: bal[id] <= b).
        if !self.joined {
            // Consensus participation is suspended until the rejoin handshake completes:
            // an amnesiac acceptor must not join new ballots with forgotten accept state.
            return;
        }
        {
            let info = self.info_mut(dot, now_us);
            if info.bal > ballot {
                let nack = Message::MRecNAck {
                    dot,
                    ballot: info.bal,
                };
                out.push(Action::send_one(from, nack));
                return;
            }
            info.ts = ts;
            info.bal = ballot;
            info.abal = ballot;
        }
        let buckets = self.info[&dot]
            .cmd
            .as_ref()
            .map(|cmd| Buckets::of(cmd, self.shard));
        // Write-ahead: the accept must survive a crash (a forgotten accept is how an
        // amnesiac acceptor lets two values commit). The driver's persist hook syncs
        // it before the ack below can leave this process.
        self.durable.append(WalRecord::Accept {
            dot,
            ts,
            bal: ballot,
        });
        // Without the payload its buckets are unknown here; the commit bumps them.
        if let Some(buckets) = buckets {
            self.clock_bump(&buckets, ts);
        }
        let ack = Message::MConsensusAck { dot, ballot };
        out.push(Action::send_one(from, ack));
    }

    fn handle_consensus_ack(
        &mut self,
        from: ProcessId,
        dot: Dot,
        ballot: u64,
        out: &mut Vec<Action<Message>>,
    ) {
        // Algorithm 5, lines 35-37 (pre: bal[id] = b, |Q| = f + 1).
        let slow_quorum = self.config.slow_quorum_size();
        let shard = self.shard;
        let (ready, ts, cmd) = {
            let info = match self.info.get_mut(&dot) {
                Some(info) => info,
                None => return,
            };
            if info.bal != ballot || info.commit_sent {
                return;
            }
            info.consensus_acks.insert(from);
            let ready = info.consensus_acks.len() >= slow_quorum;
            (ready, info.ts, info.cmd.clone())
        };
        if !ready {
            return;
        }
        let info = self.info.get_mut(&dot).expect("info exists");
        info.commit_sent = true;
        // Without the payload the commit targets are unknown; fall back to the shard.
        let (targets, promises) = match cmd {
            Some(cmd) => (
                self.view.all_replicas(&cmd),
                PromiseBundle {
                    attached: info.proposals.iter().map(|(p, t)| (*p, *t)).collect(),
                    detached: info.proposal_detached.clone(),
                },
            ),
            None => (self.shard_peers.to_vec(), PromiseBundle::default()),
        };
        let commit = Message::MCommit {
            dot,
            shard,
            ts,
            promises,
        };
        out.push(Action::send(targets, commit));
    }

    // --------------------------------------------------------------- execution

    #[allow(clippy::too_many_arguments)]
    fn handle_promises(
        &mut self,
        from: ProcessId,
        detached: Vec<(Bucket, PromiseRange)>,
        attached: Vec<(Dot, u64)>,
        executed: Vec<(ProcessId, u64)>,
        frontiers: Vec<(Bucket, u64)>,
        now_us: u64,
        out: &mut Vec<Action<Message>>,
    ) {
        self.gc.update_peer(from, &executed);
        self.transfer
            .note_holes(&executed, &self.gc, &self.info, now_us);
        self.gc_collect();
        // The sender's safe frontiers are absorbed wholesale: each heals any gap in its
        // bucket left by an earlier lost delta (every attached promise below it is
        // executed everywhere).
        let report = Report::Promises(from, frontiers, detached, attached);
        self.absorb(report, now_us, None, |_| {});
        self.sync_stability(now_us, out);
    }

    fn handle_stable(
        &mut self,
        from: ProcessId,
        dot: Dot,
        now_us: u64,
        out: &mut Vec<Action<Message>>,
    ) {
        // Any replica's attestation clears its shard's wait (see `commit_with`).
        let shard = self.membership.shard_of(from);
        // Write-ahead: attestations are sent once per replica, so one consumed by a
        // commit that then crashes would otherwise be gone — the replayed commit
        // would re-wait forever.
        self.durable.append(WalRecord::SiblingStable { dot, shard });
        self.exec_feed(ExecutionInfo::ShardStable { dot, shard }, now_us, out);
    }

    /// Pushes the stable timestamps of the buckets where they rose (Theorem 1) into the
    /// execution stage. The tracks note which rose, so the steady-state cost of an
    /// `MPromises` (or promise-timer fire) that taught us nothing new is one emptiness
    /// check instead of an executor pass.
    pub(crate) fn sync_stability(&mut self, now_us: u64, out: &mut Vec<Action<Message>>) {
        if self.transfer.is_awaiting() {
            return; // Gated on a state transfer: the store is known incomplete.
        }
        self.stability.take_risen(&mut self.risen);
        if self.risen.is_empty() {
            return;
        }
        // Write-ahead: interleaving stable timestamps with `Commit` records makes replay
        // reproduce the exact pre-crash execution (DESIGN.md §6).
        self.durable.append_stable(&self.risen);
        self.executor.raise(&self.risen, &mut self.executed);
        self.risen.clear();
        self.exec_absorb(now_us, out);
    }

    /// Feeds one event to the execution stage and acts on its output: broadcast
    /// `MStable` for multi-shard commands that became locally stable, update per-command
    /// phases for executed commands, and push executions to the runtime as
    /// [`Action::Deliver`].
    pub(crate) fn exec_feed(
        &mut self,
        info: ExecutionInfo,
        now_us: u64,
        out: &mut Vec<Action<Message>>,
    ) {
        self.executor.feed(info, &mut self.executed);
        self.exec_absorb(now_us, out);
    }

    /// Post-processes the executor's output (in `self.executed`, from
    /// [`Self::exec_feed`], [`Self::sync_stability`] or ungating after a closed execution
    /// gap): `MStable` broadcasts, per-command phase updates, GC accounting, and the
    /// `Deliver` actions toward the runtime.
    pub(crate) fn exec_absorb(&mut self, now_us: u64, out: &mut Vec<Action<Message>>) {
        let (mut announced, mut executed_dots) = std::mem::take(&mut self.drained);
        self.executor.drain_dots(&mut announced, &mut executed_dots);
        for &dot in &announced {
            let cmd = self.info[&dot]
                .cmd
                .as_ref()
                .expect("announced commands have a payload");
            let targets = self.view.all_replicas(cmd);
            out.push(Action::send(targets, Message::MStable { dot }));
        }
        let any_executed = !executed_dots.is_empty();
        if any_executed {
            self.recovery.progress(now_us);
        }
        for &dot in &executed_dots {
            let info = self.mark_executed(dot);
            // A command executes the instant it becomes stable (same dispatch step), so
            // `Stable` and the driver-emitted `Executed` carry the same timestamp.
            let rifl = info.cmd.as_ref().map(|c| c.rifl);
            self.gc.record_executed(dot);
            if let Some(rifl) = rifl {
                self.tracer
                    .phase(now_us, self.process, rifl, CmdPhase::Stable);
            }
        }
        if any_executed {
            self.gc_collect();
        }
        out.extend(self.executed.drain(..).map(Action::Deliver));
        announced.clear();
        executed_dots.clear();
        self.drained = (announced, executed_dots);
    }

    /// Marks `dot` executed: its `CommandInfo` and its recovery attempt drop their
    /// transient coordinator and recovery state.
    pub(crate) fn mark_executed(&mut self, dot: Dot) -> &mut CommandInfo {
        self.recovery.executed(dot);
        let info = self
            .info
            .get_mut(&dot)
            .expect("executed commands have info");
        info.mark_executed();
        info
    }

    /// Drops the metadata of every dot that all shard peers (and this process) have
    /// executed: its `CommandInfo` — payload included — its recovery attempt and any
    /// leftover executor bookkeeping. See [`crate::gc`] for the safety argument.
    pub(crate) fn gc_collect(&mut self) {
        for (origin, seqs) in self.gc.collect() {
            for seq in seqs {
                let dot = Dot::new(origin, seq);
                if self.info.remove(&dot).is_some() {
                    self.metrics.gc_collected += 1;
                }
                self.stability.forget(dot);
                self.executor.gc(dot);
                self.recovery.forget(dot);
            }
        }
    }

    // ------------------------------------------------------- promise broadcast

    /// Broadcasts `MPromises` to the shard peers (Algorithm 2, line 45) unless there is
    /// nothing new to say: the buffered promises, the executed watermarks and the safe
    /// frontiers. Local copies of the promises were already registered when they were
    /// generated. The executed watermarks piggyback on it, so committed-command GC is
    /// free whenever promise traffic flows; once it stops, a frontier-only broadcast
    /// (accounted in `gc_messages`) ships the final window — GC liveness must not depend
    /// on continuous traffic. Called by the periodic tick and by the burst-edge flush.
    fn broadcast_promises(&mut self, out: &mut Vec<Action<Message>>) {
        // Mid-rejoin nothing may be broadcast: the buffers hold floor bumps over the
        // previous incarnation's range (see `handle_rejoin_ack`).
        if !self.joined {
            return;
        }
        let news = self.gc.frontier_changed();
        let Some((detached, attached, frontiers)) = self.stability.take_outgoing(news) else {
            return;
        };
        if self.other_peers.is_empty() {
            return;
        }
        let executed = self.gc.executed_frontier();
        self.gc.record_broadcast(&executed);
        if detached.is_empty() && attached.is_empty() {
            self.metrics.gc_messages += self.other_peers.len() as u64;
        }
        let msg = Message::MPromises {
            detached,
            attached,
            executed,
            frontiers,
        };
        out.push(Action::send(self.other_peers.clone(), msg));
    }

    /// Arms the one-shot flush if this step left detached promises in the buffer (a
    /// commit, `MConsensus` or `MBump` bumped a clock; see [`Stability::bump`]) and no
    /// flush is outstanding. Attached promises and a proposal's detached ones do not arm
    /// it: they already reach every replica in the command's `MCommit` bundle.
    fn arm_flush(&mut self, out: &mut Vec<Action<Message>>) {
        if self.joined && !self.flush_armed && self.stability.flush_due() {
            self.flush_armed = true;
            out.push(Action::schedule(TIMER_FLUSH, FLUSH_DELAY_US));
        }
    }
}

/// The `CommandInfo` of `dot`, created if first seen (at `now_us`; not yet pending).
fn info_entry(info: &mut BTreeMap<Dot, CommandInfo>, dot: Dot, now_us: u64) -> &mut CommandInfo {
    info.entry(dot).or_insert_with(|| CommandInfo::new(now_us))
}

impl Protocol for Tempo {
    type Message = Message;
    type Executor = TempoExecutor;

    const NAME: &'static str = "Tempo";

    fn new(process: ProcessId, shard: ShardId, config: Config) -> Self {
        Self::with_options(process, shard, config, TempoOptions::default())
    }

    fn id(&self) -> ProcessId {
        self.process
    }

    fn shard(&self) -> ShardId {
        self.shard
    }

    fn discover(&mut self, view: View) -> Vec<Action<Message>> {
        assert_eq!(
            view.config, self.config,
            "view must match the configuration"
        );
        self.view = view;
        // Tempo owns two periodic events: the promise broadcast and the liveness scan.
        vec![
            Action::schedule(TIMER_PROMISES, PROMISE_INTERVAL_US),
            Action::schedule(TIMER_LIVENESS, LIVENESS_INTERVAL_US),
        ]
    }

    fn submit(&mut self, cmd: Command, _now_us: u64) -> Vec<Action<Message>> {
        // Algorithm 1, lines 1-4: the submitting process must replicate one of the shards
        // the command accesses (pre: i ∈ I_c).
        assert!(
            cmd.accesses(self.shard),
            "commands must be submitted at a process replicating one of their shards"
        );
        let dot = self.dot_gen.next_id();
        // Write-ahead: a durable floor must cover this dot before the submission's
        // messages leave (the driver syncs the append in its persist hook).
        self.durable.cover(Floor::Dot, self.dot_gen.generated());
        let mut quorums = Quorums::new();
        for shard in cmd.shards() {
            quorums.insert(
                shard,
                self.alive_fast_quorum(shard, self.config.fast_quorum_size()),
            );
        }
        let targets = self.alive_coordinators(&cmd);
        let msg = Message::MSubmit { dot, cmd, quorums };
        vec![Action::send(targets, msg)]
    }

    fn handle(&mut self, from: ProcessId, msg: Message, now_us: u64) -> Vec<Action<Message>> {
        let mut out = Vec::new();
        // A message about a garbage-collected dot is stale by construction (every shard
        // peer has executed the command); dropping it also keeps the dot's metadata from
        // being resurrected as a zombie `info` entry.
        if let Some(dot) = msg.dot() {
            if self.gc.is_collected(dot) {
                return out;
            }
        }
        match msg {
            Message::MSubmit { dot, cmd, quorums } => {
                self.handle_submit(dot, cmd, quorums, now_us, &mut out)
            }
            Message::MPropose {
                dot,
                cmd,
                quorums,
                ts,
            } => self.handle_propose(from, dot, cmd, quorums, ts, now_us, &mut out),
            Message::MPayload { dot, cmd, quorums } => {
                self.handle_payload(dot, cmd, quorums, now_us, &mut out)
            }
            Message::MProposeAck { dot, ts, detached } => {
                self.handle_propose_ack(from, dot, ts, detached, &mut out)
            }
            Message::MCommit {
                dot,
                shard,
                ts,
                promises,
            } => self.handle_commit(dot, shard, ts, promises, now_us, &mut out),
            Message::MConsensus { dot, ts, ballot } => {
                self.handle_consensus(from, dot, ts, ballot, now_us, &mut out)
            }
            Message::MConsensusAck { dot, ballot } => {
                self.handle_consensus_ack(from, dot, ballot, &mut out)
            }
            Message::MBump { buckets, ts, .. } => {
                // Bumping clocks is always safe; it only makes future proposals larger.
                self.clock_bump(&buckets, ts);
            }
            Message::MPromises {
                detached,
                attached,
                executed,
                frontiers,
            } => self.handle_promises(
                from, detached, attached, executed, frontiers, now_us, &mut out,
            ),
            Message::MStable { dot } => self.handle_stable(from, dot, now_us, &mut out),
            Message::MRec { dot, ballot } => self.handle_rec(from, dot, ballot, now_us, &mut out),
            Message::MRecAck {
                dot,
                ts,
                phase,
                abal,
                ballot,
            } => self.handle_rec_ack(from, dot, (ts, phase, abal), ballot, &mut out),
            Message::MRecNAck { dot, ballot } => {
                self.handle_rec_nack(dot, ballot, now_us, &mut out)
            }
            Message::MCommitRequest { dot } => self.handle_commit_request(from, dot, &mut out),
            Message::MCommitInfo { dot, cmd, ts } => {
                self.commit_learned(dot, &cmd, ts, now_us, &mut out);
            }
            Message::MPromiseRequest => self.handle_promise_request(from, &mut out),
            Message::MPromiseRepair { clocks, pending } => {
                self.handle_promise_repair(from, clocks, pending, now_us, &mut out)
            }
            Message::MRejoin => self.handle_rejoin(from, &mut out),
            Message::MRejoinAck {
                clock,
                your_highest,
                prefixes,
            } => self.handle_rejoin_ack(from, clock, your_highest, prefixes, now_us, &mut out),
            Message::MStateRequest => self.handle_state_request(from, &mut out),
            Message::MState(image) => self.handle_state(image, now_us, &mut out),
        }
        self.arm_flush(&mut out);
        out
    }

    fn suspect(&mut self, process: ProcessId) {
        Tempo::suspect(self, process);
    }

    fn unsuspect(&mut self, process: ProcessId) {
        Tempo::unsuspect(self, process);
    }

    fn rejoin(&mut self, incarnation: u64, _now_us: u64) -> Vec<Action<Message>> {
        if incarnation > 0 {
            self.stability.claim_nothing();
        }
        // Reserve a disjoint band of the dot sequence space per incarnation: a restarted
        // process must never reuse a dot of a previous life (the old dot may be executed
        // — or garbage collected — everywhere already).
        self.dot_gen.skip_to(incarnation << 48);
        self.joined = false;
        self.recovery.rejoin();
        self.transfer.rejoin();
        let mut out = Vec::new();
        self.send_rejoin(&mut out);
        out
    }

    fn timer(&mut self, timer: TimerId, now_us: u64) -> Vec<Action<Message>> {
        let mut out = Vec::new();
        match timer {
            TIMER_PROMISES => {
                self.broadcast_promises(&mut out);
                // Execution might have become possible thanks to locally generated
                // promises.
                self.sync_stability(now_us, &mut out);
                self.snapshot(false);
                out.push(Action::schedule(TIMER_PROMISES, PROMISE_INTERVAL_US));
            }
            TIMER_FLUSH => {
                self.flush_armed = false;
                self.broadcast_promises(&mut out);
            }
            TIMER_LIVENESS => {
                if self.joined {
                    if self.transfer.retry_due(now_us) {
                        self.request_state(now_us, &mut out);
                    }
                    self.liveness_scan(now_us, &mut out);
                } else {
                    // Mid-rejoin: retry the handshake instead of probing pending dots
                    // (an unanswered MRejoin must not strand the process forever).
                    self.send_rejoin(&mut out);
                }
                out.push(Action::schedule(TIMER_LIVENESS, LIVENESS_INTERVAL_US));
            }
            _ => {}
        }
        out
    }

    fn persist(&mut self) {
        // Flush the WAL appends of this dispatch step in one batch; the driver calls
        // this before the step's messages are handed to the transport, which is what
        // makes every append above a *write-ahead* (DESIGN.md §6).
        self.durable.sync();
    }

    fn attach_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    fn executor(&self) -> &TempoExecutor {
        &self.executor
    }

    fn metrics(&self) -> ProtocolMetrics {
        let mut metrics = self.metrics.clone();
        // The execution stage is the single source of truth for the executed count.
        metrics.executed = self.executor.executed();
        self.durable.report(&mut metrics);
        metrics
    }
}
