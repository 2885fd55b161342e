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
//!   Appendix B (`MRecNAck`, `MCommitRequest`, periodic payload resend).
//!
//! Handlers never call one another. Algorithm 1 sends to the sending process freely
//! (`MSubmit`, `MPropose`, `MProposeAck`, `MCommit` all reach the coordinator itself);
//! here that is an ordinary [`Action::Send`] whose targets include this process, and the
//! kernel's `Driver` hands the copy back through [`Protocol::handle`] once the handler
//! that emitted it has returned — so a handler's view of `self` is never changed under
//! it by another handler.

use crate::executor::{ExecutionInfo, TempoExecutor};
use crate::gc::GcTracker;
use crate::info::{CommandInfo, Phase};
use crate::messages::{Message, PromiseBundle, Quorums, RecPhase};
use crate::promises::PromiseRange;
use crate::stability::{Report, Stability};
use std::collections::{BTreeMap, BTreeSet};
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
use tempo_store::snapshot::{AcceptState, QueuedCommit};
use tempo_store::{Snapshot, Store, WalRecord};

/// Timer driving the periodic `MPromises` broadcast (Algorithm 2, line 45), registered
/// by the protocol itself via [`Action::Schedule`].
pub const TIMER_PROMISES: TimerId = TimerId(1);
/// Timer driving the liveness scan: payload resend, `MCommitRequest` and recovery
/// take-over for commands pending too long (Appendix B).
pub const TIMER_LIVENESS: TimerId = TimerId(2);
/// One-shot timer behind the burst-edge `MPromises` flush (see `Tempo::arm_flush`).
const TIMER_FLUSH: TimerId = TimerId(3);

/// Most missing sequences considered per origin per `MPromises` frontier report when
/// scanning for commit holes (see `Tempo::note_commit_holes`).
const HOLE_SCAN_LIMIT: usize = 32;
/// Most commit-hole suspects tracked at once.
const HOLE_SUSPECT_CAP: usize = 256;

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
/// Clock floors are persisted in chunks of this many timestamps: one `ClockFloor` record
/// covers the next `CLOCK_FLOOR_CHUNK` proposals, and a restart skips at most that many
/// unused timestamps (it can never reuse a promised one).
const CLOCK_FLOOR_CHUNK: u64 = 64;

/// Tunable options of the Tempo implementation. The defaults are the configuration
/// evaluated in the paper; every field has a caller that sets it (tests of the timeouts,
/// snapshot pacing and dot floors, the amnesia demonstrations, `table1_fastpath`'s
/// ablation). `MBump` (§4, "Faster stability") and promise piggybacking on
/// `MProposeAck`/`MCommit` (§3.2) are always on.
#[derive(Debug, Clone, Copy)]
pub struct TempoOptions {
    /// Ablation: take the fast path only when *all* fast-quorum proposals are equal
    /// (an EPaxos-like condition) instead of Tempo's `count(max) >= f`.
    pub all_equal_fast_path: bool,
    /// How long a command may stay pending before this process (if it is the shard
    /// leader) starts recovery for it, in microseconds.
    pub recovery_timeout_us: u64,
    /// How long a command may stay pending before a non-leader process asks for the
    /// commit outcome (`MCommitRequest`) and re-sends the payload, in microseconds.
    pub commit_request_timeout_us: u64,
    /// After the `MRejoin` handshake, request a snapshot of the applied state from a
    /// shard peer (`MStateRequest`/`MState`) and gate execution until it installs:
    /// even with a durable store the replica misses every command committed while it
    /// was down, and serving reads around that gap would be stale (DESIGN.md §6).
    /// Disabled only by tests that demonstrate the amnesia gap.
    pub state_transfer: bool,
    /// Install a durable snapshot (truncating the WAL) once this many records have
    /// been appended since the previous snapshot. Only relevant with a store.
    pub snapshot_every_appends: u64,
    /// Persist dot floors in chunks of this many sequences (like the clock floor's):
    /// one `DotFloor` record covers the next `dot_floor_chunk` submissions, so dot
    /// uniqueness across store-backed restarts holds by replay alone — without relying
    /// on the incarnation bands (`incarnation << 48`) that diskless rejoins need.
    pub dot_floor_chunk: u64,
}

impl Default for TempoOptions {
    fn default() -> Self {
        Self {
            all_equal_fast_path: false,
            recovery_timeout_us: 2_000_000,
            commit_request_timeout_us: 1_000_000,
            state_transfer: true,
            snapshot_every_appends: 256,
            dot_floor_chunk: 64,
        }
    }
}

/// The Tempo protocol instance at one process.
#[derive(Debug)]
pub struct Tempo {
    process: ProcessId,
    shard: ShardId,
    config: Config,
    options: TempoOptions,
    view: View,
    membership: Membership,
    /// Processes of this shard, in identifier order (defines ballot ranks). Shared so
    /// that shard-wide sends cost a reference bump, not a `Vec` clone per call.
    shard_peers: Arc<[ProcessId]>,
    /// `shard_peers` other than this process: the targets of shard-wide reports.
    other_peers: Vec<ProcessId>,
    /// This process's rank within the shard, in `1..=n`.
    rank: u64,
    dot_gen: DotGen,
    /// The clock, the promises and the line-47 commit gate.
    stability: Stability,
    info: BTreeMap<Dot, CommandInfo>,
    /// Dots not yet committed at this process (for the periodic liveness scan).
    pending: BTreeSet<Dot>,
    /// The execution stage: stability-ordered execution (Algorithm 2/3).
    executor: TempoExecutor,
    /// Committed-command GC: executed watermarks of this process and its shard peers.
    gc: GcTracker,
    /// Whether a `TIMER_FLUSH` firing is outstanding (a driver queues one firing per
    /// `Schedule`, so a burst of bumps must arm it once).
    flush_armed: bool,
    /// Commands committed but skipped by the execution stage because local stability
    /// had already passed their timestamp (only possible at restarted incarnations;
    /// see `commit_with`).
    exec_skipped: u64,
    /// Last time the execution stage made progress (for stall detection).
    last_exec_progress_us: u64,
    /// Last time this process asked peers to re-state their promises (rate limit).
    last_repair_request_us: u64,
    /// The last stability watermark fed to the executor; feeds are skipped (and the
    /// executor left untouched) while the watermark has not advanced.
    last_stable_fed: u64,
    metrics: ProtocolMetrics,
    /// Processes suspected to have failed (used to pick the recovery leader and to avoid
    /// dead processes when choosing fast quorums for new commands).
    suspected: BTreeSet<ProcessId>,
    /// Whether this instance is a full participant. `false` only between a restart (see
    /// [`Protocol::rejoin`]) and the completion of the `MRejoin` handshake: until then
    /// the process makes no timestamp proposals, because its clock restarted at zero and
    /// a proposal below a previous incarnation's promises would break Theorem 1.
    joined: bool,
    /// Shard peers that answered the current `MRejoin` handshake.
    rejoin_acks: BTreeSet<ProcessId>,
    /// The durable backing store, when this replica persists its state (see
    /// [`Tempo::with_store`] and DESIGN.md §6). `None` = diskless (the baseline).
    store: Option<Box<dyn Store>>,
    /// The highest `ClockFloor` persisted to the WAL. Floors are persisted in chunks
    /// ahead of the live clock, so most proposals append nothing.
    persisted_clock: u64,
    /// The highest `DotFloor` persisted to the WAL (chunked like the clock floor, so
    /// most submissions append nothing).
    persisted_dot_floor: u64,
    /// The store's append count as of the last snapshot (snapshot pacing).
    appends_at_snapshot: u64,
    /// Set between the completion of the rejoin handshake and the installation of a
    /// peer's `MState`: execution (and thus read service) stays gated so the replica
    /// cannot answer reads from a store missing the commands it slept through.
    awaiting_state: bool,
    /// Commits whose timestamp fell at or below `last_stable_fed` but that were *not*
    /// covered by a state transfer (`(final_ts, dot) > exec_floor`). Feeding such a
    /// command to the executor would execute it out of timestamp order, and skipping
    /// it silently would leave a hole in the store while later commands keep reading
    /// from it — so the executor is gated until a state transfer whose floor covers
    /// every recorded gap is installed.
    exec_gaps: BTreeSet<(u64, Dot)>,
    /// Suspected commit holes: dots covered by a shard peer's executed frontier
    /// (piggybacked on `MPromises`) that this process has no record of — no
    /// `CommandInfo`, not executed, not collected. Such a dot is a commit this replica
    /// may have missed entirely (e.g. the `MCommit` was dropped while the link was
    /// lossy, or broadcast while the replica was down); stability can then pass the
    /// command via the peers' promises without this replica ever holding it, leaving
    /// a silent hole in the store. Values are `(first_seen_us, last_probe_us)`:
    /// suspects older than the probe timeout are asked around (`MCommitRequest`) from
    /// the liveness timer — in-flight commits resolve themselves within the grace
    /// period — and the answered commit lands below the stable watermark, where the
    /// `exec_gaps` gate turns it into a state transfer.
    hole_suspects: BTreeMap<Dot, (u64, u64)>,
    /// Last time an `MStateRequest` was sent (retry pacing under message loss).
    last_state_request_us: u64,
    /// `MStateRequest` attempts so far (rotates the target across live peers).
    state_request_attempts: u64,
    /// Lifecycle tracing handle (disabled by default; see [`Protocol::attach_tracer`]).
    tracer: Tracer,
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
        let rank = shard_peers
            .iter()
            .position(|p| *p == process)
            .expect("process must belong to its shard") as u64
            + 1;
        let stability = Stability::new(process, &shard_peers, config.stability_index());
        let gc = GcTracker::new(process, &shard_peers);
        let view = View::trivial(config, process);
        Self {
            process,
            shard,
            config,
            options,
            view,
            membership,
            other_peers: shard_peers
                .iter()
                .copied()
                .filter(|p| *p != process)
                .collect(),
            shard_peers,
            rank,
            dot_gen: DotGen::new(process),
            stability,
            info: BTreeMap::new(),
            pending: BTreeSet::new(),
            executor: TempoExecutor::new(process, shard, config),
            gc,
            flush_armed: false,
            exec_skipped: 0,
            last_exec_progress_us: 0,
            last_repair_request_us: 0,
            last_stable_fed: 0,
            metrics: ProtocolMetrics::default(),
            suspected: BTreeSet::new(),
            joined: true,
            rejoin_acks: BTreeSet::new(),
            store: None,
            persisted_clock: 0,
            persisted_dot_floor: 0,
            appends_at_snapshot: 0,
            awaiting_state: false,
            exec_gaps: BTreeSet::new(),
            hole_suspects: BTreeMap::new(),
            last_state_request_us: 0,
            state_request_attempts: 0,
            tracer: Tracer::disabled(),
        }
    }

    /// Creates a Tempo instance backed by a durable [`Store`]: every per-dot
    /// ballot/accept/commit and the clock floor are written ahead to it, periodic
    /// snapshots truncate its WAL, and — crucially — the instance *recovers from it
    /// right here*: the snapshot is installed and the WAL suffix replayed before the
    /// first message is handled, so a replica rebuilt after a crash starts from its
    /// pre-crash accepts and commits instead of blank (DESIGN.md §6).
    pub fn with_store(
        process: ProcessId,
        shard: ShardId,
        config: Config,
        options: TempoOptions,
        mut store: Box<dyn Store>,
    ) -> Self {
        let mut tempo = Self::with_options(process, shard, config, options);
        let (snapshot, wal) = store.load();
        tempo.store = Some(store);
        tempo.recover_from_store(snapshot, wal);
        tempo
    }

    /// The options in use.
    pub fn options(&self) -> &TempoOptions {
        &self.options
    }

    /// Current clock value (exposed for tests and diagnostics).
    pub fn clock_value(&self) -> u64 {
        self.stability.clock()
    }

    /// The highest stable timestamp at this process (Theorem 1).
    pub fn stable_timestamp(&self) -> u64 {
        self.stability.stable_timestamp()
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
        self.awaiting_state
    }

    /// Commands committed at this process but never applied by the local executor:
    /// amnesia skips (no state transfer) plus transfer-covered duplicates.
    pub fn exec_skipped(&self) -> u64 {
        self.exec_skipped
    }

    /// The committed (final) timestamp of a command at this process, if committed.
    pub fn committed_timestamp(&self, dot: Dot) -> Option<u64> {
        let info = self.info.get(&dot);
        info.filter(|i| i.phase.is_committed_or_executed())
            .map(|i| i.final_ts)
    }

    /// Marks a process as suspected of having failed; the lowest non-suspected process of
    /// the shard acts as the recovery leader (a stand-in for the Ω failure detector of
    /// Appendix B), and new commands pick fast quorums avoiding suspected processes.
    pub fn suspect(&mut self, process: ProcessId) {
        self.suspected.insert(process);
    }

    /// Withdraws a suspicion (the process restarted and is participating again).
    pub fn unsuspect(&mut self, process: ProcessId) {
        self.suspected.remove(&process);
    }

    /// Whether this instance is a full participant (always true unless it restarted and
    /// its `MRejoin` handshake has not completed yet).
    pub fn is_joined(&self) -> bool {
        self.joined
    }

    /// Whether this process is the current recovery leader of its shard.
    pub fn is_leader(&self) -> bool {
        self.shard_peers
            .iter()
            .find(|p| !self.suspected.contains(p))
            .map(|p| *p == self.process)
            .unwrap_or(false)
    }

    // ---------------------------------------------------------------- helpers

    fn info_mut(&mut self, dot: Dot, now_us: u64) -> &mut CommandInfo {
        info_entry(&mut self.info, dot, now_us)
    }

    fn next_ballot(&self, current: u64) -> u64 {
        let r = self.config.n() as u64;
        if current == 0 {
            self.rank
        } else {
            self.rank + r * ((current - 1) / r + 1)
        }
    }

    /// Bumps the clock to `t` (see [`Stability::bump`]), keeping its durable floor ahead.
    fn clock_bump(&mut self, t: u64) {
        if self.stability.bump(t) {
            self.wal_log_clock_floor();
        }
    }

    /// Feeds a peer's promises through the commit gate ([`Stability::absorb`]). A
    /// collected dot counts as committed (gating would resurrect its `CommandInfo` as a
    /// zombie); any other uncommitted dot gets one, and `gated` hears of it.
    fn absorb(&mut self, report: Report, now_us: u64, mut gated: impl FnMut(Dot)) {
        let (info, gc) = (&mut self.info, &self.gc);
        self.stability.absorb(report, |dot| {
            let committed = gc.is_collected(dot)
                || info_entry(info, dot, now_us)
                    .phase
                    .is_committed_or_executed();
            if !committed {
                gated(dot);
            }
            committed
        });
    }

    fn all_replicas_of(&self, cmd: &Command) -> Vec<ProcessId> {
        self.view.all_replicas(cmd)
    }

    fn local_coordinators_of(&self, cmd: &Command) -> Vec<ProcessId> {
        self.view.local_coordinators(cmd)
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
            .filter(|p| !self.suspected.contains(p))
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
                    .find(|p| !self.suspected.contains(p))
                    .unwrap_or_else(|| self.view.closest_process(shard))
            })
            .collect()
    }

    // ------------------------------------------------------------- durability

    /// Appends one record to the durable store, if any. Appends are buffered; the
    /// kernel driver's persist hook syncs them before this step's messages leave.
    fn wal_append(&mut self, record: WalRecord) {
        if let Some(store) = &mut self.store {
            store.append(&record);
        }
    }

    /// Keeps the durable clock floor ahead of the live clock, in chunks: whenever the
    /// clock passes the persisted floor, one `ClockFloor` record reserves the next
    /// [`CLOCK_FLOOR_CHUNK`] timestamps. Recovery resumes from the persisted floor — an
    /// over-approximation, so a restart may *skip* unused timestamps (harmless: nobody
    /// was promised them) but can never reuse a promised one.
    fn wal_log_clock_floor(&mut self) {
        if self.store.is_none() {
            return;
        }
        let clock = self.stability.clock();
        if clock > self.persisted_clock {
            let floor = clock + CLOCK_FLOOR_CHUNK;
            self.wal_append(WalRecord::ClockFloor(floor));
            self.persisted_clock = floor;
        }
    }

    /// Keeps the durable dot floor ahead of the live generator, in chunks: whenever a
    /// freshly generated dot passes the persisted floor, one `DotFloor` record
    /// reserves the next `dot_floor_chunk` sequences. The driver's persist hook syncs
    /// the append before the submission's messages leave, so no dot is ever visible
    /// to a peer without a durable floor covering it — a clean restart replays the
    /// floor and can never re-issue a dot, independent of incarnation bands.
    fn wal_log_dot_floor(&mut self) {
        if self.store.is_none() {
            return;
        }
        let generated = self.dot_gen.generated();
        if generated > self.persisted_dot_floor {
            let floor = generated + self.options.dot_floor_chunk;
            self.wal_append(WalRecord::DotFloor(floor));
            self.persisted_dot_floor = floor;
        }
    }

    /// Restores this instance from its store's snapshot and WAL suffix (called from
    /// [`Tempo::with_store`], before the instance handles anything).
    ///
    /// Replay is executor-order-agnostic: the snapshot's queued commits and the WAL's
    /// `Commit` records are re-fed as ordinary `Committed` events with the stability
    /// watermark restored to its snapshot-time value, and the executor re-derives
    /// `⟨ts, id⟩` execution order itself — the line-47 commit gate guarantees every
    /// WAL-suffix commit lies strictly above the snapshot's watermark, so nothing can
    /// execute out of order during replay (DESIGN.md §6, cut-point argument).
    fn recover_from_store(&mut self, snapshot: Option<Snapshot>, wal: Vec<WalRecord>) {
        let empty = snapshot.is_none() && wal.is_empty();
        let replayed_wal = !wal.is_empty();
        if let Some(snap) = snapshot {
            self.stability.restore(snap.clock);
            self.dot_gen.skip_to(snap.next_dot_seq);
            self.executor.restore(
                snap.stable,
                (snap.floor_ts, snap.floor_dot),
                snap.executed_count,
                snap.kv,
            );
            self.last_stable_fed = snap.stable;
            // Every snapshot-covered execution was a commit; keep the two counters
            // consistent so the stall detector (`repair_scan`) stays meaningful.
            self.metrics.committed = snap.executed_count;
            for (origin, watermark) in &snap.watermarks {
                self.gc.restore_executed(*origin, *watermark);
            }
            for a in &snap.accepts {
                let info = self.info_mut(a.dot, 0);
                info.ts = a.ts;
                info.bal = a.bal;
                info.abal = a.abal;
            }
            for q in snap.queued {
                self.replay_commit(q.dot, q.ts, q.cmd, q.waits);
            }
        }
        for record in wal {
            match record {
                WalRecord::ClockFloor(floor) => self.stability.restore(floor),
                WalRecord::DotFloor(floor) => self.dot_gen.skip_to(floor),
                WalRecord::Ballot { dot, bal } => {
                    let info = self.info_mut(dot, 0);
                    info.bal = info.bal.max(bal);
                }
                WalRecord::Accept { dot, ts, bal } => {
                    let info = self.info_mut(dot, 0);
                    info.ts = ts;
                    info.bal = info.bal.max(bal);
                    info.abal = info.abal.max(bal);
                }
                WalRecord::Commit {
                    dot,
                    ts,
                    cmd,
                    waits,
                } => self.replay_commit(dot, ts, cmd, waits),
                WalRecord::SiblingStable { dot, shard } => {
                    self.replay_feed(ExecutionInfo::ShardStable { dot, shard });
                }
                WalRecord::Stable(ts) => {
                    if ts > self.last_stable_fed {
                        self.last_stable_fed = ts;
                        self.replay_feed(ExecutionInfo::Stable { ts });
                    }
                }
            }
        }
        self.persisted_clock = self.stability.clock();
        self.persisted_dot_floor = self.dot_gen.generated();
        if let Some(store) = &self.store {
            self.appends_at_snapshot = store.metrics().wal_appends;
        }
        if !empty {
            self.stability.claim_nothing();
        }
        if replayed_wal {
            // Fold the replayed suffix into a fresh snapshot immediately: append-count
            // pacing restarts at zero with each incarnation, so a crash-looping
            // replica would otherwise never truncate its WAL and replay cost would
            // grow without bound across crashes.
            self.force_snapshot();
        }
    }

    /// Replays one durable commit (from the snapshot's queue or a WAL `Commit`).
    fn replay_commit(&mut self, dot: Dot, final_ts: u64, cmd: Command, waits: Vec<ShardId>) {
        {
            let info = self.info_mut(dot, 0);
            if info.phase.is_committed_or_executed() {
                return;
            }
            info.learn_payload(&cmd, &Quorums::new());
            info.final_ts = final_ts;
            info.phase = Phase::Commit;
        }
        self.pending.remove(&dot);
        self.metrics.committed += 1;
        self.stability.restore(final_ts);
        if (final_ts, dot) <= self.executor.exec_floor() {
            // Defensive: already inside the restored image (cannot happen for records
            // the cut-point argument admits, but a replayed log must never double-apply).
            let info = self.info.get_mut(&dot).expect("info exists");
            info.phase = Phase::Execute;
            self.gc.record_executed(dot);
            return;
        }
        self.replay_feed(ExecutionInfo::Committed {
            dot,
            ts: final_ts,
            cmd,
            waits,
        });
    }

    /// Feeds the executor during recovery. No actions can be emitted (the instance is
    /// still being constructed): executions are absorbed into phase/GC bookkeeping,
    /// results are dropped (their clients were answered in a previous life or will
    /// retry), and `MStable` announcements are not re-broadcast (the previous life
    /// sent them; live replicas answer sibling shards that still wait).
    fn replay_feed(&mut self, info: ExecutionInfo) {
        let _ = self.executor.handle(info);
        let _ = self.executor.take_newly_stable();
        for dot in self.executor.take_executed_dots() {
            let info = self
                .info
                .get_mut(&dot)
                .expect("executed commands have info");
            info.phase = Phase::Execute;
            self.gc.record_executed(dot);
        }
    }

    /// The executor's committed-but-unexecuted queue, as snapshots and `MState` carry it.
    fn queued_commits(&self) -> Vec<QueuedCommit> {
        self.executor
            .queued_entries()
            .into_iter()
            .map(|(dot, ts, cmd, waits)| QueuedCommit {
                dot,
                ts,
                cmd,
                waits,
            })
            .collect()
    }

    /// Builds the durable snapshot of the current state (see [`Snapshot`] for what must
    /// be carried and why).
    fn build_snapshot(&self) -> Snapshot {
        let (floor_ts, floor_dot) = self.executor.exec_floor();
        Snapshot {
            clock: self.stability.clock(),
            stable: self.last_stable_fed,
            floor_ts,
            floor_dot,
            next_dot_seq: self.dot_gen.generated(),
            executed_count: self.executor.executed(),
            kv: self.executor.kv_entries(),
            queued: self.queued_commits(),
            accepts: self
                .info
                .iter()
                .filter(|(_, i)| !i.phase.is_committed_or_executed() && (i.bal != 0 || i.abal != 0))
                .map(|(dot, i)| AcceptState {
                    dot: *dot,
                    ts: i.ts,
                    bal: i.bal,
                    abal: i.abal,
                })
                .collect(),
            watermarks: self.gc.executed_frontier(),
        }
    }

    /// Installs a snapshot once enough WAL records accumulated since the last one.
    /// Paced from the promise timer, so snapshot cost is off the message hot path.
    fn maybe_snapshot(&mut self) {
        let Some(store) = &self.store else {
            return;
        };
        if store.metrics().wal_appends - self.appends_at_snapshot
            < self.options.snapshot_every_appends
        {
            return;
        }
        self.force_snapshot();
    }

    /// Unconditionally installs a snapshot (truncating the WAL).
    fn force_snapshot(&mut self) {
        if self.store.is_none() {
            return;
        }
        let snapshot = self.build_snapshot();
        let store = self.store.as_mut().expect("checked above");
        store.install_snapshot(&snapshot);
        self.appends_at_snapshot = store.metrics().wal_appends;
        // The snapshot carries the exact clock and dot position; the next floor
        // chunks start there.
        self.persisted_clock = self.stability.clock();
        self.persisted_dot_floor = self.dot_gen.generated();
    }

    // ---------------------------------------------------------- state transfer

    /// Asks a live shard peer for its applied state (post-rejoin back-fill). Targets
    /// rotate across live peers on retry so one unresponsive peer cannot stall the
    /// transfer forever.
    fn send_state_request(&mut self, now_us: u64, out: &mut Vec<Action<Message>>) {
        let live: Vec<ProcessId> = self
            .other_peers
            .iter()
            .copied()
            .filter(|p| !self.suspected.contains(p))
            .collect();
        if live.is_empty() {
            if self.exec_gaps.is_empty() {
                // Nobody to transfer from (every peer suspected): ungate rather than
                // stall — ordering safety does not depend on the transfer.
                self.awaiting_state = false;
                self.sync_stability(now_us, out);
            }
            // With open execution gaps the store is *known* incomplete, so stay
            // gated: serving reads would return values missing committed writes.
            // `TIMER_LIVENESS` keeps retrying as peers come back.
            return;
        }
        let target = live[(self.state_request_attempts as usize) % live.len()];
        self.state_request_attempts += 1;
        self.last_state_request_us = now_us;
        out.push(Action::send_one(target, Message::MStateRequest));
    }

    fn handle_state_request(&mut self, from: ProcessId, out: &mut Vec<Action<Message>>) {
        if !self.joined || self.awaiting_state {
            // Mid-rejoin (or mid-transfer) state is not a trustworthy image.
            return;
        }
        let (floor_ts, floor_dot) = self.executor.exec_floor();
        let msg = Message::MState {
            floor_ts,
            floor_dot,
            kv: self.executor.kv_entries(),
            watermarks: self.gc.executed_frontier(),
            queued: self.queued_commits(),
        };
        out.push(Action::send_one(from, msg));
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_state(
        &mut self,
        floor_ts: u64,
        floor_dot: Dot,
        kv: Vec<(Key, u64)>,
        watermarks: Vec<(ProcessId, u64)>,
        queued: Vec<QueuedCommit>,
        now_us: u64,
        out: &mut Vec<Action<Message>>,
    ) {
        if !self.awaiting_state {
            return; // Late duplicate (or a transfer this instance never asked for).
        }
        self.awaiting_state = false;
        let floor = (floor_ts, floor_dot);
        let installed = floor > self.executor.exec_floor();
        if installed {
            let dropped = self.executor.install_transfer(kv, floor);
            for dot in &dropped {
                // Queued commits covered by the transferred image: their effects are
                // present without the local executor applying them.
                let info = self.info.get_mut(dot).expect("queued commands have info");
                info.mark_executed();
                self.exec_skipped += 1;
                self.gc.record_executed(*dot);
            }
            for (origin, watermark) in &watermarks {
                self.gc.restore_executed(*origin, *watermark);
            }
            self.gc_collect();
        }
        // Absorb the donor's committed-but-unexecuted queue *before* raising the local
        // stability watermark: every entry is above the donor's floor, so with the
        // watermark still at its pre-transfer value the entries commit onto the
        // (possibly just-installed) image in normal ⟨ts, id⟩ order instead of tripping
        // the below-stability skip path in `commit_with`.
        self.absorb_transferred_commits(queued, now_us, out);
        if installed {
            self.last_stable_fed = self.last_stable_fed.max(floor_ts);
            self.last_exec_progress_us = now_us;
            // Write-through: the back-filled image lives only in the executor until a
            // snapshot captures it — force one so a second crash keeps the back-fill.
            self.force_snapshot();
        }
        // Execution gaps now covered by the (possibly just-raised) floor are closed:
        // their effects are part of the installed image. If any gap remains above the
        // floor, the store is still incomplete — stay gated and keep requesting
        // (`TIMER_LIVENESS` re-sends while `awaiting_state`); the donor keeps
        // executing, so its floor eventually passes every gap.
        let exec_floor = self.executor.exec_floor();
        let mut closed_any = false;
        for (ts, dot) in std::mem::take(&mut self.exec_gaps) {
            if (ts, dot) <= exec_floor {
                // Deferred from `commit_with`'s skip branch: only now that the
                // installed image contains the command's effect may its dot enter
                // the executed frontier.
                self.gc.record_executed(dot);
                closed_any = true;
            } else {
                self.exec_gaps.insert((ts, dot));
            }
        }
        if closed_any {
            self.gc_collect();
        }
        if !self.exec_gaps.is_empty() {
            self.awaiting_state = true;
            return;
        }
        if self.executor.is_gated() {
            let executed = self.executor.ungate();
            self.exec_absorb(executed, now_us, out);
        }
        self.sync_stability(now_us, out);
    }

    /// Commits the donor's queued entries locally (see `Message::MState::queued`).
    /// A rejoined replica takes the whole-shard safe frontier from its peers, so its
    /// stability can pass a command it never heard commit — the command would then be
    /// skipped *unapplied* and every later read of its keys served from a store
    /// missing the write. The donor's queue is exactly the set at risk: committed
    /// everywhere, executed nowhere, above the transferred image's boundary.
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
            {
                let info = self.info_mut(q.dot, now_us);
                if info.phase.is_committed_or_executed() {
                    continue; // Already known; the executor dedups queued entries.
                }
                info.learn_payload(&q.cmd, &Quorums::new());
            }
            self.commit_with(q.dot, q.ts, now_us, out);
            // The donor consumed `MStable` attestations this replica missed while down,
            // and attestations are sent once per replica — replay the consumed ones
            // (every accessed sibling shard the donor is no longer waiting on) so the
            // entry does not wait forever. Residual waits are cleared by live
            // attestations, exactly as at the donor.
            if self.executor.is_queued(q.dot) {
                for shard in q.cmd.shards() {
                    if shard != self.shard && !q.waits.contains(&shard) {
                        self.wal_append(WalRecord::SiblingStable { dot: q.dot, shard });
                        self.exec_feed(
                            ExecutionInfo::ShardStable { dot: q.dot, shard },
                            now_us,
                            out,
                        );
                    }
                }
            }
        }
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
        let t = self.stability.clock() + 1;
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
            self.pending.insert(dot);
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
            if info.phase != Phase::Start {
                // Either recovery already reached this process or a commit arrived first;
                // in both cases we must not produce a proposal anymore.
                info.learn_payload(&cmd, &quorums);
                self.try_complete_commit(dot, now_us, out);
                return;
            }
            info.learn_payload(&cmd, &quorums);
        }
        if !self.joined {
            // A restarted process must not propose until the rejoin handshake recovered
            // its clock floor: a proposal below a previous incarnation's promises would
            // violate Theorem 1. Keep the payload so recovery can involve this process
            // later; the coordinator's quorum stays incomplete and the command commits
            // through the liveness/recovery path instead.
            let info = self.info_mut(dot, now_us);
            info.phase = Phase::Payload;
            self.pending.insert(dot);
            self.try_complete_commit(dot, now_us, out);
            return;
        }
        self.info_mut(dot, now_us).phase = Phase::Propose;
        self.pending.insert(dot);
        let (proposal, detached) = self.stability.propose(dot, ts);
        self.wal_log_clock_floor();
        self.info_mut(dot, now_us).ts = proposal;
        let ack = Message::MProposeAck {
            dot,
            ts: proposal,
            detached: detached.into_iter().collect(),
        };
        out.push(Action::send_one(from, ack));
        // §4, "Faster stability": tell colocated sibling-shard processes to bump their
        // clocks to this proposal.
        if cmd.is_multi_shard() {
            let siblings: Vec<ProcessId> = self
                .local_coordinators_of(&cmd)
                .into_iter()
                .filter(|p| self.membership.shard_of(*p) != self.shard)
                .collect();
            if !siblings.is_empty() {
                let bump = Message::MBump { dot, ts: proposal };
                out.push(Action::send(siblings, bump));
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
        detached: Vec<PromiseRange>,
        out: &mut Vec<Action<Message>>,
    ) {
        // Algorithm 1, lines 17-21 (pre: id ∈ propose and a reply from the full quorum).
        let f = self.config.f();
        let all_equal = self.options.all_equal_fast_path;
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
            for range in detached {
                info.proposal_detached.push((from, range));
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
                self.rank,
            )
        };
        let proposals = attached.iter().map(|(_, ts)| *ts);
        let (t, count) = max_and_count(proposals).expect("quorum not empty");
        let fast_path_ok = if all_equal {
            count == fast_quorum.len()
        } else {
            count >= f
        };
        if fast_path_ok {
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
            let targets = self.all_replicas_of(&cmd);
            out.push(Action::send(targets, commit));
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
        self.absorb(Report::Bundle(dot, promises), now_us, |_| {});
        let info = self.info_mut(dot, now_us);
        if info.phase == Phase::Execute {
            return;
        }
        info.shard_commits.insert(shard, ts);
        self.try_complete_commit(dot, now_us, out);
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

    fn commit_with(
        &mut self,
        dot: Dot,
        final_ts: u64,
        now_us: u64,
        out: &mut Vec<Action<Message>>,
    ) {
        let (cmd, recovered) = {
            let info = self.info.get_mut(&dot).expect("info exists");
            if info.phase.is_committed_or_executed() {
                return;
            }
            info.final_ts = final_ts;
            info.phase = Phase::Commit;
            (
                info.cmd.clone().expect("committed commands have a payload"),
                info.recovering,
            )
        };
        self.pending.remove(&dot);
        self.metrics.committed += 1;
        self.tracer
            .phase(now_us, self.process, cmd.rifl, CmdPhase::Committed);
        if recovered {
            // This process took over as the command's coordinator at some point and the
            // command now has a timestamp: the recovery path ran to completion.
            self.metrics.recoveries_completed += 1;
            self.tracer
                .process_event(now_us, self.process, ProcEvent::RecoveryCompleted);
        }
        // Attached promises for this command may now enter the tracker (line 47).
        self.stability.commit(dot);
        // Generate detached promises up to the committed timestamp (line 25/59); this is
        // what lets stability reach `final_ts` even when it exceeds this shard's clocks.
        self.clock_bump(final_ts);
        // A commit at or below the execution boundary is a duplicate of state this
        // replica already *holds*: a rejoin state transfer installed a peer's image
        // complete up to the boundary, so the command's effect is present even though
        // the local executor never applied it.
        let transferred = (final_ts, dot) <= self.executor.exec_floor();
        if transferred || final_ts <= self.last_stable_fed {
            // Not placeable in ⟨ts, id⟩ order anymore. In the normal regime this cannot
            // happen — the line-47 commit gate keeps the local stable watermark
            // strictly below a command's timestamp until it commits locally — but a
            // *restarted* incarnation's tracker is deliberately seeded past old
            // commands (rejoin prefixes, safe frontiers, promise repairs), so late
            // back-fills of pre-crash commands land below stability. Two cases:
            // `transferred` means the effect is already in the installed image (a true
            // duplicate); otherwise the command is skipped *unapplied* — the store is
            // now missing a write below the stable watermark, so execution is GATED
            // (the gap is recorded and a state transfer covering it is requested)
            // until a peer's image closes the hole. Without the gate, later commands
            // would keep executing on the incomplete store and return values computed
            // without the skipped write. Either way, recording the dot as executed
            // keeps GC draining and the `MStable` attestation keeps sibling shards
            // live. Deliberately NOT written to the WAL: replaying an unapplied (or
            // already-present) command into a partial image would corrupt it.
            self.exec_skipped += 1;
            let gapped = !transferred && self.options.state_transfer;
            if gapped {
                // (With `state_transfer` opted out there is no mechanism to close the
                // gap, so gating would stall forever — the opt-out accepts the hole.)
                self.exec_gaps.insert((final_ts, dot));
                self.executor.gate();
                if self.joined && !self.awaiting_state {
                    self.awaiting_state = true;
                    self.send_state_request(now_us, out);
                }
            }
            let info = self.info.get_mut(&dot).expect("info exists");
            info.mark_executed();
            if !gapped {
                self.gc.record_executed(dot);
                self.gc_collect();
            }
            // A *gapped* dot must stay out of the executed frontier until a state
            // transfer covers it (`handle_state` records it then): the frontier is
            // shipped onward — snapshots, `MState` watermarks, `MPromises` — and a
            // peer blanket-restoring a frontier that includes a dot above the
            // transfer boundary would mark dots it still has *queued* as executed,
            // garbage-collecting their metadata out from under its executor.
            if cmd.is_multi_shard() {
                let targets = self.all_replicas_of(&cmd);
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
        if self.store.is_some() {
            self.wal_append(WalRecord::Commit {
                dot,
                ts: final_ts,
                cmd: cmd.clone(),
                waits: waits.clone(),
            });
        }
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
        // Write-ahead: the accept must survive a crash (a forgotten accept is how an
        // amnesiac acceptor lets two values commit). The driver's persist hook syncs
        // it before the ack below can leave this process.
        self.wal_append(WalRecord::Accept {
            dot,
            ts,
            bal: ballot,
        });
        self.clock_bump(ts);
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
        let cmd = match cmd {
            Some(cmd) => cmd,
            // Without the payload the commit targets are unknown; fall back to the shard.
            None => {
                self.info.get_mut(&dot).expect("info exists").commit_sent = true;
                let commit = Message::MCommit {
                    dot,
                    shard,
                    ts,
                    promises: PromiseBundle::default(),
                };
                out.push(Action::send(self.shard_peers.to_vec(), commit));
                return;
            }
        };
        let info = self.info.get_mut(&dot).expect("info exists");
        info.commit_sent = true;
        let promises = PromiseBundle {
            attached: info.proposals.iter().map(|(p, t)| (*p, *t)).collect(),
            detached: info.proposal_detached.clone(),
        };
        let commit = Message::MCommit {
            dot,
            shard,
            ts,
            promises,
        };
        let targets = self.all_replicas_of(&cmd);
        out.push(Action::send(targets, commit));
    }

    // --------------------------------------------------------------- execution

    #[allow(clippy::too_many_arguments)]
    fn handle_promises(
        &mut self,
        from: ProcessId,
        detached: Vec<PromiseRange>,
        attached: Vec<(Dot, u64)>,
        executed: Vec<(ProcessId, u64)>,
        frontier: u64,
        now_us: u64,
        out: &mut Vec<Action<Message>>,
    ) {
        self.gc.update_peer(from, &executed);
        self.note_commit_holes(&executed, now_us);
        self.gc_collect();
        // The sender's safe frontier is absorbed wholesale: it heals any gap left by an
        // earlier lost delta (every attached promise below it is executed everywhere).
        let report = Report::Promises(from, frontier, detached, attached);
        self.absorb(report, now_us, |_| {});
        self.sync_stability(now_us, out);
    }

    /// Records suspected commit holes revealed by a peer's executed frontier (see the
    /// [`Self::hole_suspects`] field). The scan is bounded: at most
    /// [`HOLE_SCAN_LIMIT`] missing sequences per origin per report, and the suspect
    /// map is capped at [`HOLE_SUSPECT_CAP`] — a lagging replica catches up one
    /// window at a time, which is fine because each window ends in a state transfer
    /// that blankets the rest.
    fn note_commit_holes(&mut self, frontier: &[(ProcessId, u64)], now_us: u64) {
        if !self.options.state_transfer {
            // With transfers opted out a probed commit would just be skipped
            // unapplied (the accepted hole), teaching us nothing.
            return;
        }
        for &(origin, watermark) in frontier {
            for seq in self.gc.missing_below(origin, watermark, HOLE_SCAN_LIMIT) {
                if self.hole_suspects.len() >= HOLE_SUSPECT_CAP {
                    return;
                }
                let dot = Dot::new(origin, seq);
                if self.info.contains_key(&dot) {
                    continue; // Known (queued, pending or executing): not a hole.
                }
                self.hole_suspects.entry(dot).or_insert((now_us, 0));
            }
        }
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
        self.wal_append(WalRecord::SiblingStable { dot, shard });
        self.exec_feed(ExecutionInfo::ShardStable { dot, shard }, now_us, out);
    }

    /// Pushes the current stability watermark (Theorem 1) into the execution stage —
    /// but only when it advanced since the last push. The watermark is a cached O(1)
    /// read, so the steady-state cost of an `MPromises` (or promise-timer fire) that
    /// taught us nothing new is a single comparison instead of a full executor pass.
    fn sync_stability(&mut self, now_us: u64, out: &mut Vec<Action<Message>>) {
        if self.awaiting_state {
            // Execution is gated until the rejoin state transfer installs: advancing
            // stability now would execute (and serve reads over) a store that misses
            // every command committed while this replica was down.
            return;
        }
        // The executor's watermark comes from here or from an installed transfer's
        // boundary, and neither regresses — so it is never ahead of both.
        debug_assert!(
            self.executor.stable_timestamp()
                <= self.last_stable_fed.max(self.executor.exec_floor().0),
            "the executor's stable watermark is ahead of what it was fed"
        );
        let stable = self.stability.stable_timestamp();
        if stable <= self.last_stable_fed {
            return;
        }
        self.last_stable_fed = stable;
        // Write-ahead: interleaving watermark advances with `Commit` records makes
        // replay reproduce the exact pre-crash execution prefix (DESIGN.md §6).
        self.wal_append(WalRecord::Stable(stable));
        self.exec_feed(ExecutionInfo::Stable { ts: stable }, now_us, out);
    }

    /// Feeds one event to the execution stage and acts on its output: broadcast
    /// `MStable` for multi-shard commands that became locally stable, update per-command
    /// phases for executed commands, and push executions to the runtime as
    /// [`Action::Deliver`].
    fn exec_feed(&mut self, info: ExecutionInfo, now_us: u64, out: &mut Vec<Action<Message>>) {
        let executed = self.executor.handle(info);
        self.exec_absorb(executed, now_us, out);
    }

    /// Post-processes a batch of executor output (from [`Self::exec_feed`] or from
    /// ungating after a closed execution gap): `MStable` broadcasts, per-command phase
    /// updates, GC accounting, and the `Deliver` actions toward the runtime.
    fn exec_absorb(
        &mut self,
        executed: Vec<Executed>,
        now_us: u64,
        out: &mut Vec<Action<Message>>,
    ) {
        for dot in self.executor.take_newly_stable() {
            let cmd = self.info[&dot]
                .cmd
                .as_ref()
                .expect("announced commands have a payload");
            let targets = self.all_replicas_of(cmd);
            out.push(Action::send(targets, Message::MStable { dot }));
        }
        let executed_dots = self.executor.take_executed_dots();
        let any_executed = !executed_dots.is_empty();
        if any_executed {
            self.last_exec_progress_us = now_us;
        }
        for dot in executed_dots {
            let info = self
                .info
                .get_mut(&dot)
                .expect("executed commands have info");
            info.mark_executed();
            // In this implementation a command executes the instant it becomes stable
            // (same dispatch step), so `Stable` and the driver-emitted `Executed` carry
            // the same timestamp; the stable→execute interval measures queueing only in
            // runtimes with a detached execution stage.
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
        out.extend(executed.into_iter().map(Action::Deliver));
    }

    /// Drops the metadata of every dot that all shard peers (and this process) have
    /// executed: its `CommandInfo` — payload included — and any leftover executor
    /// bookkeeping. See [`crate::gc`] for the safety argument.
    fn gc_collect(&mut self) {
        for (origin, seqs) in self.gc.collect() {
            for seq in seqs {
                let dot = Dot::new(origin, seq);
                if self.info.remove(&dot).is_some() {
                    self.metrics.gc_collected += 1;
                }
                self.stability.forget(dot);
                self.executor.gc(dot);
            }
        }
    }

    // --------------------------------------------------------------- liveness

    /// Re-sends payloads, requests commits and starts recovery for commands that have
    /// been pending for too long (Algorithm 6, lines 75-78 and 95-96). Driven by
    /// [`TIMER_LIVENESS`]. Probes are rate limited per dot: a stale command is re-probed
    /// at most once per `commit_request_timeout_us`, not on every liveness tick — a dot
    /// past its timeout used to re-broadcast its full payload plus `MCommitRequest`
    /// every 5 ms.
    ///
    /// Recovery escalation shares the probe rate limit and *retries*: under message loss
    /// an `MRec` round can vanish entirely, so a leader whose takeover made no progress
    /// re-runs `start_recovery` (with a fresh, higher ballot) on the next probe. The
    /// previous gate — "skip if the pending ballot is already ours" — deadlocked exactly
    /// in that case, which the lossy conformance scenario flushed out.
    fn liveness_scan(&mut self, now_us: u64, out: &mut Vec<Action<Message>>) {
        let timeout = self.options.commit_request_timeout_us;
        let stale: Vec<(Dot, bool)> = self
            .pending
            .iter()
            .copied()
            .filter_map(|dot| {
                let info = self.info.get(&dot)?;
                if now_us.saturating_sub(info.since_us) < timeout {
                    return None;
                }
                let probe = now_us.saturating_sub(info.last_probe_us) >= timeout;
                Some((dot, probe))
            })
            .collect();
        for (dot, probe) in stale {
            let (age, has_payload) = {
                let info = &self.info[&dot];
                (now_us.saturating_sub(info.since_us), info.has_payload())
            };
            if probe {
                self.info
                    .get_mut(&dot)
                    .expect("stale dots have info")
                    .last_probe_us = now_us;
                // Ask around for a commit outcome we might have missed.
                let request = Message::MCommitRequest { dot };
                out.push(Action::send(self.shard_peers.to_vec(), request));
                // Re-send the payload so that every replica can take part in recovery
                // (Algorithm 6, line 77).
                if has_payload {
                    let (cmd, quorums) = {
                        let info = &self.info[&dot];
                        (
                            info.cmd.clone().expect("payload present"),
                            info.quorums.clone(),
                        )
                    };
                    let payload = Message::MPayload {
                        dot,
                        cmd: cmd.clone(),
                        quorums,
                    };
                    let targets = self.all_replicas_of(&cmd);
                    out.push(Action::send(targets, payload));
                }
            }
            // If we are the shard leader and the command has been pending for long
            // enough, take over as its coordinator — and keep retrying until the
            // command commits: under message loss an entire MRec round can vanish, and
            // the old "skip if the pending ballot is already ours" gate deadlocked
            // exactly then. Retries pace on the *recovery* timeout per dot (not the
            // probe cadence): each retry clears `rec_acks` and bumps the ballot, so
            // retrying faster than an MRec round trip would discard in-flight acks
            // forever (a livelock instead of a deadlock).
            if self.is_leader() && has_payload && age >= self.options.recovery_timeout_us {
                let due = {
                    let info = &self.info[&dot];
                    now_us.saturating_sub(info.last_recovery_us) >= self.options.recovery_timeout_us
                };
                if due {
                    self.start_recovery(dot, now_us, out);
                }
            }
        }
        self.hole_scan(now_us, out);
        self.repair_scan(now_us, out);
    }

    /// Probes suspected commit holes (see [`Self::note_commit_holes`]): suspects that
    /// resolved in the meantime — metadata arrived, a state transfer blanketed them,
    /// or GC collected them — are dropped; persistent ones are asked around for their
    /// commit outcome at the ordinary stale-command probe pace. An answered probe
    /// commits below the stable watermark and triggers the execution-gap gate, which
    /// turns the hole into a state transfer.
    fn hole_scan(&mut self, now_us: u64, out: &mut Vec<Action<Message>>) {
        if self.hole_suspects.is_empty() {
            return;
        }
        let timeout = self.options.commit_request_timeout_us;
        let mut suspects = std::mem::take(&mut self.hole_suspects);
        let mut probes: Vec<Dot> = Vec::new();
        suspects.retain(|&dot, (first_seen, last_probe)| {
            if self.info.contains_key(&dot) || self.gc.is_executed(dot) || self.gc.is_collected(dot)
            {
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
        self.hole_suspects = suspects;
        for dot in probes {
            out.push(Action::send(
                self.shard_peers.to_vec(),
                Message::MCommitRequest { dot },
            ));
        }
    }

    /// Detects a stalled execution stage — committed commands exist but no execution
    /// happened for a full commit-request timeout — and asks the shard peers to
    /// re-state their promises (`MPromiseRequest`, rate limited). Commit-side liveness
    /// is covered by the probes above; this covers the *stability* side: an `MPromises`
    /// delta lost to the network leaves a permanent gap in this process's view of a
    /// peer's promise prefix, freezing the stable watermark below every later
    /// timestamp. The lossy-link nemesis schedule found replicas frozen this way.
    fn repair_scan(&mut self, now_us: u64, out: &mut Vec<Action<Message>>) {
        let timeout = self.options.commit_request_timeout_us;
        let unexecuted = self.metrics.committed > self.executor.executed() + self.exec_skipped;
        if !unexecuted
            || now_us.saturating_sub(self.last_exec_progress_us) < timeout
            || now_us.saturating_sub(self.last_repair_request_us) < timeout
        {
            return;
        }
        self.last_repair_request_us = now_us;
        if !self.other_peers.is_empty() {
            let targets = self.other_peers.clone();
            out.push(Action::send(targets, Message::MPromiseRequest));
        }
    }

    fn handle_promise_request(&mut self, from: ProcessId, out: &mut Vec<Action<Message>>) {
        // A rejoining, restarted or restored incarnation sends no repair (see
        // `Stability::claim_nothing`); the requester's comes from the other peers.
        if !self.joined {
            return;
        }
        if let Some((clock, pending)) = self.stability.repair_report() {
            let repair = Message::MPromiseRepair { clock, pending };
            out.push(Action::send_one(from, repair));
        }
    }

    /// Absorbs a peer's complete promise state (`Report::Repair`). For a gated attachment
    /// the dot id is itself the cure: ask the sender for the outcome (`MCommitRequest`) —
    /// the command may have committed at a quorum that excludes this process, with its
    /// payload and commit both lost, and then nobody would ever retransmit it (the
    /// coordinator only re-sends payloads of commands still pending *there*).
    fn handle_promise_repair(
        &mut self,
        from: ProcessId,
        clock: u64,
        pending: Vec<(u64, Dot)>,
        now_us: u64,
        out: &mut Vec<Action<Message>>,
    ) {
        self.absorb(Report::Repair(from, clock, pending), now_us, |dot| {
            out.push(Action::send_one(from, Message::MCommitRequest { dot }));
        });
        self.sync_stability(now_us, out);
    }

    // --------------------------------------------------------------- recovery

    fn start_recovery(&mut self, dot: Dot, now_us: u64, out: &mut Vec<Action<Message>>) {
        let ballot = {
            let info = match self.info.get_mut(&dot) {
                Some(info) => info,
                None => return,
            };
            if !info.phase.is_pending() {
                return;
            }
            let current = info.bal;
            info.rec_acks.clear();
            info.rec_done = false;
            info.recovering = true;
            info.last_recovery_us = now_us;
            current
        };
        let ballot = self.next_ballot(ballot);
        self.metrics.recoveries_started += 1;
        self.tracer
            .process_event(now_us, self.process, ProcEvent::RecoveryStarted);
        let rec = Message::MRec { dot, ballot };
        out.push(Action::send(self.shard_peers.to_vec(), rec));
    }

    fn handle_rec(
        &mut self,
        from: ProcessId,
        dot: Dot,
        ballot: u64,
        now_us: u64,
        out: &mut Vec<Action<Message>>,
    ) {
        // Algorithm 4, lines 76-85.
        let committed = {
            let info = self.info_mut(dot, now_us);
            info.phase.is_committed_or_executed()
        };
        if !self.joined && !committed {
            // A rejoining process may still share a commit it knows about, but must not
            // make recovery proposals (its clock floor is not yet re-established).
            return;
        }
        if committed {
            // Liveness: share the outcome with the would-be coordinator.
            self.handle_commit_request(from, dot, out);
            return;
        }
        let nack = {
            let info = self.info_mut(dot, now_us);
            if info.bal >= ballot {
                Some(info.bal)
            } else {
                None
            }
        };
        if let Some(bal) = nack {
            let msg = Message::MRecNAck { dot, ballot: bal };
            out.push(Action::send_one(from, msg));
            return;
        }
        // Cannot participate without the payload (the phase would still be `start`).
        if !self.info.get(&dot).is_some_and(CommandInfo::has_payload) {
            return;
        }
        let needs_proposal = {
            let info = self.info.get_mut(&dot).expect("info exists");
            if info.bal == 0 {
                match info.phase {
                    Phase::Payload => true,
                    Phase::Propose => {
                        info.phase = Phase::RecoverP;
                        false
                    }
                    _ => false,
                }
            } else {
                false
            }
        };
        if needs_proposal {
            let (t, _) = self.stability.propose(dot, 0);
            self.wal_log_clock_floor();
            let info = self.info.get_mut(&dot).expect("info exists");
            info.ts = t;
            info.phase = Phase::RecoverR;
        }
        let (ts, phase, abal) = {
            let info = self.info.get_mut(&dot).expect("info exists");
            info.bal = ballot;
            let rec_phase = info.phase.rec_phase().unwrap_or(RecPhase::RecoverR);
            (info.ts, rec_phase, info.abal)
        };
        // Write-ahead: the joined ballot must survive a crash, or a recovered replica
        // could accept a value at a ballot it already promised away.
        self.wal_append(WalRecord::Ballot { dot, bal: ballot });
        let ack = Message::MRecAck {
            dot,
            ts,
            phase,
            abal,
            ballot,
        };
        out.push(Action::send_one(from, ack));
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_rec_ack(
        &mut self,
        from: ProcessId,
        dot: Dot,
        ts: u64,
        phase: RecPhase,
        abal: u64,
        ballot: u64,
        out: &mut Vec<Action<Message>>,
    ) {
        // Algorithm 4, lines 86-96 (pre: bal[id] = b, |Q| = r - f).
        let recovery_quorum = self.config.recovery_quorum_size();
        let shard = self.shard;
        let ready = {
            let info = match self.info.get_mut(&dot) {
                Some(info) => info,
                None => return,
            };
            if info.bal != ballot || info.rec_done {
                return;
            }
            info.rec_acks.insert(from, (ts, phase, abal));
            info.rec_acks.len() >= recovery_quorum
        };
        if !ready {
            return;
        }
        let proposal = {
            let info = self.info.get_mut(&dot).expect("info exists");
            info.rec_done = true;
            info.consensus_acks.clear();
            // If any process accepted a consensus value, the highest-ballot one wins.
            if let Some((_, (accepted_ts, _, _))) = info
                .rec_acks
                .iter()
                .filter(|(_, (_, _, ab))| *ab != 0)
                .max_by_key(|(_, (_, _, ab))| *ab)
            {
                *accepted_ts
            } else {
                // No accepted value: reconstruct the timestamp from proposals.
                let fast_quorum = info.quorums.get(&shard).cloned().unwrap_or_default();
                let replied: Vec<ProcessId> = info.rec_acks.keys().copied().collect();
                let intersection: Vec<ProcessId> = replied
                    .iter()
                    .copied()
                    .filter(|p| fast_quorum.contains(p))
                    .collect();
                let initial = dot.initial_coordinator();
                let coordinator_replied = intersection.contains(&initial);
                let any_recover_r = intersection
                    .iter()
                    .any(|p| matches!(info.rec_acks[p].1, RecPhase::RecoverR));
                // `s` of Algorithm 4 line 93: the initial coordinator cannot have taken the
                // fast path, so any majority-derived maximum is a valid timestamp.
                let safe_to_use_all = coordinator_replied || any_recover_r;
                let quorum: Vec<ProcessId> = if safe_to_use_all {
                    replied
                } else {
                    intersection
                };
                quorum
                    .iter()
                    .map(|p| info.rec_acks[p].0)
                    .max()
                    .unwrap_or(0)
                    .max(1)
            }
        };
        let consensus = Message::MConsensus {
            dot,
            ts: proposal,
            ballot,
        };
        out.push(Action::send(self.shard_peers.to_vec(), consensus));
    }

    fn handle_rec_nack(
        &mut self,
        dot: Dot,
        ballot: u64,
        now_us: u64,
        out: &mut Vec<Action<Message>>,
    ) {
        let should_retry = {
            let info = match self.info.get_mut(&dot) {
                Some(info) => info,
                None => return,
            };
            if info.bal < ballot {
                info.bal = ballot;
                true
            } else {
                false
            }
        };
        if should_retry {
            self.wal_append(WalRecord::Ballot { dot, bal: ballot });
        }
        if should_retry && self.is_leader() {
            self.start_recovery(dot, now_us, out);
        }
    }

    fn handle_commit_request(&mut self, from: ProcessId, dot: Dot, out: &mut Vec<Action<Message>>) {
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

    fn handle_commit_info(
        &mut self,
        dot: Dot,
        cmd: Command,
        ts: u64,
        now_us: u64,
        out: &mut Vec<Action<Message>>,
    ) {
        {
            let info = self.info_mut(dot, now_us);
            if info.phase.is_committed_or_executed() {
                return;
            }
            info.learn_payload(&cmd, &Quorums::new());
            if info.phase == Phase::Start {
                info.phase = Phase::Payload;
            }
        }
        self.commit_with(dot, ts, now_us, out);
    }

    // ------------------------------------------------------- promise broadcast

    /// Broadcasts `MPromises` to the shard peers (Algorithm 2, line 45) unless there is
    /// nothing new to say: the buffered promises, the executed watermarks and the safe
    /// frontier. Local copies of the promises were already registered when they were
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
        let Some((detached, attached, frontier)) = self.stability.take_outgoing(news) else {
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
            frontier,
        };
        out.push(Action::send(self.other_peers.clone(), msg));
    }

    /// Arms the one-shot flush if this step left detached promises in the clock's buffer
    /// (a commit, `MConsensus` or `MBump` bumped the clock, or a proposal jumped it) and
    /// no flush is outstanding. Attached promises do not arm it: they already reach every
    /// replica in the command's `MCommit` bundle.
    fn arm_flush(&mut self, out: &mut Vec<Action<Message>>) {
        if self.joined && !self.flush_armed && self.stability.has_unsent_detached() {
            self.flush_armed = true;
            out.push(Action::schedule(TIMER_FLUSH, FLUSH_DELAY_US));
        }
    }

    // ---------------------------------------------------------------- rejoin

    /// Broadcasts `MRejoin` to the shard peers (initially from [`Protocol::rejoin`],
    /// re-sent from the liveness timer while the handshake is incomplete so that message
    /// loss cannot leave the process unjoined forever).
    fn send_rejoin(&mut self, out: &mut Vec<Action<Message>>) {
        if !self.other_peers.is_empty() {
            out.push(Action::send(self.other_peers.clone(), Message::MRejoin));
        }
    }

    fn handle_rejoin(&mut self, from: ProcessId, out: &mut Vec<Action<Message>>) {
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

    fn handle_rejoin_ack(
        &mut self,
        from: ProcessId,
        clock: u64,
        your_highest: u64,
        prefixes: Vec<(ProcessId, u64)>,
        now_us: u64,
        out: &mut Vec<Action<Message>>,
    ) {
        if self.joined || !self.rejoin_acks.insert(from) {
            return;
        }
        // Clock floor: never propose at or below (a) any timestamp a previous incarnation
        // of this process used (as recorded by the peer) or (b) the peer's own clock. Over
        // a recovery quorum of replies, (b) guarantees new proposals land above any
        // stability watermark derivable when the handshake completes — see DESIGN.md §5.
        // The peer's contiguous prefixes seed the promise tracker so stability detection
        // works again at this process (a prefix report is a promise witness).
        if self
            .stability
            .absorb_rejoin(clock.max(your_highest), prefixes)
        {
            self.wal_log_clock_floor();
        }
        // This process plus the repliers form a recovery quorum: safe to participate.
        if self.rejoin_acks.len() + 1 >= self.config.recovery_quorum_size() {
            // Discard every promise buffered during the handshake (the floor bumps
            // above, plus any pre-join clock movement): broadcasting them would claim
            // the previous incarnation's range, which may contain attached proposals
            // still gated at the peers (DESIGN.md §5). The ranges stay registered in
            // the *local* tracker — this incarnation's own stability view — where the
            // exec-floor skip in `commit_with` already accounts for them.
            self.stability.discard_outgoing();
            self.joined = true;
            if self.awaiting_state {
                // Back-fill the applied state from a peer before serving anything.
                self.send_state_request(now_us, out);
            } else {
                self.sync_stability(now_us, out);
            }
        }
    }

    // --------------------------------------------------------------- dispatch

    /// The dot a message is about, if any (`MPromises` and the rejoin handshake are the
    /// dot-free messages).
    fn message_dot(msg: &Message) -> Option<Dot> {
        match msg {
            Message::MSubmit { dot, .. }
            | Message::MPropose { dot, .. }
            | Message::MPayload { dot, .. }
            | Message::MProposeAck { dot, .. }
            | Message::MCommit { dot, .. }
            | Message::MConsensus { dot, .. }
            | Message::MConsensusAck { dot, .. }
            | Message::MBump { dot, .. }
            | Message::MStable { dot }
            | Message::MRec { dot, .. }
            | Message::MRecAck { dot, .. }
            | Message::MRecNAck { dot, .. }
            | Message::MCommitRequest { dot }
            | Message::MCommitInfo { dot, .. } => Some(*dot),
            Message::MPromises { .. }
            | Message::MPromiseRequest
            | Message::MPromiseRepair { .. }
            | Message::MRejoin
            | Message::MRejoinAck { .. }
            | Message::MStateRequest
            | Message::MState { .. } => None,
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
        self.wal_log_dot_floor();
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
        if let Some(dot) = Self::message_dot(&msg) {
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
            Message::MBump { dot: _, ts } => {
                // Bumping the clock is always safe; it only makes future proposals larger.
                self.clock_bump(ts);
            }
            Message::MPromises {
                detached,
                attached,
                executed,
                frontier,
            } => self.handle_promises(
                from, detached, attached, executed, frontier, now_us, &mut out,
            ),
            Message::MStable { dot } => self.handle_stable(from, dot, now_us, &mut out),
            Message::MRec { dot, ballot } => self.handle_rec(from, dot, ballot, now_us, &mut out),
            Message::MRecAck {
                dot,
                ts,
                phase,
                abal,
                ballot,
            } => self.handle_rec_ack(from, dot, ts, phase, abal, ballot, &mut out),
            Message::MRecNAck { dot, ballot } => {
                self.handle_rec_nack(dot, ballot, now_us, &mut out)
            }
            Message::MCommitRequest { dot } => self.handle_commit_request(from, dot, &mut out),
            Message::MCommitInfo { dot, cmd, ts } => {
                self.handle_commit_info(dot, cmd, ts, now_us, &mut out)
            }
            Message::MPromiseRequest => self.handle_promise_request(from, &mut out),
            Message::MPromiseRepair { clock, pending } => {
                self.handle_promise_repair(from, clock, pending, now_us, &mut out)
            }
            Message::MRejoin => self.handle_rejoin(from, &mut out),
            Message::MRejoinAck {
                clock,
                your_highest,
                prefixes,
            } => self.handle_rejoin_ack(from, clock, your_highest, prefixes, now_us, &mut out),
            Message::MStateRequest => self.handle_state_request(from, &mut out),
            Message::MState {
                floor_ts,
                floor_dot,
                kv,
                watermarks,
                queued,
            } => self.handle_state(
                floor_ts, floor_dot, kv, watermarks, queued, now_us, &mut out,
            ),
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
        self.rejoin_acks.clear();
        // Gate execution until a peer's state snapshot back-fills the commands this
        // replica missed while down (even a durable store cannot hold those); the
        // request goes out once the rejoin handshake completes.
        self.awaiting_state = self.options.state_transfer;
        self.state_request_attempts = 0;
        // A fresh incarnation has no execution gaps: its store *is* its floor, and the
        // forthcoming transfer (re-)establishes completeness from a peer's image.
        // Hole suspicion likewise restarts from the post-transfer frontier.
        self.exec_gaps.clear();
        self.hole_suspects.clear();
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
                // Durable snapshots are paced off the same timer: off the message hot
                // path, and naturally quiescent when the WAL is.
                self.maybe_snapshot();
                out.push(Action::schedule(TIMER_PROMISES, PROMISE_INTERVAL_US));
            }
            TIMER_FLUSH => {
                self.flush_armed = false;
                self.broadcast_promises(&mut out);
            }
            TIMER_LIVENESS => {
                if self.joined {
                    if self.awaiting_state
                        && now_us.saturating_sub(self.last_state_request_us)
                            >= self.options.commit_request_timeout_us
                    {
                        // The state transfer is outstanding (request or reply lost, or
                        // the target itself mid-rejoin): retry against the next peer.
                        self.send_state_request(now_us, &mut out);
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
        if let Some(store) = &mut self.store {
            store.sync();
        }
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
        if let Some(store) = &self.store {
            let m = store.metrics();
            metrics.wal_appends = m.wal_appends;
            metrics.wal_bytes = m.wal_bytes;
            metrics.snapshots_taken = m.snapshots_taken;
        }
        metrics
    }
}
