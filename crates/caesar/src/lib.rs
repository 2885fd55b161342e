//! `tempo-caesar` — the Caesar baseline of the paper's evaluation (§3.3, §6, Appendix D).
//!
//! Caesar assigns each command a unique timestamp *and* a set of explicit dependencies.
//! Commands execute in timestamp order; dependencies are used to detect when a timestamp
//! is stable. To keep dependencies consistent with timestamps, a replica that receives a
//! proposal for command `c` with timestamp `t` must *block* its reply while it knows a
//! conflicting command with a higher (not yet committed) timestamp — the "wait condition"
//! that the paper identifies as the source of Caesar's extra latency and of the
//! pathological scenario of Appendix D. If a conflicting command with a higher timestamp
//! has already committed, the replica rejects the proposal and the coordinator retries
//! with a larger timestamp (Caesar's slow path).
//!
//! This implementation reproduces the protocol's steady-state message flow (propose /
//! blocked replies / retry / commit) and its dependency-based execution rule; recovery is
//! out of scope, as in the paper's evaluation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeMap, BTreeSet, HashMap};
use tempo_kernel::command::Command;
use tempo_kernel::config::Config;
use tempo_kernel::id::{Dot, DotGen, ProcessId, ShardId};
use tempo_kernel::kvstore::KVStore;
use tempo_kernel::membership::Membership;
use tempo_kernel::protocol::{
    Action, Executed, Executor, Protocol, ProtocolMetrics, TimerId, View, WireSize,
};

/// A Caesar timestamp: a logical clock value made unique by the proposing process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimestampId {
    /// Logical clock value.
    pub time: u64,
    /// Proposing process (tie breaker).
    pub proc: ProcessId,
}

/// Caesar wire messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// Coordinator proposal sent to the fast quorum.
    MPropose {
        /// Command identifier.
        dot: Dot,
        /// The command payload.
        cmd: Command,
        /// Proposed timestamp.
        ts: TimestampId,
    },
    /// A replica's (possibly delayed) answer to a proposal.
    MProposeAck {
        /// Command identifier.
        dot: Dot,
        /// Whether the proposed timestamp is acceptable (no higher-timestamped conflicting
        /// command has committed).
        ok: bool,
        /// Conflicting commands with a lower timestamp known at the sender.
        deps: BTreeSet<Dot>,
    },
    /// Retry with a higher timestamp after a rejection (slow path).
    MRetry {
        /// Command identifier.
        dot: Dot,
        /// The command payload.
        cmd: Command,
        /// The new, higher timestamp.
        ts: TimestampId,
    },
    /// Answer to a retry.
    MRetryAck {
        /// Command identifier.
        dot: Dot,
        /// Conflicting commands with a lower timestamp known at the sender.
        deps: BTreeSet<Dot>,
    },
    /// Commit notification.
    MCommit {
        /// Command identifier.
        dot: Dot,
        /// The command payload.
        cmd: Command,
        /// The committed timestamp.
        ts: TimestampId,
        /// The committed dependencies.
        deps: BTreeSet<Dot>,
    },
}

impl WireSize for Message {
    fn wire_size(&self) -> usize {
        match self {
            Message::MPropose { cmd, .. } | Message::MRetry { cmd, .. } => 48 + cmd.wire_size(),
            Message::MProposeAck { deps, .. } | Message::MRetryAck { deps, .. } => {
                32 + deps.len() * 16
            }
            Message::MCommit { cmd, deps, .. } => 48 + cmd.wire_size() + deps.len() * 16,
        }
    }
}

/// A committed command with its timestamp and dependencies, handed to the executor.
#[derive(Debug, Clone)]
pub struct CommitInfo {
    /// Command identifier.
    pub dot: Dot,
    /// The command payload.
    pub cmd: Command,
    /// The committed timestamp.
    pub ts: TimestampId,
    /// The committed dependencies.
    pub deps: BTreeSet<Dot>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ExecStatus {
    Committed(TimestampId),
    Executed,
}

/// The Caesar execution stage: dependency-based stability (§3.3).
///
/// A committed command executes once every dependency is either executed or committed
/// with a higher timestamp; eligible commands execute in timestamp order. The executor
/// tracks only commit/execute status — it never reads protocol state — so the stability
/// rule can be tested with hand-crafted commit sequences.
#[derive(Debug)]
pub struct CaesarExecutor {
    shard: ShardId,
    status: BTreeMap<Dot, ExecStatus>,
    cmds: BTreeMap<Dot, (Command, BTreeSet<Dot>)>,
    /// Committed-but-not-executed commands ordered by timestamp.
    queue: BTreeSet<(TimestampId, Dot)>,
    kv: KVStore,
    executed_count: u64,
}

impl CaesarExecutor {
    /// Number of committed commands waiting for execution.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Read access to the replicated store (tests and diagnostics).
    pub fn store(&self) -> &KVStore {
        &self.kv
    }

    fn run(&mut self, out: &mut Vec<Executed>) {
        loop {
            let mut executed_one = false;
            let queue: Vec<(TimestampId, Dot)> = self.queue.iter().copied().collect();
            for (ts, dot) in queue {
                let ready = {
                    let (_, deps) = &self.cmds[&dot];
                    deps.iter().all(|d| match self.status.get(d) {
                        None => false,
                        Some(ExecStatus::Executed) => true,
                        Some(ExecStatus::Committed(dep_ts)) => *dep_ts > ts,
                    })
                };
                if !ready {
                    // Commands execute in timestamp order: stop at the first blocked one.
                    break;
                }
                let (cmd, _) = self
                    .cmds
                    .remove(&dot)
                    .expect("queued commands have payloads");
                let result = self.kv.execute(self.shard, &cmd);
                out.push(Executed {
                    rifl: cmd.rifl,
                    result,
                });
                self.executed_count += 1;
                self.status.insert(dot, ExecStatus::Executed);
                self.queue.remove(&(ts, dot));
                executed_one = true;
            }
            if !executed_one {
                break;
            }
        }
    }
}

impl Executor for CaesarExecutor {
    type Info = CommitInfo;

    fn new(_process: ProcessId, shard: ShardId, _config: Config) -> Self {
        Self {
            shard,
            status: BTreeMap::new(),
            cmds: BTreeMap::new(),
            queue: BTreeSet::new(),
            kv: KVStore::new(),
            executed_count: 0,
        }
    }

    fn handle(&mut self, info: CommitInfo) -> Vec<Executed> {
        if self.status.contains_key(&info.dot) {
            return Vec::new();
        }
        self.status.insert(info.dot, ExecStatus::Committed(info.ts));
        self.cmds.insert(info.dot, (info.cmd, info.deps));
        self.queue.insert((info.ts, info.dot));
        let mut out = Vec::new();
        self.run(&mut out);
        out
    }

    fn executed(&self) -> u64 {
        self.executed_count
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Proposed,
    Committed,
}

#[derive(Debug)]
struct Info {
    cmd: Command,
    ts: TimestampId,
    status: Status,
    /// Coordinator-side: acks received so far (ok flag and deps).
    acks: BTreeMap<ProcessId, (bool, BTreeSet<Dot>)>,
    retry_acks: BTreeMap<ProcessId, BTreeSet<Dot>>,
    committed_sent: bool,
    retried: bool,
}

/// A proposal whose reply is blocked by Caesar's wait condition.
#[derive(Debug)]
struct BlockedReply {
    coordinator: ProcessId,
    dot: Dot,
    ts: TimestampId,
    /// Conflicting commands with a higher, not-yet-committed timestamp.
    blockers: BTreeSet<Dot>,
}

/// The Caesar instance at one process of one shard.
#[derive(Debug)]
pub struct Caesar {
    process: ProcessId,
    shard: ShardId,
    config: Config,
    view: View,
    shard_peers: Vec<ProcessId>,
    dot_gen: DotGen,
    clock: u64,
    info: BTreeMap<Dot, Info>,
    /// Per-key index of known commands, used to find conflicts.
    key_index: HashMap<u64, BTreeSet<Dot>>,
    blocked: Vec<BlockedReply>,
    /// The execution stage: dependency-based stability in timestamp order.
    executor: CaesarExecutor,
    metrics: ProtocolMetrics,
    /// Diagnostics: how many proposal replies were delayed by the wait condition.
    blocked_replies: u64,
}

impl Caesar {
    /// Caesar's fast quorum size: `⌈3n/4⌉`.
    pub fn fast_quorum_size(&self) -> usize {
        self.config.caesar_fast_quorum_size()
    }

    /// Number of proposal replies that were delayed by the wait condition (diagnostics
    /// for the blocking behaviour discussed in §3.3).
    pub fn blocked_replies(&self) -> u64 {
        self.blocked_replies
    }

    /// The committed timestamp of a command, if committed at this process.
    pub fn committed_timestamp(&self, dot: Dot) -> Option<TimestampId> {
        self.info
            .get(&dot)
            .and_then(|i| matches!(i.status, Status::Committed).then_some(i.ts))
    }

    /// The `size` closest replicas of this shard, in identifier order.
    fn sorted_fast_quorum(&self, size: usize) -> Vec<ProcessId> {
        let mut quorum = self.view.fast_quorum(self.shard, size);
        quorum.sort_unstable();
        quorum
    }

    fn keys(cmd: &Command, shard: ShardId) -> Vec<u64> {
        cmd.keys_of(shard).collect()
    }

    /// Conflicting commands known locally, classified against a timestamp.
    fn conflicts(&self, dot: Dot, cmd: &Command) -> Vec<Dot> {
        let mut out = BTreeSet::new();
        for key in Self::keys(cmd, self.shard) {
            if let Some(dots) = self.key_index.get(&key) {
                out.extend(dots.iter().copied());
            }
        }
        out.remove(&dot);
        out.into_iter().collect()
    }

    fn register(&mut self, dot: Dot, cmd: &Command) {
        for key in Self::keys(cmd, self.shard) {
            self.key_index.entry(key).or_default().insert(dot);
        }
    }

    /// Evaluates the wait condition and, once it clears, produces the proposal reply.
    fn answer_proposal(
        &mut self,
        coordinator: ProcessId,
        dot: Dot,
        ts: TimestampId,
        out: &mut Vec<Action<Message>>,
    ) {
        let cmd = self.info[&dot].cmd.clone();
        let conflicting = self.conflicts(dot, &cmd);
        // Blockers: conflicting commands proposed (not committed) with a higher timestamp.
        let blockers: BTreeSet<Dot> = conflicting
            .iter()
            .copied()
            .filter(|d| {
                let info = &self.info[d];
                info.status == Status::Proposed && info.ts > ts
            })
            .collect();
        if !blockers.is_empty() {
            self.blocked_replies += 1;
            self.blocked.push(BlockedReply {
                coordinator,
                dot,
                ts,
                blockers,
            });
            return;
        }
        // No blockers: the reply can be produced. Reject if a conflicting command already
        // committed with a higher timestamp (the invariant ts(c) < ts(c') => c ∈ dep(c')
        // could no longer be guaranteed).
        let ok = !conflicting.iter().any(|d| {
            let info = &self.info[d];
            info.status == Status::Committed && info.ts > ts
        });
        let deps: BTreeSet<Dot> = conflicting
            .into_iter()
            .filter(|d| self.info[d].ts < ts)
            .collect();
        let reply = Message::MProposeAck { dot, ok, deps };
        out.push(Action::send_one(coordinator, reply));
    }

    /// Re-evaluates blocked replies after `committed` changed status.
    fn unblock(&mut self, committed: Dot, out: &mut Vec<Action<Message>>) {
        let mut ready = Vec::new();
        for blocked in &mut self.blocked {
            blocked.blockers.remove(&committed);
            if blocked.blockers.is_empty() {
                ready.push((blocked.coordinator, blocked.dot, blocked.ts));
            }
        }
        self.blocked.retain(|b| !b.blockers.is_empty());
        for (coordinator, dot, ts) in ready {
            self.answer_proposal(coordinator, dot, ts, out);
        }
    }

    fn commit(
        &mut self,
        dot: Dot,
        cmd: Command,
        ts: TimestampId,
        deps: BTreeSet<Dot>,
        out: &mut Vec<Action<Message>>,
    ) {
        let first = match self.info.get_mut(&dot) {
            Some(info) => {
                if info.status == Status::Committed {
                    false
                } else {
                    info.status = Status::Committed;
                    info.ts = ts;
                    true
                }
            }
            None => {
                self.info.insert(
                    dot,
                    Info {
                        cmd: cmd.clone(),
                        ts,
                        status: Status::Committed,
                        acks: BTreeMap::new(),
                        retry_acks: BTreeMap::new(),
                        committed_sent: true,
                        retried: false,
                    },
                );
                self.register(dot, &cmd);
                true
            }
        };
        if !first {
            return;
        }
        self.clock = self.clock.max(ts.time);
        self.metrics.committed += 1;
        // Hand the command to the execution stage (dependency-based stability, §3.3).
        let executed = self.executor.handle(CommitInfo { dot, cmd, ts, deps });
        out.extend(executed.into_iter().map(Action::Deliver));
        self.unblock(dot, out);
    }

    fn coordinator_finish(&mut self, dot: Dot, out: &mut Vec<Action<Message>>) {
        let (cmd, ts, deps) = {
            let info = &self.info[&dot];
            let mut deps = BTreeSet::new();
            for (_, d) in info.acks.values() {
                deps.extend(d.iter().copied());
            }
            for d in info.retry_acks.values() {
                deps.extend(d.iter().copied());
            }
            (info.cmd.clone(), info.ts, deps)
        };
        self.info.get_mut(&dot).expect("info exists").committed_sent = true;
        let commit = Message::MCommit { dot, cmd, ts, deps };
        out.push(Action::send(self.shard_peers.clone(), commit));
    }
}

impl Protocol for Caesar {
    type Message = Message;
    type Executor = CaesarExecutor;

    const NAME: &'static str = "Caesar";

    fn new(process: ProcessId, shard: ShardId, config: Config) -> Self {
        let membership = Membership::from_config(&config);
        let shard_peers = membership.processes_of_shard(shard);
        Self {
            process,
            shard,
            config,
            view: View::trivial(config, process),
            shard_peers,
            dot_gen: DotGen::new(process),
            clock: 0,
            info: BTreeMap::new(),
            key_index: HashMap::new(),
            blocked: Vec::new(),
            executor: CaesarExecutor::new(process, shard, config),
            metrics: ProtocolMetrics::default(),
            blocked_replies: 0,
        }
    }

    fn id(&self) -> ProcessId {
        self.process
    }

    fn shard(&self) -> ShardId {
        self.shard
    }

    fn discover(&mut self, view: View) -> Vec<Action<Message>> {
        assert_eq!(view.config, self.config);
        self.view = view;
        // Caesar has no periodic tasks; recovery is out of scope, as in the paper.
        Vec::new()
    }

    fn submit(&mut self, cmd: Command, _now_us: u64) -> Vec<Action<Message>> {
        assert!(cmd.accesses(self.shard));
        let dot = self.dot_gen.next_id();
        self.clock += 1;
        let ts = TimestampId {
            time: self.clock,
            proc: self.process,
        };
        let quorum = self.sorted_fast_quorum(self.fast_quorum_size());
        vec![Action::send(quorum, Message::MPropose { dot, cmd, ts })]
    }

    fn handle(&mut self, from: ProcessId, msg: Message, _now_us: u64) -> Vec<Action<Message>> {
        let mut out = Vec::new();
        match msg {
            Message::MPropose { dot, cmd, ts } => {
                if self.info.contains_key(&dot) {
                    return out;
                }
                self.clock = self.clock.max(ts.time);
                self.info.insert(
                    dot,
                    Info {
                        cmd: cmd.clone(),
                        ts,
                        status: Status::Proposed,
                        acks: BTreeMap::new(),
                        retry_acks: BTreeMap::new(),
                        committed_sent: false,
                        retried: false,
                    },
                );
                self.register(dot, &cmd);
                self.answer_proposal(from, dot, ts, &mut out);
            }
            Message::MProposeAck { dot, ok, deps } => {
                let quorum = self.fast_quorum_size();
                let ready = {
                    let Some(info) = self.info.get_mut(&dot) else {
                        return out;
                    };
                    if info.committed_sent || info.retried || dot.source != self.process {
                        return out;
                    }
                    info.acks.insert(from, (ok, deps));
                    info.acks.len() >= quorum
                };
                if !ready {
                    return out;
                }
                let all_ok = self.info[&dot].acks.values().all(|(ok, _)| *ok);
                if all_ok {
                    self.metrics.fast_paths += 1;
                    self.coordinator_finish(dot, &mut out);
                } else {
                    // Slow path: retry with a strictly higher timestamp.
                    self.metrics.slow_paths += 1;
                    self.clock += 1;
                    let new_ts = TimestampId {
                        time: self.clock,
                        proc: self.process,
                    };
                    let cmd = {
                        let info = self.info.get_mut(&dot).expect("info exists");
                        info.retried = true;
                        info.ts = new_ts;
                        info.cmd.clone()
                    };
                    let targets = self.sorted_fast_quorum(self.config.majority());
                    let retry = Message::MRetry {
                        dot,
                        cmd,
                        ts: new_ts,
                    };
                    out.push(Action::send(targets, retry));
                }
            }
            Message::MRetry { dot, cmd, ts } => {
                self.clock = self.clock.max(ts.time);
                let conflicting = {
                    if let std::collections::btree_map::Entry::Vacant(e) = self.info.entry(dot) {
                        e.insert(Info {
                            cmd: cmd.clone(),
                            ts,
                            status: Status::Proposed,
                            acks: BTreeMap::new(),
                            retry_acks: BTreeMap::new(),
                            committed_sent: false,
                            retried: true,
                        });
                        self.register(dot, &cmd);
                    } else {
                        let info = self.info.get_mut(&dot).expect("info exists");
                        info.ts = ts;
                    }
                    self.conflicts(dot, &cmd)
                };
                let deps: BTreeSet<Dot> = conflicting
                    .into_iter()
                    .filter(|d| self.info[d].ts < ts)
                    .collect();
                let reply = Message::MRetryAck { dot, deps };
                out.push(Action::send_one(from, reply));
            }
            Message::MRetryAck { dot, deps } => {
                let majority = self.config.majority();
                let ready = {
                    let Some(info) = self.info.get_mut(&dot) else {
                        return out;
                    };
                    if info.committed_sent {
                        return out;
                    }
                    info.retry_acks.insert(from, deps);
                    info.retry_acks.len() >= majority
                };
                if ready {
                    self.coordinator_finish(dot, &mut out);
                }
            }
            Message::MCommit { dot, cmd, ts, deps } => {
                self.commit(dot, cmd, ts, deps, &mut out);
            }
        }
        out
    }

    fn timer(&mut self, _timer: TimerId, _now_us: u64) -> Vec<Action<Message>> {
        Vec::new()
    }

    fn executor(&self) -> &CaesarExecutor {
        &self.executor
    }

    fn metrics(&self) -> ProtocolMetrics {
        let mut metrics = self.metrics.clone();
        // The execution stage is the single source of truth for the executed count.
        metrics.executed = self.executor.executed();
        metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_kernel::harness::LocalCluster;
    use tempo_kernel::id::Rifl;
    use tempo_kernel::KVOp;

    fn cmd(client: u64, seq: u64, key: u64) -> Command {
        Command::single(Rifl::new(client, seq), 0, key, KVOp::Put(seq), 0)
    }

    #[test]
    fn single_command_executes_everywhere() {
        let config = Config::full(5, 2);
        let mut cluster = LocalCluster::<Caesar>::new(config);
        cluster.submit(0, cmd(1, 1, 7));
        cluster.tick_all(5_000);
        for p in cluster.process_ids() {
            assert_eq!(cluster.executed(p).len(), 1, "missing execution at {p}");
        }
        assert_eq!(cluster.process(0).metrics().fast_paths, 1);
    }

    #[test]
    fn fast_quorum_size_is_three_quarters() {
        let config = Config::full(5, 2);
        let caesar = Caesar::new(0, 0, config);
        assert_eq!(caesar.fast_quorum_size(), 4);
    }

    #[test]
    fn sequential_conflicts_commit_with_increasing_timestamps() {
        let config = Config::full(5, 2);
        let mut cluster = LocalCluster::<Caesar>::new(config);
        cluster.submit(0, cmd(1, 1, 0));
        cluster.submit(1, cmd(2, 1, 0));
        cluster.tick_all(5_000);
        let t1 = cluster
            .process(0)
            .committed_timestamp(Dot::new(0, 1))
            .unwrap();
        let t2 = cluster
            .process(0)
            .committed_timestamp(Dot::new(1, 1))
            .unwrap();
        assert!(t2 > t1, "later conflicting command has a higher timestamp");
        // Timestamp agreement across replicas.
        for p in cluster.process_ids() {
            assert_eq!(
                cluster.process(p).committed_timestamp(Dot::new(0, 1)),
                Some(t1)
            );
        }
    }

    #[test]
    fn concurrent_conflicts_trigger_blocking_or_retries_yet_all_execute() {
        let config = Config::full(5, 2);
        let mut cluster = LocalCluster::<Caesar>::new(config);
        for p in cluster.process_ids() {
            cluster.submit_no_deliver(p, cmd(p, 1, 0));
        }
        cluster.run_to_quiescence();
        for _ in 0..5 {
            cluster.tick_all(5_000);
        }
        let blocked: u64 = cluster
            .process_ids()
            .iter()
            .map(|p| cluster.process(*p).blocked_replies())
            .sum();
        let retries: u64 = cluster
            .process_ids()
            .iter()
            .map(|p| cluster.process(*p).metrics().slow_paths)
            .sum();
        assert!(
            blocked + retries > 0,
            "concurrent conflicts should exercise the wait condition or the retry path"
        );
        for p in cluster.process_ids() {
            assert_eq!(cluster.executed(p).len(), 5, "missing executions at {p}");
        }
    }

    #[test]
    fn conflicting_commands_execute_in_timestamp_order_everywhere() {
        let config = Config::full(5, 2);
        let mut cluster = LocalCluster::<Caesar>::new(config);
        for round in 0..5u64 {
            for p in cluster.process_ids() {
                cluster.submit_no_deliver(p, cmd(p, round + 1, 0));
            }
            for _ in 0..10 {
                cluster.step();
            }
        }
        cluster.run_to_quiescence();
        for _ in 0..10 {
            cluster.tick_all(5_000);
        }
        let reference: Vec<Rifl> = cluster.executed(0).into_iter().map(|e| e.rifl).collect();
        assert_eq!(reference.len(), 25);
        for p in cluster.process_ids().into_iter().skip(1) {
            let order: Vec<Rifl> = cluster.executed(p).into_iter().map(|e| e.rifl).collect();
            assert_eq!(order, reference, "divergent execution order at {p}");
        }
    }

    #[test]
    fn non_conflicting_commands_do_not_block_each_other() {
        let config = Config::full(5, 2);
        let mut cluster = LocalCluster::<Caesar>::new(config);
        for p in cluster.process_ids() {
            cluster.submit_no_deliver(p, cmd(p, 1, 100 + p));
        }
        cluster.run_to_quiescence();
        let blocked: u64 = cluster
            .process_ids()
            .iter()
            .map(|p| cluster.process(*p).blocked_replies())
            .sum();
        assert_eq!(
            blocked, 0,
            "independent commands must not hit the wait condition"
        );
        for p in cluster.process_ids() {
            assert_eq!(cluster.executed(p).len(), 5);
        }
    }
}
