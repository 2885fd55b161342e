//! The Atlas / EPaxos commit protocol (single shard).
//!
//! Both protocols are leaderless: a coordinator collects *dependencies* (identifiers of
//! conflicting commands) from a fast quorum and commits the command together with the
//! union of the reported dependencies. They differ in the quorum size and in the
//! fast-path condition (§6, "Experimental setup"):
//!
//! * **Atlas** uses fast quorums of `⌊n/2⌋ + f` and takes the fast path when every
//!   dependency in the union was reported by at least `f` quorum members — with `f = 1`
//!   the fast path is always taken;
//! * **EPaxos** uses fast quorums of `⌊3n/4⌋` and requires all reports to be identical.
//!
//! When the fast path cannot be taken, the dependency set goes through single-decree
//! Flexible Paxos (slow path). Execution uses the dependency-graph executor of
//! [`crate::graph`], which is the source of the long dependency chains and high tail
//! latency that Tempo avoids (§3.3).

use crate::executor::{GraphExecutor, GraphInfo};
use crate::graph::ConflictIndex;
use std::collections::{BTreeMap, BTreeSet};
use tempo_kernel::command::Command;
use tempo_kernel::config::Config;
use tempo_kernel::id::{Dot, DotGen, ProcessId, ShardId};
use tempo_kernel::membership::Membership;
use tempo_kernel::protocol::{
    Action, Executor, Protocol, ProtocolMetrics, TimerId, View, WireSize,
};

/// Which dependency-based protocol variant to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Atlas: `⌊n/2⌋ + f` fast quorums, fast path when each dependency is reported `f` times.
    Atlas,
    /// EPaxos: `⌊3n/4⌋` fast quorums, fast path only when all reports match.
    EPaxos,
}

/// Protocol messages shared by Atlas and EPaxos.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// Coordinator's dependency-collection request, sent to the fast quorum.
    MCollect {
        /// Command identifier.
        dot: Dot,
        /// The command payload.
        cmd: Command,
        /// The fast quorum in use.
        quorum: Vec<ProcessId>,
        /// Dependencies reported by the coordinator itself.
        deps: BTreeSet<Dot>,
    },
    /// A fast-quorum member's dependency report.
    MCollectAck {
        /// Command identifier.
        dot: Dot,
        /// Dependencies known at the sender (a superset of the coordinator's).
        deps: BTreeSet<Dot>,
    },
    /// Commit notification carrying the payload and the final dependency set.
    MCommit {
        /// Command identifier.
        dot: Dot,
        /// The command payload.
        cmd: Command,
        /// The committed dependencies.
        deps: BTreeSet<Dot>,
    },
    /// Slow-path consensus proposal on a dependency set.
    MConsensus {
        /// Command identifier.
        dot: Dot,
        /// The command payload (so acceptors can commit later without another message).
        cmd: Command,
        /// The proposed dependency set.
        deps: BTreeSet<Dot>,
        /// Proposer ballot.
        ballot: u64,
    },
    /// Slow-path consensus acknowledgement.
    MConsensusAck {
        /// Command identifier.
        dot: Dot,
        /// Accepted ballot.
        ballot: u64,
    },
}

impl WireSize for Message {
    fn wire_size(&self) -> usize {
        match self {
            Message::MCollect { cmd, deps, .. } | Message::MConsensus { cmd, deps, .. } => {
                48 + cmd.wire_size() + deps.len() * 16
            }
            Message::MCommit { cmd, deps, .. } => 32 + cmd.wire_size() + deps.len() * 16,
            Message::MCollectAck { deps, .. } => 24 + deps.len() * 16,
            Message::MConsensusAck { .. } => 32,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Start,
    Collect,
    Commit,
}

#[derive(Debug)]
struct Info {
    phase: Phase,
    cmd: Option<Command>,
    quorum: Vec<ProcessId>,
    deps: BTreeSet<Dot>,
    acks: BTreeMap<ProcessId, BTreeSet<Dot>>,
    consensus_acks: BTreeSet<ProcessId>,
    bal: u64,
    commit_sent: bool,
}

impl Info {
    fn new() -> Self {
        Self {
            phase: Phase::Start,
            cmd: None,
            quorum: Vec::new(),
            deps: BTreeSet::new(),
            acks: BTreeMap::new(),
            consensus_acks: BTreeSet::new(),
            bal: 0,
            commit_sent: false,
        }
    }
}

/// The Atlas (or EPaxos) protocol instance at one process of one shard.
#[derive(Debug)]
pub struct Atlas {
    process: ProcessId,
    shard: ShardId,
    config: Config,
    variant: Variant,
    view: View,
    shard_peers: Vec<ProcessId>,
    rank: u64,
    dot_gen: DotGen,
    conflicts: ConflictIndex,
    info: BTreeMap<Dot, Info>,
    /// The execution stage: the dependency-graph executor (shared with Janus*).
    executor: GraphExecutor,
    metrics: ProtocolMetrics,
}

impl Atlas {
    /// Creates an instance of the given variant.
    pub fn with_variant(
        process: ProcessId,
        shard: ShardId,
        config: Config,
        variant: Variant,
    ) -> Self {
        let membership = Membership::from_config(&config);
        let shard_peers = membership.processes_of_shard(shard);
        let rank = shard_peers
            .iter()
            .position(|p| *p == process)
            .expect("process must belong to its shard") as u64
            + 1;
        Self {
            process,
            shard,
            config,
            variant,
            view: View::trivial(config, process),
            shard_peers,
            rank,
            dot_gen: DotGen::new(process),
            conflicts: ConflictIndex::new(),
            info: BTreeMap::new(),
            executor: GraphExecutor::new(process, shard, config),
            metrics: ProtocolMetrics::default(),
        }
    }

    /// The fast-quorum size of the variant in use.
    pub fn fast_quorum_size(&self) -> usize {
        match self.variant {
            Variant::Atlas => self.config.fast_quorum_size(),
            Variant::EPaxos => self.config.epaxos_fast_quorum_size().max(2),
        }
    }

    /// The variant in use.
    pub fn variant(&self) -> Variant {
        self.variant
    }

    /// Sizes of the strongly connected components executed so far (diagnostics).
    pub fn scc_sizes(&self) -> &[usize] {
        self.executor.scc_sizes()
    }

    /// The committed dependency set of a command, if committed at this process.
    pub fn committed_deps(&self, dot: Dot) -> Option<&BTreeSet<Dot>> {
        self.info.get(&dot).and_then(|i| {
            if i.phase == Phase::Commit {
                Some(&i.deps)
            } else {
                None
            }
        })
    }

    fn info_mut(&mut self, dot: Dot) -> &mut Info {
        self.info.entry(dot).or_insert_with(Info::new)
    }

    fn command_keys(cmd: &Command, shard: ShardId) -> Vec<u64> {
        cmd.keys_of(shard).collect()
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_collect(
        &mut self,
        from: ProcessId,
        dot: Dot,
        cmd: Command,
        quorum: Vec<ProcessId>,
        coordinator_deps: BTreeSet<Dot>,
        out: &mut Vec<Action<Message>>,
    ) {
        {
            let info = self.info_mut(dot);
            if info.phase != Phase::Start {
                return;
            }
            info.phase = Phase::Collect;
            info.cmd = Some(cmd.clone());
            info.quorum = quorum;
        }
        let keys = Self::command_keys(&cmd, self.shard);
        let mut deps = self.conflicts.dependencies(dot, &keys, cmd.is_read_only());
        deps.extend(coordinator_deps);
        self.info_mut(dot).deps = deps.clone();
        let ack = Message::MCollectAck { dot, deps };
        out.push(Action::send_one(from, ack));
    }

    fn handle_collect_ack(
        &mut self,
        from: ProcessId,
        dot: Dot,
        deps: BTreeSet<Dot>,
        out: &mut Vec<Action<Message>>,
    ) {
        let f = self.config.f();
        let variant = self.variant;
        let (ready, quorum) = {
            let info = match self.info.get_mut(&dot) {
                Some(info) => info,
                None => return,
            };
            if info.phase != Phase::Collect || info.commit_sent || dot.source != self.process {
                return;
            }
            info.acks.insert(from, deps);
            let quorum = info.quorum.clone();
            let ready = quorum.iter().all(|q| info.acks.contains_key(q));
            (ready, quorum)
        };
        if !ready {
            return;
        }
        let (cmd, union, fast_path_ok) = {
            let info = self.info.get(&dot).expect("info exists");
            let mut union: BTreeSet<Dot> = BTreeSet::new();
            for deps in info.acks.values() {
                union.extend(deps.iter().copied());
            }
            let fast_path_ok = match variant {
                // Atlas: every dependency in the union must have been reported by at
                // least f fast-quorum processes so it survives f failures.
                Variant::Atlas => union
                    .iter()
                    .all(|dep| info.acks.values().filter(|deps| deps.contains(dep)).count() >= f),
                // EPaxos: all reports must be identical.
                Variant::EPaxos => {
                    let first = info.acks.values().next().expect("at least one ack");
                    info.acks.values().all(|deps| deps == first)
                }
            };
            (
                info.cmd.clone().expect("payload known"),
                union,
                fast_path_ok,
            )
        };
        if fast_path_ok {
            self.metrics.fast_paths += 1;
            self.info_mut(dot).commit_sent = true;
            let commit = Message::MCommit {
                dot,
                cmd,
                deps: union,
            };
            out.push(Action::send(self.shard_peers.clone(), commit));
        } else {
            self.metrics.slow_paths += 1;
            {
                let info = self.info_mut(dot);
                info.deps = union.clone();
                info.consensus_acks.clear();
            }
            let consensus = Message::MConsensus {
                dot,
                cmd,
                deps: union,
                ballot: self.rank,
            };
            out.push(Action::send(self.shard_peers.clone(), consensus));
        }
        let _ = quorum;
    }

    fn handle_commit(
        &mut self,
        dot: Dot,
        cmd: Command,
        deps: BTreeSet<Dot>,
        out: &mut Vec<Action<Message>>,
    ) {
        {
            let info = self.info_mut(dot);
            if info.phase == Phase::Commit {
                return;
            }
            info.phase = Phase::Commit;
            info.cmd = Some(cmd.clone());
            info.deps = deps.clone();
        }
        self.metrics.committed += 1;
        // Make sure later commands pick this one up as a dependency even if this process
        // was not in its fast quorum.
        let keys = Self::command_keys(&cmd, self.shard);
        let _ = self.conflicts.dependencies(dot, &keys, cmd.is_read_only());
        // Hand the command to the execution stage and push its output to the runtime.
        let executed = self.executor.handle(GraphInfo { dot, cmd, deps });
        out.extend(executed.into_iter().map(Action::Deliver));
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_consensus(
        &mut self,
        from: ProcessId,
        dot: Dot,
        cmd: Command,
        deps: BTreeSet<Dot>,
        ballot: u64,
        out: &mut Vec<Action<Message>>,
    ) {
        {
            let info = self.info_mut(dot);
            if info.bal > ballot || info.phase == Phase::Commit {
                return;
            }
            info.bal = ballot;
            info.deps = deps;
            if info.cmd.is_none() {
                info.cmd = Some(cmd);
            }
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
        let slow_quorum = self.config.slow_quorum_size();
        let ready = {
            let info = match self.info.get_mut(&dot) {
                Some(info) => info,
                None => return,
            };
            if info.bal != ballot || info.commit_sent {
                return;
            }
            info.consensus_acks.insert(from);
            info.consensus_acks.len() >= slow_quorum
        };
        if !ready {
            return;
        }
        let (cmd, deps) = {
            let info = self.info_mut(dot);
            info.commit_sent = true;
            (info.cmd.clone().expect("payload known"), info.deps.clone())
        };
        let commit = Message::MCommit { dot, cmd, deps };
        out.push(Action::send(self.shard_peers.clone(), commit));
    }
}

impl Protocol for Atlas {
    type Message = Message;
    type Executor = GraphExecutor;

    const NAME: &'static str = "Atlas";

    fn new(process: ProcessId, shard: ShardId, config: Config) -> Self {
        Self::with_variant(process, shard, config, Variant::Atlas)
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
        // Atlas/EPaxos have no periodic tasks in the failure-free path; retry/recovery
        // is out of scope for the baseline (the evaluation never exercises it).
        Vec::new()
    }

    fn submit(&mut self, cmd: Command, _now_us: u64) -> Vec<Action<Message>> {
        assert!(
            cmd.accesses(self.shard),
            "commands must be submitted at a process replicating one of their shards"
        );
        let dot = self.dot_gen.next_id();
        let mut quorum = self.view.fast_quorum(self.shard, self.fast_quorum_size());
        let msg = Message::MCollect {
            dot,
            cmd,
            quorum: quorum.clone(),
            deps: BTreeSet::new(),
        };
        // Destinations go out in identifier order, whatever the view's distance order.
        quorum.sort_unstable();
        vec![Action::send(quorum, msg)]
    }

    fn handle(&mut self, from: ProcessId, msg: Message, _now_us: u64) -> Vec<Action<Message>> {
        let mut out = Vec::new();
        match msg {
            Message::MCollect {
                dot,
                cmd,
                quorum,
                deps,
            } => self.handle_collect(from, dot, cmd, quorum, deps, &mut out),
            Message::MCollectAck { dot, deps } => {
                self.handle_collect_ack(from, dot, deps, &mut out)
            }
            Message::MCommit { dot, cmd, deps } => self.handle_commit(dot, cmd, deps, &mut out),
            Message::MConsensus {
                dot,
                cmd,
                deps,
                ballot,
            } => self.handle_consensus(from, dot, cmd, deps, ballot, &mut out),
            Message::MConsensusAck { dot, ballot } => {
                self.handle_consensus_ack(from, dot, ballot, &mut out)
            }
        }
        out
    }

    fn timer(&mut self, _timer: TimerId, _now_us: u64) -> Vec<Action<Message>> {
        Vec::new()
    }

    fn executor(&self) -> &GraphExecutor {
        &self.executor
    }

    fn metrics(&self) -> ProtocolMetrics {
        let mut metrics = self.metrics.clone();
        // The execution stage is the single source of truth for the executed count.
        metrics.executed = self.executor.executed();
        metrics
    }
}

/// EPaxos: the same state machine as [`Atlas`] with EPaxos quorums and fast-path rule.
#[derive(Debug)]
pub struct EPaxos(Atlas);

impl EPaxos {
    /// Access to the underlying state machine.
    pub fn inner(&self) -> &Atlas {
        &self.0
    }
}

impl Protocol for EPaxos {
    type Message = Message;
    type Executor = GraphExecutor;

    const NAME: &'static str = "EPaxos";

    fn new(process: ProcessId, shard: ShardId, config: Config) -> Self {
        EPaxos(Atlas::with_variant(process, shard, config, Variant::EPaxos))
    }

    fn id(&self) -> ProcessId {
        self.0.id()
    }

    fn shard(&self) -> ShardId {
        self.0.shard()
    }

    fn discover(&mut self, view: View) -> Vec<Action<Message>> {
        self.0.discover(view)
    }

    fn submit(&mut self, cmd: Command, now_us: u64) -> Vec<Action<Message>> {
        self.0.submit(cmd, now_us)
    }

    fn handle(&mut self, from: ProcessId, msg: Message, now_us: u64) -> Vec<Action<Message>> {
        self.0.handle(from, msg, now_us)
    }

    fn timer(&mut self, timer: TimerId, now_us: u64) -> Vec<Action<Message>> {
        self.0.timer(timer, now_us)
    }

    fn executor(&self) -> &GraphExecutor {
        self.0.executor()
    }

    fn metrics(&self) -> ProtocolMetrics {
        self.0.metrics()
    }
}
