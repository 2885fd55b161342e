//! `tempo-janus` — the Janus* baseline used in the partial-replication evaluation (§6.4).
//!
//! Janus generalizes EPaxos to partial replication: each shard accessed by a command runs
//! a dependency-collection round, and the command commits with the union of the
//! dependencies discovered at every shard. The paper's `Janus*` is an improved version
//! built on Atlas, with `⌊n/2⌋ + f` fast quorums and Atlas's more permissive fast-path
//! condition; this crate implements that improved version.
//!
//! Janus is **not genuine**: dependency information must be exchanged across shards
//! before a command can execute, which is what the evaluation shows to be its main cost
//! relative to Tempo (Figure 9). Execution reuses the dependency-graph executor of
//! `tempo-atlas`. Two simplifications are documented in DESIGN.md: recovery is not
//! implemented (the evaluation never exercises it), and cross-shard dependencies are only
//! enforced for commands known at the executing process (transitive cross-shard cycles
//! through commands that never touch the local shard are ignored).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeMap, BTreeSet};
use tempo_atlas::executor::{GraphExecutor, GraphInfo};
use tempo_atlas::graph::ConflictIndex;
use tempo_kernel::command::Command;
use tempo_kernel::config::Config;
use tempo_kernel::id::{Dot, DotGen, ProcessId, ShardId};
use tempo_kernel::protocol::{
    Action, Executor, Protocol, ProtocolMetrics, TimerId, View, WireSize,
};

/// Janus* wire messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// Fans a submission out to the colocated coordinator of each accessed shard.
    MSubmit {
        /// Command identifier.
        dot: Dot,
        /// The command payload.
        cmd: Command,
        /// Fast quorum per accessed shard.
        quorums: BTreeMap<ShardId, Vec<ProcessId>>,
    },
    /// Per-shard dependency collection (like Atlas's `MCollect`).
    MCollect {
        /// Command identifier.
        dot: Dot,
        /// The command payload.
        cmd: Command,
        /// Fast quorum of this shard.
        quorum: Vec<ProcessId>,
        /// Dependencies reported by the shard coordinator.
        deps: BTreeSet<Dot>,
    },
    /// Fast-quorum member's dependency report.
    MCollectAck {
        /// Command identifier.
        dot: Dot,
        /// Dependencies known at the sender.
        deps: BTreeSet<Dot>,
    },
    /// The dependencies decided by one shard, broadcast to every replica of every shard
    /// the command accesses (the non-genuine cross-shard exchange).
    MShardDeps {
        /// Command identifier.
        dot: Dot,
        /// The shard whose dependencies these are.
        shard: ShardId,
        /// The command payload.
        cmd: Command,
        /// The dependencies discovered at that shard.
        deps: BTreeSet<Dot>,
    },
}

impl WireSize for Message {
    fn wire_size(&self) -> usize {
        match self {
            Message::MSubmit { cmd, .. } => 32 + cmd.wire_size(),
            Message::MCollect { cmd, deps, .. } => 48 + cmd.wire_size() + deps.len() * 16,
            Message::MCollectAck { deps, .. } => 24 + deps.len() * 16,
            Message::MShardDeps { cmd, deps, .. } => 40 + cmd.wire_size() + deps.len() * 16,
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
    own_deps: BTreeSet<Dot>,
    acks: BTreeMap<ProcessId, BTreeSet<Dot>>,
    shard_deps: BTreeMap<ShardId, BTreeSet<Dot>>,
    deps_sent: bool,
}

impl Info {
    fn new() -> Self {
        Self {
            phase: Phase::Start,
            cmd: None,
            quorum: Vec::new(),
            own_deps: BTreeSet::new(),
            acks: BTreeMap::new(),
            shard_deps: BTreeMap::new(),
            deps_sent: false,
        }
    }
}

/// The Janus* instance at one process of one shard.
#[derive(Debug)]
pub struct Janus {
    process: ProcessId,
    shard: ShardId,
    config: Config,
    view: View,
    dot_gen: DotGen,
    conflicts: ConflictIndex,
    info: BTreeMap<Dot, Info>,
    /// The execution stage: the dependency-graph executor shared with Atlas/EPaxos.
    executor: GraphExecutor,
    metrics: ProtocolMetrics,
}

impl Janus {
    /// The committed (union) dependency set of a command, if committed at this process.
    pub fn committed_deps(&self, dot: Dot) -> Option<BTreeSet<Dot>> {
        self.info.get(&dot).and_then(|i| {
            if i.phase == Phase::Commit {
                let mut union = BTreeSet::new();
                for deps in i.shard_deps.values() {
                    union.extend(deps.iter().copied());
                }
                Some(union)
            } else {
                None
            }
        })
    }

    /// Sizes of the strongly connected components executed so far (diagnostics).
    pub fn scc_sizes(&self) -> &[usize] {
        self.executor.scc_sizes()
    }

    fn info_mut(&mut self, dot: Dot) -> &mut Info {
        self.info.entry(dot).or_insert_with(Info::new)
    }

    fn try_commit(&mut self, dot: Dot, out: &mut Vec<Action<Message>>) {
        let (ready, cmd, deps) = {
            let info = match self.info.get(&dot) {
                Some(info) => info,
                None => return,
            };
            if info.phase == Phase::Commit || info.cmd.is_none() {
                return;
            }
            let cmd = info.cmd.clone().expect("payload known");
            let ready = cmd.shards().all(|s| info.shard_deps.contains_key(&s));
            if !ready {
                return;
            }
            // Execution at this shard waits for: every dependency discovered on this
            // shard, plus any dependency from other shards already known locally
            // (unknown foreign commands never execute here, so waiting on them would
            // block forever; see the crate-level documentation).
            let own: BTreeSet<Dot> = info
                .shard_deps
                .get(&self.shard)
                .cloned()
                .unwrap_or_default();
            let mut deps = own;
            for (shard, shard_deps) in &info.shard_deps {
                if *shard == self.shard {
                    continue;
                }
                for dep in shard_deps {
                    if self.info.contains_key(dep) {
                        deps.insert(*dep);
                    }
                }
            }
            (true, cmd, deps)
        };
        if !ready {
            return;
        }
        self.info_mut(dot).phase = Phase::Commit;
        self.metrics.committed += 1;
        // Register so later commands see this one as a conflict even off the fast quorum.
        let keys: Vec<u64> = cmd.keys_of(self.shard).collect();
        if !keys.is_empty() {
            let _ = self.conflicts.dependencies(dot, &keys, cmd.is_read_only());
        }
        // Hand the command to the execution stage; ordering-only vertices (commands that
        // never touch this shard) enter the graph but are not applied locally.
        let executed = self.executor.handle(GraphInfo { dot, cmd, deps });
        out.extend(executed.into_iter().map(Action::Deliver));
    }
}

impl Protocol for Janus {
    type Message = Message;
    type Executor = GraphExecutor;

    const NAME: &'static str = "Janus*";

    fn new(process: ProcessId, shard: ShardId, config: Config) -> Self {
        Self {
            process,
            shard,
            config,
            view: View::trivial(config, process),
            dot_gen: DotGen::new(process),
            conflicts: ConflictIndex::new(),
            info: BTreeMap::new(),
            executor: GraphExecutor::new(process, shard, config),
            metrics: ProtocolMetrics::default(),
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
        // Janus* has no periodic tasks; recovery is out of scope for the baseline.
        Vec::new()
    }

    fn submit(&mut self, cmd: Command, _now_us: u64) -> Vec<Action<Message>> {
        assert!(cmd.accesses(self.shard));
        let dot = self.dot_gen.next_id();
        let mut quorums = BTreeMap::new();
        for shard in cmd.shards() {
            quorums.insert(
                shard,
                self.view.fast_quorum(shard, self.config.fast_quorum_size()),
            );
        }
        let targets = self.view.local_coordinators(&cmd);
        vec![Action::send(
            targets,
            Message::MSubmit { dot, cmd, quorums },
        )]
    }

    fn handle(&mut self, from: ProcessId, msg: Message, _now_us: u64) -> Vec<Action<Message>> {
        let mut out = Vec::new();
        match msg {
            Message::MSubmit { dot, cmd, quorums } => {
                // This process coordinates the command at its own shard.
                let mut quorum = quorums
                    .get(&self.shard)
                    .cloned()
                    .expect("quorums cover the coordinator's shard");
                let collect = Message::MCollect {
                    dot,
                    cmd,
                    quorum: quorum.clone(),
                    deps: BTreeSet::new(),
                };
                // Destinations go out in identifier order, whatever the view's order.
                quorum.sort_unstable();
                out.push(Action::send(quorum, collect));
            }
            Message::MCollect {
                dot,
                cmd,
                quorum,
                deps: coordinator_deps,
            } => {
                {
                    let info = self.info_mut(dot);
                    if info.phase != Phase::Start {
                        return out;
                    }
                    info.phase = Phase::Collect;
                    info.cmd = Some(cmd.clone());
                    info.quorum = quorum;
                }
                let keys: Vec<u64> = cmd.keys_of(self.shard).collect();
                let mut deps = self.conflicts.dependencies(dot, &keys, cmd.is_read_only());
                deps.extend(coordinator_deps);
                self.info_mut(dot).own_deps = deps.clone();
                let ack = Message::MCollectAck { dot, deps };
                out.push(Action::send_one(from, ack));
            }
            Message::MCollectAck { dot, deps } => {
                let f = self.config.f();
                let ready = {
                    let Some(info) = self.info.get_mut(&dot) else {
                        return out;
                    };
                    if info.phase != Phase::Collect || info.deps_sent {
                        return out;
                    }
                    info.acks.insert(from, deps);
                    !info.quorum.is_empty() && info.quorum.iter().all(|q| info.acks.contains_key(q))
                };
                if !ready {
                    return out;
                }
                let (cmd, union, fast) = {
                    let info = self.info.get(&dot).expect("info exists");
                    let mut union = BTreeSet::new();
                    for deps in info.acks.values() {
                        union.extend(deps.iter().copied());
                    }
                    // Atlas-style fast-path condition; with the evaluation's f = 1 it
                    // always holds, otherwise one extra (local) round is modelled by the
                    // slow-path counter.
                    let fast = union
                        .iter()
                        .all(|dep| info.acks.values().filter(|d| d.contains(dep)).count() >= f);
                    (info.cmd.clone().expect("payload known"), union, fast)
                };
                if fast {
                    self.metrics.fast_paths += 1;
                } else {
                    self.metrics.slow_paths += 1;
                }
                self.info_mut(dot).deps_sent = true;
                // Non-genuine step: broadcast this shard's dependencies to every replica
                // of every shard the command accesses.
                let targets = self.view.all_replicas(&cmd);
                let msg = Message::MShardDeps {
                    dot,
                    shard: self.shard,
                    cmd,
                    deps: union,
                };
                out.push(Action::send(targets, msg));
            }
            Message::MShardDeps {
                dot,
                shard,
                cmd,
                deps,
            } => {
                {
                    let info = self.info_mut(dot);
                    if info.cmd.is_none() {
                        info.cmd = Some(cmd);
                    }
                    info.shard_deps.insert(shard, deps);
                }
                self.try_commit(dot, &mut out);
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

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_kernel::harness::LocalCluster;
    use tempo_kernel::id::Rifl;
    use tempo_kernel::KVOp;

    fn two_shard_cmd(client: u64, seq: u64, k0: u64, k1: u64) -> Command {
        Command::new(
            Rifl::new(client, seq),
            vec![(0, k0, KVOp::Add(1)), (1, k1, KVOp::Add(1))],
            0,
        )
    }

    #[test]
    fn single_shard_command_executes() {
        let config = Config::new(3, 1, 2);
        let mut cluster = LocalCluster::<Janus>::new(config);
        cluster.submit(0, Command::single(Rifl::new(1, 1), 0, 5, KVOp::Put(1), 0));
        cluster.tick_all(5_000);
        assert_eq!(cluster.executed(0).len(), 1);
        assert_eq!(cluster.executed(1).len(), 1);
        // Shard-1 processes never see the command (it only accesses shard 0).
        assert_eq!(cluster.process(3).metrics().committed, 0);
    }

    #[test]
    fn multi_shard_command_executes_at_both_shards() {
        let config = Config::new(3, 1, 2);
        let mut cluster = LocalCluster::<Janus>::new(config);
        cluster.submit(0, two_shard_cmd(1, 1, 10, 20));
        cluster.tick_all(5_000);
        // Executed at the shard-0 and shard-1 replicas of site 0.
        assert_eq!(cluster.executed(0).len(), 1);
        assert_eq!(cluster.executed(3).len(), 1);
    }

    #[test]
    fn dependencies_union_across_shards() {
        let config = Config::new(3, 1, 2);
        let mut cluster = LocalCluster::<Janus>::new(config);
        // First command touches keys (0:7) and (1:9).
        cluster.submit(0, two_shard_cmd(1, 1, 7, 9));
        cluster.tick_all(5_000);
        // Second command conflicts with the first on shard 1 only.
        cluster.submit(1, two_shard_cmd(2, 1, 8, 9));
        cluster.tick_all(5_000);
        let dot2 = Dot::new(1, 1);
        let deps = cluster.process(0).committed_deps(dot2).expect("committed");
        assert!(
            deps.contains(&Dot::new(0, 1)),
            "cross-shard conflict must appear in the union: {deps:?}"
        );
        assert_eq!(cluster.executed(0).len(), 2);
    }

    #[test]
    fn conflicting_multi_shard_commands_execute_in_the_same_order() {
        let config = Config::new(3, 1, 2);
        let mut cluster = LocalCluster::<Janus>::new(config);
        for site in 0..3u64 {
            cluster.submit_no_deliver(site, two_shard_cmd(site, 1, 0, 0));
        }
        cluster.run_to_quiescence();
        for _ in 0..5 {
            cluster.tick_all(5_000);
        }
        // Shard-0 replicas all execute the three conflicting commands in the same order.
        let reference: Vec<Rifl> = cluster.executed(0).into_iter().map(|e| e.rifl).collect();
        assert_eq!(reference.len(), 3);
        for p in [1u64, 2] {
            let order: Vec<Rifl> = cluster.executed(p).into_iter().map(|e| e.rifl).collect();
            assert_eq!(order, reference, "divergent order at shard-0 replica {p}");
        }
        // And so do shard-1 replicas, in the same relative order.
        let shard1: Vec<Rifl> = cluster.executed(3).into_iter().map(|e| e.rifl).collect();
        assert_eq!(
            shard1, reference,
            "shards disagree on conflicting command order"
        );
    }

    #[test]
    fn write_heavy_workloads_produce_more_dependencies_than_read_only() {
        // Two coordinators, so dependency compression can tell the workloads apart:
        // a read chains only to the *same* coordinator's previous read, while a write
        // depends on the latest read/write from *every* coordinator.
        let config = Config::new(3, 1, 2);
        let run = |write: bool| {
            let mut cluster = LocalCluster::<Janus>::new(config);
            for seq in 1..=10u64 {
                let op = if write { KVOp::Add(1) } else { KVOp::Get };
                let cmd = Command::new(Rifl::new(0, seq), vec![(0, 0, op), (1, 0, op)], 0);
                cluster.submit((seq - 1) % 2, cmd);
            }
            cluster.tick_all(5_000);
            let last = Dot::new(1, 5);
            cluster.process(0).committed_deps(last).unwrap().len()
        };
        let read_only = run(false);
        let writes = run(true);
        assert!(
            writes > read_only,
            "writes ({writes} deps) should accumulate more dependencies than reads ({read_only})"
        );
    }
}
