//! `tempo-fpaxos` — the Flexible Paxos baseline of the paper's evaluation (§6).
//!
//! Flexible Paxos is a leader-based SMR protocol that decouples the failure threshold `f`
//! from the replication factor `n`: during normal operation the leader replicates each
//! command on a write quorum of only `f + 1` processes (itself included); recovery uses
//! quorums of `n - f`. Commands execute in slot order at every replica.
//!
//! The implementation models steady-state operation with a fixed leader (the paper places
//! it in the region that minimises average latency, Ireland in Figure 5). Clients attached
//! to other sites forward their commands to the leader, which is what makes the protocol
//! unfair with respect to client locations and turns the leader into a throughput
//! bottleneck (Figures 5 and 7).
//!
//! # Quick start
//!
//! ```
//! use tempo_fpaxos::FPaxos;
//! use tempo_kernel::harness::LocalCluster;
//! use tempo_kernel::{Command, Config, KVOp, Rifl};
//!
//! let config = Config::full(5, 1);
//! let mut cluster = LocalCluster::<FPaxos>::new(config);
//! // Submitted at a non-leader replica: the command is forwarded to the leader.
//! cluster.submit(3, Command::single(Rifl::new(1, 1), 0, 0, KVOp::Put(1), 0));
//! assert_eq!(cluster.executed(3).len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeMap, BTreeSet};
use tempo_kernel::command::Command;
use tempo_kernel::config::Config;
use tempo_kernel::id::{ProcessId, Rifl, ShardId};
use tempo_kernel::kvstore::KVStore;
use tempo_kernel::membership::Membership;
use tempo_kernel::protocol::{
    Action, Executed, Executor, Protocol, ProtocolMetrics, TimerId, View, WireSize,
};

/// A chosen command with its log slot, handed to the slot executor.
#[derive(Debug, Clone)]
pub struct SlotInfo {
    /// The log slot the command was chosen for.
    pub slot: u64,
    /// The chosen command.
    pub cmd: Command,
}

/// The Flexible Paxos execution stage: applies chosen commands in contiguous slot order
/// (the classic replicated log), independently of the accept/decide message flow.
#[derive(Debug)]
pub struct SlotExecutor {
    shard: ShardId,
    /// Decided log: slot -> command.
    decided: BTreeMap<u64, Command>,
    /// Next slot to execute.
    execute_next: u64,
    kv: KVStore,
    executed_count: u64,
}

impl SlotExecutor {
    /// Whether a slot has already been decided at this replica.
    pub fn is_decided(&self, slot: u64) -> bool {
        self.decided.contains_key(&slot)
    }

    /// Number of log slots decided at this replica.
    pub fn decided_slots(&self) -> u64 {
        self.decided.len() as u64
    }

    /// Read access to the replicated store (tests and diagnostics).
    pub fn store(&self) -> &KVStore {
        &self.kv
    }
}

impl Executor for SlotExecutor {
    type Info = SlotInfo;

    fn new(_process: ProcessId, shard: ShardId, _config: Config) -> Self {
        Self {
            shard,
            decided: BTreeMap::new(),
            execute_next: 0,
            kv: KVStore::new(),
            executed_count: 0,
        }
    }

    fn handle(&mut self, info: SlotInfo) -> Vec<Executed> {
        if self.decided.insert(info.slot, info.cmd).is_some() {
            return Vec::new();
        }
        let mut out = Vec::new();
        while let Some(cmd) = self.decided.get(&self.execute_next).cloned() {
            let result = self.kv.execute(self.shard, &cmd);
            out.push(Executed {
                rifl: cmd.rifl,
                result,
            });
            self.executed_count += 1;
            self.execute_next += 1;
        }
        out
    }

    fn executed(&self) -> u64 {
        self.executed_count
    }
}

/// Flexible Paxos wire messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// A command forwarded from a non-leader replica to the leader.
    MForward {
        /// The command payload.
        cmd: Command,
    },
    /// Phase-2a: the leader proposes a command for a slot to its write quorum.
    MAccept {
        /// The log slot.
        slot: u64,
        /// The leader's ballot.
        ballot: u64,
        /// The command payload.
        cmd: Command,
    },
    /// Phase-2b: an acceptor acknowledges a proposal.
    MAccepted {
        /// The log slot.
        slot: u64,
        /// The accepted ballot.
        ballot: u64,
    },
    /// The leader announces a chosen command to every replica.
    MDecided {
        /// The log slot.
        slot: u64,
        /// The chosen command.
        cmd: Command,
    },
}

impl WireSize for Message {
    fn wire_size(&self) -> usize {
        match self {
            Message::MForward { cmd } => 16 + cmd.wire_size(),
            Message::MAccept { cmd, .. } | Message::MDecided { cmd, .. } => 32 + cmd.wire_size(),
            Message::MAccepted { .. } => 32,
        }
    }
}

/// The Flexible Paxos instance at one process.
#[derive(Debug)]
pub struct FPaxos {
    process: ProcessId,
    shard: ShardId,
    config: Config,
    view: View,
    shard_peers: Vec<ProcessId>,
    leader: ProcessId,
    ballot: u64,
    /// Leader state: next slot to assign.
    next_slot: u64,
    /// Leader state: in-flight proposals (slot -> (command, acks)).
    proposals: BTreeMap<u64, (Command, BTreeSet<ProcessId>)>,
    /// Leader state: commands already assigned a slot. The network can duplicate an
    /// `MForward` frame; without this, the leader would propose the same command into
    /// two slots and every replica would execute it twice.
    proposed: BTreeSet<Rifl>,
    /// The execution stage: the slot-ordered log executor.
    executor: SlotExecutor,
    metrics: ProtocolMetrics,
}

impl FPaxos {
    /// The current leader of the shard (the lowest-identifier replica by default).
    pub fn leader(&self) -> ProcessId {
        self.leader
    }

    /// Whether this process is the leader.
    pub fn is_leader(&self) -> bool {
        self.leader == self.process
    }

    /// Overrides the leader (used by the benchmarks to place it at a specific region,
    /// as the paper does with Ireland).
    pub fn set_leader(&mut self, leader: ProcessId) {
        assert!(
            self.shard_peers.contains(&leader),
            "leader must replicate this shard"
        );
        self.leader = leader;
    }

    /// Number of log slots decided at this replica.
    pub fn decided_slots(&self) -> u64 {
        self.executor.decided_slots()
    }

    /// The leader's write quorum: itself plus the `f` closest other replicas, in
    /// identifier order.
    fn write_quorum(&self) -> Vec<ProcessId> {
        let mut quorum = vec![self.process];
        for p in self.view.closest(self.shard) {
            if quorum.len() >= self.config.slow_quorum_size() {
                break;
            }
            if *p != self.process {
                quorum.push(*p);
            }
        }
        quorum.sort_unstable();
        quorum
    }

    fn leader_propose(&mut self, cmd: Command, out: &mut Vec<Action<Message>>) {
        debug_assert!(self.is_leader());
        if !self.proposed.insert(cmd.rifl) {
            // Duplicate submission (a re-forwarded or network-duplicated frame): the
            // command already owns a slot.
            return;
        }
        let slot = self.next_slot;
        self.next_slot += 1;
        self.proposals.insert(slot, (cmd.clone(), BTreeSet::new()));
        let quorum = self.write_quorum();
        let msg = Message::MAccept {
            slot,
            ballot: self.ballot,
            cmd,
        };
        out.push(Action::send(quorum, msg));
    }

    fn handle_accept(
        &mut self,
        from: ProcessId,
        slot: u64,
        ballot: u64,
        cmd: Command,
        out: &mut Vec<Action<Message>>,
    ) {
        if ballot < self.ballot {
            return;
        }
        self.ballot = ballot;
        // Acceptors only store the proposal; the decided log is written on MDecided.
        let _ = cmd;
        let ack = Message::MAccepted { slot, ballot };
        out.push(Action::send_one(from, ack));
    }

    fn handle_accepted(
        &mut self,
        from: ProcessId,
        slot: u64,
        ballot: u64,
        out: &mut Vec<Action<Message>>,
    ) {
        if !self.is_leader() || ballot != self.ballot {
            return;
        }
        let decided = {
            let (_, acks) = match self.proposals.get_mut(&slot) {
                Some(entry) => entry,
                None => return,
            };
            acks.insert(from);
            acks.len() >= self.config.slow_quorum_size()
        };
        if !decided {
            return;
        }
        let (cmd, _) = self.proposals.remove(&slot).expect("proposal exists");
        self.metrics.fast_paths += 1;
        let msg = Message::MDecided { slot, cmd };
        out.push(Action::send(self.shard_peers.clone(), msg));
    }

    fn handle_decided(&mut self, slot: u64, cmd: Command, out: &mut Vec<Action<Message>>) {
        if self.executor.is_decided(slot) {
            return;
        }
        self.metrics.committed += 1;
        let executed = self.executor.handle(SlotInfo { slot, cmd });
        out.extend(executed.into_iter().map(Action::Deliver));
    }
}

impl Protocol for FPaxos {
    type Message = Message;
    type Executor = SlotExecutor;

    const NAME: &'static str = "FPaxos";

    fn new(process: ProcessId, shard: ShardId, config: Config) -> Self {
        let membership = Membership::from_config(&config);
        let shard_peers = membership.processes_of_shard(shard);
        let leader = shard_peers[0];
        Self {
            process,
            shard,
            config,
            view: View::trivial(config, process),
            shard_peers,
            leader,
            ballot: 1,
            next_slot: 0,
            proposals: BTreeMap::new(),
            proposed: BTreeSet::new(),
            executor: SlotExecutor::new(process, shard, config),
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
        // Steady-state Flexible Paxos has no periodic tasks (leader election and
        // re-proposals are out of scope, as in the paper's evaluation).
        Vec::new()
    }

    fn submit(&mut self, cmd: Command, _now_us: u64) -> Vec<Action<Message>> {
        assert!(cmd.accesses(self.shard));
        let mut out = Vec::new();
        if self.is_leader() {
            self.leader_propose(cmd, &mut out);
        } else {
            out.push(Action::send_one(self.leader, Message::MForward { cmd }));
        }
        out
    }

    fn handle(&mut self, from: ProcessId, msg: Message, _now_us: u64) -> Vec<Action<Message>> {
        let mut out = Vec::new();
        match msg {
            Message::MForward { cmd } => {
                if self.is_leader() {
                    self.leader_propose(cmd, &mut out);
                } else {
                    // The leader may have changed; forward again.
                    out.push(Action::send_one(self.leader, Message::MForward { cmd }));
                }
            }
            Message::MAccept { slot, ballot, cmd } => {
                self.handle_accept(from, slot, ballot, cmd, &mut out)
            }
            Message::MAccepted { slot, ballot } => {
                self.handle_accepted(from, slot, ballot, &mut out)
            }
            Message::MDecided { slot, cmd } => self.handle_decided(slot, cmd, &mut out),
        }
        out
    }

    fn timer(&mut self, _timer: TimerId, _now_us: u64) -> Vec<Action<Message>> {
        Vec::new()
    }

    fn executor(&self) -> &SlotExecutor {
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
    fn leader_is_lowest_process_by_default() {
        let config = Config::full(5, 1);
        let p = FPaxos::new(3, 0, config);
        assert_eq!(p.leader(), 0);
        assert!(!p.is_leader());
        assert!(FPaxos::new(0, 0, config).is_leader());
    }

    #[test]
    fn commands_submitted_at_the_leader_execute_everywhere() {
        let config = Config::full(5, 1);
        let mut cluster = LocalCluster::<FPaxos>::new(config);
        cluster.submit(0, cmd(1, 1, 7));
        for p in cluster.process_ids() {
            assert_eq!(cluster.executed(p).len(), 1, "missing execution at {p}");
        }
    }

    #[test]
    fn commands_submitted_elsewhere_are_forwarded_to_the_leader() {
        let config = Config::full(5, 1);
        let mut cluster = LocalCluster::<FPaxos>::new(config);
        cluster.submit(4, cmd(1, 1, 7));
        assert_eq!(
            cluster.process(0).metrics().fast_paths,
            1,
            "leader decided it"
        );
        assert_eq!(cluster.executed(4).len(), 1);
    }

    #[test]
    fn execution_follows_slot_order_at_every_replica() {
        let config = Config::full(3, 1);
        let mut cluster = LocalCluster::<FPaxos>::new(config);
        for seq in 1..=20u64 {
            cluster.submit((seq % 3) as ProcessId, cmd(seq % 3, seq, 0));
        }
        let reference: Vec<Rifl> = cluster.executed(0).into_iter().map(|e| e.rifl).collect();
        assert_eq!(reference.len(), 20);
        for p in [1u64, 2] {
            let order: Vec<Rifl> = cluster.executed(p).into_iter().map(|e| e.rifl).collect();
            assert_eq!(order, reference);
        }
    }

    #[test]
    fn write_quorum_has_f_plus_one_members() {
        let config = Config::full(5, 2);
        let mut cluster = LocalCluster::<FPaxos>::new(config);
        cluster.submit(0, cmd(1, 1, 0));
        // The leader plus f acceptors acknowledged; all replicas learn the decision.
        for p in cluster.process_ids() {
            assert_eq!(cluster.process(p).decided_slots(), 1);
        }
    }

    #[test]
    fn set_leader_moves_the_proposer() {
        let config = Config::full(3, 1);
        let mut cluster = LocalCluster::<FPaxos>::new(config);
        for p in cluster.process_ids() {
            cluster.process_mut(p).set_leader(2);
        }
        cluster.submit(0, cmd(1, 1, 0));
        assert_eq!(cluster.process(2).metrics().fast_paths, 1);
        assert_eq!(cluster.executed(0).len(), 1);
    }

    #[test]
    fn duplicated_forwards_are_proposed_once() {
        // The network can duplicate frames: the same MForward arriving twice must not
        // open a second slot (the command would execute twice at every replica).
        let config = Config::full(3, 1);
        let mut leader = FPaxos::new(0, 0, config);
        let c = cmd(6, 2, 0);
        let first = leader.handle(1, Message::MForward { cmd: c.clone() }, 0);
        let second = leader.handle(1, Message::MForward { cmd: c }, 0);
        assert!(!first.is_empty(), "first forward proposes");
        assert!(second.is_empty(), "duplicate forward is suppressed");
    }

    #[test]
    #[should_panic(expected = "leader must replicate this shard")]
    fn set_leader_rejects_foreign_processes() {
        let config = Config::full(3, 1);
        let mut p = FPaxos::new(0, 0, config);
        p.set_leader(99);
    }
}
