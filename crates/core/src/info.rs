//! Per-command bookkeeping (`cmd`, `ts`, `phase`, `quorums`, `bal`, `abal` of Table 3),
//! plus the transient coordinator state attached to each command. The recovery state of
//! a command that stalls lives in `Recovery` (`recovery.rs`).

use crate::messages::{Quorums, RecPhase};
use crate::promises::PromiseRange;
use crate::stability::Bucket;
use std::collections::{BTreeMap, BTreeSet};
use tempo_kernel::command::Command;
use tempo_kernel::id::{ProcessId, ShardId};

/// The phase of a command at a process (Figure 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Nothing known yet.
    Start,
    /// Payload known (process outside the fast quorum).
    Payload,
    /// Payload known and a timestamp proposal has been made (fast-quorum process).
    Propose,
    /// Recovery reached this process before it had made a proposal (`recover-r`).
    RecoverR,
    /// Recovery reached this process after it made a proposal in `MPropose` (`recover-p`).
    RecoverP,
    /// The command's timestamp is known.
    Commit,
    /// The command has been executed.
    Execute,
}

impl Phase {
    /// `pending = payload ∪ propose ∪ recover-r ∪ recover-p` (§3.1).
    pub fn is_pending(&self) -> bool {
        matches!(
            self,
            Phase::Payload | Phase::Propose | Phase::RecoverR | Phase::RecoverP
        )
    }

    /// Whether the command is committed or executed.
    pub fn is_committed_or_executed(&self) -> bool {
        matches!(self, Phase::Commit | Phase::Execute)
    }

    /// The recovery sub-phase to report in `MRecAck`, if any.
    pub fn rec_phase(&self) -> Option<RecPhase> {
        match self {
            Phase::RecoverR => Some(RecPhase::RecoverR),
            Phase::RecoverP => Some(RecPhase::RecoverP),
            _ => None,
        }
    }
}

/// Everything a process knows about one command.
#[derive(Debug, Clone)]
pub struct CommandInfo {
    /// Current phase.
    pub phase: Phase,
    /// The command payload, once known.
    pub cmd: Option<Command>,
    /// The fast quorum per accessed shard, once known.
    pub quorums: Quorums,
    /// This shard's timestamp for the command: the local proposal, then the consensus
    /// value, then the committed per-shard timestamp.
    pub ts: u64,
    /// Highest ballot joined for this command's consensus instance.
    pub bal: u64,
    /// Highest ballot at which a consensus value was accepted (0 = none).
    pub abal: u64,
    /// The final timestamp (maximum over all accessed shards), valid once committed.
    pub final_ts: u64,

    // ---- coordinator-side state ----
    /// Timestamp proposals received in `MProposeAck`, by fast-quorum process.
    pub proposals: BTreeMap<ProcessId, u64>,
    /// Detached promises piggybacked on `MProposeAck`, to be forwarded in `MCommit`.
    pub proposal_detached: Vec<(ProcessId, Bucket, PromiseRange)>,
    /// `MConsensusAck` senders for the current ballot.
    pub consensus_acks: BTreeSet<ProcessId>,
    /// Whether this process, as coordinator, already sent `MCommit` for its shard.
    pub commit_sent: bool,

    // ---- commit collection (multi-shard) ----
    /// Per-shard committed timestamps received in `MCommit`.
    pub shard_commits: BTreeMap<ShardId, u64>,

    /// Time (µs) at which this process first learned about the command: the age the
    /// liveness scan measures.
    pub since_us: u64,
}

impl CommandInfo {
    /// Creates the initial (start-phase) info for a command first seen at `now_us`.
    pub fn new(now_us: u64) -> Self {
        Self {
            phase: Phase::Start,
            cmd: None,
            quorums: Quorums::new(),
            ts: 0,
            bal: 0,
            abal: 0,
            final_ts: 0,
            proposals: BTreeMap::new(),
            proposal_detached: Vec::new(),
            consensus_acks: BTreeSet::new(),
            commit_sent: false,
            shard_commits: BTreeMap::new(),
            since_us: now_us,
        }
    }

    /// Stores the payload and quorums if not yet known.
    pub fn learn_payload(&mut self, cmd: &Command, quorums: &Quorums) {
        if self.cmd.is_none() {
            self.cmd = Some(cmd.clone());
        }
        if self.quorums.is_empty() {
            self.quorums = quorums.clone();
        }
    }

    /// Whether the payload is known.
    pub fn has_payload(&self) -> bool {
        self.cmd.is_some()
    }

    /// Whether per-shard commits have been received from every accessed shard (so the
    /// final timestamp can be computed, Algorithm 3 line 58).
    pub fn all_shards_committed(&self) -> bool {
        match &self.cmd {
            None => false,
            Some(cmd) => cmd.shards().all(|s| self.shard_commits.contains_key(&s)),
        }
    }

    /// The final timestamp: the maximum of the per-shard committed timestamps.
    pub fn max_shard_commit(&self) -> u64 {
        self.shard_commits.values().copied().max().unwrap_or(0)
    }

    /// Moves to `Execute`, dropping the transient coordinator state. The payload stays,
    /// so this process can keep answering `MCommitRequest`/`MRec` (Appendix B liveness)
    /// until the executed-watermark GC proves none can arrive.
    pub fn mark_executed(&mut self) {
        self.phase = Phase::Execute;
        self.proposal_detached.clear();
        self.proposals.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_kernel::command::KVOp;
    use tempo_kernel::id::Rifl;

    #[test]
    fn phase_predicates() {
        assert!(!Phase::Start.is_pending());
        assert!(Phase::Payload.is_pending());
        assert!(Phase::Propose.is_pending());
        assert!(Phase::RecoverR.is_pending());
        assert!(Phase::RecoverP.is_pending());
        assert!(!Phase::Commit.is_pending());
        assert!(Phase::Commit.is_committed_or_executed());
        assert!(Phase::Execute.is_committed_or_executed());
        assert_eq!(Phase::RecoverR.rec_phase(), Some(RecPhase::RecoverR));
        assert_eq!(Phase::Propose.rec_phase(), None);
    }

    #[test]
    fn commit_collection_across_shards() {
        let mut info = CommandInfo::new(0);
        let cmd = Command::new(
            Rifl::new(1, 1),
            vec![(0, 1, KVOp::Get), (1, 2, KVOp::Get)],
            0,
        );
        assert!(!info.all_shards_committed());
        info.learn_payload(&cmd, &Quorums::new());
        assert!(info.has_payload());
        info.shard_commits.insert(0, 6);
        assert!(!info.all_shards_committed());
        info.shard_commits.insert(1, 10);
        assert!(info.all_shards_committed());
        assert_eq!(info.max_shard_commit(), 10);
    }

    #[test]
    fn learn_payload_is_idempotent() {
        let mut info = CommandInfo::new(0);
        let cmd1 = Command::single(Rifl::new(1, 1), 0, 1, KVOp::Get, 0);
        let quorums = Quorums::from([(0, vec![0, 1, 2])]);
        info.learn_payload(&cmd1, &quorums);
        let cmd2 = Command::single(Rifl::new(2, 2), 0, 9, KVOp::Get, 0);
        info.learn_payload(&cmd2, &Quorums::new());
        assert_eq!(info.cmd.as_ref().unwrap().rifl, Rifl::new(1, 1));
        assert_eq!(info.quorums, quorums);
    }
}
