//! Wire messages of the Tempo protocol (Algorithms 1-6).
//!
//! Message names follow the paper: `MSubmit`, `MPropose`, `MPayload`, `MProposeAck`,
//! `MCommit`, `MConsensus`, `MConsensusAck`, `MBump`, `MPromises`, `MStable`, `MRec`,
//! `MRecAck`, `MRecNAck` and `MCommitRequest`. One addition, `MCommitInfo`, is used to
//! answer an `MCommitRequest` with the final timestamp of an already-committed command
//! (the paper answers with an `MPayload`/`MCommit` pair; carrying the final timestamp
//! directly is equivalent because committed timestamps are unique, Property 1).

use crate::promises::PromiseRange;
use crate::stability::Bucket;
use std::collections::BTreeMap;
use tempo_kernel::command::Command;
use tempo_kernel::id::{Dot, ProcessId, ShardId};
use tempo_kernel::protocol::WireSize;
use tempo_store::AppliedImage;

/// The fast quorum chosen for each shard accessed by a command (the mapping `Q` of
/// Algorithm 1, line 3).
pub type Quorums = BTreeMap<ShardId, Vec<ProcessId>>;

/// Promises piggybacked on `MProposeAck`/`MCommit` messages to speed up stability
/// detection (§3.2, "In our implementation, promises generated by fast-quorum processes
/// [...] are piggybacked on the MProposeAck message, and then broadcast by the coordinator
/// in the MCommit message").
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PromiseBundle {
    /// Attached promises for the command being committed: `(process, timestamp)`.
    pub attached: Vec<(ProcessId, u64)>,
    /// Detached promise ranges issued by processes while proposing, by bucket.
    pub detached: Vec<(ProcessId, Bucket, PromiseRange)>,
}

impl PromiseBundle {
    /// Whether the bundle carries no promises.
    pub fn is_empty(&self) -> bool {
        self.attached.is_empty() && self.detached.is_empty()
    }

    /// Approximate serialized size in bytes (a bucket number takes 2).
    pub fn wire_size(&self) -> usize {
        self.attached.len() * 16 + self.detached.len() * 26
    }
}

/// The recovery sub-phase a process reports in `MRecAck` (Algorithm 4): whether its
/// timestamp proposal was computed in the `MPropose` handler (`RecoverP`) or in the
/// `MRec` handler (`RecoverR`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecPhase {
    /// The proposal was computed while handling `MPropose` (phase `recover-p`).
    RecoverP,
    /// The proposal was computed while handling `MRec` (phase `recover-r`).
    RecoverR,
}

/// A Tempo protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// Client submission forwarded to the per-shard coordinators `I^i_c`
    /// (Algorithm 1, line 4).
    MSubmit {
        /// Command identifier.
        dot: Dot,
        /// The command payload.
        cmd: Command,
        /// Fast quorum per accessed shard.
        quorums: Quorums,
    },
    /// Coordinator's proposal sent to its shard's fast quorum (line 7).
    MPropose {
        /// Command identifier.
        dot: Dot,
        /// The command payload.
        cmd: Command,
        /// Fast quorum per accessed shard.
        quorums: Quorums,
        /// The coordinator's timestamp proposal.
        ts: u64,
    },
    /// Command payload sent to the shard processes outside the fast quorum (line 8).
    MPayload {
        /// Command identifier.
        dot: Dot,
        /// The command payload.
        cmd: Command,
        /// Fast quorum per accessed shard.
        quorums: Quorums,
    },
    /// Fast-quorum reply carrying the process's timestamp proposal (line 16), plus the
    /// detached promises generated while computing it (piggybacking optimization).
    MProposeAck {
        /// Command identifier.
        dot: Dot,
        /// This process's timestamp proposal.
        ts: u64,
        /// Detached promises generated by `proposal`, by bucket.
        detached: Vec<(Bucket, PromiseRange)>,
    },
    /// Commit notification for one shard, sent to every process replicating a shard
    /// accessed by the command (lines 20, 24 and 33).
    MCommit {
        /// Command identifier.
        dot: Dot,
        /// The shard whose timestamp this message carries.
        shard: ShardId,
        /// The timestamp committed at `shard`.
        ts: u64,
        /// Promises collected by the coordinator (piggybacking optimization).
        promises: PromiseBundle,
    },
    /// Flexible-Paxos phase-2a message used by the slow path and by recovery (line 21/25).
    MConsensus {
        /// Command identifier.
        dot: Dot,
        /// The consensus proposal (a timestamp).
        ts: u64,
        /// The proposer's ballot.
        ballot: u64,
    },
    /// Flexible-Paxos phase-2b acknowledgement (line 30/34).
    MConsensusAck {
        /// Command identifier.
        dot: Dot,
        /// The accepted ballot.
        ballot: u64,
    },
    /// Clock-bump hint sent to colocated processes of sibling shards so that stability is
    /// reached earlier for multi-partition commands (Algorithm 3, lines 67-71).
    MBump {
        /// Command identifier.
        dot: Dot,
        /// The timestamp proposal to bump to.
        ts: u64,
        /// The buckets of the command's keys on the receiver's shard, the ones to bump
        /// (the receiver may not have the payload yet).
        buckets: Vec<Bucket>,
    },
    /// Periodic broadcast of locally generated promises (Algorithm 2, line 45), which
    /// also piggybacks the sender's executed watermarks for committed-command GC
    /// (see [`crate::gc`]): per origin, the highest contiguous dot sequence the sender
    /// has executed.
    MPromises {
        /// Detached promise ranges issued by the sender, by bucket.
        detached: Vec<(Bucket, PromiseRange)>,
        /// Attached promises issued by the sender: `(command, timestamp)`.
        attached: Vec<(Dot, u64)>,
        /// Executed watermarks of the sender: `(origin, highest contiguous sequence)`.
        executed: Vec<(ProcessId, u64)>,
        /// The sender's *safe promise frontiers* that advanced since it last sent them,
        /// as `(bucket, frontier)`: every timestamp `≤ frontier` is promised by the
        /// sender in that bucket, and every **attached** promise among them belongs to a
        /// command already executed at every shard peer (GC-eligible). The receiver may
        /// therefore absorb `[1, frontier]` wholesale without violating the commit-gating
        /// of attached promises (Algorithm 2, line 47) — which makes promise
        /// dissemination *cumulative*: an `MPromises` delta lost to the network would
        /// otherwise leave a permanent gap in the receiver's view of the sender's prefix
        /// and freeze stability there until a promise repair (the lossy-link nemesis
        /// found exactly that).
        frontiers: Vec<(Bucket, u64)>,
    },
    /// Signals that the command is stable (and thus about to execute) at the sender's
    /// shard (Algorithm 3, line 64).
    MStable {
        /// Command identifier.
        dot: Dot,
    },
    /// Recovery phase-1a message (Algorithm 4, line 75).
    MRec {
        /// Command identifier.
        dot: Dot,
        /// The recovery ballot.
        ballot: u64,
    },
    /// Recovery phase-1b reply (Algorithm 4, line 85).
    MRecAck {
        /// Command identifier.
        dot: Dot,
        /// The replier's timestamp proposal for the command.
        ts: u64,
        /// Where the proposal was computed.
        phase: RecPhase,
        /// The last ballot at which a consensus proposal was accepted (0 = none).
        abal: u64,
        /// The ballot being answered.
        ballot: u64,
    },
    /// Tells a would-be coordinator that a higher ballot exists (Algorithm 6, line 81).
    MRecNAck {
        /// Command identifier.
        dot: Dot,
        /// The higher ballot.
        ballot: u64,
    },
    /// Asks any process that has committed the command to share the commit
    /// (Algorithm 6, line 96).
    MCommitRequest {
        /// Command identifier.
        dot: Dot,
    },
    /// Answer to `MCommitRequest`: the command payload and its final timestamp.
    MCommitInfo {
        /// Command identifier.
        dot: Dot,
        /// The command payload.
        cmd: Command,
        /// The command's final (across-shards) timestamp.
        ts: u64,
    },
    /// Asks the shard peers to re-state their promises (sent, rate limited, by a
    /// process whose execution stalled: committed commands exist but stability stopped
    /// advancing — the signature of promise deltas lost to the network).
    MPromiseRequest,
    /// Reply to `MPromiseRequest`: the sender's complete promise state, compressed.
    /// In each bucket of `clocks`, everything in `[1, clock]` is promised by the sender
    /// **except** that each entry of `pending` is attached to a command not yet executed
    /// at every shard peer — the receiver must keep those behind the commit gate of
    /// Algorithm 2, line 47.
    MPromiseRepair {
        /// The sender's clock per bucket that has one: it will never propose at or
        /// below it there.
        clocks: Vec<(Bucket, u64)>,
        /// Attached promises whose command is not known to be executed everywhere, as
        /// `(bucket, timestamp, command)`, sorted.
        pending: Vec<(Bucket, u64, Dot)>,
    },
    /// Sent by a process restarted with volatile state lost, asking its shard peers for
    /// the timestamping state it must not contradict. Not part of the paper (which
    /// assumes crash-stop processes); see `DESIGN.md` §5 for the safety argument.
    MRejoin,
    /// Reply to `MRejoin`. The rejoining process takes `max(clock, your_highest)` over a
    /// recovery quorum of replies as its new clock floor, and seeds its promise tracker
    /// from `prefixes`.
    MRejoinAck {
        /// The replier's highest clock over its buckets.
        clock: u64,
        /// The highest promise the replier has recorded from the rejoining process
        /// (detached ranges included), over every bucket.
        your_highest: u64,
        /// The replier's contiguous promise prefix per bucket and shard process, as
        /// `(bucket, process, prefix)`, where it is not 0.
        prefixes: Vec<(Bucket, ProcessId, u64)>,
    },
    /// Sent by a replica that completed the `MRejoin` handshake, asking a shard peer
    /// for a snapshot of the applied state: even a replica with a durable store misses
    /// every command committed while it was down, and it must not serve reads around
    /// that gap. See `DESIGN.md` §6 ("State transfer").
    MStateRequest,
    /// Reply to `MStateRequest`: the sender's applied image, the one a snapshot holds.
    /// It contains the effect of exactly the commands at or below each bucket's
    /// execution floor, which is what makes installation safe: in every bucket where the
    /// image is ahead, the receiver takes its keys, drops queued commits at or below the
    /// floor, and executes everything above it on top, reproducing the shard's order.
    /// The image's queue holds the commands a receiver that was down can learn nowhere
    /// else in time (DESIGN.md §6, "The revised restart story"); its watermarks seed
    /// the receiver's GC.
    MState(AppliedImage),
}

impl Message {
    /// The dot the message is about, if any (`MPromises`, the promise repair, the rejoin
    /// handshake and the state transfer are dot-free).
    pub fn dot(&self) -> Option<Dot> {
        match self {
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

impl WireSize for Message {
    fn wire_size(&self) -> usize {
        // Rough serialized sizes (a bucket number takes 2 bytes); command-carrying
        // messages dominate.
        match self {
            Message::MSubmit { cmd, quorums, .. }
            | Message::MPropose { cmd, quorums, .. }
            | Message::MPayload { cmd, quorums, .. } => {
                32 + cmd.wire_size() + quorums.values().map(|q| 8 * q.len() + 8).sum::<usize>()
            }
            Message::MProposeAck { detached, .. } => 32 + detached.len() * 18,
            Message::MCommit { promises, .. } => 40 + promises.wire_size(),
            Message::MPromises {
                detached,
                attached,
                executed,
                frontiers,
            } => {
                16 + detached.len() * 18
                    + attached.len() * 24
                    + executed.len() * 16
                    + frontiers.len() * 10
            }
            Message::MCommitInfo { cmd, .. } => 32 + cmd.wire_size(),
            Message::MPromiseRepair { clocks, pending } => {
                16 + clocks.len() * 10 + pending.len() * 26
            }
            Message::MRejoinAck { prefixes, .. } => 32 + prefixes.len() * 18,
            Message::MState(image) => {
                16 + image.floors.len() * 26
                    + image.kv.len() * 16
                    + image.watermarks.len() * 16
                    + image
                        .queued
                        .iter()
                        .map(|q| 40 + q.cmd.wire_size() + q.waits.len() * 8)
                        .sum::<usize>()
            }
            _ => 40,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_kernel::command::KVOp;
    use tempo_kernel::id::Rifl;

    #[test]
    fn payload_messages_are_larger_than_control_messages() {
        let cmd = Command::single(Rifl::new(1, 1), 0, 7, KVOp::Put(1), 4096);
        let dot = Dot::new(0, 1);
        let quorums = Quorums::from([(0, vec![0, 1, 2])]);
        let propose = Message::MPropose {
            dot,
            cmd: cmd.clone(),
            quorums: quorums.clone(),
            ts: 1,
        };
        let ack = Message::MProposeAck {
            dot,
            ts: 1,
            detached: vec![],
        };
        assert!(propose.wire_size() > 4096);
        assert!(ack.wire_size() < 100);
    }

    #[test]
    fn promise_bundle_size_and_emptiness() {
        let mut bundle = PromiseBundle::default();
        assert!(bundle.is_empty());
        assert_eq!(bundle.wire_size(), 0);
        bundle.attached.push((1, 5));
        bundle.detached.push((2, 9, PromiseRange::new(1, 4)));
        assert!(!bundle.is_empty());
        assert_eq!(bundle.wire_size(), 42);
    }
}
