//! A canonical message fixture covering every [`Message`] variant with
//! representative field values — the input of the wire golden tests
//! (`tests/wire_golden.rs` pins its exact encoded bytes) and of the corrupt-frame
//! battery. Kept in the library so unit tests, integration tests and embedders
//! exercise one list; extending [`Message`] without extending this fixture fails the
//! exhaustiveness check in `tests/wire_golden.rs`.

use crate::messages::{Message, PromiseBundle, Quorums, RecPhase};
use crate::promises::PromiseRange;
use tempo_kernel::command::{Command, KVOp};
use tempo_kernel::id::{Dot, Rifl};
use tempo_store::{AppliedImage, QueuedCommit};

/// One message of every variant, with non-trivial nested fields.
pub fn all_messages() -> Vec<Message> {
    let dot = Dot::new(2, 9);
    let cmd = Command::new(
        Rifl::new(3, 4),
        vec![
            (0, 42, KVOp::Put(7)),
            (1, 9, KVOp::Add(2)),
            (1, 10, KVOp::Get),
        ],
        16,
    );
    let quorums = Quorums::from([(0u64, vec![0u64, 1, 2]), (1, vec![3, 4, 5])]);
    vec![
        Message::MSubmit {
            dot,
            cmd: cmd.clone(),
            quorums: quorums.clone(),
        },
        Message::MPropose {
            dot,
            cmd: cmd.clone(),
            quorums: quorums.clone(),
            ts: 11,
        },
        Message::MPayload {
            dot,
            cmd: cmd.clone(),
            quorums,
        },
        Message::MProposeAck {
            dot,
            ts: 12,
            detached: vec![(42, PromiseRange::new(5, 11))],
        },
        Message::MCommit {
            dot,
            shard: 1,
            ts: 13,
            promises: PromiseBundle {
                attached: vec![(0, 13), (1, 12)],
                detached: vec![(2, 42, PromiseRange::new(1, 4))],
            },
        },
        Message::MConsensus {
            dot,
            ts: 13,
            ballot: 7,
        },
        Message::MConsensusAck { dot, ballot: 7 },
        Message::MBump {
            dot,
            ts: 13,
            buckets: vec![9, 10],
        },
        Message::MPromises {
            detached: vec![(9, PromiseRange::new(2, 3)), (10, PromiseRange::new(6, 6))],
            attached: vec![(Dot::new(1, 1), 5)],
            executed: vec![(0, 30), (1, 28)],
            frontiers: vec![(9, 4), (4095, 1)],
        },
        Message::MStable { dot },
        Message::MRec { dot, ballot: 8 },
        Message::MRecAck {
            dot,
            ts: 13,
            phase: RecPhase::RecoverP,
            abal: 7,
            ballot: 8,
        },
        Message::MRecNAck { dot, ballot: 9 },
        Message::MCommitRequest { dot },
        Message::MCommitInfo { dot, cmd, ts: 13 },
        Message::MPromiseRequest,
        Message::MPromiseRepair {
            clocks: vec![(9, 20), (42, 13)],
            pending: vec![(9, 14, Dot::new(0, 3))],
        },
        Message::MRejoin,
        Message::MRejoinAck {
            clock: 21,
            your_highest: 15,
            prefixes: vec![(9, 0, 19), (9, 1, 21), (42, 2, 18)],
        },
        Message::MStateRequest,
        Message::MState(AppliedImage {
            floors: vec![(9, 13, dot), (42, 11, Dot::new(1, 3))],
            kv: vec![(42, 7), (9, 2)],
            watermarks: vec![(0, 30), (1, 28)],
            queued: vec![QueuedCommit {
                dot: Dot::new(4, 2),
                ts: 15,
                cmd: Command::new(Rifl::new(5, 6), vec![(0, 42, KVOp::Put(8))], 8),
                waits: vec![1],
            }],
        }),
    ]
}
