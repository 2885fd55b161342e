//! [`Wire`] codec for the Atlas / EPaxos message set (Janus\* included).
//!
//! Same discipline as Tempo's codec (`tempo-core::wire`): every [`Message`] variant
//! encodes as a tag byte followed by its fields in declaration order, on the shared
//! little-endian `Writer`/`Reader` primitives of `tempo-store::wal`. This is what
//! lets the baselines run on the networked `NetCluster` runtime — and therefore
//! appear in the load-plane measurements (`BENCH_load.json`) next to Tempo — instead
//! of existing only under the simulator's in-memory message passing.
//!
//! Decoding never panics and never trusts a length prefix beyond the remaining
//! buffer: dependency-set and quorum counts go through `checked_len` before any
//! allocation.

use crate::protocol::Message;
use std::collections::BTreeSet;
use tempo_kernel::id::{Dot, ProcessId};
use tempo_net::wire::{DecodeError, Wire};
use tempo_store::wal::{get_command, get_dot, put_command, put_dot, Reader, Writer};

const TAG_COLLECT: u8 = 1;
const TAG_COLLECT_ACK: u8 = 2;
const TAG_COMMIT: u8 = 3;
const TAG_CONSENSUS: u8 = 4;
const TAG_CONSENSUS_ACK: u8 = 5;
const TAG_SUBMIT: u8 = 6;

fn put_deps(w: &mut Writer, deps: &BTreeSet<Dot>) {
    w.put_u32(deps.len() as u32);
    for dep in deps {
        put_dot(w, *dep);
    }
}

fn get_deps(r: &mut Reader<'_>) -> Result<BTreeSet<Dot>, DecodeError> {
    let n = r.u32()?;
    let n = r.checked_len(n, 16)?;
    let mut deps = BTreeSet::new();
    for _ in 0..n {
        deps.insert(get_dot(r)?);
    }
    Ok(deps)
}

fn put_quorum(w: &mut Writer, quorum: &[ProcessId]) {
    w.put_u32(quorum.len() as u32);
    for p in quorum {
        w.put_u64(*p);
    }
}

fn get_quorum(r: &mut Reader<'_>) -> Result<Vec<ProcessId>, DecodeError> {
    let n = r.u32()?;
    let n = r.checked_len(n, 8)?;
    let mut quorum = Vec::with_capacity(n);
    for _ in 0..n {
        quorum.push(r.u64()?);
    }
    Ok(quorum)
}

impl Wire for Message {
    fn encode_into(&self, w: &mut Writer) {
        match self {
            Message::MSubmit { dot, cmd } => {
                w.put_u8(TAG_SUBMIT);
                put_dot(w, *dot);
                put_command(w, cmd);
            }
            Message::MCollect {
                dot,
                cmd,
                quorum,
                deps,
            } => {
                w.put_u8(TAG_COLLECT);
                put_dot(w, *dot);
                put_command(w, cmd);
                put_quorum(w, quorum);
                put_deps(w, deps);
            }
            Message::MCollectAck { dot, deps } => {
                w.put_u8(TAG_COLLECT_ACK);
                put_dot(w, *dot);
                put_deps(w, deps);
            }
            Message::MCommit { dot, cmd, deps } => {
                w.put_u8(TAG_COMMIT);
                put_dot(w, *dot);
                put_command(w, cmd);
                put_deps(w, deps);
            }
            Message::MConsensus {
                dot,
                cmd,
                deps,
                ballot,
            } => {
                w.put_u8(TAG_CONSENSUS);
                put_dot(w, *dot);
                put_command(w, cmd);
                put_deps(w, deps);
                w.put_u64(*ballot);
            }
            Message::MConsensusAck { dot, ballot } => {
                w.put_u8(TAG_CONSENSUS_ACK);
                put_dot(w, *dot);
                w.put_u64(*ballot);
            }
        }
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let msg = match r.u8()? {
            TAG_COLLECT => Message::MCollect {
                dot: get_dot(r)?,
                cmd: get_command(r)?,
                quorum: get_quorum(r)?,
                deps: get_deps(r)?,
            },
            TAG_COLLECT_ACK => Message::MCollectAck {
                dot: get_dot(r)?,
                deps: get_deps(r)?,
            },
            TAG_COMMIT => Message::MCommit {
                dot: get_dot(r)?,
                cmd: get_command(r)?,
                deps: get_deps(r)?,
            },
            TAG_CONSENSUS => Message::MConsensus {
                dot: get_dot(r)?,
                cmd: get_command(r)?,
                deps: get_deps(r)?,
                ballot: r.u64()?,
            },
            TAG_CONSENSUS_ACK => Message::MConsensusAck {
                dot: get_dot(r)?,
                ballot: r.u64()?,
            },
            TAG_SUBMIT => Message::MSubmit {
                dot: get_dot(r)?,
                cmd: get_command(r)?,
            },
            t => return Err(DecodeError::BadTag(t)),
        };
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_kernel::command::{Command, KVOp};
    use tempo_kernel::id::Rifl;

    fn sample_messages() -> Vec<Message> {
        let cmd = Command::single(Rifl::new(7, 42), 0, 13, KVOp::Put(99), 128);
        let deps: BTreeSet<Dot> = [Dot::new(1, 3), Dot::new(2, 9)].into_iter().collect();
        vec![
            Message::MSubmit {
                dot: Dot::new(0, 1),
                cmd: cmd.clone(),
            },
            Message::MCollect {
                dot: Dot::new(0, 1),
                cmd: cmd.clone(),
                quorum: vec![0, 1, 2],
                deps: deps.clone(),
            },
            Message::MCollect {
                dot: Dot::new(4, 77),
                cmd: Command::single(Rifl::new(1, 1), 0, 0, KVOp::Get, 0),
                quorum: Vec::new(),
                deps: BTreeSet::new(),
            },
            Message::MCollectAck {
                dot: Dot::new(0, 1),
                deps: deps.clone(),
            },
            Message::MCommit {
                dot: Dot::new(0, 1),
                cmd: cmd.clone(),
                deps: deps.clone(),
            },
            Message::MConsensus {
                dot: Dot::new(0, 1),
                cmd,
                deps,
                ballot: 5,
            },
            Message::MConsensusAck {
                dot: Dot::new(0, 1),
                ballot: 5,
            },
        ]
    }

    #[test]
    fn every_variant_roundtrips() {
        for msg in sample_messages() {
            let bytes = msg.encode();
            assert_eq!(Message::decode(&bytes).unwrap(), msg, "roundtrip {msg:?}");
        }
    }

    #[test]
    fn truncation_and_corruption_never_panic() {
        for msg in sample_messages() {
            let bytes = msg.encode();
            for cut in 0..bytes.len() {
                let _ = Message::decode(&bytes[..cut]);
            }
            for i in 0..bytes.len() {
                let mut flipped = bytes.clone();
                flipped[i] ^= 0x40;
                let _ = Message::decode(&flipped);
            }
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        // A deps count claiming more elements than the buffer can hold must fail
        // before allocating.
        let mut w = Writer::new();
        w.put_u8(TAG_COLLECT_ACK);
        put_dot(&mut w, Dot::new(1, 1));
        w.put_u32(u32::MAX);
        assert!(Message::decode(&w.into_bytes()).is_err());
    }
}
