//! [`Wire`] codec for Tempo's full message set.
//!
//! Every [`Message`] variant encodes as a tag byte followed by its fields in
//! declaration order, using the shared little-endian primitives of
//! `tempo-store::wal` — the same `Writer`/`Reader`/CRC path the WAL and snapshots
//! run, so a message that crosses a socket and a record that crosses a crash are
//! covered by the same golden fixtures and torn-byte batteries
//! (`tests/wire_golden.rs` pins the exact bytes). `MState`'s applied image is the
//! snapshot's, encoded by the same `AppliedImage` codec.
//!
//! Decoding never panics and never trusts a length prefix beyond the buffer:
//! sequence counts are bounded by the remaining bytes before any allocation, and
//! semantic validation (promise ranges with `start >= 1`, `start <= end`; bucket
//! numbers below `BUCKETS`) returns [`DecodeError::Invalid`] instead of tripping the
//! constructors' asserts.

use crate::messages::{Message, PromiseBundle, RecPhase};
use crate::promises::PromiseRange;
use crate::stability::{check_bucket, Bucket};
use tempo_kernel::id::Dot;
use tempo_net::wire::{get_process_map, put_process_map, DecodeError, Wire};
use tempo_store::wal::{
    get_bucket, get_command, get_dot, get_pairs, get_seq, get_stamped_dots, get_stamps, put_bucket,
    put_command, put_dot, put_pairs, put_seq, put_stamped_dots, put_stamps, Reader, Writer,
};
use tempo_store::AppliedImage;

const TAG_SUBMIT: u8 = 1;
const TAG_PROPOSE: u8 = 2;
const TAG_PAYLOAD: u8 = 3;
const TAG_PROPOSE_ACK: u8 = 4;
const TAG_COMMIT: u8 = 5;
const TAG_CONSENSUS: u8 = 6;
const TAG_CONSENSUS_ACK: u8 = 7;
const TAG_BUMP: u8 = 8;
const TAG_PROMISES: u8 = 9;
const TAG_STABLE: u8 = 10;
const TAG_REC: u8 = 11;
const TAG_REC_ACK: u8 = 12;
const TAG_REC_NACK: u8 = 13;
const TAG_COMMIT_REQUEST: u8 = 14;
const TAG_COMMIT_INFO: u8 = 15;
const TAG_PROMISE_REQUEST: u8 = 16;
const TAG_PROMISE_REPAIR: u8 = 17;
const TAG_REJOIN: u8 = 18;
const TAG_REJOIN_ACK: u8 = 19;
const TAG_STATE_REQUEST: u8 = 20;
const TAG_STATE: u8 = 21;

fn put_range(w: &mut Writer, range: &PromiseRange) {
    w.put_u64(range.start);
    w.put_u64(range.end);
}

fn get_range(r: &mut Reader<'_>) -> Result<PromiseRange, DecodeError> {
    let start = r.u64()?;
    let end = r.u64()?;
    if start < 1 || start > end {
        return Err(DecodeError::Invalid("promise range"));
    }
    Ok(PromiseRange::new(start, end))
}

/// Checks the bucket numbers of a list decoded by a `tempo-store` codec.
fn checked<T>(items: Vec<T>, bucket: impl Fn(&T) -> Bucket) -> Result<Vec<T>, DecodeError> {
    for item in &items {
        check_bucket(bucket(item))?;
    }
    Ok(items)
}

fn put_ranges(w: &mut Writer, ranges: &[(Bucket, PromiseRange)]) {
    put_seq(w, ranges, |w, (bucket, range)| {
        put_bucket(w, *bucket);
        put_range(w, range);
    });
}

fn get_ranges(r: &mut Reader<'_>) -> Result<Vec<(Bucket, PromiseRange)>, DecodeError> {
    get_seq(r, 18, |r| {
        Ok((check_bucket(get_bucket(r)?)?, get_range(r)?))
    })
}

fn put_bundle(w: &mut Writer, bundle: &PromiseBundle) {
    put_pairs(w, &bundle.attached);
    put_seq(w, &bundle.detached, |w, (process, bucket, range)| {
        w.put_u64(*process);
        put_bucket(w, *bucket);
        put_range(w, range);
    });
}

fn get_bundle(r: &mut Reader<'_>) -> Result<PromiseBundle, DecodeError> {
    let attached = get_pairs(r)?;
    let detached = get_seq(r, 26, |r| {
        Ok((r.u64()?, check_bucket(get_bucket(r)?)?, get_range(r)?))
    })?;
    Ok(PromiseBundle { attached, detached })
}

fn put_dot_ts(w: &mut Writer, pairs: &[(Dot, u64)]) {
    put_seq(w, pairs, |w, (dot, ts)| {
        put_dot(w, *dot);
        w.put_u64(*ts);
    });
}

fn get_dot_ts(r: &mut Reader<'_>) -> Result<Vec<(Dot, u64)>, DecodeError> {
    get_seq(r, 24, |r| Ok((get_dot(r)?, r.u64()?)))
}

fn put_rec_phase(w: &mut Writer, phase: RecPhase) {
    w.put_u8(match phase {
        RecPhase::RecoverP => 0,
        RecPhase::RecoverR => 1,
    });
}

fn get_rec_phase(r: &mut Reader<'_>) -> Result<RecPhase, DecodeError> {
    match r.u8()? {
        0 => Ok(RecPhase::RecoverP),
        1 => Ok(RecPhase::RecoverR),
        t => Err(DecodeError::BadTag(t)),
    }
}

impl Wire for Message {
    fn encode_into(&self, w: &mut Writer) {
        match self {
            Message::MSubmit { dot, cmd, quorums } => {
                w.put_u8(TAG_SUBMIT);
                put_dot(w, *dot);
                put_command(w, cmd);
                put_process_map(w, quorums);
            }
            Message::MPropose {
                dot,
                cmd,
                quorums,
                ts,
            } => {
                w.put_u8(TAG_PROPOSE);
                put_dot(w, *dot);
                put_command(w, cmd);
                put_process_map(w, quorums);
                w.put_u64(*ts);
            }
            Message::MPayload { dot, cmd, quorums } => {
                w.put_u8(TAG_PAYLOAD);
                put_dot(w, *dot);
                put_command(w, cmd);
                put_process_map(w, quorums);
            }
            Message::MProposeAck { dot, ts, detached } => {
                w.put_u8(TAG_PROPOSE_ACK);
                put_dot(w, *dot);
                w.put_u64(*ts);
                put_ranges(w, detached);
            }
            Message::MCommit {
                dot,
                shard,
                ts,
                promises,
            } => {
                w.put_u8(TAG_COMMIT);
                put_dot(w, *dot);
                w.put_u64(*shard);
                w.put_u64(*ts);
                put_bundle(w, promises);
            }
            Message::MConsensus { dot, ts, ballot } => {
                w.put_u8(TAG_CONSENSUS);
                put_dot(w, *dot);
                w.put_u64(*ts);
                w.put_u64(*ballot);
            }
            Message::MConsensusAck { dot, ballot } => {
                w.put_u8(TAG_CONSENSUS_ACK);
                put_dot(w, *dot);
                w.put_u64(*ballot);
            }
            Message::MBump { dot, ts, buckets } => {
                w.put_u8(TAG_BUMP);
                put_dot(w, *dot);
                w.put_u64(*ts);
                put_seq(w, buckets, |w, bucket| put_bucket(w, *bucket));
            }
            Message::MPromises {
                detached,
                attached,
                executed,
                frontiers,
            } => {
                w.put_u8(TAG_PROMISES);
                put_ranges(w, detached);
                put_dot_ts(w, attached);
                put_pairs(w, executed);
                put_stamps(w, frontiers);
            }
            Message::MStable { dot } => {
                w.put_u8(TAG_STABLE);
                put_dot(w, *dot);
            }
            Message::MRec { dot, ballot } => {
                w.put_u8(TAG_REC);
                put_dot(w, *dot);
                w.put_u64(*ballot);
            }
            Message::MRecAck {
                dot,
                ts,
                phase,
                abal,
                ballot,
            } => {
                w.put_u8(TAG_REC_ACK);
                put_dot(w, *dot);
                w.put_u64(*ts);
                put_rec_phase(w, *phase);
                w.put_u64(*abal);
                w.put_u64(*ballot);
            }
            Message::MRecNAck { dot, ballot } => {
                w.put_u8(TAG_REC_NACK);
                put_dot(w, *dot);
                w.put_u64(*ballot);
            }
            Message::MCommitRequest { dot } => {
                w.put_u8(TAG_COMMIT_REQUEST);
                put_dot(w, *dot);
            }
            Message::MCommitInfo { dot, cmd, ts } => {
                w.put_u8(TAG_COMMIT_INFO);
                put_dot(w, *dot);
                put_command(w, cmd);
                w.put_u64(*ts);
            }
            Message::MPromiseRequest => {
                w.put_u8(TAG_PROMISE_REQUEST);
            }
            Message::MPromiseRepair { clocks, pending } => {
                w.put_u8(TAG_PROMISE_REPAIR);
                put_stamps(w, clocks);
                put_stamped_dots(w, pending);
            }
            Message::MRejoin => {
                w.put_u8(TAG_REJOIN);
            }
            Message::MRejoinAck {
                clock,
                your_highest,
                prefixes,
            } => {
                w.put_u8(TAG_REJOIN_ACK);
                w.put_u64(*clock);
                w.put_u64(*your_highest);
                put_seq(w, prefixes, |w, (bucket, process, prefix)| {
                    put_bucket(w, *bucket);
                    w.put_u64(*process);
                    w.put_u64(*prefix);
                });
            }
            Message::MStateRequest => {
                w.put_u8(TAG_STATE_REQUEST);
            }
            Message::MState(image) => {
                w.put_u8(TAG_STATE);
                image.encode_into(w);
            }
        }
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let msg = match r.u8()? {
            TAG_SUBMIT => Message::MSubmit {
                dot: get_dot(r)?,
                cmd: get_command(r)?,
                quorums: get_process_map(r)?,
            },
            TAG_PROPOSE => Message::MPropose {
                dot: get_dot(r)?,
                cmd: get_command(r)?,
                quorums: get_process_map(r)?,
                ts: r.u64()?,
            },
            TAG_PAYLOAD => Message::MPayload {
                dot: get_dot(r)?,
                cmd: get_command(r)?,
                quorums: get_process_map(r)?,
            },
            TAG_PROPOSE_ACK => Message::MProposeAck {
                dot: get_dot(r)?,
                ts: r.u64()?,
                detached: get_ranges(r)?,
            },
            TAG_COMMIT => Message::MCommit {
                dot: get_dot(r)?,
                shard: r.u64()?,
                ts: r.u64()?,
                promises: get_bundle(r)?,
            },
            TAG_CONSENSUS => Message::MConsensus {
                dot: get_dot(r)?,
                ts: r.u64()?,
                ballot: r.u64()?,
            },
            TAG_CONSENSUS_ACK => Message::MConsensusAck {
                dot: get_dot(r)?,
                ballot: r.u64()?,
            },
            TAG_BUMP => Message::MBump {
                dot: get_dot(r)?,
                ts: r.u64()?,
                buckets: get_seq(r, 2, |r| check_bucket(get_bucket(r)?))?,
            },
            TAG_PROMISES => Message::MPromises {
                detached: get_ranges(r)?,
                attached: get_dot_ts(r)?,
                executed: get_pairs(r)?,
                frontiers: checked(get_stamps(r)?, |s| s.0)?,
            },
            TAG_STABLE => Message::MStable { dot: get_dot(r)? },
            TAG_REC => Message::MRec {
                dot: get_dot(r)?,
                ballot: r.u64()?,
            },
            TAG_REC_ACK => Message::MRecAck {
                dot: get_dot(r)?,
                ts: r.u64()?,
                phase: get_rec_phase(r)?,
                abal: r.u64()?,
                ballot: r.u64()?,
            },
            TAG_REC_NACK => Message::MRecNAck {
                dot: get_dot(r)?,
                ballot: r.u64()?,
            },
            TAG_COMMIT_REQUEST => Message::MCommitRequest { dot: get_dot(r)? },
            TAG_COMMIT_INFO => Message::MCommitInfo {
                dot: get_dot(r)?,
                cmd: get_command(r)?,
                ts: r.u64()?,
            },
            TAG_PROMISE_REQUEST => Message::MPromiseRequest,
            TAG_PROMISE_REPAIR => Message::MPromiseRepair {
                clocks: checked(get_stamps(r)?, |c| c.0)?,
                pending: checked(get_stamped_dots(r)?, |p| p.0)?,
            },
            TAG_REJOIN => Message::MRejoin,
            TAG_REJOIN_ACK => Message::MRejoinAck {
                clock: r.u64()?,
                your_highest: r.u64()?,
                prefixes: get_seq(r, 18, |r| {
                    Ok((check_bucket(get_bucket(r)?)?, r.u64()?, r.u64()?))
                })?,
            },
            TAG_STATE_REQUEST => Message::MStateRequest,
            TAG_STATE => {
                let image = AppliedImage::decode_from(r)?;
                for floor in &image.floors {
                    check_bucket(floor.0)?;
                }
                Message::MState(image)
            }
            t => return Err(DecodeError::BadTag(t)),
        };
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::Quorums;
    use crate::stability::BUCKETS;
    use tempo_kernel::command::{Command, KVOp};
    use tempo_kernel::id::Rifl;

    #[test]
    fn every_variant_roundtrips() {
        for msg in crate::wire_fixture::all_messages() {
            let bytes = msg.encode();
            assert_eq!(
                Message::decode(&bytes).unwrap(),
                msg,
                "roundtrip of {msg:?}"
            );
        }
    }

    #[test]
    fn invalid_promise_range_is_rejected_not_panicking() {
        // MProposeAck with a detached range [5, 2] (start > end) and one with start 0.
        for (start, end) in [(5u64, 2u64), (0, 3)] {
            let mut w = Writer::new();
            w.put_u8(TAG_PROPOSE_ACK);
            put_dot(&mut w, Dot::new(1, 1));
            w.put_u64(9);
            w.put_u32(1);
            put_bucket(&mut w, 3);
            w.put_u64(start);
            w.put_u64(end);
            assert_eq!(
                Message::decode(&w.into_bytes()),
                Err(DecodeError::Invalid("promise range"))
            );
        }
    }

    #[test]
    fn a_bucket_out_of_range_is_rejected_not_panicking() {
        let msg = Message::MPromises {
            detached: vec![],
            attached: vec![],
            executed: vec![],
            frontiers: vec![(BUCKETS - 1, 4)],
        };
        let mut bytes = msg.encode();
        assert_eq!(Message::decode(&bytes), Ok(msg));
        // The frontier's bucket sits just before its timestamp, at the end.
        let at = bytes.len() - 10;
        bytes[at..at + 2].copy_from_slice(&(BUCKETS as u16).to_le_bytes());
        assert_eq!(Message::decode(&bytes), Err(DecodeError::Invalid("bucket")));
        // An image's floors are checked too: the first floor's bucket follows the tag
        // and the floor count.
        let image = AppliedImage {
            floors: vec![(BUCKETS - 1, 4, Dot::new(1, 1))],
            ..AppliedImage::default()
        };
        let mut bytes = Message::MState(image).encode();
        bytes[5..7].copy_from_slice(&(BUCKETS as u16).to_le_bytes());
        assert_eq!(Message::decode(&bytes), Err(DecodeError::Invalid("bucket")));
    }

    #[test]
    fn wire_size_estimate_tracks_encoded_size() {
        use tempo_kernel::protocol::WireSize;
        // The simulator's cost-model estimate and the real encoding should agree on
        // what dominates: a payload-carrying MPropose dwarfs a control message.
        let cmd = Command::single(Rifl::new(1, 1), 0, 7, KVOp::Put(1), 4096);
        let propose = Message::MPropose {
            dot: Dot::new(0, 1),
            cmd,
            quorums: Quorums::from([(0, vec![0, 1, 2])]),
            ts: 1,
        };
        let ack = Message::MConsensusAck {
            dot: Dot::new(0, 1),
            ballot: 1,
        };
        // The estimate counts the opaque payload which the codec does not ship as
        // bytes (payload_size is a length field), so compare against op overhead.
        assert!(propose.wire_size() > ack.wire_size());
        assert!(propose.encode().len() > ack.encode().len());
    }
}
