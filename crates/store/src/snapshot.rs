//! Executor/clock snapshots: a point-in-time image of everything the WAL would
//! otherwise have to retain forever, and the applied image they share with the rejoin
//! state transfer.
//!
//! Installing a snapshot truncates the WAL, so the snapshot must carry *every* durable
//! fact not re-derivable from the WAL suffix (DESIGN.md §6 gives the cut-point safety
//! argument):
//!
//! * the [`AppliedImage`]: the execution floors, the key-value state they correspond
//!   to, the per-origin executed watermarks feeding committed-command GC, and the
//!   committed-but-unexecuted queue (with each entry's remaining sibling-shard waits) —
//!   their `Commit` WAL records are being truncated;
//! * the buckets' stable timestamps and the executed count;
//! * the consensus state (`ts`/`bal`/`abal`) of still-pending dots — their
//!   `Ballot`/`Accept` records are being truncated;
//! * the timestamping clock floor and the dot-generator position.
//!
//! A snapshot is encoded as one checksummed frame behind the magic `b"TSN3"`, written
//! to a temporary file and renamed into place, so a crash mid-install leaves the
//! previous snapshot intact.

use crate::wal::{
    frame, get_dot, get_pairs, get_queued, get_seq, get_stamped_dots, get_stamps, put_dot,
    put_pairs, put_queued, put_seq, put_stamped_dots, put_stamps, read_frame, DecodeError, Reader,
    Writer,
};
use tempo_kernel::command::{Command, Key};
use tempo_kernel::id::{Dot, ProcessId, ShardId};

/// Magic + version prefix of a snapshot stream.
pub const SNAPSHOT_MAGIC: &[u8; 4] = b"TSN3";

/// A committed command still queued for execution when an image was cut.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueuedCommit {
    /// Command identifier.
    pub dot: Dot,
    /// The final (across-shards) timestamp.
    pub ts: u64,
    /// The command payload.
    pub cmd: Command,
    /// Sibling shards whose stability attestation is still missing.
    pub waits: Vec<ShardId>,
}

/// The consensus state of a dot still pending at snapshot time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AcceptState {
    /// Command identifier.
    pub dot: Dot,
    /// This shard's timestamp for the command (proposal or accepted value).
    pub ts: u64,
    /// Highest ballot joined.
    pub bal: u64,
    /// Highest ballot at which a value was accepted (0 = none).
    pub abal: u64,
}

/// The applied state of one replica, what a restart is rebuilt from: a [`Snapshot`]
/// holds it beside the replica's private state, and a rejoin state transfer (`MState`)
/// carries a shard peer's. It contains the effect of exactly the commands at or below
/// each bucket's execution floor: execution follows each bucket in `⟨ts, id⟩` order, so
/// the bucket's executed set is that prefix.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AppliedImage {
    /// The execution floors: per bucket where anything executed, the `(bucket, ts, dot)`
    /// of its last executed command.
    pub floors: Vec<(u64, u64, Dot)>,
    /// The applied key-value state, as `(key, value)` pairs.
    pub kv: Vec<(Key, u64)>,
    /// Per-origin executed watermarks (committed-command GC seed).
    pub watermarks: Vec<(ProcessId, u64)>,
    /// Committed-but-unexecuted commands, with their remaining waits.
    pub queued: Vec<QueuedCommit>,
}

impl AppliedImage {
    /// Encodes the image's fields in declaration order.
    pub fn encode_into(&self, w: &mut Writer) {
        put_stamped_dots(w, &self.floors);
        put_pairs(w, &self.kv);
        put_pairs(w, &self.watermarks);
        put_seq(w, &self.queued, |w, q| {
            put_queued(w, q.dot, q.ts, &q.waits, &q.cmd)
        });
    }

    /// Decodes an image written by [`AppliedImage::encode_into`].
    pub fn decode_from(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Self {
            floors: get_stamped_dots(r)?,
            kv: get_pairs(r)?,
            watermarks: get_pairs(r)?,
            // An entry holds at least its dot, timestamp and waits count.
            queued: get_seq(r, 28, get_queued)?,
        })
    }
}

/// A point-in-time image of one replica's durable state.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Snapshot {
    /// The timestamping clock floor: recovery must never propose at or below it.
    pub clock: u64,
    /// The stable timestamps last fed to the executor, as `(bucket, ts)` where not 0.
    pub stable: Vec<(u64, u64)>,
    /// The dot-generator position (best effort; incarnation bands are the primary
    /// defence against dot reuse, see DESIGN.md §6).
    pub next_dot_seq: u64,
    /// Commands executed by the snapshotted executor.
    pub executed_count: u64,
    /// Consensus state of still-pending dots.
    pub accepts: Vec<AcceptState>,
    /// The applied state.
    pub image: AppliedImage,
}

impl Snapshot {
    /// Encodes the snapshot as `magic + [len][crc][payload]`.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u64(self.clock);
        put_stamps(&mut w, &self.stable);
        w.put_u64(self.next_dot_seq);
        w.put_u64(self.executed_count);
        put_seq(&mut w, &self.accepts, |w, a| {
            put_dot(w, a.dot);
            w.put_u64(a.ts);
            w.put_u64(a.bal);
            w.put_u64(a.abal);
        });
        self.image.encode_into(&mut w);
        let mut out = SNAPSHOT_MAGIC.to_vec();
        out.extend_from_slice(&frame(w.as_bytes()));
        out
    }

    /// Decodes a snapshot stream produced by [`Snapshot::encode`].
    pub fn decode(bytes: &[u8]) -> Result<Self, DecodeError> {
        if bytes.len() < SNAPSHOT_MAGIC.len() || &bytes[..SNAPSHOT_MAGIC.len()] != SNAPSHOT_MAGIC {
            return Err(DecodeError::BadMagic);
        }
        let (payload, _end) = read_frame(bytes, SNAPSHOT_MAGIC.len())?;
        let r = &mut Reader::new(payload);
        // Fields in declaration order, which is the encoding order.
        Ok(Self {
            clock: r.u64()?,
            stable: get_stamps(r)?,
            next_dot_seq: r.u64()?,
            executed_count: r.u64()?,
            accepts: get_seq(r, 40, |r| {
                let (dot, ts, bal, abal) = (get_dot(r)?, r.u64()?, r.u64()?, r.u64()?);
                Ok(AcceptState { dot, ts, bal, abal })
            })?,
            image: AppliedImage::decode_from(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_kernel::command::KVOp;
    use tempo_kernel::id::Rifl;

    fn sample() -> Snapshot {
        Snapshot {
            clock: 200,
            stable: vec![(0, 150), (42, 151)],
            next_dot_seq: 40,
            executed_count: 120,
            accepts: vec![AcceptState {
                dot: Dot::new(3, 2),
                ts: 170,
                bal: 4,
                abal: 4,
            }],
            image: AppliedImage {
                floors: vec![(0, 149, Dot::new(2, 31)), (42, 148, Dot::new(1, 8))],
                kv: vec![(0, 55), (42, 7)],
                watermarks: vec![(0, 30), (1, 28)],
                queued: vec![QueuedCommit {
                    dot: Dot::new(1, 9),
                    ts: 160,
                    cmd: Command::new(
                        Rifl::new(5, 6),
                        vec![(0, 1, KVOp::Add(1)), (1, 2, KVOp::Get)],
                        8,
                    ),
                    waits: vec![1],
                }],
            },
        }
    }

    #[test]
    fn snapshot_roundtrips() {
        let snap = sample();
        assert_eq!(Snapshot::decode(&snap.encode()).unwrap(), snap);
    }

    #[test]
    fn empty_snapshot_roundtrips() {
        let snap = Snapshot::default();
        assert_eq!(Snapshot::decode(&snap.encode()).unwrap(), snap);
    }

    #[test]
    fn torn_snapshot_is_rejected() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            assert!(
                Snapshot::decode(&bytes[..cut]).is_err(),
                "truncation at {cut} must not decode"
            );
        }
        let mut corrupt = bytes.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x01;
        assert!(Snapshot::decode(&corrupt).is_err());
    }

    #[test]
    fn absurd_counts_are_truncated_before_allocating() {
        // A checksummed snapshot whose accepts, or image queue, count claims u32::MAX
        // entries must fail cleanly instead of reserving memory for them.
        for queue in [false, true] {
            let mut w = Writer::new();
            w.put_u64(200); // clock
            put_stamps(&mut w, &[]);
            w.put_u64(40); // next_dot_seq
            w.put_u64(120); // executed_count
            if queue {
                put_seq(&mut w, &[], |_, _: &AcceptState| {});
                put_stamped_dots(&mut w, &[]);
                put_pairs(&mut w, &[]);
                put_pairs(&mut w, &[]);
            }
            w.put_u32(u32::MAX);
            w.put_u64(1);
            let mut bytes = SNAPSHOT_MAGIC.to_vec();
            bytes.extend_from_slice(&frame(w.as_bytes()));
            assert_eq!(Snapshot::decode(&bytes), Err(DecodeError::Truncated));
        }
    }
}
