//! The write-ahead log: record types, byte encoding and crash-tolerant replay.
//!
//! # Stream format
//!
//! A WAL stream is the 4-byte magic `b"TWL3"` followed by framed records. Each frame is
//!
//! ```text
//! [ payload length : u32 LE ][ CRC-32 of payload : u32 LE ][ payload ]
//! ```
//!
//! and the payload is a tag byte followed by the record fields (little-endian fixed-width
//! integers throughout; see [`WalRecord::encode`]). The format is hand-rolled because the
//! workspace is dependency-free; it is versioned by the magic, and the golden-file test
//! in `tests/golden.rs` pins the exact bytes so accidental format drift fails CI.
//!
//! # Torn tails
//!
//! A crash can leave a partially written frame at the end of the log. [`replay`] decodes
//! frames until it hits a truncated or checksum-failing frame, reports how many bytes
//! form the valid prefix, and the caller truncates the log there (`FileStore` does so on
//! open). A record is therefore durable *iff* its frame was fully written and synced —
//! exactly the contract [`crate::Store::sync`] provides to the protocol layer.

use crate::snapshot::QueuedCommit;
use std::fmt;
use tempo_kernel::command::{Command, KVOp, Key};
use tempo_kernel::id::{Dot, Rifl, ShardId};

/// Magic + version prefix of a WAL stream.
pub const WAL_MAGIC: &[u8; 4] = b"TWL3";

/// A decoding failure. Replay treats any error as the start of a torn tail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the value (or frame) was complete.
    Truncated,
    /// A frame's checksum did not match its payload.
    BadChecksum,
    /// An unknown record or operation tag.
    BadTag(u8),
    /// The stream does not start with the expected magic bytes.
    BadMagic,
    /// A decoded command carried no operations (commands access at least one key).
    EmptyCommand,
    /// A decoded value failed semantic validation (the reason names the field).
    Invalid(&'static str),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "truncated input"),
            DecodeError::BadChecksum => write!(f, "checksum mismatch"),
            DecodeError::BadTag(t) => write!(f, "unknown tag {t}"),
            DecodeError::BadMagic => write!(f, "bad magic"),
            DecodeError::EmptyCommand => write!(f, "command with no operations"),
            DecodeError::Invalid(what) => write!(f, "invalid value: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// The reflected IEEE 802.3 polynomial.
const CRC_POLY: u32 = 0xEDB8_8320;

/// `CRC_TABLE[b]` is the CRC register after shifting the byte `b` through it.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut byte = 0;
    while byte < 256 {
        let mut crc = byte as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        table[byte] = crc;
        byte += 1;
    }
    table
};

/// CRC-32 (IEEE 802.3 polynomial, reflected) over `bytes`, one table lookup per byte.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = CRC_TABLE[usize::from(crc as u8 ^ b)] ^ (crc >> 8);
    }
    !crc
}

// ---------------------------------------------------------------- primitives

/// Little-endian byte writer over a growable buffer.
///
/// Public because every byte stream of the workspace — WAL records, snapshots and the
/// `tempo-net` wire codec — shares this one encoding discipline (fixed-width
/// little-endian integers inside length+CRC frames).
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u16`, little-endian.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// The bytes accumulated so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Empties the writer, keeping its allocation for the next value.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Consumes the writer, returning the accumulated bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Little-endian byte reader over a slice. The counterpart of [`Writer`]; every read
/// reports [`DecodeError::Truncated`] instead of panicking when the input is short.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Bounds a length prefix read from untrusted bytes: the claimed element count can
    /// never exceed `remaining / min_element_size`, so a corrupt count produces a
    /// [`DecodeError::Truncated`] instead of a giant allocation.
    pub fn checked_len(&self, claimed: u32, min_element_size: usize) -> Result<usize, DecodeError> {
        let claimed = claimed as usize;
        if claimed > self.remaining() / min_element_size.max(1) {
            return Err(DecodeError::Truncated);
        }
        Ok(claimed)
    }
}

// --------------------------------------------------------------- field codecs

/// Encodes a [`Dot`] (source, sequence).
pub fn put_dot(w: &mut Writer, dot: Dot) {
    w.put_u64(dot.source);
    w.put_u64(dot.sequence);
}

/// Decodes a [`Dot`] written by [`put_dot`].
pub fn get_dot(r: &mut Reader<'_>) -> Result<Dot, DecodeError> {
    Ok(Dot::new(r.u64()?, r.u64()?))
}

/// Encodes a [`Command`] (rifl, payload size, per-shard keyed operations).
pub fn put_command(w: &mut Writer, cmd: &Command) {
    w.put_u64(cmd.rifl.client);
    w.put_u64(cmd.rifl.seq);
    w.put_u64(cmd.payload_size as u64);
    w.put_u32(cmd.shard_count() as u32);
    for shard in cmd.shards() {
        w.put_u64(shard);
        let ops = cmd.ops_of(shard);
        w.put_u32(ops.len() as u32);
        for (key, op) in ops {
            w.put_u64(*key);
            match op {
                KVOp::Get => w.put_u8(0),
                KVOp::Put(v) => {
                    w.put_u8(1);
                    w.put_u64(*v);
                }
                KVOp::Add(v) => {
                    w.put_u8(2);
                    w.put_u64(*v);
                }
            }
        }
    }
}

/// Decodes a [`Command`] written by [`put_command`].
pub fn get_command(r: &mut Reader<'_>) -> Result<Command, DecodeError> {
    let rifl = Rifl::new(r.u64()?, r.u64()?);
    let payload_size = r.u64()? as usize;
    let shards = r.u32()?;
    // Shard and op counts come from untrusted bytes: bound them by what the buffer can
    // possibly hold before looping (each shard needs >= 12 bytes, each op >= 9).
    let shards = r.checked_len(shards, 12)?;
    let mut triples: Vec<(ShardId, Key, KVOp)> = Vec::new();
    for _ in 0..shards {
        let shard = r.u64()?;
        let ops = r.u32()?;
        let ops = r.checked_len(ops, 9)?;
        for _ in 0..ops {
            let key = r.u64()?;
            let op = match r.u8()? {
                0 => KVOp::Get,
                1 => KVOp::Put(r.u64()?),
                2 => KVOp::Add(r.u64()?),
                t => return Err(DecodeError::BadTag(t)),
            };
            triples.push((shard, key, op));
        }
    }
    if triples.is_empty() {
        return Err(DecodeError::EmptyCommand);
    }
    Ok(Command::new(rifl, triples, payload_size))
}

/// Encodes a length-prefixed sequence, each element written by `put`.
pub fn put_seq<T>(w: &mut Writer, items: &[T], mut put: impl FnMut(&mut Writer, &T)) {
    w.put_u32(items.len() as u32);
    for item in items {
        put(w, item);
    }
}

/// Decodes a sequence written by [`put_seq`], each element at least `size` bytes (which
/// bounds the claimed count by the bytes left before anything is allocated).
pub fn get_seq<T>(
    r: &mut Reader<'_>,
    size: usize,
    mut get: impl FnMut(&mut Reader<'_>) -> Result<T, DecodeError>,
) -> Result<Vec<T>, DecodeError> {
    let n = r.u32()?;
    let n = r.checked_len(n, size)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(get(r)?);
    }
    Ok(out)
}

/// Encodes a length-prefixed list of `(u64, u64)` pairs.
pub fn put_pairs(w: &mut Writer, pairs: &[(u64, u64)]) {
    put_seq(w, pairs, |w, (a, b)| {
        w.put_u64(*a);
        w.put_u64(*b);
    });
}

/// Decodes a list written by [`put_pairs`].
pub fn get_pairs(r: &mut Reader<'_>) -> Result<Vec<(u64, u64)>, DecodeError> {
    get_seq(r, 16, |r| Ok((r.u64()?, r.u64()?)))
}

/// Encodes a key-bucket number in 16 bits, the one width of a bucket in every stream.
/// The store does not know the bucket count; whoever reads a bucket back checks it.
pub fn put_bucket(w: &mut Writer, bucket: u64) {
    w.put_u16(u16::try_from(bucket).expect("a bucket number fits in 16 bits"));
}

/// Decodes a bucket number written by [`put_bucket`].
pub fn get_bucket(r: &mut Reader<'_>) -> Result<u64, DecodeError> {
    Ok(u64::from(r.u16()?))
}

/// Encodes a list of `(bucket, timestamp)` stamps.
pub fn put_stamps(w: &mut Writer, stamps: &[(u64, u64)]) {
    put_seq(w, stamps, |w, (bucket, ts)| {
        put_bucket(w, *bucket);
        w.put_u64(*ts);
    });
}

/// Decodes a list written by [`put_stamps`].
pub fn get_stamps(r: &mut Reader<'_>) -> Result<Vec<(u64, u64)>, DecodeError> {
    get_seq(r, 10, |r| Ok((get_bucket(r)?, r.u64()?)))
}

/// Encodes a list of `(bucket, timestamp, dot)` stamped dots.
pub fn put_stamped_dots(w: &mut Writer, entries: &[(u64, u64, Dot)]) {
    put_seq(w, entries, |w, (bucket, ts, dot)| {
        put_bucket(w, *bucket);
        w.put_u64(*ts);
        put_dot(w, *dot);
    });
}

/// Decodes a list written by [`put_stamped_dots`].
pub fn get_stamped_dots(r: &mut Reader<'_>) -> Result<Vec<(u64, u64, Dot)>, DecodeError> {
    get_seq(r, 26, |r| Ok((get_bucket(r)?, r.u64()?, get_dot(r)?)))
}

/// Encodes one queued commit as `dot, ts, waits, cmd`: the one layout of a WAL
/// [`WalRecord::Commit`] and of each entry of an applied image's queue.
pub fn put_queued(w: &mut Writer, dot: Dot, ts: u64, waits: &[ShardId], cmd: &Command) {
    put_dot(w, dot);
    w.put_u64(ts);
    put_seq(w, waits, |w, shard| w.put_u64(*shard));
    put_command(w, cmd);
}

/// Decodes a queued commit written by [`put_queued`].
pub fn get_queued(r: &mut Reader<'_>) -> Result<QueuedCommit, DecodeError> {
    let dot = get_dot(r)?;
    let ts = r.u64()?;
    let waits = get_seq(r, 8, |r| r.u64())?;
    let cmd = get_command(r)?;
    Ok(QueuedCommit {
        dot,
        ts,
        cmd,
        waits,
    })
}

// ------------------------------------------------------------------- records

/// One durable event of the ordering stage. The record set mirrors exactly the state a
/// crashed replica must not forget (DESIGN.md §6): the consensus promises and accepts it
/// made (`Ballot`/`Accept`), the commits it learned (`Commit` — the bulk of the log,
/// payload included), the sibling-shard stability attestations a queued multi-shard
/// command has already collected (`SiblingStable`), and the timestamping floor below
/// which it must never propose again (`ClockFloor`, persisted in chunks so one append
/// covers many proposals).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// The replica will never propose a timestamp at or below this value. Floors are
    /// over-approximations (persisted in chunks ahead of the live clock), so recovery
    /// may skip unused timestamps but can never reuse a promised one.
    ClockFloor(u64),
    /// The replica joined consensus ballot `bal` for `dot` and must reject lower ones.
    Ballot {
        /// Command identifier.
        dot: Dot,
        /// The joined ballot.
        bal: u64,
    },
    /// The replica accepted timestamp `ts` for `dot` at ballot `bal` (Flexible Paxos
    /// phase 2b). A recovered replica must report this accept in `MRecAck`.
    Accept {
        /// Command identifier.
        dot: Dot,
        /// The accepted timestamp.
        ts: u64,
        /// The ballot of the accept.
        bal: u64,
    },
    /// The command committed locally with final timestamp `ts`. `waits` are the sibling
    /// shards whose `MStable` attestation was still outstanding at commit time.
    Commit {
        /// Command identifier.
        dot: Dot,
        /// The final (across-shards) timestamp.
        ts: u64,
        /// The command payload.
        cmd: Command,
        /// Sibling shards not yet attested stable at commit time.
        waits: Vec<ShardId>,
    },
    /// Some replica of `shard` attested that `dot` is stable there (`MStable`); replayed
    /// so a queued multi-shard command does not re-wait for attestations that already
    /// arrived (they are sent only once per replica).
    SiblingStable {
        /// Command identifier.
        dot: Dot,
        /// The attesting shard.
        shard: ShardId,
    },
    /// The stable timestamps (Theorem 1) of these buckets advanced, as `(bucket, ts)`.
    /// Interleaved with `Commit` records in append order, this lets replay re-execute
    /// exactly what executed before the crash — execution order is deterministic given
    /// commits and stable timestamps — so a recovered replica's applied image matches
    /// its pre-crash image without waiting for peers.
    Stable(Vec<(u64, u64)>),
    /// The replica may have used dot sequences up to this value and must generate
    /// future dots strictly above it. Like [`WalRecord::ClockFloor`], floors are
    /// persisted in chunks ahead of the live generator, so a clean restart skips at
    /// most one chunk of unused sequences but can never re-issue a dot — making dot
    /// uniqueness after store-backed restarts independent of the incarnation bands
    /// (`incarnation << 48`) that diskless rejoins rely on.
    DotFloor(u64),
}

const TAG_CLOCK_FLOOR: u8 = 1;
const TAG_BALLOT: u8 = 2;
const TAG_ACCEPT: u8 = 3;
const TAG_COMMIT: u8 = 4;
const TAG_SIBLING_STABLE: u8 = 5;
const TAG_STABLE: u8 = 6;
const TAG_DOT_FLOOR: u8 = 7;

impl WalRecord {
    /// Encodes the record payload (tag + fields, no frame).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            WalRecord::ClockFloor(floor) => {
                w.put_u8(TAG_CLOCK_FLOOR);
                w.put_u64(*floor);
            }
            WalRecord::Ballot { dot, bal } => {
                w.put_u8(TAG_BALLOT);
                put_dot(&mut w, *dot);
                w.put_u64(*bal);
            }
            WalRecord::Accept { dot, ts, bal } => {
                w.put_u8(TAG_ACCEPT);
                put_dot(&mut w, *dot);
                w.put_u64(*ts);
                w.put_u64(*bal);
            }
            WalRecord::Commit {
                dot,
                ts,
                cmd,
                waits,
            } => {
                w.put_u8(TAG_COMMIT);
                put_queued(&mut w, *dot, *ts, waits, cmd);
            }
            WalRecord::SiblingStable { dot, shard } => {
                w.put_u8(TAG_SIBLING_STABLE);
                put_dot(&mut w, *dot);
                w.put_u64(*shard);
            }
            WalRecord::Stable(risen) => {
                w.put_u8(TAG_STABLE);
                put_stamps(&mut w, risen);
            }
            WalRecord::DotFloor(floor) => {
                w.put_u8(TAG_DOT_FLOOR);
                w.put_u64(*floor);
            }
        }
        w.into_bytes()
    }

    /// Decodes a record payload produced by [`WalRecord::encode`].
    pub fn decode(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(bytes);
        let record = match r.u8()? {
            TAG_CLOCK_FLOOR => WalRecord::ClockFloor(r.u64()?),
            TAG_BALLOT => WalRecord::Ballot {
                dot: get_dot(&mut r)?,
                bal: r.u64()?,
            },
            TAG_ACCEPT => WalRecord::Accept {
                dot: get_dot(&mut r)?,
                ts: r.u64()?,
                bal: r.u64()?,
            },
            TAG_COMMIT => {
                let q = get_queued(&mut r)?;
                WalRecord::Commit {
                    dot: q.dot,
                    ts: q.ts,
                    cmd: q.cmd,
                    waits: q.waits,
                }
            }
            TAG_SIBLING_STABLE => WalRecord::SiblingStable {
                dot: get_dot(&mut r)?,
                shard: r.u64()?,
            },
            TAG_STABLE => WalRecord::Stable(get_stamps(&mut r)?),
            TAG_DOT_FLOOR => WalRecord::DotFloor(r.u64()?),
            t => return Err(DecodeError::BadTag(t)),
        };
        Ok(record)
    }

    /// Encodes the record as a complete frame: `[len][crc][payload]`.
    pub fn encode_frame(&self) -> Vec<u8> {
        frame(&self.encode())
    }
}

/// Frames a payload as `[len: u32][crc32: u32][payload]` — the framing shared by the
/// WAL, the snapshot stream and the `tempo-net` wire protocol.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Reads one frame starting at `bytes[offset..]`, returning the payload slice and the
/// offset just past the frame.
pub fn read_frame(bytes: &[u8], offset: usize) -> Result<(&[u8], usize), DecodeError> {
    let mut r = Reader::new(&bytes[offset..]);
    let len = r.u32()? as usize;
    let crc = r.u32()?;
    if r.remaining() < len {
        return Err(DecodeError::Truncated);
    }
    let start = offset + 8;
    let payload = &bytes[start..start + len];
    if crc32(payload) != crc {
        return Err(DecodeError::BadChecksum);
    }
    Ok((payload, start + len))
}

/// The outcome of replaying a WAL byte stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Replay {
    /// The records of the valid prefix, in append order.
    pub records: Vec<WalRecord>,
    /// Length in bytes of the valid prefix (magic included). Bytes past it are a torn
    /// tail and must be truncated before appending again.
    pub valid_len: usize,
}

/// Replays a WAL byte stream: decodes frames until the first torn or corrupt one.
///
/// A stream too short to hold the magic — or holding the wrong magic — replays as empty
/// with `valid_len` 0 (the caller rewrites the header). Errors are never returned:
/// a damaged suffix is, by definition, the part of the log that was not yet durable.
pub fn replay(bytes: &[u8]) -> Replay {
    if bytes.len() < WAL_MAGIC.len() || &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        return Replay {
            records: Vec::new(),
            valid_len: 0,
        };
    }
    let mut records = Vec::new();
    let mut offset = WAL_MAGIC.len();
    while offset < bytes.len() {
        let Ok((payload, next)) = read_frame(bytes, offset) else {
            break;
        };
        let Ok(record) = WalRecord::decode(payload) else {
            break;
        };
        records.push(record);
        offset = next;
    }
    Replay {
        records,
        valid_len: offset,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::ClockFloor(64),
            WalRecord::Ballot {
                dot: Dot::new(2, 9),
                bal: 7,
            },
            WalRecord::Accept {
                dot: Dot::new(2, 9),
                ts: 13,
                bal: 7,
            },
            WalRecord::Commit {
                dot: Dot::new(1, 1),
                ts: 5,
                cmd: Command::new(
                    Rifl::new(3, 4),
                    vec![
                        (0, 42, KVOp::Put(7)),
                        (1, 9, KVOp::Add(2)),
                        (1, 10, KVOp::Get),
                    ],
                    16,
                ),
                waits: vec![1],
            },
            WalRecord::SiblingStable {
                dot: Dot::new(1, 1),
                shard: 1,
            },
            WalRecord::Stable(vec![(5, 3), (4095, 9)]),
            WalRecord::DotFloor(96),
        ]
    }

    #[test]
    fn records_roundtrip() {
        for record in sample_records() {
            let bytes = record.encode();
            assert_eq!(WalRecord::decode(&bytes).unwrap(), record);
        }
    }

    #[test]
    fn replay_roundtrips_a_stream() {
        let mut stream = WAL_MAGIC.to_vec();
        for record in sample_records() {
            stream.extend_from_slice(&record.encode_frame());
        }
        let replayed = replay(&stream);
        assert_eq!(replayed.records, sample_records());
        assert_eq!(replayed.valid_len, stream.len());
    }

    #[test]
    fn replay_of_garbage_is_empty() {
        assert_eq!(replay(b"").records.len(), 0);
        assert_eq!(replay(b"XX").valid_len, 0);
        assert_eq!(replay(b"NOPE....").valid_len, 0);
    }

    #[test]
    fn corrupt_byte_stops_replay_at_the_previous_record() {
        let mut stream = WAL_MAGIC.to_vec();
        let records = sample_records();
        let mut boundaries = Vec::new();
        for record in &records {
            stream.extend_from_slice(&record.encode_frame());
            boundaries.push(stream.len());
        }
        // Flip a byte inside the third record's payload: replay keeps the first two and
        // truncates there.
        let mut corrupt = stream.clone();
        let in_third = boundaries[1] + 9;
        corrupt[in_third] ^= 0xFF;
        let replayed = replay(&corrupt);
        assert_eq!(replayed.records, records[..2].to_vec());
        assert_eq!(replayed.valid_len, boundaries[1]);
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The canonical IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    /// The bit-at-a-time definition the table is derived from.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = (crc >> 1) ^ (CRC_POLY & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    #[test]
    fn crc32_table_equals_the_bitwise_reference() {
        let mut rng = tempo_kernel::rand::Rng::new(0xC4C);
        for round in 0..600 {
            // Every short length once, then random lengths up to 4096.
            let len = if round <= 64 {
                round
            } else {
                rng.gen_range(4097) as usize
            };
            let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            assert_eq!(crc32(&bytes), crc32_bitwise(&bytes), "length {len}");
        }
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn dot_floor_pins_its_byte_encoding() {
        // Tag 7 + u64 LE; pinned so the WAL format cannot drift silently.
        let bytes = WalRecord::DotFloor(0x0102_0304_0506_0708).encode();
        assert_eq!(
            bytes,
            vec![7, 0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01]
        );
    }

    #[test]
    fn corrupt_length_prefixes_error_instead_of_allocating() {
        // A command frame whose op count is inflated far beyond the buffer must fail
        // cleanly (Truncated), not attempt a multi-gigabyte allocation.
        let mut w = Writer::new();
        w.put_u64(1); // rifl.client
        w.put_u64(1); // rifl.seq
        w.put_u64(0); // payload_size
        w.put_u32(u32::MAX); // shard count: absurd
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(get_command(&mut r), Err(DecodeError::Truncated));
    }

    #[test]
    fn commit_with_an_absurd_waits_count_is_truncated() {
        // A `Commit` payload whose waits count claims u32::MAX entries (32 GiB of
        // shard ids) must fail before allocating for them.
        let mut w = Writer::new();
        w.put_u8(TAG_COMMIT);
        put_dot(&mut w, Dot::new(1, 1));
        w.put_u64(5); // ts
        w.put_u32(u32::MAX); // waits count: absurd
        w.put_u64(1);
        assert_eq!(
            WalRecord::decode(&w.into_bytes()),
            Err(DecodeError::Truncated)
        );
    }
}
