//! Golden-file and torn-write tests for the WAL/snapshot encoding.
//!
//! The checked-in fixtures under `tests/golden/` pin the exact on-disk byte format:
//! `wal_v3.bin` is a complete WAL stream and `snapshot_v3.bin` a complete snapshot
//! stream, both produced by [`golden_records`]/[`golden_snapshot`]. If an encoding
//! change is intentional, bump the stream magic and regenerate the fixtures with
//! `cargo test -p tempo-store --test golden -- --ignored regenerate`.

use std::path::PathBuf;
use tempo_kernel::command::{Command, KVOp};
use tempo_kernel::id::{Dot, Rifl};
use tempo_store::snapshot::{AcceptState, AppliedImage, QueuedCommit};
use tempo_store::wal::{replay, WAL_MAGIC};
use tempo_store::{FileStore, MemStore, Snapshot, Store, WalRecord};

/// The record sequence frozen in `tests/golden/wal_v3.bin`.
fn golden_records() -> Vec<WalRecord> {
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
            dot: Dot::new(0, 1),
            ts: 5,
            cmd: Command::single(Rifl::new(1, 1), 0, 42, KVOp::Put(7), 16),
            waits: vec![],
        },
        WalRecord::Commit {
            dot: Dot::new(1, 2),
            ts: 9,
            cmd: Command::new(
                Rifl::new(3, 4),
                vec![(0, 1, KVOp::Add(2)), (1, 8, KVOp::Get)],
                0,
            ),
            waits: vec![1],
        },
        WalRecord::SiblingStable {
            dot: Dot::new(1, 2),
            shard: 1,
        },
        WalRecord::Stable(vec![(1, 9), (42, 5)]),
        WalRecord::ClockFloor(128),
        WalRecord::DotFloor(67),
    ]
}

/// The snapshot frozen in `tests/golden/snapshot_v3.bin`.
fn golden_snapshot() -> Snapshot {
    Snapshot {
        clock: 128,
        stable: vec![(1, 9), (42, 5)],
        next_dot_seq: 3,
        executed_count: 2,
        accepts: vec![AcceptState {
            dot: Dot::new(2, 9),
            ts: 13,
            bal: 7,
            abal: 7,
        }],
        image: AppliedImage {
            floors: vec![(1, 9, Dot::new(1, 2)), (42, 5, Dot::new(0, 1))],
            kv: vec![(1, 2), (42, 7)],
            watermarks: vec![(0, 1), (1, 2)],
            queued: vec![QueuedCommit {
                dot: Dot::new(2, 9),
                ts: 13,
                cmd: Command::single(Rifl::new(2, 2), 0, 0, KVOp::Add(1), 0),
                waits: vec![],
            }],
        },
    }
}

fn golden_wal_stream() -> Vec<u8> {
    let mut stream = WAL_MAGIC.to_vec();
    for record in golden_records() {
        stream.extend_from_slice(&record.encode_frame());
    }
    stream
}

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

#[test]
fn golden_wal_fixture_decodes_to_the_expected_records() {
    let bytes = std::fs::read(fixture_path("wal_v3.bin")).expect("fixture present");
    let replayed = replay(&bytes);
    assert_eq!(replayed.valid_len, bytes.len(), "fixture has no torn tail");
    assert_eq!(replayed.records, golden_records());
}

#[test]
fn golden_wal_fixture_matches_the_current_encoder() {
    let bytes = std::fs::read(fixture_path("wal_v3.bin")).expect("fixture present");
    assert_eq!(
        golden_wal_stream(),
        bytes,
        "WAL encoding drifted from the v3 fixture — bump the magic and regenerate"
    );
}

#[test]
fn golden_snapshot_fixture_roundtrips() {
    let bytes = std::fs::read(fixture_path("snapshot_v3.bin")).expect("fixture present");
    assert_eq!(
        Snapshot::decode(&bytes).expect("decodes"),
        golden_snapshot()
    );
    assert_eq!(
        golden_snapshot().encode(),
        bytes,
        "snapshot encoding drifted from the v3 fixture — bump the magic and regenerate"
    );
}

/// Torn-write recovery: truncating the WAL stream at *every* byte offset must recover
/// exactly the records whose frames are fully contained in the prefix — never an error,
/// never a partial record.
#[test]
fn torn_write_recovery_at_every_byte_offset() {
    let stream = golden_wal_stream();
    let records = golden_records();
    // Frame boundaries: records[..k] is durable iff the cut reaches boundaries[k].
    let mut boundaries = vec![WAL_MAGIC.len()];
    {
        let mut offset = WAL_MAGIC.len();
        for record in &records {
            offset += record.encode_frame().len();
            boundaries.push(offset);
        }
    }
    for cut in 0..=stream.len() {
        let replayed = replay(&stream[..cut]);
        let expected = boundaries.iter().filter(|b| **b <= cut).count().max(1) - 1;
        assert_eq!(
            replayed.records,
            records[..expected].to_vec(),
            "cut at byte {cut}"
        );
        assert_eq!(
            replayed.valid_len,
            if cut < WAL_MAGIC.len() {
                0
            } else {
                boundaries[expected]
            },
            "cut at byte {cut}"
        );
    }
}

/// The same property end-to-end through a [`FileStore`]: a torn tail on disk is
/// truncated on open and appending afterwards produces a clean log.
#[test]
fn filestore_truncates_torn_tails_at_every_offset() {
    let stream = golden_wal_stream();
    let records = golden_records();
    let dir = std::env::temp_dir().join(format!("tempo-store-torn-{}", std::process::id()));
    // Every offset through a file would be slow with per-case fsyncs; step through a
    // representative spread plus all frame-boundary neighbourhoods.
    let mut cuts: Vec<usize> = (0..=stream.len()).step_by(7).collect();
    let mut offset = WAL_MAGIC.len();
    for record in &records {
        offset += record.encode_frame().len();
        cuts.extend([offset - 1, offset, offset + 1]);
    }
    for cut in cuts {
        let cut = cut.min(stream.len());
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("wal.log"), &stream[..cut]).unwrap();
        let mut store = FileStore::open(&dir).unwrap();
        let (snap, replayed) = store.load();
        assert!(snap.is_none());
        let expected: Vec<WalRecord> = {
            let full = replay(&stream[..cut]);
            full.records
        };
        assert_eq!(replayed, expected, "cut at byte {cut}");
        // The torn tail is gone: a fresh append then a reopen sees a clean suffix.
        store.append(&WalRecord::ClockFloor(4096));
        store.sync();
        drop(store);
        let mut reopened = FileStore::open(&dir).unwrap();
        let (_, replayed) = reopened.load();
        let mut want = expected;
        want.push(WalRecord::ClockFloor(4096));
        assert_eq!(replayed, want, "cut at byte {cut}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// MemStore and FileStore hold byte-identical streams for the same appends.
#[test]
fn backends_share_the_encoding() {
    let dir = std::env::temp_dir().join(format!("tempo-store-shared-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut mem = MemStore::new();
    let mut file = FileStore::open(&dir).unwrap();
    for record in golden_records() {
        mem.append(&record);
        file.append(&record);
    }
    mem.sync();
    file.sync();
    let disk = std::fs::read(dir.join("wal.log")).unwrap();
    assert_eq!(disk, golden_wal_stream());
    assert_eq!(mem.wal_len(), disk.len());
    assert_eq!(mem.metrics().wal_bytes, file.metrics().wal_bytes);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Regenerates the fixtures (run manually after an intentional format change):
/// `cargo test -p tempo-store --test golden -- --ignored regenerate`.
#[test]
#[ignore = "writes the golden fixtures; run manually after an intentional format change"]
fn regenerate() {
    std::fs::create_dir_all(fixture_path("")).unwrap();
    std::fs::write(fixture_path("wal_v3.bin"), golden_wal_stream()).unwrap();
    std::fs::write(fixture_path("snapshot_v3.bin"), golden_snapshot().encode()).unwrap();
}

/// Streams of an earlier format (magics `TWL2`/`TSN2`, `u64` bucket numbers) are
/// rejected whole: the WAL replays as empty and the snapshot does not decode.
#[test]
fn earlier_formats_are_rejected() {
    let mut wal = golden_wal_stream();
    wal[..4].copy_from_slice(b"TWL2");
    assert_eq!(replay(&wal).valid_len, 0);
    let mut snapshot = golden_snapshot().encode();
    snapshot[..4].copy_from_slice(b"TSN2");
    assert_eq!(
        Snapshot::decode(&snapshot),
        Err(tempo_store::DecodeError::BadMagic)
    );
}
