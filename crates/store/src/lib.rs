//! `tempo-store` — durable replica state: a write-ahead log plus executor/clock
//! snapshots behind one [`Store`] trait.
//!
//! The paper assumes that a process which accepted or committed a command still knows it
//! after a crash; `tempo-sim`'s fault plane showed that without persistence a restarted
//! replica is an amnesiac (DESIGN.md §5). This crate is the persistence half of the
//! recovery story — the documented durability *model* lives in DESIGN.md §6; this crate
//! is its mechanism:
//!
//! * [`wal`] — append-only log of [`WalRecord`]s (per-dot ballot/accept/commit state,
//!   sibling-shard stability attestations, chunked clock and dot floors),
//!   length+CRC-framed, replayed on open with torn-tail truncation;
//! * [`snapshot`] — periodic [`Snapshot`]s that truncate the log: the replica's
//!   [`AppliedImage`] (execution floors, key-value image, GC watermarks, pending queue —
//!   the image a rejoin state transfer carries too) beside its clock, stable
//!   timestamps and consensus state;
//! * the [`Store`] trait with two backends: [`MemStore`], an in-memory byte store whose
//!   cloned handles share contents (the simulator's deterministic stand-in for a disk
//!   that survives a process restart), and [`FileStore`], a real on-disk backend
//!   (`wal.log` + `snapshot.bin` in a per-replica directory) with `fsync`-backed
//!   [`Store::sync`] and atomic tmp-file/rename snapshot installs. A third backend,
//!   [`FaultStore`], is a *lying disk* for the fault plane: a seeded
//!   [`StoreFaultPlan`] injects fsync lies, torn writes and CRC-detectable bit rot,
//!   all of which must surface as recoverable data loss — never a panic.
//!
//! Both backends run the *same* encode/decode path, so every simulator run exercises the
//! exact bytes a disk would hold; the golden-file test under `tests/` pins that format.
//!
//! # Durability contract
//!
//! [`Store::append`] buffers; [`Store::sync`] makes everything appended so far durable.
//! The kernel `Driver` calls the protocol's `persist` hook — which syncs the store —
//! after every dispatch step and *before* the step's outbound messages are handed to
//! the transport, so no message can leave a replica before the state that produced it
//! is durable (the classic write-ahead rule). I/O failures are fatal by design: a
//! replica that cannot persist must fail-stop rather than keep making promises it may
//! forget (it panics, which the fault model treats as a crash).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod snapshot;
pub mod wal;

pub use fault::{FaultStore, StoreFaultPlan, StoreFaultSummary};
pub use snapshot::{AcceptState, AppliedImage, QueuedCommit, Snapshot};
pub use wal::{DecodeError, Replay, WalRecord};

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Counters of durable-state activity, surfaced through `ProtocolMetrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreMetrics {
    /// WAL records appended.
    pub wal_appends: u64,
    /// WAL bytes appended (frame overhead included).
    pub wal_bytes: u64,
    /// Snapshots installed (each truncates the WAL).
    pub snapshots_taken: u64,
}

/// A durable backing store for one replica.
///
/// Implementations are fail-stop: any I/O error panics (see the crate docs). All methods
/// take `&mut self`; shared handles (e.g. [`MemStore`] clones) synchronise internally.
pub trait Store: fmt::Debug + Send {
    /// Appends one record to the WAL. Buffered: durable only after [`Store::sync`].
    fn append(&mut self, record: &WalRecord);

    /// Makes every append so far durable (`fsync` for [`FileStore`]).
    fn sync(&mut self);

    /// Installs a snapshot and truncates the WAL (including any unsynced appends — the
    /// snapshot supersedes them). Atomic: a crash mid-install leaves the previous
    /// snapshot and WAL intact.
    fn install_snapshot(&mut self, snapshot: &Snapshot);

    /// Loads the durable state: the latest snapshot (if any) and the WAL suffix
    /// appended since it, truncating any torn tail the previous crash left behind.
    fn load(&mut self) -> (Option<Snapshot>, Vec<WalRecord>);

    /// Activity counters.
    fn metrics(&self) -> StoreMetrics;
}

// ------------------------------------------------------------------ MemStore

#[derive(Debug, Default)]
struct MemInner {
    wal: Vec<u8>,
    snapshot: Option<Vec<u8>>,
    metrics: StoreMetrics,
}

/// An in-memory [`Store`] holding the same byte streams a [`FileStore`] would hold on
/// disk. Cloned handles share contents, which is how the simulator models durability: a
/// nemesis `Restart` rebuilds the protocol instance (volatile state lost) around a
/// clone of the same `MemStore` (the "disk" survived), deterministically and without
/// filesystem I/O. A *fresh* `MemStore` per incarnation models a diskless replica.
#[derive(Debug, Clone, Default)]
pub struct MemStore {
    inner: Arc<Mutex<MemInner>>,
}

impl MemStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Size of the stored WAL in bytes (magic included; diagnostics).
    pub fn wal_len(&self) -> usize {
        self.inner.lock().expect("store lock").wal.len()
    }

    /// Whether a snapshot has been installed.
    pub fn has_snapshot(&self) -> bool {
        self.inner.lock().expect("store lock").snapshot.is_some()
    }

    /// Test hook: truncates the stored WAL byte stream to `len` bytes, simulating a
    /// torn write at that offset.
    pub fn tear_wal_at(&self, len: usize) {
        let mut inner = self.inner.lock().expect("store lock");
        inner.wal.truncate(len);
    }
}

impl Store for MemStore {
    fn append(&mut self, record: &WalRecord) {
        let mut inner = self.inner.lock().expect("store lock");
        if inner.wal.is_empty() {
            inner.wal.extend_from_slice(wal::WAL_MAGIC);
        }
        let frame = record.encode_frame();
        inner.metrics.wal_appends += 1;
        inner.metrics.wal_bytes += frame.len() as u64;
        inner.wal.extend_from_slice(&frame);
    }

    fn sync(&mut self) {}

    fn install_snapshot(&mut self, snapshot: &Snapshot) {
        let mut inner = self.inner.lock().expect("store lock");
        inner.snapshot = Some(snapshot.encode());
        inner.wal.clear();
        inner.metrics.snapshots_taken += 1;
    }

    fn load(&mut self) -> (Option<Snapshot>, Vec<WalRecord>) {
        let mut inner = self.inner.lock().expect("store lock");
        let snapshot = inner
            .snapshot
            .as_deref()
            .and_then(|bytes| Snapshot::decode(bytes).ok());
        let replayed = wal::replay(&inner.wal);
        inner.wal.truncate(replayed.valid_len);
        (snapshot, replayed.records)
    }

    fn metrics(&self) -> StoreMetrics {
        self.inner.lock().expect("store lock").metrics
    }
}

// ----------------------------------------------------------------- FileStore

/// An on-disk [`Store`]: `wal.log` and `snapshot.bin` inside a per-replica directory.
///
/// Appends are buffered in memory; [`Store::sync`] writes and `fsync`s them in one
/// batch (the kernel driver calls it once per dispatch step, so a step's worth of
/// records costs one write + one fsync, not one per record). Snapshots are written to
/// `snapshot.tmp`, fsynced, and renamed over `snapshot.bin` before the WAL is
/// truncated, so every crash point leaves a consistent pair.
#[derive(Debug)]
pub struct FileStore {
    dir: PathBuf,
    wal: File,
    /// Appends not yet written to the file (flushed by [`Store::sync`]).
    buf: Vec<u8>,
    metrics: StoreMetrics,
}

impl FileStore {
    /// Opens (creating if needed) the store rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let mut wal = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(dir.join("wal.log"))?;
        if wal.metadata()?.len() < wal::WAL_MAGIC.len() as u64 {
            wal.set_len(0)?;
            wal.write_all(wal::WAL_MAGIC)?;
            wal.sync_data()?;
        }
        wal.seek(SeekFrom::End(0))?;
        Ok(Self {
            dir,
            wal,
            buf: Vec::new(),
            metrics: StoreMetrics::default(),
        })
    }

    /// The directory backing this store.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn snapshot_path(&self) -> PathBuf {
        self.dir.join("snapshot.bin")
    }
}

impl Store for FileStore {
    fn append(&mut self, record: &WalRecord) {
        let frame = record.encode_frame();
        self.metrics.wal_appends += 1;
        self.metrics.wal_bytes += frame.len() as u64;
        self.buf.extend_from_slice(&frame);
    }

    fn sync(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        self.wal.write_all(&self.buf).expect("WAL write failed");
        self.wal.sync_data().expect("WAL fsync failed");
        self.buf.clear();
    }

    fn install_snapshot(&mut self, snapshot: &Snapshot) {
        let tmp = self.dir.join("snapshot.tmp");
        let bytes = snapshot.encode();
        let mut file = File::create(&tmp).expect("snapshot create failed");
        file.write_all(&bytes).expect("snapshot write failed");
        file.sync_data().expect("snapshot fsync failed");
        drop(file);
        std::fs::rename(&tmp, self.snapshot_path()).expect("snapshot rename failed");
        // The rename must be durable *before* the WAL truncation below: fdatasync on
        // one file does not order another file's directory entry, and persisting the
        // truncation while losing the rename would resurrect the old snapshot with an
        // empty log. Directory fsync is best-effort where unsupported.
        if let Ok(dir) = File::open(&self.dir) {
            let _ = dir.sync_all();
        }
        // The snapshot supersedes the whole log, buffered appends included.
        self.buf.clear();
        self.wal
            .set_len(wal::WAL_MAGIC.len() as u64)
            .expect("WAL truncate failed");
        self.wal.seek(SeekFrom::End(0)).expect("WAL seek failed");
        self.wal.sync_data().expect("WAL fsync failed");
        self.metrics.snapshots_taken += 1;
    }

    fn load(&mut self) -> (Option<Snapshot>, Vec<WalRecord>) {
        let snapshot = std::fs::read(self.snapshot_path())
            .ok()
            .and_then(|bytes| Snapshot::decode(&bytes).ok());
        let mut bytes = Vec::new();
        self.wal.seek(SeekFrom::Start(0)).expect("WAL seek failed");
        self.wal.read_to_end(&mut bytes).expect("WAL read failed");
        let replayed = wal::replay(&bytes);
        if replayed.valid_len == 0 {
            // Missing or corrupt magic (e.g. a crash between the header write and its
            // sync left allocated-but-garbage bytes): rewrite the header, or every
            // record synced after it would be invisible to all future replays.
            self.wal.set_len(0).expect("WAL truncate failed");
            self.wal.seek(SeekFrom::Start(0)).expect("WAL seek failed");
            self.wal
                .write_all(wal::WAL_MAGIC)
                .expect("WAL write failed");
            self.wal.sync_data().expect("WAL fsync failed");
        } else if (replayed.valid_len as u64) < bytes.len() as u64 {
            // Torn tail from the crash: drop it before appending anything else.
            self.wal
                .set_len(replayed.valid_len as u64)
                .expect("WAL truncate failed");
            self.wal.sync_data().expect("WAL fsync failed");
        }
        self.wal.seek(SeekFrom::End(0)).expect("WAL seek failed");
        (snapshot, replayed.records)
    }

    fn metrics(&self) -> StoreMetrics {
        self.metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_kernel::command::{Command, KVOp};
    use tempo_kernel::id::{Dot, Rifl};

    fn records() -> Vec<WalRecord> {
        vec![
            WalRecord::ClockFloor(10),
            WalRecord::Commit {
                dot: Dot::new(1, 1),
                ts: 3,
                cmd: Command::single(Rifl::new(1, 1), 0, 7, KVOp::Put(9), 0),
                waits: vec![],
            },
        ]
    }

    #[test]
    fn memstore_roundtrips_and_shares_handles() {
        let mut store = MemStore::new();
        for r in records() {
            store.append(&r);
        }
        store.sync();
        // A cloned handle sees the same contents (this is the simulated disk).
        let mut other = store.clone();
        let (snap, replayed) = other.load();
        assert!(snap.is_none());
        assert_eq!(replayed, records());
        assert_eq!(store.metrics().wal_appends, 2);
        assert!(store.metrics().wal_bytes > 0);
    }

    #[test]
    fn memstore_snapshot_truncates_wal() {
        let mut store = MemStore::new();
        for r in records() {
            store.append(&r);
        }
        let snap = Snapshot {
            clock: 42,
            ..Snapshot::default()
        };
        store.install_snapshot(&snap);
        store.append(&WalRecord::ClockFloor(50));
        let (loaded, replayed) = store.clone().load();
        assert_eq!(loaded.unwrap().clock, 42);
        assert_eq!(replayed, vec![WalRecord::ClockFloor(50)]);
        assert_eq!(store.metrics().snapshots_taken, 1);
    }

    #[test]
    fn memstore_torn_tail_is_truncated_on_load() {
        let mut store = MemStore::new();
        for r in records() {
            store.append(&r);
        }
        let full = store.wal_len();
        store.tear_wal_at(full - 3);
        let (_, replayed) = store.clone().load();
        assert_eq!(replayed, records()[..1].to_vec());
        // After the load the tail is gone: appending again yields a clean log.
        store.append(&WalRecord::ClockFloor(99));
        let (_, replayed) = store.clone().load();
        assert_eq!(
            replayed,
            vec![records()[0].clone(), WalRecord::ClockFloor(99)]
        );
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("tempo-store-test-{}-{}", std::process::id(), name));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn filestore_survives_reopen() {
        let dir = temp_dir("reopen");
        {
            let mut store = FileStore::open(&dir).unwrap();
            let (snap, replayed) = store.load();
            assert!(snap.is_none() && replayed.is_empty());
            for r in records() {
                store.append(&r);
            }
            store.sync();
        }
        {
            let mut store = FileStore::open(&dir).unwrap();
            let (snap, replayed) = store.load();
            assert!(snap.is_none());
            assert_eq!(replayed, records());
            store.install_snapshot(&Snapshot {
                clock: 7,
                ..Snapshot::default()
            });
            store.append(&WalRecord::ClockFloor(80));
            store.sync();
        }
        {
            let mut store = FileStore::open(&dir).unwrap();
            let (snap, replayed) = store.load();
            assert_eq!(snap.unwrap().clock, 7);
            assert_eq!(replayed, vec![WalRecord::ClockFloor(80)]);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn filestore_repairs_a_corrupt_magic_header() {
        // A crash between the header write and its sync can leave allocated garbage
        // where the magic should be. The next load must repair the header so that
        // records synced afterwards stay replayable forever.
        let dir = temp_dir("badmagic");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("wal.log"), b"XXXX").unwrap();
        {
            let mut store = FileStore::open(&dir).unwrap();
            let (snap, replayed) = store.load();
            assert!(snap.is_none() && replayed.is_empty());
            store.append(&records()[0]);
            store.sync();
        }
        {
            let mut store = FileStore::open(&dir).unwrap();
            let (_, replayed) = store.load();
            assert_eq!(replayed, records()[..1].to_vec(), "header must be repaired");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn filestore_unsynced_appends_are_not_durable() {
        let dir = temp_dir("unsynced");
        {
            let mut store = FileStore::open(&dir).unwrap();
            store.append(&records()[0]);
            store.sync();
            store.append(&records()[1]); // never synced: "lost in the crash"
        }
        {
            let mut store = FileStore::open(&dir).unwrap();
            let (_, replayed) = store.load();
            assert_eq!(replayed, records()[..1].to_vec());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
