//! Durability (DESIGN.md §6): [`Durable`] owns the store, when there is one, and every
//! rule about writing it — without a store it does nothing and builds nothing it would
//! log — and `Tempo::with_store` recovers from what it wrote.

use crate::executor::ExecutionInfo;
use crate::info::Phase;
use crate::messages::Quorums;
use crate::protocol::{Tempo, TempoOptions};
use crate::stability::{check_bucket, Bucket, Buckets};
use tempo_kernel::command::Command;
use tempo_kernel::config::Config;
use tempo_kernel::id::{Dot, ProcessId, ShardId};
use tempo_kernel::protocol::{Executor, ProtocolMetrics};
use tempo_store::snapshot::AcceptState;
use tempo_store::{Snapshot, Store, WalRecord};

/// One `ClockFloor` record reserves this many timestamps past the live clock.
const CLOCK_FLOOR_CHUNK: u64 = 64;
/// One `DotFloor` record reserves this many dot sequences past the live generator.
const DOT_FLOOR_CHUNK: u64 = 64;

/// The two chunked floors: the clock's (`ClockFloor`) and the dot generator's (`DotFloor`).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Floor {
    Clock,
    Dot,
}

/// The durable store of one Tempo process and the bookkeeping of writing it.
#[derive(Debug, Default)]
pub(crate) struct Durable {
    /// `None` = diskless (the baseline).
    store: Option<Box<dyn Store>>,
    /// The highest `ClockFloor` persisted.
    clock: u64,
    /// The highest `DotFloor` persisted.
    dots: u64,
    /// The store's append count as of the last snapshot.
    appends_at_snapshot: u64,
    /// `TempoOptions::snapshot_every_appends`.
    snapshot_every_appends: u64,
    /// The `Stable` record [`Self::append_stable`] fills, kept for its allocation.
    stable: Option<WalRecord>,
}

impl Durable {
    /// A diskless instance.
    pub(crate) fn new(snapshot_every_appends: u64) -> Self {
        Self {
            snapshot_every_appends,
            ..Self::default()
        }
    }

    /// Keeps `store` for what is logged from now on and returns what it holds.
    fn open(&mut self, mut store: Box<dyn Store>) -> (Option<Snapshot>, Vec<WalRecord>) {
        let loaded = store.load();
        self.store = Some(store);
        loaded
    }

    /// Appends one record, durable once the step's persist hook calls [`Self::sync`].
    pub(crate) fn append(&mut self, record: WalRecord) {
        if let Some(store) = &mut self.store {
            store.append(&record);
        }
    }

    /// Appends a `Commit` record, copying the payload only when there is a store.
    pub(crate) fn append_commit(&mut self, dot: Dot, ts: u64, cmd: &Command, waits: &[ShardId]) {
        if let Some(store) = &mut self.store {
            store.append(&WalRecord::Commit {
                dot,
                ts,
                cmd: cmd.clone(),
                waits: waits.to_vec(),
            });
        }
    }

    /// Appends a `Stable` record of the buckets whose stable timestamp rose, building it
    /// only when there is a store.
    pub(crate) fn append_stable(&mut self, risen: &[(Bucket, u64)]) {
        if let Some(store) = &mut self.store {
            let record = self.stable.get_or_insert(WalRecord::Stable(Vec::new()));
            if let WalRecord::Stable(stables) = record {
                stables.clear();
                stables.extend_from_slice(risen);
            }
            store.append(record);
        }
    }

    /// Keeps a floor ahead of its live value in chunks, so most steps append nothing. A
    /// restart resumes from the floor: it may *skip* unused values, never reuse one.
    pub(crate) fn cover(&mut self, floor: Floor, live: u64) {
        let Some(store) = &mut self.store else {
            return;
        };
        let (persisted, chunk, record): (&mut u64, u64, fn(u64) -> WalRecord) = match floor {
            Floor::Clock => (&mut self.clock, CLOCK_FLOOR_CHUNK, WalRecord::ClockFloor),
            Floor::Dot => (&mut self.dots, DOT_FLOOR_CHUNK, WalRecord::DotFloor),
        };
        if live > *persisted {
            *persisted = live + chunk;
            store.append(&record(*persisted));
        }
    }

    /// Makes every append so far durable.
    pub(crate) fn sync(&mut self) {
        if let Some(store) = &mut self.store {
            store.sync();
        }
    }

    /// Whether a snapshot is due: `force`d, or enough appends since the last; not diskless.
    pub(crate) fn snapshot_due(&self, force: bool) -> bool {
        self.store.as_ref().is_some_and(|store| {
            force
                || store.metrics().wal_appends - self.appends_at_snapshot
                    >= self.snapshot_every_appends
        })
    }

    /// Installs `snapshot` (truncating the WAL), cut at this `clock` and dot position.
    pub(crate) fn install(&mut self, snapshot: &Snapshot, clock: u64, dots: u64) {
        if let Some(store) = &mut self.store {
            store.install_snapshot(snapshot);
            self.resume_at(clock, dots);
        }
    }

    /// Floor chunks and snapshot pacing restart from this exact `clock` and dot position.
    fn resume_at(&mut self, clock: u64, dots: u64) {
        self.clock = clock;
        self.dots = dots;
        if let Some(store) = &self.store {
            self.appends_at_snapshot = store.metrics().wal_appends;
        }
    }

    /// Reports the WAL counters in `metrics` (nothing when diskless).
    pub(crate) fn report(&self, metrics: &mut ProtocolMetrics) {
        if let Some(store) = &self.store {
            let m = store.metrics();
            metrics.wal_appends = m.wal_appends;
            metrics.wal_bytes = m.wal_bytes;
            metrics.snapshots_taken = m.snapshots_taken;
        }
    }
}

/// Checks the bucket numbers read back from the store: one out of range means a store
/// written with another bucket count, which is not this replica's (fail-stop, like an
/// I/O failure).
fn fail_stop(buckets: impl IntoIterator<Item = Bucket>) {
    for bucket in buckets {
        check_bucket(bucket).expect("the store names a bucket of another build");
    }
}

impl Tempo {
    /// Creates a Tempo instance backed by a durable [`Store`]: every per-dot
    /// ballot/accept/commit and the clock and dot floors are written ahead to it, periodic
    /// snapshots truncate its WAL, and — crucially — the instance *recovers from it
    /// right here*: the snapshot is installed and the WAL suffix replayed before the
    /// first message is handled, so a replica rebuilt after a crash starts from its
    /// pre-crash accepts and commits instead of blank. Replay re-feeds commits as
    /// ordinary `Committed` events and lets the executor re-derive `⟨ts, id⟩` order
    /// (DESIGN.md §6, "Snapshot cut-point safety").
    pub fn with_store(
        process: ProcessId,
        shard: ShardId,
        config: Config,
        options: TempoOptions,
        store: Box<dyn Store>,
    ) -> Self {
        let mut tempo = Self::with_options(process, shard, config, options);
        let (snapshot, wal) = tempo.durable.open(store);
        let empty = snapshot.is_none() && wal.is_empty();
        let replayed_wal = !wal.is_empty();
        if let Some(snap) = snapshot {
            let image = snap.image;
            fail_stop(snap.stable.iter().map(|s| s.0));
            fail_stop(image.floors.iter().map(|f| f.0));
            tempo.stability.restore(snap.clock);
            tempo.dot_gen.skip_to(snap.next_dot_seq);
            let dropped = tempo.executor.install(&image.floors, image.kv);
            debug_assert!(dropped.is_empty(), "installed into a fresh executor");
            tempo.replay_feed(ExecutionInfo::StableIn(snap.stable));
            tempo.executor.set_executed(snap.executed_count);
            // Every snapshot-covered execution was a commit; keep the two counters
            // consistent so the stall detector (`repair_scan`) stays meaningful.
            tempo.metrics.committed = snap.executed_count;
            tempo.gc.restore_executed(&image.watermarks);
            for a in &snap.accepts {
                let info = tempo.info_mut(a.dot, 0);
                info.ts = a.ts;
                info.bal = a.bal;
                info.abal = a.abal;
            }
            for q in image.queued {
                tempo.replay_commit(q.dot, q.ts, q.cmd, q.waits);
            }
        }
        for record in wal {
            match record {
                WalRecord::ClockFloor(floor) => tempo.stability.restore(floor),
                WalRecord::DotFloor(floor) => tempo.dot_gen.skip_to(floor),
                WalRecord::Ballot { dot, bal } => {
                    let info = tempo.info_mut(dot, 0);
                    info.bal = info.bal.max(bal);
                }
                WalRecord::Accept { dot, ts, bal } => {
                    let info = tempo.info_mut(dot, 0);
                    info.ts = ts;
                    info.bal = info.bal.max(bal);
                    info.abal = info.abal.max(bal);
                }
                WalRecord::Commit {
                    dot,
                    ts,
                    cmd,
                    waits,
                } => tempo.replay_commit(dot, ts, cmd, waits),
                WalRecord::SiblingStable { dot, shard } => {
                    tempo.replay_feed(ExecutionInfo::ShardStable { dot, shard });
                }
                WalRecord::Stable(risen) => {
                    fail_stop(risen.iter().map(|r| r.0));
                    tempo.replay_feed(ExecutionInfo::StableIn(risen));
                }
            }
        }
        let (clock, dots) = (tempo.stability.clock(), tempo.dot_gen.generated());
        tempo.durable.resume_at(clock, dots);
        if !empty {
            tempo.stability.claim_nothing();
        }
        if replayed_wal {
            // Fold the replayed suffix into a fresh snapshot immediately: append-count
            // pacing restarts at zero with each incarnation, so a crash-looping
            // replica would otherwise never truncate its WAL and replay cost would
            // grow without bound across crashes.
            tempo.snapshot(true);
        }
        tempo
    }

    /// Replays one durable commit (from the snapshot's queue or a WAL `Commit`).
    fn replay_commit(&mut self, dot: Dot, final_ts: u64, cmd: Command, waits: Vec<ShardId>) {
        {
            let info = self.info_mut(dot, 0);
            if info.phase.is_committed_or_executed() {
                return;
            }
            info.learn_payload(&cmd, &Quorums::new());
            info.final_ts = final_ts;
            info.phase = Phase::Commit;
        }
        self.metrics.committed += 1;
        self.stability.restore(final_ts);
        if self
            .executor
            .covers(final_ts, dot, &Buckets::of(&cmd, self.shard))
        {
            // Defensive: already inside the restored image (cannot happen for records
            // the cut-point argument admits, but a replayed log must never double-apply).
            let info = self.info.get_mut(&dot).expect("info exists");
            info.phase = Phase::Execute;
            self.gc.record_executed(dot);
            return;
        }
        self.replay_feed(ExecutionInfo::Committed {
            dot,
            ts: final_ts,
            cmd,
            waits,
        });
    }

    /// Feeds the executor during recovery, when nothing can be sent: results are dropped
    /// (answered in a previous life, or retried) and `MStable`s not re-broadcast (the
    /// previous life sent them; live replicas answer sibling shards that still wait).
    fn replay_feed(&mut self, info: ExecutionInfo) {
        let _ = self.executor.handle(info);
        let _ = self.executor.take_newly_stable();
        for dot in self.executor.take_executed_dots() {
            let info = self
                .info
                .get_mut(&dot)
                .expect("executed commands have info");
            info.phase = Phase::Execute;
            self.gc.record_executed(dot);
        }
    }

    /// Installs a snapshot of the current state (see [`Snapshot`]) when one is due —
    /// paced off the promise timer, so its cost stays off the message hot path and it
    /// is quiescent when the WAL is — or `force`d. Builds nothing without a store.
    pub(crate) fn snapshot(&mut self, force: bool) {
        if !self.durable.snapshot_due(force) {
            return;
        }
        let (clock, next_dot_seq) = (self.stability.clock(), self.dot_gen.generated());
        let snapshot = Snapshot {
            clock,
            stable: self.executor.stables(),
            next_dot_seq,
            executed_count: self.executor.executed(),
            accepts: self
                .info
                .iter()
                .filter(|(_, i)| !i.phase.is_committed_or_executed() && (i.bal != 0 || i.abal != 0))
                .map(|(dot, i)| AcceptState {
                    dot: *dot,
                    ts: i.ts,
                    bal: i.bal,
                    abal: i.abal,
                })
                .collect(),
            image: self.applied_image(),
        };
        self.durable.install(&snapshot, clock, next_dot_seq);
    }
}
