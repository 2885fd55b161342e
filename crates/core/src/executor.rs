//! The Tempo execution stage: stability-ordered execution as a separate, independently
//! testable component (Algorithm 2 lines 49-53 and Algorithm 3 lines 60-66).
//!
//! The ordering stage ([`crate::protocol::Tempo`]) feeds this executor three kinds of
//! [`ExecutionInfo`] events: commands committed with their final timestamp, advances of
//! the buckets' stable timestamps (Theorem 1, per bucket; see [`crate::stability`]), and
//! per-shard stability announcements (`MStable`) for multi-shard commands. The executor
//! owns the replicated key-value store and applies a committed command once its
//! timestamp is stable in each of its buckets and every command below it in `⟨timestamp,
//! id⟩` order on those buckets has executed — and, for a multi-shard command, once the
//! colocated replica of every other accessed shard has announced stability.
//!
//! So each bucket keeps a line of its queued commands in `⟨ts, id⟩` order, and only a
//! command at the head of every line it is on can execute. A command is checked when it
//! commits, when it becomes a head, when a bucket of it turns stable past it and when its
//! last sibling attests — never by a walk over the queue. A command announces its
//! stability (`MStable`) once it is stable in each of its buckets, without waiting for
//! the commands below it to execute; each bucket's scan visits an entry once, when that
//! bucket's stable timestamp passes it (see [`TempoExecutor::announce_visits`]).
//!
//! Because the executor never looks at protocol state, it can be unit-tested by feeding
//! hand-crafted event sequences (see the tests below), exactly the ordering/execution
//! split the paper describes.

use crate::promises::PerBucket;
use crate::stability::{bucket_of, Bucket, Buckets, BUCKETS};
use std::collections::{BTreeMap, BTreeSet};
use tempo_kernel::command::{Command, Key};
use tempo_kernel::config::Config;
use tempo_kernel::id::{Dot, ProcessId, ShardId};
use tempo_kernel::kvstore::KVStore;
use tempo_kernel::protocol::{Executed, Executor};
use tempo_store::QueuedCommit;

/// Ordering events handed from the Tempo ordering stage to the executor.
#[derive(Debug, Clone)]
pub enum ExecutionInfo {
    /// A command committed with final timestamp `ts`. `waits` are the *other* accessed
    /// shards whose `MStable` attestation must arrive before the command may execute
    /// locally (empty for single-shard commands). Waits are keyed by shard — an
    /// attestation from *any* replica of the shard clears it (stability is a
    /// shard-global property), so a single crashed attestor cannot stall execution.
    Committed {
        /// Command identifier.
        dot: Dot,
        /// The final (maximum over shards) timestamp.
        ts: u64,
        /// The command payload.
        cmd: Command,
        /// The other accessed shards whose stability attestation is still required.
        waits: Vec<ShardId>,
    },
    /// Every bucket is stable up to at least `ts`.
    Stable {
        /// The timestamp every bucket is stable up to.
        ts: u64,
    },
    /// The stable timestamps of these buckets advanced (Theorem 1, per bucket).
    StableIn(Vec<(Bucket, u64)>),
    /// Some replica of `shard` announced that `dot` is stable there (`MStable`).
    ShardStable {
        /// Command identifier.
        dot: Dot,
        /// The shard the announcement attests stability for.
        shard: ShardId,
    },
}

#[derive(Debug)]
struct PendingCommand {
    ts: u64,
    cmd: Command,
    /// Sibling shards whose `MStable` attestation is still missing.
    waits: BTreeSet<ShardId>,
    /// Whether it was announced (a single-shard command needs no announcement).
    announced: bool,
    /// The command's buckets on this shard.
    buckets: Buckets,
}

const DOT_MIN: Dot = Dot {
    source: 0,
    sequence: 0,
};

/// The Tempo executor at one process.
#[derive(Debug)]
pub struct TempoExecutor {
    shard: ShardId,
    /// Each bucket's stable timestamp as fed, at least `stable_all`.
    stable: PerBucket<u64>,
    /// The timestamp every bucket is stable up to ([`ExecutionInfo::Stable`]).
    stable_all: u64,
    /// Committed-but-not-executed commands by dot.
    pending: BTreeMap<Dot, PendingCommand>,
    /// The buckets' lines: every pending command under each of its buckets, in
    /// `⟨bucket, ts, id⟩` order.
    lines: BTreeSet<(Bucket, u64, Dot)>,
    /// `MStable` attestations (by shard) received before the command committed locally.
    early_stables: BTreeMap<Dot, BTreeSet<ShardId>>,
    /// Multi-shard dots that became locally stable and still need an `MStable`
    /// broadcast; drained by the ordering stage via [`Self::take_newly_stable`].
    newly_stable: Vec<Dot>,
    /// Entries visited by the announcement scans (diagnostics).
    announce_visits: u64,
    /// Dots executed and not yet claimed via [`Self::take_executed_dots`].
    executed_dots: Vec<Dot>,
    /// Per bucket, the `⟨timestamp, dot⟩` of its last executed command — its *execution
    /// floor*. Execution follows each line in order, so the bucket's executed commands
    /// are exactly its prefix at or below the floor; `(0, (0, 0))` before anything
    /// executes there. Durable snapshots and rejoin state transfers carry the floors
    /// (DESIGN.md §6). Held as `(ts, source, sequence)` (see [`Self::floor`]).
    floors: PerBucket<(u64, u64, u64)>,
    /// While gated, execution is suspended (commands still commit into the lines, and
    /// stability is still announced to sibling shards). The ordering stage gates the
    /// executor when the applied image is known to be missing a skipped command —
    /// executing past such a gap would compute (and hand to clients) values from an
    /// incomplete store — and ungates once a state transfer whose floors cover every gap
    /// installs.
    gated: bool,
    kv: KVStore,
    executed_count: u64,
    /// Entries to check for execution: they may have become ready.
    check: Vec<(u64, Dot)>,
}

impl TempoExecutor {
    /// Multi-shard dots that became locally stable since the last call and must be
    /// announced with `MStable` to every replica of the command.
    pub fn take_newly_stable(&mut self) -> Vec<Dot> {
        std::mem::take(&mut self.newly_stable)
    }

    /// Dots executed since the last call (for phase bookkeeping in the ordering stage).
    pub fn take_executed_dots(&mut self) -> Vec<Dot> {
        std::mem::take(&mut self.executed_dots)
    }

    /// Moves what [`Self::take_newly_stable`] and [`Self::take_executed_dots`] return
    /// into `announced` and `executed`, keeping every buffer's allocation.
    pub fn drain_dots(&mut self, announced: &mut Vec<Dot>, executed: &mut Vec<Dot>) {
        announced.append(&mut self.newly_stable);
        executed.append(&mut self.executed_dots);
    }

    /// The stable timestamp of `bucket` the executor has been told about.
    pub fn stable_in(&self, bucket: Bucket) -> u64 {
        self.stable[bucket as usize].max(self.stable_all)
    }

    /// Number of committed commands waiting for stability.
    pub fn queued(&self) -> usize {
        self.pending.len()
    }

    /// Total queue entries visited by the announcement scans so far (diagnostics; see
    /// the single-visit test below).
    pub fn announce_visits(&self) -> u64 {
        self.announce_visits
    }

    /// Read access to the replicated store (tests and diagnostics).
    pub fn store(&self) -> &KVStore {
        &self.kv
    }

    /// Drops the bookkeeping of a garbage-collected (everywhere-executed) dot. The only
    /// state that can outlive execution is an `early_stables` entry left by an `MStable`
    /// that arrived after the command executed here.
    pub fn gc(&mut self, dot: Dot) {
        self.early_stables.remove(&dot);
    }

    /// The execution floors of the buckets where anything executed, as
    /// `(bucket, ts, dot)`.
    pub fn floors(&self) -> Vec<(Bucket, u64, Dot)> {
        let moved = (0..BUCKETS).filter(|b| self.floors[*b as usize].0 > 0);
        moved
            .map(|bucket| {
                let (ts, dot) = self.floor(bucket);
                (bucket, ts, dot)
            })
            .collect()
    }

    /// The execution floor of `bucket`.
    fn floor(&self, bucket: Bucket) -> (u64, Dot) {
        let (ts, source, sequence) = self.floors[bucket as usize];
        (ts, Dot::new(source, sequence))
    }

    fn set_floor(&mut self, bucket: Bucket, (ts, dot): (u64, Dot)) {
        self.floors[bucket as usize] = (ts, dot.source, dot.sequence);
    }

    /// The stable timestamps of the buckets that have one, as `(bucket, ts)`.
    pub fn stables(&self) -> Vec<(Bucket, u64)> {
        let stables = (0..BUCKETS).map(|b| (b, self.stable_in(b)));
        stables.filter(|(_, ts)| *ts > 0).collect()
    }

    /// Whether `⟨ts, dot⟩`, on `buckets`, lies at or below one of their execution floors:
    /// its effect is in the applied image (executed here, or installed with a transfer).
    pub fn covers(&self, ts: u64, dot: Dot, buckets: &[Bucket]) -> bool {
        buckets.iter().any(|b| (ts, dot) <= self.floor(*b))
    }

    /// Whether `dot` is committed but not yet executed here (queued or waiting).
    pub fn is_queued(&self, dot: Dot) -> bool {
        self.pending.contains_key(&dot)
    }

    /// Suspends execution (the applied image is missing a skipped command; see the
    /// `gated` field). Committing and stability announcements continue.
    pub fn gate(&mut self) {
        self.gated = true;
    }

    /// Whether execution is currently suspended.
    pub fn is_gated(&self) -> bool {
        self.gated
    }

    /// Resumes execution after the gaps were closed (by a state transfer whose floors
    /// cover them), running what became ready while gated into `out`.
    pub fn ungate(&mut self, out: &mut Vec<Executed>) {
        self.gated = false;
        let entries = self.pending.iter().map(|(dot, p)| (p.ts, *dot));
        self.check.extend(entries);
        self.run(out);
    }

    /// The committed-but-unexecuted commands, in `⟨ts, id⟩` order, with each entry's
    /// remaining sibling-shard waits (what snapshots and state transfers carry).
    pub fn queued_entries(&self) -> Vec<QueuedCommit> {
        let mut queued: Vec<QueuedCommit> = self
            .pending
            .iter()
            .map(|(&dot, pending)| QueuedCommit {
                dot,
                ts: pending.ts,
                cmd: pending.cmd.clone(),
                waits: pending.waits.iter().copied().collect(),
            })
            .collect();
        queued.sort_unstable_by_key(|q| (q.ts, q.dot));
        queued
    }

    /// Sets the count of commands executed, to what a restored snapshot's executor had
    /// executed.
    pub fn set_executed(&mut self, executed: u64) {
        self.executed_count = executed;
    }

    /// Whether a peer's image cut at `floors` is ahead of this one in some bucket.
    pub fn is_behind(&self, floors: &[(Bucket, u64, Dot)]) -> bool {
        floors.iter().any(|&(b, ts, dot)| (ts, dot) > self.floor(b))
    }

    /// Installs an applied image — a snapshot's into a fresh executor, or a peer's
    /// `MState` into the live one: in every bucket where the image (which is complete up
    /// to `floors`) is ahead of this one, its keys take the image's values and every
    /// queued entry at or below the bucket's new floor is dropped — their effects are
    /// contained in the image. Returns the dropped dots so the ordering stage can account
    /// them as executed elsewhere. The buckets' stable timestamps and the image's queue
    /// are left to the caller.
    ///
    /// The image is consistent with this one: a command executed in the image but not
    /// here lies above this process's floor and at or below the image's in each of its
    /// buckets, so it is dropped whole; the buckets where this process is ahead keep
    /// their own keys.
    pub fn install(&mut self, floors: &[(Bucket, u64, Dot)], kv: Vec<(Key, u64)>) -> Vec<Dot> {
        let ahead: BTreeMap<Bucket, (u64, Dot)> = floors
            .iter()
            .filter(|&&(b, ts, dot)| (ts, dot) > self.floor(b))
            .map(|&(b, ts, dot)| (b, (ts, dot)))
            .collect();
        let taken = |key: &Key| ahead.contains_key(&bucket_of(*key));
        let mut image: Vec<(Key, u64)> = self.kv.entries();
        image.retain(|entry| !taken(&entry.0));
        image.extend(kv.into_iter().filter(|entry| taken(&entry.0)));
        image.sort_unstable();
        self.kv.restore(image, self.kv.commands_executed());
        let mut dropped = Vec::new();
        for (&bucket, &floor) in &ahead {
            self.set_floor(bucket, floor);
            let covered = (bucket, 0, DOT_MIN)..=(bucket, floor.0, floor.1);
            let under: Vec<Dot> = self.lines.range(covered).map(|e| e.2).collect();
            for dot in under {
                let pending = self
                    .pending
                    .remove(&dot)
                    .expect("lined commands are pending");
                for &b in pending.buckets.iter() {
                    self.lines.remove(&(b, pending.ts, dot));
                    self.check.extend(self.head(b));
                }
                self.early_stables.remove(&dot);
                dropped.push(dot);
            }
        }
        dropped
    }

    /// The first entry on `bucket`'s line.
    fn head(&self, bucket: Bucket) -> Option<(u64, Dot)> {
        let mut line = self.lines.range((bucket, 0, DOT_MIN)..);
        line.next()
            .filter(|e| e.0 == bucket)
            .map(|&(_, ts, dot)| (ts, dot))
    }

    /// Whether `dot`, at `ts`, is stable in each of `buckets`.
    fn is_stable(&self, ts: u64, buckets: &[Bucket]) -> bool {
        buckets.iter().all(|b| ts <= self.stable_in(*b))
    }

    /// Announces `dot` (`MStable`) if it is a multi-shard command now stable in each of
    /// its buckets.
    fn announce(&mut self, dot: Dot) {
        self.announce_visits += 1;
        let Some(pending) = self.pending.get(&dot) else {
            return;
        };
        if !pending.announced && self.is_stable(pending.ts, &pending.buckets) {
            self.pending.get_mut(&dot).expect("checked").announced = true;
            self.newly_stable.push(dot);
        }
    }

    /// The buckets of `risen` are stable up to their timestamps now
    /// ([`ExecutionInfo::StableIn`], without the `Vec`): what that lets execute is
    /// appended to `out`.
    pub fn raise(&mut self, risen: &[(Bucket, u64)], out: &mut Vec<Executed>) {
        for &(bucket, ts) in risen {
            self.raise_one(bucket, ts);
        }
        self.run(out);
    }

    /// `bucket` is stable up to `ts` now.
    fn raise_one(&mut self, bucket: Bucket, ts: u64) {
        let old = self.stable_in(bucket);
        if ts > old {
            self.stable[bucket as usize] = ts;
            self.passed(bucket, old, ts);
        }
    }

    /// `bucket`'s stable timestamp rose from `old` to `ts`: what it passed is announced,
    /// and the head of its line checked.
    fn passed(&mut self, bucket: Bucket, old: u64, ts: u64) {
        let passed = (bucket, old + 1, DOT_MIN)..(bucket, ts + 1, DOT_MIN);
        let multi: Vec<Dot> = self
            .lines
            .range(passed)
            .filter(|e| self.pending.get(&e.2).is_some_and(|p| !p.announced))
            .map(|e| e.2)
            .collect();
        for dot in multi {
            self.announce(dot);
        }
        self.check.extend(self.head(bucket));
    }

    /// Executes every checked entry that is ready — at the head of each of its lines,
    /// stable in each of its buckets and attested by every sibling shard — and whatever
    /// that lets through behind it, in order per line.
    fn run(&mut self, out: &mut Vec<Executed>) {
        if self.gated {
            return;
        }
        // Lowest first; what an execution lets through is checked right after it.
        self.check.sort_unstable_by(|a, b| b.cmp(a));
        self.check.dedup();
        while let Some((ts, dot)) = self.check.pop() {
            let Some(pending) = self.pending.get(&dot) else {
                continue; // Executed already.
            };
            let heads = pending
                .buckets
                .iter()
                .all(|b| self.head(*b) == Some((ts, dot)));
            if !heads || !pending.waits.is_empty() || !self.is_stable(ts, &pending.buckets) {
                continue;
            }
            let pending = self.pending.remove(&dot).expect("checked above");
            let result = self.kv.execute(self.shard, &pending.cmd);
            for &bucket in pending.buckets.iter() {
                self.lines.remove(&(bucket, ts, dot));
                debug_assert!(
                    (ts, dot) > self.floor(bucket),
                    "executed {dot:?}@{ts} at or below bucket {bucket}'s floor {:?}",
                    self.floor(bucket)
                );
                self.set_floor(bucket, (ts, dot));
                self.check.extend(self.head(bucket));
            }
            out.push(Executed {
                rifl: pending.cmd.rifl,
                result,
            });
            self.executed_count += 1;
            self.executed_dots.push(dot);
            self.early_stables.remove(&dot);
        }
    }
}

impl Executor for TempoExecutor {
    type Info = ExecutionInfo;

    fn new(_process: ProcessId, shard: ShardId, _config: Config) -> Self {
        Self {
            shard,
            stable: PerBucket::new(BUCKETS as usize),
            stable_all: 0,
            pending: BTreeMap::new(),
            lines: BTreeSet::new(),
            early_stables: BTreeMap::new(),
            newly_stable: Vec::new(),
            announce_visits: 0,
            executed_dots: Vec::new(),
            floors: PerBucket::new(BUCKETS as usize),
            gated: false,
            kv: KVStore::new(),
            executed_count: 0,
            check: Vec::new(),
        }
    }

    fn handle(&mut self, info: ExecutionInfo) -> Vec<Executed> {
        let mut out = Vec::new();
        self.feed(info, &mut out);
        out
    }

    fn executed(&self) -> u64 {
        self.executed_count
    }
}

impl TempoExecutor {
    /// [`Executor::handle`], appending what executes to `out` (a buffer the caller keeps).
    pub fn feed(&mut self, info: ExecutionInfo, out: &mut Vec<Executed>) {
        match info {
            ExecutionInfo::Committed {
                dot,
                ts,
                cmd,
                waits,
            } => {
                if self.pending.contains_key(&dot) {
                    return;
                }
                let mut waits: BTreeSet<ShardId> = waits.into_iter().collect();
                if let Some(early) = self.early_stables.remove(&dot) {
                    for shard in early {
                        waits.remove(&shard);
                    }
                }
                let multi_shard = cmd.is_multi_shard();
                let buckets = Buckets::of(&cmd, self.shard);
                for &bucket in buckets.iter() {
                    self.lines.insert((bucket, ts, dot));
                }
                let pending = PendingCommand {
                    ts,
                    cmd,
                    waits,
                    announced: !multi_shard,
                    buckets,
                };
                let stable = self.is_stable(ts, &pending.buckets);
                self.pending.insert(dot, pending);
                // Stability (Theorem 1) implies every command below a stable timestamp of
                // a bucket is known, so a new entry is rarely stable already; one that is
                // is announced at once.
                if multi_shard && stable {
                    self.announce(dot);
                }
                self.check.push((ts, dot));
                self.run(out);
            }
            ExecutionInfo::Stable { ts } if ts > self.stable_all => {
                // `stable_all` is a floor under every bucket; those with a line are
                // re-checked as in `raise`.
                let floor = std::mem::replace(&mut self.stable_all, ts);
                let mut lined = self.lines.first().map(|e| e.0);
                while let Some(bucket) = lined {
                    let old = self.stable[bucket as usize].max(floor);
                    if ts > old {
                        self.passed(bucket, old, ts);
                    }
                    let rest = self.lines.range((bucket + 1, 0, DOT_MIN)..);
                    lined = rest.map(|e| e.0).next();
                }
                self.run(out);
            }
            ExecutionInfo::Stable { .. } => {}
            ExecutionInfo::StableIn(risen) => self.raise(&risen, out),
            ExecutionInfo::ShardStable { dot, shard } => {
                match self.pending.get_mut(&dot) {
                    Some(pending) => {
                        pending.waits.remove(&shard);
                        if pending.waits.is_empty() {
                            self.check.push((pending.ts, dot));
                        }
                    }
                    None => {
                        self.early_stables.entry(dot).or_default().insert(shard);
                    }
                }
                self.run(out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_kernel::command::KVOp;
    use tempo_kernel::id::Rifl;

    fn executor() -> TempoExecutor {
        TempoExecutor::new(0, 0, Config::full(3, 1))
    }

    fn cmd(seq: u64, key: u64) -> Command {
        Command::single(Rifl::new(1, seq), 0, key, KVOp::Put(seq), 0)
    }

    /// Writes key 1 of shard 0 and key 2 of shard 1.
    fn multi_cmd(seq: u64) -> Command {
        Command::new(
            Rifl::new(1, seq),
            vec![(0, 1, KVOp::Put(seq)), (1, 2, KVOp::Put(seq))],
            0,
        )
    }

    fn commit(ex: &mut TempoExecutor, source: u64, ts: u64, cmd: Command) -> Vec<Executed> {
        let waits = if cmd.is_multi_shard() {
            vec![1]
        } else {
            vec![]
        };
        let dot = Dot::new(source, ts);
        ex.handle(ExecutionInfo::Committed {
            dot,
            ts,
            cmd,
            waits,
        })
    }

    fn put(seq: u64, keys: &[Key], value: u64) -> Command {
        let ops = keys.iter().map(|k| (0, *k, KVOp::Put(value))).collect();
        Command::new(Rifl::new(1, seq), ops, 0)
    }

    fn add(seq: u64, key: Key, delta: u64) -> Command {
        Command::single(Rifl::new(1, seq), 0, key, KVOp::Add(delta), 0)
    }

    fn rifls(executed: &[Executed]) -> Vec<u64> {
        executed.iter().map(|r| r.rifl.seq).collect()
    }

    /// The buckets of these keys turned stable up to these timestamps.
    fn stable_in(ex: &mut TempoExecutor, risen: &[(Key, u64)]) -> Vec<Executed> {
        let risen = risen
            .iter()
            .map(|(key, ts)| (bucket_of(*key), *ts))
            .collect();
        ex.handle(ExecutionInfo::StableIn(risen))
    }

    #[test]
    fn executes_in_timestamp_order_once_stable() {
        let mut ex = executor();
        // Committed out of timestamp order.
        assert!(ex
            .handle(ExecutionInfo::Committed {
                dot: Dot::new(2, 1),
                ts: 5,
                cmd: cmd(2, 0),
                waits: vec![],
            })
            .is_empty());
        assert!(ex
            .handle(ExecutionInfo::Committed {
                dot: Dot::new(1, 1),
                ts: 3,
                cmd: cmd(1, 0),
                waits: vec![],
            })
            .is_empty());
        // Stability up to 4 releases only the first command.
        let first = ex.handle(ExecutionInfo::Stable { ts: 4 });
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].rifl, Rifl::new(1, 1));
        // Stability up to 5 releases the second.
        let second = ex.handle(ExecutionInfo::Stable { ts: 5 });
        assert_eq!(second.len(), 1);
        assert_eq!(second[0].rifl, Rifl::new(1, 2));
        assert_eq!(ex.executed(), 2);
        assert_eq!(
            ex.take_executed_dots(),
            vec![Dot::new(1, 1), Dot::new(2, 1)]
        );
    }

    #[test]
    fn multi_shard_commands_wait_for_sibling_stability() {
        let mut ex = executor();
        assert!(ex
            .handle(ExecutionInfo::Committed {
                dot: Dot::new(1, 1),
                ts: 1,
                cmd: multi_cmd(1),
                waits: vec![1],
            })
            .is_empty());
        // Locally stable: announced but blocked on the sibling shard.
        assert!(ex.handle(ExecutionInfo::Stable { ts: 1 }).is_empty());
        assert_eq!(ex.take_newly_stable(), vec![Dot::new(1, 1)]);
        // The sibling announcement releases it.
        let executed = ex.handle(ExecutionInfo::ShardStable {
            dot: Dot::new(1, 1),
            shard: 1,
        });
        assert_eq!(executed.len(), 1);
    }

    #[test]
    fn early_shard_stable_is_buffered() {
        let mut ex = executor();
        // MStable arrives before the local commit (multi-shard race).
        assert!(ex
            .handle(ExecutionInfo::ShardStable {
                dot: Dot::new(1, 1),
                shard: 1,
            })
            .is_empty());
        assert!(ex.handle(ExecutionInfo::Stable { ts: 10 }).is_empty());
        let executed = ex.handle(ExecutionInfo::Committed {
            dot: Dot::new(1, 1),
            ts: 2,
            cmd: multi_cmd(1),
            waits: vec![1],
        });
        assert_eq!(executed.len(), 1, "buffered MStable must count");
    }

    #[test]
    fn blocked_multi_shard_command_blocks_the_prefix() {
        let mut ex = executor();
        let _ = commit(&mut ex, 1, 1, multi_cmd(1));
        let _ = commit(&mut ex, 2, 2, cmd(2, 1));
        let _ = commit(&mut ex, 2, 3, cmd(3, 9));
        // All stable, but the multi-shard command still waits on its sibling: nothing
        // behind it on its bucket may execute (execution is in timestamp order there);
        // the command on key 9's bucket does.
        assert_eq!(rifls(&ex.handle(ExecutionInfo::Stable { ts: 5 })), [3]);
        let executed = ex.handle(ExecutionInfo::ShardStable {
            dot: Dot::new(1, 1),
            shard: 1,
        });
        assert_eq!(
            rifls(&executed),
            [1, 2],
            "unblocking the head releases the line"
        );
    }

    #[test]
    fn announcement_pass_visits_each_entry_once() {
        // Interleave Committed / Stable / ShardStable events over a line whose head is
        // blocked: the seed implementation re-walked the whole stable prefix on every
        // event (O(n²) visits); the scans must visit each entry exactly once.
        let mut ex = executor();
        let n = 50u64;
        for seq in 1..=n {
            assert!(ex
                .handle(ExecutionInfo::Committed {
                    dot: Dot::new(1, seq),
                    ts: seq,
                    cmd: multi_cmd(seq),
                    waits: vec![1],
                })
                .is_empty());
            // Every advance re-runs the scan while all previous entries are still queued
            // (their sibling MStable has not arrived).
            assert!(stable_in(&mut ex, &[(1, seq)]).is_empty());
        }
        assert_eq!(ex.queued() as u64, n);
        // Each of the n entries was announced exactly once despite 2n events over an
        // ever-growing stable prefix.
        assert_eq!(ex.announce_visits(), n);
        assert_eq!(ex.take_newly_stable().len() as u64, n);
        // Sibling announcements release the line in order; no further announcement
        // visits happen (ShardStable events add no entries).
        for seq in 1..=n {
            let executed = ex.handle(ExecutionInfo::ShardStable {
                dot: Dot::new(1, seq),
                shard: 1,
            });
            assert_eq!(executed.len(), 1);
        }
        assert_eq!(ex.announce_visits(), n);
        assert_eq!(ex.executed(), n);
        assert_eq!(ex.queued(), 0);
    }

    #[test]
    fn late_entry_below_cursor_is_still_announced() {
        // Defensive path: a commit at or below a stable timestamp must still be
        // announced, and announced entries must not be announced twice.
        let mut ex = executor();
        let _ = ex.handle(ExecutionInfo::Committed {
            dot: Dot::new(2, 1),
            ts: 10,
            cmd: multi_cmd(1),
            waits: vec![1],
        });
        let _ = ex.handle(ExecutionInfo::Stable { ts: 10 });
        assert_eq!(ex.take_newly_stable(), vec![Dot::new(2, 1)]);
        // A late commit below the stable timestamp.
        let _ = ex.handle(ExecutionInfo::Committed {
            dot: Dot::new(1, 1),
            ts: 5,
            cmd: multi_cmd(2),
            waits: vec![1],
        });
        assert_eq!(ex.take_newly_stable(), vec![Dot::new(1, 1)]);
        // The next scan did not re-announce the first entry.
        let _ = ex.handle(ExecutionInfo::Stable { ts: 11 });
        let _ = stable_in(&mut ex, &[(1, 12)]);
        assert!(ex.take_newly_stable().is_empty());
    }

    #[test]
    fn replies_leave_in_per_key_order_and_equal_the_execution() {
        // A reply is the execution: on one key, in ⟨ts, id⟩ order whatever the commit
        // order, each result reading its predecessor's write.
        let mut ex = executor();
        let _ = commit(&mut ex, 1, 5, add(2, 0, 10));
        let _ = commit(&mut ex, 1, 3, add(1, 0, 1));
        let _ = commit(&mut ex, 2, 4, add(3, 0, 100));
        let executed = stable_in(&mut ex, &[(0, 5)]);
        assert_eq!(rifls(&executed), [1, 3, 2]);
        let outputs: Vec<_> = executed.iter().map(|e| e.result.outputs[0]).collect();
        assert_eq!(outputs, [(0, Some(1)), (0, Some(101)), (0, Some(111))]);
        assert_eq!(
            ex.take_executed_dots(),
            [Dot::new(1, 3), Dot::new(2, 4), Dot::new(1, 5)]
        );
    }

    #[test]
    fn a_command_in_one_bucket_is_not_held_back_by_another_bucket() {
        let mut ex = executor();
        // Key 0's bucket: a command at 3 that is not stable yet, and one above it. Key 1's
        // bucket: a command at 4, stable.
        let _ = commit(&mut ex, 1, 3, add(1, 0, 1));
        let _ = commit(&mut ex, 1, 5, add(2, 0, 10));
        let _ = commit(&mut ex, 1, 4, put(3, &[1], 9));
        assert_eq!(rifls(&stable_in(&mut ex, &[(1, 4)])), [3]);
        assert_eq!(ex.executed(), 1);
        // Key 0's bucket turns stable past both: they execute in ⟨ts, id⟩ order.
        let executed = stable_in(&mut ex, &[(0, 5)]);
        assert_eq!(rifls(&executed), [1, 2]);
        assert_eq!(executed[1].result.outputs, [(0, Some(11))]);
        let mut floors = vec![
            (bucket_of(0), 5, Dot::new(1, 5)),
            (bucket_of(1), 4, Dot::new(1, 4)),
        ];
        floors.sort_unstable();
        assert_eq!(ex.floors(), floors);
        assert!(ex.lines.is_empty());
    }

    #[test]
    fn a_multi_key_command_waits_for_its_slowest_key() {
        let mut ex = executor();
        // A command on keys 0 and 1 (two buckets), and one behind it on key 0.
        let _ = commit(&mut ex, 1, 4, put(1, &[0, 1], 6));
        let _ = commit(&mut ex, 1, 6, add(2, 0, 1));
        // Key 0's bucket is stable past both, key 1's is not: the two-bucket command
        // waits for its slower bucket, and the command behind it on key 0 waits for it.
        assert!(stable_in(&mut ex, &[(0, 10), (1, 3)]).is_empty());
        let executed = stable_in(&mut ex, &[(1, 4)]);
        assert_eq!(rifls(&executed), [1, 2]);
        assert_eq!(executed[1].result.outputs, [(0, Some(7))]);
    }

    #[test]
    fn a_command_is_rechecked_when_the_majority_prefix_passes_it_or_its_blocker_goes() {
        let mut ex = executor();
        let _ = commit(&mut ex, 1, 8, add(1, 0, 1));
        // A stable timestamp that rises below it changes nothing; one that passes it does.
        assert!(stable_in(&mut ex, &[(0, 7)]).is_empty());
        assert_eq!(rifls(&stable_in(&mut ex, &[(0, 9)])), [1]);
        // Stable already, it waits behind a blocked command on its bucket and runs the
        // moment that one goes.
        let _ = commit(&mut ex, 1, 10, multi_cmd(2));
        let _ = commit(&mut ex, 1, 11, add(3, 1, 1));
        assert!(stable_in(&mut ex, &[(1, 12)]).is_empty());
        let executed = ex.handle(ExecutionInfo::ShardStable {
            dot: Dot::new(1, 10),
            shard: 1,
        });
        assert_eq!(rifls(&executed), [2, 3]);
    }

    #[test]
    fn a_multi_shard_command_never_replies_early() {
        // Stable in its bucket, it answers only when it executes: after its sibling shard
        // attests.
        let mut ex = executor();
        let _ = commit(&mut ex, 1, 2, multi_cmd(1));
        assert!(stable_in(&mut ex, &[(1, 10)]).is_empty());
        assert_eq!(ex.take_newly_stable(), [Dot::new(1, 2)]);
        let executed = ex.handle(ExecutionInfo::ShardStable {
            dot: Dot::new(1, 2),
            shard: 1,
        });
        assert_eq!(executed.len(), 1, "it answers when it executes");
        assert_eq!(ex.take_executed_dots(), [Dot::new(1, 2)]);
    }

    #[test]
    fn a_single_shard_command_above_an_unexecuted_multi_shard_one_waits() {
        let mut ex = executor();
        // The multi-shard command writes key 1 of shard 0, like the first one after it.
        let _ = commit(&mut ex, 1, 2, multi_cmd(1));
        let _ = commit(&mut ex, 1, 10, add(2, 1, 3));
        let _ = commit(&mut ex, 1, 11, add(3, 4, 3));
        assert_eq!(rifls(&ex.handle(ExecutionInfo::Stable { ts: 20 })), [3]);
        // Its sibling attests, it executes, and the command behind it follows.
        let executed = ex.handle(ExecutionInfo::ShardStable {
            dot: Dot::new(1, 2),
            shard: 1,
        });
        assert_eq!(rifls(&executed), [1, 2]);
        assert_eq!(
            executed[1].result.outputs,
            [(1, Some(4))],
            "after the write of 1"
        );
    }

    #[test]
    fn a_stable_timestamp_for_every_bucket_releases_them_all() {
        let mut ex = executor();
        for (seq, key) in [(1, 0), (2, 7), (3, 4095), (4, 4096)] {
            let _ = commit(&mut ex, 1, seq, cmd(seq, key));
        }
        assert_eq!(
            rifls(&ex.handle(ExecutionInfo::Stable { ts: 3 })),
            [1, 2, 3]
        );
        assert_eq!(rifls(&ex.handle(ExecutionInfo::Stable { ts: 4 })), [4]);
        assert_eq!((ex.stable_in(0), ex.stable_in(BUCKETS - 1)), (4, 4));
        // A bucket's own stable timestamp above it stands.
        let _ = stable_in(&mut ex, &[(9, 8)]);
        let stables = ex.stables();
        assert_eq!(stables.len() as u64, BUCKETS);
        assert!(stables.contains(&(bucket_of(9), 8)));
    }

    #[test]
    fn a_transfer_drops_exactly_the_entries_at_or_below_their_buckets_floors() {
        let mut ex = executor();
        let _ = commit(&mut ex, 1, 3, cmd(1, 0));
        let _ = commit(&mut ex, 1, 5, cmd(2, 0));
        let _ = commit(&mut ex, 1, 4, put(3, &[0, 1], 7));
        let _ = commit(&mut ex, 1, 6, cmd(4, 2));
        // Key 2's bucket executed here, ahead of the image.
        assert_eq!(rifls(&stable_in(&mut ex, &[(2, 6)])), [4]);
        // The image holds key 0's bucket up to ⟨4, (1, 4)⟩ and key 1's up to the same,
        // and its key 2 is older than this process's.
        let floors = [
            (bucket_of(0), 4, Dot::new(1, 4)),
            (bucket_of(1), 4, Dot::new(1, 4)),
            (bucket_of(2), 1, Dot::new(1, 1)),
        ];
        assert!(ex.is_behind(&floors));
        let image = vec![(0, 7), (1, 7), (2, 1)];
        assert_eq!(ex.install(&floors, image), [Dot::new(1, 3), Dot::new(1, 4)]);
        assert_eq!(ex.store().get(0), Some(7));
        assert_eq!(ex.store().get(2), Some(4), "its own bucket is ahead");
        assert!(ex.is_queued(Dot::new(1, 5)) && ex.queued() == 1);
        let zero = [bucket_of(0)];
        assert!(ex.covers(4, Dot::new(1, 4), &zero) && !ex.covers(5, Dot::new(1, 5), &zero));
        // The entry above the floor executes on top of the image once stable.
        assert_eq!(rifls(&stable_in(&mut ex, &[(0, 5)])), [2]);
        assert!(!ex.is_behind(&floors));
    }

    #[test]
    fn gc_clears_leftover_early_stables() {
        let mut ex = executor();
        // An MStable that arrives for a command this process already executed (or never
        // commits) would otherwise be buffered forever.
        let _ = ex.handle(ExecutionInfo::ShardStable {
            dot: Dot::new(1, 1),
            shard: 1,
        });
        assert_eq!(ex.early_stables.len(), 1);
        ex.gc(Dot::new(1, 1));
        assert!(ex.early_stables.is_empty());
    }
}
