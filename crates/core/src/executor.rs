//! The Tempo execution stage: stability-ordered execution as a separate, independently
//! testable component (Algorithm 2 lines 49-53 and Algorithm 3 lines 60-66).
//!
//! The ordering stage ([`crate::protocol::Tempo`]) feeds this executor three kinds of
//! [`ExecutionInfo`] events: commands committed with their final timestamp, advances of
//! the stability watermark (Theorem 1), and per-shard stability announcements (`MStable`)
//! for multi-shard commands. The executor owns the replicated key-value store and applies
//! committed commands in `⟨timestamp, id⟩` order once their timestamp is stable — and,
//! for multi-shard commands, once the colocated replica of every other accessed shard has
//! announced stability.
//!
//! Both passes over the committed queue are cursor-based so that steady-state cost per
//! event does not scale with queue depth: the *announcement* pass resumes from the last
//! entry it visited (each entry is announced exactly once; see
//! [`TempoExecutor::announce_visits`]), and the *execution* pass pops entries from the
//! queue front. Re-walking the whole stable prefix on every event — O(n²) aggregate over
//! a run — was the seed behaviour this replaces.
//!
//! Because the executor never looks at protocol state, it can be unit-tested by feeding
//! hand-crafted event sequences (see the tests below), exactly the ordering/execution
//! split the paper describes.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;
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
    /// The local stability watermark advanced to `ts` (Theorem 1).
    Stable {
        /// The highest stable timestamp.
        ts: u64,
    },
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
    cmd: Command,
    /// Sibling shards whose `MStable` attestation is still missing.
    waits: BTreeSet<ShardId>,
    /// Whether the command is multi-shard (and thus needs an `MStable` announcement).
    multi_shard: bool,
}

/// The Tempo executor at one process.
#[derive(Debug)]
pub struct TempoExecutor {
    shard: ShardId,
    /// Highest stable timestamp seen so far.
    stable: u64,
    /// Committed-but-not-executed commands, ordered by `⟨final timestamp, id⟩`.
    queue: BTreeSet<(u64, Dot)>,
    pending: BTreeMap<Dot, PendingCommand>,
    /// `MStable` attestations (by shard) received before the command committed locally.
    early_stables: BTreeMap<Dot, BTreeSet<ShardId>>,
    /// Multi-shard dots that became locally stable and still need an `MStable`
    /// broadcast; drained by the ordering stage via [`Self::take_newly_stable`].
    newly_stable: Vec<Dot>,
    announced: BTreeSet<Dot>,
    /// The last queue entry visited by the announcement pass: every entry at or below it
    /// has already been announced, so the pass resumes strictly after the cursor instead
    /// of re-walking the stable prefix on every event. Reset (rare) if an entry is ever
    /// inserted at or below it.
    announce_cursor: Option<(u64, Dot)>,
    /// Total queue entries visited by the announcement pass (diagnostics: with the
    /// cursor, this tracks the number of committed commands, not events × queue depth).
    announce_visits: u64,
    /// Dots executed and not yet claimed via [`Self::take_executed_dots`].
    executed_dots: Vec<Dot>,
    /// The `⟨timestamp, dot⟩` of the last executed command — the *execution boundary*.
    /// Execution pops the queue in `⟨ts, id⟩` order, so the executed set is exactly the
    /// prefix at or below this pair; `(0, (0, 0))` before anything executes. Durable
    /// snapshots and rejoin state transfers are cut at this boundary (DESIGN.md §6).
    floor: (u64, Dot),
    /// While gated, the execution pass is suspended (commands still commit into the
    /// queue, and the announcement pass still attests stability to sibling shards).
    /// The ordering stage gates the executor when the applied image is known to be
    /// missing a skipped command — executing past such a gap would compute (and hand
    /// to clients) values from an incomplete store — and ungates once a state
    /// transfer whose boundary covers every gap installs.
    gated: bool,
    kv: KVStore,
    executed_count: u64,
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

    /// The highest stable timestamp the executor has been told about.
    pub fn stable_timestamp(&self) -> u64 {
        self.stable
    }

    /// Number of committed commands waiting for stability.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Total queue entries visited by the announcement pass so far (diagnostics; see the
    /// single-visit test below).
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

    /// The execution boundary: the `⟨timestamp, dot⟩` of the last executed command.
    pub fn exec_floor(&self) -> (u64, Dot) {
        self.floor
    }

    /// Whether `dot` is committed but not yet executed here (queued or waiting).
    pub fn is_queued(&self, dot: Dot) -> bool {
        self.pending.contains_key(&dot)
    }

    /// Suspends the execution pass (the applied image is missing a skipped command;
    /// see the `gated` field). Committing and stability announcements continue.
    pub fn gate(&mut self) {
        self.gated = true;
    }

    /// Whether the execution pass is currently suspended.
    pub fn is_gated(&self) -> bool {
        self.gated
    }

    /// Resumes execution after the gaps were closed (by a state transfer whose
    /// boundary covers them), running the stable prefix that accumulated while
    /// gated and returning its executions.
    pub fn ungate(&mut self) -> Vec<Executed> {
        self.gated = false;
        let mut out = Vec::new();
        self.run(&mut out);
        out
    }

    /// The committed-but-unexecuted queue, in `⟨ts, id⟩` order, with each entry's
    /// remaining sibling-shard waits (what snapshots and state transfers carry).
    pub fn queued_entries(&self) -> Vec<QueuedCommit> {
        self.queue
            .iter()
            .map(|&(ts, dot)| {
                let pending = self.pending.get(&dot).expect("queued commands are pending");
                QueuedCommit {
                    dot,
                    ts,
                    cmd: pending.cmd.clone(),
                    waits: pending.waits.iter().copied().collect(),
                }
            })
            .collect()
    }

    /// Restores the executor from a durable snapshot: the applied image, its execution
    /// boundary, and the stability watermark in force when the snapshot was cut. The
    /// queued commits of the snapshot are re-fed by the caller as ordinary `Committed`
    /// events — the executor re-derives execution order itself.
    pub fn restore(&mut self, stable: u64, floor: (u64, Dot), executed: u64, kv: Vec<(Key, u64)>) {
        debug_assert!(self.queue.is_empty(), "restore only into a fresh executor");
        self.stable = stable;
        self.floor = floor;
        self.executed_count = executed;
        self.kv.restore(kv, executed);
    }

    /// Installs a rejoin state transfer: replaces the applied image with a peer's
    /// (which is complete up to `floor`) and drops every queued entry at or below the
    /// new boundary — their effects are contained in the transferred image. Returns the
    /// dropped dots so the ordering stage can account them as executed-elsewhere.
    ///
    /// The caller must have checked that `floor` is ahead of [`Self::exec_floor`].
    pub fn install_transfer(&mut self, kv: Vec<(Key, u64)>, floor: (u64, Dot)) -> Vec<Dot> {
        debug_assert!(
            floor > self.floor,
            "transfer must move the boundary forward"
        );
        self.kv.restore(kv, self.kv.commands_executed());
        self.floor = floor;
        self.stable = self.stable.max(floor.0);
        let mut dropped = Vec::new();
        while let Some(&(ts, dot)) = self.queue.first() {
            if (ts, dot) > floor {
                break;
            }
            self.queue.pop_first();
            self.pending.remove(&dot);
            self.announced.remove(&dot);
            self.early_stables.remove(&dot);
            dropped.push(dot);
        }
        dropped
    }

    fn run(&mut self, out: &mut Vec<Executed>) {
        // Announcement pass: flag stability of multi-shard commands as soon as they are
        // locally stable, without waiting for earlier commands to execute (the `MStable`
        // announcement of Algorithm 3). Resumes after the cursor: each entry is visited
        // once over its whole queue lifetime.
        let lower = match self.announce_cursor {
            Some(cursor) => Bound::Excluded(cursor),
            None => Bound::Unbounded,
        };
        for &(ts, dot) in self.queue.range((lower, Bound::Unbounded)) {
            if ts > self.stable {
                break;
            }
            self.announce_visits += 1;
            let pending = self.pending.get(&dot).expect("queued commands are pending");
            if pending.multi_shard && self.announced.insert(dot) {
                self.newly_stable.push(dot);
            }
            self.announce_cursor = Some((ts, dot));
        }
        // Execution pass: execute the stable prefix in `⟨ts, id⟩` order; a multi-shard
        // command blocks the prefix until every sibling shard announced stability.
        // Suspended entirely while gated (the announcement pass above is not: stability
        // attestation is an ordering fact, independent of the applied image).
        if self.gated {
            return;
        }
        while let Some(&(ts, dot)) = self.queue.first() {
            if ts > self.stable {
                break;
            }
            let ready = self
                .pending
                .get(&dot)
                .map(|p| p.waits.is_empty())
                .unwrap_or(false);
            if !ready {
                break;
            }
            self.queue.pop_first();
            let pending = self.pending.remove(&dot).expect("checked above");
            let result = self.kv.execute(self.shard, &pending.cmd);
            out.push(Executed {
                rifl: pending.cmd.rifl,
                result,
            });
            self.executed_count += 1;
            debug_assert!(
                (ts, dot) > self.floor,
                "executed {dot:?}@{ts} at or below the boundary {:?}",
                self.floor
            );
            self.floor = (ts, dot);
            self.executed_dots.push(dot);
            self.announced.remove(&dot);
            self.early_stables.remove(&dot);
        }
    }
}

impl Executor for TempoExecutor {
    type Info = ExecutionInfo;

    fn new(_process: ProcessId, shard: ShardId, _config: Config) -> Self {
        Self {
            shard,
            stable: 0,
            queue: BTreeSet::new(),
            pending: BTreeMap::new(),
            early_stables: BTreeMap::new(),
            newly_stable: Vec::new(),
            announced: BTreeSet::new(),
            announce_cursor: None,
            announce_visits: 0,
            executed_dots: Vec::new(),
            floor: (0, Dot::new(0, 0)),
            gated: false,
            kv: KVStore::new(),
            executed_count: 0,
        }
    }

    fn handle(&mut self, info: ExecutionInfo) -> Vec<Executed> {
        let mut out = Vec::new();
        match info {
            ExecutionInfo::Committed {
                dot,
                ts,
                cmd,
                waits,
            } => {
                if self.pending.contains_key(&dot) {
                    return out;
                }
                let mut waits: BTreeSet<ShardId> = waits.into_iter().collect();
                if let Some(early) = self.early_stables.remove(&dot) {
                    for shard in early {
                        waits.remove(&shard);
                    }
                }
                let multi_shard = cmd.is_multi_shard();
                self.pending.insert(
                    dot,
                    PendingCommand {
                        cmd,
                        waits,
                        multi_shard,
                    },
                );
                self.queue.insert((ts, dot));
                // Stability (Theorem 1) implies every command with a lower ⟨ts, id⟩ is
                // already known, so new entries land above the cursor; reset it in the
                // defensive case so the announcement pass re-covers the entry (the
                // `announced` set keeps re-visits idempotent).
                if self
                    .announce_cursor
                    .is_some_and(|cursor| (ts, dot) < cursor)
                {
                    self.announce_cursor = None;
                }
                self.run(&mut out);
            }
            ExecutionInfo::Stable { ts } => {
                if ts > self.stable {
                    self.stable = ts;
                    self.run(&mut out);
                }
            }
            ExecutionInfo::ShardStable { dot, shard } => {
                match self.pending.get_mut(&dot) {
                    Some(pending) => {
                        pending.waits.remove(&shard);
                    }
                    None => {
                        self.early_stables.entry(dot).or_default().insert(shard);
                    }
                }
                self.run(&mut out);
            }
        }
        out
    }

    fn executed(&self) -> u64 {
        self.executed_count
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

    fn multi_cmd(seq: u64) -> Command {
        Command::new(
            Rifl::new(1, seq),
            vec![(0, 1, KVOp::Put(seq)), (1, 2, KVOp::Put(seq))],
            0,
        )
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
        let _ = ex.handle(ExecutionInfo::Committed {
            dot: Dot::new(1, 1),
            ts: 1,
            cmd: multi_cmd(1),
            waits: vec![1],
        });
        let _ = ex.handle(ExecutionInfo::Committed {
            dot: Dot::new(2, 1),
            ts: 2,
            cmd: cmd(2, 9),
            waits: vec![],
        });
        // Both stable, but the earlier multi-shard command still waits on its sibling:
        // nothing may execute (execution is in timestamp order).
        assert!(ex.handle(ExecutionInfo::Stable { ts: 5 }).is_empty());
        let executed = ex.handle(ExecutionInfo::ShardStable {
            dot: Dot::new(1, 1),
            shard: 1,
        });
        assert_eq!(executed.len(), 2, "unblocking the head releases the prefix");
    }

    #[test]
    fn announcement_pass_visits_each_entry_once() {
        // Interleave Committed / Stable / ShardStable events over a queue whose head is
        // blocked: the seed implementation re-walked the whole stable prefix on every
        // event (O(n²) visits); the cursor must visit each entry exactly once.
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
            // Every Stable advance re-runs both passes while all previous entries are
            // still queued (their sibling MStable has not arrived).
            assert!(ex.handle(ExecutionInfo::Stable { ts: seq }).is_empty());
        }
        assert_eq!(ex.queued() as u64, n);
        // Each of the n entries was announced exactly once despite 2n run() invocations
        // over an ever-growing stable prefix.
        assert_eq!(ex.announce_visits(), n);
        assert_eq!(ex.take_newly_stable().len() as u64, n);
        // Sibling announcements release the prefix in order; no further announcement
        // visits happen (ShardStable events add no queue entries).
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
        // Defensive path: a commit with a timestamp at or below an already-announced
        // entry must still be announced (cursor reset), and announced entries must not
        // be announced twice.
        let mut ex = executor();
        let _ = ex.handle(ExecutionInfo::Committed {
            dot: Dot::new(2, 1),
            ts: 10,
            cmd: multi_cmd(1),
            waits: vec![1],
        });
        let _ = ex.handle(ExecutionInfo::Stable { ts: 10 });
        assert_eq!(ex.take_newly_stable(), vec![Dot::new(2, 1)]);
        // A late commit below the cursor.
        let _ = ex.handle(ExecutionInfo::Committed {
            dot: Dot::new(1, 1),
            ts: 5,
            cmd: multi_cmd(2),
            waits: vec![1],
        });
        assert_eq!(ex.take_newly_stable(), vec![Dot::new(1, 1)]);
        // The re-scan did not re-announce the first entry.
        let _ = ex.handle(ExecutionInfo::Stable { ts: 11 });
        assert!(ex.take_newly_stable().is_empty());
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
