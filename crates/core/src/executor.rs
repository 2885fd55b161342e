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
//! A single-shard command may *reply* before it executes: once it is stable on its keys
//! ([`crate::stability::Stability::stable_for`]), [`TempoExecutor::answer`] computes its
//! result from the store and the committed commands below it on its keys, and the
//! command executes later with the prefix, where the two results must agree. Each key
//! keeps its queued commands in `⟨ts, id⟩` order and how far replies ran ahead on it, so
//! replies leave in that order per key and a command is re-checked only when the head of
//! one of its keys moves, a gate on one of its keys opens, or a prefix passes its
//! timestamp — never by a walk over the queue. Multi-shard commands never reply early,
//! and a single-shard command behind an unexecuted one on a key waits for it.
//!
//! Because the executor never looks at protocol state, it can be unit-tested by feeding
//! hand-crafted event sequences (see the tests below), exactly the ordering/execution
//! split the paper describes.

use crate::stability::{ByKey, Keys, Wakes};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;
use tempo_kernel::command::{Command, CommandResult, Key};
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
    /// The command's keys on this shard.
    keys: Keys,
    /// Whether it is on its keys' lines (it survived an answer pass unexecuted).
    lined: bool,
    /// The result of its reply, once it left before the command executed: execution
    /// debug-asserts it computes the same.
    reply: Option<CommandResult>,
}

/// The queued commands of each key of this shard, and how far replies ran ahead of
/// execution on it.
#[derive(Debug, Default)]
struct Lines {
    /// The queued commands by key: each key's line in `⟨ts, id⟩` order.
    entries: ByKey<Key>,
    /// Per key whose first entries replied: the last of them (every queued entry on the
    /// key up to it replied, none above it did) and the key's value with them applied.
    replied: BTreeMap<Key, ((u64, Dot), Option<u64>)>,
}

impl Lines {
    /// The first entry on `key` that has not replied.
    fn head(&self, key: Key) -> Option<(u64, Dot)> {
        match self.replied.get(&key) {
            Some((last, _)) => self.entries.first_after(&key, *last),
            None => self.entries.first(&key),
        }
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.replied.clear();
    }
}

const DOT_MIN: Dot = Dot {
    source: 0,
    sequence: 0,
};

/// The Tempo executor at one process.
#[derive(Debug)]
pub struct TempoExecutor {
    /// The process this executor runs at: the coordinator of the commands whose dots it
    /// issued, the only ones it answers early.
    process: ProcessId,
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
    executed_dots: Vec<(Dot, bool)>,
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
    /// The queued commands by key, and how far replies ran ahead on each.
    lines: Lines,
    /// Entries committed since the last answer pass: the ones still queued then join
    /// their keys' lines (a command that executes in the step it commits never does).
    fresh: Vec<(u64, Dot)>,
    /// Entries that may have become the head of every key they touch since the last
    /// answer pass.
    recheck: Vec<(u64, Dot)>,
    /// Heads that a majority's key-scoped prefixes reached but an attachment to a command
    /// with an unknown payload blocked: re-checked once those blockers rise above them
    /// (a head blocked on its own keys is re-checked when a gate on them opens).
    blocked: BTreeSet<(u64, Dot)>,
    /// Whether commands may reply before they execute (see [`Self::rejoin`]).
    early: bool,
}

impl TempoExecutor {
    /// Multi-shard dots that became locally stable since the last call and must be
    /// announced with `MStable` to every replica of the command.
    pub fn take_newly_stable(&mut self) -> Vec<Dot> {
        std::mem::take(&mut self.newly_stable)
    }

    /// Dots executed since the last call (for phase bookkeeping in the ordering stage),
    /// each with whether its reply left before it executed.
    pub fn take_executed_dots(&mut self) -> Vec<(Dot, bool)> {
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

    /// This incarnation rejoined: its stability rests on prefixes seeded by its peers
    /// (DESIGN.md §6), so from now on nothing replies before it executes.
    pub fn rejoin(&mut self) {
        self.early = false;
        self.lines.clear();
        self.fresh.clear();
        self.recheck.clear();
        self.blocked.clear();
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
            let pending = self
                .pending
                .remove(&dot)
                .expect("queued commands are pending");
            if pending.lined {
                self.leave_lines((ts, dot), &pending.keys);
            }
            self.announced.remove(&dot);
            self.early_stables.remove(&dot);
            dropped.push(dot);
        }
        dropped
    }

    /// Whether [`Self::answer`] may have anything to answer: a commit since the last
    /// pass, an entry that became a head, or any entry on a line.
    pub fn may_answer(&self) -> bool {
        let idle =
            self.fresh.is_empty() && self.recheck.is_empty() && self.lines.entries.is_empty();
        self.early && !idle
    }

    /// Answers what became stable on its keys: every single-shard command at the head of
    /// each of its keys (nothing below it on them left to reply or execute) is checked
    /// against `stable_for(ts, keys)` when it commits or becomes such a head, and when
    /// `wakes` says what held it back moved — `reached`, the timestamp a majority's
    /// key-scoped prefixes reach, passed it (nothing above `reached` is checked: it is
    /// stable on no keys), a gate on one of its keys opened, or the attachments that
    /// block every key, from `unknown_from` up, rose above it — and replies at once if
    /// stable. A reply is computed from the store and
    /// the replies ahead of it on its keys, and lets the next entry on each key take its
    /// turn. Nothing answers while the executor is gated.
    pub fn answer(
        &mut self,
        wakes: &Wakes,
        (reached, unknown_from): (u64, u64),
        stable_for: impl Fn(u64, &[Key]) -> bool,
    ) -> Vec<Executed> {
        let mut out = Vec::new();
        if self.gated || !self.early {
            self.fresh.clear();
            self.recheck.clear();
            return out;
        }
        let mut work = std::mem::take(&mut self.recheck);
        for (ts, dot) in self.fresh.drain(..) {
            let Some(pending) = self.pending.get_mut(&dot) else {
                continue; // Executed in the step it committed.
            };
            pending.lined = true;
            for key in pending.keys.iter() {
                debug_assert!(
                    self.lines
                        .replied
                        .get(key)
                        .is_none_or(|(last, _)| (ts, dot) > *last),
                    "{dot:?}@{ts} committed below a reply on key {key}"
                );
                self.lines.entries.insert(*key, (ts, dot));
            }
            if dot.source == self.process && !pending.multi_shard {
                work.push((ts, dot));
            }
        }
        let own = |(_, dot): &(u64, Dot)| dot.source == self.process;
        if let Some((old, new)) = wakes.reached {
            let risen = (old + 1, DOT_MIN)..(new + 1, DOT_MIN);
            work.extend(self.queue.range(risen).filter(|entry| own(entry)));
        }
        for &key in &wakes.keys {
            work.extend(self.lines.head(key).filter(own));
        }
        if let Some(clear) = wakes.unknown {
            work.extend(self.blocked.range(..(clear, DOT_MIN)));
        }
        // Lowest first: what a reply passes a key on to is checked right after it.
        work.sort_unstable_by(|a, b| b.cmp(a));
        work.dedup();
        while let Some(entry) = work.pop() {
            if entry.0 > reached {
                continue;
            }
            let Some(keys) = self.candidate(entry) else {
                continue;
            };
            if !stable_for(entry.0, keys) {
                if entry.0 >= unknown_from {
                    self.blocked.insert(entry);
                } else {
                    self.blocked.remove(&entry);
                }
                continue;
            }
            self.blocked.remove(&entry);
            out.push(self.reply(entry));
            work.append(&mut self.recheck);
        }
        // Keep the buffer's allocation for the next pass.
        self.recheck = work;
        out
    }

    /// The keys of `entry` if it may reply early: issued here, single-shard, not replied,
    /// and the first entry on each of its keys that has not replied.
    fn candidate(&self, (ts, dot): (u64, Dot)) -> Option<&[Key]> {
        if dot.source != self.process {
            return None;
        }
        let pending = self.pending.get(&dot)?;
        if pending.multi_shard || pending.reply.is_some() {
            return None;
        }
        for key in pending.keys.iter() {
            if self.lines.head(*key) != Some((ts, dot)) {
                return None;
            }
        }
        Some(&pending.keys)
    }

    /// Computes `entry`'s reply ahead of its execution and passes each of its keys on.
    fn reply(&mut self, (ts, dot): (u64, Dot)) -> Executed {
        let pending = self.pending.get_mut(&dot).expect("candidates are pending");
        let mut result = CommandResult::new(pending.cmd.rifl);
        for &(key, op) in pending.cmd.ops_of(self.shard) {
            let mut value = match self.lines.replied.get(&key) {
                Some((_, value)) => *value,
                None => self.kv.get(key),
            };
            result.outputs.push((key, op.apply(&mut value)));
            self.lines.replied.insert(key, ((ts, dot), value));
        }
        for key in pending.keys.iter() {
            self.recheck.extend(self.lines.head(*key));
        }
        pending.reply = Some(result.clone());
        Executed {
            rifl: result.rifl,
            result,
        }
    }

    /// Takes an executed (or transferred) entry off its keys' lines; a key whose replies
    /// it ended reads the store again, and the next entry on it may now be a head.
    fn leave_lines(&mut self, (ts, dot): (u64, Dot), keys: &[Key]) {
        for key in keys {
            self.lines.entries.remove(*key, (ts, dot));
            match self.lines.replied.get(key) {
                Some((last, _)) if *last <= (ts, dot) => {
                    self.lines.replied.remove(key);
                }
                Some(_) => {}
                None => self.recheck.extend(self.lines.head(*key)),
            }
        }
        if !self.blocked.is_empty() {
            self.blocked.remove(&(ts, dot));
        }
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
            if let Some(reply) = &pending.reply {
                debug_assert_eq!(*reply, result, "{dot:?}@{ts} replied a different result");
            }
            if pending.lined {
                self.leave_lines((ts, dot), &pending.keys);
            }
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
            self.executed_dots.push((dot, pending.reply.is_some()));
            self.announced.remove(&dot);
            self.early_stables.remove(&dot);
        }
    }
}

impl Executor for TempoExecutor {
    type Info = ExecutionInfo;

    fn new(process: ProcessId, shard: ShardId, _config: Config) -> Self {
        Self {
            process,
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
            lines: Lines::default(),
            fresh: Vec::new(),
            recheck: Vec::new(),
            blocked: BTreeSet::new(),
            early: true,
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
                let keys = Keys::of(cmd.ops_of(self.shard));
                if self.early {
                    self.fresh.push((ts, dot));
                }
                self.pending.insert(
                    dot,
                    PendingCommand {
                        cmd,
                        waits,
                        multi_shard,
                        keys,
                        lined: false,
                        reply: None,
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
            vec![(Dot::new(1, 1), false), (Dot::new(2, 1), false)]
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

    /// An executor at process 1, the coordinator of the `Dot::new(1, _)` commands below.
    fn coordinator() -> TempoExecutor {
        TempoExecutor::new(1, 0, Config::full(3, 1))
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

    fn rifls(replies: &[Executed]) -> Vec<u64> {
        replies.iter().map(|r| r.rifl.seq).collect()
    }

    /// Stable on every key up to `upto`, except on the keys in `blocked`.
    fn open_below(upto: u64, blocked: &[Key]) -> impl Fn(u64, &[Key]) -> bool + '_ {
        move |ts, keys| ts <= upto && keys.iter().all(|k| !blocked.contains(k))
    }

    #[test]
    fn replies_leave_in_per_key_order_and_equal_the_execution() {
        let mut ex = coordinator();
        // Committed out of timestamp order on key 0; key 1 is independent.
        let _ = commit(&mut ex, 1, 5, add(2, 0, 10));
        let _ = commit(&mut ex, 1, 3, add(1, 0, 1));
        let _ = commit(&mut ex, 1, 4, put(3, &[1], 9));
        let mut replies = ex.answer(&Wakes::default(), (10, u64::MAX), open_below(10, &[]));
        let on_key_0: Vec<Executed> = (replies.iter())
            .filter(|r| r.result.outputs[0].0 == 0)
            .cloned()
            .collect();
        assert_eq!(rifls(&on_key_0), [1, 2], "⟨ts, id⟩ order per key");
        assert_eq!(on_key_0[0].result.outputs, [(0, Some(1))]);
        assert_eq!(
            on_key_0[1].result.outputs,
            [(0, Some(11))],
            "reads its predecessor"
        );
        // Nothing executed yet; the prefix executes later, in ⟨ts, id⟩ order, with the
        // same results (the executor debug-asserts the equality) and no second reply.
        assert_eq!(ex.executed(), 0);
        let executed = ex.handle(ExecutionInfo::Stable { ts: 5 });
        assert_eq!(rifls(&executed), [1, 3, 2]);
        replies.sort_by_key(|r| executed.iter().position(|e| e.rifl == r.rifl));
        assert_eq!(executed, replies);
        assert_eq!(
            ex.take_executed_dots(),
            [
                (Dot::new(1, 3), true),
                (Dot::new(1, 4), true),
                (Dot::new(1, 5), true)
            ]
        );
        assert!(ex
            .answer(&Wakes::default(), (10, u64::MAX), open_below(10, &[]))
            .is_empty());
        assert!(ex.lines.entries.is_empty() && ex.lines.replied.is_empty());
        assert!(ex.blocked.is_empty());
    }

    #[test]
    fn a_multi_key_command_waits_for_its_slowest_key() {
        let mut ex = coordinator();
        let _ = commit(&mut ex, 1, 3, put(1, &[1], 5));
        let _ = commit(&mut ex, 1, 4, put(2, &[0, 1], 6));
        let _ = commit(&mut ex, 1, 6, add(3, 0, 1));
        // Key 1 is blocked: the command on it and everything behind it on key 0 wait.
        assert!(ex
            .answer(&Wakes::default(), (10, u64::MAX), open_below(10, &[1]))
            .is_empty());
        assert!(
            ex.blocked.is_empty(),
            "blocked on a key, it waits for that key's gate"
        );
        // Key 1's gate opens: the whole chain replies, in order.
        let wakes = Wakes {
            keys: vec![1],
            ..Wakes::default()
        };
        let replies = ex.answer(&wakes, (10, u64::MAX), open_below(10, &[]));
        assert_eq!(rifls(&replies), [1, 2, 3]);
        assert_eq!(replies[2].result.outputs, [(0, Some(7))]);
    }

    #[test]
    fn a_command_is_rechecked_when_the_majority_prefix_passes_it_or_its_blocker_goes() {
        let mut ex = coordinator();
        let _ = commit(&mut ex, 1, 8, add(1, 0, 1));
        assert!(ex
            .answer(&Wakes::default(), (7, u64::MAX), open_below(7, &[]))
            .is_empty());
        // A prefix that rises below it changes nothing; one that passes it does.
        let below = Wakes {
            reached: Some((2, 7)),
            ..Wakes::default()
        };
        assert!(ex
            .answer(&below, (8, u64::MAX), open_below(8, &[]))
            .is_empty());
        let past = Wakes {
            reached: Some((7, 9)),
            ..Wakes::default()
        };
        assert_eq!(
            rifls(&ex.answer(&past, (8, u64::MAX), open_below(8, &[]))),
            [1]
        );
        // Reached but blocked by an attachment (at 11) to a command whose payload is
        // unknown here, it is re-checked once such blockers rise above it.
        let _ = commit(&mut ex, 1, 12, add(2, 0, 1));
        assert!(ex
            .answer(&Wakes::default(), (12, 11), |_, _| false)
            .is_empty());
        assert!(ex.blocked.contains(&(12, Dot::new(1, 12))));
        let unknown = |clear| Wakes {
            unknown: Some(clear),
            ..Wakes::default()
        };
        let replies = ex.answer(&unknown(12), (12, 12), open_below(12, &[]));
        assert!(replies.is_empty(), "still blocked at its own timestamp");
        let replies = ex.answer(&unknown(13), (12, 13), open_below(12, &[]));
        assert_eq!(rifls(&replies), [2]);
        assert!(ex.blocked.is_empty());
    }

    #[test]
    fn a_multi_shard_command_never_replies_early() {
        let mut ex = coordinator();
        let _ = commit(&mut ex, 1, 2, multi_cmd(1));
        assert!(ex
            .answer(&Wakes::default(), (10, u64::MAX), open_below(10, &[]))
            .is_empty());
        let _ = ex.handle(ExecutionInfo::Stable { ts: 2 });
        let executed = ex.handle(ExecutionInfo::ShardStable {
            dot: Dot::new(1, 2),
            shard: 1,
        });
        assert_eq!(executed.len(), 1, "it answers when it executes");
        assert_eq!(ex.take_executed_dots(), [(Dot::new(1, 2), false)]);
    }

    #[test]
    fn a_single_shard_command_above_an_unexecuted_multi_shard_one_waits() {
        let mut ex = coordinator();
        // The multi-shard command writes key 1 of shard 0, like the one after it.
        let _ = commit(&mut ex, 1, 2, multi_cmd(1));
        let _ = commit(&mut ex, 1, 10, add(2, 1, 3));
        let _ = commit(&mut ex, 1, 11, add(3, 4, 3));
        assert_eq!(
            rifls(&ex.answer(&Wakes::default(), (20, u64::MAX), open_below(20, &[]))),
            [3]
        );
        let _ = ex.handle(ExecutionInfo::Stable { ts: 5 });
        assert!(ex
            .answer(&Wakes::default(), (20, u64::MAX), open_below(20, &[]))
            .is_empty());
        // Its sibling attests, it executes, and the command behind it replies.
        let executed = ex.handle(ExecutionInfo::ShardStable {
            dot: Dot::new(1, 2),
            shard: 1,
        });
        assert_eq!(executed.len(), 1);
        let replies = ex.answer(&Wakes::default(), (20, u64::MAX), open_below(20, &[]));
        assert_eq!(rifls(&replies), [2]);
        assert_eq!(
            replies[0].result.outputs,
            [(1, Some(4))],
            "after the write of 1"
        );
    }

    #[test]
    fn a_command_replies_early_only_where_it_was_issued() {
        let mut ex = coordinator();
        // Issued at process 2: it answers with its execution, and it holds back the
        // command issued here that follows it on key 0 until then.
        let _ = commit(&mut ex, 2, 3, add(1, 0, 1));
        let _ = commit(&mut ex, 1, 4, add(2, 0, 1));
        let _ = commit(&mut ex, 1, 5, add(3, 7, 1));
        assert_eq!(
            rifls(&ex.answer(&Wakes::default(), (10, u64::MAX), open_below(10, &[]))),
            [3]
        );
        assert_eq!(rifls(&ex.handle(ExecutionInfo::Stable { ts: 3 })), [1]);
        let replies = ex.answer(&Wakes::default(), (10, u64::MAX), open_below(10, &[]));
        assert_eq!(rifls(&replies), [2]);
        assert_eq!(replies[0].result.outputs, [(0, Some(2))]);
    }

    #[test]
    fn a_rejoined_executor_never_replies_early() {
        let mut ex = coordinator();
        ex.rejoin();
        let _ = commit(&mut ex, 1, 3, add(1, 0, 1));
        assert!(ex
            .answer(&Wakes::default(), (10, u64::MAX), open_below(10, &[]))
            .is_empty());
        assert_eq!(ex.handle(ExecutionInfo::Stable { ts: 3 }).len(), 1);
        assert_eq!(ex.take_executed_dots(), [(Dot::new(1, 3), false)]);
    }

    #[test]
    fn gc_clears_leftover_early_stables() {
        let mut ex = coordinator();
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
