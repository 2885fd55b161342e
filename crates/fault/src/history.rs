//! Concurrent histories and the safety checker nemesis runs are judged by.
//!
//! The simulator records three things while it runs: client *invocations* (command +
//! submit time), client *responses* (completion time + the per-key outputs the client
//! observed) or *aborts* (the client gave up; the command may or may not have taken
//! effect), and the per-replica *execution sequences* (which commands each replica
//! incarnation applied, in order). [`History::check`] then verifies, in the spirit of
//! BesFS's mechanically-checked properties:
//!
//! 1. **At-most-once execution** — no replica incarnation executes the same `Rifl`
//!    twice (a restarted replica is a fresh incarnation: it lost its store and may
//!    legitimately re-execute).
//! 2. **Replica agreement** — for every shard, any two replica incarnations that both
//!    executed a pair of *conflicting* commands executed them in the same order (the
//!    paper's Property 1/2: conflicting commands execute in timestamp order, and
//!    committed timestamps agree across replicas). Conflicting means sharing a key on
//!    which at least one of the pair writes: read-read pairs commute, and
//!    dependency-based protocols execute them in replica-local order by design.
//! 3. **Per-key linearizability** — for every `(shard, key)`, the completed client
//!    operations form a linearizable history of a register supporting `Get`/`Put`/`Add`
//!    (with `Add` returning the new value, i.e. a read-modify-write). Aborted and
//!    pending commands are linearized optionally (they may or may not have taken
//!    effect), per the standard treatment of crashed operations.
//!
//! 4. **Cross-key strict serializability** — when the history contains multi-key
//!    commands, every command is additionally treated as an atomic transaction and run
//!    through the commit-order constraint graph of [`crate::serializability`], which
//!    catches what per-key projection cannot (write skew, fractured reads, lost
//!    updates) and reports the minimal anomalous cycle. Histories with only
//!    single-key commands skip this pass entirely: the per-key checks above are the
//!    fast path and remain exactly as cheap as before.
//!
//! The linearizability check is a Wing & Gong search with memoization on
//! `(linearized-set, register state)`; keys with more than [`MAX_LIN_OPS`] operations
//! are skipped and *reported* in the [`CheckSummary`] — never silently.

use crate::serializability::{self, CycleEdge, Entry, KeyAccess, Txn};
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::fmt;
use tempo_kernel::command::{Command, KVOp, Key};
use tempo_kernel::id::{ProcessId, Rifl, ShardId};

/// Maximum operations per key the linearizability search will attempt (the memoization
/// mask is a `u128`). Keys beyond it are counted in [`CheckSummary::keys_skipped`].
pub const MAX_LIN_OPS: usize = 128;

/// The outcome of one client command.
/// Per-op outputs observed at the client, as `(shard, key, output)` in per-shard
/// op order.
pub type OpOutputs = Vec<(ShardId, Key, Option<u64>)>;

#[derive(Debug, Clone, PartialEq, Eq)]
enum Outcome {
    /// No response recorded (still in flight when the run ended).
    Pending,
    /// The client observed a response with the given per-key outputs.
    Completed { at_us: u64, outputs: OpOutputs },
    /// The client timed out and gave up; the command may or may not have taken effect.
    Aborted,
}

#[derive(Debug, Clone)]
struct Invocation {
    cmd: Command,
    invoked_us: u64,
    outcome: Outcome,
}

/// A per-replica-incarnation execution log.
#[derive(Debug, Clone, Default)]
struct ExecutionLog {
    order: Vec<Rifl>,
}

/// A recorded concurrent history of one simulation run.
#[derive(Debug, Clone, Default)]
pub struct History {
    invocations: BTreeMap<Rifl, Invocation>,
    /// Keyed by `(shard, process, incarnation)`: a restarted process is a fresh
    /// observer with a fresh (empty) store.
    executions: BTreeMap<(ShardId, ProcessId, u64), ExecutionLog>,
}

/// A safety violation found by [`History::check`].
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// A replica incarnation executed the same request twice.
    DuplicateExecution {
        /// The shard of the offending replica.
        shard: ShardId,
        /// The offending replica.
        process: ProcessId,
        /// Its incarnation (0 = never restarted).
        incarnation: u64,
        /// The request executed twice.
        rifl: Rifl,
    },
    /// Two replicas of a shard executed a pair of conflicting commands in opposite
    /// orders.
    OrderDivergence {
        /// The shard on which the commands conflict.
        shard: ShardId,
        /// First replica (process, incarnation).
        a: (ProcessId, u64),
        /// Second replica (process, incarnation).
        b: (ProcessId, u64),
        /// The conflicting pair: `a` executed `first` before `second`, `b` the reverse.
        first: Rifl,
        /// See `first`.
        second: Rifl,
    },
    /// A key's completed operations admit no linearization.
    NotLinearizable {
        /// The shard owning the key.
        shard: ShardId,
        /// The key.
        key: Key,
        /// Number of operations on the key.
        ops: usize,
    },
    /// The multi-key history admits no serial order: the commit-order constraint
    /// graph has a cycle.
    NotSerializable {
        /// The minimal anomalous cycle found, in order around the cycle.
        cycle: Vec<CycleEdge>,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::DuplicateExecution { shard, process, incarnation, rifl } => write!(
                f,
                "replica {process} (shard {shard}, incarnation {incarnation}) executed {rifl} twice"
            ),
            Violation::OrderDivergence { shard, a, b, first, second } => write!(
                f,
                "shard {shard}: replica {}#{} executed {first} before {second}, replica {}#{} the reverse",
                a.0, a.1, b.0, b.1
            ),
            Violation::NotLinearizable { shard, key, ops } => write!(
                f,
                "key {key} of shard {shard}: no linearization of its {ops} operations exists"
            ),
            Violation::NotSerializable { cycle } => {
                write!(f, "not strictly serializable; anomalous cycle:")?;
                for edge in cycle {
                    write!(f, " {edge}")?;
                }
                Ok(())
            }
        }
    }
}

/// What a passing [`History::check`] covered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckSummary {
    /// Client commands invoked.
    pub commands: u64,
    /// Commands with a recorded response.
    pub completed: u64,
    /// Commands the client aborted.
    pub aborted: u64,
    /// Replica-incarnation execution logs compared.
    pub replicas: u64,
    /// `(shard, key)` spaces linearizability-checked.
    pub keys_checked: u64,
    /// `(shard, key)` spaces skipped because they exceed [`MAX_LIN_OPS`].
    pub keys_skipped: u64,
    /// Commands touching more than one `(shard, key)` register. Zero means the
    /// serializability graph was skipped entirely (the per-key fast path).
    pub multi_key_commands: u64,
    /// Transactions in the serializability constraint graph (0 when skipped).
    pub ser_txns: u64,
    /// Edges in the serializability constraint graph (0 when skipped).
    pub ser_edges: u64,
}

impl History {
    /// Creates an empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a client submitting `cmd` at `at_us`.
    pub fn record_invoke(&mut self, rifl: Rifl, cmd: Command, at_us: u64) {
        self.invocations.insert(
            rifl,
            Invocation {
                cmd,
                invoked_us: at_us,
                outcome: Outcome::Pending,
            },
        );
    }

    /// Records the client response for `rifl`: completion time and the per-key outputs
    /// observed at the client's site (`(shard, key, output)` in per-shard op order).
    pub fn record_complete(&mut self, rifl: Rifl, at_us: u64, outputs: OpOutputs) {
        if let Some(inv) = self.invocations.get_mut(&rifl) {
            inv.outcome = Outcome::Completed { at_us, outputs };
        }
    }

    /// Records that the client gave up on `rifl` (timeout); the command may still take
    /// effect later.
    pub fn record_abort(&mut self, rifl: Rifl) {
        if let Some(inv) = self.invocations.get_mut(&rifl) {
            if inv.outcome == Outcome::Pending {
                inv.outcome = Outcome::Aborted;
            }
        }
    }

    /// Records that replica `process` (of `shard`, in its `incarnation`-th life)
    /// executed `rifl` as its next command.
    pub fn record_execution(
        &mut self,
        shard: ShardId,
        process: ProcessId,
        incarnation: u64,
        rifl: Rifl,
    ) {
        self.executions
            .entry((shard, process, incarnation))
            .or_default()
            .order
            .push(rifl);
    }

    /// Number of invocations recorded.
    pub fn len(&self) -> usize {
        self.invocations.len()
    }

    /// Every invoked command, ordered by request identifier — per client, the
    /// sequence of commands it submitted (what a seed must reproduce).
    pub fn invoked(&self) -> impl Iterator<Item = &Command> + '_ {
        self.invocations.values().map(|inv| &inv.cmd)
    }

    /// The requests executed by `process` across all its incarnations, in order (used
    /// by tests asserting that survivors executed a recovered command).
    pub fn executed_by(&self, process: ProcessId) -> Vec<Rifl> {
        self.executions
            .iter()
            .filter(|((_, p, _), _)| *p == process)
            .flat_map(|(_, log)| log.order.iter().copied())
            .collect()
    }

    /// The requests executed by one specific incarnation of `process`, in order (used
    /// by tests asserting that a *restarted* replica executes again — the
    /// all-incarnations view above would be satisfied by pre-crash executions alone).
    pub fn executed_by_incarnation(&self, process: ProcessId, incarnation: u64) -> Vec<Rifl> {
        self.executions
            .iter()
            .filter(|((_, p, i), _)| *p == process && *i == incarnation)
            .flat_map(|(_, log)| log.order.iter().copied())
            .collect()
    }

    /// Whether the history is empty.
    pub fn is_empty(&self) -> bool {
        self.invocations.is_empty()
    }

    /// Runs all checks; returns what was covered, or the first violation found.
    pub fn check(&self) -> Result<CheckSummary, Violation> {
        let mut summary = CheckSummary {
            commands: self.invocations.len() as u64,
            completed: self
                .invocations
                .values()
                .filter(|i| matches!(i.outcome, Outcome::Completed { .. }))
                .count() as u64,
            aborted: self
                .invocations
                .values()
                .filter(|i| i.outcome == Outcome::Aborted)
                .count() as u64,
            replicas: self.executions.len() as u64,
            ..CheckSummary::default()
        };
        self.check_at_most_once()?;
        self.check_replica_agreement()?;
        summary.multi_key_commands = self
            .invocations
            .values()
            .filter(|inv| inv.cmd.keys().collect::<BTreeSet<_>>().len() > 1)
            .count() as u64;
        // The per-key pass always runs: it is the fast pre-filter, and single-key
        // histories stop here (the graph below costs them nothing). When multi-key
        // commands are present, the graph runs even if the per-key pass failed — a
        // per-key violation over multi-key commands usually *is* a cross-key cycle,
        // and the cycle names the culprits where `NotLinearizable` only counts ops.
        let lin = self.check_linearizability(&mut summary);
        if summary.multi_key_commands > 0 {
            match serializability::check(&self.transactions()) {
                Ok(ser) => {
                    summary.ser_txns = ser.txns;
                    summary.ser_edges = ser.edges;
                }
                Err(cycle) => return Err(Violation::NotSerializable { cycle }),
            }
        }
        lin?;
        Ok(summary)
    }

    /// The history viewed as atomic multi-key transactions: per `(shard, key)` access
    /// footprints with observed entry/exit values, derived from the client-visible
    /// outputs (see `key_accesses` for the derivation rules).
    pub fn transactions(&self) -> Vec<Txn> {
        self.invocations
            .iter()
            .map(|(rifl, inv)| {
                let (res_us, outputs) = match &inv.outcome {
                    Outcome::Completed { at_us, outputs } => (Some(*at_us), Some(outputs)),
                    _ => (None, None),
                };
                Txn {
                    rifl: *rifl,
                    inv_us: inv.invoked_us,
                    res_us,
                    accesses: key_accesses(&inv.cmd, outputs),
                }
            })
            .collect()
    }

    fn check_at_most_once(&self) -> Result<(), Violation> {
        for ((shard, process, incarnation), log) in &self.executions {
            let mut seen = BTreeSet::new();
            for rifl in &log.order {
                if !seen.insert(*rifl) {
                    return Err(Violation::DuplicateExecution {
                        shard: *shard,
                        process: *process,
                        incarnation: *incarnation,
                        rifl: *rifl,
                    });
                }
            }
        }
        Ok(())
    }

    /// Keys a command touches on `shard` (empty for commands we never saw invoked —
    /// possible only if execution recording outlives invocation recording, which the
    /// simulator does not do).
    fn keys_on(&self, rifl: Rifl, shard: ShardId) -> BTreeSet<Key> {
        self.invocations
            .get(&rifl)
            .map(|inv| inv.cmd.keys_of(shard).collect())
            .unwrap_or_default()
    }

    /// Keys a command *writes* on `shard` (`Put`/`Add`; `Get`s are excluded).
    fn write_keys_on(&self, rifl: Rifl, shard: ShardId) -> BTreeSet<Key> {
        self.invocations
            .get(&rifl)
            .map(|inv| {
                inv.cmd
                    .ops_of(shard)
                    .iter()
                    .filter(|(_, op)| !matches!(op, KVOp::Get))
                    .map(|(key, _)| *key)
                    .collect()
            })
            .unwrap_or_default()
    }

    fn check_replica_agreement(&self) -> Result<(), Violation> {
        type ShardLogs<'a> = Vec<(&'a (ShardId, ProcessId, u64), &'a ExecutionLog)>;
        // Group execution logs per shard.
        let mut by_shard: BTreeMap<ShardId, ShardLogs<'_>> = BTreeMap::new();
        for (key, log) in &self.executions {
            by_shard.entry(key.0).or_default().push((key, log));
        }
        for (shard, logs) in by_shard {
            // Pre-project every executed command onto this shard's keys once. A pair
            // only *conflicts* (and must therefore execute in the same order
            // everywhere) if the commands share a key on which at least one of them
            // writes: read-read pairs commute, and dependency-based protocols
            // (Atlas/EPaxos) legitimately execute them in different orders on
            // different replicas. Tempo happens to order them anyway (per-key
            // timestamp order), but the checker must accept both behaviours.
            let mut keys_of: BTreeMap<Rifl, BTreeSet<Key>> = BTreeMap::new();
            let mut write_keys_of: BTreeMap<Rifl, BTreeSet<Key>> = BTreeMap::new();
            for (_, log) in &logs {
                for rifl in &log.order {
                    keys_of
                        .entry(*rifl)
                        .or_insert_with(|| self.keys_on(*rifl, shard));
                    write_keys_of
                        .entry(*rifl)
                        .or_insert_with(|| self.write_keys_on(*rifl, shard));
                }
            }
            for (i, (ka, a)) in logs.iter().enumerate() {
                for (kb, b) in logs.iter().skip(i + 1) {
                    let pos_b: BTreeMap<Rifl, usize> =
                        b.order.iter().enumerate().map(|(i, r)| (*r, i)).collect();
                    // Commands of `a` also executed by `b`, in a's order.
                    let common: Vec<Rifl> = a
                        .order
                        .iter()
                        .copied()
                        .filter(|r| pos_b.contains_key(r))
                        .collect();
                    for (x, &first) in common.iter().enumerate() {
                        for &second in common.iter().skip(x + 1) {
                            let conflicting = !write_keys_of[&first].is_disjoint(&keys_of[&second])
                                || !keys_of[&first].is_disjoint(&write_keys_of[&second]);
                            if pos_b[&second] < pos_b[&first] && conflicting {
                                return Err(Violation::OrderDivergence {
                                    shard,
                                    a: (ka.1, ka.2),
                                    b: (kb.1, kb.2),
                                    first,
                                    second,
                                });
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn check_linearizability(&self, summary: &mut CheckSummary) -> Result<(), Violation> {
        // Project every invocation onto its (shard, key) spaces.
        let mut per_key: BTreeMap<(ShardId, Key), Vec<KeyOp>> = BTreeMap::new();
        for inv in self.invocations.values() {
            for shard in inv.cmd.shards() {
                // Outputs of this shard, aligned with `ops_of(shard)` order.
                let shard_outputs: Option<Vec<Option<u64>>> = match &inv.outcome {
                    Outcome::Completed { outputs, .. } => Some(
                        outputs
                            .iter()
                            .filter(|(s, _, _)| *s == shard)
                            .map(|(_, _, out)| *out)
                            .collect(),
                    ),
                    _ => None,
                };
                let ops = inv.cmd.ops_of(shard);
                let mut by_key: BTreeMap<Key, (Vec<KVOp>, Vec<Option<u64>>)> = BTreeMap::new();
                for (i, (key, op)) in ops.iter().enumerate() {
                    let entry = by_key.entry(*key).or_default();
                    entry.0.push(*op);
                    if let Some(outputs) = &shard_outputs {
                        entry.1.push(outputs.get(i).copied().flatten());
                    }
                }
                for (key, (ops, outputs)) in by_key {
                    let (res_us, outputs) = match &inv.outcome {
                        Outcome::Completed { at_us, .. } => (Some(*at_us), Some(outputs)),
                        _ => (None, None),
                    };
                    per_key.entry((shard, key)).or_default().push(KeyOp {
                        inv_us: inv.invoked_us,
                        res_us,
                        ops,
                        outputs,
                    });
                }
            }
        }
        for ((shard, key), mut ops) in per_key {
            if ops.len() > MAX_LIN_OPS {
                summary.keys_skipped += 1;
                continue;
            }
            ops.sort_by_key(|op| op.inv_us);
            if !linearizable(&ops) {
                return Err(Violation::NotLinearizable {
                    shard,
                    key,
                    ops: ops.len(),
                });
            }
            summary.keys_checked += 1;
        }
        Ok(())
    }
}

/// Derives a command's per-register access footprint from its ops and the outputs the
/// client observed (`None` for pending/aborted commands). Per `(shard, key)`:
///
/// * **entry** — set by the first op on the key, and only while no write of this
///   command preceded it on the key: a `Get` output reveals the state directly
///   (`None` ⇒ [`Entry::Initial`]); an `Add` output `o` implies pre-state `o - d`,
///   except `o == d`, where `Some(0)` and absent are indistinguishable
///   ([`Entry::ZeroOrInitial`]). Blind writes and unobserved ops leave it
///   [`Entry::Unknown`].
/// * **exit** — the register content after the last op, tracked symbolically: a `Put`
///   pins it even without outputs (so pending writers still source read-from
///   evidence), an `Add` only when the running state is known.
fn key_accesses(cmd: &Command, outputs: Option<&OpOutputs>) -> Vec<KeyAccess> {
    // Per register: (entry, running state, wrote). The running state is
    // `Option<Option<u64>>`: outer `None` = unknown, inner = register content.
    type RegisterTrack = (Entry, Option<Option<u64>>, bool);
    let mut accesses: BTreeMap<(ShardId, Key), RegisterTrack> = BTreeMap::new();
    for shard in cmd.shards() {
        // Outputs of this shard, aligned with `ops_of(shard)` order.
        let shard_outputs: Option<Vec<Option<u64>>> = outputs.map(|outs| {
            outs.iter()
                .filter(|(s, _, _)| *s == shard)
                .map(|(_, _, out)| *out)
                .collect()
        });
        for (i, (key, op)) in cmd.ops_of(shard).iter().enumerate() {
            // `None` = no observation (not completed); `Some(out)` = observed output.
            let obs: Option<Option<u64>> =
                shard_outputs.as_ref().and_then(|outs| outs.get(i).copied());
            let (entry, state, wrote) =
                accesses
                    .entry((shard, *key))
                    .or_insert((Entry::Unknown, None, false));
            // Entry may only be derived before any write of ours touched the key.
            let can_reveal = !*wrote && *entry == Entry::Unknown;
            match op {
                KVOp::Get => {
                    if let Some(o) = obs {
                        if can_reveal {
                            *entry = match o {
                                None => Entry::Initial,
                                Some(v) => Entry::Value(v),
                            };
                        }
                        if state.is_none() {
                            *state = Some(o);
                        }
                    }
                }
                KVOp::Put(v) => {
                    *wrote = true;
                    *state = Some(Some(*v));
                }
                KVOp::Add(d) => {
                    *wrote = true;
                    if let Some(s) = *state {
                        *state = Some(Some(s.unwrap_or(0).wrapping_add(*d)));
                    } else if let Some(Some(o)) = obs {
                        if can_reveal {
                            let pre = o.wrapping_sub(*d);
                            *entry = if pre == 0 {
                                Entry::ZeroOrInitial
                            } else {
                                Entry::Value(pre)
                            };
                        }
                        *state = Some(Some(o));
                    }
                }
            }
        }
    }
    accesses
        .into_iter()
        .map(|((shard, key), (entry, state, wrote))| KeyAccess {
            shard,
            key,
            writes: wrote,
            entry,
            exit: if wrote { state.flatten() } else { None },
        })
        .collect()
}

/// One command's atomic batch of operations on a single key.
#[derive(Debug, Clone)]
struct KeyOp {
    inv_us: u64,
    /// `None` for pending/aborted operations (they may take effect at any point after
    /// invocation, or never).
    res_us: Option<u64>,
    ops: Vec<KVOp>,
    /// Observed outputs (one per op), only for completed operations.
    outputs: Option<Vec<Option<u64>>>,
}

/// Applies an atomic op batch to the register; returns the new state and `false` if a
/// completed op's observed output contradicts it. Semantics mirror
/// `tempo_kernel::kvstore::KVStore::apply`.
fn apply(op: &KeyOp, state: Option<u64>) -> (Option<u64>, bool) {
    let mut state = state;
    for (i, kv) in op.ops.iter().enumerate() {
        let out = match kv {
            KVOp::Get => state,
            KVOp::Put(v) => {
                state = Some(*v);
                Some(*v)
            }
            KVOp::Add(d) => {
                let new = state.unwrap_or(0).wrapping_add(*d);
                state = Some(new);
                Some(new)
            }
        };
        if let Some(outputs) = &op.outputs {
            if outputs[i] != out {
                return (state, false);
            }
        }
    }
    (state, true)
}

/// Wing & Gong linearizability search over one key's operations, with memoization on
/// `(linearized mask, register state)`. Operations without a response are optional: the
/// search succeeds once every *completed* operation is linearized.
fn linearizable(ops: &[KeyOp]) -> bool {
    assert!(ops.len() <= MAX_LIN_OPS);
    let completed_mask: u128 = ops
        .iter()
        .enumerate()
        .filter(|(_, op)| op.res_us.is_some())
        .fold(0u128, |mask, (i, _)| mask | (1u128 << i));
    let mut memo: HashSet<(u128, Option<u64>)> = HashSet::new();
    let mut stack: Vec<(u128, Option<u64>)> = vec![(0, None)];
    while let Some((mask, state)) = stack.pop() {
        if mask & completed_mask == completed_mask {
            return true;
        }
        if !memo.insert((mask, state)) {
            continue;
        }
        // An op can be linearized next iff it was invoked before every other
        // unlinearized op completed (real-time order must be respected).
        let min_res = ops
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1u128 << i) == 0)
            .filter_map(|(_, op)| op.res_us)
            .min()
            .unwrap_or(u64::MAX);
        for (i, op) in ops.iter().enumerate() {
            if mask & (1u128 << i) != 0 || op.inv_us > min_res {
                continue;
            }
            let (new_state, ok) = apply(op, state);
            if ok {
                stack.push((mask | (1u128 << i), new_state));
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cmd_put(rifl: Rifl, key: Key, value: u64) -> Command {
        Command::single(rifl, 0, key, KVOp::Put(value), 0)
    }

    fn cmd_get(rifl: Rifl, key: Key) -> Command {
        Command::single(rifl, 0, key, KVOp::Get, 0)
    }

    #[test]
    fn sequential_history_passes() {
        let mut h = History::new();
        let w = Rifl::new(1, 1);
        let r = Rifl::new(1, 2);
        h.record_invoke(w, cmd_put(w, 5, 7), 0);
        h.record_complete(w, 10, vec![(0, 5, Some(7))]);
        h.record_invoke(r, cmd_get(r, 5), 20);
        h.record_complete(r, 30, vec![(0, 5, Some(7))]);
        for p in 0..3 {
            h.record_execution(0, p, 0, w);
            h.record_execution(0, p, 0, r);
        }
        let summary = h.check().expect("history is linearizable");
        assert_eq!(summary.commands, 2);
        assert_eq!(summary.completed, 2);
        assert_eq!(summary.keys_checked, 1);
        assert_eq!(summary.replicas, 3);
    }

    #[test]
    fn stale_read_is_caught() {
        // Write completes, then a later read observes the pre-write value: not
        // linearizable.
        let mut h = History::new();
        let w = Rifl::new(1, 1);
        let r = Rifl::new(2, 1);
        h.record_invoke(w, cmd_put(w, 9, 1), 0);
        h.record_complete(w, 10, vec![(0, 9, Some(1))]);
        h.record_invoke(r, cmd_get(r, 9), 20);
        h.record_complete(r, 30, vec![(0, 9, None)]);
        assert!(matches!(
            h.check(),
            Err(Violation::NotLinearizable {
                shard: 0,
                key: 9,
                ..
            })
        ));
    }

    #[test]
    fn concurrent_read_may_or_may_not_see_the_write() {
        // Read overlaps the write: both outcomes are linearizable.
        for observed in [None, Some(4u64)] {
            let mut h = History::new();
            let w = Rifl::new(1, 1);
            let r = Rifl::new(2, 1);
            h.record_invoke(w, cmd_put(w, 3, 4), 0);
            h.record_complete(w, 100, vec![(0, 3, Some(4))]);
            h.record_invoke(r, cmd_get(r, 3), 50);
            h.record_complete(r, 60, vec![(0, 3, observed)]);
            assert!(
                h.check().is_ok(),
                "observed {observed:?} must be admissible"
            );
        }
    }

    #[test]
    fn aborted_write_may_take_effect_or_not() {
        for observed in [None, Some(8u64)] {
            let mut h = History::new();
            let w = Rifl::new(1, 1);
            let r = Rifl::new(2, 1);
            h.record_invoke(w, cmd_put(w, 1, 8), 0);
            h.record_abort(w);
            h.record_invoke(r, cmd_get(r, 1), 1_000);
            h.record_complete(r, 1_010, vec![(0, 1, observed)]);
            assert!(h.check().is_ok(), "aborted write: {observed:?} admissible");
        }
    }

    #[test]
    fn rmw_chain_pins_the_order() {
        // Two Adds returning 1 then 2: linearizable. Returning 1 twice: not.
        let a = Rifl::new(1, 1);
        let b = Rifl::new(2, 1);
        let build = |second_output: u64| {
            let mut h = History::new();
            h.record_invoke(a, Command::single(a, 0, 0, KVOp::Add(1), 0), 0);
            h.record_complete(a, 100, vec![(0, 0, Some(1))]);
            h.record_invoke(b, Command::single(b, 0, 0, KVOp::Add(1), 0), 10);
            h.record_complete(b, 110, vec![(0, 0, Some(second_output))]);
            h
        };
        assert!(build(2).check().is_ok());
        assert!(matches!(
            build(1).check(),
            Err(Violation::NotLinearizable { .. })
        ));
    }

    #[test]
    fn duplicate_execution_is_caught() {
        let mut h = History::new();
        let w = Rifl::new(1, 1);
        h.record_invoke(w, cmd_put(w, 1, 1), 0);
        h.record_execution(0, 2, 0, w);
        h.record_execution(0, 2, 0, w);
        assert!(matches!(
            h.check(),
            Err(Violation::DuplicateExecution { process: 2, .. })
        ));
    }

    #[test]
    fn restarted_replica_may_reexecute_in_a_new_incarnation() {
        let mut h = History::new();
        let w = Rifl::new(1, 1);
        h.record_invoke(w, cmd_put(w, 1, 1), 0);
        h.record_execution(0, 2, 0, w);
        h.record_execution(0, 2, 1, w); // Fresh incarnation: allowed.
        assert!(h.check().is_ok());
    }

    #[test]
    fn divergent_conflicting_order_is_caught() {
        let mut h = History::new();
        let x = Rifl::new(1, 1);
        let y = Rifl::new(2, 1);
        h.record_invoke(x, cmd_put(x, 7, 1), 0);
        h.record_invoke(y, cmd_put(y, 7, 2), 0);
        h.record_execution(0, 0, 0, x);
        h.record_execution(0, 0, 0, y);
        h.record_execution(0, 1, 0, y);
        h.record_execution(0, 1, 0, x);
        assert!(matches!(h.check(), Err(Violation::OrderDivergence { .. })));
    }

    #[test]
    fn divergent_read_read_order_is_allowed() {
        // Two `Get`s on the same key commute; replicas may execute them in either
        // order (Atlas/EPaxos do exactly that).
        let mut h = History::new();
        let x = Rifl::new(1, 1);
        let y = Rifl::new(2, 1);
        h.record_invoke(x, cmd_get(x, 5), 0);
        h.record_invoke(y, cmd_get(y, 5), 0);
        h.record_execution(0, 0, 0, x);
        h.record_execution(0, 0, 0, y);
        h.record_execution(0, 1, 0, y);
        h.record_execution(0, 1, 0, x);
        assert!(h.check().is_ok());
    }

    #[test]
    fn divergent_read_write_order_is_caught() {
        // A `Get` and a `Put` on the same key do conflict: divergent order is real.
        let mut h = History::new();
        let x = Rifl::new(1, 1);
        let y = Rifl::new(2, 1);
        h.record_invoke(x, cmd_get(x, 5), 0);
        h.record_invoke(y, cmd_put(y, 5, 9), 0);
        h.record_execution(0, 0, 0, x);
        h.record_execution(0, 0, 0, y);
        h.record_execution(0, 1, 0, y);
        h.record_execution(0, 1, 0, x);
        assert!(matches!(
            h.check(),
            Err(Violation::OrderDivergence { shard: 0, .. })
        ));
    }

    #[test]
    fn divergent_nonconflicting_order_is_allowed() {
        let mut h = History::new();
        let x = Rifl::new(1, 1);
        let y = Rifl::new(2, 1);
        h.record_invoke(x, cmd_put(x, 1, 1), 0);
        h.record_invoke(y, cmd_put(y, 2, 2), 0);
        h.record_execution(0, 0, 0, x);
        h.record_execution(0, 0, 0, y);
        h.record_execution(0, 1, 0, y);
        h.record_execution(0, 1, 0, x);
        assert!(h.check().is_ok());
    }

    #[test]
    fn oversized_keys_are_skipped_and_reported() {
        let mut h = History::new();
        for i in 0..(MAX_LIN_OPS as u64 + 1) {
            let r = Rifl::new(1, i + 1);
            h.record_invoke(r, cmd_put(r, 0, i), i * 10);
            h.record_complete(r, i * 10 + 5, vec![(0, 0, Some(i))]);
        }
        let summary = h.check().expect("skipped, not failed");
        assert_eq!(summary.keys_skipped, 1);
        assert_eq!(summary.keys_checked, 0);
    }
}
