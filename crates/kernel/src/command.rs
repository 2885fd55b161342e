//! Commands submitted by clients and their results.
//!
//! A command accesses one or more keys, each belonging to a shard. Two commands
//! *conflict* when they access a common key (the paper's microbenchmark, §6.2, defines
//! conflicts through a shared key). Dependency-based protocols (EPaxos, Atlas, Caesar, and
//! Janus\*, which is Atlas over shards) order conflicting commands explicitly; Tempo orders
//! all commands through timestamps and therefore never needs conflict information, but the
//! same [`Command`] type is shared so that all protocols run identical workloads.

use crate::id::{Rifl, ShardId};
use std::collections::{BTreeMap, BTreeSet};

/// A key of the replicated key-value store.
///
/// The paper's microbenchmark uses 8-byte keys; a `u64` matches that exactly.
pub type Key = u64;

/// An operation on a single key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KVOp {
    /// Read the current value of the key.
    Get,
    /// Overwrite the key with the given value.
    Put(u64),
    /// Add the given delta to the key (used by the YCSB+T "transaction" workload).
    Add(u64),
}

impl KVOp {
    /// Whether the operation leaves the store unchanged.
    pub fn is_read(&self) -> bool {
        matches!(self, KVOp::Get)
    }
}

/// A client command: a set of keyed operations plus an opaque payload size.
///
/// The payload is carried by value-size only: protocols never inspect it, and the
/// simulator's cost model charges network/CPU time proportional to it (replacing the
/// 100 B / 256 B / 1 KB / 4 KB payloads of §6.2-6.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Command {
    /// End-to-end request identifier.
    pub rifl: Rifl,
    /// Operations grouped by the shard that owns each key.
    ops: BTreeMap<ShardId, Vec<(Key, KVOp)>>,
    /// Extra payload carried by the command, in bytes.
    pub payload_size: usize,
}

impl Command {
    /// Creates a command from `(shard, key, op)` triples.
    ///
    /// # Panics
    ///
    /// Panics if `ops` is empty: a command must access at least one partition.
    pub fn new(rifl: Rifl, ops: Vec<(ShardId, Key, KVOp)>, payload_size: usize) -> Self {
        assert!(!ops.is_empty(), "a command must access at least one key");
        let mut by_shard: BTreeMap<ShardId, Vec<(Key, KVOp)>> = BTreeMap::new();
        for (shard, key, op) in ops {
            by_shard.entry(shard).or_default().push((key, op));
        }
        Self {
            rifl,
            ops: by_shard,
            payload_size,
        }
    }

    /// Convenience constructor for a single-shard, single-key command.
    pub fn single(rifl: Rifl, shard: ShardId, key: Key, op: KVOp, payload_size: usize) -> Self {
        Self::new(rifl, vec![(shard, key, op)], payload_size)
    }

    /// The shards accessed by this command, in ascending order.
    pub fn shards(&self) -> impl Iterator<Item = ShardId> + '_ {
        self.ops.keys().copied()
    }

    /// Number of shards accessed.
    pub fn shard_count(&self) -> usize {
        self.ops.len()
    }

    /// Whether the command accesses more than one shard.
    pub fn is_multi_shard(&self) -> bool {
        self.ops.len() > 1
    }

    /// The lowest-numbered shard accessed; used to pick the process a client submits to.
    pub fn target_shard(&self) -> ShardId {
        *self.ops.keys().next().expect("command accesses >= 1 shard")
    }

    /// Whether the command accesses the given shard.
    pub fn accesses(&self, shard: ShardId) -> bool {
        self.ops.contains_key(&shard)
    }

    /// The operations on the given shard (empty if the shard is not accessed).
    pub fn ops_of(&self, shard: ShardId) -> &[(Key, KVOp)] {
        self.ops.get(&shard).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Keys accessed on the given shard.
    pub fn keys_of(&self, shard: ShardId) -> impl Iterator<Item = Key> + '_ {
        self.ops_of(shard).iter().map(|(k, _)| *k)
    }

    /// All `(shard, key)` pairs accessed.
    pub fn keys(&self) -> impl Iterator<Item = (ShardId, Key)> + '_ {
        self.ops
            .iter()
            .flat_map(|(shard, ops)| ops.iter().map(move |(k, _)| (*shard, *k)))
    }

    /// Total number of keyed operations.
    pub fn op_count(&self) -> usize {
        self.ops.values().map(Vec::len).sum()
    }

    /// Whether every operation is a read (relevant to protocols that exploit the
    /// read/write distinction, §3.3 "Limitations of timestamp stability").
    pub fn is_read_only(&self) -> bool {
        self.ops
            .values()
            .flat_map(|ops| ops.iter())
            .all(|(_, op)| op.is_read())
    }

    /// Whether `self` and `other` conflict on the given shard, i.e. access a common key of
    /// that shard.
    pub fn conflicts_on(&self, other: &Command, shard: ShardId) -> bool {
        let mine: BTreeSet<Key> = self.keys_of(shard).collect();
        other.keys_of(shard).any(|k| mine.contains(&k))
    }

    /// Whether `self` and `other` conflict on any shard.
    pub fn conflicts(&self, other: &Command) -> bool {
        self.shards().any(|shard| self.conflicts_on(other, shard))
    }

    /// Estimated wire size of the command in bytes (key + op overhead plus payload);
    /// consumed by the simulator's cost model.
    pub fn wire_size(&self) -> usize {
        16 + self.op_count() * 24 + self.payload_size
    }
}

/// The outcome of executing a command at one shard.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CommandResult {
    /// Request identifier of the executed command.
    pub rifl: Rifl,
    /// Per-key results (the value read, or the value written back).
    pub outputs: Vec<(Key, Option<u64>)>,
}

impl CommandResult {
    /// Creates an empty result for the given request.
    pub fn new(rifl: Rifl) -> Self {
        Self {
            rifl,
            outputs: Vec::new(),
        }
    }

    /// Merges the partial result produced by another shard into this one.
    pub fn merge(&mut self, other: CommandResult) {
        debug_assert_eq!(self.rifl, other.rifl);
        self.outputs.extend(other.outputs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rifl(n: u64) -> Rifl {
        Rifl::new(1, n)
    }

    #[test]
    fn single_key_command_basics() {
        let c = Command::single(rifl(1), 0, 42, KVOp::Put(7), 100);
        assert_eq!(c.shard_count(), 1);
        assert!(!c.is_multi_shard());
        assert_eq!(c.target_shard(), 0);
        assert!(c.accesses(0));
        assert!(!c.accesses(1));
        assert_eq!(c.op_count(), 1);
        assert!(!c.is_read_only());
        assert_eq!(c.keys().collect::<Vec<_>>(), vec![(0, 42)]);
    }

    #[test]
    fn multi_shard_command_groups_by_shard() {
        let c = Command::new(
            rifl(1),
            vec![(1, 5, KVOp::Get), (0, 3, KVOp::Put(1)), (1, 6, KVOp::Get)],
            0,
        );
        assert_eq!(c.shard_count(), 2);
        assert!(c.is_multi_shard());
        assert_eq!(c.target_shard(), 0);
        assert_eq!(c.shards().collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(c.ops_of(1).len(), 2);
        assert_eq!(c.ops_of(2).len(), 0);
    }

    #[test]
    fn conflict_requires_common_key_on_same_shard() {
        let a = Command::single(rifl(1), 0, 10, KVOp::Put(1), 0);
        let b = Command::single(rifl(2), 0, 10, KVOp::Get, 0);
        let c = Command::single(rifl(3), 0, 11, KVOp::Get, 0);
        let d = Command::single(rifl(4), 1, 10, KVOp::Get, 0);
        assert!(a.conflicts(&b));
        assert!(!a.conflicts(&c));
        // Same key number on a different shard is a different partition: no conflict.
        assert!(!a.conflicts(&d));
    }

    #[test]
    fn read_only_detection() {
        let r = Command::new(rifl(1), vec![(0, 1, KVOp::Get), (1, 2, KVOp::Get)], 0);
        let w = Command::new(rifl(2), vec![(0, 1, KVOp::Get), (1, 2, KVOp::Add(1))], 0);
        assert!(r.is_read_only());
        assert!(!w.is_read_only());
    }

    #[test]
    fn wire_size_accounts_for_payload() {
        let small = Command::single(rifl(1), 0, 1, KVOp::Get, 0);
        let large = Command::single(rifl(1), 0, 1, KVOp::Get, 4096);
        assert!(large.wire_size() > small.wire_size());
        assert_eq!(large.wire_size() - small.wire_size(), 4096);
    }

    #[test]
    #[should_panic(expected = "at least one key")]
    fn empty_command_panics() {
        let _ = Command::new(rifl(1), vec![], 0);
    }

    #[test]
    fn result_merge_concatenates_outputs() {
        let mut a = CommandResult::new(rifl(1));
        a.outputs.push((1, Some(10)));
        let mut b = CommandResult::new(rifl(1));
        b.outputs.push((2, None));
        a.merge(b);
        assert_eq!(a.outputs.len(), 2);
    }
}
