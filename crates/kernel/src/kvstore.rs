//! The replicated state machine: a deterministic in-memory key-value store.
//!
//! The paper's evaluation framework ships an in-memory key-value store as the application
//! on top of every protocol (§6.1). Executing the same commands in the same order at every
//! replica must produce the same store state — a property the integration tests check.

use crate::command::{Command, CommandResult, KVOp, Key};
use crate::id::ShardId;
use std::collections::BTreeMap;

/// A deterministic in-memory key-value store holding the keys of a single shard.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KVStore {
    store: BTreeMap<Key, u64>,
    executed: u64,
}

impl KVStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies a single operation to a key and returns the operation output
    /// (the value read, or the new value written).
    pub fn apply(&mut self, key: Key, op: KVOp) -> Option<u64> {
        match op {
            KVOp::Get => self.store.get(&key).copied(),
            KVOp::Put(value) => {
                self.store.insert(key, value);
                Some(value)
            }
            KVOp::Add(delta) => {
                let entry = self.store.entry(key).or_insert(0);
                *entry = entry.wrapping_add(delta);
                Some(*entry)
            }
        }
    }

    /// Executes the portion of `cmd` that touches `shard` and returns the partial result.
    pub fn execute(&mut self, shard: ShardId, cmd: &Command) -> CommandResult {
        let mut result = CommandResult::new(cmd.rifl);
        for (key, op) in cmd.ops_of(shard) {
            let output = self.apply(*key, *op);
            result.outputs.push((*key, output));
        }
        self.executed += 1;
        result
    }

    /// Current value of a key, if any.
    pub fn get(&self, key: Key) -> Option<u64> {
        self.store.get(&key).copied()
    }

    /// Number of keys currently stored.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Number of commands executed against this store.
    pub fn commands_executed(&self) -> u64 {
        self.executed
    }

    /// The full store contents as `(key, value)` pairs, in key order. Used to build
    /// durable snapshots and rejoin state transfers.
    pub fn entries(&self) -> Vec<(Key, u64)> {
        self.store.iter().map(|(k, v)| (*k, *v)).collect()
    }

    /// Replaces the store contents with `entries`, keeping the executed counter at
    /// `executed`. Used when installing a durable snapshot or a state transfer.
    pub fn restore(&mut self, entries: Vec<(Key, u64)>, executed: u64) {
        self.store = entries.into_iter().collect();
        self.executed = executed;
    }

    /// A digest of the store contents, used by tests to compare replica states cheaply.
    pub fn digest(&self) -> u64 {
        // FNV-1a over (key, value) pairs; the store is a BTreeMap so iteration order is
        // deterministic.
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for (k, v) in &self.store {
            for byte in k.to_le_bytes().iter().chain(v.to_le_bytes().iter()) {
                hash ^= u64::from(*byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::Rifl;

    #[test]
    fn get_put_add_semantics() {
        let mut kv = KVStore::new();
        assert_eq!(kv.apply(1, KVOp::Get), None);
        assert_eq!(kv.apply(1, KVOp::Put(10)), Some(10));
        assert_eq!(kv.apply(1, KVOp::Get), Some(10));
        assert_eq!(kv.apply(1, KVOp::Add(5)), Some(15));
        assert_eq!(kv.apply(2, KVOp::Add(3)), Some(3));
        assert_eq!(kv.len(), 2);
        assert!(!kv.is_empty());
    }

    #[test]
    fn execute_only_touches_own_shard() {
        let mut kv = KVStore::new();
        let cmd = Command::new(
            Rifl::new(1, 1),
            vec![(0, 1, KVOp::Put(7)), (1, 2, KVOp::Put(9))],
            0,
        );
        let result = kv.execute(0, &cmd);
        assert_eq!(result.outputs, vec![(1, Some(7))]);
        assert_eq!(kv.get(1), Some(7));
        assert_eq!(kv.get(2), None);
        assert_eq!(kv.commands_executed(), 1);
    }

    #[test]
    fn same_commands_same_order_same_digest() {
        let cmds: Vec<Command> = (0..100)
            .map(|i| Command::single(Rifl::new(1, i), 0, i % 7, KVOp::Add(i), 0))
            .collect();
        let mut a = KVStore::new();
        let mut b = KVStore::new();
        for c in &cmds {
            a.execute(0, c);
            b.execute(0, c);
        }
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a, b);
    }

    #[test]
    fn different_orders_of_conflicting_writes_differ() {
        let c1 = Command::single(Rifl::new(1, 1), 0, 0, KVOp::Put(1), 0);
        let c2 = Command::single(Rifl::new(1, 2), 0, 0, KVOp::Put(2), 0);
        let mut a = KVStore::new();
        a.execute(0, &c1);
        a.execute(0, &c2);
        let mut b = KVStore::new();
        b.execute(0, &c2);
        b.execute(0, &c1);
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn an_op_applied_to_a_value_matches_the_store() {
        // A model of one key's value (`None`: absent): each op's output and the value it
        // leaves must be what the store reads and keeps for that key.
        fn apply(op: KVOp, value: &mut Option<u64>) -> Option<u64> {
            match op {
                KVOp::Get => *value,
                KVOp::Put(new) => Some(*value.insert(new)),
                KVOp::Add(delta) => Some(*value.insert(value.unwrap_or(0).wrapping_add(delta))),
            }
        }
        let ops = [
            KVOp::Get,
            KVOp::Put(4),
            KVOp::Add(3),
            KVOp::Get,
            KVOp::Add(u64::MAX),
        ];
        let (mut kv, mut value) = (KVStore::new(), None);
        for op in ops {
            assert_eq!(apply(op, &mut value), kv.apply(9, op), "{op:?}");
            assert_eq!(value, kv.get(9));
        }
    }

    #[test]
    fn add_wraps_instead_of_panicking() {
        let mut kv = KVStore::new();
        kv.apply(0, KVOp::Put(u64::MAX));
        assert_eq!(kv.apply(0, KVOp::Add(2)), Some(1));
    }
}
