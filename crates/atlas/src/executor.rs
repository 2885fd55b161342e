//! The dependency-graph execution stage of Atlas and EPaxos.
//!
//! The ordering stage commits each command with an explicit dependency set; this
//! executor feeds them to the [`DependencyGraph`] (Tarjan SCC executor) and applies
//! commands to the replicated store as soon as their strongly connected component has
//! every dependency committed.

use crate::graph::DependencyGraph;
use std::collections::BTreeMap;
use std::collections::BTreeSet;
use tempo_kernel::command::Command;
use tempo_kernel::config::Config;
use tempo_kernel::id::{Dot, ProcessId, ShardId};
use tempo_kernel::kvstore::KVStore;
use tempo_kernel::protocol::{Executed, Executor};

/// A committed command with its dependency set, handed to the graph executor.
#[derive(Debug, Clone)]
pub struct GraphInfo {
    /// Command identifier.
    pub dot: Dot,
    /// The command payload.
    pub cmd: Command,
    /// The committed dependencies.
    pub deps: BTreeSet<Dot>,
}

/// The dependency-graph executor at one process.
#[derive(Debug)]
pub struct GraphExecutor {
    shard: ShardId,
    graph: DependencyGraph,
    /// Payloads of committed-but-not-executed commands.
    cmds: BTreeMap<Dot, Command>,
    kv: KVStore,
    executed_count: u64,
}

impl GraphExecutor {
    /// Sizes of the strongly connected components executed so far (diagnostics).
    pub fn scc_sizes(&self) -> &[usize] {
        self.graph.scc_sizes()
    }

    /// Number of committed commands not yet executed.
    pub fn pending(&self) -> usize {
        self.graph.pending()
    }

    /// Read access to the replicated store (tests and diagnostics).
    pub fn store(&self) -> &KVStore {
        &self.kv
    }
}

impl Executor for GraphExecutor {
    type Info = GraphInfo;

    fn new(_process: ProcessId, shard: ShardId, _config: Config) -> Self {
        Self {
            shard,
            graph: DependencyGraph::new(),
            cmds: BTreeMap::new(),
            kv: KVStore::new(),
            executed_count: 0,
        }
    }

    fn handle(&mut self, info: GraphInfo) -> Vec<Executed> {
        if self.graph.contains(info.dot) {
            return Vec::new();
        }
        self.cmds.insert(info.dot, info.cmd);
        self.graph.add(info.dot, info.deps);
        let mut out = Vec::new();
        for dot in self.graph.try_execute() {
            let cmd = self
                .cmds
                .remove(&dot)
                .expect("committed commands have payloads");
            // Commits reach only the replicas of the shards a command accesses.
            debug_assert!(cmd.accesses(self.shard), "{dot:?} is foreign here");
            let result = self.kv.execute(self.shard, &cmd);
            out.push(Executed {
                rifl: cmd.rifl,
                result,
            });
            self.executed_count += 1;
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

    fn executor() -> GraphExecutor {
        GraphExecutor::new(0, 0, Config::full(3, 1))
    }

    fn info(source: u64, seq: u64, deps: &[Dot]) -> GraphInfo {
        GraphInfo {
            dot: Dot::new(source, seq),
            cmd: Command::single(Rifl::new(source, seq), 0, 0, KVOp::Add(1), 0),
            deps: deps.iter().copied().collect(),
        }
    }

    #[test]
    fn independent_commands_execute_immediately() {
        let mut ex = executor();
        assert_eq!(ex.handle(info(1, 1, &[])).len(), 1);
        assert_eq!(ex.handle(info(2, 1, &[])).len(), 1);
        assert_eq!(ex.executed(), 2);
    }

    #[test]
    fn commands_wait_for_their_dependencies() {
        let mut ex = executor();
        // Depends on a command not yet committed.
        assert!(ex.handle(info(2, 1, &[Dot::new(1, 1)])).is_empty());
        // Committing the dependency releases both, dependency first.
        let executed = ex.handle(info(1, 1, &[]));
        assert_eq!(executed.len(), 2);
        assert_eq!(executed[0].rifl, Rifl::new(1, 1));
        assert_eq!(executed[1].rifl, Rifl::new(2, 1));
    }

    #[test]
    fn cyclic_dependencies_execute_as_one_component() {
        let mut ex = executor();
        assert!(ex.handle(info(1, 1, &[Dot::new(2, 1)])).is_empty());
        let executed = ex.handle(info(2, 1, &[Dot::new(1, 1)]));
        assert_eq!(executed.len(), 2, "the SCC executes atomically");
        assert_eq!(ex.scc_sizes().iter().copied().max(), Some(2));
    }

    #[test]
    fn duplicate_commits_are_ignored() {
        let mut ex = executor();
        assert_eq!(ex.handle(info(1, 1, &[])).len(), 1);
        assert!(ex.handle(info(1, 1, &[])).is_empty());
        assert_eq!(ex.executed(), 1);
    }
}
