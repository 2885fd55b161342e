//! `tempo-atlas` — the Atlas, EPaxos and Janus\* baselines used in the paper's
//! evaluation (§6).
//!
//! Atlas and EPaxos are leaderless SMR protocols that order commands through *explicit
//! dependencies* rather than timestamps (§3.3). Commands are committed together with a
//! dependency set and executed by collapsing the resulting graph into strongly connected
//! components ([`graph`]). Janus\*, the partial-replication baseline of §6.4, is
//! [`Atlas`] on a sharded [`Config`](tempo_kernel::Config): each accessed shard runs
//! Atlas's round and sends its dependencies to every replica of the command (see
//! [`protocol`]). The [`wire`] module gives the message set a `tempo-net` codec, so the
//! baselines also run on the networked `NetCluster` runtime (and in the load-plane
//! benchmarks) — not just under the simulator.
//!
//! # Quick start
//!
//! ```
//! use tempo_atlas::Atlas;
//! use tempo_kernel::harness::LocalCluster;
//! use tempo_kernel::{Command, Config, KVOp, Rifl};
//!
//! let config = Config::full(5, 1);
//! let mut cluster = LocalCluster::<Atlas>::new(config);
//! cluster.submit(0, Command::single(Rifl::new(1, 1), 0, 0, KVOp::Put(7), 0));
//! assert_eq!(cluster.executed(0).len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod executor;
pub mod graph;
pub mod protocol;
pub mod wire;

pub use executor::{GraphExecutor, GraphInfo};
pub use graph::{ConflictIndex, DependencyGraph};
pub use protocol::{Atlas, EPaxos, Message, Variant};
