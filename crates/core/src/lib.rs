//! `tempo-core` — the Tempo protocol from *Efficient Replication via Timestamp Stability*
//! (EuroSys 2021).
//!
//! Tempo is a leaderless state-machine replication protocol for full and partial
//! replication. Each command is assigned a scalar timestamp by a fast quorum of
//! `⌊n/2⌋ + f` processes; commands execute in timestamp order once their timestamp is
//! *stable*, i.e. once every conflicting command with a lower timestamp is known. Both
//! timestamping and stability detection are decentralized and tolerate `f` failures per
//! shard. As in the paper's implementation, clocks and stability are kept per key — here
//! per key *bucket* — so only commands on the same keys ever wait for one another.
//!
//! # Quick start
//!
//! ```
//! use tempo_core::Tempo;
//! use tempo_kernel::harness::LocalCluster;
//! use tempo_kernel::{Command, Config, KVOp, Protocol, Rifl};
//!
//! // Five replicas of a single shard, tolerating one failure.
//! let config = Config::full(5, 1);
//! let mut cluster = LocalCluster::<Tempo>::new(config);
//!
//! // Submit a command at replica 0 and let the cluster reach quiescence.
//! let cmd = Command::single(Rifl::new(1, 1), 0, 42, KVOp::Put(7), 0);
//! cluster.submit(0, cmd);
//!
//! // Once stable, the command executes at the submitting replica.
//! let executed = cluster.executed(0);
//! assert_eq!(executed.len(), 1);
//! assert_eq!(executed[0].rifl, Rifl::new(1, 1));
//! ```
//!
//! The crate is organised around the paper's ordering/execution split (Algorithm 2):
//!
//! * [`stability`] — per key bucket (`BUCKETS` of them, a hash of the key), the clock
//!   (`propose`/`bump`, Algorithm 1), the promises made and heard and the stable
//!   timestamp, and the line-47 commit gate, in one owner (Algorithm 2, Theorem 1 per
//!   bucket),
//! * [`promises`] — the promise sets [`stability`] keeps, and the incremental majority
//!   watermark of one promise track,
//! * [`messages`] — the wire protocol,
//! * [`info`] — per-command state (Figure 1 phases, Table 3 variables),
//! * [`gc`] — committed-command garbage collection via executed watermarks,
//! * [`protocol`] — the [`Tempo`] *ordering* state machine: commit and multi-partition
//!   protocols, the execution feed, GC and the protocol-owned timers (promise broadcast,
//!   liveness scan); messages a process addresses to itself are plain sends that the
//!   kernel's `Driver` delivers back, so no handler runs inside another,
//! * `recovery` — liveness and recovery in one owner (`Recovery`: suspicion and
//!   leadership, pending dots, probe and takeover pacing, recovery ballots and acks,
//!   repair pacing, the rejoin quorum), and the handlers of Algorithm 4 and Appendix B,
//! * `durable` — the WAL, its chunked floors and snapshots in one owner (`Durable`), and
//!   recovery from them ([`Tempo::with_store`]; DESIGN.md §6),
//! * `transfer` — the rejoin state transfer's execution gate in one owner (`Transfer`),
//!   and the install of an `MState`,
//! * [`executor`] — the [`TempoExecutor`] *execution* stage: a command executes — and
//!   answers its client — once it is stable in each of its buckets, in `⟨ts, id⟩` order
//!   per bucket; fed with commit/stability events and independently testable,
//! * [`wire`] — the `tempo-net` [`Wire`](tempo_net::Wire) codec for the full message
//!   set (what the TCP-backed cluster runtime ships over sockets), with the canonical
//!   per-variant fixture in [`wire_fixture`] pinned by `tests/wire_golden.rs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod durable;
pub mod executor;
pub mod gc;
pub mod info;
pub mod messages;
pub mod promises;
pub mod protocol;
mod recovery;
pub mod stability;
mod transfer;
pub mod wire;
pub mod wire_fixture;

pub use executor::{ExecutionInfo, TempoExecutor};
pub use gc::GcTracker;
pub use info::Phase;
pub use messages::{Message, PromiseBundle, Quorums, RecPhase};
pub use promises::{PromiseRange, PromiseTracker};
pub use protocol::{Tempo, TempoOptions};
