//! `tempo-kernel` — the common substrate shared by every replication protocol in this
//! workspace.
//!
//! The crate defines the vocabulary of partial state-machine replication (PSMR, §2 of the
//! Tempo paper) and the **Protocol API v2** that every runtime drives:
//!
//! * [`id`] — process, site, shard, client and command identifiers,
//! * [`command`] — commands, key accesses and conflict detection,
//! * [`config`] — replication configuration (`n`, `f`, shards) and quorum sizes,
//! * [`membership`] — the static placement of processes onto sites and shards,
//! * [`protocol`] — the [`Protocol`] *ordering* trait
//!   (`submit`/`handle`/`timer`), the [`Executor`] *execution* trait,
//!   and the typed [`Action`] model (`Send` / `Deliver` / `Schedule`),
//! * [`driver`] — the generic [`Driver`] event-dispatch core that the
//!   simulator, the threaded runtime and the test harness all schedule over,
//! * [`harness`] — [`LocalCluster`](harness::LocalCluster), a synchronous FIFO cluster
//!   for protocol unit tests,
//! * [`kvstore`] — the deterministic in-memory key-value store used as the replicated
//!   state machine,
//! * [`metrics`] — latency histograms and throughput accounting,
//! * [`trace`] — low-overhead per-command lifecycle tracing
//!   ([`trace::Tracer`], ring-buffered [`trace::TraceEvent`]s),
//! * [`rand`] — a small deterministic PRNG and a Zipfian sampler (no external RNG
//!   dependency in the core library),
//! * [`util`] — assorted helpers.
//!
//! # Protocol API v2 in one example
//!
//! A protocol is a deterministic state machine producing typed actions; a runtime wraps
//! it in a [`Driver`] and acts on the returned [`Output`]:
//!
//! ```
//! use tempo_kernel::driver::Driver;
//! use tempo_kernel::protocol::View;
//! use tempo_kernel::{Command, Config, KVOp, Rifl};
//! # use tempo_kernel::harness::LocalCluster;
//!
//! # fn demo<P: tempo_kernel::Protocol>() {
//! let config = Config::full(3, 1);
//! let mut driver = Driver::<P>::new(0, 0, config);
//! // `start` hands the protocol its deployment view; the protocol replies with its
//! // initial timer registrations (there is no global tick in API v2).
//! let _ = driver.start(View::trivial(config, 0), 0);
//! // Submitting and handling return sends to transport and executions to deliver.
//! let output = driver.submit(Command::single(Rifl::new(1, 1), 0, 7, KVOp::Put(1), 0), 0);
//! for send in &output.sends { /* transport send.msg to send.to */ }
//! for executed in &output.executed { /* complete the client request */ }
//! // The scheduler owns time: fire protocol timers once they are due.
//! if let Some(due) = driver.next_timer_due() {
//!     let _ = driver.fire_due(due);
//! }
//! # }
//! ```
//!
//! The crate is dependency free so that the protocol implementations stay easy to audit
//! and embed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod command;
pub mod config;
pub mod driver;
pub mod harness;
pub mod id;
pub mod kvstore;
pub mod membership;
pub mod metrics;
pub mod protocol;
pub mod rand;
pub mod trace;
pub mod util;

pub use command::{Command, CommandResult, KVOp, Key};
pub use config::Config;
pub use driver::{Driver, Outbound, Output};
pub use id::{ClientId, Dot, ProcessId, Rifl, ShardId, SiteId};
pub use kvstore::KVStore;
pub use membership::Membership;
pub use metrics::Percentile;
pub use protocol::{Action, Executed, Executor, Protocol, TimerId, View};
pub use trace::{CmdPhase, ProcEvent, TraceEvent, TraceLog, Tracer};
