//! `tempo-runtime` — the networked cluster runtime.
//!
//! This is the "cluster mode" of the evaluation framework (§6.1) made real: the same
//! deterministic [`Protocol`](tempo_kernel::protocol::Protocol) state machines that
//! run under the discrete-event simulator are deployed here as an actual
//! message-passing system — one [`Driver`](tempo_kernel::driver::Driver) thread per
//! replica, fed by `tempo-net` transport I/O threads, messages serialized through the
//! [`Wire`](tempo_net::Wire) codec and shipped over loopback TCP sockets, durable
//! state on a real `FileStore` fsyncing under true concurrency.
//!
//! One cluster, two ways to load it:
//!
//! * [`NetCluster`] — the primary, transport-backed cluster. A
//!   [`RuntimeFactory`] builds each replica (wire a `tempo-store::FileStore` per
//!   process and restarts become kill-thread / reopen-store / rejoin + state
//!   transfer); a [`NemesisSchedule`](tempo_fault::NemesisSchedule) turns the run
//!   into a chaos experiment — the supervisor kills and revives replica threads while
//!   [`LinkTransport`](tempo_net::LinkTransport) drops, delays, duplicates and
//!   partitions frames *under real thread interleaving*; [`ClientSession`]s submit over the
//!   transport with timeout/failover matching the simulator's semantics, and the
//!   recorded [`History`](tempo_fault::History) feeds the same `tempo-fault` checker
//!   the sim runs. See DESIGN.md §7 for the networking model. With a
//!   [`Planet`](tempo_planet::Planet) in [`NetOpts`], the whole deployment runs
//!   across emulated wide-area regions (latency injection on every endpoint,
//!   geographic quorum views).
//! * [`run_workload`] — closed-loop clients over a [`NetCluster`], one thread and one
//!   seeded `tempo-load` mix per client: the networked analogue of the simulator's
//!   client loop, and what the chaos batteries run.
//! * [`run_load`] — the open-loop load driver over a [`NetCluster`]: seeded arrival
//!   schedules from `tempo-load`, thousands of logical sessions over a few sockets,
//!   tail latency measured from intended arrival times (DESIGN.md §8).
//!
//! The crate stays std-only: transports, framing and chaos all come from workspace
//! crates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod load;

pub use cluster::{
    run_workload, ClientSession, NetCluster, NetOpts, RuntimeFactory, RuntimeReport, WorkloadTally,
};
pub use load::{run_load, LoadOpts, LoadReport};
