//! Umbrella crate for the Tempo reproduction workspace.
//!
//! This crate re-exports the workspace members so that the examples under `examples/` and
//! the integration tests under `tests/` can refer to everything through one dependency.
//! The actual functionality lives in the member crates:
//!
//! * [`kernel`] — PSMR substrate: the Protocol API v2 ([`kernel::Protocol`] +
//!   [`kernel::Executor`] + typed [`kernel::Action`]s) and the generic
//!   [`kernel::Driver`] dispatch core shared by every runtime,
//! * [`planet`] — EC2 regions and the Table 2 latency matrix,
//! * [`tempo`] — the Tempo protocol (the paper's contribution),
//! * [`atlas`], [`fpaxos`], [`caesar`], [`janus`] — the baselines of §6,
//! * [`sim`] — the discrete-event simulator (with the fault plane),
//! * [`store`] — durable replica state: WAL + snapshots behind the `Store` trait,
//! * [`net`] — wire codec + pluggable transports (TCP, chaos injection),
//! * [`runtime`] — the cluster runtime: `NetCluster`, one driver thread per replica
//!   over `tempo-net` sockets, with closed-loop and open-loop client drivers,
//! * [`trace`] — post-run trace analysis: phase-latency breakdown, Chrome trace
//!   export (Perfetto-loadable) and the sampled metrics time series,
//! * [`load`] — load generation: the command mixes of the paper's evaluation
//!   (conflict-rate microbenchmark and its batched form, Zipf/YCSB, YCSB+T) and the
//!   open-loop arrival schedules behind BENCH_load.json.
//!
//! # Quick start (API v2)
//!
//! Protocols are deterministic state machines producing typed actions — `Send` messages,
//! `Deliver` executed commands (push-based completions), and `Schedule` for their own
//! periodic timers. The same state machine runs unchanged under the synchronous test
//! harness, the discrete-event simulator and the networked runtime, because all three
//! schedule over the kernel's generic `Driver`:
//!
//! ```
//! use tempo::kernel::harness::LocalCluster;
//! use tempo::kernel::{Command, Config, KVOp, Rifl};
//! use tempo::tempo::Tempo;
//!
//! // Five replicas of one shard, tolerating one failure (fast quorums of 3).
//! let config = Config::full(5, 1);
//! let mut cluster = LocalCluster::<Tempo>::new(config);
//!
//! // Submit a command; completions are pushed by the protocol (no polling API).
//! cluster.submit(0, Command::single(Rifl::new(1, 1), 0, 42, KVOp::Put(7), 0));
//! let executed = cluster.executed(0);
//! assert_eq!(executed.len(), 1);
//!
//! // Protocol-owned timers (promise broadcast, liveness) fire as time advances.
//! cluster.tick_all(5_000);
//! ```
//!
//! To drive a protocol from your own scheduler, wrap it in a
//! [`kernel::Driver`] directly — see the `tempo-kernel` crate docs and
//! `DESIGN.md` ("Protocol API v2") for the full `Action`/`Driver`/timer contract.

#![forbid(unsafe_code)]

pub use tempo_atlas as atlas;
pub use tempo_caesar as caesar;
pub use tempo_core as tempo;
pub use tempo_fpaxos as fpaxos;
pub use tempo_janus as janus;
pub use tempo_kernel as kernel;
pub use tempo_load as load;
pub use tempo_net as net;
pub use tempo_planet as planet;
pub use tempo_runtime as runtime;
pub use tempo_sim as sim;
pub use tempo_store as store;
pub use tempo_trace as trace;
