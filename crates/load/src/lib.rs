//! `tempo-load` — load generation: what clients submit, and when.
//!
//! The paper's evaluation runs three workloads — the conflict-rate microbenchmark
//! (§6.2–6.3), its batched form (Figure 8) and YCSB+T (§6.4) — under sustained
//! multi-client load. This crate is the generator side of every harness in the
//! workspace, independent of any transport or runtime:
//!
//! * [`Mix`] / [`ConflictMix`] / [`ZipfMix`] / [`YcsbTMix`] — what each command does:
//!   the microbenchmark's hot key with probability ρ, Zipf-distributed keys with
//!   YCSB-style read/write ratios, and the YCSB+T multi-shard transaction mix of
//!   Figure 9 (two distinct (shard, key) accesses per command). The request
//!   identifier is supplied by the caller, so the simulator can count per client and
//!   a load driver can encode session slots into it.
//! * [`Arrivals`] — open-loop arrival schedules: fixed-rate or Poisson, seeded and
//!   deterministic, emitting *intended* submission times in microseconds. Latency is
//!   measured from the intended time, not the actual send, so queueing delay caused
//!   by an overloaded system is charged to the system rather than silently dropped
//!   (the coordinated-omission stance; see DESIGN.md §8).
//! * [`Session`] — one client's in-flight command: which replica to submit to, which
//!   replica per accessed shard to watch (the closest live one), and which execution
//!   notice completes the command. The simulator's clients, `ClientSession` and the
//!   `run_load` pumps all keep their commands in it.
//!
//! The pieces that *apply* this load live in `tempo-sim` (closed-loop simulated
//! clients) and `tempo-runtime` (`run_workload`, `run_load`), the WAN emulation
//! lives in `tempo-net` (`LinkTransport`), and the streaming histograms they record
//! into are `tempo_kernel::metrics::LogHistogram`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arrivals;
mod mix;
mod session;

pub use arrivals::Arrivals;
pub use mix::{ConflictMix, Mix, YcsbTMix, ZipfMix};
pub use session::{Completed, Session, ShardOutput};
