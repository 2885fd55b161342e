//! `tempo-fault` — deterministic fault injection and history checking.
//!
//! The paper's availability claims rest on its recovery protocol (Algorithm 4): a
//! command whose coordinator crashes is still assigned a timestamp and executed by the
//! surviving quorum. This crate provides the two halves needed to *test* that claim in
//! simulation:
//!
//! * [`nemesis`] — a seeded schedule of fault events (crashes, restarts, partitions,
//!   lossy links, delay spikes) plus the network-state bookkeeping the simulator
//!   consults before delivering each message, and preset schedules for the canonical
//!   adversities (coordinator crash mid-commit, rolling crashes up to `f`, split brain
//!   and heal, lossy-link soak);
//! * [`history`] — a concurrent history of client invocations/responses and per-replica
//!   execution sequences, with a checker for per-key linearizability, cross-replica
//!   agreement on the order of conflicting commands, and at-most-once execution;
//! * [`serializability`] — cross-key strict serializability for multi-key commands: a
//!   commit-order constraint graph (read-from, initial-read, overwrite, per-key
//!   real-time, program order) whose cycles are anomalies, reported as a minimal
//!   cycle with the operations involved;
//! * [`detector`] — a timeout-based, heartbeat-fed failure detector, the only source
//!   of suspicion in the simulator and the networked runtime: wrong suspicions are
//!   possible, which is precisely the adversity the recovery ballot races must absorb.
//!
//! Everything is deterministic given a seed, so a failing schedule replays exactly.
//!
//! # Driving it
//!
//! The crate is runtime-agnostic: `tempo-sim` consumes a [`NemesisSchedule`] through
//! `SimOpts::nemesis` and records a [`History`] with `SimOpts::record_history`; any
//! other embedder can do the same by consulting [`Nemesis`] before each delivery and
//! feeding the history the invoke/complete/abort/execution events it observes. Crash
//! *recovery* composes with durable state: the simulator's protocol factory decides
//! what a restarted process keeps (a `tempo-store` backend) versus loses (everything
//! volatile) — see `tests/durability.rs` for the two extremes, and `tests/chaos.rs`
//! for the preset + randomized battery every change must keep green.
//!
//! # What a green checker does and does not mean
//!
//! [`History::check`] is a per-run bug finder over the schedules actually injected,
//! not a proof: it covers per-key linearizability (Wing & Gong with memoization;
//! aborted and unanswered operations linearized optionally), replica agreement on
//! conflicting-command order per incarnation, at-most-once execution, and — when the
//! history contains multi-key commands — cross-key strict serializability through the
//! constraint graph of [`serializability`] (single-key histories skip that pass
//! entirely). It still only explores the interleavings the seeds produce, and the
//! graph only uses constraints that are *forced* by observations (ambiguous
//! value-to-writer mappings are skipped — see DESIGN.md §11 for the limits). DESIGN.md
//! §5 states the full fault model; §6 the durability model layered on top of it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod detector;
pub mod history;
pub mod nemesis;
pub mod serializability;

pub use detector::{DetectorEvent, DetectorStats, FailureDetector, HEARTBEAT_INTERVAL_US};
pub use history::{CheckSummary, History, Violation};
pub use nemesis::{FaultEvent, FaultSummary, Nemesis, NemesisSchedule, RandomNemesisOpts};
pub use serializability::{CycleEdge, EdgeKind, SerSummary};
