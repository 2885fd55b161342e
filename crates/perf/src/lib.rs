//! `tempo-perf` — the repo's benchmark.
//!
//! Four workloads on the real stack (`NetCluster` + `run_load`: `Wire` codec,
//! `TcpTransport` over loopback, one `Driver` thread per replica), four end-to-end
//! metrics, and a per-layer cost budget measured from outside the program through
//! public functions only. `README.md` next to this crate's manifest has the metric
//! tables, how the layers are expected to move the end-to-end numbers, and the API
//! surface the benchmark compiles against; `BENCHMARK.json` at the repo root is the
//! machine-readable contract.

#![warn(missing_docs)]

pub mod alloc;
pub mod bench;
pub mod json;
pub mod micro;
pub mod passes;
pub mod procfs;
pub mod replay;
pub mod runs;
pub mod spec;
pub mod stats;
