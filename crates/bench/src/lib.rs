//! `tempo-bench` — shared helpers for the benchmark harnesses.
//!
//! Each table and figure of the paper's evaluation has a dedicated bench target under
//! `benches/` (run them all with `cargo bench --workspace`). The harnesses are scaled
//! down so the whole suite completes on a laptop: client counts and command counts are a
//! fraction of the paper's, which lowers absolute throughput but preserves the *shape* of
//! every comparison (who wins, by what factor, where crossovers happen). EXPERIMENTS.md
//! records paper-vs-measured values for every experiment.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;

use tempo_kernel::config::Config;
use tempo_kernel::protocol::Protocol;
use tempo_load::{ConflictMix, YcsbTMix};
use tempo_planet::Planet;
use tempo_sim::{CpuModel, RunReport, SimOpts, Simulation};

/// Number of commands each simulated client issues in the scaled-down harnesses.
pub const COMMANDS_PER_CLIENT: usize = 20;

/// Whether the benches run in short (CI smoke) mode: fewer repetitions and smaller
/// sweeps, controlled by the `TEMPO_BENCH_SHORT` environment variable. Short mode keeps
/// the recorded `BENCH_*.json` shape identical so the perf trajectory stays comparable.
pub fn short_mode() -> bool {
    std::env::var_os("TEMPO_BENCH_SHORT").is_some_and(|v| !v.is_empty() && v != "0")
}

/// Prints a harness header with the experiment name and the paper reference.
pub fn header(title: &str, paper: &str) {
    println!();
    println!("================================================================");
    println!("{title}");
    println!("paper reference: {paper}");
    println!("================================================================");
}

/// Runs a full-replication (5 EC2 sites) microbenchmark deployment of protocol `P`.
pub fn full_replication<P: Protocol>(
    f: usize,
    clients_per_site: usize,
    conflict_rate: f64,
    payload: usize,
    cpu: Option<CpuModel>,
) -> RunReport {
    let mix = ConflictMix::new(conflict_rate, payload, 42);
    microbenchmark::<P>(f, clients_per_site, cpu, mix)
}

/// Runs a full-replication deployment with the batching workload of Figure 8.
pub fn full_replication_batched<P: Protocol>(
    f: usize,
    clients_per_site: usize,
    payload: usize,
    batch: usize,
    cpu: Option<CpuModel>,
) -> RunReport {
    let mix = ConflictMix::new(0.02, payload, 42).with_batch(batch);
    microbenchmark::<P>(f, clients_per_site, cpu, mix)
}

fn microbenchmark<P: Protocol>(
    f: usize,
    clients_per_site: usize,
    cpu: Option<CpuModel>,
    mix: ConflictMix,
) -> RunReport {
    let opts = sim_opts(clients_per_site, cpu);
    Simulation::<P, _>::new(Config::full(5, f), Planet::ec2(), opts, mix).run()
}

fn sim_opts(clients_per_site: usize, cpu: Option<CpuModel>) -> SimOpts {
    SimOpts {
        clients_per_site,
        commands_per_client: COMMANDS_PER_CLIENT,
        cpu,
        seed: 42,
        ..SimOpts::default()
    }
}

/// Runs a partial-replication deployment (3 EC2 sites per shard) with the YCSB+T workload
/// of Figure 9.
pub fn partial_replication<P: Protocol>(
    shards: usize,
    zipf: f64,
    write_ratio: f64,
    clients_per_site: usize,
    cpu: Option<CpuModel>,
) -> RunReport {
    let config = Config::new(3, 1, shards);
    let opts = sim_opts(clients_per_site, cpu);
    // The paper uses 1M keys per shard with thousands of clients; the scaled-down harness
    // shrinks the key universe so that the probability of two in-flight transactions
    // touching a common key stays comparable at the lower client counts.
    let mix = YcsbTMix::new(shards as u64, 2_000, zipf, write_ratio, 42);
    Simulation::<P, _>::new(config, Planet::ec2_three_regions(), opts, mix).run()
}

/// Formats a ratio like "1.8x".
pub fn speedup(new: f64, baseline: f64) -> String {
    if baseline <= 0.0 {
        "n/a".to_string()
    } else {
        format!("{:.1}x", new / baseline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_core::Tempo;

    #[test]
    fn speedup_formatting() {
        assert_eq!(speedup(230.0, 53.0), "4.3x");
        assert_eq!(speedup(1.0, 0.0), "n/a");
    }

    #[test]
    fn scaled_down_full_replication_completes() {
        let report = full_replication::<Tempo>(1, 2, 0.02, 10, None);
        assert!(!report.stalled);
        assert_eq!(report.completed as usize, 5 * 2 * COMMANDS_PER_CLIENT);
    }
}
