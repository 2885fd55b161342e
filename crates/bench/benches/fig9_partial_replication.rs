//! Figure 9 — partial replication: Tempo vs Janus* on YCSB+T. Janus* is `Atlas` on a
//! sharded config.
//!
//! Paper setup: shards of 1M keys replicated at 3 sites, commands access 2 keys, zipf ∈
//! {0.5, 0.7}, Janus* measured with 0%/5%/50% writes (its best case is the read-only
//! workload); Tempo has a single curve since it does not distinguish reads from writes.
//! Tempo ≈ the read-only best case of Janus*, 1.2-2.5x Janus* at 5% writes and 2-16x at
//! 50% writes, and scales with the number of shards (385/606/784 K ops/s at 2/4/6 shards).
//!
//! Scaled-down harness: 16 closed-loop clients per site, 2 K keys per shard, CPU model
//! enabled. The paper's comparison shape is *not* reproduced. At this client count the
//! CPU model does not bind, so throughput is clients over latency and stays flat across
//! shard counts. Tempo's latency includes one stability wait per shard clock (DESIGN.md
//! §12), so it trails Janus* and the printed speedups are below 1. Per-key stability
//! (ROADMAP.md direction 2) is what would remove that wait. The §6.4 tail-latency
//! observation (Janus* p99.99 ≈ 1.3 s vs Tempo 421 ms with 6 shards, zipf 0.7, 5% writes)
//! is reported as the p99.9 of the corresponding scaled-down runs.

use tempo_atlas::Atlas;
use tempo_bench::{header, partial_replication, speedup};
use tempo_core::Tempo;
use tempo_kernel::metrics::Percentile;
use tempo_sim::CpuModel;

const CLIENTS: usize = 16;

fn main() {
    header(
        "Figure 9: partial replication, Tempo vs Janus* (YCSB+T)",
        "Figure 9 and §6.4  (paper: 1M keys/shard, up to 6 shards; here: 2K keys/shard, 16 clients/site)",
    );
    let cpu = Some(CpuModel::cluster());
    println!(
        "{:<8} {:<10} {:<14} {:>12} {:>10} {:>10}",
        "shards", "zipf", "workload", "kops/s", "mean(ms)", "p99.9(ms)"
    );
    for shards in [2usize, 4, 6] {
        for zipf in [0.5f64, 0.7] {
            let tempo = partial_replication::<Tempo>(shards, zipf, 0.5, CLIENTS, cpu);
            let tempo_tput = tempo.throughput_kops();
            println!(
                "{:<8} {:<10} {:<14} {:>12.1} {:>10.0} {:>10.0}{}",
                shards,
                zipf,
                "Tempo",
                tempo_tput,
                tempo.mean_latency_ms(),
                tempo.percentile_ms(Percentile(99.9)),
                if tempo.stalled { " [STALLED]" } else { "" }
            );
            let mut janus_best = 0.0f64;
            for write in [0.0f64, 0.05, 0.5] {
                let janus = partial_replication::<Atlas>(shards, zipf, write, CLIENTS, cpu);
                let tput = janus.throughput_kops();
                if write == 0.0 {
                    janus_best = tput;
                }
                println!(
                    "{:<8} {:<10} {:<14} {:>12.1} {:>10.0} {:>10.0}   Tempo speedup: {}{}",
                    shards,
                    zipf,
                    format!("Janus* w={:.0}%", write * 100.0),
                    tput,
                    janus.mean_latency_ms(),
                    janus.percentile_ms(Percentile(99.9)),
                    speedup(tempo_tput, tput),
                    if janus.stalled { " [STALLED]" } else { "" }
                );
            }
            let _ = janus_best;
        }
    }
    println!("\npaper reference: Tempo ≈ Janus* read-only best case; 1.2-2.5x at 5% writes;");
    println!("2-16x at 50% writes; Tempo throughput grows with the number of shards.");
    println!("measured here: latency-bound runs (the CPU model does not bind at this client");
    println!("count), and Tempo's stability uses one clock per shard (DESIGN.md §12), so it");
    println!("trails Janus*; per-key stability is ROADMAP.md direction 2.");
}
