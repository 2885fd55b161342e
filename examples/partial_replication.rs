//! Partial replication: a YCSB+T workload over 2, 4 and 6 shards, run with Tempo's
//! genuine multi-partition protocol and with Janus* (`Atlas` on a sharded config).
//!
//! Run with: `cargo run --release --example partial_replication`

use tempo_atlas::Atlas;
use tempo_core::Tempo;
use tempo_kernel::Config;
use tempo_load::YcsbTMix;
use tempo_planet::Planet;
use tempo_sim::{run, CpuModel, SimOpts};

fn main() {
    let planet = Planet::ec2_three_regions();
    let opts = SimOpts {
        clients_per_site: 8,
        commands_per_client: 15,
        cpu: Some(CpuModel::cluster()),
        ..SimOpts::default()
    };

    println!("YCSB+T, two keys per transaction, zipf 0.7, 50% writes, 3 sites per shard\n");
    println!(
        "{:<8} {:>16} {:>16}",
        "shards", "Tempo (kops/s)", "Janus* (kops/s)"
    );
    for shards in [2usize, 4, 6] {
        let config = Config::new(3, 1, shards);
        let tempo = run::<Tempo, _>(
            config,
            planet.clone(),
            opts.clone(),
            YcsbTMix::new(shards as u64, 100_000, 0.7, 0.5, 7),
        );
        let janus = run::<Atlas, _>(
            config,
            planet.clone(),
            opts.clone(),
            YcsbTMix::new(shards as u64, 100_000, 0.7, 0.5, 7),
        );
        println!(
            "{:<8} {:>16.2} {:>16.2}",
            shards,
            tempo.throughput_kops(),
            janus.throughput_kops()
        );
    }
    println!("\nWith 8 closed-loop clients per site every run is latency-bound: throughput is");
    println!("clients over latency, so it stays flat as shards are added. Tempo's latency");
    println!("includes one stability wait per shard clock (DESIGN.md §12), so here it trails");
    println!("Janus*. The paper's Figure 9 has Tempo ahead and scaling with shards; per-key");
    println!("stability (ROADMAP.md direction 2) is what this implementation lacks for that.");
}
