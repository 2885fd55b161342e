//! Partial replication: scale a YCSB+T workload across shards with Tempo's genuine
//! multi-partition protocol and compare against Janus*.
//!
//! Run with: `cargo run --release --example partial_replication`

use tempo_core::Tempo;
use tempo_janus::Janus;
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
        let janus = run::<Janus, _>(
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
    println!("\nTempo orders each transaction only at the shards it accesses (genuine), so");
    println!("throughput grows with the number of shards; Janus* pays cross-shard dependency");
    println!("exchanges and suffers under write-heavy, skewed workloads (Figure 9 of the paper).");
}
