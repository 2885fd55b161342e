//! Geo-replication: compare Tempo and Flexible Paxos latency over the paper's five EC2
//! regions using the discrete-event simulator.
//!
//! Run with: `cargo run --release --example geo_replication`

use tempo_core::Tempo;
use tempo_fpaxos::FPaxos;
use tempo_kernel::Config;
use tempo_load::ConflictMix;
use tempo_planet::{ec2_region_label, Planet};
use tempo_sim::{run, SimOpts};

fn main() {
    let config = Config::full(5, 1);
    let opts = SimOpts {
        clients_per_site: 16,
        commands_per_client: 20,
        ..SimOpts::default()
    };
    let planet = Planet::ec2();

    println!("running Tempo f=1 over Ireland / N. California / Singapore / Canada / São Paulo...");
    let tempo = run::<Tempo, _>(
        config,
        planet.clone(),
        opts.clone(),
        ConflictMix::new(0.02, 100, 1),
    );
    println!("running FPaxos f=1 with the leader in Ireland...");
    let fpaxos = run::<FPaxos, _>(config, planet.clone(), opts, ConflictMix::new(0.02, 100, 1));

    println!("\nper-site mean latency (ms):");
    println!("{:<16} {:>10} {:>10}", "site", "Tempo", "FPaxos");
    for site in 0..5u64 {
        println!(
            "{:<16} {:>10.0} {:>10.0}",
            ec2_region_label(&planet.regions()[site as usize]),
            tempo.site_mean_ms(site),
            fpaxos.site_mean_ms(site)
        );
    }
    println!(
        "\naverage: Tempo {:.0} ms, FPaxos {:.0} ms — leaderless replication satisfies every site
more uniformly, while FPaxos penalises clients far from the leader (Figure 5 of the paper).",
        tempo.mean_latency_ms(),
        fpaxos.mean_latency_ms()
    );
}
