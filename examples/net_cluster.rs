//! Networked cluster: Tempo on the stack the paper's evaluation corresponds to — three
//! replicas as OS threads over real loopback sockets (wire codec, framing, write
//! coalescing), placed in three emulated EC2 regions, driven open-loop.
//!
//! Expect no aborted commands (the offered rate is far below capacity), a mean latency
//! around 300 ms across Ireland, N. California and Singapore, and a phase breakdown
//! that says where it went (submit→commit→stable→execute→reply).
//!
//! Run with: `cargo run --release --example net_cluster`

use tempo_core::Tempo;
use tempo_kernel::{Config, Protocol};
use tempo_load::ZipfMix;
use tempo_planet::Planet;
use tempo_runtime::{run_load, LoadOpts, NetCluster, NetOpts};

fn main() {
    let cluster = NetCluster::start::<Tempo>(
        Config::full(3, 1),
        NetOpts {
            planet: Some(Planet::ec2_three_regions()),
            trace: true,
            ..NetOpts::default()
        },
        Box::new(|id, shard, config, _incarnation| Tempo::new(id, shard, config)),
    )
    .expect("cluster starts");

    // 200 commands per second, Poisson arrivals, YCSB-A over 4096 keys, for the default
    // half-second warm-up and two measured seconds; latency is measured from each
    // command's intended arrival time.
    let opts = LoadOpts {
        sessions: 256,
        sockets_per_site: 1,
        rate_per_s: 200.0,
        ..LoadOpts::default()
    };
    let load = run_load(&cluster, opts, |pump| {
        ZipfMix::ycsb_a(4096, 0.5, 7 + pump as u64).with_payload(100)
    });
    println!("{}", load.summary_line());

    cluster.shutdown();
}
