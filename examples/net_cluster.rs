//! Networked cluster: Tempo on the stack the paper's evaluation corresponds to — three
//! replicas as OS threads over real loopback sockets (wire codec, framing, write
//! coalescing), placed in three emulated EC2 regions, driven open-loop.
//!
//! Expect no aborted commands (the offered rate is far below capacity), a mean latency
//! around 300 ms across Ireland, N. California and Singapore, and a phase breakdown
//! that says where it went (submit→commit→stable→execute→reply) — first folded over
//! the earliest observation anywhere, then per coordinator site: how long a command
//! waits for stability *where it was submitted* (DESIGN.md §12 derives these numbers).
//!
//! Run with: `cargo run --release --example net_cluster`

use std::collections::BTreeMap;
use tempo_core::Tempo;
use tempo_kernel::metrics::LogHistogram;
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

    // 1,500 commands per second (the repo benchmark's `wan_rw` rate run), Poisson
    // arrivals, YCSB-A over 4096 keys, for the default half-second warm-up and two
    // measured seconds; latency is measured from each command's intended arrival time.
    let opts = LoadOpts {
        sessions: 4096,
        sockets_per_site: 1,
        rate_per_s: 1500.0,
        ..LoadOpts::default()
    };
    let load = run_load(&cluster, opts, |pump| {
        ZipfMix::ycsb_a(4096, 0.5, 7 + pump as u64).with_payload(100)
    });
    println!("{}", load.summary_line());

    // The same trace, per coordinator: a command's commit and its stability as seen by
    // the replica it was submitted to (replica `i` sits in region `i`).
    let trace = cluster.shutdown().trace.expect("tracing was on");
    let mut per_site: BTreeMap<u64, [LogHistogram; 2]> = BTreeMap::new();
    for (coordinator, submit_commit, commit_stable) in tempo_trace::at_coordinator(&trace) {
        let [commit, wait] = per_site.entry(coordinator).or_default();
        commit.record(submit_commit);
        wait.record(commit_stable);
    }
    let planet = Planet::ec2_three_regions();
    for (site, [commit, wait]) in &per_site {
        println!(
            "{:>14}: submit→commit p50 {:6.1} ms | commit→stable at the coordinator p50 {:6.1} ms p95 {:6.1} ms ({} commands)",
            planet.regions()[*site as usize].name(),
            commit.quantile_us(0.5) as f64 / 1e3,
            wait.quantile_us(0.5) as f64 / 1e3,
            wait.quantile_us(0.95) as f64 / 1e3,
            wait.len()
        );
    }
}
