//! Integration tests spanning crates: every protocol completes the same workloads in the
//! discrete-event simulator, and the headline qualitative comparisons of the paper hold.

use tempo_atlas::{Atlas, EPaxos};
use tempo_caesar::Caesar;
use tempo_core::Tempo;
use tempo_fpaxos::FPaxos;
use tempo_kernel::Config;
use tempo_load::{ConflictMix, YcsbTMix};
use tempo_planet::Planet;
use tempo_sim::{run, CpuModel, RunReport, SimOpts};

fn opts() -> SimOpts {
    SimOpts {
        clients_per_site: 4,
        commands_per_client: 5,
        ..SimOpts::default()
    }
}

fn full<P: tempo_kernel::protocol::Protocol>(f: usize) -> RunReport {
    run::<P, _>(
        Config::full(5, f),
        Planet::ec2(),
        opts(),
        ConflictMix::new(0.02, 100, 3),
    )
}

#[test]
fn every_full_replication_protocol_completes_the_microbenchmark() {
    let expected = 5 * 4 * 5;
    for report in [
        full::<Tempo>(1),
        full::<Tempo>(2),
        full::<Atlas>(1),
        full::<Atlas>(2),
        full::<EPaxos>(2),
        full::<FPaxos>(1),
        full::<Caesar>(2),
    ] {
        assert!(!report.stalled, "{} stalled", report.protocol);
        assert_eq!(report.completed, expected, "{} incomplete", report.protocol);
        assert!(
            report.mean_latency_ms() > 30.0,
            "{} latency unrealistically low",
            report.protocol
        );
    }
}

#[test]
fn partial_replication_protocols_complete_ycsbt() {
    let config = Config::new(3, 1, 4);
    let planet = Planet::ec2_three_regions();
    for (name, report) in [
        (
            "Tempo",
            run::<Tempo, _>(
                config,
                planet.clone(),
                opts(),
                YcsbTMix::new(4, 10_000, 0.7, 0.5, 3),
            ),
        ),
        (
            "Janus*",
            run::<Atlas, _>(
                config,
                planet.clone(),
                opts(),
                YcsbTMix::new(4, 10_000, 0.7, 0.5, 3),
            ),
        ),
    ] {
        assert!(!report.stalled, "{name} stalled");
        assert_eq!(report.completed, 3 * 4 * 5, "{name} incomplete");
    }
}

#[test]
fn tempo_latency_is_insensitive_to_the_conflict_rate() {
    // §3.3 / §6.3: Tempo does not distinguish reads from writes and its performance is
    // essentially unaffected by the conflict rate.
    let low = run::<Tempo, _>(
        Config::full(5, 1),
        Planet::ec2(),
        opts(),
        ConflictMix::new(0.02, 100, 3),
    );
    let high = run::<Tempo, _>(
        Config::full(5, 1),
        Planet::ec2(),
        opts(),
        ConflictMix::new(0.5, 100, 3),
    );
    assert!(!low.stalled && !high.stalled);
    let ratio = high.mean_latency_ms() / low.mean_latency_ms();
    assert!(
        ratio < 1.5,
        "Tempo latency should be stable under contention (ratio {ratio:.2})"
    );
}

#[test]
fn fpaxos_leader_is_a_throughput_bottleneck_under_cpu_model() {
    // Figure 7's qualitative shape: with the CPU cost model and enough load to saturate,
    // the leader-based protocol (whose leader must receive and broadcast every 4 KB
    // command) caps below the leaderless one.
    let cpu_opts = SimOpts {
        clients_per_site: 128,
        commands_per_client: 10,
        cpu: Some(CpuModel {
            per_message_us: 100.0,
            per_kilobyte_us: 25.0,
            per_execution_us: 20.0,
        }),
        ..SimOpts::default()
    };
    let tempo = run::<Tempo, _>(
        Config::full(5, 1),
        Planet::ec2(),
        cpu_opts.clone(),
        ConflictMix::new(0.02, 4096, 3),
    );
    let fpaxos = run::<FPaxos, _>(
        Config::full(5, 1),
        Planet::ec2(),
        cpu_opts.clone(),
        ConflictMix::new(0.02, 4096, 3),
    );
    assert!(!tempo.stalled && !fpaxos.stalled);
    assert!(
        tempo.throughput_kops() > fpaxos.throughput_kops(),
        "Tempo ({:.1} kops/s) should out-scale FPaxos ({:.1} kops/s)",
        tempo.throughput_kops(),
        fpaxos.throughput_kops()
    );
}

#[test]
fn tempo_fast_path_ratio_is_high_at_low_conflict() {
    let report = full::<Tempo>(1);
    assert!(
        report.fast_path_ratio() > 0.95,
        "with f = 1 Tempo should always take the fast path (got {:.2})",
        report.fast_path_ratio()
    );
}
