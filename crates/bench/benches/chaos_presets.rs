//! Chaos presets — availability under injected faults (the recovery protocol at work).
//!
//! Runs each `tempo-fault` preset schedule against Tempo, checks the recorded history
//! (per-key linearizability, replica agreement, at-most-once) and records completion /
//! abort / recovery counters in `BENCH_chaos.json`. This is the harness CI's
//! `chaos-smoke` job runs on every push (`TEMPO_BENCH_SHORT` shrinks the load, not the
//! fault coverage).
//!
//! Unlike the figure harnesses this does not reproduce a paper experiment: the paper
//! argues recovery correctness analytically (§5, Algorithm 4); here the claim is
//! exercised mechanically.

use std::time::Duration;
use tempo_bench::json::{self, Record};
use tempo_bench::{header, short_mode};
use tempo_core::Tempo;
use tempo_fault::{FaultEvent, NemesisSchedule, RandomNemesisOpts};
use tempo_kernel::{Config, Protocol};
use tempo_load::{ConflictMix, ZipfMix};
use tempo_planet::Planet;
use tempo_runtime::{run_load, LoadOpts, NetCluster, NetOpts, RuntimeFactory};
use tempo_sim::{run, RunReport, SimOpts};

fn chaos_run(
    label: &str,
    config: Config,
    schedule: NemesisSchedule,
    seed: u64,
    mix: ConflictMix,
) -> RunReport {
    let clients = if short_mode() { 2 } else { 4 };
    let commands = if short_mode() { 5 } else { 10 };
    let report = run::<Tempo, _>(
        config,
        Planet::equidistant(config.n(), 50.0),
        SimOpts {
            clients_per_site: clients,
            commands_per_client: commands,
            seed,
            nemesis: Some(schedule),
            client_timeout_us: Some(15_000_000),
            record_history: true,
            ..SimOpts::default()
        },
        mix,
    );
    assert!(
        !report.stalled,
        "{label}: run stalled: {}",
        report.summary()
    );
    let history = report.history.as_ref().expect("history recorded");
    match history.check() {
        Ok(summary) => println!(
            "{label:<18} {}\n{:<18} checker: {} cmds, {} keys linearizable, {} replicas agree",
            report.summary(),
            "",
            summary.commands,
            summary.keys_checked,
            summary.replicas
        ),
        Err(violation) => panic!("{label}: SAFETY VIOLATION: {violation}"),
    }
    report
}

/// When the crash lands in the load-under-nemesis run: inside the measured window in
/// both short and full modes.
const FAULT_AT_US: u64 = 500_000;

/// One open-loop load window against the networked cluster, with an optional
/// nemesis schedule (times relative to cluster start, like the tests).
fn load_under_nemesis(label: &str, nemesis: Option<NemesisSchedule>) -> tempo_runtime::LoadReport {
    let factory: RuntimeFactory<Tempo> =
        Box::new(|id, shard, config, _incarnation| Tempo::new(id, shard, config));
    let cluster = NetCluster::start(
        Config::full(3, 1),
        NetOpts {
            nemesis,
            seed: 42,
            ..NetOpts::default()
        },
        factory,
    )
    .expect("cluster starts");
    let (warmup, measure, rate, sessions) = if short_mode() {
        (
            Duration::from_millis(200),
            Duration::from_millis(1_300),
            600.0,
            128,
        )
    } else {
        (
            Duration::from_millis(400),
            Duration::from_secs(2),
            1_500.0,
            256,
        )
    };
    let report = run_load(
        &cluster,
        LoadOpts {
            sessions,
            sockets_per_site: 1,
            rate_per_s: rate,
            warmup,
            measure,
            poisson: true,
            seed: 42,
            op_timeout: Duration::from_secs(2),
        },
        |pump| ZipfMix::new(4_096, 0.5, 0.5, 42 + pump as u64).with_payload(16),
    );
    cluster.shutdown();
    assert!(
        report.completed > 0,
        "{label}: the load window must complete work: {report:?}"
    );
    let s = report.summary();
    println!(
        "  {label:13} | {:7.0} offered | {:7.0} achieved | {:6} done {:5} aborted | p50 {:7.1} ms  p99 {:8.1} ms  p99.9 {:8.1} ms",
        report.offered_rate,
        report.achieved_rate(),
        report.completed,
        report.aborted,
        s.p50_ms,
        s.p99_ms,
        s.p999_ms,
    );
    report
}

fn record(records: &mut Vec<Record>, name: &str, report: &RunReport) {
    records.push(Record::new(
        format!("chaos/{name}"),
        &[
            ("completed", report.completed as f64),
            ("aborted", report.aborted as f64),
            (
                "recoveries_started",
                report.metrics.recoveries_started as f64,
            ),
            (
                "recoveries_completed",
                report.metrics.recoveries_completed as f64,
            ),
            ("faults", report.faults.events() as f64),
            ("msgs_dropped", report.faults.dropped() as f64),
            ("mean_ms", report.mean_latency_ms()),
        ],
    ));
}

fn main() {
    header(
        "Chaos presets: crash, partition and recover the cluster in simulation",
        "§5 / Algorithm 4 (recovery), Appendix B (liveness) — checked, not reproduced",
    );
    let config = Config::full(5, 1);
    let mut records = Vec::new();

    let coordinator = chaos_run(
        "coordinator-crash",
        config,
        NemesisSchedule::coordinator_crash(0, 60_000),
        7,
        ConflictMix::new(0.2, 16, 7).with_hot_reads(0.4),
    );
    assert!(
        coordinator.metrics.recoveries_completed >= 1,
        "the coordinator-crash preset must exercise the recovery path"
    );
    record(&mut records, "coordinator_crash", &coordinator);

    let rolling = chaos_run(
        "rolling-crashes",
        Config::full(5, 2),
        NemesisSchedule::rolling_crashes(Config::full(5, 2), 200_000, 400_000),
        11,
        ConflictMix::new(0.1, 16, 11),
    );
    record(&mut records, "rolling_crashes_f2", &rolling);

    let split = chaos_run(
        "split-brain",
        config,
        NemesisSchedule::split_brain_and_heal(config, 100_000, 1_500_000),
        13,
        ConflictMix::new(0.3, 16, 13).with_hot_reads(0.5),
    );
    record(&mut records, "split_brain_and_heal", &split);

    let soak = chaos_run(
        "lossy-link-soak",
        config,
        NemesisSchedule::lossy_link_soak(config, 0.1, 0, 2_000_000),
        17,
        ConflictMix::new(0.3, 16, 17).with_hot_reads(0.5),
    );
    record(&mut records, "lossy_link_soak", &soak);

    // A handful of random schedules on top of the presets (the full battery runs in
    // `cargo test -p tempo-fault`).
    let seeds = if short_mode() { 0..3u64 } else { 0..6u64 };
    for seed in seeds {
        // Short horizon so the first incident always lands while the run is going
        // (asserted: a schedule that never fires would be a vacuous "pass").
        let schedule = NemesisSchedule::random(&RandomNemesisOpts {
            config,
            horizon_us: 800_000,
            incidents: 3,
            seed,
        });
        let report = chaos_run(
            &format!("random-{seed}"),
            config,
            schedule,
            seed,
            ConflictMix::new(0.1, 16, seed),
        );
        assert!(
            report.faults.events() > 0,
            "random-{seed}: no fault ever fired"
        );
        record(&mut records, &format!("random_seed_{seed}"), &report);
    }

    // ----------------------------------------------------------- gray failures (§9)
    // Fault model v2: failures that are partial. A slow node is not a dead node,
    // duplicated/reordered frames test handler idempotence, and suspicion itself is
    // fallible: it comes from heartbeats over the same afflicted network.

    let slow = chaos_run(
        "slow-node+lossy",
        config,
        {
            let mut s = NemesisSchedule::slow_node(4, 500_000, 100_000, 2_000_000);
            s.merge(NemesisSchedule::lossy_link_soak(config, 0.05, 0, 2_000_000));
            s
        },
        19,
        ConflictMix::new(0.3, 16, 19).with_hot_reads(0.5),
    );
    assert!(slow.faults.slowed > 0, "the slow-node window must fire");
    record(&mut records, "slow_node_lossy", &slow);

    let soak = chaos_run(
        "dup-reorder-soak",
        config,
        NemesisSchedule::duplicate_reorder_soak(config, 0.4, 0, 3_000_000),
        23,
        ConflictMix::new(0.3, 16, 23).with_hot_reads(0.5),
    );
    assert!(
        soak.faults.duplicated > 0 && soak.faults.reordered > 0,
        "the duplicate/reorder soak must fire"
    );
    record(&mut records, "dup_reorder_soak", &soak);

    // Rolling crashes with the detector's counters recorded: replicas suspect each
    // other through the simulated failure detector, nobody tells them.
    let detector = chaos_run(
        "detector-rolling",
        config,
        NemesisSchedule::rolling_crashes(config, 300_000, 500_000),
        29,
        ConflictMix::new(0.3, 16, 29).with_hot_reads(0.5),
    );
    assert!(
        detector.detector.suspicions > 0,
        "the crashes must produce real suspicions"
    );
    records.push(Record::new(
        "chaos/detector_rolling".to_string(),
        &[
            ("completed", detector.completed as f64),
            ("aborted", detector.aborted as f64),
            ("suspicions", detector.detector.suspicions as f64),
            (
                "wrong_suspicions",
                detector.detector.wrong_suspicions as f64,
            ),
            ("heartbeats", detector.detector.heartbeats as f64),
            ("mean_ms", detector.mean_latency_ms()),
        ],
    ));

    // --------------------------------------------- load under nemesis (availability)
    // The load plane against the networked cluster: one clean window, one window
    // with a crash + detector-driven recovery landing inside it. The difference
    // between the two latency blocks is the availability cost of the fault window
    // (tail latency during crash/suspicion, not just mean).
    println!("\nload under nemesis (open-loop):");
    let baseline = load_under_nemesis("baseline", None);
    let crashed = load_under_nemesis(
        "crash-window",
        Some(NemesisSchedule::new(vec![
            (FAULT_AT_US, FaultEvent::Crash(0)),
            (FAULT_AT_US + 400_000, FaultEvent::Restart(0)),
        ])),
    );
    for (name, report) in [("baseline", &baseline), ("crash_window", &crashed)] {
        let s = report.summary();
        records.push(Record::new(
            format!("load_nemesis/{name}"),
            &[
                ("offered_per_s", report.offered_rate),
                ("achieved_per_s", report.achieved_rate()),
                ("completed", report.completed as f64),
                ("aborted", report.aborted as f64),
                ("p50_ms", s.p50_ms),
                ("p99_ms", s.p99_ms),
                ("p999_ms", s.p999_ms),
                ("max_ms", s.max_ms),
            ],
        ));
    }

    println!("\nEvery history passed the checker: linearizable per key, replicas agree on");
    println!("conflicting-command order, and no replica executed a command twice.");
    json::write("chaos", &records);
}
