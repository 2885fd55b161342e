//! Trace profile — the observability plane end to end. Emits `BENCH_trace.json`
//! plus `TRACE_gray_chaos.json`, a Chrome trace-event file of a gray-failure chaos
//! run (open it in Perfetto / `chrome://tracing`: one track per replica, command
//! lifecycle spans with detector and nemesis events overlaid).
//!
//! Three measurements (tracing overhead is `tempo-perf`'s `trace.overhead_pct`, taken on
//! the real stack — a best-of-N of a 40 ms simulator run measured the host instead):
//!
//! 1. **Sim phase breakdown** — a traced deterministic run folded into the
//!    per-phase latency histograms (submit→commit, commit→stable, stable→execute,
//!    execute→reply), recorded per pair. The same seed is run twice and the two
//!    Chrome renders must be *byte-identical* — the trace is part of the
//!    deterministic surface.
//! 2. **Gray-chaos export** — slow node + lossy links + a crash/restart under the
//!    real failure detector, traced, exported as the Perfetto file.
//! 3. **Networked phase breakdown** — an open-loop load window against a traced
//!    `NetCluster` over real sockets, the same per-pair fields next to the sim's.

use std::time::Duration;
use tempo_bench::json::{self, Record};
use tempo_bench::{header, short_mode};
use tempo_core::Tempo;
use tempo_fault::{FaultEvent, NemesisSchedule};
use tempo_kernel::{Config, Protocol};
use tempo_load::{ConflictMix, ZipfMix};
use tempo_planet::Planet;
use tempo_runtime::{run_load, LoadOpts, NetCluster, NetOpts, RuntimeFactory};
use tempo_sim::{run, RunReport, SimOpts};
use tempo_trace::{ChromeTrace, PhaseLatencies};

/// One traced deterministic run: the sim side of every measurement below.
fn traced_sim(seed: u64) -> RunReport {
    let (clients, commands) = if short_mode() { (2, 8) } else { (4, 20) };
    let config = Config::full(3, 1);
    run::<Tempo, _>(
        config,
        Planet::equidistant(config.n(), 50.0),
        SimOpts {
            clients_per_site: clients,
            commands_per_client: commands,
            seed,
            trace: true,
            metrics_interval_us: Some(100_000),
            ..SimOpts::default()
        },
        ConflictMix::new(0.1, 16, seed),
    )
}

/// Renders a report's trace + metrics as a Chrome trace-event document.
fn chrome_render(report: &RunReport, n: u64) -> String {
    let mut chrome = ChromeTrace::new();
    for p in 0..n {
        chrome.name_process(p, format!("replica {p}"));
    }
    chrome.add_log(report.trace.clone().expect("traced run has a log"));
    if let Some(registry) = &report.registry {
        chrome.add_registry(registry);
    }
    chrome.render()
}

/// Records one per-phase latency block under `trace/{side}_phase_{pair}`.
fn record_phases(records: &mut Vec<Record>, side: &str, phases: &PhaseLatencies) {
    println!("  {side:4} | {}", phases.summary_line());
    for (name, s) in phases.summaries() {
        records.push(
            Record::new(
                format!("trace/{side}_phase_{name}"),
                &[("samples", s.samples as f64)],
            )
            .with_latency(&s),
        );
    }
}

fn main() {
    header(
        "Trace profile: lifecycle tracing, phase breakdown, Perfetto export",
        "observability harness — no paper figure; §3 commit/execute pipeline made visible",
    );
    let mut records = Vec::new();

    // ------------------------------------------------ 1. sim phase breakdown
    println!("\nper-phase latency breakdown (mean ms unless noted):");
    let report = traced_sim(42);
    assert!(!report.stalled, "traced run stalled: {}", report.summary());
    let phases = report.phases.as_ref().expect("traced run folds phases");
    assert_eq!(
        phases.complete, report.completed,
        "every completed command must appear in the fold"
    );
    record_phases(&mut records, "sim", phases);

    let trace = report.trace.as_ref().expect("trace");
    let chrome = chrome_render(&report, 3);
    let twin = traced_sim(42);
    assert_eq!(
        trace.events,
        twin.trace.as_ref().expect("twin trace").events,
        "same seed must produce the identical event stream"
    );
    assert_eq!(
        chrome,
        chrome_render(&twin, 3),
        "same seed must produce a byte-identical Chrome render"
    );
    println!(
        "  sim trace: {} events ({} dropped), chrome render {} bytes, byte-identical across reruns",
        trace.events.len(),
        trace.dropped,
        chrome.len()
    );
    records.push(Record::new(
        "trace/sim",
        &[
            ("events", trace.events.len() as f64),
            ("dropped", trace.dropped as f64),
            ("commands", phases.commands as f64),
            ("complete", phases.complete as f64),
            ("chrome_bytes", chrome.len() as f64),
            ("deterministic", 1.0),
        ],
    ));

    // --------------------------------------------------- 2. gray-chaos export
    // Partial faults under the real detector: replica 4 turns slow (not dead),
    // links go lossy, replica 0 crashes and restarts. The export shows suspicion,
    // crash, restart and recovery markers on the lifecycle tracks.
    let gray_config = Config::full(5, 1);
    let mut schedule = NemesisSchedule::slow_node(4, 500_000, 100_000, 2_000_000);
    schedule.merge(NemesisSchedule::lossy_link_soak(
        gray_config,
        0.05,
        0,
        2_000_000,
    ));
    schedule.merge(NemesisSchedule::new(vec![
        (300_000, FaultEvent::Crash(0)),
        (900_000, FaultEvent::Restart(0)),
    ]));
    let gray = run::<Tempo, _>(
        gray_config,
        Planet::equidistant(gray_config.n(), 50.0),
        SimOpts {
            clients_per_site: if short_mode() { 2 } else { 4 },
            commands_per_client: if short_mode() { 6 } else { 12 },
            seed: 19,
            trace: true,
            metrics_interval_us: Some(100_000),
            nemesis: Some(schedule),
            client_timeout_us: Some(15_000_000),
            ..SimOpts::default()
        },
        ConflictMix::new(0.3, 16, 19).with_hot_reads(0.5),
    );
    assert!(!gray.stalled, "gray-chaos run stalled: {}", gray.summary());
    let gray_trace = gray.trace.as_ref().expect("gray trace");
    let gray_chrome = chrome_render(&gray, gray_config.n() as u64);
    assert!(
        gray_chrome.contains("traceEvents"),
        "export must be a Chrome trace-event document"
    );
    let path = json::workspace_root().join("TRACE_gray_chaos.json");
    match std::fs::write(&path, &gray_chrome) {
        Ok(()) => println!(
            "\ngray chaos: {} events, {} suspicions — Perfetto export at {}",
            gray_trace.events.len(),
            gray.detector.suspicions,
            path.display()
        ),
        Err(err) => eprintln!("warning: could not write {}: {err}", path.display()),
    }
    records.push(Record::new(
        "trace/gray_chaos",
        &[
            ("events", gray_trace.events.len() as f64),
            ("dropped", gray_trace.dropped as f64),
            ("suspicions", gray.detector.suspicions as f64),
            (
                "recoveries_completed",
                gray.metrics.recoveries_completed as f64,
            ),
            ("chrome_bytes", gray_chrome.len() as f64),
        ],
    ));

    // ---------------------------------------- 3. networked phase breakdown
    println!("\nnetworked phase breakdown (open-loop load over real sockets):");
    let factory: RuntimeFactory<Tempo> =
        Box::new(|id, shard, config, _incarnation| Tempo::new(id, shard, config));
    let cluster = NetCluster::start(
        Config::full(3, 1),
        NetOpts {
            trace: true,
            metrics_interval: Some(Duration::from_millis(100)),
            ..NetOpts::default()
        },
        factory,
    )
    .expect("cluster starts");
    let (warmup, measure, rate) = if short_mode() {
        (
            Duration::from_millis(200),
            Duration::from_millis(800),
            300.0,
        )
    } else {
        (Duration::from_millis(500), Duration::from_secs(2), 800.0)
    };
    let load = run_load(
        &cluster,
        LoadOpts {
            sessions: 256,
            sockets_per_site: 1,
            rate_per_s: rate,
            warmup,
            measure,
            poisson: true,
            seed: 42,
            op_timeout: Duration::from_secs(5),
        },
        |pump| ZipfMix::new(4_096, 0.5, 0.5, 42 + pump as u64).with_payload(16),
    );
    let net_report = cluster.shutdown();
    assert!(
        load.completed > 0,
        "load window completed nothing: {load:?}"
    );
    let net_phases = load.phases.as_ref().expect("traced cluster folds phases");
    assert!(
        net_phases
            .pair("submit_commit")
            .is_some_and(|p| !p.histogram.is_empty()),
        "networked submit→commit histogram must be non-empty"
    );
    record_phases(&mut records, "net", net_phases);
    let net_trace = net_report.trace.as_ref().expect("net trace");
    println!(
        "  net trace: {} events ({} dropped), {} metric series",
        net_trace.events.len(),
        net_trace.dropped,
        net_report.registry.as_ref().map_or(0, |r| r.len())
    );
    records.push(Record::new(
        "trace/net",
        &[
            ("completed", load.completed as f64),
            ("aborted", load.aborted as f64),
            ("achieved_per_s", load.achieved_rate()),
            ("events", net_trace.events.len() as f64),
            ("dropped", net_trace.dropped as f64),
            (
                "metric_series",
                net_report.registry.as_ref().map_or(0, |r| r.len()) as f64,
            ),
        ],
    ));

    json::write("trace", &records);
}
