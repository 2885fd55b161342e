//! Gray-failure chaos against the networked cluster: suspicion comes only from the
//! timeout-based failure detector inside every replica thread, fed by heartbeats over
//! the same chaos-afflicted sockets as protocol traffic — and the nemesis injects
//! failures that are *partial*: a slow node is not a dead node, a lying disk is not a
//! clean crash.
//!
//! The bar is the same as `tests/chaos.rs` (every command accounted for, every
//! history through the `tempo-fault` checker), plus detector-specific assertions:
//! recovery must be driven by real suspicions, and wrong suspicions (a slow node
//! mistaken for a dead one) must cost only extra messages, never safety.

use std::path::PathBuf;
use std::time::Duration;
use tempo_core::{Tempo, TempoOptions};
use tempo_fault::{FaultEvent, NemesisSchedule};
use tempo_kernel::config::Config;
use tempo_load::ConflictMix;
use tempo_runtime::{run_workload, NetCluster, NetOpts, RuntimeFactory, RuntimeReport};
use tempo_store::{FaultStore, StoreFaultPlan};

const CLIENTS_PER_SITE: usize = 2;
const COMMANDS_PER_CLIENT: usize = 40;

/// Same tightened protocol timeouts as `tests/chaos.rs`: recovery fires within
/// hundreds of milliseconds so each seed stays CI-sized.
fn chaos_options() -> TempoOptions {
    TempoOptions {
        commit_request_timeout_us: 200_000,
        snapshot_every_appends: 64,
    }
}

fn filestore_factory(root: PathBuf) -> RuntimeFactory<Tempo> {
    Box::new(move |id, shard, config, _incarnation| {
        let store = tempo_store::FileStore::open(root.join(format!("p{id}")))
            .expect("open per-replica store");
        Tempo::with_store(id, shard, config, chaos_options(), Box::new(store))
    })
}

/// Runs a cluster under `schedule` and puts the history through the checker.
/// Suspicion lands 100–150 ms after a replica goes silent, well inside the nemesis
/// windows below.
fn run_detector_chaos(
    config: Config,
    seed: u64,
    name: &str,
    schedule: NemesisSchedule,
    factory: RuntimeFactory<Tempo>,
) -> RuntimeReport {
    let cluster = NetCluster::start(
        config,
        NetOpts {
            nemesis: Some(schedule),
            seed,
            record_history: true,
            client_timeout: Duration::from_secs(2),
            ..NetOpts::default()
        },
        factory,
    )
    .expect("cluster starts");
    let tally = run_workload(&cluster, CLIENTS_PER_SITE, COMMANDS_PER_CLIENT, |client| {
        ConflictMix::new(0.6, 16, 100 * seed + client).with_hot_reads(0.5)
    });
    let report = cluster.shutdown();
    assert!(tally.submitted >= (config.n() * CLIENTS_PER_SITE * COMMANDS_PER_CLIENT) as u64);
    assert_eq!(
        tally.completed + tally.aborted,
        tally.submitted,
        "every command must be accounted for ({name}, seed {seed})"
    );
    assert!(
        tally.completed > 0,
        "the workload must make progress ({name}, seed {seed}): {tally:?}"
    );
    assert!(
        report.detector.heartbeats > 0,
        "{name} seed {seed}: the detectors must actually exchange heartbeats"
    );
    let history = report.history.as_ref().expect("history recorded");
    if let Err(violation) = history.check() {
        panic!("{name} seed {seed}: history checker failed: {violation}");
    }
    report
}

/// Rolling crash on 5 replicas and 5 seeds: nobody tells the survivors that a
/// replica died — its heartbeats stop, the detectors suspect it, and recovery (`MRec`
/// on the orphaned commands) must be driven entirely by that suspicion. The restarted
/// incarnation starts neutral, re-announces itself with its first frames and is
/// unsuspected on arrival.
#[test]
fn detector_driven_rolling_crash_passes_the_checker_on_five_seeds() {
    for seed in 71..=75u64 {
        let config = Config::full(5, 1);
        let schedule = NemesisSchedule::rolling_crashes(config, 60_000, 400_000);
        let root =
            std::env::temp_dir().join(format!("tempo-gray-rolling-{}-{seed}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let report = run_detector_chaos(
            config,
            seed,
            "detector-rolling-crash",
            schedule,
            filestore_factory(root.clone()),
        );
        let _ = std::fs::remove_dir_all(&root);
        assert!(
            report.faults.crashes >= 1 && report.faults.restarts >= 1,
            "seed {seed}: the schedule must fire: {:?}",
            report.faults
        );
        assert!(
            report.detector.suspicions > 0,
            "seed {seed}: a 400 ms outage must be detected: {:?}",
            report.detector
        );
    }
}

/// A slow node: replica 4 delivers everything 300 ms late for most of the run. The
/// detectors will (wrongly) suspect it when the first delayed gap exceeds the timeout and unsuspect it when its late heartbeats land — Tempo
/// must absorb the resulting spurious recoveries (`MRecNAck` ballot races) without
/// losing safety or completions.
#[test]
fn slow_node_is_wrongly_suspected_but_never_unsafe() {
    for seed in 81..=83u64 {
        let config = Config::full(5, 1);
        let schedule = NemesisSchedule::slow_node(4, 300_000, 50_000, 1_500_000);
        let root =
            std::env::temp_dir().join(format!("tempo-gray-slownode-{}-{seed}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let report = run_detector_chaos(
            config,
            seed,
            "detector-slow-node",
            schedule,
            filestore_factory(root.clone()),
        );
        let _ = std::fs::remove_dir_all(&root);
        assert!(
            report.faults.slow_nodes >= 1,
            "seed {seed}: the slow-node window must fire: {:?}",
            report.faults
        );
        // The interesting runs are the ones where the slow node was suspected and
        // later proven alive; the run must be safe either way, so only the fault
        // application is asserted unconditionally and the suspicion shape is
        // reported via the detector stats (`suspicions`/`wrong_suspicions`).
        if report.detector.suspicions > 0 {
            assert!(
                report.detector.heartbeats > 0,
                "seed {seed}: suspicions without heartbeats cannot unsuspect: {:?}",
                report.detector
            );
        }
    }
}

/// A crash on a *lying disk*: replica 0's store acknowledges fsyncs it never
/// performed, so the machine crash destroys everything the page cache held. The
/// restarted incarnation must come back from the durable prefix (possibly empty),
/// rejoin via state transfer, and the cluster must stay safe — corruption surfaces
/// as recovery work, never as a panic.
#[test]
fn fsync_lying_store_crash_recovers_without_panicking() {
    for (seed, plan) in [
        (91u64, StoreFaultPlan::fsync_liar(0.5, 91)),
        (92u64, StoreFaultPlan::torn_writer(0.3, 92)),
    ] {
        let config = Config::full(3, 1);
        // One shared lying device per replica, across incarnations.
        let stores: Vec<FaultStore> = (0..config.n()).map(|_| FaultStore::new(plan)).collect();
        let victim = stores[0].clone();
        let factory: RuntimeFactory<Tempo> = Box::new(move |id, shard, config, incarnation| {
            let store = stores[id as usize].clone();
            if incarnation > 0 {
                // The nemesis crash is a machine crash: the page cache dies with it.
                store.crash();
            }
            Tempo::with_store(id, shard, config, chaos_options(), Box::new(store))
        });
        let schedule = NemesisSchedule::new(vec![
            (60_000, FaultEvent::Crash(0)),
            (500_000, FaultEvent::Restart(0)),
        ]);
        let report = run_detector_chaos(config, seed, "lying-disk-crash", schedule, factory);
        assert_eq!(report.faults.crashes, 1, "seed {seed}");
        assert_eq!(report.faults.restarts, 1, "seed {seed}");
        let summary = victim.fault_summary();
        assert_eq!(summary.crashes, 1, "seed {seed}: machine crash applied");
        assert!(
            summary.lied_syncs + summary.torn_syncs > 0,
            "seed {seed}: the disk faults must actually fire: {summary:?}"
        );
    }
}
