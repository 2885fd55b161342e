//! Multi-shard chaos over the real stack (ISSUE 9 acceptance): YCSB+T multi-key
//! transactions across two shards on the TCP-backed, `FileStore`-backed cluster,
//! under the seeded random nemesis and the gray presets — every recorded history
//! through the *cross-key strict serializability* checker, not just the per-key
//! passes.
//!
//! These runs are exactly the configuration where `MStable`/`MBump` reordering
//! under real threads could produce cross-key divergence: each command touches one
//! key on each shard, the two shards order it independently, and the constraint
//! graph of `tempo_fault::serializability` must find no cycle across those orders.
//! The closed-loop runs go through `ClientSession` (per-shard watched replicas,
//! outputs merged); the open-loop run goes through `run_load` session slots with
//! history recording on — both ends of the driver feed the same checker.

use std::path::PathBuf;
use std::time::Duration;
use tempo_core::{Tempo, TempoOptions};
use tempo_fault::{
    CheckSummary, CycleEdge, EdgeKind, History, NemesisSchedule, RandomNemesisOpts, Violation,
};
use tempo_kernel::command::Key;
use tempo_kernel::config::Config;
use tempo_kernel::id::{ProcessId, Rifl, ShardId};
use tempo_load::YcsbTMix;
use tempo_runtime::{
    run_load, run_workload, LoadOpts, NetCluster, NetOpts, RuntimeFactory, RuntimeReport,
};

const CLIENTS_PER_SITE: usize = 2;
const COMMANDS_PER_CLIENT: usize = 40;
const SHARDS: usize = 2;
const KEYS_PER_SHARD: u64 = 64;

/// Same tightened protocol timeouts as `tests/chaos.rs`: recovery fires within
/// hundreds of milliseconds so each seed stays CI-sized.
fn chaos_options() -> TempoOptions {
    TempoOptions {
        commit_request_timeout_us: 200_000,
        snapshot_every_appends: 64,
        ..TempoOptions::default()
    }
}

fn filestore_factory(root: PathBuf) -> RuntimeFactory<Tempo> {
    Box::new(move |id, shard, config, _incarnation| {
        let store = tempo_store::FileStore::open(root.join(format!("p{id}")))
            .expect("open per-replica store");
        Tempo::with_store(id, shard, config, chaos_options(), Box::new(store))
    })
}

/// Runs the YCSB+T multi-shard workload closed-loop under `schedule` and returns
/// the runtime report plus the checker's summary — panicking (with the violation,
/// including the anomalous cycle if there is one) when the checker rejects.
fn checked_multi_shard_run(
    seed: u64,
    name: &str,
    schedule: NemesisSchedule,
) -> (RuntimeReport, CheckSummary) {
    let root = std::env::temp_dir().join(format!(
        "tempo-multishard-{name}-{}-{seed}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&root);
    let config = Config::new(3, 1, SHARDS);
    let cluster = NetCluster::start(
        config,
        NetOpts {
            nemesis: Some(schedule),
            seed,
            record_history: true,
            client_timeout: Duration::from_secs(2),
            ..NetOpts::default()
        },
        filestore_factory(root.clone()),
    )
    .expect("cluster starts");
    let tally = run_workload(&cluster, CLIENTS_PER_SITE, COMMANDS_PER_CLIENT, |client| {
        YcsbTMix::new(SHARDS as u64, KEYS_PER_SHARD, 0.5, 0.5, 100 * seed + client)
    });
    let report = cluster.shutdown();
    let _ = std::fs::remove_dir_all(&root);
    let sites = config.n();
    assert!(tally.submitted >= (sites * CLIENTS_PER_SITE * COMMANDS_PER_CLIENT) as u64);
    assert_eq!(
        tally.completed + tally.aborted,
        tally.submitted,
        "every command must be accounted for ({name}, seed {seed})"
    );
    assert!(
        tally.completed > 0,
        "the workload must make progress ({name}, seed {seed}): {tally:?}"
    );
    let history = report.history.as_ref().expect("history recorded");
    let summary = match history.check() {
        Ok(summary) => summary,
        Err(violation) => {
            if let Violation::NotSerializable { cycle } = &violation {
                panic!(
                    "{name} seed {seed}: history checker failed: {violation}\n{}",
                    dump_anomaly(history, config, cycle)
                );
            }
            panic!("{name} seed {seed}: history checker failed: {violation}");
        }
    };
    assert!(
        summary.multi_key_commands > 0,
        "{name} seed {seed}: YCSB+T must produce multi-key commands: {summary:?}"
    );
    assert!(
        summary.ser_txns > 0,
        "{name} seed {seed}: the serializability graph must have run: {summary:?}"
    );
    (report, summary)
}

/// Post-mortem for a serializability rejection: the cycle's transactions (with their
/// observed per-key entry/exit values) and, per replica incarnation, the execution
/// order restricted to commands touching the cycle's keys — enough to tell a
/// divergent replica order from a rolled-back execution.
fn dump_anomaly(history: &History, config: Config, cycle: &[CycleEdge]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let txns = history.transactions();
    let mut keys: std::collections::BTreeSet<(ShardId, Key)> = std::collections::BTreeSet::new();
    for edge in cycle {
        match edge.kind {
            EdgeKind::ReadFrom { shard, key }
            | EdgeKind::InitialRead { shard, key }
            | EdgeKind::Overwrite { shard, key }
            | EdgeKind::RealTime { shard, key } => {
                keys.insert((shard, key));
            }
            EdgeKind::Program { .. } => {}
        }
    }
    let touching: std::collections::BTreeSet<Rifl> = txns
        .iter()
        .filter(|t| t.accesses.iter().any(|a| keys.contains(&(a.shard, a.key))))
        .map(|t| t.rifl)
        .collect();
    let in_cycle: std::collections::BTreeSet<Rifl> =
        cycle.iter().flat_map(|e| [e.from, e.to]).collect();
    for t in txns.iter().filter(|t| in_cycle.contains(&t.rifl)) {
        writeln!(
            out,
            "  txn {} inv={} res={:?} accesses={:?}",
            t.rifl, t.inv_us, t.res_us, t.accesses
        )
        .expect("write to string");
    }
    for p in 0..(config.n() * config.shards()) as ProcessId {
        for incarnation in 0..8 {
            let execs: Vec<String> = history
                .executed_by_incarnation(p, incarnation)
                .into_iter()
                .filter(|r| touching.contains(r))
                .map(|r| r.to_string())
                .collect();
            if !execs.is_empty() {
                writeln!(out, "  p{p} inc{incarnation}: {}", execs.join(" "))
                    .expect("write to string");
            }
        }
    }
    out
}

/// The random-nemesis battery over two shards, on 5 seeds: generated incidents
/// (crash/restart, partition-and-heal, lossy window, delay spike) spend every
/// shard's fault budget, and the cross-shard histories must stay acyclic.
#[test]
fn random_nemesis_multi_shard_passes_the_serializability_checker_on_five_seeds() {
    for seed in 41..=45u64 {
        let schedule = NemesisSchedule::random(&RandomNemesisOpts {
            config: Config::new(3, 1, SHARDS),
            horizon_us: 800_000,
            incidents: 3,
            seed,
        });
        assert!(
            !schedule.is_empty(),
            "seed {seed}: schedule must not be empty"
        );
        let (report, _) = checked_multi_shard_run(seed, "random", schedule);
        assert!(
            report.faults.events() > 0,
            "seed {seed}: the scheduled incidents must actually have been injected: {:?}",
            report.faults
        );
    }
}

/// Gray preset 1: a slow node (not a dead node) on shard 0 while cross-shard
/// commands are in flight — wrong suspicions may trigger spurious recoveries, which
/// must never reorder the two shards' views of a multi-key command.
#[test]
fn slow_node_gray_preset_keeps_cross_shard_histories_serializable() {
    for seed in 51..=52u64 {
        let schedule = NemesisSchedule::slow_node(0, 300_000, 50_000, 1_500_000);
        let (report, _) = checked_multi_shard_run(seed, "gray-slow-node", schedule);
        assert!(
            report.faults.slow_nodes >= 1,
            "seed {seed}: the slow-node window must fire: {:?}",
            report.faults
        );
        assert!(
            report.detector.heartbeats > 0,
            "seed {seed}: the detectors must exchange heartbeats"
        );
    }
}

/// Gray preset 2: duplicated and reordered frames on every link for most of the
/// run — the transport-level analogue of the `BrokenShim` mutations the checker is
/// proven to catch; the protocol must absorb them so the checker stays green.
#[test]
fn duplicate_reorder_gray_preset_keeps_cross_shard_histories_serializable() {
    for seed in 61..=62u64 {
        let schedule = NemesisSchedule::duplicate_reorder_soak(
            Config::new(3, 1, SHARDS),
            0.2,
            50_000,
            1_200_000,
        );
        let (report, _) = checked_multi_shard_run(seed, "gray-dup-reorder", schedule);
        assert!(
            report.faults.duplicated + report.faults.reordered > 0,
            "seed {seed}: the soak must actually duplicate or reorder frames: {:?}",
            report.faults
        );
    }
}

/// The open-loop path: `run_load` with the YCSB+T mix over two shards and history
/// recording on. Session slots collect one execution notice per accessed shard,
/// merge the per-shard outputs into one completion record, and the merged history
/// must pass the full checker — the load driver is now a correctness instrument,
/// not just a throughput meter.
#[test]
fn open_loop_multi_shard_load_records_a_checkable_history() {
    let config = Config::new(3, 1, SHARDS);
    // Process ids recur: a store left behind by an earlier run under this one's id
    // would boot the replicas from that run's snapshots.
    let root = std::env::temp_dir().join(format!("tempo-multishard-load-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let cluster = NetCluster::start(
        config,
        NetOpts {
            record_history: true,
            ..NetOpts::default()
        },
        filestore_factory(root.clone()),
    )
    .expect("cluster starts");
    let opts = LoadOpts {
        sessions: 64,
        sockets_per_site: 1,
        rate_per_s: 300.0,
        warmup: Duration::from_millis(200),
        measure: Duration::from_millis(800),
        poisson: true,
        seed: 9,
        op_timeout: Duration::from_secs(5),
    };
    let load_report = run_load(&cluster, opts, |p| {
        YcsbTMix::new(SHARDS as u64, KEYS_PER_SHARD, 0.6, 0.5, 900 + p as u64)
    });
    let report = cluster.shutdown();
    let _ = std::fs::remove_dir_all(&root);
    assert!(
        load_report.completed > 0,
        "the open-loop run must complete measured ops: {load_report:?}"
    );
    let history = report.history.as_ref().expect("history recorded");
    assert!(
        !history.is_empty(),
        "run_load must have recorded invocations"
    );
    let summary = match history.check() {
        Ok(summary) => summary,
        Err(violation) => panic!("open-loop history checker failed: {violation}"),
    };
    assert!(
        summary.multi_key_commands > 0,
        "the YCSB+T mix must produce multi-key commands: {summary:?}"
    );
    assert!(
        summary.ser_txns > 0 && summary.ser_edges > 0,
        "the serializability graph must have run over the load history: {summary:?}"
    );
}
