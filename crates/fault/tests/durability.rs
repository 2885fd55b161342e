//! The durability acceptance scenario (ISSUE 4): crash + restart with durable state.
//!
//! A replica crashes mid-run and restarts backed by a `FileStore`: the rebuilt process
//! replays its snapshot + WAL (pre-crash accepts and commits included), rejoins, and
//! back-fills the commands it slept through with the `MStateRequest`/`MState` transfer
//! — after which it serves *reads* again, and the whole run passes the history checker
//! under a read/write workload. (That the checker catches the stale reads a replica
//! without the back-fill would serve is `history::tests::stale_read_is_caught`.)

use std::path::PathBuf;
use tempo_core::{Tempo, TempoOptions};
use tempo_fault::{FaultEvent, NemesisSchedule};
use tempo_kernel::Config;
use tempo_load::ConflictMix;
use tempo_planet::Planet;
use tempo_sim::{run_with_factory, ProtocolFactory, RunReport, SimOpts};

fn schedule() -> NemesisSchedule {
    NemesisSchedule::new(vec![
        (300_000, FaultEvent::Crash(0)),
        (900_000, FaultEvent::Restart(0)),
    ])
}

fn opts(seed: u64) -> SimOpts {
    SimOpts {
        clients_per_site: 2,
        commands_per_client: 12,
        seed,
        nemesis: Some(schedule()),
        client_timeout_us: Some(15_000_000),
        record_history: true,
        ..SimOpts::default()
    }
}

fn mix(seed: u64) -> ConflictMix {
    // Heavy hot-key traffic with a read mix: the history checker gets plenty of
    // observations to falsify if the restarted replica serves a stale store.
    ConflictMix::new(0.6, 16, seed).with_hot_reads(0.5)
}

fn run_scenario(seed: u64, factory: ProtocolFactory<Tempo>) -> RunReport {
    let config = Config::full(3, 1);
    let report = run_with_factory::<Tempo, _>(
        config,
        Planet::equidistant(3, 50.0),
        opts(seed),
        mix(seed),
        factory,
    );
    assert!(!report.stalled, "run stalled: {}", report.summary());
    assert_eq!(
        report.completed + report.aborted,
        3 * 2 * 12,
        "every command must be accounted for: {}",
        report.summary()
    );
    report
}

fn filestore_factory(root: PathBuf, options: TempoOptions) -> ProtocolFactory<Tempo> {
    Box::new(move |id, shard, config, _incarnation| {
        // Re-opening the same directory replays the previous incarnation's snapshot
        // and WAL — this is the durable half the crash does not destroy.
        let store = tempo_store::FileStore::open(root.join(format!("p{id}")))
            .expect("open per-replica store");
        Tempo::with_store(id, shard, config, options, Box::new(store))
    })
}

/// Acceptance: a FileStore-backed crash + restart passes the checker under a
/// read/write workload, with the restarted replica executing (and answering reads for)
/// commands again — its store rebuilt from pre-crash accepts plus the state transfer.
#[test]
fn filestore_restart_serves_fresh_reads_and_passes_the_checker() {
    let seed = 31;
    let root = std::env::temp_dir().join(format!("tempo-durability-{}-{seed}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let options = TempoOptions {
        // Small enough that the run exercises snapshot + WAL-suffix recovery, not
        // just WAL replay.
        snapshot_every_appends: 64,
        ..TempoOptions::default()
    };
    let report = run_scenario(seed, filestore_factory(root.clone(), options));
    let history = report.history.as_ref().expect("history recorded");
    if let Err(violation) = history.check() {
        panic!(
            "durable restart must stay safe: {violation}\n{}",
            report.summary()
        );
    }
    assert_eq!(report.faults.crashes, 1);
    assert_eq!(report.faults.restarts, 1);
    assert!(
        report.metrics.wal_appends > 0,
        "the WAL must have been written: {}",
        report.summary()
    );
    assert!(
        report.metrics.snapshots_taken > 0,
        "snapshot pacing must have fired: {}",
        report.summary()
    );
    // The restarted incarnation executes commands again — including reads, which it
    // could not serve safely without the recovered + transferred state.
    let post_restart = history.executed_by_incarnation(0, 1);
    assert!(
        !post_restart.is_empty(),
        "the restarted replica must execute commands: {}",
        report.summary()
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// The same restart with the store kept in memory: a `MemStore` handle the factory
/// hands every incarnation of a process (the simulated disk). The restarted replica
/// recovers its own pre-crash commits from the store and back-fills what it slept
/// through with the state transfer, as with a `FileStore`, and the run stays safe.
#[test]
fn memstore_restart_preserved_by_the_factory_recovers_its_own_commits() {
    let seed = 31;
    // One shared MemStore handle per process, captured by the factory: the simulated
    // disk. (A fresh MemStore per incarnation would model a diskless replica.)
    let stores: Vec<tempo_store::MemStore> = (0..3).map(|_| tempo_store::MemStore::new()).collect();
    let factory: ProtocolFactory<Tempo> = Box::new(move |id, shard, config, _incarnation| {
        Tempo::with_store(
            id,
            shard,
            config,
            TempoOptions::default(),
            Box::new(stores[id as usize].clone()),
        )
    });
    let report = run_scenario(seed, factory);
    let history = report.history.as_ref().expect("history recorded");
    if let Err(violation) = history.check() {
        panic!(
            "MemStore-backed restart with state transfer must stay safe: {violation}\n{}",
            report.summary()
        );
    }
    assert!(report.metrics.wal_appends > 0);
    assert!(!history.executed_by_incarnation(0, 1).is_empty());
}
