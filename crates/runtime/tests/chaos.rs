//! Runtime chaos (ISSUE 5 acceptance): seeded nemesis schedules against the
//! TCP-backed, `FileStore`-backed cluster under *real* thread interleaving, with
//! every recorded history passing the `tempo-fault` checker.
//!
//! These are the networked twins of `crates/fault/tests/chaos.rs` (which runs the
//! same presets in simulation): coordinator-crash-mid-commit with a later restart
//! (kill thread → reopen store → rejoin + state transfer over real sockets), and
//! split-brain-and-heal enforced by `LinkTransport` on the delivery path. Schedule
//! times are wall-clock here, so the protocol timeouts are tightened to keep each
//! seed's run to a few seconds; the checker's verdict — linearizable per key,
//! replicas agreeing on conflict order, at-most-once per incarnation — is the same
//! bar the simulator runs must clear.

use std::path::PathBuf;
use std::time::Duration;
use tempo_core::{Tempo, TempoOptions};
use tempo_fault::{FaultEvent, NemesisSchedule, RandomNemesisOpts};
use tempo_kernel::config::Config;
use tempo_load::ConflictMix;
use tempo_runtime::{run_workload, NetCluster, NetOpts, RuntimeFactory, RuntimeReport};

const CLIENTS_PER_SITE: usize = 2;
/// The least each client submits; `run_workload` keeps clients going until the last
/// scheduled fault has fired, however fast the build.
const COMMANDS_PER_CLIENT: usize = 120;

/// Protocol timeouts tightened for wall-clock chaos runs: recovery fires within
/// hundreds of milliseconds instead of seconds, so a crashed coordinator's commands
/// finish quickly and each seed stays CI-sized.
fn chaos_options() -> TempoOptions {
    TempoOptions {
        commit_request_timeout_us: 200_000,
        snapshot_every_appends: 64,
    }
}

/// Every incarnation of every replica reopens its own `FileStore` directory — the
/// disk survives the crash, volatile state does not.
fn filestore_factory(root: PathBuf) -> RuntimeFactory<Tempo> {
    Box::new(move |id, shard, config, _incarnation| {
        let store = tempo_store::FileStore::open(root.join(format!("p{id}")))
            .expect("open per-replica store");
        Tempo::with_store(id, shard, config, chaos_options(), Box::new(store))
    })
}

fn run_chaos(seed: u64, name: &str, schedule: NemesisSchedule) -> RuntimeReport {
    let root = std::env::temp_dir().join(format!(
        "tempo-runtime-chaos-{name}-{}-{seed}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&root);
    let config = Config::full(3, 1);
    let cluster = NetCluster::start(
        config,
        NetOpts {
            nemesis: Some(schedule),
            seed,
            record_history: true,
            // Short enough that a command stranded by a crash (its watched replica
            // died mid-flight) does not dominate the run; recovery finishes the
            // command server-side regardless.
            client_timeout: Duration::from_secs(2),
            ..NetOpts::default()
        },
        filestore_factory(root.clone()),
    )
    .expect("cluster starts");
    let tally = run_workload(&cluster, CLIENTS_PER_SITE, COMMANDS_PER_CLIENT, |client| {
        ConflictMix::new(0.6, 16, 100 * seed + client).with_hot_reads(0.5)
    });
    let report = cluster.shutdown();
    let _ = std::fs::remove_dir_all(&root);
    assert!(tally.submitted >= (3 * CLIENTS_PER_SITE * COMMANDS_PER_CLIENT) as u64);
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
    if let Err(violation) = history.check() {
        panic!("{name} seed {seed}: history checker failed: {violation}");
    }
    report
}

/// Coordinator crash mid-commit, then a restart: the killed replica's thread dies
/// with its sockets, the surviving quorum finishes its in-flight commands through
/// recovery, and the restarted incarnation reopens its store, rejoins and serves
/// again — on 5 seeds.
#[test]
fn coordinator_crash_and_restart_passes_the_checker_on_five_seeds() {
    for seed in 1..=5u64 {
        let schedule = NemesisSchedule::new(vec![
            (60_000, FaultEvent::Crash(0)),
            (500_000, FaultEvent::Restart(0)),
        ]);
        let report = run_chaos(seed, "crash-restart", schedule);
        assert_eq!(report.faults.crashes, 1, "seed {seed}");
        assert_eq!(report.faults.restarts, 1, "seed {seed}");
        let total = report.total_metrics();
        assert!(
            total.wal_appends > 0 && total.snapshots_taken > 0,
            "seed {seed}: the FileStores must have been exercised: {total:?}"
        );
        // 3 boot incarnations + 1 restarted incarnation reported.
        assert_eq!(report.metrics.len(), 4, "seed {seed}");
    }
}

/// Coordinator crash with *no* restart: f = 1 is spent for good; the survivors must
/// still finish the run (recovery assigns timestamps to the orphaned commands).
///
/// A replica notices its crash between two bursts, and a burst handles every ack
/// that has arrived, so a crash on a quiet network tends to find the coordinator
/// with nothing proposed and uncommitted. The schedule therefore slows the links
/// *into* the coordinator shortly before it dies: the acks of whatever it proposes
/// from then on are still on their way when it does, which is the "proposed but not
/// committed" state the preset is named for.
#[test]
fn coordinator_crash_without_restart_still_completes() {
    let slow_acks = |from| FaultEvent::DelaySpike {
        from,
        to: 0,
        extra_us: 200_000,
    };
    let schedule = NemesisSchedule::new(vec![
        (30_000, slow_acks(1)),
        (30_000, slow_acks(2)),
        (60_000, FaultEvent::Crash(0)),
    ]);
    let report = run_chaos(11, "crash-only", schedule);
    assert_eq!(report.faults.crashes, 1);
    let total = report.total_metrics();
    assert!(
        total.recoveries_started > 0,
        "orphaned commands must go through recovery: {total:?}"
    );
}

/// The simulator's seeded random-nemesis battery, ported to the networked stack: a
/// generated schedule of non-overlapping incidents (crash/restart, partition-and-
/// heal, lossy window, delay spike) per seed, injected under real thread
/// interleaving against TCP + `FileStore` replicas, every history through the
/// checker. The schedule generator guarantees liveness returns before the horizon,
/// so the workload must always finish.
#[test]
fn random_nemesis_battery_passes_the_checker_on_five_seeds() {
    for seed in 31..=35u64 {
        let schedule = NemesisSchedule::random(&RandomNemesisOpts {
            config: Config::full(3, 1),
            horizon_us: 800_000,
            incidents: 3,
            seed,
        });
        let scheduled = schedule.events().len() as u64;
        assert!(scheduled > 0, "seed {seed}: schedule must not be empty");
        let report = run_chaos(seed, "random", schedule);
        assert!(
            report.faults.events() > 0,
            "seed {seed}: the scheduled incidents must actually have been injected: {:?}",
            report.faults
        );
    }
}

/// Split brain and heal: the minority site is cut off (frames dropped at delivery by
/// the chaos transport), the majority keeps committing, and after the heal the
/// minority catches back up — on 5 seeds.
#[test]
fn split_brain_and_heal_passes_the_checker_on_five_seeds() {
    let config = Config::full(3, 1);
    for seed in 21..=25u64 {
        let schedule = NemesisSchedule::split_brain_and_heal(config, 60_000, 500_000);
        let report = run_chaos(seed, "split-brain", schedule);
        assert_eq!(report.faults.partitions, 1, "seed {seed}");
        assert_eq!(report.faults.heals, 1, "seed {seed}");
        assert!(
            report.faults.dropped_partition > 0,
            "seed {seed}: the partition must actually have cut frames: {:?}",
            report.faults
        );
    }
}
