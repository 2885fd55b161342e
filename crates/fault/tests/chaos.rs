//! Chaos integration suite: nemesis schedules driven through `tempo-sim`, judged by the
//! history checker.
//!
//! These are the tests the ROADMAP's "as many scenarios as you can imagine" axis hangs
//! off: every preset of `tempo_fault::nemesis` runs against Tempo, plus a battery of
//! seeded random schedules (f = 1 and f = 2). Each run must terminate (clients abort
//! commands stranded by faults instead of hanging) and its recorded history must pass
//! per-key linearizability, replica agreement and at-most-once execution.
//!
//! Restart-bearing schedules run the read/write `ConflictMix` like everything else:
//! since the rejoin state transfer (`MStateRequest`/`MState`, DESIGN.md §6), a
//! restarted replica — durable store or not — gates execution until a peer's applied
//! image installs, so the reads it serves are fresh. The write-only restriction that
//! previously hid the amnesia gap is gone; `tests/durability.rs` keeps one
//! deliberately transfer-less run to show the checker catching that gap.

use tempo_core::Tempo;
use tempo_fault::{History, NemesisSchedule, RandomNemesisOpts};
use tempo_kernel::id::Rifl;
use tempo_kernel::Config;
use tempo_load::ConflictMix;
use tempo_planet::Planet;
use tempo_sim::{RunReport, SimOpts};

fn chaos_opts(schedule: NemesisSchedule, seed: u64) -> SimOpts {
    SimOpts {
        clients_per_site: 2,
        commands_per_client: 5,
        seed,
        nemesis: Some(schedule),
        client_timeout_us: Some(15_000_000),
        record_history: true,
        ..SimOpts::default()
    }
}

/// The read/write microbenchmark every history-checked scenario runs: hot-key
/// commands are `Get`s and `Add`s, so the checker has observations to falsify.
fn rw(conflict_rate: f64, read_ratio: f64, seed: u64) -> ConflictMix {
    ConflictMix::new(conflict_rate, 16, seed).with_hot_reads(read_ratio)
}

/// One chaos run of any protocol held to the common bar: it terminates, every command
/// is accounted for, and the recorded history passes the checker.
fn checked_run<P: tempo_kernel::protocol::Protocol>(
    config: Config,
    schedule: NemesisSchedule,
    seed: u64,
    mix: ConflictMix,
) -> RunReport {
    let report = tempo_sim::run::<P, _>(
        config,
        Planet::equidistant(config.n(), 50.0),
        chaos_opts(schedule, seed),
        mix,
    );
    assert!(
        !report.stalled,
        "{} seed {seed}: run stalled ({})",
        report.protocol,
        report.summary()
    );
    assert_eq!(
        report.completed + report.aborted,
        (config.n() * 2 * 5) as u64,
        "{} seed {seed}: every command must be accounted for",
        report.protocol
    );
    let history = report.history.as_ref().expect("history recorded");
    if let Err(violation) = history.check() {
        panic!(
            "{} seed {seed}: history check failed: {violation}\n{}",
            report.protocol,
            report.summary()
        );
    }
    report
}

fn history(report: &RunReport) -> &History {
    report.history.as_ref().expect("history recorded")
}

/// The acceptance scenario: a command is submitted at its coordinator, the coordinator
/// crashes after proposing but before committing, and the surviving quorum still
/// assigns it a timestamp and executes it via `MRec` (Algorithm 4).
#[test]
fn coordinator_crash_mid_commit_recovers_the_command() {
    let config = Config::full(5, 1);
    // Client 0 (site 0) submits its first command at t ≈ 0; process 0 coordinates it.
    // MPropose reaches the remote fast-quorum members at 50 ms; the crash at 60 ms
    // lands after the proposals were made but before any MProposeAck returns — the
    // commit is the coordinator's to send, and it never will.
    let schedule = NemesisSchedule::coordinator_crash(0, 60_000);
    let report = checked_run::<Tempo>(config, schedule, 7, rw(0.2, 0.4, 7));
    assert!(
        report.metrics.recoveries_started >= 1,
        "a survivor must take over: {}",
        report.summary()
    );
    assert!(
        report.metrics.recoveries_completed >= 1,
        "the recovery must complete: {}",
        report.summary()
    );
    // The orphaned first command of the crashed coordinator is executed by every
    // survivor (the crashed site's client 0 had submitted it as Rifl 0#1).
    let orphan = Rifl::new(0, 1);
    for survivor in 1..5u64 {
        assert!(
            history(&report).executed_by(survivor).contains(&orphan),
            "survivor {survivor} must execute the recovered command"
        );
    }
    assert_eq!(report.faults.crashes, 1);
}

/// Rolling crashes up to `f`: one site at a time crashes, loses its volatile state and
/// rejoins. Runs with reads since the rejoin state transfer: a restarted replica
/// back-fills its store before serving anything (see the module docs).
#[test]
fn rolling_crashes_preset_stays_safe() {
    for (f, seed) in [(1usize, 11u64), (2, 12)] {
        let config = Config::full(5, f);
        let schedule = NemesisSchedule::rolling_crashes(config, 200_000, 400_000);
        let report = checked_run::<Tempo>(config, schedule, seed, rw(0.2, 0.4, seed));
        assert_eq!(report.faults.crashes as usize, f);
        assert_eq!(report.faults.restarts as usize, f);
        assert!(report.completed > 0);
    }
}

/// Split brain and heal: the minority side's submissions stall during the partition and
/// finish — or abort — after the heal; nothing the clients observed may contradict
/// linearizability.
#[test]
fn split_brain_and_heal_stays_safe() {
    let config = Config::full(5, 1);
    let schedule = NemesisSchedule::split_brain_and_heal(config, 100_000, 1_500_000);
    let report = checked_run::<Tempo>(config, schedule, 13, rw(0.3, 0.5, 13));
    assert_eq!(report.faults.partitions, 1);
    assert_eq!(report.faults.heals, 1);
    assert!(
        report.faults.dropped_partition > 0,
        "the partition must actually cut traffic: {}",
        report.summary()
    );
    assert!(report.completed > 0);
}

/// Lossy-link soak: every link drops 10% of messages for two simulated seconds; the
/// retransmission/recovery machinery must keep committing, and the observed outputs
/// must stay linearizable.
#[test]
fn lossy_link_soak_stays_safe() {
    let config = Config::full(5, 1);
    let schedule = NemesisSchedule::lossy_link_soak(config, 0.1, 0, 2_000_000);
    let report = checked_run::<Tempo>(config, schedule, 17, rw(0.3, 0.5, 17));
    assert!(
        report.faults.dropped_link > 0,
        "the soak must actually drop messages: {}",
        report.summary()
    );
    assert!(report.completed > 0);
}

/// The satellite property test: seeded random nemesis schedules × `ConflictMix`
/// for Tempo with f = 1 and f = 2 — every run must pass the checker. Together the two
/// configurations cover at least 20 seeds (the CI acceptance bar).
#[test]
fn random_nemesis_schedules_pass_the_checker_f1() {
    let config = Config::full(5, 1);
    for seed in 0..14u64 {
        // The horizon must fit inside the run (~375 ms fault-free, longer once faults
        // hit): a first incident at ~25-31% of an 800 ms horizon always lands while
        // clients are still issuing, and the assert below keeps the test honest — a
        // schedule that never fires would make the whole battery vacuous.
        let schedule = NemesisSchedule::random(&RandomNemesisOpts {
            config,
            horizon_us: 800_000,
            incidents: 3,
            seed,
        });
        let report = checked_run::<Tempo>(config, schedule, seed, ConflictMix::new(0.1, 16, seed));
        assert!(report.completed > 0, "seed {seed}: nothing completed");
        assert!(
            report.faults.events() > 0,
            "seed {seed}: no fault ever fired — the run ended before the schedule"
        );
    }
}

#[test]
fn random_nemesis_schedules_pass_the_checker_f2() {
    let config = Config::full(5, 2);
    for seed in 100..108u64 {
        let schedule = NemesisSchedule::random(&RandomNemesisOpts {
            config,
            horizon_us: 800_000,
            incidents: 3,
            seed,
        });
        let report = checked_run::<Tempo>(config, schedule, seed, ConflictMix::new(0.1, 16, seed));
        assert!(report.completed > 0, "seed {seed}: nothing completed");
        assert!(
            report.faults.events() > 0,
            "seed {seed}: no fault ever fired — the run ended before the schedule"
        );
    }
}

/// A restarted replica rejoins and serves *new* commands again: after the roll, clients
/// of the restarted site keep completing commands watched at their colocated replica.
#[test]
fn restarted_replica_rejoins_and_serves_new_commands() {
    let config = Config::full(3, 1);
    let schedule = NemesisSchedule::new(vec![
        (200_000, tempo_fault::FaultEvent::Crash(0)),
        (600_000, tempo_fault::FaultEvent::Restart(0)),
    ]);
    let report = checked_run::<Tempo>(config, schedule, 23, rw(0.2, 0.4, 23));
    // Incarnation 1 specifically: the all-incarnations view would pass on pre-crash
    // executions alone and say nothing about the rejoin.
    let executed_by_new_incarnation: Vec<Rifl> = history(&report).executed_by_incarnation(0, 1);
    assert!(
        !executed_by_new_incarnation.is_empty(),
        "the restarted replica must execute commands again: {}",
        report.summary()
    );
    assert_eq!(report.faults.restarts, 1);
}

// ------------------------------------------------------------- gray failures (§9)

/// Duplicate + reorder soak, cross-protocol: every link duplicates and reorders frames
/// for the whole run. Idempotent handlers and FIFO-independence are *protocol*
/// obligations, so Tempo, Atlas and FPaxos must all ride it out with full completion —
/// degradation under this failure mode is extra messages, never lost safety.
#[test]
fn duplicate_and_reorder_soak_is_safe_across_protocols() {
    let config = Config::full(5, 1);
    fn soak<P: tempo_kernel::protocol::Protocol>(config: Config, seed: u64) {
        let schedule = NemesisSchedule::duplicate_reorder_soak(config, 0.4, 0, 3_000_000);
        let report = checked_run::<P>(config, schedule, seed, rw(0.3, 0.5, seed));
        assert!(
            report.faults.duplicated > 0 && report.faults.reordered > 0,
            "{} seed {seed}: the soak must actually fire: {:?}",
            report.protocol,
            report.faults
        );
        assert_eq!(
            report.aborted, 0,
            "{} seed {seed}: duplicates/reorders alone must not cost completions",
            report.protocol
        );
    }
    soak::<Tempo>(config, 41);
    soak::<tempo_atlas::Atlas>(config, 42);
    soak::<tempo_fpaxos::FPaxos>(config, 43);
}

/// A slow node is not a dead node: 100×-latency on one replica's sends while a lossy
/// link chews at everyone else. Tempo must keep committing (its quorums route around
/// the slow replica) and the run must stay safe — the degradation is tail latency,
/// measured by the load plane, not correctness.
#[test]
fn slow_node_with_lossy_links_stays_safe() {
    let config = Config::full(5, 1);
    for seed in [51u64, 52, 53] {
        let mut schedule = NemesisSchedule::slow_node(4, 500_000, 100_000, 2_000_000);
        schedule.merge(NemesisSchedule::lossy_link_soak(config, 0.05, 0, 2_000_000));
        let report = checked_run::<Tempo>(config, schedule, seed, rw(0.3, 0.5, seed));
        assert!(
            report.faults.slowed > 0,
            "seed {seed}: the slow node must have delayed frames: {:?}",
            report.faults
        );
        assert!(report.completed > 0, "seed {seed}");
    }
}

/// Rolling crashes with the failure detector's counters checked: survivors must
/// *notice* each crash from heartbeat silence before recovery can start, and the
/// restarted replica is welcomed back by arriving frames, not by decree. Five seeds,
/// checker on every history.
#[test]
fn detector_mode_rolling_crashes_pass_the_checker_on_five_seeds() {
    let config = Config::full(5, 1);
    for seed in 61..=65u64 {
        let schedule = NemesisSchedule::rolling_crashes(config, 300_000, 500_000);
        let report = tempo_sim::run::<Tempo, _>(
            config,
            Planet::equidistant(config.n(), 50.0),
            chaos_opts(schedule, seed),
            rw(0.2, 0.4, seed),
        );
        assert!(!report.stalled, "seed {seed}: {}", report.summary());
        let history = report.history.as_ref().expect("history recorded");
        if let Err(violation) = history.check() {
            panic!("seed {seed}: history failed: {violation}");
        }
        assert!(
            report.detector.suspicions > 0,
            "seed {seed}: the crash must have been detected: {:?}",
            report.detector
        );
        assert!(report.completed > 0, "seed {seed}");
    }
}
