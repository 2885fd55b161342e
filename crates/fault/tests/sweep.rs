//! The random-schedule sweep: hundreds of seeded random nemesis schedules for Tempo at
//! f = 1 and f = 2, every process backed by a store its restarts keep (a restarted
//! incarnation replays its snapshot and WAL, then rejoins). Every run must finish —
//! a stall fails it — and its history must pass the checker.
//!
//! Too long for the debug tier-1 run, so `#[ignore]`d; CI's chaos job runs it optimised:
//! `cargo test -p tempo-fault --release --test sweep -- --ignored`.

use std::ops::Range;
use tempo_core::{Tempo, TempoOptions};
use tempo_fault::{NemesisSchedule, RandomNemesisOpts};
use tempo_kernel::Config;
use tempo_load::ConflictMix;
use tempo_planet::Planet;
use tempo_sim::{run_with_factory, ProtocolFactory, SimOpts};
use tempo_store::MemStore;

/// Runs `seeds` random schedules on `config` and checks each.
fn sweep(config: Config, seeds: Range<u64>) {
    let (mut faults, mut restarts) = (0, 0);
    for seed in seeds.clone() {
        let schedule = NemesisSchedule::random(&RandomNemesisOpts {
            config,
            horizon_us: 800_000,
            incidents: 3,
            seed,
        });
        // One store per process, shared by its incarnations: the simulated disk.
        let stores: Vec<MemStore> = (0..config.n()).map(|_| MemStore::new()).collect();
        let options = TempoOptions {
            snapshot_every_appends: 64,
            ..TempoOptions::default()
        };
        let factory: ProtocolFactory<Tempo> = Box::new(move |id, shard, config, _| {
            let store = Box::new(stores[id as usize].clone());
            Tempo::with_store(id, shard, config, options, store)
        });
        let opts = SimOpts {
            clients_per_site: 2,
            commands_per_client: 5,
            seed,
            nemesis: Some(schedule),
            client_timeout_us: Some(15_000_000),
            record_history: true,
            ..SimOpts::default()
        };
        let mix = ConflictMix::new(0.1, 16, seed).with_hot_reads(0.5);
        let planet = Planet::equidistant(config.n(), 50.0);
        let report = run_with_factory::<Tempo, _>(config, planet, opts, mix, factory);
        assert!(!report.stalled, "seed {seed} stalled: {}", report.summary());
        let history = report.history.as_ref().expect("history recorded");
        if let Err(violation) = history.check() {
            panic!(
                "seed {seed}: history failed: {violation}\n{}",
                report.summary()
            );
        }
        faults += report.faults.events();
        restarts += report.faults.restarts;
    }
    // Keep the sweep honest: the schedules must have hit the runs, restarts included.
    assert!(faults >= seeds.count() as u64, "{faults} faults fired");
    assert!(restarts > 0, "no restart in the sweep");
}

#[test]
#[ignore = "200 simulated runs: run optimised, with --ignored"]
fn random_schedules_with_durable_restarts_f1() {
    sweep(Config::full(5, 1), 0..200);
}

#[test]
#[ignore = "200 simulated runs: run optimised, with --ignored"]
fn random_schedules_with_durable_restarts_f2() {
    sweep(Config::full(5, 2), 10_000..10_200);
}
