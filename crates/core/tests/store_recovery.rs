//! Durability at the protocol level: a Tempo instance rebuilt around the store of its
//! previous life recovers its clock floor, consensus state, commits and applied
//! key-value image — and one rebuilt around a fresh store provably does not (the
//! amnesia baseline the `tempo-store` crate exists to eliminate).

use std::collections::BTreeMap;
use tempo_core::{Message, Tempo, TempoOptions};
use tempo_kernel::command::{Command, KVOp};
use tempo_kernel::config::Config;
use tempo_kernel::harness::LocalCluster;
use tempo_kernel::id::{Dot, ProcessId, Rifl};
use tempo_kernel::protocol::{Executor, Protocol, View};
use tempo_store::{MemStore, Store, WalRecord};

fn stores(config: Config) -> BTreeMap<ProcessId, MemStore> {
    (0..config.n() as u64)
        .map(|p| (p, MemStore::new()))
        .collect()
}

fn durable_cluster(
    config: Config,
    stores: &BTreeMap<ProcessId, MemStore>,
    options: TempoOptions,
) -> LocalCluster<Tempo> {
    let handles = stores.clone();
    LocalCluster::from_protocols(
        config,
        |process| View::trivial(config, process),
        move |id, shard| {
            Tempo::with_store(id, shard, config, options, Box::new(handles[&id].clone()))
        },
    )
}

fn rebuild(process: ProcessId, config: Config, store: MemStore) -> Tempo {
    Tempo::with_store(process, 0, config, TempoOptions::default(), Box::new(store))
}

#[test]
fn commits_clock_and_kv_survive_a_rebuild_from_the_store() {
    let config = Config::full(3, 1);
    let stores = stores(config);
    let mut cluster = durable_cluster(config, &stores, TempoOptions::default());
    for seq in 1..=5u64 {
        cluster.submit(
            0,
            Command::single(Rifl::new(1, seq), 0, seq, KVOp::Put(seq * 10), 0),
        );
    }
    // The commit is visible right after quiescence (before GC can collect its info).
    let dot = Dot::new(0, 1);
    let committed_ts = cluster
        .process(0)
        .committed_timestamp(dot)
        .expect("dot committed");
    // Promise broadcasts drive stability; commands execute.
    cluster.tick_all(5_000);
    cluster.tick_all(5_000);
    let live = cluster.process(0);
    assert_eq!(live.executor().executed(), 5, "all commands executed");
    let clock_before = live.clock_value();
    let digest_before = live.executor().store().digest();
    assert!(clock_before > 0);

    // "Crash": drop the instance; rebuild a new one around the same (durable) store.
    let recovered = rebuild(0, config, stores[&0].clone());
    assert!(
        recovered.clock_value() >= clock_before,
        "recovered clock floor {} must cover the pre-crash clock {}",
        recovered.clock_value(),
        clock_before
    );
    assert_eq!(
        recovered.committed_timestamp(dot),
        Some(committed_ts),
        "the pre-crash commit must be replayed"
    );
    assert_eq!(
        recovered.executor().store().digest(),
        digest_before,
        "the applied image must be reproduced exactly"
    );
    assert_eq!(recovered.executor().store().get(1), Some(10));

    // Recovery folds the replayed WAL suffix into a fresh snapshot, so a
    // crash-looping replica's log (and replay time) stays bounded per crash window.
    assert!(
        stores[&0].has_snapshot(),
        "recovery must snapshot the replayed suffix"
    );

    // Amnesia baseline: the same rebuild from a *fresh* store misses everything.
    let amnesiac = rebuild(0, config, MemStore::new());
    assert_eq!(amnesiac.clock_value(), 0, "no clock floor without a store");
    assert_eq!(
        amnesiac.committed_timestamp(dot),
        None,
        "a diskless restart forgets its commits"
    );
    assert!(amnesiac.executor().store().is_empty());
}

#[test]
fn accepted_consensus_state_survives_and_rejects_stale_ballots() {
    let config = Config::full(3, 1);
    let stores = stores(config);
    let mut cluster = durable_cluster(config, &stores, TempoOptions::default());
    // Process 1 (rank 2) runs a consensus round for a dot at ballot 2; process 0
    // accepts. (Injected as one driver step: the handler appends to the WAL and the
    // step's persist hook syncs it before the ack is queued.)
    let dot = Dot::new(1, 1);
    cluster.deliver(
        1,
        0,
        Message::MConsensus {
            dot,
            ts: 7,
            ballot: 2,
        },
    );
    assert_eq!(cluster.process(0).consensus_state(dot), Some((7, 2, 2)));

    // Rebuild process 0 from its store: the accept must be intact...
    let mut recovered = rebuild(0, config, stores[&0].clone());
    assert_eq!(
        recovered.consensus_state(dot),
        Some((7, 2, 2)),
        "pre-crash accept must be replayed from the WAL"
    );
    // ...and a recovery attempt at a *lower* ballot must be rejected, exactly as the
    // pre-crash instance would have done. An amnesiac would happily join ballot 1.
    let actions = recovered.handle(2, Message::MRec { dot, ballot: 1 }, 0);
    let nacked = actions.iter().any(|a| {
        matches!(
            a,
            tempo_kernel::protocol::Action::Send {
                msg: Message::MRecNAck { ballot: 2, .. },
                ..
            }
        )
    });
    assert!(
        nacked,
        "recovered acceptor must NAck a stale ballot: {actions:?}"
    );

    let amnesiac = rebuild(0, config, MemStore::new());
    assert_eq!(amnesiac.consensus_state(dot), None);
}

#[test]
fn snapshots_truncate_the_wal_and_recovery_uses_them() {
    let config = Config::full(3, 1);
    let stores = stores(config);
    let options = TempoOptions {
        snapshot_every_appends: 4,
        ..TempoOptions::default()
    };
    let mut cluster = durable_cluster(config, &stores, options);
    for seq in 1..=20u64 {
        cluster.submit(
            0,
            Command::single(Rifl::new(1, seq), 0, seq, KVOp::Put(seq), 0),
        );
        cluster.tick_all(5_000);
    }
    cluster.tick_all(5_000);
    let metrics = stores[&0].metrics();
    assert!(
        metrics.snapshots_taken >= 1,
        "snapshot pacing must have fired: {metrics:?}"
    );
    assert!(metrics.wal_appends > 0);
    let digest_before = cluster.process(0).executor().store().digest();
    let executed_before = cluster.process(0).executor().executed();

    let recovered = rebuild(0, config, stores[&0].clone());
    assert_eq!(recovered.executor().store().digest(), digest_before);
    assert_eq!(recovered.executor().executed(), executed_before);
    // The applied image includes the snapshot-covered prefix *and* the WAL suffix
    // (commands committed after the cut), replayed in execution order.
    assert_eq!(recovered.executor().store().get(20), Some(20));
    assert_eq!(recovered.executor().store().get(1), Some(1));
}

/// The durable dot floor (PR 5): a clean restart from the store must never re-issue a
/// dot of its previous life — by WAL replay alone, without the incarnation bands
/// (`incarnation << 48`) that diskless rejoins rely on (`Protocol::rejoin` is
/// deliberately *not* called here, modelling a clean stop + start).
#[test]
fn dot_floor_makes_clean_restart_dots_unique_without_incarnation_bands() {
    let config = Config::full(3, 1);
    let stores = stores(config);
    // Enough submissions to cross several floor chunks (64 sequences each), and
    // snapshots off so uniqueness rests on the WAL records alone (not the snapshot's
    // next_dot_seq).
    let used = 200u64;
    let chunk = 64;
    let options = TempoOptions {
        snapshot_every_appends: u64::MAX,
        ..TempoOptions::default()
    };
    let mut cluster = durable_cluster(config, &stores, options);
    for seq in 1..=used {
        cluster.submit(
            0,
            Command::single(Rifl::new(1, seq), 0, seq, KVOp::Put(seq), 0),
        );
    }
    cluster.tick_all(5_000);
    let (_, wal) = stores[&0].clone().load();
    let floors = wal
        .iter()
        .filter(|r| matches!(r, WalRecord::DotFloor(_)))
        .count();
    assert!(floors >= 3, "only {floors} dot floors logged");

    // Clean restart: rebuild from the store, no rejoin, then submit again. Every new
    // dot must land strictly above every pre-restart dot.
    let mut recovered = Tempo::with_store(0, 0, config, options, Box::new(stores[&0].clone()));
    let cmd = Command::single(Rifl::new(1, used + 1), 0, 8, KVOp::Put(8), 0);
    let actions = recovered.submit(cmd, 0);
    let new_dot = actions
        .iter()
        .find_map(|a| match a {
            tempo_kernel::protocol::Action::Send {
                msg: Message::MSubmit { dot, .. },
                ..
            } => Some(*dot),
            _ => None,
        })
        .expect("submission names its dot");
    assert_eq!(new_dot.source, 0);
    assert!(
        new_dot.sequence > used,
        "restarted generator re-issued sequence {} ({used} dots were used pre-crash)",
        new_dot.sequence
    );
    // The floor is chunked: at most one chunk of sequences is skipped.
    assert!(
        new_dot.sequence <= used + chunk + 1,
        "floor must over-approximate by at most one chunk, got {}",
        new_dot.sequence
    );

    // The amnesia baseline: without the store (and without rejoin's bands) the
    // generator restarts at 1 — which is exactly the reuse the floor prevents.
    let mut amnesiac = Tempo::with_options(0, 0, config, options);
    let actions = amnesiac.submit(Command::single(Rifl::new(1, 9), 0, 9, KVOp::Put(9), 0), 0);
    let reused = actions
        .iter()
        .find_map(|a| match a {
            tempo_kernel::protocol::Action::Send {
                msg: Message::MSubmit { dot, .. },
                ..
            } => Some(*dot),
            _ => None,
        })
        .expect("submission names its dot");
    assert_eq!(reused.sequence, 1, "the diskless baseline reuses dots");
}

#[test]
fn recovered_instance_does_not_claim_promise_prefixes() {
    let config = Config::full(3, 1);
    let stores = stores(config);
    let mut cluster = durable_cluster(config, &stores, TempoOptions::default());
    for seq in 1..=3u64 {
        cluster.submit(
            0,
            Command::single(Rifl::new(1, seq), 0, seq, KVOp::Put(seq), 0),
        );
    }
    cluster.tick_all(5_000);
    let mut recovered = rebuild(0, config, stores[&0].clone());
    // A store-restored instance cannot enumerate its previous life's in-flight
    // attached proposals, so it must refuse promise-repair requests (the requester's
    // repair comes from other peers) — same rule as a restarted incarnation.
    let actions = recovered.handle(1, Message::MPromiseRequest, 0);
    assert!(
        actions.is_empty(),
        "a recovered instance must not answer MPromiseRequest: {actions:?}"
    );
}
