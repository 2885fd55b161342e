//! End-to-end tests of the Atlas / EPaxos baselines on a synchronous local cluster, under
//! full and partial replication (Janus\*).

use tempo_atlas::{Atlas, EPaxos, Variant};
use tempo_kernel::config::Config;
use tempo_kernel::harness::LocalCluster;
use tempo_kernel::id::{Dot, ProcessId, Rifl};
use tempo_kernel::protocol::Protocol;
use tempo_kernel::rand::Rng;
use tempo_kernel::{Command, KVOp};

fn cmd(client: u64, seq: u64, key: u64) -> Command {
    Command::single(Rifl::new(client, seq), 0, key, KVOp::Put(seq), 0)
}

#[test]
fn single_command_executes_everywhere() {
    let config = Config::full(5, 1);
    let mut cluster = LocalCluster::<Atlas>::new(config);
    cluster.submit(0, cmd(1, 1, 7));
    for p in cluster.process_ids() {
        let executed = cluster.executed(p);
        assert_eq!(executed.len(), 1, "not executed at {p}");
        assert_eq!(executed[0].rifl, Rifl::new(1, 1));
    }
}

#[test]
fn atlas_f1_always_takes_fast_path() {
    let config = Config::full(5, 1);
    let mut cluster = LocalCluster::<Atlas>::new(config);
    for p in cluster.process_ids() {
        cluster.submit_no_deliver(p, cmd(p, 1, 0));
    }
    cluster.run_to_quiescence();
    let fast: u64 = cluster
        .process_ids()
        .iter()
        .map(|p| cluster.process(*p).metrics().fast_paths)
        .sum();
    let slow: u64 = cluster
        .process_ids()
        .iter()
        .map(|p| cluster.process(*p).metrics().slow_paths)
        .sum();
    assert_eq!(
        fast, 5,
        "Atlas f = 1 always processes commands via the fast path"
    );
    assert_eq!(slow, 0);
}

#[test]
fn epaxos_concurrent_conflicts_take_slow_path() {
    // With concurrent conflicting submissions, EPaxos quorum members report different
    // dependency sets and the protocol falls back to the slow path.
    let config = Config::full(5, 2);
    let mut cluster = LocalCluster::<EPaxos>::new(config);
    for p in cluster.process_ids() {
        cluster.submit_no_deliver(p, cmd(p, 1, 0));
    }
    cluster.run_to_quiescence();
    let slow: u64 = cluster
        .process_ids()
        .iter()
        .map(|p| cluster.process(*p).metrics().slow_paths)
        .sum();
    assert!(slow > 0, "expected at least one slow path under contention");
    // Every command still commits and executes everywhere.
    for p in cluster.process_ids() {
        assert_eq!(cluster.executed(p).len(), 5);
    }
}

#[test]
fn quorum_sizes_match_the_paper() {
    let config = Config::full(5, 2);
    let atlas = Atlas::with_variant(0, 0, config, Variant::Atlas);
    let epaxos = Atlas::with_variant(0, 0, config, Variant::EPaxos);
    assert_eq!(atlas.fast_quorum_size(), 4); // ⌊5/2⌋ + 2
    assert_eq!(epaxos.fast_quorum_size(), 3); // ⌊3·5/4⌋
    assert_eq!(atlas.variant(), Variant::Atlas);
    assert_eq!(epaxos.variant(), Variant::EPaxos);
}

#[test]
fn conflicting_commands_execute_in_the_same_order_everywhere() {
    // Unlike Tempo, dependency-based protocols only order *conflicting* commands, so the
    // check is pairwise: any two commands on the same key must execute in the same
    // relative order at every replica (the Ordering property of §2).
    for seed in 0..5u64 {
        let mut rng = Rng::new(seed);
        let config = Config::full(5, 1);
        let mut cluster = LocalCluster::<Atlas>::new(config);
        let total = 30u64;
        let mut submitted = 0u64;
        let mut key_of = std::collections::BTreeMap::new();
        while submitted < total || cluster.in_flight() > 0 {
            let submit_now = submitted < total && (cluster.in_flight() == 0 || rng.gen_bool(0.3));
            if submit_now {
                let process = rng.gen_range(5);
                let key = rng.gen_range(2);
                submitted += 1;
                key_of.insert(Rifl::new(process, submitted), key);
                cluster.submit_no_deliver(process, cmd(process, submitted, key));
            } else {
                cluster.step();
            }
        }
        cluster.tick_all(5_000);
        let orders: Vec<Vec<Rifl>> = cluster
            .process_ids()
            .into_iter()
            .map(|p| cluster.executed(p).into_iter().map(|e| e.rifl).collect())
            .collect();
        for order in &orders {
            assert_eq!(order.len() as u64, total, "seed {seed}: missing executions");
        }
        let position = |order: &[Rifl], r: Rifl| order.iter().position(|x| *x == r).unwrap();
        let rifls: Vec<Rifl> = key_of.keys().copied().collect();
        for (i, a) in rifls.iter().enumerate() {
            for b in rifls.iter().skip(i + 1) {
                if key_of[a] != key_of[b] {
                    continue;
                }
                let reference = position(&orders[0], *a) < position(&orders[0], *b);
                for (p, order) in orders.iter().enumerate().skip(1) {
                    let got = position(order, *a) < position(order, *b);
                    assert_eq!(
                        got, reference,
                        "seed {seed}: conflicting {a} and {b} ordered differently at process {p}"
                    );
                }
            }
        }
    }
}

#[test]
fn dependencies_agree_across_replicas() {
    let config = Config::full(3, 1);
    let mut cluster = LocalCluster::<Atlas>::new(config);
    for p in cluster.process_ids() {
        cluster.submit_no_deliver(p, cmd(p, 1, 0));
    }
    cluster.run_to_quiescence();
    for source in cluster.process_ids() {
        let dot = Dot::new(source, 1);
        let reference = cluster.process(0).committed_deps(dot);
        assert!(reference.is_some(), "command {dot} not committed at 0");
        for p in cluster.process_ids() {
            assert_eq!(
                cluster.process(p).committed_deps(dot),
                reference,
                "dependency disagreement for {dot} at {p}"
            );
        }
    }
}

#[test]
fn non_conflicting_commands_have_no_dependencies() {
    let config = Config::full(3, 1);
    let mut cluster = LocalCluster::<Atlas>::new(config);
    cluster.submit(0, cmd(1, 1, 10));
    cluster.submit(1, cmd(2, 1, 20));
    assert_eq!(
        cluster.process(0).committed_deps(Dot::new(1, 1)),
        Some(Default::default())
    );
    assert_eq!(
        cluster.process(2).committed_deps(Dot::new(1, 1)),
        Some(Default::default())
    );
}

#[test]
fn read_only_commands_skip_read_dependencies() {
    let config = Config::full(3, 1);
    let mut cluster = LocalCluster::<Atlas>::new(config);
    let read = |client: u64, seq: u64| Command::single(Rifl::new(client, seq), 0, 0, KVOp::Get, 0);
    cluster.submit(0, read(1, 1));
    cluster.submit(1, read(2, 1));
    // The second read does not depend on the first.
    assert_eq!(
        cluster.process(0).committed_deps(Dot::new(1, 1)),
        Some(Default::default())
    );
    // A write picks up both reads.
    cluster.submit(2, cmd(3, 1, 0));
    let deps = cluster.process(0).committed_deps(Dot::new(2, 1)).unwrap();
    assert_eq!(deps.len(), 2);
}

#[test]
fn contention_grows_dependency_chains() {
    // The mechanism behind Figure 6/7: under contention, strongly connected components
    // (or chains) grow, delaying execution relative to commit.
    let config = Config::full(5, 1);
    let mut cluster = LocalCluster::<Atlas>::new(config);
    let rounds = 20u64;
    for round in 0..rounds {
        for p in cluster.process_ids() {
            cluster.submit_no_deliver(p, cmd(p, round + 1, 0));
        }
        // Deliver only a few messages per round so commands stay concurrent.
        for _ in 0..8 {
            cluster.step();
        }
    }
    cluster.run_to_quiescence();
    cluster.tick_all(5_000);
    let executed = cluster.executed(0);
    assert_eq!(executed.len() as u64, rounds * 5);
    let max_scc = cluster
        .process(0)
        .scc_sizes()
        .iter()
        .copied()
        .max()
        .unwrap();
    assert!(
        max_scc > 1,
        "expected contended commands to form multi-command SCCs, got max {max_scc}"
    );
}

#[test]
fn replicas_converge_to_the_same_store_digest() {
    let config = Config::full(3, 1);
    let mut cluster = LocalCluster::<Atlas>::new(config);
    for seq in 1..=40u64 {
        let p = (seq % 3) as ProcessId;
        cluster.submit(
            p,
            Command::single(Rifl::new(p, seq), 0, seq % 4, KVOp::Add(seq), 0),
        );
    }
    cluster.tick_all(5_000);
    let executed_counts: Vec<usize> = cluster
        .process_ids()
        .into_iter()
        .map(|p| cluster.executed(p).len())
        .collect();
    assert_eq!(executed_counts, vec![40, 40, 40]);
}

/// A command writing key `k0` of shard 0 and key `k1` of shard 1.
fn two_shard_cmd(client: u64, seq: u64, k0: u64, k1: u64) -> Command {
    Command::new(
        Rifl::new(client, seq),
        vec![(0, k0, KVOp::Add(1)), (1, k1, KVOp::Add(1))],
        0,
    )
}

#[test]
fn single_shard_command_stays_in_its_shard() {
    let config = Config::new(3, 1, 2);
    let mut cluster = LocalCluster::<Atlas>::new(config);
    cluster.submit(0, Command::single(Rifl::new(1, 1), 0, 5, KVOp::Put(1), 0));
    cluster.tick_all(5_000);
    assert_eq!(cluster.executed(0).len(), 1);
    assert_eq!(cluster.executed(1).len(), 1);
    // Shard-1 processes never see the command (it only accesses shard 0).
    assert_eq!(cluster.process(3).metrics().committed, 0);
}

#[test]
fn two_shard_command_executes_at_both_shards() {
    let config = Config::new(3, 1, 2);
    let mut cluster = LocalCluster::<Atlas>::new(config);
    cluster.submit(0, two_shard_cmd(1, 1, 10, 20));
    cluster.tick_all(5_000);
    // Executed at the shard-0 and shard-1 replicas of site 0.
    assert_eq!(cluster.executed(0).len(), 1);
    assert_eq!(cluster.executed(3).len(), 1);
}

#[test]
fn dependencies_union_across_shards() {
    let config = Config::new(3, 1, 2);
    let mut cluster = LocalCluster::<Atlas>::new(config);
    // First command touches keys (0:7) and (1:9).
    cluster.submit(0, two_shard_cmd(1, 1, 7, 9));
    cluster.tick_all(5_000);
    // Second command conflicts with the first on shard 1 only.
    cluster.submit(1, two_shard_cmd(2, 1, 8, 9));
    cluster.tick_all(5_000);
    let deps = cluster
        .process(0)
        .committed_deps(Dot::new(1, 1))
        .expect("committed");
    assert!(
        deps.contains(&Dot::new(0, 1)),
        "cross-shard conflict must appear in the union: {deps:?}"
    );
    assert_eq!(cluster.executed(0).len(), 2);
}

#[test]
fn conflicting_two_shard_commands_execute_in_the_same_order() {
    let config = Config::new(3, 1, 2);
    let mut cluster = LocalCluster::<Atlas>::new(config);
    for site in 0..3u64 {
        cluster.submit_no_deliver(site, two_shard_cmd(site, 1, 0, 0));
    }
    cluster.run_to_quiescence();
    for _ in 0..5 {
        cluster.tick_all(5_000);
    }
    // Shard-0 replicas all execute the three conflicting commands in the same order.
    let mut order =
        |p: ProcessId| -> Vec<Rifl> { cluster.executed(p).iter().map(|e| e.rifl).collect() };
    let reference = order(0);
    assert_eq!(reference.len(), 3);
    for p in [1, 2] {
        assert_eq!(
            order(p),
            reference,
            "divergent order at shard-0 replica {p}"
        );
    }
    // And so do shard-1 replicas, in the same relative order.
    assert_eq!(
        order(3),
        reference,
        "shards disagree on conflicting command order"
    );
}

#[test]
fn two_shard_writes_produce_more_dependencies_than_reads() {
    // Two coordinators, so dependency compression can tell the workloads apart: a read
    // chains only to the *same* coordinator's previous read, while a write depends on
    // the latest read/write from *every* coordinator.
    let config = Config::new(3, 1, 2);
    let run = |write: bool| {
        let mut cluster = LocalCluster::<Atlas>::new(config);
        for seq in 1..=10u64 {
            let op = if write { KVOp::Add(1) } else { KVOp::Get };
            let cmd = Command::new(Rifl::new(0, seq), vec![(0, 0, op), (1, 0, op)], 0);
            cluster.submit((seq - 1) % 2, cmd);
        }
        cluster.tick_all(5_000);
        cluster
            .process(0)
            .committed_deps(Dot::new(1, 5))
            .unwrap()
            .len()
    };
    let reads = run(false);
    let writes = run(true);
    assert!(
        writes > reads,
        "writes ({writes} deps) should accumulate more dependencies than reads ({reads})"
    );
}
