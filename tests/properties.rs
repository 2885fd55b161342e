//! Randomized property tests on the core data structures and protocol invariants.
//!
//! The workspace is dependency free, so instead of an external property-testing crate
//! these tests draw their cases from the deterministic PRNG in `tempo_kernel::rand`:
//! each property is checked over many seeded random instances, and a failure message
//! always carries the seed so the case can be replayed.

use std::collections::{BTreeMap, BTreeSet};
use tempo_atlas::DependencyGraph;
use tempo_core::{PromiseRange, PromiseTracker, Tempo};
use tempo_kernel::harness::LocalCluster;
use tempo_kernel::id::{Dot, ProcessId, Rifl};
use tempo_kernel::kvstore::KVStore;
use tempo_kernel::rand::{Rng, Zipf};
use tempo_kernel::{Command, Config, KVOp};

/// Reference (naive) implementation of Theorem 1: the largest `s` such that some majority
/// of processes has every promise `1..=s`.
fn naive_stable(n: usize, promises: &[(u64, u64)]) -> u64 {
    let mut by_process: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
    for (p, ts) in promises {
        by_process.entry(*p).or_default().insert(*ts);
    }
    let mut prefixes: Vec<u64> = (0..n as u64)
        .map(|p| {
            let set = by_process.get(&p).cloned().unwrap_or_default();
            let mut prefix = 0;
            while set.contains(&(prefix + 1)) {
                prefix += 1;
            }
            prefix
        })
        .collect();
    prefixes.sort_unstable();
    prefixes[n / 2]
}

fn random_promises(rng: &mut Rng, max_len: u64) -> Vec<(u64, u64)> {
    let len = rng.gen_range(max_len);
    (0..len)
        .map(|_| (rng.gen_range(5), 1 + rng.gen_range(29)))
        .collect()
}

#[test]
fn stability_matches_naive_reference() {
    for seed in 0..200u64 {
        let mut rng = Rng::new(seed);
        let promises = random_promises(&mut rng, 120);
        let processes: Vec<u64> = (0..5).collect();
        let mut tracker = PromiseTracker::new(&processes, 2);
        for (p, ts) in &promises {
            tracker.add_single(*p, *ts);
        }
        assert_eq!(
            tracker.stable_timestamp(),
            naive_stable(5, &promises),
            "seed {seed}: tracker disagrees with the naive reference"
        );
    }
}

#[test]
fn incremental_stability_matches_oracle_after_every_update() {
    // `stable_timestamp()` is now a cached value maintained incrementally as promises
    // arrive. Query it after *every* update of a random promise-range stream and compare
    // against the naive collect-and-sort oracle of Theorem 1 (the seed implementation).
    for seed in 0..150u64 {
        let mut rng = Rng::new(seed);
        let r = 3 + 2 * rng.gen_range(3) as usize; // r ∈ {3, 5, 7}
        let processes: Vec<u64> = (0..r as u64).collect();
        let mut tracker = PromiseTracker::new(&processes, r / 2);
        let mut oracle: Vec<BTreeSet<u64>> = vec![BTreeSet::new(); r];
        let updates = 1 + rng.gen_range(150);
        for step in 0..updates {
            let p = rng.gen_range(r as u64);
            let start = 1 + rng.gen_range(60);
            let end = start + rng.gen_range(8);
            tracker.add(p, PromiseRange::new(start, end));
            oracle[p as usize].extend(start..=end);
            let mut prefixes: Vec<u64> = oracle
                .iter()
                .map(|set| {
                    let mut prefix = 0;
                    while set.contains(&(prefix + 1)) {
                        prefix += 1;
                    }
                    prefix
                })
                .collect();
            prefixes.sort_unstable();
            assert_eq!(
                tracker.stable_timestamp(),
                prefixes[r / 2],
                "seed {seed}, step {step}, r {r}: incremental tracker diverged from oracle"
            );
        }
    }
}

#[test]
fn stability_is_monotone_under_new_promises() {
    for seed in 0..200u64 {
        let mut rng = Rng::new(seed);
        let first = random_promises(&mut rng, 60);
        let second = random_promises(&mut rng, 60);
        let processes: Vec<u64> = (0..5).collect();
        let mut tracker = PromiseTracker::new(&processes, 2);
        for (p, ts) in &first {
            tracker.add_single(*p, *ts);
        }
        let before = tracker.stable_timestamp();
        for (p, ts) in &second {
            tracker.add_single(*p, *ts);
        }
        assert!(
            tracker.stable_timestamp() >= before,
            "seed {seed}: stability went backwards"
        );
    }
}

#[test]
fn dependency_graph_executes_everything_exactly_once() {
    for seed in 0..100u64 {
        let mut rng = Rng::new(seed);
        // Build an arbitrary dependency graph over 20 commands (cycles allowed) and
        // commit all of them; the executor must execute each exactly once, respecting
        // committed-before-executed.
        let mut deps: BTreeMap<u64, BTreeSet<Dot>> =
            (0..20u64).map(|i| (i, BTreeSet::new())).collect();
        let edges = rng.gen_range(80);
        for _ in 0..edges {
            let a = rng.gen_range(20);
            let b = rng.gen_range(20);
            if a != b {
                deps.get_mut(&a).unwrap().insert(Dot::new(1, b + 1));
            }
        }
        let mut graph = DependencyGraph::new();
        let mut executed = Vec::new();
        for (i, d) in &deps {
            graph.add(Dot::new(1, i + 1), d.clone());
            executed.extend(graph.try_execute());
        }
        executed.extend(graph.try_execute());
        assert_eq!(
            executed.len(),
            20,
            "seed {seed}: every command executes once all are committed"
        );
        let unique: BTreeSet<Dot> = executed.iter().copied().collect();
        assert_eq!(unique.len(), 20, "seed {seed}: no duplicates");
        assert_eq!(graph.pending(), 0, "seed {seed}");
    }
}

#[test]
fn kvstore_is_deterministic() {
    for seed in 0..50u64 {
        let mut rng = Rng::new(seed);
        let len = 1 + rng.gen_range(99);
        let commands: Vec<Command> = (0..len)
            .map(|i| {
                let key = rng.gen_range(10);
                let value = rng.gen_range(1000);
                Command::single(Rifl::new(1, i + 1), 0, key, KVOp::Add(value), 0)
            })
            .collect();
        let mut a = KVStore::new();
        let mut b = KVStore::new();
        for c in &commands {
            a.execute(0, c);
        }
        for c in &commands {
            b.execute(0, c);
        }
        assert_eq!(a.digest(), b.digest(), "seed {seed}: stores diverged");
    }
}

#[test]
fn zipf_samples_stay_in_range() {
    for seed in 0..100u64 {
        let mut rng = Rng::new(seed);
        let n = 1 + rng.gen_range(1_000_000);
        let theta = rng.next_f64() * 0.99;
        let zipf = Zipf::new(n, theta);
        for _ in 0..100 {
            assert!(
                zipf.sample(&mut rng) < n,
                "seed {seed}: sample out of range"
            );
        }
    }
}

#[test]
fn rng_range_is_always_below_bound() {
    for seed in 0..200u64 {
        let mut rng = Rng::new(seed);
        let bound = 1 + rng.next_u64() % (u64::MAX - 1);
        for _ in 0..50 {
            assert!(rng.gen_range(bound) < bound, "seed {seed}");
        }
    }
}

/// Heavier protocol-level property: randomized schedules of submissions and partial
/// deliveries must leave every replica with the same execution order on every key
/// (Property 2: conflicting commands execute in the same order). Commands on keys of
/// different buckets commute, and each replica runs them as its buckets turn stable.
#[test]
fn tempo_executes_conflicting_commands_in_the_same_order_everywhere() {
    for seed in 0..16u64 {
        let mut rng = Rng::new(seed);
        let config = Config::full(5, 1);
        let mut cluster = LocalCluster::<Tempo>::new(config);
        let total = 5 + rng.gen_range(35);
        let mut seq = [0u64; 5];
        for _ in 0..total {
            let p = rng.gen_range(5) as ProcessId;
            let key = rng.gen_range(3);
            seq[p as usize] += 1;
            let cmd = Command::single(Rifl::new(p, seq[p as usize]), 0, key, KVOp::Add(1), 0);
            cluster.submit_no_deliver(p, cmd);
            if rng.gen_bool(0.5) {
                for _ in 0..(rng.gen_range(6) + 1) {
                    cluster.step();
                }
            }
        }
        cluster.run_to_quiescence();
        for _ in 0..5 {
            cluster.tick_all(5_000);
        }
        let on_key = |executed: &[tempo_kernel::protocol::Executed], key: u64| -> Vec<Rifl> {
            let on = executed.iter().filter(|e| e.result.outputs[0].0 == key);
            on.map(|e| e.rifl).collect()
        };
        let reference = cluster.executed(0);
        assert_eq!(
            reference.len() as u64,
            total,
            "seed {seed}: missing executions"
        );
        for p in 1..5u64 {
            let order = cluster.executed(p);
            for key in 0..3 {
                assert_eq!(
                    on_key(&order, key),
                    on_key(&reference, key),
                    "seed {seed}: divergent execution order on key {key} at process {p}"
                );
            }
        }
    }
}
