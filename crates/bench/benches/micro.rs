//! Micro-benchmarks for the protocol-critical data structures: promise tracking /
//! stability detection (incremental vs. the seed's collect-and-sort baseline), the
//! dependency-graph executor and a full Tempo commit round on a local cluster.
//!
//! The workspace is dependency free, so this is a plain timing harness (median of
//! several repetitions) rather than a criterion target. Run with
//! `cargo bench -p tempo-bench --bench micro`; set `TEMPO_BENCH_SHORT=1` for the CI
//! smoke mode. Results are also recorded in `BENCH_micro.json` at the workspace root.

use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::time::Instant;
use tempo_atlas::DependencyGraph;
use tempo_bench::json::{self, Record};
use tempo_core::{PromiseRange, PromiseTracker, Tempo};
use tempo_fault::History;
use tempo_kernel::harness::LocalCluster;
use tempo_kernel::id::{Dot, ProcessId, Rifl};
use tempo_kernel::kvstore::KVStore;
use tempo_kernel::{Command, Config, KVOp};

/// Runs `iterations` repetitions of `f`, prints the median wall-clock time and returns
/// it in microseconds.
fn bench<R>(name: &str, iterations: usize, mut f: impl FnMut() -> R) -> f64 {
    let iterations = if tempo_bench::short_mode() {
        (iterations / 10).max(3)
    } else {
        iterations
    };
    // One warm-up round.
    black_box(f());
    let mut samples: Vec<u128> = (0..iterations)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_nanos()
        })
        .collect();
    samples.sort_unstable();
    let median_us = samples[samples.len() / 2] as f64 / 1000.0;
    println!("{name:<45} median {median_us:>10.1} µs");
    median_us
}

/// The seed's stability detection, kept as the baseline the incremental `PromiseTracker`
/// is measured against: per-process promises in a `BTreeSet` inserted timestamp by
/// timestamp, and a collect-and-sort of all watermarks on every `stable_timestamp` query.
struct NaiveTracker {
    by_process: BTreeMap<ProcessId, (u64, BTreeSet<u64>)>,
    stability_index: usize,
}

impl NaiveTracker {
    fn new(processes: &[ProcessId], stability_index: usize) -> Self {
        Self {
            by_process: processes
                .iter()
                .map(|p| (*p, (0, BTreeSet::new())))
                .collect(),
            stability_index,
        }
    }

    fn add(&mut self, process: ProcessId, range: PromiseRange) {
        let (contiguous, sparse) = self.by_process.get_mut(&process).expect("known process");
        if range.end <= *contiguous {
            return;
        }
        if range.start <= *contiguous + 1 {
            *contiguous = (*contiguous).max(range.end);
        } else {
            for ts in range.start..=range.end {
                sparse.insert(ts);
            }
        }
        while sparse.remove(&(*contiguous + 1)) {
            *contiguous += 1;
        }
        *sparse = sparse.split_off(&(*contiguous + 1));
    }

    fn stable_timestamp(&self) -> u64 {
        let mut watermarks: Vec<u64> = self.by_process.values().map(|(c, _)| *c).collect();
        watermarks.sort_unstable();
        watermarks[self.stability_index]
    }
}

fn bench_stability(records: &mut Vec<Record>) {
    // The hot-path shape of `sync_stability`: every promise arrival queries the
    // watermark. r = 5 processes, 1000 sustained timestamps, one query per update.
    let incremental = bench("promises/stability_detection_r5_1000", 50, || {
        let mut tracker = PromiseTracker::new(&[0, 1, 2, 3, 4], 2);
        for ts in 1..=1000u64 {
            for p in 0..5u64 {
                tracker.add(p, PromiseRange::single(ts));
                black_box(tracker.stable_timestamp());
            }
        }
        tracker.stable_timestamp()
    });
    let naive = bench("promises/stability_detection_r5_1000_naive", 50, || {
        let mut tracker = NaiveTracker::new(&[0, 1, 2, 3, 4], 2);
        for ts in 1..=1000u64 {
            for p in 0..5u64 {
                tracker.add(p, PromiseRange::single(ts));
                black_box(tracker.stable_timestamp());
            }
        }
        tracker.stable_timestamp()
    });
    let speedup = naive / incremental.max(1e-9);
    println!("{:<45} {speedup:>16.1}x", "promises/speedup_vs_naive");
    records.push(Record::new(
        "promises/stability_detection_r5_1000",
        &[
            ("median_us", incremental),
            ("naive_median_us", naive),
            ("speedup_vs_naive", speedup),
        ],
    ));
}

fn bench_sparse_ranges(records: &mut Vec<Record>) {
    // The coalesced-range representation: 1000 detached ranges of 1M timestamps each
    // (the pattern of a lagging replica catching up) — the seed's per-timestamp
    // BTreeSet insertion could not finish this workload at all.
    let median = bench("promises/detached_megarange_1000", 50, || {
        let mut tracker = PromiseTracker::new(&[0, 1, 2], 1);
        for i in 0..1000u64 {
            // Leave a one-timestamp gap so nothing merges into the prefix.
            let start = 2 + i * 1_000_001;
            tracker.add(0, PromiseRange::new(start, start + 999_999));
        }
        tracker.highest_contiguous_promise(0)
    });
    records.push(Record::new(
        "promises/detached_megarange_1000",
        &[("median_us", median)],
    ));
}

fn bench_depgraph(records: &mut Vec<Record>) {
    let median = bench("depgraph/chain_of_500", 50, || {
        let mut graph = DependencyGraph::new();
        for n in (2..=500u64).rev() {
            graph.add(Dot::new(1, n), BTreeSet::from([Dot::new(1, n - 1)]));
        }
        graph.add(Dot::new(1, 1), BTreeSet::new());
        graph.try_execute().len()
    });
    records.push(Record::new(
        "depgraph/chain_of_500",
        &[("median_us", median)],
    ));
}

fn bench_commit_path(records: &mut Vec<Record>) {
    let median = bench("tempo/commit_and_execute_100_commands_r5", 20, || {
        let mut cluster = LocalCluster::<Tempo>::new(Config::full(5, 1));
        for seq in 1..=100u64 {
            let cmd = Command::single(Rifl::new(1, seq), 0, seq % 4, KVOp::Put(seq), 0);
            cluster.submit(0, cmd);
        }
        cluster.executed(0).len()
    });
    records.push(Record::new(
        "tempo/commit_and_execute_100_commands_r5",
        &[("median_us", median)],
    ));
}

fn bench_sustained_load(records: &mut Vec<Record>) {
    // Long-run behaviour of the full hot path (commit + incremental stability + cursor
    // executor + GC): cost per command must not grow with run length.
    let commands = if tempo_bench::short_mode() { 300 } else { 1500 };
    let name = "tempo/sustained_load_r3";
    let median = bench(name, 10, || {
        let mut cluster = LocalCluster::<Tempo>::new(Config::full(3, 1));
        for seq in 1..=commands {
            let cmd = Command::single(Rifl::new(1, seq), 0, seq % 16, KVOp::Put(seq), 0);
            cluster.submit((seq % 3) as ProcessId, cmd);
            if seq % 50 == 0 {
                cluster.tick_all(5_000);
            }
        }
        cluster.executed(0).len()
    });
    records.push(Record::new(
        name,
        &[("median_us", median), ("commands", commands as f64)],
    ));
}

/// Builds a valid (serially executed) two-shard history of `n` YCSB+T-shaped
/// transactions: each command touches one key on each shard, writers `Add(1)` both,
/// readers `Get` both, outputs produced by actually executing against a model store.
fn synthetic_multi_shard_history(n: u64) -> History {
    let mut history = History::new();
    // One store per shard: shard keyspaces are disjoint in the real system.
    let mut kv = [KVStore::new(), KVStore::new()];
    for i in 0..n {
        let rifl = Rifl::new(1 + i % 8, 1 + i / 8);
        let (k0, k1) = (i % 32, (i * 7) % 32);
        let op = |w: bool| if w { KVOp::Add(1) } else { KVOp::Get };
        let write = i % 2 == 0;
        let cmd = Command::new(rifl, vec![(0, k0, op(write)), (1, k1, op(write))], 0);
        history.record_invoke(rifl, cmd.clone(), 2 * i);
        let mut outputs = Vec::new();
        for shard in 0..2 {
            for (key, out) in kv[shard as usize].execute(shard, &cmd).outputs {
                outputs.push((shard, key, out));
            }
        }
        history.record_complete(rifl, 2 * i + 1, outputs);
    }
    history
}

/// Same shape, single-key commands only: `multi_key_commands == 0`, so `check()` stops
/// after the memoized per-key passes and the constraint graph is never built.
fn synthetic_single_key_history(n: u64) -> History {
    let mut history = History::new();
    let mut kv = KVStore::new();
    for i in 0..n {
        let rifl = Rifl::new(1 + i % 8, 1 + i / 8);
        let op = if i % 2 == 0 { KVOp::Add(1) } else { KVOp::Get };
        let cmd = Command::single(rifl, 0, i % 32, op, 0);
        history.record_invoke(rifl, cmd.clone(), 2 * i);
        let outputs = kv
            .execute(0, &cmd)
            .outputs
            .into_iter()
            .map(|(key, out)| (0, key, out))
            .collect();
        history.record_complete(rifl, 2 * i + 1, outputs);
    }
    history
}

fn bench_ser_check(records: &mut Vec<Record>) {
    // Checker cost: full `History::check()` over pre-built valid histories. The
    // multi-shard sizes exercise the constraint graph (build + SCC); the single-key
    // run of the largest size shows the fast path's cost when the graph is skipped.
    let sizes: &[u64] = if tempo_bench::short_mode() {
        &[128, 512]
    } else {
        &[128, 512, 2048]
    };
    let mut largest = 0.0;
    for &n in sizes {
        let history = synthetic_multi_shard_history(n);
        let name = format!("ser_check/multi_shard_{n}");
        let median = bench(&name, 20, || {
            history
                .check()
                .expect("synthetic history is valid")
                .ser_edges
        });
        records.push(Record::new(
            &name,
            &[("median_us", median), ("txns", n as f64)],
        ));
        largest = median;
    }
    let n = *sizes.last().expect("sizes non-empty");
    let single = synthetic_single_key_history(n);
    let name = format!("ser_check/single_key_fast_path_{n}");
    let median = bench(&name, 20, || {
        let summary = single.check().expect("synthetic history is valid");
        assert_eq!(summary.ser_txns, 0, "fast path must skip the graph");
        summary.multi_key_commands
    });
    let graph_overhead = largest / median.max(1e-9);
    println!(
        "{:<45} {graph_overhead:>16.1}x",
        "ser_check/graph_cost_vs_fast_path"
    );
    records.push(Record::new(
        &name,
        &[
            ("median_us", median),
            ("txns", n as f64),
            ("graph_cost_vs_fast_path", graph_overhead),
        ],
    ));
}

fn main() {
    println!("micro-benchmarks (median wall-clock per repetition)");
    let mut records = Vec::new();
    bench_stability(&mut records);
    bench_sparse_ranges(&mut records);
    bench_depgraph(&mut records);
    bench_commit_path(&mut records);
    bench_sustained_load(&mut records);
    bench_ser_check(&mut records);
    json::write("micro", &records);
}
