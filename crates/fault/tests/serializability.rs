//! Adversarial suite for the cross-key strict serializability checker.
//!
//! Three layers, from hand-crafted to end-to-end:
//!
//! 1. **Anomaly corpus** — hand-written multi-key histories with the classic defects
//!    (write skew, fractured read, lost update, cross-key order disagreement, stale
//!    multi-key read), each rejected with the *expected* minimal cycle; clean
//!    histories (serial, concurrent, pending, aborted) pass. A seeded generator adds
//!    defect-free histories (no false positives) and value-mutated ones (no false
//!    negatives) at scale.
//! 2. **Mutation battery** — a test-only [`BrokenShim`] protocol wrapper runs a real
//!    Tempo cluster (two shards through `LocalCluster`) but re-executes multi-key
//!    commands on one replica from a shadow store in a deliberately perturbed order
//!    (swapped pairs, or duplicated application with the second result reported).
//!    Every seeded mutation must surface as a `NotSerializable` cycle — checker
//!    *sensitivity*, where the corpus's clean histories prove specificity.
//! 3. **Property tests** — multi-shard YCSB+T sim runs at f=1 and f=2 under
//!    `NemesisSchedule::random` all pass the checker, and same-seed runs produce
//!    byte-identical verdicts (the checker is deterministic end to end).

use std::collections::{BTreeMap, BTreeSet};
use tempo_core::Tempo;
use tempo_fault::serializability::EdgeKind;
use tempo_fault::{History, NemesisSchedule, RandomNemesisOpts, Violation};
use tempo_kernel::command::{Command, KVOp, Key};
use tempo_kernel::config::Config;
use tempo_kernel::harness::LocalCluster;
use tempo_kernel::id::{ProcessId, Rifl, ShardId};
use tempo_kernel::kvstore::KVStore;
use tempo_kernel::protocol::{Action, Executed, Protocol, ProtocolMetrics, TimerId, View};
use tempo_kernel::rand::Rng;
use tempo_load::YcsbTMix;
use tempo_planet::Planet;
use tempo_sim::{run, SimOpts};

// ---------------------------------------------------------------------------------
// Anomaly corpus: hand-written histories with known defects.
// ---------------------------------------------------------------------------------

/// Unwraps the serializability cycle or panics with the actual verdict.
fn expect_cycle(h: &History) -> Vec<tempo_fault::CycleEdge> {
    match h.check() {
        Err(Violation::NotSerializable { cycle }) => {
            assert!(!cycle.is_empty(), "a cycle has at least two edges");
            cycle
        }
        other => panic!("expected a serializability cycle, got {other:?}"),
    }
}

/// The Rifls around the cycle, as a set.
fn cycle_rifls(cycle: &[tempo_fault::CycleEdge]) -> BTreeSet<Rifl> {
    cycle.iter().flat_map(|e| [e.from, e.to]).collect()
}

#[test]
fn write_skew_is_rejected_with_the_expected_cycle() {
    // T1 reads x (absent) and writes y; T2 reads y (absent) and writes x. Each claims
    // to precede the other's write: two initial-read edges close the cycle.
    let mut h = History::new();
    let t1 = Rifl::new(1, 1);
    let t2 = Rifl::new(2, 1);
    h.record_invoke(
        t1,
        Command::new(t1, vec![(0, 1, KVOp::Get), (0, 2, KVOp::Put(7))], 0),
        0,
    );
    h.record_invoke(
        t2,
        Command::new(t2, vec![(0, 2, KVOp::Get), (0, 1, KVOp::Put(7))], 0),
        0,
    );
    h.record_complete(t1, 100, vec![(0, 1, None), (0, 2, Some(7))]);
    h.record_complete(t2, 100, vec![(0, 2, None), (0, 1, Some(7))]);
    let cycle = expect_cycle(&h);
    assert_eq!(cycle.len(), 2, "minimal cycle: {cycle:?}");
    assert_eq!(cycle_rifls(&cycle), BTreeSet::from([t1, t2]));
    assert!(
        cycle
            .iter()
            .all(|e| matches!(e.kind, EdgeKind::InitialRead { .. })),
        "write skew is two initial-read edges: {cycle:?}"
    );
}

#[test]
fn fractured_read_is_rejected_with_the_expected_cycle() {
    // W atomically writes x and y; R observes W's x but y still absent — it reads
    // "between" the halves of an atomic write.
    let mut h = History::new();
    let w = Rifl::new(1, 1);
    let r = Rifl::new(2, 1);
    h.record_invoke(
        w,
        Command::new(w, vec![(0, 1, KVOp::Put(1)), (1, 5, KVOp::Put(1))], 0),
        0,
    );
    h.record_complete(w, 100, vec![(0, 1, Some(1)), (1, 5, Some(1))]);
    h.record_invoke(
        r,
        Command::new(r, vec![(0, 1, KVOp::Get), (1, 5, KVOp::Get)], 0),
        200,
    );
    h.record_complete(r, 300, vec![(0, 1, Some(1)), (1, 5, None)]);
    let cycle = expect_cycle(&h);
    assert_eq!(cycle.len(), 2, "minimal cycle: {cycle:?}");
    assert_eq!(cycle_rifls(&cycle), BTreeSet::from([w, r]));
    assert!(
        cycle
            .iter()
            .any(|e| matches!(e.kind, EdgeKind::InitialRead { shard: 1, key: 5 })),
        "the stale half pins R before W: {cycle:?}"
    );
}

#[test]
fn lost_update_is_rejected_with_the_expected_cycle() {
    // Both T1 and T2 read-modify-write x from the same base value 5: one update is
    // lost. Two overwrite edges (both consumed state 5) close the cycle.
    let mut h = History::new();
    let setup = Rifl::new(1, 1);
    let t1 = Rifl::new(2, 1);
    let t2 = Rifl::new(3, 1);
    h.record_invoke(
        setup,
        Command::new(setup, vec![(0, 1, KVOp::Put(5)), (0, 2, KVOp::Put(9))], 0),
        0,
    );
    h.record_complete(setup, 10, vec![(0, 1, Some(5)), (0, 2, Some(9))]);
    for (t, inv) in [(t1, 20), (t2, 21)] {
        h.record_invoke(
            t,
            Command::new(t, vec![(0, 1, KVOp::Add(1)), (0, 2, KVOp::Get)], 0),
            inv,
        );
        h.record_complete(t, 100, vec![(0, 1, Some(6)), (0, 2, Some(9))]);
    }
    let cycle = expect_cycle(&h);
    assert_eq!(cycle.len(), 2, "minimal cycle: {cycle:?}");
    assert_eq!(cycle_rifls(&cycle), BTreeSet::from([t1, t2]));
    assert!(
        cycle
            .iter()
            .all(|e| matches!(e.kind, EdgeKind::Overwrite { shard: 0, key: 1 })),
        "lost update is two overwrite edges on the contended key: {cycle:?}"
    );
}

#[test]
fn cross_key_order_disagreement_is_rejected_with_the_expected_cycle() {
    // Wa then Wb each bump x and y; the reader observes x *after* Wb but y *before*
    // Wb — the two keys disagree about where the reader serializes.
    let mut h = History::new();
    let wa = Rifl::new(1, 1);
    let wb = Rifl::new(1, 2);
    let r = Rifl::new(2, 1);
    h.record_invoke(
        wa,
        Command::new(wa, vec![(0, 1, KVOp::Add(1)), (0, 2, KVOp::Add(1))], 0),
        0,
    );
    h.record_complete(wa, 10, vec![(0, 1, Some(1)), (0, 2, Some(1))]);
    h.record_invoke(
        wb,
        Command::new(wb, vec![(0, 1, KVOp::Add(1)), (0, 2, KVOp::Add(1))], 0),
        20,
    );
    h.record_complete(wb, 30, vec![(0, 1, Some(2)), (0, 2, Some(2))]);
    // The reader overlaps both writers in real time, so per-key linearizability holds
    // for each key alone; only the cross-key view exposes the contradiction.
    h.record_invoke(
        r,
        Command::new(r, vec![(0, 1, KVOp::Get), (0, 2, KVOp::Get)], 0),
        5,
    );
    h.record_complete(r, 40, vec![(0, 1, Some(2)), (0, 2, Some(1))]);
    let cycle = expect_cycle(&h);
    assert_eq!(cycle.len(), 2, "minimal cycle: {cycle:?}");
    assert_eq!(cycle_rifls(&cycle), BTreeSet::from([wb, r]));
    let kinds: BTreeSet<&str> = cycle
        .iter()
        .map(|e| match e.kind {
            EdgeKind::ReadFrom { .. } => "read-from",
            EdgeKind::Overwrite { .. } => "overwrite",
            other => panic!("unexpected edge kind {other:?}"),
        })
        .collect();
    assert_eq!(kinds, BTreeSet::from(["read-from", "overwrite"]));
}

#[test]
fn stale_multi_key_read_is_rejected_with_the_expected_cycle() {
    // The chain on x reached 2 before R was even invoked, yet R observes 1: real time
    // pins T2 before R, the observed value pins R before T2.
    let mut h = History::new();
    let t1 = Rifl::new(1, 1);
    let t2 = Rifl::new(1, 2);
    let r = Rifl::new(2, 1);
    for (t, inv, res, out) in [(t1, 0u64, 10u64, 1u64), (t2, 20, 30, 2)] {
        h.record_invoke(
            t,
            Command::new(t, vec![(0, 1, KVOp::Add(1)), (1, 7, KVOp::Get)], 0),
            inv,
        );
        h.record_complete(t, res, vec![(0, 1, Some(out)), (1, 7, None)]);
    }
    h.record_invoke(
        r,
        Command::new(r, vec![(0, 1, KVOp::Get), (1, 7, KVOp::Get)], 0),
        50,
    );
    h.record_complete(r, 60, vec![(0, 1, Some(1)), (1, 7, None)]);
    let cycle = expect_cycle(&h);
    assert_eq!(cycle.len(), 2, "minimal cycle: {cycle:?}");
    assert_eq!(cycle_rifls(&cycle), BTreeSet::from([t2, r]));
    assert!(
        cycle
            .iter()
            .any(|e| matches!(e.kind, EdgeKind::RealTime { shard: 0, key: 1 })),
        "real time must participate: {cycle:?}"
    );
    assert!(
        cycle
            .iter()
            .any(|e| matches!(e.kind, EdgeKind::Overwrite { shard: 0, key: 1 })),
        "the stale value must participate: {cycle:?}"
    );
}

#[test]
fn clean_multi_key_histories_pass() {
    // Serial multi-key writers and a consistent reader; plus a pending and an aborted
    // command (optional effects must not be forced into the order).
    let mut h = History::new();
    let w1 = Rifl::new(1, 1);
    let w2 = Rifl::new(1, 2);
    let r = Rifl::new(2, 1);
    let pending = Rifl::new(3, 1);
    let aborted = Rifl::new(4, 1);
    for (w, inv, res, out) in [(w1, 0u64, 10u64, 1u64), (w2, 20, 30, 2)] {
        h.record_invoke(
            w,
            Command::new(w, vec![(0, 1, KVOp::Add(1)), (1, 5, KVOp::Add(1))], 0),
            inv,
        );
        h.record_complete(w, res, vec![(0, 1, Some(out)), (1, 5, Some(out))]);
    }
    h.record_invoke(
        r,
        Command::new(r, vec![(0, 1, KVOp::Get), (1, 5, KVOp::Get)], 0),
        40,
    );
    h.record_complete(r, 50, vec![(0, 1, Some(2)), (1, 5, Some(2))]);
    h.record_invoke(
        pending,
        Command::new(pending, vec![(0, 1, KVOp::Add(1)), (0, 9, KVOp::Put(3))], 0),
        45,
    );
    h.record_invoke(
        aborted,
        Command::new(aborted, vec![(1, 5, KVOp::Add(1)), (1, 6, KVOp::Put(4))], 0),
        45,
    );
    h.record_abort(aborted);
    let summary = h.check().expect("clean multi-key history");
    assert_eq!(summary.multi_key_commands, 5);
    assert_eq!(summary.ser_txns, 5);
    assert!(summary.ser_edges > 0, "the graph must not be empty");
}

#[test]
fn single_key_histories_skip_the_graph() {
    let mut h = History::new();
    for i in 1..=4u64 {
        let r = Rifl::new(1, i);
        h.record_invoke(r, Command::single(r, 0, 0, KVOp::Add(1), 0), i * 100);
        h.record_complete(r, i * 100 + 50, vec![(0, 0, Some(i))]);
    }
    let summary = h.check().expect("single-key history");
    assert_eq!(summary.multi_key_commands, 0, "fast path must apply");
    assert_eq!(summary.ser_txns, 0, "the graph must not even be built");
    assert_eq!(summary.ser_edges, 0);
}

// ---------------------------------------------------------------------------------
// Generated corpus: serializable histories pass, value-mutated ones are cycles.
// ---------------------------------------------------------------------------------

/// Generates a genuinely serial multi-key history (executed against a real `KVStore`)
/// whose client windows overlap, so the checker sees concurrency but no anomaly.
fn generated_history(seed: u64, txns: u64) -> History {
    let mut h = History::new();
    let mut rng = Rng::new(seed);
    let mut stores: BTreeMap<ShardId, KVStore> = BTreeMap::new();
    for i in 0..txns {
        let client = 1 + (i % 4);
        let rifl = Rifl::new(client, 1 + i / 4);
        let mut ops: Vec<(ShardId, Key, KVOp)> = Vec::new();
        for _ in 0..2 {
            let shard = rng.gen_range(2);
            let key = rng.gen_range(6);
            if ops.iter().any(|(s, k, _)| *s == shard && *k == key) {
                continue;
            }
            let op = if rng.gen_bool(0.6) {
                KVOp::Add(1)
            } else {
                KVOp::Get
            };
            ops.push((shard, key, op));
        }
        if ops.is_empty() {
            continue;
        }
        let cmd = Command::new(rifl, ops, 0);
        let inv = i * 10;
        h.record_invoke(rifl, cmd.clone(), inv);
        let mut outputs = Vec::new();
        for shard in cmd.shards() {
            let store = stores.entry(shard).or_default();
            for (key, out) in store.execute(shard, &cmd).outputs {
                outputs.push((shard, key, out));
            }
        }
        // Completion long after the next few invocations: overlapping windows.
        h.record_complete(rifl, inv + 35, outputs);
    }
    h
}

#[test]
fn generated_serializable_histories_pass() {
    for seed in 0..20u64 {
        let h = generated_history(seed, 48);
        if let Err(v) = h.check() {
            panic!("seed {seed}: false positive: {v}");
        }
    }
}

#[test]
fn generated_histories_with_mutated_values_are_rejected_with_cycles() {
    // Every command bumps the hot key; rewriting one victim's hot-key output to its
    // predecessor's duplicates an entry state — a guaranteed overwrite cycle.
    for seed in 0..10u64 {
        let mut h = History::new();
        let mut rng = Rng::new(seed);
        let mut side: BTreeMap<Key, u64> = BTreeMap::new();
        let n = 16u64;
        let victim = 3 + rng.gen_range(n - 4);
        for i in 0..n {
            let rifl = Rifl::new(1 + (i % 4), 1 + i / 4);
            let other = 1 + rng.gen_range(5);
            let cmd = Command::new(
                rifl,
                vec![(0, 0, KVOp::Add(1)), (1, other, KVOp::Add(1))],
                0,
            );
            let inv = i * 10;
            h.record_invoke(rifl, cmd, inv);
            // The victim reports its predecessor's value: a duplicated state.
            let hot = if i == victim { i } else { i + 1 };
            let side_out = side.entry(other).and_modify(|v| *v += 1).or_insert(1);
            h.record_complete(
                rifl,
                inv + 35,
                vec![(0, 0, Some(hot)), (1, other, Some(*side_out))],
            );
        }
        match h.check() {
            Err(Violation::NotSerializable { cycle }) => {
                assert!(!cycle.is_empty(), "seed {seed}: cycle must be reported")
            }
            other => panic!("seed {seed}: mutation must be caught with a cycle, got {other:?}"),
        }
    }
}

// ---------------------------------------------------------------------------------
// Mutation battery: BrokenShim over a real two-shard Tempo cluster.
// ---------------------------------------------------------------------------------

/// How the broken replica perturbs execution of multi-key commands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Buffer a multi-key command and apply it *after* the next command, swapped.
    Reorder,
    /// Apply a multi-key command twice: once in place (result discarded), once after
    /// the next command (that second result is what the client sees).
    Duplicate,
}

/// A test-only protocol wrapper: delegates ordering to the inner protocol untouched,
/// but on one designated replica re-executes delivered commands against a private
/// shadow store in a deliberately perturbed order, replacing the reported outputs.
/// The rest of the cluster stays honest, so the recorded client history mixes honest
/// and lying observations — exactly what the serializability checker must catch.
struct BrokenShim<P: Protocol> {
    inner: P,
    broken: bool,
    mode: Mode,
    rng: Rng,
    shadow: KVStore,
    cmds: BTreeMap<Rifl, Command>,
    /// `Reorder`: a buffered command awaiting the swap partner.
    held: Option<Rifl>,
    /// `Duplicate`: a command applied once, to be re-applied (and reported) after the
    /// next delivery.
    dup_pending: Option<Rifl>,
    /// Multi-key commands seen so far (the first is always mutated, so a run can
    /// never be mutation-free).
    seen_multi: u64,
    mutations: u64,
}

impl<P: Protocol> BrokenShim<P> {
    fn make(
        process: ProcessId,
        shard: ShardId,
        config: Config,
        broken: bool,
        mode: Mode,
        seed: u64,
    ) -> Self {
        Self {
            inner: P::new(process, shard, config),
            broken,
            mode,
            rng: Rng::new(seed),
            shadow: KVStore::new(),
            cmds: BTreeMap::new(),
            held: None,
            dup_pending: None,
            seen_multi: 0,
            mutations: 0,
        }
    }

    fn mutations(&self) -> u64 {
        self.mutations
    }

    /// Executes `rifl` against the shadow store and emits its (possibly lying)
    /// delivery.
    fn exec_shadow(&mut self, rifl: Rifl) -> Action<P::Message> {
        let cmd = self
            .cmds
            .get(&rifl)
            .expect("the battery submits every command at the broken replica");
        let result = self.shadow.execute(self.inner.shard(), cmd);
        Action::Deliver(Executed { rifl, result })
    }

    fn deliver(&mut self, ex: Executed) -> Vec<Action<P::Message>> {
        let Some(cmd) = self.cmds.get(&ex.rifl) else {
            // Not submitted here (recovered elsewhere): pass through honestly. The
            // battery never exercises this path.
            return vec![Action::Deliver(ex)];
        };
        let multi = cmd.keys().collect::<BTreeSet<_>>().len() > 1;
        let mut out = Vec::new();
        if let Some(partner) = self.held.take() {
            // Swap: the newcomer executes first, the buffered command second.
            out.push(self.exec_shadow(ex.rifl));
            out.push(self.exec_shadow(partner));
            self.mutations += 1;
            return out;
        }
        if let Some(dup) = self.dup_pending.take() {
            out.push(self.exec_shadow(ex.rifl));
            // Second application of the duplicate; this result is the reported one.
            out.push(self.exec_shadow(dup));
            self.mutations += 1;
            return out;
        }
        let mutate = multi && (self.seen_multi == 0 || self.rng.gen_bool(0.4));
        self.seen_multi += multi as u64;
        if mutate {
            match self.mode {
                Mode::Reorder => self.held = Some(ex.rifl),
                Mode::Duplicate => {
                    // First application: effects land, the result is discarded.
                    let cmd = self.cmds[&ex.rifl].clone();
                    let _ = self.shadow.execute(self.inner.shard(), &cmd);
                    self.dup_pending = Some(ex.rifl);
                }
            }
            return out;
        }
        out.push(self.exec_shadow(ex.rifl));
        out
    }

    fn rewrite(&mut self, actions: Vec<Action<P::Message>>) -> Vec<Action<P::Message>> {
        if !self.broken {
            return actions;
        }
        let mut out = Vec::new();
        for action in actions {
            match action {
                Action::Deliver(ex) => out.extend(self.deliver(ex)),
                other => out.push(other),
            }
        }
        out
    }
}

impl<P: Protocol> Protocol for BrokenShim<P> {
    type Message = P::Message;
    type Executor = P::Executor;
    const NAME: &'static str = "BrokenShim";

    fn new(process: ProcessId, shard: ShardId, config: Config) -> Self {
        Self::make(process, shard, config, false, Mode::Reorder, 0)
    }

    fn id(&self) -> ProcessId {
        self.inner.id()
    }

    fn shard(&self) -> ShardId {
        self.inner.shard()
    }

    fn discover(&mut self, view: View) -> Vec<Action<Self::Message>> {
        let actions = self.inner.discover(view);
        self.rewrite(actions)
    }

    fn submit(&mut self, cmd: Command, now_us: u64) -> Vec<Action<Self::Message>> {
        self.cmds.insert(cmd.rifl, cmd.clone());
        let actions = self.inner.submit(cmd, now_us);
        self.rewrite(actions)
    }

    fn handle(
        &mut self,
        from: ProcessId,
        msg: Self::Message,
        now_us: u64,
    ) -> Vec<Action<Self::Message>> {
        let actions = self.inner.handle(from, msg, now_us);
        self.rewrite(actions)
    }

    fn timer(&mut self, timer: TimerId, now_us: u64) -> Vec<Action<Self::Message>> {
        let actions = self.inner.timer(timer, now_us);
        self.rewrite(actions)
    }

    fn suspect(&mut self, process: ProcessId) {
        self.inner.suspect(process);
    }

    fn unsuspect(&mut self, process: ProcessId) {
        self.inner.unsuspect(process);
    }

    fn rejoin(&mut self, incarnation: u64, now_us: u64) -> Vec<Action<Self::Message>> {
        let actions = self.inner.rejoin(incarnation, now_us);
        self.rewrite(actions)
    }

    fn executor(&self) -> &Self::Executor {
        self.inner.executor()
    }

    fn metrics(&self) -> ProtocolMetrics {
        self.inner.metrics()
    }
}

/// The broken replica: process 0 (site 0, shard 0).
const BROKEN: ProcessId = 0;

/// Runs one battery round: serial multi-shard commands through a two-shard Tempo
/// cluster with the shim breaking shard 0's replica at process 0, client history
/// recorded from the (partially lying) outputs. Returns the verdict and how many
/// mutations the shim performed.
fn battery_run(mode: Mode, seed: u64) -> (Result<tempo_fault::CheckSummary, Violation>, u64) {
    let config = Config::new(3, 1, 2);
    let mut cluster: LocalCluster<BrokenShim<Tempo>> = LocalCluster::from_protocols(
        config,
        |p| View::trivial(config, p),
        |id, shard| BrokenShim::make(id, shard, config, id == BROKEN, mode, seed),
    );
    let mut rng = Rng::new(seed ^ 0x5EED);
    let mut cmds = Vec::new();
    let n = 8u64;
    for i in 1..=n {
        let rifl = Rifl::new(1, i);
        // Every command bumps the hot key 0 of shard 0 (so any two commands
        // conflict), a second shard-0 key, and a shard-1 key (honest replica).
        let k2 = 1 + rng.gen_range(4);
        let k3 = rng.gen_range(4);
        let cmd = Command::new(
            rifl,
            vec![
                (0, 0, KVOp::Add(1)),
                (0, k2, KVOp::Add(1)),
                (1, k3, KVOp::Add(1)),
            ],
            0,
        );
        cmds.push(cmd.clone());
        cluster.submit(BROKEN, cmd);
        cluster.tick_all(5_000);
    }
    // A single-key trailing command on the hot key flushes any buffered mutation
    // (single-key: the shim never buffers it, but it conflicts with everything).
    let flush = Rifl::new(1, n + 1);
    let fcmd = Command::single(flush, 0, 0, KVOp::Add(1), 0);
    cmds.push(fcmd.clone());
    cluster.submit(BROKEN, fcmd);
    for _ in 0..10 {
        cluster.tick_all(5_000);
    }
    let shard0: BTreeMap<Rifl, Vec<(Key, Option<u64>)>> = cluster
        .executed(BROKEN)
        .into_iter()
        .map(|e| (e.rifl, e.result.outputs))
        .collect();
    let shard1: BTreeMap<Rifl, Vec<(Key, Option<u64>)>> = cluster
        .executed(3)
        .into_iter()
        .map(|e| (e.rifl, e.result.outputs))
        .collect();
    // Fabricated serial client timestamps: command i completed before i+1 was
    // invoked, which is exactly what a synchronous client observed.
    let mut history = History::new();
    for (i, cmd) in cmds.iter().enumerate() {
        let inv = i as u64 * 1_000;
        history.record_invoke(cmd.rifl, cmd.clone(), inv);
        let mut outputs = Vec::new();
        let mut complete = true;
        for shard in cmd.shards() {
            let map = if shard == 0 { &shard0 } else { &shard1 };
            match map.get(&cmd.rifl) {
                Some(outs) => outputs.extend(outs.iter().map(|(k, v)| (shard, *k, *v))),
                None => complete = false,
            }
        }
        assert!(
            complete,
            "seed {seed}: {} must execute on every shard",
            cmd.rifl
        );
        history.record_complete(cmd.rifl, inv + 500, outputs);
    }
    (history.check(), cluster.process(BROKEN).mutations())
}

#[test]
fn broken_shim_reorder_mutations_are_flagged_across_seeds() {
    for seed in 1..=10u64 {
        let (verdict, mutations) = battery_run(Mode::Reorder, seed);
        assert!(mutations >= 1, "seed {seed}: the shim must have mutated");
        match verdict {
            Err(Violation::NotSerializable { cycle }) => {
                assert!(!cycle.is_empty(), "seed {seed}: cycle must be reported")
            }
            other => panic!("seed {seed}: reorder must be caught with a cycle, got {other:?}"),
        }
    }
}

#[test]
fn broken_shim_duplicate_mutations_are_flagged_across_seeds() {
    for seed in 1..=10u64 {
        let (verdict, mutations) = battery_run(Mode::Duplicate, seed);
        assert!(mutations >= 1, "seed {seed}: the shim must have mutated");
        match verdict {
            Err(Violation::NotSerializable { cycle }) => {
                assert!(!cycle.is_empty(), "seed {seed}: cycle must be reported")
            }
            other => panic!("seed {seed}: duplicate must be caught with a cycle, got {other:?}"),
        }
    }
}

#[test]
fn honest_shim_run_passes() {
    // Control: the same harness with no broken replica produces a passing history.
    let config = Config::new(3, 1, 2);
    let mut cluster: LocalCluster<BrokenShim<Tempo>> = LocalCluster::from_protocols(
        config,
        |p| View::trivial(config, p),
        |id, shard| BrokenShim::make(id, shard, config, false, Mode::Reorder, 7),
    );
    let mut history = History::new();
    let mut cmds = Vec::new();
    for i in 1..=6u64 {
        let rifl = Rifl::new(1, i);
        let cmd = Command::new(rifl, vec![(0, 0, KVOp::Add(1)), (1, 1, KVOp::Add(1))], 0);
        cmds.push(cmd.clone());
        cluster.submit(BROKEN, cmd);
        cluster.tick_all(5_000);
    }
    for _ in 0..10 {
        cluster.tick_all(5_000);
    }
    let shard0: BTreeMap<Rifl, Vec<(Key, Option<u64>)>> = cluster
        .executed(BROKEN)
        .into_iter()
        .map(|e| (e.rifl, e.result.outputs))
        .collect();
    let shard1: BTreeMap<Rifl, Vec<(Key, Option<u64>)>> = cluster
        .executed(3)
        .into_iter()
        .map(|e| (e.rifl, e.result.outputs))
        .collect();
    for (i, cmd) in cmds.iter().enumerate() {
        let inv = i as u64 * 1_000;
        history.record_invoke(cmd.rifl, cmd.clone(), inv);
        let mut outputs = Vec::new();
        for shard in cmd.shards() {
            let map = if shard == 0 { &shard0 } else { &shard1 };
            let outs = map.get(&cmd.rifl).expect("executed everywhere");
            outputs.extend(outs.iter().map(|(k, v)| (shard, *k, *v)));
        }
        history.record_complete(cmd.rifl, inv + 500, outputs);
    }
    let summary = history.check().expect("honest run must pass");
    assert!(summary.ser_txns > 0, "the graph must have run");
}

// ---------------------------------------------------------------------------------
// Property tests: multi-shard sim chaos through the checker, plus determinism.
// ---------------------------------------------------------------------------------

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

fn random_multi_shard_run(config: Config, seed: u64) -> tempo_sim::RunReport {
    let schedule = NemesisSchedule::random(&RandomNemesisOpts {
        config,
        horizon_us: 800_000,
        incidents: 3,
        seed,
    });
    run::<Tempo, _>(
        config,
        Planet::equidistant(config.n(), 50.0),
        chaos_opts(schedule, seed),
        YcsbTMix::new(2, 16, 0.6, 0.5, seed),
    )
}

#[test]
fn random_nemesis_multi_shard_f1_histories_are_serializable() {
    for seed in [201u64, 202, 203, 204, 205] {
        let config = Config::new(3, 1, 2);
        let report = random_multi_shard_run(config, seed);
        assert!(!report.stalled, "seed {seed}: {}", report.summary());
        let history = report.history.as_ref().expect("history recorded");
        let summary = history
            .check()
            .unwrap_or_else(|v| panic!("seed {seed}: {v}\n{}", report.summary()));
        assert!(
            summary.multi_key_commands > 0,
            "seed {seed}: YCSB+T is multi-key"
        );
        assert!(summary.ser_txns > 0, "seed {seed}: the graph must have run");
    }
}

#[test]
fn random_nemesis_multi_shard_f2_histories_are_serializable() {
    for seed in [301u64, 302, 303] {
        let config = Config::new(5, 2, 2);
        let report = random_multi_shard_run(config, seed);
        assert!(!report.stalled, "seed {seed}: {}", report.summary());
        let history = report.history.as_ref().expect("history recorded");
        let summary = history
            .check()
            .unwrap_or_else(|v| panic!("seed {seed}: {v}\n{}", report.summary()));
        assert!(
            summary.multi_key_commands > 0,
            "seed {seed}: YCSB+T is multi-key"
        );
        assert!(summary.ser_txns > 0, "seed {seed}: the graph must have run");
    }
}

#[test]
fn same_seed_gives_byte_identical_verdict_and_cycle_report() {
    // A passing sim verdict...
    let config = Config::new(3, 1, 2);
    let a = random_multi_shard_run(config, 777);
    let b = random_multi_shard_run(config, 777);
    let va = format!("{:?}", a.history.as_ref().expect("history").check());
    let vb = format!("{:?}", b.history.as_ref().expect("history").check());
    assert_eq!(va, vb, "same seed must give the same verdict");
    // ...and a failing battery verdict, cycle report included.
    let (v1, m1) = battery_run(Mode::Reorder, 42);
    let (v2, m2) = battery_run(Mode::Reorder, 42);
    assert_eq!(m1, m2, "same seed must mutate identically");
    assert_eq!(
        format!("{v1:?}"),
        format!("{v2:?}"),
        "same seed must give a byte-identical cycle report"
    );
    assert!(matches!(v1, Err(Violation::NotSerializable { .. })));
}
