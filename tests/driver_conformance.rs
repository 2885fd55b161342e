//! Protocol API v2 trait-conformance suite.
//!
//! One parameterized harness drives every `Protocol` implementation through the shared
//! `Driver` dispatch core (via the kernel's `LocalCluster`, which is built on it) and
//! checks the contract every protocol must honour:
//!
//! * a single-shard put/get round executes at every replica, in the same order, with the
//!   read observing the write (push-based `Action::Deliver` completions);
//! * concurrent conflicting submissions (which exercise each protocol's slow path where
//!   it has one) still commit exactly once per command and execute convergently;
//! * protocol-owned timers: protocols declare their periodic events at `discover` time
//!   and keep them alive by re-scheduling from `Protocol::timer` — and firing timers is
//!   harmless at quiescence;
//! * driver-maintained metrics: `messages_sent` counts per-destination deliveries and
//!   agrees with the number of messages the transport actually carried;
//! * self-delivery belongs to the driver: a protocol that addresses a message to itself
//!   gets it back through `Protocol::handle` (never inline, never through the transport);
//! * client replies: a reply is the command's execution, one per command per replica,
//!   in the same per-key order and with the same results at every replica.

use tempo_atlas::{Atlas, EPaxos};
use tempo_caesar::Caesar;
use tempo_core::{Tempo, TempoOptions};
use tempo_fpaxos::FPaxos;
use tempo_kernel::driver::Driver;
use tempo_kernel::harness::LocalCluster;
use tempo_kernel::id::{ProcessId, Rifl, ShardId};
use tempo_kernel::protocol::{Action, Executor, Protocol, ProtocolMetrics, TimerId, View};
use tempo_kernel::trace::Tracer;
use tempo_kernel::{Command, Config, KVOp};

/// Expected timer behaviour of a protocol under test.
#[derive(Clone, Copy, PartialEq)]
enum Timers {
    /// The protocol schedules periodic timers at `discover` time (e.g. Tempo).
    Periodic,
    /// The protocol has no periodic work.
    None,
}

fn put(client: u64, seq: u64, key: u64, value: u64) -> Command {
    Command::single(Rifl::new(client, seq), 0, key, KVOp::Put(value), 0)
}

fn get(client: u64, seq: u64, key: u64) -> Command {
    Command::single(Rifl::new(client, seq), 0, key, KVOp::Get, 0)
}

/// Single-shard put/get: both commands execute everywhere, in submission-compatible
/// order, and the read observes the written value.
fn put_get_round<P: Protocol>(config: Config) {
    let mut cluster = LocalCluster::<P>::new(config);
    cluster.submit(0, put(1, 1, 42, 7));
    cluster.submit(0, get(1, 2, 42));
    // Give timer-driven protocols a few periods to reach stability everywhere.
    for _ in 0..4 {
        cluster.tick_all(5_000);
    }
    for p in cluster.process_ids() {
        let executed = cluster.executed(p);
        assert_eq!(
            executed.len(),
            2,
            "{}: put/get did not execute at process {p}",
            P::NAME
        );
        assert_eq!(executed[0].rifl, Rifl::new(1, 1), "{}: order", P::NAME);
        assert_eq!(executed[1].rifl, Rifl::new(1, 2), "{}: order", P::NAME);
        assert_eq!(
            executed[1].result.outputs,
            vec![(42, Some(7))],
            "{}: the read must observe the write at process {p}",
            P::NAME
        );
        // The executor hook agrees with the delivered completions.
        assert_eq!(cluster.process(p).executor().executed(), 2, "{}", P::NAME);
    }
}

/// Concurrent conflicting submissions: every command still commits exactly once at its
/// coordinator (fast or slow path) and all replicas execute the same order. With
/// divergent replica state this is what drives each protocol's slow path.
fn contended_round<P: Protocol>(config: Config) {
    let mut cluster = LocalCluster::<P>::new(config);
    let n = cluster.process_ids().len() as u64;
    for p in cluster.process_ids() {
        cluster.submit_no_deliver(p, put(p, 1, 0, p));
    }
    cluster.run_to_quiescence();
    for _ in 0..6 {
        cluster.tick_all(5_000);
    }
    // Every coordinator decided its command exactly once, via the fast or the slow path.
    let decided: u64 = cluster
        .process_ids()
        .iter()
        .map(|p| {
            let m = cluster.process(*p).metrics();
            m.fast_paths + m.slow_paths
        })
        .sum();
    assert_eq!(decided, n, "{}: each command decided exactly once", P::NAME);
    // Convergent execution order everywhere.
    let reference: Vec<Rifl> = cluster.executed(0).into_iter().map(|e| e.rifl).collect();
    assert_eq!(reference.len() as u64, n, "{}: missing executions", P::NAME);
    for p in cluster.process_ids().into_iter().skip(1) {
        let order: Vec<Rifl> = cluster.executed(p).into_iter().map(|e| e.rifl).collect();
        assert_eq!(order, reference, "{}: divergent order at {p}", P::NAME);
    }
}

/// Timer contract: protocols declare their periodic events when discovering the view and
/// keep them alive by re-scheduling; firing timers at quiescence changes nothing.
fn timer_contract<P: Protocol>(config: Config, timers: Timers) {
    let mut driver = Driver::<P>::new(0, 0, config);
    let _ = driver.start(View::trivial(config, 0), 0);
    match timers {
        Timers::Periodic => {
            let due = driver
                .next_timer_due()
                .unwrap_or_else(|| panic!("{}: expected periodic timers", P::NAME));
            // Firing the due timer re-schedules it (the protocol owns its cadence).
            let _ = driver.fire_due(due);
            let next = driver
                .next_timer_due()
                .unwrap_or_else(|| panic!("{}: timer must re-schedule", P::NAME));
            assert!(
                next > due,
                "{}: re-scheduled timer is in the future",
                P::NAME
            );
        }
        Timers::None => {
            assert!(
                driver.next_timer_due().is_none(),
                "{}: expected no timers",
                P::NAME
            );
        }
    }
    // Firing timers on an idle cluster is harmless.
    let mut cluster = LocalCluster::<P>::new(config);
    cluster.tick_all(50_000);
    for p in cluster.process_ids() {
        assert_eq!(cluster.process(p).metrics().executed, 0, "{}", P::NAME);
    }
}

/// `messages_sent` is maintained by the driver, per destination: summed over processes
/// it must equal the number of messages the FIFO transport delivered.
fn message_accounting<P: Protocol>(config: Config) {
    let mut cluster = LocalCluster::<P>::new(config);
    for seq in 1..=5u64 {
        cluster.submit(0, put(1, seq, seq, seq));
    }
    for _ in 0..4 {
        cluster.tick_all(5_000);
    }
    let sent: u64 = cluster
        .process_ids()
        .iter()
        .map(|p| cluster.driver(*p).metrics().messages_sent)
        .sum();
    assert_eq!(
        sent,
        cluster.delivered,
        "{}: per-destination send counts must match delivered messages",
        P::NAME
    );
    // The protocol side leaves the counter to the driver.
    let protocol_side: u64 = cluster
        .process_ids()
        .iter()
        .map(|p| cluster.process(*p).metrics().messages_sent)
        .sum();
    assert_eq!(
        protocol_side,
        0,
        "{}: counting moved to the driver",
        P::NAME
    );
}

/// Message-loss scenario: every in-flight message is independently dropped with
/// p = 0.1; the protocol must still commit and execute a submitted command everywhere,
/// through whatever retransmission/recovery timers it owns. Protocols without
/// retransmission cannot pass — their tests below are `#[ignore]`d with the reason.
fn lossy_commit_round<P: Protocol>(
    config: Config,
    make: impl FnMut(ProcessId, ShardId) -> P,
    seed: u64,
) -> u64 {
    let mut cluster = LocalCluster::<P>::from_protocols(config, |p| View::trivial(config, p), make);
    cluster.set_message_loss(0.1, seed);
    cluster.submit_no_deliver(0, put(1, 1, 7, 9));
    cluster.run_to_quiescence();
    // Drive the protocol timers for up to 5 simulated seconds; retransmission and
    // recovery must finish the command at every replica well within that.
    let mut ticks = 0;
    while ticks < 1_000 {
        cluster.tick_all(5_000);
        ticks += 1;
        let all_executed = cluster
            .process_ids()
            .iter()
            .all(|p| cluster.process(*p).metrics().executed >= 1);
        if all_executed {
            break;
        }
    }
    for p in cluster.process_ids() {
        assert_eq!(
            cluster.process(p).metrics().executed,
            1,
            "{}: command must execute at process {p} despite p=0.1 loss (seed {seed})",
            P::NAME
        );
    }
    cluster.dropped
}

/// A counting shim: wraps `P`, forwards everything, and records what reaches the
/// protocol through its public entry points — in particular the `handle` calls whose
/// sender is the process itself, which only the driver's self-delivery produces.
struct Counted<P: Protocol> {
    inner: P,
    /// Every `handle` call, whoever sent the message.
    handled: u64,
    /// The kinds (first word of the `Debug` form) of the messages handled with
    /// `from == id()`, in order.
    from_self: Vec<String>,
    /// Entry points (`submit`/`handle`/`timer`) active right now, and the most ever.
    depth: u32,
    max_depth: u32,
}

impl<P: Protocol> Counted<P> {
    fn entered<T>(&mut self, call: impl FnOnce(&mut P) -> T) -> T {
        self.depth += 1;
        self.max_depth = self.max_depth.max(self.depth);
        let result = call(&mut self.inner);
        self.depth -= 1;
        result
    }
}

impl<P: Protocol> Protocol for Counted<P> {
    type Message = P::Message;
    type Executor = P::Executor;
    const NAME: &'static str = P::NAME;

    fn new(process: ProcessId, shard: ShardId, config: Config) -> Self {
        Self {
            inner: P::new(process, shard, config),
            handled: 0,
            from_self: Vec::new(),
            depth: 0,
            max_depth: 0,
        }
    }

    fn id(&self) -> ProcessId {
        self.inner.id()
    }

    fn shard(&self) -> ShardId {
        self.inner.shard()
    }

    fn discover(&mut self, view: View) -> Vec<Action<P::Message>> {
        self.inner.discover(view)
    }

    fn submit(&mut self, cmd: Command, now_us: u64) -> Vec<Action<P::Message>> {
        self.entered(|inner| inner.submit(cmd, now_us))
    }

    fn handle(&mut self, from: ProcessId, msg: P::Message, now_us: u64) -> Vec<Action<P::Message>> {
        self.handled += 1;
        if from == self.id() {
            let debug = format!("{msg:?}");
            let kind = debug.split(|c: char| !c.is_alphanumeric()).next();
            self.from_self.push(kind.unwrap_or_default().to_string());
        }
        self.entered(|inner| inner.handle(from, msg, now_us))
    }

    fn timer(&mut self, timer: TimerId, now_us: u64) -> Vec<Action<P::Message>> {
        self.entered(|inner| inner.timer(timer, now_us))
    }

    fn suspect(&mut self, process: ProcessId) {
        self.inner.suspect(process);
    }

    fn unsuspect(&mut self, process: ProcessId) {
        self.inner.unsuspect(process);
    }

    fn rejoin(&mut self, incarnation: u64, now_us: u64) -> Vec<Action<P::Message>> {
        self.inner.rejoin(incarnation, now_us)
    }

    fn persist(&mut self) {
        self.inner.persist();
    }

    fn attach_tracer(&mut self, tracer: Tracer) {
        self.inner.attach_tracer(tracer);
    }

    fn executor(&self) -> &P::Executor {
        self.inner.executor()
    }

    fn metrics(&self) -> ProtocolMetrics {
        self.inner.metrics()
    }
}

/// One put/get round submitted at process 0 (every protocol's coordinator for it — the
/// FPaxos leader included) through the counting shim.
fn counted_put_get<P: Protocol>(config: Config) -> LocalCluster<Counted<P>> {
    let mut cluster = LocalCluster::<Counted<P>>::new(config);
    cluster.submit(0, put(1, 1, 42, 7));
    cluster.submit(0, get(1, 2, 42));
    for _ in 0..4 {
        cluster.tick_all(5_000);
    }
    cluster
}

/// Self-delivery contract: the coordinator's messages to itself come back through
/// `handle` (a protocol dispatching them inline would show the shim none), one entry
/// point at a time, and never by way of the transport.
fn self_delivery_round<P: Protocol>(config: Config) {
    let cluster = counted_put_get::<P>(config);
    let shims: Vec<&Counted<P>> = cluster
        .process_ids()
        .into_iter()
        .map(|p| cluster.process(p))
        .collect();
    assert!(
        !shims[0].from_self.is_empty(),
        "{}: the coordinator must hear from itself through the driver",
        P::NAME
    );
    for shim in &shims {
        assert_eq!(
            shim.max_depth,
            1,
            "{}: nested entry at {}",
            P::NAME,
            shim.id()
        );
    }
    // No `Outbound` named its sender: everything handled beyond what the transport
    // carried is a self-delivery, and every self-addressed message is one of those.
    let handled: u64 = shims.iter().map(|s| s.handled).sum();
    let from_self: u64 = shims.iter().map(|s| s.from_self.len() as u64).sum();
    assert_eq!(
        handled - cluster.delivered,
        from_self,
        "{}: a self-addressed message travelled through the transport",
        P::NAME
    );
}

/// Client replies: a reply is a command's execution (`Action::Deliver`). Every replica
/// executes each command exactly once, and on the keys the replicas share every replica
/// executes in the same order and answers with the same results.
fn reply_contract<P: Protocol>(config: Config) {
    let mut cluster = LocalCluster::<P>::new(config);
    let ids = cluster.process_ids();
    let mut rifls = Vec::new();
    for (i, p) in ids.iter().enumerate() {
        let i = i as u64;
        // Keys 0 and 1 are shared across replicas, key 10 + i is this replica's own.
        for (seq, key) in [(1, i % 2), (2, 10 + i), (3, (i + 1) % 2)] {
            let cmd = match seq {
                3 => get(p + 1, seq, key),
                _ => put(p + 1, seq, key, 100 * i + seq),
            };
            rifls.push(cmd.rifl);
            cluster.submit_no_deliver(*p, cmd);
        }
    }
    cluster.run_to_quiescence();
    for _ in 0..6 {
        cluster.tick_all(5_000);
    }
    rifls.sort_unstable();
    let mut first: Option<Vec<tempo_kernel::protocol::Executed>> = None;
    for p in ids {
        let executed = cluster.executed(p);
        let mut seen: Vec<Rifl> = executed.iter().map(|e| e.rifl).collect();
        seen.sort_unstable();
        assert_eq!(seen, rifls, "{}: one execution per command at {p}", P::NAME);
        let on_keys = |list: &[tempo_kernel::protocol::Executed]| {
            let shared = |e: &&tempo_kernel::protocol::Executed| {
                e.result.outputs.iter().any(|(k, _)| *k < 2)
            };
            list.iter().filter(shared).cloned().collect::<Vec<_>>()
        };
        match &first {
            None => first = Some(on_keys(&executed)),
            Some(expected) => {
                for key in [0, 1] {
                    let on_key = |list: &[tempo_kernel::protocol::Executed]| {
                        let list = list.iter();
                        let on = list.filter(|e| e.result.outputs.iter().any(|(k, _)| *k == key));
                        on.cloned().collect::<Vec<_>>()
                    };
                    assert_eq!(
                        on_key(&executed),
                        on_key(expected),
                        "{}: replies on key {key} differ in order or result at {p}",
                        P::NAME
                    );
                }
            }
        }
    }
}

fn conformance<P: Protocol>(config: Config, timers: Timers) {
    put_get_round::<P>(config);
    reply_contract::<P>(config);
    contended_round::<P>(config);
    timer_contract::<P>(config, timers);
    message_accounting::<P>(config);
    self_delivery_round::<P>(config);
}

#[test]
fn tempo_conforms() {
    conformance::<Tempo>(Config::full(5, 1), Timers::Periodic);
    // f = 2 exercises Tempo's slow path under the contended round.
    conformance::<Tempo>(Config::full(5, 2), Timers::Periodic);
}

#[test]
fn tempo_fast_path_self_deliveries_are_pinned() {
    // n = 3, f = 1, fast quorum 2: the coordinator submits to itself, proposes to
    // itself, acknowledges to itself and commits to itself — four self-deliveries per
    // command — and nobody else ever addresses itself.
    let cluster = counted_put_get::<Tempo>(Config::full(3, 1));
    let per_command = ["MSubmit", "MPropose", "MProposeAck", "MCommit"];
    assert_eq!(
        cluster.process(0).from_self,
        [per_command, per_command].concat()
    );
    assert_eq!(cluster.process(0).inner.metrics().fast_paths, 2);
    for peer in [1, 2] {
        assert!(cluster.process(peer).from_self.is_empty(), "peer {peer}");
    }
}

#[test]
fn atlas_conforms() {
    conformance::<Atlas>(Config::full(5, 1), Timers::None);
    conformance::<Atlas>(Config::full(5, 2), Timers::None);
}

#[test]
fn epaxos_conforms() {
    conformance::<EPaxos>(Config::full(5, 2), Timers::None);
}

#[test]
fn fpaxos_conforms() {
    conformance::<FPaxos>(Config::full(5, 1), Timers::None);
    conformance::<FPaxos>(Config::full(5, 2), Timers::None);
}

#[test]
fn caesar_conforms() {
    conformance::<Caesar>(Config::full(5, 2), Timers::None);
}

#[test]
fn tempo_commits_under_message_loss() {
    // Tempo's liveness machinery (payload resend, MCommitRequest, leader recovery with
    // ballot retries — Appendix B) must mask a 10% message-loss rate. Short timeouts
    // keep the simulated time small.
    let config = Config::full(3, 1);
    let mut dropped_total = 0;
    for seed in 0..10u64 {
        dropped_total += lossy_commit_round::<Tempo>(
            config,
            |p, shard| {
                Tempo::with_options(
                    p,
                    shard,
                    config,
                    TempoOptions {
                        commit_request_timeout_us: 75_000,
                        ..TempoOptions::default()
                    },
                )
            },
            seed,
        );
    }
    assert!(
        dropped_total > 0,
        "the lossy transport must actually drop messages across the seeds"
    );
}

#[test]
#[ignore = "Atlas models steady-state operation only: it has no retransmission timers, so a lost message stalls the commit (documented baseline simplification, DESIGN.md §4)"]
fn atlas_commits_under_message_loss() {
    let config = Config::full(3, 1);
    lossy_commit_round::<Atlas>(config, |p, s| Atlas::new(p, s, config), 1);
}

#[test]
#[ignore = "EPaxos models steady-state operation only: no retransmission timers (DESIGN.md §4)"]
fn epaxos_commits_under_message_loss() {
    let config = Config::full(5, 2);
    lossy_commit_round::<EPaxos>(config, |p, s| EPaxos::new(p, s, config), 1);
}

#[test]
#[ignore = "FPaxos runs with a fixed leader and no retransmission: a lost accept stalls the slot (DESIGN.md §4)"]
fn fpaxos_commits_under_message_loss() {
    let config = Config::full(3, 1);
    lossy_commit_round::<FPaxos>(config, |p, s| FPaxos::new(p, s, config), 1);
}

#[test]
#[ignore = "Caesar models steady-state operation only: no retransmission timers (DESIGN.md §4)"]
fn caesar_commits_under_message_loss() {
    let config = Config::full(5, 2);
    lossy_commit_round::<Caesar>(config, |p, s| Caesar::new(p, s, config), 1);
}

#[test]
fn contention_reaches_the_slow_path_where_protocols_have_one() {
    // The conformance rounds above accept fast-path-only runs (Tempo f=1 is designed to
    // never leave it); this test pins protocols whose slow path *must* trigger under
    // concurrent conflicts on one key.
    let slow_of = |config, run: fn(Config) -> u64| run(config);
    fn run_epaxos(config: Config) -> u64 {
        let mut cluster = LocalCluster::<EPaxos>::new(config);
        for p in cluster.process_ids() {
            cluster.submit_no_deliver(p, put(p, 1, 0, p));
        }
        cluster.run_to_quiescence();
        cluster
            .process_ids()
            .iter()
            .map(|p| cluster.process(*p).metrics().slow_paths)
            .sum()
    }
    assert!(
        slow_of(Config::full(5, 2), run_epaxos) > 0,
        "EPaxos must fall back to the slow path under concurrent conflicts"
    );
}

/// Multi-shard (partial-replication) scenario: a two-shard write followed by a
/// two-shard read, both submitted at site 0. The contract: each command executes at
/// *every* replica of *both* accessed shards, write before read everywhere, and each
/// shard's read output observes that shard's write — i.e. the per-shard orders agree
/// on the cross-shard commands (this is the per-key slice of what the
/// `tempo_fault::serializability` checker verifies over whole histories).
fn multi_shard_round<P: Protocol>() {
    let config = Config::new(3, 1, 2);
    let mut cluster = LocalCluster::<P>::new(config);
    cluster.submit(
        0,
        Command::new(
            Rifl::new(1, 1),
            vec![(0, 10, KVOp::Put(1)), (1, 20, KVOp::Put(2))],
            0,
        ),
    );
    cluster.submit(
        0,
        Command::new(
            Rifl::new(1, 2),
            vec![(0, 10, KVOp::Get), (1, 20, KVOp::Get)],
            0,
        ),
    );
    for _ in 0..8 {
        cluster.tick_all(5_000);
    }
    // Processes 0..3 replicate shard 0 (key 10), processes 3..6 shard 1 (key 20).
    for p in cluster.process_ids() {
        let shard = if p < 3 { 0 } else { 1 };
        let (key, written) = if shard == 0 { (10, 1) } else { (20, 2) };
        let executed = cluster.executed(p);
        assert_eq!(
            executed.len(),
            2,
            "{}: both cross-shard commands must execute at process {p} (shard {shard})",
            P::NAME
        );
        assert_eq!(
            (executed[0].rifl, executed[1].rifl),
            (Rifl::new(1, 1), Rifl::new(1, 2)),
            "{}: write-then-read order at process {p}",
            P::NAME
        );
        assert_eq!(
            executed[1].result.outputs,
            vec![(key, Some(written))],
            "{}: the read must observe this shard's write at process {p}",
            P::NAME
        );
    }
}

#[test]
fn tempo_multi_shard_round() {
    multi_shard_round::<Tempo>();
}

#[test]
fn atlas_multi_shard_round() {
    multi_shard_round::<Atlas>();
}

#[test]
fn epaxos_multi_shard_round() {
    multi_shard_round::<EPaxos>();
}

#[test]
#[ignore = "FPaxos is leader-based single-shard SMR: each shard's leader orders its own slot space and there is no mechanism to align slots across shard leaders, so a two-shard command has no joint position (DESIGN.md §4)"]
fn fpaxos_multi_shard_round() {
    multi_shard_round::<FPaxos>();
}

#[test]
#[ignore = "Caesar orders by single-shard timestamps with per-shard dependency tracking: it has no cross-shard stability rule, so a two-shard command cannot wait for its sibling shard (DESIGN.md §4)"]
fn caesar_multi_shard_round() {
    multi_shard_round::<Caesar>();
}

#[test]
fn fpaxos_forwarded_submissions_reach_every_replica() {
    let mut cluster = LocalCluster::<FPaxos>::new(Config::full(5, 1));
    cluster.submit(4, put(1, 1, 0, 1));
    assert_eq!(cluster.process(0).metrics().fast_paths, 1);
    let executed: Vec<ProcessId> = cluster
        .process_ids()
        .into_iter()
        .filter(|p| !cluster.executed(*p).is_empty())
        .collect();
    assert_eq!(executed.len(), 5, "decisions reach every replica");
}
