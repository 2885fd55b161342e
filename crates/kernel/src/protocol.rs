//! The protocol abstraction shared by Tempo and every baseline (API v2).
//!
//! Each replication protocol is implemented as a *deterministic message-driven state
//! machine*: it consumes client submissions, peer messages and timer firings, and emits
//! typed [`Action`]s — messages to send, executed commands to deliver, and timers to
//! schedule. The same state machine is driven, unchanged, by the discrete-event simulator
//! (`tempo-sim`), the threaded cluster runtime (`tempo-runtime`) and the synchronous test
//! harness ([`crate::harness::LocalCluster`]) — mirroring the simulator/cluster/cloud
//! modes of the paper's evaluation framework (§6.1). All three are thin schedulers over
//! the shared [`crate::driver::Driver`] dispatch core.
//!
//! Following the paper's ordering/execution split (Algorithm 2), a protocol is two
//! cooperating stages:
//!
//! * the **ordering stage** implements [`Protocol`] — it decides *when* a command may
//!   execute (timestamp stability for Tempo, dependency graphs for Atlas/EPaxos — Janus*
//!   is Atlas over shards —
//!   log order for FPaxos, timestamp order for Caesar);
//! * the **execution stage** implements [`Executor`] — it owns the replicated key-value
//!   store and applies committed commands in the order the protocol decided.
//!
//! Executed commands are *pushed* to the embedding runtime through
//! [`Action::Deliver`]; there is no polling. Periodic work is *pulled into the protocol*:
//! each protocol schedules its own timers with [`Action::Schedule`] and reacts to them in
//! [`Protocol::timer`] — there is no global tick.

use crate::command::{Command, CommandResult};
use crate::config::Config;
use crate::id::{ProcessId, Rifl, ShardId, SiteId};
use crate::membership::Membership;
use std::collections::BTreeMap;
use std::fmt;

/// Estimated wire size of a message, consumed by the simulator's network/CPU cost model.
pub trait WireSize {
    /// Size of the message in bytes once serialized. The default is a small constant,
    /// appropriate for control messages that carry no command payload.
    fn wire_size(&self) -> usize {
        64
    }
}

/// Identifier of a protocol-owned timer.
///
/// Timer identities are defined by each protocol (e.g. Tempo's periodic promise
/// broadcast and its liveness scan); the runtime treats them as opaque. Timers are
/// one-shot: a protocol that wants periodic behaviour re-schedules the timer from its
/// [`Protocol::timer`] handler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerId(pub u64);

impl fmt::Display for TimerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "timer#{}", self.0)
    }
}

/// An action requested by a protocol state machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action<M> {
    /// Send `msg` to every process in `to`, which may name the sending process itself
    /// (Algorithm 1 sends to self and assumes the message arrives): the
    /// [`crate::driver::Driver`] hands that copy back through [`Protocol::handle`] once
    /// the current handler has returned, and passes only the remote destinations on to
    /// the runtime. `to` must be duplicate-free.
    Send {
        /// Destination processes.
        to: Vec<ProcessId>,
        /// The message.
        msg: M,
    },
    /// A command executed at this process, pushed to the embedding runtime in execution
    /// order (replaces the v1 `drain_executed` polling method).
    Deliver(Executed),
    /// Request a one-shot timer firing `after_us` microseconds from now; the runtime
    /// calls [`Protocol::timer`] with the same identifier once the delay elapses.
    Schedule {
        /// Protocol-defined timer identity passed back on firing.
        timer: TimerId,
        /// Delay until the firing, in microseconds (clamped to at least 1).
        after_us: u64,
    },
}

impl<M> Action<M> {
    /// Convenience constructor for a send action.
    pub fn send(to: Vec<ProcessId>, msg: M) -> Self {
        Action::Send { to, msg }
    }

    /// Convenience constructor for a send to a single process.
    pub fn send_one(to: ProcessId, msg: M) -> Self {
        Action::Send { to: vec![to], msg }
    }

    /// Convenience constructor for a timer request.
    pub fn schedule(timer: TimerId, after_us: u64) -> Self {
        Action::Schedule { timer, after_us }
    }
}

/// A command executed at one process (of one shard), reported in execution order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Executed {
    /// The request identifier of the executed command.
    pub rifl: Rifl,
    /// The partial result produced by this shard.
    pub result: CommandResult,
}

/// Counters exposed by every protocol, used by the benchmark harnesses and tests.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProtocolMetrics {
    /// Commands committed through the fast path at this process (coordinator side).
    pub fast_paths: u64,
    /// Commands committed through the slow path at this process (coordinator side).
    pub slow_paths: u64,
    /// Commands committed at this process (any role).
    pub committed: u64,
    /// Commands executed at this process.
    pub executed: u64,
    /// Recoveries started by this process (Algorithm 4 take-overs, counting ballot
    /// retries).
    pub recoveries_started: u64,
    /// Commands that committed at this process after it started a recovery for them —
    /// the count nemesis runs assert on to prove the recovery path actually fired.
    pub recoveries_completed: u64,
    /// Committed commands whose metadata was garbage collected at this process after
    /// every shard peer executed them (Tempo's executed-watermark GC; 0 for protocols
    /// without command GC). Accounted separately from `committed`/`executed` so GC does
    /// not perturb the cross-protocol comparison counters.
    pub gc_collected: u64,
    /// Point-to-point messages (counted per destination) that carried *only* GC
    /// watermarks — frontier-only `MPromises` sent when execution advanced but no
    /// promises were pending. A subset of `messages_sent`, kept separately so the
    /// seed-comparable message count is `messages_sent - gc_messages`.
    pub gc_messages: u64,
    /// Point-to-point messages produced by this process, counted per destination
    /// delivery: a `Send` to `k` remote peers counts as `k` messages, so simulator
    /// CPU-model accounting and the throughput-bench counters agree across protocols.
    /// Maintained uniformly by the [`crate::driver::Driver`]; protocols leave it at 0.
    pub messages_sent: u64,
    /// Write-ahead-log records appended to this process's durable store (0 for
    /// protocols without a store, or with a store that never wrote).
    pub wal_appends: u64,
    /// Bytes appended to the write-ahead log (frame overhead included).
    pub wal_bytes: u64,
    /// Durable snapshots installed by this process (each truncates its WAL).
    pub snapshots_taken: u64,
}

impl ProtocolMetrics {
    /// Fraction of coordinator-side commits that used the fast path.
    pub fn fast_path_ratio(&self) -> f64 {
        let total = self.fast_paths + self.slow_paths;
        if total == 0 {
            0.0
        } else {
            self.fast_paths as f64 / total as f64
        }
    }

    /// Adds `other`'s counters to these: how the simulator and the runtime sum their
    /// processes into one run total.
    pub fn merge(&mut self, other: &ProtocolMetrics) {
        // A struct literal without `..`: a new counter cannot be left out of the sum.
        *self = ProtocolMetrics {
            fast_paths: self.fast_paths + other.fast_paths,
            slow_paths: self.slow_paths + other.slow_paths,
            committed: self.committed + other.committed,
            executed: self.executed + other.executed,
            recoveries_started: self.recoveries_started + other.recoveries_started,
            recoveries_completed: self.recoveries_completed + other.recoveries_completed,
            gc_collected: self.gc_collected + other.gc_collected,
            gc_messages: self.gc_messages + other.gc_messages,
            messages_sent: self.messages_sent + other.messages_sent,
            wal_appends: self.wal_appends + other.wal_appends,
            wal_bytes: self.wal_bytes + other.wal_bytes,
            snapshots_taken: self.snapshots_taken + other.snapshots_taken,
        };
    }
}

/// The static view of the deployment handed to a protocol at start-up.
///
/// Besides membership, it carries — for each shard — the processes of that shard sorted by
/// ascending network distance from this process's site. Protocols use it to pick fast
/// quorums made of the closest replicas (as the paper's implementation does) and to find
/// the colocated replica of every other shard (the set `I^i_c`).
#[derive(Debug, Clone)]
pub struct View {
    /// The deployment configuration.
    pub config: Config,
    /// The process grid.
    pub membership: Membership,
    /// The site of the process owning this view.
    pub site: SiteId,
    /// For each shard, its processes sorted by ascending distance from `site` (the
    /// colocated process, if any, comes first).
    pub sorted_by_distance: BTreeMap<ShardId, Vec<ProcessId>>,
}

impl View {
    /// Builds a view in which distance is measured by site-identifier distance (useful for
    /// tests and for deployments without a geographic model).
    pub fn trivial(config: Config, process: ProcessId) -> Self {
        let membership = Membership::from_config(&config);
        let site = membership.site_of(process);
        let sites = membership.sites() as u64;
        let mut sorted_by_distance = BTreeMap::new();
        for shard in 0..membership.shards() as u64 {
            let mut processes = membership.processes_of_shard(shard);
            processes.sort_by_key(|p| {
                let s = membership.site_of(*p);
                // Ring distance between sites, colocated first.
                let d = (s + sites - site) % sites;
                (d, *p)
            });
            sorted_by_distance.insert(shard, processes);
        }
        Self {
            config,
            membership,
            site,
            sorted_by_distance,
        }
    }

    /// The processes of `shard` closest to this process, in ascending distance order.
    pub fn closest(&self, shard: ShardId) -> &[ProcessId] {
        self.sorted_by_distance
            .get(&shard)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The closest process of `shard` (the colocated one when the site hosts the shard).
    pub fn closest_process(&self, shard: ShardId) -> ProcessId {
        self.closest(shard)[0]
    }

    /// A fast quorum of `size` processes of `shard`, made of the closest replicas
    /// (including the colocated coordinator).
    pub fn fast_quorum(&self, shard: ShardId, size: usize) -> Vec<ProcessId> {
        let closest = self.closest(shard);
        assert!(
            size <= closest.len(),
            "fast quorum of {size} requested but shard {shard} has only {} replicas",
            closest.len()
        );
        closest[..size].to_vec()
    }

    /// All processes of `shard` (`I_p`).
    pub fn shard_processes(&self, shard: ShardId) -> Vec<ProcessId> {
        self.membership.processes_of_shard(shard)
    }

    /// For a command, the set `I^i_c`: one process per accessed shard, each the closest
    /// replica of that shard from this process's site.
    pub fn local_coordinators(&self, cmd: &Command) -> Vec<ProcessId> {
        cmd.shards().map(|s| self.closest_process(s)).collect()
    }

    /// For a command, the set `I_c`: every process replicating a shard the command
    /// accesses.
    pub fn all_replicas(&self, cmd: &Command) -> Vec<ProcessId> {
        let mut out = Vec::new();
        for shard in cmd.shards() {
            out.extend(self.shard_processes(shard));
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// The execution stage of a protocol: applies committed commands to the replicated
/// key-value store in the order decided by the ordering stage (the paper's
/// ordering/execution split, Algorithm 2).
///
/// Each protocol crate implements this trait for its own execution discipline —
/// timestamp stability (`TempoExecutor`), dependency graphs (`GraphExecutor`), log slots
/// (`SlotExecutor`) — which makes the stage independently testable: an executor can be
/// driven with hand-crafted [`Executor::Info`] events without running the commit
/// protocol at all.
pub trait Executor {
    /// Ordering metadata handed from the ordering stage to the executor (committed
    /// commands plus whatever the discipline needs: timestamps, dependencies, slots,
    /// stability watermarks).
    type Info: fmt::Debug;

    /// Creates the executor for `process`, replicating `shard`.
    fn new(process: ProcessId, shard: ShardId, config: Config) -> Self;

    /// Feeds one ordering event and returns the commands that became executable, in
    /// execution order.
    fn handle(&mut self, info: Self::Info) -> Vec<Executed>;

    /// Number of commands executed so far.
    fn executed(&self) -> u64;
}

/// A replication protocol instance running at one process (replica of one shard).
///
/// The trait covers the *ordering* stage only — [`submit`](Protocol::submit),
/// [`handle`](Protocol::handle) and [`timer`](Protocol::timer) — and communicates with
/// the outside world exclusively through the returned [`Action`]s. Execution is
/// delegated to the associated [`Executor`], whose output the protocol forwards as
/// [`Action::Deliver`].
pub trait Protocol: Sized {
    /// The wire messages exchanged between processes.
    type Message: Clone + fmt::Debug + WireSize;

    /// The execution stage used by this protocol.
    type Executor: Executor;

    /// Human-readable protocol name (used in reports: "Tempo", "Atlas", ...).
    const NAME: &'static str;

    /// Creates the protocol state machine for `process`, replicating `shard`.
    fn new(process: ProcessId, shard: ShardId, config: Config) -> Self;

    /// The identifier of this process.
    fn id(&self) -> ProcessId;

    /// The shard replicated by this process.
    fn shard(&self) -> ShardId;

    /// Provides the static deployment view; called once before any command is submitted.
    /// The returned actions are where a protocol schedules its initial timers.
    fn discover(&mut self, view: View) -> Vec<Action<Self::Message>>;

    /// Submits a client command at this process (which must replicate one of the shards
    /// the command accesses). Returns the actions to perform.
    fn submit(&mut self, cmd: Command, now_us: u64) -> Vec<Action<Self::Message>>;

    /// Handles a message from `from`. Returns the actions to perform.
    fn handle(
        &mut self,
        from: ProcessId,
        msg: Self::Message,
        now_us: u64,
    ) -> Vec<Action<Self::Message>>;

    /// Handles the firing of a timer previously requested with [`Action::Schedule`].
    /// Protocols with periodic behaviour (promise broadcast, liveness scans, recovery
    /// timeouts) re-schedule the timer here.
    fn timer(&mut self, timer: TimerId, now_us: u64) -> Vec<Action<Self::Message>>;

    /// Informs the protocol that `process` is suspected to have failed — the embedding
    /// runtime's stand-in for the Ω failure detector of the paper's Appendix B. Protocols
    /// without failure handling ignore it (the default).
    ///
    /// Suspicion is advisory, never load-bearing for safety: a wrong suspicion may only
    /// cost latency (Tempo, for instance, uses it to route new commands and fast
    /// quorums around the suspected process and to elect the recovery leader — the
    /// lowest *non-suspected* shard peer — but quorum intersection still provides
    /// correctness). There is no obligation to ever call this; a runtime with no
    /// failure detector simply leaves recovery to the protocol's own timeouts.
    fn suspect(&mut self, _process: ProcessId) {}

    /// Withdraws a suspicion raised with [`Protocol::suspect`] (e.g. the process
    /// restarted and rejoined). Ignored by default. After withdrawal the process is
    /// again eligible for fast quorums and coordination duties.
    fn unsuspect(&mut self, _process: ProcessId) {}

    /// Called once on a protocol instance rebuilt after a crash, with the 1-based
    /// restart count of this process. Protocols that support rejoining return the
    /// actions of their rejoin handshake (and must make their command identifiers
    /// disjoint from earlier incarnations — Tempo reserves the dot band
    /// `incarnation << 48`); the default — for protocols without restart support —
    /// returns no actions, which leaves the restarted replica as a best-effort
    /// participant.
    ///
    /// What "rebuilt" means depends on the backing store: a *diskless* instance starts
    /// blank and must treat its entire past as unknown (Tempo suspends proposals and
    /// consensus participation until its `MRejoin` handshake re-establishes a safe
    /// clock floor — see `DESIGN.md` §5), while an instance constructed around a
    /// durable store (e.g. `Tempo::with_store`) has already replayed its
    /// snapshot + WAL by the time `rejoin` runs, and the handshake only re-derives
    /// what durability cannot: the peers' promise prefixes and — via the
    /// snapshot/state-transfer exchange — the commands this replica missed while down
    /// (`DESIGN.md` §6). Volatile state (in-flight quorums, timers, suspicions) is
    /// lost in both cases.
    fn rejoin(&mut self, _incarnation: u64, _now_us: u64) -> Vec<Action<Self::Message>> {
        Vec::new()
    }

    /// Persistence hook, called by the [`crate::driver::Driver`] once at the end of every
    /// dispatch step — after the protocol's actions were absorbed and the self-addressed
    /// messages among them handled, *before* the step's outbound messages are handed to
    /// the scheduler's transport. A protocol with a
    /// durable store flushes it here (one batched `fsync` per step), which yields the
    /// write-ahead guarantee: no message leaves a process before the state that
    /// produced it is durable. The default (for in-memory protocols) is a no-op.
    fn persist(&mut self) {}

    /// Installs a [`Tracer`](crate::trace::Tracer) for per-command phase events
    /// (`PayloadDelivered`/`Proposed`/`Committed`/`Stable` and recovery markers —
    /// everything between the driver-emitted `Submitted` and `Executed`). Protocols
    /// without tracing hooks ignore it (the default), which merely yields a coarser
    /// trace; never required for correctness.
    fn attach_tracer(&mut self, _tracer: crate::trace::Tracer) {}

    /// Read access to the execution stage (diagnostics and tests).
    fn executor(&self) -> &Self::Executor;

    /// Protocol counters. `messages_sent` is maintained by the [`crate::driver::Driver`]
    /// (one count per destination process), not by the protocol itself.
    fn metrics(&self) -> ProtocolMetrics;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::KVOp;

    #[test]
    fn trivial_view_full_replication() {
        let config = Config::full(5, 1);
        let view = View::trivial(config, 2);
        assert_eq!(view.site, 2);
        // Closest process of shard 0 is the colocated one.
        assert_eq!(view.closest_process(0), 2);
        let fq = view.fast_quorum(0, config.fast_quorum_size());
        assert_eq!(fq.len(), 3);
        assert_eq!(fq[0], 2);
        assert_eq!(view.shard_processes(0), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn trivial_view_partial_replication() {
        let config = Config::new(3, 1, 2);
        let view = View::trivial(config, 1); // shard 0, site 1
        let cmd = Command::new(
            Rifl::new(1, 1),
            vec![(0, 7, KVOp::Get), (1, 9, KVOp::Put(1))],
            0,
        );
        // Local coordinators: colocated processes of shards 0 and 1 at site 1.
        assert_eq!(view.local_coordinators(&cmd), vec![1, 4]);
        let all = view.all_replicas(&cmd);
        assert_eq!(all, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    #[should_panic(expected = "fast quorum")]
    fn oversized_fast_quorum_panics() {
        let config = Config::full(3, 1);
        let view = View::trivial(config, 0);
        let _ = view.fast_quorum(0, 4);
    }

    #[test]
    fn metrics_fast_path_ratio() {
        let mut m = ProtocolMetrics::default();
        assert_eq!(m.fast_path_ratio(), 0.0);
        m.fast_paths = 3;
        m.slow_paths = 1;
        assert!((m.fast_path_ratio() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn metrics_merge_sums_every_counter_into_its_own_field() {
        let a = ProtocolMetrics {
            fast_paths: 1,
            slow_paths: 2,
            committed: 3,
            executed: 4,
            recoveries_started: 5,
            recoveries_completed: 6,
            gc_collected: 7,
            gc_messages: 8,
            messages_sent: 9,
            wal_appends: 10,
            wal_bytes: 11,
            snapshots_taken: 12,
        };
        let mut total = a.clone();
        total.merge(&a);
        total.merge(&ProtocolMetrics::default());
        assert_eq!(
            total,
            ProtocolMetrics {
                fast_paths: 2,
                slow_paths: 4,
                committed: 6,
                executed: 8,
                recoveries_started: 10,
                recoveries_completed: 12,
                gc_collected: 14,
                gc_messages: 16,
                messages_sent: 18,
                wal_appends: 20,
                wal_bytes: 22,
                snapshots_taken: 24,
            }
        );
    }

    #[test]
    fn action_constructors() {
        let a: Action<u32> = Action::send_one(3, 42);
        match a {
            Action::Send { to, msg } => {
                assert_eq!(to, vec![3]);
                assert_eq!(msg, 42);
            }
            other => panic!("expected a send action, got {other:?}"),
        }
        let s: Action<u32> = Action::schedule(TimerId(7), 5_000);
        assert_eq!(
            s,
            Action::Schedule {
                timer: TimerId(7),
                after_us: 5_000
            }
        );
    }
}
