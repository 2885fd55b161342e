//! `tempo-sim` — a discrete-event simulator for geo-replicated SMR protocols.
//!
//! The paper's framework provides three execution modes: cloud (EC2), cluster (LAN with
//! injected wide-area delays) and a simulator that "computes the observed client latency
//! in a given wide-area configuration when CPU and network bottlenecks are disregarded"
//! (§6.1). This crate reproduces the simulator mode and extends it with an optional
//! analytical [`CpuModel`] so that the saturation behaviour of Figures 7-9 can also be
//! studied on a laptop.
//!
//! A simulation runs closed-loop clients at each site against one protocol instance per
//! (site, shard) pair; messages are delivered after the one-way latency of the
//! [`Planet`]; executed commands complete the issuing client's
//! request once every accessed shard has executed the command at the client's site.
//!
//! The simulator is a thin scheduler over the kernel's generic
//! [`Driver`]: it owns transport (the latency-modelled
//! event queue) and time, while all submit/handle/timer dispatch — including the
//! protocol-owned periodic timers that replaced the v1 global tick — lives in the shared
//! driver core.
//!
//! # The fault plane
//!
//! [`SimOpts::nemesis`] plugs a [`Nemesis`] schedule into the event loop: before every
//! delivery the simulator consults the crash/partition/lossy-link state (messages from
//! or to a crashed process — or from a *previous incarnation* of a restarted one — are
//! lost, modelling TCP connections dying with their endpoint), crashed processes stop
//! firing timers and are skipped by client failover, and a `Restart` rebuilds the
//! process from `Protocol::new` (volatile state lost) and runs its rejoin hook. Nobody
//! tells the survivors about a crash or a restart: every process runs a `tempo-fault`
//! [`FailureDetector`] fed by heartbeats that cross the same afflicted network as
//! protocol messages (and by every message that arrives), and its suspicions are the
//! only ones the protocols see ([`RunReport::detector`]). Every injected fault and
//! every frame it cost is tallied in the run report's fault summary
//! ([`RunReport::faults`]). With [`SimOpts::record_history`] the run also produces a
//! [`History`] of client invocations/responses and per-replica execution sequences for
//! the `tempo-fault` safety checker; [`SimOpts::client_timeout_us`] lets closed-loop
//! clients give up on commands stranded by a fault (counted per client as aborted).
//!
//! # Durable state across restarts
//!
//! By default a `Restart` rebuilds the process via `Protocol::new` — fully amnesiac.
//! [`Simulation::with_factory`] replaces that constructor with a caller-supplied
//! [`ProtocolFactory`], which the simulator invokes both at boot (incarnation 0) and on
//! every restart (incarnation ≥ 1). A factory that wires each process to a durable
//! store handle (`tempo-store`'s `MemStore` clones, or a `FileStore` directory reopened
//! per incarnation) thereby models a disk that survives the crash: the nemesis still
//! destroys all volatile state with the old instance, but the durable half persists —
//! which is what lets chaos tests distinguish disk from memory.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;

pub use report::{ClientTally, RunReport, SiteReport};

use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::Arc;
use tempo_fault::{
    DetectorEvent, DetectorStats, FailureDetector, FaultEvent, History, Nemesis, NemesisSchedule,
    HEARTBEAT_INTERVAL_US,
};
use tempo_kernel::command::Command;
use tempo_kernel::config::Config;
use tempo_kernel::driver::{Driver, Output};
use tempo_kernel::id::{ClientId, ProcessId, Rifl, ShardId, SiteId};
use tempo_kernel::membership::Membership;
use tempo_kernel::metrics::LogHistogram;
use tempo_kernel::protocol::{Protocol, ProtocolMetrics, View, WireSize};
use tempo_kernel::trace::{CmdPhase, ProcEvent, Tracer, DEFAULT_TRACE_CAPACITY};
use tempo_load::{Mix, Session};
use tempo_planet::Planet;
use tempo_trace::{merge_and_fold, MetricsRegistry};

/// Analytical CPU/network cost model (the substitute for the paper's real-cluster
/// hardware bottlenecks, see DESIGN.md §2).
///
/// Each process is modelled as a single server: *receiving* a message keeps it busy for
/// `per_message_us + per_kilobyte_us · size/1024` microseconds, *sending* a message to a
/// remote process costs the same (serialization plus outgoing bandwidth — this is what
/// turns the FPaxos leader, which broadcasts every command, into the bottleneck the paper
/// observes in Figure 7), and each local command execution adds `per_execution_us`.
/// Messages that arrive while the process is busy queue up, which is what produces
/// saturation as the client load grows.
#[derive(Debug, Clone, Copy)]
pub struct CpuModel {
    /// Fixed cost of handling one message, in microseconds.
    pub per_message_us: f64,
    /// Cost per kilobyte of message payload, in microseconds.
    pub per_kilobyte_us: f64,
    /// Cost of executing one command against the local store, in microseconds.
    pub per_execution_us: f64,
}

impl CpuModel {
    /// A model loosely calibrated against the paper's cluster (8 vCPUs, 16 TCP sockets):
    /// a few microseconds per message plus a per-byte serialization cost.
    pub fn cluster() -> Self {
        Self {
            per_message_us: 4.0,
            per_kilobyte_us: 2.0,
            per_execution_us: 1.0,
        }
    }

    fn message_cost_us(&self, wire_size: usize) -> u64 {
        (self.per_message_us + self.per_kilobyte_us * wire_size as f64 / 1024.0).ceil() as u64
    }
}

/// Simulation options.
///
/// There is no tick interval here: periodic behaviour belongs to the protocols, which
/// schedule their own timers (e.g. Tempo's 5 ms promise broadcast).
#[derive(Debug, Clone)]
pub struct SimOpts {
    /// Closed-loop clients per site.
    pub clients_per_site: usize,
    /// Commands issued by each client.
    pub commands_per_client: usize,
    /// Optional CPU cost model; `None` reproduces the paper's idealized simulator mode.
    pub cpu: Option<CpuModel>,
    /// Seed of the nemesis's message-drop draws (the command mix carries its own seed).
    pub seed: u64,
    /// Safety cap on simulated time; a run that exceeds it is reported as stalled.
    pub max_sim_time_us: u64,
    /// Optional fault schedule injected while the run executes.
    pub nemesis: Option<NemesisSchedule>,
    /// When set, a client gives up on a command with no response after this long (the
    /// command is tallied as aborted — it may still take effect) and issues its next
    /// one. Without it a command stranded by a crash stalls its client forever.
    pub client_timeout_us: Option<u64>,
    /// Record the client/replica [`History`] for the `tempo-fault` checker.
    pub record_history: bool,
    /// Record per-command lifecycle events (submit, payload, propose, commit, stable,
    /// execute, reply) and process-level events (crash, restart, suspicion, recovery)
    /// into one fixed-capacity ring per process. The merged, time-sorted
    /// [`TraceLog`](tempo_kernel::trace::TraceLog) lands in [`RunReport::trace`] with
    /// its per-phase latency fold in [`RunReport::phases`]. Virtual-clock timestamps
    /// make the trace byte-identical across same-seed runs.
    pub trace: bool,
    /// When set, snapshot aggregated protocol counters (committed, executed, messages
    /// sent, completed commands, suspicions) every this many simulated microseconds
    /// into [`RunReport::registry`] — the time-series half of the observability plane.
    pub metrics_interval_us: Option<u64>,
}

impl Default for SimOpts {
    fn default() -> Self {
        Self {
            clients_per_site: 16,
            commands_per_client: 20,
            cpu: None,
            seed: 1,
            max_sim_time_us: 600_000_000,
            nemesis: None,
            client_timeout_us: None,
            record_history: false,
            trace: false,
            metrics_interval_us: None,
        }
    }
}

enum EventKind<M> {
    Deliver {
        from: ProcessId,
        /// The sender's incarnation when the message left: a restart in between kills
        /// the connection, so the message is lost with it.
        from_incarnation: u64,
        /// The destination's incarnation at send time: a message addressed to an
        /// incarnation that has since crashed (or been replaced) dies with it too.
        to_incarnation: u64,
        to: ProcessId,
        /// Shared across the destinations of one broadcast: an n-way fan-out enqueues n
        /// reference bumps, not n deep copies of the message (command payload included).
        msg: Arc<M>,
    },
    /// Wake a process because one of its protocol-scheduled timers may be due.
    TimerWake {
        process: ProcessId,
    },
    ClientSubmit {
        client: ClientId,
    },
    /// The client gives up on `rifl` unless it completed in the meantime.
    ClientTimeout {
        client: ClientId,
        rifl: Rifl,
    },
    /// Apply the fault events due at this instant.
    NemesisWake,
    /// Snapshot aggregated protocol counters into the metrics registry
    /// (`SimOpts::metrics_interval_us`).
    MetricsSample,
    /// The process scans for overdue peers and broadcasts a heartbeat.
    DetectorTick {
        process: ProcessId,
    },
    /// A heartbeat frame arriving at `to`. Routed through the same nemesis gating as
    /// protocol messages — that is what makes suspicion fallible.
    HeartbeatDeliver {
        from: ProcessId,
        from_incarnation: u64,
        to_incarnation: u64,
        to: ProcessId,
    },
}

struct Event<M> {
    time: u64,
    seq: u64,
    kind: EventKind<M>,
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<M> Eq for Event<M> {}
impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Event<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse so that the BinaryHeap pops the earliest event first.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// Builds the protocol instance of one process. Called at boot with incarnation 0 and
/// again on every nemesis `Restart` with the 1-based restart count; the factory decides
/// what survives (e.g. by reusing a durable store handle) — the simulator always
/// discards the previous instance, so volatile state is lost regardless.
pub type ProtocolFactory<P> = Box<dyn FnMut(ProcessId, ShardId, Config, u64) -> P>;

struct ClientState {
    site: SiteId,
    issued: usize,
    completed: usize,
    aborted: usize,
    /// The current command, started at its submission instant.
    session: Session,
}

/// The discrete-event simulation of one protocol deployment.
pub struct Simulation<P: Protocol, M: Mix> {
    config: Config,
    membership: Membership,
    planet: Planet,
    opts: SimOpts,
    factory: ProtocolFactory<P>,
    drivers: BTreeMap<ProcessId, Driver<P>>,
    mix: M,
    clients: BTreeMap<ClientId, ClientState>,
    /// Per site, the view its clients watch replicas through: the one its replicas
    /// sort their quorums by.
    site_views: Vec<View>,
    queue: BinaryHeap<Event<P::Message>>,
    next_seq: u64,
    busy_until: BTreeMap<ProcessId, u64>,
    /// The earliest registered timer wake-up per process (to avoid duplicate events).
    timer_wakes: BTreeMap<ProcessId, u64>,
    now: u64,
    nemesis: Option<Nemesis>,
    /// Per-process failure detectors, the only source of suspicion (rebuilt on
    /// restart).
    detectors: BTreeMap<ProcessId, FailureDetector>,
    /// Detector counters of dead incarnations, folded in at restart time.
    detector_stats: DetectorStats,
    /// Restart count per process (0 = the original incarnation).
    incarnations: BTreeMap<ProcessId, u64>,
    history: Option<History>,
    completed_total: u64,
    aborted_total: u64,
    first_submit: u64,
    last_completion: u64,
    per_site: BTreeMap<SiteId, LogHistogram>,
    overall: LogHistogram,
    /// One lifecycle-event ring per process (`SimOpts::trace`); restarted incarnations
    /// keep appending to their process's ring. Empty when tracing is off, which makes
    /// every trace lookup on the hot path a failed BTreeMap probe of an empty map.
    tracers: BTreeMap<ProcessId, Tracer>,
    registry: Option<MetricsRegistry>,
}

impl<P: Protocol, M: Mix> Simulation<P, M> {
    /// Creates a simulation of `config` deployed over `planet` whose clients draw their
    /// commands from `mix`.
    ///
    /// # Panics
    ///
    /// Panics if the planet does not have exactly one region per site of the config.
    pub fn new(config: Config, planet: Planet, opts: SimOpts, mix: M) -> Self {
        Self::with_factory(
            config,
            planet,
            opts,
            mix,
            Box::new(|id, shard, config, _incarnation| P::new(id, shard, config)),
        )
    }

    /// Creates a simulation whose protocol instances are built by `factory` instead of
    /// `Protocol::new` — at boot (incarnation 0) and again on every nemesis restart
    /// (incarnation ≥ 1). This is how durable state enters the fault model: a factory
    /// that hands every incarnation of a process the same `tempo-store` backend makes
    /// the store survive the crash while volatile state is still lost.
    ///
    /// # Panics
    ///
    /// Panics if the planet does not have exactly one region per site of the config.
    pub fn with_factory(
        config: Config,
        planet: Planet,
        opts: SimOpts,
        mix: M,
        mut factory: ProtocolFactory<P>,
    ) -> Self {
        assert_eq!(
            planet.len(),
            config.n(),
            "planet must have one region per site"
        );
        let membership = Membership::from_config(&config);
        let mut drivers = BTreeMap::new();
        let mut tracers = BTreeMap::new();
        for id in membership.all_processes() {
            let shard = membership.shard_of(id);
            let mut driver = Driver::from_protocol(factory(id, shard, config, 0));
            if opts.trace {
                let tracer = Tracer::with_capacity(DEFAULT_TRACE_CAPACITY);
                driver.set_tracer(tracer.clone());
                tracers.insert(id, tracer);
            }
            drivers.insert(id, driver);
        }
        let mut clients = BTreeMap::new();
        let mut client_id: ClientId = 0;
        for site in membership.all_sites() {
            for _ in 0..opts.clients_per_site {
                clients.insert(
                    client_id,
                    ClientState {
                        site,
                        issued: 0,
                        completed: 0,
                        aborted: 0,
                        session: Session::default(),
                    },
                );
                client_id += 1;
            }
        }
        let site_views = membership
            .all_sites()
            .into_iter()
            .map(|site| planet.view_for(config, membership.process(0, site)))
            .collect();
        let per_site = membership
            .all_sites()
            .into_iter()
            .map(|s| (s, LogHistogram::new()))
            .collect();
        let nemesis = opts
            .nemesis
            .clone()
            .map(|schedule| Nemesis::new(schedule, opts.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        let history = opts.record_history.then(History::new);
        let detectors = membership
            .all_processes()
            .into_iter()
            .map(|p| {
                let peers = membership.all_processes().into_iter().filter(|&q| q != p);
                (p, FailureDetector::new(peers, 0))
            })
            .collect();
        let registry = opts
            .metrics_interval_us
            .is_some()
            .then(MetricsRegistry::new);
        Self {
            config,
            membership,
            planet,
            opts,
            factory,
            drivers,
            mix,
            clients,
            site_views,
            queue: BinaryHeap::new(),
            next_seq: 0,
            busy_until: BTreeMap::new(),
            timer_wakes: BTreeMap::new(),
            now: 0,
            nemesis,
            detectors,
            detector_stats: DetectorStats::default(),
            incarnations: BTreeMap::new(),
            history,
            completed_total: 0,
            aborted_total: 0,
            first_submit: u64::MAX,
            last_completion: 0,
            per_site,
            overall: LogHistogram::new(),
            tracers,
            registry,
        }
    }

    fn push(&mut self, time: u64, kind: EventKind<P::Message>) {
        self.next_seq += 1;
        self.queue.push(Event {
            time,
            seq: self.next_seq,
            kind,
        });
    }

    fn is_down(&self, process: ProcessId) -> bool {
        self.nemesis.as_ref().is_some_and(|n| n.is_down(process))
    }

    fn incarnation_of(&self, process: ProcessId) -> u64 {
        self.incarnations.get(&process).copied().unwrap_or(0)
    }

    fn charge_cpu(&mut self, process: ProcessId, arrival: u64, wire_size: usize) -> u64 {
        match self.opts.cpu {
            None => arrival,
            Some(cpu) => {
                let busy = self.busy_until.entry(process).or_insert(0);
                let start = arrival.max(*busy);
                let finish = start + cpu.message_cost_us(wire_size);
                *busy = finish;
                finish
            }
        }
    }

    fn charge_executions(&mut self, process: ProcessId, count: usize) {
        if let Some(cpu) = self.opts.cpu {
            let busy = self.busy_until.entry(process).or_insert(0);
            *busy += (cpu.per_execution_us * count as f64).ceil() as u64;
        }
    }

    /// Acts on one driver step: transports sends with the planet's latency (and the CPU
    /// model's send cost), completes client requests from executed commands, and
    /// registers a timer wake-up if the step scheduled one.
    fn absorb(&mut self, from: ProcessId, at: u64, output: Output<P::Message>) {
        let from_site = self.membership.site_of(from);
        let from_incarnation = self.incarnation_of(from);
        let mut send_cost = 0u64;
        for send in output.sends {
            let wire_size = send.msg.wire_size();
            // One allocation per broadcast; each destination holds a reference.
            let msg = Arc::new(send.msg);
            for target in send.to {
                // Sending costs CPU/outgoing bandwidth at the sender.
                if let Some(cpu) = self.opts.cpu {
                    send_cost += cpu.message_cost_us(wire_size);
                }
                let mut latency = self
                    .planet
                    .one_way_us(from_site, self.membership.site_of(target));
                let mut duplicate = false;
                if let Some(nemesis) = &mut self.nemesis {
                    // Delay spikes (and slow-node gray faults) stretch the link at send
                    // time (like the serialization delay they model); drops apply at
                    // delivery time. Reorder holdback also applies here: the held frame
                    // is overtaken by everything sent after it.
                    latency += nemesis.send_delay(from, target);
                    if let Some(extra) = nemesis.reorder_delay(from, target) {
                        latency += extra;
                    }
                    duplicate = nemesis.should_duplicate(from, target);
                }
                let to_incarnation = self.incarnation_of(target);
                self.push(
                    at + send_cost + latency,
                    EventKind::Deliver {
                        from,
                        from_incarnation,
                        to_incarnation,
                        to: target,
                        msg: Arc::clone(&msg),
                    },
                );
                if duplicate {
                    // The duplicate trails the original by a hair (same path, so it is
                    // subject to the same delivery-time gating).
                    self.push(
                        at + send_cost + latency + 1,
                        EventKind::Deliver {
                            from,
                            from_incarnation,
                            to_incarnation,
                            to: target,
                            msg: Arc::clone(&msg),
                        },
                    );
                }
            }
        }
        if send_cost > 0 {
            let busy = self.busy_until.entry(from).or_insert(0);
            *busy = (*busy).max(at) + send_cost;
        }
        self.complete_clients(from, at, output.executed);
        self.register_timer_wake(from, at);
    }

    /// Pushes a `TimerWake` event for the process's earliest pending timer, unless an
    /// earlier (still useful) wake-up is already registered.
    fn register_timer_wake(&mut self, process: ProcessId, at: u64) {
        let Some(due) = self.drivers[&process].next_timer_due() else {
            return;
        };
        let due = due.max(at);
        match self.timer_wakes.get(&process) {
            Some(registered) if *registered <= due => {}
            _ => {
                self.timer_wakes.insert(process, due);
                self.push(due, EventKind::TimerWake { process });
            }
        }
    }

    fn complete_clients(
        &mut self,
        process: ProcessId,
        at: u64,
        executed: Vec<tempo_kernel::protocol::Executed>,
    ) {
        if executed.is_empty() {
            return;
        }
        let shard = self.membership.shard_of(process);
        if let Some(history) = &mut self.history {
            let incarnation = self.incarnations.get(&process).copied().unwrap_or(0);
            for exec in &executed {
                history.record_execution(shard, process, incarnation, exec.rifl);
            }
        }
        self.charge_executions(process, executed.len());
        for exec in executed {
            let client_id = exec.rifl.client;
            let Some(client) = self.clients.get_mut(&client_id) else {
                continue;
            };
            let Some(done) = client
                .session
                .reply(process, exec.rifl, shard, &exec.result.outputs)
            else {
                continue;
            };
            // The command completed: record the latency and issue the next command.
            let latency = at.saturating_sub(done.start_us);
            if let Some(history) = &mut self.history {
                history.record_complete(exec.rifl, at, done.outputs.to_vec());
            }
            client.completed += 1;
            self.per_site
                .get_mut(&client.site)
                .expect("site histogram exists")
                .record(latency);
            self.overall.record(latency);
            // The reply "hop" is the watched replica handing the result back; the
            // sim models it as instantaneous, so Replied lands at the execution
            // instant (execute→reply measures queueing only under a real runtime).
            if let Some(tracer) = self.tracers.get(&process) {
                tracer.phase(at, process, exec.rifl, CmdPhase::Replied);
            }
            self.completed_total += 1;
            self.last_completion = self.last_completion.max(at);
            self.next_command(client_id, at);
        }
    }

    /// Issues the client's next command now, unless it has issued them all.
    fn next_command(&mut self, client: ClientId, at: u64) {
        if self.clients[&client].issued < self.opts.commands_per_client {
            self.push(at, EventKind::ClientSubmit { client });
        }
    }

    fn submit_for_client(&mut self, client_id: ClientId, at: u64) {
        let client = self.clients.get_mut(&client_id).expect("client exists");
        client.issued += 1;
        let rifl = Rifl::new(client_id, client.issued as u64);
        let cmd: Command = self.mix.next(rifl);
        self.first_submit = self.first_submit.min(at);
        let nemesis = &self.nemesis;
        let target = client
            .session
            .open(&cmd, at, &self.site_views[client.site as usize], &|p| {
                nemesis.as_ref().is_some_and(|n| n.is_down(p))
            });
        if let Some(history) = &mut self.history {
            history.record_invoke(rifl, cmd.clone(), at);
        }
        let Some(target) = target else {
            // Some accessed shard has every replica down: the command cannot complete.
            self.give_up(client_id, rifl, at);
            return;
        };
        if let Some(timeout) = self.opts.client_timeout_us {
            self.push(
                at + timeout,
                EventKind::ClientTimeout {
                    client: client_id,
                    rifl,
                },
            );
        }
        let start = self.charge_cpu(target, at, cmd.wire_size());
        let output = self
            .drivers
            .get_mut(&target)
            .expect("target exists")
            .submit(cmd, start);
        self.absorb(target, start, output);
    }

    /// The client timed out on `rifl`: gives up on it unless it completed since.
    fn abort_command(&mut self, client_id: ClientId, rifl: Rifl, at: u64) {
        let client = self.clients.get_mut(&client_id).expect("client exists");
        if client.session.abort(rifl) {
            self.give_up(client_id, rifl, at);
        }
    }

    /// Tallies the abort of `rifl` and issues the client's next command.
    fn give_up(&mut self, client_id: ClientId, rifl: Rifl, at: u64) {
        self.clients
            .get_mut(&client_id)
            .expect("client exists")
            .aborted += 1;
        self.aborted_total += 1;
        if let Some(history) = &mut self.history {
            history.record_abort(rifl);
        }
        self.next_command(client_id, at);
    }

    /// Applies the fault events due now: crash/restart drive the process lifecycle
    /// here, the network-level events were already absorbed into the nemesis state.
    fn apply_faults(&mut self, at: u64) {
        let Some(mut nemesis) = self.nemesis.take() else {
            return;
        };
        let fired = nemesis.advance(at);
        self.nemesis = Some(nemesis);
        for event in fired {
            match event {
                FaultEvent::Crash(p) => {
                    // Volatile state dies with the process. Peers find out only when
                    // its heartbeats stop arriving.
                    self.busy_until.remove(&p);
                    self.timer_wakes.remove(&p);
                    if let Some(t) = self.tracers.get(&p) {
                        t.process_event(at, p, ProcEvent::Crash(p));
                    }
                }
                FaultEvent::Restart(p) => {
                    // Rebuild through the factory: a fresh incarnation that must
                    // rejoin. Volatile state died with the old driver; whatever the
                    // factory preserved (a durable store handle) is the "disk".
                    let incarnation = self.incarnations.entry(p).or_insert(0);
                    *incarnation += 1;
                    let incarnation = *incarnation;
                    let shard = self.membership.shard_of(p);
                    let mut driver =
                        Driver::from_protocol((self.factory)(p, shard, self.config, incarnation));
                    // The new incarnation appends to the same per-process ring, so one
                    // track shows the whole crash/recover story.
                    if let Some(t) = self.tracers.get(&p) {
                        driver.set_tracer(t.clone());
                        t.process_event(at, p, ProcEvent::Restart(p));
                    }
                    let view = self.planet.view_for(self.config, p);
                    let start = driver.start(view, at);
                    let rejoin = driver.rejoin(incarnation, at);
                    self.drivers.insert(p, driver);
                    self.absorb(p, at, start);
                    self.absorb(p, at, rejoin);
                    // A fresh incarnation gets a fresh detector (and a fresh grace
                    // period), so it suspects the peers still down on its own; the dead
                    // one's counters fold into the run total. Peers retract their
                    // suspicion of it when its heartbeats resume.
                    let peers = self
                        .membership
                        .all_processes()
                        .into_iter()
                        .filter(|&q| q != p);
                    if let Some(old) = self.detectors.insert(p, FailureDetector::new(peers, at)) {
                        self.detector_stats.merge(&old.stats());
                    }
                }
                _ => {}
            }
        }
    }

    fn total_commands(&self) -> u64 {
        (self.clients.len() * self.opts.commands_per_client) as u64
    }

    /// Whether a frame from `from` to `to`, sent between the given incarnations,
    /// survives the fault plane. Connections die with their endpoint: a crashed (or
    /// since restarted) sender loses its in-flight frames, a crashed destination
    /// receives nothing, and a frame addressed to a since-replaced incarnation dies
    /// with the old connection — counted as a crash drop when `tally_crash_drop` — and
    /// partitions and lossy links drop the rest.
    fn link_delivers(
        &mut self,
        from: ProcessId,
        from_incarnation: u64,
        to: ProcessId,
        to_incarnation: u64,
        tally_crash_drop: bool,
    ) -> bool {
        let stale = self.incarnation_of(from) != from_incarnation
            || self.incarnation_of(to) != to_incarnation;
        let Some(nemesis) = &mut self.nemesis else {
            return true;
        };
        if stale || nemesis.is_down(from) || nemesis.is_down(to) {
            if tally_crash_drop {
                nemesis.note_crash_drop();
            }
            return false;
        }
        nemesis.allows_delivery(from, to)
    }

    /// An arrival from `from` proves it is alive to `to`'s detector; a retracted
    /// suspicion is forwarded to the protocol immediately.
    fn feed_liveness(&mut self, from: ProcessId, to: ProcessId, at: u64) {
        let detector = self.detectors.get_mut(&to).expect("process exists");
        if let Some(DetectorEvent::Unsuspect(q)) = detector.heartbeat(from, at) {
            self.drivers
                .get_mut(&to)
                .expect("process exists")
                .protocol_mut()
                .unsuspect(q);
            if let Some(t) = self.tracers.get(&to) {
                t.process_event(at, to, ProcEvent::Unsuspect(q));
            }
        }
    }

    /// Snapshots aggregated protocol counters into the metrics registry
    /// (`SimOpts::metrics_interval_us`).
    fn sample_metrics(&mut self, at: u64) {
        let Some(registry) = self.registry.as_mut() else {
            return;
        };
        let mut m = ProtocolMetrics::default();
        for driver in self.drivers.values() {
            m.merge(&driver.metrics());
        }
        let mut suspicions = self.detector_stats.suspicions;
        for det in self.detectors.values() {
            suspicions += det.stats().suspicions;
        }
        registry.sample_all(
            at,
            [
                ("committed", m.committed),
                ("executed", m.executed),
                ("messages_sent", m.messages_sent),
                ("completed_cmds", self.completed_total),
                ("aborted_cmds", self.aborted_total),
                ("suspicions", suspicions),
            ],
        );
    }

    /// Runs the simulation to completion and produces the report.
    pub fn run(mut self) -> RunReport {
        // Register one wake-up per distinct fault time so faults apply exactly then.
        if let Some(schedule) = self.opts.nemesis.clone() {
            for time in schedule.times() {
                self.push(time, EventKind::NemesisWake);
            }
        }
        // Start every driver: protocols learn their view and schedule their own timers.
        let process_ids: Vec<ProcessId> = self.drivers.keys().copied().collect();
        for p in process_ids {
            let view = self.planet.view_for(self.config, p);
            let output = self
                .drivers
                .get_mut(&p)
                .expect("process exists")
                .start(view, 0);
            self.absorb(p, 0, output);
        }
        // Start every process's detector tick chain, staggered so heartbeats do not
        // arrive in lockstep across the cluster.
        let processes: Vec<ProcessId> = self.drivers.keys().copied().collect();
        for (i, process) in processes.into_iter().enumerate() {
            let offset = (i as u64 * 131) % HEARTBEAT_INTERVAL_US;
            self.push(offset, EventKind::DetectorTick { process });
        }
        // Kick off every client, slightly staggered for determinism without full symmetry.
        let client_ids: Vec<ClientId> = self.clients.keys().copied().collect();
        for (i, client) in client_ids.into_iter().enumerate() {
            self.push(i as u64 % 997, EventKind::ClientSubmit { client });
        }
        // Metrics time series: one snapshot per interval, self-rescheduling.
        if let Some(interval) = self.opts.metrics_interval_us {
            self.push(interval.max(1), EventKind::MetricsSample);
        }

        let target = self.total_commands();
        let mut stalled = false;
        while let Some(event) = self.queue.pop() {
            self.now = event.time;
            if self.completed_total + self.aborted_total >= target {
                break;
            }
            if self.now > self.opts.max_sim_time_us {
                stalled = true;
                break;
            }
            match event.kind {
                EventKind::Deliver {
                    from,
                    from_incarnation,
                    to_incarnation,
                    to,
                    msg,
                } => {
                    if !self.link_delivers(from, from_incarnation, to, to_incarnation, true) {
                        continue;
                    }
                    // Any frame that makes it through proves the sender is alive.
                    self.feed_liveness(from, to, event.time);
                    let start = self.charge_cpu(to, event.time, msg.wire_size());
                    // The last destination of a broadcast unwraps the message without a
                    // copy; earlier destinations (still sharing the allocation) clone.
                    let msg = Arc::try_unwrap(msg).unwrap_or_else(|shared| (*shared).clone());
                    let output = self
                        .drivers
                        .get_mut(&to)
                        .expect("process exists")
                        .handle(from, msg, start);
                    self.absorb(to, start, output);
                }
                EventKind::TimerWake { process } => {
                    // Drop the registration and fire whatever is due; `absorb`
                    // re-registers the next wake-up. Crashed processes fire nothing.
                    if self.timer_wakes.get(&process) == Some(&event.time) {
                        self.timer_wakes.remove(&process);
                    }
                    if self.is_down(process) {
                        continue;
                    }
                    let output = self
                        .drivers
                        .get_mut(&process)
                        .expect("process exists")
                        .fire_due(event.time);
                    self.absorb(process, event.time, output);
                }
                EventKind::ClientSubmit { client } => {
                    self.submit_for_client(client, event.time);
                }
                EventKind::ClientTimeout { client, rifl } => {
                    self.abort_command(client, rifl, event.time);
                }
                EventKind::NemesisWake => {
                    self.apply_faults(event.time);
                }
                EventKind::MetricsSample => {
                    self.sample_metrics(event.time);
                    if let Some(interval) = self.opts.metrics_interval_us {
                        self.push(event.time + interval.max(1), EventKind::MetricsSample);
                    }
                }
                EventKind::DetectorTick { process } => {
                    // Keep the tick chain alive through crashes so a restarted
                    // incarnation resumes scanning and beating without bookkeeping.
                    self.push(
                        event.time + HEARTBEAT_INTERVAL_US,
                        EventKind::DetectorTick { process },
                    );
                    if self.is_down(process) {
                        continue;
                    }
                    // Scan for overdue peers; fresh suspicions go to the protocol.
                    let events = self
                        .detectors
                        .get_mut(&process)
                        .expect("process exists")
                        .tick(event.time);
                    for e in events {
                        if let DetectorEvent::Suspect(q) = e {
                            self.drivers
                                .get_mut(&process)
                                .expect("process exists")
                                .protocol_mut()
                                .suspect(q);
                            if let Some(t) = self.tracers.get(&process) {
                                t.process_event(event.time, process, ProcEvent::Suspect(q));
                            }
                        }
                    }
                    // Broadcast a heartbeat over the nemesis-afflicted network: slow
                    // nodes beat late, partitions silence them entirely.
                    let from_site = self.membership.site_of(process);
                    let from_incarnation = self.incarnation_of(process);
                    for target in self.membership.all_processes() {
                        if target == process {
                            continue;
                        }
                        let mut latency = self
                            .planet
                            .one_way_us(from_site, self.membership.site_of(target));
                        if let Some(nemesis) = &mut self.nemesis {
                            latency += nemesis.send_delay(process, target);
                        }
                        let to_incarnation = self.incarnation_of(target);
                        self.push(
                            event.time + latency,
                            EventKind::HeartbeatDeliver {
                                from: process,
                                from_incarnation,
                                to_incarnation,
                                to: target,
                            },
                        );
                    }
                }
                EventKind::HeartbeatDeliver {
                    from,
                    from_incarnation,
                    to_incarnation,
                    to,
                } => {
                    // No crash-drop tally: losing a heartbeat with its endpoint is the
                    // detector working as intended, not a protocol-visible message loss.
                    if !self.link_delivers(from, from_incarnation, to, to_incarnation, false) {
                        continue;
                    }
                    self.feed_liveness(from, to, event.time);
                }
            }
        }
        if self.completed_total + self.aborted_total < target {
            stalled = true;
        }

        let mut metrics = ProtocolMetrics::default();
        for driver in self.drivers.values() {
            metrics.merge(&driver.metrics());
        }
        let duration = self
            .last_completion
            .saturating_sub(self.first_submit.min(self.last_completion));
        let sites = self
            .per_site
            .into_iter()
            .map(|(site, histogram)| {
                let region = self.planet.regions()[site as usize].clone();
                (site, SiteReport { region, histogram })
            })
            .collect();
        let per_client = self
            .clients
            .iter()
            .map(|(id, c)| {
                (
                    *id,
                    ClientTally {
                        completed: c.completed as u64,
                        aborted: c.aborted as u64,
                    },
                )
            })
            .collect();
        // Drain the per-process rings in ProcessId order: with virtual-clock
        // timestamps the merged log is byte-identical across same-seed runs.
        let (trace, phases) = self
            .opts
            .trace
            .then(|| merge_and_fold(self.tracers.values().map(Tracer::take).collect()))
            .unzip();
        RunReport {
            protocol: P::NAME.to_string(),
            config: self.config,
            sites,
            overall: self.overall,
            completed: self.completed_total,
            aborted: self.aborted_total,
            per_client,
            ops_per_command: self.mix.ops_per_command(),
            duration_us: duration,
            metrics,
            faults: self.nemesis.map(|n| n.summary()).unwrap_or_default(),
            detector: {
                let mut stats = self.detector_stats;
                for det in self.detectors.values() {
                    stats.merge(&det.stats());
                }
                stats
            },
            history: self.history,
            trace,
            phases,
            registry: self.registry,
            stalled,
        }
    }
}

/// Convenience entry point: builds and runs a simulation in one call.
pub fn run<P: Protocol, M: Mix>(
    config: Config,
    planet: Planet,
    opts: SimOpts,
    mix: M,
) -> RunReport {
    Simulation::<P, M>::new(config, planet, opts, mix).run()
}

/// Convenience entry point with a custom [`ProtocolFactory`] (see
/// [`Simulation::with_factory`]): how durable-store-backed deployments are run.
pub fn run_with_factory<P: Protocol, M: Mix>(
    config: Config,
    planet: Planet,
    opts: SimOpts,
    mix: M,
    factory: ProtocolFactory<P>,
) -> RunReport {
    Simulation::<P, M>::with_factory(config, planet, opts, mix, factory).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_atlas::Atlas;
    use tempo_core::Tempo;
    use tempo_fpaxos::FPaxos;
    use tempo_load::{ConflictMix, YcsbTMix};

    fn small_opts() -> SimOpts {
        SimOpts {
            clients_per_site: 4,
            commands_per_client: 5,
            ..SimOpts::default()
        }
    }

    /// What a generator change could move: the run's length, its completions, the
    /// messages the protocols sent and the mean client latency.
    fn fingerprint(report: &RunReport) -> (u64, u64, u64, f64) {
        (
            report.duration_us,
            report.completed,
            report.metrics.messages_sent,
            report.overall.mean_us(),
        )
    }

    #[test]
    fn tempo_completes_all_commands_on_ec2() {
        let config = Config::full(5, 1);
        let report = run::<Tempo, _>(
            config,
            Planet::ec2(),
            small_opts(),
            ConflictMix::new(0.02, 100, 7),
        );
        assert!(!report.stalled, "simulation stalled");
        assert_eq!(report.completed, 5 * 4 * 5);
        assert!(
            report.mean_latency_ms() > 50.0,
            "wide-area latency expected"
        );
        assert!(report.throughput_kops() > 0.0);
    }

    #[test]
    fn fpaxos_is_unfair_towards_remote_sites() {
        // Figure 5's qualitative shape: the leader site observes much lower latency than
        // far-away sites.
        let config = Config::full(5, 1);
        let report = run::<FPaxos, _>(
            config,
            Planet::ec2(),
            small_opts(),
            ConflictMix::new(0.02, 100, 7),
        );
        assert!(!report.stalled);
        let leader = report.site_mean_ms(0); // Ireland hosts process 0, the leader.
        let singapore = report.site_mean_ms(2);
        assert!(
            singapore > 2.0 * leader,
            "expected Singapore ({singapore:.0} ms) to be much slower than the leader site ({leader:.0} ms)"
        );
    }

    #[test]
    fn tempo_is_fairer_than_fpaxos() {
        let config = Config::full(5, 1);
        let tempo = run::<Tempo, _>(
            config,
            Planet::ec2(),
            small_opts(),
            ConflictMix::new(0.02, 100, 7),
        );
        let spread = |r: &RunReport| {
            let means: Vec<f64> = (0..5).map(|s| r.site_mean_ms(s)).collect();
            let max = means.iter().cloned().fold(0.0, f64::max);
            let min = means.iter().cloned().fold(f64::MAX, f64::min);
            max / min
        };
        let fpaxos = run::<FPaxos, _>(
            config,
            Planet::ec2(),
            small_opts(),
            ConflictMix::new(0.02, 100, 7),
        );
        assert!(
            spread(&tempo) < spread(&fpaxos),
            "Tempo should satisfy sites more uniformly (tempo spread {:.2}, fpaxos spread {:.2})",
            spread(&tempo),
            spread(&fpaxos)
        );
    }

    #[test]
    fn atlas_completes_with_low_conflicts() {
        let config = Config::full(5, 1);
        let report = run::<Atlas, _>(
            config,
            Planet::ec2(),
            small_opts(),
            ConflictMix::new(0.02, 100, 7),
        );
        assert!(!report.stalled);
        assert_eq!(report.completed, 100);
        assert!(report.metrics.fast_paths > 0);
    }

    #[test]
    fn cpu_model_reduces_throughput_under_load() {
        let config = Config::full(3, 1);
        let planet = Planet::equidistant(3, 50.0);
        let base = SimOpts {
            clients_per_site: 32,
            commands_per_client: 5,
            ..SimOpts::default()
        };
        let ideal = run::<Tempo, _>(
            config,
            planet.clone(),
            base.clone(),
            ConflictMix::new(0.0, 4096, 3),
        );
        let with_cpu = run::<Tempo, _>(
            config,
            planet,
            SimOpts {
                cpu: Some(CpuModel {
                    per_message_us: 200.0,
                    per_kilobyte_us: 50.0,
                    per_execution_us: 50.0,
                }),
                ..base
            },
            ConflictMix::new(0.0, 4096, 3),
        );
        assert!(!ideal.stalled && !with_cpu.stalled);
        assert!(
            with_cpu.throughput_kops() < ideal.throughput_kops(),
            "CPU model must reduce throughput ({} vs {})",
            with_cpu.throughput_kops(),
            ideal.throughput_kops()
        );
        assert!(with_cpu.mean_latency_ms() > ideal.mean_latency_ms());
    }

    #[test]
    fn multi_shard_deployment_completes() {
        let config = Config::new(3, 1, 2);
        let planet = Planet::ec2_three_regions();
        let mix = YcsbTMix::new(2, 1000, 0.5, 0.5, 11);
        let report = run::<Tempo, _>(config, planet, small_opts(), mix);
        assert!(!report.stalled, "partial replication run stalled");
        assert_eq!(report.completed, 3 * 4 * 5);
        // Literals captured at PR 16 (burst-edge promise flush; CHANGES.md has the
        // account of what moved from PR 12's `(1_086_000, 60, 1650, 213_961.8)`).
        assert_eq!(fingerprint(&report), (1_082_504, 60, 1652, 213_479.0));
    }

    #[test]
    fn conflict_run_with_cpu_model_matches_pinned_literals() {
        // Literals captured at PR 16 (burst-edge promise flush; CHANGES.md has the
        // account of what moved from PR 12's `(751_772, 240, 1484, 75_174.458…)`): same
        // seed, same hot/cold draws, same simulated run.
        let report = run::<Tempo, _>(
            Config::full(3, 1),
            Planet::equidistant(3, 50.0),
            SimOpts {
                clients_per_site: 8,
                commands_per_client: 10,
                cpu: Some(CpuModel::cluster()),
                ..SimOpts::default()
            },
            ConflictMix::new(0.1, 100, 42),
        );
        assert!(!report.stalled);
        assert_eq!(fingerprint(&report), (751_928, 240, 1554, 75_188.937_5));
    }

    /// Stability is not paced by the periodic `MPromises` tick. The planet is
    /// LAN-scale — every site a 1 ms round trip from every other, no CPU model — because
    /// that is where the tick shows: it is several hops long there, whereas at WAN
    /// distances the closed-loop clients move in lockstep at multiples of a 25 ms hop
    /// and a promise up to 5 ms late is never the last thing a command waits for. What
    /// is left is the commit gate of Algorithm 2, line 47: the fast-quorum peer's prefix
    /// is held back by the peer's own in-flight proposals, the latest made just before
    /// ours reached it, which commit there one round trip later and are learnt here one
    /// more one-way hop after that — one round trip after our commit. A detached promise
    /// waiting for the tick puts a 0–5 ms sawtooth on top of that.
    #[test]
    fn stability_waits_for_the_commit_gate_not_for_the_tick() {
        const ROUND_TRIP_US: u64 = 1_000;
        let report = run::<Tempo, _>(
            Config::full(3, 1),
            Planet::equidistant(3, ROUND_TRIP_US as f64 / 1_000.0),
            SimOpts {
                clients_per_site: 4,
                commands_per_client: 10,
                trace: true,
                ..SimOpts::default()
            },
            ConflictMix::new(0.1, 100, 42),
        );
        assert!(!report.stalled);
        assert_eq!(report.completed, 3 * 4 * 10);
        let trace = report.trace.as_ref().expect("trace recorded");
        assert_eq!(trace.dropped, 0);
        let waits = tempo_trace::at_coordinator(trace);
        assert_eq!(waits.len() as u64, report.completed);
        for (coordinator, _, commit_stable) in waits {
            // The slack covers the flush leaving a step later than the burst's commits.
            assert!(
                commit_stable <= ROUND_TRIP_US + 10,
                "a command waited {commit_stable} us for stability at its coordinator {coordinator}"
            );
        }
    }

    #[test]
    fn reports_are_deterministic() {
        let config = Config::full(3, 1);
        let go = || {
            run::<Tempo, _>(
                config,
                Planet::equidistant(3, 80.0),
                small_opts(),
                ConflictMix::new(0.1, 10, 42),
            )
        };
        let a = go();
        let b = go();
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.duration_us, b.duration_us);
        assert_eq!(a.metrics, b.metrics);
    }

    #[test]
    fn chaos_runs_are_deterministic_too() {
        let config = Config::full(3, 1);
        let go = || {
            let schedule = NemesisSchedule::lossy_link_soak(config, 0.05, 0, 2_000_000);
            run::<Tempo, _>(
                config,
                Planet::equidistant(3, 50.0),
                SimOpts {
                    clients_per_site: 2,
                    commands_per_client: 4,
                    nemesis: Some(schedule),
                    client_timeout_us: Some(20_000_000),
                    record_history: true,
                    ..SimOpts::default()
                },
                ConflictMix::new(0.1, 10, 42),
            )
        };
        let a = go();
        let b = go();
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.metrics, b.metrics);
    }

    #[test]
    fn detector_mode_survives_a_crash_without_the_oracle() {
        // One site of five crashes mid-run and never returns. Nobody tells the
        // survivors: the timeout-based detector must notice on its own (counted
        // suspicions) before recovery can finish the orphans, and the survivors keep
        // committing (failover picks a live coordinator; suspected processes are
        // avoided in fast quorums).
        let config = Config::full(5, 1);
        let go = || {
            run::<Tempo, _>(
                config,
                Planet::equidistant(5, 50.0),
                SimOpts {
                    clients_per_site: 2,
                    commands_per_client: 5,
                    nemesis: Some(NemesisSchedule::coordinator_crash(0, 150_000)),
                    client_timeout_us: Some(30_000_000),
                    record_history: true,
                    ..SimOpts::default()
                },
                ConflictMix::new(0.05, 10, 9),
            )
        };
        let report = go();
        assert!(!report.stalled, "run must terminate despite the crash");
        assert_eq!(report.faults.crashes, 1);
        assert!(
            report.detector.suspicions >= 4,
            "every survivor should suspect the crashed process, got {:?}",
            report.detector
        );
        assert!(report.detector.heartbeats > 0);
        assert_eq!(report.completed + report.aborted, 5 * 2 * 5);
        assert!(report.completed > 0);
        report
            .history
            .as_ref()
            .expect("history recorded")
            .check()
            .expect("chaos history must stay safe");
        // Detector runs are deterministic.
        let again = go();
        assert_eq!(report.completed, again.completed);
        assert_eq!(report.detector, again.detector);
        assert_eq!(report.metrics, again.metrics);
    }

    #[test]
    fn slow_node_provokes_wrong_suspicion_and_recovery() {
        // A gray failure: process 0 stays alive but answers at ~100× latency for a
        // window. The detector must (wrongly) suspect it, then retract once its late
        // heartbeats land after the heal — and the history must stay safe throughout.
        let config = Config::full(3, 1);
        let report = run::<Tempo, _>(
            config,
            Planet::equidistant(3, 50.0),
            SimOpts {
                clients_per_site: 2,
                commands_per_client: 8,
                nemesis: Some(NemesisSchedule::slow_node(0, 5_000_000, 200_000, 4_000_000)),
                client_timeout_us: Some(30_000_000),
                record_history: true,
                ..SimOpts::default()
            },
            ConflictMix::new(0.05, 10, 17),
        );
        assert!(!report.stalled, "run must terminate despite the slow node");
        assert_eq!(report.faults.slow_nodes, 1);
        assert!(
            report.faults.slowed > 0,
            "slow node must have delayed frames"
        );
        assert!(
            report.detector.suspicions > 0,
            "slow node must be suspected: {:?}",
            report.detector
        );
        assert!(
            report.detector.wrong_suspicions > 0,
            "the suspicion was wrong (it never crashed) and must be retracted: {:?}",
            report.detector
        );
        assert_eq!(report.completed + report.aborted, 3 * 2 * 8);
        report
            .history
            .as_ref()
            .expect("history recorded")
            .check()
            .expect("gray-failure history must stay safe");
    }

    #[test]
    fn duplicate_and_reorder_soak_stays_safe() {
        // Non-FIFO, at-least-once links: handlers must be idempotent and
        // order-tolerant. The checker would catch double execution.
        let config = Config::full(3, 1);
        let report = run::<Tempo, _>(
            config,
            Planet::equidistant(3, 50.0),
            SimOpts {
                clients_per_site: 2,
                commands_per_client: 10,
                nemesis: Some(NemesisSchedule::duplicate_reorder_soak(
                    config, 0.3, 0, 8_000_000,
                )),
                client_timeout_us: Some(30_000_000),
                record_history: true,
                ..SimOpts::default()
            },
            ConflictMix::new(0.2, 10, 23),
        );
        assert!(!report.stalled);
        assert!(report.faults.duplicated > 0, "no duplicates injected");
        assert!(report.faults.reordered > 0, "no reorders injected");
        assert_eq!(report.completed, 3 * 2 * 10);
        report
            .history
            .as_ref()
            .expect("history recorded")
            .check()
            .expect("duplicate/reorder history must stay safe");
    }

    #[test]
    fn traced_run_folds_phases_and_is_byte_identical_across_seeds() {
        let config = Config::full(3, 1);
        let go = || {
            run::<Tempo, _>(
                config,
                Planet::equidistant(3, 50.0),
                SimOpts {
                    clients_per_site: 2,
                    commands_per_client: 5,
                    trace: true,
                    metrics_interval_us: Some(100_000),
                    ..SimOpts::default()
                },
                ConflictMix::new(0.05, 10, 3),
            )
        };
        let report = go();
        assert!(!report.stalled);
        let trace = report.trace.as_ref().expect("trace recorded");
        assert!(!trace.events.is_empty());
        assert_eq!(trace.dropped, 0, "short run must not overflow the rings");

        // Every completed command reached every folded interval: the protocol hooks
        // (propose/commit/stable) and the scheduler hooks (submit/execute/reply)
        // all fired.
        let phases = report.phases.as_ref().expect("phases folded");
        assert_eq!(phases.complete, report.completed);
        let e2e = phases.pair("submit_reply").expect("end-to-end interval");
        assert_eq!(e2e.histogram.len(), report.completed);
        for name in ["submit_commit", "commit_stable", "stable_execute"] {
            let pair = phases.pair(name).expect(name);
            assert_eq!(pair.histogram.len(), report.completed, "{name}");
        }

        // The end-to-end interval is the client latency: its mean must agree with the
        // report's, which `LogHistogram` keeps exactly (sum and count, not buckets).
        assert!((e2e.histogram.mean_ms() - report.overall.mean_ms()).abs() < 1e-9);

        // The metrics time series sampled and ended at the final counter values.
        let registry = report.registry.as_ref().expect("registry sampled");
        assert!(!registry.is_empty());
        let executed = registry.series("executed");
        assert!(!executed.is_empty());
        assert!(executed.last().expect("samples").1 > 0);

        // Same seed, same virtual clock: the merged trace (and anything rendered from
        // it) is byte-identical across runs.
        let again = go();
        let b = again.trace.as_ref().expect("trace recorded");
        assert_eq!(trace.events, b.events);
        let render = |r: &RunReport| {
            let mut chrome = tempo_trace::ChromeTrace::new();
            chrome.add_log(r.trace.clone().expect("trace"));
            chrome.add_registry(r.registry.as_ref().expect("registry"));
            chrome.render()
        };
        assert_eq!(render(&report), render(&again));
    }

    /// What a restarted process learns about a peer that is still down. Nobody tells
    /// it: its fresh detector must suspect that peer one timeout after the restart,
    /// and the survivors must retract their suspicion of the restarted process once
    /// its heartbeats resume.
    #[test]
    fn restarted_process_suspects_a_peer_still_down() {
        use tempo_kernel::trace::TraceEvent;
        const CRASH_US: u64 = 150_000;
        const RESTART_US: u64 = 500_000;
        let config = Config::full(5, 2);
        let schedule = NemesisSchedule::new(vec![
            (CRASH_US, FaultEvent::Crash(1)),
            (CRASH_US, FaultEvent::Crash(2)),
            (RESTART_US, FaultEvent::Restart(1)),
        ]);
        let report = run::<Tempo, _>(
            config,
            Planet::equidistant(5, 50.0),
            SimOpts {
                clients_per_site: 2,
                commands_per_client: 10,
                nemesis: Some(schedule),
                client_timeout_us: Some(30_000_000),
                record_history: true,
                trace: true,
                ..SimOpts::default()
            },
            ConflictMix::new(0.05, 10, 9),
        );
        assert!(!report.stalled, "run must terminate despite the crashes");
        assert_eq!(report.faults.crashes, 2);
        assert_eq!(report.faults.restarts, 1);
        let trace = report.trace.as_ref().expect("trace recorded");
        // When `at` first traced `event` after the restart.
        let first = |at: ProcessId, event: ProcEvent| {
            trace
                .events
                .iter()
                .filter_map(|e| match *e {
                    TraceEvent::Process {
                        at_us,
                        process,
                        event: seen,
                    } if process == at && seen == event && at_us >= RESTART_US => Some(at_us),
                    _ => None,
                })
                .min()
        };
        assert_eq!(first(1, ProcEvent::Restart(1)), Some(RESTART_US));
        let suspected = first(1, ProcEvent::Suspect(2)).expect("the new incarnation suspects 2");
        let latency = suspected - RESTART_US;
        assert!(
            (100_000..=2_000_000 + HEARTBEAT_INTERVAL_US).contains(&latency),
            "suspected 2 {latency} us after the restart"
        );
        for survivor in [0, 3, 4] {
            assert!(
                first(survivor, ProcEvent::Unsuspect(1)).is_some(),
                "survivor {survivor} never retracted its suspicion of 1"
            );
        }
        report
            .history
            .as_ref()
            .expect("history recorded")
            .check()
            .expect("restart history must stay safe");
    }
}
