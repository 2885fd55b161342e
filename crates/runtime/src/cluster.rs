//! [`NetCluster`] — protocol replicas as OS threads over `tempo-net` transports.
//!
//! # Anatomy of a run
//!
//! * **Replicas.** Each process of the [`Config`] runs one thread owning a
//!   [`Driver`] and a transport endpoint. A turn of its loop blocks on the transport
//!   until the next deadline; once a frame arrives it handles a *burst* — that frame
//!   and every frame already waiting behind it, up to a fixed budget — running one
//!   driver step per frame; then it fires due protocol timers and detector events
//!   and flushes, once, what the burst and the timers produced. Every step's sends are
//!   encoded once per message into one reused buffer and queued per peer (the
//!   transport's write coalescing), and its executions answer clients and feed the
//!   history. The driver's persist hook runs inside the step, *before* its output is
//!   routed, and a flush carries only what was routed before it, so the write-ahead
//!   guarantee of DESIGN.md §6 carries over to real sockets and real fsyncs
//!   unchanged; timers, the detector and the stop flag are looked at between bursts,
//!   so the budget bounds how long a full inbox can keep them waiting.
//! * **Clients.** [`ClientSession`]s own their own endpoints (ids above
//!   [`CLIENT_ID_BASE`]). A submission goes to the closest live replica of the
//!   command's target shard; completion requires an execution notice from the watched
//!   (closest live) replica of *every* accessed shard — the simulator's semantics,
//!   including failover after a crash and timeout-then-abort for stranded commands.
//! * **Supervisor.** With a nemesis schedule, a supervisor thread sleeps until each
//!   fault is due and acts on it: `Crash` stops the replica thread (its endpoint dies
//!   with it — sockets close, queued frames drop); `Restart` builds a fresh
//!   incarnation through the [`RuntimeFactory`] (a factory that reopens the replica's
//!   `FileStore` directory models the disk surviving the crash), whose rejoin
//!   handshake and state transfer then run over the real transport. The link faults
//!   are [`LinkTransport`]'s: it draws each replica frame's fate on the delivery path,
//!   and parks the frame once for that fate and for the planet's latency.
//! * **Failure detection.** Nobody tells the survivors about a crash or a restart:
//!   each replica runs a `tempo-fault` [`FailureDetector`], the only source of its
//!   `suspect`/`unsuspect` calls. Heartbeat beacons cross the same chaos-afflicted
//!   transport as protocol traffic, every peer frame counts as proof of life, and
//!   silence past the adaptive timeout turns into a local `suspect` — so suspicion is
//!   *fallible* (a partitioned or slowed peer gets wrongly suspected, then
//!   unsuspected when frames resume), which is exactly the regime the `MRecNAck`
//!   ballot races need.
//!
//! Everything a test needs afterwards comes out of [`NetCluster::shutdown`]: per
//! incarnation protocol metrics, aggregated transport stats, the fault summary and
//! the recorded [`History`] for the `tempo-fault` checker.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tempo_fault::{
    DetectorEvent, DetectorStats, FailureDetector, FaultSummary, History, Nemesis, NemesisSchedule,
    ProcessAction, HEARTBEAT_INTERVAL_US,
};
use tempo_kernel::command::{Command, Key};
use tempo_kernel::config::Config;
use tempo_kernel::driver::{Driver, Output};
use tempo_kernel::id::{ClientId, ProcessId, Rifl, ShardId, SiteId};
use tempo_kernel::membership::Membership;
use tempo_kernel::metrics::LogHistogram;
use tempo_kernel::protocol::{Protocol, ProtocolMetrics, View};
use tempo_kernel::trace::{CmdPhase, ProcEvent, TraceLog, Tracer, DEFAULT_TRACE_CAPACITY};
use tempo_load::{Mix, Session};
use tempo_net::wire::{DecodeError, Reader, Wire, Writer};
use tempo_net::{
    ClientReply, ClientRequest, LinkNet, LinkTransport, RecvError, TcpMesh, Transport,
    TransportStats, CLIENT_ID_BASE,
};
use tempo_planet::Planet;
use tempo_trace::merge_and_fold;

/// Builds the protocol instance of one process: at boot with incarnation 0 and on
/// every nemesis `Restart` with the 1-based restart count (same contract as the
/// simulator's `ProtocolFactory`, plus `Send` because restarts happen on the
/// supervisor thread). The factory decides what survives a crash — e.g. by reopening
/// the same `FileStore` directory per incarnation.
pub type RuntimeFactory<P> = Box<dyn FnMut(ProcessId, ShardId, Config, u64) -> P + Send>;

/// Options of a networked cluster run.
#[derive(Debug, Clone)]
pub struct NetOpts {
    /// Optional fault schedule, with times in microseconds since cluster start.
    pub nemesis: Option<NemesisSchedule>,
    /// Seed for the nemesis's per-frame draws.
    pub seed: u64,
    /// Record the client/replica [`History`] for the `tempo-fault` checker.
    pub record_history: bool,
    /// How long a client waits for a command before aborting it (the command may
    /// still take effect — exactly the simulator's `client_timeout_us`).
    pub client_timeout: Duration,
    /// WAN emulation: with a [`Planet`], every endpoint (replica *and* client) is
    /// placed in its site's region, frames are held back by the matrix's one-way
    /// latencies ([`LinkTransport`]), and replicas sort their quorum views by
    /// geographic distance (`Planet::view_for`) instead of ring order — so fig6/fig7
    /// measurements run on real sockets across emulated regions.
    pub planet: Option<Planet>,
    /// Record per-command lifecycle events (one fixed-capacity ring per replica,
    /// shared across its incarnations) plus crash/restart/suspicion markers; the
    /// merged, time-sorted [`TraceLog`] and its phase-latency fold land in
    /// [`RuntimeReport::trace`] / [`RuntimeReport::phases`]. Off (the default) the
    /// hot path pays one branch per would-be event and allocates nothing.
    pub trace: bool,
    /// When set, every replica snapshots its protocol counters and transport traffic
    /// into a shared [`MetricsRegistry`](tempo_trace::MetricsRegistry) time series
    /// (`p<id>.<counter>`) at this period — see [`RuntimeReport::registry`].
    pub metrics_interval: Option<Duration>,
}

impl Default for NetOpts {
    fn default() -> Self {
        Self {
            nemesis: None,
            seed: 1,
            record_history: false,
            client_timeout: Duration::from_secs(10),
            planet: None,
            trace: false,
            metrics_interval: None,
        }
    }
}

// ------------------------------------------------------------------ envelopes

// One tag namespace for everything that crosses the transport; peer traffic wraps
// the protocol's own Wire-encoded message.
const ENV_PEER: u8 = 1;
const ENV_REQUEST: u8 = 2;
pub(crate) const ENV_REPLY: u8 = 3;
const ENV_HEARTBEAT: u8 = 6;

pub(crate) fn encode_request(cmd: &Command) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u8(ENV_REQUEST);
    cmd.encode_into(&mut w);
    w.into_bytes()
}

/// What a replica does with one inbound frame.
enum Inbound<M> {
    Peer(M),
    Request(Command),
    /// A liveness beacon — carries no payload; the sender id on the transport is the
    /// signal (any frame from a peer counts as proof of life, heartbeats just
    /// guarantee a minimum rate when the protocol is quiet).
    Heartbeat,
}

fn decode_inbound<M: Wire>(bytes: &[u8]) -> Result<Inbound<M>, DecodeError> {
    let mut r = Reader::new(bytes);
    let inbound = match r.u8()? {
        ENV_PEER => Inbound::Peer(M::decode_from(&mut r)?),
        ENV_REQUEST => Inbound::Request(ClientRequest::decode_from(&mut r)?.cmd),
        ENV_HEARTBEAT => Inbound::Heartbeat,
        t => return Err(DecodeError::BadTag(t)),
    };
    if r.remaining() != 0 {
        return Err(DecodeError::Invalid("trailing bytes"));
    }
    Ok(inbound)
}

pub(crate) fn decode_reply(bytes: &[u8]) -> Option<ClientReply> {
    let mut r = Reader::new(bytes);
    if r.u8().ok()? != ENV_REPLY {
        return None;
    }
    let reply = ClientReply::decode_from(&mut r).ok()?;
    (r.remaining() == 0).then_some(reply)
}

// --------------------------------------------------------------- shared state

/// State shared by replicas, clients and the supervisor (deliberately not generic so
/// [`ClientSession`] stays protocol-agnostic). `pub(crate)` so the open-loop load
/// driver's pumps open their commands the way [`ClientSession`] does.
pub(crate) struct Shared {
    pub(crate) config: Config,
    pub(crate) membership: Membership,
    /// The cluster's time origin: protocol `now_us`, nemesis schedule times and
    /// history timestamps all measure from here.
    pub(crate) epoch: Instant,
    /// Replicas currently crashed (supervisor-maintained; clients consult it for
    /// submission failover, like the sim's closest-live-replica rule).
    pub(crate) down: Mutex<BTreeSet<ProcessId>>,
    pub(crate) history: Option<Mutex<History>>,
    pub(crate) client_timeout: Duration,
    /// The WAN geography, when [`NetOpts::planet`] was set (drives quorum views).
    pub(crate) planet: Option<Planet>,
    /// Per site, the view its clients watch replicas through: the one its replicas
    /// sort their quorums by.
    pub(crate) site_views: Vec<View>,
    /// One lifecycle-event ring per replica ([`NetOpts::trace`]); restarted
    /// incarnations re-attach to their process's ring. Empty when tracing is off.
    pub(crate) tracers: BTreeMap<ProcessId, Tracer>,
    /// Shared counter time series ([`NetOpts::metrics_interval`]); replicas sample
    /// their own counters into it on their heartbeat/timer cadence.
    pub(crate) registry: Option<Mutex<tempo_trace::MetricsRegistry>>,
    pub(crate) metrics_interval_us: Option<u64>,
    /// Raised by [`NetCluster::shutdown`] before it stops the replicas: a replica that
    /// stops then first handles what is on its way to it (a crash stops it dead).
    pub(crate) closing: AtomicBool,
}

impl Shared {
    pub(crate) fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// The lifecycle tracer of `p` (disabled stand-in when tracing is off).
    pub(crate) fn tracer(&self, p: ProcessId) -> Tracer {
        self.tracers.get(&p).cloned().unwrap_or_default()
    }

    /// Opens `cmd` on a session of a client at `site`, skipping the replicas crashed
    /// right now; the replica to submit to, or `None` when an accessed shard is down.
    pub(crate) fn open(
        &self,
        session: &mut Session,
        site: SiteId,
        cmd: &Command,
        start_us: u64,
    ) -> Option<ProcessId> {
        let down = self.down.lock().expect("down lock");
        session.open(cmd, start_us, &self.site_views[site as usize], &|p| {
            down.contains(&p)
        })
    }
}

/// The view of process `p`: geographic with a planet (fast quorums are the *closest*
/// replicas, which is what makes WAN emulation meaningful and matches the simulator),
/// ring order without.
fn view_of(config: Config, planet: Option<&Planet>, p: ProcessId) -> View {
    match planet {
        Some(planet) => planet.view_for(config, p),
        None => View::trivial(config, p),
    }
}

/// [`Shared::site_views`]: each site's view is that of its replica of shard 0 (every
/// replica of a site sorts every shard the same way).
fn site_views(config: Config, planet: Option<&Planet>) -> Vec<View> {
    let m = Membership::from_config(&config);
    m.all_sites()
        .into_iter()
        .map(|site| view_of(config, planet, m.process(0, site)))
        .collect()
}

/// A replica thread's return value: its protocol metrics, its endpoint's traffic and
/// its failure-detector activity.
type ReplicaExit = (ProtocolMetrics, TransportStats, DetectorStats);

struct Seat {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<ReplicaExit>,
}

/// Replica threads poll their stop flag at least this often, which bounds both
/// crash-injection latency and shutdown time.
const STOP_POLL: Duration = Duration::from_millis(20);

// ------------------------------------------------------------------- replicas

/// Most frames a replica handles between two flushes. A burst ends when the inbox
/// runs dry or after this many frames, whichever comes first: the first keeps an idle
/// replica's latency at one frame, the second bounds how long its peers wait for the
/// burst's output and how long timers and the detector go unchecked (a few
/// milliseconds, against a 25 ms heartbeat). It is a bound, not an operating point:
/// `tempo-perf` has 256 closed-loop sessions fill an inbox with about 150 frames, and
/// a budget under that (64) cut every burst short at the same length on every
/// replica, which cost throughput on all `lan_*` workloads (DESIGN.md §3).
const BURST_FRAMES: usize = 256;

/// One replica incarnation as its thread sees it: the driver, the endpoint and what
/// routing a step's output needs.
struct Replica<P: Protocol> {
    driver: Driver<P>,
    transport: Box<dyn Transport>,
    /// Every other replica: whom heartbeats go to and whom the detector watches.
    peers: Vec<ProcessId>,
    detector: FailureDetector,
    tracer: Tracer,
    shared: Arc<Shared>,
    id: ProcessId,
    shard: ShardId,
    incarnation: u64,
    /// Every outbound message and reply is encoded here, one at a time.
    encoded: Writer,
}

impl<P> Replica<P>
where
    P: Protocol,
    P::Message: Wire,
{
    /// Acts on one driver step: peer sends are encoded once and fanned out,
    /// executions answer the issuing client's endpoint and feed the history. Nothing
    /// is flushed here — the loop flushes once per burst. The driver already ran the
    /// protocol's persist hook, so everything queued here is backed by durable state
    /// before any flush can carry it (write-ahead across the wire).
    fn route(&mut self, output: Output<P::Message>) {
        for send in output.sends {
            self.encoded.clear();
            self.encoded.put_u8(ENV_PEER);
            send.msg.encode_into(&mut self.encoded);
            for to in send.to {
                self.transport.send(to, self.encoded.as_bytes());
            }
        }
        for exec in output.executed {
            if let Some(history) = &self.shared.history {
                history.lock().expect("history lock").record_execution(
                    self.shard,
                    self.id,
                    self.incarnation,
                    exec.rifl,
                );
            }
            self.encoded.clear();
            self.encoded.put_u8(ENV_REPLY);
            ClientReply::from_result(self.shard, &exec.result).encode_into(&mut self.encoded);
            self.transport
                .send(CLIENT_ID_BASE + exec.rifl.client, self.encoded.as_bytes());
        }
    }

    fn suspect(&mut self, q: ProcessId) {
        Protocol::suspect(self.driver.protocol_mut(), q);
        self.tracer
            .process_event(self.shared.now_us(), self.id, ProcEvent::Suspect(q));
    }

    fn unsuspect(&mut self, q: ProcessId) {
        Protocol::unsuspect(self.driver.protocol_mut(), q);
        self.tracer
            .process_event(self.shared.now_us(), self.id, ProcEvent::Unsuspect(q));
    }

    /// Handles one inbound frame and queues what it produced.
    fn on_frame(&mut self, from: ProcessId, bytes: &[u8]) {
        // Any frame from a replica peer is proof of life.
        if from < CLIENT_ID_BASE {
            let now = self.shared.now_us();
            if let Some(event) = self.detector.heartbeat(from, now) {
                let DetectorEvent::Unsuspect(q) = event else {
                    unreachable!("heartbeats only unsuspect")
                };
                self.unsuspect(q);
            }
        }
        match decode_inbound::<P::Message>(bytes) {
            Ok(Inbound::Peer(msg)) if from < CLIENT_ID_BASE => {
                let output = self.driver.handle(from, msg, self.shared.now_us());
                self.route(output);
            }
            Ok(Inbound::Request(cmd)) if from >= CLIENT_ID_BASE => {
                let output = self.driver.submit(cmd, self.shared.now_us());
                self.route(output);
            }
            Ok(Inbound::Heartbeat) => {} // Liveness already fed above.
            // Anything else — decode failures included — is dropped: the CRC layer
            // already screened corruption, so this can only be mis-addressed harness
            // traffic.
            _ => {}
        }
    }

    /// Snapshots this replica's counters into the shared registry: each replica owns
    /// its driver and endpoint, so it is the only thread that can read them.
    fn sample_metrics(&self, registry: &Mutex<tempo_trace::MetricsRegistry>, now: u64) {
        let id = self.id;
        let m = self.driver.metrics();
        let t = self.transport.stats();
        let mut registry = registry.lock().expect("registry lock");
        registry.sample(&format!("p{id}.committed"), now, m.committed);
        registry.sample(&format!("p{id}.executed"), now, m.executed);
        registry.sample(&format!("p{id}.messages_sent"), now, m.messages_sent);
        registry.sample(&format!("p{id}.frames_sent"), now, t.frames_sent);
        registry.sample(&format!("p{id}.frames_dropped"), now, t.frames_dropped);
        let suspicions = self.detector.stats().suspicions;
        registry.sample(&format!("p{id}.suspicions"), now, suspicions);
    }

    /// Handles what is on its way to a replica told to stop at shutdown — until its
    /// inbox stays empty for a millisecond, for five polls at most — so that a replica
    /// behind its inbox does not drop work its peers already delivered.
    fn drain(&mut self) {
        let deadline = Instant::now() + 5 * STOP_POLL;
        while Instant::now() < deadline {
            match self.transport.recv_timeout(Duration::from_millis(1)) {
                Ok((from, bytes)) => self.on_frame(from, &bytes),
                Err(_) => break,
            }
        }
        self.transport.flush();
    }

    /// The replica's event loop, until `stop` is raised or the endpoint closes.
    fn run(mut self, stop: &AtomicBool) -> ReplicaExit {
        // The first beacon waits one interval: sent at once, every replica of a fresh
        // cluster dials every peer while the first command is still in flight. The
        // detector is seeded at spawn, so no peer is suspected before it arrives.
        let mut next_heartbeat_us = self.shared.now_us() + HEARTBEAT_INTERVAL_US;
        let mut next_sample_us = self.shared.now_us();
        let mut closed = false;
        // Whether the last burst was cut short with frames still waiting: the replica is
        // behind its inbox, so a peer's latest frames may sit unread in it.
        let mut behind = false;
        loop {
            let now = self.shared.now_us();
            if let (Some(interval), Some(registry)) = (
                self.shared.metrics_interval_us,
                self.shared.registry.as_ref(),
            ) {
                if now >= next_sample_us {
                    next_sample_us = now + interval.max(1);
                    self.sample_metrics(registry, now);
                }
            }
            if now >= next_heartbeat_us {
                next_heartbeat_us = now + HEARTBEAT_INTERVAL_US;
                for q in &self.peers {
                    self.transport.send(*q, &[ENV_HEARTBEAT]);
                }
            }
            // Silence is judged only once the inbox has been read up to date: behind it,
            // a live peer's heartbeats wait unread, and under a load the replica cannot
            // keep up with it would look silent.
            if !behind {
                for event in self.detector.tick(now) {
                    match event {
                        DetectorEvent::Suspect(q) => self.suspect(q),
                        DetectorEvent::Unsuspect(q) => self.unsuspect(q),
                    }
                }
            }
            // Fire due timers between the burst and its flush: the periodic ones a busy
            // inbox must not starve, and the one-shot promise flush the burst armed,
            // whose `MPromises` then share the burst's blobs and syscalls.
            if self.driver.next_timer_due().is_some_and(|due| due <= now) {
                let output = self.driver.fire_due(now);
                self.route(output);
            }
            // The one flush of the turn: the burst's output, what the timers added to
            // it and the beacons all leave before this thread may block.
            self.transport.flush();
            if closed {
                break;
            }
            if stop.load(Ordering::Relaxed) {
                if self.shared.closing.load(Ordering::Relaxed) {
                    self.drain();
                }
                break;
            }
            // The wait starts now, not at the top of the turn: whatever the steps above
            // took must come off it, and a timer they armed is due from here. It also
            // ends at the next heartbeat or suspicion deadline, so detection latency is
            // bounded by the detector, not by the poll granularity.
            let now = self.shared.now_us();
            let due = [self.driver.next_timer_due(), self.detector.next_deadline()]
                .into_iter()
                .flatten()
                .fold(next_heartbeat_us, u64::min);
            let mut timeout = Duration::from_micros(due.saturating_sub(now)).min(STOP_POLL);
            // One burst: block for the first frame, then take what is already there
            // without waiting; the next turn flushes everything it produced at once.
            let mut taken = 0;
            closed = loop {
                match self.transport.recv_timeout(timeout) {
                    Ok((from, bytes)) => self.on_frame(from, &bytes),
                    Err(RecvError::Timeout) => break false,
                    Err(RecvError::Closed) => break true,
                }
                taken += 1;
                if taken == BURST_FRAMES {
                    break false;
                }
                timeout = Duration::ZERO;
            };
            behind = taken == BURST_FRAMES;
        }
        (
            self.driver.metrics(),
            self.transport.stats(),
            self.detector.stats(),
        )
    }
}

fn spawn_replica<P>(
    protocol: P,
    transport: Box<dyn Transport>,
    id: ProcessId,
    shard: ShardId,
    incarnation: u64,
    shared: Arc<Shared>,
) -> Seat
where
    P: Protocol + Send + 'static,
    P::Message: Wire + Send + 'static,
{
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let handle = std::thread::Builder::new()
        .name(format!("replica-{id}-i{incarnation}"))
        .spawn(move || {
            let tracer = shared.tracer(id);
            let mut driver = Driver::from_protocol(protocol);
            driver.set_tracer(tracer.clone());
            let view = view_of(shared.config, shared.planet.as_ref(), id);
            let peers: Vec<ProcessId> = shared
                .membership
                .all_processes()
                .into_iter()
                .filter(|q| *q != id)
                .collect();
            // A fresh detector per incarnation (fresh grace period for everyone, so
            // a restarted replica suspects the peers still down on its own), fed by
            // heartbeats the loop broadcasts and by every frame a peer sends — both
            // travel the same chaos-afflicted transport, which is exactly what makes
            // suspicion fallible.
            let detector = FailureDetector::new(peers.iter().copied(), shared.now_us());
            let mut replica = Replica {
                driver,
                transport,
                peers,
                detector,
                tracer,
                shared,
                id,
                shard,
                incarnation,
                encoded: Writer::new(),
            };
            let output = replica.driver.start(view, replica.shared.now_us());
            replica.route(output);
            if incarnation > 0 {
                let output = replica.driver.rejoin(incarnation, replica.shared.now_us());
                replica.route(output);
            }
            replica.run(&stop_flag)
        })
        .expect("spawn replica thread");
    Seat { stop, handle }
}

// ----------------------------------------------------------------- supervisor

fn supervisor_loop<P>(
    links: Arc<LinkNet>,
    mesh: TcpMesh,
    shared: Arc<Shared>,
    seats: Arc<Mutex<BTreeMap<ProcessId, Seat>>>,
    dead: Arc<Mutex<Vec<ReplicaExit>>>,
    done: Arc<AtomicBool>,
    mut factory: RuntimeFactory<P>,
) where
    P: Protocol + Send + 'static,
    P::Message: Wire + Send + 'static,
{
    while !done.load(Ordering::Relaxed) {
        let now = shared.now_us();
        let Some(due) = links.nemesis().and_then(|n| n.next_due()) else {
            break; // Schedule exhausted: nothing left to inject.
        };
        if due > now {
            // Sleep in slices so shutdown stays prompt.
            std::thread::sleep(Duration::from_micros((due - now).min(20_000)));
            continue;
        }
        // The lock is released before acting: a replica being stopped may be waiting
        // for it in its transport.
        let actions = links.nemesis().map(|mut n| n.advance(now));
        for action in actions.unwrap_or_default() {
            match action {
                ProcessAction::Crash(p) => {
                    // Kill the thread; its endpoint (sockets, queued frames, inbox)
                    // dies with it.
                    let seat = seats.lock().expect("seats lock").remove(&p);
                    if let Some(seat) = seat {
                        seat.stop.store(true, Ordering::Relaxed);
                        if let Ok(exit) = seat.handle.join() {
                            dead.lock().expect("dead lock").push(exit);
                        }
                    }
                    shared.down.lock().expect("down lock").insert(p);
                    shared
                        .tracer(p)
                        .process_event(shared.now_us(), p, ProcEvent::Crash(p));
                }
                ProcessAction::Restart {
                    process: p,
                    incarnation,
                } => {
                    shared
                        .tracer(p)
                        .process_event(shared.now_us(), p, ProcEvent::Restart(p));
                    let shard = shared.membership.shard_of(p);
                    let protocol = factory(p, shard, shared.config, incarnation);
                    let transport = make_transport(&mesh, Some(&links), p)
                        .expect("bind restarted replica endpoint");
                    shared.down.lock().expect("down lock").remove(&p);
                    let seat = spawn_replica(
                        protocol,
                        transport,
                        p,
                        shard,
                        incarnation,
                        Arc::clone(&shared),
                    );
                    seats.lock().expect("seats lock").insert(p, seat);
                }
            }
        }
    }
}

/// An endpoint of `id`: behind the one [`LinkTransport`] when the cluster emulates a
/// network (a planet, a nemesis or both), a bare TCP endpoint otherwise.
fn make_transport(
    mesh: &TcpMesh,
    links: Option<&Arc<LinkNet>>,
    id: ProcessId,
) -> std::io::Result<Box<dyn Transport>> {
    let endpoint = mesh.endpoint(id, true)?;
    Ok(match links {
        Some(net) => Box::new(LinkTransport::new(endpoint, Arc::clone(net))),
        None => Box::new(endpoint),
    })
}

// -------------------------------------------------------------------- cluster

/// A running networked cluster. Not generic over the protocol: the protocol type is
/// fixed at [`NetCluster::start`] and lives inside the replica threads (and the
/// supervisor's factory), so clients and shutdown stay protocol-agnostic.
pub struct NetCluster {
    pub(crate) shared: Arc<Shared>,
    mesh: TcpMesh,
    /// The emulated network, when [`NetOpts`] asks for a planet or a nemesis.
    links: Option<Arc<LinkNet>>,
    seats: Arc<Mutex<BTreeMap<ProcessId, Seat>>>,
    dead: Arc<Mutex<Vec<ReplicaExit>>>,
    supervisor: Option<JoinHandle<()>>,
    done: Arc<AtomicBool>,
}

/// Everything a finished run reports.
#[derive(Debug)]
pub struct RuntimeReport {
    /// Per replica-incarnation protocol metrics (crashed incarnations included).
    pub metrics: Vec<ProtocolMetrics>,
    /// Aggregated transport traffic across all replica endpoints.
    pub transport: TransportStats,
    /// Faults injected and their frame-level effects (empty without a nemesis).
    pub faults: FaultSummary,
    /// Failure-detector activity summed over all replica incarnations.
    pub detector: DetectorStats,
    /// The recorded history, when [`NetOpts::record_history`] was set.
    pub history: Option<History>,
    /// The merged, time-sorted lifecycle trace, when [`NetOpts::trace`] was set.
    pub trace: Option<TraceLog>,
    /// Per-phase latency fold of [`trace`](RuntimeReport::trace).
    pub phases: Option<tempo_trace::PhaseLatencies>,
    /// Per-replica counter time series, when [`NetOpts::metrics_interval`] was set.
    pub registry: Option<tempo_trace::MetricsRegistry>,
    /// Wall-clock duration of the run, cluster start to shutdown.
    pub duration: Duration,
}

impl RuntimeReport {
    /// Field-wise sum of the per-incarnation metrics.
    pub fn total_metrics(&self) -> ProtocolMetrics {
        self.metrics
            .iter()
            .fold(ProtocolMetrics::default(), |mut total, m| {
                total.merge(m);
                total
            })
    }
}

impl NetCluster {
    /// Starts one replica thread per process of `config`, each built by `factory`
    /// (incarnation 0) around its own transport endpoint; with a nemesis schedule in
    /// `opts`, also starts the supervisor that injects crashes and restarts.
    pub fn start<P>(
        config: Config,
        opts: NetOpts,
        mut factory: RuntimeFactory<P>,
    ) -> std::io::Result<NetCluster>
    where
        P: Protocol + Send + 'static,
        P::Message: Wire + Send + 'static,
    {
        let membership = Membership::from_config(&config);
        let mesh = TcpMesh::new();
        // Protocol time and the nemesis schedule both count from here.
        let epoch = Instant::now();
        if let Some(planet) = &opts.planet {
            assert!(
                planet.len() >= membership.sites(),
                "the planet has {} regions but the config needs {} sites",
                planet.len(),
                membership.sites()
            );
        }
        let nemesis = opts
            .nemesis
            .clone()
            .map(|schedule| Nemesis::new(schedule, opts.seed));
        let links = (opts.planet.is_some() || nemesis.is_some()).then(|| {
            let net = Arc::new(LinkNet::new(opts.planet.clone(), nemesis));
            for id in membership.all_processes() {
                net.register(id, membership.site_of(id));
            }
            net
        });
        let tracers = if opts.trace {
            membership
                .all_processes()
                .into_iter()
                .map(|p| (p, Tracer::with_capacity(DEFAULT_TRACE_CAPACITY)))
                .collect()
        } else {
            BTreeMap::new()
        };
        let shared = Arc::new(Shared {
            config,
            membership: membership.clone(),
            epoch,
            down: Mutex::new(BTreeSet::new()),
            history: opts.record_history.then(|| Mutex::new(History::new())),
            client_timeout: opts.client_timeout,
            planet: opts.planet.clone(),
            site_views: site_views(config, opts.planet.as_ref()),
            tracers,
            registry: opts
                .metrics_interval
                .map(|_| Mutex::new(tempo_trace::MetricsRegistry::new())),
            metrics_interval_us: opts.metrics_interval.map(|d| d.as_micros() as u64),
            closing: AtomicBool::new(false),
        });
        let seats = Arc::new(Mutex::new(BTreeMap::new()));
        for id in membership.all_processes() {
            let shard = membership.shard_of(id);
            let protocol = factory(id, shard, config, 0);
            let transport = make_transport(&mesh, links.as_ref(), id)?;
            let seat = spawn_replica(protocol, transport, id, shard, 0, Arc::clone(&shared));
            seats.lock().expect("seats lock").insert(id, seat);
        }
        let dead = Arc::new(Mutex::new(Vec::new()));
        let done = Arc::new(AtomicBool::new(false));
        let supervisor = links
            .clone()
            .filter(|l| l.nemesis().is_some())
            .map(|links| {
                let mesh = mesh.clone();
                let shared = Arc::clone(&shared);
                let seats = Arc::clone(&seats);
                let dead = Arc::clone(&dead);
                let done = Arc::clone(&done);
                std::thread::Builder::new()
                    .name("supervisor".to_string())
                    .spawn(move || supervisor_loop(links, mesh, shared, seats, dead, done, factory))
                    .expect("spawn supervisor thread")
            });
        Ok(NetCluster {
            shared,
            mesh,
            links,
            seats,
            dead,
            supervisor,
            done,
        })
    }

    /// The deployment configuration.
    pub fn config(&self) -> Config {
        self.shared.config
    }

    /// Whether the nemesis schedule still has a fault to inject.
    fn nemesis_pending(&self) -> bool {
        self.links
            .as_ref()
            .and_then(|l| l.nemesis())
            .is_some_and(|n| n.next_due().is_some())
    }

    /// The phase-latency fold of everything traced so far, without draining the
    /// rings (the eventual [`shutdown`](NetCluster::shutdown) report still sees
    /// every event). `None` when [`NetOpts::trace`] is off. This is how the load
    /// driver surfaces a phase breakdown alongside its latency report.
    pub fn phases_so_far(&self) -> Option<tempo_trace::PhaseLatencies> {
        let tracers = &self.shared.tracers;
        (!tracers.is_empty())
            .then(|| merge_and_fold(tracers.values().map(Tracer::snapshot).collect()).1)
    }

    /// Builds a client-side transport endpoint colocated with `site`: delayed by the
    /// planet (clients live in regions too) but exempt from faults, like the
    /// simulator's client bookkeeping. Shared by [`ClientSession`] and the load
    /// driver's pumps.
    pub(crate) fn client_transport(
        &self,
        site: SiteId,
        client: ClientId,
    ) -> std::io::Result<Box<dyn Transport>> {
        assert!(
            (site as usize) < self.shared.membership.sites(),
            "site out of range"
        );
        let id = CLIENT_ID_BASE + client;
        if let Some(net) = &self.links {
            net.register(id, site);
        }
        // Faults spare client frames, so only geography needs the shim here.
        let links = self.links.as_ref().filter(|l| l.planet().is_some());
        make_transport(&self.mesh, links, id)
    }

    /// Opens a client session colocated with `site`. Commands submitted through it
    /// must carry `Rifl`s with this `client` id (that is how execution notices find
    /// their way back).
    pub fn client(&self, site: SiteId, client: ClientId) -> std::io::Result<ClientSession> {
        let transport = self.client_transport(site, client)?;
        Ok(ClientSession {
            id: client,
            site,
            transport,
            shared: Arc::clone(&self.shared),
            session: Session::default(),
        })
    }

    /// Stops every replica (and the supervisor) and collects the report.
    pub fn shutdown(mut self) -> RuntimeReport {
        self.done.store(true, Ordering::Relaxed);
        let mut exits: Vec<ReplicaExit> = Vec::new();
        // Join the supervisor first so it cannot race replica teardown with a
        // concurrent restart.
        if let Some(handle) = self.supervisor.take() {
            let _ = handle.join();
        }
        let seats = std::mem::take(&mut *self.seats.lock().expect("seats lock"));
        // Stop them all before joining any, so that their waits overlap.
        self.shared.closing.store(true, Ordering::Relaxed);
        for seat in seats.values() {
            seat.stop.store(true, Ordering::Relaxed);
        }
        for (_, seat) in seats {
            if let Ok(exit) = seat.handle.join() {
                exits.push(exit);
            }
        }
        exits.extend(self.dead.lock().expect("dead lock").drain(..));
        let mut transport = TransportStats::default();
        let mut detector = DetectorStats::default();
        for (_, stats, det) in &exits {
            transport.merge(stats);
            detector.merge(det);
        }
        let mut faults = self
            .links
            .as_ref()
            .and_then(|l| l.nemesis())
            .map(|n| n.summary())
            .unwrap_or_default();
        // Frames the transport layer discarded because their destination incarnation
        // had been replaced are crash casualties: count them where the simulator
        // counts frames lost to a crashed process.
        faults.dropped_crash += transport.frames_dropped_stale;
        // Drain the per-replica rings in ProcessId order; wall-clock timestamps mean
        // runtime traces are *not* run-to-run identical (the sim's are) but the fold
        // and export are deterministic given the log.
        let tracers = &self.shared.tracers;
        let (trace, phases) = (!tracers.is_empty())
            .then(|| merge_and_fold(tracers.values().map(Tracer::take).collect()))
            .unzip();
        RuntimeReport {
            metrics: exits.into_iter().map(|(m, _, _)| m).collect(),
            transport,
            faults,
            detector,
            history: self
                .shared
                .history
                .as_ref()
                .map(|h| h.lock().expect("history lock").clone()),
            trace,
            phases,
            registry: self
                .shared
                .registry
                .as_ref()
                .map(|r| r.lock().expect("registry lock").clone()),
            duration: self.shared.epoch.elapsed(),
        }
    }
}

// -------------------------------------------------------------------- clients

/// A client attached to the cluster through its own transport endpoint, submitting
/// commands synchronously with the simulator's completion semantics.
pub struct ClientSession {
    id: ClientId,
    site: SiteId,
    transport: Box<dyn Transport>,
    shared: Arc<Shared>,
    session: Session,
}

impl ClientSession {
    /// This session's client id.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// Submits `cmd` and blocks until the watched replica of every accessed shard
    /// reported execution, returning the observed per-key outputs — or `None` after
    /// the client timeout (the command is recorded as aborted; it may still take
    /// effect, exactly like a timed-out client in the simulator).
    pub fn submit(&mut self, cmd: Command) -> Option<Vec<(ShardId, Key, Option<u64>)>> {
        let rifl = cmd.rifl;
        debug_assert_eq!(rifl.client, self.id, "command must carry this client's id");
        if let Some(history) = &self.shared.history {
            history.lock().expect("history lock").record_invoke(
                rifl,
                cmd.clone(),
                self.shared.now_us(),
            );
        }
        let Some(target) = self.shared.open(&mut self.session, self.site, &cmd, 0) else {
            // Some accessed shard has every replica down.
            return self.abort(rifl);
        };
        self.transport.send(target, &encode_request(&cmd));
        self.transport.flush();

        let deadline = Instant::now() + self.shared.client_timeout;
        loop {
            let now = Instant::now();
            if now >= deadline {
                return self.abort(rifl);
            }
            let slice = (deadline - now).min(Duration::from_millis(50));
            match self.transport.recv_timeout(slice) {
                Ok((from, bytes)) => {
                    let Some(reply) = decode_reply(&bytes) else {
                        continue;
                    };
                    let Some(done) =
                        self.session
                            .reply(from, reply.rifl, reply.shard, &reply.outputs)
                    else {
                        continue;
                    };
                    let outputs = done.outputs.to_vec();
                    // The reply observed at the client, attributed to the replica
                    // whose notice completed the command.
                    self.shared.tracer(from).phase(
                        self.shared.now_us(),
                        from,
                        rifl,
                        CmdPhase::Replied,
                    );
                    if let Some(history) = &self.shared.history {
                        history.lock().expect("history lock").record_complete(
                            rifl,
                            self.shared.now_us(),
                            outputs.clone(),
                        );
                    }
                    return Some(outputs);
                }
                Err(RecvError::Timeout) => {}
                Err(RecvError::Closed) => return self.abort(rifl),
            }
        }
    }

    fn abort(&mut self, rifl: Rifl) -> Option<Vec<(ShardId, Key, Option<u64>)>> {
        self.session.abort(rifl);
        if let Some(history) = &self.shared.history {
            history.lock().expect("history lock").record_abort(rifl);
        }
        None
    }
}

/// Per-run client accounting of [`run_workload`].
#[derive(Debug, Clone, Default)]
pub struct WorkloadTally {
    /// Commands submitted across all clients: `completed + aborted`.
    pub submitted: u64,
    /// Commands completed across all clients.
    pub completed: u64,
    /// Commands aborted (client timeout or no live replica).
    pub aborted: u64,
    /// Per-command completion latency across all clients, in microseconds (measured
    /// submit-to-completion — closed-loop, so there is no intended-arrival time).
    pub latency: LogHistogram,
}

/// Runs a closed-loop workload against the cluster: `clients_per_site` client threads
/// per site, each issuing `commands_per_client` commands through its own
/// [`ClientSession`] — the networked analogue of the simulator's client loop. While the
/// nemesis schedule still has a fault to inject, clients keep submitting past that
/// count, so a run always outlasts its schedule however fast the build.
///
/// `mix_for(client)` builds each client's own mix, so no lock sits on the submit path
/// and — seeded per client, e.g. `|c| ConflictMix::new(0.1, 16, seed + c)` — what client
/// `c` submits, as `(c, 1), (c, 2), …`, depends on the seed alone, not on thread timing.
pub fn run_workload<M, F>(
    cluster: &NetCluster,
    clients_per_site: usize,
    commands_per_client: usize,
    mut mix_for: F,
) -> WorkloadTally
where
    M: Mix + 'static,
    F: FnMut(ClientId) -> M,
{
    let sites = cluster.shared.membership.sites() as u64;
    let mut client_id: ClientId = 0;
    std::thread::scope(|scope| {
        let mut threads = Vec::new();
        for site in 0..sites {
            for _ in 0..clients_per_site {
                let mut session = cluster.client(site, client_id).expect("client endpoint");
                let mut mix = mix_for(client_id);
                client_id += 1;
                threads.push(
                    std::thread::Builder::new()
                        .name(format!("client-{}", session.id()))
                        .spawn_scoped(scope, move || {
                            let mut tally = WorkloadTally::default();
                            while tally.submitted < commands_per_client as u64
                                || cluster.nemesis_pending()
                            {
                                tally.submitted += 1;
                                let cmd = mix.next(Rifl::new(session.id(), tally.submitted));
                                let submitted = Instant::now();
                                if session.submit(cmd).is_some() {
                                    tally.completed += 1;
                                    tally.latency.record(submitted.elapsed().as_micros() as u64);
                                } else {
                                    tally.aborted += 1;
                                }
                            }
                            tally
                        })
                        .expect("spawn client thread"),
                );
            }
        }
        let mut total = WorkloadTally::default();
        for thread in threads {
            let tally = thread.join().expect("client thread");
            total.submitted += tally.submitted;
            total.completed += tally.completed;
            total.aborted += tally.aborted;
            total.latency.merge(&tally.latency);
        }
        total
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_core::Tempo;
    use tempo_kernel::command::KVOp;
    use tempo_load::ConflictMix;

    fn tempo_factory() -> RuntimeFactory<Tempo> {
        Box::new(|id, shard, config, _incarnation| Tempo::new(id, shard, config))
    }

    impl Shared {
        /// The state of a cluster of `config` without a planet, a history or
        /// tracing — for driving one replica or one pump by hand.
        pub(crate) fn bare(config: Config) -> Self {
            Shared {
                config,
                membership: Membership::from_config(&config),
                site_views: site_views(config, None),
                epoch: Instant::now(),
                down: Mutex::new(BTreeSet::new()),
                history: None,
                client_timeout: Duration::from_secs(1),
                planet: None,
                tracers: BTreeMap::new(),
                registry: None,
                metrics_interval_us: None,
                closing: AtomicBool::new(false),
            }
        }
    }

    #[test]
    fn commands_complete_over_real_sockets() {
        let cluster = NetCluster::start(
            Config::full(3, 1),
            NetOpts {
                record_history: true,
                ..NetOpts::default()
            },
            tempo_factory(),
        )
        .expect("cluster starts");
        let mut session = cluster.client(0, 1).expect("client");
        for seq in 1..=10u64 {
            let cmd = Command::single(Rifl::new(1, seq), 0, seq % 3, KVOp::Put(seq), 0);
            let outputs = session.submit(cmd).expect("command completes");
            assert_eq!(outputs.len(), 1, "one key, one output");
        }
        // A read observes the last write to its key through the real stack.
        let outputs = session
            .submit(Command::single(Rifl::new(1, 11), 0, 1, KVOp::Get, 0))
            .expect("read completes");
        assert_eq!(
            outputs,
            vec![(0, 1, Some(10))],
            "Get must see Put(10) on key 1"
        );
        drop(session);
        let report = cluster.shutdown();
        let total = report.total_metrics();
        assert!(total.committed >= 11, "commits: {total:?}");
        assert!(
            report.transport.frames_sent > 0 && report.transport.bytes_sent > 0,
            "traffic must have crossed the transport: {:?}",
            report.transport
        );
        report
            .history
            .expect("history recorded")
            .check()
            .expect("failure-free run passes the checker");
    }

    /// Clients at every site complete concurrently — and a seed reproduces its
    /// commands: every client draws from its own mix, so what each client submits
    /// does not depend on how the client threads interleave.
    #[test]
    fn concurrent_clients_from_every_site_invoke_what_their_seeds_say() {
        let invoked = || {
            let cluster = NetCluster::start(
                Config::full(3, 1),
                NetOpts {
                    record_history: true,
                    ..NetOpts::default()
                },
                tempo_factory(),
            )
            .expect("cluster starts");
            let tally = run_workload(&cluster, 2, 12, |c| {
                ConflictMix::new(0.4, 16, 31 + c).with_hot_reads(0.5)
            });
            assert_eq!(tally.completed, 3 * 2 * 12, "all complete: {tally:?}");
            let report = cluster.shutdown();
            assert!(report.total_metrics().executed > 0);
            let history = report.history.expect("history recorded");
            history.invoked().cloned().collect::<Vec<Command>>()
        };
        let first = invoked();
        assert_eq!(first.len(), 3 * 2 * 12);
        assert_eq!(first, invoked());
    }

    /// The Atlas baseline (dependency-based, graph executor) must run on the same
    /// networked stack as Tempo — that is what puts it on the load-plane plots.
    #[test]
    fn atlas_baseline_completes_over_real_sockets() {
        use tempo_atlas::Atlas;
        let factory: RuntimeFactory<Atlas> =
            Box::new(|id, shard, config, _incarnation| Atlas::new(id, shard, config));
        let cluster = NetCluster::start(Config::full(3, 1), NetOpts::default(), factory)
            .expect("cluster starts");
        let tally = run_workload(&cluster, 2, 5, |c| ConflictMix::new(0.3, 16, 11 + c));
        assert_eq!(tally.completed, 3 * 2 * 5, "all complete: {tally:?}");
        let report = cluster.shutdown();
        assert!(report.total_metrics().fast_paths > 0, "fast paths taken");
    }

    /// An idle endpoint whose `flush` takes a fixed time, recording every wait the
    /// replica asks for.
    struct SlowFlush {
        flush: Duration,
        waits: Arc<Mutex<Vec<Duration>>>,
    }

    impl Transport for SlowFlush {
        fn local_id(&self) -> ProcessId {
            0
        }

        fn send(&mut self, _to: ProcessId, _payload: &[u8]) {}

        fn flush(&mut self) {
            std::thread::sleep(self.flush);
        }

        fn recv_timeout(&mut self, timeout: Duration) -> Result<(ProcessId, Vec<u8>), RecvError> {
            self.waits.lock().expect("waits lock").push(timeout);
            std::thread::sleep(timeout);
            Err(RecvError::Timeout)
        }

        fn stats(&self) -> TransportStats {
            TransportStats::default()
        }
    }

    /// The replica's blocking wait runs from when it starts waiting to its next timer,
    /// not from the top of the turn: what the turn spent before blocking (here a 4 ms
    /// flush) comes off the wait. Tempo's timers recur every 5 ms, each re-armed from
    /// the instant it fired, so after a flush of 4 ms no wait may exceed 1 ms — whatever
    /// the host's scheduling adds only shortens it. Measured from the top of the turn,
    /// the first wait is the full 5 ms and every timer fires 4 ms late.
    #[test]
    fn the_blocking_wait_is_measured_from_after_the_flush() {
        const TIMER_PERIOD: Duration = Duration::from_millis(5);
        const FLUSH: Duration = Duration::from_millis(4);
        let config = Config::full(3, 1);
        let shared = Arc::new(Shared::bare(config));
        let waits = Arc::new(Mutex::new(Vec::new()));
        let transport = SlowFlush {
            flush: FLUSH,
            waits: Arc::clone(&waits),
        };
        let seat = spawn_replica(
            Tempo::new(0, 0, config),
            Box::new(transport),
            0,
            0,
            0,
            shared,
        );
        std::thread::sleep(20 * TIMER_PERIOD);
        seat.stop.store(true, Ordering::Relaxed);
        seat.handle.join().expect("replica thread");
        let waits = waits.lock().expect("waits lock");
        assert!(waits.len() >= 5, "the replica kept turning: {waits:?}");
        for wait in waits.iter() {
            assert!(
                *wait <= TIMER_PERIOD - FLUSH,
                "waited {wait:?} for a timer at most {:?} away: {waits:?}",
                TIMER_PERIOD - FLUSH
            );
        }
    }

    /// A replica takes frames in bursts and looks at its timers, its detector and
    /// its stop flag only between them. Under a load that never lets an inbox run
    /// dry, heartbeats must still go out and be seen (no suspicion), the protocol's
    /// periodic promises must still flow (commands become stable and execute
    /// everywhere), and a stop must still be seen within a poll.
    #[test]
    fn bursts_do_not_starve_timers_or_the_detector() {
        use crate::load::{run_load, LoadOpts};
        use tempo_load::ZipfMix;
        let cluster = NetCluster::start(Config::full(3, 1), NetOpts::default(), tempo_factory())
            .expect("cluster starts");
        // A round's work is all due within 100 ms, so the 256 sessions turn it into
        // a closed loop of that depth that keeps every inbox non-empty; rounds repeat
        // until the replicas have spent a second that way, whatever the build
        // profile and the host.
        const ROUND: u64 = 20_000;
        let mut busy = Duration::ZERO;
        let mut completed = 0;
        for round in 0.. {
            let opts = LoadOpts {
                sessions: 256,
                sockets_per_site: 1,
                rate_per_s: ROUND as f64 * 10.0,
                warmup: Duration::ZERO,
                measure: Duration::from_millis(100),
                poisson: false,
                seed: round,
                op_timeout: Duration::from_secs(60),
            };
            let begun = Instant::now();
            let load = run_load(&cluster, opts, |pump| {
                ZipfMix::new(4096, 0.5, 0.5, 3 * round + pump as u64).with_payload(100)
            });
            busy += begun.elapsed();
            assert_eq!(load.aborted, 0, "no command may time out: {load:?}");
            assert!(
                load.completed >= ROUND - 3,
                "every command completes: {load:?}"
            );
            completed += load.completed;
            if busy >= Duration::from_secs(1) {
                break;
            }
        }
        let stopping = Instant::now();
        let report = cluster.shutdown();
        let stopped_in = stopping.elapsed();
        assert!(stopped_in < 10 * STOP_POLL, "shutdown took {stopped_in:?}");
        assert_eq!(report.detector.suspicions, 0, "{:?}", report.detector);
        assert!(report.detector.heartbeats > 0, "{:?}", report.detector);
        for metrics in &report.metrics {
            assert!(
                metrics.executed >= completed,
                "stability must advance at every replica: {metrics:?}"
            );
        }
    }
}
