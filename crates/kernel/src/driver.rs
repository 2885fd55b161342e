//! The generic event-dispatch core shared by every runtime (API v2).
//!
//! A [`Driver`] owns one [`Protocol`] instance together with its pending timer queue and
//! is the single place where protocol [`Action`]s are interpreted:
//!
//! * `Send` actions are split: the remote destinations are collected into
//!   [`Output::sends`] for the embedding scheduler to transport (FIFO queue in
//!   [`crate::harness::LocalCluster`], latency-modelled event queue in `tempo-sim`,
//!   sockets in `tempo-runtime`), and a copy addressed to the sending process itself is
//!   handed straight back through [`Protocol::handle`] — *self-delivery*, below;
//! * `Deliver` actions are collected into [`Output::executed`] — the push-based
//!   completion stream that replaced v1's `drain_executed` polling;
//! * `Schedule` actions are absorbed into the driver's timer queue; the scheduler asks
//!   [`Driver::next_timer_due`] when to wake the process up and calls
//!   [`Driver::fire_due`] once that moment arrives.
//!
//! The driver also maintains the per-destination `messages_sent` counter uniformly for
//! all protocols (a `Send` to `k` remote peers counts as `k` messages), so message
//! accounting cannot drift between protocol implementations.
//!
//! **Self-delivery** is decided here and nowhere else. Algorithm 1 lets a process send
//! to itself and assumes the message arrives; a protocol just names itself in `to`. The
//! driver delivers that copy with `handle(id, msg, now_us)` *after the handler that
//! produced it has returned* and before the step returns — an explicit work-list walked
//! in action order, depth-first over the returned action lists — so no handler ever runs
//! in the middle of another, and remote sends and `Deliver`s keep the order in which the
//! handlers issued them. Self-deliveries never reach a scheduler and are not counted in
//! `messages_sent`; the message is moved when it goes only to its sender and cloned once
//! when it also goes to remote peers.
//!
//! It is also the single place where the **persistence hook** fires: at the end of every
//! dispatch step — after the protocol's actions were absorbed and its self-deliveries
//! drained, before the step's [`Output`] is returned to the scheduler — the driver calls
//! [`Protocol::persist`], once.
//! Since schedulers only transport messages they received in an `Output`, a protocol
//! that flushes its durable store in `persist` gets the write-ahead guarantee for free:
//! no message leaves the process before the state that produced it is durable.
//!
//! The contract, in one paragraph: the *protocol* decides what to send, when to run
//! periodic work (by scheduling its own timers) and when a command has executed (by
//! emitting `Deliver`); the *driver* turns those decisions into data the scheduler can
//! act on; the *scheduler* owns transport and time — nothing else. See `DESIGN.md`
//! ("Protocol API v2") for the full contract.

use crate::command::Command;
use crate::config::Config;
use crate::id::{ProcessId, ShardId};
use crate::protocol::{Action, Executed, Protocol, ProtocolMetrics, TimerId, View};
use crate::trace::{CmdPhase, Tracer};
use std::collections::BTreeSet;

/// An outbound message produced by one driver step: `msg` must be transported to every
/// process in `to` (all remote: the driver has already delivered the sender's own copy).
#[derive(Debug, Clone)]
pub struct Outbound<M> {
    /// Destination processes.
    pub to: Vec<ProcessId>,
    /// The message.
    pub msg: M,
}

/// Everything a scheduler must act on after one driver step.
#[derive(Debug)]
pub struct Output<M> {
    /// Messages to transport.
    pub sends: Vec<Outbound<M>>,
    /// Commands that executed at this process during the step, in execution order.
    pub executed: Vec<Executed>,
}

impl<M> Output<M> {
    fn empty() -> Self {
        Self {
            sends: Vec::new(),
            executed: Vec::new(),
        }
    }

    /// Whether the step produced nothing to act on.
    pub fn is_empty(&self) -> bool {
        self.sends.is_empty() && self.executed.is_empty()
    }
}

/// The event-dispatch core for one protocol instance.
#[derive(Debug)]
pub struct Driver<P: Protocol> {
    protocol: P,
    /// Pending one-shot timers as `(absolute due time in µs, timer)`.
    timers: BTreeSet<(u64, TimerId)>,
    messages_sent: u64,
    /// The self-delivery work-list: action lists still being walked, innermost last.
    /// Empty between steps; a field only so that its allocation is reused.
    worklist: Vec<std::vec::IntoIter<Action<P::Message>>>,
    /// Lifecycle tracing handle; disabled by default (one branch per dispatch point).
    tracer: Tracer,
}

impl<P: Protocol> Driver<P> {
    /// Creates a driver around a fresh protocol instance.
    pub fn new(process: ProcessId, shard: ShardId, config: Config) -> Self {
        Self::from_protocol(P::new(process, shard, config))
    }

    /// Creates a driver around an existing protocol instance (e.g. one built with
    /// non-default options).
    pub fn from_protocol(protocol: P) -> Self {
        Self {
            protocol,
            timers: BTreeSet::new(),
            messages_sent: 0,
            worklist: Vec::new(),
            tracer: Tracer::disabled(),
        }
    }

    /// Installs a lifecycle tracer. The driver emits the uniform `Submitted` and
    /// `Executed` phase events itself and forwards the handle to the protocol (via
    /// [`Protocol::attach_tracer`]) for the phases in between.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.protocol.attach_tracer(tracer.clone());
        self.tracer = tracer;
    }

    /// Provides the deployment view to the protocol and absorbs its initial actions
    /// (typically timer registrations). Must be called once before any other step.
    pub fn start(&mut self, view: View, now_us: u64) -> Output<P::Message> {
        let actions = self.protocol.discover(view);
        self.step(actions, now_us)
    }

    /// Runs the protocol's rejoin hook for a process rebuilt after a crash (see
    /// [`Protocol::rejoin`]) and absorbs the handshake actions it produces.
    pub fn rejoin(&mut self, incarnation: u64, now_us: u64) -> Output<P::Message> {
        let actions = self.protocol.rejoin(incarnation, now_us);
        self.step(actions, now_us)
    }

    /// Submits a client command.
    pub fn submit(&mut self, cmd: Command, now_us: u64) -> Output<P::Message> {
        self.tracer
            .phase(now_us, self.protocol.id(), cmd.rifl, CmdPhase::Submitted);
        let actions = self.protocol.submit(cmd, now_us);
        self.step(actions, now_us)
    }

    /// Delivers a message from `from`.
    pub fn handle(&mut self, from: ProcessId, msg: P::Message, now_us: u64) -> Output<P::Message> {
        let actions = self.protocol.handle(from, msg, now_us);
        self.step(actions, now_us)
    }

    /// The absolute time (µs) at which the earliest pending timer is due, if any.
    pub fn next_timer_due(&self) -> Option<u64> {
        self.timers.first().map(|(due, _)| *due)
    }

    /// Fires every timer due at or before `now_us`. Timers re-scheduled by the protocol
    /// during the call land strictly after `now_us`, so the loop terminates.
    pub fn fire_due(&mut self, now_us: u64) -> Output<P::Message> {
        let mut output = Output::empty();
        while self.timers.first().is_some_and(|(due, _)| *due <= now_us) {
            let (_, timer) = self.timers.pop_first().expect("checked non-empty");
            let actions = self.protocol.timer(timer, now_us);
            self.absorb_into(actions, now_us, &mut output);
        }
        self.protocol.persist();
        output
    }

    /// Read access to the protocol state machine.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// Mutable access to the protocol state machine (tests and harnesses only; actions
    /// produced by direct calls bypass the driver).
    pub fn protocol_mut(&mut self) -> &mut P {
        &mut self.protocol
    }

    /// Protocol counters with the driver-maintained `messages_sent` filled in.
    pub fn metrics(&self) -> ProtocolMetrics {
        let mut metrics = self.protocol.metrics();
        metrics.messages_sent = self.messages_sent;
        metrics
    }

    /// One dispatch step: absorbs `actions` and drains the self-deliveries they cause,
    /// then persists — once, before the output can reach a transport.
    fn step(&mut self, actions: Vec<Action<P::Message>>, now_us: u64) -> Output<P::Message> {
        let mut output = Output::empty();
        self.absorb_into(actions, now_us, &mut output);
        self.protocol.persist();
        output
    }

    /// Interprets `actions` and, depth-first, the actions of every self-delivery they
    /// cause: a `Send` naming this process is handled right where it stands in the list,
    /// once the handler that returned the list is off the stack.
    fn absorb_into(
        &mut self,
        actions: Vec<Action<P::Message>>,
        now_us: u64,
        output: &mut Output<P::Message>,
    ) {
        let this = self.protocol.id();
        let mut worklist = std::mem::take(&mut self.worklist);
        worklist.push(actions.into_iter());
        while let Some(action) = worklist.last_mut().map(Iterator::next) {
            match action {
                None => {
                    worklist.pop();
                }
                Some(Action::Send { mut to, msg }) => {
                    let before = to.len();
                    to.retain(|t| *t != this);
                    let to_self = to.len() < before;
                    self.messages_sent += to.len() as u64;
                    // Moved when it goes one way only, cloned once when it goes both.
                    let local = if to.is_empty() {
                        to_self.then_some(msg)
                    } else if to_self {
                        let copy = msg.clone();
                        output.sends.push(Outbound { to, msg: copy });
                        Some(msg)
                    } else {
                        output.sends.push(Outbound { to, msg });
                        None
                    };
                    if let Some(msg) = local {
                        worklist.push(self.protocol.handle(this, msg, now_us).into_iter());
                    }
                }
                Some(Action::Deliver(executed)) => {
                    self.tracer
                        .phase(now_us, this, executed.rifl, CmdPhase::Executed);
                    output.executed.push(executed);
                }
                Some(Action::Schedule { timer, after_us }) => {
                    // Clamp to at least 1 µs so a zero-delay reschedule cannot spin
                    // `fire_due` forever.
                    self.timers.insert((now_us + after_us.max(1), timer));
                }
            }
        }
        self.worklist = worklist;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::CommandResult;
    use crate::id::Rifl;
    use crate::protocol::{Executor, WireSize};

    /// A trivial executor that applies commands immediately.
    #[derive(Debug, Default)]
    struct EchoExecutor {
        executed: u64,
    }

    impl Executor for EchoExecutor {
        type Info = Rifl;

        fn new(_: ProcessId, _: ShardId, _: Config) -> Self {
            Self::default()
        }

        fn handle(&mut self, rifl: Rifl) -> Vec<Executed> {
            self.executed += 1;
            vec![Executed {
                rifl,
                result: CommandResult::new(rifl),
            }]
        }

        fn executed(&self) -> u64 {
            self.executed
        }
    }

    thread_local! {
        /// Clones of [`Ping`] made on this test's thread.
        static PING_CLONES: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
    }

    /// A message that counts its clones; the payload is the number of self-hops left.
    #[derive(Debug, PartialEq, Eq)]
    struct Ping(u32);

    impl Clone for Ping {
        fn clone(&self) -> Self {
            PING_CLONES.with(|c| c.set(c.get() + 1));
            Ping(self.0)
        }
    }

    impl WireSize for Ping {}

    #[derive(Debug, PartialEq, Eq)]
    enum Seen {
        Handled { from: ProcessId, hops: u32 },
        Persisted,
    }

    /// A protocol that sends `Ping(hops)` to `targets` (the next two processes, unless a
    /// test says otherwise) per submission, executes on submission, and keeps a periodic
    /// timer alive. Handling `Ping(n > 0)` forwards `Ping(n - 1)` to itself and then
    /// reports `Ping(n)` to the next process; `handle` and `persist` calls are logged.
    #[derive(Debug)]
    struct Echo {
        process: ProcessId,
        executor: EchoExecutor,
        timer_firings: u64,
        targets: Vec<ProcessId>,
        hops: u32,
        seen: Vec<Seen>,
    }

    const ECHO_TIMER: TimerId = TimerId(1);

    impl Protocol for Echo {
        type Message = Ping;
        type Executor = EchoExecutor;
        const NAME: &'static str = "Echo";

        fn new(process: ProcessId, shard: ShardId, config: Config) -> Self {
            Self {
                process,
                executor: EchoExecutor::new(process, shard, config),
                timer_firings: 0,
                targets: vec![process + 1, process + 2],
                hops: 0,
                seen: Vec::new(),
            }
        }

        fn id(&self) -> ProcessId {
            self.process
        }

        fn shard(&self) -> ShardId {
            0
        }

        fn discover(&mut self, _view: View) -> Vec<Action<Ping>> {
            vec![Action::schedule(ECHO_TIMER, 1_000)]
        }

        fn submit(&mut self, cmd: Command, _now_us: u64) -> Vec<Action<Ping>> {
            let mut out = vec![Action::send(self.targets.clone(), Ping(self.hops))];
            out.extend(
                self.executor
                    .handle(cmd.rifl)
                    .into_iter()
                    .map(Action::Deliver),
            );
            out
        }

        fn handle(&mut self, from: ProcessId, msg: Ping, _now_us: u64) -> Vec<Action<Ping>> {
            self.seen.push(Seen::Handled { from, hops: msg.0 });
            match msg.0 {
                0 => Vec::new(),
                n => vec![
                    Action::send_one(self.process, Ping(n - 1)),
                    Action::send_one(self.process + 1, Ping(n)),
                ],
            }
        }

        fn timer(&mut self, timer: TimerId, _now_us: u64) -> Vec<Action<Ping>> {
            assert_eq!(timer, ECHO_TIMER);
            self.timer_firings += 1;
            vec![Action::schedule(ECHO_TIMER, 1_000)]
        }

        fn persist(&mut self) {
            self.seen.push(Seen::Persisted);
        }

        fn executor(&self) -> &EchoExecutor {
            &self.executor
        }

        fn metrics(&self) -> ProtocolMetrics {
            ProtocolMetrics::default()
        }
    }

    fn cmd(seq: u64) -> Command {
        use crate::command::KVOp;
        Command::single(Rifl::new(1, seq), 0, 0, KVOp::Get, 0)
    }

    /// A started `Echo` at process 1 whose submissions send `Ping(hops)` to `targets`,
    /// with the log and the clone counter cleared.
    fn echo(targets: Vec<ProcessId>, hops: u32) -> Driver<Echo> {
        let config = Config::full(3, 1);
        let mut driver = Driver::<Echo>::new(1, 0, config);
        let _ = driver.start(View::trivial(config, 1), 0);
        let echo = driver.protocol_mut();
        (echo.targets, echo.hops) = (targets, hops);
        echo.seen.clear();
        PING_CLONES.with(|c| c.set(0));
        driver
    }

    #[test]
    fn driver_collects_sends_and_deliveries() {
        let config = Config::full(3, 1);
        let mut driver = Driver::<Echo>::new(0, 0, config);
        let start = driver.start(View::trivial(config, 0), 0);
        assert!(start.is_empty(), "discover only schedules timers");
        let output = driver.submit(cmd(1), 0);
        assert_eq!(output.sends.len(), 1);
        assert_eq!(output.sends[0].to, vec![1, 2]);
        assert_eq!(output.executed.len(), 1);
        assert_eq!(output.executed[0].rifl, Rifl::new(1, 1));
    }

    #[test]
    fn messages_sent_counts_per_destination() {
        let config = Config::full(3, 1);
        let mut driver = Driver::<Echo>::new(0, 0, config);
        let _ = driver.start(View::trivial(config, 0), 0);
        let _ = driver.submit(cmd(1), 0);
        let _ = driver.submit(cmd(2), 0);
        // Two submissions, each sending to two peers: 4 point-to-point messages.
        assert_eq!(driver.metrics().messages_sent, 4);
    }

    #[test]
    fn send_to_self_and_a_peer_is_delivered_to_both() {
        // Holds in optimised builds as well (CI runs this module with `--release`): the
        // sender's copy is delivered, never dropped on the way to the transport.
        let mut driver = echo(vec![1, 2], 0);
        let output = driver.submit(cmd(1), 0);
        assert_eq!(output.sends.len(), 1, "one outbound, to the peer only");
        assert_eq!(output.sends[0].to, vec![2]);
        assert_eq!(output.sends[0].msg, Ping(0));
        assert_eq!(driver.metrics().messages_sent, 1);
        // The sender's copy was handled once, inside the step, before its persist.
        assert_eq!(
            driver.protocol().seen,
            vec![Seen::Handled { from: 1, hops: 0 }, Seen::Persisted]
        );
        assert_eq!(
            PING_CLONES.with(|c| c.get()),
            1,
            "cloned once to go both ways"
        );
    }

    #[test]
    fn self_chain_drains_in_order_within_one_step_and_persists_once() {
        let mut driver = echo(vec![1], 2);
        let output = driver.submit(cmd(1), 0);
        assert_eq!(
            driver.protocol().seen,
            vec![
                Seen::Handled { from: 1, hops: 2 },
                Seen::Handled { from: 1, hops: 1 },
                Seen::Handled { from: 1, hops: 0 },
                Seen::Persisted,
            ]
        );
        // Depth-first in action order: each link's self-send is drained before the
        // remote send that follows it, and the submission's own `Deliver` comes last.
        let sent: Vec<_> = output.sends.iter().map(|s| (&s.to[..], &s.msg)).collect();
        assert_eq!(sent, vec![(&[2][..], &Ping(1)), (&[2][..], &Ping(2))]);
        assert_eq!(output.executed.len(), 1);
        assert_eq!(driver.metrics().messages_sent, 2);
        assert_eq!(
            PING_CLONES.with(|c| c.get()),
            0,
            "self-only sends are moved"
        );
        // The work-list is empty again and the next step starts clean.
        let _ = driver.handle(0, Ping(0), 0);
        assert_eq!(driver.protocol().seen.len(), 6);
    }

    #[test]
    fn timers_fire_once_due_and_reschedule() {
        let config = Config::full(3, 1);
        let mut driver = Driver::<Echo>::new(0, 0, config);
        let _ = driver.start(View::trivial(config, 0), 0);
        assert_eq!(driver.next_timer_due(), Some(1_000));
        // Not due yet.
        let _ = driver.fire_due(999);
        assert_eq!(driver.protocol().timer_firings, 0);
        // Due: fires once and re-schedules relative to `now`.
        let _ = driver.fire_due(5_000);
        assert_eq!(driver.protocol().timer_firings, 1);
        assert_eq!(driver.next_timer_due(), Some(6_000));
    }
}
