//! A minimal synchronous cluster harness used by protocol unit tests.
//!
//! [`LocalCluster`] instantiates one [`Driver`] per process of a deployment and routes
//! messages between them in FIFO order with no latency model. It is *not* the evaluation
//! runtime (see `tempo-sim` and `tempo-runtime` for those); it exists so that protocol
//! crates can unit-test commit/execution/recovery logic deterministically without pulling
//! in the simulator. All dispatch goes through the shared [`Driver`] core: the harness
//! only owns transport (a FIFO queue) and time (advanced by [`LocalCluster::tick_all`]).

use crate::command::Command;
use crate::config::Config;
use crate::driver::{Driver, Output};
use crate::id::ProcessId;
use crate::protocol::{Executed, Protocol, View};
use crate::rand::Rng;
use std::collections::{BTreeMap, VecDeque};

/// A message in flight between two processes.
#[derive(Debug, Clone)]
struct InFlight<M> {
    from: ProcessId,
    to: ProcessId,
    msg: M,
}

/// A synchronous cluster of protocol instances with FIFO message delivery.
pub struct LocalCluster<P: Protocol> {
    drivers: BTreeMap<ProcessId, Driver<P>>,
    queue: VecDeque<InFlight<P::Message>>,
    /// Commands executed at each process and not yet claimed via [`Self::executed`].
    completions: BTreeMap<ProcessId, Vec<Executed>>,
    /// Processes that have crashed: messages to and from them are dropped and their
    /// timers no longer fire.
    crashed: Vec<ProcessId>,
    /// Messages delivered so far (for assertions on message complexity).
    pub delivered: u64,
    /// Messages dropped by the lossy-transport mode (see [`Self::set_message_loss`]).
    pub dropped: u64,
    /// When set, each in-flight message is independently dropped with this probability.
    loss: Option<(f64, Rng)>,
    now_us: u64,
}

impl<P: Protocol> LocalCluster<P> {
    /// Creates a cluster with one protocol instance per process of `config`, using the
    /// trivial (ring-distance) view.
    pub fn new(config: Config) -> Self {
        Self::with_views(config, |process| View::trivial(config, process))
    }

    /// Creates a cluster using a custom view per process (e.g. one built from a planet).
    pub fn with_views(config: Config, view_for: impl FnMut(ProcessId) -> View) -> Self {
        Self::from_protocols(config, view_for, |id, shard| P::new(id, shard, config))
    }

    /// Creates a cluster from custom protocol instances (e.g. ones built with
    /// non-default options), wiring each into the shared driver core.
    pub fn from_protocols(
        config: Config,
        mut view_for: impl FnMut(ProcessId) -> View,
        mut make: impl FnMut(ProcessId, crate::id::ShardId) -> P,
    ) -> Self {
        let membership = crate::membership::Membership::from_config(&config);
        let mut cluster = Self {
            drivers: BTreeMap::new(),
            queue: VecDeque::new(),
            completions: BTreeMap::new(),
            crashed: Vec::new(),
            delivered: 0,
            dropped: 0,
            loss: None,
            now_us: 0,
        };
        for id in membership.all_processes() {
            let shard = membership.shard_of(id);
            let mut driver = Driver::from_protocol(make(id, shard));
            let output = driver.start(view_for(id), 0);
            cluster.drivers.insert(id, driver);
            cluster.absorb(id, output);
        }
        cluster
    }

    /// Current simulated time (advanced only by [`Self::tick_all`]).
    pub fn now_us(&self) -> u64 {
        self.now_us
    }

    /// Access a process (panics if unknown).
    pub fn process(&self, id: ProcessId) -> &P {
        self.drivers[&id].protocol()
    }

    /// Mutable access to a process (panics if unknown). Actions produced by direct
    /// protocol calls bypass the harness; use this for state inspection and injection.
    pub fn process_mut(&mut self, id: ProcessId) -> &mut P {
        self.drivers
            .get_mut(&id)
            .expect("unknown process")
            .protocol_mut()
    }

    /// The driver of a process (metrics with `messages_sent`, timer introspection).
    pub fn driver(&self, id: ProcessId) -> &Driver<P> {
        &self.drivers[&id]
    }

    /// All process identifiers.
    pub fn process_ids(&self) -> Vec<ProcessId> {
        self.drivers.keys().copied().collect()
    }

    /// Turns on lossy transport: from now on every in-flight message is independently
    /// dropped with probability `p` (deterministically, from `seed`). Used by the
    /// message-loss conformance scenario to exercise retransmission paths.
    pub fn set_message_loss(&mut self, p: f64, seed: u64) {
        assert!((0.0..=1.0).contains(&p), "drop probability out of range");
        self.loss = Some((p, Rng::new(seed)));
    }

    /// Marks a process as crashed: it no longer receives nor sends messages.
    pub fn crash(&mut self, id: ProcessId) {
        if !self.crashed.contains(&id) {
            self.crashed.push(id);
        }
    }

    fn absorb(&mut self, from: ProcessId, output: Output<P::Message>) {
        if self.crashed.contains(&from) {
            return;
        }
        for send in output.sends {
            for target in send.to {
                self.queue.push_back(InFlight {
                    from,
                    to: target,
                    msg: send.msg.clone(),
                });
            }
        }
        if !output.executed.is_empty() {
            self.completions
                .entry(from)
                .or_default()
                .extend(output.executed);
        }
    }

    /// Submits a command at `process` and delivers all resulting messages to quiescence.
    pub fn submit(&mut self, process: ProcessId, cmd: Command) {
        self.submit_no_deliver(process, cmd);
        self.run_to_quiescence();
    }

    /// Submits a command without running message delivery (for tests that interleave).
    pub fn submit_no_deliver(&mut self, process: ProcessId, cmd: Command) {
        let now = self.now_us;
        let output = self
            .drivers
            .get_mut(&process)
            .expect("unknown process")
            .submit(cmd, now);
        self.absorb(process, output);
    }

    /// Delivers a single in-flight message, if any. Returns whether one was delivered.
    pub fn step(&mut self) -> bool {
        while let Some(inflight) = self.queue.pop_front() {
            if self.crashed.contains(&inflight.to) || self.crashed.contains(&inflight.from) {
                continue;
            }
            if let Some((p, rng)) = &mut self.loss {
                if rng.gen_bool(*p) {
                    self.dropped += 1;
                    continue;
                }
            }
            self.deliver(inflight.from, inflight.to, inflight.msg);
            self.delivered += 1;
            return true;
        }
        false
    }

    /// Injects `msg` at `to` as if `from` had sent it: one driver step whose output is
    /// absorbed like any other (run [`Self::run_to_quiescence`] to deliver what it sent).
    pub fn deliver(&mut self, from: ProcessId, to: ProcessId, msg: P::Message) {
        let now = self.now_us;
        let output = self
            .drivers
            .get_mut(&to)
            .expect("unknown destination")
            .handle(from, msg, now);
        self.absorb(to, output);
    }

    /// Delivers messages until none are in flight.
    pub fn run_to_quiescence(&mut self) {
        while self.step() {}
    }

    /// Advances time by `advance_us`, fires every protocol timer that became due on every
    /// live process, and delivers all resulting messages.
    pub fn tick_all(&mut self, advance_us: u64) {
        self.now_us += advance_us;
        let ids = self.process_ids();
        for id in ids {
            if self.crashed.contains(&id) {
                continue;
            }
            let now = self.now_us;
            let output = self
                .drivers
                .get_mut(&id)
                .expect("unknown process")
                .fire_due(now);
            self.absorb(id, output);
        }
        self.run_to_quiescence();
    }

    /// Drains the commands executed at `process` since the last call, in execution order.
    pub fn executed(&mut self, process: ProcessId) -> Vec<Executed> {
        self.completions.remove(&process).unwrap_or_default()
    }

    /// Number of messages currently in flight.
    pub fn in_flight(&self) -> usize {
        self.queue.len()
    }
}
