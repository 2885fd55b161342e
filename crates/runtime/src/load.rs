//! [`run_load`] — the open-loop load driver: offered-rate experiments on the real
//! stack.
//!
//! [`run_workload`](crate::run_workload) is *closed-loop*: each client thread waits
//! for its command to complete before issuing the next, so a slow system quietly
//! slows its own load down and the measured latencies suffer coordinated omission.
//! This module drives the cluster the way the paper's evaluation does (§6): an
//! arrival schedule fixed *in advance* (deterministic [`Arrivals`], fixed-rate or
//! Poisson), thousands of logical client *sessions* multiplexed over a handful of
//! real sockets, and per-operation latency measured from the operation's **intended
//! arrival time** — an op that sat in the backlog because every session slot was
//! busy is charged for the wait, which is exactly the queueing delay an open-loop
//! client would have seen.
//!
//! # Anatomy
//!
//! * **Pumps.** `sites × sockets_per_site` pump threads, each owning one
//!   planet-wrapped client transport endpoint (see DESIGN.md §8) and an equal slice
//!   of the offered rate and of the session budget. A pump is an event loop over
//!   three queues: the arrival schedule, a backlog of due-but-unsubmitted intended
//!   arrival times, and a fixed slab of session slots.
//! * **Sessions.** A slot is a logical client session: a `tempo-load` [`Session`] —
//!   the in-flight-command core [`ClientSession`] and the simulator's clients keep
//!   too — opened at the op's intended arrival time, plus whether that time falls in
//!   the measured window. Slots live in a pre-allocated slab and keep their buffers
//!   from op to op, so the steady-state submit/complete path allocates nothing
//!   beyond the command encode itself. Finding a notice's slot is O(1): the rifl
//!   sequence number carries the slot index in its top bits.
//! * **Phases.** `warmup` (ops run but are not measured) → `measure` (ops whose
//!   intended arrival falls in the window count toward throughput and the latency
//!   histogram) → drain (generation stops, in-flight ops finish or time out).
//!
//! The result is a [`LoadReport`]: offered vs achieved rate plus a mergeable
//! log-bucketed latency histogram ([`LogHistogram`]) whose summary feeds
//! `BENCH_load.json`.
//!
//! When the cluster was started with
//! [`NetOpts::record_history`](crate::NetOpts::record_history), every pump also
//! records its sessions into the shared [`History`](tempo_fault::History):
//! invocation at submit, per-shard observed outputs merged into one completion
//! record (multi-shard commands collect one execution notice per accessed shard),
//! and aborts for timed-out or stranded ops — so an open-loop multi-shard run can be
//! checked for cross-key strict serializability exactly like a closed-loop one.
//!
//! [`ClientSession`]: crate::ClientSession

use crate::cluster::{decode_reply, encode_request, NetCluster, Shared};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tempo_kernel::id::{ClientId, Rifl, SiteId};
use tempo_kernel::metrics::{LatencySummary, LogHistogram};
use tempo_kernel::trace::CmdPhase;
use tempo_load::{Arrivals, Mix, Session};
use tempo_net::{RecvError, Transport};

/// Options of one open-loop load run.
#[derive(Debug, Clone)]
pub struct LoadOpts {
    /// Logical client sessions (upper bound on in-flight commands), split evenly
    /// across pumps. When every slot of a pump is busy, further arrivals queue in
    /// the backlog — and their latency keeps accruing from intended arrival time.
    pub sessions: usize,
    /// Real transport endpoints per site; pumps = `sites × sockets_per_site`.
    pub sockets_per_site: usize,
    /// Offered load across the whole cluster, in commands per second.
    pub rate_per_s: f64,
    /// Unmeasured lead-in: ops intended before this has elapsed are driven but
    /// excluded from the report.
    pub warmup: Duration,
    /// The measured window; `offered_rate × measure` ops are intended in it.
    pub measure: Duration,
    /// `true` draws Poisson (exponential-gap) arrivals; `false` uses fixed spacing.
    pub poisson: bool,
    /// Seed of the arrival schedules (pump `i` uses `seed + i`).
    pub seed: u64,
    /// How long an op may stay in flight before the driver gives up on it and
    /// counts it aborted (the command may still take effect, like any timed-out
    /// client).
    pub op_timeout: Duration,
}

impl Default for LoadOpts {
    fn default() -> Self {
        Self {
            sessions: 1_000,
            sockets_per_site: 2,
            rate_per_s: 500.0,
            warmup: Duration::from_millis(500),
            measure: Duration::from_secs(2),
            poisson: true,
            seed: 1,
            op_timeout: Duration::from_secs(5),
        }
    }
}

/// What one open-loop run measured.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// The offered rate of the run, commands per second.
    pub offered_rate: f64,
    /// Ops intended inside the measured window that completed.
    pub completed: u64,
    /// Ops intended inside the measured window that timed out, found no live
    /// replica, or were stranded in the backlog at shutdown.
    pub aborted: u64,
    /// Completion latency of measured ops, from *intended* arrival time, in
    /// microseconds.
    pub latency: LogHistogram,
    /// Length of the measured window.
    pub measure: Duration,
    /// Phase-latency breakdown of everything the cluster traced up to the end of
    /// the run (whole-run, not windowed), when the cluster was started with
    /// [`NetOpts::trace`](crate::NetOpts::trace).
    pub phases: Option<tempo_trace::PhaseLatencies>,
}

impl LoadReport {
    /// Completed measured ops per second of measured window — the achieved
    /// throughput to plot against [`LoadReport::offered_rate`].
    pub fn achieved_rate(&self) -> f64 {
        self.completed as f64 / self.measure.as_secs_f64()
    }

    /// Percentile summary of the measured latencies.
    pub fn summary(&self) -> LatencySummary {
        self.latency.summary()
    }

    /// One human-readable line: rate, abort count and — when tracing was on — the
    /// per-phase breakdown.
    pub fn summary_line(&self) -> String {
        let s = self.summary();
        let mut line = format!(
            "offered={:.0}/s achieved={:.0}/s aborted={} mean={:.1}ms p99={:.1}ms",
            self.offered_rate,
            self.achieved_rate(),
            self.aborted,
            s.mean_ms,
            s.p99_ms,
        );
        if let Some(phases) = &self.phases {
            line.push_str(" | ");
            line.push_str(&phases.summary_line());
        }
        line
    }
}

/// Slot index lives in the top bits of the rifl sequence number, a monotone
/// uniqueness counter in the low [`SLOT_SHIFT`] bits — finding a notice's slot is one
/// shift.
const SLOT_SHIFT: u32 = 40;
const COUNTER_MASK: u64 = (1 << SLOT_SHIFT) - 1;

/// How often a pump sweeps its slots for timed-out ops.
const SWEEP_EVERY_US: u64 = 100_000;

/// Most frames a pump takes in one receive drain before it looks at its arrival
/// schedule again.
const DRAIN_FRAMES: usize = 256;

/// Drives the cluster open-loop and reports achieved throughput plus the latency
/// histogram. `mix_for(pump)` builds each pump's command mix — seed it per pump for
/// a deterministic yet non-identical key stream (e.g.
/// `|p| ZipfMix::ycsb_b(4096, 0.7, seed + p as u64)`).
///
/// Client ids `1 ..= pumps` are used for the pump endpoints; do not run concurrent
/// [`ClientSession`](crate::ClientSession)s with ids in that range.
pub fn run_load<M, F>(cluster: &NetCluster, opts: LoadOpts, mut mix_for: F) -> LoadReport
where
    M: Mix + 'static,
    F: FnMut(usize) -> M,
{
    assert!(opts.rate_per_s > 0.0, "offered rate must be positive");
    assert!(
        opts.sockets_per_site >= 1,
        "need at least one socket per site"
    );
    assert!(opts.sessions >= 1, "need at least one session");
    let sites = cluster.shared.membership.sites();
    let pumps = sites * opts.sockets_per_site;
    let sessions_per_pump = opts.sessions.div_ceil(pumps);
    let rate_per_pump = opts.rate_per_s / pumps as f64;
    let warmup_us = opts.warmup.as_micros() as u64;
    let gen_end_us = warmup_us + opts.measure.as_micros() as u64;
    let op_timeout_us = opts.op_timeout.as_micros() as u64;
    let mut handles = Vec::with_capacity(pumps);
    for pump in 0..pumps {
        let site = (pump % sites) as SiteId;
        let client: ClientId = 1 + pump as ClientId;
        let transport = cluster
            .client_transport(site, client)
            .expect("bind pump endpoint");
        let shared = Arc::clone(&cluster.shared);
        let arrivals = if opts.poisson {
            Arrivals::poisson(rate_per_pump, opts.seed.wrapping_add(pump as u64))
        } else {
            Arrivals::fixed(rate_per_pump)
        };
        let mix = mix_for(pump);
        handles.push(
            std::thread::Builder::new()
                .name(format!("pump-{pump}"))
                .spawn(move || {
                    pump_loop(PumpCfg {
                        transport,
                        shared,
                        site,
                        client,
                        arrivals,
                        mix,
                        sessions: sessions_per_pump,
                        warmup_us,
                        gen_end_us,
                        op_timeout_us,
                    })
                })
                .expect("spawn pump thread"),
        );
    }
    let mut report = LoadReport {
        offered_rate: opts.rate_per_s,
        completed: 0,
        aborted: 0,
        latency: LogHistogram::new(),
        measure: opts.measure,
        phases: None,
    };
    for handle in handles {
        let (completed, aborted, latency) = handle.join().expect("pump thread");
        report.completed += completed;
        report.aborted += aborted;
        report.latency.merge(&latency);
    }
    report.phases = cluster.phases_so_far();
    report
}

struct PumpCfg<M: Mix> {
    transport: Box<dyn Transport>,
    shared: Arc<Shared>,
    site: SiteId,
    client: ClientId,
    arrivals: Arrivals,
    mix: M,
    sessions: usize,
    warmup_us: u64,
    gen_end_us: u64,
    op_timeout_us: u64,
}

/// Gives up on every in-flight op whose intended start `expired` rejects: records the
/// abort, frees the slot, and returns how many of those ops were measured.
fn expire(
    shared: &Shared,
    slots: &mut [Session],
    measured: &[bool],
    free: &mut Vec<usize>,
    expired: &dyn Fn(u64) -> bool,
) -> u64 {
    let mut aborted = 0;
    for (slot, session) in slots.iter_mut().enumerate() {
        let Some(rifl) = session.rifl().filter(|_| expired(session.start_us())) else {
            continue;
        };
        session.abort(rifl);
        if let Some(history) = &shared.history {
            history.lock().expect("history lock").record_abort(rifl);
        }
        aborted += u64::from(measured[slot]);
        free.push(slot);
    }
    aborted
}

/// One pump's event loop. Returns `(completed, aborted, latency)` over the
/// measured window.
fn pump_loop<M: Mix>(mut cfg: PumpCfg<M>) -> (u64, u64, LogHistogram) {
    let start = Instant::now();
    let mut slots = vec![Session::default(); cfg.sessions];
    // Whether each slot's op was intended inside the measured window.
    let mut measured = vec![false; cfg.sessions];
    let mut free: Vec<usize> = (0..cfg.sessions).rev().collect();
    let mut backlog: VecDeque<u64> = VecDeque::new();
    let mut counter: u64 = 0;
    let mut completed: u64 = 0;
    let mut aborted: u64 = 0;
    let mut latency = LogHistogram::new();
    let mut generating = true;
    let mut next_arrival = cfg.arrivals.next_us();
    let mut next_sweep = SWEEP_EVERY_US;
    // Past this, anything still outstanding is stranded: abort and go home. The
    // margin covers a final op submitted just before gen_end.
    let grace_end_us = cfg.gen_end_us + cfg.op_timeout_us + 1_000_000;
    'run: loop {
        let now = start.elapsed().as_micros() as u64;
        // 1. Move due arrivals into the backlog (generation stops at gen_end even
        //    if the backlog is still full — open loop, not best effort).
        while generating {
            if next_arrival >= cfg.gen_end_us {
                generating = false;
                break;
            }
            if next_arrival > now {
                break;
            }
            backlog.push_back(next_arrival);
            next_arrival = cfg.arrivals.next_us();
        }
        // 2. Submit while a session slot is free. Latency accrues from the
        //    *intended* time pulled off the backlog, so saturation shows up as
        //    queueing delay instead of vanishing (coordinated omission).
        let mut submitted_any = false;
        while !backlog.is_empty() && !free.is_empty() {
            let intended = backlog.pop_front().expect("non-empty backlog");
            let slot = free.pop().expect("non-empty free list");
            counter += 1;
            let seq = ((slot as u64) << SLOT_SHIFT) | (counter & COUNTER_MASK);
            let cmd = cfg.mix.next(Rifl::new(cfg.client, seq));
            if let Some(history) = &cfg.shared.history {
                history.lock().expect("history lock").record_invoke(
                    cmd.rifl,
                    cmd.clone(),
                    cfg.shared.now_us(),
                );
            }
            measured[slot] = intended >= cfg.warmup_us;
            match cfg.shared.open(&mut slots[slot], cfg.site, &cmd, intended) {
                Some(target) => {
                    cfg.transport.send(target, &encode_request(&cmd));
                    submitted_any = true;
                }
                None => {
                    // Some accessed shard has every replica down right now.
                    if let Some(history) = &cfg.shared.history {
                        history.lock().expect("history lock").record_abort(cmd.rifl);
                    }
                    aborted += u64::from(measured[slot]);
                    free.push(slot);
                }
            }
        }
        if submitted_any {
            cfg.transport.flush();
        }
        // 3. Done? All generated, backlog drained, every session idle — or, past the
        //    grace period, a hard stop that strands what is left.
        let idle = free.len() == cfg.sessions;
        if !generating && backlog.is_empty() && idle {
            break;
        }
        let now = start.elapsed().as_micros() as u64;
        if now >= grace_end_us {
            break;
        }
        // 4. Periodic timeout sweep.
        if now >= next_sweep {
            next_sweep = now + SWEEP_EVERY_US;
            aborted += expire(&cfg.shared, &mut slots, &measured, &mut free, &|intended| {
                now.saturating_sub(intended) > cfg.op_timeout_us
            });
        }
        // 5. Receive: block until the next arrival is due (capped at 1 ms so the
        //    sweep and exit checks stay responsive), then drain whatever else is
        //    already queued without blocking. Every frame ends the wait and counts
        //    against the drain, including the notices of replicas nobody watches.
        let mut wait = Duration::from_millis(1);
        if generating {
            wait = wait.min(Duration::from_micros(next_arrival.saturating_sub(now)));
        }
        for _ in 0..DRAIN_FRAMES {
            let (from, bytes) = match cfg.transport.recv_timeout(wait) {
                Ok(frame) => frame,
                Err(RecvError::Timeout) => break,
                // Cluster torn down under us: strand everything outstanding.
                Err(RecvError::Closed) => break 'run,
            };
            wait = Duration::ZERO;
            let Some(reply) = decode_reply(&bytes) else {
                continue;
            };
            let slot = (reply.rifl.seq >> SLOT_SHIFT) as usize;
            if reply.rifl.client != cfg.client || slot >= slots.len() {
                continue;
            }
            let Some(done) = slots[slot].reply(from, reply.rifl, reply.shard, &reply.outputs)
            else {
                continue;
            };
            if let Some(history) = &cfg.shared.history {
                history.lock().expect("history lock").record_complete(
                    reply.rifl,
                    cfg.shared.now_us(),
                    done.outputs.to_vec(),
                );
            }
            if measured[slot] {
                completed += 1;
                let done_us = start.elapsed().as_micros() as u64;
                latency.record(done_us.saturating_sub(done.start_us));
            }
            let tracer = cfg.shared.tracer(from);
            if tracer.is_enabled() {
                tracer.phase(cfg.shared.now_us(), from, reply.rifl, CmdPhase::Replied);
            }
            free.push(slot);
        }
    }
    // Whatever is still outstanding is stranded: in-flight ops and the unsubmitted
    // backlog count as aborted.
    aborted += expire(&cfg.shared, &mut slots, &measured, &mut free, &|_| true);
    aborted += backlog.iter().filter(|&&t| t >= cfg.warmup_us).count() as u64;
    (completed, aborted, latency)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{NetOpts, RuntimeFactory, ENV_REPLY};
    use std::sync::Mutex;
    use tempo_core::Tempo;
    use tempo_kernel::id::ProcessId;
    use tempo_kernel::protocol::Protocol;
    use tempo_load::ZipfMix;
    use tempo_net::wire::{Wire, Writer};
    use tempo_net::{ClientReply, TransportStats, CLIENT_ID_BASE};

    fn tempo_factory() -> RuntimeFactory<Tempo> {
        Box::new(|id, shard, config, _incarnation| Tempo::new(id, shard, config))
    }

    #[test]
    fn open_loop_run_completes_and_measures() {
        use tempo_kernel::config::Config;
        let net_opts = NetOpts {
            trace: true,
            metrics_interval: Some(Duration::from_millis(100)),
            ..NetOpts::default()
        };
        let cluster = NetCluster::start(Config::full(3, 1), net_opts, tempo_factory())
            .expect("cluster starts");
        let opts = LoadOpts {
            sessions: 64,
            sockets_per_site: 1,
            rate_per_s: 300.0,
            warmup: Duration::from_millis(200),
            measure: Duration::from_millis(800),
            poisson: true,
            seed: 7,
            op_timeout: Duration::from_secs(5),
        };
        let report = run_load(&cluster, opts, |p| {
            ZipfMix::ycsb_b(1024, 0.6, 100 + p as u64)
        });
        // Tracing was on: the load report carries a whole-run phase breakdown, and
        // every measured completion is inside it (warmup ops too, hence >=).
        let phases = report.phases.as_ref().expect("traced run has phases");
        assert!(
            phases.complete >= report.completed,
            "phase fold covers measured ops: {} < {}",
            phases.complete,
            report.completed
        );
        let e2e = phases.pair("submit_reply").expect("e2e pair");
        assert_eq!(e2e.histogram.len(), phases.complete);
        assert!(report.summary_line().contains("submit_reply"));
        let runtime_report = cluster.shutdown();
        let final_phases = runtime_report.phases.as_ref().expect("shutdown phases");
        assert!(final_phases.complete >= phases.complete);
        let registry = runtime_report.registry.as_ref().expect("metrics registry");
        assert!(!registry.is_empty(), "replicas self-sampled metrics");
        assert!(
            runtime_report
                .trace
                .as_ref()
                .is_some_and(|t| !t.events.is_empty()),
            "shutdown drains a non-empty trace"
        );
        // ~240 ops intended in the window; demand determinism of the schedule, not
        // of thread scheduling: all measured ops must complete, none abort.
        assert!(
            report.completed >= 150,
            "too few measured completions: {report:?}"
        );
        assert_eq!(report.aborted, 0, "no op should abort: {report:?}");
        assert_eq!(
            report.completed,
            report.latency.len(),
            "every completion records one latency sample"
        );
        assert!(report.achieved_rate() > 0.0);
        let s = report.summary();
        assert!(s.p50_ms > 0.0 && s.p99_ms >= s.p50_ms, "summary: {s:?}");
    }

    /// A second run re-registers the pumps' client ids: the replicas' writers must
    /// notice the new incarnations instead of answering into the first run's closed
    /// sockets (which used to strand the first reply to every pump until it timed
    /// out).
    #[test]
    fn back_to_back_runs_on_one_cluster_both_complete() {
        use tempo_kernel::config::Config;
        let cluster = NetCluster::start(Config::full(3, 1), NetOpts::default(), tempo_factory())
            .expect("cluster starts");
        for run in 0..2u64 {
            let opts = LoadOpts {
                sessions: 32,
                sockets_per_site: 1,
                rate_per_s: 400.0,
                warmup: Duration::ZERO,
                measure: Duration::from_millis(500),
                poisson: false,
                seed: run,
                op_timeout: Duration::from_secs(5),
            };
            let report = run_load(&cluster, opts, |p| {
                ZipfMix::ycsb_b(256, 0.5, 10 * run + p as u64)
            });
            assert!(report.completed >= 190, "run {run}: {report:?}");
            assert_eq!(report.aborted, 0, "run {run}: {report:?}");
        }
        cluster.shutdown();
    }

    #[test]
    fn sessions_cap_in_flight_and_backlog_charges_queueing() {
        // One session, offered faster than one in-flight op can complete: ops queue
        // in the backlog and their measured latency includes the queueing delay, so
        // p99 must stretch well past p50.
        use tempo_kernel::config::Config;
        let cluster = NetCluster::start(Config::full(3, 1), NetOpts::default(), tempo_factory())
            .expect("cluster starts");
        let opts = LoadOpts {
            sessions: 1,
            sockets_per_site: 1,
            rate_per_s: 90.0,
            warmup: Duration::from_millis(100),
            measure: Duration::from_millis(600),
            poisson: false,
            seed: 1,
            op_timeout: Duration::from_secs(10),
        };
        let report = run_load(&cluster, opts, |p| ZipfMix::ycsb_c(256, 0.5, p as u64));
        cluster.shutdown();
        assert!(report.completed > 0, "some ops complete: {report:?}");
        let s = report.summary();
        assert!(
            s.max_ms >= s.p50_ms,
            "queueing must show up in the tail: {s:?}"
        );
    }

    /// An endpoint that hands out `frames` execution notices completing nothing — a
    /// replica's notice for a command no slot holds — then reports the cluster gone,
    /// keeping every wait it was asked for.
    struct IdleNotices {
        frames: usize,
        client: ClientId,
        waits: Arc<Mutex<Vec<Duration>>>,
    }

    impl Transport for IdleNotices {
        fn local_id(&self) -> ProcessId {
            CLIENT_ID_BASE + self.client
        }

        fn send(&mut self, _to: ProcessId, _payload: &[u8]) {}

        fn flush(&mut self) {}

        fn recv_timeout(&mut self, timeout: Duration) -> Result<(ProcessId, Vec<u8>), RecvError> {
            self.waits.lock().expect("waits lock").push(timeout);
            if self.frames == 0 {
                return Err(RecvError::Closed);
            }
            self.frames -= 1;
            let mut w = Writer::new();
            w.put_u8(ENV_REPLY);
            let reply = ClientReply {
                rifl: Rifl::new(self.client, 1),
                shard: 0,
                outputs: Vec::new(),
            };
            reply.encode_into(&mut w);
            Ok((2, w.into_bytes()))
        }

        fn stats(&self) -> TransportStats {
            TransportStats::default()
        }
    }

    /// Two of every single-shard command's three execution notices come from replicas
    /// the pump does not watch. Each frame, whatever it carries, must end the blocking
    /// wait and count against the drain: after the first frame of a drain the pump
    /// asks only for zero waits, and it blocks again only after `DRAIN_FRAMES` frames,
    /// when it goes back to its arrival schedule.
    #[test]
    fn any_frame_ends_the_blocking_wait_and_counts_against_the_drain() {
        use tempo_kernel::config::Config;
        const FRAMES: usize = DRAIN_FRAMES + 44;
        let waits = Arc::new(Mutex::new(Vec::new()));
        let client = 1;
        let (completed, aborted, _) = pump_loop(PumpCfg {
            transport: Box::new(IdleNotices {
                frames: FRAMES,
                client,
                waits: Arc::clone(&waits),
            }),
            shared: Arc::new(Shared::bare(Config::full(3, 1))),
            site: 0,
            client,
            // The first arrival is a second away, so every blocking wait is the 1 ms
            // cap and nothing is submitted.
            arrivals: Arrivals::fixed(1.0),
            mix: ZipfMix::ycsb_c(16, 0.5, 1),
            sessions: 1,
            warmup_us: 0,
            gen_end_us: 2_000_000,
            op_timeout_us: 1_000_000,
        });
        assert_eq!((completed, aborted), (0, 0));
        let waits = waits.lock().expect("waits lock");
        assert_eq!(waits.len(), FRAMES + 1, "every frame taken, then Closed");
        let blocking: Vec<usize> = (0..waits.len()).filter(|i| !waits[*i].is_zero()).collect();
        assert_eq!(blocking, [0, DRAIN_FRAMES], "the calls that blocked");
    }
}
