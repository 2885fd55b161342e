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
//! * **Sessions.** A slot is a logical client session: one in-flight command, its
//!   watched replica per accessed shard (closest live — the [`ClientSession`]
//!   semantics), and its intended arrival time. Slots are fixed-size entries in a
//!   pre-allocated slab; the steady-state submit/complete path allocates nothing
//!   beyond the command encode itself. Completion matching is O(1): the rifl
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

use crate::cluster::{decode_reply, encode_request, watch_replica, NetCluster, Shared};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tempo_kernel::command::Key;
use tempo_kernel::id::{ClientId, ProcessId, Rifl, ShardId, SiteId};
use tempo_kernel::metrics::{LatencySummary, LogHistogram};
use tempo_kernel::trace::CmdPhase;
use tempo_load::{Arrivals, Mix};
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
/// uniqueness counter in the low [`SLOT_SHIFT`] bits — completion matching becomes
/// one shift and one equality check.
const SLOT_SHIFT: u32 = 40;
const COUNTER_MASK: u64 = (1 << SLOT_SHIFT) - 1;

/// Most shards one command may touch (`ZipfMix` issues single-shard commands,
/// `YcsbTMix` two-shard ones; the fixed bound keeps slots allocation-free).
const MAX_OP_SHARDS: usize = 4;

/// How often a pump sweeps its slots for timed-out ops.
const SWEEP_EVERY_US: u64 = 100_000;

/// One logical client session: at most one in-flight command.
#[derive(Clone, Copy)]
struct Slot {
    busy: bool,
    /// Whether the op's intended arrival falls inside the measured window.
    measured: bool,
    intended_us: u64,
    /// Full rifl sequence number (slot index in the top bits) — a late reply for a
    /// previous occupant of this slot fails the equality check and is ignored.
    seq: u64,
    /// Watched replica per accessed shard, still owing an execution notice.
    pending: [(ShardId, ProcessId); MAX_OP_SHARDS],
    pending_len: u8,
}

impl Default for Slot {
    fn default() -> Self {
        Self {
            busy: false,
            measured: false,
            intended_us: 0,
            seq: 0,
            pending: [(0, 0); MAX_OP_SHARDS],
            pending_len: 0,
        }
    }
}

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

/// Records a client abort in the shared history (when recording is on).
fn record_abort(shared: &Shared, client: ClientId, seq: u64) {
    if let Some(history) = &shared.history {
        history
            .lock()
            .expect("history lock")
            .record_abort(Rifl::new(client, seq));
    }
}

/// One pump's event loop. Returns `(completed, aborted, latency)` over the
/// measured window.
fn pump_loop<M: Mix>(mut cfg: PumpCfg<M>) -> (u64, u64, LogHistogram) {
    let start = Instant::now();
    let mut slots: Vec<Slot> = vec![Slot::default(); cfg.sessions];
    // Per-slot observed outputs, accumulated across the per-shard execution notices
    // of the in-flight command — only when the cluster records a history (slots stay
    // allocation-free otherwise).
    let record = cfg.shared.history.is_some();
    let mut outputs: Vec<Vec<(ShardId, Key, Option<u64>)>> = if record {
        vec![Vec::new(); cfg.sessions]
    } else {
        Vec::new()
    };
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
            let slot_idx = free.pop().expect("non-empty free list");
            counter += 1;
            let seq = ((slot_idx as u64) << SLOT_SHIFT) | (counter & COUNTER_MASK);
            let cmd = cfg.mix.next(Rifl::new(cfg.client, seq));
            if let Some(history) = &cfg.shared.history {
                history.lock().expect("history lock").record_invoke(
                    cmd.rifl,
                    cmd.clone(),
                    cfg.shared.now_us(),
                );
            }
            let measured = intended >= cfg.warmup_us;
            let mut pending = [(0, 0); MAX_OP_SHARDS];
            let mut pending_len = 0usize;
            let mut all_watched = true;
            for shard in cmd.shards() {
                assert!(
                    pending_len < MAX_OP_SHARDS,
                    "load driver supports at most {MAX_OP_SHARDS} accessed shards"
                );
                match watch_replica(&cfg.shared, cfg.site, shard) {
                    Some(p) => {
                        pending[pending_len] = (shard, p);
                        pending_len += 1;
                    }
                    None => {
                        all_watched = false;
                        break;
                    }
                }
            }
            if !all_watched {
                // Some accessed shard has every replica down right now.
                record_abort(&cfg.shared, cfg.client, seq);
                if measured {
                    aborted += 1;
                }
                free.push(slot_idx);
                continue;
            }
            let target = pending[..pending_len]
                .iter()
                .find(|(s, _)| *s == cmd.target_shard())
                .map(|(_, p)| *p)
                .expect("target shard is among the accessed shards");
            slots[slot_idx] = Slot {
                busy: true,
                measured,
                intended_us: intended,
                seq,
                pending,
                pending_len: pending_len as u8,
            };
            cfg.transport.send(target, &encode_request(&cmd));
            submitted_any = true;
        }
        if submitted_any {
            cfg.transport.flush();
        }
        // 3. Done? All generated, backlog drained, every session idle.
        let idle = free.len() == cfg.sessions;
        if !generating && backlog.is_empty() && idle {
            break;
        }
        let now = start.elapsed().as_micros() as u64;
        if now >= grace_end_us {
            // Hard stop: strand in-flight ops and the unsubmitted backlog.
            for slot in slots.iter_mut().filter(|s| s.busy) {
                record_abort(&cfg.shared, cfg.client, slot.seq);
                if slot.measured {
                    aborted += 1;
                }
                slot.busy = false;
            }
            aborted += backlog.iter().filter(|&&t| t >= cfg.warmup_us).count() as u64;
            break;
        }
        // 4. Periodic timeout sweep.
        if now >= next_sweep {
            next_sweep = now + SWEEP_EVERY_US;
            for (idx, slot) in slots.iter_mut().enumerate() {
                if slot.busy && now.saturating_sub(slot.intended_us) > cfg.op_timeout_us {
                    record_abort(&cfg.shared, cfg.client, slot.seq);
                    if record {
                        outputs[idx].clear();
                    }
                    if slot.measured {
                        aborted += 1;
                    }
                    slot.busy = false;
                    free.push(idx);
                }
            }
        }
        // 5. Receive: block until the next arrival is due (capped at 1 ms so the
        //    sweep and exit checks stay responsive), then drain whatever else is
        //    already queued without blocking.
        let mut wait = Duration::from_millis(1);
        if generating {
            wait = wait.min(Duration::from_micros(next_arrival.saturating_sub(now)));
        }
        let mut drain_budget = 256;
        loop {
            match cfg.transport.recv_timeout(wait) {
                Ok((from, bytes)) => {
                    let Some(reply) = decode_reply(&bytes) else {
                        continue;
                    };
                    if reply.rifl.client != cfg.client {
                        continue;
                    }
                    let slot_idx = (reply.rifl.seq >> SLOT_SHIFT) as usize;
                    if slot_idx >= slots.len() {
                        continue;
                    }
                    let slot = &mut slots[slot_idx];
                    // Only the watched replica's notice for the *current* occupant
                    // counts; anything else is a stale or duplicate notice.
                    if !slot.busy || slot.seq != reply.rifl.seq {
                        continue;
                    }
                    let Some(i) = slot.pending[..slot.pending_len as usize]
                        .iter()
                        .position(|&(s, p)| s == reply.shard && p == from)
                    else {
                        continue;
                    };
                    slot.pending_len -= 1;
                    slot.pending[i] = slot.pending[slot.pending_len as usize];
                    if record {
                        outputs[slot_idx]
                            .extend(reply.outputs.iter().map(|(k, v)| (reply.shard, *k, *v)));
                    }
                    if slot.pending_len == 0 {
                        if let Some(history) = &cfg.shared.history {
                            history.lock().expect("history lock").record_complete(
                                Rifl::new(cfg.client, slot.seq),
                                cfg.shared.now_us(),
                                std::mem::take(&mut outputs[slot_idx]),
                            );
                        }
                        if slot.measured {
                            completed += 1;
                            let done = start.elapsed().as_micros() as u64;
                            latency.record(done.saturating_sub(slot.intended_us));
                        }
                        let tracer = cfg.shared.tracer(from);
                        if tracer.is_enabled() {
                            tracer.phase(cfg.shared.now_us(), from, reply.rifl, CmdPhase::Replied);
                        }
                        slot.busy = false;
                        free.push(slot_idx);
                    }
                    drain_budget -= 1;
                    if drain_budget == 0 {
                        break;
                    }
                    wait = Duration::ZERO;
                }
                Err(RecvError::Timeout) => break,
                Err(RecvError::Closed) => {
                    // Cluster torn down under us: strand everything outstanding.
                    for slot in slots.iter_mut().filter(|s| s.busy) {
                        record_abort(&cfg.shared, cfg.client, slot.seq);
                        if slot.measured {
                            aborted += 1;
                        }
                        slot.busy = false;
                    }
                    aborted += backlog.iter().filter(|&&t| t >= cfg.warmup_us).count() as u64;
                    break 'run;
                }
            }
        }
    }
    (completed, aborted, latency)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{NetOpts, RuntimeFactory};
    use tempo_core::Tempo;
    use tempo_kernel::protocol::Protocol;
    use tempo_load::ZipfMix;

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
}
