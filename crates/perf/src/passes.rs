//! The two passes over a workload: the end-to-end pass (repetitions of a rate run and a
//! peak run, tracing off) and the layer pass (counters, busy time, traced runs, replays).

use crate::micro::{NetMicro, StoreMicro};
use crate::replay::{self, Mode, REPLAY_COMMANDS};
use crate::runs::{run, setup_cycle, Outcome, RunKind, RunSpec};
use crate::spec::{EndToEnd, PerLayer, Workload, ATLAS_DIAGNOSTICS, END_TO_END, PER_LAYER};
use crate::stats::{quantile_ms, Agg};
use std::collections::BTreeMap;
use std::time::Duration;
use tempo_atlas::Atlas;
use tempo_core::Tempo;

/// Seconds a repetition measures at full size, the issue's shape: a rate run with a 4 s
/// window after a 1 s warm-up, and a peak run whose work is offered within 1 s and
/// takes about 5 s today. A workload's repetitions run at `rep_seconds / 10` of it.
const FULL_REP_SECONDS: f64 = 10.0;

/// Size of a smoke run's single repetition and of its layer runs, as a share of full
/// size.
const SMOKE_SCALE: f64 = 0.1;

/// Extra start-probe-shutdown cycles per workload and pass, so that `setup_s` rests on
/// more than the measured runs' own set-ups.
const SETUP_CYCLES: usize = 6;

/// How much of the benchmark one invocation runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Plan {
    /// Seconds one run measures per workload: how many repetitions it makes. The size
    /// of a repetition is the workload's own and never changes with it.
    pub seconds: u64,
    /// Only check that everything runs, as `tests/smoke.rs` does with an unoptimised
    /// build: one small repetition, with the offered rates cut too. Not a measurement.
    pub smoke: bool,
}

impl Plan {
    /// Repetitions of the end-to-end pair of runs on `w`.
    pub fn reps(&self, w: &Workload) -> usize {
        if self.smoke {
            1
        } else {
            ((self.seconds as f64 / w.rep_seconds).round() as usize).max(1)
        }
    }

    /// Size of one repetition on `w`, as a share of full size: the warm-up, the window,
    /// the peak work and the time it is offered within all shrink by it.
    pub fn scale(&self, w: &Workload) -> f64 {
        if self.smoke {
            SMOKE_SCALE
        } else {
            w.rep_seconds / FULL_REP_SECONDS
        }
    }

    /// The workload as this plan runs it: itself, except that a smoke run cuts the
    /// offered rate and the closed-loop depth, so that an unoptimised build is not
    /// driven into overload.
    fn shrunk(&self, w: &Workload) -> Workload {
        if !self.smoke {
            return *w;
        }
        Workload {
            rate_ops_s: w.rate_ops_s * SMOKE_SCALE,
            peak_sessions: (w.peak_sessions as f64 * SMOKE_SCALE).ceil() as usize,
            ..*w
        }
    }

    /// Size of the layer pass's four runs. They are not repeated, and busy time is
    /// sampled every 100 ms, so they are longer than a repetition: half of full size
    /// for a 20 s run.
    pub fn layer_scale(&self) -> f64 {
        if self.smoke {
            SMOKE_SCALE
        } else {
            (self.seconds as f64 / (4.0 * FULL_REP_SECONDS)).min(1.0)
        }
    }

    /// The session-sizing rule: a rate run must be far from its session cap, or the
    /// cap, not the system, shapes the latency.
    pub fn check_sessions(&self, w: &Workload, p50_ms: f64) -> Result<(), String> {
        let w = &self.shrunk(w);
        let in_flight = w.rate_ops_s * p50_ms / 1000.0;
        if in_flight > w.rate_sessions as f64 / 3.0 {
            return Err(format!(
                "{}: {:.0} ops/s x p50 {p50_ms:.1} ms = {in_flight:.0} in flight, over a third of {} sessions",
                w.name, w.rate_ops_s, w.rate_sessions
            ));
        }
        Ok(())
    }

    fn setup_cycles(&self) -> usize {
        if self.smoke {
            1
        } else {
            SETUP_CYCLES
        }
    }
}

fn rate_run(scale: f64) -> RunKind {
    RunKind::Rate {
        warmup: Duration::from_secs(1).mul_f64(scale),
        measure: Duration::from_secs(4).mul_f64(scale),
    }
}

fn peak_run(w: &Workload, scale: f64) -> RunKind {
    RunKind::Peak {
        work: (w.peak_work as f64 * scale) as u64,
        within: Duration::from_secs(1).mul_f64(scale),
    }
}

/// Per-metric samples of one workload, one per repetition (`setup_s`: one per cluster
/// started), with the op counts of every timed run.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    /// Samples by metric name.
    pub values: BTreeMap<&'static str, Vec<f64>>,
    /// Measured ops the schedules intended.
    pub attempted: u64,
    /// Of those, the ones that did not complete.
    pub failed: u64,
}

impl Samples {
    fn push(&mut self, name: &'static str, value: f64) {
        self.values.entry(name).or_default().push(value);
    }

    fn count(&mut self, outcome: &Outcome) {
        self.attempted += outcome.intended;
        self.failed += outcome.failed();
        self.push("setup_s", outcome.setup_s);
    }

    /// Every end-to-end metric aggregated over its repetitions, in table order.
    /// `ok_ratio` is no median: it counts every op of every run.
    pub fn aggregate(&self) -> Vec<(&'static EndToEnd, Agg)> {
        let ok_ratio = [(self.attempted - self.failed) as f64 / self.attempted.max(1) as f64];
        END_TO_END
            .iter()
            .filter_map(|m| {
                let values = if m.name == "ok_ratio" {
                    &ok_ratio[..]
                } else {
                    self.values.get(m.name)?
                };
                Some((m, Agg::of(values)?))
            })
            .collect()
    }
}

fn spec(kind: RunKind, seed: u64) -> RunSpec {
    RunSpec {
        kind,
        seed,
        trace: false,
        sample_cpu: false,
    }
}

/// The correctness gate: what precedes any timing.
pub fn gate(w: &Workload, seed: u64) -> Result<(), String> {
    let outcome = run::<Tempo>(w, spec(RunKind::Gate, seed))?;
    if outcome.failed() > 0 {
        return Err(format!(
            "{}: {} ops failed in the correctness pass",
            w.name,
            outcome.failed()
        ));
    }
    Ok(())
}

/// The extra set-up cycles an end-to-end pass begins with.
pub fn setup_cycles(w: &Workload, plan: &Plan, samples: &mut Samples) -> Result<(), String> {
    for _ in 0..plan.setup_cycles() {
        samples.push("setup_s", setup_cycle::<Tempo>(w)?);
    }
    Ok(())
}

/// One repetition of the end-to-end pass: a rate run, then a peak run, each on a fresh
/// cluster with tracing off.
pub fn end_to_end_rep(
    w: &Workload,
    plan: &Plan,
    seed: u64,
    samples: &mut Samples,
) -> Result<(), String> {
    let scale = plan.scale(w);
    let w = &plan.shrunk(w);
    let rate = run::<Tempo>(w, spec(rate_run(scale), seed))?;
    let p50_ms = quantile_ms(&rate.load.latency, 0.50);
    samples.push("p50_ms", p50_ms);
    samples.count(&rate);

    let peak = run::<Tempo>(w, spec(peak_run(w, scale), seed))?;
    let tput = peak.load.completed as f64 / peak.wall_s;
    samples.push("tput_ops_s", tput);
    samples.count(&peak);
    eprintln!(
        "    p50 {p50_ms:.3} ms, p95 {:.3} ms; {tput:.0} ops/s in {:.2} s",
        quantile_ms(&rate.load.latency, 0.95),
        peak.wall_s,
    );
    Ok(())
}

/// The values of one layer pass, in table order, with its op counts.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Every per-layer metric with its value, in table order.
    pub values: Vec<(&'static PerLayer, f64)>,
    /// The Atlas comparison as `(name, unit, value)`, on single-shard WAN workloads when
    /// asked for.
    pub diagnostics: Vec<(&'static str, &'static str, f64)>,
    /// Measured ops the schedules intended.
    pub attempted: u64,
    /// Of those, the ones that did not complete.
    pub failed: u64,
}

impl Layers {
    /// The value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(m, _)| m.name == name)
            .map(|(_, v)| *v)
    }
}

fn per(total: u64, commands: u64) -> f64 {
    total as f64 / commands.max(1) as f64
}

/// The layer pass: one untraced peak run with counters and busy time read from outside,
/// one untraced and one traced rate run, one traced peak run, and the replays.
pub fn layers(
    w: &Workload,
    plan: &Plan,
    seed: u64,
    micro: &(NetMicro, StoreMicro),
    with_atlas: bool,
) -> Result<Layers, String> {
    let full = w;
    let w = &plan.shrunk(w);
    let scale = plan.layer_scale();
    let mut out = Layers::default();
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    let nproc = crate::procfs::cores() as f64;

    // Source 1: counters at the boundary and busy time per thread class, peak run.
    let peak = run::<Tempo>(
        w,
        RunSpec {
            sample_cpu: true,
            ..spec(peak_run(w, scale), seed)
        },
    )?;
    let done = peak.load.completed;
    let totals = peak.runtime.total_metrics();
    let net = peak.runtime.transport;
    let tput = done as f64 / peak.wall_s;
    v.insert("kernel.msgs_per_cmd", per(totals.messages_sent, done));
    v.insert("net.frames_per_cmd", per(net.frames_sent, done));
    v.insert("net.bytes_per_cmd", per(net.bytes_sent, done));
    v.insert("net.flushes_per_cmd", per(net.flushes, done));
    v.insert("net.frames_per_flush", per(net.frames_sent, net.flushes));
    v.insert("net.flush_stalls", net.flush_stalls as f64);
    v.insert("net.queue_depth_peak", net.queue_depth_peak as f64);
    v.insert("net.frames_dropped", net.frames_dropped as f64);
    v.insert("core.fast_path_ratio", totals.fast_path_ratio());
    v.insert("core.recoveries_started", totals.recoveries_started as f64);
    v.insert(
        "core.gc_collected_ratio",
        per(totals.gc_collected, totals.committed),
    );
    v.insert("core.gc_msgs_per_cmd", per(totals.gc_messages, done));
    let cpu = peak.cpu.expect("the peak run sampled CPU");
    let replica_cpu = per(cpu.replica_us, done);
    let io_cpu = per(cpu.io_us, done);
    let pump_cpu = per(cpu.pump_us, done);
    v.insert("runtime.replica_cpu_us_per_cmd", replica_cpu);
    v.insert("net.io_cpu_us_per_cmd", io_cpu);
    v.insert("load.pump_cpu_us_per_cmd", pump_cpu);
    v.insert("runtime.process_cpu_us_per_cmd", per(cpu.process_us, done));
    v.insert(
        "runtime.cpu_util",
        cpu.process_us as f64 / (peak.wall_s * 1e6 * nproc),
    );
    v.insert("runtime.rss_mb", peak.rss_mb);
    v.insert(
        "runtime.cpu_bound_tput_ops_s",
        nproc * 1e6 / (replica_cpu + io_cpu + pump_cpu).max(f64::MIN_POSITIVE),
    );

    // The generator's side of an untraced rate run.
    let rate = run::<Tempo>(w, spec(rate_run(scale), seed))?;
    let window_s = rate.load.measure.as_secs_f64();
    let latency = &rate.load.latency;
    let tempo_p50_ms = quantile_ms(latency, 0.50);
    plan.check_sessions(full, tempo_p50_ms)?;
    v.insert("load.offered_ops_s", rate.intended as f64 / window_s);
    v.insert("load.achieved_ops_s", rate.load.achieved_rate());
    v.insert(
        "load.inflight_mean",
        rate.load.achieved_rate() * latency.mean_us() / 1e6,
    );
    v.insert("load.p95_ms", quantile_ms(latency, 0.95));
    v.insert("load.p99_ms", quantile_ms(latency, 0.99));
    v.insert("load.p999_ms", quantile_ms(latency, 0.999));
    v.insert("load.max_ms", latency.max_us() as f64 / 1000.0);

    // Source 2: the traced runs.
    let traced = |kind| {
        run::<Tempo>(
            w,
            RunSpec {
                trace: true,
                ..spec(kind, seed)
            },
        )
    };
    let traced_rate = traced(rate_run(scale))?;
    let phases = traced_rate
        .runtime
        .phases
        .as_ref()
        .ok_or_else(|| format!("{}: the traced run folded no phases", w.name))?;
    for (p50, p95, pair) in [
        (
            "core.phase_submit_commit_p50_ms",
            "core.phase_submit_commit_p95_ms",
            "submit_commit",
        ),
        (
            "core.phase_commit_stable_p50_ms",
            "core.phase_commit_stable_p95_ms",
            "commit_stable",
        ),
        (
            "executor.phase_stable_execute_p50_ms",
            "executor.phase_stable_execute_p95_ms",
            "stable_execute",
        ),
        (
            "runtime.phase_execute_reply_p50_ms",
            "runtime.phase_execute_reply_p95_ms",
            "execute_reply",
        ),
    ] {
        let histogram = &phases
            .pair(pair)
            .ok_or_else(|| format!("{}: no {pair} phase pair", w.name))?
            .histogram;
        v.insert(p50, quantile_ms(histogram, 0.50));
        v.insert(p95, quantile_ms(histogram, 0.95));
    }
    v.insert("trace.events_dropped", phases.dropped as f64);
    v.insert(
        "trace.phase_complete_ratio",
        per(phases.complete, phases.commands),
    );
    let traced_peak = traced(peak_run(w, scale))?;
    let traced_tput = traced_peak.load.completed as f64 / traced_peak.wall_s;
    v.insert("trace.overhead_pct", (tput - traced_tput) / tput * 100.0);

    let timed_runs = [&peak, &rate, &traced_rate, &traced_peak];
    out.attempted = timed_runs.iter().map(|o| o.intended).sum();
    out.failed = timed_runs.iter().map(|o| o.failed()).sum();
    v.insert("load.failed_ratio", per(out.failed, out.attempted));

    // Source 3: the single-threaded replays.
    let commands = if plan.smoke {
        REPLAY_COMMANDS / 20
    } else {
        REPLAY_COMMANDS
    };
    let rounds = replay::commands(full, seed, commands);
    let timed = replay::replay(full, &rounds, Mode::Timed)?;
    let counted = replay::replay(full, &rounds, Mode::Counted)?;
    let stored = replay::replay(full, &rounds, Mode::Stored)?;
    let n = counted.commands;
    let (encode_ns, decode_ns) = replay::codec_ns_per_msg(&counted.sample);
    let replay_us = timed.elapsed.as_secs_f64() * 1e6 / n as f64;
    v.insert("kernel.replay_us_per_cmd", replay_us);
    v.insert("kernel.replay_msgs_per_cmd", per(counted.msgs, n));
    v.insert("kernel.replay_bytes_per_cmd", per(counted.bytes, n));
    v.insert(
        "kernel.replay_allocs_per_cmd",
        per(counted.protocol_allocs, n),
    );
    v.insert(
        "core.replay_fast_path_ratio",
        per(counted.fast_paths, counted.fast_paths + counted.slow_paths),
    );
    v.insert("codec.encode_ns_per_msg", encode_ns);
    v.insert("codec.decode_ns_per_msg", decode_ns);
    v.insert("codec.bytes_per_msg", per(counted.bytes, counted.msgs));
    v.insert(
        "codec.allocs_per_msg",
        per(counted.codec_allocs, counted.msgs),
    );
    v.insert(
        "executor.us_per_cmd",
        replay::executor_us_per_cmd(full, &rounds),
    );
    let (appends, fsyncs, bytes) = stored.wal;
    v.insert("store.replay_appends_per_cmd", per(appends, n));
    v.insert("store.replay_fsyncs_per_cmd", per(fsyncs, n));
    v.insert("store.replay_bytes_per_cmd", per(bytes, n));

    let (net_micro, store_micro) = micro;
    v.insert(
        "net.loopback_frames_per_s_batched",
        net_micro.frames_per_s_batched,
    );
    v.insert(
        "net.loopback_frames_per_s_unbatched",
        net_micro.frames_per_s_unbatched,
    );
    v.insert("net.pingpong_rtt_us_p50", net_micro.pingpong_rtt_us_p50);
    v.insert("store.append_ns", store_micro.append_ns);
    v.insert("store.sync_us_p50", store_micro.sync_us_p50);
    v.insert("store.sync_us_p95", store_micro.sync_us_p95);

    // The budget line: what of a replica's CPU neither the protocol replay nor the
    // codec explains is the replica loop and the transport calls.
    let codec_us = v["kernel.msgs_per_cmd"] * (encode_ns + decode_ns) / 1000.0;
    v.insert(
        "runtime.unattributed_cpu_us_per_cmd",
        replica_cpu - (replay_us + codec_us),
    );

    out.values = PER_LAYER
        .iter()
        .map(|m| {
            let value = v.get(m.name).copied();
            (
                m,
                value.unwrap_or_else(|| panic!("{} was not measured", m.name)),
            )
        })
        .collect();

    if with_atlas && w.wan && w.config().shards() == 1 {
        let atlas = run::<Atlas>(w, spec(rate_run(scale), seed))?;
        let atlas_p50_ms = quantile_ms(&atlas.load.latency, 0.50);
        let values = [
            atlas_p50_ms,
            quantile_ms(&atlas.load.latency, 0.95),
            tempo_p50_ms / atlas_p50_ms,
        ];
        out.diagnostics = ATLAS_DIAGNOSTICS
            .iter()
            .zip(values)
            .map(|((name, unit), value)| (*name, *unit, value))
            .collect();
        out.attempted += atlas.intended;
        out.failed += atlas.failed();
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seconds_set_the_repetition_count_and_nothing_else() {
        let (lan, wan) = (&crate::spec::WORKLOADS[0], &crate::spec::WORKLOADS[3]);
        let plan = |seconds| Plan {
            seconds,
            smoke: false,
        };
        let driver = plan(20);
        assert_eq!((driver.reps(lan), driver.scale(lan)), (20, 0.1));
        assert_eq!((driver.reps(wan), driver.scale(wan)), (5, 0.4));
        assert_eq!(
            peak_run(wan, driver.scale(wan)),
            RunKind::Peak {
                work: 32_000,
                within: Duration::from_millis(400)
            }
        );
        assert_eq!((driver.layer_scale(), driver.setup_cycles()), (0.5, 6));
        for seconds in [0, 1, 7, 60] {
            let other = plan(seconds);
            assert_eq!(other.scale(lan), driver.scale(lan));
            assert_eq!(other.scale(wan), driver.scale(wan));
            assert_eq!(other.shrunk(wan).rate_ops_s, wan.rate_ops_s);
            assert_eq!(other.shrunk(wan).peak_sessions, wan.peak_sessions);
        }
        assert_eq!((plan(60).reps(lan), plan(60).reps(wan)), (60, 15));
        assert_eq!((plan(0).reps(lan), plan(1).reps(wan)), (1, 1));
        assert_eq!(plan(400).layer_scale(), 1.0, "never over full size");
    }

    #[test]
    fn a_smoke_plan_is_one_small_repetition_at_a_cut_rate() {
        let lan = &crate::spec::WORKLOADS[0];
        let smoke = Plan {
            seconds: 20,
            smoke: true,
        };
        assert_eq!(
            (smoke.reps(lan), smoke.scale(lan), smoke.setup_cycles()),
            (1, 0.1, 1)
        );
        assert_eq!(smoke.shrunk(lan).rate_ops_s, lan.rate_ops_s * 0.1);
        assert_eq!(smoke.shrunk(lan).peak_sessions, 26);
        assert_eq!(smoke.layer_scale(), 0.1);
    }

    #[test]
    fn samples_aggregate_to_medians_and_ok_ratio_counts_every_op() {
        let mut samples = Samples {
            attempted: 1_000,
            failed: 1,
            ..Samples::default()
        };
        for value in [2.0, 9.0, 2.2, 8.0, 2.1] {
            samples.push("p50_ms", value);
        }
        let aggs = samples.aggregate();
        let names: Vec<&str> = aggs.iter().map(|(m, _)| m.name).collect();
        assert_eq!(names, ["p50_ms", "ok_ratio"], "table order, measured only");
        assert_eq!(
            (aggs[0].1.median, aggs[0].1.min, aggs[0].1.max, aggs[0].1.n),
            (2.2, 2.0, 9.0, 5)
        );
        assert_eq!(aggs[1].1.median, 0.999);
    }

    #[test]
    fn session_rule_rejects_a_rate_run_near_its_cap() {
        let w = &crate::spec::WORKLOADS[3];
        let plan = Plan {
            seconds: 20,
            smoke: false,
        };
        assert!(plan.check_sessions(w, 285.0).is_ok());
        // The BENCH_load "bend": 4,000 ops/s x 0.29 s needs 1,170 of 1,200 sessions.
        let bent = Workload {
            rate_ops_s: 4_000.0,
            rate_sessions: 1_200,
            ..*w
        };
        assert!(plan.check_sessions(&bent, 290.0).is_err());
    }
}
