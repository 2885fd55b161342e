//! One run on the real stack: a fresh `NetCluster`, a probe command that ends set-up,
//! one `run_load` call, and the checks every run must pass.

use crate::procfs::{self, CpuSampler, CpuSplit};
use crate::spec::Workload;
use std::time::{Duration, Instant};
use tempo_kernel::command::{Command, KVOp};
use tempo_kernel::id::{ClientId, Rifl};
use tempo_kernel::protocol::Protocol;
use tempo_load::{Arrivals, Mix};
use tempo_net::Wire;
use tempo_planet::Planet;
use tempo_runtime::{run_load, LoadOpts, LoadReport, NetCluster, NetOpts, RuntimeReport};

/// The probe's client id: outside the pumps' `1..=sites`.
const PROBE_CLIENT: ClientId = 1_000;
/// A key no mix draws, so the probe conflicts with nothing.
const PROBE_KEY: u64 = 1 << 40;

/// Rate of the correctness pass, ops/s.
const GATE_RATE: f64 = 500.0;

/// How long after the last reply the slowest replica may still be executing. Replies
/// come from the replica closest to each client; the others lag by a few dispatch steps
/// on loopback and by a one-way delay plus a promise round on the WAN.
fn settle(w: &Workload) -> Duration {
    let release = Duration::from_millis(if w.wan { 500 } else { 100 });
    // An unoptimised build is an order of magnitude slower at everything.
    if cfg!(debug_assertions) {
        release * 5
    } else {
        release
    }
}

/// The three shapes of `run_load` call the benchmark makes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RunKind {
    /// The correctness pass: 1 s at 500 ops/s with the history recorded and checked.
    Gate,
    /// Open loop, Poisson arrivals at the workload's fixed rate; latency is taken from
    /// the intended arrival time.
    Rate {
        /// Driven but not measured.
        warmup: Duration,
        /// The measured window.
        measure: Duration,
    },
    /// Fixed work: `work` arrivals offered `within` a time far shorter than they take,
    /// so the session cap turns the run into a closed loop of that depth; timed by the
    /// wall clock.
    Peak {
        /// Commands to complete.
        work: u64,
        /// All of them are due by then.
        within: Duration,
    },
}

/// What distinguishes one run from the next.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    /// The shape of the load.
    pub kind: RunKind,
    /// Seeds the arrival schedule and the mixes (pump `i` adds `i`).
    pub seed: u64,
    /// Lifecycle tracing in the replicas. End-to-end metrics come from untraced runs.
    pub trace: bool,
    /// Sample CPU per thread class during the load.
    pub sample_cpu: bool,
}

/// What one run measured.
#[derive(Debug)]
pub struct Outcome {
    /// The generator's view.
    pub load: LoadReport,
    /// The cluster's counters, read at shutdown.
    pub runtime: RuntimeReport,
    /// Wall-clock seconds around the `run_load` call.
    pub wall_s: f64,
    /// `NetCluster::start` through the probe's reply.
    pub setup_s: f64,
    /// Measured ops the schedule intended; `completed + aborted` must equal it.
    pub intended: u64,
    /// CPU per thread class during the load, when sampled.
    pub cpu: Option<CpuSplit>,
    /// Resident set just before shutdown.
    pub rss_mb: f64,
}

impl Outcome {
    /// Ops that did not complete: aborted, timed out or unaccounted.
    pub fn failed(&self) -> u64 {
        self.intended - self.load.completed
    }
}

fn load_opts(w: &Workload, spec: &RunSpec) -> LoadOpts {
    let base = LoadOpts {
        sockets_per_site: 1,
        seed: spec.seed,
        ..LoadOpts::default()
    };
    match spec.kind {
        RunKind::Gate => LoadOpts {
            sessions: w.rate_sessions,
            rate_per_s: GATE_RATE,
            warmup: Duration::ZERO,
            measure: Duration::from_secs(1),
            poisson: true,
            op_timeout: Duration::from_secs(10),
            ..base
        },
        RunKind::Rate { warmup, measure } => LoadOpts {
            sessions: w.rate_sessions,
            rate_per_s: w.rate_ops_s,
            warmup,
            measure,
            poisson: true,
            op_timeout: Duration::from_secs(10),
            ..base
        },
        RunKind::Peak { work, within } => LoadOpts {
            sessions: w.peak_sessions,
            rate_per_s: work as f64 / within.as_secs_f64(),
            warmup: Duration::ZERO,
            measure: within,
            poisson: false,
            op_timeout: Duration::from_secs(120),
            ..base
        },
    }
}

/// Replays the seeded schedules `run_load` will draw: per pump, the arrivals it will
/// generate, and how many of them fall in the measured window.
fn intended_arrivals(opts: &LoadOpts, pumps: usize) -> (Vec<u64>, u64) {
    let rate_per_pump = opts.rate_per_s / pumps as f64;
    let warmup_us = opts.warmup.as_micros() as u64;
    let end_us = warmup_us + opts.measure.as_micros() as u64;
    let mut measured = 0;
    let per_pump = (0..pumps)
        .map(|pump| {
            let arrivals = if opts.poisson {
                Arrivals::poisson(rate_per_pump, opts.seed.wrapping_add(pump as u64))
            } else {
                Arrivals::fixed(rate_per_pump)
            };
            let due: Vec<u64> = arrivals.take_while(|t| *t < end_us).collect();
            measured += due.iter().filter(|t| **t >= warmup_us).count() as u64;
            due.len() as u64
        })
        .collect();
    (per_pump, measured)
}

/// Starts the cluster and times set-up: sockets bound, threads up, peers dialled, and
/// one probe command touching every shard answered.
fn start_cluster<P>(w: &Workload, opts: NetOpts) -> Result<(NetCluster, f64), String>
where
    P: Protocol + Send + 'static,
    P::Message: Wire + Send + 'static,
{
    let config = w.config();
    let begun = Instant::now();
    let cluster = NetCluster::start(
        config,
        opts,
        Box::new(|id, shard, config, _incarnation| P::new(id, shard, config)),
    )
    .map_err(|e| format!("{}: cluster did not start: {e}", w.name))?;
    let ops = (0..config.shards() as u64)
        .map(|shard| (shard, PROBE_KEY, KVOp::Get))
        .collect();
    let probe = Command::new(Rifl::new(PROBE_CLIENT, 1), ops, 0);
    let answered = cluster
        .client(0, PROBE_CLIENT)
        .map(|mut session| session.submit(probe));
    let setup_s = begun.elapsed().as_secs_f64();
    if !matches!(answered, Ok(Some(_))) {
        cluster.shutdown();
        return Err(format!("{}: the probe command got no answer", w.name));
    }
    Ok((cluster, setup_s))
}

/// Starts a cluster, answers the probe, shuts down: one more sample of set-up time.
pub fn setup_cycle<P>(w: &Workload) -> Result<f64, String>
where
    P: Protocol + Send + 'static,
    P::Message: Wire + Send + 'static,
{
    let (cluster, setup_s) = start_cluster::<P>(w, net_opts(w, false, false))?;
    cluster.shutdown();
    Ok(setup_s)
}

fn net_opts(w: &Workload, trace: bool, record_history: bool) -> NetOpts {
    NetOpts {
        planet: w.wan.then(Planet::ec2_three_regions),
        trace,
        record_history,
        ..NetOpts::default()
    }
}

/// One run of `w` under protocol `P`, checked: the op count matches the seeded
/// schedule, every replica executed at least the commands its shard was sent, and for
/// the gate the recorded history passes the checker.
pub fn run<P>(w: &Workload, spec: RunSpec) -> Result<Outcome, String>
where
    P: Protocol + Send + 'static,
    P::Message: Wire + Send + 'static,
{
    let gate = spec.kind == RunKind::Gate;
    let opts = load_opts(w, &spec);
    let config = w.config();
    let pumps = config.n();
    let (per_pump, intended) = intended_arrivals(&opts, pumps);
    let (cluster, setup_s) = start_cluster::<P>(w, net_opts(w, spec.trace, gate))?;

    let sampler = spec.sample_cpu.then(CpuSampler::start);
    let begun = Instant::now();
    let load = run_load(&cluster, opts, |pump| w.mix(spec.seed + pump as u64));
    let wall_s = begun.elapsed().as_secs_f64();
    let cpu = sampler.map(CpuSampler::stop);

    std::thread::sleep(settle(w));
    let rss_mb = procfs::rss_mb();
    let runtime = cluster.shutdown();

    let what = format!("{} {:?} seed {}", w.name, spec.kind, spec.seed);
    if load.completed + load.aborted != intended {
        return Err(format!(
            "{what}: {} completed + {} aborted, but the schedule intended {intended}",
            load.completed, load.aborted
        ));
    }
    if load.latency.len() != load.completed {
        return Err(format!(
            "{what}: {} latency samples for {} completions",
            load.latency.len(),
            load.completed
        ));
    }
    if load.aborted == 0 {
        // Every command was submitted, so each shard was sent exactly the commands
        // the seeded mixes address to it; every replica of the shard must have
        // executed them all (the probe and nothing else comes on top).
        let mut sent = vec![0u64; config.shards()];
        for (pump, total) in per_pump.iter().enumerate() {
            let mut mix = w.mix(spec.seed + pump as u64);
            for seq in 0..*total {
                for shard in mix.next(Rifl::new(1, seq)).shards() {
                    sent[shard as usize] += 1;
                }
            }
        }
        for (process, metrics) in runtime.metrics.iter().enumerate() {
            let shard = process / config.n();
            if metrics.executed < sent[shard] {
                return Err(format!(
                    "{what}: replica {process} executed {} of the {} commands sent to shard {shard}",
                    metrics.executed, sent[shard]
                ));
            }
        }
    }
    if gate {
        let history = runtime
            .history
            .as_ref()
            .ok_or_else(|| format!("{what}: no history was recorded"))?;
        let summary = history
            .check()
            .map_err(|violation| format!("{what}: history check failed: {violation}"))?;
        if summary.completed < load.completed {
            return Err(format!(
                "{what}: the history holds {} completions, the generator saw {}",
                summary.completed, load.completed
            ));
        }
    }
    Ok(Outcome {
        load,
        runtime,
        wall_s,
        setup_s,
        intended,
        cpu,
        rss_mb,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    #[test]
    fn fixed_schedule_offers_the_whole_work_within_a_second() {
        let w = &WORKLOADS[0];
        let spec = RunSpec {
            kind: RunKind::Peak {
                work: 30_000,
                within: Duration::from_secs(1),
            },
            seed: 1,
            trace: false,
            sample_cpu: false,
        };
        let (per_pump, measured) = intended_arrivals(&load_opts(w, &spec), 3);
        assert_eq!(per_pump.len(), 3);
        assert_eq!(per_pump.iter().sum::<u64>(), measured);
        // Arrival k of a pump is at k / 10_000 s; those strictly before 1 s count.
        assert!((29_997..=30_000).contains(&measured), "{measured}");
    }

    #[test]
    fn poisson_schedule_is_seeded_and_splits_warmup_from_measure() {
        let w = &WORKLOADS[0];
        let spec = |seed| RunSpec {
            kind: RunKind::Rate {
                warmup: Duration::from_secs(1),
                measure: Duration::from_secs(4),
            },
            seed,
            trace: false,
            sample_cpu: false,
        };
        let a = intended_arrivals(&load_opts(w, &spec(7)), 3);
        assert_eq!(a, intended_arrivals(&load_opts(w, &spec(7)), 3));
        assert_ne!(a, intended_arrivals(&load_opts(w, &spec(8)), 3));
        let (per_pump, measured) = a;
        let total: u64 = per_pump.iter().sum();
        // 8,000 ops/s: about 40,000 arrivals, four fifths of them measured.
        assert!((39_000..=41_000).contains(&total), "{total}");
        assert!((31_200..=32_800).contains(&measured), "{measured}");
    }
}
