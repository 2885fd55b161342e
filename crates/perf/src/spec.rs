//! The benchmark's fixed definition: the four workloads with their constants, and the
//! tables of end-to-end and per-layer metrics. `BENCHMARK.json` at the repo root
//! mirrors these tables; a test keeps the two in step.
//!
//! The constants are part of the benchmark. A change that claims a gain does not
//! retune them.

use tempo_kernel::command::Command;
use tempo_kernel::config::Config;
use tempo_kernel::id::Rifl;
use tempo_load::{Mix, YcsbTMix, ZipfMix};

/// Keys per shard in every mix.
const KEYS: u64 = 4_096;
/// Opaque payload bytes per `ZipfMix` command.
const PAYLOAD: usize = 100;

/// Which `tempo-load` mix a workload draws its commands from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MixKind {
    /// `ZipfMix::new(KEYS, theta, read_ratio, seed).with_hot_ratio(..).with_payload(100)`.
    Zipf {
        /// Zipf skew.
        theta: f64,
        /// Share of `Get`s.
        read_ratio: f64,
        /// Share of commands forced onto key 0.
        hot_ratio: f64,
    },
    /// `YcsbTMix::new(2, KEYS, 0.5, 0.5, seed)`: 2-key transactions over 2 shards.
    YcsbT,
}

/// One workload: a deployment, a command mix, and the fixed load of its two runs.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists, in one line.
    pub why: &'static str,
    /// `(n, f, shards)` of the deployment.
    pub deployment: (usize, usize, usize),
    /// Whether the EC2 three-region planet delays every frame.
    pub wan: bool,
    /// The command mix.
    pub mix: MixKind,
    /// Offered rate of the rate run, ops/s.
    pub rate_ops_s: f64,
    /// Session cap of the rate run.
    pub rate_sessions: usize,
    /// Commands of the peak run at full size.
    pub peak_work: u64,
    /// Session cap of the peak run, i.e. its closed-loop depth.
    pub peak_sessions: usize,
    /// Seconds one repetition measures: `--seconds` makes `seconds / rep_seconds`
    /// repetitions, each a tenth of this in seconds of the issue's full size (1 s warm-up,
    /// 4 s window, the whole peak work). Measured on this host with the three sizes
    /// interleaved, twenty repetitions of 1 s spread less between identical runs than
    /// five of 4 s on every metric and workload, and less than ten of 2 s on the pair
    /// nearest its bound (README, "Repetitions"): throughput and latency differ more
    /// between one fresh cluster and the next, and between one ten-second spell of the
    /// host and the next, than they waver inside a window. On the WAN every run
    /// also pays about two seconds of injected delay, settling and set-up, and the peak
    /// run needs several turns of its 8,192 sessions, so its repetitions are of 4 s.
    pub rep_seconds: f64,
}

impl Workload {
    /// The deployment configuration.
    pub fn config(&self) -> Config {
        let (n, f, shards) = self.deployment;
        Config::new(n, f, shards)
    }

    /// The mix of one pump, seeded so that pumps draw distinct streams.
    pub fn mix(&self, seed: u64) -> AnyMix {
        match self.mix {
            MixKind::Zipf {
                theta,
                read_ratio,
                hot_ratio,
            } => AnyMix::Zipf(
                ZipfMix::new(KEYS, theta, read_ratio, seed)
                    .with_hot_ratio(hot_ratio)
                    .with_payload(PAYLOAD),
            ),
            MixKind::YcsbT => AnyMix::YcsbT(YcsbTMix::new(2, KEYS, 0.5, 0.5, seed)),
        }
    }
}

/// The four workloads, in the order they are interleaved.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "lan_rw",
        why: "Reference CPU path: 3 replicas f=1 on loopback, zipf 0.5 half reads, all fast path, about 5 msgs/cmd; any per-message or per-command CPU saving shows here first.",
        deployment: (3, 1, 1),
        wan: false,
        mix: MixKind::Zipf {
            theta: 0.5,
            read_ratio: 0.5,
            hot_ratio: 0.0,
        },
        rate_ops_s: 8_000.0,
        rate_sessions: 256,
        peak_work: 120_000,
        peak_sessions: 256,
        rep_seconds: 1.0,
    },
    Workload {
        name: "lan_contended_f2",
        why: "The contended case: 5 replicas f=2, 95% writes with 20% on one key, mostly slow path, about 19 msgs/cmd; a fast-path-only or read-only optimisation must show no change here.",
        deployment: (5, 2, 1),
        wan: false,
        mix: MixKind::Zipf {
            theta: 0.99,
            read_ratio: 0.05,
            hot_ratio: 0.2,
        },
        rate_ops_s: 3_000.0,
        rate_sessions: 256,
        peak_work: 40_000,
        peak_sessions: 256,
        rep_seconds: 1.0,
    },
    Workload {
        name: "lan_2shard_txn",
        why: "Partial replication: 2 shards x 3 replicas, 2-key cross-shard transactions, about 28 msgs/cmd; cross-shard messaging, GC exchange and transport fan-out dominate.",
        deployment: (3, 1, 2),
        wan: false,
        mix: MixKind::YcsbT,
        rate_ops_s: 2_000.0,
        rate_sessions: 256,
        peak_work: 30_000,
        peak_sessions: 256,
        rep_seconds: 1.0,
    },
    Workload {
        name: "wan_rw",
        why: "lan_rw across emulated EC2 regions: latency is injected delay times protocol rounds, so CPU work should move nothing at the fixed rate; thousands in flight at peak.",
        deployment: (3, 1, 1),
        wan: true,
        mix: MixKind::Zipf {
            theta: 0.5,
            read_ratio: 0.5,
            hot_ratio: 0.0,
        },
        rate_ops_s: 1_500.0,
        rate_sessions: 4_096,
        peak_work: 80_000,
        peak_sessions: 8_192,
        rep_seconds: 4.0,
    },
];

/// The workload called `name`.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Either mix behind one type, so the harness is not generic over the mix.
#[derive(Debug, Clone)]
pub enum AnyMix {
    /// Single-key commands.
    Zipf(ZipfMix),
    /// Two-key cross-shard transactions.
    YcsbT(YcsbTMix),
}

impl Mix for AnyMix {
    fn next(&mut self, rifl: Rifl) -> Command {
        match self {
            AnyMix::Zipf(m) => m.next(rifl),
            AnyMix::YcsbT(m) => m.next(rifl),
        }
    }

    fn name(&self) -> String {
        match self {
            AnyMix::Zipf(m) => m.name(),
            AnyMix::YcsbT(m) => m.name(),
        }
    }
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the system sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    /// A difference this small, in the metric's unit, is never a disagreement between
    /// two passes: loopback set-up takes milliseconds, and a tenth of that is noise.
    pub floor: f64,
}

/// The four end-to-end metrics, the same set on every workload.
///
/// The issue asked for bounds of 0.10 on throughput and p50, and for `p95_ms` at 0.15.
/// The benchmark contract accepts a benchmark only if ten identical runs spread (first
/// to third quartile over the median) by less than the bound, on every workload, and
/// caps a bound at 0.25. On this shared 2-core guest they spread by 5 to 16 % on
/// `tput_ops_s` and by 6 to 27 % on loopback `p50_ms`, depending on the hour, so the
/// bounds are the contract's largest. `p95_ms` spread by 21 to 53 % on
/// `lan_contended_f2`, which no bound the contract allows covers, and a metric has one
/// bound for all workloads: by the issue's own rule for a metric that cannot meet its
/// bound it is the per-layer `load.p95_ms`, next to p99. On the WAN both percentiles
/// hold to 0.1 %.
///
/// `ok_ratio` is the issue's `failed_ratio` turned round (`1 - failed_ratio`): the
/// contract wants metrics that are never 0 and a bound relative to the median, and
/// 0.001 of a median of 1 is the issue's "+0.001 absolute".
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "tput_ops_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        floor: 0.0,
    },
    EndToEnd {
        name: "p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.0,
    },
    EndToEnd {
        name: "ok_ratio",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.001,
        floor: 0.0,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.05,
    },
];

/// A per-layer metric: one layer's count, time or ratio.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Name, `<layer>.<what>`; the layer is a crate.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// The end-to-end metric and workloads it should move, stated before measuring.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

const TPUT_MSG: &str = "tput_ops_s, mostly lan_2shard_txn and lan_contended_f2";
const TPUT_LAN: &str = "tput_ops_s on lan_*; not p50_ms on wan_rw";
const LAT_WAN: &str = "p50_ms and load.p95_ms, chiefly wan_rw";
const DIAG: &str = "diagnostic";

/// Every per-layer metric, in report order. Source 1: counters at the boundary of the
/// peak run and busy time per thread class. Source 2: the traced runs. Source 3: the
/// single-threaded layer replays and the once-per-invocation micro runs.
pub const PER_LAYER: [PerLayer; 58] = [
    layer("kernel.msgs_per_cmd", "count", Lower, TPUT_MSG),
    layer("net.frames_per_cmd", "count", Lower, TPUT_MSG),
    layer("net.bytes_per_cmd", "B", Lower, TPUT_MSG),
    layer(
        "net.flushes_per_cmd",
        "count",
        Lower,
        "tput_ops_s on lan_* and wan_rw",
    ),
    layer(
        "net.frames_per_flush",
        "count",
        Higher,
        "tput_ops_s on wan_rw",
    ),
    layer(
        "net.flush_stalls",
        "count",
        Lower,
        "tput_ops_s under overload",
    ),
    layer("net.queue_depth_peak", "count", Lower, DIAG),
    layer("net.frames_dropped", "count", Lower, "expect 0"),
    layer(
        "core.fast_path_ratio",
        "ratio",
        Higher,
        "p50_ms and tput_ops_s on lan_contended_f2",
    ),
    layer(
        "core.recoveries_started",
        "count",
        Lower,
        "wasted work; expect 0",
    ),
    layer(
        "core.gc_collected_ratio",
        "ratio",
        Higher,
        "runtime.rss_mb; known stall on lan_2shard_txn",
    ),
    layer("core.gc_msgs_per_cmd", "count", Lower, TPUT_MSG),
    layer("runtime.replica_cpu_us_per_cmd", "us", Lower, TPUT_LAN),
    layer("net.io_cpu_us_per_cmd", "us", Lower, TPUT_LAN),
    layer(
        "load.pump_cpu_us_per_cmd",
        "us",
        Lower,
        "generator cost; must stay under a tenth of the replicas'",
    ),
    layer(
        "runtime.process_cpu_us_per_cmd",
        "us",
        Lower,
        "what replica + io + pump must add up to, within 5%",
    ),
    layer(
        "runtime.cpu_util",
        "ratio",
        Higher,
        "near 1 on lan_* peak runs: CPU-bound",
    ),
    layer("runtime.rss_mb", "MB", Lower, DIAG),
    layer("load.offered_ops_s", "1/s", Higher, DIAG),
    layer(
        "load.achieved_ops_s",
        "1/s",
        Higher,
        "equals offered while the rate run keeps up",
    ),
    layer(
        "load.inflight_mean",
        "count",
        Lower,
        "session sizing: must stay under sessions/3",
    ),
    layer(
        "load.p95_ms",
        "ms",
        Lower,
        "tail; steady on wan_rw (364 ms), too noisy on loopback to bound yet",
    ),
    layer(
        "load.p99_ms",
        "ms",
        Lower,
        "tail; too noisy on 2 cores to bound yet",
    ),
    layer(
        "load.p999_ms",
        "ms",
        Lower,
        "tail; too noisy on 2 cores to bound yet",
    ),
    layer("load.max_ms", "ms", Lower, DIAG),
    layer("load.failed_ratio", "ratio", Lower, "ok_ratio"),
    layer("core.phase_submit_commit_p50_ms", "ms", Lower, LAT_WAN),
    layer("core.phase_submit_commit_p95_ms", "ms", Lower, LAT_WAN),
    layer("core.phase_commit_stable_p50_ms", "ms", Lower, LAT_WAN),
    layer("core.phase_commit_stable_p95_ms", "ms", Lower, LAT_WAN),
    layer("executor.phase_stable_execute_p50_ms", "ms", Lower, LAT_WAN),
    layer("executor.phase_stable_execute_p95_ms", "ms", Lower, LAT_WAN),
    layer("runtime.phase_execute_reply_p50_ms", "ms", Lower, LAT_WAN),
    layer("runtime.phase_execute_reply_p95_ms", "ms", Lower, LAT_WAN),
    layer("trace.events_dropped", "count", Lower, DIAG),
    layer("trace.phase_complete_ratio", "ratio", Higher, DIAG),
    layer(
        "trace.overhead_pct",
        "%",
        Lower,
        "traced vs untraced tput_ops_s",
    ),
    layer("kernel.replay_us_per_cmd", "us", Lower, TPUT_LAN),
    layer("kernel.replay_msgs_per_cmd", "count", Lower, TPUT_MSG),
    layer("kernel.replay_bytes_per_cmd", "B", Lower, TPUT_MSG),
    layer("kernel.replay_allocs_per_cmd", "count", Lower, TPUT_LAN),
    layer(
        "core.replay_fast_path_ratio",
        "ratio",
        Higher,
        "p50_ms on lan_contended_f2",
    ),
    layer("codec.encode_ns_per_msg", "ns", Lower, TPUT_LAN),
    layer("codec.decode_ns_per_msg", "ns", Lower, TPUT_LAN),
    layer("codec.bytes_per_msg", "B", Lower, TPUT_LAN),
    layer("codec.allocs_per_msg", "count", Lower, TPUT_LAN),
    layer("executor.us_per_cmd", "us", Lower, TPUT_LAN),
    layer(
        "store.replay_appends_per_cmd",
        "count",
        Lower,
        "a later durable workload",
    ),
    layer(
        "store.replay_fsyncs_per_cmd",
        "count",
        Lower,
        "a later durable workload",
    ),
    layer(
        "store.replay_bytes_per_cmd",
        "B",
        Lower,
        "a later durable workload",
    ),
    layer("net.loopback_frames_per_s_batched", "1/s", Higher, TPUT_LAN),
    layer(
        "net.loopback_frames_per_s_unbatched",
        "1/s",
        Higher,
        TPUT_LAN,
    ),
    layer("net.pingpong_rtt_us_p50", "us", Lower, "p50_ms on lan_rw"),
    layer("store.append_ns", "ns", Lower, "a later durable workload"),
    layer(
        "store.sync_us_p50",
        "us",
        Lower,
        "disk-dependent; informational",
    ),
    layer(
        "store.sync_us_p95",
        "us",
        Lower,
        "disk-dependent; informational",
    ),
    layer(
        "runtime.unattributed_cpu_us_per_cmd",
        "us",
        Lower,
        "the replica loop and transport calls; tput_ops_s on lan_*",
    ),
    layer(
        "runtime.cpu_bound_tput_ops_s",
        "1/s",
        Higher,
        "the ceiling nproc x 1e6 / total cpu_us_per_cmd; tput_ops_s stays under it",
    ),
];

/// Diagnostics outside `BENCHMARK.json`: Atlas runs on single-shard deployments only,
/// so the comparison is printed for `wan_rw` alone and cannot be a metric that every
/// workload reports.
pub const ATLAS_DIAGNOSTICS: [(&str, &str); 3] = [
    ("atlas.p50_ms", "ms"),
    ("atlas.p95_ms", "ms"),
    ("atlas.tempo_over_atlas_p50", "ratio"),
];

/// Whether `name` is a legal metric or workload name: `[A-Za-z0-9_.-]+`, at most 64
/// characters, starting with a letter or a digit.
pub fn valid_name(name: &str) -> bool {
    let legal = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(legal)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_validator_accepts_the_contract_alphabet_only() {
        for good in [
            "lan_rw",
            "net.frames_per_cmd",
            "p50_ms",
            "a-b.c_d",
            "9lives",
        ] {
            assert!(valid_name(good), "{good} must be valid");
        }
        let long = "x".repeat(65);
        for bad in [
            "", " lan", "p50 ms", "tput/ops", ".hidden", "-dash", "naïve", &long,
        ] {
            assert!(!valid_name(bad), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn every_name_is_valid_and_used_once() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
    }

    #[test]
    fn sessions_cover_the_rate_with_slack() {
        // rate x p50 <= sessions / 3 with the p50 each workload shows today
        // (lan: under 5 ms; wan: 285 ms).
        for w in &WORKLOADS {
            let p50_s = if w.wan { 0.285 } else { 0.005 };
            assert!(
                w.rate_ops_s * p50_s <= w.rate_sessions as f64 / 3.0,
                "{}: {} sessions are too few",
                w.name,
                w.rate_sessions
            );
        }
    }
}
