//! Simulation reports: per-site latency distributions, throughput and protocol counters.

use std::collections::BTreeMap;
use std::fmt;
use tempo_fault::{DetectorStats, FaultSummary, History};
use tempo_kernel::config::Config;
use tempo_kernel::id::{ClientId, SiteId};
use tempo_kernel::metrics::{LogHistogram, Percentile, Throughput};
use tempo_kernel::protocol::ProtocolMetrics;
use tempo_kernel::trace::TraceLog;
use tempo_planet::Region;
use tempo_trace::{MetricsRegistry, PhaseLatencies};

/// Per-site results of a run.
#[derive(Debug, Clone)]
pub struct SiteReport {
    /// The region hosting the site.
    pub region: Region,
    /// Latencies observed by the clients of this site (log-bucketed; microsecond
    /// samples, ~1.6% quantile error).
    pub histogram: LogHistogram,
}

/// Per-client command tally.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientTally {
    /// Commands that completed with a response.
    pub completed: u64,
    /// Commands the client gave up on (`SimOpts::client_timeout_us`).
    pub aborted: u64,
}

/// The outcome of one simulation run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Protocol name ("Tempo", "Atlas", ...).
    pub protocol: String,
    /// The deployment configuration.
    pub config: Config,
    /// Per-site latency distributions.
    pub sites: BTreeMap<SiteId, SiteReport>,
    /// All latencies across sites (log-bucketed, see [`SiteReport::histogram`]).
    pub overall: LogHistogram,
    /// Number of completed client commands.
    pub completed: u64,
    /// Number of client commands aborted on timeout (they may still have taken effect).
    pub aborted: u64,
    /// Per-client completed/aborted tallies.
    pub per_client: BTreeMap<ClientId, ClientTally>,
    /// Application operations per command (1, or the batch size when batching).
    pub ops_per_command: u64,
    /// Time between the first submission and the last completion, in microseconds.
    pub duration_us: u64,
    /// Aggregated protocol counters over all processes.
    pub metrics: ProtocolMetrics,
    /// Injected faults and the messages they cost (all zero without a nemesis).
    pub faults: FaultSummary,
    /// Failure-detector activity across all processes and incarnations (all zero in
    /// oracle mode, i.e. without `SimOpts::detector`).
    pub detector: DetectorStats,
    /// The recorded client/replica history, when `SimOpts::record_history` was set.
    pub history: Option<History>,
    /// The merged, time-sorted lifecycle trace, when `SimOpts::trace` was set.
    /// Byte-identical across same-seed runs (virtual-clock timestamps).
    pub trace: Option<TraceLog>,
    /// Per-phase latency fold of [`trace`](RunReport::trace): submit→commit,
    /// commit→stable, stable→execute, execute→reply and end-to-end.
    pub phases: Option<PhaseLatencies>,
    /// Sampled counter time series, when `SimOpts::metrics_interval_us` was set.
    pub registry: Option<MetricsRegistry>,
    /// Whether the run hit the simulated-time cap before every client finished.
    pub stalled: bool,
}

impl RunReport {
    /// Mean client latency across all sites, in milliseconds.
    pub fn mean_latency_ms(&self) -> f64 {
        self.overall.mean_ms()
    }

    /// Mean client latency at one site, in milliseconds.
    pub fn site_mean_ms(&self, site: SiteId) -> f64 {
        self.sites
            .get(&site)
            .map(|s| s.histogram.mean_ms())
            .unwrap_or(0.0)
    }

    /// A latency percentile across all sites, in milliseconds.
    pub fn percentile_ms(&self, p: Percentile) -> f64 {
        self.overall.percentile_ms(p)
    }

    /// Throughput in completed application operations (not batches) per second.
    pub fn throughput(&self) -> Throughput {
        Throughput::new(self.completed * self.ops_per_command, self.duration_us)
    }

    /// Throughput in thousands of operations per second (the unit of Figures 7-9).
    pub fn throughput_kops(&self) -> f64 {
        self.throughput().kops_per_second()
    }

    /// Fraction of coordinator commits that took the fast path.
    pub fn fast_path_ratio(&self) -> f64 {
        self.metrics.fast_path_ratio()
    }

    /// One-line summary used by the benchmark harnesses.
    pub fn summary(&self) -> String {
        let mut line = format!(
            "{:<10} completed={:<7} mean={:.0}ms p99={:.0}ms tput={:.1}kops/s fast-path={:.0}%",
            self.protocol,
            self.completed,
            self.overall.mean_ms(),
            self.overall.percentile_ms(Percentile(99.0)),
            self.throughput_kops(),
            self.fast_path_ratio() * 100.0,
        );
        if self.aborted > 0 {
            line.push_str(&format!(" aborted={}", self.aborted));
        }
        if self.metrics.recoveries_started > 0 {
            line.push_str(&format!(
                " recoveries={}/{}",
                self.metrics.recoveries_completed, self.metrics.recoveries_started
            ));
        }
        if self.metrics.wal_appends > 0 {
            line.push_str(&format!(
                " wal={}rec/{}B snapshots={}",
                self.metrics.wal_appends, self.metrics.wal_bytes, self.metrics.snapshots_taken
            ));
        }
        if self.faults.events() > 0 {
            line.push_str(&format!(
                " faults={} msgs-dropped={}",
                self.faults.events(),
                self.faults.dropped()
            ));
        }
        if self.detector.heartbeats > 0 || self.detector.suspicions > 0 {
            line.push_str(&format!(
                " suspicions={} wrong={} heartbeats={}",
                self.detector.suspicions, self.detector.wrong_suspicions, self.detector.heartbeats
            ));
        }
        if self.stalled {
            line.push_str(" [STALLED]");
        }
        line
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.summary())?;
        for report in self.sites.values() {
            writeln!(
                f,
                "  {:<16} mean={:.0}ms samples={}",
                report.region.name(),
                report.histogram.mean_ms(),
                report.histogram.len()
            )?;
        }
        if let Some(phases) = &self.phases {
            writeln!(f, "  {}", phases.summary_line())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_report() -> RunReport {
        let mut overall = LogHistogram::new();
        for ms in [100u64, 200, 300] {
            overall.record(ms * 1000);
        }
        let mut sites = BTreeMap::new();
        sites.insert(
            0,
            SiteReport {
                region: Region::new("eu-west-1"),
                histogram: overall.clone(),
            },
        );
        RunReport {
            protocol: "Tempo".to_string(),
            config: Config::full(3, 1),
            sites,
            overall,
            completed: 3,
            aborted: 0,
            per_client: BTreeMap::new(),
            ops_per_command: 1,
            duration_us: 1_000_000,
            metrics: ProtocolMetrics::default(),
            faults: FaultSummary::default(),
            detector: DetectorStats::default(),
            history: None,
            trace: None,
            phases: None,
            registry: None,
            stalled: false,
        }
    }

    #[test]
    fn report_statistics() {
        let report = dummy_report();
        assert!((report.mean_latency_ms() - 200.0).abs() < 1e-9);
        assert!((report.site_mean_ms(0) - 200.0).abs() < 1e-9);
        assert_eq!(report.site_mean_ms(9), 0.0);
        // Log-bucketed percentiles answer within the 1/64 bucket width.
        let p99 = report.percentile_ms(Percentile(99.0));
        assert!((p99 - 300.0).abs() <= 300.0 / 64.0 + 1e-9, "p99 {p99}");
        assert!((report.throughput().ops_per_second() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn report_formats_without_panicking() {
        let report = dummy_report();
        let text = format!("{report}");
        assert!(text.contains("Tempo"));
        assert!(text.contains("eu-west-1"));
        assert!(report.summary().contains("completed=3"));
    }

    #[test]
    fn batched_runs_multiply_throughput() {
        let mut report = dummy_report();
        report.ops_per_command = 10;
        assert!((report.throughput().ops_per_second() - 30.0).abs() < 1e-9);
    }
}
