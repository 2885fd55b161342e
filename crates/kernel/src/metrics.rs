//! Latency histograms and throughput accounting.
//!
//! The paper reports per-site average latency (Figure 5), tail percentiles from the 95th
//! to the 99.99th (Figure 6) and throughput/latency curves (Figures 7-9).
//! [`LogHistogram`] records latency samples (in microseconds) into log-spaced buckets
//! and computes those statistics; [`Throughput`] does the commands-per-second part.

use std::fmt;

/// A percentile request, in percent (e.g. `99.9`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile(pub f64);

impl Percentile {
    /// The percentiles reported in Figure 6.
    pub const FIGURE6: [Percentile; 5] = [
        Percentile(95.0),
        Percentile(97.0),
        Percentile(99.0),
        Percentile(99.9),
        Percentile(99.99),
    ];
}

impl fmt::Display for Percentile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// The shared percentile block reported by every latency-measuring harness
/// (`BENCH_load.json`, `BENCH_trace.json`, the fig6 simulator bench): one schema,
/// filled in by [`LogHistogram::summary`]. All latencies are milliseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencySummary {
    /// Number of samples the block summarizes.
    pub samples: u64,
    /// Mean latency.
    pub mean_ms: f64,
    /// Median.
    pub p50_ms: f64,
    /// 95th percentile.
    pub p95_ms: f64,
    /// 99th percentile.
    pub p99_ms: f64,
    /// 99.9th percentile.
    pub p999_ms: f64,
    /// Largest sample.
    pub max_ms: f64,
}

/// Sub-bucket resolution of [`LogHistogram`]: 2^6 = 64 sub-buckets per octave, i.e. a
/// relative quantile error of at most 1/64 (~1.6%).
const LOG_SUB_BITS: u32 = 6;
const LOG_SUBS: usize = 1 << LOG_SUB_BITS;
/// Values at or above 2^40 microseconds (~12.7 days) saturate into the last bucket.
const LOG_MAX_BITS: u32 = 40;
const LOG_BUCKETS: usize = ((LOG_MAX_BITS - LOG_SUB_BITS) as usize + 1) * LOG_SUBS;

/// A streaming, HDR-style log-bucketed latency histogram.
///
/// Rather than keeping every sample, this records into a fixed array of log-spaced
/// buckets: [`LogHistogram::record`] is an index computation plus a counter increment
/// — no allocation, no sorting — so it can sit on the hot path of an open-loop load
/// generator recording every operation. Count, sum (hence the mean) and max are exact.
/// Values below 64 µs are exact; above that, each power of two is split into 64
/// sub-buckets, bounding the relative quantile error by 1/64 (~1.6%). Quantiles
/// report the midpoint of the answering bucket.
#[derive(Debug, Clone)]
pub struct LogHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum_us: u128,
    max_us: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// Creates an empty histogram (the bucket array is the only allocation it will
    /// ever make).
    pub fn new() -> Self {
        Self {
            buckets: vec![0; LOG_BUCKETS],
            count: 0,
            sum_us: 0,
            max_us: 0,
        }
    }

    fn index(v: u64) -> usize {
        if v < LOG_SUBS as u64 {
            v as usize
        } else {
            let msb = 63 - v.leading_zeros();
            let group = (msb - LOG_SUB_BITS + 1) as usize;
            let sub = ((v >> (msb - LOG_SUB_BITS)) & (LOG_SUBS as u64 - 1)) as usize;
            (group * LOG_SUBS + sub).min(LOG_BUCKETS - 1)
        }
    }

    /// The value range `[lo, hi)` covered by bucket `i` (midpoint is what quantile
    /// queries report).
    fn bucket_bounds(i: usize) -> (u64, u64) {
        let group = i / LOG_SUBS;
        let sub = (i % LOG_SUBS) as u64;
        if group == 0 {
            (sub, sub + 1)
        } else {
            let shift = (group - 1) as u32;
            let lo = (LOG_SUBS as u64 + sub) << shift;
            (lo, lo + (1 << shift))
        }
    }

    /// Records one latency sample, in microseconds. O(1), allocation-free.
    pub fn record(&mut self, sample_us: u64) {
        let v = sample_us.min((1 << LOG_MAX_BITS) - 1);
        self.buckets[Self::index(v)] += 1;
        self.count += 1;
        self.sum_us += u128::from(sample_us);
        self.max_us = self.max_us.max(sample_us);
    }

    /// Number of samples recorded.
    pub fn len(&self) -> u64 {
        self.count
    }

    /// Whether no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The largest recorded sample, in microseconds (exact, not bucketed).
    pub fn max_us(&self) -> u64 {
        self.max_us
    }

    /// Mean of the recorded samples, in microseconds (exact, not bucketed).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.count as f64
        }
    }

    /// Mean of the recorded samples, in milliseconds (exact, not bucketed).
    pub fn mean_ms(&self) -> f64 {
        self.mean_us() / 1000.0
    }

    /// Adds every bucket of `other` into this histogram.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum_us += other.sum_us;
        self.max_us = self.max_us.max(other.max_us);
    }

    /// The `q`-quantile (`q` in `[0, 1]`) in microseconds, by nearest rank over the
    /// buckets; the answering bucket's midpoint is returned (its width bounds the
    /// error). 0 when empty.
    pub fn quantile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let (lo, hi) = Self::bucket_bounds(i);
                // The true max is tracked exactly; use it to tighten the last
                // occupied bucket (p100 == max).
                return ((lo + hi) / 2).min(self.max_us);
            }
        }
        self.max_us
    }

    /// A percentile in milliseconds (see [`quantile_us`](Self::quantile_us)).
    pub fn percentile_ms(&self, p: Percentile) -> f64 {
        self.quantile_us(p.0 / 100.0) as f64 / 1000.0
    }

    /// The shared percentile block of this histogram.
    pub fn summary(&self) -> LatencySummary {
        LatencySummary {
            samples: self.count,
            mean_ms: self.mean_us() / 1000.0,
            p50_ms: self.percentile_ms(Percentile(50.0)),
            p95_ms: self.percentile_ms(Percentile(95.0)),
            p99_ms: self.percentile_ms(Percentile(99.0)),
            p999_ms: self.percentile_ms(Percentile(99.9)),
            max_ms: self.max_us as f64 / 1000.0,
        }
    }
}

/// Throughput accounting for a run: completed commands over a time window.
#[derive(Debug, Clone, Copy, Default)]
pub struct Throughput {
    /// Number of completed commands.
    pub completed: u64,
    /// Duration of the measurement window, in microseconds.
    pub window_us: u64,
}

impl Throughput {
    /// Creates a throughput record.
    pub fn new(completed: u64, window_us: u64) -> Self {
        Self {
            completed,
            window_us,
        }
    }

    /// Commands per second (0 when the window is empty).
    pub fn ops_per_second(&self) -> f64 {
        if self.window_us == 0 {
            0.0
        } else {
            self.completed as f64 / (self.window_us as f64 / 1_000_000.0)
        }
    }

    /// Commands per second, in thousands (the unit used by Figures 7-9).
    pub fn kops_per_second(&self) -> f64 {
        self.ops_per_second() / 1000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_units() {
        let t = Throughput::new(230_000, 1_000_000);
        assert!((t.ops_per_second() - 230_000.0).abs() < 1e-6);
        assert!((t.kops_per_second() - 230.0).abs() < 1e-9);
        assert_eq!(Throughput::default().ops_per_second(), 0.0);
    }

    #[test]
    fn figure6_percentile_list() {
        assert_eq!(Percentile::FIGURE6.len(), 5);
        assert_eq!(format!("{}", Percentile(99.9)), "p99.9");
    }

    #[test]
    fn log_histogram_empty_is_zero() {
        let h = LogHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile_us(0.5), 0);
        assert_eq!(h.mean_us(), 0.0);
        assert_eq!(h.summary(), LatencySummary::default());
    }

    #[test]
    fn log_histogram_small_values_are_exact() {
        let mut h = LogHistogram::new();
        for v in 0..64u64 {
            h.record(v);
        }
        // Below 64 µs every value has its own bucket: quantiles are exact
        // (nearest rank 32 of the sorted values 0..=63 is the value 31).
        assert_eq!(h.quantile_us(0.5), 31);
        assert_eq!(h.quantile_us(1.0), 63);
        assert_eq!(h.max_us(), 63);
    }

    /// The reference `LogHistogram` is checked against: the exact nearest-rank
    /// percentile of the raw samples (sorted ascending), in milliseconds.
    fn exact_percentile_ms(sorted: &[u64], p: f64) -> f64 {
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1] as f64 / 1000.0
    }

    /// Log-bucketed quantiles must agree with the exact sorted-sample percentiles of
    /// the same data within the bucketing tolerance (half a bucket width, i.e. ~1/128
    /// relative); count, mean and max must agree exactly.
    #[test]
    fn log_histogram_quantiles_match_exact_percentiles() {
        let mut samples = Vec::new();
        let mut log = LogHistogram::new();
        // A deterministic long-tailed sequence spanning ~4 decades (100 µs .. 1 s).
        let mut x = 0x9e3779b97f4a7c15u64;
        for _ in 0..50_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let base = 100 + x % 30_000; // bulk: 0.1-30 ms
            let sample = if x.is_multiple_of(100) {
                base + 100_000 + x % 900_000 // 1% tail: 0.1-1 s
            } else {
                base
            };
            samples.push(sample);
            log.record(sample);
        }
        samples.sort_unstable();
        for p in [50.0, 90.0, 95.0, 99.0, 99.9, 99.99] {
            let want = exact_percentile_ms(&samples, p);
            let got = log.percentile_ms(Percentile(p));
            let tolerance = want / 64.0 + 1e-3;
            assert!(
                (got - want).abs() <= tolerance,
                "p{p}: log-bucketed {got}ms vs exact {want}ms (tolerance {tolerance}ms)"
            );
        }
        let exact_mean_us = samples.iter().sum::<u64>() as f64 / samples.len() as f64;
        assert!((log.mean_us() - exact_mean_us).abs() < 1e-6);
        assert_eq!(log.max_us(), *samples.last().expect("samples"));
        assert_eq!(log.summary().samples, samples.len() as u64);
    }

    #[test]
    fn log_histogram_merge_equals_single_recording() {
        let mut all = LogHistogram::new();
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        for i in 0..10_000u64 {
            let v = (i * 7919) % 1_000_003;
            all.record(v);
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
        }
        a.merge(&b);
        assert_eq!(a.len(), all.len());
        assert_eq!(a.max_us(), all.max_us());
        for q in [0.5, 0.95, 0.99, 0.999] {
            assert_eq!(a.quantile_us(q), all.quantile_us(q), "q={q}");
        }
    }

    #[test]
    fn log_histogram_saturates_instead_of_panicking() {
        let mut h = LogHistogram::new();
        h.record(u64::MAX);
        h.record(1 << 50);
        assert_eq!(h.len(), 2);
        // Bucketed quantiles clamp to 2^40 µs; max stays exact.
        assert_eq!(h.max_us(), u64::MAX);
        assert!(h.quantile_us(0.5) <= h.max_us());
    }

    #[test]
    fn log_histogram_merge_of_empty_changes_nothing() {
        let mut h = LogHistogram::new();
        for v in [100u64, 200, 300] {
            h.record(v);
        }
        let before = (h.len(), h.max_us(), h.quantile_us(0.99));
        h.merge(&LogHistogram::new());
        assert_eq!((h.len(), h.max_us(), h.quantile_us(0.99)), before);

        // And merging into an empty histogram reproduces the source exactly.
        let mut empty = LogHistogram::new();
        empty.merge(&h);
        assert_eq!(empty.len(), h.len());
        assert_eq!(empty.max_us(), h.max_us());
        assert_eq!(empty.quantile_us(0.5), h.quantile_us(0.5));
        assert!((empty.mean_us() - h.mean_us()).abs() < 1e-9);
    }

    #[test]
    fn log_histogram_single_sample_answers_every_quantile() {
        let mut h = LogHistogram::new();
        h.record(12_345);
        for q in [0.0, 0.5, 0.99, 0.999, 1.0] {
            let got = h.quantile_us(q);
            // One sample: every quantile answers from its bucket, within the
            // bucket's 1/64 relative width, clamped by the exact max.
            assert!(got <= 12_345, "q={q}: {got}");
            assert!(got as f64 >= 12_345.0 * (1.0 - 1.0 / 32.0), "q={q}: {got}");
        }
        assert_eq!(h.summary().max_ms, 12.345);
    }

    #[test]
    fn log_histogram_bucket_boundaries_round_trip() {
        // Values sitting exactly on bucket edges (powers of two and the sub-bucket
        // steps around them) must land in a bucket whose range contains them.
        for &v in &[63u64, 64, 65, 127, 128, 1 << 20, (1 << 20) + 1, (1 << 39)] {
            let mut h = LogHistogram::new();
            h.record(v);
            let got = h.quantile_us(0.5);
            assert!(got <= v, "v={v}: quantile {got} above the sample");
            assert!(
                got as f64 >= v as f64 * (1.0 - 1.0 / 32.0),
                "v={v}: quantile {got} more than a bucket below"
            );
        }
        // Below 64 µs the buckets are unit-width: exact answers.
        let mut h = LogHistogram::new();
        h.record(63);
        assert_eq!(h.quantile_us(1.0), 63);
    }
}
