//! Small statistics: the median/min/max aggregate over repetitions, and quantiles of a
//! `LogHistogram` interpolated inside the answering bucket.

use tempo_kernel::metrics::LogHistogram;

/// The median of `values` (mean of the middle two for an even count). `None` when
/// empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let upper = sorted.len() / 2;
    let lower = sorted.len().checked_sub(1)? / 2;
    Some((sorted[lower] + sorted[upper]) / 2.0)
}

/// What a metric's repetitions aggregate to: the metric's value is their median; the
/// smallest and the largest are printed beside it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Agg {
    /// Median over repetitions: the metric's value.
    pub median: f64,
    /// Smallest repetition.
    pub min: f64,
    /// Largest repetition.
    pub max: f64,
    /// Repetitions aggregated.
    pub n: usize,
}

impl Agg {
    /// Aggregates `values`; `None` when empty.
    pub fn of(values: &[f64]) -> Option<Agg> {
        Some(Agg {
            median: median(values)?,
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            n: values.len(),
        })
    }
}

/// The `[lo, hi)` range of the `LogHistogram` bucket holding `v`: exact below 64, then
/// 64 sub-buckets per power of two.
fn bucket_of(v: u64) -> (u64, u64) {
    if v < 64 {
        return (v, v + 1);
    }
    let width = 1u64 << (63 - v.leading_zeros() - 6);
    let lo = v & !(width - 1);
    (lo, lo + width)
}

/// The `q`-quantile of `hist` in microseconds, placed inside its bucket by rank.
///
/// `LogHistogram::quantile_us` answers with a bucket midpoint, and buckets are 1.6 % wide:
/// `wan_rw`'s p50 falls in the bucket from 282.6 to 286.7 ms on every run, so it would
/// read exactly the same every time, and the benchmark contract refuses a time that does.
/// Bucket counts are private; nearest-rank queries find the first and last rank of the
/// answering bucket instead, and the quantile's rank is placed between the bucket's
/// bounds in proportion. [`bucket_of`] repeats the histogram's layout; a test checks it
/// against the histogram itself, so a change of layout fails there.
pub fn quantile_us(hist: &LogHistogram, q: f64) -> f64 {
    let count = hist.len();
    if count == 0 {
        return 0.0;
    }
    // `quantile_us(q)` answers rank `ceil(q * count)`; aim at the middle of a rank's
    // range of `q` so that rounding cannot move it to a neighbour.
    let at_rank = |rank: u64| hist.quantile_us((rank as f64 - 0.5) / count as f64);
    let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).clamp(1, count);
    let answer = at_rank(rank);
    // Smallest rank in `[from, to]` for which `pred` holds; `pred` is monotone and
    // holds at `to`.
    let first = |mut from: u64, mut to: u64, pred: &dyn Fn(u64) -> bool| {
        while from < to {
            let mid = from + (to - from) / 2;
            if pred(mid) {
                to = mid;
            } else {
                from = mid + 1;
            }
        }
        from
    };
    let first_rank = first(1, rank, &|r| at_rank(r) >= answer);
    let last_rank = if at_rank(count) == answer {
        count
    } else {
        first(rank, count, &|r| at_rank(r) > answer) - 1
    };
    let (lo, hi) = bucket_of(answer);
    let hi = hi.min(hist.max_us() + 1);
    let within = (rank - first_rank) as f64 + 0.5;
    let in_bucket = (last_rank - first_rank + 1) as f64;
    lo as f64 + (hi.saturating_sub(lo)) as f64 * within / in_bucket
}

/// [`quantile_us`] in milliseconds.
pub fn quantile_ms(hist: &LogHistogram, q: f64) -> f64 {
    quantile_us(hist, q) / 1000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregator_reports_median_min_max() {
        let odd = Agg::of(&[5.0, 1.0, 9.0]).expect("non-empty");
        assert_eq!((odd.median, odd.min, odd.max, odd.n), (5.0, 1.0, 9.0, 3));
        let even = Agg::of(&[4.0, 1.0, 2.0, 10.0]).expect("non-empty");
        assert_eq!(
            (even.median, even.min, even.max, even.n),
            (3.0, 1.0, 10.0, 4)
        );
        let one = Agg::of(&[7.5]).expect("non-empty");
        assert_eq!((one.median, one.min, one.max, one.n), (7.5, 7.5, 7.5, 1));
        assert_eq!(Agg::of(&[]), None);
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn buckets_match_the_histogram_layout() {
        assert_eq!(bucket_of(0), (0, 1));
        assert_eq!(bucket_of(63), (63, 64));
        assert_eq!(bucket_of(64), (64, 65));
        assert_eq!(bucket_of(128), (128, 130));
        assert_eq!(bucket_of(131), (130, 132));
        // 284_700 us sits in an octave starting at 2^18 with 4096 us wide buckets.
        let (lo, hi) = bucket_of(284_700);
        assert_eq!(hi - lo, 4_096);
        assert!(lo <= 284_700 && 284_700 < hi);
        // Against the histogram itself: it answers with the midpoint of the bucket of
        // its smaller sample, which must be the midpoint of `bucket_of` from the
        // bucket's first value to its last, and not beyond either.
        let midpoint_of = |v: u64| {
            let mut hist = LogHistogram::new();
            hist.record(v);
            hist.record(1 << 30);
            hist.quantile_us(0.5)
        };
        for v in [
            0, 63, 64, 127, 128, 129, 1_000, 2_345, 99_999, 284_700, 5_000_000,
        ] {
            let (lo, hi) = bucket_of(v);
            for inside in [lo, v, hi - 1] {
                assert_eq!(
                    midpoint_of(inside),
                    (lo + hi) / 2,
                    "{inside} in [{lo}, {hi})"
                );
            }
            assert_ne!(midpoint_of(hi), (lo + hi) / 2, "{hi} is past [{lo}, {hi})");
            if lo > 0 {
                assert_ne!(midpoint_of(lo - 1), (lo + hi) / 2, "{lo} - 1 is before");
            }
        }
    }

    #[test]
    fn interpolated_quantile_tracks_exact_samples() {
        // Uniform samples over [200 ms, 400 ms): the exact q-quantile is 200 + 200 q.
        let mut hist = LogHistogram::new();
        let n = 20_000u64;
        for i in 0..n {
            hist.record(200_000 + i * 200_000 / n);
        }
        for q in [0.5, 0.95, 0.99] {
            let exact = 200_000.0 + 200_000.0 * q;
            let got = quantile_us(&hist, q);
            assert!(
                (got - exact).abs() / exact < 0.001,
                "q={q}: got {got}, exact {exact}"
            );
            // The bucketed answer is only good to a bucket width.
            let bucketed = hist.quantile_us(q) as f64;
            assert!((bucketed - exact).abs() <= 4_096.0);
        }
    }

    #[test]
    fn interpolated_quantile_moves_with_the_ranks_inside_one_bucket() {
        // `below` samples in the bucket under the median's, the rest inside it.
        let build = |below: u64| {
            let mut hist = LogHistogram::new();
            for i in 0..1_000u64 {
                hist.record(if i < below { 280_000 } else { 284_000 });
            }
            hist
        };
        let (a, b) = (build(450), build(350));
        assert_eq!(a.quantile_us(0.5), b.quantile_us(0.5), "same bucket");
        assert!(quantile_us(&b, 0.5) > quantile_us(&a, 0.5));
    }

    #[test]
    fn interpolated_quantile_handles_degenerate_histograms() {
        assert_eq!(quantile_us(&LogHistogram::new(), 0.5), 0.0);
        let mut one = LogHistogram::new();
        one.record(1_000);
        let v = quantile_us(&one, 0.5);
        assert!((992.0..=1_001.0).contains(&v), "got {v}");
        let mut exact = LogHistogram::new();
        for v in [10, 20, 30] {
            exact.record(v);
        }
        let v = quantile_us(&exact, 0.5);
        assert!((20.0..21.0).contains(&v), "got {v}");
    }
}
