//! Bounded-memory latency histograms with quantile queries.
//!
//! Service metrics need per-query end-to-end latencies aggregated over
//! millions of queries without storing them. [`LatencyHistogram`] uses
//! HDR-style log-linear bucketing: each power-of-two range is split into
//! 32 linear sub-buckets, so any recorded value lands in a bucket whose
//! width is at most 1/32 of its magnitude (≤ ~3.2% relative quantile
//! error), with exact counts below 64 ns. Memory is a fixed ~15 KiB per
//! histogram regardless of sample count.

/// Sub-bucket resolution: 32 linear buckets per power of two.
const SUB_BITS: u32 = 5;
const SUB: usize = 1 << SUB_BITS;
/// Exponents 6..=63 each contribute `SUB` buckets above the 64 exact ones.
const BUCKETS: usize = 64 + (63 - 6 + 1) * SUB;

/// A log-linear histogram of nanosecond latencies.
///
/// Recording is O(1); [`quantile`](Self::quantile) walks the bucket array
/// (fixed size) and returns the midpoint of the bucket holding the
/// requested rank, clamped to the observed min/max.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    pub fn new() -> Self {
        LatencyHistogram {
            counts: vec![0; BUCKETS],
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn index(v: u64) -> usize {
        if v < 64 {
            v as usize
        } else {
            let exp = 63 - u64::from(v.leading_zeros()); // >= 6
            let mantissa = (v >> (exp - u64::from(SUB_BITS))) as usize; // in [32, 64)
            (exp as usize - SUB_BITS as usize) * SUB + mantissa
        }
    }

    /// Midpoint of bucket `idx` (its exact value below 64).
    fn bucket_value(idx: usize) -> u64 {
        if idx < 64 {
            idx as u64
        } else {
            // index = (exp - 5) * SUB + mantissa with mantissa in [32, 64),
            // so idx lands in [(exp - 4) * SUB, (exp - 3) * SUB).
            let exp = (idx / SUB + SUB_BITS as usize - 1) as u64;
            let mantissa = (idx - (exp as usize - SUB_BITS as usize) * SUB) as u64;
            let low = mantissa << (exp - u64::from(SUB_BITS));
            let width = 1u64 << (exp - u64::from(SUB_BITS));
            low + width / 2
        }
    }

    /// Record one latency observation.
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::index(ns)] += 1;
        self.total += 1;
        self.sum += u128::from(ns);
        self.min = self.min.min(ns);
        self.max = self.max.max(ns);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Exact sum of all recorded values in nanoseconds.
    pub fn sum_ns(&self) -> u128 {
        self.sum
    }

    /// Cumulative count of observations whose bucket value is `<= bound`
    /// nanoseconds (monotone in `bound`; used for Prometheus histogram
    /// exposition). Buckets are attributed by their midpoint, so the cut
    /// carries the same ≤ ~3.2% relative error as quantiles.
    pub fn cumulative_le(&self, bound_ns: u64) -> u64 {
        let mut seen = 0;
        for (idx, &c) in self.counts.iter().enumerate() {
            if Self::bucket_value(idx) > bound_ns {
                break;
            }
            seen += c;
        }
        seen
    }

    /// Arithmetic mean of the recorded values (exact, not bucketed).
    pub fn mean_ns(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    pub fn min_ns(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    pub fn max_ns(&self) -> u64 {
        self.max
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) in nanoseconds: the bucket
    /// midpoint at rank `ceil(q * count)`, clamped to `[min, max]`.
    /// Returns 0 on an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_value(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median latency.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th percentile latency.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile latency.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

/// Format nanoseconds with an auto-selected unit (for reports). The unit
/// is picked after rounding: a value that would print as `1000.0us` or
/// `1000.00ms` moves up to `1.00ms` or `1.00s`.
pub fn fmt_ns(ns: u64) -> String {
    let v = ns as f64;
    if v >= 999.995e6 {
        format!("{:.2}s", v / 1e9)
    } else if v >= 999.95e3 {
        format!("{:.2}ms", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.1}us", v / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_is_monotone_and_in_bounds() {
        let mut values: Vec<u64> = (0..63)
            .flat_map(|shift| [0u64, 1, 3].map(|off| (1u64 << shift).saturating_add(off)))
            .collect();
        values.sort_unstable();
        let mut last = 0usize;
        for v in values {
            let idx = LatencyHistogram::index(v);
            assert!(idx < BUCKETS, "index {idx} out of bounds for {v}");
            assert!(idx >= last, "index not monotone at {v}");
            last = idx;
        }
        assert!(LatencyHistogram::index(u64::MAX) < BUCKETS);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for v in [0u64, 1, 5, 63] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), 63);
        assert_eq!(h.count(), 4);
        assert_eq!(h.min_ns(), 0);
        assert_eq!(h.max_ns(), 63);
    }

    #[test]
    fn quantiles_within_relative_error() {
        // 1..=100_000 uniformly: the q-quantile is q * 100_000.
        let mut h = LatencyHistogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for q in [0.50, 0.95, 0.99] {
            let exact = q * 100_000.0;
            let got = h.quantile(q) as f64;
            let err = (got - exact).abs() / exact;
            assert!(err < 0.04, "q={q}: got {got}, exact {exact}, err {err}");
        }
        let mean_err = (h.mean_ns() - 50_000.5).abs();
        assert!(mean_err < 1.0, "mean off by {mean_err}");
    }

    #[test]
    fn empty_histogram_is_safe() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean_ns(), 0.0);
        assert_eq!(h.min_ns(), 0);
    }

    #[test]
    fn bimodal_distribution_quantiles() {
        // 90% fast mode around 10us, 10% slow mode around 50ms: p50 must
        // sit in the fast mode, p99 in the slow one, both within the
        // log-linear error bound.
        let mut h = LatencyHistogram::new();
        for i in 0..9_000u64 {
            h.record(10_000 + i % 100);
        }
        for i in 0..1_000u64 {
            h.record(50_000_000 + i * 1_000);
        }
        let p50 = h.quantile(0.50) as f64;
        assert!(
            (p50 - 10_050.0).abs() / 10_050.0 < 0.032,
            "p50 {p50} outside fast mode"
        );
        let p99 = h.quantile(0.99) as f64;
        let exact_p99 = 50_899_000.0; // rank 9900 = slow sample #900
        assert!(
            (p99 - exact_p99).abs() / exact_p99 < 0.032,
            "p99 {p99} vs {exact_p99}"
        );
    }

    #[test]
    fn heavy_tail_distribution_quantiles() {
        // Pareto-ish tail: latency = 1000 * 2^(k) for k drawn with
        // geometric weights. Quantiles must stay within the bucket-width
        // bound even across 6 orders of magnitude.
        let mut h = LatencyHistogram::new();
        let mut exact: Vec<u64> = Vec::new();
        for i in 0..20_000u64 {
            let k = (i % 16) / 2; // 0..8, heavier at the low end
            let v = 1_000u64 << k;
            h.record(v);
            exact.push(v);
        }
        exact.sort_unstable();
        for q in [0.5, 0.9, 0.99] {
            let rank = ((q * exact.len() as f64).ceil() as usize).clamp(1, exact.len());
            let want = exact[rank - 1] as f64;
            let got = h.quantile(q) as f64;
            assert!(
                (got - want).abs() / want < 0.032,
                "q={q}: got {got}, want {want}"
            );
        }
    }

    #[test]
    fn single_sample_edges() {
        let mut h = LatencyHistogram::new();
        h.record(123_456);
        assert_eq!(h.count(), 1);
        // Every quantile of a single observation is that observation,
        // within bucket error — and clamped to [min, max] = exact.
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(h.quantile(q), 123_456);
        }
        assert_eq!(h.min_ns(), 123_456);
        assert_eq!(h.max_ns(), 123_456);
        assert_eq!(h.sum_ns(), 123_456);
    }

    #[test]
    fn cumulative_le_is_monotone_and_complete() {
        let mut h = LatencyHistogram::new();
        for v in [10u64, 100, 1_000, 10_000, 100_000] {
            h.record(v);
        }
        let mut last = 0;
        for bound in [0u64, 50, 500, 5_000, 50_000, u64::MAX] {
            let c = h.cumulative_le(bound);
            assert!(c >= last, "cumulative count decreased at {bound}");
            last = c;
        }
        assert_eq!(h.cumulative_le(u64::MAX), h.count());
    }

    #[test]
    fn fmt_ns_units() {
        assert_eq!(fmt_ns(12), "12ns");
        assert_eq!(fmt_ns(4_500), "4.5us");
        assert_eq!(fmt_ns(2_500_000), "2.50ms");
        assert_eq!(fmt_ns(1_500_000_000), "1.50s");
        assert_eq!(fmt_ns(999_949), "999.9us");
        assert_eq!(fmt_ns(999_999), "1.00ms");
        assert_eq!(fmt_ns(999_994_999), "999.99ms");
        assert_eq!(fmt_ns(999_999_999), "1.00s");
    }
}
