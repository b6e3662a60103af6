//! Log-bucketed [`QuantileHistogram`]: the registry's one distribution
//! kind, used for microarchitectural distributions (retire gaps, load
//! latencies) and wall-clock job latencies alike.
//!
//! Each power-of-two octave is split into [`QUANTILE_SUB_BUCKETS`]
//! equal-width sub-buckets, bounding the relative quantile error at
//! `1 / QUANTILE_SUB_BUCKETS` (12.5%) at any scale, with values below
//! the sub-bucket count recorded exactly. No bounds are chosen up front,
//! so one layout serves samples of a few cycles and of many seconds.
//!
//! Every instance shares one fixed bucket layout, so two histograms are
//! always mergeable by element-wise addition — per-stage summaries can
//! be rolled up across workers or scrape intervals without re-bucketing.
//!
//! Like the primitives in [`crate::metric`], this is a plain value type
//! owned by the [`crate::MetricsRegistry`].

use crate::json;

/// Number of sub-buckets per power-of-two octave (`2^QUANTILE_SUB_BITS`).
pub const QUANTILE_SUB_BITS: u32 = 3;

/// Sub-buckets per octave; also the denominator of the relative error
/// bound (a reported quantile is at most `1/8` above the true value).
pub const QUANTILE_SUB_BUCKETS: u64 = 1 << QUANTILE_SUB_BITS;

/// Total bucket count: exact buckets `0..QUANTILE_SUB_BUCKETS`, then 8
/// sub-buckets for each of the 61 remaining octaves of the `u64` range.
pub const QUANTILE_BUCKETS: usize =
    QUANTILE_SUB_BUCKETS as usize * (64 - QUANTILE_SUB_BITS as usize + 1);

/// A mergeable log-bucketed histogram with bounded relative error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantileHistogram {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for QuantileHistogram {
    fn default() -> QuantileHistogram {
        QuantileHistogram::new()
    }
}

/// Bucket index for value `v`: exact below [`QUANTILE_SUB_BUCKETS`],
/// otherwise octave-major log-linear.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < QUANTILE_SUB_BUCKETS {
        return v as usize;
    }
    let e = 63 - v.leading_zeros();
    let sub = (v >> (e - QUANTILE_SUB_BITS)) - QUANTILE_SUB_BUCKETS;
    ((e - QUANTILE_SUB_BITS) as u64 * QUANTILE_SUB_BUCKETS + QUANTILE_SUB_BUCKETS + sub) as usize
}

/// Inclusive upper bound of bucket `i` (the inverse of [`bucket_index`]).
#[inline]
fn bucket_bound(i: usize) -> u64 {
    let i = i as u64;
    if i < QUANTILE_SUB_BUCKETS {
        return i;
    }
    let octave = (i - QUANTILE_SUB_BUCKETS) >> QUANTILE_SUB_BITS;
    let sub = (i - QUANTILE_SUB_BUCKETS) & (QUANTILE_SUB_BUCKETS - 1);
    ((QUANTILE_SUB_BUCKETS + sub + 1) << octave).wrapping_sub(1)
}

impl QuantileHistogram {
    /// An empty histogram.
    pub fn new() -> QuantileHistogram {
        QuantileHistogram {
            counts: vec![0; QUANTILE_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one sample.
    #[inline]
    pub fn observe(&mut self, v: u64) {
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Fold `other` into `self` (element-wise; always layout-compatible).
    pub fn merge(&mut self, other: &QuantileHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (wrapping).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample seen (0 before any samples).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample seen.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample, or 0.0 before any samples.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing the `q`-quantile
    /// (`0.0..=1.0`): at least the true quantile value and at most
    /// `1/QUANTILE_SUB_BUCKETS` above it. 0 before any samples.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let rank = rank.max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_bound(i);
            }
        }
        self.max
    }

    /// Inclusive upper bound of the bucket value `v` falls in (exposes
    /// the bucketing for accuracy tests).
    pub fn bound_for(v: u64) -> u64 {
        bucket_bound(bucket_index(v))
    }

    /// Append `{"count":..,"sum":..,"min":..,"max":..,"mean":..,
    /// "p50":..,"p90":..,"p99":..}` — quantiles clamped to the observed
    /// max so a single-sample summary reads exactly.
    pub fn push_summary_json(&self, out: &mut String) {
        out.push('{');
        self.push_summary_fields(out, true);
        out.push('}');
    }

    /// The fields of [`Self::push_summary_json`] without the braces,
    /// each preceded by a comma unless `first`.
    pub(crate) fn push_summary_fields(&self, out: &mut String, first: bool) {
        json::push_key(out, first, "count");
        json::push_u64(out, self.count);
        json::push_key(out, false, "sum");
        json::push_u64(out, self.sum);
        json::push_key(out, false, "min");
        json::push_u64(out, self.min());
        json::push_key(out, false, "max");
        json::push_u64(out, self.max);
        json::push_key(out, false, "mean");
        json::push_f64(out, self.mean());
        json::push_key(out, false, "p50");
        json::push_u64(out, self.quantile(0.5).min(self.max));
        json::push_key(out, false, "p90");
        json::push_u64(out, self.quantile(0.9).min(self.max));
        json::push_key(out, false, "p99");
        json::push_u64(out, self.quantile(0.99).min(self.max));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        for v in 0..QUANTILE_SUB_BUCKETS {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_bound(v as usize), v);
        }
    }

    #[test]
    fn bounds_invert_indexes() {
        for i in 0..QUANTILE_BUCKETS {
            let b = bucket_bound(i);
            if b > 0 {
                assert_eq!(bucket_index(b), i, "bound {b} of bucket {i}");
            }
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        for v in [8u64, 9, 15, 16, 17, 100, 1000, 123_456, u32::MAX as u64] {
            let b = QuantileHistogram::bound_for(v);
            assert!(b >= v);
            assert!(b - v <= v / QUANTILE_SUB_BUCKETS, "bound {b} for {v}");
        }
    }

    #[test]
    fn quantiles_track_distribution() {
        let mut h = QuantileHistogram::new();
        for v in 1..=1000u64 {
            h.observe(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 1000);
        let p50 = h.quantile(0.5);
        assert!((500..=563).contains(&p50), "p50 {p50}");
        let p99 = h.quantile(0.99);
        assert!((990..=1114).contains(&p99), "p99 {p99}");
    }

    #[test]
    fn merge_is_elementwise() {
        let mut a = QuantileHistogram::new();
        let mut b = QuantileHistogram::new();
        let mut all = QuantileHistogram::new();
        for v in [1u64, 50, 700] {
            a.observe(v);
            all.observe(v);
        }
        for v in [3u64, 9000] {
            b.observe(v);
            all.observe(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }
}
