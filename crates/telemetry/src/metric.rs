//! Typed metric primitives: [`Counter`], [`Gauge`], and fixed-bucket
//! [`Histogram`].
//!
//! These are plain value types owned by the [`crate::MetricsRegistry`].
//! The histogram uses a fixed inline bucket array so the observe path
//! never allocates.

/// Discriminator for registry slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing integer (registered from `*Stats` fields).
    Counter,
    /// Point-in-time floating value (rates, occupancies, averages).
    Gauge,
    /// Fixed-bucket distribution of integer samples.
    Histogram,
    /// Log-bucketed distribution with bounded-error quantiles
    /// ([`crate::QuantileHistogram`]).
    Quantile,
}

/// A monotonically increasing integer metric.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter {
    total: u64,
}

impl Counter {
    /// A counter at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Add `by` to the running total.
    #[inline]
    pub fn add(&mut self, by: u64) {
        self.total = self.total.wrapping_add(by);
    }

    /// Overwrite the total (used when mirroring a cumulative `*Stats`
    /// field into the registry).
    #[inline]
    pub fn set(&mut self, total: u64) {
        self.total = total;
    }

    /// Current total.
    #[inline]
    pub fn get(&self) -> u64 {
        self.total
    }
}

/// A point-in-time floating-point metric.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Gauge {
    value: f64,
}

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Overwrite the value.
    #[inline]
    pub fn set(&mut self, value: f64) {
        self.value = value;
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> f64 {
        self.value
    }
}

/// Maximum number of finite bucket bounds a [`Histogram`] supports.
pub const MAX_BUCKETS: usize = 16;

/// Inclusive upper bounds for load-latency distributions (cycles).
pub const LATENCY_BUCKETS: &[u64] = &[
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 16384, 65536,
];

/// Inclusive upper bounds for retirement-gap distributions (cycles
/// between consecutive retires; large gaps flag stalls / watchdog risk).
pub const GAP_BUCKETS: &[u64] = &[0, 1, 2, 4, 8, 16, 32, 64, 256, 1024, 8192, 65536];

/// A fixed-bucket histogram of `u64` samples.
///
/// Bounds are inclusive upper edges in ascending order; one extra
/// overflow bucket catches samples above the last bound. The sample path
/// is a short linear scan over at most [`MAX_BUCKETS`] bounds and never
/// allocates.
#[derive(Debug, Clone, Copy)]
pub struct Histogram {
    bounds: &'static [u64],
    counts: [u64; MAX_BUCKETS + 1],
    count: u64,
    sum: u64,
    max: u64,
}

impl Histogram {
    /// A histogram over `bounds` (ascending inclusive upper edges, at
    /// most [`MAX_BUCKETS`] entries; excess bounds are ignored).
    pub fn new(bounds: &'static [u64]) -> Histogram {
        let bounds = if bounds.len() > MAX_BUCKETS {
            &bounds[..MAX_BUCKETS]
        } else {
            bounds
        };
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        Histogram {
            bounds,
            counts: [0; MAX_BUCKETS + 1],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Record one sample.
    #[inline]
    pub fn observe(&mut self, v: u64) {
        let mut i = 0;
        while i < self.bounds.len() && v > self.bounds[i] {
            i += 1;
        }
        self.counts[i] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (wrapping).
    pub fn sum(&self) -> u64 {
        self.sum
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

    /// The configured bucket bounds.
    pub fn bounds(&self) -> &'static [u64] {
        self.bounds
    }

    /// Count in bucket `i` (`i == bounds().len()` is the overflow
    /// bucket); zero out of range.
    pub fn bucket(&self, i: usize) -> u64 {
        self.counts.get(i).copied().unwrap_or(0)
    }

    /// Upper bound of the bucket containing the `q`-quantile
    /// (`0.0..=1.0`); `u64::MAX` when it lands in the overflow bucket,
    /// 0 before any samples.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let rank = rank.max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate().take(self.bounds.len() + 1) {
            seen += c;
            if seen >= rank {
                return if i < self.bounds.len() {
                    self.bounds[i]
                } else {
                    u64::MAX
                };
            }
        }
        u64::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::new();
        c.add(3);
        c.add(4);
        assert_eq!(c.get(), 7);
        c.set(100);
        assert_eq!(c.get(), 100);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Histogram::new(&[1, 2, 4, 8]);
        for v in [0, 1, 1, 2, 3, 5, 9, 100] {
            h.observe(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.max(), 100);
        assert_eq!(h.bucket(0), 3); // 0, 1, 1
        assert_eq!(h.bucket(1), 1); // 2
        assert_eq!(h.bucket(2), 1); // 3
        assert_eq!(h.bucket(3), 1); // 5
        assert_eq!(h.bucket(4), 2); // 9, 100 overflow
        assert_eq!(h.quantile(0.5), 2);
        assert_eq!(h.quantile(1.0), u64::MAX);
        assert!((h.mean() - 121.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_of_empty_is_zero() {
        let h = Histogram::new(LATENCY_BUCKETS);
        assert_eq!(h.quantile(0.99), 0);
    }
}
