//! Scalar metric primitives: [`Counter`] and [`Gauge`].
//!
//! These are plain value types owned by the [`crate::MetricsRegistry`];
//! its one distribution kind is [`crate::QuantileHistogram`].

/// Discriminator for registry slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing integer (registered from `*Stats` fields).
    Counter,
    /// Point-in-time floating value (rates, occupancies, averages).
    Gauge,
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
}
