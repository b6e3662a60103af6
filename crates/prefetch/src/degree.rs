//! Adaptive dynamic prefetch degree (§VII.B, patent \[30\]).
//!
//! "Prefetches are grouped into windows, with the window size equal to the
//! current degree. A newly created stream starts with a low degree. After
//! some number of confirmations within the window, the degree will be
//! increased. If there are too few confirmations in the window, the degree
//! is decreased."

/// Controller for one stream's prefetch degree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegreeController {
    degree: u32,
    min: u32,
    max: u32,
    /// Prefetches issued in the current window.
    issued_in_window: u32,
    /// Confirmations observed in the current window.
    confirms_in_window: u32,
}

impl DegreeController {
    /// A controller starting at `start`, bounded by [`min`, `max`].
    ///
    /// # Panics
    /// Panics unless `min <= start <= max` and `min >= 1`.
    pub fn new(start: u32, min: u32, max: u32) -> DegreeController {
        assert!(min >= 1 && min <= start && start <= max);
        DegreeController {
            degree: start,
            min,
            max,
            issued_in_window: 0,
            confirms_in_window: 0,
        }
    }

    /// The paper-ish default: start at 2, grow to cover DRAM latency
    /// ("the required degree can be very large (over 50)").
    pub fn standard() -> DegreeController {
        DegreeController::new(2, 1, 64)
    }

    /// Current degree (also the window size).
    pub fn degree(&self) -> u32 {
        self.degree
    }

    /// Record an issued prefetch; closes the window when full.
    pub fn on_issue(&mut self) {
        self.issued_in_window += 1;
        if self.issued_in_window >= self.degree {
            self.close_window();
        }
    }

    /// Record a demand confirmation of a predicted address.
    pub fn on_confirm(&mut self) {
        self.confirms_in_window += 1;
    }

    fn close_window(&mut self) {
        let window = self.degree;
        let confirms = self.confirms_in_window;
        if confirms * 4 >= window * 3 {
            self.degree = (self.degree * 2).min(self.max);
        } else if confirms * 4 < window {
            self.degree = (self.degree / 2).max(self.min);
        }
        self.issued_in_window = 0;
        self.confirms_in_window = 0;
    }
}

impl Default for DegreeController {
    fn default() -> Self {
        Self::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn confirmed_windows_grow_degree() {
        let mut d = DegreeController::standard();
        for _ in 0..6 {
            // Fully confirmed windows.
            for _ in 0..d.degree() {
                d.on_confirm();
                d.on_issue();
            }
        }
        assert!(d.degree() >= 32, "degree must ramp up, got {}", d.degree());
    }

    #[test]
    fn unconfirmed_windows_shrink_degree() {
        let mut d = DegreeController::new(32, 1, 64);
        for _ in 0..8 {
            for _ in 0..d.degree() {
                d.on_issue(); // no confirms
            }
        }
        assert_eq!(d.degree(), 1);
    }

    #[test]
    fn degree_respects_bounds() {
        let mut d = DegreeController::new(4, 2, 8);
        for _ in 0..10 {
            for _ in 0..d.degree() {
                d.on_confirm();
                d.on_issue();
            }
        }
        assert_eq!(d.degree(), 8);
    }

    #[test]
    fn middling_confirmation_holds_degree() {
        let mut d = DegreeController::new(8, 1, 64);
        // Half-confirmed window: between the two thresholds.
        for i in 0..8 {
            if i % 2 == 0 {
                d.on_confirm();
            }
            d.on_issue();
        }
        assert_eq!(d.degree(), 8);
    }
}

mod snapshot_impl {
    use super::*;
    use exynos_snapshot::{layout, tags, SnapshotError};

    layout! {
        DegreeController [tags::DEGREE] {
            degree, min, max, issued_in_window, confirms_in_window,
        } then check_bounds
    }

    impl DegreeController {
        fn check_bounds(&mut self) -> Result<(), SnapshotError> {
            if self.min < 1 || self.min > self.degree || self.degree > self.max {
                return Err(SnapshotError::Corrupt { what: "degree controller bounds" });
            }
            Ok(())
        }
    }
}
