//! # exynos-prefetch — the Exynos prefetching engines (§VII–§VIII)
//!
//! * [`reorder`] — the program-order address re-order buffer + duplicate
//!   filter feeding the L1 training unit (§VII.A);
//! * [`stride`] — the multi-stride pattern engine with queue (M1) or
//!   integrated (M3+) confirmation (§VII.A/D);
//! * [`degree`] — the adaptive dynamic-degree controller (§VII.B);
//! * [`twopass`] — the one-pass/two-pass L1 delivery scheme (§VII.B,
//!   Fig. 14);
//! * [`sms`] — the Spatial Memory Streaming engine (M3+, §VII.C);
//! * [`l1engine`] — the composed L1 prefetcher with stride-over-SMS
//!   arbitration;
//! * [`buddy`] — the sectored-L2 Buddy prefetcher with skip filter (M4+,
//!   §VIII.B);
//! * [`standalone`] — the M5 standalone L2/L3 stream prefetcher with the
//!   two-level adaptive (phantom / aggressive) scheme (§VIII.C–D,
//!   Fig. 15).

#![warn(missing_docs)]

pub mod buddy;
pub mod degree;
pub mod l1engine;
pub mod reorder;
pub mod sms;
pub mod standalone;
pub mod stride;
pub mod twopass;

pub use buddy::BuddyPrefetcher;
pub use degree::DegreeController;
pub use l1engine::{L1Prefetcher, L1PrefetcherConfig, L1PrefetchRequest};
pub use sms::{SmsConfig, SmsEngine};
pub use standalone::{ConfMode, StandalonePrefetcher, StandaloneConfig};
pub use stride::{ConfirmScheme, MultiStrideEngine, StrideConfig};
pub use twopass::{PassMode, TwoPassController};
