//! The [`counters!`](crate::counters) declaration: one field list per
//! `*Stats` struct drives the struct, its [`Observable`](crate::Observable)
//! visit and its checkpoint layout, so the three cannot drift apart.

/// Declare a statistics struct whose fields are all counters.
///
/// ```ignore
/// exynos_telemetry::counters! {
///     /// Cumulative simulation counters.
///     #[derive(Debug, Clone, Copy, Default)]
///     pub struct SimStats in "core.sim" [tags::SIM_STATS] {
///         /// Instructions retired.
///         pub instructions: u64,
///         /// Cycle of the last retirement.
///         pub last_retire: u64,
///     } derived(ipc)
/// }
/// ```
///
/// A `gauges(..)` clause after the field list (and after `derived(..)`,
/// when both are given) names the fields that hold a level rather than a
/// count, such as a running maximum.
///
/// expands to:
///
/// - the struct, with its attributes and field docs as written;
/// - an [`Observable`](crate::Observable) impl whose component is the
///   `in` path and whose visit reports every field in declaration order,
///   then each `derived(..)` method's result, each through
///   [`Value::from`](crate::Value) (a `u64` is a counter, an `f64` a
///   gauge);
/// - `exynos_snapshot::layout!` over the same fields, wrapped in a section
///   under `[tag]` when one is given, so the image carries the fields in
///   declaration order too;
/// - `pub fn delta(&self, earlier: &Self) -> Self`, the counts between two
///   readings of the struct: every field is `self - earlier` except the
///   gauges, which keep `self`'s value. The subtraction is plain `-`, so a
///   counter that runs backwards panics under overflow checks.
///
/// The calling crate must depend on `exynos-snapshot`.
#[macro_export]
macro_rules! counters {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident in $component:literal $([$tag:expr])? {
            $( $(#[$fmeta:meta])* $fvis:vis $field:ident : $fty:ty ),* $(,)?
        }
        $(derived($($derived:ident),* $(,)?))?
        $(gauges($($gauge:ident),* $(,)?))?
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $( $(#[$fmeta])* $fvis $field: $fty, )*
        }

        impl $crate::Observable for $name {
            fn component(&self) -> &'static str {
                $component
            }

            fn visit(&self, f: &mut dyn FnMut(&'static str, $crate::Value)) {
                $( f(::core::stringify!($field), $crate::Value::from(self.$field)); )*
                $($( f(::core::stringify!($derived), $crate::Value::from(self.$derived())); )*)?
            }
        }

        impl $name {
            /// The counts accumulated between `earlier` and `self`; gauges
            /// keep `self`'s value.
            pub fn delta(&self, earlier: &Self) -> Self {
                // A gauge's base is zero, so the subtraction keeps it.
                #[allow(unused_mut)]
                let mut base = Self { $($field: earlier.$field),* };
                $($( base.$gauge = 0; )*)?
                Self { $($field: self.$field - base.$field),* }
            }
        }

        ::exynos_snapshot::layout! { $name $([$tag])? { $($field),* } }
    };
}

#[cfg(test)]
mod tests {
    use crate::{Observable, Value};
    use exynos_snapshot::{Encoder, Snapshot};

    const TAG: u16 = 0x7E57;

    crate::counters! {
        /// Plain counters with one derived value.
        #[derive(Debug, Default)]
        pub struct Plain in "test.plain" {
            /// First.
            pub hits: u64,
            /// Second.
            pub misses: u64,
        } derived(ratio)
    }

    impl Plain {
        fn ratio(&self) -> f64 {
            self.hits as f64 / (self.hits + self.misses) as f64
        }
    }

    crate::counters! {
        /// Counters saved in their own section.
        #[derive(Debug, Default)]
        pub struct Tagged in "test.tagged" [TAG] {
            /// Only.
            pub events: u64,
        }
    }

    crate::counters! {
        /// A count next to a running maximum.
        #[derive(Debug, Default, PartialEq, Eq)]
        pub struct Levels in "test.levels" {
            /// Count.
            pub allocations: u64,
            /// Running maximum.
            pub peak: u64,
        } gauges(peak)
    }

    fn visited(obs: &dyn Observable) -> Vec<(&'static str, Value)> {
        let mut v = Vec::new();
        obs.visit(&mut |name, value| v.push((name, value)));
        v
    }

    fn saved(s: &dyn Fn(&mut Encoder)) -> Vec<u8> {
        let mut enc = Encoder::new();
        s(&mut enc);
        enc.finish()
    }

    #[test]
    fn one_list_drives_visit_and_layout() {
        let p = Plain { hits: 3, misses: 1 };
        assert_eq!(p.component(), "test.plain");
        assert_eq!(
            visited(&p),
            vec![
                ("hits", Value::U64(3)),
                ("misses", Value::U64(1)),
                ("ratio", Value::F64(0.75)),
            ],
            "fields in declaration order, derived values last"
        );
        assert_eq!(
            saved(&|enc| p.save(enc)),
            saved(&|enc| {
                enc.u64(3);
                enc.u64(1);
            }),
            "fields saved in declaration order, no section without a tag"
        );

        let t = Tagged { events: 9 };
        assert_eq!(visited(&t), vec![("events", Value::U64(9))]);
        assert_eq!(
            saved(&|enc| t.save(enc)),
            saved(&|enc| {
                enc.begin_section(TAG);
                enc.u64(9);
                enc.end_section();
            }),
            "a tag wraps the fields in its section"
        );
    }

    #[test]
    fn delta_subtracts_counters_and_keeps_gauges() {
        let (early, late) = (Plain { hits: 3, misses: 1 }, Plain { hits: 10, misses: 4 });
        let d = late.delta(&early);
        assert_eq!((d.hits, d.misses), (7, 3));
        assert_eq!(Tagged { events: 9 }.delta(&Tagged { events: 4 }).events, 5);
        let (early, late) = (Levels { allocations: 2, peak: 5 }, Levels { allocations: 9, peak: 7 });
        assert_eq!(late.delta(&early), Levels { allocations: 7, peak: 7 }, "a gauge keeps the later value");
        assert_eq!(late.delta(&late), Levels { allocations: 0, peak: 7 });
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic]
    fn delta_of_a_counter_that_ran_backwards_panics() {
        let _ = Plain { hits: 1, misses: 0 }.delta(&Plain { hits: 2, misses: 0 });
    }
}
