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
///   declaration order too.
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
}
