//! Declared layouts: the wire shape of every leaf and container type, and
//! the [`layout!`](crate::layout) macro that turns one ordered field list
//! into a component's `save` and `restore`.
//!
//! Each container shape carries its own restore check, so a component
//! states a check once, next to the field it guards:
//!
//! | shape | wire form | restore rejects |
//! |---|---|---|
//! | `u8`…`u64`, `i8`/`i32`/`i64`, `bool`, `usize` | little-endian | bool byte not 0/1 |
//! | `[T; N]` | N elements, no prefix | — |
//! | `Option<T>` | `u8` flag + payload | flag not 0/1 |
//! | `Vec<T>` / `VecDeque<T>` | `u32` count + elements | — |
//! | [`Fixed`] `Vec<T>` | `u32` count + elements | count ≠ live length |
//! | [`Fixed`] [`LazySets<T>`](crate::LazySets) | as a dense `Vec` of every set | count ≠ sets × ways |
//! | [`Bounded`] `Vec<T>` / `VecDeque<T>` | `u32` count + elements | count > cap |
//! | [`Present`] `Option<T>` | `u8` flag + payload | flag not 0/1, ≠ live presence |
//! | [`Via`] codec | the codec's wire code | unknown code |
//!
//! A bad flag, bool or code is `Corrupt`; a count or presence that does
//! not fit the live instance is `Geometry`.
//!
//! Every count is read through [`Decoder::seq`] with the element's
//! [`Snapshot::min_len`], so an absurd count fails as `Truncated` before
//! anything is allocated.

use std::collections::VecDeque;

use crate::{Decoder, Encoder, Snapshot, SnapshotError};

// Inlined: every field of every image goes through one of these, and a
// component's generated code lives in another crate.
macro_rules! leaf {
    ($($t:ty => $m:ident, $len:expr;)*) => {$(
        impl Snapshot for $t {
            #[inline]
            fn save(&self, enc: &mut Encoder) {
                enc.$m(*self);
            }

            #[inline]
            fn restore(&mut self, dec: &mut Decoder<'_>) -> Result<(), SnapshotError> {
                *self = dec.$m()?;
                Ok(())
            }

            fn min_len() -> usize {
                $len
            }
        }
    )*};
}

leaf! {
    u8 => u8, 1;
    u16 => u16, 2;
    u32 => u32, 4;
    u64 => u64, 8;
    i8 => i8, 1;
    i32 => i32, 4;
    i64 => i64, 8;
    bool => bool, 1;
    usize => usize, 8;
}

impl<T: Snapshot, const N: usize> Snapshot for [T; N] {
    fn save(&self, enc: &mut Encoder) {
        for x in self {
            x.save(enc);
        }
    }

    fn restore(&mut self, dec: &mut Decoder<'_>) -> Result<(), SnapshotError> {
        for x in self {
            x.restore(dec)?;
        }
        Ok(())
    }

    fn min_len() -> usize {
        N * T::min_len()
    }
}

macro_rules! tuple {
    ($($t:ident . $i:tt),*) => {
        impl<$($t: Snapshot),*> Snapshot for ($($t,)*) {
            fn save(&self, enc: &mut Encoder) {
                $( self.$i.save(enc); )*
            }

            fn restore(&mut self, dec: &mut Decoder<'_>) -> Result<(), SnapshotError> {
                $( self.$i.restore(dec)?; )*
                Ok(())
            }

            fn min_len() -> usize {
                0 $( + $t::min_len() )*
            }
        }
    };
}

tuple!(A.0, B.1);
tuple!(A.0, B.1, C.2);

fn save_option<T: Snapshot>(v: &Option<T>, enc: &mut Encoder) {
    match v {
        Some(x) => {
            enc.u8(1);
            x.save(enc);
        }
        None => enc.u8(0),
    }
}

fn save_seq<'a, T: Snapshot + 'a>(items: impl ExactSizeIterator<Item = &'a T>, enc: &mut Encoder) {
    enc.seq(items.len());
    for x in items {
        x.save(enc);
    }
}

fn read_flag(dec: &mut Decoder<'_>, what: &'static str) -> Result<bool, SnapshotError> {
    match dec.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(SnapshotError::Corrupt { what }),
    }
}

/// A present value is decoded into a fresh `T::default()`, so nothing
/// of the value it replaces survives.
impl<T: Snapshot + Default> Snapshot for Option<T> {
    fn save(&self, enc: &mut Encoder) {
        save_option(self, enc);
    }

    fn restore(&mut self, dec: &mut Decoder<'_>) -> Result<(), SnapshotError> {
        *self = if read_flag(dec, "option flag not 0 or 1")? {
            let mut x = T::default();
            x.restore(dec)?;
            Some(x)
        } else {
            None
        };
        Ok(())
    }

    fn min_len() -> usize {
        1
    }
}

/// How one field of a [`layout!`](crate::layout) list is written and
/// checked. [`Plain`] defers to the field type's own [`Snapshot`]; the
/// other shapes add the check a bare type cannot know (a live length,
/// a cap, a configured presence) or map a foreign enum through a codec.
pub trait Shape<F> {
    /// Append `field`.
    fn save(&self, field: &F, enc: &mut Encoder);
    /// Overwrite `field` from `dec`, applying this shape's check.
    fn restore(&self, field: &mut F, dec: &mut Decoder<'_>) -> Result<(), SnapshotError>;
    /// The fewest bytes this field can encode to.
    fn min_len() -> usize;
}

/// The field type's own encoding (a field with no shape in the list).
#[derive(Debug, Clone, Copy)]
pub struct Plain;

impl<F: Snapshot> Shape<F> for Plain {
    fn save(&self, field: &F, enc: &mut Encoder) {
        field.save(enc);
    }

    fn restore(&self, field: &mut F, dec: &mut Decoder<'_>) -> Result<(), SnapshotError> {
        field.restore(dec)
    }

    fn min_len() -> usize {
        F::min_len()
    }
}

/// A configuration-sized `Vec`: count + elements, restored in place; a
/// count other than the live length is `Geometry { what, .. }`.
#[derive(Debug, Clone, Copy)]
pub struct Fixed(pub &'static str);

impl<T: Snapshot> Shape<Vec<T>> for Fixed {
    fn save(&self, field: &Vec<T>, enc: &mut Encoder) {
        save_seq(field.iter(), enc);
    }

    fn restore(&self, field: &mut Vec<T>, dec: &mut Decoder<'_>) -> Result<(), SnapshotError> {
        let n = dec.seq(T::min_len())?;
        if n != field.len() {
            return Err(SnapshotError::Geometry {
                what: self.0,
                expected: field.len() as u64,
                found: n as u64,
            });
        }
        for x in field {
            x.restore(dec)?;
        }
        Ok(())
    }

    fn min_len() -> usize {
        4
    }
}

/// A queue the live code keeps at or below `cap` entries: count +
/// elements, rebuilt from fresh `T::default()`s; a count above the cap
/// is `Geometry { what, expected: cap, .. }`.
#[derive(Debug, Clone, Copy)]
pub struct Bounded(pub usize, pub &'static str);

macro_rules! growable {
    ($($seq:ident::$push:ident),*) => {$(
        impl<T: Snapshot + Default> Shape<$seq<T>> for Bounded {
            fn save(&self, field: &$seq<T>, enc: &mut Encoder) {
                save_seq(field.iter(), enc);
            }

            fn restore(
                &self,
                field: &mut $seq<T>,
                dec: &mut Decoder<'_>,
            ) -> Result<(), SnapshotError> {
                let n = dec.seq(T::min_len())?;
                if n > self.0 {
                    return Err(SnapshotError::Geometry {
                        what: self.1,
                        expected: self.0 as u64,
                        found: n as u64,
                    });
                }
                field.clear();
                for _ in 0..n {
                    let mut x = T::default();
                    x.restore(dec)?;
                    field.$push(x);
                }
                Ok(())
            }

            fn min_len() -> usize {
                4
            }
        }

        /// An uncapped sequence (the byte budget is its only bound).
        impl<T: Snapshot + Default> Snapshot for $seq<T> {
            fn save(&self, enc: &mut Encoder) {
                Bounded(usize::MAX, "sequence").save(self, enc);
            }

            fn restore(&mut self, dec: &mut Decoder<'_>) -> Result<(), SnapshotError> {
                Bounded(usize::MAX, "sequence").restore(self, dec)
            }

            fn min_len() -> usize {
                4
            }
        }
    )*};
}

growable!(Vec::push, VecDeque::push_back);

/// A member whose presence the configuration fixes (an optional cache
/// level or engine): flag + payload, restored in place. A flag other
/// than 0/1 is `Corrupt { what }`; one that disagrees with the live
/// instance is `Geometry { what, .. }`.
#[derive(Debug, Clone, Copy)]
pub struct Present(pub &'static str);

impl<T: Snapshot> Shape<Option<T>> for Present {
    fn save(&self, field: &Option<T>, enc: &mut Encoder) {
        save_option(field, enc);
    }

    fn restore(&self, field: &mut Option<T>, dec: &mut Decoder<'_>) -> Result<(), SnapshotError> {
        let present = read_flag(dec, self.0)?;
        match field {
            Some(x) if present => x.restore(dec),
            None if !present => Ok(()),
            _ => Err(SnapshotError::Geometry {
                what: self.0,
                expected: u64::from(field.is_some()),
                found: u64::from(present),
            }),
        }
    }

    fn min_len() -> usize {
        1
    }
}

/// A two-way table between an enum and its wire code, for enums (often
/// from another crate) that do not implement [`Snapshot`] themselves.
/// Declare one with [`codes!`](crate::codes).
pub trait Codec {
    /// The enum.
    type Value;
    /// Its wire representation.
    type Wire: Snapshot + Default;
    /// The code of `v`.
    fn encode(v: &Self::Value) -> Self::Wire;
    /// The value of `code`, or `Corrupt` for an unknown code.
    fn decode(code: Self::Wire) -> Result<Self::Value, SnapshotError>;
}

/// A field written as its [`Codec`] code.
#[derive(Debug, Clone, Copy)]
pub struct Via<C>(pub C);

impl<C: Codec> Shape<C::Value> for Via<C> {
    fn save(&self, field: &C::Value, enc: &mut Encoder) {
        C::encode(field).save(enc);
    }

    fn restore(&self, field: &mut C::Value, dec: &mut Decoder<'_>) -> Result<(), SnapshotError> {
        let mut code = C::Wire::default();
        code.restore(dec)?;
        *field = C::decode(code)?;
        Ok(())
    }

    fn min_len() -> usize {
        C::Wire::min_len()
    }
}

/// The minimum encoded length of one `layout!` field, found from the
/// types of a field accessor and a shape constructor (neither is called).
#[doc(hidden)]
pub fn field_min_len<S, F, Sh: Shape<F>>(_field: fn(&S) -> &F, _shape: fn(&S) -> Sh) -> usize {
    Sh::min_len()
}

/// Implement [`Snapshot`] for a type from one ordered field list.
///
/// ```ignore
/// layout! {
///     MicroBtb [tags::UBTB] |s| {
///         nodes: Bounded(s.cfg.total_nodes() + s.cfg.general_nodes, "ubtb nodes"),
///         lhp: Fixed("ubtb loop-history table"),
///         stamp,
///         stats,
///     } then check_restored
/// }
/// ```
///
/// - `[tag]` (optional) wraps the fields in one section under `tag`;
///   plain element structs leave it out.
/// - `|s|` (optional) names the receiver for shape arguments that read
///   the live instance (caps, lengths). It is evaluated before the
///   field is overwritten.
/// - Each field is a field of `self` (a tuple struct's by index),
///   optionally followed by `: Shape(..)` — [`Fixed`], [`Bounded`],
///   [`Present`] or [`Via`]; without one the field type's own
///   [`Snapshot`] applies.
/// - `then hook` (optional) names a `fn(&mut self) -> Result<(),
///   SnapshotError>` that runs after the last field is read: range
///   checks that span fields, and state derived from restored fields.
///
/// `save` and `restore` walk the same list, so they cannot disagree on
/// the order or the shape of a field.
#[macro_export]
macro_rules! layout {
    (@impl $ty:ty, [$($tag:expr)?], $s:ident,
        { $( $f:tt $(: $shape:expr)? ),* $(,)? }, [$($hook:ident)?]) => {
        impl $crate::Snapshot for $ty {
            #[inline]
            fn save(&self, enc: &mut $crate::Encoder) {
                #![allow(unused_variables)]
                let $s = self;
                $( enc.begin_section($tag); )?
                $( $crate::layout::Shape::save(
                    &$crate::layout!(@shape $($shape)?),
                    &self.$f,
                    enc,
                ); )*
                $( let _: u16 = $tag; enc.end_section(); )?
            }

            #[inline]
            fn restore(
                &mut self,
                dec: &mut $crate::Decoder<'_>,
            ) -> ::std::result::Result<(), $crate::SnapshotError> {
                #![allow(unused_variables)]
                $( dec.begin_section($tag)?; )?
                $( {
                    let shape = {
                        let $s = &*self;
                        $crate::layout!(@shape $($shape)?)
                    };
                    $crate::layout::Shape::restore(&shape, &mut self.$f, dec)?;
                } )*
                $( let _: u16 = $tag; dec.end_section()?; )?
                $( self.$hook()?; )?
                Ok(())
            }

            fn min_len() -> usize {
                #![allow(unused_variables)]
                0 $( + { let _: u16 = $tag; 6 } )?
                $( + $crate::layout::field_min_len(
                    |x: &Self| &x.$f,
                    |$s: &Self| $crate::layout!(@shape $($shape)?),
                ) )*
            }
        }
    };
    (@shape) => { $crate::layout::Plain };
    (@shape $shape:expr) => {{
        #[allow(unused_imports)]
        use $crate::layout::{Bounded, Fixed, Present, Via};
        $shape
    }};
    ($ty:ty $([$tag:expr])? |$s:ident| { $($fields:tt)* } $(then $hook:ident)?) => {
        $crate::layout!(@impl $ty, [$($tag)?], $s, { $($fields)* }, [$($hook)?]);
    };
    ($ty:ty $([$tag:expr])? { $($fields:tt)* } $(then $hook:ident)?) => {
        $crate::layout!(@impl $ty, [$($tag)?], this, { $($fields)* }, [$($hook)?]);
    };
}

/// Declare a [`Codec`]: one table from enum variants to wire codes.
///
/// ```
/// use exynos_snapshot::layout::Codec;
///
/// enum Mode { Filter, Build, Fetch }
///
/// exynos_snapshot::codes! {
///     /// Wire codes of `Mode`.
///     ModeCode: Mode as u8, "mode tag" { Filter = 0, Build = 1, Fetch = 2 }
/// }
///
/// assert_eq!(ModeCode::encode(&Mode::Fetch), 2);
/// assert!(matches!(ModeCode::decode(1), Ok(Mode::Build)));
/// assert!(ModeCode::decode(3).is_err());
/// ```
///
/// The encode side is an exhaustive `match`, so a new variant without a
/// code fails to compile; an unknown code decodes to `Corrupt { what }`.
#[macro_export]
macro_rules! codes {
    ($(#[$meta:meta])* $vis:vis $name:ident: $value:ident as $wire:ty, $what:literal
        { $($variant:ident = $code:literal),* $(,)? }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy)]
        $vis struct $name;

        impl $crate::layout::Codec for $name {
            type Value = $value;
            type Wire = $wire;

            fn encode(v: &$value) -> $wire {
                match v {
                    $( $value::$variant => $code, )*
                }
            }

            fn decode(code: $wire) -> ::std::result::Result<$value, $crate::SnapshotError> {
                match code {
                    $( $code => Ok($value::$variant), )*
                    _ => Err($crate::SnapshotError::Corrupt { what: $what }),
                }
            }
        }
    };
}
