//! [`LazySets`]: a set-associative table that materializes a set on its
//! first write.
//!
//! The simulator's large tables (L2/L3 tag arrays, the L2BTB, the
//! snoop-filter directory) are mostly empty for the whole of a short
//! slice, yet a dense `Vec` makes every build initialize them and every
//! fork copy them. Here a per-set `u32` directory says where a written
//! set lives in a pool; an unwritten set reads as `ways` copies of the
//! initial entry and costs nothing but its directory word.
//!
//! The wire form is the [`Fixed`] one of a dense `Vec` holding every
//! set in order, so an image does not show which sets were written.

use crate::layout::{Fixed, Shape};
use crate::{Decoder, Encoder, Snapshot, SnapshotError};

/// `sets × ways` entries of `T`, stored only for the sets written so far.
#[derive(Debug, Clone)]
pub struct LazySets<T> {
    ways: usize,
    /// Per set: 0 when never written, else 1 + the set's slot in `pool`.
    dir: Vec<u32>,
    /// `ways` copies of the initial entry: what an unwritten set reads as.
    blank: Box<[T]>,
    /// The written sets, `ways` entries each, in first-write order.
    pool: Vec<T>,
}

impl<T: Clone> LazySets<T> {
    /// `sets` sets of `ways` entries, every one reading as `init`.
    ///
    /// # Panics
    /// Panics on zero geometry, or on more sets than a `u32` directory
    /// word can number.
    pub fn new(sets: usize, ways: usize, init: T) -> LazySets<T> {
        assert!(sets > 0 && ways > 0, "zero set-associative geometry");
        assert!(sets < u32::MAX as usize, "too many sets for the directory");
        LazySets {
            ways,
            dir: vec![0; sets],
            blank: vec![init; ways].into_boxed_slice(),
            pool: Vec::new(),
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.dir.len()
    }

    /// Entries per set.
    pub fn ways(&self) -> usize {
        self.ways
    }

    #[inline]
    fn slot(&self, d: u32) -> std::ops::Range<usize> {
        let base = (d as usize - 1) * self.ways;
        base..base + self.ways
    }

    /// The `ways` entries of set `s`.
    #[inline]
    pub fn set(&self, s: usize) -> &[T] {
        match self.dir[s] {
            0 => &self.blank,
            d => &self.pool[self.slot(d)],
        }
    }

    /// Set `s` for writing, materializing it from the initial entry on
    /// its first write.
    #[inline]
    pub fn set_mut(&mut self, s: usize) -> &mut [T] {
        if self.dir[s] == 0 {
            self.pool.extend_from_slice(&self.blank);
            self.dir[s] = (self.pool.len() / self.ways) as u32;
        }
        let r = self.slot(self.dir[s]);
        &mut self.pool[r]
    }

    /// Set `s` for writing if it was ever written, else `None` (for
    /// updates that only touch entries the initial entry cannot match).
    #[inline]
    pub fn written_mut(&mut self, s: usize) -> Option<&mut [T]> {
        match self.dir[s] {
            0 => None,
            d => {
                let r = self.slot(d);
                Some(&mut self.pool[r])
            }
        }
    }

    /// The written sets, in no particular order. Every set not listed
    /// reads as the initial entry.
    pub fn written(&self) -> std::slice::ChunksExact<'_, T> {
        self.pool.chunks_exact(self.ways)
    }
}

/// Saved as every set in order (`sets × ways` entries, unwritten sets as
/// their initial entries), byte-equal to a dense `Vec` under [`Fixed`].
/// Restore materializes only the sets that differ from the initial
/// entry; a count other than `sets × ways` is `Geometry { what, .. }`.
impl<T: Snapshot + Clone + PartialEq> Shape<LazySets<T>> for Fixed {
    fn save(&self, field: &LazySets<T>, enc: &mut Encoder) {
        enc.seq(field.sets() * field.ways);
        for s in 0..field.sets() {
            for x in field.set(s) {
                x.save(enc);
            }
        }
    }

    fn restore(&self, field: &mut LazySets<T>, dec: &mut Decoder<'_>) -> Result<(), SnapshotError> {
        let n = dec.seq(T::min_len())?;
        let len = field.sets() * field.ways;
        if n != len {
            return Err(SnapshotError::Geometry {
                what: self.0,
                expected: len as u64,
                found: n as u64,
            });
        }
        field.dir.fill(0);
        field.pool.clear();
        let mut buf = field.blank.to_vec();
        for s in 0..field.sets() {
            for x in &mut buf {
                x.restore(dec)?;
            }
            if buf[..] != field.blank[..] {
                field.set_mut(s).clone_from_slice(&buf);
            }
        }
        Ok(())
    }

    fn min_len() -> usize {
        4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode(f: impl FnOnce(&mut Encoder)) -> Vec<u8> {
        let mut e = Encoder::new();
        f(&mut e);
        e.finish()
    }

    #[test]
    fn unwritten_set_reads_as_the_initial_entry_and_allocates_nothing() {
        let mut t = LazySets::new(4, 2, 7u32);
        for s in 0..4 {
            assert_eq!(t.set(s), [7, 7]);
            assert!(t.written_mut(s).is_none());
        }
        assert_eq!(t.written().count(), 0);
        assert_eq!(t.pool.capacity(), 0);
        t.set_mut(2)[1] = 9;
        assert_eq!(t.set(2), [7, 9]);
        assert_eq!(t.set(1), [7, 7]);
        assert_eq!(t.written().collect::<Vec<_>>(), [[7, 9]]);
    }

    #[test]
    fn clone_copies_only_written_sets() {
        let mut t = LazySets::new(1024, 4, 0u64);
        t.set_mut(3)[0] = 1;
        t.set_mut(900)[3] = 2;
        let mut c = t.clone();
        assert_eq!(c.pool.len(), 2 * 4);
        assert_eq!(c.pool.capacity(), 2 * 4);
        assert_eq!(c.set(900), [0, 0, 0, 2]);
        c.set_mut(3)[0] = 5;
        c.set_mut(4)[0] = 6;
        assert_eq!(t.set(3), [1, 0, 0, 0]);
        assert_eq!(t.set(4), [0; 4]);
    }

    #[test]
    fn fresh_save_equals_a_dense_fixed_vec() {
        let init = (u64::MAX, 0u64);
        let t = LazySets::new(8, 4, init);
        let dense = vec![init; 8 * 4];
        assert_eq!(
            encode(|e| Fixed("t").save(&t, e)),
            encode(|e| Fixed("t").save(&dense, e))
        );
    }

    #[test]
    fn restore_materializes_only_sets_that_differ_from_the_initial_entry() {
        let mut t = LazySets::new(6, 2, 0u32);
        t.set_mut(1)[1] = 4;
        // Written, then put back to the initial entry.
        t.set_mut(3)[0] = 8;
        t.set_mut(3)[0] = 0;
        let bytes = encode(|e| Fixed("t").save(&t, e));
        let mut r = LazySets::new(6, 2, 0u32);
        r.set_mut(5)[0] = 3; // stale state the image overwrites
        Fixed("t").restore(&mut r, &mut Decoder::new(&bytes)).unwrap();
        assert_eq!(r.written().collect::<Vec<_>>(), [[0, 4]]);
        assert!(r.written_mut(3).is_none());
        assert!(r.written_mut(5).is_none());
        for s in 0..6 {
            assert_eq!(r.set(s), t.set(s));
        }
        assert_eq!(encode(|e| Fixed("t").save(&r, e)), bytes);
    }

    #[test]
    fn wrong_count_is_geometry_with_the_field_label() {
        let bytes = encode(|e| Fixed("t").save(&LazySets::new(3, 2, 0u8), e));
        let mut r = LazySets::new(4, 2, 0u8);
        assert_eq!(
            Fixed("tag array").restore(&mut r, &mut Decoder::new(&bytes)),
            Err(SnapshotError::Geometry { what: "tag array", expected: 8, found: 6 })
        );
    }

    #[test]
    fn u32_max_count_is_truncated_and_allocates_nothing() {
        let bytes = encode(|e| e.u32(u32::MAX));
        let mut r = LazySets::new(4, 2, 0u64);
        assert!(matches!(
            Fixed("t").restore(&mut r, &mut Decoder::new(&bytes)),
            Err(SnapshotError::Truncated { .. })
        ));
        assert_eq!(r.pool.capacity(), 0);
    }
}
