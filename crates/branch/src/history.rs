//! Global outcome history (GHIST) and path history (PHIST) registers with
//! interval folding.
//!
//! §IV.A: each SHP table is indexed by an XOR hash of (1) a hash of the
//! GHIST pattern *in a given interval for that table* — one bit per
//! conditional-branch outcome; (2) a hash of the PHIST in a given interval —
//! "three bits, bits two through four, of each branch address encountered";
//! and (3) a hash of the PC. M1 used 165 bits of GHIST and 80 entries of
//! PHIST; M5 grew GHIST by 25% and rebalanced the intervals.
//!
//! [`ShpHistory`] carries both registers plus one SHP's per-table folds,
//! updated incrementally on every push; the `fold` functions here are the
//! from-scratch reference those folds are checked against and rebuilt
//! from on restore.

/// Maximum GHIST bits any generation keeps (M5/M6 use 206).
pub const MAX_GHIST: usize = 256;
/// Maximum PHIST entries (3 bits each) any generation keeps.
pub const MAX_PHIST: usize = 128;
// The PHIST ring buffer masks with MAX_PHIST - 1.
const _: () = assert!(MAX_PHIST.is_power_of_two());

/// A shift-register of conditional-branch outcomes, newest in bit 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlobalHistory {
    words: [u64; MAX_GHIST / 64],
}

impl GlobalHistory {
    /// An all-not-taken history.
    pub fn new() -> GlobalHistory {
        GlobalHistory {
            words: [0; MAX_GHIST / 64],
        }
    }

    /// Record a conditional-branch outcome.
    #[inline]
    pub fn push(&mut self, taken: bool) {
        // Shift the whole register left by one, inserting at bit 0.
        let n = self.words.len();
        for i in (1..n).rev() {
            self.words[i] = (self.words[i] << 1) | (self.words[i - 1] >> 63);
        }
        self.words[0] = (self.words[0] << 1) | taken as u64;
    }

    /// Bit `i` of history (0 = most recent outcome).
    #[inline]
    pub fn bit(&self, i: usize) -> bool {
        debug_assert!(i < MAX_GHIST);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Bits `[pos, pos + n)` of history as a little-endian value (bit
    /// `pos` in bit 0), extracted by whole-word shifts. `n <= 32`.
    #[inline]
    fn bits(&self, pos: usize, n: usize) -> u64 {
        debug_assert!(n >= 1 && n <= 32 && pos + n <= MAX_GHIST);
        let w = pos / 64;
        let off = pos % 64;
        let mut v = self.words[w] >> off;
        if off > 0 && w + 1 < self.words.len() {
            v |= self.words[w + 1] << (64 - off);
        }
        v & ((1u64 << n) - 1)
    }

    /// Fold the most recent `len` bits into `out_bits` bits by XOR-ing
    /// successive chunks (the classic folded-history index hash).
    ///
    /// # Panics
    /// Panics if `out_bits` is 0 or greater than 32.
    #[inline]
    pub fn fold(&self, len: usize, out_bits: u32) -> u32 {
        assert!(out_bits >= 1 && out_bits <= 32, "fold width out of range");
        let len = len.min(MAX_GHIST);
        if len == 0 {
            return 0;
        }
        let mask = (1u64 << out_bits) - 1;
        let mut acc = 0u64;
        let mut consumed = 0usize;
        // Each chunk is extracted with word shifts rather than bit-by-bit
        // — same chunks, same XOR, so the hash is unchanged.
        while consumed < len {
            let chunk_len = (len - consumed).min(out_bits as usize);
            acc ^= self.bits(consumed, chunk_len);
            consumed += chunk_len;
        }
        (acc & mask) as u32
    }
}

impl Default for GlobalHistory {
    fn default() -> Self {
        Self::new()
    }
}

/// A shift-register of per-branch path nibbles: bits 2..=4 of each branch
/// address encountered, newest first.
///
/// Stored as a ring buffer: `head` is the index of the newest entry and
/// a push only writes one byte, instead of rotating the whole 128-byte
/// array per branch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathHistory {
    /// 3-bit entries; the newest is at `entries[head]`, older entries
    /// follow at increasing (wrapping) indices.
    entries: [u8; MAX_PHIST],
    head: usize,
}

impl PathHistory {
    /// An empty path history.
    pub fn new() -> PathHistory {
        PathHistory {
            entries: [0; MAX_PHIST],
            head: 0,
        }
    }

    /// Record a branch address (any branch encountered).
    #[inline]
    pub fn push(&mut self, pc: u64) {
        self.head = (self.head + MAX_PHIST - 1) & (MAX_PHIST - 1);
        self.entries[self.head] = ((pc >> 2) & 0x7) as u8;
    }

    /// Fold the most recent `len` entries (3 bits each) into `out_bits`
    /// bits.
    ///
    /// # Panics
    /// Panics if `out_bits` is 0 or greater than 32.
    #[inline]
    pub fn fold(&self, len: usize, out_bits: u32) -> u32 {
        assert!(out_bits >= 1 && out_bits <= 32, "fold width out of range");
        let len = len.min(MAX_PHIST);
        let mask = (1u64 << out_bits) - 1;
        let mut acc = 0u64;
        let mut bitpos = 0u32;
        // Walk newest → older through the ring, identical entry order to
        // the pre-ring shift-register layout.
        for k in 0..len {
            let e = self.entries[(self.head + k) & (MAX_PHIST - 1)];
            acc ^= (e as u64) << bitpos;
            bitpos += 3;
            if bitpos + 3 > out_bits {
                // Wrap the rolling insertion point.
                acc = ((acc >> out_bits) ^ acc) & mask;
                bitpos = 0;
            }
        }
        ((acc ^ (acc >> out_bits)) & mask) as u32
    }
}

impl Default for PathHistory {
    fn default() -> Self {
        Self::new()
    }
}

/// Most weight tables an SHP may have (M5/M6 use all 16).
pub const MAX_TABLES: usize = 16;

/// GHIST and PHIST together with one SHP's per-table folded registers.
///
/// Every SHP lookup needs, per table, the fold of that table's GHIST
/// interval and of its PHIST interval. Refolding them per lookup walks up
/// to 206 bits and 100 entries per table; instead each fold is a register
/// that a push updates in O(1), the way hardware keeps folded history.
/// With `L` the interval length, `w` the fold width (the SHP's index
/// bits) and `m = w / 3`, the folds are
///
/// * GHIST: `F = XOR_{i<L} b[i] << (i mod w)`, so a push of `taken` is
///   `F' = rotl_w(F ^ (b[L-1] << ((L-1) mod w)), 1) ^ taken`;
/// * PHIST: `F = XOR_{k<L} e[k] << 3(k mod m)`, so a push of entry `e` is
///   `F' = rotl3_{3m}(F ^ (e[L-1] << 3((L-1) mod m))) ^ e`,
///
/// where `b[L-1]` and `e[L-1]` are the oldest bit and entry still inside
/// the interval before the push. Both match [`GlobalHistory::fold`] and
/// [`PathHistory::fold`] bit for bit for every `w >= 3`.
///
/// The folds are derived state: a snapshot stores only the two
/// registers, and restore refolds from them. Only
/// [`Shp::history`](crate::shp::Shp::history) builds one, from that SHP's
/// own intervals and index width.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShpHistory {
    ghist: GlobalHistory,
    phist: PathHistory,
    /// Per-table GHIST folds, `w` bits wide.
    gfold: [u16; MAX_TABLES],
    /// Per-table PHIST folds, `3 * (w / 3)` bits wide.
    pfold: [u16; MAX_TABLES],
    geom: FoldGeometry,
}

/// Per-table constants of the fold updates, fixed at construction so a
/// push has no division or branch: it gathers each table's outgoing bit
/// or entry, then runs one fixed 16-lane `u16` loop, with no per-table
/// shift, that the compiler vectorizes. Lanes past `tables`, and tables
/// with an empty interval, have a zero keep mask, so their folds stay 0.
#[derive(Debug, Clone, PartialEq, Eq)]
struct FoldGeometry {
    tables: usize,
    /// Fold width `w`.
    width: u32,
    /// GHIST interval lengths, clamped to [`MAX_GHIST`].
    glen: [u16; MAX_TABLES],
    /// PHIST interval lengths, clamped to [`MAX_PHIST`].
    plen: [u16; MAX_TABLES],
    /// Index of the GHIST bit a push moves out of the interval (`L - 1`).
    g_out: [u8; MAX_TABLES],
    /// That bit's place in the fold: `1 << ((L - 1) mod w)`.
    g_at: [u16; MAX_TABLES],
    /// All ones over `w` bits for a non-empty interval, else 0.
    g_keep: [u16; MAX_TABLES],
    /// Index of the PHIST entry a push moves out of the interval.
    p_out: [u8; MAX_TABLES],
    /// That entry's place in the fold: `1 << 3((L - 1) mod m)`.
    p_at: [u16; MAX_TABLES],
    /// All ones over `3m` bits for a non-empty interval, else 0.
    p_keep: [u16; MAX_TABLES],
}

impl ShpHistory {
    /// Empty histories for tables with GHIST intervals `glens`, PHIST
    /// intervals `plens` and fold width `width`.
    ///
    /// # Panics
    /// Panics if the interval lists differ in length or exceed
    /// [`MAX_TABLES`], or if `width` is outside `3..=16`.
    pub(crate) fn new(glens: &[usize], plens: &[usize], width: u32) -> ShpHistory {
        assert_eq!(glens.len(), plens.len(), "one PHIST interval per table");
        assert!(glens.len() <= MAX_TABLES, "at most {MAX_TABLES} tables");
        assert!((3..=16).contains(&width), "fold width must be 3..=16 bits");
        let m = width / 3;
        let wmask = ((1u32 << width) - 1) as u16;
        let pmask = ((1u32 << (3 * m)) - 1) as u16;
        let mut geom = FoldGeometry {
            tables: glens.len(),
            width,
            glen: [0; MAX_TABLES],
            plen: [0; MAX_TABLES],
            g_out: [0; MAX_TABLES],
            g_at: [0; MAX_TABLES],
            g_keep: [0; MAX_TABLES],
            p_out: [0; MAX_TABLES],
            p_at: [0; MAX_TABLES],
            p_keep: [0; MAX_TABLES],
        };
        for (t, (&gl, &pl)) in glens.iter().zip(plens).enumerate() {
            let gl = gl.min(MAX_GHIST);
            let pl = pl.min(MAX_PHIST);
            geom.glen[t] = gl as u16;
            geom.plen[t] = pl as u16;
            if gl > 0 {
                geom.g_out[t] = (gl - 1) as u8;
                geom.g_at[t] = 1 << ((gl - 1) % width as usize);
                geom.g_keep[t] = wmask;
            }
            if pl > 0 {
                geom.p_out[t] = (pl - 1) as u8;
                geom.p_at[t] = 1 << (3 * ((pl - 1) % m as usize));
                geom.p_keep[t] = pmask;
            }
        }
        ShpHistory {
            ghist: GlobalHistory::new(),
            phist: PathHistory::new(),
            gfold: [0; MAX_TABLES],
            pfold: [0; MAX_TABLES],
            geom,
        }
    }

    /// Whether this history was built for exactly these intervals and
    /// fold width.
    pub(crate) fn built_for(&self, glens: &[usize], plens: &[usize], width: u32) -> bool {
        let g = &self.geom;
        g.width == width
            && g.tables == glens.len()
            && glens.iter().zip(&g.glen).all(|(&a, &b)| a.min(MAX_GHIST) == b as usize)
            && plens.iter().zip(&g.plen).all(|(&a, &b)| a.min(MAX_PHIST) == b as usize)
    }

    /// Record a conditional-branch outcome into GHIST and every table's
    /// GHIST fold.
    #[inline]
    pub fn push_outcome(&mut self, taken: bool) {
        let g = &self.geom;
        let mut out = [0u16; MAX_TABLES];
        for (o, &pos) in out.iter_mut().zip(&g.g_out) {
            let pos = pos as usize;
            *o = ((self.ghist.words[pos >> 6] >> (pos & 63)) & 1) as u16;
        }
        let (w, taken16) = (g.width, taken as u16);
        for t in 0..MAX_TABLES {
            let f = self.gfold[t] ^ (out[t].wrapping_neg() & g.g_at[t]);
            let f = (f << 1) | (f >> (w - 1));
            self.gfold[t] = (f ^ taken16) & g.g_keep[t];
        }
        self.ghist.push(taken);
    }

    /// Record a branch address into PHIST and every table's PHIST fold.
    #[inline]
    pub fn push_path(&mut self, pc: u64) {
        let g = &self.geom;
        let mut out = [0u16; MAX_TABLES];
        for (o, &k) in out.iter_mut().zip(&g.p_out) {
            *o = self.phist.entries[(self.phist.head + k as usize) & (MAX_PHIST - 1)] as u16;
        }
        let span = 3 * (g.width / 3);
        let e = ((pc >> 2) & 0x7) as u16;
        for t in 0..MAX_TABLES {
            let f = self.pfold[t] ^ out[t] * g.p_at[t];
            let f = (f << 3) | (f >> (span - 3));
            self.pfold[t] = (f ^ e) & g.p_keep[t];
        }
        self.phist.push(pc);
    }

    /// The outcome register.
    pub fn ghist(&self) -> &GlobalHistory {
        &self.ghist
    }

    /// The path register.
    pub fn phist(&self) -> &PathHistory {
        &self.phist
    }

    /// Per-table GHIST folds, one per table.
    #[inline]
    pub fn ghist_folds(&self) -> &[u16] {
        &self.gfold[..self.geom.tables]
    }

    /// Per-table PHIST folds, one per table.
    #[inline]
    pub fn phist_folds(&self) -> &[u16] {
        &self.pfold[..self.geom.tables]
    }

    /// Recompute every fold from the registers (after a restore).
    fn refold(&mut self) {
        let g = &self.geom;
        for t in 0..g.tables {
            self.gfold[t] = self.ghist.fold(g.glen[t] as usize, g.width) as u16;
            self.pfold[t] = self.phist.fold(g.plen[t] as usize, g.width) as u16;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ghist_push_and_bit() {
        let mut g = GlobalHistory::new();
        g.push(true);
        g.push(false);
        g.push(true);
        // Newest first: T, NT, T.
        assert!(g.bit(0));
        assert!(!g.bit(1));
        assert!(g.bit(2));
        assert!(!g.bit(3));
    }

    #[test]
    fn ghist_shift_crosses_word_boundary() {
        let mut g = GlobalHistory::new();
        g.push(true);
        for _ in 0..70 {
            g.push(false);
        }
        assert!(g.bit(70));
        assert!(!g.bit(69));
        assert!(!g.bit(71));
    }

    #[test]
    fn fold_depends_only_on_interval() {
        let mut a = GlobalHistory::new();
        let mut b = GlobalHistory::new();
        // Same last 10 outcomes, different older outcomes.
        b.push(true);
        b.push(true);
        for i in 0..10 {
            let t = i % 3 == 0;
            a.push(t);
            b.push(t);
        }
        assert_eq!(a.fold(10, 8), b.fold(10, 8));
        assert_ne!(a.fold(16, 8), b.fold(16, 8));
    }

    #[test]
    fn fold_zero_len_is_zero() {
        let mut g = GlobalHistory::new();
        g.push(true);
        assert_eq!(g.fold(0, 10), 0);
    }

    #[test]
    fn fold_distinguishes_patterns() {
        let mut a = GlobalHistory::new();
        let mut b = GlobalHistory::new();
        for i in 0..64 {
            a.push(i % 2 == 0);
            b.push(i % 3 == 0);
        }
        assert_ne!(a.fold(64, 12), b.fold(64, 12));
    }

    #[test]
    fn phist_records_addr_bits_2_to_4() {
        let mut p = PathHistory::new();
        p.push(0b10100); // bits 2..=4 = 0b101
        let mut q = PathHistory::new();
        q.push(0b00100); // bits 2..=4 = 0b001
        assert_ne!(p.fold(1, 6), q.fold(1, 6));
        let mut r = PathHistory::new();
        r.push(0b10100 | (0b11 << 40)); // high bits ignored
        assert_eq!(p.fold(1, 6), r.fold(1, 6));
    }

    #[test]
    fn phist_fold_interval_sensitivity() {
        let mut a = PathHistory::new();
        let mut b = PathHistory::new();
        b.push(0x7C); // older entry differs
        for pc in [0x10u64, 0x24, 0x38, 0x4C] {
            a.push(pc);
            b.push(pc);
        }
        assert_eq!(a.fold(4, 9), b.fold(4, 9));
        assert_ne!(a.fold(5, 9), b.fold(5, 9));
    }
}

mod snapshot_impl {
    use super::*;
    use exynos_snapshot::{layout, tags, SnapshotError};

    layout! { GlobalHistory [tags::GLOBAL_HISTORY] { words } }
    layout! { PathHistory [tags::PATH_HISTORY] { entries, head } then check_head }
    // The folds are derived state: the image holds only the two
    // registers, and restore refolds.
    layout! { ShpHistory { ghist, phist } then refold_restored }

    impl PathHistory {
        fn check_head(&mut self) -> Result<(), SnapshotError> {
            if self.head >= MAX_PHIST {
                return Err(SnapshotError::Corrupt { what: "path-history head out of range" });
            }
            Ok(())
        }
    }

    impl ShpHistory {
        fn refold_restored(&mut self) -> Result<(), SnapshotError> {
            self.refold();
            Ok(())
        }
    }
}
