//! Canonical workload fingerprints.
//!
//! The chunk cache ([`exynos_core::batch`]'s `ChunkCache` in the core
//! crate) keys decoded trace chunks by *what stream they came from*, not
//! by which catalog entry asked for them. That identity is the
//! **fingerprint**: a stable 128-bit digest over every parameter that can
//! change the emitted instruction stream — and *only* those parameters.
//! Two `SliceSpec`s with different names but identical generator params,
//! region and seed hash equal, so their chunks are shared; flipping any
//! stream-affecting field (a trip count, a noise fraction, the seed, the
//! region) changes the digest.
//!
//! The hash is FNV-1a/128 — dependency-free, stable across platforms and
//! runs (unlike `std::hash`'s `RandomState`), and cheap enough to compute
//! at catalog-build time. Floats are hashed via [`f64::to_bits`] so the
//! digest distinguishes every representable value, including `-0.0` vs
//! `0.0` (which a float compare would merge but the generators' RNG
//! seeding may not).

/// A stable 128-bit content digest of a workload or stream identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u128);

impl Fingerprint {
    /// The low 64 bits, for contexts that want a compact key.
    pub fn short(self) -> u64 {
        self.0 as u64
    }
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

const FNV_OFFSET_128: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV_PRIME_128: u128 = 0x0000000001000000000000000000013B;

/// An incremental FNV-1a/128 hasher.
///
/// Every `write_*` method also folds in a one-byte *type tag* ahead of the
/// value bytes so that, e.g., the empty string followed by `0u64` cannot
/// collide with `0u64` followed by the empty string — field order and
/// field kinds are both part of the digest.
#[derive(Debug, Clone)]
pub struct FingerprintHasher {
    state: u128,
}

impl Default for FingerprintHasher {
    fn default() -> Self {
        FingerprintHasher::new()
    }
}

impl FingerprintHasher {
    /// Start a fresh hash at the FNV offset basis.
    pub fn new() -> FingerprintHasher {
        FingerprintHasher { state: FNV_OFFSET_128 }
    }

    fn byte(&mut self, b: u8) {
        self.state ^= b as u128;
        self.state = self.state.wrapping_mul(FNV_PRIME_128);
    }

    fn write_u64_raw(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }

    /// Fold one unsigned 64-bit value.
    pub fn write_u64(&mut self, v: u64) {
        self.byte(0xA4);
        self.write_u64_raw(v);
    }

    /// Fold one signed 64-bit value.
    pub fn write_i64(&mut self, v: i64) {
        self.byte(0xA5);
        self.write_u64_raw(v as u64);
    }

    /// Fold one float by its exact bit pattern.
    pub fn write_f64(&mut self, v: f64) {
        self.byte(0xA6);
        self.write_u64_raw(v.to_bits());
    }

    /// Fold one boolean.
    pub fn write_bool(&mut self, v: bool) {
        self.byte(0xA7);
        self.byte(v as u8);
    }

    /// Fold a string (length-prefixed UTF-8 bytes).
    pub fn write_str(&mut self, s: &str) {
        self.byte(0xA8);
        self.write_u64_raw(s.len() as u64);
        for &b in s.as_bytes() {
            self.byte(b);
        }
    }

    /// Finish and return the digest.
    pub fn finish(&self) -> Fingerprint {
        Fingerprint(self.state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_hash_is_offset_basis() {
        assert_eq!(FingerprintHasher::new().finish().0, FNV_OFFSET_128);
    }

    #[test]
    fn same_input_same_digest() {
        let mut a = FingerprintHasher::new();
        let mut b = FingerprintHasher::new();
        for h in [&mut a, &mut b] {
            h.write_str("loopnest");
            h.write_u64(42);
            h.write_f64(0.25);
        }
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn field_order_matters() {
        let mut a = FingerprintHasher::new();
        a.write_u64(1);
        a.write_u64(2);
        let mut b = FingerprintHasher::new();
        b.write_u64(2);
        b.write_u64(1);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn type_tags_prevent_cross_kind_collisions() {
        let mut a = FingerprintHasher::new();
        a.write_u64(0);
        let mut b = FingerprintHasher::new();
        b.write_i64(0);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn length_prefix_prevents_concat_collisions() {
        let mut a = FingerprintHasher::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = FingerprintHasher::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn float_bits_distinguish_signed_zero() {
        let mut a = FingerprintHasher::new();
        a.write_f64(0.0);
        let mut b = FingerprintHasher::new();
        b.write_f64(-0.0);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn display_is_32_hex_digits() {
        let fp = FingerprintHasher::new().finish();
        let s = fp.to_string();
        assert_eq!(s.len(), 32);
        assert!(s.bytes().all(|b| b.is_ascii_hexdigit()));
    }
}
