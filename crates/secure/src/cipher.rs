//! Indirect/RAS target encryption (§V, Fig. 11).
//!
//! "Within a particular processor context, CONTEXT_HASH is used as a very
//! fast stream cipher to XOR with the indirect branch or return targets
//! being stored to the BTB or RAS. ... To protect against a basic plaintext
//! attack, a simple substitution cipher or bit reversal can further
//! obfuscate the actual stored address."
//!
//! The cipher must be cheap enough for a BTB/RAS lookup timing path, so it
//! is an XOR with the key plus a fixed bit permutation — both exactly
//! invertible with the same key.

use crate::context::ContextHash;

/// A target address as stored (encrypted) in a BTB entry or RAS slot.
///
/// The newtype prevents an encrypted value from being used as a fetch
/// address without going through [`decrypt_target`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct EncryptedTarget(u64);

impl EncryptedTarget {
    /// Raw stored bits (what a structure dump / side channel would see).
    pub fn raw_bits(self) -> u64 {
        self.0
    }

    /// Reinterpret raw stored bits as an encrypted target (used when a
    /// structure stores the ciphertext in a plain integer field).
    pub fn from_raw(bits: u64) -> EncryptedTarget {
        EncryptedTarget(bits)
    }
}

/// The fixed "substitution" layer: a cheap, timing-friendly bit diffusion
/// (swap halves and mix) that breaks the plaintext XOR relationship.
fn permute(x: u64) -> u64 {
    let r = x.rotate_left(23);
    r ^ (r << 7)
}

/// Inverse of [`permute`]. `x << 7` is not a permutation on its own, but
/// `y = r ^ (r << 7)` with `r = x.rotate_left(23)` is: invert by iterated
/// shift-xor cancellation, then rotate back.
fn unpermute(y: u64) -> u64 {
    // Invert r ^= r << 7 (binary lower-triangular, invertible).
    let mut r = y;
    let mut shift = 7;
    while shift < 64 {
        r ^= r << shift;
        shift *= 2;
    }
    // After the loop r = y ^ (y<<7) ^ (y<<14) ^ ... which telescopes to the
    // inverse of the map r -> r ^ (r << 7).
    r.rotate_right(23)
}

/// Encrypt a predicted-taken target before storing it in the BTB or RAS.
pub fn encrypt_target(key: ContextHash, target: u64) -> EncryptedTarget {
    EncryptedTarget(permute(target ^ key.0))
}

/// Decrypt a stored target at prediction time. Only the exact key that
/// stored the entry recovers the architectural target; any other key yields
/// an unrelated address (and a later mispredict recovery).
pub fn decrypt_target(key: ContextHash, stored: EncryptedTarget) -> u64 {
    unpermute(stored.0) ^ key.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{compute_context_hash, ContextId, EntropySources};

    fn key(asid: u16) -> ContextHash {
        let s = EntropySources::from_seed(42);
        compute_context_hash(&s, ContextId::user(asid, 0))
    }

    #[test]
    fn roundtrip_recovers_target() {
        let k = key(3);
        for t in [0u64, 4, 0x4000_0000, 0xFFFF_FFFF_FFFF_FFFC, 0x1234_5678] {
            assert_eq!(decrypt_target(k, encrypt_target(k, t)), t);
        }
    }

    #[test]
    fn wrong_key_scrambles_target() {
        let ka = key(3);
        let kb = key(4);
        let t = 0x4000_1000u64;
        let leaked = decrypt_target(kb, encrypt_target(ka, t));
        assert_ne!(leaked, t);
        // And the damage is broad: many bits differ, not just low bits.
        assert!((leaked ^ t).count_ones() >= 8);
    }

    #[test]
    fn stored_bits_hide_plaintext() {
        // A pure-XOR cipher leaks XOR differences between two plaintexts;
        // the permutation layer must break that: enc(a)^enc(b) != a^b.
        let k = key(9);
        let a = 0x4000_0000u64;
        let b = 0x4000_0040u64;
        let ea = encrypt_target(k, a).raw_bits();
        let eb = encrypt_target(k, b).raw_bits();
        assert_ne!(ea ^ eb, a ^ b, "permutation must break XOR malleability");
    }

    #[test]
    fn unpermute_inverts_permute_exhaustively_on_patterns() {
        for i in 0..64 {
            let x = 1u64 << i;
            assert_eq!(unpermute(permute(x)), x);
            let y = !(1u64 << i);
            assert_eq!(unpermute(permute(y)), y);
        }
    }
}

mod snapshot_impl {
    use super::*;
    use exynos_snapshot::layout;

    layout! { EncryptedTarget { 0 } }
}
