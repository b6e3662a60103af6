//! CONTEXT_HASH computation (§V, Fig. 10).
//!
//! The paper's mitigation derives a per-context key register from "a mixture
//! of software- and hardware-controlled entropy sources":
//!
//! * a software entropy source selected by privilege level
//!   (`SCXTNUM_ELx`, the ARMv8.5 CSV2 registers);
//! * a hardware entropy source selected by privilege level;
//! * another hardware entropy source selected by security state;
//! * an entropy source combining ASID, VMID, security state and privilege
//!   level;
//!
//! followed by "rounds of entropy diffusion — specifically a deterministic,
//! reversible non-linear transformation to average per-bit randomness". The
//! register is recomputed only at context switches ("takes only a few
//! cycles") and is never software-visible.

/// Exception/privilege level of the executing context.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrivilegeLevel {
    /// User (EL0).
    El0,
    /// Kernel (EL1).
    El1,
    /// Hypervisor (EL2).
    El2,
    /// Firmware / secure monitor (EL3).
    El3,
}

impl PrivilegeLevel {
    /// Index used to select per-level entropy sources.
    pub fn index(self) -> usize {
        match self {
            PrivilegeLevel::El0 => 0,
            PrivilegeLevel::El1 => 1,
            PrivilegeLevel::El2 => 2,
            PrivilegeLevel::El3 => 3,
        }
    }
}

/// Security state (TrustZone world).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SecurityState {
    /// Non-secure world.
    NonSecure,
    /// Secure world.
    Secure,
}

impl SecurityState {
    /// Index used to select per-state entropy sources.
    pub fn index(self) -> usize {
        match self {
            SecurityState::NonSecure => 0,
            SecurityState::Secure => 1,
        }
    }
}

/// Architected identity of a context, as visible at a context switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ContextId {
    /// Address-space (process) identifier.
    pub asid: u16,
    /// Virtual-machine identifier.
    pub vmid: u16,
    /// Privilege level.
    pub level: PrivilegeLevel,
    /// Security state.
    pub state: SecurityState,
}

impl ContextId {
    /// A user-mode, non-secure process context.
    pub fn user(asid: u16, vmid: u16) -> ContextId {
        ContextId {
            asid,
            vmid,
            level: PrivilegeLevel::El0,
            state: SecurityState::NonSecure,
        }
    }
}

/// The machine's entropy-source state backing CONTEXT_HASH computation.
///
/// `sw_entropy` models `SCXTNUM_ELx` (software-writable per level, e.g. by
/// the OS per process); the hardware sources are set at reset and are not
/// software-readable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntropySources {
    /// Software entropy per privilege level (`SCXTNUM_EL0..3`).
    pub sw_entropy: [u64; 4],
    /// Hardware entropy per privilege level.
    pub hw_entropy_level: [u64; 4],
    /// Hardware entropy per security state.
    pub hw_entropy_state: [u64; 2],
}

impl EntropySources {
    /// Reset-time sources seeded from a hardware RNG value.
    pub fn from_seed(seed: u64) -> EntropySources {
        let mut x = seed;
        let mut next = || {
            x = diffuse(x.wrapping_add(0x9E37_79B9_7F4A_7C15), 3);
            x
        };
        EntropySources {
            sw_entropy: [next(), next(), next(), next()],
            hw_entropy_level: [next(), next(), next(), next()],
            hw_entropy_state: [next(), next()],
        }
    }
}

/// The (software-invisible) per-context key register.
///
/// Holding a `ContextHash` models *being* the hardware; software in the
/// threat model can never observe the inner value, which is why the
/// newtype exposes no accessor beyond the cipher operations in
/// [`crate::cipher`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ContextHash(pub(crate) u64);

impl ContextHash {
    /// Derive a fresh key from this one and a salt — the CEASER-style
    /// re-keying of §V ("the operating system can intentionally
    /// periodically alter the CONTEXT_HASH"), also used by the watchdog's
    /// degradation ladder to invalidate every sealed predictor target in
    /// one step. The same diffusion network as the context-switch path
    /// keeps the result software-unpredictable.
    pub fn rotate(self, salt: u64) -> ContextHash {
        ContextHash(diffuse(
            self.0 ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            3,
        ))
    }
}

/// One round of the deterministic, reversible non-linear diffusion
/// transformation (a xorshift-multiply permutation of the 64-bit space).
fn diffuse_round(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// Apply `rounds` rounds of entropy diffusion.
pub(crate) fn diffuse(mut x: u64, rounds: u32) -> u64 {
    for _ in 0..rounds {
        x = diffuse_round(x);
    }
    x
}

/// Compute the CONTEXT_HASH register for `ctx` from the machine's entropy
/// sources (Fig. 10). Performed in hardware at each context switch.
pub fn compute_context_hash(sources: &EntropySources, ctx: ContextId) -> ContextHash {
    let sw = sources.sw_entropy[ctx.level.index()];
    let hw_lvl = sources.hw_entropy_level[ctx.level.index()];
    let hw_state = sources.hw_entropy_state[ctx.state.index()];
    let identity = (ctx.asid as u64)
        | ((ctx.vmid as u64) << 16)
        | ((ctx.level.index() as u64) << 32)
        | ((ctx.state.index() as u64) << 34);
    // First-level hash: combine the four selected sources.
    let mixed = sw
        .rotate_left(17)
        .wrapping_add(hw_lvl)
        .wrapping_mul(0x2545_F491_4F6C_DD1D)
        ^ hw_state.rotate_left(41)
        ^ diffuse_round(identity);
    // "Multiple levels of hashing and iterative entropy spreading."
    ContextHash(diffuse(mixed, 4))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sources() -> EntropySources {
        EntropySources::from_seed(0xDEAD_BEEF)
    }

    #[test]
    fn same_context_same_hash() {
        let s = sources();
        let a = compute_context_hash(&s, ContextId::user(7, 1));
        let b = compute_context_hash(&s, ContextId::user(7, 1));
        assert_eq!(a, b, "recomputation at a context switch is stable");
    }

    #[test]
    fn different_asid_different_hash() {
        let s = sources();
        let a = compute_context_hash(&s, ContextId::user(7, 1));
        let b = compute_context_hash(&s, ContextId::user(8, 1));
        assert_ne!(a, b);
    }

    #[test]
    fn different_level_different_hash() {
        let s = sources();
        let mut k = ContextId::user(7, 1);
        let a = compute_context_hash(&s, k);
        k.level = PrivilegeLevel::El1;
        let b = compute_context_hash(&s, k);
        assert_ne!(a, b);
    }

    #[test]
    fn different_security_state_different_hash() {
        let s = sources();
        let mut k = ContextId::user(7, 1);
        let a = compute_context_hash(&s, k);
        k.state = SecurityState::Secure;
        let b = compute_context_hash(&s, k);
        assert_ne!(a, b);
    }

    #[test]
    fn sw_entropy_change_rekeys_context() {
        // §V: "the operating system can intentionally periodically alter
        // the CONTEXT_HASH for a process (by changing one of the
        // SW_ENTROPY_*_LVL inputs)" — CEASER-style re-keying.
        let mut s = sources();
        let a = compute_context_hash(&s, ContextId::user(7, 1));
        s.sw_entropy[0] ^= 1;
        let b = compute_context_hash(&s, ContextId::user(7, 1));
        assert_ne!(a, b);
    }

    #[test]
    fn diffusion_rounds_change_single_bit_flips_many() {
        // Avalanche sanity: one input bit flip flips ~half the output bits.
        let x = 0x0123_4567_89AB_CDEFu64;
        let a = diffuse(x, 4);
        let b = diffuse(x ^ 1, 4);
        let flipped = (a ^ b).count_ones();
        assert!(flipped >= 16, "diffusion must avalanche, flipped {flipped}");
    }

    #[test]
    fn kernel_entropy_not_used_for_user_hash() {
        // Changing EL1's software entropy must not affect an EL0 hash: the
        // sources are selected by level.
        let mut s = sources();
        let a = compute_context_hash(&s, ContextId::user(7, 1));
        s.sw_entropy[1] ^= 0xFFFF;
        let b = compute_context_hash(&s, ContextId::user(7, 1));
        assert_eq!(a, b);
    }
}

mod snapshot_impl {
    use super::*;
    use exynos_snapshot::{layout, tags};

    layout! { ContextHash [tags::CONTEXT_HASH] { 0 } }
    layout! {
        EntropySources [tags::ENTROPY] { sw_entropy, hw_entropy_level, hw_entropy_state }
    }
    #[cfg(test)]
    mod tests {
        use super::*;
        use exynos_snapshot::{Decoder, Encoder, Snapshot};

        #[test]
        fn context_state_roundtrips_bit_identically() {
            let mut src = EntropySources::from_seed(0xABCD_EF01);
            src.sw_entropy[2] = 0x1234;
            let key = compute_context_hash(&src, ContextId::user(3, 7));
            let mut enc = Encoder::new();
            src.save(&mut enc);
            key.save(&mut enc);
            let bytes = enc.finish();

            let mut src2 = EntropySources::from_seed(0);
            let mut key2 = compute_context_hash(&src2, ContextId::user(0, 0));
            let mut dec = Decoder::new(&bytes);
            src2.restore(&mut dec).unwrap();
            key2.restore(&mut dec).unwrap();
            dec.finish().unwrap();
            assert_eq!(src2, src);
            // The restored key must reproduce the same cipher stream.
            assert_eq!(key2, key);
        }
    }
}
