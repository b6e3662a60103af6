//! Spectre-v2-style attack scenarios against a shared indirect predictor
//! (§V), demonstrating what the CONTEXT_HASH target encryption does and
//! does not change.
//!
//! The threat model is the paper's: a fully trustworthy OS/hypervisor,
//! untrusted userland able to run arbitrary code. The two modeled attacks:
//!
//! * **Cross-training**: the attacker executes an indirect branch that
//!   aliases into the victim's predictor entry, training it to a gadget
//!   address; success = the victim speculatively fetches from the gadget.
//! * **Replay**: an attacker that has somehow inferred the *stored* bits
//!   for a (plaintext → ciphertext) pair replays those bits in a later
//!   execution of the victim; success = the stale mapping still decodes to
//!   the gadget.

use crate::cipher::{decrypt_target, encrypt_target, EncryptedTarget};
use crate::context::{compute_context_hash, ContextHash, ContextId, EntropySources};

/// A minimal shared indirect-target table (the structure both the attacker
/// and the victim's predictions read), with optional target encryption.
#[derive(Debug, Clone)]
pub struct SharedIndirectTable {
    entries: Vec<Option<EncryptedTarget>>,
    encrypt: bool,
    /// Identity key used when encryption is disabled.
    null_key: ContextHash,
}

impl SharedIndirectTable {
    /// A table with `entries` slots; `encrypt` selects the §V mitigation.
    pub fn new(entries: usize, encrypt: bool) -> SharedIndirectTable {
        assert!(entries.is_power_of_two(), "table size must be a power of two");
        SharedIndirectTable {
            entries: vec![None; entries],
            encrypt,
            null_key: ContextHash(0),
        }
    }

    fn index(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & (self.entries.len() - 1)
    }

    fn key_for(&self, key: ContextHash) -> ContextHash {
        if self.encrypt {
            key
        } else {
            self.null_key
        }
    }

    /// Train the entry for `pc` with architectural `target` under `key`.
    pub fn train(&mut self, key: ContextHash, pc: u64, target: u64) {
        let idx = self.index(pc);
        self.entries[idx] = Some(encrypt_target(self.key_for(key), target));
    }

    /// Predict the target for `pc` under `key` (None = no entry).
    pub fn predict(&self, key: ContextHash, pc: u64) -> Option<u64> {
        self.entries[self.index(pc)].map(|e| decrypt_target(self.key_for(key), e))
    }

    /// Overwrite the raw stored bits of `pc`'s entry (a replay attack's
    /// capability, not an architectural operation).
    pub fn replay_raw(&mut self, pc: u64, stored: EncryptedTarget) {
        let idx = self.index(pc);
        self.entries[idx] = Some(stored);
    }

    /// Read the raw stored bits (side-channel capability).
    pub fn leak_raw(&self, pc: u64) -> Option<EncryptedTarget> {
        self.entries[self.index(pc)]
    }
}

/// Outcome of one attack trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttackOutcome {
    /// The address the victim would speculatively fetch from.
    pub speculative_target: Option<u64>,
    /// Whether that address equals the attacker's gadget.
    pub hijacked: bool,
}

exynos_telemetry::counters! {
    /// Aggregate statistics over a batch of attack trials.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct AttackStats in "secure.attack" {
        /// Trials run.
        pub trials: u64,
        /// Trials where the victim speculatively fetched the gadget.
        pub hijacked: u64,
    } derived(hijack_rate)
}

impl AttackStats {
    /// Fold one trial outcome into the totals.
    pub fn record(&mut self, outcome: &AttackOutcome) {
        self.trials += 1;
        if outcome.hijacked {
            self.hijacked += 1;
        }
    }

    /// Fraction of trials that hijacked the victim (0.0 with no trials).
    pub fn hijack_rate(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.hijacked as f64 / self.trials as f64
        }
    }
}

/// Run one cross-training trial: attacker (ASID `attacker_asid`) trains the
/// aliased entry to `gadget`; the victim (ASID `victim_asid`) then predicts
/// the same PC.
pub fn cross_training_trial(
    table: &mut SharedIndirectTable,
    sources: &EntropySources,
    attacker_asid: u16,
    victim_asid: u16,
    branch_pc: u64,
    gadget: u64,
) -> AttackOutcome {
    let attacker_key = compute_context_hash(sources, ContextId::user(attacker_asid, 0));
    let victim_key = compute_context_hash(sources, ContextId::user(victim_asid, 0));
    table.train(attacker_key, branch_pc, gadget);
    let speculative_target = table.predict(victim_key, branch_pc);
    AttackOutcome {
        speculative_target,
        hijacked: speculative_target == Some(gadget),
    }
}

/// Run one replay trial: the attacker leaked the stored bits that mapped
/// `gadget` during an earlier victim lifetime (`old_asid`), then replays
/// them into the table during a new lifetime (`new_asid`, e.g. after the
/// process was restarted or the OS rotated `SCXTNUM`).
pub fn replay_trial(
    table: &mut SharedIndirectTable,
    old_sources: &EntropySources,
    new_sources: &EntropySources,
    old_asid: u16,
    new_asid: u16,
    branch_pc: u64,
    gadget: u64,
) -> AttackOutcome {
    let old_key = compute_context_hash(old_sources, ContextId::user(old_asid, 0));
    // Lifetime 1: victim architecturally trains the gadget mapping (e.g.
    // attacker observed the victim call through this pointer).
    table.train(old_key, branch_pc, gadget);
    let Some(leaked) = table.leak_raw(branch_pc) else {
        // The entry was just trained, so a miss means the table geometry
        // is degenerate; report a failed hijack rather than abort.
        return AttackOutcome {
            speculative_target: None,
            hijacked: false,
        };
    };
    // Lifetime 2: attacker replays the leaked bits; victim now runs with a
    // fresh context.
    table.replay_raw(branch_pc, leaked);
    let new_key = compute_context_hash(new_sources, ContextId::user(new_asid, 0));
    let speculative_target = table.predict(new_key, branch_pc);
    AttackOutcome {
        speculative_target,
        hijacked: speculative_target == Some(gadget),
    }
}

/// Measure cross-training hijack rate over `trials` attacker/victim ASID
/// pairs. Returns (hijacks, trials).
pub fn cross_training_rate(encrypt: bool, trials: u32) -> (u32, u32) {
    let sources = EntropySources::from_seed(0x5EC0_11D5);
    let mut hijacks = 0;
    for t in 0..trials {
        let mut table = SharedIndirectTable::new(256, encrypt);
        let out = cross_training_trial(
            &mut table,
            &sources,
            100 + (t % 50) as u16,
            200 + (t % 50) as u16,
            0x4000_0000 + (t as u64) * 4,
            0xBAD0_0000 + (t as u64) * 64,
        );
        hijacks += out.hijacked as u32;
    }
    (hijacks, trials)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sources() -> EntropySources {
        EntropySources::from_seed(7)
    }

    #[test]
    fn unprotected_table_is_hijackable() {
        let s = sources();
        let mut t = SharedIndirectTable::new(64, false);
        let out = cross_training_trial(&mut t, &s, 1, 2, 0x4000_1000, 0xBAD0_0040);
        assert!(out.hijacked, "without encryption cross-training must succeed");
    }

    #[test]
    fn encryption_defeats_cross_training() {
        let s = sources();
        let mut t = SharedIndirectTable::new(64, true);
        let out = cross_training_trial(&mut t, &s, 1, 2, 0x4000_1000, 0xBAD0_0040);
        assert!(!out.hijacked);
        // The victim still gets *a* prediction (taken to an unpredictable
        // address → later mispredict recovery), it just isn't the gadget.
        assert!(out.speculative_target.is_some());
        assert_ne!(out.speculative_target, Some(0xBAD0_0040));
    }

    #[test]
    fn same_context_still_predicts_correctly_with_encryption() {
        // The mitigation must not break the common case: a context reading
        // its own trained entries sees perfect targets.
        let s = sources();
        let key = compute_context_hash(&s, ContextId::user(5, 0));
        let mut t = SharedIndirectTable::new(64, true);
        t.train(key, 0x4000_2000, 0x4100_0000);
        assert_eq!(t.predict(key, 0x4000_2000), Some(0x4100_0000));
    }

    #[test]
    fn replay_defeated_when_context_differs() {
        let old = sources();
        let new = EntropySources::from_seed(8); // OS rotated entropy
        let mut t = SharedIndirectTable::new(64, true);
        let out = replay_trial(&mut t, &old, &new, 5, 5, 0x4000_3000, 0xBAD0_0080);
        assert!(!out.hijacked, "replay across re-keying must fail");
    }

    #[test]
    fn replay_succeeds_against_identical_context_without_rekeying() {
        // Shows why the paper notes the OS "can intentionally periodically
        // alter the CONTEXT_HASH": with an identical context and no
        // rotation, a replayed mapping still decodes.
        let s = sources();
        let mut t = SharedIndirectTable::new(64, true);
        let out = replay_trial(&mut t, &s, &s, 5, 5, 0x4000_3000, 0xBAD0_0080);
        assert!(out.hijacked);
    }

    #[test]
    fn hijack_rate_summary() {
        let (h_plain, n) = cross_training_rate(false, 64);
        let (h_enc, _) = cross_training_rate(true, 64);
        assert_eq!(h_plain, n);
        assert_eq!(h_enc, 0);
    }

    #[test]
    #[should_panic]
    fn non_power_of_two_table_rejected() {
        let _ = SharedIndirectTable::new(100, true);
    }
}
