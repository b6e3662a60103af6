//! Spectre-v2 mitigation demo (§V) on the M4 front end: cross-training
//! and replay attacks against the predictor's shared indirect-target
//! storage, with and without CONTEXT_HASH target encryption.
//!
//! ```text
//! cargo run --release --example spectre_mitigation
//! ```

use exynos::branch::{FrontEnd, FrontendConfig, PredictorError};
use exynos::secure::ContextId;
use exynos::trace::{BranchInfo, BranchKind, Inst, Reg};

fn jump(pc: u64, kind: BranchKind, target: u64) -> Inst {
    Inst::branch(pc, BranchInfo { kind, taken: true, target }, [Some(Reg::int(1)), None])
}

/// Train the indirect branch at `pc` to `target` under the current
/// context: eight laps of `br pc -> target; b target -> pc`.
fn train(fe: &mut FrontEnd, pc: u64, target: u64) -> Result<(), PredictorError> {
    for _ in 0..8 {
        fe.on_inst(&jump(pc, BranchKind::IndirectJump, target))?;
        fe.on_inst(&jump(target, BranchKind::UncondDirect, pc))?;
    }
    Ok(())
}

/// Whether the front end fetches from `target` at the branch at `pc`: the
/// branch resolves to `target`, so it draws no redirect exactly when
/// `target` was predicted.
fn fetches(fe: &mut FrontEnd, pc: u64, target: u64) -> Result<bool, PredictorError> {
    Ok(fe.on_inst(&jump(pc, BranchKind::IndirectJump, target))?.redirect.is_none())
}

fn m4(encrypt: bool) -> FrontEnd {
    FrontEnd::new(FrontendConfig { encrypt_targets: encrypt, ..FrontendConfig::m4() })
}

fn on_off(encrypt: bool) -> &'static str {
    if encrypt {
        "ON "
    } else {
        "OFF"
    }
}

/// The attacker (ASID `attacker`) trains `pc` to `gadget`; the victim
/// (ASID `victim`) then runs the same branch.
fn cross_training(encrypt: bool, attacker: u16, victim: u16, pc: u64, gadget: u64) -> Result<bool, PredictorError> {
    let mut fe = m4(encrypt);
    fe.set_context(ContextId::user(attacker, 0));
    train(&mut fe, pc, gadget)?;
    fe.set_context(ContextId::user(victim, 0));
    fetches(&mut fe, pc, gadget)
}

fn main() -> Result<(), PredictorError> {
    println!("=== Cross-training attack (attacker trains, victim predicts) ===\n");
    for encrypt in [false, true] {
        let hijacked = cross_training(encrypt, 66, 7, 0x4000_1000, 0xBAD0_0040)?;
        println!(
            "encryption {}: victim {}",
            on_off(encrypt),
            if hijacked {
                "fetches from the gadget: HIJACKED"
            } else {
                "mispredicts to a garbage address (recovered at execute)"
            }
        );
    }

    println!("\n=== Hijack rate over 128 attacker/victim pairs ===\n");
    for encrypt in [false, true] {
        let mut hijacks = 0;
        for t in 0..128u16 {
            let (pc, gadget) = (0x4000_0000 + u64::from(t) * 4, 0xBAD0_0000 + u64::from(t) * 64);
            hijacks += cross_training(encrypt, 100 + t, 300 + t, pc, gadget)? as u32;
        }
        println!("encryption {}: {hijacks}/128 hijacks", on_off(encrypt));
    }

    println!("\n=== Replay of a stale trained target across an OS re-keying ===\n");
    // The victim's own earlier lifetime trained the branch to the gadget;
    // the attacker replays that state into a later lifetime.
    let mut stale = m4(true);
    stale.set_context(ContextId::user(7, 0));
    train(&mut stale, 0x4000_2000, 0xBAD0_0080)?;
    let mut rotated = stale.clone();
    rotated.rekey(0x5C7_0001);
    let kept = fetches(&mut stale, 0x4000_2000, 0xBAD0_0080)?;
    let after_rekey = fetches(&mut rotated, 0x4000_2000, 0xBAD0_0080)?;
    println!("same key      : stale target {}", if kept { "still decodes (HIJACKED)" } else { "defeated" });
    println!("after rekey   : stale target {}", if after_rekey { "still decodes (HIJACKED)" } else { "defeated" });
    Ok(())
}
