//! Property tests for canonicalisation and selection determinism.

use proptest::prelude::*;
use t1000_core::{canonicalize, SelectConfig, Session, StrategySpec};
use t1000_isa::{Instr, Op, Reg};

fn r(n: u8) -> Reg {
    Reg::new(n)
}

/// A random short ALU sequence over registers $8..$14.
fn arb_seq() -> impl Strategy<Value = Vec<Instr>> {
    let instr = prop_oneof![
        (
            prop::sample::select(vec![Op::Addu, Op::Subu, Op::Xor, Op::And, Op::Or, Op::Nor]),
            8u8..14,
            8u8..14,
            8u8..14
        )
            .prop_map(|(op, d, s, t)| Instr::rtype(op, r(d), r(s), r(t))),
        (
            prop::sample::select(vec![Op::Sll, Op::Srl, Op::Sra]),
            8u8..14,
            8u8..14,
            0u32..32
        )
            .prop_map(|(op, d, t, sh)| Instr::shift(op, r(d), r(t), sh)),
        (8u8..14, 8u8..14, -100i32..100).prop_map(|(d, s, imm)| Instr::itype(
            Op::Addiu,
            r(d),
            r(s),
            imm
        )),
    ];
    prop::collection::vec(instr, 1..8)
}

/// Applies a register permutation to a sequence.
fn permute(seq: &[Instr], perm: &[u8]) -> Vec<Instr> {
    let map = |reg: Reg| -> Reg {
        if (8..14).contains(&(reg.index() as u8)) {
            r(perm[reg.index() - 8] + 14) // move into $14..$20, disjoint
        } else {
            reg
        }
    };
    seq.iter()
        .map(|i| {
            let mut out = *i;
            out.rd = map(i.rd);
            out.rs = map(i.rs);
            out.rt = map(i.rt);
            out
        })
        .collect()
}

proptest! {
    #[test]
    fn canonicalisation_is_invariant_under_register_renaming(
        seq in arb_seq(),
        perm in Just([0u8, 1, 2, 3, 4, 5]).prop_shuffle(),
    ) {
        // An *injective* renaming of registers must not change the form.
        let renamed = permute(&seq, &perm);
        prop_assert_eq!(canonicalize(&seq), canonicalize(&renamed));
    }

    #[test]
    fn canonicalisation_is_idempotent(seq in arb_seq()) {
        let once = canonicalize(&seq);
        let twice = canonicalize(&once.skeleton);
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn canonical_skeletons_preserve_opcode_and_immediates(seq in arb_seq()) {
        let c = canonicalize(&seq);
        prop_assert_eq!(c.skeleton.len(), seq.len());
        for (orig, canon) in seq.iter().zip(&c.skeleton) {
            prop_assert_eq!(orig.op, canon.op);
            prop_assert_eq!(orig.imm, canon.imm);
        }
    }
}

/// Selection must be a pure function of (program, configs).
#[test]
fn selection_is_deterministic_across_runs() {
    let src = "
main:
    li  $s0, 500
    li  $t0, 3
    li  $t1, 5
loop:
    sll  $t2, $t0, 4
    addu $t2, $t2, $t1
    xor  $t2, $t2, $t0
    xor  $t1, $t1, $t2
    andi $t1, $t1, 255
    sll  $t3, $t1, 2
    subu $t3, $t3, $t0
    xor  $t1, $t1, $t3
    andi $t1, $t1, 255
    addiu $s0, $s0, -1
    bgtz $s0, loop
    li $v0, 10
    syscall
";
    let runs: Vec<Vec<(u16, usize, u32)>> = (0..3)
        .map(|_| {
            let s = Session::from_asm(src).unwrap();
            s.select_shared(&StrategySpec::selective(&SelectConfig {
                pfus: Some(2),
                gain_threshold: 0.005,
                reload_weight: 0.0,
            }))
            .confs
            .iter()
            .map(|c| (c.conf, c.num_sites, c.cost.luts))
            .collect()
        })
        .collect();
    assert_eq!(runs[0], runs[1]);
    assert_eq!(runs[1], runs[2]);
}
