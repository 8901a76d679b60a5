//! Property tests over randomly generated programs: whatever the selector
//! chooses, fusing it must never change architectural results, and the
//! selection must obey its structural invariants.

use proptest::prelude::*;
use t1000_core::{SelectConfig, Session, StrategySpec};
use t1000_cpu::{simulate, CpuConfig};
use t1000_isa::FusionMap;

/// A random loop body of narrow ALU operations over $t0..$t7, always
/// terminated by a width-bounding mask so profiled widths stay small.
fn arb_body() -> impl Strategy<Value = String> {
    let reg = (0u8..6).prop_map(|n| format!("$t{n}"));
    let stmt = prop_oneof![
        (
            prop::sample::select(vec!["addu", "subu", "xor", "and", "or", "nor"]),
            reg.clone(),
            reg.clone(),
            reg.clone()
        )
            .prop_map(|(m, a, b, c)| format!("    {m} {a}, {b}, {c}")),
        (
            prop::sample::select(vec!["sll", "srl", "sra"]),
            reg.clone(),
            reg.clone(),
            1u32..5
        )
            .prop_map(|(m, a, b, s)| format!("    {m} {a}, {b}, {s}")),
        (reg.clone(), reg.clone(), 1i32..200)
            .prop_map(|(a, b, v)| format!("    addiu {a}, {b}, {v}")),
        (reg.clone(), reg.clone(), 1i32..0xfff)
            .prop_map(|(a, b, v)| format!("    andi {a}, {b}, {v}")),
    ];
    prop::collection::vec(stmt, 4..24).prop_map(|stmts| {
        let mut body = stmts.join("\n");
        // Bound every register so bitwidth profiles stay narrow no matter
        // what the random chain computed.
        body.push('\n');
        for r in 0..6 {
            body.push_str(&format!("    andi $t{r}, $t{r}, 2047\n"));
        }
        body
    })
}

fn program(body: &str, iters: u32) -> String {
    let mut checks = String::new();
    for r in 0..6 {
        checks.push_str(&format!(
            "    move $a0, $t{r}\n    li $v0, 30\n    syscall\n"
        ));
    }
    format!(
        "main:\n    li $s0, {iters}\n    li $t0, 3\n    li $t1, 5\n    li $t2, 7\n    li $t3, 11\n    li $t4, 13\n    li $t5, 17\nloop:\n{body}    addiu $s0, $s0, -1\n    bgtz $s0, loop\n{checks}    li $a0, 0\n    li $v0, 10\n    syscall\n"
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_programs_fuse_without_changing_results(body in arb_body(), pfus in 1usize..5) {
        let src = program(&body, 40);
        let session = Session::from_asm(&src).expect("random program must assemble");
        let baseline = simulate(session.program(), &FusionMap::new(), CpuConfig::baseline()).unwrap();

        for sel in [
            session.select_shared(&StrategySpec::Greedy),
            session.select_shared(&StrategySpec::selective(&SelectConfig { pfus: Some(pfus), gain_threshold: 0.001, reload_weight: 0.0 })),
        ] {
            let run = simulate(session.program(), &sel.fusion, CpuConfig::with_pfus(pfus).reconfig(10))
                .unwrap();
            prop_assert_eq!(&run.sys, &baseline.sys, "fusion changed results");
            prop_assert_eq!(run.timing.base_instructions, baseline.timing.base_instructions);
        }
    }

    #[test]
    fn selection_invariants_hold_on_random_programs(body in arb_body()) {
        let src = program(&body, 40);
        let session = Session::from_asm(&src).unwrap();
        let sel = session.select_shared(&StrategySpec::Greedy);
        // Sites are disjoint, sorted, and within the text segment.
        let mut last_end = 0u32;
        for site in sel.fusion.sites() {
            prop_assert!(site.pc >= last_end, "overlapping fused sites");
            prop_assert!(site.len >= 2);
            prop_assert!(site.inputs.len() <= 2);
            prop_assert!(session.program().contains_pc(site.pc));
            last_end = site.end_pc();
        }
        // Every conf referenced by a site is defined, with a consistent
        // skeleton length.
        for site in sel.fusion.sites() {
            let def = sel.fusion.def(site.conf).expect("dangling conf id");
            prop_assert_eq!(def.skeleton.len() as u32, site.len);
        }
    }

    #[test]
    fn selective_never_exceeds_pfu_budget_per_loop(body in arb_body(), budget in 1usize..4) {
        let src = program(&body, 40);
        let session = Session::from_asm(&src).unwrap();
        let sel = session.select_shared(&StrategySpec::selective(&SelectConfig { pfus: Some(budget), gain_threshold: 0.001, reload_weight: 0.0 }));
        // This program has a single loop, so the total number of distinct
        // configurations must respect the budget.
        prop_assert!(
            sel.num_confs() <= budget,
            "selected {} confs with budget {budget}",
            sel.num_confs()
        );
    }
}
