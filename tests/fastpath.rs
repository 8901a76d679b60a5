//! Fast-path equivalence suite (docs/FASTPATH.md): the steady-state
//! hot-loop replay fast path must be bit-identical to the cycle-accurate
//! path — same cycles, same stall attribution, same cache/TLB/PFU/branch
//! statistics, same architectural results — on every registry workload
//! and on randomly generated kernels with random fault plans.
//!
//! The de-opt unit test (a mid-loop PFU config fault exits replay and
//! re-converges) lives next to the implementation in
//! `crates/cpu/src/ooo.rs`; this file covers the workload-level golden
//! contract.

use proptest::prelude::*;
use t1000_core::{SelectConfig, Session, StrategySpec};
use t1000_cpu::{simulate_with, simulate_with_faults, AttrCollector, CpuConfig, RunResult};
use t1000_isa::FusionMap;
use t1000_workloads::{Scale, NAMES};

/// Asserts two runs are bit-identical in everything except host-side
/// bookkeeping (the [`t1000_cpu::FastPathStats`] counters, which describe
/// *how* the run was computed, not what it computed).
fn assert_identical(fast: &RunResult, slow: &RunResult, ctx: &str) {
    assert_eq!(fast.timing.cycles, slow.timing.cycles, "{ctx}: cycles");
    assert_eq!(fast.timing.slots, slow.timing.slots, "{ctx}: slots");
    assert_eq!(
        fast.timing.base_instructions, slow.timing.base_instructions,
        "{ctx}: base_instructions"
    );
    assert_eq!(fast.timing.pfu, slow.timing.pfu, "{ctx}: pfu stats");
    assert_eq!(fast.timing.mem, slow.timing.mem, "{ctx}: mem stats");
    assert_eq!(
        fast.timing.fetch_stall_cycles, slow.timing.fetch_stall_cycles,
        "{ctx}: fetch_stall_cycles"
    );
    assert_eq!(
        fast.timing.branch, slow.timing.branch,
        "{ctx}: branch stats"
    );
    assert_eq!(fast.sys, slow.sys, "{ctx}: architectural results");
}

fn no_fast(cfg: CpuConfig) -> CpuConfig {
    CpuConfig {
        fast_path: false,
        ..cfg
    }
}

/// Golden both-ways check: every registry workload, baseline and fused
/// machines, fast path on vs off, including full cycle attribution.
#[test]
fn every_registry_workload_is_bit_identical_both_ways() {
    let mut replayed_total = 0u64;
    for name in NAMES {
        let w = t1000_workloads::by_name(name, Scale::Test).unwrap();
        let session = Session::new(w.program().unwrap()).unwrap();
        let sel = session.select_shared(&StrategySpec::selective(&SelectConfig {
            pfus: Some(2),
            gain_threshold: 0.005,
            reload_weight: 0.0,
        }));
        for (label, cfg) in [
            ("baseline", CpuConfig::baseline()),
            ("2pfu", CpuConfig::with_pfus(2).reconfig(10)),
        ] {
            let run = |cfg: CpuConfig| {
                let mut sink = AttrCollector::new();
                let r = if label == "baseline" {
                    simulate_with(session.program(), &FusionMap::new(), cfg, &mut sink)
                } else {
                    simulate_with(session.program(), &sel.fusion, cfg, &mut sink)
                }
                .unwrap();
                (r, sink.attr)
            };
            let (fast, fast_attr) = run(cfg);
            let (slow, slow_attr) = run(no_fast(cfg));
            let ctx = format!("{name}/{label}");
            assert_identical(&fast, &slow, &ctx);
            assert_eq!(fast_attr, slow_attr, "{ctx}: cycle attribution");
            assert_eq!(
                slow.timing.fast,
                Default::default(),
                "{ctx}: disabled fast path must not engage"
            );
            assert_eq!(fast.sys.checksum, w.expected_checksum(), "{ctx}: checksum");
            replayed_total += fast.timing.fast.replayed_iters;
        }
    }
    // The contract would be vacuous if the fast path never engaged across
    // the whole registry.
    assert!(
        replayed_total > 0,
        "fast path never replayed an iteration on any workload"
    );
}

/// A random loop body of narrow ALU operations over $t0..$t5, masked so
/// profiled widths stay small (same shape as `prop_fusion.rs`).
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
    #![proptest_config(ProptestConfig::with_cases(16))]

    // Random kernels × random PFU fault plans × fast path on/off →
    // identical run statistics. Long loops so convergence has room to
    // engage; fault plans exercise de-opt on the degraded scalar path.
    #[test]
    fn random_kernels_and_fault_plans_are_bit_identical(
        body in arb_body(),
        pfus in 1usize..4,
        faulted in prop::collection::vec(0u16..4, 0..3),
    ) {
        let src = program(&body, 400);
        let session = Session::from_asm(&src).expect("random program must assemble");
        let sel = session.select_shared(&StrategySpec::selective(&SelectConfig {
            pfus: Some(pfus),
            gain_threshold: 0.001,
            reload_weight: 0.0,
        }));
        let cfg = CpuConfig::with_pfus(pfus).reconfig(10);
        let fusion = sel.fusion.clone();
        let run = |cfg: CpuConfig| {
            let mut sink = AttrCollector::new();
            let r = simulate_with_faults(session.program(), &fusion, cfg, &faulted, &mut sink)
                .expect("random kernel simulates");
            (r, sink.attr)
        };
        let (fast, fast_attr) = run(cfg);
        let (slow, slow_attr) = run(no_fast(cfg));
        prop_assert_eq!(fast.timing.cycles, slow.timing.cycles, "cycles diverge");
        prop_assert_eq!(fast.timing.slots, slow.timing.slots);
        prop_assert_eq!(fast.timing.base_instructions, slow.timing.base_instructions);
        prop_assert_eq!(fast.timing.pfu, slow.timing.pfu);
        prop_assert_eq!(fast.timing.mem, slow.timing.mem);
        prop_assert_eq!(fast.timing.fetch_stall_cycles, slow.timing.fetch_stall_cycles);
        prop_assert_eq!(fast.timing.branch, slow.timing.branch);
        prop_assert_eq!(&fast.sys, &slow.sys, "architectural results diverge");
        prop_assert_eq!(fast_attr, slow_attr, "cycle attribution diverges");
        prop_assert_eq!(slow.timing.fast, Default::default());
    }
}
