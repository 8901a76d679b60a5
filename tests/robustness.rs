//! Fault-tolerance integration tests: panic isolation, cycle fuel, and the
//! PFU-fault graceful-degradation property.

use proptest::prelude::*;
use t1000_bench::engine::{execute_with, EngineConfig, FailureCause, RunOptions};
use t1000_bench::fault::FaultPlan;
use t1000_bench::plan::{Cell, MachineSpec, Plan, SelectionSpec};
use t1000_core::{SelectConfig, Session, StrategySpec};
use t1000_cpu::{simulate, simulate_with_faults, CpuConfig, NullSink};
use t1000_isa::FusionMap;
use t1000_workloads::Scale;

/// A small but non-trivial plan: two workloads, fused + implied baseline
/// cells, two machine points (6 distinct cells in total).
fn small_plan() -> Plan {
    let mut plan = Plan::new();
    for w in ["gsm_dec", "g721_enc"] {
        plan.push(Cell::new(
            w,
            SelectionSpec::selective_std(Some(2)),
            MachineSpec::with_pfus(2, 10),
        ));
        plan.push(Cell::new(
            w,
            SelectionSpec::Greedy,
            MachineSpec::with_pfus(2, 10),
        ));
    }
    plan
}

fn config(inject: &str) -> EngineConfig {
    EngineConfig {
        faults: FaultPlan::parse(inject).expect("fault plan"),
        deterministic: true,
        ..EngineConfig::default()
    }
}

#[test]
fn injected_panic_fails_one_cell_and_every_other_completes() {
    let plan = small_plan();
    let total = plan.cells().len();
    let run = execute_with(&plan, Scale::Test, &config("panic@0"));

    // Exactly the poisoned cell failed, as a typed panic; everything
    // else completed and verified.
    assert_eq!(run.failures.len(), 1, "one failure expected");
    let e = &run.failures[0];
    assert!(matches!(e.cause, FailureCause::Panic(_)), "{:?}", e.cause);
    assert!(e.cause.to_string().contains("injected fault"), "{e}");
    assert_eq!(run.cells.len(), total - 1);
    assert_eq!(run.stats.failed_cells, 1);
    for c in &run.cells {
        assert!(c.attr.checks_out());
    }
}

#[test]
fn cycle_fuel_times_out_every_cell_that_needs_more() {
    let plan = small_plan();
    let cfg = EngineConfig {
        run: RunOptions {
            max_cycles: 50, // far below any real workload
            ..RunOptions::default()
        },
        deterministic: true,
        ..EngineConfig::default()
    };
    let run = execute_with(&plan, Scale::Test, &cfg);
    // The reference runs themselves exhaust the fuel, so every cell
    // fails with a Timeout (possibly cascaded through its session).
    assert!(run.cells.is_empty());
    assert_eq!(run.stats.failed_cells, plan.cells().len());
    assert!(
        run.failures
            .iter()
            .all(|e| e.cause == FailureCause::Timeout { max_cycles: 50 }),
        "{:?}",
        run.failures
    );
}

#[test]
fn degraded_cells_fall_back_to_scalar_and_still_verify() {
    let plan = small_plan();
    // Fault the PFU configuration loads of every cell: fused cells pay
    // the scalar sequence's true latency but remain architecturally
    // bit-identical, so no cell fails.
    let inject = (0..plan.cells().len())
        .map(|i| format!("pfu@{i}"))
        .collect::<Vec<_>>()
        .join(",");
    let clean = execute_with(&plan, Scale::Test, &config(""));
    let degraded = execute_with(&plan, Scale::Test, &config(&inject));
    assert!(degraded.failures.is_empty(), "{:?}", degraded.failures);
    assert_eq!(degraded.cells.len(), clean.cells.len());
    for c in &clean.cells {
        let d = degraded.cell(c.cell).expect("degraded cell");
        assert_eq!(d.checksum, c.checksum, "{:?}", c.cell);
        // Fused cells report their faulted loads and execute the original
        // scalar sequences — paying exactly the baseline's latency (which
        // may be *less* than the fused run's when reconfiguration
        // thrashing dominates, as in the greedy@2PFU cells).
        if c.ext_executed > 0 {
            let base = clean.baseline(c.cell).expect("baseline");
            assert!(d.pfu_load_faults > 0, "{:?}", c.cell);
            assert_eq!(d.ext_executed, 0, "{:?}", c.cell);
            assert_eq!(d.cycles, base.cycles, "{:?}", c.cell);
        } else {
            assert_eq!(d.cycles, c.cycles, "{:?}", c.cell);
        }
    }
}

/// Random loop body over narrow ALU ops (same shape as prop_fusion.rs).
fn arb_body() -> impl Strategy<Value = String> {
    let reg = (0u8..6).prop_map(|n| format!("$t{n}"));
    let stmt = prop_oneof![
        (
            prop::sample::select(vec!["addu", "subu", "xor", "and", "or"]),
            reg.clone(),
            reg.clone(),
            reg.clone()
        )
            .prop_map(|(m, a, b, c)| format!("    {m} {a}, {b}, {c}")),
        (
            prop::sample::select(vec!["sll", "srl"]),
            reg.clone(),
            reg.clone(),
            1u32..5
        )
            .prop_map(|(m, a, b, s)| format!("    {m} {a}, {b}, {s}")),
        (reg.clone(), reg.clone(), 1i32..0xfff)
            .prop_map(|(a, b, v)| format!("    andi {a}, {b}, {v}")),
    ];
    prop::collection::vec(stmt, 4..20).prop_map(|stmts| {
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
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Graceful degradation is semantics-preserving on arbitrary kernels:
    // whatever subset of configurations faults, the degraded run is
    // bit-identical to both the baseline and the healthy fused run, and
    // faulting everything restores baseline timing exactly.
    #[test]
    fn pfu_fault_fallback_is_bit_identical(body in arb_body(), fault_mask in any::<u64>()) {
        let src = program(&body, 40);
        let session = Session::from_asm(&src).expect("random program must assemble");
        let sel = session.select_shared(&StrategySpec::selective(&SelectConfig { pfus: Some(2), gain_threshold: 0.001, reload_weight: 0.0 }));
        let cpu = CpuConfig::with_pfus(2).reconfig(10);

        let baseline = simulate(session.program(), &FusionMap::new(), CpuConfig::baseline()).unwrap();
        let fused = simulate(session.program(), &sel.fusion, cpu).unwrap();
        prop_assert_eq!(&fused.sys, &baseline.sys);

        // A pseudo-random subset of the chosen configurations faults.
        let subset: Vec<u16> = sel
            .confs
            .iter()
            .enumerate()
            .filter(|(i, _)| fault_mask >> (i % 64) & 1 == 1)
            .map(|(_, c)| c.conf)
            .collect();
        let degraded = simulate_with_faults(session.program(), &sel.fusion, cpu, &subset, &mut NullSink).unwrap();
        prop_assert_eq!(&degraded.sys, &baseline.sys, "degradation changed results");

        // Faulting every configuration reduces the machine to the scalar
        // baseline: identical results AND identical cycle count.
        let all: Vec<u16> = sel.confs.iter().map(|c| c.conf).collect();
        let scalar = simulate_with_faults(session.program(), &sel.fusion, cpu, &all, &mut NullSink).unwrap();
        prop_assert_eq!(&scalar.sys, &baseline.sys);
        prop_assert_eq!(scalar.timing.cycles, baseline.timing.cycles);
        prop_assert_eq!(scalar.timing.pfu.ext_executed, 0);
        if !all.is_empty() && fused.timing.pfu.ext_executed > 0 {
            prop_assert!(scalar.timing.pfu.load_faults > 0);
        }
    }
}
