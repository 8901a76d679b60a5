//! Selection-quality integration tests: the selective algorithm's
//! decisions are not just legal but *good* — they capture most of the
//! available gain under tight budgets and degrade gracefully.

use t1000_bench::engine::{execute, CellRunner, RunOptions};
use t1000_bench::plan::{run_all_plan, Cell, MachineSpec, SelectionSpec};
use t1000_bench::results::render_failures;
use t1000_core::{SelectConfig, Session, StrategySpec};
use t1000_cpu::{simulate, CpuConfig};
use t1000_isa::FusionMap;
use t1000_workloads::{by_name, Scale, NAMES};

#[test]
fn selective_captures_most_of_greedy_potential_at_four_pfus() {
    // Across the suite, 4-PFU selective should realise a substantial
    // fraction of the greedy/unlimited ceiling. Both cells are in the
    // paper's matrix, run once at test scale.
    let run = execute(&run_all_plan(), Scale::Test);
    assert!(
        run.failures.is_empty(),
        "{}",
        render_failures(&run.failures)
    );
    let speedup = |cell: Cell| run.speedup(cell).expect("cell in the matrix");
    let mut captured = 0.0;
    let mut ceiling = 0.0;
    for w in NAMES {
        let best = speedup(Cell::new(
            w,
            SelectionSpec::Greedy,
            MachineSpec::unlimited(0),
        ));
        let got = speedup(Cell::new(
            w,
            SelectionSpec::selective_std(Some(4)),
            MachineSpec::with_pfus(4, 10),
        ));
        captured += got - 1.0;
        ceiling += best - 1.0;
    }
    assert!(
        captured > 0.55 * ceiling,
        "4-PFU selective captured only {:.0}% of the ceiling",
        100.0 * captured / ceiling
    );
}

#[test]
fn selection_gain_estimates_correlate_with_measured_savings() {
    // The selector's `total_gain` is an estimate of cycles saved; for a
    // single-loop kernel with one configuration it should land within 2×
    // of the measured cycle delta.
    let src = "
main:
    li  $s0, 5000
    li  $t0, 3
    li  $t1, 5
loop:
    sll  $t2, $t0, 4
    addu $t2, $t2, $t1
    xor  $t2, $t2, $t0
    xor  $t1, $t1, $t2
    andi $t1, $t1, 2047
    addiu $s0, $s0, -1
    bgtz $s0, loop
    move $a0, $t1
    li   $v0, 30
    syscall
    li   $a0, 0
    li   $v0, 10
    syscall
";
    let session = Session::from_asm(src).unwrap();
    let sel = session.select_shared(&StrategySpec::selective(&SelectConfig {
        pfus: Some(1),
        gain_threshold: 0.005,
        reload_weight: 0.0,
    }));
    assert_eq!(sel.num_confs(), 1);
    let estimated: u64 = sel.confs.iter().map(|c| c.total_gain).sum();
    let program = session.program();
    let base = simulate(program, &FusionMap::new(), CpuConfig::baseline()).unwrap();
    let fused = simulate(program, &sel.fusion, CpuConfig::with_pfus(1)).unwrap();
    let measured = base.timing.cycles - fused.timing.cycles;
    assert!(
        estimated / 2 <= measured && measured <= estimated * 2,
        "estimated {estimated} vs measured {measured}"
    );
}

#[test]
fn tighter_thresholds_select_fewer_forms() {
    let w = by_name("g721_enc", Scale::Test).unwrap();
    let session = Session::new(w.program().unwrap()).unwrap();
    let mut prev = usize::MAX;
    for threshold in [0.001, 0.01, 0.10, 0.90] {
        let sel = session.select_shared(&StrategySpec::selective(&SelectConfig {
            pfus: None,
            gain_threshold: threshold,
            reload_weight: 0.0,
        }));
        assert!(
            sel.num_confs() <= prev,
            "threshold {threshold} selected more forms than a looser one"
        );
        prev = sel.num_confs();
    }
    assert_eq!(prev, 0, "a 90% threshold must reject everything");
}

#[test]
fn wider_port_budgets_never_reduce_coverage() {
    let w = by_name("gsm_enc", Scale::Test).unwrap();
    let mut prev_gain = 0u64;
    for ports in [2usize, 3, 4] {
        let program = w.program().unwrap();
        let extract = t1000_core::ExtractConfig {
            max_inputs: ports,
            ..Default::default()
        };
        let session = Session::with_extract(program, extract).unwrap();
        let sel = session.select_shared(&StrategySpec::Greedy);
        let gain: u64 = sel.confs.iter().map(|c| c.total_gain).sum();
        assert!(
            gain >= prev_gain,
            "{ports}-input extraction lost gain ({gain} < {prev_gain})"
        );
        prev_gain = gain;
        for site in sel.fusion.sites() {
            assert!(site.inputs.len() <= ports);
        }
    }
}

#[test]
fn multicycle_extraction_extends_coverage_without_breaking_semantics() {
    let extract = t1000_core::ExtractConfig {
        max_pfu_latency: 3,
        max_len: 12,
        ..Default::default()
    };
    // The runner verifies the fused run against the Rust reference and
    // the baseline's architectural results.
    let opts = RunOptions::default();
    let runner = CellRunner::for_workload("mpeg2_dec", extract, Scale::Test, &opts).unwrap();
    let cell = Cell {
        extract,
        ..Cell::new(
            "mpeg2_dec",
            SelectionSpec::selective_std(Some(4)),
            MachineSpec::with_pfus(4, 10),
        )
    };
    let sel = runner.select(&cell.selection).unwrap();
    let fused = runner
        .run_cell_with(cell, Some(&sel), &opts)
        .unwrap_or_else(|cause| panic!("{cause}"));
    assert!(fused.cycles < runner.baseline_cycles());
    // Multi-cycle configs are allowed now; the simulator must honour any
    // latency the selector assigned.
    for c in &sel.confs {
        assert!(c.latency >= 1 && c.latency <= 3);
    }
}
