//! End-to-end integration: every benchmark runs to completion on every
//! machine configuration with bit-identical architectural results, and
//! the simulator agrees with the Rust reference implementations.
//!
//! The tests read one run of the paper's matrix ([`run_all_plan`]) at
//! test scale. The engine fails any cell whose checksum differs from the
//! Rust reference or whose architectural results differ from the
//! baseline's, so a completed cell is a verified one.

use std::sync::LazyLock;
use t1000_bench::engine::{execute, CellResult, EngineRun, SelectionRecord};
use t1000_bench::plan::{run_all_plan, Cell, MachineSpec, SelectionSpec};
use t1000_bench::results::render_failures;
use t1000_cpu::{simulate, CpuConfig};
use t1000_isa::FusionMap;
use t1000_workloads::{all, Scale};

static RUN: LazyLock<EngineRun> = LazyLock::new(|| {
    let run = execute(&run_all_plan(), Scale::Test);
    assert!(
        run.failures.is_empty(),
        "{}",
        render_failures(&run.failures)
    );
    run
});

fn cell(
    workload: &'static str,
    selection: SelectionSpec,
    machine: MachineSpec,
) -> &'static CellResult {
    let cell = Cell::new(workload, selection, machine);
    RUN.cell(cell)
        .unwrap_or_else(|| panic!("{workload}: no {cell:?} in the run"))
}

fn baseline(workload: &'static str) -> &'static CellResult {
    cell(
        workload,
        SelectionSpec::Baseline,
        MachineSpec::with_pfus(0, 0),
    )
}

fn selection(workload: &'static str, spec: SelectionSpec) -> &'static SelectionRecord {
    let cell = Cell::new(workload, spec, MachineSpec::with_pfus(0, 0));
    RUN.selection(cell).expect("selection")
}

#[test]
fn all_benchmarks_match_their_references_on_the_baseline() {
    for w in all(Scale::Test) {
        let base = baseline(w.name);
        assert_eq!(
            base.checksum,
            w.expected_checksum(),
            "{}: simulator checksum diverges from the Rust reference",
            w.name
        );
        assert!(base.cycles > 0);
        assert!(
            base.base_ipc > 0.2,
            "{}: IPC {:.2} implausibly low",
            w.name,
            base.base_ipc
        );
        assert!(base.base_ipc < 4.0, "{}: IPC exceeds machine width", w.name);
    }
}

#[test]
fn fusion_preserves_semantics_everywhere() {
    for w in all(Scale::Test) {
        let greedy = SelectionSpec::Greedy;
        let selective = SelectionSpec::selective_std(Some(2));
        // A cell completes only with the baseline's output, checksum and
        // exit code.
        for (spec, machine) in [
            (greedy, MachineSpec::unlimited(0)),
            (greedy, MachineSpec::with_pfus(2, 10)),
            (selective, MachineSpec::with_pfus(2, 10)),
            (selective, MachineSpec::with_pfus(2, 500)),
        ] {
            assert_eq!(cell(w.name, spec, machine).checksum, w.expected_checksum());
        }
    }
}

#[test]
fn base_instruction_counts_are_fusion_invariant() {
    for w in all(Scale::Test) {
        let spec = SelectionSpec::selective_std(Some(4));
        let run = cell(w.name, spec, MachineSpec::with_pfus(4, 10));
        assert_eq!(
            run.base_instructions,
            baseline(w.name).base_instructions,
            "{}: fused run must commit the same base instructions",
            w.name
        );
        let sel = selection(w.name, spec).selection();
        if sel.num_confs() > 0 {
            // Dynamic slots are a timing statistic the cell does not
            // record: simulate both runs directly.
            let program = w.program().unwrap();
            let base = simulate(&program, &FusionMap::new(), CpuConfig::baseline()).unwrap();
            let fused =
                simulate(&program, &sel.fusion, CpuConfig::with_pfus(4).reconfig(10)).unwrap();
            assert!(
                fused.timing.slots < base.timing.slots,
                "{}: fusion must reduce dynamic slots",
                w.name
            );
        }
    }
}

#[test]
fn pfu_counters_are_consistent() {
    for w in all(Scale::Test) {
        let spec = SelectionSpec::selective_std(Some(2));
        let run = cell(w.name, spec, MachineSpec::with_pfus(2, 10));
        let num_confs = selection(w.name, spec).num_confs;
        assert_eq!(
            run.ext_executed,
            run.conf_hits + run.reconfigurations,
            "{}: every ext execution is a tag hit or a reload",
            w.name
        );
        assert!(
            run.reconfigurations >= num_confs as u64 || num_confs == 0,
            "{}: each selected conf must load at least once if used",
            w.name
        );
    }
}
