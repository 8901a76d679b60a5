//! The paper's qualitative claims, asserted as tests. These encode the
//! *shape* of the evaluation — who wins, by roughly what factor, where
//! the crossovers fall — which is what a reproduction must preserve.
//!
//! Every claim reads the cells of one run of the paper's matrix
//! ([`run_all_plan`]) at test scale: the cells `t1000 bench --all`
//! reports, each checksum-verified against the Rust reference and
//! against the baseline's architectural results.

use std::sync::LazyLock;
use t1000_bench::engine::{execute, EngineRun, SelectionRecord};
use t1000_bench::plan::{run_all_plan, Cell, MachineSpec, SelectionSpec};
use t1000_bench::results::render_failures;
use t1000_workloads::{Scale, NAMES};

static RUN: LazyLock<EngineRun> = LazyLock::new(|| {
    let run = execute(&run_all_plan(), Scale::Test);
    assert!(
        run.failures.is_empty(),
        "{}",
        render_failures(&run.failures)
    );
    run
});

/// Speedup of `workload` under `selection` on `machine` over its
/// baseline (>1 = faster).
fn speedup(workload: &'static str, selection: SelectionSpec, machine: MachineSpec) -> f64 {
    let cell = Cell::new(workload, selection, machine);
    RUN.speedup(cell)
        .unwrap_or_else(|| panic!("{workload}: no {cell:?} in the run"))
}

/// The selection `spec` made for `workload`.
fn selection(workload: &'static str, spec: SelectionSpec) -> &'static SelectionRecord {
    let cell = Cell::new(workload, spec, MachineSpec::with_pfus(0, 0));
    RUN.selection(cell)
        .unwrap_or_else(|| panic!("{workload}: no {} selection", spec.strategy_id()))
}

/// §4.1 / Fig. 2 bar 2: greedy with unlimited PFUs and zero
/// reconfiguration cost speeds up every benchmark.
#[test]
fn claim_greedy_unlimited_always_wins() {
    for w in NAMES {
        let s = speedup(w, SelectionSpec::Greedy, MachineSpec::unlimited(0));
        assert!(s > 1.0, "{w}: greedy/unlimited speedup {s:.3} ≤ 1");
    }
}

/// §4.1 / Fig. 2 bar 3: greedy with 2 PFUs and a 10-cycle penalty is
/// "substantially worse than the original processor" — the PFU thrashes.
#[test]
fn claim_greedy_with_two_pfus_thrashes() {
    for w in NAMES {
        let machine = MachineSpec::with_pfus(2, 10);
        let s = speedup(w, SelectionSpec::Greedy, machine);
        assert!(s < 1.0, "{w}: greedy/2-PFU speedup {s:.3} should be < 1");
        let run = RUN
            .cell(Cell::new(w, SelectionSpec::Greedy, machine))
            .expect("cell");
        assert!(
            run.reconfigurations > 100,
            "{w}: thrashing means frequent reloads"
        );
    }
}

/// §4.1: the greedy algorithm finds sequences of length 2–8.
#[test]
fn claim_greedy_sequence_lengths_match_paper_range() {
    for w in NAMES {
        for c in &selection(w, SelectionSpec::Greedy).selection().confs {
            assert!(
                (2..=8).contains(&c.seq_len),
                "{w}: sequence length {} outside the paper's 2–8",
                c.seq_len
            );
        }
    }
}

/// Fig. 6: the selective algorithm with only 2 PFUs beats the baseline on
/// every benchmark (paper: 2–27 %).
#[test]
fn claim_selective_two_pfus_beats_baseline() {
    for w in NAMES {
        let s = speedup(
            w,
            SelectionSpec::selective_std(Some(2)),
            MachineSpec::with_pfus(2, 10),
        );
        assert!(s > 1.0, "{w}: selective/2-PFU speedup {s:.3} ≤ 1");
    }
}

/// Fig. 6: speedups are monotone in PFU count (2 ≤ 4 ≤ unlimited, within
/// simulator noise).
#[test]
fn claim_selective_speedups_monotone_in_pfus() {
    for w in NAMES {
        let mut prev = 0.0f64;
        for pfus in [Some(2usize), Some(4), None] {
            let machine = match pfus {
                Some(n) => MachineSpec::with_pfus(n, 10),
                None => MachineSpec::unlimited(10),
            };
            let s = speedup(w, SelectionSpec::selective_std(pfus), machine);
            assert!(
                s >= prev * 0.995,
                "{w}: speedup dropped from {prev:.3} with more PFUs ({s:.3})"
            );
            prev = s;
        }
    }
}

/// §5.2: selective speedups are retained "even with reconfiguration times
/// as high as 500 cycles".
#[test]
fn claim_selective_robust_to_500_cycle_reconfiguration() {
    for w in NAMES {
        let selective = SelectionSpec::selective_std(Some(2));
        let fast = speedup(w, selective, MachineSpec::with_pfus(2, 10));
        let slow = speedup(w, selective, MachineSpec::with_pfus(2, 500));
        assert!(slow > 1.0, "{w}: slow-reconfig speedup {slow:.3} ≤ 1");
        assert!(
            slow > 0.80 * fast,
            "{w}: 500-cycle reconfiguration lost too much ({fast:.3} → {slow:.3})"
        );
    }
}

/// §6 / Fig. 7: every selected extended instruction fits a PFU of < 150
/// LUTs and evaluates in a single cycle.
#[test]
fn claim_selected_instructions_fit_the_pfu_budget() {
    for w in NAMES {
        for spec in [SelectionSpec::Greedy, SelectionSpec::selective_std(Some(4))] {
            for c in &selection(w, spec).selection().confs {
                assert!(
                    c.cost.luts < 150,
                    "{w}: conf {} needs {} LUTs",
                    c.conf,
                    c.cost.luts
                );
                assert!(c.cost.single_cycle(), "{w}: conf {} too deep", c.conf);
            }
        }
    }
}

/// §1: extended instructions respect the 2-input / 1-output register-port
/// constraint.
#[test]
fn claim_port_constraints_hold() {
    for w in NAMES {
        for site in selection(w, SelectionSpec::Greedy)
            .selection()
            .fusion
            .sites()
        {
            assert!(site.inputs.len() <= 2, "{w}: site at 0x{:x}", site.pc);
        }
    }
}
