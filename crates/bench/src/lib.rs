//! # t1000-bench — experiment harness
//!
//! Regenerates every figure and table of the paper's evaluation.
//! `t1000 bench --all --scale full [--json FILE]` runs the paper's cells
//! once and prints Fig. 2, §4.1, Fig. 6, Fig. 7 and §5.2 as one report
//! ([`results::render_markdown`]), with every measurement in the
//! `BENCH_results.json` artifact. Each binary here prints one sweep the
//! report does not carry:
//!
//! | binary | artefact |
//! |---|---|
//! | `reconfig_sweep` | §5.2 — robustness up to 500-cycle reconfiguration |
//! | `bitwidth_sweep` | ablation: candidate bitwidth threshold |
//! | `ports_sweep` | ablation: PFU input-port budget |
//! | `width_sweep` | ablation: machine issue width (1/2/4/8-wide) |
//! | `pfu_policy_sweep` | ablation: PFU replacement policy (LRU/FIFO/random) |
//! | `branch_sweep` | ablation: branch predictor (perfect/static/bimodal/gshare) |
//! | `reload_sweep` | reload cost × prefetch depth × PFU count (config planes) |
//!
//! Run with `--release`; full-scale runs simulate millions of cycles.

// Robustness gate: library code must surface failures as typed errors,
// not unwrap/expect panics. Tests are exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod checkpoint;
pub mod engine;
pub mod fault;
pub mod json;
pub mod plan;
pub mod results;
pub mod runstats;

use std::time::Instant;
use t1000_core::{Error, Selection, Session};
use t1000_cpu::{CpuConfig, RunResult};
use t1000_workloads::{Scale, Workload};

/// Scale selection from the environment: `T1000_SCALE=test` switches the
/// harness to small inputs (used by integration tests and CI smoke runs).
pub fn scale_from_env() -> Scale {
    match std::env::var("T1000_SCALE").as_deref() {
        Ok("test") => Scale::Test,
        _ => Scale::Full,
    }
}

/// One benchmark's sessions and baseline run, shared across experiments.
pub struct Prepared {
    pub name: &'static str,
    pub session: Session,
    pub baseline: RunResult,
}

/// Assembles, profiles and baselines one workload.
pub fn prepare(w: &Workload) -> Result<Prepared, Error> {
    let program = w.program().map_err(Error::Asm)?;
    let session = Session::new(program)?;
    let baseline = session.run_baseline(CpuConfig::baseline())?;
    // The harness refuses to report results for an incorrect simulation.
    assert_eq!(
        baseline.sys.checksum,
        w.expected_checksum(),
        "{}: simulator checksum diverges from the Rust reference",
        w.name
    );
    Ok(Prepared {
        name: w.name,
        session,
        baseline,
    })
}

/// Runs one selection on one machine configuration and verifies
/// architectural results against the baseline.
pub fn run_verified(p: &Prepared, sel: &Selection, cpu: CpuConfig) -> RunResult {
    let run = p
        .session
        .run_with(sel, cpu)
        .unwrap_or_else(|e| panic!("{}: {e}", p.name));
    assert_eq!(
        run.sys, p.baseline.sys,
        "{}: fused run changed architectural results",
        p.name
    );
    run
}

/// Execution-time speedup over the prepared baseline (1.0 = no change,
/// >1 = faster), the y-axis of Figs. 2 and 6.
pub fn speedup(p: &Prepared, run: &RunResult) -> f64 {
    p.baseline.timing.cycles as f64 / run.timing.cycles as f64
}

/// Simple wall-clock section timer for harness progress output.
pub struct Timer(Instant, String);

impl Timer {
    pub fn start(label: &str) -> Timer {
        eprintln!("[t1000-bench] {label}...");
        Timer(Instant::now(), label.to_string())
    }
}

impl Drop for Timer {
    fn drop(&mut self) {
        eprintln!(
            "[t1000-bench] {} done in {:.1}s",
            self.1,
            self.0.elapsed().as_secs_f64()
        );
    }
}
