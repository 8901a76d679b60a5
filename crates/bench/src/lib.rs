//! # t1000-bench — experiment harness
//!
//! Regenerates every figure and table of the paper's evaluation.
//! `t1000 bench --all --scale full [--json FILE]` runs the paper's cells
//! once and prints Fig. 2, §4.1, Fig. 6, Fig. 7 and §5.2 as one report
//! ([`results::render_markdown`]), with every measurement in the
//! `BENCH_results.json` artifact. `t1000 bench --plan NAME` runs one of
//! the sweeps the report does not carry ([`plan::NAMED_PLANS`]) through
//! the same engine, artifact and validator, and prints it as a pivot
//! table ([`results::render_pivot`]):
//!
//! | plan | sweep |
//! |---|---|
//! | `reconfig` | §5.2 — robustness up to 500-cycle reconfiguration |
//! | `bitwidth` | ablation: candidate bitwidth threshold |
//! | `ports` | ablation: PFU input-port budget |
//! | `width` | ablation: machine issue width (1/2/4/8-wide) |
//! | `branch` | ablation: branch predictor (perfect/static/bimodal/gshare) |
//! | `pfu_policy` | ablation: PFU replacement policy (LRU/FIFO/random) |
//! | `reload` | reload cost × prefetch depth × PFU count (config planes) |
//!
//! Run with `--release`; full-scale runs simulate millions of cycles.

// Robustness gate: library code must surface failures as typed errors,
// not unwrap/expect panics. Tests are exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod engine;
pub mod fault;
pub mod json;
pub mod plan;
pub mod results;
pub mod runstats;
pub mod spec;
