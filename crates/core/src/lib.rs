//! # t1000-core — configurable extended-instruction selection
//!
//! The primary contribution of Zhou & Martonosi's IPPS 2000 paper: given a
//! program, automatically identify application-specific *extended
//! instructions* — dependent runs of narrow arithmetic/logic operations —
//! and decide which to implement on the T1000 processor's programmable
//! functional units (PFUs).
//!
//! * [`extract`] — liveness-checked candidate-sequence extraction under
//!   the 2-input/1-output port constraint;
//! * [`canon`] — structural canonicalisation (configuration sharing);
//! * [`pipeline`] — the staged selection pipeline: a typed
//!   [`PassManager`] threading a [`SelectionCtx`] through named passes;
//! * [`strategy`] — the pluggable [`SelectStrategy`] objects: **greedy**
//!   (§4), **selective** (§5, built on the k×k subsequence [`matrix`]),
//!   and the hwcost-budget-aware **knapsack**;
//! * [`select`] — shared selection types plus source-compatible wrappers
//!   over the pipeline;
//! * [`session::Session`] — the end-to-end façade
//!   (assemble → profile → select), memoising selections per
//!   [`StrategySpec`].
//!
//! Extracting extended instructions from a hot loop:
//!
//! ```
//! use t1000_core::{Session, StrategySpec};
//!
//! let session = Session::from_asm("
//! main:
//!     li  $s0, 100
//! loop:
//!     sll  $t2, $s0, 3
//!     xor  $t2, $t2, $s0
//!     andi $t2, $t2, 255
//!     addiu $s0, $s0, -1
//!     bgtz $s0, loop
//!     li   $v0, 10
//!     syscall
//! ").unwrap();
//!
//! let selection = session.select_shared(&StrategySpec::Greedy);
//! assert!(selection.num_confs() >= 1); // the sll/xor/andi run fuses
//! ```

// Robustness gate: library code must surface failures as typed errors, not
// panics. Tests keep the ergonomic forms.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod canon;
pub mod extract;
pub mod matrix;
pub mod pipeline;
pub mod select;
pub mod session;
pub mod strategy;

pub use canon::{canonicalize, CanonSeq};
pub use extract::{maximal_sites, subwindows, Analysis, CandidateSite, ExtractConfig};
pub use matrix::SubseqMatrix;
pub use pipeline::{
    run_selection, run_selection_from_program, Decision, DecisionLog, FormCost, Pass, PassManager,
    PassOutput, PassStat, PipelineTrace, PruneInfeasible, SelectionCtx, MAX_FEASIBLE_DEPTH,
};
pub use select::{greedy, selective, ChosenConf, SelectConfig, Selection};
pub use session::{
    program_hash, stable_hash64, SelectionCacheStats, Session, SessionStore, SessionStoreStats,
};
pub use strategy::{
    BudgetKnapsack, Greedy, SelectStrategy, Selective, StrategyOutcome, StrategySpec,
};

/// Errors from the end-to-end pipeline.
#[derive(Debug)]
pub enum Error {
    /// Assembly failed.
    Asm(t1000_asm::AsmError),
    /// The program text contains undecodable words.
    Decode(t1000_isa::DecodeError),
    /// Functional execution failed (bad PC, misalignment, runaway...).
    Exec(t1000_cpu::ExecError),
    /// A selection pass ran without its inputs — a custom pipeline wired
    /// the passes in an order that violates the `SelectionCtx` contract
    /// (`docs/PIPELINE.md`). The standard pipeline never produces this.
    Pipeline(String),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Asm(e) => write!(f, "assembly error: {e}"),
            Error::Decode(e) => write!(f, "decode error: {e}"),
            Error::Exec(e) => write!(f, "execution error: {e}"),
            Error::Pipeline(msg) => write!(f, "selection pipeline: {msg}"),
        }
    }
}

impl std::error::Error for Error {}
