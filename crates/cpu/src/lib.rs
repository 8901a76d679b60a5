//! # t1000-cpu — the T1000 processor simulator
//!
//! An execute-at-fetch simulator of the T1000 architecture: a 4-issue
//! out-of-order superscalar (RUU-based, perfect branch prediction,
//! realistic caches and TLBs) whose datapath contains programmable
//! functional units (PFUs) executing compile-time-selected *extended
//! instructions* in a single cycle.
//!
//! * [`func::FuncCore`] — architectural execution with exact semantics,
//!   producing the dynamic instruction stream (fusion applied at fetch);
//! * [`ooo::OooCore`] — the cycle-level timing model;
//! * [`pfu::PfuArray`] — PFU configuration residency, LRU replacement and
//!   reconfiguration penalties;
//! * [`branch::Predictor`] — perfect/bimodal branch prediction;
//! * [`observe`] — zero-cost-when-disabled cycle attribution and event
//!   traces (see `docs/METRICS.md` for the full schema);
//! * [`machine::simulate`] — one-call program → [`machine::RunResult`];
//!   [`machine::simulate_with`] is the observed variant.
//!
//! A complete timed run in five lines:
//!
//! ```
//! use t1000_cpu::{simulate, CpuConfig};
//! use t1000_isa::FusionMap;
//!
//! let program = t1000_asm::assemble("main:\n li $v0, 10\n syscall\n").unwrap();
//! let run = simulate(&program, &FusionMap::new(), CpuConfig::baseline()).unwrap();
//! assert_eq!(run.timing.base_instructions, 2);
//! assert!(run.timing.cycles > 0);
//! ```

// Robustness gate: library code must surface failures as typed errors, not
// panics. Tests keep the ergonomic forms.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod branch;
pub mod config;
pub mod func;
pub mod machine;
pub mod observe;
pub mod ooo;
pub mod pfu;
pub mod syscall;

pub use branch::{BranchModel, BranchStats, Predictor};
pub use config::{CpuConfig, PfuCount};
pub use func::{DynInstr, ExecError, FuncCore, StepValues, ValueObserver};
pub use machine::{execute, simulate, simulate_with, simulate_with_faults, RunResult};
pub use observe::{
    AttrCollector, AttrDelta, CycleAttribution, CycleClass, NullSink, PcStalls, StallCause,
    TraceEvent, TraceSink, NUM_STALL_CAUSES, STALL_CAUSES,
};
pub use ooo::{FastPathStats, OooCore, RecordSource, TimingStats};
pub use pfu::{PfuArray, PfuOutcome, PfuReplacement, PfuStats};
pub use syscall::{Syscall, SyscallState};
