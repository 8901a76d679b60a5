//! One-call simulation entry points combining the functional core and the
//! timing model.

use crate::config::CpuConfig;
use crate::func::{ExecError, FuncCore, NoValues};
use crate::observe::{NullSink, TraceSink};
use crate::ooo::{OooCore, TimingStats};
use crate::syscall::SyscallState;
use t1000_isa::{FusionMap, Program};

/// The complete result of simulating one program on one machine
/// configuration.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Timing statistics (cycles, IPC, PFU and cache behaviour).
    pub timing: TimingStats,
    /// Architectural side effects (output, checksum, exit code).
    pub sys: SyscallState,
}

impl RunResult {
    /// Execution-time speedup of this run relative to `baseline`
    /// (>1 = faster), the metric of the paper's Figures 2 and 6.
    pub fn speedup_over(&self, baseline: &RunResult) -> f64 {
        baseline.timing.cycles as f64 / self.timing.cycles as f64
    }
}

/// Simulates `program` (with extended instructions per `fusion`) on the
/// machine described by `cfg`, running it to completion.
pub fn simulate(
    program: &Program,
    fusion: &FusionMap,
    cfg: CpuConfig,
) -> Result<RunResult, ExecError> {
    simulate_with(program, fusion, cfg, &mut NullSink)
}

/// Like [`simulate`], but reporting cycle attribution and pipeline events
/// to `sink` (see [`crate::observe`]). Pass an
/// [`AttrCollector`](crate::observe::AttrCollector) to learn where the
/// cycles went:
///
/// ```
/// use t1000_cpu::{simulate_with, AttrCollector, CpuConfig};
/// use t1000_isa::FusionMap;
///
/// let program = t1000_asm::assemble("
/// main:
///     li $t0, 100
/// loop:
///     addu $t1, $t1, $t0
///     addiu $t0, $t0, -1
///     bgtz $t0, loop
///     li $v0, 10
///     syscall
/// ").unwrap();
/// let mut sink = AttrCollector::new();
/// let run = simulate_with(&program, &FusionMap::new(), CpuConfig::baseline(), &mut sink).unwrap();
/// let attr = &sink.attr;
/// assert_eq!(attr.total_cycles, run.timing.cycles);
/// assert!(attr.checks_out()); // busy + Σ stalls == total, always
/// ```
pub fn simulate_with<S: TraceSink>(
    program: &Program,
    fusion: &FusionMap,
    cfg: CpuConfig,
    sink: &mut S,
) -> Result<RunResult, ExecError> {
    simulate_with_faults(program, fusion, cfg, &[], sink)
}

/// Like [`simulate_with`], but with the PFU configurations in
/// `faulted_confs` injected to fail their loads. Every fused-site visit
/// using a faulted configuration gracefully degrades: the original scalar
/// sequence executes instead (paying its true multi-instruction latency),
/// and the visit is counted in [`crate::pfu::PfuStats::load_faults`].
/// Architectural
/// results are bit-identical to the fused path by construction — an
/// extended instruction is semantically equal to the sequence it replaced.
pub fn simulate_with_faults<S: TraceSink>(
    program: &Program,
    fusion: &FusionMap,
    cfg: CpuConfig,
    faulted_confs: &[u16],
    sink: &mut S,
) -> Result<RunResult, ExecError> {
    let mut func = FuncCore::new(program, fusion);
    func.inject_conf_faults(faulted_confs.iter().copied());
    func.limit_instructions(cfg.max_instructions);
    let mut ooo = OooCore::new(cfg);
    // Per-configuration stream sizes (recorded by the selector from the
    // hardware-cost model) feed the reload-traffic counter always, and
    // the reload latencies when stream compression is enabled.
    if let Some(max_conf) = fusion.defs().map(|d| d.conf).max() {
        let mut words = vec![0u32; max_conf as usize + 1];
        for d in fusion.defs() {
            if let Some(w) = fusion.stream_words(d.conf) {
                words[d.conf as usize] = w;
            }
        }
        let load_cycles = (cfg.conf_compress > 0.0).then(|| {
            words
                .iter()
                .map(|&w| {
                    // Configurations with no recorded stream size keep
                    // the flat latency.
                    if w == 0 {
                        cfg.reconfig_cycles
                    } else {
                        crate::pfu::compressed_reload_cycles(w, cfg.conf_compress)
                    }
                })
                .collect()
        });
        ooo.set_conf_tables(words, load_cycles);
    }
    let mut timing = ooo.run_with(&mut func, sink)?;
    timing.pfu.load_faults = func.conf_fault_fallbacks;
    Ok(RunResult {
        timing,
        sys: func.sys,
    })
}

/// Functionally executes `program` without timing (fast path for
/// profiling, differential tests and checksum oracles).
pub fn execute(
    program: &Program,
    fusion: &FusionMap,
    max_instructions: u64,
) -> Result<(SyscallState, u64), ExecError> {
    let mut func = FuncCore::new(program, fusion);
    func.limit_instructions(max_instructions);
    func.run_to_end(&mut NoValues)?;
    Ok((func.sys, func.icount))
}

#[cfg(test)]
mod tests {
    use super::*;
    use t1000_asm::assemble;

    #[test]
    fn simulate_and_execute_agree_on_architecture() {
        let p = assemble(
            "
main:
    li   $t0, 25
    li   $t1, 0
loop:
    addu $t1, $t1, $t0
    addiu $t0, $t0, -1
    bgtz $t0, loop
    move $a0, $t1
    li   $v0, 30
    syscall
    li   $v0, 10
    syscall
",
        )
        .unwrap();
        let fusion = FusionMap::new();
        let timed = simulate(&p, &fusion, CpuConfig::baseline()).unwrap();
        let (sys, icount) = execute(&p, &fusion, 0).unwrap();
        assert_eq!(timed.sys, sys);
        assert_eq!(timed.timing.base_instructions, icount);
        assert!(timed.timing.cycles > 0);
    }

    #[test]
    fn instruction_limit_aborts_infinite_loops() {
        let p = assemble("main: j main\n").unwrap();
        let fusion = FusionMap::new();
        let mut cfg = CpuConfig::baseline();
        cfg.max_instructions = 10_000;
        assert!(matches!(
            simulate(&p, &fusion, cfg),
            Err(ExecError::InstrLimit(10_000))
        ));
        assert!(execute(&p, &fusion, 5_000).is_err());
    }

    #[test]
    fn cycle_fuel_aborts_divergent_runs() {
        let p = assemble("main: j main\n").unwrap();
        let fusion = FusionMap::new();
        let mut cfg = CpuConfig::baseline();
        cfg.max_cycles = 1_000;
        assert!(matches!(
            simulate(&p, &fusion, cfg),
            Err(ExecError::CycleLimit(1_000))
        ));
        // A terminating program well under the budget is unaffected.
        let q = assemble("main:\n li $v0, 10\n syscall\n").unwrap();
        let mut roomy = CpuConfig::baseline();
        roomy.max_cycles = 1_000_000;
        let fueled = simulate(&q, &fusion, roomy).unwrap();
        let free = simulate(&q, &fusion, CpuConfig::baseline()).unwrap();
        assert_eq!(fueled.timing.cycles, free.timing.cycles);
    }

    #[test]
    fn speedup_metric_is_ratio_of_cycles() {
        let p = assemble("main:\n li $v0, 10\n syscall\n").unwrap();
        let fusion = FusionMap::new();
        let a = simulate(&p, &fusion, CpuConfig::baseline()).unwrap();
        let b = a.clone();
        assert!((a.speedup_over(&b) - 1.0).abs() < 1e-12);
    }
}
