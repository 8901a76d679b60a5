//! Dynamic execution profiling — the `sim_profile` equivalent.
//!
//! Runs the program functionally (no timing) and collects, per static
//! instruction: execution count and the maximum *significant bitwidth*
//! seen across its source operands and its result. The paper's profiling
//! tool "generates detailed profiles on operand bit-width and instruction
//! execution time" (§4); candidates are arithmetic/logic instructions
//! whose profiled widths stay at or below a threshold (18 bits in the
//! paper's experiments).

use t1000_cpu::{DynInstr, ExecError, FuncCore, StepValues, SyscallState};
use t1000_isa::{FusionMap, Program};

/// Significant bitwidth of a value interpreted as a signed 32-bit integer:
/// the minimum number of bits (including the sign bit) that can represent
/// it in two's complement. `0` and `-1` need 1 bit; `255` needs 9 bits
/// (sign bit + 8); `-256` needs 9 bits.
pub fn signed_width(v: u32) -> u8 {
    let v = v as i32;
    if v >= 0 {
        (33 - (v as u32).leading_zeros()).min(32) as u8
    } else {
        (33 - (v as u32).leading_ones()).min(32) as u8
    }
}

/// Per-program dynamic profile.
#[derive(Clone, Debug)]
pub struct ExecProfile {
    text_base: u32,
    /// Execution count per static instruction.
    counts: Vec<u64>,
    /// Maximum operand/result width observed per static instruction
    /// (0 when never executed).
    widths: Vec<u8>,
    /// Total dynamic instructions.
    pub total: u64,
    /// Architectural side effects of the profiling run (checksum oracle).
    pub sys: SyscallState,
}

impl ExecProfile {
    /// Profiles `program` by running it to completion (functionally).
    /// `max_instructions` bounds the run (0 = unbounded).
    pub fn collect(program: &Program, max_instructions: u64) -> Result<ExecProfile, ExecError> {
        let fusion = FusionMap::new();
        let mut core = FuncCore::new(program, &fusion);
        core.limit_instructions(max_instructions);
        let mut counts = vec![0u64; program.len()];
        let mut widths = vec![0u8; program.len()];
        core.run_to_end(&mut |rec: &DynInstr, vals: StepValues| {
            debug_assert_eq!(rec.fused_len, 1, "profiling runs without fusion");
            let idx = ((rec.pc - program.text_base) / 4) as usize;
            counts[idx] += 1;
            let mut w = 0u8;
            for (r, v) in rec.gpr_uses().iter().zip(vals.srcs) {
                if r.is_some() {
                    w = w.max(signed_width(v));
                }
            }
            if let Some(res) = vals.result {
                w = w.max(signed_width(res));
            }
            widths[idx] = widths[idx].max(w);
        })?;
        Ok(ExecProfile {
            text_base: program.text_base,
            counts,
            widths,
            total: core.icount,
            sys: core.sys,
        })
    }

    fn idx(&self, pc: u32) -> usize {
        ((pc - self.text_base) / 4) as usize
    }

    /// Execution count of the instruction at `pc`.
    pub fn count(&self, pc: u32) -> u64 {
        self.counts.get(self.idx(pc)).copied().unwrap_or(0)
    }

    /// Maximum operand/result bitwidth observed at `pc` (0 if never
    /// executed).
    pub fn width(&self, pc: u32) -> u8 {
        self.widths.get(self.idx(pc)).copied().unwrap_or(0)
    }

    /// Whether the instruction at `pc` stayed within `max_width` bits on
    /// every dynamic execution (never-executed instructions fail — there
    /// is no evidence they are narrow).
    pub fn is_narrow(&self, pc: u32, max_width: u8) -> bool {
        let w = self.width(pc);
        w != 0 && w <= max_width
    }
}

/// Normalised profile weights: the denominator every selection strategy
/// divides a candidate's dynamic gain by. Extracted from [`ExecProfile`]
/// once per pipeline run (the `ProfileWeights` pass in `t1000-core`) so
/// strategies consume an explicit pass product instead of reaching into
/// the raw profile.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Weights {
    /// Total dynamic instructions of the profiling run, clamped to ≥ 1 so
    /// shares are always well-defined.
    pub total: u64,
}

impl Weights {
    /// Weights for a collected profile.
    pub fn of(profile: &ExecProfile) -> Weights {
        Weights {
            total: profile.total.max(1),
        }
    }

    /// The share of total execution a dynamic gain of `gain` cycles
    /// represents (the quantity the paper's 0.5 % threshold tests).
    pub fn share(&self, gain: u64) -> f64 {
        gain as f64 / self.total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use t1000_asm::assemble;

    #[test]
    fn weights_share_matches_manual_division() {
        let w = Weights { total: 2000 };
        assert_eq!(w.share(10), 10.0 / 2000.0);
        // An empty profile still divides by one, not zero.
        let p = assemble("main: li $v0, 10\n syscall\n").unwrap();
        let prof = ExecProfile::collect(&p, 0).unwrap();
        let w = Weights::of(&prof);
        assert!(w.total >= 1);
        assert!(w.share(0) == 0.0);
    }

    #[test]
    fn signed_width_basics() {
        assert_eq!(signed_width(0), 1);
        assert_eq!(signed_width(1), 2);
        assert_eq!(signed_width(-1i32 as u32), 1);
        assert_eq!(signed_width(127), 8);
        assert_eq!(signed_width(128), 9);
        assert_eq!(signed_width(-128i32 as u32), 8);
        assert_eq!(signed_width(-129i32 as u32), 9);
        assert_eq!(signed_width(0x0001_ffff), 18);
        assert_eq!(signed_width(0x7fff_ffff), 32);
        assert_eq!(signed_width(0x8000_0000), 32);
    }

    #[test]
    fn counts_reflect_loop_trip_counts() {
        let p = assemble(
            "
main:
    li $t0, 25
loop:
    addiu $t0, $t0, -1
    bgtz $t0, loop
    li $v0, 10
    syscall
",
        )
        .unwrap();
        let prof = ExecProfile::collect(&p, 0).unwrap();
        let loop_pc = p.symbol("loop").unwrap();
        assert_eq!(prof.count(loop_pc), 25);
        assert_eq!(prof.count(p.entry), 1);
        assert_eq!(prof.total, 1 + 25 * 2 + 2);
    }

    #[test]
    fn widths_track_operand_magnitudes() {
        let p = assemble(
            "
main:
    li   $t0, 5
    addu $t1, $t0, $t0      # small values: narrow
    li   $t2, 0x100000
    addu $t3, $t2, $t2      # 21-bit values: wide
    li   $v0, 10
    syscall
",
        )
        .unwrap();
        let prof = ExecProfile::collect(&p, 0).unwrap();
        let narrow_pc = p.text_base + 4;
        assert!(
            prof.is_narrow(narrow_pc, 18),
            "width {}",
            prof.width(narrow_pc)
        );
        // li 0x100000 is a single lui-free instruction? It needs lui+ori or
        // a single lui; find the wide addu by symbol arithmetic: it is the
        // instruction right before `li $v0`.
        let wide_pc = p.text_end() - 12;
        assert!(
            !prof.is_narrow(wide_pc, 18),
            "width {}",
            prof.width(wide_pc)
        );
        assert!(prof.is_narrow(wide_pc, 24));
    }

    #[test]
    fn never_executed_instructions_are_not_narrow() {
        let p = assemble(
            "
main:
    j end
    addu $t0, $t0, $t0   # dead code
end:
    li $v0, 10
    syscall
",
        )
        .unwrap();
        let prof = ExecProfile::collect(&p, 0).unwrap();
        assert_eq!(prof.count(p.text_base + 4), 0);
        assert!(!prof.is_narrow(p.text_base + 4, 32));
    }

    #[test]
    fn limit_aborts_runaway_programs() {
        let p = assemble("main: j main\n").unwrap();
        assert!(ExecProfile::collect(&p, 1000).is_err());
    }
}
