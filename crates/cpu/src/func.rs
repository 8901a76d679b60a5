//! Functional (architectural) core.
//!
//! Executes instructions with exact ISA semantics against a register file
//! and [`Memory`]. The timing model never computes values: the functional
//! core runs ahead, producing a stream of [`DynInstr`] records (an
//! "execute-at-fetch" trace, as in SimpleScalar), which the out-of-order
//! model consumes. This split also gives the paper's *perfect branch
//! prediction* for free: fetch simply follows the architecturally executed
//! path.
//!
//! Fusion is applied here: when the PC lands on a [`FusedSite`], the whole
//! sequence executes architecturally (bit-identical results) but a single
//! `DynInstr` of class `Pfu` is emitted.

use crate::syscall::SyscallState;
use t1000_isa::{decode, DecodeError, FusedSite, FusionMap, Instr, Op, OpClass, Program, Reg};
use t1000_mem::Memory;

/// One dynamic (committed-path) instruction record.
#[derive(Clone, Debug)]
pub struct DynInstr {
    /// PC of the (first) instruction.
    pub pc: u32,
    /// The decoded instruction (for fused records, the *first* of the
    /// sequence; `fused_len > 1` marks fusion).
    pub instr: Instr,
    /// Number of base instructions this record covers (1 = not fused).
    pub fused_len: u32,
    /// PFU configuration id for fused records.
    pub conf: Option<u16>,
    /// Functional-unit class used by the timing model.
    pub class: OpClass,
    /// Execution latency on its functional unit.
    pub latency: u32,
    /// Destination general-purpose register, if any.
    pub gpr_def: Option<Reg>,
    /// Source general-purpose registers (≤ 2).
    pub gpr_uses: [Option<Reg>; 2],
    /// Whether HI/LO is written / read.
    pub hilo_def: bool,
    pub hilo_use: bool,
    /// Memory reference, if any: (byte address, is_write).
    pub mem: Option<(u32, bool)>,
    /// Source operand values (for bitwidth profiling).
    pub src_vals: [u32; 2],
    /// Result value written to `gpr_def` (for bitwidth profiling).
    pub result: Option<u32>,
    /// For conditional branches: whether the branch was taken. `None`
    /// for everything else.
    pub taken: Option<bool>,
    /// Whether this instruction terminated the program.
    pub exits: bool,
}

impl DynInstr {
    /// The static part of the record of `i` at `pc`: everything but the
    /// operand values, result, memory access and branch outcome.
    fn of(pc: u32, i: Instr) -> DynInstr {
        let mut uses = i.uses();
        DynInstr {
            pc,
            instr: i,
            fused_len: 1,
            conf: None,
            class: i.op.class(),
            latency: i.op.latency(),
            gpr_def: i.def(),
            gpr_uses: [uses.next(), uses.next()],
            hilo_def: i.writes_hilo(),
            hilo_use: i.reads_hilo(),
            mem: None,
            src_vals: [0; 2],
            result: None,
            taken: None,
            exits: false,
        }
    }
}

/// Functional execution error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// PC left the text segment.
    PcOutOfRange(u32),
    /// Undecodable instruction word.
    Decode(u32, u32),
    /// Misaligned load/store.
    Unaligned { pc: u32, addr: u32, width: u32 },
    /// Unknown syscall selector.
    BadSyscall { pc: u32, code: u32 },
    /// Committed-instruction budget exhausted.
    InstrLimit(u64),
    /// Simulation-cycle fuel exhausted (see
    /// [`CpuConfig::max_cycles`](crate::config::CpuConfig::max_cycles)).
    CycleLimit(u64),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::PcOutOfRange(pc) => write!(f, "PC 0x{pc:x} outside text segment"),
            ExecError::Decode(pc, w) => write!(f, "undecodable word 0x{w:08x} at 0x{pc:x}"),
            ExecError::Unaligned { pc, addr, width } => {
                write!(
                    f,
                    "misaligned {width}-byte access to 0x{addr:x} at 0x{pc:x}"
                )
            }
            ExecError::BadSyscall { pc, code } => {
                write!(f, "unknown syscall {code} at 0x{pc:x}")
            }
            ExecError::InstrLimit(n) => write!(f, "instruction limit {n} exceeded"),
            ExecError::CycleLimit(n) => write!(f, "cycle fuel {n} exhausted"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Architectural machine state plus the program it runs.
pub struct FuncCore<'a> {
    program: &'a Program,
    fusion: &'a FusionMap,
    /// The text segment decoded once, by word index, into records whose
    /// static fields are filled in. An undecodable word is an error only
    /// if it executes.
    text: Vec<Result<DynInstr, DecodeError>>,
    /// The fused site starting at each word index, if any.
    sites: Vec<Option<&'a FusedSite>>,
    /// General-purpose registers.
    pub regs: [u32; 32],
    pub hi: u32,
    pub lo: u32,
    pub pc: u32,
    /// Memory image (owned: each run gets a fresh copy of the program's
    /// initial state).
    pub mem: Memory,
    /// Captured syscall effects.
    pub sys: SyscallState,
    /// Committed base instructions (fused sequences count their full
    /// length, so this is identical across fusion configurations).
    pub icount: u64,
    /// Fused-site visits that fell back to scalar execution because the
    /// site's PFU configuration is marked faulted (graceful degradation).
    pub conf_fault_fallbacks: u64,
    /// PFU configurations whose loads are injected to fail.
    faulted_confs: std::collections::HashSet<u16>,
    finished: bool,
}

impl<'a> FuncCore<'a> {
    /// Creates a core at the program entry with a loaded memory image and
    /// an initialised stack pointer.
    pub fn new(program: &'a Program, fusion: &'a FusionMap) -> FuncCore<'a> {
        let mut regs = [0u32; 32];
        regs[Reg::SP.index()] = t1000_isa::program::STACK_TOP;
        regs[Reg::GP.index()] = program.data_base;
        let text = (0..)
            .step_by(4)
            .zip(&program.text)
            .map(|(off, &w)| decode(w).map(|i| DynInstr::of(program.text_base + off, i)))
            .collect();
        let mut sites = vec![None; program.text.len()];
        for site in fusion.sites() {
            if let Some(i) = text_index(program, site.pc) {
                sites[i] = Some(site);
            }
        }
        FuncCore {
            program,
            fusion,
            text,
            sites,
            regs,
            hi: 0,
            lo: 0,
            pc: program.entry,
            mem: Memory::with_program(program),
            sys: SyscallState::new(),
            icount: 0,
            conf_fault_fallbacks: 0,
            faulted_confs: std::collections::HashSet::new(),
            finished: false,
        }
    }

    /// Marks PFU configurations as failed-to-load. Any fused site using
    /// one of them falls back to executing its original scalar sequence —
    /// graceful degradation: an extended instruction is semantically
    /// identical to the base sequence it replaced, so architectural
    /// results are unchanged and the run merely pays the sequence's true
    /// latency. Fallbacks are counted in
    /// [`conf_fault_fallbacks`](FuncCore::conf_fault_fallbacks).
    pub fn inject_conf_faults(&mut self, confs: impl IntoIterator<Item = u16>) {
        self.faulted_confs.extend(confs);
    }

    /// Whether the program has exited.
    pub fn finished(&self) -> bool {
        self.finished
    }

    fn reg(&self, r: Reg) -> u32 {
        self.regs[r.index()]
    }

    fn set_reg(&mut self, r: Reg, v: u32) {
        if !r.is_zero() {
            self.regs[r.index()] = v;
        }
    }

    /// The pre-decoded record at word index `idx` (at address `pc`).
    fn decoded(&self, idx: usize, pc: u32) -> Result<&DynInstr, ExecError> {
        match self.text.get(idx) {
            Some(Ok(rec)) => Ok(rec),
            Some(Err(e)) => Err(ExecError::Decode(pc, e.word)),
            None => Err(ExecError::PcOutOfRange(pc)),
        }
    }

    /// Executes one *dynamic* instruction: either a single base instruction
    /// or, when the PC starts a fused site, the whole fused sequence.
    /// Returns `None` once the program has finished.
    pub fn step(&mut self) -> Result<Option<DynInstr>, ExecError> {
        if self.finished {
            return Ok(None);
        }
        let Some(idx) = text_index(self.program, self.pc) else {
            return Err(ExecError::PcOutOfRange(self.pc));
        };
        if let Some(site) = self.sites[idx] {
            if self.faulted_confs.contains(&site.conf) {
                // The site's configuration failed to load: execute the
                // first constituent unfused. The following PCs are not
                // site starts, so the rest of the sequence also runs
                // scalar, at its true latency.
                self.conf_fault_fallbacks += 1;
                return self.exec_one(idx).map(Some);
            }
            let start_pc = self.pc;
            let in0 = site.inputs.first().copied();
            let in1 = site.inputs.get(1).copied();
            let src_vals = [
                in0.map_or(0, |r| self.reg(r)),
                in1.map_or(0, |r| self.reg(r)),
            ];
            let first = self.decoded(idx, start_pc)?.instr;
            // Execute every constituent architecturally. The selector
            // guarantees the sequence is pure ALU straight-line code, so
            // control cannot leave it mid-way; a hand-built site running
            // past the text segment reports the PC that left it.
            for k in 0..site.len {
                let pc = start_pc + 4 * k;
                let rec = self.decoded(idx + k as usize, pc)?;
                let (i, def) = (rec.instr, rec.gpr_def);
                debug_assert!(
                    i.op.is_pfu_candidate(),
                    "fused site at 0x{start_pc:x} contains non-ALU op {:?}",
                    i.op
                );
                let r = self.exec_alu(&i);
                self.set_reg(def.unwrap_or(Reg::ZERO), r);
                self.icount += 1;
            }
            self.pc = site.end_pc();
            let latency = self.fusion.def(site.conf).map_or(1, |d| d.pfu_latency);
            return Ok(Some(DynInstr {
                pc: start_pc,
                instr: first,
                fused_len: site.len,
                conf: Some(site.conf),
                class: OpClass::Pfu,
                latency,
                gpr_def: Some(site.output),
                gpr_uses: [in0, in1],
                hilo_def: false,
                hilo_use: false,
                mem: None,
                src_vals,
                result: Some(self.reg(site.output)),
                taken: None,
                exits: false,
            }));
        }
        self.exec_one(idx).map(Some)
    }

    /// Executes exactly one base instruction (no fusion).
    pub fn step_one(&mut self) -> Result<DynInstr, ExecError> {
        match text_index(self.program, self.pc) {
            Some(idx) => self.exec_one(idx),
            None => Err(ExecError::PcOutOfRange(self.pc)),
        }
    }

    /// Executes the base instruction at word index `idx` (the current PC).
    fn exec_one(&mut self, idx: usize) -> Result<DynInstr, ExecError> {
        let pc = self.pc;
        let mut rec = self.decoded(idx, pc)?.clone();
        let i = rec.instr;
        self.icount += 1;
        let [u0, u1] = rec.gpr_uses;
        rec.src_vals = [u0.map_or(0, |r| self.reg(r)), u1.map_or(0, |r| self.reg(r))];

        let mut next_pc = pc.wrapping_add(4);
        use Op::*;
        match i.op {
            // ---- ALU ----
            op if op.is_pfu_candidate() => {
                let v = self.exec_alu(&i);
                self.set_reg(rec.gpr_def.unwrap_or(Reg::ZERO), v);
                rec.result = Some(v);
            }
            // ---- multiply / divide / HI-LO ----
            Mult => {
                let p = (self.reg(i.rs) as i32 as i64) * (self.reg(i.rt) as i32 as i64);
                self.lo = p as u32;
                self.hi = (p >> 32) as u32;
            }
            Multu => {
                let p = (self.reg(i.rs) as u64) * (self.reg(i.rt) as u64);
                self.lo = p as u32;
                self.hi = (p >> 32) as u32;
            }
            Div => {
                let (a, b) = (self.reg(i.rs) as i32, self.reg(i.rt) as i32);
                // MIPS leaves HI/LO unpredictable on divide-by-zero; we
                // define a deterministic result so runs are reproducible.
                if b == 0 {
                    self.lo = u32::MAX;
                    self.hi = a as u32;
                } else {
                    self.lo = a.wrapping_div(b) as u32;
                    self.hi = a.wrapping_rem(b) as u32;
                }
            }
            Divu => {
                let (a, b) = (self.reg(i.rs), self.reg(i.rt));
                match a.checked_div(b) {
                    Some(q) => {
                        self.lo = q;
                        self.hi = a % b;
                    }
                    None => {
                        self.lo = u32::MAX;
                        self.hi = a;
                    }
                }
            }
            Mfhi => {
                let v = self.hi;
                self.set_reg(i.rd, v);
                rec.result = Some(v);
            }
            Mflo => {
                let v = self.lo;
                self.set_reg(i.rd, v);
                rec.result = Some(v);
            }
            Mthi => self.hi = self.reg(i.rs),
            Mtlo => self.lo = self.reg(i.rs),
            // ---- memory ----
            Lb | Lbu | Lh | Lhu | Lw => {
                let addr = self.reg(i.rs).wrapping_add(i.imm as u32);
                let v = self.load(pc, i.op, addr)?;
                self.set_reg(i.rt, v);
                rec.mem = Some((addr, false));
                rec.result = Some(v);
            }
            Sb | Sh | Sw => {
                let addr = self.reg(i.rs).wrapping_add(i.imm as u32);
                self.store(pc, i.op, addr, self.reg(i.rt))?;
                rec.mem = Some((addr, true));
            }
            // ---- control ----
            Beq => {
                if self.reg(i.rs) == self.reg(i.rt) {
                    next_pc = i.branch_target(pc);
                }
            }
            Bne => {
                if self.reg(i.rs) != self.reg(i.rt) {
                    next_pc = i.branch_target(pc);
                }
            }
            Blez => {
                if (self.reg(i.rs) as i32) <= 0 {
                    next_pc = i.branch_target(pc);
                }
            }
            Bgtz => {
                if (self.reg(i.rs) as i32) > 0 {
                    next_pc = i.branch_target(pc);
                }
            }
            Bltz => {
                if (self.reg(i.rs) as i32) < 0 {
                    next_pc = i.branch_target(pc);
                }
            }
            Bgez => {
                if (self.reg(i.rs) as i32) >= 0 {
                    next_pc = i.branch_target(pc);
                }
            }
            J => next_pc = i.jump_target(pc),
            Jal => {
                self.set_reg(Reg::RA, pc.wrapping_add(4));
                next_pc = i.jump_target(pc);
            }
            Jr => next_pc = self.reg(i.rs),
            Jalr => {
                let t = self.reg(i.rs);
                self.set_reg(i.rd, pc.wrapping_add(4));
                next_pc = t;
            }
            // ---- system ----
            Syscall => {
                let code = self.reg(Reg::V0);
                let arg = self.reg(Reg::A0);
                let done = self
                    .sys
                    .execute(code, arg)
                    .map_err(|e| ExecError::BadSyscall { pc, code: e.code })?;
                if done {
                    self.finished = true;
                    rec.exits = true;
                }
            }
            Break => {
                self.finished = true;
                rec.exits = true;
            }
            Ext => {
                // A literal `ext` opcode in the text (as opposed to a
                // fusion-map site) has no skeleton to execute; treat as a
                // decode-class error — the selector never emits these.
                return Err(ExecError::Decode(pc, t1000_isa::encode(&i)));
            }
            _ => unreachable!("op {:?} not covered", i.op),
        }

        if i.op.is_branch() {
            rec.taken = Some(next_pc != pc.wrapping_add(4));
        }
        self.pc = next_pc;
        Ok(rec)
    }

    /// Pure ALU evaluation (shared by normal and fused execution).
    fn exec_alu(&self, i: &Instr) -> u32 {
        use Op::*;
        let rs = self.reg(i.rs);
        let rt = self.reg(i.rt);
        match i.op {
            Sll => rt << (i.imm as u32 & 31),
            Srl => rt >> (i.imm as u32 & 31),
            Sra => ((rt as i32) >> (i.imm as u32 & 31)) as u32,
            Sllv => rt << (rs & 31),
            Srlv => rt >> (rs & 31),
            Srav => ((rt as i32) >> (rs & 31)) as u32,
            // `add`/`addi` are modelled without overflow traps (their
            // wrapping behaviour matches `addu`/`addiu`).
            Add | Addu => rs.wrapping_add(rt),
            Sub | Subu => rs.wrapping_sub(rt),
            And => rs & rt,
            Or => rs | rt,
            Xor => rs ^ rt,
            Nor => !(rs | rt),
            Slt => u32::from((rs as i32) < (rt as i32)),
            Sltu => u32::from(rs < rt),
            Addi | Addiu => rs.wrapping_add(i.imm as u32),
            Slti => u32::from((rs as i32) < i.imm),
            Sltiu => u32::from(rs < i.imm as u32),
            Andi => rs & (i.imm as u32 & 0xffff),
            Ori => rs | (i.imm as u32 & 0xffff),
            Xori => rs ^ (i.imm as u32 & 0xffff),
            Lui => (i.imm as u32 & 0xffff) << 16,
            _ => unreachable!("{:?} is not an ALU op", i.op),
        }
    }

    fn load(&mut self, pc: u32, op: Op, addr: u32) -> Result<u32, ExecError> {
        use Op::*;
        Ok(match op {
            Lb => self.mem.read_u8(addr) as i8 as i32 as u32,
            Lbu => self.mem.read_u8(addr) as u32,
            Lh => {
                self.check_align(pc, addr, 2)?;
                self.mem.read_u16(addr) as i16 as i32 as u32
            }
            Lhu => {
                self.check_align(pc, addr, 2)?;
                self.mem.read_u16(addr) as u32
            }
            Lw => {
                self.check_align(pc, addr, 4)?;
                self.mem.read_u32(addr)
            }
            _ => unreachable!(),
        })
    }

    fn store(&mut self, pc: u32, op: Op, addr: u32, v: u32) -> Result<(), ExecError> {
        use Op::*;
        match op {
            Sb => self.mem.write_u8(addr, v as u8),
            Sh => {
                self.check_align(pc, addr, 2)?;
                self.mem.write_u16(addr, v as u16)
            }
            Sw => {
                self.check_align(pc, addr, 4)?;
                self.mem.write_u32(addr, v)
            }
            _ => unreachable!(),
        }
        Ok(())
    }

    fn check_align(&self, pc: u32, addr: u32, width: u32) -> Result<(), ExecError> {
        if !addr.is_multiple_of(width) {
            Err(ExecError::Unaligned { pc, addr, width })
        } else {
            Ok(())
        }
    }
}

/// Word index of `pc` in the program's text segment, if it lies there.
fn text_index(program: &Program, pc: u32) -> Option<usize> {
    program
        .contains_pc(pc)
        .then(|| ((pc - program.text_base) / 4) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use t1000_asm::assemble;

    fn run(src: &str) -> FuncCore<'_> {
        // Leak the program so the core can borrow it in tests.
        let p = Box::leak(Box::new(assemble(src).unwrap()));
        let fusion = Box::leak(Box::new(FusionMap::new()));
        let mut core = FuncCore::new(p, fusion);
        let mut steps = 0;
        while !core.finished() {
            core.step().unwrap();
            steps += 1;
            assert!(steps < 1_000_000, "runaway test program");
        }
        core
    }

    #[test]
    fn arithmetic_and_exit() {
        let c = run("
main:
    li   $t0, 6
    li   $t1, 7
    mult $t0, $t1
    mflo $a0
    li   $v0, 1
    syscall          # print 42
    li   $v0, 10
    syscall
");
        assert_eq!(c.sys.output, "42\n");
        assert_eq!(c.sys.exit_code, Some(42));
    }

    #[test]
    fn loop_sums_correctly() {
        let c = run("
main:
    li   $t0, 10      # n
    li   $t1, 0       # sum
loop:
    addu $t1, $t1, $t0
    addiu $t0, $t0, -1
    bgtz $t0, loop
    move $a0, $t1
    li   $v0, 1
    syscall
    li   $v0, 10
    syscall
");
        assert_eq!(c.sys.output, "55\n");
    }

    #[test]
    fn memory_round_trip_and_sign_extension() {
        let c = run("
.data
buf: .space 16
.text
main:
    la   $t0, buf
    li   $t1, -2
    sw   $t1, 0($t0)
    lh   $t2, 0($t0)   # low halfword of -2 = 0xfffe → -2
    lbu  $t3, 1($t0)   # 0xff
    addu $a0, $t2, $t3
    li   $v0, 1
    syscall
    li   $v0, 10
    syscall
");
        assert_eq!(c.sys.output, format!("{}\n", -2 + 0xff));
    }

    #[test]
    fn shifts_and_compares() {
        let c = run("
main:
    li   $t0, -8
    sra  $t1, $t0, 1    # -4
    srl  $t2, $t0, 28   # 0xf
    slt  $t3, $t0, $zero # 1
    addu $a0, $t1, $t2
    addu $a0, $a0, $t3
    li   $v0, 1
    syscall
    li   $v0, 10
    syscall
");
        assert_eq!(c.sys.output, format!("{}\n", -4 + 0xf + 1));
    }

    #[test]
    fn division_semantics() {
        let c = run("
main:
    li  $t0, -7
    li  $t1, 2
    div $t0, $t1
    mflo $t2           # -3 (truncating)
    mfhi $t3           # -1
    addu $a0, $t2, $t3
    li  $v0, 1
    syscall
    li  $v0, 10
    syscall
");
        assert_eq!(c.sys.output, "-4\n");
    }

    #[test]
    fn jal_and_jr_call_return() {
        let c = run("
main:
    li   $a0, 5
    jal  double
    li   $v0, 1
    syscall
    li   $v0, 10
    syscall
double:
    addu $a0, $a0, $a0
    jr   $ra
");
        assert_eq!(c.sys.output, "10\n");
    }

    #[test]
    fn zero_register_is_immutable() {
        let c = run("
main:
    addiu $zero, $zero, 5
    move  $a0, $zero
    li    $v0, 1
    syscall
    li    $v0, 10
    syscall
");
        assert_eq!(c.sys.output, "0\n");
    }

    #[test]
    fn fused_site_produces_identical_architecture_state() {
        let src = "
main:
    li   $t0, 0x123
    li   $t1, 0x456
    sll  $t2, $t0, 4
    addu $t2, $t2, $t1
    xor  $t2, $t2, $t0
    move $a0, $t2
    li   $v0, 30
    syscall            # checksum
    li   $v0, 10
    syscall
";
        let p = assemble(src).unwrap();
        let base = FusionMap::new();
        let mut plain = FuncCore::new(&p, &base);
        while !plain.finished() {
            plain.step().unwrap();
        }

        // Fuse the three ALU ops (sll/addu/xor) at main+8(li is 1 word each).
        let start = p.text_base + 8;
        let mut fused = FusionMap::new();
        let skeleton: Vec<Instr> = (0..3).map(|k| p.instr_at(start + 4 * k).unwrap()).collect();
        fused.define(t1000_isa::ConfDef {
            conf: 0,
            skeleton,
            base_cycles: 3,
            pfu_latency: 1,
        });
        fused.add_site(t1000_isa::FusedSite {
            pc: start,
            len: 3,
            conf: 0,
            inputs: vec![Reg::parse("t0").unwrap(), Reg::parse("t1").unwrap()],
            output: Reg::parse("t2").unwrap(),
        });
        let mut core = FuncCore::new(&p, &fused);
        let mut dyn_count = 0;
        let mut saw_pfu = false;
        while !core.finished() {
            let rec = core.step().unwrap().unwrap();
            if rec.class == OpClass::Pfu {
                saw_pfu = true;
                assert_eq!(rec.fused_len, 3);
                assert_eq!(rec.conf, Some(0));
            }
            dyn_count += 1;
        }
        assert!(saw_pfu);
        assert_eq!(
            core.sys.checksum, plain.sys.checksum,
            "fusion must not change results"
        );
        assert_eq!(core.icount, plain.icount, "base icount is fusion-invariant");
        assert_eq!(dyn_count, plain.icount - 2, "three ops became one slot");
    }

    #[test]
    fn undecodable_words_fail_only_when_executed() {
        // REGIMM with an rt selector that names no branch.
        const BAD: u32 = (1 << 26) | (5 << 16);
        assert!(t1000_isa::decode(BAD).is_err());
        let mut p = assemble("main:\n li $v0, 10\n syscall\n").unwrap();
        p.text.push(BAD);
        let fusion = FusionMap::new();
        let mut c = FuncCore::new(&p, &fusion);
        while c.step().unwrap().is_some() {}
        assert!(c.finished());
        assert_eq!(c.icount, 2);

        // Jump straight onto the bad word.
        let bad_pc = p.text_base + 4 * (p.text.len() as u32 - 1);
        let mut c = FuncCore::new(&p, &fusion);
        c.pc = bad_pc;
        assert_eq!(c.step().unwrap_err(), ExecError::Decode(bad_pc, BAD));
        assert_eq!(c.step_one().unwrap_err(), ExecError::Decode(bad_pc, BAD));
        assert_eq!(c.icount, 0);
    }

    #[test]
    fn fused_site_counts_its_full_length() {
        let src = "
main:
    li   $t0, 5
    sll  $t1, $t0, 2
    addu $t1, $t1, $t0
    xori $t1, $t1, 3
    subu $t1, $t1, $t0
    li   $v0, 10
    syscall
";
        let p = assemble(src).unwrap();
        let start = p.text_base + 4;
        let mut fusion = FusionMap::new();
        let skeleton: Vec<Instr> = (0..4).map(|k| p.instr_at(start + 4 * k).unwrap()).collect();
        fusion.define(t1000_isa::ConfDef {
            conf: 3,
            skeleton,
            base_cycles: 4,
            pfu_latency: 2,
        });
        fusion.add_site(t1000_isa::FusedSite {
            pc: start,
            len: 4,
            conf: 3,
            inputs: vec![Reg::parse("t0").unwrap()],
            output: Reg::parse("t1").unwrap(),
        });
        let mut c = FuncCore::new(&p, &fusion);
        c.step().unwrap(); // li
        let rec = c.step().unwrap().unwrap();
        assert_eq!(rec.pc, start);
        assert_eq!(rec.instr, p.instr_at(start).unwrap());
        assert_eq!((rec.fused_len, rec.conf, rec.latency), (4, Some(3), 2));
        assert_eq!(rec.class, OpClass::Pfu);
        assert_eq!(rec.src_vals, [5, 0]);
        assert_eq!(rec.result, Some((((5 << 2) + 5) ^ 3) - 5));
        assert_eq!(c.icount, 5, "one li plus the four fused instructions");
        assert_eq!(c.pc, start + 16);
        while c.step().unwrap().is_some() {}
        assert_eq!(c.icount, 7);
    }

    #[test]
    fn pc_escape_is_reported() {
        let p = assemble("main: nop\n").unwrap();
        let fusion = FusionMap::new();
        let mut c = FuncCore::new(&p, &fusion);
        c.step().unwrap();
        assert!(matches!(c.step_one(), Err(ExecError::PcOutOfRange(_))));
    }

    #[test]
    fn misaligned_word_access_is_reported() {
        let p = assemble("main: li $t0, 2\n lw $t1, 0($t0)\n").unwrap();
        let fusion = FusionMap::new();
        let mut c = FuncCore::new(&p, &fusion);
        c.step().unwrap(); // li
        let e = c.step_one().unwrap_err();
        assert!(matches!(e, ExecError::Unaligned { width: 4, .. }));
    }
}
