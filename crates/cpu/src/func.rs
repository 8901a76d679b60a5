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
//! A record carries only what the timing model reads, packed into 24
//! bytes: it is copied from the core through the fetch queue into the RUU,
//! so its size is paid on every hand-off. The text segment is decoded once
//! into per-word record templates; a step copies its template and fills in
//! the memory address and the branch outcome. Operand and result values
//! stay in the core ([`FuncCore::values`]), where bitwidth profiling reads
//! them.
//!
//! Fusion is applied here: when the PC lands on a [`FusedSite`], the whole
//! sequence executes architecturally (bit-identical results) but a single
//! `DynInstr` of class `Pfu` is emitted.

use crate::syscall::SyscallState;
use t1000_isa::{decode, DecodeError, FusedSite, FusionMap, Instr, Op, OpClass, Program, Reg};
use t1000_mem::Memory;

/// One dynamic (committed-path) instruction record: the timing-relevant
/// facts of one instruction or fused sequence. Records are compared as
/// plain values, so every field not in use holds a fixed filler (address
/// 0, conf 0, a no-register byte) and two records are equal exactly when
/// the timing model cannot tell them apart. The pipeline itself reads the
/// memory address only to hand it to the memory hierarchy; the replay
/// fast path compares records with the address masked out
/// (`DynInstr::shape`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct DynInstr {
    /// PC of the (first) instruction.
    pub pc: u32,
    /// Byte address of the memory access (0 when there is none).
    addr: u32,
    /// Execution latency on its functional unit.
    pub latency: u32,
    /// Number of base instructions this record covers (1 = not fused).
    pub fused_len: u32,
    /// PFU configuration id (0 unless [`HAS_CONF`] is set).
    conf: u16,
    /// Functional-unit class used by the timing model.
    pub class: OpClass,
    /// Destination general-purpose register index, or [`NO_REG`].
    def: u8,
    /// Source general-purpose register indices (packed to the front), or
    /// [`NO_REG`].
    uses: [u8; 2],
    /// [`MEM`], [`WRITE`], [`HILO_DEF`], [`HILO_USE`], [`BRANCH`],
    /// [`TAKEN`], [`BACKWARD`] and [`HAS_CONF`].
    flags: u8,
}

const _: () = assert!(std::mem::size_of::<DynInstr>() <= 24);

/// Register byte meaning "no register".
const NO_REG: u8 = u8::MAX;
/// The record accesses memory at `addr`.
const MEM: u8 = 1 << 0;
/// The memory access is a store.
const WRITE: u8 = 1 << 1;
/// HI/LO is written.
const HILO_DEF: u8 = 1 << 2;
/// HI/LO is read.
const HILO_USE: u8 = 1 << 3;
/// A conditional branch.
const BRANCH: u8 = 1 << 4;
/// The conditional branch was taken.
const TAKEN: u8 = 1 << 5;
/// The immediate is negative (for a branch: a backward displacement).
const BACKWARD: u8 = 1 << 6;
/// `conf` holds a PFU configuration id.
const HAS_CONF: u8 = 1 << 7;

fn reg_byte(r: Option<Reg>) -> u8 {
    r.map_or(NO_REG, |r| r.index() as u8)
}

fn byte_reg(b: u8) -> Option<Reg> {
    (b != NO_REG).then(|| Reg::from_field(u32::from(b)))
}

impl DynInstr {
    /// The template of base instruction `i` at `pc`: everything but the
    /// memory address and the branch outcome.
    pub(crate) fn of(pc: u32, i: &Instr) -> DynInstr {
        let mut uses = i.uses();
        let flag = |on: bool, bit: u8| if on { bit } else { 0 };
        let class = i.op.class();
        let is_mem = matches!(class, OpClass::Load | OpClass::Store);
        DynInstr {
            pc,
            addr: 0,
            latency: i.op.latency(),
            fused_len: 1,
            conf: 0,
            class,
            def: reg_byte(i.def()),
            uses: [reg_byte(uses.next()), reg_byte(uses.next())],
            flags: flag(is_mem, MEM)
                | flag(class == OpClass::Store, WRITE)
                | flag(i.writes_hilo(), HILO_DEF)
                | flag(i.reads_hilo(), HILO_USE)
                | flag(i.op.is_branch(), BRANCH)
                | flag(i.imm < 0, BACKWARD),
        }
    }

    /// The record of fused site `site`, whose PFU takes `latency` cycles.
    fn fused(site: &FusedSite, latency: u32) -> DynInstr {
        DynInstr {
            pc: site.pc,
            addr: 0,
            latency,
            fused_len: site.len,
            conf: site.conf,
            class: OpClass::Pfu,
            def: reg_byte(Some(site.output)),
            uses: [
                reg_byte(site.inputs.first().copied()),
                reg_byte(site.inputs.get(1).copied()),
            ],
            flags: HAS_CONF,
        }
    }

    /// This record without its memory address: everything the pipeline
    /// uses other than the argument it passes to the memory hierarchy.
    #[inline]
    pub(crate) fn shape(self) -> DynInstr {
        DynInstr { addr: 0, ..self }
    }

    /// Memory reference, if any: (byte address, is_write).
    #[inline]
    pub fn mem(&self) -> Option<(u32, bool)> {
        (self.flags & MEM != 0).then_some((self.addr, self.flags & WRITE != 0))
    }

    /// PFU configuration id for fused records.
    #[inline]
    pub fn conf(&self) -> Option<u16> {
        (self.flags & HAS_CONF != 0).then_some(self.conf)
    }

    /// Destination general-purpose register, if any.
    #[inline]
    pub fn gpr_def(&self) -> Option<Reg> {
        byte_reg(self.def)
    }

    /// Source general-purpose registers (≤ 2, packed to the front).
    #[inline]
    pub fn gpr_uses(&self) -> [Option<Reg>; 2] {
        self.uses.map(byte_reg)
    }

    /// Whether HI/LO is written.
    #[inline]
    pub fn hilo_def(&self) -> bool {
        self.flags & HILO_DEF != 0
    }

    /// Whether HI/LO is read.
    #[inline]
    pub fn hilo_use(&self) -> bool {
        self.flags & HILO_USE != 0
    }

    /// For conditional branches: whether the branch was taken. `None` for
    /// everything else.
    #[inline]
    pub fn taken(&self) -> Option<bool> {
        (self.flags & BRANCH != 0).then_some(self.flags & TAKEN != 0)
    }

    /// Whether the instruction's immediate is negative: for a branch, a
    /// backward (loop-closing) displacement. Always false for fused
    /// records.
    #[inline]
    pub fn backward(&self) -> bool {
        self.flags & BACKWARD != 0
    }
}

/// Operand and result values of the most recent step, for bitwidth
/// profiling.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StepValues {
    /// Values of the record's source registers, in
    /// [`DynInstr::gpr_uses`] order (0 where there is none), read before
    /// the step.
    pub srcs: [u32; 2],
    /// The value the step computed for its destination register, if it
    /// computes one. Written even when the destination is `$zero`; `None`
    /// for `jal`/`jalr`, whose link address is not a computed value.
    pub result: Option<u32>,
}

/// A text word decoded once: the instruction and its record template.
struct Decoded {
    instr: Instr,
    rec: DynInstr,
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
    /// The text segment decoded once, by word index. An undecodable word
    /// is an error only if it executes.
    text: Vec<Result<Decoded, DecodeError>>,
    /// The fused site starting at each word index, if any, with its
    /// record.
    sites: Vec<Option<(&'a FusedSite, DynInstr)>>,
    /// Operand and result values of the last step.
    values: StepValues,
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
            .map(|(off, &w)| {
                decode(w).map(|instr| Decoded {
                    instr,
                    rec: DynInstr::of(program.text_base + off, &instr),
                })
            })
            .collect();
        let mut sites = vec![None; program.text.len()];
        for site in fusion.sites() {
            if let Some(i) = text_index(program, site.pc) {
                let latency = fusion.def(site.conf).map_or(1, |d| d.pfu_latency);
                sites[i] = Some((site, DynInstr::fused(site, latency)));
            }
        }
        FuncCore {
            program,
            text,
            sites,
            values: StepValues::default(),
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

    /// Operand and result values of the most recent successful
    /// [`step`](FuncCore::step).
    pub fn values(&self) -> StepValues {
        self.values
    }

    fn reg(&self, r: Reg) -> u32 {
        self.regs[r.index()]
    }

    fn set_reg(&mut self, r: Reg, v: u32) {
        if !r.is_zero() {
            self.regs[r.index()] = v;
        }
    }

    /// The pre-decoded word at index `idx` (at address `pc`).
    fn decoded(&self, idx: usize, pc: u32) -> Result<&Decoded, ExecError> {
        match self.text.get(idx) {
            Some(Ok(d)) => Ok(d),
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
        let Some((site, rec)) = self.sites[idx] else {
            return self.exec_one(idx).map(Some);
        };
        if self.faulted_confs.contains(&site.conf) {
            // The site's configuration failed to load: execute the first
            // constituent unfused. The following PCs are not site starts,
            // so the rest of the sequence also runs scalar, at its true
            // latency.
            self.conf_fault_fallbacks += 1;
            return self.exec_one(idx).map(Some);
        }
        let input = |k: usize| site.inputs.get(k).map_or(0, |&r| self.reg(r));
        let srcs = [input(0), input(1)];
        // Execute every constituent architecturally. The selector
        // guarantees the sequence is pure ALU straight-line code, so
        // control cannot leave it mid-way; a hand-built site running past
        // the text segment reports the PC that left it.
        for k in 0..site.len {
            let d = self.decoded(idx + k as usize, rec.pc + 4 * k)?;
            let (i, def) = (d.instr, d.rec.gpr_def());
            debug_assert!(
                i.op.is_pfu_candidate(),
                "fused site at 0x{:x} contains non-ALU op {:?}",
                rec.pc,
                i.op
            );
            let r = self.exec_alu(&i);
            self.set_reg(def.unwrap_or(Reg::ZERO), r);
            self.icount += 1;
        }
        self.pc = site.end_pc();
        self.values = StepValues {
            srcs,
            result: Some(self.reg(site.output)),
        };
        Ok(Some(rec))
    }

    /// Executes the base instruction at word index `idx` (the current PC).
    fn exec_one(&mut self, idx: usize) -> Result<DynInstr, ExecError> {
        let pc = self.pc;
        let d = self.decoded(idx, pc)?;
        let (i, mut rec) = (d.instr, d.rec);
        self.icount += 1;
        let [u0, u1] = rec.gpr_uses();
        let srcs = [u0.map_or(0, |r| self.reg(r)), u1.map_or(0, |r| self.reg(r))];
        let mut result = None;

        let mut next_pc = pc.wrapping_add(4);
        use Op::*;
        match i.op {
            // ---- ALU ----
            op if op.is_pfu_candidate() => {
                let v = self.exec_alu(&i);
                self.set_reg(rec.gpr_def().unwrap_or(Reg::ZERO), v);
                result = Some(v);
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
                result = Some(v);
            }
            Mflo => {
                let v = self.lo;
                self.set_reg(i.rd, v);
                result = Some(v);
            }
            Mthi => self.hi = self.reg(i.rs),
            Mtlo => self.lo = self.reg(i.rs),
            // ---- memory ----
            Lb | Lbu | Lh | Lhu | Lw => {
                let addr = self.reg(i.rs).wrapping_add(i.imm as u32);
                let v = self.load(pc, i.op, addr)?;
                self.set_reg(i.rt, v);
                rec.addr = addr;
                result = Some(v);
            }
            Sb | Sh | Sw => {
                let addr = self.reg(i.rs).wrapping_add(i.imm as u32);
                self.store(pc, i.op, addr, self.reg(i.rt))?;
                rec.addr = addr;
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
                self.finished = done;
            }
            Break => self.finished = true,
            Ext => {
                // A literal `ext` opcode in the text (as opposed to a
                // fusion-map site) has no skeleton to execute; treat as a
                // decode-class error — the selector never emits these.
                return Err(ExecError::Decode(pc, t1000_isa::encode(&i)));
            }
            _ => unreachable!("op {:?} not covered", i.op),
        }

        if rec.flags & BRANCH != 0 && next_pc != pc.wrapping_add(4) {
            rec.flags |= TAKEN;
        }
        self.pc = next_pc;
        self.values = StepValues { srcs, result };
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
                assert_eq!(rec.conf(), Some(0));
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
        assert_eq!(c.step().unwrap_err(), ExecError::Decode(bad_pc, BAD));
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
        let (t0, t1) = (Reg::parse("t0").unwrap(), Reg::parse("t1").unwrap());
        assert_eq!(rec.pc, start);
        assert_eq!((rec.fused_len, rec.conf(), rec.latency), (4, Some(3), 2));
        assert_eq!(rec.class, OpClass::Pfu);
        assert_eq!(
            (rec.gpr_def(), rec.gpr_uses()),
            (Some(t1), [Some(t0), None])
        );
        assert_eq!(
            (rec.mem(), rec.taken(), rec.backward()),
            (None, None, false)
        );
        assert_eq!((rec.hilo_def(), rec.hilo_use()), (false, false));
        assert_eq!(
            c.values(),
            StepValues {
                srcs: [5, 0],
                result: Some((((5 << 2) + 5) ^ 3) - 5),
            }
        );
        assert_eq!(c.icount, 5, "one li plus the four fused instructions");
        assert_eq!(c.pc, start + 16);
        while c.step().unwrap().is_some() {}
        assert_eq!(c.icount, 7);
    }

    #[test]
    fn templates_agree_with_their_instructions_on_every_kernel() {
        use t1000_workloads::{Scale, NAMES};
        for name in NAMES {
            let w = t1000_workloads::by_name(name, Scale::Test).unwrap();
            let p = w.program().unwrap();
            let fusion = FusionMap::new();
            let c = FuncCore::new(&p, &fusion);
            let mut checked = 0;
            for (k, d) in c.text.iter().enumerate() {
                let Ok(Decoded { instr: i, rec }) = d else {
                    continue;
                };
                let ctx = format!("{name} word {k}: {i:?}");
                let mut uses = i.uses();
                let class = i.op.class();
                assert_eq!(rec.pc, p.text_base + 4 * k as u32, "{ctx}");
                assert_eq!(rec.gpr_def(), i.def(), "{ctx}");
                assert_eq!(rec.gpr_uses(), [uses.next(), uses.next()], "{ctx}");
                assert_eq!(rec.hilo_def(), i.writes_hilo(), "{ctx}");
                assert_eq!(rec.hilo_use(), i.reads_hilo(), "{ctx}");
                assert_eq!(rec.class, class, "{ctx}");
                assert_eq!(rec.latency, i.op.latency(), "{ctx}");
                assert_eq!(rec.backward(), i.imm < 0, "{ctx}");
                assert_eq!((rec.fused_len, rec.conf()), (1, None), "{ctx}");
                // Until a step fills them in: no address, not taken.
                let mem = matches!(class, OpClass::Load | OpClass::Store);
                let want_mem = mem.then_some((0, class == OpClass::Store));
                assert_eq!(rec.mem(), want_mem, "{ctx}");
                assert_eq!(rec.taken(), i.op.is_branch().then_some(false), "{ctx}");
                checked += 1;
            }
            assert!(
                checked * 2 > p.len(),
                "{name}: only {checked} words decoded"
            );
        }
    }

    #[test]
    fn records_carry_addresses_and_branch_outcomes() {
        let p = assemble(
            "
.data
buf: .word 7, 9
.text
main:
    la   $t0, buf
    li   $t2, 2
loop:
    lw   $t1, 4($t0)
    sh   $t1, 0($t0)
    addiu $t2, $t2, -1
    bgtz $t2, loop
    li   $v0, 10
    syscall
",
        )
        .unwrap();
        let fusion = FusionMap::new();
        let mut c = FuncCore::new(&p, &fusion);
        let buf = p.symbol("buf").unwrap();
        let mut seen = Vec::new();
        while let Some(rec) = c.step().unwrap() {
            seen.push((rec.mem(), rec.taken(), c.values().result));
        }
        let lw = (Some((buf + 4, false)), None, Some(9));
        let sh = (Some((buf, true)), None, None);
        #[rustfmt::skip]
        let want = [
            (None, None, Some(buf & 0xffff_0000)), (None, None, Some(buf)), (None, None, Some(2)),
            lw, sh, (None, None, Some(1)), (None, Some(true), None),
            lw, sh, (None, None, Some(0)), (None, Some(false), None),
            (None, None, Some(10)), (None, None, None),
        ];
        assert_eq!(seen, want);
        assert_eq!(c.mem.read_u32(buf), 9);
    }

    #[test]
    fn pc_escape_is_reported() {
        let p = assemble("main: nop\n").unwrap();
        let fusion = FusionMap::new();
        let mut c = FuncCore::new(&p, &fusion);
        c.step().unwrap();
        assert!(matches!(c.step(), Err(ExecError::PcOutOfRange(_))));
    }

    #[test]
    fn misaligned_word_access_is_reported() {
        let p = assemble("main: li $t0, 2\n lw $t1, 0($t0)\n").unwrap();
        let fusion = FusionMap::new();
        let mut c = FuncCore::new(&p, &fusion);
        c.step().unwrap(); // li
        let e = c.step().unwrap_err();
        assert!(matches!(e, ExecError::Unaligned { width: 4, .. }));
    }
}
