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
//! # Micro-ops
//!
//! [`FuncCore::new`] resolves each text word once into a micro-op: its
//! operation, its registers as byte indices, its immediate already
//! sign-extended, masked or shifted into the operand the operation reads,
//! its absolute branch or jump target, and its record template. A word
//! that does not decode (or a literal `ext`) becomes a micro-op that fails
//! when it executes, so it is an error only if the program reaches it.
//!
//! Fusion is applied here: when the PC lands on a [`FusedSite`], the whole
//! sequence executes architecturally (bit-identical results) but a single
//! `DynInstr` of class `Pfu` is emitted. The site is one micro-op over a
//! slice of its constituents' ALU micro-ops; the base instruction and the
//! fused site evaluate an ALU operation through the same function.
//!
//! # Batches
//!
//! [`FuncCore::run`] is the one interpreter loop. It appends records to a
//! caller-provided buffer until the batch is full, the program finishes
//! or an instruction fails. Every client drains it: the pipeline (through
//! [`RecordSource`]), [`execute`](crate::execute), bitwidth profiling and
//! [`FuncCore::step`]. A record carries only what the timing model reads,
//! packed into 24 bytes, since it is copied from the batch through the
//! fetch queue into the RUU. Operand and result values go to a
//! [`ValueObserver`] instead; the loop is monomorphized per observer, so
//! a run that wants no values (the pipeline's, `execute`'s) never reads
//! one.
//!
//! # Positional errors
//!
//! A failing instruction emits no record: `run` returns its error after
//! the records that precede it. A consumer that buffers a batch hands out
//! those records first and reports the error when it is asked for the
//! record that failed, so an error reaches the pipeline at exactly the
//! fetch that would have pulled the instruction.

use crate::ooo::RecordSource;
use crate::syscall::SyscallState;
use t1000_isa::{decode, encode, FusedSite, FusionMap, Instr, Op, OpClass, Program, Reg};
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

    /// Whether `self` and `other` differ at most in their memory address:
    /// `self.shape() == other.shape()`, compared in place.
    #[inline]
    pub(crate) fn same_shape(&self, other: &DynInstr) -> bool {
        self.pc == other.pc
            && self.latency == other.latency
            && self.fused_len == other.fused_len
            && self.conf == other.conf
            && self.class == other.class
            && self.def == other.def
            && self.uses == other.uses
            && self.flags == other.flags
    }

    /// Whether the record is a taken conditional branch, the end of a
    /// replay segment: one test of the flags.
    #[inline]
    pub(crate) fn ends_segment(&self) -> bool {
        self.flags & (BRANCH | TAKEN) == BRANCH | TAKEN
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

/// Operand and result values of one record, for bitwidth profiling.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StepValues {
    /// Values of the record's source registers, in
    /// [`DynInstr::gpr_uses`] order (0 where there is none), read before
    /// the record executed.
    pub srcs: [u32; 2],
    /// The value the record computed for its destination register, if it
    /// computes one. Written even when the destination is `$zero`; `None`
    /// for `jal`/`jalr`, whose link address is not a computed value.
    pub result: Option<u32>,
}

/// Receives the operand and result values of every record
/// [`FuncCore::run`] executes. A closure
/// `FnMut(&DynInstr, StepValues)` is an observer.
pub trait ValueObserver {
    /// Whether the observer wants values at all. When false the
    /// interpreter reads none, and [`observe`](ValueObserver::observe) is
    /// never called.
    const ON: bool = true;

    /// Called after each record executes, with its values.
    fn observe(&mut self, rec: &DynInstr, values: StepValues);
}

/// The observer that wants no values.
pub(crate) struct NoValues;

impl ValueObserver for NoValues {
    const ON: bool = false;

    fn observe(&mut self, _: &DynInstr, _: StepValues) {}
}

impl<F: FnMut(&DynInstr, StepValues)> ValueObserver for F {
    fn observe(&mut self, rec: &DynInstr, values: StepValues) {
        self(rec, values)
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

/// What a micro-op does. The ALU kinds come first ([`Kind::is_alu`]) and
/// compute `op(a, b)` with `a = regs[s]` and `b = regs[t] | imm`: a
/// register form has `imm = 0`, an immediate form reads `$zero` as `t`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    // ---- ALU (a shift shifts `a` by `b & 31`) ----
    Add,
    Sub,
    And,
    Or,
    Xor,
    Nor,
    Slt,
    Sltu,
    Sll,
    Srl,
    Sra,
    // ---- multiply / divide / HI-LO ----
    Mult,
    Multu,
    Div,
    Divu,
    Mfhi,
    Mflo,
    Mthi,
    Mtlo,
    // ---- memory, at `regs[s] + imm`; a store writes `regs[t]` ----
    Lb,
    Lbu,
    Lh,
    Lhu,
    Lw,
    Sb,
    Sh,
    Sw,
    // ---- control, to `target` ----
    Beq,
    Bne,
    Blez,
    Bgtz,
    Bltz,
    Bgez,
    /// `j`, and `jal` when `d` is `$ra`: links `d` (discarded as `$zero`).
    J,
    /// `jr`, and `jalr` when `d` is not `$zero`: jumps to `regs[s]`.
    Jr,
    // ---- system ----
    Syscall,
    Break,
    /// The fused site `sites[imm]`.
    Fused,
    /// Fails with `faults[imm]`.
    Fault,
}

impl Kind {
    fn is_alu(self) -> bool {
        self as u8 <= Kind::Sra as u8
    }
}

/// One text word, resolved once.
#[derive(Clone, Copy, Debug)]
struct Uop {
    kind: Kind,
    /// Destination register index (0 when there is none).
    d: u8,
    /// Source register indices (0 when there is none).
    s: u8,
    t: u8,
    /// Immediate operand, memory offset, or index into `sites`/`faults`.
    imm: u32,
    /// Absolute branch or jump target.
    target: u32,
    /// The record template.
    rec: DynInstr,
}

impl Uop {
    /// Resolves word `word` at `pc`; a word that cannot execute becomes a
    /// [`Kind::Fault`] whose error is pushed onto `faults`.
    fn resolve(pc: u32, word: u32, faults: &mut Vec<ExecError>) -> Uop {
        let i = match decode(word) {
            Ok(i) if i.op != Op::Ext => i,
            // A literal `ext` opcode in the text (as opposed to a
            // fusion-map site) has no skeleton to execute; treat as a
            // decode-class error — the selector never emits these.
            Ok(i) => return Uop::fault(ExecError::Decode(pc, encode(&i)), faults),
            Err(e) => return Uop::fault(ExecError::Decode(pc, e.word), faults),
        };
        let r = |r: Reg| r.index() as u8;
        let (rd, rs, rt, def) = (r(i.rd), r(i.rs), r(i.rt), r(i.def().unwrap_or(Reg::ZERO)));
        let imm = i.imm as u32;
        let half = imm & 0xffff;
        use Kind as K;
        use Op::*;
        #[rustfmt::skip]
        let (kind, d, s, t, imm) = match i.op {
            Sll => (K::Sll, def, rt, 0, imm & 31),
            Srl => (K::Srl, def, rt, 0, imm & 31),
            Sra => (K::Sra, def, rt, 0, imm & 31),
            Sllv => (K::Sll, def, rt, rs, 0),
            Srlv => (K::Srl, def, rt, rs, 0),
            Srav => (K::Sra, def, rt, rs, 0),
            // `add`/`addi` are modelled without overflow traps (their
            // wrapping behaviour matches `addu`/`addiu`).
            Add | Addu => (K::Add, def, rs, rt, 0),
            Sub | Subu => (K::Sub, def, rs, rt, 0),
            And => (K::And, def, rs, rt, 0),
            Or => (K::Or, def, rs, rt, 0),
            Xor => (K::Xor, def, rs, rt, 0),
            Nor => (K::Nor, def, rs, rt, 0),
            Slt => (K::Slt, def, rs, rt, 0),
            Sltu => (K::Sltu, def, rs, rt, 0),
            Addi | Addiu => (K::Add, def, rs, 0, imm),
            Slti => (K::Slt, def, rs, 0, imm),
            Sltiu => (K::Sltu, def, rs, 0, imm),
            Andi => (K::And, def, rs, 0, half),
            Ori => (K::Or, def, rs, 0, half),
            Xori => (K::Xor, def, rs, 0, half),
            Lui => (K::Or, def, 0, 0, half << 16),
            Mult => (K::Mult, 0, rs, rt, 0),
            Multu => (K::Multu, 0, rs, rt, 0),
            Div => (K::Div, 0, rs, rt, 0),
            Divu => (K::Divu, 0, rs, rt, 0),
            Mfhi => (K::Mfhi, rd, 0, 0, 0),
            Mflo => (K::Mflo, rd, 0, 0, 0),
            Mthi => (K::Mthi, 0, rs, 0, 0),
            Mtlo => (K::Mtlo, 0, rs, 0, 0),
            Lb => (K::Lb, rt, rs, 0, imm),
            Lbu => (K::Lbu, rt, rs, 0, imm),
            Lh => (K::Lh, rt, rs, 0, imm),
            Lhu => (K::Lhu, rt, rs, 0, imm),
            Lw => (K::Lw, rt, rs, 0, imm),
            Sb => (K::Sb, 0, rs, rt, imm),
            Sh => (K::Sh, 0, rs, rt, imm),
            Sw => (K::Sw, 0, rs, rt, imm),
            Beq => (K::Beq, 0, rs, rt, 0),
            Bne => (K::Bne, 0, rs, rt, 0),
            Blez => (K::Blez, 0, rs, 0, 0),
            Bgtz => (K::Bgtz, 0, rs, 0, 0),
            Bltz => (K::Bltz, 0, rs, 0, 0),
            Bgez => (K::Bgez, 0, rs, 0, 0),
            J => (K::J, 0, 0, 0, 0),
            Jal => (K::J, r(Reg::RA), 0, 0, 0),
            Jr => (K::Jr, 0, rs, 0, 0),
            Jalr => (K::Jr, rd, rs, 0, 0),
            Syscall => (K::Syscall, 0, 0, 0, 0),
            Break => (K::Break, 0, 0, 0, 0),
            Ext => unreachable!("resolved as a fault above"),
        };
        let target = if i.op.is_branch() {
            i.branch_target(pc)
        } else if matches!(i.op, J | Jal) {
            i.jump_target(pc)
        } else {
            0
        };
        Uop {
            kind,
            d,
            s,
            t,
            imm,
            target,
            rec: DynInstr::of(pc, &i),
        }
    }

    /// A micro-op that fails with `e`.
    fn fault(e: ExecError, faults: &mut Vec<ExecError>) -> Uop {
        faults.push(e);
        Uop {
            kind: Kind::Fault,
            d: 0,
            s: 0,
            t: 0,
            imm: faults.len() as u32 - 1,
            target: 0,
            rec: DynInstr::of(0, &Instr::NOP),
        }
    }
}

/// The ALU operation `kind` on operands `a` and `b`: the one definition
/// of ALU semantics, for base instructions and fused sites alike.
#[inline(always)]
fn alu(kind: Kind, a: u32, b: u32) -> u32 {
    match kind {
        Kind::Add => a.wrapping_add(b),
        Kind::Sub => a.wrapping_sub(b),
        Kind::And => a & b,
        Kind::Or => a | b,
        Kind::Xor => a ^ b,
        Kind::Nor => !(a | b),
        Kind::Slt => u32::from((a as i32) < (b as i32)),
        Kind::Sltu => u32::from(a < b),
        Kind::Sll => a << (b & 31),
        Kind::Srl => a >> (b & 31),
        Kind::Sra => ((a as i32) >> (b & 31)) as u32,
        _ => unreachable!("{kind:?} is not an ALU micro-op"),
    }
}

/// The register-file index of register byte `r` (always below 32; the
/// mask only spares the bounds check).
#[inline(always)]
fn slot(r: u8) -> usize {
    usize::from(r & 31)
}

/// A conditional branch's outcome: to `target` if `taken`, marking the
/// record taken unless the target is the next word anyway.
#[inline(always)]
fn branch(rec: &mut DynInstr, next: &mut u32, target: u32, taken: bool) {
    if taken && target != *next {
        *next = target;
        rec.flags |= TAKEN;
    }
}

/// A fused site, resolved once.
struct Site {
    /// Its constituents' micro-ops, in `site_ops`.
    ops: std::ops::Range<usize>,
    conf: u16,
    /// The site's configuration failed to load (see
    /// [`FuncCore::inject_conf_faults`]).
    faulted: bool,
}

/// Records per batch that the pipeline and [`FuncCore::run_to_end`] ask
/// for: 6 KiB, so a batch stays in the L1 cache while it is consumed.
const BATCH: usize = 256;

/// Architectural machine state plus the program it runs.
pub struct FuncCore<'a> {
    program: &'a Program,
    /// The text segment resolved once, by word index.
    ops: Vec<Uop>,
    /// The fused sites [`Kind::Fused`] micro-ops name.
    sites: Vec<Site>,
    /// Every site's constituents, each a copy of its word's micro-op.
    site_ops: Vec<Uop>,
    /// The errors [`Kind::Fault`] micro-ops raise.
    faults: Vec<ExecError>,
    /// Operand and result values of the last [`step`](FuncCore::step).
    values: StepValues,
    /// Committed instructions at which [`ExecError::InstrLimit`] fires
    /// (`u64::MAX` when unbounded).
    budget: u64,
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
    finished: bool,
}

impl<'a> FuncCore<'a> {
    /// Creates a core at the program entry with a loaded memory image and
    /// an initialised stack pointer.
    pub fn new(program: &'a Program, fusion: &'a FusionMap) -> FuncCore<'a> {
        let mut regs = [0u32; 32];
        regs[Reg::SP.index()] = t1000_isa::program::STACK_TOP;
        regs[Reg::GP.index()] = program.data_base;
        let mut faults = Vec::new();
        let mut ops: Vec<Uop> = (program.text_base..)
            .step_by(4)
            .zip(&program.text)
            .map(|(pc, &w)| Uop::resolve(pc, w, &mut faults))
            .collect();
        // Every site's constituents are resolved from the plain words
        // before any site start is replaced by its fused micro-op.
        let (mut sites, mut site_ops, mut starts) = (Vec::new(), Vec::new(), Vec::new());
        for site in fusion.sites() {
            let Some(idx) = text_index(program, site.pc) else {
                continue;
            };
            let first = site_ops.len();
            for k in 0..site.len {
                // A hand-built site running past the text segment fails
                // at the PC that left it.
                let pc = site.pc + 4 * k;
                site_ops.push(match ops.get(idx + k as usize) {
                    Some(&u) => u,
                    None => Uop::fault(ExecError::PcOutOfRange(pc), &mut faults),
                });
            }
            let latency = fusion.def(site.conf).map_or(1, |d| d.pfu_latency);
            starts.push((
                idx,
                Uop {
                    kind: Kind::Fused,
                    d: site.output.index() as u8,
                    s: 0,
                    t: 0,
                    imm: sites.len() as u32,
                    target: site.end_pc(),
                    rec: DynInstr::fused(site, latency),
                },
            ));
            sites.push(Site {
                ops: first..site_ops.len(),
                conf: site.conf,
                faulted: false,
            });
        }
        for (idx, u) in starts {
            ops[idx] = u;
        }
        FuncCore {
            program,
            ops,
            sites,
            site_ops,
            faults,
            values: StepValues::default(),
            budget: u64::MAX,
            regs,
            hi: 0,
            lo: 0,
            pc: program.entry,
            mem: Memory::with_program(program),
            sys: SyscallState::new(),
            icount: 0,
            conf_fault_fallbacks: 0,
            finished: false,
        }
    }

    /// Bounds the run to `max_instructions` committed base instructions
    /// (0 = unbounded): [`run`](FuncCore::run) fails with
    /// [`ExecError::InstrLimit`] instead of starting a record past it.
    pub fn limit_instructions(&mut self, max_instructions: u64) {
        self.budget = match max_instructions {
            0 => u64::MAX,
            n => n,
        };
    }

    /// Marks PFU configurations as failed-to-load. Any fused site using
    /// one of them falls back to executing its original scalar sequence —
    /// graceful degradation: an extended instruction is semantically
    /// identical to the base sequence it replaced, so architectural
    /// results are unchanged and the run merely pays the sequence's true
    /// latency. Fallbacks are counted in
    /// [`conf_fault_fallbacks`](FuncCore::conf_fault_fallbacks).
    pub fn inject_conf_faults(&mut self, confs: impl IntoIterator<Item = u16>) {
        let confs: Vec<u16> = confs.into_iter().collect();
        for site in &mut self.sites {
            site.faulted |= confs.contains(&site.conf);
        }
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

    /// Executes one *dynamic* instruction: either a single base instruction
    /// or, when the PC starts a fused site, the whole fused sequence.
    /// Returns `None` once the program has finished. A batch of one
    /// through [`run`](FuncCore::run), which also keeps the record's
    /// values for [`values`](FuncCore::values).
    pub fn step(&mut self) -> Result<Option<DynInstr>, ExecError> {
        let mut out = Vec::with_capacity(1);
        let mut last = self.values;
        self.run(&mut out, 1, &mut |_: &DynInstr, v: StepValues| last = v)?;
        self.values = last;
        Ok(out.pop())
    }

    /// Runs the program to its end, handing every record's values to
    /// `values`.
    pub fn run_to_end<V: ValueObserver>(&mut self, values: &mut V) -> Result<(), ExecError> {
        let mut out = Vec::with_capacity(BATCH);
        while !self.finished {
            out.clear();
            self.run(&mut out, BATCH, values)?;
        }
        Ok(())
    }

    /// The interpreter: executes dynamic instructions, appending one
    /// record each to `out`, until `out` holds `cap` records or the
    /// program has finished. An instruction that fails emits no record
    /// and leaves the PC on it; its error is returned after the records
    /// already appended.
    pub fn run<V: ValueObserver>(
        &mut self,
        out: &mut Vec<DynInstr>,
        cap: usize,
        values: &mut V,
    ) -> Result<(), ExecError> {
        let src = |regs: &[u32; 32], b: u8| {
            if b == NO_REG {
                0
            } else {
                regs[slot(b)]
            }
        };
        while !self.finished && out.len() < cap {
            if self.icount >= self.budget {
                return Err(ExecError::InstrLimit(self.budget));
            }
            let pc = self.pc;
            let idx = (pc.wrapping_sub(self.program.text_base) >> 2) as usize;
            let mut u = match self.ops.get(idx) {
                Some(&u) if pc & 3 == 0 => u,
                _ => return Err(ExecError::PcOutOfRange(pc)),
            };
            if u.kind == Kind::Fused {
                let site = &self.sites[u.imm as usize];
                if site.faulted {
                    // The site's configuration failed to load: execute the
                    // first constituent unfused. The following PCs are not
                    // site starts, so the rest of the sequence also runs
                    // scalar, at its true latency.
                    self.conf_fault_fallbacks += 1;
                    u = self.site_ops[site.ops.start];
                }
            }
            let mut rec = u.rec;
            let srcs = if V::ON {
                rec.uses.map(|b| src(&self.regs, b))
            } else {
                [0; 2]
            };
            if u.kind == Kind::Fused {
                // The selector guarantees the sequence is pure ALU
                // straight-line code, so control cannot leave it mid-way.
                let site = &self.sites[u.imm as usize];
                for c in &self.site_ops[site.ops.clone()] {
                    if c.kind == Kind::Fault {
                        return Err(self.faults[c.imm as usize].clone());
                    }
                    let (a, b) = (self.regs[slot(c.s)], self.regs[slot(c.t)]);
                    self.regs[slot(c.d)] = alu(c.kind, a, b | c.imm);
                    self.regs[0] = 0;
                }
                self.icount += u64::from(rec.fused_len);
                self.pc = u.target;
                if V::ON {
                    let result = Some(self.regs[slot(u.d)]);
                    values.observe(&rec, StepValues { srcs, result });
                }
                out.push(rec);
                continue;
            }
            let (a, b) = (self.regs[slot(u.s)], self.regs[slot(u.t)]);
            let mut next = pc.wrapping_add(4);
            let aligned = |addr: u32, width: u32| {
                if addr.is_multiple_of(width) {
                    Ok(addr)
                } else {
                    Err(ExecError::Unaligned { pc, addr, width })
                }
            };
            let mem = &mut self.mem;
            let result = match u.kind {
                k if k.is_alu() => Some(alu(k, a, b | u.imm)),
                Kind::Mult => {
                    let p = (a as i32 as i64) * (b as i32 as i64);
                    (self.hi, self.lo) = ((p >> 32) as u32, p as u32);
                    None
                }
                Kind::Multu => {
                    let p = (a as u64) * (b as u64);
                    (self.hi, self.lo) = ((p >> 32) as u32, p as u32);
                    None
                }
                Kind::Div => {
                    let (a, b) = (a as i32, b as i32);
                    // MIPS leaves HI/LO unpredictable on divide-by-zero;
                    // we define a deterministic result so runs are
                    // reproducible.
                    (self.hi, self.lo) = if b == 0 {
                        (a as u32, u32::MAX)
                    } else {
                        (a.wrapping_rem(b) as u32, a.wrapping_div(b) as u32)
                    };
                    None
                }
                Kind::Divu => {
                    (self.hi, self.lo) = match a.checked_div(b) {
                        Some(q) => (a % b, q),
                        None => (a, u32::MAX),
                    };
                    None
                }
                Kind::Mfhi => Some(self.hi),
                Kind::Mflo => Some(self.lo),
                Kind::Mthi => {
                    self.hi = a;
                    None
                }
                Kind::Mtlo => {
                    self.lo = a;
                    None
                }
                Kind::Lb => {
                    rec.addr = a.wrapping_add(u.imm);
                    Some(mem.read_u8(rec.addr) as i8 as i32 as u32)
                }
                Kind::Lbu => {
                    rec.addr = a.wrapping_add(u.imm);
                    Some(u32::from(mem.read_u8(rec.addr)))
                }
                Kind::Lh => {
                    rec.addr = aligned(a.wrapping_add(u.imm), 2)?;
                    Some(mem.read_u16(rec.addr) as i16 as i32 as u32)
                }
                Kind::Lhu => {
                    rec.addr = aligned(a.wrapping_add(u.imm), 2)?;
                    Some(u32::from(mem.read_u16(rec.addr)))
                }
                Kind::Lw => {
                    rec.addr = aligned(a.wrapping_add(u.imm), 4)?;
                    Some(mem.read_u32(rec.addr))
                }
                Kind::Sb => {
                    rec.addr = a.wrapping_add(u.imm);
                    mem.write_u8(rec.addr, b as u8);
                    None
                }
                Kind::Sh => {
                    rec.addr = aligned(a.wrapping_add(u.imm), 2)?;
                    mem.write_u16(rec.addr, b as u16);
                    None
                }
                Kind::Sw => {
                    rec.addr = aligned(a.wrapping_add(u.imm), 4)?;
                    mem.write_u32(rec.addr, b);
                    None
                }
                Kind::Beq => {
                    branch(&mut rec, &mut next, u.target, a == b);
                    None
                }
                Kind::Bne => {
                    branch(&mut rec, &mut next, u.target, a != b);
                    None
                }
                Kind::Blez => {
                    branch(&mut rec, &mut next, u.target, a as i32 <= 0);
                    None
                }
                Kind::Bgtz => {
                    branch(&mut rec, &mut next, u.target, a as i32 > 0);
                    None
                }
                Kind::Bltz => {
                    branch(&mut rec, &mut next, u.target, (a as i32) < 0);
                    None
                }
                Kind::Bgez => {
                    branch(&mut rec, &mut next, u.target, a as i32 >= 0);
                    None
                }
                Kind::J => {
                    self.regs[slot(u.d)] = next;
                    next = u.target;
                    None
                }
                Kind::Jr => {
                    self.regs[slot(u.d)] = next;
                    next = a;
                    None
                }
                Kind::Syscall => {
                    let code = self.regs[Reg::V0.index()];
                    let arg = self.regs[Reg::A0.index()];
                    self.finished = self
                        .sys
                        .execute(code, arg)
                        .map_err(|e| ExecError::BadSyscall { pc, code: e.code })?;
                    None
                }
                Kind::Break => {
                    self.finished = true;
                    None
                }
                Kind::Fault => return Err(self.faults[u.imm as usize].clone()),
                Kind::Fused => unreachable!("fused sites execute above"),
                _ => unreachable!("ALU kinds are matched first"),
            };
            if let Some(v) = result {
                self.regs[slot(u.d)] = v;
            }
            self.regs[0] = 0;
            self.icount += 1;
            self.pc = next;
            if V::ON {
                values.observe(&rec, StepValues { srcs, result });
            }
            out.push(rec);
        }
        Ok(())
    }
}

/// The functional core as the pipeline's record source, in batches.
impl RecordSource for &mut FuncCore<'_> {
    type Error = ExecError;

    fn fill(&mut self, buf: &mut Vec<DynInstr>) -> Result<(), ExecError> {
        self.run(buf, BATCH, &mut NoValues)
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
            for (k, u) in c.ops.iter().enumerate() {
                let Ok(i) = decode(p.text[k]) else {
                    assert_eq!(u.kind, Kind::Fault);
                    continue;
                };
                let rec = &u.rec;
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
