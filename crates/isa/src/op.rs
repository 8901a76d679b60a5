//! Operation mnemonics and their static properties.
//!
//! `Op` is the decoded operation of one instruction. The simulator, the
//! profiler and the sequence selector all dispatch on it, so the properties
//! that matter to them (operation class, functional-unit class, whether the
//! op is a PFU-candidate) live here.

/// Decoded operation. The set mirrors the integer subset of SimpleScalar's
/// PISA, which is what the paper's MediaBench binaries exercise.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Op {
    // Shifts (constant and variable amount).
    Sll,
    Srl,
    Sra,
    Sllv,
    Srlv,
    Srav,
    // Three-register arithmetic.
    Add,
    Addu,
    Sub,
    Subu,
    And,
    Or,
    Xor,
    Nor,
    Slt,
    Sltu,
    // Immediate arithmetic.
    Addi,
    Addiu,
    Slti,
    Sltiu,
    Andi,
    Ori,
    Xori,
    Lui,
    // Multiply / divide and HI/LO moves.
    Mult,
    Multu,
    Div,
    Divu,
    Mfhi,
    Mflo,
    Mthi,
    Mtlo,
    // Loads / stores.
    Lb,
    Lbu,
    Lh,
    Lhu,
    Lw,
    Sb,
    Sh,
    Sw,
    // Control flow.
    Beq,
    Bne,
    Blez,
    Bgtz,
    Bltz,
    Bgez,
    J,
    Jal,
    Jr,
    Jalr,
    // System.
    Syscall,
    Break,
    /// A PFU extended instruction. The `conf` field of the encoded word
    /// identifies which configuration (i.e. which fused sequence) it runs.
    Ext,
}

/// Coarse operation class, used by the selector and the pipeline model.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum OpClass {
    /// Single-cycle integer ALU operation.
    IntAlu,
    /// Multi-cycle multiply or divide (uses HI/LO).
    IntMult,
    /// Memory load.
    Load,
    /// Memory store.
    Store,
    /// Branch or jump.
    Ctrl,
    /// Syscall / break.
    Sys,
    /// Extended instruction executed on a PFU.
    Pfu,
}

impl Op {
    /// The coarse class of this operation.
    pub fn class(self) -> OpClass {
        use Op::*;
        match self {
            Sll | Srl | Sra | Sllv | Srlv | Srav | Add | Addu | Sub | Subu | And | Or | Xor
            | Nor | Slt | Sltu | Addi | Addiu | Slti | Sltiu | Andi | Ori | Xori | Lui => {
                OpClass::IntAlu
            }
            Mult | Multu | Div | Divu | Mfhi | Mflo | Mthi | Mtlo => OpClass::IntMult,
            Lb | Lbu | Lh | Lhu | Lw => OpClass::Load,
            Sb | Sh | Sw => OpClass::Store,
            Beq | Bne | Blez | Bgtz | Bltz | Bgez | J | Jal | Jr | Jalr => OpClass::Ctrl,
            Syscall | Break => OpClass::Sys,
            Ext => OpClass::Pfu,
        }
    }

    /// Whether the selection algorithms may place this op inside an extended
    /// instruction. Per the paper (§4): arithmetic and logic instructions
    /// only — no memory ops, no control flow, no multi-cycle mult/div (a PFU
    /// evaluates pure combinational logic in one cycle).
    pub fn is_pfu_candidate(self) -> bool {
        self.class() == OpClass::IntAlu
    }

    /// Whether this is a conditional branch (PC-relative, taken/not-taken).
    pub fn is_branch(self) -> bool {
        matches!(
            self,
            Op::Beq | Op::Bne | Op::Blez | Op::Bgtz | Op::Bltz | Op::Bgez
        )
    }

    /// Whether this is an unconditional jump.
    pub fn is_jump(self) -> bool {
        matches!(self, Op::J | Op::Jal | Op::Jr | Op::Jalr)
    }

    /// Whether this op ends a basic block.
    pub fn ends_block(self) -> bool {
        self.is_branch() || self.is_jump() || matches!(self, Op::Syscall | Op::Break)
    }

    /// Execution latency in cycles on the base machine's functional units.
    pub fn latency(self) -> u32 {
        use Op::*;
        match self {
            Mult | Multu => 3,
            Div | Divu => 20,
            // Load latency here is the EX-stage cost; cache misses are
            // accounted separately by the memory model.
            Lb | Lbu | Lh | Lhu | Lw => 1,
            _ => 1,
        }
    }

    /// The assembler mnemonic.
    pub fn mnemonic(self) -> &'static str {
        use Op::*;
        match self {
            Sll => "sll",
            Srl => "srl",
            Sra => "sra",
            Sllv => "sllv",
            Srlv => "srlv",
            Srav => "srav",
            Add => "add",
            Addu => "addu",
            Sub => "sub",
            Subu => "subu",
            And => "and",
            Or => "or",
            Xor => "xor",
            Nor => "nor",
            Slt => "slt",
            Sltu => "sltu",
            Addi => "addi",
            Addiu => "addiu",
            Slti => "slti",
            Sltiu => "sltiu",
            Andi => "andi",
            Ori => "ori",
            Xori => "xori",
            Lui => "lui",
            Mult => "mult",
            Multu => "multu",
            Div => "div",
            Divu => "divu",
            Mfhi => "mfhi",
            Mflo => "mflo",
            Mthi => "mthi",
            Mtlo => "mtlo",
            Lb => "lb",
            Lbu => "lbu",
            Lh => "lh",
            Lhu => "lhu",
            Lw => "lw",
            Sb => "sb",
            Sh => "sh",
            Sw => "sw",
            Beq => "beq",
            Bne => "bne",
            Blez => "blez",
            Bgtz => "bgtz",
            Bltz => "bltz",
            Bgez => "bgez",
            J => "j",
            Jal => "jal",
            Jr => "jr",
            Jalr => "jalr",
            Syscall => "syscall",
            Break => "break",
            Ext => "ext",
        }
    }

    /// All operations, for exhaustive tests.
    pub fn all() -> &'static [Op] {
        use Op::*;
        &[
            Sll, Srl, Sra, Sllv, Srlv, Srav, Add, Addu, Sub, Subu, And, Or, Xor, Nor, Slt, Sltu,
            Addi, Addiu, Slti, Sltiu, Andi, Ori, Xori, Lui, Mult, Multu, Div, Divu, Mfhi, Mflo,
            Mthi, Mtlo, Lb, Lbu, Lh, Lhu, Lw, Sb, Sh, Sw, Beq, Bne, Blez, Bgtz, Bltz, Bgez, J, Jal,
            Jr, Jalr, Syscall, Break, Ext,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pfu_candidates_are_exactly_single_cycle_alu_ops() {
        for &op in Op::all() {
            if op.is_pfu_candidate() {
                assert_eq!(op.class(), OpClass::IntAlu, "{op:?}");
                assert_eq!(op.latency(), 1, "{op:?}");
            }
        }
        assert!(!Op::Lw.is_pfu_candidate());
        assert!(!Op::Mult.is_pfu_candidate());
        assert!(!Op::Beq.is_pfu_candidate());
        assert!(!Op::Ext.is_pfu_candidate());
    }

    #[test]
    fn block_enders_are_control_or_sys() {
        for &op in Op::all() {
            if op.ends_block() {
                assert!(matches!(op.class(), OpClass::Ctrl | OpClass::Sys), "{op:?}");
            }
        }
        assert!(Op::Beq.ends_block());
        assert!(Op::J.ends_block());
        assert!(!Op::Addu.ends_block());
    }

    #[test]
    fn mnemonics_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for &op in Op::all() {
            assert!(seen.insert(op.mnemonic()), "duplicate {}", op.mnemonic());
        }
    }

    #[test]
    fn latencies_match_fu_classes() {
        assert_eq!(Op::Mult.latency(), 3);
        assert_eq!(Op::Div.latency(), 20);
        assert_eq!(Op::Addu.latency(), 1);
    }
}
