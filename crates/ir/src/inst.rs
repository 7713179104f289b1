//! The instruction set of the mini-IR.
//!
//! The set mirrors the LLVM instructions the ePVF paper's analysis touches
//! (Table III of the paper plus the usual control flow), with one
//! simplification: `getelementptr` is flattened to `base + elem_size * index`
//! — exactly the semantics the paper's running example assigns to it
//! (`r5 = r6 + sizeof(r6.type) * r7`).

use crate::types::Type;
use crate::value::{BlockId, FuncId, StaticInstId, Value, ValueId};
use std::fmt;

/// Integer comparison predicate (LLVM `icmp`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IcmpPred {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Unsigned less-than.
    Ult,
    /// Unsigned less-or-equal.
    Ule,
    /// Unsigned greater-than.
    Ugt,
    /// Unsigned greater-or-equal.
    Uge,
    /// Signed less-than.
    Slt,
    /// Signed less-or-equal.
    Sle,
    /// Signed greater-than.
    Sgt,
    /// Signed greater-or-equal.
    Sge,
}

impl fmt::Display for IcmpPred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            IcmpPred::Eq => "eq",
            IcmpPred::Ne => "ne",
            IcmpPred::Ult => "ult",
            IcmpPred::Ule => "ule",
            IcmpPred::Ugt => "ugt",
            IcmpPred::Uge => "uge",
            IcmpPred::Slt => "slt",
            IcmpPred::Sle => "sle",
            IcmpPred::Sgt => "sgt",
            IcmpPred::Sge => "sge",
        };
        f.write_str(s)
    }
}

/// Floating-point comparison predicate (ordered forms of LLVM `fcmp`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FcmpPred {
    /// Ordered equal.
    Oeq,
    /// Ordered not-equal.
    One,
    /// Ordered less-than.
    Olt,
    /// Ordered less-or-equal.
    Ole,
    /// Ordered greater-than.
    Ogt,
    /// Ordered greater-or-equal.
    Oge,
}

impl fmt::Display for FcmpPred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FcmpPred::Oeq => "oeq",
            FcmpPred::One => "one",
            FcmpPred::Olt => "olt",
            FcmpPred::Ole => "ole",
            FcmpPred::Ogt => "ogt",
            FcmpPred::Oge => "oge",
        };
        f.write_str(s)
    }
}

/// Two-operand integer arithmetic / bitwise opcode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Unsigned division. Traps (arithmetic fault) on zero divisor.
    UDiv,
    /// Signed division. Traps on zero divisor or `MIN / -1` overflow.
    SDiv,
    /// Unsigned remainder. Traps on zero divisor.
    URem,
    /// Signed remainder. Traps on zero divisor or `MIN % -1` overflow.
    SRem,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Left shift (shift amount taken modulo width).
    Shl,
    /// Logical right shift.
    LShr,
    /// Arithmetic right shift.
    AShr,
}

impl BinOp {
    /// Whether this opcode can raise an arithmetic hardware exception
    /// (division by zero / division overflow) — crash class `AE` in the
    /// paper's Table I.
    pub fn can_trap(self) -> bool {
        matches!(self, BinOp::UDiv | BinOp::SDiv | BinOp::URem | BinOp::SRem)
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::UDiv => "udiv",
            BinOp::SDiv => "sdiv",
            BinOp::URem => "urem",
            BinOp::SRem => "srem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::LShr => "lshr",
            BinOp::AShr => "ashr",
        };
        f.write_str(s)
    }
}

/// Two-operand floating-point arithmetic opcode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FBinOp {
    /// Addition.
    FAdd,
    /// Subtraction.
    FSub,
    /// Multiplication.
    FMul,
    /// Division (IEEE: produces inf/NaN, never traps).
    FDiv,
    /// `pow(a, b)` — math-library call modelled as an instruction.
    FPow,
    /// `min(a, b)`.
    FMin,
    /// `max(a, b)`.
    FMax,
}

impl fmt::Display for FBinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FBinOp::FAdd => "fadd",
            FBinOp::FSub => "fsub",
            FBinOp::FMul => "fmul",
            FBinOp::FDiv => "fdiv",
            FBinOp::FPow => "fpow",
            FBinOp::FMin => "fmin",
            FBinOp::FMax => "fmax",
        };
        f.write_str(s)
    }
}

/// One-operand floating-point opcode (math-library calls modelled as
/// instructions so the workloads stay self-contained).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FUnOp {
    /// Negation.
    FNeg,
    /// Square root.
    Sqrt,
    /// Natural exponential.
    Exp,
    /// Natural logarithm.
    Log,
    /// Absolute value.
    Fabs,
    /// Floor.
    Floor,
    /// Round half away from zero.
    Round,
    /// Sine.
    Sin,
    /// Cosine.
    Cos,
}

impl fmt::Display for FUnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FUnOp::FNeg => "fneg",
            FUnOp::Sqrt => "sqrt",
            FUnOp::Exp => "exp",
            FUnOp::Log => "log",
            FUnOp::Fabs => "fabs",
            FUnOp::Floor => "floor",
            FUnOp::Round => "round",
            FUnOp::Sin => "sin",
            FUnOp::Cos => "cos",
        };
        f.write_str(s)
    }
}

/// Value-conversion opcode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CastOp {
    /// Truncate an integer to a narrower type.
    Trunc,
    /// Zero-extend an integer to a wider type.
    ZExt,
    /// Sign-extend an integer to a wider type.
    SExt,
    /// Float → signed integer (round toward zero).
    FpToSi,
    /// Signed integer → float.
    SiToFp,
    /// Unsigned integer → float.
    UiToFp,
    /// Reinterpret bits between same-width types (`bitcast`).
    Bitcast,
    /// Pointer → integer (identity on the 64-bit payload).
    PtrToInt,
    /// Integer → pointer (identity on the 64-bit payload).
    IntToPtr,
    /// f32 → f64.
    FpExt,
    /// f64 → f32.
    FpTrunc,
}

impl fmt::Display for CastOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CastOp::Trunc => "trunc",
            CastOp::ZExt => "zext",
            CastOp::SExt => "sext",
            CastOp::FpToSi => "fptosi",
            CastOp::SiToFp => "sitofp",
            CastOp::UiToFp => "uitofp",
            CastOp::Bitcast => "bitcast",
            CastOp::PtrToInt => "ptrtoint",
            CastOp::IntToPtr => "inttoptr",
            CastOp::FpExt => "fpext",
            CastOp::FpTrunc => "fptrunc",
        };
        f.write_str(s)
    }
}

/// The operation performed by an instruction.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum Op {
    /// Integer arithmetic / bitwise: `dst = a <op> b` at type `ty`.
    Bin {
        op: BinOp,
        ty: Type,
        a: Value,
        b: Value,
    },
    /// Floating-point arithmetic: `dst = a <op> b` at type `ty`.
    FBin {
        op: FBinOp,
        ty: Type,
        a: Value,
        b: Value,
    },
    /// Floating-point unary: `dst = op(a)` at type `ty`.
    FUn { op: FUnOp, ty: Type, a: Value },
    /// Integer comparison producing an `i1`.
    Icmp {
        pred: IcmpPred,
        ty: Type,
        a: Value,
        b: Value,
    },
    /// Ordered float comparison producing an `i1`.
    Fcmp {
        pred: FcmpPred,
        ty: Type,
        a: Value,
        b: Value,
    },
    /// Conversion from `from_ty` to `to_ty`.
    Cast {
        op: CastOp,
        from_ty: Type,
        to_ty: Type,
        a: Value,
    },
    /// `dst = cond ? a : b`.
    Select {
        ty: Type,
        cond: Value,
        a: Value,
        b: Value,
    },
    /// SSA phi: value depends on the predecessor block actually taken.
    Phi {
        ty: Type,
        incomings: Vec<(BlockId, Value)>,
    },
    /// Load `ty` from the address in `addr`.
    Load { ty: Type, addr: Value },
    /// Store `val` (of type `ty`) to the address in `addr`.
    Store { ty: Type, val: Value, addr: Value },
    /// Reserve `size` bytes of stack space; yields the base pointer.
    Alloca { size: u64, align: u64 },
    /// Flattened `getelementptr`: `dst = base + elem_size * index`.
    Gep {
        base: Value,
        index: Value,
        elem_size: u64,
    },
    /// Direct call. `args` are passed by value; a `Some` result binds the
    /// callee's return value.
    Call { callee: FuncId, args: Vec<Value> },
    /// Unconditional branch.
    Br { target: BlockId },
    /// Conditional branch on an `i1`.
    CondBr {
        cond: Value,
        then_bb: BlockId,
        else_bb: BlockId,
    },
    /// Return from the function.
    Ret { val: Option<Value> },
    /// Heap allocation intrinsic: yields a pointer to `size` fresh bytes.
    Malloc { size: Value },
    /// Heap release intrinsic.
    Free { ptr: Value },
    /// Marks `val` as part of the program output (§III-A "output
    /// instructions"). The DDG's reverse BFS is rooted at these operands.
    Output { ty: Type, val: Value },
    /// Terminates execution signalling a *detected* fault — emitted by the
    /// selective-duplication transform (§V) when a duplicated computation
    /// disagrees with the original.
    Detect,
    /// Conditional detector: terminates with a *detected* outcome iff
    /// `cond` is true, otherwise falls through. This is the check the §V
    /// duplication transform inserts after each protected instruction.
    DetectIf { cond: Value },
}

impl Op {
    /// Source operands of this operation, in a stable order.
    ///
    /// For `Phi` all incoming values are reported; the dynamic trace narrows
    /// this to the operand actually selected.
    pub fn operands(&self) -> Vec<Value> {
        match self {
            Op::Bin { a, b, .. }
            | Op::FBin { a, b, .. }
            | Op::Icmp { a, b, .. }
            | Op::Fcmp { a, b, .. } => vec![*a, *b],
            Op::FUn { a, .. } | Op::Cast { a, .. } => vec![*a],
            Op::Select { cond, a, b, .. } => vec![*cond, *a, *b],
            Op::Phi { incomings, .. } => incomings.iter().map(|(_, v)| *v).collect(),
            Op::Load { addr, .. } => vec![*addr],
            Op::Store { val, addr, .. } => vec![*val, *addr],
            Op::Alloca { .. } => vec![],
            Op::Gep { base, index, .. } => vec![*base, *index],
            Op::Call { args, .. } => args.clone(),
            Op::Br { .. } => vec![],
            Op::CondBr { cond, .. } => vec![*cond],
            Op::Ret { val } => val.iter().copied().collect(),
            Op::Malloc { size } => vec![*size],
            Op::Free { ptr } => vec![*ptr],
            Op::Output { val, .. } => vec![*val],
            Op::Detect => vec![],
            Op::DetectIf { cond } => vec![*cond],
        }
    }

    /// The result type, if the operation defines a register.
    pub fn result_type(&self) -> Option<Type> {
        match self {
            Op::Bin { ty, .. } | Op::FBin { ty, .. } | Op::FUn { ty, .. } => Some(*ty),
            Op::Icmp { .. } | Op::Fcmp { .. } => Some(Type::I1),
            Op::Cast { to_ty, .. } => Some(*to_ty),
            Op::Select { ty, .. } | Op::Phi { ty, .. } | Op::Load { ty, .. } => Some(*ty),
            Op::Alloca { .. } | Op::Gep { .. } | Op::Malloc { .. } => Some(Type::Ptr),
            // Calls may or may not define a value; the Inst carries it.
            Op::Call { .. } => None,
            Op::Store { .. }
            | Op::Br { .. }
            | Op::CondBr { .. }
            | Op::Ret { .. }
            | Op::Free { .. }
            | Op::Output { .. }
            | Op::Detect
            | Op::DetectIf { .. } => None,
        }
    }

    /// Whether this operation terminates a basic block.
    pub fn is_terminator(&self) -> bool {
        matches!(
            self,
            Op::Br { .. } | Op::CondBr { .. } | Op::Ret { .. } | Op::Detect
        )
    }

    /// Whether this operation reads or writes simulated memory through an
    /// address operand — the trigger points of the paper's crash model.
    pub fn is_mem_access(&self) -> bool {
        matches!(self, Op::Load { .. } | Op::Store { .. })
    }

    /// Short mnemonic for display and statistics.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Op::Bin { op, .. } => match op {
                BinOp::Add => "add",
                BinOp::Sub => "sub",
                BinOp::Mul => "mul",
                BinOp::UDiv => "udiv",
                BinOp::SDiv => "sdiv",
                BinOp::URem => "urem",
                BinOp::SRem => "srem",
                BinOp::And => "and",
                BinOp::Or => "or",
                BinOp::Xor => "xor",
                BinOp::Shl => "shl",
                BinOp::LShr => "lshr",
                BinOp::AShr => "ashr",
            },
            Op::FBin { op, .. } => match op {
                FBinOp::FAdd => "fadd",
                FBinOp::FSub => "fsub",
                FBinOp::FMul => "fmul",
                FBinOp::FDiv => "fdiv",
                FBinOp::FPow => "fpow",
                FBinOp::FMin => "fmin",
                FBinOp::FMax => "fmax",
            },
            Op::FUn { .. } => "funary",
            Op::Icmp { .. } => "icmp",
            Op::Fcmp { .. } => "fcmp",
            Op::Cast { op, .. } => match op {
                CastOp::Trunc => "trunc",
                CastOp::ZExt => "zext",
                CastOp::SExt => "sext",
                CastOp::FpToSi => "fptosi",
                CastOp::SiToFp => "sitofp",
                CastOp::UiToFp => "uitofp",
                CastOp::Bitcast => "bitcast",
                CastOp::PtrToInt => "ptrtoint",
                CastOp::IntToPtr => "inttoptr",
                CastOp::FpExt => "fpext",
                CastOp::FpTrunc => "fptrunc",
            },
            Op::Select { .. } => "select",
            Op::Phi { .. } => "phi",
            Op::Load { .. } => "load",
            Op::Store { .. } => "store",
            Op::Alloca { .. } => "alloca",
            Op::Gep { .. } => "getelementptr",
            Op::Call { .. } => "call",
            Op::Br { .. } => "br",
            Op::CondBr { .. } => "condbr",
            Op::Ret { .. } => "ret",
            Op::Malloc { .. } => "malloc",
            Op::Free { .. } => "free",
            Op::Output { .. } => "output",
            Op::Detect => "detect",
            Op::DetectIf { .. } => "detect.if",
        }
    }
}

/// A static instruction: an operation plus its (optional) result register and
/// its module-unique id.
#[derive(Debug, Clone, PartialEq)]
pub struct Inst {
    /// Module-unique static id (assigned by the builder).
    pub sid: StaticInstId,
    /// Result register, if the operation defines one.
    pub result: Option<ValueId>,
    /// The operation.
    pub op: Op,
}

impl Inst {
    /// `true` if the instruction defines a register.
    #[inline]
    pub fn defines(&self) -> bool {
        self.result.is_some()
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(r) = self.result {
            write!(f, "{r} = ")?;
        }
        match &self.op {
            Op::Bin { op, ty, a, b } => write!(f, "{op} {ty} {a}, {b}"),
            Op::FBin { op, ty, a, b } => write!(f, "{op} {ty} {a}, {b}"),
            Op::FUn { op, ty, a } => write!(f, "{op} {ty} {a}"),
            Op::Icmp { pred, ty, a, b } => write!(f, "icmp {pred} {ty} {a}, {b}"),
            Op::Fcmp { pred, ty, a, b } => write!(f, "fcmp {pred} {ty} {a}, {b}"),
            Op::Cast {
                op,
                from_ty,
                to_ty,
                a,
            } => write!(f, "{op} {from_ty} {a} to {to_ty}"),
            Op::Select { ty, cond, a, b } => write!(f, "select {ty} {cond}, {a}, {b}"),
            Op::Phi { ty, incomings } => {
                write!(f, "phi {ty} ")?;
                for (i, (bb, v)) in incomings.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "[{v}, {bb}]")?;
                }
                Ok(())
            }
            Op::Load { ty, addr } => write!(f, "load {ty}, ptr {addr}"),
            Op::Store { ty, val, addr } => write!(f, "store {ty} {val}, ptr {addr}"),
            Op::Alloca { size, align } => write!(f, "alloca {size}, align {align}"),
            Op::Gep {
                base,
                index,
                elem_size,
            } => {
                write!(f, "getelementptr {base}, {index} x {elem_size}")
            }
            Op::Call { callee, args } => {
                write!(f, "call {callee}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Op::Br { target } => write!(f, "br {target}"),
            Op::CondBr {
                cond,
                then_bb,
                else_bb,
            } => {
                write!(f, "br {cond}, {then_bb}, {else_bb}")
            }
            Op::Ret { val: Some(v) } => write!(f, "ret {v}"),
            Op::Ret { val: None } => write!(f, "ret void"),
            Op::Malloc { size } => write!(f, "malloc {size}"),
            Op::Free { ptr } => write!(f, "free {ptr}"),
            Op::Output { ty, val } => write!(f, "output {ty} {val}"),
            Op::Detect => write!(f, "detect"),
            Op::DetectIf { cond } => write!(f, "detect.if {cond}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> Value {
        Value::Reg(ValueId(i))
    }

    #[test]
    fn operands_binary() {
        let op = Op::Bin {
            op: BinOp::Add,
            ty: Type::I32,
            a: v(1),
            b: v(2),
        };
        assert_eq!(op.operands(), vec![v(1), v(2)]);
        assert_eq!(op.result_type(), Some(Type::I32));
        assert!(!op.is_terminator());
        assert!(!op.is_mem_access());
    }

    #[test]
    fn operands_store_and_load() {
        let st = Op::Store {
            ty: Type::I64,
            val: v(3),
            addr: v(4),
        };
        assert_eq!(st.operands(), vec![v(3), v(4)]);
        assert!(st.is_mem_access());
        assert_eq!(st.result_type(), None);

        let ld = Op::Load {
            ty: Type::F64,
            addr: v(9),
        };
        assert_eq!(ld.operands(), vec![v(9)]);
        assert!(ld.is_mem_access());
        assert_eq!(ld.result_type(), Some(Type::F64));
    }

    #[test]
    fn gep_semantics_exposed() {
        let gep = Op::Gep {
            base: v(1),
            index: v(2),
            elem_size: 4,
        };
        assert_eq!(gep.result_type(), Some(Type::Ptr));
        assert_eq!(gep.operands().len(), 2);
        assert_eq!(gep.mnemonic(), "getelementptr");
    }

    #[test]
    fn terminators() {
        assert!(Op::Br { target: BlockId(0) }.is_terminator());
        assert!(Op::Ret { val: None }.is_terminator());
        assert!(Op::CondBr {
            cond: v(0),
            then_bb: BlockId(1),
            else_bb: BlockId(2)
        }
        .is_terminator());
        assert!(!Op::Call {
            callee: FuncId(0),
            args: vec![]
        }
        .is_terminator());
    }

    #[test]
    fn trap_classification() {
        assert!(BinOp::SDiv.can_trap());
        assert!(BinOp::URem.can_trap());
        assert!(!BinOp::Add.can_trap());
        assert!(!BinOp::Shl.can_trap());
    }

    #[test]
    fn phi_operands_cover_all_incomings() {
        let phi = Op::Phi {
            ty: Type::I32,
            incomings: vec![(BlockId(0), v(1)), (BlockId(1), Value::i32(0))],
        };
        assert_eq!(phi.operands().len(), 2);
    }

    #[test]
    fn display_smoke() {
        let i = Inst {
            sid: StaticInstId(0),
            result: Some(ValueId(5)),
            op: Op::Bin {
                op: BinOp::Add,
                ty: Type::I32,
                a: v(1),
                b: Value::i32(2),
            },
        };
        assert_eq!(i.to_string(), "%5 = add i32 %1, i32 2");
    }
}
