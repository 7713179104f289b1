//! Value references and identifiers.
//!
//! The mini-IR is in SSA form: every instruction that produces a result
//! defines a fresh virtual register ([`ValueId`]). The ePVF paper models the
//! "architectural resource" under study as exactly this set of virtual
//! registers (§III-A), so these ids are the unit at which ACE/crash bits are
//! accounted.

use crate::types::Type;
use std::fmt;

/// Identifier of a virtual register, unique *within one function*.
///
/// Function parameters occupy the first ids (`0..params.len()`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct ValueId(pub u32);

impl ValueId {
    /// Index into per-function side tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ValueId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

/// Identifier of a basic block, unique within one function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct BlockId(pub u32);

impl BlockId {
    /// Index into the function's block table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// Identifier of a function within a [`crate::Module`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct FuncId(pub u32);

impl FuncId {
    /// Index into the module's function table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for FuncId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@f{}", self.0)
    }
}

/// Identifier of a global variable within a [`crate::Module`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct GlobalId(pub u32);

impl GlobalId {
    /// Index into the module's global table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for GlobalId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@g{}", self.0)
    }
}

/// A module-unique identifier for a *static* instruction.
///
/// Static ids survive the trip through the interpreter: every dynamic trace
/// record points back at the static instruction it executed, which is what
/// the per-instruction ePVF ranking of §V aggregates over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct StaticInstId(pub u32);

impl StaticInstId {
    /// Index into module-wide side tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for StaticInstId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// An operand: either a virtual register, a constant, or a global address.
///
/// # Examples
///
/// ```
/// use epvf_ir::{Type, Value};
/// let c = Value::const_int(Type::I32, 7);
/// assert_eq!(c.as_const_int(), Some(7));
/// assert!(c.ty_if_const().is_some());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum Value {
    /// A virtual register defined by a parameter or instruction.
    Reg(ValueId),
    /// An integer (or pointer) constant; payload is truncated to `ty`.
    ConstInt { ty: Type, bits: u64 },
    /// A floating-point constant; payload is the raw IEEE-754 bit pattern.
    ConstFloat { ty: Type, bits: u64 },
    /// The base address of a global variable.
    Global(GlobalId),
}

impl Value {
    /// Build an integer constant of the given type; the payload is truncated
    /// to the type's width.
    pub fn const_int(ty: Type, v: u64) -> Self {
        debug_assert!(ty.is_int(), "const_int of float type {ty}");
        Value::ConstInt {
            ty,
            bits: ty.truncate(v),
        }
    }

    /// Build an `i32` constant — the most common literal in the workloads.
    pub fn i32(v: i32) -> Self {
        Value::const_int(Type::I32, v as u32 as u64)
    }

    /// Build an `i64` constant.
    pub fn i64(v: i64) -> Self {
        Value::const_int(Type::I64, v as u64)
    }

    /// Build an `i1` (boolean) constant.
    pub fn bool(v: bool) -> Self {
        Value::const_int(Type::I1, v as u64)
    }

    /// Build an `f32` constant from a Rust `f32`.
    pub fn f32(v: f32) -> Self {
        Value::ConstFloat {
            ty: Type::F32,
            bits: v.to_bits() as u64,
        }
    }

    /// Build an `f64` constant from a Rust `f64`.
    pub fn f64(v: f64) -> Self {
        Value::ConstFloat {
            ty: Type::F64,
            bits: v.to_bits(),
        }
    }

    /// The register id if this is a register operand.
    #[inline]
    pub fn as_reg(self) -> Option<ValueId> {
        match self {
            Value::Reg(v) => Some(v),
            _ => None,
        }
    }

    /// The constant payload if this is an integer constant.
    #[inline]
    pub fn as_const_int(self) -> Option<u64> {
        match self {
            Value::ConstInt { bits, .. } => Some(bits),
            _ => None,
        }
    }

    /// The type if this operand carries one (constants only; register types
    /// live in the defining function's side table).
    #[inline]
    pub fn ty_if_const(self) -> Option<Type> {
        match self {
            Value::ConstInt { ty, .. } | Value::ConstFloat { ty, .. } => Some(ty),
            _ => None,
        }
    }

    /// Whether this operand is a constant or global (i.e. not a register).
    #[inline]
    pub fn is_const(self) -> bool {
        !matches!(self, Value::Reg(_))
    }
}

impl From<ValueId> for Value {
    fn from(v: ValueId) -> Self {
        Value::Reg(v)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Reg(r) => write!(f, "{r}"),
            Value::ConstInt { ty, bits } => write!(f, "{ty} {}", ty.sign_extend(*bits)),
            Value::ConstFloat {
                ty: Type::F32,
                bits,
            } => {
                write!(f, "f32 {}", f32::from_bits(*bits as u32))
            }
            Value::ConstFloat { ty, bits } => write!(f, "{ty} {}", f64::from_bits(*bits)),
            Value::Global(g) => write!(f, "{g}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn const_int_truncates() {
        let v = Value::const_int(Type::I8, 0x1FF);
        assert_eq!(v.as_const_int(), Some(0xFF));
    }

    #[test]
    fn i32_round_trip_negative() {
        let v = Value::i32(-3);
        assert_eq!(v.as_const_int(), Some(0xFFFF_FFFD));
        assert_eq!(v.ty_if_const(), Some(Type::I32));
    }

    #[test]
    fn float_bit_patterns() {
        let v = Value::f64(1.5);
        match v {
            Value::ConstFloat { ty, bits } => {
                assert_eq!(ty, Type::F64);
                assert_eq!(f64::from_bits(bits), 1.5);
            }
            _ => panic!("expected float"),
        }
    }

    #[test]
    fn reg_conversion_and_classification() {
        let r: Value = ValueId(4).into();
        assert_eq!(r.as_reg(), Some(ValueId(4)));
        assert!(!r.is_const());
        assert!(Value::i32(0).is_const());
        assert!(Value::Global(GlobalId(0)).is_const());
    }

    #[test]
    fn display_values() {
        assert_eq!(Value::Reg(ValueId(7)).to_string(), "%7");
        assert_eq!(Value::i32(-1).to_string(), "i32 -1");
        assert_eq!(Value::bool(true).to_string(), "i1 -1"); // 1-bit sign extend
        assert_eq!(Value::Global(GlobalId(2)).to_string(), "@g2");
    }
}
