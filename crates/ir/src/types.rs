//! Scalar types of the mini-IR.
//!
//! The ePVF analysis accounts vulnerability in *bits*, so every type knows its
//! bit width ([`Type::bits`]). Pointers are always 64 bits wide, matching the
//! simulated 64-bit address space of [`epvf-memsim`].

use std::fmt;

/// A scalar IR type.
///
/// The mini-IR is deliberately scalar-only: aggregates live in (simulated)
/// memory and are accessed through [`crate::inst::Op::Gep`] address
/// arithmetic, exactly the shape the ePVF propagation model reasons about.
///
/// # Examples
///
/// ```
/// use epvf_ir::Type;
/// assert_eq!(Type::I32.bits(), 32);
/// assert_eq!(Type::Ptr.bytes(), 8);
/// assert!(Type::F64.is_float());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Type {
    /// 1-bit boolean (result of comparisons).
    I1,
    /// 8-bit integer.
    I8,
    /// 16-bit integer.
    I16,
    /// 32-bit integer.
    I32,
    /// 64-bit integer.
    I64,
    /// 32-bit IEEE-754 float.
    F32,
    /// 64-bit IEEE-754 float.
    F64,
    /// 64-bit pointer into the simulated address space.
    Ptr,
}

impl Type {
    /// Bit width of the type as used by the ACE/ePVF bit accounting.
    #[inline]
    pub fn bits(self) -> u32 {
        match self {
            Type::I1 => 1,
            Type::I8 => 8,
            Type::I16 => 16,
            Type::I32 => 32,
            Type::I64 | Type::F64 | Type::Ptr => 64,
            Type::F32 => 32,
        }
    }

    /// Storage size in bytes when loaded/stored through memory.
    ///
    /// `I1` occupies a full byte in memory, as in LLVM.
    #[inline]
    pub fn bytes(self) -> u64 {
        match self {
            Type::I1 | Type::I8 => 1,
            Type::I16 => 2,
            Type::I32 | Type::F32 => 4,
            Type::I64 | Type::F64 | Type::Ptr => 8,
        }
    }

    /// Whether this is one of the integer types (including `I1` and `Ptr`).
    #[inline]
    pub fn is_int(self) -> bool {
        matches!(
            self,
            Type::I1 | Type::I8 | Type::I16 | Type::I32 | Type::I64 | Type::Ptr
        )
    }

    /// Whether this is a floating-point type.
    #[inline]
    pub fn is_float(self) -> bool {
        matches!(self, Type::F32 | Type::F64)
    }

    /// Whether this is the pointer type.
    #[inline]
    pub fn is_ptr(self) -> bool {
        matches!(self, Type::Ptr)
    }

    /// Mask selecting the value bits of this type within a `u64` payload.
    ///
    /// ```
    /// use epvf_ir::Type;
    /// assert_eq!(Type::I8.mask(), 0xFF);
    /// assert_eq!(Type::I64.mask(), u64::MAX);
    /// ```
    #[inline]
    pub fn mask(self) -> u64 {
        let b = self.bits();
        if b >= 64 {
            u64::MAX
        } else {
            (1u64 << b) - 1
        }
    }

    /// Truncate a raw 64-bit payload to this type's width.
    #[inline]
    pub fn truncate(self, raw: u64) -> u64 {
        raw & self.mask()
    }

    /// Sign-extend a payload of this type's width to 64 bits (two's
    /// complement). Float types are returned unchanged.
    #[inline]
    pub fn sign_extend(self, raw: u64) -> i64 {
        if self.is_float() {
            return raw as i64;
        }
        let b = self.bits();
        if b >= 64 {
            raw as i64
        } else {
            let shift = 64 - b;
            ((raw << shift) as i64) >> shift
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Type::I1 => "i1",
            Type::I8 => "i8",
            Type::I16 => "i16",
            Type::I32 => "i32",
            Type::I64 => "i64",
            Type::F32 => "f32",
            Type::F64 => "f64",
            Type::Ptr => "ptr",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_widths_match_llvm() {
        assert_eq!(Type::I1.bits(), 1);
        assert_eq!(Type::I8.bits(), 8);
        assert_eq!(Type::I16.bits(), 16);
        assert_eq!(Type::I32.bits(), 32);
        assert_eq!(Type::I64.bits(), 64);
        assert_eq!(Type::F32.bits(), 32);
        assert_eq!(Type::F64.bits(), 64);
        assert_eq!(Type::Ptr.bits(), 64);
    }

    #[test]
    fn memory_sizes() {
        assert_eq!(Type::I1.bytes(), 1);
        assert_eq!(Type::I32.bytes(), 4);
        assert_eq!(Type::Ptr.bytes(), 8);
    }

    #[test]
    fn masks_and_truncation() {
        assert_eq!(Type::I1.mask(), 1);
        assert_eq!(Type::I16.mask(), 0xFFFF);
        assert_eq!(Type::I32.truncate(0x1_2345_6789), 0x2345_6789);
        assert_eq!(Type::I64.truncate(u64::MAX), u64::MAX);
    }

    #[test]
    fn sign_extension() {
        assert_eq!(Type::I8.sign_extend(0xFF), -1);
        assert_eq!(Type::I8.sign_extend(0x7F), 127);
        assert_eq!(Type::I32.sign_extend(0xFFFF_FFFF), -1);
        assert_eq!(Type::I32.sign_extend(5), 5);
        assert_eq!(Type::I64.sign_extend(u64::MAX), -1);
    }

    #[test]
    fn classification() {
        assert!(Type::I1.is_int());
        assert!(Type::Ptr.is_int());
        assert!(Type::Ptr.is_ptr());
        assert!(!Type::F32.is_int());
        assert!(Type::F32.is_float());
        assert!(!Type::I64.is_float());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Type::I32.to_string(), "i32");
        assert_eq!(Type::F64.to_string(), "f64");
        assert_eq!(Type::Ptr.to_string(), "ptr");
    }
}
