//! Inclusive value ranges and crash-bit enumeration.
//!
//! The propagation model tracks, for every register use on the backward
//! slice of a memory address, the inclusive range of values that do *not*
//! produce an out-of-bounds access. A bit of the runtime value is a **crash
//! bit** iff flipping it moves the value outside that range (paper
//! Algorithm 2, line 14: "bits that make the value of op outside
//! (new_max, new_min)").

use std::fmt;

/// An inclusive `[lo, hi]` range of unsigned 64-bit values.
///
/// The paper's Table III assumes operands are non-negative integers; all
/// arithmetic here is unsigned with saturation at the boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ValueRange {
    /// Smallest allowed value.
    pub lo: u64,
    /// Largest allowed value.
    pub hi: u64,
}

impl ValueRange {
    /// The unconstrained range.
    pub const FULL: ValueRange = ValueRange {
        lo: 0,
        hi: u64::MAX,
    };

    /// Construct, normalizing an inverted pair into an empty-ish range.
    pub fn new(lo: u64, hi: u64) -> Self {
        ValueRange { lo, hi }
    }

    /// Whether the range admits every value (no crash bits ever).
    pub fn is_full(self) -> bool {
        self.lo == 0 && self.hi == u64::MAX
    }

    /// Whether `v` is inside the range.
    pub fn contains(self, v: u64) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Intersection (tightest common constraint). A fault crashes if it
    /// violates *any* downstream constraint, so constraints compose by
    /// intersection.
    pub fn intersect(self, other: ValueRange) -> ValueRange {
        ValueRange {
            lo: self.lo.max(other.lo),
            hi: self.hi.min(other.hi),
        }
    }

    /// Whether `other` is a strictly tighter constraint than `self`
    /// (propagation re-queues a node only when its range shrinks).
    pub fn tighter_than(self, other: ValueRange) -> bool {
        (self.lo > other.lo || self.hi < other.hi) && self.intersect(other) == self
    }

    /// Bit positions (below `width`) of `value` whose flip leaves the range.
    pub fn crash_bits(self, value: u64, width: u32) -> Vec<u8> {
        (0..width.min(64) as u8)
            .filter(|b| !self.contains(value ^ (1u64 << b)))
            .collect()
    }

    /// Number of crash bits of `value` below `width`.
    ///
    /// For a value inside the range this is closed-form: flipping a set bit
    /// `b` subtracts `2^b`, which stays in range iff `2^b ≤ value − lo`;
    /// flipping a clear bit adds `2^b`, which stays in range iff
    /// `2^b ≤ hi − value`. So the safe set bits are those below the bit
    /// length of `value − lo`, the safe clear bits those below the bit
    /// length of `hi − value`, and every other bit below `width` crashes.
    /// Out-of-range values and inverted ranges flip each bit in turn.
    pub fn crash_bit_count(self, value: u64, width: u32) -> u32 {
        if self.is_full() {
            return 0;
        }
        if !self.contains(value) {
            return (0..width.min(64))
                .filter(|b| !self.contains(value ^ (1u64 << b)))
                .count() as u32;
        }
        let width_mask = low_bits(width.min(64));
        let safe_set = low_bits(bit_length(value - self.lo));
        let safe_clear = low_bits(bit_length(self.hi - value));
        let crash = (value & !safe_set) | (!value & !safe_clear);
        (crash & width_mask).count_ones()
    }

    /// Whether flipping bit `bit` of `value` violates the range — the
    /// point query used by the recall/precision evaluation.
    pub fn flip_crashes(self, value: u64, bit: u8) -> bool {
        !self.contains(value ^ (1u64 << (bit & 63)))
    }
}

/// Number of significant bits of `x`: the positions `b` with `2^b ≤ x`.
fn bit_length(x: u64) -> u32 {
    u64::BITS - x.leading_zeros()
}

/// A mask of the low `n` bits (`n ≤ 64`).
fn low_bits(n: u32) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

impl Default for ValueRange {
    fn default() -> Self {
        ValueRange::FULL
    }
}

impl fmt::Display for ValueRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:#x}, {:#x}]", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn containment_and_intersection() {
        let r = ValueRange::new(10, 20);
        assert!(r.contains(10));
        assert!(r.contains(20));
        assert!(!r.contains(9));
        assert!(!r.contains(21));
        let s = ValueRange::new(15, 30);
        assert_eq!(r.intersect(s), ValueRange::new(15, 20));
        assert!(ValueRange::FULL.is_full());
        assert_eq!(ValueRange::FULL.intersect(r), r);
    }

    #[test]
    fn tighter_than() {
        let wide = ValueRange::new(0, 100);
        let narrow = ValueRange::new(10, 50);
        assert!(narrow.tighter_than(wide));
        assert!(!wide.tighter_than(narrow));
        assert!(!wide.tighter_than(wide));
    }

    #[test]
    fn crash_bits_of_heap_like_address() {
        // Address 0x2000_0010 valid in [0x2000_0000, 0x2000_0FFF]:
        // high-bit flips escape, low-bit flips stay inside.
        let r = ValueRange::new(0x2000_0000, 0x2000_0FFF);
        let v = 0x2000_0010u64;
        let bits = r.crash_bits(v, 64);
        assert!(!bits.contains(&0), "bit 0 flip stays in segment");
        assert!(!bits.contains(&5), "bit 5 flip stays in segment");
        assert!(bits.contains(&12), "bit 12 flip exits the 4KiB window");
        assert!(bits.contains(&63), "sign-ish bit flip exits");
        assert_eq!(r.crash_bit_count(v, 64) as usize, bits.len());
    }

    #[test]
    fn full_range_has_no_crash_bits() {
        assert_eq!(ValueRange::FULL.crash_bit_count(123, 64), 0);
        assert!(ValueRange::FULL.crash_bits(123, 64).is_empty());
    }

    #[test]
    fn flip_crashes_point_query() {
        let r = ValueRange::new(0x100, 0x1FF);
        assert!(!r.flip_crashes(0x180, 0)); // 0x181 in range
        assert!(r.flip_crashes(0x180, 9)); // 0x080 below range
    }

    #[test]
    fn width_limits_enumeration() {
        let r = ValueRange::new(0, 0); // only zero allowed
        assert_eq!(r.crash_bit_count(0, 8), 8);
        assert_eq!(r.crash_bit_count(0, 64), 64);
        assert_eq!(r.crash_bits(0, 3), vec![0, 1, 2]);
    }
}
