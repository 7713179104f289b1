//! Property tests for [`ValueRange`] — the data structure at the heart of
//! the propagation model.

use epvf_core::ValueRange;
use proptest::prelude::*;

fn range_strategy() -> impl Strategy<Value = ValueRange> {
    (any::<u64>(), any::<u64>()).prop_map(|(a, b)| ValueRange::new(a.min(b), a.max(b)))
}

proptest! {
    /// The closed-form count equals the per-bit flip loop of `crash_bits`
    /// for in-range values at distances of every magnitude from either
    /// bound. (`crash_bits_match_point_queries` covers arbitrary ranges
    /// and values.)
    #[test]
    fn crash_bit_count_matches_flipping_every_bit(
        v in any::<u64>(),
        below in (any::<u64>(), 0u32..64),
        above in (any::<u64>(), 0u32..64),
        width in 1u32..=64,
    ) {
        let r = ValueRange::new(
            v.saturating_sub(below.0 >> below.1),
            v.saturating_add(above.0 >> above.1),
        );
        prop_assert!(r.contains(v));
        prop_assert_eq!(r.crash_bit_count(v, width), r.crash_bits(v, width).len() as u32);
    }

    /// The same over a dense small universe, where bounds, value and width
    /// collide often (`lo == v`, `v == hi`, `lo > hi`, narrow widths).
    #[test]
    fn crash_bit_count_matches_flipping_on_small_values(
        lo in 0u64..40,
        hi in 0u64..40,
        v in 0u64..40,
        width in 1u32..=8,
    ) {
        let r = ValueRange::new(lo, hi);
        prop_assert_eq!(r.crash_bit_count(v, width), r.crash_bits(v, width).len() as u32);
    }

    /// Intersection is commutative and idempotent, and never widens.
    #[test]
    fn intersection_laws(a in range_strategy(), b in range_strategy()) {
        let ab = a.intersect(b);
        let ba = b.intersect(a);
        prop_assert_eq!(ab, ba);
        prop_assert_eq!(ab.intersect(a), ab);
        prop_assert!(ab.lo >= a.lo && ab.lo >= b.lo);
        prop_assert!(ab.hi <= a.hi && ab.hi <= b.hi);
    }

    /// `crash_bits` and `flip_crashes` agree bit by bit.
    #[test]
    fn crash_bits_match_point_queries(
        r in range_strategy(),
        v in any::<u64>(),
        width in 1u32..=64,
    ) {
        let bits = r.crash_bits(v, width);
        for b in 0..width as u8 {
            let listed = bits.contains(&b);
            prop_assert_eq!(listed, r.flip_crashes(v, b), "bit {}", b);
        }
        prop_assert_eq!(bits.len() as u32, r.crash_bit_count(v, width));
    }

    /// Tightening a constraint can only add crash bits, never remove them.
    /// Ranges are built around `v` so the value satisfies both constraints,
    /// as on the golden run.
    #[test]
    fn intersection_is_monotone_in_crash_bits(
        v in any::<u64>(),
        below in (any::<u64>(), any::<u64>()),
        above in (any::<u64>(), any::<u64>()),
    ) {
        let a = ValueRange::new(v.saturating_sub(below.0), v.saturating_add(above.0));
        let b = ValueRange::new(v.saturating_sub(below.1), v.saturating_add(above.1));
        let tight = a.intersect(b);
        prop_assert!(tight.contains(v));
        prop_assert!(tight.crash_bit_count(v, 64) >= a.crash_bit_count(v, 64));
        prop_assert!(tight.crash_bit_count(v, 64) >= b.crash_bit_count(v, 64));
    }

    /// A value inside the range never counts its own identity as a crash
    /// (flipping a bit always changes the value, so self-membership is
    /// irrelevant), and the full range never crashes.
    #[test]
    fn full_range_is_crash_free(v in any::<u64>(), width in 1u32..=64) {
        prop_assert_eq!(ValueRange::FULL.crash_bit_count(v, width), 0);
    }

    /// Degenerate singleton range: every bit of the width is a crash bit
    /// when the value is the singleton.
    #[test]
    fn singleton_range_crashes_everywhere(v in any::<u64>(), width in 1u32..=64) {
        let r = ValueRange::new(v, v);
        prop_assert_eq!(r.crash_bit_count(v, width), width);
    }

    /// Containment is consistent with the `lo`/`hi` ordering.
    #[test]
    fn containment(r in range_strategy(), v in any::<u64>()) {
        prop_assert_eq!(r.contains(v), v >= r.lo && v <= r.hi);
    }
}
