//! The crash model (paper §III-D, Algorithm 3).
//!
//! Given a memory access and the live segment boundaries at its execution
//! (the `/proc` probe snapshot carried in the trace), compute the inclusive
//! range of addresses that do **not** raise a segmentation fault:
//!
//! * non-stack segments: `[vma_start, vma_end)`;
//! * the stack: Linux expands it for accesses down to `SP − 65536 − 128`
//!   (but never past the 8 MiB rlimit), so the valid floor is
//!   `min(vma_start, SP − 65536 − 128)` clamped to the limit.
//!
//! The naive variant (boundaries only, no stack rule) is the model the
//! authors first hypothesized and measured at ~85% accuracy before reverse
//! engineering the kernel; it is kept for the §III-D ablation.

use crate::range::ValueRange;
use epvf_interp::MemAccessRec;
use epvf_memsim::{SegmentKind, DEFAULT_STACK_LIMIT, STACK_GUARD_WINDOW};

/// Crash-model configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashModelConfig {
    /// Apply the Linux stack-expansion rule (§III-D case I). Disabling it
    /// reproduces the naive ~85%-accurate boundary-only model.
    pub stack_rule: bool,
    /// The RLIMIT_STACK-style stack limit used to bound expansion.
    pub stack_limit: u64,
}

impl Default for CrashModelConfig {
    fn default() -> Self {
        CrashModelConfig {
            stack_rule: true,
            stack_limit: DEFAULT_STACK_LIMIT,
        }
    }
}

/// The `CHECK_BOUNDARY` procedure of Algorithm 3: the valid address range
/// for the segment containing this access.
///
/// Returns [`ValueRange::FULL`]'s complement degenerate case — a `[0, 0]`
/// range — if the accessed address is outside every segment (cannot happen
/// for golden-run traces, whose accesses all succeeded).
pub fn check_boundary(access: &MemAccessRec, config: CrashModelConfig) -> ValueRange {
    epvf_telemetry::add(epvf_telemetry::Ctr::CrashBoundaryChecks, 1);
    let Some(vma) = access.map.locate(access.addr) else {
        return ValueRange::new(0, 0);
    };
    let hi = vma.end - 1;
    let mut lo = vma.start;
    if config.stack_rule && vma.kind == SegmentKind::Stack {
        let window_floor = access.sp.saturating_sub(STACK_GUARD_WINDOW);
        let rlimit_floor = vma.end.saturating_sub(config.stack_limit);
        lo = lo.min(window_floor).max(rlimit_floor);
    }
    ValueRange::new(lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use epvf_memsim::{MemoryMap, Vma};

    fn stack_map(stack_start: u64, stack_end: u64) -> MemoryMap {
        MemoryMap::new(vec![
            Vma {
                start: 0x0100_0000,
                end: 0x0200_0000,
                kind: SegmentKind::Heap,
            },
            Vma {
                start: stack_start,
                end: stack_end,
                kind: SegmentKind::Stack,
            },
        ])
    }

    /// An access under `map`, leaked so the record can be `'static`.
    fn access(addr: u64, sp: u64, map: MemoryMap) -> MemAccessRec<'static> {
        MemAccessRec {
            addr,
            size: 4,
            is_store: false,
            sp,
            map: Box::leak(Box::new(map)),
        }
    }

    #[test]
    fn heap_access_bounded_by_vma() {
        let a = access(
            0x0100_0010,
            0x7FFF_0000,
            stack_map(0x7FFE_0000, 0x7FFF_1000),
        );
        let r = check_boundary(&a, CrashModelConfig::default());
        assert_eq!(r, ValueRange::new(0x0100_0000, 0x01FF_FFFF));
    }

    #[test]
    fn stack_access_extends_below_vma_with_rule() {
        let map = stack_map(0x7FFE_0000, 0x7FFF_1000);
        let sp = 0x7FFE_0040;
        let a = access(0x7FFE_0100, sp, map.clone());
        let with = check_boundary(&a, CrashModelConfig::default());
        assert_eq!(with.hi, 0x7FFF_0FFF);
        assert_eq!(
            with.lo,
            sp - STACK_GUARD_WINDOW,
            "window extends below vma_start"
        );

        let without = check_boundary(
            &a,
            CrashModelConfig {
                stack_rule: false,
                ..CrashModelConfig::default()
            },
        );
        assert_eq!(without.lo, 0x7FFE_0000, "naive model stops at vma_start");
    }

    #[test]
    fn stack_rule_never_goes_below_rlimit() {
        let top = 0x7FFF_1000u64;
        let map = stack_map(top - 0x1000, top);
        // SP absurdly deep: window floor would undershoot the rlimit floor.
        let sp = top - DEFAULT_STACK_LIMIT + 64;
        let a = access(top - 0x800, sp, map);
        let r = check_boundary(&a, CrashModelConfig::default());
        assert_eq!(r.lo, top - DEFAULT_STACK_LIMIT);
    }

    #[test]
    fn stack_rule_keeps_vma_floor_when_already_grown() {
        // The stack VMA already extends below SP−window: VMA membership wins.
        let top = 0x7FFF_1000u64;
        let map = stack_map(top - 0x10_0000, top);
        let sp = top - 64; // shallow SP → window floor is high
        let a = access(top - 0x8_0000, sp, map);
        let r = check_boundary(&a, CrashModelConfig::default());
        assert_eq!(
            r.lo,
            top - 0x10_0000,
            "vma_start below the window floor wins"
        );
    }

    #[test]
    fn unmapped_access_yields_degenerate_range() {
        let a = access(
            0x9999_0000_0000,
            0x7FFF_0000,
            stack_map(0x7FFE_0000, 0x7FFF_1000),
        );
        let r = check_boundary(&a, CrashModelConfig::default());
        assert_eq!(r, ValueRange::new(0, 0));
    }
}
