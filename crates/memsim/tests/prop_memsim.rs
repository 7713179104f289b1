//! Property tests for the simulated memory: data integrity, fault-decision
//! consistency, stack-rule monotonicity, and equality of the page-at-a-time
//! access path with a bytewise reference model.

use epvf_memsim::{
    AccessError, AlignmentPolicy, MemConfig, MemStats, SimMemory, PAGE_SIZE, STACK_GUARD_WINDOW,
};
use proptest::prelude::*;
use std::collections::HashMap;
use std::rc::Rc;

/// Bytewise reference for `SimMemory::read`/`write`. Fault decisions come
/// from a checker space's public `check_access`; data lives in its own
/// copy-on-write page table, accessed one byte at a time, counting
/// materializations and shared-page copies per page as the real space
/// documents.
#[derive(Clone)]
struct RefMem {
    checker: SimMemory,
    pages: HashMap<u64, Rc<Vec<u8>>>,
    cow_page_copies: u64,
    pages_materialized: u64,
}

impl RefMem {
    fn new(checker: SimMemory) -> Self {
        RefMem {
            checker,
            pages: HashMap::new(),
            cow_page_copies: 0,
            pages_materialized: 0,
        }
    }

    fn read(&mut self, addr: u64, size: u64, sp: u64) -> Result<u64, AccessError> {
        self.checker.check_access(addr, size, sp)?;
        let mut out = 0u64;
        for i in 0..size {
            let a = addr + i;
            let byte = self
                .pages
                .get(&(a / PAGE_SIZE))
                .map_or(0, |p| p[(a % PAGE_SIZE) as usize]);
            out |= u64::from(byte) << (8 * i);
        }
        Ok(out)
    }

    fn write(&mut self, addr: u64, size: u64, value: u64, sp: u64) -> Result<(), AccessError> {
        self.checker.check_access(addr, size, sp)?;
        for i in 0..size {
            let a = addr + i;
            let page = match self.pages.get_mut(&(a / PAGE_SIZE)) {
                Some(p) => {
                    if Rc::strong_count(p) > 1 {
                        self.cow_page_copies += 1;
                    }
                    p
                }
                None => {
                    self.pages_materialized += 1;
                    self.pages
                        .entry(a / PAGE_SIZE)
                        .or_insert_with(|| Rc::new(vec![0; PAGE_SIZE as usize]))
                }
            };
            Rc::make_mut(page)[(a % PAGE_SIZE) as usize] = (value >> (8 * i)) as u8;
        }
        Ok(())
    }

    fn stats(&self) -> MemStats {
        MemStats {
            fault_checks: self.checker.stats().fault_checks,
            cow_page_copies: self.cow_page_copies,
            pages_materialized: self.pages_materialized,
        }
    }
}

/// One step of a random access sequence: `(kind, size, page, offset,
/// value)`. Kind 0–4 reads, 5–8 writes, 9 clones the space (kept alive
/// so its pages stay shared). Every third offset lands within 8 bytes of
/// a page edge so straddling accesses are frequent.
type Step = (u8, u64, u64, u64, u64);

fn step() -> impl Strategy<Value = Step> {
    (
        0u8..10,
        prop::sample::select(vec![1u64, 2, 4, 8]),
        0u64..4,
        0u64..3 * PAGE_SIZE,
        any::<u64>(),
    )
        .prop_map(|(kind, size, page, off, value)| {
            let off = if off % 3 == 0 {
                (page * PAGE_SIZE + PAGE_SIZE - 8 + off % 16) % (4 * PAGE_SIZE)
            } else {
                off
            };
            (kind, size, page, off, value)
        })
}

proptest! {
    /// Any sequence of in-bounds writes reads back exactly (last write per
    /// byte wins), for every access size.
    #[test]
    fn write_read_roundtrip(
        ops in prop::collection::vec((0u64..4000, prop::sample::select(vec![1u64, 2, 4, 8]), any::<u64>()), 1..60)
    ) {
        let mut mem = SimMemory::new(MemConfig::default());
        let base = mem.malloc(4096 + 8).expect("allocates");
        let sp = mem.stack_top();
        let mut shadow = vec![0u8; 4096 + 16];
        for (off, size, val) in ops {
            let addr = base + (off & !(size - 1)); // keep alignment
            mem.write(addr, size, val, sp).expect("in-bounds write");
            for i in 0..size {
                shadow[(addr - base + i) as usize] = (val >> (8 * i)) as u8;
            }
        }
        for off in (0..4096u64).step_by(8) {
            let got = mem.read(base + off, 8, sp).expect("read");
            let want = u64::from_le_bytes(
                shadow[off as usize..off as usize + 8].try_into().expect("8 bytes"),
            );
            prop_assert_eq!(got, want, "offset {}", off);
        }
    }

    /// The fault decision agrees with VMA membership plus the stack rule:
    /// an address inside a mapped region never segfaults, and an address
    /// outside every region and outside the stack window always does.
    #[test]
    fn fault_decision_consistent(addr in any::<u64>()) {
        let mut mem = SimMemory::new(MemConfig::default());
        let _ = mem.malloc(64 * 1024).expect("allocates");
        let sp = mem.stack_top() - PAGE_SIZE;
        mem.grow_stack_to(sp).expect("grows");
        let aligned = addr & !7;
        let mapped = mem.map().locate(aligned).is_some();
        let in_window = aligned < sp
            && aligned >= sp.saturating_sub(STACK_GUARD_WINDOW)
            && aligned >= mem.stack_lowest();
        let result = mem.read(aligned, 8, sp);
        if mapped {
            prop_assert!(result.is_ok(), "mapped address {aligned:#x} must not fault");
        } else if !in_window {
            prop_assert!(
                matches!(result, Err(AccessError::Segfault { .. })),
                "unmapped {aligned:#x} outside the window must segfault, got {result:?}"
            );
        }
    }

    /// Misalignment faults trigger exactly when the policy says so.
    #[test]
    fn alignment_policy(off in 0u64..64, size in prop::sample::select(vec![1u64, 2, 4, 8])) {
        let mut mem = SimMemory::new(MemConfig::default());
        let base = mem.malloc(256).expect("allocates");
        let sp = mem.stack_top();
        let addr = base + off;
        let should_fault = size >= 4 && !addr.is_multiple_of(4);
        let got = mem.read(addr, size, sp);
        prop_assert_eq!(
            matches!(got, Err(AccessError::Misaligned { .. })),
            should_fault,
            "addr {:#x} size {}", addr, size
        );
    }

    /// Growing the stack is monotone: once an SP is reachable, any higher
    /// SP is too, and reads above SP in the stack succeed.
    #[test]
    fn stack_growth_monotone(depth in 1u64..1024) {
        let mut mem = SimMemory::new(MemConfig::default());
        let sp = mem.stack_top() - depth * 8;
        prop_assume!(sp >= mem.stack_lowest());
        mem.grow_stack_to(sp).expect("grow");
        // every address between sp and the top is now valid
        for probe in [sp, sp + (depth * 8) / 2, mem.stack_top() - 8] {
            let aligned = probe & !7;
            prop_assert!(mem.read(aligned, 8, sp).is_ok(), "probe {aligned:#x}");
        }
    }

    /// Layout slides move segments but preserve behaviour.
    #[test]
    fn layout_slide_preserves_semantics(slide in 0u64..0x100_0000) {
        let cfg = MemConfig { layout_slide: slide, ..MemConfig::default() };
        let mut mem = SimMemory::new(cfg);
        let p = mem.malloc(128).expect("allocates");
        let sp = mem.stack_top();
        mem.write(p, 8, 0xABCD, sp).expect("write");
        prop_assert_eq!(mem.read(p, 8, sp).expect("read"), 0xABCD);
        let wild = mem.read(0x7700_0000_0000, 8, sp);
        let segfaulted = matches!(wild, Err(AccessError::Segfault { .. }));
        prop_assert!(segfaulted, "wild read must segfault, got {:?}", wild);
    }

    /// The page-at-a-time `read`/`write` equal a bytewise reference in
    /// values, errors and every `MemStats` field, across page-straddling
    /// accesses, both alignment policies, snapshot clones and accesses that
    /// run off the end of the heap.
    #[test]
    fn page_path_matches_bytewise_reference(
        steps in prop::collection::vec(step(), 1..120),
        permissive in any::<bool>(),
        switch_to_clone in any::<bool>(),
    ) {
        let alignment = if permissive { AlignmentPolicy::None } else { AlignmentPolicy::FourByte };
        let mut mem = SimMemory::new(MemConfig { alignment, ..MemConfig::default() });
        // Three heap pages; the fourth page lies past the break and faults.
        let base = mem.malloc(3 * PAGE_SIZE - 16).expect("allocates");
        let base = base & !(PAGE_SIZE - 1);
        let sp = mem.stack_top();
        let mut model = RefMem::new(mem.clone());
        let mut held = Vec::new();
        for (kind, size, _page, off, value) in steps {
            let addr = base + off;
            match kind {
                0..=4 => {
                    let got = mem.read(addr, size, sp);
                    let want = model.read(addr, size, sp);
                    prop_assert_eq!(got, want, "read {:#x}/{}", addr, size);
                }
                5..=8 => {
                    let got = mem.write(addr, size, value, sp);
                    let want = model.write(addr, size, value, sp);
                    prop_assert_eq!(got, want, "write {:#x}/{}", addr, size);
                }
                _ => {
                    let (snap, snap_model) = (mem.clone(), model.clone());
                    if switch_to_clone {
                        held.push((std::mem::replace(&mut mem, snap), std::mem::replace(&mut model, snap_model)));
                    } else {
                        held.push((snap, snap_model));
                    }
                }
            }
            prop_assert_eq!(mem.stats(), model.stats());
        }
        for (snap, mut snap_model) in held {
            let mut snap = snap;
            for off in (0..3 * PAGE_SIZE).step_by(8) {
                prop_assert_eq!(snap.read(base + off, 8, sp), snap_model.read(base + off, 8, sp));
            }
            prop_assert_eq!(snap.stats(), snap_model.stats());
        }
    }
}
