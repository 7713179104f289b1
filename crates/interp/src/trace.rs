//! Dynamic instruction trace.
//!
//! The paper's ePVF pipeline consumes a *dynamic IR instruction trace* — the
//! sequence of executed instructions with their runtime operand values,
//! memory addresses, and (for memory accesses) a snapshot of the live memory
//! map (the `/proc` probe of §III-D). [`Trace`] is that artifact.

use epvf_ir::{FuncId, StaticInstId, Value, ValueId};
use epvf_memsim::MemoryMap;
use std::sync::Arc;

/// Identity of one *dynamic register instance*.
///
/// SSA registers are static names; at runtime, a register in a function
/// executed many times (or recursively) takes many values. Each definition
/// event gets a fresh `DynValueId` — these are the vertices of the DDG.
/// Values passed through calls/returns keep their id (parameter passing and
/// `ret` are transparent), mirroring the paper's treatment of a value
/// flowing through registers as a single entity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct DynValueId(pub u64);

impl DynValueId {
    /// Index form for side tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One operand as observed at runtime.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperandRec {
    /// The static operand (register / constant / global).
    pub value: Value,
    /// The runtime bit pattern actually used (after any injected flip).
    pub bits: u64,
    /// For register operands: the dynamic value read. `None` for constants
    /// and globals.
    pub src: Option<DynValueId>,
}

/// A memory access performed by a load or store, with the live segment
/// boundaries at that instant.
#[derive(Debug, Clone, PartialEq)]
pub struct MemAccessRec {
    /// The accessed address.
    pub addr: u64,
    /// Access size in bytes.
    pub size: u64,
    /// `true` for stores.
    pub is_store: bool,
    /// The stack pointer at the access (input to the Linux stack rule).
    pub sp: u64,
    /// Snapshot of the memory map (the simulated `/proc/self/maps` probe).
    /// `Arc`'d: consecutive accesses under an unchanged map share one
    /// snapshot instead of deep-cloning the VMA list per record.
    pub map: Arc<MemoryMap>,
}

/// One executed instruction.
#[derive(Debug, Clone, PartialEq)]
pub struct DynInst {
    /// Position in the dynamic trace (0-based).
    pub idx: u64,
    /// The static instruction executed.
    pub sid: StaticInstId,
    /// The function it belongs to (for register-type lookups).
    pub func: FuncId,
    /// Result register, its value, and its fresh dynamic id, if the
    /// instruction defines one.
    pub result: Option<(ValueId, u64, DynValueId)>,
    /// Operands as read. For `phi`, only the taken incoming is recorded.
    pub operands: Vec<OperandRec>,
    /// Memory access details for loads/stores.
    pub mem: Option<MemAccessRec>,
}

/// A complete dynamic trace of one (golden) run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// Executed instructions in order.
    pub records: Vec<DynInst>,
}

impl Trace {
    /// Number of dynamic instructions.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterate over the records.
    pub fn iter(&self) -> std::slice::Iter<'_, DynInst> {
        self.records.iter()
    }

    /// The record at dynamic index `idx`.
    pub fn get(&self, idx: u64) -> Option<&DynInst> {
        self.records.get(idx as usize)
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a DynInst;
    type IntoIter = std::slice::Iter<'a, DynInst>;
    fn into_iter(self) -> Self::IntoIter {
        self.records.iter()
    }
}

/// A maximal contiguous run of trace records belonging to one static
/// section (see `epvf_ir::SectionMap`). Runs tile the trace: the first
/// starts at 0, each starts where the previous ended, the last ends at
/// `trace.len()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionRun {
    /// Section ordinal (from `SectionMap::section_of`).
    pub section: u32,
    /// First dynamic index of the run.
    pub start: u64,
    /// One past the last dynamic index of the run.
    pub end: u64,
}

/// Split a trace into [`SectionRun`]s: consecutive records whose static
/// instructions share a section form one run. `section_of` maps a static
/// instruction to its section ordinal (normally
/// `|sid| map.section_of(sid)`).
pub fn section_runs(
    trace: &Trace,
    mut section_of: impl FnMut(StaticInstId) -> u32,
) -> Vec<SectionRun> {
    let mut runs: Vec<SectionRun> = Vec::new();
    for rec in trace.iter() {
        let s = section_of(rec.sid);
        match runs.last_mut() {
            Some(run) if run.section == s => run.end = rec.idx + 1,
            _ => runs.push(SectionRun {
                section: s,
                start: rec.idx,
                end: rec.idx + 1,
            }),
        }
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(idx: u64, sid: u32) -> DynInst {
        DynInst {
            idx,
            sid: StaticInstId(sid),
            func: FuncId(0),
            result: None,
            operands: vec![],
            mem: None,
        }
    }

    #[test]
    fn section_runs_tile_the_trace() {
        // sections: sid 0,1 → 0; sid 2 → 1
        let t = Trace {
            records: vec![rec(0, 0), rec(1, 1), rec(2, 2), rec(3, 2), rec(4, 0)],
        };
        let runs = section_runs(&t, |sid| if sid.index() < 2 { 0 } else { 1 });
        assert_eq!(
            runs,
            vec![
                SectionRun {
                    section: 0,
                    start: 0,
                    end: 2
                },
                SectionRun {
                    section: 1,
                    start: 2,
                    end: 4
                },
                SectionRun {
                    section: 0,
                    start: 4,
                    end: 5
                },
            ]
        );
        // Tiling: contiguous, covering 0..len.
        assert_eq!(runs.first().map(|r| r.start), Some(0));
        assert_eq!(runs.last().map(|r| r.end), Some(t.len() as u64));
        for w in runs.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
    }

    #[test]
    fn section_runs_of_empty_trace() {
        assert!(section_runs(&Trace::default(), |_| 0).is_empty());
    }

    #[test]
    fn trace_container_basics() {
        let mut t = Trace::default();
        assert!(t.is_empty());
        t.records.push(DynInst {
            idx: 0,
            sid: StaticInstId(3),
            func: FuncId(0),
            result: None,
            operands: vec![],
            mem: None,
        });
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(0).map(|r| r.sid), Some(StaticInstId(3)));
        assert!(t.get(1).is_none());
        assert_eq!((&t).into_iter().count(), 1);
    }
}
