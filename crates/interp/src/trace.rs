//! Dynamic instruction trace.
//!
//! The paper's ePVF pipeline consumes a *dynamic IR instruction trace* — the
//! sequence of executed instructions with their runtime operand values,
//! memory addresses, and (for memory accesses) a snapshot of the live memory
//! map (the `/proc` probe of §III-D). [`Trace`] is that artifact.
//!
//! # Layout
//!
//! A trace is a few flat vectors, not one heap-owning struct per record, so
//! a traced run appends to growing vectors and never allocates per record:
//!
//! * a row column: one 40-byte row of fixed-size fields per record (static
//!   id, function, result register / bits / dynamic id, operand range,
//!   access index);
//! * one [`OperandRec`] arena holding every record's operands back to back
//!   in trace order; the rows' operand starts are `len() + 1` prefix
//!   offsets ([`Trace::operand_offsets`]), record `i`'s operands being
//!   `arena[off[i]..off[i + 1]]`;
//! * an access column for the loads and stores, whose memory-map snapshots
//!   are interned: accesses made under one `SimMemory::map_version` share
//!   one stored [`MemoryMap`].
//!
//! The fixed fields share a row, rather than a column each, because
//! propagation reads records in dependence order, not trace order: one
//! random visit then costs one row and one arena line, where a column per
//! field costs a line per field.
//!
//! Consumers read records through the `Copy` view [`DynInst`]
//! ([`Trace::get`], [`Trace::iter`]), or a single field across the trace
//! ([`Trace::sids`], [`Trace::funcs`], [`Trace::operands`],
//! [`Trace::operand_offsets`]).

use epvf_ir::{FuncId, StaticInstId, Value, ValueId};
use epvf_memsim::MemoryMap;

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
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemAccessRec<'t> {
    /// The accessed address.
    pub addr: u64,
    /// Access size in bytes.
    pub size: u64,
    /// `true` for stores.
    pub is_store: bool,
    /// The stack pointer at the access (input to the Linux stack rule).
    pub sp: u64,
    /// Snapshot of the memory map (the simulated `/proc/self/maps` probe),
    /// shared by every access made under the same map version.
    pub map: &'t MemoryMap,
}

/// One executed instruction: a view of one record of a [`Trace`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynInst<'t> {
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
    pub operands: &'t [OperandRec],
    /// Memory access details for loads/stores.
    pub mem: Option<MemAccessRec<'t>>,
}

/// A load or store as stored in the access column (the map is an index
/// into the interned snapshots).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Access {
    pub(crate) addr: u64,
    pub(crate) size: u64,
    pub(crate) sp: u64,
    pub(crate) map: u32,
    pub(crate) is_store: bool,
}

/// Marks a record without a result (`Row::result_reg`) or without an
/// access (`Row::access`).
const NONE: u32 = u32::MAX;

/// The fixed-size fields of one record, 40 bytes (see the module docs for
/// why they share a row).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Row {
    sid: StaticInstId,
    func: FuncId,
    /// Result register, or [`NONE`].
    result_reg: u32,
    /// Index into `Trace::accesses`, or [`NONE`].
    access: u32,
    /// This record's operands are `operands[op_start..op_start + op_len]`.
    op_start: u32,
    op_len: u32,
    result_bits: u64,
    result_dyn: DynValueId,
}

/// A complete dynamic trace of one (golden) run, stored as columns (see
/// the module docs).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    rows: Vec<Row>,
    /// Every record's operands, back to back.
    operands: Vec<OperandRec>,
    accesses: Vec<Access>,
    /// Interned map snapshots, and the `map_version` each was taken at.
    maps: Vec<MemoryMap>,
    map_versions: Vec<u64>,
}

impl Trace {
    /// Number of dynamic instructions.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Iterate over the records in trace order.
    pub fn iter(&self) -> Records<'_> {
        Records {
            trace: self,
            range: 0..self.len(),
        }
    }

    /// The record at dynamic index `idx`.
    #[inline]
    pub fn get(&self, idx: u64) -> Option<DynInst<'_>> {
        let i = usize::try_from(idx).ok().filter(|&i| i < self.len())?;
        Some(self.record(i))
    }

    /// The static instruction of every record, in trace order.
    pub fn sids(&self) -> impl ExactSizeIterator<Item = StaticInstId> + '_ {
        self.rows.iter().map(|r| r.sid)
    }

    /// The function of every record, in trace order.
    pub fn funcs(&self) -> impl ExactSizeIterator<Item = FuncId> + '_ {
        self.rows.iter().map(|r| r.func)
    }

    /// The `len() + 1` prefix offsets into the operand arena (every
    /// record's operands back to back, in trace order): record `i`'s
    /// operands are `arena[off[i]..off[i + 1]]`, and the last offset is the
    /// arena's length.
    pub fn operand_offsets(&self) -> impl Iterator<Item = u32> + '_ {
        let end = std::iter::once(self.closed_operands());
        self.rows.iter().map(|r| r.op_start).chain(end)
    }

    /// The operands of record `i`.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    #[inline]
    pub fn operands(&self, i: usize) -> &[OperandRec] {
        let r = &self.rows[i];
        &self.operands[r.op_start as usize..(r.op_start + r.op_len) as usize]
    }

    /// Arena length covered by closed records.
    fn closed_operands(&self) -> u32 {
        self.rows.last().map_or(0, |r| r.op_start + r.op_len)
    }

    #[inline]
    fn record(&self, i: usize) -> DynInst<'_> {
        let row = self.rows[i];
        DynInst {
            idx: i as u64,
            sid: row.sid,
            func: row.func,
            result: (row.result_reg != NONE).then_some((
                ValueId(row.result_reg),
                row.result_bits,
                row.result_dyn,
            )),
            operands: self.operands(i),
            mem: (row.access != NONE).then(|| {
                let a = self.accesses[row.access as usize];
                MemAccessRec {
                    addr: a.addr,
                    size: a.size,
                    is_store: a.is_store,
                    sp: a.sp,
                    map: &self.maps[a.map as usize],
                }
            }),
        }
    }

    /// Append one operand of the record being recorded (the one the next
    /// [`Self::push_record`] closes).
    #[inline]
    pub(crate) fn push_operand(&mut self, op: OperandRec) {
        self.operands.push(op);
    }

    /// Drop the operands pushed since the last closed record (an
    /// instruction that aborted before it could be recorded).
    pub(crate) fn discard_pending_operands(&mut self) {
        self.operands.truncate(self.closed_operands() as usize);
    }

    /// Close a record over the operands pushed since the previous one.
    pub(crate) fn push_record(
        &mut self,
        sid: StaticInstId,
        func: FuncId,
        result: Option<(ValueId, u64, DynValueId)>,
        access: Option<Access>,
    ) {
        let (result_reg, result_bits, result_dyn) =
            result.map_or((NONE, 0, DynValueId(0)), |(r, b, d)| (r.0, b, d));
        let access = match access {
            Some(a) => {
                let at = u32::try_from(self.accesses.len()).expect("accesses fit in u32");
                self.accesses.push(a);
                at
            }
            None => NONE,
        };
        let op_start = self.closed_operands();
        let end = u32::try_from(self.operands.len()).expect("operands fit in u32");
        self.rows.push(Row {
            sid,
            func,
            result_reg,
            access,
            op_start,
            op_len: end - op_start,
            result_bits,
            result_dyn,
        });
    }

    /// Set the result of an already closed record (phi batches learn their
    /// committed dynamic ids after every phi of the batch is recorded).
    pub(crate) fn set_result(&mut self, i: usize, reg: ValueId, bits: u64, id: DynValueId) {
        let row = &mut self.rows[i];
        row.result_reg = reg.0;
        row.result_bits = bits;
        row.result_dyn = id;
    }

    /// The snapshot index for an access under `live`, whose version is
    /// `version`: the last interned snapshot when the version is unchanged,
    /// else a new copy of `live`.
    pub(crate) fn intern_map(&mut self, version: u64, live: &MemoryMap) -> u32 {
        if self.map_versions.last() != Some(&version) {
            self.maps.push(live.clone());
            self.map_versions.push(version);
        }
        u32::try_from(self.maps.len() - 1).expect("map snapshots fit in u32")
    }
}

/// Iterator over a [`Trace`]'s records, yielding [`DynInst`] views.
#[derive(Debug, Clone)]
pub struct Records<'t> {
    trace: &'t Trace,
    range: std::ops::Range<usize>,
}

impl<'t> Iterator for Records<'t> {
    type Item = DynInst<'t>;

    fn next(&mut self) -> Option<DynInst<'t>> {
        self.range.next().map(|i| self.trace.record(i))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.range.size_hint()
    }
}

impl DoubleEndedIterator for Records<'_> {
    fn next_back(&mut self) -> Option<Self::Item> {
        self.range.next_back().map(|i| self.trace.record(i))
    }
}

impl ExactSizeIterator for Records<'_> {}

impl<'a> IntoIterator for &'a Trace {
    type Item = DynInst<'a>;
    type IntoIter = Records<'a>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
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
    for (idx, sid) in (0u64..).zip(trace.sids()) {
        let s = section_of(sid);
        match runs.last_mut() {
            Some(run) if run.section == s => run.end = idx + 1,
            _ => runs.push(SectionRun {
                section: s,
                start: idx,
                end: idx + 1,
            }),
        }
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;
    use epvf_memsim::{SegmentKind, Vma};

    fn op(bits: u64, src: Option<u64>) -> OperandRec {
        OperandRec {
            value: Value::i64(bits as i64),
            bits,
            src: src.map(DynValueId),
        }
    }

    /// A trace of records with the given static ids and no operands.
    fn of_sids(sids: &[u32]) -> Trace {
        let mut t = Trace::default();
        for &s in sids {
            t.push_record(StaticInstId(s), FuncId(0), None, None);
        }
        t
    }

    fn map_with(end: u64) -> MemoryMap {
        MemoryMap::new(vec![Vma {
            start: 0x1000,
            end,
            kind: SegmentKind::Heap,
        }])
    }

    fn access(addr: u64, map: u32) -> Access {
        Access {
            addr,
            size: 8,
            sp: 0x7000,
            map,
            is_store: true,
        }
    }

    #[test]
    fn section_runs_tile_the_trace() {
        // sections: sid 0,1 → 0; sid 2 → 1
        let t = of_sids(&[0, 1, 2, 2, 0]);
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
        let t = of_sids(&[3]);
        assert!(Trace::default().is_empty());
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(0).map(|r| r.sid), Some(StaticInstId(3)));
        assert!(t.get(1).is_none());
        assert!(t.get(u64::MAX).is_none());
        assert_eq!((&t).into_iter().count(), 1);
    }

    #[test]
    fn record_view_round_trips_what_was_pushed() {
        let mut t = Trace::default();
        let live = map_with(0x9000);
        let m = t.intern_map(4, &live);
        t.push_operand(op(7, Some(2)));
        t.push_operand(op(9, None));
        t.push_record(
            StaticInstId(5),
            FuncId(1),
            Some((ValueId(3), 16, DynValueId(11))),
            None,
        );
        t.push_operand(op(0x1008, Some(11)));
        t.push_record(StaticInstId(6), FuncId(1), None, Some(access(0x1008, m)));

        let r0 = t.get(0).expect("record 0");
        assert_eq!(r0.idx, 0);
        assert_eq!(r0.sid, StaticInstId(5));
        assert_eq!(r0.func, FuncId(1));
        assert_eq!(r0.result, Some((ValueId(3), 16, DynValueId(11))));
        assert_eq!(r0.operands, &[op(7, Some(2)), op(9, None)]);
        assert!(r0.mem.is_none());

        let r1 = t.get(1).expect("record 1");
        assert_eq!(r1.idx, 1);
        assert_eq!(r1.result, None);
        assert_eq!(r1.operands, &[op(0x1008, Some(11))]);
        let mem = r1.mem.expect("access");
        assert_eq!(
            (mem.addr, mem.size, mem.is_store, mem.sp),
            (0x1008, 8, true, 0x7000)
        );
        assert_eq!(mem.map, &live);

        let viewed: Vec<DynInst<'_>> = t.iter().collect();
        assert_eq!(viewed, vec![r0, r1]);
        assert_eq!(t.iter().rev().map(|r| r.idx).collect::<Vec<_>>(), [1, 0]);
        assert_eq!(t.iter().len(), 2);
    }

    #[test]
    fn prefix_offsets_tile_the_arena() {
        let mut t = Trace::default();
        for (i, n) in [2usize, 0, 3, 1, 0].into_iter().enumerate() {
            for k in 0..n {
                t.push_operand(op((i * 10 + k) as u64, None));
            }
            t.push_record(StaticInstId(i as u32), FuncId(0), None, None);
        }
        let off: Vec<u32> = t.operand_offsets().collect();
        assert_eq!(off.len(), t.len() + 1);
        assert_eq!(off.first(), Some(&0));
        assert_eq!(off.last().map(|&o| o as usize), Some(t.operands.len()));
        assert!(off.windows(2).all(|w| w[0] <= w[1]));
        for (i, rec) in t.iter().enumerate() {
            assert_eq!(rec.operands.len(), [2, 0, 3, 1, 0][i]);
            assert!(rec
                .operands
                .iter()
                .enumerate()
                .all(|(k, o)| o.bits == (i * 10 + k) as u64));
        }
    }

    #[test]
    fn discarded_operands_belong_to_no_record() {
        let mut t = Trace::default();
        t.push_operand(op(1, None));
        t.push_record(StaticInstId(0), FuncId(0), None, None);
        t.push_operand(op(2, None));
        t.discard_pending_operands();
        assert_eq!(t.operands.len(), 1);
        assert_eq!(t.operand_offsets().collect::<Vec<_>>(), [0, 1]);
    }

    #[test]
    fn late_result_patch_on_a_phi_batch() {
        // Two phis recorded before either result is committed, then patched
        // in order, as `exec_phis` does.
        let mut t = Trace::default();
        for (sid, bits) in [(0u32, 5u64), (1, 6)] {
            t.push_operand(op(bits, Some(u64::from(sid))));
            t.push_record(StaticInstId(sid), FuncId(0), None, None);
        }
        assert!(t.iter().all(|r| r.result.is_none()));
        let n = 2;
        for i in 0..n {
            let ridx = t.len() - n + i;
            t.set_result(
                ridx,
                ValueId(i as u32),
                50 + i as u64,
                DynValueId(100 + i as u64),
            );
        }
        assert_eq!(
            t.get(0).and_then(|r| r.result),
            Some((ValueId(0), 50, DynValueId(100)))
        );
        assert_eq!(
            t.get(1).and_then(|r| r.result),
            Some((ValueId(1), 51, DynValueId(101)))
        );
        assert_eq!(
            t.get(1).map(|r| r.operands[0].bits),
            Some(6),
            "operands untouched"
        );
    }

    #[test]
    fn accesses_under_one_map_version_share_one_snapshot() {
        let mut t = Trace::default();
        let small = map_with(0x2000);
        let grown = map_with(0x3000);
        for (addr, version, live) in [
            (0x1000, 0, &small),
            (0x1002, 0, &small),
            (0x1004, 1, &grown),
            (0x1006, 1, &grown),
        ] {
            let m = t.intern_map(version, live);
            t.push_record(StaticInstId(0), FuncId(0), None, Some(access(addr, m)));
        }
        assert_eq!(t.maps.len(), 2, "one snapshot per version");
        let maps: Vec<&MemoryMap> = t.iter().map(|r| r.mem.expect("access").map).collect();
        assert!(
            std::ptr::eq(maps[0], maps[1]),
            "same version, same snapshot"
        );
        assert!(std::ptr::eq(maps[2], maps[3]));
        assert!(
            !std::ptr::eq(maps[1], maps[2]),
            "a version bump interns anew"
        );
        assert_eq!((maps[0], maps[2]), (&small, &grown));
    }
}
