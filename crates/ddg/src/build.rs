//! DDG construction from a dynamic trace (§III-A).

use crate::graph::{Ddg, EdgeKind, Node, NodeId, NodeKind};
use epvf_interp::{DynInst, DynValueId, Trace};
use epvf_ir::{Inst, Module, Op, Type, Value};

/// DDG construction options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DdgConfig {
    /// Create the paper's *virtual* addressing edges linking loads/stores
    /// to the registers holding their addresses (§III-A). Disabling them is
    /// the ablation showing why address/register aliasing handling matters:
    /// without these edges address registers never become ACE and the crash
    /// model has nothing to propagate from.
    pub addr_edges: bool,
}

impl Default for DdgConfig {
    fn default() -> Self {
        DdgConfig { addr_edges: true }
    }
}

/// Per-static-instruction index used to interpret trace records without
/// repeated module scans.
#[derive(Debug)]
pub(crate) struct InstIndex<'m> {
    by_sid: Vec<Option<&'m Inst>>,
}

impl<'m> InstIndex<'m> {
    pub(crate) fn new(module: &'m Module) -> Self {
        let mut by_sid: Vec<Option<&'m Inst>> = vec![None; module.n_static_insts as usize];
        for f in &module.functions {
            for inst in f.insts() {
                if inst.sid.index() >= by_sid.len() {
                    by_sid.resize(inst.sid.index() + 1, None);
                }
                by_sid[inst.sid.index()] = Some(inst);
            }
        }
        InstIndex { by_sid }
    }

    pub(crate) fn get(&self, sid: epvf_ir::StaticInstId) -> &'m Inst {
        self.by_sid
            .get(sid.index())
            .copied()
            .flatten()
            .expect("trace references instruction missing from module")
    }
}

/// Type (and hence width) of a traced operand.
fn operand_type(module: &Module, rec: &DynInst, v: Value) -> Type {
    match v {
        Value::Reg(r) => module.functions[rec.func.index()].value_types[r.index()],
        Value::ConstInt { ty, .. } | Value::ConstFloat { ty, .. } => ty,
        Value::Global(_) => Type::Ptr,
    }
}

/// Empty slot in the builder's dense tables.
const NONE: u32 = u32::MAX;

/// Bytes per [`LastStore`] page.
const PAGE: u64 = 4096;

/// Byte address → the memory node that last wrote it: one dense block of
/// `PAGE` slots per page any store touched. Blocks are found through a
/// page list sorted by page number, with the last hit remembered
/// (consecutive accesses mostly stay on one page), so no address is
/// hashed.
struct LastStore {
    /// `(page number, block index)`, sorted by page number.
    pages: Vec<(u64, u32)>,
    /// `PAGE` slots per block: a node index, or [`NONE`].
    slots: Vec<u32>,
    /// The last page found, and its block.
    hit: Option<(u64, u32)>,
}

impl LastStore {
    fn new() -> Self {
        LastStore {
            pages: Vec::new(),
            slots: Vec::new(),
            hit: None,
        }
    }

    /// The block of `page`, created (all [`NONE`]) when `create` is set and
    /// no store has touched the page yet.
    fn block(&mut self, page: u64, create: bool) -> Option<u32> {
        if let Some((p, b)) = self.hit {
            if p == page {
                return Some(b);
            }
        }
        let b = match self.pages.binary_search_by_key(&page, |&(p, _)| p) {
            Ok(at) => self.pages[at].1,
            Err(_) if !create => return None,
            Err(at) => {
                let b = u32::try_from(self.pages.len()).expect("pages fit in u32");
                self.pages.insert(at, (page, b));
                self.slots.resize(self.slots.len() + PAGE as usize, NONE);
                b
            }
        };
        self.hit = Some((page, b));
        Some(b)
    }

    /// Apply `f` to the slots of `addr..addr + size`, one page-bounded
    /// chunk at a time, in address order. Chunks on pages no store touched
    /// are skipped unless `create` is set.
    fn chunks(&mut self, addr: u64, size: u64, create: bool, mut f: impl FnMut(&mut [u32])) {
        let end = addr + size;
        let mut at = addr;
        while at < end {
            let page = at / PAGE;
            let stop = end.min((page + 1) * PAGE);
            if let Some(b) = self.block(page, create) {
                let base = b as usize * PAGE as usize;
                let lo = base + (at % PAGE) as usize;
                f(&mut self.slots[lo..lo + (stop - at) as usize]);
            }
            at = stop;
        }
    }
}

struct Builder<'m> {
    module: &'m Module,
    config: DdgConfig,
    nodes: Vec<Node>,
    /// Node of each dynamic value, indexed by `DynValueId` (the interpreter
    /// issues ids sequentially from 0), or [`NONE`].
    by_dyn: Vec<u32>,
    last_store: LastStore,
    outputs: Vec<NodeId>,
    controls: Vec<NodeId>,
    record_def: Vec<Option<NodeId>>,
}

impl<'m> Builder<'m> {
    fn push_node(&mut self, node: Node) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        id
    }

    /// Node for a dynamic register value; creates a def-less register node
    /// (entry argument / constant-bound parameter) on first sight.
    fn reg_node(&mut self, dv: DynValueId, bits: u32) -> NodeId {
        if let Some(&at) = self.by_dyn.get(dv.index()) {
            if at != NONE {
                return NodeId(at);
            }
        }
        let id = self.push_node(Node {
            kind: NodeKind::Reg(dv),
            bits,
            def_record: None,
            deps: Vec::new(),
        });
        self.bind(dv, id);
        id
    }

    /// Record `id` as the node of `dv`, growing the table for ids past the
    /// trace length (entry arguments and constant-bound parameters take ids
    /// that no record defines).
    fn bind(&mut self, dv: DynValueId, id: NodeId) {
        let i = dv.index();
        if i >= self.by_dyn.len() {
            self.by_dyn.resize(i + 1, NONE);
        }
        self.by_dyn[i] = id.0;
    }

    /// Dependency edges for the register-backed operands of a record.
    fn operand_deps(&mut self, rec: &DynInst) -> Vec<(NodeId, EdgeKind)> {
        let mut deps = Vec::new();
        for op in rec.operands {
            if let Some(src) = op.src {
                let bits = operand_type(self.module, rec, op.value).bits();
                deps.push((self.reg_node(src, bits), EdgeKind::Data));
            }
        }
        deps
    }

    fn define_result(&mut self, rec: &DynInst, deps: Vec<(NodeId, EdgeKind)>) -> Option<NodeId> {
        let (reg, _bits, dv) = rec.result?;
        let ty = self.module.functions[rec.func.index()].value_types[reg.index()];
        let id = self.push_node(Node {
            kind: NodeKind::Reg(dv),
            bits: ty.bits(),
            def_record: Some(rec.idx),
            deps,
        });
        self.bind(dv, id);
        Some(id)
    }

    fn visit(&mut self, rec: &DynInst, inst: &Inst) {
        let def = match &inst.op {
            Op::Store { .. } => {
                // operands: [value, addr]
                let mut deps = Vec::new();
                if let Some(src) = rec.operands[0].src {
                    let bits = operand_type(self.module, rec, rec.operands[0].value).bits();
                    deps.push((self.reg_node(src, bits), EdgeKind::Data));
                }
                if self.config.addr_edges {
                    if let Some(src) = rec.operands[1].src {
                        // The virtual addressing edge of §III-A.
                        deps.push((self.reg_node(src, 64), EdgeKind::Addr));
                    }
                }
                let mem = rec.mem.as_ref().expect("store records carry access info");
                let id = self.push_node(Node {
                    kind: NodeKind::Mem { addr: mem.addr },
                    bits: (mem.size * 8) as u32,
                    def_record: Some(rec.idx),
                    deps,
                });
                self.last_store
                    .chunks(mem.addr, mem.size, true, |slots| slots.fill(id.0));
                Some(id)
            }
            Op::Load { .. } => {
                // operands: [addr]
                let mem = rec.mem.as_ref().expect("load records carry access info");
                let mut deps: Vec<(NodeId, EdgeKind)> = Vec::new();
                let mut last = NONE;
                self.last_store.chunks(mem.addr, mem.size, false, |slots| {
                    for &src in slots.iter() {
                        if src != NONE && src != last {
                            deps.push((NodeId(src), EdgeKind::Data));
                            last = src;
                        }
                    }
                });
                if self.config.addr_edges {
                    if let Some(src) = rec.operands[0].src {
                        deps.push((self.reg_node(src, 64), EdgeKind::Addr));
                    }
                }
                self.define_result(rec, deps)
            }
            Op::Output { .. } => {
                if let Some(src) = rec.operands[0].src {
                    let bits = operand_type(self.module, rec, rec.operands[0].value).bits();
                    let n = self.reg_node(src, bits);
                    self.outputs.push(n);
                }
                None
            }
            Op::CondBr { .. } => {
                if let Some(src) = rec.operands[0].src {
                    let n = self.reg_node(src, 1);
                    self.controls.push(n);
                }
                None
            }
            // Calls and returns are transparent in the trace (parameter and
            // return value passing reuses dynamic ids), so they define no
            // node of their own.
            Op::Call { .. }
            | Op::Ret { .. }
            | Op::Br { .. }
            | Op::Free { .. }
            | Op::Detect
            | Op::DetectIf { .. } => None,
            // Every other operation defines a register from its
            // register-backed operands.
            _ => {
                let deps = self.operand_deps(rec);
                self.define_result(rec, deps)
            }
        };
        self.record_def[rec.idx as usize] = def;
    }
}

/// Build the DDG of a traced run.
///
/// # Panics
/// Panics if the trace does not belong to `module` (unknown static ids), or
/// records are missing access metadata.
pub fn build_ddg(module: &Module, trace: &Trace) -> Ddg {
    build_ddg_with(module, trace, DdgConfig::default())
}

/// [`build_ddg`] with explicit options.
///
/// # Panics
/// Panics under the same conditions as [`build_ddg`].
pub fn build_ddg_with(module: &Module, trace: &Trace, config: DdgConfig) -> Ddg {
    let _span = epvf_telemetry::span(epvf_telemetry::Tmr::DdgBuild);
    let index = InstIndex::new(module);
    let mut b = Builder {
        module,
        config,
        nodes: Vec::with_capacity(trace.len()),
        by_dyn: Vec::with_capacity(trace.len()),
        last_store: LastStore::new(),
        outputs: Vec::new(),
        controls: Vec::new(),
        record_def: vec![None; trace.len()],
    };
    for rec in trace {
        let inst = index.get(rec.sid);
        b.visit(&rec, inst);
    }
    {
        use epvf_telemetry::{add, Ctr};
        add(Ctr::DdgBuilds, 1);
        add(Ctr::DdgNodesCreated, b.nodes.len() as u64);
        add(
            Ctr::DdgEdgesCreated,
            b.nodes.iter().map(|n| n.deps.len() as u64).sum(),
        );
    }
    Ddg {
        nodes: b.nodes,
        outputs: b.outputs,
        controls: b.controls,
        record_def: b.record_def,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epvf_interp::{ExecConfig, Interpreter};
    use epvf_ir::{ModuleBuilder, Type, Value};

    /// Mirror of the paper's Fig. 3 running example: a store whose address
    /// is a gep, plus a dead register (r8) that must not become ACE.
    fn pathfinder_fragment() -> (Module, Trace) {
        let mut mb = ModuleBuilder::new("frag");
        let mut f = mb.function("main", vec![], None);
        let buf = f.malloc(Value::i64(64)); // r6-ish base
        let idx = f.add(Type::I64, Value::i64(0), Value::i64(1)); // r7
        let v = f.add(Type::I32, Value::i32(20), Value::i32(22)); // r4
        let dead = f.add(Type::I32, Value::i32(1), Value::i32(2)); // r8 analogue
        let _ = f.mul(Type::I32, dead, dead); // keep r8 used but not output-reaching
        let slot = f.gep(buf, idx, 4); // r5 = r6 + 4*r7
        f.store(Type::I32, v, slot);
        let back = f.load(Type::I32, slot);
        f.output(Type::I32, back);
        f.ret(None);
        f.finish();
        let m = mb.finish().expect("verifies");
        let r = Interpreter::new(&m, ExecConfig::default())
            .golden_run("main", &[])
            .expect("runs");
        assert_eq!(r.outputs, vec![42]);
        let t = r.trace.expect("trace");
        (m, t)
    }

    #[test]
    fn ddg_has_store_with_data_and_addr_edges() {
        let (m, t) = pathfinder_fragment();
        let ddg = build_ddg(&m, &t);
        let mem_nodes: Vec<_> = ddg
            .nodes()
            .iter()
            .filter(|n| matches!(n.kind, NodeKind::Mem { .. }))
            .collect();
        assert_eq!(mem_nodes.len(), 1, "exactly one store");
        let store = mem_nodes[0];
        let kinds: Vec<EdgeKind> = store.deps.iter().map(|(_, k)| *k).collect();
        assert!(kinds.contains(&EdgeKind::Data), "stored value edge");
        assert!(kinds.contains(&EdgeKind::Addr), "virtual addressing edge");
    }

    #[test]
    fn load_links_to_prior_store() {
        let (m, t) = pathfinder_fragment();
        let ddg = build_ddg(&m, &t);
        // find the load's node: a Reg node whose deps include a Mem node
        let has_load_link = ddg.nodes().iter().any(|n| {
            n.kind.is_reg()
                && n.deps.iter().any(|(d, k)| {
                    *k == EdgeKind::Data && matches!(ddg.node(*d).kind, NodeKind::Mem { .. })
                })
        });
        assert!(
            has_load_link,
            "load must depend on the store's memory version"
        );
    }

    #[test]
    fn output_roots_recorded() {
        let (m, t) = pathfinder_fragment();
        let ddg = build_ddg(&m, &t);
        assert_eq!(ddg.outputs().len(), 1);
        let out = ddg.node(ddg.outputs()[0]);
        assert!(out.kind.is_reg());
        assert_eq!(out.bits, 32);
    }

    #[test]
    fn record_def_maps_back() {
        let (m, t) = pathfinder_fragment();
        let ddg = build_ddg(&m, &t);
        let mut defined = 0;
        for rec in &t {
            if let Some(id) = ddg.def_of_record(rec.idx) {
                defined += 1;
                assert_eq!(ddg.node(id).def_record, Some(rec.idx));
            }
        }
        // malloc, add, add, dead add, mul, gep, store, load define nodes
        assert_eq!(defined, 8);
    }

    #[test]
    fn entry_arguments_become_defless_reg_nodes() {
        let mut mb = ModuleBuilder::new("t");
        let mut f = mb.function("main", vec![Type::I32], None);
        let x = f.param(0);
        let y = f.add(Type::I32, x, Value::i32(1));
        f.output(Type::I32, y);
        f.ret(None);
        f.finish();
        let m = mb.finish().expect("verifies");
        let r = Interpreter::new(&m, ExecConfig::default())
            .golden_run("main", &[5])
            .expect("runs");
        let ddg = build_ddg(&m, &r.trace.expect("trace"));
        let defless: Vec<_> = ddg
            .nodes()
            .iter()
            .filter(|n| n.kind.is_reg() && n.def_record.is_none())
            .collect();
        assert_eq!(defless.len(), 1, "the entry argument");
        assert_eq!(defless[0].bits, 32);
    }

    #[test]
    fn entry_argument_ids_beyond_the_trace_length_get_nodes() {
        // Eight entry arguments take dyn ids 0..8; the trace has only three
        // records, so most argument ids index past `trace.len()`.
        let mut mb = ModuleBuilder::new("t");
        let mut f = mb.function("main", vec![Type::I64; 8], None);
        let (a, h) = (f.param(0), f.param(7));
        let y = f.add(Type::I64, a, h);
        f.output(Type::I64, y);
        f.ret(None);
        f.finish();
        let m = mb.finish().expect("verifies");
        let r = Interpreter::new(&m, ExecConfig::default())
            .golden_run("main", &[1, 2, 3, 4, 5, 6, 7, 8])
            .expect("runs");
        let t = r.trace.expect("trace");
        assert_eq!(t.len(), 3);
        let ddg = build_ddg(&m, &t);
        let add = ddg.node(ddg.def_of_record(0).expect("add defines"));
        let srcs: Vec<_> = add.deps.iter().map(|&(d, _)| ddg.node(d).kind).collect();
        assert_eq!(
            srcs,
            vec![NodeKind::Reg(DynValueId(0)), NodeKind::Reg(DynValueId(7))]
        );
        assert_eq!(add.kind, NodeKind::Reg(DynValueId(8)), "first fresh id");
        assert_eq!(ddg.outputs(), &[ddg.def_of_record(0).expect("add")]);
    }
}
