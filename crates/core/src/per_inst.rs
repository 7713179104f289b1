//! Per-instruction ePVF (paper Eq. 3, §V).
//!
//! For every *dynamic* instruction, ePVF is the fraction of its register
//! bits (operand reads + result) that are ACE but not crash-causing; the
//! *static* score averages over all dynamic instances. These scores drive
//! the selective-duplication heuristic of §V, and their CDF is the paper's
//! Fig. 12.

use crate::propagation::CrashMap;
use epvf_ddg::{AceGraph, Ddg, NodeId, NodeKind};
use epvf_interp::{DynInst, DynValueId, Trace};
use epvf_ir::{Module, StaticInstId, Value};
use std::collections::HashMap;

/// Aggregated vulnerability scores of one static instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstScore {
    /// The static instruction.
    pub sid: StaticInstId,
    /// Mean per-instance ePVF (Eq. 3).
    pub epvf: f64,
    /// Mean per-instance PVF (same accounting without the crash
    /// subtraction) — the paper's Fig. 12 baseline that clusters near 1.
    pub pvf: f64,
    /// Number of dynamic instances observed.
    pub exec_count: u64,
}

fn node_of_dyn(by_dyn: &HashMap<DynValueId, NodeId>, dv: DynValueId) -> Option<NodeId> {
    by_dyn.get(&dv).copied()
}

/// Compute per-static-instruction PVF/ePVF scores from analysis artifacts.
///
/// Returns one entry per static instruction that executed at least once,
/// keyed for ranking (descending ePVF = the §V protection priority).
///
/// # Examples
///
/// ```
/// use epvf_core::{analyze, per_instruction_scores, EpvfConfig};
/// use epvf_interp::{ExecConfig, Interpreter};
/// use epvf_ir::{ModuleBuilder, Type, Value};
///
/// let mut mb = ModuleBuilder::new("m");
/// let mut f = mb.function("main", vec![], None);
/// let p = f.malloc(Value::i64(16));
/// let v = f.add(Type::I32, Value::i32(1), Value::i32(2));
/// let slot = f.gep(p, Value::i32(1), 4);
/// f.store(Type::I32, v, slot);
/// let back = f.load(Type::I32, slot);
/// f.output(Type::I32, back);
/// f.ret(None);
/// f.finish();
/// let module = mb.finish()?;
///
/// let run = Interpreter::new(&module, ExecConfig::default()).golden_run("main", &[])?;
/// let trace = run.trace.as_ref().expect("traced");
/// let res = analyze(&module, trace, EpvfConfig::default());
/// let scores = per_instruction_scores(&module, trace, &res.ddg, &res.ace, &res.crash_map);
/// assert!(!scores.is_empty());
/// // The gep (address computation) scores lower ePVF than its PVF.
/// assert!(scores.iter().any(|s| s.epvf < s.pvf));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn per_instruction_scores(
    module: &Module,
    trace: &Trace,
    ddg: &Ddg,
    ace: &AceGraph,
    crash_map: &CrashMap,
) -> Vec<InstScore> {
    // DynValueId → node, for operand/result membership checks.
    let mut by_dyn: HashMap<DynValueId, NodeId> = HashMap::with_capacity(ddg.len());
    for (i, n) in ddg.nodes().iter().enumerate() {
        if let NodeKind::Reg(dv) = n.kind {
            by_dyn.insert(dv, NodeId(i as u32));
        }
    }

    #[derive(Default)]
    struct Acc {
        epvf_sum: f64,
        pvf_sum: f64,
        count: u64,
    }
    let mut accs: HashMap<StaticInstId, Acc> = HashMap::new();

    for rec in trace {
        let (total, ace_bits, crash_bits) = instance_bits(module, rec, ace, crash_map, &by_dyn);
        if total == 0 {
            continue; // no register bits involved (e.g. `br`)
        }
        let acc = accs.entry(rec.sid).or_default();
        acc.pvf_sum += ace_bits as f64 / total as f64;
        acc.epvf_sum += ace_bits.saturating_sub(crash_bits) as f64 / total as f64;
        acc.count += 1;
    }

    let mut out: Vec<InstScore> = accs
        .into_iter()
        .map(|(sid, a)| InstScore {
            sid,
            epvf: a.epvf_sum / a.count as f64,
            pvf: a.pvf_sum / a.count as f64,
            exec_count: a.count,
        })
        .collect();
    out.sort_by(|a, b| b.epvf.total_cmp(&a.epvf).then(a.sid.cmp(&b.sid)));
    out
}

/// Register-bit accounting of one dynamic instance: `(total, ACE, crash)`.
fn instance_bits(
    module: &Module,
    rec: &DynInst,
    ace: &AceGraph,
    crash_map: &CrashMap,
    by_dyn: &HashMap<DynValueId, NodeId>,
) -> (u64, u64, u64) {
    let func = &module.functions[rec.func.index()];
    let mut total = 0u64;
    let mut ace_bits = 0u64;
    let mut crash_bits = 0u64;

    for (slot, op) in rec.operands.iter().enumerate() {
        let Value::Reg(r) = op.value else { continue };
        let width = u64::from(func.value_types[r.index()].bits());
        total += width;
        let in_ace = op
            .src
            .and_then(|dv| node_of_dyn(by_dyn, dv))
            .map(|n| ace.contains(n))
            .unwrap_or(false);
        if in_ace {
            ace_bits += width;
            if let Some(c) = crash_map.use_constraint(rec.idx, slot) {
                crash_bits += u64::from(c.crash_bit_count());
            }
        }
    }
    if let Some((reg, _, dv)) = rec.result {
        let width = u64::from(func.value_types[reg.index()].bits());
        total += width;
        if let Some(n) = node_of_dyn(by_dyn, dv) {
            if ace.contains(n) {
                ace_bits += width;
                if let Some(c) = crash_map.node_constraint(n) {
                    crash_bits += u64::from(c.crash_bit_count());
                }
            }
        }
    }
    (total, ace_bits, crash_bits)
}

/// Empirical CDF points `(value, fraction ≤ value)` of a score list —
/// render-ready data for the paper's Fig. 12.
pub fn cdf(values: &[f64]) -> Vec<(f64, f64)> {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    v.into_iter()
        .enumerate()
        .map(|(i, x)| (x, (i + 1) as f64 / n))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze, EpvfConfig};
    use epvf_interp::{ExecConfig, Interpreter};
    use epvf_ir::{IcmpPred, ModuleBuilder, Type};

    fn kernel() -> (Module, Trace) {
        let mut mb = ModuleBuilder::new("k");
        let mut f = mb.function("main", vec![Type::I32], None);
        let n = f.param(0);
        let bytes = f.zext(Type::I32, Type::I64, n);
        let size = f.mul(Type::I64, bytes, Value::i64(4));
        let arr = f.malloc(size);
        let entry = f.current_block();
        let header = f.create_block("h");
        let body = f.create_block("b");
        let exit = f.create_block("e");
        f.br(header);
        f.switch_to(header);
        let i = f.phi(Type::I32, vec![(entry, Value::i32(0))]);
        let c = f.icmp(IcmpPred::Slt, Type::I32, i, n);
        f.cond_br(c, body, exit);
        f.switch_to(body);
        let v = f.mul(Type::I32, i, Value::i32(3));
        let slot = f.gep(arr, i, 4);
        f.store(Type::I32, v, slot);
        let i2 = f.add(Type::I32, i, Value::i32(1));
        f.add_incoming(i, body, i2);
        f.br(header);
        f.switch_to(exit);
        let lslot = f.gep(arr, Value::i32(0), 4);
        let lv = f.load(Type::I32, lslot);
        f.output(Type::I32, lv);
        f.ret(None);
        f.finish();
        let m = mb.finish().expect("verifies");
        let r = Interpreter::new(&m, ExecConfig::default())
            .golden_run("main", &[12])
            .expect("runs");
        (m, r.trace.expect("trace"))
    }

    #[test]
    fn scores_cover_executed_instructions_and_rank_by_epvf() {
        let (m, t) = kernel();
        let res = analyze(&m, &t, EpvfConfig::default());
        let scores = per_instruction_scores(&m, &t, &res.ddg, &res.ace, &res.crash_map);
        assert!(!scores.is_empty());
        for w in scores.windows(2) {
            assert!(w[0].epvf >= w[1].epvf, "descending order");
        }
        for s in &scores {
            assert!(s.epvf <= s.pvf + 1e-12, "epvf never exceeds pvf");
            assert!((0.0..=1.0).contains(&s.epvf));
            assert!(s.exec_count > 0);
        }
    }

    #[test]
    fn epvf_discriminates_where_pvf_saturates() {
        // The paper's Fig. 12 point: many instructions have PVF ≈ 1, but
        // address-chain instructions get visibly lower ePVF.
        let (m, t) = kernel();
        let res = analyze(&m, &t, EpvfConfig::default());
        let scores = per_instruction_scores(&m, &t, &res.ddg, &res.ace, &res.crash_map);
        let near_one_pvf = scores.iter().filter(|s| s.pvf > 0.99).count();
        let near_one_epvf = scores.iter().filter(|s| s.epvf > 0.99).count();
        assert!(
            near_one_pvf > near_one_epvf,
            "ePVF spreads the distribution"
        );
        assert!(
            scores.iter().any(|s| s.epvf < 0.9),
            "some instruction is crash-dominated"
        );
    }

    #[test]
    fn exec_counts_match_trace() {
        let (m, t) = kernel();
        let res = analyze(&m, &t, EpvfConfig::default());
        let scores = per_instruction_scores(&m, &t, &res.ddg, &res.ace, &res.crash_map);
        let total: u64 = scores.iter().map(|s| s.exec_count).sum();
        // Scores only cover instructions touching registers; br/ret excluded.
        assert!(total <= t.len() as u64);
        assert!(total > t.len() as u64 / 2);
    }

    #[test]
    fn cdf_is_monotone_normalized() {
        let points = cdf(&[0.5, 0.1, 0.9, 0.9]);
        assert_eq!(points.len(), 4);
        assert!((points.last().expect("nonempty").1 - 1.0).abs() < 1e-12);
        for w in points.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
    }
}
