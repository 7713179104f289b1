//! ACE-graph sampling (paper §IV-E).
//!
//! Many HPC programs are repetitive: analysing only the first *p%* of the
//! output nodes and linearly extrapolating approximates the full ePVF at a
//! fraction of the cost (the paper reports <1% average error at p = 10%).
//! A cheap variance probe over random 1% sub-samples predicts whether a
//! program is repetitive enough for the extrapolation to be trusted.

use crate::crash_model::CrashModelConfig;
use crate::propagation::{propagate_scoped, CrashScope};
use epvf_ddg::{AceGraph, Ddg};
use epvf_interp::Trace;
use epvf_ir::hash::SplitMix64;
use epvf_ir::Module;

/// Result of a partial (sampled) ePVF estimation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplingEstimate {
    /// Fraction of output nodes used (e.g. `0.10`).
    pub fraction: f64,
    /// ePVF of the partial ACE graph (no extrapolation).
    pub partial_epvf: f64,
    /// Linear extrapolation of the partial ePVF to the full program.
    pub extrapolated_epvf: f64,
    /// Vertices in the partial ACE graph.
    pub partial_ace_nodes: usize,
}

/// Estimate ePVF from the first `fraction` of the output (and control)
/// roots.
///
/// The expensive phase of the ePVF pipeline is the crash + propagation
/// model run (paper Fig. 10), not the reverse BFS. The estimator therefore
/// runs the models only on the partial ACE graph, measures the sampled
/// crash-bit fraction of the ACE register bits, and extrapolates that
/// fraction to the full ACE graph (whose bit count comes from the cheap
/// full BFS) — the repetitive-program assumption of §IV-E.
///
/// # Panics
/// Panics if `fraction` is not in `(0, 1]`.
pub fn sampled_epvf(
    module: &Module,
    trace: &Trace,
    ddg: &Ddg,
    full_ace: &AceGraph,
    fraction: f64,
    crash: CrashModelConfig,
) -> SamplingEstimate {
    assert!(
        fraction > 0.0 && fraction <= 1.0,
        "fraction must be in (0, 1]"
    );
    let take_out = ((ddg.outputs().len() as f64 * fraction).ceil() as usize).max(1);
    let take_ctl = (ddg.controls().len() as f64 * fraction).ceil() as usize;
    let mut roots: Vec<_> = ddg.outputs().iter().take(take_out).copied().collect();
    roots.extend(ddg.controls().iter().take(take_ctl).copied());
    let ace = AceGraph::from_roots(ddg, &roots);
    let crash_map = propagate_scoped(module, trace, ddg, &ace, crash, CrashScope::AceOnly);

    let total = ddg.total_register_bits();
    let partial_vulnerable = ace
        .register_bits()
        .saturating_sub(crash_map.ace_register_crash_bits(ddg, &ace));
    let partial = ratio(partial_vulnerable, total);
    // Sampled vulnerable fraction of ACE bits, applied to the full graph.
    let vuln_fraction = ratio(partial_vulnerable, ace.register_bits());
    let extrapolated = (full_ace.register_bits() as f64 * vuln_fraction) / total.max(1) as f64;
    SamplingEstimate {
        fraction,
        partial_epvf: partial,
        extrapolated_epvf: extrapolated.min(1.0),
        partial_ace_nodes: ace.len(),
    }
}

/// The repetitiveness probe: normalized variance of per-sub-sample
/// vulnerable-bit counts over `n_samples` random output subsets of size
/// `sample_fraction`. Low values (≲ 1) indicate the linear extrapolation is
/// trustworthy (§IV-E: 0.04–0.6 for repetitive benchmarks, 1.9 for lud).
pub fn repetitiveness_variance(
    module: &Module,
    trace: &Trace,
    ddg: &Ddg,
    n_samples: usize,
    sample_fraction: f64,
    crash: CrashModelConfig,
    seed: u64,
) -> f64 {
    assert!(n_samples >= 2, "variance needs at least two samples");
    let outputs = ddg.outputs();
    if outputs.is_empty() {
        return 0.0;
    }
    let per_sample =
        ((outputs.len() as f64 * sample_fraction).ceil() as usize).clamp(1, outputs.len());
    let mut rng = SplitMix64::new(seed.max(1));
    let mut values = Vec::with_capacity(n_samples);
    for _ in 0..n_samples {
        let mut roots = Vec::with_capacity(per_sample);
        for _ in 0..per_sample {
            roots.push(outputs[(rng.next_u64() as usize) % outputs.len()]);
        }
        let ace = AceGraph::from_roots(ddg, &roots);
        let map = propagate_scoped(module, trace, ddg, &ace, crash, CrashScope::AceOnly);
        let vulnerable = ace
            .register_bits()
            .saturating_sub(map.ace_register_crash_bits(ddg, &ace));
        values.push(vulnerable as f64);
    }
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    if mean == 0.0 {
        return 0.0;
    }
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / values.len() as f64;
    var / (mean * mean)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze, EpvfConfig};
    use epvf_ddg::build_ddg;
    use epvf_interp::{ExecConfig, Interpreter};
    use epvf_ir::{IcmpPred, ModuleBuilder, Type, Value};

    /// A very repetitive kernel: n independent store+load+output rounds.
    fn repetitive(n: i32) -> (Module, Trace) {
        let mut mb = ModuleBuilder::new("rep");
        let mut f = mb.function("main", vec![], None);
        let arr = f.malloc(Value::i64(4 * i64::from(n)));
        let entry = f.current_block();
        let header = f.create_block("h");
        let body = f.create_block("b");
        let exit = f.create_block("e");
        f.br(header);
        f.switch_to(header);
        let i = f.phi(Type::I32, vec![(entry, Value::i32(0))]);
        let c = f.icmp(IcmpPred::Slt, Type::I32, i, Value::i32(n));
        f.cond_br(c, body, exit);
        f.switch_to(body);
        let v = f.add(Type::I32, i, Value::i32(100));
        let slot = f.gep(arr, i, 4);
        f.store(Type::I32, v, slot);
        let lv = f.load(Type::I32, slot);
        f.output(Type::I32, lv);
        let i2 = f.add(Type::I32, i, Value::i32(1));
        f.add_incoming(i, body, i2);
        f.br(header);
        f.switch_to(exit);
        f.ret(None);
        f.finish();
        let m = mb.finish().expect("verifies");
        let r = Interpreter::new(&m, ExecConfig::default())
            .golden_run("main", &[])
            .expect("runs");
        (m, r.trace.expect("trace"))
    }

    #[test]
    fn extrapolation_close_for_repetitive_program() {
        let (m, t) = repetitive(40);
        let full = analyze(&m, &t, EpvfConfig::default());
        let est = sampled_epvf(
            &m,
            &t,
            &full.ddg,
            &full.ace,
            0.10,
            CrashModelConfig::default(),
        );
        let err = (est.extrapolated_epvf - full.metrics.epvf).abs();
        assert!(
            err < 0.05,
            "extrapolated {} vs full {} (err {err})",
            est.extrapolated_epvf,
            full.metrics.epvf
        );
        assert!(est.partial_ace_nodes < full.metrics.ace_nodes);
        assert!(est.partial_epvf <= full.metrics.epvf + 1e-9);
    }

    #[test]
    fn full_fraction_matches_complete_analysis() {
        let (m, t) = repetitive(12);
        let full = analyze(&m, &t, EpvfConfig::default());
        let est = sampled_epvf(
            &m,
            &t,
            &full.ddg,
            &full.ace,
            1.0,
            CrashModelConfig::default(),
        );
        assert!((est.partial_epvf - full.metrics.epvf).abs() < 1e-12);
        assert!((est.extrapolated_epvf - full.metrics.epvf).abs() < 1e-12);
        assert_eq!(est.partial_ace_nodes, full.metrics.ace_nodes);
    }

    #[test]
    fn variance_probe_is_low_for_repetitive_program() {
        let (m, t) = repetitive(30);
        let ddg = build_ddg(&m, &t);
        let nv = repetitiveness_variance(&m, &t, &ddg, 8, 0.05, CrashModelConfig::default(), 42);
        assert!(
            nv < 1.0,
            "repetitive program should have low normalized variance, got {nv}"
        );
    }

    #[test]
    fn variance_probe_deterministic_per_seed() {
        let (m, t) = repetitive(20);
        let ddg = build_ddg(&m, &t);
        let a = repetitiveness_variance(&m, &t, &ddg, 5, 0.1, CrashModelConfig::default(), 7);
        let b = repetitiveness_variance(&m, &t, &ddg, 5, 0.1, CrashModelConfig::default(), 7);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn rejects_zero_fraction() {
        let (m, t) = repetitive(5);
        let full = analyze(&m, &t, EpvfConfig::default());
        let _ = sampled_epvf(
            &m,
            &t,
            &full.ddg,
            &full.ace,
            0.0,
            CrashModelConfig::default(),
        );
    }
}
