//! Recall / precision evaluation of the ePVF crash prediction against
//! fault-injection ground truth (paper §IV-B, Figs. 6–7).

use crate::campaign::{Campaign, CampaignResult, InjOutcome};
use crate::site::injectable_operand;
use epvf_core::CrashMap;
use epvf_interp::InjectionSpec;
use epvf_ir::hash::Xoshiro256pp;

/// Recall of crash prediction: of the injections that *did* crash, how many
/// did the model flag as crash bits?
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecallReport {
    /// Crashing runs the model predicted.
    pub true_positives: usize,
    /// Crashing runs the model missed.
    pub false_negatives: usize,
}

impl RecallReport {
    /// `TP / (TP + FN)`; 1.0 when no crash occurred.
    pub fn recall(&self) -> f64 {
        let total = self.true_positives + self.false_negatives;
        if total == 0 {
            1.0
        } else {
            self.true_positives as f64 / total as f64
        }
    }
}

/// Evaluate recall over a finished campaign (paper: "the ratio of crash runs
/// that our model predicts correctly to be crashes, to all fault injection
/// runs that lead to crashes in reality").
pub fn recall_study(result: &CampaignResult, crash_map: &CrashMap) -> RecallReport {
    let mut tp = 0;
    let mut fn_ = 0;
    for (spec, outcome) in &result.runs {
        if !outcome.is_crash() {
            continue;
        }
        if crash_map.predicts_crash(spec.dyn_idx, spec.operand_slot, spec.bit) {
            tp += 1;
        } else {
            fn_ += 1;
        }
    }
    RecallReport {
        true_positives: tp,
        false_negatives: fn_,
    }
}

/// Precision of crash prediction via targeted injection into predicted
/// crash bits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrecisionReport {
    /// Targeted injections performed.
    pub injected: usize,
    /// Of those, runs that actually crashed.
    pub crashed: usize,
    /// Predicted crash bits available for sampling.
    pub candidates: usize,
}

impl PrecisionReport {
    /// `crashed / injected`; 1.0 when nothing was injected.
    pub fn precision(&self) -> f64 {
        if self.injected == 0 {
            1.0
        } else {
            self.crashed as f64 / self.injected as f64
        }
    }
}

/// Enumerate every `(site, bit)` the model marks as crash-causing, restricted
/// to injectable (register-read) sites.
pub fn predicted_crash_specs(campaign: &Campaign<'_>, crash_map: &CrashMap) -> Vec<InjectionSpec> {
    let module = campaign_module(campaign);
    let trace = campaign.golden().trace.as_ref().expect("golden is traced");
    let mut specs = Vec::new();
    for ((dyn_idx, slot), c) in crash_map.uses() {
        let Some(rec) = trace.get(dyn_idx) else {
            continue;
        };
        let Some(width) = injectable_operand(module, &rec, slot) else {
            continue;
        };
        let op = &rec.operands[slot];
        for bit in c.range.crash_bits(op.bits, width.min(c.width)) {
            specs.push(InjectionSpec {
                dyn_idx,
                operand_slot: slot,
                bit,
            });
        }
    }
    specs.sort_by_key(|s| (s.dyn_idx, s.operand_slot, s.bit));
    specs
}

fn campaign_module<'m>(campaign: &Campaign<'m>) -> &'m epvf_ir::Module {
    campaign.module()
}

/// Run the precision study: sample up to `n` predicted crash bits (without
/// replacement) and inject exactly those (paper: "over 1,200 different bits
/// ... precision is calculated as the number of observed crashes over the
/// total number of fault injections performed").
pub fn precision_study(
    campaign: &Campaign<'_>,
    crash_map: &CrashMap,
    n: usize,
    seed: u64,
) -> PrecisionReport {
    let mut specs = predicted_crash_specs(campaign, crash_map);
    let candidates = specs.len();
    Xoshiro256pp::seed_from_u64(seed).shuffle(&mut specs);
    specs.truncate(n);
    let result = campaign.run_specs(&specs);
    let crashed = result.count(InjOutcome::is_crash);
    PrecisionReport {
        injected: specs.len(),
        crashed,
        candidates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::CampaignConfig;
    use epvf_core::{analyze, EpvfConfig};
    use epvf_ir::{IcmpPred, Module, ModuleBuilder, Type, Value};

    fn kernel_module() -> Module {
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
        let lv = f.load(Type::I32, slot);
        f.output(Type::I32, lv);
        let i2 = f.add(Type::I32, i, Value::i32(1));
        f.add_incoming(i, body, i2);
        f.br(header);
        f.switch_to(exit);
        f.ret(None);
        f.finish();
        mb.finish().expect("verifies")
    }

    #[test]
    fn recall_high_in_deterministic_setting() {
        let m = kernel_module();
        let campaign = Campaign::new(&m, "main", &[24], CampaignConfig::default()).expect("golden");
        let trace = campaign.golden().trace.as_ref().expect("trace");
        let res = analyze(&m, trace, EpvfConfig::default());
        let fi = campaign.run(500, 77);
        let recall = recall_study(&fi, &res.crash_map);
        assert!(
            recall.recall() > 0.8,
            "deterministic recall should be high, got {} ({recall:?})",
            recall.recall()
        );
        assert!(recall.true_positives > 0);
    }

    #[test]
    fn precision_near_one_in_deterministic_setting() {
        let m = kernel_module();
        let campaign = Campaign::new(&m, "main", &[24], CampaignConfig::default()).expect("golden");
        let trace = campaign.golden().trace.as_ref().expect("trace");
        let res = analyze(&m, trace, EpvfConfig::default());
        let p = precision_study(&campaign, &res.crash_map, 300, 123);
        assert!(
            p.injected > 100,
            "enough predicted crash bits: {}",
            p.candidates
        );
        // Not 1.0 even deterministically: constraints propagated through
        // loop-carried phis can be masked by the loop guard (a corrupted
        // counter fails `i < n` and exits before the bad address is used) —
        // the same control-flow masking that keeps the paper's precision in
        // the 86–98% band.
        assert!(
            p.precision() > 0.75,
            "deterministic precision should be in the paper's band, got {}",
            p.precision()
        );
    }

    #[test]
    fn precision_is_near_perfect_on_direct_address_uses() {
        // Restricting to the memory instructions' own address operands
        // removes the control-flow masking: those flips crash essentially
        // always.
        let m = kernel_module();
        let campaign = Campaign::new(&m, "main", &[24], CampaignConfig::default()).expect("golden");
        let trace = campaign.golden().trace.as_ref().expect("trace");
        let res = analyze(&m, trace, EpvfConfig::default());
        let specs: Vec<_> = predicted_crash_specs(&campaign, &res.crash_map)
            .into_iter()
            .filter(|s| {
                let rec = trace.get(s.dyn_idx).expect("valid");
                rec.mem
                    .as_ref()
                    .is_some_and(|mem| s.operand_slot == usize::from(mem.is_store))
            })
            .take(200)
            .collect();
        assert!(specs.len() > 50);
        let result = campaign.run_specs(&specs);
        let crashed = result.count(InjOutcome::is_crash);
        let precision = crashed as f64 / specs.len() as f64;
        assert!(precision > 0.97, "direct-address precision {precision}");
    }

    #[test]
    fn predicted_specs_are_valid_sites() {
        let m = kernel_module();
        let campaign = Campaign::new(&m, "main", &[12], CampaignConfig::default()).expect("golden");
        let trace = campaign.golden().trace.as_ref().expect("trace");
        let res = analyze(&m, trace, EpvfConfig::default());
        let specs = predicted_crash_specs(&campaign, &res.crash_map);
        assert!(!specs.is_empty());
        for s in &specs {
            let rec = trace.get(s.dyn_idx).expect("valid dyn idx");
            let op = rec.operands.get(s.operand_slot).expect("valid slot");
            assert!(op.src.is_some(), "register sites only");
        }
        // Deterministic enumeration order.
        let again = predicted_crash_specs(&campaign, &res.crash_map);
        assert_eq!(specs, again);
    }
}
