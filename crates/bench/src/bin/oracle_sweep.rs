//! Exhaustive bit-flip oracle over the benchmark suite plus a pooled
//! generated-program differential: the exact (non-sampled) counterpart of
//! the paper's Table V recall/precision validation, with every disagreement
//! class tallied. See `DESIGN.md` §8.

use epvf_bench::{pct, print_table, timed, HarnessOpts};
use epvf_core::{analyze, CrashScope, EpvfConfig};
use epvf_ir::hash::Xoshiro256pp;
use epvf_llfi::Campaign;
use epvf_oracle::{
    check_module_with, differential_check, hard_invariant_scan, sweep, Confusion, GenConfig, Recipe,
};

/// Generated programs in the pooled differential section.
const GEN_PROGRAMS: usize = 200;

fn main() {
    let opts = HarnessOpts::from_args();
    let mut rows = Vec::new();
    for w in opts.workloads() {
        let (mut row, ms) = timed(|| {
            let campaign = Campaign::new(&w.module, "main", &w.args, opts.campaign_config())
                .expect("golden run completes");
            let trace = campaign.golden().trace.as_ref().expect("traced");
            let res = analyze(&w.module, trace, EpvfConfig::default());
            let gt = sweep(&campaign, 0);
            let report = differential_check(&campaign, &res, &gt, 0);
            let violations = hard_invariant_scan(&campaign, &res, &gt);
            assert!(violations.is_empty(), "{}: {violations:?}", w.name);
            let c = report.confusion;
            let [crash, sdc, benign, _, _, _, _] = gt.tally();
            vec![
                w.name.to_string(),
                gt.universe.to_string(),
                crash.to_string(),
                sdc.to_string(),
                benign.to_string(),
                pct(c.recall()),
                pct(c.precision()),
                report.total_disagreements.to_string(),
            ]
        });
        row.push(format!("{:.1}", ms / 1e3));
        rows.push(row);
    }
    print_table(
        "Exhaustive oracle vs crash model (every injectable bit; paper Table V: recall 89%, precision 92%)",
        &[
            "benchmark", "flips", "crash", "sdc", "benign", "recall", "precision", "disagree",
            "secs",
        ],
        &rows,
    );

    // Generated programs, scored with AllAccesses (random programs are
    // dense in never-output stores, which ACE-only scoping deliberately
    // ignores — see DESIGN.md §8).
    let mut rng = Xoshiro256pp::seed_from_u64(opts.seed);
    let scope = EpvfConfig {
        scope: CrashScope::AllAccesses,
        ..EpvfConfig::default()
    };
    let ((pooled, universe, masked, hard), gen_ms) = timed(|| {
        let mut pooled = Confusion::default();
        let (mut universe, mut masked, mut hard) = (0u64, 0u64, 0u64);
        for _ in 0..GEN_PROGRAMS {
            let recipe = Recipe::random(&mut rng, &GenConfig::default());
            let module = recipe.emit();
            let o = check_module_with(&module, "main", &[], 0, scope);
            pooled.merge(o.report.confusion);
            universe += o.ground_truth.universe;
            masked += o.report.masked_sdc;
            hard += o.hard_violations.len() as u64;
        }
        (pooled, universe, masked, hard)
    });
    println!();
    print_table(
        "Generated-program differential (property-based, AllAccesses scope)",
        &[
            "programs",
            "flips",
            "recall",
            "precision",
            "masked-sdc",
            "hard-violations",
            "secs",
        ],
        &[vec![
            GEN_PROGRAMS.to_string(),
            universe.to_string(),
            pct(pooled.recall()),
            pct(pooled.precision()),
            masked.to_string(),
            hard.to_string(),
            format!("{:.1}", gen_ms / 1e3),
        ]],
    );
    epvf_bench::emit_metrics("oracle_sweep", &opts);
}
