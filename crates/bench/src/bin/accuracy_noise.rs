//! Accuracy under environmental noise (paper §IV-B): the paper's
//! recall/precision shortfalls come from run-to-run memory-layout
//! differences between the profiled golden run and the injected runs. A
//! uniform ASLR slide cannot reproduce that (fault decisions are
//! translation-invariant); what does is boundaries moving *relative to*
//! accesses — modelled here by allocator over-reserve (`heap_slack`)
//! differing between the model's profile and the injected runs.
//!
//! * **Precision column**: model profiled without slack, faults injected
//!   into runs *with* slack — bits the model thought fatal now land in
//!   still-mapped slack pages.
//! * **Recall column**: model profiled *with* slack, faults injected into
//!   strict runs — crashes the too-generous model missed.

use epvf_bench::{analyze_workload, pct, print_table, HarnessOpts};
use epvf_core::{analyze, EpvfConfig};
use epvf_interp::ExecConfig;
use epvf_ir::hash::Xoshiro256pp;
use epvf_llfi::{predicted_crash_specs, recall_study, Campaign, CampaignConfig, InjOutcome};
use epvf_memsim::MemConfig;
use epvf_workloads::Workload;

fn campaign_with_slack<'m>(w: &'m Workload, slack: u64) -> Campaign<'m> {
    let cfg = CampaignConfig {
        exec: ExecConfig {
            mem: MemConfig {
                heap_slack: slack,
                ..MemConfig::default()
            },
            ..ExecConfig::default()
        },
        ..CampaignConfig::default()
    };
    Campaign::new(&w.module, Workload::ENTRY, &w.args, cfg).expect("golden run")
}

fn main() {
    let opts = HarnessOpts::from_args();
    let slacks: [u64; 3] = [0, 64 * 1024, 1 << 20];
    let mut rows = Vec::new();
    for w in opts.workloads() {
        let a = analyze_workload(&w); // strict model (slack 0)
        let mut rng = Xoshiro256pp::seed_from_u64(opts.seed);
        let specs: Vec<_> = (0..opts.runs)
            .map(|_| a.campaign.sites().sample(&mut rng))
            .collect();
        let mut targeted = predicted_crash_specs(&a.campaign, &a.analysis.crash_map);
        rng.shuffle(&mut targeted);
        targeted.truncate((opts.runs / 2).max(100));

        let mut cells = vec![w.name.to_string()];
        for slack in slacks {
            // Precision: strict model vs slack runs.
            let noisy = campaign_with_slack(&w, slack);
            let hits = noisy.run_specs(&targeted);
            let precision = hits.count(InjOutcome::is_crash) as f64 / hits.n().max(1) as f64;

            // Recall: slack-profiled model vs strict runs.
            let slack_model = {
                let c = campaign_with_slack(&w, slack);
                let trace = c.golden().trace.as_ref().expect("traced").clone();
                analyze(&w.module, &trace, EpvfConfig::default())
            };
            let fi = a.campaign.run_specs(&specs);
            let recall = recall_study(&fi, &slack_model.crash_map).recall();

            cells.push(format!("{}/{}", pct(recall), pct(precision)));
        }
        rows.push(cells);
    }
    print_table(
        "Recall/precision vs profile-time allocator slack (recall/precision)",
        &["benchmark", "slack 0", "slack 64K", "slack 1M"],
        &rows,
    );
    println!("\npaper: 89% recall / 92% precision, with the shortfall attributed to");
    println!("exactly this class of environment non-determinism; the slack sweep");
    println!("shows both degrade as the profiled and injected layouts diverge.");
    epvf_bench::emit_metrics("accuracy_noise", &opts);
}
