//! Ablation: the paper's *virtual addressing edges* (§III-A) on vs off.
//! Without them, address registers never enter the ACE graph and the crash
//! model has no seed to propagate from — crash-bit counts collapse and
//! recall with them.

use epvf_bench::{analyze_workload, pct, print_table, HarnessOpts};
use epvf_core::{
    build_ddg_with, propagate_scoped, AceConfig, AceGraph, CrashModelConfig, CrashScope, DdgConfig,
};
use epvf_llfi::recall_study;

fn main() {
    let opts = HarnessOpts::from_args();
    let mut rows = Vec::new();
    for w in opts.workloads() {
        let a = analyze_workload(&w);
        let trace = a.golden().trace.as_ref().expect("traced");
        let fi = a.inject(opts.runs, opts.seed);

        let with_recall = recall_study(&fi, &a.analysis.crash_map).recall();

        let ddg_no = build_ddg_with(&w.module, trace, DdgConfig { addr_edges: false });
        let ace_no = AceGraph::compute(&ddg_no, AceConfig::default());
        let map_no = propagate_scoped(
            &w.module,
            trace,
            &ddg_no,
            &ace_no,
            CrashModelConfig::default(),
            CrashScope::AceOnly,
        );
        let no_recall = recall_study(&fi, &map_no).recall();

        rows.push(vec![
            w.name.to_string(),
            a.analysis.metrics.ace_nodes.to_string(),
            ace_no.len().to_string(),
            a.analysis.crash_map.total_use_crash_bits().to_string(),
            map_no.total_use_crash_bits().to_string(),
            pct(with_recall),
            pct(no_recall),
        ]);
    }
    print_table(
        "Ablation: virtual addressing edges",
        &[
            "benchmark",
            "ACE (with)",
            "ACE (without)",
            "crash bits (with)",
            "(without)",
            "recall (with)",
            "(without)",
        ],
        &rows,
    );
    epvf_bench::emit_metrics("ablation_addr_edges", &opts);
}
