//! Metric-invariant tests: conservation laws over `--metrics-out`
//! snapshots, plus the cross-configuration contract — every counter
//! marked invariant in the schema must be byte-identical whatever
//! `--threads` / `--ckpt-interval` the same command ran with (the
//! telemetry face of the replay engine's determinism guarantee).

use epvf_telemetry::MetricsReport;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

/// Run the epvf binary with `--metrics-out` and parse the document.
fn run_with_metrics(args: &[&str]) -> MetricsReport {
    let mut path = std::env::temp_dir();
    path.push(format!(
        "epvf-metrics-{}-{}.json",
        std::process::id(),
        args.join("_").replace(['/', ':'], "-")
    ));
    let out = Command::new(env!("CARGO_BIN_EXE_epvf"))
        .args(args)
        .arg("--metrics-out")
        .arg(&path)
        .output()
        .expect("epvf binary runs");
    assert!(
        out.status.success(),
        "epvf {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    std::fs::remove_file(&path).ok();
    MetricsReport::parse(&text).expect("metrics document parses")
}

fn assert_conserved(report: &MetricsReport, what: &str) {
    let violations = report.snapshot.check_conservation();
    assert!(violations.is_empty(), "{what}: {violations:?}");
}

#[test]
fn analyze_counters_obey_conservation_laws() {
    for target in ["mm:tiny", "bfs:tiny"] {
        let report = run_with_metrics(&["analyze", target]);
        assert_conserved(&report, target);
        let c = |n: &str| report.snapshot.counter(n);
        // One traced golden run feeds one analysis, so the interpreter's
        // retired-instruction count IS the analyzed trace length.
        assert_eq!(c("core.analyses"), 1, "{target}");
        assert_eq!(
            c("interp.golden.insts_retired"),
            c("core.trace_len"),
            "{target}: trace length must equal golden instructions retired"
        );
        assert_eq!(
            c("ddg.nodes_created"),
            c("ace.nodes_visited").max(c("ddg.nodes_created")),
            "{target}: ACE graph cannot exceed the DDG"
        );
        assert!(c("ddg.nodes_created") > 0, "{target}: DDG was built");
        assert!(
            c("core.propagation.slices_walked") > 0,
            "{target}: propagation ran"
        );
        assert!(
            report.snapshot.timers.contains_key("ddg.build"),
            "{target}: ddg.build timer recorded"
        );
    }
}

#[test]
fn inject_outcome_classes_sum_to_total_runs() {
    let report = run_with_metrics(&["inject", "mm:tiny", "200", "7", "--threads", "1"]);
    assert_conserved(&report, "inject mm:tiny");
    let c = |n: &str| report.snapshot.counter(n);
    // cmd_inject runs the main campaign (200) plus a precision study
    // ((200/2).max(100) = 100), every run classified exactly once.
    assert_eq!(c("llfi.campaign.runs_total"), 300);
    assert_eq!(
        c("llfi.campaign.runs_crash")
            + c("llfi.campaign.runs_sdc")
            + c("llfi.campaign.runs_benign")
            + c("llfi.campaign.runs_hang")
            + c("llfi.campaign.runs_detected"),
        c("llfi.campaign.runs_total")
    );
}

/// The invariant subset of the snapshot for one epvf command line.
fn invariant_subset(args: &[&str]) -> BTreeMap<String, u64> {
    run_with_metrics(args).snapshot.invariant_subset()
}

#[test]
fn inject_invariant_counters_survive_threads_and_checkpoints() {
    let base = invariant_subset(&["inject", "mm:tiny", "200", "7", "--threads", "1"]);
    assert!(
        base.values().any(|&v| v > 0),
        "invariant subset non-trivial"
    );
    for extra in [
        vec!["--threads", "4"],
        vec!["--threads", "3", "--ckpt-interval", "0"],
        vec!["--threads", "2", "--ckpt-interval", "64"],
    ] {
        let mut args = vec!["inject", "mm:tiny", "200", "7"];
        args.extend(extra.iter());
        assert_eq!(
            base,
            invariant_subset(&args),
            "invariant counters must not depend on {extra:?}"
        );
    }
}

#[test]
fn oracle_invariant_counters_survive_threads() {
    let base = invariant_subset(&["oracle", "bfs:tiny", "--limit", "400", "--threads", "1"]);
    let multi = invariant_subset(&["oracle", "bfs:tiny", "--limit", "400", "--threads", "4"]);
    assert_eq!(base, multi, "oracle invariant counters thread-independent");
    // The sweep's confusion matrix covers every executed flip.
    let report = run_with_metrics(&["oracle", "bfs:tiny", "--limit", "400", "--threads", "2"]);
    assert_conserved(&report, "oracle bfs:tiny");
    let c = |n: &str| report.snapshot.counter(n);
    assert_eq!(
        c("oracle.diff.true_positives")
            + c("oracle.diff.false_positives")
            + c("oracle.diff.false_negatives")
            + c("oracle.diff.true_negatives"),
        c("oracle.sweep.flips"),
        "every swept flip lands in exactly one confusion cell"
    );
}

#[test]
fn metrics_check_validates_and_rejects() {
    let mut good = std::env::temp_dir();
    good.push(format!("epvf-mc-good-{}.json", std::process::id()));
    let report = run_with_metrics(&["analyze", "mm:tiny"]);
    report.write_file(&good).expect("writes");

    let run_check = |path: &PathBuf| {
        Command::new(env!("CARGO_BIN_EXE_epvf"))
            .arg("metrics-check")
            .arg(path)
            .output()
            .expect("epvf runs")
    };
    let ok = run_check(&good);
    assert!(ok.status.success(), "valid document passes metrics-check");

    let mut bad = std::env::temp_dir();
    bad.push(format!("epvf-mc-bad-{}.json", std::process::id()));
    let text = std::fs::read_to_string(&good).expect("reads");
    std::fs::write(&bad, text.replace("\"version\":1", "\"version\":99")).expect("writes");
    let rejected = run_check(&bad);
    assert!(
        !rejected.status.success(),
        "future-version document must fail metrics-check"
    );
    std::fs::remove_file(&good).ok();
    std::fs::remove_file(&bad).ok();
}

/// A bench report whose counters are all zero measured nothing and fails
/// `metrics-check` with exit 7; the same empty snapshot from a plain
/// `epvf` command (which may legitimately touch no counter) passes, as
/// does a bench report with one non-zero counter.
#[test]
fn metrics_check_rejects_all_zero_bench_reports() {
    let dir = std::env::temp_dir();
    let write = |name: &str, report: &MetricsReport| {
        let path = dir.join(format!("epvf-mc-{name}-{}.json", std::process::id()));
        report.write_file(&path).expect("writes");
        path
    };
    let check = |path: &PathBuf| {
        Command::new(env!("CARGO_BIN_EXE_epvf"))
            .arg("metrics-check")
            .arg(path)
            .output()
            .expect("epvf runs")
    };
    let zeros = epvf_telemetry::global_snapshot();
    assert!(zeros.counters.values().all(|&v| v == 0), "fresh registry");

    let bench_zero = write(
        "bench-zero",
        &MetricsReport::new(zeros.clone()).with_meta("tool", "epvf-bench"),
    );
    let out = check(&bench_zero);
    assert_eq!(out.status.code(), Some(7), "all-zero bench report rejected");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("counters are zero"),
        "names the reason: {stderr}"
    );

    let cli_zero = write(
        "cli-zero",
        &MetricsReport::new(zeros.clone()).with_meta("tool", "epvf"),
    );
    assert!(check(&cli_zero).status.success(), "non-bench report passes");

    let mut one = zeros;
    one.counters.insert("supervisor.spawned".into(), 3);
    one.counters.insert("supervisor.shards".into(), 3);
    let bench_one = write(
        "bench-one",
        &MetricsReport::new(one).with_meta("tool", "epvf-bench"),
    );
    let out = check(&bench_one);
    assert!(
        out.status.success(),
        "bench report with a non-zero counter passes: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    for p in [bench_zero, cli_zero, bench_one] {
        std::fs::remove_file(p).ok();
    }
}
