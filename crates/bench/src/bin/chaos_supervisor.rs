//! Chaos harness for the shard supervisor: prove that a supervised
//! multi-process campaign disturbed by random worker SIGKILLs and
//! SIGSTOPs still merges to *exactly* the bytes and per-class counters
//! of an undisturbed single-process run.
//!
//! For each target and each of [`SEEDS`] chaos seeds the harness runs
//! `epvf run-sharded … --chaos kill:0.35,stop:0.3,seed:<s>` against a
//! reference `epvf inject` stdout and a reference `epvf shard 0/1`
//! counter dump, then gates every run's telemetry through
//! `epvf metrics-check` (conservation laws) and the per-class campaign
//! counters through `metrics-check --diff-counters`. A disturbed run
//! whose summary or counters drift by one byte fails the harness; a
//! harness where no chaos event ever fired also fails (a vacuous pass
//! proves nothing). Failed runs leave their WAL/stderr scratch
//! directories in place for post-mortem (CI uploads them).
//!
//! The harness itself runs no campaign, so its report's counters are the
//! disturbed runs' own: every `run-sharded --metrics-out` document is
//! parsed with the strict schema parser and folded in with the snapshot
//! merge.

use epvf_bench::{print_table, timed, HarnessOpts};
use epvf_telemetry::{MetricsReport, MetricsSnapshot};
use std::path::{Path, PathBuf};
use std::process::Command;

/// Distinct chaos RNG seeds per target — each drives an independent
/// kill/stop schedule over the worker fleet.
const SEEDS: u64 = 20;
const SHARDS: usize = 3;
const KILL_P: f64 = 0.35;
const STOP_P: f64 = 0.3;
/// Event budget per run; with retries comfortably above it, a run can
/// absorb every event on one shard and still finish.
const MAX_EVENTS: u32 = 4;
const RETRIES: u32 = 6;
/// Stall window that recovers SIGSTOPped workers (their WALs stop
/// growing) without tripping on honest startup time.
const STALL_MS: u64 = 800;

/// The two CI chaos-smoke targets; `--bench NAME` narrows to one.
const TARGETS: [&str; 2] = ["lud", "pathfinder"];

struct Run {
    stdout: String,
    stderr: String,
    code: i32,
}

fn epvf(bin: &Path, args: &[&str]) -> Run {
    let out = Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("running {}: {e}", bin.display()));
    Run {
        stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
        code: out.status.code().expect("not signal-killed"),
    }
}

/// Locate the `epvf` CLI binary: `$EPVF_BIN`, then a sibling of this
/// harness binary (both live in the same cargo target directory).
fn epvf_bin() -> PathBuf {
    if let Ok(p) = std::env::var("EPVF_BIN") {
        return PathBuf::from(p);
    }
    let sibling = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("epvf")));
    match sibling {
        Some(p) if p.exists() => p,
        _ => panic!(
            "cannot find the epvf binary next to the harness; \
             build it (cargo build -p epvf-cli) or set EPVF_BIN"
        ),
    }
}

/// Parse every metrics document in a `--metrics-out` file (strict
/// schema check) and fold them into one snapshot.
fn read_metrics(path: &Path) -> MetricsSnapshot {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    let mut snap = MetricsSnapshot::default();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let report =
            MetricsReport::parse(line).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        snap.merge(&report.snapshot);
    }
    snap
}

#[derive(Default)]
struct Tally {
    kills: u64,
    stops: u64,
    hangs: u64,
    crashes: u64,
    restarts: u64,
    identical: u64,
}

fn main() {
    let opts = HarnessOpts::from_args();
    let bin = epvf_bin();
    let scale = format!("{:?}", opts.scale).to_lowercase();
    let runs = opts.runs.to_string();
    let seed = opts.seed.to_string();
    let scratch = std::env::temp_dir().join(format!("epvf-chaos-{}", std::process::id()));

    let mut rows = Vec::new();
    let mut total = Tally::default();
    let mut folded = MetricsSnapshot::default();
    let mut wall_ms = 0.0;
    for name in TARGETS {
        if opts.only.as_deref().is_some_and(|only| only != name) {
            continue;
        }
        let spec = format!("{name}:{scale}");
        let dir = scratch.join(name);
        std::fs::create_dir_all(&dir).expect("scratch dir");

        // References: the undisturbed single-process summary, and the
        // per-class campaign counters of a full-coverage shard (whose
        // registry holds exactly the campaign's runs — `inject` would
        // pollute them with its precision study).
        let single = epvf(&bin, &["inject", &spec, &runs, &seed]);
        assert_eq!(single.code, 0, "{spec}: {}", single.stderr);
        let ref_counters = dir.join("ref-counters.json");
        let ref_wal = dir.join("ref.wal");
        let r = epvf(
            &bin,
            &[
                "shard",
                &spec,
                &runs,
                &seed,
                "--index",
                "0",
                "--of",
                "1",
                "--wal",
                ref_wal.to_str().expect("utf8"),
                "--metrics-out",
                ref_counters.to_str().expect("utf8"),
            ],
        );
        assert_eq!(r.code, 0, "{spec} counter reference: {}", r.stderr);

        let mut tally = Tally::default();
        let ((), t) = timed(|| {
            for chaos_seed in 0..SEEDS {
                let work = dir.join(format!("seed-{chaos_seed}"));
                let metrics = dir.join(format!("metrics-{chaos_seed}.json"));
                let counters = dir.join(format!("counters-{chaos_seed}.json"));
                let chaos =
                    format!("kill:{KILL_P},stop:{STOP_P},seed:{chaos_seed},max:{MAX_EVENTS}");
                let r = epvf(
                    &bin,
                    &[
                        "run-sharded",
                        &spec,
                        &runs,
                        &seed,
                        "--shards",
                        &SHARDS.to_string(),
                        "--threads",
                        "1",
                        "--shard-retries",
                        &RETRIES.to_string(),
                        "--stall-timeout-ms",
                        &STALL_MS.to_string(),
                        "--chaos",
                        &chaos,
                        "--work-dir",
                        work.to_str().expect("utf8"),
                        "--metrics-out",
                        metrics.to_str().expect("utf8"),
                        "--counters-out",
                        counters.to_str().expect("utf8"),
                    ],
                );
                assert_eq!(
                    r.code,
                    0,
                    "{spec} chaos seed {chaos_seed} did not recover \
                     (WALs kept in {}):\n{}",
                    work.display(),
                    r.stderr
                );
                assert_eq!(
                    r.stdout,
                    single.stdout,
                    "{spec} chaos seed {chaos_seed}: merged stdout drifted \
                     from the undisturbed run (WALs kept in {})",
                    work.display()
                );

                // Conservation gate over the supervised run's telemetry…
                let gate = epvf(&bin, &["metrics-check", metrics.to_str().expect("utf8")]);
                assert_eq!(gate.code, 0, "{spec} seed {chaos_seed}: {}", gate.stderr);
                // …and byte-equality of the per-class campaign counters.
                let diff = epvf(
                    &bin,
                    &[
                        "metrics-check",
                        "--diff-counters",
                        "llfi.campaign.runs_",
                        ref_counters.to_str().expect("utf8"),
                        counters.to_str().expect("utf8"),
                    ],
                );
                assert_eq!(
                    diff.code, 0,
                    "{spec} seed {chaos_seed}: recovered campaign counters \
                     drifted:\n{}\n{}",
                    diff.stdout, diff.stderr
                );

                let snap = read_metrics(&metrics);
                tally.kills += snap.counter("supervisor.chaos.kills");
                tally.stops += snap.counter("supervisor.chaos.stops");
                tally.hangs += snap.counter("supervisor.hangs");
                tally.crashes += snap.counter("supervisor.crashes");
                tally.restarts += snap.counter("supervisor.restarts");
                folded.merge(&snap);
                tally.identical += 1;
                // This seed recovered: its scratch WALs are not needed.
                std::fs::remove_dir_all(&work).ok();
            }
        });
        wall_ms += t;

        rows.push(vec![
            spec,
            format!("{SEEDS}"),
            tally.kills.to_string(),
            tally.stops.to_string(),
            tally.crashes.to_string(),
            tally.hangs.to_string(),
            tally.restarts.to_string(),
            format!("{}/{SEEDS}", tally.identical),
            format!("{t:.0} ms"),
        ]);
        total.kills += tally.kills;
        total.stops += tally.stops;
        total.hangs += tally.hangs;
        total.crashes += tally.crashes;
        total.restarts += tally.restarts;
        total.identical += tally.identical;
    }
    assert!(!rows.is_empty(), "no target selected (check --bench)");

    print_table(
        &format!(
            "Supervisor chaos recovery (kill {KILL_P}, stop {STOP_P}, \
             {SHARDS} shards, byte-identity enforced per seed)"
        ),
        &[
            "target",
            "seeds",
            "kills",
            "stops",
            "crashes",
            "hangs",
            "restarts",
            "identical",
            "time",
        ],
        &rows,
    );

    // A chaos run that never disturbed anything proves nothing.
    assert!(
        total.kills + total.stops > 0,
        "vacuous chaos campaign: no kill or stop event fired across {SEEDS} seeds"
    );

    let path = opts
        .metrics_out
        .clone()
        .unwrap_or_else(|| "results/BENCH_chaos_supervisor.json".into());
    // The harness's own counters (its `bench.section` timers) join the
    // disturbed runs' ones.
    folded.merge(&epvf_telemetry::global_snapshot());
    let report = MetricsReport::new(folded)
        .with_meta("tool", "epvf-bench")
        .with_meta("harness", "chaos_supervisor")
        .with_meta("git_sha", epvf_bench::git_sha())
        .with_meta("runs", runs)
        .with_meta("seed", seed)
        .with_meta("scale", scale)
        .with_meta("bench", opts.only.as_deref().unwrap_or("all"))
        .with_meta("chaos_seeds", SEEDS.to_string())
        .with_meta("kill_p", KILL_P.to_string())
        .with_meta("stop_p", STOP_P.to_string())
        .with_meta("chaos_kills", total.kills.to_string())
        .with_meta("chaos_stops", total.stops.to_string())
        .with_meta("hangs", total.hangs.to_string())
        .with_meta("crashes", total.crashes.to_string())
        .with_meta("restarts", total.restarts.to_string())
        .with_meta("identical", total.identical.to_string())
        .with_meta("wall_ms", format!("{wall_ms:.0}"));
    match report.write_file(&path) {
        Ok(()) => eprintln!("metrics: wrote {}", path.display()),
        Err(e) => eprintln!("metrics: cannot write {}: {e}", path.display()),
    }
    std::fs::remove_dir_all(&scratch).ok();
}
