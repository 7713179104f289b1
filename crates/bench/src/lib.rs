//! # epvf-bench — experiment harnesses for every table and figure
//!
//! Each binary in `src/bin/` regenerates one table or figure of the ePVF
//! paper (see `DESIGN.md` §4 for the index); this library holds the shared
//! plumbing: option parsing, per-workload analysis + campaign execution,
//! and plain-text table rendering.
//!
//! All harnesses accept:
//!
//! * `--runs N` — fault injections per benchmark (default 1000);
//! * `--seed S` — campaign RNG seed (default 42);
//! * `--scale tiny|small|standard` — workload input scale (default small);
//! * `--bench NAME` — restrict to one benchmark;
//! * `--ckpt-interval K` — replay checkpoint spacing in dynamic
//!   instructions (0 disables checkpoint-resume; default automatic);
//! * `--threads T` — campaign worker threads (default: all cores);
//! * `--metrics-out FILE` — where to write the machine-readable metrics
//!   document (default `results/BENCH_<harness>.json`).
//!
//! Besides the plain-text table on stdout, every harness finishes by
//! calling [`emit_metrics`], which dumps the process-global telemetry
//! registry — phase timers, campaign outcome tallies, interpreter work
//! counters — as one line of versioned JSON stamped with the git commit
//! and the harness configuration. `epvf metrics-check` validates these
//! artifacts.

#![warn(missing_docs)]

use epvf_core::{analyze, EpvfConfig, EpvfResult};
use epvf_interp::RunResult;
use epvf_llfi::{Campaign, CampaignConfig, CampaignResult};
use epvf_telemetry::{MetricsReport, Tmr};
use epvf_workloads::{suite, Scale, Workload};
use std::path::PathBuf;

/// Common harness options.
#[derive(Debug, Clone)]
pub struct HarnessOpts {
    /// Fault injections per benchmark.
    pub runs: usize,
    /// Campaign RNG seed.
    pub seed: u64,
    /// Workload input scale.
    pub scale: Scale,
    /// Restrict to one benchmark by name.
    pub only: Option<String>,
    /// Replay checkpoint spacing; `None` = automatic, `Some(0)` = off.
    pub ckpt_interval: Option<u64>,
    /// Campaign worker threads; `None` = all cores.
    pub threads: Option<usize>,
    /// Metrics document path; `None` = `results/BENCH_<harness>.json`.
    pub metrics_out: Option<PathBuf>,
    /// Adaptive-sampling CI half-width target; `None` = harness default.
    pub target_ci: Option<f64>,
}

impl Default for HarnessOpts {
    fn default() -> Self {
        HarnessOpts {
            runs: 1000,
            seed: 42,
            scale: Scale::Small,
            only: None,
            ckpt_interval: None,
            threads: None,
            metrics_out: None,
            target_ci: None,
        }
    }
}

impl HarnessOpts {
    /// Parse from `std::env::args()`; exits with a message on bad input.
    pub fn from_args() -> Self {
        let mut opts = HarnessOpts::default();
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--runs" => {
                    opts.runs = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| die("--runs needs a number"));
                }
                "--seed" => {
                    opts.seed = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| die("--seed needs a number"));
                }
                "--scale" => {
                    opts.scale = match args.next().as_deref() {
                        Some("tiny") => Scale::Tiny,
                        Some("small") => Scale::Small,
                        Some("standard") => Scale::Standard,
                        _ => die("--scale needs tiny|small|standard"),
                    };
                }
                "--bench" => {
                    opts.only = Some(args.next().unwrap_or_else(|| die("--bench needs a name")));
                }
                "--ckpt-interval" => {
                    opts.ckpt_interval = Some(
                        args.next()
                            .and_then(|v| v.parse().ok())
                            .unwrap_or_else(|| die("--ckpt-interval needs a number")),
                    );
                }
                "--threads" => {
                    opts.threads = Some(
                        args.next()
                            .and_then(|v| v.parse().ok())
                            .unwrap_or_else(|| die("--threads needs a number")),
                    );
                }
                "--metrics-out" => {
                    opts.metrics_out = Some(PathBuf::from(
                        args.next()
                            .unwrap_or_else(|| die("--metrics-out needs a path")),
                    ));
                }
                "--target-ci" => {
                    let w: f64 = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| die("--target-ci needs a number"));
                    if !(w.is_finite() && w > 0.0) {
                        die("--target-ci needs a positive number");
                    }
                    opts.target_ci = Some(w);
                }
                "--help" | "-h" => {
                    eprintln!(
                        "options: --runs N  --seed S  --scale tiny|small|standard  --bench NAME  \
                         --ckpt-interval K  --threads T  --metrics-out FILE  --target-ci W"
                    );
                    std::process::exit(0);
                }
                other => die(&format!("unknown option {other}")),
            }
        }
        opts
    }

    /// Campaign configuration honouring the `--ckpt-interval` / `--threads`
    /// overrides.
    pub fn campaign_config(&self) -> CampaignConfig {
        let mut cfg = CampaignConfig::default();
        if let Some(k) = self.ckpt_interval {
            cfg.ckpt_interval = if k == 0 { CampaignConfig::CKPT_OFF } else { k };
        }
        if let Some(t) = self.threads {
            cfg.threads = t.max(1);
        }
        cfg
    }

    /// The workload set selected by these options.
    pub fn workloads(&self) -> Vec<Workload> {
        let all = suite(self.scale);
        match &self.only {
            Some(name) => all
                .into_iter()
                .filter(|w| w.name == name.as_str())
                .collect(),
            None => all,
        }
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// Time one harness section through the shared telemetry registry.
///
/// Returns the closure's result and the elapsed wall time in
/// milliseconds (for the human-readable tables); the same sample lands
/// in the `bench.section` histogram of the emitted metrics document, so
/// machine consumers never re-parse table cells.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    epvf_telemetry::time_ms(Tmr::BenchSection, f)
}

/// The current git commit (short), or `"unknown"` outside a checkout.
pub fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Write the harness's metrics document: the process-global telemetry
/// snapshot stamped with the git commit and the harness configuration.
///
/// The path is `--metrics-out` when given, else
/// `results/BENCH_<harness>.json`. The destination note goes to stderr so
/// redirected stdout (the `.txt` table) is unaffected. Failures warn
/// rather than abort — a read-only checkout must not kill a finished run.
pub fn emit_metrics(harness: &str, opts: &HarnessOpts) {
    let path = opts
        .metrics_out
        .clone()
        .unwrap_or_else(|| PathBuf::from(format!("results/BENCH_{harness}.json")));
    let report = MetricsReport::new(epvf_telemetry::global_snapshot())
        .with_meta("tool", "epvf-bench")
        .with_meta("harness", harness)
        .with_meta("git_sha", git_sha())
        .with_meta("runs", opts.runs.to_string())
        .with_meta("seed", opts.seed.to_string())
        .with_meta("scale", format!("{:?}", opts.scale).to_lowercase())
        .with_meta("bench", opts.only.as_deref().unwrap_or("all"))
        .with_meta(
            "ckpt_interval",
            opts.ckpt_interval.map_or("auto".into(), |k| k.to_string()),
        )
        .with_meta(
            "threads",
            opts.threads.map_or("auto".into(), |t| t.to_string()),
        );
    match report.write_file(&path) {
        Ok(()) => eprintln!("metrics: wrote {}", path.display()),
        Err(e) => eprintln!("metrics: cannot write {}: {e}", path.display()),
    }
}

/// One workload, analysed and campaigned — everything the harnesses need.
pub struct Analyzed<'m> {
    /// The workload.
    pub workload: &'m Workload,
    /// Prepared campaign (owns the golden run + trace).
    pub campaign: Campaign<'m>,
    /// The ePVF analysis of the golden trace.
    pub analysis: EpvfResult,
}

impl<'m> Analyzed<'m> {
    /// Golden run (traced).
    pub fn golden(&self) -> &RunResult {
        self.campaign.golden()
    }

    /// Run the fault-injection campaign.
    pub fn inject(&self, runs: usize, seed: u64) -> CampaignResult {
        self.campaign.run(runs, seed)
    }
}

/// Golden-run + ePVF-analyse one workload with the default campaign
/// configuration.
///
/// # Panics
/// Panics if the workload fails to run (construction bug).
pub fn analyze_workload(w: &Workload) -> Analyzed<'_> {
    let campaign = Campaign::new(
        &w.module,
        Workload::ENTRY,
        &w.args,
        CampaignConfig::default(),
    )
    .expect("workload golden run succeeds");
    let trace = campaign.golden().trace.as_ref().expect("golden is traced");
    let analysis = analyze(&w.module, trace, EpvfConfig::default());
    Analyzed {
        workload: w,
        campaign,
        analysis,
    }
}

/// Render an aligned plain-text table.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let render = |cells: &[String]| {
        let cols: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:width$}", c, width = widths.get(i).copied().unwrap_or(0)))
            .collect();
        println!("  {}", cols.join("  "));
    };
    render(&header.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    let total = widths.iter().sum::<usize>() + 2 * widths.len();
    println!("  {}", "-".repeat(total));
    for row in rows {
        render(row);
    }
}

/// Percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// A `value [lo, hi]` cell for CI-carrying proportions.
pub fn pct_ci(x: f64, ci: (f64, f64)) -> String {
    format!(
        "{:.1}% [{:.1}, {:.1}]",
        100.0 * x,
        100.0 * ci.0,
        100.0 * ci.1
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use epvf_workloads::mm;

    #[test]
    fn analyze_workload_end_to_end() {
        let w = mm::build(Scale::Tiny);
        let a = analyze_workload(&w);
        assert!(a.analysis.metrics.epvf < a.analysis.metrics.pvf);
        let fi = a.inject(50, 1);
        assert_eq!(fi.n(), 50);
    }

    #[test]
    fn table_rendering_does_not_panic() {
        print_table(
            "demo",
            &["a", "bench"],
            &[vec!["1".into(), "x".into()], vec!["222".into(), "y".into()]],
        );
        assert_eq!(pct(0.5), "50.0%");
        assert!(pct_ci(0.5, (0.4, 0.6)).contains("[40.0, 60.0]"));
    }

    #[test]
    fn default_opts() {
        let o = HarnessOpts::default();
        assert_eq!(o.runs, 1000);
        assert!(o.only.is_none());
        assert_eq!(o.workloads().len(), 10);
    }
}
