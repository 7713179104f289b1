//! `epvf run-sharded` — one command that runs a whole sharded campaign
//! under the fault-tolerant supervisor.
//!
//! Where `epvf shard` + `epvf merge` leave process orchestration to the
//! caller, `run-sharded` owns it: it spawns `--shards S` concurrent
//! `epvf shard` workers over scratch WALs, supervises them
//! (WAL-growth heartbeat, `--stall-timeout-ms`, `--shard-deadline-ms`),
//! restarts failures from their WAL with a `--shard-retries` budget and
//! jittered exponential backoff, and merges the logs into the same
//! summary bytes a single-process `epvf inject` would print.
//!
//! When a shard exhausts its retries the command fails with exit 5 —
//! unless `--allow-partial` is given, in which case the merge salvages
//! the completed shards plus the failed shard's WAL prefix, prints the
//! summary over the salvaged runs plus a `partial:` line, and exits
//! with the dedicated code 9 so scripts can tell "complete" from
//! "best effort" without parsing stdout.

use crate::plan::CampaignPlan;
use crate::{flag_value, parse_inject_opts, resolve, CliError};
use epvf_llfi::{CampaignResult, ChaosConfig, SupervisorConfig, SupervisorEvent, SupervisorReport};
use epvf_telemetry::{Ctr, MetricsReport, MetricsSnapshot};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// `run-sharded`'s own flags, pulled out of the argument list before the
/// rest is both parsed locally and forwarded verbatim to the workers.
struct SupervisorOpts {
    shards: usize,
    /// Retry budget, heartbeat and deadline policy, backoff and chaos.
    policy: SupervisorConfig,
    allow_partial: bool,
    work_dir: Option<PathBuf>,
    counters_out: Option<PathBuf>,
}

fn extract_supervisor_opts(rest: &[String]) -> Result<(SupervisorOpts, Vec<String>), CliError> {
    let mut opts = SupervisorOpts {
        shards: 0,
        policy: SupervisorConfig::default(),
        allow_partial: false,
        work_dir: None,
        counters_out: None,
    };
    let mut forwarded = Vec::new();
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        if parse_policy_flag(&mut opts.policy, a, &mut it)? {
            continue;
        }
        match a.as_str() {
            "--shards" => opts.shards = flag_value(&mut it, a)?,
            "--backoff-ms" => {
                let ms: u64 = flag_value(&mut it, a)?;
                opts.policy.backoff_base = Duration::from_millis(ms.max(1));
            }
            "--allow-partial" => opts.allow_partial = true,
            "--work-dir" => opts.work_dir = Some(flag_value(&mut it, a)?),
            "--counters-out" => opts.counters_out = Some(flag_value(&mut it, a)?),
            "--chaos" => {
                let spec: String = flag_value(&mut it, a)?;
                opts.policy.chaos = Some(
                    ChaosConfig::parse(&spec)
                        .map_err(|e| CliError::usage(format!("--chaos: {e}")))?,
                );
            }
            _ => forwarded.push(a.clone()),
        }
    }
    if opts.shards == 0 {
        return Err(CliError::usage("run-sharded requires --shards S (S >= 1)"));
    }
    Ok((opts, forwarded))
}

/// Parse `flag` into `policy` if it is one of the supervisor policy flags
/// `run-sharded` and `serve` share: `--shard-retries N`,
/// `--stall-timeout-ms MS`, `--shard-deadline-ms MS`. Returns whether it
/// was.
pub(crate) fn parse_policy_flag(
    policy: &mut SupervisorConfig,
    flag: &str,
    it: &mut std::slice::Iter<'_, String>,
) -> Result<bool, CliError> {
    match flag {
        "--shard-retries" => policy.retries = flag_value(it, flag)?,
        "--stall-timeout-ms" => {
            policy.stall_timeout = Some(Duration::from_millis(flag_value(it, flag)?));
        }
        "--shard-deadline-ms" => {
            policy.deadline = Some(Duration::from_millis(flag_value(it, flag)?));
        }
        _ => return Ok(false),
    }
    Ok(true)
}

/// Removes a scratch directory when dropped, so every exit path — success,
/// failure, or an early `?` — cleans up the shard WALs and stderr
/// captures.
pub(crate) struct ScratchDir(pub(crate) PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Run `shards` concurrent `epvf shard` workers of `spec` over WALs in
/// `dir` under the fault-tolerant supervisor: crashed or hung workers
/// are restarted from their WAL per `cfg`, and each worker's stderr is
/// captured to a scratch file whose tail is surfaced on failure. Every
/// supervision event is handed to `log` together with its narration line
/// (if it has one). Returns the report and the shard WAL paths in shard
/// order.
pub(crate) fn supervise_shards(
    spec: &str,
    forwarded: &[String],
    shards: usize,
    dir: &Path,
    cfg: &SupervisorConfig,
    log: &mut dyn FnMut(&SupervisorEvent, Option<String>),
) -> Result<(SupervisorReport, Vec<PathBuf>), CliError> {
    let plans = shard_plans(spec, forwarded, shards, dir)?;
    let report = epvf_llfi::supervise(&plans, cfg, &mut |event| {
        let line = narrate(&event, shards, dir);
        log(&event, line);
    })
    .map_err(|e| CliError::io(format!("supervising shard workers: {e}")))?;
    Ok((report, plans.into_iter().map(|p| p.wal).collect()))
}

/// Build the worker plans: shard `i` runs
/// `epvf shard <spec> <forwarded...> --index i --of S --wal DIR/shard-i.wal`,
/// resuming with `--resume` appended.
fn shard_plans(
    spec: &str,
    forwarded: &[String],
    shards: usize,
    dir: &Path,
) -> Result<Vec<epvf_llfi::ShardPlan>, CliError> {
    let exe = std::env::current_exe()
        .map_err(|e| CliError::io(format!("locating the epvf binary: {e}")))?;
    std::fs::create_dir_all(dir)
        .map_err(|e| CliError::io(format!("creating {}: {e}", dir.display())))?;
    Ok((0..shards)
        .map(|i| {
            let mut fresh: Vec<String> = vec!["shard".into(), spec.into()];
            fresh.extend(forwarded.iter().cloned());
            fresh.extend([
                "--index".into(),
                i.to_string(),
                "--of".into(),
                shards.to_string(),
                "--wal".into(),
                dir.join(format!("shard-{i}.wal")).display().to_string(),
            ]);
            let mut resume = fresh.clone();
            resume.push("--resume".into());
            epvf_llfi::ShardPlan {
                index: i,
                program: exe.clone(),
                fresh_args: fresh,
                resume_args: resume,
                wal: dir.join(format!("shard-{i}.wal")),
                stderr_path: dir.join(format!("shard-{i}.stderr")),
                envs: Vec::new(),
            }
        })
        .collect())
}

/// The last 512 bytes of shard `shard`'s captured stderr in `dir`,
/// flattened to one line and formatted as a ` [stderr: ...]` suffix for
/// a supervisor log line (empty when there is nothing to show).
pub(crate) fn stderr_tail(dir: &Path, shard: usize) -> String {
    let Ok(bytes) = std::fs::read(dir.join(format!("shard-{shard}.stderr"))) else {
        return String::new();
    };
    let start = bytes.len().saturating_sub(512);
    let tail = String::from_utf8_lossy(&bytes[start..])
        .trim()
        .replace('\n', " | ");
    if tail.is_empty() {
        tail
    } else {
        format!(" [stderr: {tail}]")
    }
}

/// The narration line for a supervision event, if it gets one, with the
/// failure cause spelled out distinctly for signal vs. nonzero-exit vs.
/// stall (the exit-code table documents the same taxonomy).
/// `run-sharded` sends these lines to stderr, the serve daemon onto the
/// wire.
fn narrate(event: &SupervisorEvent, shards: usize, dir: &Path) -> Option<String> {
    use epvf_llfi::FailureKind;
    match event {
        SupervisorEvent::Spawned {
            shard,
            attempt,
            resumed,
        } => (*attempt > 1 || *resumed).then(|| {
            format!(
                "supervisor: shard {shard}/{shards} attempt {attempt} started{}",
                if *resumed {
                    " (resuming from WAL)"
                } else {
                    " (fresh)"
                }
            )
        }),
        SupervisorEvent::Failed {
            shard,
            attempt,
            kind,
            will_retry,
            backoff,
        } => {
            // Distinct line heads per cause: `crashed (signal)`,
            // `failed (exit N)`, `hung (stall)`, `hung (deadline)`.
            let cause = match kind {
                FailureKind::Signal(sig) => format!("crashed (killed by signal {sig})"),
                FailureKind::Exit(code) => format!("failed (exited with code {code})"),
                FailureKind::Stalled => "hung (stalled: no WAL progress)".to_string(),
                FailureKind::DeadlineExceeded => "hung (exceeded the shard deadline)".to_string(),
                FailureKind::SpawnError => "failed (could not spawn)".to_string(),
            };
            let next = if *will_retry {
                format!("restarting in {} ms", backoff.as_millis())
            } else {
                "retry budget exhausted".to_string()
            };
            let tail = stderr_tail(dir, *shard);
            Some(format!(
                "supervisor: shard {shard}/{shards} attempt {attempt} {cause}; {next}{tail}"
            ))
        }
        SupervisorEvent::Succeeded { shard, attempt } => (*attempt > 1)
            .then(|| format!("supervisor: shard {shard}/{shards} recovered on attempt {attempt}")),
        SupervisorEvent::Chaos { shard, action } => {
            Some(format!("supervisor: chaos {action} -> shard {shard}"))
        }
    }
}

/// Write the merged campaign's `llfi.campaign.runs_*` class counters as
/// a standalone metrics document derived from the WAL records alone.
/// The parent registry is no use here: killed worker attempts lose
/// their in-memory counts and resumed attempts do not re-count
/// recovered runs, but the WAL union *is* the campaign — so these
/// counters match a single-process run byte-for-byte, which is exactly
/// what the chaos harness diffs.
fn write_class_counters(path: &Path, fi: &CampaignResult) -> Result<(), CliError> {
    let mut snap = MetricsSnapshot::default();
    let mut put = |c: Ctr, n: u64| {
        *snap.counters.entry(c.def().name.to_string()).or_default() += n;
    };
    // Every `llfi.campaign.runs_*` counter is written, zero classes too.
    for c in Ctr::all().filter(|c| c.def().name.starts_with("llfi.campaign.runs_")) {
        put(c, 0);
    }
    put(Ctr::CampaignRunsTotal, fi.n() as u64);
    for &(_, outcome) in &fi.runs {
        put(outcome.counter(), 1);
    }
    MetricsReport::new(snap)
        .with_meta("tool", "epvf")
        .with_meta("command", "run-sharded")
        .write_file(path)
        .map_err(|e| CliError::io(format!("writing {}: {e}", path.display())))
}

/// `epvf run-sharded <target> [N] [SEED] --shards S [...]`.
pub(crate) fn cmd_run_sharded(rest: &[String]) -> Result<(), CliError> {
    let (spec, rest) = rest
        .split_first()
        .ok_or_else(|| CliError::usage("missing <target>"))?;
    let (sup, forwarded) = extract_supervisor_opts(rest)?;
    let (config, opts) = parse_inject_opts(&forwarded)?;
    if opts.wal.is_some() || opts.resume || opts.sample {
        return Err(CliError::usage(
            "run-sharded takes neither --wal, --resume nor --sample \
             (it owns the shard WALs itself)",
        ));
    }

    let t = resolve(spec)?;
    let plan = CampaignPlan::new(&t, config, &opts)?;

    let dir = sup.work_dir.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!("epvf-run-sharded-{}", std::process::id()))
    });
    let _scratch = sup.work_dir.is_none().then(|| ScratchDir(dir.clone()));
    let cfg = SupervisorConfig {
        seed: opts.seed,
        ..sup.policy.clone()
    };
    let (report, wals) =
        supervise_shards(spec, &forwarded, sup.shards, &dir, &cfg, &mut |_, line| {
            if let Some(line) = line {
                eprintln!("{line}");
            }
        })?;

    let failed = report.failed_shards();
    let (fi, missing) = if report.all_ok() {
        (plan.merge(&wals)?, None)
    } else if sup.allow_partial {
        // Salvage: completed shards merge fully; failed shards contribute
        // whatever intact prefix their WAL holds.
        let (fi, missing) = plan.salvage(&wals, &failed)?;
        (fi, Some(missing))
    } else {
        let causes: Vec<String> = report
            .shards
            .iter()
            .filter(|s| !s.ok)
            .map(|s| {
                format!(
                    "shard {} ({} after {} attempt(s))",
                    s.index,
                    s.last_failure
                        .map_or_else(|| "unknown failure".into(), |k| k.to_string()),
                    s.attempts
                )
            })
            .collect();
        return Err(CliError::campaign(format!(
            "{} of {} shards failed past the retry budget: {} \
             (re-run with --allow-partial to salvage their WAL prefixes)",
            failed.len(),
            report.shards.len(),
            causes.join(", ")
        )));
    };

    let res = plan.analyze()?;
    print!("{}", plan.render(&res, &fi));
    if let Some(path) = &sup.counters_out {
        write_class_counters(path, &fi)?;
    }
    let Some(missing) = missing else {
        return plan.finish(&fi, None, opts.max_unsound);
    };
    let failed_list: Vec<String> = failed.iter().map(usize::to_string).collect();
    let retries = cfg.retries;
    let partial_line = format!(
        "partial: salvaged {}/{} runs ({missing} missing) after shard(s) {} \
         exhausted {retries} retr{}; rates above cover salvaged runs only",
        fi.n(),
        plan.specs.len(),
        failed_list.join(","),
        if retries == 1 { "y" } else { "ies" },
    );
    println!("{partial_line}");
    Err(CliError::Partial(partial_line))
}
