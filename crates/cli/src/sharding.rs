//! `epvf shard` / `epvf merge` — the multi-process campaign engine.
//!
//! A campaign over `draw_specs(N, seed)` is partitioned by striding:
//! shard `i` of `S` runs the global spec indices `{g : g % S == i}` into
//! its own crash-safe WAL, whose fingerprint is domain-separated by
//! `(i, S)` so a shard log can never resume — or merge — under the wrong
//! partition geometry. `epvf merge` folds the `S` shard WALs back into
//! one `CampaignResult` and renders the *same* summary bytes as a
//! single-process `epvf inject` of the whole campaign.

use crate::plan::CampaignPlan;
use crate::{flag_value, parse_inject_opts, summary, CliError, Target};
use epvf_llfi::ShardSpec;
use epvf_telemetry::MetricsReport;
use std::path::PathBuf;

/// Pull `--index I` and `--of S` out of the raw argument list, returning
/// the validated shard spec plus the remaining arguments.
fn extract_shard_spec(rest: &[String]) -> Result<(ShardSpec, Vec<String>), CliError> {
    let mut index: Option<usize> = None;
    let mut of: Option<usize> = None;
    let mut remaining = Vec::new();
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--index" => index = Some(flag_value(&mut it, a)?),
            "--of" => of = Some(flag_value(&mut it, a)?),
            _ => remaining.push(a.clone()),
        }
    }
    let index = index.ok_or_else(|| CliError::usage("shard requires --index I"))?;
    let of = of.ok_or_else(|| CliError::usage("shard requires --of S"))?;
    let shard = ShardSpec::new(index, of).ok_or_else(|| {
        CliError::usage(format!(
            "invalid shard geometry: --index {index} --of {of} (need 0 <= index < of)"
        ))
    })?;
    Ok((shard, remaining))
}

/// `epvf shard <target> [N] [SEED] --index I --of S --wal FILE [...]`
///
/// Runs one strided slice of the campaign as an independent OS process.
/// The WAL is mandatory: a shard's only durable product is its log, which
/// `epvf merge` folds back into the aggregate.
pub(crate) fn cmd_shard(t: Target, rest: &[String]) -> Result<(), CliError> {
    let (shard, rest) = extract_shard_spec(rest)?;
    let (config, opts) = parse_inject_opts(&rest)?;
    if opts.sample {
        return Err(CliError::usage(
            "shard does not support --sample (adaptive sampling is a sequential policy; \
             shard the exhaustive draw instead)",
        ));
    }
    let wal = opts
        .wal
        .as_deref()
        .ok_or_else(|| CliError::usage("shard requires --wal FILE"))?;

    let plan = CampaignPlan::new(&t, config, &opts)?;
    let fi = plan.run(shard, Some(wal), opts.resume)?;
    print!("{}", summary::shard_summary(&plan, shard, &fi));
    plan.finish(&fi, opts.quarantine_dir.as_deref(), opts.max_unsound)
}

/// Pull every occurrence of `--flag VALUE` out of the argument list.
fn extract_all(rest: &mut Vec<String>, flag: &str) -> Result<Vec<PathBuf>, CliError> {
    let mut out = Vec::new();
    while let Some(i) = rest.iter().position(|a| a == flag) {
        if i + 1 >= rest.len() {
            return Err(CliError::usage(format!("{flag} needs a path")));
        }
        out.push(PathBuf::from(rest.remove(i + 1)));
        rest.remove(i);
    }
    Ok(out)
}

/// `epvf merge <target> [N] [SEED] --wal FILE... [--metrics-in FILE...]
/// [--metrics-merged FILE]`
///
/// The shard count is the number of `--wal` flags. The merged aggregate
/// is rendered through the same summary renderer as `epvf inject`, so for
/// a complete shard set the stdout is byte-identical to the
/// single-process run of the same campaign.
pub(crate) fn cmd_merge(t: Target, rest: &[String]) -> Result<(), CliError> {
    let mut rest = rest.to_vec();
    let wals = extract_all(&mut rest, "--wal")?;
    let metrics_in = extract_all(&mut rest, "--metrics-in")?;
    let mut metrics_merged = extract_all(&mut rest, "--metrics-merged")?;
    if metrics_merged.len() > 1 {
        return Err(CliError::usage("--metrics-merged given more than once"));
    }
    let (config, opts) = parse_inject_opts(&rest)?;
    if wals.is_empty() {
        return Err(CliError::usage("merge requires --wal FILE (one per shard)"));
    }
    if opts.resume || opts.sample {
        return Err(CliError::usage("merge takes neither --resume nor --sample"));
    }
    if metrics_in.is_empty() && !metrics_merged.is_empty() {
        return Err(CliError::usage("--metrics-merged requires --metrics-in"));
    }

    let plan = CampaignPlan::new(&t, config, &opts)?;
    let fi = plan.merge(&wals)?;
    let res = plan.analyze()?;
    print!("{}", plan.render(&res, &fi));

    if !metrics_in.is_empty() {
        let merged = merge_metrics_files(&metrics_in)?;
        let violations = merged.check_conservation();
        for v in &violations {
            eprintln!("merged metrics: conservation violation: {v}");
        }
        if !violations.is_empty() {
            return Err(CliError::Metrics(format!(
                "merged shard metrics break {} conservation law(s)",
                violations.len()
            )));
        }
        // Status, not summary: stdout must stay byte-identical to the
        // single-process `epvf inject` run.
        eprintln!(
            "metrics   : merged {} shard snapshot(s), conservation ok",
            metrics_in.len()
        );
        if let Some(path) = metrics_merged.pop() {
            MetricsReport::new(merged)
                .with_meta("tool", "epvf")
                .with_meta("command", "merge")
                .with_meta("shards", metrics_in.len().to_string())
                .write_file(&path)
                .map_err(|e| CliError::io(format!("writing {}: {e}", path.display())))?;
        }
    }

    plan.finish(&fi, None, opts.max_unsound)
}

/// Parse every line of every `--metrics-in` file and fold the snapshots
/// with the associative/commutative snapshot merge.
fn merge_metrics_files(files: &[PathBuf]) -> Result<epvf_telemetry::MetricsSnapshot, CliError> {
    let mut merged = epvf_telemetry::MetricsSnapshot::default();
    for file in files {
        let text = std::fs::read_to_string(file)
            .map_err(|e| CliError::io(format!("reading {}: {e}", file.display())))?;
        let mut parsed = 0usize;
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let report = MetricsReport::parse(line)
                .map_err(|e| CliError::input(format!("{}: {e}", file.display())))?;
            merged.merge(&report.snapshot);
            parsed += 1;
        }
        if parsed == 0 {
            return Err(CliError::input(format!(
                "{}: no metrics documents",
                file.display()
            )));
        }
    }
    Ok(merged)
}
