//! The one campaign pipeline behind `inject`, `shard`, `merge`,
//! `run-sharded` and `serve`.
//!
//! A [`CampaignPlan`] fixes everything a campaign's outcomes depend on:
//! the prepared [`Campaign`], its deterministic spec draw, and the base
//! WAL fingerprint of that draw. Every front-end then takes the same
//! three steps:
//!
//! 1. **execute** — [`CampaignPlan::run`] runs one strided slice of the
//!    draw in this process (a plain `inject` is the 1-of-1 slice),
//!    optionally into a crash-safe WAL; supervised front-ends instead
//!    spawn `epvf shard` workers and fold their WALs back with
//!    [`CampaignPlan::merge`] (or [`CampaignPlan::salvage`] under
//!    `--allow-partial`);
//! 2. **render** — [`CampaignPlan::render`] renders the summary block;
//! 3. **finish** — [`CampaignPlan::finish`] writes quarantine repros and
//!    applies the graceful-degradation gate.
//!
//! Because all front-ends share these steps, a merged N-shard campaign
//! prints the same bytes as the single-process run.

use crate::{summary, CliError, InjectOpts, Target};
use epvf_core::{analyze, EpvfConfig, EpvfResult};
use epvf_interp::InjectionSpec;
use epvf_ir::Module;
use epvf_llfi::{
    read_wal_fingerprint, wal_fingerprint_model, wal_fingerprint_shard, Campaign, CampaignConfig,
    CampaignResult, GoldenArtifacts, RecoveredWal, RunSession, ShardOutcomes, ShardSpec, WalSink,
};
use epvf_telemetry::{add, Ctr};
use epvf_workloads::Workload;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// A campaign with its spec draw and base WAL fingerprint, fixed once.
pub(crate) struct CampaignPlan<'m> {
    pub(crate) label: &'m str,
    pub(crate) seed: u64,
    pub(crate) campaign: Campaign<'m>,
    pub(crate) specs: Vec<InjectionSpec>,
    /// Fingerprint of the whole draw; shard WALs derive theirs from it.
    base_fp: u64,
}

impl<'m> CampaignPlan<'m> {
    /// Plan a fresh campaign over `t`: golden run, site table and
    /// checkpoints, then the spec draw.
    pub(crate) fn new(
        t: &'m Target,
        config: CampaignConfig,
        opts: &InjectOpts,
    ) -> Result<Self, CliError> {
        let campaign =
            Campaign::with_model(&t.module, Workload::ENTRY, &t.args, config, opts.model())
                .map_err(CliError::campaign)?;
        Ok(Self::draw(&t.label, campaign, opts))
    }

    /// Plan a campaign rebuilt from cached golden artifacts (the serve
    /// daemon's cache) instead of a fresh golden run.
    pub(crate) fn from_artifacts(
        label: &'m str,
        module: &'m Module,
        args: &[u64],
        config: CampaignConfig,
        opts: &InjectOpts,
        artifacts: GoldenArtifacts,
    ) -> Result<Self, CliError> {
        let campaign = Campaign::from_artifacts(
            module,
            Workload::ENTRY,
            args,
            config,
            opts.model(),
            artifacts,
        )
        .map_err(CliError::campaign)?;
        Ok(Self::draw(label, campaign, opts))
    }

    fn draw(label: &'m str, campaign: Campaign<'m>, opts: &InjectOpts) -> Self {
        let specs = campaign.draw_specs(opts.runs, opts.seed);
        let base_fp = wal_fingerprint_model(
            &campaign.module().to_string(),
            campaign.entry(),
            campaign.args(),
            &specs,
            &campaign.model().name(),
        );
        CampaignPlan {
            label,
            seed: opts.seed,
            campaign,
            specs,
            base_fp,
        }
    }

    /// ePVF analysis of the golden trace — what the summary scores the
    /// campaign's outcomes against.
    pub(crate) fn analyze(&self) -> Result<EpvfResult, CliError> {
        let trace = self
            .campaign
            .golden()
            .trace
            .as_ref()
            .ok_or_else(|| CliError::campaign("golden run produced no trace"))?;
        Ok(analyze(
            self.campaign.module(),
            trace,
            EpvfConfig::default(),
        ))
    }

    /// Run `shard`'s strided slice of the draw in this process. With a
    /// `wal`, completed runs stream into a crash-safe log whose
    /// fingerprint is domain-separated by the shard geometry; `resume`
    /// recovers that log first and re-runs only what is missing, so the
    /// aggregates come out byte-identical to an uninterrupted run.
    pub(crate) fn run(
        &self,
        shard: ShardSpec,
        wal: Option<&Path>,
        resume: bool,
    ) -> Result<CampaignResult, CliError> {
        let specs: Vec<InjectionSpec> = shard
            .indices(self.specs.len())
            .map(|g| self.specs[g])
            .collect();
        let fp = wal_fingerprint_shard(self.base_fp, shard.index(), shard.of());
        with_wal(wal, fp, resume, |wal, recovered| {
            let mut session = RunSession {
                wal,
                index_base: shard.index(),
                index_stride: shard.of(),
                ..RunSession::default()
            };
            for (g, (spec, outcome)) in recovered.map(|r| r.outcomes).unwrap_or_default() {
                if !shard.owns(g) {
                    return Err(CliError::input(format!(
                        "WAL record {g} does not belong to shard {shard} \
                         (same fingerprint but divergent content)"
                    )));
                }
                if self.specs.get(g) != Some(&spec) {
                    return Err(CliError::input(format!(
                        "WAL record {g} does not match the drawn spec list \
                         (same fingerprint but divergent content)"
                    )));
                }
                session.recovered.insert(shard.to_local(g), outcome);
            }
            Ok(self.campaign.run_specs_session(&specs, &session))
        })
    }

    /// Fold a complete shard set's WALs into the campaign result. The
    /// shard count is `wals.len()`; each file is matched to its shard by
    /// its header fingerprint, so foreign files, duplicates, incomplete
    /// sets and unfinished (torn) shards are input errors (exit 4).
    pub(crate) fn merge(&self, wals: &[PathBuf]) -> Result<CampaignResult, CliError> {
        let of = wals.len();
        let expect: BTreeMap<u64, usize> = (0..of)
            .map(|i| (wal_fingerprint_shard(self.base_fp, i, of), i))
            .collect();
        let mut assigned: BTreeMap<usize, (&PathBuf, u64)> = BTreeMap::new();
        for path in wals {
            let fp = read_wal_fingerprint(path)?;
            let Some(&i) = expect.get(&fp) else {
                return Err(CliError::input(format!(
                    "{} is not a shard of this campaign (fingerprint {fp:#018x} matches no \
                     shard 0..{of}; wrong target, run count, seed, fault model, or --of?)",
                    path.display()
                )));
            };
            if let Some((prev, _)) = assigned.insert(i, (path, fp)) {
                return Err(CliError::input(format!(
                    "{} and {} are both shard {i}/{of} of this campaign",
                    prev.display(),
                    path.display()
                )));
            }
        }
        let mut merged = ShardOutcomes::empty();
        for (i, (path, fp)) in assigned {
            let (_sink, rec) = WalSink::recover(path, fp)?;
            if rec.torn > 0 {
                return Err(CliError::input(format!(
                    "{}: {} torn record(s) — shard {i}/{of} did not finish; re-run it with --resume",
                    path.display(),
                    rec.torn
                )));
            }
            merged = merged
                .merge(ShardOutcomes::from_recovered(&rec))
                .map_err(CliError::input)?;
        }
        add(Ctr::MergeShardWals, of as u64);
        merged.into_result(&self.specs).map_err(CliError::input)
    }

    /// The `--allow-partial` variant of [`Self::merge`] after supervised
    /// shards failed: `wals[i]` is shard `i`'s log, completed shards merge
    /// fully, and each `failed` shard contributes whatever intact prefix
    /// its WAL holds (nothing if the worker died before writing a
    /// header). Returns the partial result and the number of missing
    /// runs.
    pub(crate) fn salvage(
        &self,
        wals: &[PathBuf],
        failed: &[usize],
    ) -> Result<(CampaignResult, usize), CliError> {
        let mut merged = ShardOutcomes::empty();
        let mut salvaged_runs = 0u64;
        for (shard, path) in wals.iter().enumerate() {
            let fp = wal_fingerprint_shard(self.base_fp, shard, wals.len());
            let outcomes = match WalSink::recover(path, fp) {
                Ok((_sink, rec)) => ShardOutcomes::from_recovered(&rec),
                Err(_) => ShardOutcomes::empty(),
            };
            if failed.contains(&shard) {
                salvaged_runs += outcomes.len() as u64;
            }
            merged = merged.merge(outcomes).map_err(CliError::input)?;
        }
        add(Ctr::SupervisorSalvagedRuns, salvaged_runs);
        merged
            .into_partial_result(&self.specs)
            .map_err(CliError::input)
    }

    /// The campaign summary block.
    pub(crate) fn render(&self, res: &EpvfResult, fi: &CampaignResult) -> String {
        summary::inject_summary(self, res, fi)
    }

    /// Write a replayable repro per quarantined run (when asked) and
    /// apply the graceful-degradation gate: exit 3 when the quarantined
    /// plus timed-out fraction exceeds `max_unsound`.
    pub(crate) fn finish(
        &self,
        fi: &CampaignResult,
        quarantine_dir: Option<&Path>,
        max_unsound: f64,
    ) -> Result<(), CliError> {
        if let Some(dir) = quarantine_dir {
            if !fi.quarantines.is_empty() {
                let prefix = self.label.replace([':', '/'], "-");
                let paths = self
                    .campaign
                    .write_quarantine_repros(dir, &prefix, &fi.quarantines)
                    .map_err(|e| CliError::io(format!("writing quarantine repros: {e}")))?;
                println!(
                    "quarantine: {} repro file(s) in {}",
                    paths.len(),
                    dir.display()
                );
            }
        }
        if fi.unsound_rate() > max_unsound {
            let msg = format!(
                "campaign degraded: {:.1}% of runs quarantined or timed out \
                 (threshold {:.1}%); results above are partial",
                100.0 * fi.unsound_rate(),
                100.0 * max_unsound
            );
            epvf_telemetry::Progress::new("inject", 0).note(&msg);
            return Err(CliError::Degraded(msg));
        }
        Ok(())
    }
}

/// Run a campaign against an optional WAL at `path`: created fresh, or
/// recovered when `resume` is set (its records are handed to `run`).
/// After `run` the log is flushed and any deferred write error surfaces
/// as an I/O failure. Without a path, `run` gets neither.
pub(crate) fn with_wal<T>(
    path: Option<&Path>,
    fp: u64,
    resume: bool,
    run: impl FnOnce(Option<&WalSink>, Option<RecoveredWal>) -> Result<T, CliError>,
) -> Result<T, CliError> {
    let Some(path) = path else {
        return run(None, None);
    };
    let (sink, recovered) = if resume {
        let (sink, rec) = WalSink::recover(path, fp)?;
        (sink, Some(rec))
    } else {
        (WalSink::create(path, fp)?, None)
    };
    let out = run(Some(&sink), recovered)?;
    sink.flush();
    match sink.take_error() {
        Some(e) => Err(CliError::io(format!("writing WAL {}: {e}", path.display()))),
        None => Ok(out),
    }
}
