//! Traced in-process replay of one perfbench workload.
//!
//! ```text
//! perfbench-tracer <analyze|inject|serve> <seconds> <runs> <wal-dir> <name:scale@seed>...
//! ```
//!
//! Replays, in this process, the public-call sequence that each op of the
//! workload makes inside the `epvf` binary, and times every call into a
//! layer's public API. Each round runs the op list twice, once with the
//! spans off and once with them on (alternating which goes first), until
//! `seconds` have passed, so the traced/untraced ratio is the tracing
//! overhead. The program's own telemetry counters are read as deltas over
//! the traced passes only. No span is added inside the program.
//!
//! * `analyze` — `epvf analyze T`: workload build, traced golden run, DDG,
//!   ACE, propagation, metrics.
//! * `inject` — `epvf inject T RUNS SEED --threads 2`: campaign set-up
//!   (golden run + checkpoints), the same analysis, the campaign, and the
//!   recall/precision studies of the summary.
//! * `serve` — one `run T RUNS SEED --shards 2` request to a warm
//!   `epvf serve` daemon: two shard workers (each builds the workload and
//!   sets up its own campaign, runs its strided slice and writes its WAL),
//!   then the daemon's WAL recovery, merge and summary studies. The
//!   daemon's per-target set-up (golden run + compositional analysis
//!   against a shared in-memory section cache) runs once, cold and then
//!   warm.
//!
//! Prints one JSON object: span totals (ns) and counter deltas over the
//! traced passes, both pass totals, and the summary lines of every traced
//! op for the caller to check against the recorded outputs.

use epvf_core::{
    analyze_compositional, build_ddg, compute_metrics, default_fault_model, propagate_scoped,
    AceGraph, CrashMap, EpvfConfig, EpvfMetrics, EpvfResult, SectionCache,
};
use epvf_interp::{ExecConfig, Interpreter};
use epvf_llfi::{
    precision_study, recall_study, wal_fingerprint_model, wal_fingerprint_shard, Campaign,
    CampaignConfig, CampaignResult, GoldenArtifacts, ShardOutcomes, ShardSpec, WalSink,
};
use epvf_telemetry::{global_snapshot, MetricsSnapshot};
use epvf_workloads::{by_name, Scale, Workload};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const SHARDS: usize = 2;

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Analyze,
    Inject,
    Serve,
}

struct Op {
    key: String,
    name: String,
    scale: Scale,
    seed: u64,
}

/// Per-layer span totals, recorded only while `on`.
#[derive(Default)]
struct Tracer {
    on: bool,
    spans: BTreeMap<&'static str, u64>,
    /// Δ`interp.insts_retired` inside `llfi.campaign_run` spans.
    campaign_insts: u64,
    /// Summary lines of every traced op, for output checks.
    checks: Vec<(String, Vec<String>)>,
}

impl Tracer {
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        *self.spans.entry(name).or_default() += nanos(start.elapsed());
        out
    }

    /// `Campaign::run_specs` under the `llfi.campaign_run` span, also
    /// counting the instructions its injected runs retire.
    fn campaign_run(&mut self, f: impl FnOnce() -> CampaignResult) -> CampaignResult {
        if !self.on {
            return f();
        }
        let before = global_snapshot().counter("interp.insts_retired");
        let out = self.time("llfi.campaign_run", f);
        self.campaign_insts += global_snapshot().counter("interp.insts_retired") - before;
        out
    }

    fn check(&mut self, key: &str, lines: Vec<String>) {
        if self.on {
            self.checks.push((key.to_string(), lines));
        }
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

fn parse_op(spec: &str) -> Result<Op, String> {
    let (target, seed) = spec.split_once('@').unwrap_or((spec, "0"));
    let (name, scale) = target
        .split_once(':')
        .ok_or_else(|| format!("op `{spec}` needs name:scale"))?;
    let scale = match scale {
        "tiny" => Scale::Tiny,
        "small" => Scale::Small,
        "standard" => Scale::Standard,
        other => return Err(format!("unknown scale `{other}`")),
    };
    Ok(Op {
        key: spec.to_string(),
        name: name.to_string(),
        scale,
        seed: seed.parse().map_err(|_| format!("bad seed in `{spec}`"))?,
    })
}

fn build(tr: &mut Tracer, op: &Op) -> Result<Workload, String> {
    tr.time("workloads.build", || by_name(&op.name, op.scale))
        .ok_or_else(|| format!("unknown workload `{}`", op.name))
}

/// `epvf_core::analyze`, one public call at a time.
fn analysis(
    tr: &mut Tracer,
    module: &epvf_ir::Module,
    trace: &epvf_interp::Trace,
) -> (CrashMap, EpvfMetrics) {
    let config = EpvfConfig::default();
    let ddg = tr.time("ddg.build", || build_ddg(module, trace));
    let ace = tr.time("ace.compute", || AceGraph::compute(&ddg, config.ace));
    let crash_map = tr.time("core.propagate", || {
        propagate_scoped(module, trace, &ddg, &ace, config.crash, config.scope)
    });
    let metrics = tr.time("core.compute_metrics", || {
        compute_metrics(
            module,
            trace,
            &ddg,
            &ace,
            &crash_map,
            Duration::ZERO,
            Duration::ZERO,
        )
    });
    (crash_map, metrics)
}

fn analyze_op(tr: &mut Tracer, op: &Op) -> Result<(), String> {
    let w = build(tr, op)?;
    let golden = tr
        .time("interp.golden_run", || {
            Interpreter::new(&w.module, ExecConfig::default()).golden_run(Workload::ENTRY, &w.args)
        })
        .map_err(|e| e.to_string())?;
    let trace = golden
        .trace
        .as_ref()
        .ok_or("golden run produced no trace")?;
    let (_, m) = analysis(tr, &w.module, trace);
    tr.check(
        &op.key,
        vec![
            format!("dyn IR insts  : {}", m.dyn_insts),
            format!("DDG nodes     : {}", m.ddg_nodes),
            format!("ACE nodes     : {}", m.ace_nodes),
            format!("PVF           : {:.4}", m.pvf),
            format!("ePVF          : {:.4}", m.epvf),
            format!(
                "crash bits    : {} of {} ACE register bits",
                m.crash_register_bits, m.ace_register_bits
            ),
            format!("crash rate est: {:.1}%", 100.0 * m.crash_rate_estimate),
        ],
    );
    Ok(())
}

/// The recall/precision studies `epvf inject`'s summary renders, and the
/// summary lines they feed.
fn summary_studies(
    tr: &mut Tracer,
    op: &Op,
    campaign: &Campaign<'_>,
    crash_map: &CrashMap,
    crash_rate_estimate: f64,
    fi: &CampaignResult,
) {
    let recall = tr.time("llfi.recall_study", || recall_study(fi, crash_map));
    let precision = tr.time("llfi.precision_study", || {
        precision_study(campaign, crash_map, (fi.n() / 2).max(100), op.seed)
    });
    let [sf, a, mma, ae] = fi.crash_kind_fractions();
    tr.check(
        &op.key,
        vec![
            format!(
                "outcomes  : crash {:.1}%  SDC {:.1}%  hang {:.1}%  benign {:.1}%",
                100.0 * fi.crash_rate(),
                100.0 * fi.sdc_rate(),
                100.0 * fi.hang_rate(),
                100.0 * fi.benign_rate()
            ),
            format!(
                "crashes   : SF {:.1}%  A {:.1}%  MMA {:.1}%  AE {:.1}%",
                100.0 * sf,
                100.0 * a,
                100.0 * mma,
                100.0 * ae
            ),
            format!("recall    : {:.1}%", 100.0 * recall.recall()),
            format!("precision : {:.1}%", 100.0 * precision.precision()),
            format!(
                "crash rate: model {:.1}% vs measured {:.1}%",
                100.0 * crash_rate_estimate,
                100.0 * fi.crash_rate()
            ),
        ],
    );
}

fn inject_op(tr: &mut Tracer, op: &Op, runs: usize) -> Result<(), String> {
    let w = build(tr, op)?;
    let config = CampaignConfig {
        threads: 2,
        ..CampaignConfig::default()
    };
    let campaign = tr
        .time("llfi.campaign_setup", || {
            Campaign::new(&w.module, Workload::ENTRY, &w.args, config)
        })
        .map_err(|e| e.to_string())?;
    let trace = campaign
        .golden()
        .trace
        .as_ref()
        .ok_or("golden run produced no trace")?;
    let (crash_map, m) = analysis(tr, &w.module, trace);
    let specs = tr.time("llfi.draw_specs", || campaign.draw_specs(runs, op.seed));
    let fi = tr.campaign_run(|| campaign.run_specs(&specs));
    summary_studies(tr, op, &campaign, &crash_map, m.crash_rate_estimate, &fi);
    Ok(())
}

/// What the serve daemon caches per distinct target.
struct Warm {
    module: epvf_ir::Module,
    args: Vec<u64>,
    artifacts: GoldenArtifacts,
    res: EpvfResult,
}

/// The daemon's cold path for each distinct target, timed directly:
/// `analyze_compositional` against one in-memory section cache shared by
/// all targets (cold), then once more per target (warm).
#[derive(Default)]
struct ComposeStats {
    targets: u64,
    cold_ns: u64,
    warm_ns: u64,
    cold_sections: u64,
    cold_hits: u64,
    warm_sections: u64,
    warm_hits: u64,
}

fn serve_setup(ops: &[Op]) -> Result<(BTreeMap<String, Warm>, ComposeStats), String> {
    let mut sections = SectionCache::in_memory();
    let mut warm = BTreeMap::new();
    let mut stats = ComposeStats::default();
    for op in ops {
        let target = op.key.split('@').next().unwrap_or(&op.key).to_string();
        if warm.contains_key(&target) {
            continue;
        }
        let w = by_name(&op.name, op.scale).ok_or_else(|| format!("unknown `{}`", op.name))?;
        let campaign = Campaign::new(
            &w.module,
            Workload::ENTRY,
            &w.args,
            CampaignConfig::default(),
        )
        .map_err(|e| e.to_string())?;
        let trace = campaign
            .golden()
            .trace
            .as_ref()
            .ok_or("golden run produced no trace")?;
        let config = EpvfConfig::default();
        for cold in [true, false] {
            let before = sections.stats();
            let start = Instant::now();
            let res = analyze_compositional(&w.module, trace, config, &mut sections);
            let ns = nanos(start.elapsed());
            let after = sections.stats();
            let (sec, hits) = (after.sections - before.sections, after.hits - before.hits);
            if cold {
                stats.cold_ns += ns;
                stats.cold_sections += sec;
                stats.cold_hits += hits;
            } else {
                stats.warm_ns += ns;
                stats.warm_sections += sec;
                stats.warm_hits += hits;
                let artifacts = campaign.artifacts();
                warm.insert(
                    target.clone(),
                    Warm {
                        module: w.module.clone(),
                        args: w.args.clone(),
                        artifacts,
                        res,
                    },
                );
            }
        }
        stats.targets += 1;
    }
    Ok((warm, stats))
}

fn serve_op(
    tr: &mut Tracer,
    op: &Op,
    runs: usize,
    warm: &BTreeMap<String, Warm>,
    wal_dir: &Path,
) -> Result<(), String> {
    let target = op.key.split('@').next().unwrap_or(&op.key);
    let e = warm.get(target).ok_or("target missing from the warm set")?;
    let model = default_fault_model();
    let config = CampaignConfig::default();
    let campaign = tr
        .time("llfi.campaign_setup", || {
            Campaign::from_artifacts(
                &e.module,
                Workload::ENTRY,
                &e.args,
                config,
                model.clone(),
                e.artifacts.clone(),
            )
        })
        .map_err(|err| err.to_string())?;
    let specs = tr.time("llfi.draw_specs", || campaign.draw_specs(runs, op.seed));
    let base_fp = tr.time("llfi.fingerprint", || {
        wal_fingerprint_model(
            &e.module.to_string(),
            Workload::ENTRY,
            &e.args,
            &specs,
            &model.name(),
        )
    });

    // The shard workers, one after another.
    let mut wals: Vec<PathBuf> = Vec::new();
    for index in 0..SHARDS {
        let shard = ShardSpec::new(index, SHARDS).ok_or("bad shard geometry")?;
        let w = build(tr, op)?;
        let worker = tr
            .time("llfi.campaign_setup", || {
                Campaign::new(&w.module, Workload::ENTRY, &w.args, config)
            })
            .map_err(|err| err.to_string())?;
        let all = tr.time("llfi.draw_specs", || worker.draw_specs(runs, op.seed));
        let fp = tr.time("llfi.fingerprint", || {
            let base = wal_fingerprint_model(
                &w.module.to_string(),
                Workload::ENTRY,
                &w.args,
                &all,
                &model.name(),
            );
            wal_fingerprint_shard(base, index, SHARDS)
        });
        let local: Vec<_> = shard.indices(all.len()).map(|g| all[g]).collect();
        let fi = tr.campaign_run(|| worker.run_specs(&local));
        let path = wal_dir.join(format!("shard-{index}.wal"));
        tr.time("llfi.wal_append", || -> Result<(), String> {
            let sink = WalSink::create(&path, fp).map_err(|err| err.to_string())?;
            for (k, (spec, outcome)) in fi.runs.iter().enumerate() {
                sink.append(shard.to_global(k), *spec, *outcome);
            }
            sink.flush();
            sink.take_error().map_or(Ok(()), |err| Err(err.to_string()))
        })?;
        wals.push(path);
    }

    // The daemon folds the shard logs back together, under the shard
    // fingerprints it derives from its own spec draw.
    let recovered = tr.time("llfi.wal_recover", || {
        wals.iter()
            .enumerate()
            .map(|(index, path)| {
                let fp = wal_fingerprint_shard(base_fp, index, SHARDS);
                WalSink::recover(path, fp).map(|(_, rec)| rec)
            })
            .collect::<Result<Vec<_>, _>>()
    });
    let recovered = recovered.map_err(|err| err.to_string())?;
    let fi = tr
        .time("llfi.merge", || {
            let mut merged = ShardOutcomes::empty();
            for rec in &recovered {
                merged = merged.merge(ShardOutcomes::from_recovered(rec))?;
            }
            merged.into_result(&specs)
        })
        .map_err(|err| err.to_string())?;
    summary_studies(
        tr,
        op,
        &campaign,
        &e.res.crash_map,
        e.res.metrics.crash_rate_estimate,
        &fi,
    );
    Ok(())
}

struct Totals {
    rounds: u64,
    ops: u64,
    traced_ns: u64,
    untraced_ns: u64,
    counters: BTreeMap<String, u64>,
    timers: BTreeMap<String, u64>,
}

fn delta(totals: &mut Totals, before: &MetricsSnapshot, after: &MetricsSnapshot) {
    for (name, v) in &after.counters {
        *totals.counters.entry(name.clone()).or_default() += v - before.counter(name);
    }
    for (name, t) in &after.timers {
        let was = before.timers.get(name).map_or(0, |b| b.total_ns);
        *totals.timers.entry(name.clone()).or_default() += t.total_ns - was;
    }
}

fn run() -> Result<String, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() < 5 {
        return Err(
            "usage: perfbench-tracer <analyze|inject|serve> <seconds> <runs> <wal-dir> <name:scale@seed>..."
                .into(),
        );
    }
    let mode = match args[0].as_str() {
        "analyze" => Mode::Analyze,
        "inject" => Mode::Inject,
        "serve" => Mode::Serve,
        other => return Err(format!("unknown mode `{other}`")),
    };
    let seconds: f64 = args[1].parse().map_err(|_| "bad seconds")?;
    let runs: usize = args[2].parse().map_err(|_| "bad runs")?;
    let wal_dir = PathBuf::from(&args[3]);
    let ops = args[4..]
        .iter()
        .map(|s| parse_op(s))
        .collect::<Result<Vec<_>, _>>()?;
    // Shard workers run with per-record WAL flushes under the supervisor.
    if mode == Mode::Serve {
        std::env::set_var("EPVF_WAL_FLUSH_BATCH", "1");
        std::fs::create_dir_all(&wal_dir).map_err(|e| e.to_string())?;
    }
    let (warm, compose) = if mode == Mode::Serve {
        serve_setup(&ops)?
    } else {
        (BTreeMap::new(), ComposeStats::default())
    };

    let mut tr = Tracer::default();
    let mut totals = Totals {
        rounds: 0,
        ops: 0,
        traced_ns: 0,
        untraced_ns: 0,
        counters: BTreeMap::new(),
        timers: BTreeMap::new(),
    };
    let start = Instant::now();
    while totals.rounds == 0 || start.elapsed().as_secs_f64() < seconds {
        // Alternate which pass goes first so drift hits both alike.
        let order = if totals.rounds.is_multiple_of(2) {
            [false, true]
        } else {
            [true, false]
        };
        for on in order {
            tr.on = on;
            let before = on.then(global_snapshot);
            let pass = Instant::now();
            for op in &ops {
                match mode {
                    Mode::Analyze => analyze_op(&mut tr, op)?,
                    Mode::Inject => inject_op(&mut tr, op, runs)?,
                    Mode::Serve => serve_op(&mut tr, op, runs, &warm, &wal_dir)?,
                }
            }
            let ns = nanos(pass.elapsed());
            if let Some(before) = before {
                totals.traced_ns += ns;
                totals.ops += ops.len() as u64;
                delta(&mut totals, &before, &global_snapshot());
            } else {
                totals.untraced_ns += ns;
            }
        }
        totals.rounds += 1;
    }

    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"rounds\":{},\"ops\":{},\"traced_ns\":{},\"untraced_ns\":{},\"campaign_insts\":{}",
        totals.rounds, totals.ops, totals.traced_ns, totals.untraced_ns, tr.campaign_insts
    );
    let _ = write!(
        out,
        ",\"compose\":{{\"targets\":{},\"cold_ns\":{},\"warm_ns\":{},\"cold_sections\":{},\"cold_hits\":{},\"warm_sections\":{},\"warm_hits\":{}}}",
        compose.targets,
        compose.cold_ns,
        compose.warm_ns,
        compose.cold_sections,
        compose.cold_hits,
        compose.warm_sections,
        compose.warm_hits
    );
    let spans: BTreeMap<String, u64> = tr.spans.iter().map(|(k, v)| (k.to_string(), *v)).collect();
    for (field, map) in [
        ("spans", &spans),
        ("counters", &totals.counters),
        ("timers", &totals.timers),
    ] {
        let body: Vec<String> = map.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
        let _ = write!(out, ",\"{field}\":{{{}}}", body.join(","));
    }
    let checks: Vec<String> = tr
        .checks
        .iter()
        .map(|(key, lines)| {
            let lines: Vec<String> = lines.iter().map(|l| format!("\"{l}\"")).collect();
            format!("[\"{key}\",[{}]]", lines.join(","))
        })
        .collect();
    let _ = write!(out, ",\"checks\":[{}]}}", checks.join(","));
    Ok(out)
}

fn main() -> ExitCode {
    match run() {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench-tracer: {e}");
            ExitCode::FAILURE
        }
    }
}
