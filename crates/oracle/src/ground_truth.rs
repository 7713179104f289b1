//! The exhaustive bit-flip ground-truth table.
//!
//! Where the paper samples a few thousand `(site, bit)` pairs per benchmark
//! (§IV-A), the oracle executes *all* of them. This is affordable because
//! the PR 1 replay engine resumes each injected run from the checkpoint
//! nearest its injection point and classifies masked faults at the first
//! golden rendezvous, so an exhaustive sweep of a tiny workload (~10⁵
//! flips) takes seconds.

use epvf_interp::InjectionSpec;
use epvf_llfi::{Campaign, InjOutcome};

/// Outcome of every executed `(site, bit)` flip of one workload, in
/// enumeration (trace) order.
#[derive(Debug, Clone)]
pub struct GroundTruth {
    /// One entry per executed flip.
    pub runs: Vec<(InjectionSpec, InjOutcome)>,
    /// Injectable sites in the golden trace.
    pub sites: usize,
    /// Size of the full `(site, bit)` universe — `runs.len()` equals this
    /// when the sweep was exhaustive.
    pub universe: u64,
}

impl GroundTruth {
    /// Whether every `(site, bit)` pair was executed.
    pub fn is_exhaustive(&self) -> bool {
        self.runs.len() as u64 == self.universe
    }

    /// Number of runs with the given outcome predicate.
    pub fn count(&self, pred: impl Fn(InjOutcome) -> bool) -> u64 {
        self.runs.iter().filter(|(_, o)| pred(*o)).count() as u64
    }

    /// Crash / SDC / benign / hang / detected / timed-out / quarantined
    /// counts, in that order. The last two are supervision outcomes —
    /// always zero in a healthy un-watchdogged sweep.
    pub fn tally(&self) -> [u64; 7] {
        let mut t = [0u64; 7];
        for (_, o) in &self.runs {
            match o {
                InjOutcome::Crash(_) => t[0] += 1,
                InjOutcome::Sdc => t[1] += 1,
                InjOutcome::Benign => t[2] += 1,
                InjOutcome::Hang => t[3] += 1,
                InjOutcome::Detected => t[4] += 1,
                InjOutcome::TimedOut(_) => t[5] += 1,
                InjOutcome::Quarantined => t[6] += 1,
            }
        }
        t
    }
}

/// Short human-readable label of an injection outcome, used in oracle
/// reports and repro files (`benign`, `sdc`, `hang`, `detected`,
/// `crash:SF`, `timeout:fuel`, `quarantined` …).
pub fn outcome_label(o: InjOutcome) -> String {
    match o {
        InjOutcome::Benign => "benign".into(),
        InjOutcome::Sdc => "sdc".into(),
        InjOutcome::Hang => "hang".into(),
        InjOutcome::Detected => "detected".into(),
        InjOutcome::Crash(k) => format!("crash:{}", k.label()),
        InjOutcome::TimedOut(k) => format!("timeout:{}", k.label()),
        InjOutcome::Quarantined => "quarantined".into(),
    }
}

/// Execute the ground-truth sweep.
///
/// `limit == 0` (or a limit at least the universe size) runs every
/// `(site, bit)` pair; a smaller positive limit runs a deterministic
/// stride-subsample that still spans the whole trace — the escape hatch for
/// workloads whose universe is too large to execute exhaustively.
pub fn sweep(campaign: &Campaign<'_>, limit: usize) -> GroundTruth {
    let _span = epvf_telemetry::span(epvf_telemetry::Tmr::OracleSweep);
    let universe = campaign.sites().total_bits();
    let specs: Vec<InjectionSpec> = if limit == 0 || limit as u64 >= universe {
        campaign.sites().specs().collect()
    } else {
        let stride = universe.div_ceil(limit as u64).max(1) as usize;
        campaign.sites().specs().step_by(stride).collect()
    };
    epvf_telemetry::add(epvf_telemetry::Ctr::OracleSweepFlips, specs.len() as u64);
    let result = campaign.run_specs(&specs);
    GroundTruth {
        runs: result.runs,
        sites: campaign.sites().len(),
        universe,
    }
}
