//! Point-in-time metric values, detached from the atomic store: merged
//! across sharded registries, compared by the invariant tests, checked
//! against the pipeline's conservation laws, and serialized by
//! [`crate::MetricsReport`].

use std::collections::BTreeMap;

use crate::metrics::{counter_def_by_name, Combine};

/// Snapshot of one timer histogram.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TimerSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples, in nanoseconds.
    pub total_ns: u64,
    /// Largest single sample, in nanoseconds.
    pub max_ns: u64,
    /// Non-empty log₂-ns buckets: `floor(log2(ns)) -> samples`.
    pub buckets: BTreeMap<u32, u64>,
}

impl TimerSnapshot {
    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &TimerSnapshot) {
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
        for (&b, &n) in &other.buckets {
            *self.buckets.entry(b).or_insert(0) += n;
        }
    }
}

/// Point-in-time values of every declared metric, keyed by dotted name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter values (every declared counter is present, zeros included).
    pub counters: BTreeMap<String, u64>,
    /// Timer histograms (only timers with at least one sample).
    pub timers: BTreeMap<String, TimerSnapshot>,
}

impl MetricsSnapshot {
    /// A counter's value, treating absent keys as zero.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Fold another snapshot into this one. Sum counters add; `Max`
    /// gauges (and counters absent from the schema, for forward
    /// compatibility) take the maximum. Both operations are associative
    /// and commutative, so per-worker shards can be merged in any order
    /// and grouping — the contract `tests/prop_registry.rs` exercises.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, &v) in &other.counters {
            let combine = counter_def_by_name(name).map(|d| d.combine);
            let slot = self.counters.entry(name.clone()).or_insert(0);
            match combine {
                Some(Combine::Sum) => *slot += v,
                Some(Combine::Max) | None => *slot = (*slot).max(v),
            }
        }
        for (name, t) in &other.timers {
            self.timers.entry(name.clone()).or_default().merge(t);
        }
    }

    /// The subset of counters whose definitions are marked invariant —
    /// required to be byte-identical across `--threads` and
    /// `--ckpt-interval` for the same command.
    pub fn invariant_subset(&self) -> BTreeMap<String, u64> {
        self.counters
            .iter()
            .filter(|(name, _)| {
                counter_def_by_name(name)
                    .map(|d| d.invariant)
                    .unwrap_or(false)
            })
            .map(|(name, &v)| (name.clone(), v))
            .collect()
    }

    /// Check the pipeline's conservation laws; returns one message per
    /// violation (empty = consistent). Only laws that hold for *every*
    /// command mix are checked here — stricter per-command equalities
    /// (e.g. golden instructions retired == trace length for a single
    /// `analyze`) live in the CLI invariant tests.
    pub fn check_conservation(&self) -> Vec<String> {
        let c = |n: &str| self.counter(n);
        let mut violations = Vec::new();
        let mut law = |ok: bool, msg: String| {
            if !ok {
                violations.push(msg);
            }
        };

        let class_sum = c("llfi.campaign.runs_crash")
            + c("llfi.campaign.runs_sdc")
            + c("llfi.campaign.runs_benign")
            + c("llfi.campaign.runs_hang")
            + c("llfi.campaign.runs_detected")
            + c("llfi.campaign.runs_timed_out")
            + c("llfi.campaign.runs_quarantined");
        law(
            class_sum == c("llfi.campaign.runs_total"),
            format!(
                "campaign outcome classes sum to {class_sum}, expected runs_total = {}",
                c("llfi.campaign.runs_total")
            ),
        );
        law(
            c("llfi.wal.flushes") <= c("llfi.wal.records_appended"),
            // Flushes are batched: at most one OS flush per appended
            // record, usually far fewer.
            format!(
                "WAL flushed {} times but only {} records were appended",
                c("llfi.wal.flushes"),
                c("llfi.wal.records_appended")
            ),
        );
        law(
            c("llfi.campaign.early_benign") <= c("llfi.campaign.runs_benign"),
            format!(
                "early_benign ({}) exceeds runs_benign ({})",
                c("llfi.campaign.early_benign"),
                c("llfi.campaign.runs_benign")
            ),
        );
        let ecc_resolved = c("memsim.ecc.detected")
            + c("memsim.ecc.corrected")
            + c("memsim.ecc.overwritten")
            + c("memsim.ecc.expired");
        law(
            // Every planted ECC error resolves exactly once: consumed
            // (detected or corrected), overwritten, or scrubbed at the
            // window close (errors still pending when a run terminates are
            // flushed as expired).
            ecc_resolved == c("memsim.ecc.raised"),
            format!(
                "ECC resolutions sum to {ecc_resolved}, expected raised = {}",
                c("memsim.ecc.raised")
            ),
        );
        law(
            c("ace.nodes_visited") <= c("ddg.nodes_created"),
            format!(
                "ACE reverse-BFS visited {} nodes but only {} DDG nodes were created",
                c("ace.nodes_visited"),
                c("ddg.nodes_created")
            ),
        );
        law(
            c("interp.golden.loads") + c("interp.golden.stores")
                <= c("interp.golden.insts_retired"),
            format!(
                "golden loads+stores ({}) exceed golden instructions retired ({})",
                c("interp.golden.loads") + c("interp.golden.stores"),
                c("interp.golden.insts_retired")
            ),
        );
        law(
            c("interp.loads") + c("interp.stores") <= c("interp.insts_retired"),
            format!(
                "loads+stores ({}) exceed instructions retired ({})",
                c("interp.loads") + c("interp.stores"),
                c("interp.insts_retired")
            ),
        );
        law(
            c("interp.golden.insts_retired") <= c("interp.insts_retired"),
            format!(
                "golden instructions retired ({}) exceed total retired ({})",
                c("interp.golden.insts_retired"),
                c("interp.insts_retired")
            ),
        );
        law(
            c("llfi.sampler.executed") <= c("llfi.sampler.allocated"),
            format!(
                "sampler executed {} runs but only {} were allocated",
                c("llfi.sampler.executed"),
                c("llfi.sampler.allocated")
            ),
        );
        law(
            c("llfi.sampler.executed") <= c("llfi.campaign.runs_total"),
            // Every sampled run goes through the supervised campaign path,
            // which counts it in runs_total; exhaustive campaigns add more.
            format!(
                "sampler executed {} runs but campaigns only classified {}",
                c("llfi.sampler.executed"),
                c("llfi.campaign.runs_total")
            ),
        );
        law(
            // Every serve campaign resolves its golden artifacts exactly
            // once: from the cache or by a fresh golden run.
            c("serve.cache.hits") + c("serve.cache.misses") == c("serve.campaigns"),
            format!(
                "serve cache hits ({}) + misses ({}) must equal campaigns served ({})",
                c("serve.cache.hits"),
                c("serve.cache.misses"),
                c("serve.campaigns")
            ),
        );
        law(
            // Every section run a compositional analysis considers resolves
            // exactly once: replayed from the cache or recomputed.
            c("analyze.cache.hits") + c("analyze.cache.misses") == c("analyze.cache.sections"),
            format!(
                "section cache hits ({}) + misses ({}) must equal sections considered ({})",
                c("analyze.cache.hits"),
                c("analyze.cache.misses"),
                c("analyze.cache.sections")
            ),
        );
        law(
            // A corrupt persisted summary is always recomputed, never reused.
            c("analyze.cache.corrupt") <= c("analyze.cache.misses"),
            format!(
                "corrupt section summaries ({}) exceed cache misses ({})",
                c("analyze.cache.corrupt"),
                c("analyze.cache.misses")
            ),
        );
        law(
            // Summaries are stored only after a miss recomputed them.
            c("analyze.cache.stored") <= c("analyze.cache.misses"),
            format!(
                "section summaries stored ({}) exceed cache misses ({})",
                c("analyze.cache.stored"),
                c("analyze.cache.misses")
            ),
        );
        law(
            // Every spawn is either a shard's first attempt or a restart.
            c("supervisor.spawned") == c("supervisor.shards") + c("supervisor.restarts"),
            format!(
                "supervisor spawned {} workers, expected shards ({}) + restarts ({})",
                c("supervisor.spawned"),
                c("supervisor.shards"),
                c("supervisor.restarts")
            ),
        );
        law(
            // Restarts only happen in response to an observed failure.
            c("supervisor.restarts") <= c("supervisor.hangs") + c("supervisor.crashes"),
            format!(
                "supervisor restarted {} workers but observed only {} hangs + {} crashes",
                c("supervisor.restarts"),
                c("supervisor.hangs"),
                c("supervisor.crashes")
            ),
        );
        law(
            // A worker must have been spawned before it can fail.
            c("supervisor.hangs") + c("supervisor.crashes") <= c("supervisor.spawned"),
            format!(
                "supervisor observed {} hangs + {} crashes but spawned only {} workers",
                c("supervisor.hangs"),
                c("supervisor.crashes"),
                c("supervisor.spawned")
            ),
        );
        let confusion = c("oracle.diff.true_positives")
            + c("oracle.diff.false_positives")
            + c("oracle.diff.false_negatives")
            + c("oracle.diff.true_negatives");
        law(
            confusion <= c("oracle.sweep.flips"),
            format!(
                "oracle confusion matrix covers {confusion} flips but only {} were swept",
                c("oracle.sweep.flips")
            ),
        );
        violations
    }
}

#[cfg(test)]
mod tests {
    use crate::metrics::{Ctr, Gauge, Tmr};
    use crate::registry::Registry;

    #[test]
    fn merge_sums_and_maxes() {
        let a = Registry::new();
        a.add(Ctr::DdgNodesCreated, 10);
        a.peak(Gauge::AceFrontierPeak, 4);
        a.record_ns(Tmr::DdgBuild, 100);
        let b = Registry::new();
        b.add(Ctr::DdgNodesCreated, 5);
        b.peak(Gauge::AceFrontierPeak, 9);
        b.record_ns(Tmr::DdgBuild, 300);

        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.counter("ddg.nodes_created"), 15);
        assert_eq!(m.counter("ace.bfs_frontier_peak"), 9);
        let t = &m.timers["ddg.build"];
        assert_eq!(t.count, 2);
        assert_eq!(t.total_ns, 400);
        assert_eq!(t.max_ns, 300);
    }

    #[test]
    fn invariant_subset_filters_replay_dependent_counters() {
        let r = Registry::new();
        r.add(Ctr::CampaignRunsTotal, 7);
        r.add(Ctr::CampaignEarlyBenign, 3);
        let inv = r.snapshot().invariant_subset();
        assert_eq!(inv.get("llfi.campaign.runs_total"), Some(&7));
        assert!(!inv.contains_key("llfi.campaign.early_benign"));
    }

    #[test]
    fn conservation_catches_class_sum_mismatch() {
        let r = Registry::new();
        assert!(r.snapshot().check_conservation().is_empty());
        r.add(Ctr::CampaignRunsTotal, 10);
        r.add(Ctr::CampaignRunsCrash, 4);
        r.add(Ctr::CampaignRunsBenign, 5);
        let v = r.snapshot().check_conservation();
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("runs_total"));
        r.add(Ctr::CampaignRunsSdc, 1);
        assert!(r.snapshot().check_conservation().is_empty());
    }

    #[test]
    fn conservation_catches_ace_exceeding_ddg() {
        let r = Registry::new();
        r.add(Ctr::AceNodesVisited, 3);
        let v = r.snapshot().check_conservation();
        assert!(v.iter().any(|m| m.contains("ACE reverse-BFS")));
    }
}
