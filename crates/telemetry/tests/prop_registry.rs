//! Property tests for the telemetry registry's merge algebra.
//!
//! The campaign scheduler snapshots per-worker registries and folds them
//! in whatever order the workers finish, so [`MetricsSnapshot::merge`]
//! must be associative and commutative — otherwise the emitted metrics
//! would depend on thread scheduling and the cross-thread invariance
//! tests could never hold.

use epvf_telemetry::{MetricsSnapshot, Registry, ALL_CTRS, ALL_GAUGES, ALL_TMRS};
use proptest::prelude::*;

/// One recording op: counter slot (over sum counters, then gauges) and
/// amount. The slot's kind picks the operation — `add` for a sum counter,
/// `peak` for a gauge — as the registry's types require.
type Op = (usize, u64);

fn apply(reg: &Registry, (slot, amount): Op) {
    let slot = slot % (ALL_CTRS.len() + ALL_GAUGES.len());
    match ALL_CTRS.get(slot) {
        Some(&c) => reg.add(c, amount),
        None => reg.peak(ALL_GAUGES[slot - ALL_CTRS.len()], amount),
    }
}

/// Apply one shard's ops on its own thread (the registry API is `&self`,
/// so recording is concurrent with the other shards) and snapshot it.
fn record_shards(shards: &[Vec<Op>]) -> Vec<MetricsSnapshot> {
    let registries: Vec<Registry> = shards.iter().map(|_| Registry::new()).collect();
    std::thread::scope(|s| {
        for (reg, ops) in registries.iter().zip(shards) {
            s.spawn(move || {
                for &(slot, amount) in ops {
                    apply(reg, (slot, amount));
                    reg.record_ns(ALL_TMRS[slot % ALL_TMRS.len()], amount + 1);
                }
            });
        }
    });
    registries.iter().map(Registry::snapshot).collect()
}

fn merged(a: &MetricsSnapshot, b: &MetricsSnapshot) -> MetricsSnapshot {
    let mut m = a.clone();
    m.merge(b);
    m
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec((0usize..128, 0u64..1_000_000), 0..40)
}

proptest! {
    /// `merge` is commutative: folding worker shards in either order
    /// yields the same counters and timer histograms.
    #[test]
    fn merge_is_commutative(a in ops(), b in ops()) {
        let snaps = record_shards(&[a, b]);
        prop_assert_eq!(
            merged(&snaps[0], &snaps[1]),
            merged(&snaps[1], &snaps[0])
        );
    }

    /// `merge` is associative: any grouping of the shard fold agrees.
    #[test]
    fn merge_is_associative(a in ops(), b in ops(), c in ops()) {
        let snaps = record_shards(&[a, b, c]);
        let left = merged(&merged(&snaps[0], &snaps[1]), &snaps[2]);
        let right = merged(&snaps[0], &merged(&snaps[1], &snaps[2]));
        prop_assert_eq!(left, right);
    }

    /// Concurrent recording into ONE registry loses nothing: splitting an
    /// op list across threads gives the same snapshot as applying it
    /// sequentially.
    #[test]
    fn concurrent_recording_is_lossless(all_ops in ops(), threads in 2usize..5) {
        let concurrent = Registry::new();
        std::thread::scope(|s| {
            for chunk in all_ops.chunks(all_ops.len().div_ceil(threads).max(1)) {
                let concurrent = &concurrent;
                s.spawn(move || {
                    for &op in chunk {
                        apply(concurrent, op);
                    }
                });
            }
        });
        let sequential = Registry::new();
        for &op in &all_ops {
            apply(&sequential, op);
        }
        prop_assert_eq!(concurrent.snapshot(), sequential.snapshot());
    }
}
