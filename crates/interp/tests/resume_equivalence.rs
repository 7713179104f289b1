//! Resume-from-snapshot equivalence: a run resumed from any golden
//! checkpoint must be observably identical — outcome, outputs, dynamic
//! instruction count — to the same run executed from scratch, both with
//! and without an injected fault; and a rendezvous rejoin must only be
//! reported when the from-scratch injected run really matches the golden
//! run (that is the soundness condition the campaign's early `Benign`
//! classification rests on).

use epvf_interp::{ExecConfig, InjectionSpec, Interpreter, ReplayOutcome, RunResult};
use epvf_workloads::{by_name, Scale, Workload};
use proptest::prelude::*;

/// Checkpoint spacing kept small so even tiny-scale workloads produce
/// plenty of snapshots to resume from.
const INTERVAL: u64 = 64;

/// The externally observable result of a run (traces are never recorded
/// on the resume path, so they are excluded from the comparison).
fn observable(r: &RunResult) -> (&epvf_interp::Outcome, &[u64], u64) {
    (&r.outcome, r.outputs.as_slice(), r.dyn_insts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For a random workload, snapshot, and fault: resuming reproduces the
    /// from-scratch run exactly, and rendezvous rejoins are sound.
    #[test]
    fn resumed_runs_match_from_scratch(
        name in prop::sample::select(vec!["mm", "nw", "pathfinder", "bfs"]),
        snap_pick in any::<prop::sample::Index>(),
        offset_pick in any::<prop::sample::Index>(),
        slot in 0usize..2,
        bit in 0u8..64,
    ) {
        let w = by_name(name, Scale::Tiny).expect("known benchmark");
        let interp = Interpreter::new(&w.module, ExecConfig::default());
        let (golden, snaps) = interp
            .run_with_checkpoints(Workload::ENTRY, &w.args, INTERVAL)
            .expect("golden run");
        prop_assert!(!snaps.is_empty(), "first checkpoint is always emitted");
        prop_assert_eq!(snaps[0].dyn_count(), 0);

        // Uninjected: resuming from any snapshot finishes the golden run.
        let snap = &snaps[snap_pick.index(snaps.len())];
        let resumed = interp.run_from(snap);
        prop_assert_eq!(observable(&resumed), observable(&golden));

        // Injected: resume from the snapshot, fault at or after it.
        let room = (golden.dyn_insts - snap.dyn_count()).max(1);
        let spec = InjectionSpec {
            dyn_idx: snap.dyn_count() + offset_pick.index(room as usize) as u64,
            operand_slot: slot,
            bit,
        };
        let scratch = interp
            .run_fault(Workload::ENTRY, &w.args, spec.into())
            .expect("runs");
        // With no rendezvous candidates the resumed replay always finishes.
        match interp.replay_fault_from(snap, spec.into(), &[]) {
            ReplayOutcome::Finished(resumed) => {
                prop_assert_eq!(observable(&resumed), observable(&scratch));
            }
            ReplayOutcome::Rejoined { .. } => {
                prop_assert!(false, "rejoined without rendezvous checkpoints");
            }
        }

        // Rendezvous replay: a rejoin certifies the rest of the run is the
        // golden suffix; a finish must match the from-scratch result.
        match interp.replay_fault_from(snap, spec.into(), &snaps) {
            ReplayOutcome::Finished(r) => {
                prop_assert_eq!(observable(&r), observable(&scratch));
            }
            ReplayOutcome::Rejoined { at_dyn } => {
                prop_assert!(at_dyn > spec.dyn_idx);
                prop_assert_eq!(observable(&scratch), observable(&golden));
            }
        }
    }
}
