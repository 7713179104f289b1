//! Merge-algebra property tests for sharded campaigns, driven by the
//! generated-program corpus.
//!
//! The byte-identical-merge contract rests on `ShardOutcomes` forming a
//! commutative monoid under `merge` whose fold is invariant in the shard
//! count. These tests check the laws on
//! real campaign results over random `Recipe` programs rather than
//! synthetic outcome maps, so any outcome class the interpreter can
//! actually produce (benign, SDC, every crash kind, detection) flows
//! through the algebra.

use epvf_interp::InjectionSpec;
use epvf_ir::hash::Xoshiro256pp;
use epvf_llfi::{
    Campaign, CampaignConfig, CampaignError, CampaignResult, MergeError, RunSession, ShardOutcomes,
    ShardSpec,
};
use epvf_oracle::{GenConfig, Recipe};
use std::collections::BTreeMap;

/// Build campaigns over a small corpus of generated programs and hand
/// each (campaign, drawn specs, whole-campaign result) to `f`. Recipes
/// whose emitted module has no injectable sites are skipped — a vacuous
/// universe is legitimate generator output, not a merge-law failure.
fn for_corpus(mut f: impl FnMut(&Campaign<'_>, &[InjectionSpec], &CampaignResult)) {
    let mut exercised = 0u32;
    for seed in [2u64, 9, 41, 77, 2026] {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let recipe = Recipe::random(&mut rng, &GenConfig::default());
        let module = recipe.emit();
        let campaign = match Campaign::new(&module, "main", &[], CampaignConfig::default()) {
            Ok(c) => c,
            Err(CampaignError::NoInjectableSites) => continue,
            Err(e) => panic!("corpus seed {seed}: {e:?}"),
        };
        let specs = campaign.draw_specs(90, seed ^ 0xA5A5);
        if specs.is_empty() {
            continue;
        }
        let whole = campaign.run_specs(&specs);
        f(&campaign, &specs, &whole);
        exercised += 1;
    }
    assert!(exercised >= 3, "corpus too thin: {exercised} programs ran");
}

/// Run one shard's strided slice in-process, exactly as `epvf shard`
/// does: local spec list plus a shard-geometry session so every WAL-level
/// index is global.
fn run_shard(campaign: &Campaign<'_>, specs: &[InjectionSpec], shard: ShardSpec) -> CampaignResult {
    let local: Vec<InjectionSpec> = shard.indices(specs.len()).map(|g| specs[g]).collect();
    let session = RunSession {
        recovered: BTreeMap::new(),
        wal: None,
        index_base: shard.index(),
        index_stride: shard.of(),
        ..RunSession::default()
    };
    campaign.run_specs_session(&local, &session)
}

fn parts(campaign: &Campaign<'_>, specs: &[InjectionSpec], of: usize) -> Vec<ShardOutcomes> {
    (0..of)
        .map(|i| {
            let shard = ShardSpec::new(i, of).unwrap();
            ShardOutcomes::from_run(shard, &run_shard(campaign, specs, shard))
        })
        .collect()
}

/// Folding the shards in any order — forward, reverse, or a fixed
/// shuffle — produces the same union: `merge` is commutative.
#[test]
fn shard_merge_is_commutative() {
    for_corpus(|campaign, specs, _whole| {
        let shards = parts(campaign, specs, 5);
        let fold = |order: &[usize]| -> ShardOutcomes {
            order.iter().fold(ShardOutcomes::empty(), |acc, &i| {
                acc.merge(shards[i].clone()).expect("disjoint shards")
            })
        };
        let forward = fold(&[0, 1, 2, 3, 4]);
        assert_eq!(forward, fold(&[4, 3, 2, 1, 0]));
        assert_eq!(forward, fold(&[2, 4, 0, 3, 1]));
    });
}

/// `(a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)` on real three-shard partitions.
#[test]
fn shard_merge_is_associative() {
    for_corpus(|campaign, specs, _whole| {
        let shards = parts(campaign, specs, 3);
        let [a, b, c] = [shards[0].clone(), shards[1].clone(), shards[2].clone()];
        let left = a
            .clone()
            .merge(b.clone())
            .unwrap()
            .merge(c.clone())
            .unwrap();
        let right = a.merge(b.merge(c).unwrap()).unwrap();
        assert_eq!(left, right);
    });
}

/// `empty` is a two-sided identity, and merging a shard with itself is
/// idempotent (agreeing duplicates collapse rather than conflict —
/// exactly the property a re-run shard WAL relies on).
#[test]
fn shard_merge_identity_and_idempotence() {
    for_corpus(|campaign, specs, _whole| {
        let spec = ShardSpec::new(1, 3).unwrap();
        let shard = ShardOutcomes::from_run(spec, &run_shard(campaign, specs, spec));
        assert_eq!(ShardOutcomes::empty().merge(shard.clone()).unwrap(), shard);
        assert_eq!(shard.clone().merge(ShardOutcomes::empty()).unwrap(), shard);
        assert_eq!(shard.clone().merge(shard.clone()).unwrap(), shard);
    });
}

/// The fold of any shard count — 1, 2, or 7 — reassembles exactly the
/// single-process `CampaignResult`: partitioning is invisible in the
/// merged output.
#[test]
fn merged_result_is_invariant_in_the_shard_count() {
    for_corpus(|campaign, specs, whole| {
        for of in [1usize, 2, 7] {
            let union = parts(campaign, specs, of)
                .into_iter()
                .try_fold(ShardOutcomes::empty(), ShardOutcomes::merge)
                .expect("disjoint shards");
            let merged = union.into_result(specs).expect("total");
            assert_eq!(
                merged.runs, whole.runs,
                "{of}-shard fold must equal the single-process result"
            );
        }
    });
}

/// A fold missing one shard is not silently accepted: `into_result`
/// reports the gap, naming how many runs arrived.
#[test]
fn incomplete_shard_sets_are_rejected() {
    for_corpus(|campaign, specs, _whole| {
        let of = 4;
        let union = parts(campaign, specs, of)
            .into_iter()
            .skip(1) // drop shard 0
            .try_fold(ShardOutcomes::empty(), ShardOutcomes::merge)
            .expect("disjoint shards");
        let have = union.len();
        match union.into_result(specs) {
            Err(MergeError::Incomplete { have: h, want, .. }) => {
                assert_eq!(h, have);
                assert_eq!(want, specs.len());
            }
            other => panic!("expected Incomplete, got {other:?}"),
        }
    });
}
