//! Generator-driven differential validation: hundreds of random well-typed
//! IR programs are swept exhaustively and the crash model is scored against
//! ground truth on every one. Any hard-invariant violation is shrunk to the
//! smallest failing recipe and dumped as a replayable repro.
//!
//! Scoring uses `CrashScope::AllAccesses`: random programs are dense in
//! stores that never reach an output, so the paper's ACE-only scoping would
//! measure its documented coverage gap (§VI-B, lavaMD/lulesh in Fig. 8)
//! instead of the boundary/propagation models under test.
//!
//! `EPVF_ORACLE_GEN_PROGRAMS` overrides the random-program count (CI runs
//! 256; the default keeps `cargo test` quick). Calibration on 200 programs
//! (777,964 flips): pooled recall 0.9728 / precision 0.9844, worst single
//! program 0.963 / 0.982, zero hard violations.

use epvf_core::{CrashScope, EpvfConfig};
use epvf_ir::hash::Xoshiro256pp;
use epvf_oracle::{check_module_with, Confusion, GenConfig, OracleOutcome, Recipe};
use std::path::Path;

const CORPUS: &str = include_str!("../proptest-regressions/differential_gen.txt");

fn scoring_config() -> EpvfConfig {
    EpvfConfig {
        scope: CrashScope::AllAccesses,
        ..EpvfConfig::default()
    }
}

fn check_recipe(recipe: &Recipe) -> OracleOutcome {
    let module = recipe.emit();
    check_module_with(&module, "main", &[], 4, scoring_config())
}

fn program_budget() -> usize {
    std::env::var("EPVF_ORACLE_GEN_PROGRAMS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

/// On a hard violation, shrink to the minimal failing recipe, write a
/// replayable repro bundle, and panic with the recipe line to append to the
/// regression corpus.
fn fail_hard(recipe: &Recipe, origin: &str) -> ! {
    let still_fails = |r: &Recipe| !check_recipe(r).hard_violations.is_empty();
    let min = recipe.shrink(still_fails);
    let outcome = check_recipe(&min);
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("oracle-repros");
    std::fs::create_dir_all(&dir).ok();
    let mut dump = format!("# shrunk recipe: {min}\n# origin: {origin}\n");
    for v in &outcome.hard_violations {
        dump.push_str(&format!("# violation: {:?} {}\n", v.spec, v.detail));
    }
    dump.push_str(&format!("{}", min.emit()));
    let path = dir.join("gen-hard-violation.txt");
    std::fs::write(&path, &dump).ok();
    panic!(
        "hard invariant violated ({origin}); shrunk recipe `{min}` — append it to \
         crates/oracle/proptest-regressions/differential_gen.txt (dump: {})\n{}",
        path.display(),
        outcome
            .hard_violations
            .iter()
            .map(|v| format!("  {:?} {}", v.spec, v.detail))
            .collect::<Vec<_>>()
            .join("\n"),
    )
}

#[test]
fn regression_corpus_replays_clean() {
    let mut replayed = 0;
    for line in CORPUS.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let recipe: Recipe = line.parse().expect("corpus line parses");
        let outcome = check_recipe(&recipe);
        assert!(outcome.ground_truth.is_exhaustive());
        if !outcome.hard_violations.is_empty() {
            fail_hard(&recipe, "regression corpus");
        }
        replayed += 1;
    }
    assert!(replayed >= 3, "corpus should stay seeded, got {replayed}");
}

#[test]
fn random_programs_match_ground_truth() {
    let n = program_budget();
    let mut rng = Xoshiro256pp::seed_from_u64(0x0E9F_4D01);
    let mut pooled = Confusion::default();
    let mut masked_sdc = 0u64;
    let mut universe = 0u64;
    let mut worst: Option<(f64, Recipe)> = None;
    for i in 0..n {
        let recipe = Recipe::random(&mut rng, &GenConfig::default());
        let outcome = check_recipe(&recipe);
        assert!(outcome.ground_truth.is_exhaustive(), "program {i}");
        if !outcome.hard_violations.is_empty() {
            fail_hard(&recipe, &format!("random program {i}"));
        }
        let c = outcome.report.confusion;
        // Per-program floor, only meaningful when crashes exist to recall.
        if c.tp + c.fn_ > 0 {
            let score = c.recall().min(c.precision());
            if worst.as_ref().is_none_or(|(w, _)| score < *w) {
                worst = Some((score, recipe.clone()));
            }
            assert!(
                c.recall() >= 0.90 && c.precision() >= 0.90,
                "program {i} recipe `{recipe}`: recall {:.3} precision {:.3} ({c:?})",
                c.recall(),
                c.precision(),
            );
        }
        pooled.merge(c);
        masked_sdc += outcome.report.masked_sdc;
        universe += outcome.ground_truth.universe;
    }
    assert!(
        pooled.recall() >= 0.95 && pooled.precision() >= 0.95,
        "pooled over {n} programs ({universe} flips): recall {:.4} precision {:.4}",
        pooled.recall(),
        pooled.precision(),
    );
    // ACE-masked claims contradicted by an SDC stay rare (§VI-B "other
    // masking"); calibration sees ~0.02% of flips.
    assert!(
        (masked_sdc as f64) < 0.005 * universe as f64,
        "masked-SDC disagreements exploded: {masked_sdc} of {universe} flips"
    );
    if let Some((score, recipe)) = worst {
        println!("worst program: min(recall,precision)={score:.3} recipe `{recipe}`");
    }
}

#[test]
fn shrinking_is_wired_to_the_real_checker() {
    // End-to-end shrink on a synthetic predicate over the *real* oracle
    // output: "fails" iff the program still predicts at least one crash.
    // Shrinking must preserve the property while deleting genes.
    let recipe: Recipe = "C:7 B:0:0:1 L:0:2 S:1:3:0 D:1:0:2 O:1"
        .parse()
        .expect("literal recipe parses");
    let fails = |r: &Recipe| {
        let o = check_recipe(r);
        o.report.confusion.tp + o.report.confusion.fn_ > 0
    };
    assert!(fails(&recipe), "seed recipe must crash somewhere");
    let min = recipe.shrink(fails);
    assert!(fails(&min), "shrunk recipe keeps the property");
    assert!(
        min.ops.len() < recipe.ops.len(),
        "prelude loads alone crash, so genes must shrink: `{min}`"
    );
}
