//! Mutation-driven incrementality property: editing one section of a
//! program and re-analyzing against a warm section cache must (a) recompute
//! *only* the mutated section — every other section replays as a hit — and
//! (b) produce exactly the result a cold-cache analysis of the mutant
//! produces. Together with the differential suite this pins down both
//! directions of the cache contract: it never reuses stale summaries and it
//! never recomputes unchanged ones.

use epvf_core::{analyze, analyze_compositional, EpvfConfig, SectionCache};
use epvf_interp::{ExecConfig, Interpreter, Trace};
use epvf_ir::hash::Xoshiro256pp;
use epvf_ir::{IcmpPred, Module, ModuleBuilder, Type, Value};

/// One independent loop nest: its own buffer, trip count, and multiplier.
/// Loops share nothing, so editing one multiplier must leave every other
/// loop's section key untouched.
#[derive(Clone, Debug, PartialEq)]
struct LoopSpec {
    trips: u32,
    mult: u32,
}

/// Emit `main` as K sequential, data-independent loops. Each iteration of
/// loop `k` stores `i * mult_k` into its own malloc'd array, loads it back,
/// and outputs it — so every loop section carries store, load, and output
/// roots for both crash scopes.
fn emit(loops: &[LoopSpec]) -> Module {
    let mut mb = ModuleBuilder::new("kloops");
    let mut f = mb.function("main", vec![], None);
    let bufs: Vec<_> = loops
        .iter()
        .map(|l| f.malloc(Value::i64(i64::from(l.trips) * 4)))
        .collect();
    let mut pred = f.current_block();
    for (k, (l, &buf)) in loops.iter().zip(&bufs).enumerate() {
        let header = f.create_block(format!("h{k}"));
        let body = f.create_block(format!("b{k}"));
        let next = f.create_block(format!("n{k}"));
        f.br(header);
        f.switch_to(header);
        let i = f.phi(Type::I32, vec![(pred, Value::i32(0))]);
        let c = f.icmp(IcmpPred::Slt, Type::I32, i, Value::i32(l.trips as i32));
        f.cond_br(c, body, next);
        f.switch_to(body);
        let v = f.mul(Type::I32, i, Value::i32(l.mult as i32));
        let slot = f.gep(buf, i, 4);
        f.store(Type::I32, v, slot);
        let lv = f.load(Type::I32, slot);
        f.output(Type::I32, lv);
        let i2 = f.add(Type::I32, i, Value::i32(1));
        f.add_incoming(i, body, i2);
        f.br(header);
        f.switch_to(next);
        pred = next;
    }
    f.ret(None);
    f.finish();
    mb.finish().expect("k-loop module verifies")
}

fn traced(module: &Module) -> Trace {
    Interpreter::new(module, ExecConfig::default())
        .golden_run("main", &[])
        .expect("golden run completes")
        .trace
        .expect("golden run is traced")
}

#[test]
fn mutating_one_section_recomputes_only_that_section() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x1CAC4E);
    for case in 0..20 {
        let k = 3 + rng.below(5) as usize;
        let loops: Vec<LoopSpec> = (0..k)
            .map(|_| LoopSpec {
                trips: 2 + rng.below(5) as u32,
                mult: 1 + rng.below(9) as u32,
            })
            .collect();
        let victim = rng.below(k as u64) as usize;
        let mut mutated = loops.clone();
        mutated[victim].mult += 1;
        assert_ne!(loops, mutated);

        let original = emit(&loops);
        let mutant = emit(&mutated);
        let trace_orig = traced(&original);
        let trace_mut = traced(&mutant);
        let config = EpvfConfig::default();

        // Cold pass over the original: each of the K loop nests is one
        // section run with roots (entry/exit straight sections carry no
        // accesses and are skipped without a lookup).
        let mut cache = SectionCache::in_memory();
        analyze_compositional(&original, &trace_orig, config, &mut cache);
        let cold = cache.stats();
        assert_eq!(cold.sections, k as u64, "case {case}: one run per loop");
        assert_eq!(cold.misses, k as u64, "case {case}: all cold");
        assert_eq!(cold.hits, 0, "case {case}");

        // Warm pass over the *mutant*: exactly the victim's section key
        // changes, so exactly one miss.
        let warm = analyze_compositional(&mutant, &trace_mut, config, &mut cache);
        let s = cache.stats();
        let (dh, dm, ds) = (
            s.hits - cold.hits,
            s.misses - cold.misses,
            s.sections - cold.sections,
        );
        assert_eq!(ds, k as u64, "case {case}");
        assert_eq!(
            dm, 1,
            "case {case} (victim {victim} of {k}): only the mutated loop may recompute"
        );
        assert_eq!(dh, k as u64 - 1, "case {case}: every other loop replays");

        // And the warm result is exactly what a cold analysis of the
        // mutant computes — stale reuse would show up here.
        let reference = analyze(&mutant, &trace_mut, config);
        assert_eq!(
            reference.crash_map, warm.crash_map,
            "case {case}: warm-cache mutant diverged from cold reference"
        );
        assert_eq!(
            reference.metrics.epvf.to_bits(),
            warm.metrics.epvf.to_bits()
        );
        assert_eq!(
            reference.metrics.use_crash_bits,
            warm.metrics.use_crash_bits
        );
        assert_eq!(
            reference.metrics.crash_register_bits,
            warm.metrics.crash_register_bits
        );
    }
}

#[test]
fn unmutated_reanalysis_is_all_hits() {
    let loops = vec![
        LoopSpec { trips: 4, mult: 3 },
        LoopSpec { trips: 5, mult: 2 },
        LoopSpec { trips: 3, mult: 7 },
    ];
    let module = emit(&loops);
    let trace = traced(&module);
    let mut cache = SectionCache::in_memory();
    let a = analyze_compositional(&module, &trace, EpvfConfig::default(), &mut cache);
    let b = analyze_compositional(&module, &trace, EpvfConfig::default(), &mut cache);
    let s = cache.stats();
    assert_eq!(s.misses, 3, "first pass computes each loop");
    assert_eq!(s.hits, 3, "second pass replays each loop");
    assert_eq!(a.crash_map, b.crash_map);
}

#[test]
fn cache_counters_obey_the_conservation_laws() {
    // All `analyze.cache.*` updates in this process (this test plus its
    // neighbors, in any interleaving) must keep the telemetry laws intact:
    // hits + misses == sections, stored <= misses, corrupt <= misses.
    let loops = vec![
        LoopSpec { trips: 3, mult: 2 },
        LoopSpec { trips: 4, mult: 5 },
    ];
    let module = emit(&loops);
    let trace = traced(&module);
    let mut cache = SectionCache::in_memory();
    analyze_compositional(&module, &trace, EpvfConfig::default(), &mut cache);
    analyze_compositional(&module, &trace, EpvfConfig::default(), &mut cache);
    let snap = epvf_telemetry::global_snapshot();
    assert!(
        snap.counter("analyze.cache.sections") >= 4,
        "this test alone contributes 4"
    );
    let violations = snap.check_conservation();
    assert!(
        violations.is_empty(),
        "conservation violated: {violations:?}"
    );
}
