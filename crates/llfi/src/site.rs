//! Injection-site enumeration and uniform sampling.
//!
//! The paper's campaigns "inject faults into the source registers for the
//! executed instructions ... all faults are activated" (§IV-A). A *site* is
//! one register-operand read of one dynamic instruction; the sample space is
//! the set of `(site, bit)` pairs, drawn uniformly so that wide registers
//! receive proportionally more faults — the same space the analytical
//! crash-rate estimate integrates over.

use epvf_core::{BitBand, FaultCtx, FaultModel, OpClass, OpClassTable, OperandKind, SiteClass};
use epvf_interp::{InjectionSpec, Trace};
use epvf_ir::hash::Xoshiro256pp;
use epvf_ir::Module;

// The single definition of "injectable site" lives in `epvf_core` next to
// the fault models that reinterpret it; re-exported here for the random
// campaigns, the targeted precision study, and the exhaustive oracle.
pub use epvf_core::injectable_operand;

/// One injectable operand read (or, for non-register fault models, one
/// injection point of the active [`FaultModel`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectionSite {
    /// Dynamic instruction index.
    pub dyn_idx: u64,
    /// Operand slot within the instruction.
    pub slot: usize,
    /// Number of injection points at this site (register width in bits for
    /// bit-indexed models).
    pub width: u32,
    /// Opcode class of the consuming instruction (stratification key).
    pub op_class: OpClass,
    /// Kind of the operand register (stratification key).
    pub operand_kind: OperandKind,
    /// Whether the point index is a bit position (bit-indexed models
    /// stratify on its [`BitBand`]; others get a bandless stratum).
    pub banded: bool,
}

impl InjectionSite {
    /// Full stratum key of injecting point `bit` at this site.
    pub fn class_of_bit(&self, bit: u8) -> SiteClass {
        SiteClass {
            op: self.op_class,
            operand: self.operand_kind,
            band: self.banded.then(|| BitBand::of(bit)),
        }
    }
}

/// All injectable sites of a golden trace, with cumulative bit weights for
/// uniform `(site, bit)` sampling.
#[derive(Debug, Clone, Default)]
pub struct SiteTable {
    sites: Vec<InjectionSite>,
    /// `cum[i]` = total bits of sites `0..=i`.
    cum: Vec<u64>,
}

impl SiteTable {
    /// Enumerate every register-operand read in the trace — the paper's
    /// default single-bit-flip universe.
    pub fn from_trace(module: &Module, trace: &Trace) -> Self {
        Self::for_model(&epvf_core::SingleBitFlip, module, trace)
    }

    /// Enumerate the injection points of `model` over the trace. Each
    /// dynamic record is probed at every operand slot (plus slot 0 for
    /// operand-less instructions, so whole-instruction models can claim
    /// them); the model decides which pairs are sites and how many points
    /// each contributes.
    pub fn for_model(model: &dyn FaultModel, module: &Module, trace: &Trace) -> Self {
        let classes = OpClassTable::new(module);
        let ctx = FaultCtx::new(module);
        let banded = model.bit_indexed();
        let mut sites = Vec::new();
        let mut cum = Vec::new();
        let mut total = 0u64;
        for rec in trace {
            for slot in 0..rec.operands.len().max(1) {
                let Some(width) = model.points(&ctx, module, &rec, slot) else {
                    continue;
                };
                total += u64::from(width);
                sites.push(InjectionSite {
                    dyn_idx: rec.idx,
                    slot,
                    width,
                    op_class: classes.class_of(rec.sid),
                    operand_kind: model.operand_kind(module, &rec, slot),
                    banded,
                });
                cum.push(total);
            }
        }
        SiteTable { sites, cum }
    }

    /// Point count (width) of the site at `(dyn_idx, slot)`, if it is in
    /// the table. Sites are in trace order with slots ascending, so this is
    /// a binary search.
    pub fn width_of(&self, dyn_idx: u64, slot: usize) -> Option<u32> {
        self.site_of(dyn_idx, slot).map(|s| s.width)
    }

    /// The site at `(dyn_idx, slot)`, if it is in the table (binary search
    /// over the trace order) — used to classify arbitrary specs into their
    /// strata when aggregating shard results.
    pub fn site_of(&self, dyn_idx: u64, slot: usize) -> Option<&InjectionSite> {
        let i = self
            .sites
            .partition_point(|s| (s.dyn_idx, s.slot) < (dyn_idx, slot));
        self.sites
            .get(i)
            .filter(|s| s.dyn_idx == dyn_idx && s.slot == slot)
    }

    /// Number of sites.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// Whether no site exists (trace without register reads).
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// Total `(site, bit)` pairs.
    pub fn total_bits(&self) -> u64 {
        self.cum.last().copied().unwrap_or(0)
    }

    /// The sites in trace order.
    pub fn sites(&self) -> &[InjectionSite] {
        &self.sites
    }

    /// Exhaustively enumerate every `(site, bit)` spec, in trace order with
    /// bits ascending — the oracle's ground-truth universe. [`Self::sample`]
    /// draws uniformly from exactly this set, so `specs().count()` equals
    /// [`Self::total_bits`] by construction.
    pub fn specs(&self) -> impl Iterator<Item = InjectionSpec> + '_ {
        self.sites.iter().flat_map(|s| {
            (0..s.width as u8).map(move |bit| InjectionSpec {
                dyn_idx: s.dyn_idx,
                operand_slot: s.slot,
                bit,
            })
        })
    }

    /// Draw one `(site, bit)` pair uniformly.
    ///
    /// # Panics
    /// Panics if the table is empty.
    pub fn sample(&self, rng: &mut Xoshiro256pp) -> InjectionSpec {
        assert!(!self.is_empty(), "no injectable sites");
        let x = rng.below(self.total_bits());
        let i = self.cum.partition_point(|&c| c <= x);
        let site = self.sites[i];
        let prev = if i == 0 { 0 } else { self.cum[i - 1] };
        let bit = (x - prev) as u8;
        InjectionSpec {
            dyn_idx: site.dyn_idx,
            operand_slot: site.slot,
            bit,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epvf_interp::{ExecConfig, Interpreter};
    use epvf_ir::{ModuleBuilder, Type, Value};

    fn table() -> SiteTable {
        let mut mb = ModuleBuilder::new("t");
        let mut f = mb.function("main", vec![], None);
        let a = f.add(Type::I32, Value::i32(1), Value::i32(2)); // consts only: no site
        let b = f.add(Type::I32, a, Value::i32(3)); // one i32 site
        let w = f.zext(Type::I32, Type::I64, b); // one i32 site
        let c = f.add(Type::I64, w, w); // two i64 sites
        f.output(Type::I64, c); // one i64 site
        f.ret(None);
        f.finish();
        let m = mb.finish().expect("verifies");
        let r = Interpreter::new(&m, ExecConfig::default())
            .golden_run("main", &[])
            .expect("runs");
        SiteTable::from_trace(&m, r.trace.as_ref().expect("trace"))
    }

    #[test]
    fn enumerates_register_reads_only() {
        let t = table();
        assert_eq!(t.len(), 5);
        assert_eq!(t.total_bits(), 32 + 32 + 64 + 64 + 64);
    }

    #[test]
    fn sampling_respects_widths_and_bounds() {
        let t = table();
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        let mut hit_wide = 0;
        for _ in 0..2000 {
            let s = t.sample(&mut rng);
            let site = t
                .sites()
                .iter()
                .find(|x| x.dyn_idx == s.dyn_idx && x.slot == s.operand_slot)
                .expect("sampled site exists");
            assert!((s.bit as u32) < site.width, "bit within operand width");
            if site.width == 64 {
                hit_wide += 1;
            }
        }
        // 192 of 256 bits are in 64-bit operands → expect ~75% of draws.
        assert!(hit_wide > 1300 && hit_wide < 1700, "hit_wide = {hit_wide}");
    }

    #[test]
    fn exhaustive_specs_cover_exactly_the_sample_space() {
        let t = table();
        let specs: Vec<_> = t.specs().collect();
        assert_eq!(specs.len() as u64, t.total_bits());
        // Strictly ordered → no duplicates, and every sampled spec is a
        // member of the enumerated universe.
        assert!(specs
            .windows(2)
            .all(|w| (w[0].dyn_idx, w[0].operand_slot, w[0].bit)
                < (w[1].dyn_idx, w[1].operand_slot, w[1].bit)));
        let mut rng = Xoshiro256pp::seed_from_u64(11);
        for _ in 0..200 {
            let s = t.sample(&mut rng);
            assert!(specs.contains(&s));
        }
    }

    #[test]
    fn sites_carry_their_stratum_classes() {
        let t = table();
        // The builder module is pure integer data-flow: adds (Int), a zext
        // (Data/cast), and an output (Data); every operand register is an
        // integer.
        use epvf_core::{OpClass, OperandKind};
        for s in t.sites() {
            assert_eq!(s.operand_kind, OperandKind::Int);
            assert!(matches!(s.op_class, OpClass::Int | OpClass::Data));
            let k = s.class_of_bit(3);
            assert_eq!(k.op, s.op_class);
            assert_eq!(k.band, Some(epvf_core::BitBand::of(3)));
        }
        assert!(t.sites().iter().any(|s| s.op_class == OpClass::Int));
        assert!(t.sites().iter().any(|s| s.op_class == OpClass::Data));
    }

    #[test]
    fn width_of_finds_sites_by_coordinates() {
        let t = table();
        for s in t.sites() {
            assert_eq!(t.width_of(s.dyn_idx, s.slot), Some(s.width));
        }
        assert_eq!(t.width_of(u64::MAX, 0), None);
        assert_eq!(t.width_of(0, 0), None, "dyn 0 reads constants only");
    }

    #[test]
    fn deterministic_for_same_seed() {
        let t = table();
        let a: Vec<_> = {
            let mut rng = Xoshiro256pp::seed_from_u64(3);
            (0..50).map(|_| t.sample(&mut rng)).collect()
        };
        let b: Vec<_> = {
            let mut rng = Xoshiro256pp::seed_from_u64(3);
            (0..50).map(|_| t.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }
}
