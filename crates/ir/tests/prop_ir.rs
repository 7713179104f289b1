//! Property tests for the IR's scalar type arithmetic and the verifier's
//! acceptance of builder-produced modules.

use epvf_ir::{BinOp, IcmpPred, ModuleBuilder, Type, Value};
use proptest::prelude::*;

fn int_type() -> impl Strategy<Value = Type> {
    prop::sample::select(vec![
        Type::I1,
        Type::I8,
        Type::I16,
        Type::I32,
        Type::I64,
        Type::Ptr,
    ])
}

proptest! {
    /// Truncation is idempotent and bounded by the mask.
    #[test]
    fn truncate_idempotent(ty in int_type(), v in any::<u64>()) {
        let t = ty.truncate(v);
        prop_assert_eq!(ty.truncate(t), t);
        prop_assert!(t <= ty.mask());
    }

    /// Sign extension round-trips through truncation.
    #[test]
    fn sign_extend_roundtrip(ty in int_type(), v in any::<u64>()) {
        let t = ty.truncate(v);
        let s = ty.sign_extend(t);
        prop_assert_eq!(ty.truncate(s as u64), t, "truncating the extension recovers the payload");
        if ty.bits() < 64 {
            let bound = 1i64 << (ty.bits() - 1);
            prop_assert!(s >= -bound && s < bound, "extension in the signed range of {}", ty);
        }
    }

    /// Constants constructed through `Value` helpers carry their type's
    /// truncated payload.
    #[test]
    fn const_payloads_truncated(ty in int_type(), v in any::<u64>()) {
        let c = Value::const_int(ty, v);
        prop_assert_eq!(c.as_const_int(), Some(ty.truncate(v)));
        prop_assert_eq!(c.ty_if_const(), Some(ty));
        prop_assert!(c.is_const());
    }

    /// Any random chain of same-typed integer ops assembled through the
    /// builder verifies, and its static ids are dense and unique.
    #[test]
    fn builder_chains_always_verify(
        ops in prop::collection::vec(
            prop::sample::select(vec![BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::And, BinOp::Or, BinOp::Xor]),
            1..30,
        ),
        consts in prop::collection::vec(any::<i32>(), 1..30),
    ) {
        let mut mb = ModuleBuilder::new("prop");
        let mut f = mb.function("main", vec![Type::I32], Some(Type::I32));
        let mut acc = f.param(0);
        for (op, c) in ops.iter().zip(consts.iter().cycle()) {
            acc = f.bin(*op, Type::I32, acc, Value::i32(*c));
        }
        let gate = f.icmp(IcmpPred::Sge, Type::I32, acc, Value::i32(0));
        let r = f.select(Type::I32, gate, acc, Value::i32(0));
        f.ret(Some(r));
        f.finish();
        let module = mb.finish().expect("builder output always verifies");

        let mut sids: Vec<u32> = module
            .functions
            .iter()
            .flat_map(|fun| fun.insts().map(|i| i.sid.0))
            .collect();
        sids.sort_unstable();
        let n = sids.len() as u32;
        prop_assert_eq!(sids, (0..n).collect::<Vec<_>>(), "dense unique static ids");
        prop_assert_eq!(u64::from(module.n_static_insts), u64::from(n));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1))]
    /// The property-test stand-in carries its own copy of the workspace
    /// generator; both must draw one stream, so property cases stay the
    /// ones recorded against `Xoshiro256pp`. Each property is seeded with
    /// the FNV-1a/64 of its name.
    #[test]
    fn proptest_draws_the_xoshiro_stream(
        drawn in (
            any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(),
            0u64..1000, 0u64..3, 1u64..=1, 0u64..=u64::MAX,
        )
    ) {
        let mut seed = epvf_ir::hash::Fnv64::new();
        seed.update(b"proptest_draws_the_xoshiro_stream");
        let mut r = epvf_ir::hash::Xoshiro256pp::seed_from_u64(seed.finish());
        let expected = (
            r.next_u64(), r.next_u64(), r.next_u64(), r.next_u64(),
            r.below(1000), r.below(3), 1 + r.below(1), r.next_u64(),
        );
        prop_assert_eq!(drawn, expected);
    }
}
