//! Pinned digests of every `:tiny` golden trace.
//!
//! The golden trace is the DDG's only input, so the traced path must stay
//! bit-identical while the untraced (injected, checkpointing) paths are
//! optimised. Each digest folds every record's position, static id,
//! function, result `(reg, bits, dyn id)`, operand `(bits, src dyn id)`
//! and memory access into one FNV-1a hash, so a changed dynamic id
//! numbering, operand value or access shows up as a digest mismatch.

use epvf_interp::Trace;
use epvf_workloads::{extended_suite, Scale};

/// `(workload, records, digest)` of every `:tiny` golden trace.
const PINNED: &[(&str, usize, u64)] = &[
    ("lulesh", 2354, 0xccd94ec6d89e4667),
    ("particlefilter", 3483, 0xb6b80fe1d109c6e7),
    ("srad", 5933, 0xfd5489fff41f5d24),
    ("nw", 3540, 0x58412a6598e595c8),
    ("hotspot", 7846, 0xb396e0fa39d5eb2f),
    ("lavaMD", 3515, 0x001514633b33a279),
    ("bfs", 6365, 0xb5005b96bd3ec095),
    ("lud", 1716, 0x6f0cf8ec4c09983d),
    ("pathfinder", 1957, 0xc90a371527bf8726),
    ("mm", 4099, 0x73d223adb0edcc95),
    ("kmeans", 4643, 0xc8ca1bb1903f8a55),
];

struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn digest(trace: &Trace) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for r in trace {
        h.word(r.idx);
        h.word(u64::from(r.sid.0));
        h.word(u64::from(r.func.0));
        match r.result {
            Some((reg, bits, id)) => {
                h.word(1);
                h.word(u64::from(reg.0));
                h.word(bits);
                h.word(id.0);
            }
            None => h.word(0),
        }
        h.word(r.operands.len() as u64);
        for op in r.operands {
            h.word(op.bits);
            h.word(op.src.map_or(u64::MAX, |id| id.0));
        }
        match &r.mem {
            Some(m) => {
                h.word(m.addr);
                h.word(m.size);
                h.word(u64::from(m.is_store));
                h.word(m.sp);
            }
            None => h.word(u64::MAX),
        }
    }
    h.0
}

#[test]
fn tiny_golden_traces_match_their_pinned_digests() {
    let got: Vec<(&str, usize, u64)> = extended_suite(Scale::Tiny)
        .iter()
        .map(|w| {
            let trace = w.golden().trace.expect("golden runs record a trace");
            (w.name, trace.len(), digest(&trace))
        })
        .collect();
    assert_eq!(
        got, PINNED,
        "a golden trace changed: (workload, records, digest)"
    );
}
