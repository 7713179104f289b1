//! Pinned digests of the DDG built from every `:tiny` golden trace.
//!
//! The builder's lookup tables (dynamic id → node, byte address → last
//! store) may change representation, but the graph they produce may not.
//! Each digest folds every node's kind, width, defining record and
//! dependency list, then the output roots, the control roots and the
//! record → node map into one FNV-1a hash, so a renumbered node, a lost or
//! reordered edge, or a changed root shows up as a digest mismatch.

use epvf_ddg::{build_ddg, Ddg, EdgeKind, NodeKind};
use epvf_workloads::{extended_suite, Scale};

/// `(workload, nodes, digest)` of every `:tiny` golden trace's DDG.
const PINNED: &[(&str, usize, u64)] = &[
    ("lulesh", 2090, 0x1d116d94665db391),
    ("particlefilter", 3022, 0x126635b59b562790),
    ("srad", 5516, 0xa46bd81f7e37f898),
    ("nw", 3277, 0xc779e17f1388ec8e),
    ("hotspot", 7359, 0x0b2f171e64ea7c6c),
    ("lavaMD", 3160, 0x1611184037ab2230),
    ("bfs", 4650, 0x4e0eec6feedbd7ec),
    ("lud", 1334, 0x286208eae1b38f4a),
    ("pathfinder", 1750, 0xf3401ee4cbce85e5),
    ("mm", 3385, 0x985b484df39f1ffc),
    ("kmeans", 4012, 0xc5313592422fb3e9),
];

struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn node_ids(&mut self, ids: &[epvf_ddg::NodeId]) {
        self.word(ids.len() as u64);
        for id in ids {
            self.word(u64::from(id.0));
        }
    }
}

fn digest(ddg: &Ddg, records: usize) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for n in ddg.nodes() {
        match n.kind {
            NodeKind::Reg(dv) => {
                h.word(0);
                h.word(dv.0);
            }
            NodeKind::Mem { addr } => {
                h.word(1);
                h.word(addr);
            }
            NodeKind::External => h.word(2),
        }
        h.word(u64::from(n.bits));
        h.word(n.def_record.unwrap_or(u64::MAX));
        h.word(n.deps.len() as u64);
        for &(d, kind) in &n.deps {
            h.word(u64::from(d.0));
            h.word(u64::from(kind == EdgeKind::Addr));
        }
    }
    h.node_ids(ddg.outputs());
    h.node_ids(ddg.controls());
    for idx in 0..records as u64 {
        h.word(
            ddg.def_of_record(idx)
                .map_or(u64::MAX, |id| u64::from(id.0)),
        );
    }
    h.0
}

#[test]
fn tiny_ddgs_match_their_pinned_digests() {
    let got: Vec<(&str, usize, u64)> = extended_suite(Scale::Tiny)
        .iter()
        .map(|w| {
            let trace = w.golden().trace.expect("golden runs record a trace");
            let ddg = build_ddg(&w.module, &trace);
            (w.name, ddg.len(), digest(&ddg, trace.len()))
        })
        .collect();
    assert_eq!(got, PINNED, "a DDG changed: (workload, nodes, digest)");
}
