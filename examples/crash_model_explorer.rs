//! Explore the simulated Linux crash semantics interactively-ish: show the
//! memory map of a running program, then probe which single-bit flips of a
//! stack and a heap address the crash model declares fatal — and verify a
//! few against the live memory system.
//!
//! ```sh
//! cargo run --release -p epvf-bench --example crash_model_explorer
//! ```

use epvf_core::{check_boundary, CrashModelConfig};
use epvf_interp::MemAccessRec;
use epvf_memsim::{MemConfig, SimMemory, STACK_GUARD_WINDOW};

fn main() {
    let mut mem = SimMemory::new(MemConfig::default());
    let heap_buf = mem.malloc(4096).expect("allocates");
    let sp = mem.stack_top() - 4096;
    mem.grow_stack_to(sp).expect("stack grows");
    let stack_slot = sp + 64;
    mem.write(stack_slot, 8, 1, sp).expect("stack store");
    mem.write(heap_buf, 8, 2, sp).expect("heap store");

    println!("simulated /proc/self/maps:");
    print!("{}", mem.map().render());
    println!("SP = {sp:#x}; stack guard window = SP − {STACK_GUARD_WINDOW:#x}");

    for (label, addr) in [("heap", heap_buf), ("stack", stack_slot)] {
        let access = MemAccessRec {
            addr,
            size: 8,
            is_store: false,
            sp,
            map: mem.map(),
        };
        let full = check_boundary(&access, CrashModelConfig::default());
        let naive = check_boundary(
            &access,
            CrashModelConfig {
                stack_rule: false,
                ..CrashModelConfig::default()
            },
        );
        println!("\n{label} address {addr:#x}:");
        println!("  full model valid range : {full}");
        println!("  naive model valid range: {naive}");
        let crash_bits = full.crash_bits(addr, 64);
        println!(
            "  crash bits (full model) : {} of 64 → {:?}…",
            crash_bits.len(),
            &crash_bits[..crash_bits.len().min(8)]
        );
        // Verify the model's verdict on a few interesting bits against the
        // live memory system.
        for bit in [2u8, 13, 17, 40] {
            let flipped = addr ^ (1u64 << bit);
            let predicted = !full.contains(flipped);
            let actual = mem.clone().read(flipped, 8, sp).is_err();
            println!(
                "  flip bit {bit:2}: {flipped:#014x}  predicted {}  actual {}",
                if predicted { "CRASH " } else { "ok    " },
                if actual { "CRASH" } else { "ok" },
            );
        }
    }
}
