//! Quickstart: select extended instructions for a small kernel and
//! measure the speedup.
//!
//! ```text
//! cargo run --release -p t1000-core --example quickstart
//! ```

use t1000_core::{SelectConfig, Session, StrategySpec};
use t1000_cpu::{simulate, CpuConfig};
use t1000_isa::FusionMap;

const KERNEL: &str = "
# A toy DSP loop: shift-add-xor chain with a masked accumulator.
main:
    li   $s0, 20000         # iterations
    li   $t0, 3
    li   $t1, 5
loop:
    sll  $t2, $t0, 4
    addu $t2, $t2, $t1
    xor  $t2, $t2, $t0
    srl  $t2, $t2, 1
    addu $t1, $t1, $t2
    andi $t1, $t1, 4095
    addiu $s0, $s0, -1
    bgtz $s0, loop
    move $a0, $t1
    li   $v0, 30            # checksum syscall
    syscall
    li   $a0, 0
    li   $v0, 10            # exit
    syscall
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Assemble, profile, and analyse the program.
    let session = Session::from_asm(KERNEL)?;

    // Run the paper's selective algorithm for a 2-PFU machine.
    let selection = session.select_shared(&StrategySpec::selective(&SelectConfig {
        pfus: Some(2),
        gain_threshold: 0.005,
        reload_weight: 0.0,
    }));
    println!(
        "selected {} extended instruction(s):",
        selection.num_confs()
    );
    for conf in &selection.confs {
        println!(
            "  conf {}: {} ops, {} sites, {} LUTs at {} bits, saves ~{} cycles",
            conf.conf, conf.seq_len, conf.num_sites, conf.cost.luts, conf.width, conf.total_gain
        );
        for instr in &conf.canon.skeleton {
            println!("      {instr}");
        }
    }

    // Simulate baseline vs T1000, verifying bit-identical results.
    let program = session.program();
    let baseline = simulate(program, &FusionMap::new(), CpuConfig::baseline())?;
    let t1000 = simulate(program, &selection.fusion, CpuConfig::with_pfus(2))?;
    if t1000.sys != baseline.sys {
        return Err("fusion changed the program's results".into());
    }
    println!();
    println!(
        "baseline: {} cycles ({:.2} IPC)",
        baseline.timing.cycles, baseline.timing.base_ipc
    );
    println!(
        "T1000   : {} cycles ({:.2} IPC), {} PFU executions, {} reconfigurations",
        t1000.timing.cycles,
        t1000.timing.base_ipc,
        t1000.timing.pfu.ext_executed,
        t1000.timing.pfu.reconfigurations
    );
    println!("speedup : {:.2}x", t1000.speedup_over(&baseline));
    println!(
        "checksum: 0x{:016x} (identical in both runs)",
        t1000.sys.checksum
    );
    Ok(())
}
