//! Bring-your-own-kernel walkthrough: a saturating dot-product written in
//! T1000 assembly goes through the full pipeline — profile, greedy vs
//! selective selection, the subsequence matrix, hardware cost, and timing
//! on several machine configurations.
//!
//! ```text
//! cargo run --release -p t1000-core --example custom_kernel
//! ```

use t1000_core::{SelectConfig, Session, StrategySpec};
use t1000_cpu::{simulate, CpuConfig};
use t1000_isa::FusionMap;

/// Saturating fixed-point dot product over two LCG-generated vectors,
/// with a per-element clamp to ±2^14 and a final scale. The clamp and
/// scale chains are the PFU fodder; the multiply and the loads are not.
const KERNEL: &str = "
.data
xs: .space 8192
ys: .space 8192
.text
main:
    # generate the vectors
    li   $s7, 0xbeef
    li   $t8, 4096          # total halfwords (both vectors)
    la   $t9, xs
gen:
    li   $a2, 1103515245
    mult $s7, $a2
    mflo $s7
    addiu $s7, $s7, 12345
    srl  $t0, $s7, 16
    andi $t0, $t0, 0x3fff
    addiu $t0, $t0, -8192
    sh   $t0, 0($t9)
    addiu $t9, $t9, 2
    addiu $t8, $t8, -1
    bgtz $t8, gen
    # dot product with per-term saturation
    li   $s0, 2048          # elements
    la   $s1, xs
    la   $s2, ys
    li   $s3, 0             # accumulator
dot:
    lh   $t0, 0($s1)
    lh   $t1, 0($s2)
    addiu $s1, $s1, 2
    addiu $s2, $s2, 2
    mult $t0, $t1
    mflo $t2
    sra  $t2, $t2, 12       # Q12 product
    # saturate the term to [-16384, 16383]
    addiu $t3, $t2, 16384
    sra   $t4, $t3, 31
    nor   $t5, $t4, $zero
    and   $t6, $t2, $t5
    sll   $t7, $t4, 14
    or    $t2, $t6, $t7
    li    $t3, 16383
    subu  $t3, $t3, $t2
    sra   $t4, $t3, 31
    nor   $t5, $t4, $zero
    and   $t6, $t2, $t5
    andi  $t7, $t4, 16383
    or    $t2, $t6, $t7
    # accumulate with a 16-bit wrap
    addu  $s3, $s3, $t2
    andi  $s3, $s3, 0xffff
    addiu $s0, $s0, -1
    bgtz  $s0, dot
    move  $a0, $s3
    li    $v0, 30
    syscall
    li    $a0, 0
    li    $v0, 10
    syscall
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let session = Session::from_asm(KERNEL)?;

    // Greedy vs selective at 1 PFU: the greedy set is larger, the
    // selective set respects the budget.
    let greedy = session.select_shared(&StrategySpec::Greedy);
    println!(
        "greedy found {} distinct extended instruction(s)",
        greedy.num_confs()
    );

    let selective = session.select_shared(&StrategySpec::selective(&SelectConfig {
        pfus: Some(1),
        gain_threshold: 0.005,
        reload_weight: 0.0,
    }));
    println!("selective (1 PFU) kept {}:", selective.num_confs());
    for c in &selective.confs {
        println!(
            "  conf {} ({} ops, {} sites, {} LUTs, depth {}):",
            c.conf, c.seq_len, c.num_sites, c.cost.luts, c.cost.depth
        );
        for i in &c.canon.skeleton {
            println!("      {i}");
        }
    }
    for m in &selective.matrices {
        println!(
            "  subsequence matrix over {} forms (row sums = appearances):",
            m.k()
        );
        for i in 0..m.k() {
            println!("    row {i}: {:?} (total {})", m.m[i], m.appearances(i));
        }
    }

    // Timing across machines.
    let baseline = simulate(session.program(), &FusionMap::new(), CpuConfig::baseline())?;
    println!();
    println!("{:<28} {:>12} {:>9}", "machine", "cycles", "speedup");
    println!(
        "{:<28} {:>12} {:>9.3}",
        "baseline (no PFUs)", baseline.timing.cycles, 1.0
    );
    for (label, sel, cpu) in [
        (
            "T1000 1 PFU, selective",
            &selective,
            CpuConfig::with_pfus(1),
        ),
        ("T1000 2 PFUs, greedy", &greedy, CpuConfig::with_pfus(2)),
        (
            "T1000 unlimited, greedy",
            &greedy,
            CpuConfig::unlimited_pfus().reconfig(0),
        ),
    ] {
        let run = simulate(session.program(), &sel.fusion, cpu)?;
        assert_eq!(run.sys, baseline.sys, "fusion must preserve results");
        println!(
            "{label:<28} {:>12} {:>9.3}",
            run.timing.cycles,
            run.speedup_over(&baseline)
        );
    }
    Ok(())
}
