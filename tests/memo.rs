//! Adversarial differential tests for the pipeline-memo fast path
//! (docs/FASTPATH.md). Each case runs one program with the fast path on
//! and off and requires identical timing statistics and cycle
//! attribution. The programs aim at what the memo leaves out of its key
//! — memory addresses, branch directions, PFU residency — and at the
//! places where replay hands back to the accurate path: the cycle limit,
//! the end of the stream and a mid-run configuration fault. Each case
//! also checks that replay covered most of its cycles, so agreement is
//! never vacuous.
//!
//! The table-cap case (clears under a shrunken budget) needs a test-only
//! seam and lives with the implementation in
//! `crates/cpu/src/ooo/fast_path.rs`.

use t1000_bench::engine::execute;
use t1000_bench::plan::{Cell, MachineSpec, Plan, SelectionSpec};
use t1000_core::{SelectConfig, Session, StrategySpec};
use t1000_cpu::{
    simulate_with_faults, AttrCollector, BranchModel, CpuConfig, CycleAttribution, ExecError,
    FuncCore, OooCore, TimingStats,
};
use t1000_isa::{ConfDef, FusedSite, FusionMap, Reg};
use t1000_workloads::Scale;

/// Every field of `TimingStats` except the fast-path counters.
fn assert_same(fast: &TimingStats, slow: &TimingStats, ctx: &str) {
    assert_eq!(fast.cycles, slow.cycles, "{ctx}: cycles");
    assert_eq!(fast.slots, slow.slots, "{ctx}: slots");
    assert_eq!(
        fast.base_instructions, slow.base_instructions,
        "{ctx}: base_instructions"
    );
    assert_eq!(fast.pfu, slow.pfu, "{ctx}: pfu stats");
    assert_eq!(fast.mem, slow.mem, "{ctx}: mem stats");
    assert_eq!(
        fast.fetch_stall_cycles, slow.fetch_stall_cycles,
        "{ctx}: fetch_stall_cycles"
    );
    assert_eq!(fast.branch, slow.branch, "{ctx}: branch stats");
    assert_eq!(
        slow.fast,
        Default::default(),
        "{ctx}: disabled path engaged"
    );
    assert_eq!(fast.fast.steady_loops, fast.fast.deopts, "{ctx}: entries");
}

/// Requires replay to have covered at least `share` of the run's cycles.
fn assert_covered(t: &TimingStats, share: f64, ctx: &str) {
    let got = t.fast.replayed_cycles as f64 / t.cycles as f64;
    assert!(
        got >= share,
        "{ctx}: replay covered {got:.3} of {} cycles, want {share}: {:?}",
        t.cycles,
        t.fast
    );
}

/// Runs `fusion` on `session`'s program with the fast path on and off,
/// asserts identical results, and returns the fast run's statistics.
fn both_ways(
    session: &Session,
    fusion: &FusionMap,
    cfg: CpuConfig,
    faulted: &[u16],
    ctx: &str,
) -> TimingStats {
    let run = |fast_path: bool| {
        let mut sink = AttrCollector::new();
        let r = simulate_with_faults(
            session.program(),
            fusion,
            CpuConfig { fast_path, ..cfg },
            faulted,
            &mut sink,
        )
        .unwrap_or_else(|e| panic!("{ctx}: {e:?}"));
        (r, sink.attr)
    };
    let (fast, fast_attr) = run(true);
    let (slow, slow_attr) = run(false);
    assert_same(&fast.timing, &slow.timing, ctx);
    assert_eq!(fast.sys, slow.sys, "{ctx}: architectural results");
    assert!(fast_attr.checks_out(), "{ctx}: attribution");
    assert_eq!(fast_attr, slow_attr, "{ctx}: cycle attribution");
    fast.timing
}

fn session(src: &str) -> Session {
    Session::from_asm(src).expect("test program assembles")
}

/// A loop that walks a 64 KiB array one word at a time, twice: a new
/// D-line every 8 iterations, misses to L2 on the first pass and to L1
/// on the second.
const ARRAY_WALK: &str = "main:
    li $s1, 2
outer:
    la $t0, buf
    li $t1, 16384
walk:
    lw $t2, 0($t0)
    addu $t3, $t3, $t2
    addiu $t2, $t2, 7
    sw $t2, 0($t0)
    addiu $t0, $t0, 4
    addiu $t1, $t1, -1
    bgtz $t1, walk
    addiu $s1, $s1, -1
    bgtz $s1, outer
    move $a0, $t3
    li $v0, 30
    syscall
    li $v0, 10
    syscall
.data
buf: .space 65536
";

#[test]
fn array_walk_crossing_d_lines() {
    let s = session(ARRAY_WALK);
    let t = both_ways(
        &s,
        &FusionMap::new(),
        CpuConfig::baseline(),
        &[],
        "array walk",
    );
    assert!(t.mem.dl1.misses > 1000, "{:?}", t.mem.dl1);
    assert_covered(&t, 0.9, "array walk");
}

/// An LCG picks one of four paths per iteration, and each path stores to
/// a different table: the records' branch directions and addresses are
/// data-dependent.
const LCG_BRANCHES: &str = "main:
    li $s0, 3000
    li $t0, 12345
    li $s2, 1103515245
    la $s3, tab
loop:
    mult $t0, $s2
    mflo $t0
    addiu $t0, $t0, 12345
    srl $t1, $t0, 16
    andi $t2, $t1, 1
    beq $t2, $zero, even
    andi $t3, $t1, 2
    beq $t3, $zero, odd_low
    addiu $t4, $t4, 3
    sw $t4, 0($s3)
    j next
odd_low:
    addiu $t4, $t4, 5
    sw $t4, 64($s3)
    j next
even:
    andi $t3, $t1, 4
    bne $t3, $zero, even_high
    xor $t4, $t4, $t1
    sw $t4, 128($s3)
    j next
even_high:
    subu $t4, $t4, $t1
    andi $t5, $t1, 1020
    addu $t5, $t5, $s3
    sw $t4, 256($t5)
next:
    addiu $s0, $s0, -1
    bgtz $s0, loop
    move $a0, $t4
    li $v0, 30
    syscall
    li $v0, 10
    syscall
.data
tab: .space 2048
";

#[test]
fn lcg_driven_data_dependent_branches() {
    let s = session(LCG_BRANCHES);
    let t = both_ways(&s, &FusionMap::new(), CpuConfig::baseline(), &[], "lcg");
    assert_covered(&t, 0.8, "lcg");
}

#[test]
fn bimodal_and_gshare_predictors() {
    let s = session(LCG_BRANCHES);
    for (label, branch) in [
        (
            "bimodal",
            BranchModel::Bimodal {
                entries: 1024,
                penalty: 6,
            },
        ),
        (
            "gshare",
            BranchModel::Gshare {
                entries: 4096,
                penalty: 6,
            },
        ),
    ] {
        let cfg = CpuConfig {
            branch,
            ..CpuConfig::baseline()
        };
        let t = both_ways(&s, &FusionMap::new(), cfg, &[], label);
        assert!(t.branch.mispredictions > 500, "{label}: {:?}", t.branch);
        assert_covered(&t, 0.7, label);
    }
}

#[test]
fn aliasing_store_to_load() {
    // The load reads the word the store just wrote on odd iterations and
    // a word one line away on even ones.
    let src = "main:
    li $s0, 4000
    la $s1, buf
loop:
    andi $t0, $s0, 1
    sll $t0, $t0, 5
    addu $t1, $s1, $t0
    sw $s0, 32($s1)
    lw $t2, 0($t1)
    addu $t3, $t3, $t2
    lw $t4, 32($s1)
    addu $t3, $t3, $t4
    addiu $s0, $s0, -1
    bgtz $s0, loop
    move $a0, $t3
    li $v0, 30
    syscall
    li $v0, 10
    syscall
.data
buf: .space 128
";
    let s = session(src);
    let t = both_ways(&s, &FusionMap::new(), CpuConfig::baseline(), &[], "alias");
    assert_covered(&t, 0.9, "alias");
}

/// Two fusable chains per iteration: on one PFU the two configurations
/// evict each other every time.
const TWO_CHAINS: &str = "main:
    li $s0, 3000
    li $t0, 3
    li $t1, 5
loop:
    sll $t2, $t0, 4
    addu $t2, $t2, $t1
    xor $t2, $t2, $t0
    andi $t2, $t2, 1023
    srl $t3, $t1, 2
    subu $t3, $t3, $t0
    or $t3, $t3, $t1
    andi $t3, $t3, 511
    addu $t1, $t2, $t3
    andi $t1, $t1, 2047
    addiu $s0, $s0, -1
    bgtz $s0, loop
    move $a0, $t1
    li $v0, 30
    syscall
    li $v0, 10
    syscall
";

#[test]
fn one_pfu_alternating_two_configurations() {
    let s = session(TWO_CHAINS);
    let sel = s.select_shared(&StrategySpec::Greedy);
    let t = both_ways(
        &s,
        &sel.fusion,
        CpuConfig::with_pfus(1).reconfig(10),
        &[],
        "1 pfu",
    );
    assert!(t.pfu.reconfigurations > 4000, "{:?}", t.pfu);
    assert_covered(&t, 0.9, "1 pfu");
}

#[test]
fn unlimited_pfus_with_zero_cycle_reload() {
    let s = session(TWO_CHAINS);
    let sel = s.select_shared(&StrategySpec::Greedy);
    let t = both_ways(
        &s,
        &sel.fusion,
        CpuConfig::unlimited_pfus().reconfig(0),
        &[],
        "unlimited/0",
    );
    assert!(t.pfu.ext_executed > 4000, "{:?}", t.pfu);
    assert_covered(&t, 0.9, "unlimited/0");
}

#[test]
fn two_planes_with_two_deep_prefetch() {
    let s = session(TWO_CHAINS);
    let sel = s.select_shared(&StrategySpec::Greedy);
    let cfg = CpuConfig {
        pfu_planes: 2,
        pfu_prefetch: 2,
        ..CpuConfig::with_pfus(1).reconfig(100)
    };
    let t = both_ways(&s, &sel.fusion, cfg, &[], "planes 2, prefetch 2");
    assert!(t.pfu.prefetch_hits > 0, "{:?}", t.pfu);
    assert_covered(&t, 0.9, "planes 2, prefetch 2");
}

#[test]
fn rare_configurations_depend_on_long_history() {
    // Every iteration runs the common chain; one in eight runs chain X
    // and one in eight chain Z. On two PFUs, X and Z evict each other,
    // so whether Z's configuration is resident depends on which rare
    // path ran last — often further back than the window reaches.
    let src = "main:
    li $s0, 4000
    li $t0, 12345
    li $s2, 1103515245
loop:
    mult $t0, $s2
    mflo $t0
    addiu $t0, $t0, 12345
    srl $t1, $t0, 16
common:
    sll $t2, $t1, 3
    addu $t2, $t2, $t1
    xor $t2, $t2, $t0
    andi $t2, $t2, 1023
    andi $t3, $t1, 7
    beq $t3, $zero, pathx
    addiu $t4, $t3, -1
    beq $t4, $zero, pathz
    j next
pathx:
    srl $t5, $t1, 2
    subu $t5, $t5, $t2
    or $t5, $t5, $t1
    andi $t5, $t5, 511
    addu $t6, $t6, $t5
    j next
pathz:
    sll $t5, $t2, 1
    xor $t5, $t5, $t1
    nor $t5, $t5, $t2
    andi $t5, $t5, 255
    addu $t7, $t7, $t5
next:
    addiu $s0, $s0, -1
    bgtz $s0, loop
    addu $a0, $t6, $t7
    li $v0, 30
    syscall
    li $v0, 10
    syscall
";
    let s = session(src);
    let p = s.program();
    // The three 4-op chains, fused by hand: (label, inputs, output).
    let mut fusion = FusionMap::new();
    for (conf, (label, inputs, output)) in [
        ("common", ["t1", "t0"], "t2"),
        ("pathx", ["t1", "t2"], "t5"),
        ("pathz", ["t2", "t1"], "t5"),
    ]
    .into_iter()
    .enumerate()
    {
        let pc = p.symbol(label).unwrap();
        let skeleton = (0..4).map(|k| p.instr_at(pc + 4 * k).unwrap()).collect();
        fusion.define(ConfDef {
            conf: conf as u16,
            skeleton,
            base_cycles: 4,
            pfu_latency: 1,
        });
        fusion.add_site(FusedSite {
            pc,
            len: 4,
            conf: conf as u16,
            inputs: inputs.iter().map(|r| Reg::parse(r).unwrap()).collect(),
            output: Reg::parse(output).unwrap(),
        });
    }
    for reload in [10, 100] {
        let ctx = format!("rare confs, reload {reload}");
        let t = both_ways(
            &s,
            &fusion,
            CpuConfig::with_pfus(2).reconfig(reload),
            &[],
            &ctx,
        );
        assert!(t.pfu.reconfigurations > 200, "{ctx}: {:?}", t.pfu);
        assert_covered(&t, 0.5, &ctx);
    }
}

/// Runs `cfg` over the program with a custom record source built by
/// `wrap`, which may cut the stream short or inject faults.
fn run_source(
    session: &Session,
    fusion: &FusionMap,
    cfg: CpuConfig,
    wrap: &dyn Fn(&mut FuncCore<'_>, u64) -> bool,
) -> (Result<TimingStats, ExecError>, CycleAttribution) {
    let mut core = FuncCore::new(session.program(), fusion);
    let mut sink = AttrCollector::new();
    let mut pulled = 0u64;
    let r = OooCore::new(cfg).run_with(
        || {
            if !wrap(&mut core, pulled) {
                return Ok(None);
            }
            pulled += 1;
            core.step()
        },
        &mut sink,
    );
    (r, sink.attr)
}

#[test]
fn cycle_limit_landing_mid_replay() {
    let s = session(TWO_CHAINS);
    let sel = s.select_shared(&StrategySpec::Greedy);
    let cfg = CpuConfig::with_pfus(1).reconfig(10);
    let (full, _) = run_source(&s, &sel.fusion, cfg, &|_, _| true);
    let full = full.unwrap();
    assert_covered(&full, 0.9, "unlimited fuel");
    // Limits at every offset of a few segments deep in the loop.
    let mid = full.cycles / 2;
    for limit in mid..mid + 40 {
        let limited = |fast_path: bool| {
            let cfg = CpuConfig {
                fast_path,
                max_cycles: limit,
                ..cfg
            };
            run_source(&s, &sel.fusion, cfg, &|_, _| true)
        };
        let (fast, fast_attr) = limited(true);
        let (slow, slow_attr) = limited(false);
        assert_eq!(fast.unwrap_err(), ExecError::CycleLimit(limit));
        assert_eq!(slow.unwrap_err(), ExecError::CycleLimit(limit));
        assert_eq!(fast_attr, slow_attr, "limit {limit}: attribution");
        assert_eq!(fast_attr.total_cycles, limit);
    }
}

#[test]
fn stream_ending_mid_segment() {
    let s = session(LCG_BRANCHES);
    let fusion = FusionMap::new();
    // Cut the record stream at every point of a few segments deep in the
    // loop: replay must hand the partial segment back intact.
    for cut in 20_000..20_040u64 {
        let run = |fast_path: bool| {
            let cfg = CpuConfig {
                fast_path,
                ..CpuConfig::baseline()
            };
            run_source(&s, &fusion, cfg, &|_, pulled| pulled < cut)
        };
        let (fast, fast_attr) = run(true);
        let (slow, slow_attr) = run(false);
        let (fast, slow) = (fast.unwrap(), slow.unwrap());
        let ctx = format!("cut at {cut}");
        assert_same(&fast, &slow, &ctx);
        assert_eq!(fast_attr, slow_attr, "{ctx}: attribution");
        assert_covered(&fast, 0.7, &ctx);
    }
}

#[test]
fn pfu_fault_injected_mid_replay() {
    let s = session(TWO_CHAINS);
    let sel = s.select_shared(&StrategySpec::Greedy);
    let confs: Vec<u16> = sel.fusion.defs().map(|d| d.conf).collect();
    assert!(!confs.is_empty());
    for cfg in [
        CpuConfig::with_pfus(2).reconfig(10),
        CpuConfig::with_pfus(1).reconfig(10),
    ] {
        // Fault one configuration deep in the steady state: every later
        // visit of its site falls back to scalar code.
        let run = |fast_path: bool| {
            let injected = std::cell::Cell::new(false);
            let inject = |core: &mut FuncCore<'_>, _: u64| {
                if !injected.get() && core.icount >= 20_000 {
                    injected.set(true);
                    core.inject_conf_faults([confs[0]]);
                }
                true
            };
            run_source(&s, &sel.fusion, CpuConfig { fast_path, ..cfg }, &inject)
        };
        let (fast, fast_attr) = run(true);
        let (slow, slow_attr) = run(false);
        let (fast, slow) = (fast.unwrap(), slow.unwrap());
        assert_same(&fast, &slow, "fault");
        assert_eq!(fast_attr, slow_attr, "fault: attribution");
        assert!(fast.fast.deopts >= 2, "{:?}", fast.fast);
        assert_covered(&fast, 0.9, "fault");
    }
}

#[test]
fn gsm_dec_and_g721_enc_selective_cells_mostly_replay() {
    let mut plan = Plan::new();
    for w in ["gsm_dec", "g721_enc"] {
        plan.push(Cell::new(
            w,
            SelectionSpec::selective_std(Some(2)),
            MachineSpec::with_pfus(2, 10),
        ));
    }
    let run = execute(&plan, Scale::Test);
    let mut seen = 0;
    for c in &run.cells {
        if c.cell.selection != SelectionSpec::selective_std(Some(2)) {
            continue;
        }
        seen += 1;
        let share = c.fast.replayed_cycles as f64 / c.cycles as f64;
        assert!(
            share >= 0.9,
            "{}: replay covered {share:.3} of {} cycles ({:?})",
            c.cell.workload,
            c.cycles,
            c.fast
        );
    }
    assert_eq!(seen, 2);
}

#[test]
fn memo_agrees_with_the_accurate_path_on_selected_kernels() {
    // The selector's own choice on the data-dependent kernel: fused
    // sites inside branchy code.
    let s = session(LCG_BRANCHES);
    let sel = s.select_shared(&StrategySpec::selective(&SelectConfig {
        pfus: Some(2),
        gain_threshold: 0.001,
        reload_weight: 0.0,
    }));
    let t = both_ways(
        &s,
        &sel.fusion,
        CpuConfig::with_pfus(2).reconfig(10),
        &[],
        "lcg selective",
    );
    assert_covered(&t, 0.7, "lcg selective");
}
