//! The segment-at-a-time pull of the replay fast path
//! (docs/FASTPATH.md, "The record hand-off") against record sources of
//! every batch size. Replay scans a source's current batch for the end of
//! a segment and pulls it whole, so a segment may start in one batch and
//! end several batches later, and an error may arrive with the batch that
//! holds the segment's first records. Each case runs one program from a
//! source that hands out 1, 7 or 256 records per call, with the fast path
//! on and off, and requires identical timing statistics, cycle
//! attribution and errors.

use t1000_core::{Session, StrategySpec};
use t1000_cpu::{
    AttrCollector, CpuConfig, CycleAttribution, DynInstr, ExecError, FuncCore, OooCore,
    RecordSource, StepValues, TimingStats,
};
use t1000_isa::FusionMap;

/// A functional core that fills at most `n` records per call.
struct Batches<'a> {
    core: FuncCore<'a>,
    n: usize,
}

impl RecordSource for Batches<'_> {
    type Error = ExecError;

    fn fill(&mut self, buf: &mut Vec<DynInstr>) -> Result<(), ExecError> {
        self.core
            .run(buf, self.n, &mut |_: &DynInstr, _: StepValues| {})
    }
}

/// Runs `fusion` on `session`'s program from batches of `n` records, the
/// core limited to `limit` instructions (0: no limit).
fn run(
    session: &Session,
    fusion: &FusionMap,
    cfg: CpuConfig,
    n: usize,
    limit: u64,
) -> (Result<TimingStats, ExecError>, CycleAttribution) {
    let mut core = FuncCore::new(session.program(), fusion);
    core.limit_instructions(limit);
    let mut sink = AttrCollector::new();
    let r = OooCore::new(cfg).run_with(Batches { core, n }, &mut sink);
    (r, sink.attr)
}

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
    assert_eq!(fast.fast.steady_loops, fast.fast.deopts, "{ctx}: entries");
}

/// Runs the program both ways from each batch size; returns the fast
/// runs' statistics.
fn both_ways(session: &Session, fusion: &FusionMap, cfg: CpuConfig, ctx: &str) -> Vec<TimingStats> {
    let mut fast_runs = Vec::new();
    for n in [1, 7, 256] {
        let ctx = format!("{ctx}, batches of {n}");
        let (fast, fast_attr) = run(
            session,
            fusion,
            CpuConfig {
                fast_path: true,
                ..cfg
            },
            n,
            0,
        );
        let (slow, slow_attr) = run(
            session,
            fusion,
            CpuConfig {
                fast_path: false,
                ..cfg
            },
            n,
            0,
        );
        let (fast, slow) = (fast.unwrap(), slow.unwrap());
        assert_same(&fast, &slow, &ctx);
        assert_eq!(fast_attr, slow_attr, "{ctx}: attribution");
        assert!(fast_attr.checks_out(), "{ctx}");
        fast_runs.push(fast);
    }
    fast_runs
}

fn covered(t: &TimingStats) -> f64 {
    t.fast.replayed_cycles as f64 / t.cycles as f64
}

/// An LCG picks one of three paths per iteration; one of them loads and
/// stores at a data-dependent address.
const LCG: &str = "main:
    li $s0, 3000
    li $t0, 12345
    li $s2, 1103515245
    la $s3, buf
loop:
    mult $t0, $s2
    mflo $t0
    addiu $t0, $t0, 12345
    srl $t1, $t0, 16
    andi $t2, $t1, 3
    beq $t2, $zero, a
    andi $t3, $t1, 1020
    addu $t3, $t3, $s3
    lw $t4, 0($t3)
    addu $t5, $t5, $t4
    sw $t5, 0($t3)
    j next
a:
    xor $t5, $t5, $t1
next:
    addiu $s0, $s0, -1
    bgtz $s0, loop
    li $v0, 10
    syscall
.data
buf: .space 1024
";

#[test]
fn data_dependent_paths_from_every_batch_size() {
    let s = Session::from_asm(LCG).unwrap();
    for t in both_ways(&s, &FusionMap::new(), CpuConfig::baseline(), "lcg") {
        assert!(covered(&t) > 0.5, "{:?}", t.fast);
    }
}

/// Two fusable chains per iteration: on one PFU their configurations
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
    li $v0, 10
    syscall
";

#[test]
fn thrashing_pfu_from_every_batch_size() {
    let s = Session::from_asm(TWO_CHAINS).unwrap();
    let sel = s.select_shared(&StrategySpec::Greedy);
    let cfg = CpuConfig::with_pfus(1).reconfig(10);
    for t in both_ways(&s, &sel.fusion, cfg, "1 pfu") {
        assert!(t.pfu.reconfigurations > 4000, "{:?}", t.pfu);
        assert!(covered(&t) > 0.9, "{:?}", t.fast);
    }
}

#[test]
fn a_segment_longer_than_the_memo_holds() {
    // Each outer iteration runs 1,100 straight-line instructions, more
    // than a memoized segment may hold, then a short inner loop that
    // replays. Replay pulls the straight run while looking for the end
    // of a segment, gives up past the bound and hands what it pulled to
    // fetch.
    let straight: String = (0..1100)
        .map(|k| match k % 4 {
            0 => "    addiu $t2, $t2, 3\n",
            1 => "    lw $t3, 0($s1)\n",
            2 => "    xor $t4, $t4, $t2\n",
            _ => "    sw $t4, 4($s1)\n",
        })
        .collect();
    let src = format!(
        "main:
    li $s0, 30
    la $s1, buf
outer:
{straight}    li $t0, 40
inner:
    addu $t5, $t5, $t0
    addiu $t0, $t0, -1
    bgtz $t0, inner
    addiu $s0, $s0, -1
    bgtz $s0, outer
    li $v0, 10
    syscall
.data
buf: .space 64
"
    );
    let s = Session::from_asm(&src).unwrap();
    for t in both_ways(&s, &FusionMap::new(), CpuConfig::baseline(), "long segment") {
        assert!(t.fast.replayed_iters > 0, "{:?}", t.fast);
        assert!(
            covered(&t) < 0.9,
            "the long segments were replayed: {:?}",
            t.fast
        );
    }
}

#[test]
fn an_error_in_a_batch_surfaces_where_fetch_meets_it() {
    // The core stops at its instruction budget and returns the error
    // after the records it already emitted, mid-segment: fetch must meet
    // it at the cycle it does with the fast path off, with the same
    // cycles classified before it.
    let s = Session::from_asm(LCG).unwrap();
    let fusion = FusionMap::new();
    for n in [1, 7, 256] {
        for limit in (20_000..20_050).step_by(7) {
            let ctx = format!("batches of {n}, limit {limit}");
            let cfg = |fast_path| CpuConfig {
                fast_path,
                ..CpuConfig::baseline()
            };
            let (fast, fast_attr) = run(&s, &fusion, cfg(true), n, limit);
            let (slow, slow_attr) = run(&s, &fusion, cfg(false), n, limit);
            assert_eq!(fast.unwrap_err(), ExecError::InstrLimit(limit), "{ctx}");
            assert_eq!(slow.unwrap_err(), ExecError::InstrLimit(limit), "{ctx}");
            assert_eq!(fast_attr, slow_attr, "{ctx}: attribution");
        }
    }
}
