//! The config-plane model's correctness envelope (schema v6).
//!
//! The reconfiguration-hiding machinery — double-buffered configuration
//! planes, next-config prefetch, compressed per-configuration reload
//! latencies — is a *timing* feature: whatever the knobs, architectural
//! results must be bit-identical to the blocking-load machine, the cycle
//! attribution must still partition every cycle, and the replay fast
//! path must agree with the slow path. A golden check pins the legacy
//! knobs (`--pfu-planes 1 --pfu-prefetch 0`, flat latency) to exactly
//! the pre-refactor measurements: same cycles, same stall taxonomy, and
//! every new counter (except the stream-size tally) zero.

use proptest::prelude::*;
use t1000_bench::engine::{execute_with, EngineConfig};
use t1000_bench::plan::{named_plan, SelectionSpec};
use t1000_bench::results::{to_json, validate_artifact};
use t1000_core::{SelectConfig, Session};
use t1000_cpu::{AttrCollector, CpuConfig};
use t1000_workloads::{all, Scale};

/// A small two-loop kernel with enough distinct fusable chains that a
/// 1-PFU machine thrashes between configurations — the regime where
/// prefetch and double-buffering actually engage.
const THRASH_KERNEL: &str = "main:
    li $s0, 60
    li $t0, 3
    li $t1, 5
    li $t2, 7
loop:
    sll $t3, $t0, 2
    addu $t3, $t3, $t1
    xor $t3, $t3, $t2
    andi $t3, $t3, 1023
    srl $t4, $t1, 1
    subu $t4, $t4, $t0
    or $t4, $t4, $t2
    andi $t4, $t4, 1023
    addu $t0, $t3, $t4
    andi $t0, $t0, 2047
    addiu $s0, $s0, -1
    bgtz $s0, loop
    move $a0, $t0
    li $v0, 30
    syscall
    li $a0, 0
    li $v0, 10
    syscall
";

fn fused_cfg(pfus: usize, planes: u32, prefetch: u32, compress: f64) -> CpuConfig {
    let mut cfg = CpuConfig::with_pfus(pfus).reconfig(10);
    cfg.pfu_planes = planes;
    cfg.pfu_prefetch = prefetch;
    cfg.conf_compress = compress;
    cfg
}

/// The `reload` plan (`t1000 bench --plan reload`): its artifact validates
/// and the config planes hide reload traffic. Greedy reloads the most, so
/// its prefetch-enabled cells are the witness that the model is not inert.
#[test]
fn reload_plan_validates_and_greedy_prefetch_hides_reload_cycles() {
    let reload = named_plan("reload").expect("reload plan");
    let run = execute_with(
        &reload.plan(),
        Scale::Test,
        &EngineConfig {
            deterministic: true,
            ..EngineConfig::default()
        },
    );
    let summary = validate_artifact(&to_json(&run).to_string_pretty()).expect("valid artifact");
    assert_eq!(summary.failed_cells, 0, "{:?}", run.failures);
    let greedy_hidden: u64 = run
        .cells
        .iter()
        .filter(|c| c.cell.selection == SelectionSpec::Greedy && c.cell.machine.pfu_prefetch > 0)
        .map(|c| c.pfu_hidden_reload_cycles)
        .sum();
    assert!(
        greedy_hidden > 0,
        "prefetch-enabled greedy cells hid no reload cycles: the config-plane model is inert"
    );
}

/// Golden: the default knobs reproduce the pre-refactor blocking-load
/// machine on every workload — identical cycles, reconfiguration counts
/// and stall attribution, with all hiding counters pinned to zero.
#[test]
fn default_knobs_reproduce_the_legacy_machine() {
    for w in all(Scale::Test) {
        let session = Session::new(w.program().unwrap()).unwrap();
        let sel = session.selective(&SelectConfig {
            pfus: Some(2),
            gain_threshold: 0.005,
            reload_weight: 0.0,
        });

        let mut legacy_sink = AttrCollector::new();
        let legacy = session
            .run_with_observed(&sel, CpuConfig::with_pfus(2).reconfig(10), &mut legacy_sink)
            .unwrap();
        // Spelling the defaults out explicitly must be a no-op.
        let mut explicit_sink = AttrCollector::new();
        let explicit = session
            .run_with_observed(&sel, fused_cfg(2, 1, 0, 0.0), &mut explicit_sink)
            .unwrap();

        assert_eq!(legacy.sys, explicit.sys, "{}", w.name);
        assert_eq!(legacy.timing.cycles, explicit.timing.cycles, "{}", w.name);
        assert_eq!(
            legacy.timing.pfu.reconfigurations, explicit.timing.pfu.reconfigurations,
            "{}",
            w.name
        );
        assert_eq!(
            legacy_sink.attr, explicit_sink.attr,
            "{}: stall taxonomy drifted under default knobs",
            w.name
        );
        for (label, s) in [
            ("legacy", &legacy.timing.pfu),
            ("explicit", &explicit.timing.pfu),
        ] {
            assert_eq!(s.prefetch_hits, 0, "{}: {label}", w.name);
            assert_eq!(s.hidden_reload_cycles, 0, "{}: {label}", w.name);
        }
    }
}

/// With hiding enabled the timing improves (or holds) but architecture
/// and accounting are untouched — checked on every test-scale workload
/// at the acceptance point (2 planes, depth-2 prefetch).
#[test]
fn prefetch_and_double_buffering_preserve_architecture_on_all_workloads() {
    for w in all(Scale::Test) {
        let session = Session::new(w.program().unwrap()).unwrap();
        let sel = session.greedy();
        let base = session.run_baseline(CpuConfig::baseline()).unwrap();

        let mut sink = AttrCollector::new();
        let run = session
            .run_with_observed(&sel, fused_cfg(2, 2, 2, 0.0), &mut sink)
            .unwrap();
        assert_eq!(run.sys, base.sys, "{}: hiding changed results", w.name);
        assert_eq!(sink.attr.total_cycles, run.timing.cycles, "{}", w.name);
        assert!(sink.attr.checks_out(), "{}: partition broke", w.name);
        // The hidden/exposed split is an attribution of reload traffic,
        // not a new cost: a machine that never reconfigured has nothing
        // to attribute.
        let s = &run.timing.pfu;
        if s.reconfigurations == 0 {
            assert_eq!(
                s.hidden_reload_cycles + s.exposed_reload_cycles,
                0,
                "{}",
                w.name
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Random knob points on the thrashing kernel: architectural results
    // never move, the cycle partition always closes, and the replay
    // fast path stays bit-identical to the slow path — prefetch
    // in-flight state included.
    #[test]
    fn knob_space_preserves_architecture_accounting_and_fast_path(
        pfus in 1usize..3,
        planes in 1u32..3,
        prefetch in 0u32..4,
        compress in prop::sample::select(vec![0.0f64, 0.25, 1.0, 2.0]),
    ) {
        let session = Session::from_asm(THRASH_KERNEL).unwrap();
        let base = session.run_baseline(CpuConfig::baseline()).unwrap();
        let sel = session.greedy();

        let mut cfg = fused_cfg(pfus, planes, prefetch, compress);
        let mut sink = AttrCollector::new();
        let fast = session.run_with_observed(&sel, cfg, &mut sink).unwrap();
        prop_assert_eq!(&fast.sys, &base.sys, "knobs changed architectural results");
        prop_assert_eq!(sink.attr.total_cycles, fast.timing.cycles);
        prop_assert!(
            sink.attr.checks_out(),
            "busy {} + stalls {} != total {}",
            sink.attr.busy_cycles, sink.attr.stall_cycles(), sink.attr.total_cycles
        );

        cfg.fast_path = false;
        let slow = session.run_with(&sel, cfg).unwrap();
        prop_assert_eq!(&slow.sys, &fast.sys);
        prop_assert_eq!(slow.timing.cycles, fast.timing.cycles, "fast path diverged");
        prop_assert_eq!(
            slow.timing.pfu.exposed_reload_cycles,
            fast.timing.pfu.exposed_reload_cycles
        );
        prop_assert_eq!(slow.timing.pfu.prefetch_hits, fast.timing.pfu.prefetch_hits);
        prop_assert_eq!(
            slow.timing.pfu.hidden_reload_cycles,
            fast.timing.pfu.hidden_reload_cycles
        );
        prop_assert_eq!(slow.timing.pfu.stream_words, fast.timing.pfu.stream_words);

        // Single plane without prefetch is the legacy machine: nothing
        // may be hidden.
        if planes == 1 && prefetch == 0 {
            prop_assert_eq!(fast.timing.pfu.hidden_reload_cycles, 0);
            prop_assert_eq!(fast.timing.pfu.prefetch_hits, 0);
        }
    }
}
