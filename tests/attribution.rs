//! Integration tests for the observability layer: cycle attribution must
//! partition every run exactly, expose the paper's greedy-vs-selective
//! reconfiguration mechanism, and survive the JSON artifact round trip.

use t1000_bench::engine::execute;
use t1000_bench::json::Json;
use t1000_bench::plan::{Cell, MachineSpec, Plan, SelectionSpec};
use t1000_bench::results::{to_json, validate_artifact};
use t1000_bench::runstats::{attr_json, validate_attribution};
use t1000_core::{SelectConfig, Session, StrategySpec};
use t1000_cpu::{simulate_with, AttrCollector, CpuConfig, StallCause};
use t1000_isa::FusionMap;
use t1000_workloads::{all, Scale};

/// Replay gives an aggregate-only collector each segment's attribution as
/// one delta (`TraceSink::segment`) and walks the segment's cycles for a
/// per-PC one. On every kernel, baseline and selective(2) on 2 PFUs with
/// a 10-cycle reload, both sum to what the accurate path classifies cycle
/// by cycle, and the per-PC counters agree too.
#[test]
fn segment_deltas_and_the_class_walk_match_the_accurate_path() {
    for w in all(Scale::Test) {
        let session = Session::new(w.program().unwrap()).unwrap();
        let sel = session.select_shared(&StrategySpec::selective(&SelectConfig {
            pfus: Some(2),
            gain_threshold: 0.005,
            reload_weight: 0.0,
        }));
        let cells = [
            ("baseline", FusionMap::new(), CpuConfig::baseline()),
            (
                "selective(2) 2/10",
                sel.fusion.clone(),
                CpuConfig::with_pfus(2).reconfig(10),
            ),
        ];
        for (label, fusion, cfg) in cells {
            let ctx = format!("{} {label}", w.name);
            let run = |fast_path: bool, mut sink: AttrCollector| {
                let r = simulate_with(
                    session.program(),
                    &fusion,
                    CpuConfig { fast_path, ..cfg },
                    &mut sink,
                )
                .unwrap_or_else(|e| panic!("{ctx}: {e}"));
                (r.timing, sink)
            };
            let (fast, delta) = run(true, AttrCollector::new());
            let (_, walk) = run(true, AttrCollector::with_per_pc());
            let (_, slow) = run(false, AttrCollector::with_per_pc());
            assert!(fast.fast.replayed_iters > 0, "{ctx}: {:?}", fast.fast);
            assert_eq!(delta.attr, slow.attr, "{ctx}: segment deltas");
            assert_eq!(walk.attr, slow.attr, "{ctx}: class walk");
            assert_eq!(walk.per_pc(), slow.per_pc(), "{ctx}: per-PC stalls");
        }
    }
}

/// The accounting invariant holds on every kernel, for the baseline and
/// a fused machine alike: `busy + Σ stalls == total cycles`, with
/// commit-bound a subset of busy.
#[test]
fn attribution_partitions_every_kernel_exactly() {
    for w in all(Scale::Test) {
        let session = Session::new(w.program().unwrap()).unwrap();

        let mut sink = AttrCollector::new();
        let base = simulate_with(
            session.program(),
            &FusionMap::new(),
            CpuConfig::baseline(),
            &mut sink,
        )
        .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        assert_eq!(
            sink.attr.total_cycles, base.timing.cycles,
            "{}: every cycle must be classified",
            w.name
        );
        assert!(
            sink.attr.checks_out(),
            "{}: busy {} + stalls {} != total {}",
            w.name,
            sink.attr.busy_cycles,
            sink.attr.stall_cycles(),
            sink.attr.total_cycles
        );

        let sel = session.select_shared(&StrategySpec::selective(&SelectConfig {
            pfus: Some(2),
            gain_threshold: 0.005,
            reload_weight: 0.0,
        }));
        let mut fused_sink = AttrCollector::new();
        let fused = simulate_with(
            session.program(),
            &sel.fusion,
            CpuConfig::with_pfus(2).reconfig(10),
            &mut fused_sink,
        )
        .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        assert_eq!(
            fused_sink.attr.total_cycles, fused.timing.cycles,
            "{}",
            w.name
        );
        assert!(fused_sink.attr.checks_out(), "{}", w.name);
        assert_eq!(
            fused.sys, base.sys,
            "{}: observation must not change semantics",
            w.name
        );
    }
}

/// The paper's §5.2 mechanism, now visible in the attribution itself:
/// greedy selections over-subscribe 2 PFUs and thrash, so they spend
/// strictly more cycles stalled on reconfiguration than the selective
/// algorithm, summed over the suite (and never less on any one kernel).
#[test]
fn greedy_pays_more_reconfiguration_stalls_than_selective() {
    let mut greedy_total = 0u64;
    let mut selective_total = 0u64;
    for w in all(Scale::Test) {
        let session = Session::new(w.program().unwrap()).unwrap();
        let cpu = CpuConfig::with_pfus(2).reconfig(10);

        let greedy = session.select_shared(&StrategySpec::Greedy);
        let mut g_sink = AttrCollector::new();
        simulate_with(session.program(), &greedy.fusion, cpu, &mut g_sink)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));

        let selective = session.select_shared(&StrategySpec::selective(&SelectConfig {
            pfus: Some(2),
            gain_threshold: 0.005,
            reload_weight: 0.0,
        }));
        let mut s_sink = AttrCollector::new();
        simulate_with(session.program(), &selective.fusion, cpu, &mut s_sink)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));

        let g = g_sink.attr.stall(StallCause::Reconfig);
        let s = s_sink.attr.stall(StallCause::Reconfig);
        assert!(
            g >= s,
            "{}: greedy reconfig stalls {g} < selective {s}",
            w.name
        );
        greedy_total += g;
        selective_total += s;
    }
    assert!(
        greedy_total > selective_total,
        "greedy must thrash strictly more over the suite \
         (greedy {greedy_total} vs selective {selective_total})"
    );
}

/// Schema-v2 artifacts carry a validated attribution per cell; the
/// validator enforces the closed taxonomy and the exact cycle partition.
#[test]
fn schema_v2_artifact_attribution_round_trips() {
    let mut plan = Plan::new();
    for spec in [SelectionSpec::Greedy, SelectionSpec::selective_std(Some(2))] {
        plan.push(Cell::new("g721_enc", spec, MachineSpec::with_pfus(2, 10)));
    }
    let run = execute(&plan, Scale::Test);
    for cell in &run.cells {
        assert!(cell.attr.checks_out());
        assert_eq!(cell.attr.total_cycles, cell.cycles);
        validate_attribution(&attr_json(&cell.attr), Some(cell.cycles)).unwrap();
    }
    let text = to_json(&run).to_string_pretty();
    validate_artifact(&text).expect("schema-v2 artifact must validate");

    // Dropping one stall key opens the taxonomy: the validator refuses.
    let doc = Json::parse(&text).unwrap();
    let probe = doc.get("cells").and_then(Json::as_array).unwrap()[0]
        .get("attribution")
        .and_then(|a| a.get("stalls"))
        .and_then(|s| s.get("reconfig"))
        .and_then(Json::as_u64)
        .expect("reconfig key present in canonical order");
    let bad = text.replacen(&format!("\"reconfig\": {probe},"), "", 1);
    assert!(
        bad != text && validate_artifact(&bad).is_err(),
        "an open taxonomy must be rejected"
    );
}
