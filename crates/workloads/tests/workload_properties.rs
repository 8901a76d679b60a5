//! Cross-cutting workload tests: structural properties every benchmark
//! must satisfy for the paper's experiments to be meaningful.

use t1000_core::{Analysis, ExtractConfig, Session};
use t1000_cpu::{execute, simulate, CpuConfig};
use t1000_isa::FusionMap;
use t1000_workloads::{all, by_name, Scale, NAMES};

#[test]
fn every_benchmark_has_hot_loops() {
    for w in all(Scale::Test) {
        let p = w.program().unwrap();
        let a = Analysis::build(&p).unwrap();
        let doms = t1000_profile::Dominators::compute(&a.cfg);
        let loops = t1000_profile::natural_loops(&a.cfg, &doms);
        assert!(!loops.is_empty(), "{} has no loops", w.name);
        // At least 80% of dynamic execution must be inside loops
        // (otherwise the per-loop selective algorithm has nothing to do).
        let in_loops: u64 = loops
            .iter()
            .rev()
            .take(8)
            .flat_map(|l| l.blocks.iter())
            .collect::<std::collections::BTreeSet<_>>()
            .iter()
            .flat_map(|&&b| a.cfg.blocks[b].pcs())
            .map(|pc| a.profile.count(pc))
            .sum();
        assert!(
            in_loops as f64 > 0.8 * a.profile.total as f64,
            "{}: only {:.0}% of execution is in loops",
            w.name,
            100.0 * in_loops as f64 / a.profile.total as f64
        );
    }
}

#[test]
fn every_benchmark_offers_candidate_sequences() {
    for w in all(Scale::Test) {
        let p = w.program().unwrap();
        let a = Analysis::build(&p).unwrap();
        let sites = t1000_core::maximal_sites(&p, &a, &ExtractConfig::default());
        assert!(
            sites.len() >= 4,
            "{}: only {} candidate sites — too few for the study",
            w.name,
            sites.len()
        );
        // Candidate widths stay within the paper's 18-bit threshold by
        // construction of the kernels.
        for s in &sites {
            assert!(
                s.width <= 18,
                "{}: site at 0x{:x} is {} bits",
                w.name,
                s.pc,
                s.width
            );
        }
    }
}

#[test]
fn memory_kernels_actually_touch_memory() {
    for name in [
        "epic",
        "unepic",
        "mpeg2_enc",
        "mpeg2_dec",
        "g721_enc",
        "gsm_dec",
    ] {
        let w = by_name(name, Scale::Test).unwrap();
        let p = w.program().unwrap();
        let session = Session::new(p).unwrap();
        let run = simulate(session.program(), &FusionMap::new(), CpuConfig::baseline()).unwrap();
        assert!(
            run.timing.mem.dl1.accesses > 1000,
            "{name}: only {} D-cache accesses",
            run.timing.mem.dl1.accesses
        );
    }
}

#[test]
fn scales_change_size_but_not_structure() {
    for name in NAMES {
        let t = by_name(name, Scale::Test).unwrap();
        let f = by_name(name, Scale::Full).unwrap();
        let pt = t.program().unwrap();
        let pf = f.program().unwrap();
        // Same static code shape (data sizes may differ), different work.
        assert_eq!(pt.len(), pf.len(), "{name}: scale changed the code itself");
        let (_, it) = execute(&pt, &FusionMap::new(), 0).unwrap();
        // Full scale must be way bigger; cap the test-scale runtime.
        assert!(it < 1_000_000, "{name}: test scale too big ({it})");
    }
}

#[test]
fn distinct_seeds_give_distinct_streams() {
    // The registry's fixed seeds must not accidentally collide into
    // identical checksums across benchmarks.
    let sums: Vec<u64> = all(Scale::Test)
        .iter()
        .map(|w| w.expected_checksum())
        .collect();
    let mut dedup = sums.clone();
    dedup.sort_unstable();
    dedup.dedup();
    assert_eq!(
        dedup.len(),
        sums.len(),
        "checksum collision across benchmarks"
    );
}
