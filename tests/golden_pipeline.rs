//! Golden equivalence: the pass-based selection pipeline must reproduce
//! the pre-refactor monolithic algorithms *bit-identically*.
//!
//! The `golden` module below is a verbatim copy of the original
//! `t1000-core/src/select.rs` algorithm bodies (greedy + selective with
//! the loop-local subsequence arbitration), retargeted at the crate's
//! public API. Every test drives both the golden copy and the production
//! pipeline (through `Session`, i.e. the exact path the bench engine
//! takes) over the real workloads and compares full `Debug`
//! serialisations of the resulting `Selection`s — fusion map, chosen
//! configurations, costs, and subsequence matrices.

use t1000_core::{Analysis, ExtractConfig, SelectConfig, Session, StrategySpec};
use t1000_workloads::{all, Scale};

/// Verbatim pre-refactor selection algorithms (PR 4 state).
mod golden {
    use std::collections::{BTreeMap, HashMap};
    use t1000_core::{
        canonicalize, maximal_sites, subwindows, Analysis, CandidateSite, CanonSeq, ChosenConf,
        ExtractConfig, SelectConfig, Selection, SubseqMatrix,
    };
    use t1000_hwcost::cost_of;
    use t1000_isa::{ConfDef, ConfId, FusedSite, FusionMap, Program};
    use t1000_profile::{natural_loops, Dominators, NaturalLoop};

    /// The greedy algorithm (§4): every maximal candidate sequence becomes
    /// an extended instruction.
    pub fn greedy(program: &Program, a: &Analysis, cfg_x: &ExtractConfig) -> Selection {
        let sites = maximal_sites(program, a, cfg_x);
        build_selection(sites, Vec::new())
    }

    /// The selective algorithm (§5, Fig. 5).
    pub fn selective(
        program: &Program,
        a: &Analysis,
        cfg_x: &ExtractConfig,
        cfg_s: &SelectConfig,
    ) -> Selection {
        let all_sites = maximal_sites(program, a, cfg_x);
        let total_time = a.profile.total.max(1);

        // Step 1-2: group maximal sites by form; keep forms above the gain
        // threshold.
        let mut by_form: BTreeMap<usize, Vec<CandidateSite>> = BTreeMap::new();
        let mut form_ids: HashMap<CanonSeq, usize> = HashMap::new();
        let mut forms: Vec<CanonSeq> = Vec::new();
        for site in all_sites {
            let c = canonicalize(&site.instrs);
            let id = *form_ids.entry(c.clone()).or_insert_with(|| {
                forms.push(c);
                forms.len() - 1
            });
            by_form.entry(id).or_default().push(site);
        }
        let surviving: Vec<usize> = by_form
            .iter()
            .filter(|(_, sites)| {
                let gain: u64 = sites.iter().map(|s| s.total_gain()).sum();
                gain as f64 / total_time as f64 >= cfg_s.gain_threshold
            })
            .map(|(&id, _)| id)
            .collect();

        // Step 3: few enough distinct forms → select everything surviving.
        let Some(pfu_budget) = cfg_s.pfus else {
            let chosen: Vec<CandidateSite> = surviving
                .iter()
                .flat_map(|id| by_form[id].clone())
                .collect();
            return build_selection(chosen, Vec::new());
        };
        if surviving.len() <= pfu_budget {
            let chosen: Vec<CandidateSite> = surviving
                .iter()
                .flat_map(|id| by_form[id].clone())
                .collect();
            return build_selection(chosen, Vec::new());
        }

        // Step 4: loop bodies one at a time; each site charged to its
        // outermost containing loop.
        let doms = Dominators::compute(&a.cfg);
        let loops = natural_loops(&a.cfg, &doms); // innermost first
        let outermost_loop = |block: usize| -> Option<usize> {
            loops.iter().rposition(|l| l.blocks.contains(&block))
        };

        let mut per_loop: BTreeMap<usize, Vec<CandidateSite>> = BTreeMap::new();
        for id in &surviving {
            for site in &by_form[id] {
                if let Some(l) = outermost_loop(site.block) {
                    per_loop.entry(l).or_default().push(site.clone());
                }
            }
        }

        let mut fused: Vec<CandidateSite> = Vec::new();
        let mut matrices = Vec::new();
        for (l, sites) in per_loop {
            let (mut picked, matrix) = select_in_loop(a, cfg_x, &loops[l], sites, pfu_budget);
            fused.append(&mut picked);
            if let Some(m) = matrix {
                matrices.push(m);
            }
        }
        build_selection(fused, matrices)
    }

    /// Selects at most `budget` distinct forms within one loop and returns
    /// the concrete windows to fuse (paper Fig. 5, bottom path).
    fn select_in_loop(
        a: &Analysis,
        cfg_x: &ExtractConfig,
        _lp: &NaturalLoop,
        sites: Vec<CandidateSite>,
        budget: usize,
    ) -> (Vec<CandidateSite>, Option<SubseqMatrix>) {
        // Distinct forms among the maximal sites of this loop.
        let mut maximal_forms: Vec<CanonSeq> = Vec::new();
        for s in &sites {
            let c = canonicalize(&s.instrs);
            if !maximal_forms.contains(&c) {
                maximal_forms.push(c);
            }
        }
        if maximal_forms.len() <= budget {
            return (sites, None);
        }

        // Too many forms: consider every valid subsequence as an
        // alternative.
        #[derive(Default)]
        struct FormInfo {
            gain: u64,
            len: usize,
        }
        let mut info: HashMap<CanonSeq, FormInfo> = HashMap::new();
        let mut all_forms: Vec<CanonSeq> = Vec::new();
        // For the matrix: every appearance (including overlapping ones).
        let mut appearances: Vec<(CanonSeq, CanonSeq)> = Vec::new(); // (inner, outer)

        let site_windows: Vec<(usize, Vec<(CandidateSite, CanonSeq)>)> = sites
            .iter()
            .enumerate()
            .map(|(si, s)| {
                let subs = subwindows(a, cfg_x, s)
                    .into_iter()
                    .map(|w| {
                        let c = canonicalize(&w.instrs);
                        (w, c)
                    })
                    .collect();
                (si, subs)
            })
            .collect();

        for (si, subs) in &site_windows {
            let outer = canonicalize(&sites[*si].instrs);
            for (w, c) in subs {
                if !all_forms.contains(c) {
                    all_forms.push(c.clone());
                }
                let e = info.entry(c.clone()).or_default();
                e.len = w.len();
                if w.len() == sites[*si].len() {
                    appearances.push((c.clone(), c.clone())); // maximal
                } else {
                    appearances.push((c.clone(), outer.clone()));
                }
            }
        }

        // Gains from non-overlapping coverage, form by form.
        for form in &all_forms {
            let mut gain = 0u64;
            for (si, subs) in &site_windows {
                let hits = cover_count(&sites[*si], subs, form);
                gain += hits as u64 * (info[form].len as u64 - 1) * sites[*si].exec_count;
            }
            if let Some(e) = info.get_mut(form) {
                e.gain = gain;
            }
        }

        // Build the subsequence matrix for reporting.
        let mut matrix = SubseqMatrix::new(all_forms.clone());
        for (inner, outer) in &appearances {
            if inner == outer {
                matrix.record_maximal(inner);
            } else {
                matrix.record_subseq(inner, outer);
            }
        }

        // Pick up to `budget` forms by *marginal* gain (greedy set cover).
        let coverage_gain = |chosen: &[CanonSeq]| -> u64 {
            site_windows
                .iter()
                .map(|(si, subs)| {
                    cover_site(&sites[*si], subs, chosen)
                        .iter()
                        .map(|w| (w.len() as u64 - 1) * sites[*si].exec_count)
                        .sum::<u64>()
                })
                .sum()
        };
        let mut chosen: Vec<CanonSeq> = Vec::new();
        let mut covered = 0u64;
        for _ in 0..budget {
            let mut best: Option<(u64, &CanonSeq)> = None;
            for f in &all_forms {
                if chosen.contains(f) {
                    continue;
                }
                let mut trial = chosen.clone();
                trial.push(f.clone());
                let marginal = coverage_gain(&trial).saturating_sub(covered);
                let better = match best {
                    None => true,
                    Some((bg, bf)) => {
                        marginal > bg || (marginal == bg && info[f].len > info[bf].len)
                    }
                };
                if marginal > 0 && better {
                    best = Some((marginal, f));
                }
            }
            let Some((marginal, f)) = best else { break };
            covered += marginal;
            chosen.push(f.clone());
        }

        // Rewrite each site: cover it with windows of chosen forms,
        // longest chosen form first, left to right, non-overlapping.
        let mut picked: Vec<CandidateSite> = Vec::new();
        for (si, subs) in &site_windows {
            picked.extend(cover_site(&sites[*si], subs, &chosen));
        }
        (picked, Some(matrix))
    }

    /// Number of non-overlapping occurrences of `form` in `site`, greedy
    /// left-to-right.
    fn cover_count(
        site: &CandidateSite,
        windows: &[(CandidateSite, CanonSeq)],
        form: &CanonSeq,
    ) -> usize {
        let len = form.skeleton.len() as u32;
        let mut count = 0;
        let mut pc = site.pc;
        let end = site.pc + 4 * site.len() as u32;
        while pc + 4 * len <= end {
            if windows.iter().any(|(w, c)| w.pc == pc && c == form) {
                count += 1;
                pc += 4 * len;
            } else {
                pc += 4;
            }
        }
        count
    }

    /// Concrete windows fusing `site` with the chosen forms (longest
    /// first, left-to-right, non-overlapping).
    fn cover_site(
        site: &CandidateSite,
        windows: &[(CandidateSite, CanonSeq)],
        chosen: &[CanonSeq],
    ) -> Vec<CandidateSite> {
        let mut by_len: Vec<&CanonSeq> = chosen.iter().collect();
        by_len.sort_by_key(|c| std::cmp::Reverse(c.skeleton.len()));
        let mut out = Vec::new();
        let mut pc = site.pc;
        let end = site.pc + 4 * site.len() as u32;
        'outer: while pc < end {
            for form in &by_len {
                let len = form.skeleton.len() as u32;
                if pc + 4 * len > end {
                    continue;
                }
                if let Some((w, _)) = windows.iter().find(|(w, c)| w.pc == pc && c == *form) {
                    out.push(w.clone());
                    pc += 4 * len;
                    continue 'outer;
                }
            }
            pc += 4;
        }
        out
    }

    /// Assigns configuration ids and builds the `FusionMap` from the
    /// chosen windows. Windows sharing a canonical form share a
    /// configuration.
    fn build_selection(windows: Vec<CandidateSite>, matrices: Vec<SubseqMatrix>) -> Selection {
        // Group by form.
        let mut order: Vec<CanonSeq> = Vec::new();
        let mut grouped: HashMap<CanonSeq, Vec<CandidateSite>> = HashMap::new();
        for w in windows {
            let c = canonicalize(&w.instrs);
            if !grouped.contains_key(&c) {
                order.push(c.clone());
            }
            grouped.entry(c).or_default().push(w);
        }
        // Deterministic conf numbering: by descending total gain.
        order.sort_by_key(|c| {
            let g: u64 = grouped[c].iter().map(|s| s.total_gain()).sum();
            (std::cmp::Reverse(g), grouped[c][0].pc)
        });
        assert!(order.len() < (1 << 11), "Conf field is 11 bits");

        let mut fusion = FusionMap::new();
        let mut confs = Vec::new();
        for (conf, canon) in order.into_iter().enumerate() {
            let conf = conf as ConfId;
            let sites = &grouped[&canon];
            let width = sites.iter().map(|s| s.width).max().unwrap_or(1).max(1);
            let seq_len = canon.skeleton.len();
            let cost = cost_of(&canon.skeleton, width);
            let latency = cost.depth.div_ceil(t1000_hwcost::SINGLE_CYCLE_DEPTH).max(1);
            let stream_words = t1000_hwcost::stream_words(cost.luts);
            fusion.define(ConfDef {
                conf,
                skeleton: canon.skeleton.clone(),
                base_cycles: seq_len as u32,
                pfu_latency: latency,
            });
            fusion.set_stream_words(conf, stream_words);
            for s in sites {
                fusion.add_site(FusedSite {
                    pc: s.pc,
                    len: s.len() as u32,
                    conf,
                    inputs: s.inputs.clone(),
                    output: s.output,
                });
            }
            confs.push(ChosenConf {
                conf,
                cost,
                canon,
                width,
                latency,
                seq_len,
                stream_words,
                num_sites: sites.len(),
                total_gain: sites.iter().map(|s| s.total_gain()).sum(),
            });
        }
        Selection {
            fusion,
            confs,
            matrices,
        }
    }
}

/// The selection specs the equivalence sweep covers: greedy plus the
/// selective configurations the run-all plan exercises (and one off-plan
/// threshold to catch threshold arithmetic drift).
fn specs() -> Vec<(String, Option<SelectConfig>)> {
    let mut v = vec![("greedy".to_string(), None)];
    for pfus in [Some(1), Some(2), Some(4), None] {
        v.push((
            format!("selective(pfus={pfus:?})"),
            Some(SelectConfig {
                pfus,
                gain_threshold: 0.005,
                reload_weight: 0.0,
            }),
        ));
    }
    v.push((
        "selective(pfus=2, t=0.01)".to_string(),
        Some(SelectConfig {
            pfus: Some(2),
            gain_threshold: 0.01,
            reload_weight: 0.0,
        }),
    ));
    v
}

/// Full deterministic serialisation of a `Selection`: fusion map, chosen
/// configurations, and each subsequence matrix's forms + counts. (The
/// matrix's private form→row index is a `HashMap` whose `Debug` order is
/// arbitrary; it is derived 1:1 from `forms`, so nothing is lost.)
fn canonical(sel: &t1000_core::Selection) -> String {
    let matrices: Vec<_> = sel.matrices.iter().map(|m| (&m.forms, &m.m)).collect();
    format!("{:#?}\n{:#?}\n{:#?}", sel.fusion, sel.confs, matrices)
}

fn assert_equivalent_at(scale: Scale) {
    let cfg_x = ExtractConfig::default();
    for w in all(scale) {
        let program = w.program().unwrap();
        let analysis = Analysis::build(&program).unwrap();
        // The session path is exactly what the bench engine and CLI run.
        let session = Session::new(program.clone()).unwrap();
        for (label, cfg_s) in specs() {
            let (expected, spec) = match &cfg_s {
                None => (
                    golden::greedy(&program, &analysis, &cfg_x),
                    StrategySpec::Greedy,
                ),
                Some(cfg) => (
                    golden::selective(&program, &analysis, &cfg_x, cfg),
                    StrategySpec::selective(cfg),
                ),
            };
            let actual = session.select_shared(&spec);
            assert_eq!(
                canonical(&expected),
                canonical(&actual),
                "{} / {label}: pipeline diverges from the pre-refactor algorithm",
                w.name
            );
        }
    }
}

#[test]
fn pipeline_reproduces_pre_refactor_selections_on_all_workloads() {
    assert_equivalent_at(Scale::Test);
}

/// Full-scale variant of the golden sweep (minutes of profiling work);
/// run with `cargo test -- --ignored` before cutting a full-scale
/// artifact.
#[test]
#[ignore]
fn pipeline_reproduces_pre_refactor_selections_at_full_scale() {
    assert_equivalent_at(Scale::Full);
}

/// The knapsack strategy must respect a LUT budget that greedy busts:
/// for every workload whose greedy selection spends any LUTs, a budget of
/// half the greedy spend caps the knapsack's spend while greedy exceeds
/// it — and the knapsack still selects something whenever any single
/// affordable form saves cycles.
#[test]
fn budget_knapsack_respects_the_lut_budget_greedy_exceeds() {
    let mut exercised = 0;
    for w in all(Scale::Test) {
        let session = Session::new(w.program().unwrap()).unwrap();
        let greedy = session.select_shared(&StrategySpec::Greedy);
        let greedy_luts: u32 = greedy.confs.iter().map(|c| c.cost.luts).sum();
        if greedy_luts < 2 {
            continue;
        }
        let budget = greedy_luts / 2;
        let knap = session.select_shared(&StrategySpec::knapsack(budget));
        let knap_luts: u32 = knap.confs.iter().map(|c| c.cost.luts).sum();
        assert!(
            knap_luts <= budget,
            "{}: knapsack spent {knap_luts} LUTs over budget {budget}",
            w.name
        );
        assert!(
            greedy_luts > budget,
            "{}: greedy must exceed the budget for this check to bite",
            w.name
        );
        if greedy
            .confs
            .iter()
            .any(|c| c.cost.luts <= budget && c.total_gain > 0)
        {
            assert!(
                knap.num_confs() > 0,
                "{}: an affordable profitable form exists but nothing was chosen",
                w.name
            );
        }
        exercised += 1;
    }
    assert!(exercised >= 4, "only {exercised} workloads exercised");
}

/// Schema-compat check for the bench artifact: a v6 cell object is the
/// v3 object plus exactly the strategy-axis fields (v4: `strategy`, and
/// `lut_budget` on knapsack cells), the host-throughput fields (v5:
/// `host_ns`, `sim_khz`, `fast_path`), and the config-plane reload
/// counters (v6: `pfu_prefetch_hits`, `pfu_hidden_reload_cycles`,
/// `pfu_exposed_reload_cycles`, `pfu_stream_words`). v7 adds no cell
/// field: it adds `replayed_cycles` inside `fast_path`. v8 leaves cells
/// alone too: it drops the engine's retry counter and the failure
/// records' attempt fields. Guards the
/// "identical modulo the schema-version/strategy/throughput/reload
/// fields" guarantee without re-running the full-scale suite — and, on a
/// default (single-plane, no-prefetch) machine, pins every new counter
/// except the stream-size tally to zero.
#[test]
fn artifact_v6_adds_only_strategy_throughput_and_reload_fields() {
    use t1000_bench::engine::execute;
    use t1000_bench::json::Json;
    use t1000_bench::plan::{Cell, MachineSpec, Plan, SelectionSpec};
    use t1000_bench::results::to_json;

    let mut plan = Plan::new();
    let m = MachineSpec::with_pfus(2, 10);
    plan.push(Cell::new("g721_enc", SelectionSpec::Greedy, m));
    plan.push(Cell::new(
        "g721_enc",
        SelectionSpec::selective_std(Some(2)),
        m,
    ));
    plan.push(Cell::new("g721_enc", SelectionSpec::knapsack(256), m));
    let doc = to_json(&execute(&plan, Scale::Test));

    assert_eq!(
        doc.get("schema_version").and_then(Json::as_u64),
        Some(8),
        "one attempt per cell requires the v8 schema"
    );
    let keys = |j: &Json| -> Vec<String> {
        match j {
            Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.clone()).collect(),
            _ => panic!("expected an object"),
        }
    };
    // Every cell keeps the complete v3 field set; the only additions are
    // `strategy` (all cells) and `lut_budget` (knapsack only).
    let v3_cell = [
        "workload",
        "algorithm",
        "extract",
        "machine",
        "cycles",
        "base_instructions",
        "base_ipc",
        "speedup",
        "reconfigurations",
        "conf_hits",
        "ext_executed",
        "pfu_load_faults",
        "branch_accuracy",
        "checksum",
        "attribution",
    ];
    let cells = doc.get("cells").and_then(Json::as_array).unwrap();
    assert!(cells.len() >= 4, "baseline + three strategies expected");
    let mut saw_knapsack = false;
    for c in cells {
        let ks = keys(c);
        for k in v3_cell {
            assert!(ks.contains(&k.to_string()), "cell lost v3 field {k}");
        }
        let algo = c.get("algorithm").and_then(Json::as_str).unwrap();
        let strategy = c.get("strategy").and_then(Json::as_str).unwrap();
        assert!(strategy.starts_with(algo), "{strategy} vs {algo}");
        // v6 counters sit between `pfu_load_faults` and `branch_accuracy`,
        // i.e. before the v5 throughput tail in key order.
        let v6 = [
            "pfu_prefetch_hits",
            "pfu_hidden_reload_cycles",
            "pfu_exposed_reload_cycles",
            "pfu_stream_words",
        ];
        let v5 = ["host_ns", "sim_khz", "fast_path"];
        let expected_extra: Vec<&str> = if algo == "knapsack" {
            saw_knapsack = true;
            assert_eq!(c.get("lut_budget").and_then(Json::as_u64), Some(256));
            ["strategy", "lut_budget"]
                .iter()
                .chain(&v6)
                .chain(&v5)
                .copied()
                .collect()
        } else if algo == "selective" {
            ["strategy", "pfus", "gain_threshold"]
                .iter()
                .chain(&v6)
                .chain(&v5)
                .copied()
                .collect()
        } else {
            ["strategy"].iter().chain(&v6).chain(&v5).copied().collect()
        };
        // A default machine has a single plane and no prefetch: nothing
        // can be hidden, so every reload counter except the stream-size
        // tally must be zero.
        for k in ["pfu_prefetch_hits", "pfu_hidden_reload_cycles"] {
            assert_eq!(
                c.get(k).and_then(Json::as_u64),
                Some(0),
                "default machine recorded nonzero {k}"
            );
        }
        let fast_path = c.get("fast_path").expect("v5 fast_path object");
        assert_eq!(
            keys(fast_path),
            [
                "steady_loops",
                "replayed_iters",
                "deopts",
                "replayed_cycles"
            ],
            "fast_path counters drifted"
        );
        let extras: Vec<String> = ks
            .iter()
            .filter(|k| !v3_cell.contains(&k.as_str()))
            .cloned()
            .collect();
        let expected: Vec<String> = expected_extra.iter().map(|s| s.to_string()).collect();
        assert_eq!(extras, expected, "unexpected field drift on a {algo} cell");
    }
    assert!(saw_knapsack);
}
