//! Experiment planning: the job-graph vocabulary of the harness.
//!
//! Every number in the paper's figures and tables is the result of one
//! *cell*: simulate `workload` under `selection` on `machine`, with
//! candidate extraction governed by `extract`. A [`Plan`] is a
//! deduplicated set of cells; the engine derives the implied work — one
//! profiling session per (workload, extraction config), one selection job
//! per distinct selection, one simulation per distinct cell, plus the
//! baseline cell each speedup is normalised against — and never runs the
//! same job twice, no matter how many figures request it.

use std::collections::HashSet;
use t1000_core::{ExtractConfig, SelectConfig, StrategySpec};
use t1000_cpu::{BranchModel, CpuConfig, PfuCount, PfuReplacement};

/// Which fusion map a cell simulates.
///
/// `Selective` stores the gain threshold's bit pattern so the spec is
/// `Eq`/`Hash` (two thresholds are the same job exactly when they drive
/// the selector identically — same criterion as the session cache).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SelectionSpec {
    /// No extended instructions: the run every speedup is measured against.
    Baseline,
    /// The greedy algorithm (paper §4).
    Greedy,
    /// The selective algorithm (paper §5).
    Selective {
        pfus: Option<usize>,
        gain_threshold_bits: u64,
        /// `SelectConfig::reload_weight` as bits (`0` = off, identical to
        /// the pre-reload-objective spec).
        reload_weight_bits: u64,
    },
    /// Budget-constrained knapsack selection over `t1000-hwcost` LUT
    /// estimates (`t1000_core::BudgetKnapsack`).
    Knapsack {
        lut_budget: u32,
        /// Reload-traffic weight as bits (`0` = off).
        reload_weight_bits: u64,
    },
}

impl SelectionSpec {
    /// Selective spec from a plain threshold.
    pub fn selective(pfus: Option<usize>, gain_threshold: f64) -> SelectionSpec {
        SelectionSpec::Selective {
            pfus,
            gain_threshold_bits: gain_threshold.to_bits(),
            reload_weight_bits: 0,
        }
    }

    /// Selective spec with the §5.3 reload-traffic charge.
    pub fn selective_reload(
        pfus: Option<usize>,
        gain_threshold: f64,
        reload_weight: f64,
    ) -> SelectionSpec {
        SelectionSpec::Selective {
            pfus,
            gain_threshold_bits: gain_threshold.to_bits(),
            reload_weight_bits: reload_weight.to_bits(),
        }
    }

    /// The paper's standard selective configuration (0.5 % gain threshold).
    pub fn selective_std(pfus: Option<usize>) -> SelectionSpec {
        SelectionSpec::selective(pfus, 0.005)
    }

    /// Knapsack spec for a total-LUT budget.
    pub fn knapsack(lut_budget: u32) -> SelectionSpec {
        SelectionSpec::Knapsack {
            lut_budget,
            reload_weight_bits: 0,
        }
    }

    /// The strategy the selection pipeline should run for this spec
    /// (`None` for baseline cells, which have no selection job). This is
    /// the bench plan's strategy axis: the returned spec doubles as the
    /// session's memo-cache key.
    pub fn strategy_spec(&self) -> Option<StrategySpec> {
        match *self {
            SelectionSpec::Baseline => None,
            SelectionSpec::Greedy => Some(StrategySpec::Greedy),
            SelectionSpec::Selective {
                pfus,
                gain_threshold_bits,
                reload_weight_bits,
            } => Some(StrategySpec::Selective {
                pfus,
                gain_threshold_bits,
                reload_weight_bits,
            }),
            SelectionSpec::Knapsack {
                lut_budget,
                reload_weight_bits,
            } => Some(StrategySpec::BudgetKnapsack {
                lut_budget,
                reload_weight_bits,
            }),
        }
    }

    /// Stable strategy identifier for reports and JSON (`baseline` for
    /// the baseline spec).
    pub fn strategy_id(&self) -> String {
        match self.strategy_spec() {
            Some(s) => s.id(),
            None => "baseline".into(),
        }
    }

    /// The `SelectConfig` to hand to the selector (`None` for baseline
    /// and greedy specs).
    pub fn select_config(&self) -> Option<SelectConfig> {
        match *self {
            SelectionSpec::Selective {
                pfus,
                gain_threshold_bits,
                reload_weight_bits,
            } => Some(SelectConfig {
                pfus,
                gain_threshold: f64::from_bits(gain_threshold_bits),
                reload_weight: f64::from_bits(reload_weight_bits),
            }),
            _ => None,
        }
    }

    /// Short name used in reports and JSON
    /// (`baseline`/`greedy`/`selective`/`knapsack`).
    pub fn algorithm(&self) -> &'static str {
        match self {
            SelectionSpec::Baseline => "baseline",
            SelectionSpec::Greedy => "greedy",
            SelectionSpec::Selective { .. } => "selective",
            SelectionSpec::Knapsack { .. } => "knapsack",
        }
    }
}

/// The machine a cell runs on: the paper's 4-wide core with the axes the
/// experiments vary. `issue_width: None` keeps the paper machine;
/// `Some(w)` sets fetch/dispatch/issue/commit width to `w` (width sweep).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct MachineSpec {
    pub pfus: PfuCount,
    pub reconfig_cycles: u32,
    pub replacement: PfuReplacement,
    pub branch: BranchModel,
    pub issue_width: Option<u32>,
    /// Configuration planes per PFU (1 = single-plane blocking loads;
    /// 2 = double-buffered shadow plane).
    pub pfu_planes: u32,
    /// Next-configuration prefetch depth (0 = off).
    pub pfu_prefetch: u32,
    /// Stream-compression ratio (cycles per word) as bits, `0` = off —
    /// stored as a bit pattern so the spec stays `Eq`/`Hash`.
    pub conf_compress_bits: u64,
}

impl MachineSpec {
    /// T1000 with `n` PFUs at the given reconfiguration penalty.
    pub fn with_pfus(n: usize, reconfig_cycles: u32) -> MachineSpec {
        MachineSpec {
            pfus: PfuCount::Fixed(n),
            reconfig_cycles,
            replacement: PfuReplacement::Lru,
            branch: BranchModel::Perfect,
            issue_width: None,
            pfu_planes: 1,
            pfu_prefetch: 0,
            conf_compress_bits: 0,
        }
    }

    /// T1000 with unlimited PFUs at the given reconfiguration penalty.
    pub fn unlimited(reconfig_cycles: u32) -> MachineSpec {
        MachineSpec {
            pfus: PfuCount::Unlimited,
            ..MachineSpec::with_pfus(0, reconfig_cycles)
        }
    }

    /// This spec with the reconfiguration-hiding knobs set: `planes`
    /// configuration planes per PFU, `prefetch` upcoming `Conf` tags
    /// prefetched from the fetch stream, and (when > 0) `conf_compress`
    /// reload cycles per stream word instead of the flat penalty.
    pub fn config_plane(self, planes: u32, prefetch: u32, conf_compress: f64) -> MachineSpec {
        MachineSpec {
            pfu_planes: planes,
            pfu_prefetch: prefetch,
            conf_compress_bits: conf_compress.to_bits(),
            ..self
        }
    }

    /// The baseline machine this spec's speedups are normalised against:
    /// the identical core with the PFU array removed. Branch model and
    /// issue width are preserved — a bimodal or narrow T1000 is compared
    /// against a bimodal or narrow superscalar. The config-plane knobs
    /// are stripped with the rest of the PFU hardware.
    pub fn baseline_of(&self) -> MachineSpec {
        MachineSpec {
            branch: self.branch,
            issue_width: self.issue_width,
            ..MachineSpec::with_pfus(0, 0)
        }
    }

    /// Concrete simulator configuration.
    pub fn cpu_config(&self) -> CpuConfig {
        let mut cfg = CpuConfig {
            pfus: self.pfus,
            reconfig_cycles: self.reconfig_cycles,
            pfu_replacement: self.replacement,
            branch: self.branch,
            pfu_planes: self.pfu_planes,
            pfu_prefetch: self.pfu_prefetch,
            conf_compress: f64::from_bits(self.conf_compress_bits),
            ..CpuConfig::default()
        };
        if let Some(w) = self.issue_width {
            cfg.fetch_width = w;
            cfg.dispatch_width = w;
            cfg.issue_width = w;
            cfg.commit_width = w;
            cfg.int_alus = w.max(2);
        }
        cfg
    }
}

/// One unit of experimental work: simulate `workload` under `selection`
/// on `machine`, with candidates extracted per `extract`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Cell {
    pub workload: &'static str,
    pub extract: ExtractConfig,
    pub selection: SelectionSpec,
    pub machine: MachineSpec,
}

impl Cell {
    /// A cell with the paper's default extraction parameters.
    pub fn new(workload: &'static str, selection: SelectionSpec, machine: MachineSpec) -> Cell {
        Cell {
            workload,
            extract: ExtractConfig::default(),
            selection,
            machine,
        }
    }

    /// The baseline cell this cell's speedup is measured against.
    pub fn baseline_cell(&self) -> Cell {
        Cell {
            selection: SelectionSpec::Baseline,
            machine: self.machine.baseline_of(),
            ..*self
        }
    }
}

/// An ordered, deduplicated set of cells. Push cells in report order;
/// duplicates (including baselines implied by earlier cells) are dropped.
#[derive(Default)]
pub struct Plan {
    cells: Vec<Cell>,
    seen: HashSet<Cell>,
    /// Selection jobs requested without a fused simulation (Fig. 7 and
    /// the §4.1 table analyse selections but never run them).
    selection_only: Vec<(&'static str, ExtractConfig, SelectionSpec)>,
    /// Cells requested, counting duplicates — the dedup numerator.
    requested: usize,
    /// Requests answered by an already-planned cell.
    deduped: usize,
}

impl Plan {
    pub fn new() -> Plan {
        Plan::default()
    }

    /// Adds `cell` and its implied baseline cell.
    pub fn push(&mut self, cell: Cell) {
        self.requested += 1;
        if self.seen.contains(&cell) {
            self.deduped += 1;
        }
        let base = cell.baseline_cell();
        if self.seen.insert(base) {
            self.cells.push(base);
        }
        if self.seen.insert(cell) {
            self.cells.push(cell);
        }
    }

    pub fn extend(&mut self, cells: impl IntoIterator<Item = Cell>) {
        for c in cells {
            self.push(c);
        }
    }

    /// Requests a selection job (and the workload's baseline cell, for
    /// normalisation) without simulating the fused program.
    pub fn push_selection(
        &mut self,
        workload: &'static str,
        extract: ExtractConfig,
        spec: SelectionSpec,
    ) {
        let base = Cell {
            workload,
            extract,
            selection: SelectionSpec::Baseline,
            machine: MachineSpec::with_pfus(0, 0),
        };
        self.requested += 1;
        if self.seen.insert(base) {
            self.cells.push(base);
        }
        self.selection_only.push((workload, extract, spec));
    }

    /// Selection-only jobs requested via [`Plan::push_selection`].
    pub fn selection_only(&self) -> &[(&'static str, ExtractConfig, SelectionSpec)] {
        &self.selection_only
    }

    /// Unique cells, in first-push order (baselines precede their users).
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// Cells requested via [`Plan::push`], counting duplicates but not
    /// implied baselines.
    pub fn requested(&self) -> usize {
        self.requested
    }

    /// Requests that were answered by an already-planned cell.
    pub fn deduped(&self) -> usize {
        self.deduped
    }

    /// This plan with every PFU-bearing machine rewritten to carry the
    /// reconfiguration-hiding knobs (`t1000 bench --pfu-planes` /
    /// `--pfu-prefetch` / `--conf-compress`). Baseline (0-PFU) machines
    /// are left untouched — each rewritten cell re-implies the same
    /// normaliser, so speedups stay comparable to the default artifact.
    pub fn with_config_plane(&self, planes: u32, prefetch: u32, conf_compress: f64) -> Plan {
        let mut out = Plan::new();
        for c in &self.cells {
            if c.selection == SelectionSpec::Baseline {
                continue; // re-implied by the cells that use it
            }
            let mut cell = *c;
            if cell.machine.pfus != PfuCount::Fixed(0) {
                cell.machine = cell.machine.config_plane(planes, prefetch, conf_compress);
            }
            out.push(cell);
        }
        for (w, x, s) in &self.selection_only {
            out.push_selection(w, *x, *s);
        }
        out
    }
}

/// The standard workload list, in report order.
pub fn workload_names() -> Vec<&'static str> {
    t1000_workloads::NAMES.to_vec()
}

/// The paper plan `t1000 bench --all` runs: every cell behind the
/// Markdown report (workload inventory, Fig. 2, §4.1, Fig. 6, Fig. 7,
/// §5.2).
pub fn run_all_plan() -> Plan {
    let mut plan = Plan::new();
    for w in workload_names() {
        // Figure 2: greedy, best case and 2-PFU thrashing case.
        plan.push(Cell::new(
            w,
            SelectionSpec::Greedy,
            MachineSpec::unlimited(0),
        ));
        plan.push(Cell::new(
            w,
            SelectionSpec::Greedy,
            MachineSpec::with_pfus(2, 10),
        ));
        // Figure 6: selective at 2/4/unlimited PFUs, 10-cycle reconfig.
        plan.push(Cell::new(
            w,
            SelectionSpec::selective_std(Some(2)),
            MachineSpec::with_pfus(2, 10),
        ));
        plan.push(Cell::new(
            w,
            SelectionSpec::selective_std(Some(4)),
            MachineSpec::with_pfus(4, 10),
        ));
        plan.push(Cell::new(
            w,
            SelectionSpec::selective_std(None),
            MachineSpec::unlimited(10),
        ));
        // Figure 7 needs the 4-PFU selective *selection* (no extra sim:
        // its cell is the Fig. 6 4-PFU cell, already pushed).
        // §5.2: reconfiguration sweep, selective at 2 PFUs.
        for cycles in [0, 10, 100, 500] {
            plan.push(Cell::new(
                w,
                SelectionSpec::selective_std(Some(2)),
                MachineSpec::with_pfus(2, cycles),
            ));
        }
    }
    plan
}

/// LUT budgets the strategy sweep exercises: one tight enough to force
/// the knapsack to arbitrate, one roomy enough to approach greedy.
pub const KNAPSACK_BUDGETS: [u32; 2] = [256, 1024];

/// The strategy-axis extension of [`run_all_plan`]: knapsack cells at
/// each budget of [`KNAPSACK_BUDGETS`] on the 4-PFU machine. Kept out of
/// [`run_all_plan`] so the default full-scale artifact stays comparable
/// with earlier runs (the golden-equivalence guarantee); `t1000 bench
/// --all --strategies` appends these cells.
pub fn strategy_sweep_plan(plan: &mut Plan) {
    for w in workload_names() {
        for budget in KNAPSACK_BUDGETS {
            plan.push(Cell::new(
                w,
                SelectionSpec::knapsack(budget),
                MachineSpec::with_pfus(4, 10),
            ));
        }
    }
}

/// [`run_all_plan`] plus the strategy sweep.
pub fn run_all_plan_with_strategies() -> Plan {
    let mut plan = run_all_plan();
    strategy_sweep_plan(&mut plan);
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_dedups_cells_and_baselines() {
        let mut p = Plan::new();
        let c = Cell::new("epic", SelectionSpec::Greedy, MachineSpec::with_pfus(2, 10));
        p.push(c);
        p.push(c); // duplicate
        p.push(Cell::new(
            "epic",
            SelectionSpec::selective_std(Some(2)),
            MachineSpec::with_pfus(2, 10),
        ));
        // 1 shared baseline + 2 distinct experiment cells.
        assert_eq!(p.cells().len(), 3);
        assert_eq!(p.requested(), 3);
        assert_eq!(p.cells()[0].selection, SelectionSpec::Baseline);
    }

    #[test]
    fn baseline_cell_strips_pfus_but_keeps_branch_and_width() {
        let mut m = MachineSpec::with_pfus(4, 500);
        m.branch = BranchModel::Bimodal {
            entries: 2048,
            penalty: 6,
        };
        m.issue_width = Some(8);
        let b = Cell::new("gsm_dec", SelectionSpec::Greedy, m).baseline_cell();
        assert_eq!(b.machine.pfus, PfuCount::Fixed(0));
        assert_eq!(b.machine.branch, m.branch);
        assert_eq!(b.machine.issue_width, Some(8));
        assert_eq!(b.selection, SelectionSpec::Baseline);
    }

    #[test]
    fn run_all_plan_computes_each_distinct_job_once() {
        let plan = run_all_plan();
        let per_workload = plan.cells().len() / 8;
        assert_eq!(plan.cells().len() % 8, 0);
        // Per workload: baseline + greedy×2 + selective(2,4,unl)@10 +
        // selective(2)@{0,100,500} = 9 unique sims (the §5.2 10-cycle cell
        // dedups against Fig. 6's).
        assert_eq!(per_workload, 9);
        // Per-workload requests before dedup: 8 unique + 1 repeat
        // (the §5.2 10-cycle cell is also Fig. 6's 2-PFU cell).
        assert_eq!(plan.requested(), 8 * 9);
        let mut sel_jobs = HashSet::new();
        for c in plan.cells() {
            if c.selection != SelectionSpec::Baseline {
                sel_jobs.insert((c.workload, c.extract, c.selection));
            }
        }
        assert_eq!(sel_jobs.len(), 8 * 4); // greedy, sel@2, sel@4, sel@unl
    }

    #[test]
    fn strategy_sweep_extends_but_never_perturbs_the_run_all_plan() {
        let base = run_all_plan();
        let extended = run_all_plan_with_strategies();
        // The base plan is a prefix: existing cells keep their order, so
        // the default artifact's cell list is untouched.
        assert_eq!(&extended.cells()[..base.cells().len()], base.cells());
        let extra = &extended.cells()[base.cells().len()..];
        // 8 workloads × 2 budgets, all knapsack (baselines already exist).
        assert_eq!(extra.len(), 8 * KNAPSACK_BUDGETS.len());
        for c in extra {
            assert!(matches!(c.selection, SelectionSpec::Knapsack { .. }));
            assert_eq!(c.machine, MachineSpec::with_pfus(4, 10));
        }
    }

    #[test]
    fn strategy_spec_maps_every_selection_spec() {
        assert_eq!(SelectionSpec::Baseline.strategy_spec(), None);
        assert_eq!(
            SelectionSpec::Greedy.strategy_spec(),
            Some(StrategySpec::Greedy)
        );
        assert_eq!(
            SelectionSpec::selective_std(Some(2)).strategy_spec(),
            Some(StrategySpec::Selective {
                pfus: Some(2),
                gain_threshold_bits: 0.005f64.to_bits(),
                reload_weight_bits: 0,
            })
        );
        assert_eq!(
            SelectionSpec::knapsack(512).strategy_spec(),
            Some(StrategySpec::BudgetKnapsack {
                lut_budget: 512,
                reload_weight_bits: 0,
            })
        );
        assert_eq!(SelectionSpec::Baseline.strategy_id(), "baseline");
        assert_eq!(
            SelectionSpec::knapsack(512).strategy_id(),
            "knapsack(luts=512)"
        );
        assert_eq!(SelectionSpec::knapsack(512).algorithm(), "knapsack");
    }

    #[test]
    fn config_plane_knobs_flow_into_cpu_config_and_not_the_baseline() {
        let m = MachineSpec::with_pfus(2, 10).config_plane(2, 3, 0.25);
        let cfg = m.cpu_config();
        assert_eq!(cfg.pfu_planes, 2);
        assert_eq!(cfg.pfu_prefetch, 3);
        assert!((cfg.conf_compress - 0.25).abs() < 1e-12);
        let b = m.baseline_of();
        assert_eq!(b.pfu_planes, 1);
        assert_eq!(b.pfu_prefetch, 0);
        assert_eq!(b.conf_compress_bits, 0);
        // Default knobs leave the spec equal to the legacy constructor.
        assert_eq!(m.config_plane(1, 0, 0.0), MachineSpec::with_pfus(2, 10));
    }

    #[test]
    fn machine_spec_builds_the_expected_cpu_config() {
        let cfg = MachineSpec::with_pfus(2, 100).cpu_config();
        assert_eq!(cfg.pfus.limit(), Some(2));
        assert_eq!(cfg.reconfig_cycles, 100);
        assert_eq!(cfg.issue_width, 4);
        let narrow = MachineSpec {
            issue_width: Some(1),
            ..MachineSpec::with_pfus(2, 10)
        };
        let cfg = narrow.cpu_config();
        assert_eq!(cfg.fetch_width, 1);
        assert_eq!(cfg.int_alus, 2);
    }
}
