//! The shared experiment engine.
//!
//! Executes a [`Plan`] in three phases, each fanned
//! out over a scoped-thread worker pool:
//!
//! 1. **prepare** — one profiling [`Session`] per distinct
//!    (workload, extraction config), checksum-verified against the Rust
//!    reference;
//! 2. **select** — one selection job per distinct
//!    (workload, extraction config, selection spec), answered through the
//!    session's memoizing cache;
//! 3. **simulate** — one timing simulation per cell, with architectural
//!    results verified against the workload's baseline run.
//!
//! `t1000 bench --all` and every `t1000 bench --plan NAME` sweep are thin
//! views over the resulting [`EngineRun`]; none of them re-run
//! selections or simulations.
//!
//! The engine is fault-tolerant: each cell gets exactly one attempt
//! under `catch_unwind`, so one poisoned cell records a
//! [`CellOutcome::Failed`] while every other cell completes. A cell is a
//! pure function of (program, selection, machine), so a failed cell
//! would fail the same way again and is never retried. Cycle fuel
//! ([`EngineConfig::max_cycles`]) bounds divergent work, and a
//! [`FaultPlan`] can deterministically inject panics and PFU
//! configuration faults for testing (see `docs/ROBUSTNESS.md`).
//!
//! A one-cell experiment end to end (the engine adds the implied
//! PFU-less baseline cell automatically):
//!
//! ```
//! use t1000_bench::engine::execute;
//! use t1000_bench::plan::{Cell, MachineSpec, Plan, SelectionSpec};
//! use t1000_workloads::Scale;
//!
//! let mut plan = Plan::new();
//! plan.push(Cell::new(
//!     "gsm_dec",
//!     SelectionSpec::selective_std(Some(2)),
//!     MachineSpec::with_pfus(2, 10),
//! ));
//! let run = execute(&plan, Scale::Test);
//! assert!(run.failures.is_empty());
//! assert!(run.cells.len() >= 2); // the cell plus its implied baseline
//! for cell in &run.cells {
//!     // Checksum-verified against the Rust reference, and every cycle
//!     // attributed: busy + Σ stalls == total.
//!     assert!(cell.attr.checks_out());
//!     assert_eq!(cell.attr.total_cycles, cell.cycles);
//! }
//! ```

use crate::fault::FaultPlan;
use crate::plan::{Cell, MachineSpec, Plan, SelectionSpec};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;
use t1000_core::{ExtractConfig, Selection, Session};
use t1000_cpu::{AttrCollector, CycleAttribution, ExecError, TraceSink};
use t1000_workloads::{Scale, Workload};

/// Worker-pool size: `T1000_THREADS` if set, else the machine's
/// available parallelism. A value that is not a thread count is an
/// error, which `t1000 bench` and `t1000 serve` report before they start;
/// [`execute_with`] falls back to the machine's parallelism.
pub fn num_threads() -> Result<usize, String> {
    match std::env::var("T1000_THREADS") {
        Ok(v) => v
            .parse::<usize>()
            .map(|n| n.max(1))
            .map_err(|_| format!("T1000_THREADS: `{v}` is not a thread count")),
        Err(_) => Ok(available_threads()),
    }
}

fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Applies `f` to every item on a pool of `threads` scoped workers,
/// preserving input order. Items are claimed via an atomic cursor, so a
/// slow job never blocks the queue behind it.
// Workers are panic-isolated by their callers (cell bodies run under
// `quiet_catch_unwind`), so `join` only fails on a bug in the pool
// itself — the unwrap/expect here are genuine assertions, not error
// handling.
#[allow(clippy::unwrap_used, clippy::expect_used)]
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = threads.clamp(1, items.len().max(1));
    let cursor = AtomicUsize::new(0);
    let mut buckets: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            return local;
                        }
                        local.push((i, f(&items[i])));
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    for (i, r) in buckets.drain(..).flatten() {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|s| s.expect("worker failed to fill its slot"))
        .collect()
}

// ---------------------------------------------------------------------
// Panic isolation
// ---------------------------------------------------------------------

thread_local! {
    static QUIET_PANIC: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Installs (once, process-wide) a panic hook that stays silent while the
/// current thread is inside [`quiet_catch_unwind`] and delegates to the
/// previous hook otherwise — isolated cell panics become typed failures
/// without spamming stderr, while genuine panics elsewhere keep their
/// backtrace.
fn install_quiet_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !QUIET_PANIC.with(|q| q.get()) {
                prev(info);
            }
        }));
    });
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Runs `f`, converting a panic into `Err(message)`. The session's
/// interior mutexes recover from poisoning (see `SelectionCache`), so
/// unwinding past them is safe.
fn quiet_catch_unwind<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    install_quiet_hook();
    QUIET_PANIC.with(|q| q.set(true));
    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    QUIET_PANIC.with(|q| q.set(false));
    out.map_err(panic_message)
}

// ---------------------------------------------------------------------
// Error taxonomy
// ---------------------------------------------------------------------

/// Why a cell failed. The taxonomy is closed; [`FailureCause::kind`]
/// also says whether the cell ran at all (`wall_clock`, or a cascading
/// `unknown_workload`/`prepare`/`selection` failure, means it never
/// started).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FailureCause {
    /// The cell names a workload the harness does not know.
    UnknownWorkload,
    /// Assembly/profiling of the workload failed.
    Prepare(String),
    /// The selection job for this cell failed.
    Selection(String),
    /// The timing simulation failed.
    Simulate(String),
    /// Simulation fuel exhausted (`EngineConfig::max_cycles`).
    Timeout { max_cycles: u64 },
    /// The deadline passed before the cell started (a `t1000 serve`
    /// request's `deadline_ms`; see [`CellRunner::run_cell_isolated`]).
    WallClock,
    /// The simulated checksum diverges from the Rust reference.
    ChecksumMismatch { got: u64, expected: u64 },
    /// The fused run changed architectural results vs. the baseline.
    SemanticsChanged,
    /// The cell's worker panicked (message attached).
    Panic(String),
}

impl FailureCause {
    /// Stable snake_case tag used in the JSON artifact.
    pub fn kind(&self) -> &'static str {
        match self {
            FailureCause::UnknownWorkload => "unknown_workload",
            FailureCause::Prepare(_) => "prepare",
            FailureCause::Selection(_) => "selection",
            FailureCause::Simulate(_) => "simulate",
            FailureCause::Timeout { .. } => "timeout",
            FailureCause::WallClock => "wall_clock",
            FailureCause::ChecksumMismatch { .. } => "checksum_mismatch",
            FailureCause::SemanticsChanged => "semantics_changed",
            FailureCause::Panic(_) => "panic",
        }
    }
}

impl std::fmt::Display for FailureCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailureCause::UnknownWorkload => write!(f, "unknown workload"),
            FailureCause::Prepare(e) => write!(f, "prepare failed: {e}"),
            FailureCause::Selection(e) => write!(f, "selection failed: {e}"),
            FailureCause::Simulate(e) => write!(f, "simulation failed: {e}"),
            FailureCause::Timeout { max_cycles } => {
                write!(f, "simulation fuel exhausted ({max_cycles} cycles)")
            }
            FailureCause::WallClock => write!(f, "deadline passed before the cell started"),
            FailureCause::ChecksumMismatch { got, expected } => write!(
                f,
                "checksum 0x{got:016x} diverges from reference 0x{expected:016x}"
            ),
            FailureCause::SemanticsChanged => {
                write!(f, "fused run changed architectural results")
            }
            FailureCause::Panic(msg) => write!(f, "worker panicked: {msg}"),
        }
    }
}

/// One cell's failure record: which cell, and why.
#[derive(Clone, Debug)]
pub struct EngineError {
    pub cell: Cell,
    pub cause: FailureCause,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} [{}]: {}",
            self.cell.workload,
            self.cell.selection.algorithm(),
            self.cause
        )
    }
}

/// What became of one planned cell.
pub enum CellOutcome {
    /// The simulation completed and verified.
    Completed(Box<CellResult>),
    /// The cell failed; the remaining cells ran anyway.
    Failed(EngineError),
}

// ---------------------------------------------------------------------
// Engine configuration
// ---------------------------------------------------------------------

/// Knobs governing one engine invocation. `Default` is the clean path:
/// no fuel limit and no faults.
#[derive(Clone, Debug, Default)]
pub struct EngineConfig {
    /// Per-simulation cycle fuel (0 = unlimited). Threaded into
    /// `CpuConfig::max_cycles`; exhaustion fails the cell with
    /// [`FailureCause::Timeout`].
    pub max_cycles: u64,
    /// Deterministic fault injection (see [`crate::fault`]).
    pub faults: FaultPlan,
    /// Zero the wall-clock seconds fields in [`EngineStats`] — and the
    /// per-cell `host_ns`/`sim_khz` measurements — so repeated runs
    /// produce byte-identical artifacts (the CI determinism digests).
    pub deterministic: bool,
    /// Disable the pipeline-memo replay fast path
    /// ([`t1000_cpu::CpuConfig::fast_path`], on by default) for every
    /// simulation in this run. The results are bit-identical either way;
    /// this knob exists to measure the accurate path's host throughput
    /// (`--no-fast-path`).
    pub no_fast_path: bool,
}

// ---------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------

/// Summary of one extended instruction, for Fig. 7 and the JSON artifact.
#[derive(Clone, Copy, Debug)]
pub struct ConfSummary {
    pub luts: u32,
    pub depth: u32,
    pub width: u8,
    pub seq_len: usize,
    pub num_sites: usize,
    pub total_gain: u64,
}

/// One selection job's outcome (shared by every cell that simulates it).
pub struct SelectionRecord {
    pub workload: &'static str,
    pub extract: ExtractConfig,
    pub spec: SelectionSpec,
    pub num_confs: usize,
    pub num_sites: usize,
    pub confs: Vec<ConfSummary>,
    selection: Arc<Selection>,
}

impl SelectionRecord {
    /// Builds the record summarising `selection` (one [`ConfSummary`] per
    /// chosen configuration). Used by the engine's select phase and by
    /// the serving layer's `select` method.
    pub fn summarize(
        workload: &'static str,
        extract: ExtractConfig,
        spec: SelectionSpec,
        selection: Arc<Selection>,
    ) -> SelectionRecord {
        let confs = selection
            .confs
            .iter()
            .map(|c| ConfSummary {
                luts: c.cost.luts,
                depth: c.cost.depth,
                width: c.width,
                seq_len: c.seq_len,
                num_sites: c.num_sites,
                total_gain: c.total_gain,
            })
            .collect();
        SelectionRecord {
            workload,
            extract,
            spec,
            num_confs: selection.num_confs(),
            num_sites: selection.fusion.num_sites(),
            confs,
            selection,
        }
    }

    /// Smallest/largest fused sequence length (0 if nothing was selected).
    pub fn seq_len_range(&self) -> (usize, usize) {
        let min = self.confs.iter().map(|c| c.seq_len).min().unwrap_or(0);
        let max = self.confs.iter().map(|c| c.seq_len).max().unwrap_or(0);
        (min, max)
    }

    /// Total estimated dynamic cycles saved by the selection.
    pub fn total_gain(&self) -> u64 {
        self.confs.iter().map(|c| c.total_gain).sum()
    }

    /// The underlying selection.
    pub fn selection(&self) -> &Selection {
        &self.selection
    }
}

/// One simulated cell's measurements.
#[derive(Clone)]
pub struct CellResult {
    pub cell: Cell,
    pub cycles: u64,
    pub base_instructions: u64,
    pub base_ipc: f64,
    pub reconfigurations: u64,
    pub conf_hits: u64,
    pub ext_executed: u64,
    /// PFU configuration loads that failed and fell back to the scalar
    /// sequence (nonzero only under `pfu@N` fault injection).
    pub pfu_load_faults: u64,
    /// Demand uses whose configuration was already streaming (or loaded)
    /// in a shadow plane when the extended instruction arrived (schema
    /// v6; nonzero only with `--pfu-prefetch`/`--pfu-planes 2`).
    pub pfu_prefetch_hits: u64,
    /// Reload cycles overlapped with useful execution by the
    /// config-plane model (schema v6).
    pub pfu_hidden_reload_cycles: u64,
    /// Reload cycles the pipeline actually stalled for (schema v6).
    pub pfu_exposed_reload_cycles: u64,
    /// Total configuration-stream words fetched across all reloads
    /// (schema v6).
    pub pfu_stream_words: u64,
    pub branch_accuracy: f64,
    pub checksum: u64,
    /// Host wall-clock nanoseconds the timing simulation took (schema
    /// v5). Zeroed under [`EngineConfig::deterministic`].
    pub host_ns: u64,
    /// Host throughput in simulated kilocycles per host second (schema
    /// v5): `cycles / host_seconds / 1000`. The CI-tracked metric.
    pub sim_khz: f64,
    /// Replay fast-path counters (schema v5, `replayed_cycles` v7; all
    /// zero when the fast path is disabled).
    pub fast: t1000_cpu::FastPathStats,
    /// Where the cell's cycles went: every simulation runs under an
    /// aggregate [`AttrCollector`], so
    /// `attr.busy_cycles + Σ attr.stalls == cycles` for every cell —
    /// the schema artifact's mechanism check.
    pub attr: CycleAttribution,
}

/// Simulated kilocycles per host second (`cycles / host_secs / 1000`);
/// 0 when the host time was not measured (or zeroed for determinism).
pub fn sim_khz(cycles: u64, host_ns: u64) -> f64 {
    if host_ns == 0 {
        0.0
    } else {
        cycles as f64 * 1e6 / host_ns as f64
    }
}

/// Engine bookkeeping: how much work the plan implied, how much was
/// actually run, and where the wall-clock went.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineStats {
    /// Cells requested by the plan's callers (counting duplicates).
    pub cells_requested: usize,
    /// Distinct cells simulated (including implied baselines).
    pub cells_simulated: usize,
    /// Distinct selection jobs executed.
    pub selection_jobs: usize,
    /// Session-cache hits/misses summed over all sessions.
    pub selection_hits: u64,
    pub selection_misses: u64,
    /// Seconds inside the selection algorithms (cache misses only).
    pub selection_compute_secs: f64,
    /// Wall-clock per phase.
    pub prepare_secs: f64,
    pub select_secs: f64,
    pub simulate_secs: f64,
    /// Worker threads used.
    pub threads: usize,
    /// Requested cells answered by an already-planned simulation.
    pub cells_deduped: usize,
    /// Cells that ended in [`CellOutcome::Failed`].
    pub failed_cells: usize,
}

/// Everything one engine invocation produced.
pub struct EngineRun {
    pub scale: Scale,
    pub workloads: Vec<WorkloadInfo>,
    pub selections: Vec<SelectionRecord>,
    pub cells: Vec<CellResult>,
    /// Cells that failed (panic, timeout, cascade...), in plan order.
    /// Empty on a healthy run.
    pub failures: Vec<EngineError>,
    pub stats: EngineStats,
    cell_index: HashMap<Cell, usize>,
    selection_index: HashMap<(&'static str, ExtractConfig, SelectionSpec), usize>,
}

/// Identity and reference data for one workload.
pub struct WorkloadInfo {
    pub name: &'static str,
    pub expected_checksum: u64,
}

impl EngineRun {
    /// The measurements for `cell`, or `None` if the cell was not in the
    /// executed plan or failed.
    pub fn cell(&self, cell: Cell) -> Option<&CellResult> {
        self.cell_index.get(&cell).map(|&i| &self.cells[i])
    }

    /// The baseline measurements `cell` is normalised against, if they
    /// completed.
    pub fn baseline(&self, cell: Cell) -> Option<&CellResult> {
        self.cell(cell.baseline_cell())
    }

    /// Execution-time speedup of `cell` over its baseline (>1 = faster).
    /// `None` if either measurement is missing.
    pub fn speedup(&self, cell: Cell) -> Option<f64> {
        Some(self.baseline(cell)?.cycles as f64 / self.cell(cell)?.cycles as f64)
    }

    /// The selection record backing `cell` (None for baseline cells and
    /// failed selection jobs).
    pub fn selection(&self, cell: Cell) -> Option<&SelectionRecord> {
        self.selection_index
            .get(&(cell.workload, cell.extract, cell.selection))
            .map(|&i| &self.selections[i])
    }
}

// ---------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------

/// Executes `plan` at `scale` with the default (clean-path)
/// [`EngineConfig`] and returns every measurement it implies. Failures
/// are recorded in [`EngineRun::failures`], never panicked.
pub fn execute(plan: &Plan, scale: Scale) -> EngineRun {
    execute_with(plan, scale, &EngineConfig::default())
}

/// The plan's distinct selection jobs in canonical order: first
/// appearance over the cells, then the selection-only extras, baseline
/// specs excluded.
fn selection_keys(plan: &Plan) -> Vec<(&'static str, ExtractConfig, SelectionSpec)> {
    let mut keys: Vec<(&'static str, ExtractConfig, SelectionSpec)> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    let cell_keys = plan
        .cells()
        .iter()
        .map(|c| (c.workload, c.extract, c.selection));
    for key in cell_keys.chain(plan.selection_only().iter().copied()) {
        if key.2 != SelectionSpec::Baseline && seen.insert(key) {
            keys.push(key);
        }
    }
    keys
}

/// [`execute`] with explicit robustness configuration.
pub fn execute_with(plan: &Plan, scale: Scale, config: &EngineConfig) -> EngineRun {
    let threads = num_threads().unwrap_or_else(|_| available_threads());
    let cells = plan.cells();

    // ---- Phase 1: prepare one session per (workload, extract). --------
    let t0 = Instant::now();
    let mut session_keys: Vec<(&'static str, ExtractConfig)> = Vec::new();
    {
        let mut seen = std::collections::HashSet::new();
        for c in cells {
            if seen.insert((c.workload, c.extract)) {
                session_keys.push((c.workload, c.extract));
            }
        }
    }
    let run_opts = config.run_options();
    let sessions: HashMap<(&'static str, ExtractConfig), Result<CellRunner, FailureCause>> =
        session_keys
            .iter()
            .zip(parallel_map(&session_keys, threads, |&(name, extract)| {
                quiet_catch_unwind(|| CellRunner::for_workload(name, extract, scale, &run_opts))
                    .unwrap_or_else(|msg| Err(FailureCause::Panic(msg)))
            }))
            .map(|(&k, v)| (k, v))
            .collect();
    let prepare_secs = t0.elapsed().as_secs_f64();

    // ---- Phase 2: run each distinct selection job once. ----------------
    let t0 = Instant::now();
    let selection_keys = selection_keys(plan);
    let selection_results: Vec<Result<SelectionRecord, FailureCause>> =
        parallel_map(&selection_keys, threads, |&(name, extract, spec)| {
            let prepared = match &sessions[&(name, extract)] {
                Ok(p) => p,
                Err(cause) => return Err(cause.clone()),
            };
            let Some(sspec) = spec.strategy_spec() else {
                return Err(FailureCause::Selection(
                    "baseline cells have no selection job".into(),
                ));
            };
            quiet_catch_unwind(|| {
                let selection = prepared.session().select_shared(&sspec);
                SelectionRecord::summarize(name, extract, spec, selection)
            })
            .map_err(FailureCause::Panic)
        });
    let mut selections: Vec<SelectionRecord> = Vec::new();
    let mut selection_index: HashMap<(&'static str, ExtractConfig, SelectionSpec), usize> =
        HashMap::new();
    let mut selection_failures: HashMap<
        (&'static str, ExtractConfig, SelectionSpec),
        FailureCause,
    > = HashMap::new();
    let num_selection_jobs = selection_keys.len();
    for (key, result) in selection_keys.into_iter().zip(selection_results) {
        match result {
            Ok(record) => {
                selection_index.insert(key, selections.len());
                selections.push(record);
            }
            Err(cause) => {
                selection_failures.insert(key, cause);
            }
        }
    }
    let select_secs = t0.elapsed().as_secs_f64();

    // ---- Phase 3: simulate every cell, panic-isolated. -----------------
    let t0 = Instant::now();
    let indexed: Vec<(usize, Cell)> = cells.iter().copied().enumerate().collect();
    let outcomes: Vec<CellOutcome> = parallel_map(&indexed, threads, |&(idx, cell)| {
        let fail = |cause: FailureCause| CellOutcome::Failed(EngineError { cell, cause });
        let prepared = match &sessions[&(cell.workload, cell.extract)] {
            Ok(p) => p,
            Err(cause) => return fail(cause.clone()),
        };
        let selection_key = (cell.workload, cell.extract, cell.selection);
        if let Some(cause) = selection_failures.get(&selection_key) {
            return fail(FailureCause::Selection(cause.to_string()));
        }
        let result = run_once(None, || {
            simulate_cell(idx, cell, prepared, &selections, &selection_index, config)
        });
        match result {
            Ok(result) => CellOutcome::Completed(Box::new(result)),
            Err(cause) => fail(cause),
        }
    });
    let simulate_secs = t0.elapsed().as_secs_f64();

    // ---- Bookkeeping. ---------------------------------------------------
    let mut selection_hits = 0;
    let mut selection_misses = 0;
    let mut selection_compute_secs = 0.0;
    for p in sessions.values().flatten() {
        let s = p.session().selection_cache_stats();
        selection_hits += s.hits;
        selection_misses += s.misses;
        selection_compute_secs += s.compute_secs();
    }
    let mut results: Vec<CellResult> = Vec::new();
    let mut failures: Vec<EngineError> = Vec::new();
    let mut cell_index: HashMap<Cell, usize> = HashMap::new();
    for outcome in outcomes {
        match outcome {
            CellOutcome::Completed(r) => {
                cell_index.insert(r.cell, results.len());
                results.push(*r);
            }
            CellOutcome::Failed(e) => failures.push(e),
        }
    }
    let workloads = workload_infos(scale, cells);

    let mut stats = EngineStats {
        cells_requested: plan.requested(),
        cells_simulated: results.len(),
        selection_jobs: num_selection_jobs,
        selection_hits,
        selection_misses,
        selection_compute_secs,
        prepare_secs,
        select_secs,
        simulate_secs,
        threads,
        cells_deduped: plan.deduped(),
        failed_cells: failures.len(),
    };
    if config.deterministic {
        // Wall-clock is the only nondeterministic content in the
        // artifact; zeroing it makes repeated runs byte-identical.
        stats.selection_compute_secs = 0.0;
        stats.prepare_secs = 0.0;
        stats.select_secs = 0.0;
        stats.simulate_secs = 0.0;
        for r in &mut results {
            r.host_ns = 0;
            r.sim_khz = 0.0;
        }
    }

    EngineRun {
        scale,
        workloads,
        selections,
        cells: results,
        failures,
        stats,
        cell_index,
        selection_index,
    }
}

/// Per-simulation knobs a [`CellRunner`] threads into every
/// [`t1000_cpu::CpuConfig`] it builds: the cycle-fuel watchdog and the
/// fast-path switch. Extracted from [`EngineConfig`] so the runner can
/// serve requests that carry their own limits (the `t1000 serve` daemon).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct RunOptions {
    /// Cycle fuel per simulation (0 = unlimited); exhaustion fails the
    /// cell with [`FailureCause::Timeout`].
    pub max_cycles: u64,
    /// Disable the replay fast path (results are bit-identical
    /// either way; see `docs/FASTPATH.md`).
    pub no_fast_path: bool,
}

impl EngineConfig {
    /// The per-simulation slice of this engine configuration.
    pub fn run_options(&self) -> RunOptions {
        RunOptions {
            max_cycles: self.max_cycles,
            no_fast_path: self.no_fast_path,
        }
    }
}

/// Runs experiment cells for one prepared program, outside any batch
/// plan — the per-cell execution engine extracted from the engine's
/// phase machinery so that long-running services can call it one
/// request at a time ([`crate::plan::Cell`] in, [`CellResult`] out).
///
/// A runner owns a profiled [`Session`] plus the canonical baseline
/// (PFU-less) reference run, which pins the architectural checksum every
/// fused simulation is verified against. The batch engine builds one per
/// (workload, extract) in its prepare phase; the `t1000 serve` daemon
/// builds them on demand from a process-wide
/// [`t1000_core::SessionStore`] and keeps them warm across requests.
///
/// ```
/// use t1000_bench::engine::{CellRunner, RunOptions};
/// use t1000_bench::plan::{Cell, MachineSpec, SelectionSpec};
/// use t1000_core::ExtractConfig;
/// use t1000_workloads::Scale;
///
/// let opts = RunOptions::default();
/// let runner =
///     CellRunner::for_workload("gsm_dec", ExtractConfig::default(), Scale::Test, &opts).unwrap();
/// let cell = Cell::new(
///     "gsm_dec",
///     SelectionSpec::selective_std(Some(2)),
///     MachineSpec::with_pfus(2, 10),
/// );
/// let result = runner.run_cell(cell, &opts).unwrap();
/// assert!(result.cycles < runner.baseline_cycles()); // fusion pays off
/// assert_eq!(result.checksum, runner.expected_checksum()); // and verifies
/// assert!(result.attr.checks_out()); // every cycle attributed
/// ```
pub struct CellRunner {
    session: Arc<Session>,
    expected_checksum: u64,
    /// The canonical baseline run: pins the architectural reference every
    /// fused run is verified against, and doubles as the default
    /// baseline cell's result.
    reference: t1000_cpu::RunResult,
    /// Cycle attribution of the reference run (the baseline cell's attr).
    reference_attr: CycleAttribution,
    /// Host nanoseconds the reference simulation took (the baseline
    /// cell's `host_ns`).
    reference_host_ns: u64,
    /// The options the reference run used; the reference is only reused
    /// for baseline cells requested under identical options.
    prepare_opts: RunOptions,
}

/// A [`TraceSink`] that collects the cycle attribution a cell records:
/// the plain [`AttrCollector`] for batch cells, one with per-PC counters
/// or a [`crate::runstats::TraceWriter`] for an observed `t1000 run`.
pub trait CellSink: TraceSink {
    /// The attribution collected so far.
    fn attribution(&self) -> &CycleAttribution;
}

impl CellSink for AttrCollector {
    fn attribution(&self) -> &CycleAttribution {
        &self.attr
    }
}

fn exec_cause(e: t1000_core::Error, deterministic: fn(String) -> FailureCause) -> FailureCause {
    match e {
        t1000_core::Error::Exec(ExecError::CycleLimit(n)) => {
            FailureCause::Timeout { max_cycles: n }
        }
        t1000_core::Error::SemanticsChanged { .. } => FailureCause::SemanticsChanged,
        other => deterministic(other.to_string()),
    }
}

impl CellRunner {
    /// Prepares a runner for a registry workload: assemble, profile,
    /// simulate the canonical baseline, and verify its checksum against
    /// the workload's bit-exact Rust reference.
    pub fn for_workload(
        name: &'static str,
        extract: ExtractConfig,
        scale: Scale,
        opts: &RunOptions,
    ) -> Result<CellRunner, FailureCause> {
        let workload =
            t1000_workloads::by_name(name, scale).ok_or(FailureCause::UnknownWorkload)?;
        let program = workload
            .program()
            .map_err(|e| FailureCause::Prepare(e.to_string()))?;
        let session = Session::with_extract(program, extract)
            .map_err(|e| exec_cause(e, FailureCause::Prepare))?;
        CellRunner::from_session(Arc::new(session), Some(workload.expected_checksum()), opts)
    }

    /// Prepares a runner for an already-built session (the serving path:
    /// the session typically comes from a shared
    /// [`t1000_core::SessionStore`]). Runs the canonical baseline; when
    /// `expected_checksum` is `None` — an ad-hoc program with no external
    /// reference — the baseline run's own checksum becomes the
    /// expectation every fused run must reproduce.
    pub fn from_session(
        session: Arc<Session>,
        expected_checksum: Option<u64>,
        opts: &RunOptions,
    ) -> Result<CellRunner, FailureCause> {
        // One canonical run pins the architectural reference.
        let mut sink = AttrCollector::new();
        let cpu = Self::cpu_for(&MachineSpec::with_pfus(0, 0), opts);
        let t0 = Instant::now();
        let reference = session
            .run_baseline_observed(cpu, &mut sink)
            .map_err(|e| exec_cause(e, FailureCause::Prepare))?;
        let reference_host_ns = t0.elapsed().as_nanos() as u64;
        let expected = expected_checksum.unwrap_or(reference.sys.checksum);
        if reference.sys.checksum != expected {
            return Err(FailureCause::ChecksumMismatch {
                got: reference.sys.checksum,
                expected,
            });
        }
        Ok(CellRunner {
            session,
            expected_checksum: expected,
            reference,
            reference_attr: sink.attr,
            reference_host_ns,
            prepare_opts: *opts,
        })
    }

    /// The underlying (shared) session.
    pub fn session(&self) -> &Arc<Session> {
        &self.session
    }

    /// The checksum every run of this program must produce.
    pub fn expected_checksum(&self) -> u64 {
        self.expected_checksum
    }

    /// Cycles of the canonical (PFU-less, default-machine) baseline run —
    /// the normaliser for speedups on default-machine cells.
    pub fn baseline_cycles(&self) -> u64 {
        self.reference.timing.cycles
    }

    /// Speedup of `result` over the canonical baseline, the value a
    /// single-program cell document records (`None` for a zero-cycle
    /// run). Meaningful for default-machine cells, whose baseline is the
    /// canonical one.
    pub fn speedup(&self, result: &CellResult) -> Option<f64> {
        (result.cycles > 0).then(|| self.baseline_cycles() as f64 / result.cycles as f64)
    }

    /// Architectural results (output, checksum, exit code) of the
    /// canonical baseline run. Every completed cell reproduced them
    /// exactly: [`CellRunner`] fails any run whose results differ.
    pub fn reference_sys(&self) -> &t1000_cpu::SyscallState {
        &self.reference.sys
    }

    fn cpu_for(machine: &MachineSpec, opts: &RunOptions) -> t1000_cpu::CpuConfig {
        let mut cpu = machine.cpu_config();
        cpu.max_cycles = opts.max_cycles;
        cpu.fast_path = !opts.no_fast_path;
        cpu
    }

    /// Resolves `spec`'s selection through the session's memo cache,
    /// panic-isolated (a selector panic becomes [`FailureCause::Panic`]).
    /// Baseline specs have no selection job and fail typed.
    pub fn select(&self, spec: &SelectionSpec) -> Result<Arc<Selection>, FailureCause> {
        let Some(sspec) = spec.strategy_spec() else {
            return Err(FailureCause::Selection(
                "baseline cells have no selection job".into(),
            ));
        };
        quiet_catch_unwind(|| self.session.select_shared(&sspec)).map_err(FailureCause::Panic)
    }

    /// Simulates `cell` with a pre-resolved `selection` (`None` =
    /// baseline). This is the batch engine's entry point: the engine
    /// resolves selections in its select phase, so a simulation never
    /// touches the memo cache and cache counters stay deterministic. The
    /// canonical baseline cell reuses the reference run when `opts` match
    /// the prepare-time options.
    pub fn run_cell_with(
        &self,
        cell: Cell,
        selection: Option<&Selection>,
        opts: &RunOptions,
    ) -> Result<CellResult, FailureCause> {
        if selection.is_none()
            && cell.selection == SelectionSpec::Baseline
            && cell.machine == MachineSpec::with_pfus(0, 0)
            && *opts == self.prepare_opts
        {
            // The canonical baseline was already simulated during prepare
            // (it pins the architectural reference) — reuse it. The
            // prepare run used the same options, so the reuse is exact.
            return self.finish(
                cell,
                self.reference.clone(),
                self.reference_attr.clone(),
                self.reference_host_ns,
            );
        }
        self.run_cell_observed(cell, selection, opts, &mut AttrCollector::new())
    }

    /// Simulates `cell` with a pre-resolved `selection` (`None` =
    /// baseline) while `sink` observes the pipeline — per-PC stall
    /// counters or an event trace for `t1000 run`. The cell's attribution
    /// is the one `sink` collected. Always simulates: the reference run
    /// is never reused, because it was not observed by `sink`.
    pub fn run_cell_observed<S: CellSink>(
        &self,
        cell: Cell,
        selection: Option<&Selection>,
        opts: &RunOptions,
        sink: &mut S,
    ) -> Result<CellResult, FailureCause> {
        let cpu = Self::cpu_for(&cell.machine, opts);
        let t0 = Instant::now();
        let run = match selection {
            Some(s) => self.session.run_with_observed(s, cpu, sink),
            None => self.session.run_baseline_observed(cpu, sink),
        }
        .map_err(|e| exec_cause(e, FailureCause::Simulate))?;
        let host_ns = t0.elapsed().as_nanos() as u64;
        self.finish(cell, run, sink.attribution().clone(), host_ns)
    }

    /// Simulates `cell` with every configuration of `selection` failing
    /// to load — the graceful-degradation (scalar fallback) path the
    /// engine's `pfu@N` fault injection exercises.
    pub fn run_cell_degraded(
        &self,
        cell: Cell,
        selection: &Selection,
        opts: &RunOptions,
    ) -> Result<CellResult, FailureCause> {
        let cpu = Self::cpu_for(&cell.machine, opts);
        let faulted: Vec<u16> = selection.confs.iter().map(|c| c.conf).collect();
        let mut sink = AttrCollector::new();
        let t0 = Instant::now();
        let run = self
            .session
            .run_degraded_observed(selection, cpu, &faulted, &mut sink)
            .map_err(|e| exec_cause(e, FailureCause::Simulate))?;
        self.finish(cell, run, sink.attr, t0.elapsed().as_nanos() as u64)
    }

    /// Simulates `cell`, resolving its selection through the session's
    /// memo cache first — the one-call form for callers outside a batch
    /// plan (cache hits/misses are recorded, which is exactly what the
    /// serving layer's `cache_stats` wants to observe).
    pub fn run_cell(&self, cell: Cell, opts: &RunOptions) -> Result<CellResult, FailureCause> {
        let selection = match cell.selection {
            SelectionSpec::Baseline => None,
            _ => Some(self.select(&cell.selection)?),
        };
        self.run_cell_with(cell, selection.as_deref(), opts)
    }

    /// [`CellRunner::run_cell`] under the engine's robustness machinery:
    /// one attempt under `catch_unwind` panic isolation, after checking
    /// an optional deadline ([`FailureCause::WallClock`] when it has
    /// passed before the cell starts). The daemon's per-request execution
    /// path.
    // The error carries the full cell key on purpose (callers report it
    // without keeping the request around); one per request, never hot.
    #[allow(clippy::result_large_err)]
    pub fn run_cell_isolated(
        &self,
        cell: Cell,
        opts: &RunOptions,
        deadline: Option<Instant>,
    ) -> Result<CellResult, EngineError> {
        let fail = |cause| EngineError { cell, cause };
        let selection = match cell.selection {
            SelectionSpec::Baseline => None,
            spec => Some(self.select(&spec).map_err(fail)?),
        };
        run_once(deadline, || {
            self.run_cell_with(cell, selection.as_deref(), opts)
        })
        .map_err(fail)
    }

    /// Verification + measurement extraction shared by every run path.
    fn finish(
        &self,
        cell: Cell,
        run: t1000_cpu::RunResult,
        attr: CycleAttribution,
        host_ns: u64,
    ) -> Result<CellResult, FailureCause> {
        debug_assert!(attr.checks_out() && attr.total_cycles == run.timing.cycles);
        if run.sys.checksum != self.expected_checksum {
            return Err(FailureCause::ChecksumMismatch {
                got: run.sys.checksum,
                expected: self.expected_checksum,
            });
        }
        if run.sys != self.reference.sys {
            return Err(FailureCause::SemanticsChanged);
        }
        Ok(CellResult {
            cell,
            cycles: run.timing.cycles,
            base_instructions: run.timing.base_instructions,
            base_ipc: run.timing.base_ipc,
            reconfigurations: run.timing.pfu.reconfigurations,
            conf_hits: run.timing.pfu.conf_hits,
            ext_executed: run.timing.pfu.ext_executed,
            pfu_load_faults: run.timing.pfu.load_faults,
            pfu_prefetch_hits: run.timing.pfu.prefetch_hits,
            pfu_hidden_reload_cycles: run.timing.pfu.hidden_reload_cycles,
            pfu_exposed_reload_cycles: run.timing.pfu.exposed_reload_cycles,
            pfu_stream_words: run.timing.pfu.stream_words,
            branch_accuracy: run.timing.branch.accuracy(),
            checksum: run.sys.checksum,
            host_ns,
            sim_khz: sim_khz(run.timing.cycles, host_ns),
            fast: run.timing.fast,
            attr,
        })
    }
}

/// Runs a cell's simulation once under `catch_unwind` panic isolation,
/// unless the `deadline` has already passed.
fn run_once(
    deadline: Option<Instant>,
    simulate: impl FnOnce() -> Result<CellResult, FailureCause>,
) -> Result<CellResult, FailureCause> {
    if deadline.is_some_and(|d| Instant::now() >= d) {
        return Err(FailureCause::WallClock);
    }
    quiet_catch_unwind(simulate).unwrap_or_else(|msg| Err(FailureCause::Panic(msg)))
}

/// Simulates one cell for the batch engine. Injected faults
/// fire here: `panic@N` panics before the simulation starts; `pfu@N`
/// fails every configuration load of the cell's selection, exercising the
/// graceful-degradation (scalar fallback) path.
fn simulate_cell(
    idx: usize,
    cell: Cell,
    runner: &CellRunner,
    selections: &[SelectionRecord],
    selection_index: &HashMap<(&'static str, ExtractConfig, SelectionSpec), usize>,
    config: &EngineConfig,
) -> Result<CellResult, FailureCause> {
    if config.faults.cell_panics(idx) {
        panic!("injected fault: cell {idx}");
    }
    let opts = config.run_options();
    match selection_index.get(&(cell.workload, cell.extract, cell.selection)) {
        Some(&i) => {
            let selection = selections[i].selection();
            if config.faults.pfu_fault(idx) {
                runner.run_cell_degraded(cell, selection, &opts)
            } else {
                runner.run_cell_with(cell, Some(selection), &opts)
            }
        }
        None => runner.run_cell_with(cell, None, &opts),
    }
}

/// Identity/reference rows for every registry workload `cells` touches,
/// in registry order — the artifact's `workloads` array.
fn workload_infos(scale: Scale, cells: &[Cell]) -> Vec<WorkloadInfo> {
    let mut seen = std::collections::HashSet::new();
    let mut infos = Vec::new();
    for name in t1000_workloads::NAMES {
        if cells.iter().any(|c| c.workload == name) && seen.insert(name) {
            let Some(w): Option<Workload> = t1000_workloads::by_name(name, scale) else {
                continue;
            };
            infos.push(WorkloadInfo {
                name,
                expected_checksum: w.expected_checksum(),
            });
        }
    }
    infos
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::MachineSpec;

    #[test]
    fn parallel_map_preserves_order_and_covers_all_items() {
        let items: Vec<u64> = (0..100).collect();
        for threads in [1, 3, 8] {
            let out = parallel_map(&items, threads, |&x| x * x);
            assert_eq!(out, items.iter().map(|&x| x * x).collect::<Vec<_>>());
        }
    }

    #[test]
    fn parallel_map_handles_empty_input() {
        let out: Vec<u32> = parallel_map(&[] as &[u32], 4, |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn quiet_catch_unwind_returns_the_message() {
        assert_eq!(quiet_catch_unwind(|| 7), Ok(7));
        let err = quiet_catch_unwind(|| -> u32 { panic!("kaboom {}", 1 + 1) });
        assert_eq!(err, Err("kaboom 2".to_string()));
    }

    #[test]
    fn engine_runs_a_small_plan_and_dedups() {
        let mut plan = Plan::new();
        let cell = Cell::new(
            "gsm_dec",
            SelectionSpec::selective_std(Some(2)),
            MachineSpec::with_pfus(2, 10),
        );
        plan.push(cell);
        plan.push(cell); // duplicate request
        plan.push(Cell::new(
            "gsm_dec",
            SelectionSpec::selective_std(Some(2)),
            MachineSpec::with_pfus(2, 100),
        ));
        let run = execute(&plan, Scale::Test);
        assert!(run.failures.is_empty());

        // 1 baseline + 2 machine points, one selection job.
        assert_eq!(run.stats.cells_simulated, 3);
        assert_eq!(run.stats.cells_requested, 3);
        assert_eq!(run.stats.selection_jobs, 1);
        assert_eq!(run.stats.selection_misses, 1);
        assert_eq!(run.stats.failed_cells, 0);

        // Speedups are well-formed and the baseline is its own unit.
        let s = run.speedup(cell).expect("speedup");
        assert!(s > 0.5 && s < 8.0, "speedup {s}");
        assert_eq!(run.speedup(cell.baseline_cell()), Some(1.0));
        assert_eq!(
            run.speedup(Cell::new(
                "epic",
                SelectionSpec::Greedy,
                MachineSpec::with_pfus(2, 10)
            )),
            None
        );

        // Checksums verified against the workload reference.
        let expected = t1000_workloads::by_name("gsm_dec", Scale::Test)
            .unwrap()
            .expected_checksum();
        for c in &run.cells {
            assert_eq!(c.checksum, expected);
            assert_eq!(c.pfu_load_faults, 0);
        }

        // The selection record is reachable from the cell.
        let rec = run.selection(cell).expect("selection record");
        assert_eq!(rec.num_confs, rec.confs.len());
        assert!(run.selection(cell.baseline_cell()).is_none());
    }

    #[test]
    fn engine_matches_direct_session_results() {
        // The engine must report exactly what a hand-rolled run computes.
        let mut plan = Plan::new();
        let cell = Cell::new("epic", SelectionSpec::Greedy, MachineSpec::with_pfus(2, 10));
        plan.push(cell);
        let run = execute(&plan, Scale::Test);

        let w = t1000_workloads::by_name("epic", Scale::Test).unwrap();
        let session = Session::new(w.program().unwrap()).unwrap();
        let sel = session.greedy();
        let base = session
            .run_baseline(t1000_cpu::CpuConfig::baseline())
            .unwrap();
        let fused = session
            .run_with(&sel, t1000_cpu::CpuConfig::with_pfus(2).reconfig(10))
            .unwrap();

        assert_eq!(run.cell(cell).expect("cell").cycles, fused.timing.cycles);
        assert_eq!(
            run.baseline(cell).expect("baseline").cycles,
            base.timing.cycles
        );
        let expect = base.timing.cycles as f64 / fused.timing.cycles as f64;
        assert!((run.speedup(cell).expect("speedup") - expect).abs() < 1e-12);
    }

    #[test]
    fn unknown_workload_fails_its_cells_only() {
        let mut plan = Plan::new();
        let bad = Cell::new(
            "no_such_workload",
            SelectionSpec::Greedy,
            MachineSpec::with_pfus(2, 10),
        );
        let good = Cell::new(
            "gsm_dec",
            SelectionSpec::Greedy,
            MachineSpec::with_pfus(2, 10),
        );
        plan.push(bad);
        plan.push(good);
        let run = execute(&plan, Scale::Test);
        // The bad workload's baseline + fused cell fail; gsm_dec completes.
        assert_eq!(run.stats.failed_cells, 2);
        assert!(run
            .failures
            .iter()
            .all(|e| e.cell.workload == "no_such_workload"));
        assert!(run.speedup(good).is_some());
        assert!(run.cell(bad).is_none());
    }

    #[test]
    fn run_cell_isolated_fails_a_passed_deadline_before_the_cell_starts() {
        let opts = RunOptions::default();
        let runner =
            CellRunner::for_workload("gsm_dec", ExtractConfig::default(), Scale::Test, &opts)
                .unwrap();
        let cell = Cell::new(
            "gsm_dec",
            SelectionSpec::Greedy,
            MachineSpec::with_pfus(2, 10),
        );
        // A deadline that has already passed refuses the cell unstarted.
        let Err(e) = runner.run_cell_isolated(cell, &opts, Some(Instant::now())) else {
            panic!("a passed deadline must refuse the cell");
        };
        assert_eq!(e.cause, FailureCause::WallClock);
        assert_eq!(e.cell, cell);
        assert_eq!(
            e.cause.to_string(),
            "deadline passed before the cell started"
        );
        // Without a deadline the same cell completes and verifies.
        let r = runner
            .run_cell_isolated(cell, &opts, None)
            .unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(r.checksum, runner.expected_checksum());
    }
}
