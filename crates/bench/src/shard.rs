//! Multi-process execution: shard a bench plan's cell space across
//! worker processes and merge the streamed results into one artifact.
//!
//! The coordinator (`t1000 bench --all --shards N`) partitions the plan's
//! cells deterministically ([`partition`]), spawns `N` `t1000 worker`
//! processes — each a full engine with its own `SessionStore`, pinned to
//! one OS thread — and merges the per-cell schema-v6 documents they
//! stream back over newline-delimited JSON-RPC framing (the same framing
//! `t1000 serve` speaks). The merge ([`MergeState`]) verifies every
//! document twice — a wire checksum ([`t1000_core::stable_hash64`] of the
//! document bytes) and the workload's architectural reference checksum —
//! and assembles an [`EngineRun`] whose artifact is **byte-identical**
//! (modulo wall-clock fields, zeroed under `--deterministic`) to the one
//! a single-process run produces.
//!
//! Wire protocol, one JSON document per line:
//!
//! coordinator → worker (one request, then EOF):
//!
//! ```text
//! {"id":0,"method":"run_shard","params":{"plan":"run_all","scale":"test",
//!  "cells":[0,3,5],"selections":[],"deterministic":true,
//!  "no_fast_path":false,"max_cycles":0,"inject":""}}
//! ```
//!
//! worker → coordinator (streamed, then a final id-0 envelope):
//!
//! ```text
//! {"method":"selection","params":{"index":0,"record":{...}}}
//! {"method":"cell","params":{"index":3,"check":"0x…","doc":{...}}}
//! {"method":"cell_failed","params":{"index":5,"kind":"panic","payload":"…","attempts":3}}
//! {"id":0,"result":{"cells":2,"failed":1,"retries":2,...}}
//! ```
//!
//! `index` is always a *global* position: into `plan.cells()` for cells
//! and failures, into [`engine::selection_keys`] for selection records —
//! both derivable from the plan name alone, which is why the wire never
//! carries cell descriptions. Worker crashes (detected as EOF-without-
//! final-response or a nonzero exit) leave their unfinished cells in
//! [`MergeState::missing`]; the coordinator retries them on one
//! replacement worker (with `abort@N` injections stripped) and maps
//! anything still missing into [`FailureCause::Panic`] on the schema-v3
//! `failed_cells` path. See `docs/SERVING.md` and `docs/ARCHITECTURE.md`.

use crate::checkpoint;
use crate::engine::{
    self, CellResult, ConfSummary, EngineConfig, EngineError, EngineRun, EngineStats, FailureCause,
    SelectionRecord,
};
use crate::fault::FaultPlan;
use crate::json::Json;
use crate::plan::{Cell, Plan, SelectionSpec};
use crate::results;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::{BufRead, Write};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use t1000_core::{stable_hash64, ExtractConfig};
use t1000_workloads::Scale;

/// Plans a worker can rebuild from the name on the wire. Sharded
/// execution ships the plan *name*, not the cells: both sides derive the
/// identical cell list (and selection-key list) from the same pure
/// function, so a one-word identifier plus global indices is a complete,
/// tamper-evident description of the work.
pub fn plan_by_name(name: &str) -> Option<Plan> {
    match name {
        "run_all" => Some(crate::plan::run_all_plan()),
        "run_all_strategies" => Some(crate::plan::run_all_plan_with_strategies()),
        _ => None,
    }
}

fn scale_str(scale: Scale) -> &'static str {
    match scale {
        Scale::Test => "test",
        Scale::Full => "full",
    }
}

fn parse_hex64(s: &str) -> Option<u64> {
    u64::from_str_radix(s.strip_prefix("0x")?, 16).ok()
}

// ---------------------------------------------------------------------
// Partitioning
// ---------------------------------------------------------------------

/// Deterministic, group-atomic partition of `indices` (global positions
/// into `plan.cells()`) across `shards` workers: cells are grouped by
/// (workload, extraction config) in first-appearance order over the
/// *full* plan, and group `i` goes to shard `i % shards`. Group-atomicity
/// means each profiling session is built by exactly one worker, every
/// selection job lands whole on one shard, and every cell travels with
/// the baseline it is normalised against. Grouping over the full plan
/// (not `indices`) keeps the assignment stable under `--resume`, where
/// already-completed cells are simply absent from `indices`.
pub fn partition(plan: &Plan, indices: &[usize], shards: usize) -> Vec<Vec<usize>> {
    let cells = plan.cells();
    let groups = group_map(plan);
    let shards = shards.max(1);
    let mut out = vec![Vec::new(); shards];
    for &i in indices {
        let g = groups[&(cells[i].workload, cells[i].extract)];
        out[g % shards].push(i);
    }
    for shard in &mut out {
        shard.sort_unstable();
    }
    out
}

/// (workload, extraction config) → group index, in first-appearance
/// order over the full plan — the one numbering both [`partition`] and
/// the selection-key assignment agree on.
fn group_map(plan: &Plan) -> HashMap<(&'static str, ExtractConfig), usize> {
    let mut groups: HashMap<(&'static str, ExtractConfig), usize> = HashMap::new();
    for c in plan.cells() {
        let next = groups.len();
        groups.entry((c.workload, c.extract)).or_insert(next);
    }
    groups
}

/// Assigns selection-key indices (into [`engine::selection_keys`]) to
/// shards by the same group → `group % shards` rule as [`partition`], so
/// every selection job lands on the shard that owns its group's cells.
/// Needed because the merged artifact records *all* selection jobs even
/// when `--resume` restored every cell that depends on them — exactly as
/// the single-process engine recomputes selections on resume.
pub fn partition_selections(plan: &Plan, keys: &[usize], shards: usize) -> Vec<Vec<usize>> {
    let all = engine::selection_keys(plan);
    let groups = group_map(plan);
    let shards = shards.max(1);
    let mut out = vec![Vec::new(); shards];
    for &k in keys {
        let (workload, extract, _) = all[k];
        let g = groups[&(workload, extract)];
        out[g % shards].push(k);
    }
    for shard in &mut out {
        shard.sort_unstable();
    }
    out
}

/// Local cell indices a worker's sub-plan will assign to `assigned`
/// (global indices): mirrors [`Plan::push`], where an implied baseline
/// occupies its own slot the first time it is (explicitly or implicitly)
/// reached. Needed to rewrite `--inject` arms into worker-local
/// numbering — exact for any assignment, group-atomic or not.
fn local_indices(plan_cells: &[Cell], assigned: &[usize]) -> HashMap<usize, usize> {
    let mut order: Vec<Cell> = Vec::new();
    let mut seen: HashSet<Cell> = HashSet::new();
    for &g in assigned {
        let cell = plan_cells[g];
        let base = cell.baseline_cell();
        if seen.insert(base) {
            order.push(base);
        }
        if seen.insert(cell) {
            order.push(cell);
        }
    }
    let pos: HashMap<Cell, usize> = order.iter().enumerate().map(|(i, &c)| (c, i)).collect();
    assigned.iter().map(|&g| (g, pos[&plan_cells[g]])).collect()
}

/// The slice of `faults` a worker assigned `cells` should receive, with
/// per-cell arms rewritten from global to worker-local indices.
fn local_faults(faults: &FaultPlan, plan_cells: &[Cell], assigned: &[usize]) -> FaultPlan {
    let map = local_indices(plan_cells, assigned);
    faults.remap_cells(|g| map.get(&g).copied())
}

// ---------------------------------------------------------------------
// FailureCause wire round-trip
// ---------------------------------------------------------------------

/// Encodes a failure cause as `(kind, payload)` for the wire. `kind` is
/// the artifact's stable snake_case tag ([`FailureCause::kind`]); the
/// payload carries the variant's data so [`cause_from_wire`] rebuilds a
/// cause whose `kind()`/`Display`/`retryable()` are identical — which is
/// what keeps merged `failed_cells` entries byte-identical.
pub fn cause_to_wire(cause: &FailureCause) -> (&'static str, String) {
    let payload = match cause {
        FailureCause::Prepare(m)
        | FailureCause::Selection(m)
        | FailureCause::Simulate(m)
        | FailureCause::Panic(m) => m.clone(),
        FailureCause::Timeout { max_cycles } => max_cycles.to_string(),
        FailureCause::ChecksumMismatch { got, expected } => {
            format!("0x{got:016x},0x{expected:016x}")
        }
        FailureCause::UnknownWorkload
        | FailureCause::WallClock
        | FailureCause::SemanticsChanged => String::new(),
    };
    (cause.kind(), payload)
}

/// Decodes a `(kind, payload)` pair produced by [`cause_to_wire`].
pub fn cause_from_wire(kind: &str, payload: &str) -> Result<FailureCause, String> {
    match kind {
        "unknown_workload" => Ok(FailureCause::UnknownWorkload),
        "prepare" => Ok(FailureCause::Prepare(payload.to_string())),
        "selection" => Ok(FailureCause::Selection(payload.to_string())),
        "simulate" => Ok(FailureCause::Simulate(payload.to_string())),
        "timeout" => payload
            .parse()
            .map(|max_cycles| FailureCause::Timeout { max_cycles })
            .map_err(|_| format!("bad timeout payload {payload:?}")),
        "wall_clock" => Ok(FailureCause::WallClock),
        "checksum_mismatch" => {
            let (got, expected) = payload
                .split_once(',')
                .ok_or_else(|| format!("bad checksum_mismatch payload {payload:?}"))?;
            match (parse_hex64(got), parse_hex64(expected)) {
                (Some(got), Some(expected)) => Ok(FailureCause::ChecksumMismatch { got, expected }),
                _ => Err(format!("bad checksum_mismatch payload {payload:?}")),
            }
        }
        "semantics_changed" => Ok(FailureCause::SemanticsChanged),
        "panic" => Ok(FailureCause::Panic(payload.to_string())),
        other => Err(format!("unknown failure kind {other:?}")),
    }
}

// ---------------------------------------------------------------------
// Wire documents
// ---------------------------------------------------------------------

/// The coordinator's one request to a worker. `selections` lists the
/// global selection-key indices the worker must compute *in addition* to
/// the jobs its assigned cells already imply — needed under `--resume`,
/// where a fully-restored group still owes its selection records.
pub fn shard_request(
    plan_name: &str,
    scale: Scale,
    cells: &[usize],
    selections: &[usize],
    config: &EngineConfig,
    faults: &FaultPlan,
) -> Json {
    Json::obj(vec![
        ("id", Json::UInt(0)),
        ("method", Json::Str("run_shard".to_string())),
        (
            "params",
            Json::obj(vec![
                ("plan", Json::Str(plan_name.to_string())),
                ("scale", Json::Str(scale_str(scale).to_string())),
                (
                    "cells",
                    Json::Arr(cells.iter().map(|&i| Json::UInt(i as u64)).collect()),
                ),
                (
                    "selections",
                    Json::Arr(selections.iter().map(|&i| Json::UInt(i as u64)).collect()),
                ),
                ("deterministic", Json::Bool(config.deterministic)),
                ("no_fast_path", Json::Bool(config.no_fast_path)),
                ("max_cycles", Json::UInt(config.max_cycles)),
                ("inject", Json::Str(faults.render())),
            ]),
        ),
    ])
}

/// A worker's per-cell event: the global index, the schema-v6 cell
/// document (`speedup` null — the coordinator recomputes it against the
/// merged baseline), and the wire checksum: [`stable_hash64`] over the
/// document's compact rendering, verified at merge time.
pub fn cell_event(index: usize, result: &CellResult) -> Json {
    let doc = results::cell_result_json(result, None);
    let check = stable_hash64(doc.to_string_compact().as_bytes());
    Json::obj(vec![
        ("method", Json::Str("cell".to_string())),
        (
            "params",
            Json::obj(vec![
                ("index", Json::UInt(index as u64)),
                ("check", Json::Str(format!("0x{check:016x}"))),
                ("doc", doc),
            ]),
        ),
    ])
}

/// A worker's per-selection event: the global selection-key index and the
/// record's schema-v6 summary document.
pub fn selection_event(index: usize, record: &SelectionRecord) -> Json {
    Json::obj(vec![
        ("method", Json::Str("selection".to_string())),
        (
            "params",
            Json::obj(vec![
                ("index", Json::UInt(index as u64)),
                ("record", results::selection_json(record)),
            ]),
        ),
    ])
}

/// A worker's per-failure event ([`cause_to_wire`] encoding).
pub fn failure_event(index: usize, error: &EngineError) -> Json {
    let (kind, payload) = cause_to_wire(&error.cause);
    Json::obj(vec![
        ("method", Json::Str("cell_failed".to_string())),
        (
            "params",
            Json::obj(vec![
                ("index", Json::UInt(index as u64)),
                ("kind", Json::Str(kind.to_string())),
                ("payload", Json::Str(payload)),
                ("attempts", Json::UInt(u64::from(error.attempts))),
            ]),
        ),
    ])
}

// ---------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------

/// Runs the `t1000 worker` protocol: read one `run_shard` request line
/// from `input`, execute the assigned cells on an in-process engine, and
/// stream `selection`/`cell`/`cell_failed` events to `output` followed by
/// the final id-0 result envelope. Returns the process exit code (a
/// malformed request gets an error envelope and a nonzero code).
pub fn run_worker(mut input: impl BufRead, output: &mut impl Write) -> i32 {
    let mut line = String::new();
    let request = match input.read_line(&mut line) {
        Ok(0) => Err("no request on stdin".to_string()),
        Ok(_) => Ok(line.trim().to_string()),
        Err(e) => Err(format!("reading request: {e}")),
    };
    match request.and_then(|line| worker_serve(&line, output)) {
        Ok(()) => 0,
        Err(msg) => {
            let envelope = Json::obj(vec![
                ("id", Json::UInt(0)),
                (
                    "error",
                    Json::obj(vec![
                        ("code", Json::UInt(400)),
                        ("message", Json::Str(msg.clone())),
                    ]),
                ),
            ]);
            let _ = writeln!(output, "{}", envelope.to_string_compact());
            let _ = output.flush();
            eprintln!("[t1000-worker] bad request: {msg}");
            2
        }
    }
}

fn worker_serve(line: &str, output: &mut impl Write) -> Result<(), String> {
    let req = Json::parse(line).map_err(|e| e.to_string())?;
    match req.get("method").and_then(Json::as_str) {
        Some("run_shard") => {}
        other => return Err(format!("expected method run_shard, got {other:?}")),
    }
    let params = req.get("params").ok_or("missing params")?;
    let job = parse_shard_params(params)?;
    execute_shard(&job, output)?;
    output.flush().map_err(|e| e.to_string())
}

/// One validated `run_shard` request: the plan (rebuilt from its wire
/// name), the assigned global cell/selection-key indices, and the engine
/// knobs.
struct ShardJob {
    plan: Plan,
    scale: Scale,
    indices: Vec<usize>,
    key_indices: Vec<usize>,
    config: EngineConfig,
}

/// Validates the `params` object of a `run_shard` request into a
/// [`ShardJob`]. Rejects unknown plans, bad scales, and out-of-range
/// indices with messages suitable for an error envelope.
fn parse_shard_params(params: &Json) -> Result<ShardJob, String> {
    let plan_name = params
        .get("plan")
        .and_then(Json::as_str)
        .ok_or("missing plan")?;
    let plan = plan_by_name(plan_name).ok_or_else(|| format!("unknown plan {plan_name:?}"))?;
    let scale = match params.get("scale").and_then(Json::as_str) {
        Some("test") => Scale::Test,
        Some("full") => Scale::Full,
        other => return Err(format!("bad scale {other:?}")),
    };
    let n_cells = plan.cells().len();
    let mut indices: Vec<usize> = Vec::new();
    for v in params
        .get("cells")
        .and_then(Json::as_array)
        .ok_or("missing cells")?
    {
        let i = v.as_u64().ok_or("bad cell index")? as usize;
        if i >= n_cells {
            return Err(format!("cell index {i} out of range (plan has {n_cells})"));
        }
        indices.push(i);
    }
    let n_keys = engine::selection_keys(&plan).len();
    let mut key_indices: Vec<usize> = Vec::new();
    for v in params
        .get("selections")
        .and_then(Json::as_array)
        .unwrap_or(&[])
    {
        let k = v.as_u64().ok_or("bad selection index")? as usize;
        if k >= n_keys {
            return Err(format!(
                "selection index {k} out of range (plan has {n_keys})"
            ));
        }
        key_indices.push(k);
    }
    let faults = match params.get("inject").and_then(Json::as_str) {
        Some(text) => FaultPlan::parse(text)?,
        None => FaultPlan::none(),
    };
    let config = EngineConfig {
        max_cycles: params.get("max_cycles").and_then(Json::as_u64).unwrap_or(0),
        deterministic: params
            .get("deterministic")
            .and_then(Json::as_bool)
            .unwrap_or(false),
        no_fast_path: params
            .get("no_fast_path")
            .and_then(Json::as_bool)
            .unwrap_or(false),
        faults,
        ..EngineConfig::default()
    };
    Ok(ShardJob {
        plan,
        scale,
        indices,
        key_indices,
        config,
    })
}

/// Executes a parsed [`ShardJob`] on an in-process engine and streams the
/// `selection`/`cell`/`cell_failed` events plus the final id-0 result
/// envelope to `output` — the worker-side half of the shard wire
/// protocol.
fn execute_shard(job: &ShardJob, output: &mut impl Write) -> Result<(), String> {
    let mut emit = |doc: Json| -> Result<(), String> {
        writeln!(output, "{}", doc.to_string_compact()).map_err(|e| e.to_string())
    };
    let cells = job.plan.cells();
    let keys = engine::selection_keys(&job.plan);

    // The sub-plan: assigned cells pushed in global order. For the
    // coordinator's group-atomic partitions this reproduces exactly the
    // assigned set (every baseline travels with its group and precedes
    // its users); for arbitrary assignments the plan machinery adds the
    // implied baselines, which are simulated but filtered out below.
    let mut sub = Plan::new();
    for &i in &job.indices {
        sub.push(cells[i]);
    }
    // Explicitly-requested selection jobs (resume path). `push_selection`
    // appends the implied baseline cell after the assigned ones, so the
    // fault plan's local indices stay valid; the extra baseline result is
    // filtered from the wire by the assigned-set check below.
    for &k in &job.key_indices {
        let (workload, extract, spec) = keys[k];
        sub.push_selection(workload, extract, spec);
    }
    let run = engine::execute_with(&sub, job.scale, &job.config);

    // Map everything back to global numbering before it hits the wire.
    let global_cell: HashMap<Cell, usize> =
        cells.iter().enumerate().map(|(i, &c)| (c, i)).collect();
    let global_selection: HashMap<(&'static str, ExtractConfig, SelectionSpec), usize> =
        keys.into_iter().enumerate().map(|(i, k)| (k, i)).collect();
    let assigned: HashSet<usize> = job.indices.iter().copied().collect();

    for s in &run.selections {
        if let Some(&gi) = global_selection.get(&(s.workload, s.extract, s.spec)) {
            emit(selection_event(gi, s))?;
        }
    }
    for c in &run.cells {
        match global_cell.get(&c.cell) {
            Some(&gi) if assigned.contains(&gi) => emit(cell_event(gi, c))?,
            _ => {}
        }
    }
    for e in &run.failures {
        match global_cell.get(&e.cell) {
            Some(&gi) if assigned.contains(&gi) => emit(failure_event(gi, e))?,
            _ => {}
        }
    }
    let stats = &run.stats;
    emit(Json::obj(vec![
        ("id", Json::UInt(0)),
        (
            "result",
            Json::obj(vec![
                ("cells", Json::UInt(run.cells.len() as u64)),
                ("failed", Json::UInt(run.failures.len() as u64)),
                ("retries", Json::UInt(stats.retries)),
                ("prepare_secs", Json::Float(stats.prepare_secs)),
                ("select_secs", Json::Float(stats.select_secs)),
                ("simulate_secs", Json::Float(stats.simulate_secs)),
                (
                    "selection_compute_secs",
                    Json::Float(stats.selection_compute_secs),
                ),
            ]),
        ),
    ]))
}

// ---------------------------------------------------------------------
// Merge
// ---------------------------------------------------------------------

/// A worker's final self-reported totals (wall-clock and retry counters;
/// everything else in the merged stats is derived from the plan).
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardStats {
    pub retries: u64,
    pub prepare_secs: f64,
    pub select_secs: f64,
    pub simulate_secs: f64,
    pub selection_compute_secs: f64,
}

/// What one worker output line turned out to be.
#[derive(Debug)]
pub enum WireLine {
    /// A cell document was verified and merged.
    Cell,
    /// Any other event (selection record, recorded failure).
    Event,
    /// The shard's final id-0 result envelope.
    Done(ShardStats),
    /// The worker rejected the request with an error envelope.
    Failed(String),
}

/// Merges worker-streamed documents back into one [`EngineRun`].
/// Process-free by construction: the coordinator feeds it lines read from
/// worker pipes, and tests feed it events synthesized from in-process
/// runs — the merge math is identical.
pub struct MergeState {
    scale: Scale,
    cells: Vec<Cell>,
    keys: Vec<(&'static str, ExtractConfig, SelectionSpec)>,
    /// Workload → architectural reference checksum, recomputed locally —
    /// a worker cannot vouch for its own results.
    expected: HashMap<&'static str, u64>,
    merged: BTreeMap<usize, CellResult>,
    selections: BTreeMap<usize, SelectionRecord>,
    failures: BTreeMap<usize, (FailureCause, u32)>,
    restored: usize,
}

impl MergeState {
    pub fn new(plan: &Plan, scale: Scale) -> MergeState {
        let cells = plan.cells().to_vec();
        let expected = engine::workload_infos(scale, &cells)
            .into_iter()
            .map(|w| (w.name, w.expected_checksum))
            .collect();
        MergeState {
            scale,
            keys: engine::selection_keys(plan),
            cells,
            expected,
            merged: BTreeMap::new(),
            selections: BTreeMap::new(),
            failures: BTreeMap::new(),
            restored: 0,
        }
    }

    /// Pre-populates a cell restored from the coordinator's `--resume`
    /// checkpoint, so no shard is asked to re-simulate it.
    pub fn restore(&mut self, index: usize, result: CellResult) {
        if self.merged.insert(index, result).is_none() {
            self.restored += 1;
        }
    }

    /// Cells restored via [`MergeState::restore`].
    pub fn restored_count(&self) -> usize {
        self.restored
    }

    /// The merged cells so far, keyed by global plan index — the
    /// coordinator's checkpoint body.
    pub fn completed(&self) -> &BTreeMap<usize, CellResult> {
        &self.merged
    }

    /// Cells neither merged nor recorded as failed — the coordinator's
    /// crash-retry work list.
    pub fn missing(&self) -> Vec<usize> {
        (0..self.cells.len())
            .filter(|i| !self.merged.contains_key(i) && !self.failures.contains_key(i))
            .collect()
    }

    /// Selection keys with no merged record yet — what the resume path
    /// assigns explicitly and the crash-retry worker recomputes.
    pub fn missing_selections(&self) -> Vec<usize> {
        (0..self.keys.len())
            .filter(|k| !self.selections.contains_key(k))
            .collect()
    }

    /// Records a coordinator-observed failure for a cell no worker
    /// reported (a crash that survived the retry wave).
    pub fn fail(&mut self, index: usize, cause: FailureCause, attempts: u32) {
        if index < self.cells.len() && !self.merged.contains_key(&index) {
            self.failures.entry(index).or_insert((cause, attempts));
        }
    }

    /// Dispatches one worker output line. A verification failure (wire
    /// checksum, architectural checksum, malformed document) is an `Err`:
    /// the line is rejected, the cell stays [`MergeState::missing`], and
    /// the coordinator's retry/report machinery picks it up.
    pub fn on_line(&mut self, line: &str) -> Result<WireLine, String> {
        let doc = Json::parse(line).map_err(|e| format!("bad worker line: {e}"))?;
        if let Some(result) = doc.get("result") {
            let f = |k: &str| result.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            return Ok(WireLine::Done(ShardStats {
                retries: result.get("retries").and_then(Json::as_u64).unwrap_or(0),
                prepare_secs: f("prepare_secs"),
                select_secs: f("select_secs"),
                simulate_secs: f("simulate_secs"),
                selection_compute_secs: f("selection_compute_secs"),
            }));
        }
        if let Some(err) = doc.get("error") {
            let msg = err
                .get("message")
                .and_then(Json::as_str)
                .unwrap_or("unknown error")
                .to_string();
            return Ok(WireLine::Failed(msg));
        }
        let params = doc.get("params").ok_or("worker event missing params")?;
        let index = params
            .get("index")
            .and_then(Json::as_u64)
            .ok_or("worker event missing index")? as usize;
        match doc.get("method").and_then(Json::as_str) {
            Some("cell") => {
                self.on_cell(index, params)?;
                Ok(WireLine::Cell)
            }
            Some("selection") => {
                self.on_selection(index, params)?;
                Ok(WireLine::Event)
            }
            Some("cell_failed") => {
                self.on_cell_failed(index, params)?;
                Ok(WireLine::Event)
            }
            other => Err(format!("unknown worker event {other:?}")),
        }
    }

    fn on_cell(&mut self, index: usize, params: &Json) -> Result<(), String> {
        let cell = *self
            .cells
            .get(index)
            .ok_or_else(|| format!("cell index {index} out of range"))?;
        let doc = params.get("doc").ok_or("cell event missing doc")?;
        let claimed = params
            .get("check")
            .and_then(Json::as_str)
            .and_then(parse_hex64)
            .ok_or("cell event missing check")?;
        let got = stable_hash64(doc.to_string_compact().as_bytes());
        if got != claimed {
            return Err(format!(
                "cell {index}: wire checksum 0x{got:016x} != claimed 0x{claimed:016x}"
            ));
        }
        let result = results::cell_result_from_json(doc, cell)?;
        // Defense in depth: the wire hash proves transport integrity; the
        // architectural checksum proves the simulation itself converged on
        // the locally recomputed workload reference.
        if let Some(&reference) = self.expected.get(cell.workload) {
            if result.checksum != reference {
                return Err(format!(
                    "cell {index} ({}): checksum 0x{:016x} diverges from reference 0x{reference:016x}",
                    cell.workload, result.checksum
                ));
            }
        }
        // Duplicate deliveries (a cell re-run on the retry worker after a
        // mid-stream crash) are deterministic replicas; first write wins.
        self.merged.entry(index).or_insert(result);
        Ok(())
    }

    fn on_selection(&mut self, index: usize, params: &Json) -> Result<(), String> {
        let &(workload, extract, spec) = self
            .keys
            .get(index)
            .ok_or_else(|| format!("selection index {index} out of range"))?;
        let rec = params
            .get("record")
            .ok_or("selection event missing record")?;
        let u = |k: &str| -> Result<u64, String> {
            rec.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("selection {index}: bad {k}"))
        };
        let confs_json = rec
            .get("confs")
            .and_then(Json::as_array)
            .ok_or_else(|| format!("selection {index}: missing confs"))?;
        let mut confs = Vec::with_capacity(confs_json.len());
        for c in confs_json {
            let cu = |k: &str| -> Result<u64, String> {
                c.get(k)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("selection {index}: bad conf {k}"))
            };
            confs.push(ConfSummary {
                luts: cu("luts")? as u32,
                depth: cu("depth")? as u32,
                width: cu("width")? as u8,
                seq_len: cu("seq_len")? as usize,
                num_sites: cu("num_sites")? as usize,
                total_gain: cu("total_gain")?,
            });
        }
        let record = SelectionRecord::from_summaries(
            workload,
            extract,
            spec,
            u("num_confs")? as usize,
            u("num_sites")? as usize,
            confs,
        );
        self.selections.entry(index).or_insert(record);
        Ok(())
    }

    fn on_cell_failed(&mut self, index: usize, params: &Json) -> Result<(), String> {
        if index >= self.cells.len() {
            return Err(format!("cell index {index} out of range"));
        }
        let kind = params
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("cell_failed event missing kind")?;
        let payload = params.get("payload").and_then(Json::as_str).unwrap_or("");
        let attempts = params.get("attempts").and_then(Json::as_u64).unwrap_or(0) as u32;
        let cause = cause_from_wire(kind, payload)?;
        self.failures.entry(index).or_insert((cause, attempts));
        Ok(())
    }

    /// Assembles the merged run with *canonical* engine stats — the
    /// numbers the in-process engine would report for `plan`: dedup
    /// counters from the plan, one selection-cache miss per selection
    /// job, the coordinator's own thread count. The coordinator is a pure
    /// merge (it computes nothing), so deriving these from the plan
    /// rather than summing worker-local views is what keeps the merged
    /// artifact byte-identical to the single-process one. Only wall-clock
    /// totals and in-cell retry counts come from the workers, and
    /// `deterministic` zeroes the former.
    pub fn finish(self, plan: &Plan, totals: ShardStats, deterministic: bool) -> EngineRun {
        let MergeState {
            scale,
            cells,
            keys,
            expected: _,
            merged,
            selections,
            failures,
            restored,
        } = self;
        let workloads = engine::workload_infos(scale, &cells);
        let mut merged_cells: Vec<CellResult> = merged.into_values().collect();
        if deterministic {
            // Workers zero their own wall-clock before it hits the wire,
            // but checkpoint-restored cells still carry the interrupted
            // run's real timings — zero them the same way the in-process
            // engine does at assembly.
            for r in &mut merged_cells {
                r.host_ns = 0;
                r.sim_khz = 0.0;
            }
        }
        let merged_selections: Vec<SelectionRecord> = selections.into_values().collect();
        let merged_failures: Vec<EngineError> = failures
            .into_iter()
            .map(|(i, (cause, attempts))| EngineError {
                cell: cells[i],
                cause,
                attempts,
            })
            .collect();
        let selection_jobs = keys.len();
        let mut stats = EngineStats {
            cells_requested: plan.requested(),
            cells_simulated: merged_cells.len(),
            selection_jobs,
            selection_hits: 0,
            selection_misses: selection_jobs as u64,
            selection_compute_secs: totals.selection_compute_secs,
            prepare_secs: totals.prepare_secs,
            select_secs: totals.select_secs,
            simulate_secs: totals.simulate_secs,
            threads: engine::num_threads(),
            cells_deduped: plan.deduped(),
            retries: totals.retries,
            failed_cells: merged_failures.len(),
            cells_restored: restored,
        };
        if deterministic {
            stats.selection_compute_secs = 0.0;
            stats.prepare_secs = 0.0;
            stats.select_secs = 0.0;
            stats.simulate_secs = 0.0;
        }
        EngineRun::assemble(
            scale,
            workloads,
            merged_selections,
            merged_cells,
            merged_failures,
            stats,
        )
    }
}

// ---------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------

/// Everything a coordinator run produced: the merged run plus the shard
/// topology sidecar (written next to the artifact as
/// `<artifact>.shards.json`, asserted by `--expect shards=N`).
pub struct ShardedRun {
    pub run: EngineRun,
    pub sidecar: Json,
}

struct WaveCtx<'a> {
    exe: &'a std::path::Path,
    plan_name: &'a str,
    scale: Scale,
    config: &'a EngineConfig,
    merge: &'a Mutex<MergeState>,
    totals: &'a Mutex<ShardStats>,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One shard's dispatch: its assigned global cells and selection keys
/// and the worker-local fault plan.
struct WaveEntry {
    shard: usize,
    cells: Vec<usize>,
    keys: Vec<usize>,
    faults: FaultPlan,
}

/// Executes `plan` (named `plan_name` on the wire) across `shards`
/// worker processes and merges the streamed results. Honors the
/// coordinator-side parts of `config` — checkpoint/resume, fault
/// injection (cell arms are forwarded to the owning worker, I/O arms
/// stay local), determinism — and forwards the per-simulation knobs to
/// every worker. Workers run single-threaded (`T1000_THREADS=1`): the
/// process is the unit of parallelism, so `--shards N` vs `--shards 1`
/// is an apples-to-apples scaling comparison.
pub fn run_sharded(
    plan: &Plan,
    plan_name: &str,
    scale: Scale,
    shards: usize,
    config: &EngineConfig,
) -> Result<ShardedRun, String> {
    let shards = shards.max(1);
    if !plan.selection_only().is_empty() {
        return Err("sharded execution supports cell-only plans".to_string());
    }
    let exe =
        std::env::current_exe().map_err(|e| format!("cannot locate the t1000 binary: {e}"))?;

    let mut merge = MergeState::new(plan, scale);
    // Resume: cells any previous run — sharded or single-process, the
    // checkpoint format is shared — already completed are restored and
    // never assigned to a worker.
    if let Some(path) = &config.checkpoint {
        if config.resume && path.exists() {
            match checkpoint::load(path, scale) {
                Ok(restored) => {
                    for (i, cell) in plan.cells().iter().enumerate() {
                        if let Some(r) = restored.get(&checkpoint::cell_key(cell)) {
                            merge.restore(i, CellResult::from_restored(*cell, r));
                        }
                    }
                }
                Err(e) => eprintln!("[t1000-bench] ignoring unusable checkpoint: {e}"),
            }
        }
    }
    let restored_cells = merge.restored_count();

    let remaining = merge.missing();
    let assignment = partition(plan, &remaining, shards);
    let per_shard: Vec<usize> = assignment.iter().map(Vec::len).collect();

    // Selection keys no remaining cell implies (their whole group was
    // restored from the checkpoint) still owe their records: the
    // single-process engine recomputes every selection on resume, and
    // byte-identity demands we do too. Assign each orphan key to the
    // shard that owns its group; on a fresh run this set is empty.
    let all_keys = engine::selection_keys(plan);
    let key_index: HashMap<(&'static str, ExtractConfig, SelectionSpec), usize> = all_keys
        .iter()
        .copied()
        .enumerate()
        .map(|(i, k)| (k, i))
        .collect();
    let covered: HashSet<usize> = remaining
        .iter()
        .filter_map(|&i| {
            let c = plan.cells()[i];
            key_index
                .get(&(c.workload, c.extract, c.selection))
                .copied()
        })
        .collect();
    let orphans: Vec<usize> = (0..all_keys.len())
        .filter(|k| !covered.contains(k))
        .collect();
    let key_assignment = partition_selections(plan, &orphans, shards);

    let merge = Mutex::new(merge);
    let totals = Mutex::new(ShardStats::default());
    let checkpoint_writes = AtomicU32::new(0);
    // Mirrors the in-process engine: after every completed cell, flush
    // the whole completed set atomically (same `io@checkpoint` fault
    // accounting, same kill-anywhere recovery guarantee).
    let flush = |m: &MergeState| {
        if let Some(path) = &config.checkpoint {
            let attempt = checkpoint_writes.fetch_add(1, Ordering::Relaxed) + 1;
            if config.faults.checkpoint_write_fails(attempt) {
                eprintln!(
                    "[t1000-bench] injected checkpoint I/O failure (write {attempt}); continuing"
                );
            } else if let Err(e) = checkpoint::write(path, scale, m.completed()) {
                eprintln!("[t1000-bench] checkpoint write failed: {e}; continuing");
            }
        }
    };
    let ctx = WaveCtx {
        exe: &exe,
        plan_name,
        scale,
        config,
        merge: &merge,
        totals: &totals,
    };

    let wave: Vec<WaveEntry> = assignment
        .into_iter()
        .zip(key_assignment)
        .enumerate()
        .filter(|(_, (cells, keys))| !cells.is_empty() || !keys.is_empty())
        .map(|(s, (cells, keys))| WaveEntry {
            shard: s,
            faults: local_faults(&config.faults, plan.cells(), &cells),
            cells,
            keys,
        })
        .collect();
    let crashed = drive_wave(&ctx, &wave, &flush);
    let mut worker_crashes = crashed.len();

    // Crash recovery: every cell (and selection record) still
    // unaccounted for is retried on one replacement worker, with
    // process-abort injections stripped so the retry can complete.
    // Anything missing after that is reported on the schema-v3
    // `failed_cells` path.
    let mut retried: Vec<usize> = Vec::new();
    let (missing, missing_sel) = {
        let m = lock(&merge);
        (m.missing(), m.missing_selections())
    };
    if !missing.is_empty() || !missing_sel.is_empty() {
        eprintln!(
            "[t1000-bench] {} cell(s) and {} selection(s) unaccounted for after the first wave; retrying on a fresh worker",
            missing.len(),
            missing_sel.len()
        );
        let stripped = config.faults.without_aborts();
        retried = missing.clone();
        let entry = WaveEntry {
            shard: shards,
            faults: local_faults(&stripped, plan.cells(), &missing),
            cells: missing,
            keys: missing_sel,
        };
        worker_crashes += drive_wave(&ctx, &[entry], &flush).len();
        let mut m = lock(&merge);
        for i in m.missing() {
            m.fail(
                i,
                FailureCause::Panic(format!("worker process crashed before completing cell {i}")),
                1,
            );
        }
    }

    let totals = totals
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let merge = merge
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let run = merge.finish(plan, totals, config.deterministic);
    let sidecar = Json::obj(vec![
        ("schema_version", Json::UInt(3)),
        ("kind", Json::Str("t1000.bench-shards".to_string())),
        ("shards", Json::UInt(shards as u64)),
        (
            "cells_per_shard",
            Json::Arr(per_shard.iter().map(|&n| Json::UInt(n as u64)).collect()),
        ),
        ("cells_restored", Json::UInt(restored_cells as u64)),
        ("worker_crashes", Json::UInt(worker_crashes as u64)),
        (
            "retried_cells",
            Json::Arr(retried.iter().map(|&i| Json::UInt(i as u64)).collect()),
        ),
    ]);
    Ok(ShardedRun { run, sidecar })
}

/// Spawns one worker per wave entry, drives them concurrently, and
/// returns the shard labels whose workers crashed (nonzero exit, or EOF
/// before the final response).
fn drive_wave(
    ctx: &WaveCtx<'_>,
    wave: &[WaveEntry],
    flush: &(dyn Fn(&MergeState) + Sync),
) -> Vec<usize> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = wave
            .iter()
            .map(|e| {
                scope.spawn(move || {
                    let result = drive_one(ctx, e.shard, &e.cells, &e.keys, &e.faults, flush);
                    (e.shard, result)
                })
            })
            .collect();
        handles
            .into_iter()
            .filter_map(|h| {
                let (shard, result) = h
                    .join()
                    .unwrap_or((usize::MAX, Err("worker driver thread panicked".to_string())));
                match result {
                    Ok(()) => None,
                    Err(e) => {
                        eprintln!("[t1000-bench] shard {shard}: {e}");
                        Some(shard)
                    }
                }
            })
            .collect()
    })
}

fn drive_one(
    ctx: &WaveCtx<'_>,
    shard: usize,
    cells: &[usize],
    keys: &[usize],
    faults: &FaultPlan,
    flush: &(dyn Fn(&MergeState) + Sync),
) -> Result<(), String> {
    let mut child = std::process::Command::new(ctx.exe)
        .arg("worker")
        // One OS process is the unit of parallelism: each worker's
        // engine runs single-threaded.
        .env("T1000_THREADS", "1")
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawning worker: {e}"))?;
    let request = shard_request(ctx.plan_name, ctx.scale, cells, keys, ctx.config, faults);
    if let Some(mut stdin) = child.stdin.take() {
        // A worker that died before reading surfaces below as EOF.
        let _ = writeln!(stdin, "{}", request.to_string_compact());
    } // dropping stdin closes the pipe: the worker sees exactly one line
    let Some(stdout) = child.stdout.take() else {
        let _ = child.kill();
        let _ = child.wait();
        return Err("worker stdout unavailable".to_string());
    };
    let mut done = false;
    let mut refusal = None;
    for line in std::io::BufReader::new(stdout).lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let mut m = lock(ctx.merge);
        match m.on_line(&line) {
            Ok(WireLine::Cell) => flush(&m),
            Ok(WireLine::Event) => {}
            Ok(WireLine::Done(s)) => {
                drop(m);
                let mut t = lock(ctx.totals);
                t.retries += s.retries;
                t.prepare_secs += s.prepare_secs;
                t.select_secs += s.select_secs;
                t.simulate_secs += s.simulate_secs;
                t.selection_compute_secs += s.selection_compute_secs;
                done = true;
            }
            Ok(WireLine::Failed(msg)) => refusal = Some(msg),
            Err(e) => eprintln!("[t1000-bench] shard {shard}: rejected worker line: {e}"),
        }
    }
    let status = child
        .wait()
        .map_err(|e| format!("waiting for worker: {e}"))?;
    if let Some(msg) = refusal {
        return Err(format!("worker rejected the request: {msg}"));
    }
    if !done {
        return Err(format!("worker exited without a final response ({status})"));
    }
    if !status.success() {
        return Err(format!("worker exited with {status}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::execute_with;
    use crate::plan::{run_all_plan, MachineSpec};
    use crate::results::to_json;
    use proptest::prelude::*;

    fn small_plan() -> Plan {
        let mut plan = Plan::new();
        for w in ["gsm_dec", "g721_enc"] {
            plan.push(Cell::new(
                w,
                SelectionSpec::selective_std(Some(2)),
                MachineSpec::with_pfus(2, 10),
            ));
            plan.push(Cell::new(
                w,
                SelectionSpec::Greedy,
                MachineSpec::with_pfus(2, 10),
            ));
        }
        plan
    }

    fn det_config() -> EngineConfig {
        EngineConfig {
            deterministic: true,
            ..EngineConfig::default()
        }
    }

    #[test]
    fn partition_is_total_group_atomic_and_baseline_closed() {
        let plan = run_all_plan();
        let all: Vec<usize> = (0..plan.cells().len()).collect();
        for shards in [1, 3, 4, 8, 64] {
            let parts = partition(&plan, &all, shards);
            assert_eq!(parts.len(), shards);
            let mut seen = vec![false; all.len()];
            for part in &parts {
                let set: std::collections::HashSet<usize> = part.iter().copied().collect();
                for &i in part {
                    assert!(!seen[i], "cell {i} assigned twice");
                    seen[i] = true;
                    // Group-atomicity: the whole (workload, extract) group
                    // — in particular every cell's baseline — co-locates.
                    let base = plan.cells()[i].baseline_cell();
                    let bi = plan.cells().iter().position(|&c| c == base).unwrap();
                    assert!(set.contains(&bi), "cell {i} split from its baseline");
                }
            }
            assert!(seen.iter().all(|&b| b), "partition dropped a cell");
        }
        // Deterministic: same inputs, same assignment.
        assert_eq!(partition(&plan, &all, 4), partition(&plan, &all, 4));
    }

    #[test]
    fn causes_round_trip_over_the_wire() {
        for cause in [
            FailureCause::UnknownWorkload,
            FailureCause::Prepare("p".into()),
            FailureCause::Selection("s".into()),
            FailureCause::Simulate("m".into()),
            FailureCause::Timeout { max_cycles: 123 },
            FailureCause::WallClock,
            FailureCause::ChecksumMismatch {
                got: 0xdead,
                expected: 0xbeef,
            },
            FailureCause::SemanticsChanged,
            FailureCause::Panic("boom".into()),
        ] {
            let (kind, payload) = cause_to_wire(&cause);
            let back = cause_from_wire(kind, &payload).expect("round trip");
            assert_eq!(back, cause);
        }
        assert!(cause_from_wire("gremlin", "").is_err());
        assert!(cause_from_wire("timeout", "x").is_err());
        assert!(cause_from_wire("checksum_mismatch", "0xzz,0x1").is_err());
    }

    /// Runs each part's cells in-process, pushes the results through the
    /// wire rendering + parsing, and merges — the exact merge math the
    /// coordinator runs, minus the OS processes.
    fn merge_via_wire(plan: &Plan, parts: &[Vec<usize>]) -> EngineRun {
        let mut merge = MergeState::new(plan, Scale::Test);
        let global_cell: HashMap<Cell, usize> = plan
            .cells()
            .iter()
            .enumerate()
            .map(|(i, &c)| (c, i))
            .collect();
        let global_selection: HashMap<_, usize> = engine::selection_keys(plan)
            .into_iter()
            .enumerate()
            .map(|(i, k)| (k, i))
            .collect();
        for part in parts {
            if part.is_empty() {
                continue;
            }
            let mut sub = Plan::new();
            for &i in part {
                sub.push(plan.cells()[i]);
            }
            let run = execute_with(&sub, Scale::Test, &det_config());
            assert!(run.failures.is_empty());
            let assigned: HashSet<usize> = part.iter().copied().collect();
            for s in &run.selections {
                let gi = global_selection[&(s.workload, s.extract, s.spec)];
                let line = selection_event(gi, s).to_string_compact();
                assert!(matches!(merge.on_line(&line).unwrap(), WireLine::Event));
            }
            for c in &run.cells {
                let gi = global_cell[&c.cell];
                if !assigned.contains(&gi) {
                    continue; // implied baseline owned by another part
                }
                let line = cell_event(gi, c).to_string_compact();
                assert!(matches!(merge.on_line(&line).unwrap(), WireLine::Cell));
            }
        }
        merge.finish(plan, ShardStats::default(), true)
    }

    #[test]
    fn sharded_merge_reproduces_the_single_process_artifact() {
        let plan = small_plan();
        let reference =
            to_json(&execute_with(&plan, Scale::Test, &det_config())).to_string_pretty();
        let all: Vec<usize> = (0..plan.cells().len()).collect();
        for shards in [1, 2, 3] {
            let parts = partition(&plan, &all, shards);
            let merged = merge_via_wire(&plan, &parts);
            assert_eq!(
                to_json(&merged).to_string_pretty(),
                reference,
                "shards={shards}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        // ANY assignment of cells to shards — group-atomic or not, even
        // ones that split a baseline from its users — merges to the
        // byte-identical single-process artifact.
        #[test]
        fn any_partition_merges_to_the_canonical_artifact(
            assign in prop::collection::vec(0usize..3, 6)
        ) {
            let plan = small_plan();
            prop_assert_eq!(plan.cells().len(), assign.len());
            let mut parts = vec![Vec::new(); 3];
            for (i, &s) in assign.iter().enumerate() {
                parts[s].push(i);
            }
            let reference = to_json(&execute_with(&plan, Scale::Test, &det_config()))
                .to_string_pretty();
            let merged = merge_via_wire(&plan, &parts);
            prop_assert_eq!(to_json(&merged).to_string_pretty(), reference);
        }
    }

    #[test]
    fn merge_rejects_corrupted_cell_documents() {
        let plan = small_plan();
        let run = execute_with(&plan, Scale::Test, &det_config());
        let target = &run.cells[1]; // a fused (non-baseline) cell
        let gi = plan.cells().iter().position(|&c| c == target.cell).unwrap();

        // Tampered measurement under an unchanged wire checksum: caught
        // by the transport-integrity hash before any parsing.
        let mut merge = MergeState::new(&plan, Scale::Test);
        let line = cell_event(gi, target).to_string_compact().replace(
            &format!("\"cycles\":{}", target.cycles),
            &format!("\"cycles\":{}", target.cycles + 1),
        );
        let err = merge.on_line(&line).unwrap_err();
        assert!(err.contains("wire checksum"), "{err}");

        // A consistent document whose *architectural* checksum diverges
        // from the local reference: caught by the registry re-check.
        let mut lying = target.clone();
        lying.checksum ^= 1;
        let err = merge
            .on_line(&cell_event(gi, &lying).to_string_compact())
            .unwrap_err();
        assert!(err.contains("diverges from reference"), "{err}");

        // Either way the cell is still missing — retryable, not merged.
        assert!(merge.missing().contains(&gi));

        // And a malformed line is an error, not a panic.
        assert!(merge.on_line("{\"method\":\"cell\"}").is_err());
        assert!(merge.on_line("not json").is_err());
    }

    #[test]
    fn coordinator_marks_unreported_cells_as_crashed() {
        let plan = small_plan();
        let mut merge = MergeState::new(&plan, Scale::Test);
        assert_eq!(merge.missing().len(), plan.cells().len());
        merge.fail(2, FailureCause::Panic("worker process crashed".into()), 1);
        assert!(!merge.missing().contains(&2));
        let run = merge.finish(&plan, ShardStats::default(), true);
        assert_eq!(run.failures.len(), 1);
        assert_eq!(run.failures[0].cell, plan.cells()[2]);
        assert_eq!(run.stats.failed_cells, 1);
        assert!(run.failures[0].cause.retryable());
    }

    #[test]
    fn worker_streams_exactly_the_assigned_cells() {
        // One group of the full run_all plan, through the real worker
        // entry point (in-memory pipes instead of a process).
        let plan = run_all_plan();
        let all: Vec<usize> = (0..plan.cells().len()).collect();
        let indices = partition(&plan, &all, 8)[0].clone();
        assert!(!indices.is_empty());
        let req = shard_request(
            "run_all",
            Scale::Test,
            &indices,
            &[],
            &det_config(),
            &FaultPlan::none(),
        );
        let mut out = Vec::new();
        let code = run_worker(
            format!("{}\n", req.to_string_compact()).as_bytes(),
            &mut out,
        );
        assert_eq!(code, 0);
        let text = String::from_utf8(out).unwrap();
        let mut merge = MergeState::new(&plan, Scale::Test);
        let mut done = false;
        for line in text.lines() {
            if let WireLine::Done(_) = merge.on_line(line).unwrap() {
                done = true;
            }
        }
        assert!(done, "worker must end with the final envelope");
        let completed: Vec<usize> = merge.completed().keys().copied().collect();
        assert_eq!(completed, indices);

        // A malformed request earns an error envelope and a nonzero exit.
        let mut out = Vec::new();
        let code = run_worker(&b"{\"method\":\"nope\"}\n"[..], &mut out);
        assert_ne!(code, 0);
        assert!(String::from_utf8(out).unwrap().contains("\"error\""));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        // Merge accounting never loses or double-counts a cell, whatever
        // the worker pipes do: each shard's stream may arrive whole, be
        // cut after its first cell (a mid-stream crash), vanish entirely
        // (a crash before any output), or be delivered twice (the retry
        // worker re-delivering cells its predecessor already streamed).
        // Healing by re-delivering whatever is still missing always
        // converges on the byte-identical artifact — the invariant the
        // crash-retry wave leans on.
        #[test]
        fn merge_accounting_survives_arbitrary_transport_faults(
            outcomes in prop::collection::vec(0u8..4, 3)
        ) {
            let plan = small_plan();
            let run = execute_with(&plan, Scale::Test, &det_config());
            prop_assert!(run.failures.is_empty());
            let reference = to_json(&run).to_string_pretty();
            let global_cell: HashMap<Cell, usize> = plan
                .cells()
                .iter()
                .enumerate()
                .map(|(i, &c)| (c, i))
                .collect();
            let cell_lines: BTreeMap<usize, String> = run
                .cells
                .iter()
                .map(|c| (global_cell[&c.cell], cell_event(global_cell[&c.cell], c).to_string_compact()))
                .collect();
            let global_selection: HashMap<_, usize> = engine::selection_keys(&plan)
                .into_iter()
                .enumerate()
                .map(|(i, k)| (k, i))
                .collect();
            let sel_lines: BTreeMap<usize, String> = run
                .selections
                .iter()
                .map(|s| {
                    let k = global_selection[&(s.workload, s.extract, s.spec)];
                    (k, selection_event(k, s).to_string_compact())
                })
                .collect();

            let all: Vec<usize> = (0..plan.cells().len()).collect();
            let all_keys: Vec<usize> = (0..sel_lines.len()).collect();
            let parts = partition(&plan, &all, 3);
            let key_parts = partition_selections(&plan, &all_keys, 3);

            let mut merge = MergeState::new(&plan, Scale::Test);
            for (shard, &outcome) in outcomes.iter().enumerate() {
                let deliveries = if outcome == 3 { 2 } else { 1 };
                for _ in 0..deliveries {
                    if outcome == 2 {
                        continue; // total loss: nothing arrives
                    }
                    for &k in &key_parts[shard] {
                        merge.on_line(&sel_lines[&k]).unwrap();
                    }
                    for (n, &gi) in parts[shard].iter().enumerate() {
                        merge.on_line(&cell_lines[&gi]).unwrap();
                        if outcome == 1 && n == 0 {
                            break; // stream cut after the first cell
                        }
                    }
                }
            }
            // Heal: exactly what the crash-retry wave re-dispatches.
            for gi in merge.missing() {
                merge.on_line(&cell_lines[&gi]).unwrap();
            }
            for k in merge.missing_selections() {
                merge.on_line(&sel_lines[&k]).unwrap();
            }
            prop_assert_eq!(merge.completed().len(), plan.cells().len());
            let healed = merge.finish(&plan, ShardStats::default(), true);
            prop_assert_eq!(to_json(&healed).to_string_pretty(), reference);
        }
    }

    #[test]
    fn fault_arms_are_localized_per_shard() {
        let plan = small_plan();
        let all: Vec<usize> = (0..plan.cells().len()).collect();
        let parts = partition(&plan, &all, 2);
        // One global arm per shard: each worker sees exactly its own,
        // renumbered to its sub-plan.
        let g0 = parts[0][1]; // a non-baseline-first index on shard 0
        let g1 = parts[1][0];
        let faults = FaultPlan::parse(&format!("pfu@{g0},abort@{g1}")).unwrap();
        let f0 = local_faults(&faults, plan.cells(), &parts[0]);
        let f1 = local_faults(&faults, plan.cells(), &parts[1]);
        assert_eq!(f0.render(), "pfu@1");
        assert_eq!(f1.render(), "abort@0");
    }
}
