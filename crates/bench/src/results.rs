//! Result artifacts: the `BENCH_results.json` document and the Markdown
//! report, both rendered from one [`EngineRun`].
//!
//! The JSON artifact is schema-versioned and self-validating: it records
//! the Rust-reference checksum for every workload next to the checksum
//! each simulated cell actually produced, so CI can re-check a downloaded
//! artifact without re-running the experiments ([`validate_artifact`]).

use crate::engine::{CellResult, EngineError, EngineRun, SelectionRecord};
use crate::json::Json;
use crate::plan::{Cell, Counter, MachineSpec, NamedPlan, SelectionSpec};
use t1000_core::ExtractConfig;
use t1000_cpu::{BranchModel, PfuCount, PfuReplacement};
use t1000_workloads::Scale;

/// Version of the `BENCH_results.json` schema. Bump on any breaking
/// change to field names or semantics.
///
/// * v1 — initial layout.
/// * v2 — every cell carries an `attribution` object (cycle-accounting
///   partition; see `docs/METRICS.md`), validated by
///   [`validate_artifact`].
/// * v3 — fault tolerance: a top-level `failed_cells` array, engine
///   `retries`/`failed_cells` counters, per-cell `pfu_load_faults`, and
///   `speedup` becomes nullable (a cell whose baseline failed has no
///   normaliser). See `docs/ROBUSTNESS.md`.
/// * v4 — the strategy axis: every cell and selection record carries a
///   `strategy` identifier (the selection pipeline's memo-cache key,
///   e.g. `selective(pfus=2,threshold=0.005)`), and knapsack cells add
///   `lut_budget`. See `docs/PIPELINE.md`.
/// * v5 — host throughput: every cell records the wall-clock nanoseconds
///   its simulation took (`host_ns`), the derived simulation rate
///   (`sim_khz`, simulated kilocycles per host second), and the replay
///   fast-path counters under `fast_path`
///   (`steady_loops`/`replayed_iters`/`deopts`). See `docs/FASTPATH.md`.
///   `--deterministic` runs zero `host_ns`/`sim_khz` so artifacts stay
///   byte-reproducible.
/// * v6 — the config-plane model: every cell carries the PFU reload
///   counters `pfu_prefetch_hits`, `pfu_hidden_reload_cycles`,
///   `pfu_exposed_reload_cycles` and `pfu_stream_words`; the `machine`
///   object records the reconfiguration-hiding knobs (`pfu_planes`,
///   `pfu_prefetch`, `conf_compress`) and understands the `static` and
///   `gshare` branch models. Default knobs measure identically to v5 —
///   the new counters are simply zero. See `docs/METRICS.md`.
/// * v7 — replay coverage in cycles: `fast_path` gains `replayed_cycles`,
///   the simulated cycles the pipeline-memo fast path replayed instead of
///   simulating. `steady_loops`/`replayed_iters`/`deopts` now count
///   entries into replay, replayed segments and returns to the accurate
///   path. See `docs/FASTPATH.md`.
/// * v8 — one attempt per cell: the engine no longer retries, so the
///   `engine.retries` counter and each failed cell's attempt count and
///   retry flag are gone. A failure's `cause` still says whether the
///   cell ran. See `docs/ROBUSTNESS.md`.
pub const SCHEMA_VERSION: u64 = 8;

/// `test` or `full`, as artifacts and `serve` spell the scale.
pub fn scale_str(scale: Scale) -> &'static str {
    match scale {
        Scale::Test => "test",
        Scale::Full => "full",
    }
}

pub(crate) fn hex64(v: u64) -> Json {
    // Checksums are 64-bit words; a JSON number would survive only up to
    // 2^53 in common readers, so they travel as hex strings.
    Json::Str(format!("0x{v:016x}"))
}

fn parse_hex64(s: &str) -> Option<u64> {
    u64::from_str_radix(s.strip_prefix("0x")?, 16).ok()
}

fn extract_json(x: &ExtractConfig) -> Json {
    Json::obj(vec![
        ("max_width", Json::UInt(x.max_width as u64)),
        ("max_inputs", Json::UInt(x.max_inputs as u64)),
        ("max_len", Json::UInt(x.max_len as u64)),
        ("max_depth", Json::UInt(x.max_depth as u64)),
        ("max_pfu_latency", Json::UInt(x.max_pfu_latency as u64)),
    ])
}

fn machine_json(m: &MachineSpec) -> Json {
    let pfus = match m.pfus {
        PfuCount::Fixed(n) => Json::UInt(n as u64),
        PfuCount::Unlimited => Json::Str("unlimited".to_string()),
    };
    let replacement = match m.replacement {
        PfuReplacement::Lru => "lru",
        PfuReplacement::Fifo => "fifo",
        PfuReplacement::Random => "random",
    };
    let branch = match m.branch {
        BranchModel::Perfect => Json::Str("perfect".to_string()),
        BranchModel::Static { penalty } => Json::obj(vec![
            ("model", Json::Str("static".to_string())),
            ("penalty", Json::UInt(penalty as u64)),
        ]),
        BranchModel::Bimodal { entries, penalty } => Json::obj(vec![
            ("model", Json::Str("bimodal".to_string())),
            ("entries", Json::UInt(entries as u64)),
            ("penalty", Json::UInt(penalty as u64)),
        ]),
        BranchModel::Gshare { entries, penalty } => Json::obj(vec![
            ("model", Json::Str("gshare".to_string())),
            ("entries", Json::UInt(entries as u64)),
            ("penalty", Json::UInt(penalty as u64)),
        ]),
    };
    Json::obj(vec![
        ("pfus", pfus),
        ("reconfig_cycles", Json::UInt(m.reconfig_cycles as u64)),
        ("replacement", Json::Str(replacement.to_string())),
        ("branch", branch),
        (
            "issue_width",
            match m.issue_width {
                Some(w) => Json::UInt(w as u64),
                None => Json::Null,
            },
        ),
        // Schema v6: the reconfiguration-hiding knobs.
        ("pfu_planes", Json::UInt(m.pfu_planes as u64)),
        ("pfu_prefetch", Json::UInt(m.pfu_prefetch as u64)),
        (
            "conf_compress",
            Json::Float(f64::from_bits(m.conf_compress_bits)),
        ),
    ])
}

fn selection_spec_fields(spec: &SelectionSpec) -> Vec<(&'static str, Json)> {
    let mut fields = vec![
        ("algorithm", Json::Str(spec.algorithm().to_string())),
        // Schema v4: the full strategy identity (algorithm + parameters)
        // as one stable string — the same id the selection memo cache and
        // `t1000 select --explain` use.
        ("strategy", Json::Str(spec.strategy_id())),
    ];
    if let Some(cfg) = spec.select_config() {
        fields.push((
            "pfus",
            match cfg.pfus {
                Some(n) => Json::UInt(n as u64),
                None => Json::Null,
            },
        ));
        fields.push(("gain_threshold", Json::Float(cfg.gain_threshold)));
        // Schema v6: the reload charge, only when active (reload-free
        // documents keep the v5 field set).
        if cfg.reload_weight > 0.0 {
            fields.push(("reload_weight", Json::Float(cfg.reload_weight)));
        }
    }
    if let SelectionSpec::Knapsack { lut_budget, .. } = spec {
        fields.push(("lut_budget", Json::UInt(*lut_budget as u64)));
    }
    fields
}

/// One selection record as a schema-v8 `selections[]` entry. Public so
/// the serving layer's `select` method can emit the identical document.
pub fn selection_json(r: &SelectionRecord) -> Json {
    let (min_len, max_len) = r.seq_len_range();
    let mut fields = vec![("workload", Json::Str(r.workload.to_string()))];
    fields.extend(selection_spec_fields(&r.spec));
    fields.extend([
        ("extract", extract_json(&r.extract)),
        ("num_confs", Json::UInt(r.num_confs as u64)),
        ("num_sites", Json::UInt(r.num_sites as u64)),
        ("seq_len_min", Json::UInt(min_len as u64)),
        ("seq_len_max", Json::UInt(max_len as u64)),
        ("total_gain", Json::UInt(r.total_gain())),
        (
            "confs",
            Json::Arr(
                r.confs
                    .iter()
                    .map(|c| {
                        Json::obj(vec![
                            ("luts", Json::UInt(c.luts as u64)),
                            ("depth", Json::UInt(c.depth as u64)),
                            ("width", Json::UInt(c.width as u64)),
                            ("seq_len", Json::UInt(c.seq_len as u64)),
                            ("num_sites", Json::UInt(c.num_sites as u64)),
                            ("total_gain", Json::UInt(c.total_gain)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    Json::obj(fields)
}

fn cell_json(run: &EngineRun, c: &CellResult) -> Json {
    cell_result_json(c, run.speedup(c.cell))
}

/// One cell's measurements as a schema-v8 `cells[]` entry (`speedup` is
/// relative to the caller's baseline; `None` → JSON `null`). The one
/// writer of a cell's counters: the serving layer's `run` method and the
/// `t1000 run --stats-json` document emit it too.
pub fn cell_result_json(c: &CellResult, speedup: Option<f64>) -> Json {
    let mut fields = vec![("workload", Json::Str(c.cell.workload.to_string()))];
    fields.extend(selection_spec_fields(&c.cell.selection));
    fields.extend([
        ("extract", extract_json(&c.cell.extract)),
        ("machine", machine_json(&c.cell.machine)),
        ("cycles", Json::UInt(c.cycles)),
        ("base_instructions", Json::UInt(c.base_instructions)),
        ("base_ipc", Json::Float(c.base_ipc)),
        (
            "speedup",
            match speedup {
                Some(s) => Json::Float(s),
                None => Json::Null,
            },
        ),
        ("reconfigurations", Json::UInt(c.reconfigurations)),
        ("conf_hits", Json::UInt(c.conf_hits)),
        ("ext_executed", Json::UInt(c.ext_executed)),
        ("pfu_load_faults", Json::UInt(c.pfu_load_faults)),
        // Schema v6: config-plane reload accounting.
        ("pfu_prefetch_hits", Json::UInt(c.pfu_prefetch_hits)),
        (
            "pfu_hidden_reload_cycles",
            Json::UInt(c.pfu_hidden_reload_cycles),
        ),
        (
            "pfu_exposed_reload_cycles",
            Json::UInt(c.pfu_exposed_reload_cycles),
        ),
        ("pfu_stream_words", Json::UInt(c.pfu_stream_words)),
        ("branch_accuracy", Json::Float(c.branch_accuracy)),
        ("checksum", hex64(c.checksum)),
        // Schema v5: host throughput and fast-path engagement.
        ("host_ns", Json::UInt(c.host_ns)),
        ("sim_khz", Json::Float(c.sim_khz)),
        (
            "fast_path",
            Json::obj(vec![
                ("steady_loops", Json::UInt(c.fast.steady_loops)),
                ("replayed_iters", Json::UInt(c.fast.replayed_iters)),
                ("deopts", Json::UInt(c.fast.deopts)),
                ("replayed_cycles", Json::UInt(c.fast.replayed_cycles)),
            ]),
        ),
        ("attribution", crate::runstats::attr_json(&c.attr)),
    ]);
    Json::obj(fields)
}

/// Parses a schema-v8 `cells[]` document back into a [`CellResult`] for
/// `cell` — the inverse of [`cell_result_json`], through which
/// [`validate_artifact`] reads every artifact cell. The caller supplies
/// the expected [`Cell`], so only the measurement fields and the
/// attribution are read; `speedup` is ignored. Every numeric field
/// round-trips exactly: integers are exact in the JSON layer and floats
/// are printed shortest-round-trip.
pub fn cell_result_from_json(doc: &Json, cell: Cell) -> Result<CellResult, String> {
    let u64f = |key: &str| -> Result<u64, String> {
        doc.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("cell document: bad {key}"))
    };
    let f64f = |key: &str| -> Result<f64, String> {
        doc.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("cell document: bad {key}"))
    };
    let got = doc.get("workload").and_then(Json::as_str);
    if got != Some(cell.workload) {
        return Err(format!(
            "cell document: workload {got:?} does not match plan cell {}",
            cell.workload
        ));
    }
    let cycles = u64f("cycles")?;
    let fast = doc
        .get("fast_path")
        .ok_or("cell document: missing fast_path")?;
    let fastf = |key: &str| -> Result<u64, String> {
        fast.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("cell document: bad fast_path.{key}"))
    };
    let attr = doc
        .get("attribution")
        .ok_or("cell document: missing attribution")?;
    Ok(CellResult {
        cell,
        cycles,
        base_instructions: u64f("base_instructions")?,
        base_ipc: f64f("base_ipc")?,
        reconfigurations: u64f("reconfigurations")?,
        conf_hits: u64f("conf_hits")?,
        ext_executed: u64f("ext_executed")?,
        pfu_load_faults: u64f("pfu_load_faults")?,
        pfu_prefetch_hits: u64f("pfu_prefetch_hits")?,
        pfu_hidden_reload_cycles: u64f("pfu_hidden_reload_cycles")?,
        pfu_exposed_reload_cycles: u64f("pfu_exposed_reload_cycles")?,
        pfu_stream_words: u64f("pfu_stream_words")?,
        branch_accuracy: f64f("branch_accuracy")?,
        checksum: doc
            .get("checksum")
            .and_then(Json::as_str)
            .and_then(parse_hex64)
            .ok_or("cell document: bad checksum")?,
        host_ns: u64f("host_ns")?,
        sim_khz: f64f("sim_khz")?,
        fast: t1000_cpu::FastPathStats {
            steady_loops: fastf("steady_loops")?,
            replayed_iters: fastf("replayed_iters")?,
            deopts: fastf("deopts")?,
            replayed_cycles: fastf("replayed_cycles")?,
        },
        attr: crate::runstats::attr_from_json(attr, Some(cycles))?,
    })
}

/// Builds the schema-versioned `BENCH_results.json` document.
pub fn to_json(run: &EngineRun) -> Json {
    let stats = &run.stats;
    Json::obj(vec![
        ("schema_version", Json::UInt(SCHEMA_VERSION)),
        ("generator", Json::Str("t1000-bench".to_string())),
        ("scale", Json::Str(scale_str(run.scale).to_string())),
        (
            "engine",
            Json::obj(vec![
                ("threads", Json::UInt(stats.threads as u64)),
                ("cells_requested", Json::UInt(stats.cells_requested as u64)),
                ("cells_simulated", Json::UInt(stats.cells_simulated as u64)),
                ("cells_deduped", Json::UInt(stats.cells_deduped as u64)),
                ("selection_jobs", Json::UInt(stats.selection_jobs as u64)),
                ("selection_hits", Json::UInt(stats.selection_hits)),
                ("selection_misses", Json::UInt(stats.selection_misses)),
                (
                    "selection_compute_secs",
                    Json::Float(stats.selection_compute_secs),
                ),
                ("prepare_secs", Json::Float(stats.prepare_secs)),
                ("select_secs", Json::Float(stats.select_secs)),
                ("simulate_secs", Json::Float(stats.simulate_secs)),
                ("failed_cells", Json::UInt(stats.failed_cells as u64)),
            ]),
        ),
        (
            "workloads",
            Json::Arr(
                run.workloads
                    .iter()
                    .map(|w| {
                        Json::obj(vec![
                            ("name", Json::Str(w.name.to_string())),
                            ("expected_checksum", hex64(w.expected_checksum)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "selections",
            Json::Arr(run.selections.iter().map(selection_json).collect()),
        ),
        (
            "cells",
            Json::Arr(run.cells.iter().map(|c| cell_json(run, c)).collect()),
        ),
        (
            "failed_cells",
            Json::Arr(run.failures.iter().map(failure_json).collect()),
        ),
    ])
}

fn failure_json(e: &EngineError) -> Json {
    // The cell's key is its complete configuration (the `Debug` rendering
    // embeds workload, extraction, selection and machine): two failures
    // share a key exactly when they are the same simulation.
    Json::obj(vec![
        ("cell", Json::Str(format!("{:?}", e.cell))),
        ("workload", Json::Str(e.cell.workload.to_string())),
        ("cause", Json::Str(e.cause.kind().to_string())),
        ("detail", Json::Str(e.cause.to_string())),
    ])
}

/// Writes `BENCH_results.json` to `path`.
pub fn write_json(run: &EngineRun, path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, to_json(run).to_string_pretty())
}

/// Summary returned by a successful [`validate_artifact`] call.
#[derive(Debug, PartialEq, Eq)]
pub struct ArtifactSummary {
    pub scale: &'static str,
    pub workloads: usize,
    pub cells: usize,
    /// Cells the run failed to complete (schema v3 `failed_cells`).
    pub failed_cells: usize,
}

/// Validates a `BENCH_results.json` document: schema version, structural
/// integrity, and — the CI gate — that every simulated cell's checksum
/// matches the Rust reference recomputed from `t1000-workloads`.
pub fn validate_artifact(text: &str) -> Result<ArtifactSummary, String> {
    let doc = Json::parse(text).map_err(|e| e.to_string())?;
    let version = doc
        .get("schema_version")
        .and_then(Json::as_u64)
        .ok_or("missing schema_version")?;
    if version != SCHEMA_VERSION {
        return Err(format!(
            "schema_version {version} unsupported (expected {SCHEMA_VERSION})"
        ));
    }
    let scale = match doc.get("scale").and_then(Json::as_str) {
        Some("test") => Scale::Test,
        Some("full") => Scale::Full,
        other => return Err(format!("bad scale field: {other:?}")),
    };

    // Reference checksums, recomputed from the workload generators rather
    // than trusted from the artifact.
    let mut expected = std::collections::HashMap::new();
    let workloads = doc
        .get("workloads")
        .and_then(Json::as_array)
        .ok_or("missing workloads array")?;
    if workloads.is_empty() {
        return Err("workloads array is empty".to_string());
    }
    for w in workloads {
        let name = w
            .get("name")
            .and_then(Json::as_str)
            .ok_or("workload missing name")?;
        let recorded = w
            .get("expected_checksum")
            .and_then(Json::as_str)
            .and_then(parse_hex64)
            .ok_or_else(|| format!("{name}: bad expected_checksum"))?;
        let workload = t1000_workloads::by_name(name, scale)
            .ok_or_else(|| format!("{name}: unknown workload"))?;
        let reference = workload.expected_checksum();
        if recorded != reference {
            return Err(format!(
                "{name}: recorded reference 0x{recorded:016x} != recomputed 0x{reference:016x}"
            ));
        }
        expected.insert(workload.name, reference);
    }

    // Schema v3: failures are first-class artifact content. An artifact
    // may legitimately have missing cells/speedups, but only if it also
    // owns up to the corresponding failures.
    let failed = doc
        .get("failed_cells")
        .and_then(Json::as_array)
        .ok_or("missing failed_cells array")?;
    for (i, f) in failed.iter().enumerate() {
        for key in ["cell", "workload", "cause", "detail"] {
            if f.get(key).and_then(Json::as_str).is_none() {
                return Err(format!("failed cell {i}: bad {key}"));
            }
        }
    }

    let cells = doc
        .get("cells")
        .and_then(Json::as_array)
        .ok_or("missing cells array")?;
    if cells.is_empty() && failed.is_empty() {
        return Err("cells array is empty".to_string());
    }
    for (i, c) in cells.iter().enumerate() {
        let name = c
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("cell {i}: missing workload"))?;
        let (&label, &reference) = expected
            .get_key_value(name)
            .ok_or_else(|| format!("cell {i}: workload {name} not in workloads array"))?;
        // Every counter parses through the cell-document parser (which
        // reads only the workload of the cell it is handed): u64 counters,
        // the fast-path block, and (schema v2) an attribution that
        // partitions the cell's cycles over the closed stall taxonomy.
        let baseline = Cell::new(label, SelectionSpec::Baseline, MachineSpec::with_pfus(0, 0));
        let r =
            cell_result_from_json(c, baseline).map_err(|e| format!("cell {i} ({name}): {e}"))?;
        if r.checksum != reference {
            return Err(format!(
                "cell {i} ({name}): checksum 0x{:016x} diverges from reference 0x{reference:016x}",
                r.checksum
            ));
        }
        if r.cycles == 0 {
            return Err(format!("cell {i} ({name}): zero cycles"));
        }
        match c.get("speedup") {
            Some(Json::Null) if !failed.is_empty() => {
                // The baseline this cell normalises against failed; the
                // failure is recorded, so a null speedup is honest.
            }
            Some(Json::Null) => {
                return Err(format!(
                    "cell {i} ({name}): null speedup but no failed cells"
                ));
            }
            Some(v) => {
                let speedup = v
                    .as_f64()
                    .ok_or_else(|| format!("cell {i} ({name}): bad speedup"))?;
                if !(speedup.is_finite() && speedup > 0.0) {
                    return Err(format!("cell {i} ({name}): bad speedup {speedup}"));
                }
            }
            None => return Err(format!("cell {i}: missing speedup")),
        }
        // Schema v4: every cell names the strategy that produced it.
        match c.get("strategy").and_then(Json::as_str) {
            Some(s) if !s.is_empty() => {}
            _ => return Err(format!("cell {i} ({name}): bad strategy")),
        }
        // Schema v5: `host_ns` may legitimately be zero (deterministic
        // mode), and `sim_khz` must then be zero too; otherwise both must
        // be positive.
        let (host_ns, khz) = (r.host_ns, r.sim_khz);
        if !khz.is_finite() || khz < 0.0 {
            return Err(format!("cell {i} ({name}): bad sim_khz {khz}"));
        }
        if (host_ns == 0) != (khz == 0.0) {
            return Err(format!(
                "cell {i} ({name}): host_ns {host_ns} inconsistent with sim_khz {khz}"
            ));
        }
    }
    Ok(ArtifactSummary {
        scale: scale_str(scale),
        workloads: workloads.len(),
        cells: cells.len(),
        failed_cells: failed.len(),
    })
}

/// Splits an `--expect` spec on top-level commas only, so strategy
/// identifiers like `selective(pfus=2,threshold=0.005)` survive intact.
fn split_expect(spec: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    for (i, ch) in spec.char_indices() {
        match ch {
            '(' => depth += 1,
            ')' => depth = depth.saturating_sub(1),
            ',' if depth == 0 => {
                parts.push(&spec[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&spec[start..]);
    parts
}

/// Checks declarative `--expect key=value` assertions against an artifact,
/// replacing the fragile `grep`-on-JSON checks CI used to carry. `spec` is
/// a comma-separated list (commas inside parentheses belong to the value,
/// e.g. `strategy=selective(pfus=2,threshold=0.005),failed_cells=0`).
///
/// Supported keys: `failed_cells` (engine counter), `scale` (artifact
/// scale string), `strategy` (at least one cell was produced by that
/// strategy id), `schema=N` (the artifact's exact `schema_version`), and
/// `pfu_prefetch_hits=N` / `pfu_hidden_reload_cycles=N` (that config-plane
/// counter summed over all cells is at least `N` — the CI hook proving
/// reconfiguration hiding actually engaged on a prefetch-enabled run).
/// Returns the satisfied assertions for reporting; the first unmet or
/// malformed assertion is the error.
pub fn check_expectations(text: &str, spec: &str) -> Result<Vec<String>, String> {
    let doc = Json::parse(text).map_err(|e| e.to_string())?;
    let mut satisfied = Vec::new();
    for part in split_expect(spec) {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (key, want) = part
            .split_once('=')
            .ok_or_else(|| format!("--expect `{part}`: expected key=value"))?;
        match key {
            "failed_cells" => {
                let got = doc
                    .get("engine")
                    .and_then(|e| e.get(key))
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("--expect {key}: artifact has no engine.{key}"))?;
                let want: u64 = want
                    .parse()
                    .map_err(|_| format!("--expect {key}: `{want}` is not an integer"))?;
                if got != want {
                    return Err(format!("--expect {key}={want}: artifact records {got}"));
                }
            }
            "scale" => {
                let got = doc
                    .get("scale")
                    .and_then(Json::as_str)
                    .ok_or("--expect scale: artifact has no scale field")?;
                if got != want {
                    return Err(format!("--expect scale={want}: artifact records {got}"));
                }
            }
            "strategy" => {
                let cells = doc
                    .get("cells")
                    .and_then(Json::as_array)
                    .ok_or("--expect strategy: artifact has no cells array")?;
                let hit = cells
                    .iter()
                    .any(|c| c.get("strategy").and_then(Json::as_str) == Some(want));
                if !hit {
                    return Err(format!("--expect strategy={want}: no cell uses it"));
                }
            }
            "schema" => {
                let got = doc
                    .get("schema_version")
                    .and_then(Json::as_u64)
                    .ok_or("--expect schema: artifact has no schema_version")?;
                let want: u64 = want
                    .parse()
                    .map_err(|_| format!("--expect {key}: `{want}` is not an integer"))?;
                if got != want {
                    return Err(format!("--expect schema={want}: artifact records {got}"));
                }
            }
            "pfu_prefetch_hits" | "pfu_hidden_reload_cycles" => {
                let want: u64 = want
                    .parse()
                    .map_err(|_| format!("--expect {key}: `{want}` is not an integer"))?;
                let cells = doc
                    .get("cells")
                    .and_then(Json::as_array)
                    .ok_or_else(|| format!("--expect {key}: artifact has no cells array"))?;
                let mut got = 0u64;
                for (i, c) in cells.iter().enumerate() {
                    got += c
                        .get(key)
                        .and_then(Json::as_u64)
                        .ok_or_else(|| format!("--expect {key}: cell {i}: bad {key}"))?;
                }
                if got < want {
                    return Err(format!("--expect {key}={want}: cells record only {got}"));
                }
            }
            other => {
                return Err(format!(
                    "--expect: unknown key `{other}` \
                     (known: failed_cells, scale, strategy, schema, \
                      pfu_prefetch_hits, pfu_hidden_reload_cycles)"
                ));
            }
        }
        satisfied.push(format!("{key}={want}"));
    }
    Ok(satisfied)
}

// ---------------------------------------------------------------------
// Markdown report (the body of EXPERIMENTS.md)
// ---------------------------------------------------------------------

/// The default-machine baseline cell for `workload` (the normaliser of
/// every paper experiment).
fn baseline_cell(workload: &'static str) -> Cell {
    Cell::new(
        workload,
        SelectionSpec::Baseline,
        MachineSpec::with_pfus(0, 0),
    )
}

/// Formats a possibly-missing speedup: failed measurements render as
/// `n/a` instead of aborting the report.
fn fmt3(v: Option<f64>) -> String {
    match v {
        Some(v) => format!("{v:.3}"),
        None => "n/a".to_string(),
    }
}

/// Renders the `t1000 bench --all` Markdown report. Byte-identical to the output
/// the pre-engine harness produced when every cell completes: the figures
/// are views over the same measurements. Failed cells render as `n/a`.
pub fn render_markdown(run: &EngineRun) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let o = &mut out;

    let _ = writeln!(o, "# T1000 experiment report");
    let _ = writeln!(o);
    let _ = writeln!(
        o,
        "Scale: {} | machine: 4-wide OoO, 64-entry RUU, perfect branch prediction, paper caches/TLBs",
        if run.scale == Scale::Test { "test" } else { "full (paper)" }
    );
    // Host-time roll-up: where the run's wall clock went, per engine
    // phase, plus the aggregate simulation rate over all measured cells
    // (`n/a` under --deterministic, which zeroes per-cell host time).
    let total_cycles: u64 = run.cells.iter().map(|c| c.cycles).sum();
    let total_host_ns: u64 = run.cells.iter().map(|c| c.host_ns).sum();
    let rate = if total_host_ns == 0 {
        "n/a".to_string()
    } else {
        format!(
            "{:.0} kHz",
            crate::engine::sim_khz(total_cycles, total_host_ns)
        )
    };
    let _ = writeln!(
        o,
        "Host time: prepare {:.2} s | select {:.2} s | simulate {:.2} s | aggregate sim rate {rate}",
        run.stats.prepare_secs, run.stats.select_secs, run.stats.simulate_secs
    );
    let _ = writeln!(o);

    let names: Vec<&'static str> = run.workloads.iter().map(|w| w.name).collect();

    let _ = writeln!(o, "## Workloads");
    let _ = writeln!(o);
    let _ = writeln!(
        o,
        "| bench | dynamic instrs | baseline cycles | baseline IPC |"
    );
    let _ = writeln!(o, "|---|---:|---:|---:|");
    for &w in &names {
        let _ = match run.cell(baseline_cell(w)) {
            Some(b) => writeln!(
                o,
                "| {} | {} | {} | {:.2} |",
                w, b.base_instructions, b.cycles, b.base_ipc
            ),
            None => writeln!(o, "| {w} | n/a | n/a | n/a |"),
        };
    }
    let _ = writeln!(o);

    let _ = writeln!(o, "## Figure 2 — greedy selection");
    let _ = writeln!(o);
    let _ = writeln!(
        o,
        "| bench | unlimited PFUs, 0-cy reconfig | 2 PFUs, 10-cy reconfig | #confs |"
    );
    let _ = writeln!(o, "|---|---:|---:|---:|");
    for &w in &names {
        let unl = Cell::new(w, SelectionSpec::Greedy, MachineSpec::unlimited(0));
        let two = Cell::new(w, SelectionSpec::Greedy, MachineSpec::with_pfus(2, 10));
        let confs = run
            .selection(unl)
            .map_or("n/a".to_string(), |s| s.num_confs.to_string());
        let _ = writeln!(
            o,
            "| {} | {} | {} | {} |",
            w,
            fmt3(run.speedup(unl)),
            fmt3(run.speedup(two)),
            confs
        );
    }
    let _ = writeln!(o);

    let _ = writeln!(o, "## §4.1 — greedy statistics");
    let _ = writeln!(o);
    let _ = writeln!(o, "| bench | #confs | #sites | len range |");
    let _ = writeln!(o, "|---|---:|---:|---|");
    for &w in &names {
        let _ = match run.selection(Cell::new(
            w,
            SelectionSpec::Greedy,
            MachineSpec::with_pfus(2, 10),
        )) {
            Some(sel) => {
                let (min, max) = sel.seq_len_range();
                writeln!(
                    o,
                    "| {} | {} | {} | {min}–{max} |",
                    w, sel.num_confs, sel.num_sites
                )
            }
            None => writeln!(o, "| {w} | n/a | n/a | n/a |"),
        };
    }
    let _ = writeln!(o);

    let _ = writeln!(o, "## Figure 6 — selective algorithm (10-cy reconfig)");
    let _ = writeln!(o);
    let _ = writeln!(o, "| bench | 2 PFUs | 4 PFUs | unlimited |");
    let _ = writeln!(o, "|---|---:|---:|---:|");
    for &w in &names {
        let cells = [
            Cell::new(
                w,
                SelectionSpec::selective_std(Some(2)),
                MachineSpec::with_pfus(2, 10),
            ),
            Cell::new(
                w,
                SelectionSpec::selective_std(Some(4)),
                MachineSpec::with_pfus(4, 10),
            ),
            Cell::new(
                w,
                SelectionSpec::selective_std(None),
                MachineSpec::unlimited(10),
            ),
        ];
        let _ = writeln!(
            o,
            "| {} | {} | {} | {} |",
            w,
            fmt3(run.speedup(cells[0])),
            fmt3(run.speedup(cells[1])),
            fmt3(run.speedup(cells[2]))
        );
    }
    let _ = writeln!(o);

    let _ = writeln!(o, "## Figure 7 — hardware cost of selected instructions");
    let _ = writeln!(o);
    let mut luts: Vec<u32> = Vec::new();
    for &w in &names {
        if let Some(sel) = run.selection(Cell::new(
            w,
            SelectionSpec::selective_std(Some(4)),
            MachineSpec::with_pfus(4, 10),
        )) {
            luts.extend(sel.confs.iter().map(|c| c.luts));
        }
    }
    let max = luts.iter().copied().max().unwrap_or(0);
    let _ = writeln!(o, "| bucket | instructions |");
    let _ = writeln!(o, "|---|---:|");
    for lo in (0..=max).step_by(20) {
        let n = luts.iter().filter(|&&l| l >= lo && l < lo + 20).count();
        let _ = writeln!(o, "| {}–{} LUTs | {} |", lo, lo + 19, n);
    }
    let _ = writeln!(o);
    let _ = writeln!(
        o,
        "Max: {max} LUTs over {} instructions (paper: max 105, all fit 150-LUT PFUs).",
        luts.len()
    );
    let _ = writeln!(o);

    let _ = writeln!(
        o,
        "## §5.2 — reconfiguration-cost robustness (2 PFUs, selective)"
    );
    let _ = writeln!(o);
    let _ = writeln!(o, "| bench | 0 | 10 | 100 | 500 cycles |");
    let _ = writeln!(o, "|---|---:|---:|---:|---:|");
    for &w in &names {
        let cells: Vec<Option<f64>> = [0u32, 10, 100, 500]
            .iter()
            .map(|&c| {
                run.speedup(Cell::new(
                    w,
                    SelectionSpec::selective_std(Some(2)),
                    MachineSpec::with_pfus(2, c),
                ))
            })
            .collect();
        let _ = writeln!(
            o,
            "| {} | {} | {} | {} | {} |",
            w,
            fmt3(cells[0]),
            fmt3(cells[1]),
            fmt3(cells[2]),
            fmt3(cells[3])
        );
    }
    out
}

/// Renders the per-cell failure table the CLI prints (and exits nonzero
/// with) when a run is not fully healthy.
pub fn render_failures(failures: &[EngineError]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let o = &mut out;
    let _ = writeln!(o, "{} cell(s) FAILED:", failures.len());
    let _ = writeln!(o);
    let _ = writeln!(o, "| cell | workload | cause | detail |");
    let _ = writeln!(o, "|---|---|---|---|");
    for e in failures {
        let _ = writeln!(
            o,
            "| {} [{}] | {} | {} | {} |",
            e.cell.selection.algorithm(),
            machine_label(&e.cell.machine),
            e.cell.workload,
            e.cause.kind(),
            e.cause
        );
    }
    out
}

/// Renders a named plan's run: the speedup of every workload × row over
/// the plan's columns, then a geomean row per row label. The plan's
/// counter stands in parentheses beside each speedup, summed over the
/// workloads in the geomean rows (averaged, for a rate). Failed cells
/// render as `n/a`.
pub fn render_pivot(run: &EngineRun, named: &NamedPlan) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let o = &mut out;
    let _ = writeln!(o, "# {}", named.title);
    let _ = writeln!(o);
    let counter = match named.counter {
        Some(Counter::BranchAccuracy) => "; branch accuracy in parentheses",
        Some(Counter::Reconfigurations) => "; reconfigurations in parentheses",
        Some(Counter::ReloadCycles) => "; reload cycles hidden/exposed in parentheses",
        None => "",
    };
    let _ = writeln!(
        o,
        "Scale: {} | speedup over each cell's own baseline{counter}",
        scale_str(run.scale)
    );
    let _ = writeln!(o);
    let _ = writeln!(o, "| bench | selection | {} |", named.cols.join(" | "));
    let _ = writeln!(o, "|---|---|{}", "---:|".repeat(named.cols.len()));
    // One grid point over the workloads `over`: the speedup (a geomean
    // over several workloads, exactly the cell's own for one) and the
    // counter; `n/a` if any cell failed.
    let entry = |over: &[&'static str], row: usize, col: usize| {
        let Some(group) = over
            .iter()
            .map(|&w| {
                let cell = (named.cell)(w, row, col);
                Some((run.speedup(cell)?, run.cell(cell)?))
            })
            .collect::<Option<Vec<_>>>()
        else {
            return "n/a".to_string();
        };
        let speedup = match group.as_slice() {
            [(s, _)] => *s,
            _ => {
                let log_sum: f64 = group.iter().map(|(s, _)| s.ln()).sum();
                (log_sum / group.len() as f64).exp()
            }
        };
        let sum = |f: fn(&CellResult) -> u64| group.iter().map(|(_, c)| f(c)).sum::<u64>();
        match named.counter {
            None => format!("{speedup:.3}"),
            Some(Counter::BranchAccuracy) => {
                let total: f64 = group.iter().map(|(_, c)| c.branch_accuracy).sum();
                format!("{speedup:.3} ({:.1}%)", 100.0 * total / group.len() as f64)
            }
            Some(Counter::Reconfigurations) => {
                format!("{speedup:.3} ({})", sum(|c| c.reconfigurations))
            }
            Some(Counter::ReloadCycles) => format!(
                "{speedup:.3} ({}/{})",
                sum(|c| c.pfu_hidden_reload_cycles),
                sum(|c| c.pfu_exposed_reload_cycles)
            ),
        }
    };
    let line = |label: &str, over: &[&'static str], row: usize| {
        let cols: Vec<String> = (0..named.cols.len())
            .map(|col| entry(over, row, col))
            .collect();
        format!("| {label} | {} | {} |", named.rows[row], cols.join(" | "))
    };
    let names: Vec<&'static str> = run.workloads.iter().map(|w| w.name).collect();
    for &w in &names {
        for row in 0..named.rows.len() {
            let _ = writeln!(o, "{}", line(w, &[w], row));
        }
    }
    for row in 0..named.rows.len() {
        let _ = writeln!(o, "{}", line("geomean", &names, row));
    }
    out
}

fn machine_label(m: &MachineSpec) -> String {
    match m.pfus {
        PfuCount::Fixed(n) => format!("{n} PFUs, {}cy", m.reconfig_cycles),
        PfuCount::Unlimited => format!("unlimited PFUs, {}cy", m.reconfig_cycles),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::execute;
    use crate::plan::Plan;

    fn small_run() -> EngineRun {
        let mut plan = Plan::new();
        plan.push(Cell::new(
            "mpeg2_enc",
            SelectionSpec::selective_std(Some(2)),
            MachineSpec::with_pfus(2, 10),
        ));
        plan.push(Cell::new(
            "mpeg2_enc",
            SelectionSpec::Greedy,
            MachineSpec::unlimited(0),
        ));
        execute(&plan, Scale::Test)
    }

    #[test]
    fn artifact_round_trips_and_validates() {
        let run = small_run();
        let text = to_json(&run).to_string_pretty();
        // Round trip through the parser.
        let doc = Json::parse(&text).unwrap();
        assert_eq!(
            doc.get("schema_version").and_then(Json::as_u64),
            Some(SCHEMA_VERSION)
        );
        assert_eq!(doc.to_string_pretty(), text);
        // And the validator accepts it.
        let summary = validate_artifact(&text).expect("artifact must validate");
        assert_eq!(summary.scale, "test");
        assert_eq!(summary.workloads, 1);
        assert_eq!(summary.cells, 3);
    }

    #[test]
    fn validator_rejects_corrupted_artifacts() {
        let run = small_run();
        let good = to_json(&run).to_string_pretty();

        // Wrong schema version.
        let bad = good.replacen("\"schema_version\": 8", "\"schema_version\": 99", 1);
        assert!(validate_artifact(&bad)
            .unwrap_err()
            .contains("schema_version"));

        // A flipped checksum digit must be caught.
        let cs = format!("0x{:016x}", run.cells[0].checksum);
        let flipped = format!("0x{:016x}", run.cells[0].checksum ^ 1);
        let bad = good.replacen(cs.as_str(), flipped.as_str(), 2);
        assert!(validate_artifact(&bad).is_err());

        // A perturbed attribution counter breaks the cycle partition.
        let busy = run.cells[0].attr.busy_cycles;
        let bad = good.replacen(
            &format!("\"busy_cycles\": {busy}"),
            &format!("\"busy_cycles\": {}", busy + 1),
            1,
        );
        assert!(validate_artifact(&bad).unwrap_err().contains("partition"));

        // Truncation is a parse error, not a panic.
        assert!(validate_artifact(&good[..good.len() / 2]).is_err());

        // A sim_khz that disagrees with host_ns is inconsistent: zero one
        // cell's host_ns while its (measured, nonzero) sim_khz stands.
        let bad = good.replacen(
            &format!("\"host_ns\": {}", run.cells[0].host_ns),
            "\"host_ns\": 0",
            1,
        );
        assert!(validate_artifact(&bad)
            .unwrap_err()
            .contains("inconsistent"));
    }

    #[test]
    fn cells_record_host_throughput() {
        let run = small_run();
        for c in &run.cells {
            assert!(c.host_ns > 0, "cell measured no host time");
            assert!(c.sim_khz > 0.0 && c.sim_khz.is_finite());
        }
        // The baseline cell reuses the prepare-phase run — its host time
        // is the reference simulation's, still nonzero.
        let text = to_json(&run).to_string_pretty();
        assert!(text.contains("\"host_ns\""));
        assert!(text.contains("\"sim_khz\""));
        assert!(text.contains("\"fast_path\""));
    }

    #[test]
    fn expectations_check_replaces_grep() {
        let run = small_run();
        let text = to_json(&run).to_string_pretty();
        let ok = check_expectations(
            &text,
            "scale=test,failed_cells=0,\
             strategy=selective(pfus=2,threshold=0.005),schema=8,pfu_prefetch_hits=0,\
             pfu_hidden_reload_cycles=0",
        )
        .expect("all expectations hold");
        assert_eq!(ok.len(), 6);
        // The parenthesised strategy id survived the comma split.
        assert!(ok.contains(&"strategy=selective(pfus=2,threshold=0.005)".to_string()));

        for (spec, needle) in [
            ("strategy=knapsack(luts=1)", "no cell uses it"),
            ("scale=full", "records test"),
            ("schema=5", "records 8"),
            // A default (prefetch-off) run records zero hits, so any
            // positive floor must fail.
            ("pfu_prefetch_hits=1", "record only 0"),
            ("pfu_hidden_reload_cycles=1", "record only 0"),
            ("shards=4", "unknown key"),
            // Array lengths and the aggregate host rate are not checked.
            ("cells=3", "unknown key"),
            ("workloads=1", "unknown key"),
            ("total_sim_khz=1", "unknown key"),
            // A cell runs once, so the artifact has no retry counter.
            ("retries=0", "unknown key"),
            ("bogus=1", "unknown key"),
            ("cells", "expected key=value"),
        ] {
            let err = check_expectations(&text, spec).unwrap_err();
            assert!(err.contains(needle), "{spec}: {err}");
        }
    }

    #[test]
    fn cell_documents_round_trip_through_the_cell_parser() {
        let run = small_run();
        for c in &run.cells {
            let doc = cell_result_json(c, None);
            let back = cell_result_from_json(&doc, c.cell).expect("cell parse");
            // Re-rendering proves every field round-tripped exactly.
            assert_eq!(
                cell_result_json(&back, None).to_string_compact(),
                doc.to_string_compact()
            );
        }
        // A document attached to the wrong plan cell is a typed error,
        // not a silent misattribution.
        let doc = cell_result_json(&run.cells[0], None);
        let other = Cell::new("epic", SelectionSpec::Greedy, MachineSpec::unlimited(0));
        assert!(cell_result_from_json(&doc, other).is_err());
    }

    #[test]
    fn markdown_report_has_every_section() {
        let run = execute(&crate::plan::run_all_plan(), Scale::Test);
        let md = render_markdown(&run);
        for section in [
            "# T1000 experiment report",
            "Host time: prepare ",
            "## Workloads",
            "## Figure 2 — greedy selection",
            "## §4.1 — greedy statistics",
            "## Figure 6 — selective algorithm (10-cy reconfig)",
            "## Figure 7 — hardware cost of selected instructions",
            "## §5.2 — reconfiguration-cost robustness (2 PFUs, selective)",
        ] {
            assert!(md.contains(section), "missing {section}");
        }
        // All 8 workloads appear in every speedup table.
        for name in t1000_workloads::NAMES {
            assert!(
                md.matches(&format!("| {name} |")).count() >= 5,
                "{name} missing"
            );
        }
    }
}
