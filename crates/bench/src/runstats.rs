//! Per-run observability artifacts: the `t1000 run --stats-json`
//! document, per-loop stall roll-ups, the JSON-lines event trace writer,
//! and the `t1000 report` attribution table.
//!
//! Everything here renders data collected by `t1000_cpu::observe` through
//! the hand-rolled [`Json`] type, so artifacts stay deterministic and
//! offline-friendly. The full schema contract lives in `docs/METRICS.md`;
//! [`validate_attribution`] is the machine-checked half of that contract
//! and is reused by the `BENCH_results.json` schema-v2 validator.

use crate::engine::{CellResult, CellSink};
use crate::json::Json;
use crate::results::{cell_result_json, hex64};
use std::io::Write;
use t1000_cpu::{
    AttrCollector, CycleAttribution, CycleClass, PcStalls, TraceEvent, TraceSink, NUM_STALL_CAUSES,
    STALL_CAUSES,
};
use t1000_isa::Program;
use t1000_profile::{loop_profiles, natural_loops, Cfg, Dominators, ExecProfile};

/// `schema` field of the run-stats document.
pub const RUN_STATS_SCHEMA: &str = "t1000.run-stats";
/// Version of the run-stats document layout. Version 2 wraps the cell
/// document; version 1 carried counters of its own and is not read.
pub const RUN_STATS_VERSION: u64 = 2;

// ---------------------------------------------------------------------
// Attribution JSON
// ---------------------------------------------------------------------

fn stalls_json(stalls: &[u64; NUM_STALL_CAUSES]) -> Json {
    Json::obj(
        STALL_CAUSES
            .iter()
            .map(|c| (c.key(), Json::UInt(stalls[c.index()])))
            .collect(),
    )
}

/// Renders a [`CycleAttribution`] as the `attribution` object used by
/// both the run-stats document and schema-v2 `BENCH_results.json` cells.
/// All ten taxonomy keys are always present, in canonical order.
pub fn attr_json(attr: &CycleAttribution) -> Json {
    Json::obj(vec![
        ("total_cycles", Json::UInt(attr.total_cycles)),
        ("busy_cycles", Json::UInt(attr.busy_cycles)),
        ("commit_bound_cycles", Json::UInt(attr.commit_bound_cycles)),
        ("stalls", stalls_json(&attr.stalls)),
    ])
}

/// Parses and checks an `attribution` object: every counter a real
/// unsigned integer (no NaN, no floats, no overflow), the stall taxonomy
/// closed (exactly the ten canonical keys), and the accounting invariant
/// `busy_cycles + Σ stalls == total_cycles` intact. When `expected_cycles`
/// is given, `total_cycles` must equal it (ties the attribution to the
/// cell's own cycle counter).
pub fn validate_attribution(j: &Json, expected_cycles: Option<u64>) -> Result<(), String> {
    attr_from_json(j, expected_cycles).map(drop)
}

/// Parses an `attribution` object back into a [`CycleAttribution`] under
/// the checks of [`validate_attribution`], so a successfully parsed value
/// always satisfies the partition invariant.
pub fn attr_from_json(j: &Json, expected_cycles: Option<u64>) -> Result<CycleAttribution, String> {
    let field = |key: &str| -> Result<u64, String> {
        j.get(key)
            .ok_or_else(|| format!("attribution missing {key}"))?
            .as_u64()
            .ok_or_else(|| format!("attribution {key} is not a u64"))
    };
    let mut attr = CycleAttribution {
        total_cycles: field("total_cycles")?,
        busy_cycles: field("busy_cycles")?,
        commit_bound_cycles: field("commit_bound_cycles")?,
        stalls: [0; NUM_STALL_CAUSES],
    };
    let stalls = match j.get("stalls") {
        Some(Json::Obj(pairs)) => pairs,
        _ => return Err("attribution missing stalls object".to_string()),
    };
    if stalls.len() != NUM_STALL_CAUSES {
        return Err(format!(
            "stall taxonomy not closed: {} keys (expected {NUM_STALL_CAUSES})",
            stalls.len()
        ));
    }
    let mut sum = attr.busy_cycles;
    for (i, (key, value)) in stalls.iter().enumerate() {
        if key != STALL_CAUSES[i].key() {
            return Err(format!(
                "stall key {i} is {key:?} (expected {:?})",
                STALL_CAUSES[i].key()
            ));
        }
        attr.stalls[i] = value
            .as_u64()
            .ok_or_else(|| format!("stall {key} is not a u64"))?;
        sum = sum
            .checked_add(attr.stalls[i])
            .ok_or_else(|| format!("stall counters overflow at {key}"))?;
    }
    if sum != attr.total_cycles {
        return Err(format!(
            "attribution does not partition the run: busy + stalls = {sum}, total = {}",
            attr.total_cycles
        ));
    }
    if attr.commit_bound_cycles > attr.busy_cycles {
        return Err(format!(
            "commit_bound_cycles {} exceeds busy_cycles {}",
            attr.commit_bound_cycles, attr.busy_cycles
        ));
    }
    if let Some(cycles) = expected_cycles {
        if attr.total_cycles != cycles {
            return Err(format!(
                "attribution total_cycles {} != cell cycles {cycles}",
                attr.total_cycles
            ));
        }
    }
    Ok(attr)
}

// ---------------------------------------------------------------------
// Per-loop roll-ups
// ---------------------------------------------------------------------

/// Stall cycles rolled up over one natural loop, keyed by the profiler's
/// loop identity (header PC).
#[derive(Clone, Debug)]
pub struct LoopAttr {
    /// Address of the loop header block.
    pub header_pc: u32,
    /// Header executions (≈ iterations) from the profiling run.
    pub iterations: u64,
    /// Dynamic instructions inside the body, from the profiling run.
    pub dyn_instrs: u64,
    /// Stall cycles charged to PCs inside the loop body, by cause.
    pub stalls: [u64; NUM_STALL_CAUSES],
}

impl LoopAttr {
    /// Total stall cycles charged to this loop.
    pub fn stall_cycles(&self) -> u64 {
        self.stalls.iter().sum()
    }
}

/// Rolls per-PC stall counters up to natural loops. Each PC is charged to
/// the *innermost* loop containing it; PCs outside every loop are
/// dropped (they remain visible in the aggregate attribution). Returns
/// loops sorted by total stall cycles, hottest first.
pub fn loop_attrs(
    program: &Program,
    cfg: &Cfg,
    profile: &ExecProfile,
    per_pc: &PcStalls,
) -> Vec<LoopAttr> {
    struct Shape {
        header_pc: u32,
        /// Static instructions in the body — the innermost-loop tiebreak.
        size: usize,
        /// Half-open PC ranges of the body's basic blocks.
        ranges: Vec<(u32, u32)>,
    }
    let doms = Dominators::compute(cfg);
    let loops = natural_loops(cfg, &doms);
    let profiles = loop_profiles(program, cfg, profile);
    let shapes: Vec<Shape> = loops
        .iter()
        .map(|l| {
            let ranges: Vec<(u32, u32)> = l
                .blocks
                .iter()
                .map(|&b| (cfg.blocks[b].start, cfg.blocks[b].end))
                .collect();
            let size = ranges.iter().map(|&(s, e)| (e - s) as usize / 4).sum();
            Shape {
                header_pc: cfg.blocks[l.header].start,
                size,
                ranges,
            }
        })
        .collect();
    let mut rollup: Vec<LoopAttr> = shapes
        .iter()
        .map(|shape| {
            let p = profiles.iter().find(|p| p.header_pc == shape.header_pc);
            LoopAttr {
                header_pc: shape.header_pc,
                iterations: p.map_or(0, |p| p.iterations),
                dyn_instrs: p.map_or(0, |p| p.dyn_instrs),
                stalls: [0; NUM_STALL_CAUSES],
            }
        })
        .collect();
    for (&pc, stalls) in per_pc {
        // Innermost = the smallest (fewest static instructions) loop
        // whose body contains the PC.
        let owner = shapes
            .iter()
            .enumerate()
            .filter(|(_, s)| s.ranges.iter().any(|&(lo, hi)| pc >= lo && pc < hi))
            .min_by_key(|(_, s)| s.size)
            .map(|(i, _)| i);
        if let Some(i) = owner {
            for (acc, v) in rollup[i].stalls.iter_mut().zip(stalls) {
                *acc += v;
            }
        }
    }
    rollup.retain(|l| l.stall_cycles() > 0);
    rollup.sort_by_key(|l| std::cmp::Reverse(l.stall_cycles()));
    rollup
}

fn loop_json(l: &LoopAttr) -> Json {
    Json::obj(vec![
        ("header_pc", hex64(l.header_pc as u64)),
        ("iterations", Json::UInt(l.iterations)),
        ("dyn_instrs", Json::UInt(l.dyn_instrs)),
        ("stall_cycles", Json::UInt(l.stall_cycles())),
        ("stalls", stalls_json(&l.stalls)),
    ])
}

// ---------------------------------------------------------------------
// The run-stats document
// ---------------------------------------------------------------------

/// Builds the `t1000 run --stats-json` document (see `docs/METRICS.md`,
/// "Run-stats schema"): the run's `target` as the user named it, the
/// cell document [`cell_result_json`] emits for `BENCH_results.json` and
/// the serving layer, and the per-loop roll-up.
pub fn run_stats_doc(
    target: &str,
    cell: &CellResult,
    speedup: Option<f64>,
    loops: &[LoopAttr],
) -> Json {
    Json::obj(vec![
        ("schema", Json::Str(RUN_STATS_SCHEMA.to_string())),
        ("schema_version", Json::UInt(RUN_STATS_VERSION)),
        ("target", Json::Str(target.to_string())),
        ("cell", cell_result_json(cell, speedup)),
        ("loops", Json::Arr(loops.iter().map(loop_json).collect())),
    ])
}

// ---------------------------------------------------------------------
// Event traces
// ---------------------------------------------------------------------

/// Renders one [`TraceEvent`] as a JSON object (one line of the trace
/// file). The `type` field discriminates; see `docs/METRICS.md`,
/// "Trace-event schema".
pub fn event_json(e: &TraceEvent) -> Json {
    match *e {
        TraceEvent::ConfLoad {
            cycle,
            pc,
            conf,
            evicted,
            ready_at,
        } => Json::obj(vec![
            ("type", Json::Str("conf_load".to_string())),
            ("cycle", Json::UInt(cycle)),
            ("pc", hex64(pc as u64)),
            ("conf", Json::UInt(conf as u64)),
            (
                "evicted",
                match evicted {
                    Some(c) => Json::UInt(c as u64),
                    None => Json::Null,
                },
            ),
            ("ready_at", Json::UInt(ready_at)),
        ]),
        TraceEvent::ConfHit { cycle, pc, conf } => Json::obj(vec![
            ("type", Json::Str("conf_hit".to_string())),
            ("cycle", Json::UInt(cycle)),
            ("pc", hex64(pc as u64)),
            ("conf", Json::UInt(conf as u64)),
        ]),
        TraceEvent::ConfPrefetch {
            cycle,
            conf,
            ready_at,
        } => Json::obj(vec![
            ("type", Json::Str("conf_prefetch".to_string())),
            ("cycle", Json::UInt(cycle)),
            ("conf", Json::UInt(conf as u64)),
            ("ready_at", Json::UInt(ready_at)),
        ]),
        TraceEvent::CacheMiss {
            cycle,
            addr,
            fetch,
            write,
            latency,
        } => Json::obj(vec![
            ("type", Json::Str("cache_miss".to_string())),
            ("cycle", Json::UInt(cycle)),
            ("addr", hex64(addr as u64)),
            ("fetch", Json::Bool(fetch)),
            ("write", Json::Bool(write)),
            ("latency", Json::UInt(latency as u64)),
        ]),
        TraceEvent::BranchRedirect { cycle, pc, penalty } => Json::obj(vec![
            ("type", Json::Str("branch_redirect".to_string())),
            ("cycle", Json::UInt(cycle)),
            ("pc", hex64(pc as u64)),
            ("penalty", Json::UInt(penalty as u64)),
        ]),
    }
}

/// A [`TraceSink`] that writes each pipeline event as one JSON line and
/// accumulates cycle attribution on the side. Write errors are latched
/// and reported by [`TraceWriter::finish`] — the sink API is infallible
/// by design so the pipeline never checks I/O results.
pub struct TraceWriter<W: Write> {
    out: W,
    /// The attribution accumulated alongside the trace.
    pub collector: AttrCollector,
    /// Events successfully written.
    pub events_written: u64,
    error: Option<std::io::Error>,
}

impl<W: Write> TraceWriter<W> {
    /// Wraps `out`; attribution is collected with per-PC counters so one
    /// observed run can feed both the trace and the stall report.
    pub fn new(out: W) -> TraceWriter<W> {
        TraceWriter {
            out,
            collector: AttrCollector::with_per_pc(),
            events_written: 0,
            error: None,
        }
    }

    /// Flushes and returns the underlying writer, or the first write
    /// error the trace hit.
    pub fn finish(mut self) -> std::io::Result<W> {
        if let Some(e) = self.error {
            return Err(e);
        }
        self.out.flush()?;
        Ok(self.out)
    }
}

impl<W: Write> TraceSink for TraceWriter<W> {
    const EVENTS: bool = true;
    const ATTR: bool = true;

    fn event(&mut self, event: TraceEvent) {
        if self.error.is_some() {
            return;
        }
        let line = event_json(&event).to_string_compact();
        match writeln!(self.out, "{line}") {
            Ok(()) => self.events_written += 1,
            Err(e) => self.error = Some(e),
        }
    }

    fn cycle(&mut self, class: CycleClass) {
        self.collector.cycle(class);
    }
}

impl<W: Write> CellSink for TraceWriter<W> {
    fn attribution(&self) -> &CycleAttribution {
        &self.collector.attr
    }
}

// ---------------------------------------------------------------------
// The attribution report (t1000 report / t1000 run --attr)
// ---------------------------------------------------------------------

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

/// Renders the cycle-attribution table for `t1000 report` and
/// `t1000 run --attr`: one row per taxonomy bucket plus busy cycles,
/// each with its share of the run.
pub fn render_attr_table(attr: &CycleAttribution) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let o = &mut out;
    let total = attr.total_cycles;
    let _ = writeln!(o, "cycle attribution ({total} cycles)");
    let _ = writeln!(o, "  {:<16} {:>12} {:>7}", "bucket", "cycles", "share");
    let _ = writeln!(
        o,
        "  {:<16} {:>12} {:>6.1}%",
        "busy",
        attr.busy_cycles,
        pct(attr.busy_cycles, total)
    );
    let _ = writeln!(
        o,
        "  {:<16} {:>12} {:>6.1}%   (subset of busy)",
        "  commit-bound",
        attr.commit_bound_cycles,
        pct(attr.commit_bound_cycles, total)
    );
    for cause in STALL_CAUSES {
        let v = attr.stall(cause);
        if v == 0 {
            continue;
        }
        let _ = writeln!(o, "  {:<16} {:>12} {:>6.1}%", cause.key(), v, pct(v, total));
    }
    let _ = writeln!(
        o,
        "  {:<16} {:>12} {:>6.1}%",
        "total stalls",
        attr.stall_cycles(),
        pct(attr.stall_cycles(), total)
    );
    out
}

/// Renders the per-loop roll-up rows appended by `--attr` when per-PC
/// counters were collected. Shows at most `limit` loops.
pub fn render_loop_table(loops: &[LoopAttr], total_cycles: u64, limit: usize) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let o = &mut out;
    if loops.is_empty() {
        return out;
    }
    let _ = writeln!(o, "hottest loops by stall cycles");
    let _ = writeln!(
        o,
        "  {:<12} {:>10} {:>12} {:>7}  dominant cause",
        "header", "iters", "stalls", "share"
    );
    for l in loops.iter().take(limit) {
        let dominant = STALL_CAUSES
            .iter()
            .max_by_key(|c| l.stalls[c.index()])
            .map(|c| c.key())
            .unwrap_or("-");
        let _ = writeln!(
            o,
            "  {:<12} {:>10} {:>12} {:>6.1}%  {}",
            format!("0x{:08x}", l.header_pc),
            l.iterations,
            l.stall_cycles(),
            pct(l.stall_cycles(), total_cycles),
            dominant
        );
    }
    out
}

/// Why `t1000 report` cannot render a document.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReportError {
    /// Not a run-stats document; carries the `schema` it names, if any.
    NotRunStats(Option<String>),
    /// A run-stats document of another layout version (v1 documents
    /// predate the cell document); carries its `schema_version`.
    Version(Option<u64>),
    /// A current-version document with a missing or malformed field.
    Malformed(String),
}

impl std::fmt::Display for ReportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReportError::NotRunStats(schema) => write!(
                f,
                "not a run-stats document (schema {schema:?}, expected {RUN_STATS_SCHEMA:?})"
            ),
            ReportError::Version(v) => write!(
                f,
                "run-stats schema_version {v:?} is not readable (expected \
                 {RUN_STATS_VERSION}); rerun `t1000 run <target> --stats-json FILE` to \
                 regenerate it"
            ),
            ReportError::Malformed(msg) => write!(f, "malformed run-stats document: {msg}"),
        }
    }
}

/// Parses one `loops[]` entry back into a [`LoopAttr`].
fn loop_from_json(l: &Json) -> Result<LoopAttr, String> {
    let header_pc = l
        .get("header_pc")
        .and_then(Json::as_str)
        .and_then(|h| h.strip_prefix("0x"))
        .and_then(|h| u32::from_str_radix(h, 16).ok())
        .ok_or("bad header_pc")?;
    let counter = |key: &str| {
        l.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("bad {key}"))
    };
    let (iterations, dyn_instrs) = (counter("iterations")?, counter("dyn_instrs")?);
    let mut stalls = [0u64; NUM_STALL_CAUSES];
    for cause in STALL_CAUSES {
        stalls[cause.index()] = l
            .get("stalls")
            .and_then(|s| s.get(cause.key()))
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("bad stalls.{}", cause.key()))?;
    }
    Ok(LoopAttr {
        header_pc,
        iterations,
        dyn_instrs,
        stalls,
    })
}

/// Renders an attribution report from a parsed run-stats document —
/// the `t1000 report <stats.json>` path. Reads `cell.workload`,
/// `cell.cycles`, `cell.attribution` (validated before rendering) and
/// every `loops[]` entry; a malformed entry is an error naming its index.
pub fn report_from_stats(doc: &Json) -> Result<String, ReportError> {
    let schema = doc.get("schema").and_then(Json::as_str);
    if schema != Some(RUN_STATS_SCHEMA) {
        return Err(ReportError::NotRunStats(schema.map(str::to_string)));
    }
    let version = doc.get("schema_version").and_then(Json::as_u64);
    if version != Some(RUN_STATS_VERSION) {
        return Err(ReportError::Version(version));
    }
    let malformed = |msg: &str| ReportError::Malformed(msg.to_string());
    let cell = doc.get("cell").ok_or_else(|| malformed("missing cell"))?;
    let workload = cell
        .get("workload")
        .and_then(Json::as_str)
        .ok_or_else(|| malformed("missing cell.workload"))?;
    let cycles = cell
        .get("cycles")
        .and_then(Json::as_u64)
        .ok_or_else(|| malformed("missing cell.cycles"))?;
    let attr_doc = cell
        .get("attribution")
        .ok_or_else(|| malformed("missing cell.attribution"))?;
    let attr = attr_from_json(attr_doc, Some(cycles))
        .map_err(|e| ReportError::Malformed(format!("cell.{e}")))?;
    let loops = doc
        .get("loops")
        .and_then(Json::as_array)
        .ok_or_else(|| malformed("missing loops"))?
        .iter()
        .enumerate()
        .map(|(i, l)| {
            loop_from_json(l).map_err(|e| ReportError::Malformed(format!("loops[{i}]: {e}")))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let mut out = format!("workload: {workload}\n");
    out.push_str(&render_attr_table(&attr));
    out.push_str(&render_loop_table(&loops, cycles, 8));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{CellRunner, RunOptions};
    use crate::plan::{Cell, MachineSpec, SelectionSpec};
    use std::sync::Arc;
    use t1000_core::Session;
    use t1000_cpu::{simulate_with, CpuConfig, RunResult};
    use t1000_isa::FusionMap;

    const KERNEL: &str = "
main:
    li  $s0, 400
    li  $t0, 3
loop:
    mult $t0, $t0
    mflo $t1
    andi $t0, $t1, 255
    addiu $s0, $s0, -1
    bgtz $s0, loop
    move $a0, $t0
    li   $v0, 30
    syscall
    li   $v0, 10
    syscall
";

    fn kernel_run() -> (Session, RunResult, AttrCollector) {
        let session = Session::from_asm(KERNEL).unwrap();
        let mut sink = AttrCollector::with_per_pc();
        let run = simulate_with(
            session.program(),
            &FusionMap::new(),
            CpuConfig::baseline(),
            &mut sink,
        )
        .unwrap();
        (session, run, sink)
    }

    /// The document `t1000 run <kernel> --attr --stats-json` writes for
    /// the PFU-less kernel, and the cell it wraps.
    fn kernel_stats_doc() -> (Json, CellResult, Option<f64>) {
        let opts = RunOptions::default();
        let session = Arc::new(Session::from_asm(KERNEL).unwrap());
        let runner = CellRunner::from_session(session, None, &opts).unwrap();
        let cell = Cell::new(
            "adhoc",
            SelectionSpec::Baseline,
            MachineSpec::with_pfus(0, 0),
        );
        let mut sink = AttrCollector::with_per_pc();
        let result = runner
            .run_cell_observed(cell, None, &[], &opts, &mut sink)
            .unwrap();
        assert_eq!(result.cycles, runner.baseline_cycles());
        let analysis = runner.session().analysis();
        let loops = loop_attrs(
            runner.session().program(),
            &analysis.cfg,
            &analysis.profile,
            sink.per_pc().unwrap(),
        );
        let speedup = runner.speedup(&result);
        let doc = run_stats_doc("kernel.s", &result, speedup, &loops);
        (
            Json::parse(&doc.to_string_pretty()).unwrap(),
            result,
            speedup,
        )
    }

    #[test]
    fn attr_json_round_trips_and_validates() {
        let (_, run, sink) = kernel_run();
        let j = attr_json(&sink.attr);
        validate_attribution(&j, Some(run.timing.cycles)).unwrap();
        let text = j.to_string_compact();
        let parsed = Json::parse(&text).unwrap();
        validate_attribution(&parsed, Some(run.timing.cycles)).unwrap();
    }

    #[test]
    fn validator_rejects_broken_attributions() {
        let (_, run, sink) = kernel_run();
        let good = attr_json(&sink.attr);
        // Broken invariant.
        let mut attr = sink.attr.clone();
        attr.busy_cycles += 1;
        assert!(validate_attribution(&attr_json(&attr), None)
            .unwrap_err()
            .contains("partition"));
        // Wrong total.
        assert!(validate_attribution(&good, Some(run.timing.cycles + 1)).is_err());
        // Open taxonomy: an extra key must be rejected.
        let Json::Obj(mut pairs) = good.clone() else {
            unreachable!()
        };
        for (k, v) in &mut pairs {
            if k == "stalls" {
                let Json::Obj(stall_pairs) = v else {
                    unreachable!()
                };
                stall_pairs.push(("mystery".to_string(), Json::UInt(0)));
            }
        }
        assert!(validate_attribution(&Json::Obj(pairs), None)
            .unwrap_err()
            .contains("taxonomy"));
        // A float where a counter belongs must be rejected.
        let text = good.to_string_compact().replacen(
            &format!("\"busy_cycles\":{}", sink.attr.busy_cycles),
            "\"busy_cycles\":1.5",
            1,
        );
        let parsed = Json::parse(&text).unwrap();
        assert!(validate_attribution(&parsed, None).is_err());
    }

    #[test]
    fn run_stats_document_is_complete_and_parses() {
        let (doc, result, speedup) = kernel_stats_doc();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some(RUN_STATS_SCHEMA)
        );
        assert_eq!(
            doc.get("schema_version").and_then(Json::as_u64),
            Some(RUN_STATS_VERSION)
        );
        assert_eq!(doc.get("target").and_then(Json::as_str), Some("kernel.s"));
        // The cell is exactly the document the artifact and the server emit.
        assert_eq!(doc.get("cell"), Some(&cell_result_json(&result, speedup)));
        assert_eq!(
            doc.get("loops").and_then(Json::as_array).map(<[Json]>::len),
            Some(1)
        );
        // The report renders from the parsed document.
        let report = report_from_stats(&doc).unwrap();
        assert!(report.starts_with("workload: adhoc\n"), "{report}");
        assert!(report.contains("cycle attribution"));
        assert!(report.contains("busy"));
        assert!(report.contains("hottest loops"));
    }

    #[test]
    fn report_rejects_other_versions_and_names_malformed_loops() {
        let v1 = Json::parse(
            r#"{"schema": "t1000.run-stats", "schema_version": 1, "workload": "x", "cycles": 5}"#,
        )
        .unwrap();
        let e = report_from_stats(&v1).unwrap_err();
        assert_eq!(e, ReportError::Version(Some(1)));
        assert!(e.to_string().contains("rerun"), "{e}");

        // A malformed loop entry is reported by its index, not dropped.
        let (doc, _, _) = kernel_stats_doc();
        let text = doc.to_string_compact();
        let bad = r#",{"header_pc":"0x10","iterations":"many"}]}"#;
        let doc = Json::parse(&format!("{}{bad}", text.strip_suffix("]}").unwrap())).unwrap();
        assert_eq!(
            report_from_stats(&doc),
            Err(ReportError::Malformed("loops[1]: bad iterations".into()))
        );
    }

    #[test]
    fn loop_rollup_finds_the_hot_loop() {
        let (session, run, sink) = kernel_run();
        let analysis = session.analysis();
        let loops = loop_attrs(
            session.program(),
            &analysis.cfg,
            &analysis.profile,
            sink.per_pc().unwrap(),
        );
        assert!(!loops.is_empty(), "the kernel has one hot loop");
        let hot = &loops[0];
        assert_eq!(hot.header_pc, session.program().symbol("loop").unwrap());
        assert!(hot.iterations >= 399);
        assert!(
            hot.stall_cycles() > run.timing.cycles / 4,
            "the multiply chain stalls most of the run"
        );
        // Roll-ups never exceed what the aggregate saw.
        let rolled: u64 = loops.iter().map(LoopAttr::stall_cycles).sum();
        assert!(rolled <= sink.attr.stall_cycles());
    }

    #[test]
    fn trace_writer_emits_json_lines_and_collects_attribution() {
        let session = Session::from_asm(KERNEL).unwrap();
        let mut writer = TraceWriter::new(Vec::new());
        let run = simulate_with(
            session.program(),
            &FusionMap::new(),
            CpuConfig::baseline(),
            &mut writer,
        )
        .unwrap();
        assert_eq!(writer.collector.attr.total_cycles, run.timing.cycles);
        assert!(writer.collector.attr.checks_out());
        assert!(writer.events_written > 0, "cold caches must emit misses");
        let events_written = writer.events_written;
        let bytes = writer.finish().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len() as u64, events_written);
        for line in lines {
            let e = Json::parse(line).unwrap();
            let ty = e.get("type").and_then(Json::as_str).unwrap();
            assert!(
                ["conf_load", "conf_hit", "cache_miss", "branch_redirect"].contains(&ty),
                "unknown event type {ty}"
            );
            assert!(e.get("cycle").and_then(Json::as_u64).is_some());
        }
    }

    #[test]
    fn trace_writer_latches_write_errors() {
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut w = TraceWriter::new(Broken);
        w.event(TraceEvent::ConfHit {
            cycle: 1,
            pc: 0x40_0000,
            conf: 0,
        });
        assert_eq!(w.events_written, 0);
        assert!(w.finish().is_err());
    }
}
