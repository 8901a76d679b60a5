//! # t1000-cli — the `t1000` command-line driver
//!
//! Subcommands: `asm`, `disasm`, `run`, `report`, `profile`, `select`,
//! `bench` and `serve`. `t1000 help` prints each one's options; a golden
//! test pins that text. `run` and `bench <name>` simulate one cell
//! through the experiment engine's [`CellRunner`], as `bench --all` and
//! `serve` do, so every path records the same cell document.
//!
//! All command logic lives in this library so it is unit-testable; the
//! binary is a two-line wrapper.

pub mod args;
pub mod serve;

use args::{parse, ArgError, Parsed};
use std::fmt::Write as _;
use std::sync::Arc;
use t1000_bench::engine::{CellRunner, FailureCause, RunOptions};
use t1000_bench::json::Json;
use t1000_bench::plan::SelectionSpec;
use t1000_bench::runstats::{self, TraceWriter};
use t1000_bench::spec::{self, CellSpec, Front};
use t1000_core::{ExtractConfig, PipelineTrace, Selection, Session};
use t1000_cpu::AttrCollector;
use t1000_isa::Program;

/// CLI error: message already formatted for the user.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> CliError {
        CliError(e.0)
    }
}

fn err<T>(msg: impl Into<String>) -> Result<T, CliError> {
    Err(CliError(msg.into()))
}

// Per-subcommand option tables, shared between the `parse` calls and the
// help-drift test so an option cannot exist without `usage()` naming it.
const ASM_VALUE_OPTS: &[&str] = &["out"];
const RUN_VALUE_OPTS: &[&str] = &[
    "pfus",
    "reconfig",
    "threshold",
    "reload-weight",
    "max-instr",
    "stats-json",
    "trace",
    "scale",
    "pfu-planes",
    "pfu-prefetch",
    "conf-compress",
];
const RUN_FLAG_OPTS: &[&str] = &["greedy", "attr", "no-fast-path"];
const SELECT_VALUE_OPTS: &[&str] = &[
    "pfus",
    "threshold",
    "strategy",
    "lut-budget",
    "reload-weight",
    "scale",
];
const SELECT_FLAG_OPTS: &[&str] = &["greedy", "explain"];
const BENCH_VALUE_OPTS: &[&str] = &[
    "scale",
    "pfus",
    "json",
    "validate",
    "inject",
    "max-cycles",
    "expect",
    "pfu-planes",
    "pfu-prefetch",
    "conf-compress",
    "plan",
];
const BENCH_FLAG_OPTS: &[&str] = &["all", "deterministic", "strategies", "no-fast-path"];
pub(crate) const SERVE_VALUE_OPTS: &[&str] = &["socket", "workers", "queue"];
pub(crate) const SERVE_FLAGS: &[&str] = &[];

/// Entry point: executes `args` and returns the text to print.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let Some(cmd) = args.first().map(String::as_str) else {
        return Ok(usage());
    };
    let rest = &args[1..];
    match cmd {
        "asm" => cmd_asm(rest),
        "disasm" => cmd_disasm(rest),
        "run" => cmd_run(rest),
        "report" => cmd_report(rest),
        "profile" => cmd_profile(rest),
        "select" => cmd_select(rest),
        "bench" => cmd_bench(rest),
        "serve" => serve::cmd_serve(rest),
        "help" | "--help" | "-h" => Ok(usage()),
        other => err(format!("unknown command `{other}` (try `t1000 help`)")),
    }
}

fn usage() -> String {
    "t1000 — configurable extended instructions toolchain\n\
     usage:\n\
     \x20 t1000 asm     <file.s> [--out file.tobj]\n\
     \x20 t1000 disasm  <file.s|.tobj>\n\
     \x20 t1000 run     <file|bench:name> [--pfus N|unlimited] [--reconfig C] [--greedy] [--threshold F] [--max-instr N]\n\
     \x20               [--reload-weight W] [--pfu-planes 1|2] [--pfu-prefetch N] [--conf-compress R]\n\
     \x20               [--stats-json FILE] [--trace FILE] [--attr] [--scale test|full] [--no-fast-path]\n\
     \x20 t1000 report  <stats.json>\n\
     \x20 t1000 profile <file>\n\
     \x20 t1000 select  <file|bench:name> [--strategy greedy|selective|knapsack] [--pfus N]\n\
     \x20               [--greedy] [--threshold F] [--lut-budget N] [--reload-weight W] [--explain] [--scale test|full]\n\
     \x20 t1000 bench   <name> [--scale test|full] [--pfus N] [--pfu-planes 1|2] [--pfu-prefetch N] [--conf-compress R]\n\
     \x20 t1000 bench   --all [--scale test|full] [--json FILE]\n\
     \x20               [--pfu-planes 1|2] [--pfu-prefetch N] [--conf-compress R]\n\
     \x20               [--deterministic] [--inject PLAN] [--max-cycles N] [--strategies] [--no-fast-path]\n\
     \x20 t1000 bench   --plan reconfig|bitwidth|ports|width|branch|pfu_policy|reload [--scale test|full]\n\
     \x20               [--json FILE] [--deterministic] [--inject PLAN] [--max-cycles N] [--no-fast-path]\n\
     \x20 t1000 bench   --validate <BENCH_results.json> [--expect KEY=VALUE,...]\n\
     \x20 t1000 serve   [--socket PATH] [--workers N] [--queue N]  (JSON-RPC daemon; docs/SERVING.md)\n"
        .to_string()
}

/// Loads a program from assembly (`.s`) or text-object (`.tobj`) source.
fn load(path: &str) -> Result<Program, CliError> {
    let src =
        std::fs::read_to_string(path).map_err(|e| CliError(format!("cannot read {path}: {e}")))?;
    if path.ends_with(".tobj") {
        t1000_isa::read_object(&src).map_err(|e| CliError(format!("{path}: {e}")))
    } else {
        t1000_asm::assemble(&src).map_err(|e| CliError(format!("{path}: {e}")))
    }
}

fn cmd_asm(args: &[String]) -> Result<String, CliError> {
    let p = parse(args, ASM_VALUE_OPTS, &[])?;
    let [path] = p.positional.as_slice() else {
        return err("asm: expected exactly one input file");
    };
    let program = load(path)?;
    let object = t1000_isa::write_object(&program);
    match p.get("out") {
        Some(out) => {
            std::fs::write(out, &object)
                .map_err(|e| CliError(format!("cannot write {out}: {e}")))?;
            Ok(format!(
                "wrote {out}: {} instructions, {} data bytes\n",
                program.len(),
                program.data.len()
            ))
        }
        None => Ok(object),
    }
}

fn cmd_disasm(args: &[String]) -> Result<String, CliError> {
    let p = parse(args, &[], &[])?;
    let [path] = p.positional.as_slice() else {
        return err("disasm: expected exactly one input file");
    };
    Ok(t1000_asm::disassemble(&load(path)?))
}

/// The cell `front` reads from `p`'s options and the registry benchmark
/// `bench` (`run`/`select` take it as `bench:<name>`).
fn cell_spec(front: Front, p: &Parsed, bench: Option<&str>) -> Result<CellSpec, CliError> {
    let options = p.given().filter(|name| front.admits(name));
    let pairs = options
        .map(|name| (name, spec::cli_value(p.get(name))))
        .chain(bench.map(|name| ("benchmark", Json::Str(name.to_string()))));
    spec::parse(front, pairs).map_err(|e| CliError(e.message))
}

/// `spec`'s program: its registry workload, else the `.s`/`.tobj` file
/// `target`. Returns the reference checksum too (`None` for a file: its
/// own baseline run becomes the reference).
fn program_of(spec: &CellSpec, target: &str) -> Result<(Program, Option<u64>), CliError> {
    match &spec.workload {
        Some(w) => {
            let program = w.program().map_err(|e| CliError(e.to_string()))?;
            Ok((program, Some(w.expected_checksum())))
        }
        None => Ok((load(target)?, None)),
    }
}

/// Profiles `spec`'s program (the profiling run bounded by
/// `max_instructions`, 0 = unbounded, so a non-terminating input errors
/// out instead of hanging), prepares the [`CellRunner`] that `run` and
/// `bench <name>` simulate through, as the batch engine and the server
/// do, and selects for the cell.
fn prepare(
    spec: &CellSpec,
    target: &str,
    max_instructions: u64,
    opts: &RunOptions,
) -> Result<(CellRunner, Option<Arc<Selection>>), CliError> {
    let (program, expected) = program_of(spec, target)?;
    let fail = |cause: FailureCause| CliError(format!("{target}: {cause}"));
    let session = Session::with_limits(program, ExtractConfig::default(), max_instructions)
        .map_err(|e| fail(FailureCause::Prepare(e.to_string())))?;
    let runner = CellRunner::from_session(Arc::new(session), expected, opts).map_err(fail)?;
    let selection = match spec.cell.selection {
        SelectionSpec::Baseline => None,
        selection => Some(runner.select(&selection).map_err(fail)?),
    };
    Ok((runner, selection))
}

fn cmd_run(args: &[String]) -> Result<String, CliError> {
    let p = parse(args, RUN_VALUE_OPTS, RUN_FLAG_OPTS)?;
    let [target] = p.positional.as_slice() else {
        return err("run: expected exactly one input (a file or bench:<name>)");
    };
    let spec = cell_spec(Front::Run, &p, target.strip_prefix("bench:"))?;
    let max_instructions = p.get_u32("max-instr")?.map_or(0, u64::from);
    // Escape hatch for A/B timing comparisons; results are bit-identical
    // either way (docs/FASTPATH.md).
    let opts = RunOptions {
        max_cycles: 0,
        no_fast_path: p.flag("no-fast-path"),
    };
    let (runner, selection) = prepare(&spec, target, max_instructions, &opts)?;
    let selection = selection.as_deref();
    let cell = spec.cell;
    let fail = |cause: FailureCause| CliError(format!("{target}: {cause}"));

    let stats_json = p.get("stats-json");
    let trace = p.get("trace");
    let observing = stats_json.is_some() || trace.is_some() || p.flag("attr");
    // Observed runs keep per-PC stall counters for the per-loop roll-up.
    let mut per_pc = None;
    let mut events = 0;
    let result = if let Some(path) = trace {
        let file = std::fs::File::create(path)
            .map_err(|e| CliError(format!("cannot create {path}: {e}")))?;
        let mut writer = TraceWriter::new(std::io::BufWriter::new(file));
        let result = runner.run_cell_observed(cell, selection, &opts, &mut writer);
        events = writer.events_written;
        per_pc = std::mem::take(&mut writer.collector).into_parts().1;
        writer
            .finish()
            .map_err(|e| CliError(format!("cannot write {path}: {e}")))?;
        result
    } else if observing {
        let mut sink = AttrCollector::with_per_pc();
        let result = runner.run_cell_observed(cell, selection, &opts, &mut sink);
        per_pc = sink.into_parts().1;
        result
    } else {
        runner.run_cell_with(cell, selection, &opts)
    }
    .map_err(fail)?;
    let speedup = runner.speedup(&result);

    let mut out = String::new();
    if let Some(sel) = selection {
        writeln!(out, "extended instructions: {}", sel.num_confs()).unwrap();
        writeln!(
            out,
            "baseline: {} cycles | T1000: {} cycles | speedup {:.3}x",
            runner.baseline_cycles(),
            result.cycles,
            speedup.unwrap_or(0.0)
        )
        .unwrap();
    }
    writeln!(
        out,
        "cycles {} | instrs {} | base IPC {:.2} | ext execs {} | reconfigs {}",
        result.cycles,
        result.base_instructions,
        result.base_ipc,
        result.ext_executed,
        result.reconfigurations
    )
    .unwrap();
    // The cell reproduced the reference run's architectural results.
    let sys = runner.reference_sys();
    if let Some(code) = sys.exit_code {
        writeln!(out, "exit {code} | checksum 0x{:016x}", result.checksum).unwrap();
    }
    if !sys.output.is_empty() {
        writeln!(out, "--- program output ---").unwrap();
        out.push_str(&sys.output);
    }

    if observing {
        let session = runner.session();
        let analysis = session.analysis();
        let loops = per_pc
            .map(|per_pc| {
                runstats::loop_attrs(session.program(), &analysis.cfg, &analysis.profile, &per_pc)
            })
            .unwrap_or_default();
        if let Some(path) = stats_json {
            let doc = runstats::run_stats_doc(target, &result, speedup, &loops);
            std::fs::write(path, doc.to_string_pretty())
                .map_err(|e| CliError(format!("cannot write {path}: {e}")))?;
            writeln!(out, "wrote {path}").unwrap();
        }
        if let Some(path) = trace {
            writeln!(out, "wrote {path} ({events} events)").unwrap();
        }
        if p.flag("attr") {
            out.push_str(&runstats::render_attr_table(&result.attr));
            out.push_str(&runstats::render_loop_table(
                &loops,
                result.attr.total_cycles,
                8,
            ));
        }
    }
    Ok(out)
}

/// `t1000 report <stats.json>`: renders the attribution table from a
/// document previously written by `run --stats-json`.
fn cmd_report(args: &[String]) -> Result<String, CliError> {
    let p = parse(args, &[], &[])?;
    let [path] = p.positional.as_slice() else {
        return err("report: expected exactly one stats JSON file");
    };
    let text =
        std::fs::read_to_string(path).map_err(|e| CliError(format!("cannot read {path}: {e}")))?;
    let doc = Json::parse(&text).map_err(|e| CliError(format!("{path}: {e}")))?;
    runstats::report_from_stats(&doc).map_err(|e| CliError(format!("{path}: {e}")))
}

fn cmd_profile(args: &[String]) -> Result<String, CliError> {
    let p = parse(args, &[], &[])?;
    let [path] = p.positional.as_slice() else {
        return err("profile: expected exactly one input file");
    };
    let program = load(path)?;
    let cfg = t1000_profile::Cfg::build(&program).map_err(|e| CliError(e.to_string()))?;
    let profile =
        t1000_profile::ExecProfile::collect(&program, 0).map_err(|e| CliError(e.to_string()))?;
    Ok(t1000_profile::report::render(&program, &cfg, &profile))
}

/// Renders `--explain`: the per-pass timing/output table followed by the
/// per-candidate accept/reject decisions.
fn render_trace(out: &mut String, trace: &PipelineTrace) {
    writeln!(out, "pipeline for strategy `{}`:", trace.strategy).unwrap();
    writeln!(out, "{:<32} {:>9} {:>7}  note", "pass", "time", "items").unwrap();
    for pass in &trace.passes {
        writeln!(
            out,
            "{:<32} {:>6} us {:>7}  {}",
            pass.name, pass.micros, pass.items, pass.note
        )
        .unwrap();
    }
    writeln!(out, "total: {} us", trace.total_micros()).unwrap();
    if !trace.decisions.is_empty() {
        writeln!(out, "decisions:").unwrap();
        for d in &trace.decisions {
            writeln!(
                out,
                "  {} pc=0x{:05x} len {}: {}",
                if d.accepted { "accept" } else { "reject" },
                d.pc,
                d.len,
                d.reason
            )
            .unwrap();
        }
    }
    writeln!(out).unwrap();
}

fn cmd_select(args: &[String]) -> Result<String, CliError> {
    let p = parse(args, SELECT_VALUE_OPTS, SELECT_FLAG_OPTS)?;
    let [target] = p.positional.as_slice() else {
        return err("select: expected exactly one input (a file or bench:<name>)");
    };
    let spec = cell_spec(Front::Select, &p, target.strip_prefix("bench:"))?;
    let Some(strategy) = spec.cell.selection.strategy_spec() else {
        return err("select: the baseline strategy has no selection job");
    };
    let (program, _) = program_of(&spec, target)?;
    let session = Session::new(program).map_err(|e| CliError(e.to_string()))?;

    let mut out = String::new();
    let sel = if p.flag("explain") {
        let (sel, trace) = session.explain(&strategy);
        render_trace(&mut out, &trace);
        sel
    } else {
        session.select(&strategy)
    };
    writeln!(
        out,
        "{} configuration(s), {} site(s)",
        sel.num_confs(),
        sel.fusion.num_sites()
    )
    .unwrap();
    for c in &sel.confs {
        writeln!(
            out,
            "conf {:>2}: len {} | {} site(s) | {:>3} LUTs depth {} @ {:>2} bits | latency {} | gain ~{}",
            c.conf, c.seq_len, c.num_sites, c.cost.luts, c.cost.depth, c.width, c.latency, c.total_gain
        )
        .unwrap();
        for i in &c.canon.skeleton {
            writeln!(out, "    {i}").unwrap();
        }
    }
    Ok(out)
}

fn cmd_bench(args: &[String]) -> Result<String, CliError> {
    let p = parse(args, BENCH_VALUE_OPTS, BENCH_FLAG_OPTS)?;
    if let Some(path) = p.get("validate") {
        // Validation reads an artifact and runs nothing: any option that
        // would shape a run is rejected, not dropped.
        if let Some(name) = p.positional.first() {
            return err(format!(
                "bench: --validate FILE takes no benchmark name (got `{name}`)"
            ));
        }
        if let Some(opt) = p.given().find(|o| !matches!(*o, "validate" | "expect")) {
            return err(format!("bench: --{opt} does not apply to --validate FILE"));
        }
        return bench_validate(path, p.get("expect"));
    }
    if p.get("expect").is_some() {
        return err("bench: --expect requires --validate FILE");
    }
    let named = match p.get("plan") {
        None => None,
        Some(name) => Some(t1000_bench::plan::named_plan(name).ok_or_else(|| {
            let known: Vec<&str> = t1000_bench::plan::NAMED_PLANS
                .iter()
                .map(|n| n.name)
                .collect();
            CliError(format!(
                "bench: unknown plan `{name}` (one of {})",
                known.join(", ")
            ))
        })?),
    };
    if named.is_some() || p.flag("all") {
        let mode = named.map_or("--all".to_string(), |n| format!("--plan {}", n.name));
        if let Some(bench) = p.positional.first() {
            return err(format!(
                "bench: {mode} runs every workload; it takes no benchmark name (got `{bench}`)"
            ));
        }
        // A plan fixes its cells, and `--all` its PFU counts: an option
        // that would reshape them is rejected, not dropped.
        let fixed: &[&str] = match named {
            Some(_) => &["all", "pfus", "strategies"],
            None => &["pfus"],
        };
        let plane_knob = |o: &&str| named.is_some() && Front::Bench.admits(o) && *o != "scale";
        if let Some(opt) = p.given().find(|o| fixed.contains(o) || plane_knob(o)) {
            return err(format!("bench: --{opt} does not apply to {mode}"));
        }
        let spec = cell_spec(Front::Bench, &p, None)?;
        let plan = match named {
            Some(named) => named.plan(),
            None if p.flag("strategies") => t1000_bench::plan::run_all_plan_with_strategies(),
            None => t1000_bench::plan::run_all_plan(),
        };
        let plan = plan.with_config_plane(&spec.cell.machine);
        let config = engine_config(&p)?;
        return run_plan(
            &plan,
            spec.scale,
            p.get("json"),
            &config,
            |run| match named {
                Some(named) => t1000_bench::results::render_pivot(run, named),
                None => t1000_bench::results::render_markdown(run),
            },
        );
    }
    for (opt, given) in [
        ("strategies", p.flag("strategies")),
        ("json", p.get("json").is_some()),
        ("inject", p.get("inject").is_some()),
        ("deterministic", p.flag("deterministic")),
    ] {
        if given {
            return err(format!("bench: --{opt} requires --all"));
        }
    }
    let [name] = p.positional.as_slice() else {
        return err(format!(
            "bench: expected one benchmark name (one of {:?}), --all, --plan NAME, or --validate FILE",
            t1000_workloads::NAMES
        ));
    };
    let spec = cell_spec(Front::Bench, &p, Some(name))?;
    let opts = RunOptions {
        max_cycles: max_cycles(&p)?,
        no_fast_path: p.flag("no-fast-path"),
    };
    let (runner, sel) = prepare(&spec, name, 0, &opts)?;
    let result = runner
        .run_cell_with(spec.cell, sel.as_deref(), &opts)
        .map_err(|cause| CliError(format!("{name}: {cause}")))?;
    Ok(format!(
        "{name} ({:?}): baseline {} cycles, T1000/{}-PFU {} cycles, speedup {:.3}x, {} confs, checksum ok\n",
        spec.scale,
        runner.baseline_cycles(),
        spec.cell.machine.pfus.limit().unwrap_or_default(),
        result.cycles,
        runner.speedup(&result).unwrap_or(0.0),
        sel.map_or(0, |s| s.num_confs())
    ))
}

/// Cycle fuel per simulation: `--max-cycles`, else `T1000_MAX_CYCLES`,
/// else 0 (unlimited).
fn max_cycles(p: &Parsed) -> Result<u64, CliError> {
    match p.get("max-cycles") {
        Some(v) => v
            .parse::<u64>()
            .map_err(|_| CliError(format!("--max-cycles: `{v}` is not a cycle count"))),
        None => match std::env::var("T1000_MAX_CYCLES") {
            Ok(v) => v
                .parse::<u64>()
                .map_err(|_| CliError(format!("T1000_MAX_CYCLES: `{v}` is not a cycle count"))),
            Err(_) => Ok(0),
        },
    }
}

/// Assembles the engine's robustness configuration from CLI flags and
/// their environment fallbacks (`T1000_INJECT`, `T1000_MAX_CYCLES`).
fn engine_config(p: &Parsed) -> Result<t1000_bench::engine::EngineConfig, CliError> {
    let faults = match p.get("inject") {
        Some(text) => t1000_bench::fault::FaultPlan::parse(text)
            .map_err(|e| CliError(format!("--inject: {e}")))?,
        None => t1000_bench::fault::FaultPlan::from_env()
            .map_err(|e| CliError(format!("T1000_INJECT: {e}")))?,
    };
    Ok(t1000_bench::engine::EngineConfig {
        max_cycles: max_cycles(p)?,
        faults,
        deterministic: p.flag("deterministic"),
        no_fast_path: p.flag("no-fast-path"),
    })
}

/// `bench --all` and `bench --plan NAME`: runs `plan` through the shared
/// engine, optionally writing the `BENCH_results.json` artifact, and
/// prints `render`'s report. Cells that fail are tabulated and the
/// command exits nonzero.
fn run_plan(
    plan: &t1000_bench::plan::Plan,
    scale: t1000_workloads::Scale,
    json: Option<&str>,
    config: &t1000_bench::engine::EngineConfig,
    render: impl FnOnce(&t1000_bench::engine::EngineRun) -> String,
) -> Result<String, CliError> {
    t1000_bench::engine::num_threads().map_err(CliError)?;
    let run = t1000_bench::engine::execute_with(plan, scale, config);
    if let Some(path) = json {
        t1000_bench::results::write_json(&run, std::path::Path::new(path))
            .map_err(|e| CliError(format!("cannot write {path}: {e}")))?;
    }
    let mut out = render(&run);
    let s = &run.stats;
    writeln!(out).unwrap();
    writeln!(
        out,
        "Engine: {} cells requested, {} simulated ({} deduped), {} selection jobs, {} threads.",
        s.cells_requested, s.cells_simulated, s.cells_deduped, s.selection_jobs, s.threads
    )
    .unwrap();
    if let Some(path) = json {
        writeln!(
            out,
            "Wrote {path} (schema v{}).",
            t1000_bench::results::SCHEMA_VERSION
        )
        .unwrap();
    }
    if run.failures.is_empty() {
        Ok(out)
    } else {
        // The artifact (if any) records the failures; print everything we
        // rendered, then refuse a clean exit with the failure table.
        print!("{out}");
        Err(CliError(t1000_bench::results::render_failures(
            &run.failures,
        )))
    }
}

/// `bench --validate FILE [--expect KEY=VALUE,...]`: re-checks a
/// `BENCH_results.json` artifact against the schema and the recomputed
/// Rust reference checksums, then any declarative `--expect` assertions
/// (the robust replacement for grepping the JSON in CI).
fn bench_validate(path: &str, expect: Option<&str>) -> Result<String, CliError> {
    let text =
        std::fs::read_to_string(path).map_err(|e| CliError(format!("cannot read {path}: {e}")))?;
    let summary = t1000_bench::results::validate_artifact(&text)
        .map_err(|e| CliError(format!("{path}: INVALID: {e}")))?;
    let failed = if summary.failed_cells > 0 {
        format!(" {} failed cell(s) recorded,", summary.failed_cells)
    } else {
        String::new()
    };
    let mut out = format!(
        "{path}: OK (schema v{}, scale {}, {} workloads, {} cells,{failed} all checksums match the Rust reference)\n",
        t1000_bench::results::SCHEMA_VERSION,
        summary.scale,
        summary.workloads,
        summary.cells
    );
    if let Some(spec) = expect {
        let satisfied = t1000_bench::results::check_expectations(&text, spec)
            .map_err(|e| CliError(format!("{path}: EXPECTATION FAILED: {e}")))?;
        writeln!(
            out,
            "expectations: {} satisfied ({})",
            satisfied.len(),
            satisfied.join(", ")
        )
        .unwrap();
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    fn tmp(name: &str, content: &str) -> String {
        let path =
            std::env::temp_dir().join(format!("t1000_cli_test_{}_{name}", std::process::id()));
        std::fs::write(&path, content).unwrap();
        path.to_string_lossy().into_owned()
    }

    const KERNEL: &str = "
main:
    li  $s0, 300
    li  $t0, 3
    li  $t1, 5
loop:
    sll  $t2, $t0, 4
    addu $t2, $t2, $t1
    xor  $t1, $t1, $t2
    andi $t1, $t1, 1023
    addiu $s0, $s0, -1
    bgtz $s0, loop
    move $a0, $t1
    li   $v0, 30
    syscall
    li   $a0, 0
    li   $v0, 10
    syscall
";

    #[test]
    fn no_args_prints_usage() {
        let out = run(&[]).unwrap();
        assert!(out.contains("usage:"));
        assert!(run(&s(&["help"])).unwrap().contains("t1000 bench"));
    }

    /// Golden test pinning `t1000 --help` byte-for-byte: any help change
    /// must be deliberate (and mirrored in the docs).
    #[test]
    fn help_output_matches_the_golden_text() {
        let golden = "t1000 — configurable extended instructions toolchain\n\
usage:\n\
\x20 t1000 asm     <file.s> [--out file.tobj]\n\
\x20 t1000 disasm  <file.s|.tobj>\n\
\x20 t1000 run     <file|bench:name> [--pfus N|unlimited] [--reconfig C] [--greedy] [--threshold F] [--max-instr N]\n\
\x20               [--reload-weight W] [--pfu-planes 1|2] [--pfu-prefetch N] [--conf-compress R]\n\
\x20               [--stats-json FILE] [--trace FILE] [--attr] [--scale test|full] [--no-fast-path]\n\
\x20 t1000 report  <stats.json>\n\
\x20 t1000 profile <file>\n\
\x20 t1000 select  <file|bench:name> [--strategy greedy|selective|knapsack] [--pfus N]\n\
\x20               [--greedy] [--threshold F] [--lut-budget N] [--reload-weight W] [--explain] [--scale test|full]\n\
\x20 t1000 bench   <name> [--scale test|full] [--pfus N] [--pfu-planes 1|2] [--pfu-prefetch N] [--conf-compress R]\n\
\x20 t1000 bench   --all [--scale test|full] [--json FILE]\n\
\x20               [--pfu-planes 1|2] [--pfu-prefetch N] [--conf-compress R]\n\
\x20               [--deterministic] [--inject PLAN] [--max-cycles N] [--strategies] [--no-fast-path]\n\
\x20 t1000 bench   --plan reconfig|bitwidth|ports|width|branch|pfu_policy|reload [--scale test|full]\n\
\x20               [--json FILE] [--deterministic] [--inject PLAN] [--max-cycles N] [--no-fast-path]\n\
\x20 t1000 bench   --validate <BENCH_results.json> [--expect KEY=VALUE,...]\n\
\x20 t1000 serve   [--socket PATH] [--workers N] [--queue N]  (JSON-RPC daemon; docs/SERVING.md)\n";
        assert_eq!(run(&s(&["--help"])).unwrap(), golden);
        assert_eq!(run(&s(&["help"])).unwrap(), golden);
    }

    /// Anti-drift check: every option a subcommand parses must be named
    /// in `usage()` (the tables are shared with the `parse` calls, so an
    /// undocumented option cannot slip in).
    #[test]
    fn every_parsed_option_appears_in_usage() {
        let usage = usage();
        let tables: &[(&str, &[&str])] = &[
            ("asm", ASM_VALUE_OPTS),
            ("run", RUN_VALUE_OPTS),
            ("run", RUN_FLAG_OPTS),
            ("select", SELECT_VALUE_OPTS),
            ("select", SELECT_FLAG_OPTS),
            ("bench", BENCH_VALUE_OPTS),
            ("bench", BENCH_FLAG_OPTS),
            ("serve", SERVE_VALUE_OPTS),
            ("serve", SERVE_FLAGS),
        ];
        for (cmd, opts) in tables {
            for opt in *opts {
                assert!(
                    usage.contains(&format!("--{opt}")),
                    "{cmd}: --{opt} is parsed but missing from usage()"
                );
            }
        }
        let names: Vec<&str> = t1000_bench::plan::NAMED_PLANS
            .iter()
            .map(|n| n.name)
            .collect();
        assert!(
            usage.contains(&format!("--plan {} ", names.join("|"))),
            "usage() must list the named plans {names:?}"
        );
    }

    #[test]
    fn unknown_command_errors() {
        assert!(run(&s(&["frobnicate"])).is_err());
        let e = run(&s(&["worker"])).unwrap_err();
        assert!(e.0.contains("unknown command `worker`"), "{e}");
    }

    #[test]
    fn asm_emits_an_object_that_disasm_reads() {
        let src = tmp("asm.s", KERNEL);
        let obj_text = run(&s(&["asm", &src])).unwrap();
        assert!(obj_text.starts_with("T1000OBJ v1"));
        let obj = tmp("asm.tobj", &obj_text);
        let listing = run(&s(&["disasm", &obj])).unwrap();
        assert!(listing.contains("addu $t2, $t2, $t1"), "{listing}");
    }

    #[test]
    fn run_reports_speedup_and_checksum() {
        let src = tmp("run.s", KERNEL);
        let out = run(&s(&["run", &src, "--pfus", "2"])).unwrap();
        assert!(out.contains("speedup"), "{out}");
        assert!(out.contains("checksum 0x"), "{out}");
        // Baseline-only run.
        let out = run(&s(&["run", &src])).unwrap();
        assert!(out.contains("IPC"), "{out}");
        assert!(!out.contains("speedup"));
    }

    #[test]
    fn profile_shows_hot_loop() {
        let src = tmp("prof.s", KERNEL);
        let out = run(&s(&["profile", &src])).unwrap();
        assert!(out.contains("hottest blocks:"), "{out}");
        assert!(out.contains("loops (innermost first):"), "{out}");
    }

    #[test]
    fn select_lists_configurations() {
        let src = tmp("sel.s", KERNEL);
        let out = run(&s(&["select", &src, "--pfus", "2"])).unwrap();
        assert!(out.contains("conf  0"), "{out}");
        assert!(out.contains("LUTs"), "{out}");
        let greedy = run(&s(&["select", &src, "--greedy"])).unwrap();
        assert!(greedy.contains("configuration"), "{greedy}");
    }

    #[test]
    fn select_explain_prints_the_pass_table_and_decisions() {
        let src = tmp("sel_explain.s", KERNEL);
        let out = run(&s(&[
            "select",
            &src,
            "--strategy",
            "selective",
            "--pfus",
            "2",
            "--explain",
        ]))
        .unwrap();
        assert!(out.contains("pipeline for strategy `selective"), "{out}");
        for pass in [
            "BuildAnalysis",
            "ExtractMaximalSites",
            "ProfileWeights",
            "SelectStrategy(selective)",
            "LowerFusionMap",
        ] {
            assert!(out.contains(pass), "missing pass {pass}: {out}");
        }
        assert!(out.contains("decisions:"), "{out}");
        assert!(out.contains("accept") || out.contains("reject"), "{out}");
        // `--explain` must not change what gets selected.
        let plain = run(&s(&["select", &src, "--pfus", "2"])).unwrap();
        assert!(out.ends_with(&plain), "explain diverges from plain output");
    }

    #[test]
    fn select_supports_strategy_names_and_registry_targets() {
        let out = run(&s(&[
            "select",
            "bench:g721_enc",
            "--strategy",
            "knapsack",
            "--lut-budget",
            "200",
            "--explain",
        ]))
        .unwrap();
        assert!(out.contains("SelectStrategy(knapsack)"), "{out}");
        assert!(out.contains("configuration"), "{out}");
        let src = tmp("sel_strat.s", KERNEL);
        let e = run(&s(&["select", &src, "--strategy", "simulated-annealing"])).unwrap_err();
        assert!(e.0.contains("--strategy"), "{e}");
    }

    #[test]
    fn bench_runs_a_registry_kernel() {
        let out = run(&s(&["bench", "g721_enc", "--scale", "test"])).unwrap();
        assert!(out.contains("speedup"), "{out}");
        assert!(out.contains("checksum ok"), "{out}");
        assert!(run(&s(&["bench", "nope"])).is_err());
        // The fast path changes no result, so --no-fast-path changes no text.
        let slow = run(&s(&["bench", "g721_enc", "--no-fast-path"])).unwrap();
        assert_eq!(slow, out);
    }

    #[test]
    fn bench_all_emits_report_and_validating_artifact() {
        let json = std::env::temp_dir().join(format!(
            "t1000_cli_test_{}_results.json",
            std::process::id()
        ));
        let json = json.to_string_lossy().into_owned();
        let out = run(&s(&["bench", "--all", "--scale", "test", "--json", &json])).unwrap();
        assert!(out.contains("# T1000 experiment report"), "{out}");
        assert!(out.contains("## Figure 6"), "{out}");
        assert!(out.contains("Engine: "), "{out}");

        // The artifact it just wrote must validate...
        let ok = run(&s(&["bench", "--validate", &json])).unwrap();
        assert!(ok.contains("OK"), "{ok}");

        // ...and a corrupted copy must not.
        let text = std::fs::read_to_string(&json).unwrap();
        let bad = tmp(
            "bad_results.json",
            &text.replacen("\"cycles\"", "\"cycels\"", 1),
        );
        assert!(run(&s(&["bench", "--validate", &bad])).is_err());
        let _ = std::fs::remove_file(&json);
    }

    #[test]
    fn bench_all_reports_injected_failures_and_exits_nonzero() {
        let json = std::env::temp_dir().join(format!(
            "t1000_cli_test_{}_faulted.json",
            std::process::id()
        ));
        let json = json.to_string_lossy().into_owned();
        // Cell 2 panics; cell 6 loses all its PFU configurations and
        // must degrade to scalar execution.
        let e = run(&s(&[
            "bench",
            "--all",
            "--scale",
            "test",
            "--json",
            &json,
            "--deterministic",
            "--inject",
            "panic@2,pfu@6",
        ]))
        .unwrap_err();
        assert!(e.0.contains("FAILED"), "{}", e.0);
        assert!(e.0.contains("panic"), "{}", e.0);

        // The artifact still validates: the panic is owned up to in
        // failed_cells, and the degraded cell's results are checksum-true.
        let ok = run(&s(&["bench", "--validate", &json])).unwrap();
        assert!(ok.contains("OK"), "{ok}");
        assert!(ok.contains("failed cell(s)"), "{ok}");
        let text = std::fs::read_to_string(&json).unwrap();
        assert!(
            text.contains("\"cause\": \"panic\""),
            "missing failure record"
        );
        let _ = std::fs::remove_file(&json);
    }

    #[test]
    fn no_fast_path_is_bit_identical_from_the_cli() {
        let src = tmp("nofast.s", KERNEL);
        let fast = run(&s(&["run", &src, "--pfus", "2"])).unwrap();
        let slow = run(&s(&["run", &src, "--pfus", "2", "--no-fast-path"])).unwrap();
        assert_eq!(fast, slow, "fast path changed user-visible output");
    }

    #[test]
    fn bench_validate_expect_asserts_on_the_artifact() {
        let json =
            std::env::temp_dir().join(format!("t1000_cli_test_{}_expect.json", std::process::id()));
        let json = json.to_string_lossy().into_owned();
        let out = run(&s(&["bench", "--all", "--scale", "test", "--json", &json])).unwrap();
        assert!(out.contains("# T1000 experiment report"), "{out}");

        let ok = run(&s(&[
            "bench",
            "--validate",
            &json,
            "--expect",
            "scale=test,failed_cells=0,strategy=selective(pfus=2,threshold=0.005)",
        ]))
        .unwrap();
        assert!(ok.contains("expectations: 3 satisfied"), "{ok}");

        let e = run(&s(&[
            "bench",
            "--validate",
            &json,
            "--expect",
            "failed_cells=9",
        ]))
        .unwrap_err();
        assert!(e.0.contains("EXPECTATION FAILED"), "{}", e.0);

        // --expect without --validate is a usage error.
        let e = run(&s(&["bench", "--all", "--expect", "failed_cells=0"])).unwrap_err();
        assert!(e.0.contains("--expect requires --validate"), "{}", e.0);
        let _ = std::fs::remove_file(&json);
    }

    #[test]
    fn bench_strategies_requires_all() {
        let e = run(&s(&["bench", "g721_enc", "--strategies"])).unwrap_err();
        assert!(e.0.contains("--strategies"), "{e}");
    }

    #[test]
    fn bench_remote_and_retry_flags_are_guarded() {
        // `bench` has no multi-process, multi-machine or retry-tuning
        // options: each is rejected as unknown alongside --all.
        for extra in [["--shards", "2"], ["--remote", "h:1"], ["--retries", "2"]] {
            let mut args = vec!["bench", "--all"];
            args.extend(extra);
            let e: CliError = run(&s(&args)).unwrap_err();
            assert!(e.0.contains(&format!("unknown option {}", extra[0])), "{e}");
        }
    }

    #[test]
    fn bench_rejects_malformed_robustness_flags() {
        let e = run(&s(&["bench", "--all", "--inject", "boom@1"])).unwrap_err();
        assert!(e.0.contains("--inject"), "{}", e.0);
        let e = run(&s(&["bench", "--all", "--max-cycles", "lots"])).unwrap_err();
        assert!(e.0.contains("--max-cycles"), "{}", e.0);
        // Options one mode would ignore are rejected, not dropped.
        let e = run(&s(&["bench", "--all", "--pfus", "4"])).unwrap_err();
        assert!(e.0.contains("--pfus"), "{}", e.0);
        for extra in [
            &["--json", "x.json"][..],
            &["--inject", "panic@1"],
            &["--deterministic"],
        ] {
            let mut args = vec!["bench", "g721_enc"];
            args.extend(extra);
            let e = run(&s(&args)).unwrap_err();
            assert!(
                e.0.contains(&format!("{} requires --all", extra[0])),
                "{}",
                e.0
            );
        }
        // Validation runs nothing, so every option that shapes a run is
        // rejected with it; only --expect applies.
        for extra in [
            &["--json", "x.json"][..],
            &["--pfus", "2"],
            &["--all"],
            &["--strategies"],
            &["--deterministic"],
            &["--plan", "reload"],
            &["--inject", "boom"],
            &["--scale", "full"],
        ] {
            let mut args = vec!["bench", "--validate", "missing.json"];
            args.extend(extra);
            let e = run(&s(&args)).unwrap_err();
            assert!(
                e.0.contains(&format!("{} does not apply to --validate", extra[0])),
                "{}",
                e.0
            );
        }
        let e = run(&s(&["bench", "--validate", "missing.json", "g721_enc"])).unwrap_err();
        assert!(e.0.contains("takes no benchmark name"), "{}", e.0);
        // Single mode honours the fuel watchdog.
        let e = run(&s(&["bench", "g721_enc", "--max-cycles", "100"])).unwrap_err();
        assert!(e.0.contains("fuel exhausted (100 cycles)"), "{}", e.0);
        let e = run(&s(&["bench", "g721_enc", "--max-cycles", "lots"])).unwrap_err();
        assert!(e.0.contains("--max-cycles"), "{}", e.0);
    }

    #[test]
    fn bench_plan_rejects_what_the_plan_fixes() {
        // An unknown plan names every known one.
        let e = run(&s(&["bench", "--plan", "warp"])).unwrap_err();
        assert!(e.0.contains("unknown plan `warp`"), "{}", e.0);
        for named in t1000_bench::plan::NAMED_PLANS {
            assert!(
                e.0.contains(named.name),
                "{} missing from: {}",
                named.name,
                e.0
            );
        }
        // A plan fixes its cells: options that reshape them are refused.
        for extra in [
            &["--strategies"][..],
            &["--pfus", "4"],
            &["--pfu-planes", "2"],
            &["--pfu-prefetch", "2"],
            &["--conf-compress", "0.5"],
            &["--all"],
        ] {
            let mut args = vec!["bench", "--plan", "reload"];
            args.extend(extra);
            let e = run(&s(&args)).unwrap_err();
            assert!(
                e.0.contains(&format!("{} does not apply to --plan reload", extra[0])),
                "{}",
                e.0
            );
        }
        let e = run(&s(&["bench", "g721_enc", "--plan", "branch"])).unwrap_err();
        assert!(
            e.0.contains("takes no benchmark name (got `g721_enc`)"),
            "{}",
            e.0
        );
        // `--all` runs every workload too: a name is refused, not dropped.
        let e = run(&s(&["bench", "g721_enc", "--all"])).unwrap_err();
        assert!(
            e.0.contains("--all runs every workload; it takes no benchmark name (got `g721_enc`)"),
            "{}",
            e.0
        );
    }

    /// Each cell key a CLI front end spells is an option of its
    /// subcommand, so `usage()` names it too.
    #[test]
    fn every_cell_key_is_an_option_of_its_subcommand() {
        for (front, opts) in [
            (Front::Run, [RUN_VALUE_OPTS, RUN_FLAG_OPTS]),
            (Front::Select, [SELECT_VALUE_OPTS, SELECT_FLAG_OPTS]),
            (Front::Bench, [BENCH_VALUE_OPTS, BENCH_FLAG_OPTS]),
        ] {
            for (_, spelled) in spec::SPELLING {
                let name = spelled[front as usize];
                assert!(
                    matches!(name, "" | "benchmark") || opts.concat().contains(&name),
                    "{front:?} --{name}"
                );
            }
        }
    }

    #[test]
    fn run_emits_stats_json_and_report_reads_it() {
        let src = tmp("stats.s", KERNEL);
        let json = tmp("stats.json", "");
        let out = run(&s(&[
            "run",
            &src,
            "--pfus",
            "2",
            "--stats-json",
            &json,
            "--attr",
        ]))
        .unwrap();
        assert!(out.contains("cycle attribution"), "{out}");
        assert!(out.contains("busy"), "{out}");
        assert!(out.contains(&format!("wrote {json}")), "{out}");

        // The document wraps the cell document, which round-trips through
        // the validator and `report`.
        let text = std::fs::read_to_string(&json).unwrap();
        let doc = Json::parse(&text).unwrap();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some(runstats::RUN_STATS_SCHEMA)
        );
        assert_eq!(doc.get("target").and_then(Json::as_str), Some(src.as_str()));
        let cell = doc.get("cell").unwrap();
        let cycles = cell.get("cycles").and_then(Json::as_u64);
        runstats::validate_attribution(cell.get("attribution").unwrap(), cycles).unwrap();
        let report = run(&s(&["report", &json])).unwrap();
        assert!(report.starts_with("workload: adhoc\n"), "{report}");
        assert!(report.contains("cycle attribution"), "{report}");
        let _ = std::fs::remove_file(&json);
    }

    #[test]
    fn run_traces_events_as_json_lines() {
        let src = tmp("trace.s", KERNEL);
        let trace = tmp("trace.jsonl", "");
        let out = run(&s(&["run", &src, "--pfus", "2", "--trace", &trace])).unwrap();
        assert!(out.contains("events)"), "{out}");
        let text = std::fs::read_to_string(&trace).unwrap();
        assert!(!text.is_empty());
        for line in text.lines().take(50) {
            let e = Json::parse(line).unwrap();
            assert!(e.get("type").and_then(Json::as_str).is_some());
        }
        // The selective selection at 2 PFUs stays resident: the trace must
        // contain configuration loads and (usually) hits.
        assert!(text.contains("\"conf_load\""), "no conf_load in trace");
        let _ = std::fs::remove_file(&trace);
    }

    #[test]
    fn run_accepts_registry_workloads() {
        let out = run(&s(&["run", "bench:g721_enc", "--attr"])).unwrap();
        assert!(out.contains("cycle attribution"), "{out}");
        assert!(run(&s(&["run", "bench:nope"])).is_err());
        assert!(run(&s(&["run", "bench:g721_enc", "--scale", "huge"])).is_err());
    }

    #[test]
    fn report_rejects_non_stats_documents() {
        let not_stats = tmp("not_stats.json", "{\"schema\": \"other\"}");
        assert!(run(&s(&["report", &not_stats])).is_err());
        let missing = tmp(
            "missing_attr.json",
            "{\"schema\": \"t1000.run-stats\", \"schema_version\": 2, \
             \"cell\": {\"workload\": \"adhoc\", \"cycles\": 5}, \"loops\": []}",
        );
        let e = run(&s(&["report", &missing])).unwrap_err();
        assert!(e.0.contains("attribution"), "{e}");
        // A version-1 document (own counters, no cell) must be regenerated.
        let v1 = tmp(
            "v1_stats.json",
            "{\"schema\": \"t1000.run-stats\", \"schema_version\": 1, \"cycles\": 5}",
        );
        let e = run(&s(&["report", &v1])).unwrap_err();
        assert!(e.0.contains("rerun"), "{e}");
    }

    #[test]
    fn run_rejects_bad_machine_options() {
        let src = tmp("bad.s", KERNEL);
        assert!(run(&s(&["run", &src, "--pfus", "many"])).is_err());
        assert!(run(&s(&["run", &src, "--reconfig", "x"])).is_err());
        // Selection options without PFUs would be dropped: each is named.
        let e = run(&s(&[
            "run",
            "bench:g721_enc",
            "--greedy",
            "--threshold",
            "0.5",
            "--reload-weight",
            "3",
        ]))
        .unwrap_err();
        assert!(e.0.contains("--greedy"), "{e}");
        for extra in [
            &["--greedy"][..],
            &["--threshold", "0.5"],
            &["--reload-weight", "3"],
        ] {
            for pfus in [&[][..], &["--pfus", "0"]] {
                let mut args = vec!["run", "bench:g721_enc"];
                args.extend(pfus);
                args.extend(extra);
                let e = run(&s(&args)).unwrap_err();
                assert!(
                    e.0.contains(&format!("{} selects for PFUs", extra[0])),
                    "{e}"
                );
            }
        }
        // Without PFUs the cell is the canonical baseline: a machine knob
        // would be dropped, so each is named.
        for extra in [
            &["--reconfig", "50"][..],
            &["--pfu-planes", "2"],
            &["--pfu-prefetch", "3"],
            &["--conf-compress", "0.5"],
        ] {
            for pfus in [&[][..], &["--pfus", "0"]] {
                let mut args = vec!["run", "bench:g721_enc"];
                args.extend(pfus);
                args.extend(extra);
                let e = run(&s(&args)).unwrap_err();
                assert!(
                    e.0.contains(&format!("{} configures PFUs", extra[0])),
                    "{e}"
                );
            }
        }
        // Out-of-range integers are refused, not truncated.
        for extra in [
            &["--pfus", "4294967298"][..],
            &["--reconfig", "4294967306"],
            &["--pfu-prefetch", "4294967296"],
        ] {
            let mut args = vec!["run", "bench:g721_enc"];
            args.extend(extra);
            let e = run(&s(&args)).unwrap_err();
            assert!(e.0.contains(&format!("{} must be", extra[0])), "{e}");
        }
        // Greedy reads neither a threshold nor a reload weight.
        for extra in [&["--threshold", "0.5"][..], &["--reload-weight", "3"]] {
            let mut args = vec!["run", "bench:g721_enc", "--pfus", "2", "--greedy"];
            args.extend(extra);
            let e = run(&s(&args)).unwrap_err();
            assert!(
                e.0.contains(&format!(
                    "{} does not apply to the greedy strategy",
                    extra[0]
                )),
                "{e}"
            );
        }
    }

    #[test]
    fn select_rejects_options_the_strategy_ignores() {
        let src = tmp("sel_unused.s", KERNEL);
        for (strategy, opt) in [
            ("greedy", &["--threshold", "0.5"][..]),
            ("greedy", &["--reload-weight", "3"]),
            ("greedy", &["--lut-budget", "200"]),
            ("greedy", &["--pfus", "2"]),
            ("selective", &["--lut-budget", "200"]),
            ("knapsack", &["--threshold", "0.5"]),
            ("knapsack", &["--pfus", "2"]),
        ] {
            let mut args = vec!["select", src.as_str(), "--strategy", strategy];
            args.extend(opt);
            let e = run(&s(&args)).unwrap_err();
            assert!(
                e.0.contains(&format!(
                    "{} does not apply to the {strategy} strategy",
                    opt[0]
                )),
                "{strategy} {opt:?}: {e}"
            );
        }
        // `--greedy` names the strategy too: with --strategy one is dropped.
        let e = run(&s(&["select", &src, "--greedy", "--threshold", "0.5"])).unwrap_err();
        assert!(e.0.contains("--threshold does not apply"), "{e}");
        let e = run(&s(&["select", &src, "--greedy", "--strategy", "knapsack"])).unwrap_err();
        assert!(e.0.contains("--greedy"), "{e}");
        // What a strategy reads is still accepted.
        for args in [
            &[
                "--strategy",
                "selective",
                "--pfus",
                "2",
                "--threshold",
                "0.01",
            ][..],
            &[
                "--strategy",
                "knapsack",
                "--lut-budget",
                "200",
                "--reload-weight",
                "1",
            ],
        ] {
            let mut full = vec!["select", src.as_str()];
            full.extend(args);
            assert!(run(&s(&full)).is_ok(), "{args:?}");
        }
    }

    #[test]
    fn a_zero_conf_compress_is_no_flag() {
        let plain = run(&s(&["run", "bench:g721_enc", "--pfus", "2"])).unwrap();
        let zero = run(&s(&[
            "run",
            "bench:g721_enc",
            "--pfus",
            "2",
            "--conf-compress",
            "0",
        ]));
        assert_eq!(zero.unwrap(), plain);
    }

    /// The largest prefetch depth once sized a per-cycle buffer, and the
    /// failed allocation aborted the process. A depth beyond the fetch
    /// queue scans the whole queue, as any deeper one does.
    #[test]
    fn the_largest_prefetch_depth_runs() {
        let depth = |n: &str| {
            run(&s(&[
                "run",
                "bench:g721_enc",
                "--pfus",
                "2",
                "--pfu-prefetch",
                n,
            ]))
            .unwrap()
        };
        assert_eq!(depth("4294967295"), depth("1000"));
    }

    #[test]
    fn max_instr_guards_infinite_programs() {
        let src = tmp("inf.s", "main: j main\n");
        let e = run(&s(&["run", &src, "--max-instr", "5000"])).unwrap_err();
        assert!(e.0.contains("limit"), "{e}");
    }
}
