//! # `t1000 serve` — selection-as-a-service
//!
//! A daemon that accepts concurrent selection/simulation requests over a
//! newline-delimited JSON-RPC protocol (stdio or a Unix socket) and
//! answers with schema-v8-compatible result documents. The full wire
//! protocol — methods, schemas, error codes, shedding
//! semantics — is specified in `docs/SERVING.md`.
//!
//! The serving pipeline reuses the experiment engine's machinery one
//! request at a time instead of one batch plan at a time:
//!
//! * every program (registry workload or inline `asm`) is analysed once
//!   per process in a shared [`t1000_core::SessionStore`] keyed by
//!   program hash, so the profiling pass and the per-`StrategySpec`
//!   selection memo-cache are warm across clients;
//! * per-request execution goes through
//!   [`CellRunner::run_cell_isolated`]: one attempt under `catch_unwind`
//!   panic isolation, bounded by cycle fuel; the per-request deadline is
//!   checked before work starts, not during a simulation;
//! * work requests (`select`, `run`) fan out onto a bounded worker pool
//!   behind a bounded queue — when the queue is full the request is shed
//!   immediately with a `429`-style [`code::QUEUE_FULL`] error instead of
//!   building an unbounded backlog. Control requests (`status`,
//!   `cache_stats`, `shutdown`) are answered inline by the connection
//!   reader and are never queued or shed.
//!
//! [`Server::handle_line`] is the transport-free synchronous core, usable
//! for tests and embedding:
//!
//! ```
//! use t1000_cli::serve::{ServeConfig, Server};
//!
//! let server = Server::new(&ServeConfig::default());
//! let request = r#"{"id": 1, "method": "run", "params": {
//!     "asm": "main:\n li $s0, 50\nloop:\n sll $t2, $s0, 3\n xor $t2, $t2, $s0\n andi $t2, $t2, 255\n addiu $s0, $s0, -1\n bgtz $s0, loop\n li $v0, 10\n syscall\n",
//!     "strategy": "selective", "pfus": 2}}"#
//!     .replace('\n', " ");
//! let response = t1000_bench::json::Json::parse(&server.handle_line(&request)).unwrap();
//! assert!(response.get("error").is_none());
//! let result = response.get("result").unwrap();
//! let cell = result.get("cell").unwrap();
//! assert!(cell.get("cycles").and_then(|c| c.as_u64()).unwrap() > 0);
//! // Same program again: the analysis is served from the shared store.
//! server.handle_line(&request);
//! let stats = t1000_bench::json::Json::parse(
//!     &server.handle_line(r#"{"id": 2, "method": "cache_stats"}"#),
//! )
//! .unwrap();
//! let result = stats.get("result").unwrap();
//! assert_eq!(result.get("analyses").and_then(|a| a.as_u64()), Some(1));
//! ```

use crate::args::parse;
use crate::CliError;
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};
use t1000_bench::engine::{CellRunner, FailureCause, RunOptions, SelectionRecord};
use t1000_bench::json::Json;
use t1000_bench::plan::{Cell, MachineSpec, SelectionSpec};
use t1000_bench::results::{cell_result_json, selection_json, SCHEMA_VERSION};
use t1000_core::{program_hash, ExtractConfig, SessionStore};
use t1000_isa::Program;
use t1000_workloads::Scale;

/// Typed JSON-RPC error codes (`error.code` in a response; HTTP-flavoured
/// so operators can pattern-match familiar classes). `error.kind` carries
/// the matching snake_case tag. See `docs/SERVING.md`.
pub mod code {
    /// Unparseable request, unknown method, or invalid `params`.
    pub const BAD_REQUEST: u64 = 400;
    /// The request's `deadline_ms` expired before its work started.
    pub const DEADLINE_EXCEEDED: u64 = 408;
    /// The bounded worker queue is full; the request was shed.
    pub const QUEUE_FULL: u64 = 429;
    /// The cell failed; `error.cause` carries the engine's failure
    /// taxonomy tag (`prepare`, `selection`, `simulate`, `timeout`,
    /// `checksum_mismatch`, `semantics_changed`, `panic`, ...).
    pub const CELL_FAILED: u64 = 500;
    /// The server is draining after a `shutdown` request.
    pub const SHUTTING_DOWN: u64 = 503;
}

/// Profiling-instruction ceiling for inline `asm` programs that do not
/// set `max_instructions` — an untrusted non-terminating program must
/// fail typed instead of pinning a worker forever.
const ADHOC_MAX_INSTRUCTIONS: u64 = 50_000_000;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

// ---------------------------------------------------------------------
// Bounded queue
// ---------------------------------------------------------------------

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded MPMC queue: `try_push` never blocks (load shedding is the
/// caller's job), `pop` blocks until an item arrives or the queue is
/// closed and drained.
struct BoundedQueue<T> {
    inner: Mutex<QueueState<T>>,
    takers: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    fn new(capacity: usize) -> BoundedQueue<T> {
        BoundedQueue {
            inner: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
            }),
            takers: Condvar::new(),
            capacity,
        }
    }

    /// Enqueues `item`, or returns it when the queue is full or closed.
    fn try_push(&self, item: T) -> Result<(), T> {
        let mut q = lock(&self.inner);
        if q.closed || q.items.len() >= self.capacity {
            return Err(item);
        }
        q.items.push_back(item);
        self.takers.notify_one();
        Ok(())
    }

    /// Blocks for the next item; `None` once the queue is closed and
    /// fully drained (already-accepted work still completes).
    fn pop(&self) -> Option<T> {
        let mut q = lock(&self.inner);
        loop {
            if let Some(item) = q.items.pop_front() {
                return Some(item);
            }
            if q.closed {
                return None;
            }
            q = self
                .takers
                .wait(q)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    fn close(&self) {
        lock(&self.inner).closed = true;
        self.takers.notify_all();
    }

    fn depth(&self) -> usize {
        lock(&self.inner).items.len()
    }
}

// ---------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq)]
enum WorkMethod {
    Select,
    Run,
}

/// Key for the warm [`CellRunner`] map. Runners are per-(program,
/// options) because the canonical baseline reference depends on the
/// cycle-fuel and fast-path options it was prepared under.
#[derive(Clone, PartialEq, Eq, Hash)]
enum RunnerKey {
    Workload(&'static str, Scale, RunOptions),
    Adhoc(u64, RunOptions),
}

/// A fully validated `select`/`run` request, ready for a worker.
struct WorkRequest {
    id: Json,
    method: WorkMethod,
    /// `cells[].workload` label: the registry name, or `adhoc` for
    /// inline `asm`.
    label: &'static str,
    scale: Option<Scale>,
    program: Program,
    hash: u64,
    expected: Option<u64>,
    max_instructions: u64,
    selection: SelectionSpec,
    machine: MachineSpec,
    opts: RunOptions,
    deadline: Option<Instant>,
    runner_key: RunnerKey,
}

type Out = Arc<Mutex<Box<dyn Write + Send>>>;

struct Job {
    work: WorkRequest,
    out: Out,
}

enum Routed {
    Inline(Json),
    Work(Box<WorkRequest>),
}

fn p_get<'a>(params: Option<&'a Json>, key: &str) -> Option<&'a Json> {
    params.and_then(|p| p.get(key))
}

fn p_str<'a>(params: Option<&'a Json>, key: &str) -> Result<Option<&'a str>, String> {
    match p_get(params, key) {
        None => Ok(None),
        Some(v) => v
            .as_str()
            .map(Some)
            .ok_or_else(|| format!("`{key}` must be a string")),
    }
}

fn p_u64(params: Option<&Json>, key: &str) -> Result<Option<u64>, String> {
    match p_get(params, key) {
        None => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("`{key}` must be a non-negative integer")),
    }
}

fn p_f64(params: Option<&Json>, key: &str) -> Result<Option<f64>, String> {
    match p_get(params, key) {
        None => Ok(None),
        Some(v) => v
            .as_f64()
            .map(Some)
            .ok_or_else(|| format!("`{key}` must be a number")),
    }
}

fn p_bool(params: Option<&Json>, key: &str) -> Result<Option<bool>, String> {
    match p_get(params, key) {
        None => Ok(None),
        Some(v) => v
            .as_bool()
            .map(Some)
            .ok_or_else(|| format!("`{key}` must be a boolean")),
    }
}

fn parse_work(id: &Json, method: WorkMethod, params: Option<&Json>) -> Result<WorkRequest, String> {
    if let Some(p) = params {
        if !matches!(p, Json::Obj(_)) {
            return Err("`params` must be an object".into());
        }
    }

    // -- Program source: a registry workload or inline assembly. --------
    let workload = p_str(params, "workload")?;
    let asm = p_str(params, "asm")?;
    let (label, scale, program, expected) = match (workload, asm) {
        (Some(_), Some(_)) => return Err("`workload` and `asm` are mutually exclusive".into()),
        (None, None) => return Err("request needs a `workload` name or inline `asm`".into()),
        (Some(name), None) => {
            let scale = match p_str(params, "scale")? {
                None | Some("test") => Scale::Test,
                Some("full") => Scale::Full,
                Some(other) => return Err(format!("`scale` must be test|full, got `{other}`")),
            };
            let Some(label) = t1000_workloads::NAMES.iter().copied().find(|n| *n == name) else {
                return Err(format!(
                    "unknown workload `{name}` (one of {:?})",
                    t1000_workloads::NAMES
                ));
            };
            let w = t1000_workloads::by_name(label, scale)
                .ok_or_else(|| format!("unknown workload `{name}`"))?;
            let program = w.program().map_err(|e| format!("workload `{name}`: {e}"))?;
            (label, Some(scale), program, Some(w.expected_checksum()))
        }
        (None, Some(text)) => {
            let program = t1000_asm::assemble(text).map_err(|e| format!("asm: {e}"))?;
            ("adhoc", None, program, None)
        }
    };

    // -- Strategy axis (defaults mirror `t1000 run`/`select`). ----------
    let pfus = p_u64(params, "pfus")?.unwrap_or(2) as usize;
    let threshold = p_f64(params, "threshold")?;
    let lut_budget = p_u64(params, "lut_budget")?;
    let strategy = p_str(params, "strategy")?.unwrap_or("selective");
    let selection = match strategy {
        "baseline" => SelectionSpec::Baseline,
        "greedy" => SelectionSpec::Greedy,
        "selective" => SelectionSpec::selective(Some(pfus), threshold.unwrap_or(0.005)),
        "knapsack" => SelectionSpec::knapsack(lut_budget.unwrap_or(256) as u32),
        other => {
            return Err(format!(
                "`strategy` must be baseline|greedy|selective|knapsack, got `{other}`"
            ))
        }
    };
    // A parameter the strategy does not read is refused, not dropped.
    for (name, given, reader) in [
        ("threshold", threshold.is_some(), "selective"),
        ("lut_budget", lut_budget.is_some(), "knapsack"),
    ] {
        if given && strategy != reader {
            return Err(format!(
                "`{name}` applies only to strategy `{reader}`, not `{strategy}`"
            ));
        }
    }
    if method == WorkMethod::Select && selection == SelectionSpec::Baseline {
        return Err("select: strategy `baseline` has no selection job".into());
    }

    // -- Machine axis. --------------------------------------------------
    let machine = match p_get(params, "machine") {
        None => MachineSpec::with_pfus(pfus, 10),
        Some(m) if matches!(m, Json::Obj(_)) => {
            let reconfig = p_u64(Some(m), "reconfig_cycles")?.unwrap_or(10) as u32;
            let base = match m.get("pfus") {
                None => MachineSpec::with_pfus(pfus, reconfig),
                Some(v) if v.as_str() == Some("unlimited") => MachineSpec::unlimited(reconfig),
                Some(v) => match v.as_u64() {
                    Some(n) => MachineSpec::with_pfus(n as usize, reconfig),
                    None => {
                        return Err("`machine.pfus` must be a count or \"unlimited\"".into());
                    }
                },
            };
            // Reconfiguration-hiding knobs (schema v6); defaults keep the
            // legacy blocking-load machine.
            let planes = p_u64(Some(m), "pfu_planes")?.unwrap_or(1) as u32;
            if !(1..=2).contains(&planes) {
                return Err("`machine.pfu_planes` must be 1 or 2".into());
            }
            let prefetch = p_u64(Some(m), "pfu_prefetch")?.unwrap_or(0) as u32;
            let compress = p_f64(Some(m), "conf_compress")?.unwrap_or(0.0);
            if !(compress >= 0.0 && compress.is_finite()) {
                return Err("`machine.conf_compress` must be a non-negative ratio".into());
            }
            base.config_plane(planes, prefetch, compress)
        }
        Some(_) => return Err("`machine` must be an object".into()),
    };

    // -- Limits and deadline. -------------------------------------------
    let opts = RunOptions {
        max_cycles: p_u64(params, "max_cycles")?.unwrap_or(0),
        no_fast_path: p_bool(params, "no_fast_path")?.unwrap_or(false),
    };
    let max_instructions = match p_u64(params, "max_instructions")? {
        Some(n) => n,
        None if expected.is_none() => ADHOC_MAX_INSTRUCTIONS,
        None => 0,
    };
    let deadline =
        p_u64(params, "deadline_ms")?.map(|ms| Instant::now() + Duration::from_millis(ms));

    let hash = program_hash(&program);
    let runner_key = match scale {
        Some(scale) => RunnerKey::Workload(label, scale, opts),
        None => RunnerKey::Adhoc(hash, opts),
    };
    Ok(WorkRequest {
        id: id.clone(),
        method,
        label,
        scale,
        program,
        hash,
        expected,
        max_instructions,
        selection,
        machine,
        opts,
        deadline,
        runner_key,
    })
}

// ---------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------

fn ok_response(id: &Json, result: Json) -> Json {
    Json::obj(vec![("id", id.clone()), ("result", result)])
}

fn error_response(
    id: &Json,
    code: u64,
    kind: &str,
    message: &str,
    extra: Vec<(&str, Json)>,
) -> Json {
    let mut e = vec![
        ("code", Json::UInt(code)),
        ("kind", Json::Str(kind.to_string())),
        ("message", Json::Str(message.to_string())),
    ];
    e.extend(extra);
    Json::obj(vec![("id", id.clone()), ("error", Json::obj(e))])
}

fn cell_failure(id: &Json, cause: &FailureCause) -> Json {
    error_response(
        id,
        code::CELL_FAILED,
        "cell_failed",
        &cause.to_string(),
        vec![("cause", Json::Str(cause.kind().to_string()))],
    )
}

fn scale_json(scale: Option<Scale>) -> Json {
    match scale {
        Some(Scale::Test) => Json::Str("test".to_string()),
        Some(Scale::Full) => Json::Str("full".to_string()),
        None => Json::Null,
    }
}

fn write_response(out: &Out, resp: &Json) {
    let mut w = lock(out);
    let _ = writeln!(w, "{}", resp.to_string_compact());
    let _ = w.flush();
}

// ---------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------

/// Daemon sizing knobs (`--workers`, `--queue`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServeConfig {
    /// Worker threads executing `select`/`run` requests.
    pub workers: usize,
    /// Bounded queue capacity; requests beyond it are shed with
    /// [`code::QUEUE_FULL`].
    pub queue_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 2,
            queue_capacity: 64,
        }
    }
}

type RunnerCell = Arc<OnceLock<Result<Arc<CellRunner>, FailureCause>>>;

/// The process-wide serving state: the shared session store, the warm
/// runner map, the bounded work queue, and the request counters that
/// `status` reports. One instance serves every connection; see the
/// module docs for the execution model.
pub struct Server {
    store: SessionStore,
    runners: Mutex<HashMap<RunnerKey, RunnerCell>>,
    queue: BoundedQueue<Job>,
    workers: usize,
    started: Instant,
    shutting_down: AtomicBool,
    /// Socket path to self-connect to on shutdown, waking the blocked
    /// accept loop (set by the socket transport).
    wake: Mutex<Option<String>>,
    received: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    shed: AtomicU64,
    deadline_exceeded: AtomicU64,
    malformed: AtomicU64,
}

impl Server {
    pub fn new(cfg: &ServeConfig) -> Server {
        Server {
            store: SessionStore::new(),
            runners: Mutex::new(HashMap::new()),
            queue: BoundedQueue::new(cfg.queue_capacity.max(1)),
            workers: cfg.workers.max(1),
            started: Instant::now(),
            shutting_down: AtomicBool::new(false),
            wake: Mutex::new(None),
            received: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            deadline_exceeded: AtomicU64::new(0),
            malformed: AtomicU64::new(0),
        }
    }

    /// True once a `shutdown` request has been accepted.
    pub fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::Relaxed)
    }

    /// Handles one request line synchronously — parse, validate, execute
    /// on the calling thread — and returns the response line. This
    /// bypasses the bounded queue (nothing is ever shed), so it is the
    /// embedding/test form; the transports go through the queued path.
    pub fn handle_line(&self, line: &str) -> String {
        let resp = match self.route(line) {
            Routed::Inline(resp) => resp,
            Routed::Work(work) => self.execute(&work),
        };
        self.record(&resp);
        resp.to_string_compact()
    }

    /// Routes one request line from a transport: control methods are
    /// answered inline, work methods are enqueued (or shed). Responses
    /// are written to `out` — possibly out of order relative to other
    /// requests, correlated by `id`.
    fn dispatch(&self, line: &str, out: &Out) {
        match self.route(line) {
            Routed::Inline(resp) => {
                self.record(&resp);
                write_response(out, &resp);
            }
            Routed::Work(work) => {
                let id = work.id.clone();
                let job = Job {
                    work: *work,
                    out: Arc::clone(out),
                };
                if self.queue.try_push(job).is_err() {
                    self.shed.fetch_add(1, Ordering::Relaxed);
                    let resp = error_response(
                        &id,
                        code::QUEUE_FULL,
                        "queue_full",
                        "worker queue is full; retry later",
                        vec![],
                    );
                    self.record(&resp);
                    write_response(out, &resp);
                }
            }
        }
    }

    fn route(&self, line: &str) -> Routed {
        self.received.fetch_add(1, Ordering::Relaxed);
        let req = match Json::parse(line) {
            Ok(j) => j,
            Err(e) => {
                self.malformed.fetch_add(1, Ordering::Relaxed);
                return Routed::Inline(error_response(
                    &Json::Null,
                    code::BAD_REQUEST,
                    "bad_request",
                    &format!("unparseable request: {e}"),
                    vec![],
                ));
            }
        };
        let id = req.get("id").cloned().unwrap_or(Json::Null);
        let Some(method) = req.get("method").and_then(Json::as_str) else {
            self.malformed.fetch_add(1, Ordering::Relaxed);
            return Routed::Inline(error_response(
                &id,
                code::BAD_REQUEST,
                "bad_request",
                "request has no `method` string",
                vec![],
            ));
        };
        let work_method = match method {
            "status" => return Routed::Inline(ok_response(&id, self.status_json())),
            "cache_stats" => return Routed::Inline(ok_response(&id, self.cache_stats_json())),
            "shutdown" => {
                self.begin_shutdown();
                return Routed::Inline(ok_response(
                    &id,
                    Json::obj(vec![("shutting_down", Json::Bool(true))]),
                ));
            }
            "select" => WorkMethod::Select,
            "run" => WorkMethod::Run,
            other => {
                return Routed::Inline(error_response(
                    &id,
                    code::BAD_REQUEST,
                    "bad_request",
                    &format!("unknown method `{other}`"),
                    vec![],
                ))
            }
        };
        if self.is_shutting_down() {
            return Routed::Inline(error_response(
                &id,
                code::SHUTTING_DOWN,
                "shutting_down",
                "server is shutting down",
                vec![],
            ));
        }
        match parse_work(&id, work_method, req.get("params")) {
            Ok(work) => Routed::Work(Box::new(work)),
            Err(msg) => Routed::Inline(error_response(
                &id,
                code::BAD_REQUEST,
                "bad_request",
                &msg,
                vec![],
            )),
        }
    }

    /// Executes a validated work request: resolve the warm runner, then
    /// select or simulate under the engine's isolation machinery.
    fn execute(&self, work: &WorkRequest) -> Json {
        if let Some(d) = work.deadline {
            if Instant::now() >= d {
                self.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
                return error_response(
                    &work.id,
                    code::DEADLINE_EXCEEDED,
                    "deadline_exceeded",
                    "deadline expired before execution started",
                    vec![],
                );
            }
        }
        let runner = match self.runner_for(work) {
            Ok(r) => r,
            Err(cause) => return cell_failure(&work.id, &cause),
        };
        match work.method {
            WorkMethod::Select => match runner.select(&work.selection) {
                Ok(sel) => {
                    let record = SelectionRecord::summarize(
                        work.label,
                        ExtractConfig::default(),
                        work.selection,
                        sel,
                    );
                    ok_response(
                        &work.id,
                        self.envelope(work, "select", |fields| {
                            fields.push(("selection", selection_json(&record)));
                        }),
                    )
                }
                Err(cause) => cell_failure(&work.id, &cause),
            },
            WorkMethod::Run => {
                let cell = Cell::new(work.label, work.selection, work.machine);
                match runner.run_cell_isolated(cell, &work.opts, work.deadline) {
                    Ok(c) => {
                        let speedup = runner.speedup(&c);
                        let baseline = runner.baseline_cycles();
                        ok_response(
                            &work.id,
                            self.envelope(work, "run", |fields| {
                                fields.push(("baseline_cycles", Json::UInt(baseline)));
                                fields.push(("cell", cell_result_json(&c, speedup)));
                            }),
                        )
                    }
                    Err(e) if e.cause == FailureCause::WallClock => {
                        self.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
                        error_response(
                            &work.id,
                            code::DEADLINE_EXCEEDED,
                            "deadline_exceeded",
                            "deadline expired before the simulation started",
                            vec![],
                        )
                    }
                    Err(e) => cell_failure(&work.id, &e.cause),
                }
            }
        }
    }

    /// Shared result-envelope fields (schema marker, program identity).
    fn envelope(
        &self,
        work: &WorkRequest,
        method: &str,
        fill: impl FnOnce(&mut Vec<(&'static str, Json)>),
    ) -> Json {
        let mut fields: Vec<(&'static str, Json)> = vec![
            ("schema_version", Json::UInt(SCHEMA_VERSION)),
            ("generator", Json::Str("t1000-serve".to_string())),
            ("method", Json::Str(method.to_string())),
            ("scale", scale_json(work.scale)),
            ("program_hash", Json::Str(format!("0x{:016x}", work.hash))),
        ];
        fill(&mut fields);
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Gets or builds the warm [`CellRunner`] for this request's
    /// (program, options) key. The shared store is consulted on every
    /// request — so `cache_stats` observes a hit for each request served
    /// from the warm analysis — but a program is analysed at most once
    /// per process no matter how many runners (or clients) reference it.
    fn runner_for(&self, work: &WorkRequest) -> Result<Arc<CellRunner>, FailureCause> {
        let session = self
            .store
            .get_or_build(
                &work.program,
                ExtractConfig::default(),
                work.max_instructions,
            )
            .map_err(FailureCause::Prepare)?;
        let cell = {
            let mut runners = lock(&self.runners);
            Arc::clone(runners.entry(work.runner_key.clone()).or_default())
        };
        cell.get_or_init(|| {
            CellRunner::from_session(session, work.expected, &work.opts).map(Arc::new)
        })
        .clone()
    }

    /// Counts a finished response (any response carrying `error` is a
    /// failure; specific causes were already counted where they arose).
    fn record(&self, resp: &Json) {
        if resp.get("error").is_some() {
            self.failed.fetch_add(1, Ordering::Relaxed);
        } else {
            self.completed.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn begin_shutdown(&self) {
        self.shutting_down.store(true, Ordering::Relaxed);
        self.queue.close();
        // Wake the accept loop so the socket transport can exit; the
        // dummy connection carries no requests.
        if let Some(path) = lock(&self.wake).clone() {
            let _ = UnixStream::connect(path);
        }
    }

    fn status_json(&self) -> Json {
        Json::obj(vec![
            (
                "uptime_ms",
                Json::UInt(self.started.elapsed().as_millis() as u64),
            ),
            ("workers", Json::UInt(self.workers as u64)),
            (
                "queue",
                Json::obj(vec![
                    ("depth", Json::UInt(self.queue.depth() as u64)),
                    ("capacity", Json::UInt(self.queue.capacity as u64)),
                ]),
            ),
            (
                "requests",
                Json::obj(vec![
                    (
                        "received",
                        Json::UInt(self.received.load(Ordering::Relaxed)),
                    ),
                    (
                        "completed",
                        Json::UInt(self.completed.load(Ordering::Relaxed)),
                    ),
                    ("failed", Json::UInt(self.failed.load(Ordering::Relaxed))),
                    ("shed", Json::UInt(self.shed.load(Ordering::Relaxed))),
                    (
                        "deadline_exceeded",
                        Json::UInt(self.deadline_exceeded.load(Ordering::Relaxed)),
                    ),
                    (
                        "malformed",
                        Json::UInt(self.malformed.load(Ordering::Relaxed)),
                    ),
                ]),
            ),
            ("shutting_down", Json::Bool(self.is_shutting_down())),
        ])
    }

    fn cache_stats_json(&self) -> Json {
        let s = self.store.stats();
        let sel = self.store.selection_totals();
        Json::obj(vec![
            ("programs", Json::UInt(self.store.len() as u64)),
            ("analyses", Json::UInt(s.analyses)),
            ("session_hits", Json::UInt(s.hits)),
            ("runners", Json::UInt(lock(&self.runners).len() as u64)),
            (
                "selections",
                Json::obj(vec![
                    ("hits", Json::UInt(sel.hits)),
                    ("misses", Json::UInt(sel.misses)),
                    ("compute_secs", Json::Float(sel.compute_secs())),
                ]),
            ),
        ])
    }

    fn summary(&self) -> String {
        format!(
            "served {} request(s): {} completed, {} failed ({} shed, {} deadline-exceeded, {} malformed)",
            self.received.load(Ordering::Relaxed),
            self.completed.load(Ordering::Relaxed),
            self.failed.load(Ordering::Relaxed),
            self.shed.load(Ordering::Relaxed),
            self.deadline_exceeded.load(Ordering::Relaxed),
            self.malformed.load(Ordering::Relaxed),
        )
    }
}

// ---------------------------------------------------------------------
// Transports
// ---------------------------------------------------------------------

fn worker_loop(server: &Server) {
    while let Some(job) = server.queue.pop() {
        let resp = server.execute(&job.work);
        server.record(&resp);
        write_response(&job.out, &resp);
    }
}

/// stdio transport: requests on stdin, responses on stdout (stdout stays
/// pure JSONL; diagnostics go to stderr). EOF is a graceful shutdown.
fn serve_stdio(server: &Server) -> Result<String, CliError> {
    let out: Out = Arc::new(Mutex::new(Box::new(std::io::stdout())));
    std::thread::scope(|s| {
        for _ in 0..server.workers {
            s.spawn(|| worker_loop(server));
        }
        let stdin = std::io::stdin();
        for line in stdin.lock().lines() {
            let Ok(line) = line else { break };
            if line.trim().is_empty() {
                continue;
            }
            server.dispatch(line.trim(), &out);
            if server.is_shutting_down() {
                break;
            }
        }
        server.queue.close();
    });
    eprintln!("[t1000-serve] {}", server.summary());
    Ok(String::new())
}

/// Unix-socket transport: one reader thread per connection, all feeding
/// the shared worker pool. A stale socket file at `path` is replaced.
fn serve_socket(server: &Server, path: &str) -> Result<String, CliError> {
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)
        .map_err(|e| CliError(format!("serve: cannot bind {path}: {e}")))?;
    *lock(&server.wake) = Some(path.to_string());
    eprintln!(
        "[t1000-serve] listening on {path} ({} worker(s), queue capacity {})",
        server.workers, server.queue.capacity
    );
    std::thread::scope(|s| {
        for _ in 0..server.workers {
            s.spawn(|| worker_loop(server));
        }
        for stream in listener.incoming() {
            if server.is_shutting_down() {
                break;
            }
            let Ok(stream) = stream else { continue };
            s.spawn(move || serve_connection(server, stream));
        }
        server.queue.close();
    });
    let _ = std::fs::remove_file(path);
    Ok(format!("[t1000-serve] {}\n", server.summary()))
}

fn serve_connection(server: &Server, stream: UnixStream) {
    // A finite read timeout lets idle connection readers notice shutdown
    // instead of blocking the process exit forever.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let out: Out = Arc::new(Mutex::new(Box::new(write_half)));
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {
                if !line.trim().is_empty() {
                    server.dispatch(line.trim(), &out);
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if server.is_shutting_down() {
                    break;
                }
            }
            Err(_) => break,
        }
    }
}

/// `t1000 serve [--socket PATH] [--workers N] [--queue N]`.
pub fn cmd_serve(args: &[String]) -> Result<String, CliError> {
    let p = parse(args, crate::SERVE_VALUE_OPTS, crate::SERVE_FLAGS)?;
    if !p.positional.is_empty() {
        return Err(CliError(
            "serve: unexpected positional arguments (options only; see `t1000 help`)".to_string(),
        ));
    }
    let workers = match p.get_u32("workers")? {
        Some(0) => return Err(CliError("serve: --workers must be at least 1".to_string())),
        Some(n) => n as usize,
        None => t1000_bench::engine::num_threads(),
    };
    let queue_capacity = match p.get_u32("queue")? {
        Some(0) => return Err(CliError("serve: --queue must be at least 1".to_string())),
        Some(n) => n as usize,
        None => 64,
    };
    let server = Server::new(&ServeConfig {
        workers,
        queue_capacity,
    });
    match p.get("socket") {
        Some(path) => serve_socket(&server, path),
        None => serve_stdio(&server),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn j(line: &str) -> Json {
        Json::parse(line).unwrap()
    }

    fn result(resp: &Json) -> &Json {
        assert!(
            resp.get("error").is_none(),
            "unexpected error: {}",
            resp.to_string_compact()
        );
        resp.get("result").unwrap()
    }

    fn error_code(resp: &Json) -> u64 {
        resp.get("error")
            .unwrap_or_else(|| panic!("expected error: {}", resp.to_string_compact()))
            .get("code")
            .and_then(Json::as_u64)
            .unwrap()
    }

    fn run_req(workload: &str, strategy: &str, extra: &str) -> String {
        format!(
            r#"{{"id": 1, "method": "run", "params": {{"workload": "{workload}", "strategy": "{strategy}"{extra}}}}}"#
        )
    }

    #[test]
    fn malformed_and_bad_requests_fail_typed() {
        let server = Server::new(&ServeConfig::default());
        let resp = j(&server.handle_line("this is not json"));
        assert_eq!(error_code(&resp), code::BAD_REQUEST);
        assert_eq!(resp.get("id"), Some(&Json::Null));

        let resp = j(&server.handle_line(r#"{"id": 7, "params": {}}"#));
        assert_eq!(error_code(&resp), code::BAD_REQUEST);
        assert_eq!(resp.get("id").and_then(Json::as_u64), Some(7));

        for bad in [
            r#"{"id": 1, "method": "teleport"}"#,
            r#"{"id": 1, "method": "run"}"#,
            r#"{"id": 1, "method": "run", "params": {"workload": "nope"}}"#,
            r#"{"id": 1, "method": "run", "params": {"workload": "gsm_dec", "asm": "x"}}"#,
            r#"{"id": 1, "method": "run", "params": {"workload": "gsm_dec", "strategy": "magic"}}"#,
            r#"{"id": 1, "method": "run", "params": {"workload": "gsm_dec", "scale": "huge"}}"#,
            r#"{"id": 1, "method": "run", "params": {"asm": "main: nonsense"}}"#,
            r#"{"id": 1, "method": "select", "params": {"workload": "gsm_dec", "strategy": "baseline"}}"#,
            r#"{"id": 1, "method": "run", "params": {"workload": "gsm_dec", "machine": {"pfus": "lots"}}}"#,
        ] {
            let resp = j(&server.handle_line(bad));
            assert_eq!(error_code(&resp), code::BAD_REQUEST, "{bad}");
        }

        let status = j(&server.handle_line(r#"{"id": 2, "method": "status"}"#));
        let requests = result(&status).get("requests").unwrap();
        assert_eq!(requests.get("malformed").and_then(Json::as_u64), Some(2));
        assert_eq!(requests.get("failed").and_then(Json::as_u64), Some(11));
        assert_eq!(requests.get("shed").and_then(Json::as_u64), Some(0));
    }

    #[test]
    fn parameters_the_strategy_ignores_are_refused() {
        let server = Server::new(&ServeConfig::default());
        for (line, name) in [
            (
                r#"{"id": 1, "method": "run", "params": {"workload": "g721_enc", "strategy": "greedy", "pfus": 2, "threshold": 0.5, "lut_budget": 7}}"#,
                "`threshold`",
            ),
            (
                r#"{"id": 2, "method": "select", "params": {"workload": "g721_enc", "strategy": "knapsack", "threshold": 0.9}}"#,
                "`threshold`",
            ),
            (
                r#"{"id": 3, "method": "run", "params": {"workload": "g721_enc", "strategy": "selective", "lut_budget": 7}}"#,
                "`lut_budget`",
            ),
        ] {
            let resp = j(&server.handle_line(line));
            assert_eq!(error_code(&resp), code::BAD_REQUEST, "{line}");
            let message = resp.get("error").unwrap().get("message").unwrap();
            assert!(
                message.as_str().unwrap().contains(name),
                "{line}: {}",
                resp.to_string_compact()
            );
        }
    }

    #[test]
    fn run_is_analysed_once_and_reproducible() {
        let server = Server::new(&ServeConfig::default());
        let r1 = j(&server.handle_line(&run_req("gsm_dec", "selective", r#", "pfus": 2"#)));
        let r2 = j(&server.handle_line(&run_req("gsm_dec", "greedy", "")));
        let r3 = j(&server.handle_line(&run_req("gsm_dec", "selective", r#", "pfus": 2"#)));
        for r in [&r1, &r2, &r3] {
            let cell = result(r).get("cell").unwrap();
            assert!(cell.get("cycles").and_then(Json::as_u64).unwrap() > 0);
            assert!(cell.get("attribution").is_some());
        }
        // Identical requests are bit-identical apart from host timing.
        let strip = |r: &Json| {
            let mut cell = result(r).get("cell").unwrap().clone();
            if let Json::Obj(fields) = &mut cell {
                fields.retain(|(k, _)| k != "host_ns" && k != "sim_khz");
            }
            cell.to_string_compact()
        };
        assert_eq!(strip(&r1), strip(&r3));
        assert_ne!(
            result(&r1).get("cell").unwrap().get("cycles"),
            result(&r2).get("cell").unwrap().get("cycles"),
        );

        // One program, one analysis; the repeat hit both caches.
        let stats = j(&server.handle_line(r#"{"id": 9, "method": "cache_stats"}"#));
        let stats = result(&stats);
        assert_eq!(stats.get("programs").and_then(Json::as_u64), Some(1));
        assert_eq!(stats.get("analyses").and_then(Json::as_u64), Some(1));
        assert_eq!(stats.get("session_hits").and_then(Json::as_u64), Some(2));
        let sel = stats.get("selections").unwrap();
        assert_eq!(sel.get("misses").and_then(Json::as_u64), Some(2));
        assert_eq!(sel.get("hits").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn select_returns_the_selection_document() {
        let server = Server::new(&ServeConfig::default());
        let resp = j(&server.handle_line(
            r#"{"id": 3, "method": "select", "params": {"workload": "g721_enc", "strategy": "knapsack", "lut_budget": 200}}"#,
        ));
        let result = result(&resp);
        assert_eq!(result.get("method").and_then(Json::as_str), Some("select"));
        let sel = result.get("selection").unwrap();
        assert_eq!(
            sel.get("strategy").and_then(Json::as_str).map(String::from),
            Some("knapsack(luts=200)".to_string())
        );
        assert!(sel.get("num_confs").and_then(Json::as_u64).is_some());
        assert!(sel.get("confs").and_then(Json::as_array).is_some());
    }

    #[test]
    fn zero_deadline_is_shed_deterministically() {
        let server = Server::new(&ServeConfig::default());
        let resp =
            j(&server.handle_line(&run_req("gsm_dec", "selective", r#", "deadline_ms": 0"#)));
        assert_eq!(error_code(&resp), code::DEADLINE_EXCEEDED);
        let status = j(&server.handle_line(r#"{"id": 2, "method": "status"}"#));
        let requests = result(&status).get("requests").unwrap();
        assert_eq!(
            requests.get("deadline_exceeded").and_then(Json::as_u64),
            Some(1)
        );
    }

    #[test]
    fn shutdown_rejects_further_work() {
        let server = Server::new(&ServeConfig::default());
        let resp = j(&server.handle_line(r#"{"id": 1, "method": "shutdown"}"#));
        assert_eq!(
            result(&resp).get("shutting_down").and_then(Json::as_bool),
            Some(true)
        );
        let resp = j(&server.handle_line(&run_req("gsm_dec", "selective", "")));
        assert_eq!(error_code(&resp), code::SHUTTING_DOWN);
        // Control methods still answer while draining.
        let status = j(&server.handle_line(r#"{"id": 3, "method": "status"}"#));
        assert_eq!(
            result(&status).get("shutting_down").and_then(Json::as_bool),
            Some(true)
        );
    }

    #[test]
    fn ping_and_run_shard_are_unknown_methods() {
        let server = Server::new(&ServeConfig::default());
        for method in ["ping", "run_shard"] {
            let resp = j(&server.handle_line(&format!(
                r#"{{"id": 1, "method": "{method}", "params": {{"plan": "run_all", "scale": "test", "cells": [0]}}}}"#
            )));
            assert_eq!(error_code(&resp), code::BAD_REQUEST, "{method}");
            let message = resp
                .get("error")
                .unwrap()
                .get("message")
                .and_then(Json::as_str);
            assert_eq!(message, Some(format!("unknown method `{method}`").as_str()));
        }
        let e = cmd_serve(&["--tcp".to_string(), "9000".to_string()]).unwrap_err();
        assert!(e.0.contains("unknown option --tcp"), "{e}");
    }

    #[test]
    fn adhoc_asm_programs_share_the_store_by_hash() {
        let server = Server::new(&ServeConfig::default());
        let asm = "main: li $s0, 40 \n loop: sll $t2, $s0, 3 \n xor $t2, $t2, $s0 \n andi $t2, $t2, 255 \n addiu $s0, $s0, -1 \n bgtz $s0, loop \n li $v0, 10 \n syscall";
        let req = format!(
            r#"{{"id": 1, "method": "run", "params": {{"asm": "{}", "pfus": 2}}}}"#,
            asm.replace('\n', "\\n")
        );
        let r1 = j(&server.handle_line(&req));
        let r2 = j(&server.handle_line(&req));
        let cycles = |r: &Json| {
            result(r)
                .get("cell")
                .unwrap()
                .get("cycles")
                .and_then(Json::as_u64)
                .unwrap()
        };
        assert_eq!(cycles(&r1), cycles(&r2));
        assert_eq!(
            result(&r1).get("cell").unwrap().get("workload"),
            Some(&Json::Str("adhoc".to_string()))
        );
        let stats = j(&server.handle_line(r#"{"id": 9, "method": "cache_stats"}"#));
        assert_eq!(
            result(&stats).get("analyses").and_then(Json::as_u64),
            Some(1)
        );
    }

    #[test]
    fn bounded_queue_sheds_when_full_and_drains_on_close() {
        let q: BoundedQueue<u32> = BoundedQueue::new(2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        assert_eq!(q.try_push(3), Err(3));
        assert_eq!(q.depth(), 2);
        q.close();
        assert_eq!(q.try_push(4), Err(4));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }
}
