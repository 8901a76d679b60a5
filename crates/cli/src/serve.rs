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
//! * a `run` simulates through [`CellRunner::run_cell_with`] under
//!   [`run_isolated`], the wrapper the batch engine uses: one attempt
//!   under `catch_unwind` panic isolation, bounded by cycle fuel; the
//!   per-request deadline is checked before work starts, not during a
//!   simulation;
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
use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};
use t1000_bench::engine::{run_isolated, CellRunner, FailureCause, RunOptions, SelectionRecord};
use t1000_bench::json::Json;
use t1000_bench::plan::{Cell, SelectionSpec};
use t1000_bench::results::{cell_result_json, scale_str, selection_json, SCHEMA_VERSION};
use t1000_bench::spec::{self, Front};
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
    /// The cell; its workload is the registry name, or `adhoc` for
    /// inline `asm`.
    cell: Cell,
    scale: Option<Scale>,
    program: Program,
    hash: u64,
    expected: Option<u64>,
    max_instructions: u64,
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

fn parse_work(id: &Json, method: WorkMethod, params: Option<&Json>) -> Result<WorkRequest, String> {
    let params: &[(String, Json)] = match params {
        None => &[],
        Some(Json::Obj(pairs)) => pairs,
        Some(_) => return Err("`params` must be an object".into()),
    };
    // The cell's keys go to the cell-spec parser, `machine` flattened to
    // `machine.KEY`; the request's own keys are read here.
    let mut cell_keys = Vec::new();
    let (mut asm, mut max_cycles, mut no_fast_path) = (None, 0, false);
    let (mut max_instructions, mut deadline_ms) = (None, None);
    for (key, value) in params {
        let uint = || {
            value
                .as_u64()
                .ok_or_else(|| format!("`{key}` must be a non-negative integer"))
        };
        match key.as_str() {
            "asm" => asm = Some(value.as_str().ok_or("`asm` must be a string")?),
            "max_cycles" => max_cycles = uint()?,
            "max_instructions" => max_instructions = Some(uint()?),
            "deadline_ms" => deadline_ms = Some(uint()?),
            "no_fast_path" => {
                no_fast_path = value.as_bool().ok_or("`no_fast_path` must be a boolean")?
            }
            "machine" => {
                let Json::Obj(machine) = value else {
                    return Err("`machine` must be an object".into());
                };
                cell_keys.extend(
                    machine
                        .iter()
                        .map(|(k, v)| (Cow::Owned(format!("machine.{k}")), v)),
                );
            }
            _ => cell_keys.push((Cow::Borrowed(key.as_str()), value)),
        }
    }
    let spec = spec::parse(Front::Serve, cell_keys).map_err(|e| e.message)?;
    let (program, expected) = match (&spec.workload, asm) {
        (Some(_), Some(_)) => return Err("`workload` and `asm` are mutually exclusive".into()),
        (None, None) => return Err("request needs a `workload` name or inline `asm`".into()),
        (Some(w), None) => {
            let program = w
                .program()
                .map_err(|e| format!("`workload` {}: {e}", w.name))?;
            (program, Some(w.expected_checksum()))
        }
        (None, Some(text)) => {
            let program = t1000_asm::assemble(text).map_err(|e| format!("`asm`: {e}"))?;
            (program, None)
        }
    };
    if method == WorkMethod::Select && spec.cell.selection == SelectionSpec::Baseline {
        return Err("`strategy` baseline has no selection job".into());
    }

    let opts = RunOptions {
        max_cycles,
        no_fast_path,
    };
    let max_instructions = match max_instructions {
        Some(n) => n,
        None if expected.is_none() => ADHOC_MAX_INSTRUCTIONS,
        None => 0,
    };
    let deadline = deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
    let scale = spec.workload.is_some().then_some(spec.scale);
    let hash = program_hash(&program);
    let runner_key = match scale {
        Some(scale) => RunnerKey::Workload(spec.cell.workload, scale, opts),
        None => RunnerKey::Adhoc(hash, opts),
    };
    Ok(WorkRequest {
        id: id.clone(),
        method,
        cell: spec.cell,
        scale,
        program,
        hash,
        expected,
        max_instructions,
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
            WorkMethod::Select => match runner.select(&work.cell.selection) {
                Ok(sel) => {
                    let record = SelectionRecord::summarize(
                        work.cell.workload,
                        ExtractConfig::default(),
                        work.cell.selection,
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
                let selection = match work.cell.selection {
                    SelectionSpec::Baseline => Ok(None),
                    spec => runner.select(&spec).map(Some),
                };
                let result = selection.and_then(|sel| {
                    run_isolated(work.deadline, || {
                        runner.run_cell_with(work.cell, sel.as_deref(), &work.opts)
                    })
                });
                match result {
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
                    Err(FailureCause::WallClock) => {
                        self.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
                        error_response(
                            &work.id,
                            code::DEADLINE_EXCEEDED,
                            "deadline_exceeded",
                            "deadline expired before the simulation started",
                            vec![],
                        )
                    }
                    Err(cause) => cell_failure(&work.id, &cause),
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
            (
                "scale",
                work.scale
                    .map_or(Json::Null, |s| Json::Str(scale_str(s).into())),
            ),
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
        None => t1000_bench::engine::num_threads().map_err(CliError)?,
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

    fn bad_request_message(resp: &Json) -> String {
        assert_eq!(
            error_code(resp),
            code::BAD_REQUEST,
            "{}",
            resp.to_string_compact()
        );
        let message = resp.get("error").unwrap().get("message").unwrap();
        message.as_str().unwrap().to_string()
    }

    /// Integers once cast with `as` (`4294967496` ran `knapsack(luts=200)`)
    /// and keys once dropped (`pfu`, `reload_weight`) are each a 400 that
    /// names the key.
    #[test]
    fn out_of_range_integers_and_unknown_keys_are_refused_by_name() {
        let server = Server::new(&ServeConfig::default());
        for (params, key) in [
            (
                r#""strategy": "knapsack", "lut_budget": 4294967496"#,
                "`lut_budget`",
            ),
            (
                r#""machine": {"pfu_planes": 4294967297}"#,
                "`machine.pfu_planes`",
            ),
            (
                r#""machine": {"reconfig_cycles": 4294967306}"#,
                "`machine.reconfig_cycles`",
            ),
            (
                r#""machine": {"pfu_prefetch": 4294967296}"#,
                "`machine.pfu_prefetch`",
            ),
            (r#""pfu": 4"#, "`pfu`"),
            (r#""reload_weight": 1"#, "`reload_weight`"),
            (r#""machine": {"pfus": 2, "planes": 2}"#, "`machine.planes`"),
        ] {
            for method in ["run", "select"] {
                let line = format!(
                    r#"{{"id": 1, "method": "{method}", "params": {{"workload": "g721_enc", {params}}}}}"#
                );
                let message = bad_request_message(&j(&server.handle_line(&line)));
                assert!(message.starts_with(key), "{line}: {message}");
            }
        }
    }

    /// A baseline cell is the canonical PFU-less machine, and a PFU key
    /// given with it is refused instead of recorded.
    #[test]
    fn a_baseline_run_is_the_canonical_cell() {
        let server = Server::new(&ServeConfig::default());
        let resp = j(&server.handle_line(&run_req("g721_enc", "baseline", "")));
        let machine = result(&resp).get("cell").unwrap().get("machine").unwrap();
        assert_eq!(machine.get("pfus").and_then(Json::as_u64), Some(0));
        assert_eq!(
            machine.get("reconfig_cycles").and_then(Json::as_u64),
            Some(0)
        );
        for (extra, key) in [
            (r#", "pfus": 7"#, "`pfus`"),
            (
                r#", "machine": {"pfu_prefetch": 3}"#,
                "`machine.pfu_prefetch`",
            ),
        ] {
            let resp = j(&server.handle_line(&run_req("g721_enc", "baseline", extra)));
            let message = bad_request_message(&resp);
            assert!(message.starts_with(key), "{extra}: {message}");
        }
    }

    /// Request 61 of the random-request test below, before a machine
    /// without PFUs was refused: greedy selected configurations for it, and
    /// the simulator panicked at the first extended instruction.
    #[test]
    fn greedy_on_a_machine_without_pfus_is_refused_not_run() {
        let server = Server::new(&ServeConfig::default());
        let line = r#"{"id": 61, "method": "run", "params": {"asm": "main:\n li $s0, 20\nloop:\n sll $t2, $s0, 3\n xor $t2, $t2, $s0\n addiu $s0, $s0, -1\n bgtz $s0, loop\n li $v0, 10\n syscall\n", "strategy": "greedy", "machine": {"pfus": 0}, "max_cycles": 20000}}"#;
        let message = bad_request_message(&j(&server.handle_line(line)));
        assert_eq!(
            message,
            "`machine.pfus` must be at least 1 for the greedy strategy"
        );
    }

    /// Seeded random requests drawn from serve's keys, with wrong types,
    /// huge, negative and fractional numbers, and unknown keys. Each gets a
    /// result, a typed cell failure or a 400 naming a key; none panics.
    /// `run` requests end on small fuel, so a huge reload penalty ends as
    /// a `timeout` instead of simulating billions of cycles.
    #[test]
    fn random_requests_get_a_result_or_a_typed_error() {
        let server = Server::new(&ServeConfig::default());
        let asm = r"main:\n li $s0, 20\nloop:\n sll $t2, $s0, 3\n xor $t2, $t2, $s0\n addiu $s0, $s0, -1\n bgtz $s0, loop\n li $v0, 10\n syscall\n";
        let mut keys: Vec<&str> = spec::SPELLING
            .iter()
            .map(|(_, spelled)| spelled[Front::Serve as usize])
            .filter(|name| !name.is_empty())
            .collect();
        keys.extend(["asm", "max_cycles", "no_fast_path", "max_instructions"]);
        keys.extend([
            "deadline_ms",
            "machine",
            "pfu",
            "reload_weight",
            "machine.x",
        ]);
        let values = [
            "0",
            "1",
            "2",
            "-1",
            "0.5",
            "1e300",
            "4294967295",
            "4294967296",
            "18446744073709551615",
            "\"unlimited\"",
            "\"greedy\"",
            "\"knapsack\"",
            "\"baseline\"",
            "\"test\"",
            "\"g721_enc\"",
            "\"x\"",
            "true",
            "null",
            "{}",
            "[2]",
        ];
        let mut named: Vec<String> = keys.iter().map(|k| format!("`{k}`")).collect();
        named.push("`params`".into());
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        let field = |key: &str, value: &str| match key.strip_prefix("machine.") {
            Some(key) => format!(r#""machine": {{"{key}": {value}}}"#),
            None => format!(r#""{key}": {value}"#),
        };
        let (mut results, mut refused) = (0, 0);
        for id in 0..500 {
            let method = ["select", "select", "run"][next(3)];
            let mut params = vec![format!(r#""asm": "{asm}""#)];
            // A strategy and PFU counts of the kinds the server accepts...
            for (key, choices) in [
                (
                    "strategy",
                    &[r#""baseline""#, r#""greedy""#, r#""knapsack""#][..],
                ),
                ("pfus", &["0", "1", "2"]),
                ("machine.pfus", &["0", "1", r#""unlimited""#]),
            ] {
                if next(2) == 0 {
                    params.push(field(key, choices[next(choices.len())]));
                }
            }
            // ...and up to two pairs drawn from every key and value.
            for _ in 0..next(3) {
                params.push(field(keys[next(keys.len())], values[next(values.len())]));
            }
            if method == "run" {
                params.push(r#""max_cycles": 20000"#.into());
            }
            let line = format!(
                r#"{{"id": {id}, "method": "{method}", "params": {{{}}}}}"#,
                params.join(", ")
            );
            let resp = j(&server.handle_line(&line));
            let Some(error) = resp.get("error") else {
                results += 1;
                continue;
            };
            let message = error.get("message").and_then(Json::as_str).unwrap();
            match error.get("code").and_then(Json::as_u64).unwrap() {
                code::BAD_REQUEST => {
                    let names_a_key = named.iter().any(|k| message.contains(k.as_str()));
                    assert!(names_a_key, "{line}: {message}");
                    refused += 1;
                }
                code::CELL_FAILED | code::DEADLINE_EXCEEDED => {
                    let cause = error.get("cause").and_then(Json::as_str);
                    assert_ne!(cause, Some("panic"), "{line}: {message}");
                    results += 1;
                }
                other => panic!("{line}: code {other}: {message}"),
            }
        }
        assert!(
            results > 30 && refused > 30,
            "{results} results, {refused} refused"
        );
    }
}
