//! End-to-end tests for `t1000 serve`: a real daemon process, concurrent
//! Unix-socket clients, the shared analysis cache, deadline shedding,
//! malformed requests, graceful shutdown, and the stdio transport.
//! The wire protocol these exercise is specified in `docs/SERVING.md`.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::process::{Child, Command, Stdio};
use std::time::Duration;
use t1000_bench::engine::{CellRunner, RunOptions};
use t1000_bench::json::Json;
use t1000_bench::plan::{Cell, MachineSpec, SelectionSpec};
use t1000_bench::results::cell_result_json;
use t1000_core::ExtractConfig;
use t1000_workloads::Scale;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_t1000")
}

struct Daemon {
    child: Child,
    path: std::path::PathBuf,
}

impl Daemon {
    fn spawn(name: &str) -> Daemon {
        let path =
            std::env::temp_dir().join(format!("t1000_serve_{}_{name}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let child = Command::new(bin())
            .args([
                "serve",
                "--socket",
                path.to_str().unwrap(),
                "--workers",
                "3",
                "--queue",
                "8",
            ])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn daemon");
        // Daemon's Drop kills and reaps the child on every exit path.
        let daemon = Daemon { child, path };
        for _ in 0..200 {
            if UnixStream::connect(&daemon.path).is_ok() {
                return daemon;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        panic!(
            "daemon did not start listening on {}",
            daemon.path.display()
        );
    }

    /// One request over a fresh connection; returns the parsed response.
    fn request(&self, line: &str) -> Json {
        let mut stream = UnixStream::connect(&self.path).expect("connect");
        writeln!(stream, "{line}").expect("send");
        stream.flush().expect("flush");
        let mut reader = BufReader::new(stream);
        let mut resp = String::new();
        reader.read_line(&mut resp).expect("recv");
        Json::parse(resp.trim()).unwrap_or_else(|e| panic!("bad response `{resp}`: {e}"))
    }

    fn wait_for_exit(&mut self, limit: Duration) -> bool {
        let deadline = std::time::Instant::now() + limit;
        while std::time::Instant::now() < deadline {
            if self.child.try_wait().expect("try_wait").is_some() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        false
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.path);
    }
}

fn result(resp: &Json) -> &Json {
    assert!(
        resp.get("error").is_none(),
        "unexpected error: {}",
        resp.to_string_compact()
    );
    resp.get("result").expect("result")
}

fn error_code(resp: &Json) -> u64 {
    resp.get("error")
        .unwrap_or_else(|| panic!("expected error: {}", resp.to_string_compact()))
        .get("code")
        .and_then(Json::as_u64)
        .expect("error.code")
}

/// Drops the host-timing fields (`host_ns`, `sim_khz`) — the only
/// nondeterministic content in a cell document.
fn strip_timing(cell: &Json) -> String {
    let mut cell = cell.clone();
    if let Json::Obj(fields) = &mut cell {
        fields.retain(|(k, _)| k != "host_ns" && k != "sim_khz");
    }
    cell.to_string_compact()
}

#[test]
fn concurrent_clients_share_one_analysis_and_match_t1000_run() {
    let daemon = Daemon::spawn("conc");

    // N concurrent clients, same workload x different strategies.
    let strategies = [
        r#""strategy": "selective", "pfus": 2"#,
        r#""strategy": "selective", "pfus": 1"#,
        r#""strategy": "greedy""#,
        r#""strategy": "knapsack", "lut_budget": 200"#,
    ];
    let responses: Vec<Json> = std::thread::scope(|s| {
        let handles: Vec<_> = strategies
            .iter()
            .enumerate()
            .map(|(i, strat)| {
                let daemon = &daemon;
                s.spawn(move || {
                    daemon.request(&format!(
                        r#"{{"id": {i}, "method": "run", "params": {{"workload": "gsm_dec", {strat}}}}}"#
                    ))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (i, resp) in responses.iter().enumerate() {
        assert_eq!(resp.get("id").and_then(Json::as_u64), Some(i as u64));
        let cell = result(resp).get("cell").expect("cell");
        assert!(cell.get("cycles").and_then(Json::as_u64).unwrap() > 0);
        assert!(cell.get("attribution").is_some());
    }

    // Exactly one analysis for the program, however many clients.
    let stats = daemon.request(r#"{"id": 10, "method": "cache_stats"}"#);
    let stats = result(&stats);
    assert_eq!(stats.get("programs").and_then(Json::as_u64), Some(1));
    assert_eq!(stats.get("analyses").and_then(Json::as_u64), Some(1));
    assert!(stats.get("session_hits").and_then(Json::as_u64).unwrap() >= 3);

    // The served document is bit-identical (modulo host timing) to the
    // same cell executed in-process through the engine's CellRunner.
    let opts = RunOptions::default();
    let runner =
        CellRunner::for_workload("gsm_dec", ExtractConfig::default(), Scale::Test, &opts).unwrap();
    let cell = Cell::new(
        "gsm_dec",
        SelectionSpec::selective_std(Some(2)),
        MachineSpec::with_pfus(2, 10),
    );
    let selection = runner.select(&cell.selection).unwrap();
    let local = runner.run_cell_with(cell, Some(&selection), &opts).unwrap();
    let speedup = runner.baseline_cycles() as f64 / local.cycles as f64;
    let want = cell_result_json(&local, Some(speedup));
    let served = result(&responses[0]).get("cell").unwrap();
    assert_eq!(strip_timing(served), strip_timing(&want));
    assert_eq!(
        result(&responses[0])
            .get("baseline_cycles")
            .and_then(Json::as_u64),
        Some(runner.baseline_cycles())
    );

    // ...and to the cell `t1000 run bench:gsm_dec --pfus 2 --stats-json`
    // records: one cell document, whichever way the cell was run.
    let stats = std::env::temp_dir().join(format!(
        "t1000_serve_{}_conc_stats.json",
        std::process::id()
    ));
    let out = Command::new(bin())
        .args(["run", "bench:gsm_dec", "--pfus", "2", "--stats-json"])
        .arg(&stats)
        .output()
        .expect("t1000 run");
    assert!(out.status.success(), "{out:?}");
    let text = std::fs::read_to_string(&stats).expect("stats document");
    let _ = std::fs::remove_file(&stats);
    let doc = Json::parse(&text).expect("stats JSON");
    assert_eq!(
        strip_timing(doc.get("cell").expect("cell")),
        strip_timing(served)
    );
}

#[test]
fn deadline_shed_and_malformed_requests() {
    let daemon = Daemon::spawn("errs");

    // An already-expired deadline is shed deterministically.
    let resp = daemon.request(
        r#"{"id": 1, "method": "run", "params": {"workload": "gsm_dec", "deadline_ms": 0}}"#,
    );
    assert_eq!(error_code(&resp), 408);

    // Unparseable request: id null, typed 400.
    let resp = daemon.request("{not json");
    assert_eq!(error_code(&resp), 400);
    assert_eq!(resp.get("id"), Some(&Json::Null));

    // Structurally invalid requests: typed 400 with the id echoed.
    for bad in [
        r#"{"id": 2, "method": "run"}"#,
        r#"{"id": 3, "method": "run", "params": {"workload": "nope"}}"#,
        r#"{"id": 4, "method": "frobnicate"}"#,
    ] {
        let resp = daemon.request(bad);
        assert_eq!(error_code(&resp), 400, "{bad}");
        assert!(resp.get("id").and_then(Json::as_u64).is_some());
    }

    let status = daemon.request(r#"{"id": 5, "method": "status"}"#);
    let requests = result(&status).get("requests").unwrap();
    assert_eq!(
        requests.get("deadline_exceeded").and_then(Json::as_u64),
        Some(1)
    );
    assert_eq!(requests.get("malformed").and_then(Json::as_u64), Some(1));
    assert!(requests.get("failed").and_then(Json::as_u64).unwrap() >= 5);
}

#[test]
fn shutdown_drains_and_exits() {
    let mut daemon = Daemon::spawn("down");
    let resp = daemon.request(r#"{"id": 1, "method": "shutdown"}"#);
    assert_eq!(
        result(&resp).get("shutting_down").and_then(Json::as_bool),
        Some(true)
    );
    assert!(daemon.wait_for_exit(Duration::from_secs(10)), "no exit");
}

#[test]
fn stdio_transport_runs_a_scripted_session() {
    let mut child = Command::new(bin())
        .arg("serve")
        .args(["--workers", "2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn stdio daemon");
    let mut stdin = child.stdin.take().unwrap();
    let mut stdout = BufReader::new(child.stdout.take().unwrap());

    // Lockstep request/response, as in docs/SERVING.md's transcript.
    let mut ask = |line: &str| -> Json {
        writeln!(stdin, "{line}").expect("send");
        stdin.flush().expect("flush");
        let mut resp = String::new();
        stdout.read_line(&mut resp).expect("recv");
        Json::parse(resp.trim()).unwrap_or_else(|e| panic!("bad response `{resp}`: {e}"))
    };

    let status = ask(r#"{"id": 1, "method": "status"}"#);
    assert!(result(&status).get("uptime_ms").is_some());

    let run = ask(
        r#"{"id": 2, "method": "run", "params": {"workload": "gsm_dec", "strategy": "selective", "pfus": 2}}"#,
    );
    let cell = result(&run).get("cell").expect("cell");
    assert!(cell.get("cycles").and_then(Json::as_u64).unwrap() > 0);
    assert_eq!(
        cell.get("checksum").and_then(Json::as_str).map(str::len),
        Some(18) // 0x + 16 hex digits
    );

    let stats = ask(r#"{"id": 3, "method": "cache_stats"}"#);
    assert_eq!(
        result(&stats).get("analyses").and_then(Json::as_u64),
        Some(1)
    );

    let down = ask(r#"{"id": 4, "method": "shutdown"}"#);
    assert_eq!(
        result(&down).get("shutting_down").and_then(Json::as_bool),
        Some(true)
    );
    drop(stdin);
    let status = child.wait().expect("wait");
    assert!(status.success());
}
