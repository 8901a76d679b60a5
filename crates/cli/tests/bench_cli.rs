//! End-to-end tests of `t1000 bench` through the real binary: every named
//! plan writes an artifact the validator accepts, a malformed
//! `T1000_THREADS` is refused, no environment variable injects faults or
//! cycle fuel, and `t1000 run --stats-json` and `t1000 serve` record the
//! artifact's own cell documents.

use std::io::Write;
use std::process::{Command, Stdio};
use t1000_bench::json::Json;
use t1000_bench::results::validate_artifact;

fn tmp(name: &str) -> String {
    std::env::temp_dir()
        .join(format!("t1000_bench_cli_{}_{name}", std::process::id()))
        .to_string_lossy()
        .into_owned()
}

/// Runs `t1000 bench --all --scale test --deterministic --json <path>`;
/// returns (success, stdout+stderr).
fn bench_all(path: &str) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_t1000"))
        .args(["bench", "--all", "--scale", "test", "--deterministic"])
        .args(["--json", path])
        .output()
        .expect("run bench");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.success(), text)
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

#[test]
fn every_named_plan_writes_a_validating_artifact() {
    // `reload` is the costliest plan; tests/config_plane.rs runs it once
    // through the library and validates its artifact there.
    for named in t1000_bench::plan::NAMED_PLANS {
        if named.name == "reload" {
            continue;
        }
        let path = tmp(&format!("plan_{}.json", named.name));
        let out = Command::new(env!("CARGO_BIN_EXE_t1000"))
            .args(["bench", "--plan", named.name, "--scale", "test"])
            .args(["--deterministic", "--json", &path])
            .output()
            .expect("run bench --plan");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "--plan {}: {out:?}", named.name);
        let summary = validate_artifact(&read(&path))
            .unwrap_or_else(|e| panic!("--plan {}: {e}", named.name));
        let _ = std::fs::remove_file(&path);
        assert_eq!(summary.failed_cells, 0, "--plan {}", named.name);
        // The pivot: the title, one line per workload × row and a geomean
        // line per row.
        assert!(
            stdout.starts_with(&format!("# {}\n", named.title)),
            "{stdout}"
        );
        let lines = stdout.lines().filter(|l| l.starts_with("| ")).count();
        assert_eq!(
            lines,
            1 + (summary.workloads + 1) * named.rows.len(),
            "{stdout}"
        );
        for row in named.rows {
            assert!(
                stdout.contains(&format!("| geomean | {row} | ")),
                "{stdout}"
            );
        }
    }
}

#[test]
fn a_malformed_thread_count_is_refused() {
    for args in [&["bench", "--all", "--deterministic"][..], &["serve"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_t1000"))
            .args(args)
            .env("T1000_THREADS", "two")
            .stdin(std::process::Stdio::null())
            .output()
            .expect("run t1000");
        assert!(!out.status.success(), "{args:?} accepted T1000_THREADS=two");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("T1000_THREADS: `two` is not a thread count"),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn fault_and_fuel_variables_in_the_environment_are_ignored() {
    // Faults come only from `--inject` and cycle fuel only from
    // `--max-cycles`: a value left in the shell must not fail cells the
    // artifact cannot account for.
    let path = tmp("env_ignored.json");
    let out = Command::new(env!("CARGO_BIN_EXE_t1000"))
        .args(["bench", "--all", "--scale", "test", "--deterministic"])
        .args(["--json", &path])
        .env("T1000_INJECT", "panic@0")
        .env("T1000_MAX_CYCLES", "50")
        .output()
        .expect("run bench");
    assert!(out.status.success(), "{out:?}");
    let summary = validate_artifact(&read(&path)).unwrap_or_else(|e| panic!("{e}"));
    let _ = std::fs::remove_file(&path);
    assert_eq!(summary.failed_cells, 0);
}

/// A cell document without its host-timing fields (`host_ns`, `sim_khz`),
/// the only content that differs between two runs of one cell.
fn strip_timing(cell: &Json) -> Json {
    let mut cell = cell.clone();
    if let Json::Obj(fields) = &mut cell {
        fields.retain(|(k, _)| k != "host_ns" && k != "sim_khz");
    }
    cell
}

#[test]
fn run_stats_cells_equal_the_artifact_cells() {
    let artifact = tmp("cells.json");
    let (ok, log) = bench_all(&artifact);
    assert!(ok, "bench --all failed:\n{log}");
    let doc = Json::parse(&read(&artifact)).expect("artifact JSON");
    let _ = std::fs::remove_file(&artifact);
    let cells = doc.get("cells").and_then(Json::as_array).expect("cells[]");

    // One `run` per kind of artifact cell: the baseline, greedy and
    // selective at 2 PFUs, greedy on unlimited PFUs, and the §5.2 sweep;
    // beside each, the `serve` params that ask for the same cell.
    let stats = tmp("cell_stats.json");
    let cases = [
        (&[][..], r#""strategy": "baseline""#),
        (&["--pfus", "2"], r#""pfus": 2"#),
        (
            &["--pfus", "2", "--greedy"],
            r#""strategy": "greedy", "pfus": 2"#,
        ),
        (
            &["--pfus", "unlimited", "--reconfig", "0", "--greedy"],
            r#""strategy": "greedy", "machine": {"pfus": "unlimited", "reconfig_cycles": 0}"#,
        ),
        (
            &["--pfus", "2", "--reconfig", "500"],
            r#""pfus": 2, "machine": {"reconfig_cycles": 500}"#,
        ),
    ];
    let mut run_cells = Vec::new();
    for (flags, _) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_t1000"))
            .args(["run", "bench:gsm_enc", "--stats-json", &stats])
            .args(flags)
            .output()
            .expect("t1000 run");
        assert!(out.status.success(), "run {flags:?}: {out:?}");
        let run = Json::parse(&read(&stats)).expect("stats JSON");
        let cell = run.get("cell").expect("cell").clone();
        let key = |c: &Json| {
            ["workload", "strategy", "machine"].map(|k| c.get(k).map(Json::to_string_compact))
        };
        let matching = cells
            .iter()
            .find(|c| key(c) == key(&cell))
            .unwrap_or_else(|| panic!("run {flags:?}: no artifact cell {:?}", key(&cell)));
        assert_eq!(
            strip_timing(&cell),
            strip_timing(matching),
            "run {flags:?} records a different cell"
        );
        run_cells.push(cell);
    }
    let _ = std::fs::remove_file(&stats);

    // `t1000 serve` parses its params into the same cells.
    let requests: String = cases
        .iter()
        .enumerate()
        .map(|(id, (_, params))| {
            format!(
                "{{\"id\": {id}, \"method\": \"run\", \"params\": {{\"workload\": \"gsm_enc\", {params}}}}}\n"
            )
        })
        .collect();
    let mut serve = Command::new(env!("CARGO_BIN_EXE_t1000"))
        .args(["serve", "--workers", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn t1000 serve");
    serve
        .stdin
        .take()
        .expect("stdin")
        .write_all(requests.as_bytes())
        .expect("send requests");
    let out = serve.wait_with_output().expect("t1000 serve");
    assert!(out.status.success(), "{out:?}");
    let responses = String::from_utf8_lossy(&out.stdout);
    assert_eq!(responses.lines().count(), cases.len(), "{responses}");
    for line in responses.lines() {
        let resp = Json::parse(line).expect("response JSON");
        let id = resp.get("id").and_then(Json::as_u64).expect("id") as usize;
        let served = resp.get("result").and_then(|r| r.get("cell"));
        let served = served.unwrap_or_else(|| panic!("{}: {line}", cases[id].1));
        assert_eq!(
            strip_timing(served),
            strip_timing(&run_cells[id]),
            "serve {} records a different cell than run {:?}",
            cases[id].1,
            cases[id].0
        );
    }
}
