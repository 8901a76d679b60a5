//! End-to-end tests of `t1000 bench --all` through the real binary: an
//! interrupted run leaves its `FILE.partial` checkpoint, the resumed run
//! reproduces the uninterrupted artifact byte-for-byte, and a healthy
//! exit deletes the checkpoint; and `t1000 run --stats-json` records the
//! artifact's own cell documents.

use std::path::Path;
use std::process::Command;
use t1000_bench::json::Json;

fn tmp(name: &str) -> String {
    std::env::temp_dir()
        .join(format!("t1000_bench_cli_{}_{name}", std::process::id()))
        .to_string_lossy()
        .into_owned()
}

/// Runs `t1000 bench --all --scale test --deterministic --json <path>`
/// with `extra` appended; returns (success, stdout+stderr).
fn bench_all(path: &str, extra: &[&str]) -> (bool, String) {
    let mut args = vec![
        "bench",
        "--all",
        "--scale",
        "test",
        "--deterministic",
        "--json",
        path,
    ];
    args.extend_from_slice(extra);
    let out = Command::new(env!("CARGO_BIN_EXE_t1000"))
        .args(&args)
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
fn resume_skips_checkpointed_cells_and_reproduces_the_artifact() {
    let clean = tmp("clean.json");
    let (ok, log) = bench_all(&clean, &[]);
    assert!(ok, "clean run failed:\n{log}");
    assert!(
        !Path::new(&format!("{clean}.partial")).exists(),
        "a healthy run must delete its checkpoint"
    );

    // Interrupted run: cell 2 panics, so the command exits nonzero but
    // leaves every other cell in the checkpoint.
    let path = tmp("resume.json");
    let partial = format!("{path}.partial");
    let (ok, log) = bench_all(&path, &["--inject", "panic@2"]);
    assert!(!ok, "injected run should report the failure:\n{log}");
    assert!(
        Path::new(&partial).exists(),
        "interrupted run must leave its checkpoint"
    );

    let (ok, log) = bench_all(&path, &["--resume"]);
    assert!(ok, "resumed run failed:\n{log}");
    assert!(
        log.contains("cell(s) restored from checkpoint"),
        "resume restored nothing:\n{log}"
    );
    assert_eq!(read(&path), read(&clean), "resumed artifact diverges");
    assert!(
        !Path::new(&partial).exists(),
        "a healthy resumed run must delete its checkpoint"
    );
    for p in [clean, path] {
        let _ = std::fs::remove_file(p);
    }
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
    let (ok, log) = bench_all(&artifact, &[]);
    assert!(ok, "bench --all failed:\n{log}");
    let doc = Json::parse(&read(&artifact)).expect("artifact JSON");
    let _ = std::fs::remove_file(&artifact);
    let cells = doc.get("cells").and_then(Json::as_array).expect("cells[]");

    // One `run` per kind of artifact cell: the baseline, greedy and
    // selective at 2 PFUs, greedy on unlimited PFUs, and the §5.2 sweep.
    let stats = tmp("cell_stats.json");
    for flags in [
        &[][..],
        &["--pfus", "2"],
        &["--pfus", "2", "--greedy"],
        &["--pfus", "unlimited", "--reconfig", "0", "--greedy"],
        &["--pfus", "2", "--reconfig", "500"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_t1000"))
            .args(["run", "bench:gsm_enc", "--stats-json", &stats])
            .args(flags)
            .output()
            .expect("t1000 run");
        assert!(out.status.success(), "run {flags:?}: {out:?}");
        let run = Json::parse(&read(&stats)).expect("stats JSON");
        let cell = run.get("cell").expect("cell");
        let key = |c: &Json| {
            ["workload", "strategy", "machine"].map(|k| c.get(k).map(Json::to_string_compact))
        };
        let matching = cells
            .iter()
            .find(|c| key(c) == key(cell))
            .unwrap_or_else(|| panic!("run {flags:?}: no artifact cell {:?}", key(cell)));
        assert_eq!(
            strip_timing(cell),
            strip_timing(matching),
            "run {flags:?} records a different cell"
        );
    }
    let _ = std::fs::remove_file(&stats);
}
