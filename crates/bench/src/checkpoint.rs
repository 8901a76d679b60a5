//! Checkpoint/resume for `bench` runs.
//!
//! While a plan executes, the engine appends every completed cell to a
//! `<artifact>.partial` checkpoint in JSON Lines form:
//!
//! ```text
//! {"kind":"t1000.bench-checkpoint","schema_version":4,"scale":"test"}
//! {"key":"<cell key>","cell":{<the artifact's cells[] entry>}}
//! {"key":"<cell key>","cell":{...}}
//! ```
//!
//! The first line is a header. Every further line holds one cell's key and
//! the exact document [`results::cell_result_json`] emits for the artifact
//! (with a null `speedup`). A later `t1000 bench --resume` reads each
//! document back through [`results::cell_result_from_json`], so the
//! checkpoint has no cell format of its own. The final artifact is
//! byte-identical to an uninterrupted run because every measurement
//! round-trips exactly through the [`Json`] writer and parser (`u64`s stay
//! exact; floats use shortest round-trip formatting).
//!
//! Each line goes out in one `write_all`, so a kill mid-append can only
//! leave a torn final line without its newline. Loading drops that line,
//! and the resumed run truncates the file back to the last complete line
//! before it appends. Anything else wrong rejects the whole checkpoint: a
//! bad header, a complete line that does not parse, a duplicate key, or a
//! cell document that does not restore. The engine then re-runs every cell
//! into a fresh file. A checkpoint is never partly applied.
//!
//! Cells are keyed by their full configuration (the `Debug` rendering of
//! [`Cell`], which embeds workload, extraction, selection and machine
//! parameters), so a checkpoint written for one plan safely resumes into
//! any plan containing the same cells.

use crate::engine::CellResult;
use crate::json::Json;
use crate::plan::Cell;
use crate::results;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use t1000_workloads::Scale;

/// Version of the checkpoint layout. Bump on any breaking change.
/// v2 added per-cell host throughput and the fast-path counters; v3 the
/// config-plane reload counters. v4 is the JSON Lines layout whose cell
/// lines are the artifact's own cell documents.
pub const CHECKPOINT_SCHEMA: u64 = 4;
/// `kind` tag distinguishing checkpoints from result artifacts.
pub const CHECKPOINT_KIND: &str = "t1000.bench-checkpoint";

/// The checkpoint key of one cell: its complete configuration. Two cells
/// share a key exactly when they denote the same simulation.
pub fn cell_key(cell: &Cell) -> String {
    format!("{cell:?}")
}

fn header(scale: Scale) -> String {
    let doc = Json::obj(vec![
        ("kind", Json::Str(CHECKPOINT_KIND.to_string())),
        ("schema_version", Json::UInt(CHECKPOINT_SCHEMA)),
        ("scale", Json::Str(results::scale_str(scale).to_string())),
    ]);
    format!("{}\n", doc.to_string_compact())
}

/// A loaded checkpoint: the cell documents of its complete lines.
#[derive(Debug)]
pub struct Checkpoint {
    /// Cell documents by [`cell_key`].
    cells: HashMap<String, Json>,
    /// Bytes of complete lines; a torn final line lies beyond.
    complete_len: u64,
}

impl Checkpoint {
    /// Restores every cell of `cells` that the checkpoint holds. Lines for
    /// cells outside `cells` are ignored. One document that does not
    /// restore fails the whole call.
    pub fn restore(&self, cells: &[Cell]) -> Result<HashMap<Cell, CellResult>, String> {
        let mut out = HashMap::new();
        for &cell in cells {
            let key = cell_key(&cell);
            if let Some(doc) = self.cells.get(&key) {
                let result = results::cell_result_from_json(doc, cell)
                    .map_err(|e| format!("checkpoint cell {key}: {e}"))?;
                out.insert(cell, result);
            }
        }
        Ok(out)
    }
}

/// Parses checkpoint text, validating the header's kind, schema version
/// and scale. A final line without its newline is torn and dropped.
pub fn parse(text: &str, scale: Scale) -> Result<Checkpoint, String> {
    let complete_len = text.rfind('\n').map_or(0, |i| i + 1);
    let mut lines = text[..complete_len].lines();
    let head = lines
        .next()
        .ok_or("checkpoint has no complete header line")?;
    let head = Json::parse(head).map_err(|e| format!("checkpoint header: {e}"))?;
    if head.get("kind").and_then(Json::as_str) != Some(CHECKPOINT_KIND) {
        return Err("not a bench checkpoint (missing kind tag)".to_string());
    }
    let version = head
        .get("schema_version")
        .and_then(Json::as_u64)
        .ok_or("checkpoint missing schema_version")?;
    if version != CHECKPOINT_SCHEMA {
        return Err(format!(
            "checkpoint schema {version} unsupported (expected {CHECKPOINT_SCHEMA})"
        ));
    }
    let recorded_scale = head.get("scale").and_then(Json::as_str);
    if recorded_scale != Some(results::scale_str(scale)) {
        return Err(format!(
            "checkpoint scale {recorded_scale:?} does not match this run ({})",
            results::scale_str(scale)
        ));
    }
    let mut cells = HashMap::new();
    for (i, line) in lines.enumerate() {
        let n = i + 2;
        let doc = Json::parse(line).map_err(|e| format!("checkpoint line {n}: {e}"))?;
        let key = doc
            .get("key")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("checkpoint line {n}: missing key"))?
            .to_string();
        let cell = doc
            .get("cell")
            .cloned()
            .ok_or_else(|| format!("checkpoint line {n}: missing cell"))?;
        if cells.insert(key.clone(), cell).is_some() {
            return Err(format!("checkpoint line {n}: duplicate key {key}"));
        }
    }
    Ok(Checkpoint {
        cells,
        complete_len: complete_len as u64,
    })
}

/// Reads and [`parse`]s the checkpoint at `path`.
fn load(path: &Path, scale: Scale) -> Result<Checkpoint, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    // Only complete lines need be UTF-8: a torn tail may end mid-character.
    let complete = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
    let text =
        std::str::from_utf8(&bytes[..complete]).map_err(|e| format!("{}: {e}", path.display()))?;
    parse(text, scale)
}

/// An open checkpoint that completed cells are appended to, one line each.
pub struct CheckpointLog {
    /// `None` once a write has failed: a failed write may leave a partial
    /// line, and stopping there keeps it the torn final line a resume drops.
    file: Mutex<Option<File>>,
}

impl CheckpointLog {
    /// Starts a fresh checkpoint at `path`, replacing any old file, and
    /// writes its header line.
    fn create(path: &Path, scale: Scale) -> std::io::Result<CheckpointLog> {
        let mut file = File::create(path)?;
        file.write_all(header(scale).as_bytes())?;
        Ok(CheckpointLog {
            file: Mutex::new(Some(file)),
        })
    }

    /// Reopens the checkpoint at `path` that `loaded` was read from,
    /// truncated back to its last complete line, for appending.
    fn reopen(path: &Path, loaded: &Checkpoint) -> std::io::Result<CheckpointLog> {
        let file = OpenOptions::new().append(true).open(path)?;
        file.set_len(loaded.complete_len)?;
        Ok(CheckpointLog {
            file: Mutex::new(Some(file)),
        })
    }

    /// Appends one completed cell as a single line: one `write_all`, then
    /// a flush. After a failed write the log stays silent.
    pub fn append(&self, c: &CellResult) -> std::io::Result<()> {
        let line = Json::obj(vec![
            ("key", Json::Str(cell_key(&c.cell))),
            ("cell", results::cell_result_json(c, None)),
        ]);
        let line = format!("{}\n", line.to_string_compact());
        let mut file = self
            .file
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let Some(f) = file.as_mut() else {
            return Ok(());
        };
        let written = f.write_all(line.as_bytes()).and_then(|()| f.flush());
        if written.is_err() {
            *file = None;
        }
        written
    }
}

/// Opens the checkpoint for a run over `cells`. With `resume`, an existing
/// file is loaded, its cells restored, and the file reopened for
/// appending. Otherwise, or when the file is missing or unusable, a fresh
/// checkpoint replaces it. The log is `None` only when the file cannot be
/// written at all; the run then goes on without one.
pub fn open(
    path: &Path,
    scale: Scale,
    resume: bool,
    cells: &[Cell],
) -> (HashMap<Cell, CellResult>, Option<CheckpointLog>) {
    if resume && path.exists() {
        match load(path, scale).and_then(|cp| Ok((cp.restore(cells)?, cp))) {
            Ok((restored, cp)) => match CheckpointLog::reopen(path, &cp) {
                Ok(log) => return (restored, Some(log)),
                Err(e) => {
                    eprintln!("[t1000-bench] cannot reopen checkpoint: {e}; continuing without");
                    return (restored, None);
                }
            },
            Err(e) => eprintln!("[t1000-bench] ignoring unusable checkpoint: {e}"),
        }
    }
    match CheckpointLog::create(path, scale) {
        Ok(log) => (HashMap::new(), Some(log)),
        Err(e) => {
            eprintln!("[t1000-bench] cannot create checkpoint: {e}; continuing without");
            (HashMap::new(), None)
        }
    }
}
