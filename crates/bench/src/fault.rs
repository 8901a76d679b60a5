//! Deterministic fault injection for the experiment engine.
//!
//! A [`FaultPlan`] describes *exactly* which operations fail — no
//! randomness, no wall-clock — so a faulted run is reproducible down to
//! the artifact bytes. Plans are written in a tiny comma-separated
//! grammar, passed via `t1000 bench --inject <plan>` or the
//! `T1000_INJECT` environment variable:
//!
//! | arm | effect |
//! |---|---|
//! | `panic@N` | cell `N` (plan index) panics on **every** attempt |
//! | `panic@NxK` | cell `N` panics on its first `K` attempts only (retry then succeeds) |
//! | `abort@N` | the **process** aborts when cell `N` starts simulating (worker-crash injection) |
//! | `pfu@N` | every PFU configuration load in cell `N` fails → graceful scalar fallback |
//! | `io@artifact` | the first 2 artifact writes fail with a simulated I/O error |
//! | `io@artifactxK` | the first `K` artifact writes fail |
//! | `io@checkpoint` / `io@checkpointxK` | same, for checkpoint flushes |
//!
//! Example: `--inject panic@3,pfu@6,io@artifactx1`.

use std::collections::{HashMap, HashSet};

/// Environment variable holding the default fault plan.
pub const FAULT_ENV: &str = "T1000_INJECT";

/// A deterministic set of injected faults. The empty plan (the default)
/// injects nothing and costs nothing on the hot path.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// cell index → number of leading attempts that panic
    /// (`u32::MAX` = every attempt).
    cell_panics: HashMap<usize, u32>,
    /// Cells whose simulation aborts the whole process — the crash the
    /// shard coordinator must survive. Unlike `panic@N`, an abort cannot
    /// be caught in-process, so it exercises the worker-crash path.
    aborts: HashSet<usize>,
    /// Cells whose PFU configuration loads all fail.
    pfu_faults: HashSet<usize>,
    /// Leading artifact-write attempts that fail.
    artifact_fails: u32,
    /// Leading checkpoint-write attempts that fail.
    checkpoint_fails: u32,
}

impl FaultPlan {
    /// The plan that injects nothing.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Whether any fault is armed.
    pub fn is_empty(&self) -> bool {
        self.cell_panics.is_empty()
            && self.aborts.is_empty()
            && self.pfu_faults.is_empty()
            && self.artifact_fails == 0
            && self.checkpoint_fails == 0
    }

    /// Parses the `--inject` grammar (see the module docs).
    pub fn parse(text: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for arm in text.split(',').map(str::trim).filter(|a| !a.is_empty()) {
            let (kind, target) = arm
                .split_once('@')
                .ok_or_else(|| format!("bad fault arm {arm:?}: expected kind@target"))?;
            match kind {
                "panic" => {
                    let (cell, count) = parse_indexed(target)
                        .ok_or_else(|| format!("bad panic arm {arm:?}: expected panic@N[xK]"))?;
                    plan.cell_panics.insert(cell, count.unwrap_or(u32::MAX));
                }
                "abort" => {
                    let cell: usize = target
                        .parse()
                        .map_err(|_| format!("bad abort arm {arm:?}: expected abort@N"))?;
                    plan.aborts.insert(cell);
                }
                "pfu" => {
                    let cell: usize = target
                        .parse()
                        .map_err(|_| format!("bad pfu arm {arm:?}: expected pfu@N"))?;
                    plan.pfu_faults.insert(cell);
                }
                "io" => {
                    let (site, count) = match target.split_once('x') {
                        Some((site, k)) => {
                            let k: u32 = k
                                .parse()
                                .map_err(|_| format!("bad io arm {arm:?}: expected io@SITExK"))?;
                            (site, k)
                        }
                        None => (target, 2),
                    };
                    match site {
                        "artifact" => plan.artifact_fails = count,
                        "checkpoint" => plan.checkpoint_fails = count,
                        other => {
                            return Err(format!(
                                "bad io arm {arm:?}: unknown site {other:?} \
                                 (expected artifact or checkpoint)"
                            ))
                        }
                    }
                }
                other => return Err(format!("unknown fault kind {other:?} in {arm:?}")),
            }
        }
        Ok(plan)
    }

    /// The plan named by `T1000_INJECT`, or the empty plan when unset.
    pub fn from_env() -> Result<FaultPlan, String> {
        match std::env::var(FAULT_ENV) {
            Ok(v) if !v.trim().is_empty() => FaultPlan::parse(&v),
            _ => Ok(FaultPlan::none()),
        }
    }

    /// Whether cell `idx` should panic on `attempt` (1-based).
    pub fn cell_panics(&self, idx: usize, attempt: u32) -> bool {
        self.cell_panics.get(&idx).is_some_and(|&k| attempt <= k)
    }

    /// Whether cell `idx`'s simulation should abort the process.
    pub fn cell_aborts(&self, idx: usize) -> bool {
        self.aborts.contains(&idx)
    }

    /// This plan with every `abort@N` arm removed — what a shard
    /// coordinator hands the replacement worker after a crash, so the
    /// retried cells can complete.
    pub fn without_aborts(&self) -> FaultPlan {
        FaultPlan {
            aborts: HashSet::new(),
            ..self.clone()
        }
    }

    /// Re-indexes every per-cell arm through `map` (global plan index →
    /// local sub-plan index), dropping arms that map to `None`. A shard
    /// coordinator interprets `--inject` indices against the *full* plan,
    /// so each worker receives only its own cells' arms, rewritten to the
    /// worker's local cell numbering. I/O arms carry no cell index and
    /// pass through unchanged (they are inert in workers, which write
    /// neither artifacts nor checkpoints).
    pub fn remap_cells(&self, map: impl Fn(usize) -> Option<usize>) -> FaultPlan {
        FaultPlan {
            cell_panics: self
                .cell_panics
                .iter()
                .filter_map(|(&cell, &k)| Some((map(cell)?, k)))
                .collect(),
            aborts: self.aborts.iter().filter_map(|&c| map(c)).collect(),
            pfu_faults: self.pfu_faults.iter().filter_map(|&c| map(c)).collect(),
            artifact_fails: self.artifact_fails,
            checkpoint_fails: self.checkpoint_fails,
        }
    }

    /// Whether cell `idx`'s PFU configuration loads are injected to fail.
    pub fn pfu_fault(&self, idx: usize) -> bool {
        self.pfu_faults.contains(&idx)
    }

    /// Renders the plan back into the `--inject` grammar (arms in a
    /// canonical sorted order), so a coordinator can forward its plan —
    /// or a crash-stripped variant of it — to worker processes verbatim.
    /// `parse(render(p))` reproduces `p` exactly.
    pub fn render(&self) -> String {
        let mut arms: Vec<String> = Vec::new();
        let mut panics: Vec<(&usize, &u32)> = self.cell_panics.iter().collect();
        panics.sort();
        for (cell, count) in panics {
            if *count == u32::MAX {
                arms.push(format!("panic@{cell}"));
            } else {
                arms.push(format!("panic@{cell}x{count}"));
            }
        }
        let mut aborts: Vec<&usize> = self.aborts.iter().collect();
        aborts.sort();
        for cell in aborts {
            arms.push(format!("abort@{cell}"));
        }
        let mut pfus: Vec<&usize> = self.pfu_faults.iter().collect();
        pfus.sort();
        for cell in pfus {
            arms.push(format!("pfu@{cell}"));
        }
        if self.artifact_fails > 0 {
            arms.push(format!("io@artifactx{}", self.artifact_fails));
        }
        if self.checkpoint_fails > 0 {
            arms.push(format!("io@checkpointx{}", self.checkpoint_fails));
        }
        arms.join(",")
    }

    /// Whether artifact-write `attempt` (1-based) should fail.
    pub fn artifact_write_fails(&self, attempt: u32) -> bool {
        attempt <= self.artifact_fails
    }

    /// Whether checkpoint-write `attempt` (1-based) should fail.
    pub fn checkpoint_write_fails(&self, attempt: u32) -> bool {
        attempt <= self.checkpoint_fails
    }
}

/// Parses `N` or `NxK` into `(N, Some(K))`/`(N, None)`.
fn parse_indexed(s: &str) -> Option<(usize, Option<u32>)> {
    match s.split_once('x') {
        Some((n, k)) => Some((n.parse().ok()?, Some(k.parse().ok()?))),
        None => Some((s.parse().ok()?, None)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_injects_nothing() {
        let p = FaultPlan::none();
        assert!(p.is_empty());
        assert!(!p.cell_panics(0, 1));
        assert!(!p.pfu_fault(0));
        assert!(!p.artifact_write_fails(1));
        assert!(!p.checkpoint_write_fails(1));
        assert!(FaultPlan::parse("").unwrap().is_empty());
    }

    #[test]
    fn panic_arms_select_cell_and_attempts() {
        let p = FaultPlan::parse("panic@3").unwrap();
        assert!(p.cell_panics(3, 1) && p.cell_panics(3, 99));
        assert!(!p.cell_panics(2, 1));

        let p = FaultPlan::parse("panic@4x2").unwrap();
        assert!(p.cell_panics(4, 1) && p.cell_panics(4, 2));
        assert!(!p.cell_panics(4, 3), "attempt 3 must succeed");
    }

    #[test]
    fn pfu_and_io_arms_parse() {
        let p = FaultPlan::parse("pfu@6,io@artifact,io@checkpointx1").unwrap();
        assert!(p.pfu_fault(6) && !p.pfu_fault(5));
        assert!(p.artifact_write_fails(2) && !p.artifact_write_fails(3));
        assert!(p.checkpoint_write_fails(1) && !p.checkpoint_write_fails(2));
    }

    #[test]
    fn combined_plan_with_spaces() {
        let p = FaultPlan::parse(" panic@1x1 , pfu@2 ").unwrap();
        assert!(p.cell_panics(1, 1) && !p.cell_panics(1, 2));
        assert!(p.pfu_fault(2));
    }

    #[test]
    fn malformed_arms_are_rejected() {
        for bad in [
            "panic",
            "panic@x",
            "panic@1x",
            "pfu@",
            "abort@",
            "abort@x2",
            "io@disk",
            "io@artifactxq",
            "boom@1",
            "net@0",
            "netdrop@0",
            "netstall@0",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn abort_arms_parse_and_strip() {
        let p = FaultPlan::parse("abort@2,panic@1x1,abort@5").unwrap();
        assert!(p.cell_aborts(2) && p.cell_aborts(5) && !p.cell_aborts(0));
        assert!(!p.is_empty());
        let stripped = p.without_aborts();
        assert!(!stripped.cell_aborts(2) && !stripped.cell_aborts(5));
        assert!(stripped.cell_panics(1, 1), "other arms survive the strip");
    }

    #[test]
    fn remap_rewrites_cell_arms_and_drops_foreign_ones() {
        let p = FaultPlan::parse("panic@0x2,panic@5,abort@3,pfu@5,io@artifactx1").unwrap();
        // A worker owning global cells {3, 5} sees them as local {0, 1}.
        let local = p.remap_cells(|g| match g {
            3 => Some(0),
            5 => Some(1),
            _ => None,
        });
        assert_eq!(local.render(), "panic@1,abort@0,pfu@1,io@artifactx1");
        assert!(local.cell_panics(1, 99) && !local.cell_panics(0, 1));
    }

    #[test]
    fn render_round_trips_the_grammar() {
        for text in [
            "panic@3,panic@4x2,abort@1,pfu@6,io@artifactx1,io@checkpointx2",
            "abort@0",
            "",
        ] {
            let p = FaultPlan::parse(text).unwrap();
            let rendered = p.render();
            let q = FaultPlan::parse(&rendered).unwrap();
            // Re-rendering is a fixpoint, so parse∘render lost nothing.
            assert_eq!(q.render(), rendered, "{text} → {rendered}");
        }
        // Canonical ordering regardless of input order.
        assert_eq!(
            FaultPlan::parse("pfu@2,abort@1,panic@0").unwrap().render(),
            "panic@0,abort@1,pfu@2"
        );
    }
}
