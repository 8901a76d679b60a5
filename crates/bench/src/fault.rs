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
//! | `pfu@N` | every PFU configuration load in cell `N` fails → graceful scalar fallback |
//! | `io@artifact` | the first 2 artifact writes fail with a simulated I/O error |
//! | `io@artifactxK` | the first `K` artifact writes fail |
//! | `io@checkpoint` / `io@checkpointxK` | same, for checkpoint appends (that cell's line is skipped) |
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

    /// Whether cell `idx`'s PFU configuration loads are injected to fail.
    pub fn pfu_fault(&self, idx: usize) -> bool {
        self.pfu_faults.contains(&idx)
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
            "abort@3",
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
}
