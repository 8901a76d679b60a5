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
//! | `panic@N` | cell `N` (plan index) panics: panic isolation fails that cell alone |
//! | `pfu@N` | every PFU configuration load in cell `N` fails → graceful scalar fallback |
//! | `io@checkpoint` / `io@checkpointxK` | the first 2 (or `K`) checkpoint appends fail with a simulated I/O error; those cells' lines are skipped |
//!
//! The arms test panic isolation, the PFU scalar fallback and
//! `--resume`.
//!
//! Example: `--inject panic@3,pfu@6,io@checkpointx1`.

use std::collections::HashSet;

/// Environment variable holding the default fault plan.
pub const FAULT_ENV: &str = "T1000_INJECT";

/// A deterministic set of injected faults. The empty plan (the default)
/// injects nothing and costs nothing on the hot path.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Cells that panic.
    cell_panics: HashSet<usize>,
    /// Cells whose PFU configuration loads all fail.
    pfu_faults: HashSet<usize>,
    /// Leading checkpoint writes that fail.
    checkpoint_fails: u32,
}

impl FaultPlan {
    /// The plan that injects nothing.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Whether any fault is armed.
    pub fn is_empty(&self) -> bool {
        self.cell_panics.is_empty() && self.pfu_faults.is_empty() && self.checkpoint_fails == 0
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
                    let cell: usize = target
                        .parse()
                        .map_err(|_| format!("bad panic arm {arm:?}: expected panic@N"))?;
                    plan.cell_panics.insert(cell);
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
                            let k: u32 = k.parse().map_err(|_| {
                                format!("bad io arm {arm:?}: expected io@checkpointxK")
                            })?;
                            (site, k)
                        }
                        None => (target, 2),
                    };
                    if site != "checkpoint" {
                        return Err(format!(
                            "bad io arm {arm:?}: unknown site {site:?} (expected checkpoint)"
                        ));
                    }
                    plan.checkpoint_fails = count;
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

    /// Whether cell `idx` is injected to panic.
    pub fn cell_panics(&self, idx: usize) -> bool {
        self.cell_panics.contains(&idx)
    }

    /// Whether cell `idx`'s PFU configuration loads are injected to fail.
    pub fn pfu_fault(&self, idx: usize) -> bool {
        self.pfu_faults.contains(&idx)
    }

    /// Whether checkpoint write number `write` (1-based) should fail.
    pub fn checkpoint_write_fails(&self, write: u32) -> bool {
        write <= self.checkpoint_fails
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_injects_nothing() {
        let p = FaultPlan::none();
        assert!(p.is_empty());
        assert!(!p.cell_panics(0));
        assert!(!p.pfu_fault(0));
        assert!(!p.checkpoint_write_fails(1));
        assert!(FaultPlan::parse("").unwrap().is_empty());
    }

    #[test]
    fn panic_arms_select_a_cell() {
        let p = FaultPlan::parse("panic@3").unwrap();
        assert!(p.cell_panics(3));
        assert!(!p.cell_panics(2));
    }

    #[test]
    fn pfu_and_io_arms_parse() {
        let p = FaultPlan::parse("pfu@6,io@checkpointx1").unwrap();
        assert!(p.pfu_fault(6) && !p.pfu_fault(5));
        assert!(p.checkpoint_write_fails(1) && !p.checkpoint_write_fails(2));
        let p = FaultPlan::parse("io@checkpoint").unwrap();
        assert!(p.checkpoint_write_fails(2) && !p.checkpoint_write_fails(3));
    }

    #[test]
    fn combined_plan_with_spaces() {
        let p = FaultPlan::parse(" panic@1 , pfu@2 ").unwrap();
        assert!(p.cell_panics(1) && !p.cell_panics(2));
        assert!(p.pfu_fault(2));
    }

    #[test]
    fn malformed_arms_are_rejected() {
        for bad in [
            "panic",
            "panic@x",
            "panic@1x",
            "panic@1x1",
            "io@artifact",
            "io@artifactx1",
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
