//! Deterministic fault injection for the experiment engine.
//!
//! A [`FaultPlan`] describes *exactly* which operations fail — no
//! randomness, no wall-clock — so a faulted run is reproducible down to
//! the artifact bytes. Plans are written in a tiny comma-separated
//! grammar, passed via `t1000 bench --inject <plan>`:
//!
//! | arm | effect |
//! |---|---|
//! | `panic@N` | cell `N` (plan index) panics: panic isolation fails that cell alone |
//! | `pfu@N` | every PFU configuration load in cell `N` fails → graceful scalar fallback |
//!
//! The arms test panic isolation and the PFU scalar fallback.
//!
//! Example: `--inject panic@3,pfu@6`.

use std::collections::HashSet;

/// A deterministic set of injected faults. The empty plan (the default)
/// injects nothing and costs nothing on the hot path.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Cells that panic.
    cell_panics: HashSet<usize>,
    /// Cells whose PFU configuration loads all fail.
    pfu_faults: HashSet<usize>,
}

impl FaultPlan {
    /// The plan that injects nothing.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Whether any fault is armed.
    pub fn is_empty(&self) -> bool {
        self.cell_panics.is_empty() && self.pfu_faults.is_empty()
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
                other => return Err(format!("unknown fault kind {other:?} in {arm:?}")),
            }
        }
        Ok(plan)
    }

    /// Whether cell `idx` is injected to panic.
    pub fn cell_panics(&self, idx: usize) -> bool {
        self.cell_panics.contains(&idx)
    }

    /// Whether cell `idx`'s PFU configuration loads are injected to fail.
    pub fn pfu_fault(&self, idx: usize) -> bool {
        self.pfu_faults.contains(&idx)
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
        let p = FaultPlan::parse("pfu@6").unwrap();
        assert!(p.pfu_fault(6) && !p.pfu_fault(5));
        assert!(!p.cell_panics(6));
        // No operation takes I/O faults: `io` parses as an unknown kind.
        let e = FaultPlan::parse("io@artifact").unwrap_err();
        assert!(e.contains("unknown fault kind \"io\""), "{e}");
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
            "io@checkpoint",
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
