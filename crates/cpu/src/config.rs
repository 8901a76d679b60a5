//! Machine configuration for the T1000 simulator.

use crate::branch::BranchModel;
use crate::pfu::PfuReplacement;
use t1000_mem::MemConfig;

/// How many PFUs the machine has.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PfuCount {
    /// A fixed number of PFUs (the realistic configurations: 1, 2, 4...).
    Fixed(usize),
    /// As many PFUs as there are configurations — every extended
    /// instruction is always resident (the paper's best-case experiments).
    Unlimited,
}

impl PfuCount {
    /// The numeric bound, if finite.
    pub fn limit(self) -> Option<usize> {
        match self {
            PfuCount::Fixed(n) => Some(n),
            PfuCount::Unlimited => None,
        }
    }
}

/// Full configuration of the simulated machine.
///
/// Defaults correspond to the paper's evaluation machine (§2.2, §3.1): a
/// 4-issue out-of-order superscalar with an RUU, perfect branch prediction,
/// realistic caches and TLBs, and PFUs with a 10-cycle reconfiguration
/// penalty.
#[derive(Clone, Copy, Debug)]
pub struct CpuConfig {
    /// Instructions fetched per cycle.
    pub fetch_width: u32,
    /// Instructions dispatched into the RUU per cycle.
    pub dispatch_width: u32,
    /// Instructions issued to functional units per cycle.
    pub issue_width: u32,
    /// Instructions committed per cycle.
    pub commit_width: u32,
    /// Register-update-unit (instruction window / reorder buffer) entries.
    pub ruu_size: usize,
    /// Load/store queue entries.
    pub lsq_size: usize,
    /// Fetch-queue entries between fetch and dispatch.
    pub fetch_queue: usize,
    /// Number of single-cycle integer ALUs.
    pub int_alus: u32,
    /// Number of multiply/divide units.
    pub mult_units: u32,
    /// Number of cache ports for loads/stores.
    pub mem_ports: u32,
    /// Number of programmable functional units.
    pub pfus: PfuCount,
    /// Cycles to load a PFU configuration that is not resident.
    pub reconfig_cycles: u32,
    /// PFU configuration replacement policy (the paper uses LRU).
    pub pfu_replacement: PfuReplacement,
    /// Configuration planes per PFU: 1 = the paper's blocking reload
    /// model, 2 = double-buffered (a shadow plane loads in the
    /// background while the active plane keeps executing).
    pub pfu_planes: u32,
    /// Next-config prefetch depth: how many distinct upcoming `Conf`
    /// tags in the fetch queue may trigger background configuration
    /// loads each cycle (0 = no prefetch, the paper's model).
    pub pfu_prefetch: u32,
    /// Configuration-stream compression ratio (0 < R ≤ 1): when set,
    /// each configuration's reload latency is derived from its
    /// compressed stream size (words × R cycles) instead of the flat
    /// `reconfig_cycles`. 0.0 disables per-configuration latencies.
    pub conf_compress: f64,
    /// Branch prediction model (the paper assumes perfect prediction).
    pub branch: BranchModel,
    /// Memory system parameters.
    pub mem: MemConfig,
    /// Safety valve: abort simulation after this many committed
    /// instructions (0 = no limit).
    pub max_instructions: u64,
    /// Pipeline-memo replay fast path (see `docs/FASTPATH.md`): replay
    /// memoized pipeline segments, taken branch to taken branch, while
    /// still performing every cache, TLB, PFU and predictor access, and
    /// return to the cycle-accurate path whenever the memo has not seen
    /// a segment or an access outcome. Bit-identical to the accurate
    /// path by construction; on by default. Disable (`--no-fast-path`)
    /// to force every cycle through the full pipeline, e.g. when
    /// benchmarking the accurate path itself.
    pub fast_path: bool,
    /// Simulation fuel: abort the timing model after this many cycles
    /// (0 = no limit). Unlike `max_instructions`, which bounds
    /// architectural progress, `max_cycles` bounds wall-clock-equivalent
    /// simulated time, so a workload that stops committing (or commits
    /// pathologically slowly) still terminates with
    /// [`ExecError::CycleLimit`](crate::func::ExecError::CycleLimit).
    pub max_cycles: u64,
}

impl Default for CpuConfig {
    fn default() -> CpuConfig {
        CpuConfig {
            fetch_width: 4,
            dispatch_width: 4,
            issue_width: 4,
            commit_width: 4,
            ruu_size: 64,
            lsq_size: 32,
            fetch_queue: 16,
            int_alus: 4,
            mult_units: 1,
            mem_ports: 2,
            pfus: PfuCount::Fixed(2),
            reconfig_cycles: 10,
            pfu_replacement: PfuReplacement::Lru,
            pfu_planes: 1,
            pfu_prefetch: 0,
            conf_compress: 0.0,
            branch: BranchModel::Perfect,
            mem: MemConfig::default(),
            fast_path: true,
            max_instructions: 0,
            max_cycles: 0,
        }
    }
}

impl CpuConfig {
    /// The baseline superscalar: identical core, no PFUs. Extended
    /// instructions cannot execute on this machine.
    pub fn baseline() -> CpuConfig {
        CpuConfig {
            pfus: PfuCount::Fixed(0),
            ..CpuConfig::default()
        }
    }

    /// T1000 with `n` PFUs.
    pub fn with_pfus(n: usize) -> CpuConfig {
        CpuConfig {
            pfus: PfuCount::Fixed(n),
            ..CpuConfig::default()
        }
    }

    /// T1000 with unlimited PFUs.
    pub fn unlimited_pfus() -> CpuConfig {
        CpuConfig {
            pfus: PfuCount::Unlimited,
            ..CpuConfig::default()
        }
    }

    /// Same machine with a different reconfiguration penalty.
    pub fn reconfig(mut self, cycles: u32) -> CpuConfig {
        self.reconfig_cycles = cycles;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_paper_machine() {
        let c = CpuConfig::default();
        assert_eq!(c.fetch_width, 4);
        assert_eq!(c.issue_width, 4);
        assert_eq!(c.commit_width, 4);
        assert_eq!(c.ruu_size, 64);
        assert_eq!(c.reconfig_cycles, 10);
        assert_eq!(c.pfu_planes, 1, "single plane is the paper default");
        assert_eq!(c.pfu_prefetch, 0, "prefetch off by default");
        assert_eq!(c.conf_compress, 0.0, "flat reload latency by default");
    }

    #[test]
    fn constructors_set_pfu_counts() {
        assert_eq!(CpuConfig::baseline().pfus.limit(), Some(0));
        assert_eq!(CpuConfig::with_pfus(4).pfus.limit(), Some(4));
        assert_eq!(CpuConfig::unlimited_pfus().pfus.limit(), None);
        assert_eq!(CpuConfig::with_pfus(2).reconfig(500).reconfig_cycles, 500);
    }
}
