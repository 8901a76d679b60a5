//! Observability: cycle attribution and structured pipeline event traces.
//!
//! The paper's argument rests on *where cycles go* — reconfiguration
//! stalls under greedy thrashing (Fig. 2) versus near-flat selective
//! curves (Fig. 6) — so the timing model can explain every cycle, not
//! just count them. Two instruments share one hook, the [`TraceSink`]
//! trait:
//!
//! * **Cycle attribution** — every simulated cycle is classified as
//!   either *busy* (≥ 1 instruction committed) or exactly one
//!   [`StallCause`] from a closed taxonomy, so
//!   `busy_cycles + Σ stalls == total cycles` holds by construction
//!   ([`CycleAttribution::checks_out`]).
//! * **Event traces** — discrete pipeline events ([`TraceEvent`]: PFU
//!   configuration loads/evictions/hits/prefetches, cache misses, branch
//!   redirects) for JSON-lines emission by a caller-supplied sink.
//!
//! The `Reconfig` stall cause stays a single bucket — a cycle either
//! blocked on a configuration load or it did not. The hidden/exposed
//! split of reload *traffic* (cycles of load overlap bought by prefetch
//! and double-buffered planes) is carried by the PFU counters instead
//! (`PfuStats::hidden_reload_cycles` / `exposed_reload_cycles`), so the
//! closed taxonomy is untouched by the config-plane model.
//!
//! Both are *zero-cost when disabled*: [`OooCore::run`] is monomorphized
//! over the sink, and [`NullSink`] sets the associated `const` flags
//! ([`TraceSink::EVENTS`], [`TraceSink::ATTR`]) to `false`, so every
//! instrumentation branch folds away at compile time and the release
//! simulate path is byte-for-byte the uninstrumented pipeline.
//!
//! [`OooCore::run`]: crate::ooo::OooCore::run

use std::collections::HashMap;
use t1000_isa::ConfId;

/// Why a zero-commit cycle happened. Exactly one cause is charged per
/// stalled cycle, chosen by a fixed priority cascade over the oldest
/// in-flight instruction (see `docs/METRICS.md` for the full contract):
///
/// 1. window non-empty, head waiting on a PFU configuration load →
///    [`Reconfig`](StallCause::Reconfig);
/// 2. head waiting on operands → [`DataDep`](StallCause::DataDep);
/// 3. head ready but not issued (functional units, memory ports, or
///    memory ordering) → [`FuContention`](StallCause::FuContention);
/// 4. head executing a memory access: LSQ full →
///    [`LsqFull`](StallCause::LsqFull), else RUU full →
///    [`WindowFull`](StallCause::WindowFull), else
///    [`MemData`](StallCause::MemData);
/// 5. head executing a non-memory op: every younger entry waiting on
///    operands → [`DataDep`](StallCause::DataDep) (the window is
///    serialized by a dependence chain through the head), else
///    [`ExecLatency`](StallCause::ExecLatency);
/// 6. window empty: dispatch held by a configuration load →
///    [`Reconfig`](StallCause::Reconfig); fetch stalled →
///    [`IcacheFetch`](StallCause::IcacheFetch) or
///    [`BranchRedirect`](StallCause::BranchRedirect); otherwise
///    [`FrontendEmpty`](StallCause::FrontendEmpty).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[repr(usize)]
pub enum StallCause {
    /// Window empty while fetch waits on an I-cache (or I-TLB) miss.
    IcacheFetch = 0,
    /// Window empty while fetch waits out a branch-misprediction redirect.
    BranchRedirect = 1,
    /// Window empty with fetch unblocked: startup, drain, or the fetch
    /// queue simply has not refilled yet.
    FrontendEmpty = 2,
    /// Oldest instruction (or, with an empty window, dispatch itself)
    /// waits on a PFU configuration load — the thrashing cost of §5.2.
    Reconfig = 3,
    /// Operand waits: either the oldest instruction waits for a producer,
    /// or it is executing while every younger entry waits on operands —
    /// the window is serialized by a dependence chain.
    DataDep = 4,
    /// Oldest instruction is ready but could not issue: functional-unit
    /// or memory-port contention, or in-order memory-issue ordering.
    FuContention = 5,
    /// Oldest instruction is a multi-cycle non-memory op still executing
    /// (and younger entries have independent work in flight).
    ExecLatency = 6,
    /// Oldest instruction is a load/store still waiting on the data
    /// memory hierarchy.
    MemData = 7,
    /// Oldest instruction is a memory access *and* the RUU window is full
    /// (dispatch backpressure).
    WindowFull = 8,
    /// Oldest instruction is a memory access *and* the LSQ is full
    /// (dispatch backpressure).
    LsqFull = 9,
}

/// Number of distinct [`StallCause`] variants (the taxonomy is closed).
pub const NUM_STALL_CAUSES: usize = 10;

/// Every stall cause, in canonical (JSON schema) order.
pub const STALL_CAUSES: [StallCause; NUM_STALL_CAUSES] = [
    StallCause::IcacheFetch,
    StallCause::BranchRedirect,
    StallCause::FrontendEmpty,
    StallCause::Reconfig,
    StallCause::DataDep,
    StallCause::FuContention,
    StallCause::ExecLatency,
    StallCause::MemData,
    StallCause::WindowFull,
    StallCause::LsqFull,
];

impl StallCause {
    /// Index into [`CycleAttribution::stalls`] (and [`STALL_CAUSES`]).
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case key used in every JSON artifact.
    pub const fn key(self) -> &'static str {
        match self {
            StallCause::IcacheFetch => "icache_fetch",
            StallCause::BranchRedirect => "branch_redirect",
            StallCause::FrontendEmpty => "frontend_empty",
            StallCause::Reconfig => "reconfig",
            StallCause::DataDep => "data_dep",
            StallCause::FuContention => "fu_contention",
            StallCause::ExecLatency => "exec_latency",
            StallCause::MemData => "mem_data",
            StallCause::WindowFull => "window_full",
            StallCause::LsqFull => "lsq_full",
        }
    }

    /// Inverse of [`StallCause::key`].
    pub fn from_key(key: &str) -> Option<StallCause> {
        STALL_CAUSES.iter().copied().find(|c| c.key() == key)
    }
}

/// Where the cycles of one timed run went. The stall counters plus
/// `busy_cycles` partition `total_cycles` exactly; `commit_bound_cycles`
/// is a diagnostic *subset* of `busy_cycles` (cycles that committed a
/// full commit-width with more work ready) and is not part of the
/// partition.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CycleAttribution {
    /// Cycles classified (equals the run's total cycle count).
    pub total_cycles: u64,
    /// Cycles that committed at least one instruction.
    pub busy_cycles: u64,
    /// Busy cycles that committed `commit_width` instructions while the
    /// next instruction was also ready to commit — the run was
    /// commit-bandwidth-bound in those cycles. Subset of `busy_cycles`.
    pub commit_bound_cycles: u64,
    /// Stalled cycles, indexed by [`StallCause::index`].
    pub stalls: [u64; NUM_STALL_CAUSES],
}

impl CycleAttribution {
    /// Cycles charged to `cause`.
    pub fn stall(&self, cause: StallCause) -> u64 {
        self.stalls[cause.index()]
    }

    /// Total stalled (zero-commit) cycles.
    pub fn stall_cycles(&self) -> u64 {
        self.stalls.iter().sum()
    }

    /// The accounting invariant: busy + stalled cycles cover the run
    /// exactly. Holds by construction; exposed so artifact validators and
    /// tests can assert it end-to-end.
    pub fn checks_out(&self) -> bool {
        self.busy_cycles + self.stall_cycles() == self.total_cycles
            && self.commit_bound_cycles <= self.busy_cycles
    }
}

/// The attribution of a run of cycles in compact form: what replay adds
/// for one memoized segment ([`TraceSink::segment`]). Counters are `u32`
/// because a memoized segment classifies at most 65,536 cycles.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AttrDelta {
    /// Cycles classified.
    pub total_cycles: u32,
    /// Cycles that committed at least one instruction.
    pub busy_cycles: u32,
    /// Busy cycles that were commit-bandwidth-bound.
    pub commit_bound_cycles: u32,
    /// Stalled cycles, indexed by [`StallCause::index`].
    pub stalls: [u32; NUM_STALL_CAUSES],
}

impl AttrDelta {
    /// The attribution of `classes`. They must number at most `u32::MAX`.
    pub fn of(classes: &[CycleClass]) -> AttrDelta {
        let mut d = AttrDelta {
            total_cycles: classes.len() as u32,
            ..AttrDelta::default()
        };
        for class in classes {
            match *class {
                CycleClass::Busy { commit_bound, .. } => {
                    d.busy_cycles += 1;
                    d.commit_bound_cycles += u32::from(commit_bound);
                }
                CycleClass::Stall { cause, .. } => d.stalls[cause.index()] += 1,
            }
        }
        d
    }
}

impl CycleAttribution {
    /// Adds the cycles of `delta`.
    pub fn add(&mut self, delta: &AttrDelta) {
        self.total_cycles += u64::from(delta.total_cycles);
        self.busy_cycles += u64::from(delta.busy_cycles);
        self.commit_bound_cycles += u64::from(delta.commit_bound_cycles);
        for (s, d) in self.stalls.iter_mut().zip(delta.stalls) {
            *s += u64::from(d);
        }
    }
}

/// Per-PC stall counters (cycles charged to the instruction at each PC),
/// the substrate for per-loop roll-ups.
pub type PcStalls = HashMap<u32, [u64; NUM_STALL_CAUSES]>;

/// How the pipeline spent one cycle — the argument to
/// [`TraceSink::cycle`].
#[derive(Clone, Copy, Debug)]
pub enum CycleClass {
    /// At least one instruction committed.
    Busy {
        /// Instructions committed this cycle.
        commits: u32,
        /// The full commit width was used and more work was ready.
        commit_bound: bool,
    },
    /// No instruction committed; `cause` says why.
    Stall {
        cause: StallCause,
        /// PC of the instruction the cycle is charged to (the oldest
        /// in-flight instruction, or the stalled fetch PC). `None` when
        /// no instruction is identifiable (e.g. startup/drain).
        pc: Option<u32>,
    },
}

/// A discrete pipeline event, emitted through [`TraceSink::event`] when
/// [`TraceSink::EVENTS`] is true.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// Dispatch-stage tag check missed: a PFU begins loading `conf`,
    /// evicting `evicted` (if the chosen PFU held one). Execution may
    /// start at `ready_at`.
    ConfLoad {
        cycle: u64,
        pc: u32,
        conf: ConfId,
        evicted: Option<ConfId>,
        ready_at: u64,
    },
    /// Dispatch-stage tag check hit: `conf` already resident.
    ConfHit { cycle: u64, pc: u32, conf: ConfId },
    /// Next-config prefetch (`--pfu-prefetch`): a background load of
    /// `conf` started for an upcoming `Conf` tag seen in the fetch
    /// queue; it lands at `ready_at`. If the configuration is demanded
    /// before then, only the remainder is exposed (see
    /// `PfuStats::hidden_reload_cycles`).
    ConfPrefetch {
        cycle: u64,
        conf: ConfId,
        ready_at: u64,
    },
    /// A fetch (`fetch == true`) or data access missed in the L1 cache
    /// (or its TLB) and paid `latency` cycles in total.
    CacheMiss {
        cycle: u64,
        addr: u32,
        fetch: bool,
        write: bool,
        latency: u32,
    },
    /// A conditional branch at `pc` mispredicted; fetch is redirected
    /// after `penalty` cycles.
    BranchRedirect { cycle: u64, pc: u32, penalty: u32 },
}

/// Receiver for pipeline observability, monomorphized into
/// [`OooCore::run_with`](crate::ooo::OooCore::run_with). The two
/// associated consts gate instrumentation at compile time: with both
/// `false` (the [`NullSink`] default used by
/// [`simulate`](crate::machine::simulate)) the timing model contains no
/// observability code at all.
pub trait TraceSink {
    /// Invoke [`TraceSink::event`] for pipeline events.
    const EVENTS: bool;
    /// Invoke [`TraceSink::cycle`] once per simulated cycle.
    const ATTR: bool;

    /// One pipeline event (only called when `EVENTS` is true).
    fn event(&mut self, event: TraceEvent) {
        let _ = event;
    }

    /// One cycle's classification (only called when `ATTR` is true).
    fn cycle(&mut self, class: CycleClass) {
        let _ = class;
    }

    /// The classifications of a whole replayed segment, in order, and
    /// their attribution `delta` (`delta == AttrDelta::of(classes)`).
    /// Only called when `ATTR` is true. The default walks `classes`
    /// through [`TraceSink::cycle`], so a sink that reads each cycle (per
    /// PC, say) sees the cycles it would see without the fast path; a
    /// sink that only sums them can add `delta` in one step instead.
    fn segment(&mut self, classes: &[CycleClass], delta: &AttrDelta) {
        let _ = delta;
        for &class in classes {
            self.cycle(class);
        }
    }
}

/// The disabled sink: all hooks compile away.
pub struct NullSink;

impl TraceSink for NullSink {
    const EVENTS: bool = false;
    const ATTR: bool = false;
}

/// A [`TraceSink`] that accumulates a [`CycleAttribution`], optionally
/// with per-PC roll-ups ([`AttrCollector::with_per_pc`]). Ignores events.
#[derive(Default)]
pub struct AttrCollector {
    /// The aggregate attribution collected so far.
    pub attr: CycleAttribution,
    per_pc: Option<PcStalls>,
}

impl AttrCollector {
    /// Aggregate-only collection (the cheap mode the bench engine uses).
    pub fn new() -> AttrCollector {
        AttrCollector::default()
    }

    /// Also keep per-PC stall counters, for per-loop roll-ups.
    pub fn with_per_pc() -> AttrCollector {
        AttrCollector {
            attr: CycleAttribution::default(),
            per_pc: Some(HashMap::new()),
        }
    }

    /// Per-PC stall counters, if enabled. Stalls with no attributable PC
    /// (e.g. [`StallCause::FrontendEmpty`]) appear only in the aggregate,
    /// so the per-PC sums are a lower bound of [`CycleAttribution::stalls`].
    pub fn per_pc(&self) -> Option<&PcStalls> {
        self.per_pc.as_ref()
    }

    /// Consumes the collector, yielding the aggregate attribution and the
    /// per-PC counters (if collected).
    pub fn into_parts(self) -> (CycleAttribution, Option<PcStalls>) {
        (self.attr, self.per_pc)
    }
}

impl TraceSink for AttrCollector {
    const EVENTS: bool = false;
    const ATTR: bool = true;

    #[inline]
    fn cycle(&mut self, class: CycleClass) {
        self.attr.total_cycles += 1;
        match class {
            CycleClass::Busy { commit_bound, .. } => {
                self.attr.busy_cycles += 1;
                if commit_bound {
                    self.attr.commit_bound_cycles += 1;
                }
            }
            CycleClass::Stall { cause, pc } => {
                self.attr.stalls[cause.index()] += 1;
                if let (Some(map), Some(pc)) = (self.per_pc.as_mut(), pc) {
                    map.entry(pc).or_default()[cause.index()] += 1;
                }
            }
        }
    }

    /// Aggregate-only collection adds the segment's delta; per-PC
    /// collection walks its cycles.
    #[inline]
    fn segment(&mut self, classes: &[CycleClass], delta: &AttrDelta) {
        if self.per_pc.is_none() {
            self.attr.add(delta);
        } else {
            for &class in classes {
                self.cycle(class);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn taxonomy_is_closed_and_keys_round_trip() {
        assert_eq!(STALL_CAUSES.len(), NUM_STALL_CAUSES);
        for (i, c) in STALL_CAUSES.iter().enumerate() {
            assert_eq!(c.index(), i, "canonical order must match indices");
            assert_eq!(StallCause::from_key(c.key()), Some(*c));
        }
        assert_eq!(StallCause::from_key("bogus"), None);
        // Keys are distinct.
        let keys: std::collections::HashSet<_> = STALL_CAUSES.iter().map(|c| c.key()).collect();
        assert_eq!(keys.len(), NUM_STALL_CAUSES);
    }

    #[test]
    fn collector_partitions_cycles() {
        let mut c = AttrCollector::with_per_pc();
        c.cycle(CycleClass::Busy {
            commits: 4,
            commit_bound: true,
        });
        c.cycle(CycleClass::Busy {
            commits: 1,
            commit_bound: false,
        });
        c.cycle(CycleClass::Stall {
            cause: StallCause::DataDep,
            pc: Some(0x40_0000),
        });
        c.cycle(CycleClass::Stall {
            cause: StallCause::FrontendEmpty,
            pc: None,
        });
        let a = &c.attr;
        assert_eq!(a.total_cycles, 4);
        assert_eq!(a.busy_cycles, 2);
        assert_eq!(a.commit_bound_cycles, 1);
        assert_eq!(a.stall(StallCause::DataDep), 1);
        assert_eq!(a.stall_cycles(), 2);
        assert!(a.checks_out());
        let per_pc = c.per_pc().unwrap();
        assert_eq!(
            per_pc[&0x40_0000][StallCause::DataDep.index()],
            1,
            "pc-attributed stall must be recorded"
        );
        assert_eq!(per_pc.len(), 1, "pc-less stalls stay aggregate-only");
    }

    #[test]
    fn a_segment_delta_adds_what_its_cycles_add() {
        let classes = [
            CycleClass::Busy {
                commits: 4,
                commit_bound: true,
            },
            CycleClass::Stall {
                cause: StallCause::MemData,
                pc: Some(0x40_0010),
            },
            CycleClass::Stall {
                cause: StallCause::FrontendEmpty,
                pc: None,
            },
            CycleClass::Busy {
                commits: 2,
                commit_bound: false,
            },
        ];
        let delta = AttrDelta::of(&classes);
        let mut walked = AttrCollector::with_per_pc();
        let mut added = AttrCollector::new();
        for _ in 0..3 {
            walked.segment(&classes, &delta);
            added.segment(&classes, &delta);
        }
        assert_eq!(added.attr, walked.attr);
        assert_eq!(added.attr.total_cycles, 12);
        assert!(added.attr.checks_out());
        assert_eq!(
            walked.per_pc().unwrap()[&0x40_0010][StallCause::MemData.index()],
            3
        );
    }

    #[test]
    fn null_sink_is_fully_disabled() {
        const {
            assert!(!NullSink::EVENTS);
            assert!(!NullSink::ATTR);
        }
    }
}
