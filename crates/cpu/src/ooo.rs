//! Cycle-level out-of-order timing model.
//!
//! Models the paper's evaluation machine (§2.2, §3.1): a 4-wide
//! fetch/decode/issue/commit superscalar with a Register Update Unit
//! (RUU [Sohi 90]) — a unified reorder buffer that renames registers and
//! holds pending results — plus a load/store queue, realistic caches and
//! TLBs, perfect branch prediction, and the PFU array.
//!
//! The model is trace-driven from the functional core ("execute-at-fetch"):
//! values are already known, so this module only decides *when* things
//! happen. Perfect branch prediction falls out naturally — fetch follows
//! the committed path.
//!
//! Pipeline per cycle (processed in reverse order so a stage sees the
//! previous cycle's downstream state): commit → issue/execute → dispatch
//! (rename + PFU tag check) → fetch.
//!
//! Issue is wakeup-driven rather than a scan of the whole window. At
//! dispatch each RUU entry links itself to its unissued in-window
//! producers (its data dependences plus the previous memory operation)
//! and counts them; producers that already issued fold their
//! `complete_at` into the entry's `ready_at`, which starts at its PFU
//! configuration's ready cycle. Issuing an entry walks its consumer links:
//! each consumer folds in the producer's completion cycle and drops its
//! pending count. An entry with nothing pending waits in a time-ordered
//! queue until `ready_at` arrives, then joins an age-ordered candidate
//! list. The issue stage walks only that list, oldest first, under the
//! per-class functional-unit limits and the issue width. A consumer woken
//! mid-walk whose `ready_at` has already arrived (a 0-latency producer, or
//! a memory operation whose predecessor just issued) joins the list behind
//! its producer and can issue in the same cycle, exactly as a whole-window
//! scan would find it. The wakeup state is derived from the window: the
//! replay fast path leaves it out of its memo key and rebuilds it when it
//! hands a memoized state back to this model (see `ooo/fast_path.rs`).
//!
//! Every call into the memory hierarchy, the PFU array and the branch
//! predictor goes through a thin wrapper in `ooo/fast_path.rs`
//! (`mem_fetch`, `mem_data`, `pfu_request`, `pfu_prefetch`,
//! `branch_observe`). With the fast path off each is the plain call. With
//! it on, the wrapper also records the call and its outcome for the memo,
//! and first hands back any results that replay already obtained from the
//! component, so no access is ever performed twice.
//!
//! The RUU window is a ring allocated once, its capacity `ruu_size`
//! rounded up to a power of two, and indexed by age through the mask.
//! Dispatch writes each new entry field by field into the tail slot and
//! commit advances the head, so an entry is never moved while it is in
//! flight. Occupancy is still limited by `ruu_size`, not by the ring's
//! capacity. Records arrive from the functional core as 24-byte
//! [`DynInstr`] values and are copied, not re-encoded, at each stage.
//!
//! The record stream is a [`RecordSource`], which fills a buffer a batch
//! at a time; fetch and the replay fast path take records from that
//! buffer. An error the source returns with a batch is held until the
//! pipeline asks for the record after the batch's last one, so it
//! surfaces at the same pull as if records were produced one by one.
//! Replay reads ahead of fetch without taking the error: records it
//! pulled go to fetch first, so fetch meets the error where it would
//! with the fast path off.

use crate::branch::{BranchStats, Predictor};
use crate::config::CpuConfig;
use crate::func::{DynInstr, ExecError};
use crate::observe::{CycleClass, NullSink, StallCause, TraceEvent, TraceSink};
use crate::pfu::{PfuArray, PfuOutcome, PfuStats};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::ops::{Index, IndexMut};
#[cfg(test)]
use t1000_isa::Reg;
use t1000_isa::{ConfId, Instr, OpClass};
use t1000_mem::{MemHierarchy, MemStats};

mod fast_path;

pub use fast_path::FastPathStats;

/// A record stream the pipeline pulls from, a batch at a time.
///
/// A closure returning one record per call (`None` once the program has
/// finished) is a source; so is a
/// [`FuncCore`](crate::func::FuncCore), by `&mut`, which fills whole
/// batches.
pub trait RecordSource {
    /// The error type. It must absorb [`ExecError`] so the cycle-fuel
    /// watchdog ([`CpuConfig::max_cycles`]) can abort divergent runs.
    type Error: From<ExecError>;

    /// Appends the next records of the stream to `buf`: at least one, or
    /// none once the stream has ended. An error comes after the records
    /// appended with it.
    fn fill(&mut self, buf: &mut Vec<DynInstr>) -> Result<(), Self::Error>;
}

impl<E: From<ExecError>, F: FnMut() -> Result<Option<DynInstr>, E>> RecordSource for F {
    type Error = E;

    fn fill(&mut self, buf: &mut Vec<DynInstr>) -> Result<(), E> {
        buf.extend(self()?);
        Ok(())
    }
}

/// The pipeline's cursor over a [`RecordSource`]: the current batch, and
/// how the stream goes on after it.
struct Feed<R: RecordSource> {
    source: R,
    batch: Vec<DynInstr>,
    /// Records of `batch` already pulled.
    pos: usize,
    /// What follows `batch`, once the source has said: the end of the
    /// stream (`Ok`) or an error.
    after: Option<Result<(), R::Error>>,
}

impl<R: RecordSource> Feed<R> {
    fn new(source: R) -> Feed<R> {
        Feed {
            source,
            batch: Vec::new(),
            pos: 0,
            after: None,
        }
    }

    /// The next record, `None` at the end of the stream.
    #[inline(always)]
    fn next(&mut self) -> Result<Option<DynInstr>, R::Error> {
        match self.batch.get(self.pos) {
            Some(&rec) => {
                self.pos += 1;
                Ok(Some(rec))
            }
            None => self.refill(),
        }
    }

    /// Starts the next batch, or reports what follows the last one.
    #[inline(never)]
    fn refill(&mut self) -> Result<Option<DynInstr>, R::Error> {
        if let Some(&rec) = self.rest().first() {
            self.pos += 1;
            return Ok(Some(rec));
        }
        // The stream ends here: for good, or with the error, reported once.
        match self.after.take() {
            Some(Err(e)) => Err(e),
            end => {
                self.after = end;
                Ok(None)
            }
        }
    }

    /// The records of the current batch not yet pulled, after starting
    /// the next batch if this one is used up. Empty at the end of the
    /// stream or before an error, which stays held for [`Feed::next`].
    #[inline]
    fn rest(&mut self) -> &[DynInstr] {
        if self.pos == self.batch.len() && self.after.is_none() {
            self.batch.clear();
            self.pos = 0;
            if let Err(e) = self.source.fill(&mut self.batch) {
                self.after = Some(Err(e));
            } else if self.batch.is_empty() {
                self.after = Some(Ok(()));
            }
        }
        &self.batch[self.pos..]
    }

    /// Marks the first `n` records of [`Feed::rest`] pulled.
    #[inline]
    fn consume(&mut self, n: usize) {
        debug_assert!(self.pos + n <= self.batch.len());
        self.pos += n;
    }
}

/// Final statistics of a timed run.
#[derive(Clone, Debug)]
pub struct TimingStats {
    /// Total execution time in cycles.
    pub cycles: u64,
    /// Dynamic instruction slots committed (fused sequences count once).
    pub slots: u64,
    /// Base (unfused) instructions represented by those slots.
    pub base_instructions: u64,
    /// Instructions per cycle, counted in *base* instructions so it is
    /// comparable across fusion configurations.
    pub base_ipc: f64,
    /// PFU usage statistics.
    pub pfu: PfuStats,
    /// Memory system statistics.
    pub mem: MemStats,
    /// Cycles fetch was stalled waiting on the I-cache.
    pub fetch_stall_cycles: u64,
    /// Branch prediction statistics.
    pub branch: BranchStats,
    /// Replay fast-path counters (all zero when disabled).
    pub fast: FastPathStats,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum EntryState {
    /// Dispatched, operands or resources still pending.
    Waiting,
    /// Issued; the result is available (and the entry committable) once
    /// `complete_at` is reached — all latencies are fixed at issue time,
    /// so no separate in-flight state is needed.
    Done,
}

struct RuuEntry {
    rec: DynInstr,
    state: EntryState,
    /// Producer sequence numbers this entry waits on (gpr×2 + HI/LO).
    deps: [Option<u64>; 3],
    /// Earliest cycle the PFU configuration is ready (ext only).
    pfu_ready_at: u64,
    /// Completion cycle (valid once issued).
    complete_at: u64,
    /// Sequence number of the previous memory operation (memory ops issue
    /// in program order relative to each other).
    prev_mem: Option<u64>,
    /// What this entry still waits for, derived from the window by
    /// [`OooCore::link`].
    wakeup: Wakeup,
    /// First link of this entry's consumer list ([`NO_LINK`] if empty).
    wake_head: u64,
}

/// The wakeup state of a waiting RUU entry.
struct Wakeup {
    /// Links to unissued in-window producers not yet walked: one per
    /// data dep and one for `prev_mem`.
    pending: u8,
    /// Earliest issue cycle given the producers issued so far: the max of
    /// their `complete_at` and `pfu_ready_at`.
    ready_at: u64,
    /// Next link of a producer's consumer list, per link slot of this
    /// entry: `deps[0..3]`, then [`MEM_SLOT`] for `prev_mem`.
    next: [u64; 4],
}

impl RuuEntry {
    /// The contents of a ring slot that has never been filled.
    fn vacant() -> RuuEntry {
        RuuEntry {
            rec: DynInstr::of(0, &Instr::NOP),
            state: EntryState::Done,
            deps: [None; 3],
            pfu_ready_at: 0,
            complete_at: 0,
            prev_mem: None,
            wakeup: Wakeup {
                pending: 0,
                ready_at: 0,
                next: [NO_LINK; 4],
            },
            wake_head: NO_LINK,
        }
    }
}

/// The RUU window: a ring of slots allocated once, its capacity
/// `ruu_size` rounded up to a power of two, and indexed by age (0 is the
/// oldest entry, at `seq == head_seq`) through the mask. Dispatch fills
/// the tail slot in place and commit advances the head, so no entry is
/// moved while it is in flight.
struct Ruu {
    slots: Box<[RuuEntry]>,
    mask: usize,
    /// Slot of the oldest entry.
    head: usize,
    len: usize,
}

impl Ruu {
    fn new(ruu_size: usize) -> Ruu {
        let cap = ruu_size.max(1).next_power_of_two();
        Ruu {
            slots: (0..cap).map(|_| RuuEntry::vacant()).collect(),
            mask: cap - 1,
            head: 0,
            len: 0,
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The entry of age `age`, if the window holds that many.
    fn get(&self, age: usize) -> Option<&RuuEntry> {
        (age < self.len).then(|| &self.slots[(self.head + age) & self.mask])
    }

    fn front(&self) -> Option<&RuuEntry> {
        self.get(0)
    }

    /// Empties the window. The slots keep their contents until refilled.
    fn clear(&mut self) {
        self.head = 0;
        self.len = 0;
    }

    /// Retires the oldest entry.
    fn pop_front(&mut self) {
        debug_assert!(self.len > 0);
        self.head = (self.head + 1) & self.mask;
        self.len -= 1;
    }

    /// Appends an entry and returns its slot for the caller to fill. The
    /// caller checks occupancy against `ruu_size` first.
    fn push_back(&mut self) -> &mut RuuEntry {
        debug_assert!(self.len <= self.mask);
        let slot = (self.head + self.len) & self.mask;
        self.len += 1;
        &mut self.slots[slot]
    }

    /// The entries oldest first: the run from the head to the end of the
    /// ring, then the run that wrapped to its start.
    fn iter(&self) -> impl Iterator<Item = &RuuEntry> {
        let (wrapped, tail) = self.slots.split_at(self.head);
        let n = self.len.min(tail.len());
        tail[..n].iter().chain(&wrapped[..self.len - n])
    }

    fn iter_mut(&mut self) -> impl Iterator<Item = &mut RuuEntry> {
        let (wrapped, tail) = self.slots.split_at_mut(self.head);
        let n = self.len.min(tail.len());
        tail[..n].iter_mut().chain(&mut wrapped[..self.len - n])
    }
}

impl Index<usize> for Ruu {
    type Output = RuuEntry;

    fn index(&self, age: usize) -> &RuuEntry {
        debug_assert!(age < self.len);
        &self.slots[(self.head + age) & self.mask]
    }
}

impl IndexMut<usize> for Ruu {
    fn index_mut(&mut self, age: usize) -> &mut RuuEntry {
        debug_assert!(age < self.len);
        &mut self.slots[(self.head + age) & self.mask]
    }
}

/// End of a consumer list. A link id is `consumer_seq * 4 + slot`.
const NO_LINK: u64 = u64::MAX;
/// Link slot of the program-order link to `prev_mem`, which needs its
/// producer issued but not completed.
const MEM_SLOT: usize = 3;

/// The out-of-order engine. Feed it dynamic records via [`OooCore::run`].
pub struct OooCore {
    cfg: CpuConfig,
    mem: MemHierarchy,
    pfus: PfuArray,
    predictor: Predictor,
    cycle: u64,
    /// RUU window: entries indexed by `seq - head_seq`.
    window: Ruu,
    head_seq: u64,
    next_seq: u64,
    /// Latest producer seq per architectural register.
    reg_producer: [Option<u64>; 32],
    hilo_producer: Option<u64>,
    /// Seq of the most recently dispatched memory op.
    last_mem_seq: Option<u64>,
    /// Issue candidates, oldest first: waiting entries with no pending
    /// producer whose `ready_at` has arrived.
    ready: Vec<u64>,
    /// Waiting entries with no pending producer and a future `ready_at`,
    /// as `(ready_at, seq)`.
    timed: BinaryHeap<Reverse<(u64, u64)>>,
    /// Number of load/store entries currently in the window (LSQ occupancy).
    lsq_used: usize,
    /// Fetch queue between the fetcher and dispatch.
    fetch_queue: VecDeque<DynInstr>,
    /// Cycle until which dispatch is stalled on a PFU configuration load
    /// (the paper's decode-stage tag check: a missing configuration must be
    /// loaded "before the extended instruction can be issued", §2.2).
    dispatch_ready_at: u64,
    /// Cycle until which fetch is stalled on an I-cache miss.
    fetch_ready_at: u64,
    /// Why fetch is stalled (attribution only; valid while
    /// `cycle < fetch_ready_at`) and the PC that caused it.
    fetch_stall_cause: StallCause,
    fetch_stall_pc: u32,
    /// Cache line of the most recent instruction fetch.
    last_fetch_line: Option<u32>,
    /// Statistics.
    slots: u64,
    base_instructions: u64,
    fetch_stall_cycles: u64,
    /// Set once the trace source is exhausted.
    drained: bool,
    /// Pipeline-memo replay fast path (see `ooo/fast_path.rs`).
    fast: fast_path::FastPath,
}

impl OooCore {
    /// Builds a timing core.
    pub fn new(cfg: CpuConfig) -> OooCore {
        let mut pfus =
            PfuArray::with_replacement(cfg.pfus, cfg.reconfig_cycles, cfg.pfu_replacement);
        pfus.set_planes(cfg.pfu_planes);
        OooCore {
            mem: MemHierarchy::new(cfg.mem),
            pfus,
            predictor: Predictor::new(cfg.branch),
            fast: fast_path::FastPath::new(&cfg),
            window: Ruu::new(cfg.ruu_size),
            cfg,
            cycle: 0,
            head_seq: 0,
            next_seq: 0,
            reg_producer: [None; 32],
            hilo_producer: None,
            last_mem_seq: None,
            ready: Vec::new(),
            timed: BinaryHeap::new(),
            lsq_used: 0,
            fetch_queue: VecDeque::new(),
            dispatch_ready_at: 0,
            fetch_ready_at: 0,
            fetch_stall_cause: StallCause::FrontendEmpty,
            fetch_stall_pc: 0,
            last_fetch_line: None,
            slots: 0,
            base_instructions: 0,
            fetch_stall_cycles: 0,
            drained: false,
        }
    }

    /// Runs the pipeline to completion over the record stream of
    /// `source`.
    pub fn run<R: RecordSource>(self, source: R) -> Result<TimingStats, R::Error> {
        self.run_with(source, &mut NullSink)
    }

    /// Like [`OooCore::run`], but reporting cycle attribution and
    /// pipeline events to `sink`. Monomorphized per sink type: with
    /// [`NullSink`] every instrumentation branch is compiled out and this
    /// *is* the uninstrumented pipeline.
    pub fn run_with<R: RecordSource, S: TraceSink>(
        mut self,
        source: R,
        sink: &mut S,
    ) -> Result<TimingStats, R::Error> {
        let mut feed = Feed::new(source);
        if S::EVENTS {
            // Trace events carry absolute cycle numbers; replayed
            // segments would have to rewrite them. Event tracing wants
            // every cycle simulated anyway, so the fast path stands down.
            self.fast.enabled = false;
        }
        loop {
            // A segment boundary (fetch pulled a taken branch last cycle)
            // is handled before anything else, so replay starts from
            // exactly this between-cycles state — and the fuel check below
            // still fires at the precise cycle it would have without the
            // fast path.
            if self.fast.enabled && std::mem::take(&mut self.fast.pending_boundary) {
                self.fast_boundary(&mut feed, sink);
            }
            if self.cfg.max_cycles != 0 && self.cycle >= self.cfg.max_cycles {
                // Out of fuel: a workload that has not drained by now is
                // treated as divergent and aborted instead of hanging the
                // caller (the engine maps this to a `Timeout` failure).
                return Err(ExecError::CycleLimit(self.cfg.max_cycles).into());
            }
            let slots_before = self.slots;
            self.commit();
            // Classify eagerly (the pre-issue state is what stalled this
            // cycle) but record only if the loop does not break below, so
            // classified cycles match counted cycles one-for-one.
            let class = if S::ATTR {
                Some(self.classify((self.slots - slots_before) as u32))
            } else {
                None
            };
            self.issue(sink);
            self.dispatch(sink);
            self.fetch(&mut feed, sink)?;
            if self.drained && self.window.is_empty() && self.fetch_queue.is_empty() {
                break;
            }
            if let Some(class) = class {
                sink.cycle(class);
                if self.fast.enabled {
                    self.fast.saw_class(class);
                }
            }
            self.cycle += 1;
            debug_assert!(
                self.cycle < (self.base_instructions + 10_000) * 1_000 + 1_000_000,
                "timing model deadlock at cycle {}",
                self.cycle
            );
        }
        let base_ipc = if self.cycle == 0 {
            0.0
        } else {
            self.base_instructions as f64 / self.cycle as f64
        };
        Ok(TimingStats {
            cycles: self.cycle,
            slots: self.slots,
            base_instructions: self.base_instructions,
            base_ipc,
            pfu: self.pfus.stats(),
            mem: self.mem.stats(),
            fetch_stall_cycles: self.fetch_stall_cycles,
            branch: self.predictor.stats(),
            fast: self.fast.stats(),
        })
    }

    fn entry(&self, seq: u64) -> Option<&RuuEntry> {
        self.window.get((seq.checked_sub(self.head_seq)?) as usize)
    }

    /// Commit up to `commit_width` completed entries in order.
    fn commit(&mut self) {
        for _ in 0..self.cfg.commit_width {
            let e = match self.window.front() {
                Some(e) if e.state == EntryState::Done && e.complete_at <= self.cycle => e,
                _ => break,
            };
            if e.rec.mem().is_some() {
                self.lsq_used -= 1;
            }
            self.base_instructions += u64::from(e.rec.fused_len);
            self.window.pop_front();
            self.slots += 1;
            self.head_seq += 1;
        }
    }

    /// Classifies the cycle that just performed `commits` commits. Called
    /// between commit and issue, so "the oldest in-flight instruction"
    /// means the window head as the issue stage is about to see it. Total
    /// order of the cascade is documented on [`StallCause`].
    ///
    /// The busy path is the common case by far and inlines into the main
    /// loop; the stall cascade stays out of line so instrumented builds
    /// keep the hot loop small.
    #[inline]
    fn classify(&self, commits: u32) -> CycleClass {
        if commits > 0 {
            let commit_bound = commits == self.cfg.commit_width
                && matches!(
                    self.window.front(),
                    Some(e) if e.state == EntryState::Done && e.complete_at <= self.cycle
                );
            return CycleClass::Busy {
                commits,
                commit_bound,
            };
        }
        self.classify_stall()
    }

    /// The zero-commit half of [`OooCore::classify`].
    #[cold]
    fn classify_stall(&self) -> CycleClass {
        let Some(head) = self.window.front() else {
            // Empty window: the backend starved. Charge dispatch's
            // configuration-load hold first, then a stalled fetch, then
            // the residual ramp/drain bucket.
            let (cause, pc) = if self.cycle < self.dispatch_ready_at {
                (StallCause::Reconfig, self.fetch_queue.front().map(|r| r.pc))
            } else if self.cycle < self.fetch_ready_at {
                (self.fetch_stall_cause, Some(self.fetch_stall_pc))
            } else {
                (StallCause::FrontendEmpty, None)
            };
            return CycleClass::Stall { cause, pc };
        };
        let pc = Some(head.rec.pc);
        let cause = match head.state {
            EntryState::Waiting => {
                if head.pfu_ready_at > self.cycle {
                    StallCause::Reconfig
                } else if head.deps.iter().flatten().any(|&dep| {
                    matches!(
                        self.entry(dep),
                        Some(p) if p.state == EntryState::Waiting || p.complete_at > self.cycle
                    )
                }) {
                    StallCause::DataDep
                } else {
                    StallCause::FuContention
                }
            }
            // Done with complete_at > cycle, else commit would have
            // retired it.
            EntryState::Done => {
                if head.rec.mem().is_some() {
                    // A memory access blocks the head. Backpressure
                    // outranks the access latency: a full LSQ/window means
                    // dispatch is also blocked behind this op.
                    if self.lsq_used >= self.cfg.lsq_size {
                        StallCause::LsqFull
                    } else if self.window.len() >= self.cfg.ruu_size {
                        StallCause::WindowFull
                    } else {
                        StallCause::MemData
                    }
                } else if self.window.len() > 1
                    && self
                        .window
                        .iter()
                        .skip(1)
                        .all(|e| e.state == EntryState::Waiting)
                {
                    // Everything younger waits on operands while the head
                    // executes: the window is serialized by a dependence
                    // chain, not by the head's latency alone.
                    StallCause::DataDep
                } else {
                    StallCause::ExecLatency
                }
            }
        };
        CycleClass::Stall { cause, pc }
    }

    /// Issue candidates oldest-first, respecting FU counts and the issue
    /// width, and wake the consumers of every issued entry.
    fn issue<S: TraceSink>(&mut self, sink: &mut S) {
        while let Some(&Reverse((at, seq))) = self.timed.peek() {
            if at > self.cycle {
                break;
            }
            self.timed.pop();
            self.enqueue(seq);
        }
        let mut issued = 0;
        let mut alu_used = 0;
        let mut mult_used = 0;
        let mut mem_used = 0;
        let mut pfu_used = 0;
        let pfu_ports = self.cfg.pfus.limit().unwrap_or(usize::MAX) as u32;

        let mut i = 0;
        while i < self.ready.len() && issued < self.cfg.issue_width {
            let idx = (self.ready[i] - self.head_seq) as usize;
            debug_assert_eq!(self.window[idx].state, EntryState::Waiting);
            let rec_class = self.window[idx].rec.class;
            // Structural hazards.
            let free = match rec_class {
                OpClass::IntAlu | OpClass::Ctrl | OpClass::Sys => alu_used < self.cfg.int_alus,
                OpClass::IntMult => mult_used < self.cfg.mult_units,
                OpClass::Load | OpClass::Store => mem_used < self.cfg.mem_ports,
                OpClass::Pfu => pfu_used < pfu_ports,
            };
            if !free {
                i += 1;
                continue;
            }
            // Issue it.
            self.ready.remove(i);
            let latency = match rec_class {
                OpClass::Load | OpClass::Store => {
                    let Some((addr, is_write)) = self.window[idx].rec.mem() else {
                        unreachable!("load/store records carry a memory access");
                    };
                    let lat = self.mem_data(self.head_seq + idx as u64, addr, is_write);
                    if S::EVENTS && lat > self.cfg.mem.l1_hit {
                        sink.event(TraceEvent::CacheMiss {
                            cycle: self.cycle,
                            addr,
                            fetch: false,
                            write: is_write,
                            latency: lat,
                        });
                    }
                    lat
                }
                _ => self.window[idx].rec.latency,
            };
            let e = &mut self.window[idx];
            e.complete_at = self.cycle + latency as u64;
            // All latencies are fixed at issue time, so the entry goes
            // straight to Done with a future `complete_at`; consumers and
            // the commit stage both gate on that timestamp.
            e.state = EntryState::Done;
            issued += 1;
            match rec_class {
                OpClass::IntAlu | OpClass::Ctrl | OpClass::Sys => alu_used += 1,
                OpClass::IntMult => mult_used += 1,
                OpClass::Load | OpClass::Store => mem_used += 1,
                OpClass::Pfu => pfu_used += 1,
            }
            self.wake(idx);
        }
    }

    /// Walks the consumer list of the just-issued entry at window index
    /// `idx`. A consumer left with nothing pending is scheduled for this
    /// cycle's remaining walk if its `ready_at` has arrived: it is younger
    /// than its producer, so it lands behind the walk's position.
    fn wake(&mut self, idx: usize) {
        let complete_at = self.window[idx].complete_at;
        let mut link = std::mem::replace(&mut self.window[idx].wake_head, NO_LINK);
        while link != NO_LINK {
            let (seq, slot) = (link / 4, (link % 4) as usize);
            let c = &mut self.window[(seq - self.head_seq) as usize].wakeup;
            link = c.next[slot];
            if slot != MEM_SLOT {
                c.ready_at = c.ready_at.max(complete_at);
            }
            c.pending -= 1;
            if c.pending == 0 {
                let ready_at = c.ready_at;
                self.schedule(seq, ready_at, self.cycle);
            }
        }
    }

    /// Derives the wakeup state of waiting entry `seq` from the older
    /// entries: links it to each unissued in-window producer among
    /// `producers` (its `deps`, then its `prev_mem`) and folds issued
    /// producers' completion cycles into `ready_at`, which starts at
    /// `pfu_ready_at`.
    fn link(&mut self, seq: u64, producers: [Option<u64>; 4], pfu_ready_at: u64) -> Wakeup {
        let mut w = Wakeup {
            pending: 0,
            ready_at: pfu_ready_at,
            next: [NO_LINK; 4],
        };
        for (slot, p) in producers.into_iter().enumerate() {
            // Committed producers have their results available.
            let Some(pi) = p.and_then(|p| p.checked_sub(self.head_seq)) else {
                continue;
            };
            let prod = &mut self.window[pi as usize];
            if prod.state == EntryState::Done {
                if slot != MEM_SLOT {
                    w.ready_at = w.ready_at.max(prod.complete_at);
                }
            } else {
                // A producer in two slots (a store of the value its
                // predecessor loaded) gets two links, one per slot, and
                // issuing it walks both.
                w.next[slot] = prod.wake_head;
                prod.wake_head = seq * 4 + slot as u64;
                w.pending += 1;
            }
        }
        w
    }

    /// Queues an entry with nothing pending: into the candidate list if
    /// `ready_at` has arrived by the issue stage of cycle `now`, else into
    /// the time-ordered queue.
    fn schedule(&mut self, seq: u64, ready_at: u64, now: u64) {
        if ready_at <= now {
            self.enqueue(seq);
        } else {
            self.timed.push(Reverse((ready_at, seq)));
        }
    }

    /// Inserts `seq` into the candidate list in age order.
    fn enqueue(&mut self, seq: u64) {
        let pos = self.ready.partition_point(|&s| s < seq);
        self.ready.insert(pos, seq);
    }

    /// Recomputes the whole wakeup state from the window (after the fast
    /// path has rebuilt the window from a memoized state). Called between
    /// cycles, so the next issue stage is this cycle's.
    fn rebuild_wakeup(&mut self) {
        self.ready.clear();
        self.timed.clear();
        for e in self.window.iter_mut() {
            e.wake_head = NO_LINK;
        }
        for idx in 0..self.window.len() {
            let e = &self.window[idx];
            if e.state == EntryState::Done {
                continue;
            }
            let seq = self.head_seq + idx as u64;
            let producers = [e.deps[0], e.deps[1], e.deps[2], e.prev_mem];
            let w = self.link(seq, producers, e.pfu_ready_at);
            if w.pending == 0 {
                self.schedule(seq, w.ready_at, self.cycle);
            }
            self.window[idx].wakeup = w;
        }
    }

    /// Installs the per-configuration stream-size and (optional) load
    /// latency tables, both indexed by `ConfId` — derived by the machine
    /// layer from the fusion map's hardware-cost data. Must be called
    /// before the run starts.
    pub fn set_conf_tables(&mut self, words: Vec<u32>, load_cycles: Option<Vec<u32>>) {
        self.pfus.set_stream_words(words);
        if let Some(table) = load_cycles {
            self.pfus.set_load_cycles(table);
        }
    }

    /// Next-config prefetch (`--pfu-prefetch N`): scan the fetch queue
    /// for the first N *distinct* upcoming `Conf` tags and start
    /// background loads for any that are absent. Runs even while
    /// dispatch is held on a demand load — overlapping that hold with
    /// the next configuration's transfer is the point.
    fn prefetch_confs<S: TraceSink>(&mut self, sink: &mut S) {
        let depth = self.cfg.pfu_prefetch as usize;
        // Each upcoming configuration with the sequence number its first
        // record will get at dispatch.
        let mut upcoming: Vec<(ConfId, u64)> =
            Vec::with_capacity(depth.min(self.fetch_queue.len()));
        for (rec, seq) in self.fetch_queue.iter().zip(self.next_seq..) {
            if let Some(conf) = rec.conf() {
                if !upcoming.iter().any(|&(c, _)| c == conf) {
                    upcoming.push((conf, seq));
                    if upcoming.len() >= depth {
                        break;
                    }
                }
            }
        }
        for (conf, seq) in upcoming {
            if let Some(ready_at) = self.pfu_prefetch(seq, conf) {
                if S::EVENTS {
                    sink.event(TraceEvent::ConfPrefetch {
                        cycle: self.cycle,
                        conf,
                        ready_at,
                    });
                }
            }
        }
    }

    /// Move instructions from the fetch queue into the RUU, renaming their
    /// source operands to producer sequence numbers.
    fn dispatch<S: TraceSink>(&mut self, sink: &mut S) {
        if self.cfg.pfu_prefetch > 0 {
            self.prefetch_confs(sink);
        }
        if self.cycle < self.dispatch_ready_at {
            return;
        }
        for _ in 0..self.cfg.dispatch_width {
            let Some(&rec) = self.fetch_queue.front() else {
                break;
            };
            if self.window.len() >= self.cfg.ruu_size {
                break;
            }
            let is_mem = rec.mem().is_some();
            if is_mem && self.lsq_used >= self.cfg.lsq_size {
                break;
            }
            // Syscalls serialize: they dispatch into an empty window and
            // nothing dispatches behind them this cycle.
            let is_sys = rec.class == OpClass::Sys;
            if is_sys && !self.window.is_empty() {
                break;
            }
            self.fetch_queue.pop_front();
            let seq = self.next_seq;
            self.next_seq += 1;

            let mut deps = [None, None, None];
            for (k, r) in rec.gpr_uses().into_iter().flatten().enumerate() {
                deps[k] = self.reg_producer[r.index()];
            }
            if rec.hilo_use() {
                deps[2] = self.hilo_producer;
            }

            // The tag check happens once, here at dispatch (paper §2.2).
            // If later dispatches evict this configuration before the
            // instruction issues, we do not re-charge a reload — a small
            // optimism shared by trace-driven models; the dispatch stall
            // below keeps it rare.
            let pfu_ready_at = if let Some(conf) = rec.conf() {
                let outcome = self.pfu_request(seq, conf);
                if S::EVENTS {
                    match outcome {
                        PfuOutcome::Hit { .. } => sink.event(TraceEvent::ConfHit {
                            cycle: self.cycle,
                            pc: rec.pc,
                            conf,
                        }),
                        PfuOutcome::Load { at, evicted } => sink.event(TraceEvent::ConfLoad {
                            cycle: self.cycle,
                            pc: rec.pc,
                            conf,
                            evicted,
                            ready_at: at,
                        }),
                        PfuOutcome::NoPfu => {}
                    }
                }
                match outcome {
                    PfuOutcome::Hit { at } | PfuOutcome::Load { at, .. } => {
                        if at > self.cycle {
                            // Configuration load in progress: decode holds
                            // younger instructions until it completes.
                            self.dispatch_ready_at = at;
                        }
                        at
                    }
                    PfuOutcome::NoPfu => {
                        panic!("extended instruction reached a machine with no PFUs")
                    }
                }
            } else {
                0
            };

            let prev_mem = if is_mem {
                let p = self.last_mem_seq;
                self.last_mem_seq = Some(seq);
                self.lsq_used += 1;
                p
            } else {
                None
            };

            if let Some(d) = rec.gpr_def() {
                self.reg_producer[d.index()] = Some(seq);
            }
            if rec.hilo_def() {
                self.hilo_producer = Some(seq);
            }
            let wakeup = self.link(seq, [deps[0], deps[1], deps[2], prev_mem], pfu_ready_at);
            if wakeup.pending == 0 {
                // First considered by next cycle's issue stage.
                self.schedule(seq, wakeup.ready_at, self.cycle + 1);
            }
            let e = self.window.push_back();
            e.rec = rec;
            e.state = EntryState::Waiting;
            e.deps = deps;
            e.pfu_ready_at = pfu_ready_at;
            e.complete_at = 0;
            e.prev_mem = prev_mem;
            e.wakeup = wakeup;
            e.wake_head = NO_LINK;
            if is_sys || self.cycle < self.dispatch_ready_at {
                break;
            }
        }
    }

    /// Fetch up to `fetch_width` records from the trace into the fetch
    /// queue, charging I-cache latency per new cache line.
    fn fetch<R: RecordSource, S: TraceSink>(
        &mut self,
        feed: &mut Feed<R>,
        sink: &mut S,
    ) -> Result<(), R::Error> {
        if self.drained {
            return Ok(());
        }
        if self.cycle < self.fetch_ready_at {
            self.fetch_stall_cycles += 1;
            return Ok(());
        }
        let line_bytes = self.cfg.mem.il1.line_bytes;
        for _ in 0..self.cfg.fetch_width {
            if self.fetch_queue.len() >= self.cfg.fetch_queue {
                break;
            }
            let Some(rec) = self.next_record(feed)? else {
                self.drained = true;
                break;
            };
            // The sequence number dispatch will give this record.
            let seq = self.next_seq + self.fetch_queue.len() as u64;
            let line = rec.pc / line_bytes;
            if self.last_fetch_line != Some(line) {
                self.last_fetch_line = Some(line);
                let lat = self.mem_fetch(seq, rec.pc);
                if lat > self.cfg.mem.l1_hit {
                    // Miss: stall further fetch until the line returns.
                    // Instructions already taken from this line in the
                    // current cycle stay in the queue (a mild optimism,
                    // applied identically to every machine configuration).
                    self.fetch_ready_at = self.cycle + lat as u64;
                    if S::ATTR {
                        self.fetch_stall_cause = StallCause::IcacheFetch;
                        self.fetch_stall_pc = rec.pc;
                    }
                    if S::EVENTS {
                        sink.event(TraceEvent::CacheMiss {
                            cycle: self.cycle,
                            addr: rec.pc,
                            fetch: true,
                            write: false,
                            latency: lat,
                        });
                    }
                }
            }
            let was_ctrl = rec.class == OpClass::Ctrl;
            // Conditional branches consult the predictor; a misprediction
            // stalls fetch for the redirect penalty (the trace itself stays
            // on the committed path — wrong-path fetch is modelled as lost
            // fetch cycles, the standard trace-driven approximation).
            if let Some(taken) = rec.taken() {
                // Direction heuristics key on the branch displacement:
                // negative = backward (loop-closing).
                let penalty = self.branch_observe(seq, rec.pc, taken, rec.backward());
                if penalty > 0 {
                    let redirect_until = self.cycle + 1 + u64::from(penalty);
                    if S::ATTR && redirect_until > self.fetch_ready_at {
                        self.fetch_stall_cause = StallCause::BranchRedirect;
                        self.fetch_stall_pc = rec.pc;
                    }
                    self.fetch_ready_at = self.fetch_ready_at.max(redirect_until);
                    if S::EVENTS {
                        sink.event(TraceEvent::BranchRedirect {
                            cycle: self.cycle,
                            pc: rec.pc,
                            penalty,
                        });
                    }
                }
            }
            self.fetch_queue.push_back(rec);
            if was_ctrl {
                // One control transfer per fetch cycle (even perfectly
                // predicted, the fetch unit redirects at most once).
                break;
            }
        }
        Ok(())
    }

    /// Read-only view of the PFU statistics mid-run (used by tests).
    pub fn pfu_stats(&self) -> PfuStats {
        self.pfus.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::FuncCore;
    use t1000_asm::assemble;
    use t1000_isa::{FusionMap, Program};

    fn time_program(src: &str, cfg: CpuConfig) -> TimingStats {
        let p = assemble(src).unwrap();
        time(&p, &FusionMap::new(), cfg)
    }

    fn time(p: &Program, fusion: &FusionMap, cfg: CpuConfig) -> TimingStats {
        let mut core = FuncCore::new(p, fusion);
        let ooo = OooCore::new(cfg);
        ooo.run(&mut core).unwrap()
    }

    const EXIT: &str = "
    li $v0, 10
    syscall
";

    #[test]
    fn empty_exit_program_finishes() {
        let s = time_program(&format!("main:{EXIT}"), CpuConfig::baseline());
        assert_eq!(s.base_instructions, 2);
        assert!(s.cycles > 0);
    }

    /// A loop that executes `body` 500 times, so the I-cache is warm and
    /// IPC reflects the steady state.
    fn hot_loop(body: &str) -> String {
        format!("main:\n    li $s0, 500\nloop:\n{body}    addiu $s0, $s0, -1\n    bgtz $s0, loop\n{EXIT}")
    }

    #[test]
    fn independent_ops_reach_high_ipc() {
        // 16 independent single-cycle ops per iteration on a 4-wide machine.
        let mut body = String::new();
        for i in 0..16 {
            body.push_str(&format!("    addiu $t{}, $zero, {}\n", i % 4, i));
        }
        let s = time_program(&hot_loop(&body), CpuConfig::baseline());
        assert!(
            s.base_ipc > 2.5,
            "independent ALU stream should sustain near fetch width, got {}",
            s.base_ipc
        );
    }

    #[test]
    fn dependent_chain_is_latency_bound() {
        // A 16-deep loop-carried dependent chain: ≈1 IPC regardless of width.
        let mut body = String::new();
        for _ in 0..16 {
            body.push_str("    addu $t0, $t0, $t0\n");
        }
        let s = time_program(&hot_loop(&body), CpuConfig::baseline());
        assert!(
            s.base_ipc < 1.4,
            "dependent chain must be ≈1 IPC, got {}",
            s.base_ipc
        );
    }

    #[test]
    fn loads_cost_more_when_missing_cache() {
        // Stride through 64 KiB: every access a new line, many L1 misses.
        let miss = "
main:
    li   $t0, 0x10000000
    li   $t1, 2048
loop:
    lw   $t2, 0($t0)
    addiu $t0, $t0, 32
    addiu $t1, $t1, -1
    bgtz $t1, loop
";
        let hit = "
main:
    li   $t0, 0x10000000
    li   $t1, 2048
loop:
    lw   $t2, 0($t0)
    addiu $t1, $t1, -1
    bgtz $t1, loop
";
        let s_miss = time_program(&format!("{miss}{EXIT}"), CpuConfig::baseline());
        let s_hit = time_program(&format!("{hit}{EXIT}"), CpuConfig::baseline());
        assert!(
            s_miss.cycles > s_hit.cycles * 2,
            "streaming misses ({}) must be much slower than hits ({})",
            s_miss.cycles,
            s_hit.cycles
        );
        assert!(s_miss.mem.dl1.misses > 1000);
    }

    #[test]
    fn fusion_speeds_up_dependent_chains() {
        // Hot loop with a 4-op dependent chain; fusing it to one slot must
        // reduce cycles.
        let src = "
main:
    li   $s0, 5000
    li   $t0, 3
    li   $t1, 5
loop:
    sll  $t2, $t0, 4
    addu $t2, $t2, $t1
    xor  $t2, $t2, $t0
    srl  $t2, $t2, 1
    addu $t1, $t1, $t2
    addiu $s0, $s0, -1
    bgtz $s0, loop
    move $a0, $t1
    li   $v0, 30
    syscall
";
        let src = format!("{src}{EXIT}");
        let p = assemble(&src).unwrap();
        let base = time(&p, &FusionMap::new(), CpuConfig::baseline());

        // Fuse the 4 chain ops at loop start.
        let start = p.symbol("loop").unwrap();
        let skeleton: Vec<_> = (0..4).map(|k| p.instr_at(start + 4 * k).unwrap()).collect();
        let mut fusion = FusionMap::new();
        fusion.define(t1000_isa::ConfDef {
            conf: 0,
            skeleton,
            base_cycles: 4,
            pfu_latency: 1,
        });
        fusion.add_site(t1000_isa::FusedSite {
            pc: start,
            len: 4,
            conf: 0,
            inputs: vec![Reg::parse("t0").unwrap(), Reg::parse("t1").unwrap()],
            output: Reg::parse("t2").unwrap(),
        });
        let fused = time(&p, &fusion, CpuConfig::with_pfus(1));
        assert_eq!(fused.base_instructions, base.base_instructions);
        assert!(
            fused.cycles < base.cycles,
            "fused {} vs base {}",
            fused.cycles,
            base.cycles
        );
        assert_eq!(fused.pfu.reconfigurations, 1, "one config load, then hits");
        assert_eq!(fused.pfu.ext_executed, 5000);
    }

    #[test]
    fn thrashing_reconfiguration_hurts() {
        // Two alternating distinct sequences on ONE PFU: every execution
        // reconfigures; performance must collapse below baseline.
        let src = "
main:
    li   $s0, 2000
    li   $t0, 3
    li   $t1, 5
loop:
    sll  $t2, $t0, 4
    addu $t2, $t2, $t1
    xor  $t3, $t1, $t0
    srl  $t3, $t3, 2
    addu $t1, $t1, $t2
    addu $t1, $t1, $t3
    addiu $s0, $s0, -1
    bgtz $s0, loop
";
        let src = format!("{src}{EXIT}");
        let p = assemble(&src).unwrap();
        let base = time(&p, &FusionMap::new(), CpuConfig::baseline());

        let start = p.symbol("loop").unwrap();
        let mut fusion = FusionMap::new();
        for (conf, at) in [(0u16, start), (1u16, start + 8)] {
            let skeleton: Vec<_> = (0..2).map(|k| p.instr_at(at + 4 * k).unwrap()).collect();
            fusion.define(t1000_isa::ConfDef {
                conf,
                skeleton,
                base_cycles: 2,
                pfu_latency: 1,
            });
            fusion.add_site(t1000_isa::FusedSite {
                pc: at,
                len: 2,
                conf,
                inputs: vec![Reg::parse("t0").unwrap(), Reg::parse("t1").unwrap()],
                output: Reg::parse(if conf == 0 { "t2" } else { "t3" }).unwrap(),
            });
        }
        let thrash = time(&p, &fusion, CpuConfig::with_pfus(1).reconfig(10));
        assert!(
            thrash.cycles > base.cycles,
            "thrashing ({}) must be slower than baseline ({})",
            thrash.cycles,
            base.cycles
        );
        assert!(thrash.pfu.reconfigurations as f64 > 0.9 * 4000.0);

        // With two PFUs both configs stay resident: thrashing vanishes and
        // performance returns to (at least) baseline level. The fused
        // chains here are off the loop-carried critical path, so parity —
        // not speedup — is the expectation.
        let two = time(&p, &fusion, CpuConfig::with_pfus(2).reconfig(10));
        assert!(
            two.cycles * 2 < thrash.cycles,
            "resident configs ({}) must beat thrashing ({})",
            two.cycles,
            thrash.cycles
        );
        assert!(
            two.cycles as f64 <= base.cycles as f64 * 1.02,
            "two {} base {}",
            two.cycles,
            base.cycles
        );
        assert_eq!(two.pfu.reconfigurations, 2);
    }

    #[test]
    fn base_instruction_count_is_fusion_invariant() {
        let src =
            format!("main:\n    li $t0, 7\n    sll $t1, $t0, 2\n    addu $t1, $t1, $t0\n{EXIT}");
        let p = assemble(&src).unwrap();
        let base = time(&p, &FusionMap::new(), CpuConfig::baseline());
        let start = p.text_base + 4;
        let skeleton: Vec<_> = (0..2).map(|k| p.instr_at(start + 4 * k).unwrap()).collect();
        let mut fusion = FusionMap::new();
        fusion.define(t1000_isa::ConfDef {
            conf: 0,
            skeleton,
            base_cycles: 2,
            pfu_latency: 1,
        });
        fusion.add_site(t1000_isa::FusedSite {
            pc: start,
            len: 2,
            conf: 0,
            inputs: vec![Reg::parse("t0").unwrap()],
            output: Reg::parse("t1").unwrap(),
        });
        let fused = time(&p, &fusion, CpuConfig::with_pfus(1));
        assert_eq!(base.base_instructions, fused.base_instructions);
        assert_eq!(fused.slots, base.slots - 1);
    }

    #[test]
    fn bimodal_prediction_costs_cycles_on_hard_branches() {
        use crate::branch::BranchModel;
        // Data-dependent alternating branch inside a hot loop.
        let src = "
main:
    li   $s0, 500
    li   $t1, 0
loop:
    andi $t0, $s0, 1
    beq  $t0, $zero, even
    addiu $t1, $t1, 3
    j    next
even:
    addiu $t1, $t1, 5
next:
    addiu $s0, $s0, -1
    bgtz $s0, loop
    li   $v0, 10
    syscall
";
        let perfect = time_program(src, CpuConfig::baseline());
        let mut cfg = CpuConfig::baseline();
        cfg.branch = BranchModel::Bimodal {
            entries: 1024,
            penalty: 6,
        };
        let bimodal = time_program(src, cfg);
        assert_eq!(perfect.branch.mispredictions, 0);
        assert!(
            bimodal.branch.mispredictions > 200,
            "alternating branch must miss"
        );
        assert!(
            bimodal.cycles > perfect.cycles + 1000,
            "mispredictions must cost cycles ({} vs {})",
            bimodal.cycles,
            perfect.cycles
        );
    }

    #[test]
    fn bimodal_is_cheap_on_loop_branches() {
        use crate::branch::BranchModel;
        let src = &hot_loop(
            "    addu $t0, $t0, $t0
",
        );
        let perfect = time_program(src, CpuConfig::baseline());
        let mut cfg = CpuConfig::baseline();
        cfg.branch = BranchModel::Bimodal {
            entries: 1024,
            penalty: 6,
        };
        let bimodal = time_program(src, cfg);
        assert!(
            bimodal.branch.accuracy() > 0.95,
            "loop branches predict well"
        );
        assert!(
            bimodal.cycles < perfect.cycles + perfect.cycles / 10,
            "well-predicted loops should cost ≈ nothing extra"
        );
    }

    #[test]
    fn multicycle_ext_instructions_have_longer_latency() {
        // A fused chain with an artificially long PFU latency must be
        // slower than the same chain at 1 cycle when it is loop-carried.
        let src = "
main:
    li   $s0, 2000
    li   $t0, 3
    li   $t1, 5
loop:
    sll  $t2, $t1, 1
    xor  $t2, $t2, $t0
    andi $t2, $t2, 1023
    addu $t1, $t1, $t2
    andi $t1, $t1, 2047
    addiu $s0, $s0, -1
    bgtz $s0, loop
    li   $v0, 10
    syscall
";
        let p = assemble(src).unwrap();
        let start = p.symbol("loop").unwrap();
        let skeleton: Vec<_> = (0..5).map(|k| p.instr_at(start + 4 * k).unwrap()).collect();
        let timed = |latency: u32| {
            let mut fusion = FusionMap::new();
            fusion.define(t1000_isa::ConfDef {
                conf: 0,
                skeleton: skeleton.clone(),
                base_cycles: 5,
                pfu_latency: latency,
            });
            fusion.add_site(t1000_isa::FusedSite {
                pc: start,
                len: 5,
                conf: 0,
                inputs: vec![Reg::parse("t0").unwrap(), Reg::parse("t1").unwrap()],
                output: Reg::parse("t1").unwrap(),
            });
            time(&p, &fusion, CpuConfig::with_pfus(1))
        };
        let fast = timed(1);
        let slow = timed(3);
        assert!(
            slow.cycles + 100 >= fast.cycles + 2 * 2000,
            "2 extra latency cycles per iteration must show up ({} vs {})",
            slow.cycles,
            fast.cycles
        );
    }

    fn time_attr(
        p: &Program,
        fusion: &FusionMap,
        cfg: CpuConfig,
    ) -> (TimingStats, crate::observe::CycleAttribution) {
        let mut core = FuncCore::new(p, fusion);
        let mut sink = crate::observe::AttrCollector::new();
        let ooo = OooCore::new(cfg);
        let stats = ooo.run_with(&mut core, &mut sink).unwrap();
        (stats, sink.attr)
    }

    #[test]
    fn attribution_partitions_cycles_and_matches_unobserved_run() {
        let src = hot_loop("    addu $t0, $t0, $t0\n    lw $t1, 0($sp)\n");
        let p = assemble(&src).unwrap();
        let fusion = FusionMap::new();
        let plain = time(&p, &fusion, CpuConfig::baseline());
        let (observed, attr) = time_attr(&p, &fusion, CpuConfig::baseline());
        assert_eq!(
            observed.cycles, plain.cycles,
            "observation must not perturb timing"
        );
        assert_eq!(attr.total_cycles, observed.cycles);
        assert!(
            attr.checks_out(),
            "busy + stalls must equal total: {attr:?}"
        );
        assert!(attr.busy_cycles > 0);
    }

    #[test]
    fn dependent_chain_is_attributed_to_data_dependence() {
        use crate::observe::StallCause;
        // A serial multiply chain: each `mult` (3 cycles) feeds the next via
        // `mflo`, so most cycles commit nothing. Those zero-commit cycles
        // land on the operand-wait side of the taxonomy: DataDep while the
        // head waits for its producer, ExecLatency while the head itself is
        // still in the multiplier.
        let mut body = String::new();
        for _ in 0..8 {
            body.push_str("    mult $t0, $t0\n    mflo $t0\n");
        }
        let p = assemble(&hot_loop(&body)).unwrap();
        let (stats, attr) = time_attr(&p, &FusionMap::new(), CpuConfig::baseline());
        assert!(attr.checks_out());
        let chain = attr.stall(StallCause::DataDep) + attr.stall(StallCause::ExecLatency);
        assert!(
            chain > stats.cycles / 3,
            "a loop-carried multiply chain must stall on operands: {attr:?}"
        );
        assert!(attr.stall(StallCause::DataDep) > 0, "{attr:?}");
    }

    #[test]
    fn streaming_misses_are_attributed_to_memory() {
        use crate::observe::StallCause;
        let src = "
main:
    li   $t0, 0x10000000
    li   $t1, 2048
loop:
    lw   $t2, 0($t0)
    addu $t3, $t3, $t2
    addiu $t0, $t0, 32
    addiu $t1, $t1, -1
    bgtz $t1, loop
    li   $v0, 10
    syscall
";
        let p = assemble(src).unwrap();
        let (stats, attr) = time_attr(&p, &FusionMap::new(), CpuConfig::baseline());
        assert!(attr.checks_out());
        let mem_side = attr.stall(StallCause::MemData)
            + attr.stall(StallCause::WindowFull)
            + attr.stall(StallCause::LsqFull);
        assert!(
            mem_side > stats.cycles / 4,
            "D-cache misses must dominate the stall budget: {attr:?}"
        );
    }

    #[test]
    fn thrashing_is_attributed_to_reconfiguration() {
        use crate::observe::StallCause;
        // Same program as `thrashing_reconfiguration_hurts`: alternating
        // configurations on one PFU reconfigure every iteration.
        let src = "
main:
    li   $s0, 2000
    li   $t0, 3
    li   $t1, 5
loop:
    sll  $t2, $t0, 4
    addu $t2, $t2, $t1
    xor  $t3, $t1, $t0
    srl  $t3, $t3, 2
    addu $t1, $t1, $t2
    addu $t1, $t1, $t3
    addiu $s0, $s0, -1
    bgtz $s0, loop
";
        let src = format!("{src}{EXIT}");
        let p = assemble(&src).unwrap();
        let start = p.symbol("loop").unwrap();
        let mut fusion = FusionMap::new();
        for (conf, at) in [(0u16, start), (1u16, start + 8)] {
            let skeleton: Vec<_> = (0..2).map(|k| p.instr_at(at + 4 * k).unwrap()).collect();
            fusion.define(t1000_isa::ConfDef {
                conf,
                skeleton,
                base_cycles: 2,
                pfu_latency: 1,
            });
            fusion.add_site(t1000_isa::FusedSite {
                pc: at,
                len: 2,
                conf,
                inputs: vec![Reg::parse("t0").unwrap(), Reg::parse("t1").unwrap()],
                output: Reg::parse(if conf == 0 { "t2" } else { "t3" }).unwrap(),
            });
        }
        let (thrash, attr1) = time_attr(&p, &fusion, CpuConfig::with_pfus(1).reconfig(10));
        let (_, attr2) = time_attr(&p, &fusion, CpuConfig::with_pfus(2).reconfig(10));
        assert!(attr1.checks_out() && attr2.checks_out());
        assert!(
            attr1.stall(StallCause::Reconfig) > thrash.cycles / 3,
            "thrashing must show up as reconfiguration stalls: {attr1:?}"
        );
        assert!(
            attr2.stall(StallCause::Reconfig) < attr1.stall(StallCause::Reconfig) / 10,
            "resident configurations must erase the reconfiguration stalls \
             ({} vs {})",
            attr2.stall(StallCause::Reconfig),
            attr1.stall(StallCause::Reconfig)
        );
    }

    #[test]
    fn mispredictions_are_attributed_to_branch_redirects() {
        use crate::branch::BranchModel;
        use crate::observe::StallCause;
        let src = "
main:
    li   $s0, 500
    li   $t1, 0
loop:
    andi $t0, $s0, 1
    beq  $t0, $zero, even
    addiu $t1, $t1, 3
    j    next
even:
    addiu $t1, $t1, 5
next:
    addiu $s0, $s0, -1
    bgtz $s0, loop
    li   $v0, 10
    syscall
";
        let p = assemble(src).unwrap();
        let mut cfg = CpuConfig::baseline();
        cfg.branch = BranchModel::Bimodal {
            entries: 1024,
            penalty: 6,
        };
        let (stats, attr) = time_attr(&p, &FusionMap::new(), cfg);
        assert!(attr.checks_out());
        assert!(stats.branch.mispredictions > 200);
        assert!(
            attr.stall(StallCause::BranchRedirect) > stats.branch.mispredictions,
            "each redirect stalls fetch for several cycles: {attr:?}"
        );
    }

    #[test]
    fn per_pc_attribution_points_at_the_stalling_instruction() {
        let mut body = String::new();
        for _ in 0..8 {
            body.push_str("    mult $t0, $t0\n    mflo $t0\n");
        }
        let src = hot_loop(&body);
        let p = assemble(&src).unwrap();
        let fusion = FusionMap::new();
        let mut core = FuncCore::new(&p, &fusion);
        let mut sink = crate::observe::AttrCollector::with_per_pc();
        OooCore::new(CpuConfig::baseline())
            .run_with(&mut core, &mut sink)
            .unwrap();
        let per_pc = sink.per_pc().unwrap();
        let loop_start = p.symbol("loop").unwrap();
        let in_loop: u64 = per_pc
            .iter()
            .filter(|(&pc, _)| pc >= loop_start)
            .map(|(_, s)| s.iter().sum::<u64>())
            .sum();
        let total: u64 = per_pc.values().map(|s| s.iter().sum::<u64>()).sum();
        assert!(total > 0);
        assert!(
            in_loop * 10 > total * 9,
            "stalls must concentrate in the hot loop ({in_loop}/{total})"
        );
        assert!(
            total <= sink.attr.stall_cycles(),
            "per-PC counters are a breakdown of the aggregate"
        );
    }

    /// The same configuration with the replay fast path forced off.
    fn no_fast(mut cfg: CpuConfig) -> CpuConfig {
        cfg.fast_path = false;
        cfg
    }

    /// Asserts two runs produced bit-identical timing results (everything
    /// except the fast-path counters themselves).
    fn assert_identical(a: &TimingStats, b: &TimingStats) {
        assert_eq!(a.cycles, b.cycles, "cycles diverged");
        assert_eq!(a.slots, b.slots, "slots diverged");
        assert_eq!(a.base_instructions, b.base_instructions);
        assert_eq!(a.pfu, b.pfu, "PFU stats diverged");
        assert_eq!(a.mem, b.mem, "memory stats diverged");
        assert_eq!(a.fetch_stall_cycles, b.fetch_stall_cycles);
        assert_eq!(a.branch, b.branch, "branch stats diverged");
    }

    #[test]
    fn fast_path_engages_and_is_bit_identical() {
        // A mix of steady loops: ALU-bound, dependence-bound, and one
        // with a (cache-resident) load.
        let mut wide = String::new();
        for i in 0..12 {
            wide.push_str(&format!("    addiu $t{}, $zero, {}\n", i % 4, i));
        }
        for body in [
            "    addu $t0, $t0, $t0\n",
            wide.as_str(),
            "    lw $t1, 0($sp)\n    addu $t0, $t0, $t1\n",
            "    mult $t0, $t0\n    mflo $t0\n",
        ] {
            let p = assemble(&hot_loop(body)).unwrap();
            let fast = time(&p, &FusionMap::new(), CpuConfig::baseline());
            let slow = time(&p, &FusionMap::new(), no_fast(CpuConfig::baseline()));
            assert_identical(&fast, &slow);
            assert!(
                fast.fast.replayed_iters > 400,
                "a 500-iteration steady loop must mostly replay, got {:?}",
                fast.fast
            );
            assert_eq!(fast.fast.steady_loops, fast.fast.deopts);
            assert_eq!(slow.fast, crate::FastPathStats::default());
        }
    }

    #[test]
    fn fast_path_is_bit_identical_with_pfus() {
        // The fused hot loop from `fusion_speeds_up_dependent_chains`:
        // steady state has resident configurations and PFU hits.
        let src = "
main:
    li   $s0, 5000
    li   $t0, 3
    li   $t1, 5
loop:
    sll  $t2, $t0, 4
    addu $t2, $t2, $t1
    xor  $t2, $t2, $t0
    srl  $t2, $t2, 1
    addu $t1, $t1, $t2
    addiu $s0, $s0, -1
    bgtz $s0, loop
";
        let src = format!("{src}{EXIT}");
        let p = assemble(&src).unwrap();
        let start = p.symbol("loop").unwrap();
        let skeleton: Vec<_> = (0..4).map(|k| p.instr_at(start + 4 * k).unwrap()).collect();
        let mut fusion = FusionMap::new();
        fusion.define(t1000_isa::ConfDef {
            conf: 0,
            skeleton,
            base_cycles: 4,
            pfu_latency: 1,
        });
        fusion.add_site(t1000_isa::FusedSite {
            pc: start,
            len: 4,
            conf: 0,
            inputs: vec![Reg::parse("t0").unwrap(), Reg::parse("t1").unwrap()],
            output: Reg::parse("t2").unwrap(),
        });
        let fast = time(&p, &fusion, CpuConfig::with_pfus(1));
        let slow = time(&p, &fusion, no_fast(CpuConfig::with_pfus(1)));
        assert_identical(&fast, &slow);
        assert!(fast.fast.replayed_iters > 4000, "{:?}", fast.fast);
    }

    #[test]
    fn fast_path_is_bit_identical_under_bimodal_prediction() {
        use crate::branch::BranchModel;
        // The loop branch saturates its counter; the steady state is
        // redirect-free and must converge.
        let src = hot_loop("    addu $t0, $t0, $t0\n");
        let p = assemble(&src).unwrap();
        let mut cfg = CpuConfig::baseline();
        cfg.branch = BranchModel::Bimodal {
            entries: 1024,
            penalty: 6,
        };
        let fast = time(&p, &FusionMap::new(), cfg);
        let slow = time(&p, &FusionMap::new(), no_fast(cfg));
        assert_identical(&fast, &slow);
        assert!(fast.fast.replayed_iters > 400, "{:?}", fast.fast);
    }

    #[test]
    fn fast_path_preserves_cycle_attribution() {
        let src = hot_loop("    addu $t0, $t0, $t0\n    lw $t1, 0($sp)\n");
        let p = assemble(&src).unwrap();
        let fusion = FusionMap::new();
        let (fast, fast_attr) = time_attr(&p, &fusion, CpuConfig::baseline());
        let (slow, slow_attr) = time_attr(&p, &fusion, no_fast(CpuConfig::baseline()));
        assert_identical(&fast, &slow);
        assert!(fast.fast.replayed_iters > 400, "{:?}", fast.fast);
        assert!(fast_attr.checks_out());
        assert_eq!(fast_attr, slow_attr, "per-cause attribution diverged");
    }

    #[test]
    fn fast_path_respects_the_cycle_limit() {
        let src = hot_loop("    addu $t0, $t0, $t0\n");
        let p = assemble(&src).unwrap();
        let fusion = FusionMap::new();
        let limited = |fast_path: bool| {
            let mut cfg = CpuConfig::baseline();
            cfg.fast_path = fast_path;
            cfg.max_cycles = 300;
            let mut core = FuncCore::new(&p, &fusion);
            let mut sink = crate::observe::AttrCollector::new();
            let err = OooCore::new(cfg)
                .run_with(&mut core, &mut sink)
                .unwrap_err();
            (err, sink.attr)
        };
        let (fast_err, fast_attr) = limited(true);
        let (slow_err, slow_attr) = limited(false);
        assert_eq!(fast_err, ExecError::CycleLimit(300));
        assert_eq!(fast_err, slow_err);
        assert_eq!(
            fast_attr, slow_attr,
            "attribution up to the fuel limit must match"
        );
    }

    #[test]
    fn fast_path_deopts_on_mid_loop_disturbance_and_reconverges() {
        // A fused hot loop whose configuration is fault-injected midway:
        // the PFU reload (and subsequent scalar fallback) perturbs the
        // steady state; replay must de-opt, resimulate the disturbance
        // accurately, converge again, and still match the slow path bit
        // for bit.
        let src = "
main:
    li   $s0, 5000
    li   $t0, 3
    li   $t1, 5
loop:
    sll  $t2, $t0, 4
    addu $t2, $t2, $t1
    xor  $t2, $t2, $t0
    srl  $t2, $t2, 1
    addu $t1, $t1, $t2
    addiu $s0, $s0, -1
    bgtz $s0, loop
";
        let src = format!("{src}{EXIT}");
        let p = assemble(&src).unwrap();
        let start = p.symbol("loop").unwrap();
        let skeleton: Vec<_> = (0..4).map(|k| p.instr_at(start + 4 * k).unwrap()).collect();
        let mut fusion = FusionMap::new();
        fusion.define(t1000_isa::ConfDef {
            conf: 0,
            skeleton,
            base_cycles: 4,
            pfu_latency: 1,
        });
        fusion.add_site(t1000_isa::FusedSite {
            pc: start,
            len: 4,
            conf: 0,
            inputs: vec![Reg::parse("t0").unwrap(), Reg::parse("t1").unwrap()],
            output: Reg::parse("t2").unwrap(),
        });
        let run = |cfg: CpuConfig| {
            let mut core = FuncCore::new(&p, &fusion);
            let mut injected = false;
            OooCore::new(cfg)
                .run(|| {
                    // Deep in the steady state, fault the configuration:
                    // the next fused site falls back to scalar execution.
                    if !injected && core.icount > 10_000 {
                        injected = true;
                        core.inject_conf_faults([0u16]);
                    }
                    core.step()
                })
                .unwrap()
        };
        let fast = run(CpuConfig::with_pfus(1));
        let slow = run(no_fast(CpuConfig::with_pfus(1)));
        assert_identical(&fast, &slow);
        assert!(
            fast.fast.deopts >= 2,
            "the disturbance must force an extra de-opt/re-converge cycle: {:?}",
            fast.fast
        );
        assert!(fast.fast.replayed_iters > 3000, "{:?}", fast.fast);
    }

    #[test]
    fn event_sinks_disable_the_fast_path() {
        struct EventSink(Vec<TraceEvent>);
        impl TraceSink for EventSink {
            const EVENTS: bool = true;
            const ATTR: bool = false;
            fn event(&mut self, e: TraceEvent) {
                self.0.push(e);
            }
        }
        let src = hot_loop("    addu $t0, $t0, $t0\n");
        let p = assemble(&src).unwrap();
        let fusion = FusionMap::new();
        let mut core = FuncCore::new(&p, &fusion);
        let mut sink = EventSink(Vec::new());
        let stats = OooCore::new(CpuConfig::baseline())
            .run_with(&mut core, &mut sink)
            .unwrap();
        assert_eq!(
            stats.fast,
            crate::FastPathStats::default(),
            "events need absolute cycles; replay must stand down"
        );
        let plain = time(&p, &FusionMap::new(), CpuConfig::baseline());
        assert_eq!(stats.cycles, plain.cycles);
    }

    #[test]
    fn same_cycle_wakeups_match_the_window_scan() {
        // A fused site with a 0-cycle PFU latency feeds an ALU chain, and
        // back-to-back loads and stores each wait only on their
        // predecessor's issue: consumers of both kinds become ready in
        // the cycle their producer issues. Cycle counts and attribution
        // were captured from the whole-window issue scan.
        let src = "
main:
    li   $s0, 300
    li   $t0, 3
    li   $t1, 5
    la   $s1, buf
loop:
    sll  $t2, $t0, 4
    addu $t2, $t2, $t1
    xor  $t2, $t2, $t0
    addu $t3, $t2, $t1
    addu $t4, $t3, $t2
    sw   $t4, 0($s1)
    lw   $t5, 4($s1)
    sw   $t5, 8($s1)
    lw   $t6, 0($s1)
    addu $t1, $t1, $t6
    andi $t1, $t1, 1023
    addiu $s0, $s0, -1
    bgtz $s0, loop
    li   $v0, 10
    syscall
.data
buf: .space 64
";
        let p = assemble(src).unwrap();
        let start = p.symbol("loop").unwrap();
        let skeleton: Vec<_> = (0..3).map(|k| p.instr_at(start + 4 * k).unwrap()).collect();
        let mut fusion = FusionMap::new();
        fusion.define(t1000_isa::ConfDef {
            conf: 0,
            skeleton,
            base_cycles: 3,
            pfu_latency: 0,
        });
        fusion.add_site(t1000_isa::FusedSite {
            pc: start,
            len: 3,
            conf: 0,
            inputs: vec![Reg::parse("t0").unwrap(), Reg::parse("t1").unwrap()],
            output: Reg::parse("t2").unwrap(),
        });
        // (issue_width, cycles, busy cycles, stalls by cause)
        let golden = [
            (1, 3426, 3265, [72, 0, 2, 7, 0, 4, 0, 57, 19, 0]),
            (2, 1935, 1772, [74, 0, 2, 7, 0, 4, 0, 57, 19, 0]),
            (4, 1935, 1771, [75, 0, 2, 7, 0, 4, 0, 57, 19, 0]),
        ];
        for (width, cycles, busy, stalls) in golden {
            for fast_path in [false, true] {
                let mut cfg = CpuConfig::with_pfus(1);
                cfg.issue_width = width;
                cfg.fast_path = fast_path;
                let (stats, attr) = time_attr(&p, &fusion, cfg);
                let ctx = format!("issue_width {width}, fast_path {fast_path}");
                assert_eq!(stats.cycles, cycles, "{ctx}");
                assert_eq!(attr.busy_cycles, busy, "{ctx}");
                assert_eq!(attr.stalls, stalls, "{ctx}");
            }
        }
    }

    #[test]
    fn narrower_machine_is_slower() {
        let mut body = String::new();
        for i in 0..12 {
            body.push_str(&format!("    addiu $t{}, $zero, 1\n", i % 4));
        }
        let src = hot_loop(&body);
        let wide = time_program(&src, CpuConfig::baseline());
        let narrow = {
            let mut c = CpuConfig::baseline();
            c.fetch_width = 1;
            c.dispatch_width = 1;
            c.issue_width = 1;
            c.commit_width = 1;
            time_program(&src, c)
        };
        assert!(
            narrow.cycles > wide.cycles * 2,
            "narrow {} wide {}",
            narrow.cycles,
            wide.cycles
        );
    }
}
