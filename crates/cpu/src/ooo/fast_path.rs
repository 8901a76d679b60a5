//! Steady-state hot-loop replay fast path.
//!
//! The paper's workloads spend almost all of their time in deterministic
//! hot loops, yet the cycle-level model re-simulates every pipeline stage
//! on every iteration. This module detects when a loop's per-iteration
//! behaviour has *converged* — the machine state at two consecutive
//! iteration boundaries is identical up to uniform shifts of the cycle,
//! sequence-number and cache-tick clocks, and the iteration was
//! *event-free* (no cache/TLB misses, no PFU configuration loads or
//! evictions, no branch redirects) — and then replays the recorded
//! per-iteration deltas instead of simulating stages, de-opting back to
//! the cycle-accurate path the moment the instruction stream deviates
//! from the recorded segment.
//!
//! # Why this is bit-identical
//!
//! The timing model is a deterministic function of (a) its own state and
//! (b) the incoming dynamic-record stream; pulling a record has no timing
//! side effects (all timing mutation happens inside the pipeline stages).
//! If the state at boundary *B* equals the state at boundary *A* advanced
//! by one iteration's uniform clock shifts ([`Snapshot`] comparison, plus
//! the component checks `MemHierarchy::steady_eq`, `PfuArray::steady_eq`
//! and `Predictor::steady_eq`), and the records pulled after *B* equal
//! the recorded segment *A→B* (verified record-by-record during replay;
//! a [`DynInstr`] holds only timing-relevant fields), then by
//! induction the simulation from *B* reproduces the simulation from *A*
//! shifted by one period — so cycles, every stall-cause classification,
//! and all statistics advance by exactly the recorded deltas. The moment
//! a pulled record deviates (loop exit, a faulted configuration
//! falling back to scalar code, any control change), the pulled records
//! are queued for the accurate fetch path and the frozen state is
//! advanced by the replayed iteration count ([`OooCore`] fix-up below),
//! bit-identically to having simulated them.
//!
//! The fast path is disabled under event-tracing sinks
//! ([`TraceSink::EVENTS`]): trace events carry absolute cycle numbers,
//! and a replayed iteration would have to rewrite them; full-fidelity
//! tracing wants the accurate path anyway.
//!
//! [`TraceSink::EVENTS`]: crate::observe::TraceSink::EVENTS

use super::{EntryState, OooCore, RuuEntry};
use crate::branch::Predictor;
use crate::func::DynInstr;
use crate::observe::{CycleClass, StallCause};
use crate::pfu::PfuArray;
use std::collections::{HashMap, VecDeque};
use t1000_mem::MemHierarchy;

/// Boundary visits before a loop is considered hot enough to observe.
const HOT_THRESHOLD: u32 = 3;
/// Consecutive non-converging iterations before an observation is
/// abandoned (each costs a state snapshot and comparison).
const MAX_SLIDES: u32 = 8;
/// Cap on recorded records per iteration; longer loop bodies stay on the
/// accurate path.
const MAX_SEG: usize = 65_536;
/// Cap on recorded cycle classifications per iteration.
const MAX_CLASSES: usize = 262_144;
/// Cap on distinct loop headers tracked.
const MAX_LOOPS: usize = 512;

/// Fast-path effectiveness counters, reported in
/// [`TimingStats`](super::TimingStats). All zero when the fast path is
/// disabled (or never converged); the timing results themselves are
/// bit-identical either way.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FastPathStats {
    /// Times a loop converged and entered steady-state replay.
    pub steady_loops: u64,
    /// Loop iterations replayed from recorded deltas instead of being
    /// simulated stage-by-stage.
    pub replayed_iters: u64,
    /// Times replay de-opted back to the cycle-accurate path.
    pub deopts: u64,
}

/// A producer reference canonicalized against the window head: committed
/// producers all behave identically (their results are available, and
/// `entry()` resolves them to `None`), so only in-window offsets matter.
#[derive(Clone, Copy, PartialEq)]
enum SeqRef {
    None,
    Committed,
    Rel(u64),
}

fn seq_ref(seq: Option<u64>, head: u64) -> SeqRef {
    match seq {
        None => SeqRef::None,
        Some(s) if s < head => SeqRef::Committed,
        Some(s) => SeqRef::Rel(s - head),
    }
}

/// Canonical form of one RUU entry at a boundary.
struct EntrySnap {
    rec: DynInstr,
    done: bool,
    deps: [SeqRef; 3],
    prev_mem: SeqRef,
    pfu_ready_at: u64,
    complete_at: u64,
    issued_at: u64,
}

impl EntrySnap {
    fn of(e: &RuuEntry, head: u64) -> EntrySnap {
        EntrySnap {
            rec: e.rec,
            done: e.state == EntryState::Done,
            deps: [
                seq_ref(e.deps[0], head),
                seq_ref(e.deps[1], head),
                seq_ref(e.deps[2], head),
            ],
            prev_mem: seq_ref(e.prev_mem, head),
            pfu_ready_at: e.pfu_ready_at,
            complete_at: e.complete_at,
            issued_at: e.issued_at,
        }
    }

    /// Does `e` (at a boundary `dc` cycles later, with snapshot cycle
    /// `stale`) equal this snapshot up to the uniform shifts?
    fn matches(&self, e: &RuuEntry, head: u64, dc: u64, stale: u64) -> bool {
        let ts = |t: u64, b: u64| t == b + dc || (t == b && b <= stale);
        self.done == (e.state == EntryState::Done)
            && self.deps[0] == seq_ref(e.deps[0], head)
            && self.deps[1] == seq_ref(e.deps[1], head)
            && self.deps[2] == seq_ref(e.deps[2], head)
            && self.prev_mem == seq_ref(e.prev_mem, head)
            && ts(e.pfu_ready_at, self.pfu_ready_at)
            && ts(e.complete_at, self.complete_at)
            && ts(e.issued_at, self.issued_at)
            && self.rec == e.rec
    }
}

/// Full machine state captured at an iteration boundary (the top of the
/// cycle after fetch pulled a taken branch).
struct Snapshot {
    cycle: u64,
    next_seq: u64,
    slots: u64,
    base_instructions: u64,
    fetch_stall_cycles: u64,
    lsq_used: usize,
    dispatch_ready_at: u64,
    fetch_ready_at: u64,
    fetch_stall_cause: StallCause,
    fetch_stall_pc: u32,
    last_fetch_line: Option<u32>,
    window: Vec<EntrySnap>,
    fetch_queue: Vec<DynInstr>,
    reg_producer: [SeqRef; 32],
    hilo_producer: SeqRef,
    last_mem_seq: SeqRef,
    mem: MemHierarchy,
    pfus: PfuArray,
    predictor: Predictor,
}

/// Per-iteration deltas of a converged loop.
struct Deltas {
    dc: u64,
    dseq: u64,
    dslots: u64,
    dbase: u64,
    dfsc: u64,
}

/// An observation in progress: a snapshot at boundary *A* plus the
/// record segment and cycle classifications accumulated since.
struct Obs {
    loop_pc: u32,
    slides: u32,
    overflow: bool,
    snap: Box<Snapshot>,
    seg: Vec<DynInstr>,
    classes: Vec<CycleClass>,
}

/// Hotness and back-off bookkeeping for one loop-closing branch PC.
struct LoopInfo {
    boundaries: u32,
    failures: u32,
    next_observe_at: u32,
}

/// Fast-path controller state embedded in [`OooCore`].
pub(crate) struct FastPath {
    /// Master switch ([`CpuConfig::fast_path`], and off under
    /// event-tracing sinks).
    ///
    /// [`CpuConfig::fast_path`]: crate::config::CpuConfig::fast_path
    pub(super) enabled: bool,
    /// Loop-closing branch PC seen by fetch last cycle, if any.
    pub(super) pending_boundary: Option<u32>,
    /// Records pulled from the source during a failed replay, to be
    /// consumed by the accurate fetch path before touching the source.
    pub(super) pending: VecDeque<DynInstr>,
    /// The source returned `None` during replay; never call it again.
    pub(super) done: bool,
    loops: HashMap<u32, LoopInfo>,
    active: Option<Obs>,
    /// The last discarded observation's snapshot, whose buffers the next
    /// snapshot reuses.
    spare: Option<Box<Snapshot>>,
    stats: FastPathStats,
}

impl FastPath {
    pub(super) fn new(enabled: bool) -> FastPath {
        FastPath {
            enabled,
            pending_boundary: None,
            pending: VecDeque::new(),
            done: false,
            loops: HashMap::new(),
            active: None,
            spare: None,
            stats: FastPathStats::default(),
        }
    }

    pub(super) fn stats(&self) -> FastPathStats {
        self.stats
    }

    /// Records one pulled dynamic record into the active observation and
    /// flags iteration boundaries (any taken branch; non-loop branches
    /// simply never get hot).
    pub(super) fn saw_record(&mut self, rec: &DynInstr) {
        if let Some(obs) = self.active.as_mut() {
            if obs.seg.len() >= MAX_SEG {
                obs.overflow = true;
            } else {
                obs.seg.push(*rec);
            }
        }
        if rec.taken() == Some(true) {
            self.pending_boundary = Some(rec.pc);
        }
    }

    /// Records one cycle classification into the active observation.
    pub(super) fn saw_class(&mut self, class: CycleClass) {
        if let Some(obs) = self.active.as_mut() {
            if obs.classes.len() >= MAX_CLASSES {
                obs.overflow = true;
            } else {
                obs.classes.push(class);
            }
        }
    }

    /// Abandons the active observation and backs off its loop
    /// exponentially, so a loop that keeps almost-converging does not
    /// keep paying for snapshots.
    fn fail(&mut self, loop_pc: u32) {
        self.spare = self.active.take().map(|obs| obs.snap);
        if let Some(info) = self.loops.get_mut(&loop_pc) {
            info.failures += 1;
            let backoff = 16u32 << info.failures.min(10);
            info.next_observe_at = info.boundaries.saturating_add(backoff);
        }
    }
}

impl OooCore {
    /// Fetch's view of the record stream: records queued by a de-opted
    /// replay drain first, then the live source. Also feeds the active
    /// observation and flags iteration boundaries.
    pub(super) fn next_record<E>(
        &mut self,
        source: &mut impl FnMut() -> Result<Option<DynInstr>, E>,
    ) -> Result<Option<DynInstr>, E> {
        if let Some(rec) = self.fast.pending.pop_front() {
            if self.fast.enabled {
                self.fast.saw_record(&rec);
            }
            return Ok(Some(rec));
        }
        if self.fast.done {
            return Ok(None);
        }
        let rec = source()?;
        match &rec {
            Some(rec) if self.fast.enabled => self.fast.saw_record(rec),
            Some(_) => {}
            None => self.fast.done = true,
        }
        Ok(rec)
    }

    /// Handles an iteration boundary: advance hotness counters, start or
    /// continue an observation, and — once converged — replay iterations
    /// until the stream deviates.
    pub(super) fn fast_boundary<E, S: crate::observe::TraceSink>(
        &mut self,
        loop_pc: u32,
        source: &mut impl FnMut() -> Result<Option<DynInstr>, E>,
        sink: &mut S,
    ) -> Result<(), E> {
        match self.fast.active.as_ref().map(|o| (o.loop_pc, o.overflow)) {
            Some((pc, overflow)) if pc == loop_pc => {
                if overflow {
                    self.fast.fail(loop_pc);
                } else if let Some(d) = self.check_steady() {
                    self.replay::<E, S>(d, source, sink)?;
                } else {
                    self.slide(loop_pc);
                }
            }
            Some(_) => {
                // Another loop's boundary while observing (e.g. a nested
                // inner loop): just count it.
                self.bump_loop(loop_pc);
            }
            None => {
                if self.bump_loop(loop_pc) {
                    let spare = self.fast.spare.take();
                    let snap = self.snapshot(spare);
                    self.fast.active = Some(Obs {
                        loop_pc,
                        slides: 0,
                        overflow: false,
                        snap,
                        seg: Vec::new(),
                        classes: Vec::new(),
                    });
                }
            }
        }
        Ok(())
    }

    /// Counts a boundary visit; returns true when the loop is due for
    /// observation.
    fn bump_loop(&mut self, loop_pc: u32) -> bool {
        if self.fast.loops.len() >= MAX_LOOPS && !self.fast.loops.contains_key(&loop_pc) {
            return false;
        }
        let info = self.fast.loops.entry(loop_pc).or_insert(LoopInfo {
            boundaries: 0,
            failures: 0,
            next_observe_at: HOT_THRESHOLD,
        });
        info.boundaries = info.boundaries.saturating_add(1);
        info.boundaries >= info.next_observe_at
    }

    /// Re-anchors the active observation at the current boundary (the
    /// previous iteration had not converged yet), or abandons it after
    /// too many attempts.
    fn slide(&mut self, loop_pc: u32) {
        let slides = match self.fast.active.as_mut() {
            Some(obs) => {
                obs.slides += 1;
                obs.slides
            }
            None => return,
        };
        if slides > MAX_SLIDES {
            self.fast.fail(loop_pc);
            return;
        }
        if let Some(mut obs) = self.fast.active.take() {
            obs.snap = self.snapshot(Some(obs.snap));
            obs.seg.clear();
            obs.classes.clear();
            self.fast.active = Some(obs);
        }
    }

    /// Captures the current boundary state, reusing the buffers of `old`
    /// (a discarded snapshot) when there is one.
    fn snapshot(&self, old: Option<Box<Snapshot>>) -> Box<Snapshot> {
        let head = self.head_seq;
        let mut reg_producer = [SeqRef::None; 32];
        for (r, p) in reg_producer.iter_mut().zip(&self.reg_producer) {
            *r = seq_ref(*p, head);
        }
        let (mut window, mut fetch_queue, mem) = match old {
            Some(old) => {
                let Snapshot {
                    mut window,
                    mut fetch_queue,
                    mut mem,
                    ..
                } = *old;
                window.clear();
                fetch_queue.clear();
                mem.clone_from(&self.mem);
                (window, fetch_queue, mem)
            }
            None => (Vec::new(), Vec::new(), self.mem.clone()),
        };
        window.extend(self.window.iter().map(|e| EntrySnap::of(e, head)));
        fetch_queue.extend(self.fetch_queue.iter().copied());
        Box::new(Snapshot {
            cycle: self.cycle,
            next_seq: self.next_seq,
            slots: self.slots,
            base_instructions: self.base_instructions,
            fetch_stall_cycles: self.fetch_stall_cycles,
            lsq_used: self.lsq_used,
            dispatch_ready_at: self.dispatch_ready_at,
            fetch_ready_at: self.fetch_ready_at,
            fetch_stall_cause: self.fetch_stall_cause,
            fetch_stall_pc: self.fetch_stall_pc,
            last_fetch_line: self.last_fetch_line,
            window,
            fetch_queue,
            reg_producer,
            hilo_producer: seq_ref(self.hilo_producer, head),
            last_mem_seq: seq_ref(self.last_mem_seq, head),
            mem,
            pfus: self.pfus.clone(),
            predictor: self.predictor.clone(),
        })
    }

    /// Compares the live state against the active observation's snapshot
    /// modulo the uniform clock shifts. `Some(deltas)` means the loop has
    /// converged and the deltas describe one full iteration.
    fn check_steady(&self) -> Option<Deltas> {
        let obs = self.fast.active.as_ref()?;
        let s = &obs.snap;
        if self.drained || self.fast.done || !self.fast.pending.is_empty() || obs.seg.is_empty() {
            return None;
        }
        let dc = self.cycle.checked_sub(s.cycle)?;
        let dseq = self.next_seq.checked_sub(s.next_seq)?;
        if dc == 0 || dseq == 0 {
            return None;
        }
        let stale = s.cycle;
        let ts = |t: u64, b: u64| t == b + dc || (t == b && b <= stale);
        let head = self.head_seq;
        let ok = self.window.len() == s.window.len()
            && self.fetch_queue.len() == s.fetch_queue.len()
            && self.lsq_used == s.lsq_used
            && ts(self.dispatch_ready_at, s.dispatch_ready_at)
            && ts(self.fetch_ready_at, s.fetch_ready_at)
            && self.fetch_stall_cause == s.fetch_stall_cause
            && self.fetch_stall_pc == s.fetch_stall_pc
            && self.last_fetch_line == s.last_fetch_line
            && seq_ref(self.hilo_producer, head) == s.hilo_producer
            && seq_ref(self.last_mem_seq, head) == s.last_mem_seq
            && self
                .reg_producer
                .iter()
                .zip(&s.reg_producer)
                .all(|(p, b)| seq_ref(*p, head) == *b)
            && self
                .window
                .iter()
                .zip(&s.window)
                .all(|(e, b)| b.matches(e, head, dc, stale))
            && self.fetch_queue.iter().eq(&s.fetch_queue)
            && self.mem.steady_eq(&s.mem)
            && self.pfus.steady_eq(&s.pfus, dc, stale)
            && self.predictor.steady_eq(&s.predictor);
        if !ok {
            return None;
        }
        Some(Deltas {
            dc,
            dseq,
            dslots: self.slots - s.slots,
            dbase: self.base_instructions - s.base_instructions,
            dfsc: self.fetch_stall_cycles - s.fetch_stall_cycles,
        })
    }

    /// Replays whole iterations by applying the recorded deltas, pulling
    /// and verifying one segment of records per iteration, until a record
    /// deviates from the recorded keys (or the stream/fuel runs out).
    /// Then fixes the frozen state up by the replayed period count and
    /// de-opts to the accurate path.
    fn replay<E, S: crate::observe::TraceSink>(
        &mut self,
        d: Deltas,
        source: &mut impl FnMut() -> Result<Option<DynInstr>, E>,
        sink: &mut S,
    ) -> Result<(), E> {
        let Some(obs) = self.fast.active.take() else {
            return Ok(());
        };
        self.fast.stats.steady_loops += 1;
        debug_assert!(!S::ATTR || obs.classes.len() as u64 == d.dc);
        let mut iters = 0u64;
        'replay: loop {
            // Fuel: stop one iteration short of the cycle limit so the
            // accurate path reaches `ExecError::CycleLimit` at the exact
            // cycle (and with the exact per-cycle classifications) it
            // would have without the fast path.
            if self.cfg.max_cycles != 0 && self.cycle + d.dc > self.cfg.max_cycles {
                break;
            }
            for expect in &obs.seg {
                let rec = if self.fast.done { None } else { source()? };
                let Some(rec) = rec else {
                    self.fast.done = true;
                    break 'replay;
                };
                let matches = rec == *expect;
                self.fast.pending.push_back(rec);
                if !matches {
                    break 'replay;
                }
            }
            // A full iteration verified: its records are consumed (their
            // architectural effects already happened in the source) and
            // the deltas stand in for simulating it.
            self.fast.pending.clear();
            iters += 1;
            self.cycle += d.dc;
            self.slots += d.dslots;
            self.base_instructions += d.dbase;
            self.fetch_stall_cycles += d.dfsc;
            if S::ATTR {
                for class in &obs.classes {
                    sink.cycle(*class);
                }
            }
        }
        self.fast.stats.replayed_iters += iters;
        self.fast.stats.deopts += 1;
        if iters > 0 {
            self.fast_forward_state(&obs.snap, &d, iters);
        }
        self.fast.spare = Some(obs.snap);
        if let Some(info) = self.fast.loops.get_mut(&obs.loop_pc) {
            // The loop is known-good: re-observe at the next boundary
            // (one accurately-simulated iteration re-anchors the snapshot
            // after whatever disturbance caused the de-opt).
            info.failures = 0;
            info.next_observe_at = info.boundaries;
        }
        Ok(())
    }

    /// Advances the frozen boundary state by `iters` replayed periods —
    /// bit-identical (for all future-relevant state) to having simulated
    /// them: recent clock values shift uniformly, stale ones (already in
    /// the past at the snapshot) stay, committed sequence numbers stay
    /// committed, and the component models advance via their own
    /// `fast_forward`.
    fn fast_forward_state(&mut self, snap: &Snapshot, d: &Deltas, iters: u64) {
        let shift_c = d.dc * iters;
        let shift_seq = d.dseq * iters;
        let stale = snap.cycle;
        let head = self.head_seq;
        let bump = |s: &mut Option<u64>| {
            if let Some(v) = s {
                if *v >= head {
                    *v += shift_seq;
                }
            }
        };
        for e in self.window.iter_mut() {
            for dep in e.deps.iter_mut() {
                bump(dep);
            }
            bump(&mut e.prev_mem);
            if e.pfu_ready_at > stale {
                e.pfu_ready_at += shift_c;
            }
            if e.complete_at > stale {
                e.complete_at += shift_c;
            }
            if e.issued_at > stale {
                e.issued_at += shift_c;
            }
        }
        for p in self.reg_producer.iter_mut() {
            bump(p);
        }
        bump(&mut self.hilo_producer);
        bump(&mut self.last_mem_seq);
        self.head_seq += shift_seq;
        self.next_seq += shift_seq;
        if self.dispatch_ready_at > stale {
            self.dispatch_ready_at += shift_c;
        }
        if self.fetch_ready_at > stale {
            self.fetch_ready_at += shift_c;
        }
        self.mem.fast_forward(&snap.mem, iters);
        self.pfus.fast_forward(&snap.pfus, iters, d.dc, stale);
        self.predictor.fast_forward(&snap.predictor, iters);
        // The scheduler's wakeup state is not snapshotted: the window
        // determines it, so it is derived afresh from the shifted window.
        self.rebuild_wakeup();
    }
}
