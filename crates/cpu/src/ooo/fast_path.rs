//! Pipeline-memo replay fast path.
//!
//! The paper's workloads spend almost all of their time in loops whose
//! pipeline behaviour repeats, even when their memory addresses,
//! branch directions or PFU residency do not. This module memoizes the
//! *pipeline* only, after FastSim (Schnarr & Larus, "Fast Out-of-Order
//! Processor Simulation Using Memoization", ASPLOS 1998). The caches,
//! TLBs, the PFU array and the branch predictor are still called on
//! every access, with the real arguments, in the order the cycle-accurate
//! path calls them. Their state and statistics are therefore exact by
//! construction, and nothing about them is snapshotted or compared.
//!
//! # The memo
//!
//! * **Boundary.** Every taken branch that fetch pulls ends a *segment*;
//!   the boundary is the top of the next cycle. A segment's records are
//!   the ones pulled after the previous taken branch, up to and including
//!   this one, so where a segment ends depends only on the record stream.
//! * **Node.** The canonical pipeline state at a boundary ([`Canon`]):
//!   the RUU window relative to its head, the fetch queue, the register,
//!   HI/LO and memory producers as window offsets, the LSQ occupancy,
//!   dispatch and fetch hold times as offsets from the cycle, a pending
//!   fetch stall's cause and PC, the last fetched I-line and the drained
//!   flag. Records appear without their memory addresses
//!   ([`DynInstr::shape`]). The wakeup lists are derived from the window
//!   (`OooCore::rebuild_wakeup`) and are not part of the key. Lookups hash
//!   the key but always compare it in full.
//! * **Edge.** One segment out of a node: its address-free records (each
//!   distinct sequence is its own edge) and a trie of the component calls
//!   the accurate path made while simulating it. A call is named by its
//!   kind, the index of its record among those in flight at the node
//!   followed by the segment's, and its cycle offset; the trie branches on
//!   its outcome (a latency, a PFU ready time as an offset from the call's
//!   cycle, or a misprediction penalty). A leaf holds the segment's cycle,
//!   slot, base-instruction and fetch-stall deltas, its per-cycle
//!   classifications, and the successor node.
//!
//! # Replay
//!
//! At a boundary whose node has edges, replay pulls the next segment's
//! records from the source, picks the edge with the same records, and
//! walks its trie: each call is performed on the real component with the
//! real address and cycle, and its outcome selects the next step. At a
//! leaf the deltas are applied, the classifications are re-emitted to an
//! attributing sink, and replay continues from the successor.
//!
//! A miss — a record sequence or an outcome the node has not seen, a
//! successor with no edges yet, the end of the stream, or cycle fuel that
//! would run out inside the segment — returns to the accurate path
//! without losing work. The pipeline is rebuilt from the node, with the
//! in-flight records (addresses included) taken from a ring of the last
//! pulled records. The segment's pulled records are handed to fetch
//! before the source, and the results of the calls replay already
//! performed are handed to the first calls the accurate path makes, so no
//! access happens twice. The accurate path records every segment it
//! simulates as an edge, so the next visit replays it.
//!
//! # Why this is bit-identical
//!
//! The pipeline is a deterministic function of its own state, the record
//! stream and the values the components return. The key holds every
//! piece of pipeline state that a later cycle can read, in a form that
//! reads the same: sequence numbers relative to the window head (a
//! committed producer reads exactly like none), and timestamps relative
//! to the cycle. A timestamp at or below the current cycle is clamped to
//! 0: the pipeline only ever compares such a value against the current
//! or a later cycle, or folds it by `max` into a value that is, so every
//! past value reads the same as "now". The memory address is read only
//! as the argument to `MemHierarchy::data`, and that call's outcome is in
//! the trie. So two boundaries with equal keys, fed equal records and
//! equal outcomes, evolve identically up to the shift of the cycle and
//! the sequence numbers — which is what a leaf applies.
//!
//! # Bounds
//!
//! The table is capped at [`TABLE_BYTES`] and cleared when it grows past
//! it. Segments longer than [`MAX_SEG`] records, [`MAX_CALLS`] component
//! calls or [`MAX_CLASSES`] classified cycles are simulated but not
//! memoized.
//!
//! The fast path is disabled under event-tracing sinks
//! ([`TraceSink::EVENTS`]): trace events carry absolute cycle numbers,
//! and a replayed segment would have to rewrite them.

use super::{EntryState, Feed, OooCore, RecordSource};
use crate::config::CpuConfig;
use crate::func::DynInstr;
use crate::observe::{CycleClass, StallCause, TraceSink};
use crate::pfu::PfuOutcome;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::mem::size_of;
use t1000_isa::ConfId;

/// Memo table budget in bytes; the table is cleared when it grows past it.
const TABLE_BYTES: usize = 1 << 20;
/// Records per memoized segment.
const MAX_SEG: usize = 1024;
/// Component calls per memoized segment.
const MAX_CALLS: usize = 1 << 14;
/// Classified cycles per memoized segment.
const MAX_CLASSES: usize = 1 << 16;
/// End of a list in the table.
const NONE: u32 = u32::MAX;

/// Fast-path effectiveness counters, reported in
/// [`TimingStats`](super::TimingStats). All zero when the fast path is
/// disabled; the timing results themselves are bit-identical either way.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FastPathStats {
    /// Times the fast path entered replay.
    pub steady_loops: u64,
    /// Segments replayed from the memo instead of being simulated stage
    /// by stage.
    pub replayed_iters: u64,
    /// Times replay returned to the cycle-accurate path (equals
    /// `steady_loops` at the end of a run).
    pub deopts: u64,
    /// Simulated cycles covered by replayed segments.
    pub replayed_cycles: u64,
}

/// A producer reference relative to the window head: 0 when there is none
/// or it has committed (the pipeline reads both alike), else its age + 1.
type Rel = u32;

/// One RUU entry in canonical form. Only what the pipeline can still read
/// is kept: a waiting entry's producers and PFU ready time, an issued
/// entry's completion time.
#[derive(Clone, PartialEq, Eq, Hash)]
struct Slot {
    rec: DynInstr,
    done: bool,
    deps: [Rel; 3],
    prev_mem: Rel,
    /// `complete_at` if done, else `pfu_ready_at`: an offset from the
    /// cycle, clamped at 0.
    at: u64,
}

/// The canonical pipeline state at a segment boundary: the memo key.
#[derive(Clone, Default, PartialEq, Eq, Hash)]
struct Canon {
    window: Vec<Slot>,
    fetch_queue: Vec<DynInstr>,
    reg_producer: [Rel; 32],
    hilo_producer: Rel,
    last_mem: Rel,
    lsq_used: usize,
    dispatch_ready: u64,
    fetch_ready: u64,
    /// Cause and PC of the fetch stall, only while one is pending.
    fetch_stall: Option<(StallCause, u32)>,
    last_fetch_line: Option<u32>,
    drained: bool,
}

impl Canon {
    /// Records in flight: the window's, then the fetch queue's.
    fn inflight(&self) -> usize {
        self.window.len() + self.fetch_queue.len()
    }

    fn bytes(&self) -> usize {
        size_of::<Node>()
            + self.window.len() * size_of::<Slot>()
            + self.fetch_queue.len() * size_of::<DynInstr>()
    }
}

struct Node {
    canon: Canon,
    /// Outgoing edges.
    edges: Vec<u32>,
    /// Next node whose key has the same hash.
    same_hash: u32,
}

struct Edge {
    /// The segment's records, without addresses.
    recs: Box<[DynInstr]>,
    /// First point of the call trie.
    root: u32,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Fetch,
    Data,
    Pfu,
    Prefetch,
    Branch,
}

/// One component call of a segment.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Call {
    kind: Kind,
    /// Index of the record the call is for, counting from the oldest
    /// record in flight at the segment's start.
    idx: u32,
    /// Cycle of the call, relative to the segment's start.
    off: u64,
}

/// A point of an edge's call trie.
enum Point {
    /// Perform `call`; its outcome picks one of the arms listed from
    /// `arms`.
    Call { call: Call, arms: u32 },
    /// The end of the segment.
    Leaf(Leaf),
}

struct Arm {
    outcome: u64,
    to: u32,
    next: u32,
}

struct Leaf {
    cycles: u64,
    slots: u64,
    base_instructions: u64,
    fetch_stall_cycles: u64,
    classes: Box<[CycleClass]>,
    succ: u32,
}

/// What a component call returned.
#[derive(Clone, Copy, Debug)]
enum Ret {
    Lat(u32),
    Pfu(PfuOutcome),
    Prefetch(Option<u64>),
    Penalty(u32),
}

impl Ret {
    /// The part of the result the pipeline can tell apart, for a call made
    /// at cycle `now`.
    fn outcome(self, now: u64) -> u64 {
        match self {
            Ret::Lat(v) | Ret::Penalty(v) => v.into(),
            Ret::Pfu(PfuOutcome::Hit { at } | PfuOutcome::Load { at, .. }) => {
                at.saturating_sub(now)
            }
            Ret::Pfu(PfuOutcome::NoPfu) => u64::MAX,
            // Only trace events read a prefetch's result.
            Ret::Prefetch(_) => 0,
        }
    }
}

/// Multiply-rotate word hasher for memo keys: lookups compare full keys,
/// so only speed matters. With the std SipHash instead, a test-scale
/// `t1000 bench --all` took about 9% longer.
#[derive(Default)]
struct Fx(u64);

impl Fx {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for Fx {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(b.into());
        }
    }

    fn write_u8(&mut self, v: u8) {
        self.add(v.into());
    }

    fn write_u16(&mut self, v: u16) {
        self.add(v.into());
    }

    fn write_u32(&mut self, v: u32) {
        self.add(v.into());
    }

    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// The memo: nodes, their edges and the edges' call tries, in arenas.
#[derive(Default)]
struct Table {
    nodes: Vec<Node>,
    index: HashMap<u64, u32, BuildHasherDefault<Fx>>,
    edges: Vec<Edge>,
    points: Vec<Point>,
    arms: Vec<Arm>,
    bytes: usize,
}

impl Table {
    fn intern(&mut self, canon: Canon, scratch: &mut Canon) -> u32 {
        let mut h = Fx::default();
        canon.hash(&mut h);
        let hash = h.finish();
        let mut id = self.index.get(&hash).copied().unwrap_or(NONE);
        while id != NONE {
            let node = &self.nodes[id as usize];
            if node.canon == canon {
                *scratch = canon;
                return id;
            }
            id = node.same_hash;
        }
        let id = self.nodes.len() as u32;
        self.bytes += canon.bytes();
        let same_hash = self.index.insert(hash, id).unwrap_or(NONE);
        self.nodes.push(Node {
            canon,
            edges: Vec::new(),
            same_hash,
        });
        id
    }

    /// The edge of `node` whose records have the shapes of `seg`.
    fn find_edge<'a>(
        &self,
        node: u32,
        seg: impl ExactSizeIterator<Item = &'a DynInstr> + Clone,
    ) -> Option<u32> {
        let n = seg.len();
        self.nodes[node as usize].edges.iter().copied().find(|&e| {
            let recs = &self.edges[e as usize].recs;
            recs.len() == n && recs.iter().zip(seg.clone()).all(|(r, s)| *r == s.shape())
        })
    }

    /// The point the arm list from `arm` leads to on `outcome`.
    fn arm(&self, mut arm: u32, outcome: u64) -> Option<u32> {
        while arm != NONE {
            let a = &self.arms[arm as usize];
            if a.outcome == outcome {
                return Some(a.to);
            }
            arm = a.next;
        }
        None
    }

    fn push_point(&mut self, point: Point) -> u32 {
        self.bytes += size_of::<Point>();
        if let Point::Leaf(leaf) = &point {
            self.bytes += leaf.classes.len() * size_of::<CycleClass>();
        }
        self.points.push(point);
        self.points.len() as u32 - 1
    }

    fn push_arm(&mut self, arm: Arm) -> u32 {
        self.bytes += size_of::<Arm>();
        self.arms.push(arm);
        self.arms.len() as u32 - 1
    }

    /// A fresh trie path: `trace`'s calls, then `leaf`.
    fn chain(&mut self, trace: &[(Call, u64)], leaf: Leaf) -> u32 {
        let mut to = self.push_point(Point::Leaf(leaf));
        for &(call, outcome) in trace.iter().rev() {
            let arms = self.push_arm(Arm {
                outcome,
                to,
                next: NONE,
            });
            to = self.push_point(Point::Call { call, arms });
        }
        to
    }

    /// Adds the segment `seg` out of `from`, whose calls and outcomes were
    /// `trace` and whose end is `leaf`.
    fn add_edge<'a>(
        &mut self,
        from: u32,
        seg: impl ExactSizeIterator<Item = &'a DynInstr> + Clone,
        trace: &[(Call, u64)],
        leaf: Leaf,
    ) {
        let Some(edge) = self.find_edge(from, seg.clone()) else {
            let root = self.chain(trace, leaf);
            let recs: Box<[DynInstr]> = seg.map(|r| r.shape()).collect();
            self.bytes += size_of::<Edge>() + recs.len() * size_of::<DynInstr>() + 4;
            self.edges.push(Edge { recs, root });
            self.nodes[from as usize]
                .edges
                .push(self.edges.len() as u32 - 1);
            return;
        };
        let mut p = self.edges[edge as usize].root;
        for (i, &(call, outcome)) in trace.iter().enumerate() {
            let Point::Call { call: known, arms } = self.points[p as usize] else {
                debug_assert!(false, "memo trie ends before the recorded calls");
                return;
            };
            debug_assert_eq!(known, call, "same state, records and outcomes, other call");
            match self.arm(arms, outcome) {
                Some(to) => p = to,
                None => {
                    let to = self.chain(&trace[i + 1..], leaf);
                    let arm = self.push_arm(Arm {
                        outcome,
                        to,
                        next: arms,
                    });
                    if let Point::Call { arms, .. } = &mut self.points[p as usize] {
                        *arms = arm;
                    }
                    return;
                }
            }
        }
        debug_assert!(
            matches!(&self.points[p as usize], Point::Leaf(l)
                if l.succ == leaf.succ && l.cycles == leaf.cycles && l.slots == leaf.slots),
            "a memoized segment re-simulated differently"
        );
    }
}

/// Where the segment being recorded started.
struct Origin {
    node: u32,
    cycle: u64,
    slots: u64,
    base_instructions: u64,
    fetch_stall_cycles: u64,
    head_seq: u64,
}

/// Fast-path controller state embedded in [`OooCore`].
pub(crate) struct FastPath {
    /// Master switch ([`CpuConfig::fast_path`], and off under
    /// event-tracing sinks).
    pub(super) enabled: bool,
    /// Fetch pulled a taken branch last cycle.
    pub(super) pending_boundary: bool,
    /// The last pulled records: those in flight at the last boundary,
    /// then the ones pulled since.
    ring: VecDeque<DynInstr>,
    ring_cap: usize,
    /// Ring records fetch has taken; the rest were pulled by replay and
    /// are fetch's before the source.
    cursor: usize,
    table: Table,
    /// Table size that triggers a clear ([`TABLE_BYTES`]; tests shrink
    /// it).
    cap: usize,
    /// The segment being recorded, if any.
    origin: Option<Origin>,
    /// Its component calls and their outcomes so far.
    trace: Vec<(Call, u64)>,
    /// Its cycle classifications so far (attributing sinks only).
    classes: Vec<CycleClass>,
    /// It outgrew a per-segment bound and will not be memoized.
    overflow: bool,
    /// Results of calls replay performed before missing, for the accurate
    /// path's first calls.
    preset: VecDeque<Ret>,
    /// Key buffer reused across boundaries.
    scratch: Canon,
    stats: FastPathStats,
}

impl FastPath {
    pub(super) fn new(cfg: &CpuConfig) -> FastPath {
        FastPath {
            enabled: cfg.fast_path,
            pending_boundary: false,
            ring: VecDeque::new(),
            ring_cap: cfg.ruu_size + cfg.fetch_queue + MAX_SEG,
            cursor: 0,
            table: Table::default(),
            cap: TABLE_BYTES,
            origin: None,
            trace: Vec::new(),
            classes: Vec::new(),
            overflow: false,
            preset: VecDeque::new(),
            scratch: Canon::default(),
            stats: FastPathStats::default(),
        }
    }

    pub(super) fn stats(&self) -> FastPathStats {
        self.stats
    }

    /// Pulls the next segment's records into the ring, matching them
    /// against the edges of `node` as they arrive. Returns the edge whose
    /// records they are, or `None` as soon as no edge can match; the
    /// records pulled so far stay in the ring for fetch.
    fn pull_segment<R: RecordSource>(
        &mut self,
        node: u32,
        feed: &mut Feed<R>,
    ) -> Result<Option<u32>, R::Error> {
        let edges = &self.table.nodes[node as usize].edges;
        let mut edge = edges[0];
        for i in 0.. {
            let Some(rec) = feed.next()? else {
                return Ok(None);
            };
            self.ring.push_back(rec);
            let recs = &self.table.edges[edge as usize].recs;
            if recs.get(i) != Some(&rec.shape()) {
                // Another edge that shares the records matched so far.
                let prefix = &recs[..i];
                let other = edges.iter().copied().find(|&e| {
                    let r = &self.table.edges[e as usize].recs;
                    r.get(i) == Some(&rec.shape()) && r[..i] == *prefix
                });
                match other {
                    Some(e) => edge = e,
                    None => return Ok(None),
                }
            }
            if rec.taken() == Some(true) {
                // Segments end at their first taken branch, so the edge
                // ends here too.
                return Ok(Some(edge));
            }
        }
        unreachable!()
    }

    /// Records one cycle classification into the segment being recorded.
    pub(super) fn saw_class(&mut self, class: CycleClass) {
        if self.origin.is_none() || self.overflow {
            return;
        }
        if self.classes.len() >= MAX_CLASSES {
            self.overflow = true;
        } else {
            self.classes.push(class);
        }
    }
}

impl OooCore {
    /// Fetch's view of the record stream: records replay pulled but did
    /// not consume come first, then the live source. Flags segment
    /// boundaries.
    #[inline(always)]
    pub(super) fn next_record<R: RecordSource>(
        &mut self,
        feed: &mut Feed<R>,
    ) -> Result<Option<DynInstr>, R::Error> {
        let f = &mut self.fast;
        if !f.enabled {
            return feed.next();
        }
        let rec = match f.ring.get(f.cursor) {
            Some(&rec) => rec,
            None => {
                let Some(rec) = feed.next()? else {
                    return Ok(None);
                };
                f.ring.push_back(rec);
                if f.ring.len() > f.ring_cap {
                    // Only a segment longer than `MAX_SEG` gets here.
                    f.ring.pop_front();
                    f.cursor -= 1;
                    f.overflow = true;
                }
                rec
            }
        };
        f.cursor += 1;
        if rec.taken() == Some(true) {
            f.pending_boundary = true;
        }
        Ok(Some(rec))
    }

    /// Handles a segment boundary on the accurate path: memoizes the
    /// segment just simulated, then replays from here if the memo knows
    /// this state, else starts recording the next segment.
    pub(super) fn fast_boundary<R: RecordSource, S: TraceSink>(
        &mut self,
        feed: &mut Feed<R>,
        sink: &mut S,
    ) -> Result<(), R::Error> {
        debug_assert!(self.fast.preset.is_empty());
        if self.fast.table.bytes > self.fast.cap {
            self.fast.table = Table::default();
            self.fast.origin = None;
            #[cfg(test)]
            tests::CLEARS.with(|c| c.set(c.get() + 1));
        }
        let mut canon = std::mem::take(&mut self.fast.scratch);
        self.canon_into(&mut canon);
        let f = &mut self.fast;
        let node = f.table.intern(canon, &mut f.scratch);
        if let Some(o) = f.origin.take() {
            let start = f.table.nodes[o.node as usize].canon.inflight();
            if !f.overflow && f.ring.len() - start <= MAX_SEG {
                let leaf = Leaf {
                    cycles: self.cycle - o.cycle,
                    slots: self.slots - o.slots,
                    base_instructions: self.base_instructions - o.base_instructions,
                    fetch_stall_cycles: self.fetch_stall_cycles - o.fetch_stall_cycles,
                    classes: f.classes.as_slice().into(),
                    succ: node,
                };
                f.table
                    .add_edge(o.node, f.ring.range(start..), &f.trace, leaf);
            }
        }
        let stale = f.ring.len() - (self.window.len() + self.fetch_queue.len());
        f.ring.drain(..stale);
        f.cursor -= stale;
        debug_assert_eq!(f.cursor, f.ring.len());
        if f.table.nodes[node as usize].edges.is_empty() {
            self.start_recording(node);
            Ok(())
        } else {
            self.replay(node, feed, sink)
        }
    }

    /// Replays segments from `node` until the memo misses, then hands the
    /// state back to the accurate path.
    fn replay<R: RecordSource, S: TraceSink>(
        &mut self,
        mut node: u32,
        feed: &mut Feed<R>,
        sink: &mut S,
    ) -> Result<(), R::Error> {
        self.fast.stats.steady_loops += 1;
        loop {
            let Some(edge) = self.fast.pull_segment(node, feed)? else {
                self.leave(node);
                return Ok(());
            };
            let start = self.cycle;
            let mut p = self.fast.table.edges[edge as usize].root;
            while let Point::Call { call, arms } = self.fast.table.points[p as usize] {
                let ret = self.perform(call, start);
                self.fast.preset.push_back(ret);
                match self.fast.table.arm(arms, ret.outcome(start + call.off)) {
                    Some(to) => p = to,
                    None => {
                        self.leave(node);
                        return Ok(());
                    }
                }
            }
            let Point::Leaf(leaf) = &self.fast.table.points[p as usize] else {
                unreachable!()
            };
            let cycles = leaf.cycles;
            if self.cfg.max_cycles != 0 && self.cycle + cycles > self.cfg.max_cycles {
                // Out of fuel inside this segment: the accurate path
                // stops at the exact cycle.
                self.leave(node);
                return Ok(());
            }
            self.cycle += cycles;
            self.slots += leaf.slots;
            self.base_instructions += leaf.base_instructions;
            self.fetch_stall_cycles += leaf.fetch_stall_cycles;
            if S::ATTR {
                for &class in leaf.classes.iter() {
                    sink.cycle(class);
                }
            }
            node = leaf.succ;
            let f = &mut self.fast;
            f.stats.replayed_iters += 1;
            f.stats.replayed_cycles += cycles;
            f.preset.clear();
            let succ = &f.table.nodes[node as usize];
            let stale = f.ring.len() - succ.canon.inflight();
            f.ring.drain(..stale);
            if succ.edges.is_empty() {
                self.leave(node);
                return Ok(());
            }
        }
    }

    /// Returns from replay to the accurate path at `node`: rebuilds the
    /// pipeline, leaves the records pulled past the node for fetch and
    /// the results in `preset` for the next calls, and records the
    /// segment from here.
    fn leave(&mut self, node: u32) {
        self.fast.stats.deopts += 1;
        self.materialize(node);
        self.fast.cursor = self.window.len() + self.fetch_queue.len();
        self.start_recording(node);
    }

    fn start_recording(&mut self, node: u32) {
        let f = &mut self.fast;
        f.origin = Some(Origin {
            node,
            cycle: self.cycle,
            slots: self.slots,
            base_instructions: self.base_instructions,
            fetch_stall_cycles: self.fetch_stall_cycles,
            head_seq: self.head_seq,
        });
        f.trace.clear();
        f.classes.clear();
        f.overflow = false;
    }

    /// Writes the canonical form of the current state into `c`.
    fn canon_into(&self, c: &mut Canon) {
        let (cycle, head) = (self.cycle, self.head_seq);
        let rel = |s: Option<u64>| match s {
            Some(s) if s >= head => (s - head + 1) as Rel,
            _ => 0,
        };
        c.window.clear();
        c.window.extend(self.window.iter().map(|e| match e.state {
            EntryState::Done => Slot {
                rec: e.rec.shape(),
                done: true,
                deps: [0; 3],
                prev_mem: 0,
                at: e.complete_at.saturating_sub(cycle),
            },
            EntryState::Waiting => Slot {
                rec: e.rec.shape(),
                done: false,
                deps: e.deps.map(rel),
                prev_mem: rel(e.prev_mem),
                at: e.pfu_ready_at.saturating_sub(cycle),
            },
        }));
        c.fetch_queue.clear();
        c.fetch_queue
            .extend(self.fetch_queue.iter().map(|r| r.shape()));
        for (r, p) in c.reg_producer.iter_mut().zip(&self.reg_producer) {
            *r = rel(*p);
        }
        c.hilo_producer = rel(self.hilo_producer);
        c.last_mem = rel(self.last_mem_seq);
        c.lsq_used = self.lsq_used;
        c.dispatch_ready = self.dispatch_ready_at.saturating_sub(cycle);
        c.fetch_ready = self.fetch_ready_at.saturating_sub(cycle);
        c.fetch_stall =
            (cycle < self.fetch_ready_at).then_some((self.fetch_stall_cause, self.fetch_stall_pc));
        c.last_fetch_line = self.last_fetch_line;
        c.drained = self.drained;
    }

    /// Rebuilds the pipeline from `node` at the current cycle and window
    /// head, with the in-flight records taken from the ring.
    fn materialize(&mut self, node: u32) {
        let (cycle, head) = (self.cycle, self.head_seq);
        let abs = |r: Rel| (r != 0).then(|| head + u64::from(r) - 1);
        let c = &self.fast.table.nodes[node as usize].canon;
        let mut recs = self.fast.ring.iter().copied();
        self.window.clear();
        for s in &c.window {
            let e = self.window.push_back();
            let Some(rec) = recs.next() else {
                unreachable!("the ring holds the in-flight records")
            };
            e.rec = rec;
            debug_assert_eq!(e.rec.shape(), s.rec);
            e.deps = s.deps.map(abs);
            e.prev_mem = abs(s.prev_mem);
            if s.done {
                e.state = EntryState::Done;
                e.complete_at = cycle + s.at;
                e.pfu_ready_at = 0;
            } else {
                e.state = EntryState::Waiting;
                e.pfu_ready_at = cycle + s.at;
                e.complete_at = 0;
            }
        }
        self.next_seq = head + c.window.len() as u64;
        self.fetch_queue.clear();
        self.fetch_queue.extend(recs.take(c.fetch_queue.len()));
        for (p, r) in self.reg_producer.iter_mut().zip(&c.reg_producer) {
            *p = abs(*r);
        }
        self.hilo_producer = abs(c.hilo_producer);
        self.last_mem_seq = abs(c.last_mem);
        self.lsq_used = c.lsq_used;
        self.dispatch_ready_at = cycle + c.dispatch_ready;
        self.fetch_ready_at = cycle + c.fetch_ready;
        (self.fetch_stall_cause, self.fetch_stall_pc) =
            c.fetch_stall.unwrap_or((StallCause::FrontendEmpty, 0));
        self.last_fetch_line = c.last_fetch_line;
        self.drained = c.drained;
        self.rebuild_wakeup();
    }

    /// Performs a memoized call on the real component, for a segment that
    /// started at cycle `start`.
    fn perform(&mut self, call: Call, start: u64) -> Ret {
        let rec = self.fast.ring[call.idx as usize];
        let now = start + call.off;
        match (call.kind, rec.mem(), rec.conf(), rec.taken()) {
            (Kind::Fetch, ..) => Ret::Lat(self.mem.fetch(rec.pc)),
            (Kind::Data, Some((addr, is_write)), ..) => Ret::Lat(self.mem.data(addr, is_write)),
            (Kind::Pfu, _, Some(conf), _) => Ret::Pfu(self.pfus.request_outcome(conf, now)),
            (Kind::Prefetch, _, Some(conf), _) => Ret::Prefetch(self.pfus.prefetch(conf, now)),
            (Kind::Branch, .., Some(taken)) => {
                Ret::Penalty(self.predictor.observe(rec.pc, taken, rec.backward()))
            }
            _ => unreachable!("memo call {call:?} names a record of another kind"),
        }
    }

    /// A component call from the accurate path, with the fast path on,
    /// for the record that has (or will get) sequence number `seq`: takes
    /// a result replay already obtained if there is one, else calls
    /// `perform`, and records the call for the memo. Kept out of line so
    /// the wrappers below inline to a flag test and the plain call.
    #[inline(never)]
    fn through(&mut self, kind: Kind, seq: u64, perform: impl FnOnce(&mut OooCore) -> Ret) -> Ret {
        let ret = match self.fast.preset.pop_front() {
            Some(ret) => ret,
            None => perform(self),
        };
        let f = &mut self.fast;
        if let Some(o) = &f.origin {
            if f.trace.len() >= MAX_CALLS {
                f.overflow = true;
            } else if !f.overflow {
                let call = Call {
                    kind,
                    idx: (seq - o.head_seq) as u32,
                    off: self.cycle - o.cycle,
                };
                f.trace.push((call, ret.outcome(self.cycle)));
            }
        }
        ret
    }

    /// [`MemHierarchy::fetch`](t1000_mem::MemHierarchy::fetch) through the memo.
    #[inline(always)]
    pub(super) fn mem_fetch(&mut self, seq: u64, pc: u32) -> u32 {
        let call = |c: &mut OooCore| c.mem.fetch(pc);
        if !self.fast.enabled {
            return call(self);
        }
        match self.through(Kind::Fetch, seq, |c| Ret::Lat(call(c))) {
            Ret::Lat(lat) => lat,
            ret => unreachable!("memo hand-off out of order: {ret:?}"),
        }
    }

    /// [`MemHierarchy::data`](t1000_mem::MemHierarchy::data) through the memo.
    #[inline(always)]
    pub(super) fn mem_data(&mut self, seq: u64, addr: u32, is_write: bool) -> u32 {
        let call = |c: &mut OooCore| c.mem.data(addr, is_write);
        if !self.fast.enabled {
            return call(self);
        }
        match self.through(Kind::Data, seq, |c| Ret::Lat(call(c))) {
            Ret::Lat(lat) => lat,
            ret => unreachable!("memo hand-off out of order: {ret:?}"),
        }
    }

    /// [`PfuArray::request_outcome`](crate::pfu::PfuArray::request_outcome)
    /// at the current cycle, through the memo.
    #[inline(always)]
    pub(super) fn pfu_request(&mut self, seq: u64, conf: ConfId) -> PfuOutcome {
        let call = |c: &mut OooCore| c.pfus.request_outcome(conf, c.cycle);
        if !self.fast.enabled {
            return call(self);
        }
        match self.through(Kind::Pfu, seq, |c| Ret::Pfu(call(c))) {
            Ret::Pfu(outcome) => outcome,
            ret => unreachable!("memo hand-off out of order: {ret:?}"),
        }
    }

    /// [`PfuArray::prefetch`](crate::pfu::PfuArray::prefetch) at the
    /// current cycle, through the memo.
    #[inline(always)]
    pub(super) fn pfu_prefetch(&mut self, seq: u64, conf: ConfId) -> Option<u64> {
        let call = |c: &mut OooCore| c.pfus.prefetch(conf, c.cycle);
        if !self.fast.enabled {
            return call(self);
        }
        match self.through(Kind::Prefetch, seq, |c| Ret::Prefetch(call(c))) {
            Ret::Prefetch(ready_at) => ready_at,
            ret => unreachable!("memo hand-off out of order: {ret:?}"),
        }
    }

    /// [`Predictor::observe`](crate::branch::Predictor::observe) through
    /// the memo.
    #[inline(always)]
    pub(super) fn branch_observe(&mut self, seq: u64, pc: u32, taken: bool, backward: bool) -> u32 {
        let call = |c: &mut OooCore| c.predictor.observe(pc, taken, backward);
        if !self.fast.enabled {
            return call(self);
        }
        match self.through(Kind::Branch, seq, |c| Ret::Penalty(call(c))) {
            Ret::Penalty(penalty) => penalty,
            ret => unreachable!("memo hand-off out of order: {ret:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::FuncCore;
    use crate::observe::{AttrCollector, CycleAttribution};
    use crate::TimingStats;
    use std::cell::Cell;
    use t1000_asm::assemble;
    use t1000_isa::FusionMap;

    thread_local! {
        /// Table clears on this thread.
        pub(super) static CLEARS: Cell<u64> = const { Cell::new(0) };
    }

    /// An LCG steers each iteration down one of three paths, so the memo
    /// keeps growing edges and outcomes for a while.
    const LCG: &str = "main:
    li $s0, 3000
    li $t0, 12345
    li $s2, 1103515245
    la $s3, buf
loop:
    mult $t0, $s2
    mflo $t0
    addiu $t0, $t0, 12345
    srl $t1, $t0, 16
    andi $t2, $t1, 3
    beq $t2, $zero, a
    andi $t3, $t1, 1020
    addu $t3, $t3, $s3
    lw $t4, 0($t3)
    addu $t5, $t5, $t4
    sw $t5, 0($t3)
    j next
a:
    xor $t5, $t5, $t1
next:
    addiu $s0, $s0, -1
    bgtz $s0, loop
    li $v0, 10
    syscall
.data
buf: .space 1024
";

    /// Runs `LCG` with the memo budget set to `cap` bytes (none: the fast
    /// path off); returns the statistics, the attribution and the number
    /// of table clears.
    fn run(cap: Option<usize>) -> (TimingStats, CycleAttribution, u64) {
        let p = assemble(LCG).unwrap();
        let fusion = FusionMap::new();
        let mut core = FuncCore::new(&p, &fusion);
        let mut ooo = OooCore::new(CpuConfig {
            fast_path: cap.is_some(),
            ..CpuConfig::baseline()
        });
        if let Some(cap) = cap {
            ooo.fast.cap = cap;
        }
        CLEARS.with(|c| c.set(0));
        let mut sink = AttrCollector::new();
        let stats = ooo.run_with(&mut core, &mut sink).unwrap();
        let clears = CLEARS.with(|c| c.get());
        (stats, sink.attr, clears)
    }

    #[test]
    fn table_clears_keep_results_identical() {
        let (slow, slow_attr, _) = run(None);
        let (fast, fast_attr, _) = run(Some(TABLE_BYTES));
        assert!(
            fast.fast.replayed_cycles * 2 > fast.cycles,
            "{:?}",
            fast.fast
        );
        let mut cleared_and_replayed = false;
        for cap in [0, 1 << 10, 4 << 10, 16 << 10, 64 << 10] {
            let (t, attr, clears) = run(Some(cap));
            let ctx = format!("cap {cap}");
            assert_eq!(t.cycles, slow.cycles, "{ctx}");
            assert_eq!(t.slots, slow.slots, "{ctx}");
            assert_eq!(t.base_instructions, slow.base_instructions, "{ctx}");
            assert_eq!(t.mem, slow.mem, "{ctx}");
            assert_eq!(t.pfu, slow.pfu, "{ctx}");
            assert_eq!(t.branch, slow.branch, "{ctx}");
            assert_eq!(t.fetch_stall_cycles, slow.fetch_stall_cycles, "{ctx}");
            assert_eq!(attr, slow_attr, "{ctx}");
            assert_eq!(t.fast.steady_loops, t.fast.deopts, "{ctx}");
            assert!(clears > 0, "{ctx}: the table never filled");
            if cap == 0 {
                // Every boundary clears the table: nothing is ever replayed.
                assert_eq!(t.fast.replayed_iters, 0, "{ctx}");
            }
            cleared_and_replayed |= t.fast.replayed_iters > 0;
        }
        assert!(cleared_and_replayed, "no budget both cleared and replayed");
        assert_eq!(fast_attr, slow_attr);
    }
}
