//! Programmable-functional-unit state for the timing model.
//!
//! Each PFU holds one configuration, identified by the `Conf` tag of the
//! extended instruction that loaded it (paper §2.2). At decode the tag is
//! compared against the resident configurations: a hit dispatches normally;
//! a miss selects a victim PFU by LRU and starts a configuration load.
//! While loading, the PFU can execute nothing.
//!
//! ## Config planes
//!
//! On the paper's machine every load blocks for a flat `reconfig_cycles`.
//! This module generalises that scalar into a *config-plane model*
//! (LUTstructions-style reconfiguration hiding):
//!
//! * **Double-buffered planes** (`planes >= 2`): each PFU gains a shadow
//!   configuration plane. A miss starts the load into the shadow plane
//!   while the active plane keeps executing its current configuration;
//!   the planes swap when the load lands (see [`PfuArray::set_planes`]).
//! * **Next-config prefetch** ([`PfuArray::prefetch`]): the core may start
//!   loads for upcoming `Conf` tags it sees in the fetch queue, so the
//!   reload cost overlaps useful execution. Cycles of a prefetched load
//!   that overlapped execution are counted as *hidden*, the remainder the
//!   demand had to wait for as *exposed* (see [`PfuStats`]).
//! * **Per-configuration load latency** ([`PfuArray::set_load_cycles`]):
//!   the latency of each load can be derived from the configuration's
//!   compressed stream size (words) instead of the global scalar; see
//!   [`compressed_reload_cycles`].
//!
//! With the default knobs (`planes == 1`, no prefetch, no latency table)
//! the arithmetic below is bit-identical to the original flat model.

use crate::config::PfuCount;
use t1000_isa::ConfId;

/// Configuration replacement policy across PFUs. The paper uses LRU
/// (§2.2); FIFO and random are provided for the replacement-policy
/// ablation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum PfuReplacement {
    /// Least-recently-used configuration is evicted (the paper's policy).
    #[default]
    Lru,
    /// Oldest-loaded configuration is evicted.
    Fifo,
    /// A pseudo-random (deterministic xorshift) victim is evicted.
    Random,
}

/// Statistics about PFU usage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PfuStats {
    /// Extended instructions executed.
    pub ext_executed: u64,
    /// Configuration loads performed, prefetches included (the thrashing
    /// metric).
    pub reconfigurations: u64,
    /// Tag-check hits (configuration already resident or in flight).
    pub conf_hits: u64,
    /// Configuration loads that failed (fault injection): each such site
    /// visit fell back to the scalar sequence instead of the fused form.
    /// Zero on a healthy machine.
    pub load_faults: u64,
    /// Demands whose configuration a prefetch had already loaded (or was
    /// still loading) — each saved part or all of a blocking reload.
    pub prefetch_hits: u64,
    /// Reload cycles that overlapped execution instead of blocking a
    /// demand: the portion of each prefetched load that had already
    /// elapsed when its configuration was first demanded. Only loads that
    /// served a demand are counted; abandoned prefetches contribute
    /// nothing.
    pub hidden_reload_cycles: u64,
    /// Reload cycles a demand actually waited for: the full latency of
    /// every demand-initiated load plus the not-yet-elapsed remainder of
    /// prefetched loads demanded mid-flight.
    pub exposed_reload_cycles: u64,
    /// Configuration-stream words transferred by all loads (prefetches
    /// included), from the per-configuration stream-size table. Zero when
    /// no table is installed.
    pub stream_words: u64,
}

/// A configuration load in flight on a PFU's shadow plane
/// (`planes >= 2` only). The active plane keeps executing until the load
/// lands and the planes swap.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct ShadowLoad {
    conf: ConfId,
    /// Cycle the load started.
    started_at: u64,
    /// Cycle the load lands (planes swap at or after this).
    ready_at: u64,
    /// Whether a prefetch (not a demand) started the load — decides the
    /// hidden/exposed split when the configuration is demanded.
    prefetched: bool,
}

#[derive(Clone, Copy, Debug)]
struct PfuSlot {
    conf: Option<ConfId>,
    /// Cycle at which the configuration (re)load completes.
    ready_at: u64,
    /// Cycle at which the configuration was loaded (FIFO key).
    loaded_at: u64,
    /// Cycle of the most recent use (LRU key).
    last_use: u64,
    /// In-flight background load on the shadow plane (`planes >= 2`).
    shadow: Option<ShadowLoad>,
    /// The active configuration was loaded by a prefetch and has not been
    /// demanded yet (prefetch-hit accounting on first demand).
    prefetched: bool,
}

/// The array of PFUs.
#[derive(Clone)]
pub struct PfuArray {
    slots: Vec<PfuSlot>,
    unlimited: bool,
    reconfig_cycles: u32,
    /// Configuration planes per PFU: 1 = the paper's blocking model,
    /// 2 = double-buffered (shadow plane loads in the background).
    planes: u32,
    replacement: PfuReplacement,
    rng: u64,
    stats: PfuStats,
    /// Resident set for unlimited mode (every conf loads exactly once).
    resident: std::collections::HashSet<ConfId>,
    /// Per-configuration load latencies (indexed by `ConfId`); confs
    /// beyond the table fall back to the flat `reconfig_cycles`.
    load_cycles: Vec<u32>,
    /// Per-configuration stream sizes in words (indexed by `ConfId`),
    /// feeding [`PfuStats::stream_words`]; missing entries count zero.
    words: Vec<u32>,
    /// Unlimited-mode prefetches in flight: conf → (started_at, ready_at).
    pending: std::collections::HashMap<ConfId, (u64, u64)>,
}

/// Outcome of requesting a configuration at dispatch time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PfuRequest {
    /// Configuration resident; the instruction may issue when its operands
    /// are ready (at or after the returned cycle, which accounts for an
    /// in-flight load of the same configuration).
    Ready { at: u64 },
    /// No PFU exists on this machine (baseline superscalar).
    NoPfu,
}

/// Like [`PfuRequest`], but distinguishing hits from configuration loads
/// and naming the evicted configuration — the detail the event trace
/// reports. [`PfuArray::request`] is the collapsed view.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PfuOutcome {
    /// Tag check hit; execution may begin at `at` (later than "now" only
    /// while the same configuration's load is still in flight).
    Hit { at: u64 },
    /// Tag check missed: a configuration load starts now and completes at
    /// `at`, displacing `evicted` (if the victim PFU held one). With
    /// double-buffered planes the displaced configuration stays usable
    /// until the load lands.
    Load { at: u64, evicted: Option<ConfId> },
    /// No PFU exists on this machine (baseline superscalar).
    NoPfu,
}

/// Cycles to transfer a `words`-word configuration stream compressed by
/// `ratio` (0 < ratio ≤ 1, smaller = better compression) at one word per
/// cycle — the per-configuration reload latency under `--conf-compress`.
/// Always at least one cycle.
pub fn compressed_reload_cycles(words: u32, ratio: f64) -> u32 {
    ((words as f64 * ratio).ceil() as u32).max(1)
}

impl PfuArray {
    /// Builds the array with LRU replacement (the paper's policy).
    /// `PfuCount::Fixed(0)` models the baseline machine.
    pub fn new(count: PfuCount, reconfig_cycles: u32) -> PfuArray {
        PfuArray::with_replacement(count, reconfig_cycles, PfuReplacement::Lru)
    }

    /// Builds the array with an explicit replacement policy.
    pub fn with_replacement(
        count: PfuCount,
        reconfig_cycles: u32,
        replacement: PfuReplacement,
    ) -> PfuArray {
        let (n, unlimited) = match count {
            PfuCount::Fixed(n) => (n, false),
            PfuCount::Unlimited => (0, true),
        };
        PfuArray {
            slots: vec![
                PfuSlot {
                    conf: None,
                    ready_at: 0,
                    loaded_at: 0,
                    last_use: 0,
                    shadow: None,
                    prefetched: false,
                };
                n
            ],
            unlimited,
            reconfig_cycles,
            planes: 1,
            replacement,
            rng: 0x0123_4567_89ab_cdef,
            stats: PfuStats::default(),
            resident: std::collections::HashSet::new(),
            load_cycles: Vec::new(),
            words: Vec::new(),
            pending: std::collections::HashMap::new(),
        }
    }

    /// Sets the number of configuration planes per PFU (clamped to at
    /// least 1). Two planes double-buffer loads: the active configuration
    /// keeps executing while the shadow plane loads.
    pub fn set_planes(&mut self, planes: u32) {
        self.planes = planes.max(1);
    }

    /// Installs per-configuration load latencies (indexed by `ConfId`).
    /// Configurations beyond the table keep the flat `reconfig_cycles`.
    pub fn set_load_cycles(&mut self, table: Vec<u32>) {
        self.load_cycles = table;
    }

    /// Installs per-configuration stream sizes in words (indexed by
    /// `ConfId`), feeding the [`PfuStats::stream_words`] counter.
    pub fn set_stream_words(&mut self, table: Vec<u32>) {
        self.words = table;
    }

    fn latency_of(&self, conf: ConfId) -> u64 {
        self.load_cycles
            .get(conf as usize)
            .copied()
            .unwrap_or(self.reconfig_cycles) as u64
    }

    fn words_of(&self, conf: ConfId) -> u64 {
        self.words.get(conf as usize).copied().unwrap_or(0) as u64
    }

    /// Picks an eviction victim among `cands` (slot indices) by the
    /// configured policy. With all slots as candidates this is exactly
    /// the original flat-model selection.
    fn pick_victim(&mut self, cands: &[usize]) -> usize {
        match self.replacement {
            PfuReplacement::Lru => cands
                .iter()
                .copied()
                .min_by_key(|&i| self.slots[i].last_use.max(self.slots[i].ready_at))
                .unwrap_or(0),
            PfuReplacement::Fifo => cands
                .iter()
                .copied()
                .min_by_key(|&i| self.slots[i].loaded_at)
                .unwrap_or(0),
            PfuReplacement::Random => {
                let mut x = self.rng;
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                self.rng = x;
                let pick =
                    (x.wrapping_mul(0x2545_f491_4f6c_dd1d) % cands.len().max(1) as u64) as usize;
                cands.get(pick).copied().unwrap_or(0)
            }
        }
    }

    /// Swaps every landed shadow load into its active plane
    /// (`planes >= 2`). The displaced configuration is evicted here — it
    /// stayed usable for the whole load.
    fn settle(&mut self, now: u64) {
        for s in &mut self.slots {
            if let Some(sh) = s.shadow {
                if sh.ready_at <= now {
                    s.shadow = None;
                    s.conf = Some(sh.conf);
                    s.ready_at = sh.ready_at;
                    s.loaded_at = sh.started_at;
                    s.last_use = sh.ready_at;
                    s.prefetched = sh.prefetched;
                }
            }
        }
    }

    /// Begins loading `conf` in the background if it is absent and a
    /// plane is free, returning the completion cycle when a load started.
    /// Driven by upcoming `Conf` tags in the fetch queue
    /// (`--pfu-prefetch N`). With a single plane a prefetch may only fill
    /// an empty PFU; with double-buffered planes it loads into a free
    /// shadow plane, picking the victim the demand path would pick.
    pub fn prefetch(&mut self, conf: ConfId, now: u64) -> Option<u64> {
        if self.unlimited {
            if self.resident.contains(&conf) || self.pending.contains_key(&conf) {
                return None;
            }
            let lat = self.latency_of(conf);
            self.stats.reconfigurations += 1;
            self.stats.stream_words += self.words_of(conf);
            self.pending.insert(conf, (now, now + lat));
            return Some(now + lat);
        }
        if self.slots.is_empty() {
            return None;
        }
        if self.planes >= 2 {
            self.settle(now);
        }
        let in_flight = |s: &PfuSlot| s.shadow.is_some_and(|sh| sh.conf == conf);
        if self
            .slots
            .iter()
            .any(|s| s.conf == Some(conf) || in_flight(s))
        {
            return None;
        }
        let lat = self.latency_of(conf);
        if self.planes >= 2 {
            let free: Vec<usize> = (0..self.slots.len())
                .filter(|&i| self.slots[i].shadow.is_none())
                .collect();
            if free.is_empty() {
                return None; // every shadow plane is already loading
            }
            let idx = free
                .iter()
                .copied()
                .find(|&i| self.slots[i].conf.is_none())
                .unwrap_or_else(|| self.pick_victim(&free));
            self.stats.reconfigurations += 1;
            self.stats.stream_words += self.words_of(conf);
            self.slots[idx].shadow = Some(ShadowLoad {
                conf,
                started_at: now,
                ready_at: now + lat,
                prefetched: true,
            });
            Some(now + lat)
        } else {
            let idx = (0..self.slots.len()).find(|&i| self.slots[i].conf.is_none())?;
            self.stats.reconfigurations += 1;
            self.stats.stream_words += self.words_of(conf);
            let slot = &mut self.slots[idx];
            slot.conf = Some(conf);
            slot.ready_at = now + lat;
            slot.loaded_at = now;
            slot.last_use = now;
            slot.prefetched = true;
            Some(now + lat)
        }
    }

    /// Requests configuration `conf` at cycle `now`, loading it if absent.
    /// Returns the earliest cycle at which an extended instruction using it
    /// may begin execution.
    pub fn request(&mut self, conf: ConfId, now: u64) -> PfuRequest {
        match self.request_outcome(conf, now) {
            PfuOutcome::Hit { at } | PfuOutcome::Load { at, .. } => PfuRequest::Ready { at },
            PfuOutcome::NoPfu => PfuRequest::NoPfu,
        }
    }

    /// [`PfuArray::request`] with the hit/load distinction and eviction
    /// victim preserved, for event tracing.
    pub fn request_outcome(&mut self, conf: ConfId, now: u64) -> PfuOutcome {
        self.stats.ext_executed += 1;
        if self.unlimited {
            // Every configuration gets its own PFU; first use still pays
            // the (possibly zero) load, subsequent uses always hit. A
            // prefetch already in flight turns the first use into a hit
            // that waits out the load's remainder.
            if let Some((started_at, ready_at)) = self.pending.remove(&conf) {
                self.resident.insert(conf);
                self.stats.conf_hits += 1;
                self.stats.prefetch_hits += 1;
                let total = ready_at - started_at;
                let exposed = ready_at.saturating_sub(now).min(total);
                self.stats.hidden_reload_cycles += total - exposed;
                self.stats.exposed_reload_cycles += exposed;
                return PfuOutcome::Hit {
                    at: ready_at.max(now),
                };
            }
            if self.resident.insert(conf) {
                self.stats.reconfigurations += 1;
                let lat = self.latency_of(conf);
                self.stats.stream_words += self.words_of(conf);
                self.stats.exposed_reload_cycles += lat;
                return PfuOutcome::Load {
                    at: now + lat,
                    evicted: None,
                };
            }
            self.stats.conf_hits += 1;
            return PfuOutcome::Hit { at: now };
        }
        if self.slots.is_empty() {
            return PfuOutcome::NoPfu;
        }
        if self.planes >= 2 {
            self.settle(now);
        }
        if let Some(slot) = self.slots.iter_mut().find(|s| s.conf == Some(conf)) {
            self.stats.conf_hits += 1;
            if slot.prefetched {
                // First demand of a prefetched configuration: split its
                // load into the part that overlapped execution (hidden)
                // and the remainder this demand waits for (exposed).
                slot.prefetched = false;
                let total = slot.ready_at - slot.loaded_at;
                let exposed = slot.ready_at.saturating_sub(now).min(total);
                self.stats.prefetch_hits += 1;
                self.stats.hidden_reload_cycles += total - exposed;
                self.stats.exposed_reload_cycles += exposed;
            }
            slot.last_use = now.max(slot.last_use);
            return PfuOutcome::Hit {
                at: slot.ready_at.max(now),
            };
        }
        // Shadow plane already loading this configuration? Swap it in
        // early: the demand waits only for the load's remainder.
        if self.planes >= 2 {
            let mut found = None;
            for (i, s) in self.slots.iter().enumerate() {
                if let Some(sh) = s.shadow {
                    if sh.conf == conf {
                        found = Some((i, sh));
                        break;
                    }
                }
            }
            if let Some((i, sh)) = found {
                let slot = &mut self.slots[i];
                slot.shadow = None;
                slot.conf = Some(conf);
                slot.ready_at = sh.ready_at;
                slot.loaded_at = sh.started_at;
                slot.last_use = now.max(sh.ready_at);
                slot.prefetched = false;
                self.stats.conf_hits += 1;
                if sh.prefetched {
                    let total = sh.ready_at - sh.started_at;
                    let exposed = sh.ready_at.saturating_sub(now).min(total);
                    self.stats.prefetch_hits += 1;
                    self.stats.hidden_reload_cycles += total - exposed;
                    self.stats.exposed_reload_cycles += exposed;
                }
                return PfuOutcome::Hit {
                    at: sh.ready_at.max(now),
                };
            }
        }
        // Miss: evict a victim, preferring never-used (empty) slots.
        // A slot still loading is not recently used, but evicting it
        // mid-load would lose the in-flight configuration, so `ready_at`
        // counts as a use for the LRU key.
        self.stats.reconfigurations += 1;
        let lat = self.latency_of(conf);
        self.stats.stream_words += self.words_of(conf);
        self.stats.exposed_reload_cycles += lat;
        if self.planes >= 2 {
            // Double-buffered: load into the victim's shadow plane; its
            // active configuration stays usable until the load lands.
            let free: Vec<usize> = (0..self.slots.len())
                .filter(|&i| self.slots[i].shadow.is_none())
                .collect();
            let victim_idx = match free.iter().copied().find(|&i| self.slots[i].conf.is_none()) {
                Some(i) => i,
                None if !free.is_empty() => self.pick_victim(&free),
                // All shadow planes busy: abandon the LRU victim's
                // in-flight load (its words were already counted).
                None => {
                    let all: Vec<usize> = (0..self.slots.len()).collect();
                    self.pick_victim(&all)
                }
            };
            let slot = &mut self.slots[victim_idx];
            let evicted = slot.conf;
            slot.shadow = Some(ShadowLoad {
                conf,
                started_at: now,
                ready_at: now + lat,
                prefetched: false,
            });
            return PfuOutcome::Load {
                at: now + lat,
                evicted,
            };
        }
        let victim_idx = match (0..self.slots.len()).find(|&i| self.slots[i].conf.is_none()) {
            Some(i) => i,
            None => {
                let all: Vec<usize> = (0..self.slots.len()).collect();
                self.pick_victim(&all)
            }
        };
        let victim = &mut self.slots[victim_idx];
        let evicted = victim.conf;
        victim.conf = Some(conf);
        victim.ready_at = now + lat;
        victim.loaded_at = now;
        victim.last_use = now;
        victim.prefetched = false;
        PfuOutcome::Load {
            at: victim.ready_at,
            evicted,
        }
    }

    /// Whether `conf` is currently resident on an active plane
    /// (tag-check without side effects; used by tests and debug dumps).
    pub fn is_resident(&self, conf: ConfId) -> bool {
        if self.unlimited {
            self.resident.contains(&conf)
        } else {
            self.slots.iter().any(|s| s.conf == Some(conf))
        }
    }

    /// Usage statistics.
    pub fn stats(&self) -> PfuStats {
        self.stats
    }

    /// Resets statistics (configuration residency is preserved), matching
    /// [`Cache::reset_stats`](t1000_mem::Cache::reset_stats).
    pub fn reset_stats(&mut self) {
        self.stats = PfuStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_machine_rejects_ext_instructions() {
        let mut a = PfuArray::new(PfuCount::Fixed(0), 10);
        assert_eq!(a.request(1, 100), PfuRequest::NoPfu);
    }

    #[test]
    fn first_use_pays_reconfiguration() {
        let mut a = PfuArray::new(PfuCount::Fixed(2), 10);
        assert_eq!(a.request(1, 100), PfuRequest::Ready { at: 110 });
        assert_eq!(a.request(1, 120), PfuRequest::Ready { at: 120 });
        assert_eq!(a.stats().reconfigurations, 1);
        assert_eq!(a.stats().conf_hits, 1);
    }

    #[test]
    fn in_flight_load_delays_immediate_reuse() {
        let mut a = PfuArray::new(PfuCount::Fixed(1), 10);
        assert_eq!(a.request(1, 100), PfuRequest::Ready { at: 110 });
        // Same conf requested again before the load finishes: waits for it.
        assert_eq!(a.request(1, 105), PfuRequest::Ready { at: 110 });
    }

    #[test]
    fn two_pfus_hold_two_configurations() {
        let mut a = PfuArray::new(PfuCount::Fixed(2), 10);
        a.request(1, 0);
        a.request(2, 1);
        assert!(a.is_resident(1));
        assert!(a.is_resident(2));
        // Steady-state alternation: all hits.
        let s0 = a.stats().reconfigurations;
        for t in 10..20 {
            a.request(1 + (t % 2) as u16, t);
        }
        assert_eq!(a.stats().reconfigurations, s0);
    }

    #[test]
    fn three_confs_on_two_pfus_thrash_via_lru() {
        let mut a = PfuArray::new(PfuCount::Fixed(2), 10);
        let mut now = 0u64;
        let mut reconfs = 0;
        for round in 0..10 {
            for conf in [1u16, 2, 3] {
                let before = a.stats().reconfigurations;
                let PfuRequest::Ready { at } = a.request(conf, now) else {
                    panic!()
                };
                now = at + 1;
                if a.stats().reconfigurations > before {
                    reconfs += 1;
                }
                let _ = round;
            }
        }
        // Round-robin over 3 confs with 2 slots under LRU misses every time.
        assert_eq!(reconfs, 30, "LRU must thrash on cyclic access");
    }

    #[test]
    fn unlimited_mode_loads_each_conf_once() {
        let mut a = PfuArray::new(PfuCount::Unlimited, 10);
        for t in 0..100u64 {
            a.request((t % 7) as u16, t);
        }
        assert_eq!(a.stats().reconfigurations, 7);
        assert_eq!(a.stats().ext_executed, 100);
    }

    #[test]
    fn fifo_evicts_oldest_load_even_if_hot() {
        let mut a = PfuArray::with_replacement(PfuCount::Fixed(2), 0, PfuReplacement::Fifo);
        a.request(1, 0); // loaded first
        a.request(2, 1);
        a.request(1, 2); // conf 1 is hot...
        a.request(1, 3);
        a.request(3, 4); // ...but FIFO still evicts it
        assert!(!a.is_resident(1), "FIFO must evict the oldest load");
        assert!(a.is_resident(2) && a.is_resident(3));
        // Under LRU the same pattern keeps conf 1.
        let mut b = PfuArray::with_replacement(PfuCount::Fixed(2), 0, PfuReplacement::Lru);
        b.request(1, 0);
        b.request(2, 1);
        b.request(1, 2);
        b.request(1, 3);
        b.request(3, 4);
        assert!(b.is_resident(1), "LRU must keep the hot configuration");
        assert!(!b.is_resident(2));
    }

    #[test]
    fn random_replacement_is_deterministic_and_valid() {
        let run = || {
            let mut a = PfuArray::with_replacement(PfuCount::Fixed(2), 0, PfuReplacement::Random);
            let mut trace = Vec::new();
            for t in 0..50u64 {
                a.request((t % 5) as u16, t);
                trace.push((0..5).map(|c| a.is_resident(c)).collect::<Vec<_>>());
            }
            (trace, a.stats())
        };
        let (t1, s1) = run();
        let (t2, s2) = run();
        assert_eq!(t1, t2, "same seed, same evictions");
        assert_eq!(s1, s2);
        // Exactly two configurations resident once both slots are filled.
        for snap in &t1[2..] {
            assert_eq!(snap.iter().filter(|&&r| r).count(), 2);
        }
    }

    #[test]
    fn request_outcome_reports_hits_loads_and_victims() {
        let mut a = PfuArray::new(PfuCount::Fixed(1), 10);
        assert_eq!(
            a.request_outcome(1, 0),
            PfuOutcome::Load {
                at: 10,
                evicted: None
            }
        );
        assert_eq!(a.request_outcome(1, 20), PfuOutcome::Hit { at: 20 });
        assert_eq!(
            a.request_outcome(2, 30),
            PfuOutcome::Load {
                at: 40,
                evicted: Some(1)
            }
        );
        let mut none = PfuArray::new(PfuCount::Fixed(0), 10);
        assert_eq!(none.request_outcome(1, 0), PfuOutcome::NoPfu);
    }

    #[test]
    fn reset_stats_keeps_residency() {
        let mut a = PfuArray::new(PfuCount::Fixed(2), 10);
        a.request(1, 0);
        a.request(1, 20);
        a.reset_stats();
        assert_eq!(a.stats(), PfuStats::default());
        assert!(a.is_resident(1), "residency must survive the reset");
        // Next request is a hit, counted from zero.
        assert_eq!(a.request(1, 30), PfuRequest::Ready { at: 30 });
        assert_eq!(a.stats().conf_hits, 1);
        assert_eq!(a.stats().reconfigurations, 0);
    }

    /// Regression guard for the `request`/`request_outcome` dedup: since
    /// `request` is a thin wrapper collapsing `request_outcome`, driving
    /// two identically-configured arrays through the same hit/miss/evict
    /// sequence via either entry point must agree at every step — same
    /// ready cycles, same residency, same statistics.
    #[test]
    fn request_and_request_outcome_agree_on_hit_miss_evict_sequences() {
        let configs = [
            (PfuCount::Fixed(0), 10, PfuReplacement::Lru),
            (PfuCount::Fixed(1), 10, PfuReplacement::Lru),
            (PfuCount::Fixed(2), 10, PfuReplacement::Lru),
            (PfuCount::Fixed(2), 0, PfuReplacement::Fifo),
            (PfuCount::Fixed(2), 7, PfuReplacement::Random),
            (PfuCount::Unlimited, 10, PfuReplacement::Lru),
        ];
        for (count, reconfig, policy) in configs {
            let mut via_request = PfuArray::with_replacement(count, reconfig, policy);
            let mut via_outcome = PfuArray::with_replacement(count, reconfig, policy);
            let mut now = 0u64;
            // A thrashing sequence over 5 confs: hits, misses and
            // evictions all occur on the 1- and 2-slot arrays.
            for t in 0..60u64 {
                let conf = (t % 5) as ConfId;
                let collapsed = via_request.request(conf, now);
                let detailed = via_outcome.request_outcome(conf, now);
                let expected = match detailed {
                    PfuOutcome::Hit { at } | PfuOutcome::Load { at, .. } => {
                        PfuRequest::Ready { at }
                    }
                    PfuOutcome::NoPfu => PfuRequest::NoPfu,
                };
                assert_eq!(
                    collapsed, expected,
                    "step {t} diverged under {count:?}/{policy:?}"
                );
                for c in 0..5 {
                    assert_eq!(
                        via_request.is_resident(c),
                        via_outcome.is_resident(c),
                        "residency of conf {c} diverged at step {t} under {count:?}/{policy:?}"
                    );
                }
                if let PfuRequest::Ready { at } = collapsed {
                    now = now.max(at) + 1;
                } else {
                    now += 1;
                }
            }
            assert_eq!(
                via_request.stats(),
                via_outcome.stats(),
                "stats diverged under {count:?}/{policy:?}"
            );
        }
    }

    #[test]
    fn lru_prefers_empty_slots() {
        let mut a = PfuArray::new(PfuCount::Fixed(3), 5);
        a.request(1, 0);
        a.request(2, 1);
        a.request(3, 2); // must land in the empty slot, keeping 1 and 2
        assert!(a.is_resident(1) && a.is_resident(2) && a.is_resident(3));
    }

    // ----------------------------------------------------------------
    // Config-plane model
    // ----------------------------------------------------------------

    #[test]
    fn double_buffer_keeps_active_conf_usable_during_load() {
        let mut a = PfuArray::new(PfuCount::Fixed(1), 10);
        a.set_planes(2);
        a.request(1, 0); // shadow load, lands at 10
        a.request(1, 20); // settles the swap; conf 1 active
        assert!(a.is_resident(1));
        // Miss on conf 2: load goes to the shadow plane, conf 1 stays
        // usable until the load lands.
        assert_eq!(
            a.request_outcome(2, 30),
            PfuOutcome::Load {
                at: 40,
                evicted: Some(1)
            }
        );
        assert_eq!(a.request_outcome(1, 35), PfuOutcome::Hit { at: 35 });
        // Once the load lands, the planes swap and conf 1 is gone.
        a.request(2, 50);
        assert!(a.is_resident(2));
        assert!(!a.is_resident(1));
    }

    #[test]
    fn prefetch_hides_the_whole_reload_when_early_enough() {
        let mut a = PfuArray::new(PfuCount::Fixed(2), 10);
        a.set_planes(2);
        assert_eq!(a.prefetch(1, 0), Some(10));
        // Demanded after the load landed: a plain hit, fully hidden.
        assert_eq!(a.request_outcome(1, 25), PfuOutcome::Hit { at: 25 });
        let s = a.stats();
        assert_eq!(s.prefetch_hits, 1);
        assert_eq!(s.hidden_reload_cycles, 10);
        assert_eq!(s.exposed_reload_cycles, 0);
        assert_eq!(s.reconfigurations, 1);
    }

    #[test]
    fn prefetch_demanded_mid_flight_splits_hidden_and_exposed() {
        let mut a = PfuArray::new(PfuCount::Fixed(2), 10);
        a.set_planes(2);
        assert_eq!(a.prefetch(1, 0), Some(10));
        // Demanded at 4: 4 cycles overlapped, 6 remain exposed.
        assert_eq!(a.request_outcome(1, 4), PfuOutcome::Hit { at: 10 });
        let s = a.stats();
        assert_eq!(s.prefetch_hits, 1);
        assert_eq!(s.hidden_reload_cycles, 4);
        assert_eq!(s.exposed_reload_cycles, 6);
    }

    #[test]
    fn single_plane_prefetch_fills_only_empty_pfus() {
        let mut a = PfuArray::new(PfuCount::Fixed(2), 10);
        a.request(1, 0);
        a.request(2, 1);
        // Both PFUs occupied: a single-plane machine cannot prefetch.
        assert_eq!(a.prefetch(3, 5), None);
        let mut b = PfuArray::new(PfuCount::Fixed(2), 10);
        b.request(1, 0);
        assert_eq!(b.prefetch(2, 5), Some(15));
        // Mid-flight demand of the prefetched conf waits out the rest.
        assert_eq!(b.request_outcome(2, 8), PfuOutcome::Hit { at: 15 });
        let s = b.stats();
        assert_eq!(s.prefetch_hits, 1);
        assert_eq!(s.hidden_reload_cycles, 3);
        assert_eq!(s.exposed_reload_cycles, 10 + 7);
    }

    #[test]
    fn prefetch_of_resident_or_in_flight_conf_is_a_no_op() {
        let mut a = PfuArray::new(PfuCount::Fixed(2), 10);
        a.set_planes(2);
        a.request(1, 0);
        assert_eq!(a.prefetch(1, 2), None, "already loading");
        a.request(1, 20);
        assert_eq!(a.prefetch(1, 25), None, "already resident");
        assert_eq!(a.stats().reconfigurations, 1);
    }

    #[test]
    fn unlimited_mode_prefetch_loads_once_and_hits_on_demand() {
        let mut a = PfuArray::new(PfuCount::Unlimited, 10);
        assert_eq!(a.prefetch(3, 0), Some(10));
        assert_eq!(a.prefetch(3, 1), None, "pending prefetch deduplicates");
        assert_eq!(a.request_outcome(3, 12), PfuOutcome::Hit { at: 12 });
        assert_eq!(a.request_outcome(3, 13), PfuOutcome::Hit { at: 13 });
        let s = a.stats();
        assert_eq!(s.reconfigurations, 1);
        assert_eq!(s.prefetch_hits, 1);
        assert_eq!(s.hidden_reload_cycles, 10);
    }

    #[test]
    fn per_conf_load_cycles_override_the_flat_scalar() {
        let mut a = PfuArray::new(PfuCount::Fixed(2), 10);
        a.set_load_cycles(vec![3, 25]);
        assert_eq!(a.request(0, 0), PfuRequest::Ready { at: 3 });
        assert_eq!(a.request(1, 10), PfuRequest::Ready { at: 35 });
        // Confs beyond the table fall back to the flat reconfig_cycles.
        assert_eq!(a.request(7, 100), PfuRequest::Ready { at: 110 });
        assert_eq!(a.stats().exposed_reload_cycles, 3 + 25 + 10);
    }

    #[test]
    fn stream_words_accumulate_from_the_table() {
        let mut a = PfuArray::new(PfuCount::Fixed(1), 10);
        a.set_stream_words(vec![40, 60]);
        a.request(0, 0);
        a.request(1, 100); // evicts conf 0
        a.request(0, 200); // reloads conf 0
        assert_eq!(a.stats().stream_words, 40 + 60 + 40);
    }

    #[test]
    fn compressed_reload_cycles_rounds_up_and_floors_at_one() {
        assert_eq!(compressed_reload_cycles(100, 0.25), 25);
        assert_eq!(compressed_reload_cycles(10, 0.24), 3);
        assert_eq!(compressed_reload_cycles(10, 1.0), 10);
        assert_eq!(compressed_reload_cycles(0, 0.5), 1);
        assert_eq!(compressed_reload_cycles(1, 0.01), 1);
    }

    /// The config-plane defaults must reproduce the flat model exactly:
    /// an array with `planes == 1`, no prefetch and no latency table is
    /// driven through a thrashing sequence and must agree step-for-step
    /// with the documented flat arithmetic.
    #[test]
    fn default_knobs_reproduce_the_flat_model() {
        for policy in [
            PfuReplacement::Lru,
            PfuReplacement::Fifo,
            PfuReplacement::Random,
        ] {
            let mut a = PfuArray::with_replacement(PfuCount::Fixed(2), 9, policy);
            let mut now = 0u64;
            let mut expect_exposed = 0u64;
            for t in 0..40u64 {
                let conf = (t % 3) as ConfId;
                let before = a.stats().reconfigurations;
                match a.request_outcome(conf, now) {
                    PfuOutcome::Hit { at } => now = at + 1,
                    PfuOutcome::Load { at, .. } => {
                        assert_eq!(at, now + 9, "flat latency under {policy:?}");
                        expect_exposed += 9;
                        now = at + 1;
                    }
                    PfuOutcome::NoPfu => panic!(),
                }
                let _ = before;
            }
            let s = a.stats();
            assert_eq!(s.exposed_reload_cycles, expect_exposed);
            assert_eq!(s.hidden_reload_cycles, 0);
            assert_eq!(s.prefetch_hits, 0);
            assert_eq!(s.stream_words, 0);
        }
    }
}
