//! Tag-only set-associative cache model.
//!
//! Like SimpleScalar's cache module, this models *timing state* only — the
//! actual bytes live in [`crate::memory::Memory`]. A cache is a set of tag
//! arrays with a replacement policy and write-back dirty bits; `access`
//! reports hit/miss plus any victim write-back, and the caller composes
//! levels into a hierarchy.

/// Replacement policy for a cache set.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Replacement {
    /// Least-recently-used.
    Lru,
    /// First-in-first-out (fill order).
    Fifo,
    /// Pseudo-random (xorshift over an internal seed, deterministic).
    Random,
}

/// Static cache geometry and behaviour.
#[derive(Clone, Copy, Debug)]
pub struct CacheConfig {
    /// Number of sets (power of two).
    pub sets: u32,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Line size in bytes (power of two).
    pub line_bytes: u32,
    /// Replacement policy.
    pub replacement: Replacement,
    /// Whether stores allocate/dirty lines (write-back, write-allocate)
    /// rather than passing through.
    pub write_back: bool,
}

impl CacheConfig {
    /// Total capacity in bytes.
    pub fn capacity(&self) -> u32 {
        self.sets * self.ways * self.line_bytes
    }
}

/// Hit/miss statistics.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct CacheStats {
    pub accesses: u64,
    pub hits: u64,
    pub misses: u64,
    pub writebacks: u64,
}

impl CacheStats {
    /// Miss ratio in [0, 1]; zero when there were no accesses.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// Outcome of one cache access.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AccessResult {
    pub hit: bool,
    /// Address of a dirty victim line that must be written back, if any.
    pub writeback_of: Option<u32>,
}

#[derive(Clone, Copy, Default)]
struct Line {
    valid: bool,
    dirty: bool,
    tag: u32,
    /// LRU timestamp or FIFO fill order.
    stamp: u64,
}

/// A set-associative cache.
pub struct Cache {
    cfg: CacheConfig,
    lines: Vec<Line>,
    stats: CacheStats,
    tick: u64,
    rng: u64,
}

impl Clone for Cache {
    fn clone(&self) -> Cache {
        Cache {
            lines: self.lines.clone(),
            ..*self
        }
    }

    /// Copies into the existing line array: the replay fast path
    /// re-snapshots the caches at observed loop boundaries, and reusing
    /// the allocation keeps that from churning the allocator.
    fn clone_from(&mut self, src: &Cache) {
        self.lines.clone_from(&src.lines);
        self.cfg = src.cfg;
        self.stats = src.stats;
        self.tick = src.tick;
        self.rng = src.rng;
    }
}

impl Cache {
    /// Builds a cache.
    ///
    /// # Panics
    /// Panics unless `sets` and `line_bytes` are powers of two and `ways ≥ 1`.
    pub fn new(cfg: CacheConfig) -> Cache {
        assert!(cfg.sets.is_power_of_two(), "sets must be a power of two");
        assert!(
            cfg.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(cfg.ways >= 1, "associativity must be at least 1");
        Cache {
            cfg,
            lines: vec![Line::default(); (cfg.sets * cfg.ways) as usize],
            stats: CacheStats::default(),
            tick: 0,
            rng: 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets statistics (tags are preserved).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    fn set_index(&self, addr: u32) -> u32 {
        (addr / self.cfg.line_bytes) & (self.cfg.sets - 1)
    }

    fn tag(&self, addr: u32) -> u32 {
        addr / self.cfg.line_bytes / self.cfg.sets
    }

    fn line_base(&self, set: u32, tag: u32) -> u32 {
        (tag * self.cfg.sets + set) * self.cfg.line_bytes
    }

    fn next_random(&mut self) -> u64 {
        // xorshift64*: deterministic, decent distribution, no dependency.
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Performs one access. On a miss the line is filled (and a victim
    /// chosen by the replacement policy); the dirty victim's address, if
    /// any, is returned so the caller can charge a write-back.
    pub fn access(&mut self, addr: u32, is_write: bool) -> AccessResult {
        self.stats.accesses += 1;
        self.tick += 1;
        let set = self.set_index(addr);
        let tag = self.tag(addr);
        let base = (set * self.cfg.ways) as usize;
        let nways = self.cfg.ways as usize;

        if let Some(i) =
            (0..nways).find(|&i| self.lines[base + i].valid && self.lines[base + i].tag == tag)
        {
            self.stats.hits += 1;
            if self.cfg.replacement == Replacement::Lru {
                self.lines[base + i].stamp = self.tick;
            }
            if is_write && self.cfg.write_back {
                self.lines[base + i].dirty = true;
            }
            return AccessResult {
                hit: true,
                writeback_of: None,
            };
        }

        self.stats.misses += 1;
        // Choose a victim: first invalid way, else by policy.
        let victim_idx = match (0..nways).find(|&i| !self.lines[base + i].valid) {
            Some(i) => i,
            None => match self.cfg.replacement {
                Replacement::Lru | Replacement::Fifo => (0..nways)
                    .min_by_key(|&i| self.lines[base + i].stamp)
                    .unwrap(),
                Replacement::Random => {
                    let r = self.next_random();
                    (r % self.cfg.ways as u64) as usize
                }
            },
        };
        let victim = self.lines[base + victim_idx];
        let writeback_of = (victim.valid && victim.dirty).then(|| self.line_base(set, victim.tag));
        if writeback_of.is_some() {
            self.stats.writebacks += 1;
        }
        self.lines[base + victim_idx] = Line {
            valid: true,
            dirty: is_write && self.cfg.write_back,
            tag,
            stamp: self.tick,
        };
        AccessResult {
            hit: false,
            writeback_of,
        }
    }

    /// Invalidates every line (statistics are kept).
    pub fn flush(&mut self) {
        for l in &mut self.lines {
            *l = Line::default();
        }
    }

    /// Steady-state equivalence check for the CPU's hot-loop replay fast
    /// path. Returns `true` when `self` is `base` advanced by one
    /// *event-free* period: every access since `base` hit (no misses, no
    /// write-backs, so tags, dirty bits and the rng are untouched), and
    /// every LRU stamp either shifted uniformly by the access delta
    /// (lines touched during the period) or stayed put at a value not
    /// newer than `base` (lines the period never touched). Under these
    /// conditions replaying the period any number of times leaves the
    /// cache in a state reachable by [`Cache::fast_forward`].
    pub fn steady_eq(&self, base: &Cache) -> bool {
        let Some(dticks) = self.tick.checked_sub(base.tick) else {
            return false;
        };
        if self.stats.accesses != base.stats.accesses + dticks
            || self.stats.misses != base.stats.misses
            || self.stats.writebacks != base.stats.writebacks
            || self.rng != base.rng
            || self.lines.len() != base.lines.len()
        {
            return false;
        }
        self.lines.iter().zip(&base.lines).all(|(l, b)| {
            l.valid == b.valid
                && l.dirty == b.dirty
                && l.tag == b.tag
                && (l.stamp == b.stamp + dticks || (l.stamp == b.stamp && b.stamp <= base.tick))
        })
    }

    /// Advances this cache by `iters` additional repetitions of the
    /// event-free period between `base` and `self` (which must satisfy
    /// [`Cache::steady_eq`]): stamps of lines touched during the period
    /// shift uniformly, untouched lines keep their stale stamps, and the
    /// hit counters advance by the period's access count. The result is
    /// bit-identical to simulating the period `iters` more times.
    pub fn fast_forward(&mut self, base: &Cache, iters: u64) {
        let dticks = self.tick - base.tick;
        let shift = dticks * iters;
        for l in &mut self.lines {
            if l.stamp > base.tick {
                l.stamp += shift;
            }
        }
        self.tick += shift;
        self.stats.accesses += shift;
        self.stats.hits += shift;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(ways: u32, replacement: Replacement) -> Cache {
        Cache::new(CacheConfig {
            sets: 2,
            ways,
            line_bytes: 16,
            replacement,
            write_back: true,
        })
    }

    #[test]
    fn capacity_is_product_of_geometry() {
        let c = tiny(2, Replacement::Lru);
        assert_eq!(c.config().capacity(), 2 * 2 * 16);
    }

    #[test]
    fn repeated_access_hits() {
        let mut c = tiny(1, Replacement::Lru);
        assert!(!c.access(0x100, false).hit);
        assert!(c.access(0x100, false).hit);
        assert!(c.access(0x10c, false).hit); // same line
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny(2, Replacement::Lru);
        // Set 0 lines: line addresses where (addr/16) % 2 == 0.
        c.access(0x00, false); // A
        c.access(0x20, false); // B
        c.access(0x00, false); // touch A → B is LRU
        c.access(0x40, false); // C evicts B
        assert!(c.access(0x00, false).hit, "A must survive");
        assert!(!c.access(0x20, false).hit, "B must have been evicted");
    }

    #[test]
    fn fifo_evicts_first_filled_even_if_recently_used() {
        let mut c = tiny(2, Replacement::Fifo);
        c.access(0x00, false); // A filled first
        c.access(0x20, false); // B
        c.access(0x00, false); // touching A does not help under FIFO
        c.access(0x40, false); // C evicts A
        assert!(!c.access(0x00, false).hit, "FIFO must evict A");
    }

    #[test]
    fn dirty_victims_produce_writebacks() {
        let mut c = tiny(1, Replacement::Lru);
        c.access(0x00, true); // dirty A in set 0
        let r = c.access(0x40, false); // evicts A
        assert_eq!(r.writeback_of, Some(0x00));
        assert_eq!(c.stats().writebacks, 1);
        // Clean eviction → no writeback.
        let r = c.access(0x80, false);
        assert_eq!(r.writeback_of, None);
    }

    #[test]
    fn writes_do_not_dirty_write_through_caches() {
        let mut c = Cache::new(CacheConfig {
            sets: 1,
            ways: 1,
            line_bytes: 16,
            replacement: Replacement::Lru,
            write_back: false,
        });
        c.access(0x00, true);
        let r = c.access(0x10, false);
        assert_eq!(r.writeback_of, None);
    }

    #[test]
    fn stats_are_consistent() {
        let mut c = tiny(2, Replacement::Random);
        for i in 0..1000u32 {
            c.access(i * 8, i % 3 == 0);
        }
        let s = c.stats();
        assert_eq!(s.accesses, 1000);
        assert_eq!(s.hits + s.misses, s.accesses);
        assert!(s.miss_rate() > 0.0 && s.miss_rate() <= 1.0);
    }

    #[test]
    fn flush_invalidates_everything() {
        let mut c = tiny(2, Replacement::Lru);
        c.access(0x00, false);
        c.flush();
        assert!(!c.access(0x00, false).hit);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_rejected() {
        Cache::new(CacheConfig {
            sets: 3,
            ways: 1,
            line_bytes: 16,
            replacement: Replacement::Lru,
            write_back: true,
        });
    }
}
