//! Translation lookaside buffer model.
//!
//! The simulated machine uses flat translation (virtual = physical), so the
//! TLB exists purely to charge miss penalties, mirroring SimpleScalar's
//! `sim-outorder` TLBs. A TLB is a fully-associative LRU array of page
//! numbers.

/// TLB statistics.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct TlbStats {
    pub accesses: u64,
    pub misses: u64,
}

impl TlbStats {
    /// Miss ratio in [0, 1].
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// A fully-associative, LRU translation lookaside buffer.
#[derive(Clone)]
pub struct Tlb {
    entries: Vec<(u32, u64)>, // (virtual page number, LRU stamp)
    capacity: usize,
    page_shift: u32,
    tick: u64,
    stats: TlbStats,
}

impl Tlb {
    /// Builds a TLB with `entries` slots over pages of `page_bytes`.
    ///
    /// # Panics
    /// Panics unless `page_bytes` is a power of two and `entries ≥ 1`.
    pub fn new(entries: usize, page_bytes: u32) -> Tlb {
        assert!(
            page_bytes.is_power_of_two(),
            "page size must be a power of two"
        );
        assert!(entries >= 1);
        Tlb {
            entries: Vec::with_capacity(entries),
            capacity: entries,
            page_shift: page_bytes.trailing_zeros(),
            tick: 0,
            stats: TlbStats::default(),
        }
    }

    /// Looks up the page containing `addr`; returns `true` on a hit. A miss
    /// installs the translation (evicting the LRU entry when full).
    pub fn access(&mut self, addr: u32) -> bool {
        self.stats.accesses += 1;
        self.tick += 1;
        let vpn = addr >> self.page_shift;
        if let Some(e) = self.entries.iter_mut().find(|(p, _)| *p == vpn) {
            e.1 = self.tick;
            return true;
        }
        self.stats.misses += 1;
        if self.entries.len() == self.capacity {
            let lru = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, s))| *s)
                .map(|(i, _)| i)
                .unwrap();
            self.entries.swap_remove(lru);
        }
        self.entries.push((vpn, self.tick));
        false
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    /// Resets statistics (translations are preserved), matching
    /// [`Cache::reset_stats`](crate::cache::Cache::reset_stats).
    pub fn reset_stats(&mut self) {
        self.stats = TlbStats::default();
    }

    /// Drops all translations (statistics are kept).
    pub fn flush(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_page_hits_after_first_touch() {
        let mut t = Tlb::new(4, 4096);
        assert!(!t.access(0x1000));
        assert!(t.access(0x1ffc));
        assert!(!t.access(0x2000));
        assert_eq!(t.stats().misses, 2);
        assert_eq!(t.stats().accesses, 3);
    }

    #[test]
    fn lru_entry_is_evicted_when_full() {
        let mut t = Tlb::new(2, 4096);
        t.access(0x1000); // A
        t.access(0x2000); // B
        t.access(0x1000); // touch A
        t.access(0x3000); // C evicts B
        assert!(t.access(0x1000), "A survives");
        assert!(!t.access(0x2000), "B was evicted");
    }

    #[test]
    fn flush_forgets_translations() {
        let mut t = Tlb::new(4, 4096);
        t.access(0x1000);
        t.flush();
        assert!(!t.access(0x1000));
    }

    #[test]
    fn reset_stats_keeps_translations() {
        let mut t = Tlb::new(4, 4096);
        t.access(0x1000);
        t.reset_stats();
        assert_eq!(t.stats(), TlbStats::default());
        assert!(t.access(0x1000), "translation must survive the reset");
        assert_eq!(t.stats().accesses, 1);
        assert_eq!(t.stats().misses, 0);
    }

    #[test]
    fn miss_rate_is_sane() {
        let mut t = Tlb::new(1, 4096);
        for i in 0..10 {
            t.access(i * 4096);
        }
        assert_eq!(t.stats().miss_rate(), 1.0);
    }
}
