//! The full simulated memory system: split L1 caches, unified L2, and
//! I/D TLBs, with the latency parameters of the paper's evaluation machine
//! (realistic instruction, data and second-level unified caches plus
//! instruction and data TLBs, §3.1).

use crate::cache::{Cache, CacheConfig, CacheStats, Replacement};
use crate::tlb::{Tlb, TlbStats};

/// Latency and geometry parameters for the whole hierarchy.
#[derive(Clone, Copy, Debug)]
pub struct MemConfig {
    pub il1: CacheConfig,
    pub dl1: CacheConfig,
    pub ul2: CacheConfig,
    /// L1 hit latency in cycles.
    pub l1_hit: u32,
    /// L2 hit latency in cycles (on an L1 miss).
    pub l2_hit: u32,
    /// Main-memory latency in cycles (on an L2 miss).
    pub mem_latency: u32,
    /// TLB entries (each of I and D).
    pub tlb_entries: usize,
    /// Page size in bytes.
    pub page_bytes: u32,
    /// TLB miss penalty in cycles.
    pub tlb_miss: u32,
}

impl Default for MemConfig {
    /// The evaluation machine of §3: 16 KiB 2-way L1 I, 16 KiB 4-way L1 D,
    /// 256 KiB 4-way unified L2, 64-entry TLBs over 4 KiB pages.
    fn default() -> MemConfig {
        MemConfig {
            il1: CacheConfig {
                sets: 256,
                ways: 2,
                line_bytes: 32,
                replacement: Replacement::Lru,
                write_back: false,
            },
            dl1: CacheConfig {
                sets: 128,
                ways: 4,
                line_bytes: 32,
                replacement: Replacement::Lru,
                write_back: true,
            },
            ul2: CacheConfig {
                sets: 1024,
                ways: 4,
                line_bytes: 64,
                replacement: Replacement::Lru,
                write_back: true,
            },
            l1_hit: 1,
            l2_hit: 6,
            mem_latency: 40,
            tlb_entries: 64,
            page_bytes: 4096,
            tlb_miss: 30,
        }
    }
}

/// Aggregate statistics snapshot for reporting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemStats {
    pub il1: CacheStats,
    pub dl1: CacheStats,
    pub ul2: CacheStats,
    pub itlb: TlbStats,
    pub dtlb: TlbStats,
}

/// The memory hierarchy timing model. Data contents live elsewhere
/// ([`crate::memory::Memory`]); this answers one question: *how many cycles
/// does this access take?*
///
/// `Clone` copies the whole timing state, every cache line and TLB
/// entry included. The CPU's replay fast path never clones it: replay
/// performs every access on the one live hierarchy, so its state and
/// statistics are exact by construction.
#[derive(Clone)]
pub struct MemHierarchy {
    cfg: MemConfig,
    il1: Cache,
    dl1: Cache,
    ul2: Cache,
    itlb: Tlb,
    dtlb: Tlb,
}

impl MemHierarchy {
    /// Builds the hierarchy.
    pub fn new(cfg: MemConfig) -> MemHierarchy {
        MemHierarchy {
            il1: Cache::new(cfg.il1),
            dl1: Cache::new(cfg.dl1),
            ul2: Cache::new(cfg.ul2),
            itlb: Tlb::new(cfg.tlb_entries, cfg.page_bytes),
            dtlb: Tlb::new(cfg.tlb_entries, cfg.page_bytes),
            cfg,
        }
    }

    /// The configuration this hierarchy was built with.
    pub fn config(&self) -> &MemConfig {
        &self.cfg
    }

    /// Latency of an instruction fetch at `addr`.
    pub fn fetch(&mut self, addr: u32) -> u32 {
        let mut cycles = if self.itlb.access(addr) {
            0
        } else {
            self.cfg.tlb_miss
        };
        let l1 = self.il1.access(addr, false);
        cycles += self.cfg.l1_hit;
        if !l1.hit {
            cycles += self.level2(addr, false);
        }
        cycles
    }

    /// Latency of a data access at `addr`.
    pub fn data(&mut self, addr: u32, is_write: bool) -> u32 {
        let mut cycles = if self.dtlb.access(addr) {
            0
        } else {
            self.cfg.tlb_miss
        };
        let l1 = self.dl1.access(addr, is_write);
        cycles += self.cfg.l1_hit;
        if !l1.hit {
            cycles += self.level2(addr, is_write);
        }
        if let Some(victim) = l1.writeback_of {
            // Dirty L1 victim written into L2; charged to the L2's port,
            // not this access's latency (write buffers hide it).
            let _ = self.ul2.access(victim, true);
        }
        cycles
    }

    fn level2(&mut self, addr: u32, is_write: bool) -> u32 {
        let l2 = self.ul2.access(addr, is_write);
        if l2.hit {
            self.cfg.l2_hit
        } else {
            self.cfg.l2_hit + self.cfg.mem_latency
        }
    }

    /// Snapshot of all component statistics.
    pub fn stats(&self) -> MemStats {
        MemStats {
            il1: self.il1.stats(),
            dl1: self.dl1.stats(),
            ul2: self.ul2.stats(),
            itlb: self.itlb.stats(),
            dtlb: self.dtlb.stats(),
        }
    }

    /// Resets every component's statistics (cache and TLB contents are
    /// preserved). Lets one hierarchy instance measure consecutive runs
    /// without counters leaking across them; the complement of
    /// [`MemHierarchy::flush`].
    pub fn reset_stats(&mut self) {
        self.il1.reset_stats();
        self.dl1.reset_stats();
        self.ul2.reset_stats();
        self.itlb.reset_stats();
        self.dtlb.reset_stats();
    }

    /// Invalidates all caches and TLBs (statistics are kept).
    pub fn flush(&mut self) {
        self.il1.flush();
        self.dl1.flush();
        self.ul2.flush();
        self.itlb.flush();
        self.dtlb.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_fetch_pays_full_path_then_hits() {
        let mut m = MemHierarchy::new(MemConfig::default());
        let cold = m.fetch(0x0040_0000);
        // TLB miss + L1 hit latency + L2 miss path.
        assert_eq!(cold, 30 + 1 + 6 + 40);
        let warm = m.fetch(0x0040_0004);
        assert_eq!(warm, 1, "same line, same page: L1 hit");
    }

    #[test]
    fn l2_catches_l1_misses_within_its_capacity() {
        let mut m = MemHierarchy::new(MemConfig::default());
        m.data(0x1000_0000, false); // cold everywhere
                                    // Evict from L1 D by touching many conflicting lines...
        for i in 1..=4 {
            m.data(0x1000_0000 + i * (128 * 32), false);
        }
        let latency = m.data(0x1000_0000, false);
        assert_eq!(latency, 1 + 6, "L1 miss, L2 hit");
    }

    #[test]
    fn stats_accumulate_per_component() {
        let mut m = MemHierarchy::new(MemConfig::default());
        m.fetch(0x0040_0000);
        m.data(0x1000_0000, true);
        m.data(0x1000_0004, false);
        let s = m.stats();
        assert_eq!(s.il1.accesses, 1);
        assert_eq!(s.dl1.accesses, 2);
        assert_eq!(s.dl1.hits, 1);
        assert_eq!(s.itlb.accesses, 1);
        assert_eq!(s.dtlb.misses, 1);
    }

    #[test]
    fn reset_stats_clears_every_component_but_keeps_contents() {
        let mut m = MemHierarchy::new(MemConfig::default());
        m.fetch(0x0040_0000);
        m.data(0x1000_0000, true);
        m.reset_stats();
        let s = m.stats();
        assert_eq!((s.il1.accesses, s.dl1.accesses, s.ul2.accesses), (0, 0, 0));
        assert_eq!((s.itlb.accesses, s.dtlb.accesses), (0, 0));
        assert_eq!((s.itlb.misses, s.dtlb.misses), (0, 0));
        // Contents survive: the same line and page now hit everywhere.
        assert_eq!(m.fetch(0x0040_0000), 1);
        assert_eq!(m.data(0x1000_0000, false), 1);
        let s = m.stats();
        assert_eq!((s.il1.misses, s.dl1.misses), (0, 0));
    }

    #[test]
    fn default_geometry_matches_paper_machine() {
        let cfg = MemConfig::default();
        assert_eq!(cfg.il1.capacity(), 16 * 1024);
        assert_eq!(cfg.dl1.capacity(), 16 * 1024);
        assert_eq!(cfg.ul2.capacity(), 256 * 1024);
    }
}
