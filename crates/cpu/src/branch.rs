//! Branch prediction models.
//!
//! The paper's evaluation machine uses *perfect* branch prediction (§3.1).
//! To study how sensitive the PFU speedups are to that assumption, the
//! simulator also offers the classic static heuristic (backward taken /
//! forward not-taken), a bimodal predictor (a table of 2-bit saturating
//! counters indexed by branch PC) and a gshare predictor (counters indexed
//! by PC xor global history), each with a fixed misprediction redirect
//! penalty. Unconditional jumps and calls are always predicted; indirect
//! jumps (`jr`) are assumed to be returns handled by a perfect
//! return-address stack.

/// Which predictor the fetch stage consults.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum BranchModel {
    /// Fetch always follows the committed path (the paper's assumption).
    #[default]
    Perfect,
    /// Static backward-taken / forward-not-taken: loop-closing branches
    /// (negative displacement) predict taken, forward branches predict
    /// not-taken. No state.
    Static {
        /// Cycles fetch stalls after a misprediction.
        penalty: u32,
    },
    /// Bimodal 2-bit counters.
    Bimodal {
        /// Table entries (power of two).
        entries: u32,
        /// Cycles fetch stalls after a misprediction.
        penalty: u32,
    },
    /// Gshare: 2-bit counters indexed by PC xor a global branch-history
    /// shift register (history length = log2(entries)).
    Gshare {
        /// Table entries (power of two).
        entries: u32,
        /// Cycles fetch stalls after a misprediction.
        penalty: u32,
    },
}

/// Prediction statistics.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct BranchStats {
    /// Conditional branches fetched.
    pub branches: u64,
    /// Mispredicted conditional branches.
    pub mispredictions: u64,
}

impl BranchStats {
    /// Fraction of conditional branches predicted correctly.
    pub fn accuracy(&self) -> f64 {
        if self.branches == 0 {
            1.0
        } else {
            1.0 - self.mispredictions as f64 / self.branches as f64
        }
    }
}

/// Runtime predictor state.
#[derive(Clone)]
pub struct Predictor {
    model: BranchModel,
    /// 2-bit counters (0..=3; ≥2 predicts taken). Initialised weakly taken
    /// (2) — loop branches warm up instantly.
    counters: Vec<u8>,
    /// Global branch-history shift register (gshare only): bit 0 is the
    /// most recent branch outcome, 1 = taken.
    history: u32,
    stats: BranchStats,
}

impl Predictor {
    /// Builds a predictor for the chosen model.
    ///
    /// # Panics
    /// Panics if a bimodal/gshare table size is not a power of two.
    pub fn new(model: BranchModel) -> Predictor {
        let counters = match model {
            BranchModel::Perfect | BranchModel::Static { .. } => Vec::new(),
            BranchModel::Bimodal { entries, .. } | BranchModel::Gshare { entries, .. } => {
                assert!(
                    entries.is_power_of_two(),
                    "predictor entries must be a power of two"
                );
                vec![2u8; entries as usize]
            }
        };
        Predictor {
            model,
            counters,
            history: 0,
            stats: BranchStats::default(),
        }
    }

    /// Records one conditional branch at `pc` with actual direction
    /// `taken` (`backward` = negative displacement, i.e. a loop-closing
    /// branch); returns the misprediction penalty to charge (0 on a
    /// correct prediction or under perfect prediction).
    pub fn observe(&mut self, pc: u32, taken: bool, backward: bool) -> u32 {
        self.stats.branches += 1;
        match self.model {
            BranchModel::Perfect => 0,
            BranchModel::Static { penalty } => {
                // Backward taken, forward not-taken.
                if backward == taken {
                    0
                } else {
                    self.stats.mispredictions += 1;
                    penalty
                }
            }
            BranchModel::Bimodal { entries, penalty } => {
                let idx = ((pc >> 2) & (entries - 1)) as usize;
                self.update_counter(idx, taken, penalty)
            }
            BranchModel::Gshare { entries, penalty } => {
                let idx = (((pc >> 2) ^ self.history) & (entries - 1)) as usize;
                let p = self.update_counter(idx, taken, penalty);
                // Shift the outcome into the global history, keeping only
                // the index-width bits that can reach the table.
                self.history = ((self.history << 1) | taken as u32) & (entries - 1);
                p
            }
        }
    }

    /// Predict-update step on counter `idx`; returns the penalty charged.
    fn update_counter(&mut self, idx: usize, taken: bool, penalty: u32) -> u32 {
        let ctr = &mut self.counters[idx];
        let predicted = *ctr >= 2;
        if taken {
            *ctr = (*ctr + 1).min(3);
        } else {
            *ctr = ctr.saturating_sub(1);
        }
        if predicted == taken {
            0
        } else {
            self.stats.mispredictions += 1;
            penalty
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> BranchStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_never_mispredicts() {
        let mut p = Predictor::new(BranchModel::Perfect);
        for i in 0..100 {
            assert_eq!(p.observe(0x400000 + i * 4, i % 3 == 0, false), 0);
        }
        assert_eq!(p.stats().mispredictions, 0);
        assert_eq!(p.stats().branches, 100);
        assert_eq!(p.stats().accuracy(), 1.0);
    }

    #[test]
    fn bimodal_learns_a_loop_branch() {
        let mut p = Predictor::new(BranchModel::Bimodal {
            entries: 64,
            penalty: 5,
        });
        let mut penalty = 0;
        // A loop branch taken 99 times then falling through once.
        for _ in 0..99 {
            penalty += p.observe(0x400100, true, true);
        }
        penalty += p.observe(0x400100, false, true);
        // Weakly-taken init: no warm-up misses; exactly the exit mispredicts.
        assert_eq!(penalty, 5);
        assert_eq!(p.stats().mispredictions, 1);
        assert!(p.stats().accuracy() > 0.98);
    }

    #[test]
    fn bimodal_struggles_with_alternating_branches() {
        let mut p = Predictor::new(BranchModel::Bimodal {
            entries: 64,
            penalty: 5,
        });
        let mut misses = 0;
        for i in 0..100 {
            if p.observe(0x400200, i % 2 == 0, false) > 0 {
                misses += 1;
            }
        }
        assert!(
            misses >= 45,
            "alternation defeats a bimodal predictor, got {misses}"
        );
    }

    #[test]
    fn distinct_branches_use_distinct_counters() {
        let mut p = Predictor::new(BranchModel::Bimodal {
            entries: 64,
            penalty: 5,
        });
        // Train one branch strongly not-taken...
        for _ in 0..10 {
            p.observe(0x400300, false, false);
        }
        // ...a different branch is unaffected (still weakly taken).
        assert_eq!(p.observe(0x400304, true, false), 0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_table_size_panics() {
        Predictor::new(BranchModel::Bimodal {
            entries: 100,
            penalty: 5,
        });
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_gshare_table_size_panics() {
        Predictor::new(BranchModel::Gshare {
            entries: 48,
            penalty: 5,
        });
    }

    #[test]
    fn static_predicts_backward_taken_forward_not_taken() {
        let mut p = Predictor::new(BranchModel::Static { penalty: 3 });
        // Loop branch: backward and taken — correct.
        assert_eq!(p.observe(0x400100, true, true), 0);
        // Loop exit: backward but not taken — mispredicted.
        assert_eq!(p.observe(0x400100, false, true), 3);
        // Forward guard not taken — correct.
        assert_eq!(p.observe(0x400200, false, false), 0);
        // Forward branch taken — mispredicted.
        assert_eq!(p.observe(0x400200, true, false), 3);
        assert_eq!(p.stats().branches, 4);
        assert_eq!(p.stats().mispredictions, 2);
    }

    #[test]
    fn gshare_learns_an_alternating_pattern_bimodal_cannot() {
        let run = |model| {
            let mut p = Predictor::new(model);
            let mut misses = 0u32;
            for i in 0..200 {
                if p.observe(0x400200, i % 2 == 0, false) > 0 {
                    misses += 1;
                }
            }
            misses
        };
        let gshare = run(BranchModel::Gshare {
            entries: 64,
            penalty: 5,
        });
        let bimodal = run(BranchModel::Bimodal {
            entries: 64,
            penalty: 5,
        });
        // With the last outcome in the index, the alternating pattern maps
        // to two counters that each see a constant direction.
        assert!(
            gshare < 10,
            "gshare should lock onto alternation, missed {gshare}"
        );
        assert!(bimodal >= 90, "bimodal must keep missing, got {bimodal}");
    }

    #[test]
    fn gshare_history_separates_correlated_paths() {
        // Branch B is taken exactly when the previous branch was taken.
        let mut p = Predictor::new(BranchModel::Gshare {
            entries: 256,
            penalty: 5,
        });
        let mut misses = 0u32;
        for i in 0..300 {
            let a_taken = i % 3 == 0;
            p.observe(0x400400, a_taken, false);
            if p.observe(0x400404, a_taken, false) > 0 && i > 20 {
                misses += 1;
            }
        }
        assert!(
            misses < 15,
            "gshare should exploit the correlation, missed {misses}"
        );
    }
}
