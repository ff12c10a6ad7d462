//! Branch-predictor model for the instrumented branch chains.
//!
//! Figure 10's key effect: when a test exhibits few distinct interleavings,
//! branch predictors learn the instrumented compare chains almost perfectly
//! and signature computation costs ~1.5 % extra time; when almost every
//! iteration takes a new path (ARM-2-200-32), mispredictions push the
//! overhead toward the paper's 97.8 % worst case. A 2-bit saturating counter
//! per chain branch, persistent across loop iterations, reproduces exactly
//! that behaviour.

use crate::TimingConfig;

/// Per-branch 2-bit saturating counters for every link of every load's
/// instrumented compare chain.
#[derive(Clone, Debug)]
pub struct BranchPredictor {
    /// `counters[dense_load][link]`; 0..=3, >=2 predicts "taken" (match).
    counters: Vec<Vec<u8>>,
    mispredictions: u64,
    executed_links: u64,
}

impl BranchPredictor {
    /// Creates predictors for loads with the given chain lengths
    /// (candidate cardinalities), initialized weakly not-taken.
    pub fn new(chain_lengths: &[usize]) -> Self {
        BranchPredictor {
            counters: chain_lengths.iter().map(|&n| vec![1u8; n]).collect(),
            mispredictions: 0,
            executed_links: 0,
        }
    }

    /// Simulates one execution of load `dense_load`'s chain, where the
    /// observed value matched candidate `taken_idx`. Links `0..=taken_idx`
    /// execute (the chain early-exits at the match); each is a conditional
    /// branch that is taken only at the match. Returns the cycle cost.
    ///
    /// Every link before the match is not taken, so it mispredicts exactly
    /// when its counter predicts taken (`>= 2`) and then decrements; the
    /// matching link mispredicts when its counter predicts not taken and
    /// then increments. The cost is counted arithmetically, not per link.
    ///
    /// # Panics
    ///
    /// Panics if `taken_idx` is not below the chain's length.
    pub fn chain_cost(
        &mut self,
        dense_load: usize,
        taken_idx: usize,
        timing: &TimingConfig,
    ) -> u64 {
        let (not_taken, rest) = self.counters[dense_load].split_at_mut(taken_idx);
        let last = &mut rest[0];
        let mut misses = u64::from(*last < 2);
        *last = (*last + 1).min(3);
        for counter in not_taken {
            misses += u64::from(*counter >= 2);
            *counter = counter.saturating_sub(1);
        }
        let links = taken_idx as u64 + 1;
        self.executed_links += links;
        self.mispredictions += misses;
        links * timing.chain_link_cycles as u64 + misses * timing.mispredict_cycles as u64
    }

    /// Total mispredicted chain branches so far.
    pub fn mispredictions(&self) -> u64 {
        self.mispredictions
    }

    /// Total executed chain branches so far.
    pub fn executed_links(&self) -> u64 {
        self.executed_links
    }

    /// Misprediction rate over all executed chain links.
    pub fn miss_rate(&self) -> f64 {
        if self.executed_links == 0 {
            return 0.0;
        }
        self.mispredictions as f64 / self.executed_links as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn timing() -> TimingConfig {
        TimingConfig::default()
    }

    /// The per-link chain walk the arithmetic `chain_cost` replaced, kept
    /// as a differential reference.
    fn reference_chain_cost(
        p: &mut BranchPredictor,
        dense_load: usize,
        taken_idx: usize,
        timing: &TimingConfig,
    ) -> u64 {
        let chain = &mut p.counters[dense_load];
        let mut cycles = 0u64;
        for (j, counter) in chain.iter_mut().enumerate().take(taken_idx + 1) {
            let taken = j == taken_idx;
            let predicted = *counter >= 2;
            p.executed_links += 1;
            cycles += timing.chain_link_cycles as u64;
            if predicted != taken {
                p.mispredictions += 1;
                cycles += timing.mispredict_cycles as u64;
            }
            *counter = match (taken, *counter) {
                (true, c) => (c + 1).min(3),
                (false, c) => c.saturating_sub(1),
            };
        }
        cycles
    }

    proptest! {
        /// The arithmetic chain cost matches the per-link walk call by
        /// call: same cycles, misprediction and link totals, and counters.
        #[test]
        fn chain_cost_matches_per_link_reference(
            lengths in prop::collection::vec(1usize..40, 1..6),
            stream in prop::collection::vec((0usize..64, 0usize..64, any::<bool>()), 1..600),
        ) {
            let t = TimingConfig {
                mispredict_cycles: 17,
                chain_link_cycles: 3,
                ..timing()
            };
            let mut fast = BranchPredictor::new(&lengths);
            let mut reference = fast.clone();
            for &(load, idx, repeat) in &stream {
                let load = load % lengths.len();
                // Half the draws reuse a fixed index per load so counters
                // also saturate, not only wander.
                let taken = (if repeat { load } else { idx }) % lengths[load];
                prop_assert_eq!(
                    fast.chain_cost(load, taken, &t),
                    reference_chain_cost(&mut reference, load, taken, &t)
                );
                prop_assert_eq!(fast.mispredictions, reference.mispredictions);
                prop_assert_eq!(fast.executed_links, reference.executed_links);
                prop_assert_eq!(&fast.counters, &reference.counters);
            }
        }
    }

    #[test]
    fn stable_pattern_is_learned() {
        let mut p = BranchPredictor::new(&[4]);
        // Same outcome every iteration: after warm-up, zero mispredicts.
        for _ in 0..10 {
            p.chain_cost(0, 2, &timing());
        }
        let before = p.mispredictions();
        for _ in 0..100 {
            p.chain_cost(0, 2, &timing());
        }
        assert_eq!(p.mispredictions(), before, "learned pattern mispredicts");
        assert!(p.miss_rate() < 0.1);
    }

    #[test]
    fn alternating_pattern_mispredicts_more() {
        let mut stable = BranchPredictor::new(&[4]);
        let mut chaotic = BranchPredictor::new(&[4]);
        for i in 0..200 {
            stable.chain_cost(0, 1, &timing());
            chaotic.chain_cost(0, [0, 3, 1, 2][i % 4], &timing());
        }
        assert!(chaotic.mispredictions() > stable.mispredictions());
    }

    #[test]
    fn cost_includes_links_and_penalties() {
        let mut p = BranchPredictor::new(&[8]);
        let t = timing();
        let cost = p.chain_cost(0, 7, &t);
        // 8 links, at least the final one mispredicted on a cold counter.
        assert!(cost >= 8 * t.chain_link_cycles as u64 + t.mispredict_cycles as u64);
        assert_eq!(p.executed_links(), 8);
    }

    #[test]
    fn early_match_executes_short_chain() {
        let mut p = BranchPredictor::new(&[8]);
        p.chain_cost(0, 0, &timing());
        assert_eq!(p.executed_links(), 1);
    }
}
