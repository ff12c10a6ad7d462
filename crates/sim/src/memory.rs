//! Shared-memory models: multiple-copy atomic (the default) and
//! non-multiple-copy atomic (§8's store-atomicity discussion).
//!
//! Under multiple-copy atomicity (MCA) a committed store is visible to all
//! cores at once — the assumption behind the paper's evaluation platforms'
//! checkers. Real ARMv7 is *not* MCA: a store may become visible to
//! different observers at different times, which is what makes IRIW's
//! readers able to disagree on the order of two independent writes. The
//! [`SimMemory::non_multiple_copy`] model realizes this: every store carries
//! a per-core arrival time (its own core sees it immediately), and a load
//! returns the coherence-latest store that has arrived at its core.
//! Per-location coherence is preserved by construction — the arrived set
//! only grows, and reads take the coherence-latest arrived entry.

use mtc_isa::Value;
use rand::rngs::SmallRng;
use rand::Rng;

/// One committed store in coherence order, with its per-core arrival
/// times (virtual time at which each core can observe it).
#[derive(Clone, Debug)]
struct PropagatingStore {
    value: Value,
    arrival: Vec<u64>,
}

/// The simulated shared memory.
#[derive(Clone, Debug)]
pub struct SimMemory {
    repr: Repr,
}

#[derive(Clone, Debug)]
enum Repr {
    /// Multiple-copy atomic: one flat array, stores globally visible at
    /// commit.
    MultipleCopy(Vec<Value>),
    /// Non-multiple-copy atomic: per-address coherence lists with per-core
    /// arrival delays.
    NonMultipleCopy {
        stores: Vec<Vec<PropagatingStore>>,
        max_delay: u32,
    },
}

impl SimMemory {
    /// Creates an MCA memory of `num_addrs` words.
    pub fn multiple_copy(num_addrs: usize) -> Self {
        SimMemory {
            repr: Repr::MultipleCopy(vec![Value::INIT; num_addrs]),
        }
    }

    /// Creates an nMCA memory of `num_addrs` words with the given maximum
    /// propagation delay.
    pub fn non_multiple_copy(num_addrs: usize, max_delay: u32) -> Self {
        SimMemory {
            repr: Repr::NonMultipleCopy {
                stores: vec![Vec::new(); num_addrs],
                max_delay,
            },
        }
    }

    /// Restores every word to its initial value — the per-iteration
    /// initialization barrier — keeping the allocations.
    pub(crate) fn reset(&mut self) {
        match &mut self.repr {
            Repr::MultipleCopy(words) => words.fill(Value::INIT),
            Repr::NonMultipleCopy { stores, .. } => stores.iter_mut().for_each(Vec::clear),
        }
    }

    /// The value core `core` observes at `addr` at virtual time `now`.
    pub fn read(&self, addr: usize, core: usize, now: u64) -> Value {
        match &self.repr {
            Repr::MultipleCopy(words) => words[addr],
            Repr::NonMultipleCopy { stores, .. } => stores[addr]
                .iter()
                .rev()
                .find(|s| s.arrival[core] <= now)
                .map_or(Value::INIT, |s| s.value),
        }
    }

    /// Commits a store of `value` to `addr` by `core` at virtual time
    /// `now`. Under nMCA the store arrives at `core` immediately and at
    /// every other core after an independent uniform delay.
    pub fn write(
        &mut self,
        addr: usize,
        value: Value,
        core: usize,
        now: u64,
        num_cores: usize,
        rng: &mut SmallRng,
    ) {
        match &mut self.repr {
            Repr::MultipleCopy(words) => words[addr] = value,
            Repr::NonMultipleCopy { stores, max_delay } => {
                let arrival = (0..num_cores)
                    .map(|c| {
                        if c == core {
                            now
                        } else {
                            now + rng.gen_range(0..=*max_delay) as u64
                        }
                    })
                    .collect();
                stores[addr].push(PropagatingStore { value, arrival });
            }
        }
    }

    /// Returns `true` for the non-multiple-copy-atomic model.
    pub fn is_non_multiple_copy(&self) -> bool {
        matches!(self.repr, Repr::NonMultipleCopy { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(1)
    }

    #[test]
    fn mca_writes_are_immediately_global() {
        let mut m = SimMemory::multiple_copy(2);
        let mut r = rng();
        m.write(0, Value(7), 0, 10, 4, &mut r);
        for core in 0..4 {
            assert_eq!(m.read(0, core, 10), Value(7));
        }
        assert_eq!(m.read(1, 0, 10), Value::INIT);
        assert!(!m.is_non_multiple_copy());
    }

    #[test]
    fn nmca_own_store_visible_immediately_remote_delayed() {
        let mut m = SimMemory::non_multiple_copy(1, 100);
        let mut r = rng();
        m.write(0, Value(3), 0, 50, 2, &mut r);
        assert_eq!(m.read(0, 0, 50), Value(3), "own store visible at commit");
        // The remote core sees it no earlier than commit time and no later
        // than commit + max_delay.
        assert_eq!(m.read(0, 1, 49), Value::INIT);
        assert_eq!(m.read(0, 1, 50 + 100), Value(3));
        assert!(m.is_non_multiple_copy());
    }

    #[test]
    fn nmca_reads_never_go_coherence_backwards() {
        // Property: for any core, the coherence position of the value read
        // is non-decreasing in time.
        let mut m = SimMemory::non_multiple_copy(1, 40);
        let mut r = rng();
        for i in 0..20u32 {
            m.write(0, Value(i + 1), (i % 3) as usize, (i as u64) * 5, 3, &mut r);
        }
        for core in 0..3 {
            let mut last = 0u32;
            for now in 0..200u64 {
                let v = m.read(0, core, now).0;
                assert!(
                    v >= last,
                    "core {core} went from {last} back to {v} at {now}"
                );
                last = v;
            }
            assert_eq!(last, 20, "everything arrives eventually");
        }
    }

    #[test]
    fn nmca_observers_can_disagree_on_order() {
        // Two independent writes; with adversarial delays, core 2 sees A
        // before B while core 3 sees B before A — the IRIW mechanism.
        let mut disagreement = false;
        for seed in 0..50 {
            let mut r = SmallRng::seed_from_u64(seed);
            let mut m = SimMemory::non_multiple_copy(2, 80);
            m.write(0, Value(1), 0, 10, 4, &mut r); // A: addr 0 by core 0
            m.write(1, Value(2), 1, 10, 4, &mut r); // B: addr 1 by core 1
                                                    // Find a probe time where the two readers disagree.
            for now in 10..100u64 {
                let c2 = (m.read(0, 2, now), m.read(1, 2, now));
                let c3 = (m.read(0, 3, now), m.read(1, 3, now));
                let c2_a_only = c2 == (Value(1), Value::INIT);
                let c3_b_only = c3 == (Value::INIT, Value(2));
                if c2_a_only && c3_b_only {
                    disagreement = true;
                }
            }
        }
        assert!(disagreement, "nMCA must allow observers to disagree");
    }
}
