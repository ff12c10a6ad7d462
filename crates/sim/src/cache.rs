//! A lightweight MSI private-cache model.
//!
//! Each core owns an L1 with configurable sets/ways and LRU replacement.
//! The model tracks just enough protocol state for the behaviours the
//! validation framework observes: hit/miss latency, coherence transfers,
//! shared-to-modified upgrades (bug 1's trigger window), invalidations of
//! remote copies, and dirty writebacks on eviction (bug 3's racy `PUTX`).
//!
//! Coherence state lives in a per-line *directory* — a bitmask of the cores
//! holding the line and a bitmask of the (at most one) core holding it
//! modified — kept in lockstep with the per-core LRU sets: a core's bit is
//! in `present[line]` exactly when the line sits in that core's set. A miss
//! or upgrade therefore visits only the cores that actually hold the line,
//! and [`CacheModel::peek_latency`] is two mask tests. The sets themselves
//! only order replacement: entries keep insertion order (hits update the
//! LRU stamp in place, removals close the gap), and the victim is the first
//! entry with the smallest stamp.

use crate::CacheConfig;

/// Coherence state of a line in one core's cache.
#[derive(Copy, Clone, Debug, Eq, PartialEq)]
pub enum LineState {
    /// Present, read-only, possibly shared with other cores.
    Shared,
    /// Present, writable, dirty; no other core holds a copy.
    Modified,
}

#[derive(Copy, Clone, Debug, Default)]
struct Entry {
    line: u32,
    lru: u64,
}

/// What one cache access did — consumed by the engine for timing, bug
/// triggers and contention modelling.
#[derive(Copy, Clone, Debug, Default, Eq, PartialEq)]
pub struct AccessOutcome {
    /// The access hit in the local L1.
    pub hit: bool,
    /// A shared line was upgraded to modified in place (an S->M transition,
    /// which is exactly the window bug 1 races against).
    pub upgraded: bool,
    /// The line had to be fetched from a remote core's modified copy.
    pub remote_dirty: bool,
    /// Remote cores whose copies this access invalidated (writes only).
    pub invalidated_remote: bool,
    /// A dirty line was evicted to make room — a writeback (`PUTX`) is in
    /// flight.
    pub evicted_dirty: Option<u32>,
}

/// All cores' private caches.
#[derive(Clone, Debug)]
pub struct CacheModel {
    config: CacheConfig,
    ways: usize,
    /// Set `s` of core `c` is `entries[(c * sets + s) * ways..][..len]`
    /// with `len = set_len[c * sets + s]`.
    entries: Vec<Entry>,
    set_len: Vec<u32>,
    /// `present[line]`: bit `c` set iff core `c`'s cache holds `line`.
    present: Vec<u64>,
    /// `modified[line]`: bit `c` set iff core `c` holds `line` modified
    /// (a subset of `present[line]` with at most one bit).
    modified: Vec<u64>,
}

impl CacheModel {
    /// Creates cold caches for `num_cores` cores, with the directory sized
    /// for lines `0..num_lines` ([`CacheModel::access`] grows it for any
    /// line beyond).
    ///
    /// # Panics
    ///
    /// Panics if `num_cores` exceeds 64 (the directory's sharer masks are
    /// one `u64` per line).
    pub fn new(config: CacheConfig, num_cores: usize, num_lines: usize) -> Self {
        assert!(
            num_cores <= 64,
            "the cache directory tracks at most 64 cores, got {num_cores}"
        );
        let sets = config.sets as usize;
        let ways = config.ways as usize;
        CacheModel {
            config,
            ways,
            entries: vec![Entry::default(); num_cores * sets * ways],
            set_len: vec![0; num_cores * sets],
            present: vec![0; num_lines],
            modified: vec![0; num_lines],
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Index of core `core`'s set for `line` in `set_len`.
    fn set_of(&self, core: usize, line: u32) -> usize {
        core * self.config.sets as usize + (line % self.config.sets) as usize
    }

    /// The live entries of set `set`.
    fn set_entries(&mut self, set: usize) -> &mut [Entry] {
        let len = self.set_len[set] as usize;
        &mut self.entries[set * self.ways..][..len]
    }

    /// Removes `line` from `core`'s set, keeping the other entries' order.
    fn remove(&mut self, core: usize, line: u32) {
        let set = self.set_of(core, line);
        let entries = self.set_entries(set);
        let i = entries
            .iter()
            .position(|e| e.line == line)
            .expect("directory and sets agree");
        entries.copy_within(i + 1.., i);
        self.set_len[set] -= 1;
    }

    /// Removes `line` from every core in `cores`.
    fn remove_from(&mut self, mut cores: u64, line: u32) {
        while cores != 0 {
            let c = cores.trailing_zeros() as usize;
            cores &= cores - 1;
            self.remove(c, line);
        }
    }

    /// Performs an access by `core` to `line` and returns what happened.
    /// `tick` orders LRU decisions.
    pub fn access(&mut self, core: usize, line: u32, write: bool, tick: u64) -> AccessOutcome {
        let l = line as usize;
        if l >= self.present.len() {
            self.present.resize(l + 1, 0);
            self.modified.resize(l + 1, 0);
        }
        let me = 1u64 << core;
        let set = self.set_of(core, line);
        let mut outcome = AccessOutcome::default();

        // Local hit.
        if self.present[l] & me != 0 {
            outcome.hit = true;
            let entry = self
                .set_entries(set)
                .iter_mut()
                .find(|e| e.line == line)
                .expect("directory and sets agree");
            entry.lru = tick;
            if write && self.modified[l] & me == 0 {
                // S->M upgrade: invalidate every other sharer.
                outcome.upgraded = true;
                let others = self.present[l] & !me;
                outcome.invalidated_remote = others != 0;
                self.remove_from(others, line);
                self.present[l] = me;
                self.modified[l] = me;
            }
            return outcome;
        }

        // Miss: only the cores in the directory hold remote copies.
        let others = self.present[l];
        outcome.remote_dirty = self.modified[l] != 0;
        if write {
            outcome.invalidated_remote = others != 0;
            self.remove_from(others, line);
            self.present[l] = 0;
        }
        // A read downgrades a remote modified copy to shared; a write
        // takes ownership below.
        self.modified[l] = 0;

        // Insert locally, evicting LRU if the set is full.
        if self.set_len[set] as usize >= self.ways {
            let entries = self.set_entries(set);
            let victim = entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.lru)
                .map(|(i, _)| i)
                .expect("full sets are non-empty");
            let evicted = entries[victim].line;
            entries.copy_within(victim + 1.., victim);
            self.set_len[set] -= 1;
            let v = evicted as usize;
            self.present[v] &= !me;
            if self.modified[v] & me != 0 {
                self.modified[v] = 0;
                outcome.evicted_dirty = Some(evicted);
            }
        }
        let len = self.set_len[set] as usize;
        self.entries[set * self.ways + len] = Entry { line, lru: tick };
        self.set_len[set] += 1;
        self.present[l] |= me;
        if write {
            self.modified[l] = me;
        }
        outcome
    }

    /// Returns `true` when `core` holds `line` in the given state.
    pub fn holds(&self, core: usize, line: u32, state: LineState) -> bool {
        let me = 1u64 << core;
        let l = line as usize;
        l < self.present.len()
            && self.present[l] & me != 0
            && (self.modified[l] & me != 0) == (state == LineState::Modified)
    }

    /// Estimates the latency of an access by `core` to `line` without
    /// performing it — used by the latency-driven out-of-order commit
    /// policy (a younger L1 hit overtakes an older miss). Two directory
    /// loads and a select: no branch on the line's state.
    ///
    /// # Panics
    ///
    /// Panics if `line` is outside the directory: neither below the
    /// `num_lines` the model was created with nor accessed since.
    pub fn peek_latency(&self, core: usize, line: u32) -> u32 {
        let (present, modified) = (self.present[line as usize], self.modified[line as usize]);
        let miss = if modified != 0 {
            self.config.miss_cycles + self.config.coherence_cycles
        } else {
            self.config.miss_cycles
        };
        if present & (1u64 << core) != 0 {
            self.config.hit_cycles
        } else {
            miss
        }
    }

    /// Cycles this access costs under the configured latencies.
    pub fn latency(&self, outcome: &AccessOutcome) -> u32 {
        if outcome.hit {
            self.config.hit_cycles
        } else if outcome.remote_dirty {
            self.config.miss_cycles + self.config.coherence_cycles
        } else {
            self.config.miss_cycles
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The scan-based MSI model the directory replaced, kept verbatim as a
    /// differential reference: every core's set is scanned on each miss,
    /// upgrade and `peek_latency`.
    struct ScanModel {
        config: CacheConfig,
        /// `cores[c][set]` is the `(line, state, lru)` list of one set.
        cores: Vec<Vec<Vec<(u32, LineState, u64)>>>,
    }

    impl ScanModel {
        fn new(config: CacheConfig, num_cores: usize) -> Self {
            ScanModel {
                config,
                cores: vec![vec![Vec::new(); config.sets as usize]; num_cores],
            }
        }

        fn access(&mut self, core: usize, line: u32, write: bool, tick: u64) -> AccessOutcome {
            let set = (line % self.config.sets) as usize;
            let mut outcome = AccessOutcome::default();
            if let Some(i) = self.cores[core][set].iter().position(|e| e.0 == line) {
                outcome.hit = true;
                let entry = &mut self.cores[core][set][i];
                entry.2 = tick;
                if write && entry.1 == LineState::Shared {
                    entry.1 = LineState::Modified;
                    outcome.upgraded = true;
                    for (c, caches) in self.cores.iter_mut().enumerate() {
                        if c != core {
                            if let Some(i) = caches[set].iter().position(|e| e.0 == line) {
                                caches[set].remove(i);
                                outcome.invalidated_remote = true;
                            }
                        }
                    }
                }
                return outcome;
            }
            for (c, caches) in self.cores.iter_mut().enumerate() {
                if c == core {
                    continue;
                }
                if let Some(i) = caches[set].iter().position(|e| e.0 == line) {
                    if caches[set][i].1 == LineState::Modified {
                        outcome.remote_dirty = true;
                    }
                    if write {
                        caches[set].remove(i);
                        outcome.invalidated_remote = true;
                    } else {
                        caches[set][i].1 = LineState::Shared;
                    }
                }
            }
            let state = if write {
                LineState::Modified
            } else {
                LineState::Shared
            };
            let entries = &mut self.cores[core][set];
            if entries.len() >= self.config.ways as usize {
                let victim = entries
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.2)
                    .map(|(i, _)| i)
                    .expect("full sets are non-empty");
                let evicted = entries.remove(victim);
                if evicted.1 == LineState::Modified {
                    outcome.evicted_dirty = Some(evicted.0);
                }
            }
            entries.push((line, state, tick));
            outcome
        }

        fn holds(&self, core: usize, line: u32, state: LineState) -> bool {
            let set = (line % self.config.sets) as usize;
            self.cores[core][set]
                .iter()
                .any(|e| e.0 == line && e.1 == state)
        }

        fn peek_latency(&self, core: usize, line: u32) -> u32 {
            let set = (line % self.config.sets) as usize;
            if self.cores[core][set].iter().any(|e| e.0 == line) {
                return self.config.hit_cycles;
            }
            let remote_dirty = self.cores.iter().enumerate().any(|(c, caches)| {
                c != core
                    && caches[set]
                        .iter()
                        .any(|e| e.0 == line && e.1 == LineState::Modified)
            });
            if remote_dirty {
                self.config.miss_cycles + self.config.coherence_cycles
            } else {
                self.config.miss_cycles
            }
        }
    }

    proptest! {
        /// The directory model is observationally identical to the
        /// scan-based reference: same outcome for every access, and the
        /// same `peek_latency` and `holds` answers for every core on the
        /// touched line afterwards. Each stream runs on both cache
        /// geometries with 1-8 cores, line ranges inside and beyond
        /// capacity (evictions), and LRU ticks that restart like the
        /// engine's per-run step counter (stamp ties decide victims).
        #[test]
        fn directory_matches_scan_reference(
            cores in 1usize..9,
            line_range in prop::sample::select(vec![4u32, 8, 12, 40, 300, 1500]),
            tick_period in prop::sample::select(vec![3u64, 17, 60, 400, 1 << 40]),
            stream in prop::collection::vec((0usize..64, 0u32..4096, any::<bool>()), 1..4000),
        ) {
            for config in [CacheConfig::l1_1k(), CacheConfig::l1_32k()] {
                let mut dir = CacheModel::new(config, cores, line_range as usize);
                let mut scan = ScanModel::new(config, cores);
                for (step, &(core, line, write)) in stream.iter().enumerate() {
                    let (core, line) = (core % cores, line % line_range);
                    let tick = step as u64 % tick_period + 1;
                    prop_assert_eq!(dir.peek_latency(core, line), scan.peek_latency(core, line));
                    prop_assert_eq!(
                        dir.access(core, line, write, tick),
                        scan.access(core, line, write, tick)
                    );
                    for c in 0..cores {
                        prop_assert_eq!(dir.peek_latency(c, line), scan.peek_latency(c, line));
                        for state in [LineState::Shared, LineState::Modified] {
                            prop_assert_eq!(dir.holds(c, line, state), scan.holds(c, line, state));
                        }
                    }
                }
            }
        }
    }

    /// An empty directory: `access` grows it line by line.
    fn tiny() -> CacheModel {
        CacheModel::new(CacheConfig::l1_1k(), 2, 0)
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        let first = c.access(0, 5, false, 1);
        assert!(!first.hit);
        assert_eq!(first.evicted_dirty, None);
        let second = c.access(0, 5, false, 2);
        assert!(second.hit);
        assert!(c.holds(0, 5, LineState::Shared));
    }

    #[test]
    fn write_upgrade_invalidates_sharers() {
        let mut c = tiny();
        c.access(0, 7, false, 1);
        c.access(1, 7, false, 2);
        let up = c.access(0, 7, true, 3);
        assert!(up.hit && up.upgraded && up.invalidated_remote);
        assert!(c.holds(0, 7, LineState::Modified));
        assert!(!c.holds(1, 7, LineState::Shared));
    }

    #[test]
    fn remote_dirty_fetch() {
        let mut c = tiny();
        c.access(0, 3, true, 1);
        let read = c.access(1, 3, false, 2);
        assert!(!read.hit && read.remote_dirty);
        // Owner was downgraded to shared.
        assert!(c.holds(0, 3, LineState::Shared));
        assert!(c.holds(1, 3, LineState::Shared));
        let lat_hit = c.latency(&AccessOutcome {
            hit: true,
            ..Default::default()
        });
        let lat_dirty = c.latency(&read);
        assert!(lat_dirty > lat_hit);
    }

    #[test]
    fn write_miss_steals_ownership() {
        let mut c = tiny();
        c.access(0, 9, true, 1);
        let w = c.access(1, 9, true, 2);
        assert!(!w.hit && w.remote_dirty && w.invalidated_remote);
        assert!(c.holds(1, 9, LineState::Modified));
        assert!(!c.holds(0, 9, LineState::Shared) && !c.holds(0, 9, LineState::Modified));
    }

    #[test]
    fn lru_eviction_writes_back_dirty_lines() {
        // 1 kB, 2-way: lines 0, 8, 16 all map to set 0.
        let mut c = tiny();
        c.access(0, 0, true, 1);
        c.access(0, 8, false, 2);
        let third = c.access(0, 16, false, 3);
        assert_eq!(third.evicted_dirty, Some(0), "dirty LRU line written back");
        let fourth = c.access(0, 24, false, 4);
        assert_eq!(fourth.evicted_dirty, None, "clean eviction is silent");
    }

    #[test]
    fn peek_latency_matches_subsequent_access() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut c = CacheModel::new(CacheConfig::l1_1k(), 3, 12);
        let mut rng = SmallRng::seed_from_u64(7);
        for tick in 0..2000u64 {
            let core = rng.gen_range(0..3);
            let line = rng.gen_range(0..12);
            let write = rng.gen_bool(0.5);
            let predicted = c.peek_latency(core, line);
            let out = c.access(core, line, write, tick);
            assert_eq!(
                predicted,
                c.latency(&out),
                "peek disagrees with access at tick {tick} (core {core}, line {line}, write {write})"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at most 64 cores")]
    fn more_than_64_cores_is_rejected() {
        let _ = CacheModel::new(CacheConfig::l1_1k(), 65, 0);
    }

    #[test]
    fn big_cache_never_evicts_small_working_set() {
        let mut c = CacheModel::new(CacheConfig::l1_32k(), 4, 0);
        for line in 0..128 {
            for core in 0..4 {
                let o = c.access(core, line, core == 0, (line * 4 + core as u32) as u64);
                assert_eq!(o.evicted_dirty, None);
            }
        }
    }
}
