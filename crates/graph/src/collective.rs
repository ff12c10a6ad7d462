//! Collective constraint-graph checking (§4.2) — the paper's second
//! contribution.
//!
//! Executions are presented in ascending signature order, so consecutive
//! graphs differ in few observed edges. The checker keeps the topological
//! order of the last *valid* graph; for each next graph it diffs the
//! observed edges, finds the new edges that point backwards under the
//! current order, and re-sorts only the window of positions between the
//! leading and trailing boundary (the first and last vertex adjacent to a
//! new backward edge). No new backward edges means the graph is valid with
//! zero sorting work. The window re-sort is exactly as precise as a full
//! sort: every cycle must contain a new backward edge, and any path closing
//! a cycle moves strictly forward in the old order, so it cannot leave the
//! window.

use crate::topo::{extract_cycle, full_sort_into, violation_from_cycle, ObsAdj, SortScratch};
use crate::{Certificate, DeltaObservations, ObservedEdges, TestGraphSpec, Violation};
use serde::{Deserialize, Serialize};

/// Breakdown of how much re-sorting the collective checker performed —
/// the data behind Figure 14.
#[derive(Copy, Clone, Debug, Default, Eq, PartialEq, Serialize, Deserialize)]
pub struct CollectiveStats {
    /// Graphs checked in total.
    pub graphs: usize,
    /// Graphs requiring a complete sort (the first graph, and recovery
    /// after a violating graph).
    pub complete: usize,
    /// Graphs accepted with no re-sorting (no new backward edges).
    pub no_resort: usize,
    /// Graphs checked by incremental window re-sorting.
    pub incremental: usize,
    /// Vertices re-sorted across all incremental checks.
    pub resorted_vertices: u64,
    /// Total vertices across incremental graphs (denominator for the
    /// affected-vertex percentage of Figure 14).
    pub incremental_vertices: u64,
    /// Violating graphs.
    pub violations: usize,
    /// Vertices visited plus edges traversed (comparable with
    /// [`CheckStats::work`](crate::CheckStats)).
    pub work: u64,
}

impl CollectiveStats {
    /// Sums two stats breakdowns field for field.
    ///
    /// Every counter is additive, and each independently checked span of
    /// graphs satisfies the Figure 14 identity
    /// `complete + no_resort + incremental == graphs` on its own — so the
    /// merged stats satisfy it too. This is the reduction step of a chunk
    /// plan (see [`CollectiveOutcome`]'s `FromIterator`).
    pub fn merge(&self, other: &CollectiveStats) -> CollectiveStats {
        CollectiveStats {
            graphs: self.graphs + other.graphs,
            complete: self.complete + other.complete,
            no_resort: self.no_resort + other.no_resort,
            incremental: self.incremental + other.incremental,
            resorted_vertices: self.resorted_vertices + other.resorted_vertices,
            incremental_vertices: self.incremental_vertices + other.incremental_vertices,
            violations: self.violations + other.violations,
            work: self.work + other.work,
        }
    }

    /// Fraction of incremental graphs' vertices that needed re-sorting.
    pub fn affected_vertex_fraction(&self) -> f64 {
        if self.incremental_vertices == 0 {
            return 0.0;
        }
        self.resorted_vertices as f64 / self.incremental_vertices as f64
    }

    /// Fraction of graphs accepted without any re-sorting.
    pub fn no_resort_fraction(&self) -> f64 {
        if self.graphs == 0 {
            return 0.0;
        }
        self.no_resort as f64 / self.graphs as f64
    }
}

/// Outcome of a collective checking pass.
#[derive(Clone, Debug, Default)]
pub struct CollectiveOutcome {
    /// Per-graph results, in input order.
    pub results: Vec<Result<(), Violation>>,
    /// Per-graph verdict certificates, in input order — empty unless the
    /// pass was asked to certify.
    pub certificates: Vec<Certificate>,
    /// Re-sorting breakdown and work counters.
    pub stats: CollectiveStats,
}

impl CollectiveOutcome {
    /// Number of violating graphs.
    pub fn violation_count(&self) -> usize {
        self.results.iter().filter(|r| r.is_err()).count()
    }
}

/// Concatenates the outcomes of consecutive chunks: results and
/// certificates in chunk order, stats summed with
/// [`CollectiveStats::merge`].
///
/// Each chunk is checked by a fresh [`CollectiveChecker`] — its first
/// graph re-seeds with a complete sort — so per-graph verdicts are
/// *exactly* those of one checker over the whole sequence, for any chunk
/// boundaries: a graph's verdict depends only on its own constraint graph,
/// never on the checker's incremental state. Only the stats breakdown
/// shifts (one extra `complete` sort per extra chunk).
impl FromIterator<CollectiveOutcome> for CollectiveOutcome {
    fn from_iter<I: IntoIterator<Item = CollectiveOutcome>>(chunks: I) -> Self {
        let mut outcome = CollectiveOutcome::default();
        for chunk in chunks {
            outcome.results.extend(chunk.results);
            outcome.certificates.extend(chunk.certificates);
            outcome.stats = outcome.stats.merge(&chunk.stats);
        }
        outcome
    }
}

/// Splits `len` items into at most `chunks` contiguous, near-equal,
/// non-empty chunk lengths (earlier chunks take the remainder) — the chunk
/// plan of chunked collective checking.
pub fn even_chunk_lengths(len: usize, chunks: usize) -> Vec<usize> {
    let chunks = chunks.max(1).min(len.max(1));
    let base = len / chunks;
    let remainder = len % chunks;
    (0..chunks)
        .map(|i| base + usize::from(i < remainder))
        .collect()
}

/// The collective checker (§4.2): feed one execution's observations at a
/// time.
///
/// Push observations in ascending-signature order for the §4.1 similarity
/// benefit; correctness does not depend on the order. The checker holds
/// only its windowed re-sort state (the last valid topological order and
/// the previous observation), never the whole sequence, so a merged
/// signature stream of any length is checked in O(test size) memory.
///
/// Three ways in, one incremental body:
///
/// * [`push`](Self::push) — one canonical [`ObservedEdges`] at a time;
/// * [`push_delta`](Self::push_delta) — the same execution presented as a
///   running [`DeltaObservations`] diff;
/// * [`check_all`](Self::check_all) — a whole slice, optionally certified.
///   A chunk plan is a map of `check_all` over slices on fresh checkers,
///   collected into one [`CollectiveOutcome`].
///
/// # Example
///
/// ```
/// use mtc_graph::{CheckOptions, CollectiveChecker, TestGraphSpec};
/// use mtc_isa::{litmus, Mcm, OpId, ReadsFrom, Tid, Value};
///
/// let t = litmus::corr();
/// let spec = TestGraphSpec::new(&t.program, Mcm::Tso);
/// let mut checker = CollectiveChecker::new(&spec);
/// let mut rf = ReadsFrom::new();
/// rf.record(OpId::new(Tid(1), 0), Value(1));
/// rf.record(OpId::new(Tid(1), 1), Value(1));
/// let obs = spec.observe(&t.program, &rf, &CheckOptions::default());
/// assert!(checker.push(&obs).is_ok());
/// assert_eq!(checker.stats().graphs, 1);
/// ```
#[derive(Clone, Debug)]
pub struct CollectiveChecker<'s> {
    spec: &'s TestGraphSpec,
    split_windows: bool,
    /// Current topological order and its inverse, valid for `base`.
    order: Vec<u32>,
    pos: Vec<u32>,
    /// The last observation the current order validates. Owned and
    /// overwritten in place (`clone_from`) so the per-push hot path never
    /// allocates; `has_base` distinguishes "empty base" from "no base".
    /// Unused in delta mode, where the caller's [`DeltaObservations`] *is*
    /// the base.
    base: ObservedEdges,
    has_base: bool,
    /// Whether the most recent push was a
    /// [`push_delta`](CollectiveChecker::push_delta) — and so whether a live
    /// base belongs to it; the two entry points must not be interleaved
    /// while a base is live.
    delta_base: bool,
    /// CSR view of the current observation, rebuilt per incremental
    /// [`push`](CollectiveChecker::push).
    obs_csr: ObsCsr,
    /// Reusable buffers for complete sorts and window re-sorts.
    sort_scratch: SortScratch,
    window_scratch: WindowScratch,
    /// Raw cycle of the most recent failing push, captured on the
    /// violation cold path so [`last_certificate`](Self::last_certificate)
    /// can witness FAIL verdicts without re-running extraction.
    last_cycle: Vec<u32>,
    /// Verdict of the most recent push (`None` before the first push).
    last_verdict: Option<bool>,
    stats: CollectiveStats,
}

/// Reusable buffers for the incremental path of [`CollectiveChecker`]:
/// backward-edge intervals, merged windows, and the local Kahn state of
/// [`resort_window`]. Kept across pushes so steady-state checking is
/// allocation-free.
#[derive(Clone, Debug, Default)]
struct WindowScratch {
    intervals: Vec<(u32, u32)>,
    merged: Vec<(u32, u32)>,
    indegree: Vec<u32>,
    ready_stores: ReadyBitset,
    ready_others: ReadyBitset,
    sub_order: Vec<u32>,
}

/// A pop-min set over local window indices, backed by a bitset. Equivalent
/// to a `BinaryHeap<Reverse<usize>>` that only ever holds each index once —
/// which the Kahn ready sets guarantee (a vertex's in-degree reaches zero
/// exactly once) — but with O(1) inserts and near-O(1) amortized pops
/// instead of heap sift-downs on the re-sort hot path.
#[derive(Clone, Debug, Default)]
struct ReadyBitset {
    words: Vec<u64>,
    /// No set bit lives below this word (maintained by inserts and pops).
    min_word: usize,
    len: usize,
}

impl ReadyBitset {
    fn reset(&mut self, n: usize) {
        self.words.clear();
        self.words.resize(n.div_ceil(64), 0);
        self.min_word = 0;
        self.len = 0;
    }

    fn insert(&mut self, i: usize) {
        let w = i >> 6;
        self.words[w] |= 1u64 << (i & 63);
        self.min_word = self.min_word.min(w);
        self.len += 1;
    }

    fn pop_min(&mut self) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        let mut w = self.min_word;
        while self.words[w] == 0 {
            w += 1;
        }
        self.min_word = w;
        let bit = self.words[w].trailing_zeros() as usize;
        self.words[w] &= self.words[w] - 1;
        self.len -= 1;
        Some((w << 6) | bit)
    }
}

/// A CSR view of one observation's edges, rebuilt per incremental push so
/// the window re-sort reads each vertex's observed successors as a
/// contiguous slice instead of binary-searching the edge list per vertex.
/// The edge list is already sorted by source, so building the view is a
/// single counting pass plus a target copy.
#[derive(Clone, Debug, Default)]
struct ObsCsr {
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl ObsCsr {
    fn build(&mut self, obs: &ObservedEdges, num_vertices: usize) {
        self.offsets.clear();
        self.offsets.resize(num_vertices + 1, 0);
        for &(u, _) in obs.edges() {
            self.offsets[u as usize + 1] += 1;
        }
        for v in 0..num_vertices {
            self.offsets[v + 1] += self.offsets[v];
        }
        self.targets.clear();
        self.targets.extend(obs.edges().iter().map(|&(_, w)| w));
    }

    fn successors(&self, v: u32) -> &[u32] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.targets[lo..hi]
    }
}

impl ObsAdj for ObsCsr {
    fn for_successors<F: FnMut(u32)>(&self, v: u32, mut f: F) {
        for &w in self.successors(v) {
            f(w);
        }
    }

    fn bump_indegrees(&self, indegree: &mut [u32]) {
        for &w in &self.targets {
            indegree[w as usize] += 1;
        }
    }
}

/// One execution's observed edges as the shared incremental body reads
/// them: an [`ObsAdj`] for complete sorts and cycle extraction, plus the
/// adjacency a window re-sort scans — a per-push CSR view of a canonical
/// edge list, or the delta set itself.
trait Observation: ObsAdj {
    type Window: ObsAdj;
    fn window<'a>(&'a self, csr: &'a mut ObsCsr, num_vertices: usize) -> &'a Self::Window;
}

impl Observation for ObservedEdges {
    type Window = ObsCsr;
    fn window<'a>(&'a self, csr: &'a mut ObsCsr, num_vertices: usize) -> &'a ObsCsr {
        csr.build(self, num_vertices);
        csr
    }
}

impl Observation for DeltaObservations {
    type Window = Self;
    fn window<'a>(&'a self, _: &'a mut ObsCsr, _: usize) -> &'a Self {
        self
    }
}

impl<'s> CollectiveChecker<'s> {
    /// Creates a checker with the paper-faithful single re-sorting window.
    pub fn new(spec: &'s TestGraphSpec) -> Self {
        CollectiveChecker {
            spec,
            split_windows: false,
            order: Vec::new(),
            pos: vec![0; spec.num_vertices()],
            base: ObservedEdges::default(),
            has_base: false,
            delta_base: false,
            obs_csr: ObsCsr::default(),
            sort_scratch: SortScratch::default(),
            window_scratch: WindowScratch::default(),
            last_cycle: Vec::new(),
            last_verdict: None,
            stats: CollectiveStats::default(),
        }
    }

    /// Returns the checker using split re-sorting windows — an optimization
    /// beyond §4.2.
    ///
    /// The paper re-sorts the single span from the first to the last vertex
    /// adjacent to a new backward edge; when backward edges cluster in
    /// distant regions, that one window covers mostly-untouched vertices.
    /// Merging each backward edge's position interval and re-sorting the
    /// resulting disjoint intervals independently is equally precise: every
    /// cycle contains a new backward edge, forward edges only increase
    /// positions, and any backward edge bridging two intervals would have
    /// merged them — so a cycle can never span disjoint intervals.
    pub fn with_split_windows(mut self) -> Self {
        self.split_windows = true;
        self
    }

    /// Work counters and the Figure 14 breakdown so far.
    pub fn stats(&self) -> &CollectiveStats {
        &self.stats
    }

    /// Checks a whole sequence of executions with this checker and returns
    /// the per-graph verdicts in input order, the checker's stats, and —
    /// when `certify` is set — one [`Certificate`] per graph (see
    /// [`last_certificate`](Self::last_certificate)). Certifying never
    /// changes a verdict or a stat; the only extra work is cloning each
    /// witness.
    pub fn check_all(mut self, observations: &[ObservedEdges], certify: bool) -> CollectiveOutcome {
        let mut outcome = CollectiveOutcome {
            results: Vec::with_capacity(observations.len()),
            certificates: Vec::with_capacity(if certify { observations.len() } else { 0 }),
            stats: CollectiveStats::default(),
        };
        for obs in observations {
            outcome.results.push(self.push(obs));
            if certify {
                outcome.certificates.push(
                    self.last_certificate()
                        .expect("a push always records a verdict"),
                );
            }
        }
        outcome.stats = self.stats;
        outcome
    }

    /// Checks one more execution's observed edges.
    ///
    /// # Errors
    ///
    /// Returns the dependency [`Violation`] when the execution's constraint
    /// graph is cyclic; the checker recovers on the next push with a
    /// complete sort.
    ///
    /// # Panics
    ///
    /// Panics when called while a base established by
    /// [`push_delta`](Self::push_delta) is live.
    pub fn push(&mut self, obs: &ObservedEdges) -> Result<(), Violation> {
        assert!(
            !(self.has_base && self.delta_base),
            "CollectiveChecker::push must not follow push_delta while a base is live"
        );
        self.delta_base = false;
        // Diff against the last valid observation; only new edges can
        // point backwards under a valid order.
        let base = std::mem::take(&mut self.base);
        let result = self.step(obs, obs.difference(&base));
        self.base = base;
        if result.is_ok() {
            self.base.clone_from(obs);
        }
        result
    }

    /// Checks one more execution presented as a running delta.
    ///
    /// `set` must hold the execution's complete observed-edge multiset,
    /// maintained by the caller: [`DeltaObservations::begin`] once per
    /// execution, then [`add`](DeltaObservations::add) /
    /// [`remove`](DeltaObservations::remove) for the edge contributions that
    /// changed since the previous execution. This skips re-canonicalizing
    /// and re-diffing the full edge list per graph — the delta *is* the
    /// diff — and produces verdicts, cycles, and [`CollectiveStats`]
    /// identical to feeding the materialized sets through
    /// [`push`](CollectiveChecker::push).
    ///
    /// Do not interleave with [`push`](CollectiveChecker::push) while a
    /// base order is live (either entry point may seed a fresh checker or
    /// take over after a violation).
    ///
    /// # Errors
    ///
    /// Returns the dependency [`Violation`] when the execution's constraint
    /// graph is cyclic; the checker recovers on the next push with a
    /// complete sort.
    ///
    /// # Panics
    ///
    /// Panics when called while a base established by
    /// [`push`](CollectiveChecker::push) is live.
    pub fn push_delta(&mut self, set: &DeltaObservations) -> Result<(), Violation> {
        assert!(
            !self.has_base || self.delta_base,
            "CollectiveChecker::push_delta must not follow push while a base is live"
        );
        self.delta_base = true;
        // The caller's updates since the last push are the diff: edges with
        // a net absent-to-present transition are exactly `obs \ base`.
        self.step(set, set.new_edges())
    }

    /// The incremental body behind both push forms: a complete sort when
    /// there is no base order, otherwise the window re-sort over the
    /// positions spanned by `new_edges` (the edges absent from the base)
    /// that point backwards under the current order.
    fn step<O: Observation>(
        &mut self,
        obs: &O,
        new_edges: impl Iterator<Item = (u32, u32)>,
    ) -> Result<(), Violation> {
        self.stats.graphs += 1;
        if !self.has_base {
            // First graph (or recovery): complete conventional sort.
            self.stats.complete += 1;
            return match full_sort_into(
                self.spec,
                obs,
                &mut self.stats.work,
                &mut self.sort_scratch,
            ) {
                Ok(()) => {
                    self.order.clone_from(&self.sort_scratch.order);
                    for (p, &v) in self.order.iter().enumerate() {
                        self.pos[v as usize] = p as u32;
                    }
                    self.has_base = true;
                    self.last_verdict = Some(true);
                    Ok(())
                }
                Err(remaining) => {
                    self.stats.violations += 1;
                    let cycle = extract_cycle(self.spec, obs, &remaining);
                    self.last_cycle.clone_from(&cycle);
                    self.last_verdict = Some(false);
                    Err(violation_from_cycle(self.spec, cycle))
                }
            };
        }
        let mut intervals = std::mem::take(&mut self.window_scratch.intervals);
        intervals.clear();
        for (u, v) in new_edges {
            self.stats.work += 1;
            if self.pos[u as usize] > self.pos[v as usize] {
                intervals.push((self.pos[v as usize], self.pos[u as usize]));
            }
        }
        if intervals.is_empty() {
            self.window_scratch.intervals = intervals;
            self.stats.no_resort += 1;
            self.last_verdict = Some(true);
            return Ok(());
        }
        self.stats.incremental += 1;
        self.stats.incremental_vertices += self.spec.num_vertices() as u64;
        let window = obs.window(&mut self.obs_csr, self.spec.num_vertices());
        let mut merged = std::mem::take(&mut self.window_scratch.merged);
        merged.clear();
        if self.split_windows {
            intervals.sort_unstable();
            for &(lo, hi) in &intervals {
                match merged.last_mut() {
                    Some((_, end)) if lo <= *end => *end = (*end).max(hi),
                    _ => merged.push((lo, hi)),
                }
            }
        } else {
            // Paper-faithful: one window from the leading to the trailing
            // boundary.
            let lead = intervals
                .iter()
                .map(|&(lo, _)| lo)
                .min()
                .expect("non-empty");
            let trail = intervals
                .iter()
                .map(|&(_, hi)| hi)
                .max()
                .expect("non-empty");
            merged.push((lead, trail));
        }
        self.window_scratch.intervals = intervals;
        let mut result = Ok(());
        for &(lead, trail) in &merged {
            if let Err(remaining) = resort_window(
                self.spec,
                window,
                &mut self.order,
                &mut self.pos,
                lead as usize,
                trail as usize,
                &mut self.stats,
                &mut self.window_scratch,
            ) {
                self.stats.violations += 1;
                // The order no longer matches any valid graph; recover
                // with a complete sort on the next push (no base).
                self.has_base = false;
                let cycle = extract_cycle(self.spec, obs, &remaining);
                self.last_cycle.clone_from(&cycle);
                result = Err(violation_from_cycle(self.spec, cycle));
                break;
            }
        }
        self.window_scratch.merged = merged;
        self.last_verdict = Some(result.is_ok());
        result
    }

    /// The certificate witnessing the most recent push's verdict, or
    /// `None` before any push.
    ///
    /// PASS is witnessed by the checker's current topological order — any
    /// valid topological order proves acyclicity, so the history-dependent
    /// orders the incremental paths maintain are all sound witnesses. FAIL
    /// is witnessed by the extracted cycle, captured on the violation cold
    /// path; the accepting hot path pays only a flag write, and the PASS
    /// witness is cloned on demand here.
    pub fn last_certificate(&self) -> Option<Certificate> {
        match self.last_verdict {
            None => None,
            Some(true) => Some(Certificate::Pass {
                order: self.order.clone(),
            }),
            Some(false) => Some(Certificate::Fail {
                cycle: self.last_cycle.clone(),
            }),
        }
    }
}

/// Re-sorts `order[lead..=trail]` against all current edges among the
/// window's vertices. On success the window is spliced back and `pos`
/// updated; on failure the vertices Kahn could not place are returned for
/// the caller to extract a cycle from (keeping this hot path free of the
/// cold extraction machinery). All working state lives in `scratch`,
/// reused across windows and pushes.
#[allow(clippy::too_many_arguments)]
fn resort_window<A: ObsAdj>(
    spec: &TestGraphSpec,
    obs: &A,
    order: &mut [u32],
    pos: &mut [u32],
    lead: usize,
    trail: usize,
    stats: &mut CollectiveStats,
    scratch: &mut WindowScratch,
) -> Result<(), Vec<u32>> {
    let window = &order[lead..=trail];
    let w = window.len();
    stats.resorted_vertices += w as u64;
    // The window is contiguous in positions, so membership is a range check
    // on `pos` (still valid for the pre-splice order) and the local index
    // of vertex v is `pos[v] - lead`: one compare, with positions below
    // `lead` wrapping around to huge offsets. Whether a successor is inside
    // the window is data-dependent and branch-hostile, so both passes remap
    // out-of-window edges to a sentinel in-degree slot (index `w`) instead
    // of branching: the bump pass increments it harmlessly, and it starts
    // far enough from zero that the relax pass can never drain it into the
    // ready sets.
    let width = (trail - lead) as u32;
    let indegree = &mut scratch.indegree;
    indegree.clear();
    indegree.resize(w + 1, 0);
    indegree[w] = u32::MAX / 2;
    for &v in window {
        let mut bump = |wv: u32| {
            let off = pos[wv as usize].wrapping_sub(lead as u32);
            let j = if off <= width { off as usize } else { w };
            indegree[j] += 1;
        };
        for &wv in spec.static_successors(v) {
            bump(wv);
        }
        obs.for_successors(v, bump);
    }
    // Store-first tie-break on the old position (= local index), keeping
    // the new suborder close to the old one.
    let ready_stores = &mut scratch.ready_stores;
    let ready_others = &mut scratch.ready_others;
    ready_stores.reset(w);
    ready_others.reset(w);
    for (i, &v) in window.iter().enumerate() {
        if indegree[i] == 0 {
            if spec.is_store(v) {
                ready_stores.insert(i);
            } else {
                ready_others.insert(i);
            }
        }
    }
    let sub_order = &mut scratch.sub_order;
    sub_order.clear();
    sub_order.reserve(w);
    while let Some(i) = ready_stores.pop_min().or_else(|| ready_others.pop_min()) {
        let v = window[i];
        sub_order.push(v);
        stats.work += 1;
        let mut relax = |wv: u32| {
            let off = pos[wv as usize].wrapping_sub(lead as u32);
            if off <= width {
                let j = off as usize;
                stats.work += 1;
                indegree[j] -= 1;
                if indegree[j] == 0 {
                    if spec.is_store(wv) {
                        ready_stores.insert(j);
                    } else {
                        ready_others.insert(j);
                    }
                }
            }
        };
        for &wv in spec.static_successors(v) {
            relax(wv);
        }
        obs.for_successors(v, relax);
    }
    if sub_order.len() < w {
        // Only window vertices can remain unplaced (cycles never leave the
        // window), which also restricts the caller's cycle extraction.
        return Err(window
            .iter()
            .enumerate()
            .filter(|&(i, _)| indegree[i] > 0)
            .map(|(_, &v)| v)
            .collect());
    }
    for (offset, &v) in sub_order.iter().enumerate() {
        order[lead + offset] = v;
        pos[v as usize] = (lead + offset) as u32;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CheckOptions;
    use mtc_isa::{litmus, Mcm, OpId, Program, ReadsFrom, Tid, Value};

    fn corr() -> (Program, TestGraphSpec) {
        let t = litmus::corr();
        let spec = TestGraphSpec::new(&t.program, Mcm::Tso);
        (t.program, spec)
    }

    fn obs(p: &Program, spec: &TestGraphSpec, reads: &[(u32, u32, u32)]) -> ObservedEdges {
        let mut rf = ReadsFrom::new();
        for &(t, i, v) in reads {
            rf.record(OpId::new(Tid(t), i), Value(v));
        }
        spec.observe(p, &rf, &CheckOptions::default())
    }

    fn check(spec: &TestGraphSpec, seq: &[ObservedEdges]) -> CollectiveOutcome {
        CollectiveChecker::new(spec).check_all(seq, false)
    }

    /// Checks `seq` as consecutive chunks of `lengths`, one fresh checker
    /// per chunk.
    fn check_chunks(
        spec: &TestGraphSpec,
        seq: &[ObservedEdges],
        lengths: &[usize],
    ) -> CollectiveOutcome {
        let mut rest = seq;
        lengths
            .iter()
            .map(|&len| {
                let (chunk, tail) = rest.split_at(len);
                rest = tail;
                check(spec, chunk)
            })
            .collect()
    }

    #[test]
    fn agrees_with_conventional_on_valid_sequences() {
        let (p, spec) = corr();
        let seq = vec![
            obs(&p, &spec, &[(1, 0, 0), (1, 1, 0)]),
            obs(&p, &spec, &[(1, 0, 0), (1, 1, 1)]),
            obs(&p, &spec, &[(1, 0, 1), (1, 1, 1)]),
        ];
        let collective = check(&spec, &seq);
        let conventional = crate::check_conventional(&spec, &seq, false);
        assert_eq!(collective.violation_count(), 0);
        assert_eq!(conventional.violation_count(), 0);
        assert!(
            collective.stats.work <= conventional.stats.work,
            "collective must not do more work"
        );
        assert_eq!(collective.stats.complete, 1);
        assert_eq!(collective.stats.no_resort + collective.stats.incremental, 2);
    }

    #[test]
    fn detects_the_violating_graph_in_a_sequence() {
        let (p, spec) = corr();
        let seq = vec![
            obs(&p, &spec, &[(1, 0, 1), (1, 1, 1)]), // fine
            obs(&p, &spec, &[(1, 0, 1), (1, 1, 0)]), // anti-coherent
            obs(&p, &spec, &[(1, 0, 0), (1, 1, 1)]), // fine again
        ];
        let outcome = check(&spec, &seq);
        assert!(outcome.results[0].is_ok());
        assert!(outcome.results[1].is_err());
        assert!(outcome.results[2].is_ok());
        // After a violation the checker recovers with a complete sort.
        assert_eq!(outcome.stats.complete, 2);
    }

    #[test]
    fn no_resort_when_graphs_repeat() {
        let (p, spec) = corr();
        let o = obs(&p, &spec, &[(1, 0, 1), (1, 1, 1)]);
        let seq = vec![o.clone(), o.clone(), o];
        let outcome = check(&spec, &seq);
        assert_eq!(outcome.stats.no_resort, 2);
        assert_eq!(outcome.stats.resorted_vertices, 0);
    }

    #[test]
    fn empty_sequence_is_trivially_fine() {
        let (_, spec) = corr();
        let outcome = check(&spec, &[]);
        assert_eq!(outcome.stats.graphs, 0);
        assert_eq!(outcome.violation_count(), 0);
    }

    #[test]
    fn streaming_checker_matches_batch() {
        let (p, spec) = corr();
        let seq = vec![
            obs(&p, &spec, &[(1, 0, 0), (1, 1, 0)]),
            obs(&p, &spec, &[(1, 0, 1), (1, 1, 0)]), // violating
            obs(&p, &spec, &[(1, 0, 1), (1, 1, 1)]),
            obs(&p, &spec, &[(1, 0, 0), (1, 1, 1)]),
        ];
        let batch = check(&spec, &seq);
        let mut streaming = CollectiveChecker::new(&spec);
        for (i, o) in seq.iter().enumerate() {
            assert_eq!(
                streaming.push(o).is_ok(),
                batch.results[i].is_ok(),
                "graph {i} verdict differs"
            );
        }
        assert_eq!(*streaming.stats(), batch.stats);
    }

    #[test]
    fn split_windows_agree_with_single_window() {
        let (p, spec) = corr();
        let seq = vec![
            obs(&p, &spec, &[(1, 0, 0), (1, 1, 0)]),
            obs(&p, &spec, &[(1, 0, 1), (1, 1, 1)]),
            obs(&p, &spec, &[(1, 0, 1), (1, 1, 0)]), // violating
            obs(&p, &spec, &[(1, 0, 0), (1, 1, 1)]),
        ];
        let single = check(&spec, &seq);
        let split = CollectiveChecker::new(&spec)
            .with_split_windows()
            .check_all(&seq, false);
        for (a, b) in single.results.iter().zip(split.results.iter()) {
            assert_eq!(a.is_ok(), b.is_ok());
        }
        assert!(split.stats.resorted_vertices <= single.stats.resorted_vertices);
    }

    /// The four observable outcomes of the CoRR litmus test (one violating).
    fn corr_outcomes(p: &Program, spec: &TestGraphSpec) -> Vec<ObservedEdges> {
        vec![
            obs(p, spec, &[(1, 0, 0), (1, 1, 0)]),
            obs(p, spec, &[(1, 0, 0), (1, 1, 1)]),
            obs(p, spec, &[(1, 0, 1), (1, 1, 1)]),
            obs(p, spec, &[(1, 0, 1), (1, 1, 0)]), // anti-coherent
        ]
    }

    #[test]
    fn push_delta_matches_push() {
        let (p, spec) = corr();
        let outcomes = corr_outcomes(&p, &spec);
        // Include the violating outcome mid-sequence so the delta path also
        // exercises complete-sort recovery.
        let seq: Vec<ObservedEdges> = [0, 1, 3, 2, 0, 3, 1, 1, 2]
            .iter()
            .map(|&i| outcomes[i].clone())
            .collect();
        let mut reference = CollectiveChecker::new(&spec);
        let mut delta_checker = CollectiveChecker::new(&spec);
        let mut set = DeltaObservations::new(spec.num_vertices());
        let mut prev = ObservedEdges::default();
        for (i, o) in seq.iter().enumerate() {
            set.begin();
            for (u, v) in prev.difference(o) {
                set.remove(u, v);
            }
            for (u, v) in o.difference(&prev) {
                set.add(u, v);
            }
            prev.clone_from(o);
            assert_eq!(
                reference.push(o),
                delta_checker.push_delta(&set),
                "graph {i}"
            );
        }
        assert_eq!(reference.stats(), delta_checker.stats());
    }

    #[test]
    #[should_panic(expected = "must not follow push_delta")]
    fn mixing_push_kinds_panics() {
        let (p, spec) = corr();
        let o = obs(&p, &spec, &[(1, 0, 1), (1, 1, 1)]);
        let mut checker = CollectiveChecker::new(&spec);
        let mut set = DeltaObservations::new(spec.num_vertices());
        set.begin();
        for (u, v) in o.difference(&ObservedEdges::default()) {
            set.add(u, v);
        }
        checker.push_delta(&set).unwrap();
        let _ = checker.push(&o);
    }

    #[test]
    fn certifying_changes_nothing_but_the_witnesses() {
        let (p, spec) = corr();
        let seq = corr_outcomes(&p, &spec);
        let plain = check(&spec, &seq);
        let certified = CollectiveChecker::new(&spec).check_all(&seq, true);
        assert!(plain.certificates.is_empty());
        assert_eq!(certified.certificates.len(), seq.len());
        assert_eq!(plain.results, certified.results);
        assert_eq!(plain.stats, certified.stats);
        for (result, cert) in certified.results.iter().zip(&certified.certificates) {
            assert_eq!(result.is_err(), matches!(cert, Certificate::Fail { .. }));
        }
    }

    /// Chunks of the even plan checked on their own threads, collected in
    /// plan order, equal the same plan checked serially — whatever the
    /// thread scheduling.
    #[test]
    fn chunked_matches_boundaries_on_the_even_plan() {
        let (p, spec) = corr();
        let outcomes = corr_outcomes(&p, &spec);
        let seq: Vec<ObservedEdges> = (0..17).map(|i| outcomes[i % 4].clone()).collect();
        for chunks in [1, 2, 3, 4, 8] {
            let lengths = even_chunk_lengths(seq.len(), chunks);
            let parallel: CollectiveOutcome = std::thread::scope(|scope| {
                let mut rest = seq.as_slice();
                let handles: Vec<_> = lengths
                    .iter()
                    .map(|&len| {
                        let (chunk, tail) = rest.split_at(len);
                        rest = tail;
                        let spec = &spec;
                        scope.spawn(move || check(spec, chunk))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("no worker panics"))
                    .collect()
            });
            let serial = check_chunks(&spec, &seq, &lengths);
            assert_eq!(parallel.results, serial.results, "{chunks} chunks");
            assert_eq!(parallel.stats, serial.stats, "{chunks} chunks");
        }
    }

    #[test]
    fn chunking_accounts_extra_complete_sorts() {
        let (p, spec) = corr();
        let outcomes = corr_outcomes(&p, &spec);
        let seq: Vec<ObservedEdges> = (0..12).map(|i| outcomes[i % 3].clone()).collect();
        let whole = check(&spec, &seq);
        let chunked = check_chunks(&spec, &seq, &even_chunk_lengths(seq.len(), 4));
        // Verdicts identical; each chunk re-seeds with one complete sort.
        for (a, b) in whole.results.iter().zip(chunked.results.iter()) {
            assert_eq!(a.is_ok(), b.is_ok());
        }
        assert_eq!(chunked.stats.complete, whole.stats.complete + 3);
        assert_eq!(
            chunked.stats.complete + chunked.stats.no_resort + chunked.stats.incremental,
            chunked.stats.graphs,
            "Figure 14 identity must survive chunking"
        );
    }

    #[test]
    fn even_chunk_lengths_partition() {
        assert_eq!(even_chunk_lengths(10, 4), vec![3, 3, 2, 2]);
        assert_eq!(even_chunk_lengths(3, 8), vec![1, 1, 1]);
        assert_eq!(even_chunk_lengths(0, 4), vec![0]);
        assert_eq!(even_chunk_lengths(5, 1), vec![5]);
    }

    #[test]
    fn merge_is_fieldwise_addition() {
        let a = CollectiveStats {
            graphs: 3,
            complete: 1,
            no_resort: 1,
            incremental: 1,
            resorted_vertices: 4,
            incremental_vertices: 8,
            violations: 1,
            work: 20,
        };
        let b = CollectiveStats {
            graphs: 2,
            complete: 1,
            no_resort: 1,
            incremental: 0,
            resorted_vertices: 0,
            incremental_vertices: 0,
            violations: 0,
            work: 5,
        };
        let m = a.merge(&b);
        assert_eq!(m.graphs, 5);
        assert_eq!(m.complete + m.no_resort + m.incremental, m.graphs);
        assert_eq!(m.work, 25);
        assert_eq!(a.merge(&CollectiveStats::default()), a, "identity");
        assert_eq!(a.merge(&b), b.merge(&a), "commutative");
    }

    mod chunk_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Arbitrary chunk boundaries never change any graph's verdict,
            /// and the merged stats keep the Figure 14 identity.
            #[test]
            fn boundaries_do_not_change_verdicts(
                picks in prop::collection::vec(0usize..4, 1..40),
                cuts in prop::collection::vec(any::<usize>(), 0..6),
            ) {
                let (p, spec) = corr();
                let outcomes = corr_outcomes(&p, &spec);
                let seq: Vec<ObservedEdges> =
                    picks.iter().map(|&i| outcomes[i].clone()).collect();
                let mut bounds: Vec<usize> =
                    cuts.iter().map(|&c| c % (seq.len() + 1)).collect();
                bounds.push(0);
                bounds.push(seq.len());
                bounds.sort_unstable();
                bounds.dedup();
                let lengths: Vec<usize> =
                    bounds.windows(2).map(|w| w[1] - w[0]).collect();

                let whole = check(&spec, &seq);
                let chunked = check_chunks(&spec, &seq, &lengths);
                prop_assert_eq!(whole.results.len(), chunked.results.len());
                for (a, b) in whole.results.iter().zip(chunked.results.iter()) {
                    prop_assert_eq!(a.is_ok(), b.is_ok());
                }
                let s = chunked.stats;
                prop_assert_eq!(
                    s.complete + s.no_resort + s.incremental,
                    s.graphs
                );
                prop_assert_eq!(s.graphs, seq.len());
                prop_assert_eq!(s.violations, whole.stats.violations);
            }
        }
    }

    #[test]
    fn stats_fractions() {
        let mut s = CollectiveStats::default();
        assert_eq!(s.affected_vertex_fraction(), 0.0);
        assert_eq!(s.no_resort_fraction(), 0.0);
        s.graphs = 10;
        s.no_resort = 5;
        s.incremental = 4;
        s.incremental_vertices = 40;
        s.resorted_vertices = 10;
        assert_eq!(s.no_resort_fraction(), 0.5);
        assert_eq!(s.affected_vertex_fraction(), 0.25);
    }
}
