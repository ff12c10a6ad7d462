//! Kahn topological sorting with a store-first tie-break, cycle extraction,
//! and the conventional per-graph checker MTraceCheck is compared against.
//!
//! The tie-break mirrors the behaviour of GNU `tsort` the paper leans on in
//! §8: "tsort unwittingly places store operations prior to load operations
//! since stores do not depend on any load operations in absence of memory
//! barriers". Preferring stores keeps successive sorts structurally similar,
//! which is what lets most ARM graphs re-sort for free (Figure 14).

use crate::{ObservedEdges, TestGraphSpec};
use mtc_isa::OpId;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

/// A detected memory-consistency violation: a dependency cycle in the
/// constraint graph.
#[derive(Clone, Debug, Eq, PartialEq, Serialize, Deserialize)]
pub struct Violation {
    /// The operations forming the cycle, in order (the last edge returns to
    /// the first element).
    pub cycle: Vec<OpId>,
}

impl Violation {
    /// Builds the violation record for a raw vertex cycle — the same
    /// mapping the checkers apply to a freshly extracted cycle, so a FAIL
    /// [`Certificate`](crate::Certificate) rehydrates into a record
    /// identical to the one the original check produced.
    pub fn from_cycle(spec: &TestGraphSpec, cycle: Vec<u32>) -> Self {
        violation_from_cycle(spec, cycle)
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("cycle: ")?;
        for (i, op) in self.cycle.iter().enumerate() {
            if i > 0 {
                f.write_str(" -> ")?;
            }
            write!(f, "{op}")?;
        }
        if !self.cycle.is_empty() {
            write!(f, " -> {}", self.cycle[0])?;
        }
        Ok(())
    }
}

/// Work counters for a checking pass. `work` counts visited vertices plus
/// traversed edges — the Θ(V+E) currency of topological sorting, used to
/// report the Figure 9 computation reduction independently of wall clock.
#[derive(Copy, Clone, Debug, Default, Eq, PartialEq, Serialize, Deserialize)]
pub struct CheckStats {
    /// Graphs checked.
    pub graphs: usize,
    /// Graphs found to violate the MCM.
    pub violations: usize,
    /// Vertices visited plus edges traversed.
    pub work: u64,
}

/// Outcome of checking a sequence of executions' graphs.
#[derive(Clone, Debug, Default)]
pub struct CheckOutcome {
    /// Per-graph result, in input order.
    pub results: Vec<Result<(), Violation>>,
    /// Per-graph verdict certificates, in input order — empty unless the
    /// pass was asked to certify.
    pub certificates: Vec<crate::Certificate>,
    /// Aggregate work counters.
    pub stats: CheckStats,
}

impl CheckOutcome {
    /// Number of graphs that violated the MCM.
    pub fn violation_count(&self) -> usize {
        self.results.iter().filter(|r| r.is_err()).count()
    }
}

/// Read access to one execution's observed out-edges, abstracted so the
/// sorting routines run unchanged over a canonical [`ObservedEdges`] list,
/// a per-push CSR view, or the refcounted delta set — all of which present
/// each vertex's observed successors in ascending order, keeping every
/// traversal (and therefore every verdict, stat, and extracted cycle)
/// identical across representations.
pub(crate) trait ObsAdj {
    /// Calls `f` once per observed successor of `v`, ascending.
    fn for_successors<F: FnMut(u32)>(&self, v: u32, f: F);
    /// Adds each observed edge's contribution to per-vertex in-degrees.
    fn bump_indegrees(&self, indegree: &mut [u32]);
}

impl ObsAdj for ObservedEdges {
    fn for_successors<F: FnMut(u32)>(&self, v: u32, mut f: F) {
        for w in self.successors(v) {
            f(w);
        }
    }

    fn bump_indegrees(&self, indegree: &mut [u32]) {
        for &(_, w) in self.edges() {
            indegree[w as usize] += 1;
        }
    }
}

/// Reusable buffers for repeated Kahn sorts over the same spec. The
/// collective checker sorts millions of near-identical graphs; keeping the
/// in-degree array, the two ready heaps and the order buffer alive across
/// sorts removes every per-sort allocation.
#[derive(Clone, Debug, Default)]
pub(crate) struct SortScratch {
    indegree: Vec<u32>,
    ready_stores: BinaryHeap<Reverse<u32>>,
    ready_others: BinaryHeap<Reverse<u32>>,
    /// The produced topological order (valid after a successful sort).
    pub(crate) order: Vec<u32>,
}

/// Performs a complete Kahn sort of static + observed edges into
/// `scratch.order`.
///
/// Returns the vertices Kahn could not place on failure (every one lies on
/// or leads into a cycle — pass them to [`extract_cycle`]). `work` is
/// incremented by the vertices visited and edges traversed.
pub(crate) fn full_sort_into<A: ObsAdj>(
    spec: &TestGraphSpec,
    obs: &A,
    work: &mut u64,
    scratch: &mut SortScratch,
) -> Result<(), Vec<u32>> {
    let n = spec.num_vertices();
    let indegree = &mut scratch.indegree;
    indegree.clear();
    indegree.extend_from_slice(spec.static_indegree());
    obs.bump_indegrees(indegree);
    // Store-first tie-break, then lowest vertex id: two min-heaps.
    let ready_stores = &mut scratch.ready_stores;
    let ready_others = &mut scratch.ready_others;
    ready_stores.clear();
    ready_others.clear();
    for v in 0..n as u32 {
        if indegree[v as usize] == 0 {
            if spec.is_store(v) {
                ready_stores.push(Reverse(v));
            } else {
                ready_others.push(Reverse(v));
            }
        }
    }
    let order = &mut scratch.order;
    order.clear();
    order.reserve(n);
    while let Some(Reverse(v)) = ready_stores.pop().or_else(|| ready_others.pop()) {
        order.push(v);
        *work += 1;
        let mut relax = |w: u32| {
            *work += 1;
            indegree[w as usize] -= 1;
            if indegree[w as usize] == 0 {
                if spec.is_store(w) {
                    ready_stores.push(Reverse(w));
                } else {
                    ready_others.push(Reverse(w));
                }
            }
        };
        for &w in spec.static_successors(v) {
            relax(w);
        }
        obs.for_successors(v, relax);
    }
    if order.len() == n {
        Ok(())
    } else {
        Err((0..n as u32)
            .filter(|&v| indegree[v as usize] > 0)
            .collect())
    }
}

/// Finds one cycle within `remaining` (vertices that Kahn could not place;
/// every such vertex lies on or leads into a cycle).
///
/// This is the cold path — it only runs on violating graphs — but its DFS
/// order is pinned by the golden vectors: vertices start in `remaining`
/// order and children are visited static-successors-first, ascending.
pub(crate) fn extract_cycle<A: ObsAdj>(
    spec: &TestGraphSpec,
    obs: &A,
    remaining: &[u32],
) -> Vec<u32> {
    debug_assert!(!remaining.is_empty());
    const WHITE: u8 = 0;
    const GREY: u8 = 1;
    const BLACK: u8 = 2;
    let n = spec.num_vertices();
    let mut in_remaining = vec![false; n];
    for &v in remaining {
        in_remaining[v as usize] = true;
    }
    let mut colour = vec![WHITE; n];
    let succs = |v: u32| -> Vec<u32> {
        let mut out = spec.static_successors(v).to_vec();
        obs.for_successors(v, |w| out.push(w));
        out.retain(|&w| in_remaining[w as usize]);
        out
    };
    // Iterative three-colour DFS: a back edge to a grey vertex closes the
    // cycle. The unplaced subgraph always contains one.
    for &start in remaining {
        if colour[start as usize] != WHITE {
            continue;
        }
        let mut stack: Vec<(u32, Vec<u32>, usize)> = vec![(start, succs(start), 0)];
        colour[start as usize] = GREY;
        let mut path = vec![start];
        while let Some((_, children, next)) = stack.last_mut() {
            if *next >= children.len() {
                let (v, _, _) = stack.pop().expect("stack is non-empty");
                colour[v as usize] = BLACK;
                path.pop();
                continue;
            }
            let w = children[*next];
            *next += 1;
            match colour[w as usize] {
                GREY => {
                    let at = path
                        .iter()
                        .position(|&u| u == w)
                        .expect("grey vertices are on the path");
                    return path[at..].to_vec();
                }
                WHITE => {
                    colour[w as usize] = GREY;
                    path.push(w);
                    stack.push((w, succs(w), 0));
                }
                _ => {}
            }
        }
    }
    unreachable!("unplaced Kahn vertices always contain a cycle")
}

pub(crate) fn violation_from_cycle(spec: &TestGraphSpec, cycle: Vec<u32>) -> Violation {
    Violation {
        cycle: cycle.into_iter().map(|v| spec.op(v)).collect(),
    }
}

/// The conventional checker: every constraint graph is topologically sorted
/// from scratch, independently — the baseline MTraceCheck's collective
/// checking is measured against (Figure 9).
///
/// With `certify`, the outcome also carries a
/// [`Certificate`](crate::Certificate) witnessing each graph's verdict —
/// the produced topological order for PASS (materialized by every sort
/// anyway) or the extracted cycle for FAIL. Verdicts, stats and cycles are
/// the same either way.
pub fn check_conventional(
    spec: &TestGraphSpec,
    observations: &[ObservedEdges],
    certify: bool,
) -> CheckOutcome {
    let mut outcome = CheckOutcome::default();
    let mut scratch = SortScratch::default();
    for obs in observations {
        let result = match full_sort_into(spec, obs, &mut outcome.stats.work, &mut scratch) {
            Ok(()) => {
                if certify {
                    outcome.certificates.push(crate::Certificate::Pass {
                        order: scratch.order.clone(),
                    });
                }
                Ok(())
            }
            Err(remaining) => {
                outcome.stats.violations += 1;
                let cycle = extract_cycle(spec, obs, &remaining);
                if certify {
                    outcome.certificates.push(crate::Certificate::Fail {
                        cycle: cycle.clone(),
                    });
                }
                Err(violation_from_cycle(spec, cycle))
            }
        };
        outcome.results.push(result);
        outcome.stats.graphs += 1;
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CheckOptions;
    use mtc_isa::{litmus, Mcm, OpId, ReadsFrom, Tid, Value};

    fn corr_spec() -> (mtc_isa::Program, TestGraphSpec) {
        let t = litmus::corr();
        let spec = TestGraphSpec::new(&t.program, Mcm::Tso);
        (t.program, spec)
    }

    fn obs(p: &mtc_isa::Program, spec: &TestGraphSpec, reads: &[(u32, u32, u32)]) -> ObservedEdges {
        let mut rf = ReadsFrom::new();
        for &(t, i, v) in reads {
            rf.record(OpId::new(Tid(t), i), Value(v));
        }
        spec.observe(p, &rf, &CheckOptions::default())
    }

    #[test]
    fn valid_execution_sorts() {
        let (p, spec) = corr_spec();
        // Both loads read the store: fine.
        let o = obs(&p, &spec, &[(1, 0, 1), (1, 1, 1)]);
        let outcome = check_conventional(&spec, &[o], false);
        assert_eq!(outcome.results, vec![Ok(())]);
        assert_eq!(outcome.stats.graphs, 1);
        assert!(outcome.stats.work > 0);
    }

    #[test]
    fn anti_coherent_reads_cycle() {
        let (p, spec) = corr_spec();
        // First load reads the store, second reads init: rf(st,l1),
        // po(l1,l2), fr(l2,st) — the Figure 13 shape.
        let o = obs(&p, &spec, &[(1, 0, 1), (1, 1, 0)]);
        let outcome = check_conventional(&spec, &[o], false);
        assert_eq!(outcome.violation_count(), 1);
        let violation = outcome.results[0].as_ref().unwrap_err();
        assert_eq!(violation.cycle.len(), 3);
        let display = violation.to_string();
        assert!(display.contains("->"), "{display}");
    }

    #[test]
    fn store_first_tie_break() {
        let t = litmus::store_buffering();
        let spec = TestGraphSpec::new(&t.program, Mcm::Tso);
        // Each load reads the other thread's store: only rf edges, so both
        // stores start with zero indegree and the tie-break emits them
        // first (the tsort-like behaviour §8 relies on).
        let o = obs(&t.program, &spec, &[(0, 1, 2), (1, 1, 1)]);
        let mut work = 0;
        let mut scratch = SortScratch::default();
        full_sort_into(&spec, &o, &mut work, &mut scratch).unwrap();
        let order = &scratch.order;
        assert!(spec.is_store(order[0]));
        assert!(spec.is_store(order[1]));
    }

    #[test]
    fn sb_relaxed_is_cyclic_under_sc_but_fine_under_tso() {
        let t = litmus::store_buffering();
        for (mcm, expect_violation) in [(Mcm::Sc, true), (Mcm::Tso, false)] {
            let spec = TestGraphSpec::new(&t.program, mcm);
            let o = obs(&t.program, &spec, &[(0, 1, 0), (1, 1, 0)]);
            let outcome = check_conventional(&spec, &[o], false);
            assert_eq!(
                outcome.violation_count() == 1,
                expect_violation,
                "mcm {mcm}"
            );
        }
    }

    #[test]
    fn work_scales_with_graph_count() {
        let (p, spec) = corr_spec();
        let o = obs(&p, &spec, &[(1, 0, 1), (1, 1, 1)]);
        let one = check_conventional(&spec, std::slice::from_ref(&o), false);
        let three = check_conventional(&spec, &[o.clone(), o.clone(), o], false);
        assert_eq!(three.stats.work, 3 * one.stats.work);
    }
}
