//! Independent static verification of checker verdict certificates.
//!
//! The production checker in `mtc-graph` decides PASS/FAIL by (windowed,
//! incremental) topological sorting — a heavily optimized decision
//! procedure whose bugs would silently corrupt every campaign. This crate
//! re-validates each verdict from its [`Certificate`] alone, in one
//! O(V + E) linear pass over the constraint graph, *sharing no graph-search
//! code with the checker*:
//!
//! * **PASS** — the witness is a topological order. Verification checks it
//!   is a permutation of the vertices, builds the inverse position map, and
//!   checks every static and observed edge points forward. No sorting, no
//!   ready sets, no tie-breaks: if all edges go forward in *some* order,
//!   the graph is acyclic.
//! * **FAIL** — the witness is a cycle. Verification checks the vertices
//!   are in range and distinct and that every consecutive pair (wrapping
//!   around) is an edge of the graph. Any closed walk over real edges
//!   proves cyclicity.
//!
//! Soundness is one-sided by design: a certificate that verifies proves
//! the verdict; verification failure means the certificate (or the graph
//! it was checked against) is wrong, not that the opposite verdict holds.
//!
//! The only items consumed from `mtc-graph` are data carriers —
//! [`TestGraphSpec`] CSR accessors, [`ObservedEdges`], and the
//! [`Certificate`] type itself.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use mtc_graph::{Certificate, ObservedEdges, TestGraphSpec};
use std::fmt;

/// Why a certificate failed verification.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub enum VerifyError {
    /// A PASS order does not cover every vertex exactly once (wrong
    /// length).
    WrongOrderLength {
        /// Vertices in the graph.
        expected: usize,
        /// Entries in the certificate order.
        found: usize,
    },
    /// A certificate names a vertex id outside the graph.
    VertexOutOfRange {
        /// The offending vertex id.
        vertex: u32,
    },
    /// A vertex appears more than once (order must be a permutation; a
    /// witness cycle must be simple).
    RepeatedVertex {
        /// The repeated vertex id.
        vertex: u32,
    },
    /// A static edge points backwards under the PASS order.
    BackwardStaticEdge {
        /// Edge source.
        from: u32,
        /// Edge target.
        to: u32,
    },
    /// An observed edge points backwards under the PASS order.
    BackwardObservedEdge {
        /// Edge source.
        from: u32,
        /// Edge target.
        to: u32,
    },
    /// A FAIL cycle has no vertices.
    EmptyCycle,
    /// A consecutive FAIL-cycle pair is not an edge of the graph.
    MissingEdge {
        /// Claimed edge source.
        from: u32,
        /// Claimed edge target.
        to: u32,
    },
    /// The certificate kind does not match the verdict it is claimed to
    /// witness.
    KindMismatch {
        /// `true` when a FAIL witness was expected.
        expected_fail: bool,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::WrongOrderLength { expected, found } => write!(
                f,
                "pass order covers {found} vertices, graph has {expected}"
            ),
            VerifyError::VertexOutOfRange { vertex } => {
                write!(f, "vertex {vertex} is outside the graph")
            }
            VerifyError::RepeatedVertex { vertex } => {
                write!(f, "vertex {vertex} appears more than once")
            }
            VerifyError::BackwardStaticEdge { from, to } => {
                write!(
                    f,
                    "static edge {from} -> {to} points backwards in the order"
                )
            }
            VerifyError::BackwardObservedEdge { from, to } => write!(
                f,
                "observed edge {from} -> {to} points backwards in the order"
            ),
            VerifyError::EmptyCycle => write!(f, "fail certificate carries an empty cycle"),
            VerifyError::MissingEdge { from, to } => {
                write!(f, "cycle edge {from} -> {to} is not an edge of the graph")
            }
            VerifyError::KindMismatch { expected_fail } => write!(
                f,
                "certificate kind contradicts the verdict (expected a {} witness)",
                if *expected_fail { "fail" } else { "pass" }
            ),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Verifies `certificate` against the constraint graph formed by `spec`'s
/// static edges plus `obs`.
///
/// # Errors
///
/// [`VerifyError`] naming the first structural defect found; `Ok(())`
/// proves the certificate's verdict for this graph.
pub fn verify(
    spec: &TestGraphSpec,
    obs: &ObservedEdges,
    certificate: &Certificate,
) -> Result<(), VerifyError> {
    match certificate {
        Certificate::Pass { order } => verify_pass(spec, obs, order),
        Certificate::Fail { cycle } => verify_fail(spec, obs, cycle),
    }
}

/// Verifies `certificate` and that its kind matches the recorded verdict
/// (`verdict_failed` = the checker reported a violation).
///
/// # Errors
///
/// [`VerifyError::KindMismatch`] when the witness kind contradicts the
/// verdict, otherwise as [`verify`].
pub fn verify_verdict(
    spec: &TestGraphSpec,
    obs: &ObservedEdges,
    certificate: &Certificate,
    verdict_failed: bool,
) -> Result<(), VerifyError> {
    if certificate.is_pass() == verdict_failed {
        return Err(VerifyError::KindMismatch {
            expected_fail: verdict_failed,
        });
    }
    verify(spec, obs, certificate)
}

/// Permutation check + every-edge-forward: `order` proves acyclicity.
fn verify_pass(
    spec: &TestGraphSpec,
    obs: &ObservedEdges,
    order: &[u32],
) -> Result<(), VerifyError> {
    let n = spec.num_vertices();
    if order.len() != n {
        return Err(VerifyError::WrongOrderLength {
            expected: n,
            found: order.len(),
        });
    }
    // pos[v] = position of v in the order; the seen check makes it total
    // and injective, i.e. the order is a permutation of 0..n.
    let mut pos = vec![0u32; n];
    let mut seen = vec![false; n];
    for (p, &v) in order.iter().enumerate() {
        if v as usize >= n {
            return Err(VerifyError::VertexOutOfRange { vertex: v });
        }
        if seen[v as usize] {
            return Err(VerifyError::RepeatedVertex { vertex: v });
        }
        seen[v as usize] = true;
        pos[v as usize] = p as u32;
    }
    for u in 0..n as u32 {
        for &w in spec.static_successors(u) {
            if pos[u as usize] >= pos[w as usize] {
                return Err(VerifyError::BackwardStaticEdge { from: u, to: w });
            }
        }
    }
    for &(u, v) in obs.edges() {
        if u as usize >= n || v as usize >= n {
            let vertex = if u as usize >= n { u } else { v };
            return Err(VerifyError::VertexOutOfRange { vertex });
        }
        if pos[u as usize] >= pos[v as usize] {
            return Err(VerifyError::BackwardObservedEdge { from: u, to: v });
        }
    }
    Ok(())
}

/// Cycle-closure + edge-membership: `cycle` proves cyclicity.
fn verify_fail(
    spec: &TestGraphSpec,
    obs: &ObservedEdges,
    cycle: &[u32],
) -> Result<(), VerifyError> {
    let n = spec.num_vertices();
    if cycle.is_empty() {
        return Err(VerifyError::EmptyCycle);
    }
    let mut seen = vec![false; n];
    for &v in cycle {
        if v as usize >= n {
            return Err(VerifyError::VertexOutOfRange { vertex: v });
        }
        if seen[v as usize] {
            return Err(VerifyError::RepeatedVertex { vertex: v });
        }
        seen[v as usize] = true;
    }
    for (i, &u) in cycle.iter().enumerate() {
        let v = cycle[(i + 1) % cycle.len()];
        // Static successors and observed edges are both sorted, so
        // membership is a binary search — no traversal, no search state.
        let is_static = spec.static_successors(u).binary_search(&v).is_ok();
        let is_observed = obs.edges().binary_search(&(u, v)).is_ok();
        if !is_static && !is_observed {
            return Err(VerifyError::MissingEdge { from: u, to: v });
        }
    }
    // A single-vertex "cycle" is only real if the graph has a self-loop;
    // the membership check above already required the edge (u, u), which
    // canonicalized ObservedEdges never contain — so nothing more to do.
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtc_graph::CheckOptions;
    use mtc_isa::{litmus, Mcm, OpId, ReadsFrom, Tid, Value};

    fn corr() -> (mtc_isa::Program, TestGraphSpec) {
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
    fn accepts_checker_pass_witness() {
        let (p, spec) = corr();
        let o = obs(&p, &spec, &[(1, 0, 1), (1, 1, 1)]);
        let outcome = mtc_graph::check_conventional(&spec, std::slice::from_ref(&o), true);
        let certs = &outcome.certificates;
        assert!(outcome.results[0].is_ok());
        assert!(certs[0].is_pass());
        verify(&spec, &o, &certs[0]).expect("valid pass witness");
        verify_verdict(&spec, &o, &certs[0], false).expect("verdict matches");
    }

    #[test]
    fn accepts_checker_fail_witness() {
        let (p, spec) = corr();
        let o = obs(&p, &spec, &[(1, 0, 1), (1, 1, 0)]);
        let outcome = mtc_graph::check_conventional(&spec, std::slice::from_ref(&o), true);
        let certs = &outcome.certificates;
        assert!(outcome.results[0].is_err());
        assert!(!certs[0].is_pass());
        verify(&spec, &o, &certs[0]).expect("valid cycle witness");
        verify_verdict(&spec, &o, &certs[0], true).expect("verdict matches");
    }

    #[test]
    fn rejects_backward_edges_and_bad_permutations() {
        let (p, spec) = corr();
        let o = obs(&p, &spec, &[(1, 0, 1), (1, 1, 1)]);
        let certs =
            mtc_graph::check_conventional(&spec, std::slice::from_ref(&o), true).certificates;
        let Certificate::Pass { order } = &certs[0] else {
            panic!("expected pass");
        };
        // Reversing the order flips every edge backwards.
        let reversed = Certificate::Pass {
            order: order.iter().rev().copied().collect(),
        };
        assert!(matches!(
            verify(&spec, &o, &reversed),
            Err(VerifyError::BackwardStaticEdge { .. } | VerifyError::BackwardObservedEdge { .. })
        ));
        let truncated = Certificate::Pass {
            order: order[..order.len() - 1].to_vec(),
        };
        assert_eq!(
            verify(&spec, &o, &truncated),
            Err(VerifyError::WrongOrderLength {
                expected: order.len(),
                found: order.len() - 1
            })
        );
        let mut repeated = order.clone();
        repeated[0] = repeated[1];
        assert_eq!(
            verify(&spec, &o, &Certificate::Pass { order: repeated }),
            Err(VerifyError::RepeatedVertex { vertex: order[1] })
        );
        let mut out_of_range = order.clone();
        out_of_range[0] = order.len() as u32;
        assert_eq!(
            verify(
                &spec,
                &o,
                &Certificate::Pass {
                    order: out_of_range
                }
            ),
            Err(VerifyError::VertexOutOfRange {
                vertex: order.len() as u32
            })
        );
    }

    #[test]
    fn rejects_fabricated_cycles() {
        let (p, spec) = corr();
        let o = obs(&p, &spec, &[(1, 0, 1), (1, 1, 1)]); // acyclic graph
        assert_eq!(
            verify(&spec, &o, &Certificate::Fail { cycle: Vec::new() }),
            Err(VerifyError::EmptyCycle)
        );
        // No fabricated walk over this acyclic graph can close.
        let fake = Certificate::Fail {
            cycle: vec![0, 1, 2],
        };
        assert!(matches!(
            verify(&spec, &o, &fake),
            Err(VerifyError::MissingEdge { .. })
        ));
        assert_eq!(
            verify(&spec, &o, &Certificate::Fail { cycle: vec![9] }),
            Err(VerifyError::VertexOutOfRange { vertex: 9 })
        );
    }

    #[test]
    fn kind_mismatch_is_detected() {
        let (p, spec) = corr();
        let o = obs(&p, &spec, &[(1, 0, 1), (1, 1, 1)]);
        let certs =
            mtc_graph::check_conventional(&spec, std::slice::from_ref(&o), true).certificates;
        assert_eq!(
            verify_verdict(&spec, &o, &certs[0], true),
            Err(VerifyError::KindMismatch {
                expected_fail: true
            })
        );
    }
}
