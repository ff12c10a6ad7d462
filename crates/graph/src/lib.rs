//! Constraint graphs and consistency checking for MTraceCheck.
//!
//! A constraint graph has one vertex per test instruction and two kinds of
//! edges: *static* edges shared by all executions of a test (MCM program
//! order — derived from the same [`Mcm::orders`](mtc_isa::Mcm::orders)
//! predicate the simulator executes — plus intra-thread write
//! serialization) and *observed* edges unique to one execution (reads-from
//! and from-read, derived from each load's observed value). An execution
//! violates the MCM exactly when its graph is cyclic (§2 of the paper).
//!
//! Two checkers are provided, each with one entry point:
//!
//! * [`check_conventional`] — the classic baseline: a full topological sort
//!   per graph;
//! * [`CollectiveChecker`] — MTraceCheck's contribution (§4.2): graphs
//!   arrive in ascending-signature order, and each is validated by
//!   re-sorting only the window of the previous topological order disturbed
//!   by new backward edges. Feed it one graph at a time
//!   ([`push`](CollectiveChecker::push),
//!   [`push_delta`](CollectiveChecker::push_delta)) or a whole slice
//!   ([`check_all`](CollectiveChecker::check_all)); [`CollectiveStats`]
//!   records the Figure 14 breakdown.
//!
//! Either checker can also emit a [`Certificate`] per verdict for the
//! independent verifier.
//!
//! [`k_medoids`] implements the §4.1 clustering limit study (Figure 6).
//!
//! # Example
//!
//! ```
//! use mtc_graph::{check_conventional, CheckOptions, CollectiveChecker, TestGraphSpec};
//! use mtc_isa::{litmus, Mcm, OpId, ReadsFrom, Tid, Value};
//!
//! let t = litmus::corr();
//! let spec = TestGraphSpec::new(&t.program, Mcm::Tso);
//! // An anti-coherent observation: first load sees the store, second sees
//! // the initial value.
//! let mut rf = ReadsFrom::new();
//! rf.record(OpId::new(Tid(1), 0), Value(1));
//! rf.record(OpId::new(Tid(1), 1), Value::INIT);
//! let obs = spec.observe(&t.program, &rf, &CheckOptions::default());
//!
//! let outcome = check_conventional(&spec, &[obs.clone()], false);
//! assert_eq!(outcome.violation_count(), 1);
//! let collective = CollectiveChecker::new(&spec).check_all(&[obs], false);
//! assert_eq!(collective.violation_count(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod certificate;
mod collective;
mod delta;
mod diagnose;
mod dot;
mod kmedoids;
mod spec;
mod topo;

pub use certificate::{Certificate, CertificateError, CERT_HEADER_BYTES, CERT_MAGIC, CERT_VERSION};
pub use collective::{even_chunk_lengths, CollectiveChecker, CollectiveOutcome, CollectiveStats};
pub use delta::DeltaObservations;
pub use diagnose::{classify_cycle, explain_violation, EdgeReason, ExplainedEdge};
pub use dot::render_dot;
pub use kmedoids::{k_medoids, KMedoidsResult};
pub use spec::{CheckOptions, EdgeScratch, ObservedEdges, TestGraphSpec};
pub use topo::{check_conventional, CheckOutcome, CheckStats, Violation};
