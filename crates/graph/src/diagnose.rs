//! Violation diagnostics: explain a dependency cycle the way Figure 13
//! does — each edge labelled with *why* it exists (reads-from, program
//! order, from-read), plus the instructions and observed values involved.

use crate::{TestGraphSpec, Violation};
use mtc_isa::{Instr, OpId, Program, ReadsFrom};
use std::fmt::Write as _;

/// How one edge of a violation cycle is justified.
#[derive(Clone, Debug, Eq, PartialEq)]
pub enum EdgeReason {
    /// MCM-mandated program order (possibly through fences).
    ProgramOrder,
    /// The destination load observed the source store's value.
    ReadsFrom,
    /// The source load observed a value coherence-older than the
    /// destination store, so it must precede it.
    FromRead,
    /// Intra-thread write serialization (same-address store chain).
    WriteSerialization,
    /// The edge could not be re-derived (stale observation or wrong
    /// program).
    Unknown,
}

impl EdgeReason {
    fn label(&self) -> &'static str {
        match self {
            EdgeReason::ProgramOrder => "po",
            EdgeReason::ReadsFrom => "rf",
            EdgeReason::FromRead => "fr",
            EdgeReason::WriteSerialization => "ws",
            EdgeReason::Unknown => "??",
        }
    }
}

/// One annotated edge of an explained cycle.
#[derive(Clone, Debug)]
pub struct ExplainedEdge {
    /// Source operation.
    pub from: OpId,
    /// Destination operation.
    pub to: OpId,
    /// Why the edge exists.
    pub reason: EdgeReason,
}

/// Classifies every edge of `violation`'s cycle against the program and the
/// observation that produced it, and renders a Figure 13-style report.
///
/// The classification re-derives each edge: static reachability gives
/// po/ws, the observation gives rf/fr. Edges that cannot be re-derived are
/// labelled `??` rather than dropped, so a mismatched observation is
/// visible instead of silently misexplained.
///
/// ```
/// use mtc_graph::{check_conventional, explain_violation, CheckOptions, TestGraphSpec};
/// use mtc_isa::{litmus, Mcm, OpId, ReadsFrom, Tid, Value};
///
/// let t = litmus::corr();
/// let spec = TestGraphSpec::new(&t.program, Mcm::Tso);
/// let mut rf = ReadsFrom::new();
/// rf.record(OpId::new(Tid(1), 0), Value(1));      // first load sees the store,
/// rf.record(OpId::new(Tid(1), 1), Value::INIT);   // second reads older: violation
/// let obs = spec.observe(&t.program, &rf, &CheckOptions::default());
/// let violation = check_conventional(&spec, &[obs], false).results[0].clone().unwrap_err();
/// let report = explain_violation(&t.program, &spec, &rf, &violation);
/// assert!(report.contains("--rf->") && report.contains("--fr->"));
/// ```
pub fn explain_violation(
    program: &Program,
    spec: &TestGraphSpec,
    observed: &ReadsFrom,
    violation: &Violation,
) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "memory consistency violation: cycle of {} operations",
        violation.cycle.len()
    );
    for (i, &op) in violation.cycle.iter().enumerate() {
        let next = violation.cycle[(i + 1) % violation.cycle.len()];
        let instr = program.instr(op);
        let _ = match instr {
            Some(instr) => {
                let observed_note = observed
                    .value_of(op)
                    .map(|v| format!(" (observed {v})"))
                    .unwrap_or_default();
                writeln!(out, "  {op}: {instr}{observed_note}")
            }
            None => writeln!(out, "  {op}: <not in program>"),
        };
        let reason = classify_edge(program, spec, observed, op, next);
        let _ = writeln!(out, "      --{}-> {next}", reason.label());
    }
    out
}

/// Classifies the cycle's edges without rendering.
pub fn classify_cycle(
    program: &Program,
    spec: &TestGraphSpec,
    observed: &ReadsFrom,
    violation: &Violation,
) -> Vec<ExplainedEdge> {
    violation
        .cycle
        .iter()
        .enumerate()
        .map(|(i, &from)| {
            let to = violation.cycle[(i + 1) % violation.cycle.len()];
            ExplainedEdge {
                from,
                to,
                reason: classify_edge(program, spec, observed, from, to),
            }
        })
        .collect()
}

fn classify_edge(
    program: &Program,
    spec: &TestGraphSpec,
    observed: &ReadsFrom,
    from: OpId,
    to: OpId,
) -> EdgeReason {
    let (Some(from_instr), Some(to_instr)) = (program.instr(from), program.instr(to)) else {
        return EdgeReason::Unknown;
    };
    // rf: `to` is a load that observed `from`'s store value.
    if let (Instr::Store { value, .. }, Instr::Load { .. }) = (from_instr, to_instr) {
        if observed.value_of(to) == Some(mtc_isa::Value::from(*value)) {
            return EdgeReason::ReadsFrom;
        }
    }
    // fr: `from` is a load whose observed value is coherence-older than the
    // store `to` (same address; either init, or a store whose static ws
    // chain leads to `to`).
    if from_instr.is_load() && to_instr.is_store() && from_instr.addr() == to_instr.addr() {
        if let Some(value) = observed.value_of(from) {
            match value.store_id() {
                None => return EdgeReason::FromRead,
                Some(id) => {
                    let source = program.store_op(id);
                    if source.tid == to.tid && source.idx < to.idx {
                        return EdgeReason::FromRead;
                    }
                }
            }
        }
    }
    // Static: same-thread edges are program order (same-address store
    // chains double as write serialization).
    if from.tid == to.tid {
        if from_instr.is_store() && to_instr.is_store() && from_instr.addr() == to_instr.addr() {
            return EdgeReason::WriteSerialization;
        }
        if spec
            .static_successors(spec.vertex(from))
            .contains(&spec.vertex(to))
        {
            return EdgeReason::ProgramOrder;
        }
        // Not a direct generating edge but same-thread: transitive po.
        if from.idx < to.idx {
            return EdgeReason::ProgramOrder;
        }
    }
    EdgeReason::Unknown
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{check_conventional, CheckOptions};
    use mtc_isa::{litmus, Mcm, Tid, Value};

    fn corr_violation() -> (mtc_isa::Program, TestGraphSpec, ReadsFrom, Violation) {
        let t = litmus::corr();
        let spec = TestGraphSpec::new(&t.program, Mcm::Tso);
        let mut rf = ReadsFrom::new();
        rf.record(OpId::new(Tid(1), 0), Value(1));
        rf.record(OpId::new(Tid(1), 1), Value::INIT);
        let obs = spec.observe(&t.program, &rf, &CheckOptions::default());
        let violation = check_conventional(&spec, &[obs], false).results[0]
            .clone()
            .unwrap_err();
        (t.program, spec, rf, violation)
    }

    #[test]
    fn corr_cycle_is_rf_po_fr() {
        let (program, spec, rf, violation) = corr_violation();
        let edges = classify_cycle(&program, &spec, &rf, &violation);
        assert_eq!(edges.len(), 3);
        let mut labels: Vec<&str> = edges.iter().map(|e| e.reason.label()).collect();
        labels.sort_unstable();
        assert_eq!(labels, vec!["fr", "po", "rf"], "the Figure 13 triangle");
    }

    #[test]
    fn explanation_renders_instructions_and_values() {
        let (program, spec, rf, violation) = corr_violation();
        let text = explain_violation(&program, &spec, &rf, &violation);
        assert!(text.contains("cycle of 3 operations"));
        assert!(text.contains("--rf->"));
        assert!(text.contains("--fr->"));
        assert!(text.contains("observed init"), "{text}");
        assert!(text.contains("ld 0x0"));
    }

    #[test]
    fn mismatched_observation_is_flagged_not_misexplained() {
        let (program, spec, _, violation) = corr_violation();
        // Classify against an unrelated (empty) observation.
        let edges = classify_cycle(&program, &spec, &ReadsFrom::new(), &violation);
        assert!(
            edges.iter().any(|e| e.reason == EdgeReason::Unknown),
            "cross-thread edges cannot be re-derived without the observation"
        );
    }
}
