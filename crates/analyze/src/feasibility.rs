//! Pass 5: schema-soundness cross-check and the §8 invalid-interleaving
//! fraction.
//!
//! For programs whose signature space is small enough to enumerate, every
//! encodable candidate combination is encoded, decoded back (Algorithm 1),
//! and classified as feasible or infeasible by cycle-checking its constraint
//! graph against the axiomatic MCM. A round-trip mismatch is a
//! [`LintKind::SchemaUnsound`] error — the §3.1 1:1 signature/interleaving
//! guarantee is broken; the feasible/infeasible split is the §8 fraction of
//! branch-chain links static pruning could delete.

use crate::report::{FeasibilityDiagnostics, Finding, LintKind};
use crate::LintOptions;
use mtc_graph::{check_conventional, CheckOptions, TestGraphSpec};
use mtc_instr::{CandidateAnalysis, SignatureSchema};
use mtc_isa::{Program, ReadsFrom};

/// Enumerates every encodable signature when the space is within
/// `options.enumeration_limit`; returns `None` diagnostics (and no
/// findings) otherwise.
pub(crate) fn cross_check(
    program: &Program,
    analysis: &CandidateAnalysis,
    schema: &SignatureSchema,
    options: &LintOptions,
) -> (Option<FeasibilityDiagnostics>, Vec<Finding>) {
    let slots: Vec<_> = analysis.iter().collect();
    let mut total: u128 = 1;
    for (_, cands) in &slots {
        total = total.saturating_mul(cands.len() as u128);
        if total > u128::from(options.enumeration_limit) {
            return (None, Vec::new());
        }
    }
    let spec = TestGraphSpec::new(program, options.mcm);
    let check = CheckOptions::default();
    let mut idx = vec![0usize; slots.len()];
    let (mut feasible, mut infeasible) = (0u64, 0u64);
    let mut findings = Vec::new();
    loop {
        let rf: ReadsFrom = slots
            .iter()
            .zip(idx.iter())
            .map(|(&(op, cands), &pick)| (op, cands[pick]))
            .collect();
        // Soundness: encode must succeed (the values come from the candidate
        // sets the schema was built over) and decode must invert it. Report
        // the first divergence only; one broken combination already proves
        // the schema unsound.
        if findings.is_empty() {
            match schema.encode(&rf) {
                Err(e) => findings.push(Finding::new(
                    LintKind::SchemaUnsound,
                    None,
                    format!("candidate combination {rf} fails to encode: {e}"),
                )),
                Ok(sig) => match schema.decode(&sig) {
                    Err(e) => findings.push(Finding::new(
                        LintKind::SchemaUnsound,
                        None,
                        format!("signature {sig} of {rf} fails to decode: {e}"),
                    )),
                    Ok(back) if back != rf => findings.push(Finding::new(
                        LintKind::SchemaUnsound,
                        None,
                        format!(
                            "decode({sig}) = {back}, not the encoded outcome {rf}; the signature map is not 1:1"
                        ),
                    )),
                    Ok(_) => {}
                },
            }
        }
        let obs = spec.observe(program, &rf, &check);
        if check_conventional(&spec, &[obs], false).violation_count() == 0 {
            feasible += 1;
        } else {
            infeasible += 1;
        }
        // Mixed-radix increment over the slot indices.
        let mut k = 0;
        while k < slots.len() {
            idx[k] += 1;
            if idx[k] < slots[k].1.len() {
                break;
            }
            idx[k] = 0;
            k += 1;
        }
        if k == slots.len() {
            break;
        }
    }
    (
        Some(FeasibilityDiagnostics {
            encodable: total as u64,
            feasible,
            infeasible,
        }),
        findings,
    )
}
