//! Graphviz (DOT) export of constraint graphs — the debugging view of
//! Figure 2's diagrams.

use crate::{ObservedEdges, TestGraphSpec, Violation};
use mtc_isa::{OpId, Program};
use std::collections::HashSet;
use std::fmt::Write as _;

/// Renders one execution's constraint graph as Graphviz DOT.
///
/// Vertices are grouped per thread (clusters) and labelled with their
/// instruction; static (program-order) edges are solid black, observed
/// (rf/fr) edges are dashed blue, and edges on `violation`'s cycle are
/// highlighted red. Feed the output to `dot -Tsvg` to get a Figure 2-style
/// diagram.
pub fn render_dot(
    program: &Program,
    spec: &TestGraphSpec,
    obs: &ObservedEdges,
    violation: Option<&Violation>,
) -> String {
    let cycle_edges: HashSet<(OpId, OpId)> = violation
        .map(|v| {
            v.cycle
                .iter()
                .zip(v.cycle.iter().cycle().skip(1))
                .map(|(&a, &b)| (a, b))
                .collect()
        })
        .unwrap_or_default();
    let is_cycle_edge = |u: u32, v: u32| cycle_edges.contains(&(spec.op(u), spec.op(v)));

    let mut out = String::from(
        "digraph constraint_graph {\n  rankdir=TB;\n  node [shape=box, fontname=\"monospace\"];\n",
    );
    for (t, code) in program.threads().iter().enumerate() {
        let _ = writeln!(out, "  subgraph cluster_t{t} {{\n    label=\"thread {t}\";");
        for (i, instr) in code.iter().enumerate() {
            let op = OpId::new(mtc_isa::Tid(t as u32), i as u32);
            let v = spec.vertex(op);
            let _ = writeln!(out, "    v{v} [label=\"{op}: {instr}\"];");
        }
        let _ = writeln!(out, "  }}");
    }
    for v in 0..spec.num_vertices() as u32 {
        for &w in spec.static_successors(v) {
            let color = if is_cycle_edge(v, w) {
                ", color=red, penwidth=2"
            } else {
                ""
            };
            let _ = writeln!(out, "  v{v} -> v{w} [style=solid{color}];");
        }
    }
    for &(u, v) in obs.edges() {
        let color = if is_cycle_edge(u, v) {
            "color=red, penwidth=2"
        } else {
            "color=blue"
        };
        let _ = writeln!(out, "  v{u} -> v{v} [style=dashed, {color}];");
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{check_conventional, CheckOptions};
    use mtc_isa::{litmus, Mcm, ReadsFrom, Tid, Value};

    #[test]
    fn dot_output_is_well_formed() {
        let t = litmus::corr();
        let spec = TestGraphSpec::new(&t.program, Mcm::Tso);
        let mut rf = ReadsFrom::new();
        rf.record(OpId::new(Tid(1), 0), Value(1));
        rf.record(OpId::new(Tid(1), 1), Value::INIT);
        let obs = spec.observe(&t.program, &rf, &CheckOptions::default());
        let outcome = check_conventional(&spec, std::slice::from_ref(&obs), false);
        let violation = outcome.results[0].as_ref().unwrap_err();

        let dot = render_dot(&t.program, &spec, &obs, Some(violation));
        assert!(dot.starts_with("digraph"));
        assert!(dot.ends_with("}\n"));
        assert_eq!(dot.matches("subgraph cluster_t").count(), 2);
        assert!(dot.contains("color=red"), "cycle edges highlighted");
        assert!(dot.contains("style=dashed"), "observed edges present");
        // Every vertex declared.
        for v in 0..spec.num_vertices() {
            assert!(dot.contains(&format!("v{v} [label=")));
        }
    }

    #[test]
    fn dot_without_violation_has_no_red() {
        let t = litmus::store_buffering();
        let spec = TestGraphSpec::new(&t.program, Mcm::Tso);
        let mut rf = ReadsFrom::new();
        rf.record(OpId::new(Tid(0), 1), Value(2));
        rf.record(OpId::new(Tid(1), 1), Value(1));
        let obs = spec.observe(&t.program, &rf, &CheckOptions::default());
        let dot = render_dot(&t.program, &spec, &obs, None);
        assert!(!dot.contains("color=red"));
    }
}
