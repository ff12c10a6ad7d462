//! Inspect what MTraceCheck actually generates: the Figure 4-style
//! instrumented pseudo-assembly for a litmus test, and the Figure 2-style
//! constraint graph (as Graphviz DOT) of a violating observation.
//!
//! Run with: `cargo run --example inspect_instrumentation --release`

use mtracecheck::graph::{
    check_conventional, explain_violation, render_dot, CheckOptions, TestGraphSpec,
};
use mtracecheck::instr::{analyze, render_instrumented, SignatureSchema, SourcePruning};
use mtracecheck::isa::{litmus, IsaKind, Mcm, OpId, ReadsFrom, Tid, Value};

fn main() {
    // 1. The instrumented message-passing test, ARM flavour.
    let mp = litmus::message_passing();
    let analysis = analyze(&mp.program, &SourcePruning::none());
    let schema = SignatureSchema::build(&mp.program, &analysis, IsaKind::Arm.register_bits());
    println!("=== instrumented {} (ARM) ===", mp.name);
    println!(
        "{}",
        render_instrumented(&mp.program, &schema, IsaKind::Arm)
    );

    // 2. A violating CoRR observation and its cyclic constraint graph.
    let corr = litmus::corr();
    let spec = TestGraphSpec::new(&corr.program, Mcm::Tso);
    let mut rf = ReadsFrom::new();
    rf.record(OpId::new(Tid(1), 0), Value(1)); // first load sees the store
    rf.record(OpId::new(Tid(1), 1), Value::INIT); // second load reads older: violation
    let obs = spec.observe(&corr.program, &rf, &CheckOptions::default());
    let outcome = check_conventional(&spec, std::slice::from_ref(&obs), false);
    let violation = outcome.results[0]
        .as_ref()
        .expect_err("anti-coherent CoRR observation must be cyclic");
    println!("=== violating {} observation ===", corr.name);
    println!("observation: {rf}");
    print!(
        "{}",
        explain_violation(&corr.program, &spec, &rf, violation)
    );

    let dot = render_dot(&corr.program, &spec, &obs, Some(violation));
    let path = "corr_violation.dot";
    match std::fs::write(path, &dot) {
        Ok(()) => println!("\nconstraint graph written to {path} (render with `dot -Tsvg`)"),
        Err(e) => println!("\ncould not write {path}: {e}; DOT follows:\n{dot}"),
    }
}
