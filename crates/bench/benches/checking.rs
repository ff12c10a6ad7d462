//! Criterion benchmarks for constraint-graph checking: conventional
//! per-graph topological sorting vs MTraceCheck's collective re-sorting
//! (the Figure 9 comparison as a microbenchmark).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mtracecheck::graph::{
    check_conventional, CheckOptions, CollectiveChecker, ObservedEdges, TestGraphSpec,
};
use mtracecheck::instr::{analyze, ExecutionSignature, SignatureSchema, SourcePruning};
use mtracecheck::isa::{IsaKind, Program};
use mtracecheck::sim::Simulator;
use mtracecheck::testgen::{generate, TestConfig};
use mtracecheck::CampaignConfig;
use std::collections::BTreeMap;

/// Produces the unique observation set of one scaled-down campaign, in
/// ascending signature order.
fn observations(test: &TestConfig, iterations: u64) -> (Program, Vec<ObservedEdges>) {
    let program = generate(test);
    let analysis = analyze(&program, &SourcePruning::none());
    let schema = SignatureSchema::build(&program, &analysis, test.isa.register_bits());
    let campaign = CampaignConfig::new(test.clone(), iterations);
    let mut sim = Simulator::new(&program, campaign.system.clone());
    let mut unique: BTreeMap<ExecutionSignature, ()> = BTreeMap::new();
    for i in 0..iterations {
        let exec = sim.run(i).expect("correct hardware");
        unique
            .entry(schema.encode(&exec.reads_from).expect("legal"))
            .or_insert(());
    }
    let spec = TestGraphSpec::new(&program, test.mcm);
    let obs = unique
        .keys()
        .map(|sig| {
            let rf = schema.decode(sig).expect("own signature");
            spec.observe(&program, &rf, &CheckOptions::default())
        })
        .collect();
    (program, obs)
}

fn bench_checking(c: &mut Criterion) {
    let cases = [
        (
            "ARM-4-50-64",
            TestConfig::new(IsaKind::Arm, 4, 50, 64).with_seed(9),
        ),
        (
            "x86-4-50-64",
            TestConfig::new(IsaKind::X86, 4, 50, 64).with_seed(9),
        ),
    ];
    let mut group = c.benchmark_group("checking");
    for (name, test) in cases {
        let (program, obs) = observations(&test, 2048);
        let spec = TestGraphSpec::new(&program, test.mcm);
        group.throughput(Throughput::Elements(obs.len() as u64));
        group.bench_with_input(BenchmarkId::new("conventional", name), &obs, |b, obs| {
            b.iter(|| check_conventional(&spec, obs, false));
        });
        group.bench_with_input(BenchmarkId::new("collective", name), &obs, |b, obs| {
            b.iter(|| CollectiveChecker::new(&spec).check_all(obs, false));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_checking);
criterion_main!(benches);
