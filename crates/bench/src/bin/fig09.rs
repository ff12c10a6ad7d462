//! Figure 9: MCM violation-checking speedup — collective topological
//! re-sorting vs conventional per-graph sorting, on the unique graphs of
//! every test configuration.
//!
//! The paper reports normalized sorting time (collective / conventional),
//! 9.4 %–44.9 % with an 81 % average reduction. Two collective variants are
//! measured: the paper-faithful single re-sorting window (leading to
//! trailing boundary) and the split-window optimization (disjoint merged
//! backward-edge intervals re-sorted independently), which is what recovers
//! the paper's ratios on the all-unique, high-diversity configurations.
//!
//! Run with: `cargo run -p mtc-bench --bin fig09 --release -- [--iters N] [--tests N]`

use mtc_bench::{parse_scale, progress, write_json, Table};
use mtracecheck::graph::{check_conventional, CheckOptions, CollectiveChecker, TestGraphSpec};
use mtracecheck::instr::{analyze, ExecutionSignature, SignatureSchema, SourcePruning};
use mtracecheck::sim::Simulator;
use mtracecheck::testgen::generate_suite;
use mtracecheck::{paper_configs, CampaignConfig};
use serde::Serialize;
use std::collections::BTreeMap;
use std::time::Instant;

// Fields feed the derived `Serialize` impl; the offline serde stub's
// derive does not read them, so rustc cannot see the use.
#[allow(dead_code)]
#[derive(Serialize)]
struct Fig9Row {
    config: String,
    unique_graphs: usize,
    conventional_ms: f64,
    single_ms: f64,
    split_ms: f64,
    single_work_ratio: f64,
    split_work_ratio: f64,
}

fn main() {
    let scale = parse_scale(4096, 2);
    println!(
        "Figure 9: topological-sorting time, collective vs conventional\n\
         ({} iterations x {} tests per configuration)\n",
        scale.iterations, scale.tests
    );
    let mut table = Table::new([
        "config",
        "graphs",
        "conv ms",
        "single ms",
        "split ms",
        "single work",
        "split work",
    ]);
    let mut rows = Vec::new();
    let mut ratio_sum = 0.0;
    for test in paper_configs() {
        progress(&test.name());
        let campaign = CampaignConfig::new(test.clone(), scale.iterations);
        let programs = generate_suite(&test, scale.tests);
        let (mut conv_ms, mut single_ms, mut split_ms) = (0.0, 0.0, 0.0);
        let mut work = (0u64, 0u64, 0u64);
        let mut graphs = 0usize;
        for program in &programs {
            let analysis = analyze(program, &SourcePruning::none());
            let schema = SignatureSchema::build(program, &analysis, test.isa.register_bits());
            let mut sim = Simulator::new(program, campaign.system.clone());
            let mut unique: BTreeMap<ExecutionSignature, ()> = BTreeMap::new();
            for i in 0..scale.iterations {
                let seed = test
                    .seed
                    .wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                let exec = sim.run(seed).expect("correct hardware");
                let sig = schema.encode(&exec.reads_from).expect("legal run");
                unique.entry(sig).or_insert(());
            }
            let spec = TestGraphSpec::new(program, test.mcm);
            let observations: Vec<_> = unique
                .keys()
                .map(|sig| {
                    let rf = schema.decode(sig).expect("own signature");
                    spec.observe(program, &rf, &CheckOptions::default())
                })
                .collect();
            graphs += observations.len();

            let t0 = Instant::now();
            let conventional = check_conventional(&spec, &observations, false);
            let t1 = Instant::now();
            let single = CollectiveChecker::new(&spec).check_all(&observations, false);
            let t2 = Instant::now();
            let split = CollectiveChecker::new(&spec)
                .with_split_windows()
                .check_all(&observations, false);
            let t3 = Instant::now();
            conv_ms += (t1 - t0).as_secs_f64() * 1e3;
            single_ms += (t2 - t1).as_secs_f64() * 1e3;
            split_ms += (t3 - t2).as_secs_f64() * 1e3;
            work.0 += conventional.stats.work;
            work.1 += single.stats.work;
            work.2 += split.stats.work;
            assert_eq!(conventional.violation_count(), 0);
            assert_eq!(single.violation_count(), 0);
            assert_eq!(split.violation_count(), 0);
        }
        let single_ratio = work.1 as f64 / work.0.max(1) as f64;
        let split_ratio = work.2 as f64 / work.0.max(1) as f64;
        ratio_sum += split_ratio;
        table.row([
            test.name(),
            graphs.to_string(),
            format!("{conv_ms:.2}"),
            format!("{single_ms:.2}"),
            format!("{split_ms:.2}"),
            format!("{:.1}%", 100.0 * single_ratio),
            format!("{:.1}%", 100.0 * split_ratio),
        ]);
        rows.push(Fig9Row {
            config: test.name(),
            unique_graphs: graphs,
            conventional_ms: conv_ms,
            single_ms,
            split_ms,
            single_work_ratio: single_ratio,
            split_work_ratio: split_ratio,
        });
    }
    table.print();
    let mean = 100.0 * ratio_sum / rows.len() as f64;
    println!(
        "\nmean split-window collective/conventional work: {mean:.1}%\n\
         (paper: 19% of conventional, i.e. an 81% average reduction, range\n\
         9.4%-44.9%; smaller win on x86 due to more re-sorting)"
    );
    write_json("fig09", &rows);
}
