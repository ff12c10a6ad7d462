//! Litmus explorer: for every classic litmus test, enumerate all outcomes
//! each memory model allows (exhaustive oracle), run the test on the
//! corresponding simulated platform, and confirm the constraint-graph
//! checker accepts every observed outcome.
//!
//! Run with: `cargo run --example litmus_explorer --release`

use mtracecheck::graph::{check_conventional, CheckOptions, TestGraphSpec};
use mtracecheck::isa::{litmus, Mcm};
use mtracecheck::sim::{enumerate_outcomes, Simulator, SystemConfig};
use std::collections::BTreeSet;

fn main() {
    for test in litmus::all() {
        println!("=== {} ===", test.name);
        println!("    {}", test.description);
        for mcm in Mcm::ALL {
            let allowed = enumerate_outcomes(&test.program, mcm, 5_000_000)
                .expect("litmus tests are small enough to enumerate");

            // Run the litmus test on a simulated platform with that MCM and
            // an eager scheduler, collecting the outcomes actually seen.
            let system = match mcm {
                Mcm::Sc => SystemConfig::sc_reference(),
                Mcm::Tso => SystemConfig::x86_desktop().with_aggressive_interleaving(),
                Mcm::Weak => SystemConfig::arm_soc().with_aggressive_interleaving(),
            };
            let mut sim = Simulator::new(&test.program, system);
            let observed: BTreeSet<_> = (0..4000)
                .map(|seed| sim.run(seed).expect("litmus runs never crash").reads_from)
                .collect();

            // Every simulated outcome must be one the model allows, and the
            // checker must accept each of them.
            let spec = TestGraphSpec::new(&test.program, mcm);
            let escaped = observed.iter().filter(|rf| !allowed.contains(rf)).count();
            let observations: Vec<_> = observed
                .iter()
                .map(|rf| spec.observe(&test.program, rf, &CheckOptions::default()))
                .collect();
            let outcome = check_conventional(&spec, &observations, false);

            println!(
                "  {mcm:>4}: {:>3} allowed outcomes, {:>3} observed, {} outside the model, {} checker violations",
                allowed.len(),
                observed.len(),
                escaped,
                outcome.violation_count()
            );
            assert_eq!(
                escaped, 0,
                "simulator produced an outcome the model forbids"
            );
            assert_eq!(
                outcome.violation_count(),
                0,
                "checker flagged a legal outcome"
            );
        }
    }
    println!("\nall litmus outcomes conform to their models and pass checking");
}
