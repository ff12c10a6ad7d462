//! Golden-vector regression tests: the checker's observable behaviour on
//! the litmus corpus — per-graph verdicts, extracted cycles, `CheckStats`,
//! `CollectiveStats` (the Figure 14 breakdown), and Figure 13-style cycle
//! diagnoses — is snapshotted into a checked-in fixture.
//!
//! The fixture was blessed against the pre-CSR map-based checker, so any
//! hot-path rewrite (flat adjacency, index Kahn, windowed re-sort, fused
//! decode) is byte-pinned against the original output: a single changed
//! verdict, stat counter, cycle vertex, or diagnose byte fails the test.
//!
//! Regenerate (only when an *intentional* behaviour change lands) with:
//!
//! ```text
//! MTC_BLESS=1 cargo test --test golden_vectors
//! ```

use mtracecheck::graph::{
    check_conventional, even_chunk_lengths, explain_violation, CheckOptions, CollectiveChecker,
    CollectiveOutcome, TestGraphSpec, Violation,
};
use mtracecheck::isa::{litmus, Mcm, ReadsFrom};
use mtracecheck::sim::enumerate_outcomes;
use std::fmt::Write as _;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/fixtures/checker_golden.txt"
);

/// The deterministic observation sequence for one litmus test under one
/// model: every outcome the *weakest* model allows, in ascending
/// `ReadsFrom` order (the `BTreeSet` the oracle returns), observed under
/// the target model's graph spec. Outcomes the target model forbids yield
/// cyclic graphs, so every corpus entry exercises both verdicts.
fn corpus_observations(
    program: &mtracecheck::isa::Program,
    spec: &TestGraphSpec,
) -> (Vec<ReadsFrom>, Vec<mtracecheck::graph::ObservedEdges>) {
    let weak_allowed =
        enumerate_outcomes(program, Mcm::Weak, 5_000_000).expect("litmus tests enumerate");
    let rfs: Vec<ReadsFrom> = weak_allowed.into_iter().collect();
    let observations = rfs
        .iter()
        .map(|rf| spec.observe(program, rf, &CheckOptions::default()))
        .collect();
    (rfs, observations)
}

fn hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        let _ = write!(s, "{b:02x}");
    }
    s
}

fn cycle_text(violation: &Violation) -> String {
    let mut s = String::new();
    for (i, op) in violation.cycle.iter().enumerate() {
        if i > 0 {
            s.push(' ');
        }
        let _ = write!(s, "{op}");
    }
    s
}

fn render_corpus() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# checker golden vectors v1");
    let _ = writeln!(
        out,
        "# per litmus test x MCM: verdicts, cycles, stats, diagnoses"
    );
    for test in litmus::all() {
        for mcm in Mcm::ALL {
            let spec = TestGraphSpec::new(&test.program, mcm);
            let (rfs, observations) = corpus_observations(&test.program, &spec);
            let _ = writeln!(
                out,
                "[{} / {mcm}] graphs={} vertices={} static_edges={}",
                test.name,
                observations.len(),
                spec.num_vertices(),
                spec.num_static_edges()
            );

            let conventional = check_conventional(&spec, &observations, false);
            let cs = conventional.stats;
            let _ = writeln!(
                out,
                "conventional: graphs={} violations={} work={}",
                cs.graphs, cs.violations, cs.work
            );
            for (i, result) in conventional.results.iter().enumerate() {
                if let Err(v) = result {
                    let _ = writeln!(out, "  graph {i}: cycle [{}]", cycle_text(v));
                }
            }

            let collective = CollectiveChecker::new(&spec).check_all(&observations, false);
            let ks = collective.stats;
            let _ = writeln!(
                out,
                "collective: graphs={} complete={} no_resort={} incremental={} \
                 resorted={} incr_vertices={} violations={} work={}",
                ks.graphs,
                ks.complete,
                ks.no_resort,
                ks.incremental,
                ks.resorted_vertices,
                ks.incremental_vertices,
                ks.violations,
                ks.work
            );
            for (i, result) in collective.results.iter().enumerate() {
                if let Err(v) = result {
                    let _ = writeln!(out, "  graph {i}: cycle [{}]", cycle_text(v));
                }
            }

            let split = CollectiveChecker::new(&spec)
                .with_split_windows()
                .check_all(&observations, false);
            let ss = split.stats;
            let _ =
                writeln!(
                out,
                "split: complete={} no_resort={} incremental={} resorted={} violations={} work={}",
                ss.complete, ss.no_resort, ss.incremental, ss.resorted_vertices, ss.violations,
                ss.work
            );

            let mut rest = &observations[..];
            let chunked: CollectiveOutcome = even_chunk_lengths(observations.len(), 3)
                .into_iter()
                .map(|len| {
                    let (chunk, tail) = rest.split_at(len);
                    rest = tail;
                    CollectiveChecker::new(&spec).check_all(chunk, false)
                })
                .collect();
            let hs = chunked.stats;
            let _ = writeln!(
                out,
                "chunked3: complete={} no_resort={} incremental={} violations={} work={}",
                hs.complete, hs.no_resort, hs.incremental, hs.violations, hs.work
            );

            // Streaming checker verdict bitmap (must equal the batch path).
            let mut checker = CollectiveChecker::new(&spec);
            let stream_verdicts: String = observations
                .iter()
                .map(|o| if checker.push(o).is_ok() { '.' } else { 'X' })
                .collect();
            let _ = writeln!(out, "stream: {stream_verdicts}");

            // Byte-pinned verdict certificates from both certified entry
            // points (their witnesses and extracted cycles may legitimately
            // differ). Every certificate is replayed through the
            // independent verifier before it is pinned, so a fixture line
            // is both a byte-stability pin and a verified witness.
            let conv_cert = check_conventional(&spec, &observations, true);
            assert_eq!(
                conv_cert.results, conventional.results,
                "certified conventional check must not change verdicts"
            );
            for (i, (result, cert)) in conv_cert
                .results
                .iter()
                .zip(&conv_cert.certificates)
                .enumerate()
            {
                mtracecheck::certify::verify_verdict(
                    &spec,
                    &observations[i],
                    cert,
                    result.is_err(),
                )
                .expect("golden conventional certificate verifies");
                let _ = writeln!(out, "cert-conventional[{i}]: {}", hex(&cert.to_bytes()));
            }
            let coll_cert = CollectiveChecker::new(&spec).check_all(&observations, true);
            assert_eq!(
                coll_cert.results, collective.results,
                "certified collective check must not change verdicts"
            );
            for (i, (result, cert)) in coll_cert
                .results
                .iter()
                .zip(&coll_cert.certificates)
                .enumerate()
            {
                mtracecheck::certify::verify_verdict(
                    &spec,
                    &observations[i],
                    cert,
                    result.is_err(),
                )
                .expect("golden collective certificate verifies");
                let _ = writeln!(out, "cert-collective[{i}]: {}", hex(&cert.to_bytes()));
            }

            // Figure 13-style diagnosis of the first violating graph, from
            // both checkers (their extracted cycles may legitimately
            // differ; both are pinned).
            for (label, results) in [
                ("conventional", &conventional.results),
                ("collective", &collective.results),
            ] {
                if let Some((i, Err(v))) = results
                    .iter()
                    .enumerate()
                    .find(|(_, r)| r.is_err())
                    .map(|(i, r)| (i, r.as_ref()))
                {
                    let text = explain_violation(&test.program, &spec, &rfs[i], v);
                    let _ = writeln!(out, "diagnose[{label} graph {i}]:");
                    for line in text.lines() {
                        let _ = writeln!(out, "    {line}");
                    }
                }
            }
            out.push('\n');
        }
    }
    out
}

#[test]
fn checker_output_matches_golden_vectors() {
    let rendered = render_corpus();
    if std::env::var_os("MTC_BLESS").is_some() {
        std::fs::create_dir_all(concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/fixtures"))
            .expect("create fixtures dir");
        std::fs::write(FIXTURE, &rendered).expect("write golden fixture");
        eprintln!("blessed {FIXTURE}");
        return;
    }
    let expected = std::fs::read_to_string(FIXTURE)
        .expect("golden fixture missing; regenerate with MTC_BLESS=1");
    if rendered != expected {
        // Find the first differing line for a readable failure.
        let mut line = 0usize;
        for (a, b) in rendered.lines().zip(expected.lines()) {
            line += 1;
            assert_eq!(
                a, b,
                "golden vector mismatch at line {line} \
                 (regenerate deliberately with MTC_BLESS=1 if the change is intended)"
            );
        }
        assert_eq!(
            rendered.lines().count(),
            expected.lines().count(),
            "golden vector length changed"
        );
        panic!("golden vector mismatch (trailing whitespace?)");
    }
}

/// The corpus itself is non-trivial: it must exercise violating graphs
/// under the stronger models, multi-word stats, and every litmus shape —
/// otherwise the pin is vacuous.
#[test]
fn golden_corpus_is_not_vacuous() {
    let mut total_graphs = 0usize;
    let mut total_violations = 0usize;
    for test in litmus::all() {
        for mcm in Mcm::ALL {
            let spec = TestGraphSpec::new(&test.program, mcm);
            let (_, observations) = corpus_observations(&test.program, &spec);
            let outcome = check_conventional(&spec, &observations, false);
            total_graphs += outcome.stats.graphs;
            total_violations += outcome.stats.violations;
        }
    }
    assert!(
        total_graphs > 100,
        "corpus too small: {total_graphs} graphs"
    );
    assert!(
        total_violations > 10,
        "corpus must contain violating graphs ({total_violations})"
    );
}
