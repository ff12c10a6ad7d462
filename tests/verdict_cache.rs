//! Verdict-cache equivalence: a warm campaign whose every signature is
//! served from the cross-campaign cache must produce a report — and a
//! certificate sidecar — byte-identical to the cold run that populated it,
//! at 1, 2, and 4 checker workers; and every certificate either run emits
//! must replay through the independent verifier.
//!
//! These tests use only the binary MTCS/MTCV artifacts (no JSON journal),
//! so they run under the offline serde stubs.

use mtracecheck::certify::verify_verdict;
use mtracecheck::graph::{CheckOptions, TestGraphSpec};
use mtracecheck::instr::{analyze, ExecutionSignature, SignatureSchema, SourcePruning};
use mtracecheck::isa::IsaKind;
use mtracecheck::testgen::generate_suite;
use mtracecheck::{read_certificates, Campaign, CampaignConfig, TestConfig};

mod common;
use common::temp_dir;

const TESTS: u64 = 3;

fn base_config() -> CampaignConfig {
    let test = TestConfig::new(IsaKind::Arm, 2, 18, 8).with_seed(77);
    CampaignConfig::new(test, 200).with_tests(TESTS)
}

/// Cold run populates, warm run replays: identical reports, identical
/// sidecar bytes, full hit rate, every test served from the memo.
#[test]
fn warm_cache_reports_are_identical_at_every_worker_count() {
    for workers in [1usize, 2, 4] {
        let dir = temp_dir(&format!("w{workers}"));
        let certs = dir.join("run.certs");
        let cache = dir.join("run.cache");
        let config = || {
            let mut c = base_config()
                .with_certificates(&certs)
                .with_verdict_cache(&cache);
            if workers > 1 {
                c = c.with_workers(workers).with_chunked_checking();
            }
            c
        };
        let cold = Campaign::new(config()).run();
        assert_eq!(cold.cache.hits, 0, "cold cache starts empty");
        assert!(cold.cache.misses > 0);
        let cold_sidecar = std::fs::read(&certs).expect("cold sidecar written");
        let cold_cache = std::fs::read(&cache).expect("cold cache written");

        let warm = Campaign::new(config()).run();
        assert_eq!(
            warm, cold,
            "warm report must be identical to cold at {workers} worker(s)"
        );
        assert_eq!(warm.cache.misses, 0, "warm run re-checks nothing");
        assert_eq!(warm.cache.hits, cold.cache.misses);
        assert!((warm.cache.hit_rate() - 1.0).abs() < 1e-12);
        assert_eq!(warm.cache.tests_skipped, TESTS);
        assert_eq!(
            std::fs::read(&certs).expect("warm sidecar written"),
            cold_sidecar,
            "memo-served sidecar must be byte-identical"
        );
        assert_eq!(
            std::fs::read(&cache).expect("warm cache written"),
            cold_cache,
            "a pure-hit save must rewrite identical cache bytes"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Every certificate the campaign emits replays through the independent
/// verifier against an independently rebuilt spec and decoded signature.
#[test]
fn emitted_certificates_verify_independently() {
    let dir = temp_dir("verify");
    let certs = dir.join("run.certs");
    let config = base_config().with_certificates(&certs);
    let report = Campaign::new(config.clone()).run();
    let records = read_certificates(&certs).expect("sidecar parses");
    assert_eq!(
        records.len(),
        report
            .tests
            .iter()
            .map(|t| t.unique_signatures)
            .sum::<usize>(),
        "one certificate per unique signature"
    );
    let programs = generate_suite(&config.test, TESTS);
    for (index, program) in programs.iter().enumerate() {
        let analysis = analyze(program, &SourcePruning::none());
        let schema = SignatureSchema::build(program, &analysis, config.test.isa.register_bits());
        let spec = TestGraphSpec::new(program, config.test.mcm);
        for rec in records.iter().filter(|r| r.test_index == index as u64) {
            assert_eq!(rec.schema_hash, schema.stable_hash());
            let sig = ExecutionSignature::from_words(rec.words.clone());
            let rf = schema.decode(&sig).expect("recorded signatures decode");
            let obs = spec.observe(program, &rf, &CheckOptions::default());
            verify_verdict(&spec, &obs, &rec.certificate, rec.verdict_failed)
                .expect("emitted certificates verify");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The cache key includes the check context: a campaign with a different
/// MCM-relevant configuration must not be served stale verdicts.
#[test]
fn cache_is_context_keyed() {
    let dir = temp_dir("ctx");
    let cache = dir.join("shared.cache");
    let cold = Campaign::new(base_config().with_verdict_cache(&cache)).run();
    assert!(cold.cache.misses > 0);
    // Same signatures, different split-window setting: different context
    // hash, so nothing may hit.
    let other = Campaign::new(
        base_config()
            .with_split_windows()
            .with_verdict_cache(&cache),
    )
    .run();
    assert_eq!(other.cache.hits, 0, "context change must invalidate");
    assert_eq!(other.cache.tests_skipped, 0);
    let _ = std::fs::remove_dir_all(&dir);
}
