//! Telemetry-inertness harness.
//!
//! The contract under test: attaching every telemetry sink — JSONL trace,
//! Chrome trace, Prometheus metrics — changes *nothing* the campaign
//! computes. Reports and journals are bit-identical with telemetry on and
//! off, at every worker count, including under fault-injected retries and
//! under memory budgets small enough to spill. Additionally, the trace
//! itself is structurally deterministic: two runs of the same configuration
//! differ only in wall-clock timestamps.

use mtracecheck::isa::IsaKind;
use mtracecheck::telemetry::{validate_metrics_text, validate_trace_text};
use mtracecheck::{
    Campaign, CampaignConfig, CampaignJournal, ConfigReport, Telemetry, TelemetryConfig, TestConfig,
};

mod common;
use common::temp_dir;

fn serde_is_stubbed() -> bool {
    serde_json::to_string(&0u32).is_err()
}

fn config() -> CampaignConfig {
    CampaignConfig::new(TestConfig::new(IsaKind::Arm, 2, 15, 8).with_seed(71), 200).with_tests(4)
}

/// Runs `cfg` with all file sinks attached; returns the report plus the
/// written trace and metrics text.
fn run_traced(cfg: CampaignConfig, label: &str) -> (ConfigReport, String, String) {
    let dir = temp_dir(label);
    let trace_path = dir.join("trace.jsonl");
    let chrome_path = dir.join("chrome.json");
    let metrics_path = dir.join("metrics.prom");
    let telemetry = Telemetry::new(TelemetryConfig {
        trace_path: Some(trace_path.clone()),
        chrome_path: Some(chrome_path.clone()),
        metrics_path: Some(metrics_path.clone()),
        ..TelemetryConfig::default()
    });
    let report = Campaign::new(cfg).with_telemetry(telemetry.clone()).run();
    telemetry.finish().expect("telemetry sinks written");
    let trace = std::fs::read_to_string(&trace_path).expect("trace file");
    let metrics = std::fs::read_to_string(&metrics_path).expect("metrics file");
    assert!(
        std::fs::metadata(&chrome_path).expect("chrome file").len() > 2,
        "chrome trace is non-trivial"
    );
    let _ = std::fs::remove_dir_all(&dir);
    (report, trace, metrics)
}

#[test]
fn reports_are_identical_with_and_without_telemetry() {
    for workers in [1usize, 2, 4] {
        let cfg = || config().with_workers(workers).with_parallel();
        let plain = Campaign::new(cfg()).run();
        let (traced, trace, metrics) = run_traced(cfg(), &format!("reports-w{workers}"));
        assert_eq!(traced, plain, "workers={workers}");
        assert!(plain.profile.is_none(), "no profile without telemetry");
        let profile = traced.profile.as_ref().expect("profile with telemetry");
        assert!(!profile.phases.is_empty());
        assert!(!profile.slowest_tests.is_empty());
        let summary = validate_trace_text(&trace).expect("trace validates");
        assert!(summary.spans > 0, "workers={workers}");
        let samples = validate_metrics_text(&metrics).expect("metrics validate");
        assert!(samples > 0, "workers={workers}");
        // Every attempt span carries its correlation ids.
        assert!(trace.contains("\"phase\":\"attempt\",\"test\":0,\"attempt\":1"));
        // Sharded simulation spans are tagged with the worker id.
        if workers > 1 {
            assert!(trace.contains("\"worker\":1"), "workers={workers}");
        }
    }
}

#[test]
fn journals_are_identical_with_and_without_telemetry() {
    if serde_is_stubbed() {
        eprintln!("skipping: serde stubs cannot serialize journal records");
        return;
    }
    let dir = temp_dir("journal");
    let mut baseline: Option<String> = None;
    for traced in [false, true] {
        let campaign = Campaign::new(config().with_workers(2).with_parallel());
        let campaign = if traced {
            let telemetry = Telemetry::new(TelemetryConfig {
                trace_path: Some(dir.join("trace.jsonl")),
                ..TelemetryConfig::default()
            });
            campaign.with_telemetry(telemetry)
        } else {
            campaign
        };
        let path = dir.join(format!("journal-{traced}.jsonl"));
        let journal = CampaignJournal::create(&path, campaign.config()).unwrap();
        campaign.run_with_journal(&journal);
        drop(journal);
        let contents = std::fs::read_to_string(&path).unwrap();
        match &baseline {
            None => baseline = Some(contents),
            Some(expected) => assert_eq!(&contents, expected, "journal bytes must not move"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn spill_events_are_traced_and_inert() {
    // A 1-byte budget forces a spill run per unique signature. Telemetry
    // must record the pressure (events in the trace, totals in the report)
    // without perturbing any verdict. Serial workers keep the spill
    // schedule deterministic.
    let dir = temp_dir("spill-budget");
    let cfg = || config().with_memory_budget(1, dir.clone());
    let plain = Campaign::new(cfg()).run();
    let (traced, trace, _) = run_traced(cfg(), "spill");
    assert_eq!(traced, plain);
    assert!(traced.spill.runs_spilled > 0, "budget forced spills");
    assert_eq!(traced.spill, plain.spill, "spill stats are telemetry-free");
    assert!(trace.contains("\"name\":\"spill\""), "spill events traced");
    assert!(trace.contains("\"phase\":\"merge\""), "merge spans traced");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Removes the wall-clock fields (`start_us`, `dur_us`, `at_us`) from a
/// JSONL trace, leaving only its deterministic structure.
fn strip_timing(text: &str) -> String {
    let mut out = String::new();
    for line in text.lines() {
        let mut s = line.to_owned();
        for key in ["\"start_us\":", "\"dur_us\":", "\"at_us\":"] {
            while let Some(pos) = s.find(key) {
                let bytes = s.as_bytes();
                let mut end = pos + key.len();
                while end < bytes.len() && bytes[end].is_ascii_digit() {
                    end += 1;
                }
                let start = if end < bytes.len() && bytes[end] == b',' {
                    end += 1; // interior field: swallow the trailing comma
                    pos
                } else if pos > 0 && bytes[pos - 1] == b',' {
                    pos - 1 // final field: swallow the leading comma
                } else {
                    pos
                };
                s.replace_range(start..end, "");
            }
        }
        out.push_str(&s);
        out.push('\n');
    }
    out
}

#[test]
fn traces_are_structurally_deterministic() {
    // Two runs of the same configuration, canonical ordering: everything
    // except the timestamps must match byte for byte, even with threaded
    // shards racing each other.
    let cfg = || config().with_workers(2).with_parallel();
    let (_, first, _) = run_traced(cfg(), "determinism-a");
    let (_, second, _) = run_traced(cfg(), "determinism-b");
    let (first, second) = (strip_timing(&first), strip_timing(&second));
    assert!(first.contains("\"type\":\"span\""));
    assert_eq!(first, second);
}

#[test]
fn stripping_timing_fields_is_exact() {
    let line = "{\"type\":\"span\",\"start_us\":12,\"dur_us\":345,\"x\":1}\n";
    assert_eq!(strip_timing(line), "{\"type\":\"span\",\"x\":1}\n");
    let tail = "{\"at_us\":9}\n{\"a\":2,\"at_us\":77}\n";
    assert_eq!(strip_timing(tail), "{}\n{\"a\":2}\n");
}

#[cfg(feature = "fault-inject")]
mod faulted {
    use super::*;
    use mtracecheck::{FaultPlan, RetryPolicy};

    #[test]
    fn retries_and_quarantines_are_traced_without_changing_verdicts() {
        // Test 1 panics once and recovers on the retry; test 3 panics on
        // every attempt and is quarantined. The trace must correlate both
        // histories to (test, attempt) ids; the report must equal the
        // untraced run exactly.
        let cfg = || {
            config()
                .with_workers(2)
                .with_parallel()
                .with_retry(RetryPolicy::with_retries(1))
                .with_faults(FaultPlan::panicking([(1, 1), (3, 1), (3, 2)]))
        };
        let plain = Campaign::new(cfg()).run();
        let (traced, trace, metrics) = run_traced(cfg(), "faulted");
        assert_eq!(traced, plain);
        assert_eq!(traced.quarantined.len(), 1);
        validate_trace_text(&trace).expect("trace validates");
        assert!(
            trace.contains("\"name\":\"retry\",\"test\":1,\"attempt\":1"),
            "recovered test's first attempt traced: {trace}"
        );
        assert!(
            trace.contains("\"name\":\"retry\",\"test\":3,\"attempt\":1"),
            "quarantined test's retry traced"
        );
        assert!(
            trace.contains("\"name\":\"quarantine\",\"test\":3,\"attempt\":2"),
            "quarantine event carries the final attempt id"
        );
        assert!(trace.contains("injected fault"), "panic payload recorded");
        assert!(metrics.contains("event=\"retries\"} 2"));
        assert!(metrics.contains("event=\"quarantines\"} 1"));
    }
}
