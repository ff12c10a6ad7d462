//! Distributed-campaign equivalence: the coordinator's merged report and
//! journal must be byte-identical to a single-machine run at any worker
//! count, and the protocol must shrug off malformed requests, dead
//! claimants, and coordinator restarts.

use mtracecheck::isa::IsaKind;
use mtracecheck::service::{
    fetch_journal, fetch_report, run_worker, serve, submit_job, wait_for_job, JobSpec,
    ServeOptions, WorkerOptions,
};
use mtracecheck::telemetry::validate_metrics_text;
use mtracecheck::{Campaign, CampaignJournal, RetryPolicy, TestConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

mod common;
use common::temp_dir;

const TIMEOUT: Duration = Duration::from_secs(5);
const DEADLINE: Duration = Duration::from_secs(120);

fn small_spec() -> JobSpec {
    let test = TestConfig::new(IsaKind::Arm, 2, 12, 8).with_seed(3);
    JobSpec::new(test, 40).with_tests(5)
}

fn baseline_report(spec: &JobSpec) -> String {
    Campaign::new(spec.to_config()).run().to_string()
}

/// Whether serde can serialize under the current build (offline devstubs
/// cannot); journal byte-comparisons only make sense when it can.
fn serde_available() -> bool {
    serde_json::to_string(&0u32).is_ok()
}

/// Journals carry host statistics in their footer; cross-run comparisons
/// strip it (both sides), exactly like the single-machine resume path.
fn strip_footer(journal: &str) -> String {
    journal
        .lines()
        .filter(|line| !line.contains("\"Footer\""))
        .map(|line| format!("{line}\n"))
        .collect()
}

/// The single-machine journal the distributed one must reproduce.
fn baseline_journal(spec: &JobSpec) -> Option<String> {
    if !serde_available() {
        return None;
    }
    let dir = temp_dir("baseline");
    let path = dir.join("baseline.journal");
    let campaign = Campaign::new(spec.to_config());
    let journal =
        CampaignJournal::create(path.to_str().unwrap(), campaign.config()).expect("journal");
    campaign.run_with_journal(&journal);
    let bytes = std::fs::read_to_string(&path).expect("journal bytes");
    std::fs::remove_dir_all(&dir).ok();
    Some(strip_footer(&bytes))
}

/// A bare-hands HTTP client, so tests can send exactly the malformed
/// traffic the public client helpers refuse to produce.
fn raw_request(addr: &str, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nhost: test\r\ncontent-type: application/json\r\n\
         content-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("write request");
    let mut text = String::new();
    stream.read_to_string(&mut text).expect("read response");
    let status = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_owned())
        .unwrap_or_default();
    (status, body)
}

fn worker(addr: &str, name: &str) -> WorkerOptions {
    WorkerOptions {
        coordinator: addr.to_owned(),
        name: name.to_owned(),
        exit_when_idle: true,
        ..WorkerOptions::default()
    }
}

#[test]
fn distributed_run_matches_single_machine_at_any_worker_count() {
    let spec = small_spec();
    let expected_report = baseline_report(&spec);
    let expected_journal = baseline_journal(&spec);
    for workers in [1usize, 2, 4] {
        let server = serve(ServeOptions::default()).expect("serve");
        let addr = server.addr();
        let job = submit_job(&addr, &spec, TIMEOUT).expect("submit");
        let handles: Vec<_> = (0..workers)
            .map(|i| {
                let options = worker(&addr, &format!("w{i}"));
                std::thread::spawn(move || run_worker(options).expect("worker"))
            })
            .collect();
        let progress =
            wait_for_job(&addr, job, DEADLINE, Duration::from_millis(10)).expect("completion");
        assert!(progress.complete, "workers={workers}");
        assert!(!progress.degraded, "workers={workers}");
        assert_eq!(progress.validated, spec.tests, "workers={workers}");
        let report = fetch_report(&addr, job, TIMEOUT).expect("report");
        assert_eq!(
            report, expected_report,
            "merged report must be byte-identical (workers={workers})"
        );
        if let Some(expected_journal) = &expected_journal {
            let journal = fetch_journal(&addr, job, TIMEOUT)
                .expect("journal request")
                .expect("journal available when serde works");
            assert_eq!(
                &strip_footer(&journal),
                expected_journal,
                "merged journal must be byte-identical (workers={workers})"
            );
        }
        for handle in handles {
            handle.join().expect("worker thread");
        }
        drop(server);
    }
}

#[test]
fn protocol_survives_malformed_and_premature_requests() {
    let server = serve(ServeOptions::default()).expect("serve");
    let addr = server.addr();

    let (status, _) = raw_request(&addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    let (status, _) = raw_request(&addr, "POST", "/jobs", "this is not json");
    assert_eq!(status, 400);
    let (status, _) = raw_request(&addr, "GET", "/jobs/999999", "");
    assert_eq!(status, 404);
    let (status, _) = raw_request(&addr, "DELETE", "/jobs", "");
    assert_eq!(status, 405);

    let spec = small_spec();
    let job = submit_job(&addr, &spec, TIMEOUT).expect("submit");
    // The report is not assembled until every shard is terminal.
    let (status, _) = raw_request(&addr, "GET", &format!("/jobs/{job}/report"), "");
    assert_eq!(status, 409);
    // A result with no slot coverage is rejected, not merged.
    let corrupt =
        format!("{{\"job\":{job},\"shard\":0,\"lease\":1,\"worker\":\"evil\",\"entries\":[]}}");
    let (status, _) = raw_request(&addr, "POST", "/result", &corrupt);
    assert_eq!(status, 400);

    // None of the junk perturbed the job: a real worker completes it.
    run_worker(worker(&addr, "honest")).expect("worker");
    let progress = wait_for_job(&addr, job, DEADLINE, Duration::from_millis(10)).expect("done");
    assert!(progress.complete && !progress.degraded);
    assert_eq!(
        fetch_report(&addr, job, TIMEOUT).expect("report"),
        baseline_report(&spec)
    );

    // The metrics endpoint serves valid Prometheus text with live counters.
    let (status, text) = raw_request(&addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(validate_metrics_text(&text).is_ok(), "{text}");
    assert!(text.contains("event=\"requests\""), "{text}");
    assert!(text.contains("event=\"shards_claimed\""), "{text}");
}

#[test]
fn dead_claimants_poison_the_shard_and_degrade_the_job() {
    let server = serve(ServeOptions {
        lease: Duration::from_millis(60),
        max_shard_attempts: 2,
        retry: RetryPolicy::with_retries(2).with_backoff(Duration::from_millis(1)),
        ..ServeOptions::default()
    })
    .expect("serve");
    let addr = server.addr();
    let spec = JobSpec::new(TestConfig::new(IsaKind::Arm, 2, 10, 8).with_seed(1), 20).with_tests(1);
    let job = submit_job(&addr, &spec, TIMEOUT).expect("submit");

    // Two claimants take the lease and vanish without heartbeating; after
    // the second expiry the shard hits max_shard_attempts and is poisoned.
    for _ in 0..2 {
        loop {
            let (status, body) = raw_request(&addr, "POST", "/claim", "{\"worker\":\"ghost\"}");
            assert_eq!(status, 200);
            if !body.contains("\"idle\"") {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    let progress = wait_for_job(&addr, job, DEADLINE, Duration::from_millis(10)).expect("done");
    assert!(
        progress.complete,
        "poison must terminate the job, not hang it"
    );
    assert!(progress.degraded);
    assert_eq!(progress.poisoned, 1);
    assert_eq!(progress.quarantined, 1);
    let report = fetch_report(&addr, job, TIMEOUT).expect("report");
    assert!(report.contains("DEGRADED RUN"), "{report}");
    assert!(report.contains("QUARANTINED"), "{report}");
    assert!(
        report.contains("ghost"),
        "the quarantine record names the dead owners: {report}"
    );
}

#[test]
fn coordinator_restart_recovers_the_queue_from_its_journal() {
    let dir = temp_dir("restart");
    let spec = small_spec();
    let expected = baseline_report(&spec);

    let server = serve(ServeOptions {
        state_dir: Some(dir.clone()),
        ..ServeOptions::default()
    })
    .expect("serve");
    let addr = server.addr();
    let job = submit_job(&addr, &spec, TIMEOUT).expect("submit");
    // Complete part of the job, then lose the coordinator process.
    let summary = run_worker(WorkerOptions {
        max_shards: Some(2),
        ..worker(&addr, "early")
    })
    .expect("worker");
    assert_eq!(summary.shards_completed, 2);
    drop(server);

    // The restarted coordinator replays its queue journal: done shards
    // stay done, the rest are claimable again.
    let server = serve(ServeOptions {
        state_dir: Some(dir.clone()),
        ..ServeOptions::default()
    })
    .expect("re-serve");
    let addr = server.addr();
    run_worker(worker(&addr, "late")).expect("worker");
    let progress = wait_for_job(&addr, job, DEADLINE, Duration::from_millis(10)).expect("done");
    assert!(progress.complete && !progress.degraded);
    assert_eq!(
        fetch_report(&addr, job, TIMEOUT).expect("report"),
        expected,
        "a restart must not change a single merged byte"
    );
    // Ids keep monotonically increasing across the restart.
    let next = submit_job(&addr, &spec, TIMEOUT).expect("second submit");
    assert!(next > job);
    drop(server);
    std::fs::remove_dir_all(&dir).ok();
}
