//! The distributed observability plane: merged job traces must be
//! byte-identical at any worker count (and inert — requesting them must
//! not change a single report/journal byte), the `/events` stream must be
//! monotone, replayable, and loss-free across reconnects and coordinator
//! restarts, and `/metrics` must expose the fleet's phase histograms and
//! recovery counters.

use mtracecheck::isa::IsaKind;
use mtracecheck::service::{
    fetch_job_chrome, fetch_job_trace, fetch_journal, fetch_report, job_status, run_worker, serve,
    stream_events, submit_job, wait_for_job, JobSpec, ServeOptions, WorkerOptions,
};
use mtracecheck::telemetry::{validate_events_text, validate_metrics_text, validate_trace_text};
use mtracecheck::{Campaign, TestConfig};
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

fn worker(addr: &str, name: &str) -> WorkerOptions {
    WorkerOptions {
        coordinator: addr.to_owned(),
        name: name.to_owned(),
        exit_when_idle: true,
        ..WorkerOptions::default()
    }
}

/// Raw HTTP GET returning (status, body) — used to exercise the `/events`
/// wire framing and `/metrics` without the client helpers in the way.
fn raw_get(addr: &str, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nhost: test\r\ncontent-length: 0\r\nconnection: close\r\n\r\n"
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

/// Runs one traced job to completion on `workers` in-process workers and
/// returns (merged job trace, merged chrome trace, report, journal).
fn run_traced(workers: usize) -> (String, String, String, Option<String>) {
    let spec = small_spec().with_trace();
    let server = serve(ServeOptions::default()).expect("serve");
    let addr = server.addr();
    let job = submit_job(&addr, &spec, TIMEOUT).expect("submit");
    let handles: Vec<_> = (0..workers)
        .map(|i| {
            let options = worker(&addr, &format!("w{i}"));
            std::thread::spawn(move || run_worker(options).expect("worker"))
        })
        .collect();
    let progress = wait_for_job(&addr, job, DEADLINE, Duration::from_millis(10)).expect("done");
    assert!(progress.complete && !progress.degraded, "workers={workers}");
    for handle in handles {
        handle.join().expect("worker thread");
    }
    let trace = fetch_job_trace(&addr, job, TIMEOUT).expect("job trace");
    let chrome = fetch_job_chrome(&addr, job, TIMEOUT).expect("chrome trace");
    let report = fetch_report(&addr, job, TIMEOUT).expect("report");
    let journal = fetch_journal(&addr, job, TIMEOUT).expect("journal request");
    (trace, chrome, report, journal)
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

#[test]
fn merged_job_trace_is_byte_identical_at_any_worker_count_and_inert() {
    // The untraced distributed run and the single-machine run pin the
    // expected report/journal bytes; tracing must not move them.
    let untraced = small_spec();
    let expected_report = Campaign::new(untraced.to_config()).run().to_string();
    let untraced_journal = {
        let server = serve(ServeOptions::default()).expect("serve");
        let addr = server.addr();
        let job = submit_job(&addr, &untraced, TIMEOUT).expect("submit");
        run_worker(worker(&addr, "plain")).expect("worker");
        wait_for_job(&addr, job, DEADLINE, Duration::from_millis(10)).expect("done");
        assert!(
            fetch_job_trace(&addr, job, TIMEOUT).is_err(),
            "an untraced job must refuse to serve a trace"
        );
        fetch_journal(&addr, job, TIMEOUT).expect("journal request")
    };

    let (reference, _, _, _) = run_traced(1);
    let summary = validate_trace_text(&reference).expect("canonical trace validates");
    assert!(summary.spans > 0, "shipped worker spans survive the merge");
    assert!(
        summary.lifecycle > 0,
        "claim/done lifecycle records are interleaved"
    );
    assert!(
        reference.contains("\"shard_claimed\"") && reference.contains("\"shard_done\""),
        "every shard's lifecycle is visible: {reference}"
    );
    // Structural canon: no wall-clock, no worker identity — that is what
    // makes the bytes reproducible across placements.
    assert!(
        !reference.contains("start_us") && !reference.contains("\"w0\""),
        "canonical job trace must carry no timing or worker names"
    );

    for workers in [2usize, 4] {
        let (trace, chrome, report, journal) = run_traced(workers);
        assert_eq!(
            trace, reference,
            "merged job trace must be byte-identical (workers={workers})"
        );
        assert!(
            !chrome.is_empty() && chrome.starts_with('['),
            "chrome trace renders an event array (workers={workers})"
        );
        assert_eq!(report, expected_report, "tracing is inert on the report");
        if serde_json::to_string(&0u32).is_ok() {
            let journal = journal.expect("journal available when serde works");
            // Same inertness bar the single-machine telemetry suite holds:
            // identical bytes modulo the host-statistics footer.
            assert_eq!(
                strip_footer(&journal),
                strip_footer(untraced_journal.as_ref().expect("untraced journal")),
                "tracing is inert on the journal (workers={workers})"
            );
        }
    }
}

#[test]
fn events_stream_is_monotone_replayable_and_survives_tiny_stream_windows() {
    // A 50 ms stream window forces the client through many reconnects in
    // one job; the `since` cursor must make that invisible.
    let server = serve(ServeOptions {
        stream_window: Duration::from_millis(50),
        ..ServeOptions::default()
    })
    .expect("serve");
    let addr = server.addr();
    let spec = small_spec();
    let job = submit_job(&addr, &spec, TIMEOUT).expect("submit");
    let worker_handle = {
        let options = worker(&addr, "w0");
        std::thread::spawn(move || run_worker(options).expect("worker"))
    };
    let mut live: Vec<(u64, String)> = Vec::new();
    let progress = stream_events(
        &addr,
        job,
        0,
        DEADLINE,
        Duration::from_millis(10),
        |event| {
            live.push((event.seq, event.raw.clone()));
        },
    )
    .expect("stream to completion");
    worker_handle.join().expect("worker thread");
    assert!(progress.complete && !progress.degraded);

    assert!(live.first().is_some_and(|(seq, _)| *seq == 1), "{live:?}");
    assert!(
        live.windows(2).all(|w| w[0].0 < w[1].0),
        "seq strictly increases across reconnects: {live:?}"
    );
    let text: String = live.iter().map(|(_, raw)| format!("{raw}\n")).collect();
    let count = validate_events_text(&text).expect("event stream validates");
    assert_eq!(count as usize, live.len());
    assert!(text.contains("\"event\":\"submitted\""), "{text}");
    assert!(text.contains("\"event\":\"claimed\""), "{text}");
    assert!(text.contains("\"event\":\"shard_done\""), "{text}");
    assert!(text.contains("\"event\":\"complete\""), "{text}");

    // Replays of the finished stream are byte-stable per seq...
    let mut replay: Vec<(u64, String)> = Vec::new();
    stream_events(
        &addr,
        job,
        0,
        DEADLINE,
        Duration::from_millis(10),
        |event| {
            replay.push((event.seq, event.raw.clone()));
        },
    )
    .expect("replay");
    assert_eq!(replay, live, "a reconnect from 0 replays identical bytes");
    // ...and a mid-stream cursor resumes without duplicates.
    let mid = live[live.len() / 2].0;
    let mut resumed: Vec<u64> = Vec::new();
    stream_events(
        &addr,
        job,
        mid,
        DEADLINE,
        Duration::from_millis(10),
        |event| {
            resumed.push(event.seq);
        },
    )
    .expect("resume");
    assert!(
        resumed.iter().all(|seq| *seq > mid),
        "since={mid} must suppress everything already delivered: {resumed:?}"
    );

    // The raw wire framing: ndjson body, no content-length, since filter.
    let (status, body) = raw_get(&addr, &format!("/events?job={job}&since=0"));
    assert_eq!(status, 200);
    validate_events_text(&body).expect("wire body is a valid event stream");
    assert_eq!(body, text, "the wire bytes match the client's view");
    let (status, body) = raw_get(&addr, &format!("/events?job={job}&since={mid}"));
    assert_eq!(status, 200);
    assert!(
        body.lines()
            .next()
            .is_some_and(|l| l.contains(&format!("\"seq\":{}", mid + 1))),
        "{body}"
    );
    // Bad queries get framed errors, not hung streams.
    let (status, _) = raw_get(&addr, "/events?job=999999&since=0");
    assert_eq!(status, 404);
    let (status, _) = raw_get(&addr, "/events?since=0");
    assert_eq!(status, 400);

    // The status endpoint agrees with the terminal event.
    let status = job_status(&addr, job, TIMEOUT).expect("status");
    assert!(status.progress.complete);
    assert_eq!(status.tests, spec.tests);
    assert_eq!(status.shard_map.len() as u64, status.progress.shards);
    assert!(status.shard_map.chars().all(|c| c == '#'), "{status:?}");
}

#[test]
fn events_and_seq_numbers_survive_a_coordinator_restart() {
    let dir = temp_dir("events-restart");
    let spec = small_spec();

    // A short stream window keeps the pre-completion raw read from
    // parking on the server's default 10 s hold.
    let server = serve(ServeOptions {
        state_dir: Some(dir.clone()),
        stream_window: Duration::from_millis(200),
        ..ServeOptions::default()
    })
    .expect("serve");
    let addr = server.addr();
    let job = submit_job(&addr, &spec, TIMEOUT).expect("submit");
    let summary = run_worker(WorkerOptions {
        max_shards: Some(2),
        ..worker(&addr, "early")
    })
    .expect("worker");
    assert_eq!(summary.shards_completed, 2);
    let (_, before) = raw_get(&addr, &format!("/events?job={job}&since=0"));
    let before_count = validate_events_text(&before).expect("pre-restart stream validates");
    assert!(before_count >= 3, "submitted + at least 2 shard_done");
    drop(server);

    // The restarted coordinator replays jobs AND their event history; new
    // events continue the sequence rather than restarting it.
    let server = serve(ServeOptions {
        state_dir: Some(dir.clone()),
        ..ServeOptions::default()
    })
    .expect("re-serve");
    let addr = server.addr();
    run_worker(worker(&addr, "late")).expect("worker");
    let progress = wait_for_job(&addr, job, DEADLINE, Duration::from_millis(10)).expect("done");
    assert!(progress.complete && !progress.degraded);

    let (_, after) = raw_get(&addr, &format!("/events?job={job}&since=0"));
    let after_count = validate_events_text(&after).expect("post-restart stream validates");
    assert!(after_count > before_count);
    assert!(
        after.starts_with(&before),
        "replayed history is a byte-identical prefix;\nbefore:\n{before}\nafter:\n{after}"
    );
    assert_eq!(
        after.matches("\"event\":\"complete\"").count(),
        1,
        "exactly one terminal event, even across restart + replay: {after}"
    );
    drop(server);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn abandoned_attempts_are_visible_in_trace_events_and_metrics() {
    let server = serve(ServeOptions {
        lease: Duration::from_millis(60),
        ..ServeOptions::default()
    })
    .expect("serve");
    let addr = server.addr();
    let spec = JobSpec::new(TestConfig::new(IsaKind::Arm, 2, 10, 8).with_seed(1), 20)
        .with_tests(1)
        .with_trace();
    let job = submit_job(&addr, &spec, TIMEOUT).expect("submit");

    // A ghost claims the only shard and vanishes; the lease expires and
    // the shard is reassigned to an honest worker.
    let mut stream = TcpStream::connect(&addr).expect("connect");
    let body = "{\"worker\":\"ghost\"}";
    write!(
        stream,
        "POST /claim HTTP/1.1\r\nhost: test\r\ncontent-type: application/json\r\n\
         content-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("claim");
    let mut text = String::new();
    stream.read_to_string(&mut text).expect("claim response");
    assert!(text.contains("\"shard\""), "ghost got the lease: {text}");

    // Let the lease expire and the reassignment backoff drain before the
    // honest exit-when-idle worker looks for work, or it would see an
    // idle queue and leave.
    std::thread::sleep(Duration::from_millis(400));
    run_worker(worker(&addr, "honest")).expect("worker");
    let progress = wait_for_job(&addr, job, DEADLINE, Duration::from_millis(10)).expect("done");
    assert!(progress.complete && !progress.degraded);

    // The abandoned attempt 1 is in the canonical trace, cause included,
    // next to the attempt that delivered.
    let trace = fetch_job_trace(&addr, job, TIMEOUT).expect("trace");
    validate_trace_text(&trace).expect("trace with a failed attempt validates");
    assert!(
        trace.contains("\"shard_failed\"") && trace.contains("lease expired"),
        "the lost lease is visible in the merged trace: {trace}"
    );
    assert!(
        trace.contains("\"attempt\":2"),
        "the delivering attempt is attempt 2: {trace}"
    );

    // ...and in the event stream...
    let (_, events) = raw_get(&addr, &format!("/events?job={job}&since=0"));
    validate_events_text(&events).expect("events validate");
    assert!(
        events.contains("\"event\":\"shard_failed\"") && events.contains("lease expired"),
        "{events}"
    );

    // ...and in the coordinator's metrics, alongside the pre-registered
    // recovery and integrity counters (zero-valued ones included).
    let (status, metrics) = raw_get(&addr, "/metrics");
    assert_eq!(status, 200);
    validate_metrics_text(&metrics).expect("metrics validate");
    for counter in [
        "lease_expirations",
        "shard_failures",
        "shards_reassigned",
        "shards_poisoned",
        "journal_skipped_lines",
        "state_skipped_lines",
        "trace_records",
        "trace_truncated",
        "event_streams",
    ] {
        assert!(
            metrics.contains(&format!("event=\"{counter}\"")),
            "{counter} missing from /metrics:\n{metrics}"
        );
    }
    assert!(
        metrics.contains("mtracecheck_phase_duration_microseconds_count{phase=\"check\"}"),
        "shipped worker spans feed the coordinator's phase histograms:\n{metrics}"
    );

    // The digest analyzer ties the artifacts together offline.
    let dir = temp_dir("digest");
    let trace_path = dir.join("job.trace");
    let metrics_path = dir.join("metrics.prom");
    std::fs::write(&trace_path, &trace).expect("write trace");
    std::fs::write(&metrics_path, &metrics).expect("write metrics");
    let digest = mtracecheck::digest::analyze(
        &[trace_path, metrics_path],
        &mtracecheck::digest::DigestOptions::default(),
    )
    .expect("digest");
    assert!(!digest.phases.is_empty(), "phase latency table populated");
    let trace_digest = digest.trace.as_ref().expect("trace digest");
    assert!(trace_digest.lifecycle > 0);
    assert!(
        trace_digest
            .shards
            .iter()
            .any(|s| s.failures > 0 && s.causes.iter().any(|c| c.contains("lease expired"))),
        "the shard timeline shows the failed attempt: {digest:?}"
    );
    assert!(!digest.has_regression(), "no baseline, no regression");

    // A bench baseline with microscopic medians flags every hot phase.
    let bench_path = dir.join("BENCH_campaign.json");
    std::fs::write(
        &bench_path,
        "{\"phases\":[{\"phase\":\"check\",\"count\":1,\"total_us\":0,\"p50_us\":0}]}",
    )
    .expect("write bench");
    let digest = mtracecheck::digest::analyze(
        &[dir.join("metrics.prom")],
        &mtracecheck::digest::DigestOptions {
            bench: Some(bench_path),
            ..mtracecheck::digest::DigestOptions::default()
        },
    )
    .expect("digest with baseline");
    assert!(
        digest.has_regression(),
        "a floor baseline must flag the measured check phase: {digest:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
