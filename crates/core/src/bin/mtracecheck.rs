//! `mtracecheck` — command-line front end for the validation framework.
//!
//! ```text
//! mtracecheck campaign --isa arm --threads 4 --ops 50 --addrs 64 [--iters N]
//!     [--tests N] [--words-per-line W] [--seed S] [--os] [--bug 1|2|3]
//!     [--split-windows] [--compare]
//! mtracecheck litmus [NAME]
//! mtracecheck render --isa arm|x86 [--threads T --ops O --addrs A --seed S]
//! mtracecheck configs
//! ```

use mtracecheck::graph::{check_conventional, explain_violation, CheckOptions, TestGraphSpec};
use mtracecheck::instr::{analyze, render_instrumented, SignatureSchema, SourcePruning};
use mtracecheck::isa::{litmus, parse_program, IsaKind, Mcm};
use mtracecheck::service;
use mtracecheck::sim::{enumerate_outcomes, BugKind, CacheConfig};
use mtracecheck::sim::{Simulator, SystemConfig};
use mtracecheck::telemetry::{
    logger, validate_events_text, validate_metrics_text, validate_trace_text,
};
use mtracecheck::testgen::{generate, generate_suite};
use mtracecheck::{
    paper_configs, Campaign, CampaignConfig, CampaignJournal, LintAction, LintPolicy, RetryPolicy,
    Severity, SignatureLog, Telemetry, TelemetryConfig, TestConfig,
};
use std::process::ExitCode;
use std::time::Duration;

/// How a successfully completed subcommand ended. `Degraded` maps to exit
/// code 3: the campaign finished and reported, but some tests were
/// quarantined, so the verdict is partial. Errors and violations stay
/// exit 1, usage stays exit 2.
enum CmdOutcome {
    Clean,
    Degraded,
    /// A subcommand with its own exit-code vocabulary (`fsck`).
    Exit(u8),
}

struct Args {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse() -> Self {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut iter = std::env::args().skip(1).peekable();
        while let Some(arg) = iter.next() {
            if arg == "-q" {
                // The one short flag; it takes no value.
                flags.push(("quiet".to_owned(), None));
            } else if let Some(name) = arg.strip_prefix("--") {
                // Verbosity, progress, and worker-lifetime flags never take
                // a value, so a following positional (e.g. the subcommand)
                // stays one.
                let takes_value = !matches!(
                    name,
                    "quiet"
                        | "verbose"
                        | "progress"
                        | "exit-when-idle"
                        | "repair"
                        | "json"
                        | "once"
                );
                let value = iter
                    .peek()
                    .filter(|v| takes_value && !v.starts_with("--"))
                    .cloned()
                    .inspect(|_| {
                        iter.next();
                    });
                flags.push((name.to_owned(), value));
            } else {
                positional.push(arg);
            }
        }
        Args { positional, flags }
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot parse `{v}`")),
        }
    }
}

fn usage() -> &'static str {
    "mtracecheck — post-silicon memory consistency validation (MTraceCheck, ISCA'17)\n\
     \n\
     USAGE:\n\
       mtracecheck campaign --isa <arm|x86> --threads T --ops O --addrs A\n\
                   [--iters N] [--tests N] [--words-per-line W] [--seed S]\n\
                   [--os] [--bug <1|2|3>] [--split-windows] [--compare]\n\
                   [--workers N] [--parallel] [--chunked-check]\n\
                   [--lint <report|filter|regenerate>] [--lint-gate <info|warnings|errors>]\n\
                   [--retries N] [--retry-backoff-ms MS] [--time-budget-ms MS]\n\
                   [--step-budget N] [--journal FILE] [--resume]\n\
                   [--mem-budget BYTES[k|m|g]] [--spill-dir DIR]\n\
                   [--certificates FILE] [--verdict-cache FILE]\n\
                   [--trace FILE] [--chrome-trace FILE] [--metrics FILE]\n\
                   [--progress]\n\
                                      --workers N shards each test's iterations over N\n\
                                      pool workers (0 = all host threads); --parallel\n\
                                      also fans tests out over the pool; --chunked-check\n\
                                      checks collective chunks in parallel; --lint runs\n\
                                      mtc-lint's static passes on every generated test\n\
                                      before simulation, gating at --lint-gate\n\
                                      (default: warnings)\n\
                                      supervisor: --retries re-attempts a crashing,\n\
                                      corrupting, or over-budget test N times under\n\
                                      perturbed seeds before quarantining it;\n\
                                      --retry-backoff-ms sleeps (doubling) between\n\
                                      attempts; --time-budget-ms bounds one attempt's\n\
                                      wall clock; --step-budget caps simulator steps\n\
                                      per op (livelock watchdog); --journal checkpoints\n\
                                      every completed test to FILE and --resume replays\n\
                                      it, skipping already-validated tests;\n\
                                      --mem-budget bounds the resident unique-signature\n\
                                      set (suffix k/m/g), spilling sorted runs to\n\
                                      --spill-dir (default: a temp directory) and\n\
                                      merging them back losslessly\n\
                                      telemetry (provably inert — identical verdicts\n\
                                      on or off): --trace writes a deterministic JSONL\n\
                                      trace of phase spans and retry/quarantine/spill\n\
                                      events; --chrome-trace writes the same trace in\n\
                                      Chrome trace-event JSON (chrome://tracing);\n\
                                      --metrics writes Prometheus-text latency\n\
                                      histograms and counters; --progress prints a\n\
                                      throttled heartbeat on stderr\n\
       mtracecheck collect  (campaign flags) --out DIR\n\
                                      device side only: write signature logs as JSON\n\
       mtracecheck check DIR|FILE...  host side only: check previously collected logs\n\
       mtracecheck verify JOURNAL [--certs FILE]\n\
                                      independently re-validate every verdict in a\n\
                                      campaign journal against its certificate sidecar\n\
                                      (written by --certificates; default FILE is\n\
                                      JOURNAL.certs) — an O(edges) static pass sharing\n\
                                      no graph-search code with the checker;\n\
                                      --verdict-cache FILE reuses verdicts across\n\
                                      campaigns (reports stay byte-identical; hit/miss\n\
                                      counters go to stderr and the journal footer)\n\
       mtracecheck serve [--addr HOST:PORT] [--state-dir DIR] [--lease-ms MS]\n\
                   [--shard-tests N] [--max-shard-attempts N]\n\
                                      start the distributed-campaign coordinator:\n\
                                      submitted jobs shard into suite-slot leases\n\
                                      claimed by workers; prints `SERVING: ADDR`\n\
                                      (port 0 picks a free port); --state-dir\n\
                                      journals the queue so a restarted coordinator\n\
                                      resumes it; GET /metrics serves Prometheus\n\
                                      text (phase histograms, lease/reassignment/\n\
                                      poison counters), GET /healthz liveness,\n\
                                      GET /events?job=ID&since=SEQ streams the\n\
                                      job's progress events as ndjson\n\
       mtracecheck worker --coordinator HOST:PORT [--name NAME] [--poll-ms MS]\n\
                   [--exit-when-idle] [--max-shards N]\n\
                                      run a campaign worker: claim shards, execute\n\
                                      them with the single-machine pipeline, ship\n\
                                      per-test results; safe to kill at any point\n\
                                      (its leases expire and shards are reassigned)\n\
       mtracecheck submit --coordinator HOST:PORT (campaign generation flags)\n\
                   [--deadline-ms MS] [--journal-out FILE] [--progress]\n\
                   [--trace FILE] [--chrome-trace FILE]\n\
                                      submit a campaign as a job, wait for the\n\
                                      merged verdict (streamed from GET /events —\n\
                                      no polling), and print a report\n\
                                      byte-identical to `mtracecheck campaign`;\n\
                                      --journal-out saves the merged journal;\n\
                                      --progress narrates shard events on stderr;\n\
                                      --trace/--chrome-trace request per-shard\n\
                                      phase tracing on the workers and save the\n\
                                      coordinator's merged job trace (canonical\n\
                                      JSONL, byte-identical at any worker count)\n\
                                      and merged Chrome trace\n\
       mtracecheck status JOB --coordinator HOST:PORT [--once] [--deadline-ms MS]\n\
                                      live TTY view of a running job — shard map\n\
                                      (`.` pending `~` leased `#` done `!`\n\
                                      poisoned), verdict tallies, retry and\n\
                                      lease-age counters, ETA — refreshed from\n\
                                      the /events stream; --once prints one\n\
                                      snapshot and exits\n\
       mtracecheck report PATH... [--bench FILE] [--regression-factor F] [--json]\n\
                                      offline campaign digest: classify each PATH\n\
                                      (merged/campaign trace, journal, metrics\n\
                                      snapshot, coordinator state dir), render\n\
                                      per-phase latency histograms, the shard\n\
                                      timeline with retries and quarantines,\n\
                                      verdict-cache hit rates and integrity\n\
                                      warnings; --bench compares phase medians\n\
                                      against a BENCH_campaign.json baseline and\n\
                                      exits 1 when one regresses beyond\n\
                                      --regression-factor (default 4.0)\n\
       mtracecheck fsck ARTIFACT... [--repair] [--json]\n\
                                      audit the integrity of any persisted artifact —\n\
                                      campaign journals, coordinator state dirs, spill\n\
                                      runs, certificate sidecars, verdict caches —\n\
                                      via their CRC32C framing; directories are walked\n\
                                      recursively; --repair compacts line logs and\n\
                                      verdict caches to their valid records (spill\n\
                                      runs and sidecars are never rewritten); --json\n\
                                      prints one machine-readable report object\n\
       mtracecheck litmus [NAME]      explore litmus outcomes under SC/TSO/Weak\n\
       mtracecheck program FILE [--mcm <sc|tso|weak>] [--iters N] [--enumerate]\n\
                                      run and check a hand-written test (see mtc_isa::parse_program)\n\
       mtracecheck render --isa <arm|x86> [--threads T --ops O --addrs A --seed S]\n\
       mtracecheck configs            list the paper's 21 configurations\n\
       mtracecheck validate-trace FILE [--metrics FILE] [--events FILE]\n\
                                      schema-check a --trace JSONL file — either\n\
                                      a single-campaign trace or a merged\n\
                                      multi-worker job trace — and optionally a\n\
                                      --metrics snapshot and a captured /events\n\
                                      stream (monotone seq, one terminal event)\n\
     \n\
     GLOBAL FLAGS:\n\
       -q | --quiet                   errors only on stderr\n\
       --verbose                      harness-debugging detail on stderr\n\
       (stdout — reports and RESULT lines — is never affected)\n\
     \n\
     EXIT CODES:\n\
       0  clean — no violations observed (fsck: every artifact valid)\n\
       1  violations detected, or an error\n\
       2  usage\n\
       3  campaign completed DEGRADED (quarantined tests; verdict partial)\n\
       4  fsck: repairable corruption detected (or repaired under --repair)\n\
       5  fsck: unrecoverable corruption (regenerate the artifact)\n"
}

fn parse_bytes(s: &str) -> Result<u64, String> {
    let (digits, scale) = match s.as_bytes().last().map(u8::to_ascii_lowercase) {
        Some(b'k') => (&s[..s.len() - 1], 1u64 << 10),
        Some(b'm') => (&s[..s.len() - 1], 1 << 20),
        Some(b'g') => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits
        .parse::<u64>()
        .ok()
        .and_then(|n| n.checked_mul(scale))
        .ok_or_else(|| format!("cannot parse byte count `{s}` (expected N, Nk, Nm or Ng)"))
}

/// Applies `--mem-budget`/`--spill-dir` to a campaign configuration.
fn apply_memory_budget(args: &Args, mut config: CampaignConfig) -> Result<CampaignConfig, String> {
    match (args.get("mem-budget"), args.get("spill-dir")) {
        (Some(budget), dir) => {
            let bytes = parse_bytes(budget).map_err(|e| format!("--mem-budget: {e}"))?;
            let dir = dir.map_or_else(
                || std::env::temp_dir().join("mtracecheck-spill"),
                std::path::PathBuf::from,
            );
            std::fs::create_dir_all(&dir)
                .map_err(|e| format!("--spill-dir {}: {e}", dir.display()))?;
            config = config.with_memory_budget(bytes, dir);
        }
        (None, Some(_)) => {
            return Err("--spill-dir requires --mem-budget BYTES".to_owned());
        }
        (None, None) => {}
    }
    Ok(config)
}

fn build_test(args: &Args) -> Result<TestConfig, String> {
    let isa: IsaKind = args
        .get("isa")
        .unwrap_or("arm")
        .parse()
        .map_err(|e| format!("{e}"))?;
    let test = TestConfig::new(
        isa,
        args.num("threads", 2u32)?,
        args.num("ops", 50u32)?,
        args.num("addrs", 32u32)?,
    )
    .with_seed(args.num("seed", 0u64)?)
    .with_words_per_line(args.num("words-per-line", 1u32)?);
    Ok(test)
}

fn cmd_campaign(args: &Args) -> Result<CmdOutcome, String> {
    let test = build_test(args)?;
    let iterations = args.num("iters", 4096u64)?;
    let tests = args.num("tests", 10u64)?;
    let mut config =
        apply_memory_budget(args, CampaignConfig::new(test, iterations))?.with_tests(tests);
    if args.has("compare") {
        config = config.with_conventional_comparison();
    }
    if args.has("split-windows") {
        config = config.with_split_windows();
    }
    if args.has("workers") {
        config = config.with_workers(args.num("workers", 0usize)?);
    }
    if args.has("parallel") {
        config = config.with_parallel();
    }
    if args.has("chunked-check") {
        config = config.with_chunked_checking();
    }
    if let Some(action) = args.get("lint") {
        let gate: Severity = args
            .get("lint-gate")
            .unwrap_or("warnings")
            .parse()
            .map_err(|e| format!("--lint-gate: {e}"))?;
        let action = match action {
            "report" => LintAction::Report,
            "filter" => LintAction::Filter,
            "regenerate" => LintAction::Regenerate { max_attempts: 3 },
            other => {
                return Err(format!(
                    "--lint: unknown action `{other}` (report, filter or regenerate)"
                ))
            }
        };
        config = config.with_lint(LintPolicy::new(gate, action));
    }
    if args.has("os") {
        config.system.scheduler.os = Some(mtracecheck::sim::OsConfig::default());
    }
    if let Some(bug) = args.get("bug") {
        let bug = match bug {
            "1" => BugKind::LoadLoadCoherence,
            "2" => BugKind::LoadLoadLsq,
            "3" => BugKind::ProtocolRace { prob: 0.02 },
            other => return Err(format!("--bug: unknown bug `{other}` (1, 2 or 3)")),
        };
        config.system = config.system.with_bug(bug);
        if matches!(
            bug,
            BugKind::LoadLoadCoherence | BugKind::ProtocolRace { .. }
        ) {
            config.system = config.system.with_cache(CacheConfig::l1_1k());
        }
    }
    let retries = args.num("retries", 0u32)?;
    if retries > 0 || args.has("retry-backoff-ms") || args.has("time-budget-ms") {
        let mut policy = RetryPolicy::with_retries(retries)
            .with_backoff(Duration::from_millis(args.num("retry-backoff-ms", 0u64)?));
        if args.has("time-budget-ms") {
            policy =
                policy.with_time_budget(Duration::from_millis(args.num("time-budget-ms", 0u64)?));
        }
        config = config.with_retry(policy);
    }
    if args.has("step-budget") {
        let budget = args.num("step-budget", mtracecheck::sim::DEFAULT_MAX_STEPS_PER_OP)?;
        config.system = config.system.with_step_budget(budget);
    }
    if args.has("resume") && !args.has("journal") {
        return Err("--resume requires --journal FILE".to_owned());
    }
    if let Some(path) = args.get("certificates") {
        config = config.with_certificates(path);
    }
    if let Some(path) = args.get("verdict-cache") {
        config = config.with_verdict_cache(path);
    }
    let telemetry = Telemetry::new(TelemetryConfig {
        trace_path: args.get("trace").map(std::path::PathBuf::from),
        chrome_path: args.get("chrome-trace").map(std::path::PathBuf::from),
        metrics_path: args.get("metrics").map(std::path::PathBuf::from),
        progress: args.has("progress"),
        ..TelemetryConfig::default()
    });
    logger::info(format_args!(
        "validating {} on `{}` ({iterations} iterations x {tests} tests)...\n",
        config.test.name(),
        config.system.name
    ));
    let campaign = Campaign::new(config).with_telemetry(telemetry.clone());
    let report = match args.get("journal") {
        Some(path) => {
            let journal = if args.has("resume") {
                CampaignJournal::resume(path, campaign.config())
            } else {
                CampaignJournal::create(path, campaign.config())
            }
            .map_err(|e| format!("--journal {path}: {e}"))?;
            if journal.replayed() > 0 {
                logger::info(format_args!(
                    "resuming: {} completed test(s) replayed from {path}",
                    journal.replayed()
                ));
            }
            campaign.run_with_journal(&journal)
        }
        None => campaign.run(),
    };
    // Telemetry failures are logged, never promoted to a campaign verdict.
    if let Err(e) = telemetry.finish() {
        logger::warn(format_args!("warning: could not write telemetry: {e}"));
    }
    // Cache counters go to stderr, never stdout: cached and cold reports
    // stay byte-identical on stdout (the CI contract).
    if args.has("verdict-cache") {
        let c = report.cache;
        logger::info(format_args!(
            "verdict cache: {} hits, {} misses ({:.1}% hit rate), {} test(s) served from memo",
            c.hits,
            c.misses,
            100.0 * c.hit_rate(),
            c.tests_skipped
        ));
    }
    println!("{report}");
    if report.failing_tests() > 0 {
        return Err(format!(
            "RESULT: {} of {} tests exposed violations",
            report.failing_tests(),
            report.tests.len()
        ));
    }
    if report.is_degraded() {
        // Graceful degradation: partial verdicts are reported, loudly, and
        // signalled to callers through the dedicated exit code 3 — not an
        // error (the campaign completed), not success (the verdict is
        // partial).
        println!(
            "RESULT: no violations in {} validated tests (DEGRADED RUN: {} quarantined{})",
            report.tests.len(),
            report.quarantined.len(),
            if report.journal_degraded {
                ", journal incomplete"
            } else {
                ""
            }
        );
        return Ok(CmdOutcome::Degraded);
    }
    println!("RESULT: no memory consistency violations observed");
    Ok(CmdOutcome::Clean)
}

/// `mtracecheck serve` — run the distributed-campaign coordinator until
/// killed.
fn cmd_serve(args: &Args) -> Result<(), String> {
    let mut options = service::ServeOptions {
        addr: args.get("addr").unwrap_or("127.0.0.1:7700").to_owned(),
        state_dir: args.get("state-dir").map(std::path::PathBuf::from),
        lease: Duration::from_millis(args.num("lease-ms", 30_000u64)?.max(1)),
        shard_tests: args.num("shard-tests", 1u64)?.max(1),
        max_shard_attempts: args.num("max-shard-attempts", 3u32)?.max(1),
        ..service::ServeOptions::default()
    };
    if args.has("reassign-backoff-ms") {
        options.retry = RetryPolicy::with_retries(2).with_backoff(Duration::from_millis(
            args.num("reassign-backoff-ms", 25u64)?,
        ));
    }
    let server = service::serve(options).map_err(|e| format!("serve: {e}"))?;
    // The address line is flushed immediately so launcher scripts can read
    // the bound port (`--addr 127.0.0.1:0` picks a free one) from stdout.
    println!("SERVING: {}", server.addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    logger::info(format_args!(
        "coordinator listening on {} (kill the process to stop)",
        server.addr()
    ));
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

/// `mtracecheck worker` — run the claim/execute/submit loop against a
/// coordinator.
fn cmd_worker(args: &Args) -> Result<(), String> {
    let mut options = service::WorkerOptions {
        coordinator: args
            .get("coordinator")
            .ok_or("worker: --coordinator HOST:PORT is required")?
            .to_owned(),
        exit_when_idle: args.has("exit-when-idle"),
        poll: Duration::from_millis(args.num("poll-ms", 25u64)?.max(1)),
        ..service::WorkerOptions::default()
    };
    if let Some(name) = args.get("name") {
        options.name = name.to_owned();
    }
    if args.has("max-shards") {
        options.max_shards = Some(args.num("max-shards", 0u64)?);
    }
    #[cfg(feature = "fault-inject")]
    {
        options.faults = parse_net_faults(args)?;
    }
    let summary = service::run_worker(options).map_err(|e| format!("worker: {e}"))?;
    println!(
        "RESULT: worker finished ({} shard(s) completed, {} abandoned)",
        summary.shards_completed, summary.shards_abandoned
    );
    Ok(())
}

/// Parses the worker's injected-network-fault flags (test builds only):
/// comma-separated submission ordinals, `N:MS` pairs for stalls.
#[cfg(feature = "fault-inject")]
fn parse_net_faults(args: &Args) -> Result<service::NetFaultPlan, String> {
    let ordinals = |name: &str| -> Result<Vec<u64>, String> {
        args.get(name).map_or(Ok(Vec::new()), |list| {
            list.split(',')
                .filter(|s| !s.is_empty())
                .map(|s| {
                    s.parse()
                        .map_err(|_| format!("--{name}: cannot parse `{s}`"))
                })
                .collect()
        })
    };
    let mut plan = service::NetFaultPlan::default();
    for o in ordinals("fault-drop-result")? {
        plan = plan.drop_result_at(o);
    }
    for o in ordinals("fault-partial-result")? {
        plan = plan.partial_result_at(o);
    }
    for o in ordinals("fault-dup-result")? {
        plan = plan.duplicate_result_at(o);
    }
    if let Some(spec) = args.get("fault-stall-result") {
        for item in spec.split(',').filter(|s| !s.is_empty()) {
            let (ordinal, ms) = item
                .split_once(':')
                .ok_or_else(|| format!("--fault-stall-result: expected N:MS, got `{item}`"))?;
            let parse = |s: &str| {
                s.parse::<u64>()
                    .map_err(|_| format!("--fault-stall-result: cannot parse `{s}`"))
            };
            plan = plan.stall_result_at(parse(ordinal)?, parse(ms)?);
        }
    }
    Ok(plan)
}

/// `mtracecheck submit` — submit a campaign to a coordinator, wait for the
/// merged verdict, and mirror `campaign`'s stdout/exit-code contract.
fn cmd_submit(args: &Args) -> Result<CmdOutcome, String> {
    let coordinator = args
        .get("coordinator")
        .ok_or("submit: --coordinator HOST:PORT is required")?;
    let test = build_test(args)?;
    let mut spec = service::JobSpec::new(test, args.num("iters", 4096u64)?)
        .with_tests(args.num("tests", 10u64)?);
    spec.workers = args.num("workers", 1u64)?.max(1);
    spec.compare_conventional = args.has("compare");
    spec.split_windows = args.has("split-windows");
    spec.chunked_check = args.has("chunked-check");
    let retries = args.num("retries", 0u32)?;
    if retries > 0 || args.has("retry-backoff-ms") || args.has("time-budget-ms") {
        let mut policy = RetryPolicy::with_retries(retries)
            .with_backoff(Duration::from_millis(args.num("retry-backoff-ms", 0u64)?));
        if args.has("time-budget-ms") {
            policy =
                policy.with_time_budget(Duration::from_millis(args.num("time-budget-ms", 0u64)?));
        }
        spec = spec.with_retry(policy);
    }
    // Tracing is requested per job: workers capture phase spans and ship
    // them with each shard result, and the coordinator serves the merged
    // canonical trace once the job completes.
    let trace_out = args.get("trace").map(str::to_owned);
    let chrome_out = args.get("chrome-trace").map(str::to_owned);
    if trace_out.is_some() || chrome_out.is_some() {
        spec = spec.with_trace();
    }
    let timeout = Duration::from_secs(10);
    let job =
        service::submit_job(coordinator, &spec, timeout).map_err(|e| format!("submit: {e}"))?;
    logger::info(format_args!(
        "submitted job {job} ({} tests x {} iterations) to {coordinator}",
        spec.tests, spec.iterations
    ));
    let deadline = Duration::from_millis(args.num("deadline-ms", 600_000u64)?);
    // Completion is event-driven either way: `wait_for_job` consumes the
    // coordinator's `/events` stream (no polling loop). `--progress` taps
    // the same stream to narrate each event on stderr — stdout stays
    // byte-identical to a silent run.
    let reconnect = Duration::from_millis(50);
    let progress = if args.has("progress") {
        use std::io::IsTerminal as _;
        let tty = std::io::stderr().is_terminal();
        let streamed = service::stream_events(coordinator, job, 0, deadline, reconnect, |event| {
            render_event_progress(event, tty);
        });
        if tty {
            eprintln!();
        }
        streamed
    } else {
        service::wait_for_job(coordinator, job, deadline, reconnect)
    }
    .map_err(|e| format!("submit: {e}"))?;
    let report =
        service::fetch_report(coordinator, job, timeout).map_err(|e| format!("submit: {e}"))?;
    println!("{report}");
    if let Some(path) = args.get("journal-out") {
        match service::fetch_journal(coordinator, job, timeout)
            .map_err(|e| format!("submit: {e}"))?
        {
            Some(bytes) => {
                std::fs::write(path, bytes).map_err(|e| format!("--journal-out {path}: {e}"))?;
                logger::info(format_args!("merged journal written to {path}"));
            }
            None => logger::warn(format_args!(
                "coordinator cannot assemble a journal (serde unavailable on a worker); \
                 {path} not written"
            )),
        }
    }
    if let Some(path) = &trace_out {
        let text = service::fetch_job_trace(coordinator, job, timeout)
            .map_err(|e| format!("--trace: {e}"))?;
        std::fs::write(path, text).map_err(|e| format!("--trace {path}: {e}"))?;
        logger::info(format_args!("merged job trace written to {path}"));
    }
    if let Some(path) = &chrome_out {
        let text = service::fetch_job_chrome(coordinator, job, timeout)
            .map_err(|e| format!("--chrome-trace: {e}"))?;
        std::fs::write(path, text).map_err(|e| format!("--chrome-trace {path}: {e}"))?;
        logger::info(format_args!("merged chrome trace written to {path}"));
    }
    if progress.failing > 0 {
        return Err(format!(
            "RESULT: {} of {} tests exposed violations",
            progress.failing, progress.validated
        ));
    }
    if progress.degraded {
        println!(
            "RESULT: no violations in {} validated tests (DEGRADED RUN: {} quarantined)",
            progress.validated, progress.quarantined
        );
        return Ok(CmdOutcome::Degraded);
    }
    println!("RESULT: no memory consistency violations observed");
    Ok(CmdOutcome::Clean)
}

/// Narrates one `/events` entry on stderr for `submit --progress`. On a
/// TTY the line is rewritten in place; otherwise each event gets a line.
fn render_event_progress(event: &service::JobEvent, tty: bool) {
    let text = match &event.progress {
        Some(p) => format!(
            "[{}] {}/{} shards done, {} leased | {} validated, {} quarantined, {} failing",
            event.name, p.done, p.shards, p.leased, p.validated, p.quarantined, p.failing
        ),
        None => match event.shard {
            Some(shard) => format!(
                "[{}] shard {shard}{}",
                event.name,
                event
                    .cause
                    .as_deref()
                    .map(|c| format!(" ({c})"))
                    .unwrap_or_default()
            ),
            None => format!("[{}]", event.name),
        },
    };
    if tty {
        eprint!("\r\x1b[K{text}");
    } else {
        eprintln!("{text}");
    }
}

/// Renders one `status` frame: shard map, tallies, retry/lease counters,
/// and a crude ETA extrapolated from the observed shard completion rate.
fn render_status_line(job: u64, status: &service::JobStatus, elapsed: Duration, tty: bool) {
    let p = &status.progress;
    let finished = p.done + p.poisoned;
    let eta = if p.complete || finished == 0 || finished >= p.shards {
        String::new()
    } else {
        // Seconds per finished shard so far, times the shards left.
        let secs = elapsed.as_secs_f64() * ((p.shards - finished) as f64) / (finished as f64);
        format!(" | eta {secs:.0}s")
    };
    let verdict = if p.complete {
        if p.degraded {
            " | COMPLETE (degraded)"
        } else {
            " | COMPLETE"
        }
    } else {
        ""
    };
    let line = format!(
        "job {job} [{}] {finished}/{} shards ({} leased) | {} validated, {} quarantined, \
         {} failing | retries {} poisoned {} lease-age {}ms{eta}{verdict}",
        status.shard_map,
        p.shards,
        p.leased,
        p.validated,
        p.quarantined,
        p.failing,
        status.retries,
        p.poisoned,
        status.lease_age_ms,
    );
    if tty {
        print!("\r\x1b[K{line}");
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
    } else {
        println!("{line}");
    }
}

/// `mtracecheck status` — live view of a job's shard map, lease ages and
/// verdict tallies, refreshed from the coordinator's `/events` stream
/// (`--once` prints a single snapshot instead).
fn cmd_status(args: &Args) -> Result<(), String> {
    let coordinator = args
        .get("coordinator")
        .ok_or("status: --coordinator HOST:PORT is required")?;
    let job: u64 = args
        .positional
        .get(1)
        .ok_or("status: missing JOB argument")?
        .parse()
        .map_err(|_| "status: JOB must be a numeric job id".to_owned())?;
    use std::io::IsTerminal as _;
    let tty = std::io::stdout().is_terminal();
    let timeout = Duration::from_secs(10);
    let started = std::time::Instant::now();
    let status =
        service::job_status(coordinator, job, timeout).map_err(|e| format!("status: {e}"))?;
    render_status_line(job, &status, started.elapsed(), tty);
    if args.has("once") || status.progress.complete {
        if tty {
            println!();
        }
        return Ok(());
    }
    // Refresh on every event rather than on a poll timer: the stream is
    // the coordinator's own change feed, so quiet jobs cost nothing.
    let deadline = Duration::from_millis(args.num("deadline-ms", 600_000u64)?);
    let addr = coordinator.to_owned();
    service::stream_events(
        coordinator,
        job,
        0,
        deadline,
        Duration::from_millis(250),
        |_| {
            if let Ok(status) = service::job_status(&addr, job, timeout) {
                render_status_line(job, &status, started.elapsed(), tty);
            }
        },
    )
    .map_err(|e| format!("status: {e}"))?;
    let status =
        service::job_status(coordinator, job, timeout).map_err(|e| format!("status: {e}"))?;
    render_status_line(job, &status, started.elapsed(), tty);
    if tty {
        println!();
    }
    Ok(())
}

/// `mtracecheck report` — offline campaign digest over traces, journals,
/// metrics snapshots and coordinator state directories, optionally gated
/// against a committed bench baseline.
fn cmd_report(args: &Args) -> Result<CmdOutcome, String> {
    if args.positional.len() < 2 {
        return Err(
            "usage: mtracecheck report PATH... [--bench FILE] [--regression-factor F] [--json]"
                .to_owned(),
        );
    }
    let paths: Vec<std::path::PathBuf> = args.positional[1..]
        .iter()
        .map(std::path::PathBuf::from)
        .collect();
    let mut options = mtracecheck::digest::DigestOptions {
        bench: args.get("bench").map(std::path::PathBuf::from),
        ..mtracecheck::digest::DigestOptions::default()
    };
    options.regression_factor = args.num("regression-factor", options.regression_factor)?;
    let digest =
        mtracecheck::digest::analyze(&paths, &options).map_err(|e| format!("report: {e}"))?;
    if args.has("json") {
        print!("{}", digest.render_json());
    } else {
        print!("{}", digest.render_text());
    }
    if digest.has_regression() {
        return Err(
            "RESULT: phase latency regressed against the bench baseline (see digest)".to_owned(),
        );
    }
    Ok(CmdOutcome::Clean)
}

fn cmd_collect(args: &Args) -> Result<(), String> {
    let test = build_test(args)?;
    let iterations = args.num("iters", 4096u64)?;
    let tests = args.num("tests", 10u64)?;
    let out = args.get("out").unwrap_or("signature-logs");
    std::fs::create_dir_all(out).map_err(|e| format!("--out {out}: {e}"))?;
    let mut config =
        apply_memory_budget(args, CampaignConfig::new(test.clone(), iterations))?.with_tests(tests);
    if args.has("workers") {
        config = config.with_workers(args.num("workers", 0usize)?);
    }
    let campaign = Campaign::new(config);
    for (i, program) in generate_suite(&test, tests).iter().enumerate() {
        let log = campaign
            .try_collect(program)
            .map_err(|e| format!("test {i}: signature collection failed: {e}"))?;
        let path = format!("{out}/{}-test{i}.json", test.name().replace(' ', "_"));
        log.save_json(&path).map_err(|e| format!("{path}: {e}"))?;
        println!("{path}: {log}");
    }
    Ok(())
}

fn cmd_check(args: &Args) -> Result<(), String> {
    let mut paths: Vec<std::path::PathBuf> = Vec::new();
    for arg in &args.positional[1..] {
        let p = std::path::Path::new(arg);
        if p.is_dir() {
            let entries = std::fs::read_dir(p).map_err(|e| format!("{arg}: {e}"))?;
            for entry in entries {
                let entry = entry.map_err(|e| format!("{arg}: {e}"))?;
                if entry.path().extension().is_some_and(|e| e == "json") {
                    paths.push(entry.path());
                }
            }
        } else {
            paths.push(p.to_owned());
        }
    }
    if paths.is_empty() {
        return Err("check: no signature logs given (directory or .json files)".to_owned());
    }
    paths.sort();
    let mut failing = 0usize;
    for path in &paths {
        let log = SignatureLog::load_json(path).map_err(|e| format!("{}: {e}", path.display()))?;
        // Host-side checking needs the MCM and checker options; take them
        // from the CLI flags with the usual defaults.
        let test = build_test(args)?;
        let mut config = CampaignConfig::new(test, log.iterations);
        if args.has("split-windows") {
            config = config.with_split_windows();
        }
        let report = Campaign::new(config)
            .check_log(&log)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("=== {} ===", path.display());
        print!("{report}");
        if !report.is_clean() {
            failing += 1;
        }
    }
    if failing == 0 {
        println!("RESULT: all {} logs check clean", paths.len());
        Ok(())
    } else {
        Err(format!(
            "RESULT: {failing} of {} logs contain violations",
            paths.len()
        ))
    }
}

/// Per-test expectations the journal contributes beyond the sidecar
/// itself: the unique-signature count and which signatures violated.
struct VerifyExpectation {
    unique_signatures: usize,
    failing: std::collections::BTreeSet<Vec<u64>>,
}

/// Verifies one test's certificate records against an independently
/// rebuilt graph spec. Shares no graph-search code with the checker: the
/// signature is decoded to its reads-from observation on the slow path and
/// each certificate is replayed by `mtc-certify`'s O(edges) static pass.
fn verify_test_records(
    test_index: u64,
    program: &mtracecheck::isa::Program,
    mcm: Mcm,
    register_bits: u32,
    recs: &[&mtracecheck::CertRecord],
    expect: Option<&VerifyExpectation>,
) -> Result<u64, String> {
    let analysis = analyze(program, &SourcePruning::none());
    let schema = SignatureSchema::build(program, &analysis, register_bits);
    let spec = TestGraphSpec::new(program, mcm);
    let schema_hash = schema.stable_hash();
    if let Some(expect) = expect {
        if recs.len() != expect.unique_signatures {
            return Err(format!(
                "test {test_index}: sidecar has {} certificate(s) for {} unique signatures",
                recs.len(),
                expect.unique_signatures
            ));
        }
    }
    let mut verified = 0u64;
    for rec in recs {
        if rec.schema_hash != schema_hash {
            return Err(format!(
                "test {test_index}: certificate schema hash {:#018x} != rebuilt schema \
                 {:#018x} (sidecar from a different campaign, or a lint-gated suite?)",
                rec.schema_hash, schema_hash
            ));
        }
        let sig = mtracecheck::instr::ExecutionSignature::from_words(rec.words.clone());
        let rf = schema
            .decode(&sig)
            .map_err(|e| format!("test {test_index}: signature {sig}: {e}"))?;
        let obs = spec.observe(program, &rf, &CheckOptions::default());
        mtracecheck::certify::verify_verdict(&spec, &obs, &rec.certificate, rec.verdict_failed)
            .map_err(|e| {
                format!("test {test_index}: signature {sig}: certificate REJECTED: {e}")
            })?;
        if let Some(expect) = expect {
            if rec.verdict_failed != expect.failing.contains(&rec.words) {
                return Err(format!(
                    "test {test_index}: signature {sig}: sidecar verdict ({}) contradicts \
                     the journal",
                    if rec.verdict_failed { "FAIL" } else { "PASS" }
                ));
            }
        }
        verified += 1;
    }
    Ok(verified)
}

fn cmd_verify(args: &Args) -> Result<(), String> {
    let path = args
        .positional
        .get(1)
        .ok_or("verify: missing JOURNAL (or sidecar) argument")?;
    // A journal is JSON lines; a bare sidecar leads with the MTCS magic.
    // Journal mode cross-checks verdicts against the recorded reports;
    // sidecar mode rebuilds the suite from the campaign flags instead.
    let is_sidecar = std::fs::read(path)
        .map_err(|e| format!("{path}: {e}"))?
        .starts_with(b"MTCS");
    if is_sidecar {
        let records = mtracecheck::read_certificates(path).map_err(|e| format!("{path}: {e}"))?;
        let test = build_test(args)?;
        let tests = args.num("tests", 10u64)?;
        let programs = generate_suite(&test, tests);
        let mut verified = 0u64;
        let mut tested = 0u64;
        for (index, program) in programs.iter().enumerate() {
            let recs: Vec<_> = records
                .iter()
                .filter(|r| r.test_index == index as u64)
                .collect();
            if recs.is_empty() {
                continue;
            }
            tested += 1;
            verified += verify_test_records(
                index as u64,
                program,
                test.mcm,
                test.isa.register_bits(),
                &recs,
                None,
            )?;
        }
        if verified == 0 {
            return Err(format!(
                "{path}: no certificates matched the suite (wrong campaign flags?)"
            ));
        }
        println!(
            "RESULT: {verified} certificate(s) independently verified across {tested} test(s)"
        );
        return Ok(());
    }
    let certs_path = args
        .get("certs")
        .map_or_else(|| format!("{path}.certs"), str::to_owned);
    let journal = mtracecheck::read_journal(path).map_err(|e| format!("{path}: {e}"))?;
    let records =
        mtracecheck::read_certificates(&certs_path).map_err(|e| format!("{certs_path}: {e}"))?;
    // The journal header pins the generation config, so the suite — and
    // each test's schema and graph spec — is rebuilt independently of the
    // campaign that wrote the journal.
    let programs = generate_suite(&journal.header.test, journal.header.tests);
    let register_bits = journal.header.test.isa.register_bits();
    let mut verified = 0u64;
    for report in &journal.tests {
        let program = programs
            .get(report.index as usize)
            .ok_or_else(|| format!("test {}: not in the regenerated suite", report.index))?;
        let expect = VerifyExpectation {
            unique_signatures: report.unique_signatures,
            failing: report
                .violations
                .iter()
                .map(|v| v.signature.words().to_vec())
                .collect(),
        };
        let recs: Vec<_> = records
            .iter()
            .filter(|r| r.test_index == report.index)
            .collect();
        verified += verify_test_records(
            report.index,
            program,
            journal.header.test.mcm,
            register_bits,
            &recs,
            Some(&expect),
        )?;
    }
    println!(
        "RESULT: {verified} certificate(s) independently verified across {} test(s)",
        journal.tests.len()
    );
    Ok(())
}

/// `mtracecheck fsck` — audit (and with `--repair`, fix) the integrity of
/// persisted artifacts. See [`mtracecheck::fsck`] for policies and the
/// exit-code vocabulary (0 clean, 4 corruption detected/repaired, 5
/// unrecoverable).
fn cmd_fsck(args: &Args) -> Result<CmdOutcome, String> {
    if args.positional.len() < 2 {
        return Err("usage: mtracecheck fsck ARTIFACT... [--repair] [--json]".to_owned());
    }
    let paths: Vec<std::path::PathBuf> = args.positional[1..]
        .iter()
        .map(std::path::PathBuf::from)
        .collect();
    let report = mtracecheck::fsck_paths(&paths, args.has("repair"));
    if args.has("json") {
        println!("{}", report.to_json());
    } else {
        for file in &report.files {
            println!("{}", file.render_text());
        }
    }
    Ok(CmdOutcome::Exit(report.exit_code()))
}

fn cmd_litmus(args: &Args) -> Result<(), String> {
    let filter = args.positional.get(1).map(String::as_str);
    let mut shown = 0;
    for test in litmus::all() {
        if let Some(f) = filter {
            if !test.name.eq_ignore_ascii_case(f) {
                continue;
            }
        }
        shown += 1;
        println!(
            "=== {} ===\n{}\n{}",
            test.name, test.description, test.program
        );
        for mcm in Mcm::ALL {
            let outcomes = enumerate_outcomes(&test.program, mcm, 5_000_000)
                .map_err(|e| format!("{}: {e}", test.name))?;
            println!("  {mcm:>4}: {} allowed outcomes", outcomes.len());
        }
        println!();
    }
    if shown == 0 {
        return Err(format!(
            "no litmus test named `{}`; try: {}",
            filter.unwrap_or(""),
            litmus::all()
                .iter()
                .map(|t| t.name)
                .collect::<Vec<_>>()
                .join(", ")
        ));
    }
    Ok(())
}

fn cmd_program(args: &Args) -> Result<(), String> {
    let path = args
        .positional
        .get(1)
        .ok_or("program: missing FILE argument")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let program = parse_program(&text).map_err(|e| format!("{path}: {e}"))?;
    let mcm = match args.get("mcm").unwrap_or("weak") {
        "sc" => Mcm::Sc,
        "tso" => Mcm::Tso,
        "weak" => Mcm::Weak,
        other => return Err(format!("--mcm: unknown model `{other}` (sc, tso or weak)")),
    };
    let iterations = args.num("iters", 4096u64)?;
    println!("{program}");

    if args.has("enumerate") {
        match enumerate_outcomes(&program, mcm, 5_000_000) {
            Ok(outcomes) => println!("{mcm}: {} allowed outcomes (exhaustive)", outcomes.len()),
            Err(e) => println!("{mcm}: exhaustive enumeration unavailable ({e})"),
        }
    }

    let system = match mcm {
        Mcm::Sc => SystemConfig::sc_reference(),
        Mcm::Tso => SystemConfig::x86_desktop().with_aggressive_interleaving(),
        Mcm::Weak => SystemConfig::arm_soc().with_aggressive_interleaving(),
    }
    .with_mcm(mcm);
    let mut sim = Simulator::new(&program, system);
    let spec = TestGraphSpec::new(&program, mcm);
    let mut unique = std::collections::BTreeSet::new();
    for seed in 0..iterations {
        unique.insert(
            sim.run(seed)
                .map_err(|e| format!("simulation: {e}"))?
                .reads_from,
        );
    }
    let observations: Vec<_> = unique
        .iter()
        .map(|rf| spec.observe(&program, rf, &CheckOptions::default()))
        .collect();
    let outcome = check_conventional(&spec, &observations, false);
    println!(
        "{iterations} iterations -> {} unique interleavings, {} violations under {mcm}",
        unique.len(),
        outcome.violation_count()
    );
    for (rf, result) in unique.iter().zip(outcome.results.iter()) {
        if let Err(violation) = result {
            print!("{}", explain_violation(&program, &spec, rf, violation));
        }
    }
    if outcome.violation_count() == 0 {
        Ok(())
    } else {
        Err("RESULT: violations detected".to_owned())
    }
}

fn cmd_render(args: &Args) -> Result<(), String> {
    let test = build_test(args)?;
    let program = generate(&test);
    let analysis = analyze(&program, &SourcePruning::none());
    let schema = SignatureSchema::build(&program, &analysis, test.isa.register_bits());
    println!("; {} — instrumented test", test.name());
    println!("{}", render_instrumented(&program, &schema, test.isa));
    Ok(())
}

fn cmd_validate_trace(args: &Args) -> Result<(), String> {
    let path = args
        .positional
        .get(1)
        .ok_or("validate-trace: missing FILE argument")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let summary = validate_trace_text(&text).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "{path}: valid trace ({} spans, {} events)",
        summary.spans, summary.events
    );
    if let Some(metrics_path) = args.get("metrics") {
        let text =
            std::fs::read_to_string(metrics_path).map_err(|e| format!("{metrics_path}: {e}"))?;
        let samples = validate_metrics_text(&text).map_err(|e| format!("{metrics_path}: {e}"))?;
        println!("{metrics_path}: valid metrics ({samples} samples)");
    }
    if let Some(events_path) = args.get("events") {
        let text =
            std::fs::read_to_string(events_path).map_err(|e| format!("{events_path}: {e}"))?;
        let count = validate_events_text(&text).map_err(|e| format!("{events_path}: {e}"))?;
        println!("{events_path}: valid event stream ({count} events)");
    }
    Ok(())
}

fn cmd_configs() {
    println!("the paper's 21 test configurations (Figure 8):");
    for c in paper_configs() {
        println!(
            "  {:<16} {} threads x {} ops over {} addresses ({})",
            c.name(),
            c.threads,
            c.ops_per_thread,
            c.num_addrs,
            c.mcm
        );
    }
}

fn main() -> ExitCode {
    let args = Args::parse();
    if args.has("quiet") {
        logger::set_level(logger::Level::Error);
    } else if args.has("verbose") {
        logger::set_level(logger::Level::Debug);
    }
    let result = match args.positional.first().map(String::as_str) {
        Some("campaign") => cmd_campaign(&args),
        Some("serve") => cmd_serve(&args).map(|()| CmdOutcome::Clean),
        Some("worker") => cmd_worker(&args).map(|()| CmdOutcome::Clean),
        Some("submit") => cmd_submit(&args),
        Some("status") => cmd_status(&args).map(|()| CmdOutcome::Clean),
        Some("report") => cmd_report(&args),
        Some("collect") => cmd_collect(&args).map(|()| CmdOutcome::Clean),
        Some("check") => cmd_check(&args).map(|()| CmdOutcome::Clean),
        Some("verify") => cmd_verify(&args).map(|()| CmdOutcome::Clean),
        Some("fsck") => cmd_fsck(&args),
        Some("litmus") => cmd_litmus(&args).map(|()| CmdOutcome::Clean),
        Some("program") => cmd_program(&args).map(|()| CmdOutcome::Clean),
        Some("render") => cmd_render(&args).map(|()| CmdOutcome::Clean),
        Some("validate-trace") => cmd_validate_trace(&args).map(|()| CmdOutcome::Clean),
        Some("configs") => {
            cmd_configs();
            Ok(CmdOutcome::Clean)
        }
        _ => {
            eprint!("{}", usage());
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(CmdOutcome::Clean) => ExitCode::SUCCESS,
        Ok(CmdOutcome::Degraded) => ExitCode::from(3),
        Ok(CmdOutcome::Exit(code)) => ExitCode::from(code),
        Err(message) => {
            logger::error(message);
            ExitCode::FAILURE
        }
    }
}
