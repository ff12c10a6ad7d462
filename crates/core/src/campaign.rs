//! The end-to-end MTraceCheck validation pipeline (Figure 1).
//!
//! One *campaign* takes a test configuration and walks the paper's four
//! steps for each generated test: instrument the test (static candidate
//! analysis + signature schema), execute it for many iterations on the
//! simulated platform, collect and sort the execution signatures, and
//! collectively check the unique signatures' constraint graphs.

use crate::certs::{CacheSummary, CertificateSink, Fnv64, MemoEntry, VerdictCache};
use crate::journal::{CampaignJournal, JournalFooter, ReplayEntry};
use crate::store::{FirstSeen, MemoryBudget, SignatureStore, SpillError, SpillStats};
#[cfg(feature = "fault-inject")]
use crate::supervisor::FaultPlan;
use crate::supervisor::{
    attempt_seed_offset, AttemptFailure, FailureCause, QuarantineRecord, RetryPolicy,
};
use crate::telemetry::{Ids, Phase, Telemetry};
use crate::{CoverageTracker, SignatureLog};
use mtc_analyze::{lint_program, LintAction, LintPolicy, LintReport};
use mtc_gen::{generate, generate_suite, TestConfig};
use mtc_graph::{
    check_conventional, even_chunk_lengths, Certificate, CheckOptions, CheckStats,
    CollectiveChecker, CollectiveOutcome, CollectiveStats, TestGraphSpec, Violation,
};
use mtc_instr::{
    analyze, CodeSize, CodeSizeModel, EncodeError, ExecutionSignature, IntrusivenessReport,
    SignatureSchema, SourcePruning,
};
use mtc_isa::Program;
use mtc_sim::{SimError, Simulator, SystemConfig};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Mutex;

/// Everything a validation campaign needs to run.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Test-generation parameters (also names the campaign).
    pub test: TestConfig,
    /// The simulated platform under validation.
    pub system: SystemConfig,
    /// Loop iterations per test (65 536 in the paper's native runs; scale
    /// down for simulation-speed studies, as the paper itself does for
    /// gem5).
    pub iterations: u64,
    /// Distinct tests to generate (10 per configuration in §5).
    pub tests: u64,
    /// Static candidate pruning (§8 extension).
    pub pruning: SourcePruning,
    /// Constraint-graph options.
    pub check: CheckOptions,
    /// Also run the conventional per-graph checker for comparison
    /// (Figure 9's baseline).
    pub compare_conventional: bool,
    /// Use the split-window collective checker (the beyond-the-paper
    /// optimization; see `mtc_graph::CollectiveChecker::with_split_windows`)
    /// instead of the paper-faithful single window.
    pub split_windows: bool,
    /// Run the configuration's tests on parallel host threads. Each test's
    /// simulation and checking are independent; results are identical to a
    /// sequential run.
    pub parallel: bool,
    /// Iteration shards per test (and the worker-pool width used to execute
    /// them). The shard plan is part of the logical computation: each shard
    /// starts from a fresh clone of the instrumented simulator, so the
    /// result for a given `workers` value is identical whether the shards
    /// run threaded ([`Campaign::run`]) or serially
    /// ([`Campaign::run_serial`]). `1` (the default) is the paper-faithful
    /// single warm simulator loop.
    pub workers: usize,
    /// Check collective chunks in parallel (one complete re-seeding sort
    /// per chunk). Verdicts are unchanged; [`CollectiveStats`] legitimately
    /// records more complete sorts, so this is opt-in and independent of
    /// the `workers` equivalence guarantee.
    pub chunked_check: bool,
    /// Static lint gating (§8 extension): when set, every generated test is
    /// linted *before* instrumentation or simulation and handled per the
    /// policy's [`LintAction`]. `None` (the default) skips linting entirely.
    pub lint: Option<LintPolicy>,
    /// Supervisor retry policy: how often a crashing, corrupting, or
    /// over-budget test is re-attempted (under deterministic seed
    /// perturbation with exponential backoff) before quarantine. The
    /// default is a single attempt — fail-fast into quarantine.
    pub retry: RetryPolicy,
    /// Memory budget for each test's unique-signature set. Bounded budgets
    /// dedup in a capped buffer and spill sorted runs to disk; the merged
    /// result — and every downstream verdict, stat, and journal record —
    /// is bit-identical to the unbounded run's (see
    /// [`crate::SignatureStore`]). A host-resource policy, not part of the
    /// campaign's logical identity: journals resume across budget changes.
    pub memory: MemoryBudget,
    /// Write every checked unique signature's verdict certificate —
    /// topological-order witness for PASS, cycle for FAIL — to this binary
    /// sidecar file, for independent re-validation by `mtracecheck verify`
    /// (see [`crate::read_certificates`]). `None` (the default) keeps the
    /// checker's witness capture off the artifact path entirely; verdicts
    /// and reports are identical either way.
    pub certificates: Option<PathBuf>,
    /// Cross-campaign verdict cache file: signatures checked by a previous
    /// run under the same schema and checker context are counted as hits,
    /// and a test whose whole signature sequence was already checked skips
    /// its check phase, replaying the memoized stats and violations into a
    /// byte-identical report. `None` (the default) disables caching.
    pub verdict_cache: Option<PathBuf>,
    /// Deterministic fault-injection plan for supervisor tests (only with
    /// the `fault-inject` feature; see [`FaultPlan`]).
    #[cfg(feature = "fault-inject")]
    pub faults: FaultPlan,
    /// Deterministic disk-fault plan for durability tests (only with the
    /// `fault-inject` feature; see [`crate::durable::DiskFaultPlan`]).
    #[cfg(feature = "fault-inject")]
    pub disk_faults: crate::durable::DiskFaultPlan,
}

impl CampaignConfig {
    /// A campaign with the paper's §5 defaults on the platform matching the
    /// test's ISA, scaled to `iterations`.
    pub fn new(test: TestConfig, iterations: u64) -> Self {
        let system = match test.isa {
            mtc_isa::IsaKind::X86 => SystemConfig::x86_desktop(),
            mtc_isa::IsaKind::Arm => SystemConfig::arm_soc(),
        }
        .with_mcm(test.mcm);
        CampaignConfig {
            test,
            system,
            iterations,
            tests: 10,
            pruning: SourcePruning::none(),
            check: CheckOptions::default(),
            compare_conventional: false,
            split_windows: false,
            parallel: false,
            workers: 1,
            chunked_check: false,
            lint: None,
            retry: RetryPolicy::default(),
            memory: MemoryBudget::Unbounded,
            certificates: None,
            verdict_cache: None,
            #[cfg(feature = "fault-inject")]
            faults: FaultPlan::default(),
            #[cfg(feature = "fault-inject")]
            disk_faults: crate::durable::DiskFaultPlan::default(),
        }
    }

    /// Returns the configuration with a different simulated system.
    pub fn with_system(mut self, system: SystemConfig) -> Self {
        self.system = system;
        self
    }

    /// Returns the configuration with `tests` generated tests.
    pub fn with_tests(mut self, tests: u64) -> Self {
        self.tests = tests;
        self
    }

    /// Returns the configuration with conventional-checker comparison
    /// enabled.
    pub fn with_conventional_comparison(mut self) -> Self {
        self.compare_conventional = true;
        self
    }

    /// Returns the configuration with static candidate pruning (§8).
    pub fn with_pruning(mut self, pruning: SourcePruning) -> Self {
        self.pruning = pruning;
        self
    }

    /// Returns the configuration using split-window collective checking.
    pub fn with_split_windows(mut self) -> Self {
        self.split_windows = true;
        self
    }

    /// Returns the configuration running its tests on parallel host
    /// threads.
    pub fn with_parallel(mut self) -> Self {
        self.parallel = true;
        self
    }

    /// Returns the configuration sharding each test's iterations across
    /// `workers` pool workers. `0` resolves to the host's available
    /// parallelism *now*, so the stored configuration is concrete and the
    /// run reproducible. See [`CampaignConfig::workers`] for the
    /// equivalence contract.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = crate::pool::resolve_workers(workers);
        self
    }

    /// Returns the configuration checking collective chunks in parallel
    /// (see [`CampaignConfig::chunked_check`]).
    pub fn with_chunked_checking(mut self) -> Self {
        self.chunked_check = true;
        self
    }

    /// Returns the configuration linting every generated test before any
    /// cycle is simulated, handling gated tests per `policy`. Composes with
    /// [`CampaignConfig::with_workers`]: the lint gate runs once, up front,
    /// on the generation order, so the surviving suite — and therefore every
    /// downstream verdict — is identical for any worker count.
    pub fn with_lint(mut self, policy: LintPolicy) -> Self {
        self.lint = Some(policy);
        self
    }

    /// Returns the configuration with a supervisor retry policy. Attempt 1
    /// always runs unperturbed, so a healthy test's verdict is identical
    /// with or without retries configured.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Returns the configuration with a deterministic fault-injection plan
    /// (supervisor test harness; `fault-inject` feature only).
    #[cfg(feature = "fault-inject")]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Returns the configuration with a deterministic disk-fault plan
    /// (durability test harness; `fault-inject` feature only).
    #[cfg(feature = "fault-inject")]
    pub fn with_disk_faults(mut self, disk_faults: crate::durable::DiskFaultPlan) -> Self {
        self.disk_faults = disk_faults;
        self
    }

    /// Returns the configuration capping each test's resident
    /// unique-signature buffer at roughly `bytes`, spilling sorted runs
    /// into `spill_dir` beyond it. Workers block on the shared store while
    /// a run spills (backpressure), and the merged signature stream — hence
    /// every verdict — is bit-identical to the unbounded run's.
    pub fn with_memory_budget(mut self, bytes: u64, spill_dir: impl Into<PathBuf>) -> Self {
        self.memory = MemoryBudget::Bounded {
            bytes,
            spill_dir: spill_dir.into(),
        };
        self
    }

    /// Returns the configuration writing verdict certificates to a binary
    /// sidecar file (see [`CampaignConfig::certificates`]).
    pub fn with_certificates(mut self, path: impl Into<PathBuf>) -> Self {
        self.certificates = Some(path.into());
        self
    }

    /// Returns the configuration reusing (and extending) a cross-campaign
    /// verdict cache (see [`CampaignConfig::verdict_cache`]).
    pub fn with_verdict_cache(mut self, path: impl Into<PathBuf>) -> Self {
        self.verdict_cache = Some(path.into());
        self
    }

    /// The host-thread budget for per-test fan-out in [`Campaign::run`]:
    /// the explicit worker count when one was configured, otherwise the
    /// host's available parallelism.
    fn test_pool_threads(&self) -> usize {
        if !self.parallel {
            return 1;
        }
        if self.workers > 1 {
            self.workers
        } else {
            crate::pool::resolve_workers(0)
        }
    }
}

/// Merges per-worker signature multisets into one, summing the counts of
/// signatures seen by several workers.
///
/// This is the reduction step of the sharded collection pipeline
/// ([`Campaign::collect`]): each iteration shard accumulates its own
/// `signature -> occurrences` map, and the merge is associative and
/// commutative with the empty map as identity, so any shard grouping yields
/// the same total multiset.
pub fn merge_signature_maps<I>(maps: I) -> BTreeMap<ExecutionSignature, u64>
where
    I: IntoIterator<Item = BTreeMap<ExecutionSignature, u64>>,
{
    let mut merged = BTreeMap::new();
    for map in maps {
        for (sig, count) in map {
            *merged.entry(sig).or_insert(0) += count;
        }
    }
    merged
}

/// Device-side cycle breakdown per test — the Figure 10 components.
#[derive(Copy, Clone, Debug, Default, Eq, PartialEq, Serialize, Deserialize)]
pub struct TimingBreakdown {
    /// Cycles of the original test across all iterations (including the
    /// per-iteration synchronization barrier and memory re-initialization).
    pub test_cycles: u64,
    /// Cycles of signature computation (instrumented branch chains +
    /// signature stores).
    pub signature_cycles: u64,
    /// Cycles of on-device signature sorting (balanced-tree insertion of
    /// each iteration's signature).
    pub sort_cycles: u64,
}

impl TimingBreakdown {
    /// Signature computation as a fraction of original test time.
    pub fn signature_overhead(&self) -> f64 {
        if self.test_cycles == 0 {
            return 0.0;
        }
        self.signature_cycles as f64 / self.test_cycles as f64
    }

    /// Signature sorting as a fraction of original test time.
    pub fn sort_overhead(&self) -> f64 {
        if self.test_cycles == 0 {
            return 0.0;
        }
        self.sort_cycles as f64 / self.test_cycles as f64
    }
}

/// A consistency violation found by a campaign, with the signature that
/// exposed it and how often that signature occurred.
#[derive(Clone, Debug, Eq, PartialEq, Serialize, Deserialize)]
pub struct ViolationRecord {
    /// The violating execution's signature.
    pub signature: ExecutionSignature,
    /// Times the signature was observed.
    pub occurrences: u64,
    /// The dependency cycle (empty when the violation was caught by the
    /// instrumented assertion before graph checking).
    pub violation: Option<Violation>,
    /// The decoded reads-from observation, for diagnostics
    /// ([`mtc_graph::explain_violation`]).
    pub reads_from: mtc_isa::ReadsFrom,
}

/// Results of validating one test program.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct TestReport {
    /// Suite index of the test (0 for a standalone
    /// [`Campaign::check_log`] invocation).
    pub index: u64,
    /// Supervisor attempts this verdict took (1 = clean first try; higher
    /// means earlier attempts failed and were retried — see
    /// [`TestReport::retry_failures`]).
    pub attempts: u32,
    /// Failure history of the attempts *before* the one that produced this
    /// verdict (empty for a clean first try).
    pub retry_failures: Vec<AttemptFailure>,
    /// Iterations executed.
    pub iterations: u64,
    /// Iterations that crashed the platform (injected bug 3).
    pub crashes: u64,
    /// Iterations whose observed value failed the instrumented assertion
    /// (impossible value; caught without any graph checking).
    pub assertion_failures: u64,
    /// Unique execution signatures observed — the Figure 8 metric.
    pub unique_signatures: usize,
    /// Violations, one record per violating unique signature.
    pub violations: Vec<ViolationRecord>,
    /// Collective-checker breakdown (Figures 9 and 14).
    pub collective: CollectiveStats,
    /// Conventional-checker counters, when comparison was enabled.
    pub conventional: Option<CheckStats>,
    /// Device-side timing (Figure 10).
    pub timing: TimingBreakdown,
    /// Memory-traffic intrusiveness (Figure 11).
    pub intrusiveness: IntrusivenessReport,
    /// Code-size comparison (Figure 12).
    pub code_size: CodeSize,
    /// Execution-signature size in bytes (annotated inside Figure 11's
    /// bars).
    pub signature_bytes: usize,
    /// Discovery curve and saturation estimate (§6.1).
    pub coverage: crate::CoverageCurve,
    /// Static lint report, when the campaign ran with
    /// [`CampaignConfig::with_lint`].
    pub lint: Option<LintReport>,
}

impl TestReport {
    /// Returns `true` when the test exposed no violation, assertion
    /// failure, or crash.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.assertion_failures == 0 && self.crashes == 0
    }

    /// Collective-vs-conventional work ratio, when comparison was enabled.
    pub fn checking_work_ratio(&self) -> Option<f64> {
        let conventional = self.conventional.as_ref()?;
        if conventional.work == 0 {
            return None;
        }
        Some(self.collective.work as f64 / conventional.work as f64)
    }
}

/// Aggregate spill statistics across a campaign's tests, for the report
/// and the journal footer.
///
/// Host-resource observability only: under parallel collection the shard
/// interleaving decides when the resident buffer fills, so these numbers
/// legitimately vary across worker counts while every verdict stays
/// bit-identical. They are therefore excluded from [`ConfigReport`]
/// equality.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpillSummary {
    /// Tests whose collection spilled at least one run.
    pub tests_spilled: u64,
    /// Sorted runs written to disk across all tests.
    pub runs_spilled: u64,
    /// Entries written across all runs (pre-merge).
    pub entries_spilled: u64,
    /// Bytes written across all runs.
    pub bytes_spilled: u64,
    /// Largest per-test peak of resident unique signatures.
    pub peak_resident: u64,
    /// Largest per-test k-way merge fan-in (runs + resident remainder).
    pub merge_fan_in: u64,
}

impl SpillSummary {
    /// Folds one test's spill statistics into the campaign aggregate.
    pub fn absorb(&mut self, stats: &SpillStats) {
        if stats.runs_spilled > 0 {
            self.tests_spilled += 1;
        }
        self.runs_spilled += stats.runs_spilled;
        self.entries_spilled += stats.entries_spilled;
        self.bytes_spilled += stats.bytes_spilled;
        self.peak_resident = self.peak_resident.max(stats.peak_resident);
        self.merge_fan_in = self.merge_fan_in.max(stats.merge_fan_in);
    }
}

/// Post-run profile summary, populated when the campaign ran with
/// telemetry enabled ([`Campaign::with_telemetry`]). Wall-clock data, so —
/// like [`SpillSummary`] — excluded from report equality.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CampaignProfile {
    /// Campaign wall time, microseconds.
    pub wall_us: u64,
    /// Per-phase totals (phases with at least one observation), in
    /// pipeline order.
    pub phases: Vec<PhaseProfile>,
    /// The slowest freshly-executed tests, slowest first (top 5).
    pub slowest_tests: Vec<TestTiming>,
}

/// One phase's aggregate in a [`CampaignProfile`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PhaseProfile {
    /// Phase name (see [`Phase::name`]).
    pub phase: String,
    /// Observations recorded.
    pub count: u64,
    /// Total time across observations, microseconds.
    pub total_us: u64,
}

/// Wall time of one freshly-executed test (all supervised attempts).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct TestTiming {
    /// Suite index.
    pub index: u64,
    /// Wall time, microseconds.
    pub elapsed_us: u64,
}

/// Aggregated results over all tests of one configuration.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ConfigReport {
    /// The configuration's paper-style name.
    pub name: String,
    /// Per-test reports of the tests that produced verdicts, in suite
    /// order (each carries its [`TestReport::index`]; quarantined suite
    /// slots are absent here and listed in
    /// [`ConfigReport::quarantined`]).
    pub tests: Vec<TestReport>,
    /// Tests dropped by the lint gate before simulation (filtered outright,
    /// or regenerated past the attempt budget without coming clean).
    pub lint_pruned: u64,
    /// Gated tests successfully replaced by a clean regeneration.
    pub lint_regenerated: u64,
    /// Tests the supervisor gave up on, with their failure histories. A
    /// non-empty quarantine means the run is degraded: the campaign
    /// completed, but its verdicts are partial.
    pub quarantined: Vec<QuarantineRecord>,
    /// Tests replayed from a campaign journal instead of executed
    /// ([`Campaign::run_with_journal`] resume).
    pub resumed_tests: u64,
    /// The campaign journal lost at least one record (I/O failure); a
    /// resume will re-run the unrecorded tests.
    pub journal_degraded: bool,
    /// Aggregate spill statistics (host-resource observability; excluded
    /// from equality — see [`SpillSummary`]).
    #[serde(skip)]
    pub spill: SpillSummary,
    /// Post-run profile, when the campaign ran with telemetry enabled
    /// (wall-clock observability; excluded from equality).
    #[serde(skip)]
    pub profile: Option<CampaignProfile>,
    /// Verdict-cache counters, when the campaign ran with
    /// [`CampaignConfig::verdict_cache`]. Cache observability only —
    /// excluded from equality and from the report's display, so a
    /// cache-served run's report is byte-identical to a cold run's.
    #[serde(skip)]
    pub cache: CacheSummary,
}

/// Equality covers the campaign's *logical* results only — verdicts,
/// counts, lint/quarantine/journal bookkeeping. The observability fields
/// ([`ConfigReport::spill`], [`ConfigReport::profile`]) describe
/// host-resource behaviour that varies across worker counts and wall
/// clocks, and are deliberately excluded; this is what lets the telemetry
/// equivalence suite assert `traced_report == plain_report`.
impl PartialEq for ConfigReport {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.tests == other.tests
            && self.lint_pruned == other.lint_pruned
            && self.lint_regenerated == other.lint_regenerated
            && self.quarantined == other.quarantined
            && self.resumed_tests == other.resumed_tests
            && self.journal_degraded == other.journal_degraded
    }
}

impl ConfigReport {
    /// Returns `true` when the run completed with partial verdicts — some
    /// tests quarantined or the journal incomplete. A degraded run's
    /// existing verdicts are still exact; coverage, not soundness, is what
    /// suffered.
    pub fn is_degraded(&self) -> bool {
        !self.quarantined.is_empty() || self.journal_degraded
    }

    /// Mean unique signatures per test.
    pub fn mean_unique_signatures(&self) -> f64 {
        if self.tests.is_empty() {
            return 0.0;
        }
        self.tests
            .iter()
            .map(|t| t.unique_signatures as f64)
            .sum::<f64>()
            / self.tests.len() as f64
    }

    /// Tests that found at least one violation, assertion failure or crash.
    pub fn failing_tests(&self) -> usize {
        self.tests.iter().filter(|t| !t.is_clean()).count()
    }

    /// Total violating unique signatures across tests.
    pub fn total_violations(&self) -> usize {
        self.tests.iter().map(|t| t.violations.len()).sum()
    }

    /// Mean signature-computation overhead over tests.
    pub fn mean_signature_overhead(&self) -> f64 {
        if self.tests.is_empty() {
            return 0.0;
        }
        self.tests
            .iter()
            .map(|t| t.timing.signature_overhead())
            .sum::<f64>()
            / self.tests.len() as f64
    }
}

/// The campaign-wide certificate artifacts, built once per run and shared
/// by every worker (both are internally synchronized).
#[derive(Debug, Default)]
struct RunArtifacts {
    sink: Option<CertificateSink>,
    cache: Option<VerdictCache>,
}

impl RunArtifacts {
    /// Opens the artifacts a configuration asks for. An unreadable cache
    /// file degrades to a cold cache (logged) rather than aborting the
    /// campaign: verdicts never depend on the cache being present.
    fn prepare(config: &CampaignConfig) -> Self {
        let sink = config.certificates.clone().map(CertificateSink::new);
        let cache = config.verdict_cache.clone().map(|path| {
            VerdictCache::open(path.clone()).unwrap_or_else(|e| {
                crate::telemetry::logger::warn(format_args!(
                    "warning: ignoring unreadable verdict cache {}: {e}",
                    path.display()
                ));
                VerdictCache::empty(path)
            })
        });
        RunArtifacts { sink, cache }
    }

    fn context(&self, test_index: u64) -> Option<CheckContext<'_>> {
        if self.sink.is_none() && self.cache.is_none() {
            return None;
        }
        Some(CheckContext {
            test_index,
            sink: self.sink.as_ref(),
            cache: self.cache.as_ref(),
        })
    }
}

/// Borrowed view of the artifacts for one test's check phase.
#[derive(Copy, Clone, Debug)]
struct CheckContext<'a> {
    test_index: u64,
    sink: Option<&'a CertificateSink>,
    cache: Option<&'a VerdictCache>,
}

/// One full validation campaign.
#[derive(Clone, Debug)]
pub struct Campaign {
    config: CampaignConfig,
    telemetry: Telemetry,
}

impl Campaign {
    /// Creates a campaign (telemetry disabled).
    pub fn new(config: CampaignConfig) -> Self {
        Campaign {
            config,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Returns the campaign with observability sinks attached. Telemetry
    /// is provably inert: reports, journals, and every Figure-14 stat are
    /// byte-identical with or without it (see [`crate::telemetry`]).
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The campaign's telemetry handle (disabled unless
    /// [`Campaign::with_telemetry`] attached one).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The campaign configuration.
    pub fn config(&self) -> &CampaignConfig {
        &self.config
    }

    /// Generates the configured number of tests and validates each,
    /// mirroring the paper's per-configuration runs.
    ///
    /// With [`CampaignConfig::with_parallel`] the tests fan out over a
    /// bounded worker pool (never more threads than tests, and sized by
    /// [`CampaignConfig::with_workers`] or the host's available
    /// parallelism); within each test, iterations shard across the same
    /// worker budget. The report equals [`Campaign::run_serial`]'s output
    /// field for field.
    pub fn run(&self) -> ConfigReport {
        self.run_impl(true)
    }

    /// Runs the identical campaign — same shard plan, same seeds — entirely
    /// on the calling thread. This is the reference side of the
    /// determinism-equivalence contract: for any configuration,
    /// `run() == run_serial()`.
    pub fn run_serial(&self) -> ConfigReport {
        self.run_impl(false)
    }

    fn run_impl(&self, threaded: bool) -> ConfigReport {
        self.run_supervised(threaded, None)
    }

    /// Runs the campaign with a durable checkpoint journal: every completed
    /// test (validated or quarantined) is appended to the journal as it
    /// finishes, and suite indices already present in the journal — a
    /// resumed run — are replayed verbatim without simulating a single
    /// iteration. An interrupted-then-resumed campaign's final report
    /// equals an uninterrupted run's.
    pub fn run_with_journal(&self, journal: &CampaignJournal) -> ConfigReport {
        self.run_supervised(true, Some(journal))
    }

    /// Validates only suite slots `range`, generating each slot's program
    /// from the campaign seed exactly as the full suite would — the shard
    /// primitive the campaign service's workers execute. Verdicts are
    /// bit-identical to the corresponding slots of a full run: generation
    /// is per-slot deterministic (`seed + index`) and the supervisor's
    /// attempt loop is self-contained per slot.
    ///
    /// Callers must not configure a lint policy: linting is a whole-suite
    /// pass (regeneration seeds depend on which slots were pruned), so a
    /// shard cannot reproduce it locally. Service jobs never set one.
    pub(crate) fn run_slots(
        &self,
        range: std::ops::Range<u64>,
    ) -> Vec<(u64, Result<TestReport, QuarantineRecord>)> {
        assert!(
            self.config.lint.is_none(),
            "run_slots cannot reproduce whole-suite lint gating"
        );
        let artifacts = RunArtifacts::prepare(&self.config);
        range
            .map(|index| {
                let config = self
                    .config
                    .test
                    .clone()
                    .with_seed(self.config.test.seed.wrapping_add(index));
                let program = generate(&config);
                let (outcome, _diag) =
                    self.run_test_supervised(index, &program, None, true, &artifacts);
                (index, outcome)
            })
            .collect()
    }

    fn run_supervised(&self, threaded: bool, journal: Option<&CampaignJournal>) -> ConfigReport {
        let mut root = self.telemetry.scope(Ids::none());
        // Corrupt journal lines were already skipped during replay; surface
        // them here so a damaged journal is loud (stderr + counter), never a
        // silently shorter resume.
        if let Some(skipped) = journal
            .map(CampaignJournal::skipped_lines)
            .filter(|&n| n > 0)
        {
            crate::telemetry::logger::warn(format_args!(
                "journal: skipped {skipped} corrupt line(s) during replay; affected tests run \
                 again (audit with `mtracecheck fsck`)"
            ));
            root.count("journal_skipped_lines", skipped);
        }
        let wall_started = root.start();
        let generate_started = root.start();
        let programs = generate_suite(&self.config.test, self.config.tests);
        root.span(
            Phase::Generate,
            generate_started,
            &[("tests", programs.len() as u64)],
        );
        let lint_started = root.start();
        let suite = self.lint_gate(programs);
        root.span(
            Phase::Lint,
            lint_started,
            &[
                ("kept", suite.programs.len() as u64),
                ("pruned", suite.pruned),
                ("regenerated", suite.regenerated),
            ],
        );
        drop(root);
        self.telemetry
            .progress_tests_total(suite.programs.len() as u64);
        let threads = if threaded {
            self.config.test_pool_threads()
        } else {
            1
        };
        let artifacts = RunArtifacts::prepare(&self.config);
        let items: Vec<(usize, &Program, Option<LintReport>)> = suite
            .programs
            .iter()
            .zip(suite.reports)
            .enumerate()
            .map(|(i, (program, lint))| (i, program, lint))
            .collect();
        let outcomes = crate::pool::bounded_try_map(items, threads, |_, (i, program, lint)| {
            let index = i as u64;
            if let Some(entry) = journal.and_then(|j| j.replay_entry(index)) {
                return SupervisedOutcome::Replayed(entry.clone());
            }
            let (outcome, diag) =
                self.run_test_supervised(index, program, lint, threaded, &artifacts);
            if let Some(j) = journal {
                match &outcome {
                    Ok(report) => self.journal_test(j, index, report),
                    Err(record) => self.journal_quarantine(j, record),
                }
            }
            SupervisedOutcome::Fresh {
                result: outcome.map(Box::new),
                diag,
            }
        });

        let mut report = ConfigReport {
            name: self.config.test.name(),
            lint_pruned: suite.pruned,
            lint_regenerated: suite.regenerated,
            ..ConfigReport::default()
        };
        let mut timings: Vec<TestTiming> = Vec::new();
        for (index, outcome) in outcomes.into_iter().enumerate() {
            match outcome {
                Ok(SupervisedOutcome::Replayed(ReplayEntry::Test(test))) => {
                    report.resumed_tests += 1;
                    report.tests.push(*test);
                }
                Ok(SupervisedOutcome::Replayed(ReplayEntry::Quarantine(record))) => {
                    report.resumed_tests += 1;
                    report.quarantined.push(record);
                }
                Ok(SupervisedOutcome::Fresh { result, diag }) => {
                    report.spill.absorb(&diag.spill);
                    timings.push(TestTiming {
                        index: index as u64,
                        elapsed_us: diag.elapsed_us,
                    });
                    match result {
                        Ok(test) => report.tests.push(*test),
                        Err(record) => report.quarantined.push(record),
                    }
                }
                // Pool-level backstop: a panic that escaped the supervised
                // attempt loop still costs only its own test slot.
                Err(e) => {
                    let record = QuarantineRecord {
                        index: index as u64,
                        attempts: vec![AttemptFailure {
                            attempt: 0,
                            seed_offset: 0,
                            cause: FailureCause::Panic { payload: e.payload },
                        }],
                    };
                    if let Some(j) = journal {
                        self.journal_quarantine(j, &record);
                    }
                    report.quarantined.push(record);
                }
            }
        }
        if let Some(snapshot) = self.telemetry.snapshot() {
            timings.sort_by(|a, b| b.elapsed_us.cmp(&a.elapsed_us).then(a.index.cmp(&b.index)));
            timings.truncate(5);
            report.profile = Some(CampaignProfile {
                wall_us: wall_started.map_or(0, |w| w.elapsed().as_micros() as u64),
                phases: snapshot
                    .phases
                    .iter()
                    .filter(|p| p.count > 0)
                    .map(|p| PhaseProfile {
                        phase: p.phase.to_owned(),
                        count: p.count,
                        total_us: p.sum_us,
                    })
                    .collect(),
                slowest_tests: timings,
            });
        }
        // Persist the certificate artifacts before the journal footer so
        // the footer's cache counters describe a saved cache. Artifact I/O
        // failures degrade (logged), never abort: the report's verdicts
        // were computed either way.
        if let Some(sink) = &artifacts.sink {
            if let Err(e) = sink.save() {
                crate::telemetry::logger::warn(format_args!(
                    "warning: could not write certificate sidecar: {e}"
                ));
            }
        }
        if let Some(cache) = &artifacts.cache {
            report.cache = cache.summary();
            if let Err(e) = cache.save() {
                crate::telemetry::logger::warn(format_args!(
                    "warning: could not write verdict cache: {e}"
                ));
            }
        }
        // Compact the journal into its canonical suite-order checkpoint
        // (temp file + fsync + atomic rename, so a kill mid-checkpoint can
        // never truncate the journal). Failures degrade, never abort.
        if let Some(j) = journal {
            let footer = JournalFooter {
                tests: report.tests.len() as u64,
                quarantined: report.quarantined.len() as u64,
                spill: report.spill.clone(),
                cache: report.cache,
            };
            j.finalize_or_degrade(Some(&footer));
        }
        report.journal_degraded = journal.is_some_and(CampaignJournal::is_degraded);
        report
    }

    /// Validates one suite slot under the supervisor: bounded attempts with
    /// deterministic seed perturbation and exponential backoff, classifying
    /// every failure, until a verdict lands or the retry budget runs out.
    /// Attempt 1 always runs with a zero seed offset, so a healthy test's
    /// verdict is bit-identical to an unsupervised run's.
    ///
    /// The second return value carries per-test observability (wall time,
    /// spill statistics) the campaign aggregates outside the verdict.
    fn run_test_supervised(
        &self,
        index: u64,
        program: &Program,
        lint: Option<LintReport>,
        threaded: bool,
        artifacts: &RunArtifacts,
    ) -> (Result<TestReport, QuarantineRecord>, TestDiagnostics) {
        let policy = self.config.retry;
        let mut failures: Vec<AttemptFailure> = Vec::new();
        let mut diag = TestDiagnostics::default();
        let max_attempts = policy.max_attempts.max(1);
        for attempt in 1..=max_attempts {
            // Shared deterministic backoff: the same jitter implementation
            // the campaign service uses, keyed by suite index so parallel
            // retries across the pool spread out instead of thundering.
            let backoff = policy.jittered_backoff(attempt, index);
            if !backoff.is_zero() {
                std::thread::sleep(backoff);
            }
            let seed_offset = attempt_seed_offset(attempt);
            let ids = Ids::test(index, attempt);
            let mut scope = self.telemetry.scope(ids);
            let attempt_span = scope.start();
            let started = std::time::Instant::now();
            let mut attempt_spill = SpillStats::default();
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                #[cfg(feature = "fault-inject")]
                self.config.faults.on_attempt(index, attempt);
                #[cfg(feature = "fault-inject")]
                let fail_spill = self.config.faults.breaks_spill(index, attempt);
                #[cfg(not(feature = "fault-inject"))]
                let fail_spill = false;
                let (log, spill) = self
                    .collect_impl(program, threaded, seed_offset, fail_spill, ids)
                    .map_err(AttemptError::Spill)?;
                attempt_spill = spill;
                self.check_log_impl(&log, threaded, ids, artifacts.context(index))
                    .map_err(AttemptError::Check)
            }));
            let elapsed = started.elapsed();
            diag.elapsed_us += elapsed.as_micros() as u64;
            scope.span(Phase::Attempt, attempt_span, &[]);
            let cause = match outcome {
                Err(payload) => FailureCause::Panic {
                    payload: crate::pool::panic_message(payload.as_ref()),
                },
                Ok(Err(AttemptError::Spill(e))) if e.is_disk_full() => FailureCause::DiskFull {
                    error: e.to_string(),
                },
                Ok(Err(AttemptError::Spill(e))) => FailureCause::SpillIo {
                    error: e.to_string(),
                },
                Ok(Err(AttemptError::Check(CheckLogError::Decode {
                    signature_index,
                    source,
                }))) => FailureCause::Decode {
                    signature_index,
                    error: source.to_string(),
                },
                // A panicking chunk checker is contained by the check's
                // worker pool and classified like any other worker panic:
                // retried, then quarantined.
                Ok(Err(AttemptError::Check(CheckLogError::CheckerPanic { payload }))) => {
                    FailureCause::Panic { payload }
                }
                Ok(Ok(mut report)) => match policy.time_budget {
                    Some(budget) if elapsed > budget => FailureCause::Timeout {
                        elapsed_ms: elapsed.as_millis() as u64,
                        budget_ms: budget.as_millis() as u64,
                    },
                    _ => {
                        report.index = index;
                        report.attempts = attempt;
                        report.retry_failures = std::mem::take(&mut failures);
                        report.lint = lint;
                        diag.spill = attempt_spill;
                        drop(scope);
                        self.telemetry
                            .progress_test_done(report.unique_signatures as u64);
                        return (Ok(report), diag);
                    }
                },
            };
            let cause_text = cause.to_string();
            if attempt < max_attempts {
                scope.event("retry", &[], &[("cause", &cause_text)]);
                scope.count("retries", 1);
                drop(scope);
                self.telemetry.progress_retry();
            } else {
                scope.event("quarantine", &[], &[("cause", &cause_text)]);
                scope.count("quarantines", 1);
                drop(scope);
                self.telemetry.progress_quarantine();
            }
            failures.push(AttemptFailure {
                attempt,
                seed_offset,
                cause,
            });
        }
        (
            Err(QuarantineRecord {
                index,
                attempts: failures,
            }),
            diag,
        )
    }

    /// Journals a validated test — or, under an injected journal fault,
    /// drops the record and degrades the journal, as a real I/O error
    /// would.
    fn journal_test(&self, journal: &CampaignJournal, index: u64, report: &TestReport) {
        #[cfg(feature = "fault-inject")]
        if self.config.faults.breaks_journal(index) {
            journal.mark_degraded(&format!("injected journal I/O error at test {index}"));
            return;
        }
        journal.record_test(index, report);
    }

    /// Journals a quarantined test; see [`Campaign::journal_test`].
    fn journal_quarantine(&self, journal: &CampaignJournal, record: &QuarantineRecord) {
        #[cfg(feature = "fault-inject")]
        if self.config.faults.breaks_journal(record.index) {
            journal.mark_degraded(&format!(
                "injected journal I/O error at test {}",
                record.index
            ));
            return;
        }
        journal.record_quarantine(record);
    }

    /// Applies the configured [`LintPolicy`] to the freshly generated suite,
    /// before any instrumentation or simulation.
    ///
    /// The gate is a pure function of the generated programs and the policy:
    /// it runs on the calling thread in generation order, so the surviving
    /// suite is the same whether the campaign itself then runs threaded or
    /// serially. Regeneration attempt `a` for suite slot `i` reuses the
    /// campaign's seed-perturbation constant on a per-slot offset, keeping
    /// replacement seeds disjoint from the original suite's
    /// `seed + i` sequence.
    fn lint_gate(&self, programs: Vec<Program>) -> LintedSuite {
        let Some(mut policy) = self.config.lint else {
            let reports = vec![None; programs.len()];
            return LintedSuite {
                programs,
                reports,
                pruned: 0,
                regenerated: 0,
            };
        };
        // A campaign that declared a memory budget lints against it too, so
        // footprint warnings surface before a single cycle is simulated.
        if policy.mem_budget_bytes.is_none() {
            if let MemoryBudget::Bounded { bytes, .. } = &self.config.memory {
                policy = policy.with_mem_budget(*bytes);
            }
        }
        let options = policy.options_for(&self.config.test, self.config.pruning);
        let base = self.config.test.name();
        let mut suite = LintedSuite {
            programs: Vec::new(),
            reports: Vec::new(),
            pruned: 0,
            regenerated: 0,
        };
        for (i, program) in programs.into_iter().enumerate() {
            let named = options.clone().with_name(format!("{base}#{i}"));
            let report = lint_program(&program, &named);
            if policy.admits(&report) {
                suite.programs.push(program);
                suite.reports.push(Some(report));
                continue;
            }
            match policy.action {
                LintAction::Report => {
                    suite.programs.push(program);
                    suite.reports.push(Some(report));
                }
                LintAction::Filter => suite.pruned += 1,
                LintAction::Regenerate { max_attempts } => {
                    let mut replaced = false;
                    for attempt in 1..=max_attempts {
                        let seed =
                            self.config.test.seed.wrapping_add(i as u64).wrapping_add(
                                u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                            );
                        let candidate = generate(&self.config.test.clone().with_seed(seed));
                        let renamed = named.clone().with_name(format!("{base}#{i}.r{attempt}"));
                        let report = lint_program(&candidate, &renamed);
                        if policy.admits(&report) {
                            suite.programs.push(candidate);
                            suite.reports.push(Some(report));
                            suite.regenerated += 1;
                            replaced = true;
                            break;
                        }
                    }
                    if !replaced {
                        suite.pruned += 1;
                    }
                }
            }
        }
        suite
    }

    /// Validates one (externally supplied) test program end to end —
    /// device-side collection followed by host-side checking.
    pub fn run_test(&self, program: &Program) -> TestReport {
        // Collect and check share the schema built from the same program,
        // so the decode error surfaced by `check_log` is unreachable here.
        self.check_log(&self.collect(program))
            .expect("logs produced by collect decode under the same schema")
    }

    /// Single-threaded variant of [`Campaign::run_test`]; executes the same
    /// shard plan serially and returns an identical report.
    pub fn run_test_serial(&self, program: &Program) -> TestReport {
        self.check_log_impl(&self.collect_serial(program), false, Ids::test(0, 1), None)
            .expect("logs produced by collect decode under the same schema")
    }

    /// The device side of the pipeline (Figure 1 steps 2–3): instrument the
    /// test, execute it for the configured iterations, and return the
    /// compact signature log a silicon run would ship to the host.
    ///
    /// ```
    /// use mtracecheck::{Campaign, CampaignConfig, TestConfig};
    /// use mtracecheck::isa::IsaKind;
    ///
    /// let campaign = Campaign::new(CampaignConfig::new(
    ///     TestConfig::new(IsaKind::Arm, 2, 15, 8),
    ///     100,
    /// ));
    /// let program = mtracecheck::testgen::generate(&campaign.config().test);
    /// let log = campaign.collect(&program);          // on the device
    /// let report = campaign.check_log(&log).expect("fresh logs decode");
    /// assert!(report.is_clean());
    /// ```
    pub fn collect(&self, program: &Program) -> SignatureLog {
        self.try_collect(program)
            .unwrap_or_else(|e| panic!("signature collection failed: {e}"))
    }

    /// Single-threaded variant of [`Campaign::collect`]: executes the same
    /// iteration shards — fresh simulator clone per shard, identical seed
    /// slices — one after the other on the calling thread, and returns a
    /// log equal to the threaded one field for field.
    pub fn collect_serial(&self, program: &Program) -> SignatureLog {
        self.try_collect_serial(program)
            .unwrap_or_else(|e| panic!("signature collection failed: {e}"))
    }

    /// Fallible form of [`Campaign::collect`] for campaigns with a bounded
    /// [`CampaignConfig::memory`] budget, where spill-file I/O can fail.
    ///
    /// # Errors
    ///
    /// [`SpillError`] when writing or merging a spill run failed. Without a
    /// memory budget no spill happens and the call is infallible.
    pub fn try_collect(&self, program: &Program) -> Result<SignatureLog, SpillError> {
        self.collect_impl(program, true, 0, false, Ids::test(0, 1))
            .map(|(log, _)| log)
    }

    /// Single-threaded variant of [`Campaign::try_collect`].
    ///
    /// # Errors
    ///
    /// [`SpillError`], as for [`Campaign::try_collect`].
    pub fn try_collect_serial(&self, program: &Program) -> Result<SignatureLog, SpillError> {
        self.collect_impl(program, false, 0, false, Ids::test(0, 1))
            .map(|(log, _)| log)
    }

    /// `seed_offset` is the supervisor's deterministic retry perturbation
    /// ([`attempt_seed_offset`]); `0` — the public entry points — is the
    /// unperturbed stream. `fail_spill` makes every spill fail (the
    /// fault-inject harness's synthetic disk failure; always `false` in
    /// production builds). `ids` tag this collection's telemetry; the
    /// returned [`SpillStats`] snapshot the store just before the merge.
    fn collect_impl(
        &self,
        program: &Program,
        threaded: bool,
        seed_offset: u64,
        fail_spill: bool,
        ids: Ids,
    ) -> Result<(SignatureLog, SpillStats), SpillError> {
        let config = &self.config;
        let mut scope = self.telemetry.scope(ids);
        let instrument_started = scope.start();
        let analysis = analyze(program, &config.pruning);
        let schema = SignatureSchema::build(program, &analysis, config.test.isa.register_bits());
        let mut sim = Simulator::new(program, config.system.clone());
        sim.instrument(&schema);
        scope.span(
            Phase::Instrument,
            instrument_started,
            &[("signature_bytes", schema.signature_bytes() as u64)],
        );

        // The shard plan is a pure function of (iterations, workers): each
        // shard runs a contiguous slice of the per-iteration seed sequence
        // on its own clone of the freshly instrumented simulator. With one
        // shard this is exactly the paper-faithful serial loop.
        //
        // All shards dedup into one shared, budget-capped store. The mutex
        // is the backpressure: while one worker spills a sorted run, the
        // others block on their next insert instead of growing the heap.
        let shards = shard_ranges(config.iterations, config.workers);
        let pool_width = if threaded { config.workers } else { 1 };
        let store = {
            #[cfg_attr(not(feature = "fault-inject"), allow(unused_mut))]
            let mut store = SignatureStore::new(&config.memory, schema.signature_bytes());
            #[cfg(feature = "fault-inject")]
            {
                if fail_spill {
                    store.inject_spill_errors();
                }
                store.set_disk_faults(config.disk_faults.clone());
            }
            #[cfg(not(feature = "fault-inject"))]
            let _ = fail_spill;
            Mutex::new(store)
        };
        let runs = crate::pool::bounded_map(shards, pool_width, |shard_index, range| {
            let mut shard_scope = self.telemetry.scope(ids.with_worker(shard_index as u32));
            let simulate_started = shard_scope.start();
            let iterations = range.end - range.start;
            let run = run_shard(
                &sim,
                program,
                &schema,
                config,
                seed_offset,
                shard_index as u32,
                range,
                &store,
                &self.telemetry,
            );
            if let Ok(shard) = &run {
                shard_scope.span(
                    Phase::Simulate,
                    simulate_started,
                    &[
                        ("iterations", iterations),
                        ("encoded", shard.encoded),
                        ("crashes", shard.crashes),
                    ],
                );
            }
            run
        });

        let mut log = SignatureLog {
            program: program.clone(),
            register_bits: config.test.isa.register_bits(),
            pruning: config.pruning,
            iterations: config.iterations,
            crashes: 0,
            assertion_failures: 0,
            timing: TimingBreakdown::default(),
            coverage: crate::CoverageCurve::default(),
            signatures: Vec::new(),
        };
        // Deterministic reduction: counters are additive, and the global
        // stream offset of each shard is its prefix sum in shard order —
        // independent of which thread finished first. A spill failure in
        // any shard fails the whole collection (first shard in shard order
        // wins, deterministically).
        let mut shard_runs = Vec::with_capacity(runs.len());
        let mut prefix = Vec::with_capacity(runs.len());
        let mut total_encoded = 0u64;
        for run in runs {
            let shard = run?;
            log.crashes += shard.crashes;
            log.assertion_failures += shard.assertion_failures;
            log.timing.test_cycles += shard.test_cycles;
            log.timing.signature_cycles += shard.signature_cycles;
            prefix.push(total_encoded);
            total_encoded += shard.encoded;
            shard_runs.push(shard);
        }

        // Merge the store (resident buffer + any spilled runs) into the
        // ascending unique-signature stream. The stream's counts and
        // earliest-occurrence positions are exactly those of the unbounded
        // in-memory map, so everything derived below is budget-invariant.
        let store = store.into_inner().expect("signature store lock");
        let spill_stats = store.stats();
        for run in store.spill_run_log() {
            scope.event(
                "spill",
                &[
                    ("entries", run.entries),
                    ("bytes", run.bytes),
                    ("dur_us", run.dur_us),
                ],
                &[],
            );
            scope.sample_us(Phase::SpillWrite, run.dur_us);
        }
        if spill_stats.runs_spilled > 0 {
            scope.count("spill_runs", spill_stats.runs_spilled);
            self.telemetry.progress_spills(spill_stats.runs_spilled);
        }
        let merge_started = scope.start();
        let mut stream = store.finish()?;
        let mut signatures: Vec<(ExecutionSignature, u64)> = Vec::new();
        let mut first_positions: Vec<u64> = Vec::new();
        let mut singletons = 0u64;
        while let Some(entry) = stream.next_entry()? {
            if entry.count == 1 {
                singletons += 1;
            }
            first_positions.push(prefix[entry.first.shard as usize] + entry.first.pos);
            signatures.push((entry.signature, entry.count));
        }
        drop(stream);
        scope.span(
            Phase::Merge,
            merge_started,
            &[
                ("unique", signatures.len() as u64),
                ("fan_in", spill_stats.merge_fan_in),
            ],
        );

        // Replay the on-device insertion order: position `p` of the
        // concatenated shard streams discovers a new signature exactly when
        // it is some signature's earliest occurrence. This reproduces the
        // discovery curve and the balanced-tree sorting cost (~log2 of the
        // current unique-set size per insertion) without retaining any
        // per-iteration signature.
        first_positions.sort_unstable();
        let mut coverage = CoverageTracker::new();
        let mut sort_comparisons = 0u64;
        let mut discovered = 0usize;
        for p in 0..total_encoded {
            sort_comparisons += (discovered.max(1) as f64).log2().ceil() as u64 + 1;
            let new_signature = first_positions.get(discovered) == Some(&p);
            if new_signature {
                discovered += 1;
            }
            coverage.record(new_signature);
        }
        debug_assert_eq!(discovered, signatures.len());
        let words = schema.total_words() as u64;
        log.timing.sort_cycles = sort_comparisons * (6 + 2 * words);
        log.coverage = coverage.finish(singletons);
        log.signatures = signatures;
        Ok((log, spill_stats))
    }

    /// The host side of the pipeline (Figure 1 step 4): rebuild the
    /// instrumentation schema, decode the unique signatures, and check the
    /// constraint graphs collectively.
    ///
    /// # Errors
    ///
    /// [`CheckLogError`] when a signature in the log fails schema decoding —
    /// a corrupt entry (bit-flipped transfer, truncated record) or a log
    /// that belongs to a different program. The supervisor classifies this
    /// as [`FailureCause::Decode`] and quarantines only the affected test.
    pub fn check_log(&self, log: &SignatureLog) -> Result<TestReport, CheckLogError> {
        self.check_log_impl(log, true, Ids::test(0, 1), None)
    }

    fn check_log_impl(
        &self,
        log: &SignatureLog,
        threaded: bool,
        ids: Ids,
        ctx: Option<CheckContext<'_>>,
    ) -> Result<TestReport, CheckLogError> {
        let config = &self.config;
        let mut scope = self.telemetry.scope(ids);
        let program = &log.program;
        let analysis = analyze(program, &log.pruning);
        let schema = SignatureSchema::build(program, &analysis, log.register_bits);
        let mut report = TestReport {
            attempts: 1,
            iterations: log.iterations,
            crashes: log.crashes,
            assertion_failures: log.assertion_failures,
            timing: log.timing,
            code_size: CodeSizeModel::new(config.test.isa).measure(program, &schema),
            intrusiveness: IntrusivenessReport::measure(program, &schema),
            signature_bytes: schema.signature_bytes(),
            unique_signatures: log.signatures.len(),
            coverage: log.coverage.clone(),
            ..TestReport::default()
        };

        let spec = TestGraphSpec::new(program, config.system.mcm);

        // Certificate artifacts: the context hash content-addresses a
        // checking context — the schema's logical layout plus every knob
        // that can change a verdict or a Figure-14 stat for a given
        // signature sequence (MCM, observation options, windowing, and the
        // effective chunk count, which legitimately shifts the
        // complete/incremental split).
        let arts = ctx.filter(|c| c.sink.is_some() || c.cache.is_some());
        let effective_chunks = if config.chunked_check && config.workers > 1 {
            config.workers as u64
        } else {
            1
        };
        let (schema_hash, ctx_hash) = if arts.is_some() {
            let schema_hash = schema.stable_hash();
            let mut h = Fnv64::new();
            h.write_u64(schema_hash);
            h.write(&[
                config.system.mcm as u8,
                u8::from(config.check.intra_thread_rf),
                u8::from(config.split_windows),
            ]);
            h.write_u64(effective_chunks);
            (schema_hash, h.finish())
        } else {
            (0, 0)
        };
        // The sequence hash addresses the test's whole ascending
        // unique-signature sequence — the memo key for full-test skips.
        let seq_hash = arts.and_then(|c| c.cache).map(|_| {
            let mut h = Fnv64::new();
            for (sig, _) in &log.signatures {
                h.write_u64(sig.words().len() as u64);
                for &w in sig.words() {
                    h.write_u64(w);
                }
            }
            h.finish()
        });

        // Warm fast path: a memo hit replays the check phase's entire
        // contribution to the report — collective stats plus violation
        // records rehydrated from the memoized FAIL certificates — without
        // decoding or sorting a single graph. Gated off when conventional
        // comparison is requested (the memo doesn't carry those stats),
        // and when the sidecar needs certificates the snapshot lacks.
        if let (Some(c), Some(seq)) = (arts, seq_hash) {
            if let Some(cache) = c.cache.filter(|_| !config.compare_conventional) {
                if let Some(memo) = cache.memo(ctx_hash, seq) {
                    let mut sink_records = Vec::new();
                    let all_present = c.sink.is_none()
                        || log.signatures.iter().all(|(sig, _)| {
                            cache.sig_cert(ctx_hash, sig.words()).is_some_and(
                                |(verdict_failed, cert)| {
                                    sink_records.push((
                                        sig.words().to_vec(),
                                        verdict_failed,
                                        cert.to_vec(),
                                    ));
                                    true
                                },
                            )
                        });
                    if all_present {
                        report.collective = memo.stats;
                        for (index, cert_bytes) in &memo.violating {
                            let signature_index = *index as usize;
                            let (sig, count) = &log.signatures[signature_index];
                            let (cert, _) = Certificate::from_bytes(cert_bytes)
                                .expect("verdict cache holds valid certificates");
                            let Certificate::Fail { cycle } = cert else {
                                panic!("memoized violating entries are FAIL certificates")
                            };
                            report.violations.push(ViolationRecord {
                                signature: sig.clone(),
                                occurrences: *count,
                                violation: Some(Violation::from_cycle(&spec, cycle)),
                                reads_from: schema.decode(sig).map_err(|source| {
                                    CheckLogError::Decode {
                                        signature_index,
                                        source,
                                    }
                                })?,
                            });
                        }
                        if let Some(sink) = c.sink {
                            for (words, verdict_failed, cert) in sink_records {
                                sink.record(
                                    c.test_index,
                                    schema_hash,
                                    &words,
                                    verdict_failed,
                                    &cert,
                                );
                            }
                        }
                        cache.note_memo_skip(log.signatures.len() as u64);
                        scope.count("cache_memo_skips", 1);
                        scope.count("cache_hits", log.signatures.len() as u64);
                        return Ok(report);
                    }
                }
            }
        }
        // Violating signatures' (index, FAIL certificate) pairs, collected
        // on either check path below to memoize this sequence.
        let mut violating: Vec<(u32, Vec<u8>)> = Vec::new();

        // Decode→observe fusion: candidate indices go straight to
        // precomputed edge lists, so the per-signature hot loop never
        // materializes a `ReadsFrom` map. Reads-from observations are
        // reconstructed (via the slow decode) only for the rare violating
        // signatures that need them in their diagnostic records.
        let table = ObserveTable::build(program, &schema, &spec, &config.check);
        let mut indices: Vec<u32> = Vec::new();
        let mut raw_edges: Vec<(u32, u32)> = Vec::new();
        let mut edge_scratch = mtc_graph::EdgeScratch::default();
        // Checking modes that genuinely need the whole observation sequence
        // at once: the conventional-checker comparison re-walks every graph,
        // and chunked checking needs slice boundaries. Everything else
        // streams below in O(test size) memory.
        let materialize =
            config.compare_conventional || (config.chunked_check && config.workers > 1);
        let new_checker = || {
            let checker = CollectiveChecker::new(&spec);
            if config.split_windows {
                checker.with_split_windows()
            } else {
                checker
            }
        };
        if materialize {
            let mut observations = Vec::with_capacity(log.signatures.len());
            for (signature_index, (sig, _)) in log.signatures.iter().enumerate() {
                let decode_started = scope.start();
                schema.decode_indices(sig, &mut indices).map_err(|source| {
                    CheckLogError::Decode {
                        signature_index,
                        source,
                    }
                })?;
                scope.sample(Phase::Decode, decode_started);
                table.extend_edges(&indices, &mut raw_edges);
                let mut obs = mtc_graph::ObservedEdges::default();
                obs.assign_from_raw_bucketed(&raw_edges, spec.num_vertices(), &mut edge_scratch);
                observations.push(obs);
            }
            let check_started = scope.start();
            // The chunk plan: one chunk unless chunked checking is on, each
            // chunk checked by a fresh checker on the worker pool (on the
            // calling thread for a serial run). A panicking chunk fails the
            // check instead of the process.
            let chunks = if config.chunked_check {
                config.workers
            } else {
                1
            };
            let mut rest = observations.as_slice();
            let slices: Vec<&[mtc_graph::ObservedEdges]> =
                even_chunk_lengths(observations.len(), chunks)
                    .into_iter()
                    .map(|len| {
                        let (chunk, tail) = rest.split_at(len);
                        rest = tail;
                        chunk
                    })
                    .collect();
            let width = if threaded { config.workers } else { 1 };
            let collective = crate::pool::bounded_try_map(slices, width, |_, slice| {
                new_checker().check_all(slice, arts.is_some())
            })
            .into_iter()
            .map(|chunk| chunk.map_err(|e| CheckLogError::CheckerPanic { payload: e.payload }))
            .collect::<Result<CollectiveOutcome, _>>()?;
            for (signature_index, ((sig, count), result)) in log
                .signatures
                .iter()
                .zip(collective.results.iter())
                .enumerate()
            {
                if let Some(c) = arts {
                    let cert_bytes = collective.certificates[signature_index].to_bytes();
                    if result.is_err() {
                        violating.push((signature_index as u32, cert_bytes.clone()));
                    }
                    if let Some(sink) = c.sink {
                        sink.record(
                            c.test_index,
                            schema_hash,
                            sig.words(),
                            result.is_err(),
                            &cert_bytes,
                        );
                    }
                    if let Some(cache) = c.cache {
                        cache.note_sig(ctx_hash, sig.words(), result.is_err(), &cert_bytes);
                    }
                }
                if let Err(violation) = result {
                    report.violations.push(ViolationRecord {
                        signature: sig.clone(),
                        occurrences: *count,
                        violation: Some(violation.clone()),
                        reads_from: schema
                            .decode(sig)
                            .expect("signature already decoded via decode_indices"),
                    });
                }
            }
            scope.span(
                Phase::Check,
                check_started,
                &[
                    ("graphs", collective.stats.graphs as u64),
                    ("incremental", collective.stats.incremental as u64),
                    ("resorted_vertices", collective.stats.resorted_vertices),
                ],
            );
            report.collective = collective.stats;
            if config.compare_conventional {
                report.conventional = Some(check_conventional(&spec, &observations, false).stats);
            }
        } else {
            // Streaming path: decode, observe and check one signature at a
            // time, retaining only the checker's windowed re-sort state and
            // any violation records — never the full observation sequence.
            // `push_delta` runs the same incremental body as the batch
            // path's `push`, so verdicts and Figure-14 stats are identical
            // by construction.
            let mut checker = new_checker();
            let telemetry_on = self.telemetry.enabled();
            let check_started = scope.start();
            // Delta checking: ascending-signature neighbours differ in few
            // load slots, and each slot contributes a fixed edge bundle —
            // so instead of rebuilding the edge set per signature, patch
            // the changed slots' bundles in and out of a refcounted set and
            // let the checker consume the net diff directly.
            let mut delta = mtc_graph::DeltaObservations::new(spec.num_vertices());
            // Intern the distinct table edges in sorted order, then mirror
            // the table's (slot, candidate) runs as dense-id bundles
            // (self-loops dropped — they never contribute an edge). Sorted
            // interning makes id order match edge order, so the merge-walk
            // below compares ids directly; refcount updates become flat
            // array ops instead of per-source scans.
            let mut uniq: Vec<(u32, u32)> = table
                .edges
                .iter()
                .copied()
                .filter(|&(u, v)| u != v)
                .collect();
            uniq.sort_unstable();
            uniq.dedup();
            for &(u, v) in &uniq {
                delta.intern(u, v);
            }
            let mut id_offsets: Vec<u32> = Vec::with_capacity(table.cand_offsets.len());
            let mut ids: Vec<u32> = Vec::with_capacity(table.edges.len());
            for at in 0..table.cand_offsets.len() - 1 {
                id_offsets.push(ids.len() as u32);
                let lo = table.cand_offsets[at] as usize;
                let hi = table.cand_offsets[at + 1] as usize;
                for &(u, v) in &table.edges[lo..hi] {
                    if u != v {
                        ids.push(delta.intern(u, v));
                    }
                }
            }
            id_offsets.push(ids.len() as u32);
            let ids_for = |slot: usize, index: u32| -> &[u32] {
                let at = table.slot_bases[slot] as usize + index as usize;
                &ids[id_offsets[at] as usize..id_offsets[at + 1] as usize]
            };
            let mut changed: Vec<(u32, u32)> = Vec::new();
            let mut prev_sig: Option<&mtc_instr::ExecutionSignature> = None;
            for (signature_index, (sig, count)) in log.signatures.iter().enumerate() {
                let decode_started = scope.start();
                // Consecutive ascending signatures share most raw words, so
                // after the first signature decode only the words that
                // differ — the delta decode reports exactly the slots whose
                // candidate index moved.
                match prev_sig {
                    Some(prev) => {
                        schema.decode_indices_delta(sig, prev, &mut indices, &mut changed)
                    }
                    None => schema.decode_indices(sig, &mut indices),
                }
                .map_err(|source| CheckLogError::Decode {
                    signature_index,
                    source,
                })?;
                scope.sample(Phase::Decode, decode_started);
                delta.begin();
                if prev_sig.is_none() {
                    for (slot, &index) in indices.iter().enumerate() {
                        for &id in ids_for(slot, index) {
                            delta.add_id(id);
                        }
                    }
                } else {
                    for &(slot, old) in &changed {
                        let slot = slot as usize;
                        // Bundles are sorted at table build; merge-walk them
                        // so edges the old and new candidate share are never
                        // touched (a remove+add of the same edge is a no-op).
                        let olds = ids_for(slot, old);
                        let news = ids_for(slot, indices[slot]);
                        let (mut i, mut j) = (0, 0);
                        while i < olds.len() && j < news.len() {
                            match olds[i].cmp(&news[j]) {
                                std::cmp::Ordering::Less => {
                                    delta.remove_id(olds[i]);
                                    i += 1;
                                }
                                std::cmp::Ordering::Greater => {
                                    delta.add_id(news[j]);
                                    j += 1;
                                }
                                std::cmp::Ordering::Equal => {
                                    i += 1;
                                    j += 1;
                                }
                            }
                        }
                        for &id in &olds[i..] {
                            delta.remove_id(id);
                        }
                        for &id in &news[j..] {
                            delta.add_id(id);
                        }
                    }
                }
                prev_sig = Some(sig);
                let push_started = scope.start();
                let incremental_before = if telemetry_on {
                    checker.stats().incremental
                } else {
                    0
                };
                let push = checker.push_delta(&delta);
                // A push that grew the incremental counter re-sorted part of
                // the previous topological order — histogram it separately
                // from the no-resort fast path (Figure 14's split).
                if telemetry_on && checker.stats().incremental > incremental_before {
                    scope.sample(Phase::Resort, push_started);
                } else {
                    scope.sample(Phase::Check, push_started);
                }
                if let Some(c) = arts {
                    let cert_bytes = checker
                        .last_certificate()
                        .expect("a push always records a verdict")
                        .to_bytes();
                    if push.is_err() {
                        violating.push((signature_index as u32, cert_bytes.clone()));
                    }
                    if let Some(sink) = c.sink {
                        sink.record(
                            c.test_index,
                            schema_hash,
                            sig.words(),
                            push.is_err(),
                            &cert_bytes,
                        );
                    }
                    if let Some(cache) = c.cache {
                        cache.note_sig(ctx_hash, sig.words(), push.is_err(), &cert_bytes);
                    }
                }
                if let Err(violation) = push {
                    report.violations.push(ViolationRecord {
                        signature: sig.clone(),
                        occurrences: *count,
                        violation: Some(violation),
                        reads_from: schema
                            .decode(sig)
                            .expect("signature already decoded via decode_indices"),
                    });
                }
            }
            report.collective = *checker.stats();
            // Umbrella span for the whole streaming check; the per-push
            // samples above already populated the histograms, so this is a
            // trace record only (no double counting).
            scope.span_only(
                Phase::Check,
                check_started,
                &[
                    ("graphs", report.collective.graphs as u64),
                    ("incremental", report.collective.incremental as u64),
                    ("resorted_vertices", report.collective.resorted_vertices),
                ],
            );
        }
        // Memoize this sequence's freshly computed check phase so a repeat
        // campaign can skip it wholesale. Conventional-comparison runs are
        // not memoized: their reports carry stats the memo doesn't.
        if let (Some(c), Some(seq)) = (arts, seq_hash) {
            if let Some(cache) = c.cache.filter(|_| !config.compare_conventional) {
                cache.insert_memo(
                    ctx_hash,
                    seq,
                    MemoEntry {
                        stats: report.collective,
                        violating,
                    },
                );
            }
        }
        Ok(report)
    }
}

/// Precomputed decode→observe fusion table: for every signature load slot
/// (in schema order) and every candidate value the slot can observe, the
/// observed-edge list that choice contributes to the constraint graph.
///
/// The per-(slot, candidate) edge set is fixed by the graph spec and the
/// check options, so the per-signature hot loop reduces to an index decode
/// ([`SignatureSchema::decode_indices`]) plus table lookups — no
/// `ReadsFrom` map is ever materialized while checking.
struct ObserveTable {
    /// Index into `cand_offsets` of each slot's first candidate.
    slot_bases: Vec<u32>,
    /// Start of each (slot, candidate) edge run in `edges`, in build order,
    /// with a final sentinel; runs are contiguous, so a run's end is the
    /// next entry.
    cand_offsets: Vec<u32>,
    /// All per-candidate raw `(from, to)` edge bundles, concatenated.
    edges: Vec<(u32, u32)>,
}

impl ObserveTable {
    fn build(
        program: &Program,
        schema: &SignatureSchema,
        spec: &TestGraphSpec,
        options: &CheckOptions,
    ) -> Self {
        let mut table = ObserveTable {
            slot_bases: Vec::with_capacity(schema.total_loads()),
            cand_offsets: Vec::new(),
            edges: Vec::new(),
        };
        for thread in schema.threads() {
            for slot in &thread.loads {
                let addr = program
                    .instr(slot.op)
                    .and_then(mtc_isa::Instr::addr)
                    .expect("schema slots are loads");
                table.slot_bases.push(table.cand_offsets.len() as u32);
                for &value in &slot.candidates {
                    let start = table.edges.len();
                    table.cand_offsets.push(start as u32);
                    spec.append_load_edges(slot.op, addr, value, options, &mut table.edges);
                    // Sorted bundles let the delta path merge-walk a slot's
                    // old and new bundle and skip their common edges; edge
                    // order within a bundle is otherwise immaterial (the
                    // canonicalized set and the windowing intervals are
                    // order-insensitive).
                    table.edges[start..].sort_unstable();
                }
            }
        }
        table.cand_offsets.push(table.edges.len() as u32);
        table
    }

    /// The edge bundle slot `slot` contributes when observing its candidate
    /// `index`.
    fn edges_for(&self, slot: usize, index: u32) -> &[(u32, u32)] {
        let at = self.slot_bases[slot] as usize + index as usize;
        let lo = self.cand_offsets[at] as usize;
        let hi = self.cand_offsets[at + 1] as usize;
        &self.edges[lo..hi]
    }

    /// Replaces `out` with the raw edge union of every slot observing its
    /// decoded candidate `indices[slot]`.
    fn extend_edges(&self, indices: &[u32], out: &mut Vec<(u32, u32)>) {
        out.clear();
        for (slot, &index) in indices.iter().enumerate() {
            out.extend_from_slice(self.edges_for(slot, index));
        }
    }
}

/// Host-side checking of a [`SignatureLog`] failed during
/// [`Campaign::check_log`]; no verdict was produced for the test.
#[derive(Debug)]
pub enum CheckLogError {
    /// A signature failed schema decoding — a corrupt entry (bit-flipped
    /// transfer, truncated record) or a log recorded for a different
    /// program/schema.
    Decode {
        /// Position of the corrupt signature in the log's sorted unique
        /// set.
        signature_index: usize,
        /// The underlying decode failure.
        source: mtc_instr::DecodeError,
    },
    /// A collective chunk checker panicked; the panic was contained to the
    /// checking call instead of aborting the process.
    CheckerPanic {
        /// Stringified panic payload.
        payload: String,
    },
}

impl std::fmt::Display for CheckLogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckLogError::Decode {
                signature_index,
                source,
            } => write!(f, "signature {signature_index} failed to decode: {source}"),
            CheckLogError::CheckerPanic { payload } => {
                write!(f, "collective chunk worker panicked: {payload}")
            }
        }
    }
}

impl std::error::Error for CheckLogError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckLogError::Decode { source, .. } => Some(source),
            CheckLogError::CheckerPanic { .. } => None,
        }
    }
}

/// Why one supervised attempt produced no verdict (internal classification
/// bridging [`SpillError`] and [`CheckLogError`] into [`FailureCause`]).
enum AttemptError {
    /// Spill-file I/O failed during collection.
    Spill(SpillError),
    /// Host-side checking failed.
    Check(CheckLogError),
}

/// What one supervised suite slot produced.
enum SupervisedOutcome {
    /// Replayed from the journal; no simulation ran.
    Replayed(ReplayEntry),
    /// Freshly executed: a verdict, or quarantine after exhausted retries.
    /// Boxed: a report dwarfs the other variants.
    Fresh {
        /// The verdict (or quarantine record).
        result: Result<Box<TestReport>, QuarantineRecord>,
        /// Observability sidecar, aggregated outside the verdict.
        diag: TestDiagnostics,
    },
}

/// Per-test observability the supervisor returns alongside the verdict:
/// wall time across all attempts and the verdict attempt's spill
/// statistics. Kept out of [`TestReport`] so the report stays a pure
/// function of the logical computation.
#[derive(Clone, Debug, Default)]
pub(crate) struct TestDiagnostics {
    /// Wall time across every attempt, microseconds.
    pub(crate) elapsed_us: u64,
    /// Spill statistics of the attempt that produced the verdict.
    pub(crate) spill: SpillStats,
}

/// The suite that survives the pre-simulation lint gate, with per-slot
/// reports aligned to the kept programs.
struct LintedSuite {
    programs: Vec<Program>,
    reports: Vec<Option<LintReport>>,
    pruned: u64,
    regenerated: u64,
}

/// What one iteration shard produced, before the deterministic reduction.
/// Signatures themselves go straight into the shared budget-capped
/// [`SignatureStore`]; the shard keeps only additive counters.
struct ShardRun {
    crashes: u64,
    assertion_failures: u64,
    test_cycles: u64,
    signature_cycles: u64,
    /// Successfully encoded signatures (the length of this shard's encoded
    /// stream; per-occurrence positions are recorded in the store).
    encoded: u64,
}

/// Splits `0..iterations` into at most `workers` contiguous, near-equal,
/// non-empty ranges (earlier shards take the remainder). Also the shard
/// plan the campaign service's coordinator partitions suite slots with.
pub(crate) fn shard_ranges(iterations: u64, workers: usize) -> Vec<std::ops::Range<u64>> {
    let shards = (workers.max(1) as u64).min(iterations.max(1));
    let base = iterations / shards;
    let remainder = iterations % shards;
    let mut ranges = Vec::with_capacity(shards as usize);
    let mut start = 0;
    for i in 0..shards {
        let len = base + u64::from(i < remainder);
        ranges.push(start..start + len);
        start += len;
    }
    ranges
}

/// Executes one shard's iterations on a fresh clone of the instrumented
/// simulator, preserving the campaign's per-iteration seed sequence.
/// Encoded signatures dedup into the shared budget-capped store; a spill
/// failure stops the shard and propagates.
#[allow(clippy::too_many_arguments)]
fn run_shard(
    sim: &Simulator<'_>,
    program: &Program,
    schema: &SignatureSchema,
    config: &CampaignConfig,
    seed_offset: u64,
    shard_index: u32,
    range: std::ops::Range<u64>,
    store: &Mutex<SignatureStore>,
    telemetry: &Telemetry,
) -> Result<ShardRun, SpillError> {
    /// Iterations between progress-heartbeat flushes: one relaxed atomic
    /// add per batch keeps the hot loop contention-free.
    const PROGRESS_BATCH: u64 = 256;
    let mut sim = sim.clone();
    let mut pending_progress = 0u64;
    // Per-iteration fixed costs the paper's loop body pays besides the
    // generated accesses: the sense-reversal barrier and the shared-
    // memory re-initialization (§5).
    let barrier_cycles = 150u64;
    let init_cycles = 2 * program.num_addrs() as u64;
    let mut shard = ShardRun {
        crashes: 0,
        assertion_failures: 0,
        test_cycles: 0,
        signature_cycles: 0,
        encoded: 0,
    };
    for iter in range {
        pending_progress += 1;
        if pending_progress == PROGRESS_BATCH {
            telemetry.progress_iterations(PROGRESS_BATCH);
            pending_progress = 0;
        }
        let seed = config
            .test
            .seed
            .wrapping_add(seed_offset)
            .wrapping_add(iter.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        match sim.run(seed) {
            Err(SimError::ProtocolDeadlock { .. } | SimError::Livelock { .. }) => {
                shard.crashes += 1;
            }
            Ok(exec) => {
                shard.test_cycles += exec.test_cycles + barrier_cycles + init_cycles;
                shard.signature_cycles += exec.instr_cycles;
                match schema.encode(&exec.reads_from) {
                    Ok(sig) => {
                        let first = FirstSeen {
                            shard: shard_index,
                            pos: shard.encoded,
                        };
                        shard.encoded += 1;
                        store
                            .lock()
                            .expect("signature store lock")
                            .insert(&sig, first)?;
                    }
                    Err(EncodeError::UnexpectedValue { .. }) => {
                        shard.assertion_failures += 1;
                    }
                    Err(EncodeError::MissingLoad { .. }) => {
                        unreachable!("complete executions observe every load")
                    }
                }
            }
        }
    }
    if pending_progress > 0 {
        telemetry.progress_iterations(pending_progress);
    }
    Ok(shard)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtc_isa::IsaKind;

    fn small_campaign(isa: IsaKind) -> Campaign {
        Campaign::new(
            CampaignConfig::new(TestConfig::new(isa, 2, 20, 8).with_seed(1), 200)
                .with_tests(2)
                .with_conventional_comparison(),
        )
    }

    #[test]
    fn clean_hardware_validates_clean() {
        for isa in [IsaKind::Arm, IsaKind::X86] {
            let report = small_campaign(isa).run();
            assert_eq!(report.tests.len(), 2);
            for t in &report.tests {
                assert!(t.is_clean(), "{isa:?} reported spurious violations");
                assert!(t.unique_signatures >= 1);
                assert_eq!(t.crashes, 0);
                assert_eq!(
                    t.collective.graphs, t.unique_signatures,
                    "every unique signature is checked exactly once"
                );
            }
            assert!(report.mean_unique_signatures() >= 1.0);
            assert_eq!(report.failing_tests(), 0);
        }
    }

    #[test]
    fn collective_work_does_not_exceed_conventional() {
        let report = small_campaign(IsaKind::Arm).run();
        for t in &report.tests {
            let ratio = t.checking_work_ratio().expect("comparison enabled");
            assert!(ratio <= 1.0, "collective ratio {ratio} > 1");
        }
    }

    #[test]
    fn weak_systems_show_more_diversity_than_tso() {
        let arm = Campaign::new(
            CampaignConfig::new(TestConfig::new(IsaKind::Arm, 4, 30, 8).with_seed(3), 400)
                .with_tests(1),
        )
        .run();
        let x86 = Campaign::new(
            CampaignConfig::new(TestConfig::new(IsaKind::X86, 4, 30, 8).with_seed(3), 400)
                .with_tests(1),
        )
        .run();
        assert!(
            arm.mean_unique_signatures() >= x86.mean_unique_signatures(),
            "ARM {} < x86 {}",
            arm.mean_unique_signatures(),
            x86.mean_unique_signatures()
        );
    }

    #[test]
    fn timing_components_are_populated() {
        let report = small_campaign(IsaKind::Arm).run();
        let t = &report.tests[0];
        assert!(t.timing.test_cycles > 0);
        assert!(t.timing.signature_cycles > 0);
        assert!(t.timing.sort_cycles > 0);
        assert!(t.timing.signature_overhead() > 0.0);
        assert!(t.timing.sort_overhead() > 0.0);
        assert!(t.intrusiveness.normalized() > 0.0);
        assert!(t.code_size.ratio() > 1.0);
        assert!(t.signature_bytes > 0);
    }

    #[test]
    fn parallel_campaign_matches_sequential() {
        let test = TestConfig::new(IsaKind::Arm, 3, 20, 8).with_seed(9);
        let sequential = Campaign::new(CampaignConfig::new(test.clone(), 150).with_tests(3)).run();
        let parallel =
            Campaign::new(CampaignConfig::new(test, 150).with_tests(3).with_parallel()).run();
        assert_eq!(sequential.tests.len(), parallel.tests.len());
        for (a, b) in sequential.tests.iter().zip(parallel.tests.iter()) {
            assert_eq!(a.unique_signatures, b.unique_signatures);
            assert_eq!(a.violations, b.violations);
            assert_eq!(a.timing, b.timing);
        }
    }

    #[test]
    fn split_window_campaign_agrees_on_verdicts() {
        let test = TestConfig::new(IsaKind::Arm, 4, 30, 8).with_seed(10);
        let single = Campaign::new(CampaignConfig::new(test.clone(), 400).with_tests(2)).run();
        let split = Campaign::new(
            CampaignConfig::new(test, 400)
                .with_tests(2)
                .with_split_windows(),
        )
        .run();
        assert_eq!(single.failing_tests(), split.failing_tests());
        for (a, b) in single.tests.iter().zip(split.tests.iter()) {
            assert_eq!(a.unique_signatures, b.unique_signatures);
            assert!(b.collective.resorted_vertices <= a.collective.resorted_vertices);
        }
    }

    #[test]
    fn shard_ranges_partition_the_iteration_space() {
        for (iters, workers) in [(0u64, 4usize), (1, 4), (7, 3), (100, 1), (100, 7)] {
            let ranges = shard_ranges(iters, workers);
            assert!(ranges.len() <= workers.max(1));
            let mut next = 0;
            for r in &ranges {
                assert_eq!(r.start, next, "shards must be contiguous");
                next = r.end;
            }
            assert_eq!(next, iters, "shards must cover every iteration");
            let lens: Vec<u64> = ranges.iter().map(|r| r.end - r.start).collect();
            let (min, max) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
            assert!(max - min <= 1, "shards must be near-equal: {lens:?}");
        }
    }

    #[test]
    fn threaded_collection_equals_serial_collection() {
        let test = TestConfig::new(IsaKind::Arm, 3, 25, 8).with_seed(11);
        for workers in [1usize, 2, 4] {
            let campaign = Campaign::new(
                CampaignConfig::new(test.clone(), 240)
                    .with_tests(1)
                    .with_workers(workers),
            );
            let program = crate::testgen::generate(&test);
            let threaded = campaign.collect(&program);
            let serial = campaign.collect_serial(&program);
            assert_eq!(threaded, serial, "workers={workers}");
        }
    }

    #[test]
    fn with_workers_zero_resolves_to_host_parallelism() {
        let test = TestConfig::new(IsaKind::Arm, 2, 10, 8);
        let config = CampaignConfig::new(test, 10).with_workers(0);
        assert!(config.workers >= 1, "0 must resolve to a concrete count");
    }

    #[test]
    fn chunked_checking_keeps_verdicts_and_the_figure14_identity() {
        use mtc_sim::BugKind;
        let test = TestConfig::new(IsaKind::X86, 4, 50, 4)
            .with_words_per_line(4)
            .with_seed(7);
        let system = mtc_sim::SystemConfig::gem5_x86()
            .with_bug(BugKind::LoadLoadLsq)
            .with_aggressive_interleaving();
        // Same shard plan (workers = 4) both times; only the checking mode
        // differs, so the signature sets are identical by construction.
        let plain = Campaign::new(
            CampaignConfig::new(test.clone(), 1200)
                .with_system(system.clone())
                .with_tests(1)
                .with_workers(4),
        )
        .run();
        let chunked = Campaign::new(
            CampaignConfig::new(test, 1200)
                .with_system(system)
                .with_tests(1)
                .with_workers(4)
                .with_chunked_checking(),
        )
        .run();
        for (a, b) in plain.tests.iter().zip(chunked.tests.iter()) {
            assert_eq!(
                a.violations
                    .iter()
                    .map(|v| &v.signature)
                    .collect::<Vec<_>>(),
                b.violations
                    .iter()
                    .map(|v| &v.signature)
                    .collect::<Vec<_>>(),
                "chunking must not change which signatures violate"
            );
            let s = b.collective;
            assert_eq!(s.complete + s.no_resort + s.incremental, s.graphs);
            assert!(s.complete >= a.collective.complete);
        }
    }

    /// The chunk plan runs on the worker pool when threaded and on the
    /// calling thread when serial: the same verdicts, violation records
    /// and merged stats either way, at every chunk count.
    #[test]
    fn threaded_chunk_plan_matches_serial() {
        let test = TestConfig::new(IsaKind::X86, 4, 50, 4)
            .with_words_per_line(4)
            .with_seed(7);
        let system = mtc_sim::SystemConfig::gem5_x86()
            .with_bug(mtc_sim::BugKind::LoadLoadLsq)
            .with_aggressive_interleaving();
        let config = CampaignConfig::new(test.clone(), 600).with_system(system);
        let log = Campaign::new(config.clone()).collect(&generate(&test));
        let mut saw_violation = false;
        for workers in [1, 2, 3, 4, 8] {
            let campaign =
                Campaign::new(config.clone().with_workers(workers).with_chunked_checking());
            let threaded = campaign
                .check_log_impl(&log, true, Ids::test(0, 1), None)
                .expect("threaded check");
            let serial = campaign
                .check_log_impl(&log, false, Ids::test(0, 1), None)
                .expect("serial check");
            assert_eq!(threaded.collective, serial.collective, "workers={workers}");
            assert_eq!(threaded.violations, serial.violations, "workers={workers}");
            assert!(threaded.collective.complete >= workers.min(log.signatures.len()));
            saw_violation |= !threaded.violations.is_empty();
        }
        assert!(saw_violation, "the bug must yield violating chunks");
    }

    #[test]
    fn bug_injection_is_detected() {
        use mtc_sim::BugKind;
        let test = TestConfig::new(IsaKind::X86, 4, 50, 4)
            .with_words_per_line(4)
            .with_seed(7);
        let system = mtc_sim::SystemConfig::gem5_x86()
            .with_bug(BugKind::LoadLoadLsq)
            .with_aggressive_interleaving();
        let campaign = Campaign::new(
            CampaignConfig::new(test, 2000)
                .with_system(system)
                .with_tests(3),
        );
        let report = campaign.run();
        assert!(
            report.failing_tests() > 0,
            "LSQ bug escaped a 3-test campaign"
        );
        // Violations are cyclic-graph detections, not crashes.
        for t in &report.tests {
            assert_eq!(t.crashes, 0);
        }
    }
}
