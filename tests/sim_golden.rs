//! Simulator golden fixture: the engine's observable output — per seed,
//! the reads-from set, `test_cycles`, `instr_cycles`, every `ExecStats`
//! counter, the commit trace, the branch predictor's counters, the encoded
//! signature and the exact `SimError` — is snapshotted into a checked-in
//! fixture.
//!
//! The random-number draw order is part of the simulator's contract: one
//! extra or missing draw shifts every later decision of the run, so any
//! engine refactor that is meant to be a pure speed-up must reproduce this
//! fixture byte for byte. The matrix covers both ISA presets at 2/4/7
//! threads, fenced tests, the three injected bugs, nMCA propagation, OS
//! preemption, the register-flushing overlay, the uniform-random SC
//! reference, a mid-sequence `reset_microarch`, the livelock guard,
//! reorder/lookahead windows wider than 64 operations, and reorder windows
//! of 64, 65 and 66 operations on both ISAs: the edge of the one-word order
//! masks, where the `Mcm::orders` fallback first fires at 66.
//!
//! Regenerate (only when an *intentional* behaviour change lands) with:
//!
//! ```text
//! MTC_BLESS=1 cargo test --test sim_golden
//! ```

use mtracecheck::instr::{analyze, SignatureSchema, SourcePruning};
use mtracecheck::isa::{IsaKind, Mcm, Program};
use mtracecheck::sim::{BugKind, CacheConfig, ExecStats, Simulator, SystemConfig};
use mtracecheck::testgen::{generate, TestConfig};
use std::fmt::Write as _;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/fixtures/sim_golden.txt"
);

/// One row of the matrix: a generated test on a configured system.
struct Case {
    name: &'static str,
    test: TestConfig,
    system: SystemConfig,
    seeds: u64,
    instrument: bool,
    flush_overlay: bool,
    trace: bool,
    /// Hard-reset caches and predictors before this seed.
    reset_at: Option<u64>,
}

impl Case {
    fn new(name: &'static str, test: TestConfig, system: SystemConfig) -> Self {
        Case {
            name,
            test,
            system,
            seeds: 40,
            instrument: true,
            flush_overlay: false,
            trace: true,
            reset_at: None,
        }
    }
}

fn matrix() -> Vec<Case> {
    let arm = |t, o, a| TestConfig::new(IsaKind::Arm, t, o, a).with_seed(13);
    let x86 = |t, o, a| TestConfig::new(IsaKind::X86, t, o, a).with_seed(17);
    let mut wide = SystemConfig::arm_soc();
    wide.scheduler.reorder_window = 80;
    wide.scheduler.conflict_lookahead = 96;
    let mut wide_x86 = SystemConfig::x86_desktop().with_aggressive_interleaving();
    wide_x86.scheduler.reorder_window = 130;
    wide_x86.scheduler.conflict_lookahead = 70;
    let window = |mut system: SystemConfig, ops| {
        system.scheduler.reorder_window = ops;
        system
    };
    let mut cases = vec![
        Case::new("arm-2-50-32", arm(2, 50, 32), SystemConfig::arm_soc()),
        Case::new("arm-4-100-64", arm(4, 100, 64), SystemConfig::arm_soc()),
        Case::new("arm-7-200-64", arm(7, 200, 64), SystemConfig::arm_soc()),
        Case::new("x86-2-50-32", x86(2, 50, 32), SystemConfig::x86_desktop()),
        Case::new("x86-4-100-64", x86(4, 100, 64), SystemConfig::x86_desktop()),
        Case::new("x86-7-200-64", x86(7, 200, 64), SystemConfig::x86_desktop()),
        Case::new(
            "arm-4-60-16 fenced false-sharing aggressive",
            arm(4, 60, 16)
                .with_fence_fraction(0.15)
                .with_words_per_line(4),
            SystemConfig::arm_soc().with_aggressive_interleaving(),
        ),
        Case::new(
            "x86-4-60-16 fenced aggressive",
            x86(4, 60, 16).with_fence_fraction(0.15),
            SystemConfig::x86_desktop().with_aggressive_interleaving(),
        ),
        Case::new(
            "bug1 gem5-x86-4-50-8 false-sharing",
            x86(4, 50, 8).with_words_per_line(2),
            SystemConfig::gem5_x86()
                .with_aggressive_interleaving()
                .with_bug(BugKind::LoadLoadCoherence),
        ),
        Case::new(
            "bug2 gem5-x86-4-50-8",
            x86(4, 50, 8),
            SystemConfig::gem5_x86()
                .with_aggressive_interleaving()
                .with_bug(BugKind::LoadLoadLsq),
        ),
        Case {
            seeds: 64,
            ..Case::new(
                "bug3 gem5-x86-7-200-64 l1_1k",
                x86(7, 200, 64).with_words_per_line(4),
                SystemConfig::gem5_x86()
                    .with_cache(CacheConfig::l1_1k())
                    .with_bug(BugKind::ProtocolRace { prob: 0.1 }),
            )
        },
        Case::new(
            "nmca arm-4-50-8 aggressive",
            arm(4, 50, 8),
            SystemConfig::arm_soc_nmca().with_aggressive_interleaving(),
        ),
        Case::new(
            "os arm-4-100-32",
            arm(4, 100, 32),
            SystemConfig::arm_soc().with_os(),
        ),
        Case {
            flush_overlay: true,
            ..Case::new("flush arm-4-50-16", arm(4, 50, 16), SystemConfig::arm_soc())
        },
        Case::new(
            "sc-reference uniform-random 4-50-16",
            arm(4, 50, 16).with_mcm(Mcm::Sc),
            SystemConfig::sc_reference(),
        ),
        Case {
            reset_at: Some(20),
            ..Case::new(
                "reset-microarch x86-4-50-16 l1_1k",
                x86(4, 50, 16),
                SystemConfig::x86_desktop().with_cache(CacheConfig::l1_1k()),
            )
        },
        Case {
            instrument: false,
            trace: false,
            ..Case::new(
                "uninstrumented untraced arm-2-100-32",
                arm(2, 100, 32),
                SystemConfig::arm_soc(),
            )
        },
        Case {
            seeds: 4,
            ..Case::new(
                "livelock budget-0 arm-2-20-8",
                arm(2, 20, 8),
                SystemConfig::arm_soc().with_step_budget(0),
            )
        },
        Case::new("wide-window arm-4-200-32", arm(4, 200, 32), wide),
        Case::new(
            "wide-window x86-7-200-16 fenced aggressive",
            x86(7, 200, 16)
                .with_fence_fraction(0.05)
                .with_words_per_line(2),
            wide_x86,
        ),
    ];
    // Appended after the rest so that adding them left every earlier
    // fixture line unchanged.
    for (ops, arm_name, x86_name) in [
        (
            64,
            "mask-boundary window-64 arm-4-200-32",
            "mask-boundary window-64 x86-4-200-16 aggressive",
        ),
        (
            65,
            "mask-boundary window-65 arm-4-200-32",
            "mask-boundary window-65 x86-4-200-16 aggressive",
        ),
        (
            66,
            "mask-boundary window-66 arm-4-200-32",
            "mask-boundary window-66 x86-4-200-16 aggressive",
        ),
    ] {
        cases.push(Case::new(
            arm_name,
            arm(4, 200, 32),
            window(SystemConfig::arm_soc(), ops),
        ));
        cases.push(Case::new(
            x86_name,
            x86(4, 200, 16),
            window(
                SystemConfig::x86_desktop().with_aggressive_interleaving(),
                ops,
            ),
        ));
    }
    cases
}

/// FNV-1a over a stream of little-endian `u64` words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn stats_text(s: &ExecStats) -> String {
    format!(
        "commits={} switches={} contention={} preempt={} spec={}/{}/{} cache={}/{} flush={}",
        s.commits,
        s.switches,
        s.contention_events,
        s.preemptions,
        s.spec_performed,
        s.spec_squashed,
        s.spec_stale,
        s.cache_hits,
        s.cache_misses,
        s.flush_stores
    )
}

fn render_case(out: &mut String, case: &Case) {
    let program: Program = generate(&case.test);
    let schema = SignatureSchema::build(
        &program,
        &analyze(&program, &SourcePruning::none()),
        case.test.isa.register_bits(),
    );
    let mut sim = Simulator::new(&program, case.system.clone());
    if case.instrument {
        sim.instrument(&schema);
    }
    sim.set_flush_overlay(case.flush_overlay);
    sim.set_trace(case.trace);
    let _ = writeln!(
        out,
        "[{}] test={} ops={} seeds={}",
        case.name,
        case.test.name(),
        program.num_instrs(),
        case.seeds
    );
    for seed in 0..case.seeds {
        if case.reset_at == Some(seed) {
            sim.reset_microarch();
            let _ = writeln!(out, "  reset_microarch");
        }
        let result = sim.run(seed);
        let predictor = sim
            .predictor()
            .map_or((0, 0), |p| (p.mispredictions(), p.executed_links()));
        match result {
            Ok(exec) => {
                let mut rf = Fnv::new();
                for (op, value) in exec.reads_from.iter() {
                    rf.eat(u64::from(op.tid.0));
                    rf.eat(u64::from(op.idx));
                    rf.eat(u64::from(value.0));
                }
                let mut trace = Fnv::new();
                for op in &exec.trace {
                    trace.eat(u64::from(op.tid.0));
                    trace.eat(u64::from(op.idx));
                }
                let signature = match schema.encode(&exec.reads_from) {
                    Ok(sig) => {
                        let mut h = Fnv::new();
                        for &w in sig.words() {
                            h.eat(w);
                        }
                        format!("{:016x}", h.0)
                    }
                    Err(e) => format!("err({e})"),
                };
                let _ = writeln!(
                    out,
                    "  seed {seed}: rf={}:{:016x} test_cycles={} instr_cycles={} {} \
                     trace={}:{:016x} predictor={}/{} sig={signature}",
                    exec.reads_from.len(),
                    rf.0,
                    exec.test_cycles,
                    exec.instr_cycles,
                    stats_text(&exec.stats),
                    exec.trace.len(),
                    trace.0,
                    predictor.0,
                    predictor.1,
                );
            }
            Err(e) => {
                let _ = writeln!(
                    out,
                    "  seed {seed}: error {e:?} predictor={}/{}",
                    predictor.0, predictor.1
                );
            }
        }
    }
}

fn render() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# simulator golden fixture v1");
    let _ = writeln!(
        out,
        "# per case x seed: rf, cycles, ExecStats, trace, predictor, signature or SimError"
    );
    for case in matrix() {
        render_case(&mut out, &case);
    }
    out
}

#[test]
fn simulator_output_matches_golden_fixture() {
    let rendered = render();
    if std::env::var_os("MTC_BLESS").is_some() {
        std::fs::create_dir_all(concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/fixtures"))
            .expect("create fixtures dir");
        std::fs::write(FIXTURE, &rendered).expect("write golden fixture");
        eprintln!("blessed {FIXTURE}");
        return;
    }
    let expected = std::fs::read_to_string(FIXTURE)
        .expect("golden fixture missing; regenerate with MTC_BLESS=1");
    for (line, (a, b)) in rendered.lines().zip(expected.lines()).enumerate() {
        assert_eq!(
            a,
            b,
            "simulator golden mismatch at line {} \
             (regenerate deliberately with MTC_BLESS=1 if the change is intended)",
            line + 1
        );
    }
    assert_eq!(
        rendered.lines().count(),
        expected.lines().count(),
        "simulator golden fixture length changed"
    );
}

/// The matrix must actually reach the paths it claims to pin — otherwise
/// the fixture is vacuous for them.
#[test]
fn golden_matrix_is_not_vacuous() {
    let rendered = render();
    let count = |needle: &str| rendered.matches(needle).count();
    assert!(count("ProtocolDeadlock") > 0, "bug 3 never crashed");
    assert!(
        count("Livelock { step: 1 }") > 0,
        "livelock guard not pinned"
    );
    assert!(count("reset_microarch") == 1);
    let spec_stale = rendered
        .lines()
        .filter_map(|l| l.split(" spec=").nth(1))
        .filter_map(|s| s.split(' ').next())
        .filter(|s| !s.ends_with("/0"))
        .count();
    assert!(spec_stale > 0, "no load->load bug manifested");
    let preempted = rendered
        .lines()
        .filter(|l| l.contains(" preempt=") && !l.contains(" preempt=0 "))
        .count();
    assert!(preempted > 0, "OS mode never preempted");
    let flushed = rendered
        .lines()
        .filter(|l| l.contains(" flush=") && !l.contains(" flush=0 "))
        .count();
    assert!(flushed > 0, "flush overlay never stored");
    let contended = rendered
        .lines()
        .filter(|l| l.contains(" contention=") && !l.contains(" contention=0 "))
        .count();
    assert!(contended > 0, "no contention events");
}
