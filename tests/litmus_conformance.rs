//! Litmus conformance: the exhaustive oracle, the randomized simulator and
//! the constraint-graph checker must tell one coherent story on the classic
//! litmus shapes under every memory model.

use mtracecheck::graph::{check_conventional, CheckOptions, TestGraphSpec};
use mtracecheck::isa::{litmus, Mcm, OpId, ReadsFrom, Tid, Value};
use mtracecheck::sim::{enumerate_outcomes, Simulator, SystemConfig};
use std::collections::BTreeSet;

fn eager_system(mcm: Mcm) -> SystemConfig {
    let system = match mcm {
        Mcm::Sc => SystemConfig::sc_reference(),
        Mcm::Tso => SystemConfig::x86_desktop(),
        Mcm::Weak => SystemConfig::arm_soc(),
    };
    match mcm {
        // The SC reference machine is already uniformly random.
        Mcm::Sc => system,
        _ => system.with_aggressive_interleaving(),
    }
}

/// The simulator only ever produces outcomes the model allows, and the
/// checker accepts every allowed outcome (zero false positives over the
/// *entire* allowed set, not just sampled ones).
#[test]
fn simulator_within_oracle_and_checker_accepts_oracle() {
    for test in litmus::all() {
        for mcm in Mcm::ALL {
            let allowed = enumerate_outcomes(&test.program, mcm, 5_000_000)
                .unwrap_or_else(|e| panic!("{}: {e}", test.name));
            let mut sim = Simulator::new(&test.program, eager_system(mcm));
            let observed: BTreeSet<ReadsFrom> = (0..2000)
                .map(|s| sim.run(s).expect("litmus runs never crash").reads_from)
                .collect();
            for rf in &observed {
                assert!(
                    allowed.contains(rf),
                    "{} under {mcm}: simulator produced forbidden outcome {rf}",
                    test.name
                );
            }
            let spec = TestGraphSpec::new(&test.program, mcm);
            let observations: Vec<_> = allowed
                .iter()
                .map(|rf| spec.observe(&test.program, rf, &CheckOptions::default()))
                .collect();
            let outcome = check_conventional(&spec, &observations, false);
            assert_eq!(
                outcome.violation_count(),
                0,
                "{} under {mcm}: checker rejected an allowed outcome",
                test.name
            );
        }
    }
}

/// Stronger models allow no outcome a weaker model forbids: the allowed
/// sets nest SC ⊆ TSO ⊆ Weak on every litmus test.
#[test]
fn allowed_outcome_sets_nest_by_strength() {
    for test in litmus::all() {
        let sc = enumerate_outcomes(&test.program, Mcm::Sc, 5_000_000).unwrap();
        let tso = enumerate_outcomes(&test.program, Mcm::Tso, 5_000_000).unwrap();
        let weak = enumerate_outcomes(&test.program, Mcm::Weak, 5_000_000).unwrap();
        assert!(sc.is_subset(&tso), "{}: SC ⊄ TSO", test.name);
        assert!(tso.is_subset(&weak), "{}: TSO ⊄ Weak", test.name);
    }
}

fn check_one(program: &mtracecheck::isa::Program, mcm: Mcm, rf: &ReadsFrom) -> bool {
    let spec = TestGraphSpec::new(program, mcm);
    let obs = spec.observe(program, rf, &CheckOptions::default());
    check_conventional(&spec, &[obs], false).violation_count() == 0
}

/// The checker flags the canonical forbidden outcomes of each litmus test
/// under the models that forbid them — and passes them where allowed.
#[test]
fn forbidden_outcomes_are_flagged_where_forbidden() {
    // SB: both loads read init. Store ids: T0 st X -> 1, T1 st Y -> 2.
    let sb = litmus::store_buffering();
    let mut sb_relaxed = ReadsFrom::new();
    sb_relaxed.record(OpId::new(Tid(0), 1), Value::INIT);
    sb_relaxed.record(OpId::new(Tid(1), 1), Value::INIT);
    assert!(
        !check_one(&sb.program, Mcm::Sc, &sb_relaxed),
        "SC must flag SB"
    );
    assert!(
        check_one(&sb.program, Mcm::Tso, &sb_relaxed),
        "TSO allows SB"
    );
    assert!(
        check_one(&sb.program, Mcm::Weak, &sb_relaxed),
        "Weak allows SB"
    );

    // MP: flag observed (store #2), data stale (init).
    let mp = litmus::message_passing();
    let mut mp_stale = ReadsFrom::new();
    mp_stale.record(OpId::new(Tid(1), 0), Value(2));
    mp_stale.record(OpId::new(Tid(1), 1), Value::INIT);
    assert!(
        !check_one(&mp.program, Mcm::Sc, &mp_stale),
        "SC must flag MP"
    );
    assert!(
        !check_one(&mp.program, Mcm::Tso, &mp_stale),
        "TSO must flag MP"
    );
    assert!(
        check_one(&mp.program, Mcm::Weak, &mp_stale),
        "Weak allows MP"
    );

    // CoRR: anti-coherent same-address read pair — forbidden everywhere.
    let corr = litmus::corr();
    let mut anti = ReadsFrom::new();
    anti.record(OpId::new(Tid(1), 0), Value(1));
    anti.record(OpId::new(Tid(1), 1), Value::INIT);
    for mcm in Mcm::ALL {
        assert!(
            !check_one(&corr.program, mcm, &anti),
            "{mcm} must flag CoRR"
        );
    }

    // Fenced SB: relaxed outcome forbidden everywhere.
    let sbf = litmus::store_buffering_fenced();
    let mut sbf_relaxed = ReadsFrom::new();
    sbf_relaxed.record(OpId::new(Tid(0), 2), Value::INIT);
    sbf_relaxed.record(OpId::new(Tid(1), 2), Value::INIT);
    for mcm in Mcm::ALL {
        assert!(
            !check_one(&sbf.program, mcm, &sbf_relaxed),
            "{mcm} must flag fenced SB"
        );
    }
}

/// LB (load buffering): both loads reading the other thread's store is
/// forbidden under SC/TSO. Note: the checker's edge set cannot flag it
/// under Weak either way (it is allowed there).
#[test]
fn load_buffering_verdicts() {
    let lb = litmus::load_buffering();
    // Store ids: T0 st Y -> 1, T1 st X -> 2.
    let mut lb_relaxed = ReadsFrom::new();
    lb_relaxed.record(OpId::new(Tid(0), 0), Value(2));
    lb_relaxed.record(OpId::new(Tid(1), 0), Value(1));
    assert!(!check_one(&lb.program, Mcm::Sc, &lb_relaxed));
    assert!(!check_one(&lb.program, Mcm::Tso, &lb_relaxed));
    assert!(check_one(&lb.program, Mcm::Weak, &lb_relaxed));
    // And the oracle agrees.
    let weak = enumerate_outcomes(&lb.program, Mcm::Weak, 1_000_000).unwrap();
    assert!(weak.contains(&lb_relaxed));
    let tso = enumerate_outcomes(&lb.program, Mcm::Tso, 1_000_000).unwrap();
    assert!(!tso.contains(&lb_relaxed));
}

/// Partial barriers: `dmb st` + `dmb ld` forbid the MP stale-data outcome
/// under every model, while `dmb st` alone leaves SB relaxed — both the
/// oracle and the checker agree.
#[test]
fn partial_fences_order_exactly_their_kind() {
    // MP with partial fences: stale outcome gone even under Weak.
    let mp = litmus::message_passing_partial_fences();
    // Store ids: T0 st X -> 1, T0 st Y -> 2.
    let mut stale = ReadsFrom::new();
    stale.record(OpId::new(Tid(1), 0), Value(2));
    stale.record(OpId::new(Tid(1), 2), Value::INIT);
    for mcm in Mcm::ALL {
        let outcomes = enumerate_outcomes(&mp.program, mcm, 1_000_000).unwrap();
        assert!(
            !outcomes.contains(&stale),
            "{mcm}: oracle allows fenced MP stale"
        );
        assert!(
            !check_one(&mp.program, mcm, &stale),
            "{mcm}: checker passes fenced MP stale"
        );
    }

    // SB with store-store fences: relaxed outcome still allowed under
    // TSO/Weak (the fence orders the wrong pair), forbidden under SC.
    let sb = litmus::store_buffering_partial_fences();
    let mut relaxed = ReadsFrom::new();
    relaxed.record(OpId::new(Tid(0), 2), Value::INIT);
    relaxed.record(OpId::new(Tid(1), 2), Value::INIT);
    let tso = enumerate_outcomes(&sb.program, Mcm::Tso, 1_000_000).unwrap();
    assert!(tso.contains(&relaxed), "dmb st must not fix SB under TSO");
    assert!(check_one(&sb.program, Mcm::Tso, &relaxed));
    let sc = enumerate_outcomes(&sb.program, Mcm::Sc, 1_000_000).unwrap();
    assert!(!sc.contains(&relaxed));
    assert!(!check_one(&sb.program, Mcm::Sc, &relaxed));
}

/// One-sided fencing: MP with only the reader fenced stays relaxed under
/// Weak; LB with full fences is fixed everywhere.
#[test]
fn one_sided_and_full_fencing_variants() {
    let mp = litmus::message_passing_reader_fence_only();
    // Store ids: T0 st X -> 1, T0 st Y -> 2. Reader: ld Y at idx 0,
    // fence at 1, ld X at 2.
    let mut stale = ReadsFrom::new();
    stale.record(OpId::new(Tid(1), 0), Value(2));
    stale.record(OpId::new(Tid(1), 2), Value::INIT);
    let weak = enumerate_outcomes(&mp.program, Mcm::Weak, 1_000_000).unwrap();
    assert!(
        weak.contains(&stale),
        "reader fence alone must not fix MP under Weak"
    );
    assert!(check_one(&mp.program, Mcm::Weak, &stale));
    assert!(
        !check_one(&mp.program, Mcm::Tso, &stale),
        "TSO forbids stale MP regardless"
    );

    let lb = litmus::load_buffering_fenced();
    // Store ids: T0 st Y -> 1, T1 st X -> 2; loads at idx 0 of each thread.
    let mut relaxed = ReadsFrom::new();
    relaxed.record(OpId::new(Tid(0), 0), Value(2));
    relaxed.record(OpId::new(Tid(1), 0), Value(1));
    for mcm in Mcm::ALL {
        let outcomes = enumerate_outcomes(&lb.program, mcm, 1_000_000).unwrap();
        assert!(
            !outcomes.contains(&relaxed),
            "{mcm}: fenced LB relaxed reachable"
        );
        assert!(
            !check_one(&lb.program, mcm, &relaxed),
            "{mcm}: checker passes fenced LB"
        );
    }
}
