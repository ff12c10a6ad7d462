//! Differential checker-oracle suite: a slow, obviously-correct reference
//! checker (naive per-graph DFS cycle detection over plain edge lists) is
//! run against every production checker entry point — `check_conventional`
//! and `CollectiveChecker` (single and split windows, whole-slice, chunked,
//! pushed one graph at a time, and pushed as a running delta) — on
//! proptest-generated `(program, Mcm, ReadsFrom)` triples, asserting
//! identical verdicts, consistent stats, and diagnosable cycles.
//!
//! The reference checker shares *no* code with the hot path: it folds the
//! spec's static successors and the observation's edge pairs into a fresh
//! `Vec<Vec<u32>>` and runs an iterative three-colour DFS. Any rewrite of
//! the production adjacency layout (maps, CSR, overlays) is therefore
//! checked against an independent definition of "has a cycle".
//!
//! CI runs this suite with `PROPTEST_CASES=1024`.

use mtracecheck::graph::{
    check_conventional, classify_cycle, even_chunk_lengths, explain_violation, CheckOptions,
    CollectiveChecker, CollectiveOutcome, DeltaObservations, EdgeReason, ObservedEdges,
    TestGraphSpec,
};
use mtracecheck::isa::{IsaKind, Mcm, OpId, Program, ReadsFrom, Value};
use mtracecheck::sim::{Simulator, SystemConfig};
use mtracecheck::testgen::{generate, TestConfig};
use proptest::prelude::*;

/// Naive reference verdict for one graph: true iff the constraint graph
/// (static edges + observed edges) contains a cycle. Iterative
/// three-colour DFS over a freshly built adjacency list — quadratic-ish
/// allocation behaviour and proud of it.
fn reference_has_cycle(spec: &TestGraphSpec, obs: &ObservedEdges) -> bool {
    let n = spec.num_vertices();
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
    for v in 0..n as u32 {
        adj[v as usize].extend_from_slice(spec.static_successors(v));
    }
    for &(u, v) in obs.edges() {
        adj[u as usize].push(v);
    }
    // 0 = white, 1 = grey (on stack), 2 = black.
    let mut color = vec![0u8; n];
    for root in 0..n {
        if color[root] != 0 {
            continue;
        }
        // Stack of (vertex, next-successor-index).
        let mut stack: Vec<(usize, usize)> = vec![(root, 0)];
        color[root] = 1;
        while let Some(&mut (v, ref mut next)) = stack.last_mut() {
            if *next < adj[v].len() {
                let w = adj[v][*next] as usize;
                *next += 1;
                match color[w] {
                    0 => {
                        color[w] = 1;
                        stack.push((w, 0));
                    }
                    1 => return true,
                    _ => {}
                }
            } else {
                color[v] = 2;
                stack.pop();
            }
        }
    }
    false
}

fn check_single(spec: &TestGraphSpec, observations: &[ObservedEdges]) -> CollectiveOutcome {
    CollectiveChecker::new(spec).check_all(observations, false)
}

/// The chunk plan a chunked campaign runs: `chunks` consecutive near-equal
/// slices, each checked by a fresh checker, outcomes concatenated.
fn check_chunked(
    spec: &TestGraphSpec,
    observations: &[ObservedEdges],
    chunks: usize,
) -> CollectiveOutcome {
    let mut rest = observations;
    even_chunk_lengths(observations.len(), chunks)
        .into_iter()
        .map(|len| {
            let (chunk, tail) = rest.split_at(len);
            rest = tail;
            CollectiveChecker::new(spec).check_all(chunk, false)
        })
        .collect()
}

/// `push` and `push_delta` share one incremental body: fed the same
/// sequence — as materialized edge sets, and as a running add/remove
/// delta — they must agree on every verdict, FAIL cycle, certificate byte
/// and stat, under both window modes.
fn assert_push_forms_agree(
    spec: &TestGraphSpec,
    observations: &[ObservedEdges],
) -> Result<(), String> {
    for split in [false, true] {
        let fresh = || {
            let checker = CollectiveChecker::new(spec);
            if split {
                checker.with_split_windows()
            } else {
                checker
            }
        };
        let mut reference = fresh();
        let mut delta_checker = fresh();
        let mut set = DeltaObservations::new(spec.num_vertices());
        let mut prev = ObservedEdges::default();
        for (i, obs) in observations.iter().enumerate() {
            set.begin();
            for (u, v) in prev.difference(obs) {
                set.remove(u, v);
            }
            for (u, v) in obs.difference(&prev) {
                set.add(u, v);
            }
            prev.clone_from(obs);
            prop_assert_eq!(
                reference.push(obs),
                delta_checker.push_delta(&set),
                "graph {} verdict (split={})",
                i,
                split
            );
            prop_assert_eq!(
                reference.last_certificate().map(|c| c.to_bytes()),
                delta_checker.last_certificate().map(|c| c.to_bytes()),
                "graph {} certificate (split={})",
                i,
                split
            );
        }
        prop_assert_eq!(reference.stats(), delta_checker.stats(), "split={}", split);
    }
    Ok(())
}

/// Run every production entry point on the same observation sequence and
/// assert each one's per-graph verdicts equal the reference checker's.
fn assert_all_checkers_match_reference(
    program: &Program,
    spec: &TestGraphSpec,
    rfs: &[ReadsFrom],
    observations: &[ObservedEdges],
) -> Result<(), String> {
    let expected: Vec<bool> = observations
        .iter()
        .map(|o| reference_has_cycle(spec, o))
        .collect();
    let expected_violations = expected.iter().filter(|&&c| c).count();

    let conventional = check_conventional(spec, observations, false);
    let collective = check_single(spec, observations);
    let split = CollectiveChecker::new(spec)
        .with_split_windows()
        .check_all(observations, false);
    let chunked = check_chunked(spec, observations, 3);

    for (label, results) in [
        ("conventional", &conventional.results),
        ("collective", &collective.results),
        ("split", &split.results),
        ("chunked", &chunked.results),
    ] {
        prop_assert_eq!(results.len(), expected.len(), "{} result count", label);
        for (i, (r, &cyclic)) in results.iter().zip(&expected).enumerate() {
            prop_assert_eq!(
                r.is_err(),
                cyclic,
                "{} verdict for graph {} disagrees with reference DFS",
                label,
                i
            );
        }
    }

    // Streaming checker, one push at a time.
    let mut checker = CollectiveChecker::new(spec);
    for (i, (obs, &cyclic)) in observations.iter().zip(&expected).enumerate() {
        prop_assert_eq!(
            checker.push(obs).is_err(),
            cyclic,
            "streaming verdict for graph {} disagrees with reference DFS",
            i
        );
    }

    // Stats coherence across the family.
    prop_assert_eq!(conventional.stats.violations, expected_violations);
    prop_assert_eq!(conventional.stats.graphs, observations.len());
    for (label, stats) in [
        ("collective", &collective.stats),
        ("split", &split.stats),
        ("chunked", &chunked.stats),
        ("stream", checker.stats()),
    ] {
        prop_assert_eq!(
            stats.violations,
            expected_violations,
            "{} violations",
            label
        );
        prop_assert_eq!(stats.graphs, observations.len(), "{} graphs", label);
        prop_assert_eq!(
            stats.complete + stats.no_resort + stats.incremental,
            stats.graphs,
            "{}: Figure 14 identity broken",
            label
        );
    }

    assert_push_forms_agree(spec, observations)?;

    // Every reported cycle must diagnose: one classified edge per cycle
    // vertex, at least one re-derivable reason (a fully-`??` cycle would
    // mean the diagnosis machinery lost the observation), and the
    // Figure 13-style report renders.
    for (i, r) in conventional.results.iter().enumerate() {
        if let Err(v) = r {
            prop_assert!(!v.cycle.is_empty());
            let kinds = classify_cycle(program, spec, &rfs[i], v);
            prop_assert_eq!(kinds.len(), v.cycle.len());
            prop_assert!(
                kinds.iter().any(|e| e.reason != EdgeReason::Unknown),
                "cycle for graph {} is entirely inexplicable",
                i
            );
            let report = explain_violation(program, spec, &rfs[i], v);
            prop_assert!(report.contains("cycle"));
        }
    }
    Ok(())
}

fn system_for(isa: IsaKind) -> SystemConfig {
    match isa {
        IsaKind::X86 => SystemConfig::x86_desktop(),
        IsaKind::Arm => SystemConfig::arm_soc(),
    }
    .with_aggressive_interleaving()
}

/// A random `ReadsFrom`: each load gets an arbitrary candidate value in
/// `0..=num_stores` (store ids are 1-based; 0 is init). Most such
/// observations are illegal under the model — exactly the mixture the
/// differential harness wants.
fn random_reads_from(program: &Program, picks: &[u64]) -> ReadsFrom {
    let stores = program.num_stores() as u64;
    let mut rf = ReadsFrom::new();
    for (i, load) in program.loads().enumerate() {
        let pick = picks[i % picks.len()].wrapping_add(i as u64);
        rf.record(load, Value((pick % (stores + 1)) as u32));
    }
    rf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Simulator-produced (legal) observations plus random (mostly
    /// illegal) ones, across all three models and both ISAs: every
    /// checker entry point agrees with the reference DFS on every graph.
    #[test]
    fn checkers_agree_with_reference_dfs(
        seed in any::<u64>(),
        threads in 2u32..5,
        ops in 4u32..20,
        addrs in 1u32..6,
        fence_fraction in 0.0f64..0.3,
        mcm in prop::sample::select(vec![Mcm::Sc, Mcm::Tso, Mcm::Weak]),
        isa in prop::sample::select(vec![IsaKind::Arm, IsaKind::X86]),
        picks in prop::collection::vec(any::<u64>(), 1..8),
    ) {
        let test = TestConfig::new(isa, threads, ops, addrs)
            .with_seed(seed)
            .with_fence_fraction(fence_fraction)
            .with_mcm(mcm);
        let program = generate(&test);
        let spec = TestGraphSpec::new(&program, mcm);

        let mut rfs: Vec<ReadsFrom> = Vec::new();
        let mut sim = Simulator::new(&program, system_for(isa));
        for s in 0..12u64 {
            rfs.push(sim.run(s).expect("no crash").reads_from);
        }
        for (i, &p) in picks.iter().enumerate() {
            rfs.push(random_reads_from(&program, &[p, seed.rotate_left(i as u32)]));
        }
        let observations: Vec<_> = rfs
            .iter()
            .map(|rf| spec.observe(&program, rf, &CheckOptions::default()))
            .collect();
        assert_all_checkers_match_reference(&program, &spec, &rfs, &observations)?;
    }

    /// Degenerate: single-thread programs. Program order totally orders
    /// every vertex, so only anti-coherent self-observations can cycle.
    #[test]
    fn single_thread_programs(
        seed in any::<u64>(),
        ops in 1u32..24,
        addrs in 1u32..4,
        picks in prop::collection::vec(any::<u64>(), 1..6),
        mcm in prop::sample::select(vec![Mcm::Sc, Mcm::Tso, Mcm::Weak]),
    ) {
        let test = TestConfig::new(IsaKind::Arm, 1, ops, addrs)
            .with_seed(seed)
            .with_mcm(mcm);
        let program = generate(&test);
        let spec = TestGraphSpec::new(&program, mcm);
        let rfs: Vec<ReadsFrom> = picks
            .iter()
            .map(|&p| random_reads_from(&program, &[p]))
            .collect();
        let observations: Vec<_> = rfs
            .iter()
            .map(|rf| spec.observe(&program, rf, &CheckOptions::default()))
            .collect();
        assert_all_checkers_match_reference(&program, &spec, &rfs, &observations)?;
    }

    /// Degenerate: all-identical signatures. After the first full sort the
    /// collective checker must take the no-resort fast path for every
    /// subsequent graph, and verdicts still match the reference.
    #[test]
    fn all_identical_observations(
        seed in any::<u64>(),
        threads in 2u32..4,
        ops in 4u32..16,
        copies in 2usize..12,
        mcm in prop::sample::select(vec![Mcm::Sc, Mcm::Tso, Mcm::Weak]),
    ) {
        let test = TestConfig::new(IsaKind::X86, threads, ops, 3)
            .with_seed(seed)
            .with_mcm(mcm);
        let program = generate(&test);
        let spec = TestGraphSpec::new(&program, mcm);
        let mut sim = Simulator::new(&program, system_for(IsaKind::X86));
        let rf = sim.run(seed % 17).expect("no crash").reads_from;
        let rfs: Vec<ReadsFrom> = std::iter::repeat_n(rf, copies).collect();
        let observations: Vec<_> = rfs
            .iter()
            .map(|r| spec.observe(&program, r, &CheckOptions::default()))
            .collect();
        assert_all_checkers_match_reference(&program, &spec, &rfs, &observations)?;

        // Identical graphs hit exactly one of two regimes: acyclic repeats
        // all take the no-resort fast path after one full sort; a cyclic
        // repeat forces a recovery full sort on every push.
        let collective = check_single(&spec, &observations);
        prop_assert_eq!(collective.stats.resorted_vertices, 0);
        if reference_has_cycle(&spec, &observations[0]) {
            prop_assert_eq!(collective.stats.complete, copies);
            prop_assert_eq!(collective.stats.no_resort, 0);
        } else {
            prop_assert_eq!(collective.stats.complete, 1);
            prop_assert_eq!(collective.stats.no_resort, copies - 1);
        }
    }
}

/// Degenerate: the empty observation set. Every entry point must return
/// zero graphs, zero violations, and the streaming checker must report
/// empty stats.
#[test]
fn empty_observation_set() {
    let test = TestConfig::new(IsaKind::Arm, 2, 8, 2).with_seed(7);
    let program = generate(&test);
    let spec = TestGraphSpec::new(&program, test.mcm);
    let observations: Vec<ObservedEdges> = Vec::new();

    let conventional = check_conventional(&spec, &observations, false);
    assert_eq!(conventional.results.len(), 0);
    assert_eq!(conventional.stats.graphs, 0);
    assert_eq!(conventional.stats.violations, 0);

    let collective = check_single(&spec, &observations);
    assert_eq!(collective.results.len(), 0);
    assert_eq!(collective.stats.graphs, 0);

    let split = CollectiveChecker::new(&spec)
        .with_split_windows()
        .check_all(&observations, false);
    assert_eq!(split.results.len(), 0);

    let chunked = check_chunked(&spec, &observations, 4);
    assert_eq!(chunked.results.len(), 0);
    assert_eq!(chunked.stats.graphs, 0);

    let checker = CollectiveChecker::new(&spec);
    assert_eq!(checker.stats().graphs, 0);
}

/// The reference DFS itself is sane: it flags the canonical SC-forbidden
/// store-buffering outcome and passes the SC-allowed ones. (A broken
/// reference would make every differential assertion vacuous.)
#[test]
fn reference_checker_flags_known_violation() {
    use mtracecheck::isa::{litmus, Tid};
    let sb = litmus::store_buffering();
    let spec = TestGraphSpec::new(&sb.program, Mcm::Sc);

    let mut relaxed = ReadsFrom::new();
    relaxed.record(OpId::new(Tid(0), 1), Value::INIT);
    relaxed.record(OpId::new(Tid(1), 1), Value::INIT);
    let obs = spec.observe(&sb.program, &relaxed, &CheckOptions::default());
    assert!(
        reference_has_cycle(&spec, &obs),
        "reference DFS must flag SB under SC"
    );

    let mut legal = ReadsFrom::new();
    legal.record(OpId::new(Tid(0), 1), Value(2));
    legal.record(OpId::new(Tid(1), 1), Value(1));
    let obs = spec.observe(&sb.program, &legal, &CheckOptions::default());
    assert!(
        !reference_has_cycle(&spec, &obs),
        "reference DFS must pass the legal SB outcome"
    );
}
