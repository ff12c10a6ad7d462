//! Cross-crate property tests: the invariants that tie the simulator,
//! instrumentation and checkers together.

use mtracecheck::graph::{check_conventional, CheckOptions, CollectiveChecker, TestGraphSpec};
use mtracecheck::instr::{analyze, SignatureSchema, SourcePruning};
use mtracecheck::isa::{IsaKind, OpId, ReadsFrom, Value};
use mtracecheck::sim::{Simulator, SystemConfig};
use mtracecheck::testgen::{generate, TestConfig};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn system_for(isa: IsaKind) -> SystemConfig {
    // Energetic interleaving: more distinct graphs per proptest case.
    match isa {
        IsaKind::X86 => SystemConfig::x86_desktop(),
        IsaKind::Arm => SystemConfig::arm_soc(),
    }
    .with_aggressive_interleaving()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Signatures round-trip through the full pipeline: simulate, encode,
    /// decode, and recover exactly the observed reads-from set.
    #[test]
    fn simulate_encode_decode_roundtrip(
        seed in any::<u64>(),
        threads in 2u32..6,
        ops in 4u32..32,
        addrs in 1u32..12,
        isa in prop::sample::select(vec![IsaKind::Arm, IsaKind::X86]),
    ) {
        let test = TestConfig::new(isa, threads, ops, addrs).with_seed(seed);
        let program = generate(&test);
        let analysis = analyze(&program, &SourcePruning::none());
        let schema = SignatureSchema::build(&program, &analysis, isa.register_bits());
        let mut sim = Simulator::new(&program, system_for(isa));
        for run_seed in 0..40u64 {
            let exec = sim.run(run_seed).expect("correct hardware never crashes");
            let sig = schema.encode(&exec.reads_from)
                .expect("legal executions never fire the assertion");
            prop_assert_eq!(schema.decode(&sig).expect("decode"), exec.reads_from);
        }
    }

    /// Every execution a correct simulated platform produces yields an
    /// acyclic constraint graph — the checker has no false positives.
    #[test]
    fn legal_executions_are_acyclic(
        seed in any::<u64>(),
        threads in 2u32..6,
        ops in 4u32..24,
        addrs in 1u32..8,
        isa in prop::sample::select(vec![IsaKind::Arm, IsaKind::X86]),
    ) {
        let test = TestConfig::new(isa, threads, ops, addrs).with_seed(seed);
        let program = generate(&test);
        let spec = TestGraphSpec::new(&program, test.mcm);
        let mut sim = Simulator::new(&program, system_for(isa));
        let observations: Vec<_> = (0..60u64)
            .map(|s| {
                let rf = sim.run(s).expect("no crash").reads_from;
                spec.observe(&program, &rf, &CheckOptions::default())
            })
            .collect();
        let outcome = check_conventional(&spec, &observations, false);
        prop_assert_eq!(outcome.violation_count(), 0);
    }

    /// The collective checker agrees with conventional per-graph checking
    /// on every graph — including corrupted (violating) ones — while doing
    /// no more work.
    #[test]
    fn collective_equals_conventional(
        seed in any::<u64>(),
        threads in 2u32..5,
        ops in 6u32..24,
        addrs in 1u32..6,
        corruptions in prop::collection::vec((any::<u64>(), any::<u64>()), 0..6),
    ) {
        let isa = IsaKind::Arm;
        let test = TestConfig::new(isa, threads, ops, addrs).with_seed(seed);
        let program = generate(&test);
        let analysis = analyze(&program, &SourcePruning::none());
        let schema = SignatureSchema::build(&program, &analysis, 64);
        let spec = TestGraphSpec::new(&program, test.mcm);
        let mut sim = Simulator::new(&program, system_for(isa));

        // Unique executions in ascending-signature order, as the real
        // pipeline produces them.
        let mut unique = BTreeMap::new();
        for s in 0..80u64 {
            let rf = sim.run(s).expect("no crash").reads_from;
            let sig = schema.encode(&rf).expect("legal execution");
            unique.insert(sig, rf);
        }
        // Corrupt some executions to synthesize violations: overwrite one
        // load's observed value with another random candidate.
        let loads: Vec<OpId> = program.loads().collect();
        let mut rfs: Vec<ReadsFrom> = unique.into_values().collect();
        if !loads.is_empty() && !rfs.is_empty() {
            for (pick, val) in corruptions {
                let i = (pick % rfs.len() as u64) as usize;
                let load = loads[(pick / 7 % loads.len() as u64) as usize];
                let v = Value((val % (program.num_stores() as u64 + 1)) as u32);
                rfs[i].record(load, v);
            }
        }
        let observations: Vec<_> = rfs
            .iter()
            .map(|rf| spec.observe(&program, rf, &CheckOptions::default()))
            .collect();

        let collective = CollectiveChecker::new(&spec).check_all(&observations, false);
        let conventional = check_conventional(&spec, &observations, false);
        prop_assert_eq!(collective.results.len(), conventional.results.len());
        for (i, (a, b)) in collective
            .results
            .iter()
            .zip(conventional.results.iter())
            .enumerate()
        {
            prop_assert_eq!(
                a.is_ok(),
                b.is_ok(),
                "graph {} verdict differs (collective {:?} vs conventional {:?})",
                i, a.is_ok(), b.is_ok()
            );
        }
        // The strict work advantage holds in the realistic regime (many
        // similar graphs; see the pipeline integration tests). On these
        // tiny adversarial sequences the per-graph diff overhead can eat
        // the margin, so only bound the overhead factor here.
        prop_assert!(collective.stats.work <= conventional.stats.work * 2);
    }

    /// Static pruning only ever shrinks candidate sets and signature size,
    /// and an unpruned schema still decodes everything the pruned one can
    /// encode.
    #[test]
    fn pruning_is_monotone(
        seed in any::<u64>(),
        window in 1u32..16,
    ) {
        let test = TestConfig::new(IsaKind::Arm, 4, 24, 4).with_seed(seed);
        let program = generate(&test);
        let full = analyze(&program, &SourcePruning::none());
        let pruned = analyze(&program, &SourcePruning::with_lsq_window(window));
        for (op, cands) in pruned.iter() {
            let full_cands = full.candidates(op).expect("same loads");
            prop_assert!(cands.len() <= full_cands.len());
            for c in cands {
                prop_assert!(full_cands.contains(c));
            }
        }
        let schema_full = SignatureSchema::build(&program, &full, 32);
        let schema_pruned = SignatureSchema::build(&program, &pruned, 32);
        prop_assert!(schema_pruned.signature_bytes() <= schema_full.signature_bytes());
    }
}

/// Deterministic regression: the checker flags a synthetic anti-coherent
/// observation on a generated test (not just litmus shapes).
#[test]
fn synthetic_violation_is_flagged() {
    // Needs two same-address loads in one thread (the second with no own
    // store before it) and a remote store to that address; claim the first
    // read the store and the second read init. Not every generated test has
    // the shape, so take the first seed in a fixed range that does — the
    // test stays pinned to one program without depending on which one the
    // generator's random stream yields for a particular seed.
    let (test, program, (l1, l2, store)) = (0..200u64)
        .find_map(|seed| {
            let test = TestConfig::new(IsaKind::X86, 2, 10, 2).with_seed(seed);
            let program = generate(&test);
            let shape = program
                .iter_ops()
                .filter(|(_, i)| i.is_load())
                .flat_map(|l1| {
                    program
                        .iter_ops()
                        .filter(|(_, i)| i.is_load())
                        .map(move |l2| (l1, l2))
                })
                .find_map(|((l1, i1), (l2, i2))| {
                    if l1.tid != l2.tid || l1.idx >= l2.idx || i1.addr() != i2.addr() {
                        return None;
                    }
                    if program.last_own_store_before(l2).is_some() {
                        return None;
                    }
                    let addr = i1.addr().expect("loads have addresses");
                    let (_, id) = program.stores_to(addr).find(|(op, _)| op.tid != l1.tid)?;
                    Some((l1, l2, id))
                })?;
            Some((test, program, shape))
        })
        .expect("some seed in 0..200 produces the load/load/store shape");
    let spec = TestGraphSpec::new(&program, test.mcm);

    let mut rf = ReadsFrom::new();
    for load in program.loads() {
        // Fill every other load with a benign own-thread/init value.
        let benign = match program.last_own_store_before(load) {
            Some((_, id)) => Value::from(id),
            None => Value::INIT,
        };
        rf.record(load, benign);
    }
    rf.record(l1, Value::from(store));
    rf.record(l2, Value::INIT);
    let obs = spec.observe(&program, &rf, &CheckOptions::default());
    let outcome = check_conventional(&spec, &[obs], false);
    assert_eq!(
        outcome.violation_count(),
        1,
        "anti-coherent pair must cycle"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Witness soundness: the simulator's commit order is a topological
    /// order of the execution's constraint graph — every static and
    /// observed edge points forward in commit time. This is the formal core
    /// of "legal executions are acyclic".
    #[test]
    fn commit_order_is_a_topological_witness(
        seed in any::<u64>(),
        threads in 2u32..5,
        ops in 4u32..20,
        addrs in 1u32..8,
        fence_fraction in 0.0f64..0.3,
        isa in prop::sample::select(vec![IsaKind::Arm, IsaKind::X86]),
    ) {
        let test = TestConfig::new(isa, threads, ops, addrs)
            .with_seed(seed)
            .with_fence_fraction(fence_fraction);
        let program = generate(&test);
        let spec = TestGraphSpec::new(&program, test.mcm);
        let mut sim = Simulator::new(&program, system_for(isa));
        sim.set_trace(true);
        for run_seed in 0..25u64 {
            let exec = sim.run(run_seed).expect("no crash");
            let mut pos = vec![0usize; spec.num_vertices()];
            for (at, &op) in exec.trace.iter().enumerate() {
                pos[spec.vertex(op) as usize] = at;
            }
            let obs = spec.observe(&program, &exec.reads_from, &CheckOptions::default());
            for v in 0..spec.num_vertices() as u32 {
                for &w in spec.static_successors(v) {
                    prop_assert!(
                        pos[v as usize] < pos[w as usize],
                        "static edge {} -> {} backward in commit order",
                        spec.op(v), spec.op(w)
                    );
                }
            }
            for &(u, v) in obs.edges() {
                prop_assert!(
                    pos[u as usize] < pos[v as usize],
                    "observed edge {} -> {} backward in commit order",
                    spec.op(u), spec.op(v)
                );
            }
        }
    }
}

/// Pinned regression: a proptest-shrunk case where an x86 program with
/// fences once produced a commit trace with a backward constraint edge
/// (a store buffer drain was recorded behind an already-committed load it
/// ordered). Folded in from `cross_crate_props.proptest-regressions` so
/// the case runs by name on every `cargo test`, not only under proptest's
/// seed-replay machinery.
#[test]
fn commit_order_witness_regression_x86_fenced_shrink() {
    let test = TestConfig::new(IsaKind::X86, 3, 18, 2)
        .with_seed(61302183897408593)
        .with_fence_fraction(0.1682557769700789);
    let program = generate(&test);
    let spec = TestGraphSpec::new(&program, test.mcm);
    let mut sim = Simulator::new(&program, system_for(IsaKind::X86));
    sim.set_trace(true);
    for run_seed in 0..25u64 {
        let exec = sim.run(run_seed).expect("no crash");
        let mut pos = vec![0usize; spec.num_vertices()];
        for (at, &op) in exec.trace.iter().enumerate() {
            pos[spec.vertex(op) as usize] = at;
        }
        let obs = spec.observe(&program, &exec.reads_from, &CheckOptions::default());
        for v in 0..spec.num_vertices() as u32 {
            for &w in spec.static_successors(v) {
                assert!(
                    pos[v as usize] < pos[w as usize],
                    "static edge {} -> {} backward in commit order",
                    spec.op(v),
                    spec.op(w)
                );
            }
        }
        for &(u, v) in obs.edges() {
            assert!(
                pos[u as usize] < pos[v as usize],
                "observed edge {} -> {} backward in commit order",
                spec.op(u),
                spec.op(v)
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Merging per-worker signature multisets is associative, commutative,
    /// and count-preserving — the algebra the sharded campaign reduction
    /// relies on.
    #[test]
    fn signature_map_merge_algebra(
        raw in prop::collection::vec((0u64..12, 1u64..5), 0..24),
        split_a in any::<u64>(),
        split_b in any::<u64>(),
    ) {
        use mtracecheck::instr::ExecutionSignature;
        use mtracecheck::merge_signature_maps;

        // Distribute the same observations into three worker maps two
        // different ways.
        let entry = |w: u64| ExecutionSignature::from_words(vec![w, w ^ 0xABCD]);
        let total: u64 = raw.iter().map(|&(_, c)| c).sum();
        let mut plan_a: Vec<BTreeMap<ExecutionSignature, u64>> = vec![BTreeMap::new(); 3];
        let mut plan_b: Vec<BTreeMap<ExecutionSignature, u64>> = vec![BTreeMap::new(); 3];
        for (i, &(word, count)) in raw.iter().enumerate() {
            let a = ((split_a >> (i % 32)) % 3) as usize;
            let b = ((split_b >> (i % 32)) % 3) as usize;
            *plan_a[a].entry(entry(word)).or_insert(0) += count;
            *plan_b[b].entry(entry(word)).or_insert(0) += count;
        }

        // Same multiset regardless of how workers partitioned the stream.
        let merged_a = merge_signature_maps(plan_a.clone());
        let merged_b = merge_signature_maps(plan_b.clone());
        prop_assert_eq!(&merged_a, &merged_b);
        prop_assert_eq!(merged_a.values().sum::<u64>(), total);

        // Commutative: reversed worker order.
        let mut reversed = plan_a.clone();
        reversed.reverse();
        prop_assert_eq!(&merge_signature_maps(reversed), &merged_a);

        // Associative: pre-merging any prefix changes nothing.
        let prefix = merge_signature_maps(plan_a[..2].to_vec());
        let regrouped = merge_signature_maps(vec![prefix, plan_a[2].clone()]);
        prop_assert_eq!(&regrouped, &merged_a);

        // Identity: empty maps are invisible.
        let mut padded = plan_a;
        padded.push(BTreeMap::new());
        prop_assert_eq!(&merge_signature_maps(padded), &merged_a);
    }

    /// The singleton set handed to the coverage tracker — signatures whose
    /// final count is exactly one — is independent of how the iteration
    /// stream was split across workers.
    #[test]
    fn singletons_survive_any_split(
        raw in prop::collection::vec((0u64..10, 1u64..4), 1..20),
        split in any::<u64>(),
    ) {
        use mtracecheck::instr::ExecutionSignature;
        use mtracecheck::merge_signature_maps;

        let entry = |w: u64| ExecutionSignature::from_words(vec![w]);
        let mut whole: BTreeMap<ExecutionSignature, u64> = BTreeMap::new();
        let mut shards: Vec<BTreeMap<ExecutionSignature, u64>> = vec![BTreeMap::new(); 4];
        for (i, &(word, count)) in raw.iter().enumerate() {
            *whole.entry(entry(word)).or_insert(0) += count;
            *shards[((split >> (i % 48)) % 4) as usize]
                .entry(entry(word))
                .or_insert(0) += count;
        }
        let merged = merge_signature_maps(shards);
        let singletons = |m: &BTreeMap<ExecutionSignature, u64>| -> Vec<ExecutionSignature> {
            m.iter()
                .filter(|&(_, &c)| c == 1)
                .map(|(s, _)| s.clone())
                .collect()
        };
        prop_assert_eq!(singletons(&merged), singletons(&whole));

        // Feeding the discovery stream to CoverageTracker in shard order
        // ends at the same (iterations, unique, singleton-count) totals.
        use mtracecheck::CoverageTracker;
        let mut tracker = CoverageTracker::new();
        let mut seen = std::collections::BTreeSet::new();
        for (sig, count) in &merged {
            for _ in 0..*count {
                tracker.record(seen.insert(sig.clone()));
            }
        }
        let curve = tracker.finish(singletons(&merged).len() as u64);
        prop_assert_eq!(curve.iterations(), whole.values().sum::<u64>());
        prop_assert_eq!(curve.unique(), whole.len() as u64);
    }

    /// Differential testing against the exhaustive oracle on random small
    /// programs (not just litmus shapes): every outcome the randomized
    /// simulator produces must be reachable in the oracle's enumeration of
    /// the MCM's operational semantics.
    #[test]
    fn simulator_outcomes_within_exhaustive_oracle(
        seed in any::<u64>(),
        threads in 2u32..4,
        ops in 1u32..5,
        addrs in 1u32..3,
        fence_fraction in 0.0f64..0.4,
        isa in prop::sample::select(vec![IsaKind::Arm, IsaKind::X86]),
    ) {
        use mtracecheck::sim::enumerate_outcomes;
        let test = TestConfig::new(isa, threads, ops, addrs)
            .with_seed(seed)
            .with_fence_fraction(fence_fraction);
        let program = generate(&test);
        let allowed = enumerate_outcomes(&program, test.mcm, 3_000_000)
            .expect("small programs enumerate");
        let mut sim = Simulator::new(&program, system_for(isa));
        for run_seed in 0..80u64 {
            let rf = sim.run(run_seed).expect("no crash").reads_from;
            prop_assert!(
                allowed.contains(&rf),
                "simulator produced an outcome outside the {} oracle: {rf}\n{program}",
                test.mcm
            );
        }
    }
}
