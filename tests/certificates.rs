//! Certificate tamper-resistance: every structured single-field mutation
//! of a valid verdict certificate — corrupted magic, bumped version,
//! flipped kind, resized length field, truncated buffer, out-of-range,
//! duplicated, or emptied payload — must be rejected by the independent
//! verifier or the codec's framing.
//!
//! A certificate is *accepted* only when it parses, consumes its whole
//! buffer, and replays cleanly against the graph spec under the original
//! verdict; anything less counts as rejection. PASS witnesses come from
//! proptest-generated programs on a correct simulated platform, FAIL
//! cycles from the litmus corpus checked under models that forbid some of
//! the enumerated outcomes.

use mtracecheck::certify::verify_verdict;
use mtracecheck::graph::{
    check_conventional, Certificate, CheckOptions, ObservedEdges, TestGraphSpec,
};
use mtracecheck::isa::{litmus, IsaKind, Mcm};
use mtracecheck::sim::{enumerate_outcomes, Simulator, SystemConfig};
use mtracecheck::testgen::{generate, TestConfig};
use proptest::prelude::*;

fn system_for(isa: IsaKind) -> SystemConfig {
    match isa {
        IsaKind::X86 => SystemConfig::x86_desktop(),
        IsaKind::Arm => SystemConfig::arm_soc(),
    }
    .with_aggressive_interleaving()
}

/// Full acceptance pipeline: parse, exact framing, verdict-aware replay.
fn accepts(spec: &TestGraphSpec, obs: &ObservedEdges, bytes: &[u8], verdict_failed: bool) -> bool {
    match Certificate::from_bytes(bytes) {
        Ok((cert, used)) if used == bytes.len() => {
            verify_verdict(spec, obs, &cert, verdict_failed).is_ok()
        }
        _ => false,
    }
}

/// Applies every structured single-field mutation to one valid certificate
/// and returns a description of each mutation that was wrongly accepted.
fn surviving_mutations(
    spec: &TestGraphSpec,
    obs: &ObservedEdges,
    cert: &Certificate,
    verdict_failed: bool,
) -> Vec<String> {
    let bytes = cert.to_bytes();
    assert!(
        accepts(spec, obs, &bytes, verdict_failed),
        "the unmutated certificate must verify"
    );
    let mut survivors = Vec::new();
    let mut check = |label: &str, mutated: Vec<u8>| {
        if accepts(spec, obs, &mutated, verdict_failed) {
            survivors.push(label.to_owned());
        }
    };

    // Magic and version: any corrupted byte must fail the parse.
    for i in 0..6 {
        let mut m = bytes.clone();
        m[i] ^= 0xff;
        check(&format!("header byte {i} corrupted"), m);
    }
    // Kind byte: the opposite kind parses but contradicts the verdict; an
    // unknown kind must not parse at all.
    let mut m = bytes.clone();
    m[6] ^= 1;
    check("kind flipped", m);
    let mut m = bytes.clone();
    m[6] = 2;
    check("kind unknown", m);
    // Length field: growing it truncates, shrinking it leaves trailing
    // bytes — both are framing rejections.
    let len = u32::from_le_bytes([bytes[7], bytes[8], bytes[9], bytes[10]]);
    let mut m = bytes.clone();
    m[7..11].copy_from_slice(&(len + 1).to_le_bytes());
    check("length grown", m);
    if len > 0 {
        let mut m = bytes.clone();
        m[7..11].copy_from_slice(&(len - 1).to_le_bytes());
        check("length shrunk", m);
    }
    // Truncated buffer: the declared payload no longer fits.
    if !bytes.is_empty() {
        check("buffer truncated", bytes[..bytes.len() - 1].to_vec());
    }
    // Payload: out-of-range vertex, duplicated vertex, emptied payload.
    let payload = cert.payload();
    let rebuild = |p: Vec<u32>| match cert {
        Certificate::Pass { .. } => Certificate::Pass { order: p },
        Certificate::Fail { .. } => Certificate::Fail { cycle: p },
    };
    if !payload.is_empty() {
        let mut p = payload.to_vec();
        p[0] = spec.num_vertices() as u32;
        check("vertex out of range", rebuild(p).to_bytes());
    }
    if payload.len() >= 2 {
        let mut p = payload.to_vec();
        p[0] = p[1];
        check("vertex duplicated", rebuild(p).to_bytes());
    }
    if !payload.is_empty() {
        check("payload emptied", rebuild(Vec::new()).to_bytes());
    }
    survivors
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// PASS witnesses from correct simulated hardware: no structured
    /// mutation of any certificate survives the verifier.
    #[test]
    fn mutated_pass_certificates_are_rejected(
        seed in any::<u64>(),
        threads in 2u32..5,
        ops in 4u32..20,
        addrs in 1u32..8,
        isa in prop::sample::select(vec![IsaKind::Arm, IsaKind::X86]),
    ) {
        let test = TestConfig::new(isa, threads, ops, addrs).with_seed(seed);
        let program = generate(&test);
        let spec = TestGraphSpec::new(&program, test.mcm);
        let mut sim = Simulator::new(&program, system_for(isa));
        let observations: Vec<_> = (0..12u64)
            .map(|s| {
                let rf = sim.run(s).expect("correct hardware never crashes").reads_from;
                spec.observe(&program, &rf, &CheckOptions::default())
            })
            .collect();
        let outcome = check_conventional(&spec, &observations, true);
        for ((obs, result), cert) in observations.iter().zip(&outcome.results).zip(&outcome.certificates) {
            let survivors = surviving_mutations(&spec, obs, cert, result.is_err());
            prop_assert!(survivors.is_empty(), "accepted mutations: {survivors:?}");
        }
    }
}

/// FAIL cycles from the litmus corpus: observations a weaker model allows
/// are cyclic under a stronger one, and none of their certificates survive
/// mutation either.
#[test]
fn mutated_fail_certificates_are_rejected() {
    let mut fail_certs = 0usize;
    for test in litmus::all() {
        for mcm in Mcm::ALL {
            let spec = TestGraphSpec::new(&test.program, mcm);
            let observations: Vec<_> = enumerate_outcomes(&test.program, Mcm::Weak, 5_000_000)
                .expect("litmus tests enumerate")
                .into_iter()
                .map(|rf| spec.observe(&test.program, &rf, &CheckOptions::default()))
                .collect();
            let outcome = check_conventional(&spec, &observations, true);
            for ((obs, result), cert) in observations
                .iter()
                .zip(&outcome.results)
                .zip(&outcome.certificates)
            {
                if result.is_err() {
                    fail_certs += 1;
                }
                let survivors = surviving_mutations(&spec, obs, cert, result.is_err());
                assert!(survivors.is_empty(), "accepted mutations: {survivors:?}");
            }
        }
    }
    assert!(
        fail_certs > 10,
        "corpus must exercise FAIL certificates ({fail_certs})"
    );
}
