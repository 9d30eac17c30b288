//! Tier-1 smoke tests for the differential-fuzzing subsystem: a small
//! case budget through every oracle (the full budget runs in CI's `fuzz`
//! rows and via `repro fuzz`), byte-determinism of the summary, and the
//! generate → serialize → replay round trip.

use vfpga::fuzz::{case_rng, registry, replay, reproducer_json, run_fuzz, FuzzConfig, Verdict};
use vfpga::sim::Json;

/// A small budget over every oracle must pass clean — any failure here is
/// a real cross-layer invariant violation, reproducible from the seed.
#[test]
fn small_budget_passes_every_oracle() {
    let summary = run_fuzz(&FuzzConfig::new(42, 6)).expect("valid config");
    assert!(
        summary.oracles.len() >= 6,
        "expected a full oracle registry"
    );
    assert_eq!(summary.oracles.len(), registry().len());
    for o in &summary.oracles {
        assert_eq!(o.cases, 6);
        assert_eq!(
            o.failures,
            0,
            "oracle {} failed: {:?}",
            o.name,
            o.first_failure.as_ref().map(|f| &f.error)
        );
    }
    assert!(summary.passed());
    assert_eq!(summary.total_cases(), 6 * summary.oracles.len());
}

/// Two runs from the same configuration serialize byte-identically — the
/// contract CI's double-run `cmp` gate enforces at full budget.
#[test]
fn summary_is_byte_deterministic() {
    let config = FuzzConfig::new(2024, 4);
    let a = run_fuzz(&config).unwrap().to_json().pretty();
    let b = run_fuzz(&config).unwrap().to_json().pretty();
    assert_eq!(a, b);
    // And parses back as JSON with the pinned schema.
    let doc = Json::parse(&a).unwrap();
    assert_eq!(
        doc.field("schema_version").and_then(Json::as_num),
        Some(f64::from(
            u8::try_from(vfpga::fuzz::FUZZ_SCHEMA_VERSION).unwrap()
        ))
    );
}

/// Every oracle's generated case survives serialize → parse → deserialize
/// → replay: the reproducer a failing run writes is sufficient on its own
/// to re-drive the exact check.
#[test]
fn generate_serialize_replay_round_trips() {
    for oracle in registry() {
        let mut rng = case_rng(7, oracle.name, 0);
        let input = (oracle.generate)(&mut rng);
        let doc = reproducer_json(oracle.name, 7, 0, "synthetic", &input);
        // Through bytes, as a real reproducer file would go.
        let parsed = Json::parse(&doc.pretty()).expect("reproducer serializes");
        let (name, verdict) = replay(&parsed).expect("reproducer replays");
        assert_eq!(name, oracle.name);
        assert_eq!(
            verdict,
            Verdict::Pass,
            "oracle {} rejected its own generated case",
            oracle.name
        );
        // The embedded input round-trips exactly.
        let reparsed = vfpga::fuzz::FuzzInput::from_json(parsed.expect_field("input"))
            .expect("input deserializes");
        assert_eq!(
            reparsed.to_json().pretty(),
            input.to_json().pretty(),
            "oracle {} input changed across the round trip",
            oracle.name
        );
    }
}

/// Case derivation is positionally stable: the same (seed, oracle, index)
/// always yields the same input, independent of budget or order.
#[test]
fn case_derivation_is_positional() {
    let oracle = &registry()[0];
    let a = (oracle.generate)(&mut case_rng(42, oracle.name, 3));
    let b = (oracle.generate)(&mut case_rng(42, oracle.name, 3));
    assert_eq!(a.to_json().pretty(), b.to_json().pretty());
    let c = (oracle.generate)(&mut case_rng(43, oracle.name, 3));
    assert_ne!(
        a.to_json().pretty(),
        c.to_json().pretty(),
        "different seeds should give different cases"
    );
}

/// Regression: the `program-reorder` shrinker adopts any failing
/// candidate, so a real `DepGraph` failure once shrank into a program that
/// reads a register before writing it — and that program failed the
/// oracle on correct code too ("original program: register v0 read before
/// write"). A program that cannot run has no semantics to preserve; the
/// oracle still checks its dependence graph, then passes it.
#[test]
fn program_reorder_passes_a_program_that_reads_before_writing() {
    use vfpga::accel::{AcceleratorConfig, FuncSim};
    use vfpga::fuzz::{FuzzInput, ProgSpec};

    let asm = "vadd v1, v0, v0\nvstore v1, 64\nhalt";
    let program = vfpga::isa::assemble(asm).expect("assembles");
    let err = FuncSim::new(&AcceleratorConfig::new("fuzz", 2))
        .run(&program)
        .expect_err("v0 is read before any write");
    assert!(err.to_string().contains("before write"), "{err}");

    let oracle = registry()
        .into_iter()
        .find(|o| o.name == "program-reorder")
        .expect("program-reorder is registered");
    let input = FuzzInput::Prog(ProgSpec {
        n: 4,
        slots: 1,
        data_seed: 1,
        order_seed: 2,
        asm: asm.to_string(),
    });
    assert_eq!((oracle.check)(&input), Ok(()));
}
