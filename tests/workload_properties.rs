//! Property tests for the workload generator registry: for random
//! (family, N, seed, knobs) triples, the generated program validates,
//! matches its closed-form instruction-count formula, and its `.tql`
//! render re-parses to a structurally equal program whose own render is
//! byte-identical — the bit-for-bit round-trip contract `tiscc gen`
//! promises.

use proptest::prelude::*;
use tiscc::program::{LogicalProgram, QubitRef};
use tiscc::workloads::{generate, instruction_count, Family, GenSpec};

fn arb_spec() -> impl Strategy<Value = GenSpec> {
    (0..Family::all().len(), 2usize..24, 0u64..u64::MAX, 0u32..=10, 1usize..3).prop_map(
        |(family_idx, n, seed, t_tenths, steps)| {
            GenSpec::new(Family::all()[family_idx])
                .with_n(n)
                .with_seed(seed)
                .with_t_fraction(f64::from(t_tenths) / 10.0)
                .with_steps(steps)
        },
    )
}

/// Structural equality modulo the parser's source-line annotations: same
/// qubit table, same instruction sequence over the same operands.
fn assert_structurally_equal(built: &LogicalProgram, parsed: &LogicalProgram) {
    assert_eq!(built.name(), parsed.name());
    assert_eq!(built.qubit_count(), parsed.qubit_count());
    for i in 0..built.qubit_count() {
        assert_eq!(built.qubit_name(QubitRef(i)), parsed.qubit_name(QubitRef(i)));
    }
    assert_eq!(built.len(), parsed.len());
    for (b, p) in built.instructions().iter().zip(parsed.instructions()) {
        assert_eq!(b.instruction, p.instruction);
        assert_eq!(b.qubits, p.qubits);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn generated_programs_round_trip_bit_for_bit(spec in arb_spec()) {
        let program = generate(&spec).unwrap();
        program.validate().unwrap();
        prop_assert_eq!(program.len(), instruction_count(&spec).unwrap());

        let text = program.to_tql();
        let parsed = LogicalProgram::parse(program.name(), &text).unwrap();
        assert_structurally_equal(&program, &parsed);
        // Rendering the re-parsed program reproduces the exact bytes.
        prop_assert_eq!(parsed.to_tql(), text.clone());
        // And the generator itself is a pure function of the spec.
        prop_assert_eq!(generate(&spec).unwrap().to_tql(), text);
    }

    #[test]
    fn random_family_is_seed_deterministic(n in 1usize..400, seed in 0u64..u64::MAX) {
        let spec = GenSpec::new(Family::RandomCliffordT).with_n(n).with_seed(seed);
        let a = generate(&spec).unwrap();
        let b = generate(&spec).unwrap();
        prop_assert_eq!(a.to_tql(), b.to_tql());
        prop_assert_eq!(a.len(), n);
        // A different seed gives a different program once there is room
        // for any randomness at all.
        if n >= 32 {
            let other = generate(&spec.clone().with_seed(seed.wrapping_add(1))).unwrap();
            prop_assert_ne!(generate(&spec).unwrap().to_tql(), other.to_tql());
        }
    }
}

/// The peak live-qubit count by brute force: recount every qubit after
/// each instruction.
fn brute_force_max_live(program: &LogicalProgram) -> usize {
    use tiscc::core::instruction::Instruction;
    let mut live = vec![false; program.qubit_count()];
    let mut peak = 0;
    for pi in program.instructions() {
        match pi.instruction {
            Instruction::PrepareZ
            | Instruction::PrepareX
            | Instruction::InjectY
            | Instruction::InjectT => live[pi.qubits[0].0] = true,
            Instruction::MeasureZ | Instruction::MeasureX => live[pi.qubits[0].0] = false,
            _ => {}
        }
        peak = peak.max(live.iter().filter(|&&l| l).count());
    }
    peak
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The running live count agrees with a full recount on every family.
    #[test]
    fn max_live_qubits_matches_a_full_recount(spec in arb_spec()) {
        let program = generate(&spec).unwrap();
        prop_assert_eq!(program.max_live_qubits(), brute_force_max_live(&program));
    }
}

/// The running count also holds on programs that break liveness: a
/// repeated preparation and a measurement of a dead qubit change nothing.
#[test]
fn max_live_qubits_ignores_redundant_prepares_and_measures() {
    let mut program = LogicalProgram::new("invalid");
    let (a, b) = (program.add_qubit("a").unwrap(), program.add_qubit("b").unwrap());
    program.prepare_z(a).unwrap();
    program.prepare_z(a).unwrap();
    program.measure_z(b).unwrap();
    program.prepare_z(b).unwrap();
    program.measure_z(a).unwrap();
    program.measure_z(a).unwrap();
    assert!(program.validate().is_err());
    assert_eq!(program.max_live_qubits(), 2);
    assert_eq!(program.max_live_qubits(), brute_force_max_live(&program));
}
