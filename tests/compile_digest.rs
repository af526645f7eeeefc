//! Golden digests of the physical compile.
//!
//! Each case compiles one instruction on its estimator fixture (input
//! tiles prepared first) and folds everything the hardware model produced
//! into one FNV-1a digest: every materialized op (kind, sites, qubits,
//! start and duration bits, junction, measurement index), every
//! measurement record (index, ion, zone, start bits, rendered label), every
//! replicated span and the per-op junction-stall flags; under a SIMD width
//! above 1, also the batching pass's pulses. The cases are every
//! instruction × d ∈ {2, 3, 5} × dt = d × five hardware configurations
//! (`h1`, `projected`, `slow_junction`, `h1` with `simd_width` 2, `h1` with
//! `junction_capacity` 2), each with round templating on and off.
//!
//! The goldens pin the compile bit for bit: routing tie-breaks, scheduling
//! ties and stall flags all feed the digest, so any change to the router or
//! the scheduler's state layout that moves a single op shows up here. On a
//! mismatch the failure message lists every case's digest in the format of
//! [`GOLDENS`].

use tiscc::core::instruction::{apply_instruction, apply_two_tile_instruction, Instruction};
use tiscc::estimator::verify::{Fiducial, SingleTile, TwoTiles};
use tiscc::grid::QSite;
use tiscc::hw::{batch_ops, HardwareModel, HardwareSpec, TimedOp};

/// 64-bit FNV-1a over a stream of little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn site(&mut self, s: QSite) {
        self.u64(u64::from(s.row) << 32 | u64::from(s.col));
    }

    /// An optional value: a presence tag, then the value.
    fn opt(&mut self, v: Option<u64>) {
        match v {
            Some(v) => {
                self.u64(1);
                self.u64(v);
            }
            None => self.u64(0),
        }
    }
}

/// Folds a run of ops into the digest.
fn digest_ops(h: &mut Fnv, ops: &[TimedOp]) {
    h.u64(ops.len() as u64);
    for op in ops {
        h.bytes(op.op.mnemonic().as_bytes());
        h.u64(op.sites.len() as u64);
        for &s in op.sites.iter() {
            h.site(s);
        }
        h.u64(op.qubits.len() as u64);
        for q in op.qubits.iter() {
            h.u64(u64::from(q.0));
        }
        h.u64(op.start_us.to_bits());
        h.u64(op.duration_us.to_bits());
        h.opt(op.junction.map(|j| u64::from(j.row) << 32 | u64::from(j.col)));
        h.opt(op.measurement.map(|m| m as u64));
    }
}

/// Digest of everything the model compiled. Under a SIMD width above 1
/// the batching pass's output over the materialized ops is folded in too,
/// since the model itself never batches.
fn digest(hw: &HardwareModel) -> u64 {
    let mut h = Fnv::new();
    let circuit = hw.circuit();
    digest_ops(&mut h, circuit.ops());
    if hw.spec().simd_width > 1 {
        let (batched, remap, _) = batch_ops(circuit.ops(), hw.spec());
        digest_ops(&mut h, &batched);
        for i in remap {
            h.u64(i as u64);
        }
    }
    h.u64(circuit.measurements().len() as u64);
    for rec in circuit.measurements() {
        h.u64(rec.index as u64);
        h.u64(u64::from(rec.qubit.0));
        h.site(rec.site);
        h.u64(rec.start_us.to_bits());
        h.bytes(rec.label.render().as_bytes());
    }
    h.u64(circuit.spans().len() as u64);
    for span in circuit.spans() {
        for v in [span.op_start, span.op_end, span.meas_start, span.meas_per_round, span.extra] {
            h.u64(v as u64);
        }
        for v in [span.base_us, span.end_makespan_us, span.recovery_us] {
            h.u64(v.to_bits());
        }
        h.u64(span.preds.len() as u64);
        for p in &span.preds {
            h.opt(p.map(u64::from));
        }
    }
    h.u64(hw.stall_flags().len() as u64);
    for &stalled in hw.stall_flags() {
        h.u64(u64::from(stalled));
    }
    h.0
}

/// Compiles `instruction` on its estimator fixture, inputs prepared first.
fn compile(
    instruction: Instruction,
    d: usize,
    spec: &HardwareSpec,
    templating: bool,
) -> HardwareModel {
    if instruction.tiles() == 2 {
        let mut f = match instruction {
            Instruction::MeasureZZ => {
                TwoTiles::new_horizontal_with_spec(d, d, d, spec.clone()).unwrap()
            }
            _ => TwoTiles::with_spec(d, d, d, spec.clone()).unwrap(),
        };
        f.hw.set_round_templating(templating);
        Fiducial::Zero.prepare(&mut f.hw, &mut f.upper).unwrap();
        Fiducial::Zero.prepare(&mut f.hw, &mut f.lower).unwrap();
        apply_two_tile_instruction(&mut f.hw, instruction, &mut f.upper, &mut f.lower).unwrap();
        f.hw
    } else {
        let mut f = SingleTile::with_spec(d, d, d, spec.clone()).unwrap();
        f.hw.set_round_templating(templating);
        let needs_input = !matches!(
            instruction,
            Instruction::PrepareZ
                | Instruction::PrepareX
                | Instruction::InjectY
                | Instruction::InjectT
        );
        if needs_input {
            Fiducial::Zero.prepare(&mut f.hw, &mut f.patch).unwrap();
        }
        apply_instruction(&mut f.hw, instruction, &mut f.patch).unwrap();
        f.hw
    }
}

/// The five hardware configurations, by the name used in [`GOLDENS`].
fn configuration(name: &str) -> HardwareSpec {
    let mut spec = match name {
        "h1" | "h1_simd2" | "h1_cap2" => HardwareSpec::h1(),
        "projected" => HardwareSpec::projected(),
        "slow_junction" => HardwareSpec::slow_junction(),
        other => panic!("unknown configuration {other}"),
    };
    match name {
        "h1_simd2" => spec.simd_width = 2,
        "h1_cap2" => spec.junction_capacity = 2,
        _ => {}
    }
    spec
}

/// Compiles every case of one configuration and compares with the goldens.
fn check_configuration(name: &str) {
    let spec = configuration(name);
    let mut actual = Vec::new();
    for templating in [true, false] {
        for &instruction in Instruction::all() {
            for d in [2usize, 3, 5] {
                let hw = compile(instruction, d, &spec, templating);
                let case = format!(
                    "{name}/{}/d{d}/{}",
                    instruction.id(),
                    if templating { "templated" } else { "flat" }
                );
                actual.push((case, digest(&hw)));
            }
        }
    }
    let expected: Vec<(String, u64)> = GOLDENS
        .iter()
        .filter(|(case, _)| case.split('/').next() == Some(name))
        .map(|&(case, v)| (case.to_string(), v))
        .collect();
    if actual != expected {
        let mismatched: Vec<&str> = actual
            .iter()
            .filter(|a| !expected.contains(a))
            .map(|(case, _)| case.as_str())
            .collect();
        let table: String =
            actual.iter().map(|(case, v)| format!("    (\"{case}\", {v:#018x}),\n")).collect();
        panic!("{} compile digest(s) changed: {mismatched:?}\nactual:\n{table}", mismatched.len());
    }
}

#[test]
fn compile_digests_match_under_h1() {
    check_configuration("h1");
}

#[test]
fn compile_digests_match_under_projected() {
    check_configuration("projected");
}

#[test]
fn compile_digests_match_under_slow_junction() {
    check_configuration("slow_junction");
}

#[test]
fn compile_digests_match_under_h1_simd_2() {
    check_configuration("h1_simd2");
}

#[test]
fn compile_digests_match_under_h1_junction_capacity_2() {
    check_configuration("h1_cap2");
}

/// `(configuration/instruction/d/templating, digest)`, recorded from the
/// compile before its state moved to dense tables.
const GOLDENS: &[(&str, u64)] = &[
    ("h1/prepare_x/d2/templated", 0xd8ad70c5c0a19fc6),
    ("h1/prepare_x/d3/templated", 0xef30d89b9095a7fc),
    ("h1/prepare_x/d5/templated", 0x5e47cf27496d60c4),
    ("h1/prepare_z/d2/templated", 0xc6deb94f8372f366),
    ("h1/prepare_z/d3/templated", 0x325e3f24f8a22f9d),
    ("h1/prepare_z/d5/templated", 0xf201cf57e8c42f51),
    ("h1/inject_y/d2/templated", 0x3b7db8e87052079d),
    ("h1/inject_y/d3/templated", 0x9e5ee9149cd6bca2),
    ("h1/inject_y/d5/templated", 0x5c61c67caf6f538a),
    ("h1/inject_t/d2/templated", 0x6dcd90f51c012a59),
    ("h1/inject_t/d3/templated", 0x5cfbd544593d91fe),
    ("h1/inject_t/d5/templated", 0x97187e948ba1789e),
    ("h1/measure_x/d2/templated", 0xf682cd09cffbedd7),
    ("h1/measure_x/d3/templated", 0xe8a94338a2013b9d),
    ("h1/measure_x/d5/templated", 0x9ddb7a68c90ac5d8),
    ("h1/measure_z/d2/templated", 0xccd9e6892bf28d0b),
    ("h1/measure_z/d3/templated", 0x9e6ee87457a4c4ac),
    ("h1/measure_z/d5/templated", 0x82fdd1ba73dc7ab1),
    ("h1/pauli_x/d2/templated", 0x25c78b4180e8490d),
    ("h1/pauli_x/d3/templated", 0xaf4e4024c784fc21),
    ("h1/pauli_x/d5/templated", 0x1f98fa239058e8e9),
    ("h1/pauli_y/d2/templated", 0x056d40bf3b1eeafc),
    ("h1/pauli_y/d3/templated", 0x6f67d339b3d17a68),
    ("h1/pauli_y/d5/templated", 0x5c08bde841349fe0),
    ("h1/pauli_z/d2/templated", 0x66bb97334a4a3213),
    ("h1/pauli_z/d3/templated", 0x4f446be838fc6c21),
    ("h1/pauli_z/d5/templated", 0xfd20ea14c2f1919b),
    ("h1/hadamard/d2/templated", 0xa7376d1a39a43e63),
    ("h1/hadamard/d3/templated", 0x1df37de5ae7ecd9d),
    ("h1/hadamard/d5/templated", 0x0b1de771fa1358ae),
    ("h1/idle/d2/templated", 0xe2f2167e603af365),
    ("h1/idle/d3/templated", 0xd64a84cf72d4c26e),
    ("h1/idle/d5/templated", 0x8f7a9e86c1a5f854),
    ("h1/measure_xx/d2/templated", 0x385c7b63c0055ca0),
    ("h1/measure_xx/d3/templated", 0xdad133ff6354456a),
    ("h1/measure_xx/d5/templated", 0x61a83aaf0ea5ac74),
    ("h1/measure_zz/d2/templated", 0xab6ce075e0d968fc),
    ("h1/measure_zz/d3/templated", 0xfc64d41da0bd9903),
    ("h1/measure_zz/d5/templated", 0x7bd75afbd75f02b1),
    ("h1/prepare_x/d2/flat", 0xd8ad70c5c0a19fc6),
    ("h1/prepare_x/d3/flat", 0x5f71025813f8d33a),
    ("h1/prepare_x/d5/flat", 0xbef5f9ba7b6a352e),
    ("h1/prepare_z/d2/flat", 0xc6deb94f8372f366),
    ("h1/prepare_z/d3/flat", 0x5f94278cd74e42c3),
    ("h1/prepare_z/d5/flat", 0x3c60f2eef8447d0d),
    ("h1/inject_y/d2/flat", 0x3b7db8e87052079d),
    ("h1/inject_y/d3/flat", 0x9e5ee9149cd6bca2),
    ("h1/inject_y/d5/flat", 0x5c61c67caf6f538a),
    ("h1/inject_t/d2/flat", 0x6dcd90f51c012a59),
    ("h1/inject_t/d3/flat", 0x5cfbd544593d91fe),
    ("h1/inject_t/d5/flat", 0x97187e948ba1789e),
    ("h1/measure_x/d2/flat", 0xf682cd09cffbedd7),
    ("h1/measure_x/d3/flat", 0xe8a94338a2013b9d),
    ("h1/measure_x/d5/flat", 0x9ddb7a68c90ac5d8),
    ("h1/measure_z/d2/flat", 0xccd9e6892bf28d0b),
    ("h1/measure_z/d3/flat", 0x9e6ee87457a4c4ac),
    ("h1/measure_z/d5/flat", 0x82fdd1ba73dc7ab1),
    ("h1/pauli_x/d2/flat", 0x25c78b4180e8490d),
    ("h1/pauli_x/d3/flat", 0xaf4e4024c784fc21),
    ("h1/pauli_x/d5/flat", 0x1f98fa239058e8e9),
    ("h1/pauli_y/d2/flat", 0x056d40bf3b1eeafc),
    ("h1/pauli_y/d3/flat", 0x6f67d339b3d17a68),
    ("h1/pauli_y/d5/flat", 0x5c08bde841349fe0),
    ("h1/pauli_z/d2/flat", 0x66bb97334a4a3213),
    ("h1/pauli_z/d3/flat", 0x4f446be838fc6c21),
    ("h1/pauli_z/d5/flat", 0xfd20ea14c2f1919b),
    ("h1/hadamard/d2/flat", 0xa7376d1a39a43e63),
    ("h1/hadamard/d3/flat", 0x1df37de5ae7ecd9d),
    ("h1/hadamard/d5/flat", 0x0b1de771fa1358ae),
    ("h1/idle/d2/flat", 0xe2f2167e603af365),
    ("h1/idle/d3/flat", 0x889830ceefad26fd),
    ("h1/idle/d5/flat", 0x3f6e6cfd6bdd77db),
    ("h1/measure_xx/d2/flat", 0x385c7b63c0055ca0),
    ("h1/measure_xx/d3/flat", 0x90a638cc28637cf0),
    ("h1/measure_xx/d5/flat", 0x1887e872f2619f9a),
    ("h1/measure_zz/d2/flat", 0xab6ce075e0d968fc),
    ("h1/measure_zz/d3/flat", 0xaff464a2469d2d0c),
    ("h1/measure_zz/d5/flat", 0x0149cb9f9082c416),
    ("projected/prepare_x/d2/templated", 0x5c91aa227dede3ed),
    ("projected/prepare_x/d3/templated", 0x455c5f0d66d13fad),
    ("projected/prepare_x/d5/templated", 0x67736f7ca8c18c4c),
    ("projected/prepare_z/d2/templated", 0x21d43df74300693d),
    ("projected/prepare_z/d3/templated", 0xff3a59c2bf8a1461),
    ("projected/prepare_z/d5/templated", 0x2d9692fee76c456c),
    ("projected/inject_y/d2/templated", 0xa7f7a3eb0989f744),
    ("projected/inject_y/d3/templated", 0x194e03e83f7e5308),
    ("projected/inject_y/d5/templated", 0xd7c88659ef3c9646),
    ("projected/inject_t/d2/templated", 0xa43f28caf7dda050),
    ("projected/inject_t/d3/templated", 0x660e680e1445e57c),
    ("projected/inject_t/d5/templated", 0x960afa5cc3393092),
    ("projected/measure_x/d2/templated", 0x6d67c26dbac0ef9c),
    ("projected/measure_x/d3/templated", 0x71085de5dc91a352),
    ("projected/measure_x/d5/templated", 0x74315b857e586979),
    ("projected/measure_z/d2/templated", 0xacd0b7e5abb57c3c),
    ("projected/measure_z/d3/templated", 0xb212a5b2fdbaf0f2),
    ("projected/measure_z/d5/templated", 0x9376547fc66bd890),
    ("projected/pauli_x/d2/templated", 0x564b61a037646d5a),
    ("projected/pauli_x/d3/templated", 0xc1441bddf0bfec44),
    ("projected/pauli_x/d5/templated", 0xa7bfc81df898672a),
    ("projected/pauli_y/d2/templated", 0xc13685f272932f39),
    ("projected/pauli_y/d3/templated", 0x1f65ddfb4c36fc69),
    ("projected/pauli_y/d5/templated", 0x764919aaf740e53f),
    ("projected/pauli_z/d2/templated", 0x3f03e79b77e5b578),
    ("projected/pauli_z/d3/templated", 0xbe409c5f04eba74d),
    ("projected/pauli_z/d5/templated", 0xab973120b2c9fc39),
    ("projected/hadamard/d2/templated", 0xae5311cb55bcf0e0),
    ("projected/hadamard/d3/templated", 0x3964ea9a2f4d0ade),
    ("projected/hadamard/d5/templated", 0x148ea6f3a3601767),
    ("projected/idle/d2/templated", 0xe7cec2bc59dd2b3e),
    ("projected/idle/d3/templated", 0x4fb9965e5e42ba37),
    ("projected/idle/d5/templated", 0x0294c15720dd21fa),
    ("projected/measure_xx/d2/templated", 0xfed951b2f8cbf217),
    ("projected/measure_xx/d3/templated", 0x9e7b851fb4750366),
    ("projected/measure_xx/d5/templated", 0x783b097426dce484),
    ("projected/measure_zz/d2/templated", 0x41fce3b967cd4e67),
    ("projected/measure_zz/d3/templated", 0x3340f78cd0a47142),
    ("projected/measure_zz/d5/templated", 0xcc7a978384f78b75),
    ("projected/prepare_x/d2/flat", 0x5c91aa227dede3ed),
    ("projected/prepare_x/d3/flat", 0x7fdf1a5c189aded5),
    ("projected/prepare_x/d5/flat", 0x01dac8ef76af77aa),
    ("projected/prepare_z/d2/flat", 0x21d43df74300693d),
    ("projected/prepare_z/d3/flat", 0xa4f986203d9226c9),
    ("projected/prepare_z/d5/flat", 0x769f4078b9b1efd4),
    ("projected/inject_y/d2/flat", 0xa7f7a3eb0989f744),
    ("projected/inject_y/d3/flat", 0x194e03e83f7e5308),
    ("projected/inject_y/d5/flat", 0xd7c88659ef3c9646),
    ("projected/inject_t/d2/flat", 0xa43f28caf7dda050),
    ("projected/inject_t/d3/flat", 0x660e680e1445e57c),
    ("projected/inject_t/d5/flat", 0x960afa5cc3393092),
    ("projected/measure_x/d2/flat", 0x6d67c26dbac0ef9c),
    ("projected/measure_x/d3/flat", 0x71085de5dc91a352),
    ("projected/measure_x/d5/flat", 0x74315b857e586979),
    ("projected/measure_z/d2/flat", 0xacd0b7e5abb57c3c),
    ("projected/measure_z/d3/flat", 0xb212a5b2fdbaf0f2),
    ("projected/measure_z/d5/flat", 0x9376547fc66bd890),
    ("projected/pauli_x/d2/flat", 0x564b61a037646d5a),
    ("projected/pauli_x/d3/flat", 0xc1441bddf0bfec44),
    ("projected/pauli_x/d5/flat", 0xa7bfc81df898672a),
    ("projected/pauli_y/d2/flat", 0xc13685f272932f39),
    ("projected/pauli_y/d3/flat", 0x1f65ddfb4c36fc69),
    ("projected/pauli_y/d5/flat", 0x764919aaf740e53f),
    ("projected/pauli_z/d2/flat", 0x3f03e79b77e5b578),
    ("projected/pauli_z/d3/flat", 0xbe409c5f04eba74d),
    ("projected/pauli_z/d5/flat", 0xab973120b2c9fc39),
    ("projected/hadamard/d2/flat", 0xae5311cb55bcf0e0),
    ("projected/hadamard/d3/flat", 0x3964ea9a2f4d0ade),
    ("projected/hadamard/d5/flat", 0x148ea6f3a3601767),
    ("projected/idle/d2/flat", 0xe7cec2bc59dd2b3e),
    ("projected/idle/d3/flat", 0xeaabb765136f87a5),
    ("projected/idle/d5/flat", 0x6376bdfc8dd8e8e8),
    ("projected/measure_xx/d2/flat", 0xfed951b2f8cbf217),
    ("projected/measure_xx/d3/flat", 0x295243954b1994c6),
    ("projected/measure_xx/d5/flat", 0x79a24730bad4de13),
    ("projected/measure_zz/d2/flat", 0x41fce3b967cd4e67),
    ("projected/measure_zz/d3/flat", 0x08458d7771ad3ffa),
    ("projected/measure_zz/d5/flat", 0x5be797a6932677d0),
    ("slow_junction/prepare_x/d2/templated", 0x0e16255c749e9bdb),
    ("slow_junction/prepare_x/d3/templated", 0x416f803c4b4f5ab0),
    ("slow_junction/prepare_x/d5/templated", 0x23dc0964bad68ac8),
    ("slow_junction/prepare_z/d2/templated", 0xdfe4040bbf197ba7),
    ("slow_junction/prepare_z/d3/templated", 0x7540d0b2420400b1),
    ("slow_junction/prepare_z/d5/templated", 0xc466f02ae99a22d9),
    ("slow_junction/inject_y/d2/templated", 0x3b7db8e87052079d),
    ("slow_junction/inject_y/d3/templated", 0x9e5ee9149cd6bca2),
    ("slow_junction/inject_y/d5/templated", 0x5c61c67caf6f538a),
    ("slow_junction/inject_t/d2/templated", 0x6dcd90f51c012a59),
    ("slow_junction/inject_t/d3/templated", 0x5cfbd544593d91fe),
    ("slow_junction/inject_t/d5/templated", 0x97187e948ba1789e),
    ("slow_junction/measure_x/d2/templated", 0x6b4cba43e983f04b),
    ("slow_junction/measure_x/d3/templated", 0xa10c2615db8b379e),
    ("slow_junction/measure_x/d5/templated", 0xeac585e7f3d94623),
    ("slow_junction/measure_z/d2/templated", 0xcb854f1255f84b87),
    ("slow_junction/measure_z/d3/templated", 0xfa44303de18596ea),
    ("slow_junction/measure_z/d5/templated", 0xda6ea463e7938347),
    ("slow_junction/pauli_x/d2/templated", 0x3e5c7224bb041561),
    ("slow_junction/pauli_x/d3/templated", 0x953b9426b79584bc),
    ("slow_junction/pauli_x/d5/templated", 0x775b79ec5367b6f8),
    ("slow_junction/pauli_y/d2/templated", 0xfcc3d762621998d0),
    ("slow_junction/pauli_y/d3/templated", 0x26b8a248a6af56ed),
    ("slow_junction/pauli_y/d5/templated", 0x8a05bf4c78243fe9),
    ("slow_junction/pauli_z/d2/templated", 0x18e7824b30a83c7b),
    ("slow_junction/pauli_z/d3/templated", 0xd3686f863209ffec),
    ("slow_junction/pauli_z/d5/templated", 0x071045da14c7d606),
    ("slow_junction/hadamard/d2/templated", 0x2f6a5033d4bb9e07),
    ("slow_junction/hadamard/d3/templated", 0x6a7e8e0f605a2e50),
    ("slow_junction/hadamard/d5/templated", 0x822837f7b1dac6f7),
    ("slow_junction/idle/d2/templated", 0x44a01a0d6645db8e),
    ("slow_junction/idle/d3/templated", 0x20b6c021e755c62b),
    ("slow_junction/idle/d5/templated", 0x8f6513c5eef85ee0),
    ("slow_junction/measure_xx/d2/templated", 0xb2348da0ce266ea4),
    ("slow_junction/measure_xx/d3/templated", 0xba52f5f17d42b8ce),
    ("slow_junction/measure_xx/d5/templated", 0x6b67feac62e76355),
    ("slow_junction/measure_zz/d2/templated", 0x8f89413580db9b8f),
    ("slow_junction/measure_zz/d3/templated", 0xd8c8b1b2476bcbe0),
    ("slow_junction/measure_zz/d5/templated", 0xb5bffa41a2bb7fa0),
    ("slow_junction/prepare_x/d2/flat", 0x0e16255c749e9bdb),
    ("slow_junction/prepare_x/d3/flat", 0x2449be1a7858d1da),
    ("slow_junction/prepare_x/d5/flat", 0x9bdfb56e7883035e),
    ("slow_junction/prepare_z/d2/flat", 0xdfe4040bbf197ba7),
    ("slow_junction/prepare_z/d3/flat", 0xb9ca885476586ff3),
    ("slow_junction/prepare_z/d5/flat", 0x38bf907126ef8add),
    ("slow_junction/inject_y/d2/flat", 0x3b7db8e87052079d),
    ("slow_junction/inject_y/d3/flat", 0x9e5ee9149cd6bca2),
    ("slow_junction/inject_y/d5/flat", 0x5c61c67caf6f538a),
    ("slow_junction/inject_t/d2/flat", 0x6dcd90f51c012a59),
    ("slow_junction/inject_t/d3/flat", 0x5cfbd544593d91fe),
    ("slow_junction/inject_t/d5/flat", 0x97187e948ba1789e),
    ("slow_junction/measure_x/d2/flat", 0x6b4cba43e983f04b),
    ("slow_junction/measure_x/d3/flat", 0xa10c2615db8b379e),
    ("slow_junction/measure_x/d5/flat", 0xeac585e7f3d94623),
    ("slow_junction/measure_z/d2/flat", 0xcb854f1255f84b87),
    ("slow_junction/measure_z/d3/flat", 0xfa44303de18596ea),
    ("slow_junction/measure_z/d5/flat", 0xda6ea463e7938347),
    ("slow_junction/pauli_x/d2/flat", 0x3e5c7224bb041561),
    ("slow_junction/pauli_x/d3/flat", 0x953b9426b79584bc),
    ("slow_junction/pauli_x/d5/flat", 0x775b79ec5367b6f8),
    ("slow_junction/pauli_y/d2/flat", 0xfcc3d762621998d0),
    ("slow_junction/pauli_y/d3/flat", 0x26b8a248a6af56ed),
    ("slow_junction/pauli_y/d5/flat", 0x8a05bf4c78243fe9),
    ("slow_junction/pauli_z/d2/flat", 0x18e7824b30a83c7b),
    ("slow_junction/pauli_z/d3/flat", 0xd3686f863209ffec),
    ("slow_junction/pauli_z/d5/flat", 0x071045da14c7d606),
    ("slow_junction/hadamard/d2/flat", 0x2f6a5033d4bb9e07),
    ("slow_junction/hadamard/d3/flat", 0x6a7e8e0f605a2e50),
    ("slow_junction/hadamard/d5/flat", 0x822837f7b1dac6f7),
    ("slow_junction/idle/d2/flat", 0x44a01a0d6645db8e),
    ("slow_junction/idle/d3/flat", 0x09c989b95173f8de),
    ("slow_junction/idle/d5/flat", 0x7a4cbd02fe07ee74),
    ("slow_junction/measure_xx/d2/flat", 0xb2348da0ce266ea4),
    ("slow_junction/measure_xx/d3/flat", 0xb50f599f2a1b1432),
    ("slow_junction/measure_xx/d5/flat", 0x498d6d84046a2d35),
    ("slow_junction/measure_zz/d2/flat", 0x8f89413580db9b8f),
    ("slow_junction/measure_zz/d3/flat", 0xf29f6945a49f289c),
    ("slow_junction/measure_zz/d5/flat", 0x8a69f666c1f26f35),
    ("h1_simd2/prepare_x/d2/templated", 0xca9f4e33fe8406ba),
    ("h1_simd2/prepare_x/d3/templated", 0x6f22bf203698e31c),
    ("h1_simd2/prepare_x/d5/templated", 0x670b49ac2d533da8),
    ("h1_simd2/prepare_z/d2/templated", 0x8541eebc22d50212),
    ("h1_simd2/prepare_z/d3/templated", 0xf377d36cbeff8e0a),
    ("h1_simd2/prepare_z/d5/templated", 0x2af03cce5cce4c8c),
    ("h1_simd2/inject_y/d2/templated", 0xe27a580686c21748),
    ("h1_simd2/inject_y/d3/templated", 0xde7a86010106f583),
    ("h1_simd2/inject_y/d5/templated", 0x56afcb367d492cb0),
    ("h1_simd2/inject_t/d2/templated", 0x8406302c493fa580),
    ("h1_simd2/inject_t/d3/templated", 0x8f4300f0b729dffb),
    ("h1_simd2/inject_t/d5/templated", 0xbd8d05a676791da8),
    ("h1_simd2/measure_x/d2/templated", 0x2ba46b7c678b3ace),
    ("h1_simd2/measure_x/d3/templated", 0x9afaa5dc9057a3cf),
    ("h1_simd2/measure_x/d5/templated", 0xa9112906b23f1d5a),
    ("h1_simd2/measure_z/d2/templated", 0xd247d2924bb5d242),
    ("h1_simd2/measure_z/d3/templated", 0xd3139331ccc7d2fa),
    ("h1_simd2/measure_z/d5/templated", 0xf102ff21b1e60afe),
    ("h1_simd2/pauli_x/d2/templated", 0xcc9c4cfb2931b12f),
    ("h1_simd2/pauli_x/d3/templated", 0xb622f8dc08de845c),
    ("h1_simd2/pauli_x/d5/templated", 0x2bf9cefb1a9da87b),
    ("h1_simd2/pauli_y/d2/templated", 0xf49918959eeef743),
    ("h1_simd2/pauli_y/d3/templated", 0x99fa17f312ac5742),
    ("h1_simd2/pauli_y/d5/templated", 0xc63435d040cf3669),
    ("h1_simd2/pauli_z/d2/templated", 0xe17475b824aa7155),
    ("h1_simd2/pauli_z/d3/templated", 0xb80dc2a5818f11a6),
    ("h1_simd2/pauli_z/d5/templated", 0xaa5e68d811243c2f),
    ("h1_simd2/hadamard/d2/templated", 0x58a016d98892b092),
    ("h1_simd2/hadamard/d3/templated", 0x85566b0f4f64d59f),
    ("h1_simd2/hadamard/d5/templated", 0x3dcaaa78341177ab),
    ("h1_simd2/idle/d2/templated", 0xcd1dd6da94530a79),
    ("h1_simd2/idle/d3/templated", 0xb6092b8db2c341f4),
    ("h1_simd2/idle/d5/templated", 0x517603e3a6ba363c),
    ("h1_simd2/measure_xx/d2/templated", 0xf5ee325635b951eb),
    ("h1_simd2/measure_xx/d3/templated", 0x9bc2c1d20b301844),
    ("h1_simd2/measure_xx/d5/templated", 0x7feab64ef767c16b),
    ("h1_simd2/measure_zz/d2/templated", 0x75b80c6ed451ca5b),
    ("h1_simd2/measure_zz/d3/templated", 0x000d14b33b3bb928),
    ("h1_simd2/measure_zz/d5/templated", 0x300032b7f87fe4c1),
    ("h1_simd2/prepare_x/d2/flat", 0xca9f4e33fe8406ba),
    ("h1_simd2/prepare_x/d3/flat", 0xa6dadbf541ceb964),
    ("h1_simd2/prepare_x/d5/flat", 0x3b99da5896917968),
    ("h1_simd2/prepare_z/d2/flat", 0x8541eebc22d50212),
    ("h1_simd2/prepare_z/d3/flat", 0xb6aed5c2f1e025fd),
    ("h1_simd2/prepare_z/d5/flat", 0xa708103e71c389e9),
    ("h1_simd2/inject_y/d2/flat", 0xe27a580686c21748),
    ("h1_simd2/inject_y/d3/flat", 0xde7a86010106f583),
    ("h1_simd2/inject_y/d5/flat", 0x56afcb367d492cb0),
    ("h1_simd2/inject_t/d2/flat", 0x8406302c493fa580),
    ("h1_simd2/inject_t/d3/flat", 0x8f4300f0b729dffb),
    ("h1_simd2/inject_t/d5/flat", 0xbd8d05a676791da8),
    ("h1_simd2/measure_x/d2/flat", 0x2ba46b7c678b3ace),
    ("h1_simd2/measure_x/d3/flat", 0x9afaa5dc9057a3cf),
    ("h1_simd2/measure_x/d5/flat", 0xa9112906b23f1d5a),
    ("h1_simd2/measure_z/d2/flat", 0xd247d2924bb5d242),
    ("h1_simd2/measure_z/d3/flat", 0xd3139331ccc7d2fa),
    ("h1_simd2/measure_z/d5/flat", 0xf102ff21b1e60afe),
    ("h1_simd2/pauli_x/d2/flat", 0xcc9c4cfb2931b12f),
    ("h1_simd2/pauli_x/d3/flat", 0xb622f8dc08de845c),
    ("h1_simd2/pauli_x/d5/flat", 0x2bf9cefb1a9da87b),
    ("h1_simd2/pauli_y/d2/flat", 0xf49918959eeef743),
    ("h1_simd2/pauli_y/d3/flat", 0x99fa17f312ac5742),
    ("h1_simd2/pauli_y/d5/flat", 0xc63435d040cf3669),
    ("h1_simd2/pauli_z/d2/flat", 0xe17475b824aa7155),
    ("h1_simd2/pauli_z/d3/flat", 0xb80dc2a5818f11a6),
    ("h1_simd2/pauli_z/d5/flat", 0xaa5e68d811243c2f),
    ("h1_simd2/hadamard/d2/flat", 0x58a016d98892b092),
    ("h1_simd2/hadamard/d3/flat", 0x85566b0f4f64d59f),
    ("h1_simd2/hadamard/d5/flat", 0x3dcaaa78341177ab),
    ("h1_simd2/idle/d2/flat", 0xcd1dd6da94530a79),
    ("h1_simd2/idle/d3/flat", 0x6a9b0c20400ab6de),
    ("h1_simd2/idle/d5/flat", 0xe6d73b795cd340d5),
    ("h1_simd2/measure_xx/d2/flat", 0xf5ee325635b951eb),
    ("h1_simd2/measure_xx/d3/flat", 0xb0cbbc2061f95110),
    ("h1_simd2/measure_xx/d5/flat", 0x6adab25a2b31a919),
    ("h1_simd2/measure_zz/d2/flat", 0x75b80c6ed451ca5b),
    ("h1_simd2/measure_zz/d3/flat", 0x93b71780789090c9),
    ("h1_simd2/measure_zz/d5/flat", 0x2493350d1c76010e),
    ("h1_cap2/prepare_x/d2/templated", 0xaa9db16dde80f2fb),
    ("h1_cap2/prepare_x/d3/templated", 0x98ad6f0e2707683f),
    ("h1_cap2/prepare_x/d5/templated", 0xfe78e59536ebde20),
    ("h1_cap2/prepare_z/d2/templated", 0x4f911b5008f1488b),
    ("h1_cap2/prepare_z/d3/templated", 0x4b02f2e1625b193e),
    ("h1_cap2/prepare_z/d5/templated", 0xf4977eb7f48e95b9),
    ("h1_cap2/inject_y/d2/templated", 0x3b7db8e87052079d),
    ("h1_cap2/inject_y/d3/templated", 0x9e5ee9149cd6bca2),
    ("h1_cap2/inject_y/d5/templated", 0x5c61c67caf6f538a),
    ("h1_cap2/inject_t/d2/templated", 0x6dcd90f51c012a59),
    ("h1_cap2/inject_t/d3/templated", 0x5cfbd544593d91fe),
    ("h1_cap2/inject_t/d5/templated", 0x97187e948ba1789e),
    ("h1_cap2/measure_x/d2/templated", 0xf20eed7ead8ec85d),
    ("h1_cap2/measure_x/d3/templated", 0xe04a88cc0ca91747),
    ("h1_cap2/measure_x/d5/templated", 0xfbe6e00271836e8f),
    ("h1_cap2/measure_z/d2/templated", 0x82e1333ead81f95d),
    ("h1_cap2/measure_z/d3/templated", 0xaa9ae74a6d162a35),
    ("h1_cap2/measure_z/d5/templated", 0x3c4821fdfc8f3aaa),
    ("h1_cap2/pauli_x/d2/templated", 0x6d6f63463cce633b),
    ("h1_cap2/pauli_x/d3/templated", 0xaff635a5c141da34),
    ("h1_cap2/pauli_x/d5/templated", 0x4d544f73ec1f8c54),
    ("h1_cap2/pauli_y/d2/templated", 0xcafe91dbba04b11f),
    ("h1_cap2/pauli_y/d3/templated", 0x9ed1385b7046726d),
    ("h1_cap2/pauli_y/d5/templated", 0x8d9c3add94ab9b21),
    ("h1_cap2/pauli_z/d2/templated", 0x84391b0a3b72da81),
    ("h1_cap2/pauli_z/d3/templated", 0x5211bc850e1b29d4),
    ("h1_cap2/pauli_z/d5/templated", 0x7556154d5a6ef51e),
    ("h1_cap2/hadamard/d2/templated", 0x3d22f86083b1828d),
    ("h1_cap2/hadamard/d3/templated", 0x5e6b8f7f311cec5d),
    ("h1_cap2/hadamard/d5/templated", 0xb11691369ea83521),
    ("h1_cap2/idle/d2/templated", 0x03134fdf0eaa7af1),
    ("h1_cap2/idle/d3/templated", 0xde4ed9d2fe37ad82),
    ("h1_cap2/idle/d5/templated", 0x22aec652f88fdb2e),
    ("h1_cap2/measure_xx/d2/templated", 0x0f70c632178aa811),
    ("h1_cap2/measure_xx/d3/templated", 0x45b13c673699bc3b),
    ("h1_cap2/measure_xx/d5/templated", 0xffa8123d44fbc4fc),
    ("h1_cap2/measure_zz/d2/templated", 0xa48b0d15ca285ba0),
    ("h1_cap2/measure_zz/d3/templated", 0xb65ba21e93632fb0),
    ("h1_cap2/measure_zz/d5/templated", 0xb5be58de749e698b),
    ("h1_cap2/prepare_x/d2/flat", 0xaa9db16dde80f2fb),
    ("h1_cap2/prepare_x/d3/flat", 0x661d99591e4707df),
    ("h1_cap2/prepare_x/d5/flat", 0xea53929a023745b9),
    ("h1_cap2/prepare_z/d2/flat", 0x4f911b5008f1488b),
    ("h1_cap2/prepare_z/d3/flat", 0x93e5f1fc7bb2375e),
    ("h1_cap2/prepare_z/d5/flat", 0xec5e081e2659eae6),
    ("h1_cap2/inject_y/d2/flat", 0x3b7db8e87052079d),
    ("h1_cap2/inject_y/d3/flat", 0x9e5ee9149cd6bca2),
    ("h1_cap2/inject_y/d5/flat", 0x5c61c67caf6f538a),
    ("h1_cap2/inject_t/d2/flat", 0x6dcd90f51c012a59),
    ("h1_cap2/inject_t/d3/flat", 0x5cfbd544593d91fe),
    ("h1_cap2/inject_t/d5/flat", 0x97187e948ba1789e),
    ("h1_cap2/measure_x/d2/flat", 0xf20eed7ead8ec85d),
    ("h1_cap2/measure_x/d3/flat", 0xe04a88cc0ca91747),
    ("h1_cap2/measure_x/d5/flat", 0xfbe6e00271836e8f),
    ("h1_cap2/measure_z/d2/flat", 0x82e1333ead81f95d),
    ("h1_cap2/measure_z/d3/flat", 0xaa9ae74a6d162a35),
    ("h1_cap2/measure_z/d5/flat", 0x3c4821fdfc8f3aaa),
    ("h1_cap2/pauli_x/d2/flat", 0x6d6f63463cce633b),
    ("h1_cap2/pauli_x/d3/flat", 0xaff635a5c141da34),
    ("h1_cap2/pauli_x/d5/flat", 0x4d544f73ec1f8c54),
    ("h1_cap2/pauli_y/d2/flat", 0xcafe91dbba04b11f),
    ("h1_cap2/pauli_y/d3/flat", 0x9ed1385b7046726d),
    ("h1_cap2/pauli_y/d5/flat", 0x8d9c3add94ab9b21),
    ("h1_cap2/pauli_z/d2/flat", 0x84391b0a3b72da81),
    ("h1_cap2/pauli_z/d3/flat", 0x5211bc850e1b29d4),
    ("h1_cap2/pauli_z/d5/flat", 0x7556154d5a6ef51e),
    ("h1_cap2/hadamard/d2/flat", 0x3d22f86083b1828d),
    ("h1_cap2/hadamard/d3/flat", 0x5e6b8f7f311cec5d),
    ("h1_cap2/hadamard/d5/flat", 0xb11691369ea83521),
    ("h1_cap2/idle/d2/flat", 0x03134fdf0eaa7af1),
    ("h1_cap2/idle/d3/flat", 0x9f3435f37bfb5c5c),
    ("h1_cap2/idle/d5/flat", 0xa5197e1e401b0fb8),
    ("h1_cap2/measure_xx/d2/flat", 0x0f70c632178aa811),
    ("h1_cap2/measure_xx/d3/flat", 0xb334720c6895ba4a),
    ("h1_cap2/measure_xx/d5/flat", 0x5ab29db9b4794aa3),
    ("h1_cap2/measure_zz/d2/flat", 0xa48b0d15ca285ba0),
    ("h1_cap2/measure_zz/d3/flat", 0x155e68066498ebad),
    ("h1_cap2/measure_zz/d5/flat", 0x7fc4f51507d8114f),
];
