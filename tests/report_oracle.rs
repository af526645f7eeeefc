//! Differential oracle for the resource-pricing kernel.
//!
//! `ResourceReport` is priced by a closure-free kernel (flat op runs plus
//! one fused replay pass per round occurrence). This file keeps the
//! per-op fold it replaced as a test-only reference: a walk of every
//! logical op of an [`OpStream`] with running accumulators, and the
//! stream-based analytic derive (re-timed epilogue ops streamed after
//! `repeats` template occurrences). Every kernel report must equal the
//! oracle's exactly — floats compared with `to_bits` — under five hardware
//! configurations (the three presets plus SIMD-batched `h1` and
//! `slow_junction`):
//!
//! * for every instruction and d ∈ {2, 3, 5, 9}: the derived report at
//!   every dt ∈ 1..=2d, the captured periodic rounds at several occurrence
//!   counts and their flattened circuits, and the whole fixture circuit;
//! * real compiles of every instruction at d ∈ {2, 3} and every dt;
//! * hardware-model circuits carrying several replicated spans.

use std::collections::{BTreeMap, BTreeSet};

use tiscc::core::instruction::{apply_instruction, apply_two_tile_instruction, Instruction};
use tiscc::estimator::compiler::{AnalyticArtifact, ANALYTIC_DT_CAP};
use tiscc::estimator::verify::{Fiducial, SingleTile, TwoTiles};
use tiscc::estimator::{CompileRequest, Compiler};
use tiscc::grid::{Layout, QSite};
use tiscc::hw::rounds::replay_round;
use tiscc::hw::{
    batch_ops, batch_rounds, Circuit, CompiledRounds, HardwareModel, HardwareSpec, NativeOp,
    OpStream, OpView, ResourceReport, TimedOp,
};

/// A logical op stream with the two extra views the reference report
/// needs: each distinct op once, and the measurement-record count.
trait OracleStream: OpStream {
    /// Calls `f` once per *distinct* operation (each replicated round's ops
    /// once, not per occurrence).
    fn for_each_distinct_op(&self, f: &mut dyn FnMut(&TimedOp));

    /// Total number of measurement records across every occurrence.
    fn measurement_count(&self) -> usize;
}

impl OracleStream for Circuit {
    fn for_each_distinct_op(&self, f: &mut dyn FnMut(&TimedOp)) {
        for op in self.ops() {
            f(op);
        }
    }

    fn measurement_count(&self) -> usize {
        self.measurements().len()
    }
}

impl OracleStream for CompiledRounds {
    fn for_each_distinct_op(&self, f: &mut dyn FnMut(&TimedOp)) {
        self.prologue.for_each_distinct_op(f);
        if self.repeats > 0 {
            for op in &self.template.ops {
                f(op);
            }
        }
        self.epilogue.for_each_distinct_op(f);
    }

    fn measurement_count(&self) -> usize {
        self.measurements.len()
    }
}

/// The reference report: one pass over distinct ops for the set-valued
/// accounting, one pass over the logical stream for the additive
/// accounting.
fn oracle_report(
    stream: &(impl OracleStream + ?Sized),
    layout: &Layout,
    spec: &HardwareSpec,
) -> ResourceReport {
    let mut zones: BTreeSet<QSite> = BTreeSet::new();
    let mut junctions: BTreeSet<QSite> = BTreeSet::new();
    stream.for_each_distinct_op(&mut |op| {
        zones.extend(op.sites.iter().copied());
        junctions.extend(op.junction);
    });

    let mut makespan_us = 0.0f64;
    let mut op_counts: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut active_zone_seconds = 0.0;
    let mut total_ops = 0usize;
    let mut measure_ops = 0usize;
    stream.for_each_op(&mut |v: OpView<'_>| {
        makespan_us = makespan_us.max(v.end_us());
        *op_counts.entry(v.op.op.mnemonic()).or_insert(0) += 1;
        let zones_involved = v.op.sites.len() + usize::from(v.op.junction.is_some());
        active_zone_seconds += v.op.duration_us * 1e-6 * zones_involved as f64;
        total_ops += 1;
        measure_ops += usize::from(v.op.op == NativeOp::MeasureZ);
    });
    let execution_time_s = makespan_us * 1e-6;

    let area_m2 = {
        let all: Vec<_> = zones.iter().copied().chain(junctions.iter().copied()).collect();
        if all.is_empty() {
            0.0
        } else {
            let rmin = all.iter().map(|s| s.row).min().unwrap();
            let rmax = all.iter().map(|s| s.row).max().unwrap();
            let cmin = all.iter().map(|s| s.col).min().unwrap();
            let cmax = all.iter().map(|s| s.col).max().unwrap();
            let height = (rmax - rmin + 1) as f64 * spec.zone_pitch_m;
            let width = (cmax - cmin + 1) as f64 * spec.zone_pitch_m;
            height * width
        }
    };
    assert!(zones.iter().all(|&z| layout.contains(z)), "circuit leaves its layout");

    ResourceReport {
        execution_time_s,
        area_m2,
        spacetime_volume_s_m2: execution_time_s * area_m2,
        trapping_zones: zones.len(),
        junctions: junctions.len(),
        zone_seconds: zones.len() as f64 * execution_time_s,
        active_zone_seconds,
        op_counts,
        total_ops,
        measurements: stream.measurement_count().max(measure_ops),
    }
}

/// How a captured epilogue op's start arises (absolute frame).
#[derive(Clone, Copy)]
enum EpiPred {
    Barrier,
    Chain(usize),
    ChainRecovery(usize),
}

/// The stream-based reference of `AnalyticArtifact`: the capture's
/// periodic circuit plus the start provenance of each epilogue op (`None`
/// where the epilogue cannot be attributed; the library then falls back).
struct OracleCapture {
    rounds: CompiledRounds,
    epi_preds: Option<Vec<EpiPred>>,
    layout: Layout,
    spec: HardwareSpec,
}

/// Compiles `instruction` on its estimator fixture (input tiles prepared
/// first), returning the model and the instruction's first op index.
fn compile_fixture(
    instruction: Instruction,
    d: usize,
    dt: usize,
    spec: &HardwareSpec,
) -> (HardwareModel, usize) {
    if instruction.tiles() == 2 {
        let mut f = match instruction {
            Instruction::MeasureZZ => {
                TwoTiles::new_horizontal_with_spec(d, d, dt, spec.clone()).unwrap()
            }
            _ => TwoTiles::with_spec(d, d, dt, spec.clone()).unwrap(),
        };
        f.hw.set_round_templating(true);
        Fiducial::Zero.prepare(&mut f.hw, &mut f.upper).unwrap();
        Fiducial::Zero.prepare(&mut f.hw, &mut f.lower).unwrap();
        let before = f.hw.circuit().len();
        apply_two_tile_instruction(&mut f.hw, instruction, &mut f.upper, &mut f.lower).unwrap();
        (f.hw, before)
    } else {
        let mut f = SingleTile::with_spec(d, d, dt, spec.clone()).unwrap();
        f.hw.set_round_templating(true);
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
        let before = f.hw.circuit().len();
        apply_instruction(&mut f.hw, instruction, &mut f.patch).unwrap();
        (f.hw, before)
    }
}

/// The grid layout of `instruction`'s estimator fixture.
fn fixture_layout(instruction: Instruction, d: usize, spec: &HardwareSpec) -> Layout {
    let hw = match (instruction.tiles(), instruction) {
        (2, Instruction::MeasureZZ) => {
            TwoTiles::new_horizontal_with_spec(d, d, 1, spec.clone()).unwrap().hw
        }
        (2, _) => TwoTiles::with_spec(d, d, 1, spec.clone()).unwrap().hw,
        _ => SingleTile::with_spec(d, d, 1, spec.clone()).unwrap().hw,
    };
    hw.grid().layout().clone()
}

impl OracleCapture {
    /// The reference capture of a model compiled at `ANALYTIC_DT_CAP`,
    /// its instruction starting at op `before`.
    fn new(hw: &HardwareModel, before: usize) -> OracleCapture {
        let spec = hw.spec().clone();
        let raw = CompiledRounds::extract(hw.circuit(), before);
        let (remap, rounds) = if spec.simd_width > 1 {
            (batch_ops(raw.epilogue.ops(), &spec).1, batch_rounds(&raw, &spec).0)
        } else {
            ((0..raw.epilogue.len()).collect(), raw)
        };
        let spans: Vec<_> = hw.circuit().spans().iter().filter(|s| s.op_end > before).collect();
        let epi_preds = match spans.as_slice() {
            [] => Some(Vec::new()),
            [span] => attribute_epilogue(hw, span.op_end, span.end_makespan_us, &rounds, &remap),
            _ => None,
        };
        OracleCapture { rounds, epi_preds, layout: hw.grid().layout().clone(), spec }
    }

    /// The reference derive for `repeats` template occurrences.
    fn derive(&self, repeats: usize) -> ResourceReport {
        if self.rounds.repeats == 0 {
            return oracle_report(&self.rounds, &self.layout, &self.spec);
        }
        let grown = repeats as isize - self.rounds.repeats as isize;
        let measurements = (self.rounds.measurements.len() as isize
            + grown * self.rounds.template.meas_per_round as isize)
            as usize;
        let stream = DerivedStream {
            rounds: &self.rounds,
            repeats,
            epilogue: self.derived_epilogue(repeats),
            measurements,
        };
        oracle_report(&stream, &self.layout, &self.spec)
    }

    /// Re-times the epilogue from the barrier after `repeats` occurrences.
    fn derived_epilogue(&self, repeats: usize) -> Circuit {
        let t = &self.rounds.template;
        let mut barrier = t.ops.iter().map(TimedOp::end_us).fold(t.base_us, f64::max);
        let (mut starts, mut ends) = (Vec::new(), Vec::new());
        for _ in 1..repeats {
            barrier =
                replay_round(&t.ops, &t.preds, barrier, t.recovery_us, &mut starts, &mut ends);
        }
        let epi_preds = self.epi_preds.as_ref().expect("attributed epilogue");
        let mut ops = Vec::with_capacity(epi_preds.len());
        let mut abs_ends: Vec<f64> = Vec::with_capacity(epi_preds.len());
        for (op, pred) in self.rounds.epilogue.ops().iter().zip(epi_preds) {
            let abs_start = match *pred {
                EpiPred::Barrier => barrier,
                EpiPred::Chain(i) => abs_ends[i],
                EpiPred::ChainRecovery(i) => abs_ends[i] + t.recovery_us,
            };
            abs_ends.push(abs_start + op.duration_us);
            let mut op = op.clone();
            op.start_us = abs_start - self.rounds.rebase_us;
            ops.push(op);
        }
        Circuit::from_ops(ops)
    }
}

/// Attributes each epilogue op's start, in the scheduler's absolute
/// frame, to the barrier after the last round or to an earlier epilogue
/// op's end (plus the recovery window). Batched pulses start when their
/// first raw member did.
fn attribute_epilogue(
    hw: &HardwareModel,
    epilogue_start: usize,
    barrier: f64,
    rounds: &CompiledRounds,
    remap: &[usize],
) -> Option<Vec<EpiPred>> {
    let raw_epilogue = &hw.circuit().ops()[epilogue_start..];
    let mut abs_starts = vec![f64::NAN; rounds.epilogue.len()];
    for (raw_idx, &pulse) in remap.iter().enumerate() {
        if abs_starts[pulse].is_nan() {
            abs_starts[pulse] = raw_epilogue[raw_idx].start_us;
        }
    }
    let recovery = hw.spec().junction_recovery_us;
    let mut epi_preds = Vec::new();
    let mut ends: Vec<f64> = Vec::new();
    for (pulse, op) in rounds.epilogue.ops().iter().enumerate() {
        let start = abs_starts[pulse];
        let pred = if start == barrier {
            EpiPred::Barrier
        } else if let Some(i) = ends.iter().rposition(|&e| e == start) {
            EpiPred::Chain(i)
        } else if let Some(i) =
            (recovery > 0.0).then(|| ends.iter().rposition(|&e| e + recovery == start)).flatten()
        {
            EpiPred::ChainRecovery(i)
        } else {
            return None;
        };
        epi_preds.push(pred);
        ends.push(start + op.duration_us);
    }
    Some(epi_preds)
}

/// A captured periodic circuit re-targeted to `repeats` occurrences.
struct DerivedStream<'a> {
    rounds: &'a CompiledRounds,
    repeats: usize,
    epilogue: Circuit,
    measurements: usize,
}

impl OpStream for DerivedStream<'_> {
    fn for_each_op(&self, f: &mut dyn FnMut(OpView<'_>)) {
        let t = &self.rounds.template;
        self.rounds.prologue.for_each_op(f);
        for op in &t.ops {
            f(OpView {
                op,
                start_us: op.start_us - self.rounds.rebase_us,
                measurement: op.measurement,
            });
        }
        let mut base = t.ops.iter().map(TimedOp::end_us).fold(t.base_us, f64::max);
        let (mut starts, mut ends) = (Vec::new(), Vec::new());
        for r in 1..self.repeats {
            base = replay_round(&t.ops, &t.preds, base, t.recovery_us, &mut starts, &mut ends);
            let meas_shift = r * t.meas_per_round;
            for (i, op) in t.ops.iter().enumerate() {
                f(OpView {
                    op,
                    start_us: starts[i] - self.rounds.rebase_us,
                    measurement: op.measurement.map(|m| m + meas_shift),
                });
            }
        }
        self.epilogue.for_each_op(f);
    }
}

impl OracleStream for DerivedStream<'_> {
    fn for_each_distinct_op(&self, f: &mut dyn FnMut(&TimedOp)) {
        self.rounds.prologue.for_each_distinct_op(f);
        for op in &self.rounds.template.ops {
            f(op);
        }
        self.epilogue.for_each_distinct_op(f);
    }

    fn measurement_count(&self) -> usize {
        self.measurements
    }
}

/// Exact equality, floats bit for bit.
fn assert_same(kernel: &ResourceReport, oracle: &ResourceReport, ctx: &str) {
    for (what, k, o) in [
        ("execution_time_s", kernel.execution_time_s, oracle.execution_time_s),
        ("area_m2", kernel.area_m2, oracle.area_m2),
        ("spacetime_volume_s_m2", kernel.spacetime_volume_s_m2, oracle.spacetime_volume_s_m2),
        ("zone_seconds", kernel.zone_seconds, oracle.zone_seconds),
        ("active_zone_seconds", kernel.active_zone_seconds, oracle.active_zone_seconds),
    ] {
        assert_eq!(k.to_bits(), o.to_bits(), "{what}: kernel {k:?} vs oracle {o:?} ({ctx})");
    }
    assert_eq!(kernel, oracle, "{ctx}");
}

/// The five hardware configurations of the grid.
fn configurations() -> Vec<HardwareSpec> {
    let with_width = |mut spec: HardwareSpec, width: usize| {
        spec.simd_width = width;
        spec
    };
    vec![
        HardwareSpec::h1(),
        HardwareSpec::projected(),
        HardwareSpec::slow_junction(),
        with_width(HardwareSpec::h1(), 2),
        with_width(HardwareSpec::slow_junction(), 3),
    ]
}

/// Kernel vs oracle on one `(instruction, d, spec)` cell: the whole model
/// circuit, the capture's periodic rounds at several occurrence counts
/// (flattened too), and the derived report at every dt in 1..=2d.
fn check_cell(instruction: Instruction, d: usize, spec: &HardwareSpec) {
    let ctx = format!("{instruction:?} d={d} {} width={}", spec.name, spec.simd_width);
    let (hw, before) = compile_fixture(instruction, d, ANALYTIC_DT_CAP, spec);
    let layout = hw.grid().layout().clone();
    assert_same(&hw.resource_report(), &oracle_report(hw.circuit(), &layout, spec), &ctx);

    let oracle = OracleCapture::new(&hw, before);
    let mut rounds = oracle.rounds.clone();
    let occurrences = if rounds.repeats == 0 { vec![0] } else { vec![1, 2, 3, 2 * d] };
    for repeats in occurrences {
        rounds.repeats = repeats;
        let ctx = format!("{ctx} repeats={repeats}");
        let expected = oracle_report(&rounds, &layout, spec);
        let kernel = ResourceReport::from_stream_with_spec(&rounds, &layout, spec);
        assert_same(&kernel, &expected, &ctx);
        let flat = rounds.materialize();
        assert!(!flat.is_periodic());
        assert_same(&ResourceReport::from_circuit_with_spec(&flat, &layout, spec), &expected, &ctx);
    }

    let artifact = AnalyticArtifact::capture(instruction, d, d, spec.clone()).unwrap();
    let Some(artifact) = artifact else { return };
    assert!(oracle.epi_preds.is_some(), "kernel captured what the oracle could not ({ctx})");
    for dt in 1..=2 * d {
        let Some(kernel) = artifact.derive(dt) else { continue };
        let repeats = (oracle.rounds.repeats + dt).saturating_sub(ANALYTIC_DT_CAP);
        assert_same(&kernel, &oracle.derive(repeats), &format!("{ctx} derive dt={dt}"));
    }
}

/// Every instruction × d ∈ {2, 3, 5, 9} under one configuration (one test
/// per configuration, so the grid runs in parallel).
fn check_configuration(index: usize) {
    let spec = &configurations()[index];
    for &instruction in Instruction::all() {
        for d in [2usize, 3, 5, 9] {
            check_cell(instruction, d, spec);
        }
    }
}

#[test]
fn kernel_matches_the_per_op_fold_under_h1() {
    check_configuration(0);
}

#[test]
fn kernel_matches_the_per_op_fold_under_projected() {
    check_configuration(1);
}

#[test]
fn kernel_matches_the_per_op_fold_under_slow_junction() {
    check_configuration(2);
}

#[test]
fn kernel_matches_the_per_op_fold_under_h1_simd_2() {
    check_configuration(3);
}

#[test]
fn kernel_matches_the_per_op_fold_under_slow_junction_simd_3() {
    check_configuration(4);
}

#[test]
fn kernel_matches_the_fold_on_multi_span_model_circuits() {
    for spec in configurations() {
        for d in [2usize, 3, 5] {
            // Two templated idles and a measurement on one tile, an idle and
            // a joint measurement on two: several replicated spans each.
            let mut one = SingleTile::with_spec(d, d, d + 2, spec.clone()).unwrap();
            one.hw.set_round_templating(true);
            Fiducial::Zero.prepare(&mut one.hw, &mut one.patch).unwrap();
            for instruction in [Instruction::Idle, Instruction::Idle, Instruction::MeasureX] {
                apply_instruction(&mut one.hw, instruction, &mut one.patch).unwrap();
            }
            let mut two = TwoTiles::new_horizontal_with_spec(d, d, d + 2, spec.clone()).unwrap();
            two.hw.set_round_templating(true);
            Fiducial::Zero.prepare(&mut two.hw, &mut two.upper).unwrap();
            Fiducial::Zero.prepare(&mut two.hw, &mut two.lower).unwrap();
            apply_instruction(&mut two.hw, Instruction::Idle, &mut two.upper).unwrap();
            apply_two_tile_instruction(
                &mut two.hw,
                Instruction::MeasureZZ,
                &mut two.upper,
                &mut two.lower,
            )
            .unwrap();
            for (tiles, hw) in [(1, &one.hw), (2, &two.hw)] {
                let ctx = format!("{tiles} tile(s) d={d} {} width={}", spec.name, spec.simd_width);
                assert!(hw.circuit().spans().len() > 1, "{ctx}: expected several spans");
                let oracle = oracle_report(hw.circuit(), hw.grid().layout(), &spec);
                assert_same(&hw.resource_report(), &oracle, &ctx);
            }
        }
    }
}

#[test]
fn kernel_matches_the_fold_on_real_compiles_at_every_dt() {
    for spec in configurations() {
        for &instruction in Instruction::all() {
            for d in [2usize, 3] {
                let layout = fixture_layout(instruction, d, &spec);
                for dt in 1..=2 * d {
                    let request =
                        CompileRequest::new(instruction, d, d, dt).with_spec(spec.clone());
                    let artifact = Compiler::new().compile(&request).unwrap();
                    let oracle = oracle_report(&artifact.rounds, &layout, &spec);
                    let ctx = format!("{instruction:?} d={d} dt={dt} {}", spec.name);
                    assert_same(&artifact.resources, &oracle, &ctx);
                }
            }
        }
    }
}
