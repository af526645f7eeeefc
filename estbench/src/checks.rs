//! Output checks. They run outside every timed region; each failure is
//! counted against the request it checked and feeds `pass_ratio`.

use std::collections::HashSet;

use tiscc_core::Instruction;
use tiscc_estimator::compiler::{CompileRequest, Compiler, EstimateMode};
use tiscc_estimator::program::{ProgramEstimate, ProgramEstimateSpec};
use tiscc_frontier::{pareto_flags_bruteforce, FrontierReport, FrontierSpec};
use tiscc_program::{schedule, LogicalProgram, Placement, Schedule, Tile};

/// An independent schedule checker: every instruction sits in exactly one
/// step, program order is kept on every qubit, no two members of a step
/// share a qubit or a corridor tile, and the step and total logical time
/// steps follow the Table 1 accounting.
pub fn check_schedule(program: &LogicalProgram, sched: &Schedule) -> Result<(), String> {
    let n = program.len();
    let mut step_of: Vec<Option<usize>> = vec![None; n];
    let mut total_lts = 0usize;
    for (s, step) in sched.steps.iter().enumerate() {
        let mut qubits = HashSet::new();
        let mut tiles: HashSet<Tile> = HashSet::new();
        let mut lts = 0usize;
        for &i in &step.instructions {
            let slot =
                step_of.get_mut(i).ok_or(format!("step {s} names instruction {i} of {n}"))?;
            if let Some(prev) = slot.replace(s) {
                return Err(format!("instruction {i} is in steps {prev} and {s}"));
            }
            let pi = &program.instructions()[i];
            for q in &pi.qubits {
                if !qubits.insert(*q) {
                    return Err(format!("step {s} uses qubit {} twice", q.0));
                }
            }
            for tile in sched.corridors.get(i).into_iter().flatten().flatten() {
                if !tiles.insert(*tile) {
                    return Err(format!("step {s} uses corridor tile {tile:?} twice"));
                }
            }
            lts = lts.max(pi.instruction.logical_time_steps());
        }
        if lts != step.logical_time_steps {
            return Err(format!(
                "step {s} costs {} logical steps, expected {lts}",
                step.logical_time_steps
            ));
        }
        total_lts += lts;
    }
    if let Some(i) = step_of.iter().position(Option::is_none) {
        return Err(format!("instruction {i} is in no step"));
    }
    if total_lts != sched.logical_time_steps {
        return Err(format!(
            "schedule totals {} logical steps, steps sum to {total_lts}",
            sched.logical_time_steps
        ));
    }
    let mut last_step: Vec<Option<usize>> = vec![None; program.qubit_count()];
    for (i, pi) in program.instructions().iter().enumerate() {
        let s = step_of[i].expect("checked above");
        for q in &pi.qubits {
            if last_step[q.0].is_some_and(|prev| prev >= s) {
                return Err(format!(
                    "instruction {i} runs no later than an earlier one on qubit {}",
                    q.0
                ));
            }
            last_step[q.0] = Some(s);
        }
    }
    Ok(())
}

/// Program duration from a schedule and per-kind times: each step costs
/// its longest member, the program the sum over steps.
pub fn duration_of(
    program: &LogicalProgram,
    sched: &Schedule,
    time_of: impl Fn(Instruction) -> f64,
) -> f64 {
    sched
        .steps
        .iter()
        .map(|step| {
            step.instructions
                .iter()
                .map(|&i| time_of(program.instructions()[i].instruction))
                .fold(0.0, f64::max)
        })
        .sum()
}

/// The program's distinct instruction kinds, in first-appearance order.
pub fn distinct_kinds(program: &LogicalProgram) -> Vec<Instruction> {
    let mut kinds: Vec<Instruction> = Vec::new();
    for pi in program.instructions() {
        if !kinds.contains(&pi.instruction) {
            kinds.push(pi.instruction);
        }
    }
    kinds
}

/// Execution time of one kind at distance `d`, through `compiler`.
fn kind_time(
    compiler: &Compiler,
    kind: Instruction,
    d: usize,
    profile: &tiscc_hw::HardwareSpec,
    mode: EstimateMode,
) -> Result<f64, String> {
    compiler
        .estimate_row(&CompileRequest::new(kind, d, d, d).with_spec(profile.clone()), mode)
        .map(|row| row.resources.execution_time_s)
        .map_err(|e| e.to_string())
}

/// Pushes `what` onto `errors` unless `ok`.
fn expect(errors: &mut Vec<String>, ok: bool, what: impl FnOnce() -> String) {
    if !ok {
        errors.push(what());
    }
}

/// Deep checks of an estimate against an independent schedule of the
/// same program: the schedule checker, the report's schedule fields, the
/// generator's instruction count, `qubit_rounds = zones × logical steps ×
/// d`, `achieved_error ≤ budget`, and `duration_s` recomputed bit-for-bit
/// from the schedule and per-kind rows of `compiler`.
pub fn check_estimate(
    program: &LogicalProgram,
    spec: &ProgramEstimateSpec,
    est: &ProgramEstimate,
    expected_instructions: Option<usize>,
    compiler: &Compiler,
) -> Vec<String> {
    let mut errors = Vec::new();
    let placement = match Placement::allocate_with(program, &spec.layout) {
        Ok(p) => p,
        Err(e) => return vec![format!("placement failed: {e}")],
    };
    let sched = match schedule(program, &placement) {
        Ok(s) => s,
        Err(e) => return vec![format!("schedule failed: {e}")],
    };
    if let Err(e) = check_schedule(program, &sched) {
        errors.push(format!("schedule checker: {e}"));
    }
    let fields = [
        ("instructions", est.instructions, program.len()),
        ("depth", est.depth, sched.depth()),
        ("logical_time_steps", est.logical_time_steps, sched.logical_time_steps),
        ("routing_stalls", est.routing_stalls, sched.routing_stalls),
        ("parallel_merges", est.parallel_merges, sched.parallel_merges),
        ("routed_merges", est.routed_merges, sched.routed_merges()),
        ("tiles", est.tiles, placement.total_tiles()),
    ];
    for (name, got, want) in fields {
        expect(&mut errors, got == want, || format!("report {name} {got}, schedule says {want}"));
    }
    expect(&mut errors, est.patch_steps == sched.patch_steps(placement.total_tiles()), || {
        format!("report patch_steps {} disagrees with the schedule", est.patch_steps)
    });
    if let Some(n) = expected_instructions {
        expect(&mut errors, est.instructions == n, || {
            format!("{} instructions, generator promises {n}", est.instructions)
        });
    }
    expect(&mut errors, est.rows.len() == spec.profiles.len(), || "one row per profile".into());
    let kinds = distinct_kinds(program);
    for (row, profile) in est.rows.iter().zip(&spec.profiles) {
        let d = row.distance;
        expect(
            &mut errors,
            row.qubit_rounds
                == row.trapping_zones as u64 * est.logical_time_steps as u64 * d as u64,
            || format!("{}: qubit_rounds {} != zones × steps × d", row.profile, row.qubit_rounds),
        );
        expect(&mut errors, row.achieved_error <= spec.budget, || {
            format!("{}: error {} exceeds budget {}", row.profile, row.achieved_error, spec.budget)
        });
        let mut times = std::collections::HashMap::new();
        for &kind in &kinds {
            match kind_time(compiler, kind, d, profile, spec.mode) {
                Ok(t) => {
                    times.insert(kind, t);
                }
                Err(e) => errors.push(format!("{kind:?}: {e}")),
            }
        }
        if times.len() == kinds.len() {
            let recomputed = duration_of(program, &sched, |k| times[&k]);
            expect(&mut errors, recomputed.to_bits() == row.duration_s.to_bits(), || {
                format!("{}: duration {} recomputes to {recomputed}", row.profile, row.duration_s)
            });
        }
    }
    errors
}

/// Deep checks of a frontier report: every floorplan's schedule passes
/// the checker, each point's `qubit_rounds` and `duration_s` recompute
/// bit-for-bit, and the Pareto flags equal the brute-force oracle.
pub fn check_frontier(
    program: &LogicalProgram,
    spec: &FrontierSpec,
    report: &FrontierReport,
    compiler: &Compiler,
) -> Vec<String> {
    let mut errors = Vec::new();
    let norm = match spec.normalize() {
        Ok(n) => n,
        Err(e) => return vec![format!("spec: {e}")],
    };
    expect(&mut errors, report.points.len() == norm.matrix_len(), || {
        format!("{} points for a matrix of {}", report.points.len(), norm.matrix_len())
    });
    let kinds = distinct_kinds(program);
    for layout in &norm.layouts {
        let placement = match Placement::allocate_with(program, layout) {
            Ok(p) => p,
            Err(e) => return vec![format!("placement failed: {e}")],
        };
        let sched = match schedule(program, &placement) {
            Ok(s) => s,
            Err(e) => return vec![format!("schedule failed: {e}")],
        };
        if let Err(e) = check_schedule(program, &sched) {
            errors.push(format!("schedule checker ({}): {e}", layout.strategy.name()));
        }
        for p in report.points.iter().filter(|p| p.layout == *layout) {
            expect(
                &mut errors,
                p.qubit_rounds
                    == p.physical_qubits as u64 * sched.logical_time_steps as u64 * p.d as u64,
                || {
                    format!(
                        "point {} d={} {}: qubit_rounds mismatch",
                        layout.strategy.name(),
                        p.d,
                        p.profile
                    )
                },
            );
            let Some(profile) = norm.profiles.iter().find(|h| h.name == p.profile) else {
                errors.push(format!("point names unknown profile {}", p.profile));
                continue;
            };
            let mut times = std::collections::HashMap::new();
            for &kind in &kinds {
                match kind_time(compiler, kind, p.d, profile, spec.mode) {
                    Ok(t) => {
                        times.insert(kind, t);
                    }
                    Err(e) => errors.push(format!("{kind:?}: {e}")),
                }
            }
            if times.len() == kinds.len() {
                let recomputed = duration_of(program, &sched, |k| times[&k]);
                expect(&mut errors, recomputed.to_bits() == p.duration_s.to_bits(), || {
                    format!(
                        "point d={} {}: duration {} recomputes to {recomputed}",
                        p.d, p.profile, p.duration_s
                    )
                });
            }
        }
    }
    let axes: Vec<(usize, f64)> =
        report.points.iter().map(|p| (p.physical_qubits, p.duration_s)).collect();
    let flags: Vec<bool> = report.points.iter().map(|p| p.on_frontier).collect();
    expect(&mut errors, flags == pareto_flags_bruteforce(&axes), || {
        "Pareto flags differ from the brute-force oracle".into()
    });
    errors
}
