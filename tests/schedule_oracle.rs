//! Differential oracle for the program scheduler.
//!
//! `oracle` below is the hash-based scheduler the dense one replaced,
//! kept verbatim as a test-only reference: a `HashMap` per-tile
//! `next_free`, `HashSet` per-step reservations, a closure-based
//! `corridor_avoiding`, and the `HashMap`/`HashSet` multi-source BFS it
//! searched with. The library scheduler (dense tile tables, bitmask
//! reservations, a flood-fill feasibility reject and one BFS per routed
//! merge) must produce the identical `Schedule` — steps, corridors,
//! `routing_stalls`, `parallel_merges` — or the identical `RoutingError`,
//! on every workload family, layout and grid shape.
//!
//! The compact `StepTable` that `schedule_steps` returns (and estimates
//! are priced from) is checked against the same oracle: every aggregate
//! derived from the oracle's `Schedule` must match, and its duration must
//! equal the old per-member `fold(0.0, f64::max)` summed over steps, bit
//! for bit, for random per-kind times with zeros and ties.

use proptest::prelude::*;

use tiscc::core::instruction::Instruction;
use tiscc::program::{
    kind_bit, schedule, schedule_steps, LayoutSpec, LogicalProgram, Placement, PlacementError,
    Schedule, StepSummary, StepTable,
};
use tiscc::workloads::{generate, Family, GenSpec};

mod oracle {
    use std::collections::{HashMap, HashSet, VecDeque};

    use tiscc::program::{
        LayoutStrategy, LogicalProgram, Placement, QubitRef, RoutingError, Schedule, ScheduleStep,
        Tile,
    };

    fn shortest_tile_path(
        rows: usize,
        cols: usize,
        sources: &[(usize, usize)],
        is_goal: &dyn Fn((usize, usize)) -> bool,
        passable: &dyn Fn((usize, usize)) -> bool,
    ) -> Option<Vec<(usize, usize)>> {
        let in_bounds = |(r, c): (usize, usize)| r < rows && c < cols;
        let mut prev: HashMap<(usize, usize), (usize, usize)> = HashMap::new();
        let mut seen: HashSet<(usize, usize)> = HashSet::new();
        let mut queue: VecDeque<(usize, usize)> = VecDeque::new();
        for &s in sources {
            if in_bounds(s) && passable(s) && seen.insert(s) {
                queue.push_back(s);
            }
        }
        while let Some(tile) = queue.pop_front() {
            if is_goal(tile) {
                let mut path = vec![tile];
                let mut cur = tile;
                while let Some(&p) = prev.get(&cur) {
                    path.push(p);
                    cur = p;
                }
                path.reverse();
                return Some(path);
            }
            let (r, c) = tile;
            let neighbors =
                [(r.wrapping_sub(1), c), (r, c.wrapping_sub(1)), (r, c + 1), (r + 1, c)];
            for next in neighbors {
                if in_bounds(next) && passable(next) && seen.insert(next) {
                    prev.insert(next, tile);
                    queue.push_back(next);
                }
            }
        }
        None
    }

    #[derive(Default)]
    struct Reservations {
        steps: Vec<HashSet<Tile>>,
    }

    impl Reservations {
        fn is_free(&self, step: usize, tile: Tile) -> bool {
            self.steps.get(step).is_none_or(|s| !s.contains(&tile))
        }

        fn reserve(&mut self, step: usize, tiles: impl IntoIterator<Item = Tile>) {
            if self.steps.len() <= step {
                self.steps.resize_with(step + 1, HashSet::new);
            }
            self.steps[step].extend(tiles);
        }

        fn reserved_at(&self, step: usize) -> usize {
            self.steps.get(step).map_or(0, |s| s.len())
        }
    }

    fn free_neighbors(placement: &Placement, tile: Tile) -> Vec<Tile> {
        let (r, c) = tile;
        [(r.wrapping_sub(1), c), (r, c.wrapping_sub(1)), (r, c + 1), (r + 1, c)]
            .into_iter()
            .filter(|&t| placement.in_bounds(t) && !placement.is_occupied(t))
            .collect()
    }

    fn corridor_avoiding(
        placement: &Placement,
        a: QubitRef,
        b: QubitRef,
        blocked: &dyn Fn(Tile) -> bool,
    ) -> Option<Vec<Tile>> {
        let a_tile = placement.data_tile(a);
        let b_tile = placement.data_tile(b);
        let sources = free_neighbors(placement, a_tile);
        let goals: HashSet<Tile> = free_neighbors(placement, b_tile).into_iter().collect();
        if sources.is_empty() || goals.is_empty() {
            return None;
        }
        shortest_tile_path(
            placement.tile_rows(),
            placement.tile_cols(),
            &sources,
            &|t| goals.contains(&t),
            &|t| !placement.is_occupied(t) && !blocked(t),
        )
    }

    pub fn schedule(
        program: &LogicalProgram,
        placement: &Placement,
    ) -> Result<Schedule, RoutingError> {
        let mut sched = match placement.strategy() {
            LayoutStrategy::SingleLane => schedule_single_lane(program, placement),
            LayoutStrategy::RowMajor | LayoutStrategy::Checkerboard => {
                schedule_routed(program, placement)?
            }
        };
        sched.logical_time_steps = sched.steps.iter().map(|s| s.logical_time_steps).sum();
        sched.parallel_merges = parallel_merges(program, &sched.steps);
        Ok(sched)
    }

    fn parallel_merges(program: &LogicalProgram, steps: &[ScheduleStep]) -> usize {
        steps
            .iter()
            .map(|step| {
                let merges = step
                    .instructions
                    .iter()
                    .filter(|&&i| program.instructions()[i].qubits.len() == 2)
                    .count();
                if merges >= 2 {
                    merges
                } else {
                    0
                }
            })
            .sum()
    }

    fn schedule_single_lane(program: &LogicalProgram, placement: &Placement) -> Schedule {
        let mut next_free: HashMap<Tile, usize> = HashMap::new();
        let mut steps: Vec<ScheduleStep> = Vec::new();
        let mut corridors: Vec<Option<Vec<Tile>>> = Vec::with_capacity(program.len());
        let mut routing_stalls = 0usize;
        for (idx, pi) in program.instructions().iter().enumerate() {
            let footprint = placement.footprint(pi);
            let start =
                footprint.iter().map(|t| next_free.get(t).copied().unwrap_or(0)).max().unwrap_or(0);
            let ready = pi
                .qubits
                .iter()
                .map(|&q| next_free.get(&placement.data_tile(q)).copied().unwrap_or(0))
                .max()
                .unwrap_or(0);
            routing_stalls += start - ready;
            let lane = placement.lane_span(pi);
            corridors.push(if lane.is_empty() { None } else { Some(lane) });
            if start == steps.len() {
                steps.push(ScheduleStep { instructions: Vec::new(), logical_time_steps: 0 });
            }
            let step = &mut steps[start];
            step.instructions.push(idx);
            step.logical_time_steps =
                step.logical_time_steps.max(pi.instruction.logical_time_steps());
            for t in footprint {
                next_free.insert(t, start + 1);
            }
        }
        Schedule { steps, logical_time_steps: 0, routing_stalls, parallel_merges: 0, corridors }
    }

    fn schedule_routed(
        program: &LogicalProgram,
        placement: &Placement,
    ) -> Result<Schedule, RoutingError> {
        let mut next_free: HashMap<Tile, usize> = HashMap::new();
        let mut reserved = Reservations::default();
        let mut steps: Vec<ScheduleStep> = Vec::new();
        let mut corridors: Vec<Option<Vec<Tile>>> = Vec::with_capacity(program.len());
        let mut routing_stalls = 0usize;
        for (idx, pi) in program.instructions().iter().enumerate() {
            let data: Vec<Tile> = pi.qubits.iter().map(|&q| placement.data_tile(q)).collect();
            let ready =
                data.iter().map(|t| next_free.get(t).copied().unwrap_or(0)).max().unwrap_or(0);
            let (start, corridor) = if pi.qubits.len() == 2 {
                let (a, b) = (pi.qubits[0], pi.qubits[1]);
                let mut s = ready;
                loop {
                    let path = corridor_avoiding(placement, a, b, &|t| !reserved.is_free(s, t));
                    match path {
                        Some(path) => break (s, Some(path)),
                        None if reserved.reserved_at(s) == 0 => {
                            return Err(RoutingError {
                                instruction: Some(pi.instruction),
                                a: program.qubit_name(a).to_string(),
                                a_tile: placement.data_tile(a),
                                b: program.qubit_name(b).to_string(),
                                b_tile: placement.data_tile(b),
                                line: pi.line,
                            });
                        }
                        None => {
                            routing_stalls += 1;
                            s += 1;
                        }
                    }
                }
            } else {
                (ready, None)
            };
            if start == steps.len() {
                steps.push(ScheduleStep { instructions: Vec::new(), logical_time_steps: 0 });
            }
            let step = &mut steps[start];
            step.instructions.push(idx);
            step.logical_time_steps =
                step.logical_time_steps.max(pi.instruction.logical_time_steps());
            if let Some(corridor) = &corridor {
                reserved.reserve(start, corridor.iter().copied());
            }
            for t in data {
                next_free.insert(t, start + 1);
            }
            corridors.push(corridor);
        }
        Ok(Schedule { steps, logical_time_steps: 0, routing_stalls, parallel_merges: 0, corridors })
    }
}

/// The multi-row grids that exercise vertical flood fill and word
/// boundaries (80 and 320 columns span 2 and 5 words per row), besides
/// each strategy's auto-sized two-row grid.
const GRIDS: [Option<(usize, usize)>; 6] =
    [None, Some((4, 80)), Some((5, 80)), Some((3, 320)), Some((6, 400)), Some((7, 64))];

/// The step table a `Schedule` implies: each step's cost, width, merge
/// count and kind mask, and the totals.
fn table_of(program: &LogicalProgram, sched: &Schedule) -> StepTable {
    let steps = sched
        .steps
        .iter()
        .map(|step| {
            let mut summary = StepSummary {
                logical_time_steps: step.logical_time_steps as u32,
                width: step.instructions.len() as u32,
                ..StepSummary::default()
            };
            for &i in &step.instructions {
                let pi = &program.instructions()[i];
                summary.merges += u32::from(pi.qubits.len() == 2);
                summary.kinds |= kind_bit(pi.instruction);
            }
            summary
        })
        .collect();
    StepTable {
        steps,
        logical_time_steps: sched.logical_time_steps,
        routing_stalls: sched.routing_stalls,
        routed_merges: sched.routed_merges(),
        corridor_tiles: sched.corridors.iter().flatten().map(Vec::len).sum(),
        parallel_merges: sched.parallel_merges,
        max_parallelism: sched.max_parallelism(),
    }
}

/// Per-kind times drawn from `seed`: zeros, ties and distinct values.
fn kind_times(seed: u64) -> [f64; 16] {
    let mut state = seed;
    let mut times = [0.0; 16];
    for t in &mut times {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        *t = match state >> 61 {
            0 | 1 => 0.0,
            2 => 1.5e-3,
            3 => 1.5e-3 * 3.0,
            _ => (state >> 11) as f64 / (1u64 << 53) as f64 * 0.25,
        };
    }
    times
}

/// The duration the estimator and frontier computed before the step
/// table: each step's members folded with `f64::max` in program order,
/// summed over steps.
fn member_fold_duration(program: &LogicalProgram, sched: &Schedule, times: &[f64; 16]) -> f64 {
    sched
        .steps
        .iter()
        .map(|step| {
            step.instructions
                .iter()
                .map(|&i| times[program.instructions()[i].instruction as usize])
                .fold(0.0, f64::max)
        })
        .sum()
}

/// Asserts the library scheduler and step table agree with the oracle on
/// `program` under every strategy × grid that can place it; returns how
/// many floorplans were compared.
fn assert_matches_oracle(program: &LogicalProgram) -> usize {
    let mut compared = 0;
    for strategy in [LayoutSpec::single_lane(), LayoutSpec::row_major(), LayoutSpec::checkerboard()]
    {
        for grid in GRIDS {
            let spec = match grid {
                Some((rows, cols)) => strategy.with_grid(rows, cols),
                None => strategy,
            };
            let placement = match Placement::allocate_with(program, &spec) {
                Ok(placement) => placement,
                Err(PlacementError::GridTooSmall { .. }) => continue,
                Err(e) => panic!("{spec:?}: {e}"),
            };
            let expected = oracle::schedule(program, &placement);
            assert_eq!(
                schedule(program, &placement),
                expected,
                "{} under {spec:?}",
                program.name()
            );
            let table = schedule_steps(program, &placement);
            match &expected {
                Ok(sched) => {
                    let table = table.unwrap();
                    assert_eq!(
                        table,
                        table_of(program, sched),
                        "{} under {spec:?}",
                        program.name()
                    );
                    for seed in 0..4 {
                        let times = kind_times(seed ^ program.len() as u64);
                        assert_eq!(
                            table.duration_s(|kind| times[kind as usize]).to_bits(),
                            member_fold_duration(program, sched, &times).to_bits(),
                            "{} under {spec:?}, times {times:?}",
                            program.name()
                        );
                    }
                }
                Err(e) => assert_eq!(table.as_ref().unwrap_err(), e),
            }
            compared += 1;
        }
    }
    compared
}

fn arb_workload() -> impl Strategy<Value = GenSpec> {
    (0..Family::all().len(), 2usize..24, 0u64..u64::MAX, 0u32..=10).prop_map(
        |(family_idx, n, seed, t_tenths)| {
            GenSpec::new(Family::all()[family_idx])
                .with_n(n)
                .with_seed(seed)
                .with_t_fraction(f64::from(t_tenths) / 10.0)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every workload family, on every layout and grid shape, schedules
    /// identically under the dense scheduler and the oracle.
    #[test]
    fn dense_scheduler_matches_the_hash_based_oracle(spec in arb_workload()) {
        let program = generate(&spec).unwrap();
        prop_assert!(assert_matches_oracle(&program) > 0, "{spec:?} placed nowhere");
    }
}

/// Congested random Clifford+T programs: thousands of routing stalls on
/// the two-row auto grids, vertical detours on the multi-row ones.
#[test]
fn congested_random_programs_match_the_oracle() {
    let program =
        generate(&GenSpec::new(Family::RandomCliffordT).with_n(1024).with_seed(101)).unwrap();
    assert_eq!(assert_matches_oracle(&program), 18);
}

/// A floorplan too dense to route fails with the oracle's exact error:
/// 159 qubits on a 24×24 checkerboard leave interior patches walled in.
#[test]
fn unroutable_floorplans_fail_with_the_oracle_error() {
    let program =
        generate(&GenSpec::new(Family::RandomCliffordT).with_n(20_000).with_seed(7)).unwrap();
    assert_eq!(program.qubit_count(), 159);
    let placement =
        Placement::allocate_with(&program, &LayoutSpec::checkerboard().with_grid(24, 24)).unwrap();
    let expected = oracle::schedule(&program, &placement).unwrap_err();
    assert_eq!(schedule(&program, &placement).unwrap_err(), expected);
    assert_eq!(schedule_steps(&program, &placement).unwrap_err(), expected);
}

/// Every workload family at a fixed size, on every layout and grid.
#[test]
fn every_zoo_family_matches_the_oracle() {
    for &family in Family::all() {
        let program = generate(&GenSpec::new(family).with_n(12).with_seed(3)).unwrap();
        assert!(assert_matches_oracle(&program) > 0, "{family} placed nowhere");
    }
}

/// Kinds fit the step table's 16-bit mask, and a step's duration is read
/// off the mask: a step of only zero-time kinds costs nothing, and ties
/// and zeros give the member fold's exact bits.
#[test]
fn step_duration_is_the_maximum_over_the_kinds_present() {
    assert!(Instruction::all().len() <= 16);
    let program = tiscc::program::examples::teleportation();
    let placement = Placement::allocate(&program);
    let sched = schedule(&program, &placement).unwrap();
    let table = schedule_steps(&program, &placement).unwrap();
    for times in [[0.0; 16], [2.5e-3; 16], kind_times(1), kind_times(99)] {
        assert_eq!(
            table.duration_s(|kind| times[kind as usize]).to_bits(),
            member_fold_duration(&program, &sched, &times).to_bits()
        );
    }
}
