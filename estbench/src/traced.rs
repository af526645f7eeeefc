//! The traced run: the same request, made by calling each layer's public
//! functions in the order `estimate_program` / `run_frontier` do, with a
//! span recorded around every call and counts taken at the same
//! boundaries. Spans stay in memory until the run ends.

use std::collections::HashMap;
use std::time::Instant;

use tiscc_core::Instruction;
use tiscc_estimator::compiler::{CompileRequest, CompileStats, Compiler, EstimateMode};
use tiscc_estimator::program::{ProfileEstimate, ProgramEstimate, ProgramEstimateSpec};
use tiscc_estimator::sweep::SweepKey;
use tiscc_estimator::tables::ResourceRow;
use tiscc_estimator::verify::{SingleTile, TwoTiles};
use tiscc_frontier::{
    frontier_to_csv, pareto_flags, DiskCache, FrontierPoint, FrontierReport, FrontierSpec,
    FrontierStats,
};
use tiscc_hw::ResourceReport;
use tiscc_program::{schedule, LogicalProgram, Placement};

use crate::checks::{distinct_kinds, duration_of};
use crate::util::json_string;

/// One recorded span: which request it belongs to, its name, the span
/// that caused it, and its start and end in seconds since the run began.
#[derive(Clone, Debug)]
pub struct SpanRec {
    pub request: u32,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_s: f64,
    pub end_s: f64,
}

/// An in-memory span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<SpanRec>,
    request: u32,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new(), request: 0 }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Opens the root span of a new request.
    pub fn begin_request(&mut self, name: &'static str) -> usize {
        self.request += 1;
        self.begin(name, None)
    }

    /// Opens a span under `parent`.
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start_s = self.now();
        self.spans.push(SpanRec { request: self.request, name, parent, start_s, end_s: start_s });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    pub fn end(&mut self, id: usize) {
        self.spans[id].end_s = self.now();
    }

    /// Runs `f` inside a span named `name` under `parent`.
    pub fn leaf<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, Some(parent));
        let out = f();
        self.end(id);
        out
    }

    /// Duration of span `id` in seconds.
    pub fn duration(&self, id: usize) -> f64 {
        self.spans[id].end_s - self.spans[id].start_s
    }

    /// Per-name totals and per-layer self times of the request rooted at
    /// `root`. A span's self time is its duration minus its direct
    /// children's; a layer is the span-name prefix before the first `.`.
    pub fn profile(&self, root: usize) -> Profile {
        let request = self.spans[root].request;
        let spans = &self.spans[root..];
        let mut child_time = vec![0.0; spans.len()];
        for s in spans.iter().filter(|s| s.request == request) {
            if let Some(p) = s.parent {
                child_time[p - root] += s.end_s - s.start_s;
            }
        }
        let mut profile = Profile::default();
        for (i, s) in spans.iter().enumerate().filter(|(_, s)| s.request == request) {
            let dur = s.end_s - s.start_s;
            *profile.total.entry(s.name).or_default() += dur;
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *profile.self_time.entry(layer.to_string()).or_default() += dur - child_time[i];
            if s.name == "estimator.estimate_row" {
                profile.max_row = profile.max_row.max(dur);
            }
        }
        profile
    }

    /// Every span as one JSON document, written once the run ends.
    pub fn to_json(&self) -> String {
        let spans: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                format!(
                    "{{\"id\":{id},\"request\":{},\"name\":{},\"parent\":{},\"start_s\":{},\"end_s\":{}}}",
                    s.request,
                    json_string(s.name),
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.start_s,
                    s.end_s
                )
            })
            .collect();
        format!("{{\"schema\":\"estbench.spans.v1\",\"spans\":[{}]}}", spans.join(","))
    }
}

/// Totals of one traced request.
#[derive(Default, Debug)]
pub struct Profile {
    /// Summed duration per span name.
    pub total: HashMap<&'static str, f64>,
    /// Summed self time per layer.
    pub self_time: HashMap<String, f64>,
    /// The slowest single `estimator.estimate_row` call.
    pub max_row: f64,
}

impl Profile {
    pub fn get(&self, name: &str) -> f64 {
        self.total.get(name).copied().unwrap_or(0.0)
    }

    pub fn self_of(&self, layer: &str) -> f64 {
        self.self_time.get(layer).copied().unwrap_or(0.0)
    }
}

/// Counts taken at the estimator boundary of one traced request.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RowCounts {
    /// Per-kind jobs the request resolved (estimator and disk alike).
    pub jobs: usize,
    /// Jobs served without compile work.
    pub hits: usize,
    /// Jobs that compiled or captured.
    pub misses: usize,
    /// Analytic captures performed.
    pub captures: usize,
    /// Analytic requests answered by a compiled fallback.
    pub fallbacks: usize,
    /// Jobs asked of the analytic path.
    pub analytic_jobs: usize,
}

/// `Compiler::estimate_row` for one job, with the analytic capture and
/// derive made visible: in analytic mode the cell's capture
/// (`Compiler::analytic_artifact`) and `AnalyticArtifact::derive_row` run
/// in their own child spans first, so the `estimate_row` call that
/// follows finds the capture cached.
fn traced_row(
    tr: &mut Tracer,
    root: usize,
    compiler: &Compiler,
    request: &CompileRequest,
    mode: EstimateMode,
    counts: &mut RowCounts,
) -> Result<(ResourceRow, CompileStats), String> {
    let work_before = compiler.analytic_captures() + compiler.cache().misses();
    let captures_before = compiler.analytic_captures();
    let fallbacks_before = compiler.analytic_fallbacks();
    let span = tr.begin("estimator.estimate_row", Some(root));
    if mode == EstimateMode::Analytic {
        let capture = tr.begin("estimator.capture", Some(span));
        let artifact = compiler.analytic_artifact(request).map_err(|e| e.to_string())?;
        tr.end(capture);
        if compiler.analytic_captures() == captures_before {
            tr.spans[capture].name = "estimator.capture_hit";
        }
        if let Some(artifact) = artifact {
            tr.leaf("estimator.derive", span, || artifact.derive_row(request.dt));
        }
        counts.analytic_jobs += 1;
    }
    let row = compiler.estimate_row(request, mode).map_err(|e| e.to_string())?;
    tr.end(span);
    counts.jobs += 1;
    if compiler.analytic_captures() + compiler.cache().misses() > work_before {
        counts.misses += 1;
    } else {
        counts.hits += 1;
    }
    counts.captures += compiler.analytic_captures() - captures_before;
    counts.fallbacks += compiler.analytic_fallbacks() - fallbacks_before;
    Ok((row, compiler.stats_for(request)))
}

/// Schedule-layer counts of a traced request.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ProgramCounts {
    pub instructions: usize,
    pub depth: usize,
    pub logical_time_steps: usize,
    pub routed_merges: usize,
    pub parallel_merges: usize,
    pub routing_stalls: usize,
    pub corridor_tiles: usize,
    pub distance: usize,
    pub patch_steps: u64,
}

impl ProgramCounts {
    fn add_schedule(&mut self, sched: &tiscc_program::Schedule) {
        self.depth += sched.depth();
        self.logical_time_steps += sched.logical_time_steps;
        self.routed_merges += sched.routed_merges();
        self.parallel_merges += sched.parallel_merges;
        self.routing_stalls += sched.routing_stalls;
        self.corridor_tiles += sched.corridors.iter().flatten().map(Vec::len).sum::<usize>();
    }
}

/// What a traced request produced.
pub struct Traced {
    /// Root span of the request.
    pub root: usize,
    /// The rendered output (report or frontier CSV).
    pub text: String,
    /// The full matrix as CSV (frontier only), to compare every point.
    pub matrix: Option<String>,
    pub program: ProgramCounts,
    pub rows: RowCounts,
    /// Kinds of the program.
    pub kinds: usize,
    /// Frontier counts: (points, on_frontier, disk_hits, computed).
    pub frontier: Option<(usize, usize, usize, usize)>,
}

/// The estimate request, layer by layer, in `estimate_program`'s order.
pub fn traced_estimate(
    tr: &mut Tracer,
    name: &str,
    text: &str,
    spec: &ProgramEstimateSpec,
    compiler: &Compiler,
) -> Result<Traced, String> {
    let root = tr.begin_request("request");
    let program = tr
        .leaf("program.parse", root, || LogicalProgram::parse(name, text))
        .map_err(|e| e.to_string())?;
    tr.leaf("program.validate", root, || program.validate()).map_err(|e| e.to_string())?;
    let placement = tr
        .leaf("program.place", root, || Placement::allocate_with(&program, &spec.layout))
        .map_err(|e| e.to_string())?;
    let sched = tr
        .leaf("program.schedule", root, || schedule(&program, &placement))
        .map_err(|e| e.to_string())?;
    let patch_steps = sched.patch_steps(placement.total_tiles());
    let (d, achieved_error) = tr
        .leaf("program.select_distance", root, || {
            let d = spec.model.select_distance(patch_steps, spec.budget, spec.d_max)?;
            Ok::<_, tiscc_program::BudgetError>((d, spec.model.program_error(d, patch_steps)))
        })
        .map_err(|e| e.to_string())?;

    let kinds = distinct_kinds(&program);
    let mut rows = RowCounts::default();
    let mut results: HashMap<(usize, Instruction), (f64, CompileStats)> = HashMap::new();
    for (pi, profile) in spec.profiles.iter().enumerate() {
        for &kind in &kinds {
            let request = CompileRequest::new(kind, d, d, d).with_spec(profile.clone());
            let (row, stats) = traced_row(tr, root, compiler, &request, spec.mode, &mut rows)?;
            results.insert((pi, kind), (row.resources.execution_time_s, stats));
        }
    }

    let assemble = tr.begin("bench.assemble", Some(root));
    let layout = placement.layout(d);
    let zones = layout.trapping_zone_count();
    let area_m2 = layout.area_m2();
    let profile_stats = |pi: usize| {
        program.instructions().iter().fold((0usize, 0usize), |(stalls, pulses), inst| {
            let (_, stats) = results[&(pi, inst.instruction)];
            (stalls + stats.junction_stalls, pulses + stats.batched_pulses)
        })
    };
    let estimate = ProgramEstimate {
        program: program.name().to_string(),
        logical_qubits: program.qubit_count(),
        instructions: program.len(),
        tiles: placement.total_tiles(),
        layout: spec.layout,
        grid: (placement.tile_rows(), placement.tile_cols()),
        depth: sched.depth(),
        logical_time_steps: sched.logical_time_steps,
        max_parallelism: sched.max_parallelism(),
        routed_merges: sched.routed_merges(),
        parallel_merges: sched.parallel_merges,
        routing_stalls: sched.routing_stalls,
        patch_steps,
        budget: spec.budget,
        rows: spec
            .profiles
            .iter()
            .enumerate()
            .map(|(pi, profile)| {
                let (junction_stalls, batched_pulses) = profile_stats(pi);
                ProfileEstimate {
                    profile: profile.name.clone(),
                    distance: d,
                    achieved_error,
                    duration_s: duration_of(&program, &sched, |k| results[&(pi, k)].0),
                    trapping_zones: zones,
                    area_m2,
                    qubit_rounds: zones as u64 * sched.logical_time_steps as u64 * d as u64,
                    junction_stalls,
                    batched_pulses,
                    estimate_mode: spec.mode,
                }
            })
            .collect(),
    };
    tr.end(assemble);
    let text = tr.leaf("bench.render", root, || estimate.render());
    tr.end(root);

    let mut counts = ProgramCounts {
        instructions: program.len(),
        distance: d,
        patch_steps,
        ..Default::default()
    };
    counts.add_schedule(&sched);
    Ok(Traced {
        root,
        text,
        matrix: None,
        program: counts,
        rows,
        kinds: kinds.len(),
        frontier: None,
    })
}

/// The frontier request, layer by layer, in `run_frontier`'s order: the
/// disk cache is read first, misses go through the estimator one at a
/// time, fresh rows are written back, then the matrix is assembled,
/// Pareto-flagged and emitted.
pub fn traced_frontier(
    tr: &mut Tracer,
    name: &str,
    text: &str,
    spec: &FrontierSpec,
    compiler: &Compiler,
    disk: &DiskCache,
) -> Result<Traced, String> {
    let root = tr.begin_request("request");
    let program = tr
        .leaf("program.parse", root, || LogicalProgram::parse(name, text))
        .map_err(|e| e.to_string())?;
    let norm =
        tr.leaf("frontier.normalize", root, || spec.normalize()).map_err(|e| e.to_string())?;
    tr.leaf("program.validate", root, || program.validate()).map_err(|e| e.to_string())?;
    let mut counts = ProgramCounts { instructions: program.len(), ..Default::default() };
    let mut layouts = Vec::new();
    for layout in &norm.layouts {
        let placement = tr
            .leaf("program.place", root, || Placement::allocate_with(&program, layout))
            .map_err(|e| e.to_string())?;
        let sched = tr
            .leaf("program.schedule", root, || schedule(&program, &placement))
            .map_err(|e| e.to_string())?;
        counts.add_schedule(&sched);
        let patch_steps = sched.patch_steps(placement.total_tiles());
        layouts.push((*layout, placement, sched, patch_steps));
    }

    let kinds = distinct_kinds(&program);
    let kinds = &kinds;
    let requests: Vec<CompileRequest> = norm
        .profiles
        .iter()
        .flat_map(|profile| {
            norm.distances.iter().flat_map(move |&d| {
                kinds
                    .iter()
                    .map(move |&kind| CompileRequest::new(kind, d, d, d).with_spec(profile.clone()))
            })
        })
        .collect();
    let mut times: HashMap<SweepKey, f64> = HashMap::new();
    let mut missing = Vec::new();
    let read = tr.begin("frontier.cache_read", Some(root));
    for request in &requests {
        match disk.get(&request.key(), spec.mode) {
            Some(row) => {
                times.insert(request.key(), row.resources.execution_time_s);
            }
            None => missing.push(request),
        }
    }
    tr.end(read);
    let disk_hits = requests.len() - missing.len();
    let mut rows = RowCounts { jobs: disk_hits, hits: disk_hits, ..Default::default() };
    let mut computed = Vec::new();
    for request in &missing {
        let (row, _) = traced_row(tr, root, compiler, request, spec.mode, &mut rows)?;
        computed.push((request.key(), row));
    }
    let write = tr.begin("frontier.cache_write", Some(root));
    for (key, row) in &computed {
        disk.insert(key, spec.mode, row).map_err(|e| e.to_string())?;
        times.insert(*key, row.resources.execution_time_s);
    }
    tr.end(write);

    let assemble = tr.begin("bench.assemble", Some(root));
    let mut points = Vec::with_capacity(norm.matrix_len());
    for (layout, placement, sched, patch_steps) in &layouts {
        let grid = (placement.tile_rows(), placement.tile_cols());
        for &d in &norm.distances {
            let machine = placement.layout(d);
            let zones = machine.trapping_zone_count();
            let area_m2 = machine.area_m2();
            let error = spec.model.program_error(d, *patch_steps);
            let qubit_rounds = zones as u64 * sched.logical_time_steps as u64 * d as u64;
            for profile in &norm.profiles {
                let fp = profile.fingerprint();
                let duration_s = duration_of(&program, sched, |kind| {
                    times[&SweepKey { instruction: kind, dx: d, dz: d, dt: d, spec: fp }]
                });
                points.push(FrontierPoint {
                    layout: *layout,
                    grid,
                    d,
                    profile: profile.name.clone(),
                    physical_qubits: zones,
                    duration_s,
                    qubit_rounds,
                    error,
                    area_m2,
                    on_frontier: false,
                });
            }
        }
    }
    tr.end(assemble);
    let axes: Vec<(usize, f64)> =
        points.iter().map(|p| (p.physical_qubits, p.duration_s)).collect();
    let flags = tr.leaf("frontier.pareto", root, || pareto_flags(&axes));
    for (point, flag) in points.iter_mut().zip(flags) {
        point.on_frontier = flag;
    }
    let report = FrontierReport {
        program: program.name().to_string(),
        logical_qubits: program.qubit_count(),
        instructions: program.len(),
        mode: spec.mode,
        points,
        stats: FrontierStats {
            jobs: requests.len(),
            disk_hits,
            computed: missing.len(),
            corrupt_entries: disk.corrupt_entries(),
            analytic_captures: rows.captures,
            duplicates_dropped: norm.duplicates_dropped,
        },
    };
    let text = tr.leaf("frontier.emit", root, || frontier_to_csv(&report));
    tr.end(root);

    // The headline point names the distance and patch-steps.
    if let Some(best) =
        report.frontier().into_iter().min_by(|a, b| a.duration_s.total_cmp(&b.duration_s))
    {
        counts.distance = best.d;
        counts.patch_steps = layouts
            .iter()
            .find(|(l, ..)| *l == best.layout)
            .map_or(0, |(_, _, _, patch_steps)| *patch_steps);
    }
    let on_frontier = report.points.iter().filter(|p| p.on_frontier).count();
    Ok(Traced {
        root,
        text,
        matrix: Some(tiscc_frontier::matrix_to_csv(&report)),
        program: counts,
        rows,
        kinds: kinds.len(),
        frontier: Some((report.points.len(), on_frontier, disk_hits, missing.len())),
    })
}

/// Hardware-layer counts over the `Compiler::compile` artifacts of a
/// request's kinds × profiles at distance `d`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HwCounts {
    pub ops_materialized: usize,
    pub ops_logical: usize,
    pub template_repeats: usize,
    pub junction_stalls: usize,
    pub batched_pulses: usize,
}

/// Compiles every kind × profile of `program` at distance `d` and re-runs
/// the stream report on each artifact's rounds, under a `hw` root span.
/// The recomputed report must equal the artifact's.
pub fn traced_hw(
    tr: &mut Tracer,
    program_kinds: &[Instruction],
    spec: &ProgramEstimateSpec,
    d: usize,
) -> Result<(usize, HwCounts), String> {
    let root = tr.begin_request("hw");
    let compiler = Compiler::new();
    let mut counts = HwCounts::default();
    for profile in &spec.profiles {
        for &kind in program_kinds {
            let request = CompileRequest::new(kind, d, d, d).with_spec(profile.clone());
            let artifact = tr
                .leaf("hw.compile", root, || compiler.compile(&request))
                .map_err(|e| e.to_string())?;
            let rounds = &artifact.rounds;
            counts.ops_materialized +=
                rounds.prologue.len() + rounds.template.len() + rounds.epilogue.len();
            counts.ops_logical += rounds.total_ops();
            counts.template_repeats += rounds.repeats;
            counts.junction_stalls += artifact.stats.junction_stalls;
            counts.batched_pulses += artifact.stats.batched_pulses;
            let report = stream_report(tr, root, &artifact.rounds, kind, d, profile)?;
            if report != artifact.resources {
                return Err(format!(
                    "{kind:?}: stream report differs from the compiled artifact's"
                ));
            }
        }
    }
    tr.end(root);
    Ok((root, counts))
}

/// `ResourceReport::from_stream_with_spec` on the grid layout of the
/// instruction's compile fixture.
fn stream_report(
    tr: &mut Tracer,
    root: usize,
    rounds: &tiscc_hw::CompiledRounds,
    kind: Instruction,
    d: usize,
    profile: &tiscc_hw::HardwareSpec,
) -> Result<ResourceReport, String> {
    let hw = match (kind.tiles(), kind) {
        (2, Instruction::MeasureZZ) => {
            TwoTiles::new_horizontal_with_spec(d, d, d, profile.clone()).map(|f| f.hw)
        }
        (2, _) => TwoTiles::with_spec(d, d, d, profile.clone()).map(|f| f.hw),
        _ => SingleTile::with_spec(d, d, d, profile.clone()).map(|f| f.hw),
    }
    .map_err(|e| e.to_string())?;
    let layout = hw.grid().layout();
    Ok(tr.leaf("hw.stream_report", root, || {
        ResourceReport::from_stream_with_spec(rounds, layout, profile)
    }))
}
