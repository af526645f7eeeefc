//! `estbench`: the end-to-end and per-layer benchmark of the TISCC-rs
//! estimator.
//!
//! One process acts as one closed-loop client: it sends one request at a
//! time to the library's public front doors (the calls `tiscc estimate`
//! and `tiscc frontier` make) and waits for each reply. See README.md in
//! this directory for the workloads, metrics and how to rerun them.
//!
//! ```text
//! cargo run --release --manifest-path estbench/Cargo.toml -- \
//!     --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod checks;
mod traced;
mod util;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use tiscc_estimator::compiler::{Compiler, EstimateMode};
use tiscc_estimator::program::estimate_program_with;
use tiscc_frontier::{frontier_to_csv, matrix_to_csv, run_frontier_with, DiskCache};
use tiscc_program::LogicalProgram;
use tiscc_telemetry::Telemetry;

use crate::traced::{Profile, Traced, Tracer};
use crate::util::{json_number, json_string, median, tail};
use crate::workloads::{
    request, setup, Input, Outcome, Pipeline, Reply, RequestSpec, Setup, Workload, WORKLOADS,
};

#[global_allocator]
static ALLOC: util::PeakHeap = util::PeakHeap;

/// Set-ups timed before each cold request; `setup_s` is the median of
/// every such sample in the run, so the samples span the whole run.
const SETUP_BATCH: usize = 15;
/// Most warm requests made after one cold request.
const MAX_WARM_PER_COLD: usize = 50;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: "all".into(), seed: 7, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} expects a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload != "all" && workloads::by_name(&args.workload).is_none() {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "unknown workload {} (one of: all, {})",
            args.workload,
            names.join(", ")
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("estbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.workload == "all" {
        run_all(&args)
    } else {
        run_one(workloads::by_name(&args.workload).expect("checked"), &args)
    };
    match result {
        Ok(result) => {
            println!("{}", result.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("estbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A named metric value.
struct Metric {
    name: String,
    value: f64,
    unit: String,
}

fn metric(name: impl Into<String>, value: f64, unit: impl Into<String>) -> Metric {
    Metric { name: name.into(), value, unit: unit.into() }
}

/// The result line of a run.
struct RunResult {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
}

impl RunResult {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_string(&m.name),
                    json_number(m.value),
                    json_string(&m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A scratch directory inside the checkout, removed when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn new(workload: &str) -> Result<Scratch, String> {
        let dir = PathBuf::from(".estbench-tmp").join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Remove the shared parent too once no other run uses it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Requests attempted and failed.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
}

impl Tally {
    /// Counts one request; it failed if `errors` is non-empty.
    fn record(&mut self, errors: Vec<String>) {
        self.attempted += 1;
        if !errors.is_empty() {
            self.failed += 1;
            // The first failures say what broke; the rest only count.
            if self.failed <= 5 {
                for e in errors {
                    eprintln!("estbench: check failed: {e}");
                }
            }
        }
    }
}

/// The reference request of a run, deep-checked once; every later
/// request's output must equal it byte for byte.
struct Reference {
    text: String,
    matrix: Option<String>,
    headline: (f64, u64),
    outcome: Outcome,
}

/// Compares a request's output with the reference.
fn same_as_reference(reference: &Reference, result: &Reply, what: &str) -> Vec<String> {
    match result {
        Err(e) => vec![format!("{what}: request failed: {e}")],
        Ok((text, outcome)) => {
            let mut errors = Vec::new();
            if *text != reference.text {
                errors.push(format!("{what}: output differs from the reference"));
            }
            if outcome.headline() != Some(reference.headline) {
                errors.push(format!("{what}: est_* values differ from the reference"));
            }
            if let (Some(report), Some(matrix)) = (outcome.frontier(), &reference.matrix) {
                if matrix_to_csv(report) != *matrix {
                    errors.push(format!("{what}: frontier matrix differs from the reference"));
                }
            }
            errors
        }
    }
}

fn cache_dir_for(w: &Workload, dir: PathBuf) -> Option<PathBuf> {
    matches!(w.pipeline, Pipeline::Frontier { .. }).then_some(dir)
}

/// What the reference pair measured: its cold request is the memory
/// probe, its warm request a timing sample.
struct Probe {
    peak_heap_mib: f64,
    warm_s: f64,
}

/// Makes the reference cold and warm requests and runs every output
/// check on them.
fn make_reference(
    w: &Workload,
    input: &Input,
    scratch: &Scratch,
    tally: &mut Tally,
) -> Result<(Reference, Probe), String> {
    let dir = cache_dir_for(w, scratch.path("cache-reference"));
    let s = setup(w, input, dir.as_deref())?;
    // The memory probe: on one CPU the fan-out's jobs never overlap, so the
    // peak does not depend on thread timing.
    let (reply, peak_heap_mib) = util::on_one_cpu(|| {
        util::PeakHeap::start();
        let reply = request(&input.name, &s.text, &s.spec, &s.compiler, s.disk.as_ref());
        (reply, util::PeakHeap::stop())
    });
    let (text, outcome) = reply?;
    let headline = outcome.headline().ok_or("output has no headline row")?;
    let program = LogicalProgram::parse(&input.name, &s.text).map_err(|e| e.to_string())?;
    let mut errors = match (&s.spec, &outcome) {
        (RequestSpec::Estimate(spec), Outcome::Estimate(est)) => {
            checks::check_estimate(&program, spec, est, input.expected_instructions, &s.compiler)
        }
        (RequestSpec::Frontier(spec), Outcome::Frontier(report)) => {
            checks::check_frontier(&program, spec, report, &s.compiler)
        }
        _ => vec!["request produced the wrong kind of output".into()],
    };
    let expected = Path::new("estbench/expected").join(match w.pipeline {
        Pipeline::Estimate { .. } => format!("{}.txt", w.name),
        Pipeline::Frontier { .. } => format!("{}.csv", w.name),
    });
    if let Ok(want) = std::fs::read_to_string(&expected) {
        if want != text {
            errors.push(format!("output differs from {}", expected.display()));
        }
    }
    let matrix = outcome.frontier().map(matrix_to_csv);
    let reference = Reference { text, matrix, headline, outcome };
    tally.record(errors);

    let warm_s = warm_request(w, input, &s, dir.as_deref(), &reference, tally)?;
    Ok((reference, Probe { peak_heap_mib, warm_s }))
}

/// One timed warm request after the cold request made on `s`: the same
/// compiler for an estimate; a fresh compiler on the reopened cache dir
/// for the frontier, as a `--cache-dir` rerun does. Returns its seconds.
fn warm_request(
    w: &Workload,
    input: &Input,
    s: &Setup,
    dir: Option<&Path>,
    reference: &Reference,
    tally: &mut Tally,
) -> Result<f64, String> {
    let reopened;
    let (compiler, disk) = match &s.spec {
        RequestSpec::Estimate(_) => (&s.compiler, None),
        RequestSpec::Frontier(_) => {
            reopened = setup(w, input, dir)?;
            (&reopened.compiler, reopened.disk.as_ref())
        }
    };
    let started = Instant::now();
    let result = request(&input.name, &s.text, &s.spec, compiler, disk);
    let warm_s = started.elapsed().as_secs_f64();
    let mut errors = same_as_reference(reference, &result, "warm");
    if let Some(report) = result.as_ref().ok().and_then(|(_, o)| o.frontier()) {
        if report.stats.computed != 0 || report.stats.analytic_captures != 0 {
            errors.push(format!(
                "warm frontier computed {} rows with {} captures",
                report.stats.computed, report.stats.analytic_captures
            ));
        }
    }
    tally.record(errors);
    Ok(warm_s)
}

/// Times `SETUP_BATCH` set-ups into `samples`. The frontier set-up opens
/// the populated reference cache dir, as a `--cache-dir` rerun does.
fn measure_setup(
    w: &Workload,
    input: &Input,
    scratch: &Scratch,
    samples: &mut Vec<f64>,
) -> Result<(), String> {
    let dir = cache_dir_for(w, scratch.path("cache-reference"));
    for _ in 0..SETUP_BATCH {
        let started = Instant::now();
        let s = setup(w, input, dir.as_deref())?;
        samples.push(started.elapsed().as_secs_f64());
        drop(s);
    }
    Ok(())
}

fn run_one(w: &Workload, args: &Args) -> Result<RunResult, String> {
    let scratch = Scratch::new(w.name)?;
    let input = w.prepare_input(args.seed, &scratch.0)?;
    print_meta(w, args, &input);
    let mut tally = Tally::default();
    let (reference, first) = make_reference(w, &input, &scratch, &mut tally)?;
    let metrics = if args.trace {
        traced_run(w, args, &input, &scratch, &reference, &mut tally)?
    } else {
        end_to_end_run(w, args, &input, &scratch, &reference, first, &mut tally)?
    };
    for m in &metrics {
        println!("# metric {} {} {}", m.name, json_number(m.value), m.unit);
    }
    Ok(RunResult {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    })
}

/// Records the provenance of a result: commit, nproc, rustc, seed and the
/// full command.
fn print_meta(w: &Workload, args: &Args, input: &Input) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let command: Vec<String> = std::env::args().collect();
    println!(
        "# meta {{\"workload\": {}, \"commit\": {}, \"nproc\": {nproc}, \"rustc\": {}, \"seed\": {}, \
         \"seconds\": {}, \"trace\": {}, \"input\": {}, \"command\": {}}}",
        json_string(w.name),
        json_string(&util::git_commit()),
        json_string(env!("ESTBENCH_RUSTC_VERSION")),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_string(&input.name),
        json_string(&command.join(" "))
    );
}

/// The untraced closed loop: alternate one cold request with warm repeats
/// of it until `--seconds` have passed.
fn end_to_end_run(
    w: &Workload,
    args: &Args,
    input: &Input,
    scratch: &Scratch,
    reference: &Reference,
    first: Probe,
    tally: &mut Tally,
) -> Result<Vec<Metric>, String> {
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut cold = Vec::new();
    let mut warm = vec![first.warm_s];
    let mut setups = Vec::new();
    for i in 0.. {
        if !cold.is_empty() && Instant::now() >= deadline {
            break;
        }
        measure_setup(w, input, scratch, &mut setups)?;
        let dir = cache_dir_for(w, scratch.path(&format!("cache-{i}")));
        let s = setup(w, input, dir.as_deref())?;
        let started = Instant::now();
        let result = request(&input.name, &s.text, &s.spec, &s.compiler, s.disk.as_ref());
        let cold_s = started.elapsed().as_secs_f64();
        cold.push(cold_s);
        tally.record(same_as_reference(reference, &result, "cold"));
        drop(result);

        let mut spent = 0.0;
        for _ in 0..MAX_WARM_PER_COLD {
            let warm_s = warm_request(w, input, &s, dir.as_deref(), reference, tally)?;
            warm.push(warm_s);
            spent += warm_s;
            if spent >= cold_s {
                break;
            }
        }
        drop(s);
        if let Some(dir) = dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
    eprintln!("# samples cold_s {cold:?}");
    let (cold_tail, cold_tail_s) = tail(&cold);
    let (warm_tail, warm_tail_s) = tail(&warm);
    println!(
        "# {}: cold_s median {:.6} {cold_tail} {cold_tail_s:.6} (n={}); warm_s median {:.6} {warm_tail} \
         {warm_tail_s:.6} (n={}); setup_s median {:.9} (n={})",
        w.name,
        median(&cold),
        cold.len(),
        median(&warm),
        warm.len(),
        median(&setups),
        setups.len()
    );
    let (duration_s, qubit_rounds) = reference.headline;
    Ok(vec![
        metric("cold_s", median(&cold), "s"),
        metric("warm_s", median(&warm), "s"),
        metric("setup_s", median(&setups), "s"),
        metric("peak_heap_mib", first.peak_heap_mib, "MiB"),
        metric("pass_ratio", (tally.attempted - tally.failed) as f64 / tally.attempted as f64, "1"),
        metric("est_duration_s", duration_s, "qpu-s"),
        metric("est_qubit_rounds", qubit_rounds as f64, "zone-rounds"),
    ])
}

/// One live-or-off telemetry request through the `_with` front doors, on
/// a fresh compiler (and a fresh cache dir for the frontier). Returns the
/// wall time, the output, and the `assemble` span's seconds when live.
fn telemetry_request(
    input: &Input,
    text: &str,
    spec: &RequestSpec,
    dir: Option<&Path>,
    live: bool,
) -> Result<(f64, Reply, f64), String> {
    let tel = if live { Telemetry::new_enabled() } else { Telemetry::off() };
    let compiler = Compiler::new();
    let disk = match dir {
        Some(dir) => Some(DiskCache::open(dir).map_err(|e| e.to_string())?),
        None => None,
    };
    let started = Instant::now();
    let root = tel.root("request");
    let result = LogicalProgram::parse_with(input.name.as_str(), text, &root)
        .map_err(|e| e.to_string())
        .and_then(|program| match spec {
            RequestSpec::Estimate(spec) => estimate_program_with(&program, spec, &compiler, &root)
                .map(|est| (est.render(), Outcome::Estimate(est)))
                .map_err(|e| e.to_string()),
            RequestSpec::Frontier(spec) => {
                run_frontier_with(&program, spec, &compiler, disk.as_ref(), &root)
                    .map(|report| (frontier_to_csv(&report), Outcome::Frontier(report)))
                    .map_err(|e| e.to_string())
            }
        });
    root.finish();
    let elapsed = started.elapsed().as_secs_f64();
    let assemble_s = tel.snapshot().map_or(0.0, |report| {
        report
            .spans
            .iter()
            .filter(|s| s.name == "assemble")
            .filter_map(|s| s.duration_us)
            .sum::<f64>()
            / 1e6
    });
    Ok((elapsed, result, assemble_s))
}

/// Compares a traced request's output with the reference.
fn traced_errors(
    reference: &Reference,
    traced: &Result<Traced, String>,
    what: &str,
) -> Vec<String> {
    match traced {
        Err(e) => vec![format!("{what}: traced request failed: {e}")],
        Ok(t) => {
            let mut errors = Vec::new();
            if t.text != reference.text {
                errors.push(format!("{what}: traced output differs from the untraced reference"));
            }
            if t.matrix.is_some() && t.matrix != reference.matrix {
                errors.push(format!("{what}: traced frontier matrix differs from the reference"));
            }
            errors
        }
    }
}

/// Per-iteration values of the traced run: times (reported as medians)
/// and exact counts (which must repeat exactly).
#[derive(Default)]
struct Iterations {
    times: BTreeMap<&'static str, Vec<f64>>,
    exact: BTreeMap<&'static str, Vec<f64>>,
}

impl Iterations {
    fn time(&mut self, name: &'static str, value: f64) {
        self.times.entry(name).or_default().push(value);
    }

    fn exact(&mut self, name: &'static str, value: f64) {
        self.exact.entry(name).or_default().push(value);
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The traced run: per-layer spans and counts for the cold and warm
/// request, an interleaved telemetry on/off A/B, and the hardware layer
/// on compiled-mode workloads, repeated until `--seconds` have passed.
fn traced_run(
    w: &Workload,
    args: &Args,
    input: &Input,
    scratch: &Scratch,
    reference: &Reference,
    tally: &mut Tally,
) -> Result<Vec<Metric>, String> {
    let mut tr = Tracer::new();
    let mut it = Iterations::default();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    for i in 0.. {
        if i > 0 && Instant::now() >= deadline {
            break;
        }
        let cold_dir = cache_dir_for(w, scratch.path(&format!("cache-{i}")));
        let s = setup(w, input, cold_dir.as_deref())?;
        let cold = match &s.spec {
            RequestSpec::Estimate(spec) => {
                traced::traced_estimate(&mut tr, &input.name, &s.text, spec, &s.compiler)
            }
            RequestSpec::Frontier(spec) => traced::traced_frontier(
                &mut tr,
                &input.name,
                &s.text,
                spec,
                &s.compiler,
                s.disk.as_ref().expect("frontier set-up opens a cache"),
            ),
        };
        tally.record(traced_errors(reference, &cold, "traced cold"));
        let cold = cold?;

        let warm = match &s.spec {
            RequestSpec::Estimate(spec) => {
                traced::traced_estimate(&mut tr, &input.name, &s.text, spec, &s.compiler)
            }
            RequestSpec::Frontier(spec) => {
                let started = Instant::now();
                let disk = DiskCache::open(cold_dir.as_deref().expect("frontier"))
                    .map_err(|e| e.to_string())?;
                it.time("frontier.cache_open_s", started.elapsed().as_secs_f64());
                traced::traced_frontier(
                    &mut tr,
                    &input.name,
                    &s.text,
                    spec,
                    &Compiler::new(),
                    &disk,
                )
            }
        };
        tally.record(traced_errors(reference, &warm, "traced warm"));
        let warm = warm?;
        if let Some(dir) = &cold_dir {
            let _ = std::fs::remove_dir_all(dir);
        }

        // Telemetry on/off A/B, alternating which side runs first.
        let mut on_off = [0.0; 2];
        let mut assemble_s = 0.0;
        for k in 0..2 {
            let live = (i + k) % 2 == 0;
            let dir = cache_dir_for(w, scratch.path(&format!("cache-ab-{i}-{k}")));
            let (elapsed, result, assemble) =
                telemetry_request(input, &s.text, &s.spec, dir.as_deref(), live)?;
            tally.record(same_as_reference(reference, &result, "telemetry A/B"));
            on_off[usize::from(!live)] = elapsed;
            if live {
                assemble_s = assemble;
            }
            if let Some(dir) = dir {
                let _ = std::fs::remove_dir_all(dir);
            }
        }

        record_iteration(&mut it, &tr, &cold, &warm, on_off, assemble_s, input);

        if let (RequestSpec::Estimate(spec), Some(est)) = (&s.spec, reference.outcome.estimate()) {
            if spec.mode == EstimateMode::Compiled {
                let program =
                    LogicalProgram::parse(&input.name, &s.text).map_err(|e| e.to_string())?;
                let kinds = checks::distinct_kinds(&program);
                let d = est.rows.first().map_or(0, |r| r.distance);
                let hw = traced::traced_hw(&mut tr, &kinds, spec, d);
                tally.record(
                    hw.as_ref().err().map(|e| vec![format!("hw layer: {e}")]).unwrap_or_default(),
                );
                if let Ok((root, counts)) = hw {
                    let p = tr.profile(root);
                    it.time("hw.stream_report_s", p.get("hw.stream_report"));
                    it.exact("hw.ops_materialized", counts.ops_materialized as f64);
                    it.exact("hw.ops_logical", counts.ops_logical as f64);
                    it.exact(
                        "hw.replication_ratio",
                        ratio(counts.ops_logical as f64, counts.ops_materialized as f64),
                    );
                    it.exact("hw.template_repeats", counts.template_repeats as f64);
                    it.exact("hw.junction_stalls", counts.junction_stalls as f64);
                    it.exact("hw.batched_pulses", counts.batched_pulses as f64);
                }
            }
        }
    }

    let iterations = it.times.get("bench.traced_cold_s").map_or(0, Vec::len);
    let mut metrics = Vec::new();
    for (name, values) in &it.times {
        if name.starts_with("bench.traced") || name.starts_with("telemetry.") {
            continue;
        }
        metrics.push(metric(*name, median(values), "s"));
    }
    let on = median(&it.times["telemetry.on_s"]);
    let off = median(&it.times["telemetry.off_s"]);
    metrics.push(metric("telemetry.on_off_ratio", ratio(on, off), "1"));
    metrics.push(metric(
        "bench.trace_overhead_ratio",
        ratio(median(&it.times["bench.traced_cold_s"]), off),
        "1",
    ));
    for (name, values) in &it.exact {
        if values.iter().any(|v| v.to_bits() != values[0].to_bits()) {
            tally.record(vec![format!("{name} did not repeat exactly: {values:?}")]);
        }
        metrics.push(metric(*name, values[0], unit_of(name)));
    }
    for name in NOT_EVERYWHERE {
        if !metrics.iter().any(|m| m.name == *name) {
            metrics.push(metric(*name, 0.0, unit_of(name)));
        }
    }
    metrics.sort_by(|a, b| a.name.cmp(&b.name));
    println!("# {}: traced run, {iterations} iteration(s)", w.name);
    eprintln!("# spans {}", tr.to_json());
    Ok(metrics)
}

/// The unit of a per-layer metric, from its name's suffix.
fn unit_of(name: &str) -> &'static str {
    if name.ends_with("_s") {
        "s"
    } else if name.ends_with("_ratio") {
        "1"
    } else if name.ends_with("_bytes") {
        "B"
    } else {
        "count"
    }
}

/// Per-layer metrics only some workloads measure, reported as 0
/// elsewhere: the hardware layer (measured where the request runs
/// `Compiler::compile`, i.e. compiled mode) and reopening a cache dir.
const NOT_EVERYWHERE: &[&str] = &[
    "frontier.cache_open_s",
    "hw.ops_materialized",
    "hw.ops_logical",
    "hw.replication_ratio",
    "hw.template_repeats",
    "hw.stream_report_s",
    "hw.junction_stalls",
    "hw.batched_pulses",
];

/// Adds one traced iteration's layer times and counts.
fn record_iteration(
    it: &mut Iterations,
    tr: &Tracer,
    cold: &Traced,
    warm: &Traced,
    on_off: [f64; 2],
    assemble_s: f64,
    input: &Input,
) {
    let p: Profile = tr.profile(cold.root);
    for (metric_name, span) in [
        ("program.parse_s", "program.parse"),
        ("program.validate_s", "program.validate"),
        ("program.place_s", "program.place"),
        ("program.schedule_s", "program.schedule"),
        ("program.select_distance_s", "program.select_distance"),
        ("estimator.compile_busy_s", "estimator.estimate_row"),
        ("estimator.capture_s", "estimator.capture"),
        ("estimator.derive_s", "estimator.derive"),
        ("frontier.cache_read_s", "frontier.cache_read"),
        ("frontier.cache_write_s", "frontier.cache_write"),
        ("frontier.pareto_s", "frontier.pareto"),
        ("frontier.emit_s", "frontier.emit"),
    ] {
        it.time(metric_name, p.get(span));
    }
    it.time("estimator.compile_max_s", p.max_row);
    it.time("estimator.assemble_s", assemble_s);
    for (metric_name, layer) in [
        ("program.self_s", "program"),
        ("estimator.self_s", "estimator"),
        ("frontier.self_s", "frontier"),
        ("bench.self_s", "bench"),
    ] {
        it.time(metric_name, p.self_of(layer));
    }
    // The warm request's cache reads are the ones a rerun pays for.
    let warm_profile = tr.profile(warm.root);
    it.time("frontier.warm_cache_read_s", warm_profile.get("frontier.cache_read"));
    it.time("bench.traced_cold_s", tr.duration(cold.root));
    it.time("telemetry.on_s", on_off[0]);
    it.time("telemetry.off_s", on_off[1]);
    it.time("workloads.gen_s", input.gen_s);

    let c = &cold.program;
    for (name, value) in [
        ("program.instructions", c.instructions as f64),
        ("program.depth", c.depth as f64),
        ("program.logical_time_steps", c.logical_time_steps as f64),
        ("program.routed_merges", c.routed_merges as f64),
        ("program.parallel_merges", c.parallel_merges as f64),
        ("program.routing_stalls", c.routing_stalls as f64),
        ("program.corridor_tiles", c.corridor_tiles as f64),
        (
            "program.route_success_ratio",
            if c.routed_merges + c.routing_stalls == 0 {
                1.0
            } else {
                c.routed_merges as f64 / (c.routed_merges + c.routing_stalls) as f64
            },
        ),
        ("program.distance", c.distance as f64),
        ("program.patch_steps", c.patch_steps as f64),
        ("estimator.kinds", cold.kinds as f64),
        ("estimator.captures", cold.rows.captures as f64),
        ("estimator.fallbacks", cold.rows.fallbacks as f64),
        (
            "estimator.derivable_ratio",
            ratio(
                (cold.rows.analytic_jobs - cold.rows.fallbacks) as f64,
                cold.rows.analytic_jobs as f64,
            ),
        ),
        ("estimator.cache_hits", (cold.rows.hits + warm.rows.hits) as f64),
        ("estimator.cache_misses", (cold.rows.misses + warm.rows.misses) as f64),
        ("estimator.warm_hit_ratio", ratio(warm.rows.hits as f64, warm.rows.jobs as f64)),
        ("workloads.tql_bytes", input.tql_bytes as f64),
    ] {
        it.exact(name, value);
    }
    let (points, on_frontier, _, computed) = cold.frontier.unwrap_or_default();
    let (_, _, disk_hits, _) = warm.frontier.unwrap_or_default();
    let jobs = if cold.frontier.is_some() { warm.rows.jobs } else { 0 };
    it.exact("frontier.jobs", jobs as f64);
    it.exact("frontier.computed", computed as f64);
    it.exact("frontier.disk_hits", disk_hits as f64);
    it.exact("frontier.disk_hit_ratio", ratio(disk_hits as f64, jobs as f64));
    it.exact("frontier.points", points as f64);
    it.exact("frontier.on_frontier", on_frontier as f64);
}

/// `--workload all`: runs every workload in its own child process and
/// merges their results, metric
/// names prefixed with the workload name.
fn run_all(args: &Args) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut merged = RunResult { correct: true, attempted: 0, failed: 0, metrics: Vec::new() };
    for w in WORKLOADS {
        let output = std::process::Command::new(&exe)
            .args(["--workload", w.name, "--seed", &args.seed.to_string()])
            .args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot run {}: {e}", w.name))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        if !output.status.success() {
            return Err(format!("workload {} failed ({})", w.name, output.status));
        }
        let last = stdout.lines().last().unwrap_or_default();
        let field = |key: &str| -> usize {
            last.split(&format!("\"{key}\": "))
                .nth(1)
                .and_then(|rest| {
                    rest.split(|c: char| !c.is_ascii_digit()).next().and_then(|n| n.parse().ok())
                })
                .unwrap_or(0)
        };
        merged.correct &= last.contains("\"correct\": true");
        merged.attempted += field("attempted");
        merged.failed += field("failed");
        for line in stdout.lines() {
            let mut parts = line.strip_prefix("# metric ").into_iter().flat_map(|l| l.split(' '));
            if let (Some(name), Some(value), Some(unit)) =
                (parts.next(), parts.next(), parts.next())
            {
                merged.metrics.push(metric(
                    format!("{}.{name}", w.name),
                    value.parse().unwrap_or(f64::NAN),
                    unit,
                ));
            }
        }
    }
    Ok(merged)
}
