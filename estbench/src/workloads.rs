//! The four benchmark workloads, their inputs, the timed set-up and the
//! untimed-harness / timed-request split.
//!
//! A request takes `.tql` text in and produces the rendered output:
//! `LogicalProgram::parse` → `estimate_program` → `ProgramEstimate::render`
//! for estimate workloads, and `parse` → `run_frontier` → `frontier_to_csv`
//! for the frontier workload — the calls `tiscc estimate` and
//! `tiscc frontier` make.

use std::path::{Path, PathBuf};
use std::time::Instant;

use tiscc_estimator::compiler::{Compiler, EstimateMode};
use tiscc_estimator::program::{estimate_program, ProgramEstimate, ProgramEstimateSpec};
use tiscc_frontier::{frontier_to_csv, run_frontier, DiskCache, FrontierReport, FrontierSpec};
use tiscc_hw::HardwareSpec;
use tiscc_program::{ErrorModel, LayoutSpec, LogicalProgram};
use tiscc_workloads::{Family, GenSpec};

/// Where a workload's `.tql` text comes from.
#[derive(Clone, Copy, Debug)]
pub enum Source {
    /// A program file of the repository, relative to the checkout root.
    File(&'static str),
    /// `random-clifford-t` generated with `n` instructions from the seed.
    RandomCliffordT { n: usize },
}

/// What a request computes.
#[derive(Clone, Copy, Debug)]
pub enum Pipeline {
    /// `estimate_program` under one budget and floorplan.
    Estimate { budget: f64, layout: &'static str, mode: EstimateMode },
    /// `run_frontier` over layouts × odd distances, with a disk cache.
    Frontier { layouts: &'static [&'static str], d_min: usize, d_max: usize, mode: EstimateMode },
}

/// One benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// The name the benchmark and every later comparison use.
    pub name: &'static str,
    /// Input source.
    pub source: Source,
    /// Hardware profiles, in report order.
    pub profiles: &'static [&'static str],
    /// The request pipeline.
    pub pipeline: Pipeline,
}

/// Every workload, in the order `--workload all` runs them.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "teleport-d19",
        source: Source::File("examples/programs/teleport.tql"),
        profiles: &["h1", "projected"],
        pipeline: Pipeline::Estimate { budget: 1e-9, layout: "lane", mode: EstimateMode::Compiled },
    },
    Workload {
        name: "rct-checkerboard-20k",
        source: Source::RandomCliffordT { n: 20_000 },
        profiles: &["h1"],
        pipeline: Pipeline::Estimate {
            budget: 1e-3,
            layout: "checkerboard",
            mode: EstimateMode::Analytic,
        },
    },
    Workload {
        name: "rct-lane-100k",
        source: Source::RandomCliffordT { n: 100_000 },
        profiles: &["h1"],
        pipeline: Pipeline::Estimate { budget: 1e-6, layout: "lane", mode: EstimateMode::Analytic },
    },
    Workload {
        name: "adder-frontier",
        source: Source::File("examples/programs/adder.tql"),
        profiles: &["h1", "projected"],
        pipeline: Pipeline::Frontier {
            layouts: &["row", "checkerboard"],
            d_min: 3,
            d_max: 13,
            mode: EstimateMode::Analytic,
        },
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The harness-side input of a run: a `.tql` file on disk, produced
/// outside every timed region.
pub struct Input {
    /// Path of the `.tql` file the set-up reads.
    pub path: PathBuf,
    /// Program name (the file stem, as `tiscc` names it).
    pub name: String,
    /// Size of the `.tql` text.
    pub tql_bytes: usize,
    /// Time to produce the text: generate and render, or read the file.
    pub gen_s: f64,
    /// The generator's closed-form instruction count, for generated inputs.
    pub expected_instructions: Option<usize>,
}

impl Workload {
    /// The generator spec of a generated workload.
    pub fn gen_spec(&self, seed: u64) -> Option<GenSpec> {
        match self.source {
            Source::RandomCliffordT { n } => {
                Some(GenSpec::new(Family::RandomCliffordT).with_n(n).with_seed(seed))
            }
            Source::File(_) => None,
        }
    }

    /// Produces the run's input: a repository file is used in place; a
    /// generated program is rendered to `.tql` under `scratch`.
    pub fn prepare_input(&self, seed: u64, scratch: &Path) -> Result<Input, String> {
        let started = Instant::now();
        match (self.source, self.gen_spec(seed)) {
            (Source::File(path), _) => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read {path}: {e}"))?;
                let path = PathBuf::from(path);
                let name = path.file_stem().unwrap().to_string_lossy().into_owned();
                Ok(Input {
                    path,
                    name,
                    tql_bytes: text.len(),
                    gen_s: started.elapsed().as_secs_f64(),
                    expected_instructions: None,
                })
            }
            (Source::RandomCliffordT { .. }, Some(spec)) => {
                let program = tiscc_workloads::generate(&spec).map_err(|e| e.to_string())?;
                let text = program.to_tql();
                let gen_s = started.elapsed().as_secs_f64();
                let name = spec.program_name();
                let path = scratch.join(format!("{name}.tql"));
                std::fs::write(&path, &text)
                    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
                let expected =
                    tiscc_workloads::instruction_count(&spec).map_err(|e| e.to_string())?;
                Ok(Input {
                    path,
                    name,
                    tql_bytes: text.len(),
                    gen_s,
                    expected_instructions: Some(expected),
                })
            }
            (Source::RandomCliffordT { .. }, None) => unreachable!("generated source has a spec"),
        }
    }

    /// The hardware profiles, resolved by name.
    pub fn hardware_profiles(&self) -> Result<Vec<HardwareSpec>, String> {
        self.profiles.iter().map(|p| HardwareSpec::by_name(p).map_err(|e| e.to_string())).collect()
    }
}

/// The request spec of a workload, built during set-up.
#[derive(Clone, Debug)]
pub enum RequestSpec {
    /// An `estimate_program` request.
    Estimate(ProgramEstimateSpec),
    /// A `run_frontier` request.
    Frontier(FrontierSpec),
}

/// Everything the one-time set-up produces before the first request.
pub struct Setup {
    /// The `.tql` text read from the input file.
    pub text: String,
    /// The request spec (profiles and error model included).
    pub spec: RequestSpec,
    /// The compiler the first request runs on.
    pub compiler: Compiler,
    /// The persistent cache (frontier workload only).
    pub disk: Option<DiskCache>,
}

/// The timed set-up: read the input file, build the profiles and the
/// `ErrorModel`, run `Compiler::new`, and open the cache dir when the
/// workload has one.
pub fn setup(w: &Workload, input: &Input, cache_dir: Option<&Path>) -> Result<Setup, String> {
    let text = std::fs::read_to_string(&input.path)
        .map_err(|e| format!("cannot read {}: {e}", input.path.display()))?;
    let profiles = w.hardware_profiles()?;
    let model = ErrorModel::default();
    let spec = match w.pipeline {
        Pipeline::Estimate { budget, layout, mode } => RequestSpec::Estimate(ProgramEstimateSpec {
            budget,
            model,
            profiles,
            d_max: 49,
            layout: LayoutSpec::by_name(layout).map_err(|e| e.to_string())?,
            mode,
        }),
        Pipeline::Frontier { layouts, d_min, d_max, mode } => RequestSpec::Frontier(FrontierSpec {
            layouts: layouts
                .iter()
                .map(|l| LayoutSpec::by_name(l).map_err(|e| e.to_string()))
                .collect::<Result<_, _>>()?,
            d_min,
            d_max,
            profiles,
            mode,
            model,
        }),
    };
    let compiler = Compiler::new();
    let disk = match cache_dir {
        Some(dir) => Some(DiskCache::open(dir).map_err(|e| e.to_string())?),
        None => None,
    };
    Ok(Setup { text, spec, compiler, disk })
}

/// What a request produced.
pub enum Outcome {
    /// A program estimate and its rendered report.
    Estimate(ProgramEstimate),
    /// A frontier report.
    Frontier(FrontierReport),
}

impl Outcome {
    /// The estimate, for estimate workloads.
    pub fn estimate(&self) -> Option<&ProgramEstimate> {
        match self {
            Outcome::Estimate(e) => Some(e),
            Outcome::Frontier(_) => None,
        }
    }

    /// The frontier report, for the frontier workload.
    pub fn frontier(&self) -> Option<&FrontierReport> {
        match self {
            Outcome::Frontier(f) => Some(f),
            Outcome::Estimate(_) => None,
        }
    }

    /// The "run time of the generated code" row: the h1 row of an
    /// estimate, or the minimum-duration point on the Pareto frontier.
    /// Returns `(duration_s, qubit_rounds)`.
    pub fn headline(&self) -> Option<(f64, u64)> {
        match self {
            Outcome::Estimate(e) => {
                e.rows.iter().find(|r| r.profile == "h1").map(|r| (r.duration_s, r.qubit_rounds))
            }
            Outcome::Frontier(f) => f
                .frontier()
                .into_iter()
                .min_by(|a, b| a.duration_s.total_cmp(&b.duration_s))
                .map(|p| (p.duration_s, p.qubit_rounds)),
        }
    }
}

/// A request's rendered output and what produced it, or why it failed.
pub type Reply = Result<(String, Outcome), String>;

/// One request: parse the text, run the pipeline, render the output.
pub fn request(
    name: &str,
    text: &str,
    spec: &RequestSpec,
    compiler: &Compiler,
    disk: Option<&DiskCache>,
) -> Reply {
    let program = LogicalProgram::parse(name, text).map_err(|e| e.to_string())?;
    match spec {
        RequestSpec::Estimate(spec) => {
            let estimate = estimate_program(&program, spec, compiler).map_err(|e| e.to_string())?;
            Ok((estimate.render(), Outcome::Estimate(estimate)))
        }
        RequestSpec::Frontier(spec) => {
            let report = run_frontier(&program, spec, compiler, disk).map_err(|e| e.to_string())?;
            Ok((frontier_to_csv(&report), Outcome::Frontier(report)))
        }
    }
}
