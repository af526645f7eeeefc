//! The unified compilation front door.
//!
//! Every consumer of the stack — the CLI subcommands, the sweep engine, the
//! table generators, the examples — used to hand-build its own
//! `HardwareModel` pipeline. [`Compiler`] replaces that glue with a single
//! API: a [`CompileRequest`] names *what* to compile (a Table 1 instruction
//! at spatial distances `dx × dz` with `dt` rounds per logical time-step)
//! and *under which hardware profile* ([`HardwareSpec`]); the returned
//! [`CompileArtifact`] carries the instruction's own time-resolved circuit,
//! the compiler-side [`InstructionReport`], and the measured
//! [`ResourceReport`]. "Same workload, N hardware profiles" is then just N
//! requests differing only in their spec.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use tiscc_core::instruction::{
    apply_instruction, apply_two_tile_instruction, Instruction, InstructionReport,
};
use tiscc_core::CoreError;
use tiscc_hw::{
    batch_ops, batch_rounds, Circuit, CompactRound, CompiledRounds, Epilogue, HardwareModel,
    HardwareSpec, PricedRounds, ResourceReport, RoundBatchStats, StartFrom, UnknownProfile,
};

use crate::sweep::{CompileCache, SweepKey};
use crate::tables::ResourceRow;
use crate::verify::{Fiducial, SingleTile, TwoTiles};

/// How the estimator turns a compile request into resource numbers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum EstimateMode {
    /// Compile the instruction at the requested `dt` and measure the
    /// resulting schedule (the default; every released output was produced
    /// this way).
    #[default]
    Compiled,
    /// Capture **one** syndrome round per `(instruction, dx, dz, profile)`
    /// cell and derive the resources of any requested `dt` by an exact
    /// replay of the captured round through the pricing kernel — no
    /// scheduling, no routing, no materialization. The replay is
    /// O(dt · |round|) at a few ns per logical op, not a closed form.
    /// Instructions whose round structure cannot be proven derivable fall
    /// back to [`EstimateMode::Compiled`] transparently (the numbers are
    /// identical either way).
    Analytic,
}

impl EstimateMode {
    /// The CLI-facing name of the mode.
    pub fn name(self) -> &'static str {
        match self {
            EstimateMode::Compiled => "compiled",
            EstimateMode::Analytic => "analytic",
        }
    }
}

impl std::fmt::Display for EstimateMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for EstimateMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "compiled" => Ok(EstimateMode::Compiled),
            "analytic" => Ok(EstimateMode::Analytic),
            other => Err(format!("unknown estimate mode '{other}' (expected compiled|analytic)")),
        }
    }
}

/// Scheduling-pass observables of one compiled instruction: how often the
/// contention-aware scheduler stalled an op on a saturated junction, and how
/// many SIMD pulses carry two or more merged ops (totals across every round
/// occurrence). Both are zero under the default knobs
/// (`junction_capacity = 1` never over-admits on the preset specs'
/// schedules, `simd_width = 1` never batches).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompileStats {
    /// Ops whose start a saturated junction pushed past what ions, zones
    /// and the barrier alone would have allowed.
    pub junction_stalls: usize,
    /// Multi-op SIMD pulses in the final op stream.
    pub batched_pulses: usize,
}

/// A fully specified compilation request: one Table 1 instruction, the code
/// distances, and the hardware profile to compile under.
#[derive(Clone, Debug, PartialEq)]
pub struct CompileRequest {
    /// The instruction to compile.
    pub instruction: Instruction,
    /// X code distance.
    pub dx: usize,
    /// Z code distance.
    pub dz: usize,
    /// Rounds of error correction per logical time-step.
    pub dt: usize,
    /// The hardware profile to compile under.
    pub spec: HardwareSpec,
}

impl CompileRequest {
    /// A request under the paper-faithful default profile
    /// ([`HardwareSpec::h1`]).
    pub fn new(instruction: Instruction, dx: usize, dz: usize, dt: usize) -> Self {
        CompileRequest { instruction, dx, dz, dt, spec: HardwareSpec::default() }
    }

    /// Replaces the hardware profile.
    pub fn with_spec(mut self, spec: HardwareSpec) -> Self {
        self.spec = spec;
        self
    }

    /// Replaces the hardware profile by preset name (case-insensitive).
    pub fn with_profile(self, name: &str) -> Result<Self, UnknownProfile> {
        Ok(self.with_spec(HardwareSpec::by_name(name)?))
    }

    /// The memoization key of this request: the configuration plus the
    /// spec's parameter fingerprint, so caches never conflate profiles.
    pub fn key(&self) -> SweepKey {
        SweepKey {
            instruction: self.instruction,
            dx: self.dx,
            dz: self.dz,
            dt: self.dt,
            spec: self.spec.fingerprint(),
        }
    }
}

/// The result of compiling one [`CompileRequest`].
#[derive(Clone, Debug)]
pub struct CompileArtifact {
    /// The request this artifact answers.
    pub request: CompileRequest,
    /// The instruction's own time-resolved circuit in periodic
    /// (round-templated) form, re-based to start at `t = 0` (input-state
    /// preparation is excluded). Syndrome-extraction rounds beyond the
    /// representative one are held analytically — the artifact costs the
    /// memory of roughly one round, not `dt`.
    pub rounds: CompiledRounds,
    /// The compiler-side accounting (logical time-steps, tiles, outcome).
    pub report: InstructionReport,
    /// Measured space-time resources of [`CompileArtifact::rounds`] under
    /// the request's profile.
    pub resources: ResourceReport,
    /// Scheduling-pass observables (junction stalls, SIMD batches) of the
    /// instruction's own ops, totalled across every round occurrence.
    pub stats: CompileStats,
}

impl CompileArtifact {
    /// Materializes the instruction's flat time-resolved circuit (every
    /// round occurrence expanded). Prefer streaming over
    /// [`CompileArtifact::rounds`] unless a consumer genuinely needs a
    /// `Vec`-backed circuit.
    pub fn circuit(&self) -> Circuit {
        self.rounds.materialize()
    }

    /// Renders the artifact as a resource-table row.
    pub fn row(&self) -> ResourceRow {
        ResourceRow {
            name: self.request.instruction.name().to_string(),
            dx: self.request.dx,
            dz: self.request.dz,
            logical_time_steps: self.report.logical_time_steps,
            tiles: self.report.tiles,
            profile: self.request.spec.name.clone(),
            resources: self.resources.clone(),
        }
    }
}

/// The `dt` every analytic capture compiles at.
///
/// Chosen so one representative syndrome round is captured *and* replicated
/// at least twice (`repeats = dt − 1 = 3`), which lets
/// [`AnalyticArtifact::capture`] verify structurally that the instruction's
/// round count is affine in `dt` with unit slope: a round sequence whose
/// length is **not** `dt` shows up as `repeats ≠ ANALYTIC_DT_CAP − 1` (or as
/// no span at all for a 0/1/2-round fixed sequence, which is `dt`-invariant
/// and equally derivable) and the capture reports itself non-derivable.
pub const ANALYTIC_DT_CAP: usize = 4;

/// Junction-stall counts of a capture split by circuit segment, so the
/// total for any `dt` is `prologue + repeats × round + epilogue` — every
/// round occurrence replays the representative round's schedule (and thus
/// its stalls) verbatim.
#[derive(Clone, Copy, Debug, Default)]
struct SegmentStalls {
    prologue: usize,
    round: usize,
    epilogue: usize,
}

/// One analytic capture: the priced shape of an instruction compiled at
/// [`ANALYTIC_DT_CAP`] rounds, plus enough structure (epilogue start
/// chains) to derive the [`ResourceReport`] of **any** supported `dt` by
/// an exact replay. It holds the compact pricing form
/// ([`PricedRounds`]), not the captured ops or measurement records.
/// Produced by [`AnalyticArtifact::capture`]; shared per
/// `(instruction, dx, dz, profile)` cell via
/// [`Compiler::analytic_artifact`].
#[derive(Clone, Debug)]
pub struct AnalyticArtifact {
    /// The capture request (`dt == ANALYTIC_DT_CAP`).
    request: CompileRequest,
    /// Compiler-side accounting (dt-independent by construction).
    report: InstructionReport,
    /// The captured periodic circuit, reduced to its pricing state.
    priced: PricedRounds,
    /// Template occurrences of the capture (0: no periodic part — then
    /// every derived `dt` returns the capture verbatim).
    repeats: usize,
    /// Measurement records of the capture, and per round occurrence.
    measurements: usize,
    meas_per_round: usize,
    /// Measured resources of the capture itself (`dt == ANALYTIC_DT_CAP`).
    resources: ResourceReport,
    /// The epilogue, re-timed from the barrier after the last occurrence
    /// along its recorded start chains.
    epilogue: CompactRound,
    /// Junction stalls of the capture, split by segment for scaling.
    stalls: SegmentStalls,
    /// SIMD batching statistics of the capture, split by segment.
    batch: RoundBatchStats,
}

impl AnalyticArtifact {
    /// Compiles `instruction` once at [`ANALYTIC_DT_CAP`] and captures its
    /// round structure. Returns `Ok(None)` when the instruction is not
    /// provably derivable under this profile — a round capture fell back to
    /// materialization, the instruction compiled more than one periodic
    /// sequence, the round count is not `dt`, an epilogue op's start could
    /// not be attributed, or the self-check failed — in which case callers
    /// use [`EstimateMode::Compiled`] for every `dt` of this cell.
    pub fn capture(
        instruction: Instruction,
        dx: usize,
        dz: usize,
        spec: HardwareSpec,
    ) -> Result<Option<AnalyticArtifact>, CoreError> {
        let request = CompileRequest { instruction, dx, dz, dt: ANALYTIC_DT_CAP, spec };
        let (hw, before, report) = compile_physical(&request)?;
        if hw.round_fallbacks() > 0 {
            // A round sequence was materialized without leaving a span: the
            // circuit's dt-dependence is invisible to span inspection.
            return Ok(None);
        }
        let rounds_raw = CompiledRounds::extract(hw.circuit(), before);
        // Batch through the same pass a real compile runs. The epilogue's
        // raw→pulse remap is recomputed here (batching is deterministic) so
        // each batched pulse can be traced back to an absolute start time.
        let (epi_remap, rounds, batch) = if request.spec.simd_width > 1 {
            let remap = batch_ops(rounds_raw.epilogue.ops(), &request.spec).1;
            let (batched, stats) = batch_rounds(&rounds_raw, &request.spec);
            (remap, batched, stats)
        } else {
            (
                (0..rounds_raw.epilogue.len()).collect::<Vec<_>>(),
                rounds_raw,
                RoundBatchStats::default(),
            )
        };
        let resources =
            ResourceReport::from_stream_with_spec(&rounds, hw.grid().layout(), hw.spec());
        let circuit = hw.circuit();
        let flags = hw.stall_flags();
        let count = |r: std::ops::Range<usize>| flags[r].iter().filter(|&&stalled| stalled).count();
        let spans: Vec<_> = circuit.spans().iter().filter(|s| s.op_end > before).collect();
        let (epi_starts, stalls) = match spans.as_slice() {
            [] => (
                Vec::new(),
                SegmentStalls { prologue: count(before..flags.len()), ..Default::default() },
            ),
            [span] => {
                if rounds.repeats != ANALYTIC_DT_CAP - 1 {
                    // The periodic part is not `dt` rounds long; scaling it
                    // with `dt` would be wrong.
                    return Ok(None);
                }
                let stalls = SegmentStalls {
                    prologue: count(before..span.op_start),
                    round: count(span.op_start..span.op_end),
                    epilogue: count(span.op_end..flags.len()),
                };
                let barrier = span.end_makespan_us;
                // Attribution runs in ABSOLUTE time (the scheduler's own
                // frame) so derived addition chains are bit-exact. For a
                // batched epilogue the pulses' absolute starts are
                // reconstructed from the raw ops through the remap (a
                // pulse starts when its first member did).
                let raw_epilogue = &circuit.ops()[span.op_end..];
                let mut abs_starts = vec![f64::NAN; rounds.epilogue.len()];
                for (raw_idx, &pulse) in epi_remap.iter().enumerate() {
                    if abs_starts[pulse].is_nan() {
                        abs_starts[pulse] = raw_epilogue[raw_idx].start_us;
                    }
                }
                let recovery = request.spec.junction_recovery_us;
                let mut preds = Vec::with_capacity(rounds.epilogue.len());
                let mut ends: Vec<f64> = Vec::with_capacity(rounds.epilogue.len());
                for (pulse, op) in rounds.epilogue.ops().iter().enumerate() {
                    let start = abs_starts[pulse];
                    // The recovery comparison replays the scheduler's own
                    // `end + recovery` addition, so the match is bit-exact.
                    let pred = if start == barrier {
                        StartFrom::Barrier
                    } else if let Some(i) = ends.iter().rposition(|&e| e == start) {
                        StartFrom::End(i)
                    } else if let Some(i) = (recovery > 0.0)
                        .then(|| ends.iter().rposition(|&e| e + recovery == start))
                        .flatten()
                    {
                        StartFrom::EndPlusRecovery(i)
                    } else {
                        return Ok(None);
                    };
                    preds.push(pred);
                    ends.push(start + op.duration_us);
                }
                (preds, stalls)
            }
            _ => return Ok(None),
        };
        // (A span-free capture has an empty epilogue and no starts.)
        let epilogue = CompactRound::from_starts(
            rounds.epilogue.ops(),
            epi_starts,
            rounds.template.recovery_us,
        );
        let artifact = AnalyticArtifact {
            priced: PricedRounds::new(&rounds, &request.spec),
            repeats: rounds.repeats,
            measurements: rounds.measurements.len(),
            meas_per_round: rounds.template.meas_per_round,
            request,
            report,
            resources,
            epilogue,
            stalls,
            batch,
        };
        // Self-check: deriving at the capture's own `dt` must reproduce the
        // measured report bit-for-bit, or the capture is unusable.
        if artifact.derive(ANALYTIC_DT_CAP).as_ref() != Some(&artifact.resources) {
            return Ok(None);
        }
        Ok(Some(artifact))
    }

    /// The capture's compiler-side accounting report.
    pub fn report(&self) -> &InstructionReport {
        &self.report
    }

    /// The template occurrence count a compile at `dt` would produce, or
    /// `None` when that `dt` is outside the derivable range. With SIMD
    /// batching active (`simd_width > 1`) a target of exactly one
    /// occurrence is also non-derivable: a real compile at that `dt` leaves
    /// no replicated span, so its whole stream batches as one flat segment
    /// — a different (usually tighter) grouping than the capture's
    /// segmented prologue/template/epilogue batching. Those dts fall back
    /// to [`EstimateMode::Compiled`] and are counted.
    fn derived_repeats(&self, dt: usize) -> Option<usize> {
        let repeats = (self.repeats + dt).checked_sub(ANALYTIC_DT_CAP).filter(|&r| r >= 1)?;
        if self.request.spec.simd_width > 1 && repeats < 2 {
            return None;
        }
        Some(repeats)
    }

    /// Derives the [`ResourceReport`] of this instruction at `dt` rounds
    /// per logical time-step by replaying the captured round and epilogue
    /// chains — no scheduling, routing, or materialization. The cost is an
    /// exact O(dt · |round|) replay at a few ns per op, not a closed form.
    /// Returns `None` when `dt` is out of the derivable range (`dt == 0`,
    /// or `dt < 2` for an instruction with a periodic part).
    ///
    /// Durations reproduce the compiled schedule exactly for profiles whose
    /// native durations are dyadic (every preset except `projected`'s
    /// transport chains); elsewhere the derived makespan can differ from
    /// the compiled one by at most 1 ulp per epilogue timing tie.
    pub fn derive(&self, dt: usize) -> Option<ResourceReport> {
        if dt == 0 {
            return None;
        }
        if self.repeats == 0 {
            // No periodic part: the instruction runs no dt-dependent rounds
            // and its resources are the same at every dt.
            return Some(self.resources.clone());
        }
        let repeats = self.derived_repeats(dt)?;
        let grown = repeats as isize - self.repeats as isize;
        let measurements = self.measurements as isize + grown * self.meas_per_round as isize;
        let measurements = usize::try_from(measurements).ok()?;
        Some(self.priced.price(repeats, Epilogue::Chained(&self.epilogue), measurements))
    }

    /// [`AnalyticArtifact::derive`] packaged as a resource-table row,
    /// indistinguishable from [`CompileArtifact::row`] at the same `dt`.
    pub fn derive_row(&self, dt: usize) -> Option<ResourceRow> {
        Some(ResourceRow {
            name: self.request.instruction.name().to_string(),
            dx: self.request.dx,
            dz: self.request.dz,
            logical_time_steps: self.report.logical_time_steps,
            tiles: self.report.tiles,
            profile: self.request.spec.name.clone(),
            resources: self.derive(dt)?,
        })
    }

    /// Derives the [`CompileStats`] of this instruction at `dt` rounds per
    /// logical time-step: every round occurrence replays the captured
    /// round's schedule verbatim, so its stalls and batches scale linearly
    /// with the occurrence count. Same derivable range as
    /// [`AnalyticArtifact::derive`].
    pub fn derive_stats(&self, dt: usize) -> Option<CompileStats> {
        if dt == 0 {
            return None;
        }
        if self.repeats == 0 {
            return Some(CompileStats {
                junction_stalls: self.stalls.prologue + self.stalls.epilogue,
                batched_pulses: self.batch.total_batched_pulses(0),
            });
        }
        let repeats = self.derived_repeats(dt)?;
        Some(CompileStats {
            junction_stalls: self.stalls.prologue
                + repeats * self.stalls.round
                + self.stalls.epilogue,
            batched_pulses: self.batch.total_batched_pulses(repeats),
        })
    }
}

/// The front-door compiler: turns [`CompileRequest`]s into
/// [`CompileArtifact`]s, memoizing finished resource rows in a shared
/// [`CompileCache`] keyed on configuration × spec fingerprint, and — in
/// [`EstimateMode::Analytic`] — sharing one [`AnalyticArtifact`] per
/// `(instruction, dx, dz, profile)` cell across every `dt`.
#[derive(Default)]
pub struct Compiler {
    cache: CompileCache,
    analytic: Mutex<HashMap<SweepKey, Option<Arc<AnalyticArtifact>>>>,
    captures: AtomicUsize,
    stats: Mutex<HashMap<SweepKey, CompileStats>>,
    analytic_fallbacks: AtomicUsize,
}

impl Compiler {
    /// A compiler with a fresh cache.
    pub fn new() -> Self {
        Compiler::default()
    }

    /// The compile cache (shared across every [`Compiler::compile_row`]
    /// call on this compiler).
    pub fn cache(&self) -> &CompileCache {
        &self.cache
    }

    /// How many physical analytic captures ([`AnalyticArtifact::capture`]
    /// compiles) this compiler has performed. A batch engine fed entirely
    /// from a warm persistent cache reports zero — the counter is the
    /// observable that distinguishes "served from cache" from "recomputed
    /// and happened to match".
    pub fn analytic_captures(&self) -> usize {
        self.captures.load(Ordering::Relaxed)
    }

    /// How many [`EstimateMode::Analytic`] requests this compiler answered
    /// by falling back to a real compile (non-derivable cell, or `dt`
    /// outside the derivable range). Fallbacks are counted, never silent.
    pub fn analytic_fallbacks(&self) -> usize {
        self.analytic_fallbacks.load(Ordering::Relaxed)
    }

    /// The scheduling-pass statistics recorded for the request, or zeros if
    /// the request was never compiled (or derived) through this compiler.
    /// Rows served from the in-process cache keep the stats their original
    /// compile recorded — the key is the same.
    pub fn stats_for(&self, request: &CompileRequest) -> CompileStats {
        self.stats
            .lock()
            .expect("stats map poisoned")
            .get(&request.key())
            .copied()
            .unwrap_or_default()
    }

    /// Compiles a request end-to-end, returning the full artifact. The
    /// instruction is compiled in a realistic context: input tiles are
    /// first prepared (and idled) as required, then only the instruction's
    /// own circuit is accounted. Artifacts carry the full circuit and are
    /// not cached; use [`Compiler::compile_row`] for memoized row
    /// generation.
    pub fn compile(&self, request: &CompileRequest) -> Result<CompileArtifact, CoreError> {
        compile_uncached(request)
    }

    /// Compiles a request to a resource-table row, memoized: a request
    /// whose key (configuration × spec fingerprint) was already compiled is
    /// served from the cache without touching the compiler.
    pub fn compile_row(&self, request: &CompileRequest) -> Result<ResourceRow, CoreError> {
        let key = request.key();
        if let Some(row) = self.cache.get(&key) {
            return Ok(row);
        }
        let artifact = self.compile(request)?;
        self.stats.lock().expect("stats map poisoned").insert(key, artifact.stats);
        let row = artifact.row();
        self.cache.insert(key, row.clone());
        Ok(row)
    }

    /// Compiles a request to a resource-table row under the given
    /// [`EstimateMode`]. `Compiled` is exactly [`Compiler::compile_row`];
    /// `Analytic` derives the row from the cell's shared
    /// [`AnalyticArtifact`], falling back to a real compile when the cell
    /// is not derivable or `dt` is out of the derivable range.
    pub fn estimate_row(
        &self,
        request: &CompileRequest,
        mode: EstimateMode,
    ) -> Result<ResourceRow, CoreError> {
        match mode {
            EstimateMode::Compiled => self.compile_row(request),
            EstimateMode::Analytic => match self.analytic_artifact(request)? {
                Some(artifact) => match artifact.derive_row(request.dt) {
                    Some(row) => {
                        let stats =
                            artifact.derive_stats(request.dt).expect("row derivable => stats too");
                        self.stats.lock().expect("stats map poisoned").insert(request.key(), stats);
                        Ok(row)
                    }
                    None => {
                        self.analytic_fallbacks.fetch_add(1, Ordering::Relaxed);
                        self.compile_row(request)
                    }
                },
                None => {
                    self.analytic_fallbacks.fetch_add(1, Ordering::Relaxed);
                    self.compile_row(request)
                }
            },
        }
    }

    /// The shared analytic capture for the request's `(instruction, dx, dz,
    /// profile)` cell: captured on first use (one physical compile at
    /// [`ANALYTIC_DT_CAP`]), then served from the compiler's analytic cache
    /// for every `dt`. `Ok(None)` means the cell is not analytically
    /// derivable and is remembered as such.
    pub fn analytic_artifact(
        &self,
        request: &CompileRequest,
    ) -> Result<Option<Arc<AnalyticArtifact>>, CoreError> {
        let key = CompileRequest { dt: ANALYTIC_DT_CAP, ..request.clone() }.key();
        if let Some(hit) = self.analytic.lock().expect("analytic cache poisoned").get(&key) {
            return Ok(hit.clone());
        }
        self.captures.fetch_add(1, Ordering::Relaxed);
        let captured = AnalyticArtifact::capture(
            request.instruction,
            request.dx,
            request.dz,
            request.spec.clone(),
        )?
        .map(Arc::new);
        // First writer wins on a race; both computed the same capture.
        Ok(self
            .analytic
            .lock()
            .expect("analytic cache poisoned")
            .entry(key)
            .or_insert(captured)
            .clone())
    }
}

/// The stateless compile pipeline behind [`Compiler::compile`]: needs no
/// cache, so batch engines (the sweep fan-out, the table generators) that
/// bring their own memoization call it directly without constructing a
/// throwaway [`Compiler`] per row.
pub(crate) fn compile_uncached(request: &CompileRequest) -> Result<CompileArtifact, CoreError> {
    let (hw, before, report) = compile_physical(request)?;
    let (rounds, resources, stats) = instruction_rounds_with_stats(&hw, before);
    Ok(CompileArtifact { request: request.clone(), rounds, report, resources, stats })
}

/// The physical compile behind both [`compile_uncached`] and
/// [`AnalyticArtifact::capture`]: builds the fixture, prepares input tiles
/// as required, applies the instruction, and hands back the hardware model
/// (for post-hoc circuit inspection) together with the instruction's first
/// op index and the compiler-side report.
fn compile_physical(
    request: &CompileRequest,
) -> Result<(HardwareModel, usize, InstructionReport), CoreError> {
    let CompileRequest { instruction, dx, dz, dt, ref spec } = *request;
    if instruction.tiles() == 2 {
        let mut fixture = match instruction {
            Instruction::MeasureZZ => TwoTiles::new_horizontal_with_spec(dx, dz, dt, spec.clone())?,
            _ => TwoTiles::with_spec(dx, dz, dt, spec.clone())?,
        };
        fixture.hw.set_round_templating(true);
        Fiducial::Zero.prepare(&mut fixture.hw, &mut fixture.upper)?;
        Fiducial::Zero.prepare(&mut fixture.hw, &mut fixture.lower)?;
        let before = fixture.hw.circuit().len();
        let report = apply_two_tile_instruction(
            &mut fixture.hw,
            instruction,
            &mut fixture.upper,
            &mut fixture.lower,
        )?;
        Ok((fixture.hw, before, report))
    } else {
        let mut fixture = SingleTile::with_spec(dx, dz, dt, spec.clone())?;
        fixture.hw.set_round_templating(true);
        // Instructions acting on an initialized tile need one.
        let needs_input = !matches!(
            instruction,
            Instruction::PrepareZ
                | Instruction::PrepareX
                | Instruction::InjectY
                | Instruction::InjectT
        );
        if needs_input {
            Fiducial::Zero.prepare(&mut fixture.hw, &mut fixture.patch)?;
        }
        let before = fixture.hw.circuit().len();
        let report = apply_instruction(&mut fixture.hw, instruction, &mut fixture.patch)?;
        Ok((fixture.hw, before, report))
    }
}

/// Extracts the sub-range of `hw` starting at operation index `start_op` as
/// a periodic [`CompiledRounds`] (re-based so the instruction starts at
/// `t = 0`, measurement records carried over), together with its resource
/// report under the model's profile — priced over prologue,
/// `repeats × template` and epilogue by the replay kernel, so no round is
/// ever re-materialized. Used so reports reflect an instruction alone,
/// not its input preparation.
pub(crate) fn instruction_rounds(
    hw: &HardwareModel,
    start_op: usize,
) -> (CompiledRounds, ResourceReport) {
    let (rounds, resources, _) = instruction_rounds_with_stats(hw, start_op);
    (rounds, resources)
}

/// [`instruction_rounds`] plus the scheduling-pass observables: runs the
/// SIMD batching pass over the extracted rounds when the profile asks for
/// it (`simd_width > 1`; the default width skips the pass entirely and the
/// stream is byte-identical to the unbatched one), and totals the model's
/// per-op junction-stall flags across every round occurrence.
pub(crate) fn instruction_rounds_with_stats(
    hw: &HardwareModel,
    start_op: usize,
) -> (CompiledRounds, ResourceReport, CompileStats) {
    let rounds = CompiledRounds::extract(hw.circuit(), start_op);
    let (rounds, batch) = if hw.spec().simd_width > 1 {
        batch_rounds(&rounds, hw.spec())
    } else {
        (rounds, RoundBatchStats::default())
    };
    let resources = ResourceReport::from_stream_with_spec(&rounds, hw.grid().layout(), hw.spec());
    let stats = CompileStats {
        junction_stalls: junction_stalls_of(hw, start_op),
        batched_pulses: batch.total_batched_pulses(rounds.repeats),
    };
    (rounds, resources, stats)
}

/// Total junction stalls of the instruction starting at `start_op`,
/// counting each templated round occurrence: the flags cover the distinct
/// (materialized) ops; each replicated span replays its round `extra` more
/// times with the identical schedule, stalls included.
fn junction_stalls_of(hw: &HardwareModel, start_op: usize) -> usize {
    let flags = hw.stall_flags();
    let count = |r: std::ops::Range<usize>| flags[r].iter().filter(|&&stalled| stalled).count();
    let mut total = count(start_op..flags.len());
    for span in hw.circuit().spans().iter().filter(|s| s.op_end > start_op) {
        total += span.extra * count(span.op_start..span.op_end);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_request_reproduces_the_legacy_row() {
        let compiler = Compiler::new();
        let artifact =
            compiler.compile(&CompileRequest::new(Instruction::PrepareZ, 2, 2, 1)).unwrap();
        let legacy =
            crate::tables::compile_instruction_row(Instruction::PrepareZ, 2, 2, 1).unwrap();
        assert_eq!(artifact.row(), legacy);
        assert!(artifact.rounds.total_ops() > 0);
        assert!(!artifact.circuit().is_empty());
        assert_eq!(artifact.report.tiles, 1);
    }

    #[test]
    fn profiles_change_the_schedule_but_not_the_accounting() {
        let compiler = Compiler::new();
        let base = CompileRequest::new(Instruction::Idle, 2, 2, 1);
        let h1 = compiler.compile(&base).unwrap();
        let fast = compiler.compile(&base.clone().with_spec(HardwareSpec::projected())).unwrap();
        assert!(fast.resources.execution_time_s < h1.resources.execution_time_s);
        assert_eq!(fast.report.logical_time_steps, h1.report.logical_time_steps);
        assert_eq!(fast.resources.total_ops, h1.resources.total_ops);
        assert_ne!(base.key(), base.clone().with_spec(HardwareSpec::projected()).key());
    }

    #[test]
    fn compile_row_is_memoized_per_profile() {
        let compiler = Compiler::new();
        let req = CompileRequest::new(Instruction::MeasureZ, 2, 2, 1);
        let a = compiler.compile_row(&req).unwrap();
        let b = compiler.compile_row(&req).unwrap();
        assert_eq!(a, b);
        assert_eq!(compiler.cache().misses(), 1);
        assert_eq!(compiler.cache().hits(), 1);
        // A different profile is a different cache entry.
        let slow = req.with_profile("slow_junction").unwrap();
        compiler.compile_row(&slow).unwrap();
        assert_eq!(compiler.cache().len(), 2);
    }

    #[test]
    fn with_profile_rejects_unknown_names() {
        let err =
            CompileRequest::new(Instruction::Idle, 2, 2, 1).with_profile("warp9").unwrap_err();
        assert!(err.to_string().contains("h1"));
    }

    #[test]
    fn estimate_mode_parses_and_renders() {
        assert_eq!("analytic".parse::<EstimateMode>().unwrap(), EstimateMode::Analytic);
        assert_eq!("Compiled".parse::<EstimateMode>().unwrap(), EstimateMode::Compiled);
        assert_eq!(EstimateMode::default(), EstimateMode::Compiled);
        assert_eq!(EstimateMode::Analytic.to_string(), "analytic");
        let err = "turbo".parse::<EstimateMode>().unwrap_err();
        assert!(err.contains("turbo") && err.contains("analytic"));
    }

    #[test]
    fn analytic_rows_match_compiled_rows_bit_for_bit() {
        let compiler = Compiler::new();
        for instruction in [Instruction::Idle, Instruction::MeasureZZ, Instruction::MeasureX] {
            for dt in [2usize, 3, 5, 7] {
                let req = CompileRequest::new(instruction, 3, 3, dt);
                let analytic = compiler.estimate_row(&req, EstimateMode::Analytic).unwrap();
                let compiled = compile_uncached(&req).unwrap().row();
                assert_eq!(analytic, compiled, "{instruction:?} dt={dt}");
            }
        }
    }

    #[test]
    fn analytic_captures_are_shared_across_dt() {
        let compiler = Compiler::new();
        for dt in 2..=6 {
            let req = CompileRequest::new(Instruction::Idle, 2, 2, dt);
            compiler.estimate_row(&req, EstimateMode::Analytic).unwrap();
        }
        // One capture serves every dt: the compiled-row cache saw no
        // traffic beyond (possibly) fallback dts — for Idle, none.
        assert_eq!(compiler.cache().len(), 0, "analytic rows never populate the compiled cache");
        assert_eq!(compiler.analytic.lock().unwrap().len(), 1);
        assert_eq!(compiler.analytic_captures(), 1, "one physical capture serves every dt");
    }

    #[test]
    fn analytic_mode_falls_back_outside_the_derivable_range() {
        let compiler = Compiler::new();
        // dt = 1 cannot be derived from a periodic capture; the row must
        // come from a real compile and still be exact.
        let req = CompileRequest::new(Instruction::Idle, 2, 2, 1);
        let analytic = compiler.estimate_row(&req, EstimateMode::Analytic).unwrap();
        let compiled = compile_uncached(&req).unwrap().row();
        assert_eq!(analytic, compiled);
        assert_eq!(compiler.cache().len(), 1, "the fallback is a compiled-cache entry");
        assert_eq!(compiler.analytic_fallbacks(), 1, "the fallback is counted, never silent");
    }

    #[test]
    fn default_knobs_report_zero_stats() {
        let compiler = Compiler::new();
        let req = CompileRequest::new(Instruction::Idle, 3, 3, 3);
        compiler.compile_row(&req).unwrap();
        assert_eq!(compiler.stats_for(&req), CompileStats::default());
        let artifact = compiler.compile(&req).unwrap();
        assert_eq!(artifact.stats, CompileStats::default());
    }

    #[test]
    fn simd_batching_reports_batched_pulses_and_shrinks_the_stream() {
        let mut spec = HardwareSpec::h1();
        spec.simd_width = 4;
        let compiler = Compiler::new();
        let req = CompileRequest::new(Instruction::Idle, 3, 3, 3).with_spec(spec);
        let batched = compiler.compile(&req).unwrap();
        let plain = compiler.compile(&CompileRequest::new(Instruction::Idle, 3, 3, 3)).unwrap();
        assert!(batched.stats.batched_pulses > 0, "d=3 rounds have co-scheduled 1q gates");
        assert!(batched.rounds.total_ops() < plain.rounds.total_ops());
        // With zero discount, batching merges pulses but moves no start:
        // the makespan is unchanged.
        assert_eq!(
            batched.resources.execution_time_s.to_bits(),
            plain.resources.execution_time_s.to_bits()
        );
    }

    #[test]
    fn analytic_stats_match_compiled_stats() {
        let mut spec = HardwareSpec::h1();
        spec.simd_width = 2;
        for dt in [2usize, 3, 5, 7] {
            let req = CompileRequest::new(Instruction::MeasureZZ, 3, 3, dt).with_spec(spec.clone());
            let analytic = Compiler::new();
            let row = analytic.estimate_row(&req, EstimateMode::Analytic).unwrap();
            let compiled = compile_uncached(&req).unwrap();
            assert_eq!(row, compiled.row(), "dt={dt}");
            assert_eq!(analytic.stats_for(&req), compiled.stats, "dt={dt}");
        }
    }
}
