//! The resource-pricing kernel behind [`ResourceReport`].
//!
//! A report is priced segment by segment in stream order: flat runs of
//! materialized ops and replicated rounds replayed from a [`CompactRound`],
//! one fused pass per occurrence, with no per-op closure call or map entry.
//! Every float is the expression a per-op walk of the logical stream would
//! compute, in the same order, so reports are bit-identical to it:
//!
//! * makespan: `max((start − rebase) + duration)` over every occurrence;
//! * active zone-seconds: `+= duration · 1e-6 · zones` in stream order;
//! * replica starts: the critical predecessor's end, that end plus the
//!   junction recovery window, or the round barrier (see
//!   [`replay_round`](crate::rounds::replay_round)).
//!
//! Only integers take a closed form: op-kind counts are
//! `fixed + repeats × round` in a per-kind array, and the spatial
//! quantities (zones, junctions, area) are computed once from the distinct
//! ops. [`PricedRounds`] holds all of it for a [`CompiledRounds`] without
//! holding a single [`TimedOp`].

use std::collections::{BTreeMap, HashMap};

use tiscc_grid::QSite;

use crate::circuit::TimedOp;
use crate::ops::NativeOp;
use crate::resources::ResourceReport;
use crate::rounds::CompiledRounds;
use crate::spec::HardwareSpec;

/// Number of [`NativeOp`] kinds (the length of [`NativeOp::all`]).
const NATIVE_KINDS: usize = 16;

/// Native-op counts per kind, indexed by `NativeOp as usize`.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct OpCounts([usize; NATIVE_KINDS]);

impl OpCounts {
    /// The counts of a run of ops.
    pub(crate) fn of(ops: &[TimedOp]) -> Self {
        let mut counts = OpCounts::default();
        for op in ops {
            counts.0[op.op as usize] += 1;
        }
        counts
    }

    /// Adds `times` copies of `other`.
    pub(crate) fn add_scaled(&mut self, other: &OpCounts, times: usize) {
        for (a, b) in self.0.iter_mut().zip(other.0) {
            *a += times * b;
        }
    }

    /// Count of one kind.
    fn get(&self, op: NativeOp) -> usize {
        self.0[op as usize]
    }

    /// Total ops of every kind.
    fn total(&self) -> usize {
        self.0.iter().sum()
    }

    /// The report's mnemonic-keyed map: every kind that occurs.
    fn to_map(self) -> BTreeMap<&'static str, usize> {
        NativeOp::all()
            .iter()
            .filter(|&&op| self.get(op) > 0)
            .map(|&op| (op.mnemonic(), self.get(op)))
            .collect()
    }
}

/// The `dt`-independent spatial part of a report: distinct trapping zones,
/// distinct junctions, and the bounding-box area of both.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Footprint {
    trapping_zones: usize,
    junctions: usize,
    area_m2: f64,
}

impl Footprint {
    /// The footprint of the distinct ops in `segments`, at the profile's
    /// zone pitch. Distinct sites are counted on a bitmap over their own
    /// bounding box (a sorted list when that box is sparse), so no site is
    /// ever looked up in a layout.
    pub(crate) fn of(segments: &[&[TimedOp]], spec: &HardwareSpec) -> Self {
        let ops = || segments.iter().flat_map(|s| s.iter());
        let zones = || ops().flat_map(|op| op.sites.iter().copied());
        let junctions = || ops().filter_map(|op| op.junction);
        let Some((rmin, rmax, cmin, cmax)) = zones().chain(junctions()).fold(None, |b, s| {
            let (r0, r1, c0, c1) = b.unwrap_or((s.row, s.row, s.col, s.col));
            Some((r0.min(s.row), r1.max(s.row), c0.min(s.col), c1.max(s.col)))
        }) else {
            return Footprint { trapping_zones: 0, junctions: 0, area_m2: 0.0 };
        };
        // Exact integers in f64, and no u32 overflow on a full-range box.
        let height = (f64::from(rmax - rmin) + 1.0) * spec.zone_pitch_m;
        let width = (f64::from(cmax - cmin) + 1.0) * spec.zone_pitch_m;
        let cols = u64::from(cmax - cmin) + 1;
        let cells = (u64::from(rmax - rmin) + 1).saturating_mul(cols);
        // A bitmap over the box, unless it would exceed one word per op
        // (plus a little slack).
        let max_words = segments.iter().map(|s| s.len() as u64).sum::<u64>() + 1024;
        let words = cells.div_ceil(64);
        let index = |s: QSite| u64::from(s.row - rmin) * cols + u64::from(s.col - cmin);
        let (trapping_zones, junctions) = if words <= max_words {
            let mut bits = vec![0u64; words as usize];
            let trapping_zones = count_distinct(zones().map(index), &mut bits);
            bits.fill(0);
            (trapping_zones, count_distinct(junctions().map(index), &mut bits))
        } else {
            (count_sorted(zones().collect()), count_sorted(junctions().collect()))
        };
        Footprint { trapping_zones, junctions, area_m2: height * width }
    }
}

/// Distinct cell indices among `cells`, marked on a zeroed bitmap.
fn count_distinct(cells: impl Iterator<Item = u64>, bits: &mut [u64]) -> usize {
    let mut n = 0;
    for i in cells {
        let (word, bit) = ((i / 64) as usize, 1u64 << (i % 64));
        n += usize::from(bits[word] & bit == 0);
        bits[word] |= bit;
    }
    n
}

/// Distinct sites of a list, by sorting it.
fn count_sorted(mut sites: Vec<QSite>) -> usize {
    sites.sort_unstable();
    sites.dedup();
    sites.len()
}

/// Where a replayed op's start comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StartFrom {
    /// The barrier the occurrence starts from.
    Barrier,
    /// The end of an earlier op of the same occurrence.
    End(usize),
    /// That end plus the junction recovery window (the op waited out the
    /// earlier op's recool time).
    EndPlusRecovery(usize),
}

/// One op of a [`CompactRound`]: 8 bytes.
#[derive(Clone, Copy, Debug)]
struct ReplayOp {
    /// Index into the replay buffer — an earlier op's end, or the barrier
    /// slot past the last op — with [`RECOVERY`] set when the start adds
    /// the recovery window.
    from: u32,
    /// Index into [`CompactRound::costs`].
    cost: u32,
}

/// The recovery-edge flag of [`ReplayOp::from`].
const RECOVERY: u32 = 1 << 31;

/// Duration and active zone-seconds shared by every op of one
/// `(duration, zones involved)` class; a round has only a few classes.
#[derive(Clone, Copy, Debug)]
struct OpCost {
    duration_us: f64,
    /// `duration_us * 1e-6 * zones involved`.
    active: f64,
}

/// A round (or any barrier-started op chain) reduced to what pricing a
/// replay needs: per op a start source and a cost class, plus the round's
/// op counts.
#[derive(Clone, Debug, Default)]
pub struct CompactRound {
    ops: Vec<ReplayOp>,
    costs: Vec<OpCost>,
    recovery_us: f64,
    counts: OpCounts,
}

impl CompactRound {
    /// Compacts a captured round: `preds` are the critical predecessors of
    /// [`ReplicatedSpan::preds`](crate::rounds::ReplicatedSpan::preds).
    /// A start that is not exactly its predecessor's captured end was
    /// pushed by the junction recovery window (only possible when
    /// `recovery_us > 0`), the edge classification of
    /// [`replay_round`](crate::rounds::replay_round).
    pub fn from_round(ops: &[TimedOp], preds: &[Option<u32>], recovery_us: f64) -> Self {
        let starts = ops.iter().zip(preds).map(|(op, pred)| match *pred {
            None => StartFrom::Barrier,
            Some(p) => {
                let p = p as usize;
                if recovery_us > 0.0 && op.start_us != ops[p].start_us + ops[p].duration_us {
                    StartFrom::EndPlusRecovery(p)
                } else {
                    StartFrom::End(p)
                }
            }
        });
        CompactRound::from_starts(ops, starts, recovery_us)
    }

    /// Compacts `ops` with explicit start sources. Every `End`/
    /// `EndPlusRecovery` must name an earlier op.
    pub fn from_starts(
        ops: &[TimedOp],
        starts: impl IntoIterator<Item = StartFrom>,
        recovery_us: f64,
    ) -> Self {
        let barrier = u32::try_from(ops.len()).ok().filter(|&n| n < RECOVERY).expect("round size");
        let mut classes: HashMap<(u64, usize), u32> = HashMap::new();
        let mut costs = Vec::new();
        let compact: Vec<ReplayOp> = ops
            .iter()
            .zip(starts)
            .enumerate()
            .map(|(i, (op, start))| {
                let (from, flag) = match start {
                    StartFrom::Barrier => (barrier, 0),
                    StartFrom::End(p) => (p as u32, 0),
                    StartFrom::EndPlusRecovery(p) => (p as u32, RECOVERY),
                };
                assert!(from == barrier || (from as usize) < i, "op {i} starts from a later op");
                let zones = zones_involved(op);
                let cost = *classes.entry((op.duration_us.to_bits(), zones)).or_insert_with(|| {
                    costs.push(OpCost {
                        duration_us: op.duration_us,
                        active: active_term(op.duration_us, zones),
                    });
                    (costs.len() - 1) as u32
                });
                ReplayOp { from: from | flag, cost }
            })
            .collect();
        assert_eq!(compact.len(), ops.len(), "one start source per op");
        CompactRound { ops: compact, costs, recovery_us, counts: OpCounts::of(ops) }
    }

    /// Op counts of one occurrence.
    pub(crate) fn counts(&self) -> &OpCounts {
        &self.counts
    }
}

/// Zones an op involves: its sites plus its junction.
fn zones_involved(op: &TimedOp) -> usize {
    op.sites.len() + usize::from(op.junction.is_some())
}

/// An op's active zone-seconds: `duration · 1e-6 · zones involved`.
fn active_term(duration_us: f64, zones: usize) -> f64 {
    duration_us * 1e-6 * zones as f64
}

/// The running time accumulators of one report, advanced segment by
/// segment in stream order.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Pricer {
    makespan_us: f64,
    active_zone_seconds: f64,
}

impl Pricer {
    /// Prices materialized ops at their stored starts less `rebase_us`
    /// (`x - 0.0 == x` exactly, so a zero rebase prices stored times).
    pub(crate) fn flat(&mut self, ops: &[TimedOp], rebase_us: f64) {
        for op in ops {
            self.makespan_us = self.makespan_us.max((op.start_us - rebase_us) + op.duration_us);
            self.active_zone_seconds += active_term(op.duration_us, zones_involved(op));
        }
    }

    /// Replays `times` occurrences of `round`, the first from barrier
    /// `base` (absolute µs), each later one from the previous occurrence's
    /// barrier (the fold-max of its ends). Returns the barrier after the
    /// last occurrence. Logical starts are the absolute ones less
    /// `rebase_us`.
    pub(crate) fn replay(
        &mut self,
        round: &CompactRound,
        mut base: f64,
        times: usize,
        rebase_us: f64,
    ) -> f64 {
        let n = round.ops.len();
        // Op ends of the current occurrence, then its barrier.
        let mut ends = vec![0.0f64; n + 1];
        for _ in 0..times {
            ends[n] = base;
            let mut next = base;
            for (i, op) in round.ops.iter().enumerate() {
                let cost = round.costs[op.cost as usize];
                let from = ends[(op.from & !RECOVERY) as usize];
                let start = if op.from & RECOVERY != 0 { from + round.recovery_us } else { from };
                let end = start + cost.duration_us;
                ends[i] = end;
                next = next.max(end);
                self.makespan_us = self.makespan_us.max((start - rebase_us) + cost.duration_us);
                self.active_zone_seconds += cost.active;
            }
            base = next;
        }
        base
    }

    /// Finishes the report. `measurement_records` is the stream's record
    /// count; hand-built circuits without records count `Measure_Z` ops.
    pub(crate) fn report(
        &self,
        footprint: &Footprint,
        counts: &OpCounts,
        measurement_records: usize,
    ) -> ResourceReport {
        let execution_time_s = self.makespan_us * 1e-6;
        ResourceReport {
            execution_time_s,
            area_m2: footprint.area_m2,
            spacetime_volume_s_m2: execution_time_s * footprint.area_m2,
            trapping_zones: footprint.trapping_zones,
            junctions: footprint.junctions,
            zone_seconds: footprint.trapping_zones as f64 * execution_time_s,
            active_zone_seconds: self.active_zone_seconds,
            op_counts: counts.to_map(),
            total_ops: counts.total(),
            measurements: measurement_records.max(counts.get(NativeOp::MeasureZ)),
        }
    }
}

/// How the ops after the periodic part are timed.
#[derive(Clone, Copy, Debug)]
pub enum Epilogue<'a> {
    /// Stored (already rebased) starts, as extracted from a compile.
    Stored(&'a [TimedOp]),
    /// Re-timed from the barrier after the last occurrence.
    Chained(&'a CompactRound),
}

/// A [`CompiledRounds`] reduced to its `dt`-independent pricing state: the
/// accumulators after the prologue and the first round occurrence, the
/// barrier that occurrence leaves, the compact round, and the integer and
/// spatial totals. Prices any occurrence count without holding a single
/// [`TimedOp`].
#[derive(Clone, Debug)]
pub struct PricedRounds {
    head: Pricer,
    barrier_us: f64,
    round: CompactRound,
    rebase_us: f64,
    /// Prologue plus epilogue op counts.
    fixed: OpCounts,
    footprint: Footprint,
}

impl PricedRounds {
    /// Reduces `rounds` (whose epilogue ops fix the counts and footprint)
    /// under `spec`'s zone pitch.
    pub fn new(rounds: &CompiledRounds, spec: &HardwareSpec) -> Self {
        let t = &rounds.template;
        let template: &[TimedOp] = if rounds.repeats > 0 { &t.ops } else { &[] };
        let (prologue, epilogue) = (rounds.prologue.ops(), rounds.epilogue.ops());
        let mut head = Pricer::default();
        head.flat(prologue, 0.0);
        head.flat(template, rounds.rebase_us);
        let mut fixed = OpCounts::of(prologue);
        fixed.add_scaled(&OpCounts::of(epilogue), 1);
        PricedRounds {
            head,
            barrier_us: template.iter().map(TimedOp::end_us).fold(t.base_us, f64::max),
            round: CompactRound::from_round(template, &t.preds, t.recovery_us),
            rebase_us: rounds.rebase_us,
            fixed,
            footprint: Footprint::of(&[prologue, template, epilogue], spec),
        }
    }

    /// The report of `repeats` round occurrences (the first is the stored
    /// one; `0` means the rounds had no periodic part) followed by
    /// `epilogue`, with `measurement_records` records.
    pub fn price(
        &self,
        repeats: usize,
        epilogue: Epilogue<'_>,
        measurement_records: usize,
    ) -> ResourceReport {
        let mut pricer = self.head;
        let barrier =
            pricer.replay(&self.round, self.barrier_us, repeats.saturating_sub(1), self.rebase_us);
        match epilogue {
            Epilogue::Stored(ops) => pricer.flat(ops, 0.0),
            Epilogue::Chained(chain) => {
                pricer.replay(chain, barrier, 1, self.rebase_us);
            }
        }
        let mut counts = self.fixed;
        counts.add_scaled(&self.round.counts, repeats);
        pricer.report(&self.footprint, &counts, measurement_records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiscc_grid::QubitId;

    fn op_at(sites: Vec<QSite>, junction: Option<QSite>) -> TimedOp {
        TimedOp {
            op: NativeOp::Move,
            sites: sites.into(),
            qubits: [QubitId(0)].into(),
            start_us: 0.0,
            duration_us: 1.0,
            junction,
            measurement: None,
        }
    }

    #[test]
    fn footprint_counts_distinct_sites_on_dense_and_sparse_boxes() {
        let spec = HardwareSpec::h1();
        let pitch = spec.zone_pitch_m;
        // A dense box: the bitmap path. Repeated sites count once.
        let dense = [
            op_at(vec![QSite::new(0, 1), QSite::new(0, 2)], Some(QSite::new(0, 4))),
            op_at(vec![QSite::new(0, 2), QSite::new(0, 1)], Some(QSite::new(0, 4))),
        ];
        let f = Footprint::of(&[&dense], &spec);
        assert_eq!((f.trapping_zones, f.junctions), (2, 1));
        assert_eq!(f.area_m2.to_bits(), (pitch * (4.0 * pitch)).to_bits());
        // Sites the full u32 range apart: the sorted-list path, no giant
        // bitmap and no overflow.
        let far = QSite::new(u32::MAX, u32::MAX);
        let sparse = [op_at(vec![QSite::new(0, 0), far], Some(far)), op_at(vec![far], None)];
        let f = Footprint::of(&[&sparse, &[]], &spec);
        assert_eq!((f.trapping_zones, f.junctions), (2, 1));
        assert!(f.area_m2 > 0.0);
        let none = Footprint::of(&[&[]], &spec);
        assert_eq!((none.trapping_zones, none.junctions, none.area_m2), (0, 0, 0.0));
    }

    #[test]
    fn compact_rounds_reject_forward_start_sources() {
        let ops = [op_at(vec![QSite::new(0, 1)], None), op_at(vec![QSite::new(0, 1)], None)];
        let forward = std::panic::catch_unwind(|| {
            CompactRound::from_starts(&ops, [StartFrom::End(1), StartFrom::Barrier], 0.0)
        });
        assert!(forward.is_err(), "an op cannot start from a later op's end");
        let round = CompactRound::from_starts(&ops, [StartFrom::Barrier, StartFrom::End(0)], 0.0);
        let mut pricer = Pricer::default();
        // Two chained 1 µs ops per occurrence, three occurrences from t = 5.
        assert_eq!(pricer.replay(&round, 5.0, 3, 0.0), 11.0);
        assert_eq!(pricer.makespan_us, 11.0);
    }
}
