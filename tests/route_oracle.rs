//! Differential oracle for the zone router.
//!
//! The hardware model routes every ion shuttle through
//! `RouteScratch::route`: Dijkstra over dense, generation-stamped per-site
//! state. This file keeps the hash-map Dijkstra it replaced — with its own
//! `Vec`-returning neighbour and step enumeration — as a test-only
//! reference, and asserts that both return the same `Option<Vec<MoveStep>>`
//! on random layouts up to 8×8 units, random blocked-zone sets from 0 to
//! 60% density and random endpoints (junctions and off-layout sites
//! included). One scratch is reused across layouts of different sizes, so
//! stale state from an earlier search would show up as a diff.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tiscc::grid::{route_avoiding_with, Layout, MoveStep, QSite, RouteScratch, SiteKind};

/// The up-to-four orthogonally adjacent sites of `site` that exist.
fn oracle_neighbors(layout: &Layout, site: QSite) -> Vec<QSite> {
    let mut out = Vec::with_capacity(4);
    let candidates = [
        (site.row.wrapping_sub(1), site.col),
        (site.row + 1, site.col),
        (site.row, site.col.wrapping_sub(1)),
        (site.row, site.col + 1),
    ];
    for (r, c) in candidates {
        if r == u32::MAX || c == u32::MAX {
            continue;
        }
        let s = QSite::new(r, c);
        if layout.contains(s) {
            out.push(s);
        }
    }
    out
}

/// All single-step moves available from `site` on `layout`.
fn oracle_steps_from(layout: &Layout, site: QSite) -> Vec<MoveStep> {
    let mut out = Vec::new();
    for n in oracle_neighbors(layout, site) {
        match layout.site_kind(n) {
            Some(SiteKind::Junction) => {
                for far in oracle_neighbors(layout, n) {
                    if far != site && layout.is_trapping_zone(far) {
                        out.push(MoveStep::JunctionHop { from: site, to: far, junction: n });
                    }
                }
            }
            Some(_) => out.push(MoveStep::Shuttle { from: site, to: n }),
            None => {}
        }
    }
    out
}

/// The hash-map Dijkstra the dense router replaced, kept verbatim apart
/// from its neighbour and step enumeration, which are the local copies
/// above.
fn oracle_route_avoiding_with(
    layout: &Layout,
    from: QSite,
    to: QSite,
    blocked: &dyn Fn(QSite) -> bool,
) -> Option<Vec<MoveStep>> {
    if !layout.is_trapping_zone(from) || !layout.is_trapping_zone(to) {
        return None;
    }
    if from == to {
        return Some(Vec::new());
    }
    if blocked(to) {
        return None;
    }

    let mut dist: HashMap<QSite, u64> = HashMap::new();
    let mut prev: HashMap<QSite, MoveStep> = HashMap::new();
    let mut heap: BinaryHeap<Reverse<(u64, QSite)>> = BinaryHeap::new();
    dist.insert(from, 0);
    heap.push(Reverse((0, from)));

    while let Some(Reverse((d, site))) = heap.pop() {
        if site == to {
            break;
        }
        if d > *dist.get(&site).unwrap_or(&u64::MAX) {
            continue;
        }
        for step in oracle_steps_from(layout, site) {
            let next = step.to();
            if next != to && blocked(next) {
                continue;
            }
            let nd = d + step.relative_cost();
            if nd < *dist.get(&next).unwrap_or(&u64::MAX) {
                dist.insert(next, nd);
                prev.insert(next, step);
                heap.push(Reverse((nd, next)));
            }
        }
    }

    if !dist.contains_key(&to) {
        return None;
    }
    // Reconstruct.
    let mut steps = Vec::new();
    let mut cur = to;
    while cur != from {
        let step = prev[&cur];
        cur = step.from();
        steps.push(step);
    }
    steps.reverse();
    Some(steps)
}

/// A random endpoint: usually a trapping zone, sometimes a junction or a
/// coordinate off the lattice lines or past the grid.
fn random_site(rng: &mut StdRng, layout: &Layout, zones: &[QSite]) -> QSite {
    let (rows, cols) = layout.fine_extent();
    match rng.gen_range(0..10u32) {
        0 => QSite::new(rng.gen_range(0..rows + 2), rng.gen_range(0..cols + 2)),
        1 => QSite::new(
            4 * rng.gen_range(0..layout.unit_rows()),
            4 * rng.gen_range(0..layout.unit_cols()),
        ),
        _ => zones[rng.gen_range(0..zones.len())],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn dense_router_returns_the_oracle_route(
        unit_rows in 1u32..9,
        unit_cols in 1u32..9,
        density_pct in 0u32..61,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let layout = Layout::new(unit_rows, unit_cols);
        let zones: Vec<QSite> =
            layout.all_sites().filter(|&s| layout.is_trapping_zone(s)).collect();
        let density = f64::from(density_pct) / 100.0;
        let blocked: HashSet<QSite> =
            zones.iter().copied().filter(|_| rng.gen_bool(density)).collect();
        let is_blocked = |s: QSite| blocked.contains(&s);
        // A scratch reused across pairs and, through the second, smaller
        // layout, across layouts.
        let mut scratch = RouteScratch::default();
        let small = Layout::new(1, unit_cols);
        let small_zones: Vec<QSite> =
            small.all_sites().filter(|&s| small.is_trapping_zone(s)).collect();
        for _ in 0..12 {
            let from = random_site(&mut rng, &layout, &zones);
            let to = random_site(&mut rng, &layout, &zones);
            let expected = oracle_route_avoiding_with(&layout, from, to, &is_blocked);
            let ctx = format!("{unit_rows}x{unit_cols} {density_pct}% {from:?} -> {to:?}");
            let fresh = route_avoiding_with(&layout, from, to, &is_blocked);
            prop_assert_eq!(fresh, expected.clone(), "{}", ctx);
            let reused = scratch.route(&layout, from, to, is_blocked).map(<[MoveStep]>::to_vec);
            prop_assert_eq!(reused, expected, "reused scratch: {}", ctx);

            let from = random_site(&mut rng, &small, &small_zones);
            let to = random_site(&mut rng, &small, &small_zones);
            let expected = oracle_route_avoiding_with(&small, from, to, &is_blocked);
            let reused = scratch.route(&small, from, to, is_blocked).map(<[MoveStep]>::to_vec);
            prop_assert_eq!(reused, expected, "1x{} {:?} -> {:?}", unit_cols, from, to);
        }
    }
}

/// Every pair of zones on an open 3×3 layout, through one reused scratch:
/// covers every tie between equal-cost routes the layout offers.
#[test]
fn every_open_pair_matches_on_a_small_layout() {
    let layout = Layout::new(3, 3);
    let zones: Vec<QSite> = layout.all_sites().filter(|&s| layout.is_trapping_zone(s)).collect();
    let mut scratch = RouteScratch::default();
    for &from in &zones {
        for &to in &zones {
            let expected = oracle_route_avoiding_with(&layout, from, to, &|_| false);
            let routed = scratch.route(&layout, from, to, |_| false).map(<[MoveStep]>::to_vec);
            assert_eq!(routed, expected, "{from:?} -> {to:?}");
        }
    }
}
