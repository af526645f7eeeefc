//! Routing of ion movements between trapping zones, and the shared
//! tile-grid breadth-first search used by patch-level corridor routing.
//!
//! A route is a sequence of [`MoveStep`]s, each either a shuttle between two
//! adjacent trapping zones on the same straight segment, or a hop through a
//! junction connecting two zones adjacent to that junction (paper Sec. 3.2:
//! compiled as `Move zoneA zoneB` and charged two junction-traversal times).
//!
//! Routing uses Dijkstra's algorithm weighted by the nominal duration of each
//! step so that compiled circuits prefer fast straight-line shuttles over
//! slow junction crossings.
//!
//! Above the zone level, the program estimator routes lattice-surgery merge
//! *corridors* over a coarse grid of surface-code tiles. The search behind
//! that — an unweighted multi-source BFS over an abstract `rows × cols`
//! grid with a caller-supplied passability predicate — lives here as
//! [`shortest_tile_path`], so both layers share one routing substrate.
//! [`tiles_connected`] answers the same reachability question exactly on
//! a row-major tile bitmask with word-parallel flood fill, so callers that
//! probe many infeasible searches can reject them without a BFS.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet, VecDeque};

use crate::layout::Layout;
use crate::site::{QSite, SiteKind};

/// A single movement primitive for one ion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MoveStep {
    /// Shuttle between two adjacent trapping zones of the same segment.
    Shuttle {
        /// Zone the ion leaves.
        from: QSite,
        /// Zone the ion arrives at.
        to: QSite,
    },
    /// Hop through `junction` from one adjacent zone to another.
    JunctionHop {
        /// Zone the ion leaves.
        from: QSite,
        /// Zone the ion arrives at.
        to: QSite,
        /// The junction traversed (exclusively held during the hop).
        junction: QSite,
    },
}

impl MoveStep {
    /// The departure zone.
    pub fn from(&self) -> QSite {
        match *self {
            MoveStep::Shuttle { from, .. } | MoveStep::JunctionHop { from, .. } => from,
        }
    }

    /// The arrival zone.
    pub fn to(&self) -> QSite {
        match *self {
            MoveStep::Shuttle { to, .. } | MoveStep::JunctionHop { to, .. } => to,
        }
    }

    /// Relative cost used by the router: a junction hop takes two traversals
    /// at 105 µs versus a 5.25 µs shuttle, i.e. 40× longer.
    pub fn relative_cost(&self) -> u64 {
        match self {
            MoveStep::Shuttle { .. } => 1,
            MoveStep::JunctionHop { .. } => 40,
        }
    }
}

/// All single-step moves available from `site` on `layout`, in the order
/// the router relaxes them: for each neighbour (up, down, left, right), a
/// shuttle onto a zone, or a hop through a junction to each of the
/// junction's other zones in the same order.
pub fn steps_from(layout: &Layout, site: QSite) -> Steps {
    let mut out = Steps { steps: [MoveStep::Shuttle { from: site, to: site }; 4], len: 0 };
    let mut push = |step| {
        out.steps[out.len] = step;
        out.len += 1;
    };
    for n in layout.neighbors(site) {
        if layout.site_kind(n) == Some(SiteKind::Junction) {
            for far in layout.neighbors(n) {
                if far != site && layout.is_trapping_zone(far) {
                    push(MoveStep::JunctionHop { from: site, to: far, junction: n });
                }
            }
        } else {
            push(MoveStep::Shuttle { from: site, to: n });
        }
    }
    out
}

/// The moves out of one site ([`steps_from`]), held inline: a zone has at
/// most one shuttle and three hops (or two shuttles), a junction four
/// shuttles. Derefs to a slice and iterates by value.
#[derive(Clone, Copy, Debug)]
pub struct Steps {
    steps: [MoveStep; 4],
    len: usize,
}

impl std::ops::Deref for Steps {
    type Target = [MoveStep];

    fn deref(&self) -> &[MoveStep] {
        &self.steps[..self.len]
    }
}

impl IntoIterator for Steps {
    type Item = MoveStep;
    type IntoIter = std::iter::Take<std::array::IntoIter<MoveStep, 4>>;

    fn into_iter(self) -> Self::IntoIter {
        self.steps.into_iter().take(self.len)
    }
}

/// Shortest (duration-weighted) route from `from` to `to`, ignoring other
/// ions. Returns `None` if the sites are not connected or do not exist.
pub fn route(layout: &Layout, from: QSite, to: QSite) -> Option<Vec<MoveStep>> {
    route_avoiding_with(layout, from, to, &|_| false)
}

/// Shortest route from `from` to `to` that never enters a zone in `blocked`
/// (the destination itself must not be blocked). Junctions cannot be blocked
/// spatially — temporal junction conflicts are resolved by the scheduler.
pub fn route_avoiding(
    layout: &Layout,
    from: QSite,
    to: QSite,
    blocked: &HashSet<QSite>,
) -> Option<Vec<MoveStep>> {
    route_avoiding_with(layout, from, to, &|site| blocked.contains(&site))
}

/// [`route_avoiding`] with a caller-supplied blocking predicate instead of a
/// materialized set; returns the same route as [`route_avoiding`] with the
/// equivalent set. Callers that route many times should keep a
/// [`RouteScratch`] and call [`RouteScratch::route`], which finds the same
/// routes without allocating.
pub fn route_avoiding_with(
    layout: &Layout,
    from: QSite,
    to: QSite,
    blocked: &dyn Fn(QSite) -> bool,
) -> Option<Vec<MoveStep>> {
    RouteScratch::default().route(layout, from, to, blocked).map(<[MoveStep]>::to_vec)
}

/// Per-site router state, valid only while `stamp` equals the scratch's
/// current generation.
#[derive(Clone, Copy, Debug, Default)]
struct RouteNode {
    stamp: u32,
    dist: u32,
    prev: u32,
}

/// Reusable working memory for the zone router: distance and predecessor
/// per site (dense, by [`Layout::site_index`]), the priority queue and the
/// returned route.
///
/// Each search bumps a generation counter instead of clearing the per-site
/// table, so a search touches only the sites it reaches. Keeping one
/// scratch across searches makes routing allocation-free once its buffers
/// have grown to the layout.
#[derive(Clone, Debug, Default)]
pub struct RouteScratch {
    nodes: Vec<RouteNode>,
    generation: u32,
    heap: BinaryHeap<Reverse<(u64, QSite)>>,
    path: Vec<MoveStep>,
}

impl RouteScratch {
    /// Shortest route from `from` to `to` that never enters a zone for
    /// which `blocked` is true (the destination itself must not be
    /// blocked), or `None` if there is none. Same contract and same routes
    /// as [`route_avoiding_with`].
    ///
    /// The search is Dijkstra's algorithm over [`steps_from`] weighted by
    /// [`MoveStep::relative_cost`]. The queue pops the least
    /// `(distance, site)` pair, and a site's distance and predecessor
    /// change only on a strict improvement, so ties resolve the same way
    /// on every run.
    pub fn route(
        &mut self,
        layout: &Layout,
        from: QSite,
        to: QSite,
        blocked: impl Fn(QSite) -> bool,
    ) -> Option<&[MoveStep]> {
        self.path.clear();
        if !layout.is_trapping_zone(from) || !layout.is_trapping_zone(to) {
            return None;
        }
        if from == to {
            return Some(&self.path);
        }
        if blocked(to) {
            return None;
        }
        let index = |site: QSite| layout.site_index(site).expect("router sites lie on the layout");
        if self.nodes.len() < layout.site_count() {
            self.nodes.resize(layout.site_count(), RouteNode::default());
        }
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.nodes.fill(RouteNode::default());
            self.generation = 1;
        }
        let generation = self.generation;
        let nodes = &mut self.nodes;
        let dist = |nodes: &[RouteNode], i: usize| {
            let node = nodes[i];
            if node.stamp == generation {
                u64::from(node.dist)
            } else {
                u64::MAX
            }
        };
        let (from_i, to_i) = (index(from), index(to));
        nodes[from_i] = RouteNode { stamp: generation, dist: 0, prev: from_i as u32 };
        let heap = &mut self.heap;
        heap.clear();
        heap.push(Reverse((0, from)));
        while let Some(Reverse((d, site))) = heap.pop() {
            if site == to {
                break;
            }
            let site_i = index(site);
            if d > dist(nodes, site_i) {
                continue;
            }
            for step in steps_from(layout, site) {
                let next = step.to();
                if next != to && blocked(next) {
                    continue;
                }
                let (next_i, nd) = (index(next), d + step.relative_cost());
                if nd < dist(nodes, next_i) {
                    let dist = u32::try_from(nd).expect("route length fits in u32");
                    nodes[next_i] = RouteNode { stamp: generation, dist, prev: site_i as u32 };
                    heap.push(Reverse((nd, next)));
                }
            }
        }
        if nodes[to_i].stamp != generation {
            return None;
        }
        let mut cur = to_i;
        while cur != from_i {
            let (prev, site) = (nodes[cur].prev as usize, layout.site_at(cur));
            let step =
                steps_from(layout, layout.site_at(prev)).into_iter().find(|s| s.to() == site);
            self.path.push(step.expect("a recorded predecessor is one step away"));
            cur = prev;
        }
        self.path.reverse();
        Some(&self.path)
    }
}

/// Shortest path over an abstract `rows × cols` tile grid by multi-source
/// breadth-first search.
///
/// The path starts at one of `sources`, ends at the first tile satisfying
/// `is_goal`, steps only between orthogonally adjacent tiles, and visits
/// only tiles for which `passable` returns `true` (sources that are not
/// passable are ignored; a goal tile must itself be passable to be
/// reached). Returns the visited tiles in order, sources included — or
/// `None` when no goal is reachable.
///
/// The search is deterministic: sources seed the queue in the order given
/// and neighbours expand up, left, right, down, so equal-length paths
/// resolve the same way on every run (golden tests rely on this). Its
/// state is one flat, zero-initialised predecessor table indexed by
/// `r * cols + c`.
///
/// ```
/// use tiscc_grid::path::shortest_tile_path;
///
/// // A 2 × 4 grid with tile (0, 1) blocked: the path detours via row 1.
/// let path = shortest_tile_path(
///     2,
///     4,
///     &[(0, 0)],
///     &|t| t == (0, 3),
///     &|t| t != (0, 1),
/// )
/// .unwrap();
/// assert_eq!(path.first(), Some(&(0, 0)));
/// assert_eq!(path.last(), Some(&(0, 3)));
/// assert!(!path.contains(&(0, 1)));
/// ```
pub fn shortest_tile_path(
    rows: usize,
    cols: usize,
    sources: &[(usize, usize)],
    is_goal: &dyn Fn((usize, usize)) -> bool,
    passable: &dyn Fn((usize, usize)) -> bool,
) -> Option<Vec<(usize, usize)>> {
    let in_bounds = |(r, c): (usize, usize)| r < rows && c < cols;
    let index = |(r, c): (usize, usize)| r * cols + c;
    // `prev[i]` is one plus the index tile `i` was reached from (itself
    // for a source), or 0 while unseen: a zeroed table costs nothing for
    // the tiles a short search never touches.
    let mut prev = vec![0usize; rows * cols];
    let mut queue: VecDeque<(usize, usize)> = VecDeque::new();
    for &s in sources {
        if in_bounds(s) && prev[index(s)] == 0 && passable(s) {
            prev[index(s)] = index(s) + 1;
            queue.push_back(s);
        }
    }
    while let Some(tile) = queue.pop_front() {
        if is_goal(tile) {
            let mut path = vec![tile];
            let mut cur = index(tile);
            while prev[cur] != cur + 1 {
                cur = prev[cur] - 1;
                path.push((cur / cols, cur % cols));
            }
            path.reverse();
            return Some(path);
        }
        let (r, c) = tile;
        let neighbors = [(r.wrapping_sub(1), c), (r, c.wrapping_sub(1)), (r, c + 1), (r + 1, c)];
        for next in neighbors {
            if in_bounds(next) && prev[index(next)] == 0 && passable(next) {
                prev[index(next)] = index(tile) + 1;
                queue.push_back(next);
            }
        }
    }
    None
}

/// `u64` words per row of a row-major tile bitmask over `cols` columns.
///
/// In such a mask tile `(r, c)` is bit `c % 64` of word
/// `r * row_words(cols) + c / 64`; the padding bits past `cols` in each
/// row's last word are always 0.
pub fn row_words(cols: usize) -> usize {
    cols.div_ceil(64)
}

/// The word index and bit mask of tile `(r, c)` in a row-major tile
/// bitmask over `cols` columns (layout in [`row_words`]).
pub fn tile_bit(cols: usize, (r, c): (usize, usize)) -> (usize, u64) {
    (r * row_words(cols) + c / 64, 1 << (c % 64))
}

/// Reusable working memory for [`tiles_connected`]: the reached-tile
/// bitmask and the rows still to fill. Keeping one across probes makes a
/// probe allocation-free.
#[derive(Clone, Debug, Default)]
pub struct FloodScratch {
    reach: Vec<u64>,
    pending: Vec<bool>,
}

/// Exact bit-parallel reachability over a tile bitmask: `true` iff
/// [`shortest_tile_path`] with the same sources, goals and passability
/// would find a path, decided without a queue or per-tile state.
///
/// `passable` is a row-major tile bitmask (layout in [`row_words`]) whose
/// padding bits are 0. The reached set grows from the passable `sources`
/// by flood fill until no row changes or a `goals` tile is reached:
///
/// * within a row, seeds spread rightward through their run of passable
///   tiles with one multi-word carry add, `x | (P & !(P + x))` (the carry
///   clears a run from the seed up to its first blocked tile), and
///   leftward by the same add on bit-reversed words taken in reverse order;
/// * between rows, a tile joins when it is passable and a vertical
///   neighbour is reached. Only rows next to a row that grew are filled
///   again, in alternating downward and upward sweeps.
///
/// ```
/// use tiscc_grid::path::{tiles_connected, FloodScratch};
///
/// // 2 × 3 grid: row 0 passable everywhere but (0, 1); row 1 all open.
/// let mut scratch = FloodScratch::default();
/// assert!(tiles_connected(2, 3, &[0b101, 0b111], &[(0, 0)], &[(0, 2)], &mut scratch));
/// // Closing (1, 1) cuts the only detour.
/// assert!(!tiles_connected(2, 3, &[0b101, 0b101], &[(0, 0)], &[(0, 2)], &mut scratch));
/// ```
pub fn tiles_connected(
    rows: usize,
    cols: usize,
    passable: &[u64],
    sources: &[(usize, usize)],
    goals: &[(usize, usize)],
    scratch: &mut FloodScratch,
) -> bool {
    let words = row_words(cols);
    assert_eq!(passable.len(), rows * words, "passable mask must cover the {rows}x{cols} grid");
    let bit = |t: (usize, usize)| (t.0 < rows && t.1 < cols).then(|| tile_bit(cols, t));
    let reached = |reach: &[u64], t| bit(t).is_some_and(|(i, b)| reach[i] & b != 0);
    let FloodScratch { reach, pending } = scratch;
    reach.clear();
    reach.resize(rows * words, 0);
    pending.clear();
    pending.resize(rows, false);
    // A row is pending until filled; a filled row stays closed until a
    // vertical neighbour grows, so the seed rows and their neighbours are
    // the only rows that start open.
    let mark = |pending: &mut [bool], r: usize| {
        pending[r.saturating_sub(1)..(r + 2).min(rows)].fill(true);
    };
    for &s in sources {
        if let Some((i, b)) = bit(s).filter(|&(i, b)| passable[i] & b != 0) {
            reach[i] |= b;
            mark(pending, s.0);
        }
    }
    if goals.iter().any(|&g| reached(reach, g)) {
        return true;
    }
    loop {
        let mut filled = false;
        for r in (0..rows).chain((0..rows).rev()) {
            if !std::mem::take(&mut pending[r]) {
                continue;
            }
            filled = true;
            if fill_row(r, rows, words, passable, reach) {
                mark(pending, r);
                pending[r] = false;
                if goals.iter().any(|&g| g.0 == r && reached(reach, g)) {
                    return true;
                }
            }
        }
        if !filled {
            return false;
        }
    }
}

/// Grows row `r` of `reach` by one vertical step from its neighbour rows
/// and then a full horizontal flood in both directions; returns whether
/// the row gained a tile. Every reached bit stays inside `passable`.
fn fill_row(r: usize, rows: usize, words: usize, passable: &[u64], reach: &mut [u64]) -> bool {
    let row = r * words;
    let mut changed = false;
    let mut carry = false;
    for k in 0..words {
        let (i, p) = (row + k, passable[row + k]);
        let mut x = reach[i];
        if r > 0 {
            x |= p & reach[i - words];
        }
        if r + 1 < rows {
            x |= p & reach[i + words];
        }
        if x == 0 && !carry {
            continue;
        }
        let (sum, c1) = p.overflowing_add(x);
        let (sum, c2) = sum.overflowing_add(u64::from(carry));
        carry = c1 | c2;
        x |= p & !sum;
        changed |= x != reach[i];
        reach[i] = x;
    }
    carry = false;
    for k in (0..words).rev() {
        let i = row + k;
        if reach[i] == 0 && !carry {
            continue;
        }
        let (p, x) = (passable[i].reverse_bits(), reach[i].reverse_bits());
        let (sum, c1) = p.overflowing_add(x);
        let (sum, c2) = sum.overflowing_add(u64::from(carry));
        carry = c1 | c2;
        let x = (x | p & !sum).reverse_bits();
        changed |= x != reach[i];
        reach[i] = x;
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steps_from_data_home() {
        let l = Layout::new(2, 2);
        // Data home (0,1): shuttle right to O (0,2), junction hop through
        // (0,0) to (1,0) [measure home of same unit]... and nothing upward.
        let steps = steps_from(&l, QSite::new(0, 1));
        assert!(steps.contains(&MoveStep::Shuttle { from: QSite::new(0, 1), to: QSite::new(0, 2) }));
        assert!(steps.iter().any(|s| matches!(
            s,
            MoveStep::JunctionHop { junction, to, .. }
                if *junction == QSite::new(0, 0) && *to == QSite::new(1, 0)
        )));
    }

    #[test]
    fn route_within_one_arm_is_pure_shuttles() {
        let l = Layout::new(1, 1);
        let r = route(&l, QSite::new(0, 1), QSite::new(0, 3)).unwrap();
        assert_eq!(r.len(), 2);
        assert!(r.iter().all(|s| matches!(s, MoveStep::Shuttle { .. })));
        assert_eq!(r[0].from(), QSite::new(0, 1));
        assert_eq!(r[1].to(), QSite::new(0, 3));
    }

    #[test]
    fn route_between_units_crosses_a_junction() {
        let l = Layout::new(2, 2);
        // From unit (0,0) data home to unit (0,1) data home: must cross the
        // junction at (0,4).
        let r = route(&l, l.data_home(0, 0), l.data_home(0, 1)).unwrap();
        assert!(r.iter().any(
            |s| matches!(s, MoveStep::JunctionHop { junction, .. } if *junction == QSite::new(0, 4))
        ));
        // Path continuity.
        for w in r.windows(2) {
            assert_eq!(w[0].to(), w[1].from());
        }
        assert_eq!(r.first().unwrap().from(), l.data_home(0, 0));
        assert_eq!(r.last().unwrap().to(), l.data_home(0, 1));
    }

    #[test]
    fn routes_avoid_blocked_zones() {
        let l = Layout::new(1, 1);
        // Going from (0,1) to (0,3) with (0,2) blocked is impossible on a
        // single unit (there is no alternative path on one arm).
        let mut blocked = HashSet::new();
        blocked.insert(QSite::new(0, 2));
        assert!(route_avoiding(&l, QSite::new(0, 1), QSite::new(0, 3), &blocked).is_none());
        // On a 2x2 grid an alternative exists around the block.
        let l = Layout::new(2, 2);
        let r = route_avoiding(&l, QSite::new(0, 1), QSite::new(0, 3), &blocked).unwrap();
        assert!(r.iter().all(|s| s.to() != QSite::new(0, 2)));
    }

    #[test]
    fn routing_to_or_from_junction_fails() {
        let l = Layout::new(1, 1);
        assert!(route(&l, QSite::new(0, 0), QSite::new(0, 1)).is_none());
        assert!(route(&l, QSite::new(0, 1), QSite::new(0, 0)).is_none());
    }

    #[test]
    fn trivial_route_is_empty() {
        let l = Layout::new(1, 1);
        assert_eq!(route(&l, QSite::new(0, 1), QSite::new(0, 1)).unwrap().len(), 0);
    }

    #[test]
    fn tile_path_finds_shortest_and_respects_blocks() {
        // Unobstructed: straight line along row 0.
        let p = shortest_tile_path(3, 5, &[(0, 0)], &|t| t == (0, 4), &|_| true).unwrap();
        assert_eq!(p.len(), 5);
        // A full column wall forces a detour or fails.
        let wall = |t: (usize, usize)| t.1 != 2;
        assert!(shortest_tile_path(3, 5, &[(0, 0)], &|t| t == (0, 4), &wall).is_none());
        let gap = |t: (usize, usize)| t != (0, 2) && t != (1, 2);
        let p = shortest_tile_path(3, 5, &[(0, 0)], &|t| t == (0, 4), &gap).unwrap();
        assert!(p.contains(&(2, 2)), "must pass through the gap: {p:?}");
        for w in p.windows(2) {
            let dr = w[0].0.abs_diff(w[1].0);
            let dc = w[0].1.abs_diff(w[1].1);
            assert_eq!(dr + dc, 1, "steps are orthogonal: {w:?}");
        }
    }

    #[test]
    fn tile_path_handles_multiple_sources_and_impassable_sources() {
        // The nearer source wins.
        let p = shortest_tile_path(1, 6, &[(0, 0), (0, 4)], &|t| t == (0, 5), &|_| true).unwrap();
        assert_eq!(p, vec![(0, 4), (0, 5)]);
        // Impassable sources are ignored entirely.
        assert!(shortest_tile_path(1, 6, &[(0, 0)], &|t| t == (0, 5), &|t| t != (0, 0)).is_none());
        // A source that is itself a goal yields a single-tile path.
        let p = shortest_tile_path(2, 2, &[(1, 1)], &|t| t == (1, 1), &|_| true).unwrap();
        assert_eq!(p, vec![(1, 1)]);
    }
}
