//! Congestion-aware corridor routing for lattice-surgery merges.
//!
//! On the 2D layouts ([`LayoutStrategy::RowMajor`] and
//! [`LayoutStrategy::Checkerboard`]) a joint `Measure XX`/`Measure ZZ`
//! between two placed patches is mediated by a *corridor*: a connected
//! path of ancilla tiles whose first tile touches one operand patch and
//! whose last tile touches the other. The merge ancilla patch is grown
//! along the corridor, joint syndrome extraction runs for one logical
//! time step, and the corridor is released.
//!
//! Corridors are found with the deterministic multi-source BFS of
//! [`tiscc_grid::shortest_tile_path`] over the tile grid: passable tiles
//! are those not hosting a logical patch and not *reserved* by another
//! merge in the same logical time step. The scheduler keeps those
//! per-timestep reservations in a [`Reservations`] table — two merges
//! whose corridors are disjoint execute in the same step, while a merge
//! that cannot find a free corridor at its ready step *stalls* to a later
//! one (counted as [`crate::schedule::Schedule::routing_stalls`]).
//!
//! Most probes on a congested floorplan fail, so [`corridor_avoiding`]
//! decides feasibility first with the word-parallel flood fill of
//! [`tiscc_grid::tiles_connected`] on the step's passable-tile bitmask;
//! the BFS runs once per routed merge, at its first feasible step.
//!
//! A merge whose operands cannot be connected even on an otherwise empty
//! grid (every candidate corridor blocked by placed patches or the grid
//! boundary) is a typed [`RoutingError`] — the program is unroutable
//! under that floorplan, and a different [`crate::LayoutSpec`] is needed.
//!
//! [`LayoutStrategy::RowMajor`]: crate::layout2d::LayoutStrategy::RowMajor
//! [`LayoutStrategy::Checkerboard`]: crate::layout2d::LayoutStrategy::Checkerboard

use std::cell::RefCell;
use std::fmt;

use tiscc_core::instruction::Instruction;
use tiscc_grid::{shortest_tile_path, tile_bit, tiles_connected, FloodScratch};

use crate::ir::{LogicalProgram, QubitRef};
use crate::layout2d::{Placement, Tile};

/// A merge between two patches that no corridor can serve.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoutingError {
    /// The joint measurement that could not be routed, when known — the
    /// scheduler fills it in; static probes ([`find_corridor`]) have no
    /// instruction context and leave it `None`.
    pub instruction: Option<Instruction>,
    /// Name of the first operand qubit.
    pub a: String,
    /// Tile of the first operand qubit.
    pub a_tile: Tile,
    /// Name of the second operand qubit.
    pub b: String,
    /// Tile of the second operand qubit.
    pub b_tile: Tile,
    /// 1-based `.tql` source line of the merge, when known.
    pub line: Option<usize>,
}

impl fmt::Display for RoutingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "no ancilla corridor connects '{}' at ({}, {}) with '{}' at ({}, {}) for {}{}; \
             the floorplan is unroutable — use a larger --grid or a different --layout",
            self.a,
            self.a_tile.0,
            self.a_tile.1,
            self.b,
            self.b_tile.0,
            self.b_tile.1,
            match self.instruction {
                Some(instruction) => instruction.id(),
                None => "a joint measurement",
            },
            match self.line {
                Some(n) => format!(" (line {n})"),
                None => String::new(),
            }
        )
    }
}

impl std::error::Error for RoutingError {}

/// Per-timestep corridor reservations: which tiles are already claimed by
/// merges scheduled into each logical time step.
///
/// Each step stores only the touched words of a row-major tile bitmask
/// over the `rows × cols` grid, as sorted `(word index, bits)` pairs, so
/// memory grows with the reserved tiles rather than with depth × grid
/// size. The table grows on demand; steps never probed are implicitly
/// free. It also owns the scratch masks [`corridor_avoiding`] reuses
/// across probes.
///
/// ```
/// use tiscc_program::route::Reservations;
///
/// let mut res = Reservations::new(3, 2);
/// res.reserve(2, [(1, 0), (1, 1)]);
/// assert!(!res.is_free(2, (1, 1)));
/// assert!(res.is_free(1, (1, 1)), "reservations are per-step");
/// assert!(res.is_free(3, (1, 1)));
/// assert_eq!(res.reserved_at(2), 2);
/// ```
#[derive(Clone, Debug)]
pub struct Reservations {
    rows: usize,
    cols: usize,
    steps: Vec<Vec<(usize, u64)>>,
    scratch: RefCell<Scratch>,
}

/// Reused per-probe masks: the step's passable tiles and the flood fill's
/// reached set.
#[derive(Clone, Debug, Default)]
struct Scratch {
    passable: Vec<u64>,
    flood: FloodScratch,
}

impl Reservations {
    /// An empty reservation table over a `rows × cols` tile grid.
    pub fn new(rows: usize, cols: usize) -> Self {
        Reservations { rows, cols, steps: Vec::new(), scratch: RefCell::default() }
    }

    /// The bitmask word index and bit of an in-bounds `tile`.
    fn bit(&self, tile: Tile) -> Option<(usize, u64)> {
        (tile.0 < self.rows && tile.1 < self.cols).then(|| tile_bit(self.cols, tile))
    }

    /// True if `tile` is unreserved at `step`.
    pub fn is_free(&self, step: usize, tile: Tile) -> bool {
        let (Some(words), Some((i, b))) = (self.steps.get(step), self.bit(tile)) else {
            return true;
        };
        words.binary_search_by_key(&i, |&(w, _)| w).map_or(true, |k| words[k].1 & b == 0)
    }

    /// Reserves `tiles` at `step`.
    ///
    /// # Panics
    ///
    /// If a tile lies off the grid.
    pub fn reserve(&mut self, step: usize, tiles: impl IntoIterator<Item = Tile>) {
        if self.steps.len() <= step {
            self.steps.resize_with(step + 1, Vec::new);
        }
        for tile in tiles {
            let (i, b) = self.bit(tile).unwrap_or_else(|| {
                panic!("tile {tile:?} lies off the {}x{} grid", self.rows, self.cols)
            });
            let words = &mut self.steps[step];
            match words.binary_search_by_key(&i, |&(w, _)| w) {
                Ok(k) => words[k].1 |= b,
                Err(k) => words.insert(k, (i, b)),
            }
        }
    }

    /// Number of tiles reserved at `step`.
    pub fn reserved_at(&self, step: usize) -> usize {
        self.steps
            .get(step)
            .map_or(0, |words| words.iter().map(|&(_, bits)| bits.count_ones() as usize).sum())
    }
}

/// The free (in-bounds, unoccupied) orthogonal neighbour tiles of `tile`,
/// in the same up-left-right-down order [`shortest_tile_path`] expands in
/// (wrapped-subtraction values fall outside the grid and are dropped by
/// the bounds check), written to the front of `out`.
fn free_neighbors<'a>(placement: &Placement, tile: Tile, out: &'a mut [Tile; 4]) -> &'a [Tile] {
    let (r, c) = tile;
    let mut n = 0;
    for t in [(r.wrapping_sub(1), c), (r, c.wrapping_sub(1)), (r, c + 1), (r + 1, c)] {
        if placement.in_bounds(t) && !placement.is_occupied(t) {
            out[n] = t;
            n += 1;
        }
    }
    &out[..n]
}

/// Finds the shortest ancilla corridor connecting the patches of `a` and
/// `b` on `placement` at logical time step `step`, avoiding the tiles
/// `reserved` holds for that step (on top of the always-avoided placed
/// patches). Returns the corridor tiles in order from the tile touching
/// `a` to the tile touching `b`, or `None` when no corridor is currently
/// free.
///
/// The step's passable tiles (free and unreserved) are built as a
/// bitmask in scratch owned by `reserved`, and the exact bit-parallel
/// [`tiles_connected`] check rejects an infeasible step in a few word
/// operations; [`shortest_tile_path`] runs only once a corridor is known
/// to exist.
pub fn corridor_avoiding(
    placement: &Placement,
    a: QubitRef,
    b: QubitRef,
    step: usize,
    reserved: &Reservations,
) -> Option<Vec<Tile>> {
    let (rows, cols) = (placement.tile_rows(), placement.tile_cols());
    assert_eq!((reserved.rows, reserved.cols), (rows, cols), "reservations sized for another grid");
    let (mut source_buf, mut goal_buf) = ([(0, 0); 4], [(0, 0); 4]);
    let sources = free_neighbors(placement, placement.data_tile(a), &mut source_buf);
    let goals = free_neighbors(placement, placement.data_tile(b), &mut goal_buf);
    // A corridor needs an unreserved tile at both ends.
    let open = |&t: &Tile| reserved.is_free(step, t);
    if !sources.iter().any(open) || !goals.iter().any(open) {
        return None;
    }
    let mut scratch = reserved.scratch.borrow_mut();
    let Scratch { passable, flood } = &mut *scratch;
    passable.clear();
    passable.extend_from_slice(placement.free_mask());
    for &(i, bits) in reserved.steps.get(step).into_iter().flatten() {
        passable[i] &= !bits;
    }
    if !tiles_connected(rows, cols, passable, sources, goals, flood) {
        return None;
    }
    shortest_tile_path(rows, cols, sources, &|t| goals.contains(&t), &|t| {
        let (i, b) = tile_bit(cols, t);
        passable[i] & b != 0
    })
}

/// Finds the shortest ancilla corridor connecting the patches of `a` and
/// `b` on an otherwise idle grid (no reservations), or a typed
/// [`RoutingError`] when the two patches cannot be connected at all under
/// this floorplan. This is the static routability probe; errors name the
/// qubits but carry no instruction or source line (only the scheduler
/// knows which merge it was routing).
///
/// ```
/// use tiscc_program::route::find_corridor;
/// use tiscc_program::{examples, LayoutSpec, Placement};
///
/// let program = examples::bell_pair();
/// let place =
///     Placement::allocate_with(&program, &LayoutSpec::checkerboard().with_grid(2, 4)).unwrap();
/// let (a, b) = (program.qubit("a").unwrap(), program.qubit("b").unwrap());
/// // a sits at (0, 0), b at (0, 2): the single ancilla between them.
/// assert_eq!(find_corridor(&place, &program, a, b).unwrap(), vec![(0, 1)]);
/// ```
pub fn find_corridor(
    placement: &Placement,
    program: &LogicalProgram,
    a: QubitRef,
    b: QubitRef,
) -> Result<Vec<Tile>, RoutingError> {
    let idle = Reservations::new(placement.tile_rows(), placement.tile_cols());
    corridor_avoiding(placement, a, b, 0, &idle).ok_or_else(|| RoutingError {
        instruction: None,
        a: program.qubit_name(a).to_string(),
        a_tile: placement.data_tile(a),
        b: program.qubit_name(b).to_string(),
        b_tile: placement.data_tile(b),
        line: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::LogicalProgram;
    use crate::layout2d::LayoutSpec;

    fn chain(n: usize) -> LogicalProgram {
        let mut p = LogicalProgram::new("chain");
        for i in 0..n {
            p.add_qubit(format!("q{i}")).unwrap();
        }
        p
    }

    #[test]
    fn adjacent_checkerboard_patches_use_single_tile_corridors() {
        let p = chain(4);
        let place =
            Placement::allocate_with(&p, &LayoutSpec::checkerboard().with_grid(8, 8)).unwrap();
        // q0 at (0,0), q1 at (0,2): the tile between them.
        assert_eq!(find_corridor(&place, &p, QubitRef(0), QubitRef(1)).unwrap(), vec![(0, 1)]);
        // q0 and q3 at (0,6): a longer corridor whose endpoints touch both.
        let c = find_corridor(&place, &p, QubitRef(0), QubitRef(3)).unwrap();
        assert!(c.len() >= 2);
        for t in &c {
            assert!(!place.is_occupied(*t));
        }
    }

    #[test]
    fn reservations_divert_or_block_corridors() {
        let p = chain(4);
        let place = Placement::allocate_with(&p, &LayoutSpec::row_major().with_grid(2, 4)).unwrap();
        // Row layout 2×4: q0..q3 pack row 0; the lane row is the fabric.
        let free = find_corridor(&place, &p, QubitRef(0), QubitRef(2)).unwrap();
        assert_eq!(free, vec![(1, 0), (1, 1), (1, 2)]);
        // Reserving q1's only access tile makes the merge unroutable *now*
        // (a stall), though it stays statically routable.
        let mut res = Reservations::new(2, 4);
        res.reserve(0, [(1, 1)]);
        assert!(corridor_avoiding(&place, QubitRef(0), QubitRef(2), 0, &res).is_none());
        assert_eq!(corridor_avoiding(&place, QubitRef(0), QubitRef(2), 1, &res), Some(free));
        assert!(find_corridor(&place, &p, QubitRef(0), QubitRef(2)).is_ok());
    }

    #[test]
    fn unroutable_floorplans_raise_typed_errors() {
        let p = chain(2);
        // A 1×2 row grid has no ancilla row at all.
        let place = Placement::allocate_with(&p, &LayoutSpec::row_major().with_grid(1, 2)).unwrap();
        let err = find_corridor(&place, &p, QubitRef(0), QubitRef(1)).unwrap_err();
        assert_eq!(err.a_tile, (0, 0));
        assert_eq!(err.b_tile, (0, 1));
        assert!(err.to_string().contains("unroutable"));
    }

    #[test]
    fn corridor_endpoints_touch_the_operand_patches() {
        let p = chain(6);
        for spec in
            [LayoutSpec::row_major().with_grid(4, 6), LayoutSpec::checkerboard().with_grid(6, 6)]
        {
            let place = Placement::allocate_with(&p, &spec).unwrap();
            for a in 0..6 {
                for b in (a + 1)..6 {
                    let c = find_corridor(&place, &p, QubitRef(a), QubitRef(b)).unwrap();
                    let touches = |t: Tile, q: Tile| t.0.abs_diff(q.0) + t.1.abs_diff(q.1) == 1;
                    assert!(touches(c[0], place.data_tile(QubitRef(a))), "{spec:?} {a}-{b}");
                    assert!(
                        touches(*c.last().unwrap(), place.data_tile(QubitRef(b))),
                        "{spec:?} {a}-{b}"
                    );
                }
            }
        }
    }
}
