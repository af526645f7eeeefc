//! Ion occupancy tracking on the trapped-ion grid.
//!
//! The [`GridManager`] mirrors the class of the same name in the paper
//! (Appendix B.1): it owns the [`Layout`], hands out qubit identifiers when
//! ions are loaded, and enforces the hardware validity rules that no two
//! ions occupy the same site and that ions never rest on a junction.

use crate::layout::Layout;
use crate::site::{QSite, SiteKind};

/// Identifier of a physical ion/qubit managed by a [`GridManager`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QubitId(pub u32);

/// Errors raised by occupancy bookkeeping.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GridError {
    /// The addressed site does not exist on the layout.
    NoSuchSite(QSite),
    /// An ion may not be placed on or rest at a junction.
    RestingOnJunction(QSite),
    /// The target site is already occupied by another ion.
    Occupied(QSite, QubitId),
    /// The named qubit is not (or no longer) present on the grid.
    UnknownQubit(QubitId),
    /// A movement step was requested between non-adjacent zones.
    NotAdjacent(QSite, QSite),
}

impl std::fmt::Display for GridError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GridError::NoSuchSite(s) => write!(f, "site {s} does not exist on the layout"),
            GridError::RestingOnJunction(s) => write!(f, "ions may not rest on junction {s}"),
            GridError::Occupied(s, q) => write!(f, "site {s} is already occupied by qubit {q:?}"),
            GridError::UnknownQubit(q) => write!(f, "qubit {q:?} is not on the grid"),
            GridError::NotAdjacent(a, b) => write!(f, "sites {a} and {b} are not adjacent"),
        }
    }
}

impl std::error::Error for GridError {}

/// Owns the grid layout and the current position of every ion.
///
/// Both directions of the ion ↔ site map are dense tables: occupancy is
/// indexed by [`Layout::site_index`] and positions by [`QubitId`], with
/// sentinels for empty sites and removed ions.
#[derive(Clone, Debug)]
pub struct GridManager {
    layout: Layout,
    // Per site index: the ion resting there, or `EMPTY`.
    occupancy: Vec<u32>,
    // Per qubit id: its site, or `REMOVED`. Ids are handed out in order, so
    // this grows by one per loaded ion.
    positions: Vec<QSite>,
    qubit_count: usize,
}

/// Occupancy sentinel: no ion at this site.
const EMPTY: u32 = u32::MAX;
/// Position sentinel: the ion was removed (no layout has this site).
const REMOVED: QSite = QSite { row: u32::MAX, col: u32::MAX };

impl GridManager {
    /// Creates a manager for a grid of `unit_rows × unit_cols` repeating
    /// units with no ions loaded.
    pub fn new(unit_rows: u32, unit_cols: u32) -> Self {
        let layout = Layout::new(unit_rows, unit_cols);
        GridManager {
            occupancy: vec![EMPTY; layout.site_count()],
            layout,
            positions: Vec::new(),
            qubit_count: 0,
        }
    }

    /// The underlying layout.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Number of ions currently on the grid.
    pub fn qubit_count(&self) -> usize {
        self.qubit_count
    }

    /// Loads a new ion at `site` and returns its identifier.
    pub fn place_qubit(&mut self, site: QSite) -> Result<QubitId, GridError> {
        let index = self.restable_index(site)?;
        if let Some(q) = self.occupant(index) {
            return Err(GridError::Occupied(site, q));
        }
        let id = QubitId(self.positions.len() as u32);
        self.occupancy[index] = id.0;
        self.positions.push(site);
        self.qubit_count += 1;
        Ok(id)
    }

    /// Removes an ion from the grid (e.g. after a destructive measurement
    /// when the zone is recycled).
    pub fn remove_qubit(&mut self, id: QubitId) -> Result<QSite, GridError> {
        let site = self.position_of(id).ok_or(GridError::UnknownQubit(id))?;
        self.positions[id.0 as usize] = REMOVED;
        self.set_occupant(site, EMPTY);
        self.qubit_count -= 1;
        Ok(site)
    }

    /// The ion occupying `site`, if any.
    pub fn qubit_at(&self, site: QSite) -> Option<QubitId> {
        self.occupant(self.layout.site_index(site)?)
    }

    /// The current site of ion `id`.
    pub fn position_of(&self, id: QubitId) -> Option<QSite> {
        self.positions.get(id.0 as usize).copied().filter(|&s| s != REMOVED)
    }

    /// True if `site` exists, is a trapping zone and holds no ion.
    pub fn is_free(&self, site: QSite) -> bool {
        self.layout.is_trapping_zone(site) && self.qubit_at(site).is_none()
    }

    /// Relocates ion `id` to the *adjacent* trapping zone `to` (a single
    /// shuttle step). Junction hops are expressed as two shuttle steps by the
    /// routing layer, and the transient junction crossing is validated by the
    /// scheduler, so the destination of any step recorded here must be a
    /// trapping zone.
    pub fn step_qubit(&mut self, id: QubitId, to: QSite) -> Result<(), GridError> {
        let from = self.position_of(id).ok_or(GridError::UnknownQubit(id))?;
        let index = self.vacant_for(id, to)?;
        // A legal single step ends on an adjacent zone, or on a zone that is
        // two steps away through exactly one junction.
        if !self.is_step_reachable(from, to) {
            return Err(GridError::NotAdjacent(from, to));
        }
        self.set_position(id, from, to, index);
        Ok(())
    }

    /// Teleports ion `id` to any free trapping zone without adjacency
    /// checks. Used when re-binding a logical patch after operations whose
    /// movement legality was already validated step-by-step (and in tests).
    pub fn relocate_qubit(&mut self, id: QubitId, to: QSite) -> Result<(), GridError> {
        let from = self.position_of(id).ok_or(GridError::UnknownQubit(id))?;
        let index = self.vacant_for(id, to)?;
        self.set_position(id, from, to, index);
        Ok(())
    }

    /// Snapshot of `(qubit, site)` pairs, sorted by qubit id. Used by the
    /// simulator to bind tableau qubit indices to ions.
    pub fn snapshot(&self) -> Vec<(QubitId, QSite)> {
        let placed = self.positions.iter().enumerate().filter(|&(_, &s)| s != REMOVED);
        placed.map(|(q, &s)| (QubitId(q as u32), s)).collect()
    }

    fn occupant(&self, index: usize) -> Option<QubitId> {
        let q = self.occupancy[index];
        (q != EMPTY).then_some(QubitId(q))
    }

    fn set_occupant(&mut self, site: QSite, q: u32) {
        let index = self.layout.site_index(site).expect("ion positions lie on the layout");
        self.occupancy[index] = q;
    }

    fn set_position(&mut self, id: QubitId, from: QSite, to: QSite, to_index: usize) {
        self.set_occupant(from, EMPTY);
        self.occupancy[to_index] = id.0;
        self.positions[id.0 as usize] = to;
    }

    /// The index of `site` if ion `id` may rest there: a trapping zone that
    /// is empty or already holds `id`.
    fn vacant_for(&self, id: QubitId, site: QSite) -> Result<usize, GridError> {
        let index = self.restable_index(site)?;
        match self.occupant(index) {
            Some(other) if other != id => Err(GridError::Occupied(site, other)),
            _ => Ok(index),
        }
    }

    fn restable_index(&self, site: QSite) -> Result<usize, GridError> {
        match self.layout.site_kind(site) {
            None => Err(GridError::NoSuchSite(site)),
            Some(SiteKind::Junction) => Err(GridError::RestingOnJunction(site)),
            Some(_) => Ok(self.layout.site_index(site).expect("existing site")),
        }
    }

    fn is_step_reachable(&self, from: QSite, to: QSite) -> bool {
        if from == to {
            return true;
        }
        let neighbors = self.layout.neighbors(from);
        if neighbors.contains(&to) {
            return true;
        }
        // Through exactly one junction: both zones adjacent to the same
        // junction.
        neighbors.iter().any(|&n| {
            self.layout.site_kind(n) == Some(SiteKind::Junction)
                && self.layout.neighbors(n).contains(&to)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn place_and_remove() {
        let mut g = GridManager::new(2, 2);
        let home = g.layout().data_home(0, 0);
        let q = g.place_qubit(home).unwrap();
        assert_eq!(g.qubit_at(home), Some(q));
        assert_eq!(g.position_of(q), Some(home));
        assert_eq!(g.qubit_count(), 1);
        // Double occupancy is rejected.
        assert!(matches!(g.place_qubit(home), Err(GridError::Occupied(_, _))));
        let freed = g.remove_qubit(q).unwrap();
        assert_eq!(freed, home);
        assert!(g.is_free(home));
    }

    #[test]
    fn junctions_are_not_restable() {
        let mut g = GridManager::new(1, 1);
        let err = g.place_qubit(QSite::new(0, 0)).unwrap_err();
        assert!(matches!(err, GridError::RestingOnJunction(_)));
        let err = g.place_qubit(QSite::new(1, 1)).unwrap_err();
        assert!(matches!(err, GridError::NoSuchSite(_)));
    }

    #[test]
    fn step_adjacent_and_through_junction() {
        let mut g = GridManager::new(2, 2);
        let q = g.place_qubit(QSite::new(0, 1)).unwrap();
        // Adjacent shuttle along the horizontal arm.
        g.step_qubit(q, QSite::new(0, 2)).unwrap();
        g.step_qubit(q, QSite::new(0, 3)).unwrap();
        // Through the junction at (0,4) onto the next unit's arm.
        g.step_qubit(q, QSite::new(0, 5)).unwrap();
        assert_eq!(g.position_of(q), Some(QSite::new(0, 5)));
        // Jumping two zones in one step is rejected.
        assert!(matches!(g.step_qubit(q, QSite::new(0, 7)), Err(GridError::NotAdjacent(_, _))));
    }

    #[test]
    fn step_into_occupied_zone_is_rejected() {
        let mut g = GridManager::new(1, 2);
        let a = g.place_qubit(QSite::new(0, 1)).unwrap();
        let _b = g.place_qubit(QSite::new(0, 2)).unwrap();
        assert!(matches!(g.step_qubit(a, QSite::new(0, 2)), Err(GridError::Occupied(_, _))));
    }

    #[test]
    fn snapshot_is_sorted_by_qubit() {
        let mut g = GridManager::new(2, 2);
        let a = g.place_qubit(QSite::new(0, 1)).unwrap();
        let b = g.place_qubit(QSite::new(1, 0)).unwrap();
        let snap = g.snapshot();
        assert_eq!(snap, vec![(a, QSite::new(0, 1)), (b, QSite::new(1, 0))]);
    }
}
