//! Uniform spatial hash over node positions for neighbor candidate lookup.
//!
//! Every simulated transmission must find the nodes whose received power
//! clears the carrier-sense threshold. A linear scan over all positions is
//! O(n) per transmission and turns the medium quadratic in node count; the
//! [`NeighborGrid`] cuts each lookup to the 3×3 cell neighborhood around
//! the transmitter.
//!
//! Determinism is load-bearing here: the simulation driver schedules
//! arrival events (and draws corruption RNG) in the order the medium emits
//! receivers, so the grid must yield *exactly* the receivers the linear
//! scan would, in the same ascending-id order. Two properties guarantee
//! that:
//!
//! 1. **Coverage** — the cell size is at least the carrier-sense range, so
//!    any node within range of a transmitter sits in one of the 9 cells
//!    surrounding the transmitter's cell (|Δx| and |Δy| are each bounded by
//!    the range ≤ cell size). The 3×3 sweep is therefore a superset of the
//!    in-range set, and the caller re-applies the exact same power
//!    threshold it would in the linear scan.
//! 2. **Ordering** — [`NeighborGrid::candidates_into`] sorts the gathered
//!    candidate ids ascending, restoring the global iteration order of the
//!    linear scan. Sorting ~tens of candidates is far cheaper than scanning
//!    hundreds of positions.

use crate::geom::Point;

/// A rebuildable uniform grid mapping cells to the node indices inside.
///
/// Storage is a compact CSR-style layout (`starts` offsets into one `ids`
/// vector), rebuilt in O(n) with no per-cell allocation, so refreshing the
/// grid alongside the driver's cached positions is cheap enough to do on
/// every position refresh.
///
/// # Example
///
/// ```
/// use mobility::{NeighborGrid, Point};
///
/// let positions = [Point::new(0.0, 0.0), Point::new(40.0, 0.0), Point::new(500.0, 0.0)];
/// let mut grid = NeighborGrid::new(100.0);
/// grid.rebuild(&positions);
/// let mut cands = Vec::new();
/// grid.candidates_into(positions[0], &mut cands);
/// assert_eq!(cands, vec![0, 1]); // node 2 is beyond one cell away
/// ```
#[derive(Debug, Clone)]
pub struct NeighborGrid {
    cell_m: f64,
    /// Origin of cell (0, 0); positions below it clamp into the edge cells.
    min_x: f64,
    min_y: f64,
    cols: usize,
    rows: usize,
    /// `starts[c]..starts[c + 1]` indexes `ids` for cell `c` (row-major).
    starts: Vec<u32>,
    /// Node indices grouped by cell, ascending within each cell.
    ids: Vec<u16>,
    /// Scratch cursor reused across rebuilds.
    cursors: Vec<u32>,
}

impl NeighborGrid {
    /// Creates an empty grid with the given cell size in meters.
    ///
    /// For arrival planning the cell size must be at least the radio's
    /// carrier-sense range (see the module docs); the caller passes
    /// `RadioConfig::carrier_sense_range_m()` (plus any safety margin).
    ///
    /// # Panics
    ///
    /// Panics if `cell_m` is not positive and finite.
    pub fn new(cell_m: f64) -> Self {
        assert!(cell_m.is_finite() && cell_m > 0.0, "invalid grid cell size {cell_m}");
        NeighborGrid {
            cell_m,
            min_x: 0.0,
            min_y: 0.0,
            cols: 0,
            rows: 0,
            starts: Vec::new(),
            ids: Vec::new(),
            cursors: Vec::new(),
        }
    }

    /// Rebuilds the index over `positions` (index = node id).
    ///
    /// The grid covers the positions' bounding box, so nodes may roam
    /// outside any nominal field without losing coverage. O(n) time, zero
    /// allocations after the first rebuild at a given scale.
    pub fn rebuild(&mut self, positions: &[Point]) {
        if positions.is_empty() {
            self.cols = 0;
            self.rows = 0;
            self.starts.clear();
            self.ids.clear();
            return;
        }
        debug_assert!(positions.len() <= usize::from(u16::MAX) + 1, "node index must fit u16");
        let (mut min_x, mut min_y) = (f64::INFINITY, f64::INFINITY);
        let (mut max_x, mut max_y) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        for p in positions {
            min_x = min_x.min(p.x);
            min_y = min_y.min(p.y);
            max_x = max_x.max(p.x);
            max_y = max_y.max(p.y);
        }
        self.min_x = min_x;
        self.min_y = min_y;
        self.cols = ((max_x - min_x) / self.cell_m) as usize + 1;
        self.rows = ((max_y - min_y) / self.cell_m) as usize + 1;

        // Counting pass -> prefix sums -> placement pass. Nodes are visited
        // in ascending index order, so each cell's id list ends up sorted.
        let cells = self.cols * self.rows;
        self.starts.clear();
        self.starts.resize(cells + 1, 0);
        for p in positions {
            let cell = self.cell_of(*p);
            self.starts[cell + 1] += 1;
        }
        for c in 0..cells {
            self.starts[c + 1] += self.starts[c];
        }
        self.cursors.clear();
        self.cursors.extend_from_slice(&self.starts[..cells]);
        self.ids.clear();
        self.ids.resize(positions.len(), 0);
        for (i, p) in positions.iter().enumerate() {
            let cell = self.cell_of(*p);
            let slot = self.cursors[cell];
            self.ids[slot as usize] = i as u16;
            self.cursors[cell] = slot + 1;
        }
    }

    /// Collects into `out` (cleared first) the indices of all nodes in the
    /// 3×3 cell neighborhood of `p`, sorted ascending.
    ///
    /// The result is a superset of every node within one cell size of `p`
    /// and iterates in the same order a linear scan over the position
    /// slice would, which is what keeps grid-planned arrivals byte-identical
    /// to linearly-planned ones.
    pub fn candidates_into(&self, p: Point, out: &mut Vec<u16>) {
        out.clear();
        if self.cols == 0 {
            return;
        }
        let (cx, cy) = self.coords_of(p);
        let x0 = cx.saturating_sub(1);
        let x1 = (cx + 1).min(self.cols - 1);
        let y0 = cy.saturating_sub(1);
        let y1 = (cy + 1).min(self.rows - 1);
        for row in y0..=y1 {
            for col in x0..=x1 {
                let cell = row * self.cols + col;
                let lo = self.starts[cell] as usize;
                let hi = self.starts[cell + 1] as usize;
                out.extend_from_slice(&self.ids[lo..hi]);
            }
        }
        // Ids are sorted within each cell but the 3×3 sweep interleaves
        // cells; one short sort restores the global ascending order.
        out.sort_unstable();
    }

    /// Row-major cell index of `p`, clamped into the grid.
    fn cell_of(&self, p: Point) -> usize {
        let (cx, cy) = self.coords_of(p);
        cy * self.cols + cx
    }

    fn coords_of(&self, p: Point) -> (usize, usize) {
        // Clamp instead of panicking: lookups may probe points slightly
        // outside the bounding box (e.g. a stale position); edge cells
        // simply absorb them.
        let cx = (((p.x - self.min_x) / self.cell_m) as usize).min(self.cols.saturating_sub(1));
        let cy = (((p.y - self.min_y) / self.cell_m) as usize).min(self.rows.saturating_sub(1));
        (cx, cy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force reference: every node within `range` of `p`, ascending.
    fn in_range_linear(positions: &[Point], p: Point, range: f64) -> Vec<u16> {
        positions
            .iter()
            .enumerate()
            .filter(|(_, q)| p.distance_sq(**q) <= range * range)
            .map(|(i, _)| i as u16)
            .collect()
    }

    fn deterministic_positions(n: usize, w: f64, h: f64) -> Vec<Point> {
        // Small LCG so the test needs no RNG dependency.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n).map(|_| Point::new(next() * w, next() * h)).collect()
    }

    #[test]
    fn candidates_cover_all_in_range_nodes() {
        let range = 550.0;
        let positions = deterministic_positions(100, 2200.0, 600.0);
        let mut grid = NeighborGrid::new(range);
        grid.rebuild(&positions);
        let mut cands = Vec::new();
        for (i, p) in positions.iter().enumerate() {
            grid.candidates_into(*p, &mut cands);
            for id in in_range_linear(&positions, *p, range) {
                assert!(cands.contains(&id), "node {id} in range of {i} but not a candidate");
            }
        }
    }

    #[test]
    fn candidates_are_sorted_and_unique() {
        let positions = deterministic_positions(200, 2200.0, 600.0);
        let mut grid = NeighborGrid::new(550.0);
        grid.rebuild(&positions);
        let mut cands = Vec::new();
        for p in &positions {
            grid.candidates_into(*p, &mut cands);
            assert!(cands.windows(2).all(|w| w[0] < w[1]), "not strictly ascending: {cands:?}");
        }
    }

    #[test]
    fn rebuild_reuses_buffers() {
        let positions = deterministic_positions(50, 1000.0, 1000.0);
        let mut grid = NeighborGrid::new(250.0);
        grid.rebuild(&positions);
        let ids_cap = grid.ids.capacity();
        let starts_cap = grid.starts.capacity();
        grid.rebuild(&positions);
        assert_eq!(grid.ids.capacity(), ids_cap);
        assert_eq!(grid.starts.capacity(), starts_cap);
    }

    #[test]
    fn empty_and_single_node() {
        let mut grid = NeighborGrid::new(100.0);
        grid.rebuild(&[]);
        let mut cands = vec![9];
        grid.candidates_into(Point::new(5.0, 5.0), &mut cands);
        assert!(cands.is_empty());

        grid.rebuild(&[Point::new(3.0, 4.0)]);
        grid.candidates_into(Point::new(3.0, 4.0), &mut cands);
        assert_eq!(cands, vec![0]);
    }

    #[test]
    fn coincident_positions_all_reported() {
        let p = Point::new(10.0, 10.0);
        let positions = vec![p; 5];
        let mut grid = NeighborGrid::new(50.0);
        grid.rebuild(&positions);
        let mut cands = Vec::new();
        grid.candidates_into(p, &mut cands);
        assert_eq!(cands, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn probe_outside_bounding_box_is_clamped() {
        let positions = vec![Point::new(0.0, 0.0), Point::new(99.0, 99.0)];
        let mut grid = NeighborGrid::new(100.0);
        grid.rebuild(&positions);
        let mut cands = Vec::new();
        grid.candidates_into(Point::new(-500.0, -500.0), &mut cands);
        assert_eq!(cands, vec![0, 1], "clamped probe still sees the edge cells");
    }

    #[test]
    #[should_panic(expected = "invalid grid cell size")]
    fn zero_cell_size_rejected() {
        let _ = NeighborGrid::new(0.0);
    }
}
