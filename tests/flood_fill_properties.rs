//! Property tests for the bit-parallel corridor feasibility check: on
//! random passability masks, `tiles_connected` must agree exactly with
//! whether the BFS of `shortest_tile_path` finds a path.
//!
//! Column counts straddle word boundaries (63, 64, 65 columns; 130 and
//! 200 span three and four words), densities range from sparse to fully
//! open so runs carry across words and out of a row's last word, and
//! every row with `cols % 64 != 0` has padding bits that must never join
//! a run.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tiscc::grid::{row_words, shortest_tile_path, tiles_connected, FloodScratch};

const COLS: [usize; 6] = [1, 63, 64, 65, 130, 200];

/// A random row-major passability mask: each row is fully open, fully
/// blocked, or random at `density`.
fn random_mask(rng: &mut StdRng, rows: usize, cols: usize, density: f64) -> Vec<u64> {
    let words = row_words(cols);
    let mut mask = vec![0u64; rows * words];
    for r in 0..rows {
        let row_density = match rng.gen_range(0..6u32) {
            0 => 1.0,
            1 => 0.0,
            _ => density,
        };
        for c in 0..cols {
            if rng.gen_bool(row_density) {
                mask[r * words + c / 64] |= 1 << (c % 64);
            }
        }
    }
    mask
}

fn random_tiles(rng: &mut StdRng, rows: usize, cols: usize) -> Vec<(usize, usize)> {
    (0..rng.gen_range(1..5usize))
        .map(|_| (rng.gen_range(0..rows), rng.gen_range(0..cols)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn flood_fill_agrees_with_bfs_reachability(
        rows in 1usize..9,
        cols_idx in 0usize..COLS.len(),
        density_pct in 20u32..100,
        seed in 0u64..u64::MAX,
    ) {
        let cols = COLS[cols_idx];
        let words = row_words(cols);
        let mut rng = StdRng::seed_from_u64(seed);
        let passable = random_mask(&mut rng, rows, cols, f64::from(density_pct) / 100.0);
        let sources = random_tiles(&mut rng, rows, cols);
        let goals = random_tiles(&mut rng, rows, cols);
        let open = |(r, c): (usize, usize)| passable[r * words + c / 64] & (1 << (c % 64)) != 0;
        let bfs = shortest_tile_path(rows, cols, &sources, &|t| goals.contains(&t), &open);
        let mut scratch = FloodScratch::default();
        prop_assert_eq!(
            tiles_connected(rows, cols, &passable, &sources, &goals, &mut scratch),
            bfs.is_some(),
            "{rows}x{cols} sources {sources:?} goals {goals:?}"
        );
    }
}

/// Long runs: a fully open grid connects opposite corners across every
/// word boundary, and a single blocked column splits it.
#[test]
fn full_width_runs_carry_across_words() {
    let mut scratch = FloodScratch::default();
    for cols in COLS.into_iter().filter(|&c| c > 1) {
        let words = row_words(cols);
        let mut open = vec![0u64; 3 * words];
        for r in 0..3 {
            for c in 0..cols {
                open[r * words + c / 64] |= 1 << (c % 64);
            }
        }
        let (left, right) = ((0, 0), (2, cols - 1));
        assert!(tiles_connected(3, cols, &open, &[left], &[right], &mut scratch), "{cols}");
        assert!(tiles_connected(3, cols, &open, &[right], &[left], &mut scratch), "{cols}");
        let wall = cols / 2;
        for r in 0..3 {
            open[r * words + wall / 64] &= !(1 << (wall % 64));
        }
        assert!(!tiles_connected(3, cols, &open, &[left], &[right], &mut scratch), "{cols}");
        assert!(!tiles_connected(3, cols, &open, &[right], &[left], &mut scratch), "{cols}");
    }
}
