//! Oversized tile grids fail fast with a typed error instead of
//! exhausting memory: the placement refuses any grid above
//! `MAX_GRID_TILES` tiles (or whose `rows × cols` overflows) before
//! allocating anything, `estimate_program` surfaces that as a placement
//! error, and the serve loop answers with a structured `bad_request`.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use tiscc::estimator::program::{estimate_program, EstimateError, ProgramEstimateSpec};
use tiscc::estimator::{Compiler, EstimateMode};
use tiscc::frontier::serve::{handle_line, ServeState};
use tiscc::program::{LayoutSpec, LogicalProgram, Placement, PlacementError, MAX_GRID_TILES};

/// `100000x100000`, the `rows * cols` overflow `18446744073709551615x2`,
/// and `4294967296x4294967297`.
const PROBES: [(usize, usize); 3] = [(100_000, 100_000), (usize::MAX, 2), (1 << 32, (1 << 32) + 1)];

fn adder_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/programs/adder.tql")
}

fn adder() -> LogicalProgram {
    let text = std::fs::read_to_string(adder_path()).unwrap();
    LogicalProgram::parse("adder", &text).unwrap()
}

fn layouts() -> [LayoutSpec; 3] {
    [LayoutSpec::single_lane(), LayoutSpec::row_major(), LayoutSpec::checkerboard()]
}

#[test]
fn oversized_grids_are_rejected_before_allocating() {
    let program = adder();
    for (rows, cols) in PROBES {
        for layout in layouts() {
            let started = Instant::now();
            let err =
                Placement::allocate_with(&program, &layout.with_grid(rows, cols)).unwrap_err();
            assert!(started.elapsed() < Duration::from_secs(1), "{rows}x{cols} {layout:?}");
            assert_eq!(err, PlacementError::GridTooLarge { rows, cols, cap: MAX_GRID_TILES });
            assert!(err.to_string().contains("--grid"), "{err}");
        }
    }
    // The cap itself is placeable.
    let side = 1 << 12;
    assert_eq!(side * side, MAX_GRID_TILES);
    let place =
        Placement::allocate_with(&program, &LayoutSpec::checkerboard().with_grid(side, side))
            .unwrap();
    assert_eq!(place.total_tiles(), MAX_GRID_TILES);
    assert!(matches!(
        Placement::allocate_with(&program, &LayoutSpec::checkerboard().with_grid(side, side + 1)),
        Err(PlacementError::GridTooLarge { .. })
    ));
}

#[test]
fn estimates_and_serve_report_oversized_grids_as_errors() {
    let program = adder();
    for (rows, cols) in PROBES {
        let started = Instant::now();
        let spec = ProgramEstimateSpec::new(1e-3)
            .with_mode(EstimateMode::Analytic)
            .with_layout(LayoutSpec::checkerboard().with_grid(rows, cols));
        assert!(matches!(
            estimate_program(&program, &spec, &Compiler::new()),
            Err(EstimateError::Placement(PlacementError::GridTooLarge { .. }))
        ));

        let state = ServeState::new(None);
        let program_path = adder_path();
        let program_path = program_path.to_str().unwrap();
        for request in [
            format!(
                r#"{{"cmd":"estimate","program":"{program_path}","layout":"checkerboard@{rows}x{cols}","mode":"analytic"}}"#
            ),
            format!(
                r#"{{"cmd":"frontier","program":"{program_path}","layouts":"row@{rows}x{cols}","mode":"analytic"}}"#
            ),
        ] {
            let reply = handle_line(&request, &state);
            assert!(reply.starts_with(r#"{"ok":false"#), "{reply}");
            assert!(reply.contains(r#""kind":"bad_request""#), "{reply}");
            assert!(reply.contains("--grid"), "{reply}");
        }
        assert!(started.elapsed() < Duration::from_secs(1), "{rows}x{cols}");
    }
}
