//! Process-level tests of the CLI error contract: bad arguments exit with
//! code 2 and a one-line stderr message; valid invocations succeed.

use std::path::PathBuf;
use std::process::{Command, Output};
use std::time::{Duration, Instant};

fn tiscc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tiscc")).args(args).output().expect("spawn tiscc")
}

fn assert_usage_error(args: &[&str], needle: &str) {
    let out = tiscc(args);
    assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(needle), "{args:?} stderr missing {needle:?}: {stderr}");
    assert_eq!(
        stderr.trim_end().lines().count(),
        1,
        "{args:?} must print a one-line message, got: {stderr}"
    );
}

#[test]
fn bad_arguments_exit_2_with_one_line_messages() {
    assert_usage_error(&["compile", "frobnicate"], "unknown instruction 'frobnicate'");
    assert_usage_error(&["compile", "idle", "--profile", "warp9"], "unknown hardware profile");
    assert_usage_error(&["estimate", "/no/such/file.tql"], "cannot read /no/such/file.tql");
    assert_usage_error(&["estimate"], "usage: tiscc estimate");
    assert_usage_error(&["nonsense"], "unknown subcommand 'nonsense'");
    assert_usage_error(&["sweep", "--dmax", "many"], "--dmax expects a number");
    assert_usage_error(&["sweep", "--dt", "soon"], "--dt expects a number or 'd'");
    assert_usage_error(&["compile", "idle", "bogus"], "dx expects a number");
    assert_usage_error(&["compile", "idle", "3", "x"], "dz expects a number");
}

/// Floorplan arguments have the same contract: unknown strategies,
/// malformed grids and undersized grids all exit 2.
#[test]
fn bad_layout_arguments_exit_2() {
    let program =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/programs/bell.tql");
    let program = program.to_str().unwrap();
    assert_usage_error(&["estimate", program, "--layout", "hexagonal"], "unknown layout");
    assert_usage_error(&["estimate", program, "--grid", "8by8"], "--grid expects ROWSxCOLS");
    assert_usage_error(&["estimate", program, "--grid", "0x8"], "--grid expects ROWSxCOLS");
    assert_usage_error(
        &["estimate", program, "--layout", "checkerboard", "--grid", "1x2"],
        "use a larger --grid",
    );
    // A grid the program fits on but cannot route over (no ancilla row at
    // all) is equally a floorplan-argument problem: exit 2.
    assert_usage_error(&["estimate", program, "--layout", "row", "--grid", "1x2"], "unroutable");
}

/// Grids past the placement's tile cap (including `rows * cols`
/// overflows) exit 2 naming the flag within a second, instead of being
/// killed for running out of memory.
#[test]
fn oversized_grids_exit_2_quickly() {
    let program =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/programs/adder.tql");
    let program = program.to_str().unwrap();
    for grid in ["100000x100000", "18446744073709551615x2", "4294967296x4294967297"] {
        for args in [
            ["estimate", program, "--layout", "checkerboard", "--grid", grid],
            ["frontier", program, "--layouts", "checkerboard", "--grids", grid],
        ] {
            let started = Instant::now();
            assert_usage_error(&args, "tile limit; use a smaller --grid");
            assert!(started.elapsed() < Duration::from_secs(1), "{args:?} took too long");
        }
    }
}

/// `--show-layout` prints the floorplan before the estimate report, and
/// the 2D layouts report their congestion columns.
#[test]
fn show_layout_prints_the_floorplan() {
    let program =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/programs/adder.tql");
    let out = tiscc(&[
        "estimate",
        program.to_str().unwrap(),
        "--budget",
        "1e-3",
        "--layout",
        "checkerboard",
        "--grid",
        "8x8",
        "--show-layout",
    ]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "floorplan: checkerboard layout on 8x8 tiles",
        "a0",
        "··",
        "parallel_merges 4",
        "routing_stalls 0",
    ] {
        assert!(stdout.contains(needle), "stdout missing {needle:?}: {stdout}");
    }
}

/// Argument *values* that parse but are physically meaningless (a
/// non-positive budget, an above-threshold physical error rate) are bad
/// arguments too: exit 2, not a runtime failure.
#[test]
fn meaningless_estimate_parameters_exit_2() {
    let program =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/programs/bell.tql");
    let program = program.to_str().unwrap();
    let out = tiscc(&["estimate", program, "--budget", "0"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("budget must be positive"));
    let out = tiscc(&["estimate", program, "--p-phys", "0.5"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("not below threshold"));
}

#[test]
fn malformed_programs_exit_2_with_the_offending_line() {
    let dir = std::env::temp_dir();
    let path = dir.join("tiscc_cli_errors_bad.tql");
    std::fs::write(&path, "qubit a\nfrobnicate a\n").unwrap();
    let out = tiscc(&["estimate", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("line 2"), "stderr: {stderr}");
    assert!(stderr.contains("frobnicate"), "stderr: {stderr}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn estimate_succeeds_on_a_bundled_program() {
    let program =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/programs/bell.tql");
    let out = tiscc(&[
        "estimate",
        program.to_str().unwrap(),
        "--budget",
        "1e-3",
        "--profile",
        "h1,projected",
    ]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in ["Program 'bell'", "h1", "projected", "qubit-rounds"] {
        assert!(stdout.contains(needle), "stdout missing {needle:?}: {stdout}");
    }
}

#[test]
fn help_and_profiles_succeed() {
    assert!(tiscc(&["help"]).status.success());
    let out = tiscc(&["profiles"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("slow_junction"));
}
