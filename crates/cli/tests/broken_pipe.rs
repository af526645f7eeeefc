//! Piping `tiscc` into a reader that stops early (`tiscc … | head -1`)
//! must end the process normally: exit 0, and no panic on stderr.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

/// Runs `tiscc args`, reads one line of its stdout, closes the pipe, and
/// returns the exit code and stderr.
fn first_line_then_close(args: &[&str]) -> (Option<i32>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_tiscc"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn tiscc");
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout")).read_line(&mut first).unwrap();
    assert!(!first.is_empty(), "tiscc {args:?} printed nothing");
    // The reader is dropped here: the pipe's read end is closed.
    let out = child.wait_with_output().expect("wait for tiscc");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn closed_stdout_is_a_normal_end() {
    // `gen` writes far more than a pipe buffer holds, so its later writes
    // are certain to meet the closed pipe; `tables` computes between its
    // tables, so they land after the close too.
    for args in [
        &["tables", "--d", "3", "--dt", "2"][..],
        &["gen", "random-clifford-t", "--n", "20000"][..],
    ] {
        let (code, stderr) = first_line_then_close(args);
        assert!(!stderr.contains("panicked"), "tiscc {args:?} panicked: {stderr}");
        assert_ne!(code, Some(101), "tiscc {args:?}: {stderr}");
        assert_eq!(code, Some(0), "tiscc {args:?}: {stderr}");
    }
}
