//! Piping `tiscc-report` into a reader that stops early
//! (`tiscc-report all 3 | head -1`) must end the process normally: exit 0,
//! and no panic on stderr. (The `tiscc` counterpart lives in
//! `crates/cli/tests/broken_pipe.rs`; Cargo exposes a binary's path only to
//! its own package's tests.)

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

#[test]
fn closed_stdout_is_a_normal_end() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_tiscc-report"))
        .args(["all", "3"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn tiscc-report");
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout")).read_line(&mut first).unwrap();
    assert!(!first.is_empty(), "tiscc-report printed nothing");
    // The reader is dropped here; every later table meets a closed pipe.
    let out = child.wait_with_output().expect("wait for tiscc-report");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "tiscc-report panicked: {stderr}");
    assert_ne!(out.status.code(), Some(101), "{stderr}");
    assert_eq!(out.status.code(), Some(0), "{stderr}");
}
