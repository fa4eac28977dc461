//! `reproduce` ends quietly when its reader closes stdout early, as in
//! `reproduce maj3 table1 | head -n 1`.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

#[test]
fn reproduce_exits_zero_when_its_reader_closes_stdout() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(["maj3", "table1"])
        .env("REPRO_TRIALS", "50")
        .env_remove("REPRO_JSON")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("reproduce starts");
    let mut first = String::new();
    // Read one line, then drop the reader: the pipe's read end closes while
    // the tables are still to come.
    BufReader::new(child.stdout.take().expect("stdout is piped"))
        .read_line(&mut first)
        .expect("reproduce writes a first line");
    assert!(first.starts_with("== "), "first line {first:?}");
    let output = child.wait_with_output().expect("reproduce finishes");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(0), "stderr:\n{stderr}");
    assert!(!stderr.contains("panicked"), "stderr:\n{stderr}");
}
