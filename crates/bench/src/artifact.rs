//! Machine-readable bench artifacts: the `BENCH_<sha>.json` files the CI
//! `bench-smoke` job uploads on every push, recording mean probe counts and
//! wall-clock time per reproduced table so the performance trajectory of the
//! repository is tracked over time.
//!
//! The JSON is written by hand (the workspace is offline; no serde) through
//! [`ArtifactStream`], a **streaming row writer**: the header goes out when
//! the stream opens, every row is flushed to the sink the moment it is
//! recorded, and the footer (including the process's peak RSS) closes the
//! file. Memory stays constant no matter how many rows an experiment
//! produces — the million-element `scale` experiment writes its cells as
//! they complete instead of accumulating tables. A stream over a
//! `Vec<u8>` gives the document in memory, so there is exactly one
//! serialisation path.

use std::io::{self, Write};
use std::time::Duration;

use probequorum::prelude::Table;

/// An incremental `BENCH_<sha>.json` writer: open with [`ArtifactStream::new`]
/// (writes the header), record experiments with
/// [`ArtifactStream::record_table`] or the `begin_experiment` / `row` /
/// `end_experiment` triple (each row is flushed immediately), and close with
/// [`ArtifactStream::finish`] (writes the footer). The emitted document
/// matches the `probequorum-bench/1` schema parsed by
/// [`crate::parse_artifact`].
#[derive(Debug)]
pub struct ArtifactStream<W: Write> {
    sink: W,
    experiments: usize,
    rows_in_current: usize,
    in_experiment: bool,
}

impl<W: Write> ArtifactStream<W> {
    /// Opens a stream and writes the artifact header.
    ///
    /// `sha` identifies the commit (CI passes `GITHUB_SHA`); `seed`, `trials`
    /// and `threads` pin the reproduction configuration so two artifacts are
    /// comparable only when they match.
    pub fn new(
        mut sink: W,
        sha: &str,
        seed: u64,
        trials: usize,
        threads: usize,
    ) -> io::Result<Self> {
        write!(
            sink,
            "{{\n  \"schema\": \"probequorum-bench/1\",\n  \"sha\": {},\n  \"seed\": {seed},\n  \
             \"trials\": {trials},\n  \"threads\": {threads},\n  \"experiments\": [",
            json_string(sha)
        )?;
        Ok(ArtifactStream {
            sink,
            experiments: 0,
            rows_in_current: 0,
            in_experiment: false,
        })
    }

    /// Starts one experiment record: name and column headers go out
    /// immediately; rows follow via [`ArtifactStream::row`].
    ///
    /// # Panics
    ///
    /// Panics if the previous experiment was not closed with
    /// [`ArtifactStream::end_experiment`].
    pub fn begin_experiment(&mut self, name: &str, columns: &[String]) -> io::Result<()> {
        assert!(
            !self.in_experiment,
            "close the previous experiment before starting another"
        );
        if self.experiments > 0 {
            self.sink.write_all(b",")?;
        }
        self.experiments += 1;
        self.in_experiment = true;
        self.rows_in_current = 0;
        write!(
            self.sink,
            "\n    {{\n      \"name\": {},\n      \"columns\": {},\n      \"rows\": [",
            json_string(name),
            json_string_array(columns)
        )
    }

    /// Appends one row to the open experiment and flushes it to the sink, so
    /// partial progress of a long experiment is on disk before it finishes.
    ///
    /// # Panics
    ///
    /// Panics if no experiment is open.
    pub fn row(&mut self, cells: &[String]) -> io::Result<()> {
        assert!(
            self.in_experiment,
            "begin an experiment before writing rows"
        );
        if self.rows_in_current > 0 {
            self.sink.write_all(b",")?;
        }
        self.rows_in_current += 1;
        write!(self.sink, "\n        {}", json_string_array(cells))?;
        self.sink.flush()
    }

    /// Closes the open experiment, recording its wall-clock time (known only
    /// once the last row is in — which is why `wall_ms` trails the rows; the
    /// parser is field-order independent).
    ///
    /// # Panics
    ///
    /// Panics if no experiment is open.
    pub fn end_experiment(&mut self, wall: Duration) -> io::Result<()> {
        assert!(self.in_experiment, "no experiment to close");
        self.in_experiment = false;
        if self.rows_in_current > 0 {
            self.sink.write_all(b"\n      ")?;
        }
        write!(
            self.sink,
            "],\n      \"wall_ms\": {:.3}\n    }}",
            wall.as_secs_f64() * 1_000.0
        )?;
        self.sink.flush()
    }

    /// Records a whole experiment from an in-memory table: a
    /// `begin_experiment` / per-row `row` / `end_experiment` sequence.
    pub fn record_table(&mut self, name: &str, wall: Duration, table: &Table) -> io::Result<()> {
        self.begin_experiment(name, table.headers())?;
        for row in table.rows() {
            self.row(row)?;
        }
        self.end_experiment(wall)
    }

    /// Writes the artifact footer — including the process's peak resident-set
    /// size when known (see [`crate::peak_rss_bytes`]) — and returns the
    /// sink.
    ///
    /// # Panics
    ///
    /// Panics if an experiment is still open.
    pub fn finish(mut self, peak_rss_bytes: Option<u64>) -> io::Result<W> {
        assert!(!self.in_experiment, "close the open experiment first");
        if self.experiments > 0 {
            self.sink.write_all(b"\n  ")?;
        }
        match peak_rss_bytes {
            Some(bytes) => write!(self.sink, "],\n  \"peak_rss_bytes\": {bytes}\n}}\n")?,
            None => self.sink.write_all(b"]\n}\n")?,
        }
        self.sink.flush()?;
        Ok(self.sink)
    }
}

/// Escapes a string as a JSON string literal.
fn json_string(value: &str) -> String {
    let mut out = String::with_capacity(value.len() + 2);
    out.push('"');
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders a slice of strings as a JSON array literal.
fn json_string_array(values: &[String]) -> String {
    let cells: Vec<String> = values.iter().map(|v| json_string(v)).collect();
    format!("[{}]", cells.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_table() -> Table {
        let mut table = Table::new(["system", "mean"]);
        table.add_row(vec!["Maj".into(), "4.125".into()]);
        table.add_row(vec!["say \"hi\"\\".into(), "1.000".into()]);
        table
    }

    /// Closes a byte-buffer stream and returns its document.
    fn document(stream: ArtifactStream<Vec<u8>>) -> String {
        String::from_utf8(stream.finish(None).unwrap()).unwrap()
    }

    #[test]
    fn artifact_serialises_all_records() {
        let mut stream = ArtifactStream::new(Vec::new(), "abc123", 2001, 200, 1).unwrap();
        stream
            .record_table("table1", Duration::from_millis(1500), &sample_table())
            .unwrap();
        stream
            .record_table("zoned", Duration::from_micros(250), &sample_table())
            .unwrap();

        let json = document(stream);
        assert!(json.contains("\"schema\": \"probequorum-bench/1\""));
        assert!(json.contains("\"sha\": \"abc123\""));
        assert!(json.contains("\"name\": \"table1\""));
        assert!(json.contains("\"wall_ms\": 1500.000"));
        assert!(json.contains("\"wall_ms\": 0.250"));
        assert!(json.contains("[\"system\", \"mean\"]"));
        assert!(json.contains("[\"Maj\", \"4.125\"]"));
        assert_eq!(crate::parse_artifact(&json).unwrap().experiments.len(), 2);
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b"), "\"a\\\"b\"");
        assert_eq!(json_string("a\\b"), "\"a\\\\b\"");
        assert_eq!(json_string("a\nb"), "\"a\\nb\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
        // The sample table's tricky row survives into valid JSON.
        let mut stream = ArtifactStream::new(Vec::new(), "", 1, 1, 1).unwrap();
        stream
            .record_table("x", Duration::ZERO, &sample_table())
            .unwrap();
        let json = document(stream);
        assert!(json.contains("\"say \\\"hi\\\"\\\\\""));
    }

    #[test]
    fn empty_artifact_is_valid_json_shape() {
        let json = document(ArtifactStream::new(Vec::new(), "deadbeef", 7, 10, 2).unwrap());
        assert!(json.contains("\"experiments\": []"));
    }

    #[test]
    fn stream_flushes_each_row_as_it_is_recorded() {
        // The streaming contract: after `row` returns, the row's bytes are in
        // the sink — a crash mid-experiment loses nothing already recorded.
        let mut stream = ArtifactStream::new(Vec::new(), "sha", 1, 10, 1).unwrap();
        stream
            .begin_experiment("scale", &["family".into(), "avail".into()])
            .unwrap();
        stream.row(&["Grid".into(), "0.500".into()]).unwrap();
        assert!(String::from_utf8(stream.sink.clone())
            .unwrap()
            .contains("[\"Grid\", \"0.500\"]"));
        stream.row(&["Tree".into(), "0.250".into()]).unwrap();
        stream.end_experiment(Duration::from_millis(3)).unwrap();
        let bytes = stream.finish(Some(123_456_789)).unwrap();
        let json = String::from_utf8(bytes).unwrap();
        assert!(json.contains("\"peak_rss_bytes\": 123456789"));
        // The streamed document parses under the artifact schema.
        let run = crate::parse_artifact(&json).expect("streamed artifact parses");
        assert_eq!(run.experiments.len(), 1);
        assert_eq!(run.experiments[0].rows.len(), 2);
        assert_eq!(run.peak_rss_bytes, Some(123_456_789));
    }

    #[test]
    #[should_panic(expected = "begin an experiment")]
    fn rows_outside_an_experiment_panic() {
        let mut stream = ArtifactStream::new(Vec::new(), "s", 1, 1, 1).unwrap();
        let _ = stream.row(&["x".into()]);
    }
}
