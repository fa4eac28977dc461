//! The CI performance-regression gate: parse two `BENCH_<sha>.json`
//! artifacts (see [`crate::artifact`]), compare the gated rows that
//! [`EXPERIMENTS`](crate::EXPERIMENTS) declares, and render a markdown delta
//! table for `$GITHUB_STEP_SUMMARY`.
//!
//! A gate on a stdout table is enforced: those tables are pure functions of
//! the seed and trial count, so any drop is a genuine behavioural change,
//! never runner noise. A gate on a wall-clock (stderr) table is reported in
//! the same table but never fails: CI runners are too noisy for hard
//! wall-clock thresholds.
//!
//! The workspace is offline (no serde), so a ~100-line recursive-descent
//! JSON parser for the artifact's own schema lives here; it rejects input
//! nested deeper than the artifacts ever are.

use std::collections::BTreeMap;

use crate::experiments::{check_artifact, tables, Gate};

/// A parsed JSON value (only what the artifact schema needs).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// How deep arrays and objects may nest. Artifacts nest about 5 deep; the
/// bound keeps the recursive descent's stack use small on any input.
const MAX_NESTING: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open at `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    fn error(&self, message: &str) -> String {
        format!("JSON parse error at byte {}: {message}", self.pos)
    }

    fn skip_whitespace(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_whitespace();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", byte as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
            None => Err(self.error("unexpected end of input")),
        }
    }

    /// Parses an array or object one level deeper, past [`MAX_NESTING`] an
    /// error at the offset of its opening bracket.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_NESTING {
            return Err(self.error(&format!("nesting deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, String> {
        self.skip_whitespace();
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected '{text}'")))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escaped = self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| self.error("unterminated escape"))?;
                    match escaped {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.error("short \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| self.error("bad \\u escape"))?,
                                16,
                            )
                            .map_err(|_| self.error("bad \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.error("bad \\u code point"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.error("unknown escape")),
                    }
                    self.pos += 1;
                }
                Some(&byte) => {
                    // Multi-byte UTF-8 sequences pass through untouched.
                    let len = match byte {
                        b if b < 0x80 => 1,
                        b if b >= 0xF0 => 4,
                        b if b >= 0xE0 => 3,
                        _ => 2,
                    };
                    let chunk = self
                        .bytes
                        .get(self.pos..self.pos + len)
                        .ok_or_else(|| self.error("truncated UTF-8"))?;
                    out.push_str(
                        std::str::from_utf8(chunk).map_err(|_| self.error("invalid UTF-8"))?,
                    );
                    self.pos += len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        self.skip_whitespace();
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(Json::Number)
            .ok_or_else(|| self.error("invalid number"))
    }
}

/// One experiment of a parsed artifact.
#[derive(Debug, Clone)]
pub struct BenchExperiment {
    /// Experiment name (`"workload"`, `"network"`, …).
    pub name: String,
    /// Wall-clock milliseconds the experiment took.
    pub wall_ms: f64,
    /// Column headers of the recorded table.
    pub columns: Vec<String>,
    /// Table rows, as rendered strings.
    pub rows: Vec<Vec<String>>,
}

/// A parsed `BENCH_<sha>.json` artifact.
#[derive(Debug, Clone)]
pub struct BenchRun {
    /// Commit the artifact was produced from.
    pub sha: String,
    /// RNG seed of the run.
    pub seed: u64,
    /// `REPRO_TRIALS` of the run.
    pub trials: u64,
    /// Peak resident-set size of the producing process, when the artifact
    /// recorded one (linux runs of the `reproduce` binary do).
    pub peak_rss_bytes: Option<u64>,
    /// The recorded experiments.
    pub experiments: Vec<BenchExperiment>,
}

impl BenchRun {
    /// Looks an experiment up by name.
    pub fn experiment(&self, name: &str) -> Option<&BenchExperiment> {
        self.experiments.iter().find(|e| e.name == name)
    }
}

/// Parses a `BENCH_<sha>.json` artifact (the schema written by
/// [`crate::ArtifactStream`]).
pub fn parse_artifact(json: &str) -> Result<BenchRun, String> {
    let mut parser = Parser::new(json);
    let root = parser.value()?;
    let schema = root
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("missing schema field")?;
    if schema != "probequorum-bench/1" {
        return Err(format!("unsupported artifact schema '{schema}'"));
    }
    let experiments = root
        .get("experiments")
        .and_then(Json::as_array)
        .ok_or("missing experiments array")?
        .iter()
        .map(|entry| {
            let name = entry
                .get("name")
                .and_then(Json::as_str)
                .ok_or("experiment without name")?
                .to_string();
            let wall_ms = entry.get("wall_ms").and_then(Json::as_f64).unwrap_or(0.0);
            let strings = |value: &Json| -> Vec<String> {
                value
                    .as_array()
                    .unwrap_or(&[])
                    .iter()
                    .filter_map(|v| v.as_str().map(String::from))
                    .collect()
            };
            let columns = entry.get("columns").map(&strings).unwrap_or_default();
            let rows = entry
                .get("rows")
                .and_then(Json::as_array)
                .unwrap_or(&[])
                .iter()
                .map(&strings)
                .collect();
            Ok(BenchExperiment {
                name,
                wall_ms,
                columns,
                rows,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(BenchRun {
        sha: root
            .get("sha")
            .and_then(Json::as_str)
            .unwrap_or("unknown")
            .to_string(),
        seed: root.get("seed").and_then(Json::as_f64).unwrap_or(0.0) as u64,
        trials: root.get("trials").and_then(Json::as_f64).unwrap_or(0.0) as u64,
        peak_rss_bytes: root
            .get("peak_rss_bytes")
            .and_then(Json::as_f64)
            .map(|b| b as u64),
        experiments,
    })
}

/// The result of a regression check.
#[derive(Debug)]
pub struct RegressionReport {
    /// The markdown delta table (for stdout and `$GITHUB_STEP_SUMMARY`).
    pub markdown: String,
    /// Human-readable gate failures; empty means the gate passes.
    pub failures: Vec<String>,
}

impl RegressionReport {
    /// Whether the gate passed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The gated metric of each row of `experiment`, by the row's key.
///
/// # Errors
///
/// A key or metric column is missing, a metric does not parse, or two rows
/// share a key.
pub(crate) fn keyed_rows(
    experiment: &BenchExperiment,
    gate: &Gate,
) -> Result<BTreeMap<String, f64>, String> {
    let column = |name: &str, what: &str| {
        experiment
            .columns
            .iter()
            .position(|c| c == name)
            .ok_or_else(|| format!("{}: missing {what} column '{name}'", experiment.name))
    };
    let key_indices: Vec<usize> = gate
        .keys
        .iter()
        .map(|key| column(key, "key"))
        .collect::<Result<_, _>>()?;
    let metric = gate.metric;
    let metric_index = column(metric, "metric")?;
    let mut out = BTreeMap::new();
    for row in &experiment.rows {
        let key = key_indices
            .iter()
            .map(|&i| row.get(i).map(String::as_str).unwrap_or("?"))
            .collect::<Vec<_>>()
            .join(" · ");
        let value: f64 = row
            .get(metric_index)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("{}: unparsable {metric} in row {key}", experiment.name))?;
        if out.insert(key.clone(), value).is_some() {
            return Err(format!(
                "{}: two rows share the key '{key}' ({})",
                experiment.name,
                gate.keys.join(", ")
            ));
        }
    }
    Ok(out)
}

/// Compares `current` against `baseline`: enforced metrics may not drop by
/// more than `tolerance` (a fraction, e.g. `0.25`), and every baseline row
/// must still exist. Returns the markdown delta table and the failures.
pub fn check_regression(
    current: &BenchRun,
    baseline: &BenchRun,
    tolerance: f64,
) -> RegressionReport {
    let mut failures = Vec::new();
    let mut markdown = String::new();
    markdown.push_str("## Bench regression check\n\n");
    markdown.push_str(&format!(
        "baseline `{}` (seed {}, trials {}) → current `{}` (seed {}, trials {}), \
         tolerance {:.0}%\n\n",
        baseline.sha,
        baseline.seed,
        baseline.trials,
        current.sha,
        current.seed,
        current.trials,
        tolerance * 100.0
    ));
    if current.peak_rss_bytes.is_some() || baseline.peak_rss_bytes.is_some() {
        let mib = |bytes: Option<u64>| match bytes {
            Some(b) => format!("{:.0} MiB", b as f64 / (1024.0 * 1024.0)),
            None => "unknown".to_string(),
        };
        markdown.push_str(&format!(
            "peak RSS: baseline {} → current {}\n\n",
            mib(baseline.peak_rss_bytes),
            mib(current.peak_rss_bytes)
        ));
    }
    if current.seed != baseline.seed || current.trials != baseline.trials {
        failures.push(format!(
            "artifacts are not comparable: baseline ran seed {} / trials {}, current ran \
             seed {} / trials {} — refresh the baseline with the pinned configuration",
            baseline.seed, baseline.trials, current.seed, current.trials
        ));
    }
    markdown.push_str("| experiment | row | baseline | current | Δ | status |\n");
    markdown.push_str("|---|---|---:|---:|---:|---|\n");
    for table in tables() {
        let Some(gate) = &table.gate else {
            continue;
        };
        let (name, enforced) = (table.record, table.enforced());
        let (Some(base_exp), Some(cur_exp)) = (baseline.experiment(name), current.experiment(name))
        else {
            // An enforced gate must have rows on BOTH sides: a baseline
            // regenerated without `workload`/`network` would otherwise
            // silently disable the check forever.
            if enforced {
                let missing_from = if baseline.experiment(name).is_none() {
                    "baseline (regenerate it with the pinned recipe)"
                } else {
                    "current artifact"
                };
                failures.push(format!(
                    "enforced experiment '{name}' is missing from the {missing_from}"
                ));
            }
            continue;
        };
        let base_rows = match keyed_rows(base_exp, gate) {
            Ok(rows) => rows,
            Err(error) => {
                failures.push(format!("baseline {error}"));
                continue;
            }
        };
        let cur_rows = match keyed_rows(cur_exp, gate) {
            Ok(rows) => rows,
            Err(error) => {
                failures.push(format!("current {error}"));
                continue;
            }
        };
        for (key, base_value) in &base_rows {
            let Some(cur_value) = cur_rows.get(key) else {
                if enforced {
                    failures.push(format!(
                        "{name}: row '{key}' disappeared from the current artifact"
                    ));
                }
                markdown.push_str(&format!(
                    "| {name} | {key} | {base_value:.1} | — | — | {} |\n",
                    if enforced {
                        "**FAIL** (missing)"
                    } else {
                        "info"
                    }
                ));
                continue;
            };
            if *base_value == 0.0 {
                // No baseline signal to compute a percentage against: a
                // 0 → ε flip is a new signal, not a 0.0% no-op (and never
                // Inf/NaN in the table). It cannot regress — only inform.
                markdown.push_str(&format!(
                    "| {name} | {key} | 0.0 | {cur_value:.1} | new signal | info |\n"
                ));
                continue;
            }
            let delta = (cur_value - base_value) / base_value;
            let regressed = enforced && delta < -tolerance;
            if regressed {
                failures.push(format!(
                    "{name}: '{key}' dropped {:.1}% ({base_value:.1} → {cur_value:.1}, \
                     tolerance {:.0}%)",
                    -delta * 100.0,
                    tolerance * 100.0
                ));
            }
            let status = if regressed {
                "**FAIL**"
            } else if enforced {
                "ok"
            } else {
                "info"
            };
            markdown.push_str(&format!(
                "| {name} | {key} | {base_value:.1} | {cur_value:.1} | {:+.1}% | {status} |\n",
                delta * 100.0
            ));
        }
        for key in cur_rows.keys() {
            if !base_rows.contains_key(key) {
                markdown.push_str(&format!("| {name} | {key} | — | new | — | info |\n"));
            }
        }
    }
    markdown.push('\n');
    if failures.is_empty() {
        markdown.push_str("**PASS** — no enforced throughput row regressed.\n");
    } else {
        markdown.push_str(&format!("**FAIL** — {} problem(s):\n", failures.len()));
        for failure in &failures {
            markdown.push_str(&format!("- {failure}\n"));
        }
    }
    RegressionReport { markdown, failures }
}

/// What `reproduce --check-regression` runs: [`check_regression`], then
/// every declared check on `current` ([`check_artifact`]), in one report.
pub fn check_regression_and_artifact(
    current: &BenchRun,
    baseline: &BenchRun,
    tolerance: f64,
) -> RegressionReport {
    let mut report = check_regression(current, baseline, tolerance);
    let failures = check_artifact(current);
    let mut markdown = String::from("\n## Declared artifact checks\n\n");
    if failures.is_empty() {
        markdown.push_str("**PASS** — every check holds.\n");
    }
    for failure in &failures {
        markdown.push_str(&format!("- **FAIL** {failure}\n"));
    }
    report.markdown.push_str(&markdown);
    report.failures.extend(failures);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ArtifactStream;
    use probequorum::prelude::Table;
    use std::time::Duration;

    /// The artifact document of `records` (name, wall time, table),
    /// written through a byte-buffer stream with one thread.
    fn document(
        sha: &str,
        seed: u64,
        trials: usize,
        records: &[(&str, Duration, Table)],
    ) -> String {
        let mut stream = ArtifactStream::new(Vec::new(), sha, seed, trials, 1).unwrap();
        for (name, wall, table) in records {
            stream.record_table(name, *wall, table).unwrap();
        }
        String::from_utf8(stream.finish(None).unwrap()).unwrap()
    }

    /// A minimal but gate-complete artifact: `workload` rows as given,
    /// constant `network`, `scale`, `live`, `chaos`, `churn-delta` and
    /// `compose` rows (every enforced gate needs rows on both sides), and
    /// optional wall-clock `throughput` / `scale-throughput` /
    /// `live-throughput` / `chaos-throughput` rows.
    fn artifact_parts(thr: &[(&str, f64)], wall_rate: Option<f64>) -> String {
        artifact_parts_full(thr, wall_rate, 0.875, "1", "1", "1", "1")
    }

    fn artifact_parts_with_scale(
        thr: &[(&str, f64)],
        wall_rate: Option<f64>,
        scale_avail: f64,
    ) -> String {
        artifact_parts_full(thr, wall_rate, scale_avail, "1", "1", "1", "1")
    }

    fn artifact_parts_full(
        thr: &[(&str, f64)],
        wall_rate: Option<f64>,
        scale_avail: f64,
        live_agree: &str,
        chaos_agree: &str,
        churn_delta_agree: &str,
        compose_agree: &str,
    ) -> String {
        let mut table = Table::new([
            "system",
            "n",
            "strategy",
            "workload",
            "scenario",
            "thr_per_s",
        ]);
        for (name, value) in thr {
            table.add_row(vec![
                (*name).into(),
                "15".into(),
                "Probe_Maj".into(),
                "open".into(),
                "iid".into(),
                format!("{value:.1}"),
            ]);
        }
        let mut net = Table::new([
            "system",
            "n",
            "strategy",
            "net",
            "policy",
            "scenario",
            "thr_per_s",
        ]);
        net.add_row(vec![
            "Maj".into(),
            "15".into(),
            "Probe_Maj".into(),
            "clean".into(),
            "naive".into(),
            "iid".into(),
            "500.0".into(),
        ]);
        let mut scale = Table::new([
            "family",
            "n",
            "p",
            "trials",
            "avail",
            "fail_prob",
            "std_err",
        ]);
        scale.add_row(vec![
            "Grid".into(),
            "1000000".into(),
            "0.25".into(),
            "500".into(),
            format!("{scale_avail:.6}"),
            format!("{:.6}", 1.0 - scale_avail),
            "0.010000".into(),
        ]);
        let mut live = Table::new([
            "system", "n", "strategy", "scenario", "policy", "sessions", "agree", "ok_rate",
            "probes", "msgs", "wasted",
        ]);
        live.add_row(vec![
            "Maj".into(),
            "15".into(),
            "Probe_Maj".into(),
            "lossy".into(),
            "r3/b300us".into(),
            "60".into(),
            live_agree.into(),
            "0.950".into(),
            "8.00".into(),
            "16.50".into(),
            "0.020".into(),
        ]);
        let mut chaos = Table::new([
            "system",
            "n",
            "strategy",
            "scenario",
            "policy",
            "sessions",
            "agree",
            "ok_rate",
            "probes",
            "wasted",
            "degraded",
            "lost",
            "recovered",
            "recov_max_us",
        ]);
        chaos.add_row(vec![
            "Maj".into(),
            "15".into(),
            "Probe_Maj".into(),
            "crash-minority".into(),
            "r2/b300us+health".into(),
            "60".into(),
            chaos_agree.into(),
            "0.900".into(),
            "7.50".into(),
            "0.030".into(),
            "4".into(),
            "11".into(),
            "5/5".into(),
            "1840".into(),
        ]);
        let mut churn_delta = Table::new([
            "family",
            "n",
            "regime",
            "fail",
            "repair",
            "steps",
            "flips",
            "verdict_changes",
            "outage_frac",
            "agree",
        ]);
        churn_delta.add_row(vec![
            "Grid".into(),
            "121".into(),
            "slow".into(),
            "0.016".into(),
            "0.125".into(),
            "500".into(),
            "840".into(),
            "6".into(),
            "0.040".into(),
            churn_delta_agree.into(),
        ]);
        let mut compose = Table::new([
            "spec",
            "n",
            "model",
            "min_q",
            "max_q",
            "quorums",
            "blocking",
            "intersect",
            "avail_lo",
            "avail_hi",
            "mc_avail",
            "agree",
        ]);
        compose.add_row(vec![
            "org-maj(5x5)".into(),
            "25".into(),
            "iid(p=0.3)".into(),
            "9".into(),
            "9".into(),
            "10000".into(),
            "10000".into(),
            "1".into(),
            "0.803".into(),
            "1.000".into(),
            "0.954".into(),
            compose_agree.into(),
        ]);
        let gated = Duration::from_millis(5);
        let mut records = vec![
            ("workload", gated, table),
            ("network", gated, net),
            ("scale", gated, scale),
            ("live", gated, live),
            ("chaos", gated, chaos),
            ("churn-delta", gated, churn_delta),
            ("compose", gated, compose),
        ];
        if let Some(rate) = wall_rate {
            let mut wall = Table::new(["family", "n", "path", "trials_per_sec"]);
            wall.add_row(vec![
                "Maj".into(),
                "64".into(),
                "probes/engine".into(),
                format!("{rate:.1}"),
            ]);
            records.push(("throughput", Duration::ZERO, wall));
            let mut lanes = Table::new([
                "family",
                "n",
                "width",
                "p",
                "trials",
                "wall_ms",
                "lane_trials_per_s",
            ]);
            lanes.add_row(vec![
                "Grid".into(),
                "1000000".into(),
                "8".into(),
                "0.25".into(),
                "500".into(),
                "12.0".into(),
                format!("{:.0}", rate * 1.0e6),
            ]);
            records.push(("scale-throughput", Duration::ZERO, lanes));
            let mut live_rates = Table::new([
                "system",
                "n",
                "scenario",
                "policy",
                "sessions",
                "wall_ms",
                "sessions_per_s",
                "p50_ms",
                "p99_ms",
            ]);
            live_rates.add_row(vec![
                "Maj".into(),
                "15".into(),
                "lossy".into(),
                "r3/b300us".into(),
                "60".into(),
                "4.0".into(),
                format!("{:.0}", rate * 100.0),
                "0.050".into(),
                "0.400".into(),
            ]);
            records.push(("live-throughput", Duration::ZERO, live_rates));
            let mut chaos_rates = Table::new([
                "system",
                "n",
                "scenario",
                "policy",
                "sessions",
                "wall_ms",
                "sessions_per_s",
                "p50_ms",
                "p99_ms",
            ]);
            chaos_rates.add_row(vec![
                "Maj".into(),
                "15".into(),
                "crash-minority".into(),
                "r2/b300us+health".into(),
                "60".into(),
                "4.0".into(),
                format!("{:.0}", rate * 100.0),
                "0.050".into(),
                "0.400".into(),
            ]);
            records.push(("chaos-throughput", Duration::ZERO, chaos_rates));
        }
        document("testsha", 2001, 500, &records)
    }

    fn artifact_with(thr: &[(&str, f64)]) -> String {
        artifact_parts(thr, None)
    }

    #[test]
    fn round_trips_the_artifact_schema() {
        let json = artifact_with(&[("Maj", 1234.5), ("Tree", 999.0)]);
        let run = parse_artifact(&json).expect("own schema parses");
        assert_eq!(run.sha, "testsha");
        assert_eq!(run.seed, 2001);
        assert_eq!(run.trials, 500);
        let workload = run.experiment("workload").expect("recorded");
        assert_eq!(workload.rows.len(), 2);
        assert_eq!(workload.columns[5], "thr_per_s");
        assert_eq!(workload.rows[0][5], "1234.5");
    }

    #[test]
    fn parser_handles_escapes_and_rejects_garbage() {
        let mut table = Table::new(["system", "mean"]);
        table.add_row(vec!["say \"hi\"\\ \n".into(), "1.0".into()]);
        let json = document("s", 1, 1, &[("x", Duration::ZERO, table)]);
        let run = parse_artifact(&json).expect("escapes survive");
        assert_eq!(run.experiments[0].rows[0][0], "say \"hi\"\\ \n");
        assert!(parse_artifact("{").is_err());
        assert!(parse_artifact("[]").is_err(), "wrong root shape");
        assert!(parse_artifact("{\"schema\": \"other/1\"}").is_err());
    }

    #[test]
    fn parser_bounds_nesting_on_a_small_stack() {
        // Run where the default thread stack is small: unbounded recursion
        // overflowed a 2 MiB stack at 10 000 levels.
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
                // At the bound the text parses; the root is not an artifact.
                assert_eq!(
                    parse_artifact(&nested(MAX_NESTING)).unwrap_err(),
                    "missing schema field"
                );
                let past = format!(
                    "JSON parse error at byte {MAX_NESTING}: nesting deeper than {MAX_NESTING} levels"
                );
                assert_eq!(parse_artifact(&nested(MAX_NESTING + 1)).unwrap_err(), past);
                assert_eq!(parse_artifact(&"[".repeat(100_000)).unwrap_err(), past);
                let objects = "{\"a\":".repeat(MAX_NESTING + 1);
                assert_eq!(
                    parse_artifact(&objects).unwrap_err(),
                    format!(
                        "JSON parse error at byte {}: nesting deeper than {MAX_NESTING} levels",
                        5 * MAX_NESTING
                    )
                );
            })
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn matching_artifacts_pass() {
        let json = artifact_with(&[("Maj", 1000.0)]);
        let run = parse_artifact(&json).unwrap();
        let report = check_regression(&run, &run, 0.25);
        assert!(report.passed(), "{:?}", report.failures);
        assert!(report.markdown.contains("**PASS**"));
        assert!(report.markdown.contains("| workload |"));
    }

    #[test]
    fn drops_beyond_tolerance_fail_and_within_pass() {
        let baseline = parse_artifact(&artifact_with(&[("Maj", 1000.0)])).unwrap();
        let slower = parse_artifact(&artifact_with(&[("Maj", 700.0)])).unwrap();
        let report = check_regression(&slower, &baseline, 0.25);
        assert!(!report.passed());
        assert!(report.markdown.contains("**FAIL**"));
        assert!(report.failures[0].contains("dropped 30.0%"));
        // The same drop passes a looser gate, and improvements always pass.
        assert!(check_regression(&slower, &baseline, 0.35).passed());
        let faster = parse_artifact(&artifact_with(&[("Maj", 2000.0)])).unwrap();
        assert!(check_regression(&faster, &baseline, 0.25).passed());
    }

    #[test]
    fn a_zero_baseline_reports_a_new_signal_not_a_percentage() {
        // Regression: a 0 → ε flip used to render as "+0.0% ok" (and a naive
        // division would print Inf/NaN). It must show up as a clean
        // informational "new signal" row and never fail the gate.
        let baseline = parse_artifact(&artifact_with(&[("Maj", 0.0)])).unwrap();
        let current = parse_artifact(&artifact_with(&[("Maj", 750.0)])).unwrap();
        let report = check_regression(&current, &baseline, 0.25);
        assert!(report.passed(), "{:?}", report.failures);
        assert!(report
            .markdown
            .contains("| 0.0 | 750.0 | new signal | info |"));
        assert!(!report.markdown.contains("inf%"));
        assert!(!report.markdown.contains("NaN%"));
    }

    #[test]
    fn a_baseline_without_an_enforced_experiment_fails_loudly() {
        // A baseline regenerated from a partial experiment list must not
        // silently disable the gate.
        let empty = parse_artifact(&document("empty", 2001, 500, &[])).unwrap();
        let current = parse_artifact(&artifact_with(&[("Maj", 1000.0)])).unwrap();
        let report = check_regression(&current, &empty, 0.25);
        assert!(!report.passed());
        assert!(report
            .failures
            .iter()
            .any(|f| f.contains("missing from the baseline")));
    }

    #[test]
    fn missing_rows_and_mismatched_configs_fail() {
        let baseline = parse_artifact(&artifact_with(&[("Maj", 1000.0), ("Tree", 500.0)])).unwrap();
        let partial = parse_artifact(&artifact_with(&[("Maj", 1000.0)])).unwrap();
        let report = check_regression(&partial, &baseline, 0.25);
        assert!(!report.passed());
        assert!(report.failures[0].contains("disappeared"));

        let mut other_config = baseline.clone();
        other_config.trials = 200;
        let report = check_regression(&other_config, &baseline, 0.25);
        assert!(!report.passed());
        assert!(report.failures[0].contains("not comparable"));
    }

    #[test]
    fn wall_clock_gates_are_informational() {
        // A 100x wall-clock slowdown is reported but never fails the gate.
        let baseline = parse_artifact(&artifact_parts(&[("Maj", 1000.0)], Some(100.0))).unwrap();
        let current = parse_artifact(&artifact_parts(&[("Maj", 1000.0)], Some(1.0))).unwrap();
        let report = check_regression(&current, &baseline, 0.25);
        assert!(
            report.passed(),
            "wall-clock drops must not fail the gate: {:?}",
            report.failures
        );
        assert!(report.markdown.contains("| throughput |"));
        assert!(report.markdown.contains("info"));
        // Lane-engine wall-clock rates ride the same informational path: a
        // 1000x slowdown in lane_trials_per_s never fails the gate.
        assert!(report.markdown.contains("| scale-throughput |"));
        // As do the live runtime's wall-clock sessions/second.
        assert!(report.markdown.contains("| live-throughput |"));
    }

    #[test]
    fn scale_availability_is_an_enforced_gate() {
        // The million-element availabilities are deterministic functions of
        // (seed, trials); a large drop means the lane engine changed
        // behaviour and must fail the gate.
        let baseline =
            parse_artifact(&artifact_parts_with_scale(&[("Maj", 1000.0)], None, 0.9)).unwrap();
        let broken =
            parse_artifact(&artifact_parts_with_scale(&[("Maj", 1000.0)], None, 0.5)).unwrap();
        let report = check_regression(&broken, &baseline, 0.25);
        assert!(!report.passed());
        assert!(report.failures.iter().any(|f| f.contains("scale:")));
        assert!(report.markdown.contains("| scale |"));
    }

    #[test]
    fn a_live_agreement_flip_fails_the_gate() {
        // `agree` is printed "1"/"0": a flip to "0" is a 100 % drop on an
        // enforced metric, so a live runtime that stops reproducing the
        // simulator's observables cannot pass CI.
        let baseline = parse_artifact(&artifact_parts_full(
            &[("Maj", 1000.0)],
            None,
            0.875,
            "1",
            "1",
            "1",
            "1",
        ))
        .unwrap();
        let diverged = parse_artifact(&artifact_parts_full(
            &[("Maj", 1000.0)],
            None,
            0.875,
            "0",
            "1",
            "1",
            "1",
        ))
        .unwrap();
        let report = check_regression(&diverged, &baseline, 0.25);
        assert!(!report.passed());
        assert!(
            report.failures.iter().any(|f| f.contains("live:")),
            "{:?}",
            report.failures
        );
        assert!(report.markdown.contains("| live |"));
        // Agreement holding on both sides passes.
        let report = check_regression(&baseline, &baseline, 0.25);
        assert!(report.passed(), "{:?}", report.failures);
    }

    #[test]
    fn a_chaos_agreement_flip_fails_the_gate() {
        // The chaos battery's agree flag carries the crash-loss ledger and
        // queue-drain invariant too: a live runtime that leaks requests or
        // diverges under crash/stall/restart cannot pass CI.
        let baseline = parse_artifact(&artifact_parts_full(
            &[("Maj", 1000.0)],
            None,
            0.875,
            "1",
            "1",
            "1",
            "1",
        ))
        .unwrap();
        let diverged = parse_artifact(&artifact_parts_full(
            &[("Maj", 1000.0)],
            None,
            0.875,
            "1",
            "0",
            "1",
            "1",
        ))
        .unwrap();
        let report = check_regression(&diverged, &baseline, 0.25);
        assert!(!report.passed());
        assert!(
            report.failures.iter().any(|f| f.contains("chaos:")),
            "{:?}",
            report.failures
        );
        assert!(report.markdown.contains("| chaos |"));
        // A baseline regenerated without the chaos experiment must fail
        // loudly rather than silently disabling the gate.
        let mut without = baseline.clone();
        without.experiments.retain(|e| e.name != "chaos");
        let report = check_regression(&baseline, &without, 0.25);
        assert!(!report.passed());
        assert!(report
            .failures
            .iter()
            .any(|f| f.contains("'chaos' is missing from the baseline")));
    }

    #[test]
    fn a_churn_delta_agreement_flip_fails_the_gate() {
        // The delta engine's equivalence flag is enforced: any churn step
        // where incremental evaluation disagreed with from-scratch
        // evaluation flips agree to "0" — a 100 % drop — and fails CI.
        let baseline = parse_artifact(&artifact_parts_full(
            &[("Maj", 1000.0)],
            None,
            0.875,
            "1",
            "1",
            "1",
            "1",
        ))
        .unwrap();
        let diverged = parse_artifact(&artifact_parts_full(
            &[("Maj", 1000.0)],
            None,
            0.875,
            "1",
            "1",
            "0",
            "1",
        ))
        .unwrap();
        let report = check_regression(&diverged, &baseline, 0.25);
        assert!(!report.passed());
        assert!(
            report.failures.iter().any(|f| f.contains("churn-delta:")),
            "{:?}",
            report.failures
        );
        assert!(report.markdown.contains("| churn-delta |"));
        // A baseline regenerated without the experiment fails loudly.
        let mut without = baseline.clone();
        without.experiments.retain(|e| e.name != "churn-delta");
        let report = check_regression(&baseline, &without, 0.25);
        assert!(!report.passed());
        assert!(report
            .failures
            .iter()
            .any(|f| f.contains("'churn-delta' is missing from the baseline")));
    }

    #[test]
    fn a_compose_certificate_flip_fails_the_gate() {
        // The compose experiment's agree flag ANDs every certificate a row
        // runs (intersection, lane/delta/native agreement, availability
        // bounds, sim-vs-live): a flip to "0" is a 100 % drop on an
        // enforced metric and fails CI.
        let baseline = parse_artifact(&artifact_parts_full(
            &[("Maj", 1000.0)],
            None,
            0.875,
            "1",
            "1",
            "1",
            "1",
        ))
        .unwrap();
        let broken = parse_artifact(&artifact_parts_full(
            &[("Maj", 1000.0)],
            None,
            0.875,
            "1",
            "1",
            "1",
            "0",
        ))
        .unwrap();
        let report = check_regression(&broken, &baseline, 0.25);
        assert!(!report.passed());
        assert!(
            report.failures.iter().any(|f| f.contains("compose:")),
            "{:?}",
            report.failures
        );
        assert!(report.markdown.contains("| compose |"));
        // A baseline regenerated without the experiment fails loudly.
        let mut without = baseline.clone();
        without.experiments.retain(|e| e.name != "compose");
        let report = check_regression(&baseline, &without, 0.25);
        assert!(!report.passed());
        assert!(report
            .failures
            .iter()
            .any(|f| f.contains("'compose' is missing from the baseline")));
    }

    #[test]
    fn peak_rss_round_trips_and_is_reported() {
        let mut stream = ArtifactStream::new(Vec::new(), "rss-sha", 2001, 500, 1).unwrap();
        stream
            .record_table("x", Duration::ZERO, &Table::new(["a"]))
            .unwrap();
        let json = String::from_utf8(stream.finish(Some(512 * 1024 * 1024)).unwrap()).unwrap();
        let with_rss = parse_artifact(&json).unwrap();
        assert_eq!(with_rss.peak_rss_bytes, Some(512 * 1024 * 1024));

        let without = parse_artifact(&artifact_with(&[("Maj", 1.0)])).unwrap();
        assert_eq!(without.peak_rss_bytes, None);

        let report = check_regression(&with_rss, &with_rss, 0.25);
        assert!(report
            .markdown
            .contains("peak RSS: baseline 512 MiB → current 512 MiB"));
        let no_rss_report = check_regression(&without, &without, 0.25);
        assert!(!no_rss_report.markdown.contains("peak RSS"));
    }

    #[test]
    fn duplicate_gate_keys_fail_naming_the_experiment_and_key() {
        let twice = parse_artifact(&artifact_with(&[("Maj", 1000.0), ("Maj", 900.0)])).unwrap();
        let report = check_regression(&twice, &twice, 0.25);
        assert!(!report.passed());
        assert!(
            report.failures.iter().any(|f| f
                .contains("workload: two rows share the key 'Maj · 15 · Probe_Maj · open · iid'")),
            "{:?}",
            report.failures
        );
        // `p` is part of the scale-throughput key, so all 18 rows reach the
        // gate instead of the 9 a `family, n, width` key kept.
        let baseline = parse_artifact(include_str!("../baseline.json")).unwrap();
        let table = tables().find(|t| t.record == "scale-throughput").unwrap();
        let record = baseline.experiment("scale-throughput").unwrap();
        let rows = keyed_rows(record, table.gate.as_ref().unwrap()).unwrap();
        assert_eq!(rows.len(), 18);
    }

    fn record<'a>(run: &'a mut BenchRun, name: &str) -> &'a mut BenchExperiment {
        run.experiments.iter_mut().find(|e| e.name == name).unwrap()
    }

    /// Sets `column` to `value` in every row of `name` whose `when.0`
    /// column reads `when.1`.
    fn set(run: &mut BenchRun, name: &str, when: (&str, &str), column: &str, value: &str) {
        let record = record(run, name);
        let index = |name: &str| record.columns.iter().position(|c| c == name).unwrap();
        let (when_index, column_index) = (index(when.0), index(column));
        for row in &mut record.rows {
            if row[when_index] == when.1 {
                row[column_index] = value.to_string();
            }
        }
    }

    #[test]
    fn each_check_kind_fails_on_a_violating_record() {
        // The committed baseline passed CI's checks; each case breaks one.
        let baseline = parse_artifact(include_str!("../baseline.json")).unwrap();
        assert_eq!(check_artifact(&baseline), Vec::<String>::new());
        let report = check_regression_and_artifact(&baseline, &baseline, 0.25);
        assert!(report.passed(), "{:?}", report.failures);
        assert!(report.markdown.contains("every check holds"));
        type Violate = fn(&mut BenchRun);
        let cases: [(Violate, &str); 7] = [
            (
                |run| set(run, "compose", ("agree", "1"), "agree", "0"),
                r#"compose: Every("agree", Is("1")): 8 row(s) fail"#,
            ),
            (
                |run| drop(record(run, "chaos").rows.pop()),
                "chaos: Rows(24): found 23",
            ),
            (
                |run| set(run, "live", ("scenario", "flapping"), "scenario", "flap"),
                r#"live: Covers("scenario", ["clean", "lossy", "heavy-tail", "minority-part", "flapping", "asym-split"]): missing ["flapping"]"#,
            ),
            (
                |run| {
                    set(
                        run,
                        "live-throughput",
                        ("scenario", "lossy"),
                        "sessions_per_s",
                        "12.5",
                    )
                },
                r#"live-throughput: Every("sessions_per_s", AtLeast(50.0)): 2 row(s) fail"#,
            ),
            (
                |run| set(run, "chaos", ("scenario", "crash-part"), "lost", "0"),
                r#"chaos: When("scenario", In(["crash-minority", "crash-part"]), "lost", Above(0.0)): 6 row(s) fail"#,
            ),
            (
                |run| run.peak_rss_bytes = None,
                "scale: PeakRss: not recorded",
            ),
            (
                |run| run.experiments.retain(|e| e.name != "throughput"),
                "throughput: not in the artifact",
            ),
        ];
        for (violate, expected) in cases {
            let mut run = baseline.clone();
            violate(&mut run);
            let failures = check_artifact(&run);
            assert_eq!(failures.len(), 1, "{failures:?}");
            assert!(failures[0].starts_with(expected), "{failures:?}");
            let report = check_regression_and_artifact(&run, &baseline, 0.25);
            assert!(!report.passed());
            assert!(report
                .markdown
                .contains(&format!("- **FAIL** {}", failures[0])));
        }
    }
}
