//! What a workload run reports, and the two forms it is written in: the
//! one-object last line of the contract, and a provenance row appended
//! to `benchmark/out/rows.jsonl`.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

use serde::Deserialize;

use crate::host;

/// Loopback over a Unix socket (or none, for the in-process simulator).
pub const TRANSPORT: &str = "uds-loopback";

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    /// How many measurements the value summarises.
    pub samples: u64,
}

/// One run of one workload in one trace mode.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Ops issued plus correctness checks made.
    pub attempted: u64,
    /// Ops that failed plus checks that did not hold.
    pub failed: u64,
    /// What failed, for the human reading the log.
    pub failures: Vec<String>,
}

impl Outcome {
    pub fn push(&mut self, name: &str, value: f64, samples: u64) {
        self.metrics.push(Metric { name: name.to_string(), value, samples });
    }

    /// Record a correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// Where a run came from; recorded beside every row so runs from
/// different hosts or commits are never compared by accident.
pub struct Provenance<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub fsync: String,
    pub git_rev: String,
}

/// Shortest round-trip formatting: every digit measured, nothing padded.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn metrics_object(outcome: &Outcome, unit_of: &dyn Fn(&str) -> String) -> String {
    let mut out = String::from("{");
    for (i, m) in outcome.metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            number(m.value),
            unit_of(&m.name)
        );
    }
    out.push('}');
    out
}

/// The contract's result object: exactly `correct`, `attempted`,
/// `failed`, `metrics`.
pub fn result_line(outcome: &Outcome, unit_of: &dyn Fn(&str) -> String) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed,
        metrics_object(outcome, unit_of)
    )
}

/// Every metric by name, with its unit and sample count.
pub fn print_table(outcome: &Outcome, unit_of: &dyn Fn(&str) -> String) {
    for m in &outcome.metrics {
        println!("{:<34} {:>16.6} {:<6} n={}", m.name, m.value, unit_of(&m.name), m.samples);
    }
    for f in &outcome.failures {
        println!("FAILED: {f}");
    }
}

/// Append the run to the row file `rows`.
pub fn append_row(
    rows: &Path,
    p: &Provenance<'_>,
    outcome: &Outcome,
    unit_of: &dyn Fn(&str) -> String,
) -> std::io::Result<()> {
    if let Some(dir) = rows.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let row = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"git_rev\": \"{}\", \"host_parallelism\": {}, \"transport\": \"{TRANSPORT}\", \
         \"fsync\": \"{}\", \"claim\": null, \"correct\": {}, \"attempted\": {}, \
         \"failed\": {}, \"metrics\": {}}}\n",
        p.workload,
        p.seed,
        number(p.seconds),
        u8::from(p.trace),
        p.git_rev,
        host::parallelism(),
        p.fsync,
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        metrics_object(outcome, unit_of)
    );
    std::fs::OpenOptions::new().create(true).append(true).open(rows)?.write_all(row.as_bytes())
}

/// A child run's last line, parsed back.
#[derive(Debug, Clone, Deserialize)]
pub struct ParsedValue {
    pub value: f64,
    pub unit: String,
}

#[derive(Debug, Clone)]
pub struct ParsedResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, ParsedValue)>,
}

/// Parse the contract's result object. The vendored `serde_json` has no
/// map type, so the `metrics` object is walked by hand: it is flat, and
/// this harness wrote it.
pub fn parse_result(line: &str) -> Result<ParsedResult, String> {
    #[derive(Deserialize)]
    struct Head {
        correct: bool,
        attempted: u64,
        failed: u64,
    }
    let at = line.find("\"metrics\":").ok_or("no metrics key")?;
    let head_text = format!("{}}}", line[..at].trim_end().trim_end_matches(','));
    let head: Head = serde_json::from_str(&head_text).map_err(|e| e.to_string())?;
    let body = line[at + "\"metrics\":".len()..].trim();
    let body = body.strip_prefix('{').and_then(|b| b.strip_suffix("}}")).ok_or("bad metrics")?;
    let mut metrics = Vec::new();
    let mut rest = body.trim();
    while !rest.is_empty() {
        let rest_q = rest.strip_prefix('"').ok_or("expected a metric name")?;
        let (name, after) = rest_q.split_once('"').ok_or("unterminated name")?;
        let after = after.trim_start().strip_prefix(':').ok_or("expected ':'")?.trim_start();
        let end = after.find('}').ok_or("unterminated value")? + 1;
        let value: ParsedValue = serde_json::from_str(&after[..end]).map_err(|e| e.to_string())?;
        metrics.push((name.to_string(), value));
        rest = after[end..].trim_start().trim_start_matches(',').trim_start();
    }
    Ok(ParsedResult {
        correct: head.correct,
        attempted: head.attempted,
        failed: head.failed,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let mut o = Outcome::default();
        o.push("setup_s", 0.8127, 3);
        o.push("net.frame.encode_ns", 1203.4, 4096);
        o.attempted = 1000;
        let unit = |n: &str| if n == "setup_s" { "s".to_string() } else { "ns".to_string() };
        let line = result_line(&o, &unit);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1000, \"failed\": 0"));
        let parsed = parse_result(&line).unwrap();
        assert!(parsed.correct);
        assert_eq!(parsed.attempted, 1000);
        assert_eq!(parsed.metrics.len(), 2);
        assert_eq!(parsed.metrics[0].0, "setup_s");
        assert_eq!(parsed.metrics[0].1.value, 0.8127);
        assert_eq!(parsed.metrics[1].1.unit, "ns");
    }

    #[test]
    fn failed_checks_make_the_run_incorrect() {
        let mut o = Outcome::default();
        o.check(true, || "fine".into());
        o.check(false, || "conservation".into());
        assert!(!o.correct());
        assert_eq!((o.attempted, o.failed), (2, 1));
        assert_eq!(o.failures, ["conservation"]);
    }
}
