//! The commands that run workloads as fresh child processes of this
//! binary — one process per workload, so no workload sees another's heap,
//! threads or page cache — and compare what they reported.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::manifest::Manifest;
use crate::report::{parse_result, ParsedResult};
use crate::workloads::DEFAULT_SEED;
use crate::{Flags, Layout};

/// Run one workload in a child process and parse its last line.
fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    rows: Option<&Path>,
) -> Result<ParsedResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(rows) = rows {
        cmd.arg("--rows").arg(rows);
    }
    let output = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!("{workload} (trace={trace}) exited with {}", output.status));
    }
    for line in stdout.lines().filter(|l| l.starts_with("FAILED")) {
        eprintln!("{workload}: {line}");
    }
    let last = stdout.lines().last().ok_or_else(|| format!("{workload}: no output"))?;
    parse_result(last).map_err(|e| format!("{workload}: bad result line: {e}"))
}

fn selected(layout: &Layout, flags: &Flags) -> Result<Vec<String>, String> {
    let all = layout.manifest.workloads.iter().map(|w| w.name.clone());
    match flags.get("workload") {
        Some(one) => {
            let found: Vec<String> = all.filter(|w| w == one).collect();
            if found.is_empty() {
                return Err(format!("workload {one:?} is not in BENCHMARK.json"));
            }
            Ok(found)
        }
        None if flags.get("all").is_some() => Ok(all.collect()),
        None => Err("run needs --all or --workload W".into()),
    }
}

fn print_result(workload: &str, result: &ParsedResult) {
    for (name, v) in &result.metrics {
        println!("{workload:<12} {name:<34} {:>16.6} {}", v.value, v.unit);
    }
    println!(
        "{workload:<12} {:<34} {:>16} of {} attempted",
        if result.correct { "correct" } else { "INCORRECT" },
        result.failed,
        result.attempted
    );
}

/// `run`: every selected workload, untraced then traced, every metric
/// printed by name with its unit. False when any check failed.
pub fn run(layout: &Layout, flags: &Flags) -> Result<bool, String> {
    let seed = flags.number("seed", DEFAULT_SEED)?;
    let seconds = flags.number("seconds", layout.manifest.run_seconds as f64)?;
    let mut ok = true;
    for workload in selected(layout, flags)? {
        for trace in [false, true] {
            let result = child(&workload, seed, seconds, trace, None)?;
            print_result(&workload, &result);
            ok &= result.correct;
        }
    }
    Ok(ok)
}

/// One stored row: the provenance the comparison checks, and the metrics.
struct Row {
    workload: String,
    host_parallelism: u64,
    trace: u64,
    result: ParsedResult,
}

fn read_rows(path: &Path) -> Result<Vec<Row>, String> {
    #[derive(serde::Deserialize)]
    struct Head {
        workload: String,
        trace: u64,
        host_parallelism: u64,
    }
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            // The provenance keys precede `correct`; the rest is a
            // result object.
            let at = line.find("\"correct\"").ok_or("row without a result")?;
            let head_text = format!("{}}}", line[..at].trim_end().trim_end_matches(','));
            let head: Head = serde_json::from_str(&head_text).map_err(|e| e.to_string())?;
            let result = parse_result(&format!("{{{}", &line[at..]))?;
            Ok(Row {
                workload: head.workload,
                host_parallelism: head.host_parallelism,
                trace: head.trace,
                result,
            })
        })
        .collect::<Result<Vec<Row>, String>>()
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// `compare`: per (workload, end-to-end metric) the relative difference
/// of file B against file A — the median over a file's untraced rows of
/// the workload — beside the metric's bound. False when any differs by
/// more than its bound. Rows measured at different `host_parallelism` are
/// refused, not compared.
pub fn compare(manifest: &Manifest, a: &Path, b: &Path) -> Result<bool, String> {
    let (rows_a, rows_b) = (read_rows(a)?, read_rows(b)?);
    let mut hosts = rows_a.iter().chain(&rows_b).map(|r| r.host_parallelism);
    let first = hosts.next().ok_or("no rows to compare")?;
    if let Some(other) = hosts.find(|&h| h != first) {
        return Err(format!(
            "rows measured at host_parallelism {first} and {other} cannot be compared"
        ));
    }
    let mut ok = true;
    println!(
        "{:<12} {:<18} {:>14} {:>14} {:>9} {:>7}  host_parallelism={first}",
        "workload", "metric", "A", "B", "diff", "bound"
    );
    for w in &manifest.workloads {
        let of = |rows: &[Row]| -> Vec<ParsedResult> {
            rows.iter()
                .filter(|r| r.workload == w.name && r.trace == 0)
                .map(|r| r.result.clone())
                .collect()
        };
        let (runs_a, runs_b) = (of(&rows_a), of(&rows_b));
        if runs_a.is_empty() || runs_b.is_empty() {
            return Err(format!("{}: missing from one of the files", w.name));
        }
        ok &= runs_a.iter().chain(&runs_b).all(|r| r.correct);
        for m in &manifest.end_to_end {
            let value = |runs: &[ParsedResult]| -> Option<f64> {
                let values: Option<Vec<f64>> = runs
                    .iter()
                    .map(|r| r.metrics.iter().find(|(n, _)| *n == m.name).map(|(_, v)| v.value))
                    .collect();
                values.map(|v| crate::stats::median(&v))
            };
            let (Some(va), Some(vb)) = (value(&runs_a), value(&runs_b)) else {
                return Err(format!("{}: {} missing", w.name, m.name));
            };
            let diff = (vb - va) / va;
            let within = diff.abs() <= m.bound;
            ok &= within;
            println!(
                "{:<12} {:<18} {:>14.6} {:>14.6} {:>+8.2}% {:>6.0}%{}",
                w.name,
                m.name,
                va,
                vb,
                diff * 100.0,
                m.bound * 100.0,
                if within { "" } else { "  DISAGREES" }
            );
        }
    }
    Ok(ok)
}

/// Runs of each workload in each of `repeat`'s two sets. One run can
/// meet a slow fsync or a slow restart cycle (the host's disk is shared);
/// the median of three does not.
const RUNS_PER_SET: usize = 3;

/// `repeat`: two full untraced sets of the same code, back to back, then
/// `compare` their medians.
pub fn repeat(layout: &Layout, flags: &Flags) -> Result<bool, String> {
    let seed = flags.number("seed", DEFAULT_SEED)?;
    let seconds = flags.number("seconds", layout.manifest.run_seconds as f64)?;
    std::fs::create_dir_all(&layout.out).map_err(|e| format!("{}: {e}", layout.out.display()))?;
    let files: Vec<PathBuf> = ["a", "b"]
        .iter()
        .map(|set| layout.out.join(format!("repeat-{seed}-{set}.jsonl")))
        .collect();
    for file in &files {
        let _ = std::fs::remove_file(file);
        for w in &layout.manifest.workloads {
            for _ in 0..RUNS_PER_SET {
                let result = child(&w.name, seed, seconds, false, Some(file))?;
                if !result.correct {
                    return Err(format!("{}: a correctness check failed", w.name));
                }
            }
            eprintln!("{}: {} done", file.display(), w.name);
        }
    }
    compare(&layout.manifest, &files[0], &files[1])
}

/// `smoke`: one-second windows over every workload in both modes; every
/// name in `BENCHMARK.json` must come back exactly once, with its unit.
/// Only names and checks matter here, not timings, so a workload's two
/// modes run side by side.
pub fn smoke(layout: &Layout) -> Result<bool, String> {
    let started = Instant::now();
    let m = &layout.manifest;
    let mut ok = true;
    for w in &m.workloads {
        let run = |trace| child(&w.name, DEFAULT_SEED, 1.0, trace, None);
        let (plain, traced) = std::thread::scope(|s| {
            let traced = s.spawn(|| run(true));
            (run(false), traced.join().expect("child runner panicked"))
        });
        for (trace, result) in [(false, plain?), (true, traced?)] {
            let want: Vec<(&str, &str)> = if trace {
                m.per_layer.iter().map(|p| (p.name.as_str(), p.unit.as_str())).collect()
            } else {
                m.end_to_end.iter().map(|e| (e.name.as_str(), e.unit.as_str())).collect()
            };
            let got: Vec<(&str, &str)> =
                result.metrics.iter().map(|(n, v)| (n.as_str(), v.unit.as_str())).collect();
            let fine = got == want
                && result.correct
                && result.attempted >= 1
                && (trace || result.metrics.iter().all(|(_, v)| v.value > 0.0));
            println!(
                "{:<12} trace={} {:>3} metrics, {} of {} failed: {}",
                w.name,
                u8::from(trace),
                got.len(),
                result.failed,
                result.attempted,
                if fine { "ok" } else { "MISMATCH" }
            );
            ok &= fine;
        }
    }
    println!("smoke: {:.1} s", started.elapsed().as_secs_f64());
    Ok(ok)
}
