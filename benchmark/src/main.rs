//! The repository benchmark. See `benchmark/README.md`.
//!
//! ```text
//! bench --workload W --seed S --seconds T --trace 0|1   one run, in this process
//! bench run (--all | --workload W) [--seed S] [--seconds T]
//! bench repeat [--seed S] [--seconds T]                 two sets, compared
//! bench compare A.jsonl B.jsonl                         two row files, compared
//! bench smoke                                           1 s windows, names checked
//! bench golden                                          print golden.json afresh
//! ```

mod daemon;
mod host;
mod layers;
mod manifest;
mod orchestrate;
mod report;
mod sim;
mod stats;
mod stream;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use manifest::Manifest;
use report::{Outcome, Provenance};
use workloads::RunArgs;

/// `--name value` pairs after the subcommand.
pub struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<(Flags, Vec<String>), String> {
        let mut flags = Vec::new();
        let mut positional = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some("all") => flags.push(("all".to_string(), String::new())),
                Some(name) => {
                    let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                    flags.push((name.to_string(), value.clone()));
                }
                None => positional.push(a.clone()),
            }
        }
        Ok((Flags(flags), positional))
    }

    pub fn get(&self, name: &str) -> Option<&str> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    pub fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            Some(v) => v.parse().map_err(|_| format!("--{name}: cannot read {v:?}")),
            None => Ok(default),
        }
    }
}

/// Where things are, relative to the working directory.
pub struct Layout {
    pub root: PathBuf,
    pub out: PathBuf,
    pub manifest: Manifest,
}

impl Layout {
    fn find() -> Result<Layout, String> {
        let root = host::repo_root()?;
        let manifest = Manifest::load(&root)?;
        let out = root.join(&manifest.paths[0]).join("out");
        Ok(Layout { root, out, manifest })
    }

    fn unit_of(&self) -> impl Fn(&str) -> String + '_ {
        |name| self.manifest.unit_of(name).unwrap_or("?").to_string()
    }
}

/// Order the outcome as the manifest lists its metrics. A traced run
/// reports every per-layer metric — 0 for a layer the workload does not
/// exercise; an untraced run must have measured every end-to-end one.
fn conform(outcome: &mut Outcome, manifest: &Manifest, trace: bool) -> Result<(), String> {
    let names: Vec<&str> = if trace {
        manifest.per_layer.iter().map(|m| m.name.as_str()).collect()
    } else {
        manifest.end_to_end.iter().map(|m| m.name.as_str()).collect()
    };
    if let Some(stray) = outcome.metrics.iter().find(|m| !names.contains(&m.name.as_str())) {
        return Err(format!("metric {} is not in BENCHMARK.json", stray.name));
    }
    let mut ordered = Vec::with_capacity(names.len());
    for name in names {
        match outcome.metrics.iter().find(|m| m.name == name) {
            Some(m) => ordered.push(m.clone()),
            None if trace => {
                ordered.push(report::Metric { name: name.to_string(), value: 0.0, samples: 0 })
            }
            None => return Err(format!("end-to-end metric {name} was not measured")),
        }
    }
    outcome.metrics = ordered;
    Ok(())
}

/// One workload, in this process: the contract's entry point.
fn run_here(flags: &Flags, started: Instant) -> Result<bool, String> {
    let layout = Layout::find()?;
    let workload = flags.get("workload").ok_or("--workload is required")?;
    if !layout.manifest.workloads.iter().any(|w| w.name == workload) {
        return Err(format!("workload {workload:?} is not in BENCHMARK.json"));
    }
    let args = RunArgs {
        seed: flags.number("seed", workloads::DEFAULT_SEED)?,
        seconds: flags.number("seconds", layout.manifest.run_seconds as f64)?,
        trace: flags.number("trace", 0u8)? != 0,
        out: layout.out.clone(),
        started,
    };
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(format!("--seconds {} is out of range", args.seconds));
    }
    let mut outcome = workloads::run(workload, &args)?;
    conform(&mut outcome, &layout.manifest, args.trace)?;
    let unit_of = layout.unit_of();
    let provenance = Provenance {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        fsync: workloads::fsync_label(workload),
        git_rev: host::git_rev(&layout.root),
    };
    let rows = flags.get("rows").map_or_else(|| layout.out.join("rows.jsonl"), PathBuf::from);
    report::append_row(&rows, &provenance, &outcome, &unit_of)
        .map_err(|e| format!("{}: {e}", rows.display()))?;
    println!(
        "# {workload} seed={} seconds={} trace={} host_parallelism={} transport={} fsync={} git_rev={}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host::parallelism(),
        report::TRANSPORT,
        provenance.fsync,
        provenance.git_rev
    );
    report::print_table(&outcome, &unit_of);
    println!("{}", report::result_line(&outcome, &unit_of));
    Ok(outcome.correct())
}

fn dispatch(started: Instant) -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match argv.first() {
        Some(first) if !first.starts_with("--") => (first.as_str(), &argv[1..]),
        _ => ("", &argv[..]),
    };
    let (flags, positional) = Flags::parse(rest)?;
    match command {
        "" => run_here(&flags, started),
        "run" => orchestrate::run(&Layout::find()?, &flags),
        "repeat" => orchestrate::repeat(&Layout::find()?, &flags),
        "compare" => match &positional[..] {
            [a, b] => orchestrate::compare(&Layout::find()?.manifest, a.as_ref(), b.as_ref()),
            _ => Err("compare needs two row files".into()),
        },
        "smoke" => orchestrate::smoke(&Layout::find()?),
        "golden" => {
            print!("{}", workloads::golden_json());
            Ok(true)
        }
        other => Err(format!("unknown command {other:?}")),
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    match dispatch(started) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("bench: {e}");
            ExitCode::from(2)
        }
    }
}
