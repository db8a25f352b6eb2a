//! CLI command implementations. Each command returns its output as a
//! `String` so the whole surface is unit-testable.

use crate::args::{ArgError, Parsed};
use crate::spec::{ScenarioSpec, SimSpec};
use agreements_flow::{auto_partition, PartitionOptions};
use agreements_sched::{
    explain_allocation, AllocationPolicy, GreedyPolicy, LpPolicy, ProportionalPolicy, SchedError,
    SystemState,
};
use agreements_ticket::{AgreementNature, Economy, ResourceId};
use agreements_trace::{ProxyTrace, ServiceModel, TraceConfig};
use std::fmt;
use std::fmt::Write as _;
use std::path::Path;

/// CLI-level errors.
#[derive(Debug)]
pub enum CliError {
    /// Bad command line.
    Args(ArgError),
    /// Unknown (sub)command.
    UnknownCommand(String),
    /// File IO failed.
    Io(std::io::Error),
    /// JSON (de)serialization failed.
    Json(serde_json::Error),
    /// A domain operation failed.
    Domain(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Args(e) => write!(f, "{e}"),
            CliError::UnknownCommand(c) => {
                write!(f, "unknown command {c:?}; try `agreements help`")
            }
            CliError::Io(e) => write!(f, "io error: {e}"),
            CliError::Json(e) => write!(f, "json error: {e}"),
            CliError::Domain(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Args(e)
    }
}
impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}
impl From<serde_json::Error> for CliError {
    fn from(e: serde_json::Error) -> Self {
        CliError::Json(e)
    }
}
impl From<SchedError> for CliError {
    fn from(e: SchedError) -> Self {
        CliError::Domain(e.to_string())
    }
}

const HELP: &str = "\
agreements — express and enforce distributed resource sharing agreements

USAGE:
  agreements economy new --principals A,B,C --resources cpu,disk [--deposit P:R:AMT,...]
  agreements economy deal --file ECONOMY.json --from NAME --to NAME \
             --share PCT [--grant] [--out FILE]
  agreements economy example1
  agreements economy value --file ECONOMY.json --resource IDX
  agreements economy overdrawn --file ECONOMY.json
  agreements economy graph --file ECONOMY.json [--resource IDX]
  agreements capacity --scenario SCENARIO.json --avail V0,V1,...
  agreements chains --scenario SCENARIO.json --from OWNER --to USER [--level L]
  agreements partition --scenario SCENARIO.json [--min-share F] [--max-group N] [--json]
  agreements allocate --scenario SCENARIO.json --avail V0,V1,... \\
             --requester I --amount X [--policy lp|greedy|proportional] [--explain]
  agreements trace gen --requests N --proxies P --gap SECONDS --seed S --out DIR [--csv]
  agreements trace info --file TRACE [--capacity C]
  agreements simulate --spec SIM.json [--series] [--telemetry-out FILE]
  agreements serve --scenario SCENARIO.json --journal DIR \\
             (--socket PATH | --tcp ADDR) [--avail V0,V1,...] \\
             [--fsync everyop|batched:N] [--sequenced] \\
             [--compact-every N] [--duration SECONDS]
  agreements help

With --telemetry-out, `simulate` records counters, LP-solve/latency
histograms, and structured events through the unified telemetry plane
and writes the snapshot to FILE as JSON.

`serve` runs the scenario's GRM as a network daemon: agreement state is
journaled durably under --journal DIR (recovered on restart, including
after kill -9), and clients speak the framed wire protocol on the Unix
socket or TCP address. --avail seeds the pools only when the journal is
created; on recovery the journal wins. Without --duration it serves
until killed — crash-safety, not clean shutdown, is the contract.
";

/// Run a command line (without the binary name); returns stdout text.
pub fn run<S: AsRef<str>>(argv: &[S]) -> Result<String, CliError> {
    let tokens: Vec<String> = argv.iter().map(|s| s.as_ref().to_string()).collect();
    let parsed =
        Parsed::parse(tokens, &["explain", "csv", "json", "series", "grant", "sequenced"])?;
    let mut pos = parsed.positionals.iter().map(String::as_str);
    match pos.next() {
        None | Some("help") => Ok(HELP.to_string()),
        Some("economy") => match pos.next() {
            Some("new") => economy_new(&parsed),
            Some("deal") => economy_deal(&parsed),
            Some("example1") => economy_example1(),
            Some("value") => economy_value(&parsed),
            Some("overdrawn") => economy_overdrawn(&parsed),
            Some("graph") => economy_graph(&parsed),
            other => Err(CliError::UnknownCommand(format!("economy {}", other.unwrap_or("")))),
        },
        Some("capacity") => capacity(&parsed),
        Some("chains") => chains(&parsed),
        Some("partition") => partition(&parsed),
        Some("allocate") => allocate(&parsed),
        Some("trace") => match pos.next() {
            Some("gen") => trace_gen(&parsed),
            Some("info") => trace_info(&parsed),
            other => Err(CliError::UnknownCommand(format!("trace {}", other.unwrap_or("")))),
        },
        Some("simulate") => simulate(&parsed),
        Some("serve") => serve(&parsed),
        Some(other) => Err(CliError::UnknownCommand(other.to_string())),
    }
}

/// Emit the paper's Example 1 economy as JSON (a template to edit).
fn economy_example1() -> Result<String, CliError> {
    let mut eco = Economy::new();
    let disk = eco.add_resource("disk-TB");
    let a = eco.add_principal("A");
    let b = eco.add_principal("B");
    let c = eco.add_principal("C");
    let d = eco.add_principal("D");
    let (ca, cb, cc, cd) = (
        eco.default_currency(a),
        eco.default_currency(b),
        eco.default_currency(c),
        eco.default_currency(d),
    );
    eco.set_face_total(ca, 1000.0).expect("valid");
    eco.set_face_total(cb, 100.0).expect("valid");
    eco.deposit_resource(ca, disk, 10.0).expect("valid");
    eco.deposit_resource(cb, disk, 15.0).expect("valid");
    eco.issue_absolute(ca, cc, disk, 3.0, AgreementNature::Sharing).expect("valid");
    eco.issue_relative(ca, cb, 500.0, AgreementNature::Sharing).expect("valid");
    eco.issue_relative(cb, cd, 60.0, AgreementNature::Sharing).expect("valid");
    Ok(serde_json::to_string_pretty(&eco)? + "\n")
}

/// Scaffold an economy from comma-separated principal and resource
/// names, with optional `principal:resource:amount` deposits.
fn economy_new(parsed: &Parsed) -> Result<String, CliError> {
    parsed.reject_unknown(&["principals", "resources", "deposit"])?;
    let mut eco = Economy::new();
    for r in parsed.required("resources")?.split(',') {
        eco.add_resource(r.trim());
    }
    for p in parsed.required("principals")?.split(',') {
        eco.add_principal(p.trim());
    }
    if let Some(deposits) = parsed.get("deposit") {
        for item in deposits.split(',') {
            let parts: Vec<&str> = item.trim().split(':').collect();
            let bad = || {
                CliError::Domain(format!(
                    "--deposit entry {item:?} must be PRINCIPAL:RESOURCE:AMOUNT"
                ))
            };
            if parts.len() != 3 {
                return Err(bad());
            }
            let p = eco
                .find_principal(parts[0])
                .ok_or_else(|| CliError::Domain(format!("unknown principal {:?}", parts[0])))?;
            let r = eco
                .find_resource(parts[1])
                .ok_or_else(|| CliError::Domain(format!("unknown resource {:?}", parts[1])))?;
            let amount: f64 = parts[2].parse().map_err(|_| bad())?;
            eco.deposit_resource(eco.default_currency(p), r, amount)
                .map_err(|e| CliError::Domain(e.to_string()))?;
        }
    }
    Ok(serde_json::to_string_pretty(&eco)? + "\n")
}

/// Add one relative agreement to a stored economy; prints the updated
/// JSON, or writes it to `--out` (which may equal the input file).
fn economy_deal(parsed: &Parsed) -> Result<String, CliError> {
    parsed.reject_unknown(&["file", "from", "to", "share", "grant", "out"])?;
    let mut eco = load_economy(parsed)?;
    let from_name = parsed.required("from")?;
    let to_name = parsed.required("to")?;
    let share: f64 = parsed.parse_required("share", "fraction in (0, 1]")?;
    let lookup = |name: &str| {
        eco.find_currency(name)
            .ok_or_else(|| CliError::Domain(format!("unknown currency {name:?}")))
    };
    let from = lookup(from_name)?;
    let to = lookup(to_name)?;
    let face = share * eco.currency(from).map_err(|e| CliError::Domain(e.to_string()))?.face_total;
    let nature =
        if parsed.flag("grant") { AgreementNature::Granting } else { AgreementNature::Sharing };
    eco.issue_relative(from, to, face, nature).map_err(|e| CliError::Domain(e.to_string()))?;
    let json = serde_json::to_string_pretty(&eco)? + "\n";
    match parsed.get("out") {
        Some(path) => {
            std::fs::write(path, &json)?;
            Ok(format!(
                "{from_name} now shares {:.1}% with {to_name}; wrote {path}\n",
                share * 100.0
            ))
        }
        None => Ok(json),
    }
}

fn load_economy(parsed: &Parsed) -> Result<Economy, CliError> {
    let path = parsed.required("file")?;
    let text = std::fs::read_to_string(path)?;
    Ok(serde_json::from_str(&text)?)
}

fn economy_value(parsed: &Parsed) -> Result<String, CliError> {
    parsed.reject_unknown(&["file", "resource"])?;
    let eco = load_economy(parsed)?;
    let ridx: usize = parsed.parse_or("resource", 0, "resource index")?;
    let resource = ResourceId::from_index(ridx);
    let report = eco.value_report(resource).map_err(|e| CliError::Domain(e.to_string()))?;
    let mut out = String::new();
    writeln!(out, "resource {} ({})", ridx, eco.resource_name(resource)).unwrap();
    writeln!(out, "{:<20} {:>12} {:>12}", "currency", "gross", "net").unwrap();
    for c in eco.currencies() {
        writeln!(
            out,
            "{:<20} {:>12.4} {:>12.4}",
            c.name,
            report.currency_value(c.id),
            report.net_value(c.id)
        )
        .unwrap();
    }
    Ok(out)
}

fn economy_overdrawn(parsed: &Parsed) -> Result<String, CliError> {
    parsed.reject_unknown(&["file"])?;
    let eco = load_economy(parsed)?;
    let mut out = String::new();
    let mut any = false;
    for c in eco.currencies() {
        if eco.is_overdrawn(c.id).map_err(|e| CliError::Domain(e.to_string()))? {
            writeln!(out, "{} is overdrawn", c.name).unwrap();
            any = true;
        }
    }
    if !any {
        out.push_str("no overdrawn currencies\n");
    }
    Ok(out)
}

fn economy_graph(parsed: &Parsed) -> Result<String, CliError> {
    parsed.reject_unknown(&["file", "resource"])?;
    let eco = load_economy(parsed)?;
    let valuation = match parsed.get("resource") {
        None => None,
        Some(raw) => {
            let idx: usize = raw
                .parse()
                .map_err(|_| CliError::Domain(format!("--resource {raw:?} is not an index")))?;
            Some(
                eco.value_report(ResourceId::from_index(idx))
                    .map_err(|e| CliError::Domain(e.to_string()))?,
            )
        }
    };
    Ok(agreements_ticket::to_dot(&eco, valuation.as_ref()))
}

fn load_scenario_state(parsed: &Parsed) -> Result<(ScenarioSpec, SystemState), CliError> {
    let path = parsed.required("scenario")?;
    let text = std::fs::read_to_string(path)?;
    let spec: ScenarioSpec = serde_json::from_str(&text)?;
    let avail = parsed.float_list("avail")?;
    let flow = spec.flow().map_err(|e| CliError::Domain(e.to_string()))?;
    let absolute = spec.absolute_matrix().map_err(|e| CliError::Domain(e.to_string()))?;
    let state = SystemState::new(flow, absolute, avail)?;
    Ok((spec, state))
}

/// Derive the hierarchical enforcement structure of a scenario: mutual
/// sharing groups plus the inter-group aggregate matrix, exactly as
/// `HierarchicalScheduler::auto` would partition it.
fn partition(parsed: &Parsed) -> Result<String, CliError> {
    parsed.reject_unknown(&["scenario", "min-share", "max-group", "json"])?;
    let path = parsed.required("scenario")?;
    let text = std::fs::read_to_string(path)?;
    let spec: ScenarioSpec = serde_json::from_str(&text)?;
    let s = spec.agreement_matrix().map_err(|e| CliError::Domain(e.to_string()))?;
    let defaults = PartitionOptions::default();
    let opts = PartitionOptions {
        min_mutual_share: parsed.parse_or(
            "min-share",
            defaults.min_mutual_share,
            "fraction in (0, 1]",
        )?,
        max_group_size: parsed.parse_or("max-group", defaults.max_group_size, "positive size")?,
    };
    let p = auto_partition(&s, &opts).map_err(|e| CliError::Domain(e.to_string()))?;
    let g = p.num_groups();
    if parsed.flag("json") {
        #[derive(serde::Serialize)]
        struct PartitionDoc {
            principals: usize,
            min_mutual_share: f64,
            max_group_size: usize,
            groups: Vec<Vec<usize>>,
            inter: Vec<Vec<f64>>,
        }
        let doc = PartitionDoc {
            principals: s.n(),
            min_mutual_share: opts.min_mutual_share,
            max_group_size: opts.max_group_size,
            inter: (0..g).map(|i| (0..g).map(|j| p.inter.get(i, j)).collect()).collect(),
            groups: p.groups,
        };
        return Ok(serde_json::to_string_pretty(&doc)? + "\n");
    }
    let mut out = String::new();
    writeln!(
        out,
        "{} principals -> {g} groups (min mutual share {:.2}, max group size {})",
        s.n(),
        opts.min_mutual_share,
        opts.max_group_size
    )
    .unwrap();
    for (i, members) in p.groups.iter().enumerate() {
        let list: Vec<String> = members.iter().map(|m| m.to_string()).collect();
        writeln!(out, "group {i}: {}", list.join(", ")).unwrap();
    }
    writeln!(out, "inter-group aggregates:").unwrap();
    write!(out, "{:>8}", "").unwrap();
    for j in 0..g {
        write!(out, " {:>7}", format!("g{j}")).unwrap();
    }
    out.push('\n');
    for i in 0..g {
        write!(out, "{:>8}", format!("g{i}")).unwrap();
        for j in 0..g {
            if i == j {
                write!(out, " {:>7}", "-").unwrap();
            } else {
                write!(out, " {:>7.3}", p.inter.get(i, j)).unwrap();
            }
        }
        out.push('\n');
    }
    Ok(out)
}

fn capacity(parsed: &Parsed) -> Result<String, CliError> {
    parsed.reject_unknown(&["scenario", "avail"])?;
    let (_, state) = load_scenario_state(parsed)?;
    let report = state.capacity_report();
    let mut out = String::new();
    writeln!(out, "{:<10} {:>14} {:>14}", "principal", "availability", "capacity").unwrap();
    for i in 0..state.n() {
        writeln!(out, "{:<10} {:>14.4} {:>14.4}", i, state.availability[i], report.capacity(i))
            .unwrap();
    }
    Ok(out)
}

fn chains(parsed: &Parsed) -> Result<String, CliError> {
    parsed.reject_unknown(&["scenario", "from", "to", "level"])?;
    let path = parsed.required("scenario")?;
    let text = std::fs::read_to_string(path)?;
    let spec: ScenarioSpec = serde_json::from_str(&text)?;
    let s = spec.agreement_matrix().map_err(|e| CliError::Domain(e.to_string()))?;
    let from: usize = parsed.parse_required("from", "principal index")?;
    let to: usize = parsed.parse_required("to", "principal index")?;
    let level: usize = parsed.parse_or("level", spec.level(), "level")?;
    let chains = agreements_flow::chains_between(&s, from, to, level);
    let mut out = String::new();
    if chains.is_empty() {
        writeln!(out, "no chains from {from} to {to} within {level} hops").unwrap();
        return Ok(out);
    }
    writeln!(out, "chains from {from} (owner) to {to} (user), up to {level} hops:").unwrap();
    let mut total = 0.0;
    for chain in &chains {
        let route: Vec<String> = chain.nodes.iter().map(|x| x.to_string()).collect();
        writeln!(out, "  {}  forwards {:.6}", route.join(" -> "), chain.product).unwrap();
        total += chain.product;
    }
    writeln!(out, "total (unclamped T[{from}][{to}]): {total:.6}").unwrap();
    Ok(out)
}

fn allocate(parsed: &Parsed) -> Result<String, CliError> {
    parsed.reject_unknown(&["scenario", "avail", "requester", "amount", "policy", "explain"])?;
    let (spec, state) = load_scenario_state(parsed)?;
    let requester: usize = parsed.parse_required("requester", "principal index")?;
    let amount: f64 = parsed.parse_required("amount", "number")?;
    if parsed.flag("explain") {
        let e = explain_allocation(&state, requester, amount)?;
        return Ok(e.to_string());
    }
    let policy_name = parsed.get("policy").unwrap_or("lp");
    let policy: Box<dyn AllocationPolicy> = match policy_name {
        "lp" => Box::new(LpPolicy::reduced()),
        "greedy" => Box::new(GreedyPolicy),
        "proportional" => Box::new(ProportionalPolicy::new(
            spec.agreement_matrix().map_err(|e| CliError::Domain(e.to_string()))?,
        )),
        other => {
            return Err(CliError::Domain(format!(
                "unknown policy {other:?}; use lp, greedy, or proportional"
            )))
        }
    };
    let alloc = policy.allocate(&state, requester, amount)?;
    let mut out = String::new();
    writeln!(
        out,
        "allocated {:.4} to principal {} via {} (theta = {:.4})",
        alloc.amount,
        requester,
        policy.name(),
        alloc.theta
    )
    .unwrap();
    for (i, d) in alloc.draws.iter().enumerate() {
        if *d > 0.0 {
            writeln!(out, "  draw {:.4} from principal {}", d, i).unwrap();
        }
    }
    Ok(out)
}

fn trace_gen(parsed: &Parsed) -> Result<String, CliError> {
    parsed.reject_unknown(&["requests", "proxies", "gap", "seed", "out", "csv"])?;
    let requests: usize = parsed.parse_required("requests", "integer")?;
    let proxies: usize = parsed.parse_or("proxies", 1, "integer")?;
    let gap: f64 = parsed.parse_or("gap", 0.0, "seconds")?;
    let seed: u64 = parsed.parse_or("seed", 0, "integer")?;
    let out_dir = parsed.required("out")?;
    std::fs::create_dir_all(out_dir)?;
    let traces = TraceConfig::paper(requests, seed).generate(proxies, gap);
    let mut out = String::new();
    for t in &traces {
        let path = if parsed.flag("csv") {
            let p = Path::new(out_dir).join(format!("proxy{}.csv", t.proxy));
            std::fs::write(&p, agreements_trace::io::to_csv(t))?;
            p
        } else {
            let p = Path::new(out_dir).join(format!("proxy{}.trace", t.proxy));
            std::fs::write(&p, agreements_trace::io::to_bytes(t))?;
            p
        };
        writeln!(out, "wrote {} requests to {}", t.requests.len(), path.display()).unwrap();
    }
    Ok(out)
}

fn trace_info(parsed: &Parsed) -> Result<String, CliError> {
    parsed.reject_unknown(&["file", "capacity"])?;
    let path = parsed.required("file")?;
    let trace = read_trace(path)?;
    let svc = ServiceModel::PAPER;
    let mean = agreements_trace::mean_demand(&trace, &svc);
    let mut out = String::new();
    writeln!(out, "requests:     {}", trace.requests.len()).unwrap();
    writeln!(out, "mean demand:  {mean:.4} work-seconds").unwrap();
    let cap_for = agreements_trace::capacity_for_peak_rho(&trace, &svc, 1.05);
    writeln!(out, "capacity for peak rho 1.05: {cap_for:.4}").unwrap();
    if let Some(cap) = parsed.get("capacity") {
        let cap: f64 = cap
            .parse()
            .map_err(|_| CliError::Domain(format!("--capacity {cap:?} is not a number")))?;
        writeln!(
            out,
            "peak rho at capacity {cap}: {:.4}",
            agreements_trace::peak_rho(&trace, &svc, cap)
        )
        .unwrap();
    }
    Ok(out)
}

fn read_trace(path: &str) -> Result<ProxyTrace, CliError> {
    let raw = std::fs::read(path)?;
    if raw.starts_with(b"AGTR") {
        agreements_trace::io::from_bytes(bytes::Bytes::from(raw)).map_err(CliError::Io)
    } else {
        let text = String::from_utf8(raw)
            .map_err(|_| CliError::Domain("trace is neither binary nor text".into()))?;
        if text.starts_with("arrival,") {
            agreements_trace::io::from_csv(0, &text).map_err(CliError::Io)
        } else {
            agreements_trace::io::from_homeip(0, &text).map_err(CliError::Io)
        }
    }
}

fn simulate(parsed: &Parsed) -> Result<String, CliError> {
    parsed.reject_unknown(&["spec", "series", "telemetry-out"])?;
    let path = parsed.required("spec")?;
    let text = std::fs::read_to_string(path)?;
    let spec: SimSpec = serde_json::from_str(&text)?;
    let traces =
        TraceConfig::paper(spec.requests_per_day, spec.seed).generate(spec.proxies, spec.gap);
    let mut cfg = agreements_proxysim::SimConfig::calibrated(
        spec.proxies,
        spec.requests_per_day,
        spec.mean_demand,
        spec.peak_rho,
    );
    if let Some(factor) = spec.capacity_factor {
        cfg = cfg.with_capacity_factor(factor);
    }
    if let Some(structure) = &spec.structure {
        let agreements = structure.build().map_err(|e| CliError::Domain(e.to_string()))?;
        let level = spec.level.unwrap_or(spec.proxies.saturating_sub(1)).max(1);
        cfg = cfg.with_sharing(agreements_proxysim::SharingConfig {
            agreements,
            level,
            policy: spec.policy.to_kind(),
            redirect_cost: spec.redirect_cost,
            schedule: Vec::new(),
        });
    }
    let mut sim =
        agreements_proxysim::Simulator::new(cfg).map_err(|e| CliError::Domain(e.to_string()))?;
    let recorder = parsed.get("telemetry-out").map(|_| {
        let (telemetry, recorder) =
            agreements_telemetry::Telemetry::recorder(agreements_telemetry::DEFAULT_EVENT_CAPACITY);
        sim.set_telemetry(telemetry);
        recorder
    });
    let r = sim.run(&traces).map_err(|e| CliError::Domain(e.to_string()))?;
    let mut out = String::new();
    if let (Some(path), Some(recorder)) = (parsed.get("telemetry-out"), recorder) {
        std::fs::write(path, recorder.snapshot().to_json())?;
        writeln!(out, "telemetry snapshot written to {path}").unwrap();
    }
    writeln!(out, "served:            {}", r.served).unwrap();
    writeln!(out, "avg wait:          {:.4} s", r.avg_wait()).unwrap();
    writeln!(out, "peak slot avg:     {:.4} s", r.peak_slot_avg_wait()).unwrap();
    writeln!(out, "worst wait:        {:.4} s", r.worst_wait).unwrap();
    writeln!(
        out,
        "wait p50/p95/p99:  {:.3} / {:.3} / {:.3} s",
        r.wait_quantile(0.50),
        r.wait_quantile(0.95),
        r.wait_quantile(0.99)
    )
    .unwrap();
    writeln!(out, "redirected:        {:.3}%", 100.0 * r.redirect_fraction()).unwrap();
    writeln!(out, "consultations:     {}", r.consultations).unwrap();
    writeln!(out, "stable:            {}", r.is_stable()).unwrap();
    if parsed.flag("series") {
        writeln!(out, "\nslot,hour,avg_wait_s,arrivals,redirected").unwrap();
        for (s, m) in r.slots.iter().enumerate() {
            writeln!(
                out,
                "{s},{:.3},{:.4},{},{}",
                s as f64 / 6.0,
                m.avg_wait(),
                m.arrivals,
                m.redirected
            )
            .unwrap();
        }
    }
    Ok(out)
}

/// Run the scenario's GRM as a durable network daemon (see `HELP`).
fn serve(parsed: &Parsed) -> Result<String, CliError> {
    use agreements_net::journal::{DurableJournal, FsyncPolicy, Snapshot};
    use agreements_net::listener::{GrmListener, ListenerConfig};

    parsed.reject_unknown(&[
        "scenario",
        "journal",
        "socket",
        "tcp",
        "avail",
        "fsync",
        "sequenced",
        "compact-every",
        "duration",
    ])?;
    let path = parsed.required("scenario")?;
    let text = std::fs::read_to_string(path)?;
    let spec: ScenarioSpec = serde_json::from_str(&text)?;
    let matrix = spec.agreement_matrix().map_err(|e| CliError::Domain(e.to_string()))?;
    let level = spec.level();
    let avail = match parsed.get("avail") {
        Some(_) => {
            let v = parsed.float_list("avail")?;
            if v.len() != spec.n {
                return Err(CliError::Domain(format!(
                    "--avail has {} entries for an n={} scenario",
                    v.len(),
                    spec.n
                )));
            }
            // The journal's first snapshot carries these, and the GRM
            // drops a report that is not a finite, non-negative amount.
            if let Some((i, x)) = v.iter().enumerate().find(|(_, x)| !(x.is_finite() && **x >= 0.0))
            {
                return Err(CliError::Domain(format!(
                    "--avail entry {i} is {x}: an availability is a finite, non-negative amount"
                )));
            }
            v
        }
        None => vec![0.0; spec.n],
    };
    let policy = match parsed.get("fsync").unwrap_or("everyop") {
        "everyop" => FsyncPolicy::EveryOp,
        s => match s.strip_prefix("batched:").and_then(|n| n.parse::<usize>().ok()) {
            Some(max_pending) if max_pending > 0 => FsyncPolicy::Batched { max_pending },
            _ => {
                return Err(CliError::Domain(format!(
                    "--fsync must be `everyop` or `batched:N`, got {s:?}"
                )))
            }
        },
    };
    let journal_dir = std::path::PathBuf::from(parsed.required("journal")?);
    let fresh = Snapshot { matrix, level, availability: avail, next_seq: 0, dedup: Vec::new() };
    let (journal, recovered) = DurableJournal::open_or_create(
        &journal_dir,
        move || fresh,
        policy,
        agreements_telemetry::Telemetry::disabled(),
    )?;
    let mut out = String::new();
    writeln!(
        out,
        "journal {}: {} records recovered, {} torn bytes truncated, replay cursor {}",
        journal_dir.display(),
        recovered.records,
        recovered.truncated_bytes,
        recovered.next_seq
    )
    .unwrap();
    let server = recovered.respawn().map_err(|e| CliError::Domain(e.to_string()))?;
    let config = ListenerConfig {
        sequenced: parsed.flag("sequenced"),
        compact_every: parsed.parse_or("compact-every", 8192u64, "record count")?,
        ..ListenerConfig::default()
    };
    let listener = match (parsed.get("socket"), parsed.get("tcp")) {
        (Some(sock), None) => {
            let l = GrmListener::bind_uds(Path::new(sock), server, journal, recovered, config)?;
            writeln!(out, "serving on unix socket {sock}").unwrap();
            l
        }
        (None, Some(addr)) => {
            let l = GrmListener::bind_tcp(addr, server, journal, recovered, config)?;
            writeln!(out, "serving on tcp {}", l.tcp_addr().expect("tcp listener has addr"))
                .unwrap();
            l
        }
        _ => {
            return Err(CliError::Domain(
                "serve needs exactly one of --socket PATH or --tcp ADDR".to_string(),
            ))
        }
    };
    // The daemon's liveness contract is crash-safety, not clean
    // shutdown: without --duration it blocks until the process is
    // killed, and the journal carries the state to the next incarnation.
    match parsed.get("duration") {
        Some(_) => {
            let secs = parsed.parse_or("duration", 0.0f64, "seconds")?;
            eprint!("{out}");
            std::thread::sleep(std::time::Duration::from_secs_f64(secs));
            let stats = listener.handle().stats().map_err(|e| CliError::Domain(e.to_string()))?;
            listener.shutdown();
            writeln!(
                out,
                "served for {secs}s: {} granted, {} rejected, {} duplicate requests",
                stats.granted, stats.rejected_capacity, stats.duplicate_requests
            )
            .unwrap();
            Ok(out)
        }
        None => {
            eprint!("{out}");
            loop {
                std::thread::sleep(std::time::Duration::from_secs(3600));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        // One directory per test (the harness names each thread after
        // its test): tests run in parallel, and several write and read
        // `scenario.json`.
        let test = std::thread::current().name().unwrap_or("main").replace("::", "-");
        let dir = std::env::temp_dir().join("agreements-cli-tests").join(test);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn help_is_default() {
        let out = run::<&str>(&[]).unwrap();
        assert!(out.contains("USAGE"));
        let out = run(&["help"]).unwrap();
        assert!(out.contains("economy"));
    }

    #[test]
    fn unknown_commands_error() {
        assert!(matches!(run(&["bogus"]), Err(CliError::UnknownCommand(_))));
        assert!(matches!(run(&["economy", "bogus"]), Err(CliError::UnknownCommand(_))));
    }

    #[test]
    fn example1_round_trips_through_value() {
        let json = run(&["economy", "example1"]).unwrap();
        let path = tmp("example1.json");
        std::fs::write(&path, &json).unwrap();
        let out = run(&["economy", "value", "--file", path.to_str().unwrap(), "--resource", "0"])
            .unwrap();
        assert!(out.contains("disk-TB"), "{out}");
        // The Figure 1 values appear in the table.
        assert!(out.contains("20.0000"), "{out}");
        assert!(out.contains("12.0000"), "{out}");
    }

    #[test]
    fn economy_new_and_deal_round_trip() {
        let json = run(&[
            "economy",
            "new",
            "--principals",
            "A, B",
            "--resources",
            "cpu",
            "--deposit",
            "A:cpu:10",
        ])
        .unwrap();
        let path = tmp("built.json");
        std::fs::write(&path, &json).unwrap();
        let out = tmp("dealt.json");
        let msg = run(&[
            "economy",
            "deal",
            "--file",
            path.to_str().unwrap(),
            "--from",
            "A",
            "--to",
            "B",
            "--share",
            "0.5",
            "--out",
            out.to_str().unwrap(),
        ])
        .unwrap();
        assert!(msg.contains("50.0%"), "{msg}");
        let table =
            run(&["economy", "value", "--file", out.to_str().unwrap(), "--resource", "0"]).unwrap();
        assert!(table.contains("5.0000"), "B is worth half of A's 10: {table}");
    }

    #[test]
    fn economy_new_validates_deposits() {
        assert!(run(&[
            "economy",
            "new",
            "--principals",
            "A",
            "--resources",
            "cpu",
            "--deposit",
            "Z:cpu:1",
        ])
        .is_err());
        assert!(run(&[
            "economy",
            "new",
            "--principals",
            "A",
            "--resources",
            "cpu",
            "--deposit",
            "A:cpu",
        ])
        .is_err());
    }

    #[test]
    fn economy_graph_renders_dot() {
        let json = run(&["economy", "example1"]).unwrap();
        let path = tmp("example1c.json");
        std::fs::write(&path, &json).unwrap();
        let out = run(&["economy", "graph", "--file", path.to_str().unwrap(), "--resource", "0"])
            .unwrap();
        assert!(out.starts_with("digraph economy"), "{out}");
        assert!(out.contains("= 20.00"), "B's value annotated: {out}");
    }

    #[test]
    fn overdrawn_reports_cleanly() {
        let json = run(&["economy", "example1"]).unwrap();
        let path = tmp("example1b.json");
        std::fs::write(&path, &json).unwrap();
        let out = run(&["economy", "overdrawn", "--file", path.to_str().unwrap()]).unwrap();
        assert!(out.contains("no overdrawn"), "{out}");
    }

    fn write_scenario() -> std::path::PathBuf {
        let path = tmp("scenario.json");
        std::fs::write(
            &path,
            r#"{"n": 3, "shares": [
                {"from": 1, "to": 0, "share": 0.5},
                {"from": 2, "to": 0, "share": 0.5}
            ]}"#,
        )
        .unwrap();
        path
    }

    #[test]
    fn partition_command_reports_groups() {
        let path = tmp("partition.json");
        std::fs::write(
            &path,
            r#"{"n": 4, "shares": [
                {"from": 0, "to": 1, "share": 0.8}, {"from": 1, "to": 0, "share": 0.8},
                {"from": 2, "to": 3, "share": 0.8}, {"from": 3, "to": 2, "share": 0.8},
                {"from": 0, "to": 2, "share": 0.2}, {"from": 2, "to": 0, "share": 0.2}
            ]}"#,
        )
        .unwrap();
        let out = run(&["partition", "--scenario", path.to_str().unwrap()]).unwrap();
        assert!(out.contains("4 principals -> 2 groups"), "{out}");
        assert!(out.contains("group 0: 0, 1"), "{out}");
        assert!(out.contains("group 1: 2, 3"), "{out}");
        let json = run(&["partition", "--scenario", path.to_str().unwrap(), "--json"]).unwrap();
        #[derive(serde::Deserialize)]
        struct Doc {
            groups: Vec<Vec<usize>>,
            inter: Vec<Vec<f64>>,
        }
        let doc: Doc = serde_json::from_str(&json).unwrap();
        assert_eq!(doc.groups[1], vec![2, 3]);
        // 0→2 carries 0.2, so the g0→g1 aggregate is 0.2 averaged over
        // g0's two members.
        assert!((doc.inter[0][1] - 0.1).abs() < 1e-12, "{json}");
        // A tighter mutual threshold dissolves the weak 0.8 edges too.
        let singles =
            run(&["partition", "--scenario", path.to_str().unwrap(), "--min-share", "0.9"])
                .unwrap();
        assert!(singles.contains("-> 4 groups"), "{singles}");
        // Bad options surface as domain errors, not panics.
        assert!(run(&["partition", "--scenario", path.to_str().unwrap(), "--min-share", "1.5",])
            .is_err());
    }

    #[test]
    fn capacity_command() {
        let path = write_scenario();
        let out =
            run(&["capacity", "--scenario", path.to_str().unwrap(), "--avail", "0,10,10"]).unwrap();
        assert!(out.contains("10.0000"), "{out}");
        // Principal 0 reaches 0 + 5 + 5.
        assert!(out.lines().nth(1).unwrap().contains("10.0000"), "{out}");
    }

    #[test]
    fn chains_command_audits_routes() {
        let path = write_scenario();
        let out =
            run(&["chains", "--scenario", path.to_str().unwrap(), "--from", "1", "--to", "0"])
                .unwrap();
        assert!(out.contains("1 -> 0"), "{out}");
        assert!(out.contains("0.500000"), "{out}");
        let none =
            run(&["chains", "--scenario", path.to_str().unwrap(), "--from", "0", "--to", "1"])
                .unwrap();
        assert!(none.contains("no chains"), "{none}");
    }

    #[test]
    fn allocate_command_lp() {
        let path = write_scenario();
        let out = run(&[
            "allocate",
            "--scenario",
            path.to_str().unwrap(),
            "--avail",
            "0,10,10",
            "--requester",
            "0",
            "--amount",
            "6",
        ])
        .unwrap();
        assert!(out.contains("allocated 6.0000"), "{out}");
        assert!(out.contains("draw 3.0000 from principal 1"), "{out}");
    }

    #[test]
    fn allocate_command_explain() {
        let path = write_scenario();
        let out = run(&[
            "allocate",
            "--scenario",
            path.to_str().unwrap(),
            "--avail",
            "0,10,10",
            "--requester",
            "0",
            "--amount",
            "6",
            "--explain",
        ])
        .unwrap();
        assert!(out.contains("binding"), "{out}");
        assert!(out.contains("marginal theta"), "{out}");
    }

    #[test]
    fn allocate_rejects_unknown_policy() {
        let path = write_scenario();
        let err = run(&[
            "allocate",
            "--scenario",
            path.to_str().unwrap(),
            "--avail",
            "0,10,10",
            "--requester",
            "0",
            "--amount",
            "1",
            "--policy",
            "magic",
        ])
        .unwrap_err();
        assert!(err.to_string().contains("unknown policy"));
    }

    #[test]
    fn trace_gen_and_info() {
        let dir = tmp("traces");
        let out = run(&[
            "trace",
            "gen",
            "--requests",
            "500",
            "--proxies",
            "2",
            "--gap",
            "3600",
            "--seed",
            "3",
            "--out",
            dir.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("proxy0.trace"), "{out}");
        assert!(out.contains("proxy1.trace"), "{out}");
        let info = run(&[
            "trace",
            "info",
            "--file",
            dir.join("proxy0.trace").to_str().unwrap(),
            "--capacity",
            "0.5",
        ])
        .unwrap();
        assert!(info.contains("mean demand"), "{info}");
        assert!(info.contains("peak rho at capacity 0.5"), "{info}");
    }

    #[test]
    fn trace_gen_csv_and_info_round_trip() {
        let dir = tmp("traces-csv");
        run(&["trace", "gen", "--requests", "200", "--out", dir.to_str().unwrap(), "--csv"])
            .unwrap();
        let info =
            run(&["trace", "info", "--file", dir.join("proxy0.csv").to_str().unwrap()]).unwrap();
        assert!(info.contains("requests:"), "{info}");
    }

    #[test]
    fn simulate_command() {
        let path = tmp("sim.json");
        std::fs::write(
            &path,
            r#"{
                "proxies": 3,
                "requests_per_day": 2000,
                "seed": 5,
                "gap": 3600.0,
                "structure": {"Complete": {"n": 3, "share": 0.2}},
                "policy": {"kind": "lp"}
            }"#,
        )
        .unwrap();
        let out = run(&["simulate", "--spec", path.to_str().unwrap()]).unwrap();
        assert!(out.contains("served:"), "{out}");
        assert!(out.contains("stable:            true"), "{out}");
    }

    #[test]
    fn simulate_series_prints_slots() {
        let path = tmp("sim_series.json");
        std::fs::write(&path, r#"{"proxies": 2, "requests_per_day": 800, "seed": 5, "gap": 0.0}"#)
            .unwrap();
        let out = run(&["simulate", "--spec", path.to_str().unwrap(), "--series"]).unwrap();
        assert!(out.contains("slot,hour,avg_wait_s"), "{out}");
        assert!(out.lines().count() > 144, "one line per slot");
    }

    #[test]
    fn simulate_exports_telemetry_snapshot() {
        let path = tmp("sim_telemetry.json");
        std::fs::write(
            &path,
            r#"{
                "proxies": 3,
                "requests_per_day": 2000,
                "seed": 5,
                "gap": 3600.0,
                "structure": {"Complete": {"n": 3, "share": 0.2}},
                "policy": {"kind": "lp"}
            }"#,
        )
        .unwrap();
        let snap_path = tmp("sim_telemetry_out.json");
        let out = run(&[
            "simulate",
            "--spec",
            path.to_str().unwrap(),
            "--telemetry-out",
            snap_path.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("telemetry snapshot written"), "{out}");
        let snap = agreements_telemetry::Snapshot::from_json(
            &std::fs::read_to_string(&snap_path).unwrap(),
        )
        .unwrap();
        assert!(snap.counter("proxysim.consultations") > 0, "consultations recorded");
        let lp = snap.histogram(agreements_telemetry::HistKind::LpSolveSeconds).unwrap();
        assert!(lp.count > 0, "LP solves timed");
    }

    #[test]
    fn missing_files_surface_io_errors() {
        assert!(matches!(
            run(&["economy", "value", "--file", "/nonexistent/x.json"]),
            Err(CliError::Io(_))
        ));
    }

    #[test]
    fn serve_rejects_non_finite_or_negative_avail() {
        let scenario = write_scenario();
        let journal = tmp("journal");
        let sock = std::env::temp_dir().join(format!("avail-{}.sock", std::process::id()));
        for (avail, entry) in [("4,NaN,4", 1), ("inf,4,4", 0), ("4,4,-3", 2), ("4,-inf,4", 1)] {
            let _ = std::fs::remove_dir_all(&journal);
            let args = [
                "serve",
                "--scenario",
                scenario.to_str().unwrap(),
                "--journal",
                journal.to_str().unwrap(),
                "--socket",
                sock.to_str().unwrap(),
                "--avail",
                avail,
                "--duration",
                "0.1",
            ];
            match run(&args) {
                Err(CliError::Domain(msg)) => {
                    assert!(msg.contains(&format!("--avail entry {entry} ")), "{avail}: {msg}")
                }
                other => panic!("--avail {avail} was accepted: {other:?}"),
            }
            assert!(!journal.exists(), "--avail {avail}: a journal was created");
        }
    }

    #[test]
    fn serve_round_trips_and_recovers_its_journal() {
        let scenario = write_scenario();
        let journal = tmp(&format!("serve-journal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&journal);
        let sock = tmp(&format!("serve-{}.sock", std::process::id()));
        let args: Vec<String> = [
            "serve",
            "--scenario",
            scenario.to_str().unwrap(),
            "--journal",
            journal.to_str().unwrap(),
            "--socket",
            sock.to_str().unwrap(),
            "--avail",
            "4,4,4",
            "--duration",
            "2.5",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let daemon = std::thread::spawn(move || run(&args));

        // Issue one allocation over the socket while the daemon serves.
        let client = agreements_net::NetGrmClient::uds(&sock);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let id = agreements_grm::RequestId { client: 1, seq: 1 };
        let alloc = loop {
            match client.request_seq(0, 1, 1.0, id) {
                Ok(alloc) => break alloc,
                Err(e) => {
                    assert!(e.is_retryable(), "non-retryable serve error: {e}");
                    assert!(std::time::Instant::now() < deadline, "serve never came up: {e}");
                    std::thread::sleep(std::time::Duration::from_millis(20));
                }
            }
        };
        assert!((alloc.amount - 1.0).abs() < 1e-12);
        let out = daemon.join().unwrap().unwrap();
        assert!(out.contains("1 records recovered"), "fresh journal: {out}");
        assert!(out.contains("1 granted"), "{out}");

        // A second incarnation recovers the decision from the journal
        // and replays the same retry without re-executing it.
        let args: Vec<String> = [
            "serve",
            "--scenario",
            scenario.to_str().unwrap(),
            "--journal",
            journal.to_str().unwrap(),
            "--socket",
            sock.to_str().unwrap(),
            "--duration",
            "2.5",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let daemon = std::thread::spawn(move || run(&args));
        client.disconnect();
        let replayed = loop {
            match client.request_seq(0, 1, 1.0, id) {
                Ok(a) => break a,
                Err(e) => {
                    assert!(e.is_retryable(), "non-retryable serve error: {e}");
                    assert!(std::time::Instant::now() < deadline, "restart never served: {e}");
                    std::thread::sleep(std::time::Duration::from_millis(20));
                }
            }
        };
        assert_eq!(replayed.amount.to_bits(), alloc.amount.to_bits(), "dedup replay");
        let out = daemon.join().unwrap().unwrap();
        assert!(out.contains("2 records recovered"), "snapshot + decision: {out}");
        assert!(out.contains("1 duplicate requests"), "{out}");
        let _ = std::fs::remove_dir_all(&journal);
    }
}
