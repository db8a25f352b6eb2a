//! Multi-process GRM federation over real sockets, with kill-9 crash
//! recovery — the distributed twin of the in-process `scale` replay.
//!
//! One binary, three roles, selected by `--role` (the orchestrator
//! re-execs itself for the other two):
//!
//! - **orchestrator** (default): launches one `daemon` and `--workers`
//!   worker processes over a Unix-domain socket, optionally SIGKILLs the
//!   daemon mid-replay (`--kill-grm`) and respawns it, then merges the
//!   workers' outcome logs and checks them.
//! - **daemon**: opens (or recovers) the durable agreement journal,
//!   respawns the `GrmServer` from the recovered state, and serves it on
//!   the socket. It never exits on its own; the orchestrator kills it,
//!   which for `--kill-grm` is the entire point.
//! - **worker**: replays its residue class of the global event stream
//!   (`seq % workers == id`), retrying retryable transport errors
//!   forever — a crashed daemon looks like a slow network, and
//!   at-most-once settlement is the journal's job, not the worker's.
//!
//! Two replay modes (`--mode`):
//!
//! - **pipelined** (default): one global total order — the sequenced
//!   listener executes events by sequence number, and `--check` compares
//!   decision-for-decision, *bit-for-bit* against an in-process
//!   reference fold of the same stream. Each worker keeps `--window`
//!   calls in flight and harvests replies in issue order, so network
//!   round trips, decision execution, and journal appends overlap
//!   across workers; `--window 1` settles call by call. With
//!   `--fsync batched:N` the listener's group-commit plane amortizes one
//!   fsync across many concurrently arriving decisions.
//! - **nonseq**: no global sequencer — connections race, the event
//!   interleaving is nondeterministic, and the daemon runs the
//!   *hierarchical* decision engine (the in-process scale winner)
//!   instead of the flat LP. `--check` switches from bit equality to
//!   the order-insensitive invariant battery in
//!   [`agreements_experiments::checker`]: coverage, per-`RequestId`
//!   at-most-once, grant shape, per-principal pool conservation, and
//!   granted-units accounting. Epochs are forced to 1 (a refresh
//!   barrier between epochs would reintroduce global ordering):
//!   workers push their reports first, barrier on the daemon seeing
//!   every pool, then race their allocation requests.
//!
//! The event stream is a pure function of `(n, requests, seed, epochs)`,
//! so every process derives it independently; nothing is coordinated but
//! the socket. Requests carry deterministic [`RequestId`]s so retries
//! and crash replays dedup correctly in every mode.
//!
//! The transport is selectable (`--transport uds|tcp`) and optionally
//! hostile: `--chaos <seed>` routes every worker connection through the
//! bidirectional [`FaultProxy`] with a seeded drop/dup/hold/delay mix on
//! *both* directions (lost Grants exercise the client deadline sweeper
//! and the daemon's dedup replay), and `--latency <micros>` injects
//! deterministic per-frame jitter even without the rest of the chaos
//! mix. TCP runs always interpose the proxy — the daemon binds an
//! ephemeral port and publishes it in `daemon.addr`, and the proxy
//! re-resolves that file per connection, so a kill-9'd daemon can
//! respawn on a fresh port without the workers ever re-dialing.
//!
//! ```text
//! federation [--mode pipelined|nonseq] [--fsync everyop|batched:N]
//!            [--transport uds|tcp] [--chaos SEED] [--latency MICROS]
//!            [--max-hold-ms 2] [--rpc-deadline-ms N]
//!            [--window 32] [--n 1000] [--workers 8] [--requests 2048]
//!            [--epochs 4] [--seed 20000] [--dir PATH] [--kill-grm]
//!            [--check] [--telemetry-out PATH]
//! ```

use std::collections::VecDeque;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use agreements_experiments::checker::{
    check_order_insensitive, CheckEvent, CheckInputs, CheckOutcome,
};
use agreements_faults::FaultMix;
use agreements_flow::PartitionOptions;
use agreements_grm::{GrmError, GrmServer, RequestId};
use agreements_net::journal::{DurableJournal, FsyncPolicy, Snapshot as JournalSnapshot};
use agreements_net::listener::{GrmListener, ListenerConfig};
use agreements_net::{FaultProxy, NetGrmClient, ProxyUpstream};
use agreements_sched::hierarchy::HierarchicalScheduler;
use agreements_sched::Allocation;
use agreements_telemetry::{HistKind, Snapshot, Telemetry};
use agreements_trace::{ScaleConfig, DAY_SECONDS};
use crossbeam::channel::{Receiver, RecvTimeoutError};

/// Dedup namespace for federation request ids (any stable nonzero tag
/// works; the id only has to be unique per event and identical between
/// the reference fold and every worker retry).
const ID_CLIENT: u64 = 0xFED;

/// GRM request level used throughout the scale experiments.
const LEVEL: usize = 1;

// ---------------------------------------------------------------------
// The global event stream (pure function of the flags)
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum Event {
    /// Pool refresh: principal `lrm` reports `available` units.
    Report { lrm: usize, available: f64 },
    /// Allocation request by `lrm` for `amount` units.
    Request { lrm: usize, amount: f64 },
}

/// Build the global, totally ordered event stream: `epochs` rounds of
/// (full pool refresh, then that time-window's demands).
fn event_stream(cfg: &ScaleConfig, epochs: usize) -> Vec<Event> {
    let workload = cfg.generate();
    let window = DAY_SECONDS / epochs as f64;
    let mut events = Vec::with_capacity(cfg.n * epochs + workload.demands.len());
    let mut next = 0usize;
    for e in 0..epochs {
        for (lrm, &available) in workload.availability.iter().enumerate() {
            events.push(Event::Report { lrm, available });
        }
        let end = if e + 1 == epochs { f64::INFINITY } else { (e + 1) as f64 * window };
        while next < workload.demands.len() && workload.demands[next].t < end {
            let d = &workload.demands[next];
            events.push(Event::Request { lrm: d.requester, amount: d.amount });
            next += 1;
        }
    }
    events
}

fn request_id(seq: u64) -> RequestId {
    RequestId { client: ID_CLIENT, seq }
}

/// FNV-1a over the draw vector's bit patterns — the per-decision
/// fingerprint workers log and the orchestrator compares.
fn draws_fingerprint(draws: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for d in draws {
        for b in d.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Canonical one-token-per-field outcome encoding shared by the
/// reference fold and the pipelined worker logs; comparing
/// the strings compares the decisions bit-for-bit.
fn outcome_line(event: &Event, result: &Result<Option<(u64, u64)>, String>) -> String {
    match (event, result) {
        (Event::Report { .. }, Ok(None)) => "R".to_string(),
        (Event::Request { .. }, Ok(Some((amount_bits, fnv)))) => {
            format!("G {amount_bits:016x} {fnv:016x}")
        }
        (Event::Request { .. }, Err(_)) => "D".to_string(),
        other => unreachable!("event/outcome shape mismatch: {other:?}"),
    }
}

/// Non-sequenced grant line: the full (sparse) draw vector in bit-exact
/// form, because the order-insensitive checker reconstructs
/// per-principal conservation from the logs instead of comparing
/// fingerprints. `G <amount_bits> <k> <principal>:<draw_bits> ...`.
fn nonseq_grant_line(alloc: &Allocation) -> String {
    let nonzero: Vec<(usize, f64)> =
        alloc.draws.iter().copied().enumerate().filter(|&(_, d)| d != 0.0).collect();
    let mut line = format!("G {:016x} {}", alloc.amount.to_bits(), nonzero.len());
    for (p, d) in nonzero {
        line.push_str(&format!(" {p}:{:016x}", d.to_bits()));
    }
    line
}

/// Parse one merged nonseq outcome (the part after the seq) back into a
/// [`CheckEvent`]; reports return `None` (they are not settlement
/// events — the barrier and base pools account for them).
fn parse_nonseq_line(seq: u64, requester: usize, rest: &str) -> Option<CheckEvent> {
    let mut tok = rest.split_whitespace();
    match tok.next() {
        Some("R") => None,
        Some("D") => Some(CheckEvent { seq, requester, outcome: CheckOutcome::Denied }),
        Some("G") => {
            let amount = f64::from_bits(
                u64::from_str_radix(tok.next().expect("grant amount"), 16).expect("amount bits"),
            );
            let k: usize = tok.next().expect("draw count").parse().expect("draw count");
            let draws: Vec<(usize, f64)> = (0..k)
                .map(|_| {
                    let (p, bits) =
                        tok.next().expect("draw entry").split_once(':').expect("p:bits");
                    (
                        p.parse().expect("draw principal"),
                        f64::from_bits(u64::from_str_radix(bits, 16).expect("draw bits")),
                    )
                })
                .collect();
            Some(CheckEvent { seq, requester, outcome: CheckOutcome::Granted { amount, draws } })
        }
        other => panic!("malformed nonseq outcome line: {other:?} in `{rest}`"),
    }
}

// ---------------------------------------------------------------------
// Reference: the same stream folded through an in-process server
// ---------------------------------------------------------------------

struct Reference {
    /// Canonical outcome line per global sequence number.
    outcomes: Vec<String>,
    /// Final availability, bit-exact.
    availability: Vec<f64>,
    /// Units granted since the last pool refresh (for conservation).
    granted_since_refresh: f64,
}

fn reference_run(cfg: &ScaleConfig, events: &[Event]) -> Reference {
    let matrix = cfg.agreements().expect("valid scale agreements");
    let server = GrmServer::spawn(matrix, LEVEL);
    let h = server.handle();
    let mut outcomes = Vec::with_capacity(events.len());
    let mut granted_since_refresh = 0.0f64;
    for (seq, ev) in events.iter().enumerate() {
        let result = match *ev {
            Event::Report { lrm, available } => {
                h.report(lrm, available).expect("in-process report");
                if lrm + 1 == cfg.n {
                    granted_since_refresh = 0.0;
                }
                Ok(None)
            }
            Event::Request { lrm, amount } => {
                match h.request_idempotent(lrm, amount, request_id(seq as u64)) {
                    Ok(alloc) => {
                        granted_since_refresh += alloc.amount;
                        Ok(Some((alloc.amount.to_bits(), draws_fingerprint(&alloc.draws))))
                    }
                    Err(e) => Err(e.to_string()),
                }
            }
        };
        outcomes.push(outcome_line(ev, &result));
    }
    let availability = h.availability().expect("in-process availability");
    server.shutdown();
    Reference { outcomes, availability, granted_since_refresh }
}

// ---------------------------------------------------------------------
// Flags
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Pipelined,
    Nonseq,
}

impl Mode {
    fn as_str(self) -> &'static str {
        match self {
            Mode::Pipelined => "pipelined",
            Mode::Nonseq => "nonseq",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Transport {
    Uds,
    Tcp,
}

impl Transport {
    fn as_str(self) -> &'static str {
        match self {
            Transport::Uds => "uds",
            Transport::Tcp => "tcp",
        }
    }
}

#[derive(Debug, Clone)]
struct Flags {
    role: String,
    mode: Mode,
    fsync: String,
    transport: Transport,
    /// Seed for the bidirectional chaos mix; `None` = clean link.
    chaos: Option<u64>,
    /// Deterministic per-frame latency injection cap (0 = off).
    latency_us: u64,
    /// Group-commit hold timer forwarded to the listener.
    max_hold_ms: u64,
    /// Worker RPC deadline override (defaults depend on chaos).
    rpc_deadline_ms: Option<u64>,
    /// Where a spawned role dials the GRM (`uds:<path>` | `tcp:<addr>`);
    /// the orchestrator fills it in when it re-execs the workers.
    endpoint: Option<String>,
    window: usize,
    n: usize,
    workers: usize,
    requests: usize,
    epochs: usize,
    seed: u64,
    dir: PathBuf,
    worker_id: usize,
    kill_grm: bool,
    check: bool,
    telemetry_out: Option<PathBuf>,
}

impl Flags {
    /// A hostile (or at least jittered) link was requested.
    fn chaotic(&self) -> bool {
        self.chaos.is_some() || self.latency_us > 0
    }

    /// Whether worker traffic goes through the fault proxy. TCP always
    /// does, even with a clean mix: the proxy re-resolves `daemon.addr`
    /// per connection, which is what keeps the workers' endpoint stable
    /// across a kill-9 respawn onto a fresh ephemeral port.
    fn proxied(&self) -> bool {
        self.transport == Transport::Tcp || self.chaotic()
    }
}

/// The (forward, reply) fault mixes the `--chaos` / `--latency` flags
/// ask for. Modest rates: retries, dedup replay, and the deadline
/// sweeper should fire constantly without starving progress.
fn chaos_mixes(flags: &Flags) -> (FaultMix, FaultMix) {
    let mut fwd = FaultMix::none();
    let mut rep = FaultMix::none();
    if flags.chaos.is_some() {
        fwd = FaultMix { drop: 0.05, dup: 0.05, hold: 0.06, max_hold: 3, ..FaultMix::none() }
            .with_latency(0.20, 600);
        rep = FaultMix { drop: 0.04, dup: 0.04, hold: 0.05, max_hold: 3, ..FaultMix::none() }
            .with_latency(0.20, 600);
    }
    if flags.latency_us > 0 {
        fwd = fwd.with_latency(1.0, flags.latency_us);
        rep = rep.with_latency(1.0, flags.latency_us);
    }
    (fwd, rep)
}

fn parse_fsync(s: &str) -> FsyncPolicy {
    if s == "everyop" {
        return FsyncPolicy::EveryOp;
    }
    if let Some(n) = s.strip_prefix("batched:") {
        let max_pending: usize = n.parse().unwrap_or(0);
        if max_pending >= 2 {
            return FsyncPolicy::Batched { max_pending };
        }
    }
    eprintln!("invalid --fsync `{s}` (everyop | batched:N with N >= 2)");
    std::process::exit(2);
}

fn flag_value(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let pos = args.iter().position(|a| a == flag)?;
    if pos + 1 >= args.len() {
        eprintln!("{flag} requires a value");
        std::process::exit(2);
    }
    let v = args.remove(pos + 1);
    args.remove(pos);
    Some(v)
}

fn flag_present(args: &mut Vec<String>, flag: &str) -> bool {
    match args.iter().position(|a| a == flag) {
        Some(pos) => {
            args.remove(pos);
            true
        }
        None => false,
    }
}

fn parse_flags() -> Flags {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let telemetry_out = agreements_experiments::take_telemetry_out(&mut args);
    let parse = |v: Option<String>, what: &str, default: usize| -> usize {
        v.map(|s| s.parse().unwrap_or_else(|_| panic!("invalid {what}: {s}"))).unwrap_or(default)
    };
    let mode = match flag_value(&mut args, "--mode").as_deref() {
        None | Some("pipelined") => Mode::Pipelined,
        Some("nonseq") => Mode::Nonseq,
        Some(other) => {
            eprintln!("invalid --mode `{other}` (pipelined | nonseq)");
            std::process::exit(2);
        }
    };
    let fsync = flag_value(&mut args, "--fsync").unwrap_or_else(|| "everyop".into());
    parse_fsync(&fsync); // validate eagerly, in every role
    let transport = match flag_value(&mut args, "--transport").as_deref() {
        None | Some("uds") => Transport::Uds,
        Some("tcp") => Transport::Tcp,
        Some(other) => {
            eprintln!("invalid --transport `{other}` (uds | tcp)");
            std::process::exit(2);
        }
    };
    let mut flags = Flags {
        role: flag_value(&mut args, "--role").unwrap_or_else(|| "orchestrator".into()),
        mode,
        fsync,
        transport,
        chaos: flag_value(&mut args, "--chaos")
            .map(|s| s.parse().unwrap_or_else(|_| panic!("invalid --chaos: {s}"))),
        latency_us: parse(flag_value(&mut args, "--latency"), "--latency", 0) as u64,
        max_hold_ms: parse(flag_value(&mut args, "--max-hold-ms"), "--max-hold-ms", 2).max(1)
            as u64,
        rpc_deadline_ms: flag_value(&mut args, "--rpc-deadline-ms")
            .map(|s| s.parse().unwrap_or_else(|_| panic!("invalid --rpc-deadline-ms: {s}"))),
        endpoint: flag_value(&mut args, "--endpoint"),
        window: parse(flag_value(&mut args, "--window"), "--window", 32).max(1),
        n: parse(flag_value(&mut args, "--n"), "--n", 1000),
        workers: parse(flag_value(&mut args, "--workers"), "--workers", 8),
        requests: parse(flag_value(&mut args, "--requests"), "--requests", 2048),
        epochs: parse(flag_value(&mut args, "--epochs"), "--epochs", 4).max(1),
        seed: flag_value(&mut args, "--seed")
            .map(|s| s.parse().unwrap_or_else(|_| panic!("invalid --seed: {s}")))
            .unwrap_or(agreements_experiments::SEED),
        dir: flag_value(&mut args, "--dir").map(PathBuf::from).unwrap_or_else(|| {
            std::env::temp_dir().join(format!("agreements-federation-{}", std::process::id()))
        }),
        worker_id: parse(flag_value(&mut args, "--worker-id"), "--worker-id", 0),
        kill_grm: flag_present(&mut args, "--kill-grm"),
        check: flag_present(&mut args, "--check"),
        telemetry_out,
    };
    if !args.is_empty() {
        eprintln!("unrecognised arguments: {args:?}");
        std::process::exit(2);
    }
    // Workers own residue classes `seq % workers`; none means nobody
    // replays anything (and a remainder by zero in a worker role).
    if flags.workers == 0 {
        eprintln!("invalid --workers 0 (at least one worker replays the stream)");
        std::process::exit(2);
    }
    // Non-sequenced mode has no global order, so an epoch's refresh
    // barrier is meaningless; the stream is one report phase + one
    // racing request phase.
    if flags.mode == Mode::Nonseq && flags.epochs != 1 {
        if flags.role == "orchestrator" {
            eprintln!("nonseq mode forces --epochs 1 (no global refresh barrier)");
        }
        flags.epochs = 1;
    }
    flags
}

fn sock_path(dir: &Path) -> PathBuf {
    dir.join("grm.sock")
}

/// Where the fault proxy listens when fronting a UDS daemon.
fn proxy_sock_path(dir: &Path) -> PathBuf {
    dir.join("grm-proxy.sock")
}

/// Where a TCP daemon publishes its ephemeral address (atomically, via
/// tmp + rename); the proxy re-reads it per accepted connection.
fn daemon_addr_path(dir: &Path) -> PathBuf {
    dir.join("daemon.addr")
}

/// Dial an endpoint string (`uds:<path>` | `tcp:<host:port>`).
fn connect_endpoint(ep: &str) -> NetGrmClient {
    if let Some(path) = ep.strip_prefix("uds:") {
        NetGrmClient::uds(Path::new(path))
    } else if let Some(addr) = ep.strip_prefix("tcp:") {
        NetGrmClient::tcp(addr)
    } else {
        panic!("malformed endpoint `{ep}` (uds:<path> | tcp:<addr>)")
    }
}

fn outcome_path(dir: &Path, worker: usize) -> PathBuf {
    dir.join(format!("outcome-{worker}.log"))
}

fn telemetry_path(dir: &Path) -> PathBuf {
    dir.join("telemetry.json")
}

/// Marker the orchestrator drops once every principal's report landed;
/// nonseq workers wait on it before racing requests. A worker cannot
/// poll availability for this itself: by the time the last report
/// lands, other workers' requests may already have drained a pool back
/// to zero. The orchestrator observes the all-refreshed state *before*
/// releasing anyone, so the check cannot race a request.
fn reports_done_path(dir: &Path) -> PathBuf {
    dir.join("reports-done")
}

fn main() {
    let flags = parse_flags();
    match flags.role.as_str() {
        "orchestrator" => orchestrate(flags),
        "daemon" => daemon(flags),
        "worker" => worker(flags),
        other => {
            eprintln!("unknown --role {other} (orchestrator | daemon | worker)");
            std::process::exit(2);
        }
    }
}

// ---------------------------------------------------------------------
// Daemon role
// ---------------------------------------------------------------------

fn daemon(flags: Flags) {
    let cfg = ScaleConfig::isp(flags.n, flags.requests, flags.seed);
    let matrix = cfg.agreements().expect("valid scale agreements");
    let (telemetry, recorder) = Telemetry::recorder(0);
    let journal_dir = flags.dir.join("journal");
    let fresh = JournalSnapshot {
        matrix,
        level: LEVEL,
        availability: vec![0.0; flags.n],
        next_seq: 0,
        dedup: Vec::new(),
    };
    let (journal, recovered) = DurableJournal::open_or_create(
        &journal_dir,
        move || fresh,
        parse_fsync(&flags.fsync),
        telemetry.clone(),
    )
    .expect("open agreement journal");
    eprintln!(
        "[daemon] journal: {} records recovered, {} torn bytes truncated, replay cursor {}",
        recovered.records, recovered.truncated_bytes, recovered.next_seq
    );
    // The pipelined replay keeps the flat LP engine (the bit-for-bit
    // reference is a flat fold); the non-sequenced replay
    // races connections into the hierarchical engine — the decision
    // path that actually scales — recovered through the same journal.
    let server = match flags.mode {
        Mode::Pipelined => recovered.respawn().expect("respawn GRM from journal"),
        Mode::Nonseq => {
            let sched =
                HierarchicalScheduler::auto(&recovered.matrix, &PartitionOptions::default(), LEVEL)
                    .expect("partition scale agreements");
            recovered
                .respawn_with(GrmServer::spawn_hierarchical_with_telemetry(
                    sched,
                    telemetry.clone(),
                ))
                .expect("respawn hierarchical GRM from journal")
        }
    };
    let config = ListenerConfig {
        sequenced: flags.mode != Mode::Nonseq,
        compact_every: 16_384,
        max_hold: Duration::from_millis(flags.max_hold_ms),
        telemetry: telemetry.clone(),
    };
    let listener = match flags.transport {
        Transport::Uds => {
            GrmListener::bind_uds(&sock_path(&flags.dir), server, journal, recovered, config)
                .expect("bind federation socket")
        }
        Transport::Tcp => {
            // Bind an ephemeral port, then publish it atomically: a
            // respawned daemon gets a *different* port, and the fault
            // proxy re-resolves this file per connection.
            let l = GrmListener::bind_tcp("127.0.0.1:0", server, journal, recovered, config)
                .expect("bind federation TCP socket");
            let addr = l.tcp_addr().expect("TCP listener has an address");
            let tmp = flags.dir.join("daemon.addr.tmp");
            fs::write(&tmp, addr.to_string()).expect("write daemon addr");
            fs::rename(&tmp, daemon_addr_path(&flags.dir)).expect("publish daemon addr");
            l
        }
    };

    // Serve until killed — SIGKILL is the expected exit, so telemetry is
    // exported by periodic atomic snapshot, not at shutdown.
    let tmp = flags.dir.join("telemetry.json.tmp");
    loop {
        std::thread::sleep(Duration::from_millis(200));
        let snap = recorder.snapshot();
        if fs::write(&tmp, snap.to_json()).is_ok() {
            let _ = fs::rename(&tmp, telemetry_path(&flags.dir));
        }
        // Unreachable exit keeps `listener` alive for the process's life.
        if false {
            listener.shutdown();
            return;
        }
    }
}

// ---------------------------------------------------------------------
// Worker role
// ---------------------------------------------------------------------

/// How long a worker keeps retrying one event before declaring the
/// daemon unrecoverable. Covers a kill-9 plus journal recovery with two
/// orders of magnitude to spare.
const EVENT_DEADLINE: Duration = Duration::from_secs(60);

/// Worker RPC deadline on a chaotic link: short enough that a dropped
/// Grant retries promptly (the retry is what flushes held frames and
/// unwedges a reordered window), long enough to ride out injected
/// latency and a group-commit hold.
const CHAOS_RPC_DEADLINE_MS: u64 = 500;

fn worker(flags: Flags) {
    let cfg = ScaleConfig::isp(flags.n, flags.requests, flags.seed);
    let events = event_stream(&cfg, flags.epochs);
    let endpoint = flags
        .endpoint
        .clone()
        .unwrap_or_else(|| format!("uds:{}", sock_path(&flags.dir).display()));
    let deadline_ms = flags.rpc_deadline_ms.unwrap_or(if flags.chaotic() {
        CHAOS_RPC_DEADLINE_MS
    } else {
        10_000
    });
    let client = connect_endpoint(&endpoint).with_rpc_deadline(Duration::from_millis(deadline_ms));
    let mut out = std::io::BufWriter::new(
        fs::File::create(outcome_path(&flags.dir, flags.worker_id)).expect("create outcome log"),
    );
    match flags.mode {
        Mode::Pipelined => worker_pipelined(&flags, &events, &client, &mut out),
        Mode::Nonseq => worker_nonseq(&flags, &events, &client, &mut out),
    }
}

// ----- pipelined / nonseq plumbing -----------------------------------

/// One in-flight call's reply channel, typed by shape.
enum InflightRx {
    Grant(Receiver<Result<Allocation, GrmError>>),
    Unit(Receiver<Result<(), GrmError>>),
}

/// What harvesting the front of the window produced.
enum Harvest {
    /// The daemon decided: a grant, an ack (`None`), or a denial.
    Settled(Result<Option<Allocation>, String>),
    /// Transport-level failure — re-issue the same seq + id.
    Retry,
}

/// Issue one event asynchronously, retrying *send* failures (the daemon
/// may be down); the returned receiver resolves when the reply frame
/// arrives (or the connection dies). Also returns the connection
/// generation the frame went out on, so [`drive_window`] can detect a
/// mid-window reconnect.
fn issue(
    client: &NetGrmClient,
    seq: u64,
    ev: &Event,
    sequenced: bool,
    started: Instant,
) -> (InflightRx, u64) {
    loop {
        let attempt = match (*ev, sequenced) {
            (Event::Report { lrm, available }, true) => client
                .report_seq_async(seq, lrm, available)
                .map(|(rx, gen)| (InflightRx::Unit(rx), gen)),
            (Event::Report { lrm, available }, false) => client
                .report_acked_async(lrm, available)
                .map(|(rx, gen)| (InflightRx::Unit(rx), gen)),
            (Event::Request { lrm, amount }, true) => client
                .request_seq_async(seq, lrm, amount, request_id(seq))
                .map(|(rx, gen)| (InflightRx::Grant(rx), gen)),
            (Event::Request { lrm, amount }, false) => client
                .request_acked_async(lrm, amount, request_id(seq))
                .map(|(rx, gen)| (InflightRx::Grant(rx), gen)),
        };
        match attempt {
            Ok(out) => return out,
            Err(e) if e.is_retryable() => {
                assert!(
                    started.elapsed() < EVENT_DEADLINE,
                    "event {seq} unsendable after {EVENT_DEADLINE:?}: {e}"
                );
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => panic!("unretryable send failure for event {seq}: {e}"),
        }
    }
}

/// Wait for one in-flight reply. Transport errors (including a dropped
/// channel) mean "re-issue"; decision errors are settlements.
fn harvest(seq: u64, rx: &InflightRx, started: Instant) -> Harvest {
    let remaining = EVENT_DEADLINE
        .checked_sub(started.elapsed())
        .unwrap_or_else(|| panic!("event {seq} still unsettled after {EVENT_DEADLINE:?}"));
    let outcome: Result<Option<Allocation>, GrmError> = match rx {
        InflightRx::Grant(rx) => match rx.recv_timeout(remaining) {
            Ok(r) => r.map(Some),
            Err(RecvTimeoutError::Timeout) => {
                panic!("event {seq} still unsettled after {EVENT_DEADLINE:?}")
            }
            Err(RecvTimeoutError::Disconnected) => Err(GrmError::ConnectionReset),
        },
        InflightRx::Unit(rx) => match rx.recv_timeout(remaining) {
            Ok(r) => r.map(|()| None),
            Err(RecvTimeoutError::Timeout) => {
                panic!("event {seq} still unsettled after {EVENT_DEADLINE:?}")
            }
            Err(RecvTimeoutError::Disconnected) => Err(GrmError::ConnectionReset),
        },
    };
    match outcome {
        Ok(ok) => Harvest::Settled(Ok(ok)),
        Err(e) if e.is_retryable() => Harvest::Retry,
        Err(e) => Harvest::Settled(Err(e.to_string())),
    }
}

/// One windowed in-flight entry: the event, its reply channel, and when
/// the worker first tried to settle it (the retry deadline anchor).
struct Inflight {
    seq: u64,
    ev: Event,
    rx: InflightRx,
    started: Instant,
}

/// The in-flight window: entries in ascending seq order, all issued on
/// one connection generation.
struct Window<'a> {
    client: &'a NetGrmClient,
    inflight: VecDeque<Inflight>,
    gen: u64,
    sequenced: bool,
}

impl Window<'_> {
    /// Put one event in flight, keeping the whole window on a single
    /// connection in ascending-seq order. If the send lands on a
    /// different connection generation than the rest of the window, the
    /// older in-flight calls died with the previous socket — and, in
    /// sequenced mode, the frame just written may sit *ahead* of their
    /// lower-seq retries on the new connection's stream, which would
    /// block the daemon's per-connection reader in the sequencer and
    /// wedge the replay cursor (their retries would never be read).
    /// Resynchronize: tear the connection down and re-issue the whole
    /// window in ascending order until every entry shares one
    /// generation. Same seqs, same [`RequestId`]s, so replayed
    /// decisions come from the dedup window.
    fn admit(&mut self, seq: u64, ev: Event, started: Instant, front: bool) {
        let (rx, gen) = issue(self.client, seq, &ev, self.sequenced, started);
        let solo = self.inflight.is_empty();
        let entry = Inflight { seq, ev, rx, started };
        if front {
            self.inflight.push_front(entry);
        } else {
            self.inflight.push_back(entry);
        }
        if solo || gen == self.gen {
            self.gen = gen;
            return;
        }
        let entries: Vec<(u64, Event, Instant)> =
            self.inflight.drain(..).map(|e| (e.seq, e.ev, e.started)).collect();
        'resync: loop {
            self.client.disconnect();
            self.inflight.clear();
            let mut batch_gen = None;
            for &(seq, ev, started) in &entries {
                let (rx, gen) = issue(self.client, seq, &ev, self.sequenced, started);
                let stale = batch_gen.is_some_and(|g| g != gen);
                self.inflight.push_back(Inflight { seq, ev, rx, started });
                batch_gen = Some(gen);
                if stale {
                    // The connection died again mid-batch: start over.
                    std::thread::sleep(Duration::from_millis(20));
                    continue 'resync;
                }
            }
            self.gen = batch_gen.expect("window non-empty during resync");
            return;
        }
    }
}

/// The windowed in-flight loop shared by pipelined and nonseq workers:
/// keep up to `window` calls outstanding, settle strictly in issue
/// order (preserving per-connection ascending seq order, which the
/// sequenced listener's cursor relies on — [`Window::admit`] restores it
/// across reconnects), and re-issue the front on transport failure — same seq,
/// same [`RequestId`], so a decision that raced the crash replays from
/// the dedup window instead of double granting. `line` renders a
/// settled outcome for the log.
fn drive_window(
    flags: &Flags,
    client: &NetGrmClient,
    items: &[(u64, Event)],
    sequenced: bool,
    out: &mut impl std::io::Write,
    line: impl Fn(&Event, &Result<Option<Allocation>, String>) -> String,
) {
    let mut win = Window { client, inflight: VecDeque::new(), gen: 0, sequenced };
    let mut next = 0usize;
    while next < items.len() || !win.inflight.is_empty() {
        while win.inflight.len() < flags.window && next < items.len() {
            let (seq, ev) = items[next];
            win.admit(seq, ev, Instant::now(), false);
            next += 1;
        }
        let Inflight { seq, ev, rx, started } = win.inflight.pop_front().expect("non-empty window");
        match harvest(seq, &rx, started) {
            Harvest::Settled(result) => {
                writeln!(out, "{seq} {}", line(&ev, &result)).expect("write outcome");
                out.flush().expect("flush outcome");
            }
            Harvest::Retry => {
                // A lost *reply* (crash, chaos drop, or RPC deadline)
                // does not mean the request was lost: re-sending seq on
                // the same connection behind the already-queued higher
                // seqs would wedge the daemon's serial sequencer reader.
                // Tear the connection down so `admit`'s generation
                // resync re-issues the whole window ascending on a
                // fresh one; already-executed seqs replay Stale from
                // the dedup window.
                client.disconnect();
                std::thread::sleep(Duration::from_millis(20));
                win.admit(seq, ev, started, true);
            }
        }
    }
}

/// Render a settled outcome in the sequenced bit-for-bit format.
fn fingerprint_line(ev: &Event, result: &Result<Option<Allocation>, String>) -> String {
    let compact = match result {
        Ok(Some(alloc)) => Ok(Some((alloc.amount.to_bits(), draws_fingerprint(&alloc.draws)))),
        Ok(None) => Ok(None),
        Err(e) => Err(e.clone()),
    };
    outcome_line(ev, &compact)
}

/// Render a settled outcome in the nonseq sparse-draws format.
fn sparse_line(ev: &Event, result: &Result<Option<Allocation>, String>) -> String {
    match (ev, result) {
        (Event::Report { .. }, Ok(None)) => "R".to_string(),
        (Event::Request { .. }, Ok(Some(alloc))) => nonseq_grant_line(alloc),
        (Event::Request { .. }, Err(_)) => "D".to_string(),
        other => unreachable!("event/outcome shape mismatch: {other:?}"),
    }
}

fn worker_pipelined(
    flags: &Flags,
    events: &[Event],
    client: &NetGrmClient,
    out: &mut impl std::io::Write,
) {
    let mine: Vec<(u64, Event)> = events
        .iter()
        .enumerate()
        .filter(|(seq, _)| seq % flags.workers == flags.worker_id)
        .map(|(seq, ev)| (seq as u64, *ev))
        .collect();
    drive_window(flags, client, &mine, true, out, fingerprint_line);
}

/// How long a nonseq worker waits at the report barrier (covers a
/// kill-9 landing inside the report phase).
const BARRIER_DEADLINE: Duration = Duration::from_secs(60);

fn worker_nonseq(
    flags: &Flags,
    events: &[Event],
    client: &NetGrmClient,
    out: &mut impl std::io::Write,
) {
    let mine = |want_report: bool| -> Vec<(u64, Event)> {
        events
            .iter()
            .enumerate()
            .filter(|(seq, ev)| {
                seq % flags.workers == flags.worker_id
                    && matches!(ev, Event::Report { .. }) == want_report
            })
            .map(|(seq, ev)| (seq as u64, *ev))
            .collect()
    };

    // Phase 1: pools. Acked (not fire-and-forget) so the barrier below
    // cannot pass on a report the daemon never saw.
    drive_window(flags, client, &mine(true), false, out, sparse_line);

    // Barrier: wait until *every* worker's reports landed — the racing
    // request phase must draw against fully refreshed pools, or the
    // outcome depends on report/request interleaving across workers.
    // The orchestrator drops the marker (see [`reports_done_path`]).
    let deadline = Instant::now() + BARRIER_DEADLINE;
    while !reports_done_path(&flags.dir).exists() {
        assert!(Instant::now() < deadline, "report barrier never cleared");
        std::thread::sleep(Duration::from_millis(10));
    }

    // Phase 2: race the allocation requests.
    drive_window(flags, client, &mine(false), false, out, sparse_line);
}

// ---------------------------------------------------------------------
// Orchestrator role
// ---------------------------------------------------------------------

fn respawn_role(flags: &Flags, role: &str, extra: &[(&str, String)]) -> Child {
    let exe = std::env::current_exe().expect("current_exe");
    let mut cmd = Command::new(exe);
    cmd.arg("--role")
        .arg(role)
        .arg("--mode")
        .arg(flags.mode.as_str())
        .arg("--fsync")
        .arg(&flags.fsync)
        .arg("--window")
        .arg(flags.window.to_string())
        .arg("--n")
        .arg(flags.n.to_string())
        .arg("--workers")
        .arg(flags.workers.to_string())
        .arg("--requests")
        .arg(flags.requests.to_string())
        .arg("--epochs")
        .arg(flags.epochs.to_string())
        .arg("--seed")
        .arg(flags.seed.to_string())
        .arg("--dir")
        .arg(&flags.dir)
        .arg("--transport")
        .arg(flags.transport.as_str())
        .arg("--max-hold-ms")
        .arg(flags.max_hold_ms.to_string());
    if let Some(c) = flags.chaos {
        cmd.arg("--chaos").arg(c.to_string());
    }
    if flags.latency_us > 0 {
        cmd.arg("--latency").arg(flags.latency_us.to_string());
    }
    if let Some(d) = flags.rpc_deadline_ms {
        cmd.arg("--rpc-deadline-ms").arg(d.to_string());
    }
    for (k, v) in extra {
        cmd.arg(k).arg(v);
    }
    cmd.stdin(Stdio::null());
    cmd.spawn().unwrap_or_else(|e| panic!("spawn {role}: {e}"))
}

/// Block until the daemon answers on the endpoint (it may be starting
/// up or replaying its journal; on a chaotic link the probe's reply may
/// also just have been eaten — the short deadline keeps it retrying).
fn await_daemon(endpoint: &str) -> Vec<f64> {
    let probe = connect_endpoint(endpoint).with_rpc_deadline(Duration::from_secs(1));
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match probe.availability() {
            Ok(avail) => return avail,
            Err(e) => {
                assert!(Instant::now() < deadline, "daemon never came up: {e}");
                std::thread::sleep(Duration::from_millis(25));
            }
        }
    }
}

/// Count settled events across all worker outcome logs.
fn settled_lines(dir: &Path, workers: usize) -> usize {
    (0..workers)
        .map(|w| fs::read_to_string(outcome_path(dir, w)).map(|s| s.lines().count()).unwrap_or(0))
        .sum()
}

fn orchestrate(flags: Flags) {
    let cfg = ScaleConfig::isp(flags.n, flags.requests, flags.seed);
    let events = event_stream(&cfg, flags.epochs);
    let total = events.len();
    println!(
        "federation: mode={} transport={} fsync={} window={} n={} workers={} requests={} epochs={} seed={} -> {} events{}{}{}",
        flags.mode.as_str(),
        flags.transport.as_str(),
        flags.fsync,
        flags.window,
        flags.n,
        flags.workers,
        flags.requests,
        flags.epochs,
        flags.seed,
        total,
        if flags.kill_grm { ", kill-9 mid-replay" } else { "" },
        flags.chaos.map(|c| format!(", chaos seed {c}")).unwrap_or_default(),
        if flags.latency_us > 0 {
            format!(", +{}us injected latency", flags.latency_us)
        } else {
            String::new()
        }
    );

    // Reference decision sequence, computed before any process exists.
    // Only the globally ordered modes have one (and only `--check`
    // reads it — at n=1000 the flat fold costs real wall-clock).
    let reference =
        (flags.check && flags.mode != Mode::Nonseq).then(|| reference_run(&cfg, &events));

    let _ = fs::remove_dir_all(&flags.dir);
    fs::create_dir_all(&flags.dir).expect("create federation dir");

    // The transport the workers see. TCP, chaos, or latency interposes
    // the bidirectional fault proxy; otherwise workers dial the daemon's
    // UDS socket directly.
    let (fwd_mix, rep_mix) = chaos_mixes(&flags);
    let chaos_seed = flags.chaos.unwrap_or(0);
    let mut endpoint = format!("uds:{}", sock_path(&flags.dir).display());
    let proxy = if flags.proxied() {
        let p = match flags.transport {
            Transport::Uds => FaultProxy::spawn_uds_bidir(
                &proxy_sock_path(&flags.dir),
                &sock_path(&flags.dir),
                chaos_seed,
                "fed",
                fwd_mix,
                rep_mix,
            )
            .expect("spawn UDS fault proxy"),
            Transport::Tcp => FaultProxy::spawn_tcp(
                "127.0.0.1:0",
                ProxyUpstream::TcpAddrFile(daemon_addr_path(&flags.dir)),
                chaos_seed,
                "fed",
                fwd_mix,
                rep_mix,
            )
            .expect("spawn TCP fault proxy"),
        };
        endpoint = match flags.transport {
            Transport::Uds => format!("uds:{}", proxy_sock_path(&flags.dir).display()),
            Transport::Tcp => format!("tcp:{}", p.local_addr().expect("proxy TCP address")),
        };
        Some(p)
    } else {
        None
    };

    let mut grm = respawn_role(&flags, "daemon", &[]);
    await_daemon(&endpoint);
    let started = Instant::now();
    let mut workers: Vec<Child> = (0..flags.workers)
        .map(|w| {
            respawn_role(
                &flags,
                "worker",
                &[("--worker-id", w.to_string()), ("--endpoint", endpoint.clone())],
            )
        })
        .collect();

    // Progress monitor; with --kill-grm, SIGKILL the daemon once a third
    // of the workload has settled, then respawn it over the same journal.
    let mut killed_at: Option<usize> = None;
    let mut barrier_probe = (flags.mode == Mode::Nonseq)
        .then(|| connect_endpoint(&endpoint).with_rpc_deadline(Duration::from_secs(1)));
    loop {
        // Release the nonseq report barrier once every pool is
        // refreshed — workers are all parked behind the marker, so no
        // request can have drained a pool back to zero yet.
        if let Some(probe) = &barrier_probe {
            if matches!(probe.availability(), Ok(avail) if avail.iter().all(|&v| v > 0.0)) {
                fs::write(reports_done_path(&flags.dir), b"ok").expect("write report barrier");
                barrier_probe = None;
            }
        }
        let done = settled_lines(&flags.dir, flags.workers);
        if flags.kill_grm && killed_at.is_none() && done >= total / 3 {
            assert!(done < total, "workload drained before the kill landed; grow --requests");
            grm.kill().expect("SIGKILL daemon");
            grm.wait().expect("reap daemon");
            killed_at = Some(done);
            println!("  killed GRM daemon after {done}/{total} settled events; respawning");
            grm = respawn_role(&flags, "daemon", &[]);
        }
        if workers.iter_mut().all(|w| w.try_wait().expect("poll worker").is_some()) {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    for (w, child) in workers.iter_mut().enumerate() {
        let status = child.wait().expect("wait worker");
        assert!(status.success(), "worker {w} failed: {status}");
    }
    let elapsed = started.elapsed();

    // The chaos is over: stop injecting faults before the final state
    // reads (the replay itself is done, so nothing left to harden).
    if let Some(p) = &proxy {
        p.heal();
    }

    // Final daemon state, then merged outcomes.
    let availability = await_daemon(&endpoint);
    let stats = connect_endpoint(&endpoint).stats().ok();
    let mut merged: Vec<Option<String>> = vec![None; total];
    for w in 0..flags.workers {
        let text = fs::read_to_string(outcome_path(&flags.dir, w)).expect("read outcome log");
        for line in text.lines() {
            let (seq, rest) = line.split_once(' ').expect("malformed outcome line");
            let seq: usize = seq.parse().expect("outcome seq");
            assert!(merged[seq].is_none(), "event {seq} settled twice (at-most-once violated)");
            merged[seq] = Some(rest.to_string());
        }
    }

    let events_per_sec = total as f64 / elapsed.as_secs_f64();
    println!(
        "  replayed {} events across {} workers in {:.2}s ({:.0} events/s)",
        total,
        flags.workers,
        elapsed.as_secs_f64(),
        events_per_sec
    );
    let grants = merged.iter().flatten().filter(|l| l.starts_with('G')).count();
    let denials = merged.iter().flatten().filter(|l| l.as_str() == "D").count();
    println!("  decisions: {grants} grants, {denials} denials");
    if let Some(p) = &proxy {
        let s = p.stats();
        println!(
            "  proxy: {} delivered, {} dropped, {} duplicated, {} held, {} delayed",
            s.delivered, s.dropped, s.duplicated, s.held, s.delayed
        );
    }

    // Telemetry: the daemon's periodic snapshot (it can't export at
    // exit — we kill it). The group-commit records histogram is the
    // loss-window curve's raw material: each observation is the
    // unsynced tail one fsync retired. The daemon snapshots every
    // 200ms, so wait out a full period (plus slack) — a short run can
    // otherwise finish before the first snapshot ever lands. This sits
    // outside the timed section.
    std::thread::sleep(Duration::from_millis(450));
    if let Ok(text) = fs::read_to_string(telemetry_path(&flags.dir)) {
        if let Ok(snap) = Snapshot::from_json(&text) {
            for kind in
                [HistKind::JournalFsyncSeconds, HistKind::GroupCommitRecords, HistKind::FrameBytes]
            {
                if let Some(h) = snap.histogram(kind) {
                    println!(
                        "  {}: count={} mean={:.6} max={:.6}",
                        h.name,
                        h.count,
                        h.mean(),
                        h.max
                    );
                }
            }
            if let Some(out) = &flags.telemetry_out {
                agreements_experiments::write_snapshot(out, &snap);
            }
        }
    }

    let mut failures = 0usize;
    if flags.check {
        failures += match (&reference, flags.mode) {
            (Some(reference), _) => {
                check_replay(&flags, reference, &merged, &availability, killed_at, total)
            }
            (None, Mode::Nonseq) => check_nonseq(
                &flags,
                &cfg,
                &events,
                &merged,
                &availability,
                // A kill-9 resets the daemon's lifetime counters, so the
                // accounting cross-check only binds an uninterrupted run.
                stats.filter(|_| killed_at.is_none()).map(|s| s.granted_units),
                killed_at,
                total,
            ),
            (None, _) => unreachable!("reference exists whenever an ordered mode checks"),
        };
    }

    grm.kill().expect("stop daemon");
    grm.wait().expect("reap daemon");
    let _ = fs::remove_dir_all(&flags.dir);
    if failures > 0 {
        eprintln!("FEDERATION CHECK FAILED: {failures} assertion(s)");
        std::process::exit(1);
    }
    if flags.check {
        match flags.mode {
            Mode::Nonseq => println!(
                "  all checks passed: coverage, at-most-once, grant shape, conservation{}",
                if killed_at.is_none() { ", accounting" } else { "" }
            ),
            _ => println!("  all checks passed: coverage, decisions, state, conservation"),
        }
    }
}

/// The pipelined `--check` battery; returns the number of
/// failed assertions (reporting all of them beats stopping at the
/// first).
fn check_replay(
    flags: &Flags,
    reference: &Reference,
    merged: &[Option<String>],
    availability: &[f64],
    killed_at: Option<usize>,
    total: usize,
) -> usize {
    let mut failures = 0usize;
    let mut fail = |msg: String| {
        eprintln!("  CHECK FAILED: {msg}");
        failures += 1;
    };

    // 1. Coverage: every event settled exactly once (double settlement
    //    is caught at merge time).
    let missing = merged.iter().enumerate().filter(|(_, l)| l.is_none()).count();
    if missing > 0 {
        fail(format!("{missing}/{total} events never settled"));
    }

    // 2. Decision equality against the reference, bit-for-bit.
    let mut diverged = 0usize;
    for (seq, (got, want)) in merged.iter().zip(&reference.outcomes).enumerate() {
        if let Some(got) = got {
            if got != want {
                if diverged == 0 {
                    fail(format!("event {seq}: got `{got}`, reference `{want}`"));
                }
                diverged += 1;
            }
        }
    }
    if diverged > 1 {
        eprintln!("    ({diverged} diverging decisions in total)");
    }

    // 3. Final availability, bit-for-bit.
    if availability.len() != reference.availability.len() {
        fail("availability length mismatch".to_string());
    } else if let Some(p) = (0..availability.len())
        .find(|&p| availability[p].to_bits() != reference.availability[p].to_bits())
    {
        fail(format!(
            "availability[{p}] diverged: {} vs reference {}",
            availability[p], reference.availability[p]
        ));
    }

    // 4. Pool conservation: base pools minus exactly the grants since
    //    the last refresh.
    let expect = flags.n as f64
        * ScaleConfig::isp(flags.n, flags.requests, flags.seed).base_availability
        - reference.granted_since_refresh;
    let got: f64 = availability.iter().sum();
    if (got - expect).abs() > 1e-6 * expect.abs().max(1.0) {
        fail(format!("pool conservation: pools sum to {got}, expected {expect}"));
    }

    // 5. The kill must have landed mid-replay for the recovery claim to
    //    mean anything.
    if flags.kill_grm {
        match killed_at {
            Some(at) if at < total => {}
            Some(at) => fail(format!("daemon killed only after all {at} events settled")),
            None => fail("daemon was never killed (--kill-grm)".to_string()),
        }
    }
    failures
}

/// The nonseq `--check` battery: parse the merged logs into settlement
/// events and run the order-insensitive invariant checker.
#[allow(clippy::too_many_arguments)]
fn check_nonseq(
    flags: &Flags,
    cfg: &ScaleConfig,
    events: &[Event],
    merged: &[Option<String>],
    availability: &[f64],
    granted_units: Option<f64>,
    killed_at: Option<usize>,
    total: usize,
) -> usize {
    let mut failures = 0usize;
    let mut fail = |msg: String| {
        eprintln!("  CHECK FAILED: {msg}");
        failures += 1;
    };

    // Coverage over the full stream (reports included) first — the
    // checker's own coverage pass is scoped to requests.
    let missing = merged.iter().filter(|l| l.is_none()).count();
    if missing > 0 {
        fail(format!("{missing}/{total} events never settled"));
    }

    let expected: Vec<u64> = events
        .iter()
        .enumerate()
        .filter(|(_, ev)| matches!(ev, Event::Request { .. }))
        .map(|(seq, _)| seq as u64)
        .collect();
    let settled: Vec<CheckEvent> = merged
        .iter()
        .enumerate()
        .filter_map(|(seq, line)| {
            let line = line.as_ref()?;
            let requester = match events[seq] {
                Event::Report { lrm, .. } | Event::Request { lrm, .. } => lrm,
            };
            parse_nonseq_line(seq as u64, requester, line)
        })
        .collect();
    let base = cfg.generate().availability;
    for v in check_order_insensitive(&CheckInputs {
        base: &base,
        expected: &expected,
        events: &settled,
        final_availability: availability,
        granted_units,
    }) {
        fail(v);
    }

    if flags.kill_grm {
        match killed_at {
            Some(at) if at < total => {}
            Some(at) => fail(format!("daemon killed only after all {at} events settled")),
            None => fail("daemon was never killed (--kill-grm)".to_string()),
        }
    }
    failures
}
