//! The durable GRM daemon under load: boot a listener in-process on a
//! Unix socket, drive it closed-loop from one thread per connection, and
//! check what it decided.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use agreements_flow::{AgreementMatrix, PartitionOptions};
use agreements_grm::{GrmError, GrmServer, RequestId};
use agreements_net::{
    DurableJournal, GrmListener, ListenerConfig, NetGrmClient, Snapshot, WireRequest, WireResponse,
};
use agreements_sched::{Allocation, HierarchicalScheduler};
use agreements_telemetry::Telemetry;
use crossbeam::channel::Receiver;

use crate::host;
use crate::stats::{fnv_f64, fnv_u64, FNV_BASIS};
use crate::stream::{DaemonSpec, Engine, Op, Stream};
use crate::trace::{Span, TraceBuf, CAPTURE};

/// One request in this many is re-issued once after its reply, as an LRM
/// does after a lost reply, so the dedup window is exercised.
const REISSUE_EVERY: u64 = 64;

/// Requests in the correctness tail every run ends with.
const TAIL_REQUESTS: usize = 256;

/// A drive gives up after this many failed ops rather than spin against
/// a dead daemon.
const MAX_FAILURES: u64 = 64;

/// First-issue decisions a tally remembers.
const RECENT: usize = 64;

/// A booted daemon and how long its two expensive boot steps took.
pub struct Daemon {
    pub listener: GrmListener,
    pub sock: PathBuf,
    /// `DurableJournal::open_or_create`: on a restart, the recovery fold.
    pub journal_open_ms: f64,
    /// Engine construction: flow table, or partition + shard executor.
    pub engine_build_ms: f64,
}

/// Boot (or re-boot, when `dir` already holds a journal) the daemon of
/// `spec` under `dir`, exactly as `agreements serve` does: recover the
/// journal, spawn the engine on the recovered matrix, seed it, bind.
pub fn boot(spec: &DaemonSpec, dir: &Path, telemetry: &Telemetry) -> Result<Daemon, String> {
    let t0 = Instant::now();
    let fresh = || Snapshot {
        matrix: spec.matrix(),
        level: spec.level,
        availability: vec![0.0; spec.n],
        next_seq: 0,
        dedup: Vec::new(),
    };
    let (journal, recovered) =
        DurableJournal::open_or_create(&dir.join("journal"), fresh, spec.fsync, telemetry.clone())
            .map_err(|e| format!("journal: {e}"))?;
    let journal_open_ms = ms_since(t0);
    let t1 = Instant::now();
    let engine = match spec.engine {
        Engine::Flat => GrmServer::spawn_with_telemetry(
            recovered.matrix.clone(),
            recovered.level,
            telemetry.clone(),
        ),
        Engine::Hierarchical => GrmServer::spawn_hierarchical_with_telemetry(
            hierarchical(&recovered.matrix, recovered.level)?,
            telemetry.clone(),
        ),
    };
    let engine_build_ms = ms_since(t1);
    let server = recovered.respawn_with(engine).map_err(|e| format!("respawn: {e}"))?;
    let sock = dir.join("grm.sock");
    let config = ListenerConfig { telemetry: telemetry.clone(), ..ListenerConfig::default() };
    let listener = GrmListener::bind_uds(&sock, server, journal, recovered, config)
        .map_err(|e| format!("bind {}: {e}", sock.display()))?;
    Ok(Daemon { listener, sock, journal_open_ms, engine_build_ms })
}

/// The scheduler of the hierarchical engine, as the daemon builds it:
/// auto-partitioned, shard executor where the host has the cores.
pub fn hierarchical(
    matrix: &AgreementMatrix,
    level: usize,
) -> Result<HierarchicalScheduler, String> {
    let mut sched = HierarchicalScheduler::auto(matrix, &PartitionOptions::default(), level)
        .map_err(|e| format!("partition: {e}"))?;
    sched.set_parallel_auto();
    Ok(sched)
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// When a drive stops issuing fresh ops (re-issues it owes still go out):
/// so long after the window's start, or after so many ops.
#[derive(Clone, Copy)]
pub enum Stop {
    After(Duration),
    AfterOps(u64),
}

/// What one connection's driver saw.
#[derive(Default)]
pub struct Tally {
    pub decision_ms: Vec<f64>,
    pub report_ms: Vec<f64>,
    /// When each decision / report completed, in seconds from the
    /// window's start; parallel to `decision_ms` / `report_ms`.
    pub decision_done_s: Vec<f64>,
    pub report_done_s: Vec<f64>,
    /// First-issue `Request` decisions (grant or typed denial).
    pub first_issue: u64,
    pub grants: u64,
    pub reissues: u64,
    /// Ops that ended in a transport error, a deadline, or a re-issue
    /// that did not replay its original decision bit-for-bit.
    pub failures: u64,
    /// The last `RECENT` first-issue decisions: the window an LRM
    /// re-issues after a crash.
    pub recent: VecDeque<Decided>,
    pub trace: Option<TraceBuf>,
}

impl Tally {
    pub fn ops(&self) -> u64 {
        (self.decision_ms.len() + self.report_ms.len()) as u64
    }

    pub fn merge(&mut self, other: Tally) {
        self.decision_ms.extend(other.decision_ms);
        self.report_ms.extend(other.report_ms);
        self.decision_done_s.extend(other.decision_done_s);
        self.report_done_s.extend(other.report_done_s);
        self.first_issue += other.first_issue;
        self.grants += other.grants;
        self.reissues += other.reissues;
        self.failures += other.failures;
        self.recent.extend(other.recent);
        while self.recent.len() > RECENT {
            self.recent.pop_front();
        }
        match (&mut self.trace, other.trace) {
            (Some(mine), Some(theirs)) => mine.merge(theirs),
            (mine @ None, theirs) => *mine = theirs,
            _ => {}
        }
    }
}

/// One client connection and its place in the dealt stream.
pub struct Conn {
    pub client: NetGrmClient,
    /// Index among the connections; op `g` of the stream belongs to
    /// connection `g % stride`.
    index: u64,
    stride: u64,
    next_local: u64,
    next_seq: u64,
    requests_issued: u64,
}

impl Conn {
    pub fn new(client: NetGrmClient, index: usize, stride: usize) -> Conn {
        Conn {
            client,
            index: index as u64,
            stride: stride as u64,
            next_local: 0,
            next_seq: 0,
            requests_issued: 0,
        }
    }

    fn next_op(&mut self, stream: &Stream) -> Op {
        let g = self.next_local * self.stride + self.index;
        self.next_local += 1;
        stream.op(g)
    }

    pub fn fresh_id(&mut self) -> RequestId {
        self.next_seq += 1;
        RequestId { client: self.index + 1, seq: self.next_seq }
    }
}

type Decision = Result<Allocation, GrmError>;

/// Order-sensitive fingerprint of a decision: equal iff the replayed
/// decision is the original bit-for-bit.
pub fn decision_fingerprint(d: &Decision) -> u64 {
    match d {
        Ok(a) => {
            let mut acc = fnv_u64(FNV_BASIS, a.requester as u64);
            acc = fnv_f64(acc, a.amount);
            acc = fnv_f64(acc, a.theta);
            a.draws.iter().fold(acc, |acc, &v| fnv_f64(acc, v))
        }
        Err(e) => format!("{e:?}").bytes().fold(!FNV_BASIS, |acc, b| fnv_u64(acc, u64::from(b))),
    }
}

/// A decision the daemon actually made, as opposed to a failed op.
pub fn is_decision(d: &Decision) -> bool {
    matches!(d, Ok(_) | Err(GrmError::Sched(_)))
}

/// A first-issue request and the fingerprint of what the daemon decided:
/// what a re-issue under the same id must replay.
#[derive(Debug, Clone, Copy)]
pub struct Decided {
    pub lrm: usize,
    pub amount: f64,
    pub id: RequestId,
    pub fingerprint: u64,
}

enum Waiting {
    Report(Receiver<Result<(), GrmError>>),
    Request {
        rx: Receiver<Decision>,
        lrm: usize,
        amount: f64,
        id: RequestId,
        /// Fingerprint of the original decision when this is a re-issue.
        replay_of: Option<u64>,
        reissue_after: bool,
    },
}

struct InFlight {
    issued: Instant,
    waiting: Waiting,
}

/// Drive one connection closed-loop with `window` ops in flight until
/// `stop`, then drain. Reply latency is issue → reply observed;
/// completion times count from `origin`.
pub fn drive(
    conn: &mut Conn,
    stream: &Stream,
    window: usize,
    stop: Stop,
    origin: Instant,
    tally: &mut Tally,
) {
    let mut inflight: VecDeque<InFlight> = VecDeque::with_capacity(window);
    let mut retries: VecDeque<Decided> = VecDeque::new();
    let mut issued = 0u64;
    loop {
        while inflight.len() < window && tally.failures < MAX_FAILURES {
            let issued_at = Instant::now();
            let waiting = if let Some(r) = retries.pop_front() {
                conn.client.request_acked_async(r.lrm, r.amount, r.id).map(|(rx, _)| {
                    Waiting::Request {
                        rx,
                        lrm: r.lrm,
                        amount: r.amount,
                        id: r.id,
                        replay_of: Some(r.fingerprint),
                        reissue_after: false,
                    }
                })
            } else {
                let done = match stop {
                    Stop::After(span) => issued_at >= origin + span,
                    Stop::AfterOps(k) => issued >= k,
                };
                if done {
                    break;
                }
                issued += 1;
                match conn.next_op(stream) {
                    Op::Report { lrm, available } => conn
                        .client
                        .report_acked_async(lrm, available)
                        .map(|(rx, _)| Waiting::Report(rx)),
                    Op::Demand { lrm, amount } => {
                        let id = conn.fresh_id();
                        conn.requests_issued += 1;
                        let reissue_after = conn.requests_issued.is_multiple_of(REISSUE_EVERY);
                        conn.client.request_acked_async(lrm, amount, id).map(|(rx, _)| {
                            Waiting::Request { rx, lrm, amount, id, replay_of: None, reissue_after }
                        })
                    }
                }
            };
            match waiting {
                Ok(waiting) => inflight.push_back(InFlight { issued: issued_at, waiting }),
                Err(_) => tally.failures += 1,
            }
        }
        let Some(op) = inflight.pop_front() else { break };
        complete(op, conn.index, origin, &mut retries, tally);
    }
}

fn complete(
    op: InFlight,
    conn: u64,
    origin: Instant,
    retries: &mut VecDeque<Decided>,
    tally: &mut Tally,
) {
    match op.waiting {
        Waiting::Report(rx) => {
            let reply = rx.recv().unwrap_or(Err(GrmError::ConnectionReset));
            let done = Instant::now();
            match reply {
                Ok(()) => {
                    tally.report_ms.push((done - op.issued).as_secs_f64() * 1e3);
                    tally.report_done_s.push((done - origin).as_secs_f64());
                }
                Err(_) => tally.failures += 1,
            }
            if let Some(trace) = &mut tally.trace {
                trace.span(Span::op("client.report", conn, op.issued, done, None));
            }
        }
        Waiting::Request { rx, lrm, amount, id, replay_of, reissue_after } => {
            let decision = rx.recv().unwrap_or(Err(GrmError::ConnectionReset));
            let done = Instant::now();
            if let Some(trace) = &mut tally.trace {
                trace.span(Span::op("client.request", conn, op.issued, done, Some(id)));
                if trace.captured.len() < CAPTURE {
                    trace.captured.push((
                        WireRequest::Request { lrm: lrm as u64, amount, req_id: Some(id) },
                        WireResponse::Grant(decision.clone()),
                    ));
                }
            }
            if !is_decision(&decision) {
                tally.failures += 1;
                return;
            }
            tally.decision_ms.push((done - op.issued).as_secs_f64() * 1e3);
            tally.decision_done_s.push((done - origin).as_secs_f64());
            let fingerprint = decision_fingerprint(&decision);
            match replay_of {
                Some(original) => {
                    tally.reissues += 1;
                    if original != fingerprint {
                        tally.failures += 1;
                    }
                }
                None => {
                    tally.first_issue += 1;
                    tally.grants += u64::from(decision.is_ok());
                    if tally.recent.len() == RECENT {
                        tally.recent.pop_front();
                    }
                    let decided = Decided { lrm, amount, id, fingerprint };
                    tally.recent.push_back(decided);
                    if reissue_after {
                        retries.push_back(decided);
                    }
                }
            }
        }
    }
}

/// A measured window over every connection.
pub struct Window {
    pub tally: Tally,
    /// Process CPU seconds consumed by the end of each whole interval of
    /// `INTERVAL_S` since the window's start.
    cpu_by_interval: Vec<f64>,
}

/// The window is also measured in intervals of this length. Throughput
/// on this pipeline is bound by thread wake-ups, not by CPU, and the
/// kernel moves between a slow and a fast placement of the threads every
/// second or so; the mean over the worse half of the intervals reads the
/// level the daemon sustains, where the mean over the window reads the
/// mix of the two regimes and differs by ±15 % between runs of one seed.
pub const INTERVAL_S: f64 = 0.5;

/// What one whole interval of a window measured.
pub struct Interval {
    pub decisions_per_s: f64,
    pub decision_p50_ms: f64,
    pub cpu_us_per_op: f64,
}

impl Window {
    /// The whole intervals of the window, in time order. The drain after
    /// the deadline is not an interval.
    pub fn intervals(&self) -> Vec<Interval> {
        let count = self.cpu_by_interval.len();
        let slot = |done_s: f64| (done_s / INTERVAL_S) as usize;
        let mut latencies: Vec<Vec<f64>> = vec![Vec::new(); count];
        let mut ops = vec![0u64; count];
        for (&ms, &done_s) in self.tally.decision_ms.iter().zip(&self.tally.decision_done_s) {
            if slot(done_s) < count {
                latencies[slot(done_s)].push(ms);
                ops[slot(done_s)] += 1;
            }
        }
        for &done_s in &self.tally.report_done_s {
            if slot(done_s) < count {
                ops[slot(done_s)] += 1;
            }
        }
        let mut cpu_before = 0.0;
        latencies
            .into_iter()
            .zip(ops)
            .zip(&self.cpu_by_interval)
            .map(|((mut ms, ops), &cpu)| {
                crate::stats::sort(&mut ms);
                let interval = Interval {
                    decisions_per_s: ms.len() as f64 / INTERVAL_S,
                    decision_p50_ms: crate::stats::quantile(&ms, 0.5),
                    cpu_us_per_op: (cpu - cpu_before) * 1e6 / ops.max(1) as f64,
                };
                cpu_before = cpu;
                interval
            })
            .collect()
    }
}

/// A daemon, its clients, and the client-side books the final checks
/// compare the daemon's own counters against.
pub struct Harness {
    pub spec: DaemonSpec,
    pub daemon: Daemon,
    pub stream: Stream,
    pub conns: Vec<Conn>,
    first_issue: u64,
    grants: u64,
    reissues: u64,
    ops: u64,
}

/// Wall time of the set-up steps a later change could move work into.
pub struct SetupTimes {
    pub total_s: f64,
    pub generate_ms: f64,
    pub engine_build_ms: f64,
}

impl Harness {
    /// Everything before the first measured op: generate the stream,
    /// boot the daemon under `dir`, connect, and drive the warm-up.
    pub fn set_up(
        spec: DaemonSpec,
        seed: u64,
        dir: &Path,
        conns: usize,
        telemetry: &Telemetry,
        started: Instant,
    ) -> Result<(Harness, SetupTimes), String> {
        let t = Instant::now();
        let stream = Stream::generate(spec.n, seed);
        let generate_ms = ms_since(t);
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let daemon = boot(&spec, dir, telemetry)?;
        let conns = (0..conns)
            .map(|i| {
                let client = NetGrmClient::uds(&daemon.sock).with_telemetry(telemetry.clone());
                Conn::new(client, i, conns)
            })
            .collect();
        let mut harness =
            Harness { spec, daemon, stream, conns, first_issue: 0, grants: 0, reissues: 0, ops: 0 };
        let per_conn = spec.warmup_ops / harness.conns.len() as u64;
        let warm = harness.measure(Stop::AfterOps(per_conn), false);
        if warm.tally.failures > 0 {
            return Err(format!("{} ops failed during warm-up", warm.tally.failures));
        }
        let times = SetupTimes {
            total_s: started.elapsed().as_secs_f64(),
            generate_ms,
            engine_build_ms: harness.daemon.engine_build_ms,
        };
        Ok((harness, times))
    }

    /// Drive every connection from its own thread until `stop`.
    pub fn measure(&mut self, stop: Stop, trace: bool) -> Window {
        let cpu0 = host::cpu_seconds();
        let t0 = Instant::now();
        let window = self.spec.window;
        let stream = &self.stream;
        let mut cpu_by_interval = Vec::new();
        let tallies: Vec<Tally> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .conns
                .iter_mut()
                .map(|conn| {
                    s.spawn(move || {
                        let mut tally =
                            Tally { trace: trace.then(|| TraceBuf::new(t0)), ..Tally::default() };
                        let start = Instant::now();
                        drive(conn, stream, window, stop, t0, &mut tally);
                        if let Some(trace) = &mut tally.trace {
                            trace.span(Span::conn(conn.index, start, Instant::now()));
                        }
                        tally
                    })
                })
                .collect();
            // This thread has nothing to do but wait: it reads the CPU
            // clock at every interval boundary meanwhile.
            let poll = Duration::from_millis(20);
            while !handles.iter().all(|h| h.is_finished()) {
                let boundary = (cpu_by_interval.len() + 1) as f64 * INTERVAL_S;
                let left = (t0 + Duration::from_secs_f64(boundary))
                    .saturating_duration_since(Instant::now());
                if left.is_zero() {
                    cpu_by_interval.push(host::cpu_seconds() - cpu0);
                } else {
                    std::thread::sleep(left.min(poll));
                }
            }
            handles.into_iter().map(|h| h.join().expect("driver thread panicked")).collect()
        });
        // The window's last boundary is its deadline, which the drivers
        // may beat this thread to; the drain after it is not an interval.
        if let Stop::After(window) = stop {
            let whole = (window.as_secs_f64() / INTERVAL_S) as usize;
            if cpu_by_interval.len() + 1 == whole {
                cpu_by_interval.push(host::cpu_seconds() - cpu0);
            }
            cpu_by_interval.truncate(whole);
        }
        let mut tally = Tally::default();
        for t in tallies {
            tally.merge(t);
        }
        self.first_issue += tally.first_issue;
        self.grants += tally.grants;
        self.reissues += tally.reissues;
        self.ops += tally.ops();
        Window { tally, cpu_by_interval }
    }

    /// Ops completed since the daemon booted, warm-up included: what the
    /// daemon's own since-boot counters are divided by.
    pub fn lifetime_ops(&self) -> u64 {
        self.ops
    }

    /// The check every run ends with, on the quiesced daemon over one
    /// connection: a full report epoch, then a fixed tail of requests
    /// one at a time, with exact pool conservation across the tail and
    /// the daemon's own counters equal to the client's books. Returns
    /// `(checks made, what failed)`.
    pub fn verify(&mut self) -> (u64, Vec<String>) {
        let mut checks = 0u64;
        let mut failed = Vec::new();
        let mut check = |ok: bool, what: String| {
            checks += 1;
            if !ok {
                failed.push(what);
            }
        };
        let stream = &self.stream;
        let conn = &mut self.conns[0];
        let acks: Vec<_> = stream
            .pool()
            .iter()
            .enumerate()
            .map(|(lrm, &v)| conn.client.report_acked_async(lrm, v))
            .collect();
        let acked = acks.into_iter().all(|a| matches!(a.map(|(rx, _)| rx.recv()), Ok(Ok(Ok(())))));
        check(acked, "tail: a report was not acknowledged".into());
        let before = conn.client.availability().unwrap_or_default();
        check(before == stream.pool(), "tail: availability after the report epoch != pools".into());

        let mut expected = before;
        let mut seen = 0;
        while seen < TAIL_REQUESTS {
            let Op::Demand { lrm, amount } = conn.next_op(stream) else { continue };
            seen += 1;
            let id = conn.fresh_id();
            let decision = conn
                .client
                .request_acked_async(lrm, amount, id)
                .and_then(|(rx, _)| rx.recv().unwrap_or(Err(GrmError::ConnectionReset)));
            check(is_decision(&decision), format!("tail: request {seen} failed: {decision:?}"));
            self.first_issue += 1;
            if let Ok(alloc) = &decision {
                self.grants += 1;
                let drawn: f64 = alloc.draws.iter().sum();
                check(
                    (drawn - alloc.amount).abs() <= 1e-9 * alloc.amount.max(1.0),
                    format!("tail: draws sum to {drawn}, granted {}", alloc.amount),
                );
                for (v, d) in expected.iter_mut().zip(&alloc.draws) {
                    *v = (*v - d).max(0.0);
                }
            }
        }
        let after = conn.client.availability().unwrap_or_default();
        check(after == expected, "tail: availability != reported − Σ draws".into());

        match conn.client.stats() {
            Ok(stats) => {
                check(
                    stats.requests == self.first_issue,
                    format!("stats.requests {} != issued {}", stats.requests, self.first_issue),
                );
                check(
                    stats.granted == self.grants,
                    format!("stats.granted {} != grants seen {}", stats.granted, self.grants),
                );
                check(
                    stats.duplicate_requests == self.reissues,
                    format!(
                        "stats.duplicate_requests {} != re-issues {}",
                        stats.duplicate_requests, self.reissues
                    ),
                );
            }
            Err(e) => check(false, format!("stats: {e}")),
        }
        (checks, failed)
    }

    /// Disconnect the clients and shut the daemon down (journal synced).
    pub fn shut_down(self) {
        for conn in &self.conns {
            conn.client.disconnect();
        }
        self.daemon.listener.shutdown();
    }
}

/// Stop `seconds` into the window.
pub fn deadline(seconds: f64) -> Stop {
    Stop::After(Duration::from_secs_f64(seconds))
}
