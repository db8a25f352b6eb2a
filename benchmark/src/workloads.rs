//! The six workloads. Each runs in a process of its own and returns an
//! [`Outcome`]: the end-to-end metrics of an untraced run, or — with
//! `trace` — the per-layer metrics of a traced run plus layer probes.
//! End-to-end numbers never come from a traced run.

use std::path::{Path, PathBuf};
use std::time::Instant;

use agreements_flow::{IncrementalFlow, TransitiveFlow};
use agreements_grm::RequestId;
use agreements_net::{DurableJournal, NetGrmClient};
use agreements_telemetry::{HistKind, Recorder, Snapshot, Telemetry, DEFAULT_EVENT_CAPACITY};

use crate::daemon::{
    boot, deadline, decision_fingerprint, is_decision, ms_since, Decided, Harness, Interval,
    SetupTimes, Stop, Tally, Window,
};
use crate::report::Outcome;
use crate::sim::{self, Kind, Sim10};
use crate::stats::{mean, median, quantile, sort};
use crate::stream::{DaemonSpec, FLAT128, ISP1000, SERIAL10, WIRE10};
use crate::{host, layers};

/// Connections of the load generator, one driver thread each. Fixed, so
/// that runs on hosts of different sizes offer the same load.
pub const CONNECTIONS: usize = 2;

/// Set-up is run this many times per untraced run; `setup_s` is the
/// median.
const SETUPS: usize = 3;

/// `restart1000`: ops driven through one connection before the first
/// shutdown (below `compact_every`, so every restart replays them all).
const RESTART_OPS: u64 = 6_000;

/// The first fresh request after each restart: small enough to be
/// granted from the requester's own group whatever the pools hold.
const FRESH_AMOUNT: f64 = 0.5;

const RESET: agreements_grm::GrmError = agreements_grm::GrmError::ConnectionReset;

/// The golden fingerprints of `sim10` at the default seed.
const GOLDEN: &str = include_str!("../golden.json");

pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// `benchmark/out`, relative to the working directory.
    pub out: PathBuf,
    /// Process start, the origin of the first `setup_s` sample.
    pub started: Instant,
}

impl RunArgs {
    /// A scratch directory of this process under `out`.
    fn scratch(&self, tag: &str) -> PathBuf {
        self.out.join(format!("tmp-{}-{tag}", std::process::id()))
    }
}

pub fn daemon_spec(name: &str) -> Option<DaemonSpec> {
    [WIRE10, FLAT128, ISP1000, SERIAL10].into_iter().find(|s| s.name == name)
}

/// The fsync policy a workload's journal runs under, for provenance.
pub fn fsync_label(name: &str) -> String {
    match name {
        "restart1000" => ISP1000.fsync_label(),
        "sim10" => "none".into(),
        _ => daemon_spec(name).map_or_else(|| "none".into(), |s| s.fsync_label()),
    }
}

pub fn run(name: &str, args: &RunArgs) -> Result<Outcome, String> {
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    match name {
        "restart1000" => restart(args),
        "sim10" => sim10(args),
        _ => match daemon_spec(name) {
            Some(spec) if args.trace => daemon_traced(spec, args),
            Some(spec) => daemon_untraced(spec, args),
            None => Err(format!("unknown workload {name:?}")),
        },
    }
}

fn remove(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

fn recorder() -> (Telemetry, std::sync::Arc<Recorder>) {
    Telemetry::recorder(DEFAULT_EVENT_CAPACITY)
}

/// The end-to-end metrics of the two workloads measured over the whole
/// window. `decisions` is what `decisions_per_s` counts and `ops` what
/// `cpu_us_per_op` divides by.
struct EndToEnd<'a> {
    setups: &'a [f64],
    decision_ms: &'a mut Vec<f64>,
    wall_s: f64,
    cpu_s: f64,
    decisions: u64,
    ops: u64,
    grants: u64,
    first_issue: u64,
}

fn push_end_to_end(o: &mut Outcome, e: EndToEnd<'_>) {
    sort(e.decision_ms);
    let n = e.decision_ms.len() as u64;
    o.push("setup_s", median(e.setups), e.setups.len() as u64);
    o.push("decisions_per_s", e.decisions as f64 / e.wall_s, e.decisions);
    o.push("decision_p50_ms", quantile(e.decision_ms, 0.50), n);
    o.push("admit_frac", e.grants as f64 / e.first_issue.max(1) as f64, e.first_issue);
    o.push("cpu_us_per_op", e.cpu_s * 1e6 / e.ops.max(1) as f64, e.ops);
}

/// Ops of a window count as attempted; the ones that failed, as failed.
fn count_ops(o: &mut Outcome, tally: &Tally) {
    o.attempted += tally.ops() + tally.failures;
    o.failed += tally.failures;
    if tally.failures > 0 {
        o.failures.push(format!("{} ops failed or replayed a different decision", tally.failures));
    }
}

fn count_checks(o: &mut Outcome, (checks, failed): (u64, Vec<String>)) {
    o.attempted += checks;
    o.failed += failed.len() as u64;
    o.failures.extend(failed);
}

// ---------------------------------------------------------------------
// wire10, flat128, isp1000, serial10
// ---------------------------------------------------------------------

fn daemon_untraced(spec: DaemonSpec, args: &RunArgs) -> Result<Outcome, String> {
    let dir = args.scratch("d");
    let mut setups = Vec::new();
    let mut kept: Option<Harness> = None;
    for round in 0..SETUPS {
        if let Some(harness) = kept.take() {
            harness.shut_down();
            remove(&dir);
        }
        let started = if round == 0 { args.started } else { Instant::now() };
        let (harness, times) =
            Harness::set_up(spec, args.seed, &dir, CONNECTIONS, &Telemetry::disabled(), started)?;
        setups.push(times.total_s);
        kept = Some(harness);
    }
    let mut harness = kept.expect("SETUPS > 0");

    let window = harness.measure(deadline(args.seconds), false);
    let mut o = Outcome::default();
    count_ops(&mut o, &window.tally);
    count_checks(&mut o, harness.verify());
    harness.shut_down();

    // Rates and medians are means over the worse half of the window's
    // intervals (see `INTERVAL_S`); the admitted share comes from the
    // whole window.
    let intervals = window.intervals();
    let tally = &window.tally;
    let k = intervals.len() as u64;
    o.push("setup_s", median(&setups), setups.len() as u64);
    o.push("decisions_per_s", worse_half(&intervals, |i| i.decisions_per_s, true), k);
    o.push("decision_p50_ms", worse_half(&intervals, |i| i.decision_p50_ms, false), k);
    o.push("admit_frac", ratio(tally.grants, tally.first_issue), tally.first_issue);
    o.push("cpu_us_per_op", worse_half(&intervals, |i| i.cpu_us_per_op, false), k);
    remove(&dir);
    Ok(o)
}

/// Mean of `of` over the worse half of the intervals.
fn worse_half(intervals: &[Interval], of: fn(&Interval) -> f64, lower_is_worse: bool) -> f64 {
    let mut values: Vec<f64> = intervals.iter().map(of).collect();
    sort(&mut values);
    if !lower_is_worse {
        values.reverse();
    }
    mean(&values[..values.len().div_ceil(2)])
}

fn hist_mean(snap: &Snapshot, kind: HistKind) -> (f64, u64) {
    snap.histogram(kind).map_or((0.0, 0), |h| (h.mean(), h.count))
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn daemon_traced(spec: DaemonSpec, args: &RunArgs) -> Result<Outcome, String> {
    let mut o = Outcome::default();

    // Untraced reference window: the base of `telemetry.overhead_frac`
    // and of the user-visible numbers that are reported but not gated.
    let dir = args.scratch("u");
    let (mut plain, _) =
        Harness::set_up(spec, args.seed, &dir, CONNECTIONS, &Telemetry::disabled(), args.started)?;
    let mut untraced = plain.measure(deadline(args.seconds * 0.3), false);
    count_ops(&mut o, &untraced.tally);
    plain.shut_down();
    remove(&dir);
    let rss_mb = host::peak_rss_mb();

    // Traced window: one recorder handed to every public constructor,
    // benchmark-side spans around every client call.
    let dir = args.scratch("t");
    let (telemetry, rec) = recorder();
    let (mut harness, times) =
        Harness::set_up(spec, args.seed, &dir, CONNECTIONS, &telemetry, Instant::now())?;
    let traced = harness.measure(deadline(args.seconds * 0.4), true);
    let traced_end = Instant::now();
    count_ops(&mut o, &traced.tally);
    let snap = rec.snapshot();
    let ops_since_boot = harness.lifetime_ops();
    let (group_syncs, group_records) = harness.daemon.listener.group_commit_stats();
    let mirror = harness.daemon.listener.mirror_snapshot();
    // `verify` checks, among the rest, that the daemon's dedup replays
    // equal the re-issues sent; the metric is the daemon's own count.
    count_checks(&mut o, harness.verify());
    let duplicates = harness.conns[0].client.stats().map_or(0, |s| s.duplicate_requests);
    let pool = harness.stream.pool().to_vec();
    harness.shut_down();

    let t = Instant::now();
    let reopened = DurableJournal::open(&dir.join("journal"), spec.fsync, Telemetry::disabled());
    let recover_ms = ms_since(t);
    o.check(reopened.is_ok(), || "the traced run's journal does not reopen".into());
    drop(reopened);

    let trace = traced.tally.trace.as_ref().expect("traced window");
    let trace_path = args.out.join(format!("trace-{}.json", spec.name));
    trace
        .write(&trace_path, spec.name, traced_end)
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    std::fs::write(args.out.join(format!("telemetry-{}.json", spec.name)), snap.to_json())
        .map_err(|e| format!("telemetry snapshot: {e}"))?;

    // Layer probes over the captured messages.
    let captured = &trace.captured;
    let codec = layers::codec(captured);
    let probe_dir = args.scratch("p");
    let journal = layers::journal(captured, &mirror, &probe_dir.join("journal"))
        .map_err(|e| format!("journal probe: {e}"))?;
    remove(&probe_dir);
    let engine = layers::engine(&spec, captured, &pool);
    remove(&dir);

    let n_cap = captured.len() as u64;
    o.push("net.wire.request_encode_ns", codec.request_encode_ns, n_cap);
    o.push("net.wire.request_decode_ns", codec.request_decode_ns, n_cap);
    o.push("net.wire.response_encode_ns", codec.response_encode_ns, n_cap);
    o.push("net.wire.response_decode_ns", codec.response_decode_ns, n_cap);
    o.push("net.frame.encode_ns", codec.frame_encode_ns, n_cap);
    o.push("net.frame.decode_ns", codec.frame_decode_ns, n_cap);
    o.push("net.frame.bytes_per_op", codec.frame_bytes_per_op, n_cap);
    o.push("net.journal.record_encode_ns", codec.record_encode_ns, n_cap);
    o.push("net.journal.record_bytes", codec.record_bytes, n_cap);
    o.push("net.journal.append_us", journal.append_us, n_cap);
    o.push("net.journal.mirror_apply_us", journal.mirror_apply_us, n_cap);
    o.push("net.journal.sync_us", journal.sync_us, 64);
    o.push("net.journal.compact_ms", journal.compact_ms, 3);
    o.push("net.journal.snapshot_bytes", journal.snapshot_bytes, 1);
    o.push("net.journal.recover_ms", recover_ms, 1);

    let (fsync_s, fsyncs) = hist_mean(&snap, HistKind::JournalFsyncSeconds);
    o.push("net.journal.fsync_us", fsync_s * 1e6, fsyncs);
    o.push("net.journal.fsyncs_per_op", ratio(fsyncs, ops_since_boot), ops_since_boot);
    o.push("net.listener.group_records_mean", ratio(group_records, group_syncs), group_syncs);

    let (latency_s, decided) = hist_mean(&snap, HistKind::RequestLatencySeconds);
    let (queue_s, queued) = hist_mean(&snap, HistKind::QueueWaitSeconds);
    let (drain_s, drains) = hist_mean(&snap, HistKind::ServeDrainSeconds);
    let (batch, runs) = hist_mean(&snap, HistKind::BatchSize);
    let requests = snap.counter("grm.requests");
    o.push("grm.request_latency_us", latency_s * 1e6, decided);
    o.push("grm.queue_wait_us", queue_s * 1e6, queued);
    o.push("grm.serve_drain_us", drain_s * 1e6, drains);
    o.push(
        "grm.wakeups_per_op",
        ratio(snap.counter("grm.wakeups"), ops_since_boot),
        ops_since_boot,
    );
    o.push("grm.fast_reject_frac", ratio(snap.counter("grm.fast_rejects"), requests), requests);
    o.push("grm.dedup_replays", duplicates as f64, duplicates);
    o.push("grm.batch_size_mean", batch, runs);
    o.push("grm.inproc_blocking_us", engine.inproc_blocking_us, n_cap);
    o.push("grm.inproc_windowed_us", engine.inproc_windowed_us, n_cap);

    o.push("sched.admit_one_us", engine.admit_one_us, n_cap);
    o.push("sched.admit_batch_us", engine.admit_batch_us, n_cap);
    o.push("sched.home_hit_frac", ratio(snap.counter("hier.home_hits"), requests), requests);
    o.push(
        "sched.coarse_solves_per_decision",
        ratio(snap.counter("hier.coarse_solves"), requests),
        requests,
    );
    o.push(
        "sched.executor_fallback_frac",
        ratio(snap.counter("grm.executor_fallbacks_sequential"), runs),
        runs,
    );
    o.push("sched.build_ms", times.engine_build_ms, 1);

    let (solve_s, solves) = hist_mean(&snap, HistKind::LpSolveSeconds);
    o.push("lp.solve_us", solve_s * 1e6, solves);
    o.push("lp.solves_per_decision", ratio(solves, requests), requests);
    o.push("flow.compute_ms", engine.flow_compute_ms, 1);
    o.push("trace.generate_ms", times.generate_ms, 1);

    let untraced_rate = worse_half(&untraced.intervals(), |i| i.decisions_per_s, true);
    let traced_rate = worse_half(&traced.intervals(), |i| i.decisions_per_s, true);
    o.push(
        "telemetry.overhead_frac",
        1.0 - traced_rate / untraced_rate,
        traced.tally.decision_ms.len() as u64,
    );

    // The stage ledger: shares of one durable round trip with nothing
    // queued behind it, so only the unwindowed workload has one.
    if spec.window == 1 {
        let n = traced.tally.decision_ms.len() as u64;
        let total_us = mean(&traced.tally.decision_ms) * 1e3;
        let fsyncs_per_op = ratio(fsyncs, ops_since_boot);
        let shares = [
            ("ledger.engine_frac", latency_s * 1e6 / total_us),
            ("ledger.queue_frac", queue_s * 1e6 / total_us),
            ("ledger.fsync_frac", fsync_s * 1e6 * fsyncs_per_op / total_us),
            ("ledger.codec_frac", codec.total_us() / total_us),
        ];
        let mut rest = 1.0;
        for (name, share) in shares {
            o.push(name, share, n);
            rest -= share;
        }
        o.push("ledger.residual_frac", rest, n);
    }

    push_ungated(&mut o, &mut untraced, rss_mb);
    Ok(o)
}

/// User-visible numbers too unsteady or too workload-specific to gate;
/// measured untraced like every end-to-end number.
fn push_ungated(o: &mut Outcome, untraced: &mut Window, rss_mb: f64) {
    sort(&mut untraced.tally.decision_ms);
    sort(&mut untraced.tally.report_ms);
    let (d, r) = (&untraced.tally.decision_ms, &untraced.tally.report_ms);
    o.push("decision_p99_ms", quantile(d, 0.99), d.len() as u64);
    o.push("decision_p999_ms", quantile(d, 0.999), d.len() as u64);
    o.push("report_p50_ms", quantile(r, 0.5), r.len() as u64);
    o.push("peak_rss_mb", rss_mb, 1);
}

// ---------------------------------------------------------------------
// restart1000
// ---------------------------------------------------------------------

/// What `restart1000`'s set-up leaves behind: a journal holding exactly
/// `RESTART_OPS` ops and the daemon's last answers.
struct Crashed {
    /// The requests the LRM had in flight when the daemon died.
    owed: Vec<Decided>,
    availability: Vec<f64>,
    times: SetupTimes,
}

fn drive_and_crash(args: &RunArgs, dir: &Path, started: Instant) -> Result<Crashed, String> {
    let spec = DaemonSpec { warmup_ops: 0, ..ISP1000 };
    let (mut harness, mut times) =
        Harness::set_up(spec, args.seed, dir, 1, &Telemetry::disabled(), started)?;
    let window = harness.measure(Stop::AfterOps(RESTART_OPS), false);
    if window.tally.failures > 0 {
        return Err(format!("{} ops failed before the crash", window.tally.failures));
    }
    let owed = window.tally.recent.iter().copied().collect();
    let availability =
        harness.conns[0].client.availability().map_err(|e| format!("availability: {e}"))?;
    harness.shut_down();
    times.total_s = started.elapsed().as_secs_f64();
    Ok(Crashed { owed, availability, times })
}

/// One measured restart.
struct Cycle {
    /// Journal open → respawn → bind → replays → first fresh decision.
    outage_s: f64,
    journal_open_ms: f64,
    engine_build_ms: f64,
}

fn restart(args: &RunArgs) -> Result<Outcome, String> {
    let dir = args.scratch("r");
    let mut setups = Vec::new();
    let mut crashed = None;
    for round in 0..SETUPS {
        remove(&dir);
        let started = if round == 0 { args.started } else { Instant::now() };
        let c = drive_and_crash(args, &dir, started)?;
        setups.push(c.times.total_s);
        crashed = Some(c);
    }
    let crashed = crashed.expect("SETUPS > 0");
    let mut expected = crashed.availability.clone();
    let mut o = Outcome::default();

    // Untraced cycles for the whole window; with `trace`, for half of
    // it, then traced cycles with a recorder for the other half.
    let (telemetry, rec) = recorder();
    let plan: &[(Telemetry, f64)] = if args.trace {
        &[(Telemetry::disabled(), 0.5), (telemetry, 0.5)]
    } else {
        &[(Telemetry::disabled(), 1.0)]
    };
    let cpu0 = host::cpu_seconds();
    let t0 = Instant::now();
    let mut phases: Vec<(Vec<Cycle>, f64)> = Vec::new();
    let mut decision_ms = Vec::new();
    let (mut grants, mut fresh, mut replays) = (0u64, 0u64, 0u64);
    let mut cycle_no = 0u64;
    for (plane, share) in plan {
        let phase_start = Instant::now();
        let mut cycles = Vec::new();
        while phase_start.elapsed().as_secs_f64() < args.seconds * share {
            cycle_no += 1;
            let crash = Instant::now();
            let daemon = boot(&ISP1000, &dir, plane)?;
            let client = NetGrmClient::uds(&daemon.sock).with_telemetry(plane.clone());
            // The window in flight at the crash goes out again at once;
            // each of those decisions has been waiting since the crash.
            let replies: Vec<_> = crashed
                .owed
                .iter()
                .map(|r| client.request_acked_async(r.lrm, r.amount, r.id))
                .collect();
            for (reply, owed) in replies.into_iter().zip(&crashed.owed) {
                let decision = reply.and_then(|(rx, _)| rx.recv().unwrap_or(Err(RESET)));
                decision_ms.push(ms_since(crash));
                replays += 1;
                o.check(decision_fingerprint(&decision) == owed.fingerprint, || {
                    format!("cycle {cycle_no}: replay of {:?} differs across the restart", owed.id)
                });
            }
            // One fresh, small request: the first new decision.
            let id = RequestId { client: 1_000 + cycle_no, seq: 1 };
            let lrm = (cycle_no as usize * 7) % ISP1000.n;
            let issued = Instant::now();
            let decision = client
                .request_acked_async(lrm, FRESH_AMOUNT, id)
                .and_then(|(rx, _)| rx.recv().unwrap_or(Err(RESET)));
            decision_ms.push(ms_since(issued));
            let outage_s = crash.elapsed().as_secs_f64();
            o.check(is_decision(&decision), || format!("cycle {cycle_no}: fresh request failed"));
            fresh += 1;
            if let Ok(alloc) = &decision {
                grants += 1;
                for (v, d) in expected.iter_mut().zip(&alloc.draws) {
                    *v = (*v - d).max(0.0);
                }
            }
            // Recovered pools are the pre-shutdown pools, less what the
            // fresh requests since have drawn.
            let recovered = client.availability().unwrap_or_default();
            o.check(recovered == expected, || {
                format!("cycle {cycle_no}: recovered availability != pre-shutdown")
            });
            let duplicates = client.stats().map(|s| s.duplicate_requests).unwrap_or(u64::MAX);
            o.check(duplicates == crashed.owed.len() as u64, || {
                format!(
                    "cycle {cycle_no}: {duplicates} dedup replays, {} re-issues",
                    crashed.owed.len()
                )
            });
            client.disconnect();
            cycles.push(Cycle {
                outage_s,
                journal_open_ms: daemon.journal_open_ms,
                engine_build_ms: daemon.engine_build_ms,
            });
            daemon.listener.shutdown();
        }
        phases.push((cycles, phase_start.elapsed().as_secs_f64()));
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = host::cpu_seconds() - cpu0;
    remove(&dir);
    let decisions = decision_ms.len() as u64;
    o.attempted += decisions;

    if !args.trace {
        push_end_to_end(
            &mut o,
            EndToEnd {
                setups: &setups,
                decision_ms: &mut decision_ms,
                wall_s,
                cpu_s,
                decisions,
                ops: decisions,
                grants,
                first_issue: fresh,
            },
        );
        return Ok(o);
    }

    let [(plain, plain_s), (traced, traced_s)] = &phases[..] else {
        unreachable!("a traced run plans two phases")
    };
    let all = || plain.iter().chain(traced);
    let n = all().count() as u64;
    o.push(
        "restart_s",
        median(&plain.iter().map(|c| c.outage_s).collect::<Vec<_>>()),
        plain.len() as u64,
    );
    o.push(
        "net.journal.recover_ms",
        median(&all().map(|c| c.journal_open_ms).collect::<Vec<_>>()),
        n,
    );
    o.push("sched.build_ms", median(&all().map(|c| c.engine_build_ms).collect::<Vec<_>>()), n);
    o.push("trace.generate_ms", crashed.times.generate_ms, 1);
    o.push("grm.dedup_replays", replays as f64, replays);
    let snap = rec.snapshot();
    let (solve_s, solves) = hist_mean(&snap, HistKind::LpSolveSeconds);
    o.push("lp.solve_us", solve_s * 1e6, solves);
    let (fsync_s, fsyncs) = hist_mean(&snap, HistKind::JournalFsyncSeconds);
    o.push("net.journal.fsync_us", fsync_s * 1e6, fsyncs);
    o.push(
        "telemetry.overhead_frac",
        1.0 - (traced.len() as f64 / traced_s) / (plain.len() as f64 / plain_s),
        traced.len() as u64,
    );
    sort(&mut decision_ms);
    o.push("decision_p99_ms", quantile(&decision_ms, 0.99), decisions);
    o.push("decision_p999_ms", quantile(&decision_ms, 0.999), decisions);
    o.push("peak_rss_mb", host::peak_rss_mb(), 1);
    Ok(o)
}

// ---------------------------------------------------------------------
// sim10
// ---------------------------------------------------------------------

/// The fingerprints `golden.json` pins at the default seed.
#[derive(serde::Deserialize)]
struct Golden {
    seed: u64,
    static_fnv: String,
    fluctuating_fnv: String,
}

fn hex(v: u64) -> String {
    format!("{v:#018x}")
}

/// One timed simulator run.
struct SimRun {
    kind: Kind,
    seconds: f64,
    fingerprint: u64,
    consultations: u64,
}

/// Whole runs, alternating from the static one, until `seconds` have
/// passed and `at_least` runs are done.
fn sim_runs(sim: &Sim10, seconds: f64, at_least: usize) -> Vec<SimRun> {
    let start = Instant::now();
    let mut runs = Vec::new();
    while runs.len() < at_least || start.elapsed().as_secs_f64() < seconds {
        let kind = if runs.len() % 2 == 0 { Kind::Static } else { Kind::Fluctuating };
        let t = Instant::now();
        let result = sim.run(kind);
        runs.push(SimRun {
            kind,
            seconds: t.elapsed().as_secs_f64(),
            fingerprint: sim::fingerprint(&result),
            consultations: result.consultations as u64,
        });
    }
    runs
}

fn sim10(args: &RunArgs) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let golden: Golden = serde_json::from_str(GOLDEN).map_err(|e| format!("golden.json: {e}"))?;

    // Set-up: generate the traces, build both simulators, and run the
    // reduced Figure 6 configuration of the tier-1 tests as the warm-up.
    let mut setups = Vec::new();
    let mut kept = None;
    let rounds = if args.trace { 1 } else { SETUPS };
    for round in 0..rounds {
        let started = if round == 0 { args.started } else { Instant::now() };
        let sim = Sim10::set_up(args.seed, &Telemetry::disabled());
        let reduced = sim::reduced_fig06_fingerprint();
        setups.push(started.elapsed().as_secs_f64());
        if round == 0 {
            o.check(reduced == sim::REDUCED_FIG06_GOLDEN, || {
                format!(
                    "reduced fig06 gives {}, tier-1 pins {}",
                    hex(reduced),
                    hex(sim::REDUCED_FIG06_GOLDEN)
                )
            });
        }
        kept = Some(sim);
    }
    let sim = kept.expect("at least one set-up");
    let per_run = sim.requests_per_run();

    // Untraced: static, fluctuating, static again — the third run is
    // what run-to-run bit-identity is checked on. A traced run has time
    // for one untraced pair before its traced static run.
    let (window_s, at_least) = if args.trace { (0.0, 2) } else { (args.seconds, 3) };
    let cpu0 = host::cpu_seconds();
    let t0 = Instant::now();
    let runs = sim_runs(&sim, window_s, at_least);
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = host::cpu_seconds() - cpu0;
    let seen = std::mem::take(&mut *sim.seen.lock().expect("single-threaded simulator"));

    // Every run of a kind must reproduce the first bit-for-bit; at the
    // default seed both must equal the fingerprints taken on the commit
    // that defined the benchmark.
    for kind in [Kind::Static, Kind::Fluctuating] {
        let mut of_kind = runs.iter().filter(|r| r.kind == kind);
        let first = of_kind.next().expect("at least one pair of runs");
        for r in of_kind {
            o.check(r.fingerprint == first.fingerprint, || {
                format!("{kind:?} run is not bit-identical to the first: {}", hex(r.fingerprint))
            });
        }
        if args.seed == golden.seed {
            let pinned = match kind {
                Kind::Static => &golden.static_fnv,
                Kind::Fluctuating => &golden.fluctuating_fnv,
            };
            o.check(&hex(first.fingerprint) == pinned, || {
                format!("{kind:?} fingerprint {} != golden {pinned}", hex(first.fingerprint))
            });
        }
    }
    let consultations: u64 = runs.iter().map(|r| r.consultations).sum();
    o.check(consultations == seen.latency_ms.len() as u64, || {
        "the timed policy missed consultations".into()
    });
    let requests = per_run * runs.len() as u64;
    o.attempted += requests;

    if !args.trace {
        let mut decision_ms = seen.latency_ms;
        push_end_to_end(
            &mut o,
            EndToEnd {
                setups: &setups,
                decision_ms: &mut decision_ms,
                wall_s,
                cpu_s,
                // Every simulated request is scheduled — served at home,
                // queued or redirected — so requests are the decisions
                // counted; consultations are the ones timed.
                decisions: requests,
                ops: requests,
                grants: seen.placed,
                first_issue: consultations,
            },
        );
        return Ok(o);
    }

    // The static run again, with a recorder on simulator and policy.
    let (telemetry, rec) = recorder();
    let traced_sim = Sim10::set_up(args.seed, &telemetry);
    let traced = &sim_runs(&traced_sim, 0.0, 1)[0];
    o.check(traced.fingerprint == runs[0].fingerprint, || {
        "the static run changes under telemetry".into()
    });
    let snap = rec.snapshot();
    let traced_consultations = traced.consultations;
    let (solve_s, solves) = hist_mean(&snap, HistKind::LpSolveSeconds);
    o.push("lp.solve_us", solve_s * 1e6, solves);
    o.push("lp.solves_per_decision", ratio(solves, traced_consultations), traced_consultations);
    o.check(snap.counter("proxysim.consultations") == traced_consultations, || {
        "proxysim.consultations counter != the simulator's own count".into()
    });

    let seconds_of = |kind: Kind| -> Vec<f64> {
        runs.iter().filter(|r| r.kind == kind).map(|r| r.seconds).collect()
    };
    let (statics, fluct) = (seconds_of(Kind::Static), seconds_of(Kind::Fluctuating));
    o.push("proxysim.consultations_per_request", ratio(consultations, requests), requests);
    o.push("proxysim.static_day_s", median(&statics), statics.len() as u64);
    o.push("proxysim.fluct_day_s", median(&fluct), fluct.len() as u64);
    o.push("sim_requests_per_s", requests as f64 / wall_s, requests);
    o.push("telemetry.overhead_frac", 1.0 - runs[0].seconds / traced.seconds, 1);
    o.push("trace.generate_ms", sim.generate_ms, 1);

    // `flow`: the closure the simulator computes at construction, and
    // Figure 12's renegotiations through the incremental maintainer.
    let agreements = agreements_experiments::complete_10pct();
    let level = agreements_experiments::N_PROXIES - 1;
    let t = Instant::now();
    std::hint::black_box(TransitiveFlow::compute(&agreements, level));
    o.push("flow.compute_ms", ms_since(t), 1);
    let mut inc = IncrementalFlow::new(agreements, level);
    let schedule = sim::renegotiation_schedule();
    let t = Instant::now();
    for e in &schedule {
        inc.set(e.from, e.to, e.share).map_err(|e| format!("schedule: {e}"))?;
    }
    let sets = schedule.len() as u64;
    o.push("flow.set_us", ms_since(t) * 1e3 / sets as f64, sets);
    o.push("flow.rows_per_set", ratio(inc.rows_recomputed() as u64, sets), sets);

    let mut latency = seen.latency_ms;
    sort(&mut latency);
    o.push("decision_p99_ms", quantile(&latency, 0.99), latency.len() as u64);
    o.push("decision_p999_ms", quantile(&latency, 0.999), latency.len() as u64);
    o.push("peak_rss_mb", host::peak_rss_mb(), 1);
    Ok(o)
}

/// Seed at which `sim10` is the experiments' own Figure 6 / Figure 12
/// input and `golden.json` applies.
pub const DEFAULT_SEED: u64 = agreements_experiments::SEED;

/// The golden fingerprints at `DEFAULT_SEED`, as `golden.json` holds
/// them; printed by `bench golden`.
pub fn golden_json() -> String {
    let sim = Sim10::set_up(DEFAULT_SEED, &Telemetry::disabled());
    format!(
        "{{\n  \"seed\": {DEFAULT_SEED},\n  \"static_fnv\": \"{}\",\n  \"fluctuating_fnv\": \"{}\"\n}}\n",
        hex(sim::fingerprint(&sim.run(Kind::Static))),
        hex(sim::fingerprint(&sim.run(Kind::Fluctuating)))
    )
}
