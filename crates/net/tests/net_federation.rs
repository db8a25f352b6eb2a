//! End-to-end socket federation: a real `GrmListener` daemon on a
//! Unix-domain socket, driven by `NetGrmClient` — directly, through
//! `ResilientGrmClient`'s retry machinery, and through the seeded
//! chaos proxy — plus the restart-with-duplicate-RPC regression the
//! durable dedup window exists for.

use std::path::{Path, PathBuf};

use agreements_faults::FaultMix;
use agreements_flow::AgreementMatrix;
use agreements_grm::{GrmClient, GrmError, GrmServer, RequestId, ResilientGrmClient, RetryPolicy};
use agreements_net::journal::{DurableJournal, FsyncPolicy, Snapshot};
use agreements_net::listener::{GrmListener, ListenerConfig};
use agreements_net::proxy::FaultProxy;
use agreements_net::NetGrmClient;
use agreements_sched::Allocation;
use agreements_telemetry::Telemetry;

fn complete(n: usize, share: f64) -> AgreementMatrix {
    let mut m = AgreementMatrix::zeros(n);
    for i in 0..n {
        for j in 0..n {
            if i != j {
                m.set(i, j, share).unwrap();
            }
        }
    }
    m
}

/// Scratch space under target/ — keeps sockets and journals inside the
/// repo tree (and UDS paths short).
fn scratch(tag: &str) -> PathBuf {
    let d =
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn fresh_snapshot(n: usize, pool: f64) -> Snapshot {
    Snapshot {
        matrix: complete(n, 0.5),
        level: 1,
        availability: vec![pool; n],
        next_seq: 0,
        dedup: Vec::new(),
    }
}

fn spawn_daemon(dir: &Path, sock: &Path, n: usize, pool: f64, sequenced: bool) -> GrmListener {
    let (journal, state) = DurableJournal::open_or_create(
        &dir.join("journal"),
        || fresh_snapshot(n, pool),
        FsyncPolicy::EveryOp,
        Telemetry::disabled(),
    )
    .unwrap();
    let server = state.respawn().unwrap();
    GrmListener::bind_uds(
        sock,
        server,
        journal,
        state,
        ListenerConfig { sequenced, compact_every: 0, ..ListenerConfig::default() },
    )
    .unwrap()
}

/// A deterministic interleaving of reports and requests: the same event
/// stream is driven through the in-process handle and through the
/// socket, and every decision must match bit-for-bit.
#[derive(Debug, Clone, PartialEq)]
enum Outcome {
    Granted { amount_bits: u64, draw_bits: Vec<u64> },
    Denied(String),
}

fn workload(n: usize, events: usize) -> Vec<(usize, f64, bool)> {
    // (lrm, value, is_request); a small LCG keeps it dependency-free
    // and identical across both runs.
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut out = Vec::with_capacity(events);
    for k in 0..events {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let lrm = (x >> 33) as usize % n;
        let is_request = k % 3 != 0;
        let value = if is_request {
            1.0 + ((x >> 17) & 0x7) as f64 * 0.5
        } else {
            20.0 + ((x >> 21) & 0xF) as f64
        };
        out.push((lrm, value, is_request));
    }
    out
}

#[test]
fn socket_replay_matches_in_process_decisions() {
    let n = 4;
    let events = workload(n, 48);

    // --- In-process reference run ------------------------------------
    let reference = {
        let server = GrmServer::spawn(complete(n, 0.5), 1);
        let h = server.handle();
        for i in 0..n {
            h.report(i, 30.0).unwrap();
        }
        let mut outcomes = Vec::new();
        for (k, (lrm, value, is_request)) in events.iter().enumerate() {
            if *is_request {
                let id = RequestId { client: 1, seq: k as u64 };
                match h.request_idempotent(*lrm, *value, id) {
                    Ok(a) => outcomes.push(Outcome::Granted {
                        amount_bits: a.amount.to_bits(),
                        draw_bits: a.draws.iter().map(|d| d.to_bits()).collect(),
                    }),
                    Err(e) => outcomes.push(Outcome::Denied(e.to_string())),
                }
            } else {
                h.report(*lrm, *value).unwrap();
            }
        }
        let avail = h.availability().unwrap();
        server.shutdown();
        (outcomes, avail)
    };

    // --- Socket run, sequenced ---------------------------------------
    let dir = scratch("parity");
    let sock = dir.join("grm.sock");
    let daemon = spawn_daemon(&dir, &sock, n, 0.0, true);
    let client = NetGrmClient::uds(&sock);
    let mut seq = 0u64;
    for i in 0..n {
        client.report_seq(seq, i, 30.0).unwrap();
        seq += 1;
    }
    let mut outcomes = Vec::new();
    for (k, (lrm, value, is_request)) in events.iter().enumerate() {
        if *is_request {
            let id = RequestId { client: 1, seq: k as u64 };
            match client.request_seq(seq, *lrm, *value, id) {
                Ok(a) => outcomes.push(Outcome::Granted {
                    amount_bits: a.amount.to_bits(),
                    draw_bits: a.draws.iter().map(|d| d.to_bits()).collect(),
                }),
                Err(e) => outcomes.push(Outcome::Denied(e.to_string())),
            }
        } else {
            client.report_seq(seq, *lrm, *value).unwrap();
        }
        seq += 1;
    }
    let avail = client.availability().unwrap();
    daemon.shutdown();

    assert_eq!(outcomes, reference.0, "admit/deny + draws must match the in-process run");
    assert_eq!(
        avail.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        reference.1.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "final availability must match bit-for-bit"
    );
}

#[test]
fn chaos_proxy_retries_never_double_grant() {
    let n = 2;
    let dir = scratch("chaos");
    let sock = dir.join("grm.sock");
    let daemon = spawn_daemon(&dir, &sock, n, 100.0, false);

    let proxy_sock = dir.join("proxy.sock");
    let proxy =
        FaultProxy::spawn_uds(&proxy_sock, &sock, 0xC4A05, "lrm0->grm", FaultMix::mixed()).unwrap();

    let net = NetGrmClient::uds(&proxy_sock);
    let resilient = ResilientGrmClient::new(net, 9, RetryPolicy::aggressive());

    let mut granted_units = 0.0f64;
    let mut granted_calls = 0u64;
    for _ in 0..40 {
        match resilient.request(0, 1.0) {
            Ok(a) => {
                granted_units += a.amount;
                granted_calls += 1;
            }
            Err(GrmError::RetriesExhausted { .. }) => {}
            Err(e) => panic!("unexpected terminal error under chaos: {e}"),
        }
    }
    // Quiesce: a blocking call on a direct connection drains everything
    // the proxy already let through.
    let direct = NetGrmClient::uds(&sock);
    let stats = direct.stats().unwrap();
    let avail = direct.availability().unwrap();

    // At-most-once: every unit the server handed out is accounted for by
    // pool conservation, regardless of drops, duplicates, or reorders.
    assert!(
        (avail.iter().sum::<f64>() - (2.0 * 100.0 - stats.granted_units)).abs() < 1e-6,
        "pool conservation under chaos: avail={avail:?} granted={}",
        stats.granted_units
    );
    // The client never observed more units than the server granted.
    assert!(granted_units <= stats.granted_units + 1e-9);
    assert!(granted_calls <= stats.granted, "more client grants than server executions");
    let live_window = daemon.mirror_snapshot().dedup;
    let pstats = proxy.stats();
    assert!(pstats.delivered > 0, "proxy forwarded nothing — test is vacuous");
    proxy.shutdown();
    daemon.shutdown();

    // The journal tracked the live state through drops, duplicates and
    // reorders: it folds to the live pools and dedup window exactly.
    let (_, recovered) =
        DurableJournal::open(&dir.join("journal"), FsyncPolicy::EveryOp, Telemetry::disabled())
            .unwrap();
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&recovered.availability), bits(&avail), "the journal drifted from live pools");
    assert_eq!(recovered.snapshot().dedup, live_window, "the folded dedup window is the live one");
}

#[test]
fn duplicate_rpc_straddling_restart_replays_original_decision() {
    let n = 2;
    let dir = scratch("restart");
    let sock = dir.join("grm.sock");

    // --- First daemon lifetime: one grant, then a shutdown -----------
    let daemon = spawn_daemon(&dir, &sock, n, 50.0, false);
    let client = NetGrmClient::uds(&sock);
    let id = RequestId { client: 3, seq: 1 };
    let rx =
        client.issue_request(0, 4.0, Some(id)).map_err(|e| panic!("issue failed: {e}")).unwrap();
    let original: Allocation = rx.recv().unwrap().unwrap();
    let avail_before = client.availability().unwrap();
    daemon.shutdown();

    // --- Second daemon lifetime: same journal dir, same socket -------
    let daemon = spawn_daemon(&dir, &sock, n, 0.0, false);
    // The old connection died with the old daemon; the client
    // reconnects on demand. Resend the *same* RPC — a retry that
    // straddled the restart.
    client.disconnect();
    let rx = client.issue_request(0, 4.0, Some(id)).unwrap();
    let replayed = rx.recv().unwrap().unwrap();

    assert_eq!(replayed.amount.to_bits(), original.amount.to_bits());
    assert_eq!(
        replayed.draws.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
        original.draws.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
        "replayed decision must be bit-identical to the original"
    );
    let stats = daemon.handle().stats().unwrap();
    assert_eq!(stats.duplicate_requests, 1, "the retry must hit the recovered dedup window");
    assert_eq!(stats.granted, 0, "the retry must not execute a second grant");
    let avail_after = client.availability().unwrap();
    assert_eq!(
        avail_after.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        avail_before.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "pools must carry across the restart untouched by the replay"
    );
    daemon.shutdown();
}

#[test]
fn connection_errors_map_to_the_retry_taxonomy() {
    let dir = scratch("refused");
    let sock = dir.join("grm.sock");

    // No daemon: connect must refuse, retryably, until attempts run out.
    let net = NetGrmClient::uds(&sock);
    let resilient = ResilientGrmClient::new(net, 5, RetryPolicy::aggressive());
    match resilient.request(0, 1.0) {
        Err(GrmError::RetriesExhausted { attempts }) => {
            assert_eq!(attempts, RetryPolicy::aggressive().max_attempts);
        }
        other => panic!("expected RetriesExhausted against a dead daemon, got {other:?}"),
    }

    // Daemon comes up: the same client recovers with no rebind (connect
    // on demand), exactly like a channel client after a respawn.
    let daemon = spawn_daemon(&dir, &sock, 2, 10.0, false);
    let alloc = resilient.request(0, 1.0).unwrap();
    assert!(alloc.amount > 0.0);
    daemon.shutdown();
}

#[test]
fn partitioned_proxy_stalls_then_heals() {
    let n = 2;
    let dir = scratch("partition");
    let sock = dir.join("grm.sock");
    let daemon = spawn_daemon(&dir, &sock, n, 30.0, false);
    let proxy_sock = dir.join("proxy.sock");
    let proxy =
        FaultProxy::spawn_uds(&proxy_sock, &sock, 1, "lrm0->grm", FaultMix::none()).unwrap();
    let net = NetGrmClient::uds(&proxy_sock);
    let resilient = ResilientGrmClient::new(net, 2, RetryPolicy::aggressive());

    // Clean link: a request goes through.
    resilient.request(0, 1.0).unwrap();

    // Partitioned: every attempt times out; the call exhausts.
    proxy.partition();
    match resilient.request(0, 1.0) {
        Err(GrmError::RetriesExhausted { .. }) => {}
        other => panic!("expected exhaustion across a partition, got {other:?}"),
    }

    // Healed: traffic resumes on the same connection.
    proxy.heal_partition();
    resilient.request(0, 1.0).unwrap();
    assert!(proxy.stats().partitioned > 0, "partition swallowed nothing — test is vacuous");
    proxy.shutdown();
    daemon.shutdown();
}

/// A multi-resource daemon: a lane-per-resource snapshot with no
/// single-lane availability (multi pools are soft state the listener
/// never journals), respawned onto a `spawn_multi` engine.
fn spawn_multi_daemon(dir: &Path, sock: &Path) -> GrmListener {
    let snapshot = || Snapshot {
        matrix: complete(2, 0.5),
        level: 1,
        availability: Vec::new(),
        next_seq: 0,
        dedup: Vec::new(),
    };
    let (journal, state) = DurableJournal::open_or_create(
        &dir.join("journal"),
        snapshot,
        FsyncPolicy::EveryOp,
        Telemetry::disabled(),
    )
    .unwrap();
    let server = state
        .respawn_with(GrmServer::spawn_multi(
            vec!["cpu", "bandwidth"],
            state.matrix.clone(),
            state.level,
        ))
        .unwrap();
    GrmListener::bind_uds(
        sock,
        server,
        journal,
        state,
        ListenerConfig { sequenced: false, compact_every: 0, ..ListenerConfig::default() },
    )
    .unwrap()
}

/// End-to-end multi-resource enforcement over a real socket: grants
/// commit every lane, a bandwidth-bound rejection names bandwidth on
/// the client side of the wire, single-resource calls are refused, and
/// a retry straddling a daemon restart replays the journaled decision
/// bit-for-bit instead of double-granting.
#[test]
fn multi_resource_rpcs_over_the_socket_and_across_a_restart() {
    use agreements_sched::SchedError;

    let dir = scratch("multi");
    let sock = dir.join("grm.sock");
    let daemon = spawn_multi_daemon(&dir, &sock);
    let net = NetGrmClient::uds(&sock);

    net.report_multi(0, vec![10.0, 3.0]).unwrap();
    net.report_multi(1, vec![10.0, 3.0]).unwrap();
    let id = RequestId { client: 42, seq: 0 };
    let granted = net.request_multi_idempotent(0, &[2.0, 1.0], id).unwrap();
    assert_eq!(granted.lanes.len(), 2);
    assert!((granted.total() - 3.0).abs() < 1e-9);
    let lanes = net.availability_multi().unwrap();
    assert!((lanes[0].iter().sum::<f64>() - 18.0).abs() < 1e-9, "cpu pool down by 2");
    assert!((lanes[1].iter().sum::<f64>() - 5.0).abs() < 1e-9, "bandwidth pool down by 1");

    // The binding resource survives the wire round-trip by name.
    match net.request_multi(0, &[1.0, 50.0]) {
        Err(GrmError::Sched(SchedError::InsufficientCapacity { resource: Some(name), .. })) => {
            assert_eq!(name, "bandwidth")
        }
        other => panic!("expected a bandwidth-bound rejection, got {other:?}"),
    }
    // Cross-engine guard holds across the socket too.
    match net.issue_request(0, 1.0, None).unwrap().recv().unwrap() {
        Err(GrmError::Unsupported(_)) => {}
        other => panic!("expected Unsupported for a single-resource call, got {other:?}"),
    }
    // Two lanes have no single pool: its read is refused, not answered
    // with a view indistinguishable from a federation with no capacity.
    match net.availability() {
        Err(GrmError::Unsupported(_)) => {}
        other => panic!("expected Unsupported for the single-pool view, got {other:?}"),
    }

    daemon.shutdown();

    // Restart from the journal: the grant decision was journaled
    // write-ahead, so the recovered dedup window replays it for the
    // retry even though the fresh engine's pools are empty (multi
    // reports are soft state and deliberately not journaled).
    let daemon = spawn_multi_daemon(&dir, &sock);
    net.disconnect();
    let replayed = net.request_multi_idempotent(0, &[2.0, 1.0], id).unwrap();
    for (a, b) in replayed.lanes.iter().zip(&granted.lanes) {
        assert_eq!(a.amount.to_bits(), b.amount.to_bits(), "replay must be bit-identical");
        for (x, y) in a.draws.iter().zip(&b.draws) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
    let lanes = net.availability_multi().unwrap();
    assert!(
        lanes.iter().all(|lane| lane.iter().all(|&v| v == 0.0)),
        "the replayed grant must not touch the fresh pools: {lanes:?}"
    );
    daemon.shutdown();
}
