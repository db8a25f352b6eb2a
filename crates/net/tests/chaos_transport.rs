//! The hostile-transport battery: RPC deadlines against a stalled-open
//! peer, a full in-flight window whose replies all vanish, and a TCP
//! daemon restart behind the address-file-resolving fault proxy.
//!
//! These are the client-side halves of the chaos story: the federation
//! harness proves end-to-end settlement under a hostile link, and these
//! tests pin the primitives it leans on — a pending RPC must *fail
//! retryably* (deadline sweep or connection teardown), never block
//! forever, and a proxy fronting a respawned TCP daemon must re-resolve
//! its published address instead of dialing a dead port.

use std::fs;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use agreements_faults::FaultMix;
use agreements_flow::AgreementMatrix;
use agreements_grm::{GrmClient, GrmError, RequestId, ResilientGrmClient, RetryPolicy};
use agreements_net::journal::{DurableJournal, FsyncPolicy, Snapshot};
use agreements_net::listener::{GrmListener, ListenerConfig};
use agreements_net::{FaultProxy, NetGrmClient, ProxyUpstream};
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

fn spawn_uds_daemon(dir: &Path, sock: &Path, n: usize, pool: f64) -> GrmListener {
    let (journal, state) = DurableJournal::open_or_create(
        &dir.join("journal"),
        move || fresh_snapshot(n, pool),
        FsyncPolicy::EveryOp,
        Telemetry::disabled(),
    )
    .unwrap();
    let server = state.respawn().unwrap();
    GrmListener::bind_uds(sock, server, journal, state, ListenerConfig::default()).unwrap()
}

/// Bind a TCP daemon on an ephemeral port and publish the address the
/// way the federation harness does: tmp + rename, so the proxy's
/// per-connection re-read never sees a half-written file.
fn spawn_tcp_daemon(dir: &Path, n: usize, pool: f64) -> GrmListener {
    let (journal, state) = DurableJournal::open_or_create(
        &dir.join("journal"),
        move || fresh_snapshot(n, pool),
        FsyncPolicy::EveryOp,
        Telemetry::disabled(),
    )
    .unwrap();
    let server = state.respawn().unwrap();
    let l = GrmListener::bind_tcp("127.0.0.1:0", server, journal, state, ListenerConfig::default())
        .unwrap();
    let addr = l.tcp_addr().unwrap();
    let tmp = dir.join("daemon.addr.tmp");
    fs::write(&tmp, addr.to_string()).unwrap();
    fs::rename(&tmp, dir.join("daemon.addr")).unwrap();
    l
}

/// Regression for the stalled-open-peer hang: a peer that accepts the
/// connection and reads requests but never replies used to park the
/// RPC forever (no socket timeouts, no pending deadline). Now the
/// client's sweeper must fail the call with a retryable
/// `DeadlineExceeded` shortly after the configured deadline.
#[test]
fn stalling_peer_hits_the_rpc_deadline_instead_of_hanging() {
    let dir = scratch("stall");
    let sock = dir.join("stall.sock");
    let listener = std::os::unix::net::UnixListener::bind(&sock).unwrap();
    let stall = std::thread::spawn(move || {
        if let Ok((mut conn, _)) = listener.accept() {
            conn.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
            let mut buf = [0u8; 4096];
            let deadline = Instant::now() + Duration::from_secs(10);
            while Instant::now() < deadline {
                match conn.read(&mut buf) {
                    Ok(0) => break, // client hung up: done stalling
                    Ok(_) => {}     // swallow the request, never reply
                    Err(_) => {}    // poll timeout: keep the line open
                }
            }
        }
    });

    let client = NetGrmClient::uds(&sock).with_rpc_deadline(Duration::from_millis(200));
    let start = Instant::now();
    let err = client.availability().expect_err("a stalled peer must not produce a decision");
    let elapsed = start.elapsed();
    assert!(
        matches!(err, GrmError::DeadlineExceeded { .. }),
        "expected DeadlineExceeded from the sweeper, got {err:?}"
    );
    assert!(err.is_retryable(), "a deadline is a transport failure, not a settlement");
    assert!(
        elapsed < Duration::from_secs(5),
        "deadline fired far too late ({elapsed:?}) — the sweeper is not running"
    );
    client.disconnect();
    stall.join().unwrap();
}

/// A full window of pending async replies, every reply eaten by the
/// proxy: each pending must resolve retryably via the deadline sweep
/// (not block), a pending issued just before a generation bump must die
/// with the connection, and after the link heals the same `RequestId`s
/// must settle exactly once via dedup replay.
#[test]
fn full_window_of_pending_replies_errors_out_under_reply_loss() {
    let n = 2;
    let dir = scratch("reply-loss");
    let sock = dir.join("grm.sock");
    let daemon = spawn_uds_daemon(&dir, &sock, n, 100.0);
    let proxy_sock = dir.join("proxy.sock");
    // Forward direction clean — the daemon executes everything — but
    // every reply frame vanishes.
    let reply_black_hole = FaultMix { drop: 1.0, ..FaultMix::none() };
    let proxy = FaultProxy::spawn_uds_bidir(
        &proxy_sock,
        &sock,
        42,
        "storm",
        FaultMix::none(),
        reply_black_hole,
    )
    .unwrap();

    let client = NetGrmClient::uds(&proxy_sock).with_rpc_deadline(Duration::from_millis(150));
    let window = 8u64;
    let rxs: Vec<_> = (0..window)
        .map(|k| client.issue_request(0, 0.5, Some(RequestId { client: 9, seq: k })).unwrap())
        .collect();
    let start = Instant::now();
    for (k, rx) in rxs.iter().enumerate() {
        let r = rx
            .recv_timeout(Duration::from_secs(5))
            .unwrap_or_else(|_| panic!("pending {k} blocked past its deadline"));
        let e = r.expect_err("the reply was dropped; the pending must fail, not settle");
        assert!(e.is_retryable(), "pending {k} failed non-retryably: {e}");
    }
    assert!(
        start.elapsed() < Duration::from_secs(4),
        "the sweep took {:?} for a {window}-deep window of 150ms deadlines",
        start.elapsed()
    );

    // Generation bump mid-window: a freshly issued pending must error
    // out with the torn-down connection, well before its deadline.
    let rx = client.issue_request(0, 0.5, Some(RequestId { client: 9, seq: 99 })).unwrap();
    client.disconnect();
    let e = rx
        .recv_timeout(Duration::from_secs(1))
        .expect("teardown must fail the pending, not strand it")
        .expect_err("the connection died; the pending cannot have settled");
    assert!(e.is_retryable(), "teardown error must be retryable: {e}");

    // The link heals; the same ids retry and settle exactly once each.
    proxy.heal();
    for k in 0..window {
        let rx = client.issue_request(0, 0.5, Some(RequestId { client: 9, seq: k })).unwrap();
        rx.recv().unwrap().unwrap_or_else(|e| panic!("healed retry {k} failed: {e}"));
    }
    let rx = client.issue_request(0, 0.5, Some(RequestId { client: 9, seq: 99 })).unwrap();
    rx.recv().unwrap().unwrap();

    let direct = NetGrmClient::uds(&sock);
    let stats = direct.stats().unwrap();
    let avail = direct.availability().unwrap();
    assert_eq!(stats.granted, 9, "nine distinct ids, each granted exactly once");
    assert!(
        stats.duplicate_requests >= window,
        "the healed retries must replay from the dedup window, got {}",
        stats.duplicate_requests
    );
    assert!(
        (avail.iter().sum::<f64>() - (2.0 * 100.0 - stats.granted_units)).abs() < 1e-6,
        "pool conservation under reply loss: avail={avail:?} granted={}",
        stats.granted_units
    );
    proxy.shutdown();
    daemon.shutdown();
}

/// Chaotic TCP end to end, plus the respawn story: the daemon restarts
/// on a *different* ephemeral port, republished via the address file,
/// and the proxy's per-connection re-resolution carries the same client
/// across the restart with at-most-once settlement intact.
#[test]
fn tcp_chaos_survives_a_daemon_restart_behind_the_address_file() {
    let n = 2;
    let dir = scratch("tcp-chaos");
    let daemon = spawn_tcp_daemon(&dir, n, 100.0);
    let first_addr = daemon.tcp_addr().unwrap();
    let fwd = FaultMix { drop: 0.1, dup: 0.1, hold: 0.1, max_hold: 2, ..FaultMix::none() }
        .with_latency(0.3, 300);
    let rep = FaultMix { drop: 0.08, dup: 0.08, hold: 0.08, max_hold: 2, ..FaultMix::none() }
        .with_latency(0.3, 300);
    let proxy = FaultProxy::spawn_tcp(
        "127.0.0.1:0",
        ProxyUpstream::TcpAddrFile(dir.join("daemon.addr")),
        0xFEED,
        "tcp-chaos",
        fwd,
        rep,
    )
    .unwrap();
    let proxy_addr = proxy.local_addr().unwrap().to_string();
    let net = NetGrmClient::tcp(&proxy_addr).with_rpc_deadline(Duration::from_millis(150));
    let resilient = ResilientGrmClient::new(net, 13, RetryPolicy::aggressive());

    let mut client_granted = 0.0f64;
    let mut drive = |calls: usize| {
        for _ in 0..calls {
            match resilient.request(0, 1.0) {
                Ok(a) => client_granted += a.amount,
                Err(GrmError::RetriesExhausted { .. }) => {}
                Err(e) => panic!("unexpected terminal error under TCP chaos: {e}"),
            }
        }
    };
    drive(20);

    // Restart: new port, same journal, address file republished.
    daemon.shutdown();
    let daemon = spawn_tcp_daemon(&dir, n, 0.0);
    assert_ne!(
        daemon.tcp_addr().unwrap(),
        first_addr,
        "the respawn must land on a fresh ephemeral port for re-resolution to be exercised"
    );
    drive(20);

    // Quiesce the chaos, then audit through the daemon's *new* address.
    proxy.heal();
    let direct = NetGrmClient::tcp(&daemon.tcp_addr().unwrap().to_string());
    let avail = direct.availability().unwrap();
    // The client never observed more units than the pools gave up
    // (grants it never saw the reply for are the server's to keep).
    assert!(
        avail.iter().sum::<f64>() <= 2.0 * 100.0 - client_granted + 1e-6,
        "client observed more grants than the pools lost: avail={avail:?} \
         client_granted={client_granted}"
    );
    let live_window = daemon.mirror_snapshot().dedup;
    let pstats = proxy.stats();
    assert!(pstats.delivered > 0, "proxy forwarded nothing — test is vacuous");
    assert!(
        pstats.dropped + pstats.duplicated + pstats.held + pstats.delayed > 0,
        "chaos injected nothing — test is vacuous"
    );
    proxy.shutdown();
    daemon.shutdown();

    // The journal tracked the live state across chaos and the restart:
    // it folds to the live pools and dedup window exactly.
    let (_, recovered) =
        DurableJournal::open(&dir.join("journal"), FsyncPolicy::EveryOp, Telemetry::disabled())
            .unwrap();
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&recovered.availability), bits(&avail), "the journal drifted from live pools");
    assert_eq!(recovered.snapshot().dedup, live_window, "the folded dedup window is the live one");
}
