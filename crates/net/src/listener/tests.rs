//! In-crate tests of the listener's internals: the commit-turn guard,
//! and the fail-stop journal (which needs the `#[cfg(test)]` hook that
//! breaks the segment handle under a live listener).

use std::path::PathBuf;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use agreements_flow::AgreementMatrix;
use agreements_grm::RequestId;
use agreements_telemetry::Telemetry;

use super::*;
use crate::NetGrmClient;

fn take(turns: &Turns) -> Turn<'_> {
    let mut next = turns.submit.lock();
    *next += 1;
    Turn { turns, ticket: *next - 1 }
}

#[test]
fn an_abandoned_turn_passes_on_in_order() {
    let turns = Turns::default();
    let (first, second, third) = (take(&turns), take(&turns), take(&turns));
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|s| {
        // The third run is ready to commit; the second's connection dies
        // (its guard drops) while the first has not committed yet.
        let waiter = tx.clone();
        s.spawn(move || {
            drop(third.wait());
            waiter.send("third").unwrap();
        });
        s.spawn(move || {
            drop(second);
            tx.send("second").unwrap();
        });
        // Neither can get past the first turn, abandoned or not …
        assert!(rx.recv_timeout(Duration::from_millis(100)).is_err());
        // … and once it passes, the dead run's turn passes with it.
        drop(first);
        let mut order = [rx.recv().unwrap(), rx.recv().unwrap()];
        order.sort_unstable();
        assert_eq!(order, ["second", "third"]);
    });
    assert_eq!(*turns.serving.lock().unwrap(), 3);
}

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

/// A listener on `<dir>/grm.sock` over a fresh three-principal journal in
/// `<dir>/journal`, under a scratch directory of this process.
fn listen(policy: FsyncPolicy, tag: &str) -> (PathBuf, GrmListener) {
    let dir = std::env::temp_dir().join(format!("agreements-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let fresh = || Snapshot {
        matrix: complete(3, 0.5),
        level: 1,
        availability: vec![100.0; 3],
        next_seq: 0,
        dedup: Vec::new(),
    };
    let (journal, state) =
        DurableJournal::open_or_create(&dir.join("journal"), fresh, policy, Telemetry::disabled())
            .unwrap();
    let server = state.respawn().unwrap();
    let listener = GrmListener::bind_uds(
        &dir.join("grm.sock"),
        server,
        journal,
        state,
        ListenerConfig::default(),
    )
    .unwrap();
    (dir, listener)
}

fn fail_stop(policy: FsyncPolicy, tag: &str) {
    let (dir, listener) = listen(policy, &format!("failstop-{tag}"));
    let (journal_dir, sock) = (dir.join("journal"), dir.join("grm.sock"));
    let client = NetGrmClient::uds(&sock).with_rpc_deadline(Duration::from_secs(5));

    // A window of acknowledged decisions: the prefix recovery must keep.
    let window = |base: u64| -> Vec<_> {
        (0..24)
            .map(|k| {
                let id = RequestId { client: 7, seq: base + k };
                client.request_acked_async((k % 3) as usize, 1.0, id).unwrap().0
            })
            .collect()
    };
    for rx in window(0) {
        rx.recv().unwrap().expect("acknowledged grant");
    }
    let acknowledged = listener.mirror();
    assert_eq!(acknowledged.records, 1 + 24);

    // The disk goes read-only under the running listener.
    listener.shared.journal.lock().0.break_writes();
    let mut refused = 0;
    for rx in window(1000) {
        // Every reply at or after the failure is an error — JOURNAL_DOWN,
        // or a connection torn down with the reply still gated — never a
        // decision.
        match rx.recv() {
            Ok(Ok(alloc)) => panic!("undurable decision released: {alloc:?}"),
            Ok(Err(e)) => refused += u64::from(e == JOURNAL_DOWN),
            Err(_) => {}
        }
    }
    assert!(refused > 0, "the failing run is answered JOURNAL_DOWN");
    // Later journaled ops are refused before they reach the GRM …
    let before = listener.handle().stats().unwrap().requests;
    let late = client.request_acked_async(0, 1.0, RequestId { client: 7, seq: 5000 }).unwrap().0;
    assert_eq!(late.recv().unwrap(), Err(JOURNAL_DOWN));
    assert_eq!(listener.handle().stats().unwrap().requests, before);
    // … while reads still answer.
    assert_eq!(client.availability().unwrap().len(), 3);
    drop(client);
    listener.shutdown();

    // Reopening recovers exactly the acknowledged prefix.
    let (_, recovered) = DurableJournal::open(&journal_dir, policy, Telemetry::disabled()).unwrap();
    assert_eq!(recovered.records, acknowledged.records);
    assert_eq!(recovered.truncated_bytes, 0);
    assert_eq!(recovered.availability, acknowledged.availability);
    assert_eq!(recovered.dedup, acknowledged.dedup);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_failed_append_poisons_the_listener_every_op() {
    fail_stop(FsyncPolicy::EveryOp, "everyop");
}

#[test]
fn a_failed_append_poisons_the_listener_group_commit() {
    fail_stop(FsyncPolicy::Batched { max_pending: 8 }, "batched");
}

#[test]
fn ended_connections_are_reaped_as_new_ones_arrive() {
    let (dir, listener) = listen(FsyncPolicy::EveryOp, "reap");
    let sock = dir.join("grm.sock");
    // A reply proves the connection was accepted and its handle stored;
    // dropping the client then ends the connection's threads.
    let connect_and_drop = || assert_eq!(NetGrmClient::uds(&sock).availability().unwrap().len(), 3);
    let live = NetGrmClient::uds(&sock);
    live.availability().unwrap();
    for _ in 0..32 {
        connect_and_drop();
    }
    // Handles are reaped when the next connection is accepted, and a
    // dropped connection's threads take a moment to notice: probe until
    // only the live connection and the newest probe are held.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        connect_and_drop();
        let held = listener.conns.lock().len();
        if held <= 2 {
            break;
        }
        assert!(Instant::now() < deadline, "{held} handles held for one live connection");
        std::thread::yield_now();
    }
    assert_eq!(live.availability().unwrap().len(), 3, "the live connection survives reaping");
    drop(live);
    listener.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_undecodable_frame_is_counted_and_skipped() {
    use crate::frame::encode_frame;
    use std::io::{Read, Write};
    let (dir, listener) = listen(FsyncPolicy::EveryOp, "undecodable");
    let records = listener.mirror().records;

    // One write: a frame whose CRC holds but whose payload is no request,
    // then a valid read on the same connection.
    let probe = RequestFrame { corr: 42, replay_seq: None, req: WireRequest::Availability };
    let mut bytes = Vec::new();
    encode_frame(b"\xff not a request", &mut bytes).unwrap();
    encode_frame(&probe.encode(), &mut bytes).unwrap();
    let mut stream = std::os::unix::net::UnixStream::connect(dir.join("grm.sock")).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    stream.write_all(&bytes).unwrap();

    let mut dec = FrameDecoder::new();
    let mut buf = [0u8; 4096];
    let reply = loop {
        if let Some(payload) = dec.next_frame().unwrap() {
            break ResponseFrame::decode(&payload).unwrap();
        }
        let n = stream.read(&mut buf).expect("the valid frame is answered");
        assert!(n > 0, "connection closed on the undecodable frame");
        dec.push(&buf[..n]);
    };
    assert_eq!(reply, ResponseFrame { corr: 42, resp: WireResponse::Availability(vec![100.0; 3]) });
    assert_eq!(listener.undecodable_frames(), 1);
    assert_eq!(listener.mirror().records, records, "nothing journaled for either frame");
    drop(stream);
    listener.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
