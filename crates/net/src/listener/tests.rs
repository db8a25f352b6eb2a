//! In-crate tests of the listener's internals: the fail-stop journal
//! (which needs the `#[cfg(test)]` hook that breaks the segment handle
//! under a live listener), connection reaping and corrupt or
//! undecodable frames.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use agreements_flow::AgreementMatrix;
use agreements_grm::{GrmClient, RequestId};
use agreements_telemetry::Telemetry;

use super::*;
use crate::NetGrmClient;

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
    listen_with(policy, tag, ListenerConfig::default())
}

fn listen_with(policy: FsyncPolicy, tag: &str, config: ListenerConfig) -> (PathBuf, GrmListener) {
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
    let listener =
        GrmListener::bind_uds(&dir.join("grm.sock"), server, journal, state, config).unwrap();
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
    let acknowledged = listener.mirror_snapshot();

    // The disk goes read-only under the running listener.
    listener.shared.log.lock().journal.break_writes();
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
    let before = listener.stats().requests;
    let late = client.request_acked_async(0, 1.0, RequestId { client: 7, seq: 5000 }).unwrap().0;
    assert_eq!(late.recv().unwrap(), Err(JOURNAL_DOWN));
    assert_eq!(listener.stats().requests, before);
    // … while reads still answer.
    assert_eq!(client.availability().unwrap().len(), 3);
    drop(client);
    listener.shutdown();

    // Reopening recovers exactly the acknowledged prefix.
    let (_, recovered) = DurableJournal::open(&journal_dir, policy, Telemetry::disabled()).unwrap();
    assert_eq!(recovered.records, 1 + 24);
    assert_eq!(recovered.truncated_bytes, 0);
    assert_eq!(recovered.availability, acknowledged.availability);
    assert_eq!(recovered.snapshot().dedup, acknowledged.dedup);
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
    let appended = || listener.shared.log.lock().journal.appended_lsn();
    let records = appended();

    // One write: a grant request with one payload byte flipped, a frame
    // whose CRC holds but whose payload is no request, then a valid read
    // on the same connection.
    let grant = WireRequest::Request { lrm: 0, amount: 1.0, req_id: None };
    let mut bytes = Vec::new();
    encode_frame(&RequestFrame { corr: 41, replay_seq: None, req: grant }.encode(), &mut bytes)
        .unwrap();
    bytes[8] ^= 0x01;
    // The damaged frame's bytes hold no magic candidate, so the decoder
    // resyncs straight to the next frame: one corrupt frame, one error.
    assert!(!bytes[1..].contains(&crate::frame::MAGIC[0]));
    encode_frame(b"\xff not a request", &mut bytes).unwrap();
    let probe = RequestFrame { corr: 42, replay_seq: None, req: WireRequest::Availability };
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
    assert_eq!(listener.corrupt_frames(), 1);
    assert_eq!(listener.undecodable_frames(), 1);
    assert_eq!(appended(), records, "nothing journaled for any frame");
    drop(stream);
    listener.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_compaction_snapshot_carries_the_replay_cursor_past_its_run() {
    // Every sequenced report crosses the compaction threshold, so each
    // snapshot is taken by the run whose record it must already count.
    let config = ListenerConfig { sequenced: true, compact_every: 2, ..ListenerConfig::default() };
    let (dir, listener) = listen_with(FsyncPolicy::EveryOp, "seqcompact", config);
    let client = NetGrmClient::uds(&dir.join("grm.sock"));
    for seq in 0..6 {
        client.report_seq(seq, (seq % 3) as usize, 50.0 + seq as f64).unwrap();
    }
    drop(client);
    listener.shutdown();
    let (journal, recovered) =
        DurableJournal::open(&dir.join("journal"), FsyncPolicy::EveryOp, Telemetry::disabled())
            .unwrap();
    assert!(journal.segment_index() >= 2, "the journal compacted");
    assert_eq!(recovered.next_seq, 6, "a retry of event 5 must be stale after a restart");
    assert_eq!(recovered.availability, vec![53.0, 54.0, 55.0]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_compaction_writes_the_owned_snapshots_bytes() {
    // Every journaled run compacts, so the newest segment holds the
    // snapshot the last run encoded from the core's borrows: it must be
    // the frame of the owned snapshot of the state that run left.
    let config = ListenerConfig { sequenced: true, compact_every: 2, ..ListenerConfig::default() };
    let (dir, listener) = listen_with(FsyncPolicy::EveryOp, "snapbytes", config);
    let client = NetGrmClient::uds(&dir.join("grm.sock"));
    let id = |seq| RequestId { client: 9, seq };
    client.report_seq(0, 0, 80.0).unwrap();
    let alloc = client.issue_request(0, 5.0, Some(id(0))).unwrap().recv().unwrap().unwrap();
    let denied = client.issue_request(1, 1e6, Some(id(1))).unwrap().recv().unwrap();
    assert!(denied.is_err(), "more than the economy holds is refused");
    client.issue_release(alloc, Some(id(2))).unwrap().recv().unwrap().unwrap();
    client.issue_replay(id(3), 2, 1.0).unwrap().recv().unwrap().unwrap();
    // The last run bumps the replay cursor it snapshots.
    client.report_seq(1, 1, 70.0).unwrap();
    let mirror = listener.mirror_snapshot();
    drop(client);
    listener.shutdown();

    assert_eq!(mirror.next_seq, 2);
    assert_eq!(mirror.dedup.len(), 4, "grant, denial, release and replay");
    let journal = dir.join("journal");
    let newest = std::fs::read_dir(&journal).unwrap().map(|e| e.unwrap().path()).max().unwrap();
    let mut want = Vec::new();
    crate::frame::encode_frame_limited(
        &JournalRecord::Snapshot(mirror).encode(),
        &mut want,
        crate::journal::MAX_JOURNAL_FRAME_LEN,
    )
    .unwrap();
    assert!(std::fs::read(newest).unwrap() == want, "the compaction snapshot's bytes differ");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_batched_listener_shuts_down_without_waiting_out_its_poll() {
    // The syncer parks on its condvar for up to `POLL` between groups; a
    // shutdown that only sets the flag waits that out on every stop.
    let mut fastest = Duration::MAX;
    for round in 0..3 {
        let (dir, listener) =
            listen(FsyncPolicy::Batched { max_pending: 8 }, &format!("stop-{round}"));
        let client = NetGrmClient::uds(&dir.join("grm.sock"));
        let id = RequestId { client: 9, seq: round };
        let decided = client.request_acked_async(0, 1.0, id).unwrap().0.recv().unwrap();
        decided.expect("a decision");
        client.disconnect();
        let stopping = Instant::now();
        listener.shutdown();
        fastest = fastest.min(stopping.elapsed());
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert!(fastest < POLL / 2, "fastest of three shutdowns took {fastest:?}");
}
