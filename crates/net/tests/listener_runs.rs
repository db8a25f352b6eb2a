//! The run pipeline's contract (DESIGN.md §17), driven over raw sockets
//! so the test decides how many frames reach the listener per read.
//!
//! - Deep windows and one frame per round trip are the same computation:
//!   bit-identical replies per correlation id, equal recovered state.
//! - Racing connections: the journal's order is the order the GRM
//!   executed, so the reopened journal folds to the live GRM's
//!   availability and dedup window bit for bit, the GRM's counters are
//!   the clients' books, and no `RequestId` settles twice — also with
//!   compactions landing mid-race, after which one segment is left.
//! - Only what the core applied is journaled: a dropped report is not
//!   folded on recovery, and a refused release moves no pool.
//! - The reports a respawn seeds land before the first run.
//! - A pipelined window reaches a hierarchical engine as one run.
//! - A connection that vanishes mid-window does not stall the others.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use agreements_flow::AgreementMatrix;
use agreements_grm::{GrmError, GrmServer, RequestId};
use agreements_net::frame::{crc32, encode_frame, FrameDecoder, FRAME_OVERHEAD, MAGIC};
use agreements_net::journal::{
    DecisionBody, DurableJournal, FsyncPolicy, JournalRecord, RecoveredState, Snapshot,
};
use agreements_net::listener::{GrmListener, ListenerConfig};
use agreements_net::{RequestFrame, ResponseFrame, WireRequest, WireResponse};
use agreements_sched::{Allocation, HierarchicalScheduler, SchedError};
use agreements_telemetry::{HistKind, Telemetry};

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

const N: usize = 4;

fn open_journal(dir: &Path, policy: FsyncPolicy) -> (DurableJournal, RecoveredState) {
    let fresh = || Snapshot {
        matrix: complete(N, 0.5),
        level: 1,
        availability: vec![40.0; N],
        next_seq: 0,
        dedup: Vec::new(),
    };
    DurableJournal::open_or_create(&dir.join("journal"), fresh, policy, Telemetry::disabled())
        .unwrap()
}

fn daemon(dir: &Path, policy: FsyncPolicy) -> GrmListener {
    daemon_with(dir, policy, 0)
}

fn daemon_with(dir: &Path, policy: FsyncPolicy, compact_every: u64) -> GrmListener {
    let (journal, state) = open_journal(dir, policy);
    let server = state.respawn().unwrap();
    let config = ListenerConfig { compact_every, ..ListenerConfig::default() };
    GrmListener::bind_uds(&dir.join("grm.sock"), server, journal, state, config).unwrap()
}

/// A client that writes exactly the frames it is told to, in one write.
struct Raw {
    stream: UnixStream,
    dec: FrameDecoder,
}

impl Raw {
    fn connect(dir: &Path) -> Raw {
        let stream = UnixStream::connect(dir.join("grm.sock")).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
        Raw { stream, dec: FrameDecoder::new() }
    }

    fn send(&mut self, frames: &[RequestFrame]) {
        let mut wire = Vec::new();
        for f in frames {
            encode_frame(&f.encode(), &mut wire).unwrap();
        }
        self.stream.write_all(&wire).unwrap();
    }

    fn recv(&mut self, count: usize) -> Vec<ResponseFrame> {
        let mut out = Vec::with_capacity(count);
        let mut buf = [0u8; 16 * 1024];
        while out.len() < count {
            while let Some(payload) = self.dec.next_frame().unwrap() {
                out.push(ResponseFrame::decode(&payload).unwrap());
            }
            if out.len() < count {
                let n = self.stream.read(&mut buf).unwrap();
                assert!(n > 0, "listener closed the connection");
                self.dec.push(&buf[..n]);
            }
        }
        out
    }
}

/// Tiny LCG, so streams are a pure function of their seed.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self, bound: u64) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (self.0 >> 33) % bound
    }
}

fn request(corr: u64, lrm: u64, amount: f64, id: RequestId) -> RequestFrame {
    RequestFrame {
        corr,
        replay_seq: None,
        req: WireRequest::Request { lrm, amount, req_id: Some(id) },
    }
}

fn report(corr: u64, lrm: u64, available: f64) -> RequestFrame {
    RequestFrame { corr, replay_seq: None, req: WireRequest::Report { lrm, available } }
}

/// The newest segment of a journal: its snapshot, then every record
/// after it, in order (for a never compacted journal, the whole history).
fn newest_segment(dir: &Path) -> (Snapshot, Vec<JournalRecord>) {
    let newest = std::fs::read_dir(dir.join("journal"))
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "log"))
        .max()
        .expect("a segment");
    let bytes = std::fs::read(newest).unwrap();
    let mut out = Vec::new();
    let mut rest = &bytes[..];
    while !rest.is_empty() {
        // magic, length, payload, CRC: the frame layout of `frame`.
        assert_eq!(rest[..2], MAGIC, "a frame starts here");
        let len = u32::from_le_bytes(rest[2..6].try_into().unwrap()) as usize;
        let (frame, tail) = rest.split_at(FRAME_OVERHEAD + len);
        let (payload, crc) = frame[6..].split_at(len);
        assert_eq!(crc32(payload).to_le_bytes(), crc, "an intact frame");
        out.push(JournalRecord::decode(payload).unwrap());
        rest = tail;
    }
    let JournalRecord::Snapshot(snapshot) = out.remove(0) else {
        panic!("a segment opens with a snapshot");
    };
    (snapshot, out)
}

fn assert_states_equal(got: &RecoveredState, want: &RecoveredState) {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&got.availability), bits(&want.availability), "availability");
    assert_eq!(got.next_seq, want.next_seq, "next_seq");
    assert_eq!(got.records, want.records, "record count");
    assert_eq!(got.dedup, want.dedup, "dedup window");
    assert_eq!(got.matrix, want.matrix, "matrix");
}

#[test]
fn deep_windows_and_round_trips_are_the_same_computation() {
    // --- One frame per round trip, recording the stream as it goes ----
    let dir_a = scratch("runs-serial");
    let listener = daemon(&dir_a, FsyncPolicy::EveryOp);
    let mut conn = Raw::connect(&dir_a);
    let mut rng = Lcg(0x5eed_0012);
    let mut frames: Vec<RequestFrame> = Vec::new();
    let mut replies: HashMap<u64, Vec<u8>> = HashMap::new();
    let mut held: Vec<Allocation> = Vec::new();
    let mut requests: Vec<RequestFrame> = Vec::new();
    for corr in 0..480u64 {
        let id = RequestId { client: 9, seq: corr };
        let frame = match rng.next(10) {
            0..=2 => report(corr, rng.next(N as u64), 30.0 + rng.next(16) as f64),
            // A re-issue: an earlier request's id under a new correlation.
            3 if !requests.is_empty() => {
                let earlier = &requests[rng.next(requests.len() as u64) as usize];
                RequestFrame { corr, ..earlier.clone() }
            }
            4 if !held.is_empty() => {
                let alloc = held.swap_remove(rng.next(held.len() as u64) as usize);
                RequestFrame {
                    corr,
                    replay_seq: None,
                    req: WireRequest::Release { alloc, req_id: Some(id) },
                }
            }
            5 => RequestFrame {
                corr,
                replay_seq: None,
                req: WireRequest::ReplayGrant { req_id: id, lrm: rng.next(N as u64), amount: 1.5 },
            },
            _ => request(corr, rng.next(N as u64), 1.0 + rng.next(24) as f64 * 0.5, id),
        };
        conn.send(std::slice::from_ref(&frame));
        let reply = conn.recv(1).pop().unwrap();
        assert_eq!(reply.corr, corr);
        if let (WireRequest::Request { .. }, WireResponse::Grant(Ok(alloc))) =
            (&frame.req, &reply.resp)
        {
            if !requests.iter().any(|r| r.req == frame.req) {
                held.push(alloc.clone());
            }
        }
        if matches!(frame.req, WireRequest::Request { .. }) {
            requests.push(frame.clone());
        }
        replies.insert(corr, reply.encode());
        frames.push(frame);
    }
    drop(conn);
    listener.shutdown();
    let (_, serial) = open_journal(&dir_a, FsyncPolicy::EveryOp);

    // --- The same stream as windows of 64, one write each --------------
    let dir_b = scratch("runs-windowed");
    let listener = daemon(&dir_b, FsyncPolicy::EveryOp);
    let mut conn = Raw::connect(&dir_b);
    for window in frames.chunks(64) {
        conn.send(window);
        for reply in conn.recv(window.len()) {
            assert_eq!(
                reply.encode(),
                replies[&reply.corr],
                "corr {}: a window must decide what a round trip decided",
                reply.corr
            );
        }
    }
    drop(conn);
    listener.shutdown();
    let (_, windowed) = open_journal(&dir_b, FsyncPolicy::EveryOp);
    assert!(serial.records > 300, "the stream journals most of its frames");
    assert_states_equal(&windowed, &serial);
}

/// What one racing connection sent and saw.
#[derive(Default)]
struct Books {
    reports: u64,
    /// Requests under an id not used before, and how many were granted.
    first_issues: u64,
    grants: u64,
    reissues: u64,
}

fn racing_connections(conns: u64, compact_every: u64) {
    let dir = scratch(&format!("runs-race{conns}-{compact_every}"));
    let listener = daemon_with(&dir, FsyncPolicy::Batched { max_pending: 32 }, compact_every);
    let (windows, width) = (6u64, 64u64);
    let drivers: Vec<_> = (0..conns)
        .map(|c| {
            let dir = dir.clone();
            std::thread::spawn(move || {
                let mut conn = Raw::connect(&dir);
                let mut rng = Lcg(0xace0_0000 + c);
                let mut books = Books::default();
                let mut decided: HashMap<RequestId, WireResponse> = HashMap::new();
                let mut previous: Vec<RequestFrame> = Vec::new();
                for w in 0..windows {
                    let mut frames: Vec<RequestFrame> = Vec::new();
                    for k in 0..width {
                        let seq = w * width + k;
                        let id = RequestId { client: c + 1, seq };
                        let reissue = |of: &RequestFrame| RequestFrame { corr: seq, ..of.clone() };
                        frames.push(match k % 8 {
                            0 | 1 => report(seq, rng.next(N as u64), 25.0 + rng.next(20) as f64),
                            // Re-issue the request two frames back: same run
                            // or the run before, either way answered once.
                            5 => reissue(&frames[k as usize - 2]),
                            // Re-issue the previous window's last request: an
                            // earlier run, and under compaction often one
                            // behind a snapshot.
                            6 if k == 6 && w > 0 => reissue(&previous[62]),
                            _ => request(seq, rng.next(N as u64), 0.5 + rng.next(8) as f64, id),
                        });
                    }
                    conn.send(&frames);
                    let replies = conn.recv(frames.len());
                    assert_eq!(replies.len(), frames.len());
                    for (frame, reply) in frames.iter().zip(replies) {
                        assert_eq!(reply.corr, frame.corr);
                        let WireRequest::Request { req_id: Some(id), .. } = frame.req else {
                            books.reports += 1;
                            continue;
                        };
                        match decided.get(&id) {
                            Some(original) => {
                                books.reissues += 1;
                                let bytes = |resp: &WireResponse| {
                                    ResponseFrame { corr: 0, resp: resp.clone() }.encode()
                                };
                                assert_eq!(
                                    bytes(&reply.resp),
                                    bytes(original),
                                    "{id:?} re-decided"
                                );
                            }
                            None => {
                                books.first_issues += 1;
                                books.grants +=
                                    u64::from(matches!(reply.resp, WireResponse::Grant(Ok(_))));
                                decided.insert(id, reply.resp);
                            }
                        }
                    }
                    previous = frames;
                }
                books
            })
        })
        .collect();
    let mut books = Books::default();
    for driver in drivers {
        let b = driver.join().unwrap();
        books.reports += b.reports;
        books.first_issues += b.first_issues;
        books.grants += b.grants;
        books.reissues += b.reissues;
    }
    let journaled = conns * windows * width - books.reissues;

    if compact_every == 0 {
        // Group commit groups. Every connection ends on a request, whose
        // reply waits for its record to be durable, so with every reply
        // in the syncer has retired every journaled record (a re-issue
        // journals nothing) — in fewer fsyncs than records. It publishes
        // its counters just after releasing the replies, hence the
        // bounded wait. (A compaction syncs inline and adds a snapshot
        // record, so only the uncompacted run counts exactly.)
        let deadline = Instant::now() + Duration::from_secs(5);
        let (fsyncs, synced) = loop {
            let stats = listener.group_commit_stats();
            if stats.1 >= journaled || Instant::now() >= deadline {
                break stats;
            }
            std::thread::yield_now();
        };
        assert!(fsyncs >= 1, "no group fsync under FsyncPolicy::Batched");
        assert_eq!(synced, journaled, "group fsyncs cover exactly the journaled records");
        assert!(fsyncs < synced, "{fsyncs} fsyncs for {synced} records: nothing was grouped");
    }

    let live = listener.availability().unwrap();
    let stats = listener.stats();
    let live_window = listener.mirror_snapshot().dedup;
    listener.shutdown();
    // Each roll's retire ran on the reader that rolled, before shutdown
    // joined it: no superseded segment outlives the listener.
    let segments = std::fs::read_dir(dir.join("journal")).unwrap().count();
    assert_eq!(segments, 1, "a superseded segment was never retired");

    // The daemon's counters are the clients' books. `respawn` seeds the
    // pools with one report per principal.
    assert_eq!(stats.reports, books.reports + N as u64);
    assert_eq!(stats.requests, books.first_issues);
    assert_eq!(stats.granted, books.grants);
    assert_eq!(stats.duplicate_requests, books.reissues);

    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let (journal, recovered) = open_journal(&dir, FsyncPolicy::EveryOp);
    assert_eq!(
        bits(&recovered.availability),
        bits(&live),
        "the journal folds to the live pools only if it is in execution order"
    );
    assert_eq!(recovered.snapshot().dedup, live_window, "the folded dedup window is the live one");

    // No id settles twice: not within the live segment, and not in it
    // again after a snapshot already holds it.
    let (snapshot, records) = newest_segment(&dir);
    let (mut reports, mut requests, mut granted, mut units) = (0u64, 0u64, 0u64, 0.0f64);
    let mut settled: HashMap<RequestId, u32> = HashMap::new();
    for (id, _) in &snapshot.dedup {
        settled.insert(*id, 1);
    }
    for rec in records {
        match rec {
            JournalRecord::Report { .. } => reports += 1,
            JournalRecord::Decision { id, body: DecisionBody::Grant(res), .. } => {
                requests += 1;
                *settled.entry(id.expect("every request carries an id")).or_default() += 1;
                if let Ok(alloc) = res {
                    granted += 1;
                    units += alloc.amount;
                }
            }
            _ => {}
        }
    }
    assert!(settled.values().all(|&times| times == 1), "a RequestId settled twice");
    if compact_every == 0 {
        // The whole history is one segment: it adds up to the counters.
        assert_eq!(stats.reports, reports + N as u64);
        assert_eq!(stats.requests, requests);
        assert_eq!(stats.granted, granted);
        assert!((stats.granted_units - units).abs() <= 1e-9 * units.max(1.0));
        assert_eq!(requests + books.reissues + reports, conns * windows * width);
    } else {
        let compactions = journal.segment_index();
        assert!(compactions >= 4, "only {compactions} compactions: the race never straddled one");
    }
}

#[test]
fn two_racing_connections_journal_in_execution_order() {
    racing_connections(2, 0);
}

#[test]
fn four_racing_connections_journal_in_execution_order() {
    racing_connections(4, 0);
}

#[test]
fn racing_connections_compact_mid_race_without_losing_the_fold() {
    racing_connections(2, 100);
}

/// Reports the core drops are acknowledged but neither journaled nor
/// folded: the reopened journal holds what the live pools hold.
#[test]
fn dropped_reports_are_neither_journaled_nor_folded() {
    let dir = scratch("runs-dropped");
    let listener = daemon(&dir, FsyncPolicy::EveryOp);
    let mut conn = Raw::connect(&dir);
    let frames = [
        report(0, 0, f64::NAN),
        report(1, 1, -3.0),
        report(2, 2, f64::INFINITY),
        report(3, N as u64 + 5, 5.0),
        request(4, 3, 1.0, RequestId { client: 1, seq: 1 }),
    ];
    conn.send(&frames);
    let replies = conn.recv(frames.len());
    for reply in &replies[..4] {
        assert_eq!(reply.resp, WireResponse::Unit(Ok(())), "a report is acknowledged");
    }
    assert!(matches!(replies[4].resp, WireResponse::Grant(Ok(_))), "{:?}", replies[4]);
    let live = listener.availability().unwrap();
    assert_eq!(live, vec![40.0, 40.0, 40.0, 39.0]);
    drop(conn);
    listener.shutdown();

    let (_, recovered) = open_journal(&dir, FsyncPolicy::EveryOp);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&recovered.availability), bits(&live), "{:?}", recovered.availability);
    assert_eq!(recovered.records, 2, "the snapshot and the grant");
}

/// A release whose draws are not all finite and non-negative is refused
/// and moves no pool, with or without an id: the reopened journal folds to
/// the live pools bit for bit.
#[test]
fn a_release_of_non_finite_or_negative_draws_moves_no_pool() {
    let dir = scratch("runs-poisoned-release");
    let listener = daemon(&dir, FsyncPolicy::EveryOp);
    let mut conn = Raw::connect(&dir);
    let draws = vec![f64::NAN, -3.0, f64::INFINITY, 0.0];
    let alloc = Allocation { requester: 0, amount: 3.0, draws, theta: 0.0 };
    let release = |corr, req_id| RequestFrame {
        corr,
        replay_seq: None,
        req: WireRequest::Release { alloc: alloc.clone(), req_id },
    };
    let frames = [release(0, Some(RequestId { client: 1, seq: 1 })), release(1, None)];
    conn.send(&frames);
    for reply in conn.recv(frames.len()) {
        let refused =
            WireResponse::Unit(Err(GrmError::Sched(SchedError::InvalidRequest { amount: 3.0 })));
        assert_eq!(reply.resp, refused, "corr {}", reply.corr);
    }
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let live = listener.availability().unwrap();
    assert_eq!(bits(&live), bits(&[40.0; N]), "no pool moved");
    drop(conn);
    listener.shutdown();

    let (_, recovered) = open_journal(&dir, FsyncPolicy::EveryOp);
    assert_eq!(bits(&recovered.availability), bits(&live), "{:?}", recovered.availability);
}

/// `respawn` seeds the pools as reports on the core. The first run the
/// listener executes on the core must not be overwritten by one of them
/// landing later.
#[test]
fn seeding_reports_land_before_the_first_run() {
    let dir = scratch("runs-seed");
    let listener = daemon(&dir, FsyncPolicy::EveryOp);
    let mut conn = Raw::connect(&dir);
    conn.send(&[report(0, 0, 7.0), request(1, 0, 1.0, RequestId { client: 1, seq: 1 })]);
    let replies = conn.recv(2);
    let WireResponse::Grant(Ok(alloc)) = &replies[1].resp else {
        panic!("{:?}", replies[1]);
    };
    let live = listener.availability().unwrap();
    let expected: Vec<f64> =
        [7.0, 40.0, 40.0, 40.0].iter().zip(&alloc.draws).map(|(v, d)| (v - d).max(0.0)).collect();
    assert_eq!(live, expected, "the reported pool survives the seeding");
    drop(conn);
    listener.shutdown();
}

/// Each window is two reports per LRM, then requests. Reports coalesce
/// only inside one run on the core, so superseded reports show the
/// listener executing a window as a run; the requests in it are decided
/// one by one, one latency span each.
#[test]
fn a_pipelined_window_reaches_a_hierarchical_engine_as_one_run() {
    let dir = scratch("runs-hier");
    let (journal, state) = open_journal(&dir, FsyncPolicy::Batched { max_pending: 32 });
    let mut inter = AgreementMatrix::zeros(2);
    inter.set(0, 1, 0.5).unwrap();
    inter.set(1, 0, 0.5).unwrap();
    let sched = HierarchicalScheduler::new(vec![vec![0, 1], vec![2, 3]], &inter, 1).unwrap();
    let (telemetry, recorder) = Telemetry::recorder(0);
    let server =
        state.respawn_with(GrmServer::spawn_hierarchical_with_telemetry(sched, telemetry)).unwrap();
    let listener = GrmListener::bind_uds(
        &dir.join("grm.sock"),
        server,
        journal,
        state,
        ListenerConfig::default(),
    )
    .unwrap();
    let mut conn = Raw::connect(&dir);
    // A reader may wake on a window's first frame and execute it alone,
    // so one window proves little; eight cannot all fall apart into runs
    // of one.
    let (windows, width) = (8u64, 8u64);
    let reports = 2 * N as u64;
    for w in 0..windows {
        let base = w * (reports + width);
        let mut frames: Vec<_> =
            (0..reports).map(|k| report(base + k, k % N as u64, 40.0)).collect();
        frames.extend((0..width).map(|k| {
            let seq = w * width + k;
            request(base + reports + k, k % N as u64, 0.25, RequestId { client: 1, seq })
        }));
        conn.send(&frames);
        for reply in conn.recv(frames.len()) {
            assert!(!matches!(reply.resp, WireResponse::Grant(Err(_))), "{reply:?}");
        }
    }
    let stats = listener.stats();
    assert_eq!((stats.requests, stats.granted), (windows * width, windows * width));
    assert!(
        stats.coalesced_reports > 0,
        "no report was superseded within a run: the wire path never formed a run"
    );
    let snap = recorder.snapshot();
    let latency = snap.histogram(HistKind::RequestLatencySeconds).expect("latency histogram");
    assert_eq!(latency.count, windows * width, "one latency span per decision");
    listener.shutdown();
}

#[test]
fn a_connection_dropped_mid_window_does_not_stall_the_others() {
    let dir = scratch("runs-drop");
    let listener = daemon(&dir, FsyncPolicy::Batched { max_pending: 32 });
    let mut survivor = Raw::connect(&dir);
    for round in 0..20u64 {
        // Submit a window and vanish without reading a single reply.
        let mut quitter = Raw::connect(&dir);
        let frames: Vec<_> = (0..64u64)
            .map(|k| request(k, k % N as u64, 0.125, RequestId { client: 100 + round, seq: k }))
            .collect();
        quitter.send(&frames);
        drop(quitter);
        // The other connection's decisions keep flowing (the read
        // timeout fails the test if a turn is never passed on).
        let id = RequestId { client: 1, seq: round };
        survivor.send(&[request(round, round % N as u64, 0.125, id)]);
        assert_eq!(survivor.recv(1)[0].corr, round);
    }
    listener.shutdown();
    // Whatever the quitters' windows got to decide is in the journal once.
    let mut seen = std::collections::HashSet::new();
    for rec in newest_segment(&dir).1 {
        if let JournalRecord::Decision { id: Some(id), .. } = rec {
            assert!(seen.insert(id), "{id:?} journaled twice");
        }
    }
    assert!(seen.len() >= 20);
}
