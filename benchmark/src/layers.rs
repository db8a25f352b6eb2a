//! Layer probes: the messages captured in the traced run, replayed
//! through each layer's public functions in isolation and timed. Layers
//! are the repository's modules; nothing here reaches past a `pub` item.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use agreements_flow::TransitiveFlow;
use agreements_grm::{GrmServer, RequestId};
use agreements_net::frame::{encode_frame, FrameDecoder};
use agreements_net::{
    DecisionBody, DurableJournal, FsyncPolicy, JournalRecord, RecoveredState, RequestFrame,
    ResponseFrame, Snapshot, WireRequest, WireResponse,
};
use agreements_sched::{AdmissionRequest, AllocationSolver, BatchedAdmission, SystemState};
use agreements_telemetry::Telemetry;

use crate::daemon::hierarchical;
use crate::stats::median;
use crate::stream::{DaemonSpec, Engine};

/// Each timed loop repeats whole passes over its inputs for this long.
const PROBE_BUDGET: Duration = Duration::from_millis(40);

/// In-flight requests of the windowed in-process probe and run length of
/// the batched-admission probe: the daemon workloads' window.
const WINDOW: usize = 64;

pub type Captured = [(WireRequest, WireResponse)];

/// Mean ns per item of `f` over `items`, passes repeated for
/// `PROBE_BUDGET`.
fn ns_per_item<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let start = Instant::now();
    let mut passes = 0u32;
    while passes == 0 || start.elapsed() < PROBE_BUDGET {
        for item in items {
            f(item);
        }
        passes += 1;
    }
    start.elapsed().as_nanos() as f64 / (f64::from(passes) * items.len() as f64)
}

fn framed(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_frame(payload, &mut out).expect("captured payloads fit a frame");
    out
}

/// The journal record the listener writes for a captured decision.
fn record_of(req: &WireRequest, resp: &WireResponse) -> Option<JournalRecord> {
    match (req, resp) {
        (WireRequest::Request { req_id, .. }, WireResponse::Grant(result)) => {
            Some(JournalRecord::Decision {
                seq: None,
                id: *req_id,
                body: DecisionBody::Grant(result.clone()),
            })
        }
        _ => None,
    }
}

/// Per-decision cost of the `net.wire`, `net.frame` and journal-record
/// codecs.
pub struct Codec {
    pub request_encode_ns: f64,
    pub request_decode_ns: f64,
    pub response_encode_ns: f64,
    pub response_decode_ns: f64,
    /// Request frame plus response frame.
    pub frame_encode_ns: f64,
    pub frame_decode_ns: f64,
    pub frame_bytes_per_op: f64,
    pub record_encode_ns: f64,
    pub record_bytes: f64,
}

impl Codec {
    /// Everything a decision spends in codecs on its way through client
    /// and daemon, in µs: the `codec` line of the stage ledger.
    pub fn total_us(&self) -> f64 {
        (self.request_encode_ns
            + self.request_decode_ns
            + self.response_encode_ns
            + self.response_decode_ns
            + self.frame_encode_ns
            + self.frame_decode_ns
            + self.record_encode_ns)
            / 1e3
    }
}

pub fn codec(captured: &Captured) -> Codec {
    let requests: Vec<RequestFrame> = captured
        .iter()
        .enumerate()
        .map(|(i, (req, _))| RequestFrame {
            corr: i as u64 + 1,
            replay_seq: None,
            req: req.clone(),
        })
        .collect();
    let responses: Vec<ResponseFrame> = captured
        .iter()
        .enumerate()
        .map(|(i, (_, resp))| ResponseFrame { corr: i as u64 + 1, resp: resp.clone() })
        .collect();
    let records: Vec<JournalRecord> =
        captured.iter().filter_map(|(req, resp)| record_of(req, resp)).collect();
    let request_bytes: Vec<Vec<u8>> = requests.iter().map(RequestFrame::encode).collect();
    let response_bytes: Vec<Vec<u8>> = responses.iter().map(ResponseFrame::encode).collect();
    // One (request, response) payload pair per op, so frame costs come
    // out per op.
    let payloads: Vec<(&Vec<u8>, &Vec<u8>)> = request_bytes.iter().zip(&response_bytes).collect();
    let frames: Vec<(Vec<u8>, Vec<u8>)> =
        payloads.iter().map(|(q, r)| (framed(q), framed(r))).collect();
    let ops = captured.len().max(1) as f64;
    let mut scratch = Vec::new();
    let mut decoder = FrameDecoder::new();
    Codec {
        request_encode_ns: ns_per_item(&requests, |f| {
            black_box(f.encode());
        }),
        request_decode_ns: ns_per_item(&request_bytes, |b| {
            black_box(RequestFrame::decode(b).expect("round trip"));
        }),
        response_encode_ns: ns_per_item(&responses, |f| {
            black_box(f.encode());
        }),
        response_decode_ns: ns_per_item(&response_bytes, |b| {
            black_box(ResponseFrame::decode(b).expect("round trip"));
        }),
        frame_encode_ns: ns_per_item(&payloads, |(q, r)| {
            for payload in [q, r] {
                scratch.clear();
                encode_frame(payload, &mut scratch).expect("fits");
                black_box(&scratch);
            }
        }),
        frame_decode_ns: ns_per_item(&frames, |(q, r)| {
            for frame in [q, r] {
                decoder.push(frame);
                black_box(decoder.next_frame().expect("clean frame"));
            }
        }),
        frame_bytes_per_op: frames.iter().map(|(q, r)| q.len() + r.len()).sum::<usize>() as f64
            / ops,
        record_encode_ns: ns_per_item(&records, |r| {
            black_box(r.encode());
        }),
        record_bytes: records.iter().map(|r| framed_len(r.encode().len())).sum::<usize>() as f64
            / records.len().max(1) as f64,
    }
}

fn framed_len(payload: usize) -> usize {
    payload + agreements_net::frame::FRAME_OVERHEAD
}

/// Cost of the journal's own operations on a scratch journal seeded with
/// the traced daemon's live snapshot.
pub struct Journal {
    pub append_us: f64,
    pub mirror_apply_us: f64,
    pub sync_us: f64,
    pub compact_ms: f64,
    pub snapshot_bytes: f64,
}

pub fn journal(captured: &Captured, snapshot: &Snapshot, dir: &Path) -> std::io::Result<Journal> {
    // Fresh ids: to the mirror a captured id is a duplicate, and a
    // duplicate skips the pool fold the live path pays.
    let records: Vec<JournalRecord> = captured
        .iter()
        .filter_map(|(req, resp)| record_of(req, resp))
        .map(|rec| match rec {
            JournalRecord::Decision { seq, id: Some(id), body } => JournalRecord::Decision {
                seq,
                id: Some(RequestId { client: id.client + (1 << 32), seq: id.seq }),
                body,
            },
            other => other,
        })
        .collect();
    let never = FsyncPolicy::Batched { max_pending: usize::MAX };
    let mut scratch = DurableJournal::create(dir, snapshot, never, Telemetry::disabled())?;

    let start = Instant::now();
    for rec in &records {
        black_box(scratch.append_wal(rec)?);
    }
    let append_us = start.elapsed().as_secs_f64() * 1e6 / records.len().max(1) as f64;

    let mut mirror = RecoveredState::from_snapshot(snapshot);
    let start = Instant::now();
    for rec in &records {
        mirror.apply(rec);
    }
    let mirror_apply_us = start.elapsed().as_secs_f64() * 1e6 / records.len().max(1) as f64;
    black_box(&mirror);

    let mut syncs = Vec::new();
    for rec in records.iter().cycle().take(64) {
        scratch.append_wal(rec)?;
        let start = Instant::now();
        scratch.sync()?;
        syncs.push(start.elapsed().as_secs_f64() * 1e6);
    }

    let mut compactions = Vec::new();
    for _ in 0..3 {
        let start = Instant::now();
        scratch.compact(snapshot)?;
        compactions.push(start.elapsed().as_secs_f64() * 1e3);
    }
    Ok(Journal {
        append_us,
        mirror_apply_us,
        sync_us: median(&syncs),
        compact_ms: median(&compactions),
        snapshot_bytes: JournalRecord::Snapshot(snapshot.clone()).encode().len() as f64,
    })
}

/// The decision engine alone, in-process: no socket, no journal.
pub struct EngineProbe {
    /// `GrmHandle::request_idempotent`, one at a time.
    pub inproc_blocking_us: f64,
    /// `GrmHandle::request_async` with `WINDOW` in flight: the headroom
    /// batching at the wire would buy.
    pub inproc_windowed_us: f64,
    /// One admission through the scheduler, no mailbox.
    pub admit_one_us: f64,
    /// Per request of a `WINDOW`-long batched run; 0 on the flat engine,
    /// which has no batched front door.
    pub admit_batch_us: f64,
    pub flow_compute_ms: f64,
}

fn demands(captured: &Captured) -> Vec<(usize, f64)> {
    captured
        .iter()
        .filter_map(|(req, _)| match req {
            WireRequest::Request { lrm, amount, .. } => Some((*lrm as usize, *amount)),
            _ => None,
        })
        .collect()
}

pub fn engine(spec: &DaemonSpec, captured: &Captured, pool: &[f64]) -> EngineProbe {
    let matrix = spec.matrix();
    let demands = demands(captured);
    let count = demands.len().max(1) as f64;

    let start = Instant::now();
    let flow = Arc::new(TransitiveFlow::compute(&matrix, spec.level));
    let flow_compute_ms = start.elapsed().as_secs_f64() * 1e3;

    let scheduler =
        || hierarchical(&matrix, spec.level).expect("the workload's own economy partitions");
    let spawn = || match spec.engine {
        Engine::Flat => GrmServer::spawn(matrix.clone(), spec.level),
        Engine::Hierarchical => GrmServer::spawn_hierarchical(scheduler()),
    };
    // Pools are re-reported before every run of `WINDOW` requests so
    // both probes decide against the same, never-drained state.
    let refill = |h: &agreements_grm::GrmHandle| {
        for (lrm, &v) in pool.iter().enumerate() {
            h.report(lrm, v).expect("engine alive");
        }
    };

    let server = spawn();
    let h = server.handle();
    let mut busy = Duration::ZERO;
    for (run, chunk) in demands.chunks(WINDOW).enumerate() {
        refill(&h);
        let start = Instant::now();
        for (k, &(lrm, amount)) in chunk.iter().enumerate() {
            let id = RequestId { client: 1, seq: (run * WINDOW + k) as u64 + 1 };
            black_box(h.request_idempotent(lrm, amount, id)).ok();
        }
        busy += start.elapsed();
    }
    let inproc_blocking_us = busy.as_secs_f64() * 1e6 / count;
    server.shutdown();

    let server = spawn();
    let h = server.handle();
    let mut busy = Duration::ZERO;
    for chunk in demands.chunks(WINDOW) {
        refill(&h);
        let start = Instant::now();
        let replies: Vec<_> = chunk
            .iter()
            .map(|&(lrm, amount)| h.request_async(lrm, amount).expect("engine alive"))
            .collect();
        for rx in replies {
            black_box(rx.recv()).ok();
        }
        busy += start.elapsed();
    }
    let inproc_windowed_us = busy.as_secs_f64() * 1e6 / count;
    server.shutdown();

    let (admit_one_us, admit_batch_us) = match spec.engine {
        Engine::Flat => {
            let mut solver = AllocationSolver::reduced();
            let mut busy = Duration::ZERO;
            for chunk in demands.chunks(WINDOW) {
                let mut state = SystemState::new(Arc::clone(&flow), None, pool.to_vec())
                    .expect("pools are finite");
                let start = Instant::now();
                for &(lrm, amount) in chunk {
                    if let Ok(alloc) = solver.allocate(&state, lrm, amount) {
                        state.apply(&alloc).ok();
                    }
                }
                busy += start.elapsed();
            }
            (busy.as_secs_f64() * 1e6 / count, 0.0)
        }
        Engine::Hierarchical => {
            let front = BatchedAdmission::new(scheduler());
            let (mut one, mut batch) = (Duration::ZERO, Duration::ZERO);
            for chunk in demands.chunks(WINDOW) {
                let mut avail = pool.to_vec();
                let start = Instant::now();
                for &(lrm, amount) in chunk {
                    black_box(front.admit_one(&mut avail, lrm, amount)).ok();
                }
                one += start.elapsed();
                let reqs: Vec<AdmissionRequest> = chunk
                    .iter()
                    .map(|&(requester, amount)| AdmissionRequest { requester, amount })
                    .collect();
                let mut avail = pool.to_vec();
                let start = Instant::now();
                black_box(front.admit_batch(&mut avail, &reqs));
                batch += start.elapsed();
            }
            (one.as_secs_f64() * 1e6 / count, batch.as_secs_f64() * 1e6 / count)
        }
    };
    EngineProbe {
        inproc_blocking_us,
        inproc_windowed_us,
        admit_one_us,
        admit_batch_us,
        flow_compute_ms,
    }
}
