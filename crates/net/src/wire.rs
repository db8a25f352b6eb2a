//! Binary encoding of the GRM protocol messages.
//!
//! Everything the channel transport moved as Rust values — requests,
//! decisions, the full error taxonomy — is given a fixed, versionless
//! little-endian byte layout here, hand-rolled so the wire needs no
//! serialization dependency. `f64`s travel as their IEEE-754 bit
//! patterns (`to_bits`/`from_bits`), so a decoded decision is
//! *bit-identical* to the encoded one — the property the federation's
//! decision-sequence comparison and the journal's recovery both rest on.
//!
//! Layout conventions: enums are a `u8` tag followed by that variant's
//! fields; integers are fixed-width LE (`usize` travels as `u64`);
//! strings and vectors are a `u32` count followed by their elements;
//! `Option<T>` is a presence byte then `T`; `Result<T, E>` is `0` + `T`
//! or `1` + `E`.
//!
//! A decode failure yields [`GrmError::FrameDecode`] — deterministic,
//! and therefore never retryable (see `GrmError::is_retryable`).

use agreements_flow::FlowError;
use agreements_grm::{GrmError, GrmStats, RecordedDecision, RequestId};
use agreements_lp::LpError;
use agreements_sched::{Allocation, MultiAllocation, SchedError};

use crate::frame::{encode_frame_with, FrameError};
use std::collections::BTreeSet;
use std::sync::{Mutex, PoisonError};

/// One client→server message.
#[derive(Debug, Clone, PartialEq)]
pub enum WireRequest {
    /// Fire-and-forget availability report.
    Report {
        /// Reporting LRM index.
        lrm: u64,
        /// Its current pool.
        available: f64,
    },
    /// Lease-clock tick.
    Tick {
        /// Logical now.
        now: u64,
        /// Lease length in ticks.
        lease: u64,
    },
    /// Allocation request.
    Request {
        /// Requesting LRM.
        lrm: u64,
        /// Requested units.
        amount: f64,
        /// Idempotency id, if the call may be retried.
        req_id: Option<RequestId>,
    },
    /// Return of a previous allocation's draws.
    Release {
        /// The allocation being returned.
        alloc: Allocation,
        /// Idempotency id.
        req_id: Option<RequestId>,
    },
    /// Degraded-mode grant settlement (see `Lrm::reconcile`).
    ReplayGrant {
        /// The id the degraded grant was journaled under.
        req_id: RequestId,
        /// Granting LRM.
        lrm: u64,
        /// Settled units.
        amount: f64,
    },
    /// Snapshot of the availability view.
    Availability,
    /// Operational counters.
    Stats,
    /// Multi-resource allocation request: one amount per lane, admitted
    /// lane-conjunctively by a multi-engine server.
    RequestMulti {
        /// Requesting LRM.
        lrm: u64,
        /// Requested units, one per resource lane.
        amounts: Vec<f64>,
        /// Idempotency id, if the call may be retried.
        req_id: Option<RequestId>,
    },
    /// Fire-and-forget multi-resource availability report (all lanes of
    /// one LRM move atomically).
    ReportMulti {
        /// Reporting LRM index.
        lrm: u64,
        /// Its current pool, one entry per resource lane.
        available: Vec<f64>,
    },
    /// Snapshot of the per-lane availability view.
    AvailabilityMulti,
}

impl WireRequest {
    /// The idempotency id this request carries, if any.
    pub(crate) fn req_id(&self) -> Option<RequestId> {
        match self {
            WireRequest::Request { req_id, .. }
            | WireRequest::Release { req_id, .. }
            | WireRequest::RequestMulti { req_id, .. } => *req_id,
            WireRequest::ReplayGrant { req_id, .. } => Some(*req_id),
            _ => None,
        }
    }
}

/// One server→client message.
#[derive(Debug, Clone, PartialEq)]
pub enum WireResponse {
    /// Decision for a `Request`.
    Grant(Result<Allocation, GrmError>),
    /// Ack for `Release`/`ReplayGrant`, and for `Report`/`Tick` (the
    /// channel transport fire-and-forgets those; the socket transport
    /// acks everything so a sequenced replay can wait for application).
    Unit(Result<(), GrmError>),
    /// Reply to `Availability`.
    Availability(Vec<f64>),
    /// Reply to `Stats`.
    Stats(Box<GrmStats>),
    /// Decision for a `RequestMulti`.
    GrantMulti(Result<MultiAllocation, GrmError>),
    /// Reply to `AvailabilityMulti`: `[lane][principal]` pools.
    AvailabilityMulti(Vec<Vec<f64>>),
}

/// A framed request: correlation id for the client's demux, an optional
/// global replay sequence number (sequenced-federation mode; see
/// `listener`), and the request body.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestFrame {
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub corr: u64,
    /// Global event sequence for deterministic federation replay;
    /// `None` outside sequenced mode.
    pub replay_seq: Option<u64>,
    /// The request body.
    pub req: WireRequest,
}

/// A framed response.
#[derive(Debug, Clone, PartialEq)]
pub struct ResponseFrame {
    /// Echo of the request's correlation id.
    pub corr: u64,
    /// The response body.
    pub resp: WireResponse,
}

// ---------------------------------------------------------------------
// Byte writer / reader
// ---------------------------------------------------------------------

/// Append-only byte writer (thin Vec wrapper; named methods keep the
/// codec bodies readable).
#[derive(Default)]
pub(crate) struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub(crate) fn new() -> Self {
        Writer::default()
    }

    /// A writer appending to `buf` (hand it back with `into_bytes`):
    /// lets a codec body encode straight into a frame or run buffer.
    pub(crate) fn onto(buf: Vec<u8>) -> Self {
        Writer { buf }
    }

    pub(crate) fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Write a `u32` length prefix, then `body`, then patch the prefix
    /// with the byte count `body` wrote — a nested blob without a
    /// temporary buffer.
    pub(crate) fn len_prefixed(&mut self, body: impl FnOnce(&mut Writer)) {
        let at = self.buf.len();
        self.u32(0);
        body(self);
        let len = (self.buf.len() - at - 4) as u32;
        self.buf[at..at + 4].copy_from_slice(&len.to_le_bytes());
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub(crate) fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// A `u32` count, then the vector's bit patterns, reserved as one
    /// block.
    pub(crate) fn f64s(&mut self, vs: &[f64]) {
        self.u32(vs.len() as u32);
        self.buf.reserve(vs.len() * 8);
        self.f64_block(vs);
    }

    /// The values' bit patterns back to back, with no count.
    pub(crate) fn f64_block(&mut self, vs: &[f64]) {
        for v in vs {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }
}

/// Append one frame to `out` whose payload `body` encodes in place: no
/// payload `Vec` built first and copied into the frame second.
pub(crate) fn frame_with(
    out: &mut Vec<u8>,
    max_len: usize,
    body: impl FnOnce(&mut Writer),
) -> Result<(), FrameError> {
    encode_frame_with(out, max_len, |out| {
        let mut w = Writer::onto(std::mem::take(out));
        body(&mut w);
        *out = w.into_bytes();
    })
}

/// Cursor-based reader; every accessor bounds-checks and reports a
/// human-readable detail string on failure.
pub(crate) struct Reader<'a> {
    b: &'a [u8],
    pos: usize,
}

type WireResult<T> = Result<T, String>;

impl<'a> Reader<'a> {
    pub(crate) fn new(b: &'a [u8]) -> Self {
        Reader { b, pos: 0 }
    }

    /// All bytes consumed? Trailing garbage means a codec mismatch.
    pub(crate) fn finish(self) -> WireResult<()> {
        if self.pos == self.b.len() {
            Ok(())
        } else {
            Err(format!("{} trailing bytes after message", self.b.len() - self.pos))
        }
    }

    pub(crate) fn take(&mut self, n: usize) -> WireResult<&'a [u8]> {
        if self.pos + n > self.b.len() {
            return Err(format!(
                "message truncated: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.b.len() - self.pos
            ));
        }
        let s = &self.b[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> WireResult<u8> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> WireResult<u32> {
        let s = self.take(4)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    pub(crate) fn u64(&mut self) -> WireResult<u64> {
        let s = self.take(8)?;
        Ok(u64::from_le_bytes([s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]]))
    }

    pub(crate) fn f64(&mut self) -> WireResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub(crate) fn str(&mut self) -> WireResult<String> {
        let n = self.u32()? as usize;
        let s = self.take(n)?;
        String::from_utf8(s.to_vec()).map_err(|_| "non-UTF-8 string".to_string())
    }

    pub(crate) fn remaining(&self) -> usize {
        self.b.len() - self.pos
    }

    pub(crate) fn f64s(&mut self) -> WireResult<Vec<f64>> {
        let n = self.u32()? as usize;
        // Guard before allocating: a corrupt count must not OOM.
        if n * 8 > self.remaining() {
            return Err(format!("vector count {n} exceeds remaining bytes"));
        }
        Ok(f64s_of(self.take(n * 8)?).collect())
    }
}

/// The `f64`s whose little-endian bit patterns `bytes` holds back to back
/// (`bytes.len()` a multiple of 8).
pub(crate) fn f64s_of(bytes: &[u8]) -> impl ExactSizeIterator<Item = f64> + '_ {
    bytes.chunks_exact(8).map(|c| f64::from_le_bytes(c.try_into().expect("an 8-byte chunk")))
}

// ---------------------------------------------------------------------
// Leaf codecs
// ---------------------------------------------------------------------

pub(crate) fn put_request_id(w: &mut Writer, id: &RequestId) {
    w.u64(id.client);
    w.u64(id.seq);
}

pub(crate) fn get_request_id(r: &mut Reader) -> WireResult<RequestId> {
    Ok(RequestId { client: r.u64()?, seq: r.u64()? })
}

fn put_opt_request_id(w: &mut Writer, id: &Option<RequestId>) {
    match id {
        None => w.u8(0),
        Some(id) => {
            w.u8(1);
            put_request_id(w, id);
        }
    }
}

fn get_opt_request_id(r: &mut Reader) -> WireResult<Option<RequestId>> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(get_request_id(r)?)),
        t => Err(format!("bad Option tag {t}")),
    }
}

pub(crate) fn put_allocation(w: &mut Writer, a: &Allocation) {
    w.u64(a.requester as u64);
    w.f64(a.amount);
    w.f64s(&a.draws);
    w.f64(a.theta);
}

pub(crate) fn get_allocation(r: &mut Reader) -> WireResult<Allocation> {
    Ok(Allocation {
        requester: r.u64()? as usize,
        amount: r.f64()?,
        draws: r.f64s()?,
        theta: r.f64()?,
    })
}

fn put_multi_allocation(w: &mut Writer, a: &MultiAllocation) {
    w.u32(a.lanes.len() as u32);
    for lane in &a.lanes {
        put_allocation(w, lane);
    }
}

fn get_multi_allocation(r: &mut Reader) -> WireResult<MultiAllocation> {
    let n = r.u32()? as usize;
    // Every lane allocation is ≥ 33 bytes; bound before allocating.
    if n * 33 > r.remaining() {
        return Err(format!("lane count {n} exceeds remaining bytes"));
    }
    let mut lanes = Vec::with_capacity(n);
    for _ in 0..n {
        lanes.push(get_allocation(r)?);
    }
    Ok(MultiAllocation { lanes })
}

fn put_lp_error(w: &mut Writer, e: &LpError) {
    match e {
        LpError::Infeasible { residual } => {
            w.u8(0);
            w.f64(*residual);
        }
        LpError::Unbounded { column } => {
            w.u8(1);
            w.u64(*column as u64);
        }
        LpError::IterationLimit { limit } => {
            w.u8(2);
            w.u64(*limit as u64);
        }
        LpError::InvalidModel(s) => {
            w.u8(3);
            w.str(s);
        }
    }
}

fn get_lp_error(r: &mut Reader) -> WireResult<LpError> {
    Ok(match r.u8()? {
        0 => LpError::Infeasible { residual: r.f64()? },
        1 => LpError::Unbounded { column: r.u64()? as usize },
        2 => LpError::IterationLimit { limit: r.u64()? as usize },
        3 => LpError::InvalidModel(r.str()?),
        t => return Err(format!("bad LpError tag {t}")),
    })
}

/// Distinct diagnostic strings a process will keep; a correct peer sends
/// a handful (one per refusal reason and resource name).
const INTERN_CAP: usize = 256;
/// Longest diagnostic string kept verbatim.
const INTERN_MAX_LEN: usize = 256;
/// What a diagnostic decodes to once the table is full or the string is
/// over-long: the error variant survives, only its text is lost.
const INTERN_OVERFLOW: &str = "<diagnostic not retained>";

/// The `&'static str` payloads of decoded errors. Each distinct string is
/// leaked once and handed out again on every later decode, so a client
/// retrying against a fail-stopped journal — or a faulty peer inventing
/// strings — cannot grow the process: at most [`INTERN_CAP`] strings of
/// at most [`INTERN_MAX_LEN`] bytes are ever retained.
struct Interner {
    seen: BTreeSet<&'static str>,
}

impl Interner {
    const fn new() -> Self {
        Interner { seen: BTreeSet::new() }
    }

    fn intern(&mut self, s: &str) -> &'static str {
        if let Some(&kept) = self.seen.get(s) {
            return kept;
        }
        if self.seen.len() >= INTERN_CAP || s.len() > INTERN_MAX_LEN {
            return INTERN_OVERFLOW;
        }
        let kept: &'static str = Box::leak(s.into());
        self.seen.insert(kept);
        kept
    }
}

fn intern(s: &str) -> &'static str {
    static DIAGNOSTICS: Mutex<Interner> = Mutex::new(Interner::new());
    // Poison is harmless here: `intern` leaves the set valid at every step.
    DIAGNOSTICS.lock().unwrap_or_else(PoisonError::into_inner).intern(s)
}

fn put_flow_error(w: &mut Writer, e: &FlowError) {
    match e {
        FlowError::OutOfRange { index, n } => {
            w.u8(0);
            w.u64(*index as u64);
            w.u64(*n as u64);
        }
        FlowError::InvalidShare { value } => {
            w.u8(1);
            w.f64(*value);
        }
        FlowError::DiagonalShare { index } => {
            w.u8(2);
            w.u64(*index as u64);
        }
        FlowError::RowSumExceeded { row, sum } => {
            w.u8(3);
            w.u64(*row as u64);
            w.f64(*sum);
        }
        FlowError::InvalidPartition { reason } => {
            w.u8(4);
            w.str(reason);
        }
    }
}

fn get_flow_error(r: &mut Reader) -> WireResult<FlowError> {
    Ok(match r.u8()? {
        0 => FlowError::OutOfRange { index: r.u64()? as usize, n: r.u64()? as usize },
        1 => FlowError::InvalidShare { value: r.f64()? },
        2 => FlowError::DiagonalShare { index: r.u64()? as usize },
        3 => FlowError::RowSumExceeded { row: r.u64()? as usize, sum: r.f64()? },
        4 => FlowError::InvalidPartition { reason: intern(&r.str()?) },
        t => return Err(format!("bad FlowError tag {t}")),
    })
}

fn put_sched_error(w: &mut Writer, e: &SchedError) {
    match e {
        SchedError::InsufficientCapacity { requester, capacity, requested, resource } => {
            w.u8(0);
            w.u64(*requester as u64);
            w.f64(*capacity);
            w.f64(*requested);
            // Binding-resource tag: presence byte then the name, so
            // single-resource payloads stay distinguishable from a
            // multi-resource rejection naming its binding lane.
            match resource {
                Some(name) => {
                    w.u8(1);
                    w.str(name);
                }
                None => w.u8(0),
            }
        }
        SchedError::UnknownPrincipal { index, n } => {
            w.u8(1);
            w.u64(*index as u64);
            w.u64(*n as u64);
        }
        SchedError::InvalidRequest { amount } => {
            w.u8(2);
            w.f64(*amount);
        }
        SchedError::Lp(e) => {
            w.u8(3);
            put_lp_error(w, e);
        }
        SchedError::DimensionMismatch { expected, got } => {
            w.u8(4);
            w.u64(*expected as u64);
            w.u64(*got as u64);
        }
        SchedError::EmptyGroup { group } => {
            w.u8(5);
            w.u64(*group as u64);
        }
        SchedError::Flow(e) => {
            w.u8(6);
            put_flow_error(w, e);
        }
    }
}

fn get_sched_error(r: &mut Reader) -> WireResult<SchedError> {
    Ok(match r.u8()? {
        0 => SchedError::InsufficientCapacity {
            requester: r.u64()? as usize,
            capacity: r.f64()?,
            requested: r.f64()?,
            resource: match r.u8()? {
                0 => None,
                1 => Some(intern(&r.str()?)),
                t => return Err(format!("bad resource presence byte {t}")),
            },
        },
        1 => SchedError::UnknownPrincipal { index: r.u64()? as usize, n: r.u64()? as usize },
        2 => SchedError::InvalidRequest { amount: r.f64()? },
        3 => SchedError::Lp(get_lp_error(r)?),
        4 => SchedError::DimensionMismatch { expected: r.u64()? as usize, got: r.u64()? as usize },
        5 => SchedError::EmptyGroup { group: r.u64()? as usize },
        6 => SchedError::Flow(get_flow_error(r)?),
        t => return Err(format!("bad SchedError tag {t}")),
    })
}

fn put_grm_error(w: &mut Writer, e: &GrmError) {
    match e {
        GrmError::Sched(e) => {
            w.u8(0);
            put_sched_error(w, e);
        }
        GrmError::Flow(e) => {
            w.u8(1);
            put_flow_error(w, e);
        }
        GrmError::UnknownLrm(i) => {
            w.u8(2);
            w.u64(*i as u64);
        }
        GrmError::Disconnected => w.u8(3),
        GrmError::DeadlineExceeded { millis } => {
            w.u8(4);
            w.u64(*millis);
        }
        GrmError::RetriesExhausted { attempts } => {
            w.u8(5);
            w.u64(*attempts as u64);
        }
        GrmError::Unsupported(what) => {
            w.u8(6);
            w.str(what);
        }
        GrmError::ConnectionRefused => w.u8(7),
        GrmError::ConnectionReset => w.u8(8),
        GrmError::FrameDecode { detail } => {
            w.u8(9);
            w.str(detail);
        }
        GrmError::BadEndpoint { detail } => {
            w.u8(10);
            w.str(detail);
        }
    }
}

fn get_grm_error(r: &mut Reader) -> WireResult<GrmError> {
    Ok(match r.u8()? {
        0 => GrmError::Sched(get_sched_error(r)?),
        1 => GrmError::Flow(get_flow_error(r)?),
        2 => GrmError::UnknownLrm(r.u64()? as usize),
        3 => GrmError::Disconnected,
        4 => GrmError::DeadlineExceeded { millis: r.u64()? },
        5 => GrmError::RetriesExhausted { attempts: r.u64()? as usize },
        6 => GrmError::Unsupported(intern(&r.str()?)),
        7 => GrmError::ConnectionRefused,
        8 => GrmError::ConnectionReset,
        9 => GrmError::FrameDecode { detail: r.str()? },
        10 => GrmError::BadEndpoint { detail: r.str()? },
        t => return Err(format!("bad GrmError tag {t}")),
    })
}

fn put_grant_result(w: &mut Writer, res: &Result<Allocation, GrmError>) {
    match res {
        Ok(a) => {
            w.u8(0);
            put_allocation(w, a);
        }
        Err(e) => {
            w.u8(1);
            put_grm_error(w, e);
        }
    }
}

fn get_grant_result(r: &mut Reader) -> WireResult<Result<Allocation, GrmError>> {
    match r.u8()? {
        0 => Ok(Ok(get_allocation(r)?)),
        1 => Ok(Err(get_grm_error(r)?)),
        t => Err(format!("bad Result tag {t}")),
    }
}

fn put_grant_multi_result(w: &mut Writer, res: &Result<MultiAllocation, GrmError>) {
    match res {
        Ok(a) => {
            w.u8(0);
            put_multi_allocation(w, a);
        }
        Err(e) => {
            w.u8(1);
            put_grm_error(w, e);
        }
    }
}

fn get_grant_multi_result(r: &mut Reader) -> WireResult<Result<MultiAllocation, GrmError>> {
    match r.u8()? {
        0 => Ok(Ok(get_multi_allocation(r)?)),
        1 => Ok(Err(get_grm_error(r)?)),
        t => Err(format!("bad Result tag {t}")),
    }
}

fn put_unit_result(w: &mut Writer, res: &Result<(), GrmError>) {
    match res {
        Ok(()) => w.u8(0),
        Err(e) => {
            w.u8(1);
            put_grm_error(w, e);
        }
    }
}

fn get_unit_result(r: &mut Reader) -> WireResult<Result<(), GrmError>> {
    match r.u8()? {
        0 => Ok(Ok(())),
        1 => Ok(Err(get_grm_error(r)?)),
        t => Err(format!("bad Result tag {t}")),
    }
}

fn put_stats(w: &mut Writer, s: &GrmStats) {
    w.u64(s.requests);
    w.u64(s.granted);
    w.u64(s.rejected_capacity);
    w.f64(s.granted_units);
    w.u64(s.agreement_updates);
    w.u64(s.reports);
    w.u64(s.duplicate_requests);
    w.u64(s.partial_fulfils);
    w.f64(s.fulfil_shortfall_units);
    w.u64(s.journaled_grants);
    w.f64(s.journaled_units);
    w.u64(s.coalesced_reports);
    w.u64(s.fast_rejects);
    w.u64(s.flow_rows_recomputed);
}

fn get_stats(r: &mut Reader) -> WireResult<GrmStats> {
    Ok(GrmStats {
        requests: r.u64()?,
        granted: r.u64()?,
        rejected_capacity: r.u64()?,
        granted_units: r.f64()?,
        agreement_updates: r.u64()?,
        reports: r.u64()?,
        duplicate_requests: r.u64()?,
        partial_fulfils: r.u64()?,
        fulfil_shortfall_units: r.f64()?,
        journaled_grants: r.u64()?,
        journaled_units: r.f64()?,
        coalesced_reports: r.u64()?,
        fast_rejects: r.u64()?,
        flow_rows_recomputed: r.u64()?,
    })
}

// ---------------------------------------------------------------------
// Top-level messages
// ---------------------------------------------------------------------

impl RequestFrame {
    /// Encode to a payload (to be wrapped in one wire frame).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u64(self.corr);
        match self.replay_seq {
            None => w.u8(0),
            Some(s) => {
                w.u8(1);
                w.u64(s);
            }
        }
        match &self.req {
            WireRequest::Report { lrm, available } => {
                w.u8(0);
                w.u64(*lrm);
                w.f64(*available);
            }
            WireRequest::Tick { now, lease } => {
                w.u8(1);
                w.u64(*now);
                w.u64(*lease);
            }
            WireRequest::Request { lrm, amount, req_id } => {
                w.u8(2);
                w.u64(*lrm);
                w.f64(*amount);
                put_opt_request_id(&mut w, req_id);
            }
            WireRequest::Release { alloc, req_id } => {
                w.u8(3);
                put_allocation(&mut w, alloc);
                put_opt_request_id(&mut w, req_id);
            }
            WireRequest::ReplayGrant { req_id, lrm, amount } => {
                w.u8(4);
                put_request_id(&mut w, req_id);
                w.u64(*lrm);
                w.f64(*amount);
            }
            WireRequest::Availability => w.u8(5),
            WireRequest::Stats => w.u8(6),
            WireRequest::RequestMulti { lrm, amounts, req_id } => {
                w.u8(7);
                w.u64(*lrm);
                w.f64s(amounts);
                put_opt_request_id(&mut w, req_id);
            }
            WireRequest::ReportMulti { lrm, available } => {
                w.u8(8);
                w.u64(*lrm);
                w.f64s(available);
            }
            WireRequest::AvailabilityMulti => w.u8(9),
        }
        w.into_bytes()
    }

    /// Decode a payload; failures surface as [`GrmError::FrameDecode`].
    pub fn decode(bytes: &[u8]) -> Result<RequestFrame, GrmError> {
        decode_request(bytes).map_err(|detail| GrmError::FrameDecode { detail })
    }
}

fn decode_request(bytes: &[u8]) -> WireResult<RequestFrame> {
    let mut r = Reader::new(bytes);
    let corr = r.u64()?;
    let replay_seq = match r.u8()? {
        0 => None,
        1 => Some(r.u64()?),
        t => return Err(format!("bad replay_seq tag {t}")),
    };
    let req = match r.u8()? {
        0 => WireRequest::Report { lrm: r.u64()?, available: r.f64()? },
        1 => WireRequest::Tick { now: r.u64()?, lease: r.u64()? },
        2 => WireRequest::Request {
            lrm: r.u64()?,
            amount: r.f64()?,
            req_id: get_opt_request_id(&mut r)?,
        },
        3 => WireRequest::Release {
            alloc: get_allocation(&mut r)?,
            req_id: get_opt_request_id(&mut r)?,
        },
        4 => WireRequest::ReplayGrant {
            req_id: get_request_id(&mut r)?,
            lrm: r.u64()?,
            amount: r.f64()?,
        },
        5 => WireRequest::Availability,
        6 => WireRequest::Stats,
        7 => WireRequest::RequestMulti {
            lrm: r.u64()?,
            amounts: r.f64s()?,
            req_id: get_opt_request_id(&mut r)?,
        },
        8 => WireRequest::ReportMulti { lrm: r.u64()?, available: r.f64s()? },
        9 => WireRequest::AvailabilityMulti,
        t => return Err(format!("bad WireRequest tag {t}")),
    };
    r.finish()?;
    Ok(RequestFrame { corr, replay_seq, req })
}

impl ResponseFrame {
    /// Encode to a payload (to be wrapped in one wire frame).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.put(&mut w);
        w.into_bytes()
    }

    /// [`ResponseFrame::encode`]'s bytes, appended to `w`.
    pub(crate) fn put(&self, w: &mut Writer) {
        w.u64(self.corr);
        match &self.resp {
            WireResponse::Grant(res) => {
                w.u8(0);
                put_grant_result(w, res);
            }
            WireResponse::Unit(res) => {
                w.u8(1);
                put_unit_result(w, res);
            }
            WireResponse::Availability(vs) => {
                w.u8(2);
                w.f64s(vs);
            }
            WireResponse::Stats(s) => {
                w.u8(3);
                put_stats(w, s);
            }
            WireResponse::GrantMulti(res) => {
                w.u8(4);
                put_grant_multi_result(w, res);
            }
            WireResponse::AvailabilityMulti(lanes) => {
                w.u8(5);
                w.u32(lanes.len() as u32);
                for lane in lanes {
                    w.f64s(lane);
                }
            }
        }
    }

    /// Decode a payload; failures surface as [`GrmError::FrameDecode`].
    pub fn decode(bytes: &[u8]) -> Result<ResponseFrame, GrmError> {
        decode_response(bytes).map_err(|detail| GrmError::FrameDecode { detail })
    }
}

fn decode_response(bytes: &[u8]) -> WireResult<ResponseFrame> {
    let mut r = Reader::new(bytes);
    let corr = r.u64()?;
    let resp = match r.u8()? {
        0 => WireResponse::Grant(get_grant_result(&mut r)?),
        1 => WireResponse::Unit(get_unit_result(&mut r)?),
        2 => WireResponse::Availability(r.f64s()?),
        3 => WireResponse::Stats(Box::new(get_stats(&mut r)?)),
        4 => WireResponse::GrantMulti(get_grant_multi_result(&mut r)?),
        5 => {
            let n = r.u32()? as usize;
            // Each lane is at least a 4-byte count; bound before allocating.
            if n * 4 > r.remaining() {
                return Err(format!("lane count {n} exceeds remaining bytes"));
            }
            let mut lanes = Vec::with_capacity(n);
            for _ in 0..n {
                lanes.push(r.f64s()?);
            }
            WireResponse::AvailabilityMulti(lanes)
        }
        t => return Err(format!("bad WireResponse tag {t}")),
    };
    r.finish()?;
    Ok(ResponseFrame { corr, resp })
}

/// A [`RecordedDecision`] by reference: what the journal encodes from
/// without first cloning a decision into the owned form.
#[derive(Clone, Copy)]
pub(crate) enum DecisionRef<'a> {
    Grant(&'a Result<Allocation, GrmError>),
    Release(&'a Result<(), GrmError>),
    Replay(&'a Result<(), GrmError>),
    GrantMulti(&'a Result<MultiAllocation, GrmError>),
}

impl<'a> From<&'a RecordedDecision> for DecisionRef<'a> {
    fn from(d: &'a RecordedDecision) -> Self {
        match d {
            RecordedDecision::Grant(res) => DecisionRef::Grant(res),
            RecordedDecision::Release(res) => DecisionRef::Release(res),
            RecordedDecision::Replay(res) => DecisionRef::Replay(res),
            RecordedDecision::GrantMulti(res) => DecisionRef::GrantMulti(res),
        }
    }
}

/// [`encode_decision`]'s bytes, appended to `w`.
pub(crate) fn put_decision(w: &mut Writer, d: DecisionRef<'_>) {
    match d {
        DecisionRef::Grant(res) => {
            w.u8(0);
            put_grant_result(w, res);
        }
        DecisionRef::Release(res) => {
            w.u8(1);
            put_unit_result(w, res);
        }
        DecisionRef::Replay(res) => {
            w.u8(2);
            put_unit_result(w, res);
        }
        DecisionRef::GrantMulti(res) => {
            w.u8(3);
            put_grant_multi_result(w, res);
        }
    }
}

/// Encode a journaled decision (shared with the durable journal, so a
/// recovered decision is bit-identical to the one that was served).
pub fn encode_decision(d: &RecordedDecision) -> Vec<u8> {
    let mut w = Writer::new();
    put_decision(&mut w, d.into());
    w.into_bytes()
}

/// Decode a journaled decision.
pub fn decode_decision(bytes: &[u8]) -> Result<RecordedDecision, GrmError> {
    let inner = |bytes: &[u8]| -> WireResult<RecordedDecision> {
        let mut r = Reader::new(bytes);
        let d = match r.u8()? {
            0 => RecordedDecision::Grant(get_grant_result(&mut r)?),
            1 => RecordedDecision::Release(get_unit_result(&mut r)?),
            2 => RecordedDecision::Replay(get_unit_result(&mut r)?),
            3 => RecordedDecision::GrantMulti(get_grant_multi_result(&mut r)?),
            t => return Err(format!("bad RecordedDecision tag {t}")),
        };
        r.finish()?;
        Ok(d)
    };
    inner(bytes).map_err(|detail| GrmError::FrameDecode { detail })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn alloc() -> Allocation {
        Allocation { requester: 3, amount: 2.5, draws: vec![0.0, 1.25, 1.25, -0.0], theta: 0.125 }
    }

    #[test]
    fn request_round_trips() {
        let frames = vec![
            RequestFrame {
                corr: 1,
                replay_seq: None,
                req: WireRequest::Report { lrm: 4, available: 7.5 },
            },
            RequestFrame {
                corr: 2,
                replay_seq: Some(99),
                req: WireRequest::Tick { now: 10, lease: 3 },
            },
            RequestFrame {
                corr: u64::MAX,
                replay_seq: None,
                req: WireRequest::Request {
                    lrm: 0,
                    amount: f64::MIN_POSITIVE,
                    req_id: Some(RequestId { client: 7, seq: 9 }),
                },
            },
            RequestFrame {
                corr: 3,
                replay_seq: Some(0),
                req: WireRequest::Release { alloc: alloc(), req_id: None },
            },
            RequestFrame {
                corr: 4,
                replay_seq: None,
                req: WireRequest::ReplayGrant {
                    req_id: RequestId { client: 1, seq: 2 },
                    lrm: 5,
                    amount: 0.5,
                },
            },
            RequestFrame { corr: 5, replay_seq: None, req: WireRequest::Availability },
            RequestFrame { corr: 6, replay_seq: None, req: WireRequest::Stats },
        ];
        for f in frames {
            let bytes = f.encode();
            assert_eq!(RequestFrame::decode(&bytes).unwrap(), f);
        }
    }

    #[test]
    fn response_round_trips_full_error_taxonomy() {
        let errors = vec![
            GrmError::Sched(SchedError::InsufficientCapacity {
                requester: 1,
                capacity: 2.0,
                requested: 3.0,
                resource: None,
            }),
            GrmError::Sched(SchedError::InsufficientCapacity {
                requester: 1,
                capacity: 2.0,
                requested: 3.0,
                resource: Some("bandwidth"),
            }),
            GrmError::Sched(SchedError::Lp(LpError::Infeasible { residual: 1e-6 })),
            GrmError::Sched(SchedError::Lp(LpError::InvalidModel("nan coeff".into()))),
            GrmError::Sched(SchedError::Flow(FlowError::RowSumExceeded { row: 2, sum: 1.5 })),
            GrmError::Flow(FlowError::InvalidPartition { reason: "empty" }),
            GrmError::UnknownLrm(42),
            GrmError::Disconnected,
            GrmError::DeadlineExceeded { millis: 250 },
            GrmError::RetriesExhausted { attempts: 4 },
            GrmError::Unsupported("leave"),
            GrmError::ConnectionRefused,
            GrmError::ConnectionReset,
            GrmError::FrameDecode { detail: "bad tag".into() },
            GrmError::BadEndpoint { detail: "path too long".into() },
        ];
        for e in errors {
            let f = ResponseFrame { corr: 9, resp: WireResponse::Grant(Err(e.clone())) };
            let bytes = f.encode();
            let back = ResponseFrame::decode(&bytes).unwrap();
            assert_eq!(back, f, "error {e:?}");
        }
        let ok = ResponseFrame { corr: 1, resp: WireResponse::Grant(Ok(alloc())) };
        assert_eq!(ResponseFrame::decode(&ok.encode()).unwrap(), ok);
        let unit = ResponseFrame { corr: 2, resp: WireResponse::Unit(Ok(())) };
        assert_eq!(ResponseFrame::decode(&unit.encode()).unwrap(), unit);
        let avail =
            ResponseFrame { corr: 3, resp: WireResponse::Availability(vec![1.0, 0.0, 5.5]) };
        assert_eq!(ResponseFrame::decode(&avail.encode()).unwrap(), avail);
        let stats = ResponseFrame {
            corr: 4,
            resp: WireResponse::Stats(Box::new(GrmStats {
                requests: 10,
                granted: 8,
                granted_units: 12.25,
                ..GrmStats::default()
            })),
        };
        assert_eq!(ResponseFrame::decode(&stats.encode()).unwrap(), stats);
    }

    #[test]
    fn decoded_diagnostics_are_interned_not_leaked_per_decode() {
        // What a client retrying against a fail-stopped journal decodes
        // over and over: one string, kept once.
        let down = ResponseFrame {
            corr: 1,
            resp: WireResponse::Unit(Err(GrmError::Unsupported("agreement journal unavailable"))),
        };
        let bytes = down.encode();
        let text = |f: ResponseFrame| match f.resp {
            WireResponse::Unit(Err(GrmError::Unsupported(s))) => s,
            other => panic!("decoded {other:?}"),
        };
        let first = text(ResponseFrame::decode(&bytes).unwrap());
        assert_eq!(first, "agreement journal unavailable");
        for _ in 0..10_000 {
            let again = text(ResponseFrame::decode(&bytes).unwrap());
            assert!(std::ptr::eq(first, again), "a repeated diagnostic was leaked again");
        }

        // A peer inventing strings fills the table and no further: past
        // the cap (and for over-long strings) the text is dropped, and
        // strings already kept still resolve to themselves.
        let mut table = Interner::new();
        let kept = table.intern("kept");
        for i in 0..INTERN_CAP * 2 {
            table.intern(&format!("invented-{i}"));
        }
        assert_eq!(table.seen.len(), INTERN_CAP);
        assert_eq!(table.intern("one more"), INTERN_OVERFLOW);
        assert!(std::ptr::eq(table.intern("kept"), kept));
        let mut roomy = Interner::new();
        assert_eq!(roomy.intern(&"x".repeat(INTERN_MAX_LEN + 1)), INTERN_OVERFLOW);
        assert!(roomy.seen.is_empty());
    }

    #[test]
    fn multi_messages_round_trip() {
        let frames = vec![
            RequestFrame {
                corr: 7,
                replay_seq: Some(12),
                req: WireRequest::RequestMulti {
                    lrm: 2,
                    amounts: vec![1.0, 0.5, -0.0],
                    req_id: Some(RequestId { client: 3, seq: 4 }),
                },
            },
            RequestFrame {
                corr: 8,
                replay_seq: None,
                req: WireRequest::ReportMulti { lrm: 1, available: vec![10.0, 6.0, 0.0] },
            },
            RequestFrame { corr: 9, replay_seq: None, req: WireRequest::AvailabilityMulti },
        ];
        for f in frames {
            assert_eq!(RequestFrame::decode(&f.encode()).unwrap(), f);
        }

        let multi = MultiAllocation { lanes: vec![alloc(), alloc()] };
        let grant = ResponseFrame { corr: 1, resp: WireResponse::GrantMulti(Ok(multi)) };
        assert_eq!(ResponseFrame::decode(&grant.encode()).unwrap(), grant);
        let rejected = ResponseFrame {
            corr: 2,
            resp: WireResponse::GrantMulti(Err(GrmError::Sched(
                SchedError::InsufficientCapacity {
                    requester: 1,
                    capacity: 0.25,
                    requested: 2.0,
                    resource: Some("bandwidth"),
                },
            ))),
        };
        assert_eq!(ResponseFrame::decode(&rejected.encode()).unwrap(), rejected);
        let lanes = ResponseFrame {
            corr: 3,
            resp: WireResponse::AvailabilityMulti(vec![vec![1.0, 2.0], vec![0.0, 0.5], vec![]]),
        };
        assert_eq!(ResponseFrame::decode(&lanes.encode()).unwrap(), lanes);
    }

    #[test]
    fn corrupt_multi_counts_do_not_allocate() {
        // A GrantMulti Ok whose lane count claims far more lanes than the
        // payload holds must fail the pre-allocation bound, not OOM.
        let mut w = Writer::new();
        w.u64(1); // corr
        w.u8(4); // GrantMulti
        w.u8(0); // Ok
        w.u32(u32::MAX); // absurd lane count
        assert!(matches!(
            ResponseFrame::decode(&w.into_bytes()),
            Err(GrmError::FrameDecode { .. })
        ));
    }

    #[test]
    fn decision_round_trips() {
        let ds = vec![
            RecordedDecision::Grant(Ok(alloc())),
            RecordedDecision::Grant(Err(GrmError::UnknownLrm(3))),
            RecordedDecision::Release(Ok(())),
            RecordedDecision::Replay(Err(GrmError::Sched(SchedError::InvalidRequest {
                amount: -1.0,
            }))),
            RecordedDecision::GrantMulti(Ok(MultiAllocation { lanes: vec![alloc()] })),
            RecordedDecision::GrantMulti(Err(GrmError::Unsupported("single-engine server"))),
        ];
        for d in ds {
            assert_eq!(decode_decision(&encode_decision(&d)).unwrap(), d);
        }
    }

    #[test]
    fn nan_and_signed_zero_survive_bit_identically() {
        let a = Allocation {
            requester: 0,
            amount: f64::NAN,
            draws: vec![-0.0, f64::INFINITY, f64::NEG_INFINITY],
            theta: f64::from_bits(0x7FF8_0000_0000_1234), // a payloaded NaN
        };
        let f = ResponseFrame { corr: 0, resp: WireResponse::Grant(Ok(a.clone())) };
        let back = ResponseFrame::decode(&f.encode()).unwrap();
        let WireResponse::Grant(Ok(b)) = back.resp else { panic!("wrong variant") };
        assert_eq!(b.amount.to_bits(), a.amount.to_bits());
        assert_eq!(b.theta.to_bits(), a.theta.to_bits());
        for (x, y) in b.draws.iter().zip(&a.draws) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    /// The element-at-a-time vector encoding the bulk one replaced: the
    /// reference its bytes must equal.
    fn f64s_elementwise(vs: &[f64]) -> Vec<u8> {
        let mut w = Writer::new();
        w.u32(vs.len() as u32);
        for &v in vs {
            w.f64(v);
        }
        w.into_bytes()
    }

    /// Any `f64` bit pattern, with the edge cases drawn often: NaN
    /// payloads of either sign, `-0.0`, subnormals and ±∞.
    fn any_f64_bits() -> impl Strategy<Value = u64> {
        const MANTISSA: u64 = (1 << 52) - 1;
        let sign = |neg: bool| (neg as u64) << 63;
        prop_oneof![
            any::<u64>(),
            (1..=MANTISSA, any::<bool>())
                .prop_map(move |(m, neg)| m | 0x7FF0_0000_0000_0000 | sign(neg)),
            (1..=MANTISSA, any::<bool>()).prop_map(move |(m, neg)| m | sign(neg)),
            Just((-0.0f64).to_bits()),
            Just(f64::INFINITY.to_bits()),
            Just(f64::NEG_INFINITY.to_bits()),
        ]
    }

    proptest! {
        #[test]
        fn bulk_vector_codec_is_byte_identical(
            bits in proptest::collection::vec(any_f64_bits(), 0..48),
        ) {
            let vs: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
            let mut w = Writer::new();
            w.f64s(&vs);
            let bytes = w.into_bytes();
            prop_assert_eq!(&bytes, &f64s_elementwise(&vs));

            let mut r = Reader::new(&bytes);
            let back: Vec<u64> = r.f64s().unwrap().iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(back, bits);
            r.finish().unwrap();

            // A count past the bytes that follow it fails the guard, which
            // runs before the vector is allocated.
            if !vs.is_empty() {
                prop_assert!(Reader::new(&bytes[..bytes.len() - 1]).f64s().is_err());
            }
            let mut inflated = bytes.clone();
            inflated[..4].copy_from_slice(&(vs.len() as u32 + 1).to_le_bytes());
            prop_assert!(Reader::new(&inflated).f64s().is_err());
            inflated[..4].copy_from_slice(&u32::MAX.to_le_bytes());
            prop_assert!(Reader::new(&inflated).f64s().is_err());
        }
    }

    #[test]
    fn truncated_and_trailing_bytes_are_decode_errors() {
        let f = RequestFrame {
            corr: 1,
            replay_seq: None,
            req: WireRequest::Request { lrm: 0, amount: 1.0, req_id: None },
        };
        let bytes = f.encode();
        assert!(matches!(
            RequestFrame::decode(&bytes[..bytes.len() - 1]),
            Err(GrmError::FrameDecode { .. })
        ));
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(matches!(RequestFrame::decode(&extended), Err(GrmError::FrameDecode { .. })));
        assert!(matches!(RequestFrame::decode(&[]), Err(GrmError::FrameDecode { .. })));
    }
}
