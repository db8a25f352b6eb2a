//! The centralized global resource manager.
//!
//! The server assumes nothing about its transport: requests can be
//! retried, duplicated, delayed, or reordered on the way in (see the
//! `agreements-faults` crate and [`GrmServer::spawn_chaotic`]). Exactly-
//! once *effects* are recovered at the server with client-generated
//! [`RequestId`]s and a bounded dedup window: a duplicated or retried
//! `Request`/`Release`/`ReplayGrant` returns the original decision
//! instead of double-granting (DESIGN.md §8).
//!
//! The server has no thread of its own. It is one state, the core, under
//! one lock; every call executes on its caller's thread, under that lock,
//! through one function ([`GrmCore::execute`]): a [`GrmHandle`]'s calls
//! as runs of one, a network listener's frames as runs of many. A
//! chaotic server's handles send their calls through a fault plane, whose
//! pump executes them on the core the same way.

use crate::dedup::DedupWindow;
use crate::engine::{self, Engine};
use agreements_flow::{AgreementMatrix, FlowError};
use agreements_sched::{
    Allocation, HierarchicalScheduler, LaneGrant, MultiAdmission, MultiAllocation, SchedError,
};
use agreements_telemetry::{HistKind, Telemetry, TelemetryEvent};
use crossbeam::channel::{bounded, Receiver, Sender};
use parking_lot::Mutex;
use std::fmt;
use std::sync::{Arc, Weak};

/// Errors surfaced to GRM clients.
#[derive(Debug, Clone, PartialEq)]
pub enum GrmError {
    /// The scheduler rejected the request.
    Sched(SchedError),
    /// An agreement mutation was invalid.
    Flow(FlowError),
    /// Referenced an unregistered LRM.
    UnknownLrm(usize),
    /// The server is gone (shut down or crashed).
    Disconnected,
    /// No reply arrived within the caller's per-call deadline.
    DeadlineExceeded {
        /// The deadline that elapsed, in milliseconds.
        millis: u64,
    },
    /// A resilient client gave up after exhausting its retry budget.
    RetriesExhausted {
        /// Attempts made before giving up.
        attempts: usize,
    },
    /// The operation is not available on this engine: a hierarchical
    /// GRM renegotiates with `set_inter_group`, a flat GRM with
    /// `set_agreement`; membership changes are flat-only; the single-pool
    /// calls (`request`, `release`, `replay_grant`, `availability`) need
    /// one resource lane. The payload names the rejected operation.
    Unsupported(&'static str),
    /// Nothing is listening at the server's address (the daemon is down
    /// or restarting). The call never reached a server, so retrying the
    /// same [`RequestId`] is always safe.
    ConnectionRefused,
    /// The connection died mid-call (reset, broken pipe, or EOF before
    /// the reply). The call may or may not have been decided; the dedup
    /// window makes the retry safe either way.
    ConnectionReset,
    /// A frame failed to decode (bad magic, CRC mismatch, malformed
    /// payload). A poison frame is a protocol bug, not a transient
    /// fault: resending the same bytes reproduces the same failure, so
    /// this is **never** retryable.
    FrameDecode {
        /// What the decoder objected to.
        detail: String,
    },
    /// The server address itself is unusable — e.g. a Unix-socket path
    /// longer than the kernel's `sun_path` limit. Deterministic, so
    /// never retryable: the same endpoint fails the same way.
    BadEndpoint {
        /// What is wrong with the endpoint (names the path and limit).
        detail: String,
    },
}

impl GrmError {
    /// Whether retrying the *same* call (same [`RequestId`]) can succeed.
    ///
    /// Transport-level failures — a missing reply, a dead server that a
    /// cold standby may replace, a refused or reset connection — are
    /// retryable; the server-side dedup window makes such retries safe.
    /// Decisions the server actually made (scheduling rejections,
    /// agreement errors, unknown indices) are not: retrying them re-asks
    /// an already-answered question, and an exhausted retry budget is
    /// itself final. A frame-decode failure is deterministic — the same
    /// bytes fail the same way — so a resilient client must never burn
    /// its retry budget on a poison frame.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            GrmError::Disconnected
                | GrmError::DeadlineExceeded { .. }
                | GrmError::ConnectionRefused
                | GrmError::ConnectionReset
        )
    }
}

impl fmt::Display for GrmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GrmError::Sched(e) => write!(f, "scheduler: {e}"),
            GrmError::Flow(e) => write!(f, "agreement: {e}"),
            GrmError::UnknownLrm(i) => write!(f, "unknown LRM {i}"),
            GrmError::Disconnected => write!(f, "GRM server disconnected"),
            GrmError::DeadlineExceeded { millis } => {
                write!(f, "no GRM reply within {millis} ms")
            }
            GrmError::RetriesExhausted { attempts } => {
                write!(f, "GRM unreachable after {attempts} attempts")
            }
            GrmError::Unsupported(what) => {
                write!(f, "unsupported on this engine: {what}")
            }
            GrmError::ConnectionRefused => write!(f, "GRM connection refused"),
            GrmError::ConnectionReset => write!(f, "GRM connection reset mid-call"),
            GrmError::FrameDecode { detail } => write!(f, "undecodable frame: {detail}"),
            GrmError::BadEndpoint { detail } => write!(f, "bad endpoint: {detail}"),
        }
    }
}

impl std::error::Error for GrmError {}

/// A client-generated identifier making an allocation RPC idempotent.
///
/// `client` distinguishes issuers (so independently counting clients
/// never collide); `seq` is the issuer's call counter. Retries of one
/// logical call reuse one id; the server's dedup window then guarantees
/// the call takes effect at most once.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RequestId {
    /// Issuing client.
    pub client: u64,
    /// Per-client sequence number.
    pub seq: u64,
}

/// A decided idempotent call in exportable form: what the dedup window
/// remembers about a [`RequestId`], made public so a durable journal can
/// persist decisions and seed them back into a respawned server
/// ([`GrmHandle::seed`]) — at-most-once then holds across
/// process death, not just within one lifetime.
#[derive(Debug, Clone, PartialEq)]
pub enum RecordedDecision {
    /// The id decided an allocation request.
    Grant(Result<Allocation, GrmError>),
    /// The id decided a multi-resource allocation request.
    GrantMulti(Result<MultiAllocation, GrmError>),
    /// The id decided a release.
    Release(Result<(), GrmError>),
    /// The id decided a degraded-grant replay.
    Replay(Result<(), GrmError>),
}

/// One call of a run the GRM core executes ([`GrmCore::execute`]): an
/// RPC or report a client serves through the GRM, without a reply
/// channel. Each variant is the [`GrmHandle`] method of its name (its
/// `_idempotent` twin when it carries an id), its fields that method's
/// arguments. The handle executes each as a run of one; a caller holding
/// the core executes runs of many. Agreement, membership and recovery
/// operations are not calls: they run as closures on the locked core,
/// and only the handle reaches them.
#[allow(missing_docs)] // the named GrmHandle methods document them
#[derive(Debug, Clone)]
pub enum Call {
    Report { lrm: usize, available: f64 },
    ReportMulti { lrm: usize, available: Vec<f64> },
    Tick { now: u64, lease: u64 },
    Request { lrm: usize, amount: f64, req_id: Option<RequestId> },
    RequestMulti { lrm: usize, amounts: Vec<f64>, req_id: Option<RequestId> },
    Release { alloc: Allocation, req_id: Option<RequestId> },
    ReplayGrant { req_id: RequestId, lrm: usize, amount: f64 },
    Availability,
    AvailabilityMulti,
    Stats,
}

/// The core's answer to one [`Call`]. An idempotent call's answer says
/// whether it was decided now (`fresh`) or replayed from the dedup
/// window, and is read as the call's own kind: finding another kind
/// under its id fails the call.
#[allow(missing_docs)] // fields: documented on their variants
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// A report or tick: whether the core applied it (a malformed report
    /// is dropped).
    Applied(bool),
    /// A request's decision.
    Grant { result: Result<Allocation, GrmError>, fresh: bool },
    /// A multi-resource request's decision.
    GrantMulti { result: Result<MultiAllocation, GrmError>, fresh: bool },
    /// A release's or a replay settlement's decision.
    Unit { result: Result<(), GrmError>, fresh: bool },
    /// The single-pool availability view; refused on more than one lane.
    Availability(Result<Vec<f64>, GrmError>),
    /// The per-lane availability view.
    AvailabilityMulti(Vec<Vec<f64>>),
    /// The operational counters.
    Stats(GrmStats),
}

/// The error a [`GrmHandle`] method returns when its call is answered in
/// another kind: a pairing bug, failed to the caller.
const MISPAIRED: GrmError = GrmError::Unsupported("an answer of another call kind");

/// Readers for the waiting [`GrmHandle`] method, one per answer kind.
impl Answer {
    fn grant(self) -> Result<Allocation, GrmError> {
        let Answer::Grant { result, .. } = self else { return Err(MISPAIRED) };
        result
    }

    fn grant_multi(self) -> Result<MultiAllocation, GrmError> {
        let Answer::GrantMulti { result, .. } = self else { return Err(MISPAIRED) };
        result
    }

    fn unit(self) -> Result<(), GrmError> {
        let Answer::Unit { result, .. } = self else { return Err(MISPAIRED) };
        result
    }

    fn availability(self) -> Result<Vec<f64>, GrmError> {
        let Answer::Availability(view) = self else { return Err(MISPAIRED) };
        view
    }

    fn availability_multi(self) -> Result<Vec<Vec<f64>>, GrmError> {
        let Answer::AvailabilityMulti(view) = self else { return Err(MISPAIRED) };
        Ok(view)
    }

    fn stats(self) -> Result<GrmStats, GrmError> {
        let Answer::Stats(stats) = self else { return Err(MISPAIRED) };
        Ok(stats)
    }
}

/// Operational counters maintained by the GRM server.
///
/// All integral counters are `u64` so their width does not vary with the
/// host platform and they line up with the telemetry plane's counters;
/// unit accumulators stay `f64` but are maintained with compensated
/// (Kahan) summation inside the server, so long runs of small grants do
/// not silently lose low-order bits.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GrmStats {
    /// Allocation requests received (dedup hits excluded).
    pub requests: u64,
    /// Requests granted.
    pub granted: u64,
    /// Requests rejected for insufficient capacity.
    pub rejected_capacity: u64,
    /// Total units granted.
    pub granted_units: f64,
    /// Agreement mutations applied.
    pub agreement_updates: u64,
    /// Availability reports processed.
    pub reports: u64,
    /// Duplicated or retried calls answered from the dedup window.
    pub duplicate_requests: u64,
    /// Fulfilments that came up short of the granted draw (LRM pool ran
    /// stale-low; see `Lrm::fulfil`).
    pub partial_fulfils: u64,
    /// Total units of fulfilment shortfall across partial fulfilments.
    pub fulfil_shortfall_units: f64,
    /// Degraded-mode grants replayed by reconciling LRMs.
    pub journaled_grants: u64,
    /// Total units across replayed degraded-mode grants.
    pub journaled_units: f64,
    /// Availability reports superseded by a later report for the same
    /// LRM within one run (last-writer-wins coalescing).
    pub coalesced_reports: u64,
    /// Requests rejected by the capacity pre-check without building an
    /// LP (a strict subset of `rejected_capacity`).
    pub fast_rejects: u64,
    /// Flow-table rows recomputed by the incremental maintainer across
    /// all agreement/membership mutations since the server started.
    pub flow_rows_recomputed: u64,
}

/// Compensated (Kahan) accumulator for a running `f64` total.
///
/// The server's unit accumulators add many small draws to an ever-larger
/// total; naive summation loses the low-order bits of each addend once
/// the total dwarfs it. Kahan's correction term carries those bits
/// forward, keeping the published total within one rounding of the exact
/// sum regardless of run length.
#[derive(Debug, Clone, Copy, Default)]
struct KahanSum {
    total: f64,
    compensation: f64,
}

impl KahanSum {
    fn add(&mut self, x: f64) {
        let y = x - self.compensation;
        let t = self.total + y;
        self.compensation = (t - self.total) - y;
        self.total = t;
    }

    fn total(&self) -> f64 {
        self.total
    }
}

/// Block for the answer to an issued call.
fn wait<T>(rx: Receiver<T>) -> Result<T, GrmError> {
    rx.recv().map_err(|_| GrmError::Disconnected)
}

/// What a [`GrmHandle`] sends down its link: an operation on the locked
/// core that answers on its own — a call executed as a run of one, or an
/// agreement, membership, recovery or fulfilment operation. Shared, not
/// boxed: a fault plane duplicates what it carries.
type Op = Arc<dyn Fn(&mut ServerCore) + Send + Sync>;

/// Execute `op` on `core` under its lock: the one delivery function,
/// called by a direct handle on its own thread and by a fault plane's
/// pump once the plane has let the op through. `Disconnected` once the
/// server is gone.
fn deliver(core: &Weak<Mutex<ServerCore>>, op: &Op) -> Result<(), GrmError> {
    let core = core.upgrade().ok_or(GrmError::Disconnected)?;
    op(&mut core.lock());
    Ok(())
}

/// Cloneable client handle to a GRM. It holds the core weakly: once the
/// server is dropped, every call answers [`GrmError::Disconnected`].
#[derive(Clone)]
pub struct GrmHandle {
    core: Weak<Mutex<ServerCore>>,
    /// A chaotic server's link: what is sent here reaches the core only
    /// through the fault plane's pump.
    chaos: Option<Sender<Op>>,
}

impl GrmHandle {
    /// Send `op` down the link: delivered now, on this thread, or handed
    /// to the fault plane, which delivers it (or not) on its pump.
    fn send(&self, op: Op) -> Result<(), GrmError> {
        match &self.chaos {
            _ if self.core.strong_count() == 0 => Err(GrmError::Disconnected),
            Some(plane) => plane.send(op).map_err(|_| GrmError::Disconnected),
            None => deliver(&self.core, &op),
        }
    }

    /// Execute `op` on the core; its result arrives on the returned
    /// receiver — on a direct link, before this returns. The result of a
    /// second execution (the fault plane duplicated the op) is discarded:
    /// for a call, dedup made it the first one's or the call carries no
    /// id.
    fn manage<T: Send + 'static>(
        &self,
        op: impl Fn(&mut ServerCore) -> T + Send + Sync + 'static,
    ) -> Result<Receiver<T>, GrmError> {
        let (tx, rx) = bounded(1);
        self.send(Arc::new(move |core| drop(tx.try_send(op(core)))))?;
        Ok(rx)
    }

    /// Execute `call` as a run of one: its answer, as `read` reads it,
    /// arrives on the returned receiver.
    fn issue<T: Send + 'static>(
        &self,
        call: Call,
        read: fn(Answer) -> Result<T, GrmError>,
    ) -> Result<Receiver<Result<T, GrmError>>, GrmError> {
        self.manage(move |core| read(core.execute_one(&call)))
    }

    /// Execute `call` as a run of one, discarding its answer.
    fn post(&self, call: Call) -> Result<(), GrmError> {
        self.send(Arc::new(move |core| drop(core.execute_one(&call))))
    }

    /// Dynamic availability report (LRM -> GRM).
    pub fn report(&self, lrm: usize, available: f64) -> Result<(), GrmError> {
        self.post(Call::Report { lrm, available })
    }

    /// Advance the GRM's logical clock for lease-based liveness: any LRM
    /// whose last report is older than `lease` ticks has its availability
    /// zeroed until it reports again (a crashed or partitioned LRM must
    /// not be scheduled against). The clock is supplied by the caller so
    /// tests and simulations stay deterministic.
    pub fn tick(&self, now: u64, lease: u64) -> Result<(), GrmError> {
        self.post(Call::Tick { now, lease })
    }

    /// A new LRM joins the federation; returns its index. It starts with
    /// no agreements and zero reported availability in every lane — wire
    /// it in with [`GrmHandle::set_agreement`] and [`GrmHandle::report`].
    /// Its liveness lease starts *now*: joining late does not make it
    /// instantly lease-expired. Flat GRMs only: a hierarchical GRM fixes
    /// its partition at construction and answers
    /// [`GrmError::Unsupported`].
    pub fn join(&self) -> Result<usize, GrmError> {
        wait(self.manage(ServerCore::join)?)?
    }

    /// An LRM leaves: all its agreements are dropped (both directions)
    /// and its availability zeroed in every lane. Its index stays
    /// reserved so other indices remain stable.
    pub fn leave(&self, lrm: usize) -> Result<(), GrmError> {
        wait(self.manage(move |core| core.engine.leave(lrm))?)?
    }

    /// Allocation RPC: LRM `lrm` requests `amount` units under the
    /// agreements. Blocks for the decision. Carries no request id — use
    /// [`GrmHandle::request_idempotent`] (or a `ResilientGrmClient`)
    /// when the call may be retried. A GRM with more than one resource
    /// lane answers [`GrmError::Unsupported`]: use
    /// [`GrmHandle::request_multi`].
    pub fn request(&self, lrm: usize, amount: f64) -> Result<Allocation, GrmError> {
        wait(GrmClient::issue_request(self, lrm, amount, None)?)?
    }

    /// Allocation RPC with an idempotency id: a duplicated or retried
    /// send inside the server's dedup window returns the original
    /// decision instead of granting twice.
    pub fn request_idempotent(
        &self,
        lrm: usize,
        amount: f64,
        req_id: RequestId,
    ) -> Result<Allocation, GrmError> {
        wait(GrmClient::issue_request(self, lrm, amount, Some(req_id))?)?
    }

    /// Multi-resource availability report: LRM `lrm`'s free capacity in
    /// every resource lane (the server's lane order; see
    /// [`GrmHandle::availability_multi`]). A report whose length is not
    /// the server's lane count is dropped, as any malformed report is.
    pub fn report_multi(&self, lrm: usize, available: Vec<f64>) -> Result<(), GrmError> {
        self.post(Call::ReportMulti { lrm, available })
    }

    /// Multi-resource allocation RPC: LRM `lrm` requests `amounts`
    /// units, one entry per resource lane, granted only when **every**
    /// lane's LP admits; a capacity rejection names the binding
    /// resource (a single-resource GRM's one lane has no name). Any lane
    /// count answers, one included.
    pub fn request_multi(&self, lrm: usize, amounts: &[f64]) -> Result<MultiAllocation, GrmError> {
        let amounts = amounts.to_vec();
        wait(self.issue(Call::RequestMulti { lrm, amounts, req_id: None }, Answer::grant_multi)?)?
    }

    /// [`GrmHandle::request_multi`] with an idempotency id: a duplicated
    /// or retried send inside the dedup window replays the original
    /// multi-resource decision instead of granting twice.
    pub fn request_multi_idempotent(
        &self,
        lrm: usize,
        amounts: &[f64],
        req_id: RequestId,
    ) -> Result<MultiAllocation, GrmError> {
        let (amounts, req_id) = (amounts.to_vec(), Some(req_id));
        wait(self.issue(Call::RequestMulti { lrm, amounts, req_id }, Answer::grant_multi)?)?
    }

    /// Snapshot of the GRM's per-lane availability view (outer index =
    /// resource lane, inner = principal), whatever its lane count.
    pub fn availability_multi(&self) -> Result<Vec<Vec<f64>>, GrmError> {
        wait(self.issue(Call::AvailabilityMulti, Answer::availability_multi)?)?
    }

    /// [`GrmHandle::request`], answered on a channel: on a direct link
    /// the decision is made, as a run of one, before this returns; through
    /// a fault plane it arrives when the plane delivers the call. A batch
    /// is a run of many calls, executed together through
    /// [`GrmCore::execute`].
    pub fn request_async(
        &self,
        lrm: usize,
        amount: f64,
    ) -> Result<Receiver<Result<Allocation, GrmError>>, GrmError> {
        GrmClient::issue_request(self, lrm, amount, None)
    }

    /// Return a previous allocation's draws to the pool. A GRM with more
    /// than one resource lane answers [`GrmError::Unsupported`].
    pub fn release(&self, alloc: Allocation) -> Result<(), GrmError> {
        wait(GrmClient::issue_release(self, alloc, None)?)?
    }

    /// Idempotent release: safe to retry or duplicate within the dedup
    /// window — the draws are returned to the pool at most once.
    pub fn release_idempotent(&self, alloc: Allocation, req_id: RequestId) -> Result<(), GrmError> {
        wait(GrmClient::issue_release(self, alloc, Some(req_id))?)?
    }

    /// Replay a degraded-mode grant during reconciliation: the units were
    /// already drawn from the reporting LRM's own pool while the GRM was
    /// unreachable, so this only settles the books (journaled-grant
    /// counters), idempotently under `req_id`. If the id turns out to
    /// have been granted by the live path (the original RPC's reply was
    /// lost *after* the server granted it), the replay is a no-op.
    pub fn replay_grant(&self, req_id: RequestId, lrm: usize, amount: f64) -> Result<(), GrmError> {
        wait(GrmClient::issue_replay(self, req_id, lrm, amount)?)?
    }

    /// Report a fulfilment that came up short of the granted draw
    /// (fire-and-forget; see `Lrm::fulfil`).
    pub fn report_fulfil_shortfall(
        &self,
        lrm: usize,
        want: f64,
        taken: f64,
    ) -> Result<(), GrmError> {
        self.send(Arc::new(move |core| core.fulfil_shortfall(lrm, want, taken)))
    }

    /// Agreement-management service: set `S[from][to] = share` and
    /// recompute the transitive flow, for every lane. Hierarchical GRMs
    /// answer [`GrmError::Unsupported`].
    pub fn set_agreement(&self, from: usize, to: usize, share: f64) -> Result<(), GrmError> {
        wait(self.manage(move |core| {
            let rows = core.engine.set_agreement(from, to, share);
            core.renegotiated(from, to, share, rows)
        })?)?
    }

    /// Renegotiate one inter-group agreement on a hierarchical GRM, in
    /// every lane (the coarse analogue of [`GrmHandle::set_agreement`]);
    /// requests decided after the reply see the new share. Flat GRMs
    /// answer [`GrmError::Unsupported`].
    pub fn set_inter_group(
        &self,
        from_group: usize,
        to_group: usize,
        share: f64,
    ) -> Result<(), GrmError> {
        wait(self.manage(move |core| {
            let rows = core.engine.set_inter(from_group, to_group, share);
            core.renegotiated(from_group, to_group, share, rows)
        })?)?
    }

    /// Seed recovered state in one step on the core (recovery plumbing: a
    /// respawned server takes its durable journal's state through this
    /// before serving traffic). `pools[i]` is applied as LRM `i`'s report,
    /// so a multi-lane GRM drops them as it drops any single-lane report;
    /// then `window`'s decisions enter the dedup window, oldest first and
    /// moved, not cloned, so a duplicate RPC straddling the restart
    /// replays the original decision instead of executing twice. They
    /// count toward the window's [`crate::DEDUP_WINDOW`] capacity in that
    /// order. Returns once the seed is applied.
    pub fn seed(
        &self,
        pools: Vec<f64>,
        window: Vec<(RequestId, RecordedDecision)>,
    ) -> Result<(), GrmError> {
        // An op the fault plane duplicates finds the seed taken and
        // installs nothing a second time.
        let seed = Mutex::new(Some((pools, window)));
        wait(self.manage(move |core| {
            if let Some((pools, window)) = seed.lock().take() {
                core.seed(&pools, window);
            }
        })?)
    }

    /// Operational counters since the server started.
    pub fn stats(&self) -> Result<GrmStats, GrmError> {
        wait(self.issue(Call::Stats, Answer::stats)?)?
    }

    /// Snapshot of the GRM's current availability view. A GRM with more
    /// than one resource lane answers [`GrmError::Unsupported`]: use
    /// [`GrmHandle::availability_multi`].
    pub fn availability(&self) -> Result<Vec<f64>, GrmError> {
        wait(self.issue(Call::Availability, Answer::availability)?)?
    }
}

/// The client-side transport surface the retry/failover layer needs: the
/// three idempotent RPCs issued *without blocking* (each reply arrives on
/// the returned channel, so the caller applies its own deadline), plus
/// the two fire-and-forget refreshes. [`GrmHandle`] implements it in
/// process; a networked client implements it over sockets —
/// and everything layered on top (`ResilientGrmClient`'s deadlines,
/// backoff, rebind; the LRM's degraded-mode journal) works unchanged,
/// because nothing above this trait knows what carries the bytes.
pub trait GrmClient {
    /// Issue an allocation request; the decision arrives on the channel.
    fn issue_request(
        &self,
        lrm: usize,
        amount: f64,
        req_id: Option<RequestId>,
    ) -> Result<Receiver<Result<Allocation, GrmError>>, GrmError>;

    /// Issue a release of a previous allocation; ack on the channel.
    fn issue_release(
        &self,
        alloc: Allocation,
        req_id: Option<RequestId>,
    ) -> Result<Receiver<Result<(), GrmError>>, GrmError>;

    /// Issue a degraded-mode replay settlement; ack on the channel.
    fn issue_replay(
        &self,
        req_id: RequestId,
        lrm: usize,
        amount: f64,
    ) -> Result<Receiver<Result<(), GrmError>>, GrmError>;

    /// Fire-and-forget availability report (LRM → GRM soft state).
    fn report(&self, lrm: usize, available: f64) -> Result<(), GrmError>;

    /// Fire-and-forget lease-clock tick.
    fn tick(&self, now: u64, lease: u64) -> Result<(), GrmError>;
}

impl GrmClient for GrmHandle {
    fn issue_request(
        &self,
        lrm: usize,
        amount: f64,
        req_id: Option<RequestId>,
    ) -> Result<Receiver<Result<Allocation, GrmError>>, GrmError> {
        self.issue(Call::Request { lrm, amount, req_id }, Answer::grant)
    }

    fn issue_release(
        &self,
        alloc: Allocation,
        req_id: Option<RequestId>,
    ) -> Result<Receiver<Result<(), GrmError>>, GrmError> {
        self.issue(Call::Release { alloc, req_id }, Answer::unit)
    }

    fn issue_replay(
        &self,
        req_id: RequestId,
        lrm: usize,
        amount: f64,
    ) -> Result<Receiver<Result<(), GrmError>>, GrmError> {
        self.issue(Call::ReplayGrant { req_id, lrm, amount }, Answer::unit)
    }

    fn report(&self, lrm: usize, available: f64) -> Result<(), GrmError> {
        GrmHandle::report(self, lrm, available)
    }

    fn tick(&self, now: u64, lease: u64) -> Result<(), GrmError> {
        GrmHandle::tick(self, now, lease)
    }
}

/// A GRM: its core, and the handle its clients clone. Dropping it (or
/// [`GrmServer::shutdown`], or [`GrmServer::crash`]) drops the core, and
/// every handle answers [`GrmError::Disconnected`] from then on.
pub struct GrmServer {
    core: GrmCore,
    handle: GrmHandle,
}

impl GrmServer {
    /// Spawn a GRM managing `n` LRMs under the given agreements and
    /// transitivity level, scheduling with the LP policy.
    pub fn spawn(agreements: AgreementMatrix, level: usize) -> GrmServer {
        Self::spawn_with_telemetry(agreements, level, Telemetry::default())
    }

    /// Spawn a GRM with an attached telemetry plane: the core's
    /// admission/grant path, the solver, and the incremental flow
    /// maintainer all record through `telemetry`. Passing
    /// `Telemetry::default()` (disabled) is exactly [`GrmServer::spawn`].
    pub fn spawn_with_telemetry(
        agreements: AgreementMatrix,
        level: usize,
        telemetry: Telemetry,
    ) -> GrmServer {
        Self::spawn_engine(move |t| engine::flat(Vec::new(), agreements, level, t), telemetry)
    }

    /// Spawn a GRM whose handles pass through a fault plane link named
    /// `link`: every call or operation a [`GrmHandle`] sends is subject to
    /// the plane's seeded drop/duplicate/hold/delay schedule, and the
    /// plane's pump executes what it lets through on the core. Shutdown
    /// needs no message, so it is reliable even on a fully partitioned
    /// link. With an inert or healed plane the server behaves
    /// bit-identically to [`GrmServer::spawn`].
    pub fn spawn_chaotic(
        agreements: AgreementMatrix,
        level: usize,
        plane: &agreements_faults::FaultPlane,
        link: &str,
    ) -> GrmServer {
        let build = move |t| engine::flat(Vec::new(), agreements, level, t);
        let mut server = Self::spawn_engine(build, Telemetry::default());
        let core = server.handle.core.clone();
        server.handle.chaos = Some(plane.wrap(link, move |op: Op| deliver(&core, &op).is_ok()));
        server
    }

    /// Spawn a GRM whose decisions run through a [`HierarchicalScheduler`]
    /// wrapped in the one-lane admission front door: every request is one
    /// [`HierarchicalScheduler::allocate`], decided on the caller's
    /// thread.
    ///
    /// The engine swap changes the management surface, not the RPC one:
    /// every RPC behaves as on a flat GRM, renegotiation goes through
    /// [`GrmHandle::set_inter_group`], and `set_agreement`/`join`/`leave`
    /// answer [`GrmError::Unsupported`] (the partition is fixed at
    /// construction).
    pub fn spawn_hierarchical(sched: HierarchicalScheduler) -> GrmServer {
        Self::spawn_hierarchical_with_telemetry(sched, Telemetry::default())
    }

    /// [`GrmServer::spawn_hierarchical`] with a telemetry plane: request
    /// latencies, coarse and fine solve spans and path counters all record
    /// through `telemetry`.
    pub fn spawn_hierarchical_with_telemetry(
        sched: HierarchicalScheduler,
        telemetry: Telemetry,
    ) -> GrmServer {
        let front = MultiAdmission::new(Vec::new(), vec![sched]).expect("one unnamed lane");
        Self::spawn_engine(move |t| engine::hierarchical(front, t), telemetry)
    }

    /// Spawn a **multi-resource** GRM: the flat engine with one warm LP
    /// lane per resource name, all over the same agreement economy (the
    /// agreements govern the principals, not any single resource).
    /// Clients use [`GrmHandle::request_multi`] /
    /// [`GrmHandle::report_multi`] / [`GrmHandle::availability_multi`]; a
    /// request is granted only when every lane's LP admits it, and a
    /// capacity rejection names the binding resource. Agreement and
    /// membership changes apply to every lane. With more than one lane
    /// the single-pool RPCs (`request`/`release`/`replay_grant`/
    /// `availability`) answer [`GrmError::Unsupported`]; with one named
    /// lane this is [`GrmServer::spawn`] with a name on its rejections.
    pub fn spawn_multi(
        names: Vec<&'static str>,
        agreements: AgreementMatrix,
        level: usize,
    ) -> GrmServer {
        Self::spawn_engine(move |t| engine::flat(names, agreements, level, t), Telemetry::default())
    }

    /// Spawn a multi-resource GRM whose lanes are hierarchical: one
    /// [`HierarchicalScheduler`] per resource over a shared partition,
    /// wrapped in [`MultiAdmission`]. The RPC surface of
    /// [`GrmServer::spawn_multi`] and the management surface of
    /// [`GrmServer::spawn_hierarchical`]: inter-group renegotiation via
    /// [`GrmHandle::set_inter_group`] applies to every lane.
    pub fn spawn_multi_hierarchical(front: MultiAdmission) -> GrmServer {
        Self::spawn_engine(move |t| engine::hierarchical(front, t), Telemetry::default())
    }

    /// The one spawn path: the core over the engine `build` makes, and a
    /// direct handle.
    fn spawn_engine(
        build: impl FnOnce(Telemetry) -> Box<dyn Engine>,
        telemetry: Telemetry,
    ) -> GrmServer {
        let core = Arc::new(Mutex::new(ServerCore::new(build(telemetry.clone()), telemetry)));
        let handle = GrmHandle { core: Arc::downgrade(&core), chaos: None };
        GrmServer { core: GrmCore(core), handle }
    }

    /// Client handle.
    pub fn handle(&self) -> GrmHandle {
        self.handle.clone()
    }

    /// The core, for a caller that executes runs on it directly
    /// ([`GrmCore::execute`]). Every call a direct handle made before
    /// this has executed already: there is no queue to drain. A
    /// [`GrmCore`] keeps the core alive after the server is dropped.
    pub fn core(&self) -> GrmCore {
        self.core.clone()
    }

    /// Shut the server down (what dropping it does).
    pub fn shutdown(self) {}

    /// Abruptly stop the server, losing all volatile state (availability
    /// view, stats, dedup window). In-process this is the same mechanism
    /// as [`GrmServer::shutdown`]; the distinct name marks chaos-harness
    /// crash points, after which clients see [`GrmError::Disconnected`]
    /// (or deadline timeouts through a fault plane) until a cold standby
    /// is spawned (from the durable journal in `agreements-net`, or from
    /// the agreement matrix when no agreement op was ever applied).
    pub fn crash(self) {
        self.shutdown();
    }
}

/// The answer to a call whose id the dedup window holds under another
/// call kind: an id reused across kinds is a client bug; fail the call
/// rather than act on it.
fn reused_id<T>(amount: f64) -> Result<T, GrmError> {
    Err(GrmError::Sched(SchedError::InvalidRequest { amount }))
}

/// Refuse a single-pool operation on an engine with more than one lane.
fn one_lane(engine: &dyn Engine, refusal: &'static str) -> Result<(), GrmError> {
    if engine.lanes() == 1 {
        Ok(())
    } else {
        Err(GrmError::Unsupported(refusal))
    }
}

/// The two request kinds, by the grant shape they decide: a `Request`'s
/// [`Allocation`] (one lane) and a `RequestMulti`'s [`MultiAllocation`]
/// (any lane count). Everything else about a request — dedup, books —
/// is one path for both.
trait Grant: LaneGrant + Clone {
    /// Decide one request: `lrm` asks for `amounts`, one per lane.
    fn admit(engine: &mut dyn Engine, lrm: usize, amounts: &[f64]) -> Result<Self, GrmError>;

    /// The decision as the dedup window records it.
    fn recorded(result: Result<Self, GrmError>) -> RecordedDecision;

    /// A settled decision read back as a request for `amounts`; another
    /// kind's decision fails the reused id.
    fn settled(decision: RecordedDecision, amounts: &[f64]) -> Result<Self, GrmError>;

    /// The answer carrying the decision.
    fn answer(result: Result<Self, GrmError>, fresh: bool) -> Answer;
}

impl Grant for Allocation {
    fn admit(engine: &mut dyn Engine, lrm: usize, amounts: &[f64]) -> Result<Self, GrmError> {
        one_lane(engine, "single-resource request on a multi-resource GRM; use request_multi")?;
        engine.admit(lrm, amounts[0])
    }

    fn recorded(result: Result<Self, GrmError>) -> RecordedDecision {
        RecordedDecision::Grant(result)
    }

    fn settled(decision: RecordedDecision, amounts: &[f64]) -> Result<Self, GrmError> {
        let RecordedDecision::Grant(result) = decision else { return reused_id(amounts[0]) };
        result
    }

    fn answer(result: Result<Self, GrmError>, fresh: bool) -> Answer {
        Answer::Grant { result, fresh }
    }
}

impl Grant for MultiAllocation {
    fn admit(engine: &mut dyn Engine, lrm: usize, amounts: &[f64]) -> Result<Self, GrmError> {
        engine.admit_multi(lrm, amounts)
    }

    fn recorded(result: Result<Self, GrmError>) -> RecordedDecision {
        RecordedDecision::GrantMulti(result)
    }

    fn settled(decision: RecordedDecision, amounts: &[f64]) -> Result<Self, GrmError> {
        let RecordedDecision::GrantMulti(result) = decision else {
            return reused_id(amounts.first().copied().unwrap_or(f64::NAN));
        };
        result
    }

    fn answer(result: Result<Self, GrmError>, fresh: bool) -> Answer {
        Answer::GrantMulti { result, fresh }
    }
}

/// Direct access to a server's core: its one state — engine, pools,
/// lease clock, books, dedup window — under the lock every handle call
/// takes too. Obtained from [`GrmServer::core`].
#[derive(Clone)]
pub struct GrmCore(Arc<Mutex<ServerCore>>);

impl GrmCore {
    /// Execute `run` under the core lock, as a handle executes its call,
    /// then hand `then` the answers (in run order) and the core's hot
    /// state before the lock is released: the single-pool view (empty
    /// with more than one lane) and the dedup window.
    pub fn execute<R>(
        &self,
        run: &[Call],
        then: impl FnOnce(Vec<Answer>, &[f64], &DedupWindow) -> R,
    ) -> R {
        let mut core = self.0.lock();
        let answers = core.execute(run);
        let pool = if core.engine.lanes() == 1 { core.engine.lane(0) } else { &[] };
        then(answers, pool, &core.dedup)
    }
}

/// The GRM's state machine, one caller at a time under the core lock.
/// Handles, fault-plane pumps and [`GrmCore`] holders execute calls
/// through one function, [`ServerCore::execute`]; the agreement,
/// membership, recovery and fulfilment operations only a [`GrmHandle`]
/// reaches run between runs, as closures on the locked core.
///
/// This is the engine-agnostic shell: the lease clock, the books, the
/// dedup window and telemetry are the same whichever [`Engine`]
/// decides, and the shell never asks which one it has (DESIGN.md §18).
struct ServerCore {
    /// The one decision engine: availability storage, solver or front
    /// door, and whatever else a decision consults.
    engine: Box<dyn Engine>,
    /// Logical-clock liveness: last report time per LRM.
    last_report: Vec<u64>,
    clock: u64,
    stats: GrmStats,
    dedup: DedupWindow,
    /// Report-run coalescing: `run_stamp[lrm] == run_gen` marks an LRM
    /// already written during the current contiguous run of `Report`s.
    run_stamp: Vec<u64>,
    run_gen: u64,
    /// Compensated unit accumulators; the raw `f64` fields in `stats`
    /// are published from these at `Call::Stats` time.
    granted_units: KahanSum,
    fulfil_shortfall_units: KahanSum,
    journaled_units: KahanSum,
    /// Telemetry handle; `Telemetry::default()` (disabled) costs one
    /// branch per call site and keeps the server bit-identical.
    telemetry: Telemetry,
}

impl ServerCore {
    fn new(engine: Box<dyn Engine>, telemetry: Telemetry) -> ServerCore {
        let n = engine.n();
        ServerCore {
            engine,
            last_report: vec![0; n],
            clock: 0,
            stats: GrmStats::default(),
            dedup: DedupWindow::default(),
            run_stamp: vec![0; n],
            run_gen: 0,
            granted_units: KahanSum::default(),
            fulfil_shortfall_units: KahanSum::default(),
            journaled_units: KahanSum::default(),
            telemetry,
        }
    }

    /// Apply one availability report, one value per lane: all lanes of
    /// one LRM move together (a torn report — some lanes fresh, some
    /// stale — would let a request be judged against a view no report
    /// ever described). Malformed reports are dropped; returns whether
    /// this one was applied. `run_gen` must be bumped at the start of a
    /// run of reports (a lone report is a run of one).
    fn apply_report(&mut self, lrm: usize, available: &[f64]) -> bool {
        let valid = lrm < self.engine.n()
            && available.len() == self.engine.lanes()
            && available.iter().all(|v| v.is_finite() && *v >= 0.0);
        if valid {
            if self.run_stamp[lrm] == self.run_gen {
                // A previous report in this same run is superseded; its
                // write was wasted, not wrong — sequential overwrite IS
                // last-writer-wins.
                self.stats.coalesced_reports += 1;
            } else {
                self.run_stamp[lrm] = self.run_gen;
            }
            for (lane, &v) in available.iter().enumerate() {
                self.engine.lane_mut(lane)[lrm] = v;
            }
            self.last_report[lrm] = self.clock;
            self.stats.reports += 1;
        }
        valid
    }

    fn apply_tick(&mut self, now: u64, lease: u64) {
        self.clock = self.clock.max(now);
        for i in 0..self.engine.n() {
            if self.clock.saturating_sub(self.last_report[i]) > lease {
                // A lease-expired LRM vanishes from every resource lane
                // at once — scheduling any lane against a dead LRM is as
                // wrong as scheduling the only one.
                for lane in 0..self.engine.lanes() {
                    self.engine.lane_mut(lane)[i] = 0.0;
                }
            }
        }
    }

    /// The externally visible counters: the raw struct plus the
    /// compensated unit totals and the engine-sourced counts.
    fn published_stats(&self) -> GrmStats {
        let mut stats = self.stats;
        stats.granted_units = self.granted_units.total();
        stats.fulfil_shortfall_units = self.fulfil_shortfall_units.total();
        stats.journaled_units = self.journaled_units.total();
        self.engine.publish(&mut stats);
        stats
    }

    /// Answer an idempotent call: with the remembered decision when its
    /// id is in the dedup window (counted as a duplicate; not fresh),
    /// otherwise with `decide`'s, remembered under the id. The caller
    /// reads the decision as its own call kind; finding another kind
    /// means the id was reused across kinds ([`reused_id`]).
    fn settle(
        &mut self,
        id: Option<RequestId>,
        decide: impl FnOnce(&mut Self) -> RecordedDecision,
    ) -> (RecordedDecision, bool) {
        if let Some(cached) = id.and_then(|id| self.dedup.get(&id)) {
            self.stats.duplicate_requests += 1;
            return (cached.clone(), false);
        }
        let decision = decide(self);
        if let Some(id) = id {
            self.dedup.insert(id, decision.clone());
        }
        (decision, true)
    }

    /// Count a fresh (non-duplicate) request.
    fn count_request(&mut self) {
        self.stats.requests += 1;
        self.telemetry.add("grm.requests", 1);
    }

    /// Book one engine decision on a request: the grant and rejection
    /// counters, the unit total and a single-resource grant's trace.
    fn book(&mut self, decision: &RecordedDecision) {
        let units = match decision {
            RecordedDecision::Grant(Ok(alloc)) => {
                self.telemetry.record_with(|| TelemetryEvent::Granted {
                    requester: alloc.requester,
                    amount: alloc.amount,
                    theta: alloc.theta,
                    draws: alloc.draws.clone(),
                });
                alloc.amount
            }
            RecordedDecision::GrantMulti(Ok(alloc)) => alloc.total(),
            RecordedDecision::Grant(Err(e)) | RecordedDecision::GrantMulti(Err(e)) => {
                if matches!(e, GrmError::Sched(SchedError::InsufficientCapacity { .. })) {
                    self.stats.rejected_capacity += 1;
                }
                return;
            }
            RecordedDecision::Release(_) | RecordedDecision::Replay(_) => return,
        };
        self.stats.granted += 1;
        self.granted_units.add(units);
        self.telemetry.add("grm.granted", 1);
    }

    /// The request path, one for both request kinds and both engines.
    fn request<G: Grant>(
        &mut self,
        lrm: usize,
        amounts: &[f64],
        req_id: Option<RequestId>,
    ) -> Answer {
        let (decision, fresh) = self.settle(req_id, |core| {
            core.count_request();
            let span = core.telemetry.start();
            let decision = G::recorded(G::admit(core.engine.as_mut(), lrm, amounts));
            core.book(&decision);
            core.telemetry.stop(HistKind::RequestLatencySeconds, span);
            decision
        });
        G::answer(G::settled(decision, amounts), fresh)
    }

    /// Return a released allocation's draws to the engine's pool. Draws
    /// that are not all finite and non-negative are refused: no grant
    /// draws them, and adding them would poison the pools.
    fn release(&mut self, alloc: &Allocation) -> Result<(), GrmError> {
        // A single-lane release cannot say which lane to credit.
        one_lane(self.engine.as_ref(), "release on a multi-resource GRM")?;
        let (pool, draws) = (self.engine.lane_mut(0), &alloc.draws);
        if draws.len() != pool.len() {
            return Err(GrmError::Sched(SchedError::DimensionMismatch {
                expected: pool.len(),
                got: draws.len(),
            }));
        }
        if !draws.iter().all(|d| d.is_finite() && *d >= 0.0) {
            return Err(GrmError::Sched(SchedError::InvalidRequest { amount: alloc.amount }));
        }
        for (v, d) in pool.iter_mut().zip(draws) {
            *v += d;
        }
        Ok(())
    }

    /// Settle one degraded-mode grant: the units were drawn from the
    /// LRM's own pool while the GRM was unreachable and its re-report
    /// already reflects them; only the books move here.
    fn replay_grant(&mut self, lrm: usize, amount: f64) -> Result<(), GrmError> {
        // Degraded-mode draws are single-pool units; a multi LRM has no
        // single pool to have drawn them from.
        one_lane(self.engine.as_ref(), "replay_grant on a multi-resource GRM")?;
        self.engine.check(lrm)?;
        if !(amount.is_finite() && amount > 0.0) {
            return Err(GrmError::Sched(SchedError::InvalidRequest { amount }));
        }
        self.stats.journaled_grants += 1;
        self.journaled_units.add(amount);
        self.telemetry.add("grm.journaled_replays", 1);
        self.telemetry.record_with(|| TelemetryEvent::ReconcileReplay { requester: lrm, amount });
        Ok(())
    }

    /// Book an agreement mutation the engine accepted (`rows` = the
    /// flow rows it recomputed).
    fn renegotiated(
        &mut self,
        from: usize,
        to: usize,
        share: f64,
        rows: Result<usize, GrmError>,
    ) -> Result<(), GrmError> {
        let dirty_rows = rows? as u64;
        self.stats.agreement_updates += 1;
        self.telemetry.add("grm.agreement_updates", 1);
        self.telemetry.record_with(|| TelemetryEvent::AgreementSet { from, to, share, dirty_rows });
        Ok(())
    }

    fn join(&mut self) -> Result<usize, GrmError> {
        let index = self.engine.join()?;
        // The newcomer's lease starts at the current clock: a join after
        // the clock has advanced must not be born lease-expired.
        self.last_report.push(self.clock);
        self.run_stamp.push(0);
        Ok(index)
    }

    /// [`GrmHandle::seed`]'s effect: the pools as one run of reports, then
    /// the window. Recovery plumbing, not served requests: beyond the
    /// reports' own counters, no stats move.
    fn seed(&mut self, pools: &[f64], window: Vec<(RequestId, RecordedDecision)>) {
        self.run_gen += 1;
        for (lrm, available) in pools.iter().enumerate() {
            self.apply_report(lrm, std::slice::from_ref(available));
        }
        for (id, decision) in window {
            self.dedup.insert(id, decision);
        }
    }

    /// Book a short fulfilment; a malformed note is dropped.
    fn fulfil_shortfall(&mut self, lrm: usize, want: f64, taken: f64) {
        if lrm < self.engine.n() && want.is_finite() && taken.is_finite() && want > taken {
            self.stats.partial_fulfils += 1;
            self.fulfil_shortfall_units.add(want - taken);
        }
    }

    /// Execute one call on its own.
    fn call(&mut self, call: &Call) -> Answer {
        match *call {
            Call::Report { lrm, available } => {
                Answer::Applied(self.apply_report(lrm, &[available]))
            }
            Call::ReportMulti { lrm, ref available } => {
                Answer::Applied(self.apply_report(lrm, available))
            }
            Call::Tick { now, lease } => {
                self.apply_tick(now, lease);
                Answer::Applied(true)
            }
            Call::Request { lrm, ref amount, req_id } => {
                self.request::<Allocation>(lrm, std::slice::from_ref(amount), req_id)
            }
            Call::RequestMulti { lrm, ref amounts, req_id } => {
                self.request::<MultiAllocation>(lrm, amounts, req_id)
            }
            Call::Release { ref alloc, req_id } => {
                let (decision, fresh) =
                    self.settle(req_id, |core| RecordedDecision::Release(core.release(alloc)));
                let result = match decision {
                    RecordedDecision::Release(res) => res,
                    _ => reused_id(alloc.amount),
                };
                Answer::Unit { result, fresh }
            }
            Call::ReplayGrant { req_id, lrm, amount } => {
                let (decision, fresh) = self.settle(Some(req_id), |core| {
                    RecordedDecision::Replay(core.replay_grant(lrm, amount))
                });
                let result = match decision {
                    RecordedDecision::Replay(res) => res,
                    // The live path already granted this id before the
                    // client fell back to degraded mode (its reply was
                    // lost): the intent is settled; the replay must not
                    // count it a second time.
                    RecordedDecision::Grant(Ok(_)) | RecordedDecision::GrantMulti(Ok(_)) => Ok(()),
                    _ => reused_id(amount),
                };
                Answer::Unit { result, fresh }
            }
            Call::Availability => Answer::Availability(
                one_lane(self.engine.as_ref(), "availability on a multi-resource GRM")
                    .map(|()| self.engine.lane(0).to_vec()),
            ),
            Call::AvailabilityMulti => Answer::AvailabilityMulti(
                (0..self.engine.lanes()).map(|lane| self.engine.lane(lane).to_vec()).collect(),
            ),
            Call::Stats => Answer::Stats(self.published_stats()),
        }
    }

    /// The one execution function: execute `run` in order, one answer
    /// per call. It coalesces *contiguous* reports of either kind (last
    /// valid writer per LRM wins, as in-order overwrite does; superseded
    /// writes are counted) and equal-lease `Tick`s (one sweep at the
    /// latest clock: with `last_report` frozen and the clock monotone, an
    /// intermediate tick zeroes a subset of what the last one does). Every
    /// other call, requests included, executes on its own. No coalesced
    /// run extends across another kind of call, so every decision is
    /// bit-identical to executing the calls one at a time.
    fn execute(&mut self, run: &[Call]) -> Vec<Answer> {
        let mut answers = Vec::with_capacity(run.len());
        let mut done = 0;
        while let Some(call) = run.get(done) {
            let rest = &run[done..];
            done += match *call {
                Call::Tick { now, lease } => {
                    // A different lease changes which LRMs the sweep
                    // zeroes; it starts a run of its own.
                    let ticks = rest.iter().map_while(|c| match *c {
                        Call::Tick { now, lease: l } if l == lease => Some(now),
                        _ => None,
                    });
                    let (latest, count) = ticks.fold((now, 0), |(t, k), n| (t.max(n), k + 1));
                    let answer = self.call(&Call::Tick { now: latest, lease });
                    answers.resize(answers.len() + count, answer);
                    count
                }
                _ => {
                    let report =
                        |c: &Call| matches!(c, Call::Report { .. } | Call::ReportMulti { .. });
                    if report(call) && (done == 0 || !report(&run[done - 1])) {
                        self.run_gen += 1;
                    }
                    answers.push(self.call(call));
                    1
                }
            };
        }
        answers
    }

    /// [`ServerCore::execute`] on a run of one.
    fn execute_one(&mut self, call: &Call) -> Answer {
        self.execute(std::slice::from_ref(call)).pop().expect("one answer per call")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DEDUP_WINDOW;

    fn flat_core(agreements: AgreementMatrix, level: usize) -> ServerCore {
        let engine = engine::flat(Vec::new(), agreements, level, Telemetry::default());
        ServerCore::new(engine, Telemetry::default())
    }

    /// A hierarchical core over `front`, recording into `telemetry`.
    fn hier_core(front: MultiAdmission, telemetry: Telemetry) -> ServerCore {
        ServerCore::new(engine::hierarchical(front, telemetry.clone()), telemetry)
    }

    /// The core's single-pool availability view.
    fn pool(core: &mut ServerCore) -> Vec<f64> {
        core.engine.lane(0).to_vec()
    }

    /// Execute `run` one call at a time, each call a run of its own.
    fn one_by_one(core: &mut ServerCore, run: &[Call]) -> Vec<Answer> {
        run.iter().map(|call| core.execute_one(call)).collect()
    }

    /// Answers compared bit for bit (`Debug` prints every `f64` exactly).
    fn assert_bit_identical(a: &[Answer], b: &[Answer]) {
        assert_eq!(a.len(), b.len());
        for (a, b) in a.iter().zip(b) {
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "bit for bit");
        }
    }

    fn complete(n: usize, share: f64) -> AgreementMatrix {
        let mut s = AgreementMatrix::zeros(n);
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    s.set(i, j, share).unwrap();
                }
            }
        }
        s
    }

    #[test]
    fn report_then_request_round_trip() {
        let grm = GrmServer::spawn(complete(3, 0.5), 2);
        let h = grm.handle();
        h.report(0, 0.0).unwrap();
        h.report(1, 10.0).unwrap();
        h.report(2, 10.0).unwrap();
        let alloc = h.request(0, 6.0).unwrap();
        assert!((alloc.amount - 6.0).abs() < 1e-9);
        assert!((alloc.draws[1] + alloc.draws[2] - 6.0).abs() < 1e-9);
        // The GRM's view reflects the commit.
        let avail = h.availability().unwrap();
        assert!((avail.iter().sum::<f64>() - 14.0).abs() < 1e-9);
        grm.shutdown();
    }

    #[test]
    fn release_restores_view() {
        let grm = GrmServer::spawn(complete(2, 0.5), 1);
        let h = grm.handle();
        h.report(0, 5.0).unwrap();
        h.report(1, 5.0).unwrap();
        let alloc = h.request(0, 4.0).unwrap();
        h.release(alloc).unwrap();
        let avail = h.availability().unwrap();
        assert!((avail.iter().sum::<f64>() - 10.0).abs() < 1e-9);
        grm.shutdown();
    }

    #[test]
    fn insufficient_capacity_propagates() {
        let grm = GrmServer::spawn(complete(2, 0.1), 1);
        let h = grm.handle();
        h.report(0, 1.0).unwrap();
        h.report(1, 1.0).unwrap();
        match h.request(0, 5.0) {
            Err(GrmError::Sched(SchedError::InsufficientCapacity { .. })) => {}
            other => panic!("expected capacity error, got {other:?}"),
        }
        grm.shutdown();
    }

    #[test]
    fn agreement_updates_take_effect() {
        let grm = GrmServer::spawn(AgreementMatrix::zeros(2), 1);
        let h = grm.handle();
        h.report(0, 0.0).unwrap();
        h.report(1, 10.0).unwrap();
        assert!(h.request(0, 2.0).is_err(), "no agreements yet");
        h.set_agreement(1, 0, 0.5).unwrap();
        let alloc = h.request(0, 2.0).unwrap();
        assert!((alloc.draws[1] - 2.0).abs() < 1e-9);
        // Invalid mutation is rejected.
        assert!(matches!(h.set_agreement(0, 0, 0.1), Err(GrmError::Flow(_))));
        grm.shutdown();
    }

    #[test]
    fn unknown_lrm_rejected() {
        let grm = GrmServer::spawn(complete(2, 0.5), 1);
        let h = grm.handle();
        assert!(matches!(h.request(7, 1.0), Err(GrmError::UnknownLrm(7))));
        grm.shutdown();
    }

    #[test]
    fn concurrent_clients_conserve_resources() {
        let grm = GrmServer::spawn(complete(4, 0.3), 3);
        let h = grm.handle();
        for i in 0..4 {
            h.report(i, 25.0).unwrap();
        }
        // 8 client threads each grab 5 units for a random-ish requester.
        let total_granted: f64 = agreements_util::par_map((0..8usize).collect(), |c| {
            let h = grm.handle();
            let mut granted = 0.0;
            for _ in 0..3 {
                if let Ok(a) = h.request(c % 4, 5.0) {
                    granted += a.amount;
                }
            }
            granted
        })
        .into_iter()
        .sum();
        let remaining: f64 = h.availability().unwrap().iter().sum();
        assert!(
            (total_granted + remaining - 100.0).abs() < 1e-6,
            "granted {total_granted} + remaining {remaining} != 100"
        );
        grm.shutdown();
    }

    #[test]
    fn stats_track_operations() {
        let grm = GrmServer::spawn(complete(2, 0.5), 1);
        let h = grm.handle();
        h.report(0, 10.0).unwrap();
        h.report(1, 10.0).unwrap();
        let ok = h.request(0, 5.0).unwrap();
        assert!(h.request(0, 100.0).is_err());
        h.set_agreement(0, 1, 0.4).unwrap();
        h.release(ok).unwrap();
        let s = h.stats().unwrap();
        assert_eq!(s.reports, 2);
        assert_eq!(s.requests, 2);
        assert_eq!(s.granted, 1);
        assert_eq!(s.rejected_capacity, 1);
        assert!((s.granted_units - 5.0).abs() < 1e-9);
        assert_eq!(s.agreement_updates, 1);
        assert_eq!(s.duplicate_requests, 0);
        assert_eq!(s.partial_fulfils, 0);
        grm.shutdown();
    }

    #[test]
    fn duplicated_request_returns_original_grant_once() {
        let grm = GrmServer::spawn(complete(2, 1.0), 1);
        let h = grm.handle();
        h.report(0, 0.0).unwrap();
        h.report(1, 10.0).unwrap();
        let id = RequestId { client: 7, seq: 0 };
        let first = h.request_idempotent(0, 4.0, id).unwrap();
        // A retry (lost reply) and a transport duplicate both come back
        // with the original decision; the pool moved only once.
        let retry = h.request_idempotent(0, 4.0, id).unwrap();
        assert_eq!(first.draws, retry.draws);
        assert!((first.amount - retry.amount).abs() < 1e-12);
        let avail = h.availability().unwrap();
        assert!((avail.iter().sum::<f64>() - 6.0).abs() < 1e-9, "single commit: {avail:?}");
        let s = h.stats().unwrap();
        assert_eq!(s.requests, 1);
        assert_eq!(s.granted, 1);
        assert_eq!(s.duplicate_requests, 1);
        assert!((s.granted_units - 4.0).abs() < 1e-9);
        grm.shutdown();
    }

    #[test]
    fn duplicated_rejection_is_replayed_not_recomputed() {
        let grm = GrmServer::spawn(complete(2, 0.1), 1);
        let h = grm.handle();
        h.report(0, 1.0).unwrap();
        h.report(1, 1.0).unwrap();
        let id = RequestId { client: 1, seq: 9 };
        assert!(h.request_idempotent(0, 5.0, id).is_err());
        assert!(h.request_idempotent(0, 5.0, id).is_err());
        let s = h.stats().unwrap();
        assert_eq!(s.requests, 1, "decision computed once");
        assert_eq!(s.rejected_capacity, 1);
        assert_eq!(s.duplicate_requests, 1);
        grm.shutdown();
    }

    #[test]
    fn duplicated_release_restores_pool_once() {
        let grm = GrmServer::spawn(complete(2, 0.5), 1);
        let h = grm.handle();
        h.report(0, 5.0).unwrap();
        h.report(1, 5.0).unwrap();
        let alloc = h.request(0, 4.0).unwrap();
        let id = RequestId { client: 2, seq: 1 };
        h.release_idempotent(alloc.clone(), id).unwrap();
        h.release_idempotent(alloc, id).unwrap();
        let avail = h.availability().unwrap();
        assert!((avail.iter().sum::<f64>() - 10.0).abs() < 1e-9, "released once: {avail:?}");
        grm.shutdown();
    }

    #[test]
    fn replay_grant_settles_books_idempotently() {
        let grm = GrmServer::spawn(complete(2, 0.5), 1);
        let h = grm.handle();
        let id = RequestId { client: 3, seq: 0 };
        h.replay_grant(id, 0, 2.5).unwrap();
        h.replay_grant(id, 0, 2.5).unwrap();
        let s = h.stats().unwrap();
        assert_eq!(s.journaled_grants, 1);
        assert!((s.journaled_units - 2.5).abs() < 1e-12);
        // A replay for an id the live path already granted is a no-op.
        h.report(0, 0.0).unwrap();
        h.report(1, 10.0).unwrap();
        let gid = RequestId { client: 3, seq: 1 };
        let _ = h.request_idempotent(0, 3.0, gid).unwrap();
        h.replay_grant(gid, 0, 3.0).unwrap();
        let s = h.stats().unwrap();
        assert_eq!(s.journaled_grants, 1, "live-granted id not double counted");
        assert_eq!(s.granted, 1);
        grm.shutdown();
    }

    #[test]
    fn dedup_window_is_bounded() {
        let grm = GrmServer::spawn(complete(2, 1.0), 1);
        let h = grm.handle();
        h.report(0, 0.0).unwrap();
        h.report(1, 1e9).unwrap();
        let id = RequestId { client: 0, seq: 0 };
        let _ = h.request_idempotent(0, 1.0, id).unwrap();
        // Push the id out of the window with newer decisions.
        for seq in 1..=(DEDUP_WINDOW as u64 + 1) {
            let _ = h.request_idempotent(0, 0.001, RequestId { client: 0, seq }).unwrap();
        }
        // The evicted id is treated as a fresh request again.
        let before = h.stats().unwrap();
        let _ = h.request_idempotent(0, 1.0, id).unwrap();
        let after = h.stats().unwrap();
        assert_eq!(after.requests, before.requests + 1, "evicted id recomputed");
        assert_eq!(after.duplicate_requests, before.duplicate_requests);
        grm.shutdown();
    }

    /// A re-issued id settles once however many other ids the core
    /// decides in between. Today it does not: the dedup window is global
    /// and forgets an id after [`DEDUP_WINDOW`] newer decisions, whoever
    /// made them. This is the double settlement behind the intermittent
    /// failures of `racing_handles_settle_each_id_once_on_*`, where one
    /// starved client re-issues an id after the three others have decided
    /// 1 024 more, replayed here without threads.
    #[test]
    #[ignore = "ROADMAP \"Bound everything\": the global dedup window forgets a client's id after 1 024 decisions by other clients"]
    fn a_reissue_after_a_window_of_other_clients_ids_settles_once() {
        let grm = GrmServer::spawn(complete(4, 0.5), 1);
        let h = grm.handle();
        for lrm in 0..4 {
            h.report(lrm, 1e6).unwrap();
        }
        let id = RequestId { client: 3, seq: 4 };
        h.request_idempotent(0, 1.0, id).unwrap();
        for seq in 0..DEDUP_WINDOW as u64 {
            let other = RequestId { client: seq % 3, seq };
            h.request_idempotent(1 + (seq % 3) as usize, 0.5, other).unwrap();
        }
        let before = h.stats().unwrap();
        h.request_idempotent(0, 1.0, id).unwrap();
        let after = h.stats().unwrap();
        assert_eq!(after.requests, before.requests, "the re-issue settles nothing new");
        assert_eq!(after.duplicate_requests, before.duplicate_requests + 1, "it replays");
        grm.shutdown();
    }

    #[test]
    fn mismatched_id_kind_is_rejected() {
        let grm = GrmServer::spawn(complete(2, 0.5), 1);
        let h = grm.handle();
        h.report(0, 5.0).unwrap();
        h.report(1, 5.0).unwrap();
        let id = RequestId { client: 4, seq: 4 };
        let alloc = h.request_idempotent(0, 2.0, id).unwrap();
        assert!(matches!(
            h.release_idempotent(alloc, id),
            Err(GrmError::Sched(SchedError::InvalidRequest { .. }))
        ));
        grm.shutdown();
    }

    #[test]
    fn stale_lrms_are_excluded_by_lease() {
        let grm = GrmServer::spawn(complete(2, 1.0), 1);
        let h = grm.handle();
        h.report(0, 0.0).unwrap();
        h.report(1, 10.0).unwrap();
        h.tick(0, 3).unwrap();
        // Within the lease: LRM 1's capacity is usable.
        let a = h.request(0, 4.0).unwrap();
        h.release(a).unwrap();
        // LRM 0 keeps reporting; LRM 1 goes silent past the lease.
        h.tick(2, 3).unwrap();
        h.report(0, 0.0).unwrap();
        h.tick(6, 3).unwrap();
        match h.request(0, 4.0) {
            Err(GrmError::Sched(SchedError::InsufficientCapacity { capacity, .. })) => {
                assert!(capacity.abs() < 1e-9, "stale owner zeroed: {capacity}");
            }
            other => panic!("expected rejection, got {other:?}"),
        }
        // A fresh report revives it.
        h.report(1, 10.0).unwrap();
        h.tick(7, 3).unwrap();
        assert!(h.request(0, 4.0).is_ok());
        grm.shutdown();
    }

    #[test]
    fn lease_expiry_boundary_is_exclusive() {
        let grm = GrmServer::spawn(complete(2, 1.0), 1);
        let h = grm.handle();
        h.report(0, 0.0).unwrap();
        h.report(1, 10.0).unwrap(); // last_report = 0
                                    // now - last_report == lease: still within the lease.
        h.tick(3, 3).unwrap();
        let a = h.request(0, 4.0).unwrap();
        h.release(a).unwrap();
        assert!((h.availability().unwrap()[1] - 10.0).abs() < 1e-9);
        // One tick past the lease: expired, availability zeroed.
        h.tick(4, 3).unwrap();
        assert!(h.availability().unwrap()[1].abs() < 1e-12);
        assert!(h.request(0, 4.0).is_err());
        grm.shutdown();
    }

    #[test]
    fn re_report_resurrects_expired_lrm() {
        let grm = GrmServer::spawn(complete(2, 1.0), 1);
        let h = grm.handle();
        h.report(0, 0.0).unwrap();
        h.report(1, 8.0).unwrap();
        h.tick(10, 2).unwrap();
        assert!(h.availability().unwrap()[1].abs() < 1e-12, "expired");
        // Resurrection: the lease restarts at the report's clock.
        h.report(1, 8.0).unwrap();
        h.tick(12, 2).unwrap(); // 12 - 10 == lease: still alive
        assert!((h.availability().unwrap()[1] - 8.0).abs() < 1e-9);
        h.tick(13, 2).unwrap(); // one past: expired again
        assert!(h.availability().unwrap()[1].abs() < 1e-12);
        grm.shutdown();
    }

    #[test]
    fn join_grows_the_federation() {
        let grm = GrmServer::spawn(complete(2, 0.5), 1);
        let h = grm.handle();
        h.report(0, 5.0).unwrap();
        h.report(1, 5.0).unwrap();
        let newbie = h.join().unwrap();
        assert_eq!(newbie, 2);
        // No agreements yet: the newcomer reaches nothing.
        h.report(newbie, 0.0).unwrap();
        assert!(h.request(newbie, 1.0).is_err());
        // Wire it in and it participates.
        h.set_agreement(0, newbie, 0.4).unwrap();
        let alloc = h.request(newbie, 2.0).unwrap();
        assert!((alloc.draws[0] - 2.0).abs() < 1e-9);
        assert_eq!(alloc.draws.len(), 3);
        grm.shutdown();
    }

    #[test]
    fn late_joiner_is_not_born_lease_expired() {
        let grm = GrmServer::spawn(complete(2, 1.0), 1);
        let h = grm.handle();
        h.report(0, 5.0).unwrap();
        h.report(1, 5.0).unwrap();
        // The clock is already far along when the newcomer joins.
        h.tick(100, 3).unwrap();
        h.report(0, 5.0).unwrap();
        h.report(1, 5.0).unwrap();
        let newbie = h.join().unwrap();
        h.set_agreement(newbie, 0, 1.0).unwrap();
        h.report(newbie, 7.0).unwrap();
        // A tick *within* the newcomer's lease must not zero it: its
        // lease began at the join-time clock (100), not 0.
        h.tick(102, 3).unwrap();
        assert!(
            (h.availability().unwrap()[newbie] - 7.0).abs() < 1e-9,
            "late joiner instantly lease-expired"
        );
        // A request beyond the old federation's reach (5 + 5 = 10) can
        // only succeed because the newcomer's 7 units are schedulable.
        let alloc = h.request(0, 16.0).unwrap();
        assert!((alloc.amount - 16.0).abs() < 1e-9);
        assert!(alloc.draws[newbie] >= 6.0 - 1e-9, "{:?}", alloc.draws);
        grm.shutdown();
    }

    #[test]
    fn leave_cuts_all_agreements() {
        let grm = GrmServer::spawn(complete(3, 0.5), 2);
        let h = grm.handle();
        for i in 0..3 {
            h.report(i, 10.0).unwrap();
        }
        h.leave(2).unwrap();
        // Requester 0 can now only reach its own 10 + 50% of LRM 1.
        match h.request(0, 15.1) {
            Err(GrmError::Sched(SchedError::InsufficientCapacity { capacity, .. })) => {
                assert!((capacity - 15.0).abs() < 1e-9, "capacity {capacity}");
            }
            other => panic!("expected rejection, got {other:?}"),
        }
        assert!(matches!(h.leave(9), Err(GrmError::UnknownLrm(9))));
        grm.shutdown();
    }

    #[test]
    fn leave_then_rejoin_reserves_old_index_and_appends_new() {
        let grm = GrmServer::spawn(complete(2, 0.5), 1);
        let h = grm.handle();
        h.report(0, 10.0).unwrap();
        h.report(1, 10.0).unwrap();
        h.leave(1).unwrap();
        assert!(h.availability().unwrap()[1].abs() < 1e-12, "left LRM zeroed");
        // Re-joining is a fresh join: a *new* index is appended; the old
        // index stays reserved (isolated, zero agreements) so nobody's
        // indices shift.
        let rejoined = h.join().unwrap();
        assert_eq!(rejoined, 2);
        // The old index still accepts reports (it is a valid principal)
        // but its pool reaches nobody: requester 0 is on its own.
        h.report(1, 10.0).unwrap();
        assert!(h.request(0, 10.5).is_err(), "old index's pool is not reachable");
        // Wire the new incarnation in and it serves.
        h.set_agreement(rejoined, 0, 0.5).unwrap();
        h.report(rejoined, 10.0).unwrap();
        let alloc = h.request(0, 10.5).unwrap();
        assert!((alloc.draws[rejoined] - 0.5).abs() < 1e-9, "{:?}", alloc.draws);
        grm.shutdown();
    }

    #[test]
    fn handle_survives_clone_and_reports_after_shutdown_fail() {
        let grm = GrmServer::spawn(complete(2, 0.5), 1);
        let h1 = grm.handle();
        let h2 = h1.clone();
        h1.report(0, 1.0).unwrap();
        h2.report(1, 1.0).unwrap();
        grm.shutdown();
        assert!(matches!(h1.availability(), Err(GrmError::Disconnected)));
    }

    /// Every handle method, each as a fallible call.
    fn every_method(h: &GrmHandle) -> Vec<(&'static str, Result<(), GrmError>)> {
        let alloc = Allocation { requester: 0, amount: 1.0, draws: vec![1.0, 0.0], theta: 0.0 };
        let id = RequestId { client: 1, seq: 1 };
        vec![
            ("request", h.request(0, 1.0).map(drop)),
            ("request_idempotent", h.request_idempotent(0, 1.0, id).map(drop)),
            ("request_async", h.request_async(0, 1.0).map(drop)),
            ("request_multi", h.request_multi(0, &[1.0]).map(drop)),
            ("report", h.report(0, 1.0)),
            ("report_multi", h.report_multi(0, vec![1.0])),
            ("tick", h.tick(1, 1)),
            ("release", h.release(alloc.clone())),
            ("release_idempotent", h.release_idempotent(alloc, id)),
            ("replay_grant", h.replay_grant(id, 0, 1.0)),
            ("set_agreement", h.set_agreement(0, 1, 0.2)),
            ("set_inter_group", h.set_inter_group(0, 1, 0.2)),
            ("join", h.join().map(drop)),
            ("leave", h.leave(1)),
            ("seed", h.seed(vec![1.0, 1.0], Vec::new())),
            ("report_fulfil_shortfall", h.report_fulfil_shortfall(0, 2.0, 1.0)),
            ("stats", h.stats().map(drop)),
            ("availability", h.availability().map(drop)),
            ("availability_multi", h.availability_multi().map(drop)),
        ]
    }

    #[test]
    fn every_handle_method_answers_disconnected_once_the_server_is_gone() {
        use agreements_faults::FaultPlane;
        let plane = FaultPlane::inert(3);
        type Spawn = fn(&FaultPlane) -> GrmServer;
        type Stop = fn(GrmServer);
        let links: [(&str, Spawn); 2] = [
            ("direct", |_| GrmServer::spawn(complete(2, 0.5), 1)),
            ("chaotic", |plane| GrmServer::spawn_chaotic(complete(2, 0.5), 1, plane, "grm")),
        ];
        let stops: [(&str, Stop); 2] =
            [("shutdown", GrmServer::shutdown), ("crash", GrmServer::crash)];
        for (link, spawn) in links {
            for (stop_name, stop) in stops {
                let grm = spawn(&plane);
                let h = grm.handle();
                let live = every_method(&h);
                assert!(live.iter().all(|(_, r)| r != &Err(GrmError::Disconnected)), "{live:?}");
                stop(grm);
                for (method, result) in every_method(&h) {
                    assert_eq!(
                        result,
                        Err(GrmError::Disconnected),
                        "{link} handle after {stop_name}: {method}"
                    );
                }
            }
        }
    }

    /// No queue stands between a handle and the core: what a direct handle
    /// sent before `core()` has landed when `core()` returns.
    #[test]
    fn what_a_handle_sent_has_landed_when_core_returns() {
        let grm = GrmServer::spawn(complete(3, 0.5), 1);
        let h = grm.handle();
        h.seed(vec![1.0, 2.0, 3.0], Vec::new()).unwrap();
        h.report(0, 7.0).unwrap();
        let pools = grm.core().execute(&[], |_, pools, _| pools.to_vec());
        assert_eq!(pools, vec![7.0, 2.0, 3.0]);
        grm.shutdown();
    }

    /// What one racing client sent and saw.
    #[derive(Default)]
    struct Books {
        fresh: u64,
        grants: u64,
        reissues: u64,
        /// Per principal, the units this client's grants drew.
        drawn: Vec<f64>,
    }

    /// Four threads race 512 idempotent requests each through their own
    /// handles, released together by a barrier; one call in eight
    /// re-issues the thread's own request three back. The core lock alone
    /// serialises them: each id settles once
    /// (every re-issue replays its original bit for bit, and the counters
    /// are the clients' books) and the pools are conserved against the
    /// granted draws.
    fn racing_handles(grm: GrmServer, n: usize) {
        const POOL: f64 = 1e6;
        for lrm in 0..n {
            grm.handle().report(lrm, POOL).unwrap();
        }
        let start = std::sync::Barrier::new(4);
        let books: Vec<Books> = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..4u64)
                .map(|client| {
                    let (h, start) = (grm.handle(), &start);
                    scope.spawn(move || {
                        let mut books = Books { drawn: vec![0.0; n], ..Books::default() };
                        start.wait();
                        let mut decided = Vec::new();
                        for seq in 0..512u64 {
                            if seq % 8 == 7 {
                                let (id, lrm, amount, original) = &decided[decided.len() - 3];
                                let replay = h.request_idempotent(*lrm, *amount, *id);
                                assert_eq!(format!("{replay:?}"), format!("{original:?}"));
                                books.reissues += 1;
                                continue;
                            }
                            let id = RequestId { client, seq };
                            let lrm = ((client + seq) % n as u64) as usize;
                            let amount = 0.5 + (seq % 16) as f64 * 0.25;
                            let decision = h.request_idempotent(lrm, amount, id);
                            books.fresh += 1;
                            if let Ok(alloc) = &decision {
                                books.grants += 1;
                                for (total, d) in books.drawn.iter_mut().zip(&alloc.draws) {
                                    *total += d;
                                }
                            }
                            decided.push((id, lrm, amount, decision));
                        }
                        books
                    })
                })
                .collect();
            clients.into_iter().map(|c| c.join().unwrap()).collect()
        });
        let h = grm.handle();
        let stats = h.stats().unwrap();
        let sum = |f: fn(&Books) -> u64| books.iter().map(f).sum::<u64>();
        assert_eq!(stats.requests, sum(|b| b.fresh), "each id settled once");
        assert_eq!(stats.granted, sum(|b| b.grants));
        assert_eq!(stats.duplicate_requests, sum(|b| b.reissues));
        assert_eq!(stats.granted, 4 * 448, "the pools never run dry");
        for (lrm, left) in h.availability().unwrap().into_iter().enumerate() {
            let drawn: f64 = books.iter().map(|b| b.drawn[lrm]).sum();
            assert!((left + drawn - POOL).abs() < 1e-6, "LRM {lrm}: {left} + {drawn} != {POOL}");
        }
        grm.shutdown();
    }

    #[test]
    fn racing_handles_settle_each_id_once_on_a_flat_grm() {
        racing_handles(GrmServer::spawn(complete(4, 0.5), 1), 4);
    }

    #[test]
    fn racing_handles_settle_each_id_once_on_a_hierarchical_grm() {
        racing_handles(GrmServer::spawn_hierarchical(hier_sched()), 4);
    }

    #[test]
    fn a_mispaired_answer_fails_the_caller_not_the_core() {
        let grm = GrmServer::spawn(complete(2, 0.5), 1);
        let h = grm.handle();
        let rx = h.issue(Call::Stats, Answer::grant).unwrap();
        assert!(matches!(rx.recv().unwrap(), Err(MISPAIRED)));
        assert_eq!(h.stats().unwrap().requests, 0, "the core still serves");
        grm.shutdown();
    }

    #[test]
    fn error_taxonomy_classifies_retryability() {
        assert!(GrmError::Disconnected.is_retryable());
        assert!(GrmError::DeadlineExceeded { millis: 5 }.is_retryable());
        assert!(!GrmError::RetriesExhausted { attempts: 3 }.is_retryable());
        assert!(!GrmError::UnknownLrm(1).is_retryable());
        assert!(!GrmError::Unsupported("leave").is_retryable());
        assert!(!GrmError::Sched(SchedError::InvalidRequest { amount: -1.0 }).is_retryable());
        // Transport-level taxonomy: a refused or reset connection is the
        // socket analogue of a lost message — safe to retry under an
        // idempotent id. An undecodable frame is *not*: resending the
        // same poison bytes can never succeed, so the resilient client
        // must surface it instead of burning its retry budget.
        assert!(GrmError::ConnectionRefused.is_retryable());
        assert!(GrmError::ConnectionReset.is_retryable());
        assert!(!GrmError::FrameDecode { detail: "bad magic".into() }.is_retryable());
        // Display strings exist for the new variants.
        assert!(GrmError::DeadlineExceeded { millis: 5 }.to_string().contains("5 ms"));
        assert!(GrmError::RetriesExhausted { attempts: 3 }.to_string().contains("3 attempts"));
        assert!(GrmError::ConnectionRefused.to_string().contains("refused"));
        assert!(GrmError::ConnectionReset.to_string().contains("reset"));
        assert!(GrmError::FrameDecode { detail: "bad magic".into() }
            .to_string()
            .contains("bad magic"));
    }

    #[test]
    fn seeded_decision_replays_for_duplicate_across_respawn() {
        // First incarnation decides a grant under an idempotent id.
        let grm = GrmServer::spawn(complete(2, 1.0), 1);
        let h = grm.handle();
        h.report(0, 0.0).unwrap();
        h.report(1, 10.0).unwrap();
        let id = RequestId { client: 7, seq: 0 };
        let alloc = h.request_idempotent(0, 4.0, id).unwrap();
        grm.crash();

        // A cold standby is seeded with the journaled decision before it
        // serves traffic — the durable-journal recovery path in miniature.
        let standby = GrmServer::spawn(complete(2, 1.0), 1);
        let h2 = standby.handle();
        h2.seed(vec![0.0, 6.0], vec![(id, RecordedDecision::Grant(Ok(alloc.clone())))]).unwrap();
        assert_eq!(h2.stats().unwrap().reports, 2, "the pools arrive as reports");

        // The client's retry of the same id replays the original grant —
        // bit-identical draws — instead of executing a second time.
        let before = h2.stats().unwrap();
        let replayed = h2.request_idempotent(0, 4.0, id).unwrap();
        assert_eq!(replayed.draws, alloc.draws, "original decision replayed verbatim");
        let after = h2.stats().unwrap();
        assert_eq!(after.duplicate_requests, before.duplicate_requests + 1);
        assert_eq!(after.requests, before.requests, "no second execution");
        assert_eq!(after.granted, 0, "seeding and replay never move the grant counters");
        // Availability is untouched by the replay: the standby's pool
        // still holds the 6 units LRM 1 re-reported.
        let avail = h2.availability().unwrap();
        assert!((avail.iter().sum::<f64>() - 6.0).abs() < 1e-9);
        standby.shutdown();
    }

    #[test]
    fn seeded_release_and_replay_decisions_dedup_by_kind() {
        let grm = GrmServer::spawn(complete(2, 1.0), 1);
        let h = grm.handle();
        let rid = RequestId { client: 8, seq: 0 };
        let jid = RequestId { client: 8, seq: 1 };
        let window =
            vec![(rid, RecordedDecision::Release(Ok(()))), (jid, RecordedDecision::Replay(Ok(())))];
        h.seed(vec![2.0, 2.0], window).unwrap();
        // A duplicate release under the seeded id is answered from the
        // window without touching the pool.
        let alloc = Allocation { requester: 0, amount: 1.0, draws: vec![1.0, 0.0], theta: 1.0 };
        h.release_idempotent(alloc, rid).unwrap();
        let avail = h.availability().unwrap();
        assert!((avail.iter().sum::<f64>() - 4.0).abs() < 1e-9, "seeded release not re-applied");
        // A duplicate degraded-mode replay likewise settles to a no-op.
        h.replay_grant(jid, 0, 1.0).unwrap();
        let s = h.stats().unwrap();
        assert_eq!(s.journaled_grants, 0, "seeded replay not double-counted");
        assert_eq!(s.duplicate_requests, 2);
        grm.shutdown();
    }

    /// A chain `0 → 1 → 2`, where an edit at the tail touches only the
    /// rows upstream of it (exercises the incremental dirty set).
    fn chain3(share: f64) -> AgreementMatrix {
        let mut s = AgreementMatrix::zeros(3);
        s.set(0, 1, share).unwrap();
        s.set(1, 2, share).unwrap();
        s
    }

    #[test]
    fn batched_delivery_is_bit_identical_to_one_at_a_time() {
        // One call trace, executed two ways: one run per call vs a single
        // run over the whole trace. Every answer and the final server
        // state must agree bit for bit; only `coalesced_reports`
        // (bookkeeping for superseded writes) may differ.
        let run = [
            // A report burst with two writers to LRM 1: in a run the
            // second supersedes the first.
            Call::Report { lrm: 0, available: 4.0 },
            Call::Report { lrm: 1, available: 3.0 },
            Call::Report { lrm: 1, available: 9.0 },
            Call::Report { lrm: 2, available: 2.0 },
            // Equal-lease ticks arriving out of clock order.
            Call::Tick { now: 5, lease: 10 },
            Call::Tick { now: 3, lease: 10 },
            // A request in the middle: runs must not reorder around it.
            Call::Request { lrm: 0, amount: 6.0, req_id: None },
            // A fresh report, a lease-expiring tick, then an over-ask
            // that must reject identically on both paths.
            Call::Report { lrm: 0, available: 1.0 },
            Call::Tick { now: 20, lease: 10 },
            Call::Request { lrm: 2, amount: 100.0, req_id: None },
        ];

        let mut one = flat_core(complete(3, 0.5), 2);
        let answers_one = one_by_one(&mut one, &run);
        let mut batched = flat_core(complete(3, 0.5), 2);
        let answers_batched = batched.execute(&run);

        assert_bit_identical(&answers_one, &answers_batched);
        assert!(matches!(answers_one[6], Answer::Grant { result: Ok(_), fresh: true }));
        assert!(matches!(answers_one[9], Answer::Grant { result: Err(_), fresh: true }));
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&pool(&mut one)), bits(&pool(&mut batched)));
        assert_eq!(one.clock, batched.clock);
        assert_eq!(one.last_report, batched.last_report);
        let (mut s1, mut s2) = (one.published_stats(), batched.published_stats());
        assert_eq!(s1.coalesced_reports, 0, "one-at-a-time never coalesces");
        assert_eq!(s2.coalesced_reports, 1, "LRM 1's first report superseded in the run");
        s1.coalesced_reports = 0;
        s2.coalesced_reports = 0;
        assert_eq!(s1, s2, "all other counters agree");
    }

    #[test]
    fn capacity_fast_reject_matches_solver_verdict_and_counts() {
        let mut core = flat_core(complete(3, 0.5), 2);
        for (lrm, available) in [(0, 0.0), (1, 10.0), (2, 10.0)] {
            core.execute_one(&Call::Report { lrm, available });
        }
        let decide = |core: &mut ServerCore, amount| {
            core.call(&Call::Request { lrm: 0, amount, req_id: None }).grant()
        };
        // Reachable for 0: clamped two-level flow 0.5 + 0.25 = 0.75 per
        // peer ⇒ 7.5 + 7.5 = 15. Asking 16 rejects without an LP build,
        // with the exact error payload the solver would produce.
        match decide(&mut core, 16.0).unwrap_err() {
            GrmError::Sched(SchedError::InsufficientCapacity {
                requester,
                capacity,
                requested,
                resource,
            }) => {
                assert_eq!(requester, 0);
                assert!((capacity - 15.0).abs() < 1e-9, "capacity {capacity}");
                assert_eq!(requested.to_bits(), 16.0f64.to_bits());
                assert_eq!(resource, None, "the single pool has no name");
            }
            other => panic!("expected capacity rejection, got {other:?}"),
        }
        let stats = core.published_stats();
        assert_eq!(stats.fast_rejects, 1);
        assert_eq!(stats.rejected_capacity, 1);
        // A feasible request is untouched by the fast path and grants.
        let alloc = decide(&mut core, 6.0).unwrap();
        assert!((alloc.amount - 6.0).abs() < 1e-9);
        let stats = core.published_stats();
        assert_eq!(stats.fast_rejects, 1, "grant path never fast-rejects");
        assert_eq!(stats.granted, 1);
    }

    #[test]
    fn poisoned_availability_still_fails_requests() {
        // No call writes a non-finite pool (reports and releases are
        // validated), so poison the view behind the core's back: `decide`
        // must keep answering like the removed per-request
        // `SystemState::new` validation did.
        let mut core = flat_core(complete(2, 0.5), 1);
        core.execute(&[Call::Report { lrm: 0, available: 5.0 }]);
        core.engine.lane_mut(0)[1] = f64::NAN;
        assert!(matches!(
            core.execute_one(&Call::Request { lrm: 0, amount: 1.0, req_id: None }).grant(),
            Err(GrmError::Sched(SchedError::InvalidRequest { .. }))
        ));
    }

    #[test]
    fn a_release_with_non_finite_or_negative_draws_is_refused() {
        let mut core = flat_core(complete(3, 0.5), 2);
        for lrm in 0..3 {
            core.execute_one(&Call::Report { lrm, available: 5.0 });
        }
        let bits =
            |core: &mut ServerCore| pool(core).iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let before = bits(&mut core);
        for draws in [
            vec![f64::NAN, 0.0, 0.0],
            vec![0.0, -3.0, 0.0],
            vec![0.0, 0.0, f64::INFINITY],
            vec![f64::NEG_INFINITY, 1.0, 1.0],
            vec![f64::NAN, -3.0, f64::INFINITY],
        ] {
            let alloc = Allocation { requester: 0, amount: 2.0, draws, theta: 0.0 };
            for req_id in [None, Some(RequestId { client: 5, seq: 1 })] {
                let release = Call::Release { alloc: alloc.clone(), req_id };
                let Answer::Unit { result, .. } = core.execute_one(&release) else {
                    panic!("a release answers a unit")
                };
                assert_eq!(
                    result,
                    Err(GrmError::Sched(SchedError::InvalidRequest { amount: 2.0 })),
                    "{:?}",
                    alloc.draws
                );
                assert_eq!(bits(&mut core), before, "the pools are untouched: {:?}", alloc.draws);
            }
        }
        // A release of finite, non-negative draws (zeros included) lands.
        let alloc =
            Allocation { requester: 0, amount: 1.5, draws: vec![1.5, 0.0, -0.0], theta: 0.0 };
        let answer = core.execute_one(&Call::Release { alloc, req_id: None });
        assert_eq!(answer, Answer::Unit { result: Ok(()), fresh: true });
        assert_eq!(pool(&mut core), vec![6.5, 5.0, 5.0]);
    }

    #[test]
    fn stats_expose_incremental_flow_rows() {
        let grm = GrmServer::spawn(chain3(0.5), 2);
        let h = grm.handle();
        // Editing the tail edge 1 → 2 dirties only rows {0, 1}: row 2's
        // simple paths cannot traverse an out-edge of their endpoint.
        h.set_agreement(1, 2, 0.9).unwrap();
        let stats = h.stats().unwrap();
        assert_eq!(stats.agreement_updates, 1);
        assert_eq!(stats.flow_rows_recomputed, 2, "incremental repair, not a full recompute");
        grm.shutdown();
    }

    /// Two groups of two with symmetric 50% inter-group sharing.
    fn hier_sched() -> HierarchicalScheduler {
        let mut inter = AgreementMatrix::zeros(2);
        inter.set(0, 1, 0.5).unwrap();
        inter.set(1, 0, 0.5).unwrap();
        HierarchicalScheduler::new(vec![vec![0, 1], vec![2, 3]], &inter, 1).unwrap()
    }

    #[test]
    fn hierarchical_grm_round_trip() {
        let grm = GrmServer::spawn_hierarchical(hier_sched());
        let h = grm.handle();
        for i in 0..4 {
            h.report(i, 10.0).unwrap();
        }
        // Within the home group (0's group holds 20 units).
        let alloc = h.request(0, 15.0).unwrap();
        assert!((alloc.amount - 15.0).abs() < 1e-9);
        let avail = h.availability().unwrap();
        assert!((avail.iter().sum::<f64>() - 25.0).abs() < 1e-9);
        h.release(alloc).unwrap();
        assert!((h.availability().unwrap().iter().sum::<f64>() - 40.0).abs() < 1e-9);
        // Beyond every agreement's reach: home 20 + 50% of group 1's 20.
        match h.request(0, 31.0) {
            Err(GrmError::Sched(SchedError::InsufficientCapacity { .. })) => {}
            other => panic!("expected capacity rejection, got {other:?}"),
        }
        let s = h.stats().unwrap();
        assert_eq!(s.requests, 2);
        assert_eq!(s.granted, 1);
        assert_eq!(s.rejected_capacity, 1);
        assert!((s.granted_units - 15.0).abs() < 1e-9);
        grm.shutdown();
    }

    #[test]
    fn set_inter_group_renegotiates_mid_stream() {
        let inter = AgreementMatrix::zeros(2);
        let sched = HierarchicalScheduler::new(vec![vec![0], vec![1]], &inter, 1).unwrap();
        let grm = GrmServer::spawn_hierarchical(sched);
        let h = grm.handle();
        h.report(0, 0.0).unwrap();
        h.report(1, 10.0).unwrap();
        assert!(h.request(0, 2.0).is_err(), "no inter-group agreement yet");
        h.set_inter_group(1, 0, 0.5).unwrap();
        let alloc = h.request(0, 2.0).unwrap();
        assert!((alloc.draws[1] - 2.0).abs() < 1e-9);
        let s = h.stats().unwrap();
        assert_eq!(s.agreement_updates, 1);
        grm.shutdown();
    }

    /// One call trace with a contiguous request run on a hierarchical
    /// engine, at one lane (`Request`s) and at two (`RequestMulti`s),
    /// executed one call at a time vs as one run. Every answer, every
    /// lane, every counter and the request-latency histogram (one span
    /// per decided request) must agree.
    #[test]
    fn hierarchical_runs_decide_as_one_at_a_time() {
        let (id_a, id_b) = (RequestId { client: 1, seq: 1 }, RequestId { client: 1, seq: 2 });
        // A run mixing grants, an in-run duplicate, an unknown LRM, a
        // capacity rejection, the coarse cross-group path and an invalid
        // amount.
        let asks: [(usize, [f64; 2], Option<RequestId>); 8] = [
            (0, [3.0, 1.0], Some(id_a)),
            (2, [5.0, 2.0], None),
            (0, [3.0, 1.0], Some(id_a)), // in-run duplicate: replays, no re-grant
            (7, [1.0, 1.0], None),       // unknown LRM
            (1, [100.0, 50.0], None),    // beyond reach
            (3, [4.0, 1.0], Some(id_b)), // needs the coarse cross-group path
            (3, [-1.0, -1.0], None),     // invalid amount
            (1, [2.0, 0.5], None),
        ];
        let pools = [(0, [6.0, 3.0]), (1, [4.0, 1.0]), (2, [10.0, 5.0]), (3, [2.0, 2.0])];
        for lanes in [1, 2] {
            let report = |lrm: usize, available: &[f64]| match lanes {
                1 => Call::Report { lrm, available: available[0] },
                _ => Call::ReportMulti { lrm, available: available.to_vec() },
            };
            let request = |lrm: usize, amounts: &[f64], req_id| match lanes {
                1 => Call::Request { lrm, amount: amounts[0], req_id },
                _ => Call::RequestMulti { lrm, amounts: amounts.to_vec(), req_id },
            };
            let mut run: Vec<Call> = pools.iter().map(|(lrm, a)| report(*lrm, a)).collect();
            run.extend(asks.iter().map(|(lrm, amounts, id)| request(*lrm, amounts, *id)));
            // A report breaks the run; the retry of `id_a` behind it is a
            // window hit on both paths.
            run.push(report(1, &[9.0, 9.0]));
            run.push(request(0, &[3.0, 1.0], Some(id_a)));

            let front = || match lanes {
                1 => MultiAdmission::new(Vec::new(), vec![hier_sched()]).unwrap(),
                _ => MultiAdmission::new(LANES.to_vec(), vec![hier_sched(), hier_sched()]).unwrap(),
            };
            let mut one = hier_core(front(), Telemetry::default());
            let answers_one = one_by_one(&mut one, &run);
            let (telemetry, recorder) = Telemetry::recorder(64);
            let mut whole = hier_core(front(), telemetry);
            let answers_whole = whole.execute(&run);

            assert_bit_identical(&answers_one, &answers_whole);
            let bits = |core: &ServerCore, lane| {
                core.engine.lane(lane).iter().map(|x| x.to_bits()).collect::<Vec<_>>()
            };
            for lane in 0..lanes {
                assert_eq!(bits(&one, lane), bits(&whole, lane), "{lanes} lanes: lane {lane}");
            }
            let stats = whole.published_stats();
            assert_eq!(one.published_stats(), stats, "{lanes} lanes: every counter agrees");
            assert_eq!(stats.duplicate_requests, 2, "{lanes} lanes");
            let latency = recorder.snapshot();
            let latency = latency.histogram(HistKind::RequestLatencySeconds).expect("latency");
            assert_eq!(latency.count, stats.requests, "{lanes} lanes: one span per decision");
        }
    }

    #[test]
    fn chaotic_spawn_with_inert_plane_is_transparent() {
        use agreements_faults::FaultPlane;
        let plane = FaultPlane::inert(1);
        let grm = GrmServer::spawn_chaotic(complete(3, 0.5), 2, &plane, "grm");
        let h = grm.handle();
        h.report(0, 0.0).unwrap();
        h.report(1, 10.0).unwrap();
        h.report(2, 10.0).unwrap();
        let alloc = h.request(0, 6.0).unwrap();
        assert!((alloc.amount - 6.0).abs() < 1e-9);
        let avail = h.availability().unwrap();
        assert!((avail.iter().sum::<f64>() - 14.0).abs() < 1e-9);
        grm.shutdown();
    }

    // ---- multi-resource engine ----------------------------------------

    fn spawn_two_lane(share: f64) -> GrmServer {
        GrmServer::spawn_multi(vec!["cpu", "bandwidth"], complete(2, share), 1)
    }

    /// Satellite of the multi-resource work: a request that fits in CPU
    /// but not in bandwidth must be rejected *citing bandwidth* — the
    /// binding resource, not the first lane.
    #[test]
    fn multi_rejection_names_the_binding_resource() {
        let grm = spawn_two_lane(0.5);
        let h = grm.handle();
        h.report_multi(0, vec![10.0, 0.2]).unwrap();
        h.report_multi(1, vec![10.0, 0.2]).unwrap();
        // CPU reachable for 0: 10 + 0.5*10 = 15; bandwidth: 0.2 + 0.1 = 0.3.
        let err = h.request_multi(0, &[1.0, 2.0]).unwrap_err();
        match err {
            GrmError::Sched(SchedError::InsufficientCapacity {
                requester,
                requested,
                resource,
                ..
            }) => {
                assert_eq!(requester, 0);
                assert_eq!(resource, Some("bandwidth"), "must cite the binding lane, not cpu");
                assert!((requested - 2.0).abs() < 1e-12);
            }
            other => panic!("expected a bandwidth capacity rejection, got {other:?}"),
        }
        // Flip the pressure: now CPU binds and is cited.
        let err = h.request_multi(0, &[40.0, 0.1]).unwrap_err();
        assert!(
            matches!(
                err,
                GrmError::Sched(SchedError::InsufficientCapacity { resource: Some("cpu"), .. })
            ),
            "got {err:?}"
        );
        // The rejections moved nothing.
        let lanes = h.availability_multi().unwrap();
        assert_eq!(lanes, vec![vec![10.0, 10.0], vec![0.2, 0.2]]);
        grm.shutdown();
    }

    #[test]
    fn multi_grant_commits_every_lane_and_books_the_total() {
        let grm = spawn_two_lane(0.5);
        let h = grm.handle();
        h.report_multi(0, vec![4.0, 3.0]).unwrap();
        h.report_multi(1, vec![4.0, 3.0]).unwrap();
        let alloc = h.request_multi(0, &[2.0, 1.0]).unwrap();
        assert_eq!(alloc.lanes.len(), 2);
        assert!((alloc.lanes[0].amount - 2.0).abs() < 1e-9);
        assert!((alloc.lanes[1].amount - 1.0).abs() < 1e-9);
        let lanes = h.availability_multi().unwrap();
        assert!((lanes[0].iter().sum::<f64>() - 6.0).abs() < 1e-9, "cpu pool down by 2");
        assert!((lanes[1].iter().sum::<f64>() - 5.0).abs() < 1e-9, "bandwidth pool down by 1");
        let stats = h.stats().unwrap();
        assert_eq!(stats.granted, 1);
        assert!((stats.granted_units - 3.0).abs() < 1e-9, "units sum across lanes");
        grm.shutdown();
    }

    #[test]
    fn multi_fast_reject_skips_the_solver_and_counts() {
        let grm = spawn_two_lane(0.5);
        let h = grm.handle();
        h.report_multi(0, vec![4.0, 3.0]).unwrap();
        h.report_multi(1, vec![4.0, 3.0]).unwrap();
        // Hopeless in bandwidth: reachable is 3 + 1.5 = 4.5.
        let err = h.request_multi(0, &[1.0, 100.0]).unwrap_err();
        assert!(matches!(
            err,
            GrmError::Sched(SchedError::InsufficientCapacity { resource: Some("bandwidth"), .. })
        ));
        let stats = h.stats().unwrap();
        assert_eq!(stats.fast_rejects, 1);
        assert_eq!(stats.rejected_capacity, 1);
        // A grantable request never fast-rejects.
        h.request_multi(0, &[1.0, 1.0]).unwrap();
        assert_eq!(h.stats().unwrap().fast_rejects, 1);
        grm.shutdown();
    }

    #[test]
    fn multi_request_is_idempotent_under_the_dedup_window() {
        let grm = spawn_two_lane(0.5);
        let h = grm.handle();
        h.report_multi(0, vec![4.0, 3.0]).unwrap();
        h.report_multi(1, vec![4.0, 3.0]).unwrap();
        let id = RequestId { client: 7, seq: 1 };
        let first = h.request_multi_idempotent(0, &[2.0, 1.0], id).unwrap();
        let after_first = h.availability_multi().unwrap();
        let replay = h.request_multi_idempotent(0, &[2.0, 1.0], id).unwrap();
        assert_eq!(first, replay, "the retry replays the original decision");
        assert_eq!(h.availability_multi().unwrap(), after_first, "no double grant");
        let stats = h.stats().unwrap();
        assert_eq!(stats.requests, 1, "dedup hits are not new requests");
        assert_eq!(stats.duplicate_requests, 1);
        // A single-resource call reusing the id is a client bug and fails.
        assert!(matches!(
            h.request_idempotent(0, 1.0, id),
            Err(GrmError::Sched(SchedError::InvalidRequest { .. }))
        ));
        grm.shutdown();
    }

    #[test]
    fn multi_lane_reports_coalesce_like_single_lane_ones() {
        let grm = spawn_two_lane(0.5);
        let run = [
            Call::ReportMulti { lrm: 0, available: vec![1.0, 1.0] },
            Call::ReportMulti { lrm: 0, available: vec![2.0, 2.0] },
            Call::Stats,
            Call::AvailabilityMulti,
        ];
        let answers = grm.core().execute(&run, |answers, _, _| answers);
        let Answer::Stats(stats) = &answers[2] else { panic!("{answers:?}") };
        assert_eq!(stats.reports, 2);
        assert_eq!(stats.coalesced_reports, 1, "the second report superseded the first");
        assert_eq!(answers[3], Answer::AvailabilityMulti(vec![vec![2.0, 0.0], vec![2.0, 0.0]]));
        grm.shutdown();
    }

    /// Re-report every principal in both lanes, then let each request in
    /// both: the decisions a GRM makes from here on.
    fn later_decisions(h: &GrmHandle, n: usize) -> Vec<Result<MultiAllocation, GrmError>> {
        for lrm in 0..n {
            h.report_multi(lrm, vec![4.0 + lrm as f64, 2.0]).unwrap();
        }
        (0..n).map(|lrm| h.request_multi(lrm, &[5.0, 2.5])).collect()
    }

    /// A two-lane flat GRM renegotiates, grows and shrinks: after each
    /// edit it decides bit for bit as a GRM spawned over the edited
    /// matrix, and not as one over the unedited matrix.
    #[test]
    fn two_lane_flat_edits_match_a_grm_spawned_over_the_edited_matrix() {
        let base = || complete(3, 0.3);
        let mut renegotiated = base();
        renegotiated.set(2, 0, 0.8).unwrap();
        let mut grown = AgreementMatrix::zeros(4);
        for (i, j) in [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)] {
            grown.set(i, j, 0.3).unwrap();
        }
        grown.set(3, 0, 0.6).unwrap();
        grown.set(0, 3, 0.4).unwrap();
        let mut shrunk = base();
        for (i, j) in [(0, 1), (1, 0), (1, 2), (2, 1)] {
            shrunk.set(i, j, 0.0).unwrap();
        }
        type Edit = fn(&GrmHandle);
        let edits: [(&str, Edit, AgreementMatrix); 3] = [
            ("set_agreement", |h| h.set_agreement(2, 0, 0.8).unwrap(), renegotiated),
            (
                "join",
                |h| {
                    assert_eq!(h.join().unwrap(), 3);
                    h.set_agreement(3, 0, 0.6).unwrap();
                    h.set_agreement(0, 3, 0.4).unwrap();
                },
                grown,
            ),
            ("leave", |h| h.leave(1).unwrap(), shrunk),
        ];
        for (name, edit, matrix) in edits {
            let n = matrix.n();
            let live = GrmServer::spawn_multi(LANES.to_vec(), base(), 2);
            let h = live.handle();
            // A decision before the edit: the edit lands on warm solvers.
            h.report_multi(0, vec![5.0, 5.0]).unwrap();
            h.request_multi(0, &[1.0, 1.0]).unwrap();
            edit(&h);
            let edited = later_decisions(&h, n);
            let fresh = GrmServer::spawn_multi(LANES.to_vec(), matrix, 2);
            let unedited = GrmServer::spawn_multi(LANES.to_vec(), base(), 2);
            let (want, before) =
                (later_decisions(&fresh.handle(), n), later_decisions(&unedited.handle(), 3));
            assert_eq!(format!("{edited:?}"), format!("{want:?}"), "{name}: bit for bit");
            assert_ne!(
                format!("{:?}", &edited[..3]),
                format!("{before:?}"),
                "{name}: the edit counts"
            );
            assert!(edited.iter().any(Result::is_ok), "{name}: {edited:?}");
        }
    }

    /// A one-lane GRM, named or not, flat or hierarchical, answers both
    /// call families: the per-lane calls and the single-pool ones.
    #[test]
    fn one_lane_grms_answer_both_call_families() {
        type Spawn = fn() -> GrmServer;
        let spawns: [(&str, Spawn); 4] = [
            ("flat", || GrmServer::spawn(complete(4, 0.5), 1)),
            ("flat, named", || GrmServer::spawn_multi(vec!["cpu"], complete(4, 0.5), 1)),
            ("hierarchical", || GrmServer::spawn_hierarchical(hier_sched())),
            ("hierarchical, named", || {
                let front = MultiAdmission::new(vec!["cpu"], vec![hier_sched()]).unwrap();
                GrmServer::spawn_multi_hierarchical(front)
            }),
        ];
        for (name, spawn) in &spawns {
            let grm = spawn();
            let h = grm.handle();
            for lrm in 0..4 {
                h.report_multi(lrm, vec![10.0]).unwrap();
            }
            let multi = h.request_multi(0, &[3.0]).unwrap();
            assert_eq!(multi.lanes.len(), 1, "{name}");
            let single = h.request(1, 4.0).unwrap();
            let pool = h.availability().unwrap();
            assert_eq!(h.availability_multi().unwrap(), vec![pool.clone()], "{name}");
            assert!((pool.iter().sum::<f64>() - 33.0).abs() < 1e-9, "{name}: {pool:?}");
            h.release(single).unwrap();
            h.release(multi.lanes[0].clone()).unwrap();
            let pool = h.availability().unwrap();
            assert!((pool.iter().sum::<f64>() - 40.0).abs() < 1e-9, "{name}: {pool:?}");
            h.replay_grant(RequestId { client: 9, seq: 1 }, 2, 2.5).unwrap();
            let stats = h.stats().unwrap();
            assert_eq!((stats.granted, stats.journaled_grants), (2, 1), "{name}");
            grm.shutdown();
        }
    }

    // ---- one script, two engines × one or two lanes ----------------------

    /// One engine at one lane count under the conformance script: how to
    /// spawn it over four principals, its lane count, and the exact
    /// `Unsupported` payload of every operation it refuses (an operation
    /// not listed must not answer `Unsupported`).
    struct EngineCase {
        name: &'static str,
        spawn: fn() -> GrmServer,
        lanes: usize,
        refusals: &'static [(&'static str, &'static str)],
    }

    const LANES: [&str; 2] = ["cpu", "bandwidth"];

    fn two_hier_lanes() -> MultiAdmission {
        MultiAdmission::new(LANES.to_vec(), (0..2).map(|_| hier_sched()).collect()).unwrap()
    }

    /// What the flat engine refuses at any lane count.
    const FLAT_ONLY: (&str, &str) = ("set_inter_group", "set_inter_group on a flat GRM");

    /// What the hierarchical engine refuses at any lane count.
    const HIER_ONLY: [(&str, &str); 3] = [
        ("join", "join on a hierarchical GRM (fixed partition)"),
        ("leave", "leave on a hierarchical GRM (fixed partition)"),
        ("set_agreement", "set_agreement on a hierarchical GRM; renegotiate with set_inter_group"),
    ];

    /// The single-pool calls more than one lane refuses.
    const ONE_LANE_ONLY: [(&str, &str); 4] = [
        ("request", "single-resource request on a multi-resource GRM; use request_multi"),
        ("release", "release on a multi-resource GRM"),
        ("replay_grant", "replay_grant on a multi-resource GRM"),
        ("availability", "availability on a multi-resource GRM"),
    ];

    const ENGINES: [EngineCase; 4] = [
        EngineCase {
            name: "flat",
            spawn: || GrmServer::spawn(complete(4, 0.5), 1),
            lanes: 1,
            refusals: &[FLAT_ONLY],
        },
        EngineCase {
            name: "flat, two lanes",
            spawn: || GrmServer::spawn_multi(LANES.to_vec(), complete(4, 0.5), 1),
            lanes: 2,
            refusals: &[
                FLAT_ONLY,
                ONE_LANE_ONLY[0],
                ONE_LANE_ONLY[1],
                ONE_LANE_ONLY[2],
                ONE_LANE_ONLY[3],
            ],
        },
        EngineCase {
            name: "hierarchical",
            spawn: || GrmServer::spawn_hierarchical(hier_sched()),
            lanes: 1,
            refusals: &HIER_ONLY,
        },
        EngineCase {
            name: "hierarchical, two lanes",
            spawn: || GrmServer::spawn_multi_hierarchical(two_hier_lanes()),
            lanes: 2,
            refusals: &[
                HIER_ONLY[0],
                HIER_ONLY[1],
                HIER_ONLY[2],
                ONE_LANE_ONLY[0],
                ONE_LANE_ONLY[1],
                ONE_LANE_ONLY[2],
                ONE_LANE_ONLY[3],
            ],
        },
    ];

    impl EngineCase {
        /// Report `available` in every lane.
        fn report(&self, h: &GrmHandle, lrm: usize, available: f64) {
            if self.lanes > 1 {
                h.report_multi(lrm, vec![available; self.lanes]).unwrap();
            } else {
                h.report(lrm, available).unwrap();
            }
        }

        /// Request `amount` in every lane; a grant comes back lane by lane.
        fn request(
            &self,
            h: &GrmHandle,
            lrm: usize,
            amount: f64,
            id: RequestId,
        ) -> Result<Vec<Allocation>, GrmError> {
            if self.lanes > 1 {
                let amounts = vec![amount; self.lanes];
                h.request_multi_idempotent(lrm, &amounts, id).map(|grant| grant.lanes)
            } else {
                h.request_idempotent(lrm, amount, id).map(|grant| vec![grant])
            }
        }

        /// The availability view, lane by lane — read through the
        /// single-pool call where there is one pool, and checked against
        /// the per-lane call.
        fn view(&self, h: &GrmHandle) -> Vec<Vec<f64>> {
            let lanes = h.availability_multi().unwrap();
            if self.lanes == 1 {
                assert_eq!(lanes, vec![h.availability().unwrap()], "{}", self.name);
            }
            lanes
        }
    }

    fn draw_bits(grant: &[Allocation]) -> Vec<Vec<u64>> {
        grant.iter().map(|lane| lane.draws.iter().map(|d| d.to_bits()).collect()).collect()
    }

    #[test]
    fn every_engine_passes_the_conformance_script() {
        for case in &ENGINES {
            let (ctx, lanes) = (case.name, case.lanes);
            let grm = (case.spawn)();
            let h = grm.handle();

            // Reports.
            h.tick(10, 5).unwrap();
            for lrm in 0..4 {
                case.report(&h, lrm, 10.0);
            }
            assert_eq!(case.view(&h), vec![vec![10.0; 4]; lanes], "{ctx}: reports land");

            // Grant: every lane is debited by the amount.
            let id = RequestId { client: 1, seq: 1 };
            let grant = case.request(&h, 0, 3.0, id).unwrap();
            assert_eq!(grant.len(), lanes, "{ctx}");
            let after_grant = case.view(&h);
            for lane in &after_grant {
                assert!((lane.iter().sum::<f64>() - 37.0).abs() < 1e-9, "{ctx}: {lane:?}");
            }

            // Duplicate: the original decision bit for bit, nothing moves.
            let replay = case.request(&h, 0, 3.0, id).unwrap();
            assert_eq!(draw_bits(&replay), draw_bits(&grant), "{ctx}: replayed verbatim");
            assert_eq!(case.view(&h), after_grant, "{ctx}: no double grant");

            // Capacity rejection: names the binding lane where lanes have
            // names, and moves nothing.
            match case.request(&h, 0, 1e6, RequestId { client: 1, seq: 2 }) {
                Err(GrmError::Sched(SchedError::InsufficientCapacity { resource, .. })) => {
                    assert_eq!(resource, (lanes > 1).then_some(LANES[0]), "{ctx}");
                }
                other => panic!("{ctx}: expected a capacity rejection, got {other:?}"),
            }
            assert_eq!(case.view(&h), after_grant, "{ctx}: a rejection moves nothing");
            let stats = h.stats().unwrap();
            assert_eq!(stats.reports, 4, "{ctx}");
            assert_eq!(stats.requests, 2, "{ctx}: the duplicate is not a request");
            assert_eq!(stats.duplicate_requests, 1, "{ctx}");
            assert_eq!(stats.granted, 1, "{ctx}");
            assert_eq!(stats.rejected_capacity, 1, "{ctx}");
            assert!((stats.granted_units - 3.0 * lanes as f64).abs() < 1e-9, "{ctx}");

            // Lease expiry: a stale LRM vanishes from every lane.
            h.tick(16, 5).unwrap();
            assert_eq!(case.view(&h), vec![vec![0.0; 4]; lanes], "{ctx}: expired everywhere");

            // A re-report resurrects it, its lease restarting at the
            // report's clock.
            case.report(&h, 1, 8.0);
            h.tick(21, 5).unwrap();
            assert_eq!(case.view(&h), vec![vec![0.0, 8.0, 0.0, 0.0]; lanes], "{ctx}: resurrected");
            h.tick(22, 5).unwrap();
            assert_eq!(case.view(&h), vec![vec![0.0; 4]; lanes], "{ctx}: expired again");

            // An id reused across call kinds is refused, whatever the
            // engine makes of the call itself.
            let stray = Allocation { requester: 0, amount: 1.0, draws: vec![0.0; 4], theta: 0.0 };
            assert!(
                matches!(
                    h.release_idempotent(stray.clone(), id),
                    Err(GrmError::Sched(SchedError::InvalidRequest { .. }))
                ),
                "{ctx}: a grant's id on a release"
            );
            assert_eq!(h.stats().unwrap().duplicate_requests, 2, "{ctx}");

            // Every operation the engine does not implement answers its
            // `Unsupported`; the others answer something else. (Last:
            // the supported ones change membership and agreements.)
            type Op = (&'static str, Box<dyn Fn(&GrmHandle) -> Result<(), GrmError>>);
            let ops: [Op; 10] = [
                ("request", Box::new(|h| h.request(0, 1.0).map(drop))),
                ("request_multi", Box::new(|h| h.request_multi(0, &[1.0, 1.0]).map(drop))),
                ("availability", Box::new(|h| h.availability().map(drop))),
                ("availability_multi", Box::new(|h| h.availability_multi().map(drop))),
                ("release", Box::new(move |h| h.release(stray.clone()))),
                (
                    "replay_grant",
                    Box::new(|h| h.replay_grant(RequestId { client: 1, seq: 3 }, 0, 1.0)),
                ),
                ("set_inter_group", Box::new(|h| h.set_inter_group(0, 1, 0.4))),
                ("set_agreement", Box::new(|h| h.set_agreement(0, 1, 0.2))),
                ("leave", Box::new(|h| h.leave(3))),
                ("join", Box::new(|h| h.join().map(drop))),
            ];
            for (op, call) in &ops {
                let refusal = case.refusals.iter().find(|(refused, _)| refused == op);
                match (call(&h), refusal) {
                    (Err(GrmError::Unsupported(got)), Some((_, want))) => {
                        assert_eq!(got, *want, "{ctx}: {op}")
                    }
                    (Err(GrmError::Unsupported(got)), None) => {
                        panic!("{ctx}: {op} is supported, yet answered Unsupported({got:?})")
                    }
                    (other, Some(_)) => panic!("{ctx}: {op} must be Unsupported, got {other:?}"),
                    (_, None) => {}
                }
            }
            grm.shutdown();
        }
    }

    #[test]
    fn multi_hierarchical_engine_grants_and_renegotiates_all_lanes() {
        use agreements_sched::MultiAdmission;

        // Two groups of two per lane, symmetric 50% inter-group sharing —
        // the same shape as `hier_sched`, once per resource.
        let lanes: Vec<HierarchicalScheduler> = (0..2).map(|_| hier_sched()).collect();
        let front = MultiAdmission::new(vec!["cpu", "bandwidth"], lanes).unwrap();
        let grm = GrmServer::spawn_multi_hierarchical(front);
        let h = grm.handle();
        for p in 0..4 {
            h.report_multi(p, vec![5.0, 2.0]).unwrap();
        }
        let alloc = h.request_multi(0, &[3.0, 1.0]).unwrap();
        assert!((alloc.total() - 4.0).abs() < 1e-9);
        let err = h.request_multi(1, &[0.5, 50.0]).unwrap_err();
        assert!(
            matches!(
                err,
                GrmError::Sched(SchedError::InsufficientCapacity {
                    resource: Some("bandwidth"),
                    ..
                })
            ),
            "got {err:?}"
        );
        // Inter-group renegotiation reaches every lane (no Unsupported).
        h.set_inter_group(0, 1, 0.9).unwrap();
        grm.shutdown();
    }
}
