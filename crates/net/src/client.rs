//! Socket-backed [`GrmClient`]: the channel client's trait surface over
//! a real byte stream.
//!
//! [`NetGrmClient`] connects on demand (first call after construction or
//! after a connection death), multiplexes concurrent in-flight calls
//! over one connection by correlation id, and demuxes responses on a
//! background reader thread. It implements [`agreements_grm::GrmClient`],
//! so `ResilientGrmClient`'s deadline/backoff/rebind machinery — and the
//! server-side dedup window — work unchanged when "the GRM" is another
//! process.
//!
//! Error mapping follows the retryability taxonomy:
//!
//! - connect failure → [`GrmError::ConnectionRefused`] (retryable: the
//!   daemon may be restarting);
//! - mid-call socket death → [`GrmError::ConnectionReset`] (retryable:
//!   the decision may or may not have happened, which is exactly what
//!   idempotent `RequestId`s exist for);
//! - an undecodable response payload → [`GrmError::FrameDecode`]
//!   (**not** retryable: a codec mismatch will not heal by resending);
//! - a peer that stalls without closing (e.g. a partitioned proxy
//!   holding the connection open) → [`GrmError::DeadlineExceeded`]
//!   (retryable) once the per-RPC deadline elapses. The reader thread
//!   polls its socket with a short timeout and sweeps overdue in-flight
//!   calls, so a silent peer can never hang an RPC forever — the
//!   connection itself stays up in case the reply is merely late;
//! - a Unix-socket path over the kernel's `sun_path` limit →
//!   [`GrmError::BadEndpoint`] naming the path and limit (**not**
//!   retryable: the same endpoint fails the same way).
//!
//! Frame-level corruption (bad CRC) is handled below this layer: the
//! streaming decoder resyncs and the affected call either completes from
//! a later duplicate or dies with the connection.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use agreements_grm::{GrmClient, GrmError, GrmStats, RequestId};
use agreements_sched::{Allocation, MultiAllocation};
use agreements_telemetry::{HistKind, Telemetry};
use crossbeam::channel::{bounded, Receiver, Sender};
use parking_lot::Mutex;

use crate::frame::{encode_frame, FrameDecoder, FRAME_OVERHEAD};
use crate::uds_path_check;
use crate::wire::{RequestFrame, ResponseFrame, WireRequest, WireResponse};

/// How often the reader thread wakes to check for overdue in-flight
/// calls while the socket is quiet (and the sweep cadence under
/// continuous traffic).
const POLL: Duration = Duration::from_millis(20);

/// Default per-RPC deadline: generous enough for a group-commit fsync
/// queue at full depth, short enough that a wedged peer surfaces as a
/// retryable error rather than a hung worker. Override with
/// [`NetGrmClient::with_rpc_deadline`].
const DEFAULT_RPC_DEADLINE: Duration = Duration::from_secs(10);

/// Where the daemon lives.
#[derive(Debug, Clone)]
enum Target {
    Uds(PathBuf),
    Tcp(String),
}

/// One live socket, either flavour. Reads and writes go through
/// independent clones; `shutdown` kills both so the reader thread
/// observes EOF promptly.
enum Socket {
    Uds(UnixStream),
    Tcp(TcpStream),
}

impl Socket {
    fn try_clone(&self) -> io::Result<Socket> {
        match self {
            Socket::Uds(s) => Ok(Socket::Uds(s.try_clone()?)),
            Socket::Tcp(s) => Ok(Socket::Tcp(s.try_clone()?)),
        }
    }

    /// Socket options live on the shared file description, so setting
    /// them once here covers every clone: the reader polls at `read`,
    /// the writer gives up at `write` instead of blocking forever into
    /// a stalled peer's full buffer.
    fn set_timeouts(&self, read: Duration, write: Duration) -> io::Result<()> {
        match self {
            Socket::Uds(s) => {
                s.set_read_timeout(Some(read))?;
                s.set_write_timeout(Some(write))
            }
            Socket::Tcp(s) => {
                s.set_read_timeout(Some(read))?;
                s.set_write_timeout(Some(write))
            }
        }
    }

    fn shutdown(&self) {
        match self {
            Socket::Uds(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            Socket::Tcp(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
    }
}

impl Read for Socket {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Socket::Uds(s) => s.read(buf),
            Socket::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Socket {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Socket::Uds(s) => s.write(buf),
            Socket::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Socket::Uds(s) => s.flush(),
            Socket::Tcp(s) => s.flush(),
        }
    }
}

/// A registered in-flight call, typed by the reply it expects.
enum Pending {
    Grant(Sender<Result<Allocation, GrmError>>),
    Unit(Sender<Result<(), GrmError>>),
    Availability(Sender<Result<Vec<f64>, GrmError>>),
    Stats(Sender<Result<GrmStats, GrmError>>),
    GrantMulti(Sender<Result<MultiAllocation, GrmError>>),
    AvailabilityMulti(Sender<Result<Vec<Vec<f64>>, GrmError>>),
}

impl Pending {
    fn fail(self, e: GrmError) {
        match self {
            Pending::Grant(tx) => {
                let _ = tx.send(Err(e));
            }
            Pending::Unit(tx) => {
                let _ = tx.send(Err(e));
            }
            Pending::Availability(tx) => {
                let _ = tx.send(Err(e));
            }
            Pending::Stats(tx) => {
                let _ = tx.send(Err(e));
            }
            Pending::GrantMulti(tx) => {
                let _ = tx.send(Err(e));
            }
            Pending::AvailabilityMulti(tx) => {
                let _ = tx.send(Err(e));
            }
        }
    }

    /// Dispatch a decoded response to the waiter. A `Unit(Err)` answers
    /// any call shape (the listener's fallback for e.g. a failed
    /// availability query); any other shape mismatch is a protocol bug
    /// and surfaces as the non-retryable `FrameDecode`.
    fn complete(self, resp: WireResponse) {
        match (self, resp) {
            (Pending::Grant(tx), WireResponse::Grant(r)) => {
                let _ = tx.send(r);
            }
            (Pending::Unit(tx), WireResponse::Unit(r)) => {
                let _ = tx.send(r);
            }
            (Pending::Availability(tx), WireResponse::Availability(v)) => {
                let _ = tx.send(Ok(v));
            }
            (Pending::Stats(tx), WireResponse::Stats(s)) => {
                let _ = tx.send(Ok(*s));
            }
            (Pending::GrantMulti(tx), WireResponse::GrantMulti(r)) => {
                let _ = tx.send(r);
            }
            (Pending::AvailabilityMulti(tx), WireResponse::AvailabilityMulti(lanes)) => {
                let _ = tx.send(Ok(lanes));
            }
            (p, WireResponse::Unit(Err(e))) => p.fail(e),
            (p, _) => p.fail(GrmError::FrameDecode {
                detail: "response kind does not match the call".into(),
            }),
        }
    }
}

/// A [`Pending`] plus the wall-clock instant after which the reader
/// thread's sweep fails it with a retryable `DeadlineExceeded` — the
/// guarantee that a stalled-but-open peer cannot park a call forever.
struct InFlight {
    waiter: Pending,
    deadline: Instant,
    deadline_millis: u64,
}

type PendingMap = Arc<Mutex<HashMap<u64, InFlight>>>;

/// Fail every in-flight call whose deadline has passed. The entry is
/// removed first, so a reply that limps in later is simply dropped (the
/// corr id no longer resolves) — the caller has already been told to
/// retry under the same `RequestId`, which the daemon's dedup window
/// makes safe.
fn sweep_expired(pending: &PendingMap) {
    let now = Instant::now();
    let expired: Vec<InFlight> = {
        let mut map = pending.lock();
        if map.values().all(|p| p.deadline > now) {
            return;
        }
        let corrs: Vec<u64> =
            map.iter().filter(|(_, p)| p.deadline <= now).map(|(c, _)| *c).collect();
        corrs.into_iter().filter_map(|c| map.remove(&c)).collect()
    };
    for p in expired {
        p.waiter.fail(GrmError::DeadlineExceeded { millis: p.deadline_millis });
    }
}

struct Conn {
    writer: Socket,
    pending: PendingMap,
}

impl Conn {
    fn teardown(&self, e: &GrmError) {
        self.writer.shutdown();
        fail_all(&self.pending, e);
    }
}

fn fail_all(pending: &PendingMap, e: &GrmError) {
    let drained: Vec<InFlight> = {
        let mut map = pending.lock();
        map.drain().map(|(_, p)| p).collect()
    };
    for p in drained {
        p.waiter.fail(e.clone());
    }
}

struct Inner {
    target: Target,
    conn: Mutex<Option<Conn>>,
    next_corr: AtomicU64,
    /// Bumped each time a fresh socket is established (under the `conn`
    /// lock). Async callers compare generations to learn whether two
    /// sends shared one connection — calls from an older generation are
    /// dead and their frames' wire ordering says nothing about the
    /// current socket.
    generation: AtomicU64,
    /// Per-RPC deadline in milliseconds, applied by the reader thread's
    /// sweep to every in-flight call registered after it was set.
    rpc_deadline_millis: AtomicU64,
    telemetry: Telemetry,
}

impl Drop for Inner {
    fn drop(&mut self) {
        if let Some(conn) = self.conn.get_mut().take() {
            conn.teardown(&GrmError::Disconnected);
        }
    }
}

/// Socket transport for the GRM protocol; see the module docs.
#[derive(Clone)]
pub struct NetGrmClient {
    inner: Arc<Inner>,
}

impl NetGrmClient {
    /// A client for a daemon on a Unix-domain socket.
    pub fn uds(path: &Path) -> NetGrmClient {
        Self::with_target(Target::Uds(path.to_path_buf()), Telemetry::disabled())
    }

    /// A client for a daemon on a TCP address (`host:port`).
    pub fn tcp(addr: &str) -> NetGrmClient {
        Self::with_target(Target::Tcp(addr.to_string()), Telemetry::disabled())
    }

    /// Attach a telemetry plane (frame-size histogram on sends).
    pub fn with_telemetry(self, telemetry: Telemetry) -> NetGrmClient {
        NetGrmClient {
            inner: Arc::new(Inner {
                target: self.inner.target.clone(),
                conn: Mutex::new(None),
                next_corr: AtomicU64::new(self.inner.next_corr.load(Ordering::Relaxed)),
                generation: AtomicU64::new(self.inner.generation.load(Ordering::Relaxed)),
                rpc_deadline_millis: AtomicU64::new(
                    self.inner.rpc_deadline_millis.load(Ordering::Relaxed),
                ),
                telemetry,
            }),
        }
    }

    /// Set the per-RPC deadline: an in-flight call with no reply after
    /// this long fails with the retryable [`GrmError::DeadlineExceeded`]
    /// instead of waiting on a stalled peer forever. Applies to calls
    /// issued after the change; resolution is the reader's ~20 ms poll.
    pub fn with_rpc_deadline(self, deadline: Duration) -> NetGrmClient {
        let millis = deadline.as_millis().clamp(1, u64::MAX as u128) as u64;
        self.inner.rpc_deadline_millis.store(millis, Ordering::Relaxed);
        self
    }

    fn with_target(target: Target, telemetry: Telemetry) -> NetGrmClient {
        NetGrmClient {
            inner: Arc::new(Inner {
                target,
                conn: Mutex::new(None),
                next_corr: AtomicU64::new(1),
                generation: AtomicU64::new(0),
                rpc_deadline_millis: AtomicU64::new(DEFAULT_RPC_DEADLINE.as_millis() as u64),
                telemetry,
            }),
        }
    }

    /// Drop the current connection (if any), failing in-flight calls
    /// with [`GrmError::ConnectionReset`]. The next call reconnects.
    pub fn disconnect(&self) {
        if let Some(conn) = self.inner.conn.lock().take() {
            conn.teardown(&GrmError::ConnectionReset);
        }
    }

    fn connect(&self) -> Result<Conn, GrmError> {
        if let Target::Uds(path) = &self.inner.target {
            uds_path_check(path).map_err(|e| GrmError::BadEndpoint { detail: e.to_string() })?;
        }
        let socket = match &self.inner.target {
            Target::Uds(path) => UnixStream::connect(path).map(Socket::Uds),
            Target::Tcp(addr) => TcpStream::connect(addr.as_str()).map(|s| {
                let _ = s.set_nodelay(true);
                Socket::Tcp(s)
            }),
        }
        .map_err(|e| match e.kind() {
            io::ErrorKind::ConnectionRefused | io::ErrorKind::NotFound => {
                GrmError::ConnectionRefused
            }
            _ => GrmError::ConnectionReset,
        })?;
        let deadline =
            Duration::from_millis(self.inner.rpc_deadline_millis.load(Ordering::Relaxed));
        socket.set_timeouts(POLL, deadline).map_err(|_| GrmError::ConnectionReset)?;
        let pending: PendingMap = Arc::new(Mutex::new(HashMap::new()));
        let reader = socket.try_clone().map_err(|_| GrmError::ConnectionReset)?;
        let inner = Arc::downgrade(&self.inner);
        let reader_pending = Arc::clone(&pending);
        thread::spawn(move || read_loop(reader, reader_pending, inner));
        Ok(Conn { writer: socket, pending })
    }

    /// Register `pending` under a fresh correlation id and put the frame
    /// on the wire, (re)connecting if necessary. Returns the connection
    /// generation the frame was written on (exact: the generation only
    /// changes under the `conn` lock held here).
    fn send(
        &self,
        req: WireRequest,
        replay_seq: Option<u64>,
        pending: Pending,
    ) -> Result<u64, GrmError> {
        let mut guard = self.inner.conn.lock();
        if guard.is_none() {
            *guard = Some(self.connect()?);
            self.inner.generation.fetch_add(1, Ordering::Relaxed);
        }
        let corr = self.inner.next_corr.fetch_add(1, Ordering::Relaxed);
        let payload = RequestFrame { corr, replay_seq, req }.encode();
        let mut framed = Vec::with_capacity(payload.len() + FRAME_OVERHEAD);
        encode_frame(&payload, &mut framed)
            .map_err(|e| GrmError::FrameDecode { detail: format!("unencodable request: {e}") })?;
        let conn = guard.as_mut().expect("connection just ensured");
        let deadline_millis = self.inner.rpc_deadline_millis.load(Ordering::Relaxed);
        conn.pending.lock().insert(
            corr,
            InFlight {
                waiter: pending,
                deadline: Instant::now() + Duration::from_millis(deadline_millis),
                deadline_millis,
            },
        );
        let wrote = conn.writer.write_all(&framed).and_then(|()| conn.writer.flush());
        if let Err(_e) = wrote {
            let conn = guard.take().expect("connection present");
            // The registered pending is failed along with the rest.
            conn.teardown(&GrmError::ConnectionReset);
            return Err(GrmError::ConnectionReset);
        }
        self.inner.telemetry.observe(HistKind::FrameBytes, framed.len() as f64);
        Ok(self.inner.generation.load(Ordering::Relaxed))
    }

    // ----- blocking conveniences ------------------------------------

    /// Blocking allocation request carrying a global replay sequence
    /// (sequenced-federation mode). Retries must reuse both `seq` and
    /// `id` so the daemon can recognise the event across crashes.
    pub fn request_seq(
        &self,
        seq: u64,
        lrm: usize,
        amount: f64,
        id: RequestId,
    ) -> Result<Allocation, GrmError> {
        let (tx, rx) = bounded(1);
        self.send(
            WireRequest::Request { lrm: lrm as u64, amount, req_id: Some(id) },
            Some(seq),
            Pending::Grant(tx),
        )?;
        rx.recv().map_err(|_| GrmError::ConnectionReset)?
    }

    /// Blocking availability report carrying a global replay sequence;
    /// returns once the daemon has applied *and journaled* the report.
    pub fn report_seq(&self, seq: u64, lrm: usize, available: f64) -> Result<(), GrmError> {
        let (tx, rx) = bounded(1);
        self.send(
            WireRequest::Report { lrm: lrm as u64, available },
            Some(seq),
            Pending::Unit(tx),
        )?;
        rx.recv().map_err(|_| GrmError::ConnectionReset)?
    }

    // ----- pipelined (windowed in-flight) variants -------------------

    /// Start a sequenced allocation request without waiting for the
    /// decision: the daemon's reply arrives on the returned receiver,
    /// demuxed by correlation id. A worker keeps a window of these in
    /// flight to pipeline the socket, the journal append, and the
    /// group-commit fsync. Retries must reuse both `seq` and `id`.
    ///
    /// Also returns the connection generation the frame went out on:
    /// windowed callers compare it against their window's generation to
    /// detect a mid-window reconnect (every older in-flight call died
    /// with the previous socket and must be re-issued *before* any
    /// higher sequence number, or the daemon's replay cursor wedges
    /// behind the out-of-order frame).
    pub fn request_seq_async(
        &self,
        seq: u64,
        lrm: usize,
        amount: f64,
        id: RequestId,
    ) -> Result<(Receiver<Result<Allocation, GrmError>>, u64), GrmError> {
        let (tx, rx) = bounded(1);
        let gen = self.send(
            WireRequest::Request { lrm: lrm as u64, amount, req_id: Some(id) },
            Some(seq),
            Pending::Grant(tx),
        )?;
        Ok((rx, gen))
    }

    /// Start a sequenced availability report without waiting for the
    /// (journaled) ack. Returns the reply receiver and the connection
    /// generation (see [`NetGrmClient::request_seq_async`]).
    pub fn report_seq_async(
        &self,
        seq: u64,
        lrm: usize,
        available: f64,
    ) -> Result<(Receiver<Result<(), GrmError>>, u64), GrmError> {
        let (tx, rx) = bounded(1);
        let gen = self.send(
            WireRequest::Report { lrm: lrm as u64, available },
            Some(seq),
            Pending::Unit(tx),
        )?;
        Ok((rx, gen))
    }

    /// Start an *unsequenced* availability report, keeping the ack
    /// receiver (unlike the fire-and-forget [`GrmClient::report`]): the
    /// ack proves the daemon applied and journaled the report, which the
    /// non-sequenced federation needs before letting requests race.
    /// Returns the reply receiver and the connection generation.
    pub fn report_acked_async(
        &self,
        lrm: usize,
        available: f64,
    ) -> Result<(Receiver<Result<(), GrmError>>, u64), GrmError> {
        let (tx, rx) = bounded(1);
        let gen =
            self.send(WireRequest::Report { lrm: lrm as u64, available }, None, Pending::Unit(tx))?;
        Ok((rx, gen))
    }

    /// Start an *unsequenced* idempotent allocation request, returning
    /// the reply receiver and the connection generation — the windowed
    /// variant of [`GrmClient::issue_request`] for non-sequenced
    /// federation workers.
    pub fn request_acked_async(
        &self,
        lrm: usize,
        amount: f64,
        id: RequestId,
    ) -> Result<(Receiver<Result<Allocation, GrmError>>, u64), GrmError> {
        let (tx, rx) = bounded(1);
        let gen = self.send(
            WireRequest::Request { lrm: lrm as u64, amount, req_id: Some(id) },
            None,
            Pending::Grant(tx),
        )?;
        Ok((rx, gen))
    }

    // ----- multi-resource calls --------------------------------------

    /// Blocking multi-resource allocation request: one amount per lane,
    /// admitted lane-conjunctively by a multi-engine daemon. A daemon
    /// serving a single-resource GRM answers [`GrmError::Unsupported`].
    pub fn request_multi(&self, lrm: usize, amounts: &[f64]) -> Result<MultiAllocation, GrmError> {
        let (tx, rx) = bounded(1);
        self.send(
            WireRequest::RequestMulti { lrm: lrm as u64, amounts: amounts.to_vec(), req_id: None },
            None,
            Pending::GrantMulti(tx),
        )?;
        rx.recv().map_err(|_| GrmError::ConnectionReset)?
    }

    /// [`NetGrmClient::request_multi`] with an idempotency id: retries
    /// reusing `id` replay the original decision out of the daemon's
    /// dedup window instead of double-granting.
    pub fn request_multi_idempotent(
        &self,
        lrm: usize,
        amounts: &[f64],
        id: RequestId,
    ) -> Result<MultiAllocation, GrmError> {
        let (tx, rx) = bounded(1);
        self.send(
            WireRequest::RequestMulti {
                lrm: lrm as u64,
                amounts: amounts.to_vec(),
                req_id: Some(id),
            },
            None,
            Pending::GrantMulti(tx),
        )?;
        rx.recv().map_err(|_| GrmError::ConnectionReset)?
    }

    /// Fire-and-forget multi-resource availability report (all lanes of
    /// one LRM move atomically), mirroring [`GrmClient::report`].
    pub fn report_multi(&self, lrm: usize, available: Vec<f64>) -> Result<(), GrmError> {
        let (tx, _rx) = bounded(1);
        self.send(WireRequest::ReportMulti { lrm: lrm as u64, available }, None, Pending::Unit(tx))
            .map(|_gen| ())
    }

    /// Blocking snapshot of the daemon's per-lane availability view
    /// (`[lane][principal]`).
    pub fn availability_multi(&self) -> Result<Vec<Vec<f64>>, GrmError> {
        let (tx, rx) = bounded(1);
        self.send(WireRequest::AvailabilityMulti, None, Pending::AvailabilityMulti(tx))?;
        rx.recv().map_err(|_| GrmError::ConnectionReset)?
    }

    /// Blocking snapshot of the daemon's availability view.
    pub fn availability(&self) -> Result<Vec<f64>, GrmError> {
        let (tx, rx) = bounded(1);
        self.send(WireRequest::Availability, None, Pending::Availability(tx))?;
        rx.recv().map_err(|_| GrmError::ConnectionReset)?
    }

    /// Blocking snapshot of the daemon's operational counters.
    pub fn stats(&self) -> Result<GrmStats, GrmError> {
        let (tx, rx) = bounded(1);
        self.send(WireRequest::Stats, None, Pending::Stats(tx))?;
        rx.recv().map_err(|_| GrmError::ConnectionReset)?
    }
}

impl GrmClient for NetGrmClient {
    fn issue_request(
        &self,
        lrm: usize,
        amount: f64,
        req_id: Option<RequestId>,
    ) -> Result<Receiver<Result<Allocation, GrmError>>, GrmError> {
        let (tx, rx) = bounded(1);
        self.send(
            WireRequest::Request { lrm: lrm as u64, amount, req_id },
            None,
            Pending::Grant(tx),
        )?;
        Ok(rx)
    }

    fn issue_release(
        &self,
        alloc: Allocation,
        req_id: Option<RequestId>,
    ) -> Result<Receiver<Result<(), GrmError>>, GrmError> {
        let (tx, rx) = bounded(1);
        self.send(WireRequest::Release { alloc, req_id }, None, Pending::Unit(tx))?;
        Ok(rx)
    }

    fn issue_replay(
        &self,
        req_id: RequestId,
        lrm: usize,
        amount: f64,
    ) -> Result<Receiver<Result<(), GrmError>>, GrmError> {
        let (tx, rx) = bounded(1);
        self.send(
            WireRequest::ReplayGrant { req_id, lrm: lrm as u64, amount },
            None,
            Pending::Unit(tx),
        )?;
        Ok(rx)
    }

    fn report(&self, lrm: usize, available: f64) -> Result<(), GrmError> {
        // Fire-and-forget like the channel client: the daemon's ack is
        // discarded (the receiver is dropped here).
        let (tx, _rx) = bounded(1);
        self.send(WireRequest::Report { lrm: lrm as u64, available }, None, Pending::Unit(tx))
            .map(|_gen| ())
    }

    fn tick(&self, now: u64, lease: u64) -> Result<(), GrmError> {
        let (tx, _rx) = bounded(1);
        self.send(WireRequest::Tick { now, lease }, None, Pending::Unit(tx)).map(|_gen| ())
    }
}

/// The demux loop: decode frames off the socket, route responses to
/// their waiters by correlation id. The socket is read with a short
/// poll timeout; every ~20 ms (quiet or busy) the loop sweeps in-flight
/// calls whose deadline has passed, failing them with the retryable
/// `DeadlineExceeded` — so a peer that stalls without closing cannot
/// hang a call forever. Exits on EOF or a fatal protocol error, failing
/// every in-flight call.
fn read_loop(mut socket: Socket, pending: PendingMap, inner: std::sync::Weak<Inner>) {
    let mut dec = FrameDecoder::new();
    let mut buf = [0u8; 16 * 1024];
    let mut last_sweep = Instant::now();
    let fatal: GrmError = 'outer: loop {
        if last_sweep.elapsed() >= POLL {
            sweep_expired(&pending);
            last_sweep = Instant::now();
        }
        match socket.read(&mut buf) {
            Ok(0) => break GrmError::ConnectionReset,
            Ok(n) => {
                dec.push(&buf[..n]);
                loop {
                    match dec.next_frame() {
                        Ok(Some(payload)) => match ResponseFrame::decode(&payload) {
                            Ok(frame) => {
                                let waiter = pending.lock().remove(&frame.corr);
                                if let Some(p) = waiter {
                                    p.waiter.complete(frame.resp);
                                }
                            }
                            Err(e) => {
                                // A framed-but-undecodable response: a
                                // codec mismatch. Fail the one call if
                                // the corr prefix is readable; anything
                                // beyond that is unrecoverable.
                                if payload.len() >= 8 {
                                    let corr = u64::from_le_bytes(
                                        payload[..8].try_into().expect("8-byte prefix"),
                                    );
                                    let waiter = pending.lock().remove(&corr);
                                    if let Some(p) = waiter {
                                        p.waiter.fail(e.clone());
                                    }
                                } else {
                                    break 'outer e;
                                }
                            }
                        },
                        Ok(None) => break,
                        // Bad CRC: decoder resynced past it; the lost
                        // reply's call completes via a duplicate or
                        // dies with the connection.
                        Err(_) => continue,
                    }
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::Interrupted
                    || e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => break GrmError::ConnectionReset,
        }
    };
    fail_all(&pending, &fatal);
    // Clear the shared slot iff it still refers to this connection, so
    // the next call reconnects instead of writing into a corpse.
    if let Some(inner) = inner.upgrade() {
        let mut guard = inner.conn.lock();
        if let Some(conn) = guard.as_ref() {
            if Arc::ptr_eq(&conn.pending, &pending) {
                if let Some(conn) = guard.take() {
                    conn.writer.shutdown();
                }
            }
        }
    }
}
