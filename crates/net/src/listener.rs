//! The GRM daemon: a `GrmServer` behind a real socket.
//!
//! [`GrmListener`] accepts Unix-domain or TCP connections, decodes
//! [`crate::wire::RequestFrame`]s, drives the in-process [`GrmServer`],
//! and writes every decision to the [`crate::journal::DurableJournal`]
//! **before** the response frame leaves the process (write-ahead-of-
//! reply). Combined with [`crate::journal::FsyncPolicy::EveryOp`] this
//! gives at-most-once settlement across a kill -9: a decision a client
//! observed is durable, so a retry straddling the crash replays the
//! original decision out of the recovered dedup window instead of
//! re-executing.
//!
//! # Runs: submit order, commit turns
//!
//! Each connection runs two threads. After every socket read the
//! *reader* takes the complete frames the decoder holds — at most
//! `RUN_MAX` at a time — as one **run**: it submits them to the GRM in
//! order *without blocking* (the serve loop drains them as one window, a
//! hierarchical engine admits them as one batch), collects the
//! decisions, appends the run's records with one journal write, and
//! queues the run's replies as one entry, which the *writer* puts on the
//! wire with one write once the run's last LSN is durable. A lone frame
//! is a run of one through the same code. Clients multiplex by
//! correlation id, so reply order within a connection carries no meaning.
//!
//! Connections race like the in-process federation's threads do. A run's
//! place in the journal is fixed when it is *submitted* — a ticket taken
//! under the short lock that also orders the mailbox sends — and runs
//! append in ticket order: journal order = execution order, so the
//! recovery fold replays exactly the interleaving that happened. The
//! journal lock is held for the append only, never across engine time.
//! The ticket is an RAII guard: a connection that dies between submit
//! and commit passes its turn on instead of wedging the rest. A
//! sequenced frame, a read, and a multi-resource request (no
//! non-blocking entry point: decided under the submit lock) each close
//! the open run and execute as a run of one. DESIGN.md §17 has the why.
//!
//! # Group commit
//!
//! Under [`crate::journal::FsyncPolicy::Batched`] the commit path never
//! fsyncs. Every state-mutating record is appended (write-ahead) and its
//! reply is tagged with the record's LSN; a dedicated *syncer* thread
//! accumulates appends until the group fills (`max_pending`) or the
//! oldest append has waited [`ListenerConfig::max_hold`], then issues
//! **one** fsync — on a duplicate fd, outside the journal lock, so
//! execution never stalls behind the disk — and advances the durable
//! watermark. Writers release a reply only once the watermark covers its
//! LSN, so the write-ahead-of-reply invariant (and with it at-most-once
//! settlement across kill -9) holds under group commit exactly as it
//! does under `EveryOp`; the fsync cost is simply amortized over the
//! whole group. If an fsync or an append fails the listener fail-stops
//! (the segment may end mid-frame, and recovery keeps nothing behind the
//! damage): gated replies are dropped with their connections, and later
//! journaled ops are refused with `JOURNAL_DOWN` before they reach the
//! GRM — the client never observes an undurable decision.
//!
//! # Duplicate suppression in the journal
//!
//! The listener keeps a live [`RecoveredState`] mirror — the exact fold
//! recovery would compute — alongside the journal. A decision whose
//! `RequestId` is already in the mirror's dedup window was answered from
//! the server's cache; journaling it again would double-apply its pool
//! effect on replay, so it is skipped. The reply to a suppressed
//! duplicate still gates on the current append cursor: the *original*
//! decision's covering fsync may be outstanding, and the duplicate must
//! not leak it early. The mirror also supplies compaction snapshots:
//! when the live segment exceeds [`ListenerConfig::compact_every`]
//! records, the journal rolls to a fresh segment seeded with the mirror
//! state and deletes the old ones.
//!
//! # Sequenced replay mode
//!
//! With [`ListenerConfig::sequenced`], request frames carry a global
//! event sequence and a `Sequencer` admits them strictly in order:
//! event *k* executes and journals before *k*+1 starts. This is what
//! makes a multi-process replay bit-compatible with the in-process run —
//! the GRM observes the identical event order, so every draw and every
//! admit/deny decision matches. The cursor advances as soon as the
//! record is *appended*; the reply still waits for its covering fsync,
//! so sequencing composes with group commit (execution stays totally
//! ordered while fsyncs amortize across the pipeline). Events below the
//! cursor (retries of already-applied events, including retries
//! straddling a restart) are acked without re-applying. A connection
//! must not pipeline sequenced events out of order *with each other*;
//! pipelined federation workers keep per-connection sends in ascending
//! sequence order, which is all the serial reader needs.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use agreements_grm::{GrmClient, GrmError, GrmHandle, GrmServer, RequestId};
use agreements_sched::{Allocation, MultiAllocation};
use agreements_telemetry::{HistKind, Telemetry};
use crossbeam::channel::Receiver;
use parking_lot::Mutex;

use crate::frame::{FrameDecoder, FRAME_OVERHEAD, MAX_FRAME_LEN};
use crate::journal::{
    DecisionBody, DurableJournal, FsyncPolicy, JournalRecord, RecoveredState, Snapshot,
};
use crate::wire::{frame_with, RequestFrame, ResponseFrame, WireRequest, WireResponse};

/// How long blocked reads and sequencer waits go between checks of the
/// shutdown flag.
const POLL: Duration = Duration::from_millis(50);

/// Longest run, in frames: the quantum for which one connection holds
/// its turn while the others wait. Unbounded runs let equally loaded
/// connections drift apart (DESIGN.md §17); the gain is flat past 16.
const RUN_MAX: usize = 16;

/// Listener tuning knobs.
#[derive(Debug, Clone)]
pub struct ListenerConfig {
    /// Enforce global event ordering via `replay_seq` (deterministic
    /// federation replay). Off by default: normal operation lets
    /// connections race like the in-process federation's threads do.
    pub sequenced: bool,
    /// Compact the journal when the live segment exceeds this many
    /// records; `0` disables auto-compaction.
    pub compact_every: u64,
    /// Group-commit hold timer: under `FsyncPolicy::Batched`, how long
    /// the syncer lets a partial group wait for more appends before
    /// fsyncing it anyway. Bounds reply latency when load is light.
    pub max_hold: Duration,
    /// Telemetry plane for fsync latency and frame-size histograms.
    pub telemetry: Telemetry,
}

impl Default for ListenerConfig {
    fn default() -> Self {
        ListenerConfig {
            sequenced: false,
            compact_every: 8192,
            max_hold: Duration::from_millis(2),
            telemetry: Telemetry::disabled(),
        }
    }
}

/// Admits sequenced events strictly in order (see module docs).
struct SeqState {
    next: u64,
    /// The cursor event is currently executing on some connection: a
    /// second copy of the same seq (a retry racing on another socket
    /// after a reconnect) must wait for the execution to finish and then
    /// take the stale path, not execute Fresh a second time.
    claimed: bool,
}

struct Sequencer {
    state: std::sync::Mutex<SeqState>,
    cv: std::sync::Condvar,
}

enum Admission {
    /// This event is the cursor: execute and journal it.
    Fresh,
    /// Already applied before (a retry): ack idempotently.
    Stale,
    /// The listener is shutting down: drop the frame.
    Aborted,
}

impl Sequencer {
    fn new(next: u64) -> Sequencer {
        Sequencer {
            state: std::sync::Mutex::new(SeqState { next, claimed: false }),
            cv: std::sync::Condvar::new(),
        }
    }

    fn enter(&self, seq: u64, shutdown: &AtomicBool) -> Admission {
        let mut st = self.state.lock().expect("sequencer poisoned");
        loop {
            if st.next > seq {
                return Admission::Stale;
            }
            if st.next == seq && !st.claimed {
                st.claimed = true;
                return Admission::Fresh;
            }
            if shutdown.load(Ordering::Relaxed) {
                return Admission::Aborted;
            }
            st = self.cv.wait_timeout(st, POLL).expect("sequencer poisoned").0;
        }
    }

    fn exit(&self, seq: u64) {
        let mut st = self.state.lock().expect("sequencer poisoned");
        if st.next == seq {
            st.next = seq + 1;
            st.claimed = false;
        }
        drop(st);
        self.cv.notify_all();
    }
}

/// The group-commit watermarks: how far the journal has appended, how
/// far fsyncs cover. Replies gate on `synced`; the syncer thread waits
/// on `work` for the gap to reopen.
#[derive(Default)]
struct DurState {
    appended: u64,
    synced: u64,
    /// An fsync failed: nothing past `synced` will ever be durable.
    failed: bool,
}

#[derive(Default)]
struct Durability {
    state: std::sync::Mutex<DurState>,
    /// Wakes the syncer when appends arrive.
    work: std::sync::Condvar,
    /// Wakes reply gates when the durable watermark advances.
    done: std::sync::Condvar,
}

impl Durability {
    /// Fold fresh journal counters in (both watermarks only ever move
    /// forward). Returns how many records the `synced` watermark
    /// advanced over.
    fn advance(&self, appended: u64, synced: u64) -> u64 {
        let mut st = self.state.lock().expect("durability poisoned");
        if appended > st.appended {
            st.appended = appended;
            self.work.notify_one();
        }
        let covered = synced.saturating_sub(st.synced);
        if covered > 0 {
            st.synced = synced;
            self.done.notify_all();
        }
        covered
    }

    fn fail(&self) {
        let mut st = self.state.lock().expect("durability poisoned");
        st.failed = true;
        drop(st);
        self.work.notify_all();
        self.done.notify_all();
    }
}

/// Submit-order/commit-turn bookkeeping (see module docs). `submit` is
/// held while a run's messages go into the GRM mailbox and counts the
/// tickets handed out; `serving` is the ticket whose run may append now.
#[derive(Default)]
struct Turns {
    submit: Mutex<u64>,
    serving: std::sync::Mutex<u64>,
    passed: std::sync::Condvar,
}

/// A run's place in the journal, fixed when it was submitted. Dropping
/// it — after the append, or because the connection thread died first —
/// passes the turn to the next ticket, in order.
struct Turn<'a> {
    turns: &'a Turns,
    ticket: u64,
}

impl Turn<'_> {
    /// Block until every earlier run has committed or given up its turn.
    fn wait(&self) -> std::sync::MutexGuard<'_, u64> {
        let mut now = self.turns.serving.lock().unwrap_or_else(|e| e.into_inner());
        while *now != self.ticket {
            now = self.turns.passed.wait(now).unwrap_or_else(|e| e.into_inner());
        }
        now
    }
}

impl Drop for Turn<'_> {
    fn drop(&mut self) {
        *self.wait() += 1;
        self.turns.passed.notify_all();
    }
}

struct Shared {
    handle: GrmHandle,
    /// The journal plus its live recovery mirror; one lock so append,
    /// mirror-fold and compaction are atomic. Runs take it in turn order.
    journal: Mutex<(DurableJournal, RecoveredState)>,
    turns: Turns,
    sequencer: Option<Sequencer>,
    durability: Durability,
    telemetry: Telemetry,
    shutdown: AtomicBool,
    compact_every: u64,
    /// Frames that passed CRC but did not decode as a request.
    undecodable: AtomicU64,
    /// Completed group-commit fsyncs (syncer thread only).
    group_syncs: AtomicU64,
    /// Records covered by those fsyncs.
    group_records: AtomicU64,
}

impl Shared {
    /// Propagate the journal's LSN counters into the durability plane.
    fn publish_durability(&self, guard: &(DurableJournal, RecoveredState)) {
        self.durability.advance(guard.0.appended_lsn(), guard.0.synced_lsn());
    }

    /// Block until everything up to `lsn` is durable. Returns `false`
    /// when it never will be (fsync failure): the caller must drop the
    /// reply rather than leak an undurable decision. On shutdown the
    /// waiter forces a final inline sync so queued replies flush.
    fn wait_durable(&self, lsn: u64) -> bool {
        loop {
            {
                let mut st = self.durability.state.lock().expect("durability poisoned");
                loop {
                    if st.synced >= lsn {
                        return true;
                    }
                    if st.failed {
                        return false;
                    }
                    if self.shutdown.load(Ordering::Relaxed) {
                        break;
                    }
                    st =
                        self.durability.done.wait_timeout(st, POLL).expect("durability poisoned").0;
                }
            }
            // Shutting down: sync inline instead of waiting for a syncer
            // that may already have exited.
            let mut guard = self.journal.lock();
            let ok = guard.0.sync().is_ok();
            self.publish_durability(&guard);
            drop(guard);
            if !ok {
                self.durability.fail();
                return false;
            }
        }
    }
}

/// A daemon serving one [`GrmServer`] over a socket, journaling every
/// decision before it is acknowledged. See the module docs.
pub struct GrmListener {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    syncer: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
    server: Option<GrmServer>,
    tcp_addr: Option<SocketAddr>,
    uds_path: Option<PathBuf>,
}

impl GrmListener {
    /// Serve `server` on a Unix-domain socket at `path`. A stale socket
    /// file from a previous (possibly killed) daemon is removed first.
    /// `journal` and `recovered` come from [`DurableJournal::open_or_create`].
    pub fn bind_uds(
        path: &Path,
        server: GrmServer,
        journal: DurableJournal,
        recovered: RecoveredState,
        config: ListenerConfig,
    ) -> io::Result<GrmListener> {
        crate::uds_path_check(path)?;
        match std::fs::remove_file(path) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
            _ => {}
        }
        let listener = UnixListener::bind(path)?;
        listener.set_nonblocking(true)?;
        let mut l = Self::assemble(server, journal, recovered, config);
        l.uds_path = Some(path.to_path_buf());
        l.spawn_accept(move || {
            let (s, _) = listener.accept()?;
            s.set_nonblocking(false)?;
            s.set_read_timeout(Some(POLL))?;
            Ok(s)
        });
        Ok(l)
    }

    /// Serve `server` on a TCP socket; `addr` may be `"127.0.0.1:0"` to
    /// let the OS pick a port (see [`GrmListener::tcp_addr`]).
    pub fn bind_tcp(
        addr: &str,
        server: GrmServer,
        journal: DurableJournal,
        recovered: RecoveredState,
        config: ListenerConfig,
    ) -> io::Result<GrmListener> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let mut l = Self::assemble(server, journal, recovered, config);
        l.tcp_addr = Some(listener.local_addr()?);
        l.spawn_accept(move || {
            let (s, _) = listener.accept()?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(POLL))?;
            Ok(s)
        });
        Ok(l)
    }

    /// Start the accept thread: `accept` yields the next connection,
    /// configured, or `WouldBlock` when none is pending.
    fn spawn_accept<S: Stream + 'static>(
        &mut self,
        mut accept: impl FnMut() -> io::Result<S> + Send + 'static,
    ) {
        let shared = Arc::clone(&self.shared);
        let conns = Arc::clone(&self.conns);
        self.accept = Some(thread::spawn(move || {
            while !shared.shutdown.load(Ordering::Relaxed) {
                match accept() {
                    Ok(stream) => {
                        let shared = Arc::clone(&shared);
                        let mut conns = conns.lock();
                        // Hold one handle per live connection, not one per
                        // connection ever made: reconnecting clients would
                        // otherwise grow this for the daemon's lifetime.
                        conns.retain(|conn| !conn.is_finished());
                        conns.push(thread::spawn(move || serve_conn(Box::new(stream), &shared)));
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        thread::sleep(Duration::from_millis(2));
                    }
                    Err(_) => break,
                }
            }
        }));
    }

    fn assemble(
        server: GrmServer,
        journal: DurableJournal,
        recovered: RecoveredState,
        config: ListenerConfig,
    ) -> GrmListener {
        let sequencer = config.sequenced.then(|| Sequencer::new(recovered.next_seq));
        let policy = journal.policy();
        let shared = Arc::new(Shared {
            handle: server.handle(),
            journal: Mutex::new((journal, recovered)),
            turns: Turns::default(),
            sequencer,
            durability: Durability::default(),
            telemetry: config.telemetry,
            shutdown: AtomicBool::new(false),
            compact_every: config.compact_every,
            undecodable: AtomicU64::new(0),
            group_syncs: AtomicU64::new(0),
            group_records: AtomicU64::new(0),
        });
        let syncer = match policy {
            FsyncPolicy::EveryOp => None,
            FsyncPolicy::Batched { max_pending } => {
                let shared = Arc::clone(&shared);
                let max_hold = config.max_hold;
                Some(thread::spawn(move || syncer_loop(&shared, max_pending, max_hold)))
            }
        };
        GrmListener {
            shared,
            accept: None,
            syncer,
            conns: Arc::new(Mutex::new(Vec::new())),
            server: Some(server),
            tcp_addr: None,
            uds_path: None,
        }
    }

    /// The bound TCP address (None for a UDS listener).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// In-process handle to the served GRM (for harness assertions).
    pub fn handle(&self) -> GrmHandle {
        self.shared.handle.clone()
    }

    /// A clone of the live recovery mirror — the state a crash right now
    /// would recover to.
    pub fn mirror(&self) -> RecoveredState {
        self.shared.journal.lock().1.clone()
    }

    /// Snapshot of the live mirror (compaction/inspection helper).
    pub fn mirror_snapshot(&self) -> Snapshot {
        self.shared.journal.lock().1.snapshot()
    }

    /// Frames that passed CRC but failed request decoding.
    pub fn undecodable_frames(&self) -> u64 {
        self.shared.undecodable.load(Ordering::Relaxed)
    }

    /// Group-commit amortization counters: `(fsyncs, records covered)`.
    /// Both zero under `FsyncPolicy::EveryOp`.
    pub fn group_commit_stats(&self) -> (u64, u64) {
        (
            self.shared.group_syncs.load(Ordering::Relaxed),
            self.shared.group_records.load(Ordering::Relaxed),
        )
    }

    /// Stop accepting, drain connection threads, sync the journal, and
    /// shut the served GRM down.
    pub fn shutdown(self) {
        drop(self);
    }

    fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(j) = self.accept.take() {
            let _ = j.join();
        }
        let joins: Vec<_> = self.conns.lock().drain(..).collect();
        for j in joins {
            let _ = j.join();
        }
        if let Some(j) = self.syncer.take() {
            let _ = j.join();
        }
        let mut guard = self.shared.journal.lock();
        let _ = guard.0.sync();
        self.shared.publish_durability(&guard);
        drop(guard);
        if let Some(path) = self.uds_path.take() {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Drop for GrmListener {
    fn drop(&mut self) {
        self.stop();
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

/// The two stream types, unified for the connection handler. Reader and
/// writer threads work independent clones; `shutdown_both` kills the
/// underlying socket so the peer (and the sibling thread) unblocks.
trait Stream: Read + Write + Send {
    fn try_clone_box(&self) -> io::Result<Box<dyn Stream>>;
    fn shutdown_both(&self);
}

macro_rules! impl_stream {
    ($($socket:ty),*) => {$(
        impl Stream for $socket {
            fn try_clone_box(&self) -> io::Result<Box<dyn Stream>> {
                Ok(Box::new(self.try_clone()?))
            }

            fn shutdown_both(&self) {
                let _ = self.shutdown(Shutdown::Both);
            }
        }
    )*};
}
impl_stream!(UnixStream, TcpStream);

/// The group-commit syncer: waits for the append watermark to pass the
/// durable one, lets a group accumulate (up to `max_pending` records or
/// `max_hold`, whichever first), then fsyncs once for the whole group —
/// on a duplicate fd, outside the journal lock, so execution continues
/// appending the next group while the disk works on this one.
fn syncer_loop(shared: &Shared, max_pending: usize, max_hold: Duration) {
    loop {
        {
            let mut st = shared.durability.state.lock().expect("durability poisoned");
            while st.appended == st.synced && !st.failed {
                if shared.shutdown.load(Ordering::Relaxed) {
                    return;
                }
                st = shared.durability.work.wait_timeout(st, POLL).expect("durability poisoned").0;
            }
            if st.failed {
                return;
            }
            // Hold the partial group open for stragglers.
            let deadline = Instant::now() + max_hold;
            while ((st.appended - st.synced) as usize) < max_pending && !st.failed {
                let now = Instant::now();
                if now >= deadline || shared.shutdown.load(Ordering::Relaxed) {
                    break;
                }
                st = shared
                    .durability
                    .work
                    .wait_timeout(st, deadline - now)
                    .expect("durability poisoned")
                    .0;
            }
            if st.failed {
                return;
            }
        }
        // Capture the sync target and a duplicate fd together, then
        // fsync without any lock held. Compaction syncs before rolling
        // segments, so everything up to `target` that is not in this fd
        // is durable already (see `DurableJournal::sync_handle`).
        let (target, handle) = {
            let guard = shared.journal.lock();
            (guard.0.appended_lsn(), guard.0.sync_handle())
        };
        let file = match handle {
            Ok(f) => f,
            Err(_) => {
                shared.durability.fail();
                return;
            }
        };
        let span = shared.telemetry.start();
        if file.sync_data().is_err() {
            shared.durability.fail();
            return;
        }
        shared.telemetry.stop(HistKind::JournalFsyncSeconds, span);
        {
            let mut guard = shared.journal.lock();
            guard.0.note_synced(target);
        }
        let covered = shared.durability.advance(0, target);
        shared.group_syncs.fetch_add(1, Ordering::Relaxed);
        shared.group_records.fetch_add(covered, Ordering::Relaxed);
        // `covered` is the unsynced tail this fsync retired — exactly
        // what a power cut an instant earlier would have lost. The
        // histogram is the loss-window curve's raw material.
        shared.telemetry.observe(HistKind::GroupCommitRecords, covered as f64);
    }
}

/// One reply-queue entry: a run's durability gate (0 = none) and its
/// already framed responses, back to back.
type QueuedReplies = (u64, Vec<u8>);

fn serve_conn(mut stream: Box<dyn Stream>, shared: &Arc<Shared>) {
    let Ok(writer_stream) = stream.try_clone_box() else { return };
    let (tx, rx) = mpsc::channel::<QueuedReplies>();
    let writer_shared = Arc::clone(shared);
    let writer = thread::spawn(move || reply_writer(writer_stream, rx, &writer_shared));
    let mut dec = FrameDecoder::new();
    let mut buf = [0u8; 16 * 1024];
    while !shared.shutdown.load(Ordering::Relaxed) {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                dec.push(&buf[..n]);
                if shared.serve_frames(&mut dec, &tx).is_err() {
                    break;
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::Interrupted =>
            {
                continue;
            }
            Err(_) => break,
        }
    }
    drop(tx);
    let _ = writer.join();
}

/// The reply side of a connection: waits each queued run's durability
/// gate, then puts its replies on the wire with one write. A run whose
/// gate can never be satisfied (journal failure) is dropped and the
/// connection killed — the client must retry rather than observe an
/// undurable decision.
fn reply_writer(mut out: Box<dyn Stream>, rx: mpsc::Receiver<QueuedReplies>, shared: &Shared) {
    loop {
        let (gate, bytes) = match rx.recv_timeout(POLL) {
            Ok(v) => v,
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => return,
        };
        let durable = gate == 0 || shared.wait_durable(gate);
        if !durable || out.write_all(&bytes).and_then(|()| out.flush()).is_err() {
            out.shutdown_both();
            return;
        }
    }
}

const JOURNAL_DOWN: GrmError = GrmError::Unsupported("agreement journal unavailable");

/// Is this decision outcome worth journaling?
fn journalable(err: &GrmError) -> bool {
    !matches!(
        err,
        GrmError::Disconnected
            | GrmError::DeadlineExceeded { .. }
            | GrmError::RetriesExhausted { .. }
            | GrmError::ConnectionRefused
            | GrmError::ConnectionReset
    )
}

/// What a submitted frame's reply is waiting on.
enum Wait {
    /// Nothing: answered at submit time, nothing to journal.
    Done(WireResponse),
    /// A read, issued at collect time (outside the submit lock).
    Read(WireRequest),
    /// A report (`lrm`, `available`) now in the mailbox: journal, then ack.
    Report(u64, f64),
    Grant(Receiver<Result<Allocation, GrmError>>),
    /// A release's ack, and the draws its journal record carries.
    Release(Receiver<Result<(), GrmError>>, Vec<f64>),
    /// A replay settlement's ack, and its `lrm` and `amount`.
    Replay(Receiver<Result<(), GrmError>>, u64, f64),
    /// Decided by a blocking call under the submit lock.
    GrantMulti(Result<MultiAllocation, GrmError>),
}

/// A collected frame: its reply, or the record the journal must hold
/// before that reply leaves.
enum Outcome {
    /// No durability gate: reads, soft state, refusals, transport errors.
    Plain(WireResponse),
    Journal(JournalRecord),
}

/// The reply a journaled outcome carries — or, once the journal is
/// `down`, `JOURNAL_DOWN` in the same reply kind.
fn reply_of(rec: JournalRecord, down: bool) -> WireResponse {
    let fail = down.then_some(JOURNAL_DOWN);
    match rec {
        JournalRecord::Decision { body: DecisionBody::Grant(res), .. } => {
            WireResponse::Grant(fail.map_or(res, Err))
        }
        JournalRecord::Decision { body: DecisionBody::GrantMulti(res), .. } => {
            WireResponse::GrantMulti(fail.map_or(res, Err))
        }
        JournalRecord::Decision {
            body: DecisionBody::Release { result, .. } | DecisionBody::Replay { result, .. },
            ..
        } => WireResponse::Unit(fail.map_or(result, Err)),
        _ => WireResponse::Unit(fail.map_or(Ok(()), Err)),
    }
}

fn recv<T>(rx: Receiver<Result<T, GrmError>>) -> Result<T, GrmError> {
    rx.recv().map_err(|_| GrmError::Disconnected)?
}

impl Shared {
    /// Execute every complete frame the decoder holds, as runs; a
    /// sequenced frame, a read or a multi-resource request closes the
    /// open run. `Err` only when replies can no longer be queued.
    fn serve_frames(
        &self,
        dec: &mut FrameDecoder,
        tx: &mpsc::Sender<QueuedReplies>,
    ) -> io::Result<()> {
        let mut run: Vec<RequestFrame> = Vec::new();
        loop {
            let payload = match dec.next_frame() {
                Ok(Some(payload)) => payload,
                Ok(None) => break,
                // Corrupt frame: the decoder resynced; the lost request
                // is the sender's retry problem.
                Err(_) => continue,
            };
            self.telemetry.observe(HistKind::FrameBytes, (payload.len() + FRAME_OVERHEAD) as f64);
            let Ok(rf) = RequestFrame::decode(&payload) else {
                self.undecodable.fetch_add(1, Ordering::Relaxed);
                continue;
            };
            let sequenced = self.sequencer.as_ref().zip(rf.replay_seq);
            let blocking = matches!(
                rf.req,
                WireRequest::Availability
                    | WireRequest::Stats
                    | WireRequest::AvailabilityMulti
                    | WireRequest::RequestMulti { .. }
            );
            if sequenced.is_none() && !blocking {
                run.push(rf);
                if run.len() == RUN_MAX {
                    self.execute_run(&mut run, None, false, tx)?;
                }
                continue;
            }
            self.execute_run(&mut run, None, false, tx)?;
            run.push(rf);
            match sequenced {
                None => self.execute_run(&mut run, None, false, tx)?,
                Some((seq, no)) => match seq.enter(no, &self.shutdown) {
                    Admission::Aborted => run.clear(),
                    Admission::Stale => self.execute_run(&mut run, None, true, tx)?,
                    Admission::Fresh => {
                        let queued = self.execute_run(&mut run, Some(no), false, tx);
                        // The cursor advances on append, not on fsync: the
                        // next event executes while this reply waits for
                        // its group.
                        seq.exit(no);
                        queued?;
                    }
                },
            }
        }
        self.execute_run(&mut run, None, false, tx)
    }

    /// Execute one run (see module docs): submit, collect, commit, queue
    /// the replies as one entry gated on the run's last LSN. `seq` (the
    /// replay sequence) and `stale` (below the replay cursor) are only
    /// ever set on a sequenced run of one.
    fn execute_run(
        &self,
        run: &mut Vec<RequestFrame>,
        seq: Option<u64>,
        stale: bool,
        tx: &mpsc::Sender<QueuedReplies>,
    ) -> io::Result<()> {
        if run.is_empty() {
            return Ok(());
        }
        let down = self.durability.state.lock().expect("durability poisoned").failed;
        let (turn, waits) = {
            let mut next = self.turns.submit.lock();
            let waits: Vec<_> = run.drain(..).map(|rf| self.submit(rf, stale, down)).collect();
            *next += 1;
            (Turn { turns: &self.turns, ticket: *next - 1 }, waits)
        };
        let outcomes: Vec<(u64, Outcome)> =
            waits.into_iter().map(|(corr, id, wait)| (corr, self.collect(wait, seq, id))).collect();
        let committed = self.commit(turn, &outcomes);
        if committed.is_err() {
            // Fail-stop: the segment may end mid-frame, and recovery
            // would discard everything appended behind the damage.
            self.durability.fail();
        }
        let mut bytes = Vec::new();
        for (corr, outcome) in outcomes {
            let resp = match outcome {
                Outcome::Plain(resp) => resp,
                Outcome::Journal(rec) => reply_of(rec, committed.is_err()),
            };
            let at = bytes.len();
            frame_with(&mut bytes, MAX_FRAME_LEN, |w| ResponseFrame { corr, resp }.put(w))
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
            self.telemetry.observe(HistKind::FrameBytes, (bytes.len() - at) as f64);
        }
        tx.send((committed.unwrap_or(0), bytes))
            .map_err(|_| io::Error::from(io::ErrorKind::BrokenPipe))
    }

    /// Put one frame's message in the GRM mailbox (the caller holds the
    /// submit lock); returns its correlation id, its idempotency id and
    /// what its reply waits on. Once the journal is `down`, journaled
    /// kinds are refused before they reach the GRM. A `stale` event was
    /// applied and journaled before a crash or retransmission: reports
    /// and ticks are acked without re-applying (that would rewind the
    /// pools); idempotent RPCs are forwarded, so the dedup window serves
    /// the original decision and the mirror suppresses its record.
    fn submit(&self, rf: RequestFrame, stale: bool, down: bool) -> (u64, Option<RequestId>, Wait) {
        const ACK: Wait = Wait::Done(WireResponse::Unit(Ok(())));
        let h = &self.handle;
        let id = rf.req.req_id();
        let refuse: fn(GrmError) -> WireResponse = match &rf.req {
            WireRequest::Request { .. } => |e| WireResponse::Grant(Err(e)),
            WireRequest::RequestMulti { .. } => |e| WireResponse::GrantMulti(Err(e)),
            _ => |e| WireResponse::Unit(Err(e)),
        };
        let wait = match rf.req {
            req @ (WireRequest::Availability
            | WireRequest::Stats
            | WireRequest::AvailabilityMulti) => Ok(Wait::Read(req)),
            WireRequest::Report { .. }
            | WireRequest::Tick { .. }
            | WireRequest::ReportMulti { .. }
                if stale =>
            {
                Ok(ACK)
            }
            // Lease expiry and multi-lane pools are soft state, corrected
            // by the next round of re-reports — never journaled.
            WireRequest::Tick { now, lease } => h.tick(now, lease).map(|()| ACK),
            WireRequest::ReportMulti { lrm, available } => {
                h.report_multi(lrm as usize, available).map(|()| ACK)
            }
            _ if down => Err(JOURNAL_DOWN),
            // A stale call without an id cannot be deduplicated; refuse
            // rather than silently settle it twice.
            _ if stale && id.is_none() => {
                Err(GrmError::Unsupported("stale sequenced call without an idempotency id"))
            }
            WireRequest::Report { lrm, available } => {
                h.report(lrm as usize, available).map(|()| Wait::Report(lrm, available))
            }
            WireRequest::Request { lrm, amount, req_id } => {
                GrmClient::issue_request(h, lrm as usize, amount, req_id).map(Wait::Grant)
            }
            WireRequest::Release { alloc, req_id } => {
                let draws = alloc.draws.clone();
                GrmClient::issue_release(h, alloc, req_id).map(|rx| Wait::Release(rx, draws))
            }
            WireRequest::ReplayGrant { req_id, lrm, amount } => {
                GrmClient::issue_replay(h, req_id, lrm as usize, amount)
                    .map(|rx| Wait::Replay(rx, lrm, amount))
            }
            WireRequest::RequestMulti { lrm, amounts, req_id } => {
                Ok(Wait::GrantMulti(match req_id {
                    Some(id) => h.request_multi_idempotent(lrm as usize, &amounts, id),
                    None => h.request_multi(lrm as usize, &amounts),
                }))
            }
        };
        (rf.corr, id, wait.unwrap_or_else(|e| Wait::Done(refuse(e))))
    }

    /// Block for one submitted frame's decision and say what its reply
    /// needs from the journal.
    fn collect(&self, wait: Wait, seq: Option<u64>, id: Option<RequestId>) -> Outcome {
        let h = &self.handle;
        let body = match wait {
            Wait::Done(resp) => return Outcome::Plain(resp),
            Wait::Read(req) => {
                let read = match req {
                    WireRequest::Availability => h.availability().map(WireResponse::Availability),
                    WireRequest::Stats => h.stats().map(|s| WireResponse::Stats(Box::new(s))),
                    _ => h.availability_multi().map(WireResponse::AvailabilityMulti),
                };
                return Outcome::Plain(read.unwrap_or_else(|e| WireResponse::Unit(Err(e))));
            }
            Wait::Report(lrm, available) => {
                return Outcome::Journal(JournalRecord::Report { seq, lrm, available })
            }
            Wait::Grant(rx) => DecisionBody::Grant(recv(rx)),
            Wait::Release(rx, draws) => DecisionBody::Release { draws, result: recv(rx) },
            Wait::Replay(rx, lrm, amount) => DecisionBody::Replay { lrm, amount, result: recv(rx) },
            Wait::GrantMulti(res) => DecisionBody::GrantMulti(res),
        };
        // Transport-layer errors (the in-process server died under us)
        // are not decisions, and are not journaled.
        let decided = body.error().is_none_or(journalable);
        let rec = JournalRecord::Decision { seq, id, body };
        if decided {
            Outcome::Journal(rec)
        } else {
            Outcome::Plain(reply_of(rec, false))
        }
    }

    /// Append the run's records when its turn comes — one write — fold
    /// the mirror, maybe compact, publish the LSN counters. Returns the
    /// run's durability gate: its last record's LSN — for a duplicate
    /// answered from cache and not re-journaled, the append cursor,
    /// which conservatively covers the original record — or 0 when
    /// nothing in the run waits on the journal.
    fn commit(&self, turn: Turn<'_>, outcomes: &[(u64, Outcome)]) -> io::Result<u64> {
        if outcomes.iter().all(|(_, o)| matches!(o, Outcome::Plain(_))) {
            return Ok(0);
        }
        drop(turn.wait());
        let mut guard = self.journal.lock();
        let (journal, mirror) = &mut *guard;
        // Fold before the write, so a re-issue later in the run sees the
        // id its original just put in the window. A failed write poisons
        // the listener, so a mirror ahead of the disk is never served.
        let mut fresh = Vec::new();
        for (_, outcome) in outcomes {
            if let Outcome::Journal(rec) = outcome {
                if !mirror.is_duplicate(rec) {
                    mirror.apply(rec);
                    fresh.push(rec);
                }
            }
        }
        let gate = journal.append_run(&fresh)?;
        if self.compact_every > 0 && journal.records_in_segment() >= self.compact_every {
            journal.compact(&mirror.snapshot())?;
        }
        self.publish_durability(&guard);
        Ok(gate)
    }
}

#[cfg(test)]
mod tests;
