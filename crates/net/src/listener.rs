//! The GRM daemon: a `GrmServer` behind a real socket.
//!
//! [`GrmListener`] accepts Unix-domain or TCP connections, decodes
//! [`crate::wire::RequestFrame`]s, executes them on the served GRM's
//! core ([`agreements_grm::GrmCore`]), and writes every decision to the
//! [`crate::journal::DurableJournal`] **before** the response frame
//! leaves the process (write-ahead-of-reply). Combined with
//! [`crate::journal::FsyncPolicy::EveryOp`] this gives at-most-once
//! settlement across a kill -9: a decision a client observed is durable,
//! so a retry straddling the crash replays the original decision out of
//! the recovered dedup window instead of re-executing.
//!
//! # Runs: one core, lock coupling
//!
//! Each connection runs two threads. After every socket read the
//! *reader* takes the complete frames the decoder holds — at most
//! `RUN_MAX` at a time — as one **run**: it executes them in order on
//! the core, under the core lock, appends the run's records with one
//! journal write, and queues the run's replies as one entry, which the
//! *writer* puts on the wire with one write once the run's last LSN is
//! durable. A lone frame is a run of one through the same code. Clients
//! multiplex by correlation id, so reply order within a connection
//! carries no meaning.
//!
//! Connections race like the in-process federation's threads do. A run
//! takes the journal lock *before* it releases the core lock, then
//! appends: journal order = execution order by construction, while the
//! next run executes during this one's append. No lock is held across a
//! socket, so a connection that dies mid-run wedges nobody. Only a
//! sequenced frame closes the open run. DESIGN.md §17 has the why.
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
//! # What is journaled, and compaction
//!
//! Only fresh decisions and applied reports are journaled (the core's
//! answers say which): a replayed duplicate's record would double-apply
//! its pool effect on recovery, and so would a report the core dropped.
//! A replayed duplicate's reply still gates on the append cursor, since
//! its *original*'s covering fsync may be outstanding. Past
//! [`ListenerConfig::compact_every`] records the journal rolls to a
//! segment seeded with a snapshot, in three steps that hold only what
//! each must:
//!
//! - under both locks, the snapshot is framed from borrows into a buffer
//!   the journal's holder keeps across compactions: pools and dedup
//!   window from the core, matrix and level as bound (no daemon path
//!   appends an agreement or membership record). Nothing is copied
//!   first;
//! - under the journal lock only, the roll: sync the old tail, create the
//!   segment, write the frame, fsync it, sync the directory;
//! - under no lock, once the run's replies are queued, its reader unlinks
//!   the superseded segments and syncs the directory.
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
use std::sync::{Arc, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use agreements_grm::{Answer, Call, GrmCore, GrmError, GrmServer, GrmStats};
use agreements_telemetry::{HistKind, Telemetry};
use parking_lot::Mutex;

use crate::frame::{FrameDecoder, FRAME_OVERHEAD, MAX_FRAME_LEN};
use crate::journal::{
    frame_live_snapshot, DecisionBody, DurableJournal, FsyncPolicy, JournalRecord, RecoveredState,
    Snapshot,
};
use crate::wire::{frame_with, RequestFrame, ResponseFrame, WireRequest, WireResponse};

/// How long blocked reads and sequencer waits go between checks of the
/// shutdown flag.
const POLL: Duration = Duration::from_millis(50);

/// Longest run, in frames: the quantum for which one connection holds
/// the core, then the journal, while the others wait. Unbounded runs let
/// equally loaded connections drift apart (DESIGN.md §17); the gain is
/// flat past 16.
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

/// The journal, and the cold part of every snapshot it is compacted to:
/// the matrix and level as bound (no daemon path appends an agreement or
/// membership record) and the replay cursor of the records appended.
struct Log {
    journal: DurableJournal,
    cold: Snapshot,
    /// The last compaction's snapshot frame, kept as the buffer the next
    /// one is encoded into.
    snapshot: Vec<u8>,
}

struct Shared {
    /// The served GRM's core: every run executes on it directly.
    core: GrmCore,
    /// Taken before a run releases the core lock (module docs).
    log: Mutex<Log>,
    sequencer: Option<Sequencer>,
    durability: Durability,
    telemetry: Telemetry,
    shutdown: AtomicBool,
    compact_every: u64,
    /// Frames that passed CRC but did not decode as a request.
    undecodable: AtomicU64,
    /// Frames the decoder skipped: bad magic, oversized, CRC mismatch.
    corrupt: AtomicU64,
    /// Completed group-commit fsyncs (syncer thread only).
    group_syncs: AtomicU64,
    /// Records covered by those fsyncs.
    group_records: AtomicU64,
}

impl Shared {
    /// Wake every thread parked on a condvar so it sees the shutdown
    /// flag now rather than at its next `POLL` timeout. Each condvar's
    /// mutex is taken first: a waiter checks the flag under that mutex,
    /// so the notification cannot fall between its check and its wait.
    /// Runs from `Drop`, and reads nothing the mutexes guard, so a
    /// poisoned one is taken all the same.
    fn wake_waiters(&self) {
        let durability = self.durability.state.lock().unwrap_or_else(PoisonError::into_inner);
        self.durability.work.notify_all();
        self.durability.done.notify_all();
        drop(durability);
        if let Some(seq) = &self.sequencer {
            let _state = seq.state.lock().unwrap_or_else(PoisonError::into_inner);
            seq.cv.notify_all();
        }
    }

    /// Propagate the journal's LSN counters into the durability plane.
    fn publish_durability(&self, journal: &DurableJournal) {
        self.durability.advance(journal.appended_lsn(), journal.synced_lsn());
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
            let mut log = self.log.lock();
            let ok = log.journal.sync().is_ok();
            self.publish_durability(&log.journal);
            drop(log);
            if !ok {
                self.durability.fail();
                return false;
            }
        }
    }
}

/// A daemon serving one [`GrmServer`] over a socket, journaling every
/// decision before it is acknowledged. It holds the server's core, not
/// the server: every write to the core is a journaled run, and dropping
/// the listener drops the core. See the module docs.
pub struct GrmListener {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    syncer: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
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
        let mut l = Self::assemble(server, journal, recovered, config)?;
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
        let mut l = Self::assemble(server, journal, recovered, config)?;
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
    ) -> io::Result<GrmListener> {
        let sequencer = config.sequenced.then(|| Sequencer::new(recovered.next_seq));
        let policy = journal.policy();
        // Whatever the server was seeded with has executed already: no
        // queue holds a report that could overwrite a run.
        let core = server.core();
        let RecoveredState { matrix, level, next_seq, .. } = recovered;
        let cold =
            Snapshot { matrix, level, availability: Vec::new(), next_seq, dedup: Vec::new() };
        let shared = Arc::new(Shared {
            core,
            log: Mutex::new(Log { journal, cold, snapshot: Vec::new() }),
            sequencer,
            durability: Durability::default(),
            telemetry: config.telemetry,
            shutdown: AtomicBool::new(false),
            compact_every: config.compact_every,
            undecodable: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
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
        Ok(GrmListener {
            shared,
            accept: None,
            syncer,
            conns: Arc::new(Mutex::new(Vec::new())),
            tcp_addr: None,
            uds_path: None,
        })
    }

    /// The bound TCP address (None for a UDS listener).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// Execute `call` on the served core as a run of one. For reads only:
    /// every write goes through a journaled run.
    fn read(&self, call: Call) -> Answer {
        self.shared
            .core
            .execute(&[call], |mut answers, _, _| answers.pop())
            .expect("one answer per call")
    }

    /// The served GRM's operational counters.
    pub fn stats(&self) -> GrmStats {
        let Answer::Stats(stats) = self.read(Call::Stats) else {
            unreachable!("a Stats call answers Stats")
        };
        stats
    }

    /// The served GRM's single-pool availability view; refused on more
    /// than one lane, as [`agreements_grm::GrmHandle::availability`] is.
    pub fn availability(&self) -> Result<Vec<f64>, GrmError> {
        let Answer::Availability(view) = self.read(Call::Availability) else {
            unreachable!("an Availability call answers Availability")
        };
        view
    }

    /// A snapshot of the journaled state — what a compaction right now
    /// would write: the core's pools and dedup window, copied under both
    /// locks, plus the cold part. Lease expiry and multi-lane reports are
    /// never journaled, so the pools may differ from what the journal
    /// folds to there.
    pub fn mirror_snapshot(&self) -> Snapshot {
        let shared = &self.shared;
        shared.core.execute(&[], |_, pools, dedup| Snapshot {
            availability: pools.to_vec(),
            dedup: dedup.iter().map(|(id, d)| (*id, d.clone())).collect(),
            ..shared.log.lock().cold.clone()
        })
    }

    /// Frames that passed CRC but failed request decoding.
    pub fn undecodable_frames(&self) -> u64 {
        self.shared.undecodable.load(Ordering::Relaxed)
    }

    /// Frames dropped before decoding, across connections: a bad magic,
    /// an oversized length prefix or a CRC mismatch (the decoder's
    /// [`FrameError`](crate::frame::FrameError) cases). The request a
    /// damaged frame carried is lost; its sender's retry recovers it.
    pub fn corrupt_frames(&self) -> u64 {
        self.shared.corrupt.load(Ordering::Relaxed)
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
    /// drop the served GRM's core.
    pub fn shutdown(self) {
        drop(self);
    }

    fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.wake_waiters();
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
        let mut log = self.shared.log.lock();
        let _ = log.journal.sync();
        self.shared.publish_durability(&log.journal);
        drop(log);
        if let Some(path) = self.uds_path.take() {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Drop for GrmListener {
    fn drop(&mut self) {
        self.stop();
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
            let log = shared.log.lock();
            (log.journal.appended_lsn(), log.journal.sync_handle())
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
        // Advance under the log lock: a run publishing the journal's
        // watermark in between would otherwise retire these records
        // first, and the group counters would miss them.
        let covered = {
            let mut log = shared.log.lock();
            log.journal.note_synced(target);
            shared.durability.advance(0, target)
        };
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

/// One frame of a run: its correlation id, how to refuse it, and its
/// reply if it never reaches the core.
type RunFrame = (u64, fn(GrmError) -> WireResponse, Option<WireResponse>);

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

/// What a frame's reply needs from the journal (module docs).
enum Outcome {
    /// Nothing: reads, soft state, refusals, dropped reports.
    Plain(WireResponse),
    /// A decision replayed from the dedup window: the append cursor.
    Replayed(WireResponse),
    /// A fresh decision or an applied report: its record.
    Journal(JournalRecord),
}

impl Outcome {
    fn record(&self) -> Option<&JournalRecord> {
        let Outcome::Journal(rec) = self else { return None };
        Some(rec)
    }
}

/// How a frame is refused: an error in its reply kind.
fn refusal(req: &WireRequest) -> fn(GrmError) -> WireResponse {
    match req {
        WireRequest::Request { .. } => |e| WireResponse::Grant(Err(e)),
        WireRequest::RequestMulti { .. } => |e| WireResponse::GrantMulti(Err(e)),
        _ => |e| WireResponse::Unit(Err(e)),
    }
}

/// The call a frame executes, or its reply when it never reaches the
/// core. Once the journal is `down`, journaled kinds are refused. A
/// `stale` event was applied and journaled before a crash or
/// retransmission: reports and ticks are acked without re-applying (that
/// would rewind the pools); idempotent RPCs execute, so the dedup window
/// answers with the original decision.
fn call_of(req: WireRequest, stale: bool, down: bool) -> Result<Call, WireResponse> {
    let refuse = refusal(&req);
    let id = req.req_id();
    Ok(match req {
        WireRequest::Availability => Call::Availability,
        WireRequest::Stats => Call::Stats,
        WireRequest::AvailabilityMulti => Call::AvailabilityMulti,
        WireRequest::Report { .. } | WireRequest::Tick { .. } | WireRequest::ReportMulti { .. }
            if stale =>
        {
            return Err(WireResponse::Unit(Ok(())))
        }
        // Lease expiry and multi-lane pools are soft state, corrected by
        // the next round of re-reports — never journaled.
        WireRequest::Tick { now, lease } => Call::Tick { now, lease },
        WireRequest::ReportMulti { lrm, available } => {
            Call::ReportMulti { lrm: lrm as usize, available }
        }
        _ if down => return Err(refuse(JOURNAL_DOWN)),
        // A stale call without an id cannot be deduplicated; refuse
        // rather than silently settle it twice.
        _ if stale && id.is_none() => {
            return Err(refuse(GrmError::Unsupported(
                "stale sequenced call without an idempotency id",
            )))
        }
        WireRequest::Report { lrm, available } => Call::Report { lrm: lrm as usize, available },
        WireRequest::Request { lrm, amount, req_id } => {
            Call::Request { lrm: lrm as usize, amount, req_id }
        }
        WireRequest::Release { alloc, req_id } => Call::Release { alloc, req_id },
        WireRequest::ReplayGrant { req_id, lrm, amount } => {
            Call::ReplayGrant { req_id, lrm: lrm as usize, amount }
        }
        WireRequest::RequestMulti { lrm, amounts, req_id } => {
            Call::RequestMulti { lrm: lrm as usize, amounts, req_id }
        }
    })
}

/// An answer on the wire.
fn response(answer: Answer) -> WireResponse {
    match answer {
        Answer::Grant { result, .. } => WireResponse::Grant(result),
        Answer::GrantMulti { result, .. } => WireResponse::GrantMulti(result),
        Answer::Unit { result, .. } => WireResponse::Unit(result),
        Answer::Availability(res) => {
            res.map_or_else(|e| WireResponse::Unit(Err(e)), WireResponse::Availability)
        }
        Answer::AvailabilityMulti(lanes) => WireResponse::AvailabilityMulti(lanes),
        Answer::Stats(stats) => WireResponse::Stats(Box::new(stats)),
        // Reports and ticks are acked whether or not they applied.
        Answer::Applied(_) => WireResponse::Unit(Ok(())),
    }
}

/// A frame's outcome, from its call and the core's answer: only fresh
/// decisions and applied reports are journaled.
fn outcome(call: &Call, answer: Answer, seq: Option<u64>) -> Outcome {
    let decision = |id, body| Outcome::Journal(JournalRecord::Decision { seq, id, body });
    match (call, answer) {
        (&Call::Report { lrm, available }, Answer::Applied(true)) => {
            Outcome::Journal(JournalRecord::Report { seq, lrm: lrm as u64, available })
        }
        (&Call::Request { req_id, .. }, Answer::Grant { result, fresh: true }) => {
            decision(req_id, DecisionBody::Grant(result))
        }
        (&Call::RequestMulti { req_id, .. }, Answer::GrantMulti { result, fresh: true }) => {
            decision(req_id, DecisionBody::GrantMulti(result))
        }
        (Call::Release { alloc, req_id }, Answer::Unit { result, fresh: true }) => {
            decision(*req_id, DecisionBody::Release { draws: alloc.draws.clone(), result })
        }
        (&Call::ReplayGrant { req_id, lrm, amount }, Answer::Unit { result, fresh: true }) => {
            decision(Some(req_id), DecisionBody::Replay { lrm: lrm as u64, amount, result })
        }
        (_, answer @ (Answer::Grant { .. } | Answer::GrantMulti { .. } | Answer::Unit { .. })) => {
            Outcome::Replayed(response(answer))
        }
        (_, answer) => Outcome::Plain(response(answer)),
    }
}

/// The reply a journaled record carries.
fn reply_of(rec: JournalRecord) -> WireResponse {
    match rec {
        JournalRecord::Decision { body: DecisionBody::Grant(res), .. } => WireResponse::Grant(res),
        JournalRecord::Decision { body: DecisionBody::GrantMulti(res), .. } => {
            WireResponse::GrantMulti(res)
        }
        JournalRecord::Decision {
            body: DecisionBody::Release { result, .. } | DecisionBody::Replay { result, .. },
            ..
        } => WireResponse::Unit(result),
        _ => WireResponse::Unit(Ok(())),
    }
}

impl Shared {
    /// Execute every complete frame the decoder holds, as runs; a
    /// sequenced frame closes the open run. `Err` only when replies can
    /// no longer be queued.
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
                Err(_) => {
                    self.corrupt.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
            };
            self.telemetry.observe(HistKind::FrameBytes, (payload.len() + FRAME_OVERHEAD) as f64);
            let Ok(rf) = RequestFrame::decode(&payload) else {
                self.undecodable.fetch_add(1, Ordering::Relaxed);
                continue;
            };
            let Some((seq, no)) = self.sequencer.as_ref().zip(rf.replay_seq) else {
                run.push(rf);
                if run.len() == RUN_MAX {
                    self.execute_run(&mut run, None, false, tx)?;
                }
                continue;
            };
            self.execute_run(&mut run, None, false, tx)?;
            run.push(rf);
            match seq.enter(no, &self.shutdown) {
                Admission::Aborted => run.clear(),
                Admission::Stale => self.execute_run(&mut run, None, true, tx)?,
                Admission::Fresh => {
                    let queued = self.execute_run(&mut run, Some(no), false, tx);
                    // The cursor advances on append, not on fsync: the
                    // next event executes while this reply waits for its
                    // group.
                    seq.exit(no);
                    queued?;
                }
            }
        }
        self.execute_run(&mut run, None, false, tx)
    }

    /// Execute one run (see module docs): execute on the core, take the
    /// journal lock before releasing the core lock, append (and maybe
    /// roll to a new segment), then queue the replies as one entry gated
    /// on the run's last LSN, and last retire the segments a roll
    /// superseded, with no lock held. `seq` (the replay sequence) and
    /// `stale` (below the replay cursor) are only ever set on a sequenced
    /// run of one.
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
        // Per frame, a `RunFrame`; the calls of those that reach the
        // core, in order.
        let mut calls = Vec::with_capacity(run.len());
        let frames: Vec<RunFrame> = run
            .drain(..)
            .map(|rf| {
                let refuse = refusal(&rf.req);
                (rf.corr, refuse, call_of(rf.req, stale, down).map(|call| calls.push(call)).err())
            })
            .collect();
        let (outcomes, log) = self.core.execute(&calls, |answers, pools, dedup| {
            let outcomes: Vec<_> =
                calls.iter().zip(answers).map(|(c, a)| outcome(c, a, seq)).collect();
            if outcomes.iter().all(|o| matches!(o, Outcome::Plain(_))) {
                return (outcomes, None);
            }
            let mut guard = self.log.lock();
            let log = &mut *guard;
            let records = outcomes.iter().filter_map(Outcome::record).count();
            if let (Some(s), true) = (seq, records > 0) {
                log.cold.next_seq = log.cold.next_seq.max(s + 1);
            }
            let due = self.compact_every > 0
                && log.journal.records_in_segment() + records as u64 >= self.compact_every;
            // A snapshot is the state this run's append leaves: encode
            // its hot part from the core before the next run executes.
            let framed =
                due.then(|| frame_live_snapshot(&mut log.snapshot, &log.cold, pools, dedup));
            (outcomes, Some((guard, framed)))
        });
        let mut committed = Ok(0);
        let mut retire = None;
        if let Some((mut guard, framed)) = log {
            let log = &mut *guard;
            // One write. The gate is the run's last record's LSN — for a
            // run of replayed duplicates alone, a cursor covering their
            // originals.
            let records: Vec<_> = outcomes.iter().filter_map(Outcome::record).collect();
            committed = log.journal.append_run(&records).and_then(|gate| {
                if let Some(framed) = framed {
                    framed?;
                    retire = Some(log.journal.roll(&log.snapshot)?);
                }
                Ok(gate)
            });
            self.publish_durability(&log.journal);
        }
        // Fail-stop: the segment may end mid-frame, and recovery would
        // discard everything appended behind the damage.
        let failed = committed.is_err();
        if failed {
            self.durability.fail();
        }
        let queued = self.queue_replies(frames, outcomes, failed, committed.unwrap_or(0), tx);
        if let Some(retire) = retire {
            // The new segment is durable already. A segment this leaves
            // behind is older than the live one: recovery reads the
            // newer, and the next retire unlinks it.
            let _ = retire.run();
        }
        queued
    }

    /// Frame a run's replies in frame order and queue them as one entry
    /// gated on `gate`; once the journal `failed`, every journaled or
    /// replayed decision is refused instead.
    fn queue_replies(
        &self,
        frames: Vec<RunFrame>,
        outcomes: Vec<Outcome>,
        failed: bool,
        gate: u64,
        tx: &mpsc::Sender<QueuedReplies>,
    ) -> io::Result<()> {
        let mut outcomes = outcomes.into_iter();
        let mut bytes = Vec::new();
        for (corr, refuse, inline) in frames {
            let outcome =
                inline.map_or_else(|| outcomes.next().expect("an answer per call"), Outcome::Plain);
            let resp = match outcome {
                Outcome::Plain(resp) => resp,
                _ if failed => refuse(JOURNAL_DOWN),
                Outcome::Replayed(resp) => resp,
                Outcome::Journal(rec) => reply_of(rec),
            };
            let at = bytes.len();
            frame_with(&mut bytes, MAX_FRAME_LEN, |w| ResponseFrame { corr, resp }.put(w))
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
            self.telemetry.observe(HistKind::FrameBytes, (bytes.len() - at) as f64);
        }
        tx.send((gate, bytes)).map_err(|_| io::Error::from(io::ErrorKind::BrokenPipe))
    }
}

#[cfg(test)]
mod tests;
