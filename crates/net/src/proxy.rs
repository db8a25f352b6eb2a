//! Socket-level fault injection: the chaos plane for real connections.
//!
//! [`FaultProxy`] sits between a [`crate::client::NetGrmClient`] and a
//! [`crate::listener::GrmListener`] — on Unix-domain sockets or TCP —
//! and subjects **whole frames** to the same seeded [`FaultSchedule`]
//! the in-process chaos plane uses: drop, duplicate, hold-and-reorder,
//! in-place delay (injected latency), plus an explicit partition
//! switch. Faults apply to *both* directions: the client→server pump
//! draws from the schedule named by `link`, the server→client pump from
//! an independent schedule named `link:reply`, so lost Grants exercise
//! the retry/dedup-replay path just as lost Requests do. Because the
//! unit of harm is a complete CRC frame (the proxy reframes what it
//! forwards), dropping or reordering never tears a frame in half — torn
//! *bytes* are the journal's department, torn *messages* are this one's.
//!
//! Determinism: one proxy owns one link name and one pair of
//! [`FaultSchedule`]s; every frame crossing a direction advances that
//! direction's sequence exactly as a channel message would, so a socket
//! federation and a channel federation with the same seed see the same
//! fate sequence. The upstream can be a fixed address or an address
//! *file* re-read on every accepted connection
//! ([`ProxyUpstream::TcpAddrFile`]) — that keeps the proxy a stable
//! client endpoint across daemon kill-9/respawn cycles, where the
//! respawned daemon binds a fresh ephemeral port.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use agreements_faults::{Fate, FaultMix, FaultSchedule, HoldBuffer};
use parking_lot::Mutex;

use crate::frame::{encode_frame, FrameDecoder};
use crate::uds_path_check;

const POLL: Duration = Duration::from_millis(20);

/// What the proxy actually did to the traffic, both directions summed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProxyStats {
    /// Frames forwarded (duplicates counted twice).
    pub delivered: u64,
    /// Frames dropped by the schedule.
    pub dropped: u64,
    /// Frames delivered twice.
    pub duplicated: u64,
    /// Frames held back past at least one successor.
    pub held: u64,
    /// Frames stalled in place by an injected delay.
    pub delayed: u64,
    /// Frames swallowed by an active partition.
    pub partitioned: u64,
}

#[derive(Default)]
struct Counters {
    delivered: AtomicU64,
    dropped: AtomicU64,
    duplicated: AtomicU64,
    held: AtomicU64,
    delayed: AtomicU64,
    partitioned: AtomicU64,
}

/// Where the proxy forwards accepted connections.
#[derive(Debug, Clone)]
pub enum ProxyUpstream {
    /// A Unix-domain daemon socket.
    Uds(PathBuf),
    /// A fixed TCP address (`host:port`).
    TcpAddr(String),
    /// A file holding the daemon's current TCP address, re-read on every
    /// accepted connection — the stable endpoint for kill-9/respawn
    /// runs, where the daemon rebinds an ephemeral port each life.
    TcpAddrFile(PathBuf),
}

impl ProxyUpstream {
    fn connect(&self) -> io::Result<Box<dyn Duplex>> {
        match self {
            ProxyUpstream::Uds(path) => Ok(Box::new(UnixStream::connect(path)?) as Box<dyn Duplex>),
            ProxyUpstream::TcpAddr(addr) => {
                let s = TcpStream::connect(addr)?;
                s.set_nodelay(true)?;
                Ok(Box::new(s))
            }
            ProxyUpstream::TcpAddrFile(path) => {
                let addr = std::fs::read_to_string(path)?;
                let s = TcpStream::connect(addr.trim())?;
                s.set_nodelay(true)?;
                Ok(Box::new(s))
            }
        }
    }
}

/// The two proxied directions, each with its own schedule and sequence.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Dir {
    /// Client→server: requests. Subject to the partition switch.
    Forward,
    /// Server→client: replies. Partition-transparent (a partition is
    /// request silence; replies already in flight still land).
    Reply,
}

struct DirState {
    schedule: Mutex<FaultSchedule>,
    /// Frames crossing this direction so far (the schedule's sequence
    /// axis; shared across connections so reconnects continue the
    /// stream).
    seq: AtomicU64,
}

impl DirState {
    fn new(seed: u64, link: &str, mix: FaultMix) -> Self {
        DirState {
            schedule: Mutex::new(FaultSchedule::new(seed, link, mix)),
            seq: AtomicU64::new(0),
        }
    }
}

struct ProxyShared {
    forward: DirState,
    reply: DirState,
    faults_on: AtomicBool,
    partitioned: AtomicBool,
    shutdown: AtomicBool,
    counters: Counters,
}

impl ProxyShared {
    fn dir(&self, dir: Dir) -> &DirState {
        match dir {
            Dir::Forward => &self.forward,
            Dir::Reply => &self.reply,
        }
    }
}

/// The streams a proxy can splice: Unix-domain or TCP, interchangeably.
trait Duplex: Read + Write + Send {
    fn try_clone_box(&self) -> io::Result<Box<dyn Duplex>>;
    fn shutdown_dir(&self, how: Shutdown);
    fn set_read_poll(&self, timeout: Duration) -> io::Result<()>;
}

impl Duplex for UnixStream {
    fn try_clone_box(&self) -> io::Result<Box<dyn Duplex>> {
        Ok(Box::new(self.try_clone()?))
    }
    fn shutdown_dir(&self, how: Shutdown) {
        let _ = UnixStream::shutdown(self, how);
    }
    fn set_read_poll(&self, timeout: Duration) -> io::Result<()> {
        self.set_read_timeout(Some(timeout))
    }
}

impl Duplex for TcpStream {
    fn try_clone_box(&self) -> io::Result<Box<dyn Duplex>> {
        Ok(Box::new(self.try_clone()?))
    }
    fn shutdown_dir(&self, how: Shutdown) {
        let _ = TcpStream::shutdown(self, how);
    }
    fn set_read_poll(&self, timeout: Duration) -> io::Result<()> {
        self.set_read_timeout(Some(timeout))
    }
}

enum Frontend {
    Uds(UnixListener),
    Tcp(TcpListener),
}

impl Frontend {
    fn accept(&self) -> io::Result<Box<dyn Duplex>> {
        match self {
            Frontend::Uds(l) => l.accept().map(|(s, _)| Box::new(s) as Box<dyn Duplex>),
            Frontend::Tcp(l) => l.accept().map(|(s, _)| {
                let _ = s.set_nodelay(true);
                Box::new(s) as Box<dyn Duplex>
            }),
        }
    }
}

/// A deterministic bidirectional fault injector for one socket link.
pub struct FaultProxy {
    shared: Arc<ProxyShared>,
    accept: Option<JoinHandle<()>>,
    listen_path: Option<PathBuf>,
    local_addr: Option<SocketAddr>,
}

impl FaultProxy {
    /// Listen on the Unix socket `listen`, forwarding each accepted
    /// connection to the daemon socket at `upstream` through the fault
    /// schedule seeded by `(seed, link)` with the given `mix` on the
    /// client→server direction; replies pass unfaulted. (The historical
    /// forward-only shape — see [`FaultProxy::spawn_uds_bidir`] for
    /// reply-side chaos.)
    pub fn spawn_uds(
        listen: &Path,
        upstream: &Path,
        seed: u64,
        link: &str,
        mix: FaultMix,
    ) -> io::Result<FaultProxy> {
        FaultProxy::spawn_uds_bidir(listen, upstream, seed, link, mix, FaultMix::none())
    }

    /// Like [`FaultProxy::spawn_uds`], but with an independent reply-side
    /// mix drawn from the schedule named `link:reply` — lost or reordered
    /// Grants exercise the client's retry and the daemon's dedup replay.
    pub fn spawn_uds_bidir(
        listen: &Path,
        upstream: &Path,
        seed: u64,
        link: &str,
        forward_mix: FaultMix,
        reply_mix: FaultMix,
    ) -> io::Result<FaultProxy> {
        uds_path_check(listen)?;
        if listen.exists() {
            let _ = std::fs::remove_file(listen);
        }
        let listener = UnixListener::bind(listen)?;
        listener.set_nonblocking(true)?;
        FaultProxy::spawn(
            Frontend::Uds(listener),
            Some(listen.to_path_buf()),
            None,
            ProxyUpstream::Uds(upstream.to_path_buf()),
            seed,
            link,
            forward_mix,
            reply_mix,
        )
    }

    /// Listen on the TCP address `listen` (use `127.0.0.1:0` for an
    /// ephemeral port, then read it back with [`FaultProxy::local_addr`])
    /// and forward each accepted connection to `upstream`, faulting both
    /// directions. `upstream` may be an address file re-read per
    /// connection, which keeps this proxy a stable client endpoint
    /// across daemon respawns.
    #[allow(clippy::too_many_arguments)]
    pub fn spawn_tcp(
        listen: &str,
        upstream: ProxyUpstream,
        seed: u64,
        link: &str,
        forward_mix: FaultMix,
        reply_mix: FaultMix,
    ) -> io::Result<FaultProxy> {
        let listener = TcpListener::bind(listen)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        FaultProxy::spawn(
            Frontend::Tcp(listener),
            None,
            Some(local),
            upstream,
            seed,
            link,
            forward_mix,
            reply_mix,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn spawn(
        frontend: Frontend,
        listen_path: Option<PathBuf>,
        local_addr: Option<SocketAddr>,
        upstream: ProxyUpstream,
        seed: u64,
        link: &str,
        forward_mix: FaultMix,
        reply_mix: FaultMix,
    ) -> io::Result<FaultProxy> {
        let shared = Arc::new(ProxyShared {
            forward: DirState::new(seed, link, forward_mix),
            reply: DirState::new(seed, &format!("{link}:reply"), reply_mix),
            faults_on: AtomicBool::new(true),
            partitioned: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            counters: Counters::default(),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = thread::spawn(move || {
            while !accept_shared.shutdown.load(Ordering::Relaxed) {
                match frontend.accept() {
                    Ok(client) => {
                        let shared = Arc::clone(&accept_shared);
                        let upstream = upstream.clone();
                        thread::spawn(move || pump_connection(client, &upstream, &shared));
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        thread::sleep(Duration::from_millis(2));
                    }
                    Err(_) => break,
                }
            }
        });
        Ok(FaultProxy { shared, accept: Some(accept), listen_path, local_addr })
    }

    /// The bound TCP address, when the frontend is TCP.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.local_addr
    }

    /// Sever the link: every client→server frame is swallowed until
    /// [`FaultProxy::heal_partition`]. Established connections stay up —
    /// a partition is silence, not a reset.
    pub fn partition(&self) {
        self.shared.partitioned.store(true, Ordering::SeqCst);
    }

    /// End the partition; traffic (and the fault mix, if still active)
    /// resumes.
    pub fn heal_partition(&self) {
        self.shared.partitioned.store(false, Ordering::SeqCst);
    }

    /// The network recovers: stop injecting faults and end any
    /// partition. Held frames flush on the next frame or connection
    /// close. Irreversible, mirroring `FaultPlane::heal`.
    pub fn heal(&self) {
        self.shared.faults_on.store(false, Ordering::SeqCst);
        self.shared.partitioned.store(false, Ordering::SeqCst);
    }

    /// Snapshot of the proxy's counters (both directions summed).
    pub fn stats(&self) -> ProxyStats {
        let c = &self.shared.counters;
        ProxyStats {
            delivered: c.delivered.load(Ordering::SeqCst),
            dropped: c.dropped.load(Ordering::SeqCst),
            duplicated: c.duplicated.load(Ordering::SeqCst),
            held: c.held.load(Ordering::SeqCst),
            delayed: c.delayed.load(Ordering::SeqCst),
            partitioned: c.partitioned.load(Ordering::SeqCst),
        }
    }

    /// Stop accepting and tear the proxy down. Live pump threads exit
    /// when their sockets close.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(j) = self.accept.take() {
            let _ = j.join();
        }
        if let Some(path) = &self.listen_path {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Drop for FaultProxy {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One proxied connection: a faulted client→server pump on this thread,
/// a faulted server→client pump on a second.
fn pump_connection(client: Box<dyn Duplex>, upstream: &ProxyUpstream, shared: &Arc<ProxyShared>) {
    let server = match upstream.connect() {
        Ok(s) => s,
        // Upstream down: refuse by closing, which the client maps to a
        // retryable reset.
        Err(_) => return,
    };
    let _ = client.set_read_poll(POLL);
    let _ = server.set_read_poll(POLL);

    // Server → client: reply-schedule frame pump.
    let s2c = {
        let from = match server.try_clone_box() {
            Ok(s) => s,
            Err(_) => return,
        };
        let to = match client.try_clone_box() {
            Ok(s) => s,
            Err(_) => return,
        };
        let shared = Arc::clone(shared);
        thread::spawn(move || faulted_pump(from, to, &shared, Dir::Reply))
    };

    // Client → server: forward-schedule frame pump.
    faulted_pump(client, server, shared, Dir::Forward);
    let _ = s2c.join();
}

fn forward(out: &mut (impl Write + ?Sized), payload: &[u8], c: &Counters) -> io::Result<()> {
    let mut framed = Vec::with_capacity(payload.len() + crate::frame::FRAME_OVERHEAD);
    encode_frame(payload, &mut framed)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
    out.write_all(&framed)?;
    out.flush()?;
    c.delivered.fetch_add(1, Ordering::SeqCst);
    Ok(())
}

/// Pump one direction of one connection through its fault schedule. The
/// frame loop mirrors `FaultPlane::pump` exactly: fate at the current
/// sequence, then advance, then release what the advance made due. A
/// `Delay` fate stalls the whole direction in place (head-of-line
/// latency: successors queue behind it, so order — and with it the
/// schedule's determinism — is preserved).
fn faulted_pump(
    mut from: Box<dyn Duplex>,
    mut to: Box<dyn Duplex>,
    shared: &Arc<ProxyShared>,
    dir: Dir,
) {
    let mut dec = FrameDecoder::new();
    let mut held: HoldBuffer<Vec<u8>> = HoldBuffer::new();
    let mut buf = [0u8; 16 * 1024];
    let c = &shared.counters;
    let state = shared.dir(dir);
    'conn: loop {
        if shared.shutdown.load(Ordering::Relaxed) {
            break;
        }
        match from.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                dec.push(&buf[..n]);
                loop {
                    match dec.next_frame() {
                        Ok(Some(payload)) => {
                            let seq = state.seq.load(Ordering::SeqCst);
                            let partitioned =
                                dir == Dir::Forward && shared.partitioned.load(Ordering::SeqCst);
                            if partitioned {
                                c.partitioned.fetch_add(1, Ordering::SeqCst);
                            } else if !shared.faults_on.load(Ordering::SeqCst) {
                                for m in held.drain() {
                                    if forward(&mut to, &m, c).is_err() {
                                        break 'conn;
                                    }
                                }
                                if forward(&mut to, &payload, c).is_err() {
                                    break 'conn;
                                }
                            } else {
                                match state.schedule.lock().next_fate() {
                                    Fate::Deliver => {
                                        if forward(&mut to, &payload, c).is_err() {
                                            break 'conn;
                                        }
                                    }
                                    Fate::Drop => {
                                        c.dropped.fetch_add(1, Ordering::SeqCst);
                                    }
                                    Fate::Duplicate => {
                                        c.duplicated.fetch_add(1, Ordering::SeqCst);
                                        for _ in 0..2 {
                                            if forward(&mut to, &payload, c).is_err() {
                                                break 'conn;
                                            }
                                        }
                                    }
                                    Fate::Hold { distance } => {
                                        c.held.fetch_add(1, Ordering::SeqCst);
                                        held.hold(seq, distance, payload);
                                    }
                                    Fate::Delay { micros } => {
                                        c.delayed.fetch_add(1, Ordering::SeqCst);
                                        thread::sleep(Duration::from_micros(micros));
                                        if forward(&mut to, &payload, c).is_err() {
                                            break 'conn;
                                        }
                                    }
                                }
                            }
                            let next = seq + 1;
                            state.seq.store(next, Ordering::SeqCst);
                            while let Some(m) = held.release_due(next) {
                                if forward(&mut to, &m, c).is_err() {
                                    break 'conn;
                                }
                            }
                        }
                        Ok(None) => break,
                        // Peers never send corrupt frames; if one
                        // appears, skip it like the listener would.
                        Err(_) => continue,
                    }
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::Interrupted =>
            {
                // A healed link must not keep frames hostage while quiet.
                if !shared.faults_on.load(Ordering::SeqCst) && !held.is_empty() {
                    for m in held.drain() {
                        if forward(&mut to, &m, c).is_err() {
                            break 'conn;
                        }
                    }
                }
                continue;
            }
            Err(_) => break,
        }
    }
    // Held frames were in flight, not lost: flush them before closing.
    for m in held.drain() {
        if forward(&mut to, &m, c).is_err() {
            break;
        }
    }
    to.shutdown_dir(Shutdown::Write);
    from.shutdown_dir(Shutdown::Read);
}
