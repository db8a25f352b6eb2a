//! Networked GRM federation: real sockets, durable state.
//!
//! The `agreements-grm` runtime speaks over in-process channels; this
//! crate puts the same protocol on a byte stream and the same agreement
//! state on disk, turning the thread federation into a service that
//! survives process death (ROADMAP open item 2):
//!
//! - [`frame`]: length-prefixed, CRC-checked binary framing with a
//!   resyncing streaming decoder — one corrupted frame costs one error,
//!   not the connection.
//! - [`wire`]: fixed little-endian codecs for every protocol message,
//!   carrying [`agreements_grm::RequestId`]s on the wire so the server's
//!   dedup window keeps working when "retry" means "resend bytes".
//! - [`journal`]: the durable agreement journal — append-only segment
//!   files with per-record CRC framing, configurable fsync policy,
//!   snapshot + compaction, and recovery that truncates a torn tail and
//!   rebuilds matrix, availability, dedup window, and replay cursor.
//! - [`listener`]: a daemon serving a `GrmServer` over Unix-domain or
//!   TCP sockets, journaling every decision *before* the reply leaves
//!   the process (write-ahead-of-reply: a crash can lose a decision only
//!   if no client ever saw it).
//! - [`client`]: [`client::NetGrmClient`], a socket transport
//!   implementing [`agreements_grm::GrmClient`] — the retry, backoff,
//!   and rebind machinery of `ResilientGrmClient` runs over it
//!   unchanged.
//! - [`proxy`]: a socket-level fault proxy driving the same seeded
//!   `FaultSchedule` as the in-process chaos plane, so drop / duplicate
//!   / delay / partition happen to real frames on a real connection.
//!
//! DESIGN.md §13 documents the wire format, the durability model, and
//! the recovery invariants; `tests/net_federation.rs` and the
//! `federation` binary in `agreements-experiments` exercise the whole
//! stack as separate processes, including kill-9 crash-recovery.

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod client;
pub mod frame;
pub mod journal;
pub mod listener;
pub mod proxy;
pub mod wire;

pub use client::NetGrmClient;
pub use frame::{FrameDecoder, FrameError, MAX_FRAME_LEN};
pub use journal::{
    DecisionBody, DurableJournal, FsyncPolicy, JournalRecord, RecoveredState, Snapshot,
    MAX_JOURNAL_FRAME_LEN,
};
pub use listener::{GrmListener, ListenerConfig};
pub use proxy::{FaultProxy, ProxyStats, ProxyUpstream};
pub use wire::{RequestFrame, ResponseFrame, WireRequest, WireResponse};

/// Usable bytes in `sockaddr_un.sun_path` (108 on Linux, minus the NUL).
/// Paths past this bind with an opaque `EINVAL`/`ENAMETOOLONG`; we check
/// up front and name the path and the limit instead.
pub const MAX_UDS_PATH: usize = 107;

/// Reject a Unix-socket path that exceeds the kernel's `sun_path` limit
/// with an error naming the path and the limit — nested tmp dirs in CI
/// hit this constantly and the raw bind error doesn't say why.
pub(crate) fn uds_path_check(path: &std::path::Path) -> std::io::Result<()> {
    let len = path.as_os_str().len();
    if len > MAX_UDS_PATH {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!(
                "unix socket path {} is {len} bytes, over the sun_path limit of {MAX_UDS_PATH}",
                path.display()
            ),
        ));
    }
    Ok(())
}
