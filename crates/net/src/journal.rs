//! Durable, crash-recoverable agreement journal.
//!
//! The one replayable log of a GRM's hard state — agreement mutations,
//! decisions and the dedup window — kept on disk, so a **kill -9**
//! loses nothing a client was told and a cold standby can be rebuilt:
//!
//! - **Segments.** The journal is a directory of append-only segment
//!   files `segment-NNNNNN.log`. Every segment *begins with a full
//!   snapshot record* (matrix, availability, dedup window, replay
//!   cursor), so recovery reads exactly one segment: the newest one
//!   whose snapshot is intact. Compaction is therefore just "start a new
//!   segment, then delete the old ones" — no rewrite-in-place, no
//!   window where the only copy of the state is mid-edit.
//! - **Records.** Each record is one CRC-framed blob (the same
//!   [`crate::frame`] envelope the wire uses). A torn tail — the bytes a
//!   crash left half-written — fails CRC or length validation, is
//!   truncated away, and replay resumes from the last complete record.
//!   A record is the unit of atomicity.
//! - **Fsync policy.** [`FsyncPolicy::EveryOp`] syncs before `append`
//!   returns: combined with the listener's write-ahead-of-reply rule, a
//!   decision a client observed is always on disk (at-most-once
//!   settlement survives the crash). [`FsyncPolicy::Batched`] groups
//!   syncs and trades a bounded post-crash loss window for throughput;
//!   replies released before the batch syncs may be re-executed by a
//!   retry after recovery.
//!
//! Recovery invariants (verified by `tests/torn_journal.rs` and the
//! kill-9 harness): truncation only ever removes the final, incomplete
//! record; replaying the surviving prefix yields exactly the state as of
//! the last durable record; `next_seq` equals one past the highest
//! journaled event sequence, so a sequenced federation resumes without
//! re-applying history.

use std::borrow::Cow;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

use agreements_flow::AgreementMatrix;
use agreements_grm::{DedupWindow, GrmError, GrmServer, RecordedDecision, RequestId};
use agreements_sched::{Allocation, MultiAllocation};
use agreements_telemetry::{HistKind, Telemetry};

use crate::frame::{crc32, FRAME_OVERHEAD, MAGIC};
use crate::wire::{
    decode_decision, f64s_of, frame_with, get_request_id, put_decision, put_request_id,
    DecisionRef, Reader, Writer,
};

/// Per-record frame limit in journal segments. Wire frames stay under
/// [`crate::frame::MAX_FRAME_LEN`] (1 MiB), but a snapshot record
/// carries the full n×n agreement matrix — 8n² bytes, past 1 MiB from
/// n ≈ 360 — so segments are framed under this larger cap instead
/// (256 MiB covers n ≈ 5700). The decoder-stall rationale behind the
/// wire cap does not apply to a local file read at recovery.
pub const MAX_JOURNAL_FRAME_LEN: usize = 1 << 28;

/// When appended records reach the platters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` before every `append` returns. With write-ahead-of-reply
    /// this is the at-most-once-across-crash mode: no client ever sees a
    /// decision that is not durable.
    EveryOp,
    /// Group commit: sync once every `max_pending` appends (or at an
    /// explicit [`DurableJournal::sync`] barrier). Bounded post-crash
    /// loss window, much higher append throughput.
    Batched {
        /// Appends allowed to accumulate before a forced sync.
        max_pending: usize,
    },
}

/// A full-state snapshot: the first record of every segment.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Agreement matrix at snapshot time (hard state).
    pub matrix: AgreementMatrix,
    /// Transitive-closure level the GRM runs at.
    pub level: usize,
    /// Availability view at snapshot time (soft state — best effort,
    /// authoritative again once LRMs re-report).
    pub availability: Vec<f64>,
    /// One past the highest applied event sequence (sequenced mode).
    pub next_seq: u64,
    /// Live dedup-window entries, oldest first.
    pub dedup: Vec<(RequestId, RecordedDecision)>,
}

/// The availability- and books-relevant content of one decision.
#[derive(Debug, Clone, PartialEq)]
pub enum DecisionBody {
    /// An allocation decision; `Ok` deducts its draws from the pools.
    Grant(Result<Allocation, GrmError>),
    /// A release; `Ok` returns `draws` to the pools (the draws ride
    /// along because `RecordedDecision::Release` does not carry them).
    Release {
        /// The draw vector being returned.
        draws: Vec<f64>,
        /// The decision served to the client.
        result: Result<(), GrmError>,
    },
    /// A degraded-grant settlement; moves only the books.
    Replay {
        /// Settling LRM.
        lrm: u64,
        /// Settled units.
        amount: f64,
        /// The decision served to the client.
        result: Result<(), GrmError>,
    },
    /// A multi-resource allocation decision. Recovery seeds the dedup
    /// window from it (retries straddling a crash replay the original
    /// decision) but folds no pool effect: the recovered availability
    /// is single-lane, and multi-lane pools are soft state rebuilt by the
    /// first `ReportMulti` round after a respawn.
    GrantMulti(Result<MultiAllocation, GrmError>),
}

impl DecisionBody {
    /// The dedup-window form of this decision.
    pub fn to_recorded(&self) -> RecordedDecision {
        match self {
            DecisionBody::Grant(r) => RecordedDecision::Grant(r.clone()),
            DecisionBody::Release { result, .. } => RecordedDecision::Release(result.clone()),
            DecisionBody::Replay { result, .. } => RecordedDecision::Replay(result.clone()),
            DecisionBody::GrantMulti(r) => RecordedDecision::GrantMulti(r.clone()),
        }
    }

    /// [`DecisionBody::to_recorded`], moving the decision instead of
    /// cloning it.
    fn into_recorded(self) -> RecordedDecision {
        match self {
            DecisionBody::Grant(r) => RecordedDecision::Grant(r),
            DecisionBody::Release { result, .. } => RecordedDecision::Release(result),
            DecisionBody::Replay { result, .. } => RecordedDecision::Replay(result),
            DecisionBody::GrantMulti(r) => RecordedDecision::GrantMulti(r),
        }
    }
}

/// One durable journal record.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// Full-state snapshot (first record of a segment).
    Snapshot(Snapshot),
    /// `set_agreement(from, to, share)` accepted by the server.
    AgreementSet {
        /// Granting principal.
        from: u64,
        /// Receiving principal.
        to: u64,
        /// New share.
        share: f64,
    },
    /// A principal joined (index = matrix size before growth).
    Join,
    /// A principal left (row/column isolated, availability zeroed).
    Leave {
        /// The departed principal.
        lrm: u64,
    },
    /// An availability report that was applied.
    Report {
        /// Event sequence (sequenced mode), else `None`.
        seq: Option<u64>,
        /// Reporting LRM.
        lrm: u64,
        /// Reported pool.
        available: f64,
    },
    /// A decision that was served (journaled *before* the reply left the
    /// process).
    Decision {
        /// Event sequence (sequenced mode), else `None`.
        seq: Option<u64>,
        /// Idempotency id, when the call carried one.
        id: Option<RequestId>,
        /// The decision and its state effect.
        body: DecisionBody,
    },
}

/// The dimension, then the 8n² bytes of the shares, a row at a time.
/// No up-front reserve: after an exact 8n² one, the dedup window that
/// follows doubles the buffer once more than plain doubling does, which
/// cost `isp1000` ~38 MB of peak RSS.
fn put_matrix(w: &mut Writer, m: &AgreementMatrix) {
    let n = m.n();
    w.u64(n as u64);
    for i in 0..n {
        w.f64_block(m.row(i));
    }
}

fn get_matrix(r: &mut Reader) -> Result<AgreementMatrix, String> {
    let n = r.u64()? as usize;
    // Guard before the O(n²) read: a corrupt count must not OOM.
    if n > 1 << 16 || n * n * 8 > r.remaining() {
        return Err(format!("implausible matrix dimension {n}"));
    }
    let mut m = AgreementMatrix::zeros(n);
    for i in 0..n {
        for (j, v) in f64s_of(r.take(n * 8)?).enumerate() {
            if i != j && v != 0.0 {
                m.set(i, j, v).map_err(|e| format!("invalid journaled share: {e}"))?;
            }
        }
    }
    Ok(m)
}

fn put_unit_res(w: &mut Writer, res: &Result<(), GrmError>) {
    // Route through the decision codec so error encoding stays single-
    // sourced (Release/Replay bodies reuse RecordedDecision's layout).
    w.len_prefixed(|w| put_decision(w, DecisionRef::Release(res)));
}

fn get_unit_res(r: &mut Reader) -> Result<Result<(), GrmError>, String> {
    let n = r.u32()? as usize;
    let bytes = r.take(n)?;
    match decode_decision(bytes) {
        Ok(RecordedDecision::Release(res)) => Ok(res),
        Ok(_) => Err("wrong decision kind in unit result".into()),
        Err(GrmError::FrameDecode { detail }) => Err(detail),
        Err(e) => Err(e.to_string()),
    }
}

/// A snapshot record's payload, from the borrow.
fn put_snapshot(w: &mut Writer, s: &Snapshot) {
    w.u8(0);
    put_matrix(w, &s.matrix);
    w.u64(s.level as u64);
    w.f64s(&s.availability);
    w.u64(s.next_seq);
    w.u32(s.dedup.len() as u32);
    for (id, d) in &s.dedup {
        put_request_id(w, id);
        w.len_prefixed(|w| put_decision(w, d.into()));
    }
}

impl JournalRecord {
    /// Encode to a record payload (to be wrapped in one CRC frame).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.put(&mut w);
        w.into_bytes()
    }

    /// [`JournalRecord::encode`]'s bytes, appended to `w`.
    fn put(&self, w: &mut Writer) {
        match self {
            JournalRecord::Snapshot(s) => put_snapshot(w, s),
            JournalRecord::AgreementSet { from, to, share } => {
                w.u8(1);
                w.u64(*from);
                w.u64(*to);
                w.f64(*share);
            }
            JournalRecord::Join => w.u8(2),
            JournalRecord::Leave { lrm } => {
                w.u8(3);
                w.u64(*lrm);
            }
            JournalRecord::Report { seq, lrm, available } => {
                w.u8(4);
                put_opt_u64(w, seq);
                w.u64(*lrm);
                w.f64(*available);
            }
            JournalRecord::Decision { seq, id, body } => {
                w.u8(5);
                put_opt_u64(w, seq);
                match id {
                    None => w.u8(0),
                    Some(id) => {
                        w.u8(1);
                        put_request_id(w, id);
                    }
                }
                match body {
                    DecisionBody::Grant(res) => {
                        w.u8(0);
                        w.len_prefixed(|w| put_decision(w, DecisionRef::Grant(res)));
                    }
                    DecisionBody::Release { draws, result } => {
                        w.u8(1);
                        w.f64s(draws);
                        put_unit_res(w, result);
                    }
                    DecisionBody::GrantMulti(res) => {
                        w.u8(3);
                        w.len_prefixed(|w| put_decision(w, DecisionRef::GrantMulti(res)));
                    }
                    DecisionBody::Replay { lrm, amount, result } => {
                        w.u8(2);
                        w.u64(*lrm);
                        w.f64(*amount);
                        put_unit_res(w, result);
                    }
                }
            }
        }
    }

    /// Decode a record payload.
    pub fn decode(bytes: &[u8]) -> Result<JournalRecord, String> {
        let mut r = Reader::new(bytes);
        let rec = match r.u8()? {
            0 => {
                let matrix = get_matrix(&mut r)?;
                let level = r.u64()? as usize;
                let availability = r.f64s()?;
                let next_seq = r.u64()?;
                let count = r.u32()? as usize;
                let mut dedup = Vec::with_capacity(count.min(4096));
                for _ in 0..count {
                    let id = get_request_id(&mut r)?;
                    let n = r.u32()? as usize;
                    let bytes = r.take(n)?;
                    let d = decode_decision(bytes).map_err(|e| e.to_string())?;
                    dedup.push((id, d));
                }
                JournalRecord::Snapshot(Snapshot { matrix, level, availability, next_seq, dedup })
            }
            1 => JournalRecord::AgreementSet { from: r.u64()?, to: r.u64()?, share: r.f64()? },
            2 => JournalRecord::Join,
            3 => JournalRecord::Leave { lrm: r.u64()? },
            4 => JournalRecord::Report {
                seq: get_opt_u64(&mut r)?,
                lrm: r.u64()?,
                available: r.f64()?,
            },
            5 => {
                let seq = get_opt_u64(&mut r)?;
                let id = match r.u8()? {
                    0 => None,
                    1 => Some(get_request_id(&mut r)?),
                    t => return Err(format!("bad id tag {t}")),
                };
                let body = match r.u8()? {
                    0 => {
                        let n = r.u32()? as usize;
                        let bytes = r.take(n)?;
                        match decode_decision(bytes).map_err(|e| e.to_string())? {
                            RecordedDecision::Grant(res) => DecisionBody::Grant(res),
                            _ => return Err("wrong decision kind for Grant body".into()),
                        }
                    }
                    1 => DecisionBody::Release { draws: r.f64s()?, result: get_unit_res(&mut r)? },
                    2 => DecisionBody::Replay {
                        lrm: r.u64()?,
                        amount: r.f64()?,
                        result: get_unit_res(&mut r)?,
                    },
                    3 => {
                        let n = r.u32()? as usize;
                        let bytes = r.take(n)?;
                        match decode_decision(bytes).map_err(|e| e.to_string())? {
                            RecordedDecision::GrantMulti(res) => DecisionBody::GrantMulti(res),
                            _ => return Err("wrong decision kind for GrantMulti body".into()),
                        }
                    }
                    t => return Err(format!("bad DecisionBody tag {t}")),
                };
                JournalRecord::Decision { seq, id, body }
            }
            t => return Err(format!("bad JournalRecord tag {t}")),
        };
        r.finish()?;
        Ok(rec)
    }
}

fn put_opt_u64(w: &mut Writer, v: &Option<u64>) {
    match v {
        None => w.u8(0),
        Some(v) => {
            w.u8(1);
            w.u64(*v);
        }
    }
}

fn get_opt_u64(r: &mut Reader) -> Result<Option<u64>, String> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.u64()?)),
        t => Err(format!("bad Option<u64> tag {t}")),
    }
}

/// What recovery rebuilt from the journal.
#[derive(Debug, Clone)]
pub struct RecoveredState {
    /// Agreement matrix as of the last durable record.
    pub matrix: AgreementMatrix,
    /// Transitive-closure level.
    pub level: usize,
    /// Availability as of the last durable record (best effort; see
    /// module docs).
    pub availability: Vec<f64>,
    /// One past the highest journaled event sequence.
    pub next_seq: u64,
    /// Dedup entries to seed into the respawned server.
    pub dedup: DedupWindow,
    /// Complete records replayed (including the snapshot).
    pub records: u64,
    /// Bytes of torn tail truncated away (0 on a clean shutdown).
    pub truncated_bytes: u64,
}

impl RecoveredState {
    /// The state a journal holding only `snapshot` recovers to.
    pub fn from_snapshot(snapshot: &Snapshot) -> RecoveredState {
        RecoveredState::loaded(snapshot.clone())
    }

    /// [`RecoveredState::from_snapshot`], taking the snapshot's values
    /// instead of cloning them.
    fn loaded(snapshot: Snapshot) -> RecoveredState {
        let mut st = RecoveredState {
            matrix: AgreementMatrix::zeros(0),
            level: 0,
            availability: Vec::new(),
            next_seq: 0,
            dedup: DedupWindow::default(),
            // The snapshot record itself.
            records: 1,
            truncated_bytes: 0,
        };
        st.load(snapshot);
        st
    }

    /// Replace the state with `s` (a snapshot record's whole effect).
    fn load(&mut self, s: Snapshot) {
        self.matrix = s.matrix;
        self.level = s.level;
        self.availability = s.availability;
        self.next_seq = s.next_seq;
        self.dedup = DedupWindow::default();
        for (id, d) in s.dedup {
            self.dedup.insert(id, d);
        }
    }

    /// Apply one record to the in-memory state: the fold segment replay
    /// runs, here cloning what the state keeps of the borrowed record.
    /// Also used by tests that build expected states by hand.
    pub fn apply(&mut self, rec: &JournalRecord) {
        self.fold(Cow::Borrowed(rec));
    }

    /// The one fold body. Its effects are read from the borrow; then a
    /// snapshot's values and a decision's dedup entry are moved out of an
    /// owned record ([`replay`]) or cloned out of a borrowed one
    /// ([`RecoveredState::apply`]).
    fn fold(&mut self, rec: Cow<'_, JournalRecord>) {
        let remembered = match &*rec {
            JournalRecord::Snapshot(_) => None,
            JournalRecord::AgreementSet { from, to, share } => {
                // The live server accepted this op before it was
                // journaled, so re-applying cannot fail; ignore defends
                // against a hand-edited journal.
                let _ = self.matrix.set(*from as usize, *to as usize, *share);
                None
            }
            JournalRecord::Join => {
                self.matrix = self.matrix.grown();
                self.availability.push(0.0);
                None
            }
            JournalRecord::Leave { lrm } => {
                let _ = self.matrix.isolate(*lrm as usize);
                if let Some(v) = self.availability.get_mut(*lrm as usize) {
                    *v = 0.0;
                }
                None
            }
            JournalRecord::Report { seq, lrm, available } => {
                if let Some(v) = self.availability.get_mut(*lrm as usize) {
                    *v = *available;
                }
                self.bump_seq(*seq);
                None
            }
            JournalRecord::Decision { seq, id, body } => {
                // A decision whose id is already in the window is a
                // duplicate the server answered from cache: its pool
                // effect already happened and must not be re-applied.
                // (The listener journals none; an older journal may.)
                if id.is_none_or(|id| self.dedup.get(&id).is_none()) {
                    match body {
                        DecisionBody::Grant(Ok(alloc)) => {
                            for (v, d) in self.availability.iter_mut().zip(&alloc.draws) {
                                *v = (*v - *d).max(0.0);
                            }
                        }
                        DecisionBody::Release { draws, result: Ok(()) } => {
                            for (v, d) in self.availability.iter_mut().zip(draws) {
                                *v += *d;
                            }
                        }
                        // Denials and replay settlements move no pools.
                        _ => {}
                    }
                }
                self.bump_seq(*seq);
                *id
            }
        };
        match (rec, remembered) {
            (Cow::Owned(JournalRecord::Snapshot(s)), _) => self.load(s),
            (Cow::Borrowed(JournalRecord::Snapshot(s)), _) => self.load(s.clone()),
            (Cow::Owned(JournalRecord::Decision { body, .. }), Some(id)) => {
                self.dedup.insert(id, body.into_recorded());
            }
            (Cow::Borrowed(JournalRecord::Decision { body, .. }), Some(id)) => {
                self.dedup.insert(id, body.to_recorded());
            }
            _ => {}
        }
        self.records += 1;
    }

    fn bump_seq(&mut self, seq: Option<u64>) {
        if let Some(s) = seq {
            self.next_seq = self.next_seq.max(s + 1);
        }
    }

    /// Boot a standby GRM from the recovered state: spawn on the
    /// recovered matrix, push the recovered availability as synthetic
    /// reports, and seed the dedup window so retries straddling the
    /// crash replay their original decisions.
    pub fn respawn(&self) -> Result<GrmServer, GrmError> {
        self.respawn_with(GrmServer::spawn(self.matrix.clone(), self.level))
    }

    /// Seed an already-spawned server (any decision engine — flat LP or
    /// hierarchical batched) with the recovered soft state, in one step
    /// on its core, on the calling thread
    /// ([`agreements_grm::GrmHandle::seed`]): availability as synthetic
    /// reports, dedup window so retries straddling the crash replay their
    /// original decisions. The seed has landed when this returns. Each
    /// window entry is cloned once.
    /// The caller is responsible for spawning the server on
    /// [`RecoveredState::matrix`]; this lets a daemon choose
    /// `spawn_hierarchical` while sharing one recovery path.
    pub fn respawn_with(&self, server: GrmServer) -> Result<GrmServer, GrmError> {
        let window = self.dedup.iter().map(|(id, d)| (*id, d.clone())).collect();
        server.handle().seed(self.availability.clone(), window)?;
        Ok(server)
    }

    /// A snapshot of this state (for compaction).
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            matrix: self.matrix.clone(),
            level: self.level,
            availability: self.availability.clone(),
            next_seq: self.next_seq,
            dedup: self.dedup.iter().map(|(id, d)| (*id, d.clone())).collect(),
        }
    }
}

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("segment-{index:06}.log"))
}

fn list_segments(dir: &Path) -> io::Result<Vec<u64>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let name = entry?.file_name();
        let name = name.to_string_lossy();
        if let Some(rest) = name.strip_prefix("segment-") {
            if let Some(num) = rest.strip_suffix(".log") {
                if let Ok(k) = num.parse::<u64>() {
                    out.push(k);
                }
            }
        }
    }
    out.sort_unstable();
    Ok(out)
}

/// Fsync the directory itself so freshly created/removed segment files
/// survive a crash (file data syncs do not cover directory entries).
fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

/// Append one journal frame to `framed`, its record body encoded in place.
fn frame_record(framed: &mut Vec<u8>, body: impl FnOnce(&mut Writer)) -> io::Result<()> {
    frame_with(framed, MAX_JOURNAL_FRAME_LEN, body)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))
}

/// The append side of the durable journal. See the module docs for the
/// on-disk format and the recovery story.
pub struct DurableJournal {
    dir: PathBuf,
    file: File,
    segment: u64,
    /// Records appended to the current segment (snapshot included).
    seg_records: u64,
    policy: FsyncPolicy,
    /// Appends not yet covered by an fsync.
    pending: usize,
    /// Log sequence number: total records appended through this handle,
    /// monotone across compactions. A record's LSN names it in the
    /// group-commit protocol ("durable once `synced_lsn() >= lsn`").
    lsn: u64,
    /// Highest LSN known covered by an fsync.
    synced_lsn: u64,
    telemetry: Telemetry,
    /// Total bytes appended by this handle (telemetry/monitoring).
    bytes_written: u64,
    /// A write or fsync failed: the segment may end in a partial frame,
    /// and recovery stops at the first damaged frame, so anything
    /// appended after it would be acknowledged and then lost. Every
    /// later append is refused instead (fail-stop).
    failed: bool,
}

impl DurableJournal {
    /// True when `dir` already holds journal segments (an `open` will
    /// find state to recover).
    pub fn exists(dir: &Path) -> bool {
        matches!(list_segments(dir), Ok(segs) if !segs.is_empty())
    }

    /// Start a fresh journal: segment 0 holding `snapshot`. Fails if the
    /// directory already holds segments — recovery decides what to do
    /// with an existing journal, not `create`.
    pub fn create(
        dir: &Path,
        snapshot: &Snapshot,
        policy: FsyncPolicy,
        telemetry: Telemetry,
    ) -> io::Result<DurableJournal> {
        fs::create_dir_all(dir)?;
        if DurableJournal::exists(dir) {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!("journal directory {} already holds segments", dir.display()),
            ));
        }
        let path = segment_path(dir, 0);
        let file = OpenOptions::new().create_new(true).append(true).open(&path)?;
        let mut j = DurableJournal {
            dir: dir.to_path_buf(),
            file,
            segment: 0,
            seg_records: 0,
            policy,
            pending: 0,
            lsn: 0,
            synced_lsn: 0,
            telemetry,
            bytes_written: 0,
            failed: false,
        };
        j.write_snapshot(snapshot)?;
        j.sync()?;
        sync_dir(dir)?;
        Ok(j)
    }

    /// Recover from an existing journal: replay the newest segment with
    /// an intact snapshot, truncate any torn tail, and return the
    /// rebuilt state plus a journal positioned to keep appending.
    pub fn open(
        dir: &Path,
        policy: FsyncPolicy,
        telemetry: Telemetry,
    ) -> io::Result<(DurableJournal, RecoveredState)> {
        let segments = list_segments(dir)?;
        if segments.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no journal segments in {}", dir.display()),
            ));
        }
        // Try newest-first: a crash during compaction can leave the
        // newest segment without a complete snapshot; fall back to its
        // predecessor and discard the stillborn segment.
        for (pos, &seg) in segments.iter().enumerate().rev() {
            let path = segment_path(dir, seg);
            if let Some((state, keep_bytes, truncated)) = replay_segment(&path)? {
                let mut file = OpenOptions::new().read(true).write(true).open(&path)?;
                if truncated > 0 {
                    file.set_len(keep_bytes)?;
                    file.sync_all()?;
                }
                file.seek(SeekFrom::End(0))?;
                // Discard any stillborn newer segments.
                for &newer in &segments[pos + 1..] {
                    let _ = fs::remove_file(segment_path(dir, newer));
                }
                sync_dir(dir)?;
                let mut state = state;
                state.truncated_bytes = truncated;
                let j = DurableJournal {
                    dir: dir.to_path_buf(),
                    file,
                    segment: seg,
                    seg_records: state.records,
                    policy,
                    pending: 0,
                    lsn: 0,
                    synced_lsn: 0,
                    telemetry,
                    bytes_written: 0,
                    failed: false,
                };
                return Ok((j, state));
            }
        }
        Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("no segment in {} holds an intact snapshot", dir.display()),
        ))
    }

    /// Open an existing journal, or create a fresh one seeded with
    /// `snapshot()` when the directory holds no segments yet. The
    /// one-call boot path for a daemon that may or may not be restarting.
    pub fn open_or_create(
        dir: &Path,
        snapshot: impl FnOnce() -> Snapshot,
        policy: FsyncPolicy,
        telemetry: Telemetry,
    ) -> io::Result<(DurableJournal, RecoveredState)> {
        if DurableJournal::exists(dir) {
            DurableJournal::open(dir, policy, telemetry)
        } else {
            let snap = snapshot();
            let state = RecoveredState::from_snapshot(&snap);
            let j = DurableJournal::create(dir, &snap, policy, telemetry)?;
            Ok((j, state))
        }
    }

    /// Append one record, fsyncing per policy. When this returns under
    /// [`FsyncPolicy::EveryOp`], the record is durable.
    pub fn append(&mut self, rec: &JournalRecord) -> io::Result<()> {
        self.append_wal(rec)?;
        match self.policy {
            FsyncPolicy::EveryOp => self.sync()?,
            FsyncPolicy::Batched { max_pending } => {
                if self.pending >= max_pending {
                    self.sync()?;
                }
            }
        }
        Ok(())
    }

    /// Append one record *without* any inline fsync, regardless of
    /// policy, and return its LSN. The group-commit path: a caller
    /// (the listener's syncer thread) later covers the record via
    /// [`DurableJournal::sync_handle`] + [`DurableJournal::note_synced`]
    /// — or an explicit [`DurableJournal::sync`] barrier.
    pub fn append_wal(&mut self, rec: &JournalRecord) -> io::Result<u64> {
        let mut framed = Vec::new();
        frame_record(&mut framed, |w| rec.put(w))?;
        self.write_frames(&framed, 1)?;
        Ok(self.lsn)
    }

    /// Append a run of records with **one** `write_all` and return the
    /// last one's LSN (the current LSN for an empty run). Under
    /// [`FsyncPolicy::EveryOp`] the run is durable on return — one fsync
    /// for the whole run; under [`FsyncPolicy::Batched`] nothing is
    /// synced inline, as with [`DurableJournal::append_wal`]. A record
    /// stays the unit of atomicity: a crash mid-write leaves a prefix of
    /// the run's bytes, and recovery keeps the whole records in it.
    pub fn append_run(&mut self, run: &[&JournalRecord]) -> io::Result<u64> {
        let mut framed = Vec::new();
        for rec in run {
            frame_record(&mut framed, |w| rec.put(w))?;
        }
        self.write_frames(&framed, run.len())?;
        if self.policy == FsyncPolicy::EveryOp {
            self.sync()?;
        }
        Ok(self.lsn)
    }

    /// Append `count` already framed records with one write.
    fn write_frames(&mut self, framed: &[u8], count: usize) -> io::Result<()> {
        if self.failed {
            return Err(io::Error::other("journal failed earlier; appends are refused"));
        }
        // One `write_all` per append: a kill -9 (which preserves the page
        // cache) can never leave it half-done, only a power loss can
        // tear it mid-frame.
        if let Err(e) = self.file.write_all(framed) {
            self.failed = true;
            return Err(e);
        }
        self.bytes_written += framed.len() as u64;
        self.seg_records += count as u64;
        self.pending += count;
        self.lsn += count as u64;
        Ok(())
    }

    /// Roll-over and creation: one snapshot record, from the borrow.
    fn write_snapshot(&mut self, snapshot: &Snapshot) -> io::Result<()> {
        let mut framed = Vec::new();
        frame_record(&mut framed, |w| put_snapshot(w, snapshot))?;
        self.write_frames(&framed, 1)
    }

    /// Durability barrier: fsync anything appended since the last sync.
    pub fn sync(&mut self) -> io::Result<()> {
        if self.pending == 0 {
            return Ok(());
        }
        let span = self.telemetry.start();
        if let Err(e) = self.file.sync_data() {
            self.failed = true;
            return Err(e);
        }
        self.telemetry.stop(HistKind::JournalFsyncSeconds, span);
        self.pending = 0;
        self.synced_lsn = self.lsn;
        Ok(())
    }

    /// LSN of the most recently appended record (0 before any append
    /// through this handle).
    pub fn appended_lsn(&self) -> u64 {
        self.lsn
    }

    /// Highest LSN known durable.
    pub fn synced_lsn(&self) -> u64 {
        self.synced_lsn
    }

    /// A duplicate handle to the current segment file, for fsyncing
    /// *outside* whatever lock guards the journal. Safe with compaction:
    /// [`DurableJournal::compact`] syncs everything before rolling
    /// segments, so any record not in the current file is already
    /// durable — fsyncing a clone taken together with
    /// [`DurableJournal::appended_lsn`] therefore covers every record up
    /// to that LSN.
    pub fn sync_handle(&self) -> io::Result<File> {
        self.file.try_clone()
    }

    /// Record that an out-of-lock fsync (on a clone from
    /// [`DurableJournal::sync_handle`]) covered everything up to `lsn`.
    pub fn note_synced(&mut self, lsn: u64) {
        self.synced_lsn = self.synced_lsn.max(lsn.min(self.lsn));
        self.pending = (self.lsn - self.synced_lsn) as usize;
    }

    /// Roll to a new segment seeded with `snapshot`, then delete every
    /// older segment. The new segment is durable (file and directory
    /// synced) *before* anything is deleted, so a crash at any point
    /// leaves at least one recoverable segment.
    pub fn compact(&mut self, snapshot: &Snapshot) -> io::Result<()> {
        self.sync()?;
        let next = self.segment + 1;
        let path = segment_path(&self.dir, next);
        let file = OpenOptions::new().create_new(true).append(true).open(&path)?;
        let old_segment = self.segment;
        self.file = file;
        self.segment = next;
        self.seg_records = 0;
        self.write_snapshot(snapshot)?;
        self.sync()?;
        sync_dir(&self.dir)?;
        for seg in list_segments(&self.dir)? {
            if seg <= old_segment {
                let _ = fs::remove_file(segment_path(&self.dir, seg));
            }
        }
        sync_dir(&self.dir)?;
        Ok(())
    }

    /// The fsync policy this journal was opened with.
    pub fn policy(&self) -> FsyncPolicy {
        self.policy
    }

    /// Records appended to the current segment (snapshot included).
    pub fn records_in_segment(&self) -> u64 {
        self.seg_records
    }

    /// Index of the segment currently being appended to.
    pub fn segment_index(&self) -> u64 {
        self.segment
    }

    /// Total bytes appended through this handle.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Swap the segment handle for a read-only one, so the next append's
    /// `write_all` fails the way a full or failing disk would.
    #[cfg(test)]
    pub(crate) fn break_writes(&mut self) {
        self.file = File::open(segment_path(&self.dir, self.segment)).expect("segment exists");
    }
}

/// Bytes [`replay`] reads from a segment per refill. Its one buffer is
/// reused for the whole segment and grows past this only to hold a
/// larger frame (a snapshot record).
const READ_CHUNK: usize = 1 << 20;

/// Replay one segment file. Returns `None` when the segment's first
/// record is not an intact snapshot (stillborn segment); otherwise the
/// state, the byte offset of the end of the last complete record, and
/// how many tail bytes must be truncated.
fn replay_segment(path: &Path) -> io::Result<Option<(RecoveredState, u64, u64)>> {
    let file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let len = file.metadata()?.len();
    Ok(replay(file, len, READ_CHUNK)?.map(|(state, keep)| (state, keep, len - keep)))
}

/// Replay the `len` bytes of a segment in one pass, reading `chunk` bytes
/// at a time into one buffer. Each frame is found, CRC-checked and
/// decoded where it lies in the buffer, and its record is folded by
/// move. Replay stops at the first damage — bad magic, a length over
/// [`MAX_JOURNAL_FRAME_LEN`] or past the end, a CRC mismatch, an
/// undecodable record — and everything from there on is tail. Returns the
/// state and the end offset of its last record, or `None` when the
/// segment does not open with an intact snapshot.
fn replay(mut src: impl Read, len: u64, chunk: usize) -> io::Result<Option<(RecoveredState, u64)>> {
    let mut buf = Vec::with_capacity(chunk);
    // `buf[at..]` is unread; `keep` is its offset in the segment, the end
    // of the last complete record.
    let (mut at, mut keep) = (0, 0u64);
    let mut state: Option<RecoveredState> = None;
    while fill(&mut src, &mut buf, &mut at, 6, chunk)? {
        let head = &buf[at..at + 6];
        let payload_len = u32::from_le_bytes([head[2], head[3], head[4], head[5]]) as usize;
        let frame_len = FRAME_OVERHEAD + payload_len;
        if head[..2] != MAGIC
            || payload_len > MAX_JOURNAL_FRAME_LEN
            // Checked before the buffer grows to hold the frame.
            || keep + frame_len as u64 > len
            || !fill(&mut src, &mut buf, &mut at, frame_len, chunk)?
        {
            break;
        }
        let (payload, crc) = buf[at + 6..at + frame_len].split_at(payload_len);
        if crc32(payload).to_le_bytes() != crc {
            break;
        }
        let Ok(rec) = JournalRecord::decode(payload) else { break };
        match (&mut state, rec) {
            (None, JournalRecord::Snapshot(s)) => state = Some(RecoveredState::loaded(s)),
            // A segment must open with a snapshot.
            (None, _) => return Ok(None),
            (Some(st), rec) => st.fold(Cow::Owned(rec)),
        }
        at += frame_len;
        keep += frame_len as u64;
    }
    Ok(state.map(|state| (state, keep)))
}

/// Make `buf[*at..]` hold at least `need` bytes: move the unread bytes (a
/// part of one frame) to the front, then read up to `need` or `chunk`
/// bytes in all, whichever is more. `false` when `src` ends first.
fn fill(
    src: &mut impl Read,
    buf: &mut Vec<u8>,
    at: &mut usize,
    need: usize,
    chunk: usize,
) -> io::Result<bool> {
    if buf.len() - *at >= need {
        return Ok(true);
    }
    buf.drain(..*at);
    *at = 0;
    let want = need.max(chunk) - buf.len();
    buf.reserve_exact(want);
    src.take(want as u64).read_to_end(buf)?;
    Ok(buf.len() >= need)
}

#[cfg(test)]
mod replay_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    fn snap(n: usize) -> Snapshot {
        Snapshot {
            matrix: complete(n, 0.5),
            level: 1,
            availability: vec![1.0; n],
            next_seq: 0,
            dedup: Vec::new(),
        }
    }

    /// The element-at-a-time matrix encoding the row-block one replaced:
    /// the reference its bytes must equal.
    fn put_matrix_elementwise(m: &AgreementMatrix) -> Vec<u8> {
        let mut w = Writer::new();
        w.u64(m.n() as u64);
        for i in 0..m.n() {
            for j in 0..m.n() {
                w.f64(m.get(i, j));
            }
        }
        w.into_bytes()
    }

    proptest! {
        #[test]
        fn row_block_matrix_encoding_is_byte_identical(
            n in 0usize..24,
            shares in proptest::collection::vec(0.0f64..=1.0, 0..64),
        ) {
            // Sparse shares at scattered cells, the rest zero.
            let mut m = AgreementMatrix::zeros(n);
            for (k, &share) in shares.iter().enumerate() {
                let (i, j) = ((k * 7) % n.max(1), (k * 13 + 1) % n.max(1));
                if i != j {
                    m.set(i, j, share).unwrap();
                }
            }
            let mut w = Writer::new();
            put_matrix(&mut w, &m);
            let bytes = w.into_bytes();
            prop_assert_eq!(&bytes, &put_matrix_elementwise(&m));
            prop_assert_eq!(get_matrix(&mut Reader::new(&bytes)).unwrap(), m);
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("agreements-journal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn record_round_trips() {
        let recs = vec![
            JournalRecord::Snapshot(Snapshot {
                matrix: complete(3, 0.25),
                level: 2,
                availability: vec![1.0, 2.0, 3.0],
                next_seq: 17,
                dedup: vec![(RequestId { client: 1, seq: 2 }, RecordedDecision::Release(Ok(())))],
            }),
            JournalRecord::AgreementSet { from: 0, to: 1, share: 0.75 },
            JournalRecord::Join,
            JournalRecord::Leave { lrm: 2 },
            JournalRecord::Report { seq: Some(5), lrm: 1, available: 4.5 },
            JournalRecord::Report { seq: None, lrm: 0, available: 0.0 },
            JournalRecord::Decision {
                seq: Some(6),
                id: Some(RequestId { client: 3, seq: 4 }),
                body: DecisionBody::Grant(Ok(Allocation {
                    requester: 0,
                    amount: 1.0,
                    draws: vec![0.5, 0.5],
                    theta: 0.5,
                })),
            },
            JournalRecord::Decision {
                seq: None,
                id: None,
                body: DecisionBody::Release { draws: vec![1.0, 0.0], result: Ok(()) },
            },
            JournalRecord::Decision {
                seq: Some(9),
                id: Some(RequestId { client: 0, seq: 0 }),
                body: DecisionBody::Replay {
                    lrm: 1,
                    amount: 2.0,
                    result: Err(GrmError::UnknownLrm(9)),
                },
            },
        ];
        for rec in recs {
            let bytes = rec.encode();
            assert_eq!(JournalRecord::decode(&bytes).unwrap(), rec, "{rec:?}");
        }
    }

    #[test]
    fn create_append_reopen_replays_state() {
        let dir = tmpdir("reopen");
        let mut j =
            DurableJournal::create(&dir, &snap(2), FsyncPolicy::EveryOp, Telemetry::disabled())
                .unwrap();
        j.append(&JournalRecord::Report { seq: Some(0), lrm: 0, available: 5.0 }).unwrap();
        j.append(&JournalRecord::Report { seq: Some(1), lrm: 1, available: 7.0 }).unwrap();
        j.append(&JournalRecord::Decision {
            seq: Some(2),
            id: Some(RequestId { client: 1, seq: 0 }),
            body: DecisionBody::Grant(Ok(Allocation {
                requester: 0,
                amount: 3.0,
                draws: vec![3.0, 0.0],
                theta: 0.0,
            })),
        })
        .unwrap();
        j.append(&JournalRecord::AgreementSet { from: 0, to: 1, share: 0.9 }).unwrap();
        drop(j);

        let (j2, state) =
            DurableJournal::open(&dir, FsyncPolicy::EveryOp, Telemetry::disabled()).unwrap();
        assert_eq!(state.records, 5, "snapshot + 4 appends");
        assert_eq!(state.truncated_bytes, 0);
        assert_eq!(state.next_seq, 3);
        assert!((state.availability[0] - 2.0).abs() < 1e-12);
        assert!((state.availability[1] - 7.0).abs() < 1e-12);
        assert!((state.matrix.get(0, 1) - 0.9).abs() < 1e-12);
        assert_eq!(state.dedup.len(), 1);
        assert_eq!(j2.segment_index(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_appending_resumes() {
        let dir = tmpdir("torn");
        let mut j =
            DurableJournal::create(&dir, &snap(2), FsyncPolicy::EveryOp, Telemetry::disabled())
                .unwrap();
        j.append(&JournalRecord::Report { seq: Some(0), lrm: 0, available: 5.0 }).unwrap();
        j.append(&JournalRecord::Report { seq: Some(1), lrm: 1, available: 9.0 }).unwrap();
        drop(j);
        // Tear the final record: chop 3 bytes off the file.
        let path = segment_path(&dir, 0);
        let len = fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);

        let (mut j2, state) =
            DurableJournal::open(&dir, FsyncPolicy::EveryOp, Telemetry::disabled()).unwrap();
        assert_eq!(state.records, 2, "snapshot + first report survive");
        assert!(state.truncated_bytes > 0);
        assert!((state.availability[1] - 1.0).abs() < 1e-12, "torn report not applied");
        assert_eq!(state.next_seq, 1, "cursor stops at the last durable event");
        // The journal keeps working where the truncation left off.
        j2.append(&JournalRecord::Report { seq: Some(1), lrm: 1, available: 9.0 }).unwrap();
        drop(j2);
        let (_, state2) =
            DurableJournal::open(&dir, FsyncPolicy::EveryOp, Telemetry::disabled()).unwrap();
        assert_eq!(state2.records, 3);
        assert_eq!(state2.truncated_bytes, 0);
        assert!((state2.availability[1] - 9.0).abs() < 1e-12);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_rolls_segment_and_deletes_old() {
        let dir = tmpdir("compact");
        let mut j =
            DurableJournal::create(&dir, &snap(2), FsyncPolicy::EveryOp, Telemetry::disabled())
                .unwrap();
        for k in 0..10 {
            j.append(&JournalRecord::Report { seq: Some(k), lrm: 0, available: k as f64 }).unwrap();
        }
        let compacted = Snapshot {
            matrix: complete(2, 0.5),
            level: 1,
            availability: vec![9.0, 1.0],
            next_seq: 10,
            dedup: Vec::new(),
        };
        j.compact(&compacted).unwrap();
        assert_eq!(j.segment_index(), 1);
        assert_eq!(j.records_in_segment(), 1, "fresh segment holds only the snapshot");
        assert!(!segment_path(&dir, 0).exists(), "old segment deleted");
        j.append(&JournalRecord::Report { seq: Some(10), lrm: 1, available: 4.0 }).unwrap();
        drop(j);
        let (_, state) =
            DurableJournal::open(&dir, FsyncPolicy::EveryOp, Telemetry::disabled()).unwrap();
        assert_eq!(state.next_seq, 11);
        assert!((state.availability[0] - 9.0).abs() < 1e-12);
        assert!((state.availability[1] - 4.0).abs() < 1e-12);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn batched_policy_defers_fsync_until_barrier() {
        let dir = tmpdir("batched");
        let mut j = DurableJournal::create(
            &dir,
            &snap(2),
            FsyncPolicy::Batched { max_pending: 64 },
            Telemetry::disabled(),
        )
        .unwrap();
        for k in 0..10 {
            j.append(&JournalRecord::Report { seq: Some(k), lrm: 0, available: 1.0 }).unwrap();
        }
        // No assertion on physical durability is possible portably; the
        // barrier must at least leave the journal consistent.
        j.sync().unwrap();
        drop(j);
        let (_, state) =
            DurableJournal::open(&dir, FsyncPolicy::EveryOp, Telemetry::disabled()).unwrap();
        assert_eq!(state.records, 11);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn respawned_server_carries_recovered_state() {
        let dir = tmpdir("respawn");
        let mut j =
            DurableJournal::create(&dir, &snap(2), FsyncPolicy::EveryOp, Telemetry::disabled())
                .unwrap();
        j.append(&JournalRecord::Report { seq: None, lrm: 0, available: 0.0 }).unwrap();
        j.append(&JournalRecord::Report { seq: None, lrm: 1, available: 8.0 }).unwrap();
        let id = RequestId { client: 5, seq: 0 };
        let alloc = Allocation { requester: 0, amount: 2.0, draws: vec![0.0, 2.0], theta: 2.0 };
        j.append(&JournalRecord::Decision {
            seq: None,
            id: Some(id),
            body: DecisionBody::Grant(Ok(alloc.clone())),
        })
        .unwrap();
        drop(j);

        let (_, state) =
            DurableJournal::open(&dir, FsyncPolicy::EveryOp, Telemetry::disabled()).unwrap();
        let server = state.respawn().unwrap();
        let h = server.handle();
        // Duplicate of the pre-crash request replays the original grant.
        let again = h.request_idempotent(0, 2.0, id).unwrap();
        assert_eq!(again.draws, alloc.draws);
        // Pool conservation: the recovered view already reflects the
        // grant, and the dedup hit does not deduct twice.
        let avail = h.availability().unwrap();
        assert!((avail.iter().sum::<f64>() - 6.0).abs() < 1e-9);
        server.shutdown();
        let _ = fs::remove_dir_all(&dir);
    }
}
