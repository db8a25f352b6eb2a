//! Streaming replay against the reference fold: a segment written with
//! [`DurableJournal`] and recovered through [`replay`] must come back as
//! exactly the state [`RecoveredState::from_snapshot`] plus
//! [`RecoveredState::apply`] builds from the same records — whole, torn
//! at any offset, or with any byte flipped around the points where the
//! read buffer refills. In-crate because the buffer size is private: the
//! properties run a small buffer so refills fall inside every kind of
//! frame, snapshots included.

use std::sync::atomic::{AtomicUsize, Ordering};

use agreements_grm::DEDUP_WINDOW;
use agreements_sched::SchedError;
use proptest::collection::vec;
use proptest::prelude::*;

use super::*;
use crate::frame::encode_frame_limited;

/// Principals in the generated economies.
const N: usize = 4;

fn arb_id() -> impl Strategy<Value = RequestId> {
    // Few ids, so duplicates inside the window are common.
    (0u64..2, 0u64..8).prop_map(|(client, seq)| RequestId { client, seq })
}

fn arb_alloc() -> impl Strategy<Value = Allocation> {
    (0..N, vec(0.0f64..5.0, N), 0.0f64..1.0).prop_map(|(requester, draws, theta)| Allocation {
        requester,
        amount: draws.iter().sum(),
        draws,
        theta,
    })
}

fn denied() -> GrmError {
    GrmError::Sched(SchedError::InsufficientCapacity {
        requester: 1,
        capacity: 0.5,
        requested: 2.0,
        resource: None,
    })
}

fn arb_body() -> impl Strategy<Value = DecisionBody> {
    prop_oneof![
        arb_alloc().prop_map(|a| DecisionBody::Grant(Ok(a))),
        Just(DecisionBody::Grant(Err(denied()))),
        (vec(0.0f64..5.0, N), any::<bool>()).prop_map(|(draws, ok)| DecisionBody::Release {
            draws,
            result: if ok { Ok(()) } else { Err(GrmError::UnknownLrm(9)) },
        }),
        (0..N as u64, 0.0f64..3.0).prop_map(|(lrm, amount)| DecisionBody::Replay {
            lrm,
            amount,
            result: Ok(()),
        }),
        (arb_alloc(), arb_alloc())
            .prop_map(|(a, b)| DecisionBody::GrantMulti(Ok(MultiAllocation { lanes: vec![a, b] }))),
        Just(DecisionBody::GrantMulti(Err(denied()))),
    ]
}

fn arb_snapshot() -> impl Strategy<Value = Snapshot> {
    let window = vec((arb_id(), arb_body()), 0..4);
    (vec(0.0f64..0.3, N * N), 1usize..3, vec(0.0f64..100.0, N), 0u64..4, window).prop_map(
        |(shares, level, availability, next_seq, window)| {
            let mut matrix = AgreementMatrix::zeros(N);
            for i in 0..N {
                for j in (0..N).filter(|&j| j != i) {
                    matrix.set(i, j, shares[i * N + j]).unwrap();
                }
            }
            let dedup = window.into_iter().map(|(id, body)| (id, body.into_recorded())).collect();
            Snapshot { matrix, level, availability, next_seq, dedup }
        },
    )
}

fn arb_seq() -> impl Strategy<Value = Option<u64>> {
    proptest::option::of(0u64..64)
}

fn arb_decision() -> impl Strategy<Value = JournalRecord> {
    (arb_seq(), proptest::option::of(arb_id()), arb_body())
        .prop_map(|(seq, id, body)| JournalRecord::Decision { seq, id, body })
}

fn arb_record() -> impl Strategy<Value = JournalRecord> {
    // Decisions three times as often as any other kind.
    prop_oneof![
        arb_decision(),
        arb_decision(),
        arb_decision(),
        (arb_seq(), 0..=N as u64, 0.0f64..100.0)
            .prop_map(|(seq, lrm, available)| JournalRecord::Report { seq, lrm, available }),
        (0..N as u64, 0..N as u64, 0.0f64..0.5)
            .prop_map(|(from, to, share)| JournalRecord::AgreementSet { from, to, share }),
        Just(JournalRecord::Join),
        (0..=N as u64).prop_map(|lrm| JournalRecord::Leave { lrm }),
        arb_snapshot().prop_map(JournalRecord::Snapshot),
    ]
}

/// A segment's content: its snapshot, its records, where (if anywhere) a
/// CRC-valid but undecodable frame sits among them, and the read buffer
/// as a percentage of the snapshot frame — always smaller than it.
#[derive(Debug)]
struct Stream {
    snapshot: Snapshot,
    records: Vec<JournalRecord>,
    garbage_at: Option<usize>,
    chunk_pct: usize,
}

/// `evict` adds [`DEDUP_WINDOW`] fresh ids somewhere in the stream, so the
/// ids decided before them fall out of the window and their duplicates
/// after them are folded as fresh.
fn arb_stream(records: usize, evict: bool) -> impl Strategy<Value = Stream> {
    let filler = evict.then(|| {
        (0..DEDUP_WINDOW as u64).map(|seq| JournalRecord::Decision {
            seq: None,
            id: Some(RequestId { client: 7, seq }),
            body: DecisionBody::Replay { lrm: 0, amount: 1.0, result: Ok(()) },
        })
    });
    (
        arb_snapshot(),
        vec(arb_record(), 0..records),
        any::<usize>(),
        // An undecodable frame in one stream out of four.
        (0u8..4, any::<usize>()),
        5usize..95,
    )
        .prop_map(move |(snapshot, mut records, filler_at, garbage, chunk_pct)| {
            if let Some(filler) = filler.clone() {
                let at = filler_at % (records.len() + 1);
                records.splice(at..at, filler);
            }
            let garbage_at = (garbage.0 == 0).then(|| garbage.1 % (records.len() + 1));
            Stream { snapshot, records, garbage_at, chunk_pct }
        })
}

/// A segment written by [`DurableJournal`], with its frames' extents.
struct Segment {
    dir: PathBuf,
    bytes: Vec<u8>,
    /// `[start, end)` of every frame: the snapshot, then the records,
    /// with the undecodable frame in its place.
    frames: Vec<(usize, usize)>,
    /// Frames before the first damage: the snapshot and the records
    /// ahead of the undecodable frame.
    intact: usize,
    chunk: usize,
}

impl Drop for Segment {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.dir);
    }
}

fn write(stream: &Stream) -> Segment {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("agreements-replay-{}-{case}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let never = FsyncPolicy::Batched { max_pending: usize::MAX };
    let mut j =
        DurableJournal::create(&dir, &stream.snapshot, never, Telemetry::disabled()).unwrap();
    j.append_run(&stream.records.iter().collect::<Vec<_>>()).unwrap();
    drop(j);
    let path = segment_path(&dir, 0);
    let mut bytes = fs::read(&path).unwrap();

    let snapshot_len =
        FRAME_OVERHEAD + JournalRecord::Snapshot(stream.snapshot.clone()).encode().len();
    let mut frames = vec![(0, snapshot_len)];
    for rec in &stream.records {
        let start = frames.last().unwrap().1;
        frames.push((start, start + FRAME_OVERHEAD + rec.encode().len()));
    }
    assert_eq!(frames.last().unwrap().1, bytes.len(), "frames tile the segment");
    let mut intact = frames.len();
    if let Some(at) = stream.garbage_at {
        let mut garbage = Vec::new();
        encode_frame_limited(b"\x09 no record", &mut garbage, MAX_JOURNAL_FRAME_LEN).unwrap();
        let start = frames[at].1;
        bytes.splice(start..start, garbage.iter().copied());
        frames.insert(at + 1, (start, start + garbage.len()));
        for frame in &mut frames[at + 2..] {
            frame.0 += garbage.len();
            frame.1 += garbage.len();
        }
        fs::write(&path, &bytes).unwrap();
        intact = at + 1;
    }
    let chunk = (snapshot_len * stream.chunk_pct / 100).max(8);
    Segment { dir, bytes, frames, intact, chunk }
}

/// The reference: `from_snapshot`, then `apply` record by record; entry
/// `k` is the state after `k` records.
fn reference(stream: &Stream, records: usize) -> Vec<RecoveredState> {
    let mut states = vec![RecoveredState::from_snapshot(&stream.snapshot)];
    for rec in &stream.records[..records] {
        let mut next = states.last().unwrap().clone();
        next.apply(rec);
        states.push(next);
    }
    states
}

fn assert_same(
    got: &RecoveredState,
    want: &RecoveredState,
    ctx: &str,
) -> Result<(), TestCaseError> {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let n = want.matrix.n();
    prop_assert_eq!(got.matrix.n(), n, "{}: matrix size", ctx);
    for i in 0..n {
        for j in 0..n {
            prop_assert_eq!(got.matrix.get(i, j).to_bits(), want.matrix.get(i, j).to_bits());
        }
    }
    prop_assert_eq!(got.level, want.level, "{}: level", ctx);
    prop_assert_eq!(bits(&got.availability), bits(&want.availability), "{}: availability", ctx);
    prop_assert_eq!(got.next_seq, want.next_seq, "{}: next_seq", ctx);
    prop_assert_eq!(
        got.dedup.iter().collect::<Vec<_>>(),
        want.dedup.iter().collect::<Vec<_>>(),
        "{}: dedup window, in order",
        ctx
    );
    prop_assert_eq!(got.records, want.records, "{}: records", ctx);
    Ok(())
}

/// A byte source that notes where each read it serves ends: the refill
/// points of a replay over it.
struct Recorder<'a> {
    bytes: &'a [u8],
    at: usize,
    ends: Vec<usize>,
}

impl Read for Recorder<'_> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let n = out.len().min(self.bytes.len() - self.at);
        out[..n].copy_from_slice(&self.bytes[self.at..self.at + n]);
        self.at += n;
        self.ends.push(self.at);
        Ok(n)
    }
}

/// What a replay of `bytes` owes when its first `survivors` frames are
/// the ones before the first damage.
fn check_replay(
    seg: &Segment,
    bytes: &[u8],
    states: &[RecoveredState],
    survivors: usize,
    ctx: &str,
) -> Result<(), TestCaseError> {
    let got = replay(bytes, bytes.len() as u64, seg.chunk).unwrap();
    match (got, survivors) {
        (None, 0) => {}
        (Some((state, keep)), k) if k > 0 => {
            prop_assert_eq!(keep, seg.frames[k - 1].1 as u64, "{}: bytes kept", ctx);
            assert_same(&state, &states[k - 1], ctx)?;
        }
        (got, _) => {
            let kept = got.map(|(_, keep)| keep);
            let detail = format!("{ctx}: {survivors} frames survive, replay kept {kept:?}");
            return Err(TestCaseError::fail(detail));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whole segments, with duplicate ids inside and outside the window:
    /// `open` (the real buffer) and a small-buffer replay both rebuild
    /// the reference state, and cut the segment at the first damage.
    #[test]
    fn streaming_replay_rebuilds_the_reference_fold(
        stream in prop_oneof![arb_stream(40, false), arb_stream(16, true)],
    ) {
        let seg = write(&stream);
        let records = seg.intact - 1;
        let want = reference(&stream, records).pop().unwrap();
        let (_, opened) =
            DurableJournal::open(&seg.dir, FsyncPolicy::EveryOp, Telemetry::disabled()).unwrap();
        assert_same(&opened, &want, "open")?;
        let tail = seg.bytes.len() - seg.frames[records].1;
        prop_assert_eq!(opened.truncated_bytes, tail as u64);
        prop_assert_eq!(fs::metadata(segment_path(&seg.dir, 0)).unwrap().len(),
            seg.frames[records].1 as u64, "open truncates the tail");
        let (state, keep) = replay(&seg.bytes[..], seg.bytes.len() as u64, seg.chunk)
            .unwrap()
            .unwrap();
        prop_assert_eq!(keep, seg.frames[records].1 as u64);
        assert_same(&state, &want, "small buffer")?;
    }

    /// Torn at every offset, and with a byte flipped at every offset,
    /// within one frame of each point where the buffer refills: replay
    /// keeps exactly the whole, undamaged frames ahead of the damage.
    #[test]
    fn streaming_replay_stops_at_the_first_damage_around_every_refill(
        stream in arb_stream(24, false),
    ) {
        let seg = write(&stream);
        let states = reference(&stream, seg.intact - 1);
        let mut source = Recorder { bytes: &seg.bytes, at: 0, ends: Vec::new() };
        replay(&mut source, seg.bytes.len() as u64, seg.chunk).unwrap();
        let frame_of = |at: usize| seg.frames.iter().position(|&(_, end)| at < end);
        let mut offsets = std::collections::BTreeSet::new();
        for &end in &source.ends {
            let Some(f) = frame_of(end) else { continue };
            let from = seg.frames[f.saturating_sub(1)].0;
            let to = seg.frames[(f + 1).min(seg.frames.len() - 1)].1;
            offsets.extend(from..to);
        }
        prop_assert!(
            source.ends.iter().any(|&end| end < seg.frames[0].1),
            "the buffer refills inside the snapshot frame"
        );
        let mut flipped = seg.bytes.clone();
        for at in offsets {
            let whole = seg.frames.iter().take_while(|&&(_, end)| end <= at).count();
            check_replay(&seg, &seg.bytes[..at], &states, whole.min(seg.intact),
                &format!("torn at {at}"))?;
            flipped[at] ^= 0x20;
            let damaged = frame_of(at).unwrap();
            check_replay(&seg, &flipped, &states, damaged.min(seg.intact),
                &format!("byte {at} flipped"))?;
            flipped[at] ^= 0x20;
        }
    }
}

/// The real buffer size, with a snapshot frame larger than it: `open`
/// grows the buffer once, then streams the records behind it.
#[test]
fn a_snapshot_larger_than_the_read_buffer_recovers() {
    let n = 380;
    let mut matrix = AgreementMatrix::zeros(n);
    for i in 0..n {
        matrix.set(i, (i + 1) % n, 0.25).unwrap();
        matrix.set(i, (i + 7) % n, 0.5).unwrap();
    }
    let snapshot =
        Snapshot { matrix, level: 2, availability: vec![3.0; n], next_seq: 5, dedup: Vec::new() };
    let records: Vec<_> = (0..64u64)
        .map(|k| JournalRecord::Decision {
            seq: Some(5 + k),
            id: Some(RequestId { client: 1, seq: k % 40 }),
            body: DecisionBody::Grant(Ok(Allocation {
                requester: k as usize,
                amount: 1.0,
                draws: (0..n).map(|i| if i as u64 == k { 1.0 } else { 0.0 }).collect(),
                theta: 0.5,
            })),
        })
        .collect();
    let stream = Stream { snapshot, records, garbage_at: None, chunk_pct: 100 };
    let seg = write(&stream);
    assert!(seg.frames[0].1 > READ_CHUNK, "the snapshot outgrows the buffer");
    let want = reference(&stream, stream.records.len()).pop().unwrap();
    let (_, opened) =
        DurableJournal::open(&seg.dir, FsyncPolicy::EveryOp, Telemetry::disabled()).unwrap();
    assert_same(&opened, &want, "open").unwrap();
    assert_eq!(opened.truncated_bytes, 0);
    // Torn inside the snapshot, nothing survives; torn just past it, the
    // snapshot alone does.
    let cut = seg.frames[0].1;
    assert!(replay(&seg.bytes[..cut - 1], (cut - 1) as u64, READ_CHUNK).unwrap().is_none());
    let (alone, keep) =
        replay(&seg.bytes[..cut + 3], (cut + 3) as u64, READ_CHUNK).unwrap().unwrap();
    assert_eq!(keep, cut as u64);
    assert_same(&alone, &RecoveredState::from_snapshot(&stream.snapshot), "snapshot alone")
        .unwrap();
}
