//! The recovery mirror's dedup window is indexed (map + recency deque)
//! where it used to be a scanned and shifted `Vec`. Compaction snapshots
//! written by the two must be the same bytes: `fixtures/snapshot_v1.bin`
//! was written by the `Vec` code path (the commit before the index
//! landed) from the record sequence below — enough ids to wrap the
//! 1 024-entry window, plus re-applied ids that refresh recency — and
//! the indexed fold of the same sequence must encode to it exactly.

use agreements_flow::AgreementMatrix;
use agreements_grm::{GrmError, RequestId};
use agreements_net::journal::{DecisionBody, JournalRecord, RecoveredState, Snapshot};
use agreements_sched::Allocation;

const FIXTURE: &[u8] = include_bytes!("fixtures/snapshot_v1.bin");

fn seed_snapshot() -> Snapshot {
    let mut matrix = AgreementMatrix::zeros(3);
    for i in 0..3 {
        for j in 0..3 {
            if i != j {
                matrix.set(i, j, 0.25).unwrap();
            }
        }
    }
    Snapshot { matrix, level: 2, availability: vec![50.0, 60.0, 70.0], next_seq: 3, dedup: vec![] }
}

fn record(k: u64) -> JournalRecord {
    let id = |client, seq| Some(RequestId { client, seq });
    let grant = |seq| JournalRecord::Decision {
        seq: Some(k + 3),
        id: id(1, seq),
        body: DecisionBody::Grant(Ok(Allocation {
            requester: (seq % 3) as usize,
            amount: 1.5,
            draws: vec![0.5, 0.25 * (seq % 4) as f64, 0.75],
            theta: 0.125,
        })),
    };
    match k % 5 {
        0 => {
            JournalRecord::Report { seq: Some(k + 3), lrm: k % 3, available: 40.0 + (k % 7) as f64 }
        }
        1 => grant(k),
        2 => JournalRecord::Decision {
            seq: None,
            id: id(2, k),
            body: DecisionBody::Release { draws: vec![0.25, 0.0, 0.5], result: Ok(()) },
        },
        3 => JournalRecord::Decision {
            seq: Some(k + 3),
            id: id(3, k),
            body: DecisionBody::Replay {
                lrm: 9,
                amount: 2.0,
                result: Err(GrmError::UnknownLrm(9)),
            },
        },
        // A re-applied id: no second pool effect, recency refreshed.
        _ => grant(k - 3),
    }
}

fn folded() -> RecoveredState {
    let mut state = RecoveredState::from_snapshot(&seed_snapshot());
    for k in 0..2000 {
        state.apply(&record(k));
    }
    state
}

#[test]
fn indexed_window_encodes_the_snapshot_the_vec_window_wrote() {
    let state = folded();
    let snap = state.snapshot();
    assert_eq!(snap.dedup.len(), 1024, "the sequence wraps the window");
    let bytes = JournalRecord::Snapshot(snap).encode();
    assert_eq!(bytes.len(), FIXTURE.len());
    assert!(bytes == FIXTURE, "snapshot bytes differ from the fixture");
}

#[test]
fn fixture_round_trips_through_the_indexed_window() {
    let JournalRecord::Snapshot(snap) = JournalRecord::decode(FIXTURE).unwrap() else {
        panic!("fixture is not a snapshot record");
    };
    let reloaded = RecoveredState::from_snapshot(&snap).snapshot();
    assert_eq!(reloaded, snap, "oldest-first order survives the index");
    assert!(JournalRecord::Snapshot(reloaded).encode() == FIXTURE);
}
