//! Exhaustive torn-write recovery: truncate the journal at **every byte
//! offset** of its final record and prove recovery always lands on
//! exactly the surviving prefix — never a crash, never a phantom
//! operation, never a lost one.
//!
//! This is the property the write-ahead-of-reply rule leans on: a crash
//! mid-append can leave any prefix of the final record's bytes on disk,
//! and whatever that prefix is, recovery must behave as if the append
//! never started. The final record here is a successful grant — the
//! worst case, because replaying a half-written grant (or inventing one
//! from torn bytes) would corrupt the pools *and* the dedup window.

use std::fs;
use std::path::{Path, PathBuf};

use agreements_faults::{Fate, FaultMix, FaultSchedule};
use agreements_flow::AgreementMatrix;
use agreements_grm::RequestId;
use agreements_net::frame::FRAME_OVERHEAD;
use agreements_net::journal::{
    DecisionBody, DurableJournal, FsyncPolicy, JournalRecord, RecoveredState, Snapshot,
};
use agreements_sched::Allocation;
use agreements_telemetry::Telemetry;
use proptest::prelude::*;

fn complete(n: usize, share: f64) -> AgreementMatrix {
    let mut m = AgreementMatrix::zeros(n);
    for i in 0..n {
        for j in 0..n {
            if i != j {
                m.set(i, j, share).unwrap();
            }
        }
    }
    m
}

fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("agreements-torn-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    d
}

/// Field-by-field equality that treats the matrix structurally and the
/// floats exactly (both sides fold the identical op sequence, so even
/// rounding must agree bit-for-bit).
fn assert_states_equal(got: &RecoveredState, want: &RecoveredState, ctx: &str) {
    assert_eq!(got.matrix.n(), want.matrix.n(), "{ctx}: matrix size");
    for i in 0..want.matrix.n() {
        for j in 0..want.matrix.n() {
            assert_eq!(
                got.matrix.get(i, j).to_bits(),
                want.matrix.get(i, j).to_bits(),
                "{ctx}: matrix[{i}][{j}]"
            );
        }
    }
    assert_eq!(got.availability.len(), want.availability.len(), "{ctx}: availability len");
    for (k, (g, w)) in got.availability.iter().zip(&want.availability).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{ctx}: availability[{k}]");
    }
    assert_eq!(got.next_seq, want.next_seq, "{ctx}: next_seq");
    assert_eq!(got.dedup, want.dedup, "{ctx}: dedup window");
    assert_eq!(got.records, want.records, "{ctx}: record count");
}

#[test]
fn recovery_from_every_byte_offset_of_the_final_record() {
    // --- Build a reference journal -----------------------------------
    let snap = Snapshot {
        matrix: complete(3, 0.4),
        level: 1,
        availability: vec![10.0, 10.0, 10.0],
        next_seq: 0,
        dedup: Vec::new(),
    };
    let records: Vec<JournalRecord> = vec![
        JournalRecord::Report { seq: Some(0), lrm: 0, available: 6.0 },
        JournalRecord::AgreementSet { from: 0, to: 1, share: 0.8 },
        JournalRecord::Decision {
            seq: Some(1),
            id: Some(RequestId { client: 7, seq: 1 }),
            body: DecisionBody::Release { draws: vec![0.0, 1.5, 0.0], result: Ok(()) },
        },
        // The final record, the one the tear hits: a successful grant.
        JournalRecord::Decision {
            seq: Some(2),
            id: Some(RequestId { client: 7, seq: 2 }),
            body: DecisionBody::Grant(Ok(Allocation {
                requester: 1,
                amount: 4.0,
                draws: vec![1.0, 2.0, 1.0],
                theta: 0.75,
            })),
        },
    ];
    let master = scratch("master");
    let mut j = DurableJournal::create(&master, &snap, FsyncPolicy::EveryOp, Telemetry::disabled())
        .unwrap();
    for rec in &records {
        j.append(rec).unwrap();
    }
    drop(j);

    let seg = master.join("segment-000000.log");
    let full = fs::read(&seg).unwrap();
    let final_len = FRAME_OVERHEAD + records.last().unwrap().encode().len();
    let prefix_end = full.len() - final_len;

    // The state recovery must produce for any tear inside the final
    // record: snapshot + all records but the last.
    let mut want_prefix = RecoveredState::from_snapshot(&snap);
    for rec in &records[..records.len() - 1] {
        want_prefix.apply(rec);
    }
    // And for the untorn file: everything.
    let mut want_full = want_prefix.clone();
    want_full.apply(records.last().unwrap());

    // --- Tear at every byte offset of the final record ---------------
    let dir = scratch("cut");
    for cut in prefix_end..=full.len() {
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("segment-000000.log"), &full[..cut]).unwrap();

        let (mut journal, state) =
            DurableJournal::open(&dir, FsyncPolicy::EveryOp, Telemetry::disabled())
                .unwrap_or_else(|e| panic!("recovery failed at cut {cut}: {e}"));
        let torn = cut < full.len();
        let want = if torn { &want_prefix } else { &want_full };
        assert_states_equal(&state, want, &format!("cut at byte {cut}"));
        assert_eq!(
            state.truncated_bytes,
            (cut - prefix_end) as u64 * torn as u64,
            "cut at byte {cut}: truncated tail size"
        );

        // The journal must keep working where the truncation left off:
        // re-append the lost record and recover the full state.
        if torn {
            journal.append(records.last().unwrap()).unwrap();
            drop(journal);
            let (_, healed) =
                DurableJournal::open(&dir, FsyncPolicy::EveryOp, Telemetry::disabled()).unwrap();
            assert_states_equal(&healed, &want_full, &format!("re-append after cut {cut}"));
        }
    }
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&master);
}

/// Compaction rolls to a new segment before it retires the old one, so a
/// crash mid-roll leaves the old segment whole beside a new one that ends
/// anywhere inside its snapshot. At every byte of that snapshot, recovery
/// falls back to the old segment and loses nothing that was synced, drops
/// the stillborn one, and compacts again cleanly; the whole snapshot
/// recovers to the same state from the new segment alone.
#[test]
fn a_torn_rolled_snapshot_falls_back_to_the_old_segment() {
    let snap = Snapshot {
        matrix: complete(3, 0.4),
        level: 1,
        availability: vec![10.0, 10.0, 10.0],
        next_seq: 0,
        dedup: Vec::new(),
    };
    let records: Vec<JournalRecord> = (0..6u64)
        .map(|k| match k % 3 {
            0 => JournalRecord::Report { seq: Some(k), lrm: k % 3, available: 6.0 + k as f64 },
            1 => JournalRecord::Decision {
                seq: Some(k),
                id: Some(RequestId { client: 7, seq: k }),
                body: DecisionBody::Grant(Ok(Allocation {
                    requester: 1,
                    amount: 1.5,
                    draws: vec![0.5, 0.5, 0.5],
                    theta: 0.25,
                })),
            },
            _ => JournalRecord::Decision {
                seq: Some(k),
                id: Some(RequestId { client: 8, seq: k }),
                body: DecisionBody::Release { draws: vec![0.0, 1.0, 0.0], result: Ok(()) },
            },
        })
        .collect();
    let master = scratch("roll-master");
    let mut j = DurableJournal::create(&master, &snap, FsyncPolicy::EveryOp, Telemetry::disabled())
        .unwrap();
    let mut want = RecoveredState::from_snapshot(&snap);
    for rec in &records {
        j.append(rec).unwrap();
        want.apply(rec);
    }
    // Every record is synced (`EveryOp`): the old segment as a crash
    // mid-roll leaves it, and the new segment's whole snapshot.
    let old = fs::read(master.join("segment-000000.log")).unwrap();
    j.compact(&want.snapshot()).unwrap();
    drop(j);
    let new = fs::read(master.join("segment-000001.log")).unwrap();
    assert_eq!(new.len(), FRAME_OVERHEAD + JournalRecord::Snapshot(want.snapshot()).encode().len());

    let dir = scratch("roll-cut");
    for cut in 0..=new.len() {
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("segment-000000.log"), &old).unwrap();
        fs::write(dir.join("segment-000001.log"), &new[..cut]).unwrap();

        let (mut journal, state) =
            DurableJournal::open(&dir, FsyncPolicy::EveryOp, Telemetry::disabled())
                .unwrap_or_else(|e| panic!("recovery failed at cut {cut}: {e}"));
        let torn = cut < new.len();
        let ctx = format!("snapshot cut at byte {cut}");
        if torn {
            assert_eq!(journal.segment_index(), 0, "{ctx}: fell back to the old segment");
            assert!(!dir.join("segment-000001.log").exists(), "{ctx}: stillborn segment kept");
            assert_states_equal(&state, &want, &ctx);
            // The journal compacts again where the crash left it.
            journal.compact(&state.snapshot()).unwrap();
            assert!(!dir.join("segment-000000.log").exists(), "{ctx}: old segment not retired");
        } else {
            assert_eq!(journal.segment_index(), 1, "{ctx}: the whole snapshot is read");
            let mut from_new = want.clone();
            from_new.records = 1;
            assert_states_equal(&state, &from_new, &ctx);
        }
    }
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&master);
}

/// The listener appends a whole run of records with one `write_all`
/// ([`DurableJournal::append_run`]), so a power cut can tear the write
/// anywhere inside *several* records. A record stays the unit of
/// atomicity: at every byte offset of the run, recovery keeps exactly the
/// whole records before the cut — never half of one, never one twice (a
/// double debit) — and appending resumes cleanly behind them.
#[test]
fn recovery_from_every_byte_offset_of_a_multi_record_run() {
    let snap = Snapshot {
        matrix: complete(3, 0.4),
        level: 1,
        availability: vec![10.0, 10.0, 10.0],
        next_seq: 0,
        dedup: Vec::new(),
    };
    let grant = |seq: u64, draws: Vec<f64>| JournalRecord::Decision {
        seq: None,
        id: Some(RequestId { client: 4, seq }),
        body: DecisionBody::Grant(Ok(Allocation {
            requester: 0,
            amount: draws.iter().sum(),
            draws,
            theta: 0.5,
        })),
    };
    let run: Vec<JournalRecord> = vec![
        grant(1, vec![2.0, 1.0, 0.0]),
        JournalRecord::Report { seq: None, lrm: 2, available: 7.5 },
        grant(2, vec![3.0, 0.0, 1.5]),
        JournalRecord::Decision {
            seq: None,
            id: Some(RequestId { client: 4, seq: 3 }),
            body: DecisionBody::Release { draws: vec![2.0, 1.0, 0.0], result: Ok(()) },
        },
        grant(4, vec![4.0, 4.0, 4.0]),
    ];
    let master = scratch("run-master");
    let mut j = DurableJournal::create(&master, &snap, FsyncPolicy::EveryOp, Telemetry::disabled())
        .unwrap();
    j.append(&JournalRecord::Report { seq: None, lrm: 0, available: 9.0 }).unwrap();
    let before = fs::metadata(master.join("segment-000000.log")).unwrap().len() as usize;
    let last = j.append_run(&run.iter().collect::<Vec<_>>()).unwrap();
    assert_eq!(last, 2 + run.len() as u64, "snapshot, report, then the run's last LSN");
    drop(j);
    let full = fs::read(master.join("segment-000000.log")).unwrap();

    // End offset of each record of the run, and the state after it.
    let mut ends = vec![before];
    let mut base = RecoveredState::from_snapshot(&snap);
    base.apply(&JournalRecord::Report { seq: None, lrm: 0, available: 9.0 });
    let mut states = vec![base];
    for rec in &run {
        ends.push(ends.last().unwrap() + FRAME_OVERHEAD + rec.encode().len());
        let mut next = states.last().unwrap().clone();
        next.apply(rec);
        states.push(next);
    }
    assert_eq!(*ends.last().unwrap(), full.len(), "the run is one contiguous write");

    let dir = scratch("run-cut");
    for cut in before..=full.len() {
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("segment-000000.log"), &full[..cut]).unwrap();
        let (mut journal, state) =
            DurableJournal::open(&dir, FsyncPolicy::EveryOp, Telemetry::disabled())
                .unwrap_or_else(|e| panic!("recovery failed at cut {cut}: {e}"));
        // Whole records of the run that fit before the cut.
        let whole = ends.iter().rposition(|&end| end <= cut).unwrap();
        assert_states_equal(&state, &states[whole], &format!("cut at byte {cut}"));
        assert_eq!(state.truncated_bytes, (cut - ends[whole]) as u64, "cut at byte {cut}");

        // Re-appending the lost suffix as a run heals the journal.
        if whole < run.len() {
            journal.append_run(&run[whole..].iter().collect::<Vec<_>>()).unwrap();
            drop(journal);
            let (_, healed) =
                DurableJournal::open(&dir, FsyncPolicy::EveryOp, Telemetry::disabled()).unwrap();
            assert_states_equal(&healed, states.last().unwrap(), &format!("healed cut {cut}"));
        }
    }
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&master);
}

#[test]
fn recovery_never_invents_a_decision_from_torn_bytes() {
    // A torn grant must not reach the dedup window: a client retrying
    // the granted request after recovery must see a *fresh* execution,
    // not a replay of a half-written record.
    let snap = Snapshot {
        matrix: complete(2, 0.5),
        level: 1,
        availability: vec![8.0, 8.0],
        next_seq: 0,
        dedup: Vec::new(),
    };
    let id = RequestId { client: 3, seq: 9 };
    let grant = JournalRecord::Decision {
        seq: None,
        id: Some(id),
        body: DecisionBody::Grant(Ok(Allocation {
            requester: 0,
            amount: 2.0,
            draws: vec![2.0, 0.0],
            theta: 1.0,
        })),
    };
    let dir = scratch("phantom");
    let mut j =
        DurableJournal::create(&dir, &snap, FsyncPolicy::EveryOp, Telemetry::disabled()).unwrap();
    j.append(&grant).unwrap();
    drop(j);

    // Tear off the grant's last byte, recover, respawn.
    let seg = dir.join("segment-000000.log");
    let full = fs::read(&seg).unwrap();
    fs::write(&seg, &full[..full.len() - 1]).unwrap();
    let (_, state) =
        DurableJournal::open(&dir, FsyncPolicy::EveryOp, Telemetry::disabled()).unwrap();
    assert!(state.dedup.is_empty(), "torn grant must not seed the dedup window");
    let server = state.respawn().unwrap();
    let h = server.handle();
    // The retry executes fresh (it was never acknowledged), drawing real
    // units from the recovered pools.
    let alloc = h.request_idempotent(0, 2.0, id).unwrap();
    assert!((alloc.amount - 2.0).abs() < 1e-12);
    let avail = h.availability().unwrap();
    assert!(
        (avail.iter().sum::<f64>() - (16.0 - alloc.amount)).abs() < 1e-9,
        "pool conservation: 16 total minus the one real grant"
    );
    let stats = h.stats().unwrap();
    assert_eq!(stats.duplicate_requests, 0, "fresh execution, not a dedup replay");
    server.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Group commit (FsyncPolicy::Batched + append_wal)
// ---------------------------------------------------------------------

/// Kill-9 (as opposed to power loss) preserves the page cache, so the
/// whole appended tail survives — including records whose covering
/// fsync had not yet run, and whose replies were therefore never
/// released. Those *unacked* decisions must still rebuild the dedup
/// window: the client never saw the reply and will retry the same
/// `RequestId`, and the retry must replay the original decision instead
/// of double-granting.
#[test]
fn unacked_group_commit_records_rebuild_the_dedup_window() {
    let snap = Snapshot {
        matrix: complete(2, 0.5),
        level: 1,
        availability: vec![8.0, 8.0],
        next_seq: 0,
        dedup: Vec::new(),
    };
    let id = RequestId { client: 11, seq: 1 };
    let grant = JournalRecord::Decision {
        seq: None,
        id: Some(id),
        body: DecisionBody::Grant(Ok(Allocation {
            requester: 0,
            amount: 3.0,
            draws: vec![3.0, 0.0],
            theta: 1.0,
        })),
    };
    let dir = scratch("unacked");
    let mut j = DurableJournal::create(
        &dir,
        &snap,
        FsyncPolicy::Batched { max_pending: 64 },
        Telemetry::disabled(),
    )
    .unwrap();
    // Write-ahead append, NO covering sync: the decision is appended
    // but its reply is still gated when the kill lands.
    let lsn = j.append_wal(&grant).unwrap();
    assert!(j.synced_lsn() < lsn, "covering fsync must still be outstanding");
    drop(j); // kill-9: the file content (page cache) survives as written

    let (_, state) =
        DurableJournal::open(&dir, FsyncPolicy::Batched { max_pending: 64 }, Telemetry::disabled())
            .unwrap();
    assert_eq!(state.dedup.len(), 1, "unacked decision must seed the dedup window");
    let server = state.respawn().unwrap();
    let h = server.handle();
    // The client retry replays the original decision — same draws, no
    // second debit.
    let alloc = h.request_idempotent(0, 3.0, id).unwrap();
    assert_eq!(alloc.amount.to_bits(), 3.0f64.to_bits());
    let avail = h.availability().unwrap();
    assert_eq!(avail[0].to_bits(), 5.0f64.to_bits(), "pool debited exactly once");
    assert_eq!(h.stats().unwrap().duplicate_requests, 1, "retry answered from the window");
    server.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

/// Build `total` grant decisions, group-commit style: every record goes
/// in via `append_wal`, with one explicit `sync()` barrier after the
/// first `synced` records (the covering fsync of the first group).
/// Returns the segment bytes plus the file length after each record.
fn grouped_journal(dir: &Path, snap: &Snapshot, ids: &[RequestId], synced: usize) -> Vec<u64> {
    let mut j = DurableJournal::create(
        dir,
        snap,
        FsyncPolicy::Batched { max_pending: usize::MAX },
        Telemetry::disabled(),
    )
    .unwrap();
    let seg = dir.join("segment-000000.log");
    // The snapshot written by `create` consumed the first LSN; WAL
    // records count densely from there.
    let base = j.appended_lsn();
    let mut len_after = Vec::with_capacity(ids.len() + 1);
    len_after.push(fs::metadata(&seg).unwrap().len());
    for (i, id) in ids.iter().enumerate() {
        let rec = JournalRecord::Decision {
            seq: None,
            id: Some(*id),
            body: DecisionBody::Grant(Ok(Allocation {
                requester: 0,
                amount: 0.25,
                draws: vec![0.25, 0.0, 0.0],
                theta: 1.0,
            })),
        };
        let lsn = j.append_wal(&rec).unwrap();
        assert_eq!(lsn, base + i as u64 + 1, "append_wal LSNs are dense");
        if i + 1 == synced {
            j.sync().unwrap();
            assert_eq!(j.synced_lsn(), lsn, "sync advances the watermark");
        }
        len_after.push(fs::metadata(&seg).unwrap().len());
    }
    assert_eq!(j.appended_lsn(), base + ids.len() as u64);
    len_after
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Power loss at an arbitrary point between append and covering
    /// fsync: any byte cut at or beyond the synced prefix must (a) lose
    /// at most the unsynced loss window — never a synced record — and
    /// (b) never double-grant: every surviving decision replays from
    /// the dedup window on retry, every lost one re-executes freshly,
    /// and the pools balance either way.
    #[test]
    fn group_commit_loss_window_is_bounded_and_grants_never_double(
        total in 1usize..14,
        synced_frac in 0.0f64..=1.0,
        cut_frac in 0.0f64..=1.0,
    ) {
        let synced = (synced_frac * total as f64).round() as usize;
        let snap = Snapshot {
            matrix: complete(3, 0.5),
            level: 1,
            availability: vec![16.0, 16.0, 16.0],
            next_seq: 0,
            dedup: Vec::new(),
        };
        let ids: Vec<RequestId> =
            (0..total).map(|i| RequestId { client: 21, seq: i as u64 }).collect();
        let dir = scratch(&format!("group-{total}-{synced}"));
        let len_after = grouped_journal(&dir, &snap, &ids, synced);

        // The kill can truncate anywhere at or after the synced prefix
        // (fsync'd bytes are stable by definition).
        let seg = dir.join("segment-000000.log");
        let lo = len_after[synced];
        let hi = len_after[total];
        let cut = lo + ((hi - lo) as f64 * cut_frac) as u64;
        let full = fs::read(&seg).unwrap();
        fs::write(&seg, &full[..cut as usize]).unwrap();

        let (_, state) = DurableJournal::open(
            &dir,
            FsyncPolicy::Batched { max_pending: usize::MAX },
            Telemetry::disabled(),
        )
        .unwrap();
        // (a) Bounded loss: exactly the complete records within the cut
        // survive — at least the synced prefix, never a phantom.
        let survived = len_after.iter().filter(|&&l| l <= cut).count() - 1;
        prop_assert!(survived >= synced, "synced prefix lost: {survived} < {synced}");
        prop_assert!(survived <= total);
        prop_assert_eq!(state.dedup.len(), survived, "dedup window == surviving decisions");

        // (b) Never double-grant: retry every id against the respawned
        // server.
        let server = state.respawn().unwrap();
        let h = server.handle();
        for id in &ids {
            let alloc = h.request_idempotent(0, 0.25, *id).unwrap();
            prop_assert_eq!(alloc.amount.to_bits(), 0.25f64.to_bits());
        }
        let stats = h.stats().unwrap();
        prop_assert_eq!(stats.duplicate_requests, survived as u64, "survivors replay");
        let avail = h.availability().unwrap();
        let want = 48.0 - 0.25 * total as f64;
        prop_assert!(
            (avail.iter().sum::<f64>() - want).abs() < 1e-9,
            "each grant debited exactly once: {} vs {}",
            avail.iter().sum::<f64>(),
            want
        );
        server.shutdown();
        let _ = fs::remove_dir_all(&dir);
    }

    /// The same loss bound on the latency-injected batched-fsync path:
    /// under a jittered link the hold timer — not the group fill —
    /// paces the syncer, so covering fsyncs land at arrival-jitter-
    /// determined points scattered through the stream rather than at
    /// one clean barrier. Derive those sync points from a seeded Delay
    /// schedule (a frame stalling past half the latency cap models the
    /// hold timer firing), and prove that wherever they land, a cut at
    /// or beyond the *last* synced byte loses at most the tail behind
    /// it — and retries still never double-grant.
    #[test]
    fn latency_jittered_sync_points_keep_the_loss_window_bounded(
        total in 1usize..14,
        seed in proptest::prelude::any::<u64>(),
        cut_frac in 0.0f64..=1.0,
    ) {
        let mut jitter =
            FaultSchedule::new(seed, "fsync-jitter", FaultMix::none().with_latency(0.6, 1_000));
        let sync_after: Vec<bool> = (0..total)
            .map(|_| matches!(jitter.next_fate(), Fate::Delay { micros } if micros > 500))
            .collect();

        let snap = Snapshot {
            matrix: complete(3, 0.5),
            level: 1,
            availability: vec![16.0, 16.0, 16.0],
            next_seq: 0,
            dedup: Vec::new(),
        };
        let ids: Vec<RequestId> =
            (0..total).map(|i| RequestId { client: 23, seq: i as u64 }).collect();
        let dir = scratch(&format!("jitter-{total}"));
        let _ = fs::remove_dir_all(&dir);
        let mut j = DurableJournal::create(
            &dir,
            &snap,
            FsyncPolicy::Batched { max_pending: usize::MAX },
            Telemetry::disabled(),
        )
        .unwrap();
        let seg = dir.join("segment-000000.log");
        let mut len_after = vec![fs::metadata(&seg).unwrap().len()];
        let mut last_synced = 0usize;
        for (i, id) in ids.iter().enumerate() {
            let rec = JournalRecord::Decision {
                seq: None,
                id: Some(*id),
                body: DecisionBody::Grant(Ok(Allocation {
                    requester: 0,
                    amount: 0.25,
                    draws: vec![0.25, 0.0, 0.0],
                    theta: 1.0,
                })),
            };
            let lsn = j.append_wal(&rec).unwrap();
            if sync_after[i] {
                j.sync().unwrap();
                prop_assert_eq!(j.synced_lsn(), lsn, "sync advances the watermark");
                last_synced = i + 1;
            }
            len_after.push(fs::metadata(&seg).unwrap().len());
        }
        drop(j);

        // Cut anywhere at or beyond the last jitter-driven fsync.
        let lo = len_after[last_synced];
        let hi = len_after[total];
        let cut = lo + ((hi - lo) as f64 * cut_frac) as u64;
        let full = fs::read(&seg).unwrap();
        fs::write(&seg, &full[..cut as usize]).unwrap();

        let (_, state) = DurableJournal::open(
            &dir,
            FsyncPolicy::Batched { max_pending: usize::MAX },
            Telemetry::disabled(),
        )
        .unwrap();
        let survived = len_after.iter().filter(|&&l| l <= cut).count() - 1;
        prop_assert!(
            survived >= last_synced,
            "a jitter-paced fsync was lost: {survived} < {last_synced}"
        );
        prop_assert_eq!(state.dedup.len(), survived, "dedup window == surviving decisions");

        let server = state.respawn().unwrap();
        let h = server.handle();
        for id in &ids {
            let alloc = h.request_idempotent(0, 0.25, *id).unwrap();
            prop_assert_eq!(alloc.amount.to_bits(), 0.25f64.to_bits());
        }
        let stats = h.stats().unwrap();
        prop_assert_eq!(stats.duplicate_requests, survived as u64, "survivors replay");
        let avail = h.availability().unwrap();
        let want = 48.0 - 0.25 * total as f64;
        prop_assert!(
            (avail.iter().sum::<f64>() - want).abs() < 1e-9,
            "each grant debited exactly once: {} vs {}",
            avail.iter().sum::<f64>(),
            want
        );
        server.shutdown();
        let _ = fs::remove_dir_all(&dir);
    }
}
