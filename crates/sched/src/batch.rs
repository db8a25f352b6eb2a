//! Cross-request batched admission: the front door that lets one warm
//! fine solver amortize over a whole drained admission queue (PR 6).
//!
//! The GRM serve loop already drains its mailbox on every wakeup; before
//! this module each drained allocation request still paid a full
//! scheduler round trip one at a time. [`BatchedAdmission`] instead takes
//! the drained run of requests, groups them by the requester's home
//! group, and ships each group's slot-ordered run to the persistent
//! `ShardExecutor` worker that owns that group's warm
//! solver. Workers replay their runs against a private copy of their
//! members' availability; the coordinator then commits accepted steps
//! **in global slot order** with the same full-vector
//! `(v − d).max(0.0)` expression the GRM applies, so the availability
//! vector evolves through literally the same sequence of operations as
//! one-by-one submission — including the `-0.0` normalization of
//! untouched entries. That is the bit-identity contract, property-tested
//! in `tests/proptest_batch.rs`.
//!
//! # The wave/stall protocol
//!
//! Requests that fit in their home group are independent across groups
//! (groups are disjoint), so they parallelize freely. A request its home
//! group cannot cover needs the coarse LP over *global* state, which
//! depends on every earlier decision. The batch therefore executes in
//! waves:
//!
//! 1. Fan the undecided tail of the batch out as per-group runs; each
//!    worker stops at the first request its group cannot cover.
//! 2. Let `S` be the earliest stalled slot across groups. Steps for
//!    slots before `S` are final (nothing at or after `S` can affect
//!    them); commit them in slot order. Steps at or after `S` are
//!    discarded — a coarse draw at `S` may touch their groups.
//! 3. Decide slot `S` inline through the ordinary one-by-one path (the
//!    coarse LP), then start the next wave at `S + 1`.
//!
//! Every wave decides at least one slot, so the loop terminates; a batch
//! with no coarse traffic finishes in a single wave.

use crate::error::SchedError;
use crate::executor::{GroupRun, RunRequest, RunStep};
use crate::hierarchy::{FineMode, HierarchicalScheduler};
use crate::state::Allocation;
use agreements_telemetry::Telemetry;

/// One queued allocation request: principal index and amount.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionRequest {
    /// Requesting principal (global index).
    pub requester: usize,
    /// Units requested.
    pub amount: f64,
}

/// Batched admission front door over a [`HierarchicalScheduler`] (see
/// module docs). Owns the scheduler; the caller owns the availability
/// vector and passes it mutably — decisions are committed into it, so
/// after a call it reflects every granted allocation.
#[derive(Debug)]
pub struct BatchedAdmission {
    sched: HierarchicalScheduler,
}

impl BatchedAdmission {
    /// Wrap a scheduler. Enable its executor (`set_parallel_auto` /
    /// `set_parallel_fine`) *before* wrapping.
    pub fn new(sched: HierarchicalScheduler) -> Self {
        BatchedAdmission { sched }
    }

    /// The underlying scheduler.
    pub fn scheduler(&self) -> &HierarchicalScheduler {
        &self.sched
    }

    /// Attach a telemetry plane (delegates to the scheduler, which also
    /// broadcasts it to any live executor workers).
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.sched.set_telemetry(telemetry);
    }

    /// Renegotiate one inter-group agreement mid-stream; returns the
    /// number of coarse flow rows recomputed. Requests admitted after
    /// this call see the new agreement — batched or not.
    pub fn set_inter(
        &mut self,
        from_group: usize,
        to_group: usize,
        share: f64,
    ) -> Result<usize, SchedError> {
        self.sched.set_inter(from_group, to_group, share)
    }

    /// Admit a single request: allocate through the scheduler and commit
    /// the draws into `availability` with the GRM's full-vector
    /// `(v − d).max(0.0)` expression. Errors leave the vector untouched.
    pub fn admit_one(
        &self,
        availability: &mut [f64],
        requester: usize,
        amount: f64,
    ) -> Result<Allocation, SchedError> {
        let alloc = self.sched.allocate(availability, requester, amount)?;
        for (v, d) in availability.iter_mut().zip(&alloc.draws) {
            *v = (*v - *d).max(0.0);
        }
        Ok(alloc)
    }

    /// Admit a whole batch, returning one decision per request in input
    /// order. Bit-identical to calling [`Self::admit_one`] on each
    /// request in the same order — the parallel path exists purely for
    /// throughput. Falls back to the one-by-one loop when no executor is
    /// live or a wave's fan-out is below the measured break-even.
    pub fn admit_batch(
        &self,
        availability: &mut [f64],
        reqs: &[AdmissionRequest],
    ) -> Vec<Result<Allocation, SchedError>> {
        let k = reqs.len();
        let n = self.sched.num_principals();
        let executor_live =
            availability.len() == n && self.sched.shard_executor().is_some() && k >= 2;
        if !executor_live {
            if self.sched.fine_mode() != FineMode::Sequential && k >= 2 {
                self.sched.exec_stats().note_fallback();
            }
            return reqs
                .iter()
                .map(|r| self.admit_one(availability, r.requester, r.amount))
                .collect();
        }
        let ex = self.sched.shard_executor().expect("checked above");

        let mut decisions: Vec<Option<Result<Allocation, SchedError>>> =
            (0..k).map(|_| None).collect();
        let mut i = 0;
        while i < k {
            // Build per-group runs over the undecided tail, deciding
            // stateless validation errors inline (they never touch
            // availability, so deciding them early changes nothing).
            let mut run_of_group: Vec<usize> = vec![usize::MAX; self.sched.num_groups()];
            let mut runs: Vec<GroupRun> = Vec::new();
            for slot in i..k {
                if decisions[slot].is_some() {
                    continue;
                }
                let r = &reqs[slot];
                if r.requester >= n {
                    decisions[slot] =
                        Some(Err(SchedError::UnknownPrincipal { index: r.requester, n }));
                    continue;
                }
                if !r.amount.is_finite() || r.amount < 0.0 {
                    decisions[slot] = Some(Err(SchedError::InvalidRequest { amount: r.amount }));
                    continue;
                }
                let g = self.sched.group_of(r.requester).expect("validated requester");
                if run_of_group[g] == usize::MAX {
                    run_of_group[g] = runs.len();
                    let members = &self.sched.groups()[g];
                    runs.push(GroupRun {
                        group: g,
                        first_member: members[0],
                        start: members.iter().map(|&m| availability[m]).collect(),
                        reqs: Vec::new(),
                    });
                }
                runs[run_of_group[g]].reqs.push(RunRequest { slot, amount: r.amount });
            }

            if !ex.should_parallelize(runs.len()) {
                if runs.len() >= 2 {
                    self.sched.exec_stats().note_fallback();
                }
                for slot in i..k {
                    if decisions[slot].is_none() {
                        let r = &reqs[slot];
                        decisions[slot] = Some(self.admit_one(availability, r.requester, r.amount));
                    }
                }
                break;
            }

            let outcomes = ex.run_fan(runs);
            let stall = outcomes.iter().filter_map(|o| o.stalled_at).min();
            let cutoff = stall.unwrap_or(k);

            // Steps before the earliest stall are final. Collect them
            // across groups and commit in global slot order — the exact
            // state evolution one-by-one submission would produce.
            let mut accepted: Vec<(usize, RunStep)> = Vec::new();
            for outcome in outcomes {
                for step in outcome.steps {
                    if step.slot < cutoff {
                        accepted.push((outcome.group, step));
                    }
                }
            }
            accepted.sort_by_key(|(_, step)| step.slot);
            for (group, step) in accepted {
                let slot = step.slot;
                let r = &reqs[slot];
                decisions[slot] = Some(step.result.map(|(local, theta)| {
                    let mut draws = vec![0.0; n];
                    for (&m, d) in self.sched.groups()[group].iter().zip(local) {
                        draws[m] += d;
                    }
                    for (v, d) in availability.iter_mut().zip(&draws) {
                        *v = (*v - *d).max(0.0);
                    }
                    Allocation { requester: r.requester, amount: r.amount, draws, theta }
                }));
            }

            match stall {
                Some(s) => {
                    // The stalled request needs global state (the coarse
                    // LP); decide it through the ordinary path.
                    let r = &reqs[s];
                    decisions[s] = Some(self.admit_one(availability, r.requester, r.amount));
                    i = s + 1;
                }
                None => i = k,
            }
        }
        decisions.into_iter().map(|d| d.expect("every slot decided")).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agreements_flow::AgreementMatrix;

    /// 2 groups of 3; groups share 50% with each other.
    fn sched(parallel: bool) -> HierarchicalScheduler {
        let groups = vec![vec![0, 1, 2], vec![3, 4, 5]];
        let mut inter = AgreementMatrix::zeros(2);
        inter.set(0, 1, 0.5).unwrap();
        inter.set(1, 0, 0.5).unwrap();
        let mut s = HierarchicalScheduler::new(groups, &inter, 1).unwrap();
        if parallel {
            s.set_parallel_fine(true);
        }
        s
    }

    fn batch_requests() -> Vec<AdmissionRequest> {
        vec![
            AdmissionRequest { requester: 0, amount: 2.0 },
            AdmissionRequest { requester: 4, amount: 3.0 },
            AdmissionRequest { requester: 1, amount: 4.5 },
            // Slot 3 overflows group 0 and must stall onto the coarse path.
            AdmissionRequest { requester: 2, amount: 9.0 },
            AdmissionRequest { requester: 9, amount: 1.0 }, // unknown principal
            AdmissionRequest { requester: 5, amount: -1.0 }, // invalid amount
            AdmissionRequest { requester: 3, amount: 2.0 },
            AdmissionRequest { requester: 0, amount: 100.0 }, // reject: beyond reach
            AdmissionRequest { requester: 5, amount: 0.0 },
        ]
    }

    #[test]
    fn batched_is_bit_identical_to_one_by_one() {
        let reqs = batch_requests();
        let start = vec![4.0, 3.0, 2.0, 8.0, 8.0, 8.0];

        let solo = BatchedAdmission::new(sched(false));
        let mut solo_avail = start.clone();
        let solo_decisions: Vec<_> =
            reqs.iter().map(|r| solo.admit_one(&mut solo_avail, r.requester, r.amount)).collect();

        let batched = BatchedAdmission::new(sched(true));
        let mut batch_avail = start;
        let batch_decisions = batched.admit_batch(&mut batch_avail, &reqs);

        assert!(
            solo_avail.iter().zip(&batch_avail).all(|(a, b)| a.to_bits() == b.to_bits()),
            "final availability differs: {solo_avail:?} vs {batch_avail:?}"
        );
        for (slot, (a, b)) in solo_decisions.iter().zip(&batch_decisions).enumerate() {
            match (a, b) {
                (Ok(x), Ok(y)) => {
                    assert_eq!(x.requester, y.requester, "slot {slot}");
                    assert_eq!(x.amount.to_bits(), y.amount.to_bits(), "slot {slot}");
                    assert_eq!(x.theta.to_bits(), y.theta.to_bits(), "slot {slot}");
                    assert!(
                        x.draws.iter().zip(&y.draws).all(|(p, q)| p.to_bits() == q.to_bits()),
                        "slot {slot}: {:?} vs {:?}",
                        x.draws,
                        y.draws
                    );
                }
                (Err(x), Err(y)) => assert_eq!(format!("{x:?}"), format!("{y:?}"), "slot {slot}"),
                other => panic!("slot {slot}: decision kind differs: {other:?}"),
            }
        }
    }

    #[test]
    fn empty_and_singleton_batches() {
        let b = BatchedAdmission::new(sched(true));
        let mut avail = vec![1.0; 6];
        assert!(b.admit_batch(&mut avail, &[]).is_empty());
        let d = b.admit_batch(&mut avail, &[AdmissionRequest { requester: 0, amount: 1.0 }]);
        assert_eq!(d.len(), 1);
        assert!(d[0].is_ok());
        assert!((avail.iter().sum::<f64>() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn set_inter_between_batches_changes_decisions() {
        let mut b = BatchedAdmission::new(sched(true));
        // Group 0 empty: requester 0 lives off the 50% inter-group share.
        let mut avail = vec![0.0, 0.0, 0.0, 4.0, 3.0, 3.0];
        let d = b.admit_batch(&mut avail, &[AdmissionRequest { requester: 0, amount: 2.0 }]);
        assert!(d[0].is_ok());
        // Revoke the agreement: the identical request must now reject.
        b.set_inter(1, 0, 0.0).unwrap();
        let d = b.admit_batch(&mut avail, &[AdmissionRequest { requester: 0, amount: 2.0 }]);
        assert!(d[0].is_err());
    }

    #[test]
    fn sequential_mode_batches_through_the_fallback() {
        let b = BatchedAdmission::new(sched(false));
        let mut avail = vec![4.0, 4.0, 4.0, 4.0, 4.0, 4.0];
        let reqs = vec![
            AdmissionRequest { requester: 0, amount: 6.0 },
            AdmissionRequest { requester: 3, amount: 6.0 },
        ];
        let d = b.admit_batch(&mut avail, &reqs);
        assert!(d.iter().all(Result::is_ok));
        assert!((avail.iter().sum::<f64>() - 12.0).abs() < 1e-9);
    }
}
