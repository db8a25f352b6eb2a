//! Cross-request batched admission for a single resource (PR 6): the
//! front door that lets one warm fine solver amortize over a whole
//! drained admission queue.
//!
//! [`BatchedAdmission`] is the one-lane entry into the one hierarchical
//! wave loop, [`crate::multires::MultiAdmission::decide_run`]: one
//! unnamed lane, so decisions are plain [`Allocation`]s and capacity
//! rejections carry `resource: None`. The loop's wave/stall protocol and
//! its bit-identity to one-by-one admission are documented there;
//! `tests/proptest_batch.rs` property-tests this entry.

use crate::error::SchedError;
use crate::hierarchy::HierarchicalScheduler;
use crate::multires::MultiAdmission;
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
    front: MultiAdmission,
}

impl BatchedAdmission {
    /// Wrap a scheduler. Enable its executor (`set_parallel_auto` /
    /// `set_parallel_fine`) *before* wrapping.
    pub fn new(sched: HierarchicalScheduler) -> Self {
        let front = MultiAdmission::new(Vec::new(), vec![sched]).expect("one unnamed lane");
        BatchedAdmission { front }
    }

    /// The underlying scheduler.
    pub fn scheduler(&self) -> &HierarchicalScheduler {
        self.front.lane(0)
    }

    /// Attach a telemetry plane (delegates to the scheduler, which also
    /// broadcasts it to any live executor workers).
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.front.set_telemetry(telemetry);
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
        self.front.set_inter(from_group, to_group, share)
    }

    /// Admit a single request: allocate through the scheduler and commit
    /// the draws into `availability` with the GRM's full-vector
    /// `(v − d).max(0.0)` expression. Errors leave the vector untouched.
    pub fn admit_one(
        &self,
        mut availability: &mut [f64],
        requester: usize,
        amount: f64,
    ) -> Result<Allocation, SchedError> {
        let lanes = std::slice::from_mut(&mut availability);
        self.front.decide(lanes, requester, std::slice::from_ref(&amount))
    }

    /// Admit a whole batch, returning one decision per request in input
    /// order. Bit-identical to calling [`Self::admit_one`] on each
    /// request in the same order — the parallel path exists purely for
    /// throughput. Falls back to the one-by-one loop when no executor is
    /// live or a wave's fan-out is below the measured break-even.
    pub fn admit_batch(
        &self,
        mut availability: &mut [f64],
        reqs: &[AdmissionRequest],
    ) -> Vec<Result<Allocation, SchedError>> {
        self.front.decide_run(std::slice::from_mut(&mut availability), reqs)
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
