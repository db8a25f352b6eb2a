//! Single-resource admission over a [`HierarchicalScheduler`].
//!
//! [`BatchedAdmission`] is [`crate::multires::MultiAdmission`] with one
//! unnamed lane, so decisions are plain [`Allocation`]s and capacity
//! rejections carry `resource: None`. A batch is decided one request at
//! a time, in order; the type and its batch entry stay because the
//! frozen benchmark's `sched.admit_*_us` probes call them (benchmark
//! revision 2a retires the batch probe).

use crate::error::SchedError;
use crate::hierarchy::HierarchicalScheduler;
use crate::multires::MultiAdmission;
use crate::state::Allocation;
use agreements_telemetry::Telemetry;

/// One queued allocation request: principal index and amount. Kept for
/// the frozen benchmark's `sched.admit_batch_us` probe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionRequest {
    /// Requesting principal (global index).
    pub requester: usize,
    /// Units requested.
    pub amount: f64,
}

/// Single-resource admission front door over a [`HierarchicalScheduler`]
/// (see module docs). Owns the scheduler; the caller owns the
/// availability vector and passes it mutably — decisions are committed
/// into it, so after a call it reflects every granted allocation.
#[derive(Debug)]
pub struct BatchedAdmission {
    front: MultiAdmission,
}

impl BatchedAdmission {
    /// Wrap a scheduler.
    pub fn new(sched: HierarchicalScheduler) -> Self {
        let front = MultiAdmission::new(Vec::new(), vec![sched]).expect("one unnamed lane");
        BatchedAdmission { front }
    }

    /// Attach a telemetry plane (delegates to the scheduler).
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.front.set_telemetry(telemetry);
    }

    /// Renegotiate one inter-group agreement mid-stream; returns the
    /// number of coarse flow rows recomputed. Requests admitted after
    /// this call see the new agreement.
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

    /// Admit a whole batch: [`Self::admit_one`] on each request, in
    /// input order. Kept for the frozen benchmark's
    /// `sched.admit_batch_us` probe.
    pub fn admit_batch(
        &self,
        availability: &mut [f64],
        reqs: &[AdmissionRequest],
    ) -> Vec<Result<Allocation, SchedError>> {
        reqs.iter().map(|r| self.admit_one(availability, r.requester, r.amount)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agreements_flow::AgreementMatrix;

    /// 2 groups of 3; groups share 50% with each other.
    fn sched() -> HierarchicalScheduler {
        let groups = vec![vec![0, 1, 2], vec![3, 4, 5]];
        let mut inter = AgreementMatrix::zeros(2);
        inter.set(0, 1, 0.5).unwrap();
        inter.set(1, 0, 0.5).unwrap();
        HierarchicalScheduler::new(groups, &inter, 1).unwrap()
    }

    #[test]
    fn empty_and_singleton_batches() {
        let b = BatchedAdmission::new(sched());
        let mut avail = vec![1.0; 6];
        assert!(b.admit_batch(&mut avail, &[]).is_empty());
        let d = b.admit_batch(&mut avail, &[AdmissionRequest { requester: 0, amount: 1.0 }]);
        assert_eq!(d.len(), 1);
        assert!(d[0].is_ok());
        assert!((avail.iter().sum::<f64>() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn set_inter_between_batches_changes_decisions() {
        let mut b = BatchedAdmission::new(sched());
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
    fn a_batch_commits_every_grant() {
        let b = BatchedAdmission::new(sched());
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
