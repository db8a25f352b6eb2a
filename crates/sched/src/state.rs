//! System state and allocation results.

use crate::error::SchedError;
use agreements_flow::{capacities, AbsoluteMatrix, CapacityReport, TransitiveFlow};
use std::sync::Arc;

/// The scheduler's view of the world for one resource type: the (static)
/// agreement flow table and the (dynamic) per-owner availability.
///
/// The flow table is held by `Arc` so request handling never clones the
/// n×n coefficient matrix: the GRM core and the proxy simulator
/// share one snapshot across every request against an unchanged
/// agreement set, and the allocation solver keys its cached skeleton on
/// the `Arc`'s pointer identity.
#[derive(Debug, Clone)]
pub struct SystemState {
    /// Precomputed transitive flow coefficients (clamped), shared.
    pub flow: Arc<TransitiveFlow>,
    /// Optional absolute agreements.
    pub absolute: Option<AbsoluteMatrix>,
    /// Current availability `V_i` at each owner, in resource units.
    pub availability: Vec<f64>,
}

impl SystemState {
    /// Build a state; validates dimensions. Accepts either an owned
    /// [`TransitiveFlow`] or an existing `Arc<TransitiveFlow>` (pass the
    /// `Arc` to share a snapshot without copying the table).
    pub fn new(
        flow: impl Into<Arc<TransitiveFlow>>,
        absolute: Option<AbsoluteMatrix>,
        availability: Vec<f64>,
    ) -> Result<Self, SchedError> {
        let flow = flow.into();
        let n = flow.n();
        if availability.len() != n {
            return Err(SchedError::DimensionMismatch { expected: n, got: availability.len() });
        }
        if let Some(a) = &absolute {
            if a.n() != n {
                return Err(SchedError::DimensionMismatch { expected: n, got: a.n() });
            }
        }
        if availability.iter().any(|v| !v.is_finite() || *v < 0.0) {
            return Err(SchedError::InvalidRequest {
                amount: *availability
                    .iter()
                    .find(|v| !v.is_finite() || **v < 0.0)
                    .expect("checked any() above"),
            });
        }
        Ok(SystemState { flow, absolute, availability })
    }

    /// Number of principals.
    #[inline]
    pub fn n(&self) -> usize {
        self.availability.len()
    }

    /// Capacity report at current availability.
    pub fn capacity_report(&self) -> CapacityReport {
        capacities(&self.flow, self.absolute.as_ref(), &self.availability)
    }

    /// Reachable capacity of one principal.
    pub fn capacity(&self, i: usize) -> f64 {
        self.capacity_report().capacity(i)
    }

    /// Deduct an allocation's draws from availability.
    pub fn apply(&mut self, alloc: &Allocation) -> Result<(), SchedError> {
        if alloc.draws.len() != self.n() {
            return Err(SchedError::DimensionMismatch {
                expected: self.n(),
                got: alloc.draws.len(),
            });
        }
        for (v, d) in self.availability.iter_mut().zip(&alloc.draws) {
            // Guard tiny LP negatives / overdraws from floating point.
            *v = (*v - d).max(0.0);
        }
        Ok(())
    }

    /// Return a draw to the pool (a previously allocated request
    /// completed and its resources free up).
    pub fn release(&mut self, alloc: &Allocation) -> Result<(), SchedError> {
        if alloc.draws.len() != self.n() {
            return Err(SchedError::DimensionMismatch {
                expected: self.n(),
                got: alloc.draws.len(),
            });
        }
        for (v, d) in self.availability.iter_mut().zip(&alloc.draws) {
            *v += d;
        }
        Ok(())
    }
}

/// A placement decision: how much to draw from each owner.
#[derive(Debug, Clone, PartialEq)]
pub struct Allocation {
    /// Requesting principal `A`.
    pub requester: usize,
    /// Requested amount `x`.
    pub amount: f64,
    /// `draws[i] = V_i − V'_i`: units taken from owner `i`;
    /// sums to `amount`.
    pub draws: Vec<f64>,
    /// Optimized perturbation metric `θ = max_{i≠A}(C_i − C'_i)`; for
    /// non-LP policies this is computed after the fact for comparability.
    pub theta: f64,
}

impl Allocation {
    /// Units served from the requester's own resources.
    pub fn local(&self) -> f64 {
        self.draws[self.requester]
    }

    /// Units served remotely (redirected).
    pub fn remote(&self) -> f64 {
        self.amount - self.local()
    }

    /// Owners drawn from, excluding the requester, with amounts.
    pub fn remote_draws(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.draws.iter().copied().enumerate().filter(move |&(i, d)| i != self.requester && d > 0.0)
    }
}

/// Compute the perturbation `θ` a draw vector inflicts: the largest
/// capacity drop among principals other than the requester.
pub fn perturbation(state: &SystemState, requester: usize, draws: &[f64]) -> f64 {
    let n = state.n();
    let before = state.capacity_report();
    let v_after: Vec<f64> =
        state.availability.iter().zip(draws).map(|(v, d)| (v - d).max(0.0)).collect();
    let after = capacities(&state.flow, state.absolute.as_ref(), &v_after);
    (0..n)
        .filter(|&i| i != requester)
        .map(|i| before.capacity(i) - after.capacity(i))
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use agreements_flow::AgreementMatrix;

    fn state2() -> SystemState {
        let mut s = AgreementMatrix::zeros(2);
        s.set(0, 1, 0.5).unwrap();
        s.set(1, 0, 0.5).unwrap();
        let flow = TransitiveFlow::compute(&s, 1);
        SystemState::new(flow, None, vec![10.0, 10.0]).unwrap()
    }

    #[test]
    fn dimension_validation() {
        let mut s = AgreementMatrix::zeros(2);
        s.set(0, 1, 0.5).unwrap();
        let flow = TransitiveFlow::compute(&s, 1);
        assert!(matches!(
            SystemState::new(flow.clone(), None, vec![1.0]),
            Err(SchedError::DimensionMismatch { expected: 2, got: 1 })
        ));
        let a3 = AbsoluteMatrix::zeros(3);
        assert!(matches!(
            SystemState::new(flow, Some(a3), vec![1.0, 1.0]),
            Err(SchedError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn negative_availability_rejected() {
        let s = AgreementMatrix::zeros(1);
        let flow = TransitiveFlow::compute(&s, 1);
        assert!(SystemState::new(flow, None, vec![-1.0]).is_err());
    }

    #[test]
    fn apply_and_release_round_trip() {
        let mut st = state2();
        let alloc = Allocation { requester: 0, amount: 4.0, draws: vec![3.0, 1.0], theta: 0.0 };
        st.apply(&alloc).unwrap();
        assert_eq!(st.availability, vec![7.0, 9.0]);
        st.release(&alloc).unwrap();
        assert_eq!(st.availability, vec![10.0, 10.0]);
    }

    #[test]
    fn apply_clamps_at_zero() {
        let mut st = state2();
        let alloc =
            Allocation { requester: 0, amount: 11.0, draws: vec![10.0 + 1e-12, 1.0], theta: 0.0 };
        st.apply(&alloc).unwrap();
        assert!(st.availability[0] >= 0.0);
    }

    #[test]
    fn allocation_local_remote_split() {
        let alloc = Allocation { requester: 1, amount: 5.0, draws: vec![2.0, 3.0], theta: 0.0 };
        assert_eq!(alloc.local(), 3.0);
        assert_eq!(alloc.remote(), 2.0);
        let remotes: Vec<_> = alloc.remote_draws().collect();
        assert_eq!(remotes, vec![(0, 2.0)]);
    }

    #[test]
    fn perturbation_measures_capacity_drop() {
        let st = state2();
        // Draw 2 from owner 1 as requester 0: C_1 = 15 -> 13 - ... compute:
        // after: v = [10, 8]; C_1' = 8 + 0.5*10 = 13; drop = 2.
        let theta = perturbation(&st, 0, &[0.0, 2.0]);
        assert!((theta - 2.0).abs() < 1e-9);
        // Draw locally: C_1' = 10 - ... v = [8, 10]; C_1' = 10 + 4 = 14; drop 1.
        let theta = perturbation(&st, 0, &[2.0, 0.0]);
        assert!((theta - 1.0).abs() < 1e-9);
    }

    #[test]
    fn capacity_uses_flow_and_absolute() {
        let st = state2();
        assert!((st.capacity(0) - 15.0).abs() < 1e-9);
        let mut a = AbsoluteMatrix::zeros(2);
        a.set(1, 0, 2.0).unwrap();
        let st2 = SystemState::new(st.flow.clone(), Some(a), vec![10.0, 10.0]).unwrap();
        assert!((st2.capacity(0) - 17.0).abs() < 1e-9);
    }
}
