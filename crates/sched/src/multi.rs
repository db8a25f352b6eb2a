//! Coupled-resource binding (paper §3.2).
//!
//! Resources that must be co-located (the paper's CPU+memory example)
//! are *bound* into a composite type whose per-owner availability is the
//! binding bottleneck, so they are always allocated together. Requests
//! naming several independent resource types are the business of
//! [`crate::multires`]: one enforcement lane per type, granted in every
//! lane or in none.

use crate::error::SchedError;
use crate::state::{Allocation, SystemState};

/// Bind resource types into a composite that is always allocated together.
///
/// `components` lists `(state, units_per_composite_unit)`. The composite's
/// per-owner availability is the bottleneck
/// `min_c availability_c[i] / units_c`, and its agreement structure is the
/// first component's flow table (bound resources live on the same machines
/// under the same agreements — the paper's premise for binding).
pub fn bind_coupled(components: &[(&SystemState, f64)]) -> Result<SystemState, SchedError> {
    let (first, _) = components.first().ok_or(SchedError::InvalidRequest { amount: 0.0 })?;
    let n = first.n();
    for (s, units) in components {
        if s.n() != n {
            return Err(SchedError::DimensionMismatch { expected: n, got: s.n() });
        }
        if !units.is_finite() || *units <= 0.0 {
            return Err(SchedError::InvalidRequest { amount: *units });
        }
    }
    let availability: Vec<f64> = (0..n)
        .map(|i| {
            components
                .iter()
                .map(|(s, units)| s.availability[i] / units)
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    SystemState::new(first.flow.clone(), first.absolute.clone(), availability)
}

/// Expand a composite allocation back into per-component draw vectors
/// (same order as the `bind_coupled` input).
pub fn split_coupled_draws(alloc: &Allocation, units: &[f64]) -> Vec<Allocation> {
    units
        .iter()
        .map(|&u| Allocation {
            requester: alloc.requester,
            amount: alloc.amount * u,
            draws: alloc.draws.iter().map(|d| d * u).collect(),
            theta: alloc.theta * u,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{AllocationPolicy, LpPolicy};
    use agreements_flow::{AgreementMatrix, TransitiveFlow};

    const EPS: f64 = 1e-7;

    fn state(edges: &[(usize, usize, f64)], v: Vec<f64>) -> SystemState {
        let n = v.len();
        let mut s = AgreementMatrix::zeros(n);
        for &(i, j, w) in edges {
            s.set(i, j, w).unwrap();
        }
        let flow = TransitiveFlow::compute(&s, n - 1);
        SystemState::new(flow, None, v).unwrap()
    }

    #[test]
    fn coupled_binding_takes_bottleneck() {
        // 1 composite unit = 1 cpu + 2 mem.
        let cpu = state(&[(1, 0, 0.5)], vec![4.0, 10.0]);
        let mem = state(&[(1, 0, 0.5)], vec![6.0, 100.0]);
        let bound = bind_coupled(&[(&cpu, 1.0), (&mem, 2.0)]).unwrap();
        // Owner 0: min(4/1, 6/2) = 3 composite units.
        assert!((bound.availability[0] - 3.0).abs() < EPS);
        assert!((bound.availability[1] - 10.0).abs() < EPS);
    }

    #[test]
    fn coupled_allocation_splits_back() {
        let cpu = state(&[(1, 0, 1.0)], vec![4.0, 10.0]);
        let mem = state(&[(1, 0, 1.0)], vec![8.0, 100.0]);
        let bound = bind_coupled(&[(&cpu, 1.0), (&mem, 2.0)]).unwrap();
        let alloc = LpPolicy::reduced().allocate(&bound, 0, 5.0).unwrap();
        let parts = split_coupled_draws(&alloc, &[1.0, 2.0]);
        assert_eq!(parts.len(), 2);
        assert!((parts[0].amount - 5.0).abs() < EPS, "cpu units");
        assert!((parts[1].amount - 10.0).abs() < EPS, "mem units");
        // Component draws preserve the composite's placement shape.
        for i in 0..2 {
            assert!((parts[1].draws[i] - 2.0 * parts[0].draws[i]).abs() < EPS);
        }
    }

    #[test]
    fn bind_rejects_bad_units() {
        let cpu = state(&[], vec![1.0]);
        assert!(bind_coupled(&[(&cpu, 0.0)]).is_err());
        assert!(bind_coupled(&[]).is_err());
    }
}
