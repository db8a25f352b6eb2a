//! Scheduling through a live GRM: an [`AllocationPolicy`] adapter.
//!
//! The paper's architecture puts the global scheduler *behind* the GRM
//! service boundary: local managers report availability, jobs arrive as
//! RPCs, decisions come back as draw vectors. [`GrmBackedPolicy`] wires
//! any consumer of the in-process [`AllocationPolicy`] trait (notably the
//! web-proxy simulator) to a real [`crate::GrmServer`]:
//! each `allocate` call first syncs the caller's availability view to the
//! GRM (the LRM report step), then issues the allocation RPC.
//!
//! Because the GRM runs the same reduced-formulation LP over the same
//! reported state, a simulation scheduled through a live GRM produces
//! **exactly** the same decisions as the in-process policy — verified by
//! `tests/grm_simulation.rs`.

use crate::server::{GrmError, GrmHandle};
use agreements_sched::{Allocation, AllocationPolicy, SchedError, SystemState};

/// An [`AllocationPolicy`] that defers every decision to a GRM server.
#[derive(Clone)]
pub struct GrmBackedPolicy {
    handle: GrmHandle,
}

impl GrmBackedPolicy {
    /// Wrap a GRM handle. The GRM must manage the same principals (same
    /// indices) as the states this policy will be called with.
    pub fn new(handle: GrmHandle) -> Self {
        GrmBackedPolicy { handle }
    }
}

fn to_sched_error(e: GrmError) -> SchedError {
    match e {
        GrmError::Sched(s) => s,
        GrmError::UnknownLrm(i) => SchedError::UnknownPrincipal { index: i, n: 0 },
        // Transport failures surface as an LP iteration failure: the
        // caller treats it as "no decision this round".
        GrmError::Flow(_)
        | GrmError::Disconnected
        | GrmError::DeadlineExceeded { .. }
        | GrmError::RetriesExhausted { .. }
        | GrmError::ConnectionRefused
        | GrmError::ConnectionReset
        | GrmError::FrameDecode { .. }
        | GrmError::BadEndpoint { .. }
        | GrmError::Unsupported(_) => {
            SchedError::Lp(agreements_lp::LpError::InvalidModel("GRM unavailable".into()))
        }
    }
}

impl AllocationPolicy for GrmBackedPolicy {
    fn allocate(
        &self,
        state: &SystemState,
        requester: usize,
        x: f64,
    ) -> Result<Allocation, SchedError> {
        // LRM report step: push the caller's availability snapshot.
        for (i, &v) in state.availability.iter().enumerate() {
            self.handle.report(i, v).map_err(to_sched_error)?;
        }
        let alloc = self.handle.request(requester, x).map_err(to_sched_error)?;
        // The GRM committed the draws against its own view; the caller
        // owns the authoritative state and will re-report next time, so
        // return the grant as-is.
        Ok(alloc)
    }

    fn name(&self) -> &'static str {
        "grm-backed"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::GrmServer;
    use agreements_flow::{AgreementMatrix, TransitiveFlow};
    use agreements_sched::LpPolicy;

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

    #[test]
    fn adapter_matches_in_process_policy() {
        let s = complete(3, 0.4);
        let flow = TransitiveFlow::compute(&s, 2);
        let grm = GrmServer::spawn(s, 2);
        let adapter = GrmBackedPolicy::new(grm.handle());
        let local = LpPolicy::reduced();
        for (avail, requester, x) in [
            (vec![0.0, 10.0, 10.0], 0usize, 6.0),
            (vec![5.0, 1.0, 9.0], 1, 4.0),
            (vec![2.0, 2.0, 2.0], 2, 3.0),
        ] {
            let state = SystemState::new(flow.clone(), None, avail).unwrap();
            let a = adapter.allocate(&state, requester, x).unwrap();
            let b = local.allocate(&state, requester, x).unwrap();
            assert_eq!(a.draws, b.draws, "requester {requester}");
            assert!((a.theta - b.theta).abs() < 1e-9);
        }
        grm.shutdown();
    }

    #[test]
    fn adapter_propagates_capacity_errors() {
        let s = complete(2, 0.1);
        let flow = TransitiveFlow::compute(&s, 1);
        let grm = GrmServer::spawn(s, 1);
        let adapter = GrmBackedPolicy::new(grm.handle());
        let state = SystemState::new(flow, None, vec![1.0, 1.0]).unwrap();
        assert!(matches!(
            adapter.allocate(&state, 0, 5.0),
            Err(SchedError::InsufficientCapacity { .. })
        ));
        grm.shutdown();
    }

    #[test]
    fn adapter_reports_disconnect_as_lp_error() {
        let s = complete(2, 0.1);
        let flow = TransitiveFlow::compute(&s, 1);
        let grm = GrmServer::spawn(s, 1);
        let adapter = GrmBackedPolicy::new(grm.handle());
        grm.shutdown();
        let state = SystemState::new(flow, None, vec![1.0, 1.0]).unwrap();
        assert!(matches!(adapter.allocate(&state, 0, 0.5), Err(SchedError::Lp(_))));
    }
}
