//! Enforcing sharing agreements: the LP allocation scheduler (paper §3).
//!
//! Given an agreement structure (transitive flow table from
//! [`agreements_flow`]), current per-owner availability `V`, and a request
//! for `x` units by principal `A`, the scheduler decides *which owners'
//! resources to draw from*:
//!
//! 1. **Admission**: `A` may be served only if its reachable capacity
//!    `C_A = V_A + Σ_k U[k][A]` covers `x` (tickets of sufficient value,
//!    §3 intro).
//! 2. **Placement**: among the many ways to split the draw, pick the one
//!    minimizing `θ = max_{i≠A} (C_i − C'_i)` — the largest capacity loss
//!    inflicted on any *other* principal — by linear programming.
//!
//! Two LP formulations are provided and proven equivalent by tests:
//! the paper's **full** §3.1 system over `I'_ij, C'_i, V'_i, θ`
//! (`n² + n + 1` variables) and a **reduced** system over the draw vector
//! and `θ` (`n + 1` variables) obtained by substituting constraint (1)
//! into (2). The reduced form is what the simulator uses; the full form
//! exists for fidelity and the ablation benchmark.
//!
//! *Deviation note*: constraint (6) applied to the requester itself forces
//! `θ ≥ x` (its capacity drops by exactly `x` per constraint (3)), which
//! would make every feasible allocation "optimal". We therefore take the
//! max over `i ≠ A`, which preserves the paper's stated intent — "leave
//! the system in a state where it has sufficient resources to satisfy
//! future requests independent of which principal is making the request".
//!
//! Alternative policies for the paper's comparisons live in [`policy`]:
//! the proportional end-point scheme of Figure 13 and a greedy
//! most-available baseline. Multi-resource vector requests and coupled
//! resource binding (§3.2) live in [`multi`]; hierarchical multigrid
//! refinement in [`hierarchy`].
//!
//! # Example
//!
//! ```
//! use agreements_flow::{AgreementMatrix, TransitiveFlow};
//! use agreements_sched::{SystemState, LpPolicy, AllocationPolicy};
//!
//! // Two principals sharing 50% each way; principal 0 is exhausted.
//! let mut s = AgreementMatrix::zeros(2);
//! s.set(0, 1, 0.5).unwrap();
//! s.set(1, 0, 0.5).unwrap();
//! let flow = TransitiveFlow::compute(&s, 1);
//! let mut state = SystemState::new(flow, None, vec![0.0, 10.0]).unwrap();
//!
//! let alloc = LpPolicy::reduced().allocate(&state, 0, 3.0).unwrap();
//! assert!((alloc.draws[1] - 3.0).abs() < 1e-9, "all drawn from 1");
//! state.apply(&alloc).unwrap();
//! assert!((state.availability[1] - 7.0).abs() < 1e-9);
//! ```

// Index-based loops are idiomatic for the dense matrix math in this
// crate; clippy's iterator rewrites would obscure the row/column algebra.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod admission;
pub mod batch;
pub mod error;
pub mod explain;
pub mod hierarchy;
pub mod lp_model;
pub mod multi;
pub mod multires;
pub mod objectives;
pub mod policy;
pub mod solver;
pub mod state;

pub use admission::{admission_bound, exceeds_bound, first_binding_resource, ADMISSION_SLACK};
pub use batch::{AdmissionRequest, BatchedAdmission};
pub use error::SchedError;
pub use explain::{explain_allocation, Explanation};
pub use hierarchy::HierarchicalScheduler;
pub use lp_model::Formulation;
pub use multires::{
    LaneGrant, MultiAdmission, MultiAllocation, ResourceVector, STANDARD_RESOURCES,
};
pub use objectives::{CostAwareLpPolicy, FairShareLpPolicy};
pub use policy::{AllocationPolicy, CachedLpPolicy, GreedyPolicy, LpPolicy, ProportionalPolicy};
pub use solver::{AllocationSolver, SolverStats};
pub use state::{Allocation, SystemState};
