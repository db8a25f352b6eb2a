//! Equivalence of the stateful [`AllocationSolver`] and the stateless
//! `solve_allocation` path, on randomized systems and request sequences:
//!
//! * the inflow index, the reused row buffer and the workspace are
//!   **bit-identical** to the stateless path — draws and θ compared by
//!   their bits, so `-0.0` and `+0.0` count as different — over request
//!   streams that change requester every request and hand the solver an
//!   equal-but-fresh flow snapshot and an edited one partway through, as
//!   the daemon does,
//! * single-solve `allocate_up_to` matches the trait-default two-solve
//!   path over the stateless `LpPolicy`.

#![allow(clippy::needless_range_loop)]

use agreements_flow::{AgreementMatrix, TransitiveFlow};
use agreements_lp::SimplexOptions;
use agreements_sched::lp_model::solve_allocation;
use agreements_sched::{
    AllocationPolicy, AllocationSolver, Formulation, LpPolicy, SchedError, SystemState,
};
use proptest::prelude::*;
use std::sync::Arc;

#[derive(Debug, Clone)]
struct Scenario {
    s: AgreementMatrix,
    v: Vec<f64>,
    level: usize,
    requester: usize,
    /// Request sizes as fractions of reachable capacity; > 1 exercises
    /// the best-effort clamp.
    fracs: Vec<f64>,
    /// One requester per request, for the streams that change requester.
    requesters: Vec<usize>,
    /// Request before which the flow is recomputed into a fresh `Arc`
    /// with equal coefficients.
    fresh_at: usize,
    /// Later request before which one agreement is edited, and the edit:
    /// `(from, to, quarters)` rescales `S[from][to]` by `quarters / 4`
    /// (or sets an absent share to `quarters / 80`).
    edit_at: usize,
    edit: (usize, usize, u32),
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (2usize..=6).prop_flat_map(|n| {
        (
            (
                Just(n),
                proptest::collection::vec(0u32..=25, n * n),
                proptest::collection::vec(0u32..=50, n),
                1usize..n.max(2),
                0usize..n,
            ),
            proptest::collection::vec((0.0f64..1.5, 0usize..n), 1..=10),
            (1usize..=4, 1usize..=4, (0usize..n, 1usize..n, 0u32..=4)),
        )
            .prop_map(
                |((n, raw, avail, level, requester), reqs, (fresh_at, edit_gap, edit))| {
                    let mut s = AgreementMatrix::zeros(n);
                    for i in 0..n {
                        let row = &raw[i * n..(i + 1) * n];
                        let total: u32 =
                            row.iter().enumerate().filter(|&(j, _)| j != i).map(|(_, &v)| v).sum();
                        if total == 0 {
                            continue;
                        }
                        let scale = 0.95 / total.max(25) as f64;
                        for j in 0..n {
                            if i != j && row[j] > 0 {
                                s.set(i, j, row[j] as f64 * scale).unwrap();
                            }
                        }
                    }
                    let v: Vec<f64> = avail.iter().map(|&a| a as f64).collect();
                    let (from, step, quarters) = edit;
                    let edit = (from, (from + step) % n, quarters);
                    Scenario {
                        s,
                        v,
                        level,
                        requester,
                        fracs: reqs.iter().map(|&(f, _)| f).collect(),
                        requesters: reqs.iter().map(|&(_, r)| r).collect(),
                        fresh_at,
                        edit_at: fresh_at + edit_gap,
                        edit,
                    }
                },
            )
    })
}

fn build_state(sc: &Scenario) -> SystemState {
    let flow = TransitiveFlow::compute(&sc.s, sc.level);
    SystemState::new(flow, None, sc.v.clone()).unwrap()
}

/// The scenario's agreements with its one edit applied.
fn edited(sc: &Scenario) -> AgreementMatrix {
    let (from, to, quarters) = sc.edit;
    let mut s = sc.s.clone();
    let old = s.get(from, to);
    let share = if old > 0.0 { old * quarters as f64 / 4.0 } else { quarters as f64 / 80.0 };
    s.set(from, to, share).unwrap();
    s
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn reachable(state: &SystemState, a: usize) -> f64 {
    use agreements_flow::capacity::saturated_inflow;
    let v = &state.availability;
    (0..state.n())
        .map(|i| if i == a { v[a] } else { saturated_inflow(&state.flow, None, v, i, a) })
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Over a whole request sequence with state evolution, the cached
    /// solver returns exactly what the stateless path returns — same
    /// draw and θ bits, same errors — while the requester changes every
    /// request and the flow snapshot is swapped for an equal fresh one
    /// and then for an edited one.
    #[test]
    fn cached_solver_is_bit_identical(sc in arb_scenario()) {
        let mut state = build_state(&sc);
        let mut solver = AllocationSolver::reduced();
        let opts = SimplexOptions::default();
        for (step, (&frac, &requester)) in sc.fracs.iter().zip(&sc.requesters).enumerate() {
            if step == sc.fresh_at {
                let fresh = Arc::new(TransitiveFlow::compute(&sc.s, sc.level));
                prop_assert!(!Arc::ptr_eq(&fresh, &state.flow));
                state.flow = fresh;
            }
            if step == sc.edit_at {
                state.flow = Arc::new(TransitiveFlow::compute(&edited(&sc), sc.level));
            }
            let x = reachable(&state, requester) * frac;
            let stateless = solve_allocation(&state, requester, x, Formulation::Reduced, &opts);
            let cached = solver.allocate(&state, requester, x);
            match (stateless, cached) {
                (Ok(sl), Ok(ca)) => {
                    prop_assert_eq!(bits(&sl.draws), bits(&ca.draws));
                    prop_assert_eq!(sl.theta.to_bits(), ca.theta.to_bits());
                    prop_assert_eq!(sl.amount.to_bits(), ca.amount.to_bits());
                    // Evolve the state so later requests see new bounds.
                    state.apply(&ca).map_err(|e| TestCaseError::fail(format!("{e}")))?;
                }
                (Err(se), Err(ce)) => {
                    prop_assert_eq!(
                        std::mem::discriminant(&se),
                        std::mem::discriminant(&ce),
                        "error kinds differ"
                    );
                }
                (s, c) => {
                    return Err(TestCaseError::fail(format!(
                        "stateless {s:?} vs cached {c:?}"
                    )))
                }
            }
        }
    }

    /// The single-solve best-effort path returns exactly what the
    /// [`AllocationPolicy::allocate_up_to`] trait default (allocate, catch
    /// `InsufficientCapacity`, retry at the reachable amount) returns over
    /// the stateless `LpPolicy`, including on over-capacity requests.
    #[test]
    fn single_solve_matches_two_solve(sc in arb_scenario()) {
        let mut single_state = build_state(&sc);
        let mut double_state = single_state.clone();
        let mut single = AllocationSolver::reduced();
        let double = LpPolicy::reduced();
        for &frac in &sc.fracs {
            let x = reachable(&single_state, sc.requester) * frac;
            let s = single.allocate_up_to(&single_state, sc.requester, x);
            let d = double.allocate_up_to(&double_state, sc.requester, x);
            match (s, d) {
                (Ok(sa), Ok(da)) => {
                    prop_assert_eq!(&sa.draws, &da.draws);
                    prop_assert_eq!(sa.theta, da.theta);
                    prop_assert!((sa.amount - da.amount).abs() < 1e-9,
                        "amounts {} vs {}", sa.amount, da.amount);
                    prop_assert!(sa.amount <= x + 1e-9, "never over-places");
                    single_state
                        .apply(&sa)
                        .map_err(|e| TestCaseError::fail(format!("{e}")))?;
                    double_state
                        .apply(&da)
                        .map_err(|e| TestCaseError::fail(format!("{e}")))?;
                }
                (Err(SchedError::InvalidRequest { .. }), Err(SchedError::InvalidRequest { .. })) => {}
                (s, d) => {
                    return Err(TestCaseError::fail(format!(
                        "single {s:?} vs double {d:?}"
                    )))
                }
            }
        }
    }
}
