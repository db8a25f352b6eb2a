//! Equivalence of the stateful [`AllocationSolver`] and the stateless
//! `solve_allocation` path, on randomized systems and request sequences:
//!
//! * cached skeleton + workspace is **bit-identical** to the stateless
//!   path,
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

#[derive(Debug, Clone)]
struct Scenario {
    s: AgreementMatrix,
    v: Vec<f64>,
    level: usize,
    requester: usize,
    /// Request sizes as fractions of reachable capacity; > 1 exercises
    /// the best-effort clamp.
    fracs: Vec<f64>,
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (2usize..=6).prop_flat_map(|n| {
        (
            Just(n),
            proptest::collection::vec(0u32..=25, n * n),
            proptest::collection::vec(0u32..=50, n),
            1usize..n.max(2),
            0usize..n,
            proptest::collection::vec(0.0f64..1.5, 1..=6),
        )
            .prop_map(|(n, raw, avail, level, requester, fracs)| {
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
                Scenario { s, v, level, requester, fracs }
            })
    })
}

fn build_state(sc: &Scenario) -> SystemState {
    let flow = TransitiveFlow::compute(&sc.s, sc.level);
    SystemState::new(flow, None, sc.v.clone()).unwrap()
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
    /// draws, same theta, same errors.
    #[test]
    fn cached_solver_is_bit_identical(sc in arb_scenario()) {
        let mut state = build_state(&sc);
        let mut solver = AllocationSolver::reduced();
        let opts = SimplexOptions::default();
        for &frac in &sc.fracs {
            let x = reachable(&state, sc.requester) * frac;
            let stateless =
                solve_allocation(&state, sc.requester, x, Formulation::Reduced, &opts);
            let cached = solver.allocate(&state, sc.requester, x);
            match (stateless, cached) {
                (Ok(sl), Ok(ca)) => {
                    prop_assert_eq!(&sl.draws, &ca.draws);
                    prop_assert_eq!(sl.theta, ca.theta);
                    prop_assert_eq!(sl.amount, ca.amount);
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
