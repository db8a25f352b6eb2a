//! LP formulations of the allocation problem (paper §3.1).

use crate::admission::{admission_bound, exceeds_bound};
use crate::error::SchedError;
use crate::state::{Allocation, SystemState};
use agreements_lp::{Problem, Relation, Sense, SimplexOptions, VarId};

/// Which encoding of the §3.1 linear system to solve. Both reach the same
/// optimum (`full_and_reduced_agree` below and
/// `proptest_sched::formulations_agree`); the reduced form is ~n× smaller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Formulation {
    /// The paper's verbatim system over `I'_ij, C'_i, V'_i, θ`
    /// (`n² + n + 1` variables, constraints (1)–(6)).
    Full,
    /// Substituted system over the draw vector `d` and `θ`
    /// (`n + 1` variables): constraint (1) `I'_ij = V'_i·T_ij` is folded
    /// into (2), leaving `drop_i = d_i + Σ_{k≠i} T_ki·d_k ≤ θ`.
    Reduced,
}

/// Numerical floor under which a draw is treated as zero.
pub(crate) const DRAW_EPS: f64 = 1e-9;

/// Solve the allocation problem: requester `a` asks for `x` units.
///
/// Runs the admission check (`x ≤ C_a`), then the placement LP minimizing
/// `θ = max_{i≠a}(C_i − C'_i)`.
pub fn solve_allocation(
    state: &SystemState,
    a: usize,
    x: f64,
    formulation: Formulation,
    opts: &SimplexOptions,
) -> Result<Allocation, SchedError> {
    let n = state.n();
    if a >= n {
        return Err(SchedError::UnknownPrincipal { index: a, n });
    }
    if !x.is_finite() || x < 0.0 {
        return Err(SchedError::InvalidRequest { amount: x });
    }
    if x == 0.0 {
        return Ok(Allocation { requester: a, amount: 0.0, draws: vec![0.0; n], theta: 0.0 });
    }

    // Admission: the most `a` can draw is its own availability plus each
    // owner's saturated inflow (shared arithmetic, `crate::admission`).
    let mut bound = Vec::with_capacity(n);
    let reachable = admission_bound(state, a, &mut bound);
    if exceeds_bound(x, reachable) {
        return Err(SchedError::InsufficientCapacity {
            requester: a,
            capacity: reachable,
            requested: x,
            resource: None,
        });
    }
    // Floating-point slack: if x is within tolerance of the reachable
    // total, shave it so the LP stays feasible.
    let x = x.min(reachable);

    let (draws, theta) = match formulation {
        Formulation::Reduced => solve_reduced(state, a, x, &bound, opts)?,
        Formulation::Full => solve_full(state, a, x, &bound, opts)?,
    };
    let draws: Vec<f64> = draws.into_iter().map(|d| if d < DRAW_EPS { 0.0 } else { d }).collect();
    Ok(Allocation { requester: a, amount: x, draws, theta })
}

/// Reduced system: variables `d_i ∈ [0, bound_i]` and `θ ≥ 0`;
/// `Σ d = x`; for every `i ≠ a`: `d_i + Σ_{k≠i} T[k][i]·d_k ≤ θ`.
fn solve_reduced(
    state: &SystemState,
    a: usize,
    x: f64,
    bound: &[f64],
    opts: &SimplexOptions,
) -> Result<(Vec<f64>, f64), SchedError> {
    let n = state.n();
    let mut p = Problem::new(Sense::Minimize);
    let d: Vec<VarId> =
        (0..n).map(|i| p.add_var(&format!("d{i}"), 0.0, bound[i].max(0.0), 0.0)).collect();
    let theta = p.add_var("theta", 0.0, f64::INFINITY, 1.0);

    let all: Vec<(VarId, f64)> = d.iter().map(|&v| (v, 1.0)).collect();
    p.add_constraint(&all, Relation::Eq, x);

    for i in 0..n {
        if i == a {
            continue;
        }
        // drop_i = d_i + Σ_{k≠i} T[k][i]·d_k ≤ θ.
        let mut terms: Vec<(VarId, f64)> = vec![(d[i], 1.0), (theta, -1.0)];
        for k in 0..n {
            if k != i {
                let t = state.flow.coefficient(k, i);
                if t > 0.0 {
                    terms.push((d[k], t));
                }
            }
        }
        p.add_constraint(&terms, Relation::Le, 0.0);
    }

    let sol = p.solve_with(opts)?;
    let draws = d.iter().map(|&v| sol.value(v)).collect();
    Ok((draws, sol.objective))
}

/// Full system, constraints (1)–(6) of §3.1 (with (6) over `i ≠ a`; see
/// crate docs for why the requester is excluded).
pub(crate) fn solve_full(
    state: &SystemState,
    a: usize,
    x: f64,
    bound: &[f64],
    opts: &SimplexOptions,
) -> Result<(Vec<f64>, f64), SchedError> {
    let n = state.n();
    let v = &state.availability;
    // Pre-allocation capacities in the model's own linear terms
    // (C_i = V_i + Σ_k V_k·T[k][i]), so (6) is consistent with (1)+(2).
    let cap_lin: Vec<f64> = (0..n)
        .map(|i| {
            v[i] + (0..n)
                .filter(|&k| k != i)
                .map(|k| v[k] * state.flow.coefficient(k, i))
                .sum::<f64>()
        })
        .collect();
    let mut p = Problem::new(Sense::Minimize);

    // V'_i with bound (4): V_i − bound_i ≤ V'_i ≤ V_i.
    let vp: Vec<VarId> = (0..n)
        .map(|i| p.add_var(&format!("v'{i}"), (v[i] - bound[i]).max(0.0), v[i], 0.0))
        .collect();
    // I'_ki for k ≠ i.
    let mut ip = vec![vec![None; n]; n];
    for k in 0..n {
        for i in 0..n {
            if k != i {
                ip[k][i] =
                    Some(p.add_var(&format!("i'{k}_{i}"), f64::NEG_INFINITY, f64::INFINITY, 0.0));
            }
        }
    }
    // C'_i for i ≠ a.
    let cp: Vec<Option<VarId>> = (0..n)
        .map(|i| {
            (i != a).then(|| p.add_var(&format!("c'{i}"), f64::NEG_INFINITY, f64::INFINITY, 0.0))
        })
        .collect();
    let theta = p.add_var("theta", 0.0, f64::INFINITY, 1.0);

    // (1) I'_ki = V'_k · T[k][i].
    for k in 0..n {
        for i in 0..n {
            if let Some(ivar) = ip[k][i] {
                let t = state.flow.coefficient(k, i);
                p.add_constraint(&[(ivar, 1.0), (vp[k], -t)], Relation::Eq, 0.0);
            }
        }
    }
    // (2) C'_i = V'_i + Σ_{k≠i} I'_ki  (i ≠ a).
    for i in 0..n {
        if let Some(cvar) = cp[i] {
            let mut terms = vec![(cvar, 1.0), (vp[i], -1.0)];
            for (k, row) in ip.iter().enumerate() {
                if let Some(ivar) = row[i] {
                    let _ = k;
                    terms.push((ivar, -1.0));
                }
            }
            p.add_constraint(&terms, Relation::Eq, 0.0);
        }
    }
    // (5) Σ (V_i − V'_i) = x  ⇔  Σ V'_i = Σ V_i − x.
    let total_v: f64 = v.iter().sum();
    let sum_terms: Vec<(VarId, f64)> = vp.iter().map(|&var| (var, 1.0)).collect();
    p.add_constraint(&sum_terms, Relation::Eq, total_v - x);
    // (6) C_i − θ ≤ C'_i ≤ C_i  (i ≠ a).
    for i in 0..n {
        if let Some(cvar) = cp[i] {
            let ci = cap_lin[i];
            p.add_constraint(&[(cvar, 1.0), (theta, 1.0)], Relation::Ge, ci);
            p.add_constraint(&[(cvar, 1.0)], Relation::Le, ci);
        }
    }

    let sol = p.solve_with(opts)?;
    let draws = (0..n).map(|i| v[i] - sol.value(vp[i])).collect();
    Ok((draws, sol.objective))
}

#[cfg(test)]
mod tests {
    use super::*;
    use agreements_flow::{AgreementMatrix, TransitiveFlow};

    const EPS: f64 = 1e-7;

    fn mk_state(n: usize, edges: &[(usize, usize, f64)], v: Vec<f64>, level: usize) -> SystemState {
        let mut s = AgreementMatrix::zeros(n);
        for &(i, j, w) in edges {
            s.set(i, j, w).unwrap();
        }
        let flow = TransitiveFlow::compute(&s, level);
        SystemState::new(flow, None, v).unwrap()
    }

    fn opts() -> SimplexOptions {
        SimplexOptions::default()
    }

    #[test]
    fn local_request_served_locally() {
        let st = mk_state(2, &[(0, 1, 0.5), (1, 0, 0.5)], vec![10.0, 10.0], 1);
        let a = solve_allocation(&st, 0, 3.0, Formulation::Reduced, &opts()).unwrap();
        assert!((a.draws[0] - 3.0).abs() < EPS, "local draw preferred: {:?}", a.draws);
        assert!(a.draws[1].abs() < EPS);
        assert!((a.theta - 1.5).abs() < EPS, "C_1 loses 0.5 * 3 = 1.5");
    }

    #[test]
    fn exhausted_requester_draws_remotely() {
        let st = mk_state(2, &[(1, 0, 0.5)], vec![0.0, 10.0], 1);
        let a = solve_allocation(&st, 0, 4.0, Formulation::Reduced, &opts()).unwrap();
        assert!((a.draws[1] - 4.0).abs() < EPS);
        assert!((a.remote() - 4.0).abs() < EPS);
        assert!((a.theta - 4.0).abs() < EPS, "owner 1 loses the full 4");
    }

    #[test]
    fn admission_rejects_beyond_reach() {
        let st = mk_state(2, &[(1, 0, 0.5)], vec![1.0, 10.0], 1);
        // Reachable: 1 + 0.5*10 = 6.
        match solve_allocation(&st, 0, 7.0, Formulation::Reduced, &opts()) {
            Err(SchedError::InsufficientCapacity { capacity, requested, .. }) => {
                assert!((capacity - 6.0).abs() < EPS);
                assert_eq!(requested, 7.0);
            }
            other => panic!("expected insufficient capacity, got {other:?}"),
        }
        // Exactly at the boundary succeeds.
        let a = solve_allocation(&st, 0, 6.0, Formulation::Reduced, &opts()).unwrap();
        assert!((a.amount - 6.0).abs() < EPS);
    }

    #[test]
    fn no_agreement_no_remote_draw() {
        let st = mk_state(2, &[], vec![5.0, 100.0], 1);
        let a = solve_allocation(&st, 0, 5.0, Formulation::Reduced, &opts()).unwrap();
        assert!((a.draws[0] - 5.0).abs() < EPS);
        assert_eq!(a.draws[1], 0.0);
        assert!(solve_allocation(&st, 0, 5.1, Formulation::Reduced, &opts()).is_err());
    }

    #[test]
    fn zero_request_is_trivial() {
        let st = mk_state(2, &[], vec![5.0, 5.0], 1);
        let a = solve_allocation(&st, 1, 0.0, Formulation::Full, &opts()).unwrap();
        assert_eq!(a.draws, vec![0.0, 0.0]);
        assert_eq!(a.theta, 0.0);
    }

    #[test]
    fn invalid_inputs_rejected() {
        let st = mk_state(2, &[], vec![5.0, 5.0], 1);
        assert!(matches!(
            solve_allocation(&st, 5, 1.0, Formulation::Reduced, &opts()),
            Err(SchedError::UnknownPrincipal { .. })
        ));
        assert!(matches!(
            solve_allocation(&st, 0, -1.0, Formulation::Reduced, &opts()),
            Err(SchedError::InvalidRequest { .. })
        ));
        assert!(matches!(
            solve_allocation(&st, 0, f64::NAN, Formulation::Reduced, &opts()),
            Err(SchedError::InvalidRequest { .. })
        ));
    }

    #[test]
    fn spreads_draws_to_minimize_max_perturbation() {
        // Requester 0 exhausted; owners 1 and 2 symmetric; drawing all
        // from one would perturb it fully, so the LP splits evenly.
        let st = mk_state(3, &[(1, 0, 0.5), (2, 0, 0.5)], vec![0.0, 10.0, 10.0], 1);
        let a = solve_allocation(&st, 0, 6.0, Formulation::Reduced, &opts()).unwrap();
        assert!((a.draws[1] - 3.0).abs() < EPS, "{:?}", a.draws);
        assert!((a.draws[2] - 3.0).abs() < EPS);
        assert!((a.theta - 3.0).abs() < EPS);
    }

    #[test]
    fn asymmetric_entitlements_respected() {
        // Owner 1 shares 80%, owner 2 shares 10% with requester 0.
        let st = mk_state(3, &[(1, 0, 0.8), (2, 0, 0.1)], vec![0.0, 10.0, 10.0], 1);
        let a = solve_allocation(&st, 0, 9.0, Formulation::Reduced, &opts()).unwrap();
        // Entitlements: 8 from 1, 1 from 2. Both must saturate to reach 9.
        assert!((a.draws[1] - 8.0).abs() < EPS);
        assert!((a.draws[2] - 1.0).abs() < EPS);
    }

    #[test]
    #[allow(clippy::type_complexity)]
    fn full_and_reduced_agree() {
        let configs: Vec<(usize, Vec<(usize, usize, f64)>, Vec<f64>, usize, f64)> = vec![
            (2, vec![(0, 1, 0.5), (1, 0, 0.5)], vec![10.0, 10.0], 1, 3.0),
            (3, vec![(1, 0, 0.5), (2, 0, 0.5), (1, 2, 0.2)], vec![0.0, 10.0, 8.0], 2, 6.0),
            (4, vec![(1, 0, 0.8), (2, 1, 0.8), (3, 2, 0.8)], vec![1.0, 4.0, 4.0, 4.0], 3, 5.0),
            (3, vec![(1, 0, 0.3), (2, 0, 0.9)], vec![2.0, 5.0, 5.0], 1, 6.0),
        ];
        for (n, edges, v, level, x) in configs {
            let st = mk_state(n, &edges, v, level);
            let r = solve_allocation(&st, 0, x, Formulation::Reduced, &opts()).unwrap();
            let f = solve_allocation(&st, 0, x, Formulation::Full, &opts()).unwrap();
            assert!(
                (r.theta - f.theta).abs() < 1e-6,
                "theta mismatch: reduced {} vs full {} (n={n})",
                r.theta,
                f.theta
            );
            let sum_r: f64 = r.draws.iter().sum();
            let sum_f: f64 = f.draws.iter().sum();
            assert!((sum_r - x).abs() < 1e-6);
            assert!((sum_f - x).abs() < 1e-6);
        }
    }

    #[test]
    fn transitive_level_changes_reach() {
        // Chain 2 -> 1 -> 0 at 50%; level 1 gives 0 nothing from 2.
        let edges = vec![(1, 0, 0.5), (2, 1, 0.5)];
        let st1 = mk_state(3, &edges, vec![0.0, 0.0, 8.0], 1);
        assert!(matches!(
            solve_allocation(&st1, 0, 1.0, Formulation::Reduced, &opts()),
            Err(SchedError::InsufficientCapacity { .. })
        ));
        let st2 = mk_state(3, &edges, vec![0.0, 0.0, 8.0], 2);
        let a = solve_allocation(&st2, 0, 1.0, Formulation::Reduced, &opts()).unwrap();
        assert!((a.draws[2] - 1.0).abs() < EPS, "transitive draw from 2");
    }

    #[test]
    fn draws_respect_saturation_with_absolute() {
        use agreements_flow::AbsoluteMatrix;
        let mut s = AgreementMatrix::zeros(2);
        s.set(1, 0, 0.5).unwrap();
        let flow = TransitiveFlow::compute(&s, 1);
        let mut abs = AbsoluteMatrix::zeros(2);
        abs.set(1, 0, 4.0).unwrap();
        let st = SystemState::new(flow, Some(abs), vec![0.0, 6.0]).unwrap();
        // Entitlement: min(0.5*6 + 4, 6) = 6; all of owner 1.
        let a = solve_allocation(&st, 0, 6.0, Formulation::Reduced, &opts()).unwrap();
        assert!((a.draws[1] - 6.0).abs() < EPS);
        assert!(solve_allocation(&st, 0, 6.5, Formulation::Reduced, &opts()).is_err());
    }
}
