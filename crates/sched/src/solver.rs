//! Stateful, reusable allocation solver for the consultation hot path.
//!
//! [`crate::lp_model::solve_allocation`] is stateless: every call builds a
//! fresh [`agreements_lp::Problem`], standardizes it, and cold-starts the
//! simplex. In the simulator, the scheduler solves the *same-shaped* LP
//! thousands of times per run — only the right-hand side (the requested
//! amount) and the variable bounds (current entitlements) move between
//! consecutive requests, while the constraint matrix is a pure function of
//! the transitive flow table.
//!
//! [`AllocationSolver`] exploits that: it caches the standardized model
//! skeleton per `(n, requester, zero-bound pattern)` — rebuilt only when
//! the flow table or the pattern of exhausted owners changes — and solves
//! through a persistent [`SimplexWorkspace`], so the steady state performs
//! no model construction and no heap allocation beyond the returned draw
//! vector.
//!
//! The skeleton replicates `Problem::standardize` for the reduced
//! formulation **exactly** (same columns, same coefficient placement, same
//! fixed-variable substitution), so the solver is bit-identical to
//! `solve_allocation` — property-tested in `tests/proptest_solver.rs`.
//! The full formulation has per-request variable bounds woven through its
//! standardization, so it is delegated to the stateless path unchanged.
//!
//! `allocate_up_to` here is **single-solve**: the reachable capacity is
//! already computed for the admission check, so best-effort placement
//! clamps the demand to it and solves once, instead of the trait default's
//! solve → catch `InsufficientCapacity` → re-solve round trip, which it is
//! property-tested equivalent to.

use crate::admission::{admission_bound, exceeds_bound};
use crate::error::SchedError;
use crate::lp_model::{solve_full, Formulation, DRAW_EPS};
use crate::state::{Allocation, SystemState};
use agreements_flow::TransitiveFlow;
use agreements_lp::{solve_bounded_with, SimplexOptions, SimplexWorkspace};
use agreements_telemetry::{HistKind, Telemetry, TelemetryEvent};
use std::sync::Arc;

/// Cached standard-form skeleton of the reduced allocation LP for one
/// `(n, requester, zero-bound pattern, flow)` configuration.
#[derive(Debug)]
struct Skeleton {
    n: usize,
    requester: usize,
    /// Which draw variables had a zero upper bound at build time; these
    /// are substituted out (`Problem` fixes `lb == ub` variables), so the
    /// pattern is part of the model shape.
    fixed: Vec<bool>,
    /// The flow snapshot the matrix was built from. Holding the `Arc`
    /// keeps the allocation alive, so `Arc::ptr_eq` against an incoming
    /// state is an exact O(1) currency test (no ABA reuse possible):
    /// the GRM and the simulator reuse one snapshot across requests, so
    /// the steady-state check never touches the n² coefficients.
    flow: Arc<TransitiveFlow>,
    /// Flattened `n × n` snapshot of the flow coefficients the matrix was
    /// built from — the structural fallback for callers that rebuild an
    /// equal flow table into a fresh `Arc`; any drift invalidates the
    /// skeleton.
    coeffs: Vec<f64>,
    /// Standard-form column of each principal's draw variable (`None` for
    /// fixed ones).
    col_of: Vec<Option<usize>>,
    a: Vec<Vec<f64>>,
    b: Vec<f64>,
    c: Vec<f64>,
    upper: Vec<f64>,
    num_structural: usize,
}

/// Counters exposed for benchmarks and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Total LP solves performed.
    pub solves: u64,
    /// Entitlement-bound vector computations (`n` saturated-inflow
    /// evaluations each): one per request, over capacity or not.
    pub bound_builds: u64,
    /// Skeleton (re)builds — steady state is 1 per flow/requester change.
    pub skeleton_rebuilds: u64,
}

/// A reusable allocation solver (see module docs).
///
/// Not `Sync`: give each thread its own instance (the experiment sweeps
/// do exactly that).
#[derive(Debug)]
pub struct AllocationSolver {
    formulation: Formulation,
    opts: SimplexOptions,
    ws: SimplexWorkspace,
    skeleton: Option<Skeleton>,
    /// Entitlement bound scratch, recomputed per request.
    bound: Vec<f64>,
    stats: SolverStats,
    /// Telemetry plane; disabled (no-op) by default.
    telemetry: Telemetry,
}

impl AllocationSolver {
    /// Build a solver for the given formulation and simplex options.
    pub fn new(formulation: Formulation, opts: SimplexOptions) -> Self {
        AllocationSolver {
            formulation,
            opts,
            ws: SimplexWorkspace::new(),
            skeleton: None,
            bound: Vec::new(),
            stats: SolverStats::default(),
            telemetry: Telemetry::default(),
        }
    }

    /// The production configuration: reduced formulation, default simplex.
    pub fn reduced() -> Self {
        Self::new(Formulation::Reduced, SimplexOptions::default())
    }

    /// The formulation this solver uses.
    pub fn formulation(&self) -> Formulation {
        self.formulation
    }

    /// Attach a telemetry plane (LP-solve-time histogram plus
    /// admitted/fast-reject events). The default is the disabled plane,
    /// whose calls are no-ops on the untimed path.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Usage counters (solves, bound builds, skeleton rebuilds).
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Place exactly `x` units for `requester`; errs with
    /// [`SchedError::InsufficientCapacity`] when `x` exceeds reach.
    /// Semantics identical to [`crate::lp_model::solve_allocation`].
    pub fn allocate(
        &mut self,
        state: &SystemState,
        requester: usize,
        x: f64,
    ) -> Result<Allocation, SchedError> {
        self.place(state, requester, x, false)
    }

    /// Best-effort placement: serve `min(x, reachable)` in a single LP
    /// solve.
    pub fn allocate_up_to(
        &mut self,
        state: &SystemState,
        requester: usize,
        x: f64,
    ) -> Result<Allocation, SchedError> {
        self.place(state, requester, x, true)
    }

    fn place(
        &mut self,
        state: &SystemState,
        a: usize,
        x: f64,
        best_effort: bool,
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

        // Admission bounds (the shared arithmetic, `crate::admission`).
        self.stats.bound_builds += 1;
        let reachable = admission_bound(state, a, &mut self.bound);
        if exceeds_bound(x, reachable) {
            self.telemetry.add("sched.fast_rejects", 1);
            self.telemetry.record_with(|| TelemetryEvent::FastReject {
                requester: a,
                requested: x,
                bound: reachable,
                clamped: best_effort,
            });
            if !best_effort {
                return Err(SchedError::InsufficientCapacity {
                    requester: a,
                    capacity: reachable,
                    requested: x,
                    resource: None,
                });
            }
        } else {
            self.telemetry.record_with(|| TelemetryEvent::Admitted {
                requester: a,
                requested: x,
                bound: reachable,
            });
        }
        let x = x.min(reachable);
        if x <= 0.0 {
            // Best-effort clamp hit an empty system.
            return Ok(Allocation { requester: a, amount: 0.0, draws: vec![0.0; n], theta: 0.0 });
        }

        self.stats.solves += 1;
        let span = self.telemetry.start();
        let (draws, theta) = match self.formulation {
            Formulation::Reduced => self.solve_reduced_cached(state, a, x)?,
            Formulation::Full => solve_full(state, a, x, &self.bound, &self.opts)?,
        };
        self.telemetry.stop(HistKind::LpSolveSeconds, span);
        let draws: Vec<f64> =
            draws.into_iter().map(|d| if d < DRAW_EPS { 0.0 } else { d }).collect();
        Ok(Allocation { requester: a, amount: x, draws, theta })
    }

    /// Reduced-form solve through the cached skeleton and workspace.
    fn solve_reduced_cached(
        &mut self,
        state: &SystemState,
        a: usize,
        x: f64,
    ) -> Result<(Vec<f64>, f64), SchedError> {
        let n = state.n();
        if !self.skeleton_is_current(state, a) {
            self.rebuild_skeleton(state, a);
        }
        let sk = self.skeleton.as_mut().expect("skeleton just ensured");
        sk.b[0] = x;
        for i in 0..n {
            if let Some(col) = sk.col_of[i] {
                sk.upper[col] = self.bound[i].max(0.0);
            }
        }
        let sol = solve_bounded_with(
            &mut self.ws,
            &sk.a,
            &sk.b,
            &sk.c,
            &sk.upper,
            sk.num_structural,
            &self.opts,
        )?;
        let draws = (0..n).map(|i| sk.col_of[i].map_or(0.0, |col| sol.x[col])).collect();
        Ok((draws, sol.objective))
    }

    /// The skeleton is reusable iff nothing that shapes the matrix moved:
    /// dimension, requester, the zero-bound pattern, and the flow table.
    /// Flow currency is decided by `Arc` pointer identity first — the
    /// hot-path case, one pointer compare — and only falls back to the
    /// structural coefficient scan when the caller handed a *different*
    /// snapshot object (adopting its identity when the coefficients turn
    /// out equal, so the scan runs once per fresh `Arc`, not per solve).
    fn skeleton_is_current(&mut self, state: &SystemState, a: usize) -> bool {
        let n = state.n();
        let bound = &self.bound;
        let Some(sk) = &mut self.skeleton else { return false };
        if sk.n != n || sk.requester != a {
            return false;
        }
        for (i, &b) in bound.iter().enumerate() {
            if sk.fixed[i] != (b.max(0.0) == 0.0) {
                return false;
            }
        }
        if Arc::ptr_eq(&sk.flow, &state.flow) {
            return true;
        }
        for k in 0..n {
            for i in 0..n {
                if state.flow.coefficient(k, i) != sk.coeffs[k * n + i] {
                    return false;
                }
            }
        }
        sk.flow = Arc::clone(&state.flow);
        true
    }

    /// Build the standard form that `Problem::standardize` produces for
    /// `lp_model::solve_reduced`, reusing buffers.
    ///
    /// Column layout: one column per draw variable with a positive bound
    /// (ascending principal order), then θ, then one slack per drop
    /// constraint. Zero-bound draws are substituted out (`lb == ub`),
    /// matching `Problem`'s fixed-variable handling — that keeps the two
    /// paths bit-identical, at the cost of a rebuild when the pattern of
    /// exhausted owners changes.
    fn rebuild_skeleton(&mut self, state: &SystemState, a: usize) {
        self.stats.skeleton_rebuilds += 1;
        let n = state.n();
        let mut sk = self.skeleton.take().unwrap_or_else(|| Skeleton {
            n: 0,
            requester: 0,
            fixed: Vec::new(),
            flow: Arc::clone(&state.flow),
            coeffs: Vec::new(),
            col_of: Vec::new(),
            a: Vec::new(),
            b: Vec::new(),
            c: Vec::new(),
            upper: Vec::new(),
            num_structural: 0,
        });
        sk.n = n;
        sk.requester = a;
        sk.flow = Arc::clone(&state.flow);
        sk.fixed.clear();
        sk.col_of.clear();
        let mut col = 0usize;
        for &b in &self.bound {
            let is_fixed = b.max(0.0) == 0.0;
            sk.fixed.push(is_fixed);
            if is_fixed {
                sk.col_of.push(None);
            } else {
                sk.col_of.push(Some(col));
                col += 1;
            }
        }
        let theta_col = col;
        let num_structural = col + 1;
        let m = n; // 1 demand row + (n − 1) drop rows
        let num_slack = n - 1;
        let total = num_structural + num_slack;

        sk.coeffs.clear();
        sk.coeffs.reserve(n * n);
        for k in 0..n {
            for i in 0..n {
                sk.coeffs.push(state.flow.coefficient(k, i));
            }
        }

        sk.a.resize_with(m, Vec::new);
        sk.a.truncate(m);
        for row in &mut sk.a {
            row.clear();
            row.resize(total, 0.0);
        }
        sk.b.clear();
        sk.b.resize(m, 0.0);

        // Row 0: Σ d_i = x (rhs rewritten per request).
        for i in 0..n {
            if let Some(c) = sk.col_of[i] {
                sk.a[0][c] = 1.0;
            }
        }
        // Rows 1..n: for each i ≠ a, d_i + Σ_{k≠i} T[k][i]·d_k − θ + s = 0.
        let mut r = 1usize;
        for i in 0..n {
            if i == a {
                continue;
            }
            if let Some(c) = sk.col_of[i] {
                sk.a[r][c] += 1.0;
            }
            for k in 0..n {
                if k == i {
                    continue;
                }
                let t = sk.coeffs[k * n + i];
                if t > 0.0 {
                    if let Some(c) = sk.col_of[k] {
                        sk.a[r][c] += t;
                    }
                }
            }
            sk.a[r][theta_col] = -1.0;
            sk.a[r][num_structural + (r - 1)] = 1.0;
            r += 1;
        }

        sk.c.clear();
        sk.c.resize(total, 0.0);
        sk.c[theta_col] = 1.0;
        sk.upper.clear();
        sk.upper.resize(total, f64::INFINITY);
        // Draw bounds are rewritten per request; θ and slacks stay ∞.
        sk.num_structural = num_structural;
        self.skeleton = Some(sk);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lp_model::solve_allocation;
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
    fn cached_reduced_is_bit_identical_to_stateless() {
        let mut solver = AllocationSolver::reduced();
        let configs: Vec<(SystemState, usize, f64)> = vec![
            (mk_state(2, &[(0, 1, 0.5), (1, 0, 0.5)], vec![10.0, 10.0], 1), 0, 3.0),
            (mk_state(2, &[(1, 0, 0.5)], vec![0.0, 10.0], 1), 0, 4.0),
            (mk_state(3, &[(1, 0, 0.5), (2, 0, 0.5)], vec![0.0, 10.0, 10.0], 1), 0, 6.0),
            (mk_state(3, &[(1, 0, 0.8), (2, 0, 0.1)], vec![0.0, 10.0, 10.0], 1), 0, 9.0),
            (
                mk_state(4, &[(1, 0, 0.8), (2, 1, 0.8), (3, 2, 0.8)], vec![1.0, 4.0, 4.0, 4.0], 3),
                0,
                5.0,
            ),
        ];
        for (st, a, x) in &configs {
            let stateless = solve_allocation(st, *a, *x, Formulation::Reduced, &opts()).unwrap();
            let cached = solver.allocate(st, *a, *x).unwrap();
            assert_eq!(stateless.draws, cached.draws, "draws diverge at x={x}");
            assert_eq!(stateless.theta, cached.theta);
            assert_eq!(stateless.amount, cached.amount);
        }
    }

    #[test]
    fn skeleton_survives_rhs_and_bound_changes() {
        // Same flow, same requester, availability moving but never hitting
        // zero: the skeleton must be built exactly once.
        let st = mk_state(3, &[(1, 0, 0.5), (2, 0, 0.5)], vec![5.0, 10.0, 10.0], 1);
        let mut solver = AllocationSolver::reduced();
        let mut state = st;
        for _ in 0..5 {
            let alloc = solver.allocate(&state, 0, 1.0).unwrap();
            state.apply(&alloc).unwrap();
        }
        assert_eq!(solver.stats().skeleton_rebuilds, 1);
        assert_eq!(solver.stats().solves, 5);
    }

    #[test]
    fn zero_bound_pattern_change_rebuilds() {
        let mut solver = AllocationSolver::reduced();
        let busy = mk_state(2, &[(1, 0, 0.5)], vec![2.0, 10.0], 1);
        solver.allocate(&busy, 0, 1.0).unwrap();
        // Requester drained: its draw variable becomes fixed.
        let drained = mk_state(2, &[(1, 0, 0.5)], vec![0.0, 10.0], 1);
        let al = solver.allocate(&drained, 0, 1.0).unwrap();
        assert!((al.draws[1] - 1.0).abs() < EPS);
        assert_eq!(solver.stats().skeleton_rebuilds, 2);
    }

    #[test]
    fn requester_or_flow_change_rebuilds() {
        let mut solver = AllocationSolver::reduced();
        let st = mk_state(2, &[(0, 1, 0.5), (1, 0, 0.5)], vec![10.0, 10.0], 1);
        solver.allocate(&st, 0, 1.0).unwrap();
        solver.allocate(&st, 1, 1.0).unwrap();
        assert_eq!(solver.stats().skeleton_rebuilds, 2, "requester flip rebuilds");
        let st2 = mk_state(2, &[(0, 1, 0.3), (1, 0, 0.5)], vec![10.0, 10.0], 1);
        solver.allocate(&st2, 1, 1.0).unwrap();
        assert_eq!(solver.stats().skeleton_rebuilds, 3, "flow drift rebuilds");
    }

    #[test]
    fn fresh_arc_with_equal_coefficients_reuses_skeleton() {
        let mut solver = AllocationSolver::reduced();
        let st = mk_state(2, &[(1, 0, 0.5)], vec![2.0, 10.0], 1);
        solver.allocate(&st, 0, 1.0).unwrap();
        // The same coefficients rebuilt into a different snapshot object
        // must hit the structural fallback, not force a rebuild.
        let st2 = mk_state(2, &[(1, 0, 0.5)], vec![2.0, 10.0], 1);
        solver.allocate(&st2, 0, 1.0).unwrap();
        assert!(!std::sync::Arc::ptr_eq(&st.flow, &st2.flow));
        assert_eq!(solver.stats().skeleton_rebuilds, 1, "fallback adopts the new Arc");
    }

    #[test]
    fn single_solve_matches_two_solve_best_effort() {
        use crate::policy::{AllocationPolicy, LpPolicy};
        let mut single = AllocationSolver::reduced();
        // The reference: the trait-default allocate → catch
        // `InsufficientCapacity` → retry round trip over the stateless path.
        let double = LpPolicy::reduced();
        let st = mk_state(2, &[(1, 0, 0.5)], vec![1.0, 10.0], 1);
        // Excess demand: both clamp to the reachable 6.0 — exactly, not
        // shaved by an epsilon.
        let s = single.allocate_up_to(&st, 0, 100.0).unwrap();
        let d = double.allocate_up_to(&st, 0, 100.0).unwrap();
        assert_eq!(s.amount, 6.0);
        assert_eq!(s.amount, d.amount);
        assert_eq!(s.draws, d.draws);
        assert_eq!(s.theta, d.theta);
        assert_eq!(single.stats().bound_builds, 1, "one admission pass");
        // In-capacity demand: both solve once and agree.
        let s2 = single.allocate_up_to(&st, 0, 2.0).unwrap();
        let d2 = double.allocate_up_to(&st, 0, 2.0).unwrap();
        assert_eq!(s2.draws, d2.draws);
    }

    #[test]
    fn best_effort_on_empty_system_places_nothing() {
        let mut solver = AllocationSolver::reduced();
        let st = mk_state(2, &[(1, 0, 0.5)], vec![0.0, 0.0], 1);
        let al = solver.allocate_up_to(&st, 0, 5.0).unwrap();
        assert_eq!(al.amount, 0.0);
        assert_eq!(al.draws, vec![0.0, 0.0]);
        assert_eq!(solver.stats().solves, 0, "no LP for an empty system");
    }

    #[test]
    fn full_formulation_delegates_correctly() {
        let mut solver = AllocationSolver::new(Formulation::Full, opts());
        let st = mk_state(3, &[(1, 0, 0.5), (2, 0, 0.5)], vec![0.0, 10.0, 10.0], 1);
        let cached = solver.allocate(&st, 0, 6.0).unwrap();
        let stateless = solve_allocation(&st, 0, 6.0, Formulation::Full, &opts()).unwrap();
        assert_eq!(cached.draws, stateless.draws);
        assert_eq!(cached.theta, stateless.theta);
    }

    #[test]
    fn validation_errors_match_stateless() {
        let mut solver = AllocationSolver::reduced();
        let st = mk_state(2, &[], vec![5.0, 5.0], 1);
        assert!(matches!(solver.allocate(&st, 5, 1.0), Err(SchedError::UnknownPrincipal { .. })));
        assert!(matches!(solver.allocate(&st, 0, -1.0), Err(SchedError::InvalidRequest { .. })));
        assert!(matches!(
            solver.allocate(&st, 0, f64::NAN),
            Err(SchedError::InvalidRequest { .. })
        ));
        assert!(matches!(
            solver.allocate(&st, 0, 100.0),
            Err(SchedError::InsufficientCapacity { .. })
        ));
    }
}
