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
//! [`AllocationSolver`] exploits that: it keeps, per flow snapshot, the
//! transposed *inflow index* — for every principal `i`, the ascending
//! `(k, T[k][i])` with `k ≠ i` and `T[k][i] > 0` — built again only when
//! the caller hands over a different `Arc`. Each solve writes the reduced
//! LP's constraint rows from the index in O(nonzeros) into one reusable
//! [`SparseRows`] buffer and solves through a persistent
//! [`SimplexWorkspace`], so the steady state performs no O(n²) work
//! outside the simplex and no heap allocation beyond the returned draw
//! vector, whichever principal asks.
//!
//! The rows replicate `Problem::standardize` for the reduced formulation
//! **exactly** (same columns, same coefficient values, same
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
use agreements_lp::{solve_bounded_with, SimplexOptions, SimplexWorkspace, SparseRows};
use agreements_telemetry::{HistKind, Telemetry, TelemetryEvent};
use std::sync::Arc;

/// The transposed inflow coefficients of one flow snapshot: the drop
/// rows of the reduced LP before any draw is substituted out.
#[derive(Debug)]
struct InflowIndex {
    /// The snapshot the index was built from. Holding the `Arc` keeps the
    /// allocation alive, so `Arc::ptr_eq` against an incoming state is an
    /// exact O(1) currency test (no ABA reuse possible): the GRM and the
    /// simulator reuse one snapshot across requests.
    flow: Arc<TransitiveFlow>,
    /// Row `i`: the `(k, T[k][i])` with `k ≠ i` and `T[k][i] > 0`,
    /// ascending `k`.
    inflow: SparseRows,
    /// The most entries one solve's rows can hold: `n` draws in the
    /// demand row; per drop row its own draw, θ and its slack; and every
    /// row's inflows but the sparsest row's, the fewest that the
    /// requester's skipped row can take away. Reserved once, so the row
    /// buffer never grows on a later solve.
    max_entries: usize,
}

impl InflowIndex {
    fn build(flow: &Arc<TransitiveFlow>) -> Self {
        let n = flow.n();
        let inflows = |i: usize| {
            (0..n)
                .filter(move |&k| k != i)
                .map(move |k| (k, flow.coefficient(k, i)))
                .filter(|&(_, t)| t > 0.0)
        };
        // Count first, so each buffer is allocated once at its final size.
        let mut inflow = SparseRows::new();
        inflow.reserve(n, (0..n).map(|i| inflows(i).count()).sum());
        for i in 0..n {
            for (k, t) in inflows(i) {
                inflow.push(k, t);
            }
            inflow.end_row();
        }
        let sparsest = (0..n).map(|i| inflow.row(i).len()).min().unwrap_or(0);
        let max_entries = n + 3 * n.saturating_sub(1) + inflow.nnz() - sparsest;
        InflowIndex { flow: Arc::clone(flow), inflow, max_entries }
    }
}

/// Counters exposed for benchmarks and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Total LP solves performed.
    pub solves: u64,
    /// Entitlement-bound vector computations (`n` saturated-inflow
    /// evaluations each): one per request, over capacity or not.
    pub bound_builds: u64,
    /// Inflow-index builds: one per flow snapshot (`Arc`) handed over.
    pub index_builds: u64,
    /// Simplex iterations over every solve: the sum of each solve's
    /// phase-1 and phase-2 iterations (pivots and bound flips alike).
    pub pivots: u64,
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
    index: Option<InflowIndex>,
    /// Standard-form column of each principal's draw variable, per solve
    /// (`None` for a zero bound: the variable is substituted out).
    col_of: Vec<Option<usize>>,
    /// The constraint rows, refilled per solve.
    rows: SparseRows,
    b: Vec<f64>,
    c: Vec<f64>,
    upper: Vec<f64>,
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
            index: None,
            col_of: Vec::new(),
            rows: SparseRows::new(),
            b: Vec::new(),
            c: Vec::new(),
            upper: Vec::new(),
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

    /// Usage counters (solves, bound builds, index builds, pivots).
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

    /// Reduced-form solve: rows written from the inflow index, solved
    /// through the workspace.
    fn solve_reduced_cached(
        &mut self,
        state: &SystemState,
        a: usize,
        x: f64,
    ) -> Result<(Vec<f64>, f64), SchedError> {
        let n = state.n();
        if !self.index.as_ref().is_some_and(|ix| Arc::ptr_eq(&ix.flow, &state.flow)) {
            self.stats.index_builds += 1;
            self.index = Some(InflowIndex::build(&state.flow));
        }
        let num_structural = self.assemble(a, x);
        let sol = solve_bounded_with(
            &mut self.ws,
            &self.rows,
            &self.b,
            &self.c,
            &self.upper,
            num_structural,
            &self.opts,
        )?;
        self.stats.pivots += (sol.stats.phase1_iters + sol.stats.phase2_iters) as u64;
        let draws = (0..n).map(|i| self.col_of[i].map_or(0.0, |col| sol.x[col])).collect();
        Ok((draws, sol.objective))
    }

    /// Fill the rows, right-hand side, costs and bounds of the standard
    /// form that `Problem::standardize` produces for
    /// `lp_model::solve_reduced`; returns its number of structural
    /// columns.
    ///
    /// Column layout: one column per draw variable with a positive bound
    /// (ascending principal order), then θ, then one slack per drop
    /// constraint. Zero-bound draws are substituted out (`lb == ub`),
    /// matching `Problem`'s fixed-variable handling, which keeps the two
    /// paths bit-identical. Each cell holds the value the dense form
    /// holds: `1` for a draw in its own row, `T[k][i]` for an inflow.
    fn assemble(&mut self, a: usize, x: f64) -> usize {
        let index = self.index.as_ref().expect("index just ensured");
        let n = self.bound.len();
        self.col_of.clear();
        let mut draws = 0;
        for &b in &self.bound {
            if b.max(0.0) == 0.0 {
                self.col_of.push(None);
            } else {
                self.col_of.push(Some(draws));
                draws += 1;
            }
        }
        let theta_col = draws;
        let num_structural = theta_col + 1;
        let total = num_structural + (n - 1); // one slack per drop row
        self.upper.clear();
        self.upper.resize(total, f64::INFINITY);
        for (&b, col) in self.bound.iter().zip(&self.col_of) {
            if let Some(col) = *col {
                self.upper[col] = b.max(0.0);
            }
        }
        self.c.clear();
        self.c.resize(total, 0.0);
        self.c[theta_col] = 1.0;
        self.b.clear();
        self.b.resize(n, 0.0); // 1 demand row + (n − 1) drop rows
        self.b[0] = x;

        let rows = &mut self.rows;
        rows.clear();
        rows.reserve(n, index.max_entries);
        // Row 0: Σ d_i = x.
        for &col in self.col_of.iter().flatten() {
            rows.push(col, 1.0);
        }
        rows.end_row();
        // For each i ≠ a: d_i + Σ_{k≠i} T[k][i]·d_k − θ + s = 0.
        for (slack, i) in (num_structural..).zip((0..n).filter(|&i| i != a)) {
            if let Some(col) = self.col_of[i] {
                rows.push(col, 1.0);
            }
            for (k, t) in index.inflow.row(i) {
                if let Some(col) = self.col_of[k] {
                    rows.push(col, t);
                }
            }
            rows.push(theta_col, -1.0);
            rows.push(slack, 1.0);
            rows.end_row();
        }
        num_structural
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
    fn index_survives_requester_rhs_and_bound_changes() {
        // One flow snapshot, requesters alternating, availability moving
        // and draining an owner to zero: the index is built exactly once.
        let st = mk_state(3, &[(0, 1, 0.5), (1, 0, 0.5), (2, 0, 0.5)], vec![5.0, 3.0, 10.0], 1);
        let mut solver = AllocationSolver::reduced();
        let mut state = st;
        for (a, x) in [(0, 1.0), (1, 2.0), (0, 1.5), (1, 1.0), (0, 4.0)] {
            let stateless = solve_allocation(&state, a, x, Formulation::Reduced, &opts()).unwrap();
            let alloc = solver.allocate(&state, a, x).unwrap();
            assert_eq!(stateless.draws, alloc.draws, "draws diverge for requester {a}");
            assert_eq!(stateless.theta.to_bits(), alloc.theta.to_bits());
            state.apply(&alloc).unwrap();
        }
        assert!(state.availability.contains(&0.0), "an owner ran dry on the way");
        assert_eq!(solver.stats().index_builds, 1);
        assert_eq!(solver.stats().solves, 5);
        assert!(solver.stats().pivots >= 5, "every solve pivots at least once");
    }

    #[test]
    fn requester_draining_substitutes_its_draw() {
        let mut solver = AllocationSolver::reduced();
        let busy = mk_state(2, &[(1, 0, 0.5)], vec![2.0, 10.0], 1);
        solver.allocate(&busy, 0, 1.0).unwrap();
        // Requester drained: its draw variable becomes fixed.
        let drained = SystemState::new(Arc::clone(&busy.flow), None, vec![0.0, 10.0]).unwrap();
        let al = solver.allocate(&drained, 0, 1.0).unwrap();
        assert!((al.draws[1] - 1.0).abs() < EPS);
        assert_eq!(al.draws[0], 0.0);
        assert_eq!(solver.stats().index_builds, 1, "the pattern is per solve, not per index");
    }

    #[test]
    fn a_different_flow_snapshot_rebuilds_the_index() {
        let mut solver = AllocationSolver::reduced();
        let st = mk_state(2, &[(0, 1, 0.5), (1, 0, 0.5)], vec![10.0, 10.0], 1);
        solver.allocate(&st, 0, 1.0).unwrap();
        solver.allocate(&st, 1, 1.0).unwrap();
        assert_eq!(solver.stats().index_builds, 1, "a requester flip keeps the index");
        // Equal coefficients in a fresh snapshot object, then edited ones:
        // each is a new index, and each answers what the stateless path does.
        let equal = mk_state(2, &[(0, 1, 0.5), (1, 0, 0.5)], vec![10.0, 10.0], 1);
        let edited = mk_state(2, &[(0, 1, 0.3), (1, 0, 0.5)], vec![10.0, 10.0], 1);
        assert!(!Arc::ptr_eq(&st.flow, &equal.flow));
        for (builds, state) in [(2, &equal), (3, &edited)] {
            let cached = solver.allocate(state, 1, 1.0).unwrap();
            let stateless = solve_allocation(state, 1, 1.0, Formulation::Reduced, &opts()).unwrap();
            assert_eq!(cached.draws, stateless.draws);
            assert_eq!(solver.stats().index_builds, builds);
        }
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
