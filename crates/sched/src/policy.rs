//! Allocation policies: the LP global scheduler and the baselines it is
//! compared against in the paper's Figure 13.

use crate::error::SchedError;
use crate::lp_model::{solve_allocation, Formulation};
use crate::state::{perturbation, Allocation, SystemState};
use agreements_flow::capacity::saturated_inflow;
use agreements_flow::AgreementMatrix;
use agreements_lp::SimplexOptions;
use std::sync::Mutex;

/// A strategy for placing a resource request across owners under sharing
/// agreements.
pub trait AllocationPolicy {
    /// Place a request of exactly `x` units for `requester`; errs with
    /// [`SchedError::InsufficientCapacity`] when `x` exceeds what the
    /// policy can reach.
    fn allocate(
        &self,
        state: &SystemState,
        requester: usize,
        x: f64,
    ) -> Result<Allocation, SchedError>;

    /// Best-effort variant: place as much of `x` as the policy can
    /// (possibly zero), never erring on capacity. Used by the simulator,
    /// where unplaced work simply stays queued.
    fn allocate_up_to(
        &self,
        state: &SystemState,
        requester: usize,
        x: f64,
    ) -> Result<Allocation, SchedError> {
        match self.allocate(state, requester, x) {
            Ok(a) => Ok(a),
            Err(SchedError::InsufficientCapacity { capacity, .. }) => {
                // Retry at exactly the reachable amount. The solver already
                // shaves `x` to the reachable total internally, so an extra
                // epsilon here would only under-allocate; clamping to
                // `[0, x]` guards against a policy reporting capacity
                // above the request or below zero.
                let y = capacity.max(0.0).min(x);
                self.allocate(state, requester, y)
            }
            Err(e) => Err(e),
        }
    }

    /// Called by drivers at the start of each independent run or replay:
    /// the place for a policy to drop any cross-run state that could make
    /// a replay differ from a first run. No shipped policy keeps such
    /// state, so all use the default no-op.
    fn begin_run(&self) {}

    /// Attach a telemetry plane. Policies that own an instrumented
    /// component (the cached LP solver) forward the handle; the default
    /// ignores it, so stateless baselines stay untouched.
    fn set_telemetry(&self, _telemetry: &agreements_telemetry::Telemetry) {}

    /// Short name for reports.
    fn name(&self) -> &'static str;
}

/// The paper's scheme: global LP minimizing the worst capacity
/// perturbation inflicted on other principals (§3.1).
#[derive(Debug, Clone)]
pub struct LpPolicy {
    /// Which encoding to solve.
    pub formulation: Formulation,
    /// Simplex configuration.
    pub opts: SimplexOptions,
}

impl LpPolicy {
    /// The production configuration: reduced formulation, default simplex.
    pub fn reduced() -> Self {
        LpPolicy { formulation: Formulation::Reduced, opts: SimplexOptions::default() }
    }

    /// The paper-verbatim configuration (ablation).
    pub fn full() -> Self {
        LpPolicy { formulation: Formulation::Full, opts: SimplexOptions::default() }
    }
}

impl AllocationPolicy for LpPolicy {
    fn allocate(
        &self,
        state: &SystemState,
        requester: usize,
        x: f64,
    ) -> Result<Allocation, SchedError> {
        solve_allocation(state, requester, x, self.formulation, &self.opts)
    }

    fn name(&self) -> &'static str {
        match self.formulation {
            Formulation::Full => "lp-full",
            Formulation::Reduced => "lp-reduced",
        }
    }
}

/// [`LpPolicy`]'s semantics served by a persistent [`crate::AllocationSolver`]:
/// the flow snapshot's inflow index, the constraint-row buffer and the
/// simplex workspace survive across consultations, and `allocate_up_to`
/// places in a single solve.
/// This is what the simulator consultation loop runs on.
///
/// The [`AllocationPolicy`] trait takes `&self`, so the solver sits
/// behind a [`Mutex`]; contention is nil because every simulator owns
/// its policy exclusively (parallel sweeps give each configuration its
/// own instance). Nothing the solver keeps between consultations changes
/// a result, so it is bit-identical to [`LpPolicy`] and repeated runs of
/// one simulator are bit-reproducible.
#[derive(Debug)]
pub struct CachedLpPolicy {
    solver: Mutex<crate::solver::AllocationSolver>,
}

impl CachedLpPolicy {
    /// The production configuration: reduced formulation, cached inflow
    /// index and workspace — bit-identical to [`LpPolicy`].
    pub fn reduced() -> Self {
        Self::from_solver(crate::solver::AllocationSolver::reduced())
    }

    /// Wrap an explicitly configured solver.
    pub fn from_solver(solver: crate::solver::AllocationSolver) -> Self {
        CachedLpPolicy { solver: Mutex::new(solver) }
    }

    /// Usage counters of the underlying solver.
    pub fn stats(&self) -> crate::solver::SolverStats {
        self.lock().stats()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, crate::solver::AllocationSolver> {
        // A poisoned lock means a previous solve panicked mid-update;
        // the solver re-derives all cached state from the next request,
        // so continuing is sound.
        self.solver.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl AllocationPolicy for CachedLpPolicy {
    fn allocate(
        &self,
        state: &SystemState,
        requester: usize,
        x: f64,
    ) -> Result<Allocation, SchedError> {
        self.lock().allocate(state, requester, x)
    }

    fn allocate_up_to(
        &self,
        state: &SystemState,
        requester: usize,
        x: f64,
    ) -> Result<Allocation, SchedError> {
        self.lock().allocate_up_to(state, requester, x)
    }

    fn set_telemetry(&self, telemetry: &agreements_telemetry::Telemetry) {
        self.lock().set_telemetry(telemetry.clone());
    }

    fn name(&self) -> &'static str {
        "lp-cached"
    }
}

/// The Figure 13 baseline: end-point enforcement with proportional
/// redistribution. Local resources first; overflow is split across other
/// owners **in proportion to the direct agreement quantities**
/// `S[k][requester]`, regardless of how busy those owners are ("the
/// non-linear scheme tends to redistribute requests to nearby ISPs no
/// matter whether they are busy or not"). Each owner's end point enforces
/// its agreement *quota* — by default the share of its currently
/// *available* resources, or, when [`ProportionalPolicy::with_endpoint_caps`]
/// is set, the share of its raw capacity (blind acceptance: redirected
/// work queues at the busy owner). Work bounced by a quota stays local.
#[derive(Debug, Clone)]
pub struct ProportionalPolicy {
    /// The direct (level-1) agreement matrix.
    pub direct: AgreementMatrix,
    /// Per-owner capacity base for the end-point quota. `None` bases the
    /// quota on current availability (`S[k][A]·V_k`); `Some(caps)` bases
    /// it on raw capacity (`S[k][A]·caps[k]`), accepting work regardless
    /// of load — the paper's end-point scheme.
    pub endpoint_caps: Option<Vec<f64>>,
}

impl ProportionalPolicy {
    /// Build from the direct agreement matrix (availability-based quota).
    pub fn new(direct: AgreementMatrix) -> Self {
        ProportionalPolicy { direct, endpoint_caps: None }
    }

    /// Switch to blind capacity-based end-point quotas (paper Figure 13).
    pub fn with_endpoint_caps(mut self, caps: Vec<f64>) -> Self {
        self.endpoint_caps = Some(caps);
        self
    }

    /// The quota owner `k` enforces for `requester` given current
    /// availability `v`.
    fn quota(&self, k: usize, requester: usize, v: &[f64]) -> f64 {
        let share = self.direct.get(k, requester);
        match &self.endpoint_caps {
            Some(caps) => share * caps[k],
            None => share * v[k],
        }
    }
}

impl AllocationPolicy for ProportionalPolicy {
    fn allocate(
        &self,
        state: &SystemState,
        requester: usize,
        x: f64,
    ) -> Result<Allocation, SchedError> {
        let n = state.n();
        if requester >= n {
            return Err(SchedError::UnknownPrincipal { index: requester, n });
        }
        if !x.is_finite() || x < 0.0 {
            return Err(SchedError::InvalidRequest { amount: x });
        }
        let v = &state.availability;
        let mut draws = vec![0.0; n];
        // Local first.
        draws[requester] = x.min(v[requester]);
        let mut overflow = x - draws[requester];
        if overflow > 1e-12 {
            let weights: Vec<f64> = (0..n)
                .map(|k| if k == requester { 0.0 } else { self.direct.get(k, requester) })
                .collect();
            let total_w: f64 = weights.iter().sum();
            if total_w > 0.0 {
                // Proportional split; each end point enforces its quota.
                // Undeliverable residue bounces back (handled below as an
                // admission failure).
                let mut placed = 0.0;
                for k in 0..n {
                    if weights[k] == 0.0 {
                        continue;
                    }
                    let want = overflow * weights[k] / total_w;
                    let got = want.min(self.quota(k, requester, v));
                    draws[k] = got;
                    placed += got;
                }
                overflow -= placed;
            }
        }
        if overflow > 1e-9 {
            let capacity = x - overflow;
            return Err(SchedError::InsufficientCapacity {
                requester,
                capacity,
                requested: x,
                resource: None,
            });
        }
        // Assign residual rounding dust to the requester's local draw.
        let sum: f64 = draws.iter().sum();
        draws[requester] += (x - sum).max(0.0);
        let theta = perturbation(state, requester, &draws);
        Ok(Allocation { requester, amount: x, draws, theta })
    }

    /// End-point semantics are inherently partial: every owner accepts
    /// whatever its agreement cap allows of its proportional share, and
    /// the bounced remainder simply stays queued at the requester. So the
    /// best-effort variant keeps the successfully placed part instead of
    /// re-running the split at a smaller total (which would re-shrink the
    /// shares of owners that had room).
    fn allocate_up_to(
        &self,
        state: &SystemState,
        requester: usize,
        x: f64,
    ) -> Result<Allocation, SchedError> {
        match self.allocate(state, requester, x) {
            Ok(a) => Ok(a),
            Err(SchedError::InsufficientCapacity { .. }) => {
                let n = state.n();
                let v = &state.availability;
                let mut draws = vec![0.0; n];
                draws[requester] = x.min(v[requester]);
                let overflow = x - draws[requester];
                let weights: Vec<f64> = (0..n)
                    .map(|k| if k == requester { 0.0 } else { self.direct.get(k, requester) })
                    .collect();
                let total_w: f64 = weights.iter().sum();
                if total_w > 0.0 && overflow > 0.0 {
                    for k in 0..n {
                        if weights[k] > 0.0 {
                            let want = overflow * weights[k] / total_w;
                            draws[k] = want.min(self.quota(k, requester, v));
                        }
                    }
                }
                let amount: f64 = draws.iter().sum();
                let theta = perturbation(state, requester, &draws);
                Ok(Allocation { requester, amount, draws, theta })
            }
            Err(e) => Err(e),
        }
    }

    fn name(&self) -> &'static str {
        "proportional-endpoint"
    }
}

/// A greedy baseline: local first, then owners by descending entitlement,
/// saturating each before moving on. Cheap, availability-aware, but blind
/// to the perturbation it causes.
#[derive(Debug, Clone, Default)]
pub struct GreedyPolicy;

impl AllocationPolicy for GreedyPolicy {
    fn allocate(
        &self,
        state: &SystemState,
        requester: usize,
        x: f64,
    ) -> Result<Allocation, SchedError> {
        let n = state.n();
        if requester >= n {
            return Err(SchedError::UnknownPrincipal { index: requester, n });
        }
        if !x.is_finite() || x < 0.0 {
            return Err(SchedError::InvalidRequest { amount: x });
        }
        let v = &state.availability;
        let mut draws = vec![0.0; n];
        draws[requester] = x.min(v[requester]);
        let mut remaining = x - draws[requester];
        if remaining > 1e-12 {
            let mut entitlements: Vec<(usize, f64)> = (0..n)
                .filter(|&k| k != requester)
                .map(|k| {
                    (k, saturated_inflow(&state.flow, state.absolute.as_ref(), v, k, requester))
                })
                .collect();
            entitlements.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
            for (k, ent) in entitlements {
                if remaining <= 1e-12 {
                    break;
                }
                let take = remaining.min(ent);
                if take > 0.0 {
                    draws[k] = take;
                    remaining -= take;
                }
            }
        }
        if remaining > 1e-9 {
            return Err(SchedError::InsufficientCapacity {
                requester,
                capacity: x - remaining,
                requested: x,
                resource: None,
            });
        }
        let theta = perturbation(state, requester, &draws);
        Ok(Allocation { requester, amount: x, draws, theta })
    }

    fn name(&self) -> &'static str {
        "greedy"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agreements_flow::TransitiveFlow;

    const EPS: f64 = 1e-7;

    fn mk(
        n: usize,
        edges: &[(usize, usize, f64)],
        v: Vec<f64>,
        level: usize,
    ) -> (SystemState, AgreementMatrix) {
        let mut s = AgreementMatrix::zeros(n);
        for &(i, j, w) in edges {
            s.set(i, j, w).unwrap();
        }
        let flow = TransitiveFlow::compute(&s, level);
        (SystemState::new(flow, None, v).unwrap(), s)
    }

    #[test]
    fn proportional_splits_by_agreement_quantity() {
        // Owners 1 and 2 share 20% and 10% with requester 0.
        let (st, s) = mk(3, &[(1, 0, 0.2), (2, 0, 0.1)], vec![0.0, 100.0, 100.0], 1);
        let pol = ProportionalPolicy::new(s);
        let a = pol.allocate(&st, 0, 9.0).unwrap();
        assert!((a.draws[1] - 6.0).abs() < EPS, "2/3 of 9: {:?}", a.draws);
        assert!((a.draws[2] - 3.0).abs() < EPS);
    }

    #[test]
    fn proportional_is_blind_to_busyness() {
        // Owner 1 is nearly exhausted but has the bigger agreement: the
        // proportional scheme still routes most of the overflow at it and
        // the end point bounces the excess -> insufficient.
        let (st, s) = mk(3, &[(1, 0, 0.8), (2, 0, 0.1)], vec![0.0, 1.0, 100.0], 1);
        let pol = ProportionalPolicy::new(s.clone());
        match pol.allocate(&st, 0, 9.0) {
            Err(SchedError::InsufficientCapacity { capacity, .. }) => {
                // Wants 8 from owner 1 (cap 0.8), 1 from owner 2 (ok).
                assert!(capacity < 9.0);
            }
            Ok(a) => panic!("expected bounce, got {:?}", a.draws),
            Err(e) => panic!("unexpected {e}"),
        }
        // The LP, seeing availability, places it all.
        let lp = LpPolicy::reduced();
        let a = lp.allocate(&st, 0, 9.0).unwrap();
        assert!((a.draws.iter().sum::<f64>() - 9.0).abs() < EPS);
    }

    #[test]
    fn proportional_local_first() {
        let (st, s) = mk(2, &[(1, 0, 0.5)], vec![10.0, 10.0], 1);
        let pol = ProportionalPolicy::new(s);
        let a = pol.allocate(&st, 0, 8.0).unwrap();
        assert!((a.draws[0] - 8.0).abs() < EPS);
        assert_eq!(a.draws[1], 0.0);
    }

    #[test]
    fn greedy_saturates_best_entitlement_first() {
        let (st, _) = mk(3, &[(1, 0, 0.8), (2, 0, 0.3)], vec![0.0, 10.0, 10.0], 1);
        let g = GreedyPolicy;
        let a = g.allocate(&st, 0, 9.0).unwrap();
        assert!((a.draws[1] - 8.0).abs() < EPS, "{:?}", a.draws);
        assert!((a.draws[2] - 1.0).abs() < EPS);
    }

    #[test]
    fn lp_beats_greedy_on_perturbation() {
        let (st, _) = mk(3, &[(1, 0, 0.5), (2, 0, 0.5)], vec![0.0, 10.0, 10.0], 1);
        let lp = LpPolicy::reduced().allocate(&st, 0, 6.0).unwrap();
        let gr = GreedyPolicy.allocate(&st, 0, 6.0).unwrap();
        assert!(lp.theta <= gr.theta + EPS, "lp {} vs greedy {}", lp.theta, gr.theta);
        assert!(gr.theta > lp.theta + 1.0, "greedy concentrates: {} vs {}", gr.theta, lp.theta);
    }

    #[test]
    fn allocate_up_to_clamps_gracefully() {
        let (st, s) = mk(2, &[(1, 0, 0.5)], vec![1.0, 10.0], 1);
        for pol in [
            Box::new(LpPolicy::reduced()) as Box<dyn AllocationPolicy>,
            Box::new(ProportionalPolicy::new(s.clone())),
            Box::new(GreedyPolicy),
        ] {
            let a = pol.allocate_up_to(&st, 0, 100.0).unwrap();
            assert!(a.amount <= 6.0 + EPS, "{} placed {}", pol.name(), a.amount);
            assert!(a.amount > 0.0);
        }
    }

    #[test]
    fn allocate_up_to_places_exact_reachable_capacity() {
        // Regression: the retry used to shave the reachable amount by
        // 1e-9 "for floating-point safety", permanently leaking capacity.
        // Reachable here is exactly 1 + 0.5·10 = 6.0 and must be placed
        // in full.
        let (st, _) = mk(2, &[(1, 0, 0.5)], vec![1.0, 10.0], 1);
        for pol in
            [Box::new(LpPolicy::reduced()) as Box<dyn AllocationPolicy>, Box::new(GreedyPolicy)]
        {
            let a = pol.allocate_up_to(&st, 0, 100.0).unwrap();
            assert_eq!(a.amount, 6.0, "{} must not shave the clamp", pol.name());
            assert!((a.draws.iter().sum::<f64>() - 6.0).abs() < EPS);
        }
        // A capacity report above the request is clamped back to x.
        let a = LpPolicy::reduced().allocate_up_to(&st, 0, 2.0).unwrap();
        assert_eq!(a.amount, 2.0);
    }

    #[test]
    fn proportional_partial_placement_keeps_deliverable_part() {
        // Owner 1 (80% share) is drained; owner 2 (10%) has room. The
        // partial best-effort keeps owner 2's full quota instead of
        // re-shrinking it.
        let (st, s) = mk(3, &[(1, 0, 0.8), (2, 0, 0.1)], vec![0.0, 1.0, 100.0], 1);
        let pol = ProportionalPolicy::new(s);
        let a = pol.allocate_up_to(&st, 0, 9.0).unwrap();
        // Owner 1 quota: 0.8*1 = 0.8; owner 2 wants 1/9 of 9 = 1, quota 10.
        assert!((a.draws[1] - 0.8).abs() < EPS, "{:?}", a.draws);
        assert!((a.draws[2] - 1.0).abs() < EPS);
        assert!((a.amount - 1.8).abs() < EPS, "placed = sum of draws");
    }

    #[test]
    fn endpoint_caps_make_quota_blind_to_load() {
        // Same scenario, but quotas based on raw capacity 10: owner 1
        // accepts its full proportional share even though it is drained.
        let (st, s) = mk(3, &[(1, 0, 0.8), (2, 0, 0.1)], vec![0.0, 1.0, 100.0], 1);
        let pol = ProportionalPolicy::new(s).with_endpoint_caps(vec![10.0; 3]);
        let a = pol.allocate(&st, 0, 9.0).unwrap();
        assert!((a.draws[1] - 8.0).abs() < EPS, "blind: 8 of 9 at owner 1: {:?}", a.draws);
        assert!((a.draws[2] - 1.0).abs() < EPS);
    }

    #[test]
    fn policy_names_are_distinct() {
        let (_, s) = mk(2, &[], vec![1.0, 1.0], 1);
        let names = [
            LpPolicy::reduced().name(),
            LpPolicy::full().name(),
            CachedLpPolicy::reduced().name(),
            ProportionalPolicy::new(s).name(),
            GreedyPolicy.name(),
        ];
        let unique: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
    }

    #[test]
    fn cached_policy_agrees_with_lp_policy() {
        let (mut st, _) = mk(3, &[(1, 0, 0.5), (2, 0, 0.3)], vec![2.0, 10.0, 10.0], 1);
        let exact = CachedLpPolicy::reduced();
        let lp = LpPolicy::reduced();
        for x in [1.5, 4.0, 9.0, 50.0] {
            let a = lp.allocate_up_to(&st, 0, x).unwrap();
            let e = exact.allocate_up_to(&st, 0, x).unwrap();
            assert_eq!(a.draws, e.draws, "x={x}");
            assert_eq!(a.theta, e.theta);
            st.apply(&a).unwrap();
        }
        // One flow snapshot, one inflow index, whatever the zero-bound
        // pattern of each request.
        assert_eq!(exact.stats().solves, 4);
        assert_eq!(exact.stats().index_builds, 1, "index must be reused: {:?}", exact.stats());
    }

    #[test]
    fn greedy_tie_breaks_deterministically() {
        let (st, _) = mk(3, &[(1, 0, 0.5), (2, 0, 0.5)], vec![0.0, 10.0, 10.0], 1);
        let a = GreedyPolicy.allocate(&st, 0, 5.0).unwrap();
        let b = GreedyPolicy.allocate(&st, 0, 5.0).unwrap();
        assert_eq!(a.draws, b.draws);
        assert!((a.draws[1] - 5.0).abs() < EPS, "lower index wins ties");
    }
}
