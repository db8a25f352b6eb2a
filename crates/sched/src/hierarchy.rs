//! Hierarchical multigrid allocation (paper §3.2), scaled out.
//!
//! For the "hierarchical" agreement taxonomy — complete sharing inside
//! groups, sparse agreements between groups — the paper suggests a
//! multigrid refinement: try the requester's own group first; if it cannot
//! cover the request, solve a *coarse* LP over group aggregates to split
//! the draw across groups, then a *fine* LP inside each contributing group
//! to pick the actual owners. This keeps each LP at group size rather
//! than system size.
//!
//! This module is the scale-out revision of that scheduler:
//!
//! - **Auto-partitioning** ([`HierarchicalScheduler::auto`]): the partition
//!   and the aggregate inter-group matrix are derived straight from the
//!   `AgreementMatrix` by [`agreements_flow::auto_partition`] — no hand
//!   partitions at n = 1000.
//! - **Pooled fine solvers**: each group owns a persistent
//!   [`agreements_lp::SimplexWorkspace`] plus a cached standard-form
//!   skeleton of its min-max refinement LP (the PR 1 pattern), so the
//!   steady state performs no model construction and no heap allocation
//!   beyond the per-group draw vector.
//! - **Parallel fine solves** ([`HierarchicalScheduler::set_parallel_fine`]
//!   / [`HierarchicalScheduler::set_parallel_auto`]): contributing groups
//!   refine concurrently on the persistent `ShardExecutor`
//!   workers (warm solvers, no per-solve thread spawn), merged in
//!   ascending group order. Groups are disjoint and per-group solves are
//!   cold-started and deterministic, so parallel results are bit-identical
//!   to sequential — property-tested in `tests/proptest_scale.rs`. Auto
//!   mode measures a per-construction break-even and falls back to the
//!   sequential loop (counted in [`ExecutorStats`]) whenever the fan-out
//!   would not pay; on a 1-core host it never builds an executor at all.
//! - **Incremental coarse flow**: the group-level transitive flow is
//!   maintained through [`IncrementalFlow`], so an agreement renegotiation
//!   ([`HierarchicalScheduler::set_inter`]) repairs only the dirty rows
//!   instead of recomputing the closure.

use crate::error::SchedError;
use crate::executor::{ExecutorStats, GroupSolver, ShardExecutor};
use crate::lp_model::{solve_allocation, Formulation};
use crate::state::{Allocation, SystemState};
use agreements_flow::partition::{auto_partition, PartitionOptions};
use agreements_flow::{AgreementMatrix, IncrementalFlow};
use agreements_lp::{LpError, SimplexOptions};
use agreements_telemetry::{HistKind, Telemetry};
use parking_lot::Mutex;
use std::fmt;
use std::sync::Arc;

/// How fine refinement chooses between the sequential loop and the
/// shard executor.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum FineMode {
    /// No executor; the sequential loop, always.
    Sequential,
    /// Executor always consulted, no break-even gate (tests, opt-in).
    Force,
    /// Executor built only when the host has ≥ 2 cores; every fan-out is
    /// gated on the measured break-even.
    Auto,
}

/// Hierarchical scheduler: a partition of principals into groups plus the
/// group-level agreement matrix (see module docs).
pub struct HierarchicalScheduler {
    groups: Vec<Vec<usize>>,
    /// Which group each principal belongs to.
    member_of: Vec<usize>,
    /// Group-level transitive flow, incrementally maintained across
    /// [`Self::set_inter`] renegotiations. Behind a mutex because
    /// `snapshot()` caches through `&mut self` while `allocate` takes
    /// `&self` (the GRM serves through a shared handle).
    coarse: Mutex<IncrementalFlow>,
    /// One pooled fine solver per group for the sequential path; the
    /// executor workers own their *own* warm solvers, so these never
    /// contend with a fan-out.
    fine: Vec<Mutex<GroupSolver>>,
    opts: SimplexOptions,
    /// Persistent shard executor; present in Force mode and in Auto mode
    /// on multi-core hosts.
    executor: Option<ShardExecutor>,
    mode: FineMode,
    /// Fan-out/fallback counters shared with the executor; surfaced
    /// through the GRM as `executor_fallbacks_sequential`.
    exec_stats: Arc<ExecutorStats>,
    telemetry: Telemetry,
}

impl fmt::Debug for HierarchicalScheduler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HierarchicalScheduler")
            .field("groups", &self.groups)
            .field("mode", &self.mode)
            .field("workers", &self.executor.as_ref().map(ShardExecutor::num_workers))
            .finish_non_exhaustive()
    }
}

impl HierarchicalScheduler {
    /// Build from a partition and the inter-group agreement matrix.
    /// `inter.n()` must equal `groups.len()`; groups must partition
    /// `0..n` exactly and be non-empty.
    pub fn new(
        groups: Vec<Vec<usize>>,
        inter: &AgreementMatrix,
        level: usize,
    ) -> Result<Self, SchedError> {
        if inter.n() != groups.len() {
            return Err(SchedError::DimensionMismatch { expected: groups.len(), got: inter.n() });
        }
        let n: usize = groups.iter().map(Vec::len).sum();
        let mut member_of = vec![usize::MAX; n];
        for (g, members) in groups.iter().enumerate() {
            if members.is_empty() {
                return Err(SchedError::EmptyGroup { group: g });
            }
            for &m in members {
                if m >= n || member_of[m] != usize::MAX {
                    return Err(SchedError::UnknownPrincipal { index: m, n });
                }
                member_of[m] = g;
            }
        }
        if member_of.contains(&usize::MAX) {
            return Err(SchedError::DimensionMismatch { expected: n, got: 0 });
        }
        let coarse = Mutex::new(IncrementalFlow::new(inter.clone(), level));
        let fine = groups.iter().map(|_| Mutex::new(GroupSolver::new())).collect();
        Ok(HierarchicalScheduler {
            groups,
            member_of,
            coarse,
            fine,
            opts: SimplexOptions::default(),
            executor: None,
            mode: FineMode::Sequential,
            exec_stats: Arc::new(ExecutorStats::default()),
            telemetry: Telemetry::default(),
        })
    }

    /// Build directly from an agreement economy: derive the partition and
    /// the aggregate inter-group matrix with
    /// [`agreements_flow::auto_partition`], then construct the scheduler
    /// over them. `level` is the coarse transitivity cap.
    pub fn auto(
        s: &AgreementMatrix,
        opts: &PartitionOptions,
        level: usize,
    ) -> Result<Self, SchedError> {
        let p = auto_partition(s, opts).map_err(SchedError::Flow)?;
        Self::new(p.groups, &p.inter, level)
    }

    /// Number of groups.
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// The partition (groups ordered as constructed, members ascending
    /// when built via [`Self::auto`]).
    pub fn groups(&self) -> &[Vec<usize>] {
        &self.groups
    }

    /// Which group `principal` belongs to.
    pub fn group_of(&self, principal: usize) -> Option<usize> {
        self.member_of.get(principal).copied()
    }

    /// Force parallel fine solves on the persistent shard executor (or
    /// tear the executor down with `false`). Forced mode skips the
    /// break-even gate — every multi-group refinement fans out — and is
    /// meant for tests and explicit opt-in; production callers should
    /// prefer [`Self::set_parallel_auto`]. Results are bit-identical
    /// either way.
    pub fn set_parallel_fine(&mut self, on: bool) {
        if on {
            self.mode = FineMode::Force;
            self.executor = Some(ShardExecutor::force(
                self.groups.len(),
                self.opts.clone(),
                self.telemetry.clone(),
                self.exec_stats.clone(),
            ));
        } else {
            self.mode = FineMode::Sequential;
            self.executor = None;
        }
    }

    /// Enable parallel fine solves only where they can pay: builds the
    /// executor when `std::thread::available_parallelism()` reports ≥ 2
    /// cores (never on a 1-core host), and gates every fan-out on the
    /// break-even measured at construction. Below break-even the
    /// sequential loop runs and the fallback is counted in
    /// [`Self::executor_fallbacks`].
    pub fn set_parallel_auto(&mut self) {
        self.mode = FineMode::Auto;
        let sizes: Vec<usize> = self.groups.iter().map(Vec::len).collect();
        self.executor = ShardExecutor::auto(
            self.groups.len(),
            &sizes,
            self.opts.clone(),
            self.telemetry.clone(),
            self.exec_stats.clone(),
        );
    }

    /// Whether a live shard executor backs fine refinement.
    pub fn parallel_fine(&self) -> bool {
        self.executor.is_some()
    }

    /// Times a parallel-capable configuration fell back to the
    /// sequential loop (no executor on this host, or below break-even).
    pub fn executor_fallbacks(&self) -> u64 {
        self.exec_stats.fallbacks_sequential()
    }

    /// Number of principals across all groups.
    pub fn num_principals(&self) -> usize {
        self.member_of.len()
    }

    pub(crate) fn fine_mode(&self) -> FineMode {
        self.mode
    }

    pub(crate) fn shard_executor(&self) -> Option<&ShardExecutor> {
        self.executor.as_ref()
    }

    pub(crate) fn exec_stats(&self) -> &Arc<ExecutorStats> {
        &self.exec_stats
    }

    /// Attach a telemetry plane: coarse/fine LP solve spans land in the
    /// [`HistKind::LpSolveSeconds`] histogram, and `hier.home_hits` /
    /// `hier.coarse_solves` / `hier.fine_solves` count path traffic.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        if let Some(ex) = &self.executor {
            ex.set_telemetry(telemetry.clone());
        }
        self.telemetry = telemetry;
    }

    /// Renegotiate one inter-group agreement: `from_group` now shares
    /// `share` of its aggregate with `to_group`. The coarse flow is
    /// repaired incrementally; returns the number of flow rows recomputed.
    pub fn set_inter(
        &mut self,
        from_group: usize,
        to_group: usize,
        share: f64,
    ) -> Result<usize, SchedError> {
        self.coarse.get_mut().set(from_group, to_group, share).map_err(SchedError::Flow)
    }

    /// Allocate `x` units to `requester` given current per-principal
    /// availability. Tries the requester's group alone first (fine LP
    /// only); on shortfall, runs the coarse LP over group aggregates and
    /// refines each group's share.
    pub fn allocate(
        &self,
        availability: &[f64],
        requester: usize,
        x: f64,
    ) -> Result<Allocation, SchedError> {
        let n = self.member_of.len();
        if availability.len() != n {
            return Err(SchedError::DimensionMismatch { expected: n, got: availability.len() });
        }
        if requester >= n {
            return Err(SchedError::UnknownPrincipal { index: requester, n });
        }
        if !x.is_finite() || x < 0.0 {
            return Err(SchedError::InvalidRequest { amount: x });
        }
        let home = self.member_of[requester];
        let home_avail: f64 = self.groups[home].iter().map(|&m| availability[m]).sum();

        let mut draws = vec![0.0; n];
        if home_avail + 1e-12 >= x {
            // Fine LP inside the home group only.
            self.telemetry.add("hier.home_hits", 1);
            if x > 0.0 {
                self.refine_group(home, availability, x.min(home_avail), &mut draws)?;
            }
            // Only home members hold non-zero draws, and every other
            // entry is exactly +0.0 (freshly zeroed, never written), so
            // folding over the members is bit-identical to folding over
            // the full vector — without the O(n) scan on the fast path.
            let theta = self.groups[home].iter().map(|&m| draws[m]).fold(0.0, f64::max);
            return Ok(Allocation { requester, amount: x, draws, theta });
        }

        // Coarse LP over group aggregates: the home group "requests" the
        // total, drawing on other groups via inter-group agreements.
        let g = self.groups.len();
        let group_avail: Vec<f64> =
            (0..g).map(|gi| self.groups[gi].iter().map(|&m| availability[m]).sum()).collect();
        let coarse_flow = self.coarse.lock().snapshot();
        let coarse_state = SystemState::new(coarse_flow, None, group_avail.clone())?;
        self.telemetry.add("hier.coarse_solves", 1);
        let span = self.telemetry.start();
        let coarse = solve_allocation(&coarse_state, home, x, Formulation::Reduced, &self.opts)
            .map_err(|e| match e {
                SchedError::InsufficientCapacity { capacity, .. } => {
                    SchedError::InsufficientCapacity {
                        requester,
                        capacity,
                        requested: x,
                        resource: None,
                    }
                }
                other => other,
            })?;
        self.telemetry.stop(HistKind::LpSolveSeconds, span);

        // Refine each group's share among its members. Shares are clamped
        // to the group's availability: the coarse optimum can overshoot it
        // by a rounding epsilon, which must not read as infeasibility.
        let contributing: Vec<(usize, f64)> = coarse
            .draws
            .iter()
            .enumerate()
            .filter(|&(_, &share)| share > 1e-12)
            .map(|(gi, &share)| (gi, share.min(group_avail[gi])))
            .collect();
        match &self.executor {
            Some(ex) if ex.should_parallelize(contributing.len()) => {
                self.refine_executor(&contributing, availability, &mut draws)?;
            }
            _ => {
                if self.mode != FineMode::Sequential && contributing.len() >= 2 {
                    self.exec_stats.note_fallback();
                }
                for &(gi, share) in &contributing {
                    self.refine_group(gi, availability, share, &mut draws)?;
                }
            }
        }
        let theta = coarse.theta;
        Ok(Allocation { requester, amount: x, draws, theta })
    }

    /// Split `amount` among members of group `gi`, minimizing the largest
    /// single draw (complete sharing inside a group makes every member's
    /// availability reachable), accumulating into the global draw vector.
    fn refine_group(
        &self,
        gi: usize,
        availability: &[f64],
        amount: f64,
        draws: &mut [f64],
    ) -> Result<(), SchedError> {
        let local = self.solve_fine(gi, availability, amount)?;
        for (&m, d) in self.groups[gi].iter().zip(local) {
            draws[m] += d;
        }
        Ok(())
    }

    /// Refine all contributing groups on the persistent shard executor,
    /// merging results in ascending group order (the fan-out returns
    /// replies keyed by slot, so merge order is input order). Each group
    /// is solved by the worker that owns its warm solver; groups are
    /// disjoint and solves are cold-started, so this is bit-identical to
    /// the sequential loop (property-tested). The workers record the
    /// `hier.fine_solves` counter and the LP solve span, mirroring
    /// [`Self::solve_fine`].
    fn refine_executor(
        &self,
        contributing: &[(usize, f64)],
        availability: &[f64],
        draws: &mut [f64],
    ) -> Result<(), SchedError> {
        let ex = self.executor.as_ref().expect("refine_executor requires an executor");
        let jobs: Vec<(usize, Vec<f64>, f64)> = contributing
            .iter()
            .map(|&(gi, share)| {
                let mavail = self.groups[gi].iter().map(|&m| availability[m]).collect();
                (gi, mavail, share)
            })
            .collect();
        let results = ex.solve_fan(jobs);
        for (&(gi, share), result) in contributing.iter().zip(results) {
            let local = result.map_err(|e| match e {
                LpError::Infeasible { .. } => SchedError::InsufficientCapacity {
                    requester: self.groups[gi][0],
                    capacity: self.groups[gi].iter().map(|&m| availability[m]).sum(),
                    requested: share,
                    resource: None,
                },
                other => SchedError::Lp(other),
            })?;
            for (&m, d) in self.groups[gi].iter().zip(local) {
                draws[m] += d;
            }
        }
        Ok(())
    }

    /// One group's fine solve through its pooled workspace; maps LP
    /// infeasibility to `InsufficientCapacity` for that group.
    fn solve_fine(
        &self,
        gi: usize,
        availability: &[f64],
        amount: f64,
    ) -> Result<Vec<f64>, SchedError> {
        let members = &self.groups[gi];
        let mavail: Vec<f64> = members.iter().map(|&m| availability[m]).collect();
        self.telemetry.add("hier.fine_solves", 1);
        let span = self.telemetry.start();
        let solved = self.fine[gi].lock().solve(&mavail, amount, &self.opts);
        self.telemetry.stop(HistKind::LpSolveSeconds, span);
        solved.map_err(|e| match e {
            LpError::Infeasible { .. } => SchedError::InsufficientCapacity {
                requester: members[0],
                capacity: mavail.iter().sum(),
                requested: amount,
                resource: None,
            },
            other => SchedError::Lp(other),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-7;

    /// 2 groups of 3; groups share 50% with each other.
    fn sched() -> HierarchicalScheduler {
        let groups = vec![vec![0, 1, 2], vec![3, 4, 5]];
        let mut inter = AgreementMatrix::zeros(2);
        inter.set(0, 1, 0.5).unwrap();
        inter.set(1, 0, 0.5).unwrap();
        HierarchicalScheduler::new(groups, &inter, 1).unwrap()
    }

    #[test]
    fn home_group_satisfies_small_requests() {
        let s = sched();
        let avail = vec![4.0, 4.0, 4.0, 100.0, 100.0, 100.0];
        let a = s.allocate(&avail, 0, 9.0).unwrap();
        // All 9 from group 0, balanced: 3 each.
        for m in 0..3 {
            assert!((a.draws[m] - 3.0).abs() < EPS, "{:?}", a.draws);
        }
        for m in 3..6 {
            assert_eq!(a.draws[m], 0.0);
        }
    }

    #[test]
    fn overflow_draws_from_other_group() {
        let s = sched();
        let avail = vec![2.0, 2.0, 2.0, 10.0, 10.0, 10.0];
        let a = s.allocate(&avail, 0, 12.0).unwrap();
        let home: f64 = a.draws[..3].iter().sum();
        let away: f64 = a.draws[3..].iter().sum();
        assert!((home + away - 12.0).abs() < EPS);
        assert!(away > 0.0, "needs remote group: {:?}", a.draws);
        // Inter-group agreement caps the remote draw at 50% of 30 = 15.
        assert!(away <= 15.0 + EPS);
    }

    #[test]
    fn inter_group_cap_enforced() {
        let s = sched();
        // Home group empty; remote has 10 total; 50% shared -> reach 5.
        let avail = vec![0.0, 0.0, 0.0, 4.0, 3.0, 3.0];
        assert!(s.allocate(&avail, 0, 6.0).is_err());
        let a = s.allocate(&avail, 0, 5.0).unwrap();
        let away: f64 = a.draws[3..].iter().sum();
        assert!((away - 5.0).abs() < EPS);
        // Balanced within the remote group.
        assert!(a.draws[3..].iter().cloned().fold(0.0, f64::max) < 2.0 + EPS);
    }

    #[test]
    fn partition_validation() {
        let mut inter = AgreementMatrix::zeros(2);
        inter.set(0, 1, 0.5).unwrap();
        // Overlapping member.
        assert!(HierarchicalScheduler::new(vec![vec![0, 1], vec![1, 2]], &inter, 1).is_err());
        // Wrong matrix size.
        let inter3 = AgreementMatrix::zeros(3);
        assert!(HierarchicalScheduler::new(vec![vec![0], vec![1]], &inter3, 1).is_err());
    }

    #[test]
    fn bad_inputs_rejected() {
        let s = sched();
        let avail = vec![1.0; 6];
        assert!(s.allocate(&avail[..5], 0, 1.0).is_err());
        assert!(s.allocate(&avail, 9, 1.0).is_err());
        assert!(s.allocate(&avail, 0, f64::INFINITY).is_err());
    }

    #[test]
    fn zero_request_is_empty() {
        let s = sched();
        let avail = vec![1.0; 6];
        let a = s.allocate(&avail, 2, 0.0).unwrap();
        assert!(a.draws.iter().all(|&d| d == 0.0));
    }

    #[test]
    fn auto_constructor_matches_hand_partition() {
        // Two complete blocks with a uniform 25% cross share: auto must
        // find the hand partition and allocate identically.
        let mut s = AgreementMatrix::zeros(6);
        for g in [0usize, 3] {
            for i in g..g + 3 {
                for j in g..g + 3 {
                    if i != j {
                        s.set(i, j, 1.0).unwrap();
                    }
                }
            }
        }
        for i in 0..3 {
            for j in 3..6 {
                s.set(i, j, 0.25).unwrap();
                s.set(j, i, 0.25).unwrap();
            }
        }
        let auto = HierarchicalScheduler::auto(&s, &PartitionOptions::default(), 1).unwrap();
        assert_eq!(auto.groups(), &[vec![0, 1, 2], vec![3, 4, 5]]);

        let groups = vec![vec![0, 1, 2], vec![3, 4, 5]];
        let mut inter = AgreementMatrix::zeros(2);
        inter.set(0, 1, 0.25).unwrap();
        inter.set(1, 0, 0.25).unwrap();
        let hand = HierarchicalScheduler::new(groups, &inter, 1).unwrap();

        let avail = vec![1.0, 2.0, 0.5, 8.0, 8.0, 8.0];
        let a = auto.allocate(&avail, 0, 5.0).unwrap();
        let b = hand.allocate(&avail, 0, 5.0).unwrap();
        assert_eq!(a.draws, b.draws);
        assert_eq!(a.theta, b.theta);
    }

    #[test]
    fn set_inter_renegotiation_takes_effect() {
        let mut s = sched();
        let avail = vec![0.0, 0.0, 0.0, 4.0, 3.0, 3.0];
        // 50% of 10 reachable.
        assert!(s.allocate(&avail, 0, 5.0).is_ok());
        // Revoke the agreement: nothing reachable across groups.
        let dirty = s.set_inter(1, 0, 0.0).unwrap();
        assert!(dirty > 0);
        assert!(s.allocate(&avail, 0, 1.0).is_err());
        // Re-grant at 80%: 8 reachable now.
        s.set_inter(1, 0, 0.8).unwrap();
        let a = s.allocate(&avail, 0, 8.0).unwrap();
        assert!((a.draws[3..].iter().sum::<f64>() - 8.0).abs() < EPS);
    }

    #[test]
    fn parallel_fine_is_bit_identical() {
        let mut par = sched();
        par.set_parallel_fine(true);
        let seq = sched();
        let avail = vec![2.0, 1.0, 0.5, 10.0, 7.0, 3.0];
        let a = seq.allocate(&avail, 0, 10.0).unwrap();
        let b = par.allocate(&avail, 0, 10.0).unwrap();
        assert!(a.draws.iter().zip(&b.draws).all(|(x, y)| x.to_bits() == y.to_bits()));
        assert_eq!(a.theta.to_bits(), b.theta.to_bits());
    }

    #[test]
    fn auto_mode_is_safe_and_bit_identical_on_any_host() {
        let mut auto = sched();
        auto.set_parallel_auto();
        // On a 1-core host the executor must not exist; either way the
        // results match sequential bit for bit.
        if std::thread::available_parallelism().map(|v| v.get()).unwrap_or(1) < 2 {
            assert!(!auto.parallel_fine(), "1-core host must stay sequential");
        }
        let seq = sched();
        let avail = vec![2.0, 1.0, 0.5, 10.0, 7.0, 3.0];
        let a = seq.allocate(&avail, 0, 10.0).unwrap();
        let b = auto.allocate(&avail, 0, 10.0).unwrap();
        assert!(a.draws.iter().zip(&b.draws).all(|(x, y)| x.to_bits() == y.to_bits()));
        assert_eq!(a.theta.to_bits(), b.theta.to_bits());
    }

    #[test]
    fn empty_group_rejected() {
        let mut inter = AgreementMatrix::zeros(2);
        inter.set(0, 1, 0.5).unwrap();
        let err = HierarchicalScheduler::new(vec![vec![0, 1], vec![]], &inter, 1).unwrap_err();
        assert!(matches!(err, SchedError::EmptyGroup { group: 1 }));
    }

    #[test]
    fn repeated_allocations_reuse_fine_skeletons() {
        // Smoke the skeleton-currency path: same pattern of exhausted
        // members across calls must keep results stable.
        let s = sched();
        let mut avail = vec![5.0, 5.0, 5.0, 5.0, 5.0, 5.0];
        for _ in 0..4 {
            let a = s.allocate(&avail, 1, 1.5).unwrap();
            for (v, d) in avail.iter_mut().zip(&a.draws) {
                *v -= d;
            }
            assert!((a.draws.iter().sum::<f64>() - 1.5).abs() < EPS);
        }
    }
}
