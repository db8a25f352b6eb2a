//! Multi-resource admission at scale (paper §3.2, scaled path).
//!
//! [`crate::multi`] binds co-located resources into one composite pool.
//! This module instead runs **one full enforcement lane per resource** —
//! CPU, bandwidth, storage — each with its own agreement-derived state
//! and warm LP solver, and admits a request iff *every* resource's LP
//! admits it. A rejection names the **binding resource**: the first
//! lane, in resource order, whose admission failed.
//!
//! Two front doors mirror the single-resource stack:
//!
//! - [`MultiSolver`] — flat per-lane [`AllocationSolver`]s over a slice
//!   of [`SystemState`]s (the GRM server's engine).
//! - [`MultiAdmission`] — per-lane [`HierarchicalScheduler`]s with the
//!   batched wave/stall protocol of [`crate::batch`] run lane-wise (the
//!   scaled engine).
//!
//! # Degeneracy contract
//!
//! With a single lane, every path here reduces to the exact
//! single-resource algorithm: the wave protocol computes the same
//! cutoffs, commits the same steps in the same order, and evaluates the
//! same expressions, so decisions and availability are **bit-identical**
//! to [`crate::batch::BatchedAdmission`] — the only difference is that
//! `InsufficientCapacity` rejections carry `resource: Some(name)`
//! instead of `None`. `tests/proptest_multires.rs` pins this.
//!
//! # The multi-lane wave protocol
//!
//! Per wave, each lane fans its own per-group runs to its own
//! `ShardExecutor`. The cutoff is the earliest slot,
//! across *all* lanes, that either stalled (needs the coarse LP) or was
//! rejected by its lane's group solver. The rejection cap is new to the
//! multi-lane case: a slot rejected in one lane is rejected *globally*,
//! so lanes that accepted it advanced their private availability past a
//! decision the system will never commit — everything at or beyond that
//! slot must be replayed. Slots before the cutoff were accepted by every
//! lane and commit in global slot order, lane by lane; the cutoff slot
//! is decided inline through [`MultiAdmission::admit_one`] (which
//! reproduces the lane verdicts on the now-current availability), and
//! the next wave starts after it. Each per-lane rejection therefore
//! costs a wave — correctness over throughput.

use crate::error::SchedError;
use crate::executor::{GroupRun, RunRequest};
use crate::hierarchy::{FineMode, HierarchicalScheduler};
use crate::solver::AllocationSolver;
use crate::state::{Allocation, SystemState};
use agreements_telemetry::Telemetry;

/// The standard three-resource schema, in lane order.
pub const STANDARD_RESOURCES: [&str; 3] = ["cpu", "bandwidth", "storage"];

/// A per-resource amount vector in lane order (CPU, bandwidth, storage
/// under [`STANDARD_RESOURCES`]; any arity is allowed).
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceVector(pub Vec<f64>);

impl ResourceVector {
    /// Number of resource lanes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the vector has no lanes.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The amounts as a slice, lane order.
    pub fn as_slice(&self) -> &[f64] {
        &self.0
    }

    /// Sum across lanes (total units requested, all resources).
    pub fn total(&self) -> f64 {
        self.0.iter().sum()
    }
}

impl From<Vec<f64>> for ResourceVector {
    fn from(v: Vec<f64>) -> Self {
        ResourceVector(v)
    }
}

impl std::ops::Index<usize> for ResourceVector {
    type Output = f64;
    fn index(&self, r: usize) -> &f64 {
        &self.0[r]
    }
}

/// One queued multi-resource request: principal index plus one amount
/// per resource lane.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiAdmissionRequest {
    /// Requesting principal (global index).
    pub requester: usize,
    /// Per-lane amounts, resource order.
    pub amounts: Vec<f64>,
}

/// A granted multi-resource request: one [`Allocation`] per lane, in
/// resource order. Grants are atomic — every lane admitted, or the
/// whole request was rejected and no lane's availability moved.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiAllocation {
    /// Per-resource allocations, lane order.
    pub lanes: Vec<Allocation>,
}

impl MultiAllocation {
    /// Total units granted across all lanes.
    pub fn total(&self) -> f64 {
        self.lanes.iter().map(|a| a.amount).sum()
    }
}

/// Stamp the binding-resource name onto a capacity rejection; other
/// error kinds (validation, LP trouble) pass through untouched.
fn tag(e: SchedError, name: &'static str) -> SchedError {
    match e {
        SchedError::InsufficientCapacity { requester, capacity, requested, .. } => {
            SchedError::InsufficientCapacity {
                requester,
                capacity,
                requested,
                resource: Some(name),
            }
        }
        other => other,
    }
}

/// Flat per-resource admission: one warm [`AllocationSolver`] per lane
/// over caller-owned [`SystemState`]s. This is the multi-resource
/// analogue of the GRM server's single cached solver.
#[derive(Debug)]
pub struct MultiSolver {
    names: Vec<&'static str>,
    solvers: Vec<AllocationSolver>,
}

impl MultiSolver {
    /// One warm reduced-form solver per named resource lane.
    pub fn reduced(names: Vec<&'static str>) -> Self {
        let solvers = names.iter().map(|_| AllocationSolver::reduced()).collect();
        MultiSolver { names, solvers }
    }

    /// The resource names, lane order.
    pub fn names(&self) -> &[&'static str] {
        &self.names
    }

    /// Number of resource lanes.
    pub fn num_resources(&self) -> usize {
        self.names.len()
    }

    /// Attach a telemetry plane to every lane's solver.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        for s in &mut self.solvers {
            s.set_telemetry(telemetry.clone());
        }
    }

    /// Evaluate every lane in resource order and return the per-lane
    /// allocations iff all admit. The first lane to refuse decides the
    /// verdict, with capacity rejections tagged by that lane's name.
    /// States are not mutated — the caller commits grants.
    pub fn allocate(
        &mut self,
        states: &[SystemState],
        requester: usize,
        amounts: &[f64],
    ) -> Result<MultiAllocation, SchedError> {
        let k = self.names.len();
        if states.len() != k {
            return Err(SchedError::DimensionMismatch { expected: k, got: states.len() });
        }
        if amounts.len() != k {
            return Err(SchedError::DimensionMismatch { expected: k, got: amounts.len() });
        }
        let mut lanes = Vec::with_capacity(k);
        for (r, (state, solver)) in states.iter().zip(&mut self.solvers).enumerate() {
            match solver.allocate(state, requester, amounts[r]) {
                Ok(a) => lanes.push(a),
                Err(e) => return Err(tag(e, self.names[r])),
            }
        }
        Ok(MultiAllocation { lanes })
    }
}

/// Batched multi-resource admission over one [`HierarchicalScheduler`]
/// per resource lane (see module docs for the wave protocol and the
/// single-lane degeneracy contract). All lanes must share the same
/// principal partition; availability is one vector per lane.
#[derive(Debug)]
pub struct MultiAdmission {
    names: Vec<&'static str>,
    lanes: Vec<HierarchicalScheduler>,
}

impl MultiAdmission {
    /// Wrap one scheduler per named resource. Fails with
    /// [`SchedError::DimensionMismatch`] if names and lanes disagree in
    /// count, no lanes are given, or the lanes' group partitions differ
    /// (the wave protocol shares one run structure across lanes).
    pub fn new(
        names: Vec<&'static str>,
        lanes: Vec<HierarchicalScheduler>,
    ) -> Result<Self, SchedError> {
        if names.len() != lanes.len() {
            return Err(SchedError::DimensionMismatch { expected: names.len(), got: lanes.len() });
        }
        if lanes.is_empty() {
            return Err(SchedError::DimensionMismatch { expected: 1, got: 0 });
        }
        for lane in &lanes[1..] {
            if lane.groups() != lanes[0].groups() {
                return Err(SchedError::DimensionMismatch {
                    expected: lanes[0].num_principals(),
                    got: lane.num_principals(),
                });
            }
        }
        Ok(MultiAdmission { names, lanes })
    }

    /// The resource names, lane order.
    pub fn names(&self) -> &[&'static str] {
        &self.names
    }

    /// Number of resource lanes.
    pub fn num_resources(&self) -> usize {
        self.names.len()
    }

    /// Number of principals (identical across lanes).
    pub fn num_principals(&self) -> usize {
        self.lanes[0].num_principals()
    }

    /// The scheduler driving resource lane `r`.
    pub fn lane(&self, r: usize) -> &HierarchicalScheduler {
        &self.lanes[r]
    }

    /// Mutable access to lane `r`'s scheduler (mode switches).
    pub fn lane_mut(&mut self, r: usize) -> &mut HierarchicalScheduler {
        &mut self.lanes[r]
    }

    /// Attach a telemetry plane to every lane.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        for lane in &mut self.lanes {
            lane.set_telemetry(telemetry.clone());
        }
    }

    /// Renegotiate one inter-group agreement in every lane; returns the
    /// coarse rows recomputed in the last lane (identical counts, the
    /// partitions being shared).
    pub fn set_inter(
        &mut self,
        from_group: usize,
        to_group: usize,
        share: f64,
    ) -> Result<usize, SchedError> {
        let mut rows = 0;
        for lane in &mut self.lanes {
            rows = lane.set_inter(from_group, to_group, share)?;
        }
        Ok(rows)
    }

    /// Admit a single multi-resource request: evaluate every lane in
    /// resource order against its availability vector (no mutation),
    /// and only if all admit, commit each lane's draws with the GRM's
    /// `(v − d).max(0.0)` expression. The first refusing lane decides
    /// the verdict; capacity rejections are tagged with that lane's
    /// name. Errors leave every availability vector untouched.
    pub fn admit_one(
        &self,
        availability: &mut [Vec<f64>],
        requester: usize,
        amounts: &[f64],
    ) -> Result<MultiAllocation, SchedError> {
        let k = self.lanes.len();
        if availability.len() != k {
            return Err(SchedError::DimensionMismatch { expected: k, got: availability.len() });
        }
        if amounts.len() != k {
            return Err(SchedError::DimensionMismatch { expected: k, got: amounts.len() });
        }
        let mut lanes = Vec::with_capacity(k);
        for r in 0..k {
            match self.lanes[r].allocate(&availability[r], requester, amounts[r]) {
                Ok(a) => lanes.push(a),
                Err(e) => return Err(tag(e, self.names[r])),
            }
        }
        for (avail, alloc) in availability.iter_mut().zip(&lanes) {
            for (v, d) in avail.iter_mut().zip(&alloc.draws) {
                *v = (*v - *d).max(0.0);
            }
        }
        Ok(MultiAllocation { lanes })
    }

    /// Admit a whole batch, returning one decision per request in input
    /// order. Bit-identical to calling [`Self::admit_one`] on each
    /// request in order; the wave protocol (module docs) exists purely
    /// for throughput. Falls back to the one-by-one loop when any lane
    /// lacks a live executor or a wave's fan-out is below break-even.
    pub fn admit_batch(
        &self,
        availability: &mut [Vec<f64>],
        reqs: &[MultiAdmissionRequest],
    ) -> Vec<Result<MultiAllocation, SchedError>> {
        let rk = self.lanes.len();
        let k = reqs.len();
        let n = self.num_principals();
        let executor_live = availability.len() == rk
            && availability.iter().all(|a| a.len() == n)
            && self.lanes.iter().all(|l| l.shard_executor().is_some())
            && k >= 2;
        if !executor_live {
            for lane in &self.lanes {
                if lane.fine_mode() != FineMode::Sequential && k >= 2 {
                    lane.exec_stats().note_fallback();
                }
            }
            return reqs
                .iter()
                .map(|r| self.admit_one(availability, r.requester, &r.amounts))
                .collect();
        }

        let mut decisions: Vec<Option<Result<MultiAllocation, SchedError>>> =
            (0..k).map(|_| None).collect();
        let mut i = 0;
        while i < k {
            // Build per-lane runs over the undecided tail, deciding
            // stateless validation errors inline — in [`Self::admit_one`]
            // order (dimensions, then principal, then lane-0 amount), so
            // the inline verdict is the one the one-by-one path reports.
            // Run structure (groups, slots) is identical across lanes;
            // amounts differ.
            let mut run_of_group: Vec<usize> = vec![usize::MAX; self.lanes[0].num_groups()];
            let mut runs: Vec<Vec<GroupRun>> = (0..rk).map(|_| Vec::new()).collect();
            // Earliest slot whose verdict is state-dependent despite
            // being a sure rejection: an invalid amount in a lane past
            // the first, where an earlier lane may refuse on capacity
            // first. Such a slot must be decided inline at its turn,
            // exactly like a stall.
            let mut forced_cut: Option<usize> = None;
            for slot in i..k {
                if decisions[slot].is_some() {
                    continue;
                }
                let r = &reqs[slot];
                if r.amounts.len() != rk {
                    decisions[slot] = Some(Err(SchedError::DimensionMismatch {
                        expected: rk,
                        got: r.amounts.len(),
                    }));
                    continue;
                }
                if r.requester >= n {
                    decisions[slot] =
                        Some(Err(SchedError::UnknownPrincipal { index: r.requester, n }));
                    continue;
                }
                if !r.amounts[0].is_finite() || r.amounts[0] < 0.0 {
                    decisions[slot] =
                        Some(Err(SchedError::InvalidRequest { amount: r.amounts[0] }));
                    continue;
                }
                if r.amounts[1..].iter().any(|a| !a.is_finite() || *a < 0.0) {
                    if forced_cut.is_none() {
                        forced_cut = Some(slot);
                    }
                    continue;
                }
                let g = self.lanes[0].group_of(r.requester).expect("validated requester");
                if run_of_group[g] == usize::MAX {
                    run_of_group[g] = runs[0].len();
                    for (lane_runs, avail) in runs.iter_mut().zip(availability.iter()) {
                        let members = &self.lanes[0].groups()[g];
                        lane_runs.push(GroupRun {
                            group: g,
                            first_member: members[0],
                            start: members.iter().map(|&m| avail[m]).collect(),
                            reqs: Vec::new(),
                        });
                    }
                }
                let ri = run_of_group[g];
                for (lane_idx, lane_runs) in runs.iter_mut().enumerate() {
                    lane_runs[ri].reqs.push(RunRequest { slot, amount: r.amounts[lane_idx] });
                }
            }

            let fan = runs[0].len();
            if self
                .lanes
                .iter()
                .any(|l| !l.shard_executor().expect("checked live").should_parallelize(fan))
            {
                if fan >= 2 {
                    for lane in &self.lanes {
                        lane.exec_stats().note_fallback();
                    }
                }
                for slot in i..k {
                    if decisions[slot].is_none() {
                        let r = &reqs[slot];
                        decisions[slot] =
                            Some(self.admit_one(availability, r.requester, &r.amounts));
                    }
                }
                break;
            }

            let mut outcomes_by_lane = Vec::with_capacity(rk);
            for (lane, lane_runs) in self.lanes.iter().zip(runs) {
                outcomes_by_lane
                    .push(lane.shard_executor().expect("checked live").run_fan(lane_runs));
            }

            // Cutoff: earliest stall across all lanes — and, with more
            // than one lane, the earliest per-lane rejection too (module
            // docs), plus any slot whose verdict is state-dependent
            // (`forced_cut`). A single lane keeps the single-resource
            // rule so the degeneracy contract holds structurally.
            let mut cut: Option<usize> = forced_cut;
            let mut note = |s: usize| cut = Some(cut.map_or(s, |c| c.min(s)));
            for outcomes in &outcomes_by_lane {
                for o in outcomes {
                    if let Some(s) = o.stalled_at {
                        note(s);
                    }
                    if rk > 1 {
                        for step in &o.steps {
                            if step.result.is_err() {
                                note(step.slot);
                            }
                        }
                    }
                }
            }
            let cutoff = cut.unwrap_or(k);

            // Steps before the cutoff are final in every lane. Sort by
            // (slot, lane) and commit in global slot order, lane by
            // lane — the exact state evolution of one-by-one admission.
            let mut accepted: Vec<(usize, usize, usize, _)> = Vec::new();
            for (lane_idx, outcomes) in outcomes_by_lane.into_iter().enumerate() {
                for outcome in outcomes {
                    for step in outcome.steps {
                        if step.slot < cutoff {
                            accepted.push((step.slot, lane_idx, outcome.group, step.result));
                        }
                    }
                }
            }
            accepted.sort_by_key(|&(slot, lane, _, _)| (slot, lane));
            let mut per_slot: Vec<Vec<(usize, _)>> = (0..k).map(|_| Vec::new()).collect();
            let mut slots_in_order: Vec<usize> = Vec::new();
            for (slot, _lane, group, result) in accepted {
                if per_slot[slot].is_empty() {
                    slots_in_order.push(slot);
                }
                per_slot[slot].push((group, result));
            }
            for slot in slots_in_order {
                let entries = std::mem::take(&mut per_slot[slot]);
                debug_assert_eq!(entries.len(), rk, "one step per lane below the cutoff");
                let r = &reqs[slot];
                let mut lane_allocs: Vec<Allocation> = Vec::with_capacity(rk);
                let mut failure: Option<SchedError> = None;
                for (lane_idx, (group, result)) in entries.into_iter().enumerate() {
                    match result {
                        Ok((local, theta)) => {
                            let mut draws = vec![0.0; n];
                            for (&m, d) in self.lanes[0].groups()[group].iter().zip(local) {
                                draws[m] += d;
                            }
                            lane_allocs.push(Allocation {
                                requester: r.requester,
                                amount: r.amounts[lane_idx],
                                draws,
                                theta,
                            });
                        }
                        Err(e) => {
                            // Only reachable with a single lane (multi
                            // lanes cap the cutoff at rejections); the
                            // worker never advanced availability, so the
                            // rejection commits without state effect.
                            debug_assert_eq!(rk, 1, "lane rejections cap the cutoff when rk > 1");
                            failure = Some(tag(e, self.names[lane_idx]));
                        }
                    }
                }
                decisions[slot] = Some(match failure {
                    Some(e) => Err(e),
                    None => {
                        for (avail, alloc) in availability.iter_mut().zip(&lane_allocs) {
                            for (v, d) in avail.iter_mut().zip(&alloc.draws) {
                                *v = (*v - *d).max(0.0);
                            }
                        }
                        Ok(MultiAllocation { lanes: lane_allocs })
                    }
                });
            }

            if cutoff < k {
                // The cutoff slot needs global state (a coarse LP) or a
                // fresh conjunction verdict; decide it through the
                // ordinary one-by-one path.
                let r = &reqs[cutoff];
                decisions[cutoff] = Some(self.admit_one(availability, r.requester, &r.amounts));
                i = cutoff + 1;
            } else {
                i = k;
            }
        }
        decisions.into_iter().map(|d| d.expect("every slot decided")).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agreements_flow::AgreementMatrix;

    /// 2 groups of 3; groups share 50% each way (the batch.rs economy).
    fn lane(parallel: bool) -> HierarchicalScheduler {
        let groups = vec![vec![0, 1, 2], vec![3, 4, 5]];
        let mut inter = AgreementMatrix::zeros(2);
        inter.set(0, 1, 0.5).unwrap();
        inter.set(1, 0, 0.5).unwrap();
        let mut s = HierarchicalScheduler::new(groups, &inter, 1).unwrap();
        if parallel {
            s.set_parallel_fine(true);
        }
        s
    }

    fn multi(parallel: bool, rk: usize) -> MultiAdmission {
        let names: Vec<&'static str> = STANDARD_RESOURCES[..rk].to_vec();
        MultiAdmission::new(names, (0..rk).map(|_| lane(parallel)).collect()).unwrap()
    }

    #[test]
    fn rejection_names_the_binding_resource() {
        let m = multi(false, 3);
        // Plenty of CPU and storage; bandwidth pool nearly empty.
        let mut avail = vec![vec![8.0; 6], vec![0.1; 6], vec![8.0; 6]];
        let err = m.admit_one(&mut avail, 0, &[2.0, 2.0, 2.0]).unwrap_err();
        match err {
            SchedError::InsufficientCapacity { resource, .. } => {
                assert_eq!(resource, Some("bandwidth"));
            }
            other => panic!("expected capacity rejection, got {other:?}"),
        }
        // Rejection left every lane untouched (atomicity).
        assert!(avail[0].iter().all(|&v| v == 8.0));
        assert!(avail[2].iter().all(|&v| v == 8.0));
    }

    #[test]
    fn grant_commits_every_lane() {
        let m = multi(false, 2);
        let mut avail = vec![vec![4.0; 6], vec![4.0; 6]];
        let got = m.admit_one(&mut avail, 1, &[3.0, 1.0]).unwrap();
        assert_eq!(got.lanes.len(), 2);
        assert!((got.total() - 4.0).abs() < 1e-9);
        let cpu_left: f64 = avail[0].iter().sum();
        let bw_left: f64 = avail[1].iter().sum();
        assert!((cpu_left - 21.0).abs() < 1e-9, "cpu pool {cpu_left}");
        assert!((bw_left - 23.0).abs() < 1e-9, "bandwidth pool {bw_left}");
    }

    #[test]
    fn batch_is_bit_identical_to_one_by_one() {
        let reqs = vec![
            MultiAdmissionRequest { requester: 0, amounts: vec![2.0, 1.0] },
            MultiAdmissionRequest { requester: 4, amounts: vec![3.0, 0.5] },
            MultiAdmissionRequest { requester: 1, amounts: vec![4.5, 0.5] },
            // Overflows group 0's CPU pool: coarse path.
            MultiAdmissionRequest { requester: 2, amounts: vec![9.0, 0.1] },
            MultiAdmissionRequest { requester: 9, amounts: vec![1.0, 1.0] },
            MultiAdmissionRequest { requester: 5, amounts: vec![-1.0, 1.0] },
            MultiAdmissionRequest { requester: 5, amounts: vec![1.0] },
            // Bandwidth-bound: CPU fits, lane 1 must refuse.
            MultiAdmissionRequest { requester: 3, amounts: vec![1.0, 50.0] },
            MultiAdmissionRequest { requester: 0, amounts: vec![100.0, 0.0] },
            MultiAdmissionRequest { requester: 5, amounts: vec![0.0, 0.0] },
        ];
        let start = vec![vec![4.0, 3.0, 2.0, 8.0, 8.0, 8.0], vec![2.0, 2.0, 2.0, 2.0, 2.0, 2.0]];

        let solo = multi(false, 2);
        let mut solo_avail = start.clone();
        let solo_decisions: Vec<_> =
            reqs.iter().map(|r| solo.admit_one(&mut solo_avail, r.requester, &r.amounts)).collect();

        let batched = multi(true, 2);
        let mut batch_avail = start;
        let batch_decisions = batched.admit_batch(&mut batch_avail, &reqs);

        for (lane, (a, b)) in solo_avail.iter().zip(&batch_avail).enumerate() {
            assert!(
                a.iter().zip(b.iter()).all(|(x, y)| x.to_bits() == y.to_bits()),
                "lane {lane} availability differs: {a:?} vs {b:?}"
            );
        }
        for (slot, (a, b)) in solo_decisions.iter().zip(&batch_decisions).enumerate() {
            match (a, b) {
                (Ok(x), Ok(y)) => {
                    for (r, (p, q)) in x.lanes.iter().zip(&y.lanes).enumerate() {
                        assert_eq!(p.amount.to_bits(), q.amount.to_bits(), "slot {slot} lane {r}");
                        assert_eq!(p.theta.to_bits(), q.theta.to_bits(), "slot {slot} lane {r}");
                        assert!(
                            p.draws.iter().zip(&q.draws).all(|(u, v)| u.to_bits() == v.to_bits()),
                            "slot {slot} lane {r}: {:?} vs {:?}",
                            p.draws,
                            q.draws
                        );
                    }
                }
                (Err(x), Err(y)) => assert_eq!(format!("{x:?}"), format!("{y:?}"), "slot {slot}"),
                other => panic!("slot {slot}: decision kind differs: {other:?}"),
            }
        }
    }

    #[test]
    fn mismatched_partitions_are_refused() {
        let a = lane(false);
        let groups = vec![vec![0, 1], vec![2, 3, 4, 5]];
        let mut inter = AgreementMatrix::zeros(2);
        inter.set(0, 1, 0.5).unwrap();
        let b = HierarchicalScheduler::new(groups, &inter, 1).unwrap();
        assert!(matches!(
            MultiAdmission::new(vec!["cpu", "bandwidth"], vec![a, b]),
            Err(SchedError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn flat_multi_solver_names_binding_lane() {
        use agreements_flow::TransitiveFlow;
        let mut s = AgreementMatrix::zeros(2);
        s.set(0, 1, 0.5).unwrap();
        s.set(1, 0, 0.5).unwrap();
        let flow = TransitiveFlow::compute(&s, 1);
        let states = vec![
            SystemState::new(flow.clone(), None, vec![5.0, 5.0]).unwrap(),
            SystemState::new(flow, None, vec![0.5, 0.5]).unwrap(),
        ];
        let mut solver = MultiSolver::reduced(vec!["cpu", "bandwidth"]);
        let got = solver.allocate(&states, 0, &[2.0, 0.5]).unwrap();
        assert_eq!(got.lanes.len(), 2);
        let err = solver.allocate(&states, 0, &[2.0, 3.0]).unwrap_err();
        match err {
            SchedError::InsufficientCapacity { resource, .. } => {
                assert_eq!(resource, Some("bandwidth"));
            }
            other => panic!("expected capacity rejection, got {other:?}"),
        }
    }
}
