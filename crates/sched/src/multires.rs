//! Multi-resource admission at scale (paper §3.2, scaled path), and the
//! one hierarchical wave loop.
//!
//! [`crate::multi`] binds co-located resources into one composite pool.
//! This module instead runs **one full enforcement lane per resource** —
//! CPU, bandwidth, storage — each with its own warm hierarchical scheduler
//! over one shared partition, and admits a request iff *every* lane
//! admits it. A rejection names the **binding resource**: the first lane,
//! in resource order, whose admission failed.
//!
//! [`MultiAdmission`] is the hierarchical front door for every lane count
//! k ≥ 1, and its wave loop is the only one: a single-resource scheduler
//! is the one-lane case. [`crate::batch::BatchedAdmission`] is one
//! unnamed lane, whose capacity rejections carry `resource: None`. The
//! caller picks the grant shape ([`LaneGrant`]): an [`Allocation`] for
//! one lane, a [`MultiAllocation`] for any count. The one-lane shape
//! costs what the single-resource path always cost — no per-decision
//! vector of lanes, no re-boxed request.
//!
//! # The wave/stall protocol
//!
//! [`MultiAdmission::decide_run`] takes a drained run of requests, groups
//! them by the requester's home group, and ships each group's
//! slot-ordered run to the persistent `ShardExecutor` worker that owns
//! that group's warm solver, once per lane. Workers replay their runs
//! against a private copy of their members' availability; the
//! coordinator then commits accepted steps **in global slot order**, lane
//! by lane, with the same full-vector `(v − d).max(0.0)` expression the
//! GRM applies, so every availability vector evolves through literally
//! the same sequence of operations as one-by-one admission — including
//! the `-0.0` normalization of untouched entries.
//!
//! Requests that fit in their home group are independent across groups
//! (groups are disjoint), so they parallelize freely. A request its home
//! group cannot cover needs the coarse LP over *global* state, which
//! depends on every earlier decision. The run therefore executes in
//! waves:
//!
//! 1. Fan the undecided tail out as per-group runs in every lane; each
//!    worker stops at the first request its group cannot cover.
//! 2. The cutoff is the earliest slot, across all lanes, that stalled
//!    (needs the coarse LP) — and, with more than one lane, that a lane's
//!    group solver rejected, or whose verdict depends on state (an
//!    invalid amount past the first lane, where an earlier lane may
//!    refuse on capacity first). A slot rejected in one lane is rejected
//!    globally, so lanes that accepted it advanced their private
//!    availability past a decision that is never committed. One lane
//!    keeps the stall rule alone, so the degeneracy below holds by
//!    construction.
//! 3. Steps before the cutoff were decided by every lane; commit them in
//!    slot order. Decide the cutoff slot through the one-by-one path
//!    ([`MultiAdmission::decide`]) on the now-current availability, then
//!    start the next wave after it.
//!
//! Every wave decides at least one slot, so the loop terminates; a run
//! with no coarse traffic and no lane rejection finishes in one wave.
//!
//! # Degeneracy contract
//!
//! With a single lane every path here is the single-resource algorithm:
//! the same cutoffs, the same steps committed in the same order, the same
//! expressions. A one-lane front is bit-identical to
//! [`crate::batch::BatchedAdmission`] in decisions and availability; a
//! named lane differs only in tagging `InsufficientCapacity` rejections
//! `resource: Some(name)` where the unnamed lane says `None`.
//! `tests/proptest_multires.rs` pins this, and `tests/proptest_batch.rs`
//! holds every run bit-identical to one-by-one admission.

use crate::batch::AdmissionRequest;
use crate::error::SchedError;
use crate::executor::{GroupRun, RunRequest};
use crate::hierarchy::{FineMode, HierarchicalScheduler};
use crate::state::Allocation;
use agreements_telemetry::Telemetry;
use std::ops::DerefMut;

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

/// A queued request as a lane-generic admission path reads it.
pub trait LaneRequest {
    /// Requesting principal (global index).
    fn requester(&self) -> usize;
    /// One amount per lane, resource order.
    fn amounts(&self) -> &[f64];
}

impl LaneRequest for AdmissionRequest {
    fn requester(&self) -> usize {
        self.requester
    }

    fn amounts(&self) -> &[f64] {
        std::slice::from_ref(&self.amount)
    }
}

impl LaneRequest for MultiAdmissionRequest {
    fn requester(&self) -> usize {
        self.requester
    }

    fn amounts(&self) -> &[f64] {
        &self.amounts
    }
}

/// The shape of a grant over resource lanes: [`Allocation`] is the
/// one-lane shape, [`MultiAllocation`] the shape for any lane count.
pub trait LaneGrant: Sized {
    /// Assemble a grant from its lanes' verdicts, in lane order: the
    /// first refusal is the verdict. An [`Allocation`] takes exactly one
    /// lane.
    fn from_lanes<E>(lanes: impl Iterator<Item = Result<Allocation, E>>) -> Result<Self, E>;

    /// The per-lane allocations, lane order.
    fn lanes(&self) -> &[Allocation];
}

impl LaneGrant for Allocation {
    fn from_lanes<E>(mut lanes: impl Iterator<Item = Result<Allocation, E>>) -> Result<Self, E> {
        let lane = lanes.next().expect("a grant has a lane")?;
        assert!(lanes.next().is_none(), "an Allocation grants one lane");
        Ok(lane)
    }

    fn lanes(&self) -> &[Allocation] {
        std::slice::from_ref(self)
    }
}

impl LaneGrant for MultiAllocation {
    fn from_lanes<E>(lanes: impl Iterator<Item = Result<Allocation, E>>) -> Result<Self, E> {
        Ok(MultiAllocation { lanes: lanes.collect::<Result<_, E>>()? })
    }

    fn lanes(&self) -> &[Allocation] {
        &self.lanes
    }
}

/// Commit one lane's draws with the GRM's `(v − d).max(0.0)` expression.
fn commit(availability: &mut [f64], draws: &[f64]) {
    for (v, d) in availability.iter_mut().zip(draws) {
        *v = (*v - *d).max(0.0);
    }
}

/// Hierarchical admission over one [`HierarchicalScheduler`] per
/// resource lane (see module docs for the wave protocol and the
/// single-lane degeneracy contract). All lanes share one principal
/// partition; availability is one vector per lane, owned by the caller
/// and committed into, so after a call it reflects every grant.
#[derive(Debug)]
pub struct MultiAdmission {
    /// Lane names, resource order; empty for one unnamed lane.
    names: Vec<&'static str>,
    lanes: Vec<HierarchicalScheduler>,
}

impl MultiAdmission {
    /// Wrap one scheduler per named resource — or a single scheduler
    /// with no name, whose capacity rejections stay untagged. Fails with
    /// [`SchedError::DimensionMismatch`] if names and lanes disagree in
    /// count, no lanes are given, or the lanes' group partitions differ
    /// (the wave protocol shares one run structure across lanes).
    /// Enable each lane's executor (`set_parallel_auto` /
    /// `set_parallel_fine`) *before* wrapping.
    pub fn new(
        names: Vec<&'static str>,
        lanes: Vec<HierarchicalScheduler>,
    ) -> Result<Self, SchedError> {
        let unnamed = names.is_empty() && lanes.len() == 1;
        if names.len() != lanes.len() && !unnamed {
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

    /// The resource names, lane order (empty for one unnamed lane).
    pub fn names(&self) -> &[&'static str] {
        &self.names
    }

    /// Number of resource lanes.
    pub fn num_resources(&self) -> usize {
        self.lanes.len()
    }

    /// Number of principals (identical across lanes).
    pub fn num_principals(&self) -> usize {
        self.lanes[0].num_principals()
    }

    /// The scheduler driving resource lane `r`.
    pub fn lane(&self, r: usize) -> &HierarchicalScheduler {
        &self.lanes[r]
    }

    /// Attach a telemetry plane to every lane.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        for lane in &mut self.lanes {
            lane.set_telemetry(telemetry.clone());
        }
    }

    /// Renegotiate one inter-group agreement in every lane; returns the
    /// coarse rows recomputed in the last lane (identical counts, the
    /// partitions being shared). Requests admitted after this call see
    /// the new agreement — batched or not.
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

    /// The tag lane `r`'s capacity rejections carry.
    fn name(&self, r: usize) -> Option<&'static str> {
        self.names.get(r).copied()
    }

    /// Decide one request: evaluate every lane in resource order against
    /// its availability vector (no mutation), and only if all admit,
    /// commit each lane's draws. The first refusing lane decides the
    /// verdict, its capacity rejection tagged with the lane's name.
    /// Errors leave every availability vector untouched.
    pub fn decide<A, G>(
        &self,
        availability: &mut [A],
        requester: usize,
        amounts: &[f64],
    ) -> Result<G, SchedError>
    where
        A: DerefMut<Target = [f64]>,
        G: LaneGrant,
    {
        let k = self.lanes.len();
        if availability.len() != k {
            return Err(SchedError::DimensionMismatch { expected: k, got: availability.len() });
        }
        if amounts.len() != k {
            return Err(SchedError::DimensionMismatch { expected: k, got: amounts.len() });
        }
        let lanes = self.lanes.iter().zip(availability.iter()).zip(amounts).enumerate();
        let grant = G::from_lanes(lanes.map(|(r, ((lane, avail), &x))| {
            lane.allocate(avail, requester, x).map_err(|e| e.tagged(self.name(r)))
        }))?;
        for (avail, alloc) in availability.iter_mut().zip(grant.lanes()) {
            commit(avail, &alloc.draws);
        }
        Ok(grant)
    }

    /// Decide a whole run, one decision per request in input order,
    /// bit-identical to [`Self::decide`] on each in order: the wave
    /// protocol (module docs) exists purely for throughput. Falls back to
    /// the one-by-one loop when any lane lacks a live executor or a
    /// wave's fan-out is below break-even.
    pub fn decide_run<A, R, G>(
        &self,
        availability: &mut [A],
        reqs: &[R],
    ) -> Vec<Result<G, SchedError>>
    where
        A: DerefMut<Target = [f64]>,
        R: LaneRequest,
        G: LaneGrant,
    {
        let rk = self.lanes.len();
        let k = reqs.len();
        let n = self.num_principals();
        let one_by_one = |availability: &mut [A], r: &R| -> Result<G, SchedError> {
            self.decide(availability, r.requester(), r.amounts())
        };
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
            return reqs.iter().map(|r| one_by_one(availability, r)).collect();
        }

        let groups = self.lanes[0].groups();
        let mut decisions: Vec<Option<Result<G, SchedError>>> = (0..k).map(|_| None).collect();
        let mut i = 0;
        while i < k {
            // Build per-lane runs over the undecided tail, deciding
            // stateless validation errors inline in `decide`'s order
            // (dimensions, principal, lane-0 amount): deciding them early
            // changes nothing, since they never touch availability. Run
            // structure (groups, slots) is identical across lanes;
            // amounts differ.
            let mut run_of_group: Vec<usize> = vec![usize::MAX; groups.len()];
            let mut runs: Vec<Vec<GroupRun>> = (0..rk).map(|_| Vec::new()).collect();
            let mut forced_cut: Option<usize> = None;
            for slot in i..k {
                if decisions[slot].is_some() {
                    continue;
                }
                let (requester, amounts) = (reqs[slot].requester(), reqs[slot].amounts());
                let invalid = |a: &f64| !a.is_finite() || *a < 0.0;
                let early = if amounts.len() != rk {
                    Some(SchedError::DimensionMismatch { expected: rk, got: amounts.len() })
                } else if requester >= n {
                    Some(SchedError::UnknownPrincipal { index: requester, n })
                } else if invalid(&amounts[0]) {
                    Some(SchedError::InvalidRequest { amount: amounts[0] })
                } else {
                    None
                };
                if let Some(e) = early {
                    decisions[slot] = Some(Err(e));
                    continue;
                }
                // An invalid amount past the first lane: an earlier lane
                // may refuse on capacity first, so its verdict is
                // decided at its turn, like a stall.
                if amounts[1..].iter().any(invalid) {
                    forced_cut.get_or_insert(slot);
                    continue;
                }
                let g = self.lanes[0].group_of(requester).expect("validated requester");
                if run_of_group[g] == usize::MAX {
                    run_of_group[g] = runs[0].len();
                    for (lane_runs, avail) in runs.iter_mut().zip(availability.iter()) {
                        lane_runs.push(GroupRun {
                            group: g,
                            first_member: groups[g][0],
                            start: groups[g].iter().map(|&m| avail[m]).collect(),
                            reqs: Vec::new(),
                        });
                    }
                }
                for (lane_runs, &amount) in runs.iter_mut().zip(amounts) {
                    lane_runs[run_of_group[g]].reqs.push(RunRequest { slot, amount });
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
                        decisions[slot] = Some(one_by_one(availability, &reqs[slot]));
                    }
                }
                break;
            }

            let outcomes: Vec<_> = self
                .lanes
                .iter()
                .zip(runs)
                .map(|(lane, runs)| lane.shard_executor().expect("checked live").run_fan(runs))
                .collect();
            let stalls = outcomes.iter().flatten().filter_map(|o| o.stalled_at);
            let rejections = outcomes
                .iter()
                .flatten()
                .flat_map(|o| &o.steps)
                .filter(|step| rk > 1 && step.result.is_err())
                .map(|step| step.slot);
            let cutoff = forced_cut.into_iter().chain(stalls).chain(rejections).min().unwrap_or(k);

            // Steps before the cutoff were decided by every lane. Commit
            // them in global slot order, lane by lane — the exact state
            // evolution of one-by-one admission.
            let mut accepted = Vec::new();
            for (lane, outcomes) in outcomes.into_iter().enumerate() {
                for outcome in outcomes {
                    for step in outcome.steps.into_iter().filter(|step| step.slot < cutoff) {
                        accepted.push((step.slot, lane, outcome.group, step.result));
                    }
                }
            }
            accepted.sort_by_key(|&(slot, lane, ..)| (slot, lane));
            let mut accepted = accepted.into_iter();
            while let Some(first) = accepted.next() {
                let (slot, r) = (first.0, &reqs[first.0]);
                let lanes = std::iter::once(first).chain(accepted.by_ref().take(rk - 1));
                let decision = G::from_lanes(lanes.map(|(at, lane, group, result)| {
                    debug_assert_eq!(at, slot, "one step per lane below the cutoff");
                    // A lane's rejection is reachable here with one lane
                    // only (more lanes cap the cutoff at rejections); the
                    // worker never advanced availability for it.
                    let (local, theta) = result.map_err(|e| e.tagged(self.name(lane)))?;
                    let mut draws = vec![0.0; n];
                    for (&m, d) in groups[group].iter().zip(local) {
                        draws[m] += d;
                    }
                    let amount = r.amounts()[lane];
                    Ok(Allocation { requester: r.requester(), amount, draws, theta })
                }));
                if let Ok(grant) = &decision {
                    for (avail, alloc) in availability.iter_mut().zip(grant.lanes()) {
                        commit(avail, &alloc.draws);
                    }
                }
                decisions[slot] = Some(decision);
            }

            if cutoff < k {
                // The cutoff slot needs global state (a coarse LP) or a
                // fresh conjunction verdict; decide it one by one.
                decisions[cutoff] = Some(one_by_one(availability, &reqs[cutoff]));
            }
            i = cutoff + 1;
        }
        decisions.into_iter().map(|d| d.expect("every slot decided")).collect()
    }

    /// [`Self::decide`] in the multi-resource shape.
    pub fn admit_one(
        &self,
        availability: &mut [Vec<f64>],
        requester: usize,
        amounts: &[f64],
    ) -> Result<MultiAllocation, SchedError> {
        self.decide(availability, requester, amounts)
    }

    /// [`Self::decide_run`] in the multi-resource shape.
    pub fn admit_batch(
        &self,
        availability: &mut [Vec<f64>],
        reqs: &[MultiAdmissionRequest],
    ) -> Vec<Result<MultiAllocation, SchedError>> {
        self.decide_run(availability, reqs)
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
}
