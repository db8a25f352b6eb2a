//! Multi-resource admission at scale (paper §3.2, scaled path).
//!
//! [`crate::multi`] binds co-located resources into one composite pool.
//! This module instead runs **one full enforcement lane per resource** —
//! CPU, bandwidth, storage — each with its own warm hierarchical scheduler
//! over one shared partition, and admits a request iff *every* lane
//! admits it. A rejection names the **binding resource**: the first lane,
//! in resource order, whose admission failed.
//!
//! [`MultiAdmission`] is the hierarchical front door for every lane count
//! k ≥ 1: a single-resource scheduler is the one-lane case, and
//! [`crate::batch::BatchedAdmission`] is one unnamed lane, whose capacity
//! rejections carry `resource: None`. The caller picks the grant shape
//! ([`LaneGrant`]): an [`Allocation`] for one lane, a [`MultiAllocation`]
//! for any count. The one-lane shape costs what the single-resource path
//! always cost — no per-decision vector of lanes, no re-boxed request.
//!
//! Every decision is [`MultiAdmission::decide`]: each lane's
//! [`HierarchicalScheduler::allocate`] in resource order against that
//! lane's availability, then, only if all admit, each lane's draws
//! committed with the GRM's full-vector `(v − d).max(0.0)` expression.
//! A run of requests is this, once per request, in order.
//!
//! # Degeneracy contract
//!
//! With a single lane every path here is the single-resource algorithm.
//! A one-lane front is bit-identical to [`crate::batch::BatchedAdmission`]
//! in decisions and availability; a named lane differs only in tagging
//! `InsufficientCapacity` rejections `resource: Some(name)` where the
//! unnamed lane says `None`. `tests/proptest_multires.rs` pins this, and
//! `tests/proptest_batch.rs` holds every lane count to the per-lane
//! scheduler's own verdicts and draws.

use crate::error::SchedError;
use crate::hierarchy::HierarchicalScheduler;
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
/// resource lane (see module docs for the single-lane degeneracy
/// contract). All lanes share one principal
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
    /// (a group renegotiation names the same groups in every lane).
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

    /// Attach a telemetry plane to every lane.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        for lane in &mut self.lanes {
            lane.set_telemetry(telemetry.clone());
        }
    }

    /// Renegotiate one inter-group agreement in every lane; returns the
    /// coarse rows recomputed in the last lane (identical counts, the
    /// partitions being shared). Requests admitted after this call see
    /// the new agreement.
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

    /// [`Self::decide`] in the multi-resource shape.
    pub fn admit_one(
        &self,
        availability: &mut [Vec<f64>],
        requester: usize,
        amounts: &[f64],
    ) -> Result<MultiAllocation, SchedError> {
        self.decide(availability, requester, amounts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agreements_flow::AgreementMatrix;

    /// 2 groups of 3; groups share 50% each way (the batch.rs economy).
    fn lane() -> HierarchicalScheduler {
        let groups = vec![vec![0, 1, 2], vec![3, 4, 5]];
        let mut inter = AgreementMatrix::zeros(2);
        inter.set(0, 1, 0.5).unwrap();
        inter.set(1, 0, 0.5).unwrap();
        HierarchicalScheduler::new(groups, &inter, 1).unwrap()
    }

    fn multi(rk: usize) -> MultiAdmission {
        let names: Vec<&'static str> = STANDARD_RESOURCES[..rk].to_vec();
        MultiAdmission::new(names, (0..rk).map(|_| lane()).collect()).unwrap()
    }

    #[test]
    fn rejection_names_the_binding_resource() {
        let m = multi(3);
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
        let m = multi(2);
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
    fn mismatched_partitions_are_refused() {
        let a = lane();
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
