//! Two-level GRM: group GRMs under a coarse root scheduler (§3.2's
//! multigrid refinement, distributed across managers).

use crate::server::{GrmError, GrmHandle, GrmServer};
use agreements_flow::partition::{auto_partition, PartitionOptions};
use agreements_flow::AgreementMatrix;
use agreements_sched::hierarchy::HierarchicalScheduler;
use agreements_sched::{Allocation, SchedError};

/// A root coordinator over per-group GRMs.
///
/// Requests go to the requester's group GRM first; if the group cannot
/// satisfy them, the root runs the coarse inter-group LP (via
/// [`HierarchicalScheduler`]) over aggregated group availabilities and
/// splits the request into per-group reservations, each fulfilled by the
/// group's own GRM.
pub struct TwoLevelGrm {
    groups: Vec<Vec<usize>>,
    group_grms: Vec<GrmServer>,
    /// Index of each principal inside its group GRM (local index).
    local_index: Vec<usize>,
    /// Which group each principal is in.
    member_of: Vec<usize>,
    sched: HierarchicalScheduler,
}

impl TwoLevelGrm {
    /// Build from a partition, per-group *intra* agreement matrices, and
    /// the group-level *inter* agreement matrix.
    pub fn new(
        groups: Vec<Vec<usize>>,
        intra: Vec<AgreementMatrix>,
        inter: &AgreementMatrix,
        level: usize,
    ) -> Result<Self, SchedError> {
        Self::with_spawner(groups, intra, inter, level, |m, lvl, _g| GrmServer::spawn(m, lvl))
    }

    /// Build directly from a flat agreement economy: the partition, the
    /// per-group intra matrices, and the aggregate inter matrix are all
    /// derived by [`agreements_flow::auto_partition`].
    pub fn new_auto(
        s: &AgreementMatrix,
        opts: &PartitionOptions,
        level: usize,
    ) -> Result<Self, SchedError> {
        let p = auto_partition(s, opts).map_err(SchedError::Flow)?;
        let intra = p.intra_matrices(s).map_err(SchedError::Flow)?;
        Self::new(p.groups, intra, &p.inter, level)
    }

    /// [`TwoLevelGrm::new_auto`] with every group GRM's client link run
    /// through `plane` (as in [`TwoLevelGrm::new_chaotic`]).
    pub fn new_auto_chaotic(
        s: &AgreementMatrix,
        opts: &PartitionOptions,
        level: usize,
        plane: &agreements_faults::FaultPlane,
    ) -> Result<Self, SchedError> {
        let p = auto_partition(s, opts).map_err(SchedError::Flow)?;
        let intra = p.intra_matrices(s).map_err(SchedError::Flow)?;
        Self::new_chaotic(p.groups, intra, &p.inter, level, plane)
    }

    /// Like [`TwoLevelGrm::new`], but every group GRM's client link runs
    /// through `plane` (one independently-seeded sub-stream per group, so
    /// the fate schedule of one group never perturbs another's).
    pub fn new_chaotic(
        groups: Vec<Vec<usize>>,
        intra: Vec<AgreementMatrix>,
        inter: &AgreementMatrix,
        level: usize,
        plane: &agreements_faults::FaultPlane,
    ) -> Result<Self, SchedError> {
        Self::with_spawner(groups, intra, inter, level, |m, lvl, g| {
            GrmServer::spawn_chaotic(m, lvl, plane, &format!("group-{g}"))
        })
    }

    fn with_spawner(
        groups: Vec<Vec<usize>>,
        intra: Vec<AgreementMatrix>,
        inter: &AgreementMatrix,
        level: usize,
        mut spawn: impl FnMut(AgreementMatrix, usize, usize) -> GrmServer,
    ) -> Result<Self, SchedError> {
        let sched = HierarchicalScheduler::new(groups.clone(), inter, level)?;
        let n: usize = groups.iter().map(Vec::len).sum();
        let mut local_index = vec![0usize; n];
        let mut member_of = vec![0usize; n];
        let mut group_grms = Vec::with_capacity(groups.len());
        for (g, members) in groups.iter().enumerate() {
            let m = intra.get(g).ok_or(SchedError::DimensionMismatch {
                expected: groups.len(),
                got: intra.len(),
            })?;
            if m.n() != members.len() {
                return Err(SchedError::DimensionMismatch { expected: members.len(), got: m.n() });
            }
            for (li, &p) in members.iter().enumerate() {
                local_index[p] = li;
                member_of[p] = g;
            }
            let lvl = members.len().saturating_sub(1).max(1);
            group_grms.push(spawn(m.clone(), lvl, g));
        }
        Ok(TwoLevelGrm { groups, group_grms, local_index, member_of, sched })
    }

    /// Handle to a group's GRM (for LRM registration and reports).
    pub fn group_handle(&self, group: usize) -> GrmHandle {
        self.group_grms[group].handle()
    }

    /// The partition this federation runs over.
    pub fn groups(&self) -> &[Vec<usize>] {
        &self.groups
    }

    /// Number of group GRMs.
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// The group of a principal.
    pub fn group_of(&self, principal: usize) -> usize {
        self.member_of[principal]
    }

    /// A principal's local index within its group GRM.
    pub fn local_index(&self, principal: usize) -> usize {
        self.local_index[principal]
    }

    /// Route a request: group GRM first, root refinement on overflow.
    /// Returns a *global* draw vector indexed by principal.
    pub fn request(&self, principal: usize, amount: f64) -> Result<Allocation, GrmError> {
        let n = self.member_of.len();
        if principal >= n {
            return Err(GrmError::UnknownLrm(principal));
        }
        let home = self.member_of[principal];
        // Fast path: the home group alone.
        match self.group_grms[home].handle().request(self.local_index[principal], amount) {
            Ok(local) => {
                let mut draws = vec![0.0; n];
                for (li, &p) in self.groups[home].iter().enumerate() {
                    draws[p] = local.draws[li];
                }
                return Ok(Allocation {
                    requester: principal,
                    amount: local.amount,
                    draws,
                    theta: local.theta,
                });
            }
            Err(GrmError::Sched(SchedError::InsufficientCapacity { .. })) => {}
            Err(e) => return Err(e),
        }
        // Coarse path: gather availability from every group GRM, run the
        // hierarchical scheduler, and commit per-group reservations.
        let mut availability = vec![0.0; n];
        for (g, members) in self.groups.iter().enumerate() {
            let view = self.group_grms[g].handle().availability()?;
            for (li, &p) in members.iter().enumerate() {
                availability[p] = view[li];
            }
        }
        let alloc =
            self.sched.allocate(&availability, principal, amount).map_err(GrmError::Sched)?;
        // Commit the draws into each group GRM's view (acting as the
        // reservation directive).
        for (g, members) in self.groups.iter().enumerate() {
            let h = self.group_grms[g].handle();
            for (li, &p) in members.iter().enumerate() {
                if alloc.draws[p] > 0.0 {
                    h.report(li, (availability[p] - alloc.draws[p]).max(0.0))?;
                }
            }
        }
        Ok(alloc)
    }

    /// Shut down every group GRM.
    pub fn shutdown(self) {
        for g in self.group_grms {
            g.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn complete(n: usize, share: f64) -> AgreementMatrix {
        let mut s = AgreementMatrix::zeros(n);
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    s.set(i, j, share).unwrap();
                }
            }
        }
        s
    }

    fn two_groups() -> TwoLevelGrm {
        let groups = vec![vec![0, 1, 2], vec![3, 4, 5]];
        let intra = vec![complete(3, 1.0), complete(3, 1.0)];
        let mut inter = AgreementMatrix::zeros(2);
        inter.set(0, 1, 0.5).unwrap();
        inter.set(1, 0, 0.5).unwrap();
        TwoLevelGrm::new(groups, intra, &inter, 1).unwrap()
    }

    fn seed_availability(grm: &TwoLevelGrm, per_member: &[f64; 6]) {
        for p in 0..6 {
            let g = grm.group_of(p);
            grm.group_handle(g).report(grm.local_index(p), per_member[p]).unwrap();
        }
    }

    #[test]
    fn home_group_serves_small_requests() {
        let grm = two_groups();
        seed_availability(&grm, &[5.0, 5.0, 5.0, 50.0, 50.0, 50.0]);
        let alloc = grm.request(0, 12.0).unwrap();
        assert!((alloc.amount - 12.0).abs() < 1e-9);
        assert!(alloc.draws[3..].iter().all(|&d| d == 0.0), "{:?}", alloc.draws);
        grm.shutdown();
    }

    #[test]
    fn overflow_escalates_to_root() {
        let grm = two_groups();
        seed_availability(&grm, &[2.0, 2.0, 2.0, 10.0, 10.0, 10.0]);
        let alloc = grm.request(0, 15.0).unwrap();
        let home: f64 = alloc.draws[..3].iter().sum();
        let away: f64 = alloc.draws[3..].iter().sum();
        assert!((home + away - 15.0).abs() < 1e-9);
        assert!(away > 0.0);
        // Inter-group cap: at most 50% of the remote group's 30.
        assert!(away <= 15.0 + 1e-9);
        // Group GRM views were updated.
        let remote_view = grm.group_handle(1).availability().unwrap();
        assert!((remote_view.iter().sum::<f64>() - (30.0 - away)).abs() < 1e-6);
        grm.shutdown();
    }

    #[test]
    fn totally_unreachable_request_fails() {
        let grm = two_groups();
        seed_availability(&grm, &[1.0, 1.0, 1.0, 1.0, 1.0, 1.0]);
        // Reach: 3 own + 50% of 3 = 4.5 < 10.
        assert!(grm.request(0, 10.0).is_err());
        grm.shutdown();
    }

    #[test]
    fn construction_validates_shapes() {
        let groups = vec![vec![0, 1], vec![2]];
        let intra = vec![complete(2, 1.0)]; // missing one group
        let inter = AgreementMatrix::zeros(2);
        assert!(TwoLevelGrm::new(groups.clone(), intra, &inter, 1).is_err());
        let intra_bad = vec![complete(3, 1.0), complete(1, 0.0)];
        assert!(TwoLevelGrm::new(groups, intra_bad, &inter, 1).is_err());
    }

    #[test]
    fn chaotic_hierarchy_with_inert_plane_matches_plain() {
        let plane = agreements_faults::FaultPlane::inert(7);
        let groups = vec![vec![0, 1, 2], vec![3, 4, 5]];
        let intra = vec![complete(3, 1.0), complete(3, 1.0)];
        let mut inter = AgreementMatrix::zeros(2);
        inter.set(0, 1, 0.5).unwrap();
        inter.set(1, 0, 0.5).unwrap();
        let chaotic = TwoLevelGrm::new_chaotic(groups, intra, &inter, 1, &plane).unwrap();
        let plain = two_groups();
        let pools = [2.0, 2.0, 2.0, 10.0, 10.0, 10.0];
        seed_availability(&chaotic, &pools);
        seed_availability(&plain, &pools);
        let a = chaotic.request(0, 15.0).unwrap();
        let b = plain.request(0, 15.0).unwrap();
        assert_eq!(a.draws, b.draws, "inert plane must be transparent");
        chaotic.shutdown();
        plain.shutdown();
    }

    #[test]
    fn auto_federation_matches_hand_built() {
        // Flat economy: two complete blocks (intra 1.0) with a uniform
        // 25% cross share. new_auto must derive the same federation a
        // hand partition describes, and route identically.
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
        let auto = TwoLevelGrm::new_auto(&s, &PartitionOptions::default(), 1).unwrap();
        assert_eq!(auto.groups(), &[vec![0, 1, 2], vec![3, 4, 5]]);

        let groups = vec![vec![0, 1, 2], vec![3, 4, 5]];
        let intra = vec![complete(3, 1.0), complete(3, 1.0)];
        let mut inter = AgreementMatrix::zeros(2);
        inter.set(0, 1, 0.25).unwrap();
        inter.set(1, 0, 0.25).unwrap();
        let hand = TwoLevelGrm::new(groups, intra, &inter, 1).unwrap();

        let pools = [2.0, 2.0, 2.0, 10.0, 10.0, 10.0];
        seed_availability(&auto, &pools);
        seed_availability(&hand, &pools);
        let a = auto.request(0, 9.0).unwrap();
        let b = hand.request(0, 9.0).unwrap();
        assert_eq!(a.draws, b.draws);
        auto.shutdown();
        hand.shutdown();
    }

    #[test]
    fn unknown_principal_rejected() {
        let grm = two_groups();
        assert!(matches!(grm.request(17, 1.0), Err(GrmError::UnknownLrm(17))));
        grm.shutdown();
    }
}
