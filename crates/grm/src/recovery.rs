//! Cold-standby GRM recovery: a replayable agreement journal.
//!
//! The GRM's state splits into two halves with very different recovery
//! stories:
//!
//! - **Availability** is soft state. Every LRM periodically re-reports
//!   its pool, so a fresh GRM converges to the true availability view
//!   within one report round — nothing to persist.
//! - **Agreements** are hard state. They are negotiated out of band
//!   (§2 of the paper) and the GRM is their only holder at runtime, so
//!   a crash would lose the sharing contracts themselves.
//!
//! [`AgreementJournal`] closes the gap: every agreement-management
//! operation (set/join/leave) is recorded as it is applied, and the
//! journal can deterministically rebuild the [`AgreementMatrix`] a
//! standby GRM should boot with. Recovery is then: respawn from the
//! journal, have clients [`rebind`](crate::ResilientGrmClient::rebind),
//! have LRMs re-report, and replay any degraded-mode grants
//! ([`crate::GrmHandle::replay_grant`]) so the books settle.

use agreements_flow::{AgreementMatrix, FlowError};

use crate::server::{GrmError, GrmHandle, GrmServer};

/// One recorded agreement-management operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AgreementOp {
    /// `set_agreement(from, to, share)`.
    Set {
        /// Granting principal.
        from: usize,
        /// Receiving principal.
        to: usize,
        /// Fractional share granted.
        share: f64,
    },
    /// A new principal joined (index = matrix size before growth).
    Join,
    /// Principal `lrm` left the federation (row/column isolated).
    Leave {
        /// The departed principal.
        lrm: usize,
    },
}

/// Replayable log of the agreement-management state of one GRM.
///
/// Use the mutating wrappers ([`set_agreement`](Self::set_agreement),
/// [`join`](Self::join), [`leave`](Self::leave)) instead of raw
/// [`GrmHandle`] calls so the journal and the live server stay in
/// lock-step: an op is recorded only after the server accepted it.
#[derive(Debug, Clone)]
pub struct AgreementJournal {
    initial: AgreementMatrix,
    level: usize,
    ops: Vec<AgreementOp>,
}

impl AgreementJournal {
    /// Start a journal for a GRM booted with `initial` agreements at
    /// transitive-closure `level`.
    pub fn new(initial: AgreementMatrix, level: usize) -> Self {
        AgreementJournal { initial, level, ops: Vec::new() }
    }

    /// Transitive-closure level the GRM was booted with.
    pub fn level(&self) -> usize {
        self.level
    }

    /// Number of recorded operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when no operations have been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Recorded operations, oldest first.
    pub fn ops(&self) -> &[AgreementOp] {
        &self.ops
    }

    /// Apply `set_agreement` on the live GRM and record it on success.
    pub fn set_agreement(
        &mut self,
        h: &GrmHandle,
        from: usize,
        to: usize,
        share: f64,
    ) -> Result<(), GrmError> {
        h.set_agreement(from, to, share)?;
        self.ops.push(AgreementOp::Set { from, to, share });
        Ok(())
    }

    /// Apply `join` on the live GRM and record it on success. Returns
    /// the new principal's index.
    pub fn join(&mut self, h: &GrmHandle) -> Result<usize, GrmError> {
        let idx = h.join()?;
        self.ops.push(AgreementOp::Join);
        Ok(idx)
    }

    /// Apply `leave` on the live GRM and record it on success.
    pub fn leave(&mut self, h: &GrmHandle, lrm: usize) -> Result<(), GrmError> {
        h.leave(lrm)?;
        self.ops.push(AgreementOp::Leave { lrm });
        Ok(())
    }

    /// Record an operation that was already applied elsewhere (e.g. the
    /// op raced a crash and the caller confirmed it took effect).
    pub fn record(&mut self, op: AgreementOp) {
        self.ops.push(op);
    }

    /// Deterministically rebuild the agreement matrix the journal
    /// describes by replaying every op over the initial matrix.
    pub fn matrix(&self) -> Result<AgreementMatrix, FlowError> {
        let mut m = self.initial.clone();
        for op in &self.ops {
            match *op {
                AgreementOp::Set { from, to, share } => m.set(from, to, share)?,
                AgreementOp::Join => m = m.grown(),
                AgreementOp::Leave { lrm } => m.isolate(lrm)?,
            }
        }
        Ok(m)
    }

    /// Boot a cold-standby GRM from the journal. Availability starts
    /// empty: LRMs must re-report (and replay journalled degraded-mode
    /// grants) before the standby's view is authoritative.
    pub fn respawn(&self) -> Result<GrmServer, FlowError> {
        Ok(GrmServer::spawn(self.matrix()?, self.level))
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

    #[test]
    fn replayed_matrix_tracks_live_mutations() {
        let grm = GrmServer::spawn(complete(2, 0.25), 2);
        let h = grm.handle();
        let mut journal = AgreementJournal::new(complete(2, 0.25), 2);

        let newbie = journal.join(&h).unwrap();
        assert_eq!(newbie, 2);
        journal.set_agreement(&h, newbie, 0, 0.5).unwrap();
        journal.set_agreement(&h, 0, newbie, 0.1).unwrap();
        journal.leave(&h, 1).unwrap();

        let m = journal.matrix().unwrap();
        assert_eq!(m.n(), 3);
        assert!((m.get(newbie, 0) - 0.5).abs() < 1e-12);
        assert!((m.get(0, newbie) - 0.1).abs() < 1e-12);
        assert_eq!(m.get(0, 1), 0.0, "departed principal is isolated");
        assert_eq!(m.get(1, 0), 0.0);
        grm.shutdown();
    }

    #[test]
    fn rejected_ops_are_not_journalled() {
        let grm = GrmServer::spawn(complete(2, 0.25), 1);
        let h = grm.handle();
        let mut journal = AgreementJournal::new(complete(2, 0.25), 1);
        assert!(journal.set_agreement(&h, 0, 7, 0.5).is_err());
        assert!(journal.leave(&h, 9).is_err());
        assert!(journal.is_empty());
        grm.shutdown();
    }

    #[test]
    fn refused_join_is_not_journalled() {
        // Regression: a fixed-membership engine used to answer `join`
        // with a sentinel index inside `Ok`, so the journal recorded a
        // join that never happened and the standby's replayed matrix
        // grew by a principal the live GRM never had.
        use agreements_sched::HierarchicalScheduler;
        let inter = complete(2, 0.5);
        let sched = HierarchicalScheduler::new(vec![vec![0, 1], vec![2, 3]], &inter, 1).unwrap();
        let grm = GrmServer::spawn_hierarchical(sched);
        let mut journal = AgreementJournal::new(complete(4, 0.25), 1);
        assert!(matches!(journal.join(&grm.handle()), Err(GrmError::Unsupported(_))));
        assert_eq!(journal.len(), 0, "a refused join must not be recorded");
        assert_eq!(journal.matrix().unwrap().n(), 4);
        grm.shutdown();
    }

    #[test]
    fn standby_respawn_serves_same_decisions_after_re_reports() {
        let seedm = complete(3, 0.4);
        let grm = GrmServer::spawn(seedm.clone(), 2);
        let h = grm.handle();
        let mut journal = AgreementJournal::new(seedm, 2);
        journal.set_agreement(&h, 1, 0, 0.6).unwrap();
        for (i, v) in [4.0, 10.0, 3.0].into_iter().enumerate() {
            h.report(i, v).unwrap();
        }
        let before = h.request(0, 9.0).unwrap();
        // Put the units back so the standby sees the same pools.
        h.release(before.clone()).unwrap();
        grm.crash();

        let standby = journal.respawn().unwrap();
        let h2 = standby.handle();
        for (i, v) in [4.0, 10.0, 3.0].into_iter().enumerate() {
            h2.report(i, v).unwrap();
        }
        let after = h2.request(0, 9.0).unwrap();
        assert_eq!(before.draws, after.draws, "standby reproduces the grant");
        standby.shutdown();
    }
}
