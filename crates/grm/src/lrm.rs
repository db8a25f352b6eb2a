//! Local resource managers: own a real pool and fulfil GRM decisions.
//!
//! Besides the happy path (submit → GRM decides → fulfil), an LRM can
//! run **degraded**: when the GRM is unreachable past the retry budget,
//! [`Lrm::submit_or_degrade`] falls back to a local-pool-only grant and
//! journals it under the request id the failed RPC used. Once the GRM
//! heals (or a cold standby comes up), [`Lrm::reconcile`] re-reports the
//! pool and replays the journal so the global books settle exactly once
//! per intent — a retried id that *did* land server-side dedups instead
//! of double-counting.

use crate::resilient::ResilientGrmClient;
use crate::server::{GrmClient, GrmError, GrmHandle, RequestId};
use agreements_sched::{Allocation, SchedError};
use agreements_telemetry::{Telemetry, TelemetryEvent};
use parking_lot::Mutex;
use std::sync::Arc;

/// A local resource manager. It owns the authoritative local pool; the
/// GRM's availability view is only as fresh as the LRM's last report.
///
/// Allocation flow: a job arrives at this LRM → the LRM asks the GRM for a
/// placement → the GRM returns the draw vector → each contributing LRM
/// fulfils its share via [`Lrm::fulfil`] (decrementing its own pool) →
/// every touched LRM re-reports.
pub struct Lrm {
    /// This LRM's index at the GRM.
    pub id: usize,
    pool: Arc<Mutex<f64>>,
    grm: GrmHandle,
    /// Grants issued while the GRM was unreachable, keyed by the request
    /// id the failed RPC carried, awaiting [`Lrm::reconcile`].
    degraded: Mutex<Vec<(RequestId, f64)>>,
    /// Telemetry for degraded-mode transitions; disabled by default.
    telemetry: Telemetry,
}

impl Lrm {
    /// Create an LRM with an initial pool and announce it to the GRM.
    pub fn new(id: usize, initial: f64, grm: GrmHandle) -> Result<Self, GrmError> {
        let lrm = Lrm {
            id,
            pool: Arc::new(Mutex::new(initial)),
            grm,
            degraded: Mutex::new(Vec::new()),
            telemetry: Telemetry::default(),
        };
        lrm.report()?;
        Ok(lrm)
    }

    /// Attach a telemetry plane recording this LRM's degraded-mode
    /// grants; `Telemetry::default()` restores the no-op behavior.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Current local pool level.
    pub fn available(&self) -> f64 {
        *self.pool.lock()
    }

    /// Push the current availability to the GRM.
    pub fn report(&self) -> Result<(), GrmError> {
        self.grm.report(self.id, self.available())
    }

    /// Locally produce or reclaim resources (e.g. a job finished), then
    /// re-report.
    pub fn credit(&self, amount: f64) -> Result<(), GrmError> {
        {
            let mut pool = self.pool.lock();
            *pool += amount;
        }
        self.report()
    }

    /// Fulfil this LRM's share of a GRM allocation: deduct the draw
    /// against the local pool. Returns the amount actually deducted
    /// (clamped at the pool, which can run briefly stale-low if reports
    /// lag). A clamp is surfaced to the GRM as a fulfil shortfall so the
    /// gap between decided and delivered units is observable in
    /// [`crate::GrmStats`].
    pub fn fulfil(&self, alloc: &Allocation) -> Result<f64, GrmError> {
        let want = alloc.draws.get(self.id).copied().unwrap_or(0.0);
        let taken = self.fulfil_local(alloc);
        if taken < want - 1e-12 {
            // Best-effort: the shortfall counter is telemetry, and if the
            // GRM is down the report below fails loudly anyway.
            let _ = self.grm.report_fulfil_shortfall(self.id, want, taken);
        }
        self.report()?;
        Ok(taken)
    }

    /// Deduct this LRM's share of an allocation from the local pool
    /// without contacting the GRM. This is the degraded-mode fulfilment
    /// path: the pool stays authoritative locally and the GRM catches up
    /// at the next report/[`Lrm::reconcile`]. Returns the amount taken
    /// (clamped at the pool).
    pub fn fulfil_local(&self, alloc: &Allocation) -> f64 {
        let want = alloc.draws.get(self.id).copied().unwrap_or(0.0);
        let mut pool = self.pool.lock();
        let taken = want.min(*pool);
        *pool -= taken;
        taken
    }

    /// Submit a job needing `amount` units: asks the GRM for a placement.
    /// The caller is responsible for routing the returned allocation to
    /// every contributing LRM's [`Lrm::fulfil`].
    pub fn submit(&self, amount: f64) -> Result<Allocation, GrmError> {
        self.grm.request(self.id, amount)
    }

    /// Submit through a resilient client, degrading to a local-pool-only
    /// grant when the GRM stays unreachable past the client's retry
    /// budget.
    ///
    /// Returns the allocation plus `true` when it was decided locally.
    /// A degraded grant draws exclusively from this LRM's own pool (no
    /// agreements can be consulted without the GRM), is journalled under
    /// the *same request id the failed RPC carried*, and must be routed
    /// through [`Lrm::fulfil`] like any other allocation. When the GRM
    /// heals, [`Lrm::reconcile`] replays the journal: ids that actually
    /// landed server-side (a "zombie grant" whose reply was lost) dedup
    /// to a no-op, the rest settle the global books late.
    pub fn submit_or_degrade<C: GrmClient + Clone>(
        &self,
        client: &ResilientGrmClient<C>,
        amount: f64,
    ) -> Result<(Allocation, bool), GrmError> {
        let id = client.next_id();
        match client.request_as(id, self.id, amount) {
            Ok(alloc) => Ok((alloc, false)),
            Err(e) if e.is_retryable() || matches!(e, GrmError::RetriesExhausted { .. }) => {
                let pool = self.available();
                if amount > pool + 1e-12 {
                    // Degraded mode cannot reach shared capacity; reject
                    // the way the GRM would for an isolated principal.
                    return Err(GrmError::Sched(SchedError::InsufficientCapacity {
                        requester: self.id,
                        capacity: pool,
                        requested: amount,
                        resource: None,
                    }));
                }
                self.degraded.lock().push((id, amount));
                self.telemetry.add("lrm.degraded_grants", 1);
                self.telemetry.record_with(|| TelemetryEvent::DegradedGrant { amount });
                let mut draws = vec![0.0; self.id + 1];
                draws[self.id] = amount;
                Ok((Allocation { requester: self.id, amount, draws, theta: 0.0 }, true))
            }
            Err(e) => Err(e),
        }
    }

    /// Number of degraded-mode grants awaiting reconciliation.
    pub fn degraded_backlog(&self) -> usize {
        self.degraded.lock().len()
    }

    /// Reconcile with a (healed or standby) GRM: re-report the pool,
    /// then replay every journalled degraded-mode grant so the global
    /// books account for units granted during the partition. Entries are
    /// dropped as they settle; on a transport failure the remainder stays
    /// journalled for the next attempt. Returns the number of grants
    /// settled this call.
    pub fn reconcile<C: GrmClient + Clone>(
        &self,
        client: &ResilientGrmClient<C>,
    ) -> Result<usize, GrmError> {
        client.report(self.id, self.available())?;
        let backlog: Vec<(RequestId, f64)> = self.degraded.lock().clone();
        let mut settled = 0;
        for &(id, amount) in &backlog {
            match client.replay_grant(id, self.id, amount) {
                Ok(()) => {
                    self.degraded.lock().retain(|&(j, _)| j != id);
                    settled += 1;
                }
                Err(e) => return Err(e),
            }
        }
        Ok(settled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::GrmServer;
    use agreements_flow::AgreementMatrix;

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
    fn end_to_end_allocation_fulfilment() {
        let grm = GrmServer::spawn(complete(3, 0.5), 2);
        let lrms: Vec<Lrm> = (0..3)
            .map(|i| Lrm::new(i, if i == 0 { 0.0 } else { 12.0 }, grm.handle()).unwrap())
            .collect();
        // LRM 0 has nothing; submits a job for 8 units.
        let alloc = lrms[0].submit(8.0).unwrap();
        let mut total = 0.0;
        for lrm in &lrms {
            total += lrm.fulfil(&alloc).unwrap();
        }
        assert!((total - 8.0).abs() < 1e-9);
        // Pools actually decreased.
        let pools: f64 = lrms.iter().map(Lrm::available).sum();
        assert!((pools - 16.0).abs() < 1e-9);
        grm.shutdown();
    }

    #[test]
    fn credit_updates_grm_view() {
        let grm = GrmServer::spawn(complete(2, 0.5), 1);
        let a = Lrm::new(0, 1.0, grm.handle()).unwrap();
        let _b = Lrm::new(1, 1.0, grm.handle()).unwrap();
        a.credit(9.0).unwrap();
        let avail = grm.handle().availability().unwrap();
        assert!((avail[0] - 10.0).abs() < 1e-9);
        grm.shutdown();
    }

    #[test]
    fn fulfil_clamps_at_pool() {
        let grm = GrmServer::spawn(complete(2, 1.0), 1);
        let a = Lrm::new(0, 0.0, grm.handle()).unwrap();
        let b = Lrm::new(1, 5.0, grm.handle()).unwrap();
        // Stale view: report 5, then locally drain b's pool out-of-band.
        {
            let alloc = a.submit(5.0).unwrap();
            // Drain b to 2 before it fulfils.
            b.credit(-0.0).unwrap();
            {
                let mut pool = b.pool.lock();
                *pool = 2.0;
            }
            let taken = b.fulfil(&alloc).unwrap();
            assert!((taken - 2.0).abs() < 1e-9, "clamped at stale pool");
            assert_eq!(b.available(), 0.0);
        }
        grm.shutdown();
    }

    #[test]
    fn fulfil_shortfall_reaches_grm_stats() {
        let grm = GrmServer::spawn(complete(2, 1.0), 1);
        let a = Lrm::new(0, 0.0, grm.handle()).unwrap();
        let b = Lrm::new(1, 5.0, grm.handle()).unwrap();
        let alloc = a.submit(5.0).unwrap();
        {
            let mut pool = b.pool.lock();
            *pool = 2.0;
        }
        b.fulfil(&alloc).unwrap();
        let stats = grm.handle().stats().unwrap();
        assert_eq!(stats.partial_fulfils, 1);
        assert!((stats.fulfil_shortfall_units - 3.0).abs() < 1e-9);
        grm.shutdown();
    }

    #[test]
    fn degraded_submit_then_reconcile_settles_books_once() {
        use crate::resilient::{ResilientGrmClient, RetryPolicy};

        let grm = GrmServer::spawn(complete(2, 0.5), 1);
        let a = Lrm::new(0, 10.0, grm.handle()).unwrap();
        let _b = Lrm::new(1, 10.0, grm.handle()).unwrap();
        let client = ResilientGrmClient::new(grm.handle(), 0, RetryPolicy::aggressive());
        grm.crash();

        // GRM gone: the submit degrades to a local-only grant...
        let (alloc, degraded) = a.submit_or_degrade(&client, 4.0).unwrap();
        assert!(degraded);
        assert!((alloc.draws[0] - 4.0).abs() < 1e-9);
        assert!((a.fulfil_local(&alloc) - 4.0).abs() < 1e-9);
        assert_eq!(a.degraded_backlog(), 1);
        // ...but cannot exceed the local pool (no agreements reachable).
        assert!(matches!(
            a.submit_or_degrade(&client, 50.0),
            Err(GrmError::Sched(agreements_sched::SchedError::InsufficientCapacity { .. }))
        ));

        // A cold standby comes up; client rebinds; reconcile.
        let standby = GrmServer::spawn(complete(2, 0.5), 1);
        client.rebind(standby.handle());
        assert_eq!(a.reconcile(&client).unwrap(), 1);
        assert_eq!(a.degraded_backlog(), 0);
        let stats = standby.handle().stats().unwrap();
        assert_eq!(stats.journaled_grants, 1);
        assert!((stats.journaled_units - 4.0).abs() < 1e-9);
        // The re-report carried the post-grant pool.
        let avail = standby.handle().availability().unwrap();
        assert!((avail[0] - 6.0).abs() < 1e-9);
        // Reconcile is idempotent: nothing left to settle.
        assert_eq!(a.reconcile(&client).unwrap(), 0);
        let stats = standby.handle().stats().unwrap();
        assert_eq!(stats.journaled_grants, 1);
        standby.shutdown();
    }

    #[test]
    fn healthy_submit_through_resilient_client_is_not_degraded() {
        use crate::resilient::{ResilientGrmClient, RetryPolicy};
        let grm = GrmServer::spawn(complete(2, 0.5), 1);
        let a = Lrm::new(0, 10.0, grm.handle()).unwrap();
        let _b = Lrm::new(1, 10.0, grm.handle()).unwrap();
        let client = ResilientGrmClient::new(grm.handle(), 0, RetryPolicy::default());
        let (alloc, degraded) = a.submit_or_degrade(&client, 3.0).unwrap();
        assert!(!degraded);
        assert!((alloc.amount - 3.0).abs() < 1e-9);
        assert_eq!(a.degraded_backlog(), 0);
        grm.shutdown();
    }

    #[test]
    fn submit_without_capacity_errors() {
        let grm = GrmServer::spawn(AgreementMatrix::zeros(2), 1);
        let a = Lrm::new(0, 1.0, grm.handle()).unwrap();
        let _b = Lrm::new(1, 100.0, grm.handle()).unwrap();
        assert!(a.submit(2.0).is_err(), "no agreements, only own 1 unit");
        assert!(a.submit(1.0).is_ok());
        grm.shutdown();
    }
}
