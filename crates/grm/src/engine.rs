//! The decision engines behind the GRM serve loop (DESIGN.md §18).
//!
//! A server runs exactly one [`Engine`]. The shell in
//! [`crate::server`] owns everything that is the same whichever engine
//! decides — the lease clock, the books, the dedup window, telemetry —
//! and an engine owns only the state it consults for a decision: its
//! availability storage, its solver or admission front door and, for
//! the flat engine alone, the incremental flow table.
//!
//! Every operation an engine does not implement answers
//! [`GrmError::Unsupported`] from the trait's defaults. The defaults
//! carry the multi-resource family's wording, because the two
//! multi-resource engines are the ones that implement none of the
//! single-pool calls and none of the membership ones; the hierarchical
//! engine overrides three of them only to keep its own wording.

use crate::server::{GrmError, GrmStats};
use agreements_flow::{AgreementMatrix, IncrementalFlow};
use agreements_sched::{
    first_binding_resource, AdmissionRequest, Allocation, AllocationSolver, BatchedAdmission,
    HierarchicalScheduler, MultiAdmission, MultiAllocation, MultiSolver, SchedError, SystemState,
};
use agreements_telemetry::{Telemetry, TelemetryEvent};

/// What the serve loop asks of its decision engine. `Send`: the core
/// that owns it is shared beyond the serve thread ([`crate::GrmCore`]).
pub(crate) trait Engine: Send {
    /// Number of principals.
    fn n(&self) -> usize;

    /// Resource lanes: the length of a valid availability report.
    fn lanes(&self) -> usize {
        1
    }

    /// Lane `lane` of the availability view, one entry per principal:
    /// what a report writes and a lease expiry zeroes.
    fn lane_mut(&mut self, lane: usize) -> &mut [f64];

    /// The engine's one pool: what a release credits, a degraded-mode
    /// grant was drawn against and `availability()` shows. An engine
    /// with a pool per resource has no such thing and refuses.
    fn pool(&mut self, refusal: &'static str) -> Result<&mut [f64], GrmError> {
        Err(GrmError::Unsupported(refusal))
    }

    /// The per-lane availability view (outer = lane, inner = principal).
    fn availability_multi(&self) -> Result<Vec<Vec<f64>>, GrmError> {
        Err(GrmError::Unsupported("availability_multi on a single-resource GRM"))
    }

    /// `UnknownLrm` unless `lrm` indexes a principal.
    fn check(&self, lrm: usize) -> Result<(), GrmError> {
        if lrm < self.n() {
            Ok(())
        } else {
            Err(GrmError::UnknownLrm(lrm))
        }
    }

    /// Decide a single-resource request and commit a grant's draws.
    fn admit(&mut self, _lrm: usize, _amount: f64) -> Result<Allocation, GrmError> {
        Err(GrmError::Unsupported(
            "single-resource request on a multi-resource GRM; use request_multi",
        ))
    }

    /// Decide a multi-resource request; a grant commits every lane or
    /// none.
    fn admit_multi(&mut self, _lrm: usize, _amounts: &[f64]) -> Result<MultiAllocation, GrmError> {
        Err(GrmError::Unsupported("multi-resource request on a single-resource GRM"))
    }

    /// Whether the serve loop should hand this engine each contiguous
    /// run of drained requests as one [`Engine::admit_run`] batch.
    fn batches(&self) -> bool {
        false
    }

    /// Decide a run of in-range requests, bit-identical to
    /// [`Engine::admit`] on each in order.
    fn admit_run(&mut self, reqs: &[AdmissionRequest]) -> Vec<Result<Allocation, GrmError>> {
        reqs.iter().map(|r| self.admit(r.requester, r.amount)).collect()
    }

    /// Set one agreement; returns the flow rows recomputed.
    fn set_agreement(&mut self, _from: usize, _to: usize, _share: f64) -> Result<usize, GrmError> {
        // A flat multi engine's lane states hold clones of the flow
        // snapshot; renegotiation would have to republish into every
        // lane atomically. Out of scope until someone needs it.
        Err(GrmError::Unsupported("set_agreement on a multi-resource GRM"))
    }

    /// Admit a new principal; returns its index.
    fn join(&mut self) -> Result<usize, GrmError> {
        Err(GrmError::Unsupported("join on a multi-resource GRM (fixed membership)"))
    }

    /// Drop every agreement of `lrm` and zero its availability.
    fn leave(&mut self, _lrm: usize) -> Result<(), GrmError> {
        Err(GrmError::Unsupported("leave on a multi-resource GRM (fixed membership)"))
    }

    /// Renegotiate one inter-group agreement; returns the coarse flow
    /// rows recomputed.
    fn set_inter(&mut self, _from: usize, _to: usize, _share: f64) -> Result<usize, GrmError> {
        Err(GrmError::Unsupported("set_inter_group on a flat multi-resource GRM"))
    }

    /// Fill in the [`GrmStats`] fields only an engine can count (its
    /// flow-row, fast-reject and executor-fallback totals).
    fn publish(&self, _stats: &mut GrmStats) {}
}

/// The guards the two flat engines run ahead of the solver, lane by
/// lane in resource order (the single-resource engine is the one-lane
/// case).
///
/// **Poisoned availability**: a non-finite or negative entry (e.g. a
/// release with non-finite draws) must keep failing requests exactly
/// as per-request `SystemState::new` validation used to.
///
/// **Capacity fast-reject**: a request exceeding the reachable capacity
/// is rejected from the *same function* the solver runs
/// ([`agreements_sched::admission_bound`]: one definition, one
/// summation order, one slack constant), skipping LP construction. Only
/// definite rejections short-cut — zero and invalid amounts, which the
/// solver answers first, fall through to it, and the check runs only
/// when every amount is valid (an invalid amount must surface as the
/// lane-ordered validation error the solver would report, not as a
/// later lane's capacity verdict) — so the decision and the error
/// payload are the ones the solver would have produced.
#[derive(Default)]
struct FastReject {
    /// Bound scratch.
    bound: Vec<f64>,
    count: u64,
    telemetry: Telemetry,
}

impl FastReject {
    fn screen(
        &mut self,
        states: &[SystemState],
        requester: usize,
        amounts: &[f64],
        names: Option<&[&'static str]>,
    ) -> Result<(), GrmError> {
        if let Some(&bad) =
            states.iter().flat_map(|st| &st.availability).find(|v| !v.is_finite() || **v < 0.0)
        {
            return Err(GrmError::Sched(SchedError::InvalidRequest { amount: bad }));
        }
        if amounts.len() == states.len() && amounts.iter().all(|a| a.is_finite() && *a >= 0.0) {
            if let Some((lane, reachable)) =
                first_binding_resource(states, requester, amounts, &mut self.bound)
            {
                let (requested, resource) = (amounts[lane], names.map(|names| names[lane]));
                self.count += 1;
                self.telemetry.add("grm.fast_rejects", 1);
                self.telemetry.record_with(|| TelemetryEvent::FastReject {
                    requester,
                    requested,
                    bound: reachable,
                    clamped: false,
                });
                return Err(GrmError::Sched(SchedError::InsufficientCapacity {
                    requester,
                    capacity: reachable,
                    requested,
                    resource,
                }));
            }
        }
        Ok(())
    }
}

/// The flat LP engine. Three hot-path properties hold relative to a
/// recompute-and-clone loop, none moving a grant decision by a bit:
///
/// - **Incremental flow**: `set_agreement` repairs only the dirty rows
///   of the flow table through [`IncrementalFlow`] (join/leave still
///   full-recompute); the repaired table is bit-identical to a full
///   recompute by construction.
/// - **Zero-clone requests**: the [`SystemState`] is persistent — the
///   flow snapshot is shared by `Arc` and the availability vector *is*
///   the live view, so a request allocates nothing beyond the returned
///   draw vector, and the solver's skeleton check is one pointer
///   compare.
/// - **Capacity fast-reject**: see [`FastReject`], run over the one lane.
struct FlatEngine {
    incflow: IncrementalFlow,
    /// Persistent request state: shared flow snapshot + live
    /// availability (`absolute` stays `None` for the centralized GRM).
    state: SystemState,
    /// Persistent solver (cached skeleton + workspace); every grant is
    /// bit-identical to the stateless LP policy, which is what the
    /// adapter tests assert.
    policy: AllocationSolver,
    fast: FastReject,
}

/// The flat LP engine over `agreements` at transitivity `level`.
pub(crate) fn flat(
    agreements: AgreementMatrix,
    level: usize,
    telemetry: Telemetry,
) -> Box<dyn Engine> {
    let n = agreements.n();
    let mut incflow = IncrementalFlow::new(agreements, level);
    incflow.set_telemetry(telemetry.clone());
    let state =
        SystemState { flow: incflow.snapshot(), absolute: None, availability: vec![0.0; n] };
    let mut policy = AllocationSolver::reduced();
    policy.set_telemetry(telemetry.clone());
    Box::new(FlatEngine {
        incflow,
        state,
        policy,
        fast: FastReject { telemetry, ..FastReject::default() },
    })
}

impl Engine for FlatEngine {
    fn n(&self) -> usize {
        self.state.n()
    }

    fn lane_mut(&mut self, _lane: usize) -> &mut [f64] {
        &mut self.state.availability
    }

    fn pool(&mut self, _refusal: &'static str) -> Result<&mut [f64], GrmError> {
        Ok(&mut self.state.availability)
    }

    fn admit(&mut self, lrm: usize, amount: f64) -> Result<Allocation, GrmError> {
        self.check(lrm)?;
        self.fast.screen(std::slice::from_ref(&self.state), lrm, &[amount], None)?;
        let alloc = self.policy.allocate(&self.state, lrm, amount).map_err(GrmError::Sched)?;
        self.state.apply(&alloc).map_err(GrmError::Sched)?;
        Ok(alloc)
    }

    fn set_agreement(&mut self, from: usize, to: usize, share: f64) -> Result<usize, GrmError> {
        let rows = self.incflow.set(from, to, share).map_err(GrmError::Flow)?;
        // Republish the flow snapshot: requests issued before the next
        // mutation all share the new `Arc`.
        self.state.flow = self.incflow.snapshot();
        Ok(rows)
    }

    fn join(&mut self) -> Result<usize, GrmError> {
        let newcomer = self.incflow.grow();
        self.state.availability.push(0.0);
        self.state.flow = self.incflow.snapshot();
        Ok(newcomer)
    }

    fn leave(&mut self, lrm: usize) -> Result<(), GrmError> {
        self.check(lrm)?;
        self.incflow.isolate(lrm).map_err(GrmError::Flow)?;
        self.state.availability[lrm] = 0.0;
        self.state.flow = self.incflow.snapshot();
        Ok(())
    }

    fn set_inter(&mut self, _from: usize, _to: usize, _share: f64) -> Result<usize, GrmError> {
        Err(GrmError::Unsupported("set_inter_group on a flat GRM"))
    }

    fn publish(&self, stats: &mut GrmStats) {
        stats.flow_rows_recomputed = self.incflow.rows_recomputed() as u64;
        stats.fast_rejects = self.fast.count;
    }
}

/// A [`HierarchicalScheduler`] behind the batched admission front door:
/// requests drained in one wakeup are admitted as a batch
/// (bit-identical to one-by-one), and the front door commits the draws
/// itself. The partition is fixed at construction.
struct HierEngine {
    front: BatchedAdmission,
    availability: Vec<f64>,
    telemetry: Telemetry,
    /// Last executor-fallback total mirrored into the telemetry plane
    /// (the executor keeps a cumulative counter; telemetry counters are
    /// additive, so the engine publishes deltas).
    last_fallbacks: u64,
}

/// The hierarchical engine over a prebuilt scheduler.
pub(crate) fn hierarchical(sched: HierarchicalScheduler, telemetry: Telemetry) -> Box<dyn Engine> {
    let availability = vec![0.0; sched.num_principals()];
    let mut front = BatchedAdmission::new(sched);
    front.set_telemetry(telemetry.clone());
    Box::new(HierEngine { front, availability, telemetry, last_fallbacks: 0 })
}

impl HierEngine {
    /// Mirror the executor's cumulative sequential-fallback counter into
    /// the telemetry plane as increments. Guarded on `enabled()` so the
    /// disabled plane keeps its one-branch cost (no atomic load).
    fn sync_executor_fallbacks(&mut self) {
        if !self.telemetry.enabled() {
            return;
        }
        let total = self.front.scheduler().executor_fallbacks();
        let delta = total.saturating_sub(self.last_fallbacks);
        if delta > 0 {
            self.telemetry.add("grm.executor_fallbacks_sequential", delta);
            self.last_fallbacks = total;
        }
    }
}

impl Engine for HierEngine {
    fn n(&self) -> usize {
        self.availability.len()
    }

    fn lane_mut(&mut self, _lane: usize) -> &mut [f64] {
        &mut self.availability
    }

    fn pool(&mut self, _refusal: &'static str) -> Result<&mut [f64], GrmError> {
        Ok(&mut self.availability)
    }

    fn admit(&mut self, lrm: usize, amount: f64) -> Result<Allocation, GrmError> {
        self.check(lrm)?;
        let res = self.front.admit_one(&mut self.availability, lrm, amount);
        self.sync_executor_fallbacks();
        res.map_err(GrmError::Sched)
    }

    fn batches(&self) -> bool {
        true
    }

    fn admit_run(&mut self, reqs: &[AdmissionRequest]) -> Vec<Result<Allocation, GrmError>> {
        let decisions = self.front.admit_batch(&mut self.availability, reqs);
        self.sync_executor_fallbacks();
        decisions.into_iter().map(|d| d.map_err(GrmError::Sched)).collect()
    }

    fn set_agreement(&mut self, _from: usize, _to: usize, _share: f64) -> Result<usize, GrmError> {
        Err(GrmError::Unsupported(
            "set_agreement on a hierarchical GRM; renegotiate with set_inter_group",
        ))
    }

    fn join(&mut self) -> Result<usize, GrmError> {
        Err(GrmError::Unsupported("join on a hierarchical GRM (fixed partition)"))
    }

    fn leave(&mut self, _lrm: usize) -> Result<(), GrmError> {
        Err(GrmError::Unsupported("leave on a hierarchical GRM (fixed partition)"))
    }

    fn set_inter(&mut self, from: usize, to: usize, share: f64) -> Result<usize, GrmError> {
        self.front.set_inter(from, to, share).map_err(GrmError::Sched)
    }

    fn publish(&self, stats: &mut GrmStats) {
        stats.executor_fallbacks_sequential = self.front.scheduler().executor_fallbacks();
    }
}

/// One warm LP lane per resource over a shared agreement economy (the
/// agreements govern the principals, not any single resource): every
/// lane's [`SystemState`] shares one flow snapshot and owns its
/// availability vector.
struct MultiFlatEngine {
    n: usize,
    states: Vec<SystemState>,
    solver: MultiSolver,
    fast: FastReject,
}

/// The flat multi-resource engine: one lane per resource name.
pub(crate) fn multi_flat(
    names: Vec<&'static str>,
    agreements: AgreementMatrix,
    level: usize,
    telemetry: Telemetry,
) -> Box<dyn Engine> {
    let n = agreements.n();
    let flow = IncrementalFlow::new(agreements, level).snapshot();
    let states = names
        .iter()
        .map(|_| SystemState { flow: flow.clone(), absolute: None, availability: vec![0.0; n] })
        .collect();
    let mut solver = MultiSolver::reduced(names);
    solver.set_telemetry(telemetry.clone());
    Box::new(MultiFlatEngine {
        n,
        states,
        solver,
        fast: FastReject { telemetry, ..FastReject::default() },
    })
}

impl Engine for MultiFlatEngine {
    fn n(&self) -> usize {
        self.n
    }

    fn lanes(&self) -> usize {
        self.states.len()
    }

    fn lane_mut(&mut self, lane: usize) -> &mut [f64] {
        &mut self.states[lane].availability
    }

    fn availability_multi(&self) -> Result<Vec<Vec<f64>>, GrmError> {
        Ok(self.states.iter().map(|st| st.availability.clone()).collect())
    }

    fn admit_multi(&mut self, lrm: usize, amounts: &[f64]) -> Result<MultiAllocation, GrmError> {
        self.check(lrm)?;
        self.fast.screen(&self.states, lrm, amounts, Some(self.solver.names()))?;
        let alloc = self.solver.allocate(&self.states, lrm, amounts).map_err(GrmError::Sched)?;
        for (st, lane) in self.states.iter_mut().zip(&alloc.lanes) {
            st.apply(lane).map_err(GrmError::Sched)?;
        }
        Ok(alloc)
    }

    fn publish(&self, stats: &mut GrmStats) {
        stats.fast_rejects = self.fast.count;
    }
}

/// One [`HierarchicalScheduler`] per resource behind [`MultiAdmission`]
/// (the lanes share one partition by construction), which carries its
/// own guards and commits every lane or none.
struct MultiHierEngine {
    front: MultiAdmission,
    /// Per-lane availability (outer = resource, inner = principal).
    availability: Vec<Vec<f64>>,
}

/// The hierarchical multi-resource engine over a prebuilt front door.
pub(crate) fn multi_hierarchical(
    mut front: MultiAdmission,
    telemetry: Telemetry,
) -> Box<dyn Engine> {
    front.set_telemetry(telemetry);
    let availability = vec![vec![0.0; front.num_principals()]; front.num_resources()];
    Box::new(MultiHierEngine { front, availability })
}

impl Engine for MultiHierEngine {
    fn n(&self) -> usize {
        self.front.num_principals()
    }

    fn lanes(&self) -> usize {
        self.availability.len()
    }

    fn lane_mut(&mut self, lane: usize) -> &mut [f64] {
        &mut self.availability[lane]
    }

    fn availability_multi(&self) -> Result<Vec<Vec<f64>>, GrmError> {
        Ok(self.availability.clone())
    }

    fn admit_multi(&mut self, lrm: usize, amounts: &[f64]) -> Result<MultiAllocation, GrmError> {
        self.check(lrm)?;
        self.front.admit_one(&mut self.availability, lrm, amounts).map_err(GrmError::Sched)
    }

    /// Renegotiation applies to every lane: the inter-group agreement
    /// is between principals, not resources.
    fn set_inter(&mut self, from: usize, to: usize, share: f64) -> Result<usize, GrmError> {
        self.front.set_inter(from, to, share).map_err(GrmError::Sched)
    }
}
