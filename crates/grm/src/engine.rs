//! The decision engines behind the GRM core (DESIGN.md §18).
//!
//! A server runs exactly one [`Engine`]: flat or hierarchical, each over
//! k ≥ 1 resource lanes. A single-resource GRM is the one-lane case, a
//! multi-resource GRM one lane per named resource; the agreements govern
//! the principals, not any one resource (paper §3.2), so every lane is
//! decided over the same agreement graph and a grant commits every lane
//! or none. The shell in [`crate::server`] owns everything that is the
//! same whichever engine decides — the lease clock, the books, the dedup
//! window, telemetry, and the refusal of single-pool calls on more than
//! one lane — and an engine owns only the state it consults for a
//! decision: its per-lane availability, its solvers or admission front
//! door and, for the flat engine alone, the incremental flow table.
//!
//! The two engines differ only in how agreements are renegotiated: the
//! flat engine edits principal agreements and membership, the
//! hierarchical one edits inter-group agreements over a fixed partition.
//! Each refuses the other's operations with [`GrmError::Unsupported`].

use crate::server::{GrmError, GrmStats};
use agreements_flow::{AgreementMatrix, IncrementalFlow};
use agreements_sched::{
    first_binding_resource, Allocation, AllocationSolver, LaneGrant, LaneRequest, MultiAdmission,
    MultiAllocation, SchedError, SystemState,
};
use agreements_telemetry::{Telemetry, TelemetryEvent};

/// An in-range request of a run, as the core hands it to a batching
/// engine: the requester and one amount per lane, borrowed from its call.
#[derive(Clone, Copy)]
pub(crate) struct Ask<'a> {
    pub(crate) lrm: usize,
    pub(crate) amounts: &'a [f64],
}

impl LaneRequest for Ask<'_> {
    fn requester(&self) -> usize {
        self.lrm
    }

    fn amounts(&self) -> &[f64] {
        self.amounts
    }
}

/// What the core asks of its decision engine. `Send`: the core that owns
/// it executes on whichever thread holds its lock ([`crate::GrmCore`]).
pub(crate) trait Engine: Send {
    /// Number of principals.
    fn n(&self) -> usize;

    /// Resource lanes: the length of a valid availability report.
    fn lanes(&self) -> usize;

    /// Lane `lane` of the availability view, one entry per principal.
    fn lane(&self, lane: usize) -> &[f64];

    /// Lane `lane` of the availability view, mutably: what a report
    /// writes, a lease expiry zeroes and, on one lane, a release credits.
    fn lane_mut(&mut self, lane: usize) -> &mut [f64];

    /// `UnknownLrm` unless `lrm` indexes a principal.
    fn check(&self, lrm: usize) -> Result<(), GrmError> {
        if lrm < self.n() {
            Ok(())
        } else {
            Err(GrmError::UnknownLrm(lrm))
        }
    }

    /// Decide a request on a one-lane engine and commit a grant's draws.
    fn admit(&mut self, lrm: usize, amount: f64) -> Result<Allocation, GrmError>;

    /// Decide a request with one amount per lane; a grant commits every
    /// lane or none.
    fn admit_multi(&mut self, lrm: usize, amounts: &[f64]) -> Result<MultiAllocation, GrmError>;

    /// Whether the core should hand this engine each contiguous
    /// run of requests as one [`Engine::admit_run`] (or
    /// [`Engine::admit_run_multi`]) batch.
    fn batches(&self) -> bool {
        false
    }

    /// Decide a run of in-range requests on a one-lane engine,
    /// bit-identical to [`Engine::admit`] on each in order.
    fn admit_run(&mut self, run: &[Ask]) -> Vec<Result<Allocation, GrmError>> {
        run.iter().map(|ask| self.admit(ask.lrm, ask.amounts[0])).collect()
    }

    /// Decide a run of in-range requests, bit-identical to
    /// [`Engine::admit_multi`] on each in order.
    fn admit_run_multi(&mut self, run: &[Ask]) -> Vec<Result<MultiAllocation, GrmError>> {
        run.iter().map(|ask| self.admit_multi(ask.lrm, ask.amounts)).collect()
    }

    /// Set one agreement; returns the flow rows recomputed.
    fn set_agreement(&mut self, from: usize, to: usize, share: f64) -> Result<usize, GrmError>;

    /// Admit a new principal; returns its index.
    fn join(&mut self) -> Result<usize, GrmError>;

    /// Drop every agreement of `lrm` and zero its availability in every
    /// lane.
    fn leave(&mut self, lrm: usize) -> Result<(), GrmError>;

    /// Renegotiate one inter-group agreement; returns the coarse flow
    /// rows recomputed.
    fn set_inter(&mut self, from: usize, to: usize, share: f64) -> Result<usize, GrmError>;

    /// Fill in the [`GrmStats`] fields only an engine can count (its
    /// flow-row, fast-reject and executor-fallback totals).
    fn publish(&self, stats: &mut GrmStats);
}

/// The guards the flat engine runs ahead of the solvers, lane by lane in
/// resource order.
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
        names: &[&'static str],
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
                let requested = amounts[lane];
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
                    resource: names.get(lane).copied(),
                }));
            }
        }
        Ok(())
    }
}

/// The flat LP engine: one warm solver per lane over one agreement
/// graph. Three hot-path properties hold relative to a
/// recompute-and-clone loop, none moving a grant decision by a bit:
///
/// - **Incremental flow**: `set_agreement` repairs only the dirty rows
///   of the one flow table through [`IncrementalFlow`] (join/leave still
///   full-recompute); the repaired table is bit-identical to a full
///   recompute by construction. Every lane's state shares the table's
///   snapshot by `Arc`, republished after each edit.
/// - **Zero-clone requests**: each lane's [`SystemState`] is persistent
///   — the availability vector *is* the live view, so a request
///   allocates nothing beyond the returned draw vectors, and each
///   solver's inflow-index check is one pointer compare.
/// - **Capacity fast-reject**: see [`FastReject`].
struct FlatEngine {
    incflow: IncrementalFlow,
    /// Lane names, resource order; empty for the one unnamed lane of a
    /// single-resource GRM, whose rejections carry no resource.
    names: Vec<&'static str>,
    /// Per lane: the shared flow snapshot and the lane's live
    /// availability (`absolute` stays `None` for the centralized GRM).
    states: Vec<SystemState>,
    /// Per lane: a persistent solver (inflow index + workspace); every
    /// grant is bit-identical to the stateless LP policy, which is what
    /// the adapter tests assert.
    solvers: Vec<AllocationSolver>,
    fast: FastReject,
}

/// The flat LP engine over `agreements` at transitivity `level`, one lane
/// per name (one unnamed lane when `names` is empty).
pub(crate) fn flat(
    names: Vec<&'static str>,
    agreements: AgreementMatrix,
    level: usize,
    telemetry: Telemetry,
) -> Box<dyn Engine> {
    let n = agreements.n();
    let lanes = names.len().max(1);
    let mut incflow = IncrementalFlow::new(agreements, level);
    incflow.set_telemetry(telemetry.clone());
    let flow = incflow.snapshot();
    let states = (0..lanes)
        .map(|_| SystemState { flow: flow.clone(), absolute: None, availability: vec![0.0; n] })
        .collect();
    let solvers = (0..lanes)
        .map(|_| {
            let mut solver = AllocationSolver::reduced();
            solver.set_telemetry(telemetry.clone());
            solver
        })
        .collect();
    Box::new(FlatEngine {
        incflow,
        names,
        states,
        solvers,
        fast: FastReject { telemetry, ..FastReject::default() },
    })
}

impl FlatEngine {
    /// Decide a request in either grant shape: screen every lane, solve
    /// lane by lane in resource order (the first refusal is the verdict),
    /// and commit every lane only when all admit.
    fn decide<G: LaneGrant>(&mut self, lrm: usize, amounts: &[f64]) -> Result<G, GrmError> {
        self.check(lrm)?;
        self.fast.screen(&self.states, lrm, amounts, &self.names)?;
        let k = self.states.len();
        if amounts.len() != k {
            let got = amounts.len();
            return Err(GrmError::Sched(SchedError::DimensionMismatch { expected: k, got }));
        }
        let names = &self.names;
        let lanes = self.states.iter().zip(&mut self.solvers).zip(amounts).enumerate();
        let grant = G::from_lanes(lanes.map(|(r, ((state, solver), &x))| {
            solver.allocate(state, lrm, x).map_err(|e| e.tagged(names.get(r).copied()))
        }))
        .map_err(GrmError::Sched)?;
        for (state, lane) in self.states.iter_mut().zip(grant.lanes()) {
            state.apply(lane).map_err(GrmError::Sched)?;
        }
        Ok(grant)
    }

    /// Hand every lane the flow table's current snapshot: requests
    /// decided before the next edit all share the new `Arc`.
    fn republish(&mut self) {
        let flow = self.incflow.snapshot();
        for state in &mut self.states {
            state.flow = flow.clone();
        }
    }
}

impl Engine for FlatEngine {
    fn n(&self) -> usize {
        self.states[0].n()
    }

    fn lanes(&self) -> usize {
        self.states.len()
    }

    fn lane(&self, lane: usize) -> &[f64] {
        &self.states[lane].availability
    }

    fn lane_mut(&mut self, lane: usize) -> &mut [f64] {
        &mut self.states[lane].availability
    }

    fn admit(&mut self, lrm: usize, amount: f64) -> Result<Allocation, GrmError> {
        self.decide(lrm, std::slice::from_ref(&amount))
    }

    fn admit_multi(&mut self, lrm: usize, amounts: &[f64]) -> Result<MultiAllocation, GrmError> {
        self.decide(lrm, amounts)
    }

    fn set_agreement(&mut self, from: usize, to: usize, share: f64) -> Result<usize, GrmError> {
        let rows = self.incflow.set(from, to, share).map_err(GrmError::Flow)?;
        self.republish();
        Ok(rows)
    }

    fn join(&mut self) -> Result<usize, GrmError> {
        let newcomer = self.incflow.grow();
        for state in &mut self.states {
            state.availability.push(0.0);
        }
        self.republish();
        Ok(newcomer)
    }

    fn leave(&mut self, lrm: usize) -> Result<(), GrmError> {
        self.check(lrm)?;
        self.incflow.isolate(lrm).map_err(GrmError::Flow)?;
        for state in &mut self.states {
            state.availability[lrm] = 0.0;
        }
        self.republish();
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

/// One [`agreements_sched::HierarchicalScheduler`] per lane behind the
/// [`MultiAdmission`] front door (the lanes share one partition, fixed at
/// construction): contiguous runs of requests are admitted as one batch
/// through its wave loop (bit-identical to one by one), and the front
/// door commits the draws itself.
struct HierEngine {
    front: MultiAdmission,
    /// Per-lane availability (outer = lane, inner = principal).
    availability: Vec<Vec<f64>>,
    telemetry: Telemetry,
    /// Last executor-fallback total mirrored into the telemetry plane
    /// (the executors keep cumulative counters; telemetry counters are
    /// additive, so the engine publishes deltas).
    last_fallbacks: u64,
}

/// The hierarchical engine over a prebuilt front door.
pub(crate) fn hierarchical(mut front: MultiAdmission, telemetry: Telemetry) -> Box<dyn Engine> {
    front.set_telemetry(telemetry.clone());
    let availability = vec![vec![0.0; front.num_principals()]; front.num_resources()];
    Box::new(HierEngine { front, availability, telemetry, last_fallbacks: 0 })
}

impl HierEngine {
    /// The lanes' sequential-fallback total.
    fn executor_fallbacks(&self) -> u64 {
        (0..self.front.num_resources()).map(|r| self.front.lane(r).executor_fallbacks()).sum()
    }

    /// Mirror the executors' cumulative sequential-fallback counter into
    /// the telemetry plane as increments. Guarded on `enabled()` so the
    /// disabled plane keeps its one-branch cost (no atomic load).
    fn sync_executor_fallbacks(&mut self) {
        if !self.telemetry.enabled() {
            return;
        }
        let total = self.executor_fallbacks();
        let delta = total.saturating_sub(self.last_fallbacks);
        if delta > 0 {
            self.telemetry.add("grm.executor_fallbacks_sequential", delta);
            self.last_fallbacks = total;
        }
    }

    /// Decide one request in either grant shape.
    fn decide<G: LaneGrant>(&mut self, lrm: usize, amounts: &[f64]) -> Result<G, GrmError> {
        self.check(lrm)?;
        let res = self.front.decide(&mut self.availability, lrm, amounts);
        self.sync_executor_fallbacks();
        res.map_err(GrmError::Sched)
    }

    /// Decide a run in either grant shape, through the wave loop.
    fn decide_run<G: LaneGrant>(&mut self, run: &[Ask]) -> Vec<Result<G, GrmError>> {
        let decisions = self.front.decide_run(&mut self.availability, run);
        self.sync_executor_fallbacks();
        decisions.into_iter().map(|d| d.map_err(GrmError::Sched)).collect()
    }
}

impl Engine for HierEngine {
    fn n(&self) -> usize {
        self.front.num_principals()
    }

    fn lanes(&self) -> usize {
        self.availability.len()
    }

    fn lane(&self, lane: usize) -> &[f64] {
        &self.availability[lane]
    }

    fn lane_mut(&mut self, lane: usize) -> &mut [f64] {
        &mut self.availability[lane]
    }

    fn admit(&mut self, lrm: usize, amount: f64) -> Result<Allocation, GrmError> {
        self.decide(lrm, std::slice::from_ref(&amount))
    }

    fn admit_multi(&mut self, lrm: usize, amounts: &[f64]) -> Result<MultiAllocation, GrmError> {
        self.decide(lrm, amounts)
    }

    fn batches(&self) -> bool {
        true
    }

    fn admit_run(&mut self, run: &[Ask]) -> Vec<Result<Allocation, GrmError>> {
        self.decide_run(run)
    }

    fn admit_run_multi(&mut self, run: &[Ask]) -> Vec<Result<MultiAllocation, GrmError>> {
        self.decide_run(run)
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

    /// Renegotiation applies to every lane: the inter-group agreement
    /// is between principals, not resources.
    fn set_inter(&mut self, from: usize, to: usize, share: f64) -> Result<usize, GrmError> {
        self.front.set_inter(from, to, share).map_err(GrmError::Sched)
    }

    fn publish(&self, stats: &mut GrmStats) {
        stats.executor_fallbacks_sequential = self.executor_fallbacks();
    }
}
