//! Persistent shard executor: long-lived worker threads owning warm fine
//! solvers (PR 6 tentpole).
//!
//! The PR 5 measurement (EXPERIMENTS.md, "Historical per-PR
//! measurements") showed the old parallel mode losing everywhere
//! (29.8k vs 120.2k alloc/s at n = 128): it spawned a fresh
//! `crossbeam::thread::scope` per allocation, so every fine solve paid
//! thread creation, stack setup, and a cold `GroupSolver`. This module
//! replaces that with a shard-manager/worker split:
//!
//! - **Worker ownership.** Each worker thread owns the `GroupSolver`s
//!   of the groups hashed onto it (`group % workers`), so their simplex
//!   workspaces and cached skeletons stay warm across requests. Groups
//!   are disjoint and a group is always served by the same worker, so no
//!   solver is ever shared — no locks on the solve path.
//! - **Channel protocol.** The coordinator sends `Job`s over an
//!   unbounded channel per worker and collects replies on a per-fan-out
//!   channel keyed by slot, merging results **in input order** — the
//!   fixed ascending merge order that keeps parallel output bit-identical
//!   to sequential.
//! - **Shutdown/respawn.** Dropping the executor sends `Shutdown` to every
//!   worker and joins it. If a worker dies early (a panic in a solve),
//!   the next dispatch to it observes the closed channel — crossbeam's
//!   `SendError` hands the job back — respawns the worker, and resends.
//! - **Break-even fallback.** `ShardExecutor::auto` measures, at
//!   construction, the channel round-trip cost and one warm fine-solve at
//!   the mean group size, and `ShardExecutor::should_parallelize` only
//!   says yes when the solve time saved by fanning out exceeds the
//!   dispatch tax. On a 1-core host `auto` refuses to build an executor
//!   at all, so sequential hosts never regress.
//!
//! The batched-run protocol (`GroupRun` → `RunOutcome`) is the
//! executor half of the wave loop,
//! [`crate::multires::MultiAdmission::decide_run`]: a worker replays a
//! slot-ordered run of home-group requests against a private copy of its
//! members' availability, stopping at the first request its group cannot
//! cover (the coordinator finishes that one on the coarse path). Every
//! arithmetic step mirrors [`crate::hierarchy::HierarchicalScheduler::allocate`]
//! exactly — same fit test, same min-clamp, same `(v - d).max(0.0)`
//! commit expression — which is what makes batched admission bit-identical
//! to one-by-one submission (property-tested in `tests/proptest_batch.rs`).

use crate::error::SchedError;
use crate::lp_model::DRAW_EPS;
use agreements_lp::{solve_bounded_with, LpError, SimplexOptions, SimplexWorkspace};
use agreements_telemetry::{HistKind, Telemetry};
use crossbeam::channel::{self, Receiver, Sender};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// A per-group fine solver: persistent simplex workspace plus the cached
/// standard form of the group's min-max refinement LP
///
/// ```text
/// min θ  s.t.  Σ_i d_i = amount,   d_i − θ ≤ 0,   0 ≤ d_i ≤ avail_i
/// ```
///
/// Column layout (the `AllocationSolver` skeleton convention): one column
/// per member with positive availability (ascending member order), then
/// θ, then one slack per drop row. Zero-availability members are
/// substituted out, so the skeleton is keyed on that pattern and rebuilt
/// only when it changes. Every solve is a cold start, which is what
/// makes parallel and sequential refinement bit-identical.
pub(crate) struct GroupSolver {
    ws: SimplexWorkspace,
    /// Zero-availability pattern the skeleton was built for.
    fixed: Vec<bool>,
    /// Standard-form column of each member's draw variable.
    col_of: Vec<Option<usize>>,
    a: Vec<Vec<f64>>,
    b: Vec<f64>,
    c: Vec<f64>,
    upper: Vec<f64>,
    num_structural: usize,
    built: bool,
}

impl GroupSolver {
    pub(crate) fn new() -> Self {
        GroupSolver {
            ws: SimplexWorkspace::new(),
            fixed: Vec::new(),
            col_of: Vec::new(),
            a: Vec::new(),
            b: Vec::new(),
            c: Vec::new(),
            upper: Vec::new(),
            num_structural: 0,
            built: false,
        }
    }

    fn skeleton_is_current(&self, mavail: &[f64]) -> bool {
        self.built
            && self.fixed.len() == mavail.len()
            && mavail.iter().zip(&self.fixed).all(|(&v, &f)| f == (v.max(0.0) == 0.0))
    }

    fn rebuild(&mut self, mavail: &[f64]) {
        let m = mavail.len();
        self.fixed.clear();
        self.col_of.clear();
        let mut col = 0usize;
        for &v in mavail {
            let is_fixed = v.max(0.0) == 0.0;
            self.fixed.push(is_fixed);
            if is_fixed {
                self.col_of.push(None);
            } else {
                self.col_of.push(Some(col));
                col += 1;
            }
        }
        let k = col;
        let theta_col = k;
        let num_structural = k + 1;
        let rows = 1 + k;
        let total = num_structural + k;

        self.a.resize_with(rows, Vec::new);
        self.a.truncate(rows);
        for row in &mut self.a {
            row.clear();
            row.resize(total, 0.0);
        }
        self.b.clear();
        self.b.resize(rows, 0.0);
        // Row 0: Σ d_i = amount (rhs rewritten per solve).
        for i in 0..m {
            if let Some(c) = self.col_of[i] {
                self.a[0][c] = 1.0;
            }
        }
        // Rows 1..=k: d_t − θ + s_t = 0 for each active member t.
        for t in 0..k {
            self.a[1 + t][t] = 1.0;
            self.a[1 + t][theta_col] = -1.0;
            self.a[1 + t][num_structural + t] = 1.0;
        }
        self.c.clear();
        self.c.resize(total, 0.0);
        self.c[theta_col] = 1.0;
        self.upper.clear();
        self.upper.resize(total, f64::INFINITY);
        self.num_structural = num_structural;
        self.built = true;
    }

    /// Solve the refinement LP; returns per-member draws (group-local
    /// order), with sub-`DRAW_EPS` dust zeroed like the flat path.
    pub(crate) fn solve(
        &mut self,
        mavail: &[f64],
        amount: f64,
        opts: &SimplexOptions,
    ) -> Result<Vec<f64>, LpError> {
        if !self.skeleton_is_current(mavail) {
            self.rebuild(mavail);
        }
        self.b[0] = amount;
        for (i, &v) in mavail.iter().enumerate() {
            if let Some(c) = self.col_of[i] {
                self.upper[c] = v.max(0.0);
            }
        }
        let sol = solve_bounded_with(
            &mut self.ws,
            &self.a,
            &self.b,
            &self.c,
            &self.upper,
            self.num_structural,
            opts,
        )?;
        Ok((0..mavail.len())
            .map(|i| {
                self.col_of[i].map_or(0.0, |c| {
                    let d = sol.x[c];
                    if d < DRAW_EPS {
                        0.0
                    } else {
                        d
                    }
                })
            })
            .collect())
    }
}

/// One queued allocation request inside a [`GroupRun`]: `slot` is its
/// position in the original admission batch (global decision order),
/// `amount` the validated request size.
pub(crate) struct RunRequest {
    pub(crate) slot: usize,
    pub(crate) amount: f64,
}

/// A slot-ordered run of home-group requests for one group, executed by
/// the group's worker against a private copy of the members' current
/// availability (`start`, in member order). `first_member` rides along so
/// the worker can produce the exact `InsufficientCapacity` payload the
/// sequential path would.
pub(crate) struct GroupRun {
    pub(crate) group: usize,
    pub(crate) first_member: usize,
    pub(crate) start: Vec<f64>,
    pub(crate) reqs: Vec<RunRequest>,
}

/// One decided step of a run: per-member draws (group-local order) plus
/// θ on success, or the allocation error. Errors do not advance the
/// worker's availability copy — exactly like a rejected request leaves
/// global state untouched.
pub(crate) struct RunStep {
    pub(crate) slot: usize,
    pub(crate) result: Result<(Vec<f64>, f64), SchedError>,
}

/// Result of executing a [`GroupRun`]: the decided steps in slot order,
/// and the slot of the first request the group could not cover on its
/// own, if any (the run stops there; later slots are left for the next
/// wave).
pub(crate) struct RunOutcome {
    pub(crate) group: usize,
    pub(crate) steps: Vec<RunStep>,
    pub(crate) stalled_at: Option<usize>,
}

/// Wire protocol between the coordinator and a worker thread.
enum Job {
    /// One fine refinement solve (the coarse-path fan-out).
    Solve {
        slot: usize,
        group: usize,
        mavail: Vec<f64>,
        amount: f64,
        reply: Sender<(usize, Result<Vec<f64>, LpError>)>,
    },
    /// A batched home-group run (the admission front door).
    Run { slot: usize, run: GroupRun, reply: Sender<(usize, RunOutcome)> },
    /// Round-trip probe used by break-even calibration.
    Ping { reply: Sender<()> },
    /// Swap the worker's telemetry plane.
    Configure { telemetry: Telemetry },
    /// Exit the worker loop.
    Shutdown,
    /// Test-only: panic the worker to exercise respawn.
    #[cfg(test)]
    Crash,
}

/// Counters shared between the executor and the scheduler that owns it;
/// surfaced through `GrmStats` as `executor_fallbacks_sequential`.
#[derive(Debug, Default)]
pub struct ExecutorStats {
    fallbacks_sequential: AtomicU64,
    parallel_fanouts: AtomicU64,
}

impl ExecutorStats {
    /// Times a parallel-capable scheduler chose the sequential path
    /// because the fan-out was below break-even (or no executor exists).
    pub fn fallbacks_sequential(&self) -> u64 {
        self.fallbacks_sequential.load(Ordering::Relaxed)
    }

    /// Times work was actually fanned out to the workers.
    pub fn parallel_fanouts(&self) -> u64 {
        self.parallel_fanouts.load(Ordering::Relaxed)
    }

    pub(crate) fn note_fallback(&self) {
        self.fallbacks_sequential.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_fanout(&self) {
        self.parallel_fanouts.fetch_add(1, Ordering::Relaxed);
    }
}

struct WorkerLink {
    tx: Sender<Job>,
    join: Option<JoinHandle<()>>,
}

/// The persistent shard executor (see module docs). Constructed in
/// *forced* mode ([`ShardExecutor::force`], always fans out, for tests and
/// explicit opt-in) or *auto* mode ([`ShardExecutor::auto`], calibrated
/// break-even gate, refuses to build on a 1-core host).
pub(crate) struct ShardExecutor {
    workers: Vec<Mutex<WorkerLink>>,
    opts: SimplexOptions,
    telemetry: Mutex<Telemetry>,
    stats: Arc<ExecutorStats>,
    /// Whether `should_parallelize` applies the measured break-even gate.
    gated: bool,
    /// Measured cost of one job dispatch + reply (channel round trip).
    dispatch_ns: u64,
    /// Measured cost of one warm fine solve at the mean group size.
    solve_ns: u64,
}

fn available_cores() -> usize {
    std::thread::available_parallelism().map(|v| v.get()).unwrap_or(1)
}

fn spawn_worker(
    index: usize,
    opts: SimplexOptions,
    telemetry: Telemetry,
) -> (Sender<Job>, JoinHandle<()>) {
    let (tx, rx) = channel::unbounded();
    let handle = std::thread::Builder::new()
        .name(format!("shard-worker-{index}"))
        .spawn(move || worker_loop(rx, opts, telemetry))
        .expect("spawn shard worker");
    (tx, handle)
}

fn worker_loop(rx: Receiver<Job>, opts: SimplexOptions, mut telemetry: Telemetry) {
    // Warm solvers for every group hashed onto this worker, keyed by
    // group index. Built lazily; skeletons persist across requests.
    let mut solvers: HashMap<usize, GroupSolver> = HashMap::new();
    for job in rx.iter() {
        match job {
            Job::Solve { slot, group, mavail, amount, reply } => {
                telemetry.add("hier.fine_solves", 1);
                let span = telemetry.start();
                let solver = solvers.entry(group).or_insert_with(GroupSolver::new);
                let result = solver.solve(&mavail, amount, &opts);
                telemetry.stop(HistKind::LpSolveSeconds, span);
                let _ = reply.send((slot, result));
            }
            Job::Run { slot, run, reply } => {
                let solver = solvers.entry(run.group).or_insert_with(GroupSolver::new);
                let outcome = execute_run(solver, &run, &opts, &telemetry);
                let _ = reply.send((slot, outcome));
            }
            Job::Ping { reply } => {
                let _ = reply.send(());
            }
            Job::Configure { telemetry: t } => telemetry = t,
            Job::Shutdown => break,
            #[cfg(test)]
            Job::Crash => panic!("shard worker crashed on request (test)"),
        }
    }
}

/// Replay a slot-ordered run of home-group requests against a private
/// copy of the group's availability. Every step mirrors the sequential
/// home path in `HierarchicalScheduler::allocate` bit for bit: same
/// member-order fit sum, same `+ 1e-12` slack, same `x.min(home_avail)`
/// clamp, same θ fold seeded at 0.0, and the same `(v − d).max(0.0)`
/// commit expression the GRM applies globally. The first request the
/// group cannot cover stalls the run — the coordinator decides it on the
/// coarse path and re-dispatches everything after it.
fn execute_run(
    solver: &mut GroupSolver,
    run: &GroupRun,
    opts: &SimplexOptions,
    telemetry: &Telemetry,
) -> RunOutcome {
    let mut avail = run.start.clone();
    let mut steps = Vec::with_capacity(run.reqs.len());
    let mut stalled_at = None;
    for req in &run.reqs {
        let home_avail: f64 = avail.iter().sum();
        // Exact negation of the sequential fit test, NOT `<`: a NaN sum
        // (poisoned availability) must stall here so the coordinator's
        // one-by-one path decides it, exactly like sequential would.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(home_avail + 1e-12 >= req.amount) {
            stalled_at = Some(req.slot);
            break;
        }
        telemetry.add("hier.home_hits", 1);
        if req.amount == 0.0 {
            steps.push(RunStep { slot: req.slot, result: Ok((vec![0.0; avail.len()], 0.0)) });
            continue;
        }
        let solve_amt = req.amount.min(home_avail);
        telemetry.add("hier.fine_solves", 1);
        let span = telemetry.start();
        let solved = solver.solve(&avail, solve_amt, opts);
        telemetry.stop(HistKind::LpSolveSeconds, span);
        match solved {
            Ok(local) => {
                let theta = local.iter().cloned().fold(0.0, f64::max);
                for (v, d) in avail.iter_mut().zip(&local) {
                    *v = (*v - *d).max(0.0);
                }
                steps.push(RunStep { slot: req.slot, result: Ok((local, theta)) });
            }
            Err(LpError::Infeasible { .. }) => steps.push(RunStep {
                slot: req.slot,
                result: Err(SchedError::InsufficientCapacity {
                    requester: run.first_member,
                    capacity: home_avail,
                    requested: solve_amt,
                    resource: None,
                }),
            }),
            Err(other) => {
                steps.push(RunStep { slot: req.slot, result: Err(SchedError::Lp(other)) })
            }
        }
    }
    RunOutcome { group: run.group, steps, stalled_at }
}

impl ShardExecutor {
    /// Forced mode: always fan out (no break-even gate). Workers are
    /// capped at the group count but get at least 2 even on a 1-core
    /// host, so forced mode exercises real cross-thread traffic anywhere.
    pub(crate) fn force(
        num_groups: usize,
        opts: SimplexOptions,
        telemetry: Telemetry,
        stats: Arc<ExecutorStats>,
    ) -> Self {
        let workers = num_groups.min(available_cores().max(2)).max(1);
        Self::with_workers(workers, opts, telemetry, stats, false)
    }

    /// Auto mode: `None` on hosts where parallelism cannot pay (fewer
    /// than 2 cores, or fewer than 2 groups); otherwise spin up
    /// `min(cores, groups)` workers and calibrate the break-even gate.
    pub(crate) fn auto(
        num_groups: usize,
        group_sizes: &[usize],
        opts: SimplexOptions,
        telemetry: Telemetry,
        stats: Arc<ExecutorStats>,
    ) -> Option<Self> {
        let cores = available_cores();
        if cores < 2 || num_groups < 2 {
            return None;
        }
        let mut ex = Self::with_workers(cores.min(num_groups), opts, telemetry, stats, true);
        ex.calibrate(group_sizes);
        Some(ex)
    }

    fn with_workers(
        workers: usize,
        opts: SimplexOptions,
        telemetry: Telemetry,
        stats: Arc<ExecutorStats>,
        gated: bool,
    ) -> Self {
        let links = (0..workers)
            .map(|i| {
                let (tx, join) = spawn_worker(i, opts.clone(), telemetry.clone());
                Mutex::new(WorkerLink { tx, join: Some(join) })
            })
            .collect();
        ShardExecutor {
            workers: links,
            opts,
            telemetry: Mutex::new(telemetry),
            stats,
            gated,
            dispatch_ns: 1,
            solve_ns: 1,
        }
    }

    /// Measure the two sides of the break-even inequality: the channel
    /// round-trip tax (mean of 16 pings after 4 warm-ups) and one warm
    /// fine solve at the mean group size (best of 8 on a scratch solver,
    /// uniform availability, half-capacity request).
    fn calibrate(&mut self, group_sizes: &[usize]) {
        let (tx, rx) = channel::unbounded();
        for _ in 0..4 {
            self.dispatch(0, Job::Ping { reply: tx.clone() });
            let _ = rx.recv();
        }
        let t0 = Instant::now();
        for _ in 0..16 {
            self.dispatch(0, Job::Ping { reply: tx.clone() });
            let _ = rx.recv();
        }
        self.dispatch_ns = ((t0.elapsed().as_nanos() / 16) as u64).max(1);

        let mean = (group_sizes.iter().sum::<usize>() / group_sizes.len().max(1)).max(1);
        let mavail = vec![1.0; mean];
        let amount = mean as f64 / 2.0;
        let mut scratch = GroupSolver::new();
        let _ = scratch.solve(&mavail, amount, &self.opts);
        let mut best = u64::MAX;
        for _ in 0..8 {
            let t = Instant::now();
            let _ = scratch.solve(&mavail, amount, &self.opts);
            best = best.min(t.elapsed().as_nanos() as u64);
        }
        self.solve_ns = best.max(1);
    }

    /// Break-even gate: fanning `k` jobs over `w` workers saves
    /// `(k − ⌈k/w⌉)` solve spans and costs `k` dispatches. Forced mode
    /// skips the measurement and says yes to any real fan-out.
    pub(crate) fn should_parallelize(&self, k: usize) -> bool {
        if k < 2 {
            return false;
        }
        if !self.gated {
            return true;
        }
        let w = self.workers.len();
        if w < 2 {
            return false;
        }
        let k64 = k as u64;
        let per_worker = k.div_ceil(w) as u64;
        (k64 - per_worker) * self.solve_ns > k64 * self.dispatch_ns
    }

    pub(crate) fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// The worker that owns `group` — a fixed hash, so the group's warm
    /// solver never migrates.
    fn worker_of(&self, group: usize) -> usize {
        group % self.workers.len()
    }

    /// Send a job to a worker, respawning it first if it died (the
    /// `SendError` hands the job back, so nothing is lost).
    fn dispatch(&self, worker: usize, job: Job) {
        let mut link = self.workers[worker].lock();
        if let Err(channel::SendError(job)) = link.tx.send(job) {
            let telemetry = self.telemetry.lock().clone();
            let (tx, join) = spawn_worker(worker, self.opts.clone(), telemetry);
            if let Some(old) = link.join.take() {
                let _ = old.join();
            }
            link.tx = tx;
            link.join = Some(join);
            let _ = link.tx.send(job);
        }
    }

    /// Swap the telemetry plane on the coordinator and every worker.
    pub(crate) fn set_telemetry(&self, telemetry: Telemetry) {
        *self.telemetry.lock() = telemetry.clone();
        for w in 0..self.workers.len() {
            self.dispatch(w, Job::Configure { telemetry: telemetry.clone() });
        }
    }

    /// Fan `(group, member availability, amount)` fine solves out to the
    /// owning workers and merge replies in input order.
    pub(crate) fn solve_fan(
        &self,
        jobs: Vec<(usize, Vec<f64>, f64)>,
    ) -> Vec<Result<Vec<f64>, LpError>> {
        let k = jobs.len();
        self.stats.note_fanout();
        let (tx, rx) = channel::unbounded();
        for (slot, (group, mavail, amount)) in jobs.into_iter().enumerate() {
            let worker = self.worker_of(group);
            self.dispatch(worker, Job::Solve { slot, group, mavail, amount, reply: tx.clone() });
        }
        drop(tx);
        collect_slotted(rx, k)
    }

    /// Fan batched home-group runs out to the owning workers and merge
    /// outcomes in input order.
    pub(crate) fn run_fan(&self, runs: Vec<GroupRun>) -> Vec<RunOutcome> {
        let k = runs.len();
        self.stats.note_fanout();
        let (tx, rx) = channel::unbounded();
        for (slot, run) in runs.into_iter().enumerate() {
            let worker = self.worker_of(run.group);
            self.dispatch(worker, Job::Run { slot, run, reply: tx.clone() });
        }
        drop(tx);
        collect_slotted(rx, k)
    }

    /// Test-only: kill a worker thread to exercise the respawn path.
    #[cfg(test)]
    fn crash_worker(&self, worker: usize) {
        self.dispatch(worker, Job::Crash);
    }
}

/// Collect `k` `(slot, value)` replies into slot order. Replies arrive in
/// completion order; slots restore input order, which is what keeps the
/// merged result independent of worker scheduling.
fn collect_slotted<T>(rx: Receiver<(usize, T)>, k: usize) -> Vec<T> {
    let mut out: Vec<Option<T>> = (0..k).map(|_| None).collect();
    for _ in 0..k {
        let (slot, value) = rx.recv().expect("shard worker reply");
        out[slot] = Some(value);
    }
    out.into_iter().map(|v| v.expect("every slot replied")).collect()
}

impl Drop for ShardExecutor {
    fn drop(&mut self) {
        for link in &self.workers {
            let mut link = link.lock();
            let _ = link.tx.send(Job::Shutdown);
            if let Some(join) = link.join.take() {
                let _ = join.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn force_executor(groups: usize) -> ShardExecutor {
        ShardExecutor::force(
            groups,
            SimplexOptions::default(),
            Telemetry::default(),
            Arc::new(ExecutorStats::default()),
        )
    }

    #[test]
    fn solve_fan_matches_direct_solver_bit_for_bit() {
        let ex = force_executor(4);
        let jobs: Vec<(usize, Vec<f64>, f64)> = vec![
            (0, vec![3.0, 1.0, 2.0], 4.0),
            (1, vec![5.0, 0.0, 0.5], 2.0),
            (2, vec![1.0, 1.0], 1.5),
            (3, vec![2.5], 2.0),
        ];
        let fanned = ex.solve_fan(jobs.clone());
        let opts = SimplexOptions::default();
        for ((_, mavail, amount), got) in jobs.into_iter().zip(fanned) {
            let want = GroupSolver::new().solve(&mavail, amount, &opts).unwrap();
            let got = got.unwrap();
            assert_eq!(want.len(), got.len());
            assert!(want.iter().zip(&got).all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }

    #[test]
    fn solve_fan_merges_in_input_order_across_workers() {
        let ex = force_executor(8);
        // Distinguishable amounts: slot i requests i + 1 from capacity 8.
        let jobs: Vec<(usize, Vec<f64>, f64)> =
            (0..8).map(|g| (g, vec![8.0], g as f64 + 1.0)).collect();
        let results = ex.solve_fan(jobs);
        for (i, r) in results.into_iter().enumerate() {
            let draws = r.unwrap();
            assert!((draws[0] - (i as f64 + 1.0)).abs() < 1e-9, "slot {i}: {draws:?}");
        }
    }

    #[test]
    fn run_protocol_stalls_at_first_unservable_slot() {
        let ex = force_executor(1);
        let run = GroupRun {
            group: 0,
            first_member: 7,
            start: vec![4.0, 2.0],
            // Slots 0 and 1 fit (6 total); slot 2 wants 10 — stall;
            // slot 3 would fit but must be left for the next wave.
            reqs: vec![
                RunRequest { slot: 0, amount: 3.0 },
                RunRequest { slot: 1, amount: 2.0 },
                RunRequest { slot: 2, amount: 10.0 },
                RunRequest { slot: 3, amount: 0.5 },
            ],
        };
        let mut outcomes = ex.run_fan(vec![run]);
        assert_eq!(outcomes.len(), 1);
        let outcome = outcomes.pop().unwrap();
        assert_eq!(outcome.group, 0);
        assert_eq!(outcome.stalled_at, Some(2));
        assert_eq!(outcome.steps.len(), 2);
        let (draws0, theta0) = outcome.steps[0].result.as_ref().unwrap();
        assert!((draws0.iter().sum::<f64>() - 3.0).abs() < 1e-9);
        assert!(*theta0 > 0.0);
        let (draws1, _) = outcome.steps[1].result.as_ref().unwrap();
        assert!((draws1.iter().sum::<f64>() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn run_replays_commits_between_steps() {
        // Two steps of 2.0 against [3.0, 1.0]: step 1 must see the
        // availability left by step 0, exactly as one-by-one would.
        let ex = force_executor(1);
        let run = GroupRun {
            group: 0,
            first_member: 0,
            start: vec![3.0, 1.0],
            reqs: vec![RunRequest { slot: 0, amount: 2.0 }, RunRequest { slot: 1, amount: 2.0 }],
        };
        let outcome = ex.run_fan(vec![run]).pop().unwrap();
        assert_eq!(outcome.stalled_at, None);
        let opts = SimplexOptions::default();
        let mut solver = GroupSolver::new();
        let mut avail = vec![3.0, 1.0];
        for step in &outcome.steps {
            let want = solver.solve(&avail, 2.0, &opts).unwrap();
            let (got, _) = step.result.as_ref().unwrap();
            assert!(want.iter().zip(got).all(|(a, b)| a.to_bits() == b.to_bits()));
            for (v, d) in avail.iter_mut().zip(&want) {
                *v = (*v - *d).max(0.0);
            }
        }
    }

    #[test]
    fn dead_worker_is_respawned_and_job_survives() {
        let ex = force_executor(1);
        ex.crash_worker(0);
        // Wait until the worker's channel actually reports disconnected:
        // the panic has to finish unwinding (dropping the receiver)
        // before a dispatch can observe the death and respawn. Probe with
        // raw sends so we don't trigger the respawn path early.
        let (ptx, _prx) = channel::unbounded();
        for _ in 0..1000 {
            if ex.workers[0].lock().tx.send(Job::Ping { reply: ptx.clone() }).is_err() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let results = ex.solve_fan(vec![(0, vec![4.0, 4.0], 2.0)]);
        let draws = results[0].as_ref().unwrap();
        assert!((draws.iter().sum::<f64>() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn break_even_gate_logic() {
        let mut ex = force_executor(4);
        assert!(!ex.should_parallelize(0));
        assert!(!ex.should_parallelize(1));
        assert!(ex.should_parallelize(2), "forced mode fans out any real fan-out");
        // Gated with a cheap solve vs expensive dispatch: never pays.
        ex.gated = true;
        ex.dispatch_ns = 10_000;
        ex.solve_ns = 100;
        assert!(!ex.should_parallelize(64));
        // Gated with an expensive solve: pays as soon as work is saved.
        ex.dispatch_ns = 100;
        ex.solve_ns = 1_000_000;
        assert!(ex.should_parallelize(2));
    }

    #[test]
    fn auto_refuses_on_single_core_or_single_group() {
        let stats = Arc::new(ExecutorStats::default());
        let single_group = ShardExecutor::auto(
            1,
            &[8],
            SimplexOptions::default(),
            Telemetry::default(),
            stats.clone(),
        );
        assert!(single_group.is_none());
        let auto = ShardExecutor::auto(
            4,
            &[4, 4, 4, 4],
            SimplexOptions::default(),
            Telemetry::default(),
            stats,
        );
        if available_cores() < 2 {
            assert!(auto.is_none(), "1-core host must never build an executor");
        } else {
            let ex = auto.unwrap();
            assert!(ex.num_workers() >= 2);
            assert!(ex.dispatch_ns >= 1 && ex.solve_ns >= 1);
        }
    }
}
