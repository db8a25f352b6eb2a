//! The epoch-driven simulation core.

use crate::config::{PolicyKind, SimConfig};
use crate::metrics::SimResult;
use crate::proxy::{Proxy, QueuedRequest};
use agreements_flow::IncrementalFlow;
use agreements_sched::{
    AllocationPolicy, CachedLpPolicy, GreedyPolicy, ProportionalPolicy, SystemState,
};
use agreements_telemetry::{Telemetry, TelemetryEvent};
use agreements_trace::{ProxyTrace, DAY_SECONDS};
use std::fmt;

/// Errors constructing or running a simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// Trace count does not match the configured proxy count.
    TraceCountMismatch {
        /// Configured proxy count.
        expected: usize,
        /// Traces supplied.
        got: usize,
    },
    /// Agreement matrix dimension does not match the proxy count.
    AgreementMismatch {
        /// Configured proxy count.
        expected: usize,
        /// Agreement matrix dimension.
        got: usize,
    },
    /// Non-positive capacity or epoch.
    InvalidConfig(&'static str),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::TraceCountMismatch { expected, got } => {
                write!(f, "expected {expected} traces, got {got}")
            }
            SimError::AgreementMismatch { expected, got } => {
                write!(f, "agreement matrix is {got}x{got}, need {expected}")
            }
            SimError::InvalidConfig(what) => write!(f, "invalid config: {what}"),
        }
    }
}

impl std::error::Error for SimError {}

/// A configured simulator, ready to run traces.
///
/// The flow table is held by `Arc`: consultations share the snapshot
/// with the scheduler state instead of cloning the n×n matrix per
/// consultation. The graph is closed once, at construction; a run under
/// an agreement-fluctuation schedule clones the maintainer and repairs
/// its copy once per epoch that has edits due, republishing the snapshot.
pub struct Simulator {
    cfg: SimConfig,
    flow: Option<IncrementalFlow>,
    policy: Option<Box<dyn AllocationPolicy + Send>>,
    telemetry: Telemetry,
}

impl Simulator {
    /// Build a simulator; precomputes the transitive flow table.
    pub fn new(cfg: SimConfig) -> Result<Self, SimError> {
        if cfg.capacity <= 0.0 || !cfg.capacity.is_finite() {
            return Err(SimError::InvalidConfig("capacity must be positive"));
        }
        if let Some(per) = &cfg.per_proxy_capacity {
            if per.len() != cfg.n {
                return Err(SimError::InvalidConfig("per_proxy_capacity length must equal n"));
            }
            if per.iter().any(|c| *c <= 0.0 || !c.is_finite()) {
                return Err(SimError::InvalidConfig("per-proxy capacities must be positive"));
            }
        }
        if cfg.epoch <= 0.0 || !cfg.epoch.is_finite() {
            return Err(SimError::InvalidConfig("epoch must be positive"));
        }
        let (flow, policy) = match &cfg.sharing {
            None => (None, None),
            Some(sh) => {
                if sh.agreements.n() != cfg.n {
                    return Err(SimError::AgreementMismatch {
                        expected: cfg.n,
                        got: sh.agreements.n(),
                    });
                }
                // Reject an unappliable schedule up front rather than
                // mid-run: dry-run every event against a scratch matrix.
                if !sh.schedule.is_empty() {
                    let mut probe = sh.agreements.clone();
                    for e in &sh.schedule {
                        if !e.at.is_finite() {
                            return Err(SimError::InvalidConfig(
                                "schedule event time must be finite",
                            ));
                        }
                        probe.set(e.from, e.to, e.share).map_err(|_| {
                            SimError::InvalidConfig("invalid agreement schedule event")
                        })?;
                    }
                }
                let mut flow = IncrementalFlow::new(sh.agreements.clone(), sh.level);
                flow.snapshot(); // published once; every run's clone shares it
                let policy: Box<dyn AllocationPolicy + Send> = match sh.policy {
                    // Consultations solve the same-shaped LP thousands of
                    // times per day: run them on the cached solver
                    // (persistent skeleton + workspace, single-solve best
                    // effort) — bit-identical to the stateless LpPolicy.
                    PolicyKind::Lp => Box::new(CachedLpPolicy::reduced()),
                    PolicyKind::Proportional => {
                        // End-point enforcement: the proportional split is
                        // blind to load, but each end point enforces its
                        // agreement share against the resources it
                        // actually has available (relative agreements are
                        // defined over *available* resources, §2.1), so
                        // overflow routed at busy near neighbours bounces
                        // and stays queued at home.
                        Box::new(ProportionalPolicy::new(sh.agreements.clone()))
                    }
                    PolicyKind::Greedy => Box::new(GreedyPolicy),
                    PolicyKind::LpFairShare => {
                        Box::new(agreements_sched::FairShareLpPolicy::default())
                    }
                    PolicyKind::LpCostAware { per_hop, lambda } => Box::new(
                        agreements_sched::CostAwareLpPolicy::ring_distance(cfg.n, per_hop, lambda),
                    ),
                };
                (Some(flow), Some(policy))
            }
        };
        Ok(Simulator { cfg, flow, policy, telemetry: Telemetry::default() })
    }

    /// Attach a telemetry plane: per-consultation θ records flow from
    /// the epoch loop, the policy records its admission decisions and
    /// LP-solve timings, and an active fluctuation schedule records its
    /// incremental flow repairs. `Telemetry::default()` (the initial
    /// state) keeps every run bit-identical to an uninstrumented one.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        if let Some(policy) = &self.policy {
            policy.set_telemetry(&telemetry);
        }
        self.telemetry = telemetry;
    }

    /// Build a simulator that consults a caller-supplied policy instead
    /// of one derived from [`PolicyKind`] — e.g. a
    /// policy backed by a live GRM server, or a custom objective.
    /// `cfg.sharing` must be set (it still supplies the agreement
    /// structure, transitivity level, and redirection cost).
    pub fn with_policy(
        cfg: SimConfig,
        policy: Box<dyn AllocationPolicy + Send>,
    ) -> Result<Self, SimError> {
        let mut sim = Simulator::new(cfg)?;
        if sim.flow.is_none() {
            return Err(SimError::InvalidConfig("with_policy requires cfg.sharing to be set"));
        }
        sim.policy = Some(policy);
        Ok(sim)
    }

    /// Run the full day plus drain; returns aggregated metrics.
    pub fn run(&self, traces: &[ProxyTrace]) -> Result<SimResult, SimError> {
        let n = self.cfg.n;
        if traces.len() != n {
            return Err(SimError::TraceCountMismatch { expected: n, got: traces.len() });
        }
        if let Some(policy) = &self.policy {
            // Each run is an independent replay: drop any acceleration
            // state a previous run left in a stateful policy so repeated
            // runs of one simulator stay bit-identical.
            policy.begin_run();
        }
        let mut result = SimResult::new(n);
        let mut proxies: Vec<Proxy> = (0..n)
            .map(|i| Proxy::with_discipline(self.cfg.capacity_of(i), self.cfg.discipline))
            .collect();
        let mut cursors = vec![0usize; n];
        // Replay the trace warmup_days + 1 times; record only the last day.
        let days = self.cfg.warmup_days + 1;
        let measure_from = self.cfg.warmup_days as f64 * DAY_SECONDS;
        let total_span = days as f64 * DAY_SECONDS;
        let epoch = self.cfg.epoch;
        let threshold_work: Vec<f64> =
            (0..n).map(|i| self.cfg.threshold_epochs * self.cfg.capacity_of(i) * epoch).collect();
        let horizon = self.cfg.horizon_epochs * epoch;
        let redirect_cost = self.cfg.sharing.as_ref().map_or(0.0, |s| s.redirect_cost);

        // Agreement fluctuation (Figure 12 variants): events repair the
        // flow table incrementally at epoch boundaries. With an empty
        // schedule `flow_now` is exactly the precomputed snapshot and the
        // run is bit-identical to the static-agreement behavior.
        let mut inc = self.flow.clone();
        if let Some(inc) = &mut inc {
            inc.set_telemetry(self.telemetry.clone());
        }
        let mut flow_now = inc.as_mut().map(IncrementalFlow::snapshot);
        let mut events = self.cfg.sharing.as_ref().map_or(Vec::new(), |sh| sh.schedule.clone());
        events.sort_by(|a, b| a.at.partial_cmp(&b.at).expect("finite event times"));
        let mut pending = events.as_slice();

        let mut t = 0.0f64;
        loop {
            // 0. Apply the agreement edits due by now as one repair — no
            //    consultation falls between them — and republish.
            let due = pending.partition_point(|e| measure_from + e.at <= t);
            if due > 0 {
                let inc = inc.as_mut().expect("only a sharing config carries a schedule");
                let edits: Vec<_> =
                    pending[..due].iter().map(|e| (e.from, e.to, e.share)).collect();
                pending = &pending[due..];
                inc.set_all(&edits).expect("schedule validated at construction");
                flow_now = Some(inc.snapshot());
            }
            // 1. Admit this epoch's arrivals (cursor indexes the virtual
            //    replayed stream: day d, request i).
            let mut any_left = false;
            for (p, trace) in traces.iter().enumerate() {
                let reqs = &trace.requests;
                if reqs.is_empty() {
                    continue;
                }
                let total = reqs.len() * days;
                while cursors[p] < total {
                    let day = cursors[p] / reqs.len();
                    let r = reqs[cursors[p] % reqs.len()];
                    let arrival = r.arrival + day as f64 * DAY_SECONDS;
                    if arrival >= t + epoch {
                        break;
                    }
                    cursors[p] += 1;
                    let measured = arrival >= measure_from;
                    if measured {
                        result.record_arrival(p, arrival);
                    }
                    proxies[p].queue.push_back(QueuedRequest {
                        arrival,
                        demand: self.cfg.service.demand(&r),
                        home: p,
                        redirected: false,
                        measured,
                    });
                }
                any_left |= cursors[p] < total;
            }

            // 2. Scheduler consultations for overloaded proxies.
            if let (Some(flow), Some(policy)) = (&flow_now, &self.policy) {
                let mut avail: Vec<f64> =
                    proxies.iter().map(|p| p.idle_capacity(t, horizon)).collect();
                for i in 0..n {
                    let pending = proxies[i].pending_work(t);
                    if pending <= threshold_work[i] {
                        continue;
                    }
                    // Movable work: non-redirected queued requests only.
                    let movable: f64 =
                        proxies[i].queue.iter().filter(|r| !r.redirected).map(|r| r.demand).sum();
                    let excess = (pending - threshold_work[i]).min(movable);
                    if excess <= 0.0 {
                        continue;
                    }
                    result.consultations += 1;
                    let state = match SystemState::new(flow.clone(), None, avail.clone()) {
                        Ok(s) => s,
                        Err(_) => continue,
                    };
                    let alloc = match policy.allocate_up_to(&state, i, excess) {
                        Ok(a) => a,
                        Err(_) => continue,
                    };
                    let wants: Vec<(usize, f64)> = alloc.remote_draws().collect();
                    let moved = redistribute(&mut proxies, i, &wants, redirect_cost);
                    for &(k, m) in &moved {
                        avail[k] = (avail[k] - m).max(0.0);
                    }
                    self.telemetry.add("proxysim.consultations", 1);
                    self.telemetry.record_with(|| TelemetryEvent::EpochTheta {
                        time: t,
                        proxy: i,
                        excess,
                        theta: alloc.theta,
                        moved: moved.iter().map(|&(_, m)| m).sum(),
                    });
                    if self.cfg.record_decisions && t >= measure_from {
                        result.decisions.push(crate::metrics::Decision {
                            time: t - measure_from,
                            proxy: i,
                            excess,
                            moved,
                        });
                    }
                }
            }

            // 3. Serve the epoch everywhere.
            for proxy in &mut proxies {
                for (req, wait) in proxy.serve_epoch(t, epoch) {
                    if req.measured {
                        result.record_service(req.home, req.arrival, wait, req.redirected);
                    }
                }
            }

            t += epoch;
            // Termination: trace exhausted, queues empty, servers idle.
            let day_done = t >= total_span && !any_left;
            if day_done {
                let all_idle = proxies.iter().all(|p| p.queue.is_empty() && p.server_free_at <= t);
                if all_idle {
                    break;
                }
                if t > total_span + self.cfg.max_drain {
                    result.unserved = proxies.iter().map(|p| p.queue.len()).sum();
                    break;
                }
            }
        }
        Ok(result)
    }
}

/// Redirect queued work from proxy `from` to the destinations in `wants`
/// (`(destination, work-seconds)` pairs), charging `cost` extra demand per
/// moved request.
///
/// Selection is **largest-demand first** among not-yet-redirected
/// requests: moving few, heavy requests carries the most overload work per
/// redirected request, keeping the redirected *request* fraction low (the
/// paper reports < 1.5%) and making the fixed per-request redirection
/// overhead negligible relative to what is moved.
///
/// Returns the `(destination, work moved)` pairs actually realized
/// (excluding the added cost).
fn redistribute(
    proxies: &mut [Proxy],
    from: usize,
    wants: &[(usize, f64)],
    cost: f64,
) -> Vec<(usize, f64)> {
    // Movable candidates, heaviest first.
    let mut candidates: Vec<(usize, f64)> = proxies[from]
        .queue
        .iter()
        .enumerate()
        .filter(|(_, r)| !r.redirected)
        .map(|(idx, r)| (idx, r.demand))
        .collect();
    candidates.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite demands"));

    // Destinations by descending want; first-fit-decreasing assignment.
    // Candidates are scanned heaviest-first per destination, skipping ones
    // already taken (O(candidates × destinations), destinations ≤ n).
    let mut order: Vec<(usize, f64)> = wants.to_vec();
    order.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite wants"));
    let mut taken = vec![false; candidates.len()];
    // queue index -> destination
    let mut assignment: Vec<(usize, usize)> = Vec::new();
    let mut moved: Vec<(usize, f64)> = Vec::new();
    for &(dest, want) in &order {
        debug_assert_ne!(dest, from);
        let mut remaining = want;
        let mut got = 0.0f64;
        for (c, &(idx, demand)) in candidates.iter().enumerate() {
            if taken[c] || demand > remaining + 1e-9 {
                continue;
            }
            taken[c] = true;
            assignment.push((idx, dest));
            remaining -= demand;
            got += demand;
            if remaining <= 1e-9 {
                break;
            }
        }
        if got > 0.0 {
            moved.push((dest, got));
        }
    }

    if assignment.is_empty() {
        return moved;
    }
    // Extract assigned requests (preserving arrival order per
    // destination) and rebuild the source queue.
    assignment.sort_unstable();
    let mut per_dest: Vec<Vec<QueuedRequest>> = vec![Vec::new(); proxies.len()];
    let mut kept: std::collections::VecDeque<QueuedRequest> =
        std::collections::VecDeque::with_capacity(proxies[from].queue.len());
    let mut aiter = assignment.iter().peekable();
    for (idx, r) in std::mem::take(&mut proxies[from].queue).into_iter().enumerate() {
        if let Some(&&(aidx, dest)) = aiter.peek() {
            if aidx == idx {
                aiter.next();
                per_dest[dest].push(QueuedRequest {
                    demand: r.demand + cost,
                    redirected: true,
                    ..r
                });
                continue;
            }
        }
        kept.push_back(r);
    }
    proxies[from].queue = kept;
    for (dest, reqs) in per_dest.into_iter().enumerate() {
        for r in reqs {
            proxies[dest].queue.push_back(r);
        }
    }
    moved
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SharingConfig;
    use agreements_flow::AgreementMatrix;
    use agreements_trace::{Request, ServiceModel};

    /// A burst of `count` requests of fixed length arriving at `t0`, one
    /// per `spacing` seconds.
    fn burst(proxy: usize, t0: f64, count: usize, spacing: f64, len: u64) -> ProxyTrace {
        ProxyTrace {
            proxy,
            requests: (0..count)
                .map(|i| Request { arrival: t0 + i as f64 * spacing, response_len: len })
                .collect(),
        }
    }

    fn empty(proxy: usize) -> ProxyTrace {
        ProxyTrace { proxy, requests: vec![] }
    }

    fn base_cfg(n: usize) -> SimConfig {
        SimConfig {
            n,
            capacity: 1.0,
            per_proxy_capacity: None,
            epoch: 10.0,
            threshold_epochs: 1.0,
            horizon_epochs: 1.0,
            service: ServiceModel::PAPER,
            sharing: None,
            max_drain: 86_400.0,
            warmup_days: 0,
            record_decisions: false,
            discipline: crate::proxy::QueueDiscipline::Fifo,
        }
    }

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
    fn all_requests_served_and_counted() {
        let cfg = base_cfg(2);
        let sim = Simulator::new(cfg).unwrap();
        let traces = vec![burst(0, 0.0, 100, 1.0, 10_000), burst(1, 5.0, 50, 2.0, 10_000)];
        let r = sim.run(&traces).unwrap();
        assert_eq!(r.served, 150);
        assert!(r.is_stable());
        assert_eq!(r.slots.iter().map(|s| s.arrivals).sum::<usize>(), 150);
        assert_eq!(r.slots.iter().map(|s| s.served).sum::<usize>(), 150);
        assert_eq!(r.redirected, 0, "sharing disabled");
        assert_eq!(r.consultations, 0);
    }

    #[test]
    fn light_load_waits_near_zero() {
        let sim = Simulator::new(base_cfg(1)).unwrap();
        // 0.11 s demands arriving every 10 s: almost never queue.
        let traces = vec![burst(0, 0.0, 100, 10.0, 10_000)];
        let r = sim.run(&traces).unwrap();
        assert!(r.avg_wait() < 0.01, "avg wait {}", r.avg_wait());
    }

    #[test]
    fn overload_builds_queueing_delay() {
        let sim = Simulator::new(base_cfg(1)).unwrap();
        // 2 s demands (len ~1.9MB) arriving every 1 s: server falls behind
        // one second per arrival.
        let traces = vec![burst(0, 0.0, 100, 1.0, 1_900_000)];
        let r = sim.run(&traces).unwrap();
        assert!(r.worst_wait > 50.0, "worst {}", r.worst_wait);
        assert!(r.avg_wait() > 20.0, "avg {}", r.avg_wait());
    }

    #[test]
    fn sharing_offloads_to_idle_partner() {
        let s = complete(2, 0.5);
        let cfg = base_cfg(2).with_sharing(SharingConfig::lp(s));
        let sim = Simulator::new(cfg).unwrap();
        let busy = burst(0, 0.0, 100, 1.0, 1_900_000);
        let no_share = Simulator::new(base_cfg(2)).unwrap();
        let r0 = no_share.run(&[busy.clone(), empty(1)]).unwrap();
        let r1 = sim.run(&[busy, empty(1)]).unwrap();
        assert!(r1.redirected > 0, "some requests must move");
        assert!(
            r1.avg_wait() < r0.avg_wait() * 0.8,
            "sharing {} vs alone {}",
            r1.avg_wait(),
            r0.avg_wait()
        );
        assert!(r1.consultations > 0);
    }

    #[test]
    fn redirect_cost_slows_redirected_requests() {
        let s = complete(2, 0.5);
        let mut sh = SharingConfig::lp(s);
        sh.redirect_cost = 5.0; // exaggerated for visibility
        let cfg = base_cfg(2).with_sharing(sh);
        let sim_costly = Simulator::new(cfg).unwrap();
        let mut sh_free = SharingConfig::lp(complete(2, 0.5));
        sh_free.redirect_cost = 0.0;
        let sim_free = Simulator::new(base_cfg(2).with_sharing(sh_free)).unwrap();
        let traces = vec![burst(0, 0.0, 100, 1.0, 1_900_000), empty(1)];
        let rc = sim_costly.run(&traces).unwrap();
        let rf = sim_free.run(&traces).unwrap();
        assert!(rc.avg_wait() >= rf.avg_wait(), "{} vs {}", rc.avg_wait(), rf.avg_wait());
    }

    #[test]
    fn no_agreement_means_no_redirection() {
        let cfg = base_cfg(2).with_sharing(SharingConfig::lp(AgreementMatrix::zeros(2)));
        let sim = Simulator::new(cfg).unwrap();
        let traces = vec![burst(0, 0.0, 50, 1.0, 1_900_000), empty(1)];
        let r = sim.run(&traces).unwrap();
        assert_eq!(r.redirected, 0);
    }

    #[test]
    fn unstable_overload_reports_unserved() {
        let mut cfg = base_cfg(1);
        cfg.capacity = 0.01; // hopeless
        cfg.max_drain = 100.0;
        let sim = Simulator::new(cfg).unwrap();
        let traces = vec![burst(0, 86_000.0, 500, 0.1, 20_000_000)];
        let r = sim.run(&traces).unwrap();
        assert!(!r.is_stable());
        assert!(r.unserved > 0);
    }

    #[test]
    fn config_validation() {
        let mut cfg = base_cfg(2);
        cfg.capacity = 0.0;
        assert!(matches!(Simulator::new(cfg), Err(SimError::InvalidConfig(_))));
        let cfg = base_cfg(2).with_sharing(SharingConfig::lp(complete(3, 0.1)));
        assert!(matches!(
            Simulator::new(cfg),
            Err(SimError::AgreementMismatch { expected: 2, got: 3 })
        ));
        let sim = Simulator::new(base_cfg(2)).unwrap();
        assert!(matches!(
            sim.run(&[empty(0)]),
            Err(SimError::TraceCountMismatch { expected: 2, got: 1 })
        ));
    }

    #[test]
    fn runs_are_deterministic() {
        let s = complete(3, 0.3);
        let cfg = base_cfg(3).with_sharing(SharingConfig::lp(s));
        let sim = Simulator::new(cfg).unwrap();
        let traces =
            vec![burst(0, 0.0, 80, 1.0, 1_500_000), burst(1, 40.0, 30, 2.0, 500_000), empty(2)];
        let a = sim.run(&traces).unwrap();
        let b = sim.run(&traces).unwrap();
        assert_eq!(a.served, b.served);
        assert_eq!(a.redirected, b.redirected);
        assert!((a.total_wait - b.total_wait).abs() < 1e-9);
    }

    #[test]
    fn proportional_policy_also_offloads() {
        let s = complete(2, 0.5);
        let mut sh = SharingConfig::lp(s);
        sh.policy = PolicyKind::Proportional;
        let sim = Simulator::new(base_cfg(2).with_sharing(sh)).unwrap();
        let traces = vec![burst(0, 0.0, 100, 1.0, 1_900_000), empty(1)];
        let r = sim.run(&traces).unwrap();
        assert!(r.redirected > 0);
    }

    fn queued(arrival: f64, demand: f64) -> QueuedRequest {
        QueuedRequest { arrival, demand, home: 0, redirected: false, measured: true }
    }

    #[test]
    fn redistribute_respects_want_and_order() {
        let mut proxies = vec![Proxy::new(1.0), Proxy::new(1.0)];
        for i in 0..5 {
            proxies[0].queue.push_back(queued(i as f64, 1.0));
        }
        let moved = redistribute(&mut proxies, 0, &[(1, 2.5)], 0.1);
        assert_eq!(moved, vec![(1, 2.0)], "two whole requests fit");
        assert_eq!(proxies[0].queue.len(), 3);
        assert_eq!(proxies[1].queue.len(), 2);
        // Moved requests keep arrival order and pay the cost.
        let v: Vec<_> = proxies[1].queue.iter().collect();
        assert!(v[0].arrival < v[1].arrival);
        assert!((v[0].demand - 1.1).abs() < 1e-12);
        assert!(v.iter().all(|r| r.redirected));
    }

    #[test]
    fn redistribute_prefers_heavy_requests() {
        let mut proxies = vec![Proxy::new(1.0), Proxy::new(1.0)];
        proxies[0].queue.push_back(queued(0.0, 1.0));
        proxies[0].queue.push_back(queued(1.0, 5.0));
        proxies[0].queue.push_back(queued(2.0, 2.0));
        let moved = redistribute(&mut proxies, 0, &[(1, 5.5)], 0.0);
        assert_eq!(moved, vec![(1, 5.0)], "the single 5.0 beats 1+2");
        assert_eq!(proxies[1].queue.len(), 1);
        assert_eq!(proxies[0].queue.len(), 2);
        // Source order preserved for kept requests.
        let v: Vec<_> = proxies[0].queue.iter().collect();
        assert_eq!(v[0].arrival, 0.0);
        assert_eq!(v[1].arrival, 2.0);
    }

    #[test]
    fn redistribute_splits_across_destinations() {
        let mut proxies = vec![Proxy::new(1.0), Proxy::new(1.0), Proxy::new(1.0)];
        for i in 0..6 {
            proxies[0].queue.push_back(queued(i as f64, 1.0));
        }
        let moved = redistribute(&mut proxies, 0, &[(1, 2.0), (2, 3.0)], 0.0);
        // Larger want served first.
        assert!(moved.contains(&(2, 3.0)));
        assert!(moved.contains(&(1, 2.0)));
        assert_eq!(proxies[0].queue.len(), 1);
        assert_eq!(proxies[1].queue.len(), 2);
        assert_eq!(proxies[2].queue.len(), 3);
    }

    #[test]
    fn decision_log_records_consultations() {
        let s = complete(2, 0.5);
        let mut cfg = base_cfg(2).with_sharing(SharingConfig::lp(s));
        cfg.record_decisions = true;
        let sim = Simulator::new(cfg).unwrap();
        let traces = vec![burst(0, 0.0, 100, 1.0, 1_900_000), empty(1)];
        let r = sim.run(&traces).unwrap();
        assert!(!r.decisions.is_empty());
        assert_eq!(r.decisions.len(), {
            // Every logged decision moved something to proxy 1.
            r.decisions.iter().filter(|d| d.proxy == 0).count()
        });
        let total_logged: f64 = r.decisions.iter().map(|d| d.total_moved()).sum();
        assert!(total_logged > 0.0);
        for d in &r.decisions {
            assert!(d.total_moved() <= d.excess + 1e-9, "never moves more than asked");
            assert!(d.moved.iter().all(|&(k, _)| k == 1));
        }
        // Off by default: no log.
        let cfg = base_cfg(2).with_sharing(SharingConfig::lp(complete(2, 0.5)));
        let r2 = Simulator::new(cfg).unwrap().run(&traces).unwrap();
        assert!(r2.decisions.is_empty());
        assert!(r2.consultations > 0);
    }

    #[test]
    fn heterogeneous_capacities_validated() {
        let cfg = base_cfg(2).with_per_proxy_capacity(vec![1.0]);
        assert!(matches!(Simulator::new(cfg), Err(SimError::InvalidConfig(_))));
        let cfg = base_cfg(2).with_per_proxy_capacity(vec![1.0, 0.0]);
        assert!(matches!(Simulator::new(cfg), Err(SimError::InvalidConfig(_))));
        let cfg = base_cfg(2).with_per_proxy_capacity(vec![1.0, 2.0]);
        assert!(Simulator::new(cfg).is_ok());
    }

    #[test]
    fn weak_proxy_leans_on_strong_partner() {
        // Proxy 0 is 10x weaker; with sharing its overload drains to the
        // strong partner.
        let s = complete(2, 0.5);
        let hetero = |sharing| {
            let mut cfg = base_cfg(2).with_per_proxy_capacity(vec![0.2, 2.0]);
            if sharing {
                cfg = cfg.with_sharing(SharingConfig::lp(complete(2, 0.5)));
            }
            cfg
        };
        let _ = s;
        let traces = vec![burst(0, 0.0, 120, 1.0, 500_000), empty(1)];
        let alone = Simulator::new(hetero(false)).unwrap().run(&traces).unwrap();
        let shared = Simulator::new(hetero(true)).unwrap().run(&traces).unwrap();
        assert!(shared.redirected > 0);
        assert!(
            shared.avg_wait() < alone.avg_wait() * 0.5,
            "shared {} vs alone {}",
            shared.avg_wait(),
            alone.avg_wait()
        );
    }

    #[test]
    fn schedule_applied_at_start_matches_static_config() {
        use crate::config::AgreementEvent;
        // Starting from zero agreements and switching the full complete
        // structure on at t = 0 must be indistinguishable — bit for bit
        // — from configuring the complete structure statically.
        let n = 2;
        let mut schedule = Vec::new();
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    schedule.push(AgreementEvent { at: 0.0, from: i, to: j, share: 0.5 });
                }
            }
        }
        let fluct = SharingConfig::lp(AgreementMatrix::zeros(n)).with_schedule(schedule);
        let statc = SharingConfig::lp(complete(n, 0.5));
        let traces = vec![burst(0, 0.0, 100, 1.0, 1_900_000), empty(1)];
        let rf = Simulator::new(base_cfg(n).with_sharing(fluct)).unwrap().run(&traces).unwrap();
        let rs = Simulator::new(base_cfg(n).with_sharing(statc)).unwrap().run(&traces).unwrap();
        assert!(rf.redirected > 0);
        assert_eq!(rf.served, rs.served);
        assert_eq!(rf.redirected, rs.redirected);
        assert_eq!(rf.consultations, rs.consultations);
        assert_eq!(rf.total_wait.to_bits(), rs.total_wait.to_bits());
    }

    #[test]
    fn mid_run_agreement_revocation_cuts_redirection() {
        use crate::config::AgreementEvent;
        // The partnership is cancelled 30 s into a 100 s burst: some
        // work moves before the cut, none after.
        let sh = SharingConfig::lp(complete(2, 0.5)).with_schedule(vec![
            AgreementEvent { at: 30.0, from: 0, to: 1, share: 0.0 },
            AgreementEvent { at: 30.0, from: 1, to: 0, share: 0.0 },
        ]);
        let traces = vec![burst(0, 0.0, 100, 1.0, 1_900_000), empty(1)];
        let cut = Simulator::new(base_cfg(2).with_sharing(sh)).unwrap().run(&traces).unwrap();
        let keep = Simulator::new(base_cfg(2).with_sharing(SharingConfig::lp(complete(2, 0.5))))
            .unwrap()
            .run(&traces)
            .unwrap();
        assert!(cut.redirected > 0, "moves happen before the cut");
        assert!(
            cut.redirected < keep.redirected,
            "revocation must stop redirection: {} vs {}",
            cut.redirected,
            keep.redirected
        );
    }

    #[test]
    fn schedule_validation_rejects_bad_events() {
        use crate::config::AgreementEvent;
        let bad_share = SharingConfig::lp(AgreementMatrix::zeros(2))
            .with_schedule(vec![AgreementEvent { at: 0.0, from: 0, to: 1, share: 1.5 }]);
        assert!(matches!(
            Simulator::new(base_cfg(2).with_sharing(bad_share)),
            Err(SimError::InvalidConfig(_))
        ));
        let bad_index = SharingConfig::lp(AgreementMatrix::zeros(2))
            .with_schedule(vec![AgreementEvent { at: 0.0, from: 0, to: 5, share: 0.1 }]);
        assert!(matches!(
            Simulator::new(base_cfg(2).with_sharing(bad_index)),
            Err(SimError::InvalidConfig(_))
        ));
        let bad_time = SharingConfig::lp(AgreementMatrix::zeros(2))
            .with_schedule(vec![AgreementEvent { at: f64::NAN, from: 0, to: 1, share: 0.1 }]);
        assert!(matches!(
            Simulator::new(base_cfg(2).with_sharing(bad_time)),
            Err(SimError::InvalidConfig(_))
        ));
    }

    #[test]
    fn already_redirected_requests_are_pinned() {
        let mut proxies = vec![Proxy::new(1.0), Proxy::new(1.0)];
        proxies[0].queue.push_back(QueuedRequest {
            arrival: 0.0,
            demand: 1.0,
            home: 1,
            redirected: true,
            measured: true,
        });
        let moved = redistribute(&mut proxies, 0, &[(1, 5.0)], 0.0);
        assert!(moved.is_empty());
        assert_eq!(proxies[0].queue.len(), 1);
    }
}
