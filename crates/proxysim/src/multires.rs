//! Two-resource proxy simulation: CPU and network, allocated together
//! (paper §3.2's multi-resource requests and coupled binding, made
//! dynamic).
//!
//! The main simulator follows the paper's §4 simplification ("all proxy
//! server resources are collapsed together into a single general
//! resource"). This module keeps the two dominant resources distinct:
//!
//! - **CPU** demand per request: `a + b·len` (the paper's model),
//! - **network** demand per request: `len / 1 MB` units,
//!
//! served concurrently — a request occupies the server for
//! `max(cpu/cpu_capacity, net/net_capacity)` wall seconds (bottleneck
//! service). Since a redirected request carries *both* demands to the
//! same partner, the scheduler cannot solve two independent LPs; it binds
//! the resources into a composite (`agreements_sched::multi::bind_coupled`)
//! whose per-owner availability is the bottleneck of the two idle
//! capacities, and allocates bundles.

use crate::config::SharingConfig;
use crate::metrics::SimResult;
use agreements_flow::TransitiveFlow;
use agreements_sched::multi::bind_coupled;
use agreements_sched::{AllocationPolicy, CachedLpPolicy, SystemState};
use agreements_trace::{ProxyTrace, ServiceModel, DAY_SECONDS};
use std::collections::VecDeque;
use std::sync::Arc;

/// Configuration for the two-resource simulation.
#[derive(Debug, Clone)]
pub struct MultiResConfig {
    /// Number of proxies.
    pub n: usize,
    /// Per-proxy CPU capacity (work-seconds of CPU per wall second).
    pub cpu_capacity: f64,
    /// Per-proxy network capacity (MB per wall second).
    pub net_capacity: f64,
    /// CPU demand model (the paper's `a + b·len`, capped).
    pub service: ServiceModel,
    /// Scheduling epoch in seconds.
    pub epoch: f64,
    /// Consultation threshold, in epochs of bottleneck backlog.
    pub threshold_epochs: f64,
    /// Sharing setup (`None` disables sharing). The agreement structure
    /// covers both resources (the paper's premise for coupled binding:
    /// bound resources live under the same agreements).
    pub sharing: Option<SharingConfig>,
    /// Warmup days (see the single-resource simulator).
    pub warmup_days: usize,
    /// Drain cap in seconds.
    pub max_drain: f64,
}

impl MultiResConfig {
    /// Network demand of a response, in MB.
    fn net_demand(len: u64) -> f64 {
        len as f64 / 1_000_000.0
    }
}

#[derive(Debug, Clone, Copy)]
struct MrRequest {
    arrival: f64,
    cpu: f64,
    net: f64,
    home: usize,
    redirected: bool,
    measured: bool,
}

impl MrRequest {
    /// Wall-clock service time at the given capacities.
    fn service_time(&self, cpu_cap: f64, net_cap: f64) -> f64 {
        (self.cpu / cpu_cap).max(self.net / net_cap)
    }
}

#[derive(Debug, Clone)]
struct MrProxy {
    queue: VecDeque<MrRequest>,
    server_free_at: f64,
}

impl MrProxy {
    fn pending_wall(&self, now: f64, cpu_cap: f64, net_cap: f64) -> f64 {
        let queued: f64 = self.queue.iter().map(|r| r.service_time(cpu_cap, net_cap)).sum();
        queued + (self.server_free_at - now).max(0.0)
    }

    fn idle_resource(&self, now: f64, h: f64, cpu_cap: f64, net_cap: f64) -> (f64, f64) {
        let busy_wall = self.pending_wall(now, cpu_cap, net_cap).min(h);
        let idle_wall = h - busy_wall;
        (idle_wall * cpu_cap, idle_wall * net_cap)
    }
}

/// Run the two-resource simulation over per-proxy traces.
pub fn run_multires(
    cfg: &MultiResConfig,
    traces: &[ProxyTrace],
) -> Result<SimResult, crate::sim::SimError> {
    use crate::sim::SimError;
    let n = cfg.n;
    if traces.len() != n {
        return Err(SimError::TraceCountMismatch { expected: n, got: traces.len() });
    }
    if cfg.cpu_capacity <= 0.0 || cfg.net_capacity <= 0.0 || cfg.epoch <= 0.0 {
        return Err(SimError::InvalidConfig("capacities and epoch must be positive"));
    }
    // The two per-resource states share one `Arc` snapshot: neither
    // consultation clones the flow matrix, and the composite the binding
    // builds keeps it, so the policy's inflow index is built once a run.
    let (flow, policy): (Option<Arc<TransitiveFlow>>, Option<CachedLpPolicy>) = match &cfg.sharing {
        None => (None, None),
        Some(sh) => {
            if sh.agreements.n() != n {
                return Err(SimError::AgreementMismatch { expected: n, got: sh.agreements.n() });
            }
            (
                Some(Arc::new(TransitiveFlow::compute(&sh.agreements, sh.level))),
                Some(CachedLpPolicy::reduced()),
            )
        }
    };
    let redirect_cost = cfg.sharing.as_ref().map_or(0.0, |s| s.redirect_cost);

    let mut result = SimResult::new(n);
    let mut proxies: Vec<MrProxy> =
        (0..n).map(|_| MrProxy { queue: VecDeque::new(), server_free_at: 0.0 }).collect();
    let mut cursors = vec![0usize; n];
    let days = cfg.warmup_days + 1;
    let measure_from = cfg.warmup_days as f64 * DAY_SECONDS;
    let total_span = days as f64 * DAY_SECONDS;
    let threshold_wall = cfg.threshold_epochs * cfg.epoch;

    let mut t = 0.0f64;
    loop {
        // 1. Admit arrivals.
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
                if arrival >= t + cfg.epoch {
                    break;
                }
                cursors[p] += 1;
                let measured = arrival >= measure_from;
                if measured {
                    result.record_arrival(p, arrival);
                }
                proxies[p].queue.push_back(MrRequest {
                    arrival,
                    cpu: cfg.service.demand(&r),
                    net: MultiResConfig::net_demand(r.response_len),
                    home: p,
                    redirected: false,
                    measured,
                });
            }
            any_left |= cursors[p] < total;
        }

        // 2. Consultations with coupled allocation.
        if let (Some(flow), Some(policy)) = (&flow, &policy) {
            // Idle capacity per resource over one epoch.
            let idles: Vec<(f64, f64)> = proxies
                .iter()
                .map(|p| p.idle_resource(t, cfg.epoch, cfg.cpu_capacity, cfg.net_capacity))
                .collect();
            let cpu_idle: Vec<f64> = idles.iter().map(|x| x.0).collect();
            let net_idle: Vec<f64> = idles.iter().map(|x| x.1).collect();
            for i in 0..n {
                let pending = proxies[i].pending_wall(t, cfg.cpu_capacity, cfg.net_capacity);
                if pending <= threshold_wall {
                    continue;
                }
                result.consultations += 1;
                // Composite: 1 bundle = 1 wall-second of this proxy's
                // mixed service, costing cpu_capacity CPU units and
                // net_capacity MB per bundle.
                let cpu_state = match SystemState::new(flow.clone(), None, cpu_idle.clone()) {
                    Ok(s) => s,
                    Err(_) => continue,
                };
                let net_state = match SystemState::new(flow.clone(), None, net_idle.clone()) {
                    Ok(s) => s,
                    Err(_) => continue,
                };
                let bound = match bind_coupled(&[
                    (&cpu_state, cfg.cpu_capacity),
                    (&net_state, cfg.net_capacity),
                ]) {
                    Ok(b) => b,
                    Err(_) => continue,
                };
                let excess_wall = pending - threshold_wall;
                let alloc = match policy.allocate_up_to(&bound, i, excess_wall) {
                    Ok(a) => a,
                    Err(_) => continue,
                };
                // Move whole requests, heaviest (by wall time) first.
                for (k, want_wall) in alloc.remote_draws() {
                    let moved_wall =
                        move_requests_mr(&mut proxies, i, k, want_wall, redirect_cost, cfg);
                    let _ = moved_wall;
                }
            }
        }

        // 3. Serve.
        for proxy in proxies.iter_mut() {
            let end = t + cfg.epoch;
            if proxy.server_free_at < t {
                proxy.server_free_at = t;
            }
            while proxy.server_free_at < end {
                let Some(req) = proxy.queue.pop_front() else { break };
                let start = proxy.server_free_at.max(req.arrival);
                let wait = (start - req.arrival).max(0.0);
                proxy.server_free_at = start + req.service_time(cfg.cpu_capacity, cfg.net_capacity);
                if req.measured {
                    result.record_service(req.home, req.arrival, wait, req.redirected);
                }
            }
        }

        t += cfg.epoch;
        let done = t >= total_span && !any_left;
        if done {
            let all_idle = proxies.iter().all(|p| p.queue.is_empty() && p.server_free_at <= t);
            if all_idle {
                break;
            }
            if t > total_span + cfg.max_drain {
                result.unserved = proxies.iter().map(|p| p.queue.len()).sum();
                break;
            }
        }
    }
    Ok(result)
}

/// Move up to `want_wall` wall-seconds of service from `from` to `to`,
/// heaviest requests first, charging `cost` extra CPU per move.
fn move_requests_mr(
    proxies: &mut [MrProxy],
    from: usize,
    to: usize,
    want_wall: f64,
    cost: f64,
    cfg: &MultiResConfig,
) -> f64 {
    let mut candidates: Vec<(usize, f64)> = proxies[from]
        .queue
        .iter()
        .enumerate()
        .filter(|(_, r)| !r.redirected)
        .map(|(idx, r)| (idx, r.service_time(cfg.cpu_capacity, cfg.net_capacity)))
        .collect();
    candidates.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
    let mut moved = 0.0;
    let mut take: Vec<usize> = Vec::new();
    for (idx, wall) in candidates {
        if moved + wall <= want_wall + 1e-9 {
            take.push(idx);
            moved += wall;
        }
        if moved >= want_wall - 1e-9 {
            break;
        }
    }
    if take.is_empty() {
        return 0.0;
    }
    take.sort_unstable();
    let mut kept = VecDeque::with_capacity(proxies[from].queue.len());
    let mut iter = take.iter().peekable();
    for (idx, r) in std::mem::take(&mut proxies[from].queue).into_iter().enumerate() {
        if iter.peek() == Some(&&idx) {
            iter.next();
            proxies[to].queue.push_back(MrRequest { cpu: r.cpu + cost, redirected: true, ..r });
        } else {
            kept.push_back(r);
        }
    }
    proxies[from].queue = kept;
    moved
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PolicyKind;
    use agreements_flow::AgreementMatrix;
    use agreements_trace::Request;

    fn burst(proxy: usize, t0: f64, count: usize, spacing: f64, len: u64) -> ProxyTrace {
        ProxyTrace {
            proxy,
            requests: (0..count)
                .map(|i| Request { arrival: t0 + i as f64 * spacing, response_len: len })
                .collect(),
        }
    }

    fn cfg(n: usize, sharing: bool) -> MultiResConfig {
        let sharing = sharing.then(|| {
            let mut s = AgreementMatrix::zeros(n);
            for i in 0..n {
                for j in 0..n {
                    if i != j {
                        s.set(i, j, 0.4).unwrap();
                    }
                }
            }
            SharingConfig {
                agreements: s,
                level: n - 1,
                policy: PolicyKind::Lp,
                redirect_cost: 0.0,
                schedule: Vec::new(),
            }
        });
        MultiResConfig {
            n,
            cpu_capacity: 1.0,
            net_capacity: 1.0, // 1 MB/s
            service: ServiceModel::PAPER,
            epoch: 10.0,
            threshold_epochs: 1.0,
            sharing,
            warmup_days: 0,
            max_drain: 4.0 * 86_400.0,
        }
    }

    #[test]
    fn serves_everything_and_conserves() {
        let traces = vec![burst(0, 0.0, 80, 1.0, 500_000), burst(1, 10.0, 40, 2.0, 100_000)];
        let r = run_multires(&cfg(2, false), &traces).unwrap();
        assert!(r.is_stable());
        assert_eq!(r.served, 120);
    }

    #[test]
    fn network_bound_requests_use_net_capacity() {
        // 2 MB responses at 1 MB/s: 2 s of net, only 0.1 + 2e-6*... of
        // cpu — service is network-bound at 2 s each.
        let traces = vec![burst(0, 0.0, 5, 100.0, 2_000_000)];
        let r = run_multires(&cfg(1, false), &traces).unwrap();
        assert!(r.is_stable());
        assert!(r.avg_wait() < 0.01, "spaced out: no queueing");
        // Same but arriving every second: each waits behind ~2 s services.
        let traces = vec![burst(0, 0.0, 5, 1.0, 2_000_000)];
        let r = run_multires(&cfg(1, false), &traces).unwrap();
        assert!(r.avg_wait() > 1.0, "network bottleneck queues: {}", r.avg_wait());
    }

    #[test]
    fn coupled_sharing_offloads_both_resources() {
        // Proxy 0 slammed with network-heavy work; proxy 1 idle.
        let traces = vec![burst(0, 0.0, 120, 1.0, 2_000_000), burst(1, 0.0, 0, 1.0, 0)];
        let alone = run_multires(&cfg(2, false), &traces).unwrap();
        let shared = run_multires(&cfg(2, true), &traces).unwrap();
        assert!(shared.redirected > 0, "bundles moved");
        assert!(
            shared.avg_wait() < alone.avg_wait() * 0.8,
            "shared {} vs alone {}",
            shared.avg_wait(),
            alone.avg_wait()
        );
    }

    #[test]
    fn validation_errors() {
        let traces = vec![burst(0, 0.0, 1, 1.0, 1000)];
        assert!(run_multires(&cfg(2, false), &traces).is_err(), "trace count");
        let mut bad = cfg(1, false);
        bad.net_capacity = 0.0;
        assert!(run_multires(&bad, &traces).is_err());
    }

    #[test]
    fn deterministic() {
        let traces = vec![burst(0, 0.0, 60, 1.0, 1_500_000), burst(1, 5.0, 10, 3.0, 200_000)];
        let a = run_multires(&cfg(2, true), &traces).unwrap();
        let b = run_multires(&cfg(2, true), &traces).unwrap();
        assert_eq!(a.served, b.served);
        assert!((a.total_wait - b.total_wait).abs() < 1e-9);
    }
}
