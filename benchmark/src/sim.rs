//! `sim10`: the paper's §4 case study in-process, on one thread, with no
//! mailbox, socket or journal — the single-node baseline. Alternates the
//! Figure 6 run (complete 10 %, level 9, LP policy, one-hour gap) with
//! Figure 12's renegotiation run at the experiments' full scale.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use agreements_experiments as exp;
use agreements_flow::Structure;
use agreements_proxysim::{
    AgreementEvent, PolicyKind, SharingConfig, SimConfig, SimResult, Simulator,
};
use agreements_sched::{Allocation, AllocationPolicy, CachedLpPolicy, SchedError, SystemState};
use agreements_telemetry::Telemetry;
use agreements_trace::{ProxyTrace, ResponseLenDist, TraceConfig};

use crate::stats::{fnv_f64, FNV_BASIS};

/// The fingerprint `tests/paper_shapes.rs` pins for the reduced Figure 6
/// configuration; reproduced once per run as a cross-check that the
/// benchmark drives the same simulator the tier-1 tests do.
pub const REDUCED_FIG06_GOLDEN: u64 = 0x71ea_81b7_02f1_13b8;

/// The two alternated run kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Static,
    Fluctuating,
}

/// Figure 12's schedule: every two hours one ISP resets all nine of its
/// outgoing shares, alternating 5 % and 15 % around the static 10 %.
pub fn renegotiation_schedule() -> Vec<AgreementEvent> {
    let mut schedule = Vec::new();
    for cycle in 0..12 {
        let at = cycle as f64 * 7200.0;
        let isp = cycle % exp::N_PROXIES;
        let share = if cycle % 2 == 0 { 0.05 } else { 0.15 };
        for j in (0..exp::N_PROXIES).filter(|&j| j != isp) {
            schedule.push(AgreementEvent { at, from: isp, to: j, share });
        }
    }
    schedule
}

/// What a consultation — the simulator's allocation decision — cost and
/// whether it placed anything.
#[derive(Default)]
pub struct Consultations {
    pub latency_ms: Vec<f64>,
    pub placed: u64,
}

/// The simulator's own LP policy with a stopwatch around each
/// consultation; decisions pass through untouched.
struct TimedPolicy {
    inner: CachedLpPolicy,
    seen: Arc<Mutex<Consultations>>,
}

impl AllocationPolicy for TimedPolicy {
    fn allocate(
        &self,
        state: &SystemState,
        requester: usize,
        x: f64,
    ) -> Result<Allocation, SchedError> {
        self.inner.allocate(state, requester, x)
    }

    fn allocate_up_to(
        &self,
        state: &SystemState,
        requester: usize,
        x: f64,
    ) -> Result<Allocation, SchedError> {
        let t = Instant::now();
        let out = self.inner.allocate_up_to(state, requester, x);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let mut seen = self.seen.lock().expect("single-threaded simulator");
        seen.latency_ms.push(ms);
        seen.placed += u64::from(matches!(&out, Ok(a) if a.amount > 0.0));
        out
    }

    fn begin_run(&self) {
        self.inner.begin_run();
    }

    fn set_telemetry(&self, telemetry: &Telemetry) {
        self.inner.set_telemetry(telemetry);
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// The inputs and the two simulators, built once in set-up.
pub struct Sim10 {
    traces: Vec<ProxyTrace>,
    statics: Simulator,
    fluctuating: Simulator,
    pub seen: Arc<Mutex<Consultations>>,
    pub generate_ms: f64,
}

fn sharing(schedule: Vec<AgreementEvent>) -> SharingConfig {
    SharingConfig {
        agreements: exp::complete_10pct(),
        level: exp::N_PROXIES - 1,
        policy: PolicyKind::Lp,
        redirect_cost: 0.0,
        schedule,
    }
}

impl Sim10 {
    pub fn set_up(seed: u64, telemetry: &Telemetry) -> Sim10 {
        let t = Instant::now();
        let traces =
            TraceConfig::paper(exp::REQUESTS_PER_DAY, seed).generate(exp::N_PROXIES, exp::HOUR);
        let generate_ms = t.elapsed().as_secs_f64() * 1e3;
        let seen = Arc::new(Mutex::new(Consultations::default()));
        let build = |schedule| {
            let policy = TimedPolicy { inner: CachedLpPolicy::reduced(), seen: Arc::clone(&seen) };
            let cfg = exp::base_config().with_sharing(sharing(schedule));
            let mut sim = Simulator::with_policy(cfg, Box::new(policy)).expect("valid config");
            sim.set_telemetry(telemetry.clone());
            sim
        };
        Sim10 {
            statics: build(Vec::new()),
            fluctuating: build(renegotiation_schedule()),
            traces,
            seen: Arc::clone(&seen),
            generate_ms,
        }
    }

    /// Simulated proxy requests one run processes (warm-up day included).
    pub fn requests_per_run(&self) -> u64 {
        let per_day: usize = self.traces.iter().map(|t| t.requests.len()).sum();
        (per_day * (exp::base_config().warmup_days + 1)) as u64
    }

    pub fn run(&self, kind: Kind) -> SimResult {
        let sim = match kind {
            Kind::Static => &self.statics,
            Kind::Fluctuating => &self.fluctuating,
        };
        sim.run(&self.traces).expect("traces match the configuration")
    }
}

/// Fingerprint of the plotted proxy's per-slot average-wait and redirect
/// series, the fold `golden_fig06_series_checksum` uses.
pub fn fingerprint(result: &SimResult) -> u64 {
    let p = exp::PLOTTED_PROXY;
    let mut sum = FNV_BASIS;
    for w in result.proxy_avg_wait_series(p) {
        sum = fnv_f64(sum, w);
    }
    for slot in &result.proxy_slots[p] {
        sum = fnv_f64(sum, slot.redirected as f64);
    }
    sum
}

/// The reduced Figure 6 configuration of `tests/paper_shapes.rs`.
pub fn reduced_fig06_fingerprint() -> u64 {
    const REQUESTS: usize = 20_000;
    let n = exp::N_PROXIES;
    let mut traces = TraceConfig::paper(REQUESTS, 99);
    traces.lengths = ResponseLenDist { tail_prob: 0.0, ..ResponseLenDist::web1996() };
    let mut cfg = SimConfig::calibrated(n, REQUESTS, 0.105, 1.05);
    cfg.epoch = 60.0;
    cfg.threshold_epochs = 1.0;
    let cfg = cfg.with_sharing(SharingConfig {
        agreements: Structure::Complete { n, share: 0.10 }.build().expect("valid structure"),
        level: n - 1,
        policy: PolicyKind::Lp,
        redirect_cost: 0.0,
        schedule: Vec::new(),
    });
    let result = Simulator::new(cfg)
        .expect("valid config")
        .run(&traces.generate(n, exp::HOUR))
        .expect("traces match the configuration");
    fingerprint(&result)
}
