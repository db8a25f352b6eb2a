//! Full circle: the web-proxy case study scheduled through a **live GRM**
//! (availability reports + allocation RPCs through its handle)
//! produces exactly the same simulation as the in-process LP
//! policy. This is the paper's architecture claim made executable: the
//! GRM service boundary adds no scheduling difference, only distribution.
//!
//! The same scenario also pins the telemetry plane's overhead contract:
//! threading an explicit no-op sink through the whole stack is
//! bit-identical to not wiring telemetry at all, and attaching a live
//! recorder observes the run without changing a single result.

use sharing_agreements::flow::Structure;
use sharing_agreements::grm::{GrmBackedPolicy, GrmServer};
use sharing_agreements::proxysim::{PolicyKind, SharingConfig, SimConfig, Simulator};
use sharing_agreements::telemetry::{HistKind, Telemetry, DEFAULT_EVENT_CAPACITY};
use sharing_agreements::trace::{ProxyTrace, ResponseLenDist, TraceConfig};

const N: usize = 6;
const REQUESTS: usize = 8_000;

fn scenario() -> (Vec<ProxyTrace>, SimConfig) {
    let mut tcfg = TraceConfig::paper(REQUESTS, 31);
    tcfg.lengths = ResponseLenDist { tail_prob: 0.0, ..ResponseLenDist::web1996() };
    let traces = tcfg.generate(N, 3600.0);

    let agreements = Structure::Complete { n: N, share: 0.15 }.build().unwrap();
    let sharing = SharingConfig {
        agreements,
        level: N - 1,
        policy: PolicyKind::Lp,
        redirect_cost: 0.0,
        schedule: Vec::new(),
    };
    let mut cfg = SimConfig::calibrated(N, REQUESTS, 0.105, 1.04);
    cfg.epoch = 60.0;
    cfg.threshold_epochs = 1.0;
    (traces, cfg.with_sharing(sharing))
}

#[test]
fn simulation_through_live_grm_matches_in_process() {
    let (traces, cfg) = scenario();
    let agreements = cfg.sharing.as_ref().unwrap().agreements.clone();

    // In-process LP.
    let local = Simulator::new(cfg.clone()).unwrap().run(&traces).unwrap();

    // Through the GRM service boundary.
    let grm = GrmServer::spawn(agreements, N - 1);
    let sim = Simulator::with_policy(cfg, Box::new(GrmBackedPolicy::new(grm.handle()))).unwrap();
    let remote = sim.run(&traces).unwrap();
    grm.shutdown();

    assert!(remote.redirected > 0, "sharing actually happened");
    assert_eq!(local.served, remote.served);
    assert_eq!(local.redirected, remote.redirected);
    assert_eq!(local.consultations, remote.consultations);
    assert!(
        (local.total_wait - remote.total_wait).abs() < 1e-6,
        "waits diverged: local {} vs GRM {}",
        local.total_wait,
        remote.total_wait
    );
}

#[test]
fn with_policy_requires_sharing_config() {
    let cfg = SimConfig::calibrated(2, 100, 0.1, 1.0);
    let grm = GrmServer::spawn(Structure::Complete { n: 2, share: 0.5 }.build().unwrap(), 1);
    let res = Simulator::with_policy(cfg, Box::new(GrmBackedPolicy::new(grm.handle())));
    assert!(res.is_err());
    grm.shutdown();
}

/// The telemetry overhead contract, executable: an explicitly attached
/// no-op sink is **bit-identical** to never wiring telemetry (same
/// counters, `f64` results equal to the bit), and a live recorder is
/// purely observational — identical results, plus a populated snapshot.
#[test]
fn noop_telemetry_is_bit_identical() {
    let (traces, cfg) = scenario();
    let agreements = cfg.sharing.as_ref().unwrap().agreements.clone();

    // Baseline: telemetry never mentioned anywhere.
    let grm = GrmServer::spawn(agreements.clone(), N - 1);
    let sim =
        Simulator::with_policy(cfg.clone(), Box::new(GrmBackedPolicy::new(grm.handle()))).unwrap();
    let plain = sim.run(&traces).unwrap();
    let plain_stats = grm.handle().stats().unwrap();
    grm.shutdown();

    // The disabled sink threaded through the GRM server, incremental
    // flow, solver, and simulator.
    let grm = GrmServer::spawn_with_telemetry(agreements.clone(), N - 1, Telemetry::default());
    let mut sim =
        Simulator::with_policy(cfg.clone(), Box::new(GrmBackedPolicy::new(grm.handle()))).unwrap();
    sim.set_telemetry(Telemetry::default());
    let disabled = sim.run(&traces).unwrap();
    let disabled_stats = grm.handle().stats().unwrap();
    grm.shutdown();

    assert_eq!(plain.served, disabled.served);
    assert_eq!(plain.redirected, disabled.redirected);
    assert_eq!(plain.consultations, disabled.consultations);
    assert_eq!(
        plain.total_wait.to_bits(),
        disabled.total_wait.to_bits(),
        "no-op sink perturbed total_wait: {} vs {}",
        plain.total_wait,
        disabled.total_wait
    );
    assert_eq!(plain_stats, disabled_stats, "no-op sink perturbed GRM stats");

    // A live recorder watches the identical run.
    let (telemetry, recorder) = Telemetry::recorder(DEFAULT_EVENT_CAPACITY);
    let grm = GrmServer::spawn_with_telemetry(agreements, N - 1, telemetry.clone());
    let mut sim =
        Simulator::with_policy(cfg, Box::new(GrmBackedPolicy::new(grm.handle()))).unwrap();
    sim.set_telemetry(telemetry);
    let recorded = sim.run(&traces).unwrap();
    let recorded_stats = grm.handle().stats().unwrap();
    grm.shutdown();

    assert_eq!(plain.served, recorded.served);
    assert_eq!(plain.redirected, recorded.redirected);
    assert_eq!(plain.consultations, recorded.consultations);
    assert_eq!(plain.total_wait.to_bits(), recorded.total_wait.to_bits());
    assert_eq!(plain_stats, recorded_stats, "recording perturbed GRM stats");

    let snap = recorder.snapshot();
    assert!(snap.counter("grm.requests") > 0, "recorder saw GRM traffic");
    assert!(snap.counter("proxysim.consultations") > 0, "recorder saw epochs");
    let hist = snap.histogram(HistKind::RequestLatencySeconds).expect("latency histogram");
    assert!(hist.count > 0, "request latency was timed");
}
