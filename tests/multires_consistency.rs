//! The two-resource simulator must degenerate to the single-resource one
//! when the network is effectively infinite: service times, thresholds,
//! scheduling, and redirection all coincide (at unit CPU capacity the
//! bundle unit equals a work-second). A golden fingerprint pins one
//! coupled two-resource run bit for bit.

use sharing_agreements::flow::Structure;
use sharing_agreements::proxysim::{
    run_multires, MultiResConfig, PolicyKind, SharingConfig, SimConfig, Simulator,
};
use sharing_agreements::trace::{ProxyTrace, Request, ServiceModel, TraceConfig};

fn burst(proxy: usize, t0: f64, count: usize, spacing: f64, len: u64) -> ProxyTrace {
    ProxyTrace {
        proxy,
        requests: (0..count)
            .map(|i| Request { arrival: t0 + i as f64 * spacing, response_len: len })
            .collect(),
    }
}

fn sharing(n: usize) -> SharingConfig {
    SharingConfig {
        agreements: Structure::Complete { n, share: 0.4 }.build().unwrap(),
        level: n - 1,
        policy: PolicyKind::Lp,
        redirect_cost: 0.0,
        schedule: Vec::new(),
    }
}

#[test]
fn multires_degenerates_to_single_resource() {
    const N: usize = 3;
    let traces = vec![
        burst(0, 0.0, 120, 1.0, 1_900_000),
        burst(1, 30.0, 40, 2.0, 400_000),
        burst(2, 0.0, 0, 1.0, 0),
    ];

    let single_cfg = SimConfig {
        n: N,
        capacity: 1.0,
        per_proxy_capacity: None,
        epoch: 10.0,
        threshold_epochs: 1.0,
        horizon_epochs: 1.0,
        service: ServiceModel::PAPER,
        sharing: Some(sharing(N)),
        max_drain: 4.0 * 86_400.0,
        warmup_days: 0,
        record_decisions: false,
        discipline: sharing_agreements::proxysim::QueueDiscipline::Fifo,
    };
    let single = Simulator::new(single_cfg).unwrap().run(&traces).unwrap();

    let multi_cfg = MultiResConfig {
        n: N,
        cpu_capacity: 1.0,
        net_capacity: 1e12, // network never binds
        service: ServiceModel::PAPER,
        epoch: 10.0,
        threshold_epochs: 1.0,
        sharing: Some(sharing(N)),
        warmup_days: 0,
        max_drain: 4.0 * 86_400.0,
    };
    let multi = run_multires(&multi_cfg, &traces).unwrap();

    assert_eq!(single.served, multi.served);
    assert!(single.redirected > 0, "sharing exercised");
    assert_eq!(single.redirected, multi.redirected);
    assert_eq!(single.consultations, multi.consultations);
    assert!(
        (single.total_wait - multi.total_wait).abs() < 1e-6,
        "waits diverged: single {} vs multi {}",
        single.total_wait,
        multi.total_wait
    );
}

/// FNV-1a over f64 bit patterns: the repo's determinism fingerprint.
fn fnv_f64(acc: u64, v: f64) -> u64 {
    (acc ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
}

/// Golden fingerprint of a two-resource run with coupled sharing: every
/// proxy's per-slot waits and redirects plus the run totals, folded.
/// Holds the coupled consultation loop to the bits the stateless
/// `LpPolicy` produced, whichever allocation solver serves it.
#[test]
fn golden_multires_run_checksum() {
    const N: usize = 10;
    const REQUESTS: usize = 20_000;
    let traces = TraceConfig::paper(REQUESTS, 99).generate(N, 3600.0);
    let base = SimConfig::calibrated(N, REQUESTS, 0.105, 1.05);
    let cfg = MultiResConfig {
        n: N,
        cpu_capacity: base.capacity,
        net_capacity: base.capacity * 0.5, // tail responses bind here
        service: ServiceModel::PAPER,
        epoch: 60.0,
        threshold_epochs: 1.0,
        sharing: Some(SharingConfig {
            agreements: Structure::Complete { n: N, share: 0.10 }.build().unwrap(),
            level: N - 1,
            policy: PolicyKind::Lp,
            redirect_cost: 0.0,
            schedule: Vec::new(),
        }),
        warmup_days: 0,
        max_drain: 4.0 * 86_400.0,
    };
    let r = run_multires(&cfg, &traces).unwrap();
    assert!(r.consultations > 0 && r.redirected > 0, "sharing exercised");
    let mut sum = 0xcbf2_9ce4_8422_2325;
    for slots in &r.proxy_slots {
        for s in slots {
            let redirected = s.redirected as f64;
            for v in [s.arrivals as f64, s.served as f64, s.total_wait, s.max_wait, redirected] {
                sum = fnv_f64(sum, v);
            }
        }
    }
    for v in [r.served, r.redirected, r.consultations, r.unserved] {
        sum = fnv_f64(sum, v as f64);
    }
    sum = fnv_f64(fnv_f64(sum, r.total_wait), r.worst_wait);
    assert_eq!(
        sum, 0xe8f2_4bf6_2661_46d2,
        "multires run fingerprint drifted: got {sum:#018x} \
         (re-pin only if the change to the pipeline is intentional)"
    );
}
