//! Scaled-down regression tests for the paper's headline shapes. These
//! run the real simulator at a reduced volume (same calibrated peak
//! utilization), so they assert orderings and rough factors rather than
//! absolute seconds.

use sharing_agreements::flow::{PartitionOptions, Structure};
use sharing_agreements::proxysim::{
    AgreementEvent, PolicyKind, SharingConfig, SimConfig, SimResult, Simulator,
};
use sharing_agreements::sched::hierarchy::HierarchicalScheduler;
use sharing_agreements::sched::SchedError;
use sharing_agreements::telemetry::{HistKind, Telemetry};
use sharing_agreements::trace::{ProxyTrace, ResponseLenDist, ScaleConfig, TraceConfig};

const N: usize = 10;
const REQUESTS: usize = 20_000;
const HOUR: f64 = 3600.0;

/// Test workload: the diurnal shape without the Pareto tail, so that at
/// this reduced volume single heavy requests don't dominate the waits and
/// per-consultation entitlements (share × capacity × epoch) still exceed
/// a typical request's demand. The full-scale experiments keep the tail.
fn traces(gap: f64) -> Vec<ProxyTrace> {
    let mut cfg = TraceConfig::paper(REQUESTS, 99);
    cfg.lengths = ResponseLenDist { tail_prob: 0.0, ..ResponseLenDist::web1996() };
    cfg.generate(N, gap)
}

fn base() -> SimConfig {
    let mut cfg = SimConfig::calibrated(N, REQUESTS, 0.105, 1.05);
    cfg.epoch = 60.0;
    cfg.threshold_epochs = 1.0;
    cfg
}

fn run(sharing: Option<SharingConfig>, gap: f64) -> SimResult {
    let mut cfg = base();
    if let Some(s) = sharing {
        cfg = cfg.with_sharing(s);
    }
    Simulator::new(cfg).unwrap().run(&traces(gap)).unwrap()
}

fn complete_sharing(level: usize) -> SharingConfig {
    SharingConfig {
        agreements: Structure::Complete { n: N, share: 0.10 }.build().unwrap(),
        level,
        policy: PolicyKind::Lp,
        redirect_cost: 0.0,
        schedule: Vec::new(),
    }
}

fn loop_sharing(skip: usize, level: usize) -> SharingConfig {
    SharingConfig {
        agreements: Structure::Loop { n: N, share: 0.80, skip }.build().unwrap(),
        level,
        policy: PolicyKind::Lp,
        redirect_cost: 0.0,
        schedule: Vec::new(),
    }
}

/// The plotted "particular ISP" (see experiments crate): proxy 9, whose
/// loop donor chain does not wrap the ring.
const P: usize = 9;

/// Figure 5/6: the diurnal peak exists without sharing and collapses by
/// a large factor with skewed sharing.
#[test]
fn sharing_with_skew_collapses_the_peak() {
    let alone = run(None, HOUR);
    let shared = run(Some(complete_sharing(N - 1)), HOUR);
    assert!(alone.is_stable() && shared.is_stable());
    let peak_alone = alone.proxy_peak_slot_avg_wait(P);
    let peak_shared = shared.proxy_peak_slot_avg_wait(P);
    assert!(
        peak_alone > 8.0 * peak_shared.max(0.1),
        "peak {peak_alone:.1} vs shared {peak_shared:.1}"
    );
    assert!(shared.redirected > 0);
}

/// Figure 6: zero skew means no idle partners, so sharing changes nothing.
#[test]
fn zero_skew_sharing_is_inert() {
    let alone = run(None, 0.0);
    let shared = run(Some(complete_sharing(N - 1)), 0.0);
    assert!((alone.avg_wait() - shared.avg_wait()).abs() < 1e-6);
    assert_eq!(shared.redirected, 0);
}

/// Figures 9–11: at transitivity level 1, the loop with a closer (more
/// load-correlated) neighbour waits longer; higher levels converge.
#[test]
fn loop_skip_ordering_at_level_one() {
    let skip1 = run(Some(loop_sharing(1, 1)), HOUR);
    let skip3 = run(Some(loop_sharing(3, 1)), HOUR);
    let skip7 = run(Some(loop_sharing(7, 1)), HOUR);
    let (w1, w3, w7) = (skip1.proxy_avg_wait(P), skip3.proxy_avg_wait(P), skip7.proxy_avg_wait(P));
    assert!(w1 > w3, "skip1 {w1:.2} should exceed skip3 {w3:.2}");
    assert!(w3 > w7 * 0.8, "skip3 {w3:.2} vs skip7 {w7:.2}");
    assert!(w1 > 3.0 * w7, "spread should be large: {w1:.2} vs {w7:.2}");
}

/// Figures 9–11: adding transitivity levels rescues the tight loop.
#[test]
fn transitivity_rescues_the_tight_loop() {
    let l1 = run(Some(loop_sharing(1, 1)), HOUR);
    let l9 = run(Some(loop_sharing(1, 9)), HOUR);
    assert!(
        l1.proxy_avg_wait(P) > 3.0 * l9.proxy_avg_wait(P),
        "level 1 {:.2} vs level 9 {:.2}",
        l1.proxy_avg_wait(P),
        l9.proxy_avg_wait(P)
    );
}

/// Figure 12: the paper's redirect-cost regime — few requests redirected,
/// so a 0.2 s overhead has modest impact.
#[test]
fn redirect_cost_impact_is_modest() {
    let free = run(Some(complete_sharing(N - 1)), HOUR);
    let mut costly_cfg = complete_sharing(N - 1);
    costly_cfg.redirect_cost = 0.2;
    let costly = run(Some(costly_cfg), HOUR);
    // "Few" is a regime, not a constant: the exact fraction moves with
    // the RNG stream backing the trace (~3% with the vendored rand).
    assert!(free.redirect_fraction() < 0.05, "{}", free.redirect_fraction());
    // Near saturation (peak rho 1.05) waits amplify small perturbations,
    // so the tolerable ratio is generous; the real claim is "nowhere near
    // the order-of-magnitude loss of not sharing at all".
    assert!(
        costly.proxy_avg_wait(P) < 2.0 * free.proxy_avg_wait(P).max(0.5),
        "cost 0.2: {:.2} vs free {:.2}",
        costly.proxy_avg_wait(P),
        free.proxy_avg_wait(P)
    );
}

/// FNV-1a over f64 bit patterns: the repo's determinism fingerprint.
fn fnv_f64(acc: u64, v: f64) -> u64 {
    (acc ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
}

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// The plotted proxy's per-slot average-wait and redirect series, folded.
fn series_fnv(result: &SimResult) -> u64 {
    let mut sum = FNV_BASIS;
    for w in result.proxy_avg_wait_series(P) {
        sum = fnv_f64(sum, w);
    }
    for slot in &result.proxy_slots[P] {
        sum = fnv_f64(sum, slot.redirected as f64);
    }
    sum
}

/// Golden fingerprint of the Figure 6 series: the plotted proxy's
/// per-slot average-wait and redirect series under complete sharing must
/// reproduce bit-for-bit. Any change to the trace generator, the
/// simulator's event order, or the LP pivoting shows up here before it
/// silently moves a published figure.
#[test]
fn golden_fig06_series_checksum() {
    let sum = series_fnv(&run(Some(complete_sharing(N - 1)), HOUR));
    assert_eq!(
        sum, 0x71ea_81b7_02f1_13b8,
        "fig06 series fingerprint drifted: got {sum:#018x} \
         (re-pin only if the change to the pipeline is intentional)"
    );
}

/// Golden fingerprint of Figure 12's renegotiation run on the reduced
/// Figure 6 configuration: every two hours one ISP resets all nine of its
/// outgoing shares at the same instant, alternating 5 % and 15 % around
/// the static 10 %; cycles 10 and 11 repeat cycles 0 and 1, so their
/// edits are no-ops. Holds the closure walk and the per-epoch flow repair
/// to the bits the per-edit repair produced.
#[test]
fn golden_fig12_fluctuating_checksum() {
    let mut schedule = Vec::new();
    for cycle in 0..12 {
        let isp = cycle % N;
        let share = if cycle % 2 == 0 { 0.05 } else { 0.15 };
        for to in (0..N).filter(|&to| to != isp) {
            schedule.push(AgreementEvent { at: cycle as f64 * 7200.0, from: isp, to, share });
        }
    }
    let sharing = complete_sharing(N - 1).with_schedule(schedule);
    let (telemetry, recorder) = Telemetry::recorder(0);
    let mut sim = Simulator::new(base().with_sharing(sharing)).unwrap();
    sim.set_telemetry(telemetry);
    let sum = series_fnv(&sim.run(&traces(HOUR)).unwrap());
    assert_eq!(
        sum, 0x95d9_af3c_3fb9_f154,
        "fig12 series fingerprint drifted: got {sum:#018x} \
         (re-pin only if the change to the pipeline is intentional)"
    );
    // One repair per epoch with an effective edit: the nine same-instant
    // edits of a cycle are one batch, and the two repeated cycles are none.
    let snap = recorder.snapshot();
    assert_eq!(snap.counter("flow.repairs"), 10);
    let dirty = snap.histogram(HistKind::FlowDirtyRows).expect("repairs were observed");
    assert_eq!((dirty.count, dirty.sum), (10, 100.0), "each repair re-walks all ten rows once");
}

/// Golden fingerprint of the fixed-seed scale run at n = 100: the same
/// hourly-refresh replay the `scale` experiment binary performs, with
/// every granted draw folded into the checksum. Locks the auto
/// partitioner, the multigrid scheduler, and the workload generator
/// together end to end.
#[test]
fn golden_scale_run_checksum_at_n100() {
    const SEED: u64 = 20_000;
    let cfg = ScaleConfig::isp(100, 2_000, SEED);
    let workload = cfg.generate();
    let s = cfg.agreements().unwrap();
    let sched = HierarchicalScheduler::auto(&s, &PartitionOptions::default(), 1).unwrap();

    let base = workload.availability.clone();
    let mut avail = base.clone();
    let mut hour = 0usize;
    let (mut admitted, mut denied) = (0usize, 0usize);
    let mut sum = FNV_BASIS;
    for d in &workload.demands {
        while d.t >= (hour + 1) as f64 * HOUR {
            hour += 1;
            avail.copy_from_slice(&base);
        }
        match sched.allocate(&avail, d.requester, d.amount) {
            Ok(alloc) => {
                for (v, &dr) in avail.iter_mut().zip(&alloc.draws) {
                    *v -= dr;
                    sum = fnv_f64(sum, dr);
                }
                admitted += 1;
            }
            Err(SchedError::InsufficientCapacity { .. }) => denied += 1,
            Err(e) => panic!("scale replay failed: {e}"),
        }
    }
    assert_eq!(admitted + denied, 2_000);
    assert!(admitted > denied, "workload should be mostly admissible");
    assert_eq!(
        sum, 0x72e6_1c1e_adb4_20c1,
        "scale-run fingerprint drifted: got {sum:#018x} \
         (re-pin only if the change to the pipeline is intentional)"
    );
}

/// Figure 13: the LP scheme beats proportional end-point enforcement at
/// the peak.
#[test]
fn lp_beats_endpoint_at_peak() {
    let agreements = Structure::figure13(N).build().unwrap();
    let mk = |policy| SharingConfig {
        agreements: agreements.clone(),
        level: N - 1,
        policy,
        redirect_cost: 0.0,
        schedule: Vec::new(),
    };
    let lp = run(Some(mk(PolicyKind::Lp)), HOUR);
    let ep = run(Some(mk(PolicyKind::Proportional)), HOUR);
    assert!(
        lp.proxy_peak_slot_avg_wait(P) < ep.proxy_peak_slot_avg_wait(P),
        "lp {:.2} vs endpoint {:.2}",
        lp.proxy_peak_slot_avg_wait(P),
        ep.proxy_peak_slot_avg_wait(P)
    );
}

/// Golden fingerprints of the fixed-seed *multi-resource* scale run at
/// n = 100: the same day replay `multires_scale` performs, through the
/// lane-conjunctive [`MultiAdmission`] path, with every granted draw in
/// every lane folded into the draws checksum and every hourly epoch's
/// dominant shares and envy counts folded into the fairness checksum.
/// Locks the workload expansion, the per-lane multigrid schedulers, the
/// binding-resource attribution, and the DRF fairness series together
/// end to end. The single-resource goldens above must not move when
/// this path changes — and vice versa.
#[test]
fn golden_multires_scale_checksums_at_n100() {
    use agreements_experiments::multires::{build_admission, run_multi_day};
    use sharing_agreements::telemetry::Telemetry;
    use sharing_agreements::trace::MultiScaleConfig;

    const SEED: u64 = 20_000;
    let cfg = MultiScaleConfig::isp_multi(100, 2_000, SEED);
    let workload = cfg.generate();
    let adm = build_admission(&cfg);
    // check = true: the replay audits every epoch's fairness report and
    // per-lane conservation inline, so this golden also re-runs the
    // checker battery over the real day.
    let r = run_multi_day(&adm, &workload, &Telemetry::default(), true);

    assert_eq!(r.admitted + r.denied, 2_000);
    assert!(r.admitted > r.denied, "workload should be mostly admissible");
    assert_eq!(r.denied_by_lane.iter().sum::<usize>(), r.denied);
    assert_eq!(r.epochs.len(), 24, "one fairness epoch per hour");
    assert_eq!(
        r.draws_checksum, 0xafc6_3d73_4075_4461,
        "multires draws fingerprint drifted: got {:#018x} \
         (re-pin only if the change to the pipeline is intentional)",
        r.draws_checksum
    );
    assert_eq!(
        r.fairness_checksum, 0xa1ab_2ebc_5d15_0dbb,
        "multires fairness fingerprint drifted: got {:#018x} \
         (re-pin only if the change to the pipeline is intentional)",
        r.fairness_checksum
    );
}
