//! Cross-crate integration: the ticket/currency *expression* layer and
//! the matrix/flow *enforcement* layer must tell the same story about who
//! can reach what.

use sharing_agreements::flow::{
    capacities, AgreementMatrix, IncrementalFlow, Structure, TransitiveFlow,
};
use sharing_agreements::sched::{AllocationPolicy, AllocationSolver, LpPolicy, SystemState};
use sharing_agreements::telemetry::{
    HistKind, Snapshot, Telemetry, TelemetryEvent, DEFAULT_EVENT_CAPACITY,
};
use sharing_agreements::ticket::{AgreementNature, Economy, PrincipalId, ResourceId};

/// Build an economy and the equivalent agreement matrix from the same
/// description: `deposits[i]` units for principal `i`, plus relative
/// sharing edges `(from, to, share)`.
fn build_both(
    deposits: &[f64],
    edges: &[(usize, usize, f64)],
) -> (Economy, ResourceId, AgreementMatrix, Vec<f64>) {
    let n = deposits.len();
    let mut eco = Economy::new();
    let r = eco.add_resource("res");
    let ps: Vec<PrincipalId> = (0..n).map(|i| eco.add_principal(&format!("P{i}"))).collect();
    for (i, &d) in deposits.iter().enumerate() {
        if d > 0.0 {
            eco.deposit_resource(eco.default_currency(ps[i]), r, d).unwrap();
        }
    }
    let mut s = AgreementMatrix::zeros(n);
    for &(i, j, share) in edges {
        eco.issue_relative(
            eco.default_currency(ps[i]),
            eco.default_currency(ps[j]),
            share * 100.0, // default face total is 100
            AgreementNature::Sharing,
        )
        .unwrap();
        s.set(i, j, share).unwrap();
    }
    (eco, r, s, deposits.to_vec())
}

/// On acyclic agreement graphs, currency gross values equal the flow
/// layer's reachable capacities: both sum, over every agreement chain,
/// the product of shares times the source deposit.
#[test]
#[allow(clippy::type_complexity)]
fn currency_values_match_flow_capacities_on_dags() {
    let cases: Vec<(Vec<f64>, Vec<(usize, usize, f64)>)> = vec![
        // Chain.
        (vec![10.0, 20.0, 5.0], vec![(0, 1, 0.5), (1, 2, 0.4)]),
        // Diamond: 0 -> {1, 2} -> 3.
        (vec![16.0, 2.0, 2.0, 1.0], vec![(0, 1, 0.25), (0, 2, 0.5), (1, 3, 0.5), (2, 3, 0.5)]),
        // Star out of 0.
        (vec![100.0, 0.0, 0.0, 0.0], vec![(0, 1, 0.2), (0, 2, 0.3), (0, 3, 0.4)]),
    ];
    for (deposits, edges) in cases {
        let n = deposits.len();
        let (eco, r, s, v) = build_both(&deposits, &edges);
        let valuation = eco.value_report(r).unwrap();
        let flow = TransitiveFlow::compute(&s, n - 1);
        let caps = capacities(&flow, None, &v);
        for i in 0..n {
            let p = PrincipalId::from_index(i);
            let cv = valuation.currency_value(eco.default_currency(p));
            let fc = caps.capacity(i);
            assert!(
                (cv - fc).abs() < 1e-9,
                "principal {i}: currency value {cv} vs flow capacity {fc} \
                 (deposits {deposits:?}, edges {edges:?})"
            );
        }
    }
}

/// The LP scheduler admits exactly what the currency layer says a
/// principal is worth.
#[test]
fn scheduler_admission_matches_currency_value() {
    let (eco, r, s, v) = build_both(&[12.0, 8.0, 0.0], &[(0, 2, 0.5), (1, 2, 0.25)]);
    let p2 = PrincipalId::from_index(2);
    let worth = eco.value_report(r).unwrap().currency_value(eco.default_currency(p2));
    assert!((worth - 8.0).abs() < 1e-9, "0.5*12 + 0.25*8");

    let flow = TransitiveFlow::compute(&s, 2);
    let state = SystemState::new(flow, None, v).unwrap();
    let policy = LpPolicy::reduced();
    // Exactly the currency value is admissible...
    let ok = policy.allocate(&state, 2, worth).unwrap();
    assert!((ok.amount - worth).abs() < 1e-9);
    // ...and a hair more is not.
    assert!(policy.allocate(&state, 2, worth + 0.01).is_err());
}

/// Revoking the agreement ticket removes the scheduler's ability to place
/// work, end to end.
#[test]
fn revocation_propagates_to_enforcement() {
    let mut eco = Economy::new();
    let r = eco.add_resource("res");
    let a = eco.add_principal("A");
    let b = eco.add_principal("B");
    let (ca, cb) = (eco.default_currency(a), eco.default_currency(b));
    eco.deposit_resource(ca, r, 10.0).unwrap();
    let ticket = eco.issue_relative(ca, cb, 50.0, AgreementNature::Sharing).unwrap();
    assert!((eco.principal_capacity(b, r).unwrap() - 5.0).abs() < 1e-9);

    eco.revoke(ticket).unwrap();
    assert_eq!(eco.principal_capacity(b, r).unwrap(), 0.0);

    // Mirror the post-revocation economy as a matrix: no edges.
    let s = AgreementMatrix::zeros(2);
    let flow = TransitiveFlow::compute(&s, 1);
    let state = SystemState::new(flow, None, vec![10.0, 0.0]).unwrap();
    assert!(LpPolicy::reduced().allocate(&state, 1, 1.0).is_err());
}

/// Absolute agreements take the absolute-matrix path end to end and
/// saturate at the owner's availability in both layers.
#[test]
fn absolute_agreements_agree_across_layers() {
    use sharing_agreements::flow::AbsoluteMatrix;
    let mut eco = Economy::new();
    let r = eco.add_resource("res");
    let a = eco.add_principal("A");
    let b = eco.add_principal("B");
    let ca = eco.default_currency(a);
    eco.deposit_resource(ca, r, 4.0).unwrap();
    eco.issue_absolute(ca, eco.default_currency(b), r, 7.0, AgreementNature::Sharing).unwrap();
    // Ticket layer: B's currency is worth the full face 7 (tickets record
    // rights; enforcement saturates at allocation time).
    let worth = eco.value_report(r).unwrap().currency_value(eco.default_currency(b));
    assert!((worth - 7.0).abs() < 1e-9);

    // Enforcement layer: the draw saturates at A's actual 4 units.
    let s = AgreementMatrix::zeros(2);
    let mut abs = AbsoluteMatrix::zeros(2);
    abs.set(0, 1, 7.0).unwrap();
    let flow = TransitiveFlow::compute(&s, 1);
    let state = SystemState::new(flow, Some(abs), vec![4.0, 0.0]).unwrap();
    let alloc = LpPolicy::reduced().allocate_up_to(&state, 1, 7.0).unwrap();
    assert!((alloc.amount - 4.0).abs() < 1e-6, "saturated at V_A");
}

/// The telemetry plane's JSON export, end to end: an instrumented solver
/// and an instrumented `IncrementalFlow` record through one plane, and
/// the exported snapshot parses back with the counters, the solve-span
/// histogram and the event trace those layers promise.
#[test]
fn telemetry_export_carries_the_solver_and_flow_signals() {
    let (telemetry, recorder) = Telemetry::recorder(DEFAULT_EVENT_CAPACITY);

    let s = Structure::figure13(10).build().unwrap();
    let flow = TransitiveFlow::compute(&s, 9);
    let avail = (0..10).map(|i| if i == 0 { 0.0 } else { 5.0 + i as f64 }).collect();
    let state = SystemState::new(flow, None, avail).unwrap();
    let mut solver = AllocationSolver::reduced();
    solver.set_telemetry(telemetry.clone());
    for x in [6.0, 8.0, 10.0, 12.0] {
        solver.allocate(&state, 0, x).unwrap();
    }
    // An over-ask takes the fast-reject path.
    assert!(solver.allocate(&state, 0, 1e9).is_err());

    let ring = Structure::Loop { n: 10, share: 0.8, skip: 1 }.build().unwrap();
    let mut inc = IncrementalFlow::new(ring, 8);
    inc.set_telemetry(telemetry);
    for (from, share) in [(0, 0.7), (4, 0.6), (0, 0.8), (9, 0.5)] {
        inc.set(from, (from + 1) % 10, share).unwrap();
    }

    let json = recorder.snapshot().to_json();
    for key in ["counters", "histograms", "events", "events_dropped"] {
        assert!(json.contains(&format!("\"{key}\":")), "export has no {key:?} field");
    }
    let snap = Snapshot::from_json(&json).expect("the export parses back");
    assert!(snap.counter("sched.fast_rejects") > 0);
    assert!(snap.counter("flow.repairs") > 0);
    let lp = snap.histogram(HistKind::LpSolveSeconds).expect("solve spans recorded");
    assert!(lp.count > 0);
    assert_eq!(lp.count, lp.buckets.iter().sum::<u64>());
    assert!(snap.events.iter().any(|e| matches!(e, TelemetryEvent::FastReject { .. })));
}
