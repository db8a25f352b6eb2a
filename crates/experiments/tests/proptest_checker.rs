//! Property oracle for the order-insensitive federation checker.
//!
//! Two sides of the same coin: (1) **soundness of the pass verdict** —
//! any decision log synthesized to respect the invariants (feasible
//! draws, one settlement per seq, honest final pools and counter)
//! passes under *every* permutation of its events, because that is the
//! checker's whole claim; (2) **sensitivity** — classic replay bugs
//! (a dropped settlement, a duplicated grant, a grant whose draws no
//! longer sum to its amount, pools that do not match the log, a
//! granted-units counter that drifted) are each caught, again under an
//! arbitrary permutation, so a racing non-sequenced run cannot hide a
//! violation in its interleaving.

use agreements_experiments::checker::{
    check_order_insensitive, CheckEvent, CheckInputs, CheckOutcome,
};
use proptest::prelude::*;

/// One synthetic decision: deny, single-pool grant, or two-pool grant.
#[derive(Debug, Clone)]
struct Spec {
    requester: usize,
    kind: u8,
    frac: f64,
    other: usize,
}

#[derive(Debug, Clone)]
struct Scenario {
    base: Vec<f64>,
    specs: Vec<Spec>,
    /// Permutation applied to the settled log before checking.
    perm: Vec<usize>,
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (2usize..=5, 1usize..=20).prop_flat_map(|(n, m)| {
        (
            proptest::collection::vec(5u32..=30, n),
            proptest::collection::vec(
                (0usize..n, 0u8..3, 0.05f64..0.4, 0usize..n).prop_map(
                    |(requester, kind, frac, other)| Spec { requester, kind, frac, other },
                ),
                m,
            ),
            // No shuffle combinator in the vendored proptest: draw one
            // random key per event and argsort — same distribution over
            // permutations, minus key-collision ties.
            proptest::collection::vec(0u64..u64::MAX, m),
        )
            .prop_map(|(base, mut specs, keys)| {
                // Guarantee at least one grant so every mutation below
                // has something to corrupt.
                specs[0].kind = 1;
                let mut perm: Vec<usize> = (0..keys.len()).collect();
                perm.sort_by_key(|&i| keys[i]);
                Scenario { base: base.into_iter().map(f64::from).collect(), specs, perm }
            })
    })
}

/// Fold the specs into a feasible log: draws are fractions of the
/// *remaining* pools, so they are always positive and never overdraw
/// (pools shrink by at most 40% per event). Sequence numbers are
/// deliberately non-contiguous — coverage is a multiset claim, not a
/// density one. Returns (events in settle order, final availability,
/// expected seqs, granted-units total).
fn realize(sc: &Scenario) -> (Vec<CheckEvent>, Vec<f64>, Vec<u64>, f64) {
    let mut remaining = sc.base.clone();
    let mut events = Vec::with_capacity(sc.specs.len());
    let mut expected = Vec::with_capacity(sc.specs.len());
    let mut units = 0.0f64;
    for (i, s) in sc.specs.iter().enumerate() {
        let seq = i as u64 * 3 + 7;
        expected.push(seq);
        let outcome = match s.kind {
            0 => CheckOutcome::Denied,
            _ => {
                let mut draws = vec![(s.requester, s.frac * remaining[s.requester])];
                if s.kind == 2 && s.other != s.requester {
                    draws.push((s.other, 0.5 * s.frac * remaining[s.other]));
                }
                let amount: f64 = draws.iter().map(|&(_, d)| d).sum();
                for &(p, d) in &draws {
                    remaining[p] -= d;
                }
                units += amount;
                CheckOutcome::Granted { amount, draws }
            }
        };
        events.push(CheckEvent { seq, requester: s.requester, outcome });
    }
    (events, remaining, expected, units)
}

fn permuted(events: &[CheckEvent], perm: &[usize]) -> Vec<CheckEvent> {
    perm.iter().map(|&i| events[i].clone()).collect()
}

fn run(
    base: &[f64],
    expected: &[u64],
    events: &[CheckEvent],
    fin: &[f64],
    units: Option<f64>,
) -> Vec<String> {
    check_order_insensitive(&CheckInputs {
        base,
        expected,
        events,
        final_availability: fin,
        granted_units: units,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A log that honours the invariants passes in settle order, under
    /// an arbitrary permutation, and with the counter check disabled
    /// (the kill-9 path passes `granted_units: None`).
    #[test]
    fn valid_logs_pass_under_any_permutation(sc in arb_scenario()) {
        let (events, fin, expected, units) = realize(&sc);
        let shuffled = permuted(&events, &sc.perm);
        for evs in [&events, &shuffled] {
            let v = run(&sc.base, &expected, evs, &fin, Some(units));
            prop_assert!(v.is_empty(), "valid log rejected: {:?}", v);
            let v = run(&sc.base, &expected, evs, &fin, None);
            prop_assert!(v.is_empty(), "valid log rejected without counter: {:?}", v);
        }
    }

    /// Each classic replay bug is caught even after the log is
    /// permuted: the interleaving cannot launder a violation.
    #[test]
    fn mutated_logs_are_rejected(sc in arb_scenario()) {
        let (events, fin, expected, units) = realize(&sc);
        let shuffled = permuted(&events, &sc.perm);

        // Dropped settlement: one expected seq never settles.
        let dropped = &shuffled[..shuffled.len() - 1];
        prop_assert!(!run(&sc.base, &expected, dropped, &fin, Some(units)).is_empty(),
            "dropped settlement not caught");

        // Duplicated grant: the same seq settles twice.
        let mut dup = shuffled.clone();
        dup.push(shuffled[0].clone());
        prop_assert!(!run(&sc.base, &expected, &dup, &fin, Some(units)).is_empty(),
            "duplicated settlement not caught");

        // Altered amount: draws no longer sum to the grant.
        let mut altered = shuffled.clone();
        let g = altered
            .iter_mut()
            .find(|e| matches!(e.outcome, CheckOutcome::Granted { .. }))
            .expect("spec[0] is forced to be a grant");
        if let CheckOutcome::Granted { amount, .. } = &mut g.outcome {
            *amount += 0.25;
        }
        prop_assert!(!run(&sc.base, &expected, &altered, &fin, Some(units)).is_empty(),
            "altered grant amount not caught");

        // Stolen resources: the daemon's final pool disagrees with the
        // log by more than tolerance.
        let mut stolen = fin.clone();
        stolen[0] -= 0.5;
        prop_assert!(!run(&sc.base, &expected, &shuffled, &stolen, Some(units)).is_empty(),
            "stolen resources not caught");

        // Drifted counter: lifetime granted_units disagrees with the
        // sum of granted amounts.
        prop_assert!(!run(&sc.base, &expected, &shuffled, &fin, Some(units + 1.0)).is_empty(),
            "drifted granted-units counter not caught");
    }
}

/// The battery on a real racing run: one daemon, four worker processes,
/// non-sequenced listener, hierarchical engine, group commit. The
/// ordered modes are replayed bit for bit by CI's `net-chaos` job; this
/// is the one mode whose `--check` is this checker.
#[test]
fn a_racing_federation_run_passes_the_battery() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("fed-nonseq-{}", std::process::id()));
    let status = std::process::Command::new(env!("CARGO_BIN_EXE_federation"))
        .args(["--mode", "nonseq", "--fsync", "batched:32", "--check"])
        .args(["--n", "64", "--workers", "4", "--requests", "256"])
        .arg("--dir")
        .arg(&dir)
        .status()
        .expect("spawn the federation binary");
    assert!(status.success(), "federation --mode nonseq --check failed: {status}");
}
