//! Degeneracy oracle for the multi-resource admission path.
//!
//! A single-resource config routed through [`MultiAdmission`] with one
//! named lane must be **bit-identical** to the single-resource
//! [`BatchedAdmission`] entry — verdicts, grants (amount, theta, every
//! draw), the availability vector left behind, and the executor
//! fallback stats. Both are entries into one wave loop, so this compares
//! two call paths (grant shapes, request types, the lane tag) through one
//! implementation. The one sanctioned difference: the named lane's
//! capacity rejections carry `resource: Some("cpu")` where the unnamed
//! one says `None` — the payload is otherwise identical, which is
//! exactly what these properties check after substituting the tag out.
//!
//! This mirrors the invariant `tests/multires_consistency.rs` pins for
//! the proxysim, now at the scaled enforcement layer: the multi-resource
//! machinery must not perturb single-resource behavior at all.

use agreements_flow::AgreementMatrix;
use agreements_sched::{
    AdmissionRequest, Allocation, BatchedAdmission, HierarchicalScheduler, MultiAdmission,
    MultiAdmissionRequest, MultiAllocation, SchedError,
};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct DegenScenario {
    num_groups: usize,
    group_size: usize,
    beta: f64,
    avail: Vec<f64>,
    /// (requester, amount) stream; requesters past `n` cover the
    /// unknown-principal path, negative amounts the invalid path.
    reqs: Vec<(usize, f64)>,
}

fn arb_degen() -> impl Strategy<Value = DegenScenario> {
    (2usize..=5, 1usize..=5).prop_flat_map(|(num_groups, group_size)| {
        let n = num_groups * group_size;
        (
            proptest::collection::vec(0u32..=20, n),
            0.05f64..0.45,
            proptest::collection::vec((0usize..n + 2, -2.0f64..40.0), 1..=24),
        )
            .prop_map(move |(avail, beta, reqs)| DegenScenario {
                num_groups,
                group_size,
                beta,
                avail: avail.iter().map(|&a| a as f64).collect(),
                reqs,
            })
    })
}

fn build_sched(sc: &DegenScenario, parallel: bool) -> HierarchicalScheduler {
    let g = sc.num_groups;
    let mut inter = AgreementMatrix::zeros(g);
    for i in 0..g {
        for j in 0..g {
            if i != j {
                inter.set(i, j, sc.beta).unwrap();
            }
        }
    }
    let groups: Vec<Vec<usize>> =
        (0..g).map(|gi| (gi * sc.group_size..(gi + 1) * sc.group_size).collect()).collect();
    let mut sched = HierarchicalScheduler::new(groups, &inter, 1).unwrap();
    sched.set_parallel_fine(parallel);
    sched
}

fn build_multi(sc: &DegenScenario, parallel: bool) -> MultiAdmission {
    MultiAdmission::new(vec!["cpu"], vec![build_sched(sc, parallel)]).unwrap()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Strip the binding-resource tag so multi-path errors can be compared
/// against single-path errors, after asserting the tag is the one the
/// single lane must carry.
fn untag(e: &SchedError) -> Result<SchedError, TestCaseError> {
    Ok(match e {
        SchedError::InsufficientCapacity { requester, capacity, requested, resource } => {
            prop_assert_eq!(*resource, Some("cpu"), "single-lane rejections must cite cpu");
            SchedError::InsufficientCapacity {
                requester: *requester,
                capacity: *capacity,
                requested: *requested,
                resource: None,
            }
        }
        other => other.clone(),
    })
}

/// Bitwise comparison of a single-resource decision stream against a
/// one-lane multi-resource stream.
fn assert_degenerate_identical(
    single: &[Result<Allocation, SchedError>],
    multi: &[Result<MultiAllocation, SchedError>],
) -> Result<(), TestCaseError> {
    prop_assert_eq!(single.len(), multi.len());
    for (i, (a, b)) in single.iter().zip(multi).enumerate() {
        match (a, b) {
            (Ok(x), Ok(y)) => {
                prop_assert_eq!(y.lanes.len(), 1, "slot {}", i);
                let y = &y.lanes[0];
                prop_assert_eq!(x.requester, y.requester, "slot {}", i);
                prop_assert_eq!(x.amount.to_bits(), y.amount.to_bits(), "slot {}", i);
                prop_assert_eq!(x.theta.to_bits(), y.theta.to_bits(), "slot {}", i);
                prop_assert_eq!(bits(&x.draws), bits(&y.draws), "slot {}", i);
            }
            (Err(x), Err(y)) => {
                let y = untag(y)?;
                prop_assert_eq!(format!("{x:?}"), format!("{y:?}"), "slot {}", i);
            }
            (a, b) => {
                return Err(TestCaseError::fail(format!(
                    "slot {i}: verdicts diverge: single {a:?} vs multi {b:?}"
                )));
            }
        }
    }
    Ok(())
}

fn to_single(pairs: &[(usize, f64)]) -> Vec<AdmissionRequest> {
    pairs.iter().map(|&(requester, amount)| AdmissionRequest { requester, amount }).collect()
}

fn to_multi(pairs: &[(usize, f64)]) -> Vec<MultiAdmissionRequest> {
    pairs
        .iter()
        .map(|&(requester, amount)| MultiAdmissionRequest { requester, amounts: vec![amount] })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Parallel batched: one-lane multi admit_batch ≡ single-resource
    /// admit_batch, including the executor fallback counters.
    #[test]
    fn single_lane_batch_is_bit_identical(sc in arb_degen()) {
        let single = BatchedAdmission::new(build_sched(&sc, true));
        let multi = build_multi(&sc, true);
        let mut avail_s = sc.avail.clone();
        let s = single.admit_batch(&mut avail_s, &to_single(&sc.reqs));
        let mut avail_m = vec![sc.avail.clone()];
        let m = multi.admit_batch(&mut avail_m, &to_multi(&sc.reqs));

        assert_degenerate_identical(&s, &m)?;
        prop_assert_eq!(bits(&avail_s), bits(&avail_m[0]), "availability diverged");
        prop_assert_eq!(
            single.scheduler().executor_fallbacks(),
            multi.lane(0).executor_fallbacks(),
            "fallback stats diverged"
        );
    }

    /// Sequential batched (the internal fallback loop): same identity.
    #[test]
    fn single_lane_sequential_batch_is_bit_identical(sc in arb_degen()) {
        let single = BatchedAdmission::new(build_sched(&sc, false));
        let multi = build_multi(&sc, false);
        let mut avail_s = sc.avail.clone();
        let s = single.admit_batch(&mut avail_s, &to_single(&sc.reqs));
        let mut avail_m = vec![sc.avail.clone()];
        let m = multi.admit_batch(&mut avail_m, &to_multi(&sc.reqs));

        assert_degenerate_identical(&s, &m)?;
        prop_assert_eq!(bits(&avail_s), bits(&avail_m[0]), "availability diverged");
        prop_assert_eq!(
            single.scheduler().executor_fallbacks(),
            multi.lane(0).executor_fallbacks(),
            "fallback stats diverged"
        );
    }

    /// One-by-one: admit_one through one lane ≡ the single-resource
    /// admit_one, request for request.
    #[test]
    fn single_lane_admit_one_is_bit_identical(sc in arb_degen()) {
        let single = BatchedAdmission::new(build_sched(&sc, false));
        let multi = build_multi(&sc, false);
        let mut avail_s = sc.avail.clone();
        let mut avail_m = vec![sc.avail.clone()];
        for &(requester, amount) in &sc.reqs {
            let s = single.admit_one(&mut avail_s, requester, amount);
            let m = multi.admit_one(&mut avail_m, requester, &[amount]);
            assert_degenerate_identical(
                std::slice::from_ref(&s),
                std::slice::from_ref(&m),
            )?;
            prop_assert_eq!(bits(&avail_s), bits(&avail_m[0]), "availability diverged");
        }
    }
}

/// Deterministic regression case: the exact mixed stream `batch.rs`
/// uses (fine grants, a coarse stall, an unknown principal, an invalid
/// amount, a capacity rejection, a zero request) through both engines.
#[test]
fn degeneracy_regression_case() {
    let sc = DegenScenario {
        num_groups: 2,
        group_size: 3,
        beta: 0.5,
        avail: vec![4.0, 3.0, 2.0, 8.0, 8.0, 8.0],
        reqs: vec![
            (0, 2.0),
            (4, 3.0),
            (1, 4.5),
            (2, 9.0),  // stalls onto the coarse path
            (9, 1.0),  // unknown principal
            (5, -1.0), // invalid amount
            (3, 2.0),
            (0, 100.0), // rejection: beyond reach
            (5, 0.0),
        ],
    };
    let single = BatchedAdmission::new(build_sched(&sc, true));
    let multi = build_multi(&sc, true);
    let mut avail_s = sc.avail.clone();
    let s = single.admit_batch(&mut avail_s, &to_single(&sc.reqs));
    let mut avail_m = vec![sc.avail.clone()];
    let m = multi.admit_batch(&mut avail_m, &to_multi(&sc.reqs));

    assert_degenerate_identical(&s, &m).unwrap();
    assert_eq!(bits(&avail_s), bits(&avail_m[0]));
    // The stream exercises every decision class.
    assert!(s.iter().filter(|d| d.is_ok()).count() >= 5);
    assert!(matches!(s[4], Err(SchedError::UnknownPrincipal { .. })));
    assert!(matches!(s[5], Err(SchedError::InvalidRequest { .. })));
    assert!(matches!(s[7], Err(SchedError::InsufficientCapacity { .. })));
    assert!(matches!(m[7], Err(SchedError::InsufficientCapacity { resource: Some("cpu"), .. })));
}
