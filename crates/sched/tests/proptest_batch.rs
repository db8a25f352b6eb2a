//! Property oracle for the one hierarchical wave loop
//! (`MultiAdmission::decide_run`), at one lane through its single-resource
//! entry `BatchedAdmission` and at two and three lanes through
//! `MultiAdmission`.
//!
//! The contract under test is the whole point of the shard executor:
//! `BatchedAdmission::admit_batch` on a **force-parallel** scheduler is
//! bit-identical to `admit_one` called per request, in the same order,
//! on a purely **sequential** scheduler — across random economies,
//! random availability, and request streams mixing grants, capacity
//! rejections, invalid amounts, and unknown principals. A third
//! property renegotiates an inter-group share mid-stream and demands
//! the same equivalence on both sides of the split.
//!
//! Economies are uniform-block: full sharing inside each group, a
//! mutual share β < 0.5 across groups, so every request exercises the
//! home fast path, the coarse multigrid path, or a rejection.

use agreements_flow::AgreementMatrix;
use agreements_sched::SchedError;
use agreements_sched::{AdmissionRequest, Allocation, BatchedAdmission, HierarchicalScheduler};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct BatchScenario {
    num_groups: usize,
    group_size: usize,
    beta: f64,
    avail: Vec<f64>,
    /// (requester, amount) stream; requesters range past `n` to cover
    /// the unknown-principal path, amounts go negative to cover the
    /// invalid-request path.
    reqs: Vec<(usize, f64)>,
    /// Renegotiation point for the mid-stream property.
    split: usize,
    new_share: f64,
}

fn arb_batch() -> impl Strategy<Value = BatchScenario> {
    (2usize..=5, 1usize..=5).prop_flat_map(|(num_groups, group_size)| {
        let n = num_groups * group_size;
        (
            proptest::collection::vec(0u32..=20, n),
            0.05f64..0.45,
            proptest::collection::vec((0usize..n + 2, -2.0f64..40.0), 1..=24),
            0.0f64..0.9,
        )
            .prop_flat_map(move |(avail, beta, reqs, new_share)| {
                let len = reqs.len();
                (Just((avail, beta, reqs, new_share)), 0usize..=len).prop_map(
                    move |((avail, beta, reqs, new_share), split)| BatchScenario {
                        num_groups,
                        group_size,
                        beta,
                        avail: avail.iter().map(|&a| a as f64).collect(),
                        reqs,
                        split,
                        new_share,
                    },
                )
            })
    })
}

fn build_sched(sc: &BatchScenario, parallel: bool) -> HierarchicalScheduler {
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

fn to_reqs(pairs: &[(usize, f64)]) -> Vec<AdmissionRequest> {
    pairs.iter().map(|&(requester, amount)| AdmissionRequest { requester, amount }).collect()
}

/// Bitwise comparison of two decision streams: grants must match in
/// requester, amount, theta, and every draw, bit for bit; errors must
/// be the same variant with the same payload (compared by debug
/// rendering — `SchedError` carries floats but no `PartialEq`).
fn assert_decisions_identical(
    one: &[Result<Allocation, SchedError>],
    bat: &[Result<Allocation, SchedError>],
) -> Result<(), TestCaseError> {
    prop_assert_eq!(one.len(), bat.len());
    for (i, (a, b)) in one.iter().zip(bat).enumerate() {
        match (a, b) {
            (Ok(x), Ok(y)) => {
                prop_assert_eq!(x.requester, y.requester, "slot {}", i);
                prop_assert_eq!(x.amount.to_bits(), y.amount.to_bits(), "slot {}", i);
                prop_assert_eq!(x.theta.to_bits(), y.theta.to_bits(), "slot {}", i);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&x.draws), bits(&y.draws), "slot {}", i);
            }
            (Err(x), Err(y)) => {
                prop_assert_eq!(format!("{x:?}"), format!("{y:?}"), "slot {}", i);
            }
            (a, b) => {
                return Err(TestCaseError::fail(format!(
                    "slot {i}: verdicts diverge: one-by-one {a:?} vs batched {b:?}"
                )));
            }
        }
    }
    Ok(())
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Force-parallel batched admission ≡ sequential one-by-one, on the
    /// decisions and on the availability vector left behind.
    #[test]
    fn batched_parallel_equals_sequential_one_by_one(sc in arb_batch()) {
        let reference = BatchedAdmission::new(build_sched(&sc, false));
        let subject = BatchedAdmission::new(build_sched(&sc, true));
        let reqs = to_reqs(&sc.reqs);

        let mut avail_one = sc.avail.clone();
        let one: Vec<_> = reqs
            .iter()
            .map(|q| reference.admit_one(&mut avail_one, q.requester, q.amount))
            .collect();
        let mut avail_bat = sc.avail.clone();
        let bat = subject.admit_batch(&mut avail_bat, &reqs);

        assert_decisions_identical(&one, &bat)?;
        prop_assert_eq!(bits(&avail_one), bits(&avail_bat), "availability diverged");
    }

    /// Batching on both engines (sequential batch path vs parallel wave
    /// path) agrees — admit_batch's internal fallback is not a separate
    /// semantics.
    #[test]
    fn batched_sequential_equals_batched_parallel(sc in arb_batch()) {
        let seq = BatchedAdmission::new(build_sched(&sc, false));
        let par = BatchedAdmission::new(build_sched(&sc, true));
        let reqs = to_reqs(&sc.reqs);
        let mut avail_seq = sc.avail.clone();
        let a = seq.admit_batch(&mut avail_seq, &reqs);
        let mut avail_par = sc.avail.clone();
        let b = par.admit_batch(&mut avail_par, &reqs);
        assert_decisions_identical(&a, &b)?;
        prop_assert_eq!(bits(&avail_seq), bits(&avail_par), "availability diverged");
    }

    /// A mid-stream `set_inter` renegotiation lands between two batches
    /// exactly where it lands between two one-by-one admissions:
    /// decisions before the split see the old share, decisions after it
    /// the new one, bit for bit.
    #[test]
    fn renegotiation_mid_stream_is_order_equivalent(sc in arb_batch()) {
        let mut reference = BatchedAdmission::new(build_sched(&sc, false));
        let mut subject = BatchedAdmission::new(build_sched(&sc, true));
        let reqs = to_reqs(&sc.reqs);
        let (head, tail) = reqs.split_at(sc.split);

        let mut avail_one = sc.avail.clone();
        let mut one: Vec<_> = head
            .iter()
            .map(|q| reference.admit_one(&mut avail_one, q.requester, q.amount))
            .collect();
        reference.set_inter(1, 0, sc.new_share).unwrap();
        one.extend(tail.iter().map(|q| reference.admit_one(&mut avail_one, q.requester, q.amount)));

        let mut avail_bat = sc.avail.clone();
        let mut bat = subject.admit_batch(&mut avail_bat, head);
        subject.set_inter(1, 0, sc.new_share).unwrap();
        bat.extend(subject.admit_batch(&mut avail_bat, tail));

        assert_decisions_identical(&one, &bat)?;
        prop_assert_eq!(bits(&avail_one), bits(&avail_bat), "availability diverged");
    }
}

// ---------------------------------------------------------------------
// Multi-resource batched admission: the same bit-identity contracts,
// lane-wise. Each lane gets its own availability vector and its own
// per-request amount; batched ≡ one-by-one and sequential ≡ parallel
// must hold with every lane's final availability compared bitwise.
// ---------------------------------------------------------------------

use agreements_sched::{MultiAdmission, MultiAdmissionRequest, MultiAllocation};

#[derive(Debug, Clone)]
struct MultiBatchScenario {
    num_groups: usize,
    group_size: usize,
    num_resources: usize,
    beta: f64,
    /// One availability vector per resource lane.
    avail: Vec<Vec<f64>>,
    /// (requester, per-lane amounts) stream; requesters past `n` cover
    /// the unknown-principal path, negative amounts the invalid path.
    reqs: Vec<(usize, Vec<f64>)>,
}

fn arb_multi_batch() -> impl Strategy<Value = MultiBatchScenario> {
    (2usize..=4, 1usize..=4, 2usize..=3).prop_flat_map(|(num_groups, group_size, num_resources)| {
        let n = num_groups * group_size;
        (
            proptest::collection::vec(proptest::collection::vec(0u32..=20, n), num_resources),
            0.05f64..0.45,
            proptest::collection::vec(
                (0usize..n + 2, proptest::collection::vec(-2.0f64..40.0, num_resources)),
                1..=16,
            ),
        )
            .prop_map(move |(avail, beta, reqs)| MultiBatchScenario {
                num_groups,
                group_size,
                num_resources,
                beta,
                avail: avail.iter().map(|lane| lane.iter().map(|&a| a as f64).collect()).collect(),
                reqs,
            })
    })
}

fn build_multi(sc: &MultiBatchScenario, parallel: bool) -> MultiAdmission {
    const NAMES: [&str; 3] = ["cpu", "bandwidth", "storage"];
    let lanes = (0..sc.num_resources)
        .map(|_| {
            let single = BatchScenario {
                num_groups: sc.num_groups,
                group_size: sc.group_size,
                beta: sc.beta,
                avail: Vec::new(),
                reqs: Vec::new(),
                split: 0,
                new_share: 0.0,
            };
            build_sched(&single, parallel)
        })
        .collect();
    MultiAdmission::new(NAMES[..sc.num_resources].to_vec(), lanes).unwrap()
}

fn to_multi_reqs(pairs: &[(usize, Vec<f64>)]) -> Vec<MultiAdmissionRequest> {
    pairs
        .iter()
        .map(|(requester, amounts)| MultiAdmissionRequest {
            requester: *requester,
            amounts: amounts.clone(),
        })
        .collect()
}

/// Bitwise comparison of two multi-resource decision streams.
fn assert_multi_decisions_identical(
    one: &[Result<MultiAllocation, SchedError>],
    bat: &[Result<MultiAllocation, SchedError>],
) -> Result<(), TestCaseError> {
    prop_assert_eq!(one.len(), bat.len());
    for (i, (a, b)) in one.iter().zip(bat).enumerate() {
        match (a, b) {
            (Ok(x), Ok(y)) => {
                prop_assert_eq!(x.lanes.len(), y.lanes.len(), "slot {}", i);
                for (r, (p, q)) in x.lanes.iter().zip(&y.lanes).enumerate() {
                    prop_assert_eq!(p.requester, q.requester, "slot {} lane {}", i, r);
                    prop_assert_eq!(
                        p.amount.to_bits(),
                        q.amount.to_bits(),
                        "slot {} lane {}",
                        i,
                        r
                    );
                    prop_assert_eq!(p.theta.to_bits(), q.theta.to_bits(), "slot {} lane {}", i, r);
                    prop_assert_eq!(bits(&p.draws), bits(&q.draws), "slot {} lane {}", i, r);
                }
            }
            (Err(x), Err(y)) => {
                prop_assert_eq!(format!("{x:?}"), format!("{y:?}"), "slot {}", i);
            }
            (a, b) => {
                return Err(TestCaseError::fail(format!(
                    "slot {i}: verdicts diverge: one-by-one {a:?} vs batched {b:?}"
                )));
            }
        }
    }
    Ok(())
}

fn assert_lanes_bitwise(a: &[Vec<f64>], b: &[Vec<f64>]) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.len(), b.len());
    for (r, (x, y)) in a.iter().zip(b).enumerate() {
        prop_assert_eq!(bits(x), bits(y), "lane {} availability diverged", r);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Multi-resource force-parallel admit_batch ≡ sequential admit_one
    /// per request, with every lane's availability compared bitwise.
    #[test]
    fn multi_batched_parallel_equals_sequential_one_by_one(sc in arb_multi_batch()) {
        let reference = build_multi(&sc, false);
        let subject = build_multi(&sc, true);
        let reqs = to_multi_reqs(&sc.reqs);

        let mut avail_one = sc.avail.clone();
        let one: Vec<_> = reqs
            .iter()
            .map(|q| reference.admit_one(&mut avail_one, q.requester, &q.amounts))
            .collect();
        let mut avail_bat = sc.avail.clone();
        let bat = subject.admit_batch(&mut avail_bat, &reqs);

        assert_multi_decisions_identical(&one, &bat)?;
        assert_lanes_bitwise(&avail_one, &avail_bat)?;
    }

    /// Multi-resource admit_batch on sequential lanes (the internal
    /// fallback loop) ≡ admit_batch on force-parallel lanes.
    #[test]
    fn multi_batched_sequential_equals_batched_parallel(sc in arb_multi_batch()) {
        let seq = build_multi(&sc, false);
        let par = build_multi(&sc, true);
        let reqs = to_multi_reqs(&sc.reqs);

        let mut avail_seq = sc.avail.clone();
        let a = seq.admit_batch(&mut avail_seq, &reqs);
        let mut avail_par = sc.avail.clone();
        let b = par.admit_batch(&mut avail_par, &reqs);

        assert_multi_decisions_identical(&a, &b)?;
        assert_lanes_bitwise(&avail_seq, &avail_par)?;
    }
}
