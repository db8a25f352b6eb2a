//! Property oracle for the admission front doors — `BatchedAdmission`
//! (one unnamed lane) and `MultiAdmission` (two and three named lanes) —
//! against each lane's own `HierarchicalScheduler::allocate`.
//!
//! A front door adds three things to the scheduler: the conjunction (a
//! request is granted iff every lane admits its amount; the first lane to
//! refuse, in resource order, is the verdict, a capacity rejection tagged
//! with that lane's name), the commit (a grant moves every lane by the
//! GRM's `(v − d).max(0.0)`, a refusal moves none) and the order (each
//! request is decided against what the earlier ones left). The reference
//! below rebuilds all three by hand from `allocate`, and the front door
//! must match it bit for bit across random economies, availability and
//! request streams mixing grants, capacity rejections, invalid amounts
//! and unknown principals. A third property renegotiates an inter-group
//! share mid-stream: the rest of the stream must be decided exactly as a
//! scheduler built over the renegotiated matrix decides it, so the
//! incremental coarse-flow repair is held to a fresh build.
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

/// The uniform-block scheduler, with inter-group share `inter[1][0]`
/// replaced by `share_1_0` when given.
fn build_sched_with(sc: &BatchScenario, share_1_0: Option<f64>) -> HierarchicalScheduler {
    let g = sc.num_groups;
    let mut inter = AgreementMatrix::zeros(g);
    for i in 0..g {
        for j in 0..g {
            if i != j {
                inter.set(i, j, sc.beta).unwrap();
            }
        }
    }
    if let Some(share) = share_1_0 {
        inter.set(1, 0, share).unwrap();
    }
    let groups: Vec<Vec<usize>> =
        (0..g).map(|gi| (gi * sc.group_size..(gi + 1) * sc.group_size).collect()).collect();
    HierarchicalScheduler::new(groups, &inter, 1).unwrap()
}

fn build_sched(sc: &BatchScenario) -> HierarchicalScheduler {
    build_sched_with(sc, None)
}

/// The reference decision: `sched.allocate`, committed with
/// `(v − d).max(0.0)` on a grant.
fn reference_admit(
    sched: &HierarchicalScheduler,
    avail: &mut [f64],
    requester: usize,
    amount: f64,
) -> Result<Allocation, SchedError> {
    let alloc = sched.allocate(avail, requester, amount)?;
    for (v, d) in avail.iter_mut().zip(&alloc.draws) {
        *v = (*v - *d).max(0.0);
    }
    Ok(alloc)
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
                    "slot {i}: verdicts diverge: reference {a:?} vs front door {b:?}"
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

    /// `BatchedAdmission::admit_batch` ≡ the scheduler's `allocate` plus
    /// the commit, request by request, on the decisions and on the
    /// availability vector left behind.
    #[test]
    fn front_door_equals_scheduler_allocate_and_commit(sc in arb_batch()) {
        let reference = build_sched(&sc);
        let subject = BatchedAdmission::new(build_sched(&sc));

        let mut avail_ref = sc.avail.clone();
        let want: Vec<_> =
            sc.reqs.iter().map(|&(r, x)| reference_admit(&reference, &mut avail_ref, r, x)).collect();
        let mut avail_sub = sc.avail.clone();
        let got = subject.admit_batch(&mut avail_sub, &to_reqs(&sc.reqs));

        assert_decisions_identical(&want, &got)?;
        prop_assert_eq!(bits(&avail_ref), bits(&avail_sub), "availability diverged");
    }

    /// A mid-stream `set_inter` renegotiation: decisions before the split
    /// see the old share, and every decision after it is the one a
    /// scheduler built over the renegotiated matrix makes, bit for bit.
    #[test]
    fn renegotiation_mid_stream_equals_a_fresh_build(sc in arb_batch()) {
        let before = build_sched(&sc);
        let after = build_sched_with(&sc, Some(sc.new_share));
        let mut subject = BatchedAdmission::new(build_sched(&sc));
        let (head, tail) = sc.reqs.split_at(sc.split);

        let mut avail_ref = sc.avail.clone();
        let mut want: Vec<_> =
            head.iter().map(|&(r, x)| reference_admit(&before, &mut avail_ref, r, x)).collect();
        want.extend(tail.iter().map(|&(r, x)| reference_admit(&after, &mut avail_ref, r, x)));

        let mut avail_sub = sc.avail.clone();
        let mut got = subject.admit_batch(&mut avail_sub, &to_reqs(head));
        subject.set_inter(1, 0, sc.new_share).unwrap();
        got.extend(subject.admit_batch(&mut avail_sub, &to_reqs(tail)));

        assert_decisions_identical(&want, &got)?;
        prop_assert_eq!(bits(&avail_ref), bits(&avail_sub), "availability diverged");
    }
}

// ---------------------------------------------------------------------
// Multi-resource admission: the same contract, lane-wise. Each lane gets
// its own scheduler, availability vector and per-request amount; the
// reference conjunction and commit are written out by hand, and every
// lane's final availability is compared bitwise.
// ---------------------------------------------------------------------

use agreements_sched::{MultiAdmission, MultiAllocation};

const NAMES: [&str; 3] = ["cpu", "bandwidth", "storage"];

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

/// One uniform-block scheduler per resource lane.
fn build_lanes(sc: &MultiBatchScenario) -> Vec<HierarchicalScheduler> {
    let single = BatchScenario {
        num_groups: sc.num_groups,
        group_size: sc.group_size,
        beta: sc.beta,
        avail: Vec::new(),
        reqs: Vec::new(),
        split: 0,
        new_share: 0.0,
    };
    (0..sc.num_resources).map(|_| build_sched(&single)).collect()
}

/// The reference multi-lane decision: each lane's `allocate` in resource
/// order, stopping at the first refusal (its capacity rejection tagged
/// with the lane's name); only a grant in every lane commits, in every
/// lane.
fn reference_admit_multi(
    lanes: &[HierarchicalScheduler],
    avail: &mut [Vec<f64>],
    requester: usize,
    amounts: &[f64],
) -> Result<MultiAllocation, SchedError> {
    let mut grants = Vec::with_capacity(lanes.len());
    for (r, (sched, lane_avail)) in lanes.iter().zip(avail.iter()).enumerate() {
        match sched.allocate(lane_avail, requester, amounts[r]) {
            Ok(alloc) => grants.push(alloc),
            Err(SchedError::InsufficientCapacity { requester, capacity, requested, .. }) => {
                let resource = Some(NAMES[r]);
                return Err(SchedError::InsufficientCapacity {
                    requester,
                    capacity,
                    requested,
                    resource,
                });
            }
            Err(other) => return Err(other),
        }
    }
    for (lane_avail, alloc) in avail.iter_mut().zip(&grants) {
        for (v, d) in lane_avail.iter_mut().zip(&alloc.draws) {
            *v = (*v - *d).max(0.0);
        }
    }
    Ok(MultiAllocation { lanes: grants })
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
                    "slot {i}: verdicts diverge: reference {a:?} vs front door {b:?}"
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

    /// `MultiAdmission::admit_one` ≡ the hand-written conjunction and
    /// commit over per-lane schedulers, with every lane's availability
    /// compared bitwise.
    #[test]
    fn multi_front_door_equals_per_lane_conjunction(sc in arb_multi_batch()) {
        let reference = build_lanes(&sc);
        let subject =
            MultiAdmission::new(NAMES[..sc.num_resources].to_vec(), build_lanes(&sc)).unwrap();

        let mut avail_ref = sc.avail.clone();
        let want: Vec<_> = sc
            .reqs
            .iter()
            .map(|(r, x)| reference_admit_multi(&reference, &mut avail_ref, *r, x))
            .collect();
        let mut avail_sub = sc.avail.clone();
        let got: Vec<_> =
            sc.reqs.iter().map(|(r, x)| subject.admit_one(&mut avail_sub, *r, x)).collect();

        assert_multi_decisions_identical(&want, &got)?;
        assert_lanes_bitwise(&avail_ref, &avail_sub)?;
    }
}
