//! The one-lane degeneracy proof at the GRM level, for both engine
//! families.
//!
//! A one-lane multi-resource GRM asked `request_multi(lrm, &[x])` must
//! decide exactly as a single-resource GRM asked `request(lrm, x)` over the
//! same economy and the same reports: the same verdicts, θ and every draw
//! bit for bit, the same pool left behind, the same `InsufficientCapacity`
//! payloads apart from the resource tag (`Some("cpu")` on the named lane,
//! `None` on the unnamed pool), and the same fast-reject count. The flat
//! half pits `spawn_multi(vec!["cpu"], ..)` against `spawn`; the
//! hierarchical half `spawn_multi_hierarchical` over one lane against
//! `spawn_hierarchical`.

use agreements_flow::AgreementMatrix;
use agreements_grm::{GrmError, GrmHandle, GrmServer};
use agreements_sched::{Allocation, HierarchicalScheduler, MultiAdmission, SchedError};
use proptest::prelude::*;

/// One step of a stream: a report of `value` by `lrm`, or a request for
/// `value` units by `lrm` (unknown principals and negative amounts
/// included).
#[derive(Debug, Clone, Copy)]
enum Event {
    Report(usize, f64),
    Request(usize, f64),
}

/// A stream over `n` principals: every principal reports first, then the
/// events run in order. One event in ten is a hopeless request, the
/// fast-reject path.
fn arb_events(n: usize) -> impl Strategy<Value = (Vec<f64>, Vec<Event>)> {
    let event =
        (0u32..10, 0..n + 1, -2.0f64..40.0).prop_map(move |(kind, lrm, value)| match kind {
            0 => Event::Report(lrm.min(n - 1), value.abs()),
            1 => Event::Request(lrm, 1e6),
            _ => Event::Request(lrm, value),
        });
    (
        proptest::collection::vec((0u32..=20).prop_map(f64::from), n),
        proptest::collection::vec(event, 1..=24),
    )
}

/// A flat economy: `n` principals, each off-diagonal share zero or one of
/// 0.1..0.8, transitivity `level`.
#[derive(Debug, Clone)]
struct FlatCase {
    matrix: Vec<Vec<f64>>,
    level: usize,
    pools: Vec<f64>,
    events: Vec<Event>,
}

fn arb_flat() -> impl Strategy<Value = FlatCase> {
    (2usize..=6, 1usize..=3).prop_flat_map(|(n, level)| {
        let share = (0u32..=16).prop_map(|v| if v < 8 { 0.0 } else { f64::from(v - 8) / 10.0 });
        (proptest::collection::vec(proptest::collection::vec(share, n), n), arb_events(n))
            .prop_map(move |(matrix, (pools, events))| FlatCase { matrix, level, pools, events })
    })
}

impl FlatCase {
    fn agreements(&self) -> AgreementMatrix {
        let n = self.matrix.len();
        let mut s = AgreementMatrix::zeros(n);
        for (i, row) in self.matrix.iter().enumerate() {
            for (j, &share) in row.iter().enumerate() {
                if i != j {
                    s.set(i, j, share).unwrap();
                }
            }
        }
        s
    }
}

/// A hierarchical economy: `groups` groups of `size`, every pair of
/// groups sharing `beta`.
#[derive(Debug, Clone)]
struct HierCase {
    groups: usize,
    size: usize,
    beta: f64,
    pools: Vec<f64>,
    events: Vec<Event>,
}

fn arb_hier() -> impl Strategy<Value = HierCase> {
    (2usize..=4, 1usize..=4, 0.05f64..0.6).prop_flat_map(|(groups, size, beta)| {
        arb_events(groups * size).prop_map(move |(pools, events)| HierCase {
            groups,
            size,
            beta,
            pools,
            events,
        })
    })
}

impl HierCase {
    fn scheduler(&self) -> HierarchicalScheduler {
        let mut inter = AgreementMatrix::zeros(self.groups);
        for i in 0..self.groups {
            for j in 0..self.groups {
                if i != j {
                    inter.set(i, j, self.beta).unwrap();
                }
            }
        }
        let partition =
            (0..self.groups).map(|g| (g * self.size..(g + 1) * self.size).collect()).collect();
        HierarchicalScheduler::new(partition, &inter, 1).unwrap()
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `e` with a capacity rejection's resource tag, which must be `tag`,
/// replaced by `None`.
fn untag(e: GrmError, tag: Option<&'static str>) -> Result<GrmError, TestCaseError> {
    Ok(match e {
        GrmError::Sched(SchedError::InsufficientCapacity {
            requester,
            capacity,
            requested,
            resource,
        }) => {
            prop_assert_eq!(resource, tag, "the resource tag");
            GrmError::Sched(SchedError::InsufficientCapacity {
                requester,
                capacity,
                requested,
                resource: None,
            })
        }
        other => other,
    })
}

/// Drive `events` through the single-resource GRM (`request`) and the
/// one-lane GRM (`request_multi`) and hold them to one another.
fn assert_degenerate(
    single: &GrmHandle,
    lane: &GrmHandle,
    pools: &[f64],
    events: &[Event],
) -> Result<(), TestCaseError> {
    for (lrm, &v) in pools.iter().enumerate() {
        single.report(lrm, v).unwrap();
        lane.report_multi(lrm, vec![v]).unwrap();
    }
    for (i, &event) in events.iter().enumerate() {
        let (lrm, x) = match event {
            Event::Report(lrm, v) => {
                single.report(lrm, v).unwrap();
                lane.report_multi(lrm, vec![v]).unwrap();
                continue;
            }
            Event::Request(lrm, x) => (lrm, x),
        };
        let one = single.request(lrm, x);
        let multi = lane.request_multi(lrm, &[x]);
        match (one, multi) {
            (Ok(a), Ok(m)) => {
                prop_assert_eq!(m.lanes.len(), 1, "event {}", i);
                let b: &Allocation = &m.lanes[0];
                prop_assert_eq!(a.requester, b.requester, "event {}", i);
                prop_assert_eq!(a.amount.to_bits(), b.amount.to_bits(), "event {}", i);
                prop_assert_eq!(a.theta.to_bits(), b.theta.to_bits(), "event {}", i);
                prop_assert_eq!(bits(&a.draws), bits(&b.draws), "event {}", i);
            }
            (Err(a), Err(b)) => {
                prop_assert_eq!(untag(a, None)?, untag(b, Some("cpu"))?, "event {}", i);
            }
            (a, b) => {
                return Err(TestCaseError::fail(format!(
                    "event {i}: verdicts diverge: request {a:?} vs request_multi {b:?}"
                )))
            }
        }
        let left = lane.availability_multi().unwrap();
        prop_assert_eq!(left.len(), 1);
        prop_assert_eq!(bits(&single.availability().unwrap()), bits(&left[0]), "event {}", i);
    }
    let (a, b) = (single.stats().unwrap(), lane.stats().unwrap());
    prop_assert_eq!(a.fast_rejects, b.fast_rejects, "fast rejects");
    prop_assert_eq!(a.requests, b.requests);
    prop_assert_eq!(a.granted, b.granted);
    prop_assert_eq!(a.rejected_capacity, b.rejected_capacity);
    prop_assert_eq!(a.granted_units.to_bits(), b.granted_units.to_bits());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Flat: `request_multi(lrm, &[x])` on a one-lane `spawn_multi` ≡
    /// `request(lrm, x)` on `spawn`.
    #[test]
    fn flat_one_lane_is_the_single_resource_grm(case in arb_flat()) {
        let single = GrmServer::spawn(case.agreements(), case.level);
        let lane = GrmServer::spawn_multi(vec!["cpu"], case.agreements(), case.level);
        assert_degenerate(&single.handle(), &lane.handle(), &case.pools, &case.events)?;
    }

    /// Hierarchical: `request_multi(lrm, &[x])` on a one-lane
    /// `spawn_multi_hierarchical` ≡ `request(lrm, x)` on
    /// `spawn_hierarchical`.
    #[test]
    fn hierarchical_one_lane_is_the_single_resource_grm(case in arb_hier()) {
        let single = GrmServer::spawn_hierarchical(case.scheduler());
        let front = MultiAdmission::new(vec!["cpu"], vec![case.scheduler()]).unwrap();
        let lane = GrmServer::spawn_multi_hierarchical(front);
        assert_degenerate(&single.handle(), &lane.handle(), &case.pools, &case.events)?;
    }
}
