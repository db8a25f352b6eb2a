//! Property tests for hierarchical multigrid allocation.

// Index-based loops keep the matrix algebra legible in these tests.
#![allow(clippy::needless_range_loop)]

use agreements_flow::AgreementMatrix;
use agreements_sched::hierarchy::HierarchicalScheduler;
use agreements_sched::SchedError;
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct HierScenario {
    groups: Vec<Vec<usize>>,
    inter_share: f64,
    avail: Vec<f64>,
    requester: usize,
    frac: f64,
}

fn arb_hier() -> impl Strategy<Value = HierScenario> {
    (2usize..=4, 2usize..=3).prop_flat_map(|(num_groups, group_size)| {
        let n = num_groups * group_size;
        (proptest::collection::vec(0u32..=40, n), 0.1f64..0.5, 0usize..n, 0.05f64..0.95).prop_map(
            move |(avail, inter_share, requester, frac)| {
                let groups: Vec<Vec<usize>> = (0..num_groups)
                    .map(|g| (g * group_size..(g + 1) * group_size).collect())
                    .collect();
                HierScenario {
                    groups,
                    inter_share,
                    avail: avail.iter().map(|&a| a as f64).collect(),
                    requester,
                    frac,
                }
            },
        )
    })
}

fn build(sc: &HierScenario) -> HierarchicalScheduler {
    let g = sc.groups.len();
    let mut inter = AgreementMatrix::zeros(g);
    for i in 0..g {
        for j in 0..g {
            if i != j {
                inter.set(i, j, sc.inter_share).unwrap();
            }
        }
    }
    // Level 1 (direct inter-group agreements only) so the tests can
    // compute reachability in closed form.
    HierarchicalScheduler::new(sc.groups.clone(), &inter, 1).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Hierarchical draws conserve the request, never exceed per-member
    /// availability, and home-group requests stay inside the home group.
    #[test]
    fn hierarchical_draws_are_valid(sc in arb_hier()) {
        let sched = build(&sc);
        let home = sc.requester / sc.groups[0].len();
        let home_avail: f64 = sc.groups[home].iter().map(|&m| sc.avail[m]).sum();
        let x = home_avail * sc.frac;
        prop_assume!(x > 1e-6);
        let alloc = sched.allocate(&sc.avail, sc.requester, x).unwrap();
        let sum: f64 = alloc.draws.iter().sum();
        prop_assert!((sum - x).abs() < 1e-6, "sum {sum} != {x}");
        for (m, &d) in alloc.draws.iter().enumerate() {
            prop_assert!(d >= -1e-12);
            prop_assert!(d <= sc.avail[m] + 1e-6,
                "draw {d} at {m} exceeds {}", sc.avail[m]);
        }
        // Fits in the home group -> only home-group members drawn from.
        for (g, members) in sc.groups.iter().enumerate() {
            if g != home {
                for &m in members {
                    prop_assert!(alloc.draws[m].abs() < 1e-9,
                        "home-satisfiable request leaked to group {g}");
                }
            }
        }
    }

    /// Overflow requests respect the inter-group agreement cap.
    #[test]
    fn hierarchical_overflow_respects_inter_cap(sc in arb_hier()) {
        let sched = build(&sc);
        let home = sc.requester / sc.groups[0].len();
        let home_avail: f64 = sc.groups[home].iter().map(|&m| sc.avail[m]).sum();
        // Ask for everything the coarse model can reach.
        let reach: f64 = home_avail + sc.groups.iter().enumerate()
            .filter(|(g, _)| *g != home)
            .map(|(_, members)| {
                let ga: f64 = members.iter().map(|&m| sc.avail[m]).sum();
                sc.inter_share * ga
            })
            .sum::<f64>();
        prop_assume!(reach > home_avail + 1e-6);
        let x = home_avail + (reach - home_avail) * 0.8;
        let alloc = sched.allocate(&sc.avail, sc.requester, x).unwrap();
        for (g, members) in sc.groups.iter().enumerate() {
            if g == home {
                continue;
            }
            let drawn: f64 = members.iter().map(|&m| alloc.draws[m]).sum();
            let ga: f64 = members.iter().map(|&m| sc.avail[m]).sum();
            prop_assert!(drawn <= sc.inter_share * ga + 1e-6,
                "group {g} drawn {drawn} beyond cap {}", sc.inter_share * ga);
        }
        // Beyond the total reach is rejected.
        let rejected = matches!(
            sched.allocate(&sc.avail, sc.requester, reach * 1.05 + 1.0),
            Err(SchedError::InsufficientCapacity { .. })
        );
        prop_assert!(rejected, "over-reach request was not rejected");
    }
}
