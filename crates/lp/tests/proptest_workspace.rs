//! Workspace equivalence property.
//!
//! `solve_bounded_with` must be *bit-identical* to `solve_bounded` — the
//! workspace only changes where buffers live, never a single
//! floating-point operation — and error classifications must match exactly.

#![allow(clippy::needless_range_loop)]

use agreements_lp::simplex::SimplexOptions;
use agreements_lp::{solve_bounded, solve_bounded_with, LpError, SimplexWorkspace};
use proptest::prelude::*;

/// Random packing-style LP already in bounded standard form:
/// `min c·x` s.t. `Ax + s = b`, `0 ≤ x ≤ u`, slacks unbounded.
#[derive(Debug, Clone)]
struct Instance {
    nv: usize,
    a: Vec<Vec<f64>>, // m × (nv + m), slacks appended
    b: Vec<f64>,
    c: Vec<f64>,
    u: Vec<f64>,
}

fn arb_instance() -> impl Strategy<Value = Instance> {
    (1usize..=4, 1usize..=4).prop_flat_map(|(nv, m)| {
        (
            proptest::collection::vec(0u32..=8, nv * m),
            proptest::collection::vec(1u32..=40, m),
            proptest::collection::vec(-10i32..=10, nv),
            proptest::collection::vec(proptest::option::of(1u32..=10), nv),
        )
            .prop_map(move |(araw, braw, craw, uraw)| {
                let total = nv + m;
                let mut a = vec![vec![0.0; total]; m];
                for i in 0..m {
                    for j in 0..nv {
                        a[i][j] = araw[i * nv + j] as f64 / 2.0;
                    }
                    a[i][nv + i] = 1.0;
                }
                let mut c = vec![0.0; total];
                for j in 0..nv {
                    c[j] = craw[j] as f64 / 2.0;
                }
                let mut u = vec![f64::INFINITY; total];
                for j in 0..nv {
                    u[j] = uraw[j].map(|x| x as f64).unwrap_or(f64::INFINITY);
                }
                Instance { nv, a, b: braw.iter().map(|&x| x as f64 / 2.0).collect(), c, u }
            })
    })
}

fn errors_match(a: &LpError, b: &LpError) -> bool {
    std::mem::discriminant(a) == std::mem::discriminant(b)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A reused workspace reproduces `solve_bounded` bit for bit, across
    /// a random sequence of differently shaped problems sharing one
    /// workspace.
    #[test]
    fn workspace_reuse_is_bit_identical(
        seq in proptest::collection::vec(arb_instance(), 1..=5),
    ) {
        let opts = SimplexOptions::default();
        let mut ws = SimplexWorkspace::new();
        for inst in &seq {
            let fresh = solve_bounded(&inst.a, &inst.b, &inst.c, &inst.u, inst.nv, &opts);
            let reused =
                solve_bounded_with(&mut ws, &inst.a, &inst.b, &inst.c, &inst.u, inst.nv, &opts);
            match (fresh, reused) {
                (Ok(f), Ok(r)) => {
                    prop_assert_eq!(f.x, r.x);
                    prop_assert_eq!(f.objective, r.objective);
                    prop_assert_eq!(f.duals, r.duals);
                    prop_assert_eq!(f.stats, r.stats);
                }
                (Err(fe), Err(re)) => {
                    prop_assert!(errors_match(&fe, &re), "{fe:?} vs {re:?}");
                }
                (f, r) => prop_assert!(false, "disagreement: {f:?} vs {r:?}"),
            }
        }
    }
}
