//! Equivalence of the bounded-variable simplex and the row-based solver:
//! on random LPs with box constraints, both must find the same optimum
//! (the optimizer itself may differ; objective values must agree).

// Index-based loops keep the matrix algebra legible in these tests.
#![allow(clippy::needless_range_loop)]

use agreements_lp::simplex::{solve_standard, SimplexOptions};
use agreements_lp::LpError;
use agreements_lp::{solve_bounded, SparseRows};
use proptest::prelude::*;

/// Random packing-style LP in equality standard form:
/// `min c·x` s.t. `Ax + s = b`, `0 ≤ x ≤ u`, `s ≥ 0`.
#[derive(Debug, Clone)]
struct Instance {
    nv: usize,
    m: usize,
    a: Vec<Vec<f64>>, // m × nv, structural part only
    b: Vec<f64>,
    c: Vec<f64>,
    u: Vec<f64>, // per structural var; may be infinite
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
                let a: Vec<Vec<f64>> = (0..m)
                    .map(|i| (0..nv).map(|j| araw[i * nv + j] as f64 / 2.0).collect())
                    .collect();
                Instance {
                    nv,
                    m,
                    a,
                    b: braw.iter().map(|&x| x as f64 / 2.0).collect(),
                    c: craw.iter().map(|&x| x as f64 / 2.0).collect(),
                    u: uraw.iter().map(|o| o.map(|x| x as f64).unwrap_or(f64::INFINITY)).collect(),
                }
            })
    })
}

/// Encode for the bounded solver: columns = structural + slacks.
fn bounded_form(inst: &Instance) -> (SparseRows, Vec<f64>, Vec<f64>, Vec<f64>) {
    let total = inst.nv + inst.m;
    let mut a = vec![vec![0.0; total]; inst.m];
    for i in 0..inst.m {
        a[i][..inst.nv].copy_from_slice(&inst.a[i]);
        a[i][inst.nv + i] = 1.0;
    }
    let mut c = vec![0.0; total];
    c[..inst.nv].copy_from_slice(&inst.c);
    let mut u = vec![f64::INFINITY; total];
    u[..inst.nv].copy_from_slice(&inst.u);
    (SparseRows::from_dense(&a), inst.b.clone(), c, u)
}

/// Encode for the row solver: finite bounds become extra `x + t = u` rows.
fn row_form(inst: &Instance) -> (Vec<Vec<f64>>, Vec<f64>, Vec<f64>) {
    let bounded: Vec<usize> = (0..inst.nv).filter(|&j| inst.u[j].is_finite()).collect();
    let rows = inst.m + bounded.len();
    let total = inst.nv + inst.m + bounded.len();
    let mut a = vec![vec![0.0; total]; rows];
    let mut b = vec![0.0; rows];
    for i in 0..inst.m {
        a[i][..inst.nv].copy_from_slice(&inst.a[i]);
        a[i][inst.nv + i] = 1.0;
        b[i] = inst.b[i];
    }
    for (k, &j) in bounded.iter().enumerate() {
        let r = inst.m + k;
        a[r][j] = 1.0;
        a[r][inst.nv + inst.m + k] = 1.0;
        b[r] = inst.u[j];
    }
    let mut c = vec![0.0; total];
    c[..inst.nv].copy_from_slice(&inst.c);
    (a, b, c)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Objectives agree between the two encodings whenever both solve.
    #[test]
    fn bounded_matches_row_based(inst in arb_instance()) {
        let opts = SimplexOptions::default();
        let (ba, bb, bc, bu) = bounded_form(&inst);
        let (ra, rb, rc) = row_form(&inst);
        let bres = solve_bounded(&ba, &bb, &bc, &bu, inst.nv, &opts);
        let rres = solve_standard(&ra, &rb, &rc, inst.nv, &opts);
        match (bres, rres) {
            (Ok(bs), Ok(rs)) => {
                prop_assert!(
                    (bs.objective - rs.objective).abs()
                        < 1e-6 * (1.0 + rs.objective.abs()),
                    "bounded {} vs row {}",
                    bs.objective,
                    rs.objective
                );
                // The bounded solution is feasible for the original box.
                for j in 0..inst.nv {
                    prop_assert!(bs.x[j] >= -1e-9);
                    prop_assert!(bs.x[j] <= inst.u[j] + 1e-9);
                }
                for i in 0..inst.m {
                    let lhs: f64 =
                        (0..inst.nv).map(|j| inst.a[i][j] * bs.x[j]).sum();
                    prop_assert!(lhs <= inst.b[i] + 1e-6,
                        "row {i}: {lhs} > {}", inst.b[i]);
                }
            }
            (Err(LpError::Unbounded { .. }), Err(LpError::Unbounded { .. })) => {}
            (Err(LpError::Infeasible { .. }), Err(LpError::Infeasible { .. })) => {}
            (b, r) => {
                // Origin is feasible (b >= 0, x = 0 in box), so both must
                // agree; a mismatch is a bug.
                prop_assert!(false, "solver disagreement: bounded {b:?} vs row {r:?}");
            }
        }
    }

    /// Problem-level equivalence on models with *equality* constraints
    /// (these exercise artificial variables, where the bounded solver's
    /// phase-2 pinning matters — a bug here once returned infeasible
    /// points silently).
    #[test]
    fn bounded_matches_rows_with_equalities(
        total in 1u32..=30,
        bounds in proptest::collection::vec(1u32..=12, 3),
        costs in proptest::collection::vec(0u32..=10, 3),
        cap in 1u32..=20,
    ) {
        use agreements_lp::{Problem, Relation, Sense};
        let native = {
            let mut p = Problem::new(Sense::Minimize);
            let vars: Vec<_> = (0..3)
                .map(|j| p.add_var(&format!("d{j}"), 0.0, bounds[j] as f64, costs[j] as f64))
                .collect();
            let theta = p.add_var("theta", 0.0, f64::INFINITY, 1.0);
            let all: Vec<_> = vars.iter().map(|&v| (v, 1.0)).collect();
            p.add_constraint(&all, Relation::Eq, total as f64);
            for &v in &vars {
                p.add_constraint(&[(v, 1.0), (theta, -1.0)], Relation::Le, 0.0);
            }
            p.add_constraint(&[(vars[0], 1.0), (vars[1], 1.0)], Relation::Le, cap as f64);
            p.solve().map(|s| {
                let draws: Vec<f64> = vars.iter().map(|&v| s.value(v)).collect();
                (s.objective, draws)
            })
        };
        // The same model in row form, written out by hand: columns
        // d0 d1 d2 θ, then one slack per `≤` row (three drop rows, the
        // cap row, three `d_j ≤ bound_j` rows); the equality has none.
        let rows = {
            let mut a = vec![vec![0.0; 4 + 7]; 8];
            let mut b = vec![0.0; 8];
            a[0][..3].fill(1.0);
            b[0] = total as f64;
            for j in 0..3 {
                a[1 + j][j] = 1.0;
                a[1 + j][3] = -1.0;
                a[5 + j][j] = 1.0;
                b[5 + j] = bounds[j] as f64;
            }
            a[4][0] = 1.0;
            a[4][1] = 1.0;
            b[4] = cap as f64;
            for r in 1..8 {
                a[r][4 + (r - 1)] = 1.0;
            }
            let mut c = vec![0.0; 4 + 7];
            for j in 0..3 {
                c[j] = costs[j] as f64;
            }
            c[3] = 1.0;
            solve_standard(&a, &b, &c, 4, &SimplexOptions::default()).map(|s| s.objective)
        };
        match (native, rows) {
            (Ok((bo, bd)), Ok(ro)) => {
                prop_assert!((bo - ro).abs() < 1e-6 * (1.0 + ro.abs()),
                    "native {bo} vs rows {ro}");
                // The native solution actually satisfies the equality.
                let sum: f64 = bd.iter().sum();
                prop_assert!((sum - total as f64).abs() < 1e-6,
                    "draws {bd:?} sum {sum} != {total}");
                for (j, d) in bd.iter().enumerate() {
                    prop_assert!(*d >= -1e-9 && *d <= bounds[j] as f64 + 1e-9);
                }
            }
            (Err(LpError::Infeasible { .. }), Err(LpError::Infeasible { .. })) => {}
            (b, r) => {
                prop_assert!(false, "solver disagreement: native {b:?} vs rows {r:?}");
            }
        }
    }

    /// Duals on the shared equality rows agree between encodings.
    #[test]
    fn duals_agree_on_shared_rows(inst in arb_instance()) {
        let opts = SimplexOptions::default();
        let (ba, bb, bc, bu) = bounded_form(&inst);
        let (ra, rb, rc) = row_form(&inst);
        if let (Ok(bs), Ok(rs)) = (
            solve_bounded(&ba, &bb, &bc, &bu, inst.nv, &opts),
            solve_standard(&ra, &rb, &rc, inst.nv, &opts),
        ) {
            // Dual values can differ at degenerate optima (alternative
            // optimal bases); compare the dual objective y·b + bound
            // contributions instead. Strong duality pins both to the
            // primal objective, which bounded_matches_row_based already
            // checks; here we check the bounded duals' dual-feasibility
            // on unbounded columns: c_j - y·A_j >= -tol for x_j interior.
            for j in 0..inst.nv {
                if bs.x[j] > 1e-7 && bs.x[j] + 1e-7 < inst.u[j] {
                    let ya: f64 =
                        (0..inst.m).map(|i| bs.duals[i] * inst.a[i][j]).sum();
                    prop_assert!(
                        (bc[j] - ya).abs() < 1e-6,
                        "interior var {j} must have zero reduced cost: {}",
                        bc[j] - ya
                    );
                }
            }
            let _ = rs;
        }
    }
}
