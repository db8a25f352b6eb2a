//! Bounded-variable primal simplex.
//!
//! The row-based solver in [`crate::simplex`] models finite upper bounds
//! as extra `x ≤ u` rows; every bounded variable costs one row and one
//! slack column. This module implements the classic *bounded-variable*
//! simplex instead, using the substitution trick: a variable resting at
//! its upper bound is rewritten as `x = u − x̃` (its column negated, the
//! right-hand side adjusted), so every nonbasic variable always sits at
//! zero in its current coordinates. Three pivot outcomes exist:
//!
//! 1. **Bound flip** — the entering variable traverses its whole box
//!    before any basic variable hits a bound: substitute it, no pivot.
//! 2. **Leave at lower** — a basic variable reaches 0: ordinary pivot.
//! 3. **Leave at upper** — a basic variable reaches its upper bound:
//!    substitute *it* first, then pivot.
//!
//! For the scheduler's allocation LPs — where every draw variable has a
//! finite entitlement bound — this halves the tableau height relative to
//! the row-based encoding. Equivalence with the row-based solver is
//! property-tested (`tests/proptest_bounded.rs`).
//!
//! Solves `min c·x` s.t. `A x = b`, `0 ≤ x_j ≤ u_j` (`u_j = ∞` allowed),
//! `b ≥ 0`. Phase 1 uses artificials exactly like the row-based solver.
//!
//! # Workspaces
//!
//! [`solve_bounded`] builds a fresh tableau per call — fine for one-off
//! solves, wasteful in the scheduler's hot path where the same-shaped LP
//! is solved per request. [`SimplexWorkspace`] owns every buffer the
//! solver touches (tableau, basis, bounds, flip flags, pricing scratch);
//! [`solve_bounded_with`] reuses them, performing **zero heap
//! allocations** after the first solve of a given shape (outputs
//! excepted — the returned `x`/`duals` vectors are owned by the caller).
//! `solve_bounded` itself delegates to `solve_bounded_with` with a
//! throwaway workspace, so the two are bit-identical by construction
//! (property-tested anyway).

use crate::error::LpError;
use crate::matrix::Matrix;
use crate::simplex::{PivotRule, SimplexOptions, SimplexStats, StandardSolution};

/// Solve `min c·x` s.t. `Ax = b`, `0 ≤ x ≤ u`, `b ≥ 0`.
///
/// `upper[j] = f64::INFINITY` leaves variable `j` unbounded above.
/// `num_structural` plays the same role as in
/// [`crate::simplex::solve_standard`].
pub fn solve_bounded(
    a: &[Vec<f64>],
    b: &[f64],
    c: &[f64],
    upper: &[f64],
    num_structural: usize,
    opts: &SimplexOptions,
) -> Result<StandardSolution, LpError> {
    let mut ws = SimplexWorkspace::new();
    solve_bounded_with(&mut ws, a, b, c, upper, num_structural, opts)
}

/// Reusable buffers for [`solve_bounded_with`].
///
/// One workspace serves any sequence of problems; buffers grow to the
/// largest shape seen and are then reused without reallocation. A
/// workspace is cheap to create but not `Clone`/`Send`-shared — give
/// each thread its own.
#[derive(Debug)]
pub struct SimplexWorkspace {
    /// `m × (total + 1)`; the last column is the rhs in *current*
    /// (possibly flipped) coordinates.
    t: Matrix,
    basis: Vec<usize>,
    /// Upper bound per column, in its own (unflipped) units; artificials
    /// get ∞ (0 after phase 1).
    upper: Vec<f64>,
    /// Whether column `j` currently uses flipped coordinates
    /// (`x_j = u_j − x̃_j`).
    flipped: Vec<bool>,
    /// Phase-2 costs in current coordinates (negated for flipped cols).
    cost: Vec<f64>,
    marker: Vec<usize>,
    art_start: usize,
    num_artificial: usize,
    // Pricing/ratio-test scratch, reused across iterations.
    z: Vec<f64>,
    work_cost: Vec<f64>,
    basic: Vec<bool>,
    art_rows: Vec<usize>,
}

impl Default for SimplexWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

impl SimplexWorkspace {
    /// An empty workspace (no buffers allocated until the first solve).
    pub fn new() -> Self {
        SimplexWorkspace {
            t: Matrix::zeros(0, 0),
            basis: Vec::new(),
            upper: Vec::new(),
            flipped: Vec::new(),
            cost: Vec::new(),
            marker: Vec::new(),
            art_start: 0,
            num_artificial: 0,
            z: Vec::new(),
            work_cost: Vec::new(),
            basic: Vec::new(),
            art_rows: Vec::new(),
        }
    }

    fn m(&self) -> usize {
        self.t.rows()
    }

    fn total_cols(&self) -> usize {
        self.t.cols() - 1
    }

    fn rhs(&self, i: usize) -> f64 {
        self.t[(i, self.t.cols() - 1)]
    }

    /// Build (or rebuild) the tableau for a model, reusing all buffers.
    fn prepare(
        &mut self,
        a: &[Vec<f64>],
        b: &[f64],
        c: &[f64],
        upper: &[f64],
        num_structural: usize,
    ) -> Result<(), LpError> {
        let m = a.len();
        let n = a[0].len();
        // Slack-region unit columns with infinite bound can serve as the
        // initial basis (in our standard form slacks are unbounded).
        self.basis.clear();
        self.basis.resize(m, usize::MAX);
        'col: for j in num_structural..n {
            if upper[j].is_finite() {
                continue;
            }
            let mut unit_row = usize::MAX;
            for (i, row) in a.iter().enumerate() {
                let v = row[j];
                if v == 0.0 {
                    continue;
                }
                if (v - 1.0).abs() <= f64::EPSILON && unit_row == usize::MAX {
                    unit_row = i;
                } else {
                    continue 'col;
                }
            }
            if unit_row != usize::MAX && self.basis[unit_row] == usize::MAX {
                self.basis[unit_row] = j;
            }
        }
        self.art_rows.clear();
        self.art_rows.extend((0..m).filter(|&i| self.basis[i] == usize::MAX));
        let num_artificial = self.art_rows.len();
        let total = n + num_artificial;
        self.t.reset(m, total + 1);
        for i in 0..m {
            let row = self.t.row_mut(i);
            row[..n].copy_from_slice(&a[i]);
            row[total] = b[i];
        }
        self.marker.clear();
        self.marker.extend_from_slice(&self.basis);
        for k in 0..num_artificial {
            let i = self.art_rows[k];
            self.t[(i, n + k)] = 1.0;
            self.basis[i] = n + k;
            self.marker[i] = n + k;
        }
        self.cost.clear();
        self.cost.extend_from_slice(c);
        self.cost.resize(total, 0.0);
        self.upper.clear();
        self.upper.extend_from_slice(upper);
        self.upper.resize(total, f64::INFINITY);
        self.flipped.clear();
        self.flipped.resize(total, false);
        self.art_start = n;
        self.num_artificial = num_artificial;
        // Scratch sized once per shape.
        self.z.clear();
        self.z.resize(total, 0.0);
        self.work_cost.clear();
        self.work_cost.resize(total, 0.0);
        self.basic.clear();
        self.basic.resize(total, false);
        Ok(())
    }

    /// Reduced costs for `work_cost` written into `z`.
    fn reduced_costs_into_z(&mut self) {
        let total = self.total_cols();
        self.z.clear();
        self.z.extend_from_slice(&self.work_cost);
        for i in 0..self.m() {
            let cb = self.work_cost[self.basis[i]];
            if cb == 0.0 {
                continue;
            }
            let row = self.t.row(i);
            for j in 0..total {
                self.z[j] -= cb * row[j];
            }
        }
    }

    /// Substitute a **nonbasic** column: `x = u − x̃`. Adjusts the rhs for
    /// the full traversal, negates the column, toggles the flag and cost.
    fn flip_nonbasic(&mut self, j: usize) {
        let u = self.upper[j];
        debug_assert!(u.is_finite(), "cannot flip an unbounded column");
        let cols = self.t.cols();
        for i in 0..self.m() {
            let a = self.t[(i, j)];
            if a != 0.0 {
                self.t[(i, cols - 1)] -= a * u;
                self.t[(i, j)] = -a;
            }
        }
        self.flipped[j] = !self.flipped[j];
        self.cost[j] = -self.cost[j];
    }

    /// Substitute the **basic** variable of `row` (about to leave at its
    /// upper bound): negate the row's nonbasic entries, set
    /// `rhs ← u − rhs`, toggle flag and cost.
    fn flip_basic_row(&mut self, row: usize) {
        let bj = self.basis[row];
        let u = self.upper[bj];
        debug_assert!(u.is_finite());
        let cols = self.t.cols();
        for jj in 0..cols - 1 {
            if jj != bj {
                self.t[(row, jj)] = -self.t[(row, jj)];
            }
        }
        let old = self.t[(row, cols - 1)];
        self.t[(row, cols - 1)] = u - old;
        self.flipped[bj] = !self.flipped[bj];
        self.cost[bj] = -self.cost[bj];
    }

    /// One optimization loop over `work_cost` (already loaded by the
    /// caller). `phase2` bars artificial columns from entering.
    fn optimize(&mut self, phase2: bool, opts: &SimplexOptions) -> Result<usize, LpError> {
        let tol = opts.tol;
        let art_start = self.art_start;
        let mut iters = 0usize;
        loop {
            if iters >= opts.max_iters {
                return Err(LpError::IterationLimit { limit: opts.max_iters });
            }
            self.reduced_costs_into_z();
            let use_bland = opts.pivot_rule == PivotRule::Bland || iters >= opts.bland_after;
            for flag in self.basic.iter_mut() {
                *flag = false;
            }
            for &j in &self.basis {
                self.basic[j] = true;
            }
            let mut enter = usize::MAX;
            let mut best = -tol;
            for (j, &zj) in self.z.iter().enumerate() {
                if self.basic[j] || (phase2 && j >= art_start) {
                    continue;
                }
                if zj < best {
                    enter = j;
                    best = zj;
                    if use_bland {
                        break;
                    }
                }
            }
            if enter == usize::MAX {
                return Ok(iters);
            }

            // Ratio test: entering increases from 0 by t.
            let mut limit = self.upper[enter];
            let mut leave = usize::MAX;
            let mut leave_at_upper = false;
            for i in 0..self.m() {
                let alpha = self.t[(i, enter)];
                let bi = self.basis[i];
                if alpha > tol {
                    let ratio = self.rhs(i) / alpha;
                    if ratio < limit - tol
                        || (ratio < limit + tol && leave != usize::MAX && bi < self.basis[leave])
                    {
                        limit = ratio.max(0.0);
                        leave = i;
                        leave_at_upper = false;
                    }
                } else if alpha < -tol && self.upper[bi].is_finite() {
                    let headroom = (self.upper[bi] - self.rhs(i)).max(0.0);
                    let ratio = headroom / (-alpha);
                    if ratio < limit - tol
                        || (ratio < limit + tol && leave != usize::MAX && bi < self.basis[leave])
                    {
                        limit = ratio.max(0.0);
                        leave = i;
                        leave_at_upper = true;
                    }
                }
            }
            if limit.is_infinite() {
                return Err(LpError::Unbounded { column: enter });
            }

            if leave == usize::MAX {
                // Case 1: bound flip, no pivot. The working cost vector
                // flips in lockstep with self.cost (which flip_nonbasic
                // toggles for phase 2's benefit).
                self.flip_nonbasic(enter);
                self.work_cost[enter] = -self.work_cost[enter];
            } else {
                if leave_at_upper {
                    // Case 3: substitute the leaving basic first.
                    let bj = self.basis[leave];
                    self.flip_basic_row(leave);
                    self.work_cost[bj] = -self.work_cost[bj];
                }
                // Case 2/3: ordinary pivot (Gauss-Jordan handles the
                // entering movement).
                self.pivot(leave, enter);
            }
            iters += 1;
        }
    }

    fn pivot(&mut self, row: usize, col: usize) {
        let cols = self.t.cols();
        let piv = self.t[(row, col)];
        debug_assert!(piv.abs() > 0.0, "zero pivot");
        {
            let r = self.t.row_mut(row);
            let inv = 1.0 / piv;
            for v in r.iter_mut() {
                *v *= inv;
            }
            r[col] = 1.0;
        }
        for i in 0..self.m() {
            if i == row {
                continue;
            }
            let factor = self.t[(i, col)];
            if factor == 0.0 {
                continue;
            }
            let (src, dst) = self.t.row_pair_mut(row, i);
            for j in 0..cols {
                dst[j] -= factor * src[j];
            }
            dst[col] = 0.0;
        }
        self.basis[row] = col;
    }

    fn phase1(&mut self, opts: &SimplexOptions) -> Result<usize, LpError> {
        if self.num_artificial == 0 {
            return Ok(0);
        }
        let total = self.total_cols();
        for j in 0..total {
            self.work_cost[j] = if j >= self.art_start { 1.0 } else { 0.0 };
        }
        let iters = self.optimize(false, opts)?;
        let residual: f64 = (0..self.m())
            .filter(|&i| self.basis[i] >= self.art_start)
            .map(|i| self.rhs(i).abs())
            .sum();
        if residual > opts.tol.max(1e-7) {
            return Err(LpError::Infeasible { residual });
        }
        // Pin every artificial to zero for phase 2. Nonbasic artificials
        // are barred from entering, but an artificial still *basic* at
        // level 0 could otherwise re-absorb infeasibility (its ∞ bound
        // lets the ratio test wave moves through its row). With an upper
        // bound of 0, the headroom test blocks any such move and
        // degenerate pivots push the artificial out instead.
        for j in self.art_start..self.total_cols() {
            self.upper[j] = 0.0;
        }
        Ok(iters)
    }

    fn phase2(&mut self, opts: &SimplexOptions) -> Result<usize, LpError> {
        self.work_cost.clear();
        let cost_snapshot_len = self.cost.len();
        self.work_cost.resize(cost_snapshot_len, 0.0);
        self.work_cost.copy_from_slice(&self.cost);
        self.optimize(true, opts)
    }

    fn extract(&self, n: usize) -> Vec<f64> {
        let mut current = vec![0.0; self.total_cols()];
        for i in 0..self.m() {
            current[self.basis[i]] = self.rhs(i).max(0.0);
        }
        (0..n)
            .map(
                |j| {
                    if self.flipped[j] {
                        (self.upper[j] - current[j]).max(0.0)
                    } else {
                        current[j]
                    }
                },
            )
            .collect()
    }

    fn duals(&self) -> Vec<f64> {
        // Reduced costs of the phase-2 objective; work_cost still holds
        // it after optimize() returned optimal.
        let total = self.total_cols();
        let mut z: Vec<f64> = self.cost.clone();
        for i in 0..self.m() {
            let cb = self.cost[self.basis[i]];
            if cb == 0.0 {
                continue;
            }
            let row = self.t.row(i);
            for j in 0..total {
                z[j] -= cb * row[j];
            }
        }
        self.marker.iter().map(|&mk| -z[mk]).collect()
    }
}

/// Like [`solve_bounded`], but reusing `ws`'s buffers. See the module
/// docs for the guarantees; results are bit-identical to `solve_bounded`.
pub fn solve_bounded_with(
    ws: &mut SimplexWorkspace,
    a: &[Vec<f64>],
    b: &[f64],
    c: &[f64],
    upper: &[f64],
    num_structural: usize,
    opts: &SimplexOptions,
) -> Result<StandardSolution, LpError> {
    let m = a.len();
    let n = if m == 0 { c.len() } else { a[0].len() };
    debug_assert_eq!(upper.len(), n, "one upper bound per column");
    debug_assert!(b.iter().all(|&bi| bi >= 0.0), "standard form requires b >= 0");
    if upper.iter().any(|&u| u < 0.0 || u.is_nan()) {
        return Err(LpError::InvalidModel("negative or NaN upper bound".into()));
    }

    if m == 0 {
        // Minimize each variable independently over its box.
        let mut x = vec![0.0; n];
        let mut objective = 0.0;
        for j in 0..n {
            if c[j] < -opts.tol {
                if upper[j].is_infinite() {
                    return Err(LpError::Unbounded { column: j });
                }
                x[j] = upper[j];
                objective += c[j] * upper[j];
            }
        }
        return Ok(StandardSolution {
            x,
            objective,
            duals: Vec::new(),
            stats: SimplexStats::default(),
        });
    }

    ws.prepare(a, b, c, upper, num_structural)?;
    let stats1 = ws.phase1(opts)?;
    let stats2 = ws.phase2(opts)?;

    let x = ws.extract(n);
    let objective: f64 = x.iter().zip(c).map(|(xj, cj)| xj * cj).sum();
    let duals = ws.duals();
    Ok(StandardSolution {
        x,
        objective,
        duals,
        stats: SimplexStats {
            phase1_iters: stats1,
            phase2_iters: stats2,
            artificials: ws.num_artificial,
            dropped_rows: 0,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solve(
        a: &[Vec<f64>],
        b: &[f64],
        c: &[f64],
        upper: &[f64],
        ns: usize,
    ) -> Result<StandardSolution, LpError> {
        solve_bounded(a, b, c, upper, ns, &SimplexOptions::default())
    }

    const INF: f64 = f64::INFINITY;

    #[test]
    fn unbounded_vars_match_row_solver() {
        // min -x1 - 2x2, x1 + x2 + s1 = 4, x2 + s2 = 3 (no upper bounds).
        let a = vec![vec![1.0, 1.0, 1.0, 0.0], vec![0.0, 1.0, 0.0, 1.0]];
        let b = vec![4.0, 3.0];
        let c = vec![-1.0, -2.0, 0.0, 0.0];
        let s = solve(&a, &b, &c, &[INF; 4], 2).unwrap();
        assert!((s.objective + 7.0).abs() < 1e-9);
        assert!((s.x[0] - 1.0).abs() < 1e-9);
        assert!((s.x[1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn upper_bound_binds_via_bound_flip() {
        // min -x1, x1 + s = 10, x1 <= 4: optimum x1 = 4 via bound flip.
        let a = vec![vec![1.0, 1.0]];
        let b = vec![10.0];
        let c = vec![-1.0, 0.0];
        let s = solve(&a, &b, &c, &[4.0, INF], 1).unwrap();
        assert!((s.objective + 4.0).abs() < 1e-9, "objective {}", s.objective);
        assert!((s.x[0] - 4.0).abs() < 1e-9);
        assert!((s.x[1] - 6.0).abs() < 1e-9, "slack absorbs the rest");
    }

    #[test]
    fn multiple_bounded_vars() {
        // min -(x1 + x2 + x3) s.t. x1 + x2 + x3 + s = 10, x_i <= 3.
        let a = vec![vec![1.0, 1.0, 1.0, 1.0]];
        let b = vec![10.0];
        let c = vec![-1.0, -1.0, -1.0, 0.0];
        let s = solve(&a, &b, &c, &[3.0, 3.0, 3.0, INF], 3).unwrap();
        assert!((s.objective + 9.0).abs() < 1e-9, "all three at bound");
        for j in 0..3 {
            assert!((s.x[j] - 3.0).abs() < 1e-9, "x[{j}] = {}", s.x[j]);
        }
    }

    #[test]
    fn basic_variable_leaves_at_upper() {
        // min -x1 - 2x2, x1 + x2 + s = 8, x1 <= 5, x2 <= 6:
        // optimum x2 = 6, x1 = 2 -> obj = -14.
        let a = vec![vec![1.0, 1.0, 1.0]];
        let b = vec![8.0];
        let c = vec![-1.0, -2.0, 0.0];
        let s = solve(&a, &b, &c, &[5.0, 6.0, INF], 2).unwrap();
        assert!((s.objective + 14.0).abs() < 1e-9, "objective {}", s.objective);
        assert!((s.x[0] - 2.0).abs() < 1e-9, "x1 {}", s.x[0]);
        assert!((s.x[1] - 6.0).abs() < 1e-9, "x2 {}", s.x[1]);
    }

    #[test]
    fn equality_with_bounds_needs_artificials() {
        // min x1 + 2 x2 s.t. x1 + x2 = 5, x1 <= 2 -> x1 = 2, x2 = 3 -> 8.
        let a = vec![vec![1.0, 1.0]];
        let b = vec![5.0];
        let c = vec![1.0, 2.0];
        let s = solve(&a, &b, &c, &[2.0, INF], 2).unwrap();
        assert!((s.objective - 8.0).abs() < 1e-9, "objective {}", s.objective);
        assert!((s.x[0] - 2.0).abs() < 1e-9);
        assert!((s.x[1] - 3.0).abs() < 1e-9);
        assert!(s.stats.artificials >= 1);
    }

    #[test]
    fn infeasible_bounds_detected() {
        // x1 + x2 = 10 with both <= 3.
        let a = vec![vec![1.0, 1.0]];
        let b = vec![10.0];
        let c = vec![0.0, 0.0];
        assert!(matches!(solve(&a, &b, &c, &[3.0, 3.0], 2), Err(LpError::Infeasible { .. })));
    }

    #[test]
    fn unbounded_detected() {
        // min -x1 with x1 - x2 + s = 1, all unbounded above.
        let a = vec![vec![1.0, -1.0, 1.0]];
        let b = vec![1.0];
        let c = vec![-1.0, 0.0, 0.0];
        assert!(matches!(solve(&a, &b, &c, &[INF; 3], 2), Err(LpError::Unbounded { .. })));
    }

    #[test]
    fn bounded_makes_it_bounded() {
        // Same as above but x1 <= 7: optimum -7 (x2 grows to compensate).
        let a = vec![vec![1.0, -1.0, 1.0]];
        let b = vec![1.0];
        let c = vec![-1.0, 0.0, 0.0];
        let s = solve(&a, &b, &c, &[7.0, INF, INF], 2).unwrap();
        assert!((s.objective + 7.0).abs() < 1e-9, "objective {}", s.objective);
        assert!((s.x[0] - 7.0).abs() < 1e-9);
        assert!((s.x[1] - 6.0).abs() < 1e-9, "x2 balances: {}", s.x[1]);
    }

    #[test]
    fn no_constraints_box_minimum() {
        let s = solve(&[], &[], &[1.0, -2.0], &[INF, 5.0], 2).unwrap();
        assert_eq!(s.x, vec![0.0, 5.0]);
        assert!((s.objective + 10.0).abs() < 1e-12);
        assert!(matches!(
            solve(&[], &[], &[-1.0], &[INF], 1),
            Err(LpError::Unbounded { column: 0 })
        ));
    }

    #[test]
    fn negative_upper_bound_rejected() {
        let a = vec![vec![1.0]];
        assert!(matches!(solve(&a, &[1.0], &[0.0], &[-1.0], 1), Err(LpError::InvalidModel(_))));
    }

    #[test]
    fn duals_match_row_solver_on_textbook_lp() {
        // max 3x + 5y (as min of negation) with slacks; same as the
        // textbook dual test in the row solver.
        let a = vec![
            vec![1.0, 0.0, 1.0, 0.0, 0.0],
            vec![0.0, 2.0, 0.0, 1.0, 0.0],
            vec![3.0, 2.0, 0.0, 0.0, 1.0],
        ];
        let b = vec![4.0, 12.0, 18.0];
        let c = vec![-3.0, -5.0, 0.0, 0.0, 0.0];
        let s = solve(&a, &b, &c, &[INF; 5], 2).unwrap();
        assert!((s.objective + 36.0).abs() < 1e-9);
        assert!(s.duals[0].abs() < 1e-9);
        assert!((s.duals[1] + 1.5).abs() < 1e-9);
        assert!((s.duals[2] + 1.0).abs() < 1e-9);
    }

    #[test]
    fn allocation_shaped_lp() {
        // The scheduler's reduced form: draws d_i in [0, bound_i],
        // sum d = x, drop constraints via slacks.
        // min theta s.t. d1 + d2 + d3 = 6; d_i - theta <= 0 (as = with
        // slack); bounds d1 <= 5, d2 <= 3, d3 <= 4.
        // Optimum: theta = 2, draws (2, 2, 2).
        let a = vec![
            vec![1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0],
            vec![1.0, 0.0, 0.0, -1.0, 1.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0, -1.0, 0.0, 1.0, 0.0],
            vec![0.0, 0.0, 1.0, -1.0, 0.0, 0.0, 1.0],
        ];
        let b = vec![6.0, 0.0, 0.0, 0.0];
        let c = vec![0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0];
        let upper = [5.0, 3.0, 4.0, INF, INF, INF, INF];
        let s = solve(&a, &b, &c, &upper, 4).unwrap();
        assert!((s.objective - 2.0).abs() < 1e-9, "theta {}", s.objective);
        let sum: f64 = s.x[..3].iter().sum();
        assert!((sum - 6.0).abs() < 1e-9);
        for j in 0..3 {
            assert!(s.x[j] <= 2.0 + 1e-9, "draw {} = {}", j, s.x[j]);
        }
    }

    // --- workspace tests ---

    /// The allocation-shaped LP above, parameterized by demand x, as raw
    /// standard form.
    #[allow(clippy::type_complexity)]
    fn alloc_lp(x: f64) -> (Vec<Vec<f64>>, Vec<f64>, Vec<f64>, Vec<f64>) {
        let a = vec![
            vec![1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0],
            vec![1.0, 0.0, 0.0, -1.0, 1.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0, -1.0, 0.0, 1.0, 0.0],
            vec![0.0, 0.0, 1.0, -1.0, 0.0, 0.0, 1.0],
        ];
        let b = vec![x, 0.0, 0.0, 0.0];
        let c = vec![0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0];
        let upper = vec![5.0, 3.0, 4.0, INF, INF, INF, INF];
        (a, b, c, upper)
    }

    #[test]
    fn workspace_reuse_is_bit_identical() {
        let mut ws = SimplexWorkspace::new();
        let opts = SimplexOptions::default();
        for x in [6.0, 2.0, 9.0, 0.5, 11.0] {
            let (a, b, c, u) = alloc_lp(x);
            let fresh = solve_bounded(&a, &b, &c, &u, 4, &opts).unwrap();
            let reused = solve_bounded_with(&mut ws, &a, &b, &c, &u, 4, &opts).unwrap();
            assert_eq!(fresh.x, reused.x, "x mismatch at demand {x}");
            assert_eq!(fresh.objective, reused.objective);
            assert_eq!(fresh.duals, reused.duals);
            assert_eq!(fresh.stats, reused.stats);
        }
    }

    #[test]
    fn workspace_survives_shape_changes() {
        let mut ws = SimplexWorkspace::new();
        let opts = SimplexOptions::default();
        // Big problem, then small, then big again.
        let (a, b, c, u) = alloc_lp(6.0);
        let s1 = solve_bounded_with(&mut ws, &a, &b, &c, &u, 4, &opts).unwrap();
        let small_a = vec![vec![1.0, 1.0]];
        let s2 =
            solve_bounded_with(&mut ws, &small_a, &[10.0], &[-1.0, 0.0], &[4.0, INF], 1, &opts)
                .unwrap();
        assert!((s2.objective + 4.0).abs() < 1e-9);
        let s3 = solve_bounded_with(&mut ws, &a, &b, &c, &u, 4, &opts).unwrap();
        assert_eq!(s1.x, s3.x);
        assert_eq!(s1.objective, s3.objective);
    }
}
