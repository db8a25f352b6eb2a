//! Two-phase primal simplex on a dense tableau.
//!
//! Solves `min c·x` subject to `A x = b`, `x ≥ 0`, with `b ≥ 0` (the
//! conversion in [`crate::problem`] guarantees non-negative right-hand
//! sides). Phase 1 introduces artificial variables for rows without an
//! obvious basic column and minimizes their sum; phase 2 optimizes the true
//! objective with artificials barred from re-entering.
//!
//! Pricing uses Dantzig's rule (most negative reduced cost) by default and
//! falls back to Bland's rule after a configurable number of iterations to
//! guarantee termination on degenerate problems; the ratio test always
//! breaks ties by smallest basis index, which suffices for finite
//! termination once Bland pricing is active.
//!
//! [`crate::Problem`] solves through the bounded-variable simplex
//! ([`crate::bounded`]); [`solve_standard`] is the row-based reference
//! that `tests/proptest_bounded.rs` holds it against, with finite upper
//! bounds written out as `x ≤ u` rows by the caller.

use crate::error::LpError;
use crate::matrix::Matrix;

/// Entering-variable pricing rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PivotRule {
    /// Most negative reduced cost; fast in practice, can cycle on
    /// degenerate problems (mitigated by the Bland fallback).
    Dantzig,
    /// Smallest-index rule; slower but provably terminating.
    Bland,
}

/// Solver configuration.
#[derive(Debug, Clone)]
pub struct SimplexOptions {
    /// Initial pricing rule.
    pub pivot_rule: PivotRule,
    /// Absolute tolerance for optimality and pivot eligibility tests.
    pub tol: f64,
    /// Hard cap on total pivots across both phases.
    pub max_iters: usize,
    /// Switch from Dantzig to Bland pricing after this many pivots within a
    /// phase (anti-cycling safeguard).
    pub bland_after: usize,
}

impl Default for SimplexOptions {
    fn default() -> Self {
        SimplexOptions {
            pivot_rule: PivotRule::Dantzig,
            tol: 1e-9,
            max_iters: 100_000,
            bland_after: 5_000,
        }
    }
}

/// Iteration statistics from a solve.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimplexStats {
    /// Pivots performed in phase 1.
    pub phase1_iters: usize,
    /// Pivots performed in phase 2.
    pub phase2_iters: usize,
    /// Number of artificial variables introduced.
    pub artificials: usize,
    /// Redundant rows dropped after phase 1.
    pub dropped_rows: usize,
}

/// Solution of a standard-form LP.
#[derive(Debug, Clone)]
pub struct StandardSolution {
    /// Values for every standard-form column (structural + slack/surplus).
    pub x: Vec<f64>,
    /// Optimal objective `c·x`.
    pub objective: f64,
    /// Dual value (shadow price) per input row: the sensitivity of the
    /// optimal objective to that row's right-hand side. Rows eliminated
    /// as redundant during phase 1 report 0.
    pub duals: Vec<f64>,
    /// Iteration statistics.
    pub stats: SimplexStats,
}

/// Solve `min c·x` s.t. `A x = b, x ≥ 0, b ≥ 0`.
///
/// `num_structural` is the count of leading columns that correspond to
/// structural (non-slack) variables; columns at or beyond this index are
/// the slack region, scanned for the initial basis and used as dual
/// markers.
pub fn solve_standard(
    a: &[Vec<f64>],
    b: &[f64],
    c: &[f64],
    num_structural: usize,
    opts: &SimplexOptions,
) -> Result<StandardSolution, LpError> {
    let m = a.len();
    let n = if m == 0 { c.len() } else { a[0].len() };
    debug_assert!(b.iter().all(|&bi| bi >= 0.0), "standard form requires b >= 0");

    if m == 0 {
        // No constraints: optimum is 0 for all non-negative variables
        // unless some cost is negative, in which case the LP is unbounded.
        if let Some(j) = c.iter().position(|&cj| cj < -opts.tol) {
            return Err(LpError::Unbounded { column: j });
        }
        return Ok(StandardSolution {
            x: vec![0.0; n],
            objective: 0.0,
            duals: Vec::new(),
            stats: SimplexStats::default(),
        });
    }

    let mut tab = Tableau::build(a, b, c, num_structural, opts)?;
    let stats1 = tab.phase1()?;
    let stats2 = tab.phase2()?;
    let x = tab.extract(n);
    let objective = crate::matrix::dot(&x, c);
    let duals = tab.duals(m);
    Ok(StandardSolution {
        x,
        objective,
        duals,
        stats: SimplexStats {
            phase1_iters: stats1,
            phase2_iters: stats2,
            artificials: tab.num_artificial,
            dropped_rows: tab.dropped_rows,
        },
    })
}

/// Dense simplex tableau with explicit basis tracking.
struct Tableau {
    /// `live_rows × (total_cols + 1)`; the last column is the RHS.
    t: Matrix,
    /// Basic column index for each live row.
    basis: Vec<usize>,
    /// Original cost vector padded to `total_cols` (artificials cost 0 in
    /// phase 2 but are barred from entering).
    cost: Vec<f64>,
    /// Original input-row index of each live row (rows can be dropped).
    orig_rows: Vec<usize>,
    /// Per input row: the column whose *original* constraint coefficients
    /// are `+e_row` (its Le slack, or its artificial). Used to read dual
    /// values off the final reduced costs.
    marker: Vec<usize>,
    /// First artificial column index (== n).
    art_start: usize,
    num_artificial: usize,
    dropped_rows: usize,
    opts: SimplexOptions,
}

impl Tableau {
    fn build(
        a: &[Vec<f64>],
        b: &[f64],
        c: &[f64],
        num_structural: usize,
        opts: &SimplexOptions,
    ) -> Result<Self, LpError> {
        let m = a.len();
        let n = a[0].len();
        // Identify rows whose slack column can serve as the initial basis:
        // a +1 unit column in the slack region. (Restricting the scan to
        // the slack region keeps the dual-marker bookkeeping exact:
        // structural columns never double as row markers.)
        let mut basis = vec![usize::MAX; m];
        'col: for j in num_structural..n {
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
            if unit_row != usize::MAX && basis[unit_row] == usize::MAX {
                basis[unit_row] = j;
            }
        }
        let rows_needing_art: Vec<usize> = (0..m).filter(|&i| basis[i] == usize::MAX).collect();
        let num_artificial = rows_needing_art.len();
        let total = n + num_artificial;
        let mut t = Matrix::zeros(m, total + 1);
        for i in 0..m {
            let row = t.row_mut(i);
            row[..n].copy_from_slice(&a[i]);
            row[total] = b[i];
        }
        // Markers: the slack basis column where present, the artificial
        // otherwise. Both have original coefficients +e_row and zero
        // phase-2 cost, so the dual of row i is -z[marker[i]].
        let mut marker = basis.clone();
        for (k, &i) in rows_needing_art.iter().enumerate() {
            t[(i, n + k)] = 1.0;
            basis[i] = n + k;
            marker[i] = n + k;
        }
        let mut cost = vec![0.0; total];
        cost[..n].copy_from_slice(c);
        Ok(Tableau {
            t,
            basis,
            cost,
            orig_rows: (0..m).collect(),
            marker,
            art_start: n,
            num_artificial,
            dropped_rows: 0,
            opts: opts.clone(),
        })
    }

    /// Dual values per original input row, from the final reduced costs:
    /// marker column `j` of row `r` has original coefficients `+e_r` and
    /// zero cost, so `z_j = 0 − y_r` and `y_r = −z_j`. Dropped rows
    /// (redundant constraints) report 0.
    fn duals(&self, num_input_rows: usize) -> Vec<f64> {
        let z = self.reduced_costs(&self.cost);
        let mut y = vec![0.0; num_input_rows];
        for (live, &orig) in self.orig_rows.iter().enumerate() {
            let _ = live;
            y[orig] = -z[self.marker[orig]];
        }
        y
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

    /// Reduced costs for the given cost vector under the current basis:
    /// `z_j = cost_j − Σ_i cost_basis(i) · t[i][j]`.
    fn reduced_costs(&self, cost: &[f64]) -> Vec<f64> {
        let total = self.total_cols();
        let mut z = cost.to_vec();
        for i in 0..self.m() {
            let cb = cost[self.basis[i]];
            if cb == 0.0 {
                continue;
            }
            let row = self.t.row(i);
            for j in 0..total {
                z[j] -= cb * row[j];
            }
        }
        z
    }

    /// Run simplex pivots until the reduced costs are non-negative.
    /// `allow(j)` filters which columns may enter. Returns pivot count.
    fn optimize(&mut self, cost: &[f64], allow: impl Fn(usize) -> bool) -> Result<usize, LpError> {
        let tol = self.opts.tol;
        let mut z = self.reduced_costs(cost);
        let mut iters = 0usize;
        loop {
            if iters >= self.opts.max_iters {
                return Err(LpError::IterationLimit { limit: self.opts.max_iters });
            }
            let use_bland =
                self.opts.pivot_rule == PivotRule::Bland || iters >= self.opts.bland_after;
            // Entering column.
            let mut enter = usize::MAX;
            let mut best = -tol;
            for (j, &zj) in z.iter().enumerate() {
                if !allow(j) {
                    continue;
                }
                if zj < best {
                    enter = j;
                    best = zj;
                    if use_bland {
                        break; // first eligible index
                    }
                }
            }
            if enter == usize::MAX {
                return Ok(iters);
            }
            // Ratio test.
            let mut leave = usize::MAX;
            let mut best_ratio = f64::INFINITY;
            for i in 0..self.m() {
                let aij = self.t[(i, enter)];
                if aij > tol {
                    let ratio = self.rhs(i) / aij;
                    let better = ratio < best_ratio - tol
                        || (ratio < best_ratio + tol
                            && leave != usize::MAX
                            && self.basis[i] < self.basis[leave]);
                    if better {
                        best_ratio = ratio;
                        leave = i;
                    }
                }
            }
            if leave == usize::MAX {
                return Err(LpError::Unbounded { column: enter });
            }
            self.pivot(leave, enter);
            // Recompute reduced costs incrementally is possible, but the
            // tableau already carries the work; recomputing keeps the
            // update numerically self-correcting at these sizes.
            z = self.reduced_costs(cost);
            iters += 1;
        }
    }

    /// Gauss-Jordan pivot on `(row, col)`.
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
            // Clean the pivot entry exactly.
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

    /// Phase 1: minimize the sum of artificials.
    fn phase1(&mut self) -> Result<usize, LpError> {
        if self.num_artificial == 0 {
            return Ok(0);
        }
        let total = self.total_cols();
        let mut art_cost = vec![0.0; total];
        for j in self.art_start..total {
            art_cost[j] = 1.0;
        }
        let iters = self.optimize(&art_cost, |_| true)?;
        // Residual infeasibility = current value of the artificial sum.
        let residual: f64 =
            (0..self.m()).filter(|&i| self.basis[i] >= self.art_start).map(|i| self.rhs(i)).sum();
        if residual > self.opts.tol.max(1e-7) {
            return Err(LpError::Infeasible { residual });
        }
        self.evict_artificials();
        Ok(iters)
    }

    /// Pivot zero-level artificials out of the basis, dropping redundant
    /// rows whose entries are all zero.
    fn evict_artificials(&mut self) {
        let tol = self.opts.tol;
        let art_start = self.art_start;
        let mut i = 0;
        while i < self.m() {
            if self.basis[i] >= art_start {
                // Find a non-artificial column with a nonzero entry.
                let mut found = usize::MAX;
                for j in 0..art_start {
                    if self.t[(i, j)].abs() > tol.max(1e-10) {
                        found = j;
                        break;
                    }
                }
                if found != usize::MAX {
                    self.pivot(i, found);
                } else {
                    // Whole row is (numerically) zero outside artificials:
                    // a redundant constraint. Remove the row.
                    self.drop_row(i);
                    self.dropped_rows += 1;
                    continue; // re-examine the row that slid into slot i
                }
            }
            i += 1;
        }
    }

    fn drop_row(&mut self, row: usize) {
        let m = self.m();
        let cols = self.t.cols();
        let mut nt = Matrix::zeros(m - 1, cols);
        let mut k = 0;
        for i in 0..m {
            if i == row {
                continue;
            }
            nt.row_mut(k).copy_from_slice(self.t.row(i));
            k += 1;
        }
        self.t = nt;
        self.basis.remove(row);
        self.orig_rows.remove(row);
    }

    /// Phase 2: optimize the true objective; artificials may not re-enter.
    fn phase2(&mut self) -> Result<usize, LpError> {
        let art_start = self.art_start;
        let cost = self.cost.clone();
        self.optimize(&cost, |j| j < art_start)
    }

    /// Read the solution for the first `n` columns.
    fn extract(&self, n: usize) -> Vec<f64> {
        let mut x = vec![0.0; n];
        for i in 0..self.m() {
            let bj = self.basis[i];
            if bj < n {
                x[bj] = self.rhs(i).max(0.0);
            }
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `ns` = number of structural (non-slack) columns.
    fn solve(a: &[Vec<f64>], b: &[f64], c: &[f64], ns: usize) -> Result<StandardSolution, LpError> {
        solve_standard(a, b, c, ns, &SimplexOptions::default())
    }

    #[test]
    fn simple_min_with_slacks() {
        // min -x1 - 2x2 s.t. x1 + x2 + s1 = 4; x2 + s2 = 3.
        let a = vec![vec![1.0, 1.0, 1.0, 0.0], vec![0.0, 1.0, 0.0, 1.0]];
        let b = vec![4.0, 3.0];
        let c = vec![-1.0, -2.0, 0.0, 0.0];
        let s = solve(&a, &b, &c, 2).unwrap();
        assert!((s.objective + 7.0).abs() < 1e-9);
        assert!((s.x[0] - 1.0).abs() < 1e-9);
        assert!((s.x[1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn equality_needs_artificials() {
        // min x1 + x2 s.t. x1 + x2 = 2, x1 - x2 = 0 -> (1,1), obj 2.
        let a = vec![vec![1.0, 1.0], vec![1.0, -1.0]];
        let b = vec![2.0, 0.0];
        let c = vec![1.0, 1.0];
        let s = solve(&a, &b, &c, 2).unwrap();
        assert_eq!(s.stats.artificials, 2);
        assert!((s.objective - 2.0).abs() < 1e-9);
        assert!((s.x[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn redundant_row_is_dropped() {
        // x1 + x2 = 2 duplicated.
        let a = vec![vec![1.0, 1.0], vec![1.0, 1.0]];
        let b = vec![2.0, 2.0];
        let c = vec![1.0, 0.0];
        let s = solve(&a, &b, &c, 2).unwrap();
        assert!((s.x[0] + s.x[1] - 2.0).abs() < 1e-9);
        assert!(s.objective.abs() < 1e-9, "min pushes x1 to 0");
        assert_eq!(s.stats.dropped_rows, 1);
    }

    #[test]
    fn infeasible_residual_reported() {
        // x1 = 1 and x1 = 2 simultaneously.
        let a = vec![vec![1.0], vec![1.0]];
        let b = vec![1.0, 2.0];
        let c = vec![0.0];
        match solve(&a, &b, &c, 1) {
            Err(LpError::Infeasible { residual }) => {
                assert!(residual > 0.4, "residual {residual}");
            }
            other => panic!("expected infeasible, got {other:?}"),
        }
    }

    #[test]
    fn unbounded_in_phase2() {
        // min -x1 s.t. x1 - x2 + s = 1 (x2 lets x1 grow without bound).
        let a = vec![vec![1.0, -1.0, 1.0]];
        let b = vec![1.0];
        let c = vec![-1.0, 0.0, 0.0];
        assert!(matches!(solve(&a, &b, &c, 2), Err(LpError::Unbounded { .. })));
    }

    #[test]
    fn no_constraints_zero_or_unbounded() {
        let s = solve(&[], &[], &[1.0, 2.0], 2).unwrap();
        assert_eq!(s.objective, 0.0);
        assert!(matches!(solve(&[], &[], &[-1.0], 1), Err(LpError::Unbounded { column: 0 })));
    }

    #[test]
    fn bland_rule_solves_too() {
        let a = vec![vec![1.0, 1.0, 1.0, 0.0], vec![0.0, 1.0, 0.0, 1.0]];
        let b = vec![4.0, 3.0];
        let c = vec![-1.0, -2.0, 0.0, 0.0];
        let opts = SimplexOptions { pivot_rule: PivotRule::Bland, ..Default::default() };
        let s = solve_standard(&a, &b, &c, 2, &opts).unwrap();
        assert!((s.objective + 7.0).abs() < 1e-9);
    }

    #[test]
    fn iteration_limit_respected() {
        let a = vec![vec![1.0, 1.0, 1.0, 0.0], vec![0.0, 1.0, 0.0, 1.0]];
        let b = vec![4.0, 3.0];
        let c = vec![-1.0, -2.0, 0.0, 0.0];
        let opts = SimplexOptions { max_iters: 0, ..Default::default() };
        assert!(matches!(
            solve_standard(&a, &b, &c, 2, &opts),
            Err(LpError::IterationLimit { limit: 0 })
        ));
    }

    #[test]
    fn stats_track_iterations() {
        let a = vec![vec![1.0, 1.0, 1.0, 0.0], vec![0.0, 1.0, 0.0, 1.0]];
        let b = vec![4.0, 3.0];
        let c = vec![-1.0, -2.0, 0.0, 0.0];
        let s = solve(&a, &b, &c, 2).unwrap();
        assert!(s.stats.phase2_iters >= 1);
        assert_eq!(s.stats.phase1_iters, 0, "slack basis needs no phase 1");
        assert_eq!(s.stats.artificials, 0);
    }
}
