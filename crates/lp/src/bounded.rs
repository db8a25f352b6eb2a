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
//! `A` arrives as [`SparseRows`]: the tableau is built by zero-filling it
//! and scattering the entries into their columns, and the initial slack
//! basis is found from the entries alone, so building costs O(m·n) writes
//! plus O(nonzeros).
//!
//! # Tableau layout and the zero-sign contract
//!
//! The tableau is stored column-major: each variable owns one contiguous
//! `m`-long column, and the rhs column comes last. A pivot normalises the
//! pivot row (stride `m`), gathers the columns where it is nonzero, copies
//! the entering column as the factor vector `f` (with `f[row] = 0`) and
//! updates each gathered column by one branch-free pass,
//! `t[i][j] -= f[i]·s_j` over every row. The rhs column keeps the dense
//! rule and skips the rows where `f[i] == 0`; the entering column becomes
//! the unit column. The ratio test and the nonbasic flip read one
//! contiguous column; the basic-row flip reads a row at stride `m`.
//!
//! Against the dense Gauss–Jordan update (every row with a nonzero
//! factor, every column), the cells whose bits can differ are signed
//! zeros outside the rhs column, and nothing else:
//!
//! - a skipped column has `s_j = ±0`, where the dense update subtracts
//!   `f[i]·(±0)`; a row with `f[i] = ±0`, which the dense update skips,
//!   here subtracts `(±0)·s_j`. Either way `x ± 0 = x` for nonzero `x`,
//!   so only a zero's sign can change;
//! - every branch on a tableau cell tests `== 0.0`, `> tol` or `< -tol`,
//!   so no pivot choice, bound flip or ratio reads a zero's sign;
//! - the rhs column, and so `x`, the objective and θ, is bit-identical;
//!   the duals may differ only in the sign of a zero, so they stay `==`.
//!
//! The branch-free pass needs finite tableau entries, since `0·∞` is NaN;
//! `solve_bounded_with` debug-asserts a finite `A` and `b`. Pricing
//! computes the reduced cost of each column allowed to enter only, one
//! column at a time, over the rows whose basic variable has a nonzero
//! cost, in ascending row order: the same sum, term for term, as a pass
//! over the whole row.
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
use crate::simplex::{PivotRule, SimplexOptions, SimplexStats, StandardSolution};
use crate::sparse::SparseRows;

// The slack-basis scan's marks for a column with no nonzero seen yet and
// for one out of the running; any other mark is the row of the column's
// one nonzero so far, which is within `EPSILON` of 1.
const NO_ENTRY: u32 = u32::MAX;
const NOT_UNIT: u32 = u32::MAX - 1;

/// Solve `min c·x` s.t. `Ax = b`, `0 ≤ x ≤ u`, `b ≥ 0`.
///
/// `a` holds the `m` rows of `A` over the `c.len()` columns.
/// `upper[j] = f64::INFINITY` leaves variable `j` unbounded above.
/// `num_structural` plays the same role as in
/// [`crate::simplex::solve_standard`].
pub fn solve_bounded(
    a: &SparseRows,
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
    /// The tableau, column-major: `m` rows by `total + 1` columns, column
    /// `j` at `t[j * m..(j + 1) * m]`. The last column is the rhs in
    /// *current* (possibly flipped) coordinates.
    t: Vec<f64>,
    /// Rows of the tableau.
    m: usize,
    /// Variable columns (structural, slack, artificial); the rhs is
    /// column `total`.
    total: usize,
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
    /// Per column, the slack-basis scan's mark: [`NO_ENTRY`],
    /// [`NOT_UNIT`] or the row of the column's one unit entry.
    unit_row: Vec<u32>,
    art_start: usize,
    num_artificial: usize,
    work_cost: Vec<f64>,
    /// Pricing scratch: `(row, cost)` for each row whose basic variable
    /// has a nonzero cost, ascending.
    cost_rows: Vec<(usize, f64)>,
    /// Whether column `j` is basic, kept in step with `basis`.
    basic: Vec<bool>,
    art_rows: Vec<usize>,
    // Pivot scratch: the entering column's factors (zero in the pivot
    // row) and the normalised pivot row's nonzero columns.
    factor: Vec<f64>,
    pivot_cols: Vec<usize>,
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
            t: Vec::new(),
            m: 0,
            total: 0,
            basis: Vec::new(),
            upper: Vec::new(),
            flipped: Vec::new(),
            cost: Vec::new(),
            marker: Vec::new(),
            unit_row: Vec::new(),
            art_start: 0,
            num_artificial: 0,
            work_cost: Vec::new(),
            cost_rows: Vec::new(),
            basic: Vec::new(),
            art_rows: Vec::new(),
            factor: Vec::new(),
            pivot_cols: Vec::new(),
        }
    }

    /// Tableau column `j`; `j == total` is the rhs.
    fn col(&self, j: usize) -> &[f64] {
        &self.t[j * self.m..(j + 1) * self.m]
    }

    fn rhs(&self, i: usize) -> f64 {
        self.t[self.total * self.m + i]
    }

    /// Build (or rebuild) the tableau for a model, reusing all buffers.
    fn prepare(
        &mut self,
        a: &SparseRows,
        b: &[f64],
        c: &[f64],
        upper: &[f64],
        num_structural: usize,
    ) {
        let m = a.rows();
        let n = c.len();
        // Slack-region unit columns with infinite bound can serve as the
        // initial basis (in our standard form slacks are unbounded): a
        // column qualifies when its only nonzero is within EPSILON of 1,
        // and columns take their rows in ascending order, first come,
        // first served. One pass over the entries marks every column.
        self.unit_row.clear();
        self.unit_row.resize(n, NO_ENTRY);
        for i in 0..m {
            let row = u32::try_from(i).expect("a row index fits in u32");
            for (j, v) in a.row(i) {
                if j < num_structural || upper[j].is_finite() || v == 0.0 {
                    continue;
                }
                let mark = &mut self.unit_row[j];
                *mark = if *mark == NO_ENTRY && (v - 1.0).abs() <= f64::EPSILON {
                    row
                } else {
                    NOT_UNIT
                };
            }
        }
        self.basis.clear();
        self.basis.resize(m, usize::MAX);
        for j in num_structural..n {
            let i = self.unit_row[j] as usize;
            if i < m && self.basis[i] == usize::MAX {
                self.basis[i] = j;
            }
        }
        self.art_rows.clear();
        self.art_rows.extend((0..m).filter(|&i| self.basis[i] == usize::MAX));
        let num_artificial = self.art_rows.len();
        let total = n + num_artificial;
        self.m = m;
        self.total = total;
        // Zero-fill, then scatter the entries into their columns.
        self.t.clear();
        self.t.resize(m * (total + 1), 0.0);
        for i in 0..m {
            for (j, v) in a.row(i) {
                self.t[j * m + i] = v;
            }
        }
        self.t[total * m..].copy_from_slice(b);
        self.marker.clear();
        self.marker.extend_from_slice(&self.basis);
        for k in 0..num_artificial {
            let i = self.art_rows[k];
            self.t[(n + k) * m + i] = 1.0;
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
        self.cost_rows.clear();
        self.cost_rows.reserve_exact(m);
        self.work_cost.clear();
        self.work_cost.resize(total, 0.0);
        self.basic.clear();
        self.basic.resize(total, false);
        for &j in &self.basis {
            self.basic[j] = true;
        }
        self.factor.clear();
        self.factor.resize(m, 0.0);
        self.pivot_cols.clear();
        self.pivot_cols.reserve_exact(total);
    }

    /// Column `j`'s reduced cost `c_j − Σ_i c_B(i)·t[i][j]`, the sum taken
    /// over `cost_rows` in ascending row order.
    fn reduced_cost(&self, j: usize, cj: f64) -> f64 {
        let column = self.col(j);
        let mut zj = cj;
        for &(i, cb) in &self.cost_rows {
            zj -= cb * column[i];
        }
        zj
    }

    /// Substitute a **nonbasic** column: `x = u − x̃`. Adjusts the rhs for
    /// the full traversal, negates the column, toggles the flag and cost.
    fn flip_nonbasic(&mut self, j: usize) {
        let u = self.upper[j];
        debug_assert!(u.is_finite(), "cannot flip an unbounded column");
        let m = self.m;
        let (cols, rhs) = self.t.split_at_mut(self.total * m);
        for (a, r) in cols[j * m..(j + 1) * m].iter_mut().zip(rhs) {
            if *a != 0.0 {
                *r -= *a * u;
                *a = -*a;
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
        let mut cells = self.t[row..].iter_mut().step_by(self.m);
        for (jj, v) in cells.by_ref().take(self.total).enumerate() {
            if jj != bj {
                *v = -*v;
            }
        }
        let rhs = cells.next().expect("the rhs column follows the variables");
        *rhs = u - *rhs;
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
            // Pricing: reduced costs of the columns allowed to enter only
            // (phase 2 bars the artificials).
            load_cost_rows(&mut self.cost_rows, &self.basis, &self.work_cost);
            let use_bland = opts.pivot_rule == PivotRule::Bland || iters >= opts.bland_after;
            let mut enter = usize::MAX;
            let mut best = -tol;
            let candidates = if phase2 { art_start } else { self.total };
            for j in 0..candidates {
                if self.basic[j] {
                    continue;
                }
                let zj = self.reduced_cost(j, self.work_cost[j]);
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

            // Ratio test: entering increases from 0 by t, down one
            // contiguous column beside the rhs column.
            let mut limit = self.upper[enter];
            let mut leave = usize::MAX;
            let mut leave_at_upper = false;
            let rhs = self.col(self.total);
            for (i, (&alpha, &bi_rhs)) in self.col(enter).iter().zip(rhs).enumerate() {
                let bi = self.basis[i];
                if alpha > tol {
                    let ratio = bi_rhs / alpha;
                    if ratio < limit - tol
                        || (ratio < limit + tol && leave != usize::MAX && bi < self.basis[leave])
                    {
                        limit = ratio.max(0.0);
                        leave = i;
                        leave_at_upper = false;
                    }
                } else if alpha < -tol && self.upper[bi].is_finite() {
                    let headroom = (self.upper[bi] - bi_rhs).max(0.0);
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

    /// Gauss–Jordan pivot on `(row, col)`, one column at a time: only the
    /// columns where the normalised pivot row is nonzero change, each by
    /// one branch-free pass over its rows (see the module docs for why
    /// that moves no bit outside the signs of zeros).
    fn pivot(&mut self, row: usize, col: usize) {
        let m = self.m;
        let total = self.total;
        let t = &mut self.t;
        let piv = t[col * m + row];
        debug_assert!(piv.abs() > 0.0, "zero pivot");
        let inv = 1.0 / piv;
        // Normalise the pivot row and gather its nonzero columns, 64 at a
        // time through a bit mask: no branch per cell, whose pattern is
        // data and mispredicts on small, dense rows. The entering cell,
        // zeroed first, is not gathered, and ends at 1 as in the dense
        // update.
        t[col * m + row] = 0.0;
        self.pivot_cols.clear();
        let mut cells = t[row..].iter_mut().step_by(m);
        let mut base = 0;
        while base < total {
            let mut mask = 0u64;
            for (bit, v) in cells.by_ref().take((total - base).min(64)).enumerate() {
                *v *= inv;
                mask |= u64::from(*v != 0.0) << bit;
            }
            while mask != 0 {
                self.pivot_cols.push(base + mask.trailing_zeros() as usize);
                mask &= mask - 1;
            }
            base += 64;
        }
        *cells.next().expect("the rhs column follows the variables") *= inv;
        t[col * m + row] = 1.0;
        let factor = &mut self.factor[..];
        factor.copy_from_slice(&t[col * m..(col + 1) * m]);
        factor[row] = 0.0;
        for &j in &self.pivot_cols {
            let column = &mut t[j * m..(j + 1) * m];
            let s = column[row];
            for (v, &f) in column.iter_mut().zip(&*factor) {
                *v -= f * s;
            }
        }
        // The rhs keeps the dense rule, rows with a zero factor untouched,
        // so its bits (and `x`, the objective, θ) are exact; the entering
        // column becomes the unit column.
        let (cols, rhs) = t.split_at_mut(total * m);
        let entering = &mut cols[col * m..(col + 1) * m];
        let s = rhs[row];
        for ((r, e), &f) in rhs.iter_mut().zip(entering).zip(&*factor) {
            if f != 0.0 {
                *r -= f * s;
                *e = 0.0;
            }
        }
        self.basic[self.basis[row]] = false;
        self.basic[col] = true;
        self.basis[row] = col;
    }

    fn phase1(&mut self, opts: &SimplexOptions) -> Result<usize, LpError> {
        if self.num_artificial == 0 {
            return Ok(0);
        }
        for j in 0..self.total {
            self.work_cost[j] = if j >= self.art_start { 1.0 } else { 0.0 };
        }
        let iters = self.optimize(false, opts)?;
        let residual: f64 = (0..self.m)
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
        for j in self.art_start..self.total {
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
        let mut current = vec![0.0; self.total];
        for (i, &r) in self.col(self.total).iter().enumerate() {
            current[self.basis[i]] = r.max(0.0);
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

    /// The rows' duals: minus the phase-2 reduced cost of each row's
    /// starting basic column.
    fn duals(&mut self) -> Vec<f64> {
        load_cost_rows(&mut self.cost_rows, &self.basis, &self.cost);
        self.marker.iter().map(|&mk| -self.reduced_cost(mk, self.cost[mk])).collect()
    }
}

/// Fill `rows` with `(row, cost)` for each row whose basic variable has a
/// nonzero cost under `costs`, ascending.
fn load_cost_rows(rows: &mut Vec<(usize, f64)>, basis: &[usize], costs: &[f64]) {
    rows.clear();
    for (i, &bj) in basis.iter().enumerate() {
        let cb = costs[bj];
        if cb != 0.0 {
            rows.push((i, cb));
        }
    }
}

/// Like [`solve_bounded`], but reusing `ws`'s buffers. See the module
/// docs for the guarantees; results are bit-identical to `solve_bounded`.
pub fn solve_bounded_with(
    ws: &mut SimplexWorkspace,
    a: &SparseRows,
    b: &[f64],
    c: &[f64],
    upper: &[f64],
    num_structural: usize,
    opts: &SimplexOptions,
) -> Result<StandardSolution, LpError> {
    let m = a.rows();
    let n = c.len();
    debug_assert_eq!(upper.len(), n, "one upper bound per column");
    debug_assert_eq!(b.len(), m, "one right-hand side per row");
    debug_assert!((0..m).all(|i| a.row(i).all(|(j, _)| j < n)), "every entry inside the columns");
    debug_assert!(b.iter().all(|&bi| bi >= 0.0), "standard form requires b >= 0");
    debug_assert!(
        b.iter().all(|bi| bi.is_finite()) && (0..m).all(|i| a.row(i).all(|(_, v)| v.is_finite())),
        "the branch-free pivot needs a finite tableau (0·∞ is NaN)"
    );
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

    ws.prepare(a, b, c, upper, num_structural);
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
        solve_bounded(&SparseRows::from_dense(a), b, c, upper, ns, &SimplexOptions::default())
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

    // --- slack-basis rule ---

    /// The starting basis `prepare` picks: per row, its slack column, or
    /// `ART` for a row that starts on an artificial.
    const ART: usize = usize::MAX;

    fn slack_basis(a: &[Vec<f64>], upper: &[f64], ns: usize) -> Vec<usize> {
        let mut ws = SimplexWorkspace::new();
        let n = upper.len();
        let b = vec![1.0; a.len()];
        ws.prepare(&SparseRows::from_dense(a), &b, &vec![0.0; n], upper, ns);
        ws.basis.iter().map(|&j| if j >= n { ART } else { j }).collect()
    }

    /// The rule as the dense `prepare` applied it, column by column:
    /// the reference the entry scan must reproduce.
    fn dense_slack_basis(a: &[Vec<f64>], upper: &[f64], ns: usize) -> Vec<usize> {
        let mut basis = vec![ART; a.len()];
        'col: for j in ns..upper.len() {
            if upper[j].is_finite() {
                continue;
            }
            let mut unit_row = ART;
            for (i, row) in a.iter().enumerate() {
                let v = row[j];
                if v == 0.0 {
                    continue;
                }
                if (v - 1.0).abs() <= f64::EPSILON && unit_row == ART {
                    unit_row = i;
                } else {
                    continue 'col;
                }
            }
            if unit_row != ART && basis[unit_row] == ART {
                basis[unit_row] = j;
            }
        }
        basis
    }

    #[test]
    fn unit_column_whose_row_is_taken_stays_nonbasic() {
        // s1 and s2 are both unit columns of row 0: the lower one wins,
        // and row 1 has no slack of its own.
        let a = vec![vec![1.0, 1.0, 1.0], vec![1.0, 0.0, 0.0]];
        assert_eq!(slack_basis(&a, &[INF; 3], 1), vec![1, ART]);
    }

    #[test]
    fn column_with_ones_in_two_rows_is_not_a_slack() {
        let a = vec![vec![1.0, 1.0, 0.0], vec![0.0, 1.0, 1.0]];
        assert_eq!(slack_basis(&a, &[INF; 3], 1), vec![ART, 2]);
    }

    #[test]
    fn entry_within_epsilon_of_one_is_a_unit() {
        let near = 1.0 + f64::EPSILON;
        let far = 1.0 + 2.0 * f64::EPSILON;
        let a = vec![vec![1.0, near, 0.0], vec![1.0, 0.0, far]];
        assert_eq!(slack_basis(&a, &[INF; 3], 1), vec![1, ART]);
    }

    #[test]
    fn slack_region_column_with_finite_bound_is_not_a_slack() {
        // Column 1 is a unit column past num_structural, but bounded.
        let a = vec![vec![1.0, 1.0, 0.0], vec![1.0, 0.0, 1.0]];
        assert_eq!(slack_basis(&a, &[INF, 4.0, INF], 1), vec![ART, 2]);
    }

    #[test]
    fn negative_zero_is_no_entry_and_nan_disqualifies() {
        // -0.0 is an entry of the sparse rows but counts as zero, as the
        // dense rule's `v == 0.0` did; NaN counts as a non-unit nonzero.
        let a = vec![vec![1.0, 1.0, f64::NAN], vec![1.0, -0.0, 1.0]];
        assert_eq!(slack_basis(&a, &[INF; 3], 1), vec![1, ART]);
    }

    proptest::proptest! {
        /// The entry scan picks the basis the dense column scan picked, on
        /// matrices drawn from the cells that decide the rule.
        #[test]
        fn entry_scan_matches_the_dense_rule(
            cells in proptest::collection::vec(0usize..8, 1..=36),
            rows in 1usize..=6,
            ns in 0usize..=3,
            finite in proptest::collection::vec(0u8..5, 6),
        ) {
            const CELLS: [f64; 8] =
                [0.0, 0.0, -0.0, 1.0, 1.0 + f64::EPSILON, 1.0 - f64::EPSILON, 2.0, f64::NAN];
            let cols = cells.len().div_ceil(rows);
            let a: Vec<Vec<f64>> = (0..rows)
                .map(|i| (0..cols).map(|j| CELLS[cells.get(i * cols + j).copied().unwrap_or(0)]).collect())
                .collect();
            let upper: Vec<f64> = (0..cols).map(|j| if finite[j % 6] == 0 { 5.0 } else { INF }).collect();
            let ns = ns.min(cols);
            proptest::prop_assert_eq!(slack_basis(&a, &upper, ns), dense_slack_basis(&a, &upper, ns));
        }
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

    // --- the signed-zero boundary ---

    /// The allocation LP's rows as the flat solver assembles them, every
    /// principal with a positive bound: requester 0 over `bound.len()`
    /// principals, `inflow[k][i]` the share of `k`'s pool `i` may draw.
    #[allow(clippy::type_complexity)]
    fn allocation_rows(
        bound: &[f64],
        inflow: &[[f64; 4]],
        x: f64,
    ) -> (SparseRows, Vec<f64>, Vec<f64>, Vec<f64>, usize) {
        let n = bound.len();
        let theta = n;
        let num_structural = n + 1;
        let total = num_structural + n - 1;
        let mut upper = vec![INF; total];
        upper[..n].copy_from_slice(bound);
        let mut c = vec![0.0; total];
        c[theta] = 1.0;
        let mut b = vec![0.0; n];
        b[0] = x;
        let mut rows = SparseRows::new();
        for j in 0..n {
            rows.push(j, 1.0);
        }
        rows.end_row();
        for (slack, i) in (num_structural..).zip(1..n) {
            rows.push(i, 1.0);
            for (k, shares) in inflow.iter().enumerate() {
                if k != i && shares[i] != 0.0 {
                    rows.push(k, shares[i]);
                }
            }
            rows.push(theta, -1.0);
            rows.push(slack, 1.0);
            rows.end_row();
        }
        (rows, b, c, upper, num_structural)
    }

    /// Two allocation LPs on which a leave-at-upper substitution negates
    /// zero cells of the leaving row, and the pivot on that row then
    /// writes zeros whose sign depends on whether the update visits every
    /// row and column (the dense Gauss–Jordan update) or only the columns
    /// where the pivot row is nonzero (this module's). `x`, the objective
    /// and θ are pinned by their bits and the duals by value, as the dense
    /// kernel produced them: the zero-sign contract in the module docs.
    #[test]
    fn signed_zeros_of_a_leave_at_upper_flip_move_no_result_bit() {
        struct Case {
            bound: [f64; 4],
            inflow: [[f64; 4]; 4],
            x: f64,
            iters: (usize, usize),
            x_bits: [u64; 8],
            objective_bits: u64,
            duals: [f64; 4],
        }
        let cases = [
            Case {
                bound: [5.0, 1.0, 1.0, 1.0],
                inflow: [
                    [0.0, 0.5, 0.25, 0.25],
                    [0.25, 0.0, 0.0, 0.25],
                    [0.25, 0.25, 0.0, 0.25],
                    [0.25, 0.0, 0.25, 0.0],
                ],
                x: 7.0,
                iters: (5, 2),
                x_bits: [
                    0x4014_0000_0000_0000,
                    0,
                    0x3ff0_0000_0000_0000,
                    0x3ff0_0000_0000_0000,
                    0x4006_0000_0000_0000,
                    0,
                    0x3fd0_0000_0000_0000,
                    0x3fd0_0000_0000_0000,
                ],
                objective_bits: 0x4006_0000_0000_0000,
                duals: [0.5, -1.0, -0.0, -0.0],
            },
            Case {
                bound: [4.0, 3.0, 4.0, 3.0],
                inflow: [
                    [0.0, 0.5, 0.0, 0.0],
                    [0.25, 0.0, 0.0, 0.25],
                    [0.0, 0.0, 0.0, 0.0],
                    [0.25, 0.0, 0.25, 0.0],
                ],
                x: 7.0,
                iters: (4, 3),
                x_bits: [
                    0x400d_dddd_dddd_ddde,
                    0,
                    0x3ff6_6666_6666_6666,
                    0x3ffd_dddd_dddd_ddde,
                    0x3ffd_dddd_dddd_ddde,
                    0,
                    0,
                    0,
                ],
                objective_bits: 0x3ffd_dddd_dddd_ddde,
                duals: [0.26666666666666666, -0.5333333333333334, -0.26666666666666666, -0.2],
            },
        ];
        for (k, case) in cases.iter().enumerate() {
            let (a, b, c, u, ns) = allocation_rows(&case.bound, &case.inflow, case.x);
            let s = solve_bounded(&a, &b, &c, &u, ns, &SimplexOptions::default()).unwrap();
            assert_eq!((s.stats.phase1_iters, s.stats.phase2_iters), case.iters, "case {k}");
            let x_bits: Vec<u64> = s.x.iter().map(|v| v.to_bits()).collect();
            assert_eq!(x_bits, case.x_bits, "case {k}: x");
            assert_eq!(s.objective.to_bits(), case.objective_bits, "case {k}: objective");
            assert_eq!(s.duals, case.duals, "case {k}: duals, equal up to the sign of a zero");
        }
    }

    // --- workspace tests ---

    /// The allocation-shaped LP above, parameterized by demand x, as raw
    /// standard form.
    #[allow(clippy::type_complexity)]
    fn alloc_lp(x: f64) -> (SparseRows, Vec<f64>, Vec<f64>, Vec<f64>) {
        let a = SparseRows::from_dense(&[
            vec![1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0],
            vec![1.0, 0.0, 0.0, -1.0, 1.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0, -1.0, 0.0, 1.0, 0.0],
            vec![0.0, 0.0, 1.0, -1.0, 0.0, 0.0, 1.0],
        ]);
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
        let small_a = SparseRows::from_dense(&[vec![1.0, 1.0]]);
        let s2 =
            solve_bounded_with(&mut ws, &small_a, &[10.0], &[-1.0, 0.0], &[4.0, INF], 1, &opts)
                .unwrap();
        assert!((s2.objective + 4.0).abs() < 1e-9);
        let s3 = solve_bounded_with(&mut ws, &a, &b, &c, &u, 4, &opts).unwrap();
        assert_eq!(s1.x, s3.x);
        assert_eq!(s1.objective, s3.objective);
    }
}
