//! LP model building and conversion to solver standard form.
//!
//! A [`Problem`] is a set of bounded variables, a linear objective, and
//! linear constraints. Solving converts the model to the simplex standard
//! form (`min c·x, A x = b, x ≥ 0, b ≥ 0`) via bound shifting and variable
//! splitting, runs the two-phase simplex, and maps the solution back to the
//! original variable space.

use crate::error::LpError;
use crate::simplex::{SimplexOptions, SimplexStats};

/// Optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    /// Minimize the objective.
    Minimize,
    /// Maximize the objective.
    Maximize,
}

/// Constraint relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// Left-hand side ≤ right-hand side.
    Le,
    /// Left-hand side ≥ right-hand side.
    Ge,
    /// Left-hand side = right-hand side.
    Eq,
}

/// Opaque handle to a model variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VarId(pub(crate) usize);

/// Opaque handle to a model constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConstraintId(pub(crate) usize);

#[derive(Debug, Clone)]
struct VarDef {
    name: String,
    lb: f64,
    ub: f64,
    obj: f64,
}

#[derive(Debug, Clone)]
struct Constraint {
    terms: Vec<(usize, f64)>,
    rel: Relation,
    rhs: f64,
}

/// A linear program under construction.
#[derive(Debug, Clone)]
pub struct Problem {
    sense: Sense,
    vars: Vec<VarDef>,
    constraints: Vec<Constraint>,
}

/// The result of a successful solve.
#[derive(Debug, Clone)]
pub struct Solution {
    /// Optimal objective value in the original sense (i.e. already negated
    /// back for maximization problems).
    pub objective: f64,
    /// Optimal value of each variable, indexed by [`VarId`] order.
    pub values: Vec<f64>,
    /// Dual value (shadow price) of each constraint, indexed by
    /// [`ConstraintId`] order, in the problem's original sense: the rate
    /// of change of the optimal objective per unit of right-hand side.
    pub duals: Vec<f64>,
    /// Solver iteration statistics.
    pub stats: SimplexStats,
}

impl Solution {
    /// Value of a variable in the optimal solution.
    #[inline]
    pub fn value(&self, v: VarId) -> f64 {
        self.values[v.0]
    }

    /// Shadow price of a constraint: how much the optimal objective would
    /// improve per unit increase of its right-hand side (0 for
    /// non-binding constraints).
    #[inline]
    pub fn dual(&self, c: ConstraintId) -> f64 {
        self.duals[c.0]
    }
}

impl Problem {
    /// Create an empty problem with the given optimization sense.
    pub fn new(sense: Sense) -> Self {
        Problem { sense, vars: Vec::new(), constraints: Vec::new() }
    }

    /// Add a variable with bounds `[lb, ub]` and objective coefficient
    /// `obj`. Use `f64::INFINITY` / `f64::NEG_INFINITY` for unbounded
    /// sides.
    pub fn add_var(&mut self, name: &str, lb: f64, ub: f64, obj: f64) -> VarId {
        self.vars.push(VarDef { name: name.to_string(), lb, ub, obj });
        VarId(self.vars.len() - 1)
    }

    /// Add a linear constraint `Σ coeff·var  rel  rhs`. Duplicate variable
    /// terms are summed.
    pub fn add_constraint(
        &mut self,
        terms: &[(VarId, f64)],
        rel: Relation,
        rhs: f64,
    ) -> ConstraintId {
        let mut coeffs = vec![0.0; self.vars.len()];
        for &(v, c) in terms {
            coeffs[v.0] += c;
        }
        let packed: Vec<(usize, f64)> =
            coeffs.into_iter().enumerate().filter(|&(_, c)| c != 0.0).collect();
        self.constraints.push(Constraint { terms: packed, rel, rhs });
        ConstraintId(self.constraints.len() - 1)
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Name of a variable (for diagnostics).
    pub fn var_name(&self, v: VarId) -> &str {
        &self.vars[v.0].name
    }

    /// Solve with default simplex options.
    pub fn solve(&self) -> Result<Solution, LpError> {
        self.solve_with(&SimplexOptions::default())
    }

    /// Solve with explicit simplex options.
    pub fn solve_with(&self, opts: &SimplexOptions) -> Result<Solution, LpError> {
        self.validate()?;
        let std = self.standardize();
        let out = crate::bounded::solve_bounded(
            &std.a,
            &std.b,
            &std.c,
            &std.upper,
            std.num_structural,
            opts,
        )?;
        let mut values = vec![0.0; self.vars.len()];
        for (i, var) in self.vars.iter().enumerate() {
            let v = match std.mapping[i] {
                VarMap::Shifted { col, lb } => lb + out.x[col],
                VarMap::Negated { col, ub } => ub - out.x[col],
                VarMap::Split { pos, neg } => out.x[pos] - out.x[neg],
                VarMap::Fixed { value } => value,
            };
            values[i] = v;
            let _ = var;
        }
        let mut objective = out.objective + std.obj_offset;
        if self.sense == Sense::Maximize {
            objective = -objective;
        }
        // Constraint duals: the first `num_constraints` standard-form rows
        // are the user constraints in order. Undo the row flip applied for
        // negative right-hand sides, and the objective negation applied
        // for maximization.
        let sense_sign = if self.sense == Sense::Maximize { -1.0 } else { 1.0 };
        let duals: Vec<f64> = (0..self.constraints.len())
            .map(|ci| sense_sign * std.row_flips[ci] * out.duals[ci])
            .collect();
        Ok(Solution { objective, values, duals, stats: out.stats })
    }

    fn validate(&self) -> Result<(), LpError> {
        for v in &self.vars {
            if v.lb.is_nan() || v.ub.is_nan() || v.obj.is_nan() {
                return Err(LpError::InvalidModel(format!("NaN in variable {}", v.name)));
            }
            if v.lb > v.ub {
                return Err(LpError::InvalidModel(format!(
                    "variable {} has lb {} > ub {}",
                    v.name, v.lb, v.ub
                )));
            }
            if v.lb == f64::INFINITY || v.ub == f64::NEG_INFINITY {
                return Err(LpError::InvalidModel(format!(
                    "variable {} has an empty bound interval",
                    v.name
                )));
            }
        }
        for (ci, c) in self.constraints.iter().enumerate() {
            if c.rhs.is_nan() || c.terms.iter().any(|&(_, x)| x.is_nan()) {
                return Err(LpError::InvalidModel(format!("NaN in constraint {ci}")));
            }
        }
        Ok(())
    }

    /// Convert to standard form `min c·x, A x = b, 0 ≤ x ≤ upper, b ≥ 0`:
    /// finite upper bounds are reported in the `upper` vector for the
    /// bounded-variable solver, not materialized as rows.
    fn standardize(&self) -> StandardForm {
        let mut mapping = Vec::with_capacity(self.vars.len());
        let mut num_cols = 0usize;
        // Finite upper bounds of shifted variables.
        let mut bounds: Vec<(usize, f64)> = Vec::new(); // (col, ub - lb)
        let mut obj_offset = 0.0;
        let sign = if self.sense == Sense::Maximize { -1.0 } else { 1.0 };

        for v in &self.vars {
            let (lb, ub) = (v.lb, v.ub);
            if lb == ub {
                mapping.push(VarMap::Fixed { value: lb });
                obj_offset += sign * v.obj * lb;
            } else if lb.is_finite() {
                let col = num_cols;
                num_cols += 1;
                if ub.is_finite() {
                    bounds.push((col, ub - lb));
                }
                obj_offset += sign * v.obj * lb;
                mapping.push(VarMap::Shifted { col, lb });
            } else if ub.is_finite() {
                // lb = -inf, ub finite: x = ub - x̂.
                let col = num_cols;
                num_cols += 1;
                obj_offset += sign * v.obj * ub;
                mapping.push(VarMap::Negated { col, ub });
            } else {
                let pos = num_cols;
                let neg = num_cols + 1;
                num_cols += 2;
                mapping.push(VarMap::Split { pos, neg });
            }
        }
        let num_structural = num_cols;

        // Build rows: structural coefficients and adjusted rhs per
        // constraint.
        struct Row {
            coeffs: Vec<(usize, f64)>,
            rel: Relation,
            rhs: f64,
        }
        let mut rows: Vec<Row> = Vec::with_capacity(self.constraints.len());
        for c in &self.constraints {
            let mut rhs = c.rhs;
            let mut coeffs: Vec<(usize, f64)> = Vec::with_capacity(c.terms.len() + 1);
            for &(vi, coef) in &c.terms {
                match mapping[vi] {
                    VarMap::Shifted { col, lb } => {
                        rhs -= coef * lb;
                        coeffs.push((col, coef));
                    }
                    VarMap::Negated { col, ub } => {
                        rhs -= coef * ub;
                        coeffs.push((col, -coef));
                    }
                    VarMap::Split { pos, neg } => {
                        coeffs.push((pos, coef));
                        coeffs.push((neg, -coef));
                    }
                    VarMap::Fixed { value } => {
                        rhs -= coef * value;
                    }
                }
            }
            rows.push(Row { coeffs, rel: c.rel, rhs });
        }

        // Count slack/surplus columns.
        let mut num_slack = 0usize;
        for r in &rows {
            if r.rel != Relation::Eq {
                num_slack += 1;
            }
        }
        let total_cols = num_structural + num_slack;
        let m = rows.len();
        let mut a = vec![vec![0.0; total_cols]; m];
        let mut b = vec![0.0; m];
        let mut row_flips = vec![1.0; m];
        let mut slack_idx = num_structural;
        for (i, r) in rows.iter().enumerate() {
            // Normalize to rhs ≥ 0 by flipping the row if needed.
            let flip = r.rhs < 0.0;
            let s = if flip { -1.0 } else { 1.0 };
            row_flips[i] = s;
            for &(col, coef) in &r.coeffs {
                a[i][col] += s * coef;
            }
            b[i] = s * r.rhs;
            let rel = if flip {
                match r.rel {
                    Relation::Le => Relation::Ge,
                    Relation::Ge => Relation::Le,
                    Relation::Eq => Relation::Eq,
                }
            } else {
                r.rel
            };
            match rel {
                Relation::Le => {
                    a[i][slack_idx] = 1.0;
                    slack_idx += 1;
                }
                Relation::Ge => {
                    a[i][slack_idx] = -1.0;
                    slack_idx += 1;
                }
                Relation::Eq => {}
            }
        }

        // Objective over structural columns (min sense).
        let mut c = vec![0.0; total_cols];
        for (vi, v) in self.vars.iter().enumerate() {
            let coef = sign * v.obj;
            match mapping[vi] {
                VarMap::Shifted { col, .. } => c[col] += coef,
                VarMap::Negated { col, .. } => c[col] -= coef,
                VarMap::Split { pos, neg } => {
                    c[pos] += coef;
                    c[neg] -= coef;
                }
                VarMap::Fixed { .. } => {}
            }
        }

        let mut upper = vec![f64::INFINITY; total_cols];
        for &(col, cap) in &bounds {
            upper[col] = cap;
        }
        StandardForm { a, b, c, upper, num_structural, mapping, obj_offset, row_flips }
    }
}

#[derive(Debug, Clone, Copy)]
enum VarMap {
    /// `x = lb + x̂[col]`
    Shifted { col: usize, lb: f64 },
    /// `x = ub − x̂[col]`
    Negated { col: usize, ub: f64 },
    /// `x = x̂[pos] − x̂[neg]`
    Split { pos: usize, neg: usize },
    /// `lb == ub`: substituted out entirely.
    Fixed { value: f64 },
}

struct StandardForm {
    a: Vec<Vec<f64>>,
    b: Vec<f64>,
    c: Vec<f64>,
    /// Per-column upper bounds (∞ where the variable has none).
    upper: Vec<f64>,
    num_structural: usize,
    mapping: Vec<VarMap>,
    obj_offset: f64,
    /// +1/-1 per constraint row: whether standardization flipped it.
    row_flips: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-8;

    #[test]
    fn maximize_classic_two_var() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x", 0.0, f64::INFINITY, 3.0);
        let y = p.add_var("y", 0.0, f64::INFINITY, 5.0);
        p.add_constraint(&[(x, 1.0)], Relation::Le, 4.0);
        p.add_constraint(&[(y, 2.0)], Relation::Le, 12.0);
        p.add_constraint(&[(x, 3.0), (y, 2.0)], Relation::Le, 18.0);
        let s = p.solve().unwrap();
        assert!((s.objective - 36.0).abs() < EPS);
        assert!((s.value(x) - 2.0).abs() < EPS);
        assert!((s.value(y) - 6.0).abs() < EPS);
    }

    #[test]
    fn minimize_with_ge_constraints() {
        // min 2x + 3y s.t. x + y >= 4, x >= 1, y >= 0 -> x=4,y=0 -> 8
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x", 1.0, f64::INFINITY, 2.0);
        let y = p.add_var("y", 0.0, f64::INFINITY, 3.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Ge, 4.0);
        let s = p.solve().unwrap();
        assert!((s.objective - 8.0).abs() < EPS, "objective {}", s.objective);
        assert!((s.value(x) - 4.0).abs() < EPS);
        assert!(s.value(y).abs() < EPS);
    }

    #[test]
    fn equality_constraints() {
        // min x + y s.t. x + 2y = 4, x - y = 1 -> x=2, y=1 -> 3
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x", 0.0, f64::INFINITY, 1.0);
        let y = p.add_var("y", 0.0, f64::INFINITY, 1.0);
        p.add_constraint(&[(x, 1.0), (y, 2.0)], Relation::Eq, 4.0);
        p.add_constraint(&[(x, 1.0), (y, -1.0)], Relation::Eq, 1.0);
        let s = p.solve().unwrap();
        assert!((s.objective - 3.0).abs() < EPS);
        assert!((s.value(x) - 2.0).abs() < EPS);
        assert!((s.value(y) - 1.0).abs() < EPS);
    }

    #[test]
    fn free_variable_split() {
        // min |style| objective: min x s.t. x >= -5 with x free -> -5 via
        // constraint only (no variable bound).
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x", f64::NEG_INFINITY, f64::INFINITY, 1.0);
        p.add_constraint(&[(x, 1.0)], Relation::Ge, -5.0);
        let s = p.solve().unwrap();
        assert!((s.objective + 5.0).abs() < EPS);
        assert!((s.value(x) + 5.0).abs() < EPS);
    }

    #[test]
    fn negated_variable_upper_bound_only() {
        // max x with x <= 7, lb = -inf -> 7.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x", f64::NEG_INFINITY, 7.0, 1.0);
        let s = p.solve().unwrap();
        assert!((s.objective - 7.0).abs() < EPS);
        assert!((s.value(x) - 7.0).abs() < EPS);
    }

    #[test]
    fn fixed_variable_is_substituted() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x", 3.0, 3.0, 2.0);
        let y = p.add_var("y", 0.0, f64::INFINITY, 1.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Ge, 5.0);
        let s = p.solve().unwrap();
        assert!((s.value(x) - 3.0).abs() < EPS);
        assert!((s.value(y) - 2.0).abs() < EPS);
        assert!((s.objective - 8.0).abs() < EPS);
    }

    #[test]
    fn infeasible_detected() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x", 0.0, 1.0, 1.0);
        p.add_constraint(&[(x, 1.0)], Relation::Ge, 2.0);
        match p.solve() {
            Err(LpError::Infeasible { residual }) => assert!(residual > 0.5),
            other => panic!("expected infeasible, got {other:?}"),
        }
    }

    #[test]
    fn unbounded_detected() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x", 0.0, f64::INFINITY, 1.0);
        p.add_constraint(&[(x, -1.0)], Relation::Le, 1.0);
        match p.solve() {
            Err(LpError::Unbounded { .. }) => {}
            other => panic!("expected unbounded, got {other:?}"),
        }
    }

    #[test]
    fn invalid_bounds_rejected() {
        let mut p = Problem::new(Sense::Minimize);
        p.add_var("x", 2.0, 1.0, 0.0);
        assert!(matches!(p.solve(), Err(LpError::InvalidModel(_))));
    }

    #[test]
    fn nan_rejected() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x", 0.0, 1.0, f64::NAN);
        p.add_constraint(&[(x, 1.0)], Relation::Le, 1.0);
        assert!(matches!(p.solve(), Err(LpError::InvalidModel(_))));
    }

    #[test]
    fn negative_rhs_row_is_flipped() {
        // min x s.t. -x <= -3 (i.e. x >= 3).
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x", 0.0, f64::INFINITY, 1.0);
        p.add_constraint(&[(x, -1.0)], Relation::Le, -3.0);
        let s = p.solve().unwrap();
        assert!((s.value(x) - 3.0).abs() < EPS);
    }

    #[test]
    fn duplicate_terms_are_summed() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x", 0.0, f64::INFINITY, 1.0);
        // 0.5x + 0.5x <= 2 -> x <= 2
        p.add_constraint(&[(x, 0.5), (x, 0.5)], Relation::Le, 2.0);
        let s = p.solve().unwrap();
        assert!((s.value(x) - 2.0).abs() < EPS);
    }

    #[test]
    fn bounded_box_maximization() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x", -1.0, 2.0, 1.0);
        let y = p.add_var("y", -1.0, 2.0, 1.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Le, 3.0);
        let s = p.solve().unwrap();
        assert!((s.objective - 3.0).abs() < EPS);
    }

    #[test]
    fn degenerate_lp_terminates() {
        // A classic degenerate corner: multiple constraints active at the
        // optimum. The solver must terminate (Bland fallback).
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x", 0.0, f64::INFINITY, 0.75);
        let y = p.add_var("y", 0.0, f64::INFINITY, -150.0);
        let z = p.add_var("z", 0.0, f64::INFINITY, 0.02);
        let w = p.add_var("w", 0.0, f64::INFINITY, -6.0);
        // Beale's cycling example.
        p.add_constraint(&[(x, 0.25), (y, -60.0), (z, -0.04), (w, 9.0)], Relation::Le, 0.0);
        p.add_constraint(&[(x, 0.5), (y, -90.0), (z, -0.02), (w, 3.0)], Relation::Le, 0.0);
        p.add_constraint(&[(z, 1.0)], Relation::Le, 1.0);
        let s = p.solve().unwrap();
        assert!((s.objective - 0.05).abs() < 1e-6, "objective {}", s.objective);
    }

    #[test]
    fn var_names_retained() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("capacity_3", 0.0, 1.0, 1.0);
        assert_eq!(p.var_name(x), "capacity_3");
        assert_eq!(p.num_vars(), 1);
        assert_eq!(p.num_constraints(), 0);
    }

    #[test]
    fn duals_satisfy_strong_duality() {
        // max 3x + 5y, x <= 4, 2y <= 12, 3x + 2y <= 18: optimum 36 with
        // duals (0, 1.5, 1) — the textbook example.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x", 0.0, f64::INFINITY, 3.0);
        let y = p.add_var("y", 0.0, f64::INFINITY, 5.0);
        let c1 = p.add_constraint(&[(x, 1.0)], Relation::Le, 4.0);
        let c2 = p.add_constraint(&[(y, 2.0)], Relation::Le, 12.0);
        let c3 = p.add_constraint(&[(x, 3.0), (y, 2.0)], Relation::Le, 18.0);
        let s = p.solve().unwrap();
        assert!(s.dual(c1).abs() < EPS, "x <= 4 is slack: {}", s.dual(c1));
        assert!((s.dual(c2) - 1.5).abs() < EPS, "dual {}", s.dual(c2));
        assert!((s.dual(c3) - 1.0).abs() < EPS, "dual {}", s.dual(c3));
        // Strong duality: y·b == objective.
        let yb = s.dual(c1) * 4.0 + s.dual(c2) * 12.0 + s.dual(c3) * 18.0;
        assert!((yb - s.objective).abs() < EPS);
    }

    #[test]
    fn duals_for_minimization_ge() {
        // min 2x + 3y, x + y >= 10: binding with dual 2 (cheaper variable
        // sets the marginal price).
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x", 0.0, f64::INFINITY, 2.0);
        let y = p.add_var("y", 0.0, f64::INFINITY, 3.0);
        let c = p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Ge, 10.0);
        let s = p.solve().unwrap();
        assert!((s.objective - 20.0).abs() < EPS);
        assert!((s.dual(c) - 2.0).abs() < EPS, "dual {}", s.dual(c));
    }

    #[test]
    fn duals_survive_row_flip() {
        // min x subject to -x <= -3 (flipped internally to x >= 3): the
        // dual wrt the ORIGINAL rhs -3 is -1 (raising -3 toward 0 lowers
        // the forced x and the objective 1:1).
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x", 0.0, f64::INFINITY, 1.0);
        let c = p.add_constraint(&[(x, -1.0)], Relation::Le, -3.0);
        let s = p.solve().unwrap();
        assert!((s.dual(c) + 1.0).abs() < EPS, "dual {}", s.dual(c));
    }

    #[test]
    fn equality_constraint_duals() {
        // min x + 2y s.t. x + y = 5, y >= 0, x >= 0 -> x = 5, dual 1.
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x", 0.0, f64::INFINITY, 1.0);
        let y = p.add_var("y", 0.0, f64::INFINITY, 2.0);
        let c = p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Eq, 5.0);
        let s = p.solve().unwrap();
        assert!((s.dual(c) - 1.0).abs() < EPS, "dual {}", s.dual(c));
    }

    #[test]
    fn objective_offset_from_shifted_bounds() {
        // min x with 5 <= x <= 10 -> 5 (offset handling).
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x", 5.0, 10.0, 1.0);
        let s = p.solve().unwrap();
        assert!((s.objective - 5.0).abs() < EPS);
        assert!((s.value(x) - 5.0).abs() < EPS);
    }
}
