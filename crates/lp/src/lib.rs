//! A self-contained linear-programming solver.
//!
//! The SC 2000 paper "Expressing and Enforcing Distributed Resource Sharing
//! Agreements" enforces sharing agreements by solving a small linear program
//! per allocation decision (its §3.1 formulation has `n² + n + 1` variables
//! for `n` principals). This crate provides the LP substrate for that
//! scheduler: a dense, two-phase primal simplex method with a convenient
//! model-building API.
//!
//! The solver is deliberately dense and tableau-based: agreement LPs are
//! small (tens to a few hundred variables), and a dense tableau with
//! Dantzig pricing plus a Bland's-rule anti-cycling fallback is both simple
//! to verify and fast at this scale.
//!
//! # Example
//!
//! Maximize `3x + 2y` subject to `x + y ≤ 4`, `x + 3y ≤ 6`, `x, y ≥ 0`:
//!
//! ```
//! use agreements_lp::{Problem, Sense, Relation};
//!
//! let mut p = Problem::new(Sense::Maximize);
//! let x = p.add_var("x", 0.0, f64::INFINITY, 3.0);
//! let y = p.add_var("y", 0.0, f64::INFINITY, 2.0);
//! p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Le, 4.0);
//! p.add_constraint(&[(x, 1.0), (y, 3.0)], Relation::Le, 6.0);
//! let sol = p.solve().unwrap();
//! assert!((sol.objective - 12.0).abs() < 1e-9);
//! assert!((sol.value(x) - 4.0).abs() < 1e-9);
//! ```

// Index-based loops are idiomatic for the dense matrix math in this
// crate; clippy's iterator rewrites would obscure the row/column algebra.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod bounded;
pub mod error;
pub mod matrix;
pub mod problem;
pub mod simplex;
pub mod sparse;

pub use bounded::{solve_bounded, solve_bounded_with, SimplexWorkspace};
pub use error::LpError;
pub use matrix::{Matrix, Vector};
pub use problem::{ConstraintId, Problem, Relation, Sense, Solution, VarId};
pub use simplex::{PivotRule, SimplexOptions, SimplexStats};
pub use sparse::SparseRows;
