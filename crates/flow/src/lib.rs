//! Agreement matrices and transitive resource flow (paper §3.1–3.2).
//!
//! The enforcement model abstracts an economy of relative sharing
//! agreements into an `n × n` matrix `S`, where `S[i][j]` is the fraction
//! of principal `i`'s available resources shared with principal `j`.
//! Because agreements chain (A shares with B, B shares with D, so D can
//! transitively draw on A), the scheduler needs the *transitive flow
//! coefficients*
//!
//! ```text
//! T^(m)[i][j] = Σ over simple paths i → k₁ → … → k_{p-1} → j, p ≤ m
//!               of S[i][k₁]·S[k₁][k₂]···S[k_{p-1}][j]
//! ```
//!
//! so that the amount flowing from `i` to `j` through at most `m` levels of
//! agreements is `I^(m)[i][j] = V_i · T^(m)[i][j]` for current availability
//! `V_i`. The level cap `m` is the "transitivity level" swept in the
//! paper's Figures 8–11; `m = n − 1` is the full transitive closure.
//!
//! Extensions from §3.2, all provided here:
//! - **Overdraft clamping**: without the row-sum restriction
//!   `Σ_k S[i][k] ≤ 1`, chained shares can promise more of `i`'s resources
//!   than exist; clamping `K = min(T, 1)` restores soundness.
//! - **Absolute agreements**: a second matrix `A` of fixed quantities, with
//!   per-source saturation `U[k][i] = min(I[k][i] + A[k][i], V_k)`.
//! - **Capacity**: `C_i = V_i + Σ_{k≠i} U[k][i]` — everything principal `i`
//!   can reach directly or transitively.
//!
//! Common agreement graph shapes (complete, loop-with-skip, sparse random,
//! hierarchical, distance-decay) are provided by [`structures`].
//!
//! # Example
//!
//! ```
//! use agreements_flow::{AgreementMatrix, TransitiveFlow, capacities};
//!
//! // Three principals in a chain: 0 shares 50% with 1, 1 shares 50% with 2.
//! let mut s = AgreementMatrix::zeros(3);
//! s.set(0, 1, 0.5).unwrap();
//! s.set(1, 2, 0.5).unwrap();
//! let t = TransitiveFlow::compute(&s, 2); // full closure for n = 3
//! // 2 can draw 0.25 of 0's availability through the chain.
//! assert!((t.coefficient(0, 2) - 0.25).abs() < 1e-12);
//!
//! let v = [10.0, 10.0, 10.0];
//! let report = capacities(&t, None, &v);
//! assert!((report.capacity(2) - (10.0 + 5.0 + 2.5)).abs() < 1e-9);
//! ```

// Index-based loops are idiomatic for the dense matrix math in this
// crate; clippy's iterator rewrites would obscure the row/column algebra.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod capacity;
pub mod error;
pub mod incremental;
mod kernel;
pub mod matrix;
pub mod partition;
pub mod paths;
pub mod structures;
pub mod transitive;

pub use capacity::{capacities, CapacityReport};
pub use error::FlowError;
pub use incremental::IncrementalFlow;
pub use matrix::{AbsoluteMatrix, AgreementMatrix};
pub use partition::{auto_partition, AutoPartition, PartitionOptions};
pub use paths::{chains_between, Chain};
pub use structures::Structure;
pub use transitive::{TransitiveFlow, TransitiveOptions};
