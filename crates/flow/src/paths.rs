//! Enumerating the agreement chains behind a transitive coefficient.
//!
//! `T[i][j]` aggregates many chains; when a federation member asks "how
//! does principal j get to use *my* resources?", the answer is the list
//! of chains `i → k₁ → … → j` with their share products. This module
//! materializes exactly that (the coefficient decomposition the walk
//! behind [`crate::transitive`] sums).
//!
//! ```
//! use agreements_flow::{chains_between, AgreementMatrix};
//!
//! let mut s = AgreementMatrix::zeros(3);
//! s.set(0, 1, 0.5).unwrap();
//! s.set(1, 2, 0.4).unwrap();
//! let chains = chains_between(&s, 0, 2, 2);
//! assert_eq!(chains[0].nodes, vec![0, 1, 2]);
//! assert!((chains[0].product - 0.2).abs() < 1e-12);
//! ```

use crate::kernel::{Masks, Visitor};
use crate::matrix::AgreementMatrix;

/// One agreement chain from a source to a destination.
#[derive(Debug, Clone, PartialEq)]
pub struct Chain {
    /// Node sequence, starting at the source and ending at the
    /// destination (length ≥ 2).
    pub nodes: Vec<usize>,
    /// Product of the shares along the chain: the fraction of the
    /// source's availability this chain forwards.
    pub product: f64,
}

impl Chain {
    /// Number of agreement hops.
    pub fn hops(&self) -> usize {
        self.nodes.len() - 1
    }
}

/// All simple chains from `src` to `dst` within `max_level` hops, sorted
/// by descending product (the dominant routes first).
pub fn chains_between(s: &AgreementMatrix, src: usize, dst: usize, max_level: usize) -> Vec<Chain> {
    let n = s.n();
    if src >= n || dst >= n || src == dst {
        return Vec::new();
    }
    let max_level = max_level.min(n.saturating_sub(1)).max(1);
    let mut chains = Chains { dst, nodes: vec![src], out: Vec::new() };
    Masks::of(s).visit_paths(s, src, max_level, &mut chains);
    let mut out = chains.out;
    out.sort_by(|a, b| b.product.partial_cmp(&a.product).expect("finite products"));
    out
}

/// Collects the chains that end at `dst`, in walk order; a chain is not
/// extended past `dst`.
struct Chains {
    dst: usize,
    /// The path being extended, source first.
    nodes: Vec<usize>,
    out: Vec<Chain>,
}

impl Visitor for Chains {
    fn path(&mut self, next: usize, product: f64) -> bool {
        self.nodes.push(next);
        if next == self.dst {
            self.out.push(Chain { nodes: self.nodes.clone(), product });
            self.nodes.pop();
            return false;
        }
        true
    }

    fn leave(&mut self) {
        self.nodes.pop();
    }
}

/// The sum of chain products equals the (unclamped) transitive
/// coefficient; exposed for cross-checking and reporting.
pub fn coefficient_from_chains(chains: &[Chain]) -> f64 {
    chains.iter().map(|c| c.product).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transitive::{TransitiveFlow, TransitiveOptions};

    fn matrix(n: usize, edges: &[(usize, usize, f64)]) -> AgreementMatrix {
        let mut s = AgreementMatrix::zeros(n);
        for &(i, j, w) in edges {
            s.set(i, j, w).unwrap();
        }
        s
    }

    #[test]
    fn single_chain() {
        let s = matrix(3, &[(0, 1, 0.5), (1, 2, 0.4)]);
        let chains = chains_between(&s, 0, 2, 2);
        assert_eq!(chains.len(), 1);
        assert_eq!(chains[0].nodes, vec![0, 1, 2]);
        assert!((chains[0].product - 0.2).abs() < 1e-12);
        assert_eq!(chains[0].hops(), 2);
    }

    #[test]
    fn multiple_chains_sorted_by_product() {
        // Direct 0->2 at 0.1 plus 0->1->2 at 0.5*0.4 = 0.2.
        let s = matrix(3, &[(0, 2, 0.1), (0, 1, 0.5), (1, 2, 0.4)]);
        let chains = chains_between(&s, 0, 2, 2);
        assert_eq!(chains.len(), 2);
        assert_eq!(chains[0].nodes, vec![0, 1, 2], "dominant chain first");
        assert_eq!(chains[1].nodes, vec![0, 2]);
    }

    #[test]
    fn level_cap_prunes_long_chains() {
        let s = matrix(4, &[(0, 1, 0.9), (1, 2, 0.9), (2, 3, 0.9)]);
        assert!(chains_between(&s, 0, 3, 2).is_empty());
        let chains = chains_between(&s, 0, 3, 3);
        assert_eq!(chains.len(), 1);
        assert_eq!(chains[0].hops(), 3);
    }

    #[test]
    fn chains_sum_to_unclamped_coefficient() {
        // Dense graph: the decomposition must agree with the DFS total.
        let mut s = AgreementMatrix::zeros(5);
        for i in 0..5 {
            for j in 0..5 {
                if i != j {
                    s.set(i, j, 0.05 + 0.03 * ((i + j) % 3) as f64).unwrap();
                }
            }
        }
        let t = TransitiveFlow::compute_with(
            &s,
            &TransitiveOptions { max_level: 4, clamp: false, min_product: 0.0 },
        );
        for i in 0..5 {
            for j in 0..5 {
                if i == j {
                    continue;
                }
                let chains = chains_between(&s, i, j, 4);
                let sum = coefficient_from_chains(&chains);
                assert!(
                    (sum - t.coefficient(i, j)).abs() < 1e-12,
                    "pair ({i},{j}): chains {sum} vs coefficient {}",
                    t.coefficient(i, j)
                );
            }
        }
    }

    #[test]
    fn degenerate_inputs_are_empty() {
        let s = matrix(3, &[(0, 1, 0.5)]);
        assert!(chains_between(&s, 0, 0, 2).is_empty(), "self");
        assert!(chains_between(&s, 9, 1, 2).is_empty(), "out of range");
        assert!(chains_between(&s, 1, 0, 2).is_empty(), "no reverse edge");
    }
}
