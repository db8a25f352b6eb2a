//! Transitive flow coefficients `T^(m)` by simple-path enumeration.
//!
//! The paper's recurrence (§3.1) sums, over all *cycle-free* chains of
//! agreements from `i` to `j` with at most `m` hops, the product of the
//! shares along the chain. We enumerate these simple paths directly, one
//! depth-first walk per source (the `kernel` module), which is exact; the
//! cost is one visit per path, so the full closure `m = n − 1` of the
//! evaluation-scale complete graph (n = 10: 9.9 M paths) takes tens of
//! milliseconds, not microseconds. For larger graphs an optional
//! product-pruning threshold trades a documented underestimate for
//! tractability (the paper itself notes the exponential decay of value
//! along long chains).

use crate::kernel::Masks;
use crate::matrix::AgreementMatrix;
use agreements_lp::Matrix;

/// Options for the transitive-flow computation.
#[derive(Debug, Clone)]
pub struct TransitiveOptions {
    /// Maximum number of hops (agreement levels). Level 1 = direct
    /// agreements only. The full closure needs `n − 1`.
    pub max_level: usize,
    /// Apply the §3.2 overdraft clamp `K = min(T, 1)` to the result.
    pub clamp: bool,
    /// Abandon DFS branches whose accumulated share product falls below
    /// this threshold. `0.0` (default) is exact.
    pub min_product: f64,
}

impl TransitiveOptions {
    /// Exact, clamped computation at the given level — the configuration
    /// the scheduler uses.
    pub fn exact(max_level: usize) -> Self {
        TransitiveOptions { max_level, clamp: true, min_product: 0.0 }
    }
}

/// Precomputed transitive flow coefficients for one agreement structure.
#[derive(Debug, Clone)]
pub struct TransitiveFlow {
    t: Matrix,
    level: usize,
    clamped: bool,
}

impl TransitiveFlow {
    /// Compute `K^(m) = min(T^(m), 1)` (clamped, exact) — the standard
    /// scheduler input.
    pub fn compute(s: &AgreementMatrix, max_level: usize) -> Self {
        Self::compute_with(s, &TransitiveOptions::exact(max_level))
    }

    /// Compute with explicit options: one walk per source, each writing
    /// its own row of the table.
    pub fn compute_with(s: &AgreementMatrix, opts: &TransitiveOptions) -> Self {
        let n = s.n();
        let level = opts.max_level.min(n.saturating_sub(1)).max(1);
        let masks = Masks::of(s);
        let mut t = Matrix::zeros(n, n);
        for (src, row) in t.as_mut_slice().chunks_mut(n.max(1)).enumerate() {
            masks.flow_row(s, src, level, opts.min_product, opts.clamp, row);
        }
        TransitiveFlow { t, level, clamped: opts.clamp }
    }

    /// `T[i][j]` (or `K[i][j]` when clamped): the fraction of `i`'s
    /// availability reachable by `j` within the level cap.
    #[inline]
    pub fn coefficient(&self, i: usize, j: usize) -> f64 {
        self.t[(i, j)]
    }

    /// Flow `I[i][j] = V_i · T[i][j]` for availability `v`.
    #[inline]
    pub fn inflow(&self, i: usize, j: usize, v_i: f64) -> f64 {
        v_i * self.coefficient(i, j)
    }

    /// Number of principals.
    #[inline]
    pub fn n(&self) -> usize {
        self.t.rows()
    }

    /// The level cap this table was computed at.
    #[inline]
    pub fn level(&self) -> usize {
        self.level
    }

    /// Whether the overdraft clamp was applied.
    #[inline]
    pub fn clamped(&self) -> bool {
        self.clamped
    }

    /// Borrow the underlying coefficient matrix.
    pub fn matrix(&self) -> &Matrix {
        &self.t
    }

    /// Assemble a flow table from an already-computed coefficient
    /// matrix — the escape hatch [`crate::incremental`] uses to publish
    /// its incrementally maintained rows without another full DFS.
    pub(crate) fn from_parts(t: Matrix, level: usize, clamped: bool) -> Self {
        TransitiveFlow { t, level, clamped }
    }
}

/// The recursive walk over adjacency lists the kernel replaced, kept as
/// the independent reference the bit-identity tests compare against.
#[cfg(test)]
pub(crate) fn reference(s: &AgreementMatrix, opts: &TransitiveOptions) -> TransitiveFlow {
    fn dfs(
        node: usize,
        prod: f64,
        levels_left: usize,
        min_product: f64,
        adj: &[Vec<(usize, f64)>],
        visited: &mut Vec<bool>,
        row: &mut [f64],
    ) {
        if levels_left == 0 {
            return;
        }
        for &(next, w) in &adj[node] {
            if visited[next] {
                continue;
            }
            let p = prod * w;
            if p <= min_product {
                continue;
            }
            row[next] += p;
            visited[next] = true;
            dfs(next, p, levels_left - 1, min_product, adj, visited, row);
            visited[next] = false;
        }
    }

    let n = s.n();
    let level = opts.max_level.min(n.saturating_sub(1)).max(1);
    let adj: Vec<Vec<(usize, f64)>> =
        (0..n).map(|i| s.neighbours(i).into_iter().map(|j| (j, s.get(i, j))).collect()).collect();
    let mut t = Matrix::zeros(n, n);
    let mut visited = vec![false; n];
    for src in 0..n {
        visited[src] = true;
        dfs(src, 1.0, level, opts.min_product, &adj, &mut visited, t.row_mut(src));
        visited[src] = false;
    }
    if opts.clamp {
        for v in t.as_mut_slice() {
            *v = v.min(1.0);
        }
    }
    TransitiveFlow { t, level, clamped: opts.clamp }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    fn chain3() -> AgreementMatrix {
        let mut s = AgreementMatrix::zeros(3);
        s.set(0, 1, 0.5).unwrap();
        s.set(1, 2, 0.4).unwrap();
        s
    }

    #[test]
    fn level1_is_direct_agreements() {
        let s = chain3();
        let t = TransitiveFlow::compute(&s, 1);
        assert!((t.coefficient(0, 1) - 0.5).abs() < EPS);
        assert!((t.coefficient(1, 2) - 0.4).abs() < EPS);
        assert_eq!(t.coefficient(0, 2), 0.0, "no transitive flow at level 1");
        assert_eq!(t.level(), 1);
    }

    #[test]
    fn level2_adds_chain_product() {
        let s = chain3();
        let t = TransitiveFlow::compute(&s, 2);
        assert!((t.coefficient(0, 2) - 0.2).abs() < EPS, "0.5 * 0.4");
        // Direct coefficients unchanged.
        assert!((t.coefficient(0, 1) - 0.5).abs() < EPS);
    }

    #[test]
    fn level_cap_never_exceeds_n_minus_1() {
        let s = chain3();
        let t = TransitiveFlow::compute(&s, 99);
        assert_eq!(t.level(), 2);
    }

    #[test]
    fn cycles_do_not_loop() {
        // 0 <-> 1 mutual 50%; a cycle must not inflate coefficients.
        let mut s = AgreementMatrix::zeros(2);
        s.set(0, 1, 0.5).unwrap();
        s.set(1, 0, 0.5).unwrap();
        let t = TransitiveFlow::compute(&s, 1);
        assert!((t.coefficient(0, 1) - 0.5).abs() < EPS);
        assert!((t.coefficient(1, 0) - 0.5).abs() < EPS);
        assert_eq!(t.coefficient(0, 0), 0.0, "no self flow");
    }

    #[test]
    fn paper_overdraft_example_clamps() {
        // §3.2: A (0) shares 60% with B (1) and 60% with C (2); B shares
        // 100% with C. Unclamped T[0][2] = 0.6 + 0.6 = 1.2; clamped 1.0.
        let mut s = AgreementMatrix::zeros(3);
        s.set(0, 1, 0.6).unwrap();
        s.set(0, 2, 0.6).unwrap();
        s.set(1, 2, 1.0).unwrap();
        let raw = TransitiveFlow::compute_with(
            &s,
            &TransitiveOptions { max_level: 2, clamp: false, min_product: 0.0 },
        );
        assert!((raw.coefficient(0, 2) - 1.2).abs() < EPS);
        assert!(!raw.clamped());
        let k = TransitiveFlow::compute(&s, 2);
        assert!((k.coefficient(0, 2) - 1.0).abs() < EPS);
        assert!(k.clamped());
        // With V_0 = 10, C can obtain at most 10, not 12 (paper's numbers).
        assert!((k.inflow(0, 2, 10.0) - 10.0).abs() < EPS);
        assert!((raw.inflow(0, 2, 10.0) - 12.0).abs() < EPS);
    }

    #[test]
    fn complete_graph_closure_matches_hand_count() {
        // Complete graph on 3 nodes, every share 0.1.
        let mut s = AgreementMatrix::zeros(3);
        for i in 0..3 {
            for j in 0..3 {
                if i != j {
                    s.set(i, j, 0.1).unwrap();
                }
            }
        }
        let t = TransitiveFlow::compute(&s, 2);
        // Paths 0 -> 1: direct 0.1, via 2: 0.1 * 0.1 = 0.01.
        assert!((t.coefficient(0, 1) - 0.11).abs() < EPS);
    }

    #[test]
    fn pruning_underestimates_monotonically() {
        let mut s = AgreementMatrix::zeros(4);
        for i in 0..4 {
            for j in 0..4 {
                if i != j {
                    s.set(i, j, 0.3).unwrap();
                }
            }
        }
        let exact = TransitiveFlow::compute_with(
            &s,
            &TransitiveOptions { max_level: 3, clamp: false, min_product: 0.0 },
        );
        let pruned = TransitiveFlow::compute_with(
            &s,
            &TransitiveOptions { max_level: 3, clamp: false, min_product: 0.05 },
        );
        for i in 0..4 {
            for j in 0..4 {
                assert!(pruned.coefficient(i, j) <= exact.coefficient(i, j) + EPS);
            }
        }
    }

    #[test]
    fn empty_matrix_yields_zero_flow() {
        let s = AgreementMatrix::zeros(5);
        let t = TransitiveFlow::compute(&s, 4);
        for i in 0..5 {
            for j in 0..5 {
                assert_eq!(t.coefficient(i, j), 0.0);
            }
        }
        assert_eq!(t.n(), 5);
    }

    #[test]
    fn handles_degenerate_sizes() {
        let opts = TransitiveOptions::exact(1);
        assert_eq!(TransitiveFlow::compute_with(&AgreementMatrix::zeros(1), &opts).n(), 1);
        assert_eq!(TransitiveFlow::compute_with(&AgreementMatrix::zeros(0), &opts).n(), 0);
    }

    #[test]
    fn loop_structure_chains_shares() {
        // Ring 0 -> 1 -> 2 -> 3 -> 0 at 80%.
        let mut s = AgreementMatrix::zeros(4);
        for i in 0..4 {
            s.set(i, (i + 1) % 4, 0.8).unwrap();
        }
        let t = TransitiveFlow::compute(&s, 3);
        assert!((t.coefficient(0, 1) - 0.8).abs() < EPS);
        assert!((t.coefficient(0, 2) - 0.64).abs() < EPS);
        assert!((t.coefficient(0, 3) - 0.512).abs() < EPS);
        // Level 1 only reaches the direct neighbour.
        let t1 = TransitiveFlow::compute(&s, 1);
        assert_eq!(t1.coefficient(0, 2), 0.0);
    }
}
