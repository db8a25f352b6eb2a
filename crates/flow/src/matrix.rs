//! Relative (`S`) and absolute (`A`) agreement matrices.

use crate::error::FlowError;
use serde::{Deserialize, Serialize};

/// Relative agreement matrix `S`: `S[i][j]` is the fraction of `i`'s
/// available resources shared with `j` (paper §3.1).
///
/// Invariants enforced at mutation time: `S[i][i] = 0`, `0 ≤ S[i][j] ≤ 1`.
/// The row-sum restriction `Σ_k S[i][k] ≤ 1` is *checked on demand* via
/// [`AgreementMatrix::validate_row_sums`] because §3.2 explicitly lifts it
/// ("overdraft") and compensates with clamping in the transitive flow.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AgreementMatrix {
    n: usize,
    data: Vec<f64>, // row-major
}

impl AgreementMatrix {
    /// All-zero matrix over `n` principals (no agreements).
    pub fn zeros(n: usize) -> Self {
        AgreementMatrix { n, data: vec![0.0; n * n] }
    }

    /// Number of principals.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Share `S[i][j]`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.n + j]
    }

    /// Row `i` of `S`: the shares `i` grants, indexed by recipient.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.n..(i + 1) * self.n]
    }

    /// Would [`AgreementMatrix::set`] accept `S[i][j] = share`?
    pub(crate) fn check(&self, i: usize, j: usize, share: f64) -> Result<(), FlowError> {
        if i >= self.n || j >= self.n {
            return Err(FlowError::OutOfRange { index: i.max(j), n: self.n });
        }
        if i == j {
            return Err(FlowError::DiagonalShare { index: i });
        }
        if !share.is_finite() || !(0.0..=1.0).contains(&share) {
            return Err(FlowError::InvalidShare { value: share });
        }
        Ok(())
    }

    /// Set `S[i][j] = share`.
    pub fn set(&mut self, i: usize, j: usize, share: f64) -> Result<(), FlowError> {
        self.check(i, j, share)?;
        self.data[i * self.n + j] = share;
        Ok(())
    }

    /// Total share promised by principal `i`.
    pub fn row_sum(&self, i: usize) -> f64 {
        self.row(i).iter().sum()
    }

    /// Check the basic-model restriction `Σ_k S[i][k] ≤ 1` for all rows;
    /// returns the first violating row. Call this when overdraft is not
    /// intended.
    pub fn validate_row_sums(&self) -> Result<(), FlowError> {
        for i in 0..self.n {
            let sum = self.row_sum(i);
            if sum > 1.0 + 1e-12 {
                return Err(FlowError::RowSumExceeded { row: i, sum });
            }
        }
        Ok(())
    }

    /// Is any row overdrawn (promising more than 100%)?
    pub fn is_overdrawn(&self) -> bool {
        self.validate_row_sums().is_err()
    }

    /// Iterate over non-zero agreements `(i, j, share)`.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.n).flat_map(move |i| {
            (0..self.n).filter_map(move |j| {
                let s = self.get(i, j);
                (s > 0.0).then_some((i, j, s))
            })
        })
    }

    /// Number of non-zero agreements.
    pub fn num_edges(&self) -> usize {
        self.data.iter().filter(|&&s| s > 0.0).count()
    }

    /// Out-neighbours of `i` (targets it shares with), ascending.
    pub fn neighbours(&self, i: usize) -> Vec<usize> {
        (0..self.n).filter(|&j| self.get(i, j) > 0.0).collect()
    }

    /// A copy extended by one principal (index `n`), holding no
    /// agreements yet — dynamic membership, paper §1 ("dynamically
    /// changing user set").
    pub fn grown(&self) -> AgreementMatrix {
        let n = self.n + 1;
        let mut out = AgreementMatrix::zeros(n);
        for i in 0..self.n {
            for j in 0..self.n {
                out.data[i * n + j] = self.data[i * self.n + j];
            }
        }
        out
    }

    /// Remove every agreement involving `i` (both directions), modelling a
    /// principal leaving the federation while keeping indices stable.
    pub fn isolate(&mut self, i: usize) -> Result<(), FlowError> {
        if i >= self.n {
            return Err(FlowError::OutOfRange { index: i, n: self.n });
        }
        for j in 0..self.n {
            self.data[i * self.n + j] = 0.0;
            self.data[j * self.n + i] = 0.0;
        }
        Ok(())
    }
}

/// Absolute agreement matrix `A`: `A[i][j]` is a fixed resource quantity
/// that `i` makes available to `j` regardless of `i`'s fluctuations
/// (paper §3.2). Entries are non-negative finite quantities in resource
/// units; the diagonal stays zero.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AbsoluteMatrix {
    n: usize,
    data: Vec<f64>,
}

impl AbsoluteMatrix {
    /// All-zero matrix over `n` principals.
    pub fn zeros(n: usize) -> Self {
        AbsoluteMatrix { n, data: vec![0.0; n * n] }
    }

    /// Number of principals.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Quantity `A[i][j]`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.n + j]
    }

    /// Set `A[i][j] = amount` (resource units).
    pub fn set(&mut self, i: usize, j: usize, amount: f64) -> Result<(), FlowError> {
        if i >= self.n || j >= self.n {
            return Err(FlowError::OutOfRange { index: i.max(j), n: self.n });
        }
        if i == j {
            return Err(FlowError::DiagonalShare { index: i });
        }
        if !amount.is_finite() || amount < 0.0 {
            return Err(FlowError::InvalidShare { value: amount });
        }
        self.data[i * self.n + j] = amount;
        Ok(())
    }

    /// Is the matrix entirely zero?
    pub fn is_zero(&self) -> bool {
        self.data.iter().all(|&v| v == 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_round_trip() {
        let mut s = AgreementMatrix::zeros(3);
        s.set(0, 1, 0.3).unwrap();
        assert_eq!(s.get(0, 1), 0.3);
        assert_eq!(s.get(1, 0), 0.0);
        assert_eq!(s.n(), 3);
    }

    #[test]
    fn diagonal_rejected() {
        let mut s = AgreementMatrix::zeros(2);
        assert_eq!(s.set(1, 1, 0.1), Err(FlowError::DiagonalShare { index: 1 }));
    }

    #[test]
    fn out_of_range_rejected() {
        let mut s = AgreementMatrix::zeros(2);
        assert!(matches!(s.set(0, 5, 0.1), Err(FlowError::OutOfRange { .. })));
    }

    #[test]
    fn invalid_shares_rejected() {
        let mut s = AgreementMatrix::zeros(2);
        assert!(s.set(0, 1, -0.1).is_err());
        assert!(s.set(0, 1, 1.5).is_err());
        assert!(s.set(0, 1, f64::NAN).is_err());
        assert!(s.set(0, 1, 1.0).is_ok());
        assert!(s.set(0, 1, 0.0).is_ok());
    }

    #[test]
    fn row_sum_validation() {
        let mut s = AgreementMatrix::zeros(3);
        s.set(0, 1, 0.6).unwrap();
        s.set(0, 2, 0.3).unwrap();
        assert!(s.validate_row_sums().is_ok());
        assert!(!s.is_overdrawn());
        s.set(0, 2, 0.6).unwrap();
        assert_eq!(s.validate_row_sums(), Err(FlowError::RowSumExceeded { row: 0, sum: 1.2 }));
        assert!(s.is_overdrawn());
    }

    #[test]
    fn edges_iterates_nonzero() {
        let mut s = AgreementMatrix::zeros(3);
        s.set(0, 1, 0.5).unwrap();
        s.set(2, 0, 0.25).unwrap();
        let edges: Vec<_> = s.edges().collect();
        assert_eq!(edges, vec![(0, 1, 0.5), (2, 0, 0.25)]);
        assert_eq!(s.num_edges(), 2);
        assert_eq!(s.neighbours(0), vec![1]);
        assert_eq!(s.neighbours(1), Vec::<usize>::new());
    }

    #[test]
    fn grown_preserves_and_extends() {
        let mut s = AgreementMatrix::zeros(2);
        s.set(0, 1, 0.4).unwrap();
        let g = s.grown();
        assert_eq!(g.n(), 3);
        assert_eq!(g.get(0, 1), 0.4);
        assert_eq!(g.get(0, 2), 0.0);
        assert_eq!(g.get(2, 0), 0.0);
        // The new principal can take on agreements.
        let mut g = g;
        g.set(2, 0, 0.3).unwrap();
        assert_eq!(g.get(2, 0), 0.3);
    }

    #[test]
    fn isolate_cuts_both_directions() {
        let mut s = AgreementMatrix::zeros(3);
        s.set(0, 1, 0.4).unwrap();
        s.set(1, 0, 0.2).unwrap();
        s.set(1, 2, 0.1).unwrap();
        s.isolate(1).unwrap();
        assert_eq!(s.get(0, 1), 0.0);
        assert_eq!(s.get(1, 0), 0.0);
        assert_eq!(s.get(1, 2), 0.0);
        assert!(s.isolate(7).is_err());
    }

    #[test]
    fn absolute_matrix_allows_large_amounts() {
        let mut a = AbsoluteMatrix::zeros(2);
        a.set(0, 1, 1234.5).unwrap();
        assert_eq!(a.get(0, 1), 1234.5);
        assert!(!a.is_zero());
        assert!(a.set(0, 1, -1.0).is_err());
        assert!(a.set(1, 1, 1.0).is_err());
    }

    #[test]
    fn zero_matrices_report_zero() {
        assert!(AbsoluteMatrix::zeros(4).is_zero());
        assert_eq!(AgreementMatrix::zeros(4).num_edges(), 0);
    }
}
