//! Constraint rows in compressed sparse row (CSR) form.
//!
//! The bounded simplex ([`crate::bounded`]) takes its equality rows as
//! [`SparseRows`]: every row's nonzero `(column, value)` entries, all rows
//! in one buffer. Callers that solve the same family of LPs over and over
//! (the scheduler's allocation solvers) refill one `SparseRows` per solve
//! in O(nonzeros), keeping the buffer across [`SparseRows::clear`], instead
//! of keeping a dense matrix per model shape. Callers that build a dense
//! standard form ([`crate::Problem`]) hand it over through
//! [`SparseRows::from_dense`].

/// Equality-constraint rows as `(column, value)` entries, row by row.
///
/// Within a row each column appears at most once. The solver scatters
/// the entries into a zero-filled tableau, so a row reads back as the
/// dense row whose other cells are `+0.0`. Columns and row ends are held
/// as `u32`, which bounds a model at 2³² columns and entries.
#[derive(Debug, Clone, Default)]
pub struct SparseRows {
    /// The column of every entry, row after row.
    cols: Vec<u32>,
    /// The value of every entry, parallel to `cols`.
    vals: Vec<f64>,
    /// `ends[i]` is one past row `i`'s last entry.
    ends: Vec<u32>,
}

impl SparseRows {
    /// No rows; nothing is allocated until the first entry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Remove every row, keeping the buffers for the next fill.
    pub fn clear(&mut self) {
        self.cols.clear();
        self.vals.clear();
        self.ends.clear();
    }

    /// Make room for `rows` rows holding `entries` entries in all, counted
    /// from empty. Each buffer grows once, to exactly that size, when it
    /// is smaller, so a caller that reserves the same bound on every fill
    /// allocates on its first fill only.
    pub fn reserve(&mut self, rows: usize, entries: usize) {
        self.ends.reserve_exact(rows.saturating_sub(self.ends.len()));
        self.cols.reserve_exact(entries.saturating_sub(self.cols.len()));
        self.vals.reserve_exact(entries.saturating_sub(self.vals.len()));
    }

    /// Append `value` at `col` to the open row: the one after the last
    /// [`SparseRows::end_row`].
    #[inline]
    pub fn push(&mut self, col: usize, value: f64) {
        self.cols.push(u32::try_from(col).expect("a column index fits in u32"));
        self.vals.push(value);
    }

    /// Close the open row; the next [`SparseRows::push`] starts a new one.
    /// A row closed with no entries is all zeros.
    #[inline]
    pub fn end_row(&mut self) {
        self.ends.push(u32::try_from(self.cols.len()).expect("an entry count fits in u32"));
    }

    /// Number of closed rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.ends.len()
    }

    /// Number of entries over all closed rows.
    pub fn nnz(&self) -> usize {
        self.ends.last().map_or(0, |&e| e as usize)
    }

    /// Row `i`'s `(column, value)` entries, in the order they were pushed.
    #[inline]
    pub fn row(&self, i: usize) -> impl ExactSizeIterator<Item = (usize, f64)> + '_ {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        let end = self.ends[i] as usize;
        self.cols[start..end].iter().zip(&self.vals[start..end]).map(|(&j, &v)| (j as usize, v))
    }

    /// The rows of a dense matrix. Every cell is an entry except the
    /// exact `+0.0` bit pattern, which a zero-filled row already holds:
    /// `-0.0`, NaN and infinities survive, so scattering the rows back
    /// reproduces `a` bit for bit.
    pub fn from_dense(a: &[Vec<f64>]) -> Self {
        let mut rows = SparseRows::new();
        for row in a {
            for (j, &v) in row.iter().enumerate() {
                if v.to_bits() != 0 {
                    rows.push(j, v);
                }
            }
            rows.end_row();
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(row: &[f64]) -> Vec<u64> {
        row.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn from_dense_drops_only_positive_zero_bits() {
        let tiny = f64::from_bits(1); // the smallest subnormal
        let a = vec![
            vec![0.0, -0.0, 1.0, 0.0, f64::NAN],
            vec![0.0, 0.0, 0.0, 0.0, 0.0],
            vec![f64::INFINITY, f64::NEG_INFINITY, tiny, -tiny, -1.5],
        ];
        let rows = SparseRows::from_dense(&a);
        assert_eq!(rows.rows(), 3);
        assert_eq!(rows.nnz(), 8, "three entries in row 0, none in row 1, five in row 2");
        let cols: Vec<usize> = rows.row(0).map(|(j, _)| j).collect();
        assert_eq!(cols, vec![1, 2, 4], "-0.0 and NaN are entries, +0.0 is not");
        assert_eq!(rows.row(1).len(), 0);
        for (i, dense) in a.iter().enumerate() {
            let mut out = vec![0.0; dense.len()];
            for (j, v) in rows.row(i) {
                out[j] = v;
            }
            assert_eq!(bits(&out), bits(dense), "row {i} round-trips bit for bit");
        }
    }

    #[test]
    fn refill_reuses_the_buffer() {
        let mut rows = SparseRows::new();
        rows.push(0, 1.0);
        rows.push(3, -1.0);
        rows.end_row();
        rows.end_row();
        assert_eq!((rows.rows(), rows.nnz()), (2, 2));
        assert_eq!(rows.row(0).collect::<Vec<_>>(), vec![(0, 1.0), (3, -1.0)]);
        rows.clear();
        assert_eq!((rows.rows(), rows.nnz()), (0, 0));
        rows.reserve(4, 8);
        let capacity = (rows.cols.capacity(), rows.vals.capacity(), rows.ends.capacity());
        assert_eq!(capacity, (8, 8, 4), "reserved exactly");
        rows.push(2, 2.0);
        rows.end_row();
        rows.clear();
        rows.reserve(4, 8);
        let again = (rows.cols.capacity(), rows.vals.capacity(), rows.ends.capacity());
        assert_eq!(again, capacity, "a refill keeps the buffers");
    }
}
