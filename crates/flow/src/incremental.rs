//! Incremental maintenance of the clamped transitive flow `K^(m)`.
//!
//! [`TransitiveFlow::compute`] enumerates simple paths from every source
//! — exact, but a full recompute on *every* agreement mutation, which is
//! what the GRM used to do on each `SetAgreement`. The key structural
//! fact making mutations cheap is that row `i` of `T` depends only on
//! the simple paths *starting* at `i`: after `set(from, to, share)`,
//! a row can change only if some simple path from its source uses the
//! mutated edge `(from, to)`, and any such path reaches `from` first.
//! So the dirty set is exactly
//!
//! > `{ src | src can reach `from` within level − 1 hops } ∪ { from }`
//!
//! computed by a reverse-reachability BFS over the transposed masks.
//! Reachability *to* `from` never traverses an edge out of `from`
//! (a simple path ending at `from` visits it only once — at the end),
//! so the dirty set is the same whether it is computed on the graph
//! before or after the mutation, and rows outside it are untouched
//! bit-for-bit.
//!
//! A batch of edits ([`IncrementalFlow::set_all`]) is repaired once. A
//! row the batch changes has a path, in some intermediate graph, to the
//! tail of an edited edge; the prefix of that path up to the *first* tail
//! of any edited edge on it is made of unedited edges, so the row reaches
//! an edited tail in the final graph too. The union of the per-tail dirty
//! sets on the final graph therefore covers every row that can differ,
//! and each of them is re-walked once, from scratch, on the final graph —
//! which is all a sequence of single-edit repairs leaves behind.
//!
//! Dirty rows are recomputed by the same walk as a from-scratch
//! [`TransitiveFlow::compute`] (the `kernel` module), so every bit of the
//! result is identical to one. Membership changes (`grow`, `isolate`)
//! change `n` or wipe whole rows *and* columns; those fall back to a
//! full recompute (again row by row via the same walk).

use crate::error::FlowError;
use crate::kernel::{bits, Masks};
use crate::matrix::AgreementMatrix;
use crate::transitive::TransitiveFlow;
use agreements_lp::Matrix;
use agreements_telemetry::{HistKind, Telemetry};
use std::sync::Arc;

/// Incrementally maintained `K^(m) = min(T^(m), 1)` over a mutable
/// agreement matrix. Holds the agreements, their successor and
/// predecessor bitmasks, and the current clamped coefficient table;
/// [`IncrementalFlow::set_all`] recomputes only the dirty rows,
/// [`IncrementalFlow::grow`] / [`IncrementalFlow::isolate`] fall back
/// to a full recompute. [`IncrementalFlow::snapshot`] publishes the
/// table as a cached [`Arc<TransitiveFlow>`], so unchanged tables keep
/// their pointer identity (which the scheduler's skeleton cache keys
/// on).
#[derive(Debug, Clone)]
pub struct IncrementalFlow {
    s: AgreementMatrix,
    /// The *requested* level cap; the effective cap is re-derived from
    /// `n` exactly like [`TransitiveFlow::compute`] derives it.
    max_level: usize,
    masks: Masks,
    t: Matrix,
    snapshot: Option<Arc<TransitiveFlow>>,
    rows_recomputed: usize,
    full_recomputes: usize,
    telemetry: Telemetry,
}

impl IncrementalFlow {
    /// Build from an initial agreement matrix (one full recompute).
    pub fn new(s: AgreementMatrix, max_level: usize) -> Self {
        let n = s.n();
        let mut inc = IncrementalFlow {
            s,
            masks: Masks::default(),
            max_level,
            t: Matrix::zeros(n, n),
            snapshot: None,
            rows_recomputed: 0,
            full_recomputes: 0,
            telemetry: Telemetry::default(),
        };
        inc.rebuild_all();
        inc.full_recomputes = 0;
        inc.rows_recomputed = 0;
        inc
    }

    /// Number of principals.
    #[inline]
    pub fn n(&self) -> usize {
        self.s.n()
    }

    /// The effective level cap, matching [`TransitiveFlow::compute`]:
    /// `max_level` clamped into `1..=n-1`.
    #[inline]
    pub fn level(&self) -> usize {
        self.max_level.min(self.n().saturating_sub(1)).max(1)
    }

    /// The current agreement matrix.
    pub fn agreements(&self) -> &AgreementMatrix {
        &self.s
    }

    /// The current clamped coefficient `K[i][j]`.
    #[inline]
    pub fn coefficient(&self, i: usize, j: usize) -> f64 {
        self.t[(i, j)]
    }

    /// Rows recomputed so far across all mutations (full recomputes
    /// count `n` rows each) — the observability hook behind the GRM's
    /// `flow_rows_recomputed` counter.
    pub fn rows_recomputed(&self) -> usize {
        self.rows_recomputed
    }

    /// How many mutations fell back to a full recompute.
    pub fn full_recomputes(&self) -> usize {
        self.full_recomputes
    }

    /// Attach a telemetry plane: each repair's dirty-row count feeds the
    /// `flow_dirty_rows` histogram. Disabled (no-op) by default.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Set `S[from][to] = share` and repair the flow table:
    /// [`IncrementalFlow::set_all`] of one edit.
    pub fn set(&mut self, from: usize, to: usize, share: f64) -> Result<usize, FlowError> {
        self.set_all(&[(from, to, share)])
    }

    /// Apply the `(from, to, share)` edits in order (a later edit of the
    /// same pair wins) and repair the flow table once, recomputing each
    /// dirty row a single time. Returns the number of rows recomputed —
    /// 0, with the cached snapshot kept, when no edit changes a share.
    /// Validation (and its error taxonomy) is exactly
    /// [`AgreementMatrix::set`]'s, run over the whole batch first: on
    /// error nothing changes.
    pub fn set_all(&mut self, edits: &[(usize, usize, f64)]) -> Result<usize, FlowError> {
        for &(from, to, share) in edits {
            self.s.check(from, to, share)?;
        }
        let mut tails = vec![0u64; self.masks.words()];
        for &(from, to, share) in edits {
            if self.s.get(from, to) != share {
                self.s.set(from, to, share).expect("checked above");
                self.masks.set(from, to, share > 0.0);
                tails[from / 64] |= 1 << (from % 64);
            }
        }
        if tails.iter().all(|&w| w == 0) {
            return Ok(0);
        }
        self.snapshot = None;

        // Dirty rows: the sources that reach an edited edge's tail within
        // level − 1 hops (they need one hop left for the edge itself).
        let level = self.level();
        let mut recomputed = 0;
        for src in bits(&self.masks.reaching(&tails, level - 1)) {
            self.masks.flow_row(&self.s, src, level, 0.0, true, self.t.row_mut(src));
            recomputed += 1;
        }
        self.rows_recomputed += recomputed;
        self.telemetry.add("flow.repairs", 1);
        self.telemetry.observe(HistKind::FlowDirtyRows, recomputed as f64);
        Ok(recomputed)
    }

    /// Admit a new principal (index `n`, no agreements yet) — full
    /// recompute, mirroring [`AgreementMatrix::grown`]. Returns the new
    /// principal's index.
    pub fn grow(&mut self) -> usize {
        self.s = self.s.grown();
        self.rebuild_all();
        self.s.n() - 1
    }

    /// Remove every agreement involving `i` — full recompute, mirroring
    /// [`AgreementMatrix::isolate`].
    pub fn isolate(&mut self, i: usize) -> Result<(), FlowError> {
        self.s.isolate(i)?;
        self.rebuild_all();
        Ok(())
    }

    /// The current table as a shared [`TransitiveFlow`]. Cached: calling
    /// twice without an intervening mutation returns the same `Arc`, so
    /// pointer-keyed caches (the allocation solver's skeleton) stay
    /// warm.
    pub fn snapshot(&mut self) -> Arc<TransitiveFlow> {
        if let Some(snap) = &self.snapshot {
            return Arc::clone(snap);
        }
        let snap = Arc::new(TransitiveFlow::from_parts(self.t.clone(), self.level(), true));
        self.snapshot = Some(Arc::clone(&snap));
        snap
    }

    /// Full rebuild: the masks and every row.
    fn rebuild_all(&mut self) {
        let n = self.s.n();
        self.masks = Masks::of(&self.s);
        self.t.reset(n, n);
        let level = self.level();
        for src in 0..n {
            self.masks.flow_row(&self.s, src, level, 0.0, true, self.t.row_mut(src));
        }
        self.rows_recomputed += n;
        self.full_recomputes += 1;
        self.snapshot = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transitive::{reference, TransitiveOptions};

    fn bits_of(flow: &TransitiveFlow) -> Vec<u64> {
        flow.matrix().as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// The table must equal, bit for bit, both a from-scratch compute and
    /// the recursive reference walk the kernel replaced.
    fn assert_bit_identical(inc: &IncrementalFlow) {
        let opts = TransitiveOptions::exact(inc.max_level);
        let full = reference(inc.agreements(), &opts);
        let computed = TransitiveFlow::compute_with(inc.agreements(), &opts);
        assert_eq!(bits_of(&computed), bits_of(&full), "compute diverged from the reference");
        let n = inc.n();
        assert_eq!(full.n(), n);
        assert_eq!(full.level(), inc.level());
        for i in 0..n {
            for j in 0..n {
                assert_eq!(
                    inc.coefficient(i, j).to_bits(),
                    full.coefficient(i, j).to_bits(),
                    "coefficient ({i},{j}) diverged from full recompute"
                );
            }
        }
    }

    #[test]
    fn initial_table_matches_full_compute() {
        let mut s = AgreementMatrix::zeros(5);
        s.set(0, 1, 0.5).unwrap();
        s.set(1, 2, 0.4).unwrap();
        s.set(2, 3, 0.9).unwrap();
        s.set(3, 0, 0.2).unwrap();
        let inc = IncrementalFlow::new(s, 4);
        assert_bit_identical(&inc);
    }

    #[test]
    fn single_edge_set_repairs_only_reachable_rows() {
        // Chain 0 -> 1 -> 2 -> 3; node 4 is isolated and must stay
        // untouched when the edge (2, 3) changes.
        let mut s = AgreementMatrix::zeros(5);
        s.set(0, 1, 0.5).unwrap();
        s.set(1, 2, 0.4).unwrap();
        s.set(2, 3, 0.9).unwrap();
        let mut inc = IncrementalFlow::new(s, 4);
        let rows = inc.set(2, 3, 0.1).unwrap();
        // Dirty = {0, 1} (reach 2) ∪ {2} — not 3 or 4.
        assert_eq!(rows, 3);
        assert_bit_identical(&inc);
    }

    #[test]
    fn batch_walks_each_dirty_row_once() {
        // Same chain: edits to (2, 3) and (0, 1) dirty {0, 1, 2} and {0};
        // one at a time that is four row walks, as a batch three.
        let mut s = AgreementMatrix::zeros(5);
        s.set(0, 1, 0.5).unwrap();
        s.set(1, 2, 0.4).unwrap();
        s.set(2, 3, 0.9).unwrap();
        let mut inc = IncrementalFlow::new(s, 4);
        let rows = inc.set_all(&[(2, 3, 0.1), (0, 1, 0.7), (2, 3, 0.2)]).unwrap();
        assert_eq!(rows, 3);
        assert_eq!(inc.agreements().get(2, 3), 0.2, "the later edit of a pair wins");
        assert_bit_identical(&inc);
        assert!(inc.set_all(&[(0, 1, 0.3), (1, 1, 0.5)]).is_err());
        assert_eq!(inc.agreements().get(0, 1), 0.7, "a rejected batch applies nothing");
        assert_eq!(inc.rows_recomputed(), 3);
    }

    #[test]
    fn edge_insert_and_remove_stay_consistent() {
        let mut s = AgreementMatrix::zeros(4);
        s.set(0, 1, 0.6).unwrap();
        s.set(1, 2, 0.5).unwrap();
        let mut inc = IncrementalFlow::new(s, 3);
        inc.set(2, 3, 0.8).unwrap();
        assert_bit_identical(&inc);
        inc.set(0, 1, 0.0).unwrap();
        assert_bit_identical(&inc);
        inc.set(3, 0, 1.0).unwrap();
        assert_bit_identical(&inc);
    }

    #[test]
    fn level_cap_bounds_the_dirty_set() {
        // Long chain, level 2: only nodes within 1 hop of the mutated
        // edge's tail are dirty.
        let mut s = AgreementMatrix::zeros(8);
        for i in 0..7 {
            s.set(i, i + 1, 0.5).unwrap();
        }
        let mut inc = IncrementalFlow::new(s, 2);
        let rows = inc.set(5, 6, 0.9).unwrap();
        assert_eq!(rows, 2, "only 4 (one hop back) and 5 itself");
        assert_bit_identical(&inc);
    }

    #[test]
    fn noop_set_recomputes_nothing_and_keeps_snapshot() {
        let mut s = AgreementMatrix::zeros(3);
        s.set(0, 1, 0.5).unwrap();
        let mut inc = IncrementalFlow::new(s, 2);
        let snap = inc.snapshot();
        assert_eq!(inc.set(0, 1, 0.5).unwrap(), 0);
        assert!(Arc::ptr_eq(&snap, &inc.snapshot()), "no-op keeps the cached Arc");
        assert!(inc.set(0, 0, 0.5).is_err(), "diagonal still rejected");
        assert!(inc.set(9, 1, 0.5).is_err(), "out of range still rejected");
        assert_bit_identical(&inc);
    }

    #[test]
    fn grow_and_isolate_full_recompute() {
        let mut s = AgreementMatrix::zeros(3);
        s.set(0, 1, 0.5).unwrap();
        s.set(1, 2, 0.4).unwrap();
        let mut inc = IncrementalFlow::new(s, 2);
        let newcomer = inc.grow();
        assert_eq!(newcomer, 3);
        assert_eq!(inc.n(), 4);
        assert_bit_identical(&inc);
        inc.set(2, newcomer, 0.3).unwrap();
        assert_bit_identical(&inc);
        inc.isolate(1).unwrap();
        assert_bit_identical(&inc);
        assert_eq!(inc.full_recomputes(), 2);
        assert!(inc.isolate(9).is_err());
    }

    #[test]
    fn snapshot_is_cached_until_mutation() {
        let mut s = AgreementMatrix::zeros(3);
        s.set(0, 1, 0.5).unwrap();
        let mut inc = IncrementalFlow::new(s, 2);
        let a = inc.snapshot();
        let b = inc.snapshot();
        assert!(Arc::ptr_eq(&a, &b));
        inc.set(1, 2, 0.2).unwrap();
        let c = inc.snapshot();
        assert!(!Arc::ptr_eq(&a, &c), "mutation must invalidate the snapshot");
        assert_eq!(c.coefficient(1, 2), inc.coefficient(1, 2));
    }

    #[test]
    fn dense_mutation_sequence_stays_bit_identical() {
        let mut s = AgreementMatrix::zeros(6);
        for i in 0..6 {
            for j in 0..6 {
                if i != j {
                    s.set(i, j, 0.03 + 0.01 * ((i * 5 + j) % 7) as f64).unwrap();
                }
            }
        }
        let mut inc = IncrementalFlow::new(s, 5);
        let edits =
            [(0, 1, 0.09), (3, 4, 0.0), (4, 3, 0.11), (2, 5, 0.0), (5, 2, 0.08), (1, 0, 0.05)];
        for (i, j, w) in edits {
            inc.set(i, j, w).unwrap();
            assert_bit_identical(&inc);
        }
    }
}
