//! Property tests: the mask kernel, [`IncrementalFlow`]'s single-edit
//! and batched repairs, and a from-scratch [`TransitiveFlow::compute`]
//! all stay **bit-identical** to an independent reference walk.
//!
//! Bit-identity (compared via `f64::to_bits`, not an epsilon) is the
//! whole contract: the GRM swaps full recomputes for incremental
//! repairs, and the simulator one repair per edit for one per epoch,
//! only because the grant decisions downstream cannot move by even one
//! ulp. f64 addition does not re-associate, so the contract pins the
//! *order* paths are summed in — depth first, successors ascending.

// Index-based loops keep the matrix algebra legible in these tests.
#![allow(clippy::needless_range_loop)]

use agreements_flow::{AgreementMatrix, IncrementalFlow, TransitiveFlow, TransitiveOptions};
use proptest::prelude::*;
use std::sync::Arc;

/// The walk as the paper's recurrence reads — recursive, probing every
/// column in ascending order, `Vec<bool>` visited — sharing no code with
/// the crate's mask kernel. Returns the table as row-major bit patterns.
fn reference(s: &AgreementMatrix, opts: &TransitiveOptions) -> Vec<u64> {
    fn dfs(
        s: &AgreementMatrix,
        node: usize,
        prod: f64,
        left: usize,
        min_product: f64,
        visited: &mut [bool],
        row: &mut [f64],
    ) {
        if left == 0 {
            return;
        }
        for next in 0..s.n() {
            let share = s.get(node, next);
            if share <= 0.0 || visited[next] {
                continue;
            }
            let p = prod * share;
            if p <= min_product {
                continue;
            }
            row[next] += p;
            visited[next] = true;
            dfs(s, next, p, left - 1, min_product, visited, row);
            visited[next] = false;
        }
    }

    let n = s.n();
    let level = opts.max_level.min(n.saturating_sub(1)).max(1);
    let mut table = Vec::with_capacity(n * n);
    let mut visited = vec![false; n];
    for src in 0..n {
        let mut row = vec![0.0f64; n];
        visited[src] = true;
        dfs(s, src, 1.0, level, opts.min_product, &mut visited, &mut row);
        visited[src] = false;
        table.extend(row.iter().map(|&v| if opts.clamp { v.min(1.0) } else { v }.to_bits()));
    }
    table
}

fn bits_of(flow: &TransitiveFlow) -> Vec<u64> {
    flow.matrix().as_slice().iter().map(|v| v.to_bits()).collect()
}

fn table_of(inc: &IncrementalFlow) -> Vec<u64> {
    let n = inc.n();
    (0..n * n).map(|k| inc.coefficient(k / n, k % n).to_bits()).collect()
}

/// Shares of `0..=0.3` in thousandths, so full rows sum past 1 and the
/// clamp has something to do. Draws below `floor` become absent edges:
/// `floor = 0` leaves the graph all but complete, a larger one thins it
/// until dirty sets stop covering every row.
fn arb_graph(
    sizes: std::ops::RangeInclusive<usize>,
    floor: u32,
) -> impl Strategy<Value = AgreementMatrix> {
    sizes.prop_flat_map(move |n| {
        proptest::collection::vec(0u32..=300 + floor, n * n).prop_map(move |raw| {
            let mut s = AgreementMatrix::zeros(n);
            for i in 0..n {
                for j in 0..n {
                    if i != j {
                        s.set(i, j, raw[i * n + j].saturating_sub(floor) as f64 / 1000.0).unwrap();
                    }
                }
            }
            s
        })
    })
}

/// Out-degree ≤ 3 with targets anywhere in `0..n`, so a node's successors
/// straddle mask words; shares up to 0.9 keep six-hop products alive.
fn arb_sparse() -> impl Strategy<Value = AgreementMatrix> {
    (0usize..4).prop_flat_map(|pick| {
        let n = [63usize, 64, 65, 130][pick];
        proptest::collection::vec((0usize..n, 1u32..=900), 3 * n).prop_map(move |edges| {
            let mut s = AgreementMatrix::zeros(n);
            for (k, &(to, milli)) in edges.iter().enumerate() {
                if to != k / 3 {
                    s.set(k / 3, to, milli as f64 / 1000.0).unwrap();
                }
            }
            s
        })
    })
}

/// `min_product` (exact, or pruning at 10⁻³) and the clamp switch.
fn arb_options() -> impl Strategy<Value = (f64, bool)> {
    (0usize..2, 0usize..2).prop_map(|(prune, clamp)| ([0.0, 1e-3][prune], clamp == 1))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Kernel ≡ reference on dense graphs, at every level.
    #[test]
    fn kernel_matches_reference_on_dense_graphs(
        s in arb_graph(1..=9, 0), (min_product, clamp) in arb_options()
    ) {
        for max_level in 1..s.n().max(2) {
            let opts = TransitiveOptions { max_level, clamp, min_product };
            let flow = TransitiveFlow::compute_with(&s, &opts);
            prop_assert_eq!(bits_of(&flow), reference(&s, &opts), "level {}", max_level);
        }
    }

    /// Kernel ≡ reference where a mask row fills one word exactly, spills
    /// one bit into a second, and spans three.
    #[test]
    fn kernel_matches_reference_at_word_boundaries(
        s in arb_sparse(), max_level in 1usize..=6, (min_product, clamp) in arb_options()
    ) {
        let opts = TransitiveOptions { max_level, clamp, min_product };
        prop_assert_eq!(bits_of(&TransitiveFlow::compute_with(&s, &opts)), reference(&s, &opts));
    }

    /// `set_all(edits)` ≡ the same edits as sequential `set`s ≡ a
    /// from-scratch compute of the edited matrix. Indices are drawn from a
    /// small range so a batch hits the same pair more than once (the last
    /// write wins), and a third of the shares are 0 (edge removals).
    #[test]
    fn batch_matches_sequential_sets_and_full_compute(
        s in arb_graph(2..=7, 450),
        level in 1usize..=6,
        raw_edits in proptest::collection::vec((0usize..7, 0usize..7, 0u32..=450), 0..=12),
        (bad_at, bad_kind) in (0usize..13, 0usize..3),
    ) {
        let n = s.n();
        let edits: Vec<(usize, usize, f64)> = raw_edits
            .iter()
            .map(|&(from, to, milli)| (from % n, to % n, milli.saturating_sub(150) as f64 / 1000.0))
            .filter(|&(from, to, _)| from != to)
            .collect();
        let opts = TransitiveOptions::exact(level);

        let mut batched = IncrementalFlow::new(s.clone(), level);
        let mut sequential = batched.clone();
        let mut edited = s.clone();
        let rows = batched.set_all(&edits).unwrap();
        let mut changed = false;
        for &(from, to, share) in &edits {
            changed |= sequential.set(from, to, share).unwrap() > 0;
            edited.set(from, to, share).unwrap();
        }
        prop_assert_eq!(rows > 0, changed);
        prop_assert_eq!(batched.agreements(), &edited);
        prop_assert_eq!(sequential.agreements(), &edited);
        let expected = reference(&edited, &opts);
        prop_assert_eq!(table_of(&batched), expected.clone(), "batched repair diverged");
        prop_assert_eq!(table_of(&sequential), expected.clone(), "sequential repairs diverged");
        prop_assert_eq!(bits_of(&batched.snapshot()), expected.clone());

        // Re-applying the shares the matrix already holds changes nothing:
        // no row is walked and the published snapshot keeps its identity.
        let snap = batched.snapshot();
        let noop: Vec<_> = edits.iter().map(|&(f, t, _)| (f, t, edited.get(f, t))).collect();
        prop_assert_eq!(batched.set_all(&noop).unwrap(), 0);
        prop_assert!(Arc::ptr_eq(&snap, &batched.snapshot()));

        // One invalid edit anywhere in a batch rejects all of it.
        let bad = [(0, 0, 0.5), (n, 0, 0.5), (0, 1, 1.5)][bad_kind];
        let mut poisoned = edits.clone();
        poisoned.insert(bad_at.min(poisoned.len()), bad);
        let mut untouched = IncrementalFlow::new(s.clone(), level);
        let before = (untouched.snapshot(), table_of(&untouched));
        prop_assert!(untouched.set_all(&poisoned).is_err());
        prop_assert_eq!(untouched.agreements(), &s);
        prop_assert_eq!(table_of(&untouched), before.1);
        prop_assert!(Arc::ptr_eq(&before.0, &untouched.snapshot()));
        prop_assert_eq!(untouched.rows_recomputed(), 0);
    }
}

/// One mutation in the interleaving. Indices and shares are raw; they
/// are folded modulo the current `n` when applied (membership changes
/// shift `n` mid-sequence, so concrete indices cannot be fixed at
/// generation time).
#[derive(Debug, Clone, Copy)]
enum Op {
    /// `set(from % n, to % n, share)` with `share` scaled into [0, 0.3]
    /// (kept small so dense row sums stay within the basic model).
    Set { from: usize, to: usize, share_milli: u32 },
    /// Admit a principal (full-recompute path).
    Grow,
    /// `isolate(i % n)` (full-recompute path).
    Isolate { i: usize },
}

fn arb_op() -> impl Strategy<Value = Op> {
    // Weighted mix: 8/10 set, 1/10 grow, 1/10 isolate (the vendored
    // proptest's `prop_oneof!` has no weight syntax, so the selector is
    // drawn explicitly).
    (0usize..10, 0usize..64, 0usize..64, 0u32..=300).prop_map(|(pick, from, to, share_milli)| {
        match pick {
            8 => Op::Grow,
            9 => Op::Isolate { i: from },
            _ => Op::Set { from, to, share_milli },
        }
    })
}

/// Initial matrix (n in 2..=8) plus ≥ 64 mutations. Growth is capped by
/// the op mix (about one grow per ten ops), keeping n ≤ 16 as specified.
fn arb_scenario() -> impl Strategy<Value = (AgreementMatrix, Vec<Op>, usize)> {
    (arb_graph(2..=8, 0), proptest::collection::vec(arb_op(), 64..=96), 1usize..=7)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn incremental_matches_full_compute_bit_for_bit(
        (s, ops, level) in arb_scenario()
    ) {
        let max_grows = 8; // keeps n within 16 even on grow-heavy draws
        let mut grows = 0;
        let mut inc = IncrementalFlow::new(s.clone(), level);
        let mut reference_matrix = s;
        for op in ops {
            match op {
                Op::Set { from, to, share_milli } => {
                    let n = reference_matrix.n();
                    let (from, to) = (from % n, to % n);
                    let share = share_milli as f64 / 1000.0;
                    let expect = reference_matrix.set(from, to, share);
                    let got = inc.set(from, to, share);
                    prop_assert_eq!(expect.is_ok(), got.is_ok(),
                        "set({}, {}, {}) acceptance diverged", from, to, share);
                }
                Op::Grow => {
                    if grows == max_grows {
                        continue;
                    }
                    grows += 1;
                    reference_matrix = reference_matrix.grown();
                    inc.grow();
                }
                Op::Isolate { i } => {
                    let i = i % reference_matrix.n();
                    reference_matrix.isolate(i).unwrap();
                    inc.isolate(i).unwrap();
                }
            }
            let n = reference_matrix.n();
            prop_assert!(n <= 16, "scenario must stay small");
            prop_assert_eq!(inc.n(), n);
            let opts = TransitiveOptions::exact(level);
            let full = TransitiveFlow::compute_with(&reference_matrix, &opts);
            prop_assert_eq!(inc.level(), full.level());
            let expected = reference(&reference_matrix, &opts);
            prop_assert_eq!(bits_of(&full), expected.clone(), "full compute diverged after {:?}", op);
            prop_assert_eq!(table_of(&inc), expected.clone(), "repair diverged after {:?}", op);
            // The snapshot publishes the same bits.
            prop_assert_eq!(bits_of(&inc.snapshot()), expected);
        }
    }
}
