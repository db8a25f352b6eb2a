//! The one simple-path walk behind every flow table in this crate.
//!
//! `T^(m)[src][j]` sums a share product over every cycle-free chain
//! `src → … → j` of at most `m` hops, so a row costs one visit per such
//! chain: `Σₖ₌₁..ₘ (n−1)!/(n−1−k)!` of them from each source of a complete
//! graph (986 409 at n = 10, m = 9). The golden fingerprints pin the
//! *order* of that sum — f64 addition does not re-associate — which rules
//! out a memoised or subset-DP closure and leaves the cost per visit as
//! the only lever. The walk therefore keeps the reference order (depth
//! first, successors ascending) and makes each visit cheap: the positive
//! shares out of a node are one bitmask row ([`Masks`], `⌈n/64⌉` words),
//! the candidates at a node are `succ[node] & !visited` iterated lowest
//! bit first, and the weight comes straight from the [`AgreementMatrix`]
//! row — no adjacency lists to keep sorted, no probe of an edge that
//! leads to a visited node.

use crate::matrix::AgreementMatrix;
use std::cell::Cell;

/// What a walk does with each simple path it finds.
pub(crate) trait Visitor {
    /// A simple path from the source ends at `next` with share product
    /// `product`. Returns whether the walk should extend it; every `true`
    /// is matched by one [`Visitor::leave`] once its extensions are done.
    fn path(&mut self, next: usize, product: f64) -> bool;

    /// The walk backs out of the path most recently accepted.
    fn leave(&mut self) {}
}

/// Accumulates one row of `T`: the visitor behind every flow table.
struct RowSum<'a> {
    row: &'a mut [f64],
    min_product: f64,
}

impl Visitor for RowSum<'_> {
    #[inline(always)]
    fn path(&mut self, next: usize, product: f64) -> bool {
        if product <= self.min_product {
            return false;
        }
        self.row[next] += product;
        true
    }
}

/// The agreement graph as bitmasks: bit `j` of row `i` of `succ` is set
/// iff `S[i][j] > 0`, and `pred` is its transpose. An edit sets or clears
/// one bit in each.
#[derive(Debug, Clone, Default)]
pub(crate) struct Masks {
    words: usize,
    succ: Vec<u64>,
    pred: Vec<u64>,
}

/// Indices of the set bits, ascending.
pub(crate) fn bits(set: &[u64]) -> impl Iterator<Item = usize> + '_ {
    set.iter().enumerate().flat_map(|(word, &mask)| {
        let mut rem = mask;
        std::iter::from_fn(move || {
            (rem != 0).then(|| {
                let bit = rem.trailing_zeros() as usize;
                rem &= rem - 1;
                word * 64 + bit
            })
        })
    })
}

impl Masks {
    /// The masks of `s`. The diagonal is skipped: no simple path uses a
    /// self-share, and the walk relies on a node never being its own
    /// successor.
    pub(crate) fn of(s: &AgreementMatrix) -> Masks {
        let n = s.n();
        let words = n.div_ceil(64);
        let mut masks = Masks { words, succ: vec![0; n * words], pred: vec![0; n * words] };
        for from in 0..n {
            for (to, &share) in s.row(from).iter().enumerate() {
                if share > 0.0 && to != from {
                    masks.set(from, to, true);
                }
            }
        }
        masks
    }

    /// Words per mask row, `⌈n/64⌉`.
    pub(crate) fn words(&self) -> usize {
        self.words
    }

    /// Record whether `S[from][to]` is positive.
    pub(crate) fn set(&mut self, from: usize, to: usize, present: bool) {
        let succ = &mut self.succ[from * self.words + to / 64];
        let pred = &mut self.pred[to * self.words + from / 64];
        if present {
            *succ |= 1 << (to % 64);
            *pred |= 1 << (from % 64);
        } else {
            *succ &= !(1 << (to % 64));
            *pred &= !(1 << (from % 64));
        }
    }

    /// Every node with a path of at most `hops` edges into the `targets`
    /// set, the targets included — breadth first over the transposed
    /// masks, a whole frontier per step.
    pub(crate) fn reaching(&self, targets: &[u64], hops: usize) -> Vec<u64> {
        let mut reached = targets.to_vec();
        let mut frontier = targets.to_vec();
        for _ in 0..hops {
            let mut next = vec![0u64; self.words];
            for node in bits(&frontier) {
                let preds = &self.pred[node * self.words..(node + 1) * self.words];
                next.iter_mut().zip(preds).for_each(|(n, p)| *n |= p);
            }
            next.iter_mut().zip(&reached).for_each(|(n, r)| *n &= !r);
            if next.iter().all(|&n| n == 0) {
                break;
            }
            reached.iter_mut().zip(&next).for_each(|(r, n)| *r |= n);
            frontier = next;
        }
        reached
    }

    /// Show `visitor` every simple path from `src` of at most `level ≥ 1`
    /// hops, depth first, successors ascending.
    pub(crate) fn visit_paths(
        &self,
        s: &AgreementMatrix,
        src: usize,
        level: usize,
        visitor: &mut impl Visitor,
    ) {
        let mut visited = vec![0u64; self.words];
        visited[src / 64] = 1 << (src % 64);
        let visited = Cell::from_mut(&mut visited[..]).as_slice_of_cells();
        // Deep closures are walked on small graphs, where one word holds
        // a whole mask row: that case gets its own copy of the walk.
        match self.words {
            1 => walk::<1, _>(s, self, visited, visitor, src, 1.0, level),
            _ => walk::<0, _>(s, self, visited, visitor, src, 1.0, level),
        }
    }

    /// Row `src` of `T^(level)` into `row`: the share products of the
    /// simple paths from `src`, summed per end point in walk order,
    /// products at or below `min_product` abandoned, then the §3.2
    /// overdraft clamp `min(·, 1)` when `clamp` is set.
    pub(crate) fn flow_row(
        &self,
        s: &AgreementMatrix,
        src: usize,
        level: usize,
        min_product: f64,
        clamp: bool,
        row: &mut [f64],
    ) {
        row.fill(0.0);
        self.visit_paths(s, src, level, &mut RowSum { row: &mut *row, min_product });
        if clamp {
            for v in row.iter_mut() {
                if *v > 1.0 {
                    *v = 1.0;
                }
            }
        }
    }
}

/// The unvisited successors of one node with their shares, ascending.
/// `W` is the number of words per mask row, or 0 to read it from the
/// masks. The candidate set is fixed when a word is first read, which is
/// sound because the walk restores `visited` before it asks for the next.
struct Successors<'a, const W: usize> {
    shares: &'a [f64],
    succ: &'a [u64],
    visited: &'a [Cell<u64>],
    word: usize,
    rem: u64,
}

impl<'a, const W: usize> Successors<'a, W> {
    #[inline(always)]
    fn of(s: &'a AgreementMatrix, masks: &'a Masks, visited: &'a [Cell<u64>], node: usize) -> Self {
        let words = if W == 0 { masks.words } else { W };
        let succ = &masks.succ[node * words..(node + 1) * words];
        Successors { shares: s.row(node), succ, visited, word: 0, rem: succ[0] & !visited[0].get() }
    }
}

impl<const W: usize> Iterator for Successors<'_, W> {
    type Item = (usize, f64);

    #[inline(always)]
    fn next(&mut self) -> Option<(usize, f64)> {
        while self.rem == 0 {
            self.word += 1;
            if self.word >= self.succ.len() {
                return None;
            }
            self.rem = self.succ[self.word] & !self.visited[self.word].get();
        }
        let next = self.word * 64 + self.rem.trailing_zeros() as usize;
        self.rem &= self.rem - 1;
        Some((next, self.shares[next]))
    }
}

/// Depth-first over the simple paths that extend the one ending at `node`
/// (share product `prod`, every node on it marked in `visited`) by up to
/// `left ≥ 1` more hops, successors ascending — the order every table in
/// this crate accumulates in.
fn walk<const W: usize, V: Visitor>(
    s: &AgreementMatrix,
    masks: &Masks,
    visited: &[Cell<u64>],
    visitor: &mut V,
    node: usize,
    prod: f64,
    left: usize,
) {
    for (next, share) in Successors::<W>::of(s, masks, visited, node) {
        let p = prod * share;
        if !visitor.path(next, p) {
            continue;
        }
        if left > 2 {
            let seen = &visited[next / 64];
            seen.set(seen.get() | 1 << (next % 64));
            walk::<W, V>(s, masks, visited, visitor, next, p, left - 1);
            seen.set(seen.get() & !(1 << (next % 64)));
        } else if left == 2 {
            // The last hop. On a dense graph over half of all calls would
            // be these, each to sum a successor or two, so they are summed
            // in place — with no mark either, since `next` is never its
            // own successor.
            for (last, share) in Successors::<W>::of(s, masks, visited, next) {
                if visitor.path(last, p * share) {
                    visitor.leave();
                }
            }
        }
        visitor.leave();
    }
}
