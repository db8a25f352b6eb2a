//! One-lane cost golden: heap allocations and bytes per decision on the
//! GRM's single-resource request path, counted exactly.
//!
//! Seeded runs of `Call::Request`s execute through
//! `GrmServer::core().execute(..)` on the calling thread, so a counting
//! global allocator with a thread-local counter sees every allocation the
//! decision path makes there and none of another thread's. A
//! `GrmHandle` call runs wholly on its caller's thread too, so the handle
//! path is counted the same way, call by call. The counts are
//! functions of the code and the seed, not of the host, so they are
//! pinned as integers: a change that makes the one-lane path allocate
//! more fails here, on any host, with no benchmark run. The debug and
//! release profiles count the same, so one pin serves both.

use sharing_agreements::flow::AgreementMatrix;
use sharing_agreements::grm::{Call, GrmServer, RequestId};
use sharing_agreements::sched::HierarchicalScheduler;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// `(allocations, bytes)` requested by this thread. Const-initialised
    /// and drop-free, so the allocator can touch it without allocating.
    static COUNTS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn note(bytes: usize) {
    let _ = COUNTS.try_with(|c| {
        let (allocs, total) = c.get();
        c.set((allocs + 1, total + bytes as u64));
    });
}

// SAFETY: every method forwards to the system allocator with the caller's
// arguments unchanged; counting touches only a thread-local `Cell`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn counts() -> (u64, u64) {
    COUNTS.with(Cell::get)
}

const DECISIONS: usize = 2048;
const RUN: usize = 16;

/// A 64-bit LCG (Knuth's MMIX constants): the request stream is a pure
/// function of the seed.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// `DECISIONS` seeded requests over `n` principals, in runs of `RUN`;
/// one request in eight asks beyond any principal's reach.
fn request_runs(n: usize, seed: u64) -> Vec<Vec<Call>> {
    let mut rng = Lcg(seed);
    let mut seq = 0;
    let mut request = || {
        seq += 1;
        let lrm = rng.below(n);
        let amount = if rng.below(8) == 0 { 1e6 } else { 0.5 + rng.below(40) as f64 / 4.0 };
        Call::Request { lrm, amount, req_id: Some(RequestId { client: 1, seq }) }
    };
    (0..DECISIONS / RUN).map(|_| (0..RUN).map(|_| request()).collect()).collect()
}

/// `(allocations, bytes)` on the calling thread over the seeded requests,
/// each run executed on `grm`'s core. Before every run each of the `n`
/// principals re-reports a pool of 10 (not counted), so every run decides
/// against the same state.
fn decision_costs(grm: GrmServer, n: usize, seed: u64) -> (u64, u64) {
    let core = grm.core();
    let reports: Vec<Call> = (0..n).map(|lrm| Call::Report { lrm, available: 10.0 }).collect();
    let (mut allocs, mut bytes) = (0, 0);
    for run in request_runs(n, seed) {
        core.execute(&reports, |_, _, _| ());
        let before = counts();
        core.execute(&run, |answers, _, _| drop(answers));
        let after = counts();
        allocs += after.0 - before.0;
        bytes += after.1 - before.1;
    }
    grm.shutdown();
    (allocs, bytes)
}

/// [`decision_costs`] through `GrmHandle::request_idempotent`, one call at
/// a time: the handle's own costs (its answer channel and the closure it
/// sends) on top of a run of one's.
fn handle_costs(grm: GrmServer, n: usize, seed: u64) -> (u64, u64) {
    let h = grm.handle();
    let (mut allocs, mut bytes) = (0, 0);
    for run in request_runs(n, seed) {
        for lrm in 0..n {
            h.report(lrm, 10.0).unwrap();
        }
        for call in run {
            let Call::Request { lrm, amount, req_id: Some(id) } = call else { unreachable!() };
            let before = counts();
            let decision = h.request_idempotent(lrm, amount, id);
            let after = counts();
            drop(decision);
            allocs += after.0 - before.0;
            bytes += after.1 - before.1;
        }
    }
    grm.shutdown();
    (allocs, bytes)
}

fn complete(n: usize, share: f64) -> AgreementMatrix {
    let mut s = AgreementMatrix::zeros(n);
    for i in 0..n {
        for j in 0..n {
            if i != j {
                s.set(i, j, share).unwrap();
            }
        }
    }
    s
}

/// Four groups of sixteen, each group sharing 30 % with every other.
fn hierarchical64() -> HierarchicalScheduler {
    let groups: Vec<Vec<usize>> = (0..4).map(|g| (g * 16..(g + 1) * 16).collect()).collect();
    HierarchicalScheduler::new(groups, &complete(4, 0.3), 1).unwrap()
}

/// Assert `got` is within the pinned `(allocations, bytes)`.
fn assert_within(engine: &str, got: (u64, u64), pinned: (u64, u64)) {
    let per = |v: u64| v as f64 / DECISIONS as f64;
    assert!(
        got.0 <= pinned.0 && got.1 <= pinned.1,
        "{engine}: {} allocations ({:.2}/decision) and {} bytes ({:.1}/decision) \
         over {DECISIONS} decisions; pinned at {} and {}",
        got.0,
        per(got.0),
        got.1,
        per(got.1),
        pinned.0,
        pinned.1,
    );
}

#[test]
fn flat_n10_request_path_allocations_are_pinned() {
    let got = decision_costs(GrmServer::spawn(complete(10, 0.3), 2), 10, 7);
    assert_within("flat n = 10", got, (9_181, 1_549_254));
}

/// Pinned exactly: the whole handle call runs on the calling thread, so
/// nothing it allocates escapes the counter.
#[test]
fn flat_n10_handle_request_path_allocations_are_pinned() {
    let got = handle_costs(GrmServer::spawn(complete(10, 0.3), 2), 10, 7);
    assert_eq!(got, (17_245, 3_236_806), "flat n = 10 through the handle, over {DECISIONS} calls");
}

/// Pinned exactly: the hierarchical engine decides on the calling
/// thread, with no worker threads whose allocations could escape the
/// counter.
#[test]
fn sequential_hierarchical_n64_request_path_allocations_are_pinned() {
    let got = decision_costs(GrmServer::spawn_hierarchical(hierarchical64()), 64, 11);
    assert_eq!(got, (13_248, 4_271_092), "hierarchical n = 64, over {DECISIONS} decisions");
}

/// Pinned exactly, like the flat handle path.
#[test]
fn hierarchical_n64_handle_request_path_allocations_are_pinned() {
    let got = handle_costs(GrmServer::spawn_hierarchical(hierarchical64()), 64, 11);
    assert_eq!(
        got,
        (21_312, 5_958_644),
        "hierarchical n = 64 through the handle, over {DECISIONS} calls"
    );
}
