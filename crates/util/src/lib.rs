//! Small utilities shared across the workspace.
//!
//! The one resident so far is [`par_map`], the order-preserving
//! scoped-thread fan-out that used to be re-implemented by hand in the
//! flow closure, the hierarchical scheduler, the experiment sweeps, and
//! the GRM tests. It lives in its own leaf crate because those users
//! span both ends of the dependency graph.

#![warn(missing_docs)]
#![deny(unsafe_code)]

/// Apply `f` to every item on its own scoped thread and return the
/// outputs **in input order**. Spawning one thread per item is the right
/// trade for the workloads here — a handful of coarse jobs (simulator
/// sweeps, per-chunk DFS walks), not thousands of fine ones. Callers
/// that need bit-identical parallel/sequential results get it for free
/// as long as `f` itself is a pure function of its item: join order is
/// input order, so the collected vector never depends on scheduling.
///
/// Panics propagate: if any job panics, the scope unwinds after all
/// siblings are joined.
pub fn par_map<I, O, F>(items: Vec<I>, f: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync,
{
    crossbeam::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = items.into_iter().map(|item| scope.spawn(move |_| f(item))).collect();
        handles.into_iter().map(|h| h.join().expect("par_map thread")).collect()
    })
    .expect("par_map scope")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order_under_uneven_work() {
        let items: Vec<usize> = (0..32).collect();
        let out = par_map(items.clone(), |i| {
            if i % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            i * i
        });
        let expected: Vec<usize> = items.iter().map(|&i| i * i).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn empty_and_single_inputs() {
        assert_eq!(par_map(Vec::<u8>::new(), |x| x), Vec::<u8>::new());
        assert_eq!(par_map(vec![41], |x| x + 1), vec![42]);
    }

    #[test]
    fn borrows_environment() {
        let base = [10, 20, 30];
        let out = par_map(vec![0usize, 1, 2], |i| base[i] + i);
        assert_eq!(out, vec![10, 21, 32]);
    }
}
