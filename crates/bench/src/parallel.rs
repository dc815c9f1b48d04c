//! Scoped-thread fan-out for the study binaries.
//!
//! The table/figure binaries sweep independent (circuit, P) cells; each
//! cell is a self-contained measurement, so they parallelize trivially.
//! The workspace vendors no thread-pool crate, so this module provides a
//! small `std::thread::scope`-based work-stealing map that preserves
//! input order in its output (results are deterministic regardless of
//! thread count — only wall time changes). Workers pull `(index, item)`
//! pairs from one shared queue and send `(index, result)` pairs back
//! over an mpsc channel; the caller reassembles them in input order, so
//! no per-task or per-slot locks exist and each item is moved exactly
//! once.
//!
//! The worker count defaults to the machine's available parallelism,
//! capped by the item count; set `LSIM_THREADS=<n>` to override (use
//! `LSIM_THREADS=1` for fully serial execution).

use crate::report;
use std::sync::{mpsc, Mutex};

/// Number of worker threads for `items` independent tasks: the
/// `LSIM_THREADS` override if set, else available parallelism, capped
/// by the item count and always at least 1.
#[must_use]
pub fn worker_count(items: usize) -> usize {
    let hw = report::lsim_threads().unwrap_or_else(report::host_cores);
    usize::try_from(hw).unwrap_or(usize::MAX).min(items).max(1)
}

/// Applies `f` to every item on a pool of scoped threads, returning the
/// results in input order. Panics in `f` propagate to the caller.
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let workers = worker_count(items.len());
    par_map_with_workers(workers, items, f)
}

/// [`par_map`] with an explicit worker count (used by tests to prove
/// the output is independent of parallelism without touching the
/// process environment).
///
/// # Panics
///
/// Panics if `f` panics on any item (the panic is propagated).
pub fn par_map_with_workers<T, R, F>(workers: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    if workers <= 1 || items.len() <= 1 {
        return items.into_iter().map(f).collect();
    }
    let n = items.len();
    let queue = Mutex::new(items.into_iter().enumerate());
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers.min(n) {
            let tx = tx.clone();
            let (queue, f) = (&queue, &f);
            scope.spawn(move || loop {
                // Hold the queue lock only long enough to take the next
                // item; the item itself is moved out (taken) before `f`
                // runs, so a slow task never blocks the queue.
                let next = queue.lock().expect("work queue").next();
                let Some((i, item)) = next else { break };
                if tx.send((i, f(item))).is_err() {
                    break; // collector gone; nothing left to do
                }
            });
        }
        drop(tx);
        for (i, r) in rx {
            out[i] = Some(r);
        }
    });
    out.into_iter()
        .map(|r| r.expect("every dispensed index sends a result"))
        .collect()
}

/// Runs two independent closures concurrently and returns both results.
pub fn par_join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if worker_count(2) <= 1 {
        return (a(), b());
    }
    std::thread::scope(|scope| {
        let hb = scope.spawn(b);
        let ra = a();
        let rb = hb.join().expect("par_join worker panicked");
        (ra, rb)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let out = par_map((0..100).collect::<Vec<i64>>(), |x| x * x);
        assert_eq!(out, (0..100).map(|x| x * x).collect::<Vec<i64>>());
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        assert_eq!(par_map(Vec::<u32>::new(), |x| x), Vec::<u32>::new());
        assert_eq!(par_map(vec![7u32], |x| x + 1), vec![8]);
    }

    #[test]
    fn worker_count_does_not_change_results() {
        // The LSIM_THREADS=1 and LSIM_THREADS=8 configurations must be
        // indistinguishable from the output alone.
        let items: Vec<u64> = (0..257).collect();
        let g = |x: u64| x.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17);
        let serial = par_map_with_workers(1, items.clone(), g);
        let parallel = par_map_with_workers(8, items, g);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn par_join_returns_both() {
        let (a, b) = par_join(|| 1 + 1, || "two");
        assert_eq!(a, 2);
        assert_eq!(b, "two");
    }
}
