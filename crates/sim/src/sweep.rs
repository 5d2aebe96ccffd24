//! The parallel deterministic sweep engine.
//!
//! Benchmark campaigns are grids of *independent* machine configurations —
//! engine × vCPU count × seed × fault plan. Every cell constructs its own
//! [`Machine`](crate) from scratch, so cells share no mutable state and can
//! run on separate host threads. This module fans a grid out across a
//! bounded worker pool and merges the results **in grid order**, so the
//! merged output is a pure function of the grid alone:
//!
//! * `jobs = 1` and `jobs = N` produce identical result vectors (and hence
//!   byte-identical JSON reports downstream);
//! * worker completion order — which depends on host scheduling — never
//!   leaks into the merge (cells are stored by index, not by arrival).
//!
//! The worker count comes from `--jobs` on every bench binary, falling
//! back to the host's available parallelism (see [`resolve_jobs`]).
//!
//! # Examples
//!
//! ```
//! use svt_sim::sweep;
//!
//! // Square the grid indices on 4 workers; merge order is grid order.
//! let out = sweep(8, 4, |i| i * i);
//! assert_eq!(out, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! assert_eq!(out, sweep(8, 1, |i| i * i));
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// The host's available parallelism (at least 1).
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Resolves the worker count for a sweep: an explicit request (`--jobs`)
/// wins, else the host's available parallelism. An explicit zero also
/// falls back to the host (the bench binaries refuse `--jobs 0` before
/// it gets here); the result is always at least 1.
///
/// # Examples
///
/// ```
/// use svt_sim::resolve_jobs;
///
/// assert_eq!(resolve_jobs(Some(3)), 3);
/// assert!(resolve_jobs(None) >= 1);
/// ```
pub fn resolve_jobs(explicit: Option<usize>) -> usize {
    explicit.filter(|&n| n > 0).unwrap_or_else(host_parallelism)
}

/// [`resolve_jobs`] clamped to the grid's cell count: a sweep can never
/// use more workers than it has cells, so benches measuring a narrow grid
/// (e.g. the 3-cell smp series) report the parallelism they actually got
/// instead of an oversubscribed worker count that dilutes wall-clock
/// "speedups" below 1.0. The result is always at least 1, even for an
/// empty grid.
///
/// # Examples
///
/// ```
/// use svt_sim::resolve_jobs_for;
///
/// assert_eq!(resolve_jobs_for(Some(8), 3), 3);
/// assert_eq!(resolve_jobs_for(Some(2), 5), 2);
/// assert_eq!(resolve_jobs_for(Some(4), 0), 1);
/// ```
pub fn resolve_jobs_for(explicit: Option<usize>, cells: usize) -> usize {
    resolve_jobs(explicit).min(cells.max(1))
}

/// Runs `f(0..n)` across at most `jobs` worker threads and returns the
/// results **in index order**, regardless of which worker finished first.
///
/// `f` must be a pure function of its index (each bench cell constructs
/// its own machine from the grid coordinates), which is what makes the
/// output independent of the worker count: the engine guarantees only
/// that *merge order* is grid order.
///
/// `jobs <= 1` runs inline on the calling thread with no pool at all, so
/// single-job runs are also free of thread-spawn overhead.
pub fn sweep<T, F>(n: usize, jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let jobs = jobs.max(1).min(n);
    if jobs == 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, T)>();
    std::thread::scope(|s| {
        for _ in 0..jobs {
            let tx = tx.clone();
            let next = &next;
            let f = &f;
            s.spawn(move || {
                // Work-stealing by atomic claim: idle workers immediately
                // pick up the next unclaimed cell, so an uneven grid never
                // leaves a worker stalled behind a long cell.
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    // A send can only fail if the receiver was dropped,
                    // which cannot happen while the scope is alive.
                    let _ = tx.send((i, f(i)));
                }
            });
        }
    });
    drop(tx);
    // Deterministic merge: place each cell by its grid index. Arrival order
    // (worker completion order) is discarded here by construction.
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for (i, v) in rx {
        debug_assert!(slots[i].is_none(), "cell {i} computed twice");
        slots[i] = Some(v);
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(i, v)| v.unwrap_or_else(|| panic!("sweep cell {i} never completed")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DetRng;

    #[test]
    fn empty_grid_yields_empty_vec() {
        let out: Vec<u32> = sweep(0, 4, |_| unreachable!("no cells"));
        assert!(out.is_empty());
    }

    #[test]
    fn single_job_runs_inline() {
        let out = sweep(5, 1, |i| i + 10);
        assert_eq!(out, vec![10, 11, 12, 13, 14]);
    }

    #[test]
    fn jobs_above_grid_size_are_clamped() {
        let out = sweep(3, 64, |i| i * 2);
        assert_eq!(out, vec![0, 2, 4]);
    }

    #[test]
    fn merge_order_is_grid_order_even_when_later_cells_finish_first() {
        // Earlier cells sleep longer, so on a multi-worker pool the last
        // cells complete first; the merge must still be in grid order.
        let n = 8;
        let out = sweep(n, 4, |i| {
            std::thread::sleep(std::time::Duration::from_millis(((n - i) * 3) as u64));
            i
        });
        assert_eq!(out, (0..n).collect::<Vec<_>>());
    }

    /// Property: for random grids, random worker counts and random
    /// per-cell delays (a stand-in for uneven cell cost), the merged
    /// output always equals the sequential output. Randomness comes from
    /// the in-tree deterministic PRNG so failures replay exactly.
    #[test]
    fn merge_is_independent_of_completion_order_property() {
        let mut rng = DetRng::seed(0x5EE9_0001);
        for _ in 0..12 {
            let n = rng.range(1, 24) as usize;
            let jobs = rng.range(1, 9) as usize;
            let delays: Vec<u64> = (0..n).map(|_| rng.below(4)).collect();
            let expect: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(0x9e37)).collect();
            let out = sweep(n, jobs, |i| {
                std::thread::sleep(std::time::Duration::from_millis(delays[i]));
                (i as u64).wrapping_mul(0x9e37)
            });
            assert_eq!(out, expect, "n={n} jobs={jobs}");
        }
    }

    #[test]
    fn resolve_jobs_prefers_explicit_then_host() {
        assert_eq!(resolve_jobs(Some(7)), 7);
        assert_eq!(resolve_jobs(None), host_parallelism());
        // Zero is not a valid worker count; fall back to the host.
        assert_eq!(resolve_jobs(Some(0)), host_parallelism());
    }

    #[test]
    fn host_parallelism_is_positive() {
        assert!(host_parallelism() >= 1);
    }

    #[test]
    fn resolve_jobs_for_clamps_to_cell_count() {
        assert_eq!(resolve_jobs_for(Some(64), 3), 3);
        assert_eq!(resolve_jobs_for(Some(2), 64), 2);
        // An empty or single-cell grid still gets one worker.
        assert_eq!(resolve_jobs_for(Some(8), 0), 1);
        assert_eq!(resolve_jobs_for(Some(8), 1), 1);
        // The default sources are clamped too.
        assert!(resolve_jobs_for(None, 2) <= 2);
    }
}
