//! Parallel replay runner: fans independent simulations out over scoped
//! worker threads.
//!
//! Every experiment configuration in this harness is a self-contained
//! [`ofc_simtime::Sim`] — the `Rc`-based testbed is built *inside* the
//! worker and only plain `Send` results cross the thread boundary — so
//! replay campaigns parallelize perfectly with no shared state. Results
//! come back in submission order, which keeps the emitted figure JSON
//! byte-identical to a serial run regardless of worker count or
//! scheduling: determinism lives in the per-sim seeds, not in the order
//! work happens to finish.
//!
//! `OFC_BENCH_THREADS` pins the worker count (`1` forces the serial
//! in-line path); the default is the machine's available parallelism.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Worker count for [`run_jobs`]: `OFC_BENCH_THREADS` when set and
/// parseable, otherwise the machine's available parallelism (1 when even
/// that is unknown).
pub fn threads() -> usize {
    std::env::var("OFC_BENCH_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
}

/// Runs every job and returns their results in submission order, fanning
/// out over [`threads`] scoped workers.
///
/// Jobs may borrow from the caller, but only what is safe to share
/// across workers; the `Send` bound makes the compiler enforce that.
/// Sharing an atomic ticket and per-job `Mutex` slots compiles:
///
/// ```
/// use ofc_bench::par::run_jobs;
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// use std::sync::Mutex;
///
/// let next = AtomicUsize::new(0);
/// let slots: Vec<Mutex<Option<usize>>> = (0..4).map(|_| Mutex::new(None)).collect();
/// let jobs: Vec<_> = (0..4)
///     .map(|i| {
///         let (next, slots) = (&next, &slots);
///         move || {
///             let t = next.fetch_add(1, Ordering::Relaxed);
///             *slots[i].lock().unwrap() = Some(t);
///             i * 10
///         }
///     })
///     .collect();
/// assert_eq!(run_jobs(jobs), vec![0, 10, 20, 30]);
/// assert!(slots.iter().all(|s| s.lock().unwrap().is_some()));
/// ```
///
/// A job that captures the caller's `RefCell` does not (`&RefCell` is not
/// `Send`):
///
/// ```compile_fail,E0277
/// use std::cell::RefCell;
///
/// let shared = RefCell::new(Vec::new());
/// ofc_bench::par::run_jobs(vec![|| shared.borrow_mut().push(1)]);
/// ```
///
/// Nor does one that captures an `Rc` or a `Cell`:
///
/// ```compile_fail,E0277
/// use std::cell::Cell;
/// use std::rc::Rc;
///
/// let testbed = Rc::new(Cell::new(0u64));
/// ofc_bench::par::run_jobs(vec![move || testbed.set(1)]);
/// ```
///
/// Two jobs that take `&mut` to one accumulator are rejected too:
///
/// ```compile_fail,E0499
/// let mut acc = Vec::new();
/// let jobs: Vec<Box<dyn FnOnce() + Send + '_>> =
///     vec![Box::new(|| acc.push(1)), Box::new(|| acc.push(2))];
/// ofc_bench::par::run_jobs(jobs);
/// ```
pub fn run_jobs<T, F>(jobs: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    run_jobs_on(threads(), jobs)
}

/// [`run_jobs`] with an explicit worker count. `threads <= 1` (or a
/// single job) degrades to a plain serial loop on the calling thread.
pub fn run_jobs_on<T, F>(threads: usize, jobs: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    if threads <= 1 || jobs.len() <= 1 {
        return jobs.into_iter().map(|job| job()).collect();
    }
    let next = AtomicUsize::new(0);
    // Each job is claimed exactly once (by the atomic ticket) and each
    // slot written exactly once; the mutexes only satisfy `Sync`.
    let jobs: Vec<Mutex<Option<F>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let slots: Vec<Mutex<Option<T>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads.min(jobs.len()) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= jobs.len() {
                    break;
                }
                let Some(job) = jobs[i].lock().ok().and_then(|mut j| j.take()) else {
                    // ofc-lint: allow(panic) reason=a claimed ticket is handed out once; a missing job means runner-internal corruption
                    unreachable!("job {i} claimed twice");
                };
                let out = job();
                if let Ok(mut slot) = slots[i].lock() {
                    *slot = Some(out);
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            let out = slot.into_inner().ok().flatten();
            // ofc-lint: allow(panic) reason=the scope joins every worker, so each slot was filled (a worker panic propagates before this point)
            out.expect("worker filled every result slot")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_submission_order() {
        let jobs: Vec<_> = (0..32).map(|i| move || i * 10).collect();
        let out = run_jobs_on(4, jobs);
        assert_eq!(out, (0..32).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn serial_path_matches_parallel_path() {
        let mk = || (0..17).map(|i| move || format!("r{i}")).collect::<Vec<_>>();
        assert_eq!(run_jobs_on(1, mk()), run_jobs_on(8, mk()));
    }

    #[test]
    fn more_workers_than_jobs_is_fine() {
        assert_eq!(run_jobs_on(16, vec![|| 1, || 2]), vec![1, 2]);
    }

    #[test]
    fn empty_job_list_yields_empty_results() {
        let out: Vec<u64> = run_jobs_on(4, Vec::<fn() -> u64>::new());
        assert!(out.is_empty());
    }

    #[test]
    fn boxed_heterogeneous_closures_run() {
        let a = 7u64;
        let jobs: Vec<Box<dyn FnOnce() -> u64 + Send>> = vec![Box::new(move || a), Box::new(|| 35)];
        assert_eq!(run_jobs_on(2, jobs).iter().sum::<u64>(), 42);
    }
}
