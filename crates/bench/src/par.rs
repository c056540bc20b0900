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

/// Default for [`min_par_sims`]: bins with fewer sims than this run
/// serially. Thread spawn/join overhead on a 2–3 sim bin costs more than
/// the parallelism recovers (the fig10 bin measured 0.94× with workers).
pub const DEFAULT_MIN_PAR_SIMS: usize = 4;

/// Minimum job count for the parallel path, `OFC_BENCH_MIN_PAR_SIMS`
/// overriding [`DEFAULT_MIN_PAR_SIMS`]. `0`/`1` make every multi-job bin
/// parallel again.
pub fn min_par_sims() -> usize {
    std::env::var("OFC_BENCH_MIN_PAR_SIMS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_MIN_PAR_SIMS)
}

/// Runs every job and returns their results in submission order, fanning
/// out over [`threads`] scoped workers — unless the bin is smaller than
/// [`min_par_sims`], in which case it runs serially on the caller.
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
    let workers = if jobs.len() < min_par_sims() {
        1
    } else {
        threads()
    };
    run_jobs_on(workers, jobs)
}

/// [`run_jobs`] with a cost estimate per job: tickets are claimed in
/// descending estimated cost, so the widest sims start first and the bin's
/// wall clock is not hostage to a big job landing last on a busy worker
/// (the record-9 `macro24` row measured 0.93x with the two 3-tenant
/// contended sims submitted — and therefore claimed — last). Results
/// still come back in submission order, so emitted JSON is unchanged.
pub fn run_jobs_costed<T, F>(jobs: Vec<(f64, F)>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let workers = if jobs.len() < min_par_sims() {
        1
    } else {
        threads()
    };
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    // Descending cost; submission order breaks ties (total order — cost
    // estimates are plain finite numbers).
    order.sort_by(|&a, &b| jobs[b].0.total_cmp(&jobs[a].0).then(a.cmp(&b)));
    dispatch(workers, jobs.into_iter().map(|(_, j)| j).collect(), order)
}

/// [`run_jobs`] with an explicit worker count. `threads <= 1` (or a
/// single job) degrades to a plain serial loop on the calling thread.
pub fn run_jobs_on<T, F>(threads: usize, jobs: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let order: Vec<usize> = (0..jobs.len()).collect();
    dispatch(threads, jobs, order)
}

/// Shared fan-out core: ticket `t` claims job `order[t]`; results land in
/// slot `order[t]`, so the returned Vec is in submission order whatever
/// the claim order.
fn dispatch<T, F>(threads: usize, jobs: Vec<F>, order: Vec<usize>) -> Vec<T>
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
    let order = &order;
    std::thread::scope(|scope| {
        for _ in 0..threads.min(jobs.len()) {
            scope.spawn(|| loop {
                let t = next.fetch_add(1, Ordering::Relaxed);
                if t >= jobs.len() {
                    break;
                }
                let i = order[t];
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
    fn small_bins_fall_back_to_serial() {
        // Below the threshold run_jobs picks 1 worker; the result must
        // still match a forced-parallel run of the same jobs.
        let mk = |n: usize| (0..n).map(|i| move || i * 3).collect::<Vec<_>>();
        let small = DEFAULT_MIN_PAR_SIMS - 1;
        assert_eq!(run_jobs(mk(small)), run_jobs_on(8, mk(small)));
        assert_eq!(
            run_jobs(mk(DEFAULT_MIN_PAR_SIMS + 2)).len(),
            DEFAULT_MIN_PAR_SIMS + 2
        );
    }

    #[test]
    fn costed_claiming_preserves_submission_order() {
        // Costs deliberately ascending: claim order is reversed, results
        // must still come back in submission order.
        let jobs: Vec<(f64, _)> = (0..23).map(|i| (i as f64, move || i * 7)).collect();
        let out = run_jobs_costed(jobs);
        assert_eq!(out, (0..23).map(|i| i * 7).collect::<Vec<_>>());
    }

    #[test]
    fn costed_and_plain_runners_agree() {
        let mk = || {
            (0..9)
                .map(|i| ((9 - i) as f64, move || format!("j{i}")))
                .collect::<Vec<_>>()
        };
        let plain: Vec<String> = run_jobs_on(4, mk().into_iter().map(|(_, j)| j).collect());
        assert_eq!(run_jobs_costed(mk()), plain);
    }

    #[test]
    fn boxed_heterogeneous_closures_run() {
        let a = 7u64;
        let jobs: Vec<Box<dyn FnOnce() -> u64 + Send>> = vec![Box::new(move || a), Box::new(|| 35)];
        assert_eq!(run_jobs_on(2, jobs).iter().sum::<u64>(), 42);
    }
}
