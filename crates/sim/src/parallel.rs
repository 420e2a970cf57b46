//! Deterministic data parallelism.
//!
//! The event loop itself stays single-threaded (see the crate docs), but two
//! surrounding stages are embarrassingly parallel: synthesizing independent
//! slices of the population before a run, and analyzing independent campaigns
//! after one. This module provides the one scoped worker pool both need —
//! [`parallel_owned`], with [`parallel_map`] over borrowed items and
//! [`split_spans`] for jobs that each write their own region of a buffer —
//! plus the [`Exec`] policy that selects between a sequential loop and the
//! pool.
//!
//! ## Determinism contract
//!
//! `parallel_map(exec, items, f)` returns exactly `items.iter().map(f)` in
//! item order, for every `exec`, and `parallel_owned` likewise for owned
//! jobs. Jobs are dealt to workers by index before any worker starts and
//! every result is put back at its job's index, so scheduling affects only
//! wall-clock time, never content or order. Combined with
//! [`Rng::split`](crate::rng::Rng::split) — which derives a child stream from
//! an index without mutating the parent — callers get bit-identical output
//! from sequential and parallel runs: randomness flows from indices, results
//! from job order, and neither observes thread interleaving.

use likelab_obs::metrics;
use std::num::NonZeroUsize;

/// Environment variable overriding the worker count picked by [`Exec::auto`].
pub const THREADS_ENV: &str = "LIKELAB_THREADS";

/// Jobs [`Exec::job_count`] cuts per worker: a few per worker even out
/// the load without much per-job overhead.
const JOBS_PER_WORKER: usize = 4;

/// Execution policy for [`parallel_owned`] and [`parallel_map`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Exec {
    /// Run in the calling thread, in item order.
    Sequential,
    /// Fan out across `workers` scoped threads (clamped to at least 1).
    Parallel {
        /// Number of worker threads to spawn.
        workers: usize,
    },
}

impl Exec {
    /// Parallel with a worker per available core, unless the `LIKELAB_THREADS`
    /// environment variable overrides the count (`LIKELAB_THREADS=1` forces
    /// sequential execution).
    pub fn auto() -> Exec {
        let workers = std::env::var(THREADS_ENV)
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|n| *n > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get));
        if workers <= 1 {
            Exec::Sequential
        } else {
            Exec::Parallel { workers }
        }
    }

    /// Parallel with exactly `workers` threads (`0` or `1` mean sequential).
    pub fn workers(workers: usize) -> Exec {
        if workers <= 1 {
            Exec::Sequential
        } else {
            Exec::Parallel { workers }
        }
    }

    /// How many threads [`parallel_owned`] will use under this policy.
    pub fn worker_count(&self) -> usize {
        match self {
            Exec::Sequential => 1,
            Exec::Parallel { workers } => (*workers).max(1),
        }
    }

    /// How many jobs to cut a divisible task into: a few per worker to
    /// even out the load, or one when a single thread runs them all.
    pub fn job_count(&self) -> usize {
        match self.worker_count() {
            1 => 1,
            workers => workers * JOBS_PER_WORKER,
        }
    }
}

/// Map `f` over `items`, preserving item order in the result.
///
/// [`parallel_owned`] over the items' references: the returned `Vec` is
/// identical under every `exec` (see the module docs for the determinism
/// contract). `f` receives the item index alongside the item so callers
/// can derive per-item RNG streams from it.
///
/// A panic in `f` propagates to the caller once all workers have stopped.
///
/// ```
/// use likelab_sim::{parallel_map, Exec, Rng};
///
/// let parent = Rng::seed_from_u64(7);
/// let items: Vec<u64> = (0..32).collect();
/// // Each item draws from its own index-split stream, so the output is
/// // the same for any worker count:
/// let draw = |i: usize, x: &u64| parent.split(i as u64).next_u64() ^ x;
/// let sequential = parallel_map(Exec::Sequential, &items, draw);
/// let parallel = parallel_map(Exec::workers(4), &items, draw);
/// assert_eq!(sequential, parallel);
/// ```
pub fn parallel_map<T, U, F>(exec: Exec, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    parallel_owned(exec, items, f)
}

/// Run independent jobs, returning their results in job order.
///
/// Convenience wrapper over [`parallel_map`] for heterogeneous work that has
/// been erased into same-typed closures (e.g. report sections).
pub fn parallel_jobs<U, F>(exec: Exec, jobs: Vec<F>) -> Vec<U>
where
    U: Send,
    F: Fn() -> U + Sync,
{
    parallel_map(exec, &jobs, |_, job| job())
}

/// Map `f` over `jobs`, preserving job order in the result.
///
/// Under [`Exec::Sequential`] this is a plain loop. Under
/// [`Exec::Parallel`] the jobs are dealt round robin (worker `w` runs jobs
/// `w`, `w + workers`, …) before any worker starts, so handing them out
/// takes no lock and no shared queue, and the results are put back in job
/// order. A job may own exclusive state, such as a disjoint `&mut` span
/// cut by [`split_spans`], or borrow shared state, as [`parallel_map`]'s
/// do. Callers cut more jobs than workers to even out the load
/// ([`Exec::job_count`]).
///
/// A panic in `f` propagates to the caller once all workers have stopped.
pub fn parallel_owned<J, U, F>(exec: Exec, jobs: impl IntoIterator<Item = J>, f: F) -> Vec<U>
where
    J: Send,
    U: Send,
    F: Fn(usize, J) -> U + Sync,
{
    let _map_span = likelab_obs::span::enter("parallel.map");
    // Per-job clock reads are gated on one flag check so the disabled cost
    // of instrumentation stays a single relaxed atomic load per call.
    let obs = likelab_obs::enabled();
    let start_ns = if obs { likelab_obs::now_ns() } else { 0 };
    let run = |i: usize, job: J| {
        if obs {
            timed_job(start_ns, || f(i, job))
        } else {
            (f(i, job), 0)
        }
    };
    let workers = exec.worker_count();
    if workers <= 1 {
        return jobs
            .into_iter()
            .enumerate()
            .map(|(i, job)| run(i, job).0)
            .collect();
    }
    let mut hands: Vec<Vec<(usize, J)>> = (0..workers).map(|_| Vec::new()).collect();
    for (i, job) in jobs.into_iter().enumerate() {
        hands[i % workers].push((i, job)); // lint:allow(panic-reachable-from-serve): i % workers < workers = hands.len()
    }
    hands.retain(|hand| !hand.is_empty());
    if hands.len() <= 1 {
        // A lone job runs here rather than on a thread of its own.
        return hands
            .into_iter()
            .flatten()
            .map(|(i, job)| run(i, job).0)
            .collect();
    }
    let run = &run;
    let mut done: Vec<(usize, U)> = std::thread::scope(|scope| {
        let handles: Vec<_> = hands
            .into_iter()
            .map(|hand| {
                scope.spawn(move || {
                    let mut busy_ns = 0u64;
                    let out: Vec<(usize, U)> = hand
                        .into_iter()
                        .map(|(i, job)| {
                            let (value, spent) = run(i, job);
                            busy_ns += spent;
                            (i, value)
                        })
                        .collect();
                    if obs {
                        // One sample per worker per map: the spread of this
                        // histogram is the pool's load imbalance, and
                        // busy / parallel.map wall time is worker
                        // utilization.
                        metrics::record_ns("parallel.worker.busy_ns", busy_ns);
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, value)| value).collect()
}

/// Run one job under the clock, recording queue delay (start time minus
/// `map_start_ns`), execution time, and a completion count. Only called
/// when observability is enabled.
fn timed_job<U>(map_start_ns: u64, job: impl FnOnce() -> U) -> (U, u64) {
    let claimed_ns = likelab_obs::now_ns();
    metrics::record_ns(
        "parallel.job.queue_ns",
        claimed_ns.saturating_sub(map_start_ns),
    );
    let value = job();
    let exec_ns = likelab_obs::now_ns().saturating_sub(claimed_ns);
    metrics::record_ns("parallel.job.ns", exec_ns);
    metrics::counter("parallel.jobs.completed", 1);
    (value, exec_ns)
}

/// Cut `data` into consecutive disjoint spans of the given lengths, in
/// order — the exclusive regions [`parallel_owned`] jobs write.
///
/// # Panics
/// Panics, when it gets there, if the lengths add up to more than
/// `data.len()`.
pub fn split_spans<T, L>(data: &mut [T], lens: L) -> impl Iterator<Item = &mut [T]>
where
    L: IntoIterator<Item = usize>,
{
    let mut rest = data;
    lens.into_iter().map(move |len| {
        let (span, tail) = std::mem::take(&mut rest).split_at_mut(len);
        rest = tail;
        span
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_and_parallel_agree() {
        let items: Vec<u64> = (0..257).collect();
        let f = |i: usize, x: &u64| (i as u64).wrapping_mul(31) ^ (x * x);
        let seq = parallel_map(Exec::Sequential, &items, f);
        for workers in [2, 3, 8, 64] {
            let par = parallel_map(Exec::workers(workers), &items, f);
            assert_eq!(seq, par, "workers={workers}");
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        let none: Vec<u32> = vec![];
        assert_eq!(parallel_map(Exec::workers(4), &none, |_, x| *x), vec![]);
        assert_eq!(
            parallel_map(Exec::workers(4), &[7u32], |_, x| x + 1),
            vec![8]
        );
    }

    #[test]
    fn exec_workers_clamps_to_sequential() {
        assert_eq!(Exec::workers(0), Exec::Sequential);
        assert_eq!(Exec::workers(1), Exec::Sequential);
        assert_eq!(Exec::workers(5), Exec::Parallel { workers: 5 });
        assert_eq!(Exec::Sequential.worker_count(), 1);
        assert_eq!(Exec::Parallel { workers: 3 }.worker_count(), 3);
    }

    #[test]
    fn job_count_is_one_without_workers() {
        assert_eq!(Exec::Sequential.job_count(), 1);
        assert_eq!(Exec::workers(3).job_count(), 3 * JOBS_PER_WORKER);
    }

    #[test]
    fn parallel_jobs_preserves_job_order() {
        let jobs: Vec<Box<dyn Fn() -> usize + Sync + Send>> =
            (0..16usize).map(|i| Box::new(move || i * i) as _).collect();
        let out = parallel_jobs(Exec::workers(4), jobs);
        assert_eq!(out, (0..16).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn owned_jobs_write_disjoint_spans_in_any_worker_count() {
        let lens = [3usize, 0, 5, 1, 7, 2];
        for workers in [1, 2, 3, 8] {
            let mut data = vec![0u32; lens.iter().sum()];
            let spans = split_spans(&mut data, lens);
            let sums = parallel_owned(Exec::workers(workers), spans, |i, span| {
                span.fill(i as u32);
                span.len() * i
            });
            assert_eq!(sums, vec![0, 0, 10, 3, 28, 10], "workers={workers}");
            assert_eq!(
                data,
                [0, 0, 0, 2, 2, 2, 2, 2, 3, 4, 4, 4, 4, 4, 4, 4, 5, 5],
                "workers={workers}"
            );
        }
        let none = split_spans(&mut [0u8; 0], []);
        assert!(parallel_owned(Exec::workers(4), none, |_, s| s.len()).is_empty());
    }

    #[test]
    #[should_panic]
    fn split_spans_refuses_lengths_past_the_end() {
        split_spans(&mut [0u8; 3], [2, 2]).for_each(drop);
    }

    #[test]
    fn split_streams_match_across_worker_counts() {
        // The cross-thread determinism story end to end: per-index streams
        // drawn inside parallel_map are identical for any worker count.
        let parent = crate::Rng::seed_from_u64(99);
        let items: Vec<u64> = (0..64).collect();
        let draw = |i: usize, _: &u64| {
            let mut stream = parent.split(i as u64);
            (0..8)
                .map(|_| stream.next_u64())
                .fold(0u64, u64::wrapping_add)
        };
        let seq = parallel_map(Exec::Sequential, &items, draw);
        let par = parallel_map(Exec::workers(7), &items, draw);
        assert_eq!(seq, par);
    }
}
