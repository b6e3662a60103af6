//! Work-stealing parallel sweep executor.
//!
//! Every population sweep in this crate — the catalog sweep engine, the
//! ablation battery, the attack-rate sweep — is a set of fully
//! independent jobs (one slice group or one ablation per job). This
//! module runs such a job set on scoped OS threads with a shared atomic
//! job index: each worker repeatedly claims the next unclaimed index
//! (`fetch_add`), so fast jobs never wait behind slow ones and no
//! per-job thread spawn cost is paid.
//!
//! Determinism: results are tagged with their job index and re-assembled
//! in index order after the join, so the output vector is **bit-identical**
//! to a serial `(0..jobs).map(job)` loop regardless of thread count or
//! scheduling. Jobs must therefore be independent (no shared mutable
//! state) — which they are by construction: each builds its own
//! simulators from owned configs and a seeded generator.
//!
//! No external dependencies: `std::thread::scope` + `AtomicUsize` only.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Number of worker threads to use by default: the host's available
/// parallelism, or 1 if it cannot be queried.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Run `jobs` independent fallible jobs on up to `threads` scoped
/// worker threads and return the results in job-index order.
///
/// `job(i)` is called at most once for every `i in 0..jobs`, from some
/// worker thread. With `threads <= 1` (or a single job) the jobs run
/// serially on the calling thread — the parallel and serial paths
/// produce identical output. A job that cannot fail uses
/// [`Infallible`](std::convert::Infallible) as `E` and binds the result
/// with `let Ok(v) = …`.
///
/// The sweep **short-circuits** on the first failure: workers stop
/// claiming new jobs once any job has erred, so a cancelled or poisoned
/// sweep does not burn the remaining cores on doomed work. On failure
/// the error with the lowest job index among those actually observed is
/// returned (with `threads <= 1` that is exactly the first failing
/// index; with more threads a later job may fail first and suppress
/// earlier indices that were never claimed).
///
/// # Panics
/// If a job panics, the panic is propagated to the caller after the
/// remaining workers finish their current jobs (scoped threads are
/// always joined).
pub fn run_indexed_result<T, E, F>(jobs: usize, threads: usize, job: F) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
    F: Fn(usize) -> Result<T, E> + Sync,
{
    if jobs == 0 {
        return Ok(Vec::new());
    }
    let threads = threads.max(1).min(jobs);
    if threads == 1 {
        let mut out = Vec::with_capacity(jobs);
        for i in 0..jobs {
            out.push(job(i)?);
        }
        return Ok(out);
    }

    let next = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let per_thread: Vec<Vec<(usize, Result<T, E>)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut claimed = Vec::new();
                    while !failed.load(Ordering::Relaxed) {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= jobs {
                            break;
                        }
                        let r = job(i);
                        if r.is_err() {
                            failed.store(true, Ordering::Relaxed);
                        }
                        claimed.push((i, r));
                    }
                    claimed
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(v) => v,
                Err(p) => std::panic::resume_unwind(p),
            })
            .collect()
    });

    let mut slots: Vec<Option<T>> = Vec::with_capacity(jobs);
    slots.resize_with(jobs, || None);
    let mut first_err: Option<(usize, E)> = None;
    for (i, r) in per_thread.into_iter().flatten() {
        match r {
            Ok(v) => slots[i] = Some(v),
            Err(e) => {
                if first_err.as_ref().is_none_or(|(j, _)| i < *j) {
                    first_err = Some((i, e));
                }
            }
        }
    }
    if let Some((_, e)) = first_err {
        return Err(e);
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(i, v)| match v {
            Some(v) => Ok(v),
            // Every index was claimed exactly once and none erred, so
            // every slot is filled; reaching here means the executor
            // itself broke.
            #[allow(clippy::panic)]
            None => panic!("sweep executor lost the result of job {i}"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// A job set that never fails.
    fn infallible<T: Send>(jobs: usize, threads: usize, job: impl Fn(usize) -> T + Sync) -> Vec<T> {
        let Ok(out) =
            run_indexed_result::<_, std::convert::Infallible, _>(jobs, threads, |i| Ok(job(i)));
        out
    }

    #[test]
    fn results_come_back_in_index_order() {
        for threads in [1, 2, 3, 8, 64] {
            let out = infallible(100, threads, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let calls = AtomicU64::new(0);
        let out = infallible(257, 8, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(calls.load(Ordering::Relaxed), 257);
        assert_eq!(out, (0..257).collect::<Vec<_>>());
    }

    #[test]
    fn more_threads_than_jobs() {
        let out = infallible(3, 16, |i| i + 1);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "job 7 panicked")]
    fn job_panics_propagate() {
        let _ = infallible(16, 4, |i| {
            if i == 7 {
                panic!("job 7 panicked");
            }
            i
        });
    }

    #[test]
    fn default_threads_is_at_least_one() {
        assert!(default_threads() >= 1);
    }

    fn boom(i: usize) -> exynos_core::SimError {
        exynos_core::SimError::Config { param: "test.job", detail: format!("job {i} failed") }
    }

    #[test]
    fn result_sweep_serial_returns_first_error_and_short_circuits() {
        let calls = AtomicU64::new(0);
        let err = run_indexed_result(100, 1, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            if i >= 7 { Err(boom(i)) } else { Ok(i) }
        })
        .unwrap_err();
        assert!(format!("{err}").contains("job 7 failed"), "got {err}");
        assert_eq!(calls.load(Ordering::Relaxed), 8, "jobs after the failure must not run");
    }

    #[test]
    fn result_sweep_parallel_stops_claiming_after_a_failure() {
        let calls = AtomicU64::new(0);
        let err = run_indexed_result(10_000, 4, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            if i == 3 { Err(boom(i)) } else { Ok(i) }
        })
        .unwrap_err();
        assert!(matches!(err, exynos_core::SimError::Config { .. }), "got {err}");
        assert!(
            calls.load(Ordering::Relaxed) < 10_000,
            "workers kept claiming jobs after the sweep failed"
        );
    }

    #[test]
    fn result_sweep_empty_job_set() {
        let out: Vec<u32> = infallible(0, 8, |_| unreachable!());
        assert!(out.is_empty());
    }
}
