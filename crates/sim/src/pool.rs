//! Scoped worker pool for fanning independent simulation jobs across cores,
//! with per-job deadlines, bounded retry and quarantine.
//!
//! The paper's evaluation is a grid of independent simulations (per-workload,
//! per-scheme, per-load cells); this module runs such a grid on `N` worker
//! threads while keeping the results *deterministic*: every job is
//! self-contained, seeded only from `(base_seed, job_index)` via
//! [`job_seed`], and results are returned in job-index order regardless of
//! which worker ran which job or in what order they finished. Running the
//! same grid with 1 worker or 16 therefore produces byte-identical output.
//!
//! Failure containment is layered ([`RetryPolicy`]):
//!
//! * a panicking attempt is caught on the worker and never aborts the
//!   harness;
//! * when a wall-clock deadline is set, a supervisor thread fires the
//!   attempt's [`CancelToken`] once the deadline passes — the simulation
//!   loop polls it and winds down cleanly, and any value a cancelled
//!   attempt still returned is discarded as partial;
//! * failed attempts are retried with exponential backoff up to the retry
//!   budget; a cell that keeps failing is *quarantined*: its slot reports a
//!   typed [`SimError::JobPanicked`] / [`SimError::JobTimeout`] naming the
//!   cell, its config hash and the attempt count, while sibling jobs run to
//!   completion unaffected.
//!
//! Timeouts and retries only ever affect the failure path: a successful
//! grid's output never depends on wall-clock behaviour, so determinism
//! guarantees are preserved.
//!
//! Built on `std::thread::scope` only — no external thread-pool crates, so
//! the workspace builds offline.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::cancel::CancelToken;
use crate::error::SimError;
use crate::rng::splitmix64;

/// Domain-separation salt for [`job_seed`], so job streams never collide
/// with component streams split from the same master seed.
const JOB_SEED_SALT: u64 = 0x6a6f_625f_7365_6564; // "job_seed"

/// Deterministic per-job seed derived from `(base_seed, job_index)`.
///
/// The derivation is a SplitMix64 finalizer chain (the same construction as
/// [`crate::rng::SimRng::split`]) under a dedicated salt, so:
///
/// * the same `(base_seed, job_index)` always yields the same seed,
///   independent of worker count and scheduling order, and
/// * seeds of neighbouring indices are statistically independent.
#[must_use]
pub fn job_seed(base_seed: u64, job_index: u64) -> u64 {
    splitmix64(base_seed ^ splitmix64(job_index ^ JOB_SEED_SALT))
}

/// Per-attempt context handed to a job closure: its cancellation token (the
/// same one the deadline supervisor fires) and the 0-based attempt number.
#[derive(Debug, Clone)]
pub struct JobCtx {
    /// Cancellation token of this attempt. Also installed as the thread's
    /// current token, so simulations built inside the job inherit it.
    pub cancel: CancelToken,
    /// 0 for the first attempt, 1 for the first retry, …
    pub attempt: u32,
}

/// One unit of work for [`run_jobs`]: a label (used in error reports and
/// progress output) plus the closure that produces the job's result.
///
/// The closure is `Fn` (not `FnOnce`) because a timed-out or panicked
/// attempt may be retried; jobs must be re-runnable and — like everything
/// else in the sweep layer — deterministic in their inputs.
pub struct Job<T> {
    label: String,
    config_hash: Option<String>,
    run: Box<dyn Fn(&JobCtx) -> T + Send>,
}

impl<T> Job<T> {
    /// Packages a closure as a labelled job.
    pub fn new(label: impl Into<String>, run: impl Fn() -> T + Send + 'static) -> Self {
        Job {
            label: label.into(),
            config_hash: None,
            run: Box::new(move |_ctx| run()),
        }
    }

    /// Packages a closure that wants its [`JobCtx`] (cancellation-aware
    /// jobs, retry-sensitive test fixtures).
    pub fn with_ctx(label: impl Into<String>, run: impl Fn(&JobCtx) -> T + Send + 'static) -> Self {
        Job {
            label: label.into(),
            config_hash: None,
            run: Box::new(run),
        }
    }

    /// Attaches the cell's content address (journal key); job-level errors
    /// will carry it so a failing configuration can be looked up precisely.
    #[must_use]
    pub fn config_hash(mut self, hash: impl Into<String>) -> Self {
        self.config_hash = Some(hash.into());
        self
    }

    /// The job's label.
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }
}

impl<T> std::fmt::Debug for Job<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job")
            .field("label", &self.label)
            .field("config_hash", &self.config_hash)
            .finish_non_exhaustive()
    }
}

/// Deadline/retry budget for one grid run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Wall-clock deadline per attempt. `None` disables the supervisor.
    pub timeout: Option<Duration>,
    /// Retries after the first failed attempt (0 = fail immediately).
    pub retries: u32,
    /// Backoff before the first retry; doubles per retry.
    pub backoff: Duration,
    /// Upper bound on any single backoff sleep.
    pub backoff_cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            timeout: None,
            retries: 0,
            backoff: Duration::from_millis(100),
            backoff_cap: Duration::from_secs(5),
        }
    }
}

impl RetryPolicy {
    /// The backoff sleep before retry number `retry` (0-based), exponential
    /// with a cap.
    #[must_use]
    pub fn backoff_for(&self, retry: u32) -> Duration {
        let factor = 1u32 << retry.min(16);
        (self.backoff * factor).min(self.backoff_cap)
    }
}

/// How one attempt of one job ended.
enum AttemptOutcome<T> {
    Done(T),
    TimedOut,
    Panicked(String),
}

/// Every critical section below is a single store or take, so the data
/// behind a poisoned pool lock is still valid: recover it rather than let
/// one panic cascade through the workers and the supervisor.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Extracts a printable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `jobs` on up to `workers` threads and returns their results in
/// job-index order (no deadlines, no retries — the historical fast path).
///
/// * `workers` is clamped to `[1, jobs.len()]`; `workers == 1` runs the grid
///   on one spawned thread (the degenerate serial case used for equivalence
///   checks).
/// * A job that panics yields `Err(SimError::JobPanicked { .. })` in its
///   slot; all other jobs run to completion unaffected.
/// * Result order depends only on the order of `jobs`, never on scheduling.
pub fn run_jobs<T: Send>(workers: usize, jobs: Vec<Job<T>>) -> Vec<Result<T, SimError>> {
    run_jobs_supervised(workers, jobs, &RetryPolicy::default(), None)
}

/// Callback observing each job's final outcome as it completes (still on
/// the worker thread). The sweep layer journals successful cells from here
/// so a crash never loses completed work.
pub type ResultObserver<'a, T> = &'a (dyn Fn(usize, &Result<T, SimError>) + Sync);

/// Runs `jobs` under a [`RetryPolicy`]: per-attempt deadlines enforced by a
/// supervisor thread, bounded retry with exponential backoff, quarantine on
/// exhaustion. See [`run_jobs`] for the ordering and isolation contract.
///
/// Classification: an attempt whose cancellation token was fired counts as
/// a *timeout* even if the job also panicked after the deadline (cancelled
/// code is allowed to fail loudly; the cell is reported exactly once, as
/// [`SimError::JobTimeout`]). An attempt that panicked with an unfired
/// token counts as a *panic*. Whichever kind the final attempt was decides
/// the reported error.
pub fn run_jobs_supervised<T: Send>(
    workers: usize,
    jobs: Vec<Job<T>>,
    policy: &RetryPolicy,
    on_result: Option<ResultObserver<'_, T>>,
) -> Vec<Result<T, SimError>> {
    let n = jobs.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, n);
    let next = AtomicUsize::new(0);
    let completed = AtomicUsize::new(0);
    let all_done = AtomicBool::new(false);
    let observer_failed = AtomicBool::new(false);
    let tasks: Vec<Mutex<Option<Job<T>>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let slots: Vec<Mutex<Option<Result<T, SimError>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    // One entry per worker: the start instant and token of the attempt it is
    // currently running, for the supervisor to scan.
    let running: Vec<Mutex<Option<(Instant, CancelToken)>>> =
        (0..workers).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        if let Some(timeout) = policy.timeout {
            let running = &running;
            let all_done = &all_done;
            // Poll often enough that short test deadlines are enforced
            // promptly, but never busier than once a millisecond.
            let poll = (timeout / 20).clamp(Duration::from_millis(1), Duration::from_millis(50));
            scope.spawn(move || {
                while !all_done.load(Ordering::Acquire) {
                    std::thread::sleep(poll);
                    for entry in running {
                        if let Some((start, token)) = &*lock(entry) {
                            if start.elapsed() >= timeout {
                                token.cancel();
                            }
                        }
                    }
                }
            });
        }

        for my_running in running.iter().take(workers) {
            let tasks = &tasks;
            let slots = &slots;
            let next = &next;
            let completed = &completed;
            let all_done = &all_done;
            let observer_failed = &observer_failed;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let job = lock(&tasks[i])
                    .take()
                    .expect("each job is claimed exactly once");
                let outcome = run_with_retries(&job, i, policy, my_running);
                // Store first, then observe, and contain the observer: the
                // result and `all_done` must never depend on a callback (a
                // worker dying here would leave its slot empty and the
                // supervisor polling forever).
                let mut slot = lock(&slots[i]);
                let outcome = slot.insert(outcome);
                if let Some(observer) = on_result {
                    let observed = catch_unwind(AssertUnwindSafe(|| observer(i, outcome)));
                    if let Err(payload) = observed {
                        if !observer_failed.swap(true, Ordering::Relaxed) {
                            eprintln!(
                                "warning: result observer panicked ({}); results are \
                                 unaffected, later cells may not be journaled",
                                panic_message(payload.as_ref())
                            );
                        }
                    }
                }
                drop(slot);
                if completed.fetch_add(1, Ordering::AcqRel) + 1 == n {
                    all_done.store(true, Ordering::Release);
                }
            });
        }
    });

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("every claimed job stores a result")
        })
        .collect()
}

/// One job's attempt loop: run, classify, back off, retry, quarantine.
fn run_with_retries<T>(
    job: &Job<T>,
    index: usize,
    policy: &RetryPolicy,
    running: &Mutex<Option<(Instant, CancelToken)>>,
) -> Result<T, SimError> {
    let mut attempt: u32 = 0;
    loop {
        let outcome = run_one_attempt(job, attempt, running);
        match outcome {
            AttemptOutcome::Done(v) => return Ok(v),
            AttemptOutcome::TimedOut | AttemptOutcome::Panicked(_) if attempt < policy.retries => {
                std::thread::sleep(policy.backoff_for(attempt));
                attempt += 1;
            }
            AttemptOutcome::TimedOut => {
                return Err(SimError::JobTimeout {
                    job: job.label.clone(),
                    index,
                    config_hash: job.config_hash.clone(),
                    timeout_ms: policy
                        .timeout
                        .map_or(0, |t| u64::try_from(t.as_millis()).unwrap_or(u64::MAX)),
                    attempts: attempt + 1,
                });
            }
            AttemptOutcome::Panicked(message) => {
                return Err(SimError::JobPanicked {
                    job: job.label.clone(),
                    index,
                    message,
                    config_hash: job.config_hash.clone(),
                    attempts: attempt + 1,
                });
            }
        }
    }
}

fn run_one_attempt<T>(
    job: &Job<T>,
    attempt: u32,
    running: &Mutex<Option<(Instant, CancelToken)>>,
) -> AttemptOutcome<T> {
    let token = CancelToken::new();
    let ctx = JobCtx {
        cancel: token.clone(),
        attempt,
    };
    *lock(running) = Some((Instant::now(), token.clone()));
    // Install the token as the thread's current one so simulations built
    // inside the job inherit it without explicit plumbing.
    let guard = token.install_current();
    let result = catch_unwind(AssertUnwindSafe(|| (job.run)(&ctx)));
    drop(guard);
    *lock(running) = None;
    // Timeout classification wins over panics: once the supervisor fired
    // the token, the attempt is over-deadline no matter how the cancelled
    // code wound down, and a discarded partial value is never a success.
    let timed_out = token.is_cancelled();
    match (result, timed_out) {
        (Ok(v), false) => AttemptOutcome::Done(v),
        (_, true) => AttemptOutcome::TimedOut,
        (Err(payload), false) => AttemptOutcome::Panicked(panic_message(payload.as_ref())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    #[test]
    fn results_come_back_in_job_order() {
        for workers in [1, 2, 4, 8] {
            let jobs: Vec<Job<usize>> = (0..16)
                .map(|i| Job::new(format!("job-{i}"), move || i * i))
                .collect();
            let out: Vec<usize> = run_jobs(workers, jobs)
                .into_iter()
                .map(|r| r.expect("no job panics"))
                .collect();
            assert_eq!(out, (0..16).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let grid = |workers: usize| -> Vec<u64> {
            let jobs: Vec<Job<u64>> = (0..10)
                .map(|i| {
                    Job::new(format!("cell-{i}"), move || {
                        let mut rng = SimRng::new(job_seed(42, i));
                        (0..100).map(|_| rng.below(1000)).sum()
                    })
                })
                .collect();
            run_jobs(workers, jobs)
                .into_iter()
                .map(|r| r.unwrap())
                .collect()
        };
        let serial = grid(1);
        assert_eq!(serial, grid(4));
        assert_eq!(serial, grid(8));
    }

    #[test]
    fn panicking_job_is_isolated_and_named() {
        let jobs = vec![
            Job::new("healthy-0", || 1u32),
            Job::new("doomed", || panic!("synthetic failure")).config_hash("cafe0000cafe0000"),
            Job::new("healthy-2", || 3u32),
        ];
        let out = run_jobs(2, jobs);
        assert_eq!(out[0], Ok(1));
        assert_eq!(out[2], Ok(3));
        match &out[1] {
            Err(SimError::JobPanicked {
                job,
                index,
                message,
                config_hash,
                attempts,
            }) => {
                assert_eq!(job, "doomed");
                assert_eq!(*index, 1);
                assert!(message.contains("synthetic failure"));
                assert_eq!(config_hash.as_deref(), Some("cafe0000cafe0000"));
                assert_eq!(*attempts, 1);
            }
            other => panic!("expected JobPanicked, got {other:?}"),
        }
    }

    #[test]
    fn empty_grid_is_fine() {
        let out: Vec<Result<u8, _>> = run_jobs(4, Vec::new());
        assert!(out.is_empty());
    }

    #[test]
    fn more_workers_than_jobs_is_fine() {
        let jobs = vec![Job::new("only", || 7u8)];
        let out = run_jobs(64, jobs);
        assert_eq!(out, vec![Ok(7)]);
    }

    #[test]
    fn job_seed_is_stable_and_spread() {
        assert_eq!(job_seed(1, 0), job_seed(1, 0));
        assert_ne!(job_seed(1, 0), job_seed(1, 1));
        assert_ne!(job_seed(1, 0), job_seed(2, 0));
        // Job streams must not collide with component splits of the same seed.
        let mut component = SimRng::new(1).split(0);
        let mut job = SimRng::new(job_seed(1, 0));
        let same = (0..64)
            .filter(|_| component.next_u64() == job.next_u64())
            .count();
        assert!(same < 4);
    }

    /// Busy-waits until the attempt's token fires (a cancellation-aware job
    /// in miniature), then reports whether it was cancelled.
    fn wait_for_cancel(ctx: &JobCtx, limit: Duration) -> bool {
        let start = Instant::now();
        while !ctx.cancel.is_cancelled() {
            if start.elapsed() > limit {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        true
    }

    #[test]
    fn overrunning_job_is_cancelled_and_reported_as_timeout() {
        let policy = RetryPolicy {
            timeout: Some(Duration::from_millis(30)),
            ..RetryPolicy::default()
        };
        let jobs = vec![
            Job::new("fast", || 1u32),
            Job::with_ctx("slow", |ctx| {
                assert!(
                    wait_for_cancel(ctx, Duration::from_secs(10)),
                    "deadline supervisor never fired"
                );
                0u32 // partial value; must be discarded
            })
            .config_hash("00000000000000aa"),
        ];
        let out = run_jobs_supervised(2, jobs, &policy, None);
        assert_eq!(out[0], Ok(1));
        match &out[1] {
            Err(SimError::JobTimeout {
                job,
                index,
                config_hash,
                timeout_ms,
                attempts,
            }) => {
                assert_eq!(job, "slow");
                assert_eq!(*index, 1);
                assert_eq!(config_hash.as_deref(), Some("00000000000000aa"));
                assert_eq!(*timeout_ms, 30);
                assert_eq!(*attempts, 1);
            }
            other => panic!("expected JobTimeout, got {other:?}"),
        }
    }

    #[test]
    fn attempt_token_is_installed_as_thread_current() {
        let jobs = vec![Job::with_ctx("inherit", |ctx| {
            let current = CancelToken::current().expect("worker installs a current token");
            current.same_token(&ctx.cancel)
        })];
        let out = run_jobs(1, jobs);
        assert_eq!(out[0], Ok(true));
        // And it is uninstalled once the pool is done with this thread.
        assert!(CancelToken::current().is_none());
    }

    #[test]
    fn flaky_job_succeeds_after_retry() {
        let policy = RetryPolicy {
            retries: 2,
            backoff: Duration::from_millis(1),
            ..RetryPolicy::default()
        };
        let jobs = vec![Job::with_ctx("flaky", |ctx| {
            assert!(ctx.attempt < 3, "retry budget is bounded");
            if ctx.attempt < 2 {
                panic!("transient failure on attempt {}", ctx.attempt);
            }
            ctx.attempt
        })];
        let out = run_jobs_supervised(1, jobs, &policy, None);
        assert_eq!(out[0], Ok(2), "third attempt (index 2) succeeds");
    }

    #[test]
    fn exhausted_retries_quarantine_with_attempt_count() {
        let policy = RetryPolicy {
            retries: 2,
            backoff: Duration::from_millis(1),
            ..RetryPolicy::default()
        };
        let jobs: Vec<Job<u8>> = vec![Job::new("poisoned", || panic!("always fails"))];
        let out = run_jobs_supervised(1, jobs, &policy, None);
        match &out[0] {
            Err(SimError::JobPanicked { attempts, .. }) => assert_eq!(*attempts, 3),
            other => panic!("expected JobPanicked, got {other:?}"),
        }
    }

    #[test]
    fn panic_after_deadline_is_reported_once_as_timeout() {
        let policy = RetryPolicy {
            timeout: Some(Duration::from_millis(25)),
            ..RetryPolicy::default()
        };
        let jobs = vec![
            Job::with_ctx("doomed-slow", |ctx| -> u32 {
                assert!(
                    wait_for_cancel(ctx, Duration::from_secs(10)),
                    "deadline supervisor never fired"
                );
                panic!("cancelled code failing loudly")
            }),
            Job::new("sibling", || 9u32),
        ];
        let out = run_jobs_supervised(2, jobs, &policy, None);
        // Exactly one error for the doomed cell, classified as a timeout
        // (the panic happened after the deadline fired), sibling untouched.
        let errors: Vec<_> = out.iter().filter(|r| r.is_err()).collect();
        assert_eq!(errors.len(), 1, "one failure reported, not two");
        assert!(matches!(
            out[0],
            Err(SimError::JobTimeout { attempts: 1, .. })
        ));
        assert_eq!(out[1], Ok(9));
    }

    #[test]
    fn timed_out_job_retries_and_can_succeed() {
        let policy = RetryPolicy {
            timeout: Some(Duration::from_millis(30)),
            retries: 1,
            backoff: Duration::from_millis(1),
            ..RetryPolicy::default()
        };
        let jobs = vec![Job::with_ctx("slow-once", |ctx| {
            if ctx.attempt == 0 {
                assert!(
                    wait_for_cancel(ctx, Duration::from_secs(10)),
                    "deadline supervisor never fired"
                );
            }
            ctx.attempt
        })];
        let out = run_jobs_supervised(1, jobs, &policy, None);
        assert_eq!(out[0], Ok(1), "second attempt beats the deadline");
    }

    #[test]
    fn observer_sees_every_result_as_it_completes() {
        let seen = Mutex::new(Vec::new());
        let jobs: Vec<Job<usize>> = (0..6)
            .map(|i| Job::new(format!("cell-{i}"), move || i))
            .collect();
        let observer = |i: usize, r: &Result<usize, SimError>| {
            seen.lock().unwrap().push((i, r.clone()));
        };
        let out = run_jobs_supervised(3, jobs, &RetryPolicy::default(), Some(&observer));
        let mut seen = seen.lock().unwrap().clone();
        seen.sort_by_key(|(i, _)| *i);
        assert_eq!(seen.len(), 6);
        for (i, r) in seen {
            assert_eq!(r, out[i]);
        }
    }

    /// A panicking observer (a poisoned journal lock, say) costs durability,
    /// never results — and under a deadline policy it must not hang the
    /// grid (worker dead, slot empty, supervisor polling forever).
    #[test]
    fn panicking_observer_loses_no_result_and_does_not_hang_the_supervisor() {
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let policy = RetryPolicy {
                timeout: Some(Duration::from_secs(5)),
                ..RetryPolicy::default()
            };
            let jobs: Vec<Job<usize>> = (0..6)
                .map(|i| Job::new(format!("cell-{i}"), move || i))
                .collect();
            let journal = Mutex::new(());
            let observer = |_: usize, _: &Result<usize, SimError>| {
                let _guard = journal.lock().expect("journal lock");
                panic!("observer failure");
            };
            let out = run_jobs_supervised(2, jobs, &policy, Some(&observer));
            let _ = done.send(out);
        });
        let out = finished
            .recv_timeout(Duration::from_secs(10))
            .expect("the grid returns well inside its deadline");
        assert_eq!(out, (0..6).map(Ok).collect::<Vec<_>>());
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let p = RetryPolicy {
            backoff: Duration::from_millis(100),
            backoff_cap: Duration::from_millis(350),
            ..RetryPolicy::default()
        };
        assert_eq!(p.backoff_for(0), Duration::from_millis(100));
        assert_eq!(p.backoff_for(1), Duration::from_millis(200));
        assert_eq!(p.backoff_for(2), Duration::from_millis(350));
        assert_eq!(p.backoff_for(31), Duration::from_millis(350));
    }
}
