//! The parallel sweep engine: a small work-stealing worker pool over an
//! atomic task queue, built from scoped threads only (no runtime deps).
//!
//! Every experiment in this crate is a bag of independent
//! (loop, machine-config) tasks — the 1258-loop workbench, the fig5/fig6
//! design-space sweeps, the table3 scheduling-time comparison. The
//! [`SweepExecutor`] shards such a bag across `MIRS_JOBS` threads (default:
//! all cores) while keeping the output *byte-identical* to a serial run:
//!
//! * workers claim **chunks** of task indices from one shared atomic
//!   counter (cheap work stealing with NUMA-friendly locality: one
//!   fetch-add hands out up to [`DEFAULT_CHUNK`] consecutive tasks,
//!   cutting counter contention and keeping a worker's consecutive loops
//!   in its local cache; small bags are auto-declustered so every worker
//!   still gets work),
//! * each result is tagged with its task index and the final vector is
//!   assembled by index, so the outcome order never depends on thread
//!   interleaving or the chunk size,
//! * each task sees an immutable `&` view of the inputs (`Workbench`,
//!   `MachineConfig`, shared `DepGraph` bases inside each `Loop`) — the
//!   scheduler itself is `Send + Sync` and stateless between loops,
//! * per-worker *scratch* state (reusable scheduling buffers, see
//!   [`SweepExecutor::run_scratch`]) is created once per worker and
//!   threaded through its tasks, so a sweep allocates per worker, not per
//!   task.
//!
//! Determinism is pinned by the golden `schedule_hash` tests and a property
//! test driving 1-, 2- and N-thread runs over bags of several sizes (and so
//! several effective claim chunks) against each other (see
//! `tests/parallel_sweep.rs`).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Environment variable overriding the worker count (`0` or unparsable
/// values fall back to the default).
pub const JOBS_ENV: &str = "MIRS_JOBS";

/// Most consecutive tasks one atomic claim hands a worker.
pub const DEFAULT_CHUNK: usize = 8;

/// Why a sweep did not produce a full result vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepError {
    /// At least one worker panicked; the listed task indices have no result.
    /// The panic is *surfaced*, never swallowed into a hang: remaining
    /// workers drain the queue and the join reports the loss.
    WorkerPanicked {
        /// Task indices whose results were lost to the panic(s).
        lost_tasks: Vec<usize>,
    },
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::WorkerPanicked { lost_tasks } => {
                write!(f, "sweep worker panicked; lost tasks {lost_tasks:?}")
            }
        }
    }
}

impl std::error::Error for SweepError {}

/// A fixed-width worker pool executing bags of independent tasks in
/// deterministic order.
///
/// The executor itself holds no threads — each [`SweepExecutor::run`] call
/// spawns scoped workers and joins them before returning, so borrowing
/// stack data in tasks is free and nothing outlives the sweep.
#[derive(Debug, Clone)]
pub struct SweepExecutor {
    jobs: usize,
}

const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SweepExecutor>();
};

impl Default for SweepExecutor {
    fn default() -> Self {
        Self::from_env()
    }
}

impl SweepExecutor {
    /// Executor with exactly `jobs` workers (clamped to at least 1).
    #[must_use]
    pub fn new(jobs: usize) -> Self {
        Self { jobs: jobs.max(1) }
    }

    /// Single-threaded executor: tasks run inline on the caller's thread.
    #[must_use]
    pub fn serial() -> Self {
        Self::new(1)
    }

    /// Executor sized by the `MIRS_JOBS` environment variable, defaulting
    /// to [`std::thread::available_parallelism`].
    #[must_use]
    pub fn from_env() -> Self {
        let jobs = std::env::var(JOBS_ENV)
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&j| j > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1)
            });
        Self::new(jobs)
    }

    /// Configured worker count.
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Effective chunk for a bag of `total` tasks: [`DEFAULT_CHUNK`],
    /// declustered so every worker can expect several claims — a 6-task
    /// bag on 4 workers must not collapse onto one worker just because the
    /// chunk is 8. Purely a scheduling-granularity decision; the result
    /// vector is identical either way.
    fn chunk_for(&self, total: usize) -> usize {
        DEFAULT_CHUNK.min((total / (self.jobs * 4)).max(1))
    }

    /// Whether a bag of `total` tasks runs on the caller's thread: one
    /// configured worker, or at most one task.
    fn runs_inline(&self, total: usize) -> bool {
        self.jobs.min(total) <= 1
    }

    /// Run `task` over every item and return the results in item order,
    /// regardless of which worker computed what.
    ///
    /// When the effective worker count is 1 this is a plain loop on the
    /// caller's thread — no `catch_unwind` envelope, no completion
    /// atomics — so a `--jobs 1` baseline measures the tasks, not the
    /// pool plumbing, and a task panic propagates unwrapped.
    ///
    /// # Panics
    ///
    /// Re-raises the failure of any worker task.
    pub fn run<I, T, F>(&self, items: &[I], task: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(usize, &I) -> T + Sync,
    {
        self.run_scratch(items, || (), |_scratch, i, item| task(i, item))
    }

    /// [`SweepExecutor::run`] with per-worker scratch state: `init` builds
    /// one `S` per worker thread (once, before its first task) and every
    /// task that worker claims receives `&mut` access to it. This is how
    /// the workbench runners thread one
    /// [`mirs::SchedScratch`] per worker through thousands of loops — the
    /// sweep allocates per worker, not per task.
    ///
    /// The scratch must not influence results (the determinism guarantee
    /// quantifies over worker count *and* task→worker assignment); scratch
    /// types like `SchedScratch` that only carry warmed allocations satisfy
    /// this by construction.
    ///
    /// Runs inline (plain loop, one scratch, panics unwrapped) when the
    /// effective worker count is 1, like [`SweepExecutor::run`].
    ///
    /// # Panics
    ///
    /// Re-raises the failure of any worker task.
    pub fn run_scratch<I, T, S, G, F>(&self, items: &[I], init: G, task: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        G: Fn() -> S + Sync,
        F: Fn(&mut S, usize, &I) -> T + Sync,
    {
        if self.runs_inline(items.len()) {
            let mut scratch = init();
            return items
                .iter()
                .enumerate()
                .map(|(i, item)| task(&mut scratch, i, item))
                .collect();
        }
        match self.run_caught(items, init, task) {
            Ok(results) => results,
            Err(e) => panic!("{e}"),
        }
    }

    /// Like [`SweepExecutor::run`] but surfaces worker panics as a
    /// [`SweepError`] instead of panicking.
    ///
    /// # Errors
    ///
    /// [`SweepError::WorkerPanicked`] when any task panicked (the queue is
    /// still drained — a panic never hangs the sweep).
    pub fn try_run<I, T, F>(&self, items: &[I], task: F) -> Result<Vec<T>, SweepError>
    where
        I: Sync,
        T: Send,
        F: Fn(usize, &I) -> T + Sync,
    {
        self.run_caught(items, || (), |_scratch, i, item| task(i, item))
    }

    /// The runner behind [`SweepExecutor::try_run`] and the pooled path of
    /// [`SweepExecutor::run_scratch`]: per-worker scratch state, every task
    /// under `catch_unwind`, results reassembled by task index.
    fn run_caught<I, T, S, G, F>(&self, items: &[I], init: G, task: F) -> Result<Vec<T>, SweepError>
    where
        I: Sync,
        T: Send,
        G: Fn() -> S + Sync,
        F: Fn(&mut S, usize, &I) -> T + Sync,
    {
        let total = items.len();
        if self.runs_inline(total) {
            // Serial path with the pooled path's error semantics: the queue
            // drains past panics so `lost_tasks` lists *every* failing
            // task, independent of the worker count.
            let mut scratch = init();
            let mut results = Vec::with_capacity(total);
            let mut lost_tasks: Vec<usize> = Vec::new();
            for (i, item) in items.iter().enumerate() {
                match catch_unwind(AssertUnwindSafe(|| task(&mut scratch, i, item))) {
                    Ok(t) => results.push(t),
                    Err(_) => lost_tasks.push(i),
                }
            }
            if !lost_tasks.is_empty() {
                return Err(SweepError::WorkerPanicked { lost_tasks });
            }
            return Ok(results);
        }

        // Work-stealing queue: one shared counter of the next unclaimed
        // chunk of tasks. A claim hands out `chunk` consecutive indices —
        // fewer fetch-adds on the shared counter (which otherwise
        // ping-pongs between sockets on big machines) and consecutive
        // loops stay on one worker's warm scratch. Finished-early workers
        // immediately claim pending chunks, so load imbalance (one
        // pathological loop among hundreds) costs at most one chunk of
        // idle time per worker.
        let workers = self.jobs.min(total);
        let chunk = self.chunk_for(total);
        let next = AtomicUsize::new(0);
        let task_ref = &task;
        let init_ref = &init;
        let parts: Vec<WorkerPart<T>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut scratch = init_ref();
                        let mut local: Vec<(usize, T)> = Vec::new();
                        let mut lost: Vec<usize> = Vec::new();
                        loop {
                            let start = next.fetch_add(chunk, Ordering::Relaxed);
                            if start >= total {
                                break;
                            }
                            let end = (start + chunk).min(total);
                            for (i, item) in items[start..end].iter().enumerate() {
                                let i = start + i;
                                // Catch per-task panics so one bad loop
                                // cannot take the other results on this
                                // worker with it.
                                match catch_unwind(AssertUnwindSafe(|| {
                                    task_ref(&mut scratch, i, item)
                                })) {
                                    Ok(t) => local.push((i, t)),
                                    Err(_) => lost.push(i),
                                }
                            }
                        }
                        if lost.is_empty() {
                            Ok(local)
                        } else {
                            Err(WorkerLoss { local, lost })
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(part) => part,
                    // `catch_unwind` above means scoped workers only die on
                    // non-unwinding aborts; treat a lost handle as losing
                    // whatever it had claimed.
                    Err(_) => Err(WorkerLoss {
                        local: Vec::new(),
                        lost: Vec::new(),
                    }),
                })
                .collect()
        });

        // Reassemble by task index: identical output order for any worker
        // count and any interleaving.
        let mut slots: Vec<Option<T>> = std::iter::repeat_with(|| None).take(total).collect();
        let mut lost_tasks: Vec<usize> = Vec::new();
        let mut worker_died = false;
        for part in parts {
            match part {
                Ok(local) => {
                    for (i, t) in local {
                        slots[i] = Some(t);
                    }
                }
                Err(loss) => {
                    worker_died = true;
                    lost_tasks.extend(loss.lost);
                    for (i, t) in loss.local {
                        slots[i] = Some(t);
                    }
                }
            }
        }
        if worker_died {
            lost_tasks.sort_unstable();
            return Err(SweepError::WorkerPanicked { lost_tasks });
        }
        let results: Vec<T> = slots.into_iter().flatten().collect();
        debug_assert_eq!(results.len(), total, "missing results without a panic");
        Ok(results)
    }
}

/// What a panicking worker managed to salvage: completed results plus the
/// indices of the task(s) whose panics were caught.
struct WorkerLoss<T> {
    local: Vec<(usize, T)>,
    lost: Vec<usize>,
}

/// One worker's contribution to a sweep: index-tagged results, or a
/// [`WorkerLoss`] when any of its tasks panicked.
type WorkerPart<T> = Result<Vec<(usize, T)>, WorkerLoss<T>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_item_order_for_any_worker_count() {
        let items: Vec<u64> = (0..97).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for jobs in [1usize, 2, 3, 8, 64] {
            let exec = SweepExecutor::new(jobs);
            let got = exec.run(&items, |_, &x| x * x);
            assert_eq!(got, expect, "jobs={jobs}");
        }
    }

    #[test]
    fn results_are_in_item_order_for_any_chunk_size() {
        // The effective chunk grows with the bag: these sizes span claims
        // of 1 up to `DEFAULT_CHUNK` tasks on 2 and 4 workers.
        for jobs in [2usize, 4] {
            for total in [5u64, 17, 40, 203, 1024] {
                let items: Vec<u64> = (0..total).collect();
                let expect: Vec<u64> = items.iter().map(|x| x * 3).collect();
                let exec = SweepExecutor::new(jobs);
                let got = exec.run(&items, |_, &x| x * 3);
                assert_eq!(got, expect, "jobs={jobs} total={total}");
            }
        }
    }

    #[test]
    fn executor_clamps_to_at_least_one_worker() {
        assert_eq!(SweepExecutor::new(0).jobs(), 1);
        assert_eq!(SweepExecutor::serial().jobs(), 1);
        assert!(SweepExecutor::from_env().jobs() >= 1);
    }

    #[test]
    fn small_bags_are_declustered_so_every_worker_gets_work() {
        // 6 tasks, 4 workers: the effective chunk must shrink to 1 (a
        // single worker must not swallow the whole bag in one claim).
        let exec = SweepExecutor::new(4);
        assert_eq!(exec.chunk_for(6), 1);
        // A big bag keeps the full chunk.
        assert_eq!(exec.chunk_for(1258), DEFAULT_CHUNK);
        // In between, every worker can still expect four claims.
        assert_eq!(SweepExecutor::new(2).chunk_for(24), 3);
    }

    #[test]
    fn scratch_is_per_worker_and_threaded_through_tasks() {
        // Each worker's scratch counts the tasks it executed; the sum over
        // workers must cover every item exactly once, and the number of
        // init() calls can never exceed the worker count.
        let inits = AtomicUsize::new(0);
        let executed = AtomicUsize::new(0);
        let items: Vec<usize> = (0..50).collect();
        for jobs in [1usize, 4] {
            inits.store(0, Ordering::Relaxed);
            executed.store(0, Ordering::Relaxed);
            let exec = SweepExecutor::new(jobs);
            let got = exec.run_scratch(
                &items,
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    0usize // per-worker task counter
                },
                |count, _, &x| {
                    *count += 1;
                    executed.fetch_add(1, Ordering::Relaxed);
                    x + *count // scratch visibly participates
                },
            );
            assert_eq!(got.len(), items.len(), "jobs={jobs}");
            assert_eq!(executed.load(Ordering::Relaxed), items.len());
            assert!(inits.load(Ordering::Relaxed) <= jobs.max(1));
            assert!(inits.load(Ordering::Relaxed) >= 1);
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let exec = SweepExecutor::new(4);
        let got: Vec<u32> = exec.run(&[] as &[u32], |_, &x| x);
        assert!(got.is_empty());
    }

    #[test]
    fn worker_panic_is_surfaced_as_an_error_not_a_hang() {
        for jobs in [1usize, 4] {
            let exec = SweepExecutor::new(jobs);
            let items: Vec<usize> = (0..16).collect();
            let out = exec.try_run(&items, |_, &x| {
                assert!(x != 5, "task 5 exploded");
                x
            });
            match out {
                Err(SweepError::WorkerPanicked { lost_tasks }) => {
                    assert!(lost_tasks.contains(&5), "jobs={jobs}: {lost_tasks:?}")
                }
                other => panic!("jobs={jobs}: expected WorkerPanicked, got {other:?}"),
            }
        }
    }

    #[test]
    fn every_panicking_task_is_reported_for_any_worker_count() {
        // The queue drains past panics in the serial path too, so
        // `lost_tasks` is worker-count independent.
        let items: Vec<usize> = (0..16).collect();
        for jobs in [1usize, 4] {
            let exec = SweepExecutor::new(jobs);
            let out = exec.try_run(&items, |_, &x| {
                assert!(x != 3 && x != 7, "tasks 3 and 7 explode");
                x
            });
            assert_eq!(
                out,
                Err(SweepError::WorkerPanicked {
                    lost_tasks: vec![3, 7]
                }),
                "jobs={jobs}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "sweep worker panicked")]
    fn run_reraises_worker_panics() {
        let exec = SweepExecutor::new(2);
        let items: Vec<usize> = (0..8).collect();
        let _ = exec.run(&items, |_, &x| {
            assert!(x != 3, "boom");
            x
        });
    }

    #[test]
    #[should_panic(expected = "task 3 exploded")]
    fn inline_run_propagates_the_original_panic_unwrapped() {
        // One effective worker: no catch_unwind envelope, so the task's
        // own panic message surfaces instead of a SweepError wrapper.
        let exec = SweepExecutor::serial();
        let items: Vec<usize> = (0..8).collect();
        let _ = exec.run(&items, |_, &x| {
            assert!(x != 3, "task 3 exploded");
            x
        });
    }

    #[test]
    fn errors_format_readably() {
        let e = SweepError::WorkerPanicked {
            lost_tasks: vec![3],
        };
        assert!(e.to_string().contains("lost tasks [3]"));
    }
}
