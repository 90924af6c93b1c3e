//! A shared, persistent worker pool for the block loop.
//!
//! Without a pool the block loop spawns a fresh set of scoped threads
//! for every launch ([`std::thread::scope`] in
//! [`crate::sched::run_workers`]). That is correct but
//! wasteful under streaming: two concurrent launches each spin up their
//! own workers and oversubscribe the host, and per-launch thread spawn
//! cost dominates small frames. A [`WorkerPool`] owns a fixed set of
//! long-lived threads and multiplexes the block work of *concurrent*
//! launches over them through one FIFO job queue.
//!
//! The pool changes **where** worker closures run, never **what** they
//! compute: [`WorkerPool::run_scoped`] calls the same per-worker closure
//! with the same worker indices as the scoped-thread path, and the
//! engines still apply stores in linear block order on the calling
//! thread — so outputs stay bit-identical for any pool size, any worker
//! count, and any interleaving of concurrent launches.
//!
//! Scheduling properties:
//!
//! * **FIFO fairness** — jobs from concurrent launches interleave in
//!   submission order; one long launch cannot starve a later one ahead
//!   of its own queued tail.
//! * **Caller assist** — while waiting for its own jobs, the submitting
//!   thread drains the queue and runs jobs itself. On a saturated (or
//!   single-core) host the caller is just another worker, and a nested
//!   `run_scoped` from inside a job can never deadlock: a waiter always
//!   empties the queue before sleeping.
//! * **Panic containment** — a panicking worker closure is caught,
//!   carried back, and re-raised on the *calling* thread of its own
//!   launch. Pool threads and unrelated launches keep running.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// A queued unit of work: run one worker index of one launch.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Lock a mutex, adopting the inner state if a panicking thread poisoned
/// it. Pool state is only ever pushed/popped whole items, so a poisoned
/// guard is never half-updated.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

struct Shared {
    /// The job queue plus the shutdown flag, under one lock so a worker
    /// can atomically observe "empty and shutting down".
    queue: Mutex<(VecDeque<Job>, bool)>,
    /// Signalled on every push and on shutdown.
    work: Condvar,
    /// Lifetime count of jobs whose closure panicked (and was contained).
    /// Telemetry for the stream resilience governor: the pool always
    /// survives a panic, this counter proves one happened.
    panicked: AtomicU64,
}

/// Countdown latch: `run_scoped` waits until all of its jobs finished.
struct Latch {
    remaining: Mutex<usize>,
    done: Condvar,
}

impl Latch {
    fn new(n: usize) -> Self {
        Latch {
            remaining: Mutex::new(n),
            done: Condvar::new(),
        }
    }

    fn count_down(&self) {
        let mut left = lock_recover(&self.remaining);
        *left -= 1;
        if *left == 0 {
            self.done.notify_all();
        }
    }

    fn is_done(&self) -> bool {
        *lock_recover(&self.remaining) == 0
    }

    fn wait(&self) {
        let mut left = lock_recover(&self.remaining);
        while *left > 0 {
            left = self
                .done
                .wait(left)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }
}

/// A fixed-size pool of persistent worker threads shared by concurrent
/// launches. See the [module docs](self) for the scheduling contract.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: usize,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers)
            .finish()
    }
}

impl WorkerPool {
    /// A pool of `workers` persistent threads (at least one).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new((VecDeque::new(), false)),
            work: Condvar::new(),
            panicked: AtomicU64::new(0),
        });
        let threads = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("hipacc-pool-{i}"))
                    .spawn(move || loop {
                        let job = {
                            let mut q = lock_recover(&shared.queue);
                            loop {
                                if let Some(job) = q.0.pop_front() {
                                    break job;
                                }
                                if q.1 {
                                    return;
                                }
                                q = shared
                                    .work
                                    .wait(q)
                                    .unwrap_or_else(|poisoned| poisoned.into_inner());
                            }
                        };
                        // Job closures contain their own panic handling
                        // (run_scoped funnels payloads back to the
                        // caller); this outer catch only shields the
                        // pool thread from future job kinds.
                        let _ = catch_unwind(AssertUnwindSafe(job));
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            workers,
            threads,
        }
    }

    /// Number of persistent threads in the pool.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Lifetime count of contained job panics. Every one of them was
    /// re-raised on its own launch's calling thread; the pool threads
    /// themselves never died.
    pub fn panics(&self) -> u64 {
        self.shared.panicked.load(Ordering::Relaxed)
    }

    /// Pop one queued job, without blocking.
    fn try_pop(&self) -> Option<Job> {
        lock_recover(&self.shared.queue).0.pop_front()
    }

    /// Run `f(0..n)` on the pool, blocking until every call finished,
    /// and return the results in worker order. Panics in `f` are
    /// re-raised here, on the calling thread, after all `n` calls have
    /// completed or unwound — never on a pool thread.
    ///
    /// This is the pooled drop-in for the engines' scoped-thread block
    /// loop: same closure, same worker indices, same result order.
    /// While its jobs are pending the calling thread *assists* — it
    /// drains the queue (running other launches' jobs if they are ahead
    /// in line) instead of going idle.
    pub fn run_scoped<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if n == 0 {
            return Vec::new();
        }
        let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let panic_slot: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
        let latch = Latch::new(n);
        {
            let panicked = &self.shared.panicked;
            let task = |w: usize| {
                match catch_unwind(AssertUnwindSafe(|| f(w))) {
                    Ok(v) => *lock_recover(&results[w]) = Some(v),
                    Err(payload) => {
                        panicked.fetch_add(1, Ordering::Relaxed);
                        let mut slot = lock_recover(&panic_slot);
                        // Keep the first payload; later ones add nothing.
                        slot.get_or_insert(payload);
                    }
                }
                latch.count_down();
            };
            let task_ref: &(dyn Fn(usize) + Sync) = &task;
            // SAFETY: the erased reference only escapes into jobs pushed
            // below, and `latch.wait()` blocks this frame until every one
            // of those jobs has run to completion (`count_down` is
            // unconditional, panic or not). No job can observe the
            // reference after this scope unwinds.
            let task_static: &'static (dyn Fn(usize) + Sync) =
                unsafe { std::mem::transmute(task_ref) };
            {
                let mut q = lock_recover(&self.shared.queue);
                for w in 0..n {
                    q.0.push_back(Box::new(move || task_static(w)));
                }
            }
            self.shared.work.notify_all();
            // Caller assist: drain the queue until our latch opens. Jobs
            // never block on later-queued work, so progress is guaranteed.
            while !latch.is_done() {
                match self.try_pop() {
                    Some(job) => {
                        let _ = catch_unwind(AssertUnwindSafe(job));
                    }
                    None => latch.wait(),
                }
            }
        }
        if let Some(payload) = lock_recover(&panic_slot).take() {
            resume_unwind(payload);
        }
        results
            .into_iter()
            .map(|m| {
                lock_recover(&m)
                    .take()
                    .expect("pool job completed before latch opened")
            })
            .collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        lock_recover(&self.shared.queue).1 = true;
        self.shared.work.notify_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_every_worker_once_in_order() {
        let pool = WorkerPool::new(3);
        let out = pool.run_scoped(7, |w| w * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50, 60]);
    }

    #[test]
    fn empty_scope_is_a_no_op() {
        let pool = WorkerPool::new(2);
        let out: Vec<u32> = pool.run_scoped(0, |_| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn borrows_caller_locals() {
        let pool = WorkerPool::new(2);
        let data = [1u64, 2, 3, 4];
        let sums = pool.run_scoped(4, |w| data[w] + 100);
        assert_eq!(sums, vec![101, 102, 103, 104]);
    }

    #[test]
    fn concurrent_scopes_share_the_pool() {
        let pool = Arc::new(WorkerPool::new(2));
        let hits = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let pool = Arc::clone(&pool);
                let hits = Arc::clone(&hits);
                scope.spawn(move || {
                    let out = pool.run_scoped(8, |w| {
                        hits.fetch_add(1, Ordering::Relaxed);
                        w
                    });
                    assert_eq!(out, (0..8).collect::<Vec<_>>());
                });
            }
        });
        assert_eq!(hits.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn panic_propagates_to_the_caller_and_pool_survives() {
        let pool = WorkerPool::new(2);
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run_scoped(4, |w| {
                if w == 2 {
                    panic!("boom from worker 2");
                }
                w
            })
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(msg.contains("boom"), "payload: {msg:?}");
        // The pool is still fully operational after the unwound scope.
        assert_eq!(pool.run_scoped(3, |w| w + 1), vec![1, 2, 3]);
    }

    #[test]
    fn panic_telemetry_counts_contained_panics() {
        let pool = WorkerPool::new(2);
        assert_eq!(pool.panics(), 0);
        for round in 0..3 {
            let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
                pool.run_scoped(4, |w| {
                    if w == 1 {
                        panic!("round {round}");
                    }
                    w
                })
            }))
            .unwrap_err();
            drop(err);
            assert_eq!(pool.panics(), round + 1, "one contained panic per round");
            // Pool threads survived; the next scope runs clean.
            assert_eq!(pool.run_scoped(2, |w| w), vec![0, 1]);
        }
    }

    #[test]
    fn nested_run_scoped_does_not_deadlock() {
        // Pool smaller than the nesting demand: caller assist must keep
        // draining the queue for progress.
        let pool = Arc::new(WorkerPool::new(1));
        let inner = Arc::clone(&pool);
        let out = pool.run_scoped(2, move |w| inner.run_scoped(2, |v| w * 10 + v));
        assert_eq!(out, vec![vec![0, 1], vec![10, 11]]);
    }

    #[test]
    fn more_jobs_than_threads_complete() {
        let pool = WorkerPool::new(1);
        let out = pool.run_scoped(64, |w| w as u64);
        assert_eq!(out.iter().sum::<u64>(), (0..64).sum());
    }
}
