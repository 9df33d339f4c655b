//! A persistent, chunk-deal worker pool for data-parallel kernels.
//!
//! The data-parallel trainers fan a fixed set of independent jobs out
//! to workers many times per second, too often to spawn OS threads per
//! call (`std::thread::scope`), so the pool keeps its threads alive
//! across calls: [`WorkerPool::new`]
//! spawns them once, [`WorkerPool::run`] deals a batch of jobs out and
//! blocks until every job has finished, and dropping the pool shuts the
//! threads down.
//!
//! Design constraints, in order:
//!
//! 1. **No work stealing.** Jobs are dealt round-robin at submit time and
//!    never migrate. Callers that need deterministic *results* get them
//!    for free because [`WorkerPool::run`] is a barrier and job outputs
//!    go to caller-chosen (disjoint) slots — scheduling order can never
//!    reorder a reduction the caller performs after the barrier.
//! 2. **Borrow-friendly jobs.** `run` accepts closures that borrow the
//!    caller's stack (`'scope` lifetimes, like `std::thread::scope`); it
//!    is sound because `run` does not return until every job has been
//!    executed or the pool thread holding it has processed it, even when
//!    jobs panic.
//! 3. **Panic isolation.** A panicking job never poisons a worker thread
//!    or deadlocks the barrier; the first panic payload is re-raised on
//!    the calling thread after *all* jobs of the batch have finished.
//!
//! The caller participates: lane 0 is the submitting thread itself, so
//! `WorkerPool::new(1)` spawns nothing and `run` degenerates to a plain
//! in-order loop — single-threaded configurations pay no synchronisation.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A job as stored in a lane: type-erased and lifetime-erased (see the
/// safety argument on [`WorkerPool::run`]).
type Job = Box<dyn FnOnce() + Send + 'static>;

enum Msg {
    Run(Job),
    Shutdown,
}

/// One worker's mailbox.
struct Lane {
    queue: Mutex<VecDeque<Msg>>,
    ready: Condvar,
}

impl Lane {
    fn new() -> Self {
        Self {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
        }
    }

    fn push(&self, msg: Msg) {
        let mut q = self.queue.lock().unwrap();
        q.push_back(msg);
        self.ready.notify_one();
    }

    fn pop(&self) -> Msg {
        let mut q = self.queue.lock().unwrap();
        loop {
            if let Some(msg) = q.pop_front() {
                return msg;
            }
            q = self.ready.wait(q).unwrap();
        }
    }
}

/// Completion latch for one `run` batch: counts down as jobs finish and
/// stores the first panic payload.
struct Latch {
    state: Mutex<LatchState>,
    done: Condvar,
}

struct LatchState {
    remaining: usize,
    panic: Option<Box<dyn std::any::Any + Send>>,
}

impl Latch {
    fn new(jobs: usize) -> Self {
        Self {
            state: Mutex::new(LatchState {
                remaining: jobs,
                panic: None,
            }),
            done: Condvar::new(),
        }
    }

    /// Marks one job finished (optionally with a panic payload). Always
    /// called exactly once per job, panic or not — the barrier depends
    /// on it.
    fn complete(&self, panic: Option<Box<dyn std::any::Any + Send>>) {
        let mut s = self.state.lock().unwrap();
        if s.panic.is_none() {
            s.panic = panic;
        }
        s.remaining -= 1;
        if s.remaining == 0 {
            self.done.notify_all();
        }
    }

    /// Blocks until every job has completed; returns the first panic.
    fn wait(&self) -> Option<Box<dyn std::any::Any + Send>> {
        let mut s = self.state.lock().unwrap();
        while s.remaining > 0 {
            s = self.done.wait(s).unwrap();
        }
        s.panic.take()
    }
}

/// A fixed-size pool of long-lived worker threads with a submit-and-wait
/// API. See the module docs for the design rationale.
pub struct WorkerPool {
    lanes: Vec<Arc<Lane>>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Creates a pool with `threads` total executors: the calling thread
    /// plus `threads − 1` spawned workers. `threads` is clamped to at
    /// least 1; `WorkerPool::new(1)` spawns nothing and [`run`] executes
    /// inline.
    ///
    /// [`run`]: WorkerPool::run
    pub fn new(threads: usize) -> Self {
        let spawned = threads.max(1) - 1;
        let lanes: Vec<Arc<Lane>> = (0..spawned).map(|_| Arc::new(Lane::new())).collect();
        let handles = lanes
            .iter()
            .cloned()
            .map(|lane| {
                std::thread::Builder::new()
                    .name("ncl-pool-worker".into())
                    .spawn(move || {
                        // The latch-completing wrapper inside `run`
                        // contains the `catch_unwind`; a job can never
                        // unwind into this loop. `Shutdown` ends it.
                        while let Msg::Run(job) = lane.pop() {
                            job();
                        }
                    })
                    .expect("pool: failed to spawn worker thread")
            })
            .collect();
        Self { lanes, handles }
    }

    /// Total executors (spawned workers plus the calling thread).
    pub fn threads(&self) -> usize {
        self.lanes.len() + 1
    }

    /// Runs a batch of jobs, blocking until all of them have finished.
    ///
    /// Jobs are dealt round-robin: job `i` goes to executor
    /// `i mod threads()`, where executor 0 is the calling thread (which
    /// runs its share after dispatching the rest). If any job panicked,
    /// the first panic payload is re-raised here — after the barrier, so
    /// no job is ever left running when `run` returns.
    ///
    /// Concurrent `run` calls from different threads on a shared pool are
    /// allowed; each call only waits on its own jobs.
    pub fn run<'scope>(&self, jobs: Vec<Box<dyn FnOnce() + Send + 'scope>>) {
        if jobs.is_empty() {
            return;
        }
        let latch = Arc::new(Latch::new(jobs.len()));
        let executors = self.threads();
        let mut inline: Vec<Job> = Vec::new();
        for (i, job) in jobs.into_iter().enumerate() {
            // SAFETY: the job may borrow data with lifetime 'scope from
            // the caller's stack. We erase that lifetime to hand the job
            // to a long-lived worker, which is sound because this
            // function does not return before the latch has counted every
            // job — completed or panicked — down (see `wait` below): the
            // borrows can never outlive the frame that owns them. The
            // wrapper is panic-safe by construction: `complete` runs
            // whether or not the job unwinds, so `wait` cannot deadlock.
            let job: Job =
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Job>(job) };
            let latch = Arc::clone(&latch);
            let wrapped: Job = Box::new(move || {
                let result = catch_unwind(AssertUnwindSafe(job));
                latch.complete(result.err());
            });
            match i % executors {
                0 => inline.push(wrapped),
                lane => self.lanes[lane - 1].push(Msg::Run(wrapped)),
            }
        }
        for job in inline {
            job();
        }
        if let Some(payload) = latch.wait() {
            resume_unwind(payload);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        for lane in &self.lanes {
            lane.push(Msg::Shutdown);
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn boxed<'a>(f: impl FnOnce() + Send + 'a) -> Box<dyn FnOnce() + Send + 'a> {
        Box::new(f)
    }

    #[test]
    fn runs_every_job_once() {
        for threads in [1, 2, 4] {
            let pool = WorkerPool::new(threads);
            let counter = AtomicUsize::new(0);
            let jobs = (0..23)
                .map(|_| {
                    boxed(|| {
                        counter.fetch_add(1, Ordering::Relaxed);
                    })
                })
                .collect();
            pool.run(jobs);
            assert_eq!(counter.load(Ordering::Relaxed), 23);
        }
    }

    #[test]
    fn jobs_write_borrowed_output_slots() {
        let pool = WorkerPool::new(3);
        let mut out = vec![0usize; 10];
        let jobs = out
            .iter_mut()
            .enumerate()
            .map(|(i, slot)| boxed(move || *slot = i * i))
            .collect();
        pool.run(jobs);
        assert_eq!(out, (0..10).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn pool_is_reusable_across_batches() {
        let pool = WorkerPool::new(2);
        let counter = AtomicUsize::new(0);
        for _ in 0..50 {
            let jobs = (0..4)
                .map(|_| {
                    boxed(|| {
                        counter.fetch_add(1, Ordering::Relaxed);
                    })
                })
                .collect();
            pool.run(jobs);
        }
        assert_eq!(counter.load(Ordering::Relaxed), 200);
    }

    #[test]
    fn panic_in_one_job_reaches_caller_after_barrier() {
        let pool = WorkerPool::new(2);
        let finished = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = (0..6)
                .map(|i| {
                    let finished = &finished;
                    boxed(move || {
                        if i == 3 {
                            panic!("job 3 exploded");
                        }
                        finished.fetch_add(1, Ordering::Relaxed);
                    })
                })
                .collect();
            pool.run(jobs);
        }));
        assert!(result.is_err(), "panic must propagate to the caller");
        // Barrier semantics: every non-panicking job still ran.
        assert_eq!(finished.load(Ordering::Relaxed), 5);
        // The pool survives the panic and keeps working.
        let counter = AtomicUsize::new(0);
        pool.run(vec![boxed(|| {
            counter.fetch_add(1, Ordering::Relaxed);
        })]);
        assert_eq!(counter.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let pool = WorkerPool::new(4);
        pool.run(Vec::new());
    }

    #[test]
    fn single_thread_pool_spawns_nothing_and_runs_in_order() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.threads(), 1);
        let order = Mutex::new(Vec::new());
        let jobs = (0..5)
            .map(|i| {
                let order = &order;
                boxed(move || order.lock().unwrap().push(i))
            })
            .collect();
        pool.run(jobs);
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.threads(), 1);
        let counter = AtomicUsize::new(0);
        pool.run(vec![boxed(|| {
            counter.fetch_add(1, Ordering::Relaxed);
        })]);
        assert_eq!(counter.load(Ordering::Relaxed), 1);
    }
}
