//! A work-stealing thread pool over *requests*.
//!
//! Connections submit one job per request line; each worker owns a deque
//! and a long-lived [`WorkerScratch`] it hands to every request it serves.
//! Jobs land on the deques round-robin; an idle worker drains its own
//! deque from the front and steals from the *back* of a victim's deque
//! otherwise, so a chatty connection cannot monopolize one worker while
//! others idle.
//!
//! A shared `pending` count under one mutex/condvar is the only
//! coordination: each submit increments it, each worker decrements it
//! before hunting for a job, so a woken worker is always entitled to
//! exactly one job and the hunt terminates. Shutdown drains: workers exit
//! only once `pending` reaches zero with the shutdown flag set.

use crate::engine::WorkerScratch;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A unit of work: one request, handled with the worker's scratch.
pub type Job = Box<dyn FnOnce(&mut WorkerScratch) + Send + 'static>;

struct SignalState {
    pending: usize,
    shutdown: bool,
}

struct Inner {
    queues: Vec<Mutex<VecDeque<Job>>>,
    signal: Mutex<SignalState>,
    available: Condvar,
}

/// The pool. `submit` is `&self` and thread-safe; `shutdown` drains the
/// remaining jobs, then joins every worker.
pub struct Executor {
    inner: Arc<Inner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    next: AtomicUsize,
}

impl Executor {
    /// Spawns `workers` (at least one) worker threads.
    pub fn new(workers: usize) -> Executor {
        let n = workers.max(1);
        let inner = Arc::new(Inner {
            queues: (0..n).map(|_| Mutex::new(VecDeque::new())).collect(),
            signal: Mutex::new(SignalState {
                pending: 0,
                shutdown: false,
            }),
            available: Condvar::new(),
        });
        let handles = (0..n)
            .map(|me| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner, me))
            })
            .collect();
        Executor {
            inner,
            workers: Mutex::new(handles),
            next: AtomicUsize::new(0),
        }
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.inner.queues.len()
    }

    /// Enqueues a job (round-robin home queue; any worker may steal it).
    ///
    /// # Panics
    /// Panics if called after [`Executor::shutdown`].
    pub fn submit(&self, job: Job) {
        let slot = self.next.fetch_add(1, Ordering::Relaxed) % self.inner.queues.len();
        self.inner.queues[slot]
            .lock()
            .expect("queue lock")
            .push_back(job);
        let mut st = self.inner.signal.lock().expect("signal lock");
        assert!(!st.shutdown, "submit after executor shutdown");
        st.pending += 1;
        drop(st);
        self.inner.available.notify_one();
    }

    /// Drains every queued job, then stops and joins the workers.
    /// Idempotent.
    pub fn shutdown(&self) {
        {
            let mut st = self.inner.signal.lock().expect("signal lock");
            st.shutdown = true;
        }
        self.inner.available.notify_all();
        let handles = std::mem::take(&mut *self.workers.lock().expect("workers lock"));
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(inner: &Inner, me: usize) {
    let n = inner.queues.len();
    let mut scratch = WorkerScratch::default();
    loop {
        {
            let mut st = inner.signal.lock().expect("signal lock");
            while st.pending == 0 && !st.shutdown {
                st = inner.available.wait(st).expect("signal lock");
            }
            if st.pending == 0 {
                return; // shutdown with nothing left to drain
            }
            st.pending -= 1;
        }
        // Entitled to exactly one job now; it may still be in flight on a
        // producer's queue for a moment, hence the yielding retry.
        let job = loop {
            if let Some(job) = inner.queues[me].lock().expect("queue lock").pop_front() {
                break job;
            }
            let mut stolen = None;
            for i in 1..n {
                let victim = (me + i) % n;
                if let Some(job) = inner.queues[victim].lock().expect("queue lock").pop_back() {
                    stolen = Some(job);
                    break;
                }
            }
            if let Some(job) = stolen {
                break job;
            }
            std::thread::yield_now();
        };
        job(&mut scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn runs_every_job_before_shutdown_returns() {
        let pool = Executor::new(4);
        let hits = Arc::new(AtomicU64::new(0));
        for _ in 0..1000 {
            let hits = Arc::clone(&hits);
            pool.submit(Box::new(move |_| {
                hits.fetch_add(1, Ordering::Relaxed);
            }));
        }
        pool.shutdown();
        assert_eq!(hits.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn many_producers_one_pool() {
        let pool = Arc::new(Executor::new(3));
        let hits = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let pool = Arc::clone(&pool);
                let hits = Arc::clone(&hits);
                s.spawn(move || {
                    for _ in 0..250 {
                        let hits = Arc::clone(&hits);
                        pool.submit(Box::new(move |_| {
                            hits.fetch_add(1, Ordering::Relaxed);
                        }));
                    }
                });
            }
        });
        pool.shutdown();
        assert_eq!(hits.load(Ordering::Relaxed), 2000);
    }
}
