//! User-level task scheduling inside the enclave.
//!
//! SGX enclaves must declare their maximum number of hardware threads (TCS
//! slots) at build time. Scone works around this by multiplexing an
//! arbitrary number of *user-level threads* onto the fixed pool of enclave
//! threads; a user-level thread runs until its next preemption point (a
//! system-call submission) and then yields to the scheduler (paper §4.6,
//! "Multithreading support").
//!
//! The simulator models this as a work-stealing-free M:N scheduler: tasks
//! (closures) are queued and executed by a fixed pool of worker threads that
//! stands in for the enclave hardware threads. The controller's accepted
//! `put_async` bodies run as such tasks.

use std::collections::VecDeque;
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::{Condvar, Mutex};

type Task = Box<dyn FnOnce() + Send + 'static>;

/// Counters describing scheduler activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Tasks submitted.
    pub spawned: u64,
    /// Tasks completed.
    pub completed: u64,
    /// Worker threads (enclave hardware threads).
    pub workers: usize,
}

/// The run queue and its counters, all under the one `SCHEDULER` mutex.
#[derive(Default)]
struct Queue {
    tasks: VecDeque<Task>,
    spawned: u64,
    completed: u64,
    /// Set by `Drop`: workers finish what is queued, then exit.
    closed: bool,
}

struct Inner {
    queue: Mutex<Queue>,
    /// Workers sleep here for a task or the close.
    work_cv: Condvar,
    /// `wait_idle` sleeps here until `completed == spawned`.
    idle_cv: Condvar,
}

impl Inner {
    fn run_worker(&self) {
        let mut queue = self.queue.lock();
        loop {
            if let Some(task) = queue.tasks.pop_front() {
                drop(queue);
                task();
                queue = self.queue.lock();
                queue.completed += 1;
                if queue.completed == queue.spawned {
                    self.idle_cv.notify_all();
                }
            } else if queue.closed {
                return;
            } else {
                self.work_cv.wait(&mut queue);
            }
        }
    }
}

/// An M:N user-level scheduler with a fixed worker pool.
pub struct UserScheduler {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl UserScheduler {
    /// Creates a scheduler with `hardware_threads` workers.
    pub fn new(hardware_threads: usize) -> Self {
        let threads = hardware_threads.max(1);
        let inner = Arc::new(Inner {
            queue: Mutex::with_rank(parking_lot::lock_order::SCHEDULER, Queue::default()),
            work_cv: Condvar::new(),
            idle_cv: Condvar::new(),
        });

        let mut workers = Vec::with_capacity(threads);
        for i in 0..threads {
            let inner = Arc::clone(&inner);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("enclave-hw-{i}"))
                    .spawn(move || inner.run_worker())
                    // pesos-lint: allow(panic_freedom, "worker spawn failure at construction is fatal initialization")
                    .expect("spawn enclave worker"),
            );
        }

        UserScheduler { inner, workers }
    }

    /// Spawns a user-level task.
    pub fn spawn<F>(&self, task: F)
    where
        F: FnOnce() + Send + 'static,
    {
        let mut queue = self.inner.queue.lock();
        queue.spawned += 1;
        queue.tasks.push_back(Box::new(task));
        drop(queue);
        self.inner.work_cv.notify_one();
    }

    /// Blocks until every spawned task has completed.
    pub fn wait_idle(&self) {
        let mut queue = self.inner.queue.lock();
        while queue.completed < queue.spawned {
            self.inner.idle_cv.wait(&mut queue);
        }
    }

    /// Returns activity counters.
    pub fn stats(&self) -> SchedulerStats {
        let queue = self.inner.queue.lock();
        SchedulerStats {
            spawned: queue.spawned,
            completed: queue.completed,
            workers: self.workers.len(),
        }
    }

    /// Shuts the scheduler down after draining queued tasks.
    pub fn shutdown(mut self) {
        self.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }

    fn close(&self) {
        self.inner.queue.lock().closed = true;
        self.inner.work_cv.notify_all();
    }
}

/// Closes the queue without joining: the workers run what is still queued
/// and then exit on their own, releasing the shared state.
impl Drop for UserScheduler {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::mpsc;

    #[test]
    fn runs_all_tasks() {
        let sched = UserScheduler::new(4);
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..100 {
            let c = Arc::clone(&counter);
            sched.spawn(move || {
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        sched.wait_idle();
        assert_eq!(counter.load(Ordering::SeqCst), 100);
        let stats = sched.stats();
        assert_eq!(stats.spawned, 100);
        assert_eq!(stats.completed, 100);
        assert_eq!(stats.workers, 4);
    }

    #[test]
    fn a_task_delivers_its_result() {
        let sched = UserScheduler::new(2);
        let answer = Arc::new(AtomicU64::new(0));
        let a = Arc::clone(&answer);
        sched.spawn(move || a.store(7 * 6, Ordering::SeqCst));
        sched.wait_idle();
        assert_eq!(answer.load(Ordering::SeqCst), 42);
    }

    #[test]
    fn more_tasks_than_workers() {
        let sched = UserScheduler::new(1);
        let sum = Arc::new(AtomicU64::new(0));
        for i in 0..20u64 {
            let sum = Arc::clone(&sum);
            sched.spawn(move || {
                sum.fetch_add(i * 2, Ordering::SeqCst);
            });
        }
        sched.wait_idle();
        assert_eq!(
            sum.load(Ordering::SeqCst),
            (0..20).map(|i| i * 2).sum::<u64>()
        );
        assert_eq!(sched.stats().completed, 20);
    }

    #[test]
    fn shutdown_completes_outstanding_work() {
        let sched = UserScheduler::new(2);
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..10 {
            let c = Arc::clone(&counter);
            sched.spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(1));
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        sched.shutdown();
        assert_eq!(counter.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn zero_threads_clamped_to_one() {
        let sched = UserScheduler::new(0);
        assert_eq!(sched.stats().workers, 1);
        let ran = Arc::new(AtomicU64::new(0));
        let r = Arc::clone(&ran);
        sched.spawn(move || r.store(1, Ordering::SeqCst));
        sched.wait_idle();
        assert_eq!(ran.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn a_dropped_scheduler_runs_what_is_queued_and_stops() {
        let sched = UserScheduler::new(2);
        let inner = Arc::clone(&sched.inner);
        let counter = Arc::new(AtomicU64::new(0));
        // Both workers block on the gate, so the other eight tasks are
        // still queued when the scheduler is dropped.
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let gate_rx = Arc::new(std::sync::Mutex::new(gate_rx));
        for i in 0..10 {
            let c = Arc::clone(&counter);
            let gate = Arc::clone(&gate_rx);
            sched.spawn(move || {
                if i < 2 {
                    gate.lock().unwrap().recv().unwrap();
                }
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        drop(sched);
        assert!(inner.queue.lock().closed);
        gate_tx.send(()).unwrap();
        gate_tx.send(()).unwrap();
        // Every `enclave-hw-*` worker exits once the queue is empty and
        // lets go of the shared state: only this test's reference is left.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while Arc::strong_count(&inner) > 1 {
            assert!(
                std::time::Instant::now() < deadline,
                "workers still running"
            );
            std::thread::yield_now();
        }
        assert_eq!(counter.load(Ordering::SeqCst), 10);
        let queue = inner.queue.lock();
        assert!(queue.tasks.is_empty());
        assert_eq!(queue.completed, 10);
    }
}
