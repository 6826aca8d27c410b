//! A small persistent worker pool for scatter phases.
//!
//! Same idiom as `ncq-server`'s worker loop — a `Mutex<VecDeque>` of
//! jobs with a `Condvar` — but scoped to fan-out/fan-in: a scatter
//! submits one job per shard and blocks until all of them answered.
//! Persistent threads (rather than per-query spawns) keep the per-query
//! scatter overhead at two mutex hops per shard.
//!
//! The scattering caller **helps**: instead of parking on the result
//! channel it drains the job queue inline until empty, then waits only
//! for jobs a worker already claimed. On a single-core host the whole
//! scatter degenerates to plain function calls (no context switches);
//! on a multi-core host the caller contributes one worker's worth of
//! throughput.

use std::collections::VecDeque;
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread;

type Job = Box<dyn FnOnce() + Send>;

struct PoolState {
    queue: VecDeque<Job>,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    work: Condvar,
}

/// The scatter pool. Dropping it drains queued jobs and joins the
/// workers.
pub(crate) struct Pool {
    shared: Arc<PoolShared>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl Pool {
    /// Spawn `workers` threads (minimum 1).
    pub(crate) fn new(workers: usize) -> Pool {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            work: Condvar::new(),
        });
        let workers = (0..workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("ncq-shard-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn shard worker")
            })
            .collect();
        Pool { shared, workers }
    }

    /// Run every task, in parallel across the workers *and the calling
    /// thread*, and return their results in task order. Blocks until
    /// the last task finished.
    pub(crate) fn scatter<T, F>(&self, tasks: Vec<F>) -> Vec<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let n = tasks.len();
        let (tx, rx) = mpsc::channel::<(usize, T)>();
        {
            let mut state = self.shared.state.lock().expect("pool lock");
            for (i, task) in tasks.into_iter().enumerate() {
                let tx = tx.clone();
                state.queue.push_back(Box::new(move || {
                    // A dropped receiver cannot happen while we block on
                    // recv below; ignore the impossible error.
                    let _ = tx.send((i, task()));
                }));
            }
        }
        drop(tx);
        self.shared.work.notify_all();

        // Help: run queued jobs inline until the queue drains, then
        // wait for whatever a worker thread already claimed.
        loop {
            let job = {
                let mut state = self.shared.state.lock().expect("pool lock");
                state.queue.pop_front()
            };
            match job {
                Some(job) => job(),
                None => break,
            }
        }

        let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
        for _ in 0..n {
            let (i, value) = rx.recv().expect("scatter task completed");
            slots[i] = Some(value);
        }
        slots
            .into_iter()
            .map(|s| s.expect("all slots filled"))
            .collect()
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("pool lock");
            state.shutdown = true;
        }
        self.shared.work.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut state = shared.state.lock().expect("pool lock");
            loop {
                if let Some(job) = state.queue.pop_front() {
                    break job;
                }
                if state.shutdown {
                    return;
                }
                state = shared.work.wait(state).expect("pool lock");
            }
        };
        job();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn scatter_returns_results_in_task_order() {
        let pool = Pool::new(4);
        assert_eq!(pool.workers.len(), 4);
        let tasks: Vec<_> = (0..32).map(|i| move || i * 10).collect();
        assert_eq!(
            pool.scatter(tasks),
            (0..32).map(|i| i * 10).collect::<Vec<_>>()
        );
    }

    #[test]
    fn scatter_runs_tasks_concurrently() {
        let pool = Pool::new(4);
        let running = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let tasks: Vec<_> = (0..8)
            .map(|_| {
                let running = Arc::clone(&running);
                let peak = Arc::clone(&peak);
                move || {
                    let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    thread::sleep(std::time::Duration::from_millis(20));
                    running.fetch_sub(1, Ordering::SeqCst);
                }
            })
            .collect();
        pool.scatter(tasks);
        assert!(peak.load(Ordering::SeqCst) > 1, "tasks overlapped");
    }

    #[test]
    fn sequential_scatters_reuse_the_pool() {
        let pool = Pool::new(2);
        for round in 0..10 {
            let got = pool.scatter((0..2).map(|i| move || round + i).collect::<Vec<_>>());
            assert_eq!(got, vec![round, round + 1]);
        }
    }

    #[test]
    fn empty_scatter_is_a_noop() {
        let pool = Pool::new(1);
        let got: Vec<usize> = pool.scatter(Vec::<fn() -> usize>::new());
        assert!(got.is_empty());
    }
}
