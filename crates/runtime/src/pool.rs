//! A small scoped thread pool built on `std::thread::scope` plus the
//! in-tree MPMC channel — the replacement for what `crossbeam`'s scoped
//! utilities provided.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::channel::{bounded, unbounded, Receiver, Sender};
use crate::sync::Mutex;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Why a submitted job produced no value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The job panicked; the payload's message, when it was a string.
    Panicked(String),
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Panicked(msg) => write!(f, "pool job panicked: {msg}"),
        }
    }
}

impl std::error::Error for JobError {}

/// The submitter's half of a [`ThreadPool::submit`] call: blocks on `join`
/// until the job finishes, surfacing a job panic as [`JobError::Panicked`]
/// instead of a silently missing result.
#[derive(Debug)]
pub struct JobHandle<T> {
    rx: Receiver<Result<T, JobError>>,
}

impl<T> JobHandle<T> {
    /// Waits for the job and returns its value, or `Err` when it panicked.
    pub fn join(self) -> Result<T, JobError> {
        // The worker always sends exactly one message (the catch_unwind
        // result), so a closed channel can only mean the pool was dropped
        // with the job never run — report that as a panic-equivalent loss.
        self.rx
            .recv()
            .unwrap_or_else(|_| Err(JobError::Panicked("job was dropped unrun".to_owned())))
    }
}

/// Renders a panic payload the way `std` does for `Box<dyn Any>`.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// A fixed-size pool of worker threads consuming jobs from an MPMC queue.
/// Dropping the pool closes the queue and joins every worker.
pub struct ThreadPool {
    sender: Option<Sender<Job>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ThreadPool {
    /// Spawns `threads` workers (at least one).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let (tx, rx) = unbounded::<Job>();
        let workers = (0..threads)
            .map(|i| {
                let rx = rx.clone();
                std::thread::Builder::new()
                    .name(format!("mdv-pool-{i}"))
                    .spawn(move || {
                        while let Ok(job) = rx.recv() {
                            // a panicking job must not take the worker down
                            // with it: the pool keeps serving later jobs
                            let _ = catch_unwind(AssertUnwindSafe(job));
                        }
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        ThreadPool {
            sender: Some(tx),
            workers,
        }
    }

    /// Enqueues a fire-and-forget job. A panic inside the job is contained
    /// by the worker (the pool keeps serving) but the payload is lost; use
    /// [`ThreadPool::submit`] when the caller must observe failures.
    pub fn execute<F: FnOnce() + Send + 'static>(&self, job: F) {
        self.sender
            .as_ref()
            .expect("pool is live until dropped")
            .send(Box::new(job))
            .ok();
    }

    /// Enqueues a job whose outcome the submitter observes: `join` on the
    /// returned handle yields the job's value, or [`JobError::Panicked`]
    /// with the panic message when the job panicked. This is the contract
    /// the filter hot path relies on — a worker must never swallow a panic
    /// into a silently missing result.
    pub fn submit<T, F>(&self, job: F) -> JobHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let (tx, rx) = bounded::<Result<T, JobError>>(1);
        self.execute(move || {
            let result = catch_unwind(AssertUnwindSafe(job))
                .map_err(|p| JobError::Panicked(panic_message(p)));
            // the submitter may have dropped the handle; that's fine
            tx.send(result).ok();
        });
        JobHandle { rx }
    }

    /// The number of worker threads.
    pub fn size(&self) -> usize {
        self.workers.len()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.sender.take();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Applies `f` to every item on `threads` scoped workers and returns the
/// results in input order. Panics in `f` propagate to the caller.
///
/// Empty and single-item inputs (and `threads <= 1`) run inline on the
/// caller's thread, spawning zero workers — an empty batch must cost
/// nothing, not a worker that wakes up to find no work.
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let threads = threads.max(1).min(items.len());
    if threads == 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    *slots[i].lock() = Some(f(&items[i]));
                })
            })
            .collect();
        for h in handles {
            if let Err(p) = h.join() {
                std::panic::resume_unwind(p);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every slot filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn pool_runs_all_jobs() {
        let counter = std::sync::Arc::new(AtomicU64::new(0));
        {
            let pool = ThreadPool::new(4);
            assert_eq!(pool.size(), 4);
            for _ in 0..100 {
                let c = counter.clone();
                pool.execute(move || {
                    c.fetch_add(1, Ordering::SeqCst);
                });
            }
            // drop joins: every job has run afterwards
        }
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn pool_jobs_flow_through_channels() {
        // jobs send results back over an in-tree channel, exercising the
        // channel send/recv/close semantics under the pool
        let (tx, rx) = crate::channel::unbounded();
        {
            let pool = ThreadPool::new(3);
            for i in 0..50u64 {
                let tx = tx.clone();
                pool.execute(move || {
                    tx.send(i * i).unwrap();
                });
            }
        }
        drop(tx);
        let mut got: Vec<u64> = std::iter::from_fn(|| rx.recv().ok()).collect();
        got.sort_unstable();
        assert_eq!(got, (0..50u64).map(|i| i * i).collect::<Vec<_>>());
        assert_eq!(rx.recv(), Err(crate::channel::RecvError));
    }

    #[test]
    fn submit_returns_value() {
        let pool = ThreadPool::new(2);
        let handles: Vec<_> = (0..20u64).map(|i| pool.submit(move || i * 3)).collect();
        let got: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(got, (0..20u64).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn submit_surfaces_panic_as_err() {
        let pool = ThreadPool::new(1);
        let bad = pool.submit(|| -> u64 { panic!("boom {}", 41 + 1) });
        match bad.join() {
            Err(JobError::Panicked(msg)) => assert!(msg.contains("boom 42"), "got '{msg}'"),
            other => panic!("expected Err(Panicked), got {other:?}"),
        }
        // the worker survived the panic and serves later jobs
        let ok = pool.submit(|| 7u64);
        assert_eq!(ok.join(), Ok(7));
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..200).collect();
        let out = parallel_map(&items, 8, |&x| x * 2);
        assert_eq!(out, (0..200).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_empty_and_single() {
        let empty: Vec<u8> = Vec::new();
        assert!(parallel_map(&empty, 4, |&x| x).is_empty());
        assert_eq!(parallel_map(&[9], 4, |&x| x + 1), vec![10]);
    }

    #[test]
    fn parallel_map_small_inputs_spawn_no_workers() {
        // empty, single-item, and threads=1 maps run inline: `f` executes
        // on the caller's thread, never a spawned worker
        let caller = std::thread::current().id();
        let empty: Vec<u8> = Vec::new();
        assert!(parallel_map(&empty, 4, |_| std::thread::current().id()).is_empty());
        assert_eq!(
            parallel_map(&[1], 8, |_| std::thread::current().id()),
            vec![caller]
        );
        assert!(parallel_map(&[1, 2, 3], 1, |_| std::thread::current().id())
            .iter()
            .all(|id| *id == caller));
    }
}
