//! A long-running work-stealing executor with worker-local state.
//!
//! [`try_parallel_map`](crate::try_parallel_map) is scoped fork-join: it
//! spawns workers, drains one batch, and tears everything down. A campaign
//! *service* needs the opposite lifecycle — workers that outlive any one
//! batch so they can amortize expensive per-worker state (booted parent
//! kernels, compiled vulnerability maps) across every job they ever run.
//!
//! [`Executor`] provides that lifecycle while keeping the crate's
//! determinism contract:
//!
//! * **Worker-local context.** Each worker thread builds its own context
//!   `W` via the `init` closure *on the worker thread itself*, so `W` need
//!   not be [`Send`] — the simulator's `Kernel` (an `Rc`-based object
//!   graph) can live in a pool inside `W` and never crosses threads.
//! * **Per-worker deques with stealing.** A submitted batch lands on one
//!   worker's deque (preserving locality with that worker's warm parent
//!   pool); idle workers steal from the *back* of other deques, so a
//!   saturated queue drains at full width regardless of submission skew.
//! * **Indexed batches, index-order results.** Every job carries its
//!   index within its batch; results land in per-batch slots and
//!   [`Ticket::wait`] returns them in index order. Scheduling and steal
//!   interleaving are invisible in the output.
//! * **Completion hooks run exactly once**, on whichever worker finishes
//!   the batch's last job, with the full index-ordered result slice —
//!   the seam where a campaign merge + telemetry emission happens without
//!   the submitter having to poll.
//!
//! Panics in a job poison only that job's batch (its [`Ticket::wait`]
//! re-panics); the worker rebuilds its context via `init` and keeps
//! serving other batches.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Monotonic counters describing everything an [`Executor`] has done.
///
/// All values are cumulative since construction; none of them feed back
/// into scheduling, so observing them is side-effect free.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecutorStats {
    /// Jobs handed to [`Executor::submit_with_affinity`] so far.
    pub submitted: u64,
    /// Jobs whose handler ran to completion (success or poison).
    pub completed: u64,
    /// Jobs a worker popped from *another* worker's deque.
    pub stolen: u64,
    /// Batches submitted.
    pub batches: u64,
    /// Handler panics caught (each also rebuilds that worker's context).
    pub panics: u64,
}

/// Per-batch completion callback: receives the index-ordered results,
/// mutably, so it may take ownership of them.
type CompletionHook<R> = Box<dyn FnOnce(&mut [R]) + Send>;

struct BatchInner<R> {
    slots: Vec<Option<R>>,
    remaining: usize,
    finished: Option<Vec<R>>,
    poisoned: Option<String>,
    on_complete: Option<CompletionHook<R>>,
}

struct BatchState<R> {
    inner: Mutex<BatchInner<R>>,
    done: Condvar,
}

struct Task<J, R> {
    job: J,
    index: usize,
    batch: Arc<BatchState<R>>,
}

struct Shared<J, R> {
    queues: Vec<Mutex<VecDeque<Task<J, R>>>>,
    /// Paired with `work`: submitters notify under this lock, idle workers
    /// re-check `pending` under it before sleeping, so wakeups can't be
    /// missed.
    idle: Mutex<()>,
    work: Condvar,
    pending: AtomicU64,
    shutdown: AtomicBool,
    submitted: AtomicU64,
    completed: AtomicU64,
    stolen: AtomicU64,
    batches: AtomicU64,
    panics: AtomicU64,
}

impl<J, R> Shared<J, R> {
    fn next_task(&self, me: usize) -> Option<Task<J, R>> {
        loop {
            if let Some(task) = self.queues[me].lock().expect("queue poisoned").pop_front() {
                self.pending.fetch_sub(1, Ordering::AcqRel);
                return Some(task);
            }
            for other in 0..self.queues.len() {
                if other == me {
                    continue;
                }
                if let Some(task) = self.queues[other].lock().expect("queue poisoned").pop_back() {
                    self.pending.fetch_sub(1, Ordering::AcqRel);
                    self.stolen.fetch_add(1, Ordering::Relaxed);
                    return Some(task);
                }
            }
            if self.shutdown.load(Ordering::Acquire) {
                return None;
            }
            let guard = self.idle.lock().expect("idle lock poisoned");
            if self.pending.load(Ordering::Acquire) == 0 && !self.shutdown.load(Ordering::Acquire) {
                drop(self.work.wait(guard).expect("idle lock poisoned"));
            }
        }
    }

    fn complete(&self, batch: &Arc<BatchState<R>>, index: usize, result: R) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        let mut inner = batch.inner.lock().expect("batch poisoned");
        debug_assert!(inner.slots[index].is_none(), "slot {index} double-filled");
        inner.slots[index] = Some(result);
        inner.remaining -= 1;
        if inner.remaining > 0 {
            return;
        }
        let mut results: Vec<R> = if inner.poisoned.is_some() {
            // A sibling job panicked: results are partial; skip the hook
            // and let Ticket::wait surface the poison.
            batch.done.notify_all();
            return;
        } else {
            inner.slots.drain(..).map(|s| s.expect("batch slot unfilled")).collect()
        };
        let hook = inner.on_complete.take();
        drop(inner);
        // The hook runs outside the batch lock (it may do real work:
        // merge counters, write telemetry) but *before* waiters observe
        // completion, so a Ticket::wait that returns has the hook's side
        // effects already durable.
        if let Some(hook) = hook {
            hook(&mut results);
        }
        let mut inner = batch.inner.lock().expect("batch poisoned");
        inner.finished = Some(results);
        batch.done.notify_all();
    }

    fn poison(&self, batch: &Arc<BatchState<R>>, message: String) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.panics.fetch_add(1, Ordering::Relaxed);
        let mut inner = batch.inner.lock().expect("batch poisoned");
        inner.remaining -= 1;
        if inner.poisoned.is_none() {
            inner.poisoned = Some(message);
        }
        batch.done.notify_all();
    }
}

/// Handle to one submitted batch; redeems for the index-ordered results.
pub struct Ticket<R> {
    batch: Arc<BatchState<R>>,
}

/// Cloneable identity of one submitted batch, for [`Executor::cancel`].
///
/// Unlike [`Ticket`] (which is consumed by `wait`), a handle can be
/// cloned and stashed in a registry so that *other* threads can cancel
/// the batch's still-queued jobs while the submitter waits.
pub struct BatchHandle<R> {
    batch: Arc<BatchState<R>>,
}

impl<R> Clone for BatchHandle<R> {
    fn clone(&self) -> Self {
        BatchHandle { batch: Arc::clone(&self.batch) }
    }
}

impl<R> Ticket<R> {
    /// A cloneable handle identifying this batch for cancellation.
    pub fn handle(&self) -> BatchHandle<R> {
        BatchHandle { batch: Arc::clone(&self.batch) }
    }

    /// Blocks until every job in the batch has run (and the completion
    /// hook, if any, has returned), then yields the results in submission
    /// index order.
    ///
    /// # Panics
    ///
    /// Re-panics (with the original message) if any job in the batch
    /// panicked.
    pub fn wait(self) -> Vec<R> {
        let mut inner = self.batch.inner.lock().expect("batch poisoned");
        loop {
            if let Some(message) = inner.poisoned.clone() {
                if inner.remaining == 0 {
                    panic!("executor batch poisoned: {message}");
                }
            }
            if let Some(results) = inner.finished.take() {
                return results;
            }
            inner = self.batch.done.wait(inner).expect("batch poisoned");
        }
    }

    /// True once every job in the batch has completed (or the batch is
    /// poisoned); [`wait`](Self::wait) will not block.
    pub fn is_done(&self) -> bool {
        let inner = self.batch.inner.lock().expect("batch poisoned");
        inner.finished.is_some() || (inner.poisoned.is_some() && inner.remaining == 0)
    }
}

/// A persistent pool of worker threads with worker-local context,
/// per-worker deques, and work stealing. See the module docs for the
/// determinism contract.
pub struct Executor<J, R> {
    shared: Arc<Shared<J, R>>,
    handles: Vec<JoinHandle<()>>,
    workers: usize,
}

impl<J, R> Executor<J, R>
where
    J: Send + 'static,
    R: Send + 'static,
{
    /// Spawns `workers` threads (`0` = one per core, via
    /// [`worker_count`](crate::worker_count)). Each thread calls
    /// `init(worker_index)` once to build its local context, then serves
    /// jobs through `handler` until the executor is dropped.
    ///
    /// `W` is built on the worker thread and never leaves it, so it does
    /// not need to be `Send`.
    pub fn new<W, I, F>(workers: usize, init: I, handler: F) -> Self
    where
        I: Fn(usize) -> W + Send + Sync + 'static,
        F: Fn(&mut W, J) -> R + Send + Sync + 'static,
    {
        let workers = crate::worker_count(workers);
        let shared = Arc::new(Shared {
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            idle: Mutex::new(()),
            work: Condvar::new(),
            pending: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            stolen: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            panics: AtomicU64::new(0),
        });
        let init = Arc::new(init);
        let handler = Arc::new(handler);
        let handles = (0..workers)
            .map(|me| {
                let shared = Arc::clone(&shared);
                let init = Arc::clone(&init);
                let handler = Arc::clone(&handler);
                std::thread::Builder::new()
                    .name(format!("cta-exec-{me}"))
                    .spawn(move || {
                        let mut ctx = init(me);
                        while let Some(task) = shared.next_task(me) {
                            let Task { job, index, batch } = task;
                            match catch_unwind(AssertUnwindSafe(|| handler(&mut ctx, job))) {
                                Ok(result) => shared.complete(&batch, index, result),
                                Err(payload) => {
                                    shared.poison(&batch, panic_message(payload.as_ref()));
                                    // The handler may have left ctx (e.g. a
                                    // kernel pool) mid-mutation; rebuild it.
                                    ctx = init(me);
                                }
                            }
                        }
                    })
                    .expect("failed to spawn executor worker")
            })
            .collect();
        Executor { shared, handles, workers }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Submits an indexed batch of jobs onto worker `affinity % workers`,
    /// with a completion hook.
    ///
    /// The whole batch is pushed onto that one worker's deque, so one
    /// campaign's trials prefer one worker's warm context: callers whose
    /// worker contexts hold expensive keyed state (e.g. pooled parent
    /// kernels per tenant) route same-key batches to the same worker.
    /// Stealing still rebalances under load, so affinity is a preference,
    /// not a partition.
    ///
    /// The hook runs exactly once, on the worker that finishes the batch's
    /// last job, with the full index-ordered result slice — before any
    /// [`Ticket::wait`] on this batch returns, which then yields whatever
    /// the hook left in the slice: it may move results out instead of
    /// cloning them. (It is skipped if the batch is poisoned by a panic.)
    pub fn submit_with_affinity<C>(
        &self,
        affinity: usize,
        jobs: Vec<J>,
        on_complete: C,
    ) -> Ticket<R>
    where
        C: FnOnce(&mut [R]) + Send + 'static,
    {
        let n = jobs.len();
        self.shared.batches.fetch_add(1, Ordering::Relaxed);
        self.shared.submitted.fetch_add(n as u64, Ordering::Relaxed);
        let batch = Arc::new(BatchState {
            inner: Mutex::new(BatchInner {
                slots: (0..n).map(|_| None).collect(),
                remaining: n,
                finished: None,
                poisoned: None,
                on_complete: Some(Box::new(on_complete)),
            }),
            done: Condvar::new(),
        });
        if n == 0 {
            let mut inner = batch.inner.lock().expect("batch poisoned");
            if let Some(hook) = inner.on_complete.take() {
                hook(&mut []);
            }
            inner.finished = Some(Vec::new());
            drop(inner);
            return Ticket { batch };
        }
        let target = affinity % self.shared.queues.len();
        self.shared.pending.fetch_add(n as u64, Ordering::AcqRel);
        {
            let mut queue = self.shared.queues[target].lock().expect("queue poisoned");
            for (index, job) in jobs.into_iter().enumerate() {
                queue.push_back(Task { job, index, batch: Arc::clone(&batch) });
            }
        }
        let _guard = self.shared.idle.lock().expect("idle lock poisoned");
        self.shared.work.notify_all();
        Ticket { batch }
    }

    /// Removes the batch's still-queued jobs from every worker deque,
    /// filling their result slots with `filler(index)` instead of running
    /// them, and returns how many jobs were dropped.
    ///
    /// Jobs already claimed by a worker are *not* interrupted — they
    /// drain normally, so cancellation never tears state out from under a
    /// running handler. The batch still completes as usual: dropped slots
    /// count toward the `completed` counter (their filler results are
    /// results like any other), the completion hook runs once the last
    /// in-flight job finishes, and `Ticket::wait` returns the full
    /// index-ordered slice with filler values in the dropped positions.
    /// Cancelling a batch with nothing queued (already drained, or
    /// already finished) is a no-op returning 0.
    pub fn cancel<F>(&self, handle: &BatchHandle<R>, filler: F) -> usize
    where
        F: Fn(usize) -> R,
    {
        let mut dropped = 0usize;
        for queue in &self.shared.queues {
            let mut removed = Vec::new();
            {
                let mut q = queue.lock().expect("queue poisoned");
                let mut kept = VecDeque::with_capacity(q.len());
                for task in q.drain(..) {
                    if Arc::ptr_eq(&task.batch, &handle.batch) {
                        removed.push(task.index);
                    } else {
                        kept.push_back(task);
                    }
                }
                *q = kept;
            }
            if removed.is_empty() {
                continue;
            }
            self.shared.pending.fetch_sub(removed.len() as u64, Ordering::AcqRel);
            // Outside the queue lock: the last fill may run the batch's
            // completion hook, which can do real work.
            for index in removed {
                self.shared.complete(&handle.batch, index, filler(index));
                dropped += 1;
            }
        }
        dropped
    }

    /// Snapshot of the executor's cumulative counters.
    pub fn stats(&self) -> ExecutorStats {
        ExecutorStats {
            submitted: self.shared.submitted.load(Ordering::Relaxed),
            completed: self.shared.completed.load(Ordering::Relaxed),
            stolen: self.shared.stolen.load(Ordering::Relaxed),
            batches: self.shared.batches.load(Ordering::Relaxed),
            panics: self.shared.panics.load(Ordering::Relaxed),
        }
    }
}

impl<J, R> Drop for Executor<J, R> {
    /// Graceful drain: workers finish every queued job (so outstanding
    /// tickets still complete), then exit.
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let _guard = self.shared.idle.lock().expect("idle lock poisoned");
            self.shared.work.notify_all();
        }
        for handle in self.handles.drain(..) {
            // A worker that panicked outside a job already poisoned its
            // batches; don't double-panic the destructor.
            drop(handle.join());
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;

    /// Submits `jobs` onto worker `affinity` with a hook that does nothing.
    fn submit<J, R>(exec: &Executor<J, R>, affinity: usize, jobs: Vec<J>) -> Ticket<R>
    where
        J: Send + 'static,
        R: Send + 'static,
    {
        exec.submit_with_affinity(affinity, jobs, |_: &mut [R]| {})
    }

    #[test]
    fn results_come_back_in_index_order() {
        let exec: Executor<usize, usize> = Executor::new(
            4,
            |_| (),
            |(), job| {
                if job < 4 {
                    std::thread::sleep(std::time::Duration::from_millis(3));
                }
                job * 10
            },
        );
        let out = submit(&exec, 0, (0..16).collect()).wait();
        assert_eq!(out, (0..16).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn worker_context_need_not_be_send() {
        // Rc is !Send: proves context lives and dies on its worker.
        let exec: Executor<u64, u64> = Executor::new(
            3,
            |worker| Rc::new(Cell::new(worker as u64)),
            |ctx, job| {
                ctx.set(ctx.get() + 1);
                job + 1
            },
        );
        let out = submit(&exec, 0, vec![10, 20, 30]).wait();
        assert_eq!(out, vec![11, 21, 31]);
    }

    #[test]
    fn many_batches_interleave_without_crosstalk() {
        let exec = Arc::new(Executor::new(4, |_| (), |(), job: u64| job * job));
        let tickets: Vec<(u64, Ticket<u64>)> = (0..8u64)
            .map(|b| (b, submit(&exec, b as usize, (b * 100..b * 100 + 50).collect())))
            .collect();
        for (b, ticket) in tickets {
            let out = ticket.wait();
            assert_eq!(out.len(), 50);
            for (i, v) in out.iter().enumerate() {
                let job = b * 100 + i as u64;
                assert_eq!(*v, job * job);
            }
        }
    }

    #[test]
    fn completion_hook_runs_once_with_ordered_results() {
        let seen: Arc<Mutex<Vec<Vec<u64>>>> = Arc::new(Mutex::new(Vec::new()));
        let exec = Executor::new(2, |_| (), |(), job: u64| job + 100);
        let seen2 = Arc::clone(&seen);
        let ticket = exec.submit_with_affinity(0, vec![1, 2, 3], move |results: &mut [u64]| {
            seen2.lock().unwrap().push(results.to_vec());
        });
        let out = ticket.wait();
        assert_eq!(out, vec![101, 102, 103]);
        // Hook has already run by the time wait() returned.
        assert_eq!(*seen.lock().unwrap(), vec![vec![101, 102, 103]]);
    }

    #[test]
    fn completion_hook_may_take_ownership_of_results() {
        let taken: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        let exec = Executor::new(2, |_| (), |(), job: u64| job.to_string());
        let taken2 = Arc::clone(&taken);
        let ticket =
            exec.submit_with_affinity(0, vec![7, 8, 9], move |results: &mut [String]| {
                taken2.lock().unwrap().extend(results.iter_mut().map(std::mem::take));
            });
        // The hook moved the results out; wait sees what it left behind.
        assert_eq!(ticket.wait(), vec![String::new(); 3]);
        assert_eq!(*taken.lock().unwrap(), vec!["7", "8", "9"]);
    }

    #[test]
    fn empty_batch_completes_immediately() {
        let exec: Executor<u64, u64> = Executor::new(2, |_| (), |(), job| job);
        let fired = Arc::new(AtomicBool::new(false));
        let fired2 = Arc::clone(&fired);
        let ticket = exec.submit_with_affinity(0, Vec::new(), move |r: &mut [u64]| {
            assert!(r.is_empty());
            fired2.store(true, Ordering::SeqCst);
        });
        assert!(ticket.is_done());
        assert_eq!(ticket.wait(), Vec::<u64>::new());
        assert!(fired.load(Ordering::SeqCst));
    }

    #[test]
    fn panic_poisons_only_its_batch_and_worker_recovers() {
        let rebuilds = Arc::new(AtomicU64::new(0));
        let rebuilds2 = Arc::clone(&rebuilds);
        let exec = Executor::new(
            2,
            move |_| {
                rebuilds2.fetch_add(1, Ordering::SeqCst);
            },
            |(), job: u64| {
                assert!(job != 42, "planted failure");
                job
            },
        );
        let bad = submit(&exec, 0, vec![41, 42, 43]);
        let good = submit(&exec, 1, vec![1, 2, 3]);
        assert_eq!(good.wait(), vec![1, 2, 3]);
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| bad.wait()));
        assert!(err.is_err(), "poisoned batch must re-panic on wait");
        assert_eq!(exec.stats().panics, 1);
        // Executor still serves jobs after the poison.
        assert_eq!(submit(&exec, 0, vec![7]).wait(), vec![7]);
        drop(exec); // join workers so the rebuild is observable
                    // 2 initial contexts + 1 rebuild after the panic.
        assert_eq!(rebuilds.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn stats_count_jobs_and_batches() {
        let exec = Executor::new(2, |_| (), |(), job: u64| job);
        for affinity in 0..5 {
            submit(&exec, affinity, vec![1, 2, 3, 4]).wait();
        }
        let stats = exec.stats();
        assert_eq!(stats.submitted, 20);
        assert_eq!(stats.completed, 20);
        assert_eq!(stats.batches, 5);
        assert_eq!(stats.panics, 0);
    }

    #[test]
    fn cancel_drops_queued_jobs_and_fills_their_slots() {
        use std::sync::mpsc;
        let (started_tx, started_rx) = mpsc::channel::<()>();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let release_rx = Arc::new(Mutex::new(release_rx));
        let exec = Executor::new(
            1, // one worker: jobs 1..8 stay queued while job 0 blocks
            |_| (),
            move |(), job: u64| {
                if job == 0 {
                    started_tx.send(()).unwrap();
                    release_rx.lock().unwrap().recv().unwrap();
                }
                job + 100
            },
        );
        let ticket = submit(&exec, 0, (0..8).collect());
        let handle = ticket.handle();
        started_rx.recv().unwrap(); // job 0 is in flight, 1..8 queued
        let dropped = exec.cancel(&handle, |index| index as u64);
        assert_eq!(dropped, 7);
        release_tx.send(()).unwrap();
        let out = ticket.wait();
        // Slot 0 ran; slots 1..8 hold the filler values.
        assert_eq!(out, vec![100, 1, 2, 3, 4, 5, 6, 7]);
        // Filled slots count as completed, so the ledger still balances.
        let stats = exec.stats();
        assert_eq!(stats.submitted, 8);
        assert_eq!(stats.completed, 8);
    }

    #[test]
    fn cancel_after_completion_is_a_noop() {
        let exec = Executor::new(2, |_| (), |(), job: u64| job);
        let ticket = submit(&exec, 0, vec![1, 2, 3]);
        let handle = ticket.handle();
        assert_eq!(ticket.wait(), vec![1, 2, 3]);
        assert_eq!(exec.cancel(&handle, |_| 999), 0);
    }

    #[test]
    fn cancel_leaves_other_batches_untouched() {
        use std::sync::mpsc;
        let (started_tx, started_rx) = mpsc::channel::<()>();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let release_rx = Arc::new(Mutex::new(release_rx));
        let exec = Executor::new(
            1,
            |_| (),
            move |(), job: u64| {
                if job == 0 {
                    started_tx.send(()).unwrap();
                    release_rx.lock().unwrap().recv().unwrap();
                }
                job * 2
            },
        );
        let doomed = submit(&exec, 0, vec![0, 1, 2]);
        let survivor = submit(&exec, 0, vec![10, 11]);
        started_rx.recv().unwrap();
        assert_eq!(exec.cancel(&doomed.handle(), |_| 0), 2);
        release_tx.send(()).unwrap();
        assert_eq!(doomed.wait(), vec![0, 0, 0]);
        assert_eq!(survivor.wait(), vec![20, 22]);
    }

    #[test]
    fn drop_drains_outstanding_work() {
        let exec = Executor::new(
            2,
            |_| (),
            |(), job: u64| {
                std::thread::sleep(std::time::Duration::from_millis(1));
                job
            },
        );
        let ticket = submit(&exec, 0, (0..32).collect());
        drop(exec); // graceful drain: queued jobs still run
        assert_eq!(ticket.wait().len(), 32);
    }
}
