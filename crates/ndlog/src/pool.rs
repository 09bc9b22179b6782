//! A persistent shard-worker pool for parallel evaluation rounds.
//!
//! [`crate::sharded`] used to spawn fresh scoped threads (`std::thread::scope`)
//! for every evaluation round — one spawn+join per fixpoint barrier, paid
//! once per round of a deep fixpoint and once per maintenance round under
//! churn.  [`ShardPool`] replaces that with **long-lived workers**: threads
//! are spawned once (when the [`crate::sharded::ShardRouter`] is built) and
//! fed per-round closures over channels, surviving across rounds, batches,
//! and engine clones (the router — and with it the pool — is shared by
//! `Arc`).
//!
//! # How a round runs
//!
//! [`ShardPool::run`] dispatches shards `1..n` as boxed jobs to the workers
//! and evaluates shard 0 on the calling thread (the coordinator), exactly
//! like the old scoped fan-out.  Each job writes its result into a
//! coordinator-owned slot and signals a completion latch; `run` blocks on
//! the latch — that block **is** the round's fixpoint barrier — and then
//! merges the slots in shard order, so results and error propagation are
//! byte-identical to the scoped implementation.
//!
//! # Safety
//!
//! Jobs borrow round-local state (the frozen store, the partitioned
//! deltas), but a channel payload must be `'static`, so the job's lifetime
//! is erased with one `transmute`.  This is sound for the same reason
//! `std::thread::scope` is: `run` does not return — normally *or* by
//! panic/early-`?` — until the latch has counted every dispatched job, and
//! a job signals the latch only after it has finished executing (via a
//! drop guard, so even a panicking job signals).  No borrow captured by a
//! job can therefore outlive the `run` call that created it.  The only
//! code observing a job after its signal is the worker loop dropping an
//! already-consumed `Box`, which touches no borrowed data.

#![allow(unsafe_code)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A lifetime-erased unit of shard work.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Completion latch for one `run` call: counts outstanding jobs, untyped so
/// it can safely outlive the round's borrows.
struct Latch {
    remaining: Mutex<usize>,
    all_done: Condvar,
    panicked: AtomicBool,
    /// The first panicking job's payload, preserved so the coordinator can
    /// resume unwinding with the *real* panic instead of a generic one
    /// (matching what the old scoped fan-out propagated).
    panic_payload: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl Latch {
    fn new() -> Self {
        Latch {
            remaining: Mutex::new(0),
            all_done: Condvar::new(),
            panicked: AtomicBool::new(false),
            panic_payload: Mutex::new(None),
        }
    }

    /// Register one outstanding job.  Called *before* the job is handed to
    /// a worker, and rolled back with [`Self::unregister`] if the hand-off
    /// fails — so `remaining` always equals the number of jobs that will
    /// genuinely signal, and [`Self::wait`] can never hang on a job that
    /// was never queued.
    fn register(&self) {
        *self.remaining.lock().expect("latch poisoned") += 1;
    }

    fn unregister(&self) {
        let mut left = self.remaining.lock().expect("latch poisoned");
        *left -= 1;
        if *left == 0 {
            self.all_done.notify_all();
        }
    }

    fn wait(&self) {
        let mut left = self.remaining.lock().expect("latch poisoned");
        while *left > 0 {
            left = self.all_done.wait(left).expect("latch poisoned");
        }
    }
}

/// Coordinator-side unwind guard: waits on the latch when dropped.
///
/// This is what makes the lifetime-erasure sound on *every* exit path of
/// [`ShardPool::run`] — including a panic in the coordinator's own
/// `worker(0)` call or in the dispatch loop.  Without it, such a panic
/// would unwind past the barrier and free the stack-owned result slots and
/// the borrowed closure while dispatched jobs still hold raw pointers into
/// them (the same reason `std::thread::scope` joins from a drop guard).
struct WaitOnDrop<'a>(&'a Latch);

impl Drop for WaitOnDrop<'_> {
    fn drop(&mut self) {
        self.0.wait();
    }
}

/// Signals the latch when dropped — including during a panic unwind, so the
/// coordinator can never deadlock on a crashed job.
struct SignalOnDrop(Arc<Latch>);

impl Drop for SignalOnDrop {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.panicked.store(true, Ordering::SeqCst);
        }
        self.0.unregister();
    }
}

/// Raw slot pointer a job writes its result through.  The coordinator owns
/// the slots and hands each job a pointer to a distinct one, so concurrent
/// writes never alias; the latch orders the writes before the reads.
struct SlotPtr<T>(*mut T);

impl<T> SlotPtr<T> {
    /// Write through the pointer.  Keeping this a method (rather than
    /// dereferencing the field at the use site) makes closures capture the
    /// whole `SlotPtr` — which carries the `Send` impl below — instead of
    /// the bare raw pointer.
    ///
    /// # Safety
    /// See the `Send` impl: unique slot per job, latch-ordered.
    unsafe fn write(&self, value: T) {
        unsafe { *self.0 = value };
    }
}

// SAFETY: the pointee is owned by the coordinator, each job gets a unique
// slot, and the latch synchronizes the write with the coordinator's read.
unsafe impl<T: Send> Send for SlotPtr<T> {}

/// A pool of persistent shard-worker threads fed by channels.
///
/// Created once per [`crate::sharded::ShardRouter`] and shared (via `Arc`)
/// by every engine clone using that router; dropped (joining its threads)
/// when the last reference goes away.
pub struct ShardPool {
    senders: Mutex<Vec<mpsc::Sender<Job>>>,
    handles: Vec<JoinHandle<()>>,
    /// Pooled fan-out rounds executed (inline single-shard rounds included).
    rounds: AtomicU64,
    /// Shard jobs handed to worker threads (the coordinator's own shard 0
    /// excluded) — `rounds`/`jobs` together give the load the pool absorbed.
    jobs: AtomicU64,
}

impl std::fmt::Debug for ShardPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardPool")
            .field("workers", &self.handles.len())
            .finish()
    }
}

impl ShardPool {
    /// Spawn `workers` persistent threads (0 is allowed: every `run` then
    /// executes inline on the caller, the degenerate single-shard setup).
    pub fn new(workers: usize) -> Self {
        let mut senders = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let (tx, rx) = mpsc::channel::<Job>();
            senders.push(tx);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("ndlog-shard-{}", i + 1))
                    .spawn(move || Self::worker_loop(rx))
                    .expect("spawn shard worker"),
            );
        }
        ShardPool {
            senders: Mutex::new(senders),
            handles,
            rounds: AtomicU64::new(0),
            jobs: AtomicU64::new(0),
        }
    }

    fn worker_loop(rx: mpsc::Receiver<Job>) {
        while let Ok(job) = rx.recv() {
            // A panicking job must not take the worker down with it: its
            // guard has already signalled the latch, and the coordinator
            // re-raises the panic after the barrier.
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
        }
    }

    /// Number of persistent worker threads.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Lifetime count of fan-out rounds run through this pool.
    pub fn rounds(&self) -> u64 {
        self.rounds.load(Ordering::Relaxed)
    }

    /// Lifetime count of shard jobs dispatched to worker threads.
    pub fn jobs_dispatched(&self) -> u64 {
        self.jobs.load(Ordering::Relaxed)
    }

    /// Run `worker(k)` for every shard `k` in `0..shards`, returning the
    /// results in shard order — the drop-in replacement for the old scoped
    /// fan-out.  Shard 0 runs on the calling thread; shards `1..` are
    /// dispatched round-robin to the persistent workers.  Returns only
    /// after every shard has finished (the fixpoint barrier); errors
    /// propagate in shard order, so the reported error is deterministic.
    pub fn run<T: Send>(
        &self,
        shards: usize,
        worker: &(dyn Fn(usize) -> crate::error::Result<T> + Sync),
    ) -> crate::error::Result<Vec<T>> {
        let shards = shards.max(1);
        self.rounds.fetch_add(1, Ordering::Relaxed);
        if shards == 1 || self.handles.is_empty() {
            return (0..shards).map(worker).collect();
        }
        let dispatched = shards - 1;
        self.jobs.fetch_add(dispatched as u64, Ordering::Relaxed);
        let mut slots: Vec<Option<crate::error::Result<T>>> =
            (0..dispatched).map(|_| None).collect();
        let latch = Arc::new(Latch::new());
        // Armed before any job is dispatched: should the coordinator itself
        // unwind (a panic in `worker(0)`, a poisoned lock, a failed send),
        // this guard drops *before* `slots` and waits for every registered
        // job — jobs can never outlive the borrows they capture.
        let barrier = WaitOnDrop(&latch);
        {
            let senders = self.senders.lock().expect("pool poisoned");
            for (i, slot) in slots.iter_mut().enumerate() {
                let k = i + 1;
                let slot = SlotPtr(slot as *mut Option<crate::error::Result<T>>);
                let guard_latch = Arc::clone(&latch);
                let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                    let signal = SignalOnDrop(guard_latch);
                    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| worker(k))) {
                        // SAFETY: unique slot per job; `run` holds the latch
                        // until this job's guard fires, ordering this write
                        // before the coordinator's read.
                        Ok(result) => unsafe { slot.write(Some(result)) },
                        Err(payload) => {
                            // Keep the first payload (payloads are 'static,
                            // so parking one in the latch is safe); the
                            // coordinator resumes unwinding with it after
                            // the barrier.
                            signal.0.panicked.store(true, Ordering::SeqCst);
                            let mut stash = signal.0.panic_payload.lock().expect("latch poisoned");
                            stash.get_or_insert(payload);
                        }
                    }
                });
                // SAFETY: see the module docs — `run` blocks on the latch
                // (normally below, or in `barrier`'s drop on unwind) before
                // any path releases the borrows captured by the job.
                let job: Job =
                    unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Job>(job) };
                latch.register();
                if let Err(unsent) = senders[i % senders.len()].send(job) {
                    // The job never reached a worker (returned in the error):
                    // roll its registration back so the barrier cannot hang,
                    // then drop it here, on the coordinator, borrows intact.
                    latch.unregister();
                    drop(unsent);
                    panic!("shard worker channel closed while the pool is alive");
                }
            }
        }
        let first = worker(0);
        // The fixpoint barrier: no early return (error or panic) may cross
        // this point before every dispatched job has signalled.
        drop(barrier);
        if latch.panicked.load(Ordering::SeqCst) {
            match latch.panic_payload.lock().expect("latch poisoned").take() {
                Some(payload) => std::panic::resume_unwind(payload),
                None => panic!("a shard worker panicked during a pooled round"),
            }
        }
        let mut out = Vec::with_capacity(shards);
        out.push(first?);
        for s in slots {
            out.push(s.expect("latch counted every job")?);
        }
        Ok(out)
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        // Closing the channels ends the worker loops; join for a clean exit.
        self.senders.lock().expect("pool poisoned").clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::NdlogError;

    #[test]
    fn pooled_run_merges_in_shard_order() {
        let pool = ShardPool::new(3);
        let vals = pool.run(4, &|k| Ok(k * 10)).unwrap();
        assert_eq!(vals, vec![0, 10, 20, 30]);
    }

    #[test]
    fn pool_survives_many_rounds_and_borrowed_state() {
        let pool = ShardPool::new(3);
        for round in 0..100usize {
            let local: Vec<usize> = (0..4).map(|k| k + round).collect();
            let out = pool.run(4, &|k| Ok(local[k] * 2)).unwrap();
            let want: Vec<usize> = (0..4).map(|k| (k + round) * 2).collect();
            assert_eq!(out, want);
        }
    }

    #[test]
    fn errors_propagate_in_shard_order() {
        let pool = ShardPool::new(2);
        let err = pool
            .run::<usize>(3, &|k| {
                if k >= 1 {
                    Err(NdlogError::Eval {
                        msg: format!("boom {k}"),
                    })
                } else {
                    Ok(k)
                }
            })
            .unwrap_err();
        assert!(err.to_string().contains("boom 1"), "{err}");
        // The pool is still usable after an error round.
        assert_eq!(pool.run(3, &|k| Ok(k)).unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn zero_worker_pool_runs_inline() {
        let pool = ShardPool::new(0);
        assert_eq!(pool.run(4, &|k| Ok(k)).unwrap(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn oversubscribed_run_queues_on_fewer_workers() {
        // More shards than workers: jobs queue and still all complete.
        let pool = ShardPool::new(2);
        let vals = pool.run(9, &|k| Ok(k)).unwrap();
        assert_eq!(vals, (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn coordinator_panic_waits_for_dispatched_jobs() {
        // A panic in shard 0 (the coordinator's own slice) must not unwind
        // past the barrier while shards 1.. still hold pointers into the
        // round's stack frame: the WaitOnDrop guard blocks the unwind until
        // they finish.  Observable contract: the panic propagates, nothing
        // crashes, and the pool remains fully usable.
        let pool = ShardPool::new(2);
        for _ in 0..20 {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _ = pool.run(3, &|k| {
                    if k == 0 {
                        panic!("coordinator panic");
                    }
                    // Give the dispatched jobs a window to still be running
                    // when the coordinator unwinds.
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    Ok(k)
                });
            }));
            assert!(r.is_err());
            assert_eq!(pool.run(3, &|k| Ok(k)).unwrap(), vec![0, 1, 2]);
        }
    }

    #[test]
    fn worker_panic_is_reraised_and_pool_survives() {
        let pool = ShardPool::new(2);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = pool.run(3, &|k| {
                if k == 2 {
                    panic!("job panic");
                }
                Ok(k)
            });
        }));
        assert!(r.is_err(), "panic must cross the barrier");
        // The original payload survives the hop across threads.
        assert_eq!(r.unwrap_err().downcast_ref::<&str>(), Some(&"job panic"));
        assert_eq!(pool.run(3, &|k| Ok(k)).unwrap(), vec![0, 1, 2]);
    }
}
