//! A persistent worker pool — the `ExecutorService` analogue.
//!
//! Recognition traffic is dominated by *short* texts: spawning `c` OS
//! threads per text costs more than the scan itself once chunks drop
//! below a few tens of kilobytes. The pool keeps `n` workers parked on a
//! condvar (none at all for `n = 0`: the caller then runs every task
//! itself) and runs one kind of work, the scoped batch:
//!
//! * [`ThreadPool::invoke_all_scoped`] — a *scoped* `invokeAll` over
//!   **borrowed** data with **per-worker resident state**. No `Arc`, no
//!   boxing, no channel node: the call publishes a raw descriptor of a
//!   stack-resident scope, workers claim task indices from an atomic
//!   counter, and each worker reuses its own long-lived slot of
//!   caller-provided state (the reach phase keeps one scan `Scratch` per
//!   worker warm across *texts*, not just across the chunks of one
//!   text). A warm call performs zero heap allocations;
//! * [`ThreadPool::invoke_each`] — the same batch over a slice of
//!   disjoint output slots: task `i` gets `&mut slots[i]`, so every
//!   pooled scan writes its own output slot through a plain `&mut`, and
//!   its callers need no `unsafe` at all: the scope protocol below and
//!   the one-claimant-per-index slot hand-out are the only `unsafe`
//!   code behind either entry point.
//!
//! Panic safety (the liveness contract): every claimant runs its tasks
//! under `catch_unwind`, the batch keeps the first panic payload and
//! re-raises it on the caller once the batch is quiescent, and the caller
//! leaves a batch — by return or by unwind — only after it has retracted
//! the scope and every attached worker has detached, so no worker can
//! touch the caller's frame once it is gone.
//!
//! Self-healing (the availability contract): `catch_unwind` cannot trap
//! everything. A claimant whose task panics after the batch already holds
//! a payload drops its own payload, and a payload whose `Drop` panics
//! then unwinds the claimant itself: a worker thread dies, and a caller
//! unwinds out of the batch once it has drained. Each worker's top frame
//! records such a death, and the head of the next batch joins the corpse
//! and respawns a fresh worker under the same slot index, so every batch
//! starts with the configured workers. [`health`](ThreadPool::health)
//! reports live workers, contained panics and respawns. Correctness never
//! depends on worker liveness: the caller is itself a claimant and drains
//! every task the workers leave.
//!
//! Built entirely on `std::sync`; no external runtime dependency.

// The scoped path shares caller-stack data with workers through raw
// pointers; every dereference is justified by the attach/drain protocol
// documented on `ScopeHeader`, and `invoke_each`'s slot hand-out by the
// one-claimant-per-index contract on `SlotBase`.
#![allow(unsafe_code)]

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

type PanicPayload = Box<dyn Any + Send + 'static>;

/// A fixed-size pool of worker threads running scoped borrowed-data
/// batches. Workers that die abnormally are respawned at the head of the
/// next batch; see [`health`](ThreadPool::health).
pub struct ThreadPool {
    shared: Arc<PoolShared>,
    /// Worker handles by slot index.
    workers: Mutex<Vec<JoinHandle<()>>>,
    /// The worker count the pool was built with (stable across deaths).
    configured: usize,
    /// Respawns performed so far.
    respawns: AtomicU64,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Signaled on every state change: new scope, scope slot freed,
    /// shutdown. Workers and scope-slot waiters both park here.
    signal: Condvar,
    /// Task panics re-raised on their batch's caller.
    panics_trapped: AtomicU64,
    /// Number of worker slots currently without a live thread.
    dead: AtomicUsize,
    /// Slot indices of workers that died abnormally, awaiting `heal`.
    defunct: Mutex<Vec<usize>>,
}

/// A point-in-time snapshot of pool liveness, from
/// [`ThreadPool::health`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolHealth {
    /// Worker count the pool was configured with.
    pub configured: usize,
    /// Workers currently alive (configured minus deaths the next batch
    /// has yet to heal).
    pub live: usize,
    /// Task panics the pool has contained and re-raised on a batch's
    /// caller.
    pub panics_trapped: u64,
    /// Workers respawned after an abnormal death.
    pub respawns: u64,
}

struct PoolState {
    /// The (single) scoped batch currently being broadcast, if any.
    scoped: Option<ScopedTask>,
    /// Monotonic batch id so a worker never re-enters a batch it has
    /// already served.
    scoped_seq: u64,
    shutdown: bool,
}

/// Type-erased descriptor of a scoped batch, pointing into the invoking
/// caller's stack frame.
#[derive(Clone, Copy)]
struct ScopedTask {
    seq: u64,
    header: *const ScopeHeader,
    data: *const (),
    /// Monomorphized entry point: `run(data, worker_index)`.
    run: unsafe fn(*const (), usize),
}

// SAFETY: the pointers reference a `Scope` pinned on the caller's stack
// for the whole batch. The attach/drain protocol (see `ScopeHeader`)
// guarantees no worker dereferences them after the caller returns.
unsafe impl Send for ScopedTask {}

/// The non-generic part of a scoped batch, shared between the caller and
/// the workers.
///
/// # Lifetime protocol
///
/// The header lives on the caller's stack. A worker may only learn of it
/// by reading `PoolState::scoped` **while holding the pool lock**, and
/// must [`attach`](Latch::attach) before releasing that lock. The caller
/// tears down, from a drop guard ([`Retract`]) so that it does on unwind
/// too, by clearing `PoolState::scoped` under the same lock and then
/// blocking until the attach count drains to zero. Hence every
/// worker dereference happens either under the pool lock (slot still
/// published) or between attach and detach (caller still draining) — the
/// header is alive for both.
struct ScopeHeader {
    /// Next unclaimed task index; claims are `fetch_add(1)`.
    next: AtomicUsize,
    num_tasks: usize,
    /// Counts workers currently inside the scope.
    attached: Latch,
    /// First panic raised by any claimant, re-raised on the caller.
    panic: Mutex<Option<PanicPayload>>,
}

impl ScopeHeader {
    /// Keeps the batch's first panic payload and drops any later one
    /// here, on its claimant. A later payload whose `Drop` panics
    /// unwinds out of this call with the slot locked, poisoning it, so
    /// every access to the slot goes through `PoisonError::into_inner`.
    fn store_panic(&self, payload: PanicPayload) {
        let mut slot = self.panic.lock().unwrap_or_else(PoisonError::into_inner);
        slot.get_or_insert(payload);
    }
}

/// The generic part of a scoped batch: the work closure and the base of
/// the per-worker state slots. All pointers, no lifetimes — validity is
/// carried by the [`ScopeHeader`] protocol, not the type system.
struct Scope<S, F> {
    header: ScopeHeader,
    work: *const F,
    /// Worker `w` exclusively owns slot `locals[w]`; the caller uses a
    /// separate slot it holds directly.
    locals: *mut S,
    num_slots: usize,
}

impl<S, F: Fn(&mut S, usize) + Sync> Scope<S, F> {
    /// Claims and runs task indices until the batch is exhausted or a
    /// task panics (the panic is recorded; remaining indices are left to
    /// the other claimants).
    fn drive(&self, slot: &mut S) {
        // SAFETY: `work` points to the caller's closure, alive for the
        // whole batch per the header protocol.
        let work = unsafe { &*self.work };
        let result = catch_unwind(AssertUnwindSafe(|| loop {
            let i = self.header.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.header.num_tasks {
                break;
            }
            work(slot, i);
        }));
        if let Err(payload) = result {
            self.header.store_panic(payload);
        }
    }
}

/// Monomorphized worker entry point stored in [`ScopedTask::run`].
///
/// # Safety
///
/// `data` must point to a live `Scope<S, F>` whose slot region has at
/// least `worker + 1` elements, and slot `worker` must not be aliased by
/// any other thread (guaranteed: each pool worker has a unique index and
/// serves a batch at most once).
unsafe fn run_scope_worker<S, F: Fn(&mut S, usize) + Sync>(data: *const (), worker: usize) {
    let scope = &*(data as *const Scope<S, F>);
    debug_assert!(worker < scope.num_slots);
    let slot = &mut *scope.locals.add(worker);
    scope.drive(slot);
}

/// Detaches from the scope on drop, so the caller's drain can never hang
/// on a worker — not even one whose task panicked.
struct DetachGuard {
    header: *const ScopeHeader,
}

impl Drop for DetachGuard {
    fn drop(&mut self) {
        // SAFETY: between attach and this detach the header is alive per
        // the ScopeHeader protocol.
        unsafe { (*self.header).attached.detach() }
    }
}

/// An inline (non-`Arc`) count-to-zero latch.
struct Latch {
    count: Mutex<usize>,
    zero: Condvar,
}

impl Latch {
    fn new() -> Latch {
        Latch {
            count: Mutex::new(0),
            zero: Condvar::new(),
        }
    }

    fn attach(&self) {
        *self.count.lock().expect("latch poisoned") += 1;
    }

    fn detach(&self) {
        let mut count = self.count.lock().expect("latch poisoned");
        *count -= 1;
        if *count == 0 {
            self.zero.notify_all();
        }
    }

    /// Runs from [`Retract`]'s `Drop`, so it must not panic: a poisoned
    /// count is still exact (every update is one step under the lock).
    fn wait_zero(&self) {
        let mut count = self.count.lock().unwrap_or_else(PoisonError::into_inner);
        while *count > 0 {
            count = self
                .zero
                .wait(count)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// The caller's end of a batch: retracts the published scope and waits
/// until every attached worker has detached. It runs on drop, so a
/// caller whose own claim unwinds (a later payload's panicking `Drop` in
/// [`ScopeHeader::store_panic`]) still drains the batch before its frame,
/// which the workers borrow, goes away.
struct Retract<'a> {
    shared: &'a PoolShared,
    header: &'a ScopeHeader,
}

impl Drop for Retract<'_> {
    fn drop(&mut self) {
        // No panic here (it may run while the caller unwinds): the state
        // stays valid under a poisoned lock, as every update is one step.
        let mut state = self
            .shared
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        state.scoped = None;
        drop(state);
        self.shared.signal.notify_all();
        self.header.attached.wait_zero();
    }
}

impl ThreadPool {
    /// Spawns `num_workers` parked worker threads. A pool of zero workers
    /// spawns no thread: every task runs on the calling thread. The
    /// workers start in the background; a batch is served by the caller
    /// and whichever workers have started.
    pub fn new(num_workers: usize) -> ThreadPool {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                scoped: None,
                scoped_seq: 0,
                shutdown: false,
            }),
            signal: Condvar::new(),
            panics_trapped: AtomicU64::new(0),
            dead: AtomicUsize::new(0),
            defunct: Mutex::new(Vec::new()),
        });
        let workers = (0..num_workers)
            .map(|index| spawn_worker(&shared, index))
            .collect();
        ThreadPool {
            shared,
            workers: Mutex::new(workers),
            configured: num_workers,
            respawns: AtomicU64::new(0),
        }
    }

    /// Number of worker threads the pool was configured with (including
    /// any currently dead; see [`health`](ThreadPool::health) for
    /// liveness).
    pub fn num_workers(&self) -> usize {
        self.configured
    }

    /// A snapshot of pool liveness: live workers, trapped panics, and
    /// respawns performed.
    pub fn health(&self) -> PoolHealth {
        let dead = self
            .shared
            .dead
            .load(Ordering::Acquire)
            .min(self.configured);
        PoolHealth {
            configured: self.configured,
            live: self.configured - dead,
            panics_trapped: self.shared.panics_trapped.load(Ordering::Relaxed),
            respawns: self.respawns.load(Ordering::Relaxed),
        }
    }

    /// Joins workers that died abnormally and respawns replacements under
    /// the same slot indices. Runs at the head of every batch; the fast
    /// path (no deaths) is a single atomic load.
    fn heal(&self) {
        if self.shared.dead.load(Ordering::Acquire) == 0 {
            return;
        }
        let mut handles = self.workers.lock().expect("pool worker list poisoned");
        let defunct =
            std::mem::take(&mut *self.shared.defunct.lock().expect("defunct list poisoned"));
        for index in defunct {
            let corpse = std::mem::replace(&mut handles[index], spawn_worker(&self.shared, index));
            // Reap the corpse so the OS thread is not leaked.
            let _ = corpse.join();
            self.respawns.fetch_add(1, Ordering::Relaxed);
            self.shared.dead.fetch_sub(1, Ordering::Release);
        }
    }

    /// The scoped `invokeAll` with per-worker resident state: runs
    /// `work(&mut locals[w], i)` for every `i in 0..num_tasks`, where `w`
    /// is a claimant-private slot index. `locals` must hold at least
    /// [`num_workers`](ThreadPool::num_workers)` + 1` slots: slot `w`
    /// belongs to pool worker `w` *stably across calls* (pass the same
    /// buffer every time and each worker's state stays warm from one call
    /// to the next), and the last slot belongs to the calling thread,
    /// which participates in claiming.
    ///
    /// Dead workers are respawned first. Tasks are claimed dynamically
    /// from an atomic counter, so skewed task costs self-balance. Panics
    /// in tasks are contained and the first one is re-raised here once
    /// the batch is quiescent. A single task, or a pool without workers,
    /// runs on the caller without waking the pool, and a task panic then
    /// unwinds straight through.
    ///
    /// Not re-entrant: calling this from inside a `work` closure of the
    /// same pool deadlocks (the scope slot is single-occupancy).
    pub fn invoke_all_scoped<S, F>(&self, num_tasks: usize, locals: &mut [S], work: F)
    where
        S: Send,
        F: Fn(&mut S, usize) + Sync,
    {
        self.heal();
        let num_workers = self.num_workers();
        assert!(
            locals.len() > num_workers,
            "need one local slot per pool worker plus one for the caller \
             ({} workers, {} slots)",
            num_workers,
            locals.len()
        );
        if num_tasks == 0 {
            return;
        }
        let (worker_slots, caller_slots) = locals.split_at_mut(num_workers);
        let caller_slot = &mut caller_slots[0];
        if num_tasks == 1 || num_workers == 0 {
            for i in 0..num_tasks {
                work(caller_slot, i);
            }
            return;
        }

        let scope = Scope {
            header: ScopeHeader {
                next: AtomicUsize::new(0),
                num_tasks,
                attached: Latch::new(),
                panic: Mutex::new(None),
            },
            work: &work,
            locals: worker_slots.as_mut_ptr(),
            num_slots: worker_slots.len(),
        };

        // Publish the scope. A pool shared by several sessions serializes
        // batches here (single scope slot).
        {
            let mut state = self.shared.state.lock().expect("pool lock poisoned");
            while state.scoped.is_some() {
                state = self.shared.signal.wait(state).expect("pool lock poisoned");
            }
            state.scoped_seq += 1;
            state.scoped = Some(ScopedTask {
                seq: state.scoped_seq,
                header: &scope.header,
                data: &scope as *const Scope<S, F> as *const (),
                run: run_scope_worker::<S, F>,
            });
            drop(state);
            self.shared.signal.notify_all();
        }

        // The caller is a claimant too: on short batches it often drains
        // everything before a worker even wakes. Teardown runs when
        // `retract` drops, here or while the caller unwinds.
        let retract = Retract {
            shared: &self.shared,
            header: &scope.header,
        };
        scope.drive(caller_slot);
        drop(retract);

        let panic = scope
            .header
            .panic
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(payload) = panic {
            self.shared.panics_trapped.fetch_add(1, Ordering::Relaxed);
            resume_unwind(payload);
        }
    }

    /// The scoped `invokeAll` over disjoint output slots: runs
    /// `work(&mut locals[w], i, &mut slots[i])` once for every index `i`
    /// of `slots`, through
    /// [`invoke_all_scoped`](ThreadPool::invoke_all_scoped).
    ///
    /// Each task writes its own slot through a plain `&mut` (a chunk's
    /// λ-mapping, a tree level's output), so callers need no `unsafe`:
    /// the claim counter hands every index to exactly one claimant, and
    /// `slots` stays exclusively borrowed until the batch is quiescent.
    /// The claim is the batch's atomic index counter and nothing else —
    /// no lock, no allocation — so batches of many sub-microsecond tasks
    /// cost what [`invoke_all_scoped`](ThreadPool::invoke_all_scoped)
    /// costs.
    pub fn invoke_each<S, T, F>(&self, locals: &mut [S], slots: &mut [T], work: F)
    where
        S: Send,
        T: Send,
        F: Fn(&mut S, usize, &mut T) + Sync,
    {
        let slots = SlotBase(slots.as_mut_ptr(), slots.len());
        self.invoke_all_scoped(slots.1, locals, |local, i| {
            // SAFETY: the batch has one task per slot and
            // `invoke_all_scoped` runs each index exactly once, so no two
            // tasks alias a slot; `slots` stays exclusively borrowed by
            // this call until the batch is quiescent.
            work(local, i, unsafe { slots.get(i) });
        });
    }
}

/// The base and length of the slot slice an
/// [`invoke_each`](ThreadPool::invoke_each) batch borrows exclusively.
struct SlotBase<T>(*mut T, usize);

// SAFETY: the pointer is dereferenced only through `get`, whose contract
// gives every slot one claimant at a time, and the length is a plain
// `usize`; a `&mut T` handed to another thread needs `T: Send`.
unsafe impl<T: Send> Sync for SlotBase<T> {}

impl<T> SlotBase<T> {
    /// Slot `i`, bounds-checked.
    ///
    /// # Safety
    ///
    /// No other live reference may point at slot `i`.
    #[allow(clippy::mut_from_ref)]
    unsafe fn get(&self, i: usize) -> &mut T {
        assert!(i < self.1, "slot {i} out of {}", self.1);
        &mut *self.0.add(i)
    }
}

/// Spawns the worker thread for slot `index`. The top frame traps any
/// unwind escaping `worker_loop` (a later panic payload whose own `Drop`
/// panics) and records the death for the next batch's heal to repair.
fn spawn_worker(shared: &Arc<PoolShared>, index: usize) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(format!("ridfa-worker-{index}"))
        .spawn(move || {
            let outcome = catch_unwind(AssertUnwindSafe(|| worker_loop(&shared, index)));
            if let Err(payload) = outcome {
                // Record the death before touching the payload: dropping
                // it may panic *again*, and by then the bookkeeping must
                // already be visible to `heal`. Leak the payload instead
                // of risking that second unwind.
                std::mem::forget(payload);
                if let Ok(mut defunct) = shared.defunct.lock() {
                    defunct.push(index);
                }
                shared.dead.fetch_add(1, Ordering::Release);
            }
        })
        .expect("failed to spawn pool worker")
}

fn worker_loop(shared: &PoolShared, index: usize) {
    let mut last_seq = 0u64;
    let mut state = shared.state.lock().expect("pool lock poisoned");
    loop {
        if let Some(task) = state.scoped.filter(|t| t.seq != last_seq) {
            last_seq = task.seq;
            // SAFETY: the slot is published, so the scope is alive and
            // attaching under the pool lock is race-free (teardown clears
            // the slot under this same lock).
            unsafe { (*task.header).attached.attach() };
            drop(state);
            {
                let _guard = DetachGuard {
                    header: task.header,
                };
                // SAFETY: attached above; slot `index` is this worker's
                // exclusively (unique index, one batch entry per seq).
                unsafe { (task.run)(task.data, index) };
                // `_guard` detaches here, panic or not.
            }
            state = shared.state.lock().expect("pool lock poisoned");
        } else if state.shutdown {
            return;
        } else {
            state = shared.signal.wait(state).expect("pool lock poisoned");
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // No batch is in flight (each borrows the pool), so every worker
        // is parked or starting: it sees the flag and exits.
        if let Ok(mut state) = self.shared.state.lock() {
            state.shutdown = true;
        }
        self.shared.signal.notify_all();
        let handles = self
            .workers
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        for handle in handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Barrier;
    use std::time::{Duration, Instant};

    /// Runs `work(i)` for every `i in 0..num_tasks` as one batch.
    fn invoke(pool: &ThreadPool, num_tasks: usize, work: impl Fn(usize) + Sync) {
        let mut locals = vec![(); pool.num_workers() + 1];
        let mut slots = vec![(); num_tasks];
        pool.invoke_each(&mut locals, &mut slots, |_, i, _| work(i));
    }

    #[test]
    fn invoke_all_blocks_until_done() {
        let pool = ThreadPool::new(3);
        let sum = AtomicUsize::new(0);
        invoke(&pool, 10, |i| {
            sum.fetch_add(i + 1, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 55);
    }

    #[test]
    fn invoke_all_borrows_without_arc() {
        // The whole point of the scoped batch: plain borrows, no Arc.
        let data = [1u64, 2, 3, 4, 5];
        let pool = ThreadPool::new(2);
        let sum = AtomicUsize::new(0);
        invoke(&pool, data.len(), |i| {
            sum.fetch_add(data[i] as usize, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 15);
    }

    #[test]
    fn panicking_job_does_not_deadlock_invoke_all() {
        // The headline regression: before the drop-guard/drain protocol a
        // panicking task skipped its completion signal and the batch hung
        // forever. It must now return (by re-raising the panic).
        let pool = ThreadPool::new(2);
        let ran = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            invoke(&pool, 8, |i| {
                if i == 3 {
                    panic!("job 3 exploded");
                }
                ran.fetch_add(1, Ordering::Relaxed);
            });
        }));
        assert!(result.is_err(), "panic must propagate to the caller");

        // And the pool must still be fully alive afterwards.
        let sum = AtomicUsize::new(0);
        invoke(&pool, 16, |i| {
            sum.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 120);
    }

    #[test]
    fn scoped_invoke_keeps_worker_state_warm() {
        // Slots accumulate across calls: per-worker state is resident.
        let pool = ThreadPool::new(3);
        let mut locals = vec![0u64; pool.num_workers() + 1];
        for round in 0..5 {
            pool.invoke_all_scoped(64, &mut locals, |slot, _i| {
                *slot += 1;
            });
            let total: u64 = locals.iter().sum();
            assert_eq!(total, 64 * (round + 1), "round {round}");
        }
    }

    #[test]
    fn scoped_invoke_writes_disjoint_results_in_order() {
        let pool = ThreadPool::new(4);
        let results: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        let mut locals = vec![(); pool.num_workers() + 1];
        pool.invoke_all_scoped(100, &mut locals, |_, i| {
            results[i].fetch_add(i * i + 1, Ordering::Relaxed);
        });
        for (i, slot) in results.iter().enumerate() {
            assert_eq!(slot.load(Ordering::Relaxed), i * i + 1, "task {i}");
        }
    }

    #[test]
    fn invoke_each_hands_every_slot_to_one_claimant() {
        // Many rounds on a small pool: each slot is written by exactly
        // one claimant per round, never lost and never doubled.
        let pool = ThreadPool::new(3);
        let mut locals = vec![0usize; pool.num_workers() + 1];
        let mut slots = vec![0usize; 64];
        for round in 1..=200 {
            pool.invoke_each(&mut locals, &mut slots, |claims, i, slot| {
                *claims += 1;
                *slot += i + 1;
            });
            for (i, &slot) in slots.iter().enumerate() {
                assert_eq!(slot, round * (i + 1), "round {round} slot {i}");
            }
        }
        assert_eq!(locals.iter().sum::<usize>(), 200 * slots.len());
    }

    #[test]
    fn invoke_each_runs_one_task_per_slot() {
        let pool = ThreadPool::new(2);
        let mut locals = vec![(); pool.num_workers() + 1];
        let runs = AtomicUsize::new(0);
        let mut slots = [0u8; 3];
        pool.invoke_each(&mut locals, &mut slots, |_, _, slot| {
            runs.fetch_add(1, Ordering::Relaxed);
            *slot = 1;
        });
        assert_eq!(runs.load(Ordering::Relaxed), 3);
        assert_eq!(slots, [1, 1, 1]);
        // Zero slots and a single slot (run on the caller) both work.
        pool.invoke_each(&mut locals, &mut slots[..0], |_, _, slot| *slot = 2);
        pool.invoke_each(&mut locals, &mut slots[..1], |_, _, slot| *slot = 3);
        assert_eq!(slots, [3, 1, 1]);
    }

    #[test]
    fn invoke_each_re_raises_a_task_panic_and_the_pool_survives() {
        let pool = ThreadPool::new(2);
        let mut locals = vec![(); pool.num_workers() + 1];
        let mut slots = [0usize; 16];
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.invoke_each(&mut locals, &mut slots, |_, i, slot| {
                if i == 5 {
                    panic!("slot 5 exploded");
                }
                *slot = i;
            });
        }));
        assert!(result.is_err(), "panic must propagate to the caller");
        pool.invoke_each(&mut locals, &mut slots, |_, i, slot| *slot = i + 1);
        assert!(slots.iter().enumerate().all(|(i, &s)| s == i + 1));
    }

    #[test]
    fn drop_joins_workers_after_draining() {
        // Every worker holds the shared state until its thread ends, so
        // once the pool is dropped nothing may hold it any more.
        let pool = ThreadPool::new(2);
        let count = AtomicUsize::new(0);
        invoke(&pool, 20, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 20);
        let shared = Arc::downgrade(&pool.shared);
        drop(pool);
        assert!(shared.upgrade().is_none(), "a worker outlived its pool");
    }

    #[test]
    fn zero_workers_run_every_task_on_the_caller() {
        let pool = ThreadPool::new(0);
        assert_eq!(pool.num_workers(), 0);
        let h = pool.health();
        assert_eq!((h.configured, h.live), (0, 0));
        let caller = std::thread::current().id();
        let mut locals = [0usize];
        let mut slots = [None; 5];
        pool.invoke_each(&mut locals, &mut slots, |claims, _, slot| {
            *claims += 1;
            *slot = Some(std::thread::current().id());
        });
        assert_eq!(locals, [5]);
        assert!(slots.iter().all(|&id| id == Some(caller)));
    }

    #[test]
    fn concurrent_invoke_all_callers_serialize_on_the_scope_slot() {
        // Several threads sharing one pool: batches take the (single)
        // scope slot in turn; every task of every batch must still run.
        let pool = Arc::new(ThreadPool::new(2));
        let total = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let pool = Arc::clone(&pool);
                let total = Arc::clone(&total);
                scope.spawn(move || {
                    for _ in 0..8 {
                        invoke(&pool, 16, |_| {
                            total.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 4 * 8 * 16);
    }

    #[test]
    fn sequential_batches_reuse_the_pool() {
        let pool = ThreadPool::new(2);
        for n in [1usize, 2, 7, 33] {
            let count = AtomicUsize::new(0);
            invoke(&pool, n, |_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(count.load(Ordering::Relaxed), n);
        }
    }

    /// A panic payload whose own `Drop` panics: a claimant that drops it
    /// outside a panic unwinds, and a worker thread that does so dies.
    struct DropBomb;

    impl Drop for DropBomb {
        fn drop(&mut self) {
            if !std::thread::panicking() {
                panic!("drop bomb detonated");
            }
        }
    }

    /// Waits (bounded) until `pool.health().live` drops to `expect`.
    fn wait_for_live(pool: &ThreadPool, expect: usize) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while pool.health().live != expect {
            assert!(
                Instant::now() < deadline,
                "worker death never recorded: {:?}",
                pool.health()
            );
            std::thread::yield_now();
        }
    }

    /// Kills `n` workers (fewer than the pool has) in one batch: a
    /// barrier gives each claimant one task, `n + 1` workers panic with a
    /// [`DropBomb`], the first payload is kept and re-raised on the caller
    /// (leaked here, since dropping it would panic) and every later one
    /// is dropped on its worker, which dies.
    fn kill(pool: &ThreadPool, n: usize) {
        assert!(n < pool.num_workers(), "one worker must survive");
        let live = pool.health().live;
        let claimants = pool.num_workers() + 1;
        let barrier = Barrier::new(claimants);
        let caller = std::thread::current().id();
        let bombs = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            invoke(pool, claimants, |_| {
                barrier.wait();
                if std::thread::current().id() != caller
                    && bombs.fetch_add(1, Ordering::Relaxed) <= n
                {
                    std::panic::panic_any(DropBomb);
                }
            });
        }));
        let payload = result.expect_err("the first bomb is re-raised on the caller");
        assert!(
            payload.is::<DropBomb>(),
            "the first payload, not a poison error"
        );
        std::mem::forget(payload);
        wait_for_live(pool, live - n);
    }

    #[test]
    fn fresh_pool_health_is_all_live() {
        let pool = ThreadPool::new(3);
        let h = pool.health();
        assert_eq!(h.configured, 3);
        assert_eq!(h.live, 3);
        assert_eq!(h.panics_trapped, 0);
        assert_eq!(h.respawns, 0);
        pool.heal();
        assert_eq!(pool.health(), h);
    }

    #[test]
    fn killed_worker_is_respawned_and_pool_keeps_working() {
        let pool = ThreadPool::new(2);
        kill(&pool, 1);
        // The slot the dying worker poisoned still re-raised the first
        // payload, and the pool counted it.
        assert_eq!(pool.health().panics_trapped, 1);

        pool.heal();
        let h = pool.health();
        assert_eq!(h.live, 2, "{h:?}");
        assert_eq!(h.respawns, 1);

        let sum = AtomicUsize::new(0);
        invoke(&pool, 16, |i| {
            sum.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 120);
    }

    #[test]
    fn submission_paths_heal_implicitly() {
        let pool = ThreadPool::new(3);
        kill(&pool, 2);
        // No explicit heal(): the batch's head heals before running.
        let count = AtomicUsize::new(0);
        invoke(&pool, 8, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 8);
        assert_eq!(pool.health().live, 3);
        assert_eq!(pool.health().respawns, 2);
    }

    #[test]
    fn repeated_deaths_all_respawn_under_budget() {
        let pool = ThreadPool::new(2);
        for round in 1..=3u64 {
            kill(&pool, 1);
            pool.heal();
            assert_eq!(pool.health().respawns, round);
            let count = AtomicUsize::new(0);
            invoke(&pool, 4, |_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(count.load(Ordering::Relaxed), 4);
        }
    }

    #[test]
    fn a_caller_unwinding_out_of_its_claim_still_drains_the_batch() {
        // Worker 0 panics first; the caller panics 50 ms later with a
        // payload whose drop panics, so its own claim unwinds out of the
        // batch while worker 1 is still inside its task, which borrows
        // the caller's frame. The batch must not end before that task.
        // The sleeps only order the events so that a batch which skips
        // its teardown on unwind is caught; a sound batch passes in any
        // order, since it always waits for worker 1.
        let pool = ThreadPool::new(2);
        let mut locals = [0usize, 1, 2]; // worker 0, worker 1, the caller
        let mut slots = [(); 3];
        let barrier = Barrier::new(3);
        let first = AtomicBool::new(false);
        let finished = AtomicBool::new(false);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.invoke_each(&mut locals, &mut slots, |&mut claimant, _, _| {
                barrier.wait();
                match claimant {
                    0 => {
                        first.store(true, Ordering::SeqCst);
                        panic!("worker 0 panics first");
                    }
                    1 => {
                        std::thread::sleep(Duration::from_millis(300));
                        finished.store(true, Ordering::SeqCst);
                    }
                    _ => {
                        while !first.load(Ordering::SeqCst) {
                            std::thread::yield_now();
                        }
                        std::thread::sleep(Duration::from_millis(50));
                        std::panic::panic_any(DropBomb);
                    }
                }
            });
        }));
        // Leak whichever payload came out: a `DropBomb` would panic again.
        std::mem::forget(result.expect_err("the caller's claim unwound"));
        if !finished.load(Ordering::SeqCst) {
            // Worker 1 still runs on the freed scope: dropping the pool
            // would join it, which may never return.
            std::mem::forget(pool);
            panic!("the batch ended while worker 1 was still in its task");
        }
        // No worker died, and the pool serves the next batch.
        assert_eq!(pool.health().live, 2);
        let count = AtomicUsize::new(0);
        invoke(&pool, 8, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 8);
    }
}
