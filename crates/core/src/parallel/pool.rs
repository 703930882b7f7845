//! A persistent worker pool — the `ExecutorService` analogue.
//!
//! Recognition traffic is dominated by *short* texts: spawning `c` OS
//! threads per text (as the scoped executor does) costs more than the
//! scan itself once chunks drop below a few tens of kilobytes. The pool
//! keeps `n` workers parked on a condvar and offers three submission
//! paths:
//!
//! * [`ThreadPool::execute`] — fire-and-forget boxed `'static` jobs
//!   (queued behind a mutex, like a classic executor);
//! * [`ThreadPool::invoke_all_scoped`] — the hot path: a *scoped*
//!   `invokeAll` over **borrowed** data with **per-worker resident
//!   state**. No `Arc`, no boxing, no channel node: the call publishes a
//!   raw descriptor of a stack-resident scope, workers claim task indices
//!   from an atomic counter, and each worker reuses its own long-lived
//!   slot of caller-provided state (the reach phase keeps one scan
//!   `Scratch` per worker warm across *texts*, not just across the chunks
//!   of one text). A warm call performs zero heap allocations;
//! * [`ThreadPool::invoke_each`] — the same batch over a slice of
//!   disjoint output slots: task `i` gets `&mut slots[i]`, so every
//!   pooled scan writes its own output slot through a plain `&mut`, and
//!   its callers need no `unsafe` at all: the scope protocol below and
//!   the one-claimant-per-index slot hand-out are the only `unsafe`
//!   code behind either scoped path.
//!
//! Panic safety (the liveness contract): a panicking job can neither kill
//! a worker (each job runs under `catch_unwind`) nor strand a caller —
//! scoped workers detach through a drop guard, so the invoking thread
//! always drains, and the first panic payload is re-raised on the caller
//! once the scope is quiescent. The same guard pattern is available to
//! manual [`execute`](ThreadPool::execute)/[`WaitGroup`] users via
//! [`WaitGroup::done_guard`].
//!
//! Self-healing (the availability contract): `catch_unwind` cannot trap
//! everything — a panic payload whose own `Drop` panics, or a panic from
//! the worker's bookkeeping, unwinds the worker thread itself. Each
//! worker's top frame records such a death in the shared defunct list;
//! [`heal`](ThreadPool::heal) (called automatically at the head of every
//! submission) joins the corpse and respawns a fresh worker under the
//! same slot index, up to a configurable respawn budget.
//! [`health`](ThreadPool::health) reports live workers, trapped panics,
//! and respawns so callers can degrade (e.g. to a serial executor) when
//! the pool falls [below quorum](PoolHealth::below_quorum). Correctness
//! never depends on worker liveness: the scoped caller is itself a
//! claimant and drains every task even with zero live workers.
//!
//! Built entirely on `std::sync`; no external runtime dependency.

// The scoped path shares caller-stack data with workers through raw
// pointers; every dereference is justified by the attach/drain protocol
// documented on `ScopeHeader`, and `invoke_each`'s slot hand-out by the
// one-claimant-per-index contract on `SlotBase`.
#![allow(unsafe_code)]

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

type Job = Box<dyn FnOnce() + Send + 'static>;
type PanicPayload = Box<dyn Any + Send + 'static>;

/// A fixed-size pool of worker threads executing boxed jobs and scoped
/// borrowed-data batches. Workers that die abnormally are respawned by
/// [`heal`](ThreadPool::heal); see [`health`](ThreadPool::health).
pub struct ThreadPool {
    shared: Arc<PoolShared>,
    /// Worker handles by slot index; `None` while a dead slot awaits
    /// respawn (or permanently, once the respawn budget is spent).
    workers: Mutex<Vec<Option<std::thread::JoinHandle<()>>>>,
    /// The worker count the pool was built with (stable across deaths).
    configured: usize,
    /// Maximum number of respawns over the pool's lifetime.
    respawn_limit: u64,
    /// Respawns performed so far.
    respawns: AtomicU64,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Signaled on every state change: new job, new scope, scope slot
    /// freed, shutdown. Workers and scope-slot waiters both park here.
    signal: Condvar,
    /// Panics contained by the pool: queued jobs trapped in the worker
    /// loop plus scoped-task panics re-raised on their caller.
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
    /// Workers currently alive (configured minus unhealed deaths).
    pub live: usize,
    /// Panics the pool has contained so far (queued-job panics trapped in
    /// the worker loop and scoped-task panics re-raised on the caller).
    pub panics_trapped: u64,
    /// Workers respawned after an abnormal death.
    pub respawns: u64,
}

impl PoolHealth {
    /// True when fewer than half of the configured workers are alive —
    /// the point at which sessions degrade to serial execution rather
    /// than run speculation on a gutted pool.
    pub fn below_quorum(&self) -> bool {
        self.live * 2 < self.configured
    }
}

struct PoolState {
    /// One-shot boxed jobs ([`ThreadPool::execute`]).
    queue: VecDeque<Job>,
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
/// tears down by clearing `PoolState::scoped` under the same lock and
/// then blocking until the attach count drains to zero. Hence every
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
    fn store_panic(&self, payload: PanicPayload) {
        let mut slot = self.panic.lock().expect("scope panic slot poisoned");
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

    fn wait_zero(&self) {
        let mut count = self.count.lock().expect("latch poisoned");
        while *count > 0 {
            count = self.zero.wait(count).expect("latch poisoned");
        }
    }
}

impl ThreadPool {
    /// Spawns `num_workers` (≥ 1) parked worker threads with an unlimited
    /// respawn budget.
    pub fn new(num_workers: usize) -> ThreadPool {
        ThreadPool::with_respawn_limit(num_workers, u64::MAX)
    }

    /// Spawns `num_workers` (≥ 1) parked worker threads, respawning at
    /// most `respawn_limit` dead workers over the pool's lifetime. A
    /// limit of 0 makes every worker death permanent — useful to test
    /// the degraded (below-quorum) path deterministically.
    pub fn with_respawn_limit(num_workers: usize, respawn_limit: u64) -> ThreadPool {
        let num_workers = num_workers.max(1);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                scoped: None,
                scoped_seq: 0,
                shutdown: false,
            }),
            signal: Condvar::new(),
            panics_trapped: AtomicU64::new(0),
            dead: AtomicUsize::new(0),
            defunct: Mutex::new(Vec::new()),
        });
        // Block until every worker has bootstrapped and entered its
        // loop: OS thread start-up allocates on the child thread, and a
        // lazily scheduled worker would otherwise pay that inside some
        // later (supposedly allocation-free) batch.
        let started = WaitGroup::new(num_workers);
        let workers = (0..num_workers)
            .map(|index| Some(spawn_worker(&shared, index, Some(started.clone()))))
            .collect();
        started.wait();
        ThreadPool {
            shared,
            workers: Mutex::new(workers),
            configured: num_workers,
            respawn_limit,
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
    /// the same slot indices, up to the respawn budget. Returns the
    /// number of workers respawned. Called automatically at the head of
    /// [`execute`](ThreadPool::execute) and
    /// [`invoke_all_scoped`](ThreadPool::invoke_all_scoped); the fast
    /// path (no deaths) is a single relaxed atomic load.
    pub fn heal(&self) -> usize {
        if self.shared.dead.load(Ordering::Acquire) == 0 {
            return 0;
        }
        let mut handles = self.workers.lock().expect("pool worker list poisoned");
        let defunct: Vec<usize> = {
            let mut list = self.shared.defunct.lock().expect("defunct list poisoned");
            list.drain(..).collect()
        };
        let mut respawned = 0;
        for index in defunct {
            // Reap the corpse so the OS thread is not leaked.
            if let Some(handle) = handles[index].take() {
                let _ = handle.join();
            }
            if self.respawns.load(Ordering::Relaxed) >= self.respawn_limit {
                // Budget spent: the slot stays dead and `health()` keeps
                // reporting it, letting sessions degrade.
                continue;
            }
            handles[index] = Some(spawn_worker(&self.shared, index, None));
            self.respawns.fetch_add(1, Ordering::Relaxed);
            self.shared.dead.fetch_sub(1, Ordering::Release);
            respawned += 1;
        }
        respawned
    }

    /// Submits a fire-and-forget job (runs as soon as a worker is free).
    /// A panicking job is contained by the worker; pair with a
    /// [`WaitGroup`] and [`WaitGroup::done_guard`] to observe completion
    /// robustly.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        self.heal();
        let mut state = self.shared.state.lock().expect("pool lock poisoned");
        assert!(!state.shutdown, "pool is shutting down");
        state.queue.push_back(Box::new(job));
        drop(state);
        self.shared.signal.notify_all();
    }

    /// Submits `num_tasks` indexed jobs and blocks until all complete —
    /// the `invokeAll` pattern. `work` may borrow from the caller's
    /// frame. If any task panics, the panic is re-raised here *after*
    /// every in-flight task has finished (no deadlock, no leaked
    /// borrows); the pool remains fully usable.
    pub fn invoke_all(&self, num_tasks: usize, work: impl Fn(usize) + Sync) {
        let mut locals = vec![(); self.num_workers() + 1];
        self.invoke_all_scoped(num_tasks, &mut locals, |_, i| work(i));
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
    /// Tasks are claimed dynamically from an atomic counter, so skewed
    /// task costs self-balance exactly like the scoped team executor.
    /// Panics in tasks are contained and the first one is re-raised here
    /// once the batch is quiescent.
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
        if num_tasks == 1 {
            // Single task: not worth waking the pool.
            work(caller_slot, 0);
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
        // everything before a worker even wakes.
        scope.drive(caller_slot);

        // Teardown: retract the descriptor, then wait for attached
        // workers to finish their in-flight tasks.
        {
            let mut state = self.shared.state.lock().expect("pool lock poisoned");
            state.scoped = None;
            drop(state);
            self.shared.signal.notify_all();
        }
        scope.header.attached.wait_zero();

        let panic = scope
            .header
            .panic
            .lock()
            .expect("scope panic slot poisoned")
            .take();
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
/// unwind escaping `worker_loop` (e.g. a panic payload whose own `Drop`
/// panics) and records the death for [`ThreadPool::heal`] to repair.
fn spawn_worker(
    shared: &Arc<PoolShared>,
    index: usize,
    started: Option<WaitGroup>,
) -> std::thread::JoinHandle<()> {
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(format!("ridfa-worker-{index}"))
        .spawn(move || {
            if let Some(started) = &started {
                started.done();
            }
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
        // Scoped batches take priority: a blocked invoke_all_scoped
        // caller is latency-sensitive, queued jobs are not.
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
            continue;
        }
        if let Some(job) = state.queue.pop_front() {
            drop(state);
            // Contain panics so one bad job cannot kill the worker. Count
            // the trap *before* dropping the payload: if the payload's
            // own `Drop` panics, that unwind escapes this loop (no lock
            // held here) and is recorded as a worker death by
            // `spawn_worker`'s top frame.
            let trapped = catch_unwind(AssertUnwindSafe(job));
            if trapped.is_err() {
                shared.panics_trapped.fetch_add(1, Ordering::Relaxed);
            }
            drop(trapped);
            state = shared.state.lock().expect("pool lock poisoned");
            continue;
        }
        if state.shutdown {
            return;
        }
        state = shared.signal.wait(state).expect("pool lock poisoned");
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Workers drain outstanding queued jobs (the queue is checked
        // before the shutdown flag) and exit.
        if let Ok(mut state) = self.shared.state.lock() {
            state.shutdown = true;
        }
        self.shared.signal.notify_all();
        let mut handles = self
            .workers
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        for handle in handles.drain(..).flatten() {
            let _ = handle.join();
        }
    }
}

/// Counts outstanding jobs; `wait` parks until the count reaches zero.
#[derive(Clone)]
pub struct WaitGroup {
    inner: Arc<WaitGroupInner>,
}

struct WaitGroupInner {
    remaining: Mutex<usize>,
    all_done: Condvar,
}

impl WaitGroup {
    /// Creates a group expecting `count` completions.
    pub fn new(count: usize) -> WaitGroup {
        WaitGroup {
            inner: Arc::new(WaitGroupInner {
                remaining: Mutex::new(count),
                all_done: Condvar::new(),
            }),
        }
    }

    /// Marks one job complete.
    pub fn done(&self) {
        let mut remaining = self.inner.remaining.lock().expect("waitgroup poisoned");
        *remaining = remaining
            .checked_sub(1)
            .expect("WaitGroup::done called more times than jobs");
        if *remaining == 0 {
            self.inner.all_done.notify_all();
        }
    }

    /// Returns a guard that calls [`done`](WaitGroup::done) when dropped —
    /// **including on unwind**. Jobs submitted via
    /// [`ThreadPool::execute`] should take one at entry so a panicking
    /// job can never strand a [`wait`](WaitGroup::wait)ing caller.
    pub fn done_guard(&self) -> DoneGuard {
        DoneGuard {
            group: self.clone(),
        }
    }

    /// Blocks until every job has called [`done`](WaitGroup::done).
    pub fn wait(&self) {
        let mut remaining = self.inner.remaining.lock().expect("waitgroup poisoned");
        while *remaining > 0 {
            remaining = self
                .inner
                .all_done
                .wait(remaining)
                .expect("waitgroup poisoned");
        }
    }
}

/// Calls [`WaitGroup::done`] exactly once on drop (see
/// [`WaitGroup::done_guard`]).
pub struct DoneGuard {
    group: WaitGroup,
}

impl Drop for DoneGuard {
    fn drop(&mut self) {
        self.group.done();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn executes_all_jobs() {
        let pool = ThreadPool::new(4);
        let hits = Arc::new(AtomicUsize::new(0));
        let wg = WaitGroup::new(50);
        for _ in 0..50 {
            let hits = Arc::clone(&hits);
            let wg = wg.clone();
            pool.execute(move || {
                let _done = wg.done_guard();
                hits.fetch_add(1, Ordering::Relaxed);
            });
        }
        wg.wait();
        assert_eq!(hits.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn invoke_all_blocks_until_done() {
        let pool = ThreadPool::new(3);
        let sum = AtomicUsize::new(0);
        pool.invoke_all(10, |i| {
            sum.fetch_add(i + 1, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 55);
    }

    #[test]
    fn invoke_all_borrows_without_arc() {
        // The whole point of the scoped rewrite: plain borrows, no Arc.
        let data = [1u64, 2, 3, 4, 5];
        let pool = ThreadPool::new(2);
        let sum = AtomicUsize::new(0);
        pool.invoke_all(data.len(), |i| {
            sum.fetch_add(data[i] as usize, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 15);
    }

    #[test]
    fn panicking_job_does_not_deadlock_invoke_all() {
        // The headline regression: before the drop-guard/drain protocol a
        // panicking job skipped its completion signal and `invoke_all`
        // hung forever. It must now return (by re-raising the panic).
        let pool = ThreadPool::new(2);
        let ran = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.invoke_all(8, |i| {
                if i == 3 {
                    panic!("job 3 exploded");
                }
                ran.fetch_add(1, Ordering::Relaxed);
            });
        }));
        assert!(result.is_err(), "panic must propagate to the caller");

        // And the pool must still be fully alive afterwards.
        let sum = AtomicUsize::new(0);
        pool.invoke_all(16, |i| {
            sum.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 120);
    }

    #[test]
    fn panicking_queued_job_does_not_kill_workers() {
        let pool = ThreadPool::new(1);
        let wg = WaitGroup::new(2);
        {
            let wg = wg.clone();
            pool.execute(move || {
                let _done = wg.done_guard();
                panic!("queued job exploded");
            });
        }
        {
            let wg = wg.clone();
            pool.execute(move || {
                let _done = wg.done_guard();
            });
        }
        // With a single worker, the second job only runs if the worker
        // survived the first one's panic.
        wg.wait();
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
        let hits = Arc::new(AtomicUsize::new(0));
        {
            let pool = ThreadPool::new(2);
            for _ in 0..20 {
                let hits = Arc::clone(&hits);
                pool.execute(move || {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            }
            // Pool dropped here: all 20 jobs must still run.
        }
        assert_eq!(hits.load(Ordering::Relaxed), 20);
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let pool = ThreadPool::new(0);
        assert_eq!(pool.num_workers(), 1);
        let flag = AtomicUsize::new(0);
        pool.invoke_all(1, |_| {
            flag.store(7, Ordering::Relaxed);
        });
        assert_eq!(flag.load(Ordering::Relaxed), 7);
    }

    #[test]
    fn waitgroup_with_zero_jobs_returns_immediately() {
        WaitGroup::new(0).wait();
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
                        pool.invoke_all(16, |_| {
                            total.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 4 * 8 * 16);
    }

    #[test]
    fn queued_jobs_and_scoped_batches_interleave() {
        let pool = ThreadPool::new(2);
        let queued = Arc::new(AtomicUsize::new(0));
        let wg = WaitGroup::new(32);
        for _ in 0..32 {
            let queued = Arc::clone(&queued);
            let wg = wg.clone();
            pool.execute(move || {
                let _done = wg.done_guard();
                queued.fetch_add(1, Ordering::Relaxed);
            });
        }
        let scoped = AtomicUsize::new(0);
        pool.invoke_all(64, |_| {
            scoped.fetch_add(1, Ordering::Relaxed);
        });
        wg.wait();
        assert_eq!(queued.load(Ordering::Relaxed), 32);
        assert_eq!(scoped.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn sequential_batches_reuse_the_pool() {
        let pool = ThreadPool::new(2);
        for n in [1usize, 2, 7, 33] {
            let count = AtomicUsize::new(0);
            pool.invoke_all(n, |_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(count.load(Ordering::Relaxed), n);
        }
    }

    /// A panic payload whose own `Drop` panics: the one thing
    /// `catch_unwind` in the worker loop cannot contain, so it kills the
    /// worker thread (deterministically — the payload is dropped right
    /// after the trap).
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
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while pool.health().live != expect {
            assert!(
                std::time::Instant::now() < deadline,
                "worker death never recorded: {:?}",
                pool.health()
            );
            std::thread::yield_now();
        }
    }

    #[test]
    fn fresh_pool_health_is_all_live() {
        let pool = ThreadPool::new(3);
        let h = pool.health();
        assert_eq!(h.configured, 3);
        assert_eq!(h.live, 3);
        assert_eq!(h.panics_trapped, 0);
        assert_eq!(h.respawns, 0);
        assert!(!h.below_quorum());
        assert_eq!(pool.heal(), 0);
    }

    #[test]
    fn killed_worker_is_respawned_and_pool_keeps_working() {
        let pool = ThreadPool::new(2);
        pool.execute(|| std::panic::panic_any(DropBomb));
        wait_for_live(&pool, 1);

        assert_eq!(pool.heal(), 1);
        let h = pool.health();
        assert_eq!(h.live, 2, "{h:?}");
        assert_eq!(h.respawns, 1);
        assert!(h.panics_trapped >= 1, "the original panic was trapped");

        let sum = AtomicUsize::new(0);
        pool.invoke_all(16, |i| {
            sum.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 120);
    }

    #[test]
    fn submission_paths_heal_implicitly() {
        let pool = ThreadPool::new(2);
        pool.execute(|| std::panic::panic_any(DropBomb));
        wait_for_live(&pool, 1);
        // No explicit heal(): invoke_all's entry heals before running.
        let count = AtomicUsize::new(0);
        pool.invoke_all(8, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 8);
        assert_eq!(pool.health().live, 2);
        assert_eq!(pool.health().respawns, 1);
    }

    #[test]
    fn respawn_limit_zero_leaves_pool_degraded_but_functional() {
        let pool = ThreadPool::with_respawn_limit(1, 0);
        pool.execute(|| std::panic::panic_any(DropBomb));
        wait_for_live(&pool, 0);

        assert_eq!(pool.heal(), 0, "respawn budget of 0 must not respawn");
        let h = pool.health();
        assert_eq!(h.live, 0);
        assert_eq!(h.respawns, 0);
        assert!(h.below_quorum());

        // Scoped batches still complete: the caller is a claimant and
        // drains every task itself.
        let sum = AtomicUsize::new(0);
        pool.invoke_all(8, |i| {
            sum.fetch_add(i + 1, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 36);
    }

    #[test]
    fn repeated_deaths_all_respawn_under_budget() {
        let pool = ThreadPool::new(1);
        for round in 1..=3u64 {
            pool.execute(|| std::panic::panic_any(DropBomb));
            wait_for_live(&pool, 0);
            assert_eq!(pool.heal(), 1);
            assert_eq!(pool.health().respawns, round);
            let count = AtomicUsize::new(0);
            pool.invoke_all(4, |_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(count.load(Ordering::Relaxed), 4);
        }
    }
}
