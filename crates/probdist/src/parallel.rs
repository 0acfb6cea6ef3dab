//! The persistent work-stealing execution engine shared by every
//! simulation layer.
//!
//! # Scheduling model
//!
//! A [`Pool`] owns `workers - 1` **long-lived worker threads**, spawned
//! once when the pool is created and parked on a condvar between fan-outs
//! (the calling thread is the pool's remaining worker). A fan-out
//! ([`Pool::run_indexed_with`]) registers itself in the pool's registry,
//! wakes parked workers, and participates in the work itself; when the
//! last index is claimed the workers detach and park again. No threads
//! are spawned per fan-out, so scheduling a short study costs two condvar
//! signals instead of a `thread::scope` spawn/join cycle.
//!
//! Work is claimed in **adaptive batches**: each claim takes
//! `max(1, remaining / (2 * workers))` consecutive indices from a shared
//! atomic counter, so early claims move in large strides (amortising the
//! atomic traffic across thousands of replications) while late claims
//! shrink to single indices (so a fast worker steals the tail from a slow
//! one instead of idling). Results are written straight into a
//! caller-owned slot per index — no channels, no per-result allocation —
//! and handed back **in index order**.
//!
//! # Nested-pool arbitration
//!
//! While `run_indexed_with` executes, the pool installs itself as the
//! thread's *ambient* pool (workers carry it permanently). A nested fan-out
//! — e.g. a `Study` running scenarios, each of which fans out its own
//! replications through [`replicate_with`] — registers on the **same** pool
//! instead of spawning a second one: the process never runs more than
//! `workers` busy threads. Each registration takes the next **sequence
//! number**, so a fan-out registered from inside another's task is always
//! newer than it. Workers prefer the **newest** registered fan-out with
//! unclaimed work, so nested replication fan-outs drain first and their
//! waiting scenario can retire.
//!
//! A fan-out's submitting thread always participates in its own fan-out.
//! When its claims run out it *quiesces*: it unregisters the fan-out and
//! waits until every worker attached to it has detached. While it waits it
//! **helps**: it attaches to the newest registered fan-out that is newer
//! than its own and still has unclaimed work, through the same
//! attach-run-detach step a parked worker uses, and like a parked worker
//! without its own ambient [`cancel_scope`] token. At two workers the
//! newer fan-outs are the ones its last attached worker registers
//! underneath it, so a study whose heaviest scenario landed on the pool
//! thread still runs that scenario's replications on both threads. A
//! helper leaves the helped fan-out between batches once nothing is
//! attached to its own, so a detour into an unrelated newer fan-out —
//! possible at three or more workers, or when two submitting threads share
//! a pool — delays its return by at most one batch.
//!
//! **Deadlock freedom.** A thread quiescing on fan-out F waits only on
//! threads attached to F. Each of those is running F's tasks, or is
//! blocked quiescing on a fan-out that one of F's tasks registered, which
//! is a fan-out registered after F. Wait chains therefore strictly
//! increase in sequence number and cannot cycle; each ends at a thread
//! that is running tasks. Helping keeps the order, because a helper only
//! attaches to fan-outs newer than the one it quiesces on. The argument
//! assumes tasks wait on one another only through nested fan-outs: a task
//! that blocks until some other fan-out's submitter returns can deadlock
//! if that submitter is the thread helping to run it.
//!
//! **Stack bound.** Every help frame is for a fan-out newer than the one
//! below it on the thread's stack, and every fan-out on a stack is alive
//! (registered, or quiescing in its submitter's frame). The sessions on
//! one stack therefore belong to distinct live fan-outs in increasing
//! sequence order. When the newer fan-outs are nested under the helper's
//! own, as at two workers, the helper's stack grows no deeper than that
//! of a pool worker attached to the same nested fan-out.
//!
//! # The two fan-outs
//!
//! [`Pool::run_indexed_with`] runs `task(index)` over `0..count` on one
//! pool; [`replicate_with`] runs replications over an index range, each
//! with its own RNG stream, on the ambient pool (or a cached one). Both
//! thread a per-worker scratch value (created by an `init` closure once
//! per participating worker, reused across every index that worker
//! claims) through the task. The simulation kernels use this to make a
//! replication allocation-free: heaps, accumulators, and markings are
//! allocated once per worker and reset per replication.
//!
//! Both take an optional [`CancelToken`], checked between batch claims,
//! and return the results of the completed **contiguous index prefix**: a
//! result shorter than asked means the token fired. The token is an
//! argument, never picked up from the ambient [`cancel_scope`], so a
//! fan-out that was not handed one always runs to completion.
//!
//! # Determinism
//!
//! [`replicate_with`] runs one closure per replication index, each with the
//! RNG stream derived from `(root seed, index)`, and collects the results
//! **in index order**. Because the stream depends only on the index and the
//! collection order is fixed, the returned vector is bit-identical for any
//! worker count, any batch size, and any scheduling interleaving — the
//! invariant the SAN experiment runner, the storage Monte-Carlo, and the
//! `Study` runner all rely on. Per-worker scratch must not carry state
//! *between* replications that influences results; the kernels only cache
//! allocations in it.

use std::any::Any;
use std::cell::RefCell;
use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use crate::SimRng;

/// Minimum batch size worth engaging worker threads for.
const MIN_PARALLEL_COUNT: usize = 4;

/// A cooperative cancellation token threaded through the pool's batch-claim
/// loop by the fan-outs that are handed one ([`Pool::run_indexed_with`],
/// [`replicate_with`]).
///
/// A token fires either because [`CancelToken::cancel`] was called or
/// because its optional deadline passed. Cancellation is *cooperative*:
/// workers observe the token **between** batch claims, so every batch that
/// was already claimed runs to completion — which is what keeps the
/// completed work a contiguous index prefix (claims come from one shared
/// monotone counter) and therefore statistically usable: the first `k`
/// replication streams are exactly the ones a fixed run of `k` would have
/// drawn.
///
/// Once observed, the deadline latches into the cancelled flag, so
/// repeated checks after expiry cost one relaxed atomic load. A fan-out
/// handed no token pays one `Option` test per claim.
#[derive(Clone, Debug)]
pub struct CancelToken {
    inner: Arc<CancelState>,
}

#[derive(Debug)]
struct CancelState {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that only fires when [`CancelToken::cancel`] is called.
    pub fn new() -> CancelToken {
        CancelToken {
            inner: Arc::new(CancelState { cancelled: AtomicBool::new(false), deadline: None }),
        }
    }

    /// A token that fires `budget` from now (or earlier, via
    /// [`CancelToken::cancel`]).
    pub fn with_deadline(budget: Duration) -> CancelToken {
        CancelToken {
            inner: Arc::new(CancelState {
                cancelled: AtomicBool::new(false),
                deadline: Some(Instant::now() + budget),
            }),
        }
    }

    /// Fires the token. Idempotent; visible to every clone.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether the token has fired (explicitly or by deadline).
    pub fn is_cancelled(&self) -> bool {
        if self.inner.cancelled.load(Ordering::Relaxed) {
            return true;
        }
        match self.inner.deadline {
            Some(deadline) if Instant::now() >= deadline => {
                // Latch, so later checks skip the clock read.
                self.inner.cancelled.store(true, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

thread_local! {
    /// Stack of cancellation tokens installed on this thread; the
    /// innermost one is what [`current_cancel_token`] returns.
    static AMBIENT_CANCEL: RefCell<Vec<CancelToken>> = const { RefCell::new(Vec::new()) };
}

/// Runs `body` with `token` installed as this thread's ambient
/// cancellation token (see [`current_cancel_token`]). Nested scopes stack;
/// the token uninstalls when `body` returns or unwinds.
///
/// A study scheduler installs its deadline token around each scenario so
/// that a scenario's evaluator can pick it up without every intermediate
/// layer threading it through its signature; the evaluator then hands it
/// to its fan-outs explicitly.
///
/// Of the fan-out tasks, only those this thread runs of its own fan-outs
/// see the token. A pool worker never sees it, and a submitter that helps
/// another fan-out while quiescing sets it aside, because that fan-out's
/// tasks may belong to another study.
pub fn cancel_scope<R>(token: &CancelToken, body: impl FnOnce() -> R) -> R {
    struct PopGuard;
    impl Drop for PopGuard {
        fn drop(&mut self) {
            AMBIENT_CANCEL.with(|stack| {
                stack.borrow_mut().pop();
            });
        }
    }
    AMBIENT_CANCEL.with(|stack| stack.borrow_mut().push(token.clone()));
    let _guard = PopGuard;
    body()
}

/// The innermost cancellation token installed on the current thread by an
/// enclosing [`cancel_scope`], if any.
pub fn current_cancel_token() -> Option<CancelToken> {
    AMBIENT_CANCEL.with(|stack| stack.borrow().last().cloned())
}

/// Runs `body` with this thread's ambient cancellation tokens set aside,
/// as a session attached from the registry runs (see [`cancel_scope`]).
/// `body` must not unwind; pool sessions never do.
fn without_ambient_cancel<R>(body: impl FnOnce() -> R) -> R {
    let saved = AMBIENT_CANCEL.with(RefCell::take);
    let result = body();
    AMBIENT_CANCEL.with(|stack| *stack.borrow_mut() = saved);
    result
}

/// The typed panic payload the engine forwards when a work unit panics:
/// the original payload wrapped with the index of the work unit (for
/// [`replicate_with`], the replication index) that raised it.
///
/// Downcast the payload caught from a fan-out to this type to recover the
/// failing index and a displayable message; [`panic_message`] extracts the
/// message whether or not the payload was wrapped.
#[derive(Debug)]
pub struct WorkUnitPanic {
    index: usize,
    payload: Box<dyn Any + Send>,
}

impl WorkUnitPanic {
    /// Wraps a raw panic payload with the index of the work unit that
    /// raised it. Idempotent: an already-wrapped payload keeps its
    /// original (innermost) index, so a replication index survives the
    /// re-throw through an enclosing scenario fan-out.
    fn wrap(index: usize, payload: Box<dyn Any + Send>) -> Box<dyn Any + Send> {
        if payload.is::<WorkUnitPanic>() {
            payload
        } else {
            Box::new(WorkUnitPanic { index, payload })
        }
    }

    /// The index of the work unit whose task panicked.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The panic message, when the original payload was a string (the
    /// payload of `panic!` with a literal or format string).
    pub fn message(&self) -> String {
        panic_message(self.payload.as_ref())
    }
}

/// Renders a panic payload as a message: sees through a [`WorkUnitPanic`]
/// wrapper and handles the two string payload types `panic!` produces.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(wrapped) = payload.downcast_ref::<WorkUnitPanic>() {
        return wrapped.message();
    }
    if let Some(text) = payload.downcast_ref::<&'static str>() {
        return (*text).to_string();
    }
    if let Some(text) = payload.downcast_ref::<String>() {
        return text.clone();
    }
    "non-string panic payload".to_string()
}

/// Runs one replication work unit: the chaos fault-injection hook (a no-op
/// unless the `chaos` feature is on and a config is installed), then the
/// task, re-throwing any panic wrapped in a [`WorkUnitPanic`] that carries
/// the replication index.
fn run_work_unit<T>(index: usize, body: impl FnOnce() -> T) -> T {
    match catch_unwind(AssertUnwindSafe(|| {
        #[cfg(feature = "chaos")]
        crate::chaos::work_unit(index as u64);
        body()
    })) {
        Ok(value) => {
            crate::telemetry::counter_inc(crate::telemetry::MetricId::ReplicationsCompleted);
            value
        }
        Err(payload) => resume_unwind(WorkUnitPanic::wrap(index, payload)),
    }
}

/// Resolves a requested worker count (`0` = the machine's available
/// parallelism).
fn resolve_workers(workers: usize) -> usize {
    if workers > 0 {
        workers
    } else {
        std::thread::available_parallelism().map_or(4, std::num::NonZero::get)
    }
}

/// The unsafe core of the engine: type-erased fan-out registration, batched
/// index claiming, and direct result-slot writes.
///
/// # Safety protocol
///
/// A fan-out lives on its submitter's stack. It is reachable by workers
/// only through the pool registry, and the registry entry is removed —
/// under the registry lock — before the fan-out is freed. Workers *attach*
/// (increment the fan-out's refcount) under the same lock, and detach
/// under it too; the submitter quiesces by removing the entry and then
/// waiting until the refcount is zero. A quiescing submitter that helps a
/// newer fan-out is, for that fan-out, just another attached worker.
/// Together these guarantee a worker never touches a fan-out after its
/// submitter's stack frame is gone, and that all worker writes are visible
/// to the submitter (the registry mutex orders them). Sessions never
/// unwind, so a quiesce wait that helps cannot be cut short by a panic.
#[allow(unsafe_code)]
mod fanout {
    use std::any::Any;
    use std::cell::UnsafeCell;
    use std::mem::MaybeUninit;
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

    /// The long-lived shared state of one pool.
    pub(super) struct PoolShared {
        /// Total worker count (parked threads + the submitting caller).
        pub(super) total: usize,
        registry: Mutex<Registry>,
        /// Signalled when a fan-out registers or the pool shuts down.
        work_cv: Condvar,
        /// Where quiescing submitters wait. Signalled when a worker
        /// detaches from a fan-out (the submitter's own may now be idle)
        /// and when a fan-out registers (newer work it may help with).
        done_cv: Condvar,
    }

    struct Registry {
        /// Active fan-outs in registration order, so `seq` ascends; workers
        /// scan newest-first so nested (innermost) fan-outs drain before
        /// their parents.
        entries: Vec<FanEntry>,
        /// The sequence number the next registration takes.
        next_seq: u64,
        shutdown: bool,
    }

    /// A type-erased pointer to a registered fan-out. `header` aliases the
    /// first field of the typed fan-out that `data` points to; `run`
    /// re-types `data` and executes one claiming session on it.
    #[derive(Clone, Copy)]
    struct FanEntry {
        /// Registration order: a fan-out registered from inside another's
        /// task has a larger `seq` than it.
        seq: u64,
        header: *const FanHeader,
        data: *const (),
        run: unsafe fn(*const (), Option<&FanHeader>),
    }

    // SAFETY: the pointers refer to a fan-out that the registration
    // protocol keeps alive for as long as the entry is reachable (see the
    // module docs), and the fan-out's shared state is Sync.
    unsafe impl Send for FanEntry {}

    /// The type-independent claiming state of a fan-out.
    pub(super) struct FanHeader {
        /// Next unclaimed index; claimed in batches via `fetch_add`.
        next: AtomicUsize,
        count: usize,
        /// `2 * workers` — the adaptive batch divisor.
        batch_denom: usize,
        poisoned: AtomicBool,
        /// Set when a session observes the cancellation token fired; stops
        /// parked workers from attaching to a fan-out that is winding down.
        halted: AtomicBool,
        /// Cooperative cancellation token, checked between batch claims.
        /// `None` when the fan-out was handed no token.
        cancel: Option<super::CancelToken>,
        /// Attached-worker count. Only written while holding the registry
        /// lock; atomic so the header stays `Sync`. A helper also reads
        /// its own fan-out's count unlocked between batches, as a hint to
        /// go back to its quiesce wait, which re-reads it under the lock.
        refs: AtomicUsize,
        /// The first panic payload captured from a task.
        payload: Mutex<Option<Box<dyn Any + Send>>>,
    }

    impl FanHeader {
        fn new(
            count: usize,
            total_workers: usize,
            cancel: Option<super::CancelToken>,
        ) -> FanHeader {
            FanHeader {
                next: AtomicUsize::new(0),
                count,
                batch_denom: 2 * total_workers,
                poisoned: AtomicBool::new(false),
                halted: AtomicBool::new(false),
                cancel,
                refs: AtomicUsize::new(0),
                payload: Mutex::new(None),
            }
        }

        fn has_work(&self) -> bool {
            !self.poisoned.load(Ordering::Relaxed)
                && !self.halted.load(Ordering::Relaxed)
                && self.next.load(Ordering::Relaxed) < self.count
        }
    }

    /// One result slot, written exactly once by whichever worker claims
    /// its index.
    struct SlotCell<T> {
        cell: UnsafeCell<MaybeUninit<T>>,
    }

    impl<T> SlotCell<T> {
        fn new() -> SlotCell<T> {
            SlotCell { cell: UnsafeCell::new(MaybeUninit::uninit()) }
        }
    }

    // SAFETY: the batched `fetch_add` claiming hands out disjoint index
    // ranges, so no two threads ever touch the same slot; the submitter
    // only reads slots after all workers detached (ordered by the registry
    // mutex).
    unsafe impl<T: Send> Sync for SlotCell<T> {}

    /// A typed fan-out, stack-allocated in [`execute`].
    struct FanOut<'a, T, S, I, F> {
        header: FanHeader,
        init: &'a I,
        task: &'a F,
        slots: &'a [SlotCell<T>],
        written: &'a [AtomicBool],
        /// Pins the per-worker state type the closures agree on.
        marker: std::marker::PhantomData<fn() -> S>,
    }

    impl<T, S, I, F> FanOut<'_, T, S, I, F>
    where
        T: Send,
        I: Fn() -> S + Sync,
        F: Fn(usize, &mut S) -> T + Sync,
    {
        /// One worker's participation in the fan-out: create the worker
        /// state, then claim and execute adaptive batches until the index
        /// space is exhausted (or a task panics). `own` is set when a
        /// quiescing submitter helps here: it is that submitter's own
        /// fan-out, and the session then also ends between batches once
        /// nothing is attached to `own`.
        ///
        /// Never unwinds: a panic in `init`, a task, or the state's drop
        /// poisons this fan-out instead.
        fn session(&self, own: Option<&FanHeader>) {
            let _busy = crate::telemetry::span(crate::telemetry::MetricId::PoolBusyNs);
            let ran = catch_unwind(AssertUnwindSafe(|| {
                let mut state = (self.init)();
                self.claim_batches(&mut state, own);
            }));
            if let Err(payload) = ran {
                self.poison(payload);
            }
        }

        fn claim_batches(&self, state: &mut S, own: Option<&FanHeader>) {
            loop {
                // Cooperative cancellation: observed between batch claims,
                // so every claimed batch still runs to completion and the
                // executed indices stay a contiguous prefix.
                if let Some(token) = &self.header.cancel {
                    if token.is_cancelled() {
                        self.header.halted.store(true, Ordering::Relaxed);
                        return;
                    }
                }
                if own.is_some_and(|own| own.refs.load(Ordering::Relaxed) == 0) {
                    return;
                }
                let snapshot = self.header.next.load(Ordering::Relaxed);
                if snapshot >= self.header.count {
                    return;
                }
                // Adaptive batch: big strides while plenty remains, single
                // indices near the tail so stealing stays fine-grained.
                let batch = ((self.header.count - snapshot) / self.header.batch_denom).max(1);
                let start = self.header.next.fetch_add(batch, Ordering::Relaxed);
                if start >= self.header.count {
                    return;
                }
                let end = (start + batch).min(self.header.count);
                // Scheduling-class metrics: which thread wins each claim
                // race varies run to run, so these are tagged nondeterministic.
                crate::telemetry::counter_inc(crate::telemetry::MetricId::PoolBatchesClaimed);
                crate::telemetry::observe(
                    crate::telemetry::MetricId::PoolBatchSize,
                    (end - start) as u64,
                );
                for index in start..end {
                    match catch_unwind(AssertUnwindSafe(|| (self.task)(index, state))) {
                        Ok(value) => {
                            // SAFETY: `index` was claimed exactly once (the
                            // fetch_add hands out disjoint ranges), so this
                            // slot has no other writer and no reader yet.
                            unsafe {
                                (*self.slots[index].cell.get()).write(value);
                            }
                            self.written[index].store(true, Ordering::Relaxed);
                        }
                        Err(payload) => {
                            self.poison(super::WorkUnitPanic::wrap(index, payload));
                            return;
                        }
                    }
                }
            }
        }

        /// Records the first panic payload and makes every other worker's
        /// next claim fail, so the fan-out drains promptly.
        fn poison(&self, payload: Box<dyn Any + Send>) {
            let mut slot = self.header.payload.lock().unwrap_or_else(PoisonError::into_inner);
            if slot.is_none() {
                *slot = Some(payload);
            }
            drop(slot);
            self.header.poisoned.store(true, Ordering::Relaxed);
            self.header.next.store(self.header.count, Ordering::Relaxed);
        }
    }

    /// Re-types an erased fan-out pointer and runs one claiming session.
    ///
    /// # Safety
    ///
    /// `data` must point to a live `FanOut<T, S, I, F>` with exactly these
    /// type parameters — guaranteed because the pointer and this function
    /// instantiation are stored side by side in the same [`FanEntry`].
    unsafe fn run_session<T, S, I, F>(data: *const (), own: Option<&FanHeader>)
    where
        T: Send,
        I: Fn() -> S + Sync,
        F: Fn(usize, &mut S) -> T + Sync,
    {
        let fan = unsafe { &*data.cast::<FanOut<'_, T, S, I, F>>() };
        fan.session(own);
    }

    impl PoolShared {
        pub(super) fn new(total: usize) -> PoolShared {
            PoolShared {
                total,
                registry: Mutex::new(Registry {
                    entries: Vec::new(),
                    next_seq: 0,
                    shutdown: false,
                }),
                work_cv: Condvar::new(),
                done_cv: Condvar::new(),
            }
        }

        fn lock_registry(&self) -> MutexGuard<'_, Registry> {
            self.registry.lock().unwrap_or_else(PoisonError::into_inner)
        }

        /// Tells every parked worker to exit. Idempotent.
        pub(super) fn shutdown(&self) {
            self.lock_registry().shutdown = true;
            self.work_cv.notify_all();
        }

        /// The attach-run-detach step of parked workers and quiescing
        /// submitters alike: under the registry lock `reg`, attach to the
        /// newest registered fan-out with unclaimed work whose `seq` is at
        /// least `min_seq`, run one session on it (`own` as in
        /// `FanOut::session`) with the lock released, and detach. Returns
        /// the re-taken lock and whether a session ran.
        fn run_newest<'a>(
            &'a self,
            reg: MutexGuard<'a, Registry>,
            min_seq: u64,
            own: Option<&FanHeader>,
        ) -> (MutexGuard<'a, Registry>, bool) {
            // SAFETY: entries are only reachable while registered, and
            // registered fan-outs are alive (module docs).
            let found = reg
                .entries
                .iter()
                .rev()
                .take_while(|entry| entry.seq >= min_seq)
                .copied()
                .find(|entry| unsafe { (*entry.header).has_work() });
            let Some(entry) = found else {
                return (reg, false);
            };
            // SAFETY: still under the registry lock, so the entry is still
            // registered and the attach is race-free.
            unsafe {
                (*entry.header).refs.fetch_add(1, Ordering::Relaxed);
            }
            drop(reg);
            {
                let _attached = Attached { shared: self, header: entry.header };
                // SAFETY: we attached under the lock; the submitter cannot
                // free the fan-out until we detach.
                super::without_ambient_cancel(|| unsafe { (entry.run)(entry.data, own) });
            }
            (self.lock_registry(), true)
        }
    }

    /// Detaches a worker from a fan-out when its session ends, and wakes
    /// the submitter's quiesce wait.
    struct Attached<'a> {
        shared: &'a PoolShared,
        header: *const FanHeader,
    }

    impl Drop for Attached<'_> {
        fn drop(&mut self) {
            let guard = self.shared.lock_registry();
            // SAFETY: this guard holds a reference on the header (refs >=
            // 1), so the submitter has not finished quiescing and the
            // fan-out is alive.
            unsafe {
                (*self.header).refs.fetch_sub(1, Ordering::Relaxed);
            }
            drop(guard);
            self.shared.done_cv.notify_all();
        }
    }

    /// The body of each long-lived worker thread: park on the work
    /// condvar, attach to the newest registered fan-out with unclaimed
    /// work, run a session, repeat.
    pub(super) fn worker_main(shared: Arc<PoolShared>) {
        let _ambient = super::push_ambient(Arc::clone(&shared));
        let mut reg = shared.lock_registry();
        loop {
            if reg.shutdown {
                return;
            }
            let ran;
            (reg, ran) = shared.run_newest(reg, 0, None);
            if !ran {
                crate::telemetry::counter_inc(crate::telemetry::MetricId::PoolParks);
                let idle = crate::telemetry::span(crate::telemetry::MetricId::PoolIdleNs);
                reg = shared.work_cv.wait(reg).unwrap_or_else(PoisonError::into_inner);
                drop(idle);
                crate::telemetry::counter_inc(crate::telemetry::MetricId::PoolWakes);
            }
        }
    }

    /// Unregisters the fan-out and waits for every attached worker to
    /// detach, helping newer fan-outs meanwhile (module docs). Runs on
    /// unwind too, so a panicking fan-out still quiesces before its stack
    /// frame is freed.
    struct Quiesce<'a> {
        shared: &'a PoolShared,
        header: &'a FanHeader,
        seq: u64,
    }

    impl Drop for Quiesce<'_> {
        fn drop(&mut self) {
            let mut reg = self.shared.lock_registry();
            if let Some(pos) = reg.entries.iter().position(|entry| entry.seq == self.seq) {
                reg.entries.remove(pos);
            }
            // Workers only detach under the registry lock, so observing
            // refs == 0 here means every worker is gone.
            while self.header.refs.load(Ordering::Relaxed) > 0 {
                let helped;
                (reg, helped) = self.shared.run_newest(reg, self.seq + 1, Some(self.header));
                if helped {
                    crate::telemetry::counter_inc(crate::telemetry::MetricId::PoolHelps);
                } else {
                    reg = self.shared.done_cv.wait(reg).unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
    }

    /// Runs a parallel fan-out of `count` tasks on `shared`, with the
    /// calling thread participating, and returns the results of the
    /// executed index prefix in index order.
    /// Without a cancellation token the prefix is always the full index
    /// space; with one, claiming stops when the token fires, in-flight
    /// batches finish, and the completed prefix is whatever was claimed —
    /// contiguous, because claims come from one monotone counter. Panics
    /// in tasks are forwarded to the caller after the fan-out quiesces.
    pub(super) fn execute<T, S, I, F>(
        shared: &PoolShared,
        count: usize,
        cancel: Option<&super::CancelToken>,
        init: &I,
        task: &F,
    ) -> Vec<T>
    where
        T: Send,
        I: Fn() -> S + Sync,
        F: Fn(usize, &mut S) -> T + Sync,
    {
        let slots: Vec<SlotCell<T>> = std::iter::repeat_with(SlotCell::new).take(count).collect();
        let written: Vec<AtomicBool> =
            std::iter::repeat_with(|| AtomicBool::new(false)).take(count).collect();
        let fan = FanOut {
            header: FanHeader::new(count, shared.total, cancel.cloned()),
            init,
            task,
            slots: &slots,
            written: &written,
            marker: std::marker::PhantomData,
        };
        let seq = {
            let mut reg = shared.lock_registry();
            let seq = reg.next_seq;
            reg.next_seq += 1;
            reg.entries.push(FanEntry {
                seq,
                header: &fan.header,
                data: std::ptr::from_ref(&fan).cast(),
                run: run_session::<T, S, I, F>,
            });
            seq
        };
        // Wake at most one parked worker per remaining work item beyond
        // the submitter's own share; busy workers rescan the registry on
        // their own when their current session ends. Quiescing submitters
        // all wake: this fan-out is newer than theirs.
        let wake = (count - 1).min(shared.total - 1);
        for _ in 0..wake {
            shared.work_cv.notify_one();
        }
        shared.done_cv.notify_all();
        {
            let _quiesce = Quiesce { shared, header: &fan.header, seq };
            fan.session(None);
        }
        // Every worker has detached and the registry entry is gone; the
        // registry mutex ordered all their slot writes before us.
        if fan.header.poisoned.load(Ordering::Relaxed) {
            let payload = fan
                .header
                .payload
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take()
                .unwrap_or_else(|| Box::new("fan-out poisoned without a payload"));
            drop(fan);
            for (slot, was_written) in slots.into_iter().zip(written.iter()) {
                if was_written.load(Ordering::Relaxed) {
                    // SAFETY: the flag records exactly the slots that were
                    // initialised; nothing else reads them after poison.
                    unsafe {
                        slot.cell.into_inner().assume_init_drop();
                    }
                }
            }
            resume_unwind(payload);
        }
        // Claims come from one monotone counter and every claimed batch ran
        // to completion, so the executed indices are exactly `0..completed`.
        let completed = fan.header.next.load(Ordering::Relaxed).min(count);
        drop(fan);
        let mut results = Vec::with_capacity(completed);
        for (index, (slot, was_written)) in slots.into_iter().zip(written.iter()).enumerate() {
            if index < completed {
                assert!(
                    was_written.load(Ordering::Relaxed),
                    "work unit {index} produced no result"
                );
                // SAFETY: the flag proves the claiming worker initialised
                // this slot, and all workers detached before we got here.
                results.push(unsafe { slot.cell.into_inner().assume_init() });
            } else if was_written.load(Ordering::Relaxed) {
                // Defensive: cannot happen while claims are a prefix, but
                // if it ever does the slot must still be dropped.
                // SAFETY: the flag proves the slot was initialised.
                unsafe { slot.cell.into_inner().assume_init_drop() }
            }
        }
        results
    }
}

thread_local! {
    /// Stack of pools installed on this thread; the innermost one
    /// arbitrates every fan-out started from here.
    static AMBIENT: RefCell<Vec<Arc<fanout::PoolShared>>> = const { RefCell::new(Vec::new()) };
}

/// Installs `shared` as this thread's ambient pool until the guard drops.
fn push_ambient(shared: Arc<fanout::PoolShared>) -> AmbientGuard {
    AMBIENT.with(|stack| stack.borrow_mut().push(shared));
    AmbientGuard
}

struct AmbientGuard;

impl Drop for AmbientGuard {
    fn drop(&mut self) {
        AMBIENT.with(|stack| {
            stack.borrow_mut().pop();
        });
    }
}

fn ambient_shared() -> Option<Arc<fanout::PoolShared>> {
    AMBIENT.with(|stack| stack.borrow().last().cloned())
}

/// Owns a pool's worker threads; dropping the last handle shuts the
/// workers down and joins them.
struct PoolOwner {
    shared: Arc<fanout::PoolShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Drop for PoolOwner {
    fn drop(&mut self) {
        self.shared.shutdown();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// A persistent work-stealing worker pool.
///
/// See the [module documentation](self) for the scheduling model. Worker
/// threads are spawned once, when the pool is created, and parked between
/// fan-outs; [`Pool::global`] hands out process-wide cached pools so
/// repeated short studies never pay a spawn. Handles are cheap to clone;
/// the threads shut down when the last handle to an owned pool drops.
#[derive(Clone)]
pub struct Pool {
    shared: Arc<fanout::PoolShared>,
    /// Held only for its drop side effect (shutdown + join); `None` for
    /// ambient handles, which never own the threads.
    #[allow(dead_code)]
    owner: Option<Arc<PoolOwner>>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool").field("workers", &self.shared.total).finish()
    }
}

impl Pool {
    /// Creates a pool with the given worker budget (`0` = the machine's
    /// available parallelism, `1` = everything runs on the calling
    /// thread). Spawns `workers - 1` threads, joined when the last handle
    /// drops.
    pub fn new(workers: usize) -> Pool {
        let total = resolve_workers(workers);
        let shared = Arc::new(fanout::PoolShared::new(total));
        let handles = (1..total)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("cfs-pool-{index}"))
                    .spawn(move || fanout::worker_main(shared))
                    .expect("failed to spawn pool worker thread")
            })
            .collect();
        let owner = Arc::new(PoolOwner { shared: Arc::clone(&shared), handles });
        Pool { shared, owner: Some(owner) }
    }

    /// A process-wide cached pool with the given worker budget: the first
    /// call per (resolved) worker count spawns the threads, every later
    /// call reuses them. Cached pools live for the rest of the process —
    /// that is the point: a study scheduler calling this per run never
    /// pays thread spawn/join again.
    pub fn global(workers: usize) -> Pool {
        static GLOBAL: OnceLock<Mutex<HashMap<usize, Pool>>> = OnceLock::new();
        let total = resolve_workers(workers);
        let map = GLOBAL.get_or_init(|| Mutex::new(HashMap::new()));
        let mut map = map.lock().unwrap_or_else(PoisonError::into_inner);
        map.entry(total).or_insert_with(|| Pool::new(total)).clone()
    }

    /// The pool installed on the current thread by an enclosing fan-out,
    /// if any. Fan-outs started while a pool is ambient register on it
    /// instead of spawning their own threads.
    pub fn current() -> Option<Pool> {
        ambient_shared().map(|shared| Pool { shared, owner: None })
    }

    /// The pool's total worker budget.
    pub fn workers(&self) -> usize {
        self.shared.total
    }

    /// Runs `task(index, scratch)` for every `index` in `0..count` on this
    /// pool and returns the results **in index order**.
    ///
    /// The calling thread participates as a worker; parked pool threads
    /// are woken while unclaimed work remains. Every worker has the pool
    /// installed as its ambient pool, so nested fan-outs (e.g.
    /// [`replicate_with`] called from inside `task`) register on the same
    /// pool — one global scheduler, no oversubscription.
    ///
    /// `init` runs once per participating worker and the resulting state is
    /// passed (mutably) to every index that worker executes. Results must
    /// not depend on which worker ran an index — use the scratch to cache
    /// allocations, not to carry data between indices.
    ///
    /// With a `cancel` token the fan-out is cooperatively cancellable: the
    /// token is checked between batch claims (before every index on the
    /// serial path), in-flight batches finish when it fires, and the call
    /// returns the results of the completed **contiguous index prefix** —
    /// fewer than `count` exactly when the fan-out was truncated.
    pub fn run_indexed_with<T, S, I, F>(
        &self,
        count: usize,
        cancel: Option<&CancelToken>,
        init: I,
        task: F,
    ) -> Vec<T>
    where
        T: Send,
        I: Fn() -> S + Sync,
        F: Fn(usize, &mut S) -> T + Sync,
    {
        if count == 0 {
            return Vec::new();
        }
        let _ambient = push_ambient(Arc::clone(&self.shared));
        if self.shared.total <= 1 || count == 1 {
            let mut state = init();
            let mut results = Vec::with_capacity(count);
            for index in 0..count {
                if cancel.is_some_and(CancelToken::is_cancelled) {
                    break;
                }
                results.push(task(index, &mut state));
            }
            return results;
        }
        fanout::execute(&self.shared, count, cancel, &init, &task)
    }
}

/// The pool [`replicate_with`] falls back to when no ambient pool is
/// installed: the process-wide cached pool, except under Miri, where leaked
/// global threads would be reported — there every fan-out gets an owned,
/// joined-on-drop pool instead.
fn fallback_pool(workers: usize) -> Pool {
    if cfg!(miri) {
        Pool::new(workers)
    } else {
        Pool::global(workers)
    }
}

/// Runs `run(index, rng, scratch)` for every index in `indices`, fanning
/// the work across the ambient [`Pool`] when one is installed (a study's
/// global pool) or the process-wide cached pool otherwise (`0` = the
/// machine's available parallelism, `1` = force serial execution), and
/// returns the results in index order.
///
/// Each call receives a fresh [`SimRng`] derived from `root` and its own
/// index, so the output is a pure function of `(root, indices)` —
/// independent of worker count, pool sharing, and scheduling order. `init`
/// runs once per participating worker, and each replication that worker
/// claims receives the same scratch mutably; the simulation kernels use
/// this to reuse their heap allocations across replications.
///
/// With a `cancel` token, claiming stops when it fires, in-flight batches
/// finish, and the call returns the completed **contiguous replication
/// prefix** — shorter than `indices` exactly when the run was truncated.
/// Because replication `i` always draws the stream derived from
/// `(root, i)`, that prefix is bit-identical to the first results of an
/// uninterrupted run: a statistically valid (if smaller) sample.
pub fn replicate_with<T, S, I, F>(
    indices: std::ops::Range<usize>,
    root: &SimRng,
    workers: usize,
    cancel: Option<&CancelToken>,
    init: I,
    run: F,
) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(usize, &mut SimRng, &mut S) -> T + Sync,
{
    let count = indices.len();
    let start = indices.start;
    if count == 0 {
        return Vec::new();
    }
    // Scheduled-work counter: grows as the adaptive stopping rule plans
    // further batches, which is what the progress line's ETA tracks.
    crate::telemetry::counter_add(crate::telemetry::MetricId::ReplicationsScheduled, count as u64);
    if workers == 1 || count < MIN_PARALLEL_COUNT {
        // Serial path: iterate the range directly — no pool, one scratch.
        let mut scratch = init();
        let mut results = Vec::with_capacity(count);
        for index in indices {
            if cancel.is_some_and(CancelToken::is_cancelled) {
                break;
            }
            results.push(run_work_unit(index, || {
                run(index, &mut root.derive_stream(index as u64), &mut scratch)
            }));
        }
        return results;
    }
    let pool = Pool::current().unwrap_or_else(|| fallback_pool(workers));
    pool.run_indexed_with(count, cancel, init, |offset, scratch| {
        let index = start + offset;
        run_work_unit(index, || run(index, &mut root.derive_stream(index as u64), scratch))
    })
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};

    use super::*;

    /// [`replicate_with`] without scratch or cancellation.
    fn replicate<T: Send>(
        indices: std::ops::Range<usize>,
        root: &SimRng,
        workers: usize,
        run: impl Fn(usize, &mut SimRng) -> T + Sync,
    ) -> Vec<T> {
        replicate_with(indices, root, workers, None, || (), |i, rng, ()| run(i, rng))
    }

    /// [`Pool::run_indexed_with`] without scratch or cancellation.
    fn run_indexed<T: Send>(pool: &Pool, count: usize, task: impl Fn(usize) -> T + Sync) -> Vec<T> {
        pool.run_indexed_with(count, None, || (), |i, ()| task(i))
    }

    #[test]
    fn results_are_in_index_order() {
        let root = SimRng::seed_from_u64(1);
        let out = replicate(0..100, &root, 7, |i, _| i);
        assert_eq!(out, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let root = SimRng::seed_from_u64(42);
        let draw = |i: usize, rng: &mut SimRng| (i, rng.next_u64());
        let serial = replicate(0..37, &root, 1, draw);
        for workers in [0, 2, 4, 16] {
            assert_eq!(serial, replicate(0..37, &root, workers, draw), "workers = {workers}");
        }
    }

    #[test]
    fn offset_ranges_reuse_the_same_streams() {
        let root = SimRng::seed_from_u64(7);
        let draw = |i: usize, rng: &mut SimRng| (i, rng.next_u64());
        let full = replicate(0..20, &root, 4, draw);
        let tail = replicate(10..20, &root, 4, draw);
        assert_eq!(&full[10..], &tail[..]);
    }

    #[test]
    fn empty_range_is_fine() {
        let root = SimRng::seed_from_u64(3);
        let out: Vec<u64> = replicate(0..0, &root, 4, |_, rng| rng.next_u64());
        assert!(out.is_empty());
    }

    #[test]
    fn pool_runs_every_index_exactly_once() {
        let pool = Pool::new(4);
        let hits: Vec<AtomicUsize> = (0..50).map(|_| AtomicUsize::new(0)).collect();
        let out = run_indexed(&pool, 50, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
            i * 2
        });
        assert_eq!(out, (0..50).map(|i| i * 2).collect::<Vec<_>>());
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn pool_resolves_auto_worker_count() {
        assert!(Pool::new(0).workers() >= 1);
        assert_eq!(Pool::new(3).workers(), 3);
        assert!(format!("{:?}", Pool::new(3)).contains('3'));
    }

    #[test]
    fn no_ambient_pool_outside_run_indexed() {
        assert!(Pool::current().is_none());
        let pool = Pool::new(2);
        run_indexed(&pool, 1, |_| assert!(Pool::current().is_some()));
        assert!(Pool::current().is_none());
    }

    #[test]
    fn nested_fan_outs_share_one_budget() {
        // A 4-worker pool fanning out 3 outer tasks, each of which fans out
        // 8 inner replications: the inner `replicate` calls must find the
        // ambient pool, and the observed in-flight high-water mark must
        // stay within the budget (3 pool threads + the caller).
        let pool = Pool::new(4);
        let live = AtomicUsize::new(1); // the calling thread
        let peak = AtomicUsize::new(1);
        let root = SimRng::seed_from_u64(9);
        let outer = run_indexed(&pool, 3, |outer_idx| {
            let inner = replicate(0..8, &root, 4, |i, rng| {
                let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_millis(1));
                let v = (i as u64) ^ rng.next_u64();
                live.fetch_sub(1, Ordering::SeqCst);
                v
            });
            (outer_idx, inner.len())
        });
        assert_eq!(outer, vec![(0, 8), (1, 8), (2, 8)]);
        // `live` counts in-flight work units; with a 4-worker budget no more
        // than 4 (+1 for the outer caller's own bookkeeping slack) may ever
        // run at once.
        assert!(peak.load(Ordering::SeqCst) <= 5, "peak {}", peak.load(Ordering::SeqCst));
    }

    #[test]
    fn nested_fan_outs_stay_deterministic() {
        let root = SimRng::seed_from_u64(11);
        let two_levels = |pool: &Pool| {
            run_indexed(pool, 3, |outer| {
                let root = root.derive_stream(outer as u64);
                replicate(0..6, &root, 8, |_, rng| rng.next_u64())
            })
        };
        // Two OS threads submit at once, so one thread's fan-outs can be
        // newer than the one the other quiesces on without being nested
        // under it: a helper there returns between batches.
        let three_levels_from_two_threads = |pool: &Pool| {
            std::thread::scope(|scope| {
                let submitters: Vec<_> = (0..2u64)
                    .map(|thread| {
                        let root = root.derive_stream(100 + thread);
                        scope.spawn(move || {
                            run_indexed(pool, 3, |outer| {
                                let root = root.derive_stream(outer as u64);
                                replicate(0..5, &root, 8, |_, rng| {
                                    let root = SimRng::seed_from_u64(rng.next_u64());
                                    replicate(0..4, &root, 8, |_, rng| {
                                        (0..64).fold(0, |acc, _| acc ^ rng.next_u64())
                                    })
                                })
                            })
                        })
                    })
                    .collect();
                submitters.into_iter().map(|s| s.join().unwrap()).collect::<Vec<_>>()
            })
        };
        let run = |pool: &Pool| (two_levels(pool), three_levels_from_two_threads(pool));
        let serial = run(&Pool::new(1));
        for workers in [2, 4, 8] {
            assert_eq!(serial, run(&Pool::new(workers)), "workers = {workers}");
        }
    }

    /// Runs a 2-task outer fan-out on `pool` (2 workers). A barrier holds
    /// each outer task until the other index is claimed, so the two run on
    /// different threads and the submitter's task returns once the pool
    /// thread has claimed its index. That task then runs `nested` on the
    /// ambient pool; the submitter's task yields `None`.
    fn nested_under_the_pool_thread<T: Send>(
        pool: &Pool,
        nested: impl Fn(&Pool) -> T + Sync,
    ) -> Vec<Option<T>> {
        let submitter = std::thread::current().id();
        let both_claimed = std::sync::Barrier::new(2);
        run_indexed(pool, 2, |_| {
            both_claimed.wait();
            (std::thread::current().id() != submitter)
                .then(|| nested(&Pool::current().expect("a task runs under its pool")))
        })
    }

    #[test]
    fn quiescing_submitter_helps_a_nested_fan_out() {
        // The submitter's outer fan-out runs out of claims while the pool
        // thread's task still runs a nested fan-out: the submitter must
        // help with it rather than wait for the pool thread to finish. It
        // helps as a pool worker would, without the ambient cancellation
        // token of its own scope.
        let pool = Pool::new(2);
        let ran_on = Mutex::new(std::collections::HashSet::new());
        let saw_a_token = AtomicBool::new(false);
        let outer = cancel_scope(&CancelToken::new(), || {
            nested_under_the_pool_thread(&pool, |inner| {
                run_indexed(inner, 64, |i| {
                    ran_on.lock().unwrap().insert(std::thread::current().id());
                    if current_cancel_token().is_some() {
                        saw_a_token.store(true, Ordering::SeqCst);
                    }
                    std::thread::sleep(Duration::from_millis(2));
                    i
                })
            })
        });
        let nested: Vec<Vec<usize>> = outer.into_iter().flatten().collect();
        assert_eq!(nested, vec![(0..64).collect::<Vec<_>>()]);
        assert_eq!(ran_on.lock().unwrap().len(), 2, "both threads must run nested indices");
        assert!(!saw_a_token.load(Ordering::SeqCst), "the helper's token reached a nested task");
    }

    #[test]
    fn panic_in_a_helped_fan_out_reaches_its_own_submitter() {
        // The nested fan-out panics only on the helping thread: in a task,
        // or in the drop of the helper's scratch, which runs inside the
        // helper's quiesce wait. Either way the panic belongs to the nested
        // fan-out, so it must surface there, on the pool thread that
        // submitted it, while the helper's own outer fan-out returns
        // normally and the pool stays usable.
        struct Scratch(bool);
        impl Drop for Scratch {
            fn drop(&mut self) {
                assert!(!self.0, "helper scratch dropped");
            }
        }
        let helper = std::thread::current().id();
        let on_helper = || std::thread::current().id() == helper;
        for in_drop in [false, true] {
            let pool = Pool::new(2);
            let panicked_at = AtomicUsize::new(usize::MAX);
            let outer = nested_under_the_pool_thread(&pool, |inner| {
                let nested = catch_unwind(AssertUnwindSafe(|| {
                    inner.run_indexed_with(
                        64,
                        None,
                        || Scratch(in_drop && on_helper()),
                        |i, _| {
                            if !in_drop && on_helper() {
                                panicked_at.store(i, Ordering::SeqCst);
                                panic!("helped index {i}");
                            }
                            std::thread::sleep(Duration::from_millis(2));
                            i
                        },
                    )
                }));
                let payload = nested.expect_err("the helper's panic must reach the nested fan-out");
                let index = payload.downcast_ref::<WorkUnitPanic>().map(WorkUnitPanic::index);
                (index, panic_message(payload.as_ref()))
            });
            let expected = if in_drop {
                (None, "helper scratch dropped".to_string())
            } else {
                let index = panicked_at.load(Ordering::SeqCst);
                (Some(index), format!("helped index {index}"))
            };
            let surfaced: Vec<_> = outer.into_iter().flatten().collect();
            assert_eq!(surfaced, vec![expected], "panic in the scratch drop: {in_drop}");
            assert_eq!(run_indexed(&pool, 8, |i| i), (0..8).collect::<Vec<_>>());
        }
    }

    #[test]
    fn uneven_task_durations_do_not_perturb_order() {
        // Work stealing: the first index is slow, the rest are fast — the
        // results must still come back in index order and be complete.
        let pool = Pool::new(3);
        let out = run_indexed(&pool, 12, |i| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            i
        });
        assert_eq!(out, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn threads_are_reused_across_consecutive_fan_outs() {
        // The persistent-pool contract: ten consecutive fan-outs on one
        // pool must be executed by the same fixed set of threads (at most
        // `workers`, counting the submitter) — not a fresh spawn per
        // fan-out, which would show ~30 distinct thread ids here.
        let pool = Pool::new(4);
        let ids = Mutex::new(std::collections::HashSet::new());
        for round in 0..10 {
            let out = run_indexed(&pool, 64, |i| {
                ids.lock().unwrap().insert(std::thread::current().id());
                // A touch of work so parked workers actually engage.
                std::hint::black_box(i * round)
            });
            assert_eq!(out.len(), 64);
        }
        let distinct = ids.lock().unwrap().len();
        assert!(distinct <= 4, "saw {distinct} distinct threads on a 4-worker pool");
    }

    #[test]
    fn batch_edge_cases_are_bit_identical_to_serial() {
        // Batched claiming must cover every index exactly once for counts
        // smaller than a batch, counts not divisible by the worker count,
        // and pools with more workers than work items.
        let value = |i: usize| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i as u64;
        for workers in [2, 4, 16] {
            let pool = Pool::new(workers);
            for count in [1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 63, 64, 100] {
                let serial: Vec<u64> = (0..count).map(value).collect();
                assert_eq!(
                    run_indexed(&pool, count, value),
                    serial,
                    "workers = {workers}, count = {count}"
                );
            }
        }
    }

    #[test]
    fn panic_in_one_batch_unwinds_cleanly() {
        // A task panic must reach the submitter with its payload, every
        // already-produced result must be dropped exactly once, and the
        // pool must stay usable afterwards.
        #[derive(Debug)]
        struct Counted(Arc<AtomicUsize>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::SeqCst);
            }
        }
        let live = Arc::new(AtomicUsize::new(0));
        let pool = Pool::new(4);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_indexed(&pool, 64, |i| {
                if i == 17 {
                    panic!("boom at {i}");
                }
                live.fetch_add(1, Ordering::SeqCst);
                Counted(Arc::clone(&live))
            })
        }));
        let payload = result.expect_err("the panic must propagate to the submitter");
        let wrapped =
            payload.downcast_ref::<WorkUnitPanic>().expect("payload is typed WorkUnitPanic");
        assert_eq!(wrapped.index(), 17, "the wrapper carries the failing index");
        assert!(wrapped.message().contains("boom at 17"), "unexpected: {}", wrapped.message());
        assert!(panic_message(payload.as_ref()).contains("boom at 17"));
        assert_eq!(live.load(Ordering::SeqCst), 0, "produced results must all be dropped");
        // The pool quiesced cleanly: the same handle still schedules work.
        assert_eq!(run_indexed(&pool, 8, |i| i), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn replicate_panic_payload_carries_the_replication_index() {
        // Through `replicate` with an offset range, the typed payload must
        // carry the *replication* index (start + offset), serial and
        // parallel alike.
        let root = SimRng::seed_from_u64(5);
        for workers in [1, 4] {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                replicate(10..30, &root, workers, |i, _| {
                    assert!(i != 17, "kaboom");
                    i
                })
            }));
            let payload = result.expect_err("panic must propagate");
            let wrapped =
                payload.downcast_ref::<WorkUnitPanic>().expect("payload is typed WorkUnitPanic");
            assert_eq!(wrapped.index(), 17, "workers = {workers}");
        }
    }

    #[test]
    fn cancel_token_fires_manually_and_by_deadline() {
        let manual = CancelToken::new();
        assert!(!manual.is_cancelled());
        manual.cancel();
        assert!(manual.is_cancelled());
        // Clones share the flag.
        let clone = manual.clone();
        assert!(clone.is_cancelled());

        let expired = CancelToken::with_deadline(Duration::from_secs(0));
        assert!(expired.is_cancelled(), "a zero deadline fires immediately");
        let generous = CancelToken::with_deadline(Duration::from_secs(3600));
        assert!(!generous.is_cancelled());
        generous.cancel();
        assert!(generous.is_cancelled(), "manual cancel overrides the deadline");
    }

    #[test]
    fn cancel_scope_installs_and_uninstalls_the_ambient_token() {
        assert!(current_cancel_token().is_none());
        let token = CancelToken::new();
        cancel_scope(&token, || {
            let ambient = current_cancel_token().expect("token is ambient inside the scope");
            token.cancel();
            assert!(ambient.is_cancelled(), "the ambient token is the same token");
            let inner = CancelToken::new();
            cancel_scope(&inner, || {
                assert!(!current_cancel_token().unwrap().is_cancelled(), "innermost wins");
            });
        });
        assert!(current_cancel_token().is_none());
    }

    #[test]
    fn serial_interruptible_fan_out_truncates_deterministically() {
        // Serial path: the token is checked before every index, so firing
        // it inside task 20 yields exactly the 21-element prefix.
        let pool = Pool::new(1);
        let token = CancelToken::new();
        let results = pool.run_indexed_with(
            10_000,
            Some(&token),
            || (),
            |i, ()| {
                if i == 20 {
                    token.cancel();
                }
                i
            },
        );
        assert_eq!(results, (0..=20).collect::<Vec<_>>());
    }

    #[test]
    fn interruptible_fan_out_returns_a_valid_prefix() {
        // The task itself fires the token at index 20. Each task carries a
        // little sleep so claim rounds are much slower than reaching index
        // 20 inside the first batch — the cancellation is then reliably
        // observed long before the index space is exhausted. Claiming
        // stops, in-flight batches finish, and the results are a
        // contiguous, correct prefix.
        for workers in [2, 8] {
            let pool = Pool::new(workers);
            let token = CancelToken::new();
            let results = pool.run_indexed_with(
                1000,
                Some(&token),
                || (),
                |i, ()| {
                    if i == 20 {
                        token.cancel();
                    }
                    std::thread::sleep(std::time::Duration::from_micros(200));
                    i
                },
            );
            let len = results.len();
            assert!((1..1000).contains(&len), "workers = {workers}: truncated, len = {len}");
            assert_eq!(
                results,
                (0..len).collect::<Vec<_>>(),
                "workers = {workers}: prefix must be contiguous"
            );
        }
    }

    #[test]
    fn interruptible_fan_out_without_cancellation_is_complete_and_identical() {
        // No token and an unfired token must not change a single result.
        let never = CancelToken::new();
        let value = |i: usize, rng: &mut SimRng, (): &mut ()| (i, rng.next_u64());
        let root = SimRng::seed_from_u64(77);
        let baseline = replicate_with(0..100, &root, 1, None, || (), value);
        assert_eq!(baseline.len(), 100);
        for workers in [1, 2, 8] {
            for cancel in [None, Some(&never)] {
                let results = replicate_with(0..100, &root, workers, cancel, || (), value);
                assert_eq!(results, baseline, "workers = {workers}, token = {cancel:?}");
            }
        }
    }

    #[test]
    fn pre_cancelled_fan_out_runs_nothing() {
        let token = CancelToken::new();
        token.cancel();
        let ran = AtomicUsize::new(0);
        for workers in [1, 4] {
            let results = Pool::new(workers).run_indexed_with(
                100,
                Some(&token),
                || (),
                |i, ()| {
                    ran.fetch_add(1, Ordering::Relaxed);
                    i
                },
            );
            assert!(results.is_empty(), "no batch may be claimed after the token fired");
            let root = SimRng::seed_from_u64(1);
            let replications =
                replicate_with(0..100, &root, workers, Some(&token), || (), |i, _, ()| i);
            assert!(replications.is_empty(), "workers = {workers}");
        }
        assert_eq!(ran.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn replicate_with_matches_replicate_and_reuses_scratch() {
        let root = SimRng::seed_from_u64(99);
        let plain = replicate(0..40, &root, 4, |i, rng| (i, rng.next_u64()));
        let inits = AtomicUsize::new(0);
        let with_scratch = replicate_with(
            0..40,
            &root,
            4,
            None,
            || {
                inits.fetch_add(1, Ordering::SeqCst);
                Vec::<u64>::new()
            },
            |i, rng, buffer| {
                // The scratch is a reusable buffer; results must not depend
                // on what previous replications left in it.
                buffer.clear();
                buffer.push(rng.next_u64());
                (i, buffer[0])
            },
        );
        assert_eq!(plain, with_scratch);
        // One scratch per participating worker, not one per replication.
        let init_count = inits.load(Ordering::SeqCst);
        assert!((1..=4).contains(&init_count), "init ran {init_count} times");
    }

    #[test]
    #[cfg_attr(miri, ignore = "global pool threads outlive the test under miri")]
    fn global_pool_is_cached_per_worker_count() {
        let a = Pool::global(3);
        let b = Pool::global(3);
        assert!(Arc::ptr_eq(&a.shared, &b.shared), "same worker count must reuse the pool");
        let c = Pool::global(2);
        assert!(!Arc::ptr_eq(&a.shared, &c.shared));
        assert_eq!(a.workers(), 3);
        assert_eq!(c.workers(), 2);
    }

    #[test]
    fn run_indexed_with_threads_scratch_through_serial_path() {
        let pool = Pool::new(1);
        let out = pool.run_indexed_with(
            5,
            None,
            || 0usize,
            |i, calls| {
                *calls += 1;
                (i, *calls)
            },
        );
        // Serial path: one scratch, visited in index order.
        assert_eq!(out, vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
    }
}
