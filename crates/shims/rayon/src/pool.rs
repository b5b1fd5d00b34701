//! The work-stealing executor behind every parallel operation.
//!
//! Two designs preceded this one. The original shim spawned fresh scoped
//! threads per adapter call; PR 2 replaced that with a persistent pool fed
//! through one shared FIFO of batches, where every round was dealt as
//! `4 × workers` pieces behind an atomic claim counter and each piece's
//! result landed in a `Mutex<Option<R>>` box. That removed the spawn cost
//! but kept three taxes: every piece paid a mutex lock on the shared
//! `done` counter, the piece count was a static function of the worker
//! count (so one slow piece gated its round and `fold` grouping changed
//! with `RAYON_NUM_THREADS`), and every round woke every worker.
//!
//! This module is the third design: a rayon-style work-stealing executor.
//!
//! # Architecture
//!
//! * **Per-worker lock-free Chase–Lev deques.** Each worker owns a deque
//!   ([`Deque`]): the owner pushes and pops at the *bottom* (LIFO,
//!   so a worker dives depth-first into its own subtree and the
//!   just-pushed half is still cache-hot when popped), thieves steal from
//!   the *top* (FIFO, so a thief takes the *oldest* — largest — pending
//!   subtree). The buffer is the real Chase–Lev growable circular array
//!   with the C11 orderings of Lê et al. (CGO '13): owner push and
//!   non-last pop are lock-free (no CAS, no lock — one `SeqCst` fence on
//!   the pop path), and a CAS on `top` arbitrates only the contended
//!   cases, a steal and the owner's pop of the *last* element. An earlier
//!   revision used a mutex-guarded ring here ("uncontended on the owner
//!   fast path"); profiling fine-grained rounds showed the owner still
//!   paid an atomic RMW + unlock per tree node and every steal serialised
//!   against the owner, which is exactly the tax the Chase–Lev array
//!   removes. The deque (and the sleeper handshake below) live in
//!   [`crate::protocol`], generic over an atomics trait: this module
//!   instantiates them with real `std::sync::atomic` types
//!   ([`StdPlatform`], monomorphized — same machine code as before the
//!   extraction), while `pfg_model` instantiates the *same* code with
//!   model atomics and exhaustively explores its bounded interleavings.
//!   The memory-ordering argument lives on [`Deque`].
//!   Threads that are not pool workers (the caller of a parallel
//!   operation) push to and pop from a shared mutex-guarded **injector**
//!   deque — rarely touched (once per batch, not per tree node), so it
//!   keeps the trivially-sound lock.
//! * **Fork–join via [`crate::join`]** (see `join.rs`): `join(a, b)`
//!   publishes `b` as a stealable [`JobRef`] pointing into the caller's
//!   stack, runs `a` inline, then either pops `b` back (not stolen: run it
//!   inline, no synchronisation at all) or — if a thief took it — *helps*:
//!   it steals and executes other jobs until `b`'s completion flag is set,
//!   parking on the pool condvar only when there is nothing left to steal.
//!   No thread ever blocks while useful work exists, which is what makes
//!   nested parallelism deadlock-free: every job published by a frame is
//!   either executed by that frame or by a thief it waits for.
//! * **Adaptive splitting, deterministic decomposition.** A parallel
//!   operation over `n` items is split by *recursive halving* into
//!   [`decide_pieces`]`(n)` leaf pieces — a function of `n` **only** (the
//!   static `PIECES_PER_WORKER` tuning of the FIFO design is gone). The
//!   split tree adapts to load at run time — a subtree is only distributed
//!   if a thief actually steals it; unstolen halves are popped back and
//!   run inline at the cost of one deque push/pop — while the *leaf
//!   boundaries* and the left-to-right combine order never change. Fold
//!   accumulators and float sums are therefore byte-for-byte reproducible
//!   across runs *and* across worker counts (stealing may reorder
//!   execution, never results); under the FIFO design they changed with
//!   `RAYON_NUM_THREADS`.
//! * **`MaybeUninit` result slots.** [`run_batch`] writes each leaf result
//!   into a [`MaybeUninit`] slot ([`Slots`]); the join tree executes every
//!   leaf exactly once, and join completion publishes the write before the
//!   caller reads it, so no per-slot `Mutex` is needed (the FIFO design
//!   boxed every result and every dealt item in one). Per-slot "written"
//!   flags exist only so the panic path can drop the results that were
//!   produced before the unwind.
//! * **Panic propagation.** A panicking task is caught on the thief, the
//!   payload is stashed in the job, and [`crate::join`] re-raises it on
//!   the caller after the sibling subtree has settled. Pending jobs of an
//!   unwinding `join` that were *not* stolen are cancelled (popped and
//!   dropped unexecuted). Workers survive; the pool keeps serving.
//! * **Targeted wake-ups.** Sleepers park on one pool condvar. Publishing
//!   a job wakes at most one worker, and only if some worker is actually
//!   asleep and no previous wake is still in flight
//!   ([`SleepWake::wake_for_work`]); job completion wakes all sleepers so a
//!   caller waiting on that job's flag re-checks it
//!   ([`SleepWake::wake_all`]).
//!   The FIFO design's `notify_all` per round — every worker woken for
//!   every batch — is gone, which is most visible on fine-grained rounds.
//! * The **global pool** is built lazily on first use, sized by
//!   `RAYON_NUM_THREADS` when set to a positive integer (like real
//!   rayon), otherwise by the cached hardware probe
//!   [`hardware_parallelism`]. [`crate::ThreadPool::install`] scopes a
//!   caller-owned pool onto the current thread via the same thread-local
//!   context the workers use.

use std::cell::{RefCell, UnsafeCell};
use std::collections::VecDeque;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::join::join_in;
use crate::protocol::deque::{Deque, Steal};
use crate::protocol::sleep::SleepWake;
use crate::protocol::{MutationSpec, SlotPayload, StdParker, StdPlatform};

/// Minimum number of items before a parallel operation bothers dispatching
/// to the pool; below this the dispatch cost dominates the work.
pub(crate) const MIN_PAR_LEN: usize = 512;

/// Minimum items per leaf piece of the split tree, so leaf bookkeeping
/// never outweighs the per-leaf work.
const MIN_PIECE_LEN: usize = 128;

/// Cap on the leaf count of one operation's split tree. Well above any
/// plausible worker count, so stealing always has slack; bounded because
/// every tree node costs one deque push/pop even when nothing is stolen,
/// which measurably taxes large cheap-per-item rounds (the executor bench
/// regressed ~25% at 128 leaves before this was tightened from 256).
const MAX_PIECES: usize = 64;

/// Steal attempts (each a scan over every deque, with a `yield_now`
/// between rounds) a thread waiting on a join flag makes before parking.
const WAIT_SPIN_ROUNDS: usize = 32;

/// Idle scan rounds a worker makes before parking. Deliberately small:
/// a parked worker costs nothing, a spinning one steals CPU from the
/// threads that have real work (pathological on single-core hosts).
/// 512 rounds (about 200 µs, long enough to span a TMFG round's
/// sequential selection) made `starlight-p10` no faster at 2 threads on a
/// 2-core host.
const WORKER_SPIN_ROUNDS: usize = 4;

thread_local! {
    /// What the current thread *is* to the executor: a pool worker (which
    /// pool, which deque), a thread running under
    /// [`crate::ThreadPool::install`], or (when `None`) an unaffiliated
    /// thread that dispatches to the global pool.
    static CTX: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

/// Thread → pool affiliation, kept in [`CTX`].
enum Ctx {
    /// A worker thread of `pool`, owning `pool.workers[index]`.
    Worker(Arc<PoolState>, usize),
    /// A thread inside [`crate::ThreadPool::install`] of `pool` (pushes
    /// go to the pool's injector, not to a worker deque).
    External(Arc<PoolState>),
}

impl Ctx {
    fn pool(&self) -> &Arc<PoolState> {
        match self {
            Ctx::Worker(pool, _) | Ctx::External(pool) => pool,
        }
    }
}

/// A type-erased pointer to a job living on some thread's stack frame.
///
/// The pointee is pinned by that frame until the job is either executed
/// (its completion flag set) or popped back unexecuted; `JobRef`s are
/// therefore always dereferenceable while they sit in a deque (see
/// `join.rs` for the pinning argument).
#[derive(Clone, Copy)]
pub(crate) struct JobRef {
    data: *const (),
    execute_fn: unsafe fn(*const (), &PoolState),
}

// SAFETY: a JobRef is a pointer plus fn pointer; the pointee is only ever
// accessed through `execute`, whose exactly-once discipline is enforced by
// the deques (an executed job is never re-enqueued).
unsafe impl Send for JobRef {}

impl JobRef {
    /// # Safety
    /// `data` must outlive every use of the returned `JobRef`, and
    /// `execute_fn` must be callable exactly once on it.
    pub(crate) unsafe fn new(
        data: *const (),
        execute_fn: unsafe fn(*const (), &PoolState),
    ) -> Self {
        JobRef { data, execute_fn }
    }

    /// Same stack job? (Pointer identity; a live frame address is never
    /// shared by two pending jobs, see `pop_job_if`.)
    fn same_as(&self, other: &JobRef) -> bool {
        std::ptr::eq(self.data, other.data)
            && std::ptr::fn_addr_eq(self.execute_fn, other.execute_fn)
    }

    /// # Safety
    /// Must be called exactly once, while the pointee is still pinned.
    pub(crate) unsafe fn execute(self, pool: &PoolState) {
        (self.execute_fn)(self.data, pool)
    }
}

/// Initial capacity (slots) of a worker deque's circular buffer. Grows by
/// doubling; 64 covers every split tree this executor produces
/// ([`MAX_PIECES`] = 64 leaves ⇒ at most ~6 simultaneously pending jobs
/// per worker), so growth only triggers under deeply nested operations.
const DEQUE_INITIAL_CAP: usize = 64;

/// One worker deque: the generic Chase–Lev protocol of
/// [`crate::protocol::deque`] instantiated with real `std::sync::atomic`
/// types and [`JobRef`] payloads. The memory-ordering argument lives on
/// [`Deque`]; the payload-cell story (two independent relaxed pointer
/// words, validated before trust) lives on `JobCell` below.
type WorkerDeque = Deque<StdPlatform, JobRef>;

/// Storage for one [`JobRef`] in a deque cell. A `JobRef` is two
/// pointer-sized words (data pointer + fn pointer), stored as two
/// *independent* relaxed atomics — there is no double-word atomic here,
/// and none is needed: a reader's loads are only *trusted* after
/// validation (the owner's fence-then-`top`-load, or a thief's winning
/// CAS on `top`) proves the cell could not have been overwritten between
/// the loads; losers discard whatever possibly-torn pair they read.
pub(crate) struct JobCell {
    data: AtomicPtr<()>,
    exec: AtomicPtr<()>,
}

impl SlotPayload<StdPlatform> for JobRef {
    type Cell = JobCell;

    fn empty_cell() -> JobCell {
        JobCell {
            data: AtomicPtr::new(std::ptr::null_mut()),
            exec: AtomicPtr::new(std::ptr::null_mut()),
        }
    }

    fn write_cell(cell: &JobCell, job: JobRef) {
        cell.data.store(job.data.cast_mut(), Ordering::Relaxed);
        cell.exec
            .store(job.execute_fn as *mut (), Ordering::Relaxed);
    }

    fn read_cell(cell: &JobCell) -> JobRef {
        let data = cell.data.load(Ordering::Relaxed) as *const ();
        let exec = cell.exec.load(Ordering::Relaxed);
        type ExecFn = unsafe fn(*const (), &PoolState);
        // SAFETY: transmuting a data pointer back to the fn pointer it was
        // cast from in `write_cell`; validation (CAS win / owner fence)
        // proves the pair is the coherent value of one write before use.
        let execute_fn: ExecFn = unsafe { std::mem::transmute::<*mut (), ExecFn>(exec) };
        JobRef { data, execute_fn }
    }

    fn poison_cell(_cell: &JobCell) {
        // Unreachable in production: the `free_on_grow` mutation that
        // poisons cells is compile-time `false` outside the model build.
    }
}

/// Shared state of one thread pool.
pub(crate) struct PoolState {
    /// Deque for jobs published by non-worker threads (operation callers).
    /// Same ownership discipline as a worker deque: the publisher pops at
    /// the back, everyone else steals from the front.
    injector: Mutex<VecDeque<JobRef>>,
    /// One deque per worker thread; `num_threads - 1` entries (the caller
    /// of an operation always helps, taking the last parallelism slot).
    workers: Vec<WorkerDeque>,
    /// The sleeper/pending-wake handshake ([`SleepWake`], instantiated
    /// with std atomics and the mutex + condvar [`StdParker`]): who is
    /// parked, whether a work wake-up is in flight, how many published
    /// jobs are unclaimed, and the shutdown flag.
    sleep: SleepWake<StdPlatform, StdParker>,
    /// Parallelism this pool was built for. Only `num_threads - 1` worker
    /// threads exist — the batch caller always helps, taking the last
    /// slot, so `num_threads` threads compute concurrently.
    pub(crate) num_threads: usize,
    /// Seeded steal-order perturbation; `None` (the default) keeps the
    /// deterministic round-robin scan and costs one branch per steal scan.
    chaos: Option<Chaos>,
}

/// Steal-order chaos mode: with a seed set (via
/// [`crate::ThreadPoolBuilder::chaos_seed`] or, for the global pool, the
/// `PFG_CHAOS_SEED` environment variable), every steal scan draws from a
/// seeded counter-based hash to (a) rotate and optionally reverse the
/// victim scan order and (b) inject a `yield_now` at the steal point about
/// a quarter of the time. This perturbs which thief wins each race and in
/// what order subtrees migrate — exactly the schedule dimension the
/// executor's determinism contract says results must be invariant to — so
/// the racecheck/chaos suites can stress many distinct steal orders
/// reproducibly (same seed → same perturbation *sequence*; thread timing
/// still varies, which is the point). Results must stay byte-identical
/// because decomposition is a function of input length only.
struct Chaos {
    seed: u64,
    /// Global draw counter: each steal scan consumes one ticket, so the
    /// perturbation sequence is a pure function of (seed, arrival order).
    ticket: AtomicUsize,
}

impl Chaos {
    fn new(seed: u64) -> Self {
        Chaos {
            seed,
            ticket: AtomicUsize::new(0),
        }
    }

    /// The next perturbation word: splitmix64 over (seed, ticket).
    fn next(&self) -> u64 {
        let t = self.ticket.fetch_add(1, Ordering::Relaxed) as u64;
        let mut z = self
            .seed
            .wrapping_add(t.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl PoolState {
    /// Creates a pool advertising `num_threads` of parallelism, spawning
    /// `num_threads - 1` parked workers: the operation caller always
    /// helps, so it occupies the remaining slot and the number of threads
    /// computing concurrently equals `num_threads`.
    pub(crate) fn spawn(
        num_threads: usize,
        chaos_seed: Option<u64>,
    ) -> (Arc<Self>, Vec<std::thread::JoinHandle<()>>) {
        let worker_count = num_threads.saturating_sub(1);
        let state = Arc::new(PoolState {
            injector: Mutex::new(VecDeque::new()),
            workers: (0..worker_count)
                .map(|_| WorkerDeque::new(DEQUE_INITIAL_CAP, MutationSpec::none()))
                .collect(),
            sleep: SleepWake::new(MutationSpec::none()),
            num_threads,
            chaos: chaos_seed.map(Chaos::new),
        });
        let handles = (0..worker_count)
            .map(|index| {
                let state = Arc::clone(&state);
                std::thread::Builder::new()
                    .name(format!("rayon-shim-worker-{index}"))
                    .spawn(move || worker_loop(state, index))
                    .expect("spawn rayon-shim worker")
            })
            .collect();
        (state, handles)
    }

    /// Wakes every sleeper (forwarded to [`SleepWake::wake_all`]). Used
    /// on job completion: the thread waiting on that job's flag must
    /// re-check it, and a single `notify_one` could wake an unrelated
    /// worker instead.
    pub(crate) fn wake_all(&self) {
        self.sleep.wake_all();
    }

    /// Tells workers to exit once out of work, and wakes them.
    pub(crate) fn shut_down(&self) {
        self.sleep.shut_down();
    }
}

/// Publishes `job` where thieves can find it: the current worker's own
/// deque when the calling thread is a worker of `pool`, else the pool's
/// injector.
pub(crate) fn push_job(pool: &Arc<PoolState>, job: JobRef) {
    // Announce before the push: once the job is in a deque a thief can
    // claim it, and `claimed()` must never outrun the matching count
    // (`pending_jobs` would wrap to `usize::MAX` and pin the parking
    // re-check open — see `SleepWake::announce`).
    pool.sleep.announce();
    let pushed_local = CTX.with(|c| match &*c.borrow() {
        Some(Ctx::Worker(p, i)) if Arc::ptr_eq(p, pool) => {
            p.workers[*i].push(job);
            true
        }
        _ => false,
    });
    if !pushed_local {
        pool.injector
            .lock()
            .expect("pool injector lock")
            .push_back(job);
    }
    pool.sleep.wake_for_work();
}

/// Pops `job` back from where [`push_job`] put it, if it is still there
/// (i.e. no thief stole it). Returns `true` on success.
///
/// Matching is by pointer identity, which is unambiguous: a `JobRef` only
/// sits in a deque while its stack frame is pinned inside `join`, and a
/// frame never hosts two pending jobs at the same address, so an address
/// match *is* the job we pushed. LIFO discipline means our job is at the
/// bottom unless it was stolen (deeper pushes have already been popped by
/// the time we look) — so on the worker path we `take` unconditionally
/// and check identity after: the popped job is either ours or the deque
/// had already lost ours to a thief, in which case whatever `take`
/// returned belongs to an *outer* pinned frame and is pushed straight
/// back (bottom position is unchanged by a take-then-push pair, so the
/// restore is invisible to thieves' FIFO order).
pub(crate) fn pop_job_if(pool: &Arc<PoolState>, job: &JobRef) -> bool {
    let deque = CTX.with(|c| match &*c.borrow() {
        Some(Ctx::Worker(p, i)) if Arc::ptr_eq(p, pool) => Some(*i),
        _ => None,
    });
    let popped = match deque {
        Some(i) => match pool.workers[i].take() {
            Some(bottom) if bottom.same_as(job) => true,
            Some(other) => {
                // Ours was stolen; `other` is an outer frame's pending job.
                pool.workers[i].push(other);
                false
            }
            None => false,
        },
        None => {
            let mut jobs = pool.injector.lock().expect("pool injector lock");
            if jobs.back().is_some_and(|back| back.same_as(job)) {
                jobs.pop_back();
                true
            } else {
                false
            }
        }
    };
    if popped {
        pool.sleep.claimed();
    }
    popped
}

/// Claims one job for the current thread: own deque back first (dive into
/// our own subtree, cache-hot), then the injector front, then the other
/// workers' deque fronts in round-robin order starting after our own slot
/// (deterministic scan; the *outcome* of racing thieves is timing-
/// dependent either way, and decomposition determinism makes that
/// invisible in results).
fn find_work(pool: &PoolState, own_index: Option<usize>) -> Option<JobRef> {
    if let Some(i) = own_index {
        if let Some(job) = pool.workers[i].take() {
            pool.sleep.claimed();
            return Some(job);
        }
    }
    if let Some(job) = pool
        .injector
        .lock()
        .expect("pool injector lock")
        .pop_front()
    {
        pool.sleep.claimed();
        return Some(job);
    }
    let k = pool.workers.len();
    // Chaos mode perturbs the scan: random rotation, optional reversal,
    // and an injected yield at the steal point so racing thieves swap
    // arrival order (see [`Chaos`]). Default: round-robin after own slot.
    let (start, reversed) = match (&pool.chaos, k) {
        (Some(chaos), 1..) => {
            let r = chaos.next();
            if r & 3 == 0 {
                std::thread::yield_now();
            }
            ((r >> 2) as usize % k, r & 2 == 0)
        }
        _ => (own_index.map_or(0, |i| i + 1), false),
    };
    for offset in 0..k {
        let target = if reversed {
            (start + k - offset) % k
        } else {
            (start + offset) % k
        };
        if own_index == Some(target) {
            continue;
        }
        // A lost CAS (`Retry`) is treated like empty and the scan moves to
        // the next victim: the job went to *someone*, so progress was
        // made, and every caller of `find_work` already loops — `None`
        // with `pending_jobs > 0` never parks (see `park`'s re-check).
        if let Steal::Success(job) = pool.workers[target].steal() {
            pool.sleep.claimed();
            return Some(job);
        }
    }
    None
}

/// Blocks until `done` is set, *helping* in the meantime: steals and
/// executes other jobs (which is what keeps nested `join`s deadlock-free
/// and cores busy), spins briefly when there is nothing to steal, and
/// parks on the pool condvar past [`WAIT_SPIN_ROUNDS`]. Job completion
/// wakes all sleepers, so the flag is always re-checked promptly.
pub(crate) fn wait_for_latch(pool: &Arc<PoolState>, done: &AtomicBool) {
    let own_index = CTX.with(|c| match &*c.borrow() {
        Some(Ctx::Worker(p, i)) if Arc::ptr_eq(p, pool) => Some(*i),
        _ => None,
    });
    let mut idle_rounds = 0;
    while !done.load(Ordering::Acquire) {
        if let Some(job) = find_work(pool, own_index) {
            // SAFETY: the job came from a deque, so its frame is pinned
            // and it has not been executed yet.
            unsafe { job.execute(pool) };
            idle_rounds = 0;
        } else if idle_rounds < WAIT_SPIN_ROUNDS {
            std::thread::yield_now();
            idle_rounds += 1;
        } else {
            pool.sleep.park(Some(done));
        }
    }
}

fn worker_loop(state: Arc<PoolState>, index: usize) {
    // Parallel operations inside tasks dispatch back to this pool, and
    // `push_job` routes this thread's pushes to its own deque.
    CTX.with(|c| *c.borrow_mut() = Some(Ctx::Worker(Arc::clone(&state), index)));
    let mut idle_rounds = 0;
    loop {
        if let Some(job) = find_work(&state, Some(index)) {
            // SAFETY: as in `wait_for_latch`.
            unsafe { job.execute(&state) };
            idle_rounds = 0;
            continue;
        }
        if state.sleep.is_shut_down() {
            return;
        }
        if idle_rounds < WORKER_SPIN_ROUNDS {
            std::thread::yield_now();
            idle_rounds += 1;
        } else {
            state.sleep.park(None);
            idle_rounds = 0;
        }
    }
}

/// The pool the current thread's parallel operations dispatch to: the
/// innermost installed pool (or this worker's own pool), otherwise the
/// lazily-built global pool. `None` means "run inline" (single-threaded
/// configuration).
pub(crate) fn dispatch_pool() -> Option<Arc<PoolState>> {
    if let Some(pool) = CTX.with(|c| c.borrow().as_ref().map(|ctx| Arc::clone(ctx.pool()))) {
        return (pool.num_threads > 1).then_some(pool);
    }
    if global_size() <= 1 {
        return None;
    }
    Some(Arc::clone(global_pool()))
}

/// Worker count parallel operations split across on this thread.
pub(crate) fn effective_parallelism() -> usize {
    CTX.with(|c| c.borrow().as_ref().map(|ctx| ctx.pool().num_threads))
        .unwrap_or_else(global_size)
}

/// Sets `pool` as the current thread's dispatch target for the duration of
/// `op`, restoring the previous target even if `op` unwinds.
pub(crate) fn with_pool<R>(pool: &Arc<PoolState>, op: impl FnOnce() -> R) -> R {
    struct Restore(Option<Ctx>);
    impl Drop for Restore {
        fn drop(&mut self) {
            CTX.with(|c| *c.borrow_mut() = self.0.take());
        }
    }
    let _restore = Restore(CTX.with(|c| c.borrow_mut().replace(Ctx::External(Arc::clone(pool)))));
    op()
}

/// The machine's available parallelism, probed once per process. The std
/// probe is uncached on Linux (`sched_getaffinity` + cgroup reads), so
/// both the global pool size and the sort's hardware gate share this.
pub(crate) fn hardware_parallelism() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The default worker count: `RAYON_NUM_THREADS` when set to a positive
/// integer (as in real rayon, `0` and garbage fall back to the detected
/// parallelism), otherwise [`hardware_parallelism`].
pub(crate) fn global_size() -> usize {
    static SIZE: OnceLock<usize> = OnceLock::new();
    *SIZE.get_or_init(|| resolve_num_threads(std::env::var("RAYON_NUM_THREADS").ok().as_deref()))
}

/// Resolves a `RAYON_NUM_THREADS`-style override against the machine's
/// available parallelism. Factored out of [`global_size`] so the parsing is
/// unit-testable without racing the process-wide cache.
pub(crate) fn resolve_num_threads(env_value: Option<&str>) -> usize {
    match env_value.and_then(|v| v.trim().parse::<usize>().ok()) {
        Some(n) if n > 0 => n,
        _ => hardware_parallelism(),
    }
}

/// The global pool's chaos seed: `PFG_CHAOS_SEED` when set to an integer
/// (read once, like `RAYON_NUM_THREADS`), otherwise off. Lets the CI
/// chaos matrix stress the whole test binary's steal orders without
/// touching call sites.
pub(crate) fn global_chaos_seed() -> Option<u64> {
    static SEED: OnceLock<Option<u64>> = OnceLock::new();
    *SEED.get_or_init(|| {
        std::env::var("PFG_CHAOS_SEED")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
    })
}

/// The process-wide pool used when no [`crate::ThreadPool`] is installed.
/// Its workers are detached and live for the rest of the process.
fn global_pool() -> &'static Arc<PoolState> {
    static GLOBAL: OnceLock<Arc<PoolState>> = OnceLock::new();
    GLOBAL.get_or_init(|| PoolState::spawn(global_size(), global_chaos_seed()).0)
}

/// How many leaf pieces a parallel operation over `len` items splits into.
/// `1` means "run inline, skip the pool".
///
/// The piece count is a function of `len` **only** — never of the worker
/// count — so leaf boundaries, `fold` accumulator grouping and
/// left-to-right combine order are identical for every
/// `RAYON_NUM_THREADS` (including 1, whose single worker walks the same
/// piece tree inline) and unaffected by stealing. An earlier revision let
/// single-threaded configurations skip the split and fold with one
/// accumulator; the chaos-determinism suite caught that as a byte-level
/// divergence between `RAYON_NUM_THREADS=1` and every parallel run, so
/// the worker count no longer participates at all.
pub(crate) fn decide_pieces(len: usize) -> usize {
    if len < MIN_PAR_LEN {
        return 1;
    }
    len.div_ceil(MIN_PIECE_LEN).clamp(1, MAX_PIECES)
}

/// [`decide_pieces`] under a `with_max_len(max_len)` hint: every piece
/// holds at most `max_len` items. The hint declares the items *heavy*
/// (e.g. one full Dijkstra per item), so the [`MIN_PAR_LEN`] cheap-item
/// gate and the [`MAX_PIECES`] bookkeeping cap both yield to it; the
/// result is still a function of `(len, max_len)` only, preserving
/// cross-worker-count determinism.
pub(crate) fn decide_pieces_max_len(len: usize, max_len: usize) -> usize {
    if len < 2 {
        return 1;
    }
    decide_pieces(len).max(len.div_ceil(max_len.max(1)))
}

/// Write-once result slots shared across the split tree: slot `i` is
/// written by whichever thread executes leaf `i`, exactly once.
///
/// The `written` flags are *not* a synchronisation protocol — the join
/// tree already guarantees exactly-once execution and publishes writes to
/// the caller (each completed job's `done` flag is an Acquire/Release
/// edge) — they exist so the panic path can drop exactly the results that
/// were produced before the unwind.
struct Slots<R> {
    data: Vec<UnsafeCell<MaybeUninit<R>>>,
    written: Vec<AtomicBool>,
    /// Shadow-write registry for the exactly-once contract (checked under
    /// `--cfg pfg_racecheck`, zero-sized otherwise).
    audit: pfg_audit::DisjointWriteAudit,
}

// SAFETY: slots are written by at most one thread each (exactly-once leaf
// execution) and only read after a happens-before edge; `R: Send` lets the
// value move across the writing thread.
unsafe impl<R: Send> Sync for Slots<R> {}

impl<R> Slots<R> {
    fn new(n: usize) -> Self {
        Slots {
            data: (0..n)
                .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
                .collect(),
            written: (0..n).map(|_| AtomicBool::new(false)).collect(),
            audit: pfg_audit::DisjointWriteAudit::cells("pool result slots", n),
        }
    }

    /// # Safety
    /// Each index may be written at most once, by the thread executing
    /// leaf `i`.
    unsafe fn write(&self, i: usize, value: R) {
        self.audit.write_once(i);
        (*self.data[i].get()).write(value);
        self.written[i].store(true, Ordering::Release);
    }

    /// Takes all results, in slot order. Panics if any slot was skipped
    /// (cannot happen after a non-panicking batch).
    fn into_vec(mut self) -> Vec<R> {
        let data = std::mem::take(&mut self.data);
        let written = std::mem::take(&mut self.written);
        data.into_iter()
            .zip(written)
            .map(|(cell, flag)| {
                assert!(flag.into_inner(), "completed batch wrote every slot");
                // SAFETY: the flag confirms the slot was written.
                unsafe { cell.into_inner().assume_init() }
            })
            .collect()
    }
}

impl<R> Drop for Slots<R> {
    fn drop(&mut self) {
        // Non-empty only on the panic path (`into_vec` takes the vectors).
        for (cell, flag) in self.data.iter_mut().zip(&self.written) {
            if flag.load(Ordering::Acquire) {
                // SAFETY: flag says written; we have exclusive access.
                unsafe { cell.get_mut().assume_init_drop() };
            }
        }
    }
}

/// Owned items dealt to the split tree: leaf `i` takes `items[i]` by value,
/// exactly once. The `taken` flags let the unwind path drop exactly the
/// items that were never consumed (leaves cancelled by a panic elsewhere).
struct ItemSlots<T> {
    data: Vec<UnsafeCell<MaybeUninit<T>>>,
    taken: Vec<AtomicBool>,
    /// Exactly-once take registry, mirroring [`Slots::audit`].
    audit: pfg_audit::DisjointWriteAudit,
}

// SAFETY: as for `Slots` — exactly-once access per slot with a
// happens-before edge back to the owner.
unsafe impl<T: Send> Sync for ItemSlots<T> {}

impl<T> ItemSlots<T> {
    fn new(items: Vec<T>) -> Self {
        let n = items.len();
        ItemSlots {
            data: items
                .into_iter()
                .map(|x| UnsafeCell::new(MaybeUninit::new(x)))
                .collect(),
            taken: (0..n).map(|_| AtomicBool::new(false)).collect(),
            audit: pfg_audit::DisjointWriteAudit::cells("pool item slots", n),
        }
    }

    fn len(&self) -> usize {
        self.data.len()
    }

    /// # Safety
    /// Each index may be taken at most once, by the thread executing
    /// leaf `i`.
    unsafe fn take(&self, i: usize) -> T {
        self.audit.write_once(i);
        self.taken[i].store(true, Ordering::Release);
        (*self.data[i].get()).assume_init_read()
    }
}

impl<T> Drop for ItemSlots<T> {
    fn drop(&mut self) {
        for (cell, flag) in self.data.iter_mut().zip(&self.taken) {
            if !flag.load(Ordering::Acquire) {
                // SAFETY: never taken, so the slot still owns the item.
                unsafe { cell.get_mut().assume_init_drop() };
            }
        }
    }
}

/// Runs `task(0..total)` across the current pool, returning the results in
/// task order. The calling thread executes the split tree itself, publishing
/// stealable halves as it descends (see the module docs); it returns once
/// every leaf has completed. The first panicking leaf's payload (in tree
/// order) is re-raised on the caller after in-flight siblings settle.
pub(crate) fn run_batch<R, F>(total: usize, task: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let pool = match dispatch_pool() {
        Some(pool) if total > 1 => pool,
        _ => return (0..total).map(task).collect(),
    };
    let slots = Slots::new(total);
    exec_leaves(&pool, &slots, &task, 0, total);
    slots.into_vec()
}

/// Recursive halving over leaf indices `[lo, hi)`: each level publishes
/// the right half as a stealable job and runs the left half inline.
fn exec_leaves<R, F>(pool: &Arc<PoolState>, slots: &Slots<R>, task: &F, lo: usize, hi: usize)
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if hi - lo == 1 {
        let value = task(lo);
        // SAFETY: leaf `lo` executes exactly once (binary tree over
        // disjoint index ranges).
        unsafe { slots.write(lo, value) };
        return;
    }
    let mid = lo + (hi - lo) / 2;
    join_in(
        pool,
        || exec_leaves(pool, slots, task, lo, mid),
        || exec_leaves(pool, slots, task, mid, hi),
    );
}

/// Like [`run_batch`], but deals the *owned* `items` out to the tasks:
/// leaf `i` receives `items[i]` by value. Results come back in item order.
pub(crate) fn run_batch_owned<T, R, F>(items: Vec<T>, task: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    if items.len() <= 1 || dispatch_pool().is_none() {
        return items.into_iter().map(task).collect();
    }
    let slots = ItemSlots::new(items);
    let total = slots.len();
    // SAFETY: `run_batch` invokes the closure exactly once per index.
    run_batch(total, |i| task(unsafe { slots.take(i) }))
}
