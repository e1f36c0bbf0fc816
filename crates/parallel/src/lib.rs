//! # uc-parallel — a minimal deterministic data-parallel runtime
//!
//! The campaign simulates ~1000 nodes independently, which is embarrassingly
//! parallel, and a query scans its surviving blocks independently. Rather
//! than pulling in a full work-stealing framework, this crate provides the
//! primitives the workspace needs on one lazily started pool of persistent
//! worker threads, built on std alone (see the atomics-and-locks guidance):
//!
//! - [`par_map`]: order-preserving parallel map — the output vector is
//!   index-for-index identical to the sequential map, regardless of thread
//!   count or scheduling, which is the cornerstone of the campaign's
//!   determinism contract (DESIGN.md §6).
//! - [`par_for_chunks`]: parallel iteration over mutable chunks of a slice.
//! - [`par_map_supervised`]: like [`par_map`], but each item runs under
//!   `catch_unwind` with bounded retry, so one poisoned item degrades to a
//!   [`Supervised::Panicked`] entry instead of aborting the whole map.
//! - [`join`], [`join3`], [`join4`]: run two to four closures at once.
//!
//! A call that fans out queues one ticket per worker it may use; the
//! tickets claim item indices from a shared `AtomicUsize` cursor with
//! `Relaxed` ordering — the counter only hands out indices, it does not
//! publish data; the call's completion latch (a mutex) provides the final
//! happens-before edge for the results. Items of a fan-out run only on pool
//! workers: a caller outside the pool waits, while a pool worker that fans
//! out (a nested call) runs items too, so nesting cannot deadlock.
//!
//! The [`pipeline`] module adds a bounded-channel stage for a producer
//! that emits from many threads at once, on `crossbeam-channel`.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

pub mod pipeline;

/// Process-wide worker ceiling set by [`set_thread_limit`]; 0 means unset.
static GLOBAL_THREAD_LIMIT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Caller-scoped worker ceiling set by [`with_thread_limit`]; 0 means
    /// unset. Thread-local so concurrent tests (and nested scopes) cannot
    /// race on it. A pool worker takes the ceiling of the call whose items
    /// it runs, so nested calls stay under it.
    static SCOPED_THREAD_LIMIT: Cell<usize> = const { Cell::new(0) };
    /// True on the pool's own worker threads.
    static IS_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// The `UC_THREADS` environment variable, read once. 0 means unset.
fn env_thread_limit() -> usize {
    static LIMIT: OnceLock<usize> = OnceLock::new();
    *LIMIT.get_or_init(|| {
        std::env::var("UC_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or(0)
    })
}

/// The hardware parallelism, read once: `available_parallelism` reads
/// cgroup files on every call, which cost more than a small query's scan.
fn hardware_threads() -> usize {
    static HW: OnceLock<usize> = OnceLock::new();
    *HW.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Cap the number of worker threads every primitive in this crate may use.
/// `None` (or `Some(0)`) removes the cap. The cap only bounds resource use;
/// by the §6 determinism contract it never changes any result.
pub fn set_thread_limit(limit: Option<usize>) {
    GLOBAL_THREAD_LIMIT.store(limit.unwrap_or(0), Ordering::Relaxed);
}

/// The effective worker ceiling, if any: an enclosing [`with_thread_limit`]
/// scope wins over [`set_thread_limit`], which wins over the `UC_THREADS`
/// environment variable.
pub fn thread_limit() -> Option<usize> {
    let scoped = SCOPED_THREAD_LIMIT.with(Cell::get);
    if scoped > 0 {
        return Some(scoped);
    }
    let global = GLOBAL_THREAD_LIMIT.load(Ordering::Relaxed);
    if global > 0 {
        return Some(global);
    }
    match env_thread_limit() {
        0 => None,
        n => Some(n),
    }
}

/// Run `f` with the calling thread's worker ceiling set to `limit` (>= 1),
/// restoring the previous ceiling afterwards, panic or not. Scoped and
/// thread-local, so it is safe under the concurrent test harness and for
/// 1-vs-N comparisons in benches.
pub fn with_thread_limit<R>(limit: usize, f: impl FnOnce() -> R) -> R {
    assert!(limit > 0, "thread limit must be at least 1");
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            SCOPED_THREAD_LIMIT.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(SCOPED_THREAD_LIMIT.with(|c| c.replace(limit)));
    f()
}

/// Number of worker threads to use: the available parallelism, bounded by
/// the configured [`thread_limit`] and capped so tiny inputs do not wake
/// idle threads.
pub fn worker_count(items: usize) -> usize {
    thread_limit()
        .unwrap_or_else(hardware_threads)
        .min(items)
        .max(1)
}

// ------------------------------------------------------------------ pool

/// Lock a mutex whose data every update leaves valid at each step, so the
/// guard of a holder that panicked is still sound to use.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One fan-out call, shared by the caller and its queued tickets: run the
/// caller's closure once for every index below `n`.
struct Job {
    n: usize,
    cursor: AtomicUsize,
    /// The caller's closure with its type and lifetime erased, and the
    /// monomorphized function that calls it.
    data: *const (),
    call: unsafe fn(*const (), usize),
    /// The caller's scoped thread limit, applied while a worker runs it.
    limit: usize,
    /// Tickets queued or running; the caller returns once it reads 0.
    pending: Mutex<usize>,
    done: Condvar,
    /// The first panic any item raised, re-raised on the caller.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

// SAFETY: `data` points at an `F: Sync`, which `call` only ever reaches
// through a shared reference, so sharing it across threads is what `Sync`
// on `F` allows; `call` is a plain function pointer, and every other field
// is `Send + Sync`. `data` outlives every dereference: see `Job::work`.
unsafe impl Send for Job {}
// SAFETY: as for `Send` above.
unsafe impl Sync for Job {}

/// Call the erased closure behind `data`.
///
/// # Safety
/// `data` must point at a live `F`.
unsafe fn call_erased<F: Fn(usize) + Sync>(data: *const (), i: usize) {
    // SAFETY: the caller guarantees `data` points at a live `F`.
    unsafe { (*data.cast::<F>())(i) }
}

impl Job {
    /// Claim and run indices until none are left. The first panic parks
    /// the cursor so the other tickets drain, and is kept for the caller.
    fn work(&self) {
        let result = catch_unwind(AssertUnwindSafe(|| loop {
            let i = self.cursor.fetch_add(1, Ordering::Relaxed);
            if i >= self.n {
                break;
            }
            // SAFETY: `fan_out` created `data` from a live `&F` matching
            // `call`, and it does not return before `pending` reads 0,
            // which no ticket allows until its `work` has returned.
            unsafe { (self.call)(self.data, i) };
        }));
        if let Err(p) = result {
            self.cursor.store(self.n, Ordering::Relaxed);
            let mut slot = lock(&self.panic);
            if slot.is_none() {
                *slot = Some(p);
            }
        }
    }

    /// Mark `tickets` tickets finished or withdrawn.
    fn finish(&self, tickets: usize) {
        let mut pending = lock(&self.pending);
        *pending -= tickets;
        if *pending == 0 {
            self.done.notify_all();
        }
    }
}

/// The process-wide pool: a FIFO of tickets and the count of workers
/// started. Workers are never stopped; an idle one waits on `ready`.
struct Pool {
    queue: Mutex<Queue>,
    ready: Condvar,
}

struct Queue {
    tickets: VecDeque<Arc<Job>>,
    workers: usize,
}

static POOL: Pool = Pool {
    queue: Mutex::new(Queue {
        tickets: VecDeque::new(),
        workers: 0,
    }),
    ready: Condvar::new(),
};

impl Pool {
    /// Grow the pool to `size` workers, then queue up to `tickets`
    /// tickets of `job`: no more than there are other workers to run
    /// them. Returns how many were queued; fewer when a worker thread
    /// could not be started.
    fn submit(&self, job: &Arc<Job>, tickets: usize, size: usize) -> usize {
        let mut queue = lock(&self.queue);
        while queue.workers < size {
            let started = std::thread::Builder::new()
                .name(format!("uc-pool-{}", queue.workers))
                .spawn(worker_main);
            // A pool worker runs for the life of the process and is never
            // joined; one that cannot start leaves the pool smaller.
            if started.is_err() {
                break;
            }
            queue.workers += 1;
        }
        let others = queue.workers - usize::from(IS_POOL_WORKER.with(Cell::get));
        let queued = tickets.min(others);
        *lock(&job.pending) = queued;
        queue
            .tickets
            .extend(std::iter::repeat_with(|| Arc::clone(job)).take(queued));
        drop(queue);
        for _ in 0..queued {
            self.ready.notify_one();
        }
        queued
    }

    /// Withdraw the tickets of `job` that no worker has taken yet.
    fn withdraw(&self, job: &Arc<Job>) {
        let mut queue = lock(&self.queue);
        let before = queue.tickets.len();
        queue.tickets.retain(|t| !Arc::ptr_eq(t, job));
        let withdrawn = before - queue.tickets.len();
        drop(queue);
        if withdrawn > 0 {
            job.finish(withdrawn);
        }
    }
}

fn worker_main() {
    IS_POOL_WORKER.with(|w| w.set(true));
    loop {
        let job = {
            let mut queue = lock(&POOL.queue);
            loop {
                if let Some(job) = queue.tickets.pop_front() {
                    break job;
                }
                queue = POOL
                    .ready
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let idle_limit = SCOPED_THREAD_LIMIT.with(|c| c.replace(job.limit));
        job.work();
        SCOPED_THREAD_LIMIT.with(|c| c.set(idle_limit));
        job.finish(1);
    }
}

/// Run `run(i)` once for every `i < n` on up to `workers` (>= 2) threads
/// of the pool and return when all are done, re-raising the first panic.
/// A caller outside the pool only waits, unless no worker could be
/// started at all; a pool worker runs items too, then withdraws its
/// tickets no other worker took, so it never waits on a ticket that needs
/// a free worker.
fn fan_out<F: Fn(usize) + Sync>(n: usize, workers: usize, run: &F) {
    let in_pool = IS_POOL_WORKER.with(Cell::get);
    let job = Arc::new(Job {
        n,
        cursor: AtomicUsize::new(0),
        data: (run as *const F).cast(),
        call: call_erased::<F>,
        limit: SCOPED_THREAD_LIMIT.with(Cell::get),
        pending: Mutex::new(0),
        done: Condvar::new(),
        panic: Mutex::new(None),
    });
    let queued = POOL.submit(&job, workers - usize::from(in_pool), workers);
    if in_pool || queued == 0 {
        job.work();
        POOL.withdraw(&job);
    }
    let mut pending = lock(&job.pending);
    while *pending > 0 {
        pending = job
            .done
            .wait(pending)
            .unwrap_or_else(PoisonError::into_inner);
    }
    drop(pending);
    let panic = lock(&job.panic).take();
    if let Some(p) = panic {
        resume_unwind(p);
    }
}

// ------------------------------------------------------------ primitives

/// Run two closures, potentially in parallel, and return both results.
/// Both run on pool workers while the caller waits; with an effective
/// thread limit of 1 both run sequentially on the caller. A panic in
/// either closure propagates to the caller once neither still runs; a
/// closure not yet started when the other panicked does not run.
pub fn join<A, B, FA, FB>(fa: FA, fb: FB) -> (A, B)
where
    A: Send,
    B: Send,
    FA: FnOnce() -> A + Send,
    FB: FnOnce() -> B + Send,
{
    if worker_count(2) == 1 {
        return (fa(), fb());
    }
    let (fa, fb) = (Mutex::new(Some(fa)), Mutex::new(Some(fb)));
    let (a, b) = (Mutex::new(None), Mutex::new(None));
    fan_out(2, 2, &|i| {
        if i == 0 {
            let f = lock(&fa).take().expect("index 0 runs once");
            *lock(&a) = Some(f());
        } else {
            let f = lock(&fb).take().expect("index 1 runs once");
            *lock(&b) = Some(f());
        }
    });
    let a = a.into_inner().unwrap_or_else(PoisonError::into_inner);
    let b = b.into_inner().unwrap_or_else(PoisonError::into_inner);
    (a.expect("fa ran"), b.expect("fb ran"))
}

/// Three-way [`join`].
pub fn join3<A, B, C>(
    fa: impl FnOnce() -> A + Send,
    fb: impl FnOnce() -> B + Send,
    fc: impl FnOnce() -> C + Send,
) -> (A, B, C)
where
    A: Send,
    B: Send,
    C: Send,
{
    let (a, (b, c)) = join(fa, || join(fb, fc));
    (a, b, c)
}

/// Four-way [`join`].
pub fn join4<A, B, C, D>(
    fa: impl FnOnce() -> A + Send,
    fb: impl FnOnce() -> B + Send,
    fc: impl FnOnce() -> C + Send,
    fd: impl FnOnce() -> D + Send,
) -> (A, B, C, D)
where
    A: Send,
    B: Send,
    C: Send,
    D: Send,
{
    let ((a, b), (c, d)) = join(|| join(fa, fb), || join(fc, fd));
    (a, b, c, d)
}

/// Parallel, order-preserving map. Semantically identical to
/// `items.iter().enumerate().map(|(i, t)| f(i, t)).collect()`, but `f` runs
/// on multiple threads.
///
/// `f` receives `(index, &item)` so callers can derive deterministic
/// per-item seeds from the index. A panic in `f` is propagated to the caller
/// after all workers stop.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let workers = worker_count(n);
    if workers == 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let mut out: Vec<Option<R>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    let out_slots = SliceCells::new(&mut out);
    fan_out(n, workers, &|i| {
        let value = f(i, &items[i]);
        // SAFETY: `fan_out` hands out each index exactly once, so no two
        // threads touch the same slot, and it returns only after every
        // ticket finished, which orders these writes before the reads.
        unsafe { out_slots.write(i, Some(value)) };
    });
    out.into_iter()
        .map(|slot| slot.expect("every index visited"))
        .collect()
}

/// Outcome of one supervised item.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Supervised<R> {
    /// The closure returned normally (possibly after retries).
    Ok(R),
    /// The closure panicked on every attempt.
    Panicked {
        /// How many times the item was tried.
        attempts: u32,
        /// The final panic's message, if it carried one.
        message: String,
    },
}

impl<R> Supervised<R> {
    /// The value, if the item completed.
    pub fn ok(self) -> Option<R> {
        match self {
            Supervised::Ok(r) => Some(r),
            Supervised::Panicked { .. } => None,
        }
    }
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Supervised parallel map: like [`par_map`], but a panic in `f` is caught
/// per item and the item retried up to `max_attempts` total tries. An item
/// that panics on every attempt yields [`Supervised::Panicked`] carrying
/// the attempt count and final panic message; every other item's result is
/// unaffected. Output order is index-for-index, as in [`par_map`].
///
/// The standard panic hook still runs on each caught panic (the backtrace
/// chatter on stderr is deliberate — a supervised failure should be loud in
/// the logs even though it no longer aborts the run).
///
/// Retrying is only useful when `f`'s failures are transient (e.g. it talks
/// to the outside world); a deterministic `f` that panics once will panic
/// on every retry, and callers running such workloads should pass
/// `max_attempts = 1`.
pub fn par_map_supervised<T, R, F>(items: &[T], max_attempts: u32, f: F) -> Vec<Supervised<R>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    assert!(max_attempts > 0, "at least one attempt required");
    par_map(items, |i, t| {
        let mut attempts = 0;
        loop {
            attempts += 1;
            match catch_unwind(AssertUnwindSafe(|| f(i, t))) {
                Ok(r) => return Supervised::Ok(r),
                Err(p) if attempts >= max_attempts => {
                    return Supervised::Panicked {
                        attempts,
                        message: panic_message(p.as_ref()),
                    };
                }
                Err(_) => {}
            }
        }
    })
}

/// Parallel mutable iteration over `chunk_size`-sized chunks of a slice.
/// `f` receives `(chunk_index, chunk)`.
pub fn par_for_chunks<T, F>(items: &mut [T], chunk_size: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_size > 0, "chunk_size must be positive");
    let chunks: Vec<&mut [T]> = items.chunks_mut(chunk_size).collect();
    let n = chunks.len();
    let workers = worker_count(n);
    if workers == 1 {
        for (i, chunk) in chunks.into_iter().enumerate() {
            f(i, chunk);
        }
        return;
    }
    let cells = VecCells::new(chunks);
    fan_out(n, workers, &|i| {
        // SAFETY: `fan_out` hands out each chunk index exactly once.
        let chunk = unsafe { cells.take(i) };
        f(i, chunk);
    });
}

/// Shared mutable access to distinct slots of a slice; exclusivity (each
/// index written by at most one thread) is the caller's obligation.
struct SliceCells<T> {
    ptr: *mut T,
    len: usize,
}

unsafe impl<T: Send> Sync for SliceCells<T> {}

impl<T> SliceCells<T> {
    fn new(slice: &mut [T]) -> Self {
        SliceCells {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
        }
    }

    /// # Safety
    /// `i < len`, and no other thread writes slot `i`; reads of the slot
    /// must happen after the fan-out that wrote it returns.
    unsafe fn write(&self, i: usize, value: T) {
        debug_assert!(i < self.len);
        unsafe { self.ptr.add(i).write(value) };
    }
}

/// Hands out each element of an owned `Vec` exactly once across threads.
struct VecCells<T> {
    ptr: *mut T,
    len: usize,
}

unsafe impl<T: Send> Sync for VecCells<T> {}

impl<T> VecCells<T> {
    fn new(v: Vec<T>) -> Self {
        let mut v = std::mem::ManuallyDrop::new(v);
        VecCells {
            ptr: v.as_mut_ptr(),
            len: v.len(),
        }
    }

    /// # Safety
    /// `i < len`, and each index is taken at most once.
    unsafe fn take(&self, i: usize) -> T {
        debug_assert!(i < self.len);
        unsafe { self.ptr.add(i).read() }
    }
}

impl<T> Drop for VecCells<T> {
    fn drop(&mut self) {
        // Elements were moved out by `take`; reclaim only the allocation.
        unsafe {
            drop(Vec::from_raw_parts(self.ptr, 0, self.len));
        }
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn par_map_matches_sequential() {
        let items: Vec<u64> = (0..10_000).collect();
        let seq: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        let par = par_map(&items, |_, x| x * x + 1);
        assert_eq!(seq, par);
    }

    #[test]
    fn par_map_empty() {
        let out: Vec<u32> = par_map(&[] as &[u32], |_, x| *x);
        assert!(out.is_empty());
    }

    #[test]
    fn par_map_single_item() {
        assert_eq!(par_map(&[7], |i, x| (i, *x)), vec![(0, 7)]);
    }

    #[test]
    fn par_map_indices_are_correct() {
        let items = vec![0u8; 5_000];
        let out = par_map(&items, |i, _| i);
        assert_eq!(out, (0..5_000).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_propagates_panics() {
        let items: Vec<u32> = (0..1_000).collect();
        let result = std::panic::catch_unwind(|| {
            par_map(&items, |_, &x| {
                if x == 437 {
                    panic!("injected failure at {x}");
                }
                x
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn supervised_all_ok_matches_par_map() {
        let items: Vec<u64> = (0..5_000).collect();
        let out = par_map_supervised(&items, 1, |_, x| x * 2);
        let expect: Vec<Supervised<u64>> = items.iter().map(|x| Supervised::Ok(x * 2)).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn supervised_isolates_a_poisoned_item() {
        let items: Vec<u32> = (0..1_000).collect();
        let out = par_map_supervised(&items, 1, |_, &x| {
            if x == 437 {
                panic!("poisoned node {x}");
            }
            x
        });
        for (i, s) in out.iter().enumerate() {
            if i == 437 {
                match s {
                    Supervised::Panicked { attempts, message } => {
                        assert_eq!(*attempts, 1);
                        assert!(message.contains("poisoned node 437"));
                    }
                    Supervised::Ok(_) => panic!("item 437 must fail"),
                }
            } else {
                assert_eq!(*s, Supervised::Ok(i as u32), "other items unaffected");
            }
        }
    }

    #[test]
    fn supervised_retries_transient_failures() {
        // Item 3 fails on its first two attempts and succeeds on the third.
        let tries: Vec<AtomicU64> = (0..8).map(|_| AtomicU64::new(0)).collect();
        let items: Vec<usize> = (0..8).collect();
        let out = par_map_supervised(&items, 3, |_, &x| {
            let attempt = tries[x].fetch_add(1, Ordering::Relaxed);
            if x == 3 && attempt < 2 {
                panic!("transient");
            }
            x
        });
        assert_eq!(out[3], Supervised::Ok(3));
        assert_eq!(tries[3].load(Ordering::Relaxed), 3);
        assert_eq!(
            tries[0].load(Ordering::Relaxed),
            1,
            "healthy items run once"
        );
    }

    #[test]
    fn supervised_reports_exhausted_attempts() {
        let out = par_map_supervised(&[()], 3, |_, _| -> u8 { panic!("always") });
        assert_eq!(
            out[0],
            Supervised::Panicked {
                attempts: 3,
                message: "always".to_string()
            }
        );
    }

    #[test]
    #[should_panic(expected = "at least one attempt")]
    fn supervised_zero_attempts_rejected() {
        let _ = par_map_supervised(&[1u8], 0, |_, &x| x);
    }

    #[test]
    fn par_for_chunks_touches_every_element() {
        let mut v = vec![0u32; 10_001];
        par_for_chunks(&mut v, 97, |ci, chunk| {
            for (k, x) in chunk.iter_mut().enumerate() {
                *x = (ci * 97 + k) as u32 + 1;
            }
        });
        for (i, x) in v.iter().enumerate() {
            assert_eq!(*x, i as u32 + 1);
        }
    }

    #[test]
    fn par_for_chunks_empty_ok() {
        let mut v: Vec<u8> = Vec::new();
        par_for_chunks(&mut v, 16, |_, _| panic!("must not be called"));
    }

    #[test]
    #[should_panic(expected = "chunk_size must be positive")]
    fn par_for_chunks_zero_chunk_panics() {
        let mut v = vec![1u8];
        par_for_chunks(&mut v, 0, |_, _| {});
    }

    #[test]
    fn par_map_side_effect_counts_once_per_item() {
        let counter = AtomicU64::new(0);
        let items = vec![(); 8_192];
        par_map(&items, |_, _| counter.fetch_add(1, Ordering::Relaxed));
        assert_eq!(counter.load(Ordering::Relaxed), 8_192);
    }

    #[test]
    fn worker_count_bounds() {
        assert_eq!(worker_count(0), 1);
        assert_eq!(worker_count(1), 1);
        let hw = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        assert_eq!(worker_count(1_000_000), thread_limit().unwrap_or(hw).max(1));
    }

    #[test]
    fn scoped_thread_limit_caps_workers_and_restores() {
        let before = SCOPED_THREAD_LIMIT.with(Cell::get);
        with_thread_limit(1, || {
            assert_eq!(worker_count(1_000_000), 1);
            with_thread_limit(3, || assert_eq!(worker_count(1_000_000), 3));
            assert_eq!(worker_count(1_000_000), 1, "inner scope restored");
        });
        assert_eq!(SCOPED_THREAD_LIMIT.with(Cell::get), before);
    }

    #[test]
    fn scoped_thread_limit_restored_on_panic() {
        let before = SCOPED_THREAD_LIMIT.with(Cell::get);
        let result = std::panic::catch_unwind(|| with_thread_limit(1, || panic!("boom")));
        assert!(result.is_err());
        assert_eq!(SCOPED_THREAD_LIMIT.with(Cell::get), before);
    }

    #[test]
    fn limited_par_map_matches_unlimited() {
        let items: Vec<u64> = (0..10_000).collect();
        let unlimited = par_map(&items, |i, x| x.wrapping_mul(31) ^ i as u64);
        for limit in [1, 2, 3, 8] {
            let limited = with_thread_limit(limit, || {
                par_map(&items, |i, x| x.wrapping_mul(31) ^ i as u64)
            });
            assert_eq!(limited, unlimited, "limit {limit}");
        }
    }

    #[test]
    fn join_returns_both_results() {
        let (a, b) = join(|| 2 + 2, || "ok".to_string());
        assert_eq!(a, 4);
        assert_eq!(b, "ok");
        let (a, b, c) = join3(|| 1, || 2, || 3);
        assert_eq!((a, b, c), (1, 2, 3));
        let (a, b, c, d) = join4(|| 1u8, || 2u16, || 3u32, || 4u64);
        assert_eq!((a, b, c, d), (1, 2, 3, 4));
    }

    #[test]
    fn join_sequential_under_limit_one() {
        let (a, b) = with_thread_limit(1, || {
            let caller = std::thread::current().id();
            join(
                move || std::thread::current().id() == caller,
                move || std::thread::current().id() == caller,
            )
        });
        assert!(a && b, "limit 1 runs both closures on the caller");
    }

    #[test]
    fn join_propagates_panics_from_either_side() {
        for poison_a in [true, false] {
            let result = std::panic::catch_unwind(|| {
                join(
                    || {
                        if poison_a {
                            panic!("a")
                        }
                    },
                    || {
                        if !poison_a {
                            panic!("b")
                        }
                    },
                )
            });
            assert!(result.is_err(), "poison_a={poison_a}");
        }
    }

    #[test]
    fn par_map_with_non_copy_results() {
        let items: Vec<u32> = (0..500).collect();
        let out = par_map(&items, |i, &x| vec![i as u32, x]);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(v, &vec![i as u32, i as u32]);
        }
    }
    #[test]
    fn par_map_runs_inline_under_limit_one() {
        let caller = std::thread::current().id();
        let items = vec![(); 1_000];
        let on_caller = with_thread_limit(1, || {
            par_map(&items, |_, _| std::thread::current().id() == caller)
        });
        assert!(
            on_caller.iter().all(|&b| b),
            "limit 1 runs every item on the caller"
        );
    }

    #[test]
    fn fanned_out_items_run_only_on_pool_workers() {
        let caller = std::thread::current().id();
        let items = vec![(); 1_000];
        let threads = with_thread_limit(4, || {
            par_map(&items, |_, _| {
                (std::thread::current().id(), IS_POOL_WORKER.with(Cell::get))
            })
        });
        assert!(threads.iter().all(|&(id, pooled)| id != caller && pooled));
    }

    #[test]
    fn nested_fan_outs_finish_with_the_sequential_answer() {
        // Three levels: par_map → join → par_map, each level fanning out
        // from pool workers that are themselves running a fan-out's items.
        fn leaf(x: u64) -> u64 {
            x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17)
        }
        fn nested(outer: &[u64]) -> Vec<u64> {
            par_map(outer, |_, &x| {
                let inner: Vec<u64> = (0..64).map(|k| x * 64 + k).collect();
                let (a, b) = join(
                    || {
                        par_map(&inner, |_, &y| leaf(y))
                            .iter()
                            .fold(0, |s, v| s ^ v)
                    },
                    || {
                        par_map(&inner, |_, &y| leaf(y + 1))
                            .iter()
                            .fold(0, |s, v| s ^ v)
                    },
                );
                a.wrapping_add(b)
            })
        }
        let outer: Vec<u64> = (0..48).collect();
        let expect = with_thread_limit(1, || nested(&outer));
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            let _ = tx.send(with_thread_limit(8, || nested(&outer)));
        });
        let got = rx
            .recv_timeout(std::time::Duration::from_secs(5))
            .expect("nested fan-outs finish within 5 s");
        worker.join().expect("nested fan-out thread");
        assert_eq!(got, expect);
    }

    #[test]
    fn the_pool_recovers_after_a_panicking_map() {
        let items: Vec<u64> = (0..2_000).collect();
        let failed = std::panic::catch_unwind(|| {
            with_thread_limit(4, || {
                par_map(&items, |_, &x| {
                    if x == 1_234 {
                        panic!("injected failure");
                    }
                    x
                })
            })
        });
        assert!(failed.is_err());
        let doubled = with_thread_limit(4, || par_map(&items, |_, &x| x * 2));
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }
}
