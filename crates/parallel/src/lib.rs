//! # uc-parallel — a minimal deterministic data-parallel runtime
//!
//! The campaign simulates ~1000 nodes independently, which is embarrassingly
//! parallel. Rather than pulling in a full work-stealing framework, this
//! crate provides the three primitives the workspace needs, built directly on
//! `std::thread::scope` plus atomics (see the atomics-and-locks guidance):
//!
//! - [`par_map`]: order-preserving parallel map — the output vector is
//!   index-for-index identical to the sequential map, regardless of thread
//!   count or scheduling, which is the cornerstone of the campaign's
//!   determinism contract (DESIGN.md §6).
//! - [`par_for_chunks`]: parallel iteration over mutable chunks of a slice.
//! - [`par_reduce`]: parallel fold + associative merge with a deterministic
//!   merge order.
//! - [`par_map_supervised`]: like [`par_map`], but each item runs under
//!   `catch_unwind` with bounded retry, so one poisoned item degrades to a
//!   [`Supervised::Panicked`] entry instead of aborting the whole map.
//!
//! Work distribution uses a shared `AtomicUsize` cursor with `Relaxed`
//! ordering — the counter only hands out indices, it does not publish data;
//! the scope join provides the final happens-before edge for the results.
//!
//! The [`pipeline`] module adds a bounded-channel producer/consumer stage
//! built on `crossbeam-channel`, used by the log-processing examples.

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

pub mod pipeline;

/// Process-wide worker ceiling set by [`set_thread_limit`]; 0 means unset.
static GLOBAL_THREAD_LIMIT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Caller-scoped worker ceiling set by [`with_thread_limit`]; 0 means
    /// unset. Thread-local so concurrent tests (and nested scopes) cannot
    /// race on it.
    static SCOPED_THREAD_LIMIT: Cell<usize> = const { Cell::new(0) };
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
/// the configured [`thread_limit`] and capped so tiny inputs do not spawn
/// idle threads.
pub fn worker_count(items: usize) -> usize {
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    thread_limit().unwrap_or(hw).min(items).max(1)
}

/// Run two closures, potentially in parallel, and return both results.
/// `fb` runs on a spawned scoped thread while `fa` runs on the caller; with
/// an effective thread limit of 1 both run sequentially on the caller. A
/// panic in either closure propagates after both finish.
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
    std::thread::scope(|scope| {
        let hb = scope.spawn(fb);
        let a = catch_unwind(AssertUnwindSafe(fa));
        let b = hb.join();
        match (a, b) {
            (Ok(a), Ok(b)) => (a, b),
            // Propagate fa's panic first: it is the deterministic caller-side
            // failure; fb's payload (if any) is dropped with the scope.
            (Err(p), _) => resume_unwind(p),
            (_, Err(p)) => resume_unwind(p),
        }
    })
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
    if n == 0 {
        return Vec::new();
    }
    let workers = worker_count(n);
    if workers == 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let mut out: Vec<Option<R>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    let out_slots = SliceCells::new(&mut out);
    let cursor = AtomicUsize::new(0);

    let panic_payload = std::sync::Mutex::new(None);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let result = catch_unwind(AssertUnwindSafe(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let value = f(i, &items[i]);
                    // SAFETY: the cursor hands out each index exactly once,
                    // so no two threads touch the same slot, and the scope
                    // join orders these writes before the caller's reads.
                    unsafe { out_slots.write(i, Some(value)) };
                }));
                if let Err(p) = result {
                    // First panic wins; park the cursor so siblings drain.
                    // Recover a poisoned lock: two workers panicking at
                    // once must not escalate into a double panic (abort)
                    // while recording the first payload.
                    cursor.store(n, Ordering::Relaxed);
                    let mut slot = panic_payload.lock().unwrap_or_else(|e| e.into_inner());
                    if slot.is_none() {
                        *slot = Some(p);
                    }
                }
            });
        }
    });

    if let Some(p) = panic_payload
        .into_inner()
        .unwrap_or_else(|e| e.into_inner())
    {
        resume_unwind(p);
    }
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
    if items.is_empty() {
        return;
    }
    let chunks: Vec<&mut [T]> = items.chunks_mut(chunk_size).collect();
    let n = chunks.len();
    let cells = VecCells::new(chunks);
    let cursor = AtomicUsize::new(0);
    let workers = worker_count(n);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                // SAFETY: each chunk index is claimed exactly once.
                let chunk = unsafe { cells.take(i) };
                f(i, chunk);
            });
        }
    });
}

/// Parallel fold-and-merge: folds disjoint contiguous index ranges with
/// `fold`, then merges the per-range accumulators left-to-right with
/// `merge`. Because the ranges are contiguous and merged in index order, the
/// result is deterministic whenever `fold`/`merge` satisfy the usual
/// fold-homomorphism law — commutativity is *not* required.
pub fn par_reduce<T, A, F, M>(items: &[T], identity: impl Fn() -> A + Sync, fold: F, merge: M) -> A
where
    T: Sync,
    A: Send,
    F: Fn(A, usize, &T) -> A + Sync,
    M: Fn(A, A) -> A,
{
    let n = items.len();
    if n == 0 {
        return identity();
    }
    let workers = worker_count(n);
    if workers == 1 {
        return items
            .iter()
            .enumerate()
            .fold(identity(), |acc, (i, t)| fold(acc, i, t));
    }
    let per = n.div_ceil(workers);
    let ranges: Vec<(usize, usize)> = (0..workers)
        .map(|w| (w * per, ((w + 1) * per).min(n)))
        .filter(|(lo, hi)| lo < hi)
        .collect();

    let partials = par_map(&ranges, |_, &(lo, hi)| {
        let mut acc = identity();
        for (i, item) in items.iter().enumerate().take(hi).skip(lo) {
            acc = fold(acc, i, item);
        }
        acc
    });
    partials.into_iter().fold(identity(), merge)
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
    /// must happen after the spawning scope joins.
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
    fn par_reduce_sums() {
        let items: Vec<u64> = (1..=100_000).collect();
        let total = par_reduce(&items, || 0u64, |acc, _, &x| acc + x, |a, b| a + b);
        assert_eq!(total, 100_000 * 100_001 / 2);
    }

    #[test]
    fn par_reduce_empty_is_identity() {
        let total = par_reduce(&[] as &[u64], || 42u64, |acc, _, &x| acc + x, |a, b| a + b);
        assert_eq!(total, 42);
    }

    #[test]
    fn par_reduce_merge_order_deterministic() {
        // Concatenation is associative but not commutative, so the merge
        // order is observable — and must match the sequential order.
        let items: Vec<usize> = (0..1_000).collect();
        let s1 = par_reduce(
            &items,
            String::new,
            |mut acc, _, &x| {
                acc.push_str(&x.to_string());
                acc
            },
            |a, b| a + &b,
        );
        let mut s2 = String::new();
        for x in &items {
            s2.push_str(&x.to_string());
        }
        assert_eq!(s1, s2);
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
}
