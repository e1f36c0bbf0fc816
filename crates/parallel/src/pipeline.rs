//! A bounded producer/consumer pipeline stage on `crossbeam-channel`.
//!
//! The direct campaign→db path streams each node's recovered log to a
//! consumer the moment its simulation completes, instead of materializing
//! the whole campaign. [`stage_shared`] runs such a producer against a
//! bounded channel, which gives backpressure — the producer can never run
//! more than `capacity` items ahead of the consumers, keeping memory
//! bounded no matter how large the log volume is.

use crossbeam::channel;
use parking_lot::Mutex;

/// Statistics about one pipeline run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageStats {
    /// Items the producer emitted.
    pub produced: u64,
    /// Items the consumers processed.
    pub consumed: u64,
}

/// Run a bounded pipeline stage whose producer emits from *many* threads
/// at once — the shape of the direct campaign→db stream, where every
/// supervised simulation worker pushes its node's recovered log the
/// moment it completes. `consumers` threads pull items and fold them into
/// per-consumer accumulators, merged in consumer-index order at the end.
///
/// Returns the merged accumulator and the run statistics. With a
/// multi-threaded producer the *arrival* order is nondeterministic, so
/// deterministic callers must fold into an order-insensitive accumulator
/// and impose a total order afterwards (the direct db path sorts its
/// per-node results by node id).
///
/// The consumers run on scoped threads of their own, not on the
/// [`crate`] pool: a consumer blocks for the producer's whole run, and as
/// a pool job it would take a worker away from a producer that fans out
/// over the pool (the campaign's `par_map_supervised`). For the same
/// reason `fold` must not fan out: while the channel is full, every pool
/// worker may be blocked in the emit hook, waiting for the consumers.
pub fn stage_shared<T, A>(
    capacity: usize,
    consumers: usize,
    producer: impl FnOnce(&(dyn Fn(T) + Sync)) + Send,
    identity: impl Fn() -> A + Sync,
    fold: impl Fn(A, T) -> A + Sync,
    merge: impl Fn(A, A) -> A,
) -> (A, StageStats)
where
    T: Send,
    A: Send,
{
    use std::sync::atomic::{AtomicU64, Ordering};

    assert!(capacity > 0, "capacity must be positive");
    let consumers = consumers.max(1);
    let (tx, rx) = channel::bounded::<T>(capacity);
    let produced = AtomicU64::new(0);
    let partials: Mutex<Vec<(usize, A)>> = Mutex::new(Vec::new());
    let consumed_total = Mutex::new(0u64);

    std::thread::scope(|scope| {
        for worker in 0..consumers {
            let rx = rx.clone();
            let partials = &partials;
            let consumed_total = &consumed_total;
            let identity = &identity;
            let fold = &fold;
            scope.spawn(move || {
                let mut acc = identity();
                let mut count = 0u64;
                for item in rx.iter() {
                    acc = fold(acc, item);
                    count += 1;
                }
                partials.lock().push((worker, acc));
                *consumed_total.lock() += count;
            });
        }
        drop(rx);

        let push = |item: T| {
            tx.send(item).expect("consumers alive while producing");
            produced.fetch_add(1, Ordering::Relaxed);
        };
        producer(&push);
        drop(tx); // close the channel so consumers drain and exit
    });

    let mut parts = partials.into_inner();
    parts.sort_by_key(|(w, _)| *w);
    let acc = parts.into_iter().map(|(_, a)| a).fold(identity(), merge);
    let stats = StageStats {
        produced: produced.into_inner(),
        consumed: consumed_total.into_inner(),
    };
    (acc, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_shared_accepts_emits_from_many_threads() {
        let (sum, stats) = stage_shared(
            16,
            3,
            |push| {
                std::thread::scope(|s| {
                    for t in 0..4u64 {
                        s.spawn(move || {
                            for i in 0..1_000u64 {
                                push(t * 1_000 + i);
                            }
                        });
                    }
                });
            },
            || 0u64,
            |acc, x| acc + x,
            |a, b| a + b,
        );
        assert_eq!(sum, (0..4_000u64).sum::<u64>());
        assert_eq!(stats.produced, 4_000);
        assert_eq!(stats.consumed, 4_000);
    }

    #[test]
    fn stage_shared_empty_producer() {
        let (acc, stats) = stage_shared(
            8,
            2,
            |_push: &(dyn Fn(u32) + Sync)| {},
            || 0u32,
            |acc, x: u32| acc + x,
            |a, b| a + b,
        );
        assert_eq!(acc, 0);
        assert_eq!(stats, StageStats::default());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn stage_shared_zero_capacity_panics() {
        stage_shared(
            0,
            1,
            |_push: &(dyn Fn(u32) + Sync)| {},
            || 0u32,
            |a, _| a,
            |a, _| a,
        );
    }

    #[test]
    fn stage_shared_zero_consumers_clamped_to_one() {
        let (sum, stats) = stage_shared(
            4,
            0,
            |push| {
                for i in 0..10u32 {
                    push(i);
                }
            },
            || 0u32,
            |acc, x| acc + x,
            |a, b| a + b,
        );
        assert_eq!(sum, 45);
        assert_eq!(stats.consumed, 10);
    }
}
