//! A small, work-stealing-free chunked thread pool.
//!
//! [`ChunkPool::map`] runs `tasks` independent closures on up to
//! `threads` OS threads (`std::thread::scope` + channels — no external
//! crates) and returns their results **in task order**. Workers claim
//! task indices from a shared atomic counter, so scheduling is dynamic,
//! but nothing about a task's *inputs* depends on which worker runs it:
//! as long as each task derives its randomness from its own index (via
//! [`ethpos_stats::SeedSequence`]), the assembled result vector is
//! bit-identical for any thread count — including `threads = 1`, which
//! runs inline on the calling thread.
//!
//! This is deliberately *not* a work-stealing deque: tasks here are
//! chunky (thousands of walker-epochs each), so a single shared counter
//! has no measurable contention and keeps the scheduling trivially
//! auditable.
//!
//! [`ChunkPool::map_mut`] is the in-place variant for a handful of
//! heavy items (one epoch's branch states): contiguous shares, the
//! first on the calling thread, results again in item order.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Cached registry handles for the pool's series — looked up once per
/// process, so the per-task cost is a couple of relaxed atomic RMWs.
struct PoolMetrics {
    completed: Arc<ethpos_obs::Counter>,
    busy_micros: Arc<ethpos_obs::Counter>,
    wall_micros: Arc<ethpos_obs::Counter>,
}

impl PoolMetrics {
    /// The handles, or `None` while metrics are disabled (one relaxed
    /// load — the uninstrumented fast path).
    fn get() -> Option<&'static PoolMetrics> {
        if !ethpos_obs::metrics_enabled() {
            return None;
        }
        static HANDLES: OnceLock<PoolMetrics> = OnceLock::new();
        Some(HANDLES.get_or_init(|| {
            let r = ethpos_obs::global();
            PoolMetrics {
                completed: r.counter(
                    "ethpos_chunk_pool_tasks_completed_total",
                    "Tasks the chunk pool finished.",
                    &[],
                ),
                busy_micros: r.counter(
                    "ethpos_chunk_pool_worker_busy_micros_total",
                    "Wall-clock microseconds workers spent inside tasks \
                     (utilization = busy / (wall x threads)).",
                    &[],
                ),
                wall_micros: r.counter(
                    "ethpos_chunk_pool_wall_micros_total",
                    "Wall-clock microseconds ChunkPool::map calls spanned.",
                    &[],
                ),
            }
        }))
    }
}

/// A fixed-width pool that maps an indexed task set onto OS threads.
///
/// # Example
///
/// Results arrive in task order no matter how the threads interleave:
///
/// ```
/// use ethpos_sim::ChunkPool;
///
/// let squares = ChunkPool::new(4).map(8, |i| i * i);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
/// // A different thread count produces the same vector.
/// assert_eq!(ChunkPool::new(1).map(8, |i| i * i), squares);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ChunkPool {
    threads: usize,
}

impl ChunkPool {
    /// Creates a pool of `threads` workers; `0` means one worker per
    /// available hardware thread.
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            threads
        };
        ChunkPool { threads }
    }

    /// The worker count this pool will use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `task(i)` for every `i in 0..tasks` and returns the results
    /// indexed by `i`.
    ///
    /// The output is a pure function of the task closure — never of the
    /// thread count or of scheduling order.
    pub fn map<T, F>(&self, tasks: usize, task: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if tasks == 0 {
            return Vec::new();
        }
        // Instrumentation (metrics/span recording) is runtime-gated and
        // observation-only: task inputs, outputs and merge order never
        // depend on it, so instrumented runs stay byte-identical.
        let metrics = PoolMetrics::get();
        let map_start = metrics.map(|_| Instant::now());
        let run_one = |i: usize| {
            let _span = ethpos_obs::span_with("chunk", || format!("pool task {i}"));
            match metrics {
                Some(m) => {
                    let t0 = Instant::now();
                    let out = task(i);
                    m.busy_micros.add(t0.elapsed().as_micros() as u64);
                    m.completed.inc();
                    out
                }
                None => task(i),
            }
        };
        let workers = self.threads.min(tasks);
        let results = if workers <= 1 {
            (0..tasks).map(run_one).collect()
        } else {
            let next = AtomicUsize::new(0);
            let (tx, rx) = mpsc::channel::<(usize, T)>();
            let mut slots: Vec<Option<T>> = (0..tasks).map(|_| None).collect();
            std::thread::scope(|scope| {
                let mut handles = Vec::with_capacity(workers);
                for _ in 0..workers {
                    let tx = tx.clone();
                    let next = &next;
                    let run_one = &run_one;
                    handles.push(scope.spawn(move || loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= tasks {
                            break;
                        }
                        // A send only fails if the receiver is gone, and the
                        // receiver outlives the scope.
                        let _ = tx.send((i, run_one(i)));
                    }));
                }
                drop(tx);
                for (i, value) in rx {
                    slots[i] = Some(value);
                }
                // Re-raise a task's own panic: left to the scope, it would
                // surface as the generic "a scoped thread panicked".
                for handle in handles {
                    handle
                        .join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
                }
            });
            slots
                .into_iter()
                .map(|s| s.expect("every task index produced a result"))
                .collect()
        };
        if let (Some(m), Some(t0)) = (metrics, map_start) {
            m.wall_micros.add(t0.elapsed().as_micros() as u64);
        }
        results
    }

    /// Runs `task(i, &mut items[i])` for every item, in place, and
    /// returns the results in item order.
    ///
    /// The items are cut into up to `threads` contiguous shares: the
    /// calling thread runs the first share inline while scoped threads
    /// run the others, so two items on two threads cost one spawn. As
    /// with [`ChunkPool::map`], the results and every item's final value
    /// are a pure function of `task` — never of the thread count.
    ///
    /// Unlike [`ChunkPool::map`] this feeds none of the pool's metrics:
    /// it serves fine-grained work inside a task whose time those
    /// metrics already count (one epoch's branch advances inside a
    /// partition scenario).
    pub fn map_mut<I, T, F>(&self, items: &mut [I], task: F) -> Vec<T>
    where
        I: Send,
        T: Send,
        F: Fn(usize, &mut I) -> T + Sync,
    {
        let workers = self.threads.min(items.len());
        if workers <= 1 {
            return items
                .iter_mut()
                .enumerate()
                .map(|(i, item)| task(i, item))
                .collect();
        }
        let share = items.len().div_ceil(workers);
        let task = &task;
        let run = move |offset: usize, chunk: &mut [I]| -> Vec<T> {
            chunk
                .iter_mut()
                .enumerate()
                .map(|(i, item)| task(offset + i, item))
                .collect()
        };
        std::thread::scope(|scope| {
            let mut chunks = items.chunks_mut(share);
            let first = chunks.next().expect("two or more items");
            let others: Vec<_> = chunks
                .enumerate()
                .map(|(k, chunk)| scope.spawn(move || run((k + 1) * share, chunk)))
                .collect();
            let mut results = run(0, first);
            for other in others {
                results.extend(
                    other
                        .join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
                );
            }
            results
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ethpos_stats::SeedSequence;
    use rand::Rng;

    #[test]
    fn map_preserves_task_order() {
        let pool = ChunkPool::new(3);
        // Uneven task durations scramble completion order; output order
        // must not care.
        let out = pool.map(64, |i| {
            if i % 7 == 0 {
                std::thread::yield_now();
            }
            i * 2
        });
        assert_eq!(out, (0..64).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn thread_count_does_not_change_seeded_results() {
        let seq = SeedSequence::new(42);
        let draw = |i: usize| {
            let mut rng = seq.child_rng(i as u64);
            (0..100).fold(0u64, |acc, _| acc ^ rng.random::<u64>())
        };
        let one = ChunkPool::new(1).map(40, draw);
        for threads in [2, 4, 8] {
            assert_eq!(ChunkPool::new(threads).map(40, draw), one, "{threads}");
        }
    }

    #[test]
    fn zero_threads_resolves_to_hardware_parallelism() {
        let pool = ChunkPool::new(0);
        assert!(pool.threads() >= 1);
        assert_eq!(pool.map(5, |i| i), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn empty_and_single_task_sets() {
        let pool = ChunkPool::new(8);
        assert_eq!(pool.map(0, |i| i), Vec::<usize>::new());
        assert_eq!(pool.map(1, |i| i + 10), vec![10]);
    }

    #[test]
    fn more_threads_than_tasks_is_fine() {
        let out = ChunkPool::new(16).map(3, |i| i as u64 + 1);
        assert_eq!(out, vec![1, 2, 3]);
    }

    /// Every item is visited once with its own index, mutated in place,
    /// and its result lands at its index — for any item and thread count,
    /// including shares that do not divide the items evenly.
    #[test]
    fn map_mut_visits_each_item_once_in_item_order() {
        for len in [0, 1, 2, 3, 5, 8, 13] {
            let expected: Vec<(usize, u64)> = (0..len).map(|i| (i, 10 * i as u64 + 1)).collect();
            for threads in [1, 2, 3, 4, 8, 16] {
                let mut items: Vec<u64> = (0..len as u64).map(|i| 10 * i).collect();
                let out = ChunkPool::new(threads).map_mut(&mut items, |i, item| {
                    if i % 3 == 0 {
                        std::thread::yield_now();
                    }
                    *item += 1;
                    (i, *item)
                });
                assert_eq!(out, expected, "len {len}, threads {threads}");
                let values: Vec<u64> = expected.iter().map(|&(_, v)| v).collect();
                assert_eq!(items, values, "len {len}, threads {threads}");
            }
        }
    }

    /// The first share runs on the calling thread; the others do not.
    #[test]
    fn map_mut_runs_the_first_share_inline() {
        let caller = std::thread::current().id();
        let mut items = [0u8; 4];
        let on_caller =
            ChunkPool::new(2).map_mut(&mut items, |_, _| std::thread::current().id() == caller);
        assert_eq!(on_caller, [true, true, false, false]);
    }

    #[test]
    #[should_panic(expected = "task 3")]
    fn map_propagates_a_worker_panic() {
        ChunkPool::new(2).map(4, |i| {
            assert_ne!(i, 3, "task {i}");
            i
        });
    }

    #[test]
    #[should_panic(expected = "item 3")]
    fn map_mut_propagates_a_worker_panic() {
        let mut items = [0u8; 4];
        ChunkPool::new(2).map_mut(&mut items, |i, _| assert_ne!(i, 3, "item {i}"));
    }
}
