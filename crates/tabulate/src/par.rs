//! The workspace's one fork-join. Tabulation tasks, per-cell release
//! noise and the dataset digest all fan out through [`map`], on up to
//! [`threads`] threads. Each caller makes its result independent of the
//! split: tabulation merges its task runs order-insensitively, noise is
//! seeded per cell, and the digest folds its chunks in order.

use std::panic::resume_unwind;
use std::sync::OnceLock;

/// `f` over `items`, in item order. The items are cut in order into
/// chunks of `⌈items / threads⌉`, and each chunk is mapped on a scoped
/// thread of its own while the caller waits. With one thread or at most
/// one item, `map` runs inline. A panic in `f` panics the caller.
pub fn map<T: Sync, U: Send>(items: &[T], threads: usize, f: impl Fn(&T) -> U + Sync) -> Vec<U> {
    if threads <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(items.len().div_ceil(threads))
            .map(|chunk| scope.spawn(move || chunk.iter().map(f).collect::<Vec<U>>()))
            .collect();
        let mut out = Vec::with_capacity(items.len());
        for handle in handles {
            out.extend(handle.join().unwrap_or_else(|panic| resume_unwind(panic)));
        }
        out
    })
}

/// The machine's available parallelism (1 where it cannot be read), read
/// once per process.
pub fn threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;
    use std::thread::ThreadId;

    #[test]
    fn map_keeps_item_order_at_any_thread_count() {
        for len in [0, 1, 7, 1_000] {
            let items: Vec<u64> = (0..len).collect();
            let expected: Vec<u64> = items.iter().map(|i| i * 3 + 1).collect();
            for threads in [1, 2, 3, 8] {
                assert_eq!(
                    map(&items, threads, |i| i * 3 + 1),
                    expected,
                    "{len} items, {threads} threads"
                );
            }
        }
    }

    /// Each chunk is mapped on a thread of its own and none on the
    /// caller. For these sizes, `n ≥ 2` threads cut the items into `n`
    /// chunks, so they run on `n` distinct threads.
    #[test]
    fn map_spawns_one_thread_per_chunk_and_leaves_the_caller_idle() {
        let caller = std::thread::current().id();
        for len in [7, 1_000] {
            let items: Vec<usize> = (0..len).collect();
            for threads in [2, 3, 8].into_iter().filter(|&n| n <= len) {
                let seen: Mutex<HashSet<ThreadId>> = Mutex::default();
                map(&items, threads, |_| {
                    seen.lock().unwrap().insert(std::thread::current().id());
                });
                let seen = seen.into_inner().unwrap();
                assert_eq!(seen.len(), threads, "{len} items, {threads} threads");
                assert!(!seen.contains(&caller), "{len} items, {threads} threads");
            }
        }
        // Inline: one thread, or one item.
        for (len, threads) in [(1_000, 1), (1, 8)] {
            let items: Vec<usize> = (0..len).collect();
            let on_caller = map(&items, threads, |_| std::thread::current().id() == caller);
            assert!(on_caller.iter().all(|&inline| inline));
        }
    }

    #[test]
    #[should_panic(expected = "item 500")]
    fn a_panicking_item_panics_the_caller() {
        let items: Vec<usize> = (0..1_000).collect();
        map(&items, 3, |&i| assert_ne!(i, 500, "item {i}"));
    }
}
