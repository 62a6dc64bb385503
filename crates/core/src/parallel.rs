//! Parallel E-step scaffolding.
//!
//! The E-step factorizes over ratings, so we shard *users* (whose entry
//! runs are contiguous in the cuboid) across scoped threads and merge
//! per-thread sufficient statistics. Sharding is balanced by entry
//! count, not user count — social-media activity is heavy-tailed and a
//! per-user split would leave one thread holding the whales.

use std::ops::Range;

/// Splits `0..costs.len()` into at most `n` contiguous ranges with
/// approximately equal total cost: each range closes once it reaches
/// `ceil(total / n)`, and the last takes the remainder. An empty or
/// all-zero input gives the single range `0..costs.len()`.
///
/// The EM shard plan balances users by entry count and the serving
/// engine balances query batches by `k`.
pub fn balanced_ranges(costs: &[usize], n: usize) -> Vec<Range<usize>> {
    let len = costs.len();
    let total: usize = costs.iter().sum();
    let n = n.max(1);
    if n == 1 || total == 0 {
        #[allow(clippy::single_range_in_vec_init)] // one range covering the input
        return vec![0..len];
    }
    let target = total.div_ceil(n);
    let mut ranges = Vec::with_capacity(n);
    let mut start = 0usize;
    let mut acc = 0usize;
    for (i, &cost) in costs.iter().enumerate() {
        acc += cost;
        if acc >= target && ranges.len() + 1 < n {
            ranges.push(start..i + 1);
            start = i + 1;
            acc = 0;
        }
    }
    if start < len || ranges.is_empty() {
        ranges.push(start..len);
    }
    ranges
}

/// Runs a fixed list of pre-built shard tasks on up to `num_threads`
/// scoped threads, each task exactly once.
///
/// The EM driver builds one task per fixed shard carrying that shard's
/// `&mut` scratch, so the work done per shard is identical for every
/// thread count; threads only change which tasks run concurrently.
/// Tasks are distributed as contiguous chunks (they are already
/// entry-balanced). With one thread everything runs on the caller's
/// thread, spawn-free.
pub fn run_tasks<T, F>(num_threads: usize, mut tasks: Vec<T>, work: F)
where
    T: Send,
    F: Fn(T) + Sync,
{
    let num_threads = num_threads.max(1).min(tasks.len().max(1));
    if num_threads <= 1 {
        for task in tasks {
            work(task);
        }
        return;
    }
    let chunk = tasks.len().div_ceil(num_threads);
    std::thread::scope(|scope| {
        while !tasks.is_empty() {
            let take = chunk.min(tasks.len());
            let group: Vec<T> = tasks.drain(..take).collect();
            let work = &work;
            scope.spawn(move || {
                for task in group {
                    work(task);
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    // Costs here are per-user entry counts, as in the EM shard plan.

    #[test]
    fn shards_cover_all_users_in_order() {
        let costs = [5usize, 1, 1, 1, 8, 2, 2];
        for threads in 1..=5 {
            let shards = balanced_ranges(&costs, threads);
            assert!(shards.len() <= threads);
            assert_eq!(shards.first().unwrap().start, 0);
            assert_eq!(shards.last().unwrap().end, 7);
            for w in shards.windows(2) {
                assert_eq!(w[0].end, w[1].start);
            }
        }
    }

    #[test]
    fn shards_balance_heavy_tail() {
        // One whale user with 90 entries and nine minnows with 1 each.
        let mut costs = vec![90usize];
        costs.extend(std::iter::repeat(1).take(9));
        let shards = balanced_ranges(&costs, 2);
        assert_eq!(shards.len(), 2);
        // The whale must sit alone in the first shard.
        assert_eq!(shards[0], 0..1);
    }

    #[test]
    #[allow(clippy::single_range_in_vec_init)] // expected partition of one range
    fn single_thread_single_shard() {
        assert_eq!(balanced_ranges(&[1, 2, 3], 1), vec![0..3]);
    }

    #[test]
    #[allow(clippy::single_range_in_vec_init)] // expected partition of one range
    fn empty_cuboid_one_shard() {
        // Three users with no entries: zero total cost still gives one range.
        assert_eq!(balanced_ranges(&[0, 0, 0], 4), vec![0..3]);
    }

    #[test]
    fn run_tasks_runs_every_task_once_at_any_thread_count() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        for threads in [1usize, 2, 3, 8] {
            let hits: Vec<AtomicUsize> = (0..5).map(|_| AtomicUsize::new(0)).collect();
            let tasks: Vec<usize> = (0..5).collect();
            run_tasks(threads, tasks, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::Relaxed), 1, "task {i} at {threads} threads");
            }
        }
    }

    #[test]
    fn run_tasks_passes_mutable_state_through() {
        let mut buffers = [vec![0.0f64; 4], vec![0.0; 4], vec![0.0; 4]];
        let tasks: Vec<(usize, &mut Vec<f64>)> = buffers.iter_mut().enumerate().collect();
        run_tasks(2, tasks, |(i, buf)| buf[0] = i as f64 + 1.0);
        assert_eq!([buffers[0][0], buffers[1][0], buffers[2][0]], [1.0, 2.0, 3.0]);
    }
}
