//! The per-worker scratch pool.
//!
//! Every query kernel keeps its per-query state — TA cursors and heap,
//! the seen-set, block bounds, the top-k collector, and the full-catalog
//! score buffer of the dense and fold-in scans — in one
//! [`QueryScratch`]. Building one per query would dominate small-catalog
//! latency, so workers check a scratch out of a shared pool, reuse it
//! for every query they answer, and return it on drop. Its buffers size
//! themselves against the catalog on first use (and follow it across a
//! snapshot swap); their contents are stale between queries and every
//! kernel overwrites what it reads. In steady state the pool holds one
//! scratch per concurrent worker, and a query allocates only its
//! result.

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use tcam_rec::QueryScratch;

/// A lock-guarded free list of [`QueryScratch`] buffers.
#[derive(Debug, Default)]
pub struct ScratchPool {
    idle: Mutex<Vec<QueryScratch>>,
    created: AtomicUsize,
}

impl ScratchPool {
    /// Creates an empty pool; buffers are created lazily on first
    /// checkout and recycled thereafter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a buffer out of the pool (allocating a fresh one only when
    /// the pool is empty). The buffer returns to the pool when the
    /// guard drops.
    pub fn checkout(&self) -> ScratchGuard<'_> {
        // tcam-lint: allow(no-panic) -- a poisoned pool means a panic already happened
        let recycled = self.idle.lock().expect("scratch pool poisoned").pop();
        let scratch = recycled.unwrap_or_else(|| {
            self.created.fetch_add(1, Ordering::Relaxed);
            QueryScratch::new()
        });
        ScratchGuard { pool: self, scratch: Some(scratch) }
    }

    /// Total buffers ever allocated — in steady state this equals the
    /// peak number of concurrent workers, not the query count.
    pub fn created(&self) -> usize {
        self.created.load(Ordering::Relaxed)
    }

    /// Buffers currently parked in the pool.
    pub fn idle(&self) -> usize {
        // tcam-lint: allow(no-panic) -- a poisoned pool means a panic already happened
        self.idle.lock().expect("scratch pool poisoned").len()
    }
}

/// RAII handle returning its buffer to the pool on drop.
#[derive(Debug)]
pub struct ScratchGuard<'a> {
    pool: &'a ScratchPool,
    scratch: Option<QueryScratch>,
}

impl Deref for ScratchGuard<'_> {
    type Target = QueryScratch;
    fn deref(&self) -> &QueryScratch {
        // tcam-lint: allow(no-panic) -- the Option is only taken in Drop
        self.scratch.as_ref().expect("scratch present until drop")
    }
}

impl DerefMut for ScratchGuard<'_> {
    fn deref_mut(&mut self) -> &mut QueryScratch {
        // tcam-lint: allow(no-panic) -- the Option is only taken in Drop
        self.scratch.as_mut().expect("scratch present until drop")
    }
}

impl Drop for ScratchGuard<'_> {
    fn drop(&mut self) {
        if let Some(scratch) = self.scratch.take() {
            // tcam-lint: allow(no-panic) -- a poisoned pool means a panic already happened
            self.pool.idle.lock().expect("scratch pool poisoned").push(scratch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_checkouts_reuse_one_buffer() {
        let pool = ScratchPool::new();
        for _ in 0..100 {
            drop(pool.checkout());
        }
        assert_eq!(pool.created(), 1, "drop must recycle, not leak");
        assert_eq!(pool.idle(), 1);
    }

    #[test]
    fn concurrent_checkouts_get_distinct_buffers() {
        let pool = ScratchPool::new();
        let a = pool.checkout();
        let b = pool.checkout();
        assert_eq!(pool.created(), 2);
        drop(a);
        drop(b);
        assert_eq!(pool.idle(), 2);
        // Both come back out of the pool without new allocations.
        let _c = pool.checkout();
        let _d = pool.checkout();
        assert_eq!(pool.created(), 2);
    }

    #[test]
    fn pool_is_usable_across_threads() {
        let pool = ScratchPool::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..50 {
                        drop(pool.checkout());
                    }
                });
            }
        });
        assert!(pool.created() <= 4, "at most one buffer per worker");
        assert_eq!(pool.idle(), pool.created());
    }
}
