//! Bounded top-k selection.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An `(index, score)` pair ordered by score (then index for determinism).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scored {
    /// Identifier of the scored object (e.g., an item index).
    pub index: usize,
    /// The ranking score.
    pub score: f64,
}

impl Eq for Scored {}

impl Ord for Scored {
    fn cmp(&self, other: &Self) -> Ordering {
        // Total order: compare scores, break ties by index so results are
        // deterministic. NaNs are treated as smallest.
        match self.score.partial_cmp(&other.score) {
            Some(Ordering::Equal) | None => other.index.cmp(&self.index),
            Some(ord) => ord,
        }
    }
}

impl PartialOrd for Scored {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A bounded collector that keeps the `k` highest-scoring entries seen.
///
/// Backed by a min-heap of size at most `k`; pushing is `O(log k)` and the
/// common case of a score below the current threshold is `O(1)`.
///
/// Ordering is the [`Scored`] total order — score descending with equal
/// scores broken by **ascending index** — so for any fixed input set the
/// kept entries and their order are fully deterministic, independent of
/// push order. The query kernels rely on this to return bit-identical
/// item ids for tied scores.
#[derive(Debug)]
pub struct TopK {
    k: usize,
    heap: BinaryHeap<std::cmp::Reverse<Scored>>,
}

impl Default for TopK {
    /// An empty collector for `k = 0`; call [`Self::reset`] to arm it.
    fn default() -> Self {
        TopK { k: 0, heap: BinaryHeap::new() }
    }
}

impl TopK {
    /// Creates a collector for the top `k` entries.
    pub fn new(k: usize) -> Self {
        TopK { k, heap: BinaryHeap::with_capacity(k + 1) }
    }

    /// Empties the collector and re-arms it for `k` entries, keeping the
    /// heap's allocation. Scratch-pooled query paths call this once per
    /// query instead of building a fresh collector.
    pub fn reset(&mut self, k: usize) {
        self.k = k;
        self.heap.clear();
        if self.heap.capacity() < k + 1 {
            self.heap.reserve(k + 1 - self.heap.capacity());
        }
    }

    /// Current heap capacity (stable across [`Self::reset`] at the same
    /// `k`).
    pub fn capacity(&self) -> usize {
        self.heap.capacity()
    }

    /// Number of entries currently held (`<= k`).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no entries have been collected.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Whether the collector holds `k` entries.
    pub fn is_full(&self) -> bool {
        self.heap.len() >= self.k
    }

    /// Current k-th best score, or `None` until `k` entries are held.
    pub fn threshold(&self) -> Option<f64> {
        if self.is_full() {
            self.heap.peek().map(|r| r.0.score)
        } else {
            None
        }
    }

    /// Offers an entry; it is kept only if it beats the current k-th best.
    // tcam-lint: hot
    pub fn push(&mut self, index: usize, score: f64) {
        if self.k == 0 {
            return;
        }
        let entry = Scored { index, score };
        if self.heap.len() < self.k {
            self.heap.push(std::cmp::Reverse(entry));
        } else if let Some(min) = self.heap.peek() {
            if entry > min.0 {
                self.heap.pop();
                self.heap.push(std::cmp::Reverse(entry));
            }
        }
    }

    /// Consumes the collector and returns entries sorted best-first
    /// (score descending, ties by ascending index).
    pub fn into_sorted(mut self) -> Vec<Scored> {
        self.drain_sorted()
    }

    /// Drains the collected entries sorted best-first, leaving the
    /// collector empty but with its heap allocation intact for reuse.
    pub fn drain_sorted(&mut self) -> Vec<Scored> {
        let mut entries = Vec::with_capacity(self.heap.len());
        self.drain_sorted_into(&mut entries);
        entries
    }

    /// Drains the collected entries sorted best-first into `out`
    /// (cleared first). Both the collector's heap and `out` keep their
    /// allocations, so a warm caller-owned `out` makes the whole query
    /// path allocation-free — the form the steady-state serving loop
    /// uses.
    // tcam-lint: hot
    pub fn drain_sorted_into(&mut self, out: &mut Vec<Scored>) {
        out.clear();
        out.extend(self.heap.drain().map(|r| r.0));
        out.sort_unstable_by(|a, b| b.cmp(a));
    }
}

/// Convenience: top-k of a dense score slice, best-first. `k` is
/// clamped to `scores.len()`, so an oversized `k` (up to `usize::MAX`)
/// never sizes the collector beyond the slice.
pub fn top_k_of_slice(scores: &[f64], k: usize) -> Vec<Scored> {
    let mut collector = TopK::new(k.min(scores.len()));
    for (i, &s) in scores.iter().enumerate() {
        collector.push(i, s);
    }
    collector.into_sorted()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_highest_k() {
        let scores = [0.1, 0.9, 0.5, 0.7, 0.3];
        let top = top_k_of_slice(&scores, 2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].index, 1);
        assert_eq!(top[1].index, 3);
    }

    #[test]
    fn sorted_best_first() {
        let scores = [3.0, 1.0, 2.0, 5.0, 4.0];
        let top = top_k_of_slice(&scores, 5);
        let got: Vec<usize> = top.iter().map(|s| s.index).collect();
        assert_eq!(got, vec![3, 4, 0, 2, 1]);
    }

    #[test]
    fn k_larger_than_input() {
        let top = top_k_of_slice(&[1.0, 2.0], 10);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].index, 1);
        assert_eq!(top_k_of_slice(&[1.0, 2.0], usize::MAX), top);
    }

    #[test]
    fn k_zero_is_empty() {
        let top = top_k_of_slice(&[1.0, 2.0], 0);
        assert!(top.is_empty());
    }

    #[test]
    fn ties_broken_by_lower_index() {
        let top = top_k_of_slice(&[1.0, 1.0, 1.0], 2);
        assert_eq!(top[0].index, 0);
        assert_eq!(top[1].index, 1);
    }

    #[test]
    fn threshold_tracks_kth_best() {
        let mut collector = TopK::new(2);
        assert_eq!(collector.threshold(), None);
        collector.push(0, 1.0);
        assert_eq!(collector.threshold(), None);
        collector.push(1, 3.0);
        assert_eq!(collector.threshold(), Some(1.0));
        collector.push(2, 2.0);
        assert_eq!(collector.threshold(), Some(2.0));
    }

    #[test]
    fn reset_reuses_allocation_and_rearms() {
        let mut collector = TopK::new(3);
        for i in 0..10 {
            collector.push(i, i as f64);
        }
        let cap = collector.capacity();
        let first = collector.drain_sorted();
        assert_eq!(first.iter().map(|s| s.index).collect::<Vec<_>>(), vec![9, 8, 7]);
        collector.reset(3);
        assert_eq!(collector.capacity(), cap, "reset must not reallocate");
        for i in 0..5 {
            collector.push(i, -(i as f64));
        }
        let second = collector.drain_sorted();
        assert_eq!(second.iter().map(|s| s.index).collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn tie_break_is_push_order_independent() {
        // The kept set and its order depend only on the input set: equal
        // scores always resolve to the ascending-index prefix.
        let mut forward = TopK::new(2);
        let mut reverse = TopK::new(2);
        for i in 0..6 {
            forward.push(i, 1.0);
            reverse.push(5 - i, 1.0);
        }
        let f = forward.drain_sorted();
        let r = reverse.drain_sorted();
        assert_eq!(f.iter().map(|s| s.index).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(r.iter().map(|s| s.index).collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn matches_full_sort_on_random_input() {
        let mut rng = crate::rng::Pcg64::new(60);
        for _ in 0..20 {
            let scores: Vec<f64> = (0..100).map(|_| rng.next_f64()).collect();
            let top = top_k_of_slice(&scores, 10);
            let mut full: Vec<Scored> =
                scores.iter().enumerate().map(|(index, &score)| Scored { index, score }).collect();
            full.sort_by(|a, b| b.cmp(a));
            for (a, b) in top.iter().zip(full.iter().take(10)) {
                assert_eq!(a.index, b.index);
            }
        }
    }
}
