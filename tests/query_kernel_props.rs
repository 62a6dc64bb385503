//! Property tests for the query kernels against a *synthetic* factored
//! scorer with adversarial weight structure the fitted models rarely
//! produce: heavy duplicate/tied item weights, zero query weights,
//! single-factor queries, and catalogs that straddle block boundaries.
//!
//! Weights are drawn from the dyadic grid {0, 1/8, ..., 1}, so every
//! product and partial sum is exactly representable in an f64 —
//! scores that tie do so *exactly* in every summation order, which makes
//! outright item-id comparison against brute force meaningful (the
//! deterministic tie-break must hold, not just score closeness).

use tcam::data::{TimeId, UserId};
use tcam::math::Pcg64;
use tcam::rec::ta::{brute_force_top_k, QueryScratch, TaIndex};
use tcam::rec::{FactoredScorer, TemporalScorer};

/// A factored scorer whose weights live on the dyadic grid; `user` and
/// `time` are ignored — one instance is one query.
struct GridScorer {
    num_items: usize,
    /// `factors[z][v]` on the grid `{0, 1/8, ..., 1}`.
    factors: Vec<Vec<f64>>,
    /// Query weights per factor, same grid (zeros included on purpose).
    query: Vec<f64>,
}

impl GridScorer {
    fn random(num_items: usize, num_factors: usize, seed: u64, zero_mask: u32) -> Self {
        let mut rng = Pcg64::new(seed);
        let grid = |rng: &mut Pcg64| (rng.gen_range(9) as f64) / 8.0;
        let factors =
            (0..num_factors).map(|_| (0..num_items).map(|_| grid(&mut rng)).collect()).collect();
        let query = (0..num_factors)
            .map(|z| if zero_mask & (1 << z) != 0 { 0.0 } else { grid(&mut rng) })
            .collect();
        GridScorer { num_items, factors, query }
    }
}

impl TemporalScorer for GridScorer {
    fn name(&self) -> &str {
        "grid"
    }
    fn num_items(&self) -> usize {
        self.num_items
    }
    fn score(&self, _user: UserId, _time: TimeId, item: usize) -> f64 {
        self.query.iter().zip(self.factors.iter()).map(|(&w, phi)| w * phi[item]).sum()
    }
    fn score_all(&self, user: UserId, time: TimeId, out: &mut [f64]) {
        // Deliberately a per-item gather-dot — a *different* summation
        // order than the kernels' factor-major accumulation. Exact on
        // the dyadic grid, so ids must still match outright.
        for (item, slot) in out.iter_mut().enumerate() {
            *slot = self.score(user, time, item);
        }
    }
}

impl FactoredScorer for GridScorer {
    fn num_factors(&self) -> usize {
        self.factors.len()
    }
    fn factor_items(&self, z: usize) -> &[f64] {
        &self.factors[z]
    }
    fn query_factors(&self, _user: UserId, _time: TimeId) -> Vec<(usize, f64)> {
        // Zero weights included: the kernels must tolerate them.
        self.query.iter().enumerate().map(|(z, &w)| (z, w)).collect()
    }
}

fn assert_ids_and_scores_equal(
    kernel: &[tcam::math::topk::Scored],
    bf: &[tcam::math::topk::Scored],
    label: &str,
) {
    assert_eq!(kernel.len(), bf.len(), "{label}: size");
    for (rank, (a, b)) in kernel.iter().zip(bf.iter()).enumerate() {
        assert_eq!(a.index, b.index, "{label}: rank {rank} item {} vs {}", a.index, b.index);
        assert!(
            (a.score - b.score).abs() < 1e-10,
            "{label}: rank {rank} score {} vs {}",
            a.score,
            b.score
        );
    }
}

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Both kernels == brute force, item ids compared outright, across
    /// random dyadic weight matrices. `num_items` spans sub-block
    /// catalogs (< 64) through multi-block ones; `zero_mask` knocks out
    /// query weights (sometimes all of them); `num_factors = 1`
    /// exercises single-factor queries; large `k` relative to the
    /// catalog exercises the dense fallback.
    #[test]
    fn kernels_equal_brute_force_on_grid_weights(
        num_items in 1usize..300,
        num_factors in 1usize..6,
        k in 0usize..24,
        seed in 0u64..1_000_000,
        zero_mask in 0u32..64,
    ) {
        let scorer = GridScorer::random(num_items, num_factors, seed, zero_mask);
        let index = TaIndex::build(&scorer);
        let mut buffer = vec![0.0; num_items];
        let mut scratch = QueryScratch::new();
        let mut out = Vec::new();
        let (user, time) = (UserId(0), TimeId(0));

        let bf = brute_force_top_k(&scorer, user, time, k, &mut buffer);
        let blockmax = index.top_k_into(&scorer, user, time, k, &mut scratch, &mut out);
        assert_ids_and_scores_equal(&out, &bf, "block-max");
        index.top_k_classic_into(&scorer, user, time, k, &mut scratch, &mut out);
        assert_ids_and_scores_equal(&out, &bf, "classic TA");
        prop_assert!(blockmax.items_examined <= num_items);
        prop_assert!(blockmax.blocks_skipped <= index.num_blocks());
    }

    /// Tied weights en masse: a two-valued weight grid makes most items
    /// exact score duplicates, so any nondeterministic tie handling in
    /// either kernel (or the heap) shows up as an id mismatch.
    #[test]
    fn kernels_break_massive_ties_by_item_id(
        num_items in 2usize..200,
        k in 1usize..16,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = Pcg64::new(seed);
        let factors: Vec<Vec<f64>> = vec![
            (0..num_items).map(|_| if rng.gen_range(2) == 0 { 0.5 } else { 1.0 }).collect(),
            vec![0.25; num_items],
        ];
        let scorer = GridScorer { num_items, factors, query: vec![1.0, 0.5] };
        let index = TaIndex::build(&scorer);
        let mut buffer = vec![0.0; num_items];
        let mut scratch = QueryScratch::new();
        let mut out = Vec::new();
        let (user, time) = (UserId(0), TimeId(0));

        let bf = brute_force_top_k(&scorer, user, time, k, &mut buffer);
        // Ties resolve to the ascending-id prefix within each score class.
        for pair in bf.windows(2) {
            prop_assert!(
                pair[0].score > pair[1].score
                    || (pair[0].score == pair[1].score && pair[0].index < pair[1].index)
            );
        }
        index.top_k_into(&scorer, user, time, k, &mut scratch, &mut out);
        assert_ids_and_scores_equal(&out, &bf, "block-max/ties");
        index.top_k_classic_into(&scorer, user, time, k, &mut scratch, &mut out);
        assert_ids_and_scores_equal(&out, &bf, "classic/ties");
    }
}
