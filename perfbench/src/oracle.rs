//! The oracles the benchmark checks outputs against — the same ones the
//! test suite trusts: brute force for a query, a cold refit for a
//! refresh, both at the 1e-10 bar of `tests/serving.rs`,
//! `tests/ta_equivalence.rs` and `tests/online_equivalence.rs`.

use tcam_core::TtcamModel;
use tcam_data::{TimeId, UserId};
use tcam_math::topk::Scored;
use tcam_rec::brute_force_top_k;
use tcam_serve::{FoldedScorer, ModelSnapshot, Query};

/// Largest score difference accepted between a ranking and its oracle.
pub const SCORE_TOLERANCE: f64 = 1e-10;

/// Compares a ranking with its reference: same length, the same item
/// id at every rank, and scores within [`SCORE_TOLERANCE`].
pub fn compare(got: &[Scored], want: &[Scored]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{} items, reference has {}", got.len(), want.len()));
    }
    for (rank, (g, w)) in got.iter().zip(want).enumerate() {
        if g.index != w.index {
            return Err(format!("rank {rank}: item {} vs reference item {}", g.index, w.index));
        }
        // False when either side is NaN, so NaN fails the check.
        let close = (g.score - w.score).abs() < SCORE_TOLERANCE;
        if !close {
            return Err(format!("rank {rank}: score {} vs reference {}", g.score, w.score));
        }
    }
    Ok(())
}

/// The brute-force answer to `q` on `snap`: the time clamped to the
/// last fitted interval, a seen user scored with the snapshot's model,
/// an unseen one with the snapshot's no-evidence fold-in prior.
pub fn reference(snap: &ModelSnapshot, q: Query, buffer: &mut Vec<f64>) -> Vec<Scored> {
    let last = snap.num_times().saturating_sub(1) as u32;
    let time = TimeId(q.time.0.min(last));
    buffer.resize(snap.num_items(), 0.0);
    if q.user.index() < snap.num_users() {
        brute_force_top_k(snap.model(), q.user, time, q.k, buffer)
    } else {
        let scorer = FoldedScorer { model: snap.model(), folded: snap.default_folded() };
        brute_force_top_k(&scorer, q.user, time, q.k, buffer)
    }
}

/// Whether every parameter of `m` is finite — what a refresh must
/// publish for its snapshot to count as valid.
pub fn model_is_finite(m: &TtcamModel) -> bool {
    let finite = |xs: &[f64]| xs.iter().all(|x| x.is_finite());
    m.background_weight().is_finite()
        && finite(m.lambdas())
        && finite(m.background())
        && (0..m.num_users()).all(|u| finite(m.user_interest(UserId::from(u))))
        && (0..m.num_user_topics()).all(|z| finite(m.user_topic(z)))
        && (0..m.num_times()).all(|t| finite(m.temporal_context(TimeId::from(t))))
        && (0..m.num_time_topics()).all(|x| finite(m.time_topic(x)))
}

/// Whether two models hold bit-identical parameters.
pub fn models_bitwise_equal(a: &TtcamModel, b: &TtcamModel) -> bool {
    let same = |x: &[f64], y: &[f64]| {
        x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
    };
    a.num_users() == b.num_users()
        && a.num_times() == b.num_times()
        && a.num_items() == b.num_items()
        && a.num_user_topics() == b.num_user_topics()
        && a.num_time_topics() == b.num_time_topics()
        && a.background_weight().to_bits() == b.background_weight().to_bits()
        && same(a.lambdas(), b.lambdas())
        && same(a.background(), b.background())
        && (0..a.num_users())
            .all(|u| same(a.user_interest(UserId::from(u)), b.user_interest(UserId::from(u))))
        && (0..a.num_user_topics()).all(|z| same(a.user_topic(z), b.user_topic(z)))
        && (0..a.num_times())
            .all(|t| same(a.temporal_context(TimeId::from(t)), b.temporal_context(TimeId::from(t))))
        && (0..a.num_time_topics()).all(|x| same(a.time_topic(x), b.time_topic(x)))
}

/// Checks a refreshed model against its cold refit the way
/// `tests/online_equivalence.rs` does: for every third user, the top 8
/// at the newest interval must match. Returns the users checked and
/// the users whose rankings differ.
pub fn compare_refit(
    published: &TtcamModel,
    cold: &TtcamModel,
    buffer: &mut Vec<f64>,
) -> (u64, u64) {
    const K: usize = 8;
    if published.num_times() != cold.num_times() || published.num_users() != cold.num_users() {
        return (1, 1);
    }
    let t = TimeId(cold.num_times().saturating_sub(1) as u32);
    let mut other = vec![0.0; cold.num_items()];
    buffer.resize(published.num_items(), 0.0);
    let (mut checked, mut mismatched) = (0, 0);
    for u in (0..published.num_users() as u32).step_by(3) {
        let got = brute_force_top_k(published, UserId(u), t, K, buffer);
        let want = brute_force_top_k(cold, UserId(u), t, K, &mut other);
        checked += 1;
        mismatched += u64::from(compare(&got, &want).is_err());
    }
    (checked, mismatched)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ranking() -> Vec<Scored> {
        vec![
            Scored { index: 7, score: 0.30 },
            Scored { index: 2, score: 0.20 },
            Scored { index: 9, score: 0.10 },
        ]
    }

    #[test]
    fn comparator_accepts_identical_and_in_tolerance() {
        let want = ranking();
        assert!(compare(&want, &want).is_ok());
        let mut got = ranking();
        got[1].score += 0.5 * SCORE_TOLERANCE;
        assert!(compare(&got, &want).is_ok());
    }

    #[test]
    fn comparator_rejects_one_perturbed_id_or_score() {
        let want = ranking();
        for rank in 0..want.len() {
            let mut id = ranking();
            id[rank].index += 1;
            assert!(compare(&id, &want).is_err(), "id at rank {rank}");
            let mut score = ranking();
            score[rank].score += 2.0 * SCORE_TOLERANCE;
            assert!(compare(&score, &want).is_err(), "score at rank {rank}");
            let mut nan = ranking();
            nan[rank].score = f64::NAN;
            assert!(compare(&nan, &want).is_err(), "NaN at rank {rank}");
        }
        assert!(compare(&want[..2], &want).is_err(), "short ranking");
    }
}
