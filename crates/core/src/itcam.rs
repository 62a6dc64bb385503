//! Item-based TCAM (Section 3.2.1 of the paper).
//!
//! Generative story for each rating `(u, t, v)`:
//!
//! 1. `s ~ Bernoulli(lambda_u)`
//! 2. if `s = 1`: `z ~ Multinomial(theta_u)`, `v ~ Multinomial(phi_z)`
//! 3. else: `v ~ Multinomial(theta'_t)` — the temporal context of
//!    interval `t` is a multinomial directly over items.
//!
//! The likelihood of a rating is Eq. 1 with `P(v|theta_u)` expanded by
//! Eq. 2, and the EM updates are Eqs. 4–11.
//!
//! The fit runs on the EM driver shared with TTCAM (`em::drive`,
//! DESIGN.md §11), which owns the shard plan, the per-shard scratch and
//! merge tree, the trace, the convergence test and the interest side
//! (Eqs. 8, 9, 11); the fit is allocation-free per iteration and bitwise
//! reproducible for any `num_threads`. This file supplies only ITCAM's
//! temporal context, [`ItemContext`]. Its one wrinkle is the `T x V`
//! temporal numerator (Eq. 10): instead of giving every shard its own
//! dense `T x V` copy (which would dwarf the E-step work on sparse
//! data), the E-step records each entry's context posterior mass
//! `c * post0` into the driver's `nnz`-length per-entry buffer, and the
//! M-step builds the numerator with a single entry-order scatter pass.

use crate::config::{FitConfig, FitResult};
use crate::em;
use crate::Result;
use serde::{Deserialize, Serialize};
use std::ops::Range;
use tcam_data::{RatingCuboid, TimeId, UserId};
use tcam_math::{vecops, Matrix, Pcg64};

/// A fitted item-based TCAM model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ItcamModel {
    /// `theta[u][z] = P(z | theta_u)`, shape `N x K1`.
    theta: Matrix,
    /// `phi[z][v] = P(v | phi_z)`, shape `K1 x V`.
    phi: Matrix,
    /// `theta_t[t][v] = P(v | theta'_t)`, shape `T x V`.
    theta_t: Matrix,
    /// Per-user mixing weight `lambda_u` (Eq. 11).
    lambda: Vec<f64>,
    /// Fixed background item distribution `theta_B` (empirical item
    /// frequencies of the training cuboid).
    background: Vec<f64>,
    /// Background mixing weight `lambda_B` (0 = the paper's plain TCAM).
    background_weight: f64,
}

/// ITCAM's temporal context (Eq. 10), the model-specific half of EM
/// plugged into [`em::drive`].
struct ItemContext<'a> {
    cuboid: &'a RatingCuboid,
    /// `theta_t[t][v] = P(v | theta'_t)`, shape `T x V`.
    theta_t: Matrix,
    /// Eq. 10 numerators, rebuilt by every M-step.
    theta_t_num: Matrix,
}

impl ItcamModel {
    /// Fits ITCAM to a rating cuboid with EM.
    ///
    /// Fitting a cuboid pre-transformed by
    /// [`tcam_data::ItemWeighting::apply`] yields the paper's W-ITCAM.
    ///
    /// The shard plan, accumulation order, and merge tree depend only on
    /// the data — `config.num_threads` changes wall-clock, never the
    /// result: traces and parameters are bitwise identical across thread
    /// counts.
    pub fn fit(cuboid: &RatingCuboid, config: &FitConfig) -> Result<FitResult<Self>> {
        em::validate(cuboid, config)?;
        let n = cuboid.num_users();
        let t_dim = cuboid.num_times();
        let v_dim = cuboid.num_items();
        let k1 = config.num_user_topics;

        let mut rng = Pcg64::new(config.seed);
        let mut theta = Matrix::zeros(n, k1);
        em::random_rows(&mut theta, &mut rng);
        let phi_item = em::init_item_major(v_dim, k1, &mut rng);
        let mut theta_t = Matrix::zeros(t_dim, v_dim);
        em::random_rows(&mut theta_t, &mut rng);
        let lambda = vec![config.initial_lambda; n];
        let context = ItemContext { cuboid, theta_t, theta_t_num: Matrix::zeros(t_dim, v_dim) };

        let FitResult { model: (interest, context), trace, converged } =
            em::drive(cuboid, config, theta, phi_item, lambda, context);
        // Convert the work layout to the row-major topic layout used by
        // scoring and inspection.
        let model = ItcamModel {
            theta: interest.theta,
            phi: interest.phi_item.transpose(),
            theta_t: context.theta_t,
            lambda: interest.lambda,
            background: interest.background,
            background_weight: interest.lam_b,
        };
        Ok(FitResult { model, trace, converged })
    }

    /// Number of users `N`.
    pub fn num_users(&self) -> usize {
        self.theta.rows()
    }

    /// Number of user-oriented topics `K1`.
    pub fn num_user_topics(&self) -> usize {
        self.theta.cols()
    }

    /// Number of time intervals `T`.
    pub fn num_times(&self) -> usize {
        self.theta_t.rows()
    }

    /// Number of items `V`.
    pub fn num_items(&self) -> usize {
        self.phi.cols()
    }

    /// The mixing weight `lambda_u` of one user.
    pub fn lambda(&self, user: UserId) -> f64 {
        self.lambda[user.index()]
    }

    /// All mixing weights.
    pub fn lambdas(&self) -> &[f64] {
        &self.lambda
    }

    /// The fixed background item distribution `theta_B`.
    pub fn background(&self) -> &[f64] {
        &self.background
    }

    /// The background mixing weight `lambda_B`.
    pub fn background_weight(&self) -> f64 {
        self.background_weight
    }

    /// `P(z | theta_u)` — the user's interest distribution.
    pub fn user_interest(&self, user: UserId) -> &[f64] {
        self.theta.row(user.index())
    }

    /// `P(v | phi_z)` — a user-oriented topic's item distribution.
    pub fn user_topic(&self, z: usize) -> &[f64] {
        self.phi.row(z)
    }

    /// `P(v | theta'_t)` — the temporal context of interval `t`.
    pub fn temporal_context(&self, time: TimeId) -> &[f64] {
        self.theta_t.row(time.index())
    }

    /// The rating likelihood `P(v | u, t)` of Eq. 1.
    pub fn predict(&self, user: UserId, time: TimeId, item: usize) -> f64 {
        let u = user.index();
        let lam = self.lambda[u];
        let theta_u = self.theta.row(u);
        let interest: f64 =
            (0..self.num_user_topics()).map(|z| theta_u[z] * self.phi.get(z, item)).sum();
        let lam_b = self.background_weight;
        lam_b * self.background[item]
            + (1.0 - lam_b) * (lam * interest + (1.0 - lam) * self.theta_t.get(time.index(), item))
    }

    /// Fills `scores[v] = P(v | u, t)` for all items (brute-force scan).
    pub fn predict_all(&self, user: UserId, time: TimeId, scores: &mut [f64]) {
        assert_eq!(scores.len(), self.num_items());
        let u = user.index();
        let lam = self.lambda[u];
        let theta_u = self.theta.row(u);
        scores.fill(0.0);
        for z in 0..self.num_user_topics() {
            let w = lam * theta_u[z];
            if w == 0.0 {
                continue;
            }
            vecops::scaled_add(scores, self.phi.row(z), w);
        }
        vecops::scaled_add(scores, self.theta_t.row(time.index()), 1.0 - lam);
        let lam_b = self.background_weight;
        if lam_b > 0.0 {
            for s in scores.iter_mut() {
                *s *= 1.0 - lam_b;
            }
            vecops::scaled_add(scores, &self.background, lam_b);
        }
    }

    /// Data log-likelihood of an arbitrary cuboid under this model
    /// (e.g., held-out perplexity). Cells the model assigns zero mass
    /// are floored at `f64::MIN_POSITIVE`.
    ///
    /// Streams entries grouped per user (entries are `(u, t, v)` sorted):
    /// `lambda_u`/`theta_u` are hoisted out of the inner loop and the
    /// interest dot reads contiguous rows of an item-major transposed
    /// copy of `phi`. Per-entry arithmetic order is identical to
    /// [`Self::predict`], so the result is bitwise equal to the naive
    /// per-entry evaluation (regression-tested).
    pub fn log_likelihood(&self, cuboid: &RatingCuboid) -> f64 {
        let phi_item = self.phi.transpose();
        let lam_b = self.background_weight;
        let mut ll = 0.0;
        for u in 0..cuboid.num_users() {
            let entries = cuboid.user_entries(UserId::from(u));
            if entries.is_empty() {
                continue;
            }
            let lam = self.lambda[u];
            let theta_u = self.theta.row(u);
            for r in entries {
                let v = r.item.index();
                let interest = vecops::dot(theta_u, phi_item.row(v));
                let p = lam_b * self.background[v]
                    + (1.0 - lam_b)
                        * (lam * interest + (1.0 - lam) * self.theta_t.get(r.time.index(), v));
                ll += r.value * p.max(f64::MIN_POSITIVE).ln();
            }
        }
        ll
    }
}

impl em::EmKernel for ItemContext<'_> {
    /// E-step contributions of one user's entries (Eqs. 4–6). The Eq. 10
    /// contribution `c * post0` of each entry goes to `post0_out` for
    /// the M-step's entry-order scatter.
    // tcam-lint: hot
    fn e_step_user(
        &self,
        interest: &em::Interest,
        u: usize,
        entries: Range<usize>,
        post0_out: &mut [f64],
        stats: &mut em::UserStatsView<'_>,
        shard: &mut em::EmScratch,
    ) {
        let (theta_t, background, lam_b) = (&self.theta_t, &interest.background, interest.lam_b);
        let lam = interest.lambda[u];
        // Per-user mixture weights, hoisted out of the entry loop; see
        // TTCAM's E-step for the one-division-per-rating cancellation.
        let w1 = (1.0 - lam_b) * lam;
        let w0 = (1.0 - lam_b) * (1.0 - lam);
        let theta_u = interest.theta.row(u);
        let theta_num_u = stats.theta_row_mut(u);
        let mut lambda_num = 0.0;
        let mut mass = 0.0;
        let mut ll = em::LogLikelihoodAcc::new();
        for (r, p_out) in self.cuboid.entries()[entries].iter().zip(post0_out.iter_mut()) {
            let v = r.item.index();
            let t = r.time.index();
            let c = r.value;

            let phi_v = interest.phi_item.row(v);
            vecops::dot_dual_update(theta_num_u, shard.phi_item_num.row_mut(v), theta_u, phi_v, {
                let (ll, lambda_num, mass) = (&mut ll, &mut lambda_num, &mut mass);
                move |a_sum| {
                    let p1 = w1 * a_sum;
                    let p0 = w0 * theta_t.get(t, v);
                    let denom = lam_b * background[v] + p1 + p0;
                    if denom <= 0.0 {
                        // The model assigns this cell zero mass (can only
                        // happen with degenerate inputs); it contributes
                        // nothing.
                        ll.add_floor(c);
                        *p_out = 0.0;
                        return 0.0;
                    }
                    ll.add(c, denom);
                    let inv = c / denom;
                    *p_out = inv * p0;
                    *lambda_num += inv * p1;
                    *mass += inv * (p1 + p0);
                    inv * w1
                }
            });
        }
        shard.log_likelihood += ll.finish();
        stats.lambda_mass_add(u, lambda_num, mass);
    }

    /// M-step for Eq. 10: an entry-order scatter of the context
    /// posteriors into the numerator (the same order for every thread
    /// count), then row normalization.
    // tcam-lint: hot
    fn m_step(&mut self, post0: &[f64]) {
        self.theta_t_num.as_mut_slice().fill(0.0);
        for (r, &p) in self.cuboid.entries().iter().zip(post0) {
            self.theta_t_num.add_at(r.time.index(), r.item.index(), p);
        }
        em::normalize_rows(&self.theta_t_num, &mut self.theta_t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelError;
    use tcam_data::synth;

    fn fit_tiny(seed: u64, iters: usize) -> (tcam_data::SynthDataset, FitResult<ItcamModel>) {
        let data = synth::SynthDataset::generate(synth::tiny(seed)).unwrap();
        let config =
            FitConfig::default().with_user_topics(4).with_iterations(iters).with_seed(seed);
        let result = ItcamModel::fit(&data.cuboid, &config).unwrap();
        (data, result)
    }

    #[test]
    fn rejects_empty_cuboid() {
        let c = RatingCuboid::from_ratings(2, 2, 2, vec![]).unwrap();
        assert!(matches!(ItcamModel::fit(&c, &FitConfig::default()), Err(ModelError::BadData(_))));
    }

    #[test]
    fn log_likelihood_non_decreasing() {
        let (_, result) = fit_tiny(1, 30);
        for w in result.trace.windows(2) {
            assert!(
                w[1].log_likelihood >= w[0].log_likelihood - 1e-8,
                "EM log-likelihood decreased: {} -> {}",
                w[0].log_likelihood,
                w[1].log_likelihood
            );
        }
    }

    #[test]
    fn parameters_are_distributions() {
        let (data, result) = fit_tiny(2, 10);
        let m = &result.model;
        for u in 0..m.num_users() {
            let uid = UserId::from(u);
            assert!(
                tcam_math::vecops::is_distribution(m.user_interest(uid), 1e-8),
                "theta_u not normalized"
            );
            let lam = m.lambda(uid);
            assert!((0.0..=1.0).contains(&lam), "lambda out of range: {lam}");
        }
        for z in 0..m.num_user_topics() {
            assert!(tcam_math::vecops::is_distribution(m.user_topic(z), 1e-8));
        }
        for t in 0..m.num_times() {
            assert!(tcam_math::vecops::is_distribution(m.temporal_context(TimeId::from(t)), 1e-8));
        }
        drop(data);
    }

    #[test]
    fn predict_all_matches_predict() {
        let (_, result) = fit_tiny(3, 5);
        let m = &result.model;
        let mut scores = vec![0.0; m.num_items()];
        let u = UserId(1);
        let t = TimeId(2);
        m.predict_all(u, t, &mut scores);
        for (v, &s) in scores.iter().enumerate() {
            assert!((s - m.predict(u, t, v)).abs() < 1e-12);
        }
    }

    #[test]
    fn predict_is_a_distribution_over_items() {
        let (_, result) = fit_tiny(4, 5);
        let m = &result.model;
        let mut scores = vec![0.0; m.num_items()];
        m.predict_all(UserId(0), TimeId(0), &mut scores);
        assert!((scores.iter().sum::<f64>() - 1.0).abs() < 1e-6);
        assert!(scores.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn parallel_fit_is_bitwise_identical_to_serial() {
        // The shard plan and merge tree depend only on the data, so any
        // thread count must reproduce the serial fit *exactly* — full
        // log-likelihood trace, lambdas, and predictions, to the bit.
        let data = synth::SynthDataset::generate(synth::tiny(5)).unwrap();
        let base = FitConfig::default().with_user_topics(4).with_iterations(5).with_seed(9);
        let serial = ItcamModel::fit(&data.cuboid, &base).unwrap();
        for threads in [2usize, 4] {
            let par = ItcamModel::fit(&data.cuboid, &base.clone().with_threads(threads)).unwrap();
            assert_eq!(serial.trace, par.trace, "trace at {threads} threads");
            assert_eq!(serial.model.lambdas(), par.model.lambdas());
            let mut a = vec![0.0; serial.model.num_items()];
            let mut b = a.clone();
            for (u, t) in [(0u32, 0u32), (3, 2), (17, 7)] {
                serial.model.predict_all(UserId(u), TimeId(t), &mut a);
                par.model.predict_all(UserId(u), TimeId(t), &mut b);
                assert_eq!(a, b, "predictions at {threads} threads for u{u} t{t}");
            }
        }
    }

    #[test]
    fn log_likelihood_matches_per_entry_path() {
        // The grouped/transposed fast path must agree bit-for-bit with
        // the naive per-entry evaluation through `predict`.
        let (data, result) = fit_tiny(8, 8);
        let m = &result.model;
        let reference: f64 = data
            .cuboid
            .entries()
            .iter()
            .map(|r| {
                let p = m.predict(r.user, r.time, r.item.index());
                r.value * p.max(f64::MIN_POSITIVE).ln()
            })
            .sum();
        let fast = m.log_likelihood(&data.cuboid);
        assert_eq!(fast, reference, "fast {fast} vs per-entry {reference}");
    }

    #[test]
    fn converges_with_tolerance() {
        let data = synth::SynthDataset::generate(synth::tiny(6)).unwrap();
        let config = FitConfig {
            num_user_topics: 3,
            tolerance: 1e-3,
            max_iterations: 200,
            ..FitConfig::default()
        };
        let result = ItcamModel::fit(&data.cuboid, &config).unwrap();
        assert!(result.converged, "should converge well before 200 iterations");
        assert!(result.iterations() < 200);
    }

    #[test]
    fn heldout_likelihood_finite() {
        let (data, result) = fit_tiny(7, 10);
        let ll = result.model.log_likelihood(&data.cuboid);
        assert!(ll.is_finite());
        assert!(ll < 0.0);
    }
}
