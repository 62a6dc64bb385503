//! Golden fit hashes: every EM fit below is pinned, bit for bit, to a
//! constant.
//!
//! Each hash is FNV-1a over the fit's log-likelihood trace, its
//! `converged` flag and every model parameter, all read as
//! `f64::to_bits`. The constants were captured before the ITCAM and
//! TTCAM fit loops were folded into one EM driver; a refactor of that
//! loop must reproduce them unchanged.
//!
//! The data is `digg_like(0.25, 1)` (19,171 ratings), large enough for
//! the EM shard plan to use its maximum of 8 shards. At 3 threads the
//! shards then run as uneven chunks of 3, 3 and 2, which the small
//! thread-independence tests in the model modules never reach.

use tcam::core::{FitConfig, FitResult, ItcamModel, TtcamModel};
use tcam::data::{synth, ItemId, ItemWeighting, Rating, RatingCuboid, TimeId, UserId};

const ITCAM: u64 = 0x0343_99c8_77df_b7a5;
const TTCAM: u64 = 0xbe68_8879_9f7a_870f;
const WTTCAM: u64 = 0x9476_a46d_662f_b872;
const TTCAM_WARM_GROWN: u64 = 0xc8ec_0289_3bfe_b9ff;
const ITCAM_EARLY_STOP: u64 = 0x5b7b_8727_e1b0_1bd8;

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64s(&mut self, xs: &[f64]) {
        for x in xs {
            self.bytes(&x.to_bits().to_le_bytes());
        }
    }

    fn fit<M>(&mut self, result: &FitResult<M>) {
        for t in &result.trace {
            self.bytes(&(t.iteration as u64).to_le_bytes());
            self.f64s(&[t.log_likelihood]);
        }
        self.bytes(&[u8::from(result.converged)]);
    }
}

fn itcam_hash(result: &FitResult<ItcamModel>) -> u64 {
    let m = &result.model;
    let mut h = Fnv::new();
    h.fit(result);
    for u in 0..m.num_users() {
        h.f64s(m.user_interest(UserId::from(u)));
    }
    for z in 0..m.num_user_topics() {
        h.f64s(m.user_topic(z));
    }
    for t in 0..m.num_times() {
        h.f64s(m.temporal_context(TimeId::from(t)));
    }
    h.f64s(m.lambdas());
    h.f64s(m.background());
    h.f64s(&[m.background_weight()]);
    h.0
}

fn ttcam_hash(result: &FitResult<TtcamModel>) -> u64 {
    let m = &result.model;
    let mut h = Fnv::new();
    h.fit(result);
    for u in 0..m.num_users() {
        h.f64s(m.user_interest(UserId::from(u)));
    }
    for z in 0..m.num_user_topics() {
        h.f64s(m.user_topic(z));
    }
    for t in 0..m.num_times() {
        h.f64s(m.temporal_context(TimeId::from(t)));
    }
    for x in 0..m.num_time_topics() {
        h.f64s(m.time_topic(x));
    }
    h.f64s(m.lambdas());
    h.f64s(m.background());
    h.f64s(&[m.background_weight()]);
    h.0
}

fn digg() -> RatingCuboid {
    let c = synth::SynthDataset::generate(synth::digg_like(0.25, 1)).unwrap().cuboid;
    assert_eq!(c.nnz(), 19_171, "the pinned input changed");
    c
}

fn config(threads: usize) -> FitConfig {
    FitConfig::default()
        .with_user_topics(8)
        .with_time_topics(6)
        .with_iterations(8)
        .with_seed(7)
        .with_threads(threads)
}

/// Asserts one constant per model at 1 and at 3 threads.
fn assert_at_1_and_3<F: Fn(usize) -> u64>(name: &str, want: u64, hash_at: F) {
    for threads in [1usize, 3] {
        let got = hash_at(threads);
        assert_eq!(got, want, "{name} at {threads} threads: got {got:#018x}");
    }
}

#[test]
fn golden_itcam_cold_fit() {
    let c = digg();
    assert_at_1_and_3("ITCAM", ITCAM, |threads| {
        itcam_hash(&ItcamModel::fit(&c, &config(threads)).unwrap())
    });
}

#[test]
fn golden_ttcam_cold_fit() {
    let c = digg();
    assert_at_1_and_3("TTCAM", TTCAM, |threads| {
        ttcam_hash(&TtcamModel::fit(&c, &config(threads)).unwrap())
    });
}

#[test]
fn golden_wttcam_cold_fit() {
    let c = digg();
    let weighted = ItemWeighting::compute(&c).apply(&c);
    assert_at_1_and_3("W-TTCAM", WTTCAM, |threads| {
        ttcam_hash(&TtcamModel::fit(&weighted, &config(threads)).unwrap())
    });
}

#[test]
fn golden_ttcam_warm_fit_on_grown_cuboid() {
    let c = digg();
    let prior = TtcamModel::fit(&c, &config(1)).unwrap().model;
    // One new user rating one item in one new interval.
    let grown = RatingCuboid::from_ratings(
        c.num_users() + 1,
        c.num_times() + 1,
        c.num_items(),
        c.entries()
            .iter()
            .copied()
            .chain(std::iter::once(Rating {
                user: UserId::from(c.num_users()),
                time: TimeId::from(c.num_times()),
                item: ItemId(3),
                value: 1.0,
            }))
            .collect(),
    )
    .unwrap();
    assert_at_1_and_3("TTCAM warm", TTCAM_WARM_GROWN, |threads| {
        let warm = config(threads).with_iterations(4);
        ttcam_hash(&TtcamModel::fit_warm(&grown, &warm, &prior).unwrap())
    });
}

#[test]
fn golden_itcam_early_stop_with_background_and_shrinkage() {
    let c = digg();
    let early = |threads: usize| {
        let mut cfg = config(threads).with_background(0.05).with_lambda_shrinkage(2.0);
        cfg.max_iterations = 200;
        cfg.tolerance = 1e-3;
        cfg
    };
    let probe = ItcamModel::fit(&c, &early(1)).unwrap();
    assert!(probe.converged, "the tolerance must stop the fit early");
    assert!(probe.iterations() < 200);
    assert_at_1_and_3("ITCAM early stop", ITCAM_EARLY_STOP, |threads| {
        itcam_hash(&ItcamModel::fit(&c, &early(threads)).unwrap())
    });
}
