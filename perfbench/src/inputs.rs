//! The three workloads and their inputs, each a pure function of the
//! workload seed. The system only ever sees the generated ratings and
//! queries.
//!
//! Every workload's dataset and EM seed are pinned to [`DATA_SEED`];
//! `--seed` draws the queries. Run-to-run spread then measures the
//! machine and the query mix, not the dataset: across data seeds the
//! TA kernel examines 55-72 (`query_zipf`) and 72-89 (`query_catalog`)
//! items per query, which alone would take half of a metric's bound,
//! and on `stream` a warm refit publishes a non-finite model at a point
//! that depends on the data and the EM seed (data seed 1: the 29th
//! refresh; 2: a panic inside `ingest`; 3-5: refreshes around epochs
//! 80, 84 and 24), so a seeded feed would move every stream figure by
//! half. Data seed 1 keeps that defect in every stream run.

use tcam_core::FitConfig;
use tcam_data::{synth, Rating, SynthConfig, SynthDataset, TimeId, UserId};
use tcam_math::dist::Zipf;
use tcam_math::Pcg64;
use tcam_serve::Query;

/// Exponent of every Zipf draw of a querying user.
const ZIPF_EXPONENT: f64 = 1.1;
/// RNG stream of the query schedules, apart from the data generator's.
const QUERY_STREAM: u64 = 7;

/// Seed of every workload's dataset and EM initialization.
pub const DATA_SEED: u64 = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Stream,
    QueryZipf,
    QueryCatalog,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Stream, Workload::QueryZipf, Workload::QueryCatalog];

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Stream => "stream",
            Workload::QueryZipf => "query_zipf",
            Workload::QueryCatalog => "query_catalog",
        }
    }

    /// Why the workload exists.
    pub fn why(self) -> &'static str {
        match self {
            Workload::Stream => {
                "the only workload where ingest, warm EM, the snapshot/index rebuild and \
                 swap-driven cache invalidation all interact"
            }
            Workload::QueryZipf => {
                "~half the queries hit the cache on a small catalog, so cache, scratch-pool, \
                 stats and fold-in overhead dominate"
            }
            Workload::QueryCatalog => {
                "the key space dwarfs the 4096-entry cache, so the block-max kernel does most \
                 of the work and the k=50 tail stresses pruning"
            }
        }
    }

    /// The generator of the workload's ratings.
    pub fn dataset(self) -> SynthConfig {
        match self {
            Workload::Stream | Workload::QueryZipf => synth::digg_like(1.0, DATA_SEED),
            Workload::QueryCatalog => synth::douban_like(0.5, DATA_SEED),
        }
    }

    /// The EM configuration of the cold fit (and, for `stream`, of
    /// every warm refit).
    pub fn fit(self, threads: usize) -> FitConfig {
        let (k1, k2, iterations) = match self {
            Workload::Stream => (12, 10, 4),
            Workload::QueryZipf => (10, 5, 6),
            Workload::QueryCatalog => (20, 10, 6),
        };
        FitConfig::default()
            .with_user_topics(k1)
            .with_time_topics(k2)
            .with_iterations(iterations)
            .with_threads(threads)
            .with_seed(DATA_SEED)
    }

    /// One line naming the generator, its parameters and the query mix.
    pub fn describe(self, seed: u64, threads: usize) -> String {
        let fit = self.fit(threads);
        let data = match self {
            Workload::Stream | Workload::QueryZipf => format!("synth::digg_like(1.0, {DATA_SEED})"),
            Workload::QueryCatalog => format!("synth::douban_like(0.5, {DATA_SEED})"),
        };
        let load = match self {
            Workload::Stream => format!(
                "bootstrap on intervals 0-{}, replay the rest through OnlineEngine::ingest \
                 (default RefreshPolicy), {STREAM_QUERIES_PER_RATING} Zipf({ZIPF_EXPONENT}) \
                 queries k={STREAM_K} at the current interval after each rating",
                STREAM_BOOTSTRAP_INTERVALS - 1
            ),
            Workload::QueryZipf => format!(
                "{ZIPF_QUERIES} queries k=10, Zipf({ZIPF_EXPONENT}) users, 5% unseen, \
                 2% of times past the last interval"
            ),
            Workload::QueryCatalog => format!(
                "{CATALOG_QUERIES} queries, uniform users and intervals, k=5/10/50 at 60/30/10%"
            ),
        };
        format!(
            "{data}; TTCAM K1={} K2={} {} EM iterations on {} threads, EM seed {DATA_SEED}; \
             {load}, drawn with seed {seed}",
            fit.num_user_topics, fit.num_time_topics, fit.max_iterations, fit.num_threads
        )
    }
}

/// Intervals the stream's engine bootstraps on before the replay.
pub const STREAM_BOOTSTRAP_INTERVALS: u32 = 10;
/// Queries sent after each replayed rating.
pub const STREAM_QUERIES_PER_RATING: usize = 4;
/// `k` of every stream query.
pub const STREAM_K: usize = 10;
/// Queries in one pass of `query_zipf`.
pub const ZIPF_QUERIES: usize = 600_000;
/// Queries in one pass of `query_catalog`.
pub const CATALOG_QUERIES: usize = 150_000;

/// The stream's feed: dimensions, the bootstrap prefix and the replay.
#[derive(Debug, Clone, PartialEq)]
pub struct Feed {
    pub num_users: usize,
    pub num_items: usize,
    pub max_times: usize,
    pub bootstrap: Vec<Rating>,
    pub replay: Vec<Rating>,
}

impl Feed {
    /// Generates the dataset and sorts its ratings time-monotone, the
    /// order a live feed delivers them in.
    pub fn generate() -> Feed {
        let data = SynthDataset::generate(Workload::Stream.dataset())
            .expect("the digg_like preset is a valid generator configuration");
        let c = &data.cuboid;
        let mut ratings = c.entries().to_vec();
        ratings.sort_by_key(|r| (r.time, r.user, r.item));
        let split = ratings.partition_point(|r| r.time.0 < STREAM_BOOTSTRAP_INTERVALS);
        let replay = ratings.split_off(split);
        Feed {
            num_users: c.num_users(),
            num_items: c.num_items(),
            max_times: c.num_times(),
            bootstrap: ratings,
            replay,
        }
    }

    /// The querying users of the replay, [`STREAM_QUERIES_PER_RATING`]
    /// per rating, asked at that rating's interval.
    pub fn queries(&self, seed: u64) -> Vec<Query> {
        let mut rng = Pcg64::with_stream(seed, QUERY_STREAM);
        let users = ZipfUsers::new(self.num_users, &mut rng);
        self.replay
            .iter()
            .flat_map(|r| std::iter::repeat_n(r.time, STREAM_QUERIES_PER_RATING))
            .map(|time| Query { user: users.sample(&mut rng), time, k: STREAM_K })
            .collect()
    }
}

/// Zipf-popular users: rank `r` maps through a seeded permutation so
/// popularity is independent of the generator's id order.
struct ZipfUsers {
    zipf: Zipf,
    ids: Vec<u32>,
}

impl ZipfUsers {
    fn new(num_users: usize, rng: &mut Pcg64) -> Self {
        let zipf = Zipf::new(num_users, ZIPF_EXPONENT).expect("a nonempty user population");
        let mut ids: Vec<u32> = (0..num_users as u32).collect();
        rng.shuffle(&mut ids);
        ZipfUsers { zipf, ids }
    }

    fn rank(&self, rng: &mut Pcg64) -> usize {
        self.zipf.sample(rng)
    }

    fn sample(&self, rng: &mut Pcg64) -> UserId {
        UserId(self.ids[self.rank(rng)])
    }
}

/// The query schedule of a `query_*` workload over a fitted model of
/// `num_users` users and `num_times` intervals.
pub fn query_schedule(
    workload: Workload,
    seed: u64,
    num_users: usize,
    num_times: usize,
) -> Vec<Query> {
    let mut rng = Pcg64::with_stream(seed, QUERY_STREAM);
    let n = num_users as u32;
    let t = num_times as u32;
    match workload {
        Workload::Stream => panic!("the stream's queries come from Feed::queries"),
        Workload::QueryZipf => {
            let users = ZipfUsers::new(num_users, &mut rng);
            (0..ZIPF_QUERIES)
                .map(|_| {
                    // An unseen user keeps its Zipf rank, so popular
                    // newcomers repeat like popular members do.
                    let user = if rng.gen_bool(0.05) {
                        UserId(n + users.rank(&mut rng) as u32)
                    } else {
                        users.sample(&mut rng)
                    };
                    let time = if rng.gen_bool(0.02) {
                        TimeId(t + rng.gen_range(4) as u32)
                    } else {
                        TimeId(rng.gen_range(num_times) as u32)
                    };
                    Query { user, time, k: 10 }
                })
                .collect()
        }
        Workload::QueryCatalog => (0..CATALOG_QUERIES)
            .map(|_| {
                let user = UserId(rng.gen_range(num_users) as u32);
                let time = TimeId(rng.gen_range(num_times) as u32);
                let draw = rng.next_f64();
                let k = if draw < 0.6 {
                    5
                } else if draw < 0.9 {
                    10
                } else {
                    50
                };
                Query { user, time, k }
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_inputs_are_a_pure_function_of_the_seed() {
        let a = Feed::generate();
        assert_eq!(a, Feed::generate());
        assert_eq!(a.queries(3), Feed::generate().queries(3));
        assert!(!a.bootstrap.is_empty() && !a.replay.is_empty());
        assert!(a.bootstrap.iter().all(|r| r.time.0 < STREAM_BOOTSTRAP_INTERVALS));
        assert!(a.replay.windows(2).all(|w| w[0].time <= w[1].time), "time-monotone");
        assert_eq!(a.queries(3).len(), a.replay.len() * STREAM_QUERIES_PER_RATING);
        assert_ne!(a.queries(3), a.queries(4));
    }

    #[test]
    fn query_inputs_are_a_pure_function_of_the_seed() {
        for w in [Workload::QueryZipf, Workload::QueryCatalog] {
            let cuboid = || SynthDataset::generate(w.dataset()).unwrap().cuboid;
            assert_eq!(cuboid(), cuboid(), "{}", w.name());
            let s = query_schedule(w, 5, 100, 20);
            assert_eq!(s, query_schedule(w, 5, 100, 20), "{}", w.name());
            assert_ne!(s, query_schedule(w, 6, 100, 20), "{}", w.name());
        }
    }

    #[test]
    fn zipf_schedule_mixes_unseen_users_and_late_times() {
        let s = query_schedule(Workload::QueryZipf, 1, 2000, 60);
        let unseen = s.iter().filter(|q| q.user.0 >= 2000).count() as f64 / s.len() as f64;
        let late = s.iter().filter(|q| q.time.0 >= 60).count() as f64 / s.len() as f64;
        assert!((unseen - 0.05).abs() < 0.005, "unseen share {unseen}");
        assert!((late - 0.02).abs() < 0.003, "late share {late}");
    }

    #[test]
    fn catalog_schedule_k_mix() {
        let s = query_schedule(Workload::QueryCatalog, 1, 500, 36);
        let share = |k| s.iter().filter(|q| q.k == k).count() as f64 / s.len() as f64;
        assert!((share(5) - 0.6).abs() < 0.01);
        assert!((share(10) - 0.3).abs() < 0.01);
        assert!((share(50) - 0.1).abs() < 0.01);
    }
}
