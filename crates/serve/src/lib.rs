//! # tcam-serve
//!
//! Online serving for the TCAM reproduction: a multi-threaded query
//! engine answering temporal top-k queries `q = (u, t, k)` against an
//! immutable, atomically swappable model snapshot.
//!
//! The paper (Section 4.2) shows how to answer a single query fast —
//! the Threshold Algorithm over the factored score of Eq. 21–22. This
//! crate is the layer above: what a production deployment of that
//! algorithm looks like.
//!
//! * [`ModelSnapshot`] — a fitted [`tcam_core::TtcamModel`] together
//!   with its prebuilt [`tcam_rec::TaIndex`], shared immutably via
//!   [`std::sync::Arc`] so readers never block a model refresh.
//! * [`ServeEngine`] — the query front end. Per query it consults a
//!   bounded sharded LRU [`TopKCache`] keyed `(user, time, k)`; on a
//!   miss it answers a fitted user with the block-max TA kernel
//!   ([`tcam_rec::TaIndex::top_k_into`]) and an unseen user with a
//!   brute-force scan of the temporal-context-only mixture
//!   ([`tcam_rec::brute_force_top_k_into`] over a [`FoldedScorer`], the
//!   fold-in path of [`tcam_core::foldin`]). Both kernels run on one
//!   [`tcam_rec::QueryScratch`] per worker, checked out of a
//!   [`ScratchPool`], so a miss allocates only its result.
//! * [`ServeEngine::query_batch`] — answers a batch across scoped
//!   worker threads, sharded contiguously by
//!   `tcam_core::parallel::balanced_ranges` over each query's `k`
//!   (the private `batch` module).
//! * [`StatsRecorder`] / [`ServingStats`] — lock-free serving counters:
//!   a log-bucketed latency histogram, items examined, cache hit rate.

mod batch;
pub mod cache;
pub mod engine;
pub mod scratch;
pub mod snapshot;
pub mod stats;

pub use cache::{CacheKey, TopKCache};
pub use engine::{FoldedScorer, Query, Response, ServeConfig, ServeEngine, Source};
pub use scratch::{ScratchGuard, ScratchPool};
pub use snapshot::ModelSnapshot;
pub use stats::{Log2Histogram, ServingStats, StatsRecorder};
