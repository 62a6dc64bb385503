//! State shared by every round of one benchmark run: the clock, the
//! span recorder, the oracle counters, and what each round measured.

use crate::guard::{answered, guarded, Tally};
use crate::oracle;
use crate::trace::{Clock, Tracer};
use tcam_data::TimeId;
use tcam_math::topk::Scored;
use tcam_rec::{brute_force_top_k, QueryScratch};
use tcam_serve::{Query, Response, ServeEngine, Source};

/// Every this-many-th scheduled query that succeeds is checked against
/// brute force.
const CHECK_STRIDE: usize = 31;
/// In a traced round, every this-many-th query answered by the TA index
/// is re-run through the bare kernels to split its time.
const KERNEL_STRIDE: usize = 8;

/// Oracle counters. A mismatch is an incorrect output, not a failure.
#[derive(Debug, Default, Clone, Copy)]
pub struct Checks {
    pub query_checked: u64,
    pub query_mismatch: u64,
    pub refresh_checked: u64,
    pub refresh_mismatch: u64,
    /// Refreshes re-run stage by stage in a traced round whose refit
    /// must equal the engine's bit for bit (else the split timed other
    /// inputs than the refresh saw).
    pub replica_checked: u64,
    pub replica_mismatch: u64,
}

impl Checks {
    pub fn all_match(&self) -> bool {
        self.query_checked > 0
            && self.query_mismatch == 0
            && self.refresh_mismatch == 0
            && self.replica_mismatch == 0
    }
}

/// What the query calls of one or more rounds measured.
#[derive(Debug, Default)]
pub struct QueryStats {
    /// Successful query calls timed, all rounds.
    pub latencies: u64,
    pub tally: Tally,
    /// Successful queries by [`Source`]: cache hit, TA, brute force, fold-in.
    pub sources: [u64; 4],
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Bare-kernel re-runs (traced rounds): queries, summed `k`, items
    /// examined and blocks skipped.
    pub kernel_runs: u64,
    pub kernel_k: u64,
    pub kernel_examined: u64,
    pub kernel_skipped: u64,
}

impl QueryStats {
    pub fn answered(&self) -> u64 {
        self.sources.iter().sum()
    }
}

/// What the ingest calls of the `stream` rounds measured.
#[derive(Debug, Default)]
pub struct IngestStats {
    pub tally: Tally,
    /// Per round, the latency of each ingest call that fired a refresh, ms.
    pub refresh_ms: Vec<Vec<f64>>,
    /// Ingest start to the end of the first valid refresh holding the
    /// rating, ms.
    pub freshness_ms: Vec<f64>,
    /// Refreshes that returned `Ok` with a non-finite log-likelihood or
    /// parameters.
    pub refresh_invalid: u64,
    /// Ratings after the last refresh of a replay: never published, but
    /// only because the replay ended. Neither fresh nor failed.
    pub unpublished_tail: u64,
    /// Rounds a panic inside `ingest` ended early.
    pub crashed_rounds: u64,
    /// Summed stage time of the re-run refreshes (materialize, warm
    /// fit, snapshot build, swap) and the summed wall time of the
    /// refreshes they re-ran, ns.
    pub ledger_stages_ns: u64,
    pub ledger_refresh_ns: u64,
}

/// The fastest call at each position of the schedule across a run's
/// rounds.
///
/// On a shared machine, other tenants' load can slow whole stretches of
/// a run by half for seconds at a time. Every round repeats the
/// same operations on the same state, so the fastest of the rounds'
/// calls at one position estimates the system's own cost there, and a
/// slowdown shows only where every round was slow.
#[derive(Debug, Default)]
pub struct BestCalls {
    /// Per position: fastest call, ns (`u64::MAX` if never called).
    pub call_ns: Vec<u64>,
    /// Per position: fastest successful call, ns (`u64::MAX` if none).
    pub answered_ns: Vec<u64>,
}

impl BestCalls {
    pub fn record(&mut self, position: usize, ns: u64, answered: bool) {
        if self.call_ns.len() <= position {
            self.call_ns.resize(position + 1, u64::MAX);
            self.answered_ns.resize(position + 1, u64::MAX);
        }
        self.call_ns[position] = self.call_ns[position].min(ns);
        if answered {
            self.answered_ns[position] = self.answered_ns[position].min(ns);
        }
    }

    /// Positions called, and their summed fastest call time in seconds.
    pub fn calls(&self) -> (u64, f64) {
        let called = self.call_ns.iter().filter(|&&ns| ns != u64::MAX);
        (called.clone().count() as u64, called.sum::<u64>() as f64 / 1e9)
    }

    /// The fastest successful call of every position that has one, µs,
    /// sorted.
    pub fn answered_us(&self) -> Vec<f64> {
        let us = self.answered_ns.iter().filter(|&&ns| ns != u64::MAX);
        crate::stats::sorted(us.map(|&ns| ns as f64 / 1e3).collect())
    }
}

/// Everything one kind of round (traced or untraced) measured.
#[derive(Debug, Default)]
pub struct Acc {
    pub rounds: u64,
    pub setup_s: Vec<f64>,
    /// Wall time of each round's measured loop, s.
    pub loop_s: Vec<f64>,
    /// Query calls by schedule position.
    pub best_queries: BestCalls,
    /// `stream`: ingest calls by replay position.
    pub best_ingests: BestCalls,
    pub queries: QueryStats,
    pub ingest: IngestStats,
}

impl Acc {
    pub fn tally(&self) -> Tally {
        let mut t = self.queries.tally;
        t.add(self.ingest.tally);
        t
    }
}

pub struct Harness {
    pub clock: Clock,
    pub tracer: Tracer,
    pub checks: Checks,
    /// Threads `ModelSnapshot::new` builds the TA index on.
    pub nproc: usize,
    /// EM fitting threads: `min(nproc, 2)`.
    pub fit_threads: usize,
    buffer: Vec<f64>,
    scratch: QueryScratch,
    out: Vec<Scored>,
}

impl Harness {
    pub fn new() -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        Harness {
            clock: Clock::new(),
            tracer: Tracer::new(false),
            checks: Checks::default(),
            nproc,
            fit_threads: nproc.min(2),
            buffer: Vec::new(),
            scratch: QueryScratch::new(),
            out: Vec::new(),
        }
    }

    /// Sends scheduled query number `i` through `query` (the system's
    /// query entry point over `serve`), timing it, counting its
    /// outcome, and checking a fixed sample of answers against brute
    /// force on the snapshot whose epoch answered.
    pub fn query(
        &mut self,
        serve: &ServeEngine,
        query: impl FnOnce(Query) -> Response,
        q: Query,
        i: usize,
        stats: &mut QueryStats,
        best: &mut BestCalls,
    ) {
        let start = self.clock.real_ns();
        let span = self.tracer.begin("serve.query", start);
        let response = answered(guarded(|| query(q)));
        let end = self.clock.real_ns();
        stats.tally.record(response.is_some());
        best.record(i, end - start, response.is_some());
        let Some(r) = response else {
            self.tracer.end(span, "serve.query.failed", end, 0);
            return;
        };
        let (slot, name) = match r.source {
            Source::CacheHit => (0, "serve.query.cache_hit"),
            Source::TaIndex => (1, "serve.query.ta"),
            Source::BruteForce => (2, "serve.query.brute_force"),
            Source::FoldIn => (3, "serve.query.fold_in"),
        };
        self.tracer.end(span, name, end, r.items_examined as u64);
        stats.sources[slot] += 1;
        stats.latencies += 1;
        if i.is_multiple_of(CHECK_STRIDE) {
            let Harness { clock, checks, buffer, .. } = self;
            clock.exclude(|| {
                let snap = serve.snapshot();
                checks.query_checked += 1;
                let ok = snap.epoch() == r.epoch
                    && oracle::compare(&r.items, &oracle::reference(&snap, q, buffer)).is_ok();
                checks.query_mismatch += u64::from(!ok);
            });
        }
        if self.tracer.enabled() && r.source == Source::TaIndex && i.is_multiple_of(KERNEL_STRIDE) {
            self.rerun_kernels(serve, q, stats);
        }
    }

    /// Re-runs a TA-answered query through `TaIndex::top_k_into` and
    /// `brute_force_top_k`, off the clock, recording one span each.
    fn rerun_kernels(&mut self, serve: &ServeEngine, q: Query, stats: &mut QueryStats) {
        let Harness { clock, tracer, buffer, scratch, out, .. } = self;
        let now = clock.real_ns_fn();
        clock.exclude(|| {
            let snap = serve.snapshot();
            let time = TimeId(q.time.0.min(snap.num_times().saturating_sub(1) as u32));
            let model = snap.model();
            let a = now();
            let ta = snap.index().top_k_into(model, q.user, time, q.k, scratch, out);
            let b = now();
            buffer.resize(snap.num_items(), 0.0);
            let c = now();
            std::hint::black_box(brute_force_top_k(model, q.user, time, q.k, buffer));
            let d = now();
            tracer.record("rec.ta_kernel", a, b, ta.items_examined as u64);
            tracer.record("rec.bf_kernel", c, d, snap.num_items() as u64);
            stats.kernel_runs += 1;
            stats.kernel_k += q.k.min(snap.num_items()) as u64;
            stats.kernel_examined += ta.items_examined as u64;
            stats.kernel_skipped += ta.blocks_skipped as u64;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_calls_keep_the_fastest_round_per_position() {
        let mut best = BestCalls::default();
        // Round 1: position 1 is slow, position 2 fails.
        best.record(0, 100, true);
        best.record(1, 900, true);
        best.record(2, 50, false);
        // Round 2: position 0 is slow; position 3 only exists here.
        best.record(0, 300, true);
        best.record(1, 200, true);
        best.record(2, 40, false);
        best.record(3, 70, true);
        assert_eq!(best.call_ns, vec![100, 200, 40, 70]);
        let (calls, secs) = best.calls();
        assert_eq!(calls, 4);
        assert!((secs - 410e-9).abs() < 1e-18);
        assert_eq!(best.answered_us(), vec![0.07, 0.1, 0.2], "failed position 2 has no latency");
    }
}
