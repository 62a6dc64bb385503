//! The `stream` workload: bootstrap `OnlineEngine` on the first
//! intervals, then replay the rest of the feed through `ingest`, with
//! Zipf queries at the current interval after every rating.

use crate::guard::{guarded, Panicked};
use crate::harness::{Acc, Harness};
use crate::inputs::{Feed, Workload, STREAM_QUERIES_PER_RATING};
use crate::oracle;
use crate::trace::SpanId;
use std::time::Duration;
use tcam_core::TtcamModel;
use tcam_online::{engine::training_cuboid, oracle::cold_refit, OnlineConfig, OnlineEngine};
use tcam_online::{RefreshPolicy, RefreshReport};
use tcam_rec::TaIndex;
use tcam_serve::{ModelSnapshot, Query, ServeConfig};

/// A replayed rating not yet in a valid snapshot.
struct Pending {
    start: Duration,
    /// Its ingest was already counted as failed (it fired an invalid
    /// refresh).
    counted: bool,
}

fn config(fit_threads: usize) -> OnlineConfig {
    OnlineConfig {
        fit: Workload::Stream.fit(fit_threads),
        weighting: None,
        policy: RefreshPolicy::default(),
        serve: ServeConfig::default(),
    }
}

/// One round: set up, then (if `replay`) replay the whole feed,
/// accounting every operation.
pub fn round(
    s: &mut Harness,
    acc: &mut Acc,
    seed: u64,
    queries: &mut Option<Vec<Query>>,
    replay: bool,
) {
    let config = config(s.fit_threads);
    let setup_start = s.clock.now();
    let setup_span = s.tracer.begin("bench.setup", s.clock.real_ns());
    let a = s.clock.real_ns();
    let mut feed = Feed::generate();
    let b = s.clock.real_ns();
    s.tracer.record("data.generate", a, b, (feed.bootstrap.len() + feed.replay.len()) as u64);
    let bootstrap = std::mem::take(&mut feed.bootstrap);
    let built = guarded(|| {
        OnlineEngine::bootstrap(
            feed.num_users,
            feed.num_items,
            feed.max_times,
            bootstrap,
            config.clone(),
        )
    });
    let c = s.clock.real_ns();
    s.tracer.record("online.bootstrap", b, c, 0);
    s.tracer.end(setup_span, "bench.setup", c, 0);
    let setup_s = (s.clock.now() - setup_start).as_secs_f64();
    let queries = queries.get_or_insert_with(|| feed.queries(seed));
    let per_rating = STREAM_QUERIES_PER_RATING as u64;
    let Ok(Ok(mut eng)) = built else {
        // The system never came up: every scheduled operation is lost.
        acc.ingest.tally.lost(feed.replay.len() as u64);
        acc.queries.tally.lost(queries.len() as u64);
        acc.ingest.crashed_rounds += 1;
        return;
    };
    acc.setup_s.push(setup_s);
    if !replay {
        return;
    }
    if s.tracer.enabled() {
        split_bootstrap(s, &eng, &config);
    }

    let policy = config.policy;
    let loop_start = s.clock.now();
    let loop_span = s.tracer.begin("bench.replay", s.clock.real_ns());
    let mut pending: Vec<Pending> = Vec::new();
    // Pending ratings [..saw_invalid] were in an invalid refresh.
    let mut saw_invalid = 0;
    let mut ratings_run = 0u64;
    let mut refresh_ms = Vec::new();
    for (i, &r) in feed.replay.iter().enumerate() {
        // A traced round re-runs each refresh stage by stage on the
        // refresh's own inputs, so it keeps the pre-refresh model.
        let rolls_over = r.time.index() >= eng.log().num_times();
        let due = (policy.on_rollover && rolls_over)
            || policy.every_ratings.is_some_and(|n| eng.since_refresh() + 1 >= n);
        let prior = (s.tracer.enabled() && due).then(|| s.clock.exclude(|| eng.model().clone()));

        let start = s.clock.now();
        let a = s.clock.real_ns();
        let span = s.tracer.begin("online.ingest", a);
        let outcome = guarded(|| eng.ingest(r));
        let b = s.clock.real_ns();
        let end = s.clock.now();
        ratings_run += 1;
        acc.best_ingests.record(i, b - a, matches!(outcome, Ok(Ok(_))));
        match outcome {
            Err(Panicked) => {
                // The engine is now inconsistent: end the round as a
                // crashed process would, losing every later operation.
                s.tracer.end(span, "online.ingest.panicked", b, 0);
                let rest = (feed.replay.len() - i - 1) as u64;
                acc.ingest.tally.record(false);
                acc.ingest.tally.lost(rest);
                acc.queries.tally.lost((rest + 1) * per_rating);
                for p in pending.drain(..) {
                    if !p.counted {
                        acc.ingest.tally.record(false);
                    }
                }
                acc.ingest.crashed_rounds += 1;
                break;
            }
            Ok(Err(_)) => {
                s.tracer.end(span, "online.ingest.error", b, 0);
                acc.ingest.tally.record(false);
            }
            Ok(Ok(outcome)) => match outcome.refreshed {
                None => {
                    s.tracer.end(span, "online.append", b, 0);
                    pending.push(Pending { start, counted: false });
                }
                Some(report) => {
                    s.tracer.end(span, "online.refresh", b, report.em_iterations as u64);
                    refresh_ms.push((b - a) as f64 / 1e6);
                    pending.push(Pending { start, counted: false });
                    let valid = s.clock.exclude(|| {
                        report.log_likelihood.is_finite() && oracle::model_is_finite(eng.model())
                    });
                    if valid {
                        for p in pending.drain(..) {
                            acc.ingest.freshness_ms.push((end - p.start).as_secs_f64() * 1e3);
                            if !p.counted {
                                acc.ingest.tally.record(true);
                            }
                        }
                        saw_invalid = 0;
                    } else {
                        acc.ingest.refresh_invalid += 1;
                        acc.ingest.tally.record(false);
                        if let Some(last) = pending.last_mut() {
                            last.counted = true;
                        }
                        saw_invalid = pending.len();
                    }
                    if let Some(prior) = prior {
                        split_refresh(s, acc, &eng, &config, &prior, &report, (span, b - a), valid);
                    }
                }
            },
        }
        let asked = &queries[i * STREAM_QUERIES_PER_RATING..][..STREAM_QUERIES_PER_RATING];
        for (j, &q) in asked.iter().enumerate() {
            let n = i * STREAM_QUERIES_PER_RATING + j;
            s.query(eng.serve(), |q| eng.query(q), q, n, &mut acc.queries, &mut acc.best_queries);
        }
    }
    // Ratings that were in an invalid refresh and never reached a valid
    // one failed; the rest only wait for a refresh the replay ended before.
    for p in pending.drain(..saw_invalid.min(pending.len())) {
        if !p.counted {
            acc.ingest.tally.record(false);
        }
    }
    for p in pending {
        acc.ingest.unpublished_tail += 1;
        if !p.counted {
            acc.ingest.tally.record(true);
        }
    }
    s.tracer.end(loop_span, "bench.replay", s.clock.real_ns(), ratings_run);
    acc.loop_s.push((s.clock.now() - loop_start).as_secs_f64());
    let stats = eng.serve().stats();
    acc.queries.cache_hits += stats.cache_hits;
    acc.queries.cache_misses += stats.cache_misses;
    acc.ingest.refresh_ms.push(refresh_ms);
    acc.rounds += 1;
}

/// Splits the bootstrap's cold fit off the set-up, off the clock: the
/// same cold fit and snapshot build on the bootstrap log, which must
/// reproduce the engine's first model bit for bit.
fn split_bootstrap(s: &mut Harness, eng: &OnlineEngine, config: &OnlineConfig) {
    let Harness { clock, tracer, checks, nproc, .. } = s;
    let now = clock.real_ns_fn();
    clock.exclude(|| {
        let span = tracer.begin("bench.bootstrap_split", now());
        let train = training_cuboid(eng.log(), config);
        let a = now();
        let fit = guarded(|| TtcamModel::fit(&train, &config.fit));
        let b = now();
        if let Ok(Ok(fit)) = fit {
            tracer.record("core.cold_fit", a, b, fit.iterations() as u64);
            checks.replica_checked += 1;
            checks.replica_mismatch +=
                u64::from(!oracle::models_bitwise_equal(&fit.model, eng.model()));
            let model = fit.model.clone();
            let c = now();
            let _ = guarded(|| ModelSnapshot::new(model, 1));
            let d = now();
            tracer.record("serve.snapshot_build", c, d, 0);
            let _ = guarded(|| TaIndex::build_with_threads(&fit.model, *nproc));
            tracer.record("rec.index_build", d, now(), 0);
        }
        tracer.end(span, "bench.bootstrap_split", now(), 0);
    });
}

/// Re-runs one refresh stage by stage on the inputs
/// `OnlineEngine::refresh` saw — the log after the rating, the
/// configuration and the pre-refresh model — off the clock, and checks
/// a valid refresh against `oracle::cold_refit`.
#[allow(clippy::too_many_arguments)]
fn split_refresh(
    s: &mut Harness,
    acc: &mut Acc,
    eng: &OnlineEngine,
    config: &OnlineConfig,
    prior: &TtcamModel,
    report: &RefreshReport,
    (refresh_span, refresh_ns): (SpanId, u64),
    valid: bool,
) {
    let Harness { clock, tracer, checks, nproc, .. } = s;
    let now = clock.real_ns_fn();
    let mut buffer = Vec::new();
    clock.exclude(|| {
        let span = tracer.begin_under("bench.refresh_split", refresh_span, now());
        let a = now();
        let train = training_cuboid(eng.log(), config);
        let b = now();
        tracer.record("data.materialize", a, b, train.nnz() as u64);
        let fit = guarded(|| TtcamModel::fit_warm(&train, &config.fit, prior));
        let c = now();
        let mut stages = (b - a) + (c - b);
        if let Ok(Ok(fit)) = fit {
            tracer.record("core.fit_warm", b, c, fit.iterations() as u64);
            checks.replica_checked += 1;
            checks.replica_mismatch +=
                u64::from(!oracle::models_bitwise_equal(&fit.model, eng.model()));
            let model = fit.model.clone();
            let d = now();
            let snapshot = guarded(|| ModelSnapshot::new(model, report.epoch));
            let e = now();
            tracer.record("serve.snapshot_build", d, e, 0);
            let _ = guarded(|| TaIndex::build_with_threads(&fit.model, *nproc));
            let f = now();
            tracer.record("rec.index_build", e, f, 0);
            stages += e - d;
            if let Ok(snapshot) = snapshot {
                // The re-built snapshot equals the published one, so
                // swapping it in leaves serving as it was.
                let g = now();
                eng.serve().swap_snapshot(snapshot);
                let h = now();
                tracer.record("serve.swap", g, h, 0);
                stages += h - g;
            }
        }
        acc.ingest.ledger_stages_ns += stages;
        acc.ingest.ledger_refresh_ns += refresh_ns;
        if valid {
            let a = now();
            if let Ok(Ok(cold)) = guarded(|| cold_refit(eng.log(), config, prior)) {
                let (checked, mismatched) =
                    oracle::compare_refit(eng.serve().snapshot().model(), &cold.model, &mut buffer);
                checks.refresh_checked += checked;
                checks.refresh_mismatch += mismatched;
            } else {
                checks.refresh_checked += 1;
                checks.refresh_mismatch += 1;
            }
            tracer.record("check.cold_refit", a, now(), 0);
        }
        tracer.end(span, "bench.refresh_split", now(), 0);
    });
}
