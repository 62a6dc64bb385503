//! The `query_zipf` and `query_catalog` workloads: cold-fit a model,
//! publish it in a `ServeEngine`, and send the schedule through
//! `ServeEngine::query` in a closed loop.

use crate::guard::guarded;
use crate::harness::{Acc, Harness};
use crate::inputs::{query_schedule, Workload};
use tcam_core::TtcamModel;
use tcam_data::SynthDataset;
use tcam_rec::TaIndex;
use tcam_serve::{ModelSnapshot, Query, ServeConfig, ServeEngine};

/// One round: set up a fresh engine, then (if `send`) send the whole
/// schedule.
pub fn round(
    s: &mut Harness,
    acc: &mut Acc,
    workload: Workload,
    seed: u64,
    schedule: &mut Option<Vec<Query>>,
    send: bool,
) {
    let fit_config = workload.fit(s.fit_threads);
    let setup_start = s.clock.now();
    let setup_span = s.tracer.begin("bench.setup", s.clock.real_ns());
    let a = s.clock.real_ns();
    let data = SynthDataset::generate(workload.dataset())
        .expect("the workload presets are valid generator configurations");
    let b = s.clock.real_ns();
    s.tracer.record("data.generate", a, b, data.cuboid.nnz() as u64);
    let (num_users, num_times) = (data.cuboid.num_users(), data.cuboid.num_times());
    let schedule = schedule.get_or_insert_with(|| {
        s.clock.exclude(|| query_schedule(workload, seed, num_users, num_times))
    });
    let b = s.clock.real_ns();
    let fit = guarded(|| TtcamModel::fit(&data.cuboid, &fit_config));
    let c = s.clock.real_ns();
    let Ok(Ok(fit)) = fit else {
        // The system never came up: every scheduled query is lost.
        s.tracer.end(setup_span, "bench.setup", c, 0);
        acc.queries.tally.lost(schedule.len() as u64);
        return;
    };
    s.tracer.record("core.cold_fit", b, c, fit.iterations() as u64);
    let model = fit.model;
    let index_model = s.tracer.enabled().then(|| s.clock.exclude(|| model.clone()));
    let d = s.clock.real_ns();
    let snapshot = guarded(|| ModelSnapshot::new(model, 1));
    let e = s.clock.real_ns();
    s.tracer.record("serve.snapshot_build", d, e, 0);
    let Ok(snapshot) = snapshot else {
        s.tracer.end(setup_span, "bench.setup", e, 0);
        acc.queries.tally.lost(schedule.len() as u64);
        return;
    };
    let engine = ServeEngine::new(snapshot, ServeConfig::default());
    s.tracer.end(setup_span, "bench.setup", s.clock.real_ns(), 0);
    acc.setup_s.push((s.clock.now() - setup_start).as_secs_f64());
    if !send {
        return;
    }
    if let Some(model) = index_model {
        // The index build inside `ModelSnapshot::new`, split off the
        // set-up by building the same index again off the clock.
        let now = s.clock.real_ns_fn();
        let (nproc, tracer) = (s.nproc, &mut s.tracer);
        s.clock.exclude(|| {
            let a = now();
            std::hint::black_box(TaIndex::build_with_threads(&model, nproc));
            tracer.record("rec.index_build", a, now(), 0);
        });
    }

    let loop_start = s.clock.now();
    let loop_span = s.tracer.begin("bench.queries", s.clock.real_ns());
    for (i, &q) in schedule.iter().enumerate() {
        s.query(&engine, |q| engine.query(q), q, i, &mut acc.queries, &mut acc.best_queries);
    }
    s.tracer.end(loop_span, "bench.queries", s.clock.real_ns(), schedule.len() as u64);
    acc.loop_s.push((s.clock.now() - loop_start).as_secs_f64());
    let stats = engine.stats();
    acc.queries.cache_hits += stats.cache_hits;
    acc.queries.cache_misses += stats.cache_misses;
    acc.rounds += 1;
}
