//! One benchmark for the online TCAM system.
//!
//! ```text
//! tcam-perfbench --workload <stream|query_zipf|query_catalog>
//!                [--seed 1] [--seconds 10] [--trace 0|1] [--out .bench_out]
//! ```
//!
//! A run repeats rounds (set-up, then the workload's whole closed loop
//! with one client thread) until `--seconds` have passed. Every call
//! into the system runs under `catch_unwind` and is counted as attempted
//! and, if it panicked or returned a non-finite score or model, failed;
//! a sample of outputs is checked against the brute-force and cold-refit
//! oracles. With `--trace 0` the rounds are untraced and give the
//! end-to-end metrics. With `--trace 1` the second round is traced: it
//! records a span around each layer call and gives the per-layer
//! metrics, and its loop time against the untraced rounds' gives the
//! tracing overhead.
//!
//! Standard output carries the report — every metric by name, with its
//! unit and sample count — and ends with one JSON line: `correct`,
//! `attempted` and `failed` (the operations of the first round that ran
//! the loop; every round replays the same schedule, and the report shows
//! each round's counts) and the `metrics` this mode measures. The same
//! report, and the spans of a traced run, are written under `--out`.

mod guard;
mod harness;
mod inputs;
mod oracle;
mod query;
mod stats;
mod stream;
mod trace;

use guard::Tally;
use harness::{Acc, Harness};
use inputs::Workload;
use stats::{mean, median, percentile, sorted, tail_percentile};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The end-to-end metrics every workload reports with `--trace 0`: the
/// ones every workload has that a shared machine measures steadily. The
/// report also prints `query_p50_us` (on `query_zipf` it falls in the
/// tail of the cache hits and moves with other tenants' memory traffic),
/// `peak_rss_mb` and the `stream` figures.
const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("query_qps", "1/s"), ("query_p99_us", "us")];

/// The per-layer metrics every workload reports with `--trace 1`.
const PER_LAYER: [(&str, &str); 36] = [
    ("refresh_p50_ms", "ms"),
    ("refresh_tail_ms", "ms"),
    ("freshness_p50_ms", "ms"),
    ("online.append_us_p50", "us"),
    ("online.refresh_ms_sum", "ms"),
    ("online.refresh_count", "count"),
    ("online.refresh_invalid", "count"),
    ("data.materialize_ms_sum", "ms"),
    ("core.fit_warm_ms_sum", "ms"),
    ("core.em_iterations", "count"),
    ("core.em_iteration_us_mean", "us"),
    ("core.cold_fit_ms", "ms"),
    ("serve.snapshot_build_ms_sum", "ms"),
    ("rec.index_build_ms_sum", "ms"),
    ("serve.swap_us_sum", "us"),
    ("serve.hit_us_p50", "us"),
    ("serve.ta_us_p50", "us"),
    ("serve.foldin_us_p50", "us"),
    ("serve.cache_hit_rate", "share"),
    ("serve.source_share.cache_hit", "share"),
    ("serve.source_share.ta", "share"),
    ("serve.source_share.fold_in", "share"),
    ("rec.ta_kernel_us_p50", "us"),
    ("rec.bf_kernel_us_p50", "us"),
    ("rec.items_examined_mean", "count"),
    ("rec.blocks_skipped_mean", "count"),
    ("rec.useful_ratio", "share"),
    ("online.refresh_ledger_coverage", "share"),
    ("trace.overhead_share", "share"),
    ("fail_share", "share"),
    ("check.query_checked", "count"),
    ("check.query_mismatch", "count"),
    ("check.refresh_checked", "count"),
    ("check.refresh_mismatch", "count"),
    ("check.replica_checked", "count"),
    ("check.replica_mismatch", "count"),
];

/// Fewest rounds of a run: enough for a fastest-of-rounds per call, and
/// in a traced run one untraced and the traced round.
const MIN_ROUNDS: u64 = 3;
const MIN_TRACED_ROUNDS: u64 = 2;
/// Set-ups an untraced run makes before its rounds, so the median
/// set-up time rests on several samples even when rounds are few.
const EXTRA_SETUPS: u64 = 20;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::Stream,
        seed: 1,
        seconds: 10,
        trace: false,
        out: PathBuf::from(".bench_out"),
        commit: "unknown".to_string(),
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(bad)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--out" => args.out = PathBuf::from(value),
            "--commit" => args.commit = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: u64,
    note: String,
}

#[derive(Default)]
struct Report {
    metrics: Vec<Metric>,
}

impl Report {
    fn add(&mut self, name: &str, value: f64, unit: &'static str, samples: u64, note: &str) {
        let (name, note) = (name.to_string(), note.to_string());
        self.metrics.push(Metric { name, value, unit, samples, note });
    }

    fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("tcam-perfbench: {e}");
            eprintln!(
                "usage: tcam-perfbench --workload <stream|query_zipf|query_catalog> \
                 [--seed N] [--seconds S] [--trace 0|1] [--out DIR]"
            );
            std::process::exit(2);
        }
    };
    guard::install_quiet_hook();
    let mut s = Harness::new();
    let (mut untraced, mut traced) = (Acc::default(), Acc::default());
    let started = Instant::now();
    let mut schedule = None;
    let mut round = 0u64;
    // The attempted and failed operations of each round that ran the
    // workload's loop, in order.
    let mut round_tallies: Vec<Tally> = Vec::new();
    let extra = if args.trace { 0 } else { EXTRA_SETUPS };
    loop {
        // A traced run traces its second round only: one round's spans
        // already number in the hundreds of thousands.
        let is_traced = args.trace && round == 1;
        s.tracer.set_enabled(is_traced);
        let acc = if is_traced { &mut traced } else { &mut untraced };
        let run_loop = round >= extra;
        let before = acc.tally();
        match args.workload {
            Workload::Stream => stream::round(&mut s, acc, args.seed, &mut schedule, run_loop),
            w => query::round(&mut s, acc, w, args.seed, &mut schedule, run_loop),
        }
        round += 1;
        if !run_loop {
            continue;
        }
        let after = acc.tally();
        round_tallies.push(Tally {
            attempted: after.attempted - before.attempted,
            failed: after.failed - before.failed,
        });
        let min = if args.trace { MIN_TRACED_ROUNDS } else { MIN_ROUNDS };
        let done = round_tallies.len() as u64;
        if done >= min && started.elapsed() >= Duration::from_secs(args.seconds) {
            break;
        }
    }

    let mut report = Report::default();
    end_to_end(&mut report, &untraced, args.workload);
    if args.trace {
        per_layer(&mut report, &s, &traced, &untraced);
    }
    let mut tally = untraced.tally();
    tally.add(traced.tally());
    // Every round replays the same schedule on the same inputs, so the
    // result line reports one round's operations: how many rounds fit
    // in `--seconds` depends on the machine, what fails in them must not.
    let first = round_tallies[0];
    let rounds_agree = round_tallies.iter().all(|&t| t == first);
    let per_round: Vec<String> =
        round_tallies.iter().map(|t| format!("{}/{}", t.failed, t.attempted)).collect();
    let invalid = untraced.ingest.refresh_invalid + traced.ingest.refresh_invalid;
    let rounds = (untraced.rounds + traced.rounds).max(1);
    report.add(
        "online.refresh_invalid",
        invalid as f64 / rounds as f64,
        "count",
        invalid,
        "per round: refreshes returning Ok with a non-finite log-likelihood or parameters",
    );
    report.add(
        "fail_share",
        tally.share(),
        "share",
        tally.attempted,
        &format!(
            "failed / attempted operations (queries + ingests), all rounds; per round: {}{}",
            per_round.join(" "),
            if rounds_agree { "" } else { "; the rounds disagree" }
        ),
    );
    let c = s.checks;
    for (name, value) in [
        ("check.query_checked", c.query_checked),
        ("check.query_mismatch", c.query_mismatch),
        ("check.refresh_checked", c.refresh_checked),
        ("check.refresh_mismatch", c.refresh_mismatch),
        ("check.replica_checked", c.replica_checked),
        ("check.replica_mismatch", c.replica_mismatch),
    ] {
        report.add(name, value as f64, "count", value, "");
    }

    let mut text = String::new();
    let w = args.workload;
    let _ = writeln!(
        text,
        "# tcam-perfbench workload={} seed={} trace={}",
        w.name(),
        args.seed,
        u8::from(args.trace)
    );
    let _ = writeln!(text, "# why: {}", w.why());
    let _ = writeln!(text, "# inputs: {}", w.describe(args.seed, s.fit_threads));
    let _ = writeln!(
        text,
        "# nproc={} fit_threads={} commit={} rounds: {} untraced, {} traced; closed loop, one client thread",
        s.nproc, s.fit_threads, args.commit, untraced.rounds, traced.rounds
    );
    for m in &report.metrics {
        let note = if m.note.is_empty() { String::new() } else { format!("  ({})", m.note) };
        let _ =
            writeln!(text, "{:<32} {:>16} {:<6} n={}{note}", m.name, m.value, m.unit, m.samples);
    }
    if args.trace {
        let _ = writeln!(text, "# spans (traced rounds): name, calls, total ms, self ms, count");
        for (name, st) in s.tracer.summary() {
            let _ = writeln!(
                text,
                "span {name:<30} {:>9} {:>12.3} {:>12.3} {:>12}",
                st.calls,
                st.total_ns as f64 / 1e6,
                st.self_ns as f64 / 1e6,
                st.count
            );
        }
    }
    print!("{text}");

    let written = std::fs::create_dir_all(&args.out).and_then(|()| {
        let stem = args.out.join(format!("{}-trace{}", w.name(), u8::from(args.trace)));
        std::fs::write(stem.with_extension("txt"), &text)?;
        if args.trace {
            s.tracer.write_tsv(&stem.with_extension("spans.tsv"))?;
        }
        Ok(())
    });
    if let Err(e) = written {
        eprintln!("tcam-perfbench: cannot write the report under {}: {e}", args.out.display());
        std::process::exit(1);
    }

    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut json = String::new();
    for &(name, unit) in names {
        let Some(m) = report.get(name).filter(|m| m.unit == unit) else {
            eprintln!("tcam-perfbench: metric {name} was not measured in {unit}");
            std::process::exit(1);
        };
        if !m.value.is_finite() {
            eprintln!("tcam-perfbench: metric {name} is not finite: {}", m.value);
            std::process::exit(1);
        }
        let sep = if json.is_empty() { "" } else { ", " };
        let _ = write!(json, "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", m.value);
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        c.all_match(),
        first.attempted,
        first.failed
    );
}

/// The end-to-end metrics of the untraced rounds.
fn end_to_end(r: &mut Report, acc: &Acc, workload: Workload) {
    let n = acc.rounds;
    r.add(
        "setup_s",
        median(&acc.setup_s),
        "s",
        acc.setup_s.len() as u64,
        "median set-up: generate the data, cold fit or bootstrap, first snapshot",
    );
    // Service time: the fastest call at each position of the schedule
    // across the rounds, summed (see `harness::BestCalls`).
    let (ingests, ingest_s) = acc.best_ingests.calls();
    let (queries, query_s) = acc.best_queries.calls();
    let service_s = ingest_s + query_s;
    let per_round: Vec<String> = acc.loop_s.iter().map(|s| format!("{s:.3}")).collect();
    let calls = if workload == Workload::Stream { "ingest and query calls" } else { "query calls" };
    let qps_note = format!(
        "query calls / service time: the {calls}, each at its fastest of {n} rounds; \
         whole-round wall times, s: {}",
        per_round.join(" ")
    );
    r.add("query_qps", queries as f64 / service_s, "1/s", queries, &qps_note);
    let lat = acc.best_queries.answered_us();
    let lat_note = format!(
        "successful query calls, each at its fastest of {n} rounds ({} timed)",
        acc.queries.latencies
    );
    r.add("query_p50_us", percentile(&lat, 50.0), "us", lat.len() as u64, &lat_note);
    r.add("query_p99_us", percentile(&lat, 99.0), "us", lat.len() as u64, &lat_note);
    r.add("peak_rss_mb", peak_rss_mb(), "MB", 1, "peak resident set of the process (VmHWM)");
    if workload != Workload::Stream {
        for (name, unit) in [
            ("stream_ratings_per_s", "1/s"),
            ("refresh_p50_ms", "ms"),
            ("refresh_tail_ms", "ms"),
            ("freshness_p50_ms", "ms"),
        ] {
            r.add(name, 0.0, unit, 0, "no ingests in this workload");
        }
        return;
    }
    let ing = &acc.ingest;
    r.add(
        "stream_ratings_per_s",
        ingests as f64 / service_s,
        "1/s",
        ingests,
        "ratings / service time of the replay's ingest and query calls",
    );
    // The i-th refresh of every round does the same work: keep its
    // fastest round.
    let positions = ing.refresh_ms.iter().map(Vec::len).max().unwrap_or(0);
    let refresh = sorted(
        (0..positions)
            .filter_map(|i| {
                ing.refresh_ms.iter().filter_map(|r| r.get(i).copied()).min_by(f64::total_cmp)
            })
            .collect(),
    );
    let tail = tail_percentile(refresh.len());
    let k = refresh.len() as u64;
    r.add(
        "refresh_p50_ms",
        percentile(&refresh, 50.0),
        "ms",
        k,
        "ingest calls that fired a refresh, each at its fastest round",
    );
    r.add(
        "refresh_tail_ms",
        percentile(&refresh, tail),
        "ms",
        k,
        &format!("p{tail}: the highest percentile with ten refreshes beyond it"),
    );
    let fresh = sorted(ing.freshness_ms.clone());
    let fresh_note = format!(
        "ingest start to the end of the first valid refresh holding the rating, all rounds; \
         {} ratings after a round's last refresh left out",
        ing.unpublished_tail
    );
    r.add("freshness_p50_ms", percentile(&fresh, 50.0), "ms", fresh.len() as u64, &fresh_note);
    r.add(
        "online.crashed_rounds",
        ing.crashed_rounds as f64,
        "count",
        n,
        "rounds a panic inside ingest ended",
    );
}

/// How a per-layer metric reads the spans of one name.
#[derive(Clone, Copy)]
enum SpanStat {
    /// Median duration, µs.
    P50Us,
    /// Summed duration per traced round, ms (µs).
    SumMs,
    SumUs,
    /// Spans per traced round.
    Calls,
}

/// Per-layer metrics read straight off the spans: metric, span name,
/// statistic, note.
const SPAN_METRICS: [(&str, &str, SpanStat, &str); 13] = [
    ("online.append_us_p50", "online.append", SpanStat::P50Us, "ingest calls that did not refresh"),
    ("online.refresh_ms_sum", "online.refresh", SpanStat::SumMs, "per round: ingest calls that fired a refresh"),
    ("online.refresh_count", "online.refresh", SpanStat::Calls, "per round"),
    ("data.materialize_ms_sum", "data.materialize", SpanStat::SumMs, "per round: engine::training_cuboid, re-run on each refresh's inputs"),
    ("core.fit_warm_ms_sum", "core.fit_warm", SpanStat::SumMs, "per round: TtcamModel::fit_warm, re-run on each refresh's inputs"),
    ("serve.snapshot_build_ms_sum", "serve.snapshot_build", SpanStat::SumMs, "per round: ModelSnapshot::new, set-up and refreshes"),
    ("rec.index_build_ms_sum", "rec.index_build", SpanStat::SumMs, "per round: TaIndex::build_with_threads, set-up and refreshes"),
    ("serve.swap_us_sum", "serve.swap", SpanStat::SumUs, "per round: ServeEngine::swap_snapshot, re-run after the refresh's own swap emptied the cache"),
    ("serve.hit_us_p50", "serve.query.cache_hit", SpanStat::P50Us, "query calls answered from the cache"),
    ("serve.ta_us_p50", "serve.query.ta", SpanStat::P50Us, "query calls answered by the TA index"),
    ("serve.foldin_us_p50", "serve.query.fold_in", SpanStat::P50Us, "query calls answered by fold-in"),
    ("rec.ta_kernel_us_p50", "rec.ta_kernel", SpanStat::P50Us, "TaIndex::top_k_into on a fixed sample of TA-answered queries"),
    ("rec.bf_kernel_us_p50", "rec.bf_kernel", SpanStat::P50Us, "brute_force_top_k on the same queries"),
];

/// The per-layer metrics of the traced rounds.
fn per_layer(r: &mut Report, s: &Harness, acc: &Acc, untraced: &Acc) {
    let spans = s.tracer.summary();
    let rounds = acc.rounds.max(1) as f64;
    let get = |name: &str| spans.get(name).copied().unwrap_or_default();
    for (metric, span, stat, note) in SPAN_METRICS {
        let st = get(span);
        let (value, unit) = match stat {
            SpanStat::P50Us => (percentile(&s.tracer.durations_us(span), 50.0), "us"),
            SpanStat::SumMs => (st.total_ns as f64 / 1e6 / rounds, "ms"),
            SpanStat::SumUs => (st.total_ns as f64 / 1e3 / rounds, "us"),
            SpanStat::Calls => (st.calls as f64 / rounds, "count"),
        };
        r.add(metric, value, unit, st.calls, note);
    }
    let share = |x: u64, base: u64| if base == 0 { 0.0 } else { x as f64 / base as f64 };
    let fit = get("core.fit_warm");
    let em_note = "per round: EM iterations of the warm refits";
    r.add("core.em_iterations", fit.count as f64 / rounds, "count", fit.calls, em_note);
    let per_iter = share(fit.total_ns, fit.count) / 1e3;
    let iter_note = "warm-refit time / EM iterations";
    r.add("core.em_iteration_us_mean", per_iter, "us", fit.count, iter_note);
    let cold = s.tracer.durations_us("core.cold_fit");
    let cold_note = "median TtcamModel::fit of the set-up";
    r.add("core.cold_fit_ms", median(&cold) / 1e3, "ms", cold.len() as u64, cold_note);

    let q = &acc.queries;
    let lookups = q.cache_hits + q.cache_misses;
    let hit_note = "cache hits / cache lookups, engine counters";
    r.add("serve.cache_hit_rate", share(q.cache_hits, lookups), "share", lookups, hit_note);
    let answered = q.answered();
    for (metric, slot) in [
        ("serve.source_share.cache_hit", 0),
        ("serve.source_share.ta", 1),
        ("serve.source_share.fold_in", 3),
    ] {
        let value = share(q.sources[slot], answered);
        r.add(metric, value, "share", answered, "of successful queries");
    }
    let (runs, per_call) = (q.kernel_runs, "per TaIndex::top_k_into call");
    r.add("rec.items_examined_mean", share(q.kernel_examined, runs), "count", runs, per_call);
    r.add("rec.blocks_skipped_mean", share(q.kernel_skipped, runs), "count", runs, per_call);
    let useful = share(q.kernel_k, q.kernel_examined);
    let useful_note = "items returned / items examined by TaIndex::top_k_into";
    r.add("rec.useful_ratio", useful, "share", q.kernel_examined, useful_note);

    let ing = &acc.ingest;
    let coverage = share(ing.ledger_stages_ns, ing.ledger_refresh_ns);
    let splits = get("bench.refresh_split").calls;
    let ledger_note = "(materialize + fit_warm + snapshot build + swap) / refresh wall time";
    r.add("online.refresh_ledger_coverage", coverage, "share", splits, ledger_note);
    // The untraced rounds just before and after the traced one ran in
    // the most similar machine state.
    let neighbours = &untraced.loop_s[..untraced.loop_s.len().min(2)];
    let overhead =
        if neighbours.is_empty() { 0.0 } else { mean(&acc.loop_s) / mean(neighbours) - 1.0 };
    let overhead_note = "traced loop time / mean loop time of the untraced rounds before and \
                         after it - 1; the benchmark's own re-runs and checks are off the clock";
    let n = (acc.loop_s.len() + neighbours.len()) as u64;
    r.add("trace.overhead_share", overhead, "share", n, overhead_note);
}

/// Peak resident set size of this process, MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
    fn listed(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let start = text.find(&format!("\"{section}\": [")).expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section closes")];
        let field = |entry: &str, key: &str| {
            let at = entry.find(&format!("\"{key}\": \"")).expect("field present") + key.len() + 5;
            entry[at..][..entry[at..].find('"').expect("string closes")].to_string()
        };
        body.split('{').skip(1).map(|e| (field(e, "name"), field(e, "unit"))).collect()
    }

    fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_emitted_metrics() {
        assert_eq!(listed("end_to_end"), owned(&END_TO_END));
        assert_eq!(listed("per_layer"), owned(&PER_LAYER));
    }
}
