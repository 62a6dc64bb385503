//! **Table 3**: NDCG@5 versus the length of the time interval (1–10
//! "days") on the Digg-like dataset, for the six temporally-aware
//! methods: TT, ITCAM, TTCAM, W-TTCAM, BPTF, W-ITCAM.
//!
//! The dataset is generated at 1-day granularity and re-discretized by
//! merging intervals ([`tcam_data::RatingCuboid::coarsen_time`]). Expected shape
//! (paper Section 5.3.3): every method's NDCG first rises (denser
//! intervals) then falls (temporal signal diluted), with a mid-range
//! optimum, and the proposed methods dominate at every length.
//!
//! Usage: `cargo run --release -p tcam-bench --bin table3_interval_length
//!         [scale=0.2 k1=15 k2=8 iters=25 seed=1 max_days=10]`

use tcam_bench::report::{banner, f4, Table};
use tcam_bench::{fit_suite, Args, SuiteConfig};
use tcam_data::{synth, train_test_split, SynthDataset};
use tcam_math::Pcg64;
use tcam_rec::{evaluate, EvalConfig};

fn main() {
    let args = Args::from_env();
    let scale = args.get_f64("scale", 0.2);
    let seed = args.get_u64("seed", 1);
    let max_days = args.get_usize("max_days", 10);

    let suite_cfg = SuiteConfig {
        k1: args.get_usize("k1", 15),
        k2: args.get_usize("k2", 8),
        em_iterations: args.get_usize("iters", 25),
        seed,
        // BPRMF is time-agnostic and not part of the paper's Table 3;
        // BPTF is, so factorization stays on.
        ..SuiteConfig::default()
    };

    banner(&format!(
        "Table 3: NDCG@5 vs interval length on digg-like (scale {scale}, 1..{max_days} days)"
    ));

    // Base dataset at 1-day granularity: digg-like but with 60 single
    // day intervals (events ~1.5 days wide).
    let mut config = synth::digg_like(scale, seed);
    config.num_intervals = 60;
    config.event_width = 1.5;
    let data = SynthDataset::generate(config).expect("generation");

    let wanted = ["TT", "ITCAM", "TTCAM", "W-TTCAM", "BPTF", "W-ITCAM"];
    let mut table = Table::new(
        std::iter::once("interval".to_string())
            .chain(wanted.iter().map(|s| s.to_string()))
            .collect::<Vec<_>>(),
    );

    let eval_cfg = EvalConfig {
        k_max: 5,
        num_threads: tcam_bench::suite::available_threads(),
        ..EvalConfig::default()
    };

    for days in 1..=max_days {
        eprintln!("[interval {days}d] coarsening + fitting suite...");
        let coarse = data.cuboid.coarsen_time(days);
        let split = train_test_split(&coarse, 0.2, &mut Pcg64::new(seed));
        let suite = fit_suite(&split.train, &suite_cfg);
        let mut row = vec![format!("{days} day{}", if days > 1 { "s" } else { "" })];
        for name in wanted {
            let model = suite
                .iter()
                .find(|m| m.scorer.name() == name)
                .expect("suite contains all wanted models");
            let report = evaluate(model.scorer.as_ref(), &split, &eval_cfg);
            row.push(f4(report.per_k[4].ndcg));
        }
        table.row(row);
    }
    println!("{}", table.render());
    println!(
        "Paper reference (Table 3): all methods peak at 3 days on Digg; proposed methods \
         dominate at every interval length, with W-TTCAM best."
    );
}
