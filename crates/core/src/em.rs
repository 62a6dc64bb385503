//! The EM driver shared by both TCAM variants (DESIGN.md §11).
//!
//! ITCAM and TTCAM share the interest side of EM (Eqs. 4–5, 8, 9, 11)
//! and differ only in their temporal context (Eq. 10 against Eqs.
//! 12–16). [`drive`] runs the one loop around that math: shard
//! dispatch, merge, trace, convergence test and the interest-side
//! M-step. Each model plugs in an [`EmKernel`] that supplies only its
//! context math. Every iteration is (a) allocation-free and (b) bitwise
//! reproducible across thread counts:
//!
//! * **Fixed shard plan.** The user partition is a function of the
//!   *data* (entry count), never of `num_threads`. Threads only pick up
//!   shards; the per-shard accumulation and the merge order are
//!   identical whether 1 or 16 threads run them, so the log-likelihood
//!   trace is bitwise identical across thread counts.
//! * **Disjoint per-shard windows.** `theta_num`, `lambda_num`, and
//!   `mass` are indexed by user, and the per-entry buffer by entry;
//!   shards own contiguous user ranges, so [`shard_tasks`] hands each
//!   shard disjoint windows of one shared buffer and those statistics
//!   need no merge at all.
//! * **Deterministic pairwise merge tree.** The shared item-major
//!   matrices are accumulated per shard into reusable scratch (zeroed,
//!   not reallocated, between iterations) and merged with a fixed
//!   stride-doubling tree ([`merge_tree`]): `s[i] += s[i + gap]` for
//!   `gap = 1, 2, 4, ...`. The tree's shape depends only on the shard
//!   count, and each level's merges are independent (parallelizable).

use crate::config::{FitConfig, FitResult, FitTrace};
use crate::parallel::run_tasks;
use crate::{ModelError, Result};
use std::ops::Range;
use tcam_data::{RatingCuboid, UserId};
use tcam_math::{Matrix, Pcg64};

/// Upper bound on EM shards. Bounds per-shard scratch memory (each
/// shard holds its own copies of the shared item-major numerators) and
/// therefore the zero+merge overhead of tiny datasets; it also caps the
/// useful E-step parallelism. Raise it when real multi-core hardware and
/// larger cuboids arrive — any fixed value preserves reproducibility.
pub(crate) const MAX_EM_SHARDS: usize = 8;

/// Entries a shard should hold before another shard pays for itself.
/// Below this, zeroing and merging the extra scratch costs more than the
/// E-step work it parallelizes.
pub(crate) const MIN_ENTRIES_PER_SHARD: usize = 2048;

/// The fixed user partition for a cuboid: contiguous, entry-balanced,
/// and — critically — independent of the fit's `num_threads`, so every
/// thread count accumulates and merges in exactly the same order. At
/// least 2 shards whenever the data allows, so the merge tree is
/// exercised (and its determinism tested) even on small datasets.
pub(crate) fn em_shard_plan(cuboid: &RatingCuboid) -> Vec<Range<usize>> {
    let by_size = cuboid.nnz() / MIN_ENTRIES_PER_SHARD;
    let want = by_size.clamp(2, MAX_EM_SHARDS);
    let costs: Vec<usize> =
        (0..cuboid.num_users()).map(|u| cuboid.user_nnz(UserId::from(u))).collect();
    crate::parallel::balanced_ranges(&costs, want)
}

/// Checks what every fit entry point requires of its inputs.
pub(crate) fn validate(cuboid: &RatingCuboid, config: &FitConfig) -> Result<()> {
    config.validate()?;
    if cuboid.nnz() == 0 {
        return Err(ModelError::BadData("cuboid has no ratings"));
    }
    Ok(())
}

/// The interest side of both models (Eqs. 4–5, 8, 9, 11), owned by the
/// driver: it runs this side's M-step and lends it to the kernel's
/// E-step read-only.
pub(crate) struct Interest {
    /// `theta[u][z]`, shape `N x K1`.
    pub theta: Matrix,
    /// Item-major `phi_item[v][z]` (column-stochastic), so the
    /// per-entry inner loop reads one contiguous row per rating.
    pub phi_item: Matrix,
    /// Per-user mixing weights `lambda_u`.
    pub lambda: Vec<f64>,
    /// Fixed background item distribution `theta_B`: the empirical item
    /// frequencies of the training cuboid.
    pub background: Vec<f64>,
    /// Background mixing weight `lambda_B`.
    pub lam_b: f64,
}

/// A model's temporal-context math, plugged into [`drive`].
pub(crate) trait EmKernel: Sync {
    /// Refreshes state the E-step reads, once per iteration before any
    /// shard runs.
    fn prepare(&mut self) {}

    /// E-step of user `u`, whose ratings are `cuboid.entries()[entries]`.
    /// Per-user statistics go into `stats`, the item-major interest
    /// numerator and log-likelihood into `shard`, and one context value
    /// per rating into `out` (same length as `entries`); [`Self::m_step`]
    /// reads those values back in entry order.
    fn e_step_user(
        &self,
        interest: &Interest,
        u: usize,
        entries: Range<usize>,
        out: &mut [f64],
        stats: &mut UserStatsView<'_>,
        shard: &mut EmScratch,
    );

    /// M-step of the temporal side from the per-entry values the E-step
    /// wrote, in entry order.
    fn m_step(&mut self, per_entry: &[f64]);
}

/// Runs EM from the given interest-side parameters and `kernel`'s
/// temporal side until `config.max_iterations` or the relative
/// log-likelihood tolerance. Returns both sides' final parameters.
pub(crate) fn drive<K: EmKernel>(
    cuboid: &RatingCuboid,
    config: &FitConfig,
    theta: Matrix,
    phi_item: Matrix,
    lambda: Vec<f64>,
    mut kernel: K,
) -> FitResult<(Interest, K)> {
    let n = cuboid.num_users();
    let v_dim = cuboid.num_items();
    let k1 = config.num_user_topics;
    debug_assert_eq!((theta.rows(), theta.cols()), (n, k1));
    debug_assert_eq!((phi_item.rows(), phi_item.cols()), (v_dim, k1));
    let mut background = vec![0.0; v_dim];
    for r in cuboid.entries() {
        background[r.item.index()] += r.value;
    }
    tcam_math::vecops::normalize_in_place(&mut background);
    let mut interest =
        Interest { theta, phi_item, lambda, background, lam_b: config.background_weight };

    // All training-loop buffers are allocated here, once.
    let shards = em_shard_plan(cuboid);
    let mut user_stats = UserStats::zeros(n, k1);
    let mut scratch: Vec<EmScratch> = shards.iter().map(|_| EmScratch::new(v_dim, k1)).collect();
    let mut per_entry = vec![0.0; cuboid.nnz()];
    let mut col_sums = vec![0.0; k1];
    let mut trace: Vec<FitTrace> = Vec::with_capacity(config.max_iterations);
    let mut converged = false;

    for iteration in 0..config.max_iterations {
        kernel.prepare();
        user_stats.reset();
        for s in scratch.iter_mut() {
            s.reset();
        }
        let run = |mut task: ShardTask<'_>| {
            for u in task.users {
                let entries = cuboid.user_entry_range(UserId::from(u));
                let window = entries.start - task.entry_base..entries.end - task.entry_base;
                let out = &mut task.per_entry[window];
                kernel.e_step_user(&interest, u, entries, out, &mut task.stats, task.scratch);
            }
        };
        let tasks = shard_tasks(cuboid, &shards, &mut user_stats, &mut scratch, &mut per_entry);
        if config.num_threads <= 1 {
            // Serial dispatch consumes the same tasks in place, so warm
            // iterations stay allocation-free (asserted by
            // `tests/zero_alloc.rs`).
            tasks.for_each(run);
        } else {
            run_tasks(config.num_threads, tasks.collect(), run);
        }
        merge_tree(&mut scratch);
        let log_likelihood = scratch[0].log_likelihood;

        trace.push(FitTrace { iteration, log_likelihood });
        if iteration > 0 {
            let prev = trace[iteration - 1].log_likelihood;
            let rel = (log_likelihood - prev).abs() / prev.abs().max(f64::MIN_POSITIVE);
            if config.tolerance > 0.0 && rel < config.tolerance {
                converged = true;
                break;
            }
        }

        // M-step: Eqs. 8, 9, 11 here, the temporal side in the kernel.
        normalize_rows(&user_stats.theta_num, &mut interest.theta);
        column_normalize(&scratch[0].phi_item_num, &mut interest.phi_item, &mut col_sums);
        crate::config::update_lambda(
            config.lambda_shrinkage,
            &user_stats.lambda_num,
            &user_stats.mass,
            &mut interest.lambda,
        );
        kernel.m_step(&per_entry);
    }

    FitResult { model: (interest, kernel), trace, converged }
}

/// Per-user sufficient statistics (M-step numerators for `theta_u` and
/// `lambda_u`). Allocated once per fit; zeroed in place each iteration.
struct UserStats {
    /// `N x K1` numerators for Eq. 8.
    theta_num: Matrix,
    /// Eq. 11 numerators.
    lambda_num: Vec<f64>,
    /// Eq. 11 denominators.
    mass: Vec<f64>,
}

impl UserStats {
    fn zeros(n: usize, k1: usize) -> Self {
        UserStats { theta_num: Matrix::zeros(n, k1), lambda_num: vec![0.0; n], mass: vec![0.0; n] }
    }

    fn reset(&mut self) {
        self.theta_num.as_mut_slice().fill(0.0);
        self.lambda_num.fill(0.0);
        self.mass.fill(0.0);
    }
}

/// One shard's disjoint window into [`UserStats`]. Indexed by *global*
/// user id; the view rebases internally.
pub(crate) struct UserStatsView<'a> {
    base: usize,
    k1: usize,
    theta: &'a mut [f64],
    lambda_num: &'a mut [f64],
    mass: &'a mut [f64],
}

impl UserStatsView<'_> {
    /// The `theta_num` row of global user `u` (must be in the window).
    #[inline]
    pub fn theta_row_mut(&mut self, u: usize) -> &mut [f64] {
        let i = (u - self.base) * self.k1;
        &mut self.theta[i..i + self.k1]
    }

    /// Adds to the Eq. 11 accumulators of global user `u`.
    #[inline]
    pub fn lambda_mass_add(&mut self, u: usize, lambda_num: f64, mass: f64) {
        let i = u - self.base;
        self.lambda_num[i] += lambda_num;
        self.mass[i] += mass;
    }
}

/// Reusable per-shard E-step scratch: this shard's copy of the shared
/// item-major interest numerator and its log-likelihood. Allocated once
/// per fit and zeroed — never reallocated — between iterations.
///
/// The temporal numerators deliberately do *not* live here: each
/// entry's context contribution is one scalar, recorded into the
/// shard's window of the per-entry buffer, and the kernel's M-step
/// rebuilds its numerators from those in one sequential pass.
pub(crate) struct EmScratch {
    /// `V x K1` numerators for Eq. 9.
    pub phi_item_num: Matrix,
    pub log_likelihood: f64,
}

impl EmScratch {
    fn new(v_dim: usize, k1: usize) -> Self {
        EmScratch { phi_item_num: Matrix::zeros(v_dim, k1), log_likelihood: 0.0 }
    }

    fn reset(&mut self) {
        self.phi_item_num.as_mut_slice().fill(0.0);
        self.log_likelihood = 0.0;
    }
}

impl MergeStats for EmScratch {
    fn merge_from(&mut self, other: &Self) {
        self.phi_item_num.add_assign(&other.phi_item_num).expect("equal shapes");
        self.log_likelihood += other.log_likelihood;
    }
}

/// Everything one shard's E-step writes: its users, its windows of
/// [`UserStats`] and of the per-entry buffer (which starts at global
/// entry `entry_base`), and its scratch.
struct ShardTask<'a> {
    users: Range<usize>,
    entry_base: usize,
    stats: UserStatsView<'a>,
    scratch: &'a mut EmScratch,
    per_entry: &'a mut [f64],
}

/// Carves the disjoint per-shard windows of `stats` and `per_entry` in
/// shard order, one [`ShardTask`] per shard. `shards` must be
/// contiguous ranges covering `0..n` in order (which [`em_shard_plan`]
/// guarantees). The iterator itself allocates nothing, so the serial
/// dispatch consumes it in place.
// tcam-lint: hot
fn shard_tasks<'a>(
    cuboid: &'a RatingCuboid,
    shards: &'a [Range<usize>],
    stats: &'a mut UserStats,
    scratch: &'a mut [EmScratch],
    per_entry: &'a mut [f64],
) -> impl Iterator<Item = ShardTask<'a>> + 'a {
    let k1 = stats.theta_num.cols();
    let mut theta_rest = stats.theta_num.as_mut_slice();
    let mut lambda_rest = stats.lambda_num.as_mut_slice();
    let mut mass_rest = stats.mass.as_mut_slice();
    let mut entry_rest = per_entry;
    let mut next_entry = 0usize;
    shards.iter().zip(scratch).map(move |(users, scratch)| {
        let entries = cuboid.entry_range(users.clone());
        debug_assert_eq!(entries.start, next_entry);
        next_entry = entries.end;
        let len = users.len();
        let stats = UserStatsView {
            base: users.start,
            k1,
            theta: take_front(&mut theta_rest, len * k1),
            lambda_num: take_front(&mut lambda_rest, len),
            mass: take_front(&mut mass_rest, len),
        };
        let per_entry = take_front(&mut entry_rest, entries.len());
        ShardTask { users: users.clone(), entry_base: entries.start, stats, scratch, per_entry }
    })
}

/// Splits the first `len` elements off `rest`.
fn take_front<'a>(rest: &mut &'a mut [f64], len: usize) -> &'a mut [f64] {
    let (head, tail) = std::mem::take(rest).split_at_mut(len);
    *rest = tail;
    head
}

/// Shard statistics that participate in the deterministic merge tree.
pub(crate) trait MergeStats {
    /// `self += other` element-wise.
    fn merge_from(&mut self, other: &Self);
}

/// Folds all shard statistics into `states[0]` with a fixed
/// stride-doubling pairwise tree: gap 1 merges (0,1), (2,3), ...; gap 2
/// merges (0,2), (4,6), ...; and so on. The order depends only on
/// `states.len()`, so the result is bitwise reproducible for any thread
/// count — and the merges within one level are independent, should a
/// future PR want to run the tree itself on threads.
// tcam-lint: hot
pub(crate) fn merge_tree<S: MergeStats>(states: &mut [S]) {
    let n = states.len();
    let mut gap = 1;
    while gap < n {
        let mut i = 0;
        while i + gap < n {
            let (left, right) = states.split_at_mut(i + gap);
            left[i].merge_from(&right[0]);
            i += 2 * gap;
        }
        gap *= 2;
    }
}

/// Batched accumulator for `sum c * ln(denom)` over one user's entries.
///
/// `ln` is by far the most expensive scalar in the E-step. For the
/// overwhelmingly common unweighted rating (`c == 1`) with a
/// non-degenerate probability, `ln(d1) + ... + ln(d8) = ln(d1*...*d8)`,
/// so the accumulator multiplies up to 8 denominators and takes one
/// `ln`. Denominators are mixture probabilities (at most 1), and the
/// batch path requires `denom > 1e-30`, so a batch product is in
/// `[1e-240, 1]` — no under- or overflow. Weighted or degenerate
/// entries fall back to a direct `c * ln(denom)`.
///
/// Batching happens per user, so the result is independent of shard
/// layout and thread count (bitwise).
pub(crate) struct LogLikelihoodAcc {
    total: f64,
    prod: f64,
    pending: u32,
}

impl LogLikelihoodAcc {
    pub fn new() -> Self {
        LogLikelihoodAcc { total: 0.0, prod: 1.0, pending: 0 }
    }

    /// Adds `c * ln(denom)`.
    #[inline]
    pub fn add(&mut self, c: f64, denom: f64) {
        if c == 1.0 && denom > 1e-30 {
            self.prod *= denom;
            self.pending += 1;
            if self.pending == 8 {
                self.total += self.prod.ln();
                self.prod = 1.0;
                self.pending = 0;
            }
        } else {
            self.total += c * denom.ln();
        }
    }

    /// Adds the floor contribution of a cell the model assigns zero
    /// mass: `c * ln(f64::MIN_POSITIVE)`.
    #[inline]
    pub fn add_floor(&mut self, c: f64) {
        self.total += c * f64::MIN_POSITIVE.ln();
    }

    /// Flushes any partial batch and returns the accumulated total.
    #[inline]
    pub fn finish(mut self) -> f64 {
        if self.pending > 0 {
            self.total += self.prod.ln();
        }
        self.total
    }
}

/// Fills every row of `m` with a random distribution. Draws and values
/// are identical to copying `config::random_distribution` into each row
/// (same RNG stream), without the per-row allocation.
pub(crate) fn random_rows(m: &mut Matrix, rng: &mut Pcg64) {
    for r in 0..m.rows() {
        let row = m.row_mut(r);
        for cell in row.iter_mut() {
            *cell = 0.5 + rng.next_f64();
        }
        tcam_math::vecops::normalize_in_place(row);
    }
}

/// Random item-major `M[v][k]`, column-normalized so each of the `k`
/// topics is a distribution over items. Shared by both models' inits.
pub(crate) fn init_item_major(v_dim: usize, k: usize, rng: &mut Pcg64) -> Matrix {
    let mut m = Matrix::zeros(v_dim, k);
    let mut col_sums = vec![0.0; k];
    for v in 0..v_dim {
        for (z, cell) in m.row_mut(v).iter_mut().enumerate() {
            *cell = 0.5 + rng.next_f64();
            col_sums[z] += *cell;
        }
    }
    for v in 0..v_dim {
        for (z, cell) in m.row_mut(v).iter_mut().enumerate() {
            *cell /= col_sums[z];
        }
    }
    m
}

/// M-step row normalization: `dst[r] = normalize(src[r])` for every row
/// (uniform fallback for empty rows, as in `normalize_in_place`).
// tcam-lint: hot
pub(crate) fn normalize_rows(src: &Matrix, dst: &mut Matrix) {
    debug_assert_eq!(src.rows(), dst.rows());
    for r in 0..src.rows() {
        let out = dst.row_mut(r);
        out.copy_from_slice(src.row(r));
        tcam_math::vecops::normalize_in_place(out);
    }
}

/// M-step column normalization of item-major numerators into `dst` so
/// every topic is a distribution over items (uniform fallback for empty
/// topics). Shared by Eq. 9 (`phi_z`) and Eq. 16 (`phi'_x`).
///
/// `col_sums` is caller-owned scratch (sized lazily, so warm iterations
/// reuse its capacity and this runs allocation-free after the first
/// call at a given width).
// tcam-lint: hot
pub(crate) fn column_normalize(src: &Matrix, dst: &mut Matrix, col_sums: &mut Vec<f64>) {
    let v_dim = src.rows();
    let k = src.cols();
    col_sums.clear();
    col_sums.resize(k, 0.0);
    for v in 0..v_dim {
        tcam_math::vecops::scaled_add(col_sums, src.row(v), 1.0);
    }
    for v in 0..v_dim {
        let src_row = src.row(v);
        let dst_row = dst.row_mut(v);
        for z in 0..k {
            dst_row[z] =
                if col_sums[z] > 0.0 { src_row[z] / col_sums[z] } else { 1.0 / v_dim as f64 };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcam_data::{ItemId, Rating, TimeId, UserId};

    #[derive(Clone)]
    struct Tag(Vec<usize>);
    impl MergeStats for Tag {
        fn merge_from(&mut self, other: &Self) {
            self.0.extend_from_slice(&other.0);
        }
    }

    #[test]
    fn random_rows_matches_reference_distribution_stream() {
        let mut rng_rows = Pcg64::new(42);
        let mut rng_ref = Pcg64::new(42);
        let mut m = Matrix::zeros(5, 7);
        random_rows(&mut m, &mut rng_rows);
        for r in 0..5 {
            let want = crate::config::random_distribution(7, &mut rng_ref);
            assert_eq!(m.row(r), &want[..], "row {r}");
        }
    }

    #[test]
    fn merge_tree_order_is_fixed() {
        for n in 1..=9 {
            let mut states: Vec<Tag> = (0..n).map(|i| Tag(vec![i])).collect();
            merge_tree(&mut states);
            let mut all = states[0].0.clone();
            all.sort_unstable();
            assert_eq!(all, (0..n).collect::<Vec<_>>(), "n={n} covers every shard once");
            // The order is a pure function of n: re-running reproduces it.
            let mut again: Vec<Tag> = (0..n).map(|i| Tag(vec![i])).collect();
            merge_tree(&mut again);
            assert_eq!(states[0].0, again[0].0);
        }
    }

    #[test]
    fn shard_plan_ignores_thread_count_and_covers_users() {
        let ratings: Vec<Rating> = (0..200u32)
            .flat_map(|u| {
                (0..30u32).map(move |i| Rating {
                    user: UserId(u),
                    time: TimeId(i % 5),
                    item: ItemId(i),
                    value: 1.0,
                })
            })
            .collect();
        let c = RatingCuboid::from_ratings(200, 5, 30, ratings).unwrap();
        let plan = em_shard_plan(&c);
        assert!(plan.len() >= 2);
        assert!(plan.len() <= MAX_EM_SHARDS);
        assert_eq!(plan.first().unwrap().start, 0);
        assert_eq!(plan.last().unwrap().end, 200);
        for w in plan.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
    }

    #[test]
    fn user_stats_split_windows_are_disjoint_and_complete() {
        // Users 0..7 with 1, 0, 2, 1, 3, 0, 1 ratings.
        let ratings: Vec<Rating> = [1u32, 0, 2, 1, 3, 0, 1]
            .iter()
            .enumerate()
            .flat_map(|(u, &n)| {
                (0..n).map(move |i| Rating {
                    user: UserId::from(u),
                    time: TimeId(0),
                    item: ItemId(i),
                    value: 1.0,
                })
            })
            .collect();
        let c = RatingCuboid::from_ratings(7, 1, 3, ratings).unwrap();
        let shards = vec![0..2, 2..5, 5..7];
        let mut stats = UserStats::zeros(7, 3);
        let mut scratch: Vec<EmScratch> = shards.iter().map(|_| EmScratch::new(3, 3)).collect();
        let mut per_entry = vec![0.0; c.nnz()];
        for (i, mut task) in
            shard_tasks(&c, &shards, &mut stats, &mut scratch, &mut per_entry).enumerate()
        {
            assert_eq!(task.users, shards[i]);
            assert_eq!(
                task.entry_base..task.entry_base + task.per_entry.len(),
                c.entry_range(shards[i].clone())
            );
            for u in task.users.clone() {
                task.stats.theta_row_mut(u)[0] = u as f64;
                task.stats.lambda_mass_add(u, u as f64, 1.0);
            }
            task.per_entry.fill(i as f64);
            task.scratch.log_likelihood = i as f64;
        }
        for u in 0..7 {
            assert_eq!(stats.theta_num.get(u, 0), u as f64);
            assert_eq!(stats.lambda_num[u], u as f64);
            assert_eq!(stats.mass[u], 1.0);
        }
        assert_eq!(per_entry, [0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2.0]);
        assert_eq!(scratch.iter().map(|s| s.log_likelihood).collect::<Vec<_>>(), [0.0, 1.0, 2.0]);
        stats.reset();
        assert!(stats.theta_num.as_slice().iter().all(|&x| x == 0.0));
        assert!(stats.mass.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn log_likelihood_acc_matches_direct_sum() {
        // Mix of batchable (c == 1), weighted, tiny, and floored terms.
        let terms: Vec<(f64, f64)> = (0..37)
            .map(|i| {
                let c = if i % 5 == 0 { 0.25 + i as f64 * 0.1 } else { 1.0 };
                let d = if i % 11 == 0 { 1e-35 } else { 1e-4 + (i as f64) * 1e-3 };
                (c, d)
            })
            .collect();
        let mut acc = LogLikelihoodAcc::new();
        let mut direct = 0.0;
        for &(c, d) in &terms {
            acc.add(c, d);
            direct += c * d.ln();
        }
        let batched = acc.finish();
        assert!(
            (batched - direct).abs() <= 1e-9 * direct.abs(),
            "batched {batched} vs direct {direct}"
        );
        // Floors are weighted too.
        let mut acc = LogLikelihoodAcc::new();
        acc.add_floor(2.0);
        assert_eq!(acc.finish(), 2.0 * f64::MIN_POSITIVE.ln());
    }

    #[test]
    fn column_normalize_matches_rowwise_definition() {
        let src = Matrix::from_vec(3, 2, vec![1.0, 0.0, 2.0, 0.0, 1.0, 0.0]).unwrap();
        let mut dst = Matrix::zeros(3, 2);
        let mut col_sums = Vec::new();
        column_normalize(&src, &mut dst, &mut col_sums);
        assert!((dst.get(0, 0) - 0.25).abs() < 1e-15);
        assert!((dst.get(1, 0) - 0.5).abs() < 1e-15);
        // Empty column falls back to uniform over items.
        for v in 0..3 {
            assert!((dst.get(v, 1) - 1.0 / 3.0).abs() < 1e-15);
        }
    }
}
