//! Failure accounting: every call into the system runs under
//! `catch_unwind`, so a panic is counted as one failed operation
//! instead of ending the benchmark, and its message is kept off the
//! output.

use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use tcam_serve::Response;

thread_local! {
    static QUIET: Cell<bool> = const { Cell::new(false) };
}

/// Installs a panic hook that stays silent inside [`guarded`] and
/// reports every other panic (a bug in the benchmark itself) as usual.
pub fn install_quiet_hook() {
    let default = panic::take_hook();
    panic::set_hook(Box::new(move |info| {
        if !QUIET.with(Cell::get) {
            default(info);
        }
    }));
}

/// The call panicked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Panicked;

/// Runs `f`, turning a panic into [`Panicked`].
pub fn guarded<R>(f: impl FnOnce() -> R) -> Result<R, Panicked> {
    QUIET.with(|q| q.set(true));
    let result = panic::catch_unwind(AssertUnwindSafe(f));
    QUIET.with(|q| q.set(false));
    result.map_err(|_| Panicked)
}

/// A query call's response when it is a success: it returned and every
/// score is finite. A panic or a non-finite score is a failed query.
pub fn answered(result: Result<Response, Panicked>) -> Option<Response> {
    result.ok().filter(|r| r.items.iter().all(|s| s.score.is_finite()))
}

/// Attempted and failed operation counts.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Records one operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Records `n` scheduled operations that never ran because the
    /// system crashed before them; each counts as failed.
    pub fn lost(&mut self, n: u64) {
        self.attempted += n;
        self.failed += n;
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    pub fn share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tcam_math::topk::Scored;
    use tcam_serve::Source;

    fn response(scores: &[f64]) -> Response {
        Response {
            items: Arc::new(
                scores.iter().enumerate().map(|(i, &s)| Scored { index: i, score: s }).collect(),
            ),
            items_examined: scores.len(),
            source: Source::TaIndex,
            epoch: 1,
        }
    }

    #[test]
    fn injected_panic_and_nan_score_are_failures() {
        install_quiet_hook();
        let mut tally = Tally::default();
        let ok = answered(guarded(|| response(&[0.5, 0.25])));
        tally.record(ok.is_some());
        let panicked = answered(guarded(|| -> Response { panic!("injected") }));
        tally.record(panicked.is_some());
        let nan = answered(guarded(|| response(&[0.5, f64::NAN])));
        tally.record(nan.is_some());
        let inf = answered(guarded(|| response(&[f64::INFINITY])));
        tally.record(inf.is_some());
        tally.lost(3);
        assert_eq!(tally, Tally { attempted: 7, failed: 6 });
        assert!((tally.share() - 6.0 / 7.0).abs() < 1e-15);
    }

    #[test]
    fn guard_survives_repeated_panics() {
        install_quiet_hook();
        for _ in 0..3 {
            assert_eq!(guarded(|| -> u32 { panic!("again") }), Err(Panicked));
        }
        assert_eq!(guarded(|| 7), Ok(7));
    }
}
