//! The Poisson contention-likelihood model (§4.1).
//!
//! Reads and writes to a record within a *lock window* (the average time a
//! lock is held) are modeled as Poisson processes with arrival rates λr and
//! λw. A conflicting access occurs on (i) a write-write conflict — more than
//! one write and no read — or (ii) a read-write conflict. The paper derives:
//!
//! ```text
//! Pc(λw, λr) = 1 − e^{−λw} − λw · e^{−λw} · e^{−λr}
//! ```
//!
//! Note the properties the paper calls out: `Pc = 0` when `λw = 0` (shared
//! locks never conflict), and for `λw > 0`, `Pc` grows with `λr`.

use crate::stats::RecordStats;
use chiller_common::ids::RecordId;

/// Evaluate the closed-form contention likelihood.
#[inline]
pub fn contention_likelihood(lambda_w: f64, lambda_r: f64) -> f64 {
    debug_assert!(lambda_w >= 0.0 && lambda_r >= 0.0);
    1.0 - (-lambda_w).exp() - lambda_w * (-lambda_w).exp() * (-lambda_r).exp()
}

/// Converts raw access counts into arrival rates and likelihoods.
///
/// λ is the *time-normalized* access frequency: accesses per lock window,
/// i.e. `count / trace_window * lock_window`.
#[derive(Debug, Clone, Copy)]
pub struct ContentionModel {
    /// Average lock-hold duration in ns (measured by the engines; the paper
    /// defines the lock window this way).
    pub lock_window_ns: f64,
    /// Span of virtual time the statistics cover.
    pub trace_window_ns: f64,
}

impl ContentionModel {
    pub fn new(lock_window_ns: f64, trace_window_ns: f64) -> Self {
        assert!(lock_window_ns > 0.0 && trace_window_ns > 0.0);
        ContentionModel {
            lock_window_ns,
            trace_window_ns,
        }
    }

    /// Arrival rate per lock window for an access count.
    #[inline]
    pub fn lambda(&self, count: f64) -> f64 {
        count / self.trace_window_ns * self.lock_window_ns
    }

    /// Contention likelihood of a record with the given counters.
    pub fn likelihood(&self, stats: RecordStats) -> f64 {
        contention_likelihood(self.lambda(stats.writes), self.lambda(stats.reads))
    }
}

/// The hot set's order (§4.4): likelihood descending, ties by record id.
pub(crate) fn hottest_first(a: &(RecordId, f64), b: &(RecordId, f64)) -> std::cmp::Ordering {
    b.1.partial_cmp(&a.1).expect("finite").then(a.0.cmp(&b.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_writes_means_zero_contention() {
        // Shared locks are compatible: reads alone never conflict.
        for lr in [0.0, 0.5, 10.0, 1e6] {
            assert_eq!(contention_likelihood(0.0, lr), 0.0);
        }
    }

    #[test]
    fn monotone_in_write_rate() {
        let mut last = -1.0;
        for i in 0..100 {
            let p = contention_likelihood(i as f64 * 0.1, 0.5);
            assert!(p >= last, "Pc must be nondecreasing in λw");
            last = p;
        }
    }

    #[test]
    fn monotone_in_read_rate_given_writes() {
        let mut last = -1.0;
        for i in 0..100 {
            let p = contention_likelihood(0.7, i as f64 * 0.1);
            assert!(p >= last, "Pc must be nondecreasing in λr when λw>0");
            last = p;
        }
    }

    #[test]
    fn bounded_in_unit_interval() {
        for lw in [0.0, 0.1, 1.0, 10.0, 100.0] {
            for lr in [0.0, 0.1, 1.0, 10.0, 100.0] {
                let p = contention_likelihood(lw, lr);
                assert!((0.0..=1.0).contains(&p), "Pc({lw},{lr})={p}");
            }
        }
    }

    #[test]
    fn matches_closed_form_expansion() {
        // Independent derivation from the two scenario terms:
        // (i)  P(Xw>1)·P(Xr=0) and (ii) P(Xw>0)·P(Xr>0).
        let (lw, lr): (f64, f64) = (0.8, 1.3);
        let p_w_gt1 = 1.0 - (-lw).exp() - lw * (-lw).exp();
        let p_r_eq0 = (-lr).exp();
        let p_w_gt0 = 1.0 - (-lw).exp();
        let p_r_gt0 = 1.0 - p_r_eq0;
        let expected = p_w_gt1 * p_r_eq0 + p_w_gt0 * p_r_gt0;
        let got = contention_likelihood(lw, lr);
        assert!((got - expected).abs() < 1e-12, "{got} vs {expected}");
    }

    #[test]
    fn saturates_at_high_rates() {
        assert!(contention_likelihood(50.0, 0.0) > 0.999);
    }

    #[test]
    fn model_normalizes_by_windows() {
        let m = ContentionModel::new(1_000.0, 1_000_000.0);
        // 2000 writes over 1ms window, 1us lock window → λw = 2.
        assert!((m.lambda(2_000.0) - 2.0).abs() < 1e-12);
    }
}
