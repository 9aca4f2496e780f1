//! Knobs of the epoch-driven adaptation loop.

use chiller_common::time::Duration;

/// Configuration of the online adaptation cycle. Defaults are calibrated
/// for millisecond-scale simulated runs (epochs of 2ms over the default
/// RDMA-class network); production deployments would scale `epoch` up.
#[derive(Debug, Clone)]
pub struct AdaptiveConfig {
    /// Epoch length: how often monitors are drained and the planner runs.
    pub epoch: Duration,
    /// Sample every k-th committed transaction into the trace buffer
    /// (the paper finds sparse sampling sufficient; rates are rescaled).
    pub sample_every: u64,
    /// Cap on sampled transactions per engine per epoch (bounded memory).
    pub max_samples_per_epoch: usize,
    /// Sliding window of epochs the planner replans over.
    pub window_epochs: usize,
    /// Cap on record migrations issued per epoch (bounded churn).
    pub max_moves_per_epoch: usize,
    /// Contention likelihood above which a record becomes hot (§4.4).
    pub hot_threshold: f64,
    /// Likelihood below which a hot record is demoted — strictly lower
    /// than `hot_threshold` so borderline records do not oscillate.
    pub cool_threshold: f64,
    /// Assumed average lock-hold window for the contention model (ns).
    pub lock_window_ns: f64,
    /// Minimum sampled transactions in the window before planning.
    pub min_window_txns: usize,
    /// Balance slack handed to the min-cut partitioner. Loose by default:
    /// hot records are a tiny fraction of the data, so the contention
    /// objective may co-locate dense cliques (as in the Figure 7 setup).
    pub epsilon: f64,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            epoch: Duration::from_millis(2),
            sample_every: 2,
            max_samples_per_epoch: 2_000,
            window_epochs: 2,
            max_moves_per_epoch: 64,
            hot_threshold: 0.02,
            cool_threshold: 0.005,
            lock_window_ns: 30_000.0,
            min_window_txns: 200,
            epsilon: 8.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_coherent() {
        let c = AdaptiveConfig::default();
        assert!(c.cool_threshold < c.hot_threshold, "hysteresis required");
        assert!(c.sample_every >= 1);
        assert!(c.window_epochs >= 1);
    }
}
