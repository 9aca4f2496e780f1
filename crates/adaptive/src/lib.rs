//! # chiller-adaptive
//!
//! Online adaptation of the §4 contention-aware layout. The paper's
//! pipeline is offline: a sampled trace feeds the partitioner once, and the
//! hot-record lookup table is frozen for the run. This crate closes that
//! loop at runtime as an epoch-driven feedback cycle:
//!
//! 1. a per-engine [`ContentionMonitor`] samples every k-th committed
//!    transaction's read/write-set into a buffer capped per epoch — the
//!    only statistic the loop keeps; per-record counts and likelihoods are
//!    derived from the samples when the planner runs;
//! 2. a [`Directory`] replaces the frozen
//!    `LookupTable`: the same hot-entry-over-default-partitioner placement,
//!    but mutable at deterministic points in virtual time;
//! 3. an [`AdaptivePlanner`] re-runs the existing
//!    `ChillerPartitioner`/`ContentionModel` incrementally over a sliding
//!    window of epochs' samples, aligns the resulting partition labels with
//!    the current layout, and diffs the two into a bounded
//!    [`MigrationPlan`].
//!
//! The migration *protocol* (lock, copy, re-home, re-publish) lives in
//! `chiller-cc`: migrations are ordinary NO_WAIT lock-based writes in
//! virtual time, so the determinism, balance-conservation and
//! replica-consistency invariants survive them unchanged. The epoch
//! scheduler that drives the cycle lives in the `chiller` run harness.

pub mod config;
pub mod directory;
pub mod monitor;
pub mod planner;

pub use config::AdaptiveConfig;
pub use directory::Directory;
pub use monitor::ContentionMonitor;
pub use planner::{AdaptivePlanner, MigrationPlan, RecordMove};
