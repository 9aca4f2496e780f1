//! # chiller-checker
//!
//! Black-box serializability checking over recorded histories
//! (DESIGN.md §14), after Huang et al.'s dependency-graph approach to
//! black-box isolation checking: no knowledge of the protocol under test,
//! only the versioned reads and writes it admits to.
//!
//! The pipeline:
//!
//! 1. Engines record observations — `(txn, record, version)` for every
//!    read and every installed write, plus a commit marker — into the
//!    per-engine logs of `chiller-obs` ([`chiller_obs::HistoryRecorder`]).
//! 2. [`assemble`] groups the drained [`chiller_obs::History`] by
//!    transaction and keeps only committed ones (every attempt runs under
//!    a fresh `TxnId`, so aborted attempts vanish here without any
//!    record-time filtering).
//! 3. [`check`] builds per-record dependency edges — **WR** (read-from),
//!    **WW** (version order), **RW** (anti-dependency) — over bounded
//!    sliding windows of the commit order, runs Tarjan's SCC search, and
//!    classifies every cycle found ([`Anomaly`]): a serializable history
//!    has an acyclic dependency graph, so any cycle is a violation.
//!
//! Windowing ([`CheckMode::Window`]) bounds the cycle search's memory and
//! time on long histories at the cost of missing cycles wider than a
//! window (the recorded history itself is O(history) in every mode); windows
//! overlap by half so neighboring-transaction cycles never straddle a cut.
//! [`CheckMode::Full`] checks one window covering everything — the right
//! setting for tests.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod graph;
mod mode;
mod model;

pub use graph::{check, Anomaly, CheckReport, DepEdge, DepKind, Violation};
pub use mode::{CheckMode, DEFAULT_CHECK_WINDOW};
pub use model::{assemble, CommittedTxn};

use chiller_obs::History;

/// Assemble and check a drained history in one step: the whole pipeline
/// behind a single call for the `Cluster` drain path.
pub fn check_history(history: &History, mode: CheckMode) -> CheckReport {
    check(&assemble(history), mode)
}
