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
//!    **WW** (version order), **RW** (anti-dependency) — over the whole
//!    history, runs one Tarjan SCC pass, and classifies one cycle per
//!    strongly connected component ([`Anomaly`]): a serializable history
//!    has an acyclic dependency graph, so any cycle is a violation.
//!
//! [`CheckMode`] is off or full: a check certifies the whole recorded
//! history or nothing. This crate reads no environment; `CHILLER_CHECK` is
//! parsed by `chiller`'s cluster builder.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod graph;
mod mode;
mod model;

pub use graph::{check, Anomaly, CheckReport, DepEdge, DepKind, Violation};
pub use mode::CheckMode;
pub use model::{assemble, CommittedTxn};

use chiller_obs::History;

/// Assemble and check a drained history in one step: the whole pipeline
/// behind a single call for the `Cluster` drain path.
pub fn check_history(history: &History, mode: CheckMode) -> CheckReport {
    check(&assemble(history), mode)
}
