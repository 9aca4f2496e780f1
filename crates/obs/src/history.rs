//! Recorded-history transport: the observation side of black-box
//! serializability checking (DESIGN.md §14).
//!
//! Engines record three kinds of observation — the version a committed
//! transaction *read* for each record, the version each of its writes
//! *installed*, and the commit itself — into a plain per-engine `Vec`.
//! The cluster drains every engine's log into a [`History`] while the
//! runtime is paused, and `chiller-checker` assembles it into committed
//! transactions and checks them for dependency cycles. There is no cap:
//! the accumulated history is O(history) anyway, so a per-engine cap
//! could only turn a verdict incomplete, never save memory.
//!
//! Aborted attempts need no filtering at record time: every attempt runs
//! under a fresh `TxnId`, so observations from attempts that never emit a
//! [`HistoryEventKind::Commit`] simply drop out at assembly.

use chiller_common::{NodeId, RecordId, TxnId};

/// One recorded observation. `ts` is nanoseconds on the owning runtime's
/// clock (virtual time on the simulator, monotonic wall time otherwise);
/// `node` is the engine that observed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistoryEvent {
    /// Clock timestamp in nanoseconds (sim-time or wall-time).
    pub ts: u64,
    /// Engine that recorded the observation.
    pub node: NodeId,
    /// What was observed.
    pub kind: HistoryEventKind,
}

/// The observation taxonomy: versioned reads, versioned writes, commits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistoryEventKind {
    /// The transaction read `record` and observed the state installed by
    /// its `version`-th committed write (0 = initial load, never written).
    ReadObs {
        /// Reading transaction.
        txn: TxnId,
        /// Record read.
        record: RecordId,
        /// Per-record version observed (see `PartitionStore::record_version`).
        version: u64,
    },
    /// The transaction's commit installed the `version`-th write of
    /// `record` (a delete counts: it installs a tombstone version).
    WriteObs {
        /// Writing transaction.
        txn: TxnId,
        /// Record written.
        record: RecordId,
        /// Per-record version this write installed.
        version: u64,
    },
    /// The transaction committed (recorded at its coordinator). Attempts
    /// without this event are aborts and drop out at assembly.
    Commit {
        /// Committed transaction.
        txn: TxnId,
    },
}

impl HistoryEventKind {
    /// The transaction this observation belongs to.
    pub fn txn(&self) -> TxnId {
        match *self {
            HistoryEventKind::ReadObs { txn, .. }
            | HistoryEventKind::WriteObs { txn, .. }
            | HistoryEventKind::Commit { txn } => txn,
        }
    }
}

/// Per-engine observation log. Owned by the engine actor so it moves with
/// the actor between phases and threads; the cluster drains it while the
/// runtime is paused.
#[derive(Debug)]
pub struct HistoryRecorder {
    enabled: bool,
    events: Vec<HistoryEvent>,
}

impl HistoryRecorder {
    /// A recorder that buffers observations iff `enabled` (checking on).
    /// Disabled, it allocates nothing and every record call is a branch
    /// on the flag.
    pub fn new(enabled: bool) -> HistoryRecorder {
        HistoryRecorder {
            enabled,
            events: Vec::new(),
        }
    }

    /// Whether observations are recorded at all. Hot paths gate the
    /// version lookup behind this so checking off costs one branch.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Buffer one observation (nothing when disabled).
    #[inline]
    pub fn record(&mut self, ts: u64, node: NodeId, kind: HistoryEventKind) {
        if self.enabled {
            self.events.push(HistoryEvent { ts, node, kind });
        }
    }

    /// Move every buffered observation into `history`. The buffer keeps
    /// its capacity.
    pub fn drain_into(&mut self, history: &mut History) {
        history.events.append(&mut self.events);
    }
}

/// All drained observations of a run, in per-engine push order (drain
/// order across engines is by node id; the checker groups by transaction,
/// so cross-engine interleaving is irrelevant).
#[derive(Debug, Default)]
pub struct History {
    /// Drained observations.
    pub events: Vec<HistoryEvent>,
}

impl History {
    /// Number of buffered observations.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiller_common::TableId;

    fn txn(node: u32, seq: u64) -> TxnId {
        TxnId::new(NodeId(node), seq)
    }

    fn rid(k: u64) -> RecordId {
        RecordId::new(TableId(1), k)
    }

    #[test]
    fn disabled_recorder_is_a_noop() {
        let mut r = HistoryRecorder::new(false);
        assert!(!r.enabled());
        r.record(1, NodeId(0), HistoryEventKind::Commit { txn: txn(0, 1) });
        let mut h = History::default();
        r.drain_into(&mut h);
        assert!(h.is_empty());
    }

    #[test]
    fn recorder_roundtrips_observations() {
        let mut r = HistoryRecorder::new(true);
        assert!(r.enabled());
        r.record(
            10,
            NodeId(1),
            HistoryEventKind::ReadObs {
                txn: txn(1, 3),
                record: rid(7),
                version: 2,
            },
        );
        r.record(
            20,
            NodeId(1),
            HistoryEventKind::WriteObs {
                txn: txn(1, 3),
                record: rid(7),
                version: 3,
            },
        );
        r.record(30, NodeId(1), HistoryEventKind::Commit { txn: txn(1, 3) });
        let mut h = History::default();
        r.drain_into(&mut h);
        assert_eq!(h.len(), 3);
        assert_eq!(h.events[0].kind.txn(), txn(1, 3));
        assert_eq!(
            h.events[2].kind,
            HistoryEventKind::Commit { txn: txn(1, 3) }
        );
    }
}
