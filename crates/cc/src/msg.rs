//! Protocol messages exchanged between engines.
//!
//! Verb classes (see `chiller-simnet`): lock/read/write-back/validation
//! messages model one-sided RDMA verbs (NIC-side, no remote CPU); inner
//! region delegation and replication are RPCs (remote engine CPU).

use chiller_common::ids::{OpId, PartitionId, RecordId, TxnId};
use chiller_common::value::Row;
use chiller_storage::lock::LockMode;

/// One item of a combined lock+read request (2PL / Chiller outer region).
#[derive(Debug, Clone)]
pub struct LockReadItem {
    pub op: OpId,
    pub record: RecordId,
    pub mode: LockMode,
    /// Whether the op needs the current row back (reads and updates do;
    /// inserts and deletes only need the lock).
    pub want_row: bool,
    /// Whether a missing record is acceptable (insert target) vs an error.
    pub expect_absent: bool,
}

/// One item of an OCC (lock-free) read.
#[derive(Debug, Clone)]
pub struct OccReadItem {
    pub op: OpId,
    pub record: RecordId,
    pub want_row: bool,
}

/// A buffered write shipped at commit time.
#[derive(Debug, Clone)]
pub struct WriteItem {
    pub record: RecordId,
    pub kind: WriteKind,
}

#[derive(Debug, Clone)]
pub enum WriteKind {
    /// Overwrite with the row (updates).
    Put(Row),
    /// Insert a fresh record.
    Insert(Row),
    /// Remove the record.
    Delete,
}

impl WriteKind {
    /// The redo-log operation this write becomes in a WAL record.
    pub(crate) fn to_redo_op(&self) -> chiller_storage::wal::RedoOp {
        match self {
            WriteKind::Put(row) => chiller_storage::wal::RedoOp::Put(row.clone()),
            WriteKind::Insert(row) => chiller_storage::wal::RedoOp::Insert(row.clone()),
            WriteKind::Delete => chiller_storage::wal::RedoOp::Delete,
        }
    }
}

/// Validation item for OCC: the version observed at read time.
#[derive(Debug, Clone, Copy)]
pub struct ValidateItem {
    pub record: RecordId,
    pub version: u64,
    /// True when the transaction wrote this record (needs a write latch and
    /// blocks concurrent validators); false for read-set entries.
    pub is_write: bool,
}

/// All protocol messages.
#[derive(Debug, Clone)]
pub enum Msg {
    // ---- 2PL / Chiller outer region (one-sided verbs) -------------------
    /// Combined CAS-lock + READ of a batch of records on one partition.
    /// `req` correlates the response with the coordinator's wave bookkeeping.
    LockRead {
        txn: TxnId,
        req: u64,
        items: Vec<LockReadItem>,
    },
    /// Reply: on failure every item in *this* message is already released.
    LockReadResp {
        txn: TxnId,
        req: u64,
        granted: bool,
        /// An existence precondition failed (treated as a non-retryable
        /// logic failure).
        missing: bool,
        /// The conflict came from a stale-routing race (the record migrated
        /// away after the coordinator resolved its placement), not a held
        /// lock — distinguishes the abort-reason taxonomy entries.
        stale: bool,
        /// `(op, row)` for granted `want_row` items.
        rows: Vec<(OpId, Row)>,
    },
    /// WRITE-back + unlock at commit (prepare piggybacked — Figure 3a).
    CommitOuter {
        txn: TxnId,
        writes: Vec<WriteItem>,
        unlocks: Vec<RecordId>,
    },
    CommitOuterAck {
        txn: TxnId,
    },
    /// Release locks without applying anything (abort path).
    AbortOuter {
        txn: TxnId,
        unlocks: Vec<RecordId>,
    },

    // ---- Chiller inner region (RPCs) -------------------------------------
    /// Delegate the inner region to the inner host (§3.3 step 4).
    ExecInner {
        txn: TxnId,
        proc: usize,
        params: Vec<chiller_common::value::Value>,
        /// Outputs of already-executed outer ops the inner region needs.
        outer_outputs: Vec<(OpId, Row)>,
        inner_ops: Vec<OpId>,
        /// Indices into the procedure's guards that the inner host must
        /// check before committing.
        inner_guards: Vec<usize>,
    },
    /// Inner host's unilateral decision (§3.3 step 4 → 5).
    InnerResult {
        txn: TxnId,
        committed: bool,
        /// Outputs of inner ops the coordinator's outer phase-2 needs.
        outputs: Vec<(OpId, Row)>,
        /// On failure: was it a lock conflict (retryable) or a guard
        /// violation (final)?
        retryable: bool,
        /// A retryable failure caused by a stale split (the record migrated
        /// off this host after admission), not a held lock.
        stale: bool,
    },

    // ---- Replication (§5) -------------------------------------------------
    /// Primary → replica: apply these writes for partition `partition`.
    Replicate {
        txn: TxnId,
        partition: PartitionId,
        writes: Vec<WriteItem>,
        /// Inner-region replication must ack the coordinator (§5, Figure 6).
        ack_coordinator: bool,
    },
    /// Replica → coordinator ack for inner-region replication.
    ReplicateAck {
        txn: TxnId,
    },

    // ---- Live migration (adaptive repartitioning) -------------------------
    /// Destination → source: CAS-lock the record's bucket at the source and
    /// read its row — the same one-sided combination a lock+read wave uses,
    /// so migrations contend with transactions under plain NO_WAIT rules.
    MigrateLock {
        txn: TxnId,
        record: RecordId,
    },
    MigrateLockResp {
        txn: TxnId,
        granted: bool,
        /// The record no longer exists at the source (stale plan): the
        /// destination abandons the move instead of retrying.
        missing: bool,
        /// The current row, when granted.
        row: Option<Row>,
        /// The record's per-record version at the source when granted, so
        /// the destination install continues the same version chain (the
        /// serializability checker needs one monotone chain per record
        /// across migrations; see `PartitionStore::insert_migrated`).
        version: u64,
    },
    /// Destination → source after the re-publish flip: delete the source
    /// copy, release the migration lock, and replicate the deletion.
    MigrateFinish {
        txn: TxnId,
        record: RecordId,
    },
    MigrateFinishAck {
        txn: TxnId,
    },

    // ---- OCC --------------------------------------------------------------
    /// Lock-free versioned read (one-sided).
    OccRead {
        txn: TxnId,
        req: u64,
        items: Vec<OccReadItem>,
    },
    OccReadResp {
        txn: TxnId,
        req: u64,
        /// `(op, row, version)`; missing records yield an empty row marker.
        rows: Vec<(OpId, Option<Row>, u64)>,
    },
    /// Parallel validation: latch write set, check read versions.
    OccValidate {
        txn: TxnId,
        items: Vec<ValidateItem>,
    },
    OccValidateResp {
        txn: TxnId,
        ok: bool,
    },
    /// Second round: apply writes + release latches (or just release).
    OccDecide {
        txn: TxnId,
        commit: bool,
        writes: Vec<WriteItem>,
        /// Latches taken by the validate round that must be dropped.
        latched: Vec<RecordId>,
    },
    OccDecideAck {
        txn: TxnId,
    },
}

impl Msg {
    /// The transaction this message belongs to (all messages are per-txn).
    pub fn txn(&self) -> TxnId {
        match self {
            Msg::LockRead { txn, .. }
            | Msg::LockReadResp { txn, .. }
            | Msg::CommitOuter { txn, .. }
            | Msg::CommitOuterAck { txn }
            | Msg::AbortOuter { txn, .. }
            | Msg::ExecInner { txn, .. }
            | Msg::InnerResult { txn, .. }
            | Msg::Replicate { txn, .. }
            | Msg::ReplicateAck { txn }
            | Msg::MigrateLock { txn, .. }
            | Msg::MigrateLockResp { txn, .. }
            | Msg::MigrateFinish { txn, .. }
            | Msg::MigrateFinishAck { txn }
            | Msg::OccRead { txn, .. }
            | Msg::OccReadResp { txn, .. }
            | Msg::OccValidate { txn, .. }
            | Msg::OccValidateResp { txn, .. }
            | Msg::OccDecide { txn, .. }
            | Msg::OccDecideAck { txn } => *txn,
        }
    }

    /// Short snake_case label naming the message kind — the hop label in
    /// trace-event exports.
    pub fn kind_label(&self) -> &'static str {
        match self {
            Msg::LockRead { .. } => "lock_read",
            Msg::LockReadResp { .. } => "lock_read_resp",
            Msg::CommitOuter { .. } => "commit_outer",
            Msg::CommitOuterAck { .. } => "commit_outer_ack",
            Msg::AbortOuter { .. } => "abort_outer",
            Msg::ExecInner { .. } => "exec_inner",
            Msg::InnerResult { .. } => "inner_result",
            Msg::Replicate { .. } => "replicate",
            Msg::ReplicateAck { .. } => "replicate_ack",
            Msg::MigrateLock { .. } => "migrate_lock",
            Msg::MigrateLockResp { .. } => "migrate_lock_resp",
            Msg::MigrateFinish { .. } => "migrate_finish",
            Msg::MigrateFinishAck { .. } => "migrate_finish_ack",
            Msg::OccRead { .. } => "occ_read",
            Msg::OccReadResp { .. } => "occ_read_resp",
            Msg::OccValidate { .. } => "occ_validate",
            Msg::OccValidateResp { .. } => "occ_validate_resp",
            Msg::OccDecide { .. } => "occ_decide",
            Msg::OccDecideAck { .. } => "occ_decide_ack",
        }
    }

    /// Verb class for the network model.
    pub fn verb(&self) -> chiller_simnet::Verb {
        use chiller_simnet::Verb;
        match self {
            // One-sided verbs: lock words, reads, write-backs, validation
            // latches — all NIC-side in a NAM-DB design.
            Msg::LockRead { .. }
            | Msg::LockReadResp { .. }
            | Msg::CommitOuter { .. }
            | Msg::CommitOuterAck { .. }
            | Msg::AbortOuter { .. }
            | Msg::OccRead { .. }
            | Msg::OccReadResp { .. }
            | Msg::OccValidate { .. }
            | Msg::OccValidateResp { .. }
            | Msg::OccDecide { .. }
            | Msg::OccDecideAck { .. }
            | Msg::ReplicateAck { .. }
            | Msg::MigrateLock { .. }
            | Msg::MigrateLockResp { .. }
            | Msg::MigrateFinish { .. }
            | Msg::MigrateFinishAck { .. }
            | Msg::InnerResult { .. } => Verb::OneSided,
            // RPCs that consume remote engine CPU.
            Msg::ExecInner { .. } | Msg::Replicate { .. } => Verb::Rpc,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiller_common::ids::NodeId;
    use chiller_simnet::Verb;

    #[test]
    fn txn_extraction_covers_variants() {
        let t = TxnId::new(NodeId(1), 7);
        let msgs = vec![
            Msg::LockRead {
                txn: t,
                req: 0,
                items: vec![],
            },
            Msg::CommitOuterAck { txn: t },
            Msg::ReplicateAck { txn: t },
            Msg::OccDecideAck { txn: t },
            Msg::MigrateLock {
                txn: t,
                record: chiller_common::ids::RecordId::new(chiller_common::ids::TableId(1), 7),
            },
            Msg::MigrateFinishAck { txn: t },
        ];
        for m in msgs {
            assert_eq!(m.txn(), t);
        }
    }

    #[test]
    fn verb_classes() {
        let t = TxnId::new(NodeId(0), 1);
        assert_eq!(
            Msg::LockRead {
                txn: t,
                req: 0,
                items: vec![]
            }
            .verb(),
            Verb::OneSided
        );
        assert_eq!(
            Msg::Replicate {
                txn: t,
                partition: chiller_common::ids::PartitionId(0),
                writes: vec![],
                ack_coordinator: false
            }
            .verb(),
            Verb::Rpc
        );
        assert_eq!(
            Msg::ExecInner {
                txn: t,
                proc: 0,
                params: vec![],
                outer_outputs: vec![],
                inner_ops: vec![],
                inner_guards: vec![],
            }
            .verb(),
            Verb::Rpc
        );
    }
}
