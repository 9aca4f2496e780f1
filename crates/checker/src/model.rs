//! Committed-transaction assembly from a drained observation stream.

use chiller_common::{RecordId, TxnId};
use chiller_obs::{History, HistoryEventKind};
use std::collections::HashMap;

/// One committed transaction's observable footprint: the versions it read
/// and the versions its writes installed, keyed by record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommittedTxn {
    /// Transaction id (unique per attempt; only committed attempts appear).
    pub txn: TxnId,
    /// Commit timestamp on the coordinator's clock, used only to order
    /// transactions into windows — dependency edges come from versions.
    pub commit_ts: u64,
    /// `(record, version observed)` for every read. Version 0 means the
    /// record's initial (loaded, never-written) state.
    pub reads: Vec<(RecordId, u64)>,
    /// `(record, version installed)` for every write, deletes included.
    pub writes: Vec<(RecordId, u64)>,
}

/// Group a drained history by transaction and keep only transactions with
/// a commit marker, sorted by `(commit_ts, txn)` so the output is
/// deterministic regardless of drain interleaving across engines.
///
/// Aborted attempts filter out for free: every attempt runs under a fresh
/// `TxnId`, and an attempt that never committed never emits
/// [`HistoryEventKind::Commit`], so its reads and writes are dropped here
/// — they never installed or leaked state a committed transaction could
/// depend on.
pub fn assemble(history: &History) -> Vec<CommittedTxn> {
    struct Partial {
        reads: Vec<(RecordId, u64)>,
        writes: Vec<(RecordId, u64)>,
        commit_ts: Option<u64>,
    }
    let mut by_txn: HashMap<TxnId, Partial> = HashMap::new();
    for ev in &history.events {
        let entry = by_txn.entry(ev.kind.txn()).or_insert_with(|| Partial {
            reads: Vec::new(),
            writes: Vec::new(),
            commit_ts: None,
        });
        match ev.kind {
            HistoryEventKind::ReadObs {
                record, version, ..
            } => entry.reads.push((record, version)),
            HistoryEventKind::WriteObs {
                record, version, ..
            } => entry.writes.push((record, version)),
            HistoryEventKind::Commit { .. } => entry.commit_ts = Some(ev.ts),
        }
    }
    let mut txns: Vec<CommittedTxn> = by_txn
        .into_iter()
        .filter_map(|(txn, p)| {
            let commit_ts = p.commit_ts?;
            let mut reads = p.reads;
            // Re-reads under a held lock observe the same version twice
            // (e.g. read_for_update + update of one record); exact
            // duplicates carry no extra information. Differing duplicates
            // are kept — an intra-transaction version change is precisely
            // the kind of inconsistency the edge builder must see.
            reads.sort_unstable();
            reads.dedup();
            Some(CommittedTxn {
                txn,
                commit_ts,
                reads,
                writes: p.writes,
            })
        })
        .collect();
    txns.sort_unstable_by_key(|t| (t.commit_ts, t.txn));
    txns
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiller_common::{NodeId, TableId};
    use chiller_obs::HistoryEvent;

    fn txn(seq: u64) -> TxnId {
        TxnId::new(NodeId(0), seq)
    }

    fn rid(k: u64) -> RecordId {
        RecordId::new(TableId(1), k)
    }

    fn ev(ts: u64, kind: HistoryEventKind) -> HistoryEvent {
        HistoryEvent {
            ts,
            node: NodeId(0),
            kind,
        }
    }

    #[test]
    fn aborted_attempts_drop_out() {
        let h = History {
            events: vec![
                ev(
                    1,
                    HistoryEventKind::ReadObs {
                        txn: txn(1),
                        record: rid(5),
                        version: 0,
                    },
                ),
                // txn 2 read but never committed (aborted attempt).
                ev(
                    2,
                    HistoryEventKind::ReadObs {
                        txn: txn(2),
                        record: rid(5),
                        version: 0,
                    },
                ),
                ev(
                    3,
                    HistoryEventKind::WriteObs {
                        txn: txn(1),
                        record: rid(5),
                        version: 1,
                    },
                ),
                ev(4, HistoryEventKind::Commit { txn: txn(1) }),
            ],
        };
        let txns = assemble(&h);
        assert_eq!(txns.len(), 1);
        assert_eq!(txns[0].txn, txn(1));
        assert_eq!(txns[0].commit_ts, 4);
        assert_eq!(txns[0].reads, vec![(rid(5), 0)]);
        assert_eq!(txns[0].writes, vec![(rid(5), 1)]);
    }

    #[test]
    fn duplicate_reads_dedupe_and_order_is_by_commit_ts() {
        let h = History {
            events: vec![
                ev(9, HistoryEventKind::Commit { txn: txn(2) }),
                ev(
                    1,
                    HistoryEventKind::ReadObs {
                        txn: txn(1),
                        record: rid(5),
                        version: 3,
                    },
                ),
                ev(
                    1,
                    HistoryEventKind::ReadObs {
                        txn: txn(1),
                        record: rid(5),
                        version: 3,
                    },
                ),
                ev(5, HistoryEventKind::Commit { txn: txn(1) }),
            ],
        };
        let txns = assemble(&h);
        assert_eq!(txns.len(), 2);
        assert_eq!(txns[0].txn, txn(1), "sorted by commit ts");
        assert_eq!(txns[0].reads.len(), 1, "exact duplicate reads dedupe");
    }
}
