//! Property-based mutation harness (ISSUE satellite 2): random *serial*
//! histories are always accepted, and minimally corrupting one — shifting
//! a single observed read version backward, or swapping the installed
//! versions of two adjacent writers of one record — is always rejected.
//!
//! The generator simulates a versioned key-value store executing randomly
//! generated transactions one at a time, so the ground-truth history is
//! serializable by construction; the mutations then re-introduce exactly
//! the observation a real lost update would produce.

use chiller_checker::{check_history, Anomaly, CheckMode};
use chiller_common::{NodeId, RecordId, TableId, TxnId};
use chiller_obs::{History, HistoryEvent, HistoryEventKind};
use proptest::prelude::*;
use std::collections::HashMap;

const KEYS: u64 = 8;

fn rid(k: u64) -> RecordId {
    RecordId::new(TableId(3), k)
}

/// One generated transaction: keys it reads, keys it read-modify-writes.
/// (RMW keys are read implicitly; duplicates dedupe at build time.)
#[derive(Debug, Clone)]
struct Spec {
    reads: Vec<u64>,
    rmws: Vec<u64>,
}

fn spec() -> impl Strategy<Value = Spec> {
    (
        prop::collection::vec(0u64..KEYS, 1..4),
        prop::collection::vec(0u64..KEYS, 0..3),
    )
        .prop_map(|(reads, mut rmws)| {
            rmws.sort_unstable();
            rmws.dedup();
            Spec { reads, rmws }
        })
}

/// Execute the specs serially against a versioned model store, emitting the
/// exact observation stream the engines would record.
fn serial_history(specs: &[Spec]) -> History {
    let mut versions: HashMap<u64, u64> = HashMap::new();
    let mut events = Vec::new();
    let mut ts = 0u64;
    for (i, s) in specs.iter().enumerate() {
        let txn = TxnId::new(NodeId(0), i as u64 + 1);
        let mut push = |kind| {
            ts += 1;
            events.push(HistoryEvent {
                ts,
                node: NodeId(0),
                kind,
            });
        };
        for &k in s.reads.iter().filter(|k| !s.rmws.contains(k)) {
            push(HistoryEventKind::ReadObs {
                txn,
                record: rid(k),
                version: versions.get(&k).copied().unwrap_or(0),
            });
        }
        for &k in &s.rmws {
            let v = versions.get(&k).copied().unwrap_or(0);
            push(HistoryEventKind::ReadObs {
                txn,
                record: rid(k),
                version: v,
            });
            versions.insert(k, v + 1);
            push(HistoryEventKind::WriteObs {
                txn,
                record: rid(k),
                version: v + 1,
            });
        }
        push(HistoryEventKind::Commit { txn });
    }
    History { events }
}

proptest! {
    /// Serial histories are serializable by construction: the checker must
    /// accept every one.
    #[test]
    fn serial_histories_always_accepted(specs in prop::collection::vec(spec(), 1..40)) {
        let h = serial_history(&specs);
        let report = check_history(&h, CheckMode::Full);
        prop_assert!(
            report.ok(),
            "serial history rejected: {:?}",
            report.violations
        );
        prop_assert!(report.is_complete());
    }

    /// Shift one RMW's observed read version back by one — the observation a
    /// lost update leaves behind (two writers consumed the same version) —
    /// and the checker must reject, classifying it as a lost update.
    #[test]
    fn stale_read_version_always_rejected(
        specs in prop::collection::vec(spec(), 2..40),
        pick in any::<u64>(),
    ) {
        let mut h = serial_history(&specs);
        // Candidate mutations: ReadObs with version ≥ 1 belonging to a txn
        // that also wrote the record (i.e. an RMW read of a non-initial
        // version, so another committed writer installed what we're about
        // to pretend we read).
        let writers: Vec<(TxnId, RecordId)> = h.events.iter().filter_map(|e| match e.kind {
            HistoryEventKind::WriteObs { txn, record, .. } => Some((txn, record)),
            _ => None,
        }).collect();
        let candidates: Vec<usize> = h.events.iter().enumerate().filter_map(|(i, e)| {
            match e.kind {
                HistoryEventKind::ReadObs { txn, record, version }
                    if version >= 1 && writers.contains(&(txn, record)) => Some(i),
                _ => None,
            }
        }).collect();
        if candidates.is_empty() {
            return Ok(()); // too little write contention generated; vacuous case
        }
        let idx = candidates[(pick % candidates.len() as u64) as usize];
        if let HistoryEventKind::ReadObs { ref mut version, .. } = h.events[idx].kind {
            *version -= 1;
        }
        let report = check_history(&h, CheckMode::Full);
        prop_assert!(!report.ok(), "stale RMW read must be rejected");
        prop_assert!(
            report.violations.iter().any(|v| v.anomaly == Anomaly::LostUpdate),
            "expected a lost-update cycle, got {:?}",
            report.violations
        );
    }

    /// Swap the installed versions of two adjacent writers of one record —
    /// the observation of a commit-order inversion — and the checker must
    /// reject: the version order now contradicts what the earlier writer read.
    #[test]
    fn swapped_install_order_always_rejected(
        specs in prop::collection::vec(spec(), 2..40),
        pick in any::<u64>(),
    ) {
        let mut h = serial_history(&specs);
        // Writer event indices per record, in version order (serial
        // execution emits them in increasing-version order already).
        let mut by_record: HashMap<RecordId, Vec<usize>> = HashMap::new();
        for (i, e) in h.events.iter().enumerate() {
            if let HistoryEventKind::WriteObs { record, .. } = e.kind {
                by_record.entry(record).or_default().push(i);
            }
        }
        let pairs: Vec<(usize, usize)> = by_record
            .values()
            .flat_map(|idxs| idxs.windows(2).map(|w| (w[0], w[1])))
            .collect();
        if pairs.is_empty() {
            return Ok(()); // no record written twice; vacuous case
        }
        let (a, b) = pairs[(pick % pairs.len() as u64) as usize];
        let (va, vb) = match (h.events[a].kind, h.events[b].kind) {
            (
                HistoryEventKind::WriteObs { version: va, .. },
                HistoryEventKind::WriteObs { version: vb, .. },
            ) => (va, vb),
            _ => unreachable!("pair indices point at writes"),
        };
        if let HistoryEventKind::WriteObs { ref mut version, .. } = h.events[a].kind {
            *version = vb;
        }
        if let HistoryEventKind::WriteObs { ref mut version, .. } = h.events[b].kind {
            *version = va;
        }
        let report = check_history(&h, CheckMode::Full);
        prop_assert!(
            !report.ok(),
            "swapped install order must be rejected (versions {va}<->{vb})"
        );
    }
}
