//! Crash injection and checker-certified recovery (DESIGN.md §15).
//!
//! The crash model is **kill at a flush boundary**: [`crate::Cluster::kill`]
//! pauses the runtime, flushes every engine's redo log, drains the
//! engines' trace and history logs, and drops the cluster without checkpointing. The
//! next [`crate::ClusterBuilder::build`] against the same durable directory
//! finds the logs and runs the recovery protocol in `recover`. Torn-write
//! realism (a crash mid-`write(2)`) is covered separately at the codec
//! layer: `Wal::open` truncates any partial tail frame, and the proptests
//! in `chiller-storage` cut logs at every byte offset.
//!
//! Recovery runs over the per-node state builders already hold — primary
//! stores (freshly loaded with the workload's initial rows), replica
//! stores, decoded checkpoints — and one [`WalReader`] per node's log, so it
//! runs before any engine actor exists and needs no runtime. It never holds
//! a decoded log: records stream through a bounded buffer, and what it
//! remembers is one small entry per transaction that is still *open* in the
//! logs. Its memory therefore follows what was in flight at the crash, not
//! how long the cluster had been up.
//!
//! 1. **checkpoint replace** — a node with a checkpoint restores it over
//!    the initial load (the snapshot carries the complete version map);
//! 2. **redo replay** — each `Redo` record applies version-exactly and
//!    idempotently (`PartitionStore::apply_redo`) the moment the scan
//!    reads it, and is then dropped. One log is always read in log order,
//!    which equals apply order because writers held exclusive
//!    locks/latches from read to apply; logs of different nodes touch
//!    different stores, so how their reads interleave cannot matter here;
//! 3. **in-doubt resolution** — for every transaction the scan left open
//!    (below), in ascending `TxnId` order, the *last* `Decide` in its
//!    coordinator's log wins. `pending_inner: None` is a final commit
//!    decision; `pending_inner: Some(p)` is provisional and resolves
//!    against partition `p`'s log: the transaction committed iff that log
//!    carries `InnerCommit` — the inner host's unilateral commit IS the
//!    decision for two-region transactions (paper §3.3). Without either,
//!    the attempt aborted and left nothing to undo (writes are buffered at
//!    the coordinator until the decision);
//! 4. **repair** — a committed transaction's `DecideWrite` is applied at
//!    its home partition unless that partition's own log already has a
//!    `Redo` covering the same `(txn, record)` (the participant applied
//!    and logged atomically). **Acked transactions are repaired too**: an
//!    `Ack` says every participant applied, not that every participant's
//!    redo reached its disk, so an acked transaction with an uncovered
//!    write stays open and is treated like an unacked one. Only here is a
//!    `Decide` body read back — one seek per transaction that has
//!    something to repair or an unacked commit to report. Repairs are safe
//!    to apply *after* replay: a participant that never applied the write
//!    still held the transaction's exclusive lock at the crash, so no
//!    later committed writer to that record can exist in its log;
//! 5. **re-home** — records found on a partition the restart placement
//!    does not route to them (live migrations completed before the crash)
//!    move back to their placement home, version chain intact, so routing
//!    is consistent from the first post-restart transaction;
//! 6. **replica re-sync** — every replica store is rebuilt from its
//!    recovered primary, which subsumes replaying replication traffic.
//!
//! **The open-transaction map.** Beside replaying redo, the scan keeps per
//! transaction: where its last `Decide` sits (log and byte offset) and
//! whether that one is final or waits on an inner host; the
//! `(partition, record)` pairs it lists; the pairs some partition's own
//! log has covered with a `Redo`; where `InnerCommit` was seen; whether it
//! was acked. No rows, no procedure name. An entry dies the moment its
//! transaction is **settled** — acked, finally decided, every decided
//! write covered, and (two-region) the inner host's `InnerCommit` read —
//! because from then on no log can say anything about it that steps 3–4
//! would act on. It also dies at an `Abort` mark, which the coordinator
//! appends when it gives up an attempt whose provisional `Decide` is
//! already logged. A drained log therefore leaves the map empty, and a
//! crashed one leaves the transactions that were in flight.
//!
//! Which log to read next comes from the records themselves. A `Redo` or
//! `InnerCommit` whose transaction has no `Decide` yet means the
//! coordinator's log is behind; an `Ack` whose transaction still lacks a
//! redo or the inner commit means that participant's log is behind (both
//! were logged before the record just read). The scan switches to the
//! lagging log, and otherwise keeps reading the lowest-numbered unfinished
//! one. The order is what keeps the map small; the outcome does not depend
//! on it, given what the commit path guarantees: a transaction's `Decide`s,
//! `Ack` and `Abort` are all in its coordinator's log, and nothing of it
//! follows the `Ack` or the `Abort` there.
//!
//! The builder then writes a fresh checkpoint per node, truncates the
//! logs, and bumps the epoch file; engines start their transaction
//! sequence at `epoch << 32` so post-restart `TxnId`s can never collide
//! with pre-crash ones (read-only transactions leave no log trace, so
//! scanning for the max used sequence would not suffice).
//!
//! [`RecoveryReport`] says what the scan cost (`records_scanned`,
//! `log_bytes_scanned`) and what bounded it (`open_txns_hwm`). The
//! whole-log recovery this replaced survives in this module's tests as the
//! reference a property test drives the streaming one against.

use chiller_common::ids::{PartitionId, RecordId, TxnId};
use chiller_common::time::Duration;
use chiller_common::value::Row;
use chiller_obs::History;
use chiller_storage::placement::Placement;
use chiller_storage::store::PartitionStore;
use chiller_storage::wal::{RedoOp, WalReader, WalRecord};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::io::{self, Read, Seek};

/// Deterministic mid-run kill points for the crash-injection harness.
///
/// The plan is pure (seed in, offsets out): the same seed produces the
/// same kill schedule on every backend, and the points land in the middle
/// 20%–80% of the run window so the cluster dies under load rather than
/// at the edges.
#[derive(Debug, Clone, Copy)]
pub struct CrashPlan {
    pub seed: u64,
}

impl CrashPlan {
    pub fn new(seed: u64) -> Self {
        CrashPlan { seed }
    }

    /// Kill offset for crash `i` within a window of length `window`.
    pub fn kill_point(&self, i: u32, window: Duration) -> Duration {
        let h = splitmix64(self.seed ^ ((u64::from(i) + 1) << 32));
        // Map to [0.2, 0.8) of the window.
        let frac = 0.2 + 0.6 * ((h >> 11) as f64 / (1u64 << 53) as f64);
        Duration::from_nanos((window.as_nanos() as f64 * frac) as u64)
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// What [`crate::Cluster::kill`] hands back: everything the pre-crash
/// incarnation acked, for certifying the recovered one against.
pub struct CrashSnapshot {
    /// The full drained observation history up to the kill (empty when
    /// checking was off). Checking it with `chiller_checker` certifies
    /// the pre-crash execution; its commit markers are the acked set the
    /// recovered state must contain.
    pub history: History,
    /// Commits acked before the kill, per procedure name.
    pub commits_by_proc: BTreeMap<String, u64>,
    /// Total commits acked before the kill.
    pub total_commits: u64,
}

/// What recovery found and did, per [`crate::ClusterBuilder::build`] on a
/// durable directory with surviving state.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Restart epoch (1 for the first recovery); engines mint `TxnId`s
    /// from `epoch << 32`.
    pub epoch: u64,
    /// Nodes restored from a checkpoint before replay.
    pub checkpoints_restored: usize,
    /// Log records scanned across all nodes (each frame once, however
    /// often recovery reads it).
    pub records_scanned: u64,
    /// Bytes of valid log those records occupy, across all nodes.
    pub log_bytes_scanned: u64,
    /// Most transactions recovery tracked at once while scanning — what
    /// its memory follows, instead of the length of the logs.
    pub open_txns_hwm: u64,
    /// Redo writes applied during replay (idempotent skips excluded).
    pub writes_replayed: u64,
    /// Decided transactions with no `Ack` in the log (resolution ran).
    pub in_doubt: u64,
    /// In-doubt transactions resolved as committed.
    pub in_doubt_committed: u64,
    /// In-doubt transactions resolved as aborted (provisional decision,
    /// no `InnerCommit` at the inner host).
    pub in_doubt_aborted: u64,
    /// Writes of committed transactions applied at participants whose own
    /// log never recorded them.
    pub writes_repaired: u64,
    /// Records moved back to their placement home (completed live
    /// migrations whose directory state died with the control plane).
    pub records_rehomed: u64,
    /// Commits recovered without an `Ack`, per procedure name — these
    /// never counted in the pre-crash metrics, so commit-counting
    /// invariants (SmallBank conservation) must accept them as extras.
    pub recovered_unacked: BTreeMap<String, u64>,
}

impl RecoveryReport {
    /// Total commits recovered that the pre-crash run never acked.
    pub fn total_recovered_unacked(&self) -> u64 {
        self.recovered_unacked.values().sum()
    }
}

impl fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "recovery epoch {}: {} checkpoints, {} records scanned ({} bytes, at most {} \
             transactions open), {} writes replayed, \
             {} in-doubt ({} committed / {} aborted), {} repaired, {} re-homed, {} unacked commits recovered",
            self.epoch,
            self.checkpoints_restored,
            self.records_scanned,
            self.log_bytes_scanned,
            self.open_txns_hwm,
            self.writes_replayed,
            self.in_doubt,
            self.in_doubt_committed,
            self.in_doubt_aborted,
            self.writes_repaired,
            self.records_rehomed,
            self.total_recovered_unacked(),
        )
    }
}

/// One transaction the scan has read something of and cannot yet forget:
/// everything resolution needs except the `Decide` body, which stays on
/// disk until (and unless) resolution asks for it.
#[derive(Default)]
struct OpenTxn {
    /// The last `Decide` read: which log, at what byte, and the inner host
    /// it waits on if provisional.
    decide: Option<(usize, u64, Option<PartitionId>)>,
    /// The writes that `Decide` lists, as `(partition, record)`.
    decided: Vec<(PartitionId, RecordId)>,
    /// The writes some partition's own log covers with a `Redo`.
    redone: Vec<(PartitionId, RecordId)>,
    /// Partitions whose log carries `InnerCommit`.
    inner_commits: Vec<PartitionId>,
    /// Inner host of the latest provisional `Decide`, remembered after a
    /// final one supersedes it.
    inner_host: Option<PartitionId>,
    acked: bool,
    /// The coordinator closed it with an `Abort` mark.
    aborted: bool,
}

/// Where the scan stands with a transaction after reading one more record
/// of it.
enum Outlook {
    /// Nothing left for recovery to do and nothing more any log can say:
    /// aborted by its coordinator, or acked, finally decided, every
    /// decided write covered by a redo in its partition's own log, and
    /// the inner host's records read.
    Settled,
    /// A record that was logged before one already read is still unread,
    /// in this node's log.
    Behind(usize),
    /// Open, and what it waits for comes later in the logs, if at all.
    Open,
}

impl OpenTxn {
    fn covers(&self, nodes: usize, w: &(PartitionId, RecordId)) -> bool {
        w.0.idx() >= nodes || self.redone.contains(w)
    }

    fn uncovered(&self, nodes: usize) -> Option<&(PartitionId, RecordId)> {
        self.decided.iter().find(|w| !self.covers(nodes, w))
    }

    fn outlook(&self, txn: TxnId, nodes: usize) -> Outlook {
        if self.aborted {
            return Outlook::Settled;
        }
        let Some((_, _, pending_inner)) = self.decide else {
            // A participant's record read ahead of the Decide that caused it.
            return Outlook::Behind(txn.coordinator().idx());
        };
        if !self.acked {
            return Outlook::Open;
        }
        // The Ack is the last record a transaction logs anywhere, so
        // whatever is missing now was logged before it — or was lost.
        if let Some(w) = self.uncovered(nodes) {
            return Outlook::Behind(w.0.idx());
        }
        // A two-region transaction stays until its inner host's
        // `InnerCommit` (and so the redo just before it) has gone by;
        // dropped earlier, those records would re-open it for good.
        match self.inner_host {
            Some(h) if !self.inner_commits.contains(&h) => Outlook::Behind(h.idx()),
            _ if pending_inner.is_none() => Outlook::Settled,
            _ => Outlook::Open,
        }
    }
}

/// Run steps 2–6 of the recovery protocol (checkpoint restore, step 1,
/// happens in the builder before this call because it owns the snapshot
/// buffers). `logs[n]` reads node `n`'s log. See the module docs for the
/// protocol and its soundness argument.
pub(crate) fn recover<R: Read + Seek>(
    primaries: &mut [PartitionStore],
    replicas: &mut [HashMap<PartitionId, PartitionStore>],
    logs: &mut [WalReader<R>],
    placement: &dyn Placement,
    report: &mut RecoveryReport,
) -> io::Result<()> {
    let nodes = primaries.len();
    // Scan: replay redo as it streams by and keep an entry per transaction
    // only while it is open. Which log to read next is taken from the
    // records themselves — when one shows that another log is behind, that
    // log is read until it has caught up — so the records of a transaction
    // are read close together however the logs' lengths compare. The order
    // decides how many entries are open at once, never the outcome.
    let mut open: HashMap<TxnId, OpenTxn> = HashMap::new();
    let mut unread: Vec<usize> = (0..nodes).collect();
    let mut behind = None;
    while let Some(n) = behind.take().or(unread.first().copied()) {
        let home = PartitionId(n as u32);
        loop {
            let at = logs[n].position();
            let Some(rec) = logs[n].next_record()? else {
                unread.retain(|&l| l != n);
                break;
            };
            report.records_scanned += 1;
            let txn = rec.txn();
            let entry = open.entry(txn).or_default();
            match rec {
                WalRecord::Redo { writes, .. } => {
                    for w in writes {
                        if !entry.redone.contains(&(home, w.record)) {
                            entry.redone.push((home, w.record));
                        }
                        if primaries[n].apply_redo(w) {
                            report.writes_replayed += 1;
                        }
                    }
                }
                WalRecord::Decide {
                    pending_inner,
                    writes,
                    ..
                } => {
                    entry.decide = Some((n, at, pending_inner));
                    entry.inner_host = pending_inner.or(entry.inner_host);
                    entry.decided.clear();
                    entry
                        .decided
                        .extend(writes.iter().map(|w| (w.partition, w.record)));
                }
                WalRecord::InnerCommit { .. } => entry.inner_commits.push(home),
                WalRecord::Ack { .. } => entry.acked = true,
                WalRecord::Abort { .. } => entry.aborted = true,
            }
            let outlook = entry.outlook(txn, nodes);
            report.open_txns_hwm = report.open_txns_hwm.max(open.len() as u64);
            match outlook {
                Outlook::Settled => {
                    open.remove(&txn);
                }
                Outlook::Behind(l) if l != n && unread.contains(&l) => {
                    behind = Some(l);
                    break;
                }
                _ => {}
            }
        }
    }
    report.log_bytes_scanned = logs.iter().map(WalReader::position).sum();

    // Resolve what is still open, in ascending transaction order so
    // recovery itself is reproducible. Only now are `Decide` bodies read
    // back, and only those of transactions with something to repair or
    // to report.
    let mut unresolved: Vec<(TxnId, OpenTxn)> = open
        .into_iter()
        .filter(|(_, t)| t.decide.is_some())
        .collect();
    unresolved.sort_unstable_by_key(|(txn, _)| *txn);
    for (txn, t) in unresolved {
        let (n, at, pending_inner) = t.decide.expect("filtered on a decision");
        let committed = pending_inner.is_none_or(|p| t.inner_commits.contains(&p));
        if !t.acked {
            report.in_doubt += 1;
            if !committed {
                report.in_doubt_aborted += 1;
            }
        }
        // An acked transaction always has a final decision in the log (the
        // Ack is appended after it, same engine); a provisional decision
        // surviving as the last one implies no Ack.
        if !committed || (t.acked && t.uncovered(nodes).is_none()) {
            continue;
        }
        let Some(WalRecord::Decide { proc, writes, .. }) = logs[n].record_at(at)? else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("log {n} changed during recovery: no Decide for {txn:?} at byte {at}"),
            ));
        };
        for w in writes {
            if t.covers(nodes, &(w.partition, w.record)) {
                continue;
            }
            // The participant never applied this write (no redo logged):
            // apply it now with a natural version bump — its lock was
            // still held at the crash, so no later writer exists here.
            let store = &mut primaries[w.partition.idx()];
            match w.op {
                RedoOp::Put(row) | RedoOp::Insert(row) => store.write(w.record, row),
                RedoOp::Delete => {
                    let _ = store.delete(w.record);
                }
            }
            report.writes_repaired += 1;
        }
        if !t.acked {
            report.in_doubt_committed += 1;
            *report.recovered_unacked.entry(proc).or_insert(0) += 1;
        }
    }

    rehome_and_resync(primaries, replicas, placement, report);
    Ok(())
}

/// Steps 5–6: move records back to their placement home, then rebuild
/// every replica from its recovered primary.
fn rehome_and_resync(
    primaries: &mut [PartitionStore],
    replicas: &mut [HashMap<PartitionId, PartitionStore>],
    placement: &dyn Placement,
    report: &mut RecoveryReport,
) {
    let nodes = primaries.len();
    // Re-home records that completed a live migration before the
    // crash. The adaptive directory died with the control plane, so the
    // restart routes by the base placement; a record left at its
    // migration destination would be unreachable (and its absence at the
    // placement home would read as a logic fault, not a conflict).
    let mut moves: Vec<(usize, usize, RecordId, Row, u64)> = Vec::new();
    for (n, store) in primaries.iter().enumerate() {
        for (table, ts) in store.tables() {
            for (key, row) in ts.iter() {
                let rid = RecordId::new(*table, *key);
                let home = placement.partition_of(rid).idx();
                if home != n && home < nodes {
                    moves.push((n, home, rid, row.clone(), store.record_version(rid)));
                }
            }
        }
    }
    for (from, home, rid, row, version) in moves {
        let _ = primaries[from].delete(rid);
        primaries[home].write(rid, row);
        // Continue the migrated chain exactly: the carried version is the
        // highest this record ever committed anywhere.
        primaries[home].set_record_version(rid, version);
        report.records_rehomed += 1;
    }

    // Replica re-sync from the recovered primaries — byte-for-byte
    // copies, subsuming any replication traffic the crash swallowed.
    let snapshots: Vec<_> = primaries.iter().map(PartitionStore::snapshot).collect();
    for holder in replicas.iter_mut() {
        for (p, store) in holder.iter_mut() {
            store.restore(&snapshots[p.idx()]);
        }
    }
}

#[cfg(test)]
#[path = "../../storage/tests/gen/mod.rs"]
mod gen;

#[cfg(test)]
mod tests {
    use super::*;
    use chiller_common::ids::{NodeId, TableId};
    use chiller_common::value::Value;
    use chiller_storage::schema::{Schema, TableDef};
    use chiller_storage::wal::{DecideWrite, RedoWrite};
    use proptest::prelude::*;
    use std::collections::HashSet;
    use std::io::Cursor;

    #[test]
    fn kill_points_are_deterministic_and_mid_window() {
        let plan = CrashPlan::new(42);
        let w = Duration::from_millis(100);
        let a = plan.kill_point(0, w);
        let b = plan.kill_point(0, w);
        assert_eq!(a, b);
        let lo = Duration::from_millis(20);
        let hi = Duration::from_millis(80);
        for i in 0..16 {
            let k = plan.kill_point(i, w);
            assert!(k >= lo && k < hi, "kill point {k:?} outside [20ms, 80ms)");
        }
        // Different seeds give different schedules.
        assert_ne!(
            CrashPlan::new(1).kill_point(0, w),
            CrashPlan::new(2).kill_point(0, w)
        );
    }

    /// The recovery this module shipped before it streamed, kept as the
    /// reference the streaming one is checked against: every node's whole
    /// decoded log in memory, indexed, then resolved. It knows nothing of
    /// scan order, open transactions or byte offsets.
    fn recover_whole_logs(
        primaries: &mut [PartitionStore],
        replicas: &mut [HashMap<PartitionId, PartitionStore>],
        logs: &[Vec<WalRecord>],
        placement: &dyn Placement,
        report: &mut RecoveryReport,
    ) {
        let nodes = primaries.len();
        let mut redo_writes: Vec<HashSet<(TxnId, RecordId)>> = vec![HashSet::new(); nodes];
        let mut inner_commits: Vec<HashSet<TxnId>> = vec![HashSet::new(); nodes];
        let mut last_decide: BTreeMap<TxnId, (usize, usize)> = BTreeMap::new();
        let mut acked: HashSet<TxnId> = HashSet::new();
        let mut aborted: HashSet<TxnId> = HashSet::new();
        for (n, log) in logs.iter().enumerate() {
            for (i, rec) in log.iter().enumerate() {
                report.records_scanned += 1;
                match rec {
                    WalRecord::Redo { txn, writes } => {
                        for w in writes {
                            redo_writes[n].insert((*txn, w.record));
                            if primaries[n].apply_redo(w.clone()) {
                                report.writes_replayed += 1;
                            }
                        }
                    }
                    WalRecord::Decide { txn, .. } => {
                        last_decide.insert(*txn, (n, i));
                    }
                    WalRecord::InnerCommit { txn } => {
                        inner_commits[n].insert(*txn);
                    }
                    WalRecord::Ack { txn } => {
                        acked.insert(*txn);
                    }
                    WalRecord::Abort { txn } => {
                        aborted.insert(*txn);
                    }
                }
            }
        }
        for (txn, (n, i)) in last_decide {
            let WalRecord::Decide {
                proc,
                pending_inner,
                writes,
                ..
            } = &logs[n][i]
            else {
                unreachable!("indexed a non-Decide record");
            };
            if aborted.contains(&txn) {
                continue;
            }
            let was_acked = acked.contains(&txn);
            let committed = match pending_inner {
                None => true,
                Some(p) => inner_commits.get(p.idx()).is_some_and(|s| s.contains(&txn)),
            };
            if !was_acked {
                report.in_doubt += 1;
                if !committed {
                    report.in_doubt_aborted += 1;
                }
            }
            if !committed {
                continue;
            }
            for w in writes {
                let p = w.partition.idx();
                if p >= nodes || redo_writes[p].contains(&(txn, w.record)) {
                    continue;
                }
                match &w.op {
                    RedoOp::Put(row) | RedoOp::Insert(row) => {
                        primaries[p].write(w.record, row.clone());
                    }
                    RedoOp::Delete => {
                        let _ = primaries[p].delete(w.record);
                    }
                }
                report.writes_repaired += 1;
            }
            if !was_acked {
                report.in_doubt_committed += 1;
                *report.recovered_unacked.entry(proc.clone()).or_insert(0) += 1;
            }
        }
        rehome_and_resync(primaries, replicas, placement, report);
    }

    const NODES: usize = 3;
    const TABLE: TableId = TableId(1);
    /// Keys from here up live one partition past their placement home, as
    /// a finished migration leaves them.
    const MIGRATED: u64 = 1000 * NODES as u64;

    struct ModPlacement;

    impl Placement for ModPlacement {
        fn partition_of(&self, record: RecordId) -> PartitionId {
            PartitionId((record.key % NODES as u64) as u32)
        }
    }

    /// The key of slot `slot` as written at partition `p`.
    fn key_at(p: usize, slot: u64, migrated: bool) -> u64 {
        if migrated {
            MIGRATED + slot * NODES as u64 + ((p + NODES - 1) % NODES) as u64
        } else {
            slot * NODES as u64 + p as u64
        }
    }

    type Stores = (
        Vec<PartitionStore>,
        Vec<HashMap<PartitionId, PartitionStore>>,
    );

    /// Three loaded partitions, each replicated on its successor.
    fn fresh_stores() -> Stores {
        let mut schema = Schema::new();
        schema.add(TableDef::new(TABLE, "t", vec!["v"]));
        let store = |p: usize| {
            let mut s = PartitionStore::new(PartitionId(p as u32), schema.clone());
            for slot in 0..2 {
                let key = key_at(p, slot, false);
                s.load(RecordId::new(TABLE, key), vec![Value::I64(key as i64)]);
            }
            s
        };
        let primaries = (0..NODES).map(store).collect();
        let replicas = (0..NODES)
            .map(|n| {
                let p = (n + NODES - 1) % NODES;
                HashMap::from([(PartitionId(p as u32), store(p))])
            })
            .collect();
        (primaries, replicas)
    }

    /// Inner host, the `(key slot, mutation)` writes it applies, and whether
    /// it commits.
    type InnerPlan = (usize, Vec<(u64, RedoOp)>, bool);

    /// One transaction of a generated history: what it wrote where, and
    /// how far through the commit protocol it got before the "crash".
    #[derive(Debug, Clone)]
    struct TxnPlan {
        coordinator: usize,
        /// Outer writes: `(partition, key slot, migrated key, mutation)`.
        writes: Vec<(usize, u64, bool, RedoOp)>,
        /// The inner region of a two-region transaction.
        inner: Option<InnerPlan>,
        /// Log each `Decide` twice.
        duplicate_decides: bool,
        /// Partitions (bit per index) that never logged their `Redo`.
        lost_redo: u8,
        lose_ack: bool,
        lose_abort: bool,
        /// Protocol steps that made it into a log, in percent.
        progress: u32,
    }

    fn txn_plan_strategy() -> impl Strategy<Value = TxnPlan> {
        let write = (0..NODES, 0u64..4, 0u32..8, gen::op_strategy())
            .prop_map(|(p, slot, m, op)| (p, slot, m == 0, op));
        let inner = (
            0..NODES,
            prop::collection::vec((0u64..4, gen::op_strategy()), 0..3),
            0u32..4,
        )
            .prop_map(|(host, writes, c)| (host, writes, c != 0));
        (
            0..NODES,
            prop::collection::vec(write, 0..5),
            prop::option::of(inner),
            (0u32..4, 0u32..4, 0u8..8),
            (0u32..5, 0u32..3, prop_oneof![Just(100u32), 0u32..100]),
        )
            .prop_map(
                |(coordinator, writes, inner, (dup, redo, mask), tail)| TxnPlan {
                    coordinator,
                    writes,
                    inner,
                    duplicate_decides: dup == 0,
                    lost_redo: if redo == 0 { mask } else { 0 },
                    lose_ack: tail.0 == 0,
                    lose_abort: tail.1 == 0,
                    progress: tail.2,
                },
            )
    }

    /// The records `plan` leaves in the logs, as `(node, record)` in the
    /// order the protocol appends them. `Redo` versions are filled in
    /// later, once the transactions are interleaved.
    fn events_of(plan: &TxnPlan, seq: u64) -> Vec<(usize, WalRecord)> {
        let txn = TxnId::new(NodeId(plan.coordinator as u32), seq);
        let c = plan.coordinator;
        let decide = |pending_inner: Option<usize>, upto: usize| WalRecord::Decide {
            txn,
            proc: format!("proc-{}", seq % 3),
            pending_inner: pending_inner.map(|h| PartitionId(h as u32)),
            writes: (plan.writes[..upto].iter())
                .map(|(p, slot, migrated, op)| DecideWrite {
                    partition: PartitionId(*p as u32),
                    record: RecordId::new(TABLE, key_at(*p, *slot, *migrated)),
                    op: op.clone(),
                })
                .collect(),
        };
        let redo = |writes: Vec<(u64, RedoOp)>| WalRecord::Redo {
            txn,
            writes: (writes.into_iter())
                .map(|(key, op)| RedoWrite {
                    record: RecordId::new(TABLE, key),
                    version: 0,
                    op,
                })
                .collect(),
        };
        let mut events = Vec::new();
        let log_decide = |events: &mut Vec<_>, rec: WalRecord| {
            if plan.duplicate_decides {
                events.push((c, rec.clone()));
            }
            events.push((c, rec));
        };
        if let Some((host, inner_writes, commits)) = &plan.inner {
            // Provisional: the outer writes known before delegating.
            log_decide(&mut events, decide(Some(*host), plan.writes.len() / 2));
            if !commits {
                if !plan.lose_abort {
                    events.push((c, WalRecord::Abort { txn }));
                }
                return cut(events, plan.progress);
            }
            if !inner_writes.is_empty() {
                let at_host = (inner_writes.iter())
                    .map(|(slot, op)| (key_at(*host, *slot, false), op.clone()))
                    .collect();
                events.push((*host, redo(at_host)));
            }
            events.push((*host, WalRecord::InnerCommit { txn }));
        }
        log_decide(&mut events, decide(None, plan.writes.len()));
        for p in 0..NODES {
            let at_p: Vec<_> = (plan.writes.iter())
                .filter(|w| w.0 == p)
                .map(|(_, slot, migrated, op)| (key_at(p, *slot, *migrated), op.clone()))
                .collect();
            if !at_p.is_empty() && plan.lost_redo & (1 << p) == 0 {
                events.push((p, redo(at_p)));
            }
        }
        if !plan.lose_ack {
            events.push((c, WalRecord::Ack { txn }));
        }
        cut(events, plan.progress)
    }

    fn cut<T>(mut events: Vec<T>, percent: u32) -> Vec<T> {
        events.truncate(events.len() * percent as usize / 100);
        events
    }

    /// Per-node logs of a history: the transactions' records riffled
    /// together (each transaction's own order kept, which is all the
    /// causality the protocol has), versions assigned in log order, then
    /// each log cut at a frame boundary.
    fn logs_of(
        plans: &[TxnPlan],
        mut seed: u64,
        keep: &[u32],
        stores: &Stores,
    ) -> Vec<Vec<WalRecord>> {
        let mut queues: Vec<_> = (plans.iter().enumerate())
            .map(|(i, p)| events_of(p, i as u64 + 1).into_iter())
            .collect();
        let mut logs: Vec<Vec<WalRecord>> = vec![Vec::new(); NODES];
        let mut versions: HashMap<(usize, RecordId), u64> = HashMap::new();
        while !queues.is_empty() {
            seed = splitmix64(seed);
            let i = (seed % queues.len() as u64) as usize;
            let Some((n, mut rec)) = queues[i].next() else {
                queues.swap_remove(i);
                continue;
            };
            if let WalRecord::Redo { writes, .. } = &mut rec {
                for w in writes {
                    let v = versions
                        .entry((n, w.record))
                        .or_insert_with(|| stores.0[n].record_version(w.record));
                    *v += 1;
                    w.version = *v;
                }
            }
            logs[n].push(rec);
        }
        for (log, percent) in logs.iter_mut().zip(keep) {
            log.truncate(log.len() * *percent as usize / 100);
        }
        logs
    }

    fn snapshots(stores: &Stores) -> Vec<chiller_storage::wal::StoreSnapshot> {
        let replicas = (stores.1.iter()).flat_map(|holder| {
            let mut parts: Vec<_> = holder.iter().collect();
            parts.sort_by_key(|(p, _)| **p);
            parts.into_iter().map(|(_, s)| s.snapshot())
        });
        (stores.0.iter().map(PartitionStore::snapshot))
            .chain(replicas)
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Streaming recovery against the whole-log reference on generated
        /// multi-node crash histories: provisional, final and duplicate
        /// `Decide`s, inner commits and aborts, `Abort` marks present and
        /// lost, redo and acks lost, transactions cut short, logs cut at
        /// frame boundaries. Stores, replicas and every counter the
        /// reference fills must come out equal.
        #[test]
        fn streaming_recovery_equals_the_whole_log_reference(
            plans in prop::collection::vec(txn_plan_strategy(), 1..14),
            seed in any::<u64>(),
            keep in prop::collection::vec(prop_oneof![Just(100u32), 0u32..100], NODES),
        ) {
            let mut want = fresh_stores();
            let logs = logs_of(&plans, seed, &keep, &want);
            let mut want_report = RecoveryReport::default();
            recover_whole_logs(&mut want.0, &mut want.1, &logs, &ModPlacement, &mut want_report);

            let mut got = fresh_stores();
            let mut got_report = RecoveryReport::default();
            let bytes: Vec<Vec<u8>> = logs.iter().map(|l| gen::encode_all(l)).collect();
            let mut readers: Vec<_> = (bytes.iter())
                .map(|b| WalReader::with_chunk(Cursor::new(&b[..]), b.len() as u64, 61))
                .collect();
            recover(&mut got.0, &mut got.1, &mut readers, &ModPlacement, &mut got_report)
                .expect("in-memory logs cannot fail to read");

            prop_assert_eq!(snapshots(&got), snapshots(&want));
            prop_assert_eq!(got_report.records_scanned, want_report.records_scanned);
            prop_assert_eq!(got_report.writes_replayed, want_report.writes_replayed);
            prop_assert_eq!(got_report.in_doubt, want_report.in_doubt);
            prop_assert_eq!(got_report.in_doubt_committed, want_report.in_doubt_committed);
            prop_assert_eq!(got_report.in_doubt_aborted, want_report.in_doubt_aborted);
            prop_assert_eq!(got_report.writes_repaired, want_report.writes_repaired);
            prop_assert_eq!(got_report.records_rehomed, want_report.records_rehomed);
            prop_assert_eq!(&got_report.recovered_unacked, &want_report.recovered_unacked);
            prop_assert_eq!(
                got_report.log_bytes_scanned,
                bytes.iter().map(|b| b.len() as u64).sum::<u64>()
            );
            prop_assert!(got_report.open_txns_hwm <= plans.len() as u64);
        }
    }
}
