//! Property tests: lock-word invariants under arbitrary operation
//! sequences, key-packer round trips, placement-layer laws (lookup-table
//! consistency, size accounting, explicit fallback), and the partition
//! store against a reference model of the bucket it replaced.

use chiller_common::ids::{NodeId, PartitionId, RecordId, TableId, TxnId};
use chiller_common::time::SimTime;
use chiller_common::value::{Row, Value};
use chiller_storage::lock::{LockMode, LockState, Released};
use chiller_storage::placement::{HashPlacement, LookupTable, Placement};
use chiller_storage::schema::{KeyPacker, Schema, TableDef};
use chiller_storage::wal::{
    crc32, read_checkpoint, write_checkpoint, RedoOp, RedoWrite, StoreSnapshot, TableSnapshot,
};
use chiller_storage::PartitionStore;
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};

#[derive(Debug, Clone)]
enum Op {
    Acquire(u8, bool), // (txn, exclusive)
    Release(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..6, any::<bool>()).prop_map(|(t, x)| Op::Acquire(t, x)),
        (0u8..6).prop_map(Op::Release),
    ]
}

proptest! {
    /// Core mutual-exclusion invariant: never an exclusive holder together
    /// with shared holders (other than itself), never two exclusive holders,
    /// and every grant/denial is consistent with the current state.
    #[test]
    fn lock_invariants(ops in prop::collection::vec(op_strategy(), 1..200)) {
        let mut lock = LockState::new();
        // Model state: set of shared holders, exclusive holder.
        let mut shared: Vec<u8> = Vec::new();
        let mut exclusive: Option<u8> = None;
        for (i, op) in ops.iter().enumerate() {
            let now = SimTime(i as u64);
            match *op {
                Op::Acquire(t, true) => {
                    let txn = TxnId::new(NodeId(0), t as u64);
                    let granted = lock.try_acquire(txn, LockMode::Exclusive, now);
                    let expect = match exclusive {
                        Some(h) => h == t,
                        None => shared.is_empty() || shared == vec![t],
                    };
                    prop_assert_eq!(granted, expect);
                    if granted && exclusive.is_none() {
                        exclusive = Some(t);
                        shared.clear();
                    }
                }
                Op::Acquire(t, false) => {
                    let txn = TxnId::new(NodeId(0), t as u64);
                    let granted = lock.try_acquire(txn, LockMode::Shared, now);
                    let expect = match exclusive {
                        Some(h) => h == t,
                        None => true,
                    };
                    prop_assert_eq!(granted, expect);
                    if granted && exclusive.is_none() && !shared.contains(&t) {
                        shared.push(t);
                    }
                }
                Op::Release(t) => {
                    let txn = TxnId::new(NodeId(0), t as u64);
                    let released = lock.release(txn, now).is_some();
                    let expect = exclusive == Some(t) || shared.contains(&t);
                    prop_assert_eq!(released, expect);
                    if exclusive == Some(t) {
                        exclusive = None;
                    }
                    shared.retain(|&s| s != t);
                }
            }
            prop_assert_eq!(lock.is_free(), exclusive.is_none() && shared.is_empty());
        }
    }

    /// LookupTable law: `is_hot(r)` ⇔ an entry exists ⇔ `partition_of(r)`
    /// returns the entry; all other records (e.g. inserts created after
    /// partitioning) fall through to the default, and `lookup_entries`
    /// counts exactly the distinct records. It holds whether the table is
    /// filled by `insert` or built at once by `with_entries` (how a
    /// Schism layout is materialized); a later entry for a record wins.
    #[test]
    fn lookup_table_hot_entry_consistency(
        entries in prop::collection::vec((0u64..64, 0u32..4), 0..40),
        probes in prop::collection::vec(0u64..96, 1..40),
        k in 1u32..6,
    ) {
        let entries: Vec<(RecordId, PartitionId)> = entries
            .into_iter()
            .map(|(key, p)| (RecordId::new(TableId(1), key), PartitionId(p)))
            .collect();
        let mut inserted = LookupTable::new(HashPlacement::new(k));
        let mut model: HashMap<RecordId, PartitionId> = HashMap::new();
        for &(rid, p) in &entries {
            inserted.insert(rid, p);
            model.insert(rid, p);
        }
        let built = LookupTable::with_entries(entries, HashPlacement::new(k));
        let fallback = HashPlacement::new(k);
        for lt in [inserted, built] {
            prop_assert_eq!(lt.lookup_entries(), model.len());
            for &key in &probes {
                let rid = RecordId::new(TableId(1), key);
                prop_assert_eq!(lt.is_hot(rid), model.contains_key(&rid));
                let expect = model.get(&rid).copied().unwrap_or_else(|| fallback.partition_of(rid));
                prop_assert_eq!(lt.partition_of(rid), expect);
            }
            // Every hot entry is enumerable and self-consistent.
            for (r, p) in lt.hot_entries() {
                prop_assert_eq!(model.get(r), Some(p));
            }
        }
    }

    /// `approx_size_bytes` is monotone under `insert` and exactly linear in
    /// the number of distinct entries.
    #[test]
    fn lookup_table_size_monotone_under_insert(
        keys in prop::collection::vec(0u64..50, 1..80),
    ) {
        let mut lt = LookupTable::new(HashPlacement::new(4));
        let mut last = lt.approx_size_bytes();
        for key in keys {
            lt.insert(RecordId::new(TableId(1), key), PartitionId(0));
            let now = lt.approx_size_bytes();
            prop_assert!(now >= last, "size must never shrink on insert");
            last = now;
        }
        let per_entry = std::mem::size_of::<RecordId>() + std::mem::size_of::<PartitionId>();
        prop_assert_eq!(last, lt.lookup_entries() * per_entry);
    }

    /// KeyPacker round-trips arbitrary in-range fields.
    #[test]
    fn key_packer_roundtrip(
        w in 0u64..(1 << 16),
        d in 0u64..(1 << 8),
        c in 0u64..(1 << 24),
        pad in 0u64..(1 << 16),
    ) {
        let kp = KeyPacker::new(&[16, 8, 24, 16]);
        let fields = vec![w, d, c, pad];
        prop_assert_eq!(kp.unpack(kp.pack(&fields)), fields);
    }
}

// ---- the partition store against the bucket it replaced ------------------

/// The bucket as it was before a record and its version shared one slot:
/// rows and per-record counters in two maps, a counter outliving its row.
#[derive(Debug, Default)]
struct ModelBucket {
    records: BTreeMap<u64, Row>,
    record_versions: BTreeMap<u64, u64>,
    version: u64,
    lock: LockState,
}

impl ModelBucket {
    fn put(&mut self, key: u64, row: Row) {
        self.records.insert(key, row);
        self.version += 1;
        *self.record_versions.entry(key).or_insert(0) += 1;
    }

    fn insert_new(&mut self, key: u64, row: Row) -> bool {
        if self.records.contains_key(&key) {
            return false;
        }
        self.put(key, row);
        true
    }

    fn remove(&mut self, key: u64) -> Option<Row> {
        let old = self.records.remove(&key);
        if old.is_some() {
            self.version += 1;
            *self.record_versions.entry(key).or_insert(0) += 1;
        }
        old
    }
}

/// `PartitionStore`'s semantics over [`ModelBucket`]s.
struct ModelStore {
    /// `(table, records per bucket)`, sorted by table.
    tables: Vec<(TableId, u64)>,
    buckets: BTreeMap<(TableId, u64), ModelBucket>,
}

impl ModelStore {
    fn bucket_id(&self, rid: RecordId) -> (TableId, u64) {
        let (_, per_bucket) = self.tables.iter().find(|(t, _)| *t == rid.table).unwrap();
        (rid.table, rid.key / per_bucket)
    }

    fn bucket(&self, rid: RecordId) -> Option<&ModelBucket> {
        self.buckets.get(&self.bucket_id(rid))
    }

    fn bucket_mut(&mut self, rid: RecordId) -> &mut ModelBucket {
        let id = self.bucket_id(rid);
        self.buckets.entry(id).or_default()
    }

    fn read_opt(&self, rid: RecordId) -> Option<&Row> {
        self.bucket(rid)?.records.get(&rid.key)
    }

    fn record_version(&self, rid: RecordId) -> u64 {
        self.bucket(rid)
            .and_then(|b| b.record_versions.get(&rid.key).copied())
            .unwrap_or(0)
    }

    fn version(&self, rid: RecordId) -> u64 {
        self.bucket(rid).map_or(0, |b| b.version)
    }

    fn set_record_version(&mut self, rid: RecordId, v: u64) {
        self.bucket_mut(rid).record_versions.insert(rid.key, v);
    }

    fn apply_redo(&mut self, w: RedoWrite) -> bool {
        if self.record_version(w.record) >= w.version {
            return false;
        }
        match w.op {
            RedoOp::Put(row) | RedoOp::Insert(row) => {
                self.bucket_mut(w.record).put(w.record.key, row)
            }
            RedoOp::Delete => {
                self.bucket_mut(w.record).remove(w.record.key);
            }
        }
        self.set_record_version(w.record, w.version);
        true
    }

    fn snapshot(&self) -> StoreSnapshot {
        let tables = self
            .tables
            .iter()
            .map(|&(table, _)| {
                let buckets = self.buckets.range((table, 0)..=(table, u64::MAX));
                let mut rows = Vec::new();
                let mut versions = Vec::new();
                for (_, b) in buckets {
                    rows.extend(b.records.iter().map(|(k, r)| (*k, r.clone())));
                    versions.extend(b.record_versions.iter().map(|(k, v)| (*k, *v)));
                }
                rows.sort_by_key(|(k, _)| *k);
                versions.sort_by_key(|(k, _)| *k);
                TableSnapshot {
                    table,
                    rows,
                    versions,
                }
            })
            .collect();
        StoreSnapshot { tables }
    }

    fn restore(&mut self, snap: &StoreSnapshot) {
        self.buckets.clear();
        for t in &snap.tables {
            for (k, row) in &t.rows {
                self.bucket_mut(RecordId::new(t.table, *k))
                    .put(*k, row.clone());
            }
            for (k, v) in &t.versions {
                self.set_record_version(RecordId::new(t.table, *k), *v);
            }
        }
    }
}

/// The checkpoint format written out independently of the production
/// encoder, for rows of `I64` columns: every field little-endian, the
/// payload framed by its length and CRC.
fn golden_checkpoint(snap: &StoreSnapshot) -> Vec<u8> {
    let mut p = Vec::new();
    p.extend((snap.tables.len() as u32).to_le_bytes());
    for t in &snap.tables {
        p.extend(t.table.0.to_le_bytes());
        p.extend((t.rows.len() as u32).to_le_bytes());
        for (k, row) in &t.rows {
            p.extend(k.to_le_bytes());
            p.extend((row.len() as u32).to_le_bytes());
            for v in row {
                p.push(0);
                p.extend(v.as_i64().to_le_bytes());
            }
        }
        p.extend((t.versions.len() as u32).to_le_bytes());
        for (k, v) in &t.versions {
            p.extend(k.to_le_bytes());
            p.extend(v.to_le_bytes());
        }
    }
    let mut framed = (p.len() as u32).to_le_bytes().to_vec();
    framed.extend(crc32(&p).to_le_bytes());
    framed.extend(p);
    framed
}

/// One row per record, one bucket per record; ten records per bucket.
const FINE: TableId = TableId(1);
const COARSE: TableId = TableId(2);
/// Keys per table the generated operations draw from.
const KEYS: u8 = 16;

#[derive(Debug, Clone)]
enum StoreOp {
    Load(u8, i64),
    Write(u8, i64),
    Insert(u8, i64),
    Delete(u8),
    InsertMigrated(u8, i64, u64),
    SetRecordVersion(u8, u64),
    /// Key, logged version, op (0 put, 1 insert, 2 delete), value.
    ApplyRedo(u8, u64, u8, i64),
    TryLock(u8, u8, bool),
    Unlock(u8, u8),
    /// `snapshot` → `restore`, checkpoint bytes compared on the way.
    RoundTrip,
}

fn store_op_strategy() -> impl Strategy<Value = StoreOp> {
    let key = 0..2 * KEYS;
    prop_oneof![
        (key.clone(), -9i64..9).prop_map(|(k, v)| StoreOp::Load(k, v)),
        (key.clone(), -9i64..9).prop_map(|(k, v)| StoreOp::Write(k, v)),
        (key.clone(), -9i64..9).prop_map(|(k, v)| StoreOp::Insert(k, v)),
        key.clone().prop_map(StoreOp::Delete),
        (key.clone(), -9i64..9, 0u64..8).prop_map(|(k, v, s)| StoreOp::InsertMigrated(k, v, s)),
        (key.clone(), 0u64..8).prop_map(|(k, v)| StoreOp::SetRecordVersion(k, v)),
        (key.clone(), 0u64..10, 0u8..3, -9i64..9)
            .prop_map(|(k, v, op, x)| StoreOp::ApplyRedo(k, v, op, x)),
        (key.clone(), 0u8..4, any::<bool>()).prop_map(|(k, t, x)| StoreOp::TryLock(k, t, x)),
        (key, 0u8..4).prop_map(|(k, t)| StoreOp::Unlock(k, t)),
        Just(StoreOp::RoundTrip),
    ]
}

/// Key index → record: the first `KEYS` in the fine table, the rest in the
/// coarse one; dense keys, or `KeyPacker` keys differing in a high field
/// (and, within groups of four, in the lowest bits).
fn record(i: u8, packed: bool) -> RecordId {
    let table = if i < KEYS { FINE } else { COARSE };
    let j = u64::from(i % KEYS);
    let key = if packed {
        KeyPacker::new(&[16, 8, 40]).pack(&[j / 4 + 1, 0, j % 4])
    } else {
        j
    };
    RecordId::new(table, key)
}

fn row(v: i64) -> Row {
    vec![Value::I64(v), Value::I64(-v)]
}

fn differential_schema() -> Schema {
    let mut s = Schema::new();
    s.add(TableDef::new(FINE, "fine", vec!["a", "b"]));
    s.add(TableDef::new(COARSE, "coarse", vec!["a", "b"]).with_bucket_size(10));
    s
}

fn checkpoint_path() -> std::path::PathBuf {
    std::env::temp_dir().join(format!("chiller-props-ckpt-{}", std::process::id()))
}

/// Everything observable about one store agrees with the model.
fn same_state(st: &PartitionStore, model: &ModelStore, packed: bool) -> Result<(), String> {
    for i in 0..2 * KEYS {
        let rid = record(i, packed);
        prop_assert_eq!(st.read_opt(rid), model.read_opt(rid), "read_opt {}", rid);
        prop_assert_eq!(
            st.record_version(rid),
            model.record_version(rid),
            "record_version {}",
            rid
        );
        prop_assert_eq!(
            st.version(rid),
            model.version(rid),
            "bucket version {}",
            rid
        );
        let order: Vec<u64> = st
            .table(rid.table)
            .bucket_for(rid.key)
            .map(|b| b.iter().map(|(k, _)| *k).collect())
            .unwrap_or_default();
        let expect: Vec<u64> = model
            .bucket(rid)
            .map(|b| b.records.keys().copied().collect())
            .unwrap_or_default();
        prop_assert_eq!(order, expect, "in-bucket order {}", rid);
    }
    let records: usize = model.buckets.values().map(|b| b.records.len()).sum();
    prop_assert_eq!(st.num_records(), records);
    prop_assert_eq!(st.snapshot(), model.snapshot());
    Ok(())
}

/// The checkpoint the store writes is byte-for-byte the one the model's
/// snapshot encodes to, and reads back as that snapshot.
fn same_checkpoint(st: &PartitionStore, model: &ModelStore) -> Result<(), String> {
    let path = checkpoint_path();
    write_checkpoint(&path, st).map_err(|e| e.to_string())?;
    let bytes = std::fs::read(&path).map_err(|e| e.to_string())?;
    let expect = model.snapshot();
    prop_assert!(
        bytes == golden_checkpoint(&expect),
        "checkpoint bytes differ"
    );
    prop_assert_eq!(read_checkpoint(&path), Some(expect));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The one-slot bucket is indistinguishable from the two-map bucket it
    /// replaced: every return value, row, record and bucket version, record
    /// count, in-bucket order, snapshot and checkpoint byte agrees after
    /// every step of a random sequence over buckets of 1 and 10 records.
    #[test]
    fn store_matches_two_map_model(
        ops in prop::collection::vec(store_op_strategy(), 1..120),
        packed in any::<bool>(),
    ) {
        let mut st = PartitionStore::new(PartitionId(0), differential_schema());
        let mut model = ModelStore {
            tables: vec![(FINE, 1), (COARSE, 10)],
            buckets: BTreeMap::new(),
        };
        for (step, op) in ops.iter().enumerate() {
            let now = SimTime(step as u64);
            let txn = |t: u8| TxnId::new(NodeId(0), u64::from(t));
            match *op {
                StoreOp::Load(i, v) | StoreOp::Write(i, v) => {
                    let rid = record(i, packed);
                    if matches!(op, StoreOp::Load(..)) {
                        st.load(rid, row(v));
                    } else {
                        st.write(rid, row(v));
                    }
                    model.bucket_mut(rid).put(rid.key, row(v));
                }
                StoreOp::Insert(i, v) => {
                    let rid = record(i, packed);
                    let got = st.insert(rid, row(v)).is_ok();
                    prop_assert_eq!(got, model.bucket_mut(rid).insert_new(rid.key, row(v)));
                }
                StoreOp::Delete(i) => {
                    let rid = record(i, packed);
                    let got = st.delete(rid).ok();
                    prop_assert_eq!(got, model.bucket_mut(rid).remove(rid.key));
                }
                StoreOp::InsertMigrated(i, v, src) => {
                    let rid = record(i, packed);
                    let got = st.insert_migrated(rid, row(v), src).is_ok();
                    model.set_record_version(rid, src.saturating_sub(1));
                    prop_assert_eq!(got, model.bucket_mut(rid).insert_new(rid.key, row(v)));
                }
                StoreOp::SetRecordVersion(i, v) => {
                    let rid = record(i, packed);
                    st.set_record_version(rid, v);
                    model.set_record_version(rid, v);
                }
                StoreOp::ApplyRedo(i, version, op, v) => {
                    let op = match op {
                        0 => RedoOp::Put(row(v)),
                        1 => RedoOp::Insert(row(v)),
                        _ => RedoOp::Delete,
                    };
                    let w = RedoWrite { record: record(i, packed), version, op };
                    prop_assert_eq!(st.apply_redo(w.clone()), model.apply_redo(w));
                }
                StoreOp::TryLock(i, t, exclusive) => {
                    let rid = record(i, packed);
                    let mode = if exclusive { LockMode::Exclusive } else { LockMode::Shared };
                    let got = st.try_lock(rid, txn(t), mode, now).is_ok();
                    prop_assert_eq!(got, model.bucket_mut(rid).lock.try_acquire(txn(t), mode, now));
                }
                StoreOp::Unlock(i, t) => {
                    let rid = record(i, packed);
                    let got: Option<Released> = st.unlock(rid, txn(t), now);
                    prop_assert_eq!(got, model.bucket_mut(rid).lock.release(txn(t), now));
                }
                StoreOp::RoundTrip => {
                    same_checkpoint(&st, &model)?;
                    st.restore(&st.snapshot());
                    let snap = model.snapshot();
                    model.restore(&snap);
                }
            }
            same_state(&st, &model, packed).map_err(|e| format!("after step {step} {op:?}: {e}"))?;
        }
        same_checkpoint(&st, &model)?;
        let _ = std::fs::remove_file(checkpoint_path());
    }
}
