//! Per-partition stores: tables of buckets, plus primary/replica copies.
//!
//! A [`PartitionStore`] is the state one simulated node owns for one
//! partition. The concurrency-control layer calls into it for record access
//! and lock-word manipulation; all timing (latencies, CPU) is modeled by the
//! caller, never here.

use crate::bucket::Bucket;
use crate::lock::{LockMode, Released};
use crate::schema::Schema;
use crate::wal::{RedoOp, RedoWrite, StoreSnapshot, TableSnapshot};
use chiller_common::error::{ChillerError, Result};
use chiller_common::ids::{PartitionId, RecordId, TableId, TxnId};
use chiller_common::time::SimTime;
use chiller_common::value::Row;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The store's hasher: murmur3's `fmix64` finalizer folded over each
/// 64-bit word. Keys here come from the workload generators and stored
/// procedures, not from untrusted clients, so SipHash's resistance to
/// crafted collisions buys nothing, and its per-process seed makes
/// iteration order vary between runs. A bare multiply will not do either:
/// hashbrown picks the bucket from the hash's low bits, and `KeyPacker`
/// keys that differ only in their most-significant fields (TPC-C's
/// warehouse and district) would all share them.
#[derive(Debug, Clone, Copy, Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, n: u64) {
        let h = self.0 ^ n;
        let h = (h ^ (h >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
        let h = (h ^ (h >> 33)).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        self.0 = h ^ (h >> 33);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type KeyMap<K, V> = HashMap<K, V, BuildHasherDefault<KeyHasher>>;

/// One table's buckets within a partition.
#[derive(Debug, Clone)]
pub struct TableStore {
    buckets: KeyMap<u64, Bucket>,
    records_per_bucket: u64,
}

impl TableStore {
    pub fn new(records_per_bucket: u64) -> Self {
        TableStore {
            buckets: KeyMap::default(),
            records_per_bucket: records_per_bucket.max(1),
        }
    }

    #[inline]
    fn bucket_id(&self, key: u64) -> u64 {
        key / self.records_per_bucket
    }

    pub fn bucket_for(&self, key: u64) -> Option<&Bucket> {
        self.buckets.get(&self.bucket_id(key))
    }

    pub fn bucket_for_mut(&mut self, key: u64) -> &mut Bucket {
        let id = self.bucket_id(key);
        self.buckets.entry(id).or_default()
    }

    /// Like [`Self::bucket_for_mut`], but never materialises a bucket.
    fn existing_bucket_mut(&mut self, key: u64) -> Option<&mut Bucket> {
        let id = self.bucket_id(key);
        self.buckets.get_mut(&id)
    }

    pub fn num_buckets(&self) -> usize {
        self.buckets.len()
    }

    pub fn num_records(&self) -> usize {
        self.buckets.values().map(Bucket::len).sum()
    }

    /// Iterate all `(key, row)` pairs, unordered across buckets.
    pub fn iter(&self) -> impl Iterator<Item = (&u64, &Row)> {
        self.buckets.values().flat_map(Bucket::iter)
    }
}

/// All tables of one partition, primary copy.
pub struct PartitionStore {
    pub partition: PartitionId,
    schema: Schema,
    tables: KeyMap<TableId, TableStore>,
}

impl PartitionStore {
    pub fn new(partition: PartitionId, schema: Schema) -> Self {
        let tables = schema
            .tables()
            .map(|t| (t.id, TableStore::new(t.records_per_bucket)))
            .collect();
        PartitionStore {
            partition,
            schema,
            tables,
        }
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn table(&self, id: TableId) -> &TableStore {
        self.tables
            .get(&id)
            .unwrap_or_else(|| panic!("partition {} has no table {id}", self.partition))
    }

    pub fn table_mut(&mut self, id: TableId) -> &mut TableStore {
        self.tables
            .get_mut(&id)
            .unwrap_or_else(|| panic!("no table {id}"))
    }

    /// Iterate `(table id, table store)` pairs, unordered (used by
    /// replica-consistency checks and diagnostics).
    pub fn tables(&self) -> impl Iterator<Item = (&TableId, &TableStore)> {
        self.tables.iter()
    }

    // ---- record access -------------------------------------------------

    pub fn read(&self, rid: RecordId) -> Result<&Row> {
        self.table(rid.table)
            .bucket_for(rid.key)
            .and_then(|b| b.get(rid.key))
            .ok_or(ChillerError::RecordNotFound(rid))
    }

    pub fn read_opt(&self, rid: RecordId) -> Option<&Row> {
        self.table(rid.table)
            .bucket_for(rid.key)
            .and_then(|b| b.get(rid.key))
    }

    pub fn exists(&self, rid: RecordId) -> bool {
        self.read_opt(rid).is_some()
    }

    /// Overwrite a record (used for committed updates and replica apply).
    pub fn write(&mut self, rid: RecordId, row: Row) {
        self.table_mut(rid.table)
            .bucket_for_mut(rid.key)
            .put(rid.key, row);
    }

    /// Insert a fresh record, failing on duplicates.
    pub fn insert(&mut self, rid: RecordId, row: Row) -> Result<()> {
        if self
            .table_mut(rid.table)
            .bucket_for_mut(rid.key)
            .insert_new(rid.key, row)
        {
            Ok(())
        } else {
            Err(ChillerError::DuplicateKey(rid))
        }
    }

    pub fn delete(&mut self, rid: RecordId) -> Result<Row> {
        self.table_mut(rid.table)
            .existing_bucket_mut(rid.key)
            .and_then(|b| b.remove(rid.key))
            .ok_or(ChillerError::RecordNotFound(rid))
    }

    /// Bulk load during data generation: no locks, no versions semantics
    /// beyond normal put.
    pub fn load(&mut self, rid: RecordId, row: Row) {
        self.write(rid, row);
    }

    // ---- lock words (one-sided atomics target) --------------------------

    /// NO_WAIT lock attempt on the bucket containing `rid`.
    pub fn try_lock(
        &mut self,
        rid: RecordId,
        txn: TxnId,
        mode: LockMode,
        now: SimTime,
    ) -> Result<()> {
        let bucket = self.table_mut(rid.table).bucket_for_mut(rid.key);
        if bucket.lock.try_acquire(txn, mode, now) {
            Ok(())
        } else {
            Err(ChillerError::LockConflict { txn, record: rid })
        }
    }

    /// Release `txn`'s lock on the bucket of `rid`, reporting the held span
    /// (`None` when it held nothing, including when no bucket exists).
    pub fn unlock(&mut self, rid: RecordId, txn: TxnId, now: SimTime) -> Option<Released> {
        self.table_mut(rid.table)
            .existing_bucket_mut(rid.key)?
            .lock
            .release(txn, now)
    }

    /// Current version of the bucket holding `rid` (for OCC validation).
    pub fn version(&self, rid: RecordId) -> u64 {
        self.table(rid.table)
            .bucket_for(rid.key)
            .map(Bucket::version)
            .unwrap_or(0)
    }

    /// Per-record write counter of `rid` (for history recording): 0 if never
    /// written, monotone across deletes and re-inserts. Unlike
    /// [`Self::version`] this never couples bucket neighbors.
    pub fn record_version(&self, rid: RecordId) -> u64 {
        self.table(rid.table)
            .bucket_for(rid.key)
            .map(|b| b.record_version(rid.key))
            .unwrap_or(0)
    }

    /// Install a migrated-in record continuing the source's version chain:
    /// the destination's counter is seeded with the source's value *before*
    /// the insert bumps it, so the copy's observable version equals the
    /// source's and later writes keep increasing from there.
    pub fn insert_migrated(&mut self, rid: RecordId, row: Row, src_version: u64) -> Result<()> {
        self.table_mut(rid.table)
            .bucket_for_mut(rid.key)
            .set_record_version(rid.key, src_version.saturating_sub(1));
        self.insert(rid, row)
    }

    /// Whether the bucket of `rid` is currently locked by anyone.
    pub fn is_locked(&self, rid: RecordId) -> bool {
        self.table(rid.table)
            .bucket_for(rid.key)
            .map(|b| !b.lock.is_free())
            .unwrap_or(false)
    }

    /// Whether `txn` holds the lock on `rid`'s bucket.
    pub fn holds_lock(&self, rid: RecordId, txn: TxnId) -> bool {
        self.table(rid.table)
            .bucket_for(rid.key)
            .map(|b| b.lock.holds(txn))
            .unwrap_or(false)
    }

    // ---- durability (WAL + checkpoints, DESIGN.md §15) -------------------

    /// Force `rid`'s per-record write counter to `v` exactly (WAL replay
    /// installs the logged version rather than re-deriving it by bumping).
    pub fn set_record_version(&mut self, rid: RecordId, v: u64) {
        self.table_mut(rid.table)
            .bucket_for_mut(rid.key)
            .set_record_version(rid.key, v);
    }

    /// Replay one logged write, idempotently: the write is applied only
    /// when its logged version is newer than what the store already holds,
    /// and it installs that exact version. Replaying a log against a
    /// checkpoint that already contains a suffix of it (the crash window
    /// between checkpoint rename and log truncation) is therefore safe.
    /// Returns whether the write was applied.
    pub fn apply_redo(&mut self, w: RedoWrite) -> bool {
        if self.record_version(w.record) >= w.version {
            return false;
        }
        match w.op {
            // Insert degrades to write on replay: the duplicate-key check
            // already passed when the write committed pre-crash.
            RedoOp::Put(row) | RedoOp::Insert(row) => self.write(w.record, row),
            RedoOp::Delete => {
                // The record may already be gone (present in neither the
                // checkpoint nor the store); the tombstone version still
                // advances below.
                let _ = self.delete(w.record);
            }
        }
        self.set_record_version(w.record, w.version);
        true
    }

    /// Capture the partition's durable state: every row of every table
    /// plus the complete per-record version map (tombstones included).
    /// Tables and keys are sorted so snapshots are byte-stable.
    pub fn snapshot(&self) -> StoreSnapshot {
        let mut tables: Vec<TableSnapshot> = self
            .tables
            .iter()
            .map(|(id, t)| {
                let mut rows: Vec<(u64, Row)> =
                    t.iter().map(|(k, row)| (*k, row.clone())).collect();
                rows.sort_by_key(|(k, _)| *k);
                let mut versions: Vec<(u64, u64)> = t
                    .buckets
                    .values()
                    .flat_map(|b| b.versions().map(|(k, v)| (*k, *v)))
                    .collect();
                versions.sort_by_key(|(k, _)| *k);
                TableSnapshot {
                    table: *id,
                    rows,
                    versions,
                }
            })
            .collect();
        tables.sort_by_key(|t| t.table);
        StoreSnapshot { tables }
    }

    /// Replace the partition's contents with `snap`: tables are rebuilt
    /// empty from the schema (so records deleted after the snapshot do not
    /// survive), rows installed, and record versions forced to the
    /// snapshot's exact values.
    pub fn restore(&mut self, snap: &StoreSnapshot) {
        self.tables = self
            .schema
            .tables()
            .map(|t| (t.id, TableStore::new(t.records_per_bucket)))
            .collect();
        for t in &snap.tables {
            let ts = self
                .tables
                .get_mut(&t.table)
                .unwrap_or_else(|| panic!("checkpoint has unknown table {}", t.table));
            for (k, row) in &t.rows {
                ts.bucket_for_mut(*k).put(*k, row.clone());
            }
            for (k, v) in &t.versions {
                ts.bucket_for_mut(*k).set_record_version(*k, *v);
            }
        }
    }

    /// Diagnostic: total records across tables.
    pub fn num_records(&self) -> usize {
        self.tables.values().map(TableStore::num_records).sum()
    }

    /// Diagnostic: true when no bucket in the partition holds any lock.
    /// Used by tests to assert that runs never leak locks.
    pub fn all_locks_free(&self) -> bool {
        self.tables
            .values()
            .all(|t| t.buckets.values().all(|b| b.lock.is_free()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::TableDef;
    use chiller_common::ids::NodeId;
    use chiller_common::value::Value;

    fn schema() -> Schema {
        let mut s = Schema::new();
        s.add(TableDef::new(TableId(1), "acct", vec!["id", "bal"]));
        s.add(TableDef::new(TableId(2), "coarse", vec!["id"]).with_bucket_size(10));
        s
    }

    fn store() -> PartitionStore {
        PartitionStore::new(PartitionId(0), schema())
    }

    fn rid(k: u64) -> RecordId {
        RecordId::new(TableId(1), k)
    }

    fn txn(n: u64) -> TxnId {
        TxnId::new(NodeId(0), n)
    }

    #[test]
    fn crud_roundtrip() {
        let mut st = store();
        st.insert(rid(1), vec![Value::I64(1), Value::F64(10.0)])
            .unwrap();
        assert_eq!(st.read(rid(1)).unwrap()[1].as_f64(), 10.0);
        st.write(rid(1), vec![Value::I64(1), Value::F64(20.0)]);
        assert_eq!(st.read(rid(1)).unwrap()[1].as_f64(), 20.0);
        let old = st.delete(rid(1)).unwrap();
        assert_eq!(old[1].as_f64(), 20.0);
        assert!(matches!(
            st.read(rid(1)),
            Err(ChillerError::RecordNotFound(_))
        ));
    }

    #[test]
    fn insert_duplicate_fails() {
        let mut st = store();
        st.insert(rid(1), vec![Value::I64(1), Value::Null]).unwrap();
        assert!(matches!(
            st.insert(rid(1), vec![Value::I64(1), Value::Null]),
            Err(ChillerError::DuplicateKey(_))
        ));
    }

    #[test]
    fn no_wait_lock_conflict_surfaces_error() {
        let mut st = store();
        st.insert(rid(1), vec![Value::I64(1), Value::Null]).unwrap();
        st.try_lock(rid(1), txn(1), LockMode::Exclusive, SimTime(0))
            .unwrap();
        let err = st
            .try_lock(rid(1), txn(2), LockMode::Shared, SimTime(0))
            .unwrap_err();
        assert!(matches!(err, ChillerError::LockConflict { .. }));
        assert!(err.is_retryable());
    }

    #[test]
    fn unlock_reports_contention_span() {
        let mut st = store();
        st.insert(rid(1), vec![Value::I64(1), Value::Null]).unwrap();
        st.try_lock(rid(1), txn(1), LockMode::Exclusive, SimTime(100))
            .unwrap();
        let rel = st.unlock(rid(1), txn(1), SimTime(400)).unwrap();
        assert_eq!(rel.held_for.as_nanos(), 300);
        assert!(st.all_locks_free());
    }

    #[test]
    fn bucket_granularity_couples_neighbors() {
        let mut st = store();
        let a = RecordId::new(TableId(2), 3);
        let b = RecordId::new(TableId(2), 7); // same bucket (size 10)
        let c = RecordId::new(TableId(2), 13); // next bucket
        st.load(a, vec![Value::I64(3)]);
        st.load(b, vec![Value::I64(7)]);
        st.load(c, vec![Value::I64(13)]);
        st.try_lock(a, txn(1), LockMode::Exclusive, SimTime(0))
            .unwrap();
        assert!(st
            .try_lock(b, txn(2), LockMode::Shared, SimTime(0))
            .is_err());
        assert!(st.try_lock(c, txn(2), LockMode::Shared, SimTime(0)).is_ok());
    }

    #[test]
    fn version_bumps_per_bucket_write() {
        let mut st = store();
        assert_eq!(st.version(rid(5)), 0);
        st.write(rid(5), vec![Value::I64(5), Value::Null]);
        let v1 = st.version(rid(5));
        st.write(rid(5), vec![Value::I64(5), Value::Null]);
        assert!(st.version(rid(5)) > v1);
    }

    #[test]
    fn record_counts() {
        let mut st = store();
        for k in 0..5 {
            st.load(rid(k), vec![Value::I64(k as i64), Value::Null]);
        }
        assert_eq!(st.num_records(), 5);
        assert_eq!(st.table(TableId(1)).num_buckets(), 5);
    }

    #[test]
    fn unlock_and_delete_of_absent_keys_create_no_bucket() {
        let mut st = store();
        st.load(rid(1), vec![Value::I64(1), Value::Null]);
        assert!(st.unlock(rid(2), txn(1), SimTime(0)).is_none());
        assert!(st.delete(rid(3)).is_err());
        assert_eq!(st.table(TableId(1)).num_buckets(), 1);
    }

    /// TPC-C packs warehouse and district into the key's top bits; hashbrown
    /// indexes by the hash's low bits. 4 096 district keys (16 districts ×
    /// 256 warehouses) must spread over the low 12 bits about as well as
    /// random placement of 4 096 items into 4 096 bins: 4 096 · (1 − 1/e)
    /// ≈ 2 589 distinct values, σ ≈ 20. A bare multiply yields 1.
    #[test]
    fn hasher_spreads_high_field_keys_over_low_bits() {
        use crate::schema::KeyPacker;
        use std::hash::BuildHasher;
        let kp = &KeyPacker::new(&[16, 8, 24, 16]);
        let hasher = BuildHasherDefault::<KeyHasher>::default();
        let low12: std::collections::HashSet<u64> = (0..256)
            .flat_map(|w| (0..16).map(move |d| kp.pack(&[w, d, 0, 0])))
            .map(|k| hasher.hash_one(k) & 0xfff)
            .collect();
        assert!(
            low12.len() >= 2_400,
            "{} distinct low-12-bit values",
            low12.len()
        );
    }

    #[test]
    fn hasher_is_deterministic_across_instances() {
        use std::hash::BuildHasher;
        let (a, b) = (
            BuildHasherDefault::<KeyHasher>::default(),
            BuildHasherDefault::<KeyHasher>::default(),
        );
        for k in [0u64, 1, 42, u64::MAX, 7 << 48] {
            assert_eq!(a.hash_one(k), b.hash_one(k));
        }
        assert_eq!(a.hash_one(TableId(3)), b.hash_one(TableId(3)));
        assert_ne!(a.hash_one(1u64), a.hash_one(2u64));
    }

    #[test]
    fn holds_and_is_locked() {
        let mut st = store();
        st.load(rid(1), vec![Value::I64(1), Value::Null]);
        assert!(!st.is_locked(rid(1)));
        st.try_lock(rid(1), txn(1), LockMode::Shared, SimTime(0))
            .unwrap();
        assert!(st.is_locked(rid(1)));
        assert!(st.holds_lock(rid(1), txn(1)));
        assert!(!st.holds_lock(rid(1), txn(2)));
    }
}
