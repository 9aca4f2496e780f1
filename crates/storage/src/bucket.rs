//! Buckets: the unit of locking and one-sided access.
//!
//! §6: "Chiller splits partitions into smaller buckets. Records within a
//! partition are placed in buckets based on a hash/range/user-defined
//! function on their primary keys. Each bucket may host multiple records"
//! and "buckets are locked when any of their records are being accessed".
//!
//! Each bucket carries a monotonically increasing **version** that is bumped
//! by every committed write to any of its records; the OCC engine validates
//! against it.
//!
//! **One slot per record.** A bucket's records are one key-sorted list of
//! slots, each holding the key, the row, and the record's own write
//! counter. Unlike the bucket version (which couples neighbors by design),
//! the per-record counter says exactly which record a write installed, so
//! the serializability checker never sees a spurious cross-key edge.
//!
//! **Tombstones.** A slot whose row is `None` is a tombstone: a committed
//! delete is itself a versioned write, so the slot and its counter stay and
//! a re-insert continues the chain instead of restarting it at 1. A slot is
//! also created, row-less, when a counter is forced before the record
//! arrives (migration carry-over, WAL replay, checkpoint restore).
//!
//! **Exact capacity.** Every production table has one record per bucket,
//! and the default `Vec` growth would reserve four slots for the first
//! insert. The list therefore grows by exactly one slot per new key: a
//! bucket of `n` records pays an `n`-slot move per new key, and holds no
//! spare capacity.

use crate::lock::LockState;
use chiller_common::value::Row;

/// One record of a bucket; `row == None` is a tombstone.
#[derive(Debug, Clone)]
struct Slot {
    key: u64,
    row: Option<Row>,
    /// Committed writes (deletes included) this record has absorbed.
    version: u64,
}

/// A bucket: a small set of records sharing one lock word and version.
#[derive(Debug, Clone, Default)]
pub struct Bucket {
    /// Sorted by key, tombstones included, capacity exact.
    slots: Vec<Slot>,
    /// Embedded lock word, manipulable via simulated one-sided atomics.
    pub lock: LockState,
    /// Bumped on every committed write/insert/delete.
    version: u64,
}

impl Bucket {
    pub fn new() -> Self {
        Self::default()
    }

    fn find(&self, key: u64) -> Result<usize, usize> {
        self.slots.binary_search_by_key(&key, |s| s.key)
    }

    /// The slot of `key`, created as a version-0 tombstone if absent.
    fn slot_mut(&mut self, key: u64) -> &mut Slot {
        let i = self.find(key).unwrap_or_else(|i| {
            self.slots.reserve_exact(1);
            let tombstone = Slot {
                key,
                row: None,
                version: 0,
            };
            self.slots.insert(i, tombstone);
            i
        });
        &mut self.slots[i]
    }

    pub fn version(&self) -> u64 {
        self.version
    }

    /// The per-record write counter of `key`: 0 if never written, otherwise
    /// the number of committed writes (including deletes) it has absorbed.
    pub fn record_version(&self, key: u64) -> u64 {
        self.find(key).map_or(0, |i| self.slots[i].version)
    }

    /// Force `key`'s write counter to `v` (migration carry-over: the
    /// destination continues the source's version chain so one record never
    /// installs the same version twice across partitions).
    pub fn set_record_version(&mut self, key: u64, v: u64) {
        self.slot_mut(key).version = v;
    }

    /// Live records (tombstones excluded).
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    pub fn is_empty(&self) -> bool {
        self.iter().next().is_none()
    }

    pub fn get(&self, key: u64) -> Option<&Row> {
        self.slots[self.find(key).ok()?].row.as_ref()
    }

    pub fn contains(&self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// Overwrite (or create) a record and bump the version.
    pub fn put(&mut self, key: u64, row: Row) {
        let slot = self.slot_mut(key);
        slot.row = Some(row);
        slot.version += 1;
        self.version += 1;
    }

    /// Insert a new record; returns `false` (without bumping the version) if
    /// the key already exists.
    pub fn insert_new(&mut self, key: u64, row: Row) -> bool {
        if self.contains(key) {
            return false;
        }
        self.put(key, row);
        true
    }

    /// Remove a record, leaving a tombstone; returns the old row if
    /// present, bumping the version.
    pub fn remove(&mut self, key: u64) -> Option<Row> {
        let i = self.find(key).ok()?;
        let old = self.slots[i].row.take()?;
        self.slots[i].version += 1;
        self.version += 1;
        Some(old)
    }

    /// Iterate records in key order (used by range scans like TPC-C's
    /// StockLevel and Delivery).
    pub fn iter(&self) -> impl Iterator<Item = (&u64, &Row)> {
        self.slots
            .iter()
            .filter_map(|s| Some((&s.key, s.row.as_ref()?)))
    }

    /// Iterate every record's write counter in key order — tombstones
    /// included. Checkpoints capture this so version chains survive
    /// recovery across delete + re-insert.
    pub fn versions(&self) -> impl Iterator<Item = (&u64, &u64)> {
        self.slots.iter().map(|s| (&s.key, &s.version))
    }

    /// Approximate memory footprint of the bucket's records in bytes.
    pub fn approx_size(&self) -> usize {
        self.iter()
            .map(|(_, r)| r.iter().map(|v| v.approx_size()).sum::<usize>() + 8)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiller_common::value::Value;

    fn row1(v: i64) -> Row {
        vec![Value::I64(v)]
    }

    #[test]
    fn put_get_roundtrip() {
        let mut b = Bucket::new();
        b.put(5, row1(50));
        assert_eq!(b.get(5).unwrap()[0].as_i64(), 50);
        assert!(b.get(6).is_none());
    }

    #[test]
    fn version_bumps_on_mutation_only() {
        let mut b = Bucket::new();
        assert_eq!(b.version(), 0);
        b.put(1, row1(1));
        assert_eq!(b.version(), 1);
        b.get(1);
        assert_eq!(b.version(), 1);
        b.put(1, row1(2));
        assert_eq!(b.version(), 2);
        b.remove(1);
        assert_eq!(b.version(), 3);
        // Removing a missing key is not a write.
        b.remove(1);
        assert_eq!(b.version(), 3);
    }

    #[test]
    fn insert_new_rejects_duplicates() {
        let mut b = Bucket::new();
        assert!(b.insert_new(1, row1(1)));
        assert!(!b.insert_new(1, row1(2)));
        assert_eq!(b.get(1).unwrap()[0].as_i64(), 1);
        assert_eq!(b.version(), 1);
    }

    #[test]
    fn record_versions_are_per_key_and_survive_delete() {
        let mut b = Bucket::new();
        assert_eq!(b.record_version(1), 0);
        b.put(1, row1(1));
        b.put(2, row1(2));
        // Neighbors do not couple: key 1 saw one write, key 2 one write.
        assert_eq!(b.record_version(1), 1);
        assert_eq!(b.record_version(2), 1);
        b.put(1, row1(10));
        assert_eq!(b.record_version(1), 2);
        assert_eq!(b.record_version(2), 1);
        // A delete is a versioned write, and the counter survives it so a
        // re-insert continues the chain instead of duplicating version 1.
        b.remove(1);
        assert_eq!(b.record_version(1), 3);
        assert!(b.insert_new(1, row1(99)));
        assert_eq!(b.record_version(1), 4);
        // Migration carry-over.
        b.set_record_version(7, 42);
        b.put(7, row1(7));
        assert_eq!(b.record_version(7), 43);
    }

    #[test]
    fn tombstones_are_versioned_but_not_records() {
        let mut b = Bucket::new();
        b.put(2, row1(2));
        b.remove(2);
        b.set_record_version(1, 0);
        assert_eq!((b.len(), b.is_empty(), b.contains(2)), (0, true, false));
        assert_eq!(b.iter().count(), 0);
        let versions: Vec<(u64, u64)> = b.versions().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(versions, vec![(1, 0), (2, 2)]);
        // Removing a key that never existed creates nothing.
        assert!(b.remove(3).is_none());
        assert_eq!(b.versions().count(), 2);
    }

    #[test]
    fn capacity_is_exact() {
        let mut b = Bucket::new();
        for k in [3u64, 1, 2] {
            b.put(k, row1(k as i64));
            assert_eq!(b.slots.capacity(), b.slots.len());
        }
    }

    #[test]
    fn iteration_is_key_ordered() {
        let mut b = Bucket::new();
        for k in [5u64, 1, 3] {
            b.put(k, row1(k as i64));
        }
        let keys: Vec<u64> = b.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![1, 3, 5]);
    }

    #[test]
    fn approx_size_counts_rows() {
        let mut b = Bucket::new();
        assert_eq!(b.approx_size(), 0);
        b.put(1, vec![Value::I64(1), Value::from("abcd")]);
        assert_eq!(b.approx_size(), 8 + 12 + 8);
    }
}
