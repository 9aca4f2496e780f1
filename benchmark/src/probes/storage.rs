//! `storage`: the per-record path a participant walks (lock word, row
//! read, row write, unlock), inserts, bulk load, and the hot lookup table.

use super::{median_of_batches, ns_per_op};
use chiller::prelude::*;
use chiller_storage::lock::LockMode;
use chiller_storage::store::PartitionStore;
use chiller_workload::transfer::{TransferConfig, ACCOUNTS};
use std::hint::black_box;
use std::time::Instant;

/// Operations per batch. The cache-missing probes cost ~1 µs per
/// operation, so 10 000 keeps a probe's six batches near 60 ms.
const OPS: u64 = 10_000;
const HOT_KEYS: u64 = 8;
const COLD_KEYS: u64 = 200_000;

fn account_row(k: u64) -> Row {
    vec![Value::from(k), Value::F64(1_000.0)]
}

fn loaded_store(keys: u64) -> PartitionStore {
    let mut store = PartitionStore::new(PartitionId(0), TransferConfig::schema());
    for k in 0..keys {
        store.load(RecordId::new(ACCOUNTS, k), account_row(k));
    }
    store
}

/// `try_lock` → `read` → `write` → `unlock` on keys drawn by `next_key`.
fn lock_read_write_unlock_ns(store: &mut PartitionStore, mut next_key: impl FnMut() -> u64) -> f64 {
    let txn = TxnId::new(NodeId(0), 1);
    ns_per_op(OPS, || {
        for _ in 0..OPS {
            let rid = RecordId::new(ACCOUNTS, next_key());
            store
                .try_lock(rid, txn, LockMode::Exclusive, SimTime::ZERO)
                .expect("the probe holds no other lock");
            let row = store.read(rid).expect("loaded key").clone();
            store.write(rid, black_box(row));
            black_box(store.unlock(rid, txn, SimTime::ZERO));
        }
    })
}

/// The record path over 8 keys: everything stays in cache.
pub fn probe_hot_ns() -> f64 {
    let mut store = loaded_store(HOT_KEYS);
    let mut i = 0u64;
    lock_read_write_unlock_ns(&mut store, || {
        i += 1;
        i % HOT_KEYS
    })
}

/// The record path over 200 000 keys in a scattered order: map walks
/// and row reads miss the cache, as on `cold_uniform`.
pub fn probe_cold_ns() -> f64 {
    let mut store = loaded_store(COLD_KEYS);
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    lock_read_write_unlock_ns(&mut store, || {
        // xorshift64: cheap, and not a stride the prefetcher can follow.
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % COLD_KEYS
    })
}

/// `insert` of fresh keys into a store that keeps growing across the
/// batches, as TPC-C's order tables do.
pub fn insert_ns() -> f64 {
    let mut store = PartitionStore::new(PartitionId(0), TransferConfig::schema());
    let mut next = 0u64;
    ns_per_op(OPS, || {
        for _ in 0..OPS {
            store
                .insert(RecordId::new(ACCOUNTS, next), account_row(next))
                .expect("fresh key");
            next += 1;
        }
    })
}

/// Bulk `load` into an empty store, per row (rows built outside the
/// timed region): the set-up cost of a large table.
pub fn load_ns_per_row() -> f64 {
    median_of_batches(|| {
        let rows: Vec<(RecordId, Row)> = (0..OPS)
            .map(|k| (RecordId::new(ACCOUNTS, k), account_row(k)))
            .collect();
        let mut store = PartitionStore::new(PartitionId(0), TransferConfig::schema());
        let start = Instant::now();
        for (rid, row) in rows {
            store.load(rid, row);
        }
        let ns = start.elapsed().as_nanos() as f64 / OPS as f64;
        black_box(store.num_records());
        ns
    })
}

/// `LookupTable::partition_of` on a hot record (a lookup-table hit).
pub fn lookup_hot_hit_ns() -> f64 {
    const ENTRIES: u64 = 64;
    let table = LookupTable::with_entries(
        (0..ENTRIES).map(|k| (RecordId::new(ACCOUNTS, k), PartitionId((k % 8) as u32))),
        HashPlacement::new(8),
    );
    ns_per_op(OPS, || {
        for i in 0..OPS {
            black_box(table.partition_of(black_box(RecordId::new(ACCOUNTS, i % ENTRIES))));
        }
    })
}
