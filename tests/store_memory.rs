//! What the store costs per record, counted without noise.
//!
//! This binary installs a counting allocator and loads 200 000 transfer
//! accounts (two columns each, the `cold_uniform` shape) into one
//! `PartitionStore`: what the heap holds afterwards, over what it held
//! before, is the store's cost — the row, the record's slot, its share of
//! the bucket table. Requested bytes, not resident ones, so the figure is
//! exact and repeats run after run.
//!
//! Measured: 756 B per record when a bucket held its rows and their
//! versions in two `BTreeMap`s behind a SipHash table (each record paying
//! two B-tree leaves); 204 B with one exactly-sized slot list per bucket
//! and a deterministic hasher (a scratch prototype of the same change
//! measured 205 B).
//!
//! The counters are per thread: the harness runs tests, and prints their
//! results, on other threads, and those allocations must not land in what
//! a test counts.

use chiller_common::ids::{NodeId, PartitionId, RecordId, TxnId};
use chiller_common::time::SimTime;
use chiller_storage::{LockMode, PartitionStore};
use chiller_workload::transfer::{TransferConfig, ACCOUNTS};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Heap bytes this thread holds.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// Allocations (and reallocations) this thread made.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, with each thread's live bytes and allocation
/// calls counted.
struct Counting;

fn grew(by: usize) {
    LIVE.with(|l| l.set(l.get() + by as isize));
    ALLOCS.with(|a| a.set(a.get() + 1));
}

fn shrank(by: usize) {
    LIVE.with(|l| l.set(l.get() - by as isize));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters (const-initialised thread locals
// without destructors, so touching them never allocates) never touch the
// memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        shrank(layout.size());
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            shrank(layout.size());
            grew(new_size);
        }
        q
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const ACCOUNTS_LOADED: u64 = 200_000;
/// Requested heap bytes per loaded account, at what this store measured
/// (204 B; 756 B before one slot per record).
const BYTES_PER_RECORD_BUDGET: isize = 204;

fn config() -> TransferConfig {
    TransferConfig {
        accounts: ACCOUNTS_LOADED,
        ..TransferConfig::default()
    }
}

fn loaded() -> PartitionStore {
    let mut store = PartitionStore::new(PartitionId(0), TransferConfig::schema());
    for (rid, row) in config().initial_records() {
        store.load(rid, row);
    }
    store
}

#[test]
fn loaded_accounts_stay_inside_the_byte_budget() {
    let before = LIVE.with(Cell::get);
    let store = loaded();
    let bytes = LIVE.with(Cell::get) - before;
    let per_record = bytes / ACCOUNTS_LOADED as isize;
    eprintln!("{ACCOUNTS_LOADED} accounts: {bytes} B, {per_record} B per record");
    assert_eq!(store.num_records(), ACCOUNTS_LOADED as usize);
    assert!(
        per_record <= BYTES_PER_RECORD_BUDGET,
        "{per_record} B per record is over the {BYTES_PER_RECORD_BUDGET} B budget"
    );
}

/// Lock, read and copy, write back, unlock: the copy is the only
/// allocation. Locating the bucket, replacing the row and releasing the
/// lock allocate nothing.
#[test]
fn lock_read_write_unlock_allocates_only_the_copy() {
    let mut store = loaded();
    let txn = TxnId::new(NodeId(0), 1);
    for (i, key) in [0, 7, 123_456, ACCOUNTS_LOADED - 1].into_iter().enumerate() {
        let rid = RecordId::new(ACCOUNTS, key);
        let now = SimTime(i as u64);
        let before = ALLOCS.with(Cell::get);
        store.try_lock(rid, txn, LockMode::Exclusive, now).unwrap();
        let row = store.read(rid).unwrap().clone();
        store.write(rid, row);
        assert!(store.unlock(rid, txn, now).is_some());
        assert_eq!(ALLOCS.with(Cell::get) - before, 1, "quartet on {rid}");
    }
    assert!(store.all_locks_free());
}
