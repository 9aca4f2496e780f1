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
//! The same allocator also counts the commit path: heap allocations and
//! requested bytes per committed transfer on the simulator, for each
//! protocol with and without a hot set. The simulator is deterministic,
//! so each count repeats exactly, and the commits and aborts of each run
//! are pinned as well: a change that moves them changed the execution,
//! not just its cost.
//!
//! The counters are per thread: the harness runs tests, and prints their
//! results, on other threads, and those allocations must not land in what
//! a test counts.

use chiller::cluster::RunSpec;
use chiller::prelude::{Duration, Protocol, SimConfig};
use chiller_common::ids::{NodeId, PartitionId, RecordId, TxnId};
use chiller_common::time::SimTime;
use chiller_storage::{LockMode, PartitionStore};
use chiller_workload::transfer::{self, TransferConfig, ACCOUNTS};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Heap bytes this thread holds.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// Allocations (and reallocations) this thread made.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
    /// Bytes those allocations asked for.
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, with each thread's live bytes, allocation calls
/// and requested bytes counted.
struct Counting;

fn grew(by: usize) {
    LIVE.with(|l| l.set(l.get() + by as isize));
    ALLOCS.with(|a| a.set(a.get() + 1));
    REQUESTED.with(|r| r.set(r.get() + by));
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

/// One run of the commit-path recipe: its budget and its pinned outcome.
///
/// Each budget is what the run measured once the commit path moved rows
/// instead of copying them and grouped by partition with a sort instead
/// of trees. Before that change, the same runs made 47.17 / 52.05 / 67.82
/// allocations per commit (Chiller / 2PL / OCC) with a hot fraction of
/// 0.3, and 51.38 / 49.34 / 56.59 with none.
struct CommitPath {
    protocol: Protocol,
    hot_fraction: f64,
    /// Heap allocations per commit this run may make.
    allocs_budget: f64,
    /// Commits and transient aborts in the measured window, exactly.
    commits: u64,
    aborts: u64,
}

/// Transfers over 2 000 accounts with 8 hot ones, on 8 nodes running 4
/// transactions each, seed 42: warm up for 1 ms of virtual time, clear the
/// metrics, then count what the next 20 ms allocate, per commit.
fn check_commit_path(row: CommitPath) {
    let cfg = TransferConfig {
        accounts: 2_000,
        hot_set: 8,
        hot_fraction: row.hot_fraction,
    };
    let mut sim = SimConfig {
        seed: 42,
        ..SimConfig::default()
    };
    sim.engine.concurrency = 4;
    let mut cluster = transfer::builder(&cfg, 8, row.protocol, sim)
        .build()
        .unwrap();
    cluster.run(RunSpec::millis(1, 1));
    cluster.reset_metrics();
    let allocs_before = ALLOCS.with(Cell::get);
    let bytes_before = REQUESTED.with(Cell::get);
    let report = cluster.run_more(Duration::from_millis(20));
    let allocs = ALLOCS.with(Cell::get) - allocs_before;
    let bytes = REQUESTED.with(Cell::get) - bytes_before;
    let commits = report.total_commits();
    let aborts = report.total_aborts();
    let per_commit = allocs as f64 / commits as f64;
    eprintln!(
        "commit path: {:<7} hot {:.1} {per_commit:>6.2} allocs/commit {:>5.0} B/commit \
         {commits:>6} commits {aborts:>5} aborts",
        row.protocol.to_string(),
        row.hot_fraction,
        bytes as f64 / commits as f64,
    );
    assert_eq!(
        (commits, aborts),
        (row.commits, row.aborts),
        "{} at hot {}: the execution itself changed",
        row.protocol,
        row.hot_fraction
    );
    assert!(
        per_commit <= row.allocs_budget,
        "{} at hot {}: {per_commit:.2} allocations per commit is over the {} budget",
        row.protocol,
        row.hot_fraction,
        row.allocs_budget
    );
}

#[test]
fn chiller_commit_path_stays_inside_the_allocation_budget() {
    check_commit_path(CommitPath {
        protocol: Protocol::Chiller,
        hot_fraction: 0.3,
        allocs_budget: 29.50,
        commits: 20_490,
        aborts: 136,
    });
    check_commit_path(CommitPath {
        protocol: Protocol::Chiller,
        hot_fraction: 0.0,
        allocs_budget: 31.60,
        commits: 26_734,
        aborts: 521,
    });
}

#[test]
fn two_pl_commit_path_stays_inside_the_allocation_budget() {
    check_commit_path(CommitPath {
        protocol: Protocol::TwoPhaseLocking,
        hot_fraction: 0.3,
        allocs_budget: 31.61,
        commits: 17_330,
        aborts: 6_892,
    });
    check_commit_path(CommitPath {
        protocol: Protocol::TwoPhaseLocking,
        hot_fraction: 0.0,
        allocs_budget: 29.56,
        commits: 26_734,
        aborts: 521,
    });
}

#[test]
fn occ_commit_path_stays_inside_the_allocation_budget() {
    check_commit_path(CommitPath {
        protocol: Protocol::Occ,
        hot_fraction: 0.3,
        allocs_budget: 42.84,
        commits: 11_216,
        aborts: 5_627,
    });
    check_commit_path(CommitPath {
        protocol: Protocol::Occ,
        hot_fraction: 0.0,
        allocs_budget: 35.71,
        commits: 23_546,
        aborts: 626,
    });
}
