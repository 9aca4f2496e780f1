//! What the store and the transfer commit path cost, as rows of the cost
//! table in `support/costs.rs`.
//!
//! The store's cost is what the heap holds after loading 200 000 transfer
//! accounts, per record: 756 B when a bucket held its rows and their
//! versions in two `BTreeMap`s behind a SipHash table, 204.66 B with one
//! exactly-sized slot list per bucket and a deterministic hasher. The
//! commit path's is what a 20 ms window of transfers costs per commit, for
//! each protocol with a hot fraction of 0.3 and of none. Before the commit
//! path moved rows instead of copying them and grouped by partition with a
//! sort instead of trees, those runs made 47.17 / 52.05 / 67.82 allocations
//! per commit (Chiller / 2PL / OCC) at 0.3 and 51.38 / 49.34 / 56.59 at 0.

#[path = "support/costs.rs"]
mod costs;

#[test]
fn loaded_accounts_stay_inside_the_byte_budget() {
    costs::check(&["store.load"]);
}

/// Locating the bucket, replacing the row and releasing the lock allocate
/// nothing: the copy is the quartet's one allocation.
#[test]
fn lock_read_write_unlock_allocates_only_the_copy() {
    costs::check(&["store.quartet"]);
}

#[test]
fn chiller_commit_path_stays_inside_the_allocation_budget() {
    costs::check(&["transfer.chiller.hot30", "transfer.chiller.hot0"]);
}

#[test]
fn two_pl_commit_path_stays_inside_the_allocation_budget() {
    costs::check(&["transfer.2pl.hot30", "transfer.2pl.hot0"]);
}

#[test]
fn occ_commit_path_stays_inside_the_allocation_budget() {
    costs::check(&["transfer.occ.hot30", "transfer.occ.hot0"]);
}
