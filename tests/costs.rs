//! The commit path of the two other workloads, as rows of the cost table
//! in `support/costs.rs`: TPC-C's NewOrder and Payment on 8 warehouses, and
//! SmallBank's default mix on 8 nodes, both under Chiller. Messages,
//! events, allocations and requested bytes per commit, with commits and
//! aborts pinned.

#[path = "support/costs.rs"]
mod costs;

/// TPC-C also keeps a budget on the heap its window leaves behind per
/// commit: the rows it inserts.
#[test]
fn tpcc_commit_path_stays_inside_its_rows() {
    costs::check(&["tpcc.chiller"]);
}

#[test]
fn smallbank_commit_path_stays_inside_its_rows() {
    costs::check(&["smallbank.chiller"]);
}
