//! `sproc`: the run-time two-region decision, taken once per Chiller
//! transaction before any lock is requested.

use super::ns_per_op;
use chiller::prelude::PartitionId;
use chiller_sproc::decision::decide_regions;
use chiller_workload::tpcc::{procs::new_order_proc, tables};
use std::hint::black_box;

const OPS: u64 = 5_000;

/// `decide_regions` on a 10-line NewOrder homed on one partition with
/// one remote stock line; warehouse and district rows are hot (the
/// paper's TPC-C hot set), so the inner region is non-empty.
pub fn decide_regions_ns() -> f64 {
    let proc_ = new_order_proc(10);
    let mut op_partition = vec![Some(PartitionId(0)); proc_.num_ops()];
    let first_stock = proc_
        .ops
        .iter()
        .position(|op| op.table == tables::STOCK)
        .expect("NewOrder updates stock");
    op_partition[first_stock] = Some(PartitionId(1));
    let op_hot: Vec<bool> = proc_
        .ops
        .iter()
        .map(|op| op.table == tables::WAREHOUSE || op.table == tables::DISTRICT)
        .collect();
    ns_per_op(OPS, || {
        for _ in 0..OPS {
            black_box(decide_regions(
                black_box(&proc_),
                black_box(&op_partition),
                black_box(&op_hot),
            ));
        }
    })
}
