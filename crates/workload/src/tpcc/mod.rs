//! Full TPC-C for the simulated cluster (paper §7.3–7.4).
//!
//! ## Faithfulness and documented simplifications
//!
//! * All five transaction types run at the standard mix (NewOrder 45%,
//!   Payment 43%, OrderStatus 4%, Delivery 4%, StockLevel 4%), with the
//!   standard remote probabilities (10% remote NewOrder items, 15% remote
//!   Payment customers) as sweep knobs.
//! * Partitioned **by warehouse**, one warehouse per engine, exactly like
//!   the paper's §7.3 setup.
//! * Contention points preserved: every NewOrder increments one of the 10
//!   district rows; every Payment updates the warehouse row; StockLevel
//!   reads the district row with a shared lock.
//! * The ITEM table is read-only in TPC-C; like most distributed TPC-C
//!   implementations the price/name lookup is resolved at input-generation
//!   time (equivalent to full replication of ITEM). This removes no
//!   contention — ITEM is never written.
//! * Delivery processes one district per invocation (the spec queues the
//!   10-district sweep asynchronously); the order row carries its total so
//!   the customer credit needs no order-line scan.
//! * OrderStatus reads a preloaded order by id (the spec's
//!   latest-order-of-customer secondary index is out of scope); StockLevel
//!   examines the most recent order's lines and their stock rows.
//! * Cardinalities are scaled (customers/district, items/warehouse,
//!   preloaded orders/district are configurable) so simulations fit in
//!   memory; contention behaviour is governed by the district/warehouse
//!   rows, which are kept 1:1 with the spec.

pub mod gen;
pub mod invariants;
pub mod procs;
pub mod schema;
pub mod source;

pub use gen::{load_tpcc, TpccConfig};
pub use invariants::assert_tpcc_invariants;
pub use procs::{register_procs, TpccProcs};
pub use schema::{keys, tables, tpcc_schema, TpccPlacement};
pub use source::{builder, TpccMix, TpccSource};

use chiller_common::ids::RecordId;

/// The hot set the paper identifies for TPC-C: the warehouse row and the
/// 10 district rows of every warehouse (§7.3.2: NewOrder's district
/// increment and Payment's warehouse update).
pub fn hot_records(cfg: &TpccConfig) -> Vec<RecordId> {
    let mut hot = Vec::new();
    for w in 1..=cfg.warehouses {
        hot.push(RecordId::new(tables::WAREHOUSE, keys::warehouse(w)));
        for d in 1..=10 {
            hot.push(RecordId::new(tables::DISTRICT, keys::district(w, d)));
        }
    }
    hot
}
