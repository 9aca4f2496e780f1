//! # chiller-workload
//!
//! The workloads of the paper's evaluation (§7), expressed against the
//! `chiller` public API:
//!
//! * [`tpcc`] — the full TPC-C mix (NewOrder, Payment, OrderStatus,
//!   Delivery, StockLevel) with warehouse partitioning: Figures 9 and 10.
//!   Scaled-down table cardinalities and the documented simplifications are
//!   listed in the module docs.
//! * [`instacart`] — a synthetic grocery-order generator calibrated to the
//!   published marginals of the Instacart 2017 dataset (top product in 15%
//!   of orders, second in 8%, baskets of ~10 items): the partitioning
//!   comparison of Figures 7 and 8 and the lookup-table-size study.
//! * [`flight`] — the paper's Figure 4 flight-booking procedure as a
//!   runnable workload (used by the `flight_booking` example).
//! * [`transfer`] — a minimal money-transfer microworkload with a
//!   controllable hot set (used by the quickstart example and the parity
//!   and stress suites).
//! * [`ycsb`] — a YCSB-style key-value microworkload with Zipfian skew,
//!   for controlled studies of the engines.
//! * [`shift`] — hotspot-*shifting* wrappers over any source: the drifting
//!   workloads that motivate the online-adaptation subsystem.
//! * [`smallbank`] — the classic write-heavy SmallBank banking mix with a
//!   countable conservation invariant: the certification workload for the
//!   black-box serializability checker (`CHILLER_CHECK`).
//!
//! Each workload module exposes one `builder(cfg, …, protocol, sim)` that
//! returns a [`ClusterBuilder`](chiller::cluster::ClusterBuilder) with the
//! schema, procedures, placement, hot set, initial records and one input
//! source per node already set. The caller picks the backend, worker
//! count, trace, check, durability and adaptation on it and calls
//! `build()`; a setter left uncalled keeps its `CHILLER_*` default.

pub mod flight;
pub mod instacart;
pub mod shift;
pub mod smallbank;
pub mod tpcc;
pub mod transfer;
pub mod ycsb;

#[cfg(test)]
mod send_bounds {
    //! Every input source must be `Send`: the wall-clock worker pool moves
    //! each engine (and its boxed source) between OS worker threads. `InputSource`
    //! carries the bound in its supertrait; these assertions pin it per
    //! concrete type so a stray `Rc`/raw pointer in a source is caught at
    //! compile time, next to the workload that introduced it.

    fn assert_send<T: Send>() {}

    #[test]
    fn all_sources_are_send() {
        assert_send::<crate::transfer::TransferSource>();
        assert_send::<crate::ycsb::YcsbSource>();
        assert_send::<crate::tpcc::source::TpccSource>();
        assert_send::<crate::instacart::InstacartSource>();
        assert_send::<crate::flight::FlightSource>();
        assert_send::<crate::smallbank::SmallBankSource>();
        assert_send::<crate::shift::ShiftedSource<crate::transfer::TransferSource>>();
        assert_send::<Box<dyn chiller_cc::input::InputSource>>();
    }
}
