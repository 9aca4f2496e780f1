//! Cross-crate integration tests: the full pipeline from workload trace
//! through partitioning to cluster execution, plus TPC-C consistency
//! invariants that witness serializability end to end.

use chiller::cluster::RunSpec;
use chiller::prelude::*;
use chiller_partition::chiller_part::distributed_ratio;
use chiller_partition::{
    ChillerPartitioner, ContentionModel, LoadMetric, PartitionResult, SchismPartitioner,
};
use chiller_workload::instacart::{self, InstacartConfig};
use chiller_workload::tpcc::{self, keys, tables, TpccConfig, TpccMix};
use std::sync::Arc;

// ---------------------------------------------------------------------
// TPC-C consistency (the spec's own audit conditions, scaled)
// ---------------------------------------------------------------------

/// Run the full mix under a protocol, quiesce, and audit the TPC-C
/// consistency conditions that must hold under serializability.
fn tpcc_audit(protocol: Protocol, seed: u64) {
    let cfg = TpccConfig::with_warehouses(4);
    let mut sim = SimConfig::default();
    sim.engine.concurrency = 3;
    sim.seed = seed;
    let mut cluster = tpcc::builder(&cfg, TpccMix::default(), protocol, sim)
        .build()
        .unwrap();
    let report = cluster.run(RunSpec::millis(1, 10));
    assert!(
        report.total_commits() > 500,
        "{protocol}: {}",
        report.summary()
    );
    cluster.quiesce();

    let initial_w_ytd = 300_000.0;
    let initial_d_ytd = 30_000.0;

    for engine in cluster.engines() {
        let store = engine.store();
        assert!(store.all_locks_free(), "{protocol}: leaked locks");
        // Audit every warehouse hosted on this partition.
        for (wkey, wrow) in store.table(tables::WAREHOUSE).iter() {
            let w_id = keys::warehouse_of(*wkey);

            // Condition 1-ish: w_ytd == initial + sum of district ytd deltas.
            let mut d_ytd_delta_sum = 0.0;
            let mut d_next_sum = 0u64;
            for d in 1..=10u64 {
                let drow = store
                    .read_opt(RecordId::new(tables::DISTRICT, keys::district(w_id, d)))
                    .expect("district exists");
                d_ytd_delta_sum += drow[3].as_f64() - initial_d_ytd;
                d_next_sum += drow[4].as_i64() as u64;

                // Condition: every order id below d_next_o_id exists, and
                // none at/above it.
                let next = drow[4].as_i64() as u64;
                assert!(
                    store.exists(RecordId::new(tables::ORDER, keys::order(w_id, d, next - 1))),
                    "{protocol}: missing order {} in (w{w_id},d{d})",
                    next - 1
                );
                assert!(
                    !store.exists(RecordId::new(tables::ORDER, keys::order(w_id, d, next))),
                    "{protocol}: phantom order {next}"
                );

                // Delivery pointer never passes the order counter.
                let last_delivered = drow[5].as_i64() as u64;
                assert!(
                    last_delivered < next,
                    "{protocol}: delivered unordered order"
                );
            }
            let w_ytd = wrow[2].as_f64();
            assert!(
                (w_ytd - initial_w_ytd - d_ytd_delta_sum).abs() < 1e-3,
                "{protocol}: w{} ytd {} vs districts {}",
                w_id,
                w_ytd - initial_w_ytd,
                d_ytd_delta_sum
            );
            let _ = d_next_sum;
        }

        // History sum equals warehouse+district ytd deltas / 2 (each payment
        // adds its amount to both w_ytd and d_ytd and one history row).
        let mut history_sum = 0.0;
        for (_, hrow) in store.table(tables::HISTORY).iter() {
            history_sum += hrow[1].as_f64();
        }
        for (wkey, wrow) in store.table(tables::WAREHOUSE).iter() {
            let _ = wkey;
            let w_ytd_delta = wrow[2].as_f64() - initial_w_ytd;
            assert!(
                (history_sum - w_ytd_delta).abs() < 1e-3,
                "{protocol}: history sum {history_sum} vs w_ytd delta {w_ytd_delta}"
            );
        }
    }
}

#[test]
fn tpcc_consistency_chiller() {
    tpcc_audit(Protocol::Chiller, 101);
}

#[test]
fn tpcc_consistency_2pl() {
    tpcc_audit(Protocol::TwoPhaseLocking, 102);
}

#[test]
fn tpcc_consistency_occ() {
    tpcc_audit(Protocol::Occ, 103);
}

#[test]
fn tpcc_order_lines_match_stock_movements() {
    // Every committed NewOrder decrements stock by exactly the ordered
    // quantities: sum of s_ytd across stock == sum of ol_quantity of
    // order lines beyond the preloaded ones.
    let cfg = TpccConfig::with_warehouses(2);
    let mut sim = SimConfig::default();
    sim.engine.concurrency = 2;
    sim.seed = 7;
    let mut cluster = tpcc::builder(&cfg, TpccMix::default(), Protocol::Chiller, sim)
        .build()
        .unwrap();
    cluster.run(RunSpec::millis(1, 10));
    cluster.quiesce();

    let mut s_ytd_sum = 0.0;
    let mut ol_qty_sum = 0.0;
    for engine in cluster.engines() {
        for (_, srow) in engine.store().table(tables::STOCK).iter() {
            s_ytd_sum += srow[2].as_f64();
        }
        for (olkey, olrow) in engine.store().table(tables::ORDER_LINE).iter() {
            // Skip preloaded lines (order id <= preloaded_orders).
            let o = (olkey >> 8) & 0xFFFF_FFFF;
            if o > cfg.preloaded_orders {
                ol_qty_sum += olrow[2].as_f64();
            }
        }
    }
    assert!(
        (s_ytd_sum - ol_qty_sum).abs() < 1e-6,
        "stock movement {s_ytd_sum} != ordered quantity {ol_qty_sum}"
    );
}

// ---------------------------------------------------------------------
// Partitioning pipeline → execution
// ---------------------------------------------------------------------

#[test]
fn instacart_pipeline_end_to_end() {
    let cfg = InstacartConfig {
        products: 5_000,
        ..Default::default()
    };
    let trace = instacart::trace(&cfg, 2_000, 4_000_000);
    let model = ContentionModel::new(30_000.0, trace.window_ns as f64);
    let mut partitioner = ChillerPartitioner::new(4, model);
    partitioner.load_metric = LoadMetric::Transactions;
    partitioner.hot_threshold = 0.05;
    partitioner.epsilon = 8.0;
    let chiller = partitioner.partition(&trace);
    assert!(chiller.num_hot() >= 2, "skew must yield hot records");

    let schism = SchismPartitioner::new(4).partition(&trace);
    // The central claim: Schism minimizes distributed txns better than
    // Chiller's layout…
    let r_schism = distributed_ratio(&trace.txns, &schism.into_placement());
    let r_chiller = distributed_ratio(&trace.txns, &chiller.into_lookup_table());
    assert!(r_schism <= r_chiller + 1e-9);

    // …but Chiller executes with far fewer aborts.
    let hot: Vec<RecordId> = chiller.hot_assignments.keys().copied().collect();
    let placement = Arc::new(chiller.into_lookup_table());
    let mut sim = SimConfig::default();
    sim.engine.concurrency = 4;
    sim.seed = 5;
    let mut chiller_cluster =
        instacart::builder(&cfg, 4, placement, hot, Protocol::Chiller, sim.clone())
            .build()
            .unwrap();
    let chiller_report = chiller_cluster.run(RunSpec::millis(1, 8));

    let mut hash_cluster = instacart::builder(
        &cfg,
        4,
        Arc::new(HashPlacement::new(4)),
        vec![],
        Protocol::TwoPhaseLocking,
        sim,
    )
    .build()
    .unwrap();
    let hash_report = hash_cluster.run(RunSpec::millis(1, 8));

    assert!(
        chiller_report.abort_rate() < hash_report.abort_rate(),
        "chiller {:.3} must abort less than hash+2pl {:.3}",
        chiller_report.abort_rate(),
        hash_report.abort_rate()
    );
    assert!(chiller_report.total_commits() > 0 && hash_report.total_commits() > 0);
}

#[test]
fn stock_conservation_in_instacart() {
    let cfg = InstacartConfig {
        products: 2_000,
        ..Default::default()
    };
    let mut sim = SimConfig::default();
    sim.engine.concurrency = 3;
    sim.seed = 11;
    let mut cluster = instacart::builder(
        &cfg,
        3,
        Arc::new(HashPlacement::new(3)),
        vec![],
        Protocol::Chiller,
        sim,
    )
    .build()
    .unwrap();
    let report = cluster.run(RunSpec::millis(1, 5));
    cluster.quiesce();
    // Total stock decrements == total items in committed orders.
    let mut decremented = 0i64;
    let mut ordered = 0i64;
    for engine in cluster.engines() {
        for (_, row) in engine.store().table(instacart::STOCK).iter() {
            decremented += 1_000_000 - row[1].as_i64();
        }
        for (_, row) in engine.store().table(instacart::ORDERS).iter() {
            ordered += row[1].as_i64();
        }
    }
    assert_eq!(decremented, ordered, "{}", report.summary());
}

/// FNV-1a over a layout: each vertex's partition, then the cut's bits.
fn layout_digest(result: &PartitionResult) -> u64 {
    let bytes = result
        .assignment
        .iter()
        .flat_map(|p| p.to_le_bytes())
        .chain(result.cut.to_bits().to_le_bytes());
    bytes.fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The partitioners' layouts on the trace `paper_claims` partitions, pinned
/// bit for bit: graph construction and coarsening may get faster, but any
/// change to what they compute (an adjacency order, a floating-point
/// summation order) moves a digest. Runs: Chiller with the benchmark's
/// `instacart_part` settings and with the defaults `paper_claims` uses for
/// Figure 8 and the lookup-table size, and Schism at k = 2 and k = 8.
#[test]
fn partitioner_layouts_are_pinned() {
    let trace = instacart::trace(&InstacartConfig::default(), 4_000, 8_000_000);
    let model = ContentionModel::new(30_000.0, trace.window_ns as f64);
    let mut tuned = ChillerPartitioner::new(8, model);
    tuned.load_metric = LoadMetric::Transactions;
    tuned.hot_threshold = 0.05;
    tuned.epsilon = 8.0;
    let digests = [
        layout_digest(&tuned.partition(&trace).result),
        layout_digest(&ChillerPartitioner::new(8, model).partition(&trace).result),
        layout_digest(&SchismPartitioner::new(2).partition(&trace).result),
        layout_digest(&SchismPartitioner::new(8).partition(&trace).result),
    ];
    assert_eq!(
        digests,
        [
            0x5613_da20_9fa2_1af4,
            0xa519_3455_aaaf_28b8,
            0x1748_157d_0b58_3de6,
            0xf6e2_3928_34f1_8089,
        ],
        "{digests:#018x?}"
    );
}

// ---------------------------------------------------------------------
// Determinism across the whole stack
// ---------------------------------------------------------------------

#[test]
fn full_stack_determinism() {
    let run = || {
        let cfg = TpccConfig::with_warehouses(3);
        let mut sim = SimConfig::default();
        sim.engine.concurrency = 2;
        sim.seed = 99;
        let mut cluster = tpcc::builder(&cfg, TpccMix::default(), Protocol::Chiller, sim)
            .build()
            .unwrap();
        let report = cluster.run(RunSpec::millis(1, 5));
        (report.total_commits(), report.total_aborts())
    };
    assert_eq!(run(), run());
}

#[test]
fn hot_record_helper_covers_warehouses_and_districts() {
    let cfg = TpccConfig::with_warehouses(3);
    let hot = tpcc::hot_records(&cfg);
    assert_eq!(hot.len(), 3 * 11);
}
