//! Full TPC-C on a simulated 8-warehouse cluster, comparing the three
//! execution models at several concurrency levels (a miniature Figure 9).
//!
//! ```sh
//! cargo run --release --example tpcc_cluster
//! ```

use chiller::cluster::RunSpec;
use chiller::prelude::*;
use chiller_workload::tpcc::{self, TpccConfig, TpccMix};

fn main() {
    let cfg = TpccConfig::with_warehouses(8);
    println!(
        "TPC-C: {} warehouses, {} customers/district, {} items/warehouse\n",
        cfg.warehouses, cfg.customers_per_district, cfg.items
    );
    println!(
        "{:<10} {:>4}  {:>12} {:>10} {:>12} {:>14}",
        "protocol", "conc", "ktps", "abort", "latency(us)", "payment-abort"
    );
    for protocol in [Protocol::TwoPhaseLocking, Protocol::Occ, Protocol::Chiller] {
        for conc in [1usize, 2, 4] {
            let mut sim = SimConfig::default();
            sim.engine.concurrency = conc;
            sim.seed = 1;
            let mut cluster = tpcc::builder(&cfg, TpccMix::default(), protocol, sim)
                .build()
                .unwrap();
            let report = cluster.run(RunSpec::millis(2, 15));
            println!(
                "{:<10} {:>4}  {:>12.1} {:>10.3} {:>12.1} {:>14.3}",
                protocol.to_string(),
                conc,
                report.throughput() / 1e3,
                report.abort_rate(),
                report.mean_latency_us(),
                report.abort_rate_of("Payment"),
            );
        }
    }
    println!("\nThe paper's Figure 9 story: with more concurrent transactions per");
    println!("warehouse, 2PL and OCC drown in district/warehouse-row aborts while");
    println!("Chiller's two-region execution keeps scaling until CPU-bound.");
}
