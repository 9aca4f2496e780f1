//! The paper's evaluation as assertions: one test per artifact.
//!
//! Each test runs the deterministic simulator at a reduced size and
//! asserts the *shape* of one figure, table or ablation — who is fastest,
//! what grows, what narrows — as inequalities. The simulator is
//! byte-deterministic per seed, so a threshold is exact, not a noise
//! bound. Each one sits between the value the simulator gives today and
//! the paper's claim (or the null, where today's value falls short of the
//! paper), so a change that flattens a figure fails here.
//!
//! Every doc comment states the paper's expected shape, what is asserted,
//! and which parts of the paper's claim the simulator does *not*
//! reproduce today. Those are recorded, not asserted. Each test prints
//! its measured values on one line (`--nocapture` shows them).
//!
//! Wall-clock throughput on real threads is `benchmark/run.sh`'s job.

use chiller::cluster::RunSpec;
use chiller::prelude::*;
use chiller::Cluster;
use chiller_partition::chiller_part::distributed_ratio;
use chiller_partition::{
    ChillerPartitioner, ContentionModel, LoadMetric, SchismPartitioner, WorkloadTrace,
};
use chiller_workload::instacart::{self, InstacartConfig};
use chiller_workload::tpcc::{self, TpccConfig, TpccMix};
use chiller_workload::transfer::{transfer_proc, TransferConfig, TransferSource};
use chiller_workload::ycsb::{self, YcsbConfig};
use std::sync::Arc;

const PROTOCOLS: [Protocol; 3] = [Protocol::TwoPhaseLocking, Protocol::Occ, Protocol::Chiller];

fn sim(concurrency: usize, seed: u64) -> SimConfig {
    let mut sim = SimConfig::default();
    sim.engine.concurrency = concurrency;
    sim.seed = seed;
    sim
}

/// Throughput (txn/s of virtual time) and abort rate over a 1 ms warm-up
/// and a 5 ms measured window.
fn measure(mut cluster: Cluster) -> (f64, f64) {
    let report = cluster.run(RunSpec::millis(1, 5));
    (report.throughput(), report.abort_rate())
}

/// The offline statistics trace every Instacart artifact partitions: 4 000
/// baskets over an 8 ms window.
fn instacart_trace(cfg: &InstacartConfig) -> WorkloadTrace {
    instacart::trace(cfg, 4_000, 8_000_000)
}

fn contention_model(trace: &WorkloadTrace) -> ContentionModel {
    ContentionModel::new(30_000.0, trace.window_ns as f64)
}

fn tpcc(mix: TpccMix, protocol: Protocol, sim: SimConfig) -> Cluster {
    tpcc::builder(&TpccConfig::with_warehouses(8), mix, protocol, sim)
        .build()
        .unwrap()
}

#[derive(Clone, Copy, PartialEq)]
enum Scheme {
    Hash,
    Schism,
    Chiller,
}

/// One Figure 7 point. Hash and Schism placements run conventional
/// single-region 2PL+2PC: without a contention-aware layout there is no
/// legal inner region. The Chiller placement runs two-region execution
/// with its hot lookup table, which is the co-design the paper evaluates.
fn fig7_throughput(cfg: &InstacartConfig, trace: &WorkloadTrace, k: usize, scheme: Scheme) -> f64 {
    let (placement, hot): (Arc<dyn Placement + Send + Sync>, Vec<RecordId>) = match scheme {
        Scheme::Hash => (Arc::new(HashPlacement::new(k as u32)), vec![]),
        Scheme::Schism => {
            let p = SchismPartitioner::new(k as u32).partition(trace);
            (Arc::new(p.into_placement()), vec![])
        }
        Scheme::Chiller => {
            let mut partitioner = ChillerPartitioner::new(k as u32, contention_model(trace));
            // Balance on transaction load, so heavily co-written staples
            // may share a partition, and let the hot graph's balance
            // constraint be loose: hot records are a small share of the
            // data, and co-locating the staple clique is the
            // contention-optimal layout.
            partitioner.load_metric = LoadMetric::Transactions;
            partitioner.hot_threshold = 0.05;
            partitioner.epsilon = 8.0;
            let p = partitioner.partition(trace);
            let hot = p.hot_assignments.keys().copied().collect();
            (Arc::new(p.into_lookup_table()), hot)
        }
    };
    let protocol = if scheme == Scheme::Chiller {
        Protocol::Chiller
    } else {
        Protocol::TwoPhaseLocking
    };
    let cluster = instacart::builder(cfg, k, placement, hot, protocol, sim(4, 0xF167 + k as u64))
        .build()
        .unwrap();
    measure(cluster).0
}

/// **Figure 7**: Instacart NewOrder throughput under hash, Schism and
/// Chiller partitioning as the partition count grows (constant data, one
/// engine per partition).
///
/// Paper: hash flat and lowest; Schism ≈ 1.5× hash but not scaling;
/// Chiller highest and scaling near-linearly (≈ 2× Schism at 8).
///
/// Asserted at k ∈ {2, 8}: Chiller is highest at both (today 151 vs
/// 148 / 147 Ktps at k = 2, 379 vs 316 / 301 at k = 8); its lead over the
/// best baseline grows with k and is ≥ 1.1× at k = 8 (today 1.03× → 1.20×);
/// it scales ≥ 2× from k = 2 to k = 8 (today 2.50×).
///
/// Not reproduced: Schism is not ≈ 1.5× hash (1.01× at k = 2, 0.95× at
/// k = 8), and the baselines are not flat (hash scales 2.15×). On the
/// simulator, more engines add CPU for every scheme.
#[test]
fn fig7_chiller_is_fastest_and_its_lead_grows_with_partitions() {
    let cfg = InstacartConfig::default();
    let trace = instacart_trace(&cfg);
    let at = |k: usize| {
        let [hash, schism, chiller] = [Scheme::Hash, Scheme::Schism, Scheme::Chiller]
            .map(|s| fig7_throughput(&cfg, &trace, k, s));
        eprintln!(
            "fig7 k={k}: hash {:.1} schism {:.1} chiller {:.1} Ktps",
            hash / 1e3,
            schism / 1e3,
            chiller / 1e3
        );
        (chiller, chiller / hash.max(schism))
    };
    let (chiller2, lead2) = at(2);
    let (chiller8, lead8) = at(8);
    assert!(
        lead2 > 1.0,
        "k=2: Chiller must be fastest (lead {lead2:.3}×)"
    );
    assert!(lead8 >= 1.1, "k=8: Chiller's lead {lead8:.3}× < 1.1×");
    assert!(
        lead8 > lead2,
        "Chiller's lead must grow with k ({lead2:.3}× → {lead8:.3}×)"
    );
    let scaling = chiller8 / chiller2;
    assert!(
        scaling >= 2.0,
        "Chiller scales only {scaling:.2}× from 2 to 8 partitions"
    );
}

/// **Figure 8**: share of distributed transactions each scheme's layout
/// produces on the Instacart trace.
///
/// Paper: Schism lowest (it optimises exactly this); Chiller *higher*
/// than Schism (≈ 60% more at 2 partitions, narrowing as partitions
/// grow), yet faster in Figure 7. Minimising distributed transactions is
/// the wrong objective on fast networks: this is the paper's central
/// claim.
///
/// Asserted at k ∈ {2, 8}: Schism's ratio is the lowest of the three;
/// Chiller's is above Schism's by ≥ 1.5× at k = 2 (today 1.68×), and the
/// gap narrows at k = 8 (today 1.23×). Fully reproduced.
#[test]
fn fig8_schism_is_least_distributed_and_chiller_more() {
    let cfg = InstacartConfig::default();
    let trace = instacart_trace(&cfg);
    let at = |k: u32| {
        let hash = distributed_ratio(&trace.txns, &HashPlacement::new(k));
        let schism = SchismPartitioner::new(k).partition(&trace).into_placement();
        let schism = distributed_ratio(&trace.txns, &schism);
        let chiller = ChillerPartitioner::new(k, contention_model(&trace))
            .partition(&trace)
            .into_lookup_table();
        let chiller = distributed_ratio(&trace.txns, &chiller);
        eprintln!("fig8 k={k}: hash {hash:.3} schism {schism:.3} chiller {chiller:.3}");
        assert!(
            schism < hash && schism < chiller,
            "k={k}: Schism must have the lowest distributed ratio"
        );
        chiller / schism
    };
    let gap2 = at(2);
    let gap8 = at(8);
    assert!(
        gap2 >= 1.5,
        "k=2: Chiller/Schism distributed ratio {gap2:.3}× < 1.5×"
    );
    assert!(
        gap8 < gap2,
        "the gap must narrow with k ({gap2:.3}× → {gap8:.3}×)"
    );
}

/// **Figure 9 (a, b)**: the full TPC-C mix, warehouse-partitioned (same
/// layout for every protocol), as concurrent transactions per warehouse
/// grow.
///
/// Paper: all protocols ≈ equal at 1; only Chiller's throughput rises
/// with concurrency, saturating near 4 (CPU-bound); 2PL and OCC abort
/// rates climb steeply, OCC's most; under 2PL the Payment abort rate
/// approaches 100% by 4 (warehouse-lock starvation, 9c).
///
/// Asserted at concurrency ∈ {1, 4, 8} on 8 warehouses: Chiller rises
/// ≥ 1.3× from 1 to 4 (today 1.55×) and then saturates, gaining ≤ 1.15×
/// from 4 to 8 (today 1.02×); neither baseline rises ≥ 1.2× from 1 to 4
/// (2PL 1.08×, OCC 0.88×); Chiller is fastest at every point; at
/// concurrency ≥ 4 Chiller aborts ≤ 5% (today ≤ 1.4%) while 2PL and OCC
/// climb from ≤ 5% at 1 (today 0.2%) to ≥ 25% (today 41–56% and 35–52%).
///
/// Not reproduced: OCC does not abort most steeply (2PL aborts more
/// here), and 2PL's Payment abort rate reaches ≈ 0.52, not ≈ 1.0.
#[test]
fn fig9_only_chiller_scales_with_concurrency_on_tpcc() {
    let concurrency = [1usize, 4, 8];
    // [concurrency][protocol] = (throughput, abort rate)
    let points: Vec<Vec<(f64, f64)>> = concurrency
        .iter()
        .map(|&conc| {
            PROTOCOLS
                .iter()
                .map(|&p| measure(tpcc(TpccMix::default(), p, sim(conc, 0xF19))))
                .collect()
        })
        .collect();
    for (conc, row) in concurrency.iter().zip(&points) {
        eprintln!(
            "fig9 conc={conc}: 2pl {:.1} occ {:.1} chiller {:.1} Ktps, aborts {:.3} / {:.3} / {:.3}",
            row[0].0 / 1e3,
            row[1].0 / 1e3,
            row[2].0 / 1e3,
            row[0].1,
            row[1].1,
            row[2].1
        );
    }
    let tps = |ci: usize, pi: usize| points[ci][pi].0;
    let (two_pl, occ, chiller) = (0, 1, 2);

    let rise = tps(1, chiller) / tps(0, chiller);
    assert!(rise >= 1.3, "Chiller rises only {rise:.2}× from 1 to 4");
    let saturation = tps(2, chiller) / tps(1, chiller);
    assert!(
        saturation <= 1.15,
        "Chiller still rises {saturation:.2}× from 4 to 8"
    );
    for (name, pi) in [("2PL", two_pl), ("OCC", occ)] {
        let r = tps(1, pi) / tps(0, pi);
        assert!(r < 1.2, "{name} rises {r:.2}× from 1 to 4");
    }
    for (ci, conc) in concurrency.iter().enumerate() {
        assert!(
            tps(ci, chiller) > tps(ci, two_pl).max(tps(ci, occ)),
            "conc={conc}: Chiller must be fastest"
        );
        let [a2pl, aocc, achiller] = [two_pl, occ, chiller].map(|pi| points[ci][pi].1);
        if *conc == 1 {
            assert!(
                a2pl <= 0.05 && aocc <= 0.05,
                "conc=1: baseline aborts 2PL {a2pl:.3} OCC {aocc:.3} above 0.05"
            );
        } else {
            assert!(
                achiller <= 0.05,
                "conc={conc}: Chiller aborts {achiller:.3}"
            );
            assert!(
                a2pl >= 0.25 && aocc >= 0.25,
                "conc={conc}: baseline aborts 2PL {a2pl:.3} OCC {aocc:.3} below 0.25"
            );
        }
    }
}

/// **Figure 10**: NewOrder + Payment (50/50) as the share of distributed
/// transactions goes from 0% to 100%, 5 concurrent per warehouse.
///
/// Paper: every baseline degrades steeply as the distributed share rises
/// (prolonged locks compound conflicts); Chiller has the best absolute
/// throughput and degrades least, by < 20% from 0% to 100%.
///
/// Asserted at 0% and 100%: Chiller is fastest at both ends (today 760 /
/// 644 Ktps against 2PL 415 / 366 and OCC 260 / 260), and it loses < 20%
/// (today 15.4%).
///
/// Not reproduced: the baselines do not degrade steeply, so Chiller does
/// not degrade least (2PL loses ≈ 12%, OCC nothing).
#[test]
fn fig10_chiller_is_fastest_and_loses_under_a_fifth_when_all_distributed() {
    let at = |distributed: f64| -> [f64; 3] {
        PROTOCOLS.map(|p| {
            measure(tpcc(
                TpccMix::payment_neworder(distributed),
                p,
                sim(5, 0xF10),
            ))
            .0
        })
    };
    let local = at(0.0);
    let remote = at(1.0);
    for (label, row) in [("0%", local), ("100%", remote)] {
        eprintln!(
            "fig10 {label} distributed: 2pl {:.1} occ {:.1} chiller {:.1} Ktps",
            row[0] / 1e3,
            row[1] / 1e3,
            row[2] / 1e3
        );
        assert!(
            row[2] > row[0].max(row[1]),
            "{label}: Chiller must be fastest"
        );
    }
    let loss = 1.0 - remote[2] / local[2];
    assert!(
        loss < 0.20,
        "Chiller loses {:.1}% going fully distributed",
        loss * 100.0
    );
}

/// **Network ablation** (§2 premise): contention-centric execution targets
/// fast networks. On a slow TCP-class network every inner-region
/// delegation costs a full slow round trip, so message cost dominates
/// both protocols and Chiller's advantage narrows.
///
/// Asserted on TPC-C, 8 warehouses, 4 concurrent: Chiller/2PL is ≥ 1.4× on
/// the default RDMA-class network (today 1.75×) and narrows by ≥ 0.2 on
/// `slow_tcp` (today 1.21×). Fully reproduced.
#[test]
fn ablation_network_slow_tcp_narrows_chillers_lead() {
    let speedup = |network: NetworkConfig| {
        let [two_pl, chiller] = [Protocol::TwoPhaseLocking, Protocol::Chiller].map(|p| {
            let sim = SimConfig {
                network: network.clone(),
                ..sim(4, 0xAB1)
            };
            measure(tpcc(TpccMix::default(), p, sim)).0
        });
        chiller / two_pl
    };
    let fast = speedup(NetworkConfig::default());
    let slow = speedup(NetworkConfig::slow_tcp());
    eprintln!("ablation_network: chiller/2pl fast {fast:.2}× slow {slow:.2}×");
    assert!(fast >= 1.4, "fast network: Chiller/2PL {fast:.2}× < 1.4×");
    assert!(
        fast - slow >= 0.2,
        "slow network must narrow the lead ({fast:.2}× → {slow:.2}×)"
    );
}

/// **Ablation: re-ordering alone vs the co-design** (§1): "re-ordering
/// operations without re-considering the partitioning scheme only leads
/// to limited performance improvements; the challenge lies in optimizing
/// both at the same time."
///
/// Transfers with a co-written hot set of 12 accounts on 6 nodes, four
/// configurations: 2PL over hash placement (the baseline); two-region
/// execution over hash placement (re-ordering alone: hot records land on
/// arbitrary partitions, so many transactions find no legal inner host);
/// 2PL over the contention-aware layout with the hot set co-located
/// (partitioning alone); and two-region execution over that layout (the
/// full system).
///
/// Asserted at the full 2 + 20 ms window: the full system is ≥ 1.3× the
/// baseline (today 1.48×), ≥ 1.3× re-ordering alone (today 0.93× the
/// baseline) and ≥ 1.1× partitioning alone (today 1.30× the baseline).
/// Fully reproduced: neither half alone gets the co-design's throughput.
#[test]
fn ablation_reorder_alone_loses_to_the_co_design() {
    let cfg = TransferConfig {
        accounts: 4_000,
        hot_set: 12,
        hot_fraction: 0.5,
    };
    let nodes = 6;
    let run = |protocol: Protocol, contention_aware: bool| {
        let mut builder = ClusterBuilder::new(TransferConfig::schema(), nodes);
        let proc = builder.register_proc(transfer_proc());
        let placement: Arc<dyn Placement + Send + Sync> = if contention_aware {
            Arc::new(cfg.chiller_placement(nodes as u32))
        } else {
            Arc::new(HashPlacement::new(nodes as u32))
        };
        builder
            .protocol(protocol)
            .config(sim(6, 0xAB2))
            .placement(placement)
            .hot_records(cfg.hot_records())
            .load(cfg.initial_records());
        let source_cfg = cfg.clone();
        builder.source_per_node(move |_| Box::new(TransferSource::new(source_cfg.clone(), proc)));
        let mut cluster = builder.build().expect("valid cluster");
        cluster.run(RunSpec::millis(2, 20)).throughput()
    };
    let baseline = run(Protocol::TwoPhaseLocking, false);
    let reorder_only = run(Protocol::Chiller, false) / baseline;
    let full = run(Protocol::Chiller, true) / baseline;
    let partition_only = run(Protocol::TwoPhaseLocking, true) / baseline;
    eprintln!(
        "ablation_reorder: vs 2PL+hash, reorder alone {reorder_only:.2}× \
         partition alone {partition_only:.2}× full {full:.2}×"
    );
    assert!(full >= 1.3, "full co-design only {full:.2}× the baseline");
    assert!(
        full >= 1.3 * reorder_only,
        "full co-design {full:.2}× must clearly beat re-ordering alone {reorder_only:.2}×"
    );
    assert!(
        full >= 1.1 * partition_only,
        "full co-design {full:.2}× must beat partitioning alone {partition_only:.2}×"
    );
}

/// **§7.2.2 lookup-table size**: Schism must store an entry for every
/// traced record (the Instacart layout is not range-expressible); Chiller
/// stores entries only for records above the contention threshold.
///
/// Paper: Schism's table ≈ 10× larger. Asserted at k = 8: ≥ 10× with a
/// non-empty Chiller table (today 25 727 entries against 20). Fully
/// reproduced.
#[test]
fn table_lookup_size_schism_needs_ten_times_the_entries() {
    let cfg = InstacartConfig::default();
    let trace = instacart_trace(&cfg);
    let schism = SchismPartitioner::new(8).partition(&trace).lookup_entries();
    let chiller = ChillerPartitioner::new(8, contention_model(&trace))
        .partition(&trace)
        .num_hot();
    eprintln!("table_lookup_size k=8: schism {schism} chiller {chiller} entries");
    assert!(chiller > 0, "Chiller's lookup table is empty");
    assert!(
        schism >= 10 * chiller,
        "Schism {schism} vs Chiller {chiller} entries: < 10×"
    );
}

/// **§4.4 partitioning cost**: Schism's workload graph is a clique,
/// `n(n-1)/2` edges per transaction; Chiller's star has `n`. The paper
/// reports Schism up to ≈ 5× slower to partition.
///
/// Asserted on the deterministic edge counts, never on wall-clock time:
/// at 2 000 transactions the clique has ≥ 4× the star's edges (today
/// 96 447 against 19 777, 4.88×). The time ratio itself is not asserted.
#[test]
fn table_partitioning_cost_clique_has_four_times_the_star_edges() {
    let cfg = InstacartConfig::default();
    let trace = instacart::trace(&cfg, 2_000, 4_000_000);
    let star = ChillerPartitioner::new(8, contention_model(&trace))
        .partition(&trace)
        .graph_edges;
    let clique = SchismPartitioner::new(8).partition(&trace).graph_edges;
    eprintln!("table_partitioning_cost 2000 txns: clique {clique} star {star} edges");
    assert!(
        clique >= 4 * star,
        "clique {clique} vs star {star} edges: < 4×"
    );
}

/// **Adaptive recovery under a hotspot shift** (beyond the paper, whose §4
/// layout is frozen offline). Skewed YCSB with the Zipf head co-located
/// on partition 0; mid-run the head rotates to another key range. The
/// frozen layout goes stale, so static Chiller loses its inner region and
/// falls toward 2PL. With online adaptation, the monitors see the new hot
/// set, the planner re-runs the §4 pipeline on live summaries, and the
/// migration protocol re-homes it.
///
/// Asserted on the post-shift window: adaptive is ≥ 1.5× static (today
/// 2.20×), static is ≤ 1.3× 2PL (today 1.09×), and migrations complete
/// (today 34).
#[test]
fn fig_adaptive_shift_adaptive_recovers_what_static_loses() {
    let cfg = YcsbConfig {
        records: 8_000,
        ops_per_txn: 4,
        read_fraction: 0.2,
        theta: 1.25,
    };
    let nodes = 4;
    let hot_lookup = 24;
    let (warmup, pre, post) = (
        Duration::from_millis(1),
        Duration::from_millis(3),
        Duration::from_millis(6),
    );
    let shift_at = SimTime::ZERO + warmup + pre;
    let adaptive = AdaptiveConfig {
        epoch: Duration::from_millis(1),
        sample_every: 2,
        window_epochs: 2,
        min_window_txns: 100,
        ..AdaptiveConfig::default()
    };
    let sim = sim(8, 0xAD4);
    // Returns the post-shift throughput and completed migrations.
    let post_shift = |mut cluster: Cluster| {
        cluster.run(RunSpec::new(warmup, pre));
        cluster.reset_metrics();
        let report = cluster.run_more(post);
        (report.throughput(), report.migrations_completed())
    };
    let shifting = |adaptive: Option<AdaptiveConfig>| {
        let mut b = ycsb::builder(&cfg, nodes, hot_lookup, Protocol::Chiller, sim.clone());
        if let Some(a) = adaptive {
            b.adaptive(a);
        }
        let cfg = cfg.clone();
        b.source_per_node(move |_| {
            Box::new(ycsb::shifting_source(&cfg, shift_at, cfg.records / 2))
        });
        b.build().unwrap()
    };
    // 2PL over hash placement: the shift is throughput-neutral there, so
    // the plain source stands in for the shifting one.
    let (two_pl, _) = post_shift(
        ycsb::builder(&cfg, nodes, 0, Protocol::TwoPhaseLocking, sim.clone())
            .build()
            .unwrap(),
    );
    let (static_tps, _) = post_shift(shifting(None));
    let (adaptive_tps, migrations) = post_shift(shifting(Some(adaptive)));
    let recovery = adaptive_tps / static_tps;
    let collapse = static_tps / two_pl;
    eprintln!(
        "fig_adaptive_shift: adaptive/static {recovery:.2}× static/2pl {collapse:.2}× \
         migrations {migrations}"
    );
    assert!(
        recovery >= 1.5,
        "adaptive recovers only {recovery:.2}× static"
    );
    assert!(
        collapse <= 1.3,
        "static Chiller stays {collapse:.2}× 2PL after the shift"
    );
    assert!(
        migrations > 0,
        "adaptive run completed no migrations after the shift"
    );
}
