//! Instacart-like grocery workload (paper §7.2).
//!
//! The paper evaluates its partitioning on the Instacart 2017 dataset:
//! 3M grocery orders over ~50k products, baskets of ~10 items, with heavy
//! popularity skew ("15 and 8 percent of transactions contain banana and
//! strawberries"). The dataset itself is not redistributable, so this module
//! synthesizes an equivalent workload calibrated to those published
//! marginals (see DESIGN.md):
//!
//! * product popularity is calibrated *directly* to the published order
//!   marginals: the per-order inclusion probability of rank `i` decays as
//!   `0.15 / (i+1)^s` with `s = log2(15/8)` (so rank 0 lands in ≈15% of
//!   orders and rank 1 in ≈8%), converted to per-draw probabilities for a
//!   mean basket of 10, with the leftover mass spread uniformly over the
//!   tail — pure Zipf cannot match both the head ratio and the absolute
//!   inclusion rates (verified by a test below);
//! * basket size is Poisson-like around 10 (clamped to `1..=MAX_BASKET`);
//! * co-purchase structure comes from a category mixture: the head products
//!   are global staples (anyone buys bananas), while tail picks come from
//!   the 2 categories each order shops in — giving Schism real clusters to
//!   find, as in the actual dataset ("items from different categories may
//!   be purchased together" but most of a basket is category-local);
//! * transactions are TPC-C-NewOrder-shaped, exactly as in §7.2.1: read
//!   each item's stock, decrement it, and insert one order record.
//!
//! The same generator produces the *trace* used to drive the partitioners
//! (Figures 7/8, lookup-table size) and the *live input* for the cluster.

use chiller::prelude::*;
use chiller_common::rng::{derive_seed, seeded};
use chiller_partition::stats::{TxnTrace, WorkloadTrace};
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::Arc;

pub const STOCK: TableId = TableId(21);
pub const ORDERS: TableId = TableId(22);

/// Head-decay exponent: `log2(0.15 / 0.08)`, from the published marginals.
pub const CALIBRATED_THETA: f64 = 0.9069;
/// Per-order inclusion probability of the most popular product (§7.2.1).
pub const TOP_INCLUSION: f64 = 0.15;
pub const MAX_BASKET: usize = 20;
pub const MEAN_BASKET: f64 = 10.0;

/// Workload sizing.
#[derive(Debug, Clone)]
pub struct InstacartConfig {
    pub products: usize,
    pub theta: f64,
    /// Products `0..head_size` are global staples following the calibrated
    /// popularity head; the rest are organized in categories.
    pub head_size: usize,
    /// Products per category (tail products only).
    pub category_size: usize,
    /// Categories each order shops in.
    pub cats_per_order: usize,
    pub seed: u64,
}

impl Default for InstacartConfig {
    fn default() -> Self {
        InstacartConfig {
            // The real dataset's scale: ~50k products.
            products: 50_000,
            theta: CALIBRATED_THETA,
            head_size: 100,
            category_size: 200,
            cats_per_order: 3,
            seed: 0x1257AC,
        }
    }
}

impl InstacartConfig {
    /// Number of tail categories.
    pub fn num_categories(&self) -> usize {
        (self.products - self.head_size) / self.category_size
    }
}

impl InstacartConfig {
    pub fn schema() -> Schema {
        let mut s = Schema::new();
        s.add(TableDef::new(STOCK, "stock", vec!["product", "quantity"]));
        s.add(TableDef::new(
            ORDERS,
            "orders",
            vec!["order_id", "num_items"],
        ));
        s
    }

    /// Initial records: one stock row per product.
    pub fn initial_records(&self) -> Vec<(RecordId, Row)> {
        (0..self.products as u64)
            .map(|p| {
                (
                    RecordId::new(STOCK, p),
                    vec![Value::from(p), Value::I64(1_000_000)],
                )
            })
            .collect()
    }
}

/// Per-product popularity calibrated to the paper's marginals.
///
/// Head: inclusion probability `0.15/(i+1)^theta` converted to a per-draw
/// probability via `q = 1 - (1-p)^(1/mean_basket)`; tail: the remaining
/// probability mass uniformly.
pub fn calibrated_pmf(products: usize, theta: f64) -> Vec<f64> {
    assert!(products >= 2);
    let mut q: Vec<f64> = (0..products)
        .map(|i| {
            let inclusion = TOP_INCLUSION / ((i + 1) as f64).powf(theta);
            1.0 - (1.0 - inclusion).powf(1.0 / MEAN_BASKET)
        })
        .collect();
    let head_mass: f64 = q.iter().sum();
    if head_mass < 1.0 {
        let uniform = (1.0 - head_mass) / products as f64;
        for v in &mut q {
            *v += uniform;
        }
    } else {
        for v in &mut q {
            *v /= head_mass;
        }
    }
    q
}

/// Shared basket sampler: calibrated global head + category-local tail.
pub struct BasketSampler {
    /// Cumulative per-draw masses of the head products (unnormalized; the
    /// last entry is the total head mass of one draw).
    head_cdf: Vec<f64>,
    head_mass: f64,
    head_size: usize,
    category_size: usize,
    num_categories: usize,
    cats_per_order: usize,
}

impl BasketSampler {
    pub fn new(cfg: &InstacartConfig) -> Self {
        assert!(cfg.head_size >= 2 && cfg.head_size < cfg.products);
        assert!(cfg.num_categories() >= 2);
        let pmf = calibrated_pmf(cfg.products, cfg.theta);
        let mut acc = 0.0;
        let head_cdf: Vec<f64> = pmf[..cfg.head_size]
            .iter()
            .map(|p| {
                acc += p;
                acc
            })
            .collect();
        BasketSampler {
            head_mass: acc,
            head_cdf,
            head_size: cfg.head_size,
            category_size: cfg.category_size,
            num_categories: cfg.num_categories(),
            cats_per_order: cfg.cats_per_order,
        }
    }

    fn sample_head(&self, rng: &mut StdRng) -> u64 {
        let u: f64 = rng.gen::<f64>() * self.head_mass;
        self.head_cdf
            .partition_point(|&c| c < u)
            .min(self.head_size - 1) as u64
    }

    /// Sample one basket: distinct products, size ~ Poisson(10) clamped.
    /// Each draw is a staple (head) with the calibrated probability,
    /// otherwise an item from one of the order's categories.
    pub fn basket(&self, rng: &mut StdRng) -> Vec<u64> {
        // Knuth Poisson sampling is fine at λ=10.
        let mut k = 0usize;
        let l = (-MEAN_BASKET).exp();
        let mut p = 1.0;
        loop {
            p *= rng.gen::<f64>();
            if p <= l {
                break;
            }
            k += 1;
        }
        let size = k.clamp(1, MAX_BASKET);
        // The categories this order shops in.
        let mut cats: Vec<usize> = Vec::with_capacity(self.cats_per_order);
        while cats.len() < self.cats_per_order {
            let c = rng.gen_range(0..self.num_categories);
            if !cats.contains(&c) {
                cats.push(c);
            }
        }
        let mut items: Vec<u64> = Vec::with_capacity(size);
        while items.len() < size {
            let candidate = if rng.gen::<f64>() < self.head_mass {
                self.sample_head(rng)
            } else {
                let cat = cats[rng.gen_range(0..cats.len())];
                (self.head_size + cat * self.category_size + rng.gen_range(0..self.category_size))
                    as u64
            };
            if !items.contains(&candidate) {
                items.push(candidate);
            }
        }
        items
    }
}

/// One NewOrder-style procedure per basket size: read+decrement each
/// product's stock, insert the order record.
///
/// Params: `[0]` order key, then one product key per basket slot.
pub fn order_proc(basket: usize) -> chiller_sproc::Procedure {
    let mut b = ProcedureBuilder::new("GroceryOrder");
    for slot in 0..basket {
        b = b.update(STOCK, 1 + slot, "decrement stock", |row, _| {
            let mut r = row.clone();
            r[1] = Value::I64(r[1].as_i64() - 1);
            r
        });
    }
    b = b.insert(ORDERS, 0, &[], "insert order", move |st| {
        vec![Value::from(st.param_u64(0)), Value::from(basket as u64)]
    });
    b.build().expect("grocery order procedure is well-formed")
}

/// Registered procedure ids per basket size (index `size - 1`).
#[derive(Debug, Clone)]
pub struct InstacartProcs {
    pub order: Vec<usize>,
}

pub fn register_procs(
    mut register: impl FnMut(chiller_sproc::Procedure) -> usize,
) -> InstacartProcs {
    InstacartProcs {
        order: (1..=MAX_BASKET).map(|n| register(order_proc(n))).collect(),
    }
}

/// Generate the offline trace used to drive the partitioners (the paper's
/// sampled statistics): `n` orders as write-sets over stock records.
pub fn trace(cfg: &InstacartConfig, n: usize, window_ns: u64) -> WorkloadTrace {
    let sampler = BasketSampler::new(cfg);
    let mut rng = seeded(derive_seed(cfg.seed, 0x7124CE));
    let txns = (0..n)
        .map(|_| {
            let writes = sampler
                .basket(&mut rng)
                .into_iter()
                .map(|p| RecordId::new(STOCK, p))
                .collect();
            TxnTrace::new(vec![], writes)
        })
        .collect();
    WorkloadTrace::new(txns, window_ns)
}

/// Live input source for an engine node.
pub struct InstacartSource {
    sampler: BasketSampler,
    procs: InstacartProcs,
    node: u64,
    seq: u64,
}

impl InstacartSource {
    pub fn new(cfg: &InstacartConfig, procs: InstacartProcs, node: u64) -> Self {
        InstacartSource {
            sampler: BasketSampler::new(cfg),
            procs,
            node,
            seq: 0,
        }
    }
}

impl InputSource for InstacartSource {
    fn next_input(&mut self, rng: &mut StdRng, _now: SimTime) -> TxnInput {
        let basket = self.sampler.basket(rng);
        self.seq += 1;
        let order_key = (self.node << 40) | self.seq;
        let mut params = vec![Value::from(order_key)];
        params.extend(basket.iter().map(|&p| Value::from(p)));
        TxnInput {
            proc: self.procs.order[basket.len() - 1],
            params,
        }
    }
}

/// Placement wrapper: order records (unique, insert-only) live on the
/// inserting coordinator's partition (their key carries the node id in the
/// high bits), while stock records follow the partitioning scheme under
/// comparison. Mirrors TPC-C's home-warehouse order inserts.
pub struct InstacartPlacement<P> {
    pub stock: P,
    pub partitions: u32,
}

impl<P: Placement> Placement for InstacartPlacement<P> {
    fn partition_of(&self, record: RecordId) -> PartitionId {
        if record.table == ORDERS {
            PartitionId(((record.key >> 40) % self.partitions as u64) as u32)
        } else {
            self.stock.partition_of(record)
        }
    }

    fn lookup_entries(&self) -> usize {
        self.stock.lookup_entries()
    }
}

/// An Instacart cluster builder over an arbitrary stock placement (hash /
/// Schism / Chiller — the Figure 7 comparison) and hot set, with one
/// [`InstacartSource`] per node.
pub fn builder(
    cfg: &InstacartConfig,
    nodes: usize,
    stock_placement: Arc<dyn Placement + Send + Sync>,
    hot: Vec<RecordId>,
    protocol: Protocol,
    sim: SimConfig,
) -> ClusterBuilder {
    let mut b = ClusterBuilder::new(InstacartConfig::schema(), nodes);
    let procs = register_procs(|p| b.register_proc(p));
    let cfg = cfg.clone();
    b.protocol(protocol)
        .config(sim)
        .placement(Arc::new(InstacartPlacement {
            stock: stock_placement,
            partitions: nodes as u32,
        }))
        .hot_records(hot)
        .load(cfg.initial_records())
        .source_per_node(move |node| {
            Box::new(InstacartSource::new(&cfg, procs.clone(), node.0 as u64))
        });
    b
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn popularity_marginals_match_paper() {
        // Top product in ~15% of orders, second in ~8% (§7.2.1).
        let cfg = InstacartConfig::default();
        let sampler = BasketSampler::new(&cfg);
        let mut rng = seeded(42);
        let n = 30_000;
        let mut top = 0;
        let mut second = 0;
        for _ in 0..n {
            let basket = sampler.basket(&mut rng);
            if basket.contains(&0) {
                top += 1;
            }
            if basket.contains(&1) {
                second += 1;
            }
        }
        let f0 = top as f64 / n as f64;
        let f1 = second as f64 / n as f64;
        assert!((f0 - 0.15).abs() < 0.03, "top product in {f0} of orders");
        assert!(
            (f1 - 0.08).abs() < 0.025,
            "second product in {f1} of orders"
        );
    }

    #[test]
    fn basket_sizes_average_ten() {
        let cfg = InstacartConfig::default();
        let sampler = BasketSampler::new(&cfg);
        let mut rng = seeded(7);
        let n = 20_000;
        let total: usize = (0..n).map(|_| sampler.basket(&mut rng).len()).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - MEAN_BASKET).abs() < 0.5, "mean basket {mean}");
    }

    #[test]
    fn baskets_have_distinct_items() {
        let cfg = InstacartConfig::default();
        let sampler = BasketSampler::new(&cfg);
        let mut rng = seeded(13);
        for _ in 0..1_000 {
            let b = sampler.basket(&mut rng);
            let mut dedup = b.clone();
            dedup.sort();
            dedup.dedup();
            assert_eq!(dedup.len(), b.len());
        }
    }

    #[test]
    fn trace_matches_generator_statistics() {
        let cfg = InstacartConfig::default();
        let t = trace(&cfg, 5_000, 1_000_000);
        assert_eq!(t.txns.len(), 5_000);
        let mean: f64 = t.txns.iter().map(|x| x.writes.len()).sum::<usize>() as f64 / 5_000.0;
        assert!((mean - MEAN_BASKET).abs() < 0.5);
        // Skew visible in the trace.
        let top_count = t
            .txns
            .iter()
            .filter(|x| x.writes.contains(&RecordId::new(STOCK, 0)))
            .count();
        assert!(top_count as f64 / 5_000.0 > 0.10);
    }

    #[test]
    fn order_proc_shapes() {
        for n in [1, 10, MAX_BASKET] {
            let p = order_proc(n);
            assert_eq!(p.num_ops(), n + 1);
        }
    }
}
