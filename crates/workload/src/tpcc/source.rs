//! TPC-C input generation (the closed-loop client of each engine) and the
//! workload's cluster builder.

use super::gen::{load_tpcc, TpccConfig};
use super::procs::{register_procs, TpccProcs, MAX_LINES, MIN_LINES, STOCK_LEVEL_LINES};
use super::schema::{keys, tpcc_schema, TpccPlacement};
use chiller::prelude::*;
use chiller_common::rng::NuRand;
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::Arc;

/// Transaction mix percentages (must sum to 100). Defaults follow the
/// standard full mix the paper's §7.3 uses.
#[derive(Debug, Clone, Copy)]
pub struct TpccMix {
    pub new_order: u32,
    pub payment: u32,
    pub order_status: u32,
    pub delivery: u32,
    pub stock_level: u32,
    /// Probability a NewOrder has at least one remote item (default 10%).
    pub remote_item_prob: f64,
    /// Probability a Payment pays a remote customer (default 15%).
    pub remote_customer_prob: f64,
    /// Probability of the spec's simulated NewOrder user rollback (1%).
    pub rollback_prob: f64,
}

impl Default for TpccMix {
    fn default() -> Self {
        TpccMix {
            new_order: 45,
            payment: 43,
            order_status: 4,
            delivery: 4,
            stock_level: 4,
            remote_item_prob: 0.10,
            remote_customer_prob: 0.15,
            rollback_prob: 0.01,
        }
    }
}

impl TpccMix {
    /// The §7.4 mix: NewOrder and Payment only, 50/50, with a sweepable
    /// distributed-transaction probability applied to both.
    pub fn payment_neworder(distributed_prob: f64) -> Self {
        TpccMix {
            new_order: 50,
            payment: 50,
            order_status: 0,
            delivery: 0,
            stock_level: 0,
            remote_item_prob: distributed_prob,
            remote_customer_prob: distributed_prob,
            rollback_prob: 0.01,
        }
    }

    fn total(&self) -> u32 {
        self.new_order + self.payment + self.order_status + self.delivery + self.stock_level
    }
}

/// Per-engine input source: generates transactions homed at this engine's
/// warehouse.
pub struct TpccSource {
    cfg: TpccConfig,
    procs: TpccProcs,
    mix: TpccMix,
    home_w: u64,
    history_seq: u64,
    nurand_c: NuRand,
    nurand_i: NuRand,
}

impl TpccSource {
    pub fn new(cfg: TpccConfig, procs: TpccProcs, mix: TpccMix, home_w: u64) -> Self {
        assert_eq!(mix.total(), 100, "mix must sum to 100");
        assert!(home_w >= 1 && home_w <= cfg.warehouses);
        let nurand_c = NuRand::new(1023, 1, cfg.customers_per_district, 259);
        let nurand_i = NuRand::new(8191, 1, cfg.items, 7911);
        TpccSource {
            cfg,
            procs,
            mix,
            home_w,
            history_seq: 0,
            nurand_c,
            nurand_i,
        }
    }

    fn other_warehouse(&self, rng: &mut StdRng) -> u64 {
        if self.cfg.warehouses == 1 {
            return self.home_w;
        }
        let mut w = rng.gen_range(1..=self.cfg.warehouses - 1);
        if w >= self.home_w {
            w += 1;
        }
        w
    }

    fn new_order(&mut self, rng: &mut StdRng) -> TxnInput {
        let w = self.home_w;
        let d = rng.gen_range(1..=10u64);
        let c = self.nurand_c.sample(rng);
        let lines = rng.gen_range(MIN_LINES..=MAX_LINES);
        let rollback = rng.gen_bool(self.mix.rollback_prob);
        let mut params = vec![
            Value::from(keys::warehouse(w)),
            Value::from(keys::district(w, d)),
            Value::from(keys::customer(w, d, c)),
            Value::from(u64::from(rollback)),
        ];
        // "At least one remote item" with the configured probability.
        let remote_line = if rng.gen_bool(self.mix.remote_item_prob) {
            Some(rng.gen_range(0..lines))
        } else {
            None
        };
        let mut picked: Vec<u64> = Vec::with_capacity(lines);
        for l in 0..lines {
            // Spec: order lines reference distinct items.
            let i = loop {
                let i = self.nurand_i.sample(rng);
                if !picked.contains(&i) {
                    break i;
                }
            };
            picked.push(i);
            let supply_w = if remote_line == Some(l) {
                self.other_warehouse(rng)
            } else {
                w
            };
            params.push(Value::from(keys::stock(supply_w, i)));
            params.push(Value::from(rng.gen_range(1..=10u64))); // qty
            params.push(Value::F64(self.cfg.item_price(i)));
        }
        TxnInput {
            proc: self.procs.new_order_with(lines),
            params,
        }
    }

    fn payment(&mut self, rng: &mut StdRng) -> TxnInput {
        let w = self.home_w;
        let d = rng.gen_range(1..=10u64);
        let (c_w, c_d) = if rng.gen_bool(self.mix.remote_customer_prob) {
            (self.other_warehouse(rng), rng.gen_range(1..=10u64))
        } else {
            (w, d)
        };
        let c = self.nurand_c.sample(rng);
        self.history_seq += 1;
        TxnInput {
            proc: self.procs.payment,
            params: vec![
                Value::from(keys::warehouse(w)),
                Value::from(keys::district(w, d)),
                Value::from(keys::customer(c_w, c_d, c)),
                Value::F64(rng.gen_range(1.0..5_000.0)),
                Value::from(keys::history(w, d, self.history_seq)),
            ],
        }
    }

    fn order_status(&mut self, rng: &mut StdRng) -> TxnInput {
        let w = self.home_w;
        let d = rng.gen_range(1..=10u64);
        let c = self.nurand_c.sample(rng);
        let o = rng.gen_range(1..=self.cfg.preloaded_orders);
        let mut params = vec![
            Value::from(keys::customer(w, d, c)),
            Value::from(keys::order(w, d, o)),
        ];
        for l in 1..=STOCK_LEVEL_LINES as u64 {
            params.push(Value::from(keys::order_line(w, d, o, l)));
        }
        TxnInput {
            proc: self.procs.order_status,
            params,
        }
    }

    fn delivery(&mut self, rng: &mut StdRng) -> TxnInput {
        let w = self.home_w;
        let d = rng.gen_range(1..=10u64);
        TxnInput {
            proc: self.procs.delivery,
            params: vec![
                Value::from(keys::district(w, d)),
                Value::from(rng.gen_range(1..=10u64)), // carrier
            ],
        }
    }

    fn stock_level(&mut self, rng: &mut StdRng) -> TxnInput {
        let w = self.home_w;
        let d = rng.gen_range(1..=10u64);
        TxnInput {
            proc: self.procs.stock_level,
            params: vec![
                Value::from(keys::district(w, d)),
                Value::from(rng.gen_range(10..=20u64)), // threshold
            ],
        }
    }
}

impl InputSource for TpccSource {
    fn next_input(&mut self, rng: &mut StdRng, _now: SimTime) -> TxnInput {
        let roll = rng.gen_range(0..100u32);
        let m = self.mix;
        if roll < m.new_order {
            self.new_order(rng)
        } else if roll < m.new_order + m.payment {
            self.payment(rng)
        } else if roll < m.new_order + m.payment + m.order_status {
            self.order_status(rng)
        } else if roll < m.new_order + m.payment + m.order_status + m.delivery {
            self.delivery(rng)
        } else {
            self.stock_level(rng)
        }
    }

    /// Payment mints HISTORY keys from `history_seq`; starting each
    /// incarnation at `epoch << 32` keeps their keys disjoint.
    fn resume_at_epoch(&mut self, epoch: u64) {
        assert!(
            epoch < 1 << 8,
            "history seq must fit the key's 40-bit sequence field"
        );
        self.history_seq = epoch << 32;
    }
}

/// A TPC-C cluster builder: one warehouse per node (the paper's §7.3
/// deployment), warehouse placement, hot district/warehouse rows for
/// Chiller's lookup table, each engine's source homed at its warehouse.
/// The caller picks the backend, modes and durability on the returned
/// builder.
pub fn builder(
    cfg: &TpccConfig,
    mix: TpccMix,
    protocol: Protocol,
    sim: SimConfig,
) -> ClusterBuilder {
    assert_eq!(
        cfg.warehouses as usize as u64, cfg.warehouses,
        "warehouse count fits usize"
    );
    let nodes = cfg.warehouses as usize;
    let mut b = ClusterBuilder::new(tpcc_schema(), nodes);
    let procs = register_procs(|p| b.register_proc(p));
    let cfg = cfg.clone();
    b.protocol(protocol)
        .config(sim)
        .placement(Arc::new(TpccPlacement::new(nodes as u32)))
        .hot_records(super::hot_records(&cfg))
        .load(load_tpcc(&cfg))
        .source_per_node(move |node| {
            Box::new(TpccSource::new(
                cfg.clone(),
                procs.clone(),
                mix,
                node.0 as u64 + 1,
            ))
        });
    b
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiller_common::rng::seeded;

    fn source() -> TpccSource {
        let cfg = TpccConfig::with_warehouses(4);
        let procs = register_procs({
            let mut n = 0;
            move |_| {
                n += 1;
                n - 1
            }
        });
        TpccSource::new(cfg, procs, TpccMix::default(), 2)
    }

    #[test]
    fn mix_fractions_approximate_spec() {
        let mut src = source();
        let mut rng = seeded(3);
        let mut counts = [0usize; 5];
        let n = 20_000;
        for _ in 0..n {
            let input = src.next_input(&mut rng, SimTime::ZERO);
            // Classify by param shape.
            let idx = if input.proc < MAX_LINES - MIN_LINES + 1 {
                0
            } else {
                input.proc - (MAX_LINES - MIN_LINES)
            };
            counts[idx.min(4)] += 1;
        }
        let frac = |i: usize| counts[i] as f64 / n as f64;
        assert!((frac(0) - 0.45).abs() < 0.02, "NewOrder {}", frac(0));
        assert!((frac(1) - 0.43).abs() < 0.02, "Payment {}", frac(1));
    }

    #[test]
    fn new_order_remote_prob_respected() {
        let mut src = source();
        let mut rng = seeded(9);
        let mut remote = 0;
        let mut total = 0;
        for _ in 0..50_000 {
            let input = src.next_input(&mut rng, SimTime::ZERO);
            if input.proc > MAX_LINES - MIN_LINES {
                continue; // not NewOrder
            }
            total += 1;
            let lines = (input.params.len() - 4) / 3;
            let any_remote = (0..lines)
                .any(|l| keys::warehouse_of(input.params[4 + 3 * l].as_i64() as u64) != 2);
            if any_remote {
                remote += 1;
            }
        }
        let frac = remote as f64 / total as f64;
        assert!((frac - 0.10).abs() < 0.015, "remote NewOrder frac {frac}");
    }

    #[test]
    fn payment_remote_customer_prob_respected() {
        let mut src = source();
        let mut rng = seeded(11);
        let mut remote = 0;
        let mut total = 0;
        for _ in 0..50_000 {
            let input = src.next_input(&mut rng, SimTime::ZERO);
            if input.proc != src.procs.payment {
                continue;
            }
            total += 1;
            if keys::warehouse_of(input.params[2].as_i64() as u64) != 2 {
                remote += 1;
            }
        }
        let frac = remote as f64 / total as f64;
        assert!((frac - 0.15).abs() < 0.02, "remote Payment frac {frac}");
    }

    #[test]
    fn history_keys_are_unique() {
        let mut src = source();
        let mut rng = seeded(13);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            let input = src.next_input(&mut rng, SimTime::ZERO);
            if input.proc == src.procs.payment {
                assert!(seen.insert(input.params[4].as_i64()));
            }
        }
    }

    #[test]
    fn params_stay_in_home_warehouse_for_district_keys() {
        let mut src = source();
        let mut rng = seeded(17);
        for _ in 0..5_000 {
            let input = src.next_input(&mut rng, SimTime::ZERO);
            // Every district-scoped key param must be home (warehouse 2),
            // except customer (payment) and stock (new order) keys.
            if input.proc == src.procs.delivery || input.proc == src.procs.stock_level {
                assert_eq!(keys::warehouse_of(input.params[0].as_i64() as u64), 2);
            }
        }
    }
}
