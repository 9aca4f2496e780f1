//! Money-transfer microworkload with a controllable hot set.
//!
//! Used by the quickstart example and the parity, stress and trace suites:
//! `n` accounts, a fraction of transfers touching a small hot set, total
//! balance conserved under serializability.

use chiller::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::Arc;

pub const ACCOUNTS: TableId = TableId(41);
pub const INITIAL_BALANCE: f64 = 1_000.0;

#[derive(Debug, Clone)]
pub struct TransferConfig {
    pub accounts: u64,
    /// Size of the hot set (accounts `0..hot_set`).
    pub hot_set: u64,
    /// Fraction of transfers where both endpoints are hot.
    pub hot_fraction: f64,
}

impl Default for TransferConfig {
    fn default() -> Self {
        TransferConfig {
            accounts: 1_000,
            hot_set: 8,
            hot_fraction: 0.2,
        }
    }
}

impl TransferConfig {
    pub fn schema() -> Schema {
        let mut s = Schema::new();
        s.add(TableDef::new(ACCOUNTS, "accounts", vec!["id", "balance"]));
        s
    }

    pub fn initial_records(&self) -> Vec<(RecordId, Row)> {
        (0..self.accounts)
            .map(|k| {
                (
                    RecordId::new(ACCOUNTS, k),
                    vec![Value::from(k), Value::F64(INITIAL_BALANCE)],
                )
            })
            .collect()
    }

    pub fn hot_records(&self) -> Vec<RecordId> {
        (0..self.hot_set)
            .map(|k| RecordId::new(ACCOUNTS, k))
            .collect()
    }

    /// Placement that co-locates the entire hot set on partition 0 (what
    /// Chiller's contention-aware partitioner produces for co-written hot
    /// records) and hashes the rest.
    pub fn chiller_placement(&self, partitions: u32) -> LookupTable<HashPlacement> {
        LookupTable::with_entries(
            (0..self.hot_set).map(|k| (RecordId::new(ACCOUNTS, k), PartitionId(0))),
            HashPlacement::new(partitions),
        )
    }
}

/// Params: `[0]` src, `[1]` dst, `[2]` amount.
pub fn transfer_proc() -> chiller_sproc::Procedure {
    ProcedureBuilder::new("transfer")
        .update(ACCOUNTS, 0, "debit", |row, st| {
            let mut r = row.clone();
            r[1] = Value::F64(r[1].as_f64() - st.param_f64(2));
            r
        })
        .update(ACCOUNTS, 1, "credit", |row, st| {
            let mut r = row.clone();
            r[1] = Value::F64(r[1].as_f64() + st.param_f64(2));
            r
        })
        .build()
        .expect("transfer procedure is well-formed")
}

pub struct TransferSource {
    cfg: TransferConfig,
    proc: usize,
}

impl TransferSource {
    pub fn new(cfg: TransferConfig, proc: usize) -> Self {
        TransferSource { cfg, proc }
    }
}

impl InputSource for TransferSource {
    fn next_input(&mut self, rng: &mut StdRng, _now: SimTime) -> TxnInput {
        let c = &self.cfg;
        let (a, b) = if rng.gen::<f64>() < c.hot_fraction && c.hot_set >= 2 {
            let a = rng.gen_range(0..c.hot_set);
            let mut b = rng.gen_range(0..c.hot_set);
            if b == a {
                b = (b + 1) % c.hot_set;
            }
            (a, b)
        } else {
            let a = rng.gen_range(c.hot_set..c.accounts);
            let mut b = rng.gen_range(c.hot_set..c.accounts);
            if b == a {
                b = c.hot_set + (b + 1 - c.hot_set) % (c.accounts - c.hot_set);
            }
            (a, b)
        };
        TxnInput {
            proc: self.proc,
            params: vec![Value::from(a), Value::from(b), Value::F64(1.0)],
        }
    }
}

/// A transfer cluster builder with the Chiller-style hot-set placement:
/// the transfer procedure (id 0), the accounts, and one
/// [`TransferSource`] per node. The caller picks the backend and modes on
/// the returned builder.
pub fn builder(
    cfg: &TransferConfig,
    nodes: usize,
    protocol: Protocol,
    sim: SimConfig,
) -> ClusterBuilder {
    let mut b = ClusterBuilder::new(TransferConfig::schema(), nodes);
    let proc = b.register_proc(transfer_proc());
    let cfg = cfg.clone();
    b.protocol(protocol)
        .config(sim)
        .placement(Arc::new(cfg.chiller_placement(nodes as u32)))
        .hot_records(cfg.hot_records())
        .load(cfg.initial_records())
        .source_per_node(move |_| Box::new(TransferSource::new(cfg.clone(), proc)));
    b
}

/// A hot-set-shifting transfer source for a cluster from [`builder`]: from
/// `shift_at` on, hot endpoints `0..hot_set` are relabeled to
/// `new_base..new_base + hot_set` — the contention point jumps to accounts
/// the frozen layout scattered by hash.
pub fn shifting_source(
    cfg: &TransferConfig,
    shift_at: SimTime,
    new_base: u64,
) -> crate::shift::ShiftedSource<TransferSource> {
    assert!(new_base + cfg.hot_set <= cfg.accounts);
    let hot_set = cfg.hot_set;
    crate::shift::ShiftedSource::new(
        TransferSource::new(cfg.clone(), 0),
        shift_at,
        move |input| {
            for p in input.params.iter_mut().take(2) {
                let k = p.as_i64() as u64;
                if k < hot_set {
                    *p = Value::from(new_base + k);
                }
            }
        },
    )
}

/// Assert the post-quiescence serializability contract on a transfer
/// cluster: balance conservation, no leaked locks, no zombie
/// transactions, zero replica divergence. Shared by the parity-style
/// suites and the threaded stress/bench paths so the contract lives in
/// one place. The cluster must already be quiesced.
pub fn assert_serializability_invariants(cluster: &Cluster, cfg: &TransferConfig, label: &str) {
    let total = total_balance(cluster);
    let expect = cfg.accounts as f64 * INITIAL_BALANCE;
    assert!(
        (total - expect).abs() < 1e-6,
        "{label}: balance {total} != {expect} — conservation violated"
    );
    for engine in cluster.engines() {
        assert!(
            engine.store().all_locks_free(),
            "{label}: leaked locks on node {}",
            engine.store().partition
        );
        assert_eq!(engine.open_txns(), 0, "{label}: zombie transactions");
    }
    assert_eq!(
        cluster.replica_divergence(),
        0,
        "{label}: replicas diverged"
    );
}

/// Sum of all account balances across primaries (conservation check).
pub fn total_balance(cluster: &Cluster) -> f64 {
    cluster
        .engines()
        .iter()
        .flat_map(|e| e.store().table(ACCOUNTS).iter())
        .map(|(_, row)| row[1].as_f64())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiller::cluster::RunSpec;
    use chiller_common::rng::seeded;

    #[test]
    fn conservation_under_all_protocols() {
        for protocol in [Protocol::Chiller, Protocol::TwoPhaseLocking, Protocol::Occ] {
            let cfg = TransferConfig::default();
            let mut cluster = builder(&cfg, 3, protocol, SimConfig::default())
                .build()
                .unwrap();
            let report = cluster.run(RunSpec::millis(1, 5));
            assert!(report.total_commits() > 0, "{protocol}");
            cluster.quiesce();
            let total = total_balance(&cluster);
            let expect = cfg.accounts as f64 * INITIAL_BALANCE;
            assert!((total - expect).abs() < 1e-6, "{protocol}: {total}");
        }
    }

    #[test]
    fn source_respects_hot_fraction() {
        let cfg = TransferConfig {
            hot_fraction: 0.5,
            ..Default::default()
        };
        let mut src = TransferSource::new(cfg.clone(), 0);
        let mut rng = seeded(1);
        let mut hot = 0;
        let n = 20_000;
        for _ in 0..n {
            let input = src.next_input(&mut rng, SimTime::ZERO);
            if (input.params[0].as_i64() as u64) < cfg.hot_set {
                hot += 1;
            }
        }
        let frac = hot as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.02, "hot fraction {frac}");
    }

    #[test]
    fn endpoints_always_distinct() {
        let mut src = TransferSource::new(TransferConfig::default(), 0);
        let mut rng = seeded(2);
        for _ in 0..10_000 {
            let input = src.next_input(&mut rng, SimTime::ZERO);
            assert_ne!(input.params[0].as_i64(), input.params[1].as_i64());
        }
    }
}
