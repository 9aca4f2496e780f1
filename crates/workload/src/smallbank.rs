//! SmallBank: the classic write-heavy banking microbenchmark, adapted so
//! every procedure's balance effect is *countable* from the run metrics.
//!
//! Two tables per customer — CHECKING and SAVINGS — and six procedures:
//! Balance (read-only), DepositChecking (+1.0 to the total), TransactSavings
//! (internal checking→savings move, conserving), WriteCheck (−1.0, guarded),
//! Amalgamate (sweep one customer into another, conserving), SendPayment
//! (checking→checking transfer, guarded, conserving). Every
//! balance-changing procedure moves a fixed 1.0, so after quiescence
//!
//! ```text
//! total == initial + commits(DepositChecking) − commits(WriteCheck)
//! ```
//!
//! holds exactly under serializability — the invariant
//! [`assert_smallbank_invariants`] pins. Unlike the transfer workload the
//! mix is write-heavy on a small hot set (classic SmallBank skew), which
//! makes it the natural certification target for the black-box
//! serializability checker: run with `CHILLER_CHECK=full` (or
//! `ClusterBuilder::check`) and call [`Cluster::check_history`] /
//! [`Cluster::expect_serializable`] after quiescing.

use chiller::prelude::*;
use chiller_common::ids::OpId;
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::Arc;

pub const CHECKING: TableId = TableId(51);
pub const SAVINGS: TableId = TableId(52);

/// Starting balance of every checking and savings row.
pub const INITIAL_BALANCE: f64 = 100.0;

/// Fixed amount moved by every balance-changing procedure (what makes the
/// conservation invariant countable from per-type commit counts).
pub const AMOUNT: f64 = 1.0;

// Column index of the balance in both tables.
const BAL: usize = 1;

#[derive(Debug, Clone)]
pub struct SmallBankConfig {
    pub accounts: u64,
    /// Size of the hot set (accounts `0..hot_accounts`).
    pub hot_accounts: u64,
    /// Fraction of procedure invocations whose account(s) are hot.
    pub hot_fraction: f64,
}

impl Default for SmallBankConfig {
    fn default() -> Self {
        SmallBankConfig {
            accounts: 1_000,
            hot_accounts: 8,
            hot_fraction: 0.25,
        }
    }
}

impl SmallBankConfig {
    pub fn schema() -> Schema {
        let mut s = Schema::new();
        s.add(TableDef::new(CHECKING, "checking", vec!["id", "balance"]));
        s.add(TableDef::new(SAVINGS, "savings", vec!["id", "balance"]));
        s
    }

    pub fn initial_records(&self) -> Vec<(RecordId, Row)> {
        (0..self.accounts)
            .flat_map(|k| {
                [
                    (
                        RecordId::new(CHECKING, k),
                        vec![Value::from(k), Value::F64(INITIAL_BALANCE)],
                    ),
                    (
                        RecordId::new(SAVINGS, k),
                        vec![Value::from(k), Value::F64(INITIAL_BALANCE)],
                    ),
                ]
            })
            .collect()
    }

    /// Total balance loaded at start (both tables).
    pub fn initial_total(&self) -> f64 {
        self.accounts as f64 * 2.0 * INITIAL_BALANCE
    }

    /// Hot set: both rows of every hot account (the write mix hammers
    /// checking, Amalgamate/TransactSavings touch savings too).
    pub fn hot_records(&self) -> Vec<RecordId> {
        (0..self.hot_accounts)
            .flat_map(|k| [RecordId::new(CHECKING, k), RecordId::new(SAVINGS, k)])
            .collect()
    }

    /// Placement co-locating each account's checking and savings rows (a
    /// customer's pair is always touched together) and pinning the hot set
    /// on partition 0, the layout Chiller's contention-aware partitioner
    /// produces for co-written hot records.
    pub fn placement(&self, partitions: u32) -> SmallBankPlacement {
        SmallBankPlacement {
            partitions,
            hot_accounts: self.hot_accounts,
        }
    }
}

/// See [`SmallBankConfig::placement`].
pub struct SmallBankPlacement {
    pub partitions: u32,
    pub hot_accounts: u64,
}

impl Placement for SmallBankPlacement {
    fn partition_of(&self, record: RecordId) -> PartitionId {
        if record.key < self.hot_accounts {
            return PartitionId(0);
        }
        PartitionId((record.key % self.partitions as u64) as u32)
    }
}

/// Procedure ids of the registered SmallBank mix, in registration order.
#[derive(Debug, Clone, Copy)]
pub struct SmallBankProcs {
    pub balance: usize,
    pub deposit_checking: usize,
    pub transact_savings: usize,
    pub write_check: usize,
    pub amalgamate: usize,
    pub send_payment: usize,
}

/// Build and register all six procedures through `register` (typically
/// `ClusterBuilder::register_proc`).
pub fn register_procs(
    mut register: impl FnMut(chiller_sproc::Procedure) -> usize,
) -> SmallBankProcs {
    SmallBankProcs {
        balance: register(balance_proc()),
        deposit_checking: register(deposit_checking_proc()),
        transact_savings: register(transact_savings_proc()),
        write_check: register(write_check_proc()),
        amalgamate: register(amalgamate_proc()),
        send_payment: register(send_payment_proc()),
    }
}

/// Read-only: both balances of one account. Params: `[0]` account.
pub fn balance_proc() -> chiller_sproc::Procedure {
    ProcedureBuilder::new("Balance")
        .read(CHECKING, 0, "read checking")
        .read(SAVINGS, 0, "read savings")
        .build()
        .expect("Balance procedure is well-formed")
}

/// Checking += 1.0 (the only procedure that grows the total).
/// Params: `[0]` account.
pub fn deposit_checking_proc() -> chiller_sproc::Procedure {
    ProcedureBuilder::new("DepositChecking")
        .update(CHECKING, 0, "deposit", |row, _| {
            let mut r = row.clone();
            r[BAL] = Value::F64(r[BAL].as_f64() + AMOUNT);
            r
        })
        .build()
        .expect("DepositChecking procedure is well-formed")
}

/// Move 1.0 from checking to savings of one account (conserving; the
/// classic benchmark deposits fresh money here, but an internal move keeps
/// the conservation invariant countable). Params: `[0]` account.
pub fn transact_savings_proc() -> chiller_sproc::Procedure {
    ProcedureBuilder::new("TransactSavings")
        .update(CHECKING, 0, "debit checking", |row, _| {
            let mut r = row.clone();
            r[BAL] = Value::F64(r[BAL].as_f64() - AMOUNT);
            r
        })
        .update(SAVINGS, 0, "credit savings", |row, _| {
            let mut r = row.clone();
            r[BAL] = Value::F64(r[BAL].as_f64() + AMOUNT);
            r
        })
        .build()
        .expect("TransactSavings procedure is well-formed")
}

/// Cash a check: checking −= 1.0, guarded by sufficient funds — an
/// insufficient balance is a *logic* abort (final, not retried), so only
/// committed WriteChecks subtract from the total. Params: `[0]` account.
pub fn write_check_proc() -> chiller_sproc::Procedure {
    ProcedureBuilder::new("WriteCheck")
        .read_for_update(CHECKING, 0, "read checking")
        .update_deps(CHECKING, 0, &[OpId(0)], "cash check", |row, _| {
            let mut r = row.clone();
            r[BAL] = Value::F64(r[BAL].as_f64() - AMOUNT);
            r
        })
        .guard(&[OpId(0)], "sufficient funds", |st| {
            if st.output_req(OpId(0))[BAL].as_f64() < AMOUNT {
                return Err("insufficient funds");
            }
            Ok(())
        })
        .build()
        .expect("WriteCheck procedure is well-formed")
}

/// Sweep account `a` into account `b`'s checking: zero both of `a`'s
/// balances, credit their pre-image sum to `b` (conserving).
/// Params: `[0]` src account, `[1]` dst account (distinct).
pub fn amalgamate_proc() -> chiller_sproc::Procedure {
    ProcedureBuilder::new("Amalgamate")
        .read_for_update(SAVINGS, 0, "read src savings")
        .read_for_update(CHECKING, 0, "read src checking")
        .update_deps(SAVINGS, 0, &[OpId(0)], "zero src savings", |row, _| {
            let mut r = row.clone();
            r[BAL] = Value::F64(0.0);
            r
        })
        .update_deps(CHECKING, 0, &[OpId(1)], "zero src checking", |row, _| {
            let mut r = row.clone();
            r[BAL] = Value::F64(0.0);
            r
        })
        .update_deps(
            CHECKING,
            1,
            &[OpId(0), OpId(1)],
            "credit dst checking",
            |row, st| {
                let swept =
                    st.output_req(OpId(0))[BAL].as_f64() + st.output_req(OpId(1))[BAL].as_f64();
                let mut r = row.clone();
                r[BAL] = Value::F64(r[BAL].as_f64() + swept);
                r
            },
        )
        .build()
        .expect("Amalgamate procedure is well-formed")
}

/// Checking→checking transfer of 1.0, guarded by sufficient funds at the
/// source (conserving whether it commits or logic-aborts).
/// Params: `[0]` src account, `[1]` dst account (distinct).
pub fn send_payment_proc() -> chiller_sproc::Procedure {
    ProcedureBuilder::new("SendPayment")
        .read_for_update(CHECKING, 0, "read src checking")
        .update_deps(CHECKING, 0, &[OpId(0)], "debit src", |row, _| {
            let mut r = row.clone();
            r[BAL] = Value::F64(r[BAL].as_f64() - AMOUNT);
            r
        })
        .update(CHECKING, 1, "credit dst", |row, _| {
            let mut r = row.clone();
            r[BAL] = Value::F64(r[BAL].as_f64() + AMOUNT);
            r
        })
        .guard(&[OpId(0)], "sufficient funds", |st| {
            if st.output_req(OpId(0))[BAL].as_f64() < AMOUNT {
                return Err("insufficient funds");
            }
            Ok(())
        })
        .build()
        .expect("SendPayment procedure is well-formed")
}

/// The classic SmallBank mix, write-heavy: 15% Balance, 15%
/// DepositChecking, 15% TransactSavings, 25% WriteCheck, 10% Amalgamate,
/// 20% SendPayment. Account picks are hot with probability
/// `hot_fraction`; two-account procedures always use distinct endpoints
/// drawn from the same temperature class.
pub struct SmallBankSource {
    cfg: SmallBankConfig,
    procs: SmallBankProcs,
}

impl SmallBankSource {
    pub fn new(cfg: SmallBankConfig, procs: SmallBankProcs) -> Self {
        SmallBankSource { cfg, procs }
    }

    fn pick_account(&self, rng: &mut StdRng) -> u64 {
        let c = &self.cfg;
        if rng.gen::<f64>() < c.hot_fraction && c.hot_accounts >= 1 {
            rng.gen_range(0..c.hot_accounts)
        } else {
            rng.gen_range(c.hot_accounts..c.accounts)
        }
    }

    fn pick_pair(&self, rng: &mut StdRng) -> (u64, u64) {
        let c = &self.cfg;
        if rng.gen::<f64>() < c.hot_fraction && c.hot_accounts >= 2 {
            let a = rng.gen_range(0..c.hot_accounts);
            let mut b = rng.gen_range(0..c.hot_accounts);
            if b == a {
                b = (b + 1) % c.hot_accounts;
            }
            (a, b)
        } else {
            let cold = c.accounts - c.hot_accounts;
            let a = rng.gen_range(c.hot_accounts..c.accounts);
            let mut b = rng.gen_range(c.hot_accounts..c.accounts);
            if b == a {
                b = c.hot_accounts + (b + 1 - c.hot_accounts) % cold;
            }
            (a, b)
        }
    }
}

impl InputSource for SmallBankSource {
    fn next_input(&mut self, rng: &mut StdRng, _now: SimTime) -> TxnInput {
        let roll = rng.gen_range(0u32..100);
        let p = &self.procs;
        if roll < 15 {
            let a = self.pick_account(rng);
            TxnInput {
                proc: p.balance,
                params: vec![Value::from(a)],
            }
        } else if roll < 30 {
            let a = self.pick_account(rng);
            TxnInput {
                proc: p.deposit_checking,
                params: vec![Value::from(a)],
            }
        } else if roll < 45 {
            let a = self.pick_account(rng);
            TxnInput {
                proc: p.transact_savings,
                params: vec![Value::from(a)],
            }
        } else if roll < 70 {
            let a = self.pick_account(rng);
            TxnInput {
                proc: p.write_check,
                params: vec![Value::from(a)],
            }
        } else if roll < 80 {
            let (a, b) = self.pick_pair(rng);
            TxnInput {
                proc: p.amalgamate,
                params: vec![Value::from(a), Value::from(b)],
            }
        } else {
            let (a, b) = self.pick_pair(rng);
            TxnInput {
                proc: p.send_payment,
                params: vec![Value::from(a), Value::from(b)],
            }
        }
    }
}

/// A SmallBank cluster builder: the six procedures, the accounts with
/// their placement and hot set, and one [`SmallBankSource`] per node. The
/// caller picks the backend, check mode and durability on the returned
/// builder.
pub fn builder(
    cfg: &SmallBankConfig,
    nodes: usize,
    protocol: Protocol,
    sim: SimConfig,
) -> ClusterBuilder {
    let mut b = ClusterBuilder::new(SmallBankConfig::schema(), nodes);
    let procs = register_procs(|p| b.register_proc(p));
    let cfg = cfg.clone();
    b.protocol(protocol)
        .config(sim)
        .placement(Arc::new(cfg.placement(nodes as u32)))
        .hot_records(cfg.hot_records())
        .load(cfg.initial_records())
        .source_per_node(move |_| Box::new(SmallBankSource::new(cfg.clone(), procs)));
    b
}

/// Sum of every checking and savings balance across primaries.
pub fn total_balance(cluster: &Cluster) -> f64 {
    cluster
        .engines()
        .iter()
        .flat_map(|e| {
            e.store()
                .table(CHECKING)
                .iter()
                .chain(e.store().table(SAVINGS).iter())
        })
        .map(|(_, row)| row[BAL].as_f64())
        .sum()
}

/// The SmallBank serializability contract, checked post-quiescence: the
/// total balance equals the initial total plus the *committed* deposit
/// count minus the *committed* check count (every other procedure
/// conserves, and guard failures are logic aborts that wrote nothing) —
/// plus the usual no-leaked-locks / no-zombies / no-divergence conditions.
///
/// Commit counts are read from the live engine metrics so transactions
/// that committed during the quiesce drain are included. The counts must
/// cover **every** commit since load: run with a zero warm-up window
/// (`RunSpec::millis(0, ..)`), because warm-up commits are discarded from
/// the metrics while their balance effects persist.
pub fn assert_smallbank_invariants(cluster: &Cluster, cfg: &SmallBankConfig, label: &str) {
    assert_smallbank_invariants_recovered(cluster, cfg, &[], label);
}

/// Crash-recovery variant of [`assert_smallbank_invariants`]: the balance
/// must equal the initial total adjusted by every commit across all of the
/// cluster's incarnations, not just the live engines' counters. `extra`
/// carries per-procedure commit counts from before the current
/// incarnation — the acked counts a [`chiller::CrashSnapshot`] captured at
/// each kill plus the [`chiller::RecoveryReport::recovered_unacked`]
/// commits recovery resolved that were never acked (their balance effects
/// survive in the recovered stores but no metrics counter ever saw them).
pub fn assert_smallbank_invariants_recovered(
    cluster: &Cluster,
    cfg: &SmallBankConfig,
    extra: &[&std::collections::BTreeMap<String, u64>],
    label: &str,
) {
    let count = |name: &str| -> u64 {
        let live: u64 = cluster
            .engines()
            .iter()
            .map(|e| e.metrics().per_type.get(name).map_or(0, |s| s.commits))
            .sum();
        live + extra
            .iter()
            .map(|m| m.get(name).copied().unwrap_or(0))
            .sum::<u64>()
    };
    let deposits = count("DepositChecking");
    let checks = count("WriteCheck");
    let expect = cfg.initial_total() + deposits as f64 * AMOUNT - checks as f64 * AMOUNT;
    let total = total_balance(cluster);
    assert!(
        (total - expect).abs() < 1e-6,
        "{label}: balance {total} != {expect} \
         (initial {} + {deposits} deposits - {checks} checks)",
        cfg.initial_total()
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

#[cfg(test)]
mod tests {
    use super::*;
    use chiller::cluster::RunSpec;
    use chiller_common::rng::seeded;

    #[test]
    fn conservation_under_all_protocols() {
        for protocol in [Protocol::Chiller, Protocol::TwoPhaseLocking, Protocol::Occ] {
            let cfg = SmallBankConfig::default();
            let mut cluster = builder(&cfg, 3, protocol, SimConfig::default())
                .build()
                .unwrap();
            let report = cluster.run(RunSpec::millis(0, 5));
            assert!(report.total_commits() > 0, "{protocol}");
            cluster.quiesce();
            assert_smallbank_invariants(&cluster, &cfg, &format!("{protocol}"));
        }
    }

    #[test]
    fn mix_exercises_every_procedure() {
        let cfg = SmallBankConfig::default();
        let mut cluster = builder(&cfg, 2, Protocol::Chiller, SimConfig::default())
            .build()
            .unwrap();
        let report = cluster.run(RunSpec::millis(0, 10));
        cluster.quiesce();
        for name in [
            "Balance",
            "DepositChecking",
            "TransactSavings",
            "WriteCheck",
            "Amalgamate",
            "SendPayment",
        ] {
            let stats = report
                .metrics
                .per_type
                .get(name)
                .unwrap_or_else(|| panic!("no metrics for {name}"));
            assert!(stats.commits > 0, "{name} never committed");
        }
    }

    #[test]
    fn pair_endpoints_always_distinct() {
        let cfg = SmallBankConfig::default();
        let procs = SmallBankProcs {
            balance: 0,
            deposit_checking: 1,
            transact_savings: 2,
            write_check: 3,
            amalgamate: 4,
            send_payment: 5,
        };
        let mut src = SmallBankSource::new(cfg, procs);
        let mut rng = seeded(7);
        for _ in 0..10_000 {
            let input = src.next_input(&mut rng, SimTime::ZERO);
            if input.params.len() == 2 {
                assert_ne!(input.params[0].as_i64(), input.params[1].as_i64());
            }
        }
    }

    #[test]
    fn hot_accounts_colocated_on_partition_zero() {
        let cfg = SmallBankConfig::default();
        let p = cfg.placement(4);
        for k in 0..cfg.hot_accounts {
            assert_eq!(p.partition_of(RecordId::new(CHECKING, k)), PartitionId(0));
            assert_eq!(p.partition_of(RecordId::new(SAVINGS, k)), PartitionId(0));
        }
        // A cold account's pair lands together too.
        for k in [100u64, 555, 999] {
            assert_eq!(
                p.partition_of(RecordId::new(CHECKING, k)),
                p.partition_of(RecordId::new(SAVINGS, k))
            );
        }
    }
}
