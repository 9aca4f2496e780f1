//! YCSB-style key-value microworkload with Zipfian skew.
//!
//! Not part of the paper's evaluation (the paper criticizes synthetic-only
//! evaluations), but indispensable as a controlled environment for studying
//! the engines: a single table, transactions of `ops_per_txn` point
//! reads/updates, Zipf-`theta` key skew, and a read fraction — the knobs
//! every concurrency-control study turns.

use chiller::prelude::*;
use chiller_common::rng::Zipf;
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::Arc;

pub const KV: TableId = TableId(51);

#[derive(Debug, Clone)]
pub struct YcsbConfig {
    pub records: u64,
    /// Operations per transaction.
    pub ops_per_txn: usize,
    /// Fraction of operations that are reads (rest are read-modify-writes).
    pub read_fraction: f64,
    /// Zipf skew over keys (0.0 = uniform; 0.99 = standard YCSB hotspot).
    pub theta: f64,
}

impl Default for YcsbConfig {
    fn default() -> Self {
        YcsbConfig {
            records: 100_000,
            ops_per_txn: 8,
            read_fraction: 0.5,
            theta: 0.9,
        }
    }
}

impl YcsbConfig {
    pub fn schema() -> Schema {
        let mut s = Schema::new();
        s.add(TableDef::new(KV, "kv", vec!["key", "field"]));
        s
    }

    pub fn initial_records(&self) -> Vec<(RecordId, Row)> {
        (0..self.records)
            .map(|k| (RecordId::new(KV, k), vec![Value::from(k), Value::I64(0)]))
            .collect()
    }

    /// The hottest keys (for Chiller's lookup table).
    pub fn hot_records(&self, n: usize) -> Vec<RecordId> {
        (0..n as u64).map(|k| RecordId::new(KV, k)).collect()
    }
}

/// One procedure per (reads, writes) split of a transaction. Params:
/// one key per op, reads first.
pub fn ycsb_proc(reads: usize, writes: usize) -> chiller_sproc::Procedure {
    let mut b = ProcedureBuilder::new("Ycsb");
    for slot in 0..reads {
        b = b.read(KV, slot, "read");
    }
    for slot in 0..writes {
        b = b.update(KV, reads + slot, "rmw", |row, _| {
            let mut r = row.clone();
            r[1] = Value::I64(r[1].as_i64() + 1);
            r
        });
    }
    b.build().expect("ycsb procedure is well-formed")
}

/// Procedure ids for every read/write split of `ops_per_txn` operations.
#[derive(Debug, Clone)]
pub struct YcsbProcs {
    /// `procs[r]` = transaction with `r` reads and `ops - r` writes.
    pub procs: Vec<usize>,
    pub ops: usize,
}

pub fn register_procs(
    ops: usize,
    mut register: impl FnMut(chiller_sproc::Procedure) -> usize,
) -> YcsbProcs {
    YcsbProcs {
        procs: (0..=ops).map(|r| register(ycsb_proc(r, ops - r))).collect(),
        ops,
    }
}

pub struct YcsbSource {
    cfg: YcsbConfig,
    procs: YcsbProcs,
    zipf: Zipf,
}

impl YcsbSource {
    pub fn new(cfg: &YcsbConfig, procs: YcsbProcs) -> Self {
        YcsbSource {
            zipf: Zipf::new(cfg.records as usize, cfg.theta),
            cfg: cfg.clone(),
            procs,
        }
    }
}

impl InputSource for YcsbSource {
    fn next_input(&mut self, rng: &mut StdRng, _now: SimTime) -> TxnInput {
        let ops = self.cfg.ops_per_txn;
        let reads = (0..ops)
            .filter(|_| rng.gen::<f64>() < self.cfg.read_fraction)
            .count();
        // Distinct keys, reads first (matching the registered layout).
        let mut keys: Vec<u64> = Vec::with_capacity(ops);
        while keys.len() < ops {
            let k = self.zipf.sample(rng) as u64;
            if !keys.contains(&k) {
                keys.push(k);
            }
        }
        TxnInput {
            proc: self.procs.procs[reads],
            params: keys.into_iter().map(Value::from).collect(),
        }
    }
}

/// A YCSB cluster builder: one procedure per read/write split (ids
/// `0..=ops_per_txn`, in read-count order), hash placement, and one
/// [`YcsbSource`] per node. With `hot_lookup > 0` the hottest keys get
/// lookup entries on partition 0 (the Chiller layout).
pub fn builder(
    cfg: &YcsbConfig,
    nodes: usize,
    hot_lookup: usize,
    protocol: Protocol,
    sim: SimConfig,
) -> ClusterBuilder {
    let mut b = ClusterBuilder::new(YcsbConfig::schema(), nodes);
    let procs = register_procs(cfg.ops_per_txn, |p| b.register_proc(p));
    let placement: Arc<dyn Placement + Send + Sync> = if hot_lookup > 0 {
        Arc::new(LookupTable::with_entries(
            (0..hot_lookup as u64).map(|k| (RecordId::new(KV, k), PartitionId(0))),
            HashPlacement::new(nodes as u32),
        ))
    } else {
        Arc::new(HashPlacement::new(nodes as u32))
    };
    let cfg = cfg.clone();
    b.protocol(protocol)
        .config(sim)
        .placement(placement)
        .hot_records(cfg.hot_records(hot_lookup))
        .load(cfg.initial_records())
        .source_per_node(move |_| Box::new(YcsbSource::new(&cfg, procs.clone())));
    b
}

/// A hotspot-shifting YCSB source for a cluster from [`builder`]: from
/// `shift_at` on, every key `k` rotates to `(k + rotate) % records`,
/// relocating the whole Zipf head to a different key range while keeping
/// the skew shape identical.
pub fn shifting_source(
    cfg: &YcsbConfig,
    shift_at: SimTime,
    rotate: u64,
) -> crate::shift::ShiftedSource<YcsbSource> {
    let procs = YcsbProcs {
        procs: (0..=cfg.ops_per_txn).collect(),
        ops: cfg.ops_per_txn,
    };
    let records = cfg.records;
    crate::shift::ShiftedSource::new(YcsbSource::new(cfg, procs), shift_at, move |input| {
        for p in &mut input.params {
            *p = crate::shift::rotate_key(p, rotate, records);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiller::cluster::RunSpec;
    use chiller_common::rng::seeded;

    #[test]
    fn proc_shapes() {
        let p = ycsb_proc(3, 5);
        assert_eq!(p.num_ops(), 8);
        assert!(matches!(
            p.op(chiller_common::ids::OpId(0)).kind,
            chiller_sproc::OpKind::Read { .. }
        ));
        assert!(p.op(chiller_common::ids::OpId(7)).kind.is_write());
    }

    #[test]
    fn source_respects_read_fraction() {
        let cfg = YcsbConfig {
            read_fraction: 0.75,
            ..Default::default()
        };
        let procs = register_procs(cfg.ops_per_txn, {
            let mut n = 0;
            move |_| {
                n += 1;
                n - 1
            }
        });
        let mut src = YcsbSource::new(&cfg, procs);
        let mut rng = seeded(4);
        let mut reads = 0usize;
        let n = 5_000;
        for _ in 0..n {
            let input = src.next_input(&mut rng, SimTime::ZERO);
            reads += input.proc; // proc index == number of reads
        }
        let frac = reads as f64 / (n * cfg.ops_per_txn) as f64;
        assert!((frac - 0.75).abs() < 0.02, "read fraction {frac}");
    }

    #[test]
    fn updates_are_counted_exactly_once() {
        // Sum of all fields == number of committed write ops.
        let cfg = YcsbConfig {
            records: 5_000,
            ops_per_txn: 4,
            read_fraction: 0.5,
            theta: 0.5,
        };
        let mut sim = SimConfig::default();
        sim.engine.concurrency = 3;
        sim.seed = 21;
        let mut cluster = builder(&cfg, 3, 0, Protocol::Chiller, sim).build().unwrap();
        let report = cluster.run(RunSpec::millis(1, 5));
        assert!(report.total_commits() > 100);
        cluster.quiesce();
        let total: i64 = cluster
            .engines()
            .iter()
            .flat_map(|e| e.store().table(KV).iter())
            .map(|(_, row)| row[1].as_i64())
            .sum();
        assert!(total > 0);
        // Cross-check against replica copies.
        let mut replica_total = 0i64;
        for e in cluster.engines() {
            for p in 0..cluster.num_nodes() as u32 {
                if let Some(r) = e.replica_store(PartitionId(p)) {
                    replica_total += r
                        .table(KV)
                        .iter()
                        .map(|(_, row)| row[1].as_i64())
                        .sum::<i64>();
                }
            }
        }
        assert_eq!(total, replica_total, "replicas diverged from primaries");
    }

    #[test]
    fn skew_drives_contention() {
        let run = |theta: f64| {
            let cfg = YcsbConfig {
                records: 20_000,
                theta,
                read_fraction: 0.2,
                ..Default::default()
            };
            let mut sim = SimConfig::default();
            sim.engine.concurrency = 6;
            sim.seed = 33;
            let mut cluster = builder(&cfg, 4, 0, Protocol::TwoPhaseLocking, sim)
                .build()
                .unwrap();
            cluster.run(RunSpec::millis(1, 5)).abort_rate()
        };
        let uniform = run(0.0);
        let skewed = run(1.1);
        assert!(
            skewed > uniform + 0.02,
            "skew must raise the abort rate (uniform {uniform}, skewed {skewed})"
        );
    }

    #[test]
    fn hot_lookup_reduces_aborts_under_chiller() {
        let run = |hot: usize, protocol: Protocol| {
            let cfg = YcsbConfig {
                records: 20_000,
                theta: 1.2,
                read_fraction: 0.2,
                ops_per_txn: 4,
            };
            let mut sim = SimConfig::default();
            sim.engine.concurrency = 6;
            sim.seed = 5;
            let mut cluster = builder(&cfg, 4, hot, protocol, sim).build().unwrap();
            cluster.run(RunSpec::millis(1, 8)).abort_rate()
        };
        let chiller = run(16, Protocol::Chiller);
        let two_pl = run(0, Protocol::TwoPhaseLocking);
        assert!(
            chiller < two_pl,
            "chiller with hot lookup ({chiller:.3}) must beat 2PL ({two_pl:.3})"
        );
    }
}
