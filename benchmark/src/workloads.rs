//! The seven workloads: what each one is, why it is here, and how its
//! cluster is set up. Everything goes through `ClusterBuilder` and the
//! workload crates' config / proc / source / placement items (README,
//! "Pinned API surface").

use crate::spans::Spans;
use chiller::prelude::*;
use chiller_common::rng::derive_seed;
use chiller_partition::{ChillerPartitioner, ContentionModel, LoadMetric};
use chiller_workload::instacart::{self, InstacartConfig, InstacartPlacement, InstacartSource};
use chiller_workload::smallbank::{self, SmallBankConfig, SmallBankSource};
use chiller_workload::tpcc::{self, TpccConfig, TpccMix, TpccPlacement, TpccSource};
use chiller_workload::transfer::{self, TransferConfig, TransferSource};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

/// Transactions each engine keeps open (the closed loop's client count
/// per engine).
pub const CONCURRENCY: usize = 4;
/// Worker threads every wall-clock workload runs on.
pub const WORKERS: usize = 2;
/// Partitions of the async workloads (so 32 closed-loop clients).
const ASYNC_PARTITIONS: usize = 8;
/// Trace length the Chiller partitioner sees in `instacart_part`.
const PARTITIONER_TRACE_TXNS: usize = 20_000;

/// Per-procedure commit counts, the unit SmallBank's conservation law
/// is stated in.
pub type ProcCounts = BTreeMap<String, u64>;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    HotChiller,
    Hot2pl,
    HotThreaded,
    ColdUniform,
    InstacartPart,
    TpccMix,
    SmallbankWal,
}

impl Workload {
    pub const ALL: [Workload; 7] = [
        Workload::HotChiller,
        Workload::Hot2pl,
        Workload::HotThreaded,
        Workload::ColdUniform,
        Workload::InstacartPart,
        Workload::TpccMix,
        Workload::SmallbankWal,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HotChiller => "hot_chiller",
            Workload::Hot2pl => "hot_2pl",
            Workload::HotThreaded => "hot_threaded",
            Workload::ColdUniform => "cold_uniform",
            Workload::InstacartPart => "instacart_part",
            Workload::TpccMix => "tpcc_mix",
            Workload::SmallbankWal => "smallbank_wal",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload is in the benchmark (also BENCHMARK.json's `why`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::HotChiller => {
                "paper's headline case: 30% of transfers hit 8 hot accounts, so two-region execution and the lock path do the work"
            }
            Workload::Hot2pl => {
                "same traffic under 2PL: the NO_WAIT abort/retry path dominates; a Chiller-only optimisation must not move it"
            }
            Workload::HotThreaded => {
                "same traffic on the thread-per-engine runtime (SPSC path), so the runtime merge has a before and after"
            }
            Workload::ColdUniform => {
                "200 000 uniform accounts, no hot set: mailbox, scheduler and cache-missing store probes; bypass for contention work"
            }
            Workload::InstacartPart => {
                "set-up runs the Chiller partitioner on a 20 000-txn trace; 10-item baskets, every transaction distributed"
            }
            Workload::TpccMix => {
                "TPC-C NewOrder+Payment on 8 warehouses: inserts, wide procedures, growing tables; fixed work of 30 000 commits"
            }
            Workload::SmallbankWal => {
                "SmallBank with a redo log and group commit: WAL append, fsync and kill-then-recover; volatile runs never touch it"
            }
        }
    }

    /// Fixed work (a commit target on fresh clusters) instead of timed
    /// windows: TPC-C's tables grow, so it has no steady state to window.
    pub fn fixed_work(self) -> bool {
        self == Workload::TpccMix
    }

    pub fn durable(self) -> bool {
        self == Workload::SmallbankWal
    }

    fn backend(self) -> Backend {
        match self {
            Workload::HotThreaded => Backend::Threaded,
            _ => Backend::Async,
        }
    }

    /// Engines: 8 async partitions, or one per worker thread on the
    /// thread-per-engine runtime.
    pub fn nodes(self) -> usize {
        match self {
            Workload::HotThreaded => WORKERS,
            _ => ASYNC_PARTITIONS,
        }
    }

    fn protocol(self) -> Protocol {
        match self {
            Workload::Hot2pl => Protocol::TwoPhaseLocking,
            _ => Protocol::Chiller,
        }
    }
}

/// The seed-derived inputs of one workload, ready to build clusters from.
pub struct Prepared {
    pub workload: Workload,
    seed: u64,
    rig: Rig,
}

enum Rig {
    Transfer(TransferConfig),
    Instacart {
        cfg: InstacartConfig,
        stock: Arc<dyn Placement + Send + Sync>,
        hot: Vec<RecordId>,
    },
    Tpcc(TpccConfig),
    SmallBank(SmallBankConfig),
}

/// How one cluster of a prepared workload differs from the default
/// (the workload's own backend, no observation, volatile).
#[derive(Clone, Copy, Default)]
pub struct Variant<'a> {
    /// Run on the simulator instead (the `cc.cpu_us_per_commit` probe).
    pub simulated: bool,
    /// Full tracing and full history checking (the traced pass).
    pub observed: bool,
    /// Redo-log directory (`smallbank_wal`).
    pub durable: Option<&'a Path>,
}

/// Generate the workload's inputs from `seed`. For `instacart_part`
/// this is where the trace is sampled and the partitioner runs.
pub fn prepare(workload: Workload, seed: u64, spans: &mut Spans) -> Prepared {
    let rig = match workload {
        Workload::HotChiller | Workload::Hot2pl | Workload::HotThreaded => {
            Rig::Transfer(TransferConfig {
                accounts: 2_000,
                hot_set: 8,
                hot_fraction: 0.3,
            })
        }
        Workload::ColdUniform => Rig::Transfer(TransferConfig {
            accounts: 200_000,
            hot_set: 8,
            hot_fraction: 0.0,
        }),
        Workload::InstacartPart => {
            let cfg = InstacartConfig {
                seed: derive_seed(seed, 0x1257AC),
                ..InstacartConfig::default()
            };
            let trace = spans.scope("trace_gen", |_| {
                instacart::trace(&cfg, PARTITIONER_TRACE_TXNS, 40_000_000)
            });
            let parts = spans.scope("partition", |_| {
                let model = ContentionModel::new(30_000.0, trace.window_ns as f64);
                let mut partitioner = ChillerPartitioner::new(ASYNC_PARTITIONS as u32, model);
                partitioner.seed = derive_seed(seed, 0xC411E6);
                partitioner.load_metric = LoadMetric::Transactions;
                partitioner.hot_threshold = 0.05;
                partitioner.epsilon = 8.0;
                partitioner.partition(&trace)
            });
            let mut hot: Vec<RecordId> = parts.hot_assignments.keys().copied().collect();
            hot.sort();
            Rig::Instacart {
                cfg,
                stock: Arc::new(parts.into_lookup_table()),
                hot,
            }
        }
        Workload::TpccMix => Rig::Tpcc(TpccConfig {
            seed: derive_seed(seed, 0x79CC),
            ..TpccConfig::with_warehouses(ASYNC_PARTITIONS as u64)
        }),
        Workload::SmallbankWal => Rig::SmallBank(SmallBankConfig::default()),
    };
    Prepared {
        workload,
        seed,
        rig,
    }
}

impl Prepared {
    /// Load the data and build one cluster.
    pub fn build(&self, variant: Variant<'_>, spans: &mut Spans) -> Cluster {
        spans.scope("build", |_| self.build_cluster(variant))
    }

    fn build_cluster(&self, variant: Variant<'_>) -> Cluster {
        let w = self.workload;
        let nodes = w.nodes();
        let mut sim = SimConfig {
            seed: self.seed,
            ..SimConfig::default()
        };
        sim.engine.concurrency = CONCURRENCY;
        let mut b = match &self.rig {
            Rig::Transfer(cfg) => {
                let mut b = ClusterBuilder::new(TransferConfig::schema(), nodes);
                let proc = b.register_proc(transfer::transfer_proc());
                b.placement(Arc::new(cfg.chiller_placement(nodes as u32)))
                    .hot_records(cfg.hot_records())
                    .load(cfg.initial_records());
                let cfg = cfg.clone();
                b.source_per_node(move |_| Box::new(TransferSource::new(cfg.clone(), proc)));
                b
            }
            Rig::Instacart { cfg, stock, hot } => {
                let mut b = ClusterBuilder::new(InstacartConfig::schema(), nodes);
                let procs = instacart::register_procs(|p| b.register_proc(p));
                b.placement(Arc::new(InstacartPlacement {
                    stock: stock.clone(),
                    partitions: nodes as u32,
                }))
                .hot_records(hot.iter().copied())
                .load(cfg.initial_records());
                let cfg = cfg.clone();
                b.source_per_node(move |node| {
                    Box::new(InstacartSource::new(&cfg, procs.clone(), node.0 as u64))
                });
                b
            }
            Rig::Tpcc(cfg) => {
                let mut b = ClusterBuilder::new(tpcc::tpcc_schema(), nodes);
                let procs = tpcc::register_procs(|p| b.register_proc(p));
                b.placement(Arc::new(TpccPlacement::new(nodes as u32)))
                    .hot_records(tpcc::hot_records(cfg))
                    .load(tpcc::load_tpcc(cfg));
                let cfg = cfg.clone();
                let mix = TpccMix::payment_neworder(0.10);
                b.source_per_node(move |node| {
                    Box::new(TpccSource::new(
                        cfg.clone(),
                        procs.clone(),
                        mix,
                        node.0 as u64 + 1,
                    ))
                });
                b
            }
            Rig::SmallBank(cfg) => {
                let mut b = ClusterBuilder::new(SmallBankConfig::schema(), nodes);
                let procs = smallbank::register_procs(|p| b.register_proc(p));
                b.placement(Arc::new(cfg.placement(nodes as u32)))
                    .hot_records(cfg.hot_records())
                    .load(cfg.initial_records());
                let cfg = cfg.clone();
                b.source_per_node(move |_| Box::new(SmallBankSource::new(cfg.clone(), procs)));
                b
            }
        };
        b.protocol(w.protocol()).config(sim).workers(WORKERS);
        b.runtime(if variant.simulated {
            Backend::Simulated
        } else {
            w.backend()
        });
        // Explicit either way, so an ambient CHILLER_TRACE / CHILLER_CHECK
        // cannot switch observation on under the end-to-end pass.
        if variant.observed {
            b.trace(TraceMode::Full).check(CheckMode::Full);
        } else {
            b.trace(TraceMode::Off).check(CheckMode::Off);
        }
        if let Some(dir) = variant.durable {
            b.durable(dir).fsync_batch(64);
        }
        b.build().expect("valid benchmark cluster")
    }

    /// The workload's correctness gate on a quiesced cluster; panics on a
    /// violation. `prior` carries per-procedure commits the cluster's
    /// live counters no longer hold (earlier windows, a dead incarnation).
    pub fn assert_invariants(&self, cluster: &Cluster, prior: &[&ProcCounts], label: &str) {
        match &self.rig {
            Rig::Transfer(cfg) => transfer::assert_serializability_invariants(cluster, cfg, label),
            Rig::Tpcc(cfg) => tpcc::assert_tpcc_invariants(cluster, cfg, label),
            Rig::SmallBank(cfg) => {
                smallbank::assert_smallbank_invariants_recovered(cluster, cfg, prior, label)
            }
            Rig::Instacart { .. } => {
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
        }
    }
}
