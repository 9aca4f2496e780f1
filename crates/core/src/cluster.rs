//! Cluster construction and execution, including the epoch scheduler that
//! drives online adaptation (monitor drain → replan → migration injection).

use chiller_adaptive::{AdaptiveConfig, AdaptivePlanner, Directory, MigrationPlan};
use chiller_cc::engine::{EngineActor, EngineParams, HotSet};
use chiller_cc::input::{InputSource, ProcRegistry};
use chiller_cc::msg::Msg;
use chiller_cc::Protocol;
use chiller_checker::{CheckMode, CheckReport};
use chiller_common::config::SimConfig;
use chiller_common::error::{ChillerError, Result};
use chiller_common::ids::{NodeId, PartitionId, RecordId};
use chiller_common::time::{Duration, SimTime};
use chiller_common::value::Row;
use chiller_obs::{History, HistoryRecorder, TraceLog, TraceMode, Tracer};
use chiller_simnet::{AsyncConfig, AsyncRuntime, Backend, Ctx, Runtime, Simulation};
use chiller_sproc::Procedure;
use chiller_storage::placement::{HashPlacement, Placement};
use chiller_storage::schema::Schema;
use chiller_storage::store::PartitionStore;
use chiller_storage::wal::{read_checkpoint, StoreSnapshot, Wal, WalReader, DEFAULT_FSYNC_BATCH};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::crash::{self, CrashSnapshot, RecoveryReport};
use crate::knobs::Knobs;
use crate::report::RunReport;

/// How long to run a workload: a warm-up window whose metrics are
/// discarded, then a measured window. Durations are virtual nanoseconds
/// on the simulated backend and wall-clock nanoseconds on the others.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    pub warmup: Duration,
    pub measure: Duration,
}

impl RunSpec {
    /// A run of `warmup` (metrics discarded) followed by `measure`.
    pub fn new(warmup: Duration, measure: Duration) -> Self {
        RunSpec { warmup, measure }
    }

    /// Convenience: warm-up and measurement in milliseconds of virtual time.
    pub fn millis(warmup_ms: u64, measure_ms: u64) -> Self {
        RunSpec::new(
            Duration::from_millis(warmup_ms),
            Duration::from_millis(measure_ms),
        )
    }
}

/// Per-node factory producing each engine's transaction input stream.
pub type SourceFactory = Box<dyn Fn(NodeId) -> Box<dyn InputSource>>;

/// Builder for a simulated cluster: one node per partition, each running
/// one execution engine (the paper's one-engine-per-core deployment).
pub struct ClusterBuilder {
    schema: Schema,
    nodes: usize,
    protocol: Protocol,
    config: SimConfig,
    registry: ProcRegistry,
    placement: Option<Arc<dyn Placement + Send + Sync>>,
    hot: HashSet<RecordId>,
    records: Vec<(RecordId, Row)>,
    source_factory: Option<SourceFactory>,
    adaptive: Option<AdaptiveConfig>,
    backend: Backend,
    workers: Option<usize>,
    trace: Option<TraceMode>,
    check: Option<CheckMode>,
    durable: Option<PathBuf>,
    fsync_batch: Option<u64>,
}

impl ClusterBuilder {
    /// Start a builder for a cluster of `nodes` partitions sharing
    /// `schema` — one node per partition, each running one execution
    /// engine (the paper's one-engine-per-core deployment). Defaults:
    /// Chiller protocol, default `SimConfig`, hash placement, simulated
    /// backend, no adaptation.
    pub fn new(schema: Schema, nodes: usize) -> Self {
        assert!(nodes >= 1);
        ClusterBuilder {
            schema,
            nodes,
            protocol: Protocol::Chiller,
            config: SimConfig::default(),
            registry: ProcRegistry::new(),
            placement: None,
            hot: HashSet::new(),
            records: Vec::new(),
            source_factory: None,
            adaptive: None,
            backend: Backend::Simulated,
            workers: None,
            trace: None,
            check: None,
            durable: None,
            fsync_batch: None,
        }
    }

    /// Make the cluster durable: every engine appends committed effects to
    /// a per-node redo log under `dir` (`node-<n>.wal`), checkpoints land
    /// beside them (`node-<n>.ckpt`), and a later `build()` against the
    /// same directory recovers — checkpoint restore, version-exact redo
    /// replay, in-doubt resolution, replica re-sync (DESIGN.md §15).
    /// Defaults to the `CHILLER_WAL` environment knob (off when unset);
    /// the builder override wins over the environment.
    pub fn durable(&mut self, dir: impl Into<PathBuf>) -> &mut Self {
        self.durable = Some(dir.into());
        self
    }

    /// Group-commit batch: how many commit marks (`Decide`/`InnerCommit`
    /// records) each redo log buffers per group-commit point, where it
    /// writes them and hands the fsync to its syncer thread. 1 fsyncs
    /// every commit durably before the next: the append waits for the
    /// syncer. Larger values amortize the sync across a batch and do not
    /// wait for it. Batch boundaries write
    /// bytes through without a sync; every control-plane pause flushes
    /// and waits for the sync. Defaults to the `CHILLER_FSYNC_BATCH`
    /// environment knob, falling back to
    /// [`chiller_storage::wal::DEFAULT_FSYNC_BATCH`]; the builder
    /// override wins. Ignored without durability.
    pub fn fsync_batch(&mut self, n: u64) -> &mut Self {
        assert!(n > 0, "fsync batch must be positive");
        self.fsync_batch = Some(n);
        self
    }

    /// Select the serializability-checking mode (DESIGN.md §14):
    /// [`CheckMode::Off`] (the default) or [`CheckMode::Full`], which
    /// certifies the whole history. When enabled, every engine records
    /// the versioned reads and installed writes of its transactions into
    /// its own history log; [`Cluster::check_history`] drains and checks
    /// them.
    /// Defaults to the `CHILLER_CHECK` environment knob (off when unset);
    /// the builder override wins over the environment.
    pub fn check(&mut self, mode: CheckMode) -> &mut Self {
        self.check = Some(mode);
        self
    }

    /// Select the transaction-lifecycle trace mode (DESIGN.md §13):
    /// [`TraceMode::Off`] (the default) or [`TraceMode::Full`], every
    /// transaction's lifecycle, lock spans and remote hops. Defaults to
    /// the `CHILLER_TRACE` environment knob (off when unset); the builder
    /// override wins over the environment. Drained events are available
    /// via [`Cluster::take_trace`] after a run.
    pub fn trace(&mut self, mode: TraceMode) -> &mut Self {
        self.trace = Some(mode);
        self
    }

    /// Select the execution backend: the deterministic simulator (default,
    /// the correctness/parity oracle) or the wall-clock worker pool, sized
    /// at one worker thread per node (`Backend::Threaded`) or by
    /// [`Self::workers`] (`Backend::Async`, for partition counts far
    /// beyond the core count). Same engines, protocols and workloads
    /// either way.
    pub fn runtime(&mut self, b: Backend) -> &mut Self {
        self.backend = b;
        self
    }

    /// Size the async backend's worker pool explicitly. Defaults to the
    /// `CHILLER_WORKERS` environment knob, falling back to the detected
    /// host parallelism; always clamped to the node count. Ignored by
    /// the simulated and threaded backends (the former has no workers,
    /// the latter is the same pool at one worker per node by definition).
    pub fn workers(&mut self, n: usize) -> &mut Self {
        self.workers = Some(n);
        self
    }

    /// Select the concurrency-control protocol every engine runs
    /// (Chiller two-region, 2PL+2PC, or distributed OCC).
    pub fn protocol(&mut self, p: Protocol) -> &mut Self {
        self.protocol = p;
        self
    }

    /// Set the simulation/engine configuration: RNG seed, engine
    /// concurrency, network cost model (simulated backend only),
    /// replication factor, retry policy.
    pub fn config(&mut self, c: SimConfig) -> &mut Self {
        self.config = c;
        self
    }

    /// Register a stored procedure; returns the id used in [`chiller_cc::input::TxnInput`].
    pub fn register_proc(&mut self, p: Procedure) -> usize {
        self.registry.register(p)
    }

    /// Record placement (defaults to hash over all partitions).
    pub fn placement(&mut self, p: Arc<dyn Placement + Send + Sync>) -> &mut Self {
        self.placement = Some(p);
        self
    }

    /// Mark records as hot (the run-time decision consults this set; it is
    /// normally derived from the contention-likelihood threshold, §4.4).
    pub fn hot_records(&mut self, hot: impl IntoIterator<Item = RecordId>) -> &mut Self {
        self.hot.extend(hot);
        self
    }

    /// Stage initial records (distributed by the placement at build time).
    pub fn load(&mut self, records: impl IntoIterator<Item = (RecordId, Row)>) -> &mut Self {
        self.records.extend(records);
        self
    }

    /// Provide each node's transaction input stream. A later call replaces
    /// the earlier factory.
    pub fn source_per_node(
        &mut self,
        f: impl Fn(NodeId) -> Box<dyn InputSource> + 'static,
    ) -> &mut Self {
        self.source_factory = Some(Box::new(f));
        self
    }

    /// Enable online adaptation: the provided (or default) placement
    /// becomes the *default* layer of a mutable [`Directory`], the seed hot
    /// set becomes its initial entries, every engine gets a
    /// `ContentionMonitor`, and [`Cluster::run`] drives the epoch loop
    /// (drain monitors → replan → inject migrations).
    pub fn adaptive(&mut self, cfg: AdaptiveConfig) -> &mut Self {
        self.adaptive = Some(cfg);
        self
    }

    /// Materialize the cluster: allocate primary and replica stores,
    /// distribute the staged records by the configured placement, build
    /// one engine actor per node, and wrap everything in the selected
    /// execution backend. Fails on configuration errors (no input
    /// source, no procedures, records placed off-cluster, adaptation
    /// combined with OCC or a zero epoch).
    pub fn build(self) -> Result<Cluster> {
        let knobs = Knobs::from_env();
        let source_factory = self
            .source_factory
            .ok_or_else(|| ChillerError::Config("no input source configured".into()))?;
        if self.registry.is_empty() {
            return Err(ChillerError::Config(
                "no stored procedures registered".into(),
            ));
        }
        if self.adaptive.is_some() && self.protocol == Protocol::Occ {
            return Err(ChillerError::Config(
                "online adaptation supports the lock-based protocols (Chiller, 2PL); \
                 OCC validation is version-based and does not retry migrated records"
                    .into(),
            ));
        }
        if let Some(cfg) = &self.adaptive {
            if cfg.epoch == Duration::ZERO {
                return Err(ChillerError::Config(
                    "adaptation epoch must be non-zero".into(),
                ));
            }
        }
        let base_placement: Arc<dyn Placement + Send + Sync> = self
            .placement
            .unwrap_or_else(|| Arc::new(HashPlacement::new(self.nodes as u32)));
        let registry = Arc::new(self.registry);

        // With adaptation, the run-time placement is a mutable directory
        // whose entries initially mirror the seed layout for the hot set —
        // routing starts out identical to the frozen configuration.
        let (placement, hot_set, adaptive): (
            Arc<dyn Placement + Send + Sync>,
            HotSet,
            Option<AdaptiveState>,
        ) = match self.adaptive {
            None => (base_placement, HotSet::Static(Arc::new(self.hot)), None),
            Some(cfg) => {
                let entries: Vec<(RecordId, PartitionId)> = self
                    .hot
                    .iter()
                    .map(|&r| (r, base_placement.partition_of(r)))
                    .collect();
                let directory = Arc::new(Directory::new(
                    base_placement,
                    entries,
                    self.hot.iter().copied(),
                ));
                let planner = AdaptivePlanner::new(cfg.clone(), self.nodes as u32);
                (
                    directory.clone(),
                    HotSet::Adaptive(directory.clone()),
                    Some(AdaptiveState {
                        cfg,
                        directory,
                        planner,
                        next_epoch: SimTime::ZERO,
                        stats: AdaptiveStats::default(),
                    }),
                )
            }
        };

        // Primary stores.
        let mut primaries: Vec<PartitionStore> = (0..self.nodes)
            .map(|p| PartitionStore::new(PartitionId(p as u32), self.schema.clone()))
            .collect();
        // Replica stores: node n holds replicas of partitions (n - i) mod N.
        let replica_count = self
            .config
            .replication
            .replicas()
            .min(self.nodes.saturating_sub(1));
        let mut replicas: Vec<HashMap<PartitionId, PartitionStore>> = (0..self.nodes)
            .map(|n| {
                (1..=replica_count)
                    .map(|i| {
                        let p = PartitionId(((n + self.nodes - i) % self.nodes) as u32);
                        (p, PartitionStore::new(p, self.schema.clone()))
                    })
                    .collect()
            })
            .collect();

        // Tracing, checking, durability and the pool size resolve builder
        // overrides first, then the `CHILLER_*` knobs. When off, every
        // engine carries a no-op tracer and recorder. Opening the logs
        // happens before data load: surviving records or checkpoints mean
        // this build is a restart and must run recovery over the loaded
        // initial state.
        let trace_mode = self.trace.unwrap_or(knobs.trace);
        let check_mode = self.check.unwrap_or(knobs.check);
        let durable_dir = self.durable.or(knobs.wal);
        let fsync_batch = self
            .fsync_batch
            .or(knobs.fsync_batch)
            .unwrap_or(DEFAULT_FSYNC_BATCH);
        let mut durability: Option<DurableSetup> = match durable_dir {
            None => None,
            Some(dir) => {
                std::fs::create_dir_all(&dir).map_err(|e| {
                    ChillerError::Config(format!(
                        "cannot create WAL directory {}: {e}",
                        dir.display()
                    ))
                })?;
                let mut wals = Vec::with_capacity(self.nodes);
                let mut log_lens = Vec::with_capacity(self.nodes);
                let mut snapshots = Vec::with_capacity(self.nodes);
                for n in 0..self.nodes {
                    let (wal, valid_len) =
                        Wal::open(&wal_path(&dir, n), fsync_batch).map_err(|e| {
                            ChillerError::Config(format!("cannot open WAL for node {n}: {e}"))
                        })?;
                    snapshots.push(read_checkpoint(&ckpt_path(&dir, n)));
                    wals.push(wal);
                    log_lens.push(valid_len);
                }
                Some(DurableSetup {
                    dir,
                    wals,
                    log_lens,
                    snapshots,
                })
            }
        };
        let recovery_needed = durability.as_ref().is_some_and(|d| {
            d.snapshots.iter().any(Option::is_some) || d.log_lens.iter().any(|&l| l > 0)
        });

        for (rid, mut row) in self.records {
            let p = placement.partition_of(rid);
            if p.idx() >= self.nodes {
                return Err(ChillerError::Config(format!(
                    "placement sent {rid} to partition {p} but the cluster has {} nodes",
                    self.nodes
                )));
            }
            // Copy 0 is the primary, copies 1..=replica_count the replicas;
            // every copy but the last is a clone, the last takes the row.
            for i in 0..=replica_count {
                let copy = if i == replica_count {
                    std::mem::take(&mut row)
                } else {
                    row.clone()
                };
                let node = (p.idx() + i) % self.nodes;
                if i == 0 {
                    primaries[node].load(rid, copy);
                } else {
                    replicas[node]
                        .get_mut(&p)
                        .expect("replica store allocated")
                        .load(rid, copy);
                }
            }
        }

        // Restart path: recover the loaded stores from the surviving
        // checkpoints + logs, then make the recovered state the new
        // baseline (fresh checkpoints, truncated logs, bumped epoch).
        let mut recovery: Option<RecoveryReport> = None;
        if recovery_needed {
            let d = durability.as_mut().expect("recovery implies durability");
            let epoch = read_epoch(&d.dir) + 1;
            assert!(
                epoch < 256,
                "restart epoch {epoch} would overflow the TxnId sequence band \
                 (epoch << 32 must stay below 2^40)"
            );
            let mut rep = RecoveryReport {
                epoch,
                ..Default::default()
            };
            for (n, snap) in d.snapshots.iter().enumerate() {
                if let Some(snap) = snap {
                    primaries[n].restore(snap);
                    rep.checkpoints_restored += 1;
                }
            }
            let read_failed =
                |e| ChillerError::Config(format!("cannot read the WALs back for recovery: {e}"));
            let mut logs = (d.log_lens.iter().enumerate())
                .map(|(n, &len)| WalReader::open(&wal_path(&d.dir, n), len))
                .collect::<std::io::Result<Vec<_>>>()
                .map_err(read_failed)?;
            crash::recover(
                &mut primaries,
                &mut replicas,
                &mut logs,
                placement.as_ref(),
                &mut rep,
            )
            .map_err(read_failed)?;
            drop(logs);
            for (n, wal) in d.wals.iter_mut().enumerate() {
                chiller_storage::wal::write_checkpoint(&ckpt_path(&d.dir, n), &primaries[n])
                    .map_err(|e| {
                        ChillerError::Config(format!(
                            "cannot checkpoint node {n} after recovery: {e}"
                        ))
                    })?;
                wal.truncate();
            }
            write_epoch(&d.dir, epoch)?;
            recovery = Some(rep);
        }
        // Each incarnation owns its epoch's band of transaction ids, and its
        // sources are told the epoch to salt the keys they mint.
        let epoch = recovery.as_ref().map_or(0, |r| r.epoch);
        let txn_seq_start = epoch << 32;
        let (durable_dir, mut wals): (Option<PathBuf>, Vec<Option<Wal>>) = match durability {
            Some(d) => (Some(d.dir), d.wals.into_iter().map(Some).collect()),
            None => (None, (0..self.nodes).map(|_| None).collect()),
        };

        let mut actors = Vec::with_capacity(self.nodes);
        for (n, (store, reps)) in primaries.into_iter().zip(replicas).enumerate() {
            let node = NodeId(n as u32);
            let monitor = adaptive.as_ref().map(|a| {
                chiller_adaptive::ContentionMonitor::new(
                    a.cfg.sample_every,
                    a.cfg.max_samples_per_epoch,
                )
            });
            let mut source = source_factory(node);
            source.resume_at_epoch(epoch);
            actors.push(EngineActor::new(EngineParams {
                node,
                num_nodes: self.nodes,
                protocol: self.protocol,
                config: self.config.clone(),
                registry: registry.clone(),
                placement: placement.clone(),
                hot: hot_set.clone(),
                store,
                replicas: reps,
                source,
                monitor,
                tracer: Tracer::new(trace_mode, knobs.trace_buf),
                recorder: HistoryRecorder::new(check_mode.enabled()),
                wal: wals[n].take(),
                txn_seq_start,
            }));
        }
        let rt: Box<dyn Runtime<Msg, EngineActor>> = match self.backend {
            Backend::Simulated => Box::new(Simulation::new(actors, self.config.network.clone())),
            // The wall-clock backends have no modelled network: latency is
            // whatever the host's mailboxes and scheduler deliver. Both run
            // the worker pool; `Threaded` gives it one worker per engine.
            Backend::Threaded => Box::new(AsyncRuntime::with_config(
                actors,
                AsyncConfig {
                    workers: Some(self.nodes),
                    ..AsyncConfig::default()
                },
            )),
            Backend::Async => Box::new(AsyncRuntime::with_config(
                actors,
                AsyncConfig {
                    workers: self.workers.or(knobs.workers),
                    ..AsyncConfig::default()
                },
            )),
        };
        Ok(Cluster {
            rt,
            backend: self.backend,
            adaptive,
            trace_mode,
            trace: TraceLog::default(),
            check_mode,
            history: History::default(),
            durable_dir,
            recovery,
        })
    }
}

/// Per-node durability state assembled while building: open logs (with
/// the byte length of what survives in each) and decoded checkpoints.
struct DurableSetup {
    dir: PathBuf,
    wals: Vec<Wal>,
    log_lens: Vec<u64>,
    snapshots: Vec<Option<StoreSnapshot>>,
}

fn wal_path(dir: &Path, n: usize) -> PathBuf {
    dir.join(format!("node-{n}.wal"))
}

fn ckpt_path(dir: &Path, n: usize) -> PathBuf {
    dir.join(format!("node-{n}.ckpt"))
}

fn epoch_path(dir: &Path) -> PathBuf {
    dir.join("epoch")
}

/// Restart epoch persisted in the durable directory: 0 on a fresh
/// directory, incremented by every recovering build.
fn read_epoch(dir: &Path) -> u64 {
    std::fs::read_to_string(epoch_path(dir))
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(0)
}

fn write_epoch(dir: &Path, e: u64) -> Result<()> {
    std::fs::write(epoch_path(dir), format!("{e}\n"))
        .map_err(|e| ChillerError::Config(format!("cannot write epoch file: {e}")))
}

/// Control-plane state of an adapting cluster.
struct AdaptiveState {
    cfg: AdaptiveConfig,
    directory: Arc<Directory>,
    planner: AdaptivePlanner,
    next_epoch: SimTime,
    stats: AdaptiveStats,
}

/// Running totals of the adaptation loop (control-plane view; the
/// data-plane migration counters live in the engine metrics).
#[derive(Debug, Clone, Copy, Default)]
pub struct AdaptiveStats {
    pub epochs: u64,
    pub plans: u64,
    pub moves_planned: u64,
    pub promotions: u64,
    pub demotions: u64,
}

/// A built cluster ready to run, driving either execution backend through
/// the backend-neutral [`Runtime`] surface.
pub struct Cluster {
    rt: Box<dyn Runtime<Msg, EngineActor>>,
    /// The backend this cluster was built for (report labelling).
    backend: Backend,
    adaptive: Option<AdaptiveState>,
    trace_mode: TraceMode,
    /// Trace events drained from the engines since the last take.
    trace: TraceLog,
    check_mode: CheckMode,
    /// Observations drained from the engines since the last take. Unlike
    /// traces, history is *never* discarded at a metrics reset — a
    /// transaction straddling the warm-up boundary must keep its reads and
    /// its commit in one history or the checker would see a torn
    /// transaction.
    history: History,
    /// Directory holding per-node logs + checkpoints when durable.
    durable_dir: Option<PathBuf>,
    /// What recovery found and did, when this build was a restart.
    recovery: Option<RecoveryReport>,
}

impl Cluster {
    /// Run warm-up (metrics discarded) then the measured window; report.
    /// With adaptation enabled, both windows are driven by the epoch
    /// scheduler (monitoring starts during warm-up, so the planner has data
    /// by the time measurement begins).
    pub fn run(&mut self, spec: RunSpec) -> RunReport {
        let start = self.rt.now();
        // A zero-length warm-up means "no boundary": skip the reset so
        // trace spans recorded at the very first instant are not split
        // from their begin events (and a fresh cluster's metrics are
        // already zero, so there is nothing to discard).
        if spec.warmup != Duration::ZERO {
            self.advance(start + spec.warmup);
            self.reset_metrics();
        }
        let measure_start = self.rt.now();
        let wall_start = std::time::Instant::now();
        self.advance(measure_start + spec.measure);
        let wall = wall_start.elapsed();
        let elapsed = self.rt.now() - measure_start;
        self.collect(elapsed, wall)
    }

    /// Continue running without resetting metrics (incremental windows).
    /// The adaptation loop, when enabled, keeps running.
    pub fn run_more(&mut self, d: Duration) -> RunReport {
        let start = self.rt.now();
        let wall_start = std::time::Instant::now();
        self.advance(start + d);
        let wall = wall_start.elapsed();
        let elapsed = self.rt.now() - start;
        self.collect(elapsed, wall)
    }

    /// Clear accumulated engine metrics (used to delimit measurement
    /// phases, e.g. before and after a workload shift). Trace events
    /// recorded so far are discarded with them, so a post-warm-up reset
    /// leaves only measured-window events in [`Self::take_trace`].
    pub fn reset_metrics(&mut self) {
        for engine in self.rt.actors_mut() {
            engine.reset_metrics();
        }
        self.drain_observations();
        self.trace = TraceLog::default();
        // History is drained too, but — unlike traces — NOT discarded:
        // serializability is a whole-run property, and a warm-up discard
        // here would tear a boundary-straddling transaction's reads from
        // its commit marker.
    }

    /// The active trace mode (resolved from the builder override or the
    /// `CHILLER_TRACE` environment knob at build time).
    pub fn trace_mode(&self) -> TraceMode {
        self.trace_mode
    }

    /// Drain every engine's trace log and hand over everything recorded
    /// since the last take (or the last [`Self::reset_metrics`]). Empty
    /// when tracing is off.
    pub fn take_trace(&mut self) -> TraceLog {
        self.drain_observations();
        std::mem::take(&mut self.trace)
    }

    /// Move every engine's buffered trace events and observations into
    /// the accumulated log and history. The runtime is paused whenever
    /// this thread holds the cluster, so the engines are ours to read.
    /// Each drain empties the engines' logs, so a trace log's cap bounds
    /// what one engine records between two pause points.
    fn drain_observations(&mut self) {
        for engine in self.rt.actors_mut() {
            engine.drain_observations(&mut self.trace, &mut self.history);
        }
    }

    /// The active serializability-check mode (resolved from the builder
    /// override or the `CHILLER_CHECK` environment knob at build time).
    pub fn check_mode(&self) -> CheckMode {
        self.check_mode
    }

    /// Drain every engine's history log and hand over the accumulated
    /// observation history (all of it, warm-up included). Empty when
    /// checking is off.
    pub fn take_history(&mut self) -> History {
        self.drain_observations();
        std::mem::take(&mut self.history)
    }

    /// Drain and check the accumulated history for serializability under
    /// the cluster's check mode: assemble committed transactions, build
    /// WR/WW/RW dependency edges, and search for cycles. The history is
    /// consumed. Vacuously ok when checking is off.
    ///
    /// Call after [`Self::quiesce`] so no transaction is mid-flight —
    /// an in-flight transaction's partial footprint is filtered out (no
    /// commit marker yet), which hides exactly the accesses a concurrent
    /// checker run would need.
    pub fn check_history(&mut self) -> CheckReport {
        let history = self.take_history();
        chiller_checker::check_history(&history, self.check_mode)
    }

    /// Assert the recorded history is serializable, panicking with the
    /// full violation list otherwise. `label` names the run in the panic
    /// message. No-op when checking is off.
    pub fn expect_serializable(&mut self, label: &str) {
        let report = self.check_history();
        if !report.ok() {
            let mut msg = format!("[{label}] serializability violated — {}", report.summary());
            for v in &report.violations {
                msg.push_str(&format!("\n  {v}"));
            }
            panic!("{msg}");
        }
    }

    /// The execution backend driving this cluster.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    fn collect(&mut self, elapsed: Duration, wall: std::time::Duration) -> RunReport {
        self.flush_wals();
        self.drain_observations();
        let mut telemetry = self.rt.telemetry();
        telemetry.trace_events_dropped = self.trace.dropped;
        for engine in self.rt.actors() {
            if let Some(s) = engine.wal_stats() {
                telemetry.wal_records_appended += s.records_appended;
                telemetry.wal_bytes_appended += s.bytes_appended;
                telemetry.wal_flushes += s.flushes;
                telemetry.wal_fsyncs += s.fsyncs;
            }
        }
        RunReport::collect(
            self.backend,
            elapsed,
            wall,
            self.rt.workers(),
            telemetry,
            self.rt.stats(),
            self.rt.actors().iter().map(EngineActor::report).collect(),
        )
    }

    /// Advance time to `until`, pausing at every epoch boundary to run the
    /// adaptation control step. Works on either backend: the runtime pauses
    /// at the boundary (exactly on the simulator, approximately on wall
    /// clock) and hands the control plane exclusive actor access.
    fn advance(&mut self, until: SimTime) {
        if self.adaptive.is_none() {
            self.rt.run_until(until);
            return;
        }
        loop {
            let next_epoch = {
                let state = self.adaptive.as_mut().expect("checked above");
                if state.next_epoch <= self.rt.now() {
                    state.next_epoch = self.rt.now() + state.cfg.epoch;
                }
                state.next_epoch
            };
            if next_epoch > until {
                self.rt.run_until(until);
                return;
            }
            self.rt.run_until(next_epoch);
            self.control_step();
            let state = self.adaptive.as_mut().expect("checked above");
            state.next_epoch = next_epoch + state.cfg.epoch;
            if next_epoch >= until {
                return;
            }
        }
    }

    /// One epoch boundary: drain every engine's monitor (node order),
    /// replan over the window, apply metadata flips, and inject the planned
    /// migrations at their destination engines.
    fn control_step(&mut self) {
        let state = self.adaptive.as_mut().expect("adaptive control step");
        state.stats.epochs += 1;
        let sampled = self
            .rt
            .actors_mut()
            .iter_mut()
            .filter_map(EngineActor::take_epoch_samples)
            .flatten()
            .collect();
        state.planner.absorb(sampled);

        let in_flight: HashSet<RecordId> = self
            .rt
            .actors()
            .iter()
            .flat_map(EngineActor::migrating_records)
            .collect();
        let plan: MigrationPlan = state.planner.plan(&state.directory, &in_flight);
        if plan.is_empty() {
            return;
        }
        state.stats.plans += 1;
        state.stats.moves_planned += plan.moves.len() as u64;
        state.stats.promotions += plan.promotions.len() as u64;
        state.stats.demotions += plan.demotions.len() as u64;

        // Metadata-only flips apply immediately at the boundary.
        for (r, at) in &plan.promotions {
            state.directory.promote(*r, *at);
        }
        for r in &plan.demotions {
            state.directory.demote(*r);
        }

        // Data movements: injected at each destination engine, node order.
        let mut by_dst: BTreeMap<u32, Vec<chiller_adaptive::RecordMove>> = BTreeMap::new();
        for mv in plan.moves {
            by_dst.entry(mv.to.0).or_default().push(mv);
        }
        for (dst, mut moves) in by_dst {
            self.rt.with_actor_ctx(
                NodeId(dst),
                &mut |engine: &mut EngineActor, ctx: &mut Ctx<'_, Msg>| {
                    for mv in moves.drain(..) {
                        engine.begin_migration(ctx, mv);
                    }
                },
            );
        }
    }

    /// Control-plane totals of the adaptation loop (zeros when disabled).
    pub fn adaptive_stats(&self) -> AdaptiveStats {
        self.adaptive.as_ref().map(|a| a.stats).unwrap_or_default()
    }

    /// The live placement directory, when adaptation is enabled.
    pub fn directory(&self) -> Option<&Arc<Directory>> {
        self.adaptive.as_ref().map(|a| &a.directory)
    }

    /// Current runtime time: virtual on the simulated backend, wall-clock
    /// offset since runtime creation on the others.
    pub fn now(&self) -> SimTime {
        self.rt.now()
    }

    /// Engine access for invariant checks in tests.
    pub fn engines(&self) -> &[EngineActor] {
        self.rt.actors()
    }

    /// Number of nodes (= partitions = engines) in the cluster.
    pub fn num_nodes(&self) -> usize {
        self.rt.num_nodes()
    }

    /// Number of `(record, row)` divergences between each primary
    /// partition and its replica copies — 0 when replication is consistent.
    /// Meaningful after [`Self::quiesce`].
    pub fn replica_divergence(&self) -> usize {
        let mut diverged = 0;
        for primary in self.rt.actors() {
            let p = primary.store().partition;
            for holder in self.rt.actors() {
                let Some(replica) = holder.replica_store(p) else {
                    continue;
                };
                for (table, primary_table) in primary.store().tables() {
                    let replica_table = replica.table(*table);
                    let mut primary_rows: Vec<(&u64, &Row)> = primary_table.iter().collect();
                    let mut replica_rows: Vec<(&u64, &Row)> = replica_table.iter().collect();
                    primary_rows.sort_by_key(|(k, _)| **k);
                    replica_rows.sort_by_key(|(k, _)| **k);
                    if primary_rows != replica_rows {
                        let keys_differ = primary_rows
                            .iter()
                            .map(|(k, _)| **k)
                            .ne(replica_rows.iter().map(|(k, _)| **k));
                        diverged += if keys_differ {
                            primary_rows.len().abs_diff(replica_rows.len()).max(1)
                        } else {
                            primary_rows
                                .iter()
                                .zip(&replica_rows)
                                .filter(|(a, b)| a != b)
                                .count()
                        };
                    }
                }
            }
        }
        diverged
    }

    /// Stop all engines from pulling new inputs and run the simulation to
    /// quiescence, so every in-flight transaction (and migration) completes
    /// and all locks are released. Used before invariant checks.
    pub fn quiesce(&mut self) {
        for engine in self.rt.actors_mut() {
            engine.stop_accepting();
        }
        self.rt.run_to_quiescence(u64::MAX);
        self.flush_wals();
        self.drain_observations();
    }

    /// Whether this cluster logs to per-node redo logs.
    pub fn durable(&self) -> bool {
        self.durable_dir.is_some()
    }

    /// What recovery found and did, when this build was a restart against
    /// a durable directory with surviving state. `None` on fresh builds
    /// and non-durable clusters.
    pub fn recovery(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// Flush (write + fsync) every engine's buffered redo log. The control
    /// plane holds exclusive actor access only while the runtime is
    /// paused, so every call site is a flush boundary by construction:
    /// run-window ends, quiescence, checkpoints, and kills.
    fn flush_wals(&mut self) {
        for engine in self.rt.actors_mut() {
            engine.wal_flush();
        }
    }

    /// Checkpoint every engine's primary partition and truncate the redo
    /// logs (their records are now redundant). Call after
    /// [`Self::quiesce`]: a checkpoint taken mid-flight could drop
    /// `Decide`/`InnerCommit` records another node's recovery still
    /// needs. No-op on non-durable clusters.
    pub fn checkpoint(&mut self) -> std::io::Result<()> {
        let Some(dir) = self.durable_dir.clone() else {
            return Ok(());
        };
        for (n, engine) in self.rt.actors_mut().iter_mut().enumerate() {
            engine.wal_flush();
            engine.checkpoint_to(&ckpt_path(&dir, n))?;
        }
        Ok(())
    }

    /// Crash the cluster at a flush boundary: flush every redo log, drain
    /// the engines' trace and history logs, and drop the runtime *without*
    /// checkpointing — exactly what a machine failure between batches
    /// leaves behind. The returned snapshot carries the acked commit
    /// counts and the drained history so a test can certify the recovered
    /// incarnation: every commit acked here must survive recovery
    /// (acked ⟺ its `Ack` record flushed, which this flush guarantees).
    pub fn kill(mut self) -> CrashSnapshot {
        self.flush_wals();
        self.drain_observations();
        let mut commits_by_proc: BTreeMap<String, u64> = BTreeMap::new();
        let mut total = 0;
        for engine in self.rt.actors() {
            let report = engine.report();
            for (name, stats) in report.metrics.per_type.iter() {
                if stats.commits > 0 {
                    *commits_by_proc.entry(name.clone()).or_insert(0) += stats.commits;
                    total += stats.commits;
                }
            }
        }
        CrashSnapshot {
            history: std::mem::take(&mut self.history),
            commits_by_proc,
            total_commits: total,
        }
    }
}
