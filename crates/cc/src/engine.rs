//! The execution engine shell: one actor per node, playing coordinator for
//! transactions it originates and participant for storage it owns.
//!
//! This module is deliberately **protocol-agnostic**. It owns the stores,
//! metrics, input source, retry timers and the table of open transactions,
//! and routes messages:
//!
//! * participant-side verbs (lock/read, write-back, validation, inner
//!   execution, replication) go to the storage-owner handlers in
//!   [`crate::participant`];
//! * coordinator-side responses go to the active
//!   [`CoordinatorProtocol`] strategy, selected once at construction
//!   from [`Protocol`].
//!
//! Everything protocol-specific — the §3.3 region decision, wave message
//! types, prepare/validate rounds, decide/replicate handling — lives behind
//! the `CoordinatorProtocol` trait in [`crate::coordinator`], with one
//! implementation per paper protocol (`chiller`, `two_pl`, `occ`).
//!
//! Up to `concurrency` transactions are open per engine (the paper's
//! co-routines): the actor interleaves their state machines as messages
//! arrive. NO_WAIT aborts retry the *same input* after a jittered
//! exponential backoff, so contention behaves like the paper's closed-loop
//! clients.

use crate::coordinator::{self, strategy_for, Coord, CoordinatorProtocol, Phase};
use crate::input::{InputSource, ProcRegistry, TxnInput};
use crate::migration::{Migration, MigrationJob};
use crate::msg::Msg;
use crate::protocol::Protocol;
use chiller_adaptive::monitor::{ContentionMonitor, TxnTrace};
use chiller_adaptive::Directory;
use chiller_common::config::SimConfig;
use chiller_common::ids::{NodeId, PartitionId, RecordId, TxnId};
use chiller_common::metrics::MetricSet;
use chiller_common::rng::{derive_seed, seeded};
use chiller_common::time::{Duration, SimTime};
use chiller_obs::{EventKind, History, HistoryRecorder, TraceLog, Tracer};
use chiller_simnet::{Actor, Ctx, Verb};
use chiller_sproc::ExecState;
use chiller_storage::placement::Placement;
use chiller_storage::store::PartitionStore;
use chiller_storage::wal::{Wal, WalRecord, WalStats};
use rand::rngs::StdRng;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

const TOKEN_START: u64 = 1 << 32;
const TOKEN_RETRY: u64 = 2 << 32;
pub(crate) const TOKEN_MIG: u64 = 4 << 32;
pub(crate) const TOKEN_MASK: u64 = (1 << 32) - 1;

/// Hot-record membership driving the §3.3 region decision and the hot/cold
/// contention histograms: either the frozen seed hot set (the paper's
/// offline pipeline) or the adaptive directory, whose hot flags move at
/// epoch boundaries.
#[derive(Clone)]
pub enum HotSet {
    Static(Arc<HashSet<RecordId>>),
    Adaptive(Arc<Directory>),
}

impl HotSet {
    #[inline]
    pub fn contains(&self, rid: &RecordId) -> bool {
        match self {
            HotSet::Static(s) => s.contains(rid),
            HotSet::Adaptive(d) => d.is_hot(*rid),
        }
    }

    /// The adaptive directory, when this engine runs with adaptation on.
    pub fn directory(&self) -> Option<&Arc<Directory>> {
        match self {
            HotSet::Static(_) => None,
            HotSet::Adaptive(d) => Some(d),
        }
    }
}

/// Everything needed to construct an engine node.
pub struct EngineParams {
    pub node: NodeId,
    pub num_nodes: usize,
    pub protocol: Protocol,
    pub config: SimConfig,
    pub registry: Arc<ProcRegistry>,
    pub placement: Arc<dyn Placement + Send + Sync>,
    pub hot: HotSet,
    pub store: PartitionStore,
    pub replicas: HashMap<PartitionId, PartitionStore>,
    pub source: Box<dyn InputSource>,
    /// Present when the cluster runs with online adaptation.
    pub monitor: Option<ContentionMonitor>,
    /// Lifecycle tracer for this engine (disabled unless the cluster
    /// enables tracing; see `chiller_obs`).
    pub tracer: Tracer,
    /// Observation recorder for serializability checking (disabled unless
    /// the cluster enables `CHILLER_CHECK`; see `chiller_obs::history`).
    pub recorder: HistoryRecorder,
    /// Per-engine redo log, present iff the cluster runs durable
    /// (`ClusterBuilder::durable` / `CHILLER_WAL`). `None` keeps every
    /// logging site a single branch on this option — the same off-path
    /// contract as the tracer and recorder.
    pub wal: Option<Wal>,
    /// First value of the engine's transaction sequence counter. Recovery
    /// sets this to a fresh epoch band (`epoch << 32`) so post-restart
    /// `TxnId`s can never collide with pre-crash ones — read-only
    /// transactions leave no log trace, so scanning the WAL for the max
    /// used sequence would not be enough.
    pub txn_seq_start: u64,
}

/// Summary handed to the experiment harness after a run.
#[derive(Debug, Clone)]
pub struct EngineReport {
    pub node: NodeId,
    pub metrics: MetricSet,
}

/// One simulated node: partition storage + execution engine shell.
pub struct EngineActor {
    pub(crate) node: NodeId,
    pub(crate) num_nodes: usize,
    /// The active coordinator strategy (stateless; selected from the
    /// configured [`Protocol`] at construction).
    pub(crate) strategy: &'static dyn CoordinatorProtocol,
    pub(crate) config: SimConfig,
    pub(crate) registry: Arc<ProcRegistry>,
    pub(crate) placement: Arc<dyn Placement + Send + Sync>,
    pub(crate) hot: HotSet,
    pub(crate) store: PartitionStore,
    pub(crate) replicas: HashMap<PartitionId, PartitionStore>,
    source: Box<dyn InputSource>,
    pub(crate) rng: StdRng,
    pub(crate) txn_seq: u64,
    pub(crate) txns: HashMap<TxnId, Coord>,
    /// Inputs waiting for their retry backoff, per slot.
    retries: HashMap<usize, (TxnInput, u32, SimTime)>,
    /// When false, slots finishing their transaction do not pull new input
    /// (used to drain the cluster for invariant checks).
    pub(crate) accepting: bool,
    pub(crate) metrics: MetricSet,
    /// Commit sampler (present iff the cluster adapts online).
    pub(crate) monitor: Option<ContentionMonitor>,
    /// Lifecycle tracer (no-op unless the cluster enables tracing).
    pub(crate) tracer: Tracer,
    /// Observation recorder (no-op unless the cluster enables checking).
    pub(crate) recorder: HistoryRecorder,
    /// In-flight migrations this engine coordinates (destination side).
    pub(crate) migrations: HashMap<TxnId, Migration>,
    /// Migration jobs waiting out a NO_WAIT retry backoff.
    pub(crate) mig_retries: HashMap<u64, MigrationJob>,
    pub(crate) mig_seq: u64,
    /// Records this partition used to own that migrated elsewhere: a miss
    /// on one of these is a stale-routing race, answered as a retryable
    /// conflict so the coordinator re-resolves the placement. Bounded by
    /// the number of migrations out of this partition over the run.
    pub(crate) migrated_out: HashSet<RecordId>,
    /// Redo log (durable clusters only; see [`EngineParams::wal`]).
    pub(crate) wal: Option<Wal>,
}

impl EngineActor {
    pub fn new(params: EngineParams) -> Self {
        let seed = derive_seed(params.config.seed, 0xE26_0000 + params.node.0 as u64);
        EngineActor {
            node: params.node,
            num_nodes: params.num_nodes,
            strategy: strategy_for(params.protocol),
            config: params.config,
            registry: params.registry,
            placement: params.placement,
            hot: params.hot,
            store: params.store,
            replicas: params.replicas,
            source: params.source,
            rng: seeded(seed),
            txn_seq: params.txn_seq_start,
            txns: HashMap::new(),
            retries: HashMap::new(),
            accepting: true,
            metrics: MetricSet::new(),
            monitor: params.monitor,
            tracer: params.tracer,
            recorder: params.recorder,
            migrations: HashMap::new(),
            mig_retries: HashMap::new(),
            mig_seq: 0,
            migrated_out: HashSet::new(),
            wal: params.wal,
        }
    }

    /// The protocol this engine runs (derived from the active strategy).
    pub fn protocol(&self) -> Protocol {
        self.strategy.protocol()
    }

    /// Stop pulling new inputs; in-flight transactions run to completion
    /// (retries of already-started inputs still happen so no locks leak).
    pub fn stop_accepting(&mut self) {
        self.accepting = false;
    }

    pub fn report(&self) -> EngineReport {
        EngineReport {
            node: self.node,
            metrics: self.metrics.clone(),
        }
    }

    pub fn metrics(&self) -> &MetricSet {
        &self.metrics
    }

    pub fn store(&self) -> &PartitionStore {
        &self.store
    }

    pub fn replica_store(&self, p: PartitionId) -> Option<&PartitionStore> {
        self.replicas.get(&p)
    }

    /// Number of transactions currently open on this engine (diagnostics).
    pub fn open_txns(&self) -> usize {
        self.txns.len()
    }

    /// Drain this engine's sampled commits at an epoch boundary.
    /// Returns `None` when the cluster runs without adaptation.
    pub fn take_epoch_samples(&mut self) -> Option<Vec<TxnTrace>> {
        self.monitor.as_mut().map(ContentionMonitor::end_epoch)
    }

    /// Move everything the tracer and the history recorder buffered since
    /// the last drain into the cluster's accumulated log and history. The
    /// cluster calls this only while the runtime is paused.
    pub fn drain_observations(&mut self, trace: &mut TraceLog, history: &mut History) {
        self.tracer.drain_into(trace);
        self.recorder.drain_into(history);
    }

    /// Records with a migration currently in flight or queued for retry at
    /// this engine (the planner must not re-plan them).
    pub fn migrating_records(&self) -> Vec<RecordId> {
        let mut v: Vec<RecordId> = self
            .migrations
            .values()
            .map(|m| m.job.record)
            .chain(self.mig_retries.values().map(|j| j.record))
            .collect();
        v.sort();
        v.dedup();
        v
    }

    /// Migrations currently open on this engine (diagnostics).
    pub fn open_migrations(&self) -> usize {
        self.migrations.len() + self.mig_retries.len()
    }

    /// Clear accumulated metrics (used to discard warm-up).
    pub fn reset_metrics(&mut self) {
        self.metrics = MetricSet::new();
    }

    /// Whether this engine logs to a WAL (durable cluster).
    pub fn durable(&self) -> bool {
        self.wal.is_some()
    }

    /// Append one record to the redo log; a single branch when durability
    /// is off. Group commit lives inside the [`Wal`]: when the buffered
    /// commit marks reach `CHILLER_FSYNC_BATCH` the append writes them and
    /// asks the log's syncer thread for the fsync, never waiting for it on
    /// this turn (batch-boundary writes come from [`Actor::on_batch_end`],
    /// waited-for syncs from the control plane's pause points).
    #[inline]
    pub(crate) fn wal_append(&mut self, rec: WalRecord) {
        if let Some(wal) = self.wal.as_mut() {
            wal.append(&rec);
        }
    }

    /// Flush the redo log: write anything buffered and wait for its
    /// syncer to fsync it, and any sync still in flight. The control
    /// plane calls this at every pause point — phase boundaries,
    /// quiescence, and crash injection — so "paused" always implies
    /// "durable up to here".
    pub fn wal_flush(&mut self) {
        if let Some(wal) = self.wal.as_mut() {
            wal.flush();
        }
    }

    /// The redo log's counters, when durability is on.
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.wal.as_ref().map(|w| w.stats)
    }

    /// Checkpoint this engine's primary partition to `path` and truncate
    /// the redo log (its records are now redundant — the snapshot contains
    /// every applied write and the complete version map). Only sound on a
    /// quiesced engine: an in-flight transaction elsewhere could still
    /// need this node's `InnerCommit`/`Decide` records to resolve.
    pub fn checkpoint_to(&mut self, path: &std::path::Path) -> std::io::Result<()> {
        chiller_storage::wal::write_checkpoint(path, &self.store)?;
        if let Some(wal) = self.wal.as_mut() {
            wal.truncate();
        }
        Ok(())
    }

    pub(crate) fn op_cpu(&self) -> Duration {
        Duration::from_nanos(self.config.engine.op_cpu_ns)
    }

    pub(crate) fn txn_cpu(&self) -> Duration {
        Duration::from_nanos(self.config.engine.txn_overhead_cpu_ns)
    }

    /// Nodes holding replicas of partition `p` (primary excluded). The
    /// iterator owns what it needs, so the engine stays free to mutate
    /// while it is walked.
    pub(crate) fn replica_nodes(&self, p: PartitionId) -> impl ExactSizeIterator<Item = NodeId> {
        let nodes = self.num_nodes as u32;
        let r = self
            .config
            .replication
            .replicas()
            .min(self.num_nodes.saturating_sub(1)) as u32;
        (1..r + 1).map(move |i| NodeId((p.0 + i) % nodes))
    }

    pub(crate) fn proc_name(&self, input: &TxnInput) -> &'static str {
        self.registry.get(input.proc).name
    }

    // ------------------------------------------------------------------
    // Slot scheduling (closed-loop driver)
    // ------------------------------------------------------------------

    /// Schedule a fresh transaction on `slot` immediately (commit or final
    /// abort frees the slot).
    pub(crate) fn schedule_fresh_start(&mut self, ctx: &mut Ctx<'_, Msg>, slot: usize) {
        ctx.set_timer(Duration::ZERO, TOKEN_START | slot as u64);
    }

    /// Jittered exponential backoff after `attempts` NO_WAIT failures
    /// (fixed backoff lets retry storms phase-lock into livelock under
    /// heavy contention). Shared by transaction and migration retries.
    pub(crate) fn backoff_for(&mut self, attempts: u32) -> Duration {
        let exp = attempts.min(6);
        let base = self.config.engine.retry_backoff.as_nanos() << exp;
        let jitter = 0.5 + rand::Rng::gen::<f64>(&mut self.rng);
        Duration::from_nanos((base as f64 * jitter) as u64)
    }

    /// Schedule a retry of `input` on `slot` after a jittered exponential
    /// backoff. Returns the backoff chosen (for trace emission).
    pub(crate) fn schedule_retry(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        slot: usize,
        input: TxnInput,
        attempts: u32,
        first_start: SimTime,
    ) -> Duration {
        let backoff = self.backoff_for(attempts);
        self.retries.insert(slot, (input, attempts, first_start));
        ctx.set_timer(backoff, TOKEN_RETRY | slot as u64);
        backoff
    }

    fn start_fresh(&mut self, ctx: &mut Ctx<'_, Msg>, slot: usize) {
        if !self.accepting {
            return;
        }
        let input = self.source.next_input(&mut self.rng, ctx.now());
        self.start_attempt(ctx, slot, input, 0, ctx.now());
    }

    /// Admit one transaction attempt: ask the strategy for the region
    /// split (§3.3 steps 1–2), then drive its first wave.
    fn start_attempt(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        slot: usize,
        input: TxnInput,
        prior_attempts: u32,
        first_start: SimTime,
    ) {
        ctx.use_cpu(self.txn_cpu());
        self.txn_seq += 1;
        let txn = TxnId::new(self.node, self.txn_seq);
        let traced = self.tracer.traces_txn(self.txn_seq);
        if traced {
            self.tracer.record(
                ctx.now().as_nanos(),
                self.node,
                EventKind::TxnBegin {
                    txn,
                    proc: input.proc as u32,
                    attempt: prior_attempts + 1,
                },
            );
        }
        let proc = self.registry.get(input.proc).clone();
        let exec = ExecState::new(input.params.clone(), proc.num_ops());
        let strategy = self.strategy;
        let split = strategy.admission_split(self, &proc, &exec);
        let mut coord = Coord::new(
            slot,
            input,
            proc,
            exec,
            split,
            prior_attempts,
            first_start,
            traced,
        );
        coordinator::drive(self, ctx, txn, &mut coord);
        if coord.phase != Phase::Done {
            self.txns.insert(txn, coord);
        }
    }
}

impl Actor<Msg> for EngineActor {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        // Stagger slot start-up slightly so engines do not phase-lock.
        for slot in 0..self.config.engine.concurrency {
            let jitter = (self.node.0 as u64 * 131 + slot as u64 * 57) % 997;
            ctx.set_timer(Duration::from_nanos(jitter), TOKEN_START | slot as u64);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, src: NodeId, _verb: Verb, msg: Msg) {
        if src != self.node && self.tracer.full() {
            self.tracer.record(
                ctx.now().as_nanos(),
                self.node,
                EventKind::RecvHop {
                    txn: msg.txn(),
                    src,
                    label: msg.kind_label(),
                },
            );
        }
        match msg {
            // Participant side: storage-owner handlers (protocol-agnostic
            // verb semantics; see `crate::participant`).
            Msg::LockRead { txn, req, items } => self.handle_lock_read(ctx, src, txn, req, items),
            Msg::CommitOuter {
                txn,
                writes,
                unlocks,
            } => self.handle_commit_outer(ctx, src, txn, writes, unlocks),
            Msg::AbortOuter { txn, unlocks } => self.handle_abort_outer(ctx, txn, unlocks),
            Msg::ExecInner {
                txn,
                proc,
                params,
                outer_outputs,
                inner_ops,
                inner_guards,
                expect_replica_acks: _,
            } => self.handle_exec_inner(
                ctx,
                src,
                txn,
                proc,
                params,
                outer_outputs,
                inner_ops,
                inner_guards,
            ),
            Msg::Replicate {
                txn,
                partition,
                writes,
                ack_coordinator,
            } => self.handle_replicate(ctx, txn, partition, writes, ack_coordinator),
            Msg::OccRead { txn, req, items } => self.handle_occ_read(ctx, src, txn, req, items),
            Msg::OccValidate { txn, items } => self.handle_occ_validate(ctx, src, txn, items),
            Msg::OccDecide {
                txn,
                commit,
                writes,
                latched,
            } => self.handle_occ_decide(ctx, src, txn, commit, writes, latched),

            // Migration participant side (source partition).
            Msg::MigrateLock { txn, record } => self.handle_migrate_lock(ctx, src, txn, record),
            Msg::MigrateFinish { txn, record } => self.handle_migrate_finish(ctx, src, txn, record),

            // Migration coordinator side (destination partition).
            response @ (Msg::MigrateLockResp { .. } | Msg::MigrateFinishAck { .. }) => {
                let txn = response.txn();
                self.on_migration_response(ctx, txn, response);
            }

            // Coordinator side: responses for an open transaction are
            // routed to the active protocol strategy.
            response @ (Msg::LockReadResp { .. }
            | Msg::OccReadResp { .. }
            | Msg::InnerResult { .. }
            | Msg::ReplicateAck { .. }
            | Msg::CommitOuterAck { .. }
            | Msg::OccDecideAck { .. }
            | Msg::OccValidateResp { .. }) => {
                let txn = response.txn();
                // Replication acks for migration transactions belong to the
                // migration state machine, not a coordinator entry.
                if self.migrations.contains_key(&txn) {
                    self.on_migration_response(ctx, txn, response);
                    return;
                }
                let Some(mut coord) = self.txns.remove(&txn) else {
                    return;
                };
                let strategy = self.strategy;
                strategy.on_response(self, ctx, src, txn, &mut coord, response);
                if coord.phase != Phase::Done {
                    self.txns.insert(txn, coord);
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, token: u64) {
        let slot = (token & TOKEN_MASK) as usize;
        if token & TOKEN_START != 0 {
            self.start_fresh(ctx, slot);
        } else if token & TOKEN_RETRY != 0 {
            if let Some((input, attempts, first_start)) = self.retries.remove(&slot) {
                self.start_attempt(ctx, slot, input, attempts, first_start);
            }
        } else if token & TOKEN_MIG != 0 {
            if let Some(job) = self.mig_retries.remove(&(token & TOKEN_MASK)) {
                self.attempt_migration(ctx, job);
            }
        }
    }

    fn on_batch_end(&mut self) {
        // Group commit's batch valve: hand buffered log bytes to the OS at
        // the same boundary remote sends flush on (and before they do),
        // but leave the fsync to the commit-mark counter
        // (`CHILLER_FSYNC_BATCH`) and the log's syncer thread — syncing
        // every batch would put one fsync on nearly every message round
        // and erase the amortization. One branch on the option when
        // durability is off.
        if let Some(wal) = self.wal.as_mut() {
            wal.write_through();
        }
    }
}
