//! The execution engine shell: one actor per node, playing coordinator for
//! transactions it originates and participant for storage it owns.
//!
//! It owns the stores, metrics, input source and the slot table, and
//! routes every message by its kind:
//!
//! * participant-side verbs (lock/read, write-back, validation, inner
//!   execution, replication) go to the storage-owner handlers in
//!   [`crate::participant`];
//! * coordinator-side responses go to their one handler in
//!   [`crate::coordinator`]: lock+read responses and inner results to the
//!   lock-based coordinator (Chiller and 2PL), versioned reads and
//!   validation verdicts to OCC, and every commit-phase ack to the shared
//!   ack handler.
//!
//! The configured [`Protocol`] is read only at admission, wave dispatch
//! and waves-complete time (see [`crate::coordinator`]).
//!
//! The engine runs `concurrency` transaction slots (the paper's
//! co-routines), each with at most one attempt and one timer (`SlotState`).
//! NO_WAIT aborts retry the *same input* after a jittered exponential
//! backoff, so contention behaves like the paper's closed-loop clients.

use crate::coordinator::{self, lock_based, occ, Coord};
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
use chiller_common::time::Duration;
use chiller_obs::{EventKind, History, HistoryRecorder, TraceLog, Tracer};
use chiller_simnet::{Actor, Ctx, Verb};
use chiller_storage::placement::Placement;
use chiller_storage::store::PartitionStore;
use chiller_storage::wal::{Wal, WalRecord, WalStats};
use rand::rngs::StdRng;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// A slot's timer token is its index; a migration retry's sets this bit.
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

/// What a transaction slot is doing, and so what its one timer means.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) enum SlotState {
    /// No attempt open; the timer admits a fresh input, if still accepting.
    #[default]
    Idle,
    /// This attempt runs on the slot's coordinator; no timer is set.
    Running(TxnId),
    /// The last attempt aborted; the timer admits its input again.
    Backoff,
}

/// One closed-loop transaction slot: its state and its coordinator,
/// allocated at the slot's first attempt and reset for each one after.
#[derive(Default)]
struct Slot {
    state: SlotState,
    /// `None` until the first attempt, and while a handler holds it.
    coord: Option<Box<Coord>>,
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
    pub(crate) protocol: Protocol,
    pub(crate) config: SimConfig,
    pub(crate) registry: Arc<ProcRegistry>,
    pub(crate) placement: Arc<dyn Placement + Send + Sync>,
    pub(crate) hot: HotSet,
    pub(crate) store: PartitionStore,
    pub(crate) replicas: HashMap<PartitionId, PartitionStore>,
    source: Box<dyn InputSource>,
    pub(crate) rng: StdRng,
    pub(crate) txn_seq: u64,
    /// The `concurrency` transaction slots, indexed by slot (made at start).
    slots: Vec<Slot>,
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
            protocol: params.protocol,
            config: params.config,
            registry: params.registry,
            placement: params.placement,
            hot: params.hot,
            store: params.store,
            replicas: params.replicas,
            source: params.source,
            rng: seeded(seed),
            txn_seq: params.txn_seq_start,
            slots: Vec::new(),
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
        self.slots
            .iter()
            .filter(|s| matches!(s.state, SlotState::Running(_)))
            .count()
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

    /// The slot running attempt `txn`, if that attempt still runs.
    fn running_slot(&self, txn: TxnId) -> Option<usize> {
        self.slots
            .iter()
            .position(|s| s.state == SlotState::Running(txn))
    }

    /// End attempt `txn`: its slot enters `next` and sets its one timer for
    /// `delay`. Only a running attempt ends, so no slot has two timers.
    pub(crate) fn end_attempt(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        txn: TxnId,
        next: SlotState,
        delay: Duration,
    ) {
        let slot = self.running_slot(txn).expect("ending an attempt that runs");
        self.slots[slot].state = next;
        ctx.set_timer(delay, slot as u64);
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

    /// Admit an attempt of a `fresh` input, or a retry, on `slot`: decide
    /// the region split (§3.3 steps 1–2), then drive the first wave.
    fn start_attempt(&mut self, ctx: &mut Ctx<'_, Msg>, slot: usize, fresh: bool) {
        let mut coord = self.slots[slot].coord.take().unwrap_or_default();
        if fresh {
            coord.input = self.source.next_input(&mut self.rng, ctx.now());
            coord.attempts = 0;
            coord.first_start = ctx.now();
        }
        ctx.use_cpu(self.txn_cpu());
        self.txn_seq += 1;
        let txn = TxnId::new(self.node, self.txn_seq);
        if self.tracer.enabled() {
            self.tracer.record(
                ctx.now().as_nanos(),
                self.node,
                EventKind::TxnBegin {
                    txn,
                    proc: coord.input.proc as u32,
                    attempt: coord.attempts + 1,
                },
            );
        }
        coord.begin(Arc::clone(self.registry.get(coord.input.proc)));
        coord.split = coordinator::admission_split(self, &coord.proc, &coord.exec);
        self.slots[slot].state = SlotState::Running(txn);
        coordinator::drive(self, ctx, txn, &mut coord);
        self.slots[slot].coord = Some(coord);
    }
}

impl Actor<Msg> for EngineActor {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        // Stagger slot start-up slightly so engines do not phase-lock.
        for slot in 0..self.config.engine.concurrency {
            self.slots.push(Slot::default());
            let jitter = (self.node.0 as u64 * 131 + slot as u64 * 57) % 997;
            ctx.set_timer(Duration::from_nanos(jitter), slot as u64);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, src: NodeId, _verb: Verb, msg: Msg) {
        if src != self.node && self.tracer.enabled() {
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

            // Coordinator side: each response kind for an open transaction
            // goes to its one handler.
            response @ (Msg::LockReadResp { .. }
            | Msg::OccReadResp { .. }
            | Msg::InnerResult { .. }
            | Msg::ReplicateAck { .. }
            | Msg::CommitOuterAck { .. }
            | Msg::OccDecideAck { .. }
            | Msg::OccValidateResp { .. }) => {
                let txn = response.txn();
                // Replication acks for migration transactions belong to the
                // migration state machine, not a transaction slot.
                if self.migrations.contains_key(&txn) {
                    self.on_migration_response(ctx, txn, response);
                    return;
                }
                // A late response to a finished attempt matches no slot.
                let Some(slot) = self.running_slot(txn) else {
                    return;
                };
                let mut coord = self.slots[slot].coord.take().expect("running slot");
                debug_assert!(
                    matches!(response, Msg::ReplicateAck { .. })
                        || matches!(
                            response,
                            Msg::OccReadResp { .. }
                                | Msg::OccValidateResp { .. }
                                | Msg::OccDecideAck { .. }
                        ) == (self.protocol == Protocol::Occ),
                    "{} coordinator received {response:?}",
                    self.protocol
                );
                match response {
                    Msg::LockReadResp {
                        req,
                        granted,
                        missing,
                        stale,
                        rows,
                        ..
                    } => lock_based::on_lock_read_resp(
                        self, ctx, txn, &mut coord, req, granted, missing, stale, rows,
                    ),
                    Msg::InnerResult {
                        committed,
                        outputs,
                        retryable,
                        stale,
                        ..
                    } => lock_based::on_inner_result(
                        self, ctx, txn, &mut coord, committed, outputs, retryable, stale,
                    ),
                    Msg::OccReadResp { req, rows, .. } => {
                        occ::on_read_resp(self, ctx, txn, &mut coord, req, rows)
                    }
                    Msg::OccValidateResp { ok, .. } => {
                        occ::on_validate_resp(self, ctx, src, txn, &mut coord, ok)
                    }
                    Msg::CommitOuterAck { .. }
                    | Msg::ReplicateAck { .. }
                    | Msg::OccDecideAck { .. } => coordinator::on_ack(self, ctx, txn, &mut coord),
                    _ => unreachable!("not a coordinator response"),
                }
                self.slots[slot].coord = Some(coord);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, token: u64) {
        if token & TOKEN_MIG != 0 {
            if let Some(job) = self.mig_retries.remove(&(token & TOKEN_MASK)) {
                self.attempt_migration(ctx, job);
            }
            return;
        }
        let slot = token as usize;
        match self.slots[slot].state {
            SlotState::Idle if !self.accepting => {}
            SlotState::Idle => self.start_attempt(ctx, slot, true),
            SlotState::Backoff => self.start_attempt(ctx, slot, false),
            SlotState::Running(txn) => unreachable!("slot {slot} timer fired while {txn} runs"),
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
