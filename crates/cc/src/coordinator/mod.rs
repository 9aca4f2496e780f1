//! The coordinator protocol seam.
//!
//! A stored procedure executes in **dependency waves**: every operation
//! whose key is resolvable and whose pk-dependencies are satisfied is
//! issued (batched per partition) in parallel; responses unlock the next
//! wave. This mirrors how a NAM-DB coordinator overlaps one-sided verbs,
//! and gives 2-wave execution for typical TPC-C transactions. The wave
//! loop, per-op compute pass, guard evaluation, commit/abort accounting
//! and retry policy in this module are shared by every protocol.
//!
//! What *differs* per protocol is captured by [`CoordinatorProtocol`]:
//!
//! * **admission/split** — the §3.3 run-time region decision (Chiller
//!   splits hot ops into an inner region; the baselines always run
//!   single-region);
//! * **wave dispatch** — what a wave sends: combined lock+read verbs
//!   (2PL / Chiller outer region) vs lock-free versioned reads (OCC);
//! * **prepare/validate** — what happens when every in-scope op has
//!   responded: write-back + unlock with the prepare piggybacked (2PL),
//!   inner-region delegation then outer phase 2 (Chiller), or a parallel
//!   validate round (OCC);
//! * **decide/replicate** — how responses and replication acks advance
//!   the state machine to commit or abort.
//!
//! Implementations are stateless zero-sized types — all per-transaction
//! state lives in [`Coord`], all per-node state in
//! [`EngineActor`] — so a strategy is just a
//! `&'static dyn CoordinatorProtocol` selected at engine construction.
//! Adding a protocol (deterministic/Calvin-style, FaRM-style, …) means
//! adding one module here plus a [`Protocol`] variant; the engine shell,
//! cluster builder and workloads stay untouched.

pub mod chiller;
mod lock_based;
pub mod occ;
pub mod two_pl;

use crate::engine::EngineActor;
use crate::input::TxnInput;
use crate::msg::{Msg, WriteItem, WriteKind};
use crate::protocol::Protocol;
use chiller_common::ids::{NodeId, OpId, PartitionId, RecordId, TxnId};
use chiller_common::metrics::AbortReason;
use chiller_common::time::SimTime;
use chiller_common::value::Row;
use chiller_obs::EventKind;
use chiller_simnet::{Ctx, Verb};
use chiller_sproc::decision::GuardSite;
use chiller_sproc::op::OpKind;
use chiller_sproc::{ExecState, Procedure, RegionSplit};
use chiller_storage::lock::LockMode;
use std::collections::{BTreeSet, HashMap};
use std::iter::Peekable;
use std::sync::Arc;

pub use chiller::ChillerCoordinator;
pub use occ::OccCoordinator;
pub use two_pl::TwoPlCoordinator;

/// Protocol-specific coordinator behavior: txn admission/split, wave
/// dispatch, prepare/validate, and decide/replicate hooks. See the module
/// docs for the seam's contract.
///
/// Methods receive the engine shell (`eng`) for stores, placement, config,
/// metrics and scheduling, plus the per-transaction [`Coord`] — which the
/// engine has temporarily removed from its open-transaction table, so
/// implementations never touch `eng.txns` for the current transaction.
/// Setting `coord.phase = Phase::Done` (via `finish_commit` /
/// `abort_attempt`) retires the transaction.
pub trait CoordinatorProtocol: Send + Sync {
    /// The [`Protocol`] this strategy implements.
    fn protocol(&self) -> Protocol;

    /// Txn admission (§3.3 steps 1–2): decide the region split before the
    /// first wave. Baselines run everything as one outer region.
    fn admission_split(
        &self,
        eng: &EngineActor,
        proc: &Procedure,
        exec: &ExecState,
    ) -> RegionSplit {
        let _ = (eng, exec);
        RegionSplit::all_outer(proc)
    }

    /// Wave dispatch: build the access message for one per-partition batch
    /// of ready ops (`ops` is non-empty; `req` correlates the response).
    fn wave_message(&self, coord: &Coord, txn: TxnId, req: u64, ops: &[OpId]) -> Msg;

    /// Prepare/validate: every in-scope op has responded and nothing else
    /// is issuable — enter the protocol's commit path (write-back for 2PL,
    /// inner delegation for Chiller, validation round for OCC).
    fn on_waves_complete(
        &self,
        eng: &mut EngineActor,
        ctx: &mut Ctx<'_, Msg>,
        txn: TxnId,
        coord: &mut Coord,
    );

    /// Decide/replicate: a coordinator-side response arrived for this open
    /// transaction (wave responses, validation verdicts, inner results,
    /// commit/decide/replication acks).
    fn on_response(
        &self,
        eng: &mut EngineActor,
        ctx: &mut Ctx<'_, Msg>,
        src: NodeId,
        txn: TxnId,
        coord: &mut Coord,
        msg: Msg,
    );
}

/// The strategy singleton for a protocol.
pub fn strategy_for(p: Protocol) -> &'static dyn CoordinatorProtocol {
    match p {
        Protocol::Chiller => &ChillerCoordinator,
        Protocol::TwoPhaseLocking => &TwoPlCoordinator,
        Protocol::Occ => &OccCoordinator,
    }
}

/// Per-operation execution bookkeeping.
#[derive(Debug, Clone, Default)]
pub struct OpState {
    pub(crate) issued: bool,
    pub(crate) responded: bool,
    pub(crate) computed: bool,
    pub(crate) record: Option<RecordId>,
    pub(crate) partition: Option<PartitionId>,
    pub(crate) raw_row: Option<Row>,
    /// Version observed at read time (OCC only).
    pub(crate) version: u64,
}

/// Why a transaction attempt failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailKind {
    /// Retryable failure, classified for the abort-reason taxonomy:
    /// NO_WAIT lock conflict, OCC validation failure, or a stale-routing
    /// race against a live migration.
    Transient(AbortReason),
    /// Guard violation / existence fault: final.
    Logic,
}

/// Coordinator state-machine phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Waves in flight (lock+read or versioned read).
    Executing,
    /// Chiller: waiting for the inner result + inner replica acks.
    InnerWait,
    /// OCC: waiting for validate responses.
    Validating,
    /// Waiting for commit/decide/replication acks.
    Committing,
    /// OCC abort: waiting for latch-release acks before retrying.
    Aborting,
    /// Terminal: the engine must not reinsert this coordinator entry.
    Done,
}

/// Coordinator state for one in-flight transaction attempt.
pub struct Coord {
    pub(crate) slot: usize,
    pub(crate) input: TxnInput,
    pub(crate) proc: Arc<Procedure>,
    pub(crate) exec: ExecState,
    pub(crate) split: RegionSplit,
    pub(crate) ops: Vec<OpState>,
    pub(crate) guards_checked: Vec<bool>,
    pub(crate) phase: Phase,
    pub(crate) pending: usize,
    pub(crate) failed: Option<FailKind>,
    /// Request-id → ops carried by that in-flight access message.
    pub(crate) inflight: HashMap<u64, Vec<OpId>>,
    pub(crate) next_req: u64,
    /// Outer locks currently held.
    pub(crate) held_locks: Vec<(PartitionId, RecordId)>,
    /// Buffered writes (applied at commit).
    pub(crate) writes: Vec<(PartitionId, WriteItem)>,
    /// All partitions this attempt touched.
    pub(crate) participants: BTreeSet<PartitionId>,
    /// Chiller: inner-region progress.
    pub(crate) inner_sent: bool,
    pub(crate) inner_ok: bool,
    /// OCC: partitions that responded OK to validation (holding latches).
    pub(crate) validated_ok: Vec<PartitionId>,
    /// Retry bookkeeping (attempts includes the current one).
    pub(crate) attempts: u32,
    pub(crate) first_start: SimTime,
    /// Whether this attempt records lifecycle trace events (decided once
    /// at admission from the tracer's sampling mode).
    pub(crate) traced: bool,
}

impl Coord {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        slot: usize,
        input: TxnInput,
        proc: Arc<Procedure>,
        exec: ExecState,
        split: RegionSplit,
        prior_attempts: u32,
        first_start: SimTime,
        traced: bool,
    ) -> Self {
        let n = proc.num_ops();
        let num_guards = proc.guards.len();
        Coord {
            slot,
            input,
            proc,
            exec,
            split,
            ops: vec![OpState::default(); n],
            guards_checked: vec![false; num_guards],
            phase: Phase::Executing,
            pending: 0,
            failed: None,
            inflight: HashMap::new(),
            next_req: 0,
            held_locks: Vec::new(),
            writes: Vec::new(),
            participants: BTreeSet::new(),
            inner_sent: false,
            inner_ok: false,
            validated_ok: Vec::new(),
            attempts: prior_attempts + 1,
            first_start,
            traced,
        }
    }
}

/// The set of ops the wave stage may issue: the outer region for
/// two-region transactions, everything otherwise.
pub(crate) fn in_scope(coord: &Coord, op: OpId) -> bool {
    if coord.split.is_two_region() {
        coord.split.outer_ops.contains(&op)
    } else {
        true
    }
}

/// Split `items` into per-partition runs, in ascending partition order.
/// The sort is stable, so each run keeps its items in insertion order —
/// the grouping a `BTreeMap<PartitionId, Vec<T>>` gives, and so the same
/// messages in the same order, without building the tree. Each run is
/// one exactly-sized allocation; the sort itself allocates nothing for the
/// handful of items a transaction carries.
pub(crate) fn by_partition<T>(
    mut items: Vec<(PartitionId, T)>,
) -> impl Iterator<Item = (PartitionId, Vec<T>)> {
    items.sort_by_key(|&(part, _)| part);
    let mut rest = items.into_iter();
    std::iter::from_fn(move || {
        let part = rest.as_slice().first()?.0;
        let n = rest
            .as_slice()
            .iter()
            .take_while(|(p, _)| *p == part)
            .count();
        Some((part, rest.by_ref().take(n).map(|(_, x)| x).collect()))
    })
}

/// The next run of a [`by_partition`] walk if it belongs to `part`, else
/// an empty list (which does not allocate).
pub(crate) fn take_run<T>(
    runs: &mut Peekable<impl Iterator<Item = (PartitionId, Vec<T>)>>,
    part: PartitionId,
) -> Vec<T> {
    runs.next_if(|&(p, _)| p == part)
        .map(|(_, run)| run)
        .unwrap_or_default()
}

/// Lock mode an operation needs under lock-based execution.
pub(crate) fn lock_mode_for(op: &chiller_sproc::op::Op) -> LockMode {
    match &op.kind {
        OpKind::Read { for_update: false } => LockMode::Shared,
        _ => LockMode::Exclusive,
    }
}

/// Advance a transaction through its current stage: run the compute pass
/// and guards, abort on failure once in-flight responses drain, issue the
/// next wave, and hand stage completion to the strategy.
pub(crate) fn drive(eng: &mut EngineActor, ctx: &mut Ctx<'_, Msg>, txn: TxnId, coord: &mut Coord) {
    if coord.failed.is_none() {
        compute_pass(eng, ctx, coord);
        check_guards(coord);
    }

    if coord.failed.is_some() {
        if coord.pending == 0 {
            abort_attempt(eng, ctx, txn, coord);
        }
        // Otherwise wait for in-flight responses (they may grant locks
        // that must be released on abort).
        return;
    }

    let issued = issue_wave(eng, ctx, txn, coord);
    if issued > 0 || coord.pending > 0 {
        return;
    }

    // Stage complete: everything in scope responded, nothing issuable.
    debug_assert!(
        (0..coord.proc.num_ops())
            .all(|i| !in_scope(coord, OpId(i as u16)) || coord.ops[i].responded),
        "wave stalled with unresolved in-scope ops"
    );
    let strategy = eng.strategy;
    strategy.on_waves_complete(eng, ctx, txn, coord);
}

/// Finalize every op whose inputs are available: compute update rows,
/// build insert rows, buffer writes.
pub(crate) fn compute_pass(eng: &mut EngineActor, ctx: &mut Ctx<'_, Msg>, coord: &mut Coord) {
    // A handle of our own on the procedure, so its ops can be borrowed
    // while `coord` is written.
    let proc = Arc::clone(&coord.proc);
    loop {
        let mut progressed = false;
        for i in 0..proc.num_ops() {
            if coord.ops[i].computed || !coord.ops[i].responded {
                continue;
            }
            let op = proc.op(OpId(i as u16));
            if !op
                .value_deps
                .iter()
                .all(|d| coord.exec.output(*d).is_some())
            {
                continue;
            }
            let rid = coord.ops[i].record.expect("responded implies resolved");
            let part = coord.ops[i].partition.expect("responded implies resolved");
            match &op.kind {
                OpKind::Read { .. } => {} // output set at response time
                OpKind::Update(apply) => {
                    ctx.use_cpu(eng.op_cpu());
                    let raw = coord.ops[i].raw_row.as_ref().expect("update read a row");
                    let new = apply(raw, &coord.exec);
                    coord.exec.set_output(op.id, new.clone());
                    coord.writes.push((
                        part,
                        WriteItem {
                            record: rid,
                            kind: WriteKind::Put(new),
                        },
                    ));
                }
                OpKind::Insert(build) => {
                    ctx.use_cpu(eng.op_cpu());
                    let row = build(&coord.exec);
                    coord.writes.push((
                        part,
                        WriteItem {
                            record: rid,
                            kind: WriteKind::Insert(row),
                        },
                    ));
                }
                OpKind::Delete => {
                    coord.writes.push((
                        part,
                        WriteItem {
                            record: rid,
                            kind: WriteKind::Delete,
                        },
                    ));
                }
            }
            coord.ops[i].computed = true;
            progressed = true;
        }
        if !progressed {
            break;
        }
    }
}

/// Evaluate every unchecked guard whose deps are available. Inner-site
/// guards are the inner host's responsibility.
fn check_guards(coord: &mut Coord) {
    for gi in 0..coord.proc.guards.len() {
        if coord.guards_checked[gi] {
            continue;
        }
        if coord.split.is_two_region() && coord.split.guard_sites[gi] == GuardSite::Inner {
            continue;
        }
        let guard = &coord.proc.guards[gi];
        if !guard.deps.iter().all(|d| coord.exec.output(*d).is_some()) {
            continue;
        }
        coord.guards_checked[gi] = true;
        if (guard.check)(&coord.exec).is_err() {
            coord.failed = Some(FailKind::Logic);
            return;
        }
    }
}

/// Issue every in-scope op whose key is resolvable, batched per partition;
/// the message content comes from the strategy's wave-dispatch hook.
/// Returns the number of messages sent.
fn issue_wave(
    eng: &mut EngineActor,
    ctx: &mut Ctx<'_, Msg>,
    txn: TxnId,
    coord: &mut Coord,
) -> usize {
    let mut ready: Vec<(PartitionId, OpId)> = Vec::new();
    for i in 0..coord.proc.num_ops() {
        let id = OpId(i as u16);
        if coord.ops[i].issued || !in_scope(coord, id) {
            continue;
        }
        let op = coord.proc.op(id);
        let Some(key) = op.key.resolve(&coord.exec) else {
            continue;
        };
        let rid = RecordId::new(op.table, key);
        let part = eng.placement.partition_of(rid);
        coord.ops[i].issued = true;
        coord.ops[i].record = Some(rid);
        coord.ops[i].partition = Some(part);
        coord.participants.insert(part);
        ready.push((part, id));
        ctx.use_cpu(eng.op_cpu());
    }
    let mut n = 0;
    let strategy = eng.strategy;
    for (part, op_ids) in by_partition(ready) {
        n += 1;
        let target = NodeId(part.0);
        coord.next_req += 1;
        let req = coord.next_req;
        let msg = strategy.wave_message(coord, txn, req, &op_ids);
        coord.inflight.insert(req, op_ids);
        let verb = msg.verb();
        if target != eng.node && eng.tracer.full() {
            let label = msg.kind_label();
            eng.tracer.record(
                ctx.now().as_nanos(),
                eng.node,
                EventKind::SendHop {
                    txn,
                    dst: target,
                    label,
                },
            );
        }
        ctx.send(target, verb, msg);
        coord.pending += 1;
    }
    n
}

/// Log this attempt's commit decision — the full buffered outer write-set,
/// tagged by home partition — to the coordinator's WAL. `pending_inner`
/// marks a *provisional* decision taken before delegating the inner region
/// (recovery resolves it against the inner host's `InnerCommit` marker,
/// since the inner commit IS the decision for two-region transactions,
/// §3.3); the final decision logged on the commit path carries `None`.
/// Recovery keeps the **last** Decide per transaction, so a final record
/// supersedes the provisional one.
pub(crate) fn log_decide(
    eng: &mut EngineActor,
    txn: TxnId,
    coord: &Coord,
    pending_inner: Option<PartitionId>,
) {
    if !eng.durable() {
        return;
    }
    let writes = coord
        .writes
        .iter()
        .map(|(p, w)| chiller_storage::wal::DecideWrite {
            partition: *p,
            record: w.record,
            op: w.kind.to_redo_op(),
        })
        .collect();
    eng.wal_append(chiller_storage::wal::WalRecord::Decide {
        txn,
        proc: eng.proc_name(&coord.input).to_owned(),
        pending_inner,
        writes,
    });
}

/// Account a successful commit and free the slot. Sets `Phase::Done`.
pub(crate) fn finish_commit(
    eng: &mut EngineActor,
    ctx: &mut Ctx<'_, Msg>,
    txn: TxnId,
    coord: &mut Coord,
) {
    let name = eng.proc_name(&coord.input);
    let distributed = coord.participants.len() > 1;
    let stats = eng.metrics.type_stats(name);
    stats.commits += 1;
    if distributed {
        stats.distributed_commits += 1;
    }
    if let Some(mon) = eng.monitor.as_mut() {
        // Feed the adaptive sampling service: this commit's read/write-set
        // (built lazily — only sampled commits allocate). Inner-region ops
        // never get `OpState::record` set (the inner host resolves them),
        // so re-resolve by key here — with all outputs in, every key
        // resolves — or the hottest records would vanish from the samples
        // the moment they are promoted, and the planner would oscillate.
        mon.on_commit(|| {
            let mut reads = Vec::new();
            let mut writes = Vec::new();
            for (i, st) in coord.ops.iter().enumerate() {
                let op = coord.proc.op(OpId(i as u16));
                let rid = st.record.or_else(|| {
                    op.key
                        .resolve(&coord.exec)
                        .map(|k| RecordId::new(op.table, k))
                });
                if let Some(rid) = rid {
                    if op.kind.is_write() {
                        writes.push(rid);
                    } else {
                        reads.push(rid);
                    }
                }
            }
            (reads, writes)
        });
    }
    let latency = ctx.now().saturating_since(coord.first_start);
    eng.metrics.latency.record_duration(latency);
    if coord.traced {
        eng.tracer.record(
            ctx.now().as_nanos(),
            eng.node,
            EventKind::TxnCommit {
                txn,
                latency_ns: latency.as_nanos(),
                distributed,
            },
        );
    }
    // Serializability checking: the commit marker is what promotes this
    // attempt's recorded reads/writes into the checked history (attempts
    // that never reach here drop out at assembly).
    if eng.recorder.enabled() {
        eng.recorder.record(
            ctx.now().as_nanos(),
            eng.node,
            chiller_obs::HistoryEventKind::Commit { txn },
        );
    }
    // Durability ack point: this commit counts toward `stats.commits`, so
    // after a crash the recovered state must include it. The Ack record
    // only becomes visible to recovery once flushed — and every kill point
    // in the crash harness sits at a flush boundary — so acked ⟺ durable.
    eng.wal_append(chiller_storage::wal::WalRecord::Ack { txn });
    coord.phase = Phase::Done;
    eng.schedule_fresh_start(ctx, coord.slot);
}

/// Abort the current attempt: release outer locks, account, and retry
/// (transient) or give up (logic). Sets `Phase::Done`.
pub(crate) fn abort_attempt(
    eng: &mut EngineActor,
    ctx: &mut Ctx<'_, Msg>,
    txn: TxnId,
    coord: &mut Coord,
) {
    for (part, unlocks) in by_partition(std::mem::take(&mut coord.held_locks)) {
        ctx.send(
            NodeId(part.0),
            Verb::OneSided,
            Msg::AbortOuter { txn, unlocks },
        );
    }
    // A two-region attempt logged a provisional `Decide` before it
    // delegated; close it, or recovery must resolve it against the inner
    // host's log on every restart. (A no-op on a volatile engine.)
    if coord.inner_sent {
        eng.wal_append(chiller_storage::wal::WalRecord::Abort { txn });
    }
    let kind = coord.failed.expect("abort without failure");
    let name = eng.proc_name(&coord.input);
    let slot = coord.slot;
    coord.phase = Phase::Done;
    if coord.traced {
        let reason = match kind {
            FailKind::Transient(r) => Some(r),
            FailKind::Logic => None,
        };
        eng.tracer.record(
            ctx.now().as_nanos(),
            eng.node,
            EventKind::TxnAbort {
                txn,
                attempt: coord.attempts,
                reason,
            },
        );
    }
    match kind {
        FailKind::Transient(reason) => {
            eng.metrics.type_stats(name).aborts += 1;
            eng.metrics.abort_reasons.record(reason);
            if coord.attempts >= eng.config.engine.max_retries {
                eng.schedule_fresh_start(ctx, slot);
            } else {
                let input = std::mem::replace(
                    &mut coord.input,
                    TxnInput {
                        proc: 0,
                        params: Vec::new(),
                    },
                );
                let backoff =
                    eng.schedule_retry(ctx, slot, input, coord.attempts, coord.first_start);
                if coord.traced {
                    eng.tracer.record(
                        ctx.now().as_nanos(),
                        eng.node,
                        EventKind::TxnRetry {
                            txn,
                            attempt: coord.attempts,
                            backoff_ns: backoff.as_nanos(),
                        },
                    );
                }
            }
        }
        FailKind::Logic => {
            eng.metrics.type_stats(name).logic_aborts += 1;
            eng.schedule_fresh_start(ctx, slot);
        }
    }
}
