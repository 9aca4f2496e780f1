//! The transaction coordinator.
//!
//! A stored procedure executes in **dependency waves**: every operation
//! whose key is resolvable and whose pk-dependencies are satisfied is
//! issued (batched per partition) in parallel; responses unlock the next
//! wave. This mirrors how a NAM-DB coordinator overlaps one-sided verbs,
//! and gives 2-wave execution for typical TPC-C transactions. The wave
//! loop, per-op compute pass, guard evaluation, commit/abort accounting,
//! commit-phase acks and retry policy in this module serve every protocol.
//!
//! Two coordinators sit on top: the lock-based one (`lock_based`), which
//! runs Chiller's two-region execution and, as its single-region case,
//! 2PL + 2PC; and OCC (`occ`). The engine's [`Protocol`] is read in three
//! places:
//!
//! * **admission** (`admission_split`) — Chiller runs the §3.3 region
//!   decision; 2PL and OCC run everything as one outer region;
//! * **wave message** — combined lock+read verbs, or lock-free versioned
//!   reads under OCC;
//! * **waves complete** — the lock-based step (inner-region delegation
//!   when the split has two regions, otherwise write-back + unlock with the
//!   prepare piggybacked), or OCC's parallel validate round.
//!
//! Responses need no protocol: the engine routes each response kind to
//! its one handler (see [`EngineActor`]). All per-transaction state lives
//! in [`Coord`], all per-node state in [`EngineActor`].

pub(crate) mod lock_based;
pub(crate) mod occ;

use crate::engine::{EngineActor, SlotState};
use crate::input::TxnInput;
use crate::msg::{Msg, WriteItem, WriteKind};
use crate::protocol::Protocol;
use chiller_common::ids::{NodeId, OpId, PartitionId, RecordId, TxnId};
use chiller_common::metrics::AbortReason;
use chiller_common::time::{Duration, SimTime};
use chiller_common::value::Row;
use chiller_obs::EventKind;
use chiller_simnet::{Ctx, Verb};
use chiller_sproc::decision::GuardSite;
use chiller_sproc::op::OpKind;
use chiller_sproc::{decide_regions, ExecState, Procedure, RegionSplit};
use chiller_storage::lock::LockMode;
use std::iter::Peekable;
use std::sync::Arc;

/// Txn admission (§3.3 steps 1–2): decide the region split before the
/// first wave. Chiller resolves every statically-decidable key, looks up
/// its partition and hotness, and runs the region decision; the baselines
/// run everything as one outer region.
pub(crate) fn admission_split(
    eng: &EngineActor,
    proc: &Procedure,
    exec: &ExecState,
) -> RegionSplit {
    match eng.protocol {
        Protocol::Chiller => {
            let mut op_partition = Vec::with_capacity(proc.num_ops());
            let mut op_hot = Vec::with_capacity(proc.num_ops());
            for op in &proc.ops {
                let rid = op.decision_key(exec).map(|k| RecordId::new(op.table, k));
                op_partition.push(rid.map(|r| eng.placement.partition_of(r)));
                op_hot.push(rid.map(|r| eng.hot.contains(&r)).unwrap_or(false));
            }
            decide_regions(proc, &op_partition, &op_hot)
        }
        Protocol::TwoPhaseLocking | Protocol::Occ => RegionSplit::all_outer(proc),
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
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Phase {
    /// Waves in flight (lock+read or versioned read).
    #[default]
    Executing,
    /// Chiller: waiting for the inner result + inner replica acks.
    InnerWait,
    /// OCC: waiting for validate responses.
    Validating,
    /// Waiting for commit/decide/replication acks.
    Committing,
    /// OCC abort: waiting for latch-release acks before retrying.
    Aborting,
}

/// Coordinator state for one transaction slot's current (or, while the slot
/// backs off, last) attempt. The engine allocates one per slot and resets it
/// for each attempt with `Coord::begin`, so its vectors keep their
/// capacity.
#[derive(Default)]
pub struct Coord {
    pub(crate) input: TxnInput,
    pub(crate) proc: Arc<Procedure>,
    pub(crate) exec: ExecState,
    pub(crate) split: RegionSplit,
    pub(crate) ops: Vec<OpState>,
    pub(crate) guards_checked: Vec<bool>,
    pub(crate) phase: Phase,
    pub(crate) pending: usize,
    pub(crate) failed: Option<FailKind>,
    /// Ops carried by each access message, indexed by request id − 1.
    pub(crate) inflight: Vec<Vec<OpId>>,
    pub(crate) next_req: u64,
    /// Outer locks currently held.
    pub(crate) held_locks: Vec<(PartitionId, RecordId)>,
    /// Buffered writes (applied at commit).
    pub(crate) writes: Vec<(PartitionId, WriteItem)>,
    /// All partitions this attempt touched, ascending, each once.
    pub(crate) participants: Vec<PartitionId>,
    /// Chiller: inner-region progress.
    pub(crate) inner_sent: bool,
    pub(crate) inner_ok: bool,
    /// OCC: partitions that responded OK to validation (holding latches).
    pub(crate) validated_ok: Vec<PartitionId>,
    /// Retry bookkeeping (attempts includes the current one; both are
    /// reset by a fresh input, not by a retry).
    pub(crate) attempts: u32,
    pub(crate) first_start: SimTime,
}

impl Coord {
    /// Reset every per-attempt field for the next attempt of `self.input`
    /// under `proc`. The caller then decides `split`.
    pub(crate) fn begin(&mut self, proc: Arc<Procedure>) {
        let n = proc.num_ops();
        self.exec.reset(&self.input.params, n);
        self.ops.clear();
        self.ops.resize(n, OpState::default());
        self.guards_checked.clear();
        self.guards_checked.resize(proc.guards.len(), false);
        self.proc = proc;
        self.phase = Phase::Executing;
        self.pending = 0;
        self.failed = None;
        self.inflight.clear();
        self.next_req = 0;
        self.held_locks.clear();
        self.writes.clear();
        self.participants.clear();
        self.inner_sent = false;
        self.inner_ok = false;
        self.validated_ok.clear();
        self.attempts += 1;
    }

    /// Add `part` to the participants, keeping them sorted and distinct.
    pub(crate) fn add_participant(&mut self, part: PartitionId) {
        if let Err(at) = self.participants.binary_search(&part) {
            self.participants.insert(at, part);
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
/// next wave, and hand stage completion to the protocol's commit path.
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
    match eng.protocol {
        Protocol::Chiller | Protocol::TwoPhaseLocking => {
            lock_based::on_waves_complete(eng, ctx, txn, coord)
        }
        Protocol::Occ => occ::send_validate(eng, ctx, txn, coord),
    }
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

/// Issue every in-scope op whose key is resolvable, batched per partition
/// into the protocol's wave message.
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
        coord.add_participant(part);
        ready.push((part, id));
        ctx.use_cpu(eng.op_cpu());
    }
    let mut n = 0;
    for (part, op_ids) in by_partition(ready) {
        n += 1;
        let target = NodeId(part.0);
        coord.next_req += 1;
        let req = coord.next_req;
        let msg = match eng.protocol {
            Protocol::Chiller | Protocol::TwoPhaseLocking => {
                lock_based::lock_read_message(coord, txn, req, &op_ids)
            }
            Protocol::Occ => occ::read_message(coord, txn, req, &op_ids),
        };
        debug_assert_eq!(coord.inflight.len() as u64, req - 1);
        coord.inflight.push(op_ids);
        let verb = msg.verb();
        if target != eng.node && eng.tracer.enabled() {
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

/// A commit-phase ack arrived: a write-back (`CommitOuterAck`), a
/// replication (`ReplicateAck`) or an OCC decide (`OccDecideAck`) ack.
/// Once every ack is in, the phase says what comes next: outer phase 2
/// after a committed inner region (replica acks of the inner host count
/// here, §5), the commit, or OCC's retry after its latches are released.
/// Only Chiller enters `InnerWait` and only OCC enters `Aborting`, so one
/// handler serves every protocol.
pub(crate) fn on_ack(eng: &mut EngineActor, ctx: &mut Ctx<'_, Msg>, txn: TxnId, coord: &mut Coord) {
    coord.pending = coord.pending.saturating_sub(1);
    if coord.pending > 0 {
        return;
    }
    match coord.phase {
        Phase::InnerWait if coord.inner_ok => lock_based::resume_outer_commit(eng, ctx, txn, coord),
        Phase::Committing => finish_commit(eng, ctx, txn, coord),
        Phase::Aborting => abort_attempt(eng, ctx, txn, coord),
        _ => {}
    }
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

/// Account a successful commit and free the slot.
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
    if eng.tracer.enabled() {
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
    eng.end_attempt(ctx, txn, SlotState::Idle, Duration::ZERO);
}

/// Abort the current attempt: release outer locks, account, and retry
/// (transient) or give up (logic).
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
    if eng.tracer.enabled() {
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
    let (next, delay) = match kind {
        FailKind::Transient(reason) => {
            eng.metrics.type_stats(name).aborts += 1;
            eng.metrics.abort_reasons.record(reason);
            if coord.attempts >= eng.config.engine.max_retries {
                (SlotState::Idle, Duration::ZERO)
            } else {
                let backoff = eng.backoff_for(coord.attempts);
                if eng.tracer.enabled() {
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
                (SlotState::Backoff, backoff)
            }
        }
        FailKind::Logic => {
            eng.metrics.type_stats(name).logic_aborts += 1;
            (SlotState::Idle, Duration::ZERO)
        }
    };
    eng.end_attempt(ctx, txn, next, delay);
}
