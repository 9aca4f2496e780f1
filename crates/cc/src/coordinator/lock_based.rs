//! The lock-based coordinator: Chiller's two-region execution (§3), with
//! traditional 2PL + 2PC (NO_WAIT, Figure 3a) as its single-region case.
//!
//! Waves issue combined lock+read verbs for the outer region. When the
//! §3.3 admission decision split off an inner region, the coordinator
//! delegates it by RPC to the inner host once outer locks are held and
//! outer guards pass; the inner host commits unilaterally and
//! fire-and-forget replicates (§5), and the coordinator resumes outer
//! phase 2 after the inner result *and* the inner replicas' acks arrive.
//! Every transaction ends in the same commit: write-back + unlock with the
//! prepare piggybacked, alongside replication to each written partition's
//! replicas. A 2PL transaction, or a Chiller one with no hot records, is a
//! single outer region and goes straight to that commit.

use super::{
    abort_attempt, by_partition, compute_pass, drive, finish_commit, in_scope, lock_mode_for,
    take_run, Coord, FailKind, Phase,
};
use crate::engine::EngineActor;
use crate::msg::{LockReadItem, Msg};
use chiller_common::ids::{NodeId, OpId, TxnId};
use chiller_common::metrics::AbortReason;
use chiller_common::value::Row;
use chiller_simnet::{Ctx, Verb};
use chiller_sproc::decision::GuardSite;
use chiller_sproc::op::OpKind;

/// Wave dispatch: a combined CAS-lock + READ batch for one partition.
pub(super) fn lock_read_message(coord: &Coord, txn: TxnId, req: u64, ops: &[OpId]) -> Msg {
    Msg::LockRead {
        txn,
        req,
        items: ops
            .iter()
            .map(|&id| {
                let op = coord.proc.op(id);
                LockReadItem {
                    op: id,
                    record: coord.ops[id.idx()]
                        .record
                        .expect("resolved before dispatch"),
                    mode: lock_mode_for(op),
                    want_row: op.kind.produces_output(),
                    expect_absent: matches!(op.kind, OpKind::Insert(_)),
                }
            })
            .collect(),
    }
}

/// Every in-scope op holds its lock: delegate the inner region if the
/// split has one and it has not gone out yet, otherwise commit (outer
/// phase 2 after the inner region, or the whole single-region
/// transaction).
pub(super) fn on_waves_complete(
    eng: &mut EngineActor,
    ctx: &mut Ctx<'_, Msg>,
    txn: TxnId,
    coord: &mut Coord,
) {
    if coord.split.is_two_region() && !coord.inner_sent {
        send_inner(eng, ctx, txn, coord);
    } else {
        commit_locked(eng, ctx, txn, coord);
    }
}

/// One lock+read response: on grant, record held locks and outputs; on
/// conflict or existence fault, mark the attempt failed. Then drive the
/// next stage.
#[allow(clippy::too_many_arguments)]
pub(crate) fn on_lock_read_resp(
    eng: &mut EngineActor,
    ctx: &mut Ctx<'_, Msg>,
    txn: TxnId,
    coord: &mut Coord,
    req: u64,
    granted: bool,
    missing: bool,
    stale: bool,
    rows: Vec<(OpId, Row)>,
) {
    coord.pending -= 1;
    ctx.use_cpu(eng.op_cpu());
    let ops = std::mem::take(&mut coord.inflight[req as usize - 1]);
    if granted {
        for &id in &ops {
            let st = &mut coord.ops[id.idx()];
            st.responded = true;
            coord
                .held_locks
                .push((st.partition.expect("issued"), st.record.expect("issued")));
        }
        // Each row has one home: a read's row is its output, an update's
        // is the input its apply function borrows at compute time.
        for (op_id, row) in rows {
            if matches!(coord.proc.op(op_id).kind, OpKind::Read { .. }) {
                coord.exec.set_output(op_id, row);
            } else {
                coord.ops[op_id.idx()].raw_row = Some(row);
            }
        }
    } else if missing {
        coord.failed = Some(FailKind::Logic);
    } else if stale {
        coord.failed = Some(FailKind::Transient(AbortReason::MigrationStaleRoute));
    } else {
        coord.failed = Some(FailKind::Transient(AbortReason::NoWaitConflict));
    }
    drive(eng, ctx, txn, coord);
}

/// §3.3 step 4: ship the inner region to the inner host.
fn send_inner(eng: &mut EngineActor, ctx: &mut Ctx<'_, Msg>, txn: TxnId, coord: &mut Coord) {
    let host = coord.split.inner_host.expect("two-region");
    coord.add_participant(host);
    let inner_has_writes = coord
        .split
        .inner_ops
        .iter()
        .any(|id| coord.proc.op(*id).kind.is_write());
    // The inner host's replicas ack this coordinator directly (§5).
    let replica_acks = if inner_has_writes {
        eng.replica_nodes(host).len()
    } else {
        0
    };
    let outer_outputs: Vec<(OpId, Row)> = (0..coord.proc.num_ops() as u16)
        .map(OpId)
        .filter_map(|id| coord.exec.output(id).map(|r| (id, r.clone())))
        .collect();
    let inner_guards: Vec<usize> = coord
        .split
        .guard_sites
        .iter()
        .enumerate()
        .filter(|(_, s)| **s == GuardSite::Inner)
        .map(|(i, _)| i)
        .collect();
    if NodeId(host.0) != eng.node && eng.tracer.enabled() {
        eng.tracer.record(
            ctx.now().as_nanos(),
            eng.node,
            chiller_obs::EventKind::SendHop {
                txn,
                dst: NodeId(host.0),
                label: "exec_inner",
            },
        );
    }
    // Provisional decision: once the inner host unilaterally commits, the
    // transaction IS committed (§3.3) even if this coordinator dies before
    // outer phase 2. Log the outer writes known so far, tagged with the
    // inner host; recovery treats the txn as committed iff that host's log
    // carries `InnerCommit`. The final Decide from `commit_locked` (with
    // `pending_inner: None` and the complete write-set) supersedes this.
    super::log_decide(eng, txn, coord, Some(host));
    ctx.send(
        NodeId(host.0),
        Verb::Rpc,
        Msg::ExecInner {
            txn,
            proc: coord.input.proc,
            params: coord.input.params.clone(),
            outer_outputs,
            inner_ops: coord.split.inner_ops.clone(),
            inner_guards,
        },
    );
    coord.inner_sent = true;
    coord.phase = Phase::InnerWait;
    coord.pending = 1 + replica_acks;
}

/// §3.3 step 5: the inner host's unilateral decision arrived.
#[allow(clippy::too_many_arguments)]
pub(crate) fn on_inner_result(
    eng: &mut EngineActor,
    ctx: &mut Ctx<'_, Msg>,
    txn: TxnId,
    coord: &mut Coord,
    committed: bool,
    outputs: Vec<(OpId, Row)>,
    retryable: bool,
    stale: bool,
) {
    ctx.use_cpu(eng.op_cpu());
    coord.pending -= 1;
    if committed {
        coord.inner_ok = true;
        for (op, row) in outputs {
            coord.exec.set_output(op, row);
        }
        for id in &coord.split.inner_ops {
            let st = &mut coord.ops[id.idx()];
            st.responded = true;
            st.computed = true;
        }
        if coord.pending == 0 {
            resume_outer_commit(eng, ctx, txn, coord);
        }
    } else {
        coord.failed = Some(if retryable {
            FailKind::Transient(if stale {
                AbortReason::MigrationStaleRoute
            } else {
                AbortReason::NoWaitConflict
            })
        } else {
            FailKind::Logic
        });
        // Inner replicas never replicate on abort: drop their count.
        coord.pending = 0;
        abort_attempt(eng, ctx, txn, coord);
    }
}

/// Outer phase 2: with the inner result and its replica acks in, finish
/// the remaining outer computation and commit the outer region.
pub(super) fn resume_outer_commit(
    eng: &mut EngineActor,
    ctx: &mut Ctx<'_, Msg>,
    txn: TxnId,
    coord: &mut Coord,
) {
    compute_pass(eng, ctx, coord);
    commit_locked(eng, ctx, txn, coord);
}

/// The commit: per written partition, replicate and send WRITE-back +
/// unlock one-sided verbs, then wait for every ack.
fn commit_locked(eng: &mut EngineActor, ctx: &mut Ctx<'_, Msg>, txn: TxnId, coord: &mut Coord) {
    debug_assert!(
        coord
            .ops
            .iter()
            .enumerate()
            .all(|(i, st)| !in_scope(coord, OpId(i as u16)) || st.computed),
        "committing with uncomputed ops"
    );
    ctx.use_cpu(eng.txn_cpu());
    coord.phase = Phase::Committing;
    coord.pending = 0;
    // Commit point: the decision (with the full outer write-set) goes to
    // the coordinator's log before any write-back is sent, so recovery can
    // repair participants that never saw their CommitOuter.
    super::log_decide(eng, txn, coord, None);

    // Both lists come out grouped by partition in ascending order, so one
    // merge walk visits every written or locked partition once, in order.
    let mut writes_by_part = by_partition(std::mem::take(&mut coord.writes)).peekable();
    let mut unlocks_by_part = by_partition(std::mem::take(&mut coord.held_locks)).peekable();
    loop {
        let next_write = writes_by_part.peek().map(|&(p, _)| p);
        let next_unlock = unlocks_by_part.peek().map(|&(p, _)| p);
        let Some(part) = next_write.into_iter().chain(next_unlock).min() else {
            break;
        };
        let writes = take_run(&mut writes_by_part, part);
        let unlocks = take_run(&mut unlocks_by_part, part);
        // Every replica gets a copy; the write-back below takes the
        // original.
        if !writes.is_empty() {
            for replica in eng.replica_nodes(part) {
                ctx.send(
                    replica,
                    Verb::Rpc,
                    Msg::Replicate {
                        txn,
                        partition: part,
                        writes: writes.clone(),
                        ack_coordinator: true,
                    },
                );
                coord.pending += 1;
            }
        }
        ctx.send(
            NodeId(part.0),
            Verb::OneSided,
            Msg::CommitOuter {
                txn,
                writes,
                unlocks,
            },
        );
        coord.pending += 1;
    }
    if coord.pending == 0 {
        finish_commit(eng, ctx, txn, coord);
    }
}
