//! Machinery shared by the lock-based strategies (2PL and Chiller's outer
//! region): combined lock+read waves, grant/conflict handling, and the
//! write-back + unlock commit with the prepare piggybacked (Figure 3a).

use super::{
    by_partition, finish_commit, in_scope, lock_mode_for, take_run, Coord, FailKind, Phase,
};
use crate::engine::EngineActor;
use crate::msg::{LockReadItem, Msg};
use chiller_common::ids::{NodeId, OpId, RecordId, TxnId};
use chiller_common::metrics::AbortReason;
use chiller_common::value::Row;
use chiller_simnet::{Ctx, Verb};
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

/// Absorb one lock+read response: on grant, record held locks and outputs;
/// on conflict or existence fault, mark the attempt failed. The caller
/// drives the next stage afterwards.
#[allow(clippy::too_many_arguments)]
pub(super) fn absorb_lock_read_resp(
    eng: &mut EngineActor,
    ctx: &mut Ctx<'_, Msg>,
    coord: &mut Coord,
    req: u64,
    granted: bool,
    missing: Option<RecordId>,
    stale: bool,
    rows: Vec<(OpId, Row)>,
) {
    coord.pending -= 1;
    ctx.use_cpu(eng.op_cpu());
    let ops = coord.inflight.remove(&req).expect("unknown request id");
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
    } else if missing.is_some() {
        coord.failed = Some(FailKind::Logic);
    } else if stale {
        coord.failed = Some(FailKind::Transient(AbortReason::MigrationStaleRoute));
    } else {
        coord.failed = Some(FailKind::Transient(AbortReason::NoWaitConflict));
    }
}

/// Commit for lock-based execution (2PL, Chiller outer phase 2): per
/// written partition, replicate and send WRITE-back + unlock one-sided
/// verbs, then wait for every ack.
pub(super) fn commit_locked(
    eng: &mut EngineActor,
    ctx: &mut Ctx<'_, Msg>,
    txn: TxnId,
    coord: &mut Coord,
) {
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

/// Absorb a commit-phase ack (write-back ack or replication ack): once all
/// acks drain during `Committing`, the transaction is committed.
pub(super) fn absorb_commit_phase_ack(
    eng: &mut EngineActor,
    ctx: &mut Ctx<'_, Msg>,
    txn: TxnId,
    coord: &mut Coord,
) {
    coord.pending = coord.pending.saturating_sub(1);
    if coord.pending == 0 && coord.phase == Phase::Committing {
        finish_commit(eng, ctx, txn, coord);
    }
}
