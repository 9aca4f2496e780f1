//! Distributed optimistic concurrency control — the paper's optimistic
//! baseline (MaaT-inspired; see DESIGN.md for the substitution note).
//!
//! Waves issue lock-free versioned reads; commit runs a parallel validate
//! round (latch the write set NO_WAIT, check that every observed version
//! is still current) followed by a decide round that applies writes and
//! releases latches — or, on validation failure, a release-only round
//! before the retry backoff.

use super::{abort_attempt, by_partition, drive, finish_commit, take_run, Coord, FailKind, Phase};
use crate::engine::EngineActor;
use crate::msg::{Msg, OccReadItem, ValidateItem};
use chiller_common::ids::{NodeId, OpId, PartitionId, RecordId, TxnId};
use chiller_common::metrics::AbortReason;
use chiller_common::value::Row;
use chiller_simnet::{Ctx, Verb};
use chiller_sproc::op::OpKind;

/// Wave dispatch: a lock-free versioned READ batch for one partition.
pub(super) fn read_message(coord: &Coord, txn: TxnId, req: u64, ops: &[OpId]) -> Msg {
    Msg::OccRead {
        txn,
        req,
        items: ops
            .iter()
            .map(|&id| {
                let op = coord.proc.op(id);
                OccReadItem {
                    op: id,
                    record: coord.ops[id.idx()]
                        .record
                        .expect("resolved before dispatch"),
                    want_row: op.kind.produces_output(),
                }
            })
            .collect(),
    }
}

/// One lock-free versioned read response; then drive the next stage.
pub(crate) fn on_read_resp(
    eng: &mut EngineActor,
    ctx: &mut Ctx<'_, Msg>,
    txn: TxnId,
    coord: &mut Coord,
    req: u64,
    rows: Vec<(OpId, Option<Row>, u64)>,
) {
    coord.pending -= 1;
    ctx.use_cpu(eng.op_cpu());
    coord.inflight[req as usize - 1] = Vec::new();
    for (op_id, row, version) in rows {
        let st = &mut coord.ops[op_id.idx()];
        st.responded = true;
        st.version = version;
        match (row, &coord.proc.op(op_id).kind) {
            (Some(r), OpKind::Read { .. }) => coord.exec.set_output(op_id, r),
            (Some(r), OpKind::Update(_)) => st.raw_row = Some(r),
            (None, OpKind::Insert(_)) => {}
            (Some(_), OpKind::Insert(_)) => {
                coord.failed = Some(FailKind::Logic); // duplicate key
            }
            (Some(r), OpKind::Delete) => st.raw_row = Some(r),
            (None, OpKind::Delete) => {} // validated by version at commit
            (None, _) => {
                coord.failed = Some(FailKind::Logic); // record missing
            }
        }
    }
    drive(eng, ctx, txn, coord);
}

/// Parallel validation round: per touched partition, latch the write set
/// and check read versions.
pub(super) fn send_validate(
    eng: &mut EngineActor,
    ctx: &mut Ctx<'_, Msg>,
    txn: TxnId,
    coord: &mut Coord,
) {
    ctx.use_cpu(eng.txn_cpu());
    coord.phase = Phase::Validating;
    coord.pending = 0;
    coord.validated_ok.clear();
    let mut items: Vec<(PartitionId, ValidateItem)> = Vec::new();
    for st in &coord.ops {
        let (Some(rid), Some(part)) = (st.record, st.partition) else {
            continue;
        };
        // An op on a record another op already covered adds nothing.
        if items.iter().any(|(p, it)| *p == part && it.record == rid) {
            continue;
        }
        items.push((
            part,
            ValidateItem {
                record: rid,
                version: st.version,
                is_write: writes_record(coord, rid),
            },
        ));
    }
    for (part, items) in by_partition(items) {
        let target = NodeId(part.0);
        if target != eng.node && eng.tracer.enabled() {
            eng.tracer.record(
                ctx.now().as_nanos(),
                eng.node,
                chiller_obs::EventKind::SendHop {
                    txn,
                    dst: target,
                    label: "occ_validate",
                },
            );
        }
        ctx.send(target, Verb::OneSided, Msg::OccValidate { txn, items });
        coord.pending += 1;
    }
    if coord.pending == 0 {
        finish_commit(eng, ctx, txn, coord);
    }
}

/// One partition's validation verdict; once all are in, run the decide
/// round (or abort if nothing needs releasing).
pub(crate) fn on_validate_resp(
    eng: &mut EngineActor,
    ctx: &mut Ctx<'_, Msg>,
    src: NodeId,
    txn: TxnId,
    coord: &mut Coord,
    ok: bool,
) {
    ctx.use_cpu(eng.op_cpu());
    coord.pending -= 1;
    if ok {
        coord.validated_ok.push(PartitionId(src.0));
    } else {
        coord.failed = Some(FailKind::Transient(AbortReason::OccValidation));
    }
    if coord.pending > 0 {
        return;
    }
    let commit = coord.failed.is_none();
    occ_decide(eng, ctx, txn, coord, commit);
    if !commit && coord.pending == 0 {
        abort_attempt(eng, ctx, txn, coord);
    }
}

/// Decide round after all validation responses are in: on commit, ship
/// writes + latch releases to every participant (and replicate); on
/// abort, release latches held by the partitions that validated OK.
fn occ_decide(
    eng: &mut EngineActor,
    ctx: &mut Ctx<'_, Msg>,
    txn: TxnId,
    coord: &mut Coord,
    commit: bool,
) {
    coord.phase = if commit {
        Phase::Committing
    } else {
        Phase::Aborting
    };
    coord.pending = 0;
    if commit {
        // Commit point: log the decision before shipping writes/latch
        // releases, mirroring the lock-based commit path.
        super::log_decide(eng, txn, coord, None);
    }
    // What each target releases is read off the write set before the
    // writes move out into the decide messages.
    let with_latches = |&part: &PartitionId| (part, latched_at(coord, part));
    let targets: Vec<(PartitionId, Vec<RecordId>)> = if commit {
        coord.participants.iter().map(with_latches).collect()
    } else {
        coord.validated_ok.iter().map(with_latches).collect()
    };
    // Participants ascend, and every write's partition is a participant,
    // so each write run is taken in turn.
    let writes = if commit {
        std::mem::take(&mut coord.writes)
    } else {
        Vec::new()
    };
    let mut write_runs = by_partition(writes).peekable();
    for (part, latched) in targets {
        let writes = take_run(&mut write_runs, part);
        if commit && !writes.is_empty() {
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
        if !commit && latched.is_empty() {
            continue;
        }
        ctx.send(
            NodeId(part.0),
            Verb::OneSided,
            Msg::OccDecide {
                txn,
                commit,
                writes,
                latched,
            },
        );
        coord.pending += 1;
    }
    debug_assert!(
        write_runs.peek().is_none(),
        "a write outside the participants"
    );
    if coord.pending == 0 && commit {
        finish_commit(eng, ctx, txn, coord);
    }
}

/// Whether this attempt writes `rid`. A transaction writes a handful of
/// records, so a scan beats building a set.
fn writes_record(coord: &Coord, rid: RecordId) -> bool {
    coord.writes.iter().any(|(_, w)| w.record == rid)
}

/// The records validation latched at `part`: those the attempt touched
/// there and writes, ascending, each once.
fn latched_at(coord: &Coord, part: PartitionId) -> Vec<RecordId> {
    let mut latched: Vec<RecordId> = coord
        .ops
        .iter()
        .filter(|st| st.partition == Some(part))
        .filter_map(|st| st.record)
        .filter(|&rid| writes_record(coord, rid))
        .collect();
    latched.sort_unstable();
    latched.dedup();
    latched
}
