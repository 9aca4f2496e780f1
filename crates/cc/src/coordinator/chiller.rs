//! Chiller's two-region execution (§3).
//!
//! The §3.3 run-time decision splits ops into outer/inner at admission.
//! Waves cover the outer region only, under NO_WAIT 2PL; once outer locks
//! are held and outer guards pass, the inner region is delegated by RPC to
//! the inner host, which commits unilaterally and fire-and-forget
//! replicates (§5). The coordinator resumes outer phase 2 after the inner
//! result *and* the inner replicas' acks arrive, then commits the outer
//! region. Transactions with no hot records fall back to plain 2PL+2PC.

use super::{
    abort_attempt, compute_pass, drive, lock_based, Coord, CoordinatorProtocol, FailKind, Phase,
};
use crate::engine::EngineActor;
use crate::msg::Msg;
use crate::protocol::Protocol;
use chiller_common::ids::{NodeId, OpId, RecordId, TxnId};
use chiller_common::value::Row;
use chiller_simnet::{Ctx, Verb};
use chiller_sproc::decision::GuardSite;
use chiller_sproc::{decide_regions, ExecState, Procedure, RegionSplit};

/// Strategy singleton for [`Protocol::Chiller`].
pub struct ChillerCoordinator;

impl CoordinatorProtocol for ChillerCoordinator {
    fn protocol(&self) -> Protocol {
        Protocol::Chiller
    }

    /// §3.3 steps 1–2: resolve every statically-decidable key, look up its
    /// partition and hotness, and run the region decision.
    fn admission_split(
        &self,
        eng: &EngineActor,
        proc: &Procedure,
        exec: &ExecState,
    ) -> RegionSplit {
        let mut op_partition = Vec::with_capacity(proc.num_ops());
        let mut op_hot = Vec::with_capacity(proc.num_ops());
        for op in &proc.ops {
            let rid = op.decision_key(exec).map(|k| RecordId::new(op.table, k));
            op_partition.push(rid.map(|r| eng.placement.partition_of(r)));
            op_hot.push(rid.map(|r| eng.hot.contains(&r)).unwrap_or(false));
        }
        decide_regions(proc, &op_partition, &op_hot)
    }

    fn wave_message(&self, coord: &Coord, txn: TxnId, req: u64, ops: &[OpId]) -> Msg {
        lock_based::lock_read_message(coord, txn, req, ops)
    }

    fn on_waves_complete(
        &self,
        eng: &mut EngineActor,
        ctx: &mut Ctx<'_, Msg>,
        txn: TxnId,
        coord: &mut Coord,
    ) {
        if coord.split.is_two_region() && !coord.inner_sent {
            send_inner(eng, ctx, txn, coord);
        } else {
            // Single-region fallback, or outer phase 2 after the inner
            // region committed.
            lock_based::commit_locked(eng, ctx, txn, coord);
        }
    }

    fn on_response(
        &self,
        eng: &mut EngineActor,
        ctx: &mut Ctx<'_, Msg>,
        _src: NodeId,
        txn: TxnId,
        coord: &mut Coord,
        msg: Msg,
    ) {
        match msg {
            Msg::LockReadResp {
                req,
                granted,
                conflict: _,
                missing,
                stale,
                rows,
                ..
            } => {
                lock_based::absorb_lock_read_resp(
                    eng, ctx, coord, req, granted, missing, stale, rows,
                );
                drive(eng, ctx, txn, coord);
            }
            Msg::InnerResult {
                committed,
                outputs,
                retryable,
                stale,
                ..
            } => on_inner_result(eng, ctx, txn, coord, committed, outputs, retryable, stale),
            Msg::ReplicateAck { .. } => {
                // Inner-region replication acks the *coordinator* (§5,
                // Figure 6); outer-region replication acks land here too.
                coord.pending = coord.pending.saturating_sub(1);
                if coord.pending == 0 {
                    match coord.phase {
                        Phase::InnerWait if coord.inner_ok => {
                            resume_outer_commit(eng, ctx, txn, coord);
                        }
                        Phase::Committing => super::finish_commit(eng, ctx, txn, coord),
                        _ => {}
                    }
                }
            }
            Msg::CommitOuterAck { .. } => {
                lock_based::absorb_commit_phase_ack(eng, ctx, txn, coord);
            }
            other => {
                debug_assert!(false, "Chiller coordinator received {other:?}");
            }
        }
    }
}

/// §3.3 step 4: ship the inner region to the inner host.
fn send_inner(eng: &mut EngineActor, ctx: &mut Ctx<'_, Msg>, txn: TxnId, coord: &mut Coord) {
    let host = coord.split.inner_host.expect("two-region");
    coord.participants.insert(host);
    let inner_has_writes = coord
        .split
        .inner_ops
        .iter()
        .any(|id| coord.proc.op(*id).kind.is_write());
    let expect_replica_acks = if inner_has_writes {
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
            expect_replica_acks,
        },
    );
    coord.inner_sent = true;
    coord.phase = Phase::InnerWait;
    coord.pending = 1 + expect_replica_acks;
}

/// §3.3 step 5: the inner host's unilateral decision arrived.
#[allow(clippy::too_many_arguments)]
fn on_inner_result(
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
                chiller_common::metrics::AbortReason::MigrationStaleRoute
            } else {
                chiller_common::metrics::AbortReason::NoWaitConflict
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
fn resume_outer_commit(
    eng: &mut EngineActor,
    ctx: &mut Ctx<'_, Msg>,
    txn: TxnId,
    coord: &mut Coord,
) {
    compute_pass(eng, ctx, coord);
    lock_based::commit_locked(eng, ctx, txn, coord);
}
