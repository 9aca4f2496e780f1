//! Live record migration: the data-plane half of adaptive repartitioning.
//!
//! A migration moves one record from its current owner (*source*) to a new
//! owner (*destination*) without stopping the cluster. The destination
//! engine coordinates; every step is an ordinary message in virtual time
//! under plain NO_WAIT locking, so migrations serialize against concurrent
//! transactions exactly like any other lock-based write:
//!
//! 1. **lock-local** — the destination CAS-locks the bucket the record will
//!    land in (NO_WAIT; conflict → backoff and retry);
//! 2. **lock-copy** — `MigrateLock` CAS-locks the record at the source and
//!    returns its row. From here to step 5 the source copy is frozen:
//!    conflicting transactions retry, so no write can be lost;
//! 3. **replicate-in** — the destination installs the copy and waits for
//!    its replica group to ack the insert. Until the flip, no transaction
//!    routes to the destination copy, so replica writes cannot race;
//! 4. **re-publish** — the directory entry flips to the destination at one
//!    virtual-time instant; the destination bucket unlocks. New lock
//!    requests now land on the (complete, replicated) destination copy;
//! 5. **finish** — `MigrateFinish` deletes the source copy, releases the
//!    migration lock, replicates the deletion to the source's replica
//!    group, and records the id in `migrated_out`: a later miss there is a
//!    stale-routing race and is answered as a retryable conflict.
//!
//! Legality note: between steps 2 and 5 both copies exist but at most one
//! is reachable and the other is exclusively locked — balance-style
//! invariants over *committed, quiesced* state are preserved, and a crash
//! of the simulated protocol mid-flight is impossible by construction
//! (virtual time, no partial delivery).

use crate::engine::{EngineActor, TOKEN_MASK, TOKEN_MIG};
use crate::msg::{Msg, WriteItem, WriteKind};
use chiller_adaptive::RecordMove;
use chiller_common::ids::{NodeId, RecordId, TxnId};
use chiller_common::value::Row;
use chiller_simnet::{Ctx, Verb};
use chiller_storage::lock::LockMode;
use chiller_storage::wal::{RedoOp, RedoWrite, WalRecord};

/// One migration work item (a `RecordMove` plus retry bookkeeping).
#[derive(Debug, Clone, Copy)]
pub struct MigrationJob {
    pub record: RecordId,
    pub from: chiller_common::ids::PartitionId,
    pub to: chiller_common::ids::PartitionId,
    pub hot_after: bool,
    pub attempts: u32,
}

impl From<RecordMove> for MigrationJob {
    fn from(mv: RecordMove) -> Self {
        MigrationJob {
            record: mv.record,
            from: mv.from,
            to: mv.to,
            hot_after: mv.hot_after,
            attempts: 0,
        }
    }
}

/// What the destination is currently waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MigPhase {
    /// The source's lock+copy response.
    Src,
    /// The destination replica group's insert acks.
    Replicas,
    /// Flipped; the source's finish ack.
    Finish,
}

/// Destination-side state of one in-flight migration.
#[derive(Debug)]
pub(crate) struct Migration {
    pub(crate) job: MigrationJob,
    pub(crate) phase: MigPhase,
    pub(crate) pending: usize,
}

impl EngineActor {
    /// Start one migration planned for this engine's partition (called by
    /// the epoch scheduler through the control-plane injection point).
    pub fn begin_migration(&mut self, ctx: &mut Ctx<'_, Msg>, mv: RecordMove) {
        debug_assert_eq!(
            mv.to, self.store.partition,
            "migrations are coordinated by their destination"
        );
        self.attempt_migration(ctx, MigrationJob::from(mv));
    }

    /// One NO_WAIT attempt: lock the destination bucket, then ask the
    /// source for the locked copy.
    pub(crate) fn attempt_migration(&mut self, ctx: &mut Ctx<'_, Msg>, mut job: MigrationJob) {
        if !self.accepting {
            // Draining for quiescence: abandon rather than start new work.
            self.metrics.migrations_abandoned += 1;
            return;
        }
        job.attempts += 1;
        self.txn_seq += 1;
        let txn = TxnId::new(self.node, self.txn_seq);
        let now = ctx.now();
        if self
            .store
            .try_lock(job.record, txn, LockMode::Exclusive, now)
            .is_err()
        {
            self.reschedule_migration(ctx, job);
            return;
        }
        ctx.send(
            NodeId(job.from.0),
            Verb::OneSided,
            Msg::MigrateLock {
                txn,
                record: job.record,
            },
        );
        self.migrations.insert(
            txn,
            Migration {
                job,
                phase: MigPhase::Src,
                pending: 1,
            },
        );
    }

    /// Back off and retry later (the same jittered exponential policy as
    /// transaction retries), up to the engine's retry budget.
    fn reschedule_migration(&mut self, ctx: &mut Ctx<'_, Msg>, job: MigrationJob) {
        if job.attempts >= self.config.engine.max_retries {
            self.metrics.migrations_abandoned += 1;
            return;
        }
        self.metrics.migration_retries += 1;
        let backoff = self.backoff_for(job.attempts);
        self.mig_seq += 1;
        let id = self.mig_seq & TOKEN_MASK;
        self.mig_retries.insert(id, job);
        ctx.set_timer(backoff, TOKEN_MIG | id);
    }

    /// A coordinator-side migration response arrived (lock+copy response,
    /// replica ack, or finish ack).
    pub(crate) fn on_migration_response(&mut self, ctx: &mut Ctx<'_, Msg>, txn: TxnId, msg: Msg) {
        let Some(mut mig) = self.migrations.remove(&txn) else {
            return;
        };
        match msg {
            Msg::MigrateLockResp {
                granted,
                missing,
                row,
                version,
                ..
            } => {
                debug_assert_eq!(mig.phase, MigPhase::Src);
                if !granted {
                    // Release the destination bucket before retrying or
                    // abandoning — no lock is held between attempts.
                    self.store.unlock(mig.job.record, txn, ctx.now());
                    if missing {
                        self.metrics.migrations_abandoned += 1;
                    } else {
                        self.reschedule_migration(ctx, mig.job);
                    }
                    return;
                }
                let row = row.expect("granted migration copy carries the row");
                self.install_copy_and_replicate(ctx, txn, mig, row, version);
            }
            Msg::ReplicateAck { .. } => {
                debug_assert_eq!(mig.phase, MigPhase::Replicas);
                mig.pending = mig.pending.saturating_sub(1);
                if mig.pending == 0 {
                    self.flip_and_finish(ctx, txn, mig);
                } else {
                    self.migrations.insert(txn, mig);
                }
            }
            Msg::MigrateFinishAck { .. } => {
                debug_assert_eq!(mig.phase, MigPhase::Finish);
                self.metrics.migrations_completed += 1;
            }
            other => {
                debug_assert!(false, "migration coordinator received {other:?}");
            }
        }
    }

    /// Step 3: install the copy locally and replicate it to this
    /// partition's replica group, waiting for every ack before the flip so
    /// no later transaction write can be reordered behind the insert.
    fn install_copy_and_replicate(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        txn: TxnId,
        mut mig: Migration,
        row: Row,
        src_version: u64,
    ) {
        // `insert_migrated` continues the source's per-record version chain
        // at the destination, so the moved record keeps one monotone
        // version history (the serializability checker depends on this; a
        // plain insert would restart the destination's counter and mint
        // duplicate version numbers for the same record).
        self.store
            .insert_migrated(mig.job.record, row.clone(), src_version)
            .expect("migrated-in record must be fresh at the destination");
        // Durability: the migrated-in copy must survive a destination crash
        // once the source has retired its copy, so it goes to the redo log
        // with its carried-over version (flushed before `MigrateFinish`).
        let version = self.store.record_version(mig.job.record);
        self.wal_append(WalRecord::Redo {
            txn,
            writes: vec![RedoWrite {
                record: mig.job.record,
                version,
                op: RedoOp::Insert(row.clone()),
            }],
        });
        // The record is ours again: a future miss on it would be a genuine
        // existence fault, not a stale-routing race.
        self.migrated_out.remove(&mig.job.record);
        let partition = self.store.partition;
        let replicas = self.replica_nodes(partition);
        mig.pending = replicas.len();
        if mig.pending == 0 {
            self.flip_and_finish(ctx, txn, mig);
            return;
        }
        mig.phase = MigPhase::Replicas;
        for replica in replicas {
            ctx.send(
                replica,
                Verb::Rpc,
                Msg::Replicate {
                    txn,
                    partition,
                    writes: vec![WriteItem {
                        record: mig.job.record,
                        kind: WriteKind::Insert(row.clone()),
                    }],
                    ack_coordinator: true,
                },
            );
        }
        self.migrations.insert(txn, mig);
    }

    /// Step 4 + 5 kickoff: re-publish the record at this partition (the
    /// single-instant directory flip), release the local bucket, and tell
    /// the source to retire its copy.
    fn flip_and_finish(&mut self, ctx: &mut Ctx<'_, Msg>, txn: TxnId, mut mig: Migration) {
        let dir = self
            .hot
            .directory()
            .expect("migrations only run with the adaptive directory")
            .clone();
        dir.relocate(mig.job.record, self.store.partition, mig.job.hot_after);
        self.store.unlock(mig.job.record, txn, ctx.now());
        // Hand-off barrier: the destination's copy (logged at install) must
        // be on disk before the source is told to delete its own — after
        // this flush, a crash of either side leaves at least one durable
        // copy recoverable.
        self.wal_flush();
        ctx.send(
            NodeId(mig.job.from.0),
            Verb::OneSided,
            Msg::MigrateFinish {
                txn,
                record: mig.job.record,
            },
        );
        mig.phase = MigPhase::Finish;
        mig.pending = 1;
        self.migrations.insert(txn, mig);
    }

    // ---- participant (source) side ---------------------------------------

    /// Step 2 at the source: CAS-lock the record's bucket NO_WAIT and
    /// return the row. A conflict is reported like any lock conflict; a
    /// missing record means the plan went stale (the record already moved)
    /// and the destination abandons.
    pub(crate) fn handle_migrate_lock(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        src: NodeId,
        txn: TxnId,
        record: RecordId,
    ) {
        let now = ctx.now();
        let resp = match self.store.try_lock(record, txn, LockMode::Exclusive, now) {
            Err(_) => Msg::MigrateLockResp {
                txn,
                granted: false,
                missing: false,
                row: None,
                version: 0,
            },
            Ok(()) => match self.store.read_opt(record).cloned() {
                Some(row) => Msg::MigrateLockResp {
                    txn,
                    granted: true,
                    missing: false,
                    row: Some(row),
                    version: self.store.record_version(record),
                },
                None => {
                    self.store.unlock(record, txn, now);
                    Msg::MigrateLockResp {
                        txn,
                        granted: false,
                        missing: true,
                        row: None,
                        version: 0,
                    }
                }
            },
        };
        ctx.send(src, Verb::OneSided, resp);
    }

    /// Step 5 at the source: the destination has re-published — delete the
    /// local copy, release the migration lock, replicate the deletion to
    /// this partition's replica group, and remember the departure.
    pub(crate) fn handle_migrate_finish(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        src: NodeId,
        txn: TxnId,
        record: RecordId,
    ) {
        debug_assert!(
            self.store.holds_lock(record, txn),
            "finish without the migration lock"
        );
        self.store
            .delete(record)
            .expect("migrated record present at the source until finish");
        // The departure is a versioned write like any other: log the
        // tombstone so replaying the source's log does not resurrect the
        // record the destination now owns.
        let version = self.store.record_version(record);
        self.wal_append(WalRecord::Redo {
            txn,
            writes: vec![RedoWrite {
                record,
                version,
                op: RedoOp::Delete,
            }],
        });
        self.store.unlock(record, txn, ctx.now());
        self.migrated_out.insert(record);
        let partition = self.store.partition;
        for replica in self.replica_nodes(partition) {
            ctx.send(
                replica,
                Verb::Rpc,
                Msg::Replicate {
                    txn,
                    partition,
                    writes: vec![WriteItem {
                        record,
                        kind: WriteKind::Delete,
                    }],
                    ack_coordinator: false,
                },
            );
        }
        ctx.send(src, Verb::OneSided, Msg::MigrateFinishAck { txn });
    }
}
