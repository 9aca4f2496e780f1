//! Participant-side (storage-owner) message handlers.
//!
//! These model what the *destination* of a verb does: lock-word CAS +
//! record READ for one-sided accesses (NIC-side, no engine CPU), inner
//! region execution and replica application for RPCs (engine CPU, charged
//! by the caller / simulator).

use crate::engine::EngineActor;
use crate::msg::{LockReadItem, Msg, OccReadItem, ValidateItem, WriteItem, WriteKind};
use chiller_common::ids::{NodeId, OpId, PartitionId, RecordId, TxnId};
use chiller_common::time::SimTime;
use chiller_common::value::Row;
use chiller_obs::{EventKind, HistoryEventKind};
use chiller_simnet::Ctx;
use chiller_storage::lock::LockMode;
use chiller_storage::wal::{RedoWrite, WalRecord};

impl EngineActor {
    /// Record a versioned read observation for the serializability checker
    /// (no-op unless checking is on; the version lookup is gated so the
    /// off path costs one branch).
    #[inline]
    pub(crate) fn observe_read(&mut self, txn: TxnId, record: RecordId, now: SimTime) {
        if self.recorder.enabled() {
            let version = self.store.record_version(record);
            self.recorder.record(
                now.as_nanos(),
                self.node,
                HistoryEventKind::ReadObs {
                    txn,
                    record,
                    version,
                },
            );
        }
    }

    /// Release a primary-store lock, folding the observed contention span
    /// into the hot/cold histograms (and, in full trace mode, emitting the
    /// lock-hold span).
    pub(crate) fn unlock_with_metrics(&mut self, rid: RecordId, txn: TxnId, now: SimTime) {
        if let Some(rel) = self.store.unlock(rid, txn, now) {
            if self.hot.contains(&rid) {
                self.metrics
                    .hot_contention_span
                    .record_duration(rel.held_for);
            } else {
                self.metrics
                    .cold_contention_span
                    .record_duration(rel.held_for);
            }
            if self.tracer.full() {
                self.tracer.record(
                    now.as_nanos(),
                    self.node,
                    EventKind::LockRelease {
                        txn,
                        record: rid,
                        held_ns: rel.held_for.as_nanos(),
                    },
                );
            }
        }
    }

    /// Trace a granted NO_WAIT lock (full mode only; participant side).
    pub(crate) fn trace_lock_acquire(&mut self, rid: RecordId, txn: TxnId, now: SimTime) {
        if self.tracer.full() {
            let hot = self.hot.contains(&rid);
            self.tracer.record(
                now.as_nanos(),
                self.node,
                EventKind::LockAcquire {
                    txn,
                    record: rid,
                    hot,
                },
            );
        }
    }

    /// Combined CAS-lock + READ (2PL / Chiller outer region). On any
    /// failure, everything granted *within this message* is released before
    /// replying, so the coordinator only tracks whole-message grants.
    pub(crate) fn handle_lock_read(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        src: NodeId,
        txn: TxnId,
        req: u64,
        items: Vec<LockReadItem>,
    ) {
        let now = ctx.now();
        // Items lock in order and the loop stops at the first failure, so
        // what was granted is always a prefix of `items`.
        let mut granted = 0;
        let mut rows: Vec<(OpId, Row)> = Vec::new();
        let mut conflict = None;
        let mut missing = None;
        let mut stale = false;
        for item in &items {
            match self.store.try_lock(item.record, txn, item.mode, now) {
                Ok(()) => {
                    granted += 1;
                    self.trace_lock_acquire(item.record, txn, now);
                }
                Err(_) => {
                    conflict = Some(item.record);
                    break;
                }
            }
            let exists = self.store.exists(item.record);
            if !exists && self.migrated_out.contains(&item.record) {
                // Stale-routing race: the record migrated away after the
                // coordinator resolved its placement. Answer as a
                // retryable conflict — the retry re-resolves through the
                // directory and lands at the new owner. This covers both
                // the read/update miss and the insert that would otherwise
                // succeed here and duplicate the record at its old home.
                conflict = Some(item.record);
                stale = true;
                break;
            }
            if exists == item.expect_absent {
                // Existence precondition failed (missing record, or insert
                // target already present): a non-retryable fault.
                missing = Some(item.record);
                break;
            }
            if item.want_row {
                rows.push((
                    item.op,
                    self.store
                        .read(item.record)
                        .expect("existence checked")
                        .clone(),
                ));
                self.observe_read(txn, item.record, now);
            }
        }
        let ok = conflict.is_none() && missing.is_none();
        if !ok {
            for item in &items[..granted] {
                self.unlock_with_metrics(item.record, txn, now);
            }
            rows.clear();
        }
        ctx.send(
            src,
            chiller_simnet::Verb::OneSided,
            Msg::LockReadResp {
                txn,
                req,
                granted: ok,
                conflict,
                missing,
                stale,
                rows,
            },
        );
    }

    /// Move a write item's row into the primary store, recording the
    /// installed per-record version when serializability checking is on.
    /// Returns that version for redo logging (0 when neither the recorder
    /// nor the WAL needs it — the lookup stays off the undecorated hot
    /// path).
    fn apply_write(&mut self, w: WriteItem, txn: TxnId, now: SimTime) -> u64 {
        let record = w.record;
        match w.kind {
            WriteKind::Put(row) => self.store.write(record, row),
            WriteKind::Insert(row) => {
                // Duplicates were excluded while the bucket lock was held.
                self.store
                    .insert(record, row)
                    .expect("insert validated under lock");
            }
            WriteKind::Delete => {
                self.store
                    .delete(record)
                    .expect("delete validated under lock");
            }
        }
        if !self.recorder.enabled() && self.wal.is_none() {
            return 0;
        }
        let version = self.store.record_version(record);
        if self.recorder.enabled() {
            self.recorder.record(
                now.as_nanos(),
                self.node,
                HistoryEventKind::WriteObs {
                    txn,
                    record,
                    version,
                },
            );
        }
        version
    }

    /// Apply a committed write-set to the primary store, moving each row
    /// in, and, on durable engines, append one redo record carrying the
    /// installed versions; that record holds the only copy of a row made
    /// here. The caller holds exclusive locks/latches on every record from
    /// read/validate through this apply, so per-partition log order equals
    /// apply order — the property replay relies on.
    pub(crate) fn apply_writes(&mut self, writes: Vec<WriteItem>, txn: TxnId, now: SimTime) {
        let mut redo = if self.wal.is_some() && !writes.is_empty() {
            Some(Vec::with_capacity(writes.len()))
        } else {
            None
        };
        for w in writes {
            let record = w.record;
            let op = redo.is_some().then(|| w.kind.to_redo_op());
            let version = self.apply_write(w, txn, now);
            if let (Some(redo), Some(op)) = (redo.as_mut(), op) {
                redo.push(RedoWrite {
                    record,
                    version,
                    op,
                });
            }
        }
        if let Some(writes) = redo {
            self.wal_append(WalRecord::Redo { txn, writes });
        }
    }

    /// WRITE-back + unlock at commit time (one-sided; prepare piggybacked).
    pub(crate) fn handle_commit_outer(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        src: NodeId,
        txn: TxnId,
        writes: Vec<WriteItem>,
        unlocks: Vec<RecordId>,
    ) {
        let now = ctx.now();
        self.apply_writes(writes, txn, now);
        for rid in unlocks {
            self.unlock_with_metrics(rid, txn, now);
        }
        ctx.send(
            src,
            chiller_simnet::Verb::OneSided,
            Msg::CommitOuterAck { txn },
        );
    }

    /// Release locks on the abort path (no ack needed: NO_WAIT retries are
    /// driven by a timer, not by the release completing).
    pub(crate) fn handle_abort_outer(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        txn: TxnId,
        unlocks: Vec<RecordId>,
    ) {
        let now = ctx.now();
        for rid in unlocks {
            self.unlock_with_metrics(rid, txn, now);
        }
    }

    /// Replica application (§5). Inner-region replication acks the
    /// *coordinator*, never the inner host — the inner host has already
    /// moved on (Figure 6).
    pub(crate) fn handle_replicate(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        txn: TxnId,
        partition: PartitionId,
        writes: Vec<WriteItem>,
        ack_coordinator: bool,
    ) {
        let cpu = chiller_common::time::Duration::from_nanos(
            self.config.engine.op_cpu_ns * writes.len().max(1) as u64 / 2,
        );
        ctx.use_cpu(cpu);
        let store = self
            .replicas
            .get_mut(&partition)
            .unwrap_or_else(|| panic!("node has no replica of {partition}"));
        for w in writes {
            match w.kind {
                WriteKind::Put(row) | WriteKind::Insert(row) => store.write(w.record, row),
                WriteKind::Delete => {
                    let _ = store.delete(w.record);
                }
            }
        }
        if ack_coordinator {
            ctx.send(
                txn.coordinator(),
                chiller_simnet::Verb::OneSided,
                Msg::ReplicateAck { txn },
            );
        }
    }

    // ---- OCC -------------------------------------------------------------

    /// Lock-free versioned read.
    pub(crate) fn handle_occ_read(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        src: NodeId,
        txn: TxnId,
        req: u64,
        items: Vec<OccReadItem>,
    ) {
        let now = ctx.now();
        let rows: Vec<_> = items
            .iter()
            .map(|it| {
                let row = if it.want_row {
                    self.store.read_opt(it.record).cloned()
                } else {
                    None
                };
                (it.op, row, self.store.version(it.record))
            })
            .collect();
        // Every OCC item's version is pinned by validation — write-set
        // entries included — so each one is a genuine versioned
        // observation whether or not the row came back.
        for it in &items {
            self.observe_read(txn, it.record, now);
        }
        ctx.send(
            src,
            chiller_simnet::Verb::OneSided,
            Msg::OccReadResp { txn, req, rows },
        );
    }

    /// Validation: latch the write set (NO_WAIT), then check that every
    /// observed version is still current. On failure, latches taken by
    /// *this message* are dropped before replying.
    pub(crate) fn handle_occ_validate(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        src: NodeId,
        txn: TxnId,
        items: Vec<ValidateItem>,
    ) {
        let now = ctx.now();
        let mut latched: Vec<RecordId> = Vec::new();
        let mut conflict = None;
        for it in &items {
            if it.is_write {
                match self
                    .store
                    .try_lock(it.record, txn, LockMode::Exclusive, now)
                {
                    Ok(()) => {
                        latched.push(it.record);
                        self.trace_lock_acquire(it.record, txn, now);
                    }
                    Err(_) => {
                        conflict = Some(it.record);
                        break;
                    }
                }
            }
            if self.store.version(it.record) != it.version {
                conflict = Some(it.record);
                break;
            }
        }
        let ok = conflict.is_none();
        if !ok {
            for rid in latched {
                self.unlock_with_metrics(rid, txn, now);
            }
        }
        // Latches persist on success until OccDecide arrives.
        ctx.send(
            src,
            chiller_simnet::Verb::OneSided,
            Msg::OccValidateResp { txn, ok, conflict },
        );
    }

    /// Decide phase: apply + release on commit, release on abort.
    pub(crate) fn handle_occ_decide(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        src: NodeId,
        txn: TxnId,
        commit: bool,
        writes: Vec<WriteItem>,
        latched: Vec<RecordId>,
    ) {
        let now = ctx.now();
        if commit {
            self.apply_writes(writes, txn, now);
        }
        for rid in latched {
            self.unlock_with_metrics(rid, txn, now);
        }
        ctx.send(
            src,
            chiller_simnet::Verb::OneSided,
            Msg::OccDecideAck { txn },
        );
    }
}

impl EngineActor {
    /// Inner-region execution at the inner host (§3.3 step 4): acquire
    /// local locks NO_WAIT, execute the inner ops start-to-finish with no
    /// network stall, evaluate the inner-site guards, and unilaterally
    /// commit — then fire-and-forget replicate (§5) and report back.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn handle_exec_inner(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        src: NodeId,
        txn: TxnId,
        proc_idx: usize,
        params: Vec<chiller_common::value::Value>,
        outer_outputs: Vec<(OpId, Row)>,
        inner_ops: Vec<OpId>,
        inner_guards: Vec<usize>,
    ) {
        use chiller_sproc::op::OpKind;
        let proc = self.registry.get(proc_idx).clone();
        let mut exec = chiller_sproc::ExecState::new(params, proc.num_ops());
        for (op, row) in outer_outputs {
            exec.set_output(op, row);
        }
        ctx.use_cpu(chiller_common::time::Duration::from_nanos(
            self.config.engine.op_cpu_ns * inner_ops.len() as u64,
        ));

        let mut locked: Vec<RecordId> = Vec::new();
        let mut fail: Option<bool> = None; // Some(retryable)
        let mut stale = false;
        let mut writes: Vec<WriteItem> = Vec::new();
        let mut produced: Vec<OpId> = Vec::new();

        // Lock, read and *compute* every inner op in dependency order —
        // later inner keys may derive from earlier inner outputs (e.g. the
        // seat id from the flight read, the customer id from the order
        // row), so outputs must materialize as we go. Writes are buffered
        // and applied only after all locks and guards succeed.
        let now = ctx.now();
        for &id in &inner_ops {
            let op = proc.op(id);
            let key = op
                .key
                .resolve(&exec)
                .expect("dependency graph guarantees inner keys resolve at the host");
            let rid = RecordId::new(op.table, key);
            debug_assert_eq!(
                NodeId(self.store.partition.0),
                self.node,
                "inner host must own its partition"
            );
            let mode = crate::coordinator::lock_mode_for(op);
            if self.store.try_lock(rid, txn, mode, now).is_err() {
                fail = Some(true);
                break;
            }
            locked.push(rid);
            self.trace_lock_acquire(rid, txn, now);
            let exists = self.store.exists(rid);
            let expect_absent = matches!(op.kind, OpKind::Insert(_));
            if !exists && self.migrated_out.contains(&rid) {
                // Stale split: admission chose this inner host before the
                // record's flip. Retry (the next attempt re-resolves
                // through the directory) — for reads/updates a miss here
                // is not a fault, and an insert must not land at the old
                // home and duplicate the record.
                fail = Some(true);
                stale = true;
                break;
            }
            if exists == expect_absent {
                fail = Some(false); // existence fault: final
                break;
            }
            match &op.kind {
                OpKind::Read { .. } => {
                    let row = self.store.read(rid).expect("existence checked").clone();
                    self.observe_read(txn, rid, now);
                    exec.set_output(id, row);
                    produced.push(id);
                }
                OpKind::Update(apply) => {
                    self.observe_read(txn, rid, now);
                    let new = apply(self.store.read(rid).expect("existence checked"), &exec);
                    exec.set_output(id, new.clone());
                    produced.push(id);
                    writes.push(WriteItem {
                        record: rid,
                        kind: WriteKind::Put(new),
                    });
                }
                OpKind::Insert(build) => {
                    let row = build(&exec);
                    writes.push(WriteItem {
                        record: rid,
                        kind: WriteKind::Insert(row),
                    });
                }
                OpKind::Delete => {
                    writes.push(WriteItem {
                        record: rid,
                        kind: WriteKind::Delete,
                    });
                }
            }
        }

        // Inner-site guards fold into the unilateral commit decision.
        if fail.is_none() {
            for gi in inner_guards {
                let guard = &proc.guards[gi];
                debug_assert!(
                    guard.deps.iter().all(|d| exec.output(*d).is_some()),
                    "inner guard deps must be available at the host"
                );
                if (guard.check)(&exec).is_err() {
                    fail = Some(false);
                    break;
                }
            }
        }

        let now = ctx.now();
        match fail {
            Some(retryable) => {
                for rid in locked {
                    self.unlock_with_metrics(rid, txn, now);
                }
                ctx.send(
                    src,
                    chiller_simnet::Verb::OneSided,
                    Msg::InnerResult {
                        txn,
                        committed: false,
                        outputs: Vec::new(),
                        retryable,
                        stale,
                    },
                );
            }
            None => {
                // Unilateral commit: apply, release (this is the shortened
                // contention span), replicate fire-and-forget, reply.
                // On durable engines the redo and the InnerCommit marker
                // are appended back-to-back, so one flush makes the §3.3
                // decision and its effects durable together: recovery
                // never finds the marker without the writes it covers.
                // The store takes the write-set itself. The replicas get
                // one copy, made before the apply: the last replica takes
                // it, and any other replica gets a clone of it.
                let partition = self.store.partition;
                let mut replicas = self.replica_nodes(partition).peekable();
                let mut copy = if writes.is_empty() || replicas.peek().is_none() {
                    Vec::new()
                } else {
                    writes.clone()
                };
                self.apply_writes(writes, txn, now);
                self.wal_append(WalRecord::InnerCommit { txn });
                for rid in locked {
                    self.unlock_with_metrics(rid, txn, now);
                }
                if !copy.is_empty() {
                    while let Some(replica) = replicas.next() {
                        let writes = if replicas.peek().is_some() {
                            copy.clone()
                        } else {
                            std::mem::take(&mut copy)
                        };
                        ctx.send(
                            replica,
                            chiller_simnet::Verb::Rpc,
                            Msg::Replicate {
                                txn,
                                partition,
                                writes,
                                ack_coordinator: true,
                            },
                        );
                    }
                }
                let outputs: Vec<(OpId, Row)> = produced
                    .iter()
                    .filter_map(|&id| exec.take_output(id).map(|r| (id, r)))
                    .collect();
                ctx.send(
                    src,
                    chiller_simnet::Verb::OneSided,
                    Msg::InnerResult {
                        txn,
                        committed: true,
                        outputs,
                        retryable: false,
                        stale: false,
                    },
                );
            }
        }
    }
}
