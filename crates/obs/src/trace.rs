//! Trace mode, event model, and the per-engine event log.

use chiller_common::metrics::AbortReason;
use chiller_common::{NodeId, RecordId, TxnId};

/// Default per-engine trace log cap (events buffered between drains).
/// The cluster builder overrides it from `CHILLER_TRACE_BUF`. Overflow
/// never blocks the engine: excess events are counted as dropped and
/// reported on the [`TraceLog`].
pub const DEFAULT_TRACE_BUF: usize = 1 << 16;

/// Whether the transaction lifecycle is recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMode {
    /// No tracing: nothing is buffered, record calls are a single branch.
    Off,
    /// Everything for every transaction: lifecycle, per-record lock
    /// acquire/release spans, and remote send/recv hops.
    Full,
}

impl TraceMode {
    /// Whether any events are recorded at all.
    pub fn enabled(self) -> bool {
        !matches!(self, TraceMode::Off)
    }

    /// Short label for reports and bench JSON.
    pub fn label(self) -> &'static str {
        match self {
            TraceMode::Off => "off",
            TraceMode::Full => "full",
        }
    }
}

/// One lifecycle event. `ts` is nanoseconds on the owning runtime's clock
/// (virtual time on the simulator, monotonic wall time otherwise); `node` is
/// the engine that observed the event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Clock timestamp in nanoseconds (sim-time or wall-time).
    pub ts: u64,
    /// Engine that recorded the event.
    pub node: NodeId,
    /// What happened.
    pub kind: EventKind,
}

/// The event taxonomy, all recorded under [`TraceMode::Full`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A transaction attempt started on its coordinator.
    TxnBegin {
        /// Transaction id.
        txn: TxnId,
        /// Registered procedure index (join with the proc registry to name).
        proc: u32,
        /// 1-based attempt number (1 = first execution, 2+ = retries).
        attempt: u32,
    },
    /// A transient abort scheduled a retry after backoff.
    TxnRetry {
        /// Transaction id.
        txn: TxnId,
        /// Attempt number that just failed.
        attempt: u32,
        /// Backoff delay before the next attempt, ns.
        backoff_ns: u64,
    },
    /// The attempt committed.
    TxnCommit {
        /// Transaction id.
        txn: TxnId,
        /// First-begin → commit latency, ns (spans retries).
        latency_ns: u64,
        /// Whether execution touched more than one partition.
        distributed: bool,
    },
    /// The attempt aborted.
    TxnAbort {
        /// Transaction id.
        txn: TxnId,
        /// Attempt number that aborted.
        attempt: u32,
        /// Transient abort reason; `None` for final logic aborts
        /// (intentional rollbacks).
        reason: Option<AbortReason>,
    },
    /// A NO_WAIT lock was granted on this participant.
    LockAcquire {
        /// Holding transaction.
        txn: TxnId,
        /// Locked record.
        record: RecordId,
        /// Whether the record is in the hot (inner-region) set.
        hot: bool,
    },
    /// A lock was released; `held_ns` is the contention span.
    LockRelease {
        /// Holding transaction.
        txn: TxnId,
        /// Unlocked record.
        record: RecordId,
        /// Lock hold time, ns.
        held_ns: u64,
    },
    /// The coordinator sent a protocol message for this transaction.
    SendHop {
        /// Transaction the message belongs to.
        txn: TxnId,
        /// Destination node.
        dst: NodeId,
        /// Message kind label (e.g. `lock_read`).
        label: &'static str,
    },
    /// An engine received a remote protocol message for this transaction.
    RecvHop {
        /// Transaction the message belongs to.
        txn: TxnId,
        /// Source node.
        src: NodeId,
        /// Message kind label.
        label: &'static str,
    },
}

impl EventKind {
    /// The transaction this event belongs to.
    pub fn txn(&self) -> TxnId {
        match *self {
            EventKind::TxnBegin { txn, .. }
            | EventKind::TxnRetry { txn, .. }
            | EventKind::TxnCommit { txn, .. }
            | EventKind::TxnAbort { txn, .. }
            | EventKind::LockAcquire { txn, .. }
            | EventKind::LockRelease { txn, .. }
            | EventKind::SendHop { txn, .. }
            | EventKind::RecvHop { txn, .. } => txn,
        }
    }

    /// Stable snake_case tag used by both exporters.
    pub fn tag(&self) -> &'static str {
        match self {
            EventKind::TxnBegin { .. } => "txn_begin",
            EventKind::TxnRetry { .. } => "txn_retry",
            EventKind::TxnCommit { .. } => "txn_commit",
            EventKind::TxnAbort { .. } => "txn_abort",
            EventKind::LockAcquire { .. } => "lock_acquire",
            EventKind::LockRelease { .. } => "lock_release",
            EventKind::SendHop { .. } => "send_hop",
            EventKind::RecvHop { .. } => "recv_hop",
        }
    }
}

/// Per-engine event log. Owned by the engine actor, so it moves with the
/// actor between phases and threads; the cluster drains it into a
/// [`TraceLog`] while the runtime is paused, when it has every engine to
/// itself. Recording never blocks: past `cap` events buffered since the
/// last drain, an event is counted as dropped instead.
#[derive(Debug)]
pub struct Tracer {
    mode: TraceMode,
    events: Vec<TraceEvent>,
    cap: usize,
    dropped: u64,
}

impl Tracer {
    /// A tracer buffering at most `cap` events between drains. Under
    /// `TraceMode::Off` it buffers nothing, whatever the cap, and every
    /// record call is a branch on the mode.
    pub fn new(mode: TraceMode, cap: usize) -> Tracer {
        Tracer {
            mode,
            events: Vec::new(),
            cap: if mode.enabled() { cap } else { 0 },
            dropped: 0,
        }
    }

    /// Whether any recording is active.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.mode.enabled()
    }

    /// Buffer one event; never blocks. Past the cap the event is dropped
    /// and counted.
    #[inline]
    pub fn record(&mut self, ts: u64, node: NodeId, kind: EventKind) {
        if self.events.len() < self.cap {
            self.events.push(TraceEvent { ts, node, kind });
        } else if self.enabled() {
            self.dropped += 1;
        }
    }

    /// Move every buffered event into `log` and fold in the drops counted
    /// since the last drain. The buffer keeps its capacity.
    pub fn drain_into(&mut self, log: &mut TraceLog) {
        log.events.append(&mut self.events);
        log.dropped += std::mem::take(&mut self.dropped);
    }
}

/// All drained events of a run, in per-engine push order (drain order across
/// engines is by node id; exporters sort by timestamp where formats need it).
#[derive(Debug, Default)]
pub struct TraceLog {
    /// Drained events.
    pub events: Vec<TraceEvent>,
    /// Events lost to full per-engine logs (raise `CHILLER_TRACE_BUF` if
    /// nonzero).
    pub dropped: u64,
}

impl TraceLog {
    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiller_common::TableId;

    fn txn(node: u32, seq: u64) -> TxnId {
        TxnId::new(NodeId(node), seq)
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut t = Tracer::new(TraceMode::Off, 8);
        assert!(!t.enabled());
        // Must be a no-op, not a panic, and not a drop either.
        t.record(
            1,
            NodeId(0),
            EventKind::TxnBegin {
                txn: txn(0, 1),
                proc: 0,
                attempt: 1,
            },
        );
        let mut log = TraceLog::default();
        t.drain_into(&mut log);
        assert_eq!((log.len(), log.dropped), (0, 0));
    }

    #[test]
    fn tracer_roundtrips_events() {
        let mut t = Tracer::new(TraceMode::Full, 8);
        assert!(t.enabled());
        t.record(
            10,
            NodeId(1),
            EventKind::TxnBegin {
                txn: txn(1, 3),
                proc: 2,
                attempt: 1,
            },
        );
        t.record(
            20,
            NodeId(1),
            EventKind::TxnCommit {
                txn: txn(1, 3),
                latency_ns: 10,
                distributed: false,
            },
        );
        let mut log = TraceLog::default();
        t.drain_into(&mut log);
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped, 0);
        assert_eq!(log.events[0].ts, 10);
        assert_eq!(log.events[1].kind.tag(), "txn_commit");
        assert_eq!(log.events[1].kind.txn(), txn(1, 3));
    }

    #[test]
    fn full_log_counts_drops_instead_of_growing() {
        let mut t = Tracer::new(TraceMode::Full, 2);
        let lock = |t: &mut Tracer, i: u64| {
            t.record(
                i,
                NodeId(0),
                EventKind::LockAcquire {
                    txn: txn(0, 1),
                    record: RecordId {
                        table: TableId(0),
                        key: i,
                    },
                    hot: false,
                },
            )
        };
        for i in 0..5u64 {
            lock(&mut t, i);
        }
        let mut log = TraceLog::default();
        t.drain_into(&mut log);
        assert_eq!(log.len(), 2, "the cap bounds what is buffered");
        assert_eq!(log.dropped, 3, "everything past the cap is counted");
        assert_eq!(log.events[1].ts, 1, "the first events are kept");
        // A drain empties the log and resets the count: the cap is per
        // drain interval, not per run.
        lock(&mut t, 5);
        t.drain_into(&mut log);
        assert_eq!((log.len(), log.dropped), (3, 3));
    }
}
