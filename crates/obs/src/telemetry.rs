//! Always-on runtime scheduler counters.

use chiller_common::metrics::Histogram;

/// Counters for the runtime internals the backends were previously debugged
/// blind on. Cheap by construction: each backend keeps one instance per
/// worker/engine as plain (non-atomic) fields bumped at most once per batch,
/// and the `Runtime::telemetry()` accessor merges them on read. The
/// simulated backend reports an empty default — it has no scheduler.
#[derive(Debug, Clone, Default)]
pub struct RuntimeTelemetry {
    /// Worker-loop iterations that handled at least one message/timer.
    pub batches_drained: u64,
    /// Remote-send flushes that stopped at a full destination mailbox
    /// (the global-FIFO parked queue grew instead of blocking).
    pub flush_stalls: u64,
    /// High-water mark of the parked remote-send queue depth.
    pub parked_depth_hwm: u64,
    /// High-water mark of inbox ring occupancy observed before drains.
    pub ring_occupancy_hwm: u64,
    /// Times a worker actually parked (slept) waiting for work.
    pub parks: u64,
    /// Parked workers actually woken by a sender/notifier.
    pub unparks: u64,
    /// Pre-park rechecks that found work or quiescence after publishing the
    /// sleep flag — each one is a lost wakeup the handshake prevented.
    pub lost_wakeups_avoided: u64,
    /// Worker turns that made zero progress (pure flush-stall retry;
    /// each forces a `yield_now` — see DESIGN §12).
    pub zero_progress_turns: u64,
    /// Tasks pushed to a worker's deque (worker pool).
    pub tasks_pushed: u64,
    /// Tasks pushed through the shared injector (worker pool).
    pub tasks_injected: u64,
    /// Tasks popped for execution (worker pool).
    pub tasks_popped: u64,
    /// Tasks moved between workers by stealing (worker pool).
    pub tasks_stolen: u64,
    /// Engine notifications that enqueued a task (IDLE→QUEUED transitions;
    /// notifications during RUNNING convert to DIRTY and are not counted).
    pub notifies: u64,
    /// Timer-wheel slop: actual fire time minus due time, ns, per fired
    /// timer. Empty on the simulator (virtual timers are exact).
    pub timer_slop: Histogram,
    /// Trace events lost to full per-engine trace logs (0 unless tracing
    /// is on and `CHILLER_TRACE_BUF` is undersized).
    pub trace_events_dropped: u64,
    /// WAL records appended (durable runs only).
    pub wal_records_appended: u64,
    /// WAL bytes appended, framing included (durable runs only).
    pub wal_bytes_appended: u64,
    /// WAL buffered-write flushes that reached the file.
    pub wal_flushes: u64,
    /// WAL group-commit points: fsyncs requested of the logs' syncer
    /// threads. The amortization headline: commit marks per group-commit
    /// point = commits / `wal_fsyncs`.
    pub wal_fsyncs: u64,
}

impl RuntimeTelemetry {
    /// Fold another instance in: counters add, high-water marks take the
    /// max, histograms merge.
    pub fn merge(&mut self, other: &RuntimeTelemetry) {
        self.batches_drained += other.batches_drained;
        self.flush_stalls += other.flush_stalls;
        self.parked_depth_hwm = self.parked_depth_hwm.max(other.parked_depth_hwm);
        self.ring_occupancy_hwm = self.ring_occupancy_hwm.max(other.ring_occupancy_hwm);
        self.parks += other.parks;
        self.unparks += other.unparks;
        self.lost_wakeups_avoided += other.lost_wakeups_avoided;
        self.zero_progress_turns += other.zero_progress_turns;
        self.tasks_pushed += other.tasks_pushed;
        self.tasks_injected += other.tasks_injected;
        self.tasks_popped += other.tasks_popped;
        self.tasks_stolen += other.tasks_stolen;
        self.notifies += other.notifies;
        self.timer_slop.merge(&other.timer_slop);
        self.trace_events_dropped += other.trace_events_dropped;
        self.wal_records_appended += other.wal_records_appended;
        self.wal_bytes_appended += other.wal_bytes_appended;
        self.wal_flushes += other.wal_flushes;
        self.wal_fsyncs += other.wal_fsyncs;
    }

    /// `(name, value)` pairs for every plain counter/gauge, in render order.
    /// Names are Prometheus-style suffix-less stems; the report layer adds
    /// the `chiller_runtime_` prefix. The timer-slop histogram is rendered
    /// separately as quantile gauges.
    pub fn counters(&self) -> [(&'static str, u64); 17] {
        [
            ("batches_drained", self.batches_drained),
            ("flush_stalls", self.flush_stalls),
            ("parked_depth_hwm", self.parked_depth_hwm),
            ("ring_occupancy_hwm", self.ring_occupancy_hwm),
            ("parks", self.parks),
            ("unparks", self.unparks),
            ("lost_wakeups_avoided", self.lost_wakeups_avoided),
            ("zero_progress_turns", self.zero_progress_turns),
            ("tasks_pushed", self.tasks_pushed),
            ("tasks_injected", self.tasks_injected),
            ("tasks_popped", self.tasks_popped),
            ("tasks_stolen", self.tasks_stolen),
            ("notifies", self.notifies),
            ("wal_records_appended", self.wal_records_appended),
            ("wal_bytes_appended", self.wal_bytes_appended),
            ("wal_flushes", self.wal_flushes),
            ("wal_fsyncs", self.wal_fsyncs),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_counters_and_maxes_hwms() {
        let mut a = RuntimeTelemetry {
            batches_drained: 3,
            parked_depth_hwm: 7,
            ring_occupancy_hwm: 2,
            parks: 1,
            ..Default::default()
        };
        let mut b = RuntimeTelemetry {
            batches_drained: 4,
            parked_depth_hwm: 5,
            ring_occupancy_hwm: 9,
            unparks: 2,
            ..Default::default()
        };
        b.timer_slop.record(1_000);
        a.merge(&b);
        assert_eq!(a.batches_drained, 7);
        assert_eq!(a.parked_depth_hwm, 7);
        assert_eq!(a.ring_occupancy_hwm, 9);
        assert_eq!(a.parks, 1);
        assert_eq!(a.unparks, 2);
        assert_eq!(a.timer_slop.count(), 1);
    }

    #[test]
    fn counters_cover_every_scalar_field() {
        let t = RuntimeTelemetry {
            batches_drained: 1,
            flush_stalls: 2,
            parked_depth_hwm: 3,
            ring_occupancy_hwm: 4,
            parks: 5,
            unparks: 6,
            lost_wakeups_avoided: 7,
            zero_progress_turns: 8,
            tasks_pushed: 9,
            tasks_injected: 10,
            tasks_popped: 11,
            tasks_stolen: 12,
            notifies: 13,
            timer_slop: Histogram::new(),
            // The drop counter is rendered separately (as a degradation
            // flag on the summary line), so it sits outside counters().
            trace_events_dropped: 100,
            wal_records_appended: 14,
            wal_bytes_appended: 15,
            wal_flushes: 16,
            wal_fsyncs: 17,
        };
        let names: Vec<&str> = t.counters().iter().map(|(n, _)| *n).collect();
        assert_eq!(names.len(), 17);
        let vals: Vec<u64> = t.counters().iter().map(|(_, v)| *v).collect();
        assert_eq!(vals, (1..=17).collect::<Vec<u64>>());
    }
}
