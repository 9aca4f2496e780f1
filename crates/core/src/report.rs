//! Run reports: the numbers the paper's figures plot.

use chiller_cc::engine::EngineReport;
use chiller_common::metrics::MetricSet;
use chiller_common::time::Duration;
use chiller_obs::RuntimeTelemetry;
use chiller_simnet::{Backend, NetStats};
use std::fmt::Write as _;

/// Aggregated outcome of a measured window.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Which execution backend produced this report (drives how
    /// `elapsed` should be read: virtual vs wall time).
    pub backend: Backend,
    /// Time measured: virtual nanoseconds on the simulated backend,
    /// wall-clock nanoseconds on the others.
    pub elapsed: Duration,
    /// Host wall-clock time the measured window took. On the wall-clock
    /// backends this tracks `elapsed`; on the simulator it is the host
    /// time spent computing the virtual window.
    pub wall_elapsed: std::time::Duration,
    /// OS worker threads that drove the run: 0 on the simulator, one per
    /// engine on the threaded backend, the pool size on the async
    /// backend. Distinguishes a 1000-engine run on 1000 threads from the
    /// same run multiplexed onto 4.
    pub workers: usize,
    /// Runtime scheduler telemetry merged across workers/engines (empty
    /// defaults on the simulator — it has no scheduler).
    pub telemetry: RuntimeTelemetry,
    /// Merged metrics across engines.
    pub metrics: MetricSet,
    /// Network counters for the whole run (including warm-up).
    pub net: NetStats,
    /// Per-node breakdowns.
    pub per_node: Vec<EngineReport>,
}

impl RunReport {
    pub(crate) fn collect(
        backend: Backend,
        elapsed: Duration,
        wall_elapsed: std::time::Duration,
        workers: usize,
        telemetry: RuntimeTelemetry,
        net: NetStats,
        per_node: Vec<EngineReport>,
    ) -> RunReport {
        let mut metrics = MetricSet::new();
        for r in &per_node {
            metrics.merge(&r.metrics);
        }
        RunReport {
            backend,
            elapsed,
            wall_elapsed,
            workers,
            telemetry,
            metrics,
            net,
            per_node,
        }
    }

    pub fn total_commits(&self) -> u64 {
        self.metrics.total_commits()
    }

    pub fn total_aborts(&self) -> u64 {
        self.metrics.total_aborts()
    }

    /// Committed transactions per second of measured time (virtual on the
    /// simulator, wall on the others).
    pub fn throughput(&self) -> f64 {
        let secs = self.elapsed.as_nanos() as f64 / 1e9;
        if secs == 0.0 {
            0.0
        } else {
            self.total_commits() as f64 / secs
        }
    }

    /// Committed transactions per second of *host wall-clock* time — what
    /// the machine actually sustained. On the wall-clock backends this is
    /// the headline number; on the simulator it only measures simulation speed.
    pub fn wall_throughput(&self) -> f64 {
        let secs = self.wall_elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.total_commits() as f64 / secs
        }
    }

    /// The paper's abort-rate metric: aborts / (aborts + commits).
    pub fn abort_rate(&self) -> f64 {
        self.metrics.overall_abort_rate()
    }

    /// Abort rate of one transaction type (Figure 9c).
    pub fn abort_rate_of(&self, name: &str) -> f64 {
        self.metrics
            .per_type
            .get(name)
            .map(|s| s.abort_rate())
            .unwrap_or(0.0)
    }

    /// Fraction of committed transactions spanning >1 partition (Figure 8).
    pub fn distributed_ratio(&self) -> f64 {
        self.metrics.overall_distributed_ratio()
    }

    /// Live record migrations completed during the window (adaptive runs).
    pub fn migrations_completed(&self) -> u64 {
        self.metrics.migrations_completed
    }

    /// Migration attempts that hit a NO_WAIT conflict and backed off.
    pub fn migration_retries(&self) -> u64 {
        self.metrics.migration_retries
    }

    /// Migrations abandoned (stale plan, retry budget, or drain).
    pub fn migrations_abandoned(&self) -> u64 {
        self.metrics.migrations_abandoned
    }

    /// Mean committed-transaction latency in microseconds.
    pub fn mean_latency_us(&self) -> f64 {
        self.metrics.latency.mean() / 1_000.0
    }

    pub fn p99_latency_us(&self) -> f64 {
        self.metrics.latency.p99() as f64 / 1_000.0
    }

    /// Observability events lost: `(trace, history)` drops. Trace events
    /// drop past the per-engine `CHILLER_TRACE_BUF` cap; the history is
    /// recorded uncapped, so its half is always 0 (kept for callers that
    /// destructure the pair).
    pub fn events_dropped(&self) -> (u64, u64) {
        (self.telemetry.trace_events_dropped, 0)
    }

    /// One-line human summary, self-describing about what ran: backend
    /// and worker count lead the line so two summaries are never
    /// compared across silently different configurations. When trace
    /// events were dropped, the line ends with a DEGRADED marker — an
    /// incomplete trace must be visible here, not only in the raw report.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "[{} backend, {} workers] {:.0} txn/s, abort rate {:.3}, distributed {:.2}, mean latency {:.1}us (p99 {:.1}us), commits {}",
            self.backend.label(),
            self.workers,
            self.throughput(),
            self.abort_rate(),
            self.distributed_ratio(),
            self.mean_latency_us(),
            self.p99_latency_us(),
            self.total_commits(),
        );
        let trace_drops = self.telemetry.trace_events_dropped;
        if trace_drops > 0 {
            let _ = write!(
                s,
                ", DEGRADED: {trace_drops} trace events dropped \
                 (trace incomplete; raise CHILLER_TRACE_BUF)"
            );
        }
        s
    }

    /// Prometheus-style plain-text dump of the run's counters: commit and
    /// abort totals, aborts broken down by structured reason, the runtime
    /// scheduler telemetry, and timer-wheel slop quantiles. One metric per
    /// line (`# TYPE` comments included), suitable for diffing across runs
    /// or scraping out of CI logs.
    pub fn prometheus(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# TYPE chiller_run_info gauge\n\
             chiller_run_info{{backend=\"{}\",workers=\"{}\"}} 1",
            self.backend.label(),
            self.workers,
        );
        let _ = writeln!(
            out,
            "# TYPE chiller_commits_total counter\nchiller_commits_total {}",
            self.total_commits()
        );
        let _ = writeln!(
            out,
            "# TYPE chiller_aborts_total counter\nchiller_aborts_total {}",
            self.total_aborts()
        );
        let _ = writeln!(out, "# TYPE chiller_aborts_by_reason_total counter");
        for (reason, n) in self.metrics.abort_reasons.iter() {
            let _ = writeln!(
                out,
                "chiller_aborts_by_reason_total{{reason=\"{}\"}} {n}",
                reason.label()
            );
        }
        let _ = writeln!(
            out,
            "# TYPE chiller_latency_us summary\n\
             chiller_latency_us{{quantile=\"0.5\"}} {:.3}\n\
             chiller_latency_us{{quantile=\"0.99\"}} {:.3}\n\
             chiller_latency_us_count {}",
            self.metrics.latency.p50() as f64 / 1_000.0,
            self.p99_latency_us(),
            self.metrics.latency.count(),
        );
        for (name, v) in self.telemetry.counters() {
            let _ = writeln!(
                out,
                "# TYPE chiller_runtime_{name} counter\nchiller_runtime_{name} {v}"
            );
        }
        let slop = &self.telemetry.timer_slop;
        let _ = writeln!(
            out,
            "# TYPE chiller_runtime_timer_slop_ns summary\n\
             chiller_runtime_timer_slop_ns{{quantile=\"0.5\"}} {}\n\
             chiller_runtime_timer_slop_ns{{quantile=\"0.99\"}} {}\n\
             chiller_runtime_timer_slop_ns_count {}",
            slop.p50(),
            slop.p99(),
            slop.count(),
        );
        let _ = writeln!(
            out,
            "# TYPE chiller_runtime_trace_events_dropped counter\n\
             chiller_runtime_trace_events_dropped {}",
            self.telemetry.trace_events_dropped
        );
        // Single alertable flag: 1 when the trace timeline of this run is
        // incomplete.
        let _ = writeln!(
            out,
            "# TYPE chiller_observability_degraded gauge\n\
             chiller_observability_degraded {}",
            u8::from(self.telemetry.trace_events_dropped > 0)
        );
        out
    }
}
