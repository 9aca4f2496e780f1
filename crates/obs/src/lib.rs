//! # chiller-obs
//!
//! Transaction-lifecycle tracing + runtime telemetry for the Chiller
//! reproduction (DESIGN.md §13).
//!
//! Two independent facilities share this crate:
//!
//! * **Lifecycle tracing** ([`Tracer`] / [`TraceLog`]): per-transaction spans
//!   (begin, lock acquire/release, remote hops, abort with a structured
//!   reason, retry, commit) pushed into a per-engine lock-free SPSC ring
//!   (the `ringq` shim) and drained by the control plane at quiescence.
//!   Timestamps come from the owning runtime's `Clock`, so the simulated
//!   backend traces in virtual time and stays byte-deterministic. Gated by
//!   [`TraceMode`] (`CHILLER_TRACE` / `ClusterBuilder::trace`): when off, the
//!   tracer is a `None` producer and every record call is a branch on a
//!   local field — nothing is allocated and no ring exists.
//! * **History recording** ([`HistoryRecorder`] / [`History`]): versioned
//!   read/write observations plus commits, pushed through the same SPSC
//!   ring discipline and drained into the input of the black-box
//!   serializability checker (`chiller-checker`, DESIGN.md §14). Gated by
//!   `CHILLER_CHECK` / `ClusterBuilder::check`: when off, no ring exists
//!   and every record call is one branch.
//! * **Runtime telemetry** ([`RuntimeTelemetry`]): always-on counters for the
//!   scheduler internals the wall-clock worker pool was previously
//!   debugged blind on — batches drained, flush stalls, parked-queue depth
//!   high-water, park/unpark and lost-wakeup-avoided counts, task-queue
//!   steal/inject counts, ring occupancy high-water, and a timer-wheel slop
//!   histogram. Counters are plain per-thread fields merged on read, not
//!   shared atomics, so the hot paths pay one increment per *batch*.
//!
//! Exporters: [`TraceLog::to_jsonl`] (one JSON object per event line) and
//! [`TraceLog::to_chrome_trace`] (Chrome `trace_event` JSON: one track per
//! engine, nestable async spans per transaction attempt, lock-hold spans as
//! complete events). `RunReport::prometheus()` in `chiller` renders the
//! counter side as a Prometheus-style plain-text dump.

#![warn(missing_docs)]

mod export;
mod history;
mod telemetry;
mod trace;

pub use history::{
    History, HistoryEvent, HistoryEventKind, HistoryRecorder, HistorySink, DEFAULT_HISTORY_BUF,
};
pub use telemetry::RuntimeTelemetry;
pub use trace::{
    EventKind, TraceEvent, TraceLog, TraceMode, TraceSink, Tracer, DEFAULT_SAMPLE_INTERVAL,
    DEFAULT_TRACE_BUF,
};
