//! # chiller-obs
//!
//! Transaction-lifecycle tracing + runtime telemetry for the Chiller
//! reproduction (DESIGN.md §13).
//!
//! Three independent facilities share this crate:
//!
//! * **Lifecycle tracing** ([`Tracer`] / [`TraceLog`]): per-transaction spans
//!   (begin, lock acquire/release, remote hops, abort with a structured
//!   reason, retry, commit) of every transaction, appended to a plain
//!   per-engine `Vec`, capped between drains (`CHILLER_TRACE_BUF`), and
//!   moved into a [`TraceLog`] by the cluster whenever the runtime is
//!   paused. Timestamps come from the owning runtime's `Clock`, so the
//!   simulated backend traces in virtual time and stays
//!   byte-deterministic. [`TraceMode`] is off or full (`CHILLER_TRACE` /
//!   `ClusterBuilder::trace`): when off, every record call is a branch on
//!   a local field and nothing is allocated.
//! * **History recording** ([`HistoryRecorder`] / [`History`]): versioned
//!   read/write observations plus commits, appended to an uncapped
//!   per-engine `Vec`, drained the same way, and fed to the black-box
//!   serializability checker (`chiller-checker`, DESIGN.md §14). Gated by
//!   `CHILLER_CHECK` / `ClusterBuilder::check`: when off, every record
//!   call is one branch.
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
//!
//! This crate reads no environment: the `CHILLER_*` knobs named above are
//! parsed once per build by `chiller`'s cluster builder.

#![warn(missing_docs)]

mod export;
mod history;
mod telemetry;
mod trace;

pub use history::{History, HistoryEvent, HistoryEventKind, HistoryRecorder};
pub use telemetry::RuntimeTelemetry;
pub use trace::{EventKind, TraceEvent, TraceLog, TraceMode, Tracer, DEFAULT_TRACE_BUF};
