//! Exporters: JSONL event stream and Chrome `trace_event` JSON.
//!
//! Both are hand-rolled — the workspace's `serde` shim derives are no-ops
//! (DESIGN §Shims), so any JSON this repo emits is built by hand and kept
//! deliberately simple.

use crate::trace::{EventKind, TraceEvent, TraceLog};
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Escape a string for a JSON string literal (quotes, backslashes, control
/// characters).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Nanoseconds → microseconds with 3 decimals (Chrome's `ts`/`dur` unit).
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

fn jsonl_line(ev: &TraceEvent) -> String {
    let mut s = String::with_capacity(128);
    let _ = write!(
        s,
        "{{\"ts\":{},\"node\":{},\"kind\":\"{}\",\"txn\":\"{}\"",
        ev.ts,
        ev.node.0,
        ev.kind.tag(),
        ev.kind.txn()
    );
    match &ev.kind {
        EventKind::TxnBegin { proc, attempt, .. } => {
            let _ = write!(s, ",\"proc\":{proc},\"attempt\":{attempt}");
        }
        EventKind::TxnRetry {
            attempt,
            backoff_ns,
            ..
        } => {
            let _ = write!(s, ",\"attempt\":{attempt},\"backoff_ns\":{backoff_ns}");
        }
        EventKind::TxnCommit {
            latency_ns,
            distributed,
            ..
        } => {
            let _ = write!(
                s,
                ",\"latency_ns\":{latency_ns},\"distributed\":{distributed}"
            );
        }
        EventKind::TxnAbort {
            attempt, reason, ..
        } => {
            match reason {
                Some(r) => {
                    let _ = write!(s, ",\"attempt\":{attempt},\"reason\":\"{}\"", r.label());
                }
                None => {
                    let _ = write!(s, ",\"attempt\":{attempt},\"reason\":null");
                }
            };
        }
        EventKind::LockAcquire { record, hot, .. } => {
            let _ = write!(s, ",\"record\":\"{record}\",\"hot\":{hot}");
        }
        EventKind::LockRelease {
            record, held_ns, ..
        } => {
            let _ = write!(s, ",\"record\":\"{record}\",\"held_ns\":{held_ns}");
        }
        EventKind::SendHop { dst, label, .. } => {
            let _ = write!(s, ",\"dst\":{},\"label\":\"{}\"", dst.0, esc(label));
        }
        EventKind::RecvHop { src, label, .. } => {
            let _ = write!(s, ",\"src\":{},\"label\":\"{}\"", src.0, esc(label));
        }
    }
    s.push('}');
    s
}

impl TraceLog {
    /// One JSON object per line, one line per event, in drain order. Grep-
    /// and `jq`-friendly; the format every future subsystem (WAL, history
    /// checker) consumes.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 96);
        for ev in &self.events {
            out.push_str(&jsonl_line(ev));
            out.push('\n');
        }
        out
    }

    /// Chrome `trace_event` JSON (load in `chrome://tracing` or Perfetto).
    ///
    /// Layout: one process (`pid` 0), one track (`tid`) per engine node.
    /// Transaction attempts are *nestable async* spans (`ph` `"b"`/`"e"`,
    /// keyed by category `"txn"` + the transaction id) — distinct
    /// transactions interleave freely on one engine track, which plain
    /// `B`/`E` duration events cannot express. Lock holds are complete
    /// (`"X"`) events emitted at release time with `ts = release − held`;
    /// retries and hops are instants. Abort reasons ride in `args`.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        let mut emit = |obj: String, out: &mut String| {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&obj);
        };

        // Name each engine's track once.
        let nodes: BTreeSet<u32> = self.events.iter().map(|e| e.node.0).collect();
        for n in nodes {
            emit(
                format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{n},\
                     \"args\":{{\"name\":\"engine n{n}\"}}}}"
                ),
                &mut out,
            );
        }

        for ev in &self.events {
            let tid = ev.node.0;
            let ts = us(ev.ts);
            let txn = ev.kind.txn();
            let id = format!("0x{:x}", txn.0);
            let obj = match &ev.kind {
                EventKind::TxnBegin { proc, attempt, .. } => format!(
                    "{{\"name\":\"{txn}\",\"cat\":\"txn\",\"ph\":\"b\",\"id\":\"{id}\",\
                     \"pid\":0,\"tid\":{tid},\"ts\":{ts},\
                     \"args\":{{\"proc\":{proc},\"attempt\":{attempt}}}}}"
                ),
                EventKind::TxnRetry {
                    attempt,
                    backoff_ns,
                    ..
                } => format!(
                    "{{\"name\":\"retry\",\"cat\":\"txn\",\"ph\":\"n\",\"id\":\"{id}\",\
                     \"pid\":0,\"tid\":{tid},\"ts\":{ts},\
                     \"args\":{{\"attempt\":{attempt},\"backoff_us\":{}}}}}",
                    us(*backoff_ns)
                ),
                EventKind::TxnCommit {
                    latency_ns,
                    distributed,
                    ..
                } => format!(
                    "{{\"name\":\"{txn}\",\"cat\":\"txn\",\"ph\":\"e\",\"id\":\"{id}\",\
                     \"pid\":0,\"tid\":{tid},\"ts\":{ts},\
                     \"args\":{{\"outcome\":\"commit\",\"latency_us\":{},\
                     \"distributed\":{distributed}}}}}",
                    us(*latency_ns)
                ),
                EventKind::TxnAbort {
                    attempt, reason, ..
                } => {
                    let reason = match reason {
                        Some(r) => format!("\"{}\"", r.label()),
                        None => "\"logic\"".to_owned(),
                    };
                    format!(
                        "{{\"name\":\"{txn}\",\"cat\":\"txn\",\"ph\":\"e\",\"id\":\"{id}\",\
                         \"pid\":0,\"tid\":{tid},\"ts\":{ts},\
                         \"args\":{{\"outcome\":\"abort\",\"attempt\":{attempt},\
                         \"reason\":{reason}}}}}"
                    )
                }
                EventKind::LockAcquire { record, hot, .. } => format!(
                    "{{\"name\":\"acquire {record}\",\"cat\":\"lock\",\"ph\":\"i\",\"s\":\"t\",\
                     \"pid\":0,\"tid\":{tid},\"ts\":{ts},\
                     \"args\":{{\"txn\":\"{txn}\",\"hot\":{hot}}}}}"
                ),
                EventKind::LockRelease {
                    record, held_ns, ..
                } => format!(
                    "{{\"name\":\"lock {record}\",\"cat\":\"lock\",\"ph\":\"X\",\
                     \"pid\":0,\"tid\":{tid},\"ts\":{},\"dur\":{},\
                     \"args\":{{\"txn\":\"{txn}\"}}}}",
                    us(ev.ts.saturating_sub(*held_ns)),
                    us(*held_ns)
                ),
                EventKind::SendHop { dst, label, .. } => format!(
                    "{{\"name\":\"send {} n{}\",\"cat\":\"net\",\"ph\":\"i\",\"s\":\"t\",\
                     \"pid\":0,\"tid\":{tid},\"ts\":{ts},\"args\":{{\"txn\":\"{txn}\"}}}}",
                    esc(label),
                    dst.0
                ),
                EventKind::RecvHop { src, label, .. } => format!(
                    "{{\"name\":\"recv {} n{}\",\"cat\":\"net\",\"ph\":\"i\",\"s\":\"t\",\
                     \"pid\":0,\"tid\":{tid},\"ts\":{ts},\"args\":{{\"txn\":\"{txn}\"}}}}",
                    esc(label),
                    src.0
                ),
            };
            emit(obj, &mut out);
        }
        let _ = write!(
            out,
            "],\"otherData\":{{\"dropped_events\":{}}}}}",
            self.dropped
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{TraceMode, Tracer};
    use chiller_common::metrics::AbortReason;
    use chiller_common::{NodeId, RecordId, TableId, TxnId};

    fn sample_log() -> TraceLog {
        let mut t = Tracer::new(TraceMode::Full, 64);
        let txn = TxnId::new(NodeId(2), 5);
        let rec = RecordId {
            table: TableId(1),
            key: 42,
        };
        t.record(
            1_000,
            NodeId(2),
            EventKind::TxnBegin {
                txn,
                proc: 3,
                attempt: 1,
            },
        );
        t.record(
            2_000,
            NodeId(0),
            EventKind::LockAcquire {
                txn,
                record: rec,
                hot: true,
            },
        );
        t.record(
            3_000,
            NodeId(2),
            EventKind::SendHop {
                txn,
                dst: NodeId(0),
                label: "lock_read",
            },
        );
        t.record(
            4_000,
            NodeId(2),
            EventKind::TxnAbort {
                txn,
                attempt: 1,
                reason: Some(AbortReason::NoWaitConflict),
            },
        );
        t.record(
            4_500,
            NodeId(2),
            EventKind::TxnRetry {
                txn,
                attempt: 1,
                backoff_ns: 10_000,
            },
        );
        t.record(
            5_000,
            NodeId(0),
            EventKind::LockRelease {
                txn,
                record: rec,
                held_ns: 3_000,
            },
        );
        t.record(
            9_000,
            NodeId(2),
            EventKind::TxnCommit {
                txn,
                latency_ns: 8_000,
                distributed: true,
            },
        );
        let mut log = TraceLog::default();
        t.drain_into(&mut log);
        log
    }

    #[test]
    fn jsonl_one_line_per_event_with_fields() {
        let log = sample_log();
        let jsonl = log.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 7);
        assert!(lines[0].contains("\"kind\":\"txn_begin\""));
        assert!(lines[0].contains("\"txn\":\"txn2.5\""));
        assert!(lines[3].contains("\"reason\":\"no_wait_conflict\""));
        assert!(lines[5].contains("\"held_ns\":3000"));
        assert!(lines[6].contains("\"distributed\":true"));
        for l in lines {
            assert!(l.starts_with('{') && l.ends_with('}'));
        }
    }

    #[test]
    fn chrome_trace_has_tracks_spans_and_reasons() {
        let log = sample_log();
        let chrome = log.to_chrome_trace();
        assert!(chrome.starts_with("{\"traceEvents\":["));
        assert!(chrome.ends_with('}'));
        // One thread_name per node track.
        assert!(chrome.contains("\"name\":\"engine n0\""));
        assert!(chrome.contains("\"name\":\"engine n2\""));
        // Nestable async begin/end pair keyed by the txn id.
        assert!(chrome.contains("\"ph\":\"b\",\"id\":\"0x20000000005\""));
        assert!(chrome.contains("\"outcome\":\"abort\""));
        assert!(chrome.contains("\"reason\":\"no_wait_conflict\""));
        assert!(chrome.contains("\"outcome\":\"commit\""));
        // Lock span back-dated by its hold time: 5000ns − 3000ns = 2µs.
        assert!(chrome.contains("\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":2.000,\"dur\":3.000"));
        assert!(chrome.contains("\"dropped_events\":0"));
    }

    #[test]
    fn escapes_json_strings() {
        assert_eq!(esc("a\"b\\c\n"), "a\\\"b\\\\c\\n");
        assert_eq!(esc("\u{1}"), "\\u0001");
    }

    #[test]
    fn us_formatting() {
        assert_eq!(us(0), "0.000");
        assert_eq!(us(1_234), "1.234");
        assert_eq!(us(10_000), "10.000");
        assert_eq!(us(999), "0.999");
    }
}
