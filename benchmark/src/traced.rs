//! The traced pass: full tracing and history checking on, one short
//! window, and every per-layer number read from what the program
//! reports about itself (`RunReport`, `TraceLog`, `RecoveryReport`),
//! plus the isolated probes and the derived ledger lines.
//!
//! The pass carries its own untraced reference window of the same
//! shape, so `obs.trace_overhead_pct` and the ledger shares compare
//! like with like inside one process.

use crate::gate::{
    fresh_wal_dir, kill_and_recover, live_metrics, open_txns, remove_wal_dir, Outcome, Tally,
};
use crate::host;
use crate::probes;
use crate::spans::Spans;
use crate::stats::{interpolated_quantile, median, quantile_sorted};
use crate::workloads::{prepare, Prepared, Variant, Workload, WORKERS};
use chiller::prelude::*;
use chiller_common::metrics::AbortReason;
use chiller_common::metrics::MetricSet;
use chiller_obs::EventKind;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

/// Length of the traced (and of each reference) window.
const WINDOW_MS: u64 = 1_000;
/// Commit target that replaces the window for fixed-work workloads.
const FIXED_WORK_COMMITS: u64 = 10_000;
/// The window advances in slices this long: every slice boundary
/// drains the per-engine trace and history rings, which would
/// otherwise overflow (and void the certification) within one window.
const SLICE_MS: u64 = 50;

/// One measured window: the cumulative report at its end, commits and
/// wall seconds.
struct Window {
    report: RunReport,
    commits: u64,
    wall_s: f64,
}

impl Window {
    fn tps(&self) -> f64 {
        self.commits as f64 / self.wall_s
    }
}

/// Drive a fresh cluster through one window in [`SLICE_MS`] slices
/// (no metrics reset, so the final report is cumulative).
fn run_window(workload: Workload, cluster: &mut Cluster) -> Window {
    let slice = Duration::from_millis(SLICE_MS);
    let mut wall_s = 0.0;
    let mut slices = 0;
    loop {
        let report = cluster.run_more(slice);
        wall_s += report.wall_elapsed.as_secs_f64();
        slices += 1;
        let done = if workload.fixed_work() {
            report.total_commits() >= FIXED_WORK_COMMITS
        } else {
            slices * SLICE_MS >= WINDOW_MS
        };
        if done {
            return Window {
                commits: report.total_commits(),
                report,
                wall_s,
            };
        }
    }
}

/// `send_hop` → `recv_hop` waits in ns, ascending. Hops pair up in
/// order per (transaction, sender, receiver, message kind).
fn hop_waits(trace: &TraceLog) -> Vec<u64> {
    // (transaction, sender, receiver, message kind, timestamp): sorting
    // both sides puts the i-th send of a link opposite its i-th receive.
    type Hop = (TxnId, NodeId, NodeId, &'static str, u64);
    let mut sent: Vec<Hop> = Vec::new();
    let mut received: Vec<Hop> = Vec::new();
    for ev in &trace.events {
        match ev.kind {
            EventKind::SendHop { txn, dst, label } => sent.push((txn, ev.node, dst, label, ev.ts)),
            EventKind::RecvHop { txn, src, label } => {
                received.push((txn, src, ev.node, label, ev.ts))
            }
            _ => {}
        }
    }
    sent.sort_unstable();
    received.sort_unstable();
    let link = |h: &Hop| (h.0, h.1, h.2, h.3);
    let mut waits = Vec::with_capacity(received.len());
    let mut sends = sent.iter().peekable();
    for recv in &received {
        while sends.next_if(|s| link(s) < link(recv)).is_some() {}
        if let Some(send) = sends.next_if(|s| link(s) == link(recv)) {
            waits.push(recv.4.saturating_sub(send.4));
        }
    }
    waits.sort_unstable();
    waits
}

/// Inputs the engine dropped after exhausting its retry budget: the
/// only way an input ends neither committed nor logic-aborted.
fn retries_exhausted(trace: &TraceLog) -> u64 {
    let max_retries = EngineConfig::default().max_retries;
    trace
        .events
        .iter()
        .filter(|ev| {
            matches!(ev.kind, EventKind::TxnAbort { attempt, reason: Some(_), .. }
                if attempt >= max_retries)
        })
        .count() as u64
}

fn per(n: f64, d: u64) -> f64 {
    n / d.max(1) as f64
}

type Metrics = Vec<(&'static str, f64)>;

/// The untraced reference: `count` windows of the traced window's
/// shape, each on a fresh cluster (durable where the workload is);
/// medians over them.
struct Reference {
    tps: f64,
    build_ms: f64,
    rss_kb_per_kcommit: f64,
}

fn reference(prepared: &Prepared, count: usize, out: &Path, spans: &mut Spans) -> Reference {
    let workload = prepared.workload;
    let mut tps = Vec::new();
    let mut build_ms = Vec::new();
    let mut rss_kb_per_kcommit = Vec::new();
    for i in 0..count {
        let dir = workload.durable().then(|| fresh_wal_dir(out, "ref"));
        let variant = Variant {
            durable: dir.as_deref(),
            ..Variant::default()
        };
        let (mut cluster, build_s) = spans.timed("setup", |s| prepared.build(variant, s));
        let rss_before = host::rss_kb();
        let window = spans.scope(&format!("reference[{i}]"), |_| {
            run_window(workload, &mut cluster)
        });
        let rss_grown = host::rss_kb().saturating_sub(rss_before);
        drop(cluster);
        remove_wal_dir(dir.as_deref());
        tps.push(window.tps());
        build_ms.push(build_s * 1e3);
        rss_kb_per_kcommit.push(per(rss_grown as f64 * 1e3, window.commits));
    }
    Reference {
        tps: median(&tps),
        build_ms: median(&build_ms),
        rss_kb_per_kcommit: median(&rss_kb_per_kcommit),
    }
}

/// The per-layer numbers a window's cumulative `RunReport` holds.
fn report_metrics(window: &Window, m: &mut Metrics) {
    let r = &window.report;
    let commits = window.commits;
    let kcommits = (commits as f64 / 1e3).max(1e-9);
    let met: &MetricSet = &r.metrics;
    let tel = &r.telemetry;
    let msgs = r.net.one_sided_msgs + r.net.rpc_msgs + r.net.local_msgs;
    let remote = r.net.one_sided_msgs + r.net.rpc_msgs;
    let logic_aborts: u64 = met.per_type.values().map(|s| s.logic_aborts).sum();
    let abort_reason = |reason| met.abort_reasons.get(reason) as f64 / kcommits;
    m.extend([
        ("traced.commits", commits as f64),
        ("traced.commit_tps", window.tps()),
        (
            "cc.attempts_per_commit",
            per((commits + r.total_aborts()) as f64, commits),
        ),
        (
            "cc.abort.no_wait_per_kcommit",
            abort_reason(AbortReason::NoWaitConflict),
        ),
        (
            "cc.abort.timeout_per_kcommit",
            abort_reason(AbortReason::Timeout),
        ),
        (
            "cc.abort.stale_route_per_kcommit",
            abort_reason(AbortReason::MigrationStaleRoute),
        ),
        (
            "cc.lock_hold_hot_p50_us",
            interpolated_quantile(&met.hot_contention_span, 0.50) / 1e3,
        ),
        (
            "cc.lock_hold_cold_p50_us",
            interpolated_quantile(&met.cold_contention_span, 0.50) / 1e3,
        ),
        ("cc.msgs_per_commit", per(msgs as f64, commits)),
        ("cc.remote_msgs_per_commit", per(remote as f64, commits)),
        ("cc.distributed_ratio", r.distributed_ratio()),
        (
            "workload.logic_abort_share",
            per(logic_aborts as f64, commits + logic_aborts),
        ),
        (
            "simnet.events_per_commit",
            per(r.net.events_processed as f64, commits),
        ),
        (
            "simnet.msgs_per_batch",
            per(msgs as f64, tel.batches_drained),
        ),
        (
            "simnet.timer_fires_per_commit",
            per(r.net.timer_fires as f64, commits),
        ),
        ("simnet.parks_per_s", tel.parks as f64 / window.wall_s),
        ("simnet.flush_stalls", tel.flush_stalls as f64),
        ("simnet.zero_progress_turns", tel.zero_progress_turns as f64),
        ("simnet.ring_occupancy_hwm", tel.ring_occupancy_hwm as f64),
        (
            "simnet.timer_slop_p99_us",
            interpolated_quantile(&tel.timer_slop, 0.99) / 1e3,
        ),
        (
            "taskq.pops_per_commit",
            per(tel.tasks_popped as f64, commits),
        ),
        (
            "taskq.steal_share",
            per(tel.tasks_stolen as f64, tel.tasks_popped),
        ),
        (
            "storage.wal_bytes_per_commit",
            per(tel.wal_bytes_appended as f64, commits),
        ),
        (
            "storage.wal_records_per_commit",
            per(tel.wal_records_appended as f64, commits),
        ),
        (
            "storage.wal_fsyncs_per_kcommit",
            tel.wal_fsyncs as f64 / kcommits,
        ),
    ]);
}

/// Run the traced pass of `workload`. `seconds` sizes the untraced
/// reference: one window per 1.5 s beyond the first 2 s, at least one.
/// The traced window itself is always [`WINDOW_MS`] (its trace and
/// history are held in memory).
///
/// `with_probes` adds the workload-independent probes; the
/// all-workloads driver runs those once, in a process of their own.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    with_probes: bool,
    out: &Path,
    spans: &mut Spans,
) -> Outcome {
    let name = workload.name();
    let mut m: Metrics = Vec::new();

    let prepared = spans.scope("setup", |s| prepare(workload, seed, s));
    m.push(("partition.trace_ms", spans.total_s("trace_gen") * 1e3));
    m.push((
        "partition.chiller_partition_ms",
        spans.total_s("partition") * 1e3,
    ));

    let reference_windows = (((seconds - 2.0) / 1.5) as usize).max(1);
    let reference = reference(&prepared, reference_windows, out, spans);
    m.push(("reference.commit_tps", reference.tps));
    m.push(("core.build_ms", reference.build_ms));
    m.push(("core.rss_kb_per_kcommit", reference.rss_kb_per_kcommit));

    // A durable workload: the same window once more with the redo log off.
    let mut wal_cost_share = 0.0;
    if workload.durable() {
        let mut volatile = spans.scope("setup", |s| prepared.build(Variant::default(), s));
        let window = spans.scope("reference_volatile", |_| {
            run_window(workload, &mut volatile)
        });
        wal_cost_share = 1.0 - reference.tps / window.tps();
    }
    m.push(("storage.wal_cost_share", wal_cost_share));

    // The traced window itself.
    let wal_dir = workload.durable().then(|| fresh_wal_dir(out, "traced"));
    let variant = Variant {
        observed: true,
        durable: wal_dir.as_deref(),
        ..Variant::default()
    };
    let mut cluster = spans.scope("setup", |s| prepared.build(variant, s));
    let traced = spans.scope("window[0]", |_| run_window(workload, &mut cluster));
    let trace = cluster.take_trace();
    let ((), drain_s) = spans.timed("quiesce", |_| cluster.quiesce());
    let drained = cluster.take_trace();
    report_metrics(&traced, &mut m);
    m.push(("core.drain_ms", drain_s * 1e3));

    let waits = spans.scope("hop_waits", |_| hop_waits(&trace));
    m.push(("simnet.hop_samples", waits.len() as f64));
    m.push((
        "simnet.hop_wait_p50_us",
        quantile_sorted(&waits, 0.50) as f64 / 1e3,
    ));
    m.push((
        "simnet.hop_wait_p99_us",
        quantile_sorted(&waits, 0.99) as f64 / 1e3,
    ));
    let (trace_drops, history_drops) = traced.report.events_dropped();
    m.push((
        "obs.trace_overhead_pct",
        (1.0 - traced.tps() / reference.tps) * 100.0,
    ));
    m.push((
        "obs.events_per_commit",
        per(trace.len() as f64, traced.commits),
    ));
    m.push((
        "obs.events_dropped",
        (trace_drops + history_drops + drained.dropped) as f64,
    ));
    let exhausted = retries_exhausted(&trace) + retries_exhausted(&drained);
    drop((trace, drained));

    // Correctness gate: invariants, certification, and for a durable
    // workload conservation across kill → recovery.
    let mut tally = Tally::default();
    tally.add(&live_metrics(&cluster));
    let open = open_txns(&cluster);
    let correct = catch_unwind(AssertUnwindSafe(|| {
        spans.scope("invariants", |_| {
            prepared.assert_invariants(&cluster, &[], name)
        });
        let (check, certify_s) = spans.timed("certify", |_| cluster.check_history());
        assert!(
            check.is_complete(),
            "{name}: history incomplete, {} observations dropped",
            check.events_dropped
        );
        assert!(check.ok(), "{name}: not serializable: {}", check.summary());
        m.push((
            "checker.certify_ms_per_ktxn",
            certify_s * 1e3 / (check.txns.max(1) as f64 / 1e3),
        ));
        // Recovery's numbers are zeros for a volatile workload.
        let (recovery_s, recovery) = match wal_dir.as_deref() {
            Some(dir) => kill_and_recover(&prepared, cluster, &tally.commits, dir, spans),
            None => (0.0, RecoveryReport::default()),
        };
        let commits = tally.total_commits();
        m.extend([
            ("core.recovery_s", recovery_s),
            (
                "core.recovery_records_per_commit",
                per(recovery.records_scanned as f64, commits),
            ),
            (
                "core.recovery_replayed_per_commit",
                per(recovery.writes_replayed as f64, commits),
            ),
            (
                "core.in_doubt_per_kcommit",
                per(recovery.in_doubt as f64 * 1e3, commits),
            ),
        ]);
    }))
    .is_ok();
    if correct {
        remove_wal_dir(wal_dir.as_deref());
    }

    // Probes and the ledger.
    let cpu_us = spans.scope("probe:cc.cpu_us_per_commit", |s| {
        probes::cc::cpu_us_per_commit(&prepared, s)
    });
    m.push(("cc.cpu_us_per_commit", cpu_us));
    if with_probes {
        m.extend(probes::run_all(out, spans));
    }
    let handler_share = cpu_us * reference.tps / (WORKERS as f64 * 1e6);
    m.push(("ledger.handler_share", handler_share));
    m.push(("ledger.runtime_share", 1.0 - handler_share));

    let attempted = (tally.total_commits() + tally.logic_aborts + open + exhausted).max(1);
    let failed = if correct { open + exhausted } else { attempted };
    Outcome {
        correct: correct && failed == 0,
        attempted,
        failed,
        metrics: m,
    }
}
