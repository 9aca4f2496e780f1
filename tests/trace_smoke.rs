//! Trace smoke on the wall-clock backends: a fully-traced run on the
//! threaded and async backends must produce a Chrome `trace_event` document
//! that actually parses (validated with the workspace's strict JSON shim,
//! render → parse round-trip included), carry the lifecycle spans the
//! exporters promise, and report non-trivial runtime telemetry.

use chiller::cluster::RunSpec;
use chiller::prelude::*;
use chiller_workload::tpcc::{self, TpccConfig, TpccMix};
use chiller_workload::transfer::{self, TransferConfig};
use serde::json;

const NODES: usize = 4;

fn contended_config() -> TransferConfig {
    TransferConfig {
        accounts: 400,
        hot_set: 8,
        hot_fraction: 0.5,
    }
}

fn run_traced(backend: Backend) -> (RunReport, TraceLog) {
    let mut sim = SimConfig {
        seed: 71,
        ..SimConfig::default()
    };
    sim.engine.concurrency = 4;
    let mut b = transfer::builder(&contended_config(), NODES, Protocol::Chiller, sim);
    b.runtime(backend).workers(2).trace(TraceMode::Full);
    let mut cluster = b.build().unwrap();
    // No warm-up (a warm-up reset would discard the begin events of spans
    // straddling the boundary), and short windows: every `run_more` drains
    // the per-engine trace logs, so a fast host cannot fill them past their
    // cap mid-run.
    let mut report = cluster.run(RunSpec::millis(0, 15));
    for _ in 0..7 {
        report = cluster.run_more(Duration::from_millis(15));
    }
    cluster.quiesce();
    let log = cluster.take_trace();
    (report, log)
}

/// Count events in a drained log by exporter tag.
fn count(log: &TraceLog, tag: &str) -> usize {
    log.events.iter().filter(|e| e.kind.tag() == tag).count()
}

fn assert_chrome_trace_parses(backend: Backend, report: &RunReport, log: &TraceLog) {
    assert_eq!(
        log.dropped, 0,
        "{backend}: trace logs hit their cap despite per-window drains"
    );
    assert!(
        count(log, "txn_begin") > 0 && count(log, "txn_commit") > 0,
        "{backend}: lifecycle spans missing from the log"
    );
    assert!(
        count(log, "lock_acquire") > 0 && count(log, "send_hop") > 0,
        "{backend}: full mode must record lock spans and hops"
    );

    let chrome = log.to_chrome_trace();
    let doc = json::parse(&chrome)
        .unwrap_or_else(|e| panic!("{backend}: Chrome trace is not valid JSON: {e}"));
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .unwrap_or_else(|| panic!("{backend}: no traceEvents array"));
    assert!(!events.is_empty(), "{backend}: empty traceEvents");

    // Every event is an object with the Chrome-required phase field, and
    // the nestable async span pairs the engine spans are built from exist.
    let mut begins = 0usize;
    let mut ends = 0usize;
    for ev in events {
        let ph = ev
            .get("ph")
            .and_then(|v| v.as_str())
            .unwrap_or_else(|| panic!("{backend}: event without ph: {ev:?}"));
        match ph {
            "b" => begins += 1,
            "e" => ends += 1,
            _ => {}
        }
    }
    assert!(begins > 0, "{backend}: no span begins");
    assert_eq!(
        ends, begins,
        "{backend}: every attempt span must close (commit or abort)"
    );

    // Abort spans must carry their structured reason into the args.
    if report.total_aborts() > 0 {
        assert!(
            chrome.contains("\"reason\":\"no_wait_conflict\""),
            "{backend}: aborted run lost its abort reasons"
        );
    }

    // The shim renderer is structurally faithful: render → parse must
    // reproduce the same document (serde-shim round-trip).
    let rendered = json::render(&doc);
    let reparsed = json::parse(&rendered).expect("rendered JSON must reparse");
    assert_eq!(doc, reparsed, "{backend}: render/parse round-trip diverged");

    // The JSONL exporter: every line is one standalone JSON object.
    for line in log.to_jsonl().lines() {
        let obj =
            json::parse(line).unwrap_or_else(|e| panic!("{backend}: bad JSONL line {line:?}: {e}"));
        assert!(obj.get("kind").is_some(), "{backend}: JSONL line sans kind");
    }
}

#[test]
fn threaded_full_trace_exports_parse() {
    let (report, log) = run_traced(Backend::Threaded);
    assert!(report.total_commits() > 0, "{}", report.summary());
    assert_chrome_trace_parses(Backend::Threaded, &report, &log);

    // Telemetry must reflect a real threaded run and reach the report.
    assert!(report.telemetry.batches_drained > 0);
    let prom = report.prometheus();
    assert!(prom.contains("chiller_run_info{backend=\"threaded\",workers=\"4\"} 1\n"));
    assert!(prom.contains("chiller_runtime_batches_drained"));
}

/// The paper-headline workload under full tracing, on every backend: a
/// 4-warehouse full-mix TPC-C run traced with `TraceMode::Full` must
/// export a Chrome-loadable timeline with attempt spans, lock spans,
/// hops, and structured abort reasons — simulated, threaded, and async.
///
/// The simulator commits far more per virtual millisecond than the
/// wall-clock backends do per real one, so its windows are 1 ms: about
/// 1 500 commits, the same order as the wall-clock runs. At 10 ms it
/// records ten times that, and parsing its 68 MB document takes most of
/// this binary's time.
#[test]
fn tpcc_full_trace_all_backends() {
    for (backend, window_ms) in [
        (Backend::Simulated, 1),
        (Backend::Threaded, 10),
        (Backend::Async, 10),
    ] {
        let mut sim = SimConfig {
            seed: 13,
            ..SimConfig::default()
        };
        sim.engine.concurrency = 4;
        let mut b = tpcc::builder(
            &TpccConfig::with_warehouses(4),
            TpccMix::default(),
            Protocol::Chiller,
            sim,
        );
        b.runtime(backend).trace(TraceMode::Full);
        let mut cluster = b.build().unwrap();
        let mut report = cluster.run(RunSpec::millis(0, window_ms));
        for _ in 0..3 {
            report = cluster.run_more(Duration::from_millis(window_ms));
        }
        cluster.quiesce();
        let log = cluster.take_trace();
        assert!(
            report.total_commits() > 0,
            "{backend}: {}",
            report.summary()
        );
        assert_chrome_trace_parses(backend, &report, &log);
    }
}

#[test]
fn async_full_trace_exports_parse() {
    let (report, log) = run_traced(Backend::Async);
    assert!(report.total_commits() > 0, "{}", report.summary());
    assert_chrome_trace_parses(Backend::Async, &report, &log);

    // The async pool's telemetry: tasks flowed, and the report knows the
    // pool size it came from.
    assert!(report.telemetry.batches_drained > 0);
    assert!(report.telemetry.tasks_popped > 0);
    assert_eq!(report.workers, 2);
    assert!(report
        .prometheus()
        .contains("chiller_run_info{backend=\"async\",workers=\"2\"} 1\n"));
}
