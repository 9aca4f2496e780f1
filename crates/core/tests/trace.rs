//! Lifecycle-tracing tests on the deterministic simulator: abort-reason
//! accounting, trace-off byte-identity, sampling, and exporter content.

use chiller::prelude::*;
use chiller_common::metrics::AbortReason;
use rand::Rng;

const ACCOUNTS: TableId = TableId(1);
const NUM_ACCOUNTS: u64 = 400;
const INITIAL: f64 = 1_000.0;

fn schema() -> Schema {
    let mut s = Schema::new();
    s.add(TableDef::new(ACCOUNTS, "accounts", vec!["id", "balance"]));
    s
}

/// params: [0]=src, [1]=dst, [2]=amount
fn transfer_proc() -> chiller_sproc::Procedure {
    ProcedureBuilder::new("transfer")
        .update(ACCOUNTS, 0, "debit", |row, st| {
            let mut r = row.clone();
            r[1] = Value::F64(r[1].as_f64() - st.param_f64(2));
            r
        })
        .update(ACCOUNTS, 1, "credit", |row, st| {
            let mut r = row.clone();
            r[1] = Value::F64(r[1].as_f64() + st.param_f64(2));
            r
        })
        .build()
        .unwrap()
}

/// Random transfers where a third of the traffic hammers a tiny hot set —
/// enough contention that NO_WAIT (or OCC validation) aborts are certain.
struct TransferSource {
    proc: usize,
}

impl InputSource for TransferSource {
    fn next_input(&mut self, rng: &mut rand::rngs::StdRng, _now: SimTime) -> TxnInput {
        let hot = rng.gen::<f64>() < 0.34;
        let (a, b) = if hot {
            (rng.gen_range(0..4u64), 4 + rng.gen_range(0..4u64))
        } else {
            let a = rng.gen_range(8..NUM_ACCOUNTS);
            let mut b = rng.gen_range(8..NUM_ACCOUNTS);
            if b == a {
                b = (b + 1) % NUM_ACCOUNTS;
            }
            (a, b)
        };
        TxnInput {
            proc: self.proc,
            params: vec![Value::I64(a as i64), Value::I64(b as i64), Value::F64(1.0)],
        }
    }
}

fn builder(protocol: Protocol, seed: u64) -> ClusterBuilder {
    let mut builder = ClusterBuilder::new(schema(), 4);
    let proc_id = builder.register_proc(transfer_proc());
    let mut config = SimConfig::default();
    config.engine.concurrency = 8;
    config.seed = seed;
    builder
        .protocol(protocol)
        .config(config)
        .hot_records((0..8).map(|k| RecordId::new(ACCOUNTS, k)))
        .load((0..NUM_ACCOUNTS).map(|k| {
            (
                RecordId::new(ACCOUNTS, k),
                vec![Value::I64(k as i64), Value::F64(INITIAL)],
            )
        }))
        .source_per_node(move |_| Box::new(TransferSource { proc: proc_id }));
    builder
}

fn build_cluster(protocol: Protocol, seed: u64, trace: Option<TraceMode>) -> Cluster {
    let mut builder = builder(protocol, seed);
    // Builder override only — never the environment — so parallel tests
    // cannot race on `CHILLER_TRACE`.
    builder.trace(trace.unwrap_or(TraceMode::Off));
    builder.build().unwrap()
}

/// Every transient abort must carry exactly one structured reason, under
/// all three protocols.
#[test]
fn abort_reasons_account_for_every_transient_abort() {
    for (protocol, expected) in [
        (Protocol::Chiller, AbortReason::NoWaitConflict),
        (Protocol::TwoPhaseLocking, AbortReason::NoWaitConflict),
        (Protocol::Occ, AbortReason::OccValidation),
    ] {
        let mut cluster = build_cluster(protocol, 31, None);
        let report = cluster.run(RunSpec::millis(1, 10));
        assert!(
            report.total_aborts() > 0,
            "{protocol}: hot set must cause aborts"
        );
        assert_eq!(
            report.metrics.abort_reasons.total(),
            report.total_aborts(),
            "{protocol}: every transient abort needs a reason"
        );
        assert!(
            report.metrics.abort_reasons.get(expected) > 0,
            "{protocol}: expected {} aborts",
            expected.label()
        );
        // No migrations run here, so no stale-route aborts can appear.
        assert_eq!(
            report
                .metrics
                .abort_reasons
                .get(AbortReason::MigrationStaleRoute),
            0,
            "{protocol}"
        );
        cluster.quiesce();
    }
}

/// Tracing must be observation-only: a fully-traced simulator run produces
/// byte-identical per-node reports to the same seed untraced.
#[test]
fn sim_report_byte_identical_with_tracing_on() {
    for protocol in [Protocol::Chiller, Protocol::TwoPhaseLocking, Protocol::Occ] {
        let mut off = build_cluster(protocol, 17, Some(TraceMode::Off));
        let mut full = build_cluster(protocol, 17, Some(TraceMode::Full));
        let r_off = off.run(RunSpec::millis(1, 5));
        let r_full = full.run(RunSpec::millis(1, 5));
        assert_eq!(
            format!("{:?}", r_off.per_node),
            format!("{:?}", r_full.per_node),
            "{protocol}: tracing perturbed the simulation"
        );
        assert_eq!(r_off.summary(), r_full.summary(), "{protocol}");
        assert!(off.take_trace().is_empty());
        assert!(!full.take_trace().is_empty());
    }
}

/// One seed, one report: two simulated, durable, fully checked runs with
/// the same seed render the same Prometheus dump and summary. Durable
/// simulated runs still start an OS thread per redo log (the fsync
/// syncer), so a counter that follows its timing would break this.
#[test]
fn durable_checked_sim_report_is_a_function_of_the_seed() {
    let render = |run: &str| {
        let dir =
            std::env::temp_dir().join(format!("chiller-trace-seed-{run}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut b = builder(Protocol::Chiller, 43);
        b.trace(TraceMode::Off)
            .check(CheckMode::Full)
            .durable(&dir)
            .fsync_batch(2);
        let mut cluster = b.build().unwrap();
        let report = cluster.run(RunSpec::millis(1, 5));
        cluster.quiesce();
        cluster.expect_serializable(run);
        drop(cluster);
        let _ = std::fs::remove_dir_all(&dir);
        assert!(report.telemetry.wal_fsyncs > 0, "run {run} must be durable");
        (report.prometheus(), report.summary())
    };
    let (prom_a, summary_a) = render("a");
    let (prom_b, summary_b) = render("b");
    assert_eq!(prom_a, prom_b, "same seed, different Prometheus dump");
    assert_eq!(summary_a, summary_b, "same seed, different summary");
}

/// Full mode records the whole lifecycle; the log carries begins, commits,
/// aborts with reasons, lock spans, and remote hops, and the commit/abort
/// event counts reconcile with the metrics.
#[test]
fn full_trace_carries_the_whole_lifecycle() {
    let mut cluster = build_cluster(Protocol::Chiller, 23, Some(TraceMode::Full));
    let report = cluster.run(RunSpec::millis(1, 8));
    cluster.quiesce();
    let log = cluster.take_trace();
    assert_eq!(log.dropped, 0, "the default cap must absorb this run");

    let count = |tag: &str| log.events.iter().filter(|e| e.kind.tag() == tag).count() as u64;
    assert!(count("txn_begin") > 0);
    assert!(count("lock_acquire") > 0);
    assert!(count("lock_release") > 0);
    assert!(count("send_hop") > 0);
    assert!(count("recv_hop") > 0);
    // The measured window's metrics are a floor: quiescence commits the
    // in-flight tail after `run` returned, and those events are in the log.
    assert!(count("txn_commit") >= report.total_commits());
    assert!(count("txn_abort") >= report.total_aborts());
    assert!(count("txn_abort") > 0, "contention must show up in the log");

    // A second take returns only what happened since the first.
    assert!(cluster.take_trace().is_empty());
}

/// The warm-up reset discards warm-up trace events along with metrics.
#[test]
fn reset_metrics_discards_warmup_trace() {
    let mut cluster = build_cluster(Protocol::TwoPhaseLocking, 41, Some(TraceMode::Full));
    let report = cluster.run(RunSpec::millis(5, 1));
    let log = cluster.take_trace();
    // The warm-up window is 5x the measured window; if its events survived
    // the reset, commits in the log would dwarf the measured count several
    // times over instead of tracking it (+ the quiescing tail).
    let commits = log
        .events
        .iter()
        .filter(|e| e.kind.tag() == "txn_commit")
        .count() as u64;
    assert!(commits >= report.total_commits());
    assert!(commits < report.total_commits() * 3);
}

/// The Prometheus dump renders commit/abort totals, per-reason aborts, and
/// the runtime counters, and the summary names the backend configuration.
#[test]
fn prometheus_dump_and_summary_are_self_describing() {
    let mut cluster = build_cluster(Protocol::TwoPhaseLocking, 37, None);
    let report = cluster.run(RunSpec::millis(1, 5));
    let prom = report.prometheus();
    assert!(prom.contains(&format!("chiller_commits_total {}", report.total_commits())));
    assert!(prom.contains(&format!("chiller_aborts_total {}", report.total_aborts())));
    assert!(prom.contains("chiller_aborts_by_reason_total{reason=\"no_wait_conflict\"}"));
    assert!(prom.contains("chiller_run_info{backend=\"simulated\",workers=\"0\"} 1\n"));
    assert!(prom.contains("chiller_runtime_batches_drained"));
    assert!(prom.contains("chiller_runtime_timer_slop_ns_count 0"));
    assert!(prom.contains("chiller_runtime_trace_events_dropped 0"));
    for line in prom.lines() {
        assert!(
            line.starts_with('#') || line.contains(' '),
            "malformed line {line:?}"
        );
    }
    let summary = report.summary();
    assert!(
        summary.starts_with("[simulated backend, 0 workers] "),
        "{summary}"
    );
}
