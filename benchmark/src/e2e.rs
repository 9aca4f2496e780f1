//! The end-to-end pass: tracing and checking off, closed loop, metrics as
//! medians over windows (or over fresh clusters for fixed work).

use crate::gate::{
    fresh_wal_dir, kill_and_recover, live_metrics, open_txns, remove_wal_dir, Outcome, Tally,
};
use crate::host;
use crate::spans::Spans;
use crate::stats::{interpolated_quantile, median};
use crate::workloads::{prepare, Prepared, Variant, Workload};
use chiller::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Warm-up before the first window of a stationary workload.
const WARMUP_MS: u64 = 400;
/// Length of one measurement window.
const WINDOW_MS: u64 = 700;
/// Commit target of one fixed-work round.
const FIXED_WORK_COMMITS: u64 = 30_000;
/// What one fixed-work round (build, commit target, gate, teardown) takes
/// on the host the workloads were sized on; converts `--seconds` to rounds.
const FIXED_WORK_ROUND_S: f64 = 1.4;
/// Slice length fixed work advances by between commit-count checks.
const FIXED_WORK_SLICE_MS: u64 = 100;
/// Fewest set-ups per run; `setup_s` is the median of all of them.
/// Fixed work builds a fresh cluster per round anyway and runs at least
/// this many rounds.
const SETUP_REPEATS: usize = 3;
/// A millisecond-scale set-up is repeated (up to [`MAX_SETUP_REPEATS`]
/// times) until the set-ups add up to this long, so that its median is
/// as steady as that of a set-up that takes a visible share of a second.
const SETUP_BUDGET_S: f64 = 0.3;
const MAX_SETUP_REPEATS: usize = 40;

/// One window's (or one fixed-work round's) end-to-end sample.
struct Sample {
    tps: f64,
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
    abort_rate: f64,
}

impl Sample {
    /// From a report whose counters cover exactly `wall_s` seconds.
    fn of(report: &RunReport, wall_s: f64) -> Sample {
        Sample {
            tps: report.total_commits() as f64 / wall_s,
            p50_us: interpolated_quantile(&report.metrics.latency, 0.50) / 1e3,
            p95_us: interpolated_quantile(&report.metrics.latency, 0.95) / 1e3,
            p99_us: interpolated_quantile(&report.metrics.latency, 0.99) / 1e3,
            abort_rate: report.abort_rate(),
        }
    }
}

/// What the correctness gate concluded about one cluster's whole run.
struct Gate {
    attempted: u64,
    failed: u64,
    /// Durable workload: rebuild-with-recovery µs per acked commit.
    recovery_us_per_commit: Option<f64>,
}

/// Quiesce, check the workload's invariants, and for a durable cluster
/// kill it and certify the recovered incarnation. Consumes the cluster.
/// `prior` holds the counts `reset_metrics` discarded. `None` when an
/// invariant failed (the assertion's message is already on stderr).
fn gate(
    prepared: &Prepared,
    cluster: Cluster,
    prior: Tally,
    wal_dir: Option<&Path>,
    spans: &mut Spans,
) -> Option<Gate> {
    catch_unwind(AssertUnwindSafe(move || {
        check(prepared, cluster, prior, wal_dir, spans)
    }))
    .ok()
}

fn check(
    prepared: &Prepared,
    mut cluster: Cluster,
    mut prior: Tally,
    wal_dir: Option<&Path>,
    spans: &mut Spans,
) -> Gate {
    let name = prepared.workload.name();
    spans.scope("quiesce", |_| cluster.quiesce());
    let live = live_metrics(&cluster);
    let open = open_txns(&cluster);
    spans.scope("invariants", |_| {
        prepared.assert_invariants(&cluster, &[&prior.commits], name)
    });
    prior.add(&live);
    let commits = prior.total_commits();
    let recovery_us_per_commit = wal_dir.map(|dir| {
        let (secs, _) = kill_and_recover(prepared, cluster, &prior.commits, dir, spans);
        secs * 1e6 / commits.max(1) as f64
    });
    Gate {
        attempted: commits + prior.logic_aborts + open,
        failed: open,
        recovery_us_per_commit,
    }
}

/// One timed set-up: inputs from the seed, then load and build.
struct SetUp {
    prepared: Prepared,
    cluster: Cluster,
    wal_dir: Option<PathBuf>,
    /// Seconds from `started` to cluster ready.
    secs: f64,
}

fn set_up(workload: Workload, seed: u64, started: Instant, out: &Path, spans: &mut Spans) -> SetUp {
    let wal_dir = workload.durable().then(|| fresh_wal_dir(out, "e2e"));
    let (prepared, cluster) = spans.scope("setup", |s| {
        let prepared = prepare(workload, seed, s);
        let variant = Variant {
            durable: wal_dir.as_deref(),
            ..Variant::default()
        };
        let cluster = prepared.build(variant, s);
        (prepared, cluster)
    });
    SetUp {
        prepared,
        cluster,
        wal_dir,
        secs: started.elapsed().as_secs_f64(),
    }
}

/// Run the end-to-end pass of `workload` for about `seconds` of
/// measurement. `origin` is process start: the first set-up is timed
/// from it.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    origin: Instant,
    out: &Path,
    spans: &mut Spans,
) -> Outcome {
    let mut setups: Vec<f64> = Vec::new();
    let mut samples: Vec<Sample> = Vec::new();
    let mut gates: Vec<Gate> = Vec::new();
    let mut correct = true;

    if workload.fixed_work() {
        // The round count follows from `--seconds` alone (a round takes
        // about FIXED_WORK_ROUND_S on the sizing host), not from how fast
        // rounds turn out to be: peak memory grows with the round count.
        let rounds = ((seconds / FIXED_WORK_ROUND_S) as usize).max(SETUP_REPEATS);
        for round in 0..rounds {
            let started = if round == 0 { origin } else { Instant::now() };
            let SetUp {
                prepared,
                mut cluster,
                secs,
                ..
            } = set_up(workload, seed, started, out, spans);
            setups.push(secs);
            samples.push(spans.scope(&format!("fixed_work[{round}]"), |_| {
                let mut wall_s = 0.0;
                loop {
                    let report = cluster.run_more(Duration::from_millis(FIXED_WORK_SLICE_MS));
                    wall_s += report.wall_elapsed.as_secs_f64();
                    if report.total_commits() >= FIXED_WORK_COMMITS {
                        break Sample::of(&report, wall_s);
                    }
                }
            }));
            match gate(&prepared, cluster, Tally::default(), None, spans) {
                Some(g) => gates.push(g),
                None => correct = false,
            }
        }
    } else {
        let mut ready = set_up(workload, seed, origin, out, spans);
        setups.push(ready.secs);
        while setups.len() < SETUP_REPEATS
            || (setups.iter().sum::<f64>() < SETUP_BUDGET_S && setups.len() < MAX_SETUP_REPEATS)
        {
            drop::<Cluster>(ready.cluster);
            remove_wal_dir(ready.wal_dir.as_deref());
            ready = set_up(workload, seed, Instant::now(), out, spans);
            setups.push(ready.secs);
        }
        let SetUp {
            prepared,
            mut cluster,
            wal_dir,
            ..
        } = ready;
        let windows = ((seconds * 1e3 - WARMUP_MS as f64) / WINDOW_MS as f64).round();
        let mut prior = Tally::default();
        let mut last = spans.scope("warmup", |_| {
            cluster.run(RunSpec::new(
                Duration::ZERO,
                Duration::from_millis(WARMUP_MS),
            ))
        });
        for i in 0..(windows as usize).max(1) {
            prior.add(&last.metrics);
            cluster.reset_metrics();
            last = spans.scope(&format!("window[{i}]"), |_| {
                cluster.run(RunSpec::new(
                    Duration::ZERO,
                    Duration::from_millis(WINDOW_MS),
                ))
            });
            samples.push(Sample::of(&last, last.wall_elapsed.as_secs_f64()));
        }
        match gate(&prepared, cluster, prior, wal_dir.as_deref(), spans) {
            Some(g) => {
                gates.push(g);
                remove_wal_dir(wal_dir.as_deref());
            }
            // The redo logs stay behind for the post-mortem.
            None => correct = false,
        }
    }

    let attempted: u64 = gates.iter().map(|g| g.attempted).sum::<u64>().max(1);
    let failed: u64 = if correct {
        gates.iter().map(|g| g.failed).sum()
    } else {
        attempted
    };
    let col = |f: fn(&Sample) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    let mut metrics = vec![
        ("commit_tps", col(|s| s.tps)),
        ("commit_p50_us", col(|s| s.p50_us)),
        ("commit_p95_us", col(|s| s.p95_us)),
        ("commit_p99_us", col(|s| s.p99_us)),
        ("abort_rate", col(|s| s.abort_rate)),
        ("failed_share", failed as f64 / attempted as f64),
        ("setup_s", median(&setups)),
        ("peak_rss_mb", host::peak_rss_kb() as f64 / 1024.0),
    ];
    if let Some(us) = gates.iter().find_map(|g| g.recovery_us_per_commit) {
        metrics.push(("recovery_us_per_commit", us));
    }
    Outcome {
        correct: correct && failed == 0,
        attempted,
        failed,
        metrics,
    }
}
