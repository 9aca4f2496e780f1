//! What both passes share of the correctness gate: commit counts that
//! survive `reset_metrics`, redo-log directories, and the
//! kill → recover → conservation check of a durable workload.

use crate::spans::Spans;
use crate::workloads::{Prepared, ProcCounts, Variant};
use chiller::prelude::*;
use chiller_common::metrics::MetricSet;
use std::path::{Path, PathBuf};

/// What one pass reports: the contract's `correct` / `attempted` /
/// `failed`, and metric values by name.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
}

/// Commits and logic aborts summed over everything a cluster has run,
/// which `reset_metrics` between windows would otherwise forget.
#[derive(Default)]
pub struct Tally {
    pub commits: ProcCounts,
    pub logic_aborts: u64,
}

impl Tally {
    pub fn add(&mut self, m: &MetricSet) {
        for (name, stats) in &m.per_type {
            *self.commits.entry(name.clone()).or_insert(0) += stats.commits;
            self.logic_aborts += stats.logic_aborts;
        }
    }

    pub fn total_commits(&self) -> u64 {
        self.commits.values().sum()
    }
}

/// The live counters of a paused cluster, merged across engines.
pub fn live_metrics(cluster: &Cluster) -> MetricSet {
    let mut m = MetricSet::new();
    for engine in cluster.engines() {
        m.merge(engine.metrics());
    }
    m
}

/// Transactions still open on a quiesced cluster: inputs that ended
/// neither committed nor logic-aborted.
pub fn open_txns(cluster: &Cluster) -> u64 {
    cluster.engines().iter().map(|e| e.open_txns() as u64).sum()
}

/// A fresh redo-log directory under `out/`.
pub fn fresh_wal_dir(out: &Path, tag: &str) -> PathBuf {
    let dir = out.join(format!("wal-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create WAL directory under benchmark/out");
    dir
}

pub fn remove_wal_dir(dir: Option<&Path>) {
    if let Some(dir) = dir {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Kill a quiesced durable cluster, rebuild on the same directory and
/// require conservation across the recovery: every commit in `acked`
/// plus those recovery resolved without an ack. Returns the
/// rebuild-with-recovery seconds and what recovery reported.
pub fn kill_and_recover(
    prepared: &Prepared,
    cluster: Cluster,
    acked: &ProcCounts,
    dir: &Path,
    spans: &mut Spans,
) -> (f64, RecoveryReport) {
    spans.scope("kill", |_| drop(cluster.kill()));
    let variant = Variant {
        durable: Some(dir),
        ..Variant::default()
    };
    let (recovered, secs) = spans.timed("recover", |s| prepared.build(variant, s));
    let report = recovered
        .recovery()
        .expect("a rebuild on a used WAL directory recovers")
        .clone();
    spans.scope("invariants", |_| {
        prepared.assert_invariants(
            &recovered,
            &[acked, &report.recovered_unacked],
            &format!("{} after recovery", prepared.workload.name()),
        )
    });
    (secs, report)
}
