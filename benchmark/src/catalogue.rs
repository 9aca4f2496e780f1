//! Every metric the benchmark prints: name, unit, direction, and for the
//! end-to-end ones the bound by which a change may worsen them.
//! `BENCHMARK.json` is generated from this file (`bench manifest`).

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric and its regression bound: a change regresses it
/// when it worsens by more than `max(rel × old, abs)`.
///
/// The relative bounds are sized to the run-to-run noise of the host the
/// baseline was taken on (FINDINGS.md §7: two single runs of the same
/// code differ by up to 13–27% in throughput there), not to the 8–10%
/// the issue hoped for; a quieter host can tighten them in a change that
/// touches only the benchmark.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub rel: f64,
    pub abs: f64,
    /// Listed in `BENCHMARK.json`'s `end_to_end` (with `rel` as its
    /// bound), whose schema wants a metric that every workload reports
    /// and that is never 0. The others are gated by `bench compare` /
    /// `run.sh --agree` alone.
    pub manifest: bool,
}

const fn end_to_end_metric(
    name: &'static str,
    unit: &'static str,
    better: Better,
    abs: f64,
    manifest: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        rel: 0.25,
        abs,
        manifest,
    }
}

pub const END_TO_END: [EndToEnd; 9] = [
    end_to_end_metric("commit_tps", "txn/s", Better::Higher, 0.0, true),
    end_to_end_metric("commit_p50_us", "us", Better::Lower, 0.0, true),
    // The tail an external driver gates: run to run, p95 moves a quarter
    // as much as p99 on the baseline host (FINDINGS.md §7).
    end_to_end_metric("commit_p95_us", "us", Better::Lower, 0.0, true),
    end_to_end_metric("commit_p99_us", "us", Better::Lower, 0.0, false),
    end_to_end_metric("abort_rate", "share", Better::Lower, 0.005, false),
    // Any rise fails.
    EndToEnd {
        name: "failed_share",
        unit: "share",
        better: Better::Lower,
        rel: 0.0,
        abs: 0.0,
        manifest: false,
    },
    end_to_end_metric("setup_s", "s", Better::Lower, 0.05, true),
    end_to_end_metric("peak_rss_mb", "MB", Better::Lower, 0.0, true),
    end_to_end_metric("recovery_us_per_commit", "us", Better::Lower, 0.0, false),
];

/// Workload × metric pairs that two runs of the same code cannot agree
/// on within the bound: compared and printed, never failed on. Each
/// entry carries the spread measured when the baseline was taken (95th
/// percentile of the difference between two runs, FINDINGS.md §7).
/// `commit_tps`, `setup_s` and `peak_rss_mb` may not be listed here.
pub const INFORMATIONAL: [(&str, &str, &str); 4] = [
    ("hot_threaded", "commit_p99_us", "132%"),
    ("cold_uniform", "commit_p99_us", "27%"),
    ("tpcc_mix", "commit_p99_us", "28%"),
    ("smallbank_wal", "commit_p99_us", "485%"),
];

pub fn informational(workload: &str, metric: &str) -> Option<&'static str> {
    INFORMATIONAL
        .iter()
        .find(|(w, m, _)| *w == workload && *m == metric)
        .map(|(_, _, spread)| *spread)
}

/// A per-layer metric. `manifest` marks the ones listed in
/// `BENCHMARK.json`'s `per_layer` (README, "What BENCHMARK.json lists").
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub manifest: bool,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer {
        name,
        unit,
        better,
        manifest: true,
    }
}

/// A time that some workload has nothing to measure for and reads 0 on
/// (no redo log, no partitioner, no hot set): printed and stored, but
/// kept out of `BENCHMARK.json`, which wants a time that is measured.
const fn time_not_everywhere(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
        manifest: false,
    }
}

use Better::{Higher, Lower};

pub const PER_LAYER: [Layer; 59] = [
    layer("cc.attempts_per_commit", "count", Lower),
    layer("cc.abort.no_wait_per_kcommit", "count", Lower),
    layer("cc.abort.timeout_per_kcommit", "count", Lower),
    layer("cc.abort.stale_route_per_kcommit", "count", Lower),
    time_not_everywhere("cc.lock_hold_hot_p50_us", "us"),
    layer("cc.lock_hold_cold_p50_us", "us", Lower),
    layer("cc.msgs_per_commit", "count", Lower),
    layer("cc.remote_msgs_per_commit", "count", Lower),
    layer("cc.distributed_ratio", "share", Lower),
    layer("workload.logic_abort_share", "share", Lower),
    layer("cc.cpu_us_per_commit", "us", Lower),
    layer("sproc.decide_regions_ns", "ns", Lower),
    layer("simnet.events_per_commit", "count", Lower),
    layer("simnet.msgs_per_batch", "count", Higher),
    layer("simnet.timer_fires_per_commit", "count", Lower),
    layer("simnet.parks_per_s", "1/s", Lower),
    layer("simnet.flush_stalls", "count", Lower),
    layer("simnet.zero_progress_turns", "count", Lower),
    layer("simnet.ring_occupancy_hwm", "count", Lower),
    layer("simnet.timer_slop_p99_us", "us", Lower),
    layer("simnet.hop_wait_p50_us", "us", Lower),
    layer("simnet.hop_wait_p99_us", "us", Lower),
    layer("simnet.timer_arm_fire_ns", "ns", Lower),
    layer("simnet.sim_event_ns", "ns", Lower),
    layer("taskq.pops_per_commit", "count", Lower),
    layer("taskq.steal_share", "share", Lower),
    layer("taskq.notify_pop_finish_ns", "ns", Lower),
    layer("ringq.mpsc_push_pop_ns", "ns", Lower),
    layer("ringq.mpsc_xthread_push_pop_ns", "ns", Lower),
    layer("ringq.spsc_push_pop_ns", "ns", Lower),
    layer("storage.probe_hot_ns", "ns", Lower),
    layer("storage.probe_cold_ns", "ns", Lower),
    layer("storage.insert_ns", "ns", Lower),
    layer("storage.load_ns_per_row", "ns", Lower),
    layer("storage.lookup_hot_hit_ns", "ns", Lower),
    layer("storage.wal_bytes_per_commit", "B", Lower),
    layer("storage.wal_records_per_commit", "count", Lower),
    layer("storage.wal_fsyncs_per_kcommit", "count", Lower),
    layer("storage.wal_cost_share", "share", Lower),
    layer("host.fsync_us", "us", Lower),
    time_not_everywhere("core.recovery_s", "s"),
    layer("core.recovery_records_per_commit", "count", Lower),
    layer("core.recovery_replayed_per_commit", "count", Lower),
    layer("core.in_doubt_per_kcommit", "count", Lower),
    layer("core.drain_ms", "ms", Lower),
    layer("core.build_ms", "ms", Lower),
    layer("core.rss_kb_per_kcommit", "KB", Lower),
    time_not_everywhere("partition.trace_ms", "ms"),
    time_not_everywhere("partition.chiller_partition_ms", "ms"),
    layer("obs.trace_overhead_pct", "%", Lower),
    layer("obs.events_per_commit", "count", Lower),
    layer("obs.events_dropped", "count", Lower),
    layer("checker.certify_ms_per_ktxn", "ms", Lower),
    layer("ledger.handler_share", "share", Lower),
    layer("ledger.runtime_share", "share", Lower),
    // Counts behind the rates above, so a reader can judge sample sizes.
    layer("traced.commits", "count", Higher),
    layer("traced.commit_tps", "txn/s", Higher),
    layer("reference.commit_tps", "txn/s", Higher),
    layer("simnet.hop_samples", "count", Higher),
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

pub fn per_layer(name: &str) -> Option<&'static Layer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

/// Unit of any metric, end-to-end or per-layer.
pub fn unit_of(name: &str) -> &'static str {
    end_to_end(name)
        .map(|m| m.unit)
        .or_else(|| per_layer(name).map(|m| m.unit))
        .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
}
