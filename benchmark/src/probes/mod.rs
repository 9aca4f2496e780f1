//! Isolated probes: one layer's hot operation timed on its own, in
//! ns/op, as the median of [`BATCHES`] batches. One file per layer.

pub mod cc;
pub mod host;
pub mod ringq;
pub mod simnet;
pub mod sproc;
pub mod storage;
pub mod taskq;

use crate::spans::Spans;
use crate::stats::median;
use std::time::Instant;

/// Batches per probe; the reported value is their median.
pub const BATCHES: usize = 5;

/// Median of [`BATCHES`] samples of `batch`, after one discarded
/// warm-up call. `batch` returns its own cost per operation.
fn median_of_batches(mut batch: impl FnMut() -> f64) -> f64 {
    batch();
    let samples: Vec<f64> = (0..BATCHES).map(|_| batch()).collect();
    median(&samples)
}

/// Median ns per operation of `batch`, which performs `ops` operations.
fn ns_per_op(ops: u64, mut batch: impl FnMut()) -> f64 {
    median_of_batches(|| {
        let start = Instant::now();
        batch();
        start.elapsed().as_nanos() as f64 / ops as f64
    })
}

/// Run every workload-independent probe, each under its own span.
pub fn run_all(out_dir: &std::path::Path, spans: &mut Spans) -> Vec<(&'static str, f64)> {
    let mut m = Vec::new();
    let mut probe = |name: &'static str, f: &mut dyn FnMut() -> f64| {
        let value = spans.scope(&format!("probe:{name}"), |_| f());
        m.push((name, value));
    };
    probe("sproc.decide_regions_ns", &mut sproc::decide_regions_ns);
    probe("simnet.timer_arm_fire_ns", &mut simnet::timer_arm_fire_ns);
    probe("simnet.sim_event_ns", &mut simnet::sim_event_ns);
    probe(
        "taskq.notify_pop_finish_ns",
        &mut taskq::notify_pop_finish_ns,
    );
    probe("ringq.mpsc_push_pop_ns", &mut ringq::mpsc_push_pop_ns);
    probe(
        "ringq.mpsc_xthread_push_pop_ns",
        &mut ringq::mpsc_xthread_push_pop_ns,
    );
    probe("ringq.spsc_push_pop_ns", &mut ringq::spsc_push_pop_ns);
    probe("storage.probe_hot_ns", &mut storage::probe_hot_ns);
    probe("storage.probe_cold_ns", &mut storage::probe_cold_ns);
    probe("storage.insert_ns", &mut storage::insert_ns);
    probe("storage.load_ns_per_row", &mut storage::load_ns_per_row);
    probe("storage.lookup_hot_hit_ns", &mut storage::lookup_hot_hit_ns);
    probe("host.fsync_us", &mut || host::fsync_us(out_dir));
    m
}
