//! The contended transfer cluster shared by the wall-clock cluster suites
//! (`tests/async_parity.rs`, `tests/threaded_stress.rs`).

use chiller::cluster::RunSpec;
use chiller::prelude::*;
use chiller_workload::transfer::{self, assert_serializability_invariants, TransferConfig};

/// Engines in every contended cluster.
pub const NODES: usize = 4;

pub fn contended_config() -> TransferConfig {
    TransferConfig {
        accounts: 400,
        hot_set: 8,
        hot_fraction: 0.5,
    }
}

pub fn sim_config(seed: u64, concurrency: usize) -> SimConfig {
    let mut sim = SimConfig {
        seed,
        ..SimConfig::default()
    };
    sim.engine.concurrency = concurrency;
    sim
}

/// Pause/resume across run windows on a wall-clock backend (the async
/// one on 2 workers; the threaded backend ignores the pool size):
/// in-flight work must survive each pause (run → run_more → quiesce)
/// without losing messages or leaking locks — the phase-boundary moves
/// of engines in and out of the worker pool are the mechanism under test.
pub fn assert_survives_repeated_run_windows(backend: Backend) {
    let cfg = contended_config();
    let mut b = transfer::builder(&cfg, NODES, Protocol::Chiller, sim_config(23, 4));
    b.runtime(backend).workers(2);
    let mut cluster = b.build().unwrap();
    let first = cluster.run(RunSpec::millis(5, 40));
    let more = cluster.run_more(Duration::from_millis(40));
    assert!(
        first.total_commits() + more.total_commits() > 0,
        "{backend}: windows must commit work"
    );
    cluster.quiesce();
    assert_serializability_invariants(&cluster, &cfg, &format!("chiller windows ({backend})"));
}
