//! Wall-clock backend differential parity suite.
//!
//! The async backend multiplexes engines onto a fixed worker pool against
//! a wall clock (`Backend::Threaded` is the same pool at one worker per
//! engine), so its runs are *not* byte-reproducible — parity with
//! the deterministic simulator is instead established differentially:
//! for each seed and protocol, the async run and the simulated oracle
//! run must both uphold the full serializability contract at quiescence
//! (balance conservation, no leaked locks, no zombie transactions, zero
//! replica divergence). Any executor bug that reorders messages beyond
//! per-link FIFO, loses a wakeup, or quiesces early surfaces here as a
//! violated invariant on the async side that the oracle side rules out
//! as a workload/protocol problem.

#[path = "support/contended.rs"]
mod contended;

use chiller::cluster::RunSpec;
use chiller::prelude::*;
use chiller_workload::transfer::{self, assert_serializability_invariants, TransferConfig};
use contended::{assert_survives_repeated_run_windows, contended_config, sim_config, NODES};

/// Run one protocol on a wall-clock backend (`workers` sizes the async
/// backend's pool; the threaded backend ignores it), quiesce, and return
/// the cluster plus its report.
fn run_on(
    backend: Backend,
    protocol: Protocol,
    seed: u64,
    workers: usize,
    measure_ms: u64,
) -> (Cluster, RunReport) {
    let cfg = contended_config();
    let mut b = transfer::builder(&cfg, NODES, protocol, sim_config(seed, 4));
    b.runtime(backend).workers(workers);
    let mut cluster = b.build().unwrap();
    assert_eq!(cluster.backend(), backend);
    let report = cluster.run(RunSpec::millis(10, measure_ms));
    cluster.quiesce();
    (cluster, report)
}

/// The differential core: same seeds, async execution vs the simulated
/// oracle, full invariant set on both sides, every protocol.
#[test]
fn async_and_simulated_uphold_the_same_contract_per_seed() {
    for seed in [11, 31] {
        for protocol in [Protocol::Chiller, Protocol::TwoPhaseLocking, Protocol::Occ] {
            let cfg = contended_config();

            // Async side: real pool, wall clock.
            let (cluster, report) = run_on(Backend::Async, protocol, seed, 2, 120);
            assert!(
                report.total_commits() > 0,
                "{protocol} seed {seed}: async backend committed nothing — {}",
                report.summary()
            );
            assert_serializability_invariants(
                &cluster,
                &cfg,
                &format!("{protocol} seed {seed} (async)"),
            );

            // Oracle side: the deterministic simulator on the same seed.
            let mut oracle = transfer::builder(&cfg, NODES, protocol, sim_config(seed, 4))
                .build()
                .unwrap();
            let oracle_report = oracle.run(RunSpec::millis(1, 10));
            assert!(
                oracle_report.total_commits() > 0,
                "{protocol} seed {seed}: oracle committed nothing"
            );
            oracle.quiesce();
            assert_serializability_invariants(
                &oracle,
                &cfg,
                &format!("{protocol} seed {seed} (simulated oracle)"),
            );
        }
    }
}

/// Reports must identify the backend and the pool that produced them:
/// `backend = Async`, `workers` = the requested pool size (clamped), and
/// the measured window tracks wall time like the threaded backend's.
#[test]
fn async_reports_are_labelled_with_backend_and_workers() {
    let (_, report) = run_on(Backend::Async, Protocol::Chiller, 17, 2, 80);
    assert_eq!(report.backend, Backend::Async);
    assert_eq!(report.workers, 2, "report must carry the pool size");
    let elapsed_ms = report.elapsed.as_nanos() as f64 / 1e6;
    let wall_ms = report.wall_elapsed.as_secs_f64() * 1e3;
    assert!(
        (elapsed_ms - wall_ms).abs() < 50.0,
        "async elapsed ({elapsed_ms:.1}ms) and wall ({wall_ms:.1}ms) diverged"
    );
    assert!(report.wall_throughput() > 0.0);

    // The other backends' labels stay distinct: the simulator reports
    // zero workers (it runs on the calling thread).
    let cfg = contended_config();
    let mut oracle = transfer::builder(&cfg, NODES, Protocol::Chiller, sim_config(17, 4))
        .build()
        .unwrap();
    let oracle_report = oracle.run(RunSpec::millis(1, 5));
    assert_eq!(oracle_report.backend, Backend::Simulated);
    assert_eq!(oracle_report.workers, 0, "the simulator has no workers");
}

/// The contract must hold at every pool size — 1 worker (pure
/// multiplexing, no parallelism), an undersized pool, and one worker per
/// engine (the threaded backend's shape on the async executor).
#[test]
fn every_pool_size_upholds_invariants() {
    let cfg = contended_config();
    for workers in [1usize, 2, NODES] {
        let (cluster, report) = run_on(Backend::Async, Protocol::Chiller, 23, workers, 100);
        assert!(
            report.total_commits() > 0,
            "{workers}-worker pool committed nothing"
        );
        assert_eq!(report.workers, workers);
        assert_serializability_invariants(&cluster, &cfg, &format!("chiller ({workers} workers)"));
    }
}

/// The threaded backend under every protocol: the same contract under
/// real parallelism, one worker per engine.
#[test]
fn threaded_backend_upholds_invariants_under_all_protocols() {
    for protocol in [Protocol::Chiller, Protocol::TwoPhaseLocking, Protocol::Occ] {
        let (cluster, report) = run_on(Backend::Threaded, protocol, 11, NODES, 150);
        assert!(
            report.total_commits() > 0,
            "{protocol}: no transactions committed on the threaded backend — {}",
            report.summary()
        );
        assert_serializability_invariants(
            &cluster,
            &contended_config(),
            &format!("{protocol} (threaded)"),
        );
    }
}

#[test]
fn threaded_reports_are_labelled_and_wall_clocked() {
    let (_, report) = run_on(Backend::Threaded, Protocol::Chiller, 11, NODES, 80);
    assert_eq!(report.backend, Backend::Threaded);
    // On the threaded backend the measured window *is* wall time: the two
    // clocks must agree to well within the scheduling slop of a pause.
    let elapsed_ms = report.elapsed.as_nanos() as f64 / 1e6;
    let wall_ms = report.wall_elapsed.as_secs_f64() * 1e3;
    assert!(
        (elapsed_ms - wall_ms).abs() < 50.0,
        "threaded elapsed ({elapsed_ms:.1}ms) and wall ({wall_ms:.1}ms) diverged"
    );
    assert!(
        report.wall_throughput() > 0.0,
        "wall throughput must be measurable"
    );
}

/// Run windows on the async backend (2 workers); the threaded backend's
/// run is `tests/threaded_stress.rs`.
#[test]
fn async_backend_survives_repeated_run_windows() {
    assert_survives_repeated_run_windows(Backend::Async);
}

/// The serializability checker on the async backend, two seeds. Engines
/// run on real threads against a wall clock, so the recorded history
/// exercises genuinely concurrent interleavings (not the simulator's
/// serial event loop). Every protocol's history must still certify
/// clean — an executor bug that reorders messages beyond per-link FIFO
/// surfaces here as a dependency cycle even when the balance sum happens
/// to survive.
#[test]
fn checker_certifies_async_runs() {
    for seed in [11u64, 31] {
        for protocol in [Protocol::Chiller, Protocol::TwoPhaseLocking, Protocol::Occ] {
            let cfg = contended_config();
            let mut b = transfer::builder(&cfg, NODES, protocol, sim_config(seed, 4));
            b.runtime(Backend::Async)
                .workers(2)
                .trace(TraceMode::Off)
                .check(CheckMode::Full);
            let mut cluster = b.build().unwrap();
            let report = cluster.run(RunSpec::millis(10, 100));
            assert!(
                report.total_commits() > 0,
                "{protocol} seed {seed}: committed nothing — {}",
                report.summary()
            );
            cluster.quiesce();
            assert_serializability_invariants(
                &cluster,
                &cfg,
                &format!("{protocol} seed {seed} (async checked)"),
            );
            cluster.expect_serializable(&format!("{protocol} seed {seed} (async)"));
        }
    }
}

/// The multiplexing headline at cluster level: many more partitions than
/// workers, full contract at drain — small enough to run on every CI
/// push.
#[test]
fn many_partitions_on_a_small_pool_uphold_invariants() {
    let nodes = 64usize;
    let cfg = TransferConfig {
        accounts: 1280,
        hot_set: 8,
        hot_fraction: 0.3,
    };
    let mut b = transfer::builder(&cfg, nodes, Protocol::Chiller, sim_config(29, 4));
    b.runtime(Backend::Async).workers(2);
    let mut cluster = b.build().unwrap();
    let report = cluster.run(RunSpec::millis(10, 120));
    assert!(
        report.total_commits() > 0,
        "64 partitions on 2 workers committed nothing — {}",
        report.summary()
    );
    assert_eq!(report.workers, 2);
    cluster.quiesce();
    assert_serializability_invariants(&cluster, &cfg, "chiller (64 partitions, 2 workers)");
}
