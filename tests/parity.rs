//! Protocol-parity and determinism suite.
//!
//! Every concurrency-control protocol must uphold the same contract on the
//! transfer workload (the serializability witness of "Efficient Black-box
//! Checking of Snapshot Isolation in Databases"-style invariant testing):
//!
//! 1. **Balance conservation** — money moves, it is never created or
//!    destroyed (serializability invariant), and the cluster quiesces with
//!    no leaked locks or zombie transactions.
//! 2. **Determinism** — identical seeds yield *byte-identical*
//!    `EngineReport`s (the whole per-node metric state, not just totals),
//!    which is what makes every figure in `tests/paper_claims.rs`
//!    reproducible.
//! 3. **Paper-shaped relative results** — under contention with the hot
//!    set co-located, Chiller's two-region execution must beat 2PL+2PC
//!    throughput.

use chiller::cluster::RunSpec;
use chiller::prelude::*;
use chiller_workload::transfer::{
    self, assert_serializability_invariants, shifting_source, TransferConfig,
};

const NODES: usize = 4;

/// Length of the checker's single long phase, in simulated milliseconds.
const LONG_PHASE_MS: u64 = 50;

fn contended_config() -> TransferConfig {
    TransferConfig {
        accounts: 400,
        hot_set: 8,
        hot_fraction: 0.5,
    }
}

fn sim_config(seed: u64, concurrency: usize) -> SimConfig {
    let mut sim = SimConfig {
        seed,
        ..SimConfig::default()
    };
    sim.engine.concurrency = concurrency;
    sim
}

/// Canonical byte rendering of the full per-node engine state. `MetricSet`
/// stores per-type stats in a `BTreeMap`, so the Debug rendering is a
/// deterministic function of the metric values.
fn report_bytes(report: &chiller::RunReport) -> String {
    format!("{:?}", report.per_node)
}

/// Each protocol at the default replication degree and at degree 3: with
/// two replicas per partition, every write-set is sent to more than one
/// replica, and each replica must still end up equal to its primary.
#[test]
fn all_protocols_conserve_balance_and_quiesce_clean() {
    for protocol in [Protocol::Chiller, Protocol::TwoPhaseLocking, Protocol::Occ] {
        for degree in [None, Some(3)] {
            let cfg = contended_config();
            let mut sim = sim_config(11, 4);
            if let Some(degree) = degree {
                sim.replication.degree = degree;
            }
            let label = format!("{protocol}, replication degree {}", sim.replication.degree);
            let mut cluster = transfer::builder(&cfg, NODES, protocol, sim)
                .build()
                .unwrap();
            let report = cluster.run(RunSpec::millis(1, 10));
            assert!(
                report.total_commits() > 100,
                "{label}: too few commits — {}",
                report.summary()
            );
            cluster.quiesce();
            assert_serializability_invariants(&cluster, &cfg, &label);
        }
    }
}

#[test]
fn identical_seeds_yield_byte_identical_engine_reports() {
    for protocol in [Protocol::Chiller, Protocol::TwoPhaseLocking, Protocol::Occ] {
        let cfg = contended_config();
        let mut a = transfer::builder(&cfg, NODES, protocol, sim_config(42, 3))
            .build()
            .unwrap();
        let mut b = transfer::builder(&cfg, NODES, protocol, sim_config(42, 3))
            .build()
            .unwrap();
        let ra = a.run(RunSpec::millis(1, 8));
        let rb = b.run(RunSpec::millis(1, 8));
        assert_eq!(
            report_bytes(&ra),
            report_bytes(&rb),
            "{protocol}: identical seeds must reproduce byte-identical reports"
        );
        // The comparison must have teeth: a different seed must perturb it.
        let mut c = transfer::builder(&cfg, NODES, protocol, sim_config(43, 3))
            .build()
            .unwrap();
        let rc = c.run(RunSpec::millis(1, 8));
        assert_ne!(
            report_bytes(&ra),
            report_bytes(&rc),
            "{protocol}: seed is being ignored somewhere"
        );
    }
}

/// Build a transfer cluster whose hot set jumps from accounts 0..8 to
/// 200..208 at 3ms, with the online-adaptation loop on (1 ms epochs, every
/// `sample_every`-th commit sampled): by end of run the planner must have
/// detected the new hot set and migrated records.
fn adaptive_shifting_cluster(seed: u64, concurrency: usize, sample_every: u64) -> Cluster {
    let cfg = contended_config();
    let adaptive = AdaptiveConfig {
        epoch: Duration::from_millis(1),
        sample_every,
        min_window_txns: 100,
        ..AdaptiveConfig::default()
    };
    let mut b = transfer::builder(
        &cfg,
        NODES,
        Protocol::Chiller,
        sim_config(seed, concurrency),
    );
    b.adaptive(adaptive)
        .source_per_node(move |_| Box::new(shifting_source(&cfg, SimTime::from_millis(3), 200)));
    b.build().unwrap()
}

#[test]
fn adaptive_migrations_preserve_balance_locks_and_replicas() {
    let mut cluster = adaptive_shifting_cluster(19, 4, 1);
    let report = cluster.run(RunSpec::millis(1, 12));
    assert!(report.total_commits() > 100, "{}", report.summary());
    assert!(
        report.migrations_completed() > 0,
        "the shifted hot set must trigger live migrations \
         (stats: {:?})",
        cluster.adaptive_stats()
    );
    cluster.quiesce();

    // 1. The shared contract — balance conservation across completed
    //    migrations, no leaked locks, no zombie transactions, replicas
    //    matching primaries (including partitions records migrated into
    //    and out of).
    let cfg = contended_config();
    assert_serializability_invariants(&cluster, &cfg, "adaptive migrations");

    // 2. No lost or duplicated records: every account exists exactly once
    //    across the primaries.
    let total_records: usize = cluster
        .engines()
        .iter()
        .map(|e| e.store().num_records())
        .sum();
    assert_eq!(
        total_records, cfg.accounts as usize,
        "records lost or duplicated"
    );

    // 3. No zombie migrations (beyond the shared contract).
    for engine in cluster.engines() {
        assert_eq!(engine.open_migrations(), 0, "zombie migrations");
    }

    // 4. The directory routes every record to the partition that holds it.
    let dir = cluster.directory().expect("adaptive cluster").clone();
    for engine in cluster.engines() {
        let p = engine.store().partition;
        for (table, ts) in engine.store().tables() {
            for (key, _) in ts.iter() {
                let rid = RecordId::new(*table, *key);
                assert_eq!(
                    chiller_storage::placement::Placement::partition_of(&*dir, rid),
                    p,
                    "directory must route {rid} to its owner"
                );
            }
        }
    }
}

#[test]
fn adaptive_runs_are_byte_identical_per_seed() {
    let run = |seed| {
        let mut cluster = adaptive_shifting_cluster(seed, 3, 1);
        let report = cluster.run(RunSpec::millis(1, 10));
        (report_bytes(&report), report.migrations_completed())
    };
    let (a, mig_a) = run(42);
    let (b, _) = run(42);
    assert!(mig_a > 0, "comparison must cover actual migrations");
    assert_eq!(
        a, b,
        "identical seeds must reproduce byte-identical reports with adaptation on"
    );
    let (c, _) = run(43);
    assert_ne!(a, c, "seed is being ignored somewhere in the adaptive path");
}

/// FNV-1a over a string's bytes.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The adaptive loop's outcome pinned bit for bit: per-node reports, the
/// control plane's counters, the directory's entries and its hot set. Two
/// runs: the shifting hot set of the determinism test above, and a longer
/// one with 1-in-2 sampling whose old hot set cools enough to be demoted.
/// A change to what the monitor samples or what the planner computes from
/// the samples moves a digest.
#[test]
fn adaptive_outcomes_are_pinned() {
    let digest = |seed, concurrency, sample_every, measure_ms| {
        let mut cluster = adaptive_shifting_cluster(seed, concurrency, sample_every);
        let report = cluster.run(RunSpec::millis(1, measure_ms));
        let stats = cluster.adaptive_stats();
        let dir = cluster.directory().expect("adaptive cluster");
        let rendered = format!(
            "{:?}|{:?}|{:?}|{:?}",
            report.per_node,
            stats,
            dir.entries_snapshot(),
            dir.hot_snapshot()
        );
        (fnv1a(&rendered), stats)
    };
    let (shift, _) = digest(42, 3, 1, 10);
    let (demoting, stats) = digest(7, 4, 2, 30);
    assert!(
        stats.demotions > 0,
        "the pin must cover demotions: {stats:?}"
    );
    let digests = [shift, demoting];
    assert_eq!(
        digests,
        [0x4e81_302c_e413_5877, 0xfeca_cfff_b2b5_73d6],
        "{digests:#018x?}"
    );
}

/// Determinism regression for the runtime-trait extraction: routing the
/// simulator through the backend-neutral `Runtime`/`Mailbox` surface (and
/// selecting it explicitly via `ClusterBuilder::runtime`) must not perturb
/// a single byte of the per-seed engine reports.
#[test]
fn explicit_sim_backend_is_byte_identical_to_default() {
    for protocol in [Protocol::Chiller, Protocol::TwoPhaseLocking, Protocol::Occ] {
        let cfg = contended_config();
        let mut default_build = transfer::builder(&cfg, NODES, protocol, sim_config(42, 3))
            .build()
            .unwrap();
        let mut explicit = transfer::builder(&cfg, NODES, protocol, sim_config(42, 3));
        explicit.runtime(Backend::Simulated);
        let mut explicit_build = explicit.build().unwrap();
        assert_eq!(explicit_build.backend(), Backend::Simulated);
        let ra = default_build.run(RunSpec::millis(1, 8));
        let rb = explicit_build.run(RunSpec::millis(1, 8));
        assert_eq!(ra.backend, Backend::Simulated);
        assert_eq!(
            report_bytes(&ra),
            report_bytes(&rb),
            "{protocol}: explicit Backend::Simulated must be the same runtime"
        );
    }
}

/// Build a transfer cluster on the simulator with explicit trace and
/// check modes (everything else at the suite's defaults).
fn checked_cluster(protocol: Protocol, seed: u64, trace: TraceMode, check: CheckMode) -> Cluster {
    let mut b = transfer::builder(&contended_config(), NODES, protocol, sim_config(seed, 4));
    b.runtime(Backend::Simulated).trace(trace).check(check);
    b.build().unwrap()
}

/// The black-box serializability checker must certify every protocol's
/// recorded history on a green run — full-history mode and the bounded
/// sliding window both. This is the differential complement of the
/// balance-conservation witness: conservation catches lost money, the
/// checker catches any dependency cycle (including write skew, which a
/// sum invariant can never see).
///
/// The last input is one long phase (no warm-up, so nothing is drained
/// until it ends) that records more than 65 536 observations on one
/// engine: per-engine history logs have no cap, so the verdict must still
/// be complete.
#[test]
fn checker_certifies_every_protocol_on_green_runs() {
    let mut cases: Vec<(Protocol, CheckMode, RunSpec)> = Vec::new();
    for protocol in [Protocol::Chiller, Protocol::TwoPhaseLocking, Protocol::Occ] {
        for check in [CheckMode::Full, CheckMode::Window(64)] {
            cases.push((protocol, check, RunSpec::millis(1, 8)));
        }
    }
    let long_phase = RunSpec::millis(0, LONG_PHASE_MS);
    cases.push((Protocol::Chiller, CheckMode::Full, long_phase));
    for (protocol, check, spec) in cases {
        let mut cluster = checked_cluster(protocol, 11, TraceMode::Off, check);
        let report = cluster.run(spec);
        assert!(
            report.total_commits() > 100,
            "{protocol}: too few commits to certify — {}",
            report.summary()
        );
        let mut history = cluster.take_history();
        let mut per_engine = vec![0usize; NODES];
        for ev in &history.events {
            per_engine[ev.node.0 as usize] += 1;
        }
        let single_phase = spec.warmup == Duration::ZERO;
        if single_phase {
            println!(
                "{protocol} ({check:?}): one {LONG_PHASE_MS} ms phase recorded \
                 {per_engine:?} observations per engine"
            );
        }
        cluster.quiesce();
        assert_serializability_invariants(&cluster, &contended_config(), &protocol.to_string());
        history.events.append(&mut cluster.take_history().events);
        let check_report = chiller_checker::check_history(&history, check);
        assert!(
            check_report.is_complete(),
            "{protocol} ({check:?}): history incomplete — {}",
            check_report.summary()
        );
        assert!(
            check_report.txns as u64 > 100,
            "{protocol} ({check:?}): checker saw almost no transactions — \
             the recording hooks are not firing ({})",
            check_report.summary()
        );
        assert!(
            check_report.ok(),
            "{protocol} ({check:?}): serializability violations on a green run:\n{}",
            check_report
                .violations
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
        assert!(
            !single_phase || per_engine.iter().any(|&n| n > 65_536),
            "the long phase must outgrow a 65 536-event log on one engine: {per_engine:?}"
        );
    }
}

/// History recording must be invisible to the execution: a run with the
/// checker (and tracing) on must be *byte-identical* to the same seed
/// with everything off. Recording uses no RNG, no metrics, and no
/// simulated CPU, so any divergence here means the observation layer
/// perturbed the system under test.
#[test]
fn checked_and_traced_runs_are_byte_identical_to_plain_runs() {
    for protocol in [Protocol::Chiller, Protocol::TwoPhaseLocking, Protocol::Occ] {
        let run = |trace: TraceMode, check: CheckMode| {
            let mut cluster = checked_cluster(protocol, 42, trace, check);
            let report = cluster.run(RunSpec::millis(1, 8));
            report_bytes(&report)
        };
        let plain = run(TraceMode::Off, CheckMode::Off);
        let checked = run(TraceMode::Off, CheckMode::Full);
        assert_eq!(
            plain, checked,
            "{protocol}: history recording perturbed the run"
        );
        let traced_checked = run(TraceMode::Full, CheckMode::Full);
        assert_eq!(
            plain, traced_checked,
            "{protocol}: tracing + checking together perturbed the run"
        );
    }
}

#[test]
fn chiller_throughput_beats_2pl_under_contention() {
    // The hot set is co-located on one partition (what the §4 partitioner
    // produces), so Chiller commits the contended inner region unilaterally
    // while 2PL holds hot locks across full 2PC round trips.
    let run = |protocol: Protocol| {
        let cfg = contended_config();
        let mut cluster = transfer::builder(&cfg, NODES, protocol, sim_config(7, 6))
            .build()
            .unwrap();
        let report = cluster.run(RunSpec::millis(2, 15));
        cluster.quiesce();
        assert_serializability_invariants(&cluster, &cfg, &format!("{protocol} under contention"));
        report
    };
    let chiller = run(Protocol::Chiller);
    let two_pl = run(Protocol::TwoPhaseLocking);
    assert!(
        chiller.throughput() >= two_pl.throughput(),
        "chiller {:.0} txn/s must be >= 2PL {:.0} txn/s under contention",
        chiller.throughput(),
        two_pl.throughput()
    );
}
