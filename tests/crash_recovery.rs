//! Crash-injection and recovery certification suite.
//!
//! Each scenario runs a durable cluster into the middle of a loaded
//! window, kills it at a [`CrashPlan`] point (WALs flushed, no
//! checkpoint — exactly what a kill-at-flush-boundary crash leaves on
//! disk), then rebuilds against the same directory and demands:
//!
//! 1. the pre-kill history itself certifies serializable (the crash
//!    cannot retroactively excuse an anomaly);
//! 2. recovery runs (checkpoint/initial-load + redo replay + in-doubt
//!    resolution + repair) and reports what it did;
//! 3. every write an *acked* pre-kill commit installed survives into the
//!    recovered stores at (at least) the version it installed — the
//!    durability contract;
//! 4. the recovered cluster keeps committing, and the workload's domain
//!    invariants hold across the crash — SmallBank's conservation check
//!    folds in the pre-kill acked counts plus the commits recovery
//!    resolved that were never acked;
//! 5. the post-restart history certifies serializable too (the checker
//!    treats recovered versions it never saw written as initial state).
//!
//! Covered: mid-TPC-C and mid-SmallBank kills on all three backends,
//! every protocol on the simulator and the threaded backend, a
//! double-crash epoch walk, a kill
//! after a clean drain (nothing left in doubt), and the off-path contract
//! (durability on vs. off is byte-identical on the deterministic
//! simulator).

use chiller::cluster::RunSpec;
use chiller::prelude::*;
use chiller_checker::check_history;
use chiller_obs::HistoryEventKind;
use chiller_workload::smallbank::{
    self, assert_smallbank_invariants, assert_smallbank_invariants_recovered, SmallBankConfig,
};
use chiller_workload::tpcc::{self, assert_tpcc_invariants, TpccConfig, TpccMix};
use std::collections::HashSet;
use std::path::PathBuf;

const NODES: usize = 4;

/// Unique scratch WAL directory per scenario (process-qualified so
/// concurrently running test binaries never share logs); recreated empty.
fn wal_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("chiller-crash-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch WAL dir");
    dir
}

fn sim_config(seed: u64) -> SimConfig {
    let mut sim = SimConfig {
        seed,
        ..SimConfig::default()
    };
    sim.engine.concurrency = 4;
    sim
}

fn contended_config() -> SmallBankConfig {
    SmallBankConfig {
        accounts: 400,
        hot_accounts: 8,
        hot_fraction: 0.4,
    }
}

/// The history the dead cluster left behind must certify serializable,
/// with nothing dropped — a crash is not an excuse for an anomaly.
fn certify_prekill(snap: &CrashSnapshot, label: &str) {
    let rep = check_history(&snap.history, CheckMode::Full);
    assert!(
        rep.is_complete(),
        "{label}: pre-kill history dropped {} events",
        rep.events_dropped
    );
    assert!(
        rep.ok(),
        "{label}: pre-kill anomalies: {:?}",
        rep.violations
    );
}

/// The durability contract: every write installed by a commit that was
/// acked before the kill must be present in the recovered stores — i.e.
/// each written record's recovered version chain reaches at least the
/// version that write installed. Checked *before* the recovered cluster
/// runs any new transactions.
fn assert_acked_writes_survive(snap: &CrashSnapshot, recovered: &chiller::Cluster, label: &str) {
    let acked: HashSet<TxnId> = snap
        .history
        .events
        .iter()
        .filter_map(|e| match e.kind {
            HistoryEventKind::Commit { txn } => Some(txn),
            _ => None,
        })
        .collect();
    let mut checked = 0u64;
    for e in &snap.history.events {
        if let HistoryEventKind::WriteObs {
            txn,
            record,
            version,
        } = e.kind
        {
            if !acked.contains(&txn) {
                continue;
            }
            let recovered_v = recovered
                .engines()
                .iter()
                .map(|eng| eng.store().record_version(record))
                .max()
                .unwrap_or(0);
            assert!(
                recovered_v >= version,
                "{label}: acked write {record:?} v{version} by {txn:?} lost \
                 (recovered chain stops at v{recovered_v})"
            );
            checked += 1;
        }
    }
    assert!(
        checked > 0,
        "{label}: no acked writes before the kill — the crash landed too early to test anything"
    );
}

/// Kill a TPC-C run mid-window, recover, keep going, audit everything.
fn tpcc_crash_recover(
    protocol: Protocol,
    backend: Backend,
    seed: u64,
    window_ms: u64,
    label: &str,
) {
    eprintln!("crash scenario: {label}");
    let dir = wal_dir(label);
    let cfg = TpccConfig::with_warehouses(4);
    let kill_at = CrashPlan::new(seed).kill_point(0, Duration::from_millis(window_ms));

    let mut b = tpcc::builder(&cfg, TpccMix::default(), protocol, sim_config(seed));
    b.runtime(backend).check(CheckMode::Full).durable(&dir);
    let mut c1 = b.build().unwrap();
    assert!(c1.durable(), "{label}: cluster must be durable");
    let r1 = c1.run_more(kill_at);
    assert!(
        r1.total_commits() > 0,
        "{label}: nothing committed before the kill — {}",
        r1.summary()
    );
    let snap = c1.kill();
    certify_prekill(&snap, label);

    let mut b = tpcc::builder(&cfg, TpccMix::default(), protocol, sim_config(seed + 1));
    b.runtime(backend).check(CheckMode::Full).durable(&dir);
    let mut c2 = b.build().unwrap();
    let rec = c2
        .recovery()
        .expect("rebuild against a populated WAL dir must recover")
        .clone();
    assert_eq!(rec.epoch, 1, "{label}: first recovery bumps to epoch 1");
    assert!(
        rec.writes_replayed > 0,
        "{label}: a mid-run kill must leave redo to replay — {rec}"
    );
    assert_acked_writes_survive(&snap, &c2, label);

    let r2 = c2.run(RunSpec::millis(0, window_ms));
    assert!(
        r2.total_commits() > 0,
        "{label}: recovered cluster committed nothing — {}",
        r2.summary()
    );
    c2.quiesce();
    assert_tpcc_invariants(&c2, &cfg, label);
    c2.expect_serializable(label);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Kill a SmallBank run mid-window, recover, keep going; conservation
/// must hold across both incarnations (live counters + pre-kill acked
/// counts + recovered-but-never-acked commits).
fn smallbank_crash_recover(
    protocol: Protocol,
    backend: Backend,
    seed: u64,
    window_ms: u64,
    label: &str,
) {
    let dir = wal_dir(label);
    let cfg = contended_config();
    let kill_at = CrashPlan::new(seed).kill_point(0, Duration::from_millis(window_ms));

    let mut b = smallbank::builder(&cfg, NODES, protocol, sim_config(seed));
    b.runtime(backend).check(CheckMode::Full).durable(&dir);
    let mut c1 = b.build().unwrap();
    let r1 = c1.run_more(kill_at);
    assert!(
        r1.total_commits() > 0,
        "{label}: nothing committed before the kill — {}",
        r1.summary()
    );
    let snap = c1.kill();
    certify_prekill(&snap, label);

    let mut b = smallbank::builder(&cfg, NODES, protocol, sim_config(seed + 1));
    b.runtime(backend).check(CheckMode::Full).durable(&dir);
    let mut c2 = b.build().unwrap();
    let rec = c2
        .recovery()
        .expect("rebuild against a populated WAL dir must recover")
        .clone();
    assert_eq!(rec.epoch, 1, "{label}: first recovery bumps to epoch 1");
    assert_acked_writes_survive(&snap, &c2, label);

    let r2 = c2.run(RunSpec::millis(0, window_ms));
    assert!(
        r2.total_commits() > 0,
        "{label}: recovered cluster committed nothing — {}",
        r2.summary()
    );
    c2.quiesce();
    assert_smallbank_invariants_recovered(
        &c2,
        &cfg,
        &[&snap.commits_by_proc, &rec.recovered_unacked],
        label,
    );
    c2.expect_serializable(label);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Simulated backend: every protocol survives a mid-TPC-C kill.
#[test]
fn tpcc_crash_recovery_all_protocols_sim() {
    for (i, protocol) in [Protocol::Chiller, Protocol::TwoPhaseLocking, Protocol::Occ]
        .into_iter()
        .enumerate()
    {
        tpcc_crash_recover(
            protocol,
            Backend::Simulated,
            41 + i as u64,
            10,
            &format!("tpcc-crash-sim-{protocol}"),
        );
    }
}

/// Threaded backend: every protocol survives a mid-TPC-C kill under real
/// OS-thread interleaving.
#[test]
fn tpcc_crash_recovery_threaded() {
    for (i, protocol) in [Protocol::Chiller, Protocol::TwoPhaseLocking, Protocol::Occ]
        .into_iter()
        .enumerate()
    {
        tpcc_crash_recover(
            protocol,
            Backend::Threaded,
            47 + 100 * i as u64,
            60,
            &format!("tpcc-crash-threaded-{protocol}"),
        );
    }
}

/// Async worker-pool backend: a mid-TPC-C kill while 4 partitions are
/// multiplexed over the pool.
#[test]
fn tpcc_crash_recovery_async() {
    tpcc_crash_recover(
        Protocol::Chiller,
        Backend::Async,
        53,
        60,
        "tpcc-crash-async",
    );
}

/// Simulated backend: SmallBank conservation across a kill.
#[test]
fn smallbank_crash_recovery_sim() {
    smallbank_crash_recover(
        Protocol::Chiller,
        Backend::Simulated,
        59,
        10,
        "smallbank-crash-sim",
    );
}

/// Threaded backend: SmallBank conservation across a kill, every protocol.
#[test]
fn smallbank_crash_recovery_threaded() {
    for (i, protocol) in [Protocol::Chiller, Protocol::TwoPhaseLocking, Protocol::Occ]
        .into_iter()
        .enumerate()
    {
        smallbank_crash_recover(
            protocol,
            Backend::Threaded,
            61 + 100 * i as u64,
            60,
            &format!("smallbank-crash-threaded-{protocol}"),
        );
    }
}

/// Async backend: SmallBank conservation across a kill.
#[test]
fn smallbank_crash_recovery_async() {
    smallbank_crash_recover(
        Protocol::Chiller,
        Backend::Async,
        67,
        60,
        "smallbank-crash-async",
    );
}

/// Two crashes back to back: each recovery bumps the epoch (so restarted
/// engines mint TxnIds no dead incarnation could have used), and the
/// conservation ledger folds in both incarnations' acked counts and both
/// recoveries' unacked commits.
#[test]
fn double_crash_walks_the_epoch_chain() {
    let dir = wal_dir("smallbank-double-crash");
    let cfg = contended_config();
    let plan = CrashPlan::new(71);

    let mut b = smallbank::builder(&cfg, NODES, Protocol::Chiller, sim_config(71));
    b.check(CheckMode::Full).durable(&dir);
    let mut c1 = b.build().unwrap();
    c1.run_more(plan.kill_point(0, Duration::from_millis(10)));
    let snap1 = c1.kill();
    certify_prekill(&snap1, "double-crash (first)");

    let mut b = smallbank::builder(&cfg, NODES, Protocol::Chiller, sim_config(72));
    b.check(CheckMode::Full).durable(&dir);
    let mut c2 = b.build().unwrap();
    let rec1 = c2.recovery().expect("first recovery").clone();
    assert_eq!(rec1.epoch, 1);
    c2.run_more(plan.kill_point(1, Duration::from_millis(10)));
    let snap2 = c2.kill();
    certify_prekill(&snap2, "double-crash (second)");

    let mut b = smallbank::builder(&cfg, NODES, Protocol::Chiller, sim_config(73));
    b.check(CheckMode::Full).durable(&dir);
    let mut c3 = b.build().unwrap();
    let rec2 = c3.recovery().expect("second recovery").clone();
    assert_eq!(rec2.epoch, 2, "second recovery bumps to epoch 2");
    assert_acked_writes_survive(&snap2, &c3, "double-crash");

    let r3 = c3.run(RunSpec::millis(0, 10));
    assert!(r3.total_commits() > 0, "{}", r3.summary());
    c3.quiesce();
    assert_smallbank_invariants_recovered(
        &c3,
        &cfg,
        &[
            &snap1.commits_by_proc,
            &rec1.recovered_unacked,
            &snap2.commits_by_proc,
            &rec2.recovered_unacked,
        ],
        "double-crash",
    );
    c3.expect_serializable("double-crash");

    let _ = std::fs::remove_dir_all(&dir);
}

/// A drained cluster has closed every transaction it opened — commits by
/// an `Ack`, two-region attempts given up after their provisional `Decide`
/// by an `Abort` mark — so a kill after `quiesce` leaves recovery nothing
/// to resolve, on any backend.
#[test]
fn clean_quiesce_leaves_nothing_in_doubt() {
    let cfg = contended_config();
    for (backend, seed, window_ms) in [
        (Backend::Simulated, 79, 10),
        (Backend::Threaded, 83, 60),
        (Backend::Async, 89, 60),
    ] {
        let label = format!("smallbank-quiesced-{backend:?}");
        let dir = wal_dir(&label);
        let build = |seed| {
            let mut b = smallbank::builder(&cfg, NODES, Protocol::Chiller, sim_config(seed));
            b.runtime(backend).durable(&dir);
            b.build().unwrap()
        };
        let mut c1 = build(seed);
        let r1 = c1.run(RunSpec::millis(0, window_ms));
        assert!(r1.total_commits() > 0, "{label}: {}", r1.summary());
        c1.quiesce();
        let snap = c1.kill();

        let c2 = build(seed + 1);
        let rec = c2.recovery().expect("rebuild must recover").clone();
        assert!(rec.records_scanned > 0, "{label}: {rec}");
        assert_eq!(rec.in_doubt, 0, "{label}: {rec}");
        assert_eq!(rec.writes_repaired, 0, "{label}: {rec}");
        assert_smallbank_invariants_recovered(&c2, &cfg, &[&snap.commits_by_proc], &label);

        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The off-path contract: on the deterministic simulator, the same seed
/// produces the identical execution — event for event — whether
/// durability is on or off. Logging rides the commit path without
/// perturbing it.
#[test]
fn durability_is_invisible_to_the_simulation() {
    let cfg = contended_config();
    let run = |durable: Option<&std::path::Path>| {
        let mut b = smallbank::builder(&cfg, NODES, Protocol::Chiller, sim_config(29));
        b.check(CheckMode::Full);
        if let Some(dir) = durable {
            b.durable(dir);
        }
        let mut cluster = b.build().unwrap();
        let report = cluster.run(RunSpec::millis(0, 8));
        cluster.quiesce();
        assert_smallbank_invariants(&cluster, &cfg, "durability-off-path");
        let history = cluster.take_history();
        (report.total_commits(), report.total_aborts(), history)
    };

    let dir = wal_dir("smallbank-offpath");
    let (commits_on, aborts_on, history_on) = run(Some(&dir));
    let (commits_off, aborts_off, history_off) = run(None);

    assert_eq!(commits_on, commits_off, "durability changed commit count");
    assert_eq!(aborts_on, aborts_off, "durability changed abort count");
    assert_eq!(
        history_on.events, history_off.events,
        "durability perturbed the simulated execution"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
