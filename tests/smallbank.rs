//! SmallBank certification suite: the write-heavy banking mix under the
//! black-box serializability checker, per execution backend.
//!
//! SmallBank is the checker's natural certification target: the mix is
//! write-heavy on a small hot set, includes read-modify-write (WriteCheck),
//! read-only (Balance), guarded (SendPayment), and multi-record sweep
//! (Amalgamate) shapes — i.e. every dependency-edge kind the checker
//! builds. Each backend's run must uphold the countable conservation
//! invariant *and* certify serializable from its recorded history.

use chiller::cluster::RunSpec;
use chiller::prelude::*;
use chiller_workload::smallbank::{self, assert_smallbank_invariants, SmallBankConfig};

const NODES: usize = 4;

fn contended_config() -> SmallBankConfig {
    SmallBankConfig {
        accounts: 400,
        hot_accounts: 8,
        hot_fraction: 0.4,
    }
}

fn sim_config(seed: u64) -> SimConfig {
    let mut sim = SimConfig {
        seed,
        ..SimConfig::default()
    };
    sim.engine.concurrency = 4;
    sim
}

/// Simulated backend, all protocols, full-history check.
#[test]
fn smallbank_certifies_on_the_simulator() {
    for protocol in [Protocol::Chiller, Protocol::TwoPhaseLocking, Protocol::Occ] {
        let cfg = contended_config();
        let mut b = smallbank::builder(&cfg, NODES, protocol, sim_config(13));
        b.check(CheckMode::Full);
        let mut cluster = b.build().unwrap();
        let report = cluster.run(RunSpec::millis(0, 8));
        assert!(
            report.total_commits() > 100,
            "{protocol}: too few commits — {}",
            report.summary()
        );
        cluster.quiesce();
        assert_smallbank_invariants(&cluster, &cfg, &format!("{protocol} (sim)"));
        cluster.expect_serializable(&format!("smallbank {protocol} (sim)"));
    }
}

/// Threaded backend (one OS thread per engine), all protocols, full
/// check: wall-clock interleavings.
#[test]
fn smallbank_certifies_on_the_threaded_backend() {
    for protocol in [Protocol::Chiller, Protocol::TwoPhaseLocking, Protocol::Occ] {
        let cfg = contended_config();
        let mut b = smallbank::builder(&cfg, NODES, protocol, sim_config(17));
        b.runtime(Backend::Threaded).check(CheckMode::Full);
        let mut cluster = b.build().unwrap();
        let report = cluster.run(RunSpec::millis(0, 100));
        assert!(
            report.total_commits() > 0,
            "threaded smallbank {protocol} committed nothing — {}",
            report.summary()
        );
        cluster.quiesce();
        assert_smallbank_invariants(&cluster, &cfg, &format!("{protocol} (threaded)"));
        cluster.expect_serializable(&format!("smallbank {protocol} (threaded)"));
    }
}

/// Async worker-pool backend, full check.
#[test]
fn smallbank_certifies_on_the_async_backend() {
    let cfg = contended_config();
    let mut b = smallbank::builder(&cfg, NODES, Protocol::Chiller, sim_config(19));
    b.runtime(Backend::Async).check(CheckMode::Full);
    let mut cluster = b.build().unwrap();
    let report = cluster.run(RunSpec::millis(0, 100));
    assert!(
        report.total_commits() > 0,
        "async smallbank committed nothing — {}",
        report.summary()
    );
    cluster.quiesce();
    assert_smallbank_invariants(&cluster, &cfg, "chiller (async)");
    cluster.expect_serializable("smallbank chiller (async)");
}

/// A checked SmallBank run on the simulator is byte-identical to an
/// unchecked one (the observation layer must not perturb the system).
#[test]
fn smallbank_checked_run_is_byte_identical_to_unchecked() {
    let run = |check: CheckMode| {
        let cfg = contended_config();
        let mut b = smallbank::builder(&cfg, NODES, Protocol::Chiller, sim_config(23));
        b.check(check);
        let mut cluster = b.build().unwrap();
        let report = cluster.run(RunSpec::millis(0, 8));
        format!("{:?}", report.per_node)
    };
    assert_eq!(
        run(CheckMode::Off),
        run(CheckMode::Full),
        "history recording perturbed the smallbank run"
    );
}
