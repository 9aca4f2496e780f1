//! Recovery's memory follows the transactions still open in the logs, not
//! how long the cluster ran before it died.
//!
//! Measured without noise: this binary installs a counting allocator, the
//! clusters run on the deterministic simulator, and what is compared is the
//! high-water mark of live heap bytes *during the rebuild* — the load of
//! the initial rows, the streaming scan of the redo logs, resolution, the
//! fresh checkpoints — over what was live when the rebuild began. A
//! recovery that decodes the logs whole grows that mark fourfold when the
//! run is four times as long; the streaming one must not notice.

use chiller::cluster::RunSpec;
use chiller::prelude::*;
use chiller_workload::smallbank::{self, assert_smallbank_invariants_recovered, SmallBankConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, with live bytes and their high-water mark
/// counted (statistics only: `Relaxed` publishes nothing).
struct Counting;

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters never touch the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grew(new_size);
        }
        q
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The counters are process-wide and the harness runs tests on parallel
/// threads, so each test holds this for its whole body.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

const NODES: usize = 4;
const SEED: u64 = 97;
/// Virtual milliseconds of the short run; the long one is four times it.
const WINDOW_MS: u64 = 25;
/// Transactions each engine keeps in flight.
const CONCURRENCY: usize = 4;
/// What a rebuild may allocate over its starting point, whatever the run
/// length. The change that made recovery stream measured 1 584 125 B for
/// the short run and 1 584 120 B for the long one (14.9 MB and 54.8 MB
/// before it); nearly all of it is the stores, the checkpoint buffers and
/// the simulator, which do not depend on the logs.
const REBUILD_BUDGET_BYTES: usize = 2 << 20;
/// Most transactions the scan may hold open at once: what was in flight
/// cluster-wide, with as much again to spare (measured: 18).
const OPEN_TXNS_BUDGET: u64 = 2 * (NODES * CONCURRENCY) as u64;

fn config() -> SmallBankConfig {
    SmallBankConfig {
        accounts: 400,
        hot_accounts: 8,
        hot_fraction: 0.4,
    }
}

fn wal_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("chiller-recmem-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch WAL dir");
    dir
}

fn build(dir: &Path, seed: u64) -> Cluster {
    let mut sim = SimConfig {
        seed,
        ..SimConfig::default()
    };
    sim.engine.concurrency = CONCURRENCY;
    let mut b = smallbank::builder(&config(), NODES, Protocol::Chiller, sim);
    b.durable(dir);
    b.build().unwrap()
}

/// What one run-kill-rebuild measured.
struct Rebuilt {
    commits: u64,
    /// Heap high-water mark during the rebuild, over its starting point.
    peak_bytes: usize,
    recovery: RecoveryReport,
}

/// Run for `millis`, optionally drain, kill, and rebuild on the same
/// directory with the allocator watched. The recovered cluster must still
/// balance its books.
fn run_kill_rebuild(label: &str, millis: u64, quiesce: bool) -> Rebuilt {
    let dir = wal_dir(label);
    let mut cluster = build(&dir, SEED);
    cluster.run(RunSpec::millis(0, millis));
    if quiesce {
        cluster.quiesce();
    }
    let snap = cluster.kill();

    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let mut recovered = build(&dir, SEED + 1);
    let peak_bytes = PEAK.load(Ordering::Relaxed) - before;

    let recovery = recovered
        .recovery()
        .expect("a used directory recovers")
        .clone();
    recovered.quiesce();
    assert_smallbank_invariants_recovered(
        &recovered,
        &config(),
        &[&snap.commits_by_proc, &recovery.recovered_unacked],
        label,
    );
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
    Rebuilt {
        commits: snap.total_commits,
        peak_bytes,
        recovery,
    }
}

#[test]
fn rebuild_memory_does_not_follow_run_length() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let short = run_kill_rebuild("short", WINDOW_MS, true);
    let long = run_kill_rebuild("long", 4 * WINDOW_MS, true);
    eprintln!(
        "short: {} commits, rebuild peak {} B — {}",
        short.commits, short.peak_bytes, short.recovery
    );
    eprintln!(
        "long:  {} commits, rebuild peak {} B — {}",
        long.commits, long.peak_bytes, long.recovery
    );
    assert!(
        long.commits * 10 > short.commits * 35
            && long.recovery.log_bytes_scanned * 10 > short.recovery.log_bytes_scanned * 35,
        "the long run must be about four times the work for the comparison to mean anything"
    );

    // A drained log closes every transaction it opened: nothing in doubt,
    // and never more than a handful open at once however long the log.
    for r in [&short, &long] {
        assert_eq!(r.recovery.in_doubt, 0, "{}", r.recovery);
        assert!(
            r.recovery.open_txns_hwm <= OPEN_TXNS_BUDGET,
            "{}",
            r.recovery
        );
    }
    assert!(
        long.peak_bytes * 2 < short.peak_bytes * 3,
        "rebuild memory grew {} B -> {} B for four times the log",
        short.peak_bytes,
        long.peak_bytes
    );
    assert!(
        long.peak_bytes <= REBUILD_BUDGET_BYTES,
        "rebuild peak {} B is over the {} B budget",
        long.peak_bytes,
        REBUILD_BUDGET_BYTES
    );
}

/// Killed under load, the logs end with transactions genuinely open —
/// decided but not acked, redo not yet logged — and recovery has to carry
/// those to the end of the scan. They are bounded by what was in flight,
/// so the budget holds all the same.
#[test]
fn mid_run_kill_stays_inside_the_budget() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let r = run_kill_rebuild("midrun", 4 * WINDOW_MS, false);
    eprintln!(
        "mid-run: {} commits, rebuild peak {} B — {}",
        r.commits, r.peak_bytes, r.recovery
    );
    assert!(
        r.recovery.in_doubt > 0,
        "a kill under load leaves transactions in doubt — {}",
        r.recovery
    );
    assert!(
        r.recovery.in_doubt <= (NODES * CONCURRENCY) as u64,
        "more in doubt than were ever in flight — {}",
        r.recovery
    );
    assert!(
        r.recovery.open_txns_hwm <= OPEN_TXNS_BUDGET,
        "{}",
        r.recovery
    );
    assert!(
        r.peak_bytes <= REBUILD_BUDGET_BYTES,
        "rebuild peak {} B is over the {} B budget",
        r.peak_bytes,
        REBUILD_BUDGET_BYTES
    );
}
