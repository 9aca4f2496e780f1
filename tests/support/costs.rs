//! The repo's exact costs, in one table, shared by the binaries that check
//! them (`tests/store_memory.rs`, `tests/recovery_memory.rs`,
//! `tests/costs.rs`).
//!
//! Wall-clock figures spread wider than most changes move them; these do
//! not. A counting allocator (requested bytes, not resident ones, counted
//! per thread) and the deterministic simulator make every figure repeat
//! exactly, in dev and release alike. Each input runs on the test thread
//! that asked for it, so it counts only itself, whatever else the harness
//! runs at the same time: the store, the commit-path recipe on transfers,
//! TPC-C and SmallBank (commits and aborts pinned: a change that moves
//! those changed the execution, not its cost), and three durable runs
//! killed and rebuilt.
//!
//! A row's group is its name up to the last dot, and one input measures
//! each group. [`check`] measures the groups a test names and prints their
//! rows in table order as `cost <name> <measured> budget|pinned <bound>`,
//! so a change's output shows its before and after. A row over its budget
//! or off its pin fails; a row under its budget asks for the budget to be
//! lowered.

use chiller::cluster::RunSpec;
use chiller::prelude::*;
use chiller_simnet::NetStats;
use chiller_storage::{LockMode, PartitionStore};
use chiller_workload::smallbank::{self, assert_smallbank_invariants_recovered, SmallBankConfig};
use chiller_workload::tpcc::{self, TpccConfig, TpccMix};
use chiller_workload::transfer::{self, TransferConfig, ACCOUNTS};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;
use std::fmt::Write;
use std::path::Path;

/// A row's bound.
#[derive(Clone, Copy)]
enum Bound {
    /// The most the row may measure.
    Budget(f64),
    /// What the row must measure exactly.
    Pinned(f64),
}
use Bound::{Budget, Pinned};

/// Every gated cost. Per-commit and per-record figures are rounded to
/// 0.01; each bound is what the row measured when it was set.
#[rustfmt::skip]
const TABLE: &[(&str, Bound)] = &[
    ("store.load.bytes_per_record",                Budget(204.66)),
    ("store.quartet.allocs",                       Pinned(1.0)),

    ("transfer.chiller.hot30.commits",             Pinned(20_490.0)),
    ("transfer.chiller.hot30.aborts",              Pinned(136.0)),
    ("transfer.chiller.hot30.allocs_per_commit",   Budget(24.76)),
    ("transfer.chiller.hot30.bytes_per_commit",    Budget(1_311.58)),
    ("transfer.chiller.hot30.msgs_per_commit",     Budget(9.10)),
    ("transfer.chiller.hot30.events_per_commit",   Budget(12.24)),
    ("transfer.chiller.hot0.commits",              Pinned(26_734.0)),
    ("transfer.chiller.hot0.aborts",               Pinned(521.0)),
    ("transfer.chiller.hot0.allocs_per_commit",    Budget(26.49)),
    ("transfer.chiller.hot0.bytes_per_commit",     Budget(1_386.23)),
    ("transfer.chiller.hot0.msgs_per_commit",      Budget(11.34)),
    ("transfer.chiller.hot0.events_per_commit",    Budget(15.39)),
    ("transfer.2pl.hot30.commits",                 Pinned(17_330.0)),
    ("transfer.2pl.hot30.aborts",                  Pinned(6_892.0)),
    ("transfer.2pl.hot30.allocs_per_commit",       Budget(24.61)),
    ("transfer.2pl.hot30.bytes_per_commit",        Budget(1_405.97)),
    ("transfer.2pl.hot30.msgs_per_commit",         Budget(10.50)),
    ("transfer.2pl.hot30.events_per_commit",       Budget(13.41)),
    ("transfer.2pl.hot0.commits",                  Pinned(26_734.0)),
    ("transfer.2pl.hot0.aborts",                   Pinned(521.0)),
    ("transfer.2pl.hot0.allocs_per_commit",        Budget(24.45)),
    ("transfer.2pl.hot0.bytes_per_commit",         Budget(1_367.88)),
    ("transfer.2pl.hot0.msgs_per_commit",          Budget(11.34)),
    ("transfer.2pl.hot0.events_per_commit",        Budget(15.39)),
    ("transfer.occ.hot30.commits",                 Pinned(11_216.0)),
    ("transfer.occ.hot30.aborts",                  Pinned(5_627.0)),
    ("transfer.occ.hot30.allocs_per_commit",       Budget(33.82)),
    ("transfer.occ.hot30.bytes_per_commit",        Budget(1_962.38)),
    ("transfer.occ.hot30.msgs_per_commit",         Budget(14.94)),
    ("transfer.occ.hot30.events_per_commit",       Budget(17.67)),
    ("transfer.occ.hot0.commits",                  Pinned(23_546.0)),
    ("transfer.occ.hot0.aborts",                   Pinned(626.0)),
    ("transfer.occ.hot0.allocs_per_commit",        Budget(29.52)),
    ("transfer.occ.hot0.bytes_per_commit",         Budget(1_622.83)),
    ("transfer.occ.hot0.msgs_per_commit",          Budget(15.24)),
    ("transfer.occ.hot0.events_per_commit",        Budget(19.82)),

    ("tpcc.chiller.commits",                       Pinned(14_961.0)),
    ("tpcc.chiller.aborts",                        Pinned(88.0)),
    ("tpcc.chiller.allocs_per_commit",             Budget(74.58)),
    ("tpcc.chiller.bytes_per_commit",              Budget(13_527.91)),
    ("tpcc.chiller.msgs_per_commit",               Budget(4.64)),
    ("tpcc.chiller.events_per_commit",             Budget(9.07)),
    ("tpcc.chiller.retained_bytes_per_commit",     Budget(3_328.69)),
    ("smallbank.chiller.commits",                  Pinned(19_922.0)),
    ("smallbank.chiller.aborts",                   Pinned(154.0)),
    ("smallbank.chiller.allocs_per_commit",        Budget(25.19)),
    ("smallbank.chiller.bytes_per_commit",         Budget(1_298.25)),
    ("smallbank.chiller.msgs_per_commit",          Budget(7.06)),
    ("smallbank.chiller.events_per_commit",        Budget(9.75)),

    ("recovery.short.commits",                     Pinned(14_001.0)),
    ("recovery.short.log_bytes_scanned",           Budget(2_698_159.0)),
    ("recovery.short.rebuild_peak_bytes",          Budget(701_459.0)),
    ("recovery.short.open_txns_hwm",               Budget(18.0)),
    ("recovery.short.in_doubt",                    Budget(0.0)),
    ("recovery.short.wal_records_per_commit",      Budget(3.95)),
    ("recovery.short.wal_bytes_per_commit",        Budget(192.63)),
    ("recovery.long.commits",                      Pinned(54_485.0)),
    ("recovery.long.log_bytes_scanned",            Budget(10_501_782.0)),
    ("recovery.long.rebuild_peak_bytes",           Budget(701_454.0)),
    ("recovery.long.open_txns_hwm",                Budget(18.0)),
    ("recovery.long.in_doubt",                     Budget(0.0)),
    ("recovery.long.wal_records_per_commit",       Budget(3.98)),
    ("recovery.long.wal_bytes_per_commit",         Budget(192.72)),
    ("recovery.midrun.commits",                    Pinned(54_485.0)),
    ("recovery.midrun.log_bytes_scanned",          Budget(10_500_341.0)),
    ("recovery.midrun.rebuild_peak_bytes",         Budget(701_853.0)),
    ("recovery.midrun.open_txns_hwm",              Budget(18.0)),
    ("recovery.midrun.in_doubt",                   Budget(16.0)),
    ("recovery.midrun.wal_records_per_commit",     Budget(3.98)),
    ("recovery.midrun.wal_bytes_per_commit",       Budget(192.72)),
];

/// One measured row, named within its group.
type Row = (&'static str, f64);

/// What measures one group of rows.
type Input = fn() -> Vec<Row>;

/// The input that measures each group of rows.
#[rustfmt::skip]
const INPUTS: &[(&str, Input)] = &[
    ("store.load", store_load),
    ("store.quartet", store_quartet),
    ("transfer.chiller.hot30", || transfer_path(Protocol::Chiller, 0.3)),
    ("transfer.chiller.hot0", || transfer_path(Protocol::Chiller, 0.0)),
    ("transfer.2pl.hot30", || transfer_path(Protocol::TwoPhaseLocking, 0.3)),
    ("transfer.2pl.hot0", || transfer_path(Protocol::TwoPhaseLocking, 0.0)),
    ("transfer.occ.hot30", || transfer_path(Protocol::Occ, 0.3)),
    ("transfer.occ.hot0", || transfer_path(Protocol::Occ, 0.0)),
    ("tpcc.chiller", tpcc_path),
    ("smallbank.chiller", smallbank_path),
    ("recovery.short", || run_kill_rebuild("short", WINDOW_MS, true)),
    ("recovery.long", || run_kill_rebuild("long", 4 * WINDOW_MS, true)),
    ("recovery.midrun", || run_kill_rebuild("midrun", 4 * WINDOW_MS, false)),
];

fn group_of(name: &str) -> &str {
    name.rsplit_once('.').map_or(name, |(group, _)| group)
}

/// Measure `groups` one after another on the calling thread, then check
/// and print their rows. Fails if a row is over its budget or off its pin,
/// if a measured row has no line in the table, or if a line of the table
/// (in any group) has no input. Returns each checked row's value by its
/// full name.
pub fn check(groups: &[&str]) -> HashMap<String, f64> {
    let mut failures = Vec::new();
    for &(name, _) in TABLE {
        if !INPUTS.iter().any(|&(group, _)| group == group_of(name)) {
            failures.push(format!("{name}: no input measures it"));
        }
    }
    let mut measured = HashMap::new();
    for &group in groups {
        let &(_, input) = INPUTS
            .iter()
            .find(|&&(g, _)| g == group)
            .unwrap_or_else(|| panic!("no input measures {group}"));
        measured.extend(
            input()
                .into_iter()
                .map(|(what, v)| (format!("{group}.{what}"), v)),
        );
    }
    for name in measured.keys() {
        if !TABLE.iter().any(|&(n, _)| n == name) {
            failures.push(format!("{name}: measured, but the table has no row"));
        }
    }

    let mut printed = String::new();
    let rows = TABLE
        .iter()
        .filter(|(name, _)| groups.contains(&group_of(name)));
    for &(name, bound) in rows {
        let Some(&value) = measured.get(name) else {
            failures.push(format!("{name}: its input does not measure it"));
            continue;
        };
        let (kind, limit, holds) = match bound {
            Budget(b) => ("budget", b, value <= b),
            Pinned(p) => ("pinned", p, value == p),
        };
        let under = holds && value < limit;
        let note = if under {
            "  (under: lower the budget)"
        } else {
            ""
        };
        writeln!(printed, "cost {name:<42} {value:>10} {kind} {limit}{note}").unwrap();
        if !holds {
            failures.push(format!("{name}: measured {value}, {kind} {limit}"));
        }
    }
    print!("{printed}");
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
    measured
}

/// What the calling thread has allocated.
#[derive(Clone, Copy)]
struct Counts {
    /// Heap bytes it holds.
    live: isize,
    /// The high-water mark of `live` since [`measure`] last reset it.
    peak: isize,
    /// Allocations (and reallocations) it made.
    allocs: u64,
    /// Bytes those allocations asked for.
    requested: u64,
}

thread_local! {
    static COUNTS: Cell<Counts> = const {
        Cell::new(Counts { live: 0, peak: 0, allocs: 0, requested: 0 })
    };
}

fn count(f: impl FnOnce(&mut Counts)) -> Counts {
    COUNTS.with(|c| {
        let mut n = c.get();
        f(&mut n);
        c.set(n);
        n
    })
}

fn grew(by: usize) {
    count(|n| {
        n.live += by as isize;
        n.peak = n.peak.max(n.live);
        n.allocs += 1;
        n.requested += by as u64;
    });
}

fn shrank(by: usize) {
    count(|n| n.live -= by as isize);
}

/// The system allocator, with each thread's allocations counted.
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters (a const-initialised thread local
// without a destructor, so touching it never allocates) never touch the
// memory handed out.
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
        shrank(layout.size());
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            shrank(layout.size());
            grew(new_size);
        }
        q
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What `f` cost the calling thread: the live bytes it left behind (what
/// it returned included), its high-water mark over where it started, and
/// the allocations and bytes it asked for.
fn measure<T>(f: impl FnOnce() -> T) -> (T, Counts) {
    let before = count(|n| n.peak = n.live);
    let out = f();
    let after = count(|_| {});
    let spent = Counts {
        live: after.live - before.live,
        peak: after.peak - before.live,
        allocs: after.allocs - before.allocs,
        requested: after.requested - before.requested,
    };
    (out, spent)
}

/// `x / n`, rounded to 0.01.
fn per(x: f64, n: u64) -> f64 {
    (x / n as f64 * 100.0).round() / 100.0
}

const ACCOUNTS_LOADED: u64 = 200_000;

/// 200 000 transfer accounts (two columns each, the `cold_uniform` shape)
/// loaded into one `PartitionStore`.
fn loaded() -> PartitionStore {
    let cfg = TransferConfig {
        accounts: ACCOUNTS_LOADED,
        ..TransferConfig::default()
    };
    let mut store = PartitionStore::new(PartitionId(0), TransferConfig::schema());
    for (rid, row) in cfg.initial_records() {
        store.load(rid, row);
    }
    assert_eq!(store.num_records(), ACCOUNTS_LOADED as usize);
    store
}

/// What the heap holds after the load, over what it held before, per
/// record: the row, the record's slot, its share of the bucket table.
fn store_load() -> Vec<Row> {
    let (_store, load) = measure(loaded);
    vec![("bytes_per_record", per(load.live as f64, ACCOUNTS_LOADED))]
}

/// Lock, read and copy, write back, unlock, on four keys of the loaded
/// store: the copy is the only allocation, whichever the key.
fn store_quartet() -> Vec<Row> {
    let mut store = loaded();
    let txn = TxnId::new(NodeId(0), 1);
    let mut quartet = Vec::new();
    for (i, key) in [0, 7, 123_456, ACCOUNTS_LOADED - 1].into_iter().enumerate() {
        let (rid, now) = (RecordId::new(ACCOUNTS, key), SimTime(i as u64));
        let ((), spent) = measure(|| {
            store.try_lock(rid, txn, LockMode::Exclusive, now).unwrap();
            let row = store.read(rid).unwrap().clone();
            store.write(rid, row);
            assert!(store.unlock(rid, txn, now).is_some());
        });
        quartet.push(spent.allocs as f64);
    }
    assert!(store.all_locks_free());
    quartet.dedup();
    assert_eq!(quartet.len(), 1, "the quartet's cost depends on the key");
    vec![("allocs", quartet[0])]
}

/// The default simulator, with `concurrency` transactions in flight per
/// engine.
fn sim(seed: u64, concurrency: usize) -> SimConfig {
    let mut sim = SimConfig {
        seed,
        ..SimConfig::default()
    };
    sim.engine.concurrency = concurrency;
    sim
}

/// The commit-path recipe: build on a simulator seeded 42 with 4
/// transactions in flight per engine, warm up for 1 ms of virtual time,
/// clear the metrics, then count what the next 20 ms cost per commit.
/// `NetStats` covers the whole run, so the window's messages and events
/// are the difference between the two reports. `retained` adds the heap
/// the window kept per commit.
fn commit_path(retained: bool, builder: impl FnOnce(SimConfig) -> ClusterBuilder) -> Vec<Row> {
    let mut cluster = builder(sim(42, 4)).build().unwrap();
    let warm = cluster.run(RunSpec::millis(1, 1)).net;
    cluster.reset_metrics();
    let (report, spent) = measure(|| cluster.run_more(Duration::from_millis(20)));
    let n = report.total_commits();
    let msgs = |s: &NetStats| s.one_sided_msgs + s.rpc_msgs + s.local_msgs;
    let msgs = (msgs(&report.net) - msgs(&warm)) as f64;
    let events = (report.net.events_processed - warm.events_processed) as f64;
    let mut rows = vec![
        ("commits", n as f64),
        ("aborts", report.total_aborts() as f64),
        ("allocs_per_commit", per(spent.allocs as f64, n)),
        ("bytes_per_commit", per(spent.requested as f64, n)),
        ("msgs_per_commit", per(msgs, n)),
        ("events_per_commit", per(events, n)),
    ];
    if retained {
        rows.push(("retained_bytes_per_commit", per(spent.live as f64, n)));
    }
    rows
}

/// Transfers over 2 000 accounts with 8 hot ones, on 8 nodes.
fn transfer_path(protocol: Protocol, hot_fraction: f64) -> Vec<Row> {
    let cfg = TransferConfig {
        accounts: 2_000,
        hot_set: 8,
        hot_fraction,
    };
    commit_path(false, |sim| transfer::builder(&cfg, 8, protocol, sim))
}

/// NewOrder and Payment, 10% distributed, on 8 warehouses (one per node).
fn tpcc_path() -> Vec<Row> {
    let cfg = TpccConfig::with_warehouses(8);
    let mix = TpccMix::payment_neworder(0.10);
    commit_path(true, |sim| tpcc::builder(&cfg, mix, Protocol::Chiller, sim))
}

/// SmallBank's default accounts on 8 nodes.
fn smallbank_path() -> Vec<Row> {
    let cfg = SmallBankConfig::default();
    commit_path(false, |sim| {
        smallbank::builder(&cfg, 8, Protocol::Chiller, sim)
    })
}

const NODES: usize = 4;
const SEED: u64 = 97;
/// Virtual milliseconds of the short durable run; the long one is four
/// times it.
const WINDOW_MS: u64 = 25;
/// Transactions each durable engine keeps in flight.
const CONCURRENCY: usize = 4;

const RECOVERY: SmallBankConfig = SmallBankConfig {
    accounts: 400,
    hot_accounts: 8,
    hot_fraction: 0.4,
};

fn durable(dir: &Path, seed: u64) -> Cluster {
    let mut b = smallbank::builder(&RECOVERY, NODES, Protocol::Chiller, sim(seed, CONCURRENCY));
    b.durable(dir);
    b.build().unwrap()
}

/// SmallBank with a redo log: run for `millis`, optionally drain, kill,
/// and rebuild on the same directory with the allocator watched. The
/// recovered cluster must still balance its books. The rebuild's peak
/// covers the load of the initial rows, the streaming scan of the redo
/// logs, resolution and the fresh checkpoints. Killed under load, the logs
/// end with transactions genuinely open — decided but not acked — and no
/// more of them than were in flight.
fn run_kill_rebuild(label: &str, millis: u64, quiesce: bool) -> Vec<Row> {
    // The rebuild allocates copies of this path, so its length must not
    // depend on the host: a path relative to the package root (where
    // cargo runs tests), not under `TMPDIR`, with the process id
    // zero-padded to a fixed width.
    let dir = Path::new("target").join(format!("costs-{label}-{:010}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch WAL dir");
    let mut cluster = durable(&dir, SEED);
    let run = cluster.run(RunSpec::millis(0, millis));
    if quiesce {
        cluster.quiesce();
    }
    let snap = cluster.kill();

    let (mut recovered, spent) = measure(|| durable(&dir, SEED + 1));
    let recovery = recovered.recovery().cloned().expect("recovers");
    println!("{label}: {} commits — {recovery}", snap.total_commits);
    if !quiesce {
        assert!(
            recovery.in_doubt > 0 && recovery.in_doubt <= (NODES * CONCURRENCY) as u64,
            "a kill under load leaves some in doubt, but no more than were in flight — {recovery}"
        );
    }
    recovered.quiesce();
    assert_smallbank_invariants_recovered(
        &recovered,
        &RECOVERY,
        &[&snap.commits_by_proc, &recovery.recovered_unacked],
        label,
    );
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
    let (n, wal) = (run.total_commits(), &run.telemetry);
    let (records, bytes) = (wal.wal_records_appended, wal.wal_bytes_appended);
    vec![
        ("commits", n as f64),
        ("log_bytes_scanned", recovery.log_bytes_scanned as f64),
        ("rebuild_peak_bytes", spent.peak as f64),
        ("open_txns_hwm", recovery.open_txns_hwm as f64),
        ("in_doubt", recovery.in_doubt as f64),
        ("wal_records_per_commit", per(records as f64, n)),
        ("wal_bytes_per_commit", per(bytes as f64, n)),
    ]
}
