//! Threaded-backend stress suite: the wall-clock regressions at the pool
//! size `Backend::Threaded` builds, one worker per engine, where every
//! engine runs in parallel with every other. `tests/async_stress.rs`
//! runs the same raw-runtime regressions on an undersized pool, and
//! `tests/async_parity.rs` holds the threaded backend's protocol and
//! report tests.

#[path = "support/contended.rs"]
mod contended;
#[path = "support/pool.rs"]
mod pool;

use chiller::prelude::Backend;
use pool::{assert_links_fifo, run_cascades, run_flood, NODES};

/// One worker per engine, as `Backend::Threaded` sizes its pool.
const WORKERS: usize = NODES;

/// Batched-draining regression: an all-pairs flood through tiny mailboxes
/// forces every hot-path mechanism at once — mailbox overflow into the
/// parked-send queues, per-batch flushes, interleaved drains on every
/// worker — and per-link FIFO must still hold exactly: each node sees each
/// peer's payloads complete and in send order (`run_flood` checks the
/// event count).
#[test]
fn batched_draining_preserves_per_link_fifo_under_flood() {
    let per_link = 2_000u64;
    // Capacity 8 guarantees most sends overflow into the parked queues.
    let seen = run_flood(8, per_link, WORKERS);
    assert_links_fifo(&seen, per_link, "capacity-8 ring");
}

/// Capacity-1 rings under the all-pairs flood: every slot contends, every
/// flush stalls, the wakeup handshake fires constantly — the worst case
/// for the sequence-slot protocol's full/empty boundary.
#[test]
fn capacity_one_rings_survive_all_pairs_flood() {
    let per_link = 500u64;
    let seen = run_flood(1, per_link, WORKERS);
    assert_links_fifo(&seen, per_link, "capacity-1 ring");
}

/// Quiescence-detection regression: with batched bookkeeping the
/// outstanding-work counter is published per batch, not per event; long
/// concurrent relay cascades must still run to completion — an early
/// quiescence verdict would cut a cascade short and break the hop count.
/// Mailboxes have no blocking receive, so idle workers rely on the
/// park/unpark handshake: a lost wakeup or a mis-ordered delta publication
/// would surface here as a cascade cut short or a hang.
#[test]
fn quiescence_detection_survives_batching() {
    let (relayed, sent) = run_cascades(NODES, chiller_simnet::DEFAULT_MAILBOX_CAPACITY, WORKERS);
    assert_eq!(
        relayed, sent,
        "a cascade was cut short by a premature quiescence verdict"
    );
}

/// Run windows on the threaded backend; the async backend's run is in
/// `tests/async_parity.rs`.
#[test]
fn threaded_backend_survives_repeated_run_windows() {
    contended::assert_survives_repeated_run_windows(Backend::Threaded);
}
