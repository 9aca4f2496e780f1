//! Async-executor stress suite: the worker pool's hot-path regressions
//! on an undersized pool (4 engines on 2 workers, as `Backend::Async`
//! runs on a small host). `tests/threaded_stress.rs` runs the same
//! regressions at one worker per engine.
//!
//! Engines are tasks bouncing between workers through a work-stealing
//! ready queue. The suite floods tiny shared mailboxes (overflow into the
//! parked-flush path, stall-and-requeue), chains long relay cascades
//! (quiescence detection vs batched bookkeeping and the notify/DIRTY
//! protocol), and runs both under more engines than workers.

#[path = "support/pool.rs"]
mod pool;

use pool::{assert_links_fifo, run_cascades, run_flood, NODES};

const WORKERS: usize = 2;

/// Tiny shared mailboxes force every executor mechanism at once —
/// overflow into the parked-send queues, per-batch flushes,
/// stall-at-first-full, engine re-enqueue instead of thread spinning,
/// interleaved drains and work stealing between the workers — and
/// per-link FIFO must still hold exactly: each node sees each peer's
/// payloads complete and in send order (`run_flood` checks the event
/// count).
#[test]
fn parked_flush_preserves_per_link_fifo_under_flood() {
    let per_link = 2_000u64;
    // Capacity 8 guarantees most sends overflow into the parked queues.
    let seen = run_flood(8, per_link, WORKERS);
    assert_links_fifo(&seen, per_link, "capacity-8 ring (async)");
}

/// Capacity-1 mailboxes: every slot contends, every flush stalls, every
/// stall re-enqueues the engine, the wakeup handshake fires constantly —
/// the worst case for the stall-and-requeue path and the sequence-slot
/// protocol's full/empty boundary.
#[test]
fn capacity_one_mailboxes_survive_all_pairs_flood() {
    let per_link = 500u64;
    let seen = run_flood(1, per_link, WORKERS);
    assert_links_fifo(&seen, per_link, "capacity-1 ring (async)");
}

/// Quiescence-detection regression: the outstanding-work counter is
/// published per engine *turn*, not per event, engines hop between
/// workers mid-cascade, and idle workers park on the taskq handshake
/// (mailboxes have no blocking receive). Long concurrent relay cascades
/// must still run to completion — an early quiescence verdict, a lost
/// notify, or a mis-ordered delta publication surfaces as a cascade cut
/// short or a hang.
#[test]
fn quiescence_detection_survives_multiplexed_cascades() {
    let (relayed, sent) = run_cascades(NODES, chiller_simnet::DEFAULT_MAILBOX_CAPACITY, WORKERS);
    assert_eq!(
        relayed, sent,
        "a cascade was cut short by a premature quiescence verdict"
    );
}

/// The same cascade regression with far more engines than workers: 64
/// relays on 2 workers, so every hop migrates the cascade across the
/// ready queue and most engines are parked in QUEUED/IDLE at any moment.
#[test]
fn cascades_survive_heavy_multiplexing() {
    let (relayed, sent) = run_cascades(64, 64, WORKERS);
    assert_eq!(relayed, sent, "64-engine/2-worker cascade lost hops");
}
