//! Async-executor stress suite: the threaded backend's hot-path
//! regressions re-aimed at the worker-pool executor.
//!
//! Same contract, different failure surface: instead of one thread per
//! engine, engines are tasks bouncing between workers through a
//! work-stealing ready queue. The suite floods tiny shared mailboxes
//! (overflow into the parked-flush path, stall-and-requeue), chains long
//! relay cascades (quiescence detection vs batched bookkeeping and the
//! notify/DIRTY protocol), and runs both under more engines than workers.

use chiller_common::ids::NodeId;
use chiller_simnet::{Actor, AsyncConfig, AsyncRuntime, Ctx, Runtime, Verb};

const NODES: usize = 4;

fn config(capacity: usize, workers: usize) -> AsyncConfig {
    AsyncConfig {
        capacity,
        workers: Some(workers),
    }
}

/// All-pairs flood actor: sends sequenced payloads to every peer at
/// start and records arrivals per source, so per-link FIFO can be
/// checked exactly after the run (same role as the threaded suite's).
struct Flood {
    nodes: usize,
    per_link: u64,
    /// `seen[src]` = payloads received from `src`, in arrival order.
    seen: Vec<Vec<u64>>,
}

impl Actor<u64> for Flood {
    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        let me = ctx.node().idx();
        for dst in 0..self.nodes {
            if dst == me {
                continue;
            }
            for i in 0..self.per_link {
                ctx.send(NodeId(dst as u32), Verb::OneSided, i);
            }
        }
    }

    fn on_message(&mut self, _ctx: &mut Ctx<'_, u64>, src: NodeId, _verb: Verb, msg: u64) {
        self.seen[src.idx()].push(msg);
    }

    fn on_timer(&mut self, _ctx: &mut Ctx<'_, u64>, _token: u64) {}
}

/// Run the all-pairs flood on a 2-worker pool with an explicit mailbox
/// capacity; returns `seen[node][src]`. Asserts completeness (event
/// count); order checking is the caller's.
fn run_flood(capacity: usize, per_link: u64) -> Vec<Vec<Vec<u64>>> {
    let actors: Vec<Flood> = (0..NODES)
        .map(|_| Flood {
            nodes: NODES,
            per_link,
            seen: (0..NODES).map(|_| Vec::new()).collect(),
        })
        .collect();
    let mut rt = AsyncRuntime::with_config(actors, config(capacity, 2));
    rt.run_to_quiescence(u64::MAX);
    let links = (NODES * (NODES - 1)) as u64;
    assert_eq!(
        rt.stats().events_processed,
        links * per_link,
        "capacity-{capacity} flood lost messages"
    );
    rt.actors().iter().map(|a| a.seen.clone()).collect()
}

/// Assert every link's payload sequence is complete and in send order.
fn assert_links_fifo(seen: &[Vec<Vec<u64>>], per_link: u64, label: &str) {
    let expect: Vec<u64> = (0..per_link).collect();
    for (n, node_seen) in seen.iter().enumerate() {
        for (src, link) in node_seen.iter().enumerate() {
            if src == n {
                assert!(
                    link.is_empty(),
                    "{label}: node {n} got messages from itself"
                );
                continue;
            }
            assert_eq!(
                link, &expect,
                "{label}: link {src}->{n} payloads lost or reordered"
            );
        }
    }
}

/// Tiny shared mailboxes force every executor mechanism at once —
/// overflow into the parked-send queues, stall-at-first-full, engine
/// re-enqueue instead of thread spinning, work stealing between the two
/// workers — and per-link FIFO must still hold exactly.
#[test]
fn parked_flush_preserves_per_link_fifo_under_flood() {
    let per_link = 2_000u64;
    let seen = run_flood(8, per_link);
    assert_links_fifo(&seen, per_link, "capacity-8 ring (async)");
}

/// Capacity-1 mailboxes: every slot contends, every flush stalls, every
/// stall re-enqueues the engine — the worst case for the
/// stall-and-requeue path and the ring's full/empty boundary.
#[test]
fn capacity_one_mailboxes_survive_all_pairs_flood() {
    let per_link = 500u64;
    let seen = run_flood(1, per_link);
    assert_links_fifo(&seen, per_link, "capacity-1 ring (async)");
}

/// Ring-relay actor for quiescence stress: forwards each payload (a hop
/// countdown) to the next node in the ring.
struct Ring {
    next: NodeId,
    relayed: u64,
}

impl Actor<u64> for Ring {
    fn on_start(&mut self, _ctx: &mut Ctx<'_, u64>) {}

    fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, _src: NodeId, verb: Verb, msg: u64) {
        self.relayed += 1;
        if msg > 0 {
            ctx.send(self.next, verb, msg - 1);
        }
    }

    fn on_timer(&mut self, _ctx: &mut Ctx<'_, u64>, _token: u64) {}
}

/// Quiescence-detection regression, executor edition (mirrors the
/// threaded suite's 8×5000-hop cascade): the outstanding-work counter is
/// published per engine *turn*, engines hop between workers mid-cascade,
/// and idle workers park on the taskq handshake — an early quiescence
/// verdict, a lost notify, or a mis-ordered delta publication surfaces
/// as a cascade cut short or a hang.
#[test]
fn quiescence_detection_survives_multiplexed_cascades() {
    let cascades = 8u64;
    let hops = 5_000u64;
    let actors: Vec<Ring> = (0..NODES)
        .map(|n| Ring {
            next: NodeId(((n + 1) % NODES) as u32),
            relayed: 0,
        })
        .collect();
    let mut rt =
        AsyncRuntime::with_config(actors, config(chiller_simnet::DEFAULT_MAILBOX_CAPACITY, 2));
    // Seed the cascades from the control plane, spread around the ring.
    for c in 0..cascades {
        rt.with_actor_ctx(NodeId((c % NODES as u64) as u32), &mut |_a, ctx| {
            let next = NodeId(((ctx.node().idx() + 1) % NODES) as u32);
            ctx.send(next, Verb::OneSided, hops - 1);
        });
    }
    rt.run_to_quiescence(u64::MAX);
    let total: u64 = rt.actors().iter().map(|a| a.relayed).sum();
    assert_eq!(
        total,
        cascades * hops,
        "a cascade was cut short by a premature quiescence verdict"
    );
}

/// The same cascade regression with far more engines than workers: 64
/// relays on 2 workers, so every hop migrates the cascade across the
/// ready queue and most engines are parked in QUEUED/IDLE at any moment.
#[test]
fn cascades_survive_heavy_multiplexing() {
    let nodes = 64usize;
    let cascades = 8u64;
    let hops = 5_000u64;
    let actors: Vec<Ring> = (0..nodes)
        .map(|n| Ring {
            next: NodeId(((n + 1) % nodes) as u32),
            relayed: 0,
        })
        .collect();
    let mut rt = AsyncRuntime::with_config(actors, config(64, 2));
    for c in 0..cascades {
        rt.with_actor_ctx(NodeId((c % nodes as u64) as u32), &mut |_a, ctx| {
            let next = NodeId(((ctx.node().idx() + 1) % nodes) as u32);
            ctx.send(next, Verb::OneSided, hops - 1);
        });
    }
    rt.run_to_quiescence(u64::MAX);
    let total: u64 = rt.actors().iter().map(|a| a.relayed).sum();
    assert_eq!(
        total,
        cascades * hops,
        "64-engine/2-worker cascade lost hops"
    );
}
