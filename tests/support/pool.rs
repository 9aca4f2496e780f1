//! Raw-runtime stress helpers shared by the wall-clock stress suites
//! (`tests/async_stress.rs` on 2 workers, `tests/threaded_stress.rs` on
//! one worker per engine): an all-pairs flood with a per-link FIFO check,
//! and ring-relay cascades for quiescence detection.

use chiller_common::ids::NodeId;
use chiller_simnet::{Actor, AsyncConfig, AsyncRuntime, Ctx, Runtime, Verb};

/// Engines in the flood and in the four-engine cascades.
pub const NODES: usize = 4;

fn config(capacity: usize, workers: usize) -> AsyncConfig {
    AsyncConfig {
        capacity,
        workers: Some(workers),
    }
}

/// All-pairs flood actor: sends sequenced payloads to every peer at
/// start and records arrivals per source, so per-link FIFO can be
/// checked exactly after the run.
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

/// Run the all-pairs flood on a `workers`-worker pool with an explicit
/// mailbox capacity; returns `seen[node][src]`. Asserts completeness
/// (event count); order checking is the caller's.
pub fn run_flood(capacity: usize, per_link: u64, workers: usize) -> Vec<Vec<Vec<u64>>> {
    let actors: Vec<Flood> = (0..NODES)
        .map(|_| Flood {
            nodes: NODES,
            per_link,
            seen: (0..NODES).map(|_| Vec::new()).collect(),
        })
        .collect();
    let mut rt = AsyncRuntime::with_config(actors, config(capacity, workers));
    rt.run_to_quiescence(u64::MAX);
    let links = (NODES * (NODES - 1)) as u64;
    assert_eq!(
        rt.stats().events_processed,
        links * per_link,
        "capacity-{capacity} flood on {workers} workers lost messages"
    );
    rt.actors().iter().map(|a| a.seen.clone()).collect()
}

/// Assert every link's payload sequence is complete and in send order.
pub fn assert_links_fifo(seen: &[Vec<Vec<u64>>], per_link: u64, label: &str) {
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

/// Run 8 relay cascades of 5 000 hops each around a ring of `nodes`
/// engines on a `workers`-worker pool, seeded from the control plane and
/// spread around the ring. Returns `(hops relayed, hops sent)`.
pub fn run_cascades(nodes: usize, capacity: usize, workers: usize) -> (u64, u64) {
    let cascades = 8u64;
    let hops = 5_000u64;
    let actors: Vec<Ring> = (0..nodes)
        .map(|n| Ring {
            next: NodeId(((n + 1) % nodes) as u32),
            relayed: 0,
        })
        .collect();
    let mut rt = AsyncRuntime::with_config(actors, config(capacity, workers));
    for c in 0..cascades {
        rt.with_actor_ctx(NodeId((c % nodes as u64) as u32), &mut |_a, ctx| {
            let next = NodeId(((ctx.node().idx() + 1) % nodes) as u32);
            ctx.send(next, Verb::OneSided, hops - 1);
        });
    }
    rt.run_to_quiescence(u64::MAX);
    let relayed = rt.actors().iter().map(|a| a.relayed).sum();
    (relayed, cascades * hops)
}
