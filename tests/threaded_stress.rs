//! Threaded-backend stress suite: the same serializability contract the
//! simulator's parity suite enforces, exercised under *real* parallelism.
//!
//! Four engines on the worker pool sized at one worker per engine (what
//! `Backend::Threaded` builds) hammer the contended transfer workload
//! per protocol; at quiescence the cluster must show balance conservation,
//! no leaked locks, no zombie transactions, and zero replica divergence —
//! any cross-thread race in the protocol layer (messages reordered beyond
//! per-link FIFO, lost wakeups, double-applied writes) surfaces here as a
//! violated invariant.

use chiller::cluster::RunSpec;
use chiller::prelude::*;
use chiller_common::ids::NodeId;
use chiller_simnet::{Actor, AsyncConfig, AsyncRuntime, Ctx, Runtime, Verb};
use chiller_workload::transfer::{self, assert_serializability_invariants, TransferConfig};

const NODES: usize = 4;

/// The raw pool as `Backend::Threaded` sizes it: one worker per engine.
fn threaded_pool(capacity: usize) -> AsyncConfig {
    AsyncConfig {
        capacity,
        workers: Some(NODES),
    }
}

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

/// Run one protocol on the threaded backend for `measure_ms` of wall time
/// and return the quiesced cluster plus its report.
fn run_threaded(protocol: Protocol, measure_ms: u64) -> (Cluster, RunReport) {
    let cfg = contended_config();
    let mut b = transfer::builder(&cfg, NODES, protocol, sim_config(11, 4));
    b.runtime(Backend::Threaded);
    let mut cluster = b.build().unwrap();
    assert_eq!(cluster.backend(), Backend::Threaded);
    let report = cluster.run(RunSpec::millis(10, measure_ms));
    cluster.quiesce();
    (cluster, report)
}

#[test]
fn threaded_backend_upholds_invariants_under_all_protocols() {
    for protocol in [Protocol::Chiller, Protocol::TwoPhaseLocking, Protocol::Occ] {
        let (cluster, report) = run_threaded(protocol, 150);
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
    let (_, report) = run_threaded(Protocol::Chiller, 80);
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

/// Raw-runtime stress actor: floods every peer with sequenced payloads at
/// start and records arrivals per source, so per-link FIFO can be checked
/// exactly after the run.
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

/// Run the all-pairs flood with an explicit mailbox capacity, returning
/// `seen[node][src]` = the payload sequence each node observed from each
/// peer. Asserts completeness (event count) but leaves order checking to
/// the caller.
fn run_flood(capacity: usize, per_link: u64) -> Vec<Vec<Vec<u64>>> {
    let actors: Vec<Flood> = (0..NODES)
        .map(|_| Flood {
            nodes: NODES,
            per_link,
            seen: (0..NODES).map(|_| Vec::new()).collect(),
        })
        .collect();
    let mut rt = AsyncRuntime::with_config(actors, threaded_pool(capacity));
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
    let seen = run_flood(8, per_link);
    assert_links_fifo(&seen, per_link, "capacity-8 ring");
}

/// Capacity-1 rings under the all-pairs flood: every slot contends, every
/// flush stalls, the wakeup handshake fires constantly — the worst case
/// for the sequence-slot protocol's full/empty boundary.
#[test]
fn capacity_one_rings_survive_all_pairs_flood() {
    let per_link = 500u64;
    let seen = run_flood(1, per_link);
    assert_links_fifo(&seen, per_link, "capacity-1 ring");
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

/// Quiescence-detection regression: with batched bookkeeping the
/// outstanding-work counter is published per batch, not per event; long
/// concurrent relay cascades must still run to completion — an early
/// quiescence verdict would cut a cascade short and break the hop count.
/// Rings have no blocking receive, so idle workers rely on the park/unpark
/// handshake: a lost wakeup or a mis-ordered delta publication would
/// surface here as a cascade cut short or a hang.
#[test]
fn quiescence_detection_survives_batching() {
    let cascades = 8u64;
    let hops = 5_000u64;
    let actors: Vec<Ring> = (0..NODES)
        .map(|n| Ring {
            next: NodeId(((n + 1) % NODES) as u32),
            relayed: 0,
        })
        .collect();
    let mut rt = AsyncRuntime::with_config(
        actors,
        threaded_pool(chiller_simnet::DEFAULT_MAILBOX_CAPACITY),
    );
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

#[test]
fn threaded_backend_survives_repeated_run_windows() {
    // Pause/resume across windows: in-flight work must survive each pause
    // (run → run_more → quiesce) without losing messages or leaking locks.
    let cfg = contended_config();
    let mut b = transfer::builder(&cfg, NODES, Protocol::Chiller, sim_config(23, 4));
    b.runtime(Backend::Threaded);
    let mut cluster = b.build().unwrap();
    let first = cluster.run(RunSpec::millis(5, 40));
    let more = cluster.run_more(Duration::from_millis(40));
    assert!(
        first.total_commits() + more.total_commits() > 0,
        "windows must commit work"
    );
    cluster.quiesce();
    assert_serializability_invariants(&cluster, &cfg, "chiller windows (threaded)");
}
