//! The deterministic discrete-event backend: event loop and network/CPU
//! model. Implements the backend-neutral [`Runtime`] surface from
//! [`crate::runtime`]; the actor trait and `Ctx` handle live there.

use crate::runtime::{Actor, Clock, Ctx, Mailbox, NetStats, Runtime, Verb};
use chiller_common::config::NetworkConfig;
use chiller_common::ids::NodeId;
use chiller_common::time::{Duration, SimTime};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

/// What gets scheduled in the event queue.
enum EventKind<M> {
    /// A network message arriving at `dst`.
    Deliver {
        src: NodeId,
        dst: NodeId,
        verb: Verb,
        msg: M,
    },
    /// A timer registered by the actor on `node` with an opaque token.
    Timer { node: NodeId, token: u64 },
    /// Engine became free: drain the node's pending RPC queue.
    Wake { node: NodeId },
}

struct Event<M> {
    at: SimTime,
    seq: u64,
    kind: EventKind<M>,
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<M> Eq for Event<M> {}
impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Event<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Core simulator state shared with actors through [`Ctx`].
struct SimCore<M> {
    clock: SimTime,
    queue: BinaryHeap<Reverse<Event<M>>>,
    seq: u64,
    network: NetworkConfig,
    /// Per-link last-arrival horizon, enforcing FIFO delivery per (src,dst).
    link_horizon: HashMap<(NodeId, NodeId), SimTime>,
    /// Per-node engine-core busy horizon.
    busy_until: Vec<SimTime>,
    /// Per-node queue of RPCs that arrived while the engine was busy.
    rpc_backlog: Vec<VecDeque<(NodeId, M)>>,
    /// Whether a Wake event is already pending for a node.
    wake_pending: Vec<bool>,
    stats: NetStats,
}

impl<M> SimCore<M> {
    fn push(&mut self, at: SimTime, kind: EventKind<M>) {
        debug_assert!(at >= self.clock, "scheduling into the past");
        self.seq += 1;
        self.queue.push(Reverse(Event {
            at,
            seq: self.seq,
            kind,
        }));
    }

    fn one_way_latency(&self, src: NodeId, dst: NodeId, verb: Verb) -> Duration {
        if src == dst {
            return Duration::from_nanos(self.network.local_ns);
        }
        match verb {
            Verb::OneSided => Duration::from_nanos(self.network.one_sided_ns),
            Verb::Rpc => Duration::from_nanos(self.network.rpc_ns),
        }
    }
}

/// The simulator's [`Mailbox`]: virtual clock, modelled latencies, engine
/// busy horizon, per-link FIFO.
struct SimMailbox<'a, M> {
    core: &'a mut SimCore<M>,
    /// The node whose actor is currently running.
    node: NodeId,
}

impl<M> SimMailbox<'_, M> {
    /// Time at which work issued *now* by this engine actually departs:
    /// the engine finishes its queued CPU first.
    fn departure_time(&self) -> SimTime {
        self.core.busy_until[self.node.idx()].max(self.core.clock)
    }
}

impl<M> Mailbox<M> for SimMailbox<'_, M> {
    #[inline]
    fn now(&self) -> SimTime {
        self.core.clock
    }

    #[inline]
    fn node(&self) -> NodeId {
        self.node
    }

    fn use_cpu(&mut self, d: Duration) {
        let b = self.core.busy_until[self.node.idx()].max(self.core.clock);
        self.core.busy_until[self.node.idx()] = b + d;
    }

    fn send(&mut self, dst: NodeId, verb: Verb, msg: M) {
        let src = self.node;
        let depart = self.departure_time();
        let lat = self.core.one_way_latency(src, dst, verb);
        let naive_arrival = depart + lat;
        let horizon = self
            .core
            .link_horizon
            .get(&(src, dst))
            .copied()
            .unwrap_or(SimTime::ZERO);
        let arrival = naive_arrival.max(horizon);
        self.core.link_horizon.insert((src, dst), arrival);
        if src == dst {
            self.core.stats.local_msgs += 1;
        } else {
            match verb {
                Verb::OneSided => self.core.stats.one_sided_msgs += 1,
                Verb::Rpc => self.core.stats.rpc_msgs += 1,
            }
        }
        self.core.push(
            arrival,
            EventKind::Deliver {
                src,
                dst,
                verb,
                msg,
            },
        );
    }

    fn set_timer(&mut self, d: Duration, token: u64) {
        let at = self.core.clock + d;
        self.core.push(
            at,
            EventKind::Timer {
                node: self.node,
                token,
            },
        );
    }
}

/// The simulation: a set of actors (one per node) plus the event core.
pub struct Simulation<M, A: Actor<M>> {
    actors: Vec<A>,
    core: SimCore<M>,
    started: bool,
}

impl<M, A: Actor<M>> Simulation<M, A> {
    /// Build a simulation over the given actors; actor `i` runs on `NodeId(i)`.
    pub fn new(actors: Vec<A>, network: NetworkConfig) -> Self {
        let n = actors.len();
        Simulation {
            actors,
            core: SimCore {
                clock: SimTime::ZERO,
                queue: BinaryHeap::new(),
                seq: 0,
                network,
                link_horizon: HashMap::new(),
                busy_until: vec![SimTime::ZERO; n],
                rpc_backlog: (0..n).map(|_| VecDeque::new()).collect(),
                wake_pending: vec![false; n],
                stats: NetStats::default(),
            },
            started: false,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.clock
    }

    /// Network counters accumulated so far (all nodes).
    pub fn stats(&self) -> NetStats {
        self.core.stats
    }

    /// The actors, in node order.
    pub fn actors(&self) -> &[A] {
        &self.actors
    }

    /// Mutable actor access, in node order.
    pub fn actors_mut(&mut self) -> &mut [A] {
        &mut self.actors
    }

    /// Number of simulated nodes (one actor each).
    pub fn num_nodes(&self) -> usize {
        self.actors.len()
    }

    fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.actors.len() {
            let node = NodeId(i as u32);
            let mut mb = SimMailbox {
                core: &mut self.core,
                node,
            };
            let mut ctx = Ctx::from_mailbox(&mut mb);
            self.actors[i].on_start(&mut ctx);
        }
    }

    /// Dispatch an RPC to the engine: charges the configured handler CPU
    /// cost, then runs the actor handler.
    fn dispatch_rpc(&mut self, src: NodeId, dst: NodeId, msg: M) {
        let cpu = Duration::from_nanos(self.core.network.rpc_handler_cpu_ns);
        let mut mb = SimMailbox {
            core: &mut self.core,
            node: dst,
        };
        mb.use_cpu(cpu);
        let mut ctx = Ctx::from_mailbox(&mut mb);
        self.actors[dst.idx()].on_message(&mut ctx, src, Verb::Rpc, msg);
    }

    /// If the engine at `node` is free and has backlog, handle the next
    /// backlog entry; schedule a wake when it will next be free.
    fn drain_backlog(&mut self, node: NodeId) {
        loop {
            if self.core.busy_until[node.idx()] > self.core.clock {
                // Busy: come back when free.
                if !self.core.rpc_backlog[node.idx()].is_empty()
                    && !self.core.wake_pending[node.idx()]
                {
                    self.core.wake_pending[node.idx()] = true;
                    let at = self.core.busy_until[node.idx()];
                    self.core.push(at, EventKind::Wake { node });
                }
                return;
            }
            match self.core.rpc_backlog[node.idx()].pop_front() {
                None => return,
                Some((src, msg)) => self.dispatch_rpc(src, node, msg),
            }
        }
    }

    /// Process a single event. Returns false when the queue is exhausted.
    fn step(&mut self) -> bool {
        let Some(Reverse(ev)) = self.core.queue.pop() else {
            return false;
        };
        debug_assert!(ev.at >= self.core.clock, "time went backwards");
        self.core.clock = ev.at;
        self.core.stats.events_processed += 1;
        match ev.kind {
            EventKind::Deliver {
                src,
                dst,
                verb,
                msg,
            } => match verb {
                Verb::OneSided => {
                    // NIC-side: bypasses the engine queue entirely.
                    let mut mb = SimMailbox {
                        core: &mut self.core,
                        node: dst,
                    };
                    let mut ctx = Ctx::from_mailbox(&mut mb);
                    self.actors[dst.idx()].on_message(&mut ctx, src, Verb::OneSided, msg);
                }
                Verb::Rpc => {
                    self.core.rpc_backlog[dst.idx()].push_back((src, msg));
                    self.drain_backlog(dst);
                }
            },
            EventKind::Timer { node, token } => {
                self.core.stats.timer_fires += 1;
                let mut mb = SimMailbox {
                    core: &mut self.core,
                    node,
                };
                let mut ctx = Ctx::from_mailbox(&mut mb);
                self.actors[node.idx()].on_timer(&mut ctx, token);
            }
            EventKind::Wake { node } => {
                self.core.wake_pending[node.idx()] = false;
                self.drain_backlog(node);
            }
        }
        true
    }

    /// Run until the virtual clock passes `until` or the event queue drains.
    /// Returns the number of events processed.
    pub fn run_until(&mut self, until: SimTime) -> u64 {
        self.start();
        let mut n = 0;
        while let Some(Reverse(ev)) = self.core.queue.peek() {
            if ev.at > until {
                break;
            }
            self.step();
            n += 1;
        }
        // Advance the clock to the horizon so rate computations use the full
        // window even if the queue drained early.
        if self.core.clock < until {
            self.core.clock = until;
        }
        n
    }

    /// Run until the event queue is empty (or `max_events` is hit, as a
    /// runaway guard). Returns the number of events processed.
    pub fn run_to_quiescence(&mut self, max_events: u64) -> u64 {
        self.start();
        let mut n = 0;
        while n < max_events && self.step() {
            n += 1;
        }
        n
    }

    /// Run `f` against one actor with a live [`Ctx`] at the current virtual
    /// time, outside normal event dispatch. This is the control-plane
    /// injection point: an epoch scheduler pauses the simulation at a
    /// boundary, inspects/mutates actors, and lets them send messages or
    /// set timers. Determinism is preserved as long as callers inject at
    /// deterministic times in a deterministic node order.
    pub fn with_actor_ctx<R>(
        &mut self,
        node: NodeId,
        f: impl FnOnce(&mut A, &mut Ctx<'_, M>) -> R,
    ) -> R {
        let mut mb = SimMailbox {
            core: &mut self.core,
            node,
        };
        let mut ctx = Ctx::from_mailbox(&mut mb);
        f(&mut self.actors[node.idx()], &mut ctx)
    }
}

impl<M, A: Actor<M>> Clock for Simulation<M, A> {
    fn now(&self) -> SimTime {
        self.core.clock
    }
}

impl<M, A: Actor<M>> Runtime<M, A> for Simulation<M, A> {
    fn stats(&self) -> NetStats {
        Simulation::stats(self)
    }

    fn num_nodes(&self) -> usize {
        Simulation::num_nodes(self)
    }

    fn actors(&self) -> &[A] {
        Simulation::actors(self)
    }

    fn actors_mut(&mut self) -> &mut [A] {
        Simulation::actors_mut(self)
    }

    fn run_until(&mut self, until: SimTime) -> u64 {
        Simulation::run_until(self, until)
    }

    fn run_to_quiescence(&mut self, max_events: u64) -> u64 {
        Simulation::run_to_quiescence(self, max_events)
    }

    fn with_actor_ctx(&mut self, node: NodeId, f: &mut dyn FnMut(&mut A, &mut Ctx<'_, M>)) {
        Simulation::with_actor_ctx(self, node, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiller_common::config::NetworkConfig;

    /// Test actor that records everything it sees.
    #[derive(Default)]
    struct Recorder {
        received: Vec<(SimTime, NodeId, u64)>,
        timers: Vec<(SimTime, u64)>,
        /// Messages to send at start: (dst, verb, payload, cpu_before_ns)
        plan: Vec<(NodeId, Verb, u64, u64)>,
        echo: bool,
        cpu_per_rpc_ns: u64,
    }

    impl Actor<u64> for Recorder {
        fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
            let plan = std::mem::take(&mut self.plan);
            for (dst, verb, payload, cpu_ns) in plan {
                if cpu_ns > 0 {
                    ctx.use_cpu(Duration::from_nanos(cpu_ns));
                }
                ctx.send(dst, verb, payload);
            }
        }

        fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, src: NodeId, verb: Verb, msg: u64) {
            self.received.push((ctx.now(), src, msg));
            if verb == Verb::Rpc && self.cpu_per_rpc_ns > 0 {
                ctx.use_cpu(Duration::from_nanos(self.cpu_per_rpc_ns));
            }
            if self.echo {
                ctx.send(src, verb, msg + 1000);
            }
        }

        fn on_timer(&mut self, ctx: &mut Ctx<'_, u64>, token: u64) {
            self.timers.push((ctx.now(), token));
        }
    }

    fn net() -> NetworkConfig {
        NetworkConfig {
            one_sided_ns: 1_000,
            rpc_ns: 2_000,
            local_ns: 100,
            rpc_handler_cpu_ns: 0,
        }
    }

    #[test]
    fn one_sided_latency_applied() {
        let mut a = Recorder::default();
        a.plan.push((NodeId(1), Verb::OneSided, 7, 0));
        let sim_actors = vec![a, Recorder::default()];
        let mut sim = Simulation::new(sim_actors, net());
        sim.run_to_quiescence(100);
        let recv = &sim.actors()[1].received;
        assert_eq!(recv.len(), 1);
        assert_eq!(recv[0], (SimTime(1_000), NodeId(0), 7));
    }

    #[test]
    fn local_messages_use_local_latency() {
        let mut a = Recorder::default();
        a.plan.push((NodeId(0), Verb::Rpc, 9, 0));
        let mut sim = Simulation::new(vec![a], net());
        sim.run_to_quiescence(100);
        assert_eq!(sim.actors()[0].received[0].0, SimTime(100));
        assert_eq!(sim.stats().local_msgs, 1);
    }

    #[test]
    fn per_link_fifo_preserved() {
        // Two messages sent back-to-back on the same link must arrive in
        // order even if the latency model would otherwise allow reordering.
        let mut a = Recorder::default();
        a.plan.push((NodeId(1), Verb::Rpc, 1, 0));
        a.plan.push((NodeId(1), Verb::Rpc, 2, 0));
        let mut sim = Simulation::new(vec![a, Recorder::default()], net());
        sim.run_to_quiescence(100);
        let payloads: Vec<u64> = sim.actors()[1].received.iter().map(|r| r.2).collect();
        assert_eq!(payloads, vec![1, 2]);
    }

    #[test]
    fn rpc_queues_behind_busy_engine_but_one_sided_does_not() {
        // Node 1's engine is made busy by an RPC that charges 10us of CPU.
        // A second RPC and a one-sided message arrive during that window:
        // the one-sided must be served on arrival, the RPC only when free.
        let mut a = Recorder::default();
        a.plan.push((NodeId(1), Verb::Rpc, 1, 0)); // arrives t=2000, busy till 12000
        a.plan.push((NodeId(1), Verb::Rpc, 2, 0)); // arrives t=2000+, queued
        a.plan.push((NodeId(1), Verb::OneSided, 3, 0)); // arrives t=1000? no: FIFO separate per verb? same link!
        let b = Recorder {
            cpu_per_rpc_ns: 10_000,
            ..Recorder::default()
        };
        let mut sim = Simulation::new(vec![a, b], net());
        sim.run_to_quiescence(1000);
        let recv = &sim.actors()[1].received;
        let find = |p: u64| recv.iter().find(|r| r.2 == p).unwrap().0;
        let t1 = find(1);
        let t2 = find(2);
        let t3 = find(3);
        // msg 1 handled at arrival (engine free), msg 3 (one-sided) on
        // arrival despite busy engine, msg 2 only after the 10us of CPU.
        assert_eq!(t1, SimTime(2_000));
        assert!(t3 < SimTime(12_000), "one-sided must bypass busy engine");
        assert_eq!(t2, SimTime(12_000));
    }

    #[test]
    fn cpu_charge_delays_departure() {
        // use_cpu before send: the message leaves only after the CPU burn.
        let mut a = Recorder::default();
        a.plan.push((NodeId(1), Verb::OneSided, 5, 7_000));
        let mut sim = Simulation::new(vec![a, Recorder::default()], net());
        sim.run_to_quiescence(100);
        assert_eq!(sim.actors()[1].received[0].0, SimTime(8_000));
    }

    #[test]
    fn timers_fire_in_order() {
        struct T;
        impl Actor<u64> for T {
            fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
                ctx.set_timer(Duration::from_nanos(500), 2);
                ctx.set_timer(Duration::from_nanos(100), 1);
            }
            fn on_message(&mut self, _: &mut Ctx<'_, u64>, _: NodeId, _: Verb, _: u64) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_, u64>, token: u64) {
                if token == 1 {
                    assert_eq!(ctx.now(), SimTime(100));
                } else {
                    assert_eq!(ctx.now(), SimTime(500));
                }
            }
        }
        let mut sim = Simulation::new(vec![T], net());
        assert_eq!(sim.run_to_quiescence(10), 2);
        assert_eq!(sim.stats().timer_fires, 2);
    }

    #[test]
    fn echo_round_trip_time() {
        let mut a = Recorder::default();
        a.plan.push((NodeId(1), Verb::OneSided, 1, 0));
        let b = Recorder {
            echo: true,
            ..Recorder::default()
        };
        let mut sim = Simulation::new(vec![a, b], net());
        sim.run_to_quiescence(100);
        // RTT = 2 * one-way.
        assert_eq!(sim.actors()[0].received[0].0, SimTime(2_000));
        assert_eq!(sim.actors()[0].received[0].2, 1_001);
    }

    #[test]
    fn run_until_stops_at_horizon_and_advances_clock() {
        struct Ticker;
        impl Actor<u64> for Ticker {
            fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
                ctx.set_timer(Duration::from_nanos(10), 0);
            }
            fn on_message(&mut self, _: &mut Ctx<'_, u64>, _: NodeId, _: Verb, _: u64) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_, u64>, _: u64) {
                ctx.set_timer(Duration::from_nanos(10), 0);
            }
        }
        let mut sim = Simulation::new(vec![Ticker], net());
        let n = sim.run_until(SimTime(95));
        assert_eq!(n, 9);
        assert_eq!(sim.now(), SimTime(95));
        // Continue: no events were lost.
        let n2 = sim.run_until(SimTime(200));
        assert!(n2 > 0);
    }

    #[test]
    fn with_actor_ctx_injects_sends_and_timers() {
        let mut sim = Simulation::new(vec![Recorder::default(), Recorder::default()], net());
        sim.run_until(SimTime(10));
        // Control-plane injection at t=10: node 0 sends to node 1 and arms
        // a timer on itself.
        sim.with_actor_ctx(NodeId(0), |_actor, ctx| {
            assert_eq!(ctx.now(), SimTime(10));
            assert_eq!(ctx.node(), NodeId(0));
            ctx.send(NodeId(1), Verb::OneSided, 77);
            ctx.set_timer(Duration::from_nanos(5), 9);
        });
        sim.run_to_quiescence(100);
        assert_eq!(
            sim.actors()[1].received,
            vec![(SimTime(1_010), NodeId(0), 77)]
        );
        assert_eq!(sim.actors()[0].timers, vec![(SimTime(15), 9)]);
    }

    #[test]
    fn deterministic_reruns() {
        let build = || {
            let mut a = Recorder::default();
            for i in 0..50 {
                a.plan
                    .push((NodeId(1 + (i % 2) as u32), Verb::Rpc, i, (i * 13) % 700));
            }
            let b = Recorder {
                echo: true,
                cpu_per_rpc_ns: 300,
                ..Recorder::default()
            };
            let c = Recorder {
                echo: true,
                ..Recorder::default()
            };
            Simulation::new(vec![a, b, c], net())
        };
        let mut s1 = build();
        let mut s2 = build();
        s1.run_to_quiescence(10_000);
        s2.run_to_quiescence(10_000);
        assert_eq!(s1.actors()[0].received, s2.actors()[0].received);
        assert_eq!(s1.now(), s2.now());
        assert_eq!(s1.stats().events_processed, s2.stats().events_processed);
    }

    #[test]
    fn stats_classify_verbs() {
        let mut a = Recorder::default();
        a.plan.push((NodeId(1), Verb::OneSided, 1, 0));
        a.plan.push((NodeId(1), Verb::Rpc, 2, 0));
        a.plan.push((NodeId(0), Verb::OneSided, 3, 0));
        let mut sim = Simulation::new(vec![a, Recorder::default()], net());
        sim.run_to_quiescence(100);
        let st = sim.stats();
        assert_eq!(st.one_sided_msgs, 1);
        assert_eq!(st.rpc_msgs, 1);
        assert_eq!(st.local_msgs, 1);
    }

    #[test]
    fn simulation_works_through_the_runtime_trait_object() {
        // The cluster layer drives the simulator through
        // `Box<dyn Runtime>`; the trait path must behave exactly like the
        // inherent one.
        let mut a = Recorder::default();
        a.plan.push((NodeId(1), Verb::OneSided, 7, 0));
        let sim = Simulation::new(vec![a, Recorder::default()], net());
        let mut rt: Box<dyn Runtime<u64, Recorder>> = Box::new(sim);
        assert_eq!(rt.workers(), 0, "the simulator runs on the caller");
        rt.run_to_quiescence(100);
        assert_eq!(
            rt.actors()[1].received,
            vec![(SimTime(1_000), NodeId(0), 7)]
        );
        rt.with_actor_ctx(NodeId(1), &mut |_actor, ctx| {
            ctx.send(NodeId(0), Verb::OneSided, 9);
        });
        rt.run_to_quiescence(100);
        assert_eq!(rt.actors()[0].received.last().unwrap().2, 9);
        assert_eq!(rt.stats().one_sided_msgs, 2);
    }
}
