//! `simnet`: the timer wheel behind retry backoff, and the simulator's
//! cost per event (what `cc.cpu_us_per_commit` is measured on top of).

use super::{median_of_batches, ns_per_op};
use chiller::prelude::{Duration, NetworkConfig, NodeId, SimTime};
use chiller_simnet::timer_wheel::DEFAULT_GRANULARITY_NS;
use chiller_simnet::{Actor, Ctx, Simulation, TimerWheel, Verb};
use std::hint::black_box;
use std::time::Instant;

const TIMER_OPS: u64 = 50_000;
/// Timers armed per expiry sweep, like an engine with a few retries
/// backing off at once.
const TIMERS_PER_SWEEP: u64 = 4;

/// Arm one backoff-scale timer and expire it (`insert` + its share of
/// a `pop_expired` sweep).
pub fn timer_arm_fire_ns() -> f64 {
    let mut wheel = TimerWheel::default();
    let mut now = 0u64;
    let mut fired = Vec::new();
    ns_per_op(TIMER_OPS, || {
        for _ in 0..TIMER_OPS / TIMERS_PER_SWEEP {
            for t in 0..TIMERS_PER_SWEEP {
                wheel.insert(now + 5_000 + t, t);
            }
            now += DEFAULT_GRANULARITY_NS;
            black_box(wheel.pop_expired(now, &mut fired));
            fired.clear();
        }
    })
}

/// Two actors bouncing one message: every event is a delivery plus a send.
struct Bouncer;

impl Actor<u64> for Bouncer {
    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        if ctx.node() == NodeId(0) {
            ctx.send(NodeId(1), Verb::OneSided, 0);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, src: NodeId, verb: Verb, msg: u64) {
        ctx.send(src, verb, msg + 1);
    }

    fn on_timer(&mut self, _ctx: &mut Ctx<'_, u64>, _token: u64) {}
}

/// Simulator cost per processed event (heap pop, delivery, heap push).
pub fn sim_event_ns() -> f64 {
    let mut sim = Simulation::new(vec![Bouncer, Bouncer], NetworkConfig::default());
    let mut horizon = SimTime::ZERO;
    // A batch is a fixed span of virtual time; how many events that is
    // comes back from the simulator.
    median_of_batches(|| {
        horizon += Duration::from_millis(100);
        let start = Instant::now();
        let events = sim.run_until(horizon);
        start.elapsed().as_nanos() as f64 / events.max(1) as f64
    })
}
