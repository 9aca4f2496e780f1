//! Timer-fidelity measurement on the wall-clock worker pool: how late
//! timers actually fire relative to their requested due time (the "slop").
//!
//! A lone ticker on a 1-worker pool leaves the worker idle between fires,
//! so each fire is a park until the wheel's next due time, and the slop
//! is the OS sleep granularity (~50–100µs). This test records the
//! observed slop distribution of a re-arming ticker and prints it (run
//! with `--nocapture` to read the numbers quoted in DESIGN.md §10), and
//! asserts only a generous sanity bound so CI stays robust on loaded
//! shared runners.

use chiller_common::ids::NodeId;
use chiller_common::time::Duration;
use chiller_simnet::{Actor, AsyncConfig, AsyncRuntime, Ctx, Runtime, Verb};

/// Re-arms a `delay_ns` timer `limit` times, recording each fire's slop
/// (observed now minus requested due) in nanoseconds.
struct SlopTicker {
    delay_ns: u64,
    limit: u64,
    due: u64,
    slops: Vec<u64>,
}

impl Actor<u64> for SlopTicker {
    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        self.due = ctx.now().as_nanos() + self.delay_ns;
        ctx.set_timer(Duration::from_nanos(self.delay_ns), 1);
    }

    fn on_message(&mut self, _ctx: &mut Ctx<'_, u64>, _src: NodeId, _verb: Verb, _msg: u64) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_, u64>, token: u64) {
        let now = ctx.now().as_nanos();
        self.slops.push(now.saturating_sub(self.due));
        if (self.slops.len() as u64) < self.limit {
            self.due = now + self.delay_ns;
            ctx.set_timer(Duration::from_nanos(self.delay_ns), token);
        }
    }
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    let idx = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

#[test]
fn timer_slop_distribution() {
    const FIRES: u64 = 400;
    const DELAY_NS: u64 = 50_000; // 50µs — the retry-backoff scale
    let mut rt = AsyncRuntime::with_config(
        vec![SlopTicker {
            delay_ns: DELAY_NS,
            limit: FIRES,
            due: 0,
            slops: Vec::new(),
        }],
        AsyncConfig {
            workers: Some(1),
            ..AsyncConfig::default()
        },
    );
    rt.run_to_quiescence(u64::MAX);
    let mut slops = rt.actors()[0].slops.clone();
    assert_eq!(slops.len() as u64, FIRES);
    slops.sort_unstable();
    let mean = slops.iter().sum::<u64>() as f64 / slops.len() as f64;
    println!(
        "timer slop over {FIRES} fires of a {}us timer: mean {:.1}us  p50 {:.1}us  p99 {:.1}us  max {:.1}us",
        DELAY_NS / 1_000,
        mean / 1_000.0,
        percentile(&slops, 0.50) as f64 / 1_000.0,
        percentile(&slops, 0.99) as f64 / 1_000.0,
        slops[slops.len() - 1] as f64 / 1_000.0,
    );
    // Generous sanity bound only: actual fidelity numbers are recorded in
    // DESIGN.md §10; shared CI runners can see multi-ms scheduling stalls.
    assert!(
        percentile(&slops, 0.50) < 5_000_000,
        "median timer slop above 5ms — timer path is broken"
    );
}
