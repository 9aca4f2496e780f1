//! `taskq`: one scheduling turn of the async runtime's ready queue.

use super::ns_per_op;
use std::hint::black_box;
use taskq::{SchedState, TaskQueue};

const OPS: u64 = 50_000;

/// notify (IDLE→QUEUED) → push → pop → begin → finish, one worker.
pub fn notify_pop_finish_ns() -> f64 {
    let queue = TaskQueue::new(1);
    let state = SchedState::new();
    ns_per_op(OPS, || {
        for _ in 0..OPS {
            if state.notify() {
                queue.push_local(0, 0);
            }
            let task = queue.pop(0).expect("task was just queued");
            state.begin();
            black_box(task);
            black_box(state.finish(false));
        }
    })
}
