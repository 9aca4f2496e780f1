//! # taskq
//!
//! Dependency-free executor core for the async engine backend: the three
//! primitives a ready-queue-of-task-ids executor needs, with no external
//! crates (the container is offline — this is the offline stand-in for
//! what `crossbeam-deque` + a waker slab would provide).
//!
//! * [`TaskQueue`] — the ready queue: one FIFO deque per worker plus a
//!   shared injector, with work stealing. A worker pops its own deque
//!   first, then the injector, then steals one task — the oldest — from
//!   a sibling. The producer picks the deque (the async runtime queues an
//!   engine on the worker that last ran it), and a thief moves one task
//!   at a time, so tasks stay on the worker whose cache holds their state.
//! * [`SchedState`] — the per-task scheduling state machine
//!   (IDLE / QUEUED / RUNNING / DIRTY) that guarantees a task id is in
//!   the ready queue **at most once** while making missed wakeups
//!   impossible: work that arrives while the task runs marks it DIRTY,
//!   and the runner re-enqueues it on finish.
//! * [`Parker`] — a publish-then-recheck park/unpark slot, one per
//!   `AsyncRuntime` worker, for workers with an empty queue.
//!
//! Everything here is task-agnostic: a "task" is a bare `usize` id. The
//! async runtime in `chiller-simnet` maps ids to engine slots.
//!
//! Deques and the injector are mutex-backed. That is deliberate: each
//! lock is held for a two-pointer deque operation, the queue is touched
//! once per *batch* of engine events (not per message), and the
//! state-machine guarantees keep contention to actual handoffs. The
//! lock-free part of the hot path lives in `ringq`, where the per-message
//! traffic is.

#![warn(missing_docs)]

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;

// ---------------------------------------------------------------------------
// QueueStats
// ---------------------------------------------------------------------------

/// Scheduling counters a [`TaskQueue`] maintains internally (relaxed
/// atomics, one increment per queue operation — the queue is touched once
/// per engine *batch*, so this is off the per-message hot path). Snapshot
/// with [`TaskQueue::stats`]; the async runtime merges the snapshot into its
/// `RuntimeTelemetry`.
#[derive(Default)]
pub struct QueueStats {
    pushed: AtomicU64,
    injected: AtomicU64,
    popped: AtomicU64,
    stolen: AtomicU64,
}

/// A point-in-time copy of [`QueueStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueSnapshot {
    /// Tasks pushed onto a worker's deque.
    pub pushed: u64,
    /// Tasks pushed through the shared injector.
    pub injected: u64,
    /// Tasks popped for execution (any source).
    pub popped: u64,
    /// Tasks that changed workers via stealing.
    pub stolen: u64,
}

impl QueueStats {
    fn snapshot(&self) -> QueueSnapshot {
        QueueSnapshot {
            pushed: self.pushed.load(Ordering::Relaxed),
            injected: self.injected.load(Ordering::Relaxed),
            popped: self.popped.load(Ordering::Relaxed),
            stolen: self.stolen.load(Ordering::Relaxed),
        }
    }
}

// ---------------------------------------------------------------------------
// TaskQueue
// ---------------------------------------------------------------------------

/// A work-stealing ready queue of task ids.
///
/// `pop(w)` drains worker `w`'s own deque in FIFO order, falls back to
/// the shared injector, then steals from sibling deques. FIFO (not LIFO)
/// local order keeps engine scheduling fair under load — an engine that
/// was made ready first runs first, which bounds how far any one
/// mailbox can lag.
pub struct TaskQueue {
    locals: Vec<Mutex<VecDeque<usize>>>,
    injector: Mutex<VecDeque<usize>>,
    stats: QueueStats,
}

impl TaskQueue {
    /// A queue serving `workers` workers (at least one).
    pub fn new(workers: usize) -> Self {
        assert!(workers >= 1, "a task queue needs at least one worker");
        TaskQueue {
            locals: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            injector: Mutex::new(VecDeque::new()),
            stats: QueueStats::default(),
        }
    }

    /// Point-in-time scheduling counters (racy mid-run, exact at quiescence).
    pub fn stats(&self) -> QueueSnapshot {
        self.stats.snapshot()
    }

    /// Number of worker deques.
    pub fn workers(&self) -> usize {
        self.locals.len()
    }

    /// Push `task` onto worker `worker`'s deque. Any thread may push onto
    /// any deque; the caller picks the worker (the async runtime picks
    /// the one that last ran the task — locality-preserving).
    pub fn push_local(&self, worker: usize, task: usize) {
        self.locals[worker]
            .lock()
            .expect("task deque lock")
            .push_back(task);
        self.stats.pushed.fetch_add(1, Ordering::Relaxed);
    }

    /// Push `task` from outside any worker (control plane, initial seed).
    pub fn inject(&self, task: usize) {
        self.injector.lock().expect("injector lock").push_back(task);
        self.stats.injected.fetch_add(1, Ordering::Relaxed);
    }

    /// Next ready task for worker `worker`: own deque front, else
    /// injector front, else the oldest task of a sibling deque. Returns
    /// `None` when every source is empty.
    pub fn pop(&self, worker: usize) -> Option<usize> {
        if let Some(t) = self.locals[worker]
            .lock()
            .expect("task deque lock")
            .pop_front()
        {
            self.stats.popped.fetch_add(1, Ordering::Relaxed);
            return Some(t);
        }
        if let Some(t) = self.injector.lock().expect("injector lock").pop_front() {
            self.stats.popped.fetch_add(1, Ordering::Relaxed);
            return Some(t);
        }
        let t = self.steal(worker);
        if t.is_some() {
            self.stats.popped.fetch_add(1, Ordering::Relaxed);
        }
        t
    }

    /// Steal for `thief`: scan siblings round-robin from `thief + 1` and
    /// take the oldest task of the first non-empty deque. One task, not a
    /// batch: every other task stays queued on the worker whose cache
    /// holds its state.
    fn steal(&self, thief: usize) -> Option<usize> {
        let n = self.locals.len();
        let t = (1..n).find_map(|off| {
            self.locals[(thief + off) % n]
                .lock()
                .expect("task deque lock")
                .pop_front()
        })?;
        self.stats.stolen.fetch_add(1, Ordering::Relaxed);
        Some(t)
    }

    /// Whether any deque or the injector currently holds a task. Racy by
    /// nature (a concurrent push may land right after the scan) — callers
    /// use it only as a pre-park recheck, where the parker handshake plus
    /// a bounded park timeout covers the race.
    pub fn has_ready(&self) -> bool {
        if !self.injector.lock().expect("injector lock").is_empty() {
            return true;
        }
        self.locals
            .iter()
            .any(|l| !l.lock().expect("task deque lock").is_empty())
    }
}

// ---------------------------------------------------------------------------
// SchedState
// ---------------------------------------------------------------------------

const IDLE: u8 = 0;
const QUEUED: u8 = 1;
const RUNNING: u8 = 2;
const DIRTY: u8 = 3;

/// Per-task scheduling state machine.
///
/// Invariant: a task id is in the ready queue **iff** its state is
/// QUEUED (or DIRTY, which only exists while a runner holds the task).
/// The transitions:
///
/// ```text
///   notify():   IDLE    -> QUEUED   (caller must enqueue the id)
///               RUNNING -> DIRTY    (runner will re-enqueue on finish)
///               QUEUED | DIRTY      (no-op: already scheduled)
///   begin():    QUEUED  -> RUNNING  (worker popped the id)
///   finish():   RUNNING -> IDLE     (no more work)
///               RUNNING -> QUEUED   (runner saw more work: re-enqueue)
///               DIRTY   -> QUEUED   (work arrived mid-run: re-enqueue)
/// ```
///
/// Missed wakeups are impossible by construction: a producer's `notify`
/// either enqueues the task itself (IDLE), finds it already scheduled
/// (QUEUED/DIRTY), or marks the in-flight run DIRTY — and `finish`
/// converts DIRTY into a re-enqueue. Work pushed *before* `notify` is
/// either seen by the current run's drain or covered by the DIRTY mark.
#[derive(Default)]
pub struct SchedState(AtomicU8);

impl SchedState {
    /// A task starting IDLE (not scheduled).
    pub fn new() -> Self {
        SchedState(AtomicU8::new(IDLE))
    }

    /// Signal that the task has work. Returns `true` when the caller
    /// must push the task id onto the ready queue (exactly one notifier
    /// wins that duty per idle period).
    pub fn notify(&self) -> bool {
        let mut cur = self.0.load(Ordering::SeqCst);
        loop {
            let (target, enqueue) = match cur {
                IDLE => (QUEUED, true),
                RUNNING => (DIRTY, false),
                _ => return false, // QUEUED or DIRTY: already scheduled.
            };
            match self
                .0
                .compare_exchange(cur, target, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => return enqueue,
                Err(actual) => cur = actual,
            }
        }
    }

    /// A worker popped this task from the ready queue and is about to
    /// run it. Must only be called on a QUEUED task (the queue/state
    /// invariant guarantees that).
    pub fn begin(&self) {
        let prev = self.0.swap(RUNNING, Ordering::SeqCst);
        debug_assert_eq!(prev, QUEUED, "began a task that was not queued");
    }

    /// The run finished. `has_more` is the runner's own observation of
    /// remaining work (non-empty mailbox, parked sends, pending timer
    /// fires). Returns `true` when the runner must re-enqueue the id —
    /// either because of `has_more` or because a concurrent `notify`
    /// marked the run DIRTY.
    pub fn finish(&self, has_more: bool) -> bool {
        if has_more {
            self.0.store(QUEUED, Ordering::SeqCst);
            return true;
        }
        match self
            .0
            .compare_exchange(RUNNING, IDLE, Ordering::SeqCst, Ordering::SeqCst)
        {
            Ok(_) => false,
            Err(state) => {
                debug_assert_eq!(state, DIRTY, "finish raced with an invalid state");
                self.0.store(QUEUED, Ordering::SeqCst);
                true
            }
        }
    }

    /// Whether the task is currently idle (test/diagnostic hook; racy
    /// outside quiescent points).
    pub fn is_idle(&self) -> bool {
        self.0.load(Ordering::SeqCst) == IDLE
    }
}

// ---------------------------------------------------------------------------
// Parker
// ---------------------------------------------------------------------------

/// A per-worker park/unpark slot with the publish-then-recheck handshake.
///
/// The worker publishes `sleeping = true`, re-checks its work sources,
/// then parks with a bounded timeout; a producer that makes work ready
/// *after* the publish observes the flag and unparks. A producer that
/// pushed *before* the publish is covered by the worker's re-check. Any
/// residual interleaving costs at most one park timeout, never a lost
/// wakeup.
#[derive(Default)]
pub struct Parker {
    sleeping: AtomicBool,
    thread: Mutex<Option<std::thread::Thread>>,
    parks: AtomicU64,
    wakes: AtomicU64,
}

impl Parker {
    /// A fresh, awake parker.
    pub fn new() -> Self {
        Parker::default()
    }

    /// Register the calling thread as this slot's sleeper (once per
    /// worker thread, before its first park).
    pub fn register(&self) {
        *self.thread.lock().expect("parker lock") = Some(std::thread::current());
    }

    /// Publish "about to sleep". The caller must re-check its work
    /// sources *after* this returns and before parking.
    pub fn prepare_park(&self) {
        self.sleeping.store(true, Ordering::SeqCst);
    }

    /// Abort a prepared park (the re-check found work).
    pub fn cancel_park(&self) {
        self.sleeping.store(false, Ordering::Relaxed);
    }

    /// Park the calling thread for at most `ns` nanoseconds (wakes early
    /// on [`Parker::wake`]). Clears the sleeping flag on return. Must be
    /// preceded by [`Parker::prepare_park`] + a work re-check.
    pub fn park_timeout(&self, ns: u64) {
        self.parks.fetch_add(1, Ordering::Relaxed);
        std::thread::park_timeout(std::time::Duration::from_nanos(ns));
        self.sleeping.store(false, Ordering::Relaxed);
    }

    /// Whether the worker has published a park (it is parked or about to
    /// park).
    pub fn is_parked(&self) -> bool {
        self.sleeping.load(Ordering::SeqCst)
    }

    /// Producer side: wake the worker iff it is parked or about to park.
    /// The fast path (worker awake) is a single load. Returns whether a
    /// wake was delivered.
    pub fn wake(&self) -> bool {
        if self.is_parked() && self.sleeping.swap(false, Ordering::SeqCst) {
            if let Some(t) = self.thread.lock().expect("parker lock").as_ref() {
                t.unpark();
                self.wakes.fetch_add(1, Ordering::Relaxed);
                return true;
            }
        }
        false
    }

    /// How many times the owning worker actually parked.
    pub fn parks(&self) -> u64 {
        self.parks.load(Ordering::Relaxed)
    }

    /// How many wakes were delivered to a parked/parking worker.
    pub fn wakes(&self) -> u64 {
        self.wakes.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn local_deques_are_fifo() {
        let q = TaskQueue::new(2);
        q.push_local(0, 1);
        q.push_local(0, 2);
        q.push_local(0, 3);
        assert_eq!(q.pop(0), Some(1));
        assert_eq!(q.pop(0), Some(2));
        assert_eq!(q.pop(0), Some(3));
        assert_eq!(q.pop(0), None);
    }

    #[test]
    fn injector_feeds_any_worker() {
        let q = TaskQueue::new(3);
        q.inject(7);
        q.inject(8);
        assert_eq!(q.pop(2), Some(7));
        assert_eq!(q.pop(0), Some(8));
        assert!(!q.has_ready());
    }

    #[test]
    fn steal_takes_only_the_oldest_task() {
        let q = TaskQueue::new(2);
        for t in 0..4 {
            q.push_local(1, t);
        }
        // Worker 0 steals one task, the victim's oldest.
        assert_eq!(q.pop(0), Some(0));
        assert_eq!(q.stats().stolen, 1);
        // The rest stay on the victim, in FIFO order.
        assert_eq!(q.pop(1), Some(1));
        q.push_local(1, 4);
        assert_eq!(q.pop(0), Some(2), "the next steal takes the new oldest");
        assert_eq!(q.pop(1), Some(3));
        assert_eq!(q.pop(1), Some(4));
        assert_eq!(q.pop(0), None);
        assert_eq!(q.pop(1), None);
        assert_eq!(q.stats().stolen, 2);
    }

    #[test]
    fn own_deque_beats_injector_beats_steal() {
        let q = TaskQueue::new(2);
        q.push_local(1, 30); // steal candidate
        q.inject(20);
        q.push_local(0, 10);
        assert_eq!(q.pop(0), Some(10));
        assert_eq!(q.pop(0), Some(20));
        assert_eq!(q.pop(0), Some(30));
    }

    #[test]
    fn sched_state_single_enqueue_duty() {
        let s = SchedState::new();
        assert!(s.notify(), "first notify wins the enqueue duty");
        assert!(!s.notify(), "second notify sees QUEUED");
        s.begin();
        assert!(!s.notify(), "notify during run marks DIRTY, no enqueue");
        assert!(s.finish(false), "DIRTY converts to a re-enqueue");
        s.begin();
        assert!(!s.finish(false), "clean finish goes IDLE");
        assert!(s.is_idle());
    }

    #[test]
    fn finish_with_more_work_requeues() {
        let s = SchedState::new();
        assert!(s.notify());
        s.begin();
        assert!(s.finish(true));
        s.begin();
        assert!(!s.finish(false));
    }

    /// The executor invariant under concurrency: N producers notifying a
    /// task while workers run it must never double-enqueue it and never
    /// strand a notification. Modeled by counting enqueue duties handed
    /// out vs runs consumed.
    #[test]
    fn concurrent_notify_never_double_enqueues() {
        let state = Arc::new(SchedState::new());
        let queue = Arc::new(TaskQueue::new(1));
        let notifies = 10_000usize;
        let runs = Arc::new(AtomicUsize::new(0));
        let done = Arc::new(AtomicBool::new(false));
        let producer = {
            let state = Arc::clone(&state);
            let queue = Arc::clone(&queue);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                for _ in 0..notifies {
                    if state.notify() {
                        queue.push_local(0, 42);
                    }
                }
                done.store(true, Ordering::SeqCst);
            })
        };
        // The consumer drains until the producer is done and the queue is
        // empty; each pop must find the task QUEUED (begin asserts that).
        let consumer = {
            let state = Arc::clone(&state);
            let queue = Arc::clone(&queue);
            let runs = Arc::clone(&runs);
            let done = Arc::clone(&done);
            std::thread::spawn(move || loop {
                match queue.pop(0) {
                    Some(t) => {
                        assert_eq!(t, 42);
                        state.begin();
                        runs.fetch_add(1, Ordering::Relaxed);
                        if state.finish(false) {
                            queue.push_local(0, 42);
                        }
                    }
                    None => {
                        // Only exit once the producer has finished: every
                        // enqueue duty it handed out must be consumed.
                        if done.load(Ordering::SeqCst) && !queue.has_ready() && state.is_idle() {
                            break;
                        }
                        std::hint::spin_loop();
                    }
                }
            })
        };
        producer.join().expect("producer");
        consumer.join().expect("consumer");
        assert!(state.is_idle());
        assert!(!queue.has_ready(), "no stranded enqueue");
        assert!(runs.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn parker_wake_prevents_full_timeout() {
        let p = Arc::new(Parker::new());
        let q = Arc::new(TaskQueue::new(1));
        let consumer = {
            let p = Arc::clone(&p);
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                p.register();
                loop {
                    if let Some(t) = q.pop(0) {
                        return t;
                    }
                    p.prepare_park();
                    if q.has_ready() {
                        p.cancel_park();
                        continue;
                    }
                    // Generous timeout: the producer's wake must cut it short.
                    p.park_timeout(5_000_000_000);
                }
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        let start = std::time::Instant::now();
        q.push_local(0, 9);
        p.wake();
        assert_eq!(consumer.join().expect("consumer"), 9);
        assert!(
            start.elapsed() < std::time::Duration::from_secs(4),
            "wake must beat the park timeout"
        );
    }

    #[test]
    fn wake_on_awake_worker_is_a_cheap_noop() {
        let p = Parker::new();
        assert!(!p.wake(), "no one is sleeping");
        assert_eq!(p.wakes(), 0);
    }

    #[test]
    fn queue_stats_count_operations() {
        let q = TaskQueue::new(2);
        q.push_local(1, 10);
        q.push_local(1, 11);
        q.push_local(1, 12);
        q.push_local(1, 13);
        q.inject(20);
        // Worker 0: own deque empty, injector first.
        assert_eq!(q.pop(0), Some(20));
        // Then a steal of the victim's oldest task only.
        assert_eq!(q.pop(0), Some(10));
        let s = q.stats();
        assert_eq!(s.pushed, 4);
        assert_eq!(s.injected, 1);
        assert_eq!(s.popped, 2);
        assert_eq!(s.stolen, 1);
    }

    #[test]
    fn parker_counts_parks_and_wakes() {
        let p = Parker::new();
        p.register();
        p.prepare_park();
        p.park_timeout(1_000); // expires, no wake
        assert_eq!(p.parks(), 1);
        assert_eq!(p.wakes(), 0);
        p.prepare_park();
        assert!(p.wake(), "sleeping flag published, wake is delivered");
        assert_eq!(p.wakes(), 1);
    }
}
