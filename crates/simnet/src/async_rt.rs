//! The wall-clock backend: engines multiplexed on a fixed worker pool.
//!
//! Engines are inert [`Actor`] state machines, so they run as *tasks* on
//! a work-stealing ready queue (`taskq`), driven by a pool of OS worker
//! threads. Both wall-clock [`Backend`](crate::Backend)s are this runtime:
//! `Backend::Threaded` sizes the pool at one worker per engine (the
//! paper's one-engine-per-core deployment), and `Backend::Async` at the
//! pool size the cluster builder resolves (`ClusterBuilder::workers`,
//! then `CHILLER_WORKERS`, then the detected parallelism), so a
//! 1000-partition cluster runs on a laptop. No latencies are modelled:
//! the reported throughput is what the host actually sustains.
//!
//! ## Executor model
//!
//! Each engine id has a `taskq::SchedState` (IDLE / QUEUED / RUNNING /
//! DIRTY) guaranteeing the id sits in the ready queue at most once and
//! that wakeups are never lost: delivering work to an engine calls
//! `notify()`, which either enqueues the id (IDLE), finds it already
//! scheduled, or marks the in-flight run DIRTY so the runner re-enqueues
//! it on finish. A popped engine runs **exclusively** on one worker —
//! the state machine is the mutual-exclusion proof; the `Mutex` around
//! each engine slot is uncontended by construction and exists to move
//! ownership safely between workers and the paused-phase main thread.
//!
//! An engine is queued on the worker that **last ran it**, whose cache
//! holds its store, coordinator map and metrics: every turn records its
//! worker in a per-engine slot, and every notify — message delivery,
//! timer expiry, control-plane injection — pushes the engine onto that
//! worker's deque. An idle sibling steals one engine, the oldest, so an
//! engine changes worker only when its own worker is busy or parked.
//!
//! ## Protocols
//!
//! * **Mailboxes** — one bounded lock-free sequence-slot ring per engine
//!   (`ringq::mpsc` — no mutex anywhere on the message path). Its
//!   producer pushes through `&self`, so all engines share **one**
//!   producer per destination: O(n) outbox state. The ring consumes
//!   tickets in claim order, which gives each destination the
//!   cross-sender arrival FIFO the replication path relies on (DESIGN.md
//!   §11).
//! * **Never-blocking sends, global-FIFO flush** — each engine parks
//!   remote sends in a per-engine `pending` queue, flushed in send order
//!   across *all* destinations and stalling entirely at the first full
//!   mailbox (cross-destination send order is replica-divergence-
//!   critical; see DESIGN.md §10). A stalled engine is simply
//!   re-enqueued: the destinations are drained by the same pool, so
//!   capacity frees up and the retry makes progress. Because an engine
//!   runs on one worker at a time, its flush order is exactly the
//!   single-thread order the invariant needs. Self-sends go to a local
//!   queue that never touches a mailbox, so cyclic protocols cannot
//!   deadlock.
//! * **Batched turns** — a scheduling turn fires the engine's routed
//!   timer tokens, then drains up to `EVENT_BATCH` events, and
//!   publishes the turn's bookkeeping (events, outstanding-work delta)
//!   once, so the per-message cost is plain local arithmetic plus the
//!   ring's claim-CAS.
//! * **Quiescence** — a global outstanding-work counter (spawns −
//!   retirements), accumulated per engine and published in a single
//!   atomic add *before* the flush, so no worker can consume a message
//!   whose registration is pending. Zero means no queued message, no
//!   armed timer and no handler mid-flight; workers exit when they read
//!   it.
//! * **Park/unpark** — idle workers use a publish-then-recheck handshake
//!   (`taskq::Parker`). A notify whose target worker is awake sends no
//!   wake; if that worker is parked, the engine goes to the notifier's
//!   deque instead and one sleeping worker is woken. After pushing onto
//!   another worker's deque the notifier re-checks that worker's parker
//!   (SeqCst) and wakes it if it parked in between: either its re-check
//!   sees the push or the notifier sees its flag. A missed race costs at
//!   most one bounded park (`MAX_PARK_NS`).
//! * **Timers** — each worker owns a hashed [`TimerWheel`] plus a slab
//!   mapping wheel tokens to `(engine, actor token)`. A timer goes to the
//!   wheel of the worker running the engine when it is armed. Expired
//!   entries are routed to the owning engine's fire queue and the engine
//!   is notified onto the worker that last ran it; it fires them at the
//!   start of its next turn. An idle worker parks until its next due
//!   time, so timer slop is bounded by the OS sleep granularity plus
//!   queueing delay.
//! * **`use_cpu`** — a no-op: real CPU is consumed by actually executing
//!   the handler.
//!
//! Run phases, pauses, control-plane injection ([`Runtime::actors_mut`],
//! [`Runtime::with_actor_ctx`]) behave exactly as on the simulator:
//! workers exist only inside scoped run phases; between phases the main
//! thread has exclusive actor access, and in-flight messages, parked
//! sends, armed timers and the ready queue itself survive the pause.

use crate::runtime::{Actor, Clock, Ctx, Mailbox, NetStats, Runtime, Verb};
use crate::sizing;
use crate::timer_wheel::TimerWheel;
use chiller_common::ids::NodeId;
use chiller_common::metrics::Histogram;
use chiller_common::time::{Duration, SimTime};
use chiller_obs::RuntimeTelemetry;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Default bound of each engine's mailbox (messages, not bytes).
pub const DEFAULT_MAILBOX_CAPACITY: usize = 1024;

/// Longest a worker sleeps before re-checking the deadline, the ready
/// queue and the quiescence counter (responsiveness, not correctness).
const MAX_PARK_NS: u64 = 200_000;

/// Most events (timer fires + messages) an engine handles per scheduling
/// turn before it yields the worker: bounds both scheduling latency for
/// other ready engines and the phase-control latency (deadline / event
/// limit are re-checked between turns).
const EVENT_BATCH: usize = 64;

/// Construction options for an [`AsyncRuntime`].
#[derive(Debug, Clone)]
pub struct AsyncConfig {
    /// Per-engine mailbox bound (messages). Rounded up to a power of two
    /// by the rings.
    pub capacity: usize,
    /// Worker-pool size; `None` means the detected parallelism
    /// ([`sizing::detected_parallelism`]). Clamped to the engine count
    /// either way.
    pub workers: Option<usize>,
}

impl Default for AsyncConfig {
    /// Capacity [`DEFAULT_MAILBOX_CAPACITY`], workers from the detected
    /// parallelism.
    fn default() -> Self {
        AsyncConfig {
            capacity: DEFAULT_MAILBOX_CAPACITY,
            workers: None,
        }
    }
}

/// A message in flight between two engines.
struct Envelope<M> {
    src: NodeId,
    verb: Verb,
    msg: M,
}

/// Per-engine state that persists across run phases. While a phase runs
/// it lives inside the engine's slot (owned by whichever worker holds
/// the engine); between phases it moves back into the runtime so the
/// control plane can reach it without locks.
struct EngineState<M> {
    node: NodeId,
    /// This engine's mailbox: multi-producer by construction, since any
    /// worker may run any sending engine.
    inbox: ringq::mpsc::Consumer<Envelope<M>>,
    /// Remote sends parked until this engine's next flush, in send order
    /// across *all* destinations (global FIFO — see the module docs and
    /// DESIGN.md §10 for why per-destination order is not enough).
    pending: VecDeque<(NodeId, Envelope<M>)>,
    /// Self-sends: exactly one producer and one consumer (whichever
    /// worker currently runs this engine), so a plain queue suffices.
    local: VecDeque<Envelope<M>>,
    /// Spawns (sends + armed timers) minus retirements not yet published
    /// to `Shared::outstanding`.
    outstanding_delta: i64,
    /// Whether `on_start` has run.
    started: bool,
    stats: NetStats,
    /// Scheduler counters owned by this engine (merged on read while
    /// paused; the pool-wide counters live in [`Shared`] instead).
    tel: RuntimeTelemetry,
}

impl<M> EngineState<M> {
    /// Publish the accumulated outstanding-work delta. Must run before
    /// the engine's envelopes are flushed and before its worker may
    /// check quiescence: a message whose registration is still pending
    /// could otherwise be consumed and retired first, letting the counter
    /// read zero while work remains.
    #[inline]
    fn publish_outstanding(&mut self, shared: &Shared<M>) {
        if self.outstanding_delta != 0 {
            shared
                .outstanding
                .fetch_add(self.outstanding_delta, Ordering::SeqCst);
            self.outstanding_delta = 0;
        }
    }
}

/// An engine slot: actor + state, owned by at most one worker at a time.
/// `None` only between phases (state is moved back into the runtime).
/// The mutex is uncontended while a phase runs — the `SchedState`
/// machine already serializes access — it exists to make the ownership
/// handoff between workers (and the phase-boundary moves) safe Rust.
struct EngineSlot<M, A> {
    cell: Mutex<Option<Engine<M, A>>>,
}

struct Engine<M, A> {
    actor: A,
    st: EngineState<M>,
}

/// One worker's timer state: a hashed wheel whose tokens index a slab of
/// `(engine, actor token)` pairs. Owned exclusively by worker `w` across
/// all phases (`&mut` handed into the scoped thread), so timer arming
/// and expiry are synchronization-free.
struct WorkerTimers {
    wheel: TimerWheel,
    slab: Vec<(usize, u64)>,
    free: Vec<usize>,
    /// Scratch for expired batches (reused).
    fired: Vec<(u64, u64)>,
    /// Firing slop (expiry wall time − due time) for this worker's wheel:
    /// bounded by park granularity plus queueing delay.
    slop: Histogram,
}

impl WorkerTimers {
    fn new() -> Self {
        WorkerTimers {
            wheel: TimerWheel::default(),
            slab: Vec::new(),
            free: Vec::new(),
            fired: Vec::new(),
            slop: Histogram::new(),
        }
    }

    /// Arm `token` for `engine` at absolute `due` ns.
    fn arm(&mut self, due: u64, engine: usize, token: u64) {
        let idx = match self.free.pop() {
            Some(i) => {
                self.slab[i] = (engine, token);
                i
            }
            None => {
                self.slab.push((engine, token));
                self.slab.len() - 1
            }
        };
        self.wheel.insert(due, idx as u64);
    }
}

/// Coordination state shared by all workers during a phase (and by the
/// control plane between phases).
struct Shared<M> {
    /// Origin of the monotonic wall clock.
    start: Instant,
    /// Queued messages + armed timers + handlers mid-flight, cluster-wide.
    outstanding: AtomicI64,
    /// Wall-clock deadline (ns since `start`) of the current phase.
    deadline_ns: AtomicU64,
    /// Runaway guard for `run_to_quiescence`.
    event_limit: AtomicU64,
    /// Total events processed (published per engine turn — approximate
    /// while a turn is mid-flight).
    events: AtomicU64,
    /// One shared sender per destination engine, used by every sender
    /// concurrently (`ringq` producers push through `&self`): O(n)
    /// outbox state.
    outboxes: Vec<ringq::mpsc::Producer<Envelope<M>>>,
    /// Per-engine scheduling state machines.
    scheds: Vec<taskq::SchedState>,
    /// Per-engine expired-timer tokens awaiting delivery (pushed by the
    /// worker whose wheel expired them, drained by the engine's runner).
    fires: Vec<Mutex<VecDeque<u64>>>,
    /// The ready queue of engine ids.
    queue: taskq::TaskQueue,
    /// Per engine: the worker that last began a turn of it (its home
    /// until it is first run). `notify` queues the engine there.
    last_worker: Vec<AtomicUsize>,
    /// One park slot per *worker* (not per engine).
    parkers: Vec<taskq::Parker>,
    /// Notifies that won the enqueue duty (engine went IDLE → QUEUED).
    notifies: AtomicU64,
    /// Turns that neither handled an event nor delivered a parked
    /// envelope (pure flush-stall retries — the yield path).
    zero_progress_turns: AtomicU64,
    /// Park handshakes cancelled by the publish-then-recheck leg finding
    /// ready work — each one is a wakeup the handshake refused to lose.
    lost_wakeups_avoided: AtomicU64,
}

impl<M> Shared<M> {
    #[inline]
    fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    #[inline]
    fn limit_hit(&self) -> bool {
        self.events.load(Ordering::Relaxed) >= self.event_limit.load(Ordering::Relaxed)
    }

    /// Make engine `e` ready: hand the enqueue duty through its state
    /// machine and queue `e` on the worker that last ran it, whose cache
    /// holds its state. That worker is awake, so no wake is sent. If it
    /// is parked, fall back to the caller's own deque (worker context) or
    /// the injector (control plane) and wake one sleeping worker.
    fn notify(&self, e: usize, from_worker: Option<usize>) {
        if !self.scheds[e].notify() {
            return;
        }
        self.notifies.fetch_add(1, Ordering::Relaxed);
        let last = self.last_worker[e].load(Ordering::Relaxed);
        let parker = &self.parkers[last];
        if from_worker == Some(last) || !parker.is_parked() {
            self.queue.push_local(last, e);
            // `last` may have published its park after the check, and
            // its re-check may have run before the push: wake it.
            parker.wake();
            return;
        }
        match from_worker {
            Some(w) => self.queue.push_local(w, e),
            None => self.queue.inject(e),
        }
        self.wake_one(from_worker);
    }

    /// Wake one sleeping worker (skipping the caller, which is awake).
    fn wake_one(&self, except: Option<usize>) {
        for (i, p) in self.parkers.iter().enumerate() {
            if Some(i) != except && p.wake() {
                return;
            }
        }
    }
}

/// A fixed pool of workers multiplexing every engine. See the module
/// docs for the executor model and its protocols.
pub struct AsyncRuntime<M, A> {
    /// Actors, in node order — populated between phases, drained into
    /// the slots while a phase runs.
    actors: Vec<A>,
    /// Engine states, same lifecycle as `actors`.
    states: Vec<EngineState<M>>,
    slots: Vec<EngineSlot<M, A>>,
    /// One timer domain per worker, `&mut`-borrowed by that worker
    /// during phases.
    worker_timers: Vec<WorkerTimers>,
    shared: Shared<M>,
    nworkers: usize,
    started: bool,
}

impl<M: Send, A: Actor<M> + Send> AsyncRuntime<M, A> {
    /// Build an async runtime over the given actors; actor `i` runs as
    /// engine `NodeId(i)`, with [`AsyncConfig::default`] options.
    pub fn new(actors: Vec<A>) -> Self {
        Self::with_config(actors, AsyncConfig::default())
    }

    /// Build with explicit options.
    pub fn with_config(actors: Vec<A>, cfg: AsyncConfig) -> Self {
        assert!(
            cfg.capacity >= 1,
            "mailboxes must hold at least one message"
        );
        let n = actors.len();
        let nworkers = cfg
            .workers
            .unwrap_or_else(sizing::detected_parallelism)
            .clamp(1, n.max(1));
        let (outboxes, inboxes): (Vec<_>, Vec<_>) =
            (0..n).map(|_| ringq::mpsc::bounded(cfg.capacity)).unzip();
        let states: Vec<EngineState<M>> = inboxes
            .into_iter()
            .enumerate()
            .map(|(i, inbox)| EngineState {
                node: NodeId(i as u32),
                inbox,
                pending: VecDeque::new(),
                local: VecDeque::new(),
                outstanding_delta: 0,
                started: false,
                stats: NetStats::default(),
                tel: RuntimeTelemetry::default(),
            })
            .collect();
        AsyncRuntime {
            actors,
            states,
            slots: (0..n)
                .map(|_| EngineSlot {
                    cell: Mutex::new(None),
                })
                .collect(),
            worker_timers: (0..nworkers).map(|_| WorkerTimers::new()).collect(),
            shared: Shared {
                start: Instant::now(),
                outstanding: AtomicI64::new(0),
                deadline_ns: AtomicU64::new(0),
                event_limit: AtomicU64::new(u64::MAX),
                events: AtomicU64::new(0),
                outboxes,
                scheds: (0..n).map(|_| taskq::SchedState::new()).collect(),
                fires: (0..n).map(|_| Mutex::new(VecDeque::new())).collect(),
                queue: taskq::TaskQueue::new(nworkers),
                last_worker: (0..n).map(|e| AtomicUsize::new(e % nworkers)).collect(),
                parkers: (0..nworkers).map(|_| taskq::Parker::new()).collect(),
                notifies: AtomicU64::new(0),
                zero_progress_turns: AtomicU64::new(0),
                lost_wakeups_avoided: AtomicU64::new(0),
            },
            nworkers,
            started: false,
        }
    }

    /// The worker-pool size (fixed at construction).
    pub fn worker_count(&self) -> usize {
        self.nworkers
    }

    /// Run one phase: move actors+states into the slots, spawn the
    /// worker pool (scoped), join when every worker has hit the deadline,
    /// observed quiescence, or tripped the event limit; then move the
    /// state back. Returns events processed during the phase.
    fn run_phase(&mut self, deadline_ns: u64, max_events: u64) -> u64 {
        let n = self.actors.len();
        let first = !self.started;
        if first {
            self.started = true;
            // Startup hold: no worker may observe "quiescent" before
            // every engine's on_start has armed its initial work.
            self.shared
                .outstanding
                .fetch_add(n as i64, Ordering::SeqCst);
            // Seed the ready queue round-robin across the workers'
            // deques so on_start work spreads without stealing.
            for e in 0..n {
                if self.shared.scheds[e].notify() {
                    self.shared.queue.push_local(e % self.nworkers, e);
                }
            }
        }
        self.shared.deadline_ns.store(deadline_ns, Ordering::SeqCst);
        let before = self.shared.events.load(Ordering::SeqCst);
        self.shared
            .event_limit
            .store(before.saturating_add(max_events), Ordering::SeqCst);
        // Hand each engine to the pool.
        for (e, (actor, st)) in self.actors.drain(..).zip(self.states.drain(..)).enumerate() {
            *self.slots[e].cell.lock().expect("engine slot lock") = Some(Engine { actor, st });
        }
        let shared = &self.shared;
        let slots = &self.slots;
        std::thread::scope(|scope| {
            for (w, timers) in self.worker_timers.iter_mut().enumerate() {
                scope.spawn(move || worker_loop(w, timers, shared, slots));
            }
        });
        // Reclaim the engines for the paused control plane.
        for slot in &self.slots {
            let eng = slot
                .cell
                .lock()
                .expect("engine slot lock")
                .take()
                .expect("engine present at phase end");
            self.actors.push(eng.actor);
            self.states.push(eng.st);
        }
        self.shared.events.load(Ordering::SeqCst) - before
    }
}

/// Push parked sends into their destination mailboxes in send order,
/// stalling entirely at the first full mailbox (global-FIFO invariant —
/// see `EngineState::pending`). Successful deliveries notify the
/// destination engine. Returns how many envelopes were delivered.
fn flush_pending<M>(st: &mut EngineState<M>, shared: &Shared<M>, w: usize) -> u64 {
    st.tel.parked_depth_hwm = st.tel.parked_depth_hwm.max(st.pending.len() as u64);
    let mut delivered = 0;
    while let Some((dst, env)) = st.pending.pop_front() {
        match shared.outboxes[dst.idx()].push(env) {
            Ok(()) => {
                delivered += 1;
                shared.notify(dst.idx(), Some(w));
            }
            Err(env) => {
                st.pending.push_front((dst, env));
                st.tel.flush_stalls += 1;
                break;
            }
        }
    }
    delivered
}

/// Expire worker `w`'s due timers: route each expired token to its
/// engine's fire queue and notify the engine. Returns how many expired.
fn expire_timers<M>(timers: &mut WorkerTimers, shared: &Shared<M>, w: usize) -> usize {
    let mut batch = std::mem::take(&mut timers.fired);
    batch.clear();
    let now = shared.now_ns();
    timers.wheel.pop_expired(now, &mut batch);
    let count = batch.len();
    for &(due, slab_idx) in &batch {
        timers.slop.record(now.saturating_sub(due));
        let (engine, token) = timers.slab[slab_idx as usize];
        timers.free.push(slab_idx as usize);
        shared.fires[engine]
            .lock()
            .expect("fire queue lock")
            .push_back(token);
        shared.notify(engine, Some(w));
    }
    timers.fired = batch;
    count
}

/// One scheduling turn of engine `e` on worker `w`: run `on_start` if
/// needed, fire queued timer tokens, drain up to [`EVENT_BATCH`] events,
/// publish bookkeeping, flush parked sends, then hand the engine back to
/// the state machine (re-enqueueing when observable work remains).
///
/// Returns whether the turn made progress (handled an event or delivered
/// a parked envelope). A zero-progress turn means the engine exists only
/// to retry a stalled flush — the worker yields its timeslice so the
/// destination's worker can drain (on oversubscribed hosts the retry
/// loop would otherwise starve the very engine it is waiting on).
fn run_engine<M, A: Actor<M>>(
    e: usize,
    w: usize,
    timers: &mut WorkerTimers,
    shared: &Shared<M>,
    slots: &[EngineSlot<M, A>],
) -> bool {
    shared.scheds[e].begin();
    shared.last_worker[e].store(w, Ordering::Relaxed);
    let mut guard = slots[e].cell.lock().expect("engine slot lock");
    let eng = guard.as_mut().expect("engine present during phase");
    let (actor, st) = (&mut eng.actor, &mut eng.st);

    if !st.started {
        st.started = true;
        {
            let mut mb = AsyncMailbox { st, timers, shared };
            let mut ctx = Ctx::from_mailbox(&mut mb);
            actor.on_start(&mut ctx);
        }
        st.publish_outstanding(shared);
        // Release this engine's startup hold.
        shared.outstanding.fetch_sub(1, Ordering::SeqCst);
    }

    let mut handled = 0u64;

    // 1. Fire expired timer tokens routed here by the worker wheels.
    //    Drained in bounded chunks so a timer storm cannot monopolize
    //    the worker past the batch budget.
    while handled < EVENT_BATCH as u64 {
        let token = {
            let mut q = shared.fires[e].lock().expect("fire queue lock");
            match q.pop_front() {
                Some(t) => t,
                None => break,
            }
        };
        st.stats.timer_fires += 1;
        st.stats.events_processed += 1;
        handled += 1;
        let mut mb = AsyncMailbox { st, timers, shared };
        let mut ctx = Ctx::from_mailbox(&mut mb);
        actor.on_timer(&mut ctx, token);
    }

    // 2. Drain messages: self-sends first (no synchronization), then the
    //    shared inbox. `drained_dry` records whether we stopped because
    //    the sources were empty (vs the batch budget).
    st.tel.ring_occupancy_hwm = st.tel.ring_occupancy_hwm.max(st.inbox.len() as u64);
    let mut drained_dry = false;
    while handled < EVENT_BATCH as u64 {
        let Some(env) = st.local.pop_front().or_else(|| st.inbox.pop()) else {
            drained_dry = true;
            break;
        };
        st.stats.events_processed += 1;
        handled += 1;
        let mut mb = AsyncMailbox { st, timers, shared };
        let mut ctx = Ctx::from_mailbox(&mut mb);
        actor.on_message(&mut ctx, env.src, env.verb, env.msg);
    }

    // 3. Retire the batch and publish the delta *before* flushing, so
    //    the registration of every spawned message precedes its
    //    availability (quiescence soundness — see module docs).
    if handled > 0 {
        shared.events.fetch_add(handled, Ordering::Relaxed);
        st.outstanding_delta -= handled as i64;
        st.tel.batches_drained += 1;
    }
    // End of this engine's turn: amortized side effects (group-commit
    // fsyncs) flush at the same boundary parked sends do. Also covers the
    // zero-progress case — an engine going idle must not leave a commit
    // buffered. No-op unless something is pending.
    actor.on_batch_end();
    st.publish_outstanding(shared);
    let delivered = flush_pending(st, shared, w);

    // 4. Observable work left? Un-drained sources, a stalled flush, or
    //    timer tokens that arrived while we ran. Anything that arrives
    //    after this check is covered by notify(): the state machine is
    //    RUNNING, so the producer marks it DIRTY and finish() converts
    //    that into a re-enqueue.
    let has_more = !drained_dry
        || !st.pending.is_empty()
        || !shared.fires[e].lock().expect("fire queue lock").is_empty();
    drop(guard);
    if shared.scheds[e].finish(has_more) {
        shared.queue.push_local(w, e);
        // No wake: this worker just freed up and pops it next turn, and
        // siblings steal it if they idle first.
    }
    handled > 0 || delivered > 0
}

/// The worker loop: expire own timers, run one ready engine, re-check
/// phase controls; park when idle. The loop invariant: every engine's
/// `outstanding_delta` is published whenever no worker holds it, so the
/// quiescence check is sound.
fn worker_loop<M, A: Actor<M>>(
    w: usize,
    timers: &mut WorkerTimers,
    shared: &Shared<M>,
    slots: &[EngineSlot<M, A>],
) {
    shared.parkers[w].register();
    loop {
        let deadline = shared.deadline_ns.load(Ordering::SeqCst);
        if shared.now_ns() >= deadline {
            return; // Pause: all state survives for the next phase.
        }
        if shared.limit_hit() {
            return; // Runaway guard tripped.
        }

        expire_timers(timers, shared, w);

        if let Some(e) = shared.queue.pop(w) {
            if !run_engine(e, w, timers, shared, slots) {
                // Pure flush-stall retry: give the destination's worker
                // the CPU before spinning another fruitless turn.
                shared.zero_progress_turns.fetch_add(1, Ordering::Relaxed);
                std::thread::yield_now();
            }
            continue;
        }

        // Nothing ready here; if nothing is outstanding anywhere, the
        // cluster is quiescent.
        if shared.outstanding.load(Ordering::SeqCst) == 0 {
            return;
        }

        // Idle: park until this worker's next timer, the deadline, or a
        // bounded tick — whichever is first. Ready-queue pushes wake us.
        let now = shared.now_ns();
        let wake = timers
            .wheel
            .next_due()
            .unwrap_or(u64::MAX)
            .min(deadline)
            .min(now.saturating_add(MAX_PARK_NS));
        let parker = &shared.parkers[w];
        parker.prepare_park();
        // Re-check after publishing the flag (the handshake's re-check
        // leg): a push that happened before the publish is ours to see.
        if shared.queue.has_ready() {
            parker.cancel_park();
            shared.lost_wakeups_avoided.fetch_add(1, Ordering::Relaxed);
            continue;
        }
        if shared.outstanding.load(Ordering::SeqCst) == 0 {
            parker.cancel_park();
            continue;
        }
        parker.park_timeout(wake.saturating_sub(now).max(1));
    }
}

impl<M: Send, A: Actor<M> + Send> Clock for AsyncRuntime<M, A> {
    fn now(&self) -> SimTime {
        SimTime(self.shared.now_ns())
    }
}

impl<M: Send, A: Actor<M> + Send> Runtime<M, A> for AsyncRuntime<M, A> {
    fn stats(&self) -> NetStats {
        let mut merged = NetStats::default();
        for st in &self.states {
            merged.merge(&st.stats);
        }
        merged
    }

    fn num_nodes(&self) -> usize {
        self.actors.len()
    }

    fn actors(&self) -> &[A] {
        &self.actors
    }

    fn actors_mut(&mut self) -> &mut [A] {
        &mut self.actors
    }

    fn run_until(&mut self, until: SimTime) -> u64 {
        self.run_phase(until.as_nanos(), u64::MAX)
    }

    fn run_to_quiescence(&mut self, max_events: u64) -> u64 {
        self.run_phase(u64::MAX, max_events)
    }

    fn workers(&self) -> usize {
        self.nworkers
    }

    fn telemetry(&self) -> RuntimeTelemetry {
        let mut tel = RuntimeTelemetry::default();
        for st in &self.states {
            tel.merge(&st.tel);
        }
        for wt in &self.worker_timers {
            tel.timer_slop.merge(&wt.slop);
        }
        for p in &self.shared.parkers {
            tel.parks += p.parks();
            tel.unparks += p.wakes();
        }
        let q = self.shared.queue.stats();
        tel.tasks_pushed = q.pushed;
        tel.tasks_injected = q.injected;
        tel.tasks_popped = q.popped;
        tel.tasks_stolen = q.stolen;
        tel.notifies = self.shared.notifies.load(Ordering::Relaxed);
        tel.zero_progress_turns = self.shared.zero_progress_turns.load(Ordering::Relaxed);
        tel.lost_wakeups_avoided = self.shared.lost_wakeups_avoided.load(Ordering::Relaxed);
        tel
    }

    fn with_actor_ctx(&mut self, node: NodeId, f: &mut dyn FnMut(&mut A, &mut Ctx<'_, M>)) {
        let e = node.idx();
        let w = self.shared.last_worker[e].load(Ordering::Relaxed);
        let st = &mut self.states[e];
        {
            let mut mb = AsyncMailbox {
                st,
                timers: &mut self.worker_timers[w],
                shared: &self.shared,
            };
            let mut ctx = Ctx::from_mailbox(&mut mb);
            f(&mut self.actors[e], &mut ctx);
        }
        // Register injected sends/timers now; the envelopes themselves
        // stay parked until the engine's first turn next phase — which
        // the notify below guarantees happens.
        st.publish_outstanding(&self.shared);
        if !st.pending.is_empty() || !st.local.is_empty() {
            self.shared.notify(e, None);
        }
    }
}

/// The pool's [`Mailbox`]: timers go to the *current worker's* wheel and
/// remote sends park in the *engine's* pending queue.
struct AsyncMailbox<'a, M> {
    st: &'a mut EngineState<M>,
    timers: &'a mut WorkerTimers,
    shared: &'a Shared<M>,
}

impl<M> Mailbox<M> for AsyncMailbox<'_, M> {
    #[inline]
    fn now(&self) -> SimTime {
        SimTime(self.shared.now_ns())
    }

    #[inline]
    fn node(&self) -> NodeId {
        self.st.node
    }

    fn send(&mut self, dst: NodeId, verb: Verb, msg: M) {
        let src = self.st.node;
        self.st.outstanding_delta += 1;
        if src == dst {
            self.st.stats.local_msgs += 1;
            self.st.local.push_back(Envelope { src, verb, msg });
        } else {
            match verb {
                Verb::OneSided => self.st.stats.one_sided_msgs += 1,
                Verb::Rpc => self.st.stats.rpc_msgs += 1,
            }
            self.st
                .pending
                .push_back((dst, Envelope { src, verb, msg }));
        }
    }

    fn set_timer(&mut self, d: Duration, token: u64) {
        self.st.outstanding_delta += 1;
        let due = self.shared.now_ns().saturating_add(d.as_nanos());
        self.timers.arm(due, self.st.node.idx(), token);
    }

    fn use_cpu(&mut self, _d: Duration) {
        // Real CPU is consumed by actually executing the handler.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    enum TestActor {
        Pinger {
            count: u64,
            replies: u64,
        },
        Echo {
            received: Vec<(NodeId, u64)>,
        },
        Recorder {
            received: Vec<u64>,
        },
        Ticker {
            fired: u64,
            limit: u64,
            delay_ns: u64,
        },
        Relay {
            next: NodeId,
            received: u64,
        },
    }

    impl Actor<u64> for TestActor {
        fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
            match self {
                TestActor::Pinger { count, .. } => {
                    for i in 0..*count {
                        ctx.send(NodeId(1), Verb::OneSided, i);
                    }
                }
                TestActor::Ticker { delay_ns, .. } => {
                    ctx.set_timer(Duration::from_nanos(*delay_ns), 1)
                }
                _ => {}
            }
        }

        fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, src: NodeId, verb: Verb, msg: u64) {
            match self {
                TestActor::Pinger { replies, .. } => *replies += 1,
                TestActor::Echo { received } => {
                    received.push((src, msg));
                    if msg < 1000 {
                        ctx.send(src, verb, msg + 1000);
                    }
                }
                TestActor::Recorder { received } => received.push(msg),
                TestActor::Ticker { .. } => {}
                TestActor::Relay { next, received } => {
                    *received += 1;
                    if msg > 0 {
                        ctx.send(*next, verb, msg - 1);
                    }
                }
            }
        }

        fn on_timer(&mut self, ctx: &mut Ctx<'_, u64>, token: u64) {
            if let TestActor::Ticker {
                fired,
                limit,
                delay_ns,
            } = self
            {
                *fired += 1;
                if fired < limit {
                    ctx.set_timer(Duration::from_nanos(*delay_ns), token);
                }
            }
        }
    }

    fn replies(a: &TestActor) -> u64 {
        match a {
            TestActor::Pinger { replies, .. } => *replies,
            _ => 0,
        }
    }

    fn config(capacity: usize, workers: usize) -> AsyncConfig {
        AsyncConfig {
            capacity,
            workers: Some(workers),
        }
    }

    #[test]
    fn ping_pong_reaches_quiescence() {
        let mut rt = AsyncRuntime::with_config(
            vec![
                TestActor::Pinger {
                    count: 500,
                    replies: 0,
                },
                TestActor::Echo {
                    received: Vec::new(),
                },
            ],
            config(64, 2),
        );
        rt.run_to_quiescence(u64::MAX);
        assert_eq!(replies(&rt.actors()[0]), 500);
        let stats = rt.stats();
        assert_eq!(stats.one_sided_msgs, 1000);
        assert_eq!(stats.events_processed, 1000);
    }

    #[test]
    fn ping_pong_on_any_pool_size() {
        for workers in [1usize, 2, 4] {
            let mut actors = vec![
                TestActor::Pinger {
                    count: 300,
                    replies: 0,
                },
                TestActor::Echo {
                    received: Vec::new(),
                },
            ];
            for _ in 0..3 {
                actors.push(TestActor::Recorder {
                    received: Vec::new(),
                });
            }
            let mut rt = AsyncRuntime::with_config(actors, config(64, workers));
            rt.run_to_quiescence(u64::MAX);
            assert_eq!(
                replies(&rt.actors()[0]),
                300,
                "{workers} workers lost replies"
            );
            assert_eq!(rt.worker_count(), workers);
        }
    }

    /// Per-link FIFO through the shared-producer mailboxes, with a tiny
    /// capacity so most sends overflow into the parked-flush path and
    /// the stall-and-requeue logic runs constantly. At capacity 1 every
    /// send overflows, every flush stalls and the park handshake fires
    /// constantly; an idle third engine adds a worker with nothing to do.
    /// One worker per engine throughout, as `Backend::Threaded` sizes it.
    #[test]
    fn per_link_fifo_survives_mailbox_overflow() {
        let n = 500u64;
        for (capacity, engines) in [(4usize, 2usize), (1, 2), (1, 3)] {
            let mut actors = vec![
                TestActor::Pinger {
                    count: n,
                    replies: 0,
                },
                TestActor::Recorder {
                    received: Vec::new(),
                },
            ];
            for _ in 2..engines {
                actors.push(TestActor::Recorder {
                    received: Vec::new(),
                });
            }
            let mut rt = AsyncRuntime::with_config(actors, config(capacity, engines));
            rt.run_to_quiescence(u64::MAX);
            let TestActor::Recorder { received } = &rt.actors()[1] else {
                panic!("node 1 is the recorder");
            };
            assert_eq!(
                received,
                &(0..n).collect::<Vec<_>>(),
                "capacity-{capacity} mailbox with {engines} engines reordered"
            );
        }
    }

    /// 1000 engines on a 4-worker pool: the multiplexing headline in
    /// miniature. A relay ring where every engine forwards to the next —
    /// every hop crosses engines, so the ready queue, stealing and the
    /// notify protocol all churn.
    #[test]
    fn thousand_engines_on_four_workers() {
        let n = 1000usize;
        let hops = 10_000u64;
        let actors: Vec<TestActor> = (0..n)
            .map(|i| TestActor::Relay {
                next: NodeId(((i + 1) % n) as u32),
                received: 0,
            })
            .collect();
        let mut rt = AsyncRuntime::with_config(actors, config(64, 4));
        rt.with_actor_ctx(NodeId(0), &mut |_a, ctx| {
            ctx.send(NodeId(1), Verb::OneSided, hops - 1);
        });
        rt.run_to_quiescence(u64::MAX);
        let total: u64 = rt
            .actors()
            .iter()
            .map(|a| match a {
                TestActor::Relay { received, .. } => *received,
                _ => 0,
            })
            .sum();
        assert_eq!(total, hops, "relay ring lost hops");
    }

    #[test]
    fn quiescence_waits_for_chained_cascades() {
        let hops = 10_000u64;
        let mut rt = AsyncRuntime::with_config(
            vec![
                TestActor::Relay {
                    next: NodeId(1),
                    received: 0,
                },
                TestActor::Relay {
                    next: NodeId(0),
                    received: 0,
                },
            ],
            config(64, 2),
        );
        rt.with_actor_ctx(NodeId(0), &mut |_a, ctx| {
            ctx.send(NodeId(1), Verb::OneSided, hops - 1);
        });
        rt.run_to_quiescence(u64::MAX);
        let total: u64 = rt
            .actors()
            .iter()
            .map(|a| match a {
                TestActor::Relay { received, .. } => *received,
                _ => 0,
            })
            .sum();
        assert_eq!(total, hops, "cascade cut short by premature quiescence");
    }

    /// A single engine on a single worker — the smallest pool — fires
    /// every armed timer, across a pause and from a cold start.
    #[test]
    fn timers_fire_and_pause_resumes() {
        let mut rt = AsyncRuntime::with_config(
            vec![TestActor::Ticker {
                fired: 0,
                limit: 20,
                delay_ns: 50_000,
            }],
            config(64, 1),
        );
        let start = rt.now();
        rt.run_until(start + Duration::from_micros(300));
        let TestActor::Ticker { fired: mid, .. } = rt.actors()[0] else {
            panic!()
        };
        rt.run_to_quiescence(u64::MAX);
        let TestActor::Ticker { fired, .. } = rt.actors()[0] else {
            panic!()
        };
        assert!(fired >= mid);
        assert_eq!(fired, 20);
        assert_eq!(rt.stats().timer_fires, 20);

        // Straight to quiescence from a cold start, with no pause.
        let mut cold = AsyncRuntime::with_config(
            vec![TestActor::Ticker {
                fired: 0,
                limit: 10,
                delay_ns: 20_000,
            }],
            config(16, 1),
        );
        cold.run_to_quiescence(u64::MAX);
        let TestActor::Ticker { fired, .. } = cold.actors()[0] else {
            panic!()
        };
        assert_eq!(fired, 10, "single-engine pool exited early");
    }

    #[test]
    fn control_plane_injection_between_phases() {
        let mut rt = AsyncRuntime::with_config(
            vec![
                TestActor::Pinger {
                    count: 0,
                    replies: 0,
                },
                TestActor::Echo {
                    received: Vec::new(),
                },
            ],
            config(64, 2),
        );
        rt.run_to_quiescence(u64::MAX);
        rt.with_actor_ctx(NodeId(0), &mut |_a, ctx| {
            assert_eq!(ctx.node(), NodeId(0));
            ctx.send(NodeId(1), Verb::Rpc, 7);
        });
        rt.run_to_quiescence(u64::MAX);
        let TestActor::Echo { received } = &rt.actors()[1] else {
            panic!()
        };
        assert_eq!(received.len(), 1);
        assert_eq!(replies(&rt.actors()[0]), 1);
    }

    #[test]
    fn event_limit_bounds_runaway_loops() {
        let mut rt = AsyncRuntime::with_config(
            vec![TestActor::Ticker {
                fired: 0,
                limit: u64::MAX,
                delay_ns: 50_000,
            }],
            config(64, 1),
        );
        rt.run_to_quiescence(10);
        let TestActor::Ticker { fired, .. } = rt.actors()[0] else {
            panic!()
        };
        assert!(fired >= 10, "guard must not fire before the limit");
        assert!(fired < 1000, "guard must stop the runaway ticker");
    }

    #[test]
    fn zero_delay_timer_rearm_cannot_hang_a_phase() {
        let mut rt = AsyncRuntime::with_config(
            vec![TestActor::Ticker {
                fired: 0,
                limit: u64::MAX,
                delay_ns: 0,
            }],
            config(64, 1),
        );
        rt.run_to_quiescence(1_000);
        let TestActor::Ticker { fired, .. } = rt.actors()[0] else {
            panic!()
        };
        assert!(fired >= 1_000, "guard must not fire before the limit");
        assert!(fired < 100_000, "guard must stop the zero-delay ticker");
    }

    /// The pool-wide telemetry reflects an actual run: a relay ring with
    /// a tiny mailbox forces flush stalls, batching, queue traffic and
    /// timers, and each counter family must show it.
    #[test]
    fn telemetry_counters_reflect_the_run() {
        let mut rt = AsyncRuntime::with_config(
            vec![
                TestActor::Pinger {
                    count: 400,
                    replies: 0,
                },
                TestActor::Echo {
                    received: Vec::new(),
                },
            ],
            config(2, 2),
        );
        rt.run_to_quiescence(u64::MAX);
        let tel = Runtime::telemetry(&rt);
        assert!(tel.batches_drained > 0, "batches: {tel:?}");
        assert!(tel.flush_stalls > 0, "capacity-2 ring must stall flushes");
        assert!(tel.parked_depth_hwm > 0, "sends must have parked");
        assert!(
            tel.tasks_popped >= tel.batches_drained,
            "every drained batch rode a popped task"
        );
        assert!(tel.notifies > 0, "deliveries must have enqueued engines");

        let mut ticker = AsyncRuntime::with_config(
            vec![TestActor::Ticker {
                fired: 0,
                limit: 10,
                delay_ns: 30_000,
            }],
            config(64, 1),
        );
        ticker.run_to_quiescence(u64::MAX);
        let tel = Runtime::telemetry(&ticker);
        assert_eq!(tel.timer_slop.count(), 10, "one slop sample per fire");
    }

    /// `notify` queues an engine on the worker that last ran it while that
    /// worker is awake, and falls back to the notifier's deque plus a wake
    /// when it is parked. Driven on a paused two-worker pool, so every
    /// queue and parker move is the notify's own.
    #[test]
    fn notify_routes_to_the_last_worker() {
        let mut rt = AsyncRuntime::with_config(
            (0..2)
                .map(|_| TestActor::Recorder {
                    received: Vec::new(),
                })
                .collect(),
            config(64, 2),
        );
        let sh = &rt.shared;
        sh.last_worker[0].store(1, Ordering::Relaxed);
        let run_once = |w: usize| {
            assert_eq!(sh.queue.pop(w), Some(0));
            assert_eq!(sh.queue.stats().stolen, 0, "popped from its own deque");
            sh.scheds[0].begin();
            assert!(!sh.scheds[0].finish(false));
        };

        // Worker 1 awake: engine 0 lands on its deque, and no wake is sent.
        sh.notify(0, Some(0));
        run_once(1);
        assert_eq!(sh.parkers[1].wakes(), 0);

        // Worker 1 parked: the notifier's deque, plus one wake.
        sh.parkers[1].register();
        sh.parkers[1].prepare_park();
        sh.notify(0, Some(0));
        run_once(0);
        assert_eq!(sh.parkers[1].wakes(), 1);

        // The control plane reaches the last worker too.
        rt.with_actor_ctx(NodeId(0), &mut |_a, ctx| {
            ctx.send(NodeId(1), Verb::OneSided, 7);
        });
        let sh = &rt.shared;
        assert_eq!(sh.queue.stats().injected, 0);
        assert_eq!(sh.queue.pop(1), Some(0));
        assert_eq!(sh.queue.stats().stolen, 0);
    }

    #[test]
    fn clock_is_monotonic_and_workers_reported() {
        let rt = AsyncRuntime::<u64, TestActor>::with_config(
            vec![TestActor::Recorder {
                received: Vec::new(),
            }],
            config(64, 1),
        );
        let a = rt.now();
        let b = rt.now();
        assert!(b >= a);
        assert_eq!(rt.workers(), 1);
    }
}
