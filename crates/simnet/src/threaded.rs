//! The real multi-threaded backend: one OS thread per node, lock-free
//! ring mailboxes, a monotonic wall clock.
//!
//! Where the simulator *models* a cluster (virtual latencies, CPU
//! charges), this backend *is* one — each [`Actor`] runs on its own
//! thread and the reported throughput is what the host machine actually
//! sustains. The same engines, messages and workloads run unmodified;
//! only the [`Mailbox`] behind [`Ctx`] differs:
//!
//! * **Clock** — monotonic wall-clock nanoseconds since runtime creation
//!   (the `SimTime` values actors see are real elapsed time).
//! * **Send** — one bounded lock-free sequence-slot ring per node
//!   (`ringq::mpsc` — no mutex anywhere on the message path), with an
//!   SPSC fast-path ring for topologies whose mailboxes have a single
//!   producer. Sends never block and never touch the mailbox
//!   mid-handler: remote sends park in a local queue flushed once per
//!   worker-loop batch, and self-sends go to a zero-synchronization local
//!   queue that never touches a mailbox at all. Cyclic protocols (engine
//!   A mid-handler sending to B while B sends to A) cannot deadlock. The
//!   flush preserves not just per-link FIFO but each sender's *global*
//!   send order across destinations (stalling at a full mailbox instead
//!   of skipping it) — protocols build happens-before chains through
//!   third nodes that a weaker ordering would break. The ring also
//!   preserves *cross-sender arrival order* at each destination (by
//!   consuming tickets in claim order), which the replication path
//!   additionally relies on — see DESIGN.md §11 for why per-link rings
//!   without that merge order would diverge replicas.
//! * **Wakeup** — rings have no blocking receive, so idle workers use a
//!   park/unpark protocol: a worker publishes "sleeping", re-checks its
//!   mailbox, then parks with a bounded timeout; a producer that fills a
//!   sleeping destination's mailbox unparks it. A missed wakeup is
//!   impossible to *lose* (the flag handshake) and at worst costs one
//!   park timeout (`MAX_PARK_NS`, 200µs).
//! * **Timers** — a per-thread hashed [`TimerWheel`]; the worker sleeps
//!   until *short of* the next due time and spins the final approach,
//!   keeping timer slop well below the OS sleep granularity.
//! * **`use_cpu`** — a no-op: real CPU is consumed by actually executing
//!   the handler.
//!
//! ## The batched hot path
//!
//! Each worker-loop iteration (1) flushes parked sends, (2) fires due
//! timers, (3) drains up to `MESSAGE_BATCH` envelopes from its mailbox,
//! handling each in place. Bookkeeping that used to cost one atomic RMW
//! per event — the cluster-wide outstanding-work counter, the global
//! event counter — is accumulated in thread-local deltas and published
//! once per batch. On a contended host this turns the per-message cost
//! from several cross-core atomics plus a possible futex wake into plain
//! local arithmetic for all but the last message of each batch. The
//! remaining per-message cost is one claim-CAS at the sender and two
//! slot-sequence accesses — no mutex, no syscall unless the destination
//! is actually asleep.
//!
//! ## Run phases and quiescence
//!
//! Worker threads only exist inside [`Runtime::run_until`] /
//! [`Runtime::run_to_quiescence`] (scoped threads). Between phases the
//! main thread has exclusive access to the actors —
//! [`Runtime::actors_mut`] and [`Runtime::with_actor_ctx`] work exactly
//! as on the simulator, which is what lets the cluster layer reset
//! metrics at the warm-up boundary, drive the adaptive epoch scheduler,
//! and check invariants after a drain. In-flight messages, parked sends
//! and armed timers survive a pause and resume with the next phase.
//!
//! Quiescence is detected with a global outstanding-work counter:
//! incremented for every queued message and armed timer, decremented
//! only *after* the receiving handler returns (so work spawned by a
//! handler keeps the count positive). Zero therefore means no queued
//! message, no armed timer, and no handler mid-flight anywhere — workers
//! observe it and exit. Batching keeps this sound by construction: a
//! worker publishes its accumulated delta (spawns minus retirements)
//! in a *single* atomic add before it flushes the spawned messages to
//! their destination mailboxes, so no other thread can consume a message
//! whose registration is still pending, and un-retired batch messages
//! hold the count positive throughout.

use crate::runtime::{Actor, Backend, Clock, Ctx, Mailbox, NetStats, Runtime, Verb};
use crate::timer_wheel::TimerWheel;
use chiller_common::ids::NodeId;
use chiller_common::time::{Duration, SimTime};
use chiller_obs::RuntimeTelemetry;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Default bound of each node's mailbox (messages, not bytes).
pub const DEFAULT_MAILBOX_CAPACITY: usize = 1024;

/// Longest a worker sleeps before re-checking the deadline and the
/// quiescence counter (pause responsiveness, not correctness).
const MAX_PARK_NS: u64 = 200_000;

/// Most messages a worker handles per loop iteration before it re-flushes
/// parked sends and re-checks timers, the deadline and the event limit.
/// Bounds both control-latency (pause responsiveness) and the burst a
/// destination can lag behind its own timers.
const MESSAGE_BATCH: usize = 64;

/// When the next armed timer is within this horizon the worker spins
/// (polling its mailbox) instead of sleeping; when it is further out the
/// worker sleeps until `due - SPIN_BEFORE_SLEEP_NS` and spins the final
/// approach. 50µs ≈ the OS sleep slop being compensated for.
///
/// Spinning only happens when the host has a core per worker (see
/// [`Shared::spin_allowed`]): on an oversubscribed host a spinning
/// worker holds the core hostage from workers with real work, and
/// blocking with a timeout is better for aggregate throughput than
/// timer fidelity is worth.
const SPIN_BEFORE_SLEEP_NS: u64 = 50_000;

/// During a spin phase, yield to the OS scheduler every this many
/// iterations as a safety valve (e.g. when other processes share the
/// worker's core even though the cluster itself is not oversubscribed).
const SPIN_YIELD_EVERY: u32 = 64;

/// A message in flight between two nodes.
struct Envelope<M> {
    src: NodeId,
    verb: Verb,
    msg: M,
}

/// Per-node wakeup slot (rings have no blocking receive). The worker
/// registers its thread handle each phase; the `sleeping` flag makes the
/// park/unpark handshake race-free in the direction that matters: a
/// producer that pushes *after* the consumer published `sleeping = true`
/// observes the flag and unparks; a producer that pushed *before* is
/// observed by the consumer's mailbox re-check between publishing the
/// flag and parking. Any residual interleaving is bounded by the park
/// timeout, never lost.
#[derive(Default)]
struct Parker {
    /// True from just before the worker's pre-park mailbox re-check until
    /// it wakes.
    sleeping: AtomicBool,
    /// The worker thread currently servicing this node, while a phase runs.
    thread: Mutex<Option<std::thread::Thread>>,
}

impl Parker {
    /// Producer side: wake the worker if (and only if) it is parked or
    /// about to park. The fast path — destination awake — is one relaxed
    /// load. Returns whether a wake was actually delivered (feeds the
    /// `unparks` telemetry counter).
    #[inline]
    fn wake(&self) -> bool {
        if self.sleeping.load(Ordering::Relaxed) && self.sleeping.swap(false, Ordering::SeqCst) {
            if let Some(t) = self.thread.lock().expect("parker lock").as_ref() {
                t.unpark();
                return true;
            }
        }
        false
    }
}

/// Coordination state shared by all worker threads during a phase.
struct Shared {
    /// Origin of the monotonic wall clock.
    start: Instant,
    /// Queued messages + armed timers + handlers mid-flight, cluster-wide.
    outstanding: AtomicI64,
    /// Wall-clock deadline (ns since `start`) of the current phase.
    deadline_ns: AtomicU64,
    /// Runaway guard for `run_to_quiescence`: stop once
    /// `events_processed` passes this.
    event_limit: AtomicU64,
    /// Total events processed across all threads (guard bookkeeping;
    /// published per batch, so approximate while a batch is mid-flight).
    events: AtomicU64,
    /// Whether workers may spin-wait for near timers: true only when the
    /// host has at least one core per worker, i.e. spinning cannot starve
    /// another worker that has real work.
    spin_allowed: bool,
    /// One wakeup slot per node.
    parkers: Vec<Parker>,
}

impl Shared {
    #[inline]
    fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    #[inline]
    fn limit_hit(&self) -> bool {
        self.events.load(Ordering::Relaxed) >= self.event_limit.load(Ordering::Relaxed)
    }
}

/// Receiving end of a node's mailbox.
enum Inbox<M> {
    /// MPSC ring (many senders).
    Mpsc(ringq::mpsc::Consumer<Envelope<M>>),
    /// SPSC ring (topology guarantees a single sender).
    Spsc(ringq::spsc::Consumer<Envelope<M>>),
}

impl<M> Inbox<M> {
    #[inline]
    fn pop(&mut self) -> Option<Envelope<M>> {
        match self {
            Inbox::Mpsc(rx) => rx.pop(),
            Inbox::Spsc(rx) => rx.pop(),
        }
    }

    /// Whether a message is poppable right now.
    #[inline]
    fn has_ready(&self) -> bool {
        match self {
            Inbox::Mpsc(rx) => rx.has_ready(),
            Inbox::Spsc(rx) => rx.has_ready(),
        }
    }

    /// Approximate occupancy. Feeds the `ring_occupancy_hwm` telemetry
    /// gauge.
    #[inline]
    fn len(&self) -> usize {
        match self {
            Inbox::Mpsc(rx) => rx.len(),
            Inbox::Spsc(rx) => rx.len(),
        }
    }
}

/// Sending end of one destination's mailbox, held by every other node.
enum Outbox<M> {
    Mpsc(ringq::mpsc::Producer<Envelope<M>>),
    Spsc(ringq::spsc::Producer<Envelope<M>>),
}

impl<M> Outbox<M> {
    /// Non-blocking push; a full ring hands the envelope back.
    #[inline]
    fn push(&mut self, env: Envelope<M>) -> Result<(), Envelope<M>> {
        match self {
            Outbox::Mpsc(tx) => tx.push(env),
            Outbox::Spsc(tx) => tx.push(env),
        }
    }
}

/// Per-node state that persists across run phases; mutably borrowed by
/// that node's worker thread while a phase runs.
struct NodeState<M> {
    node: NodeId,
    inbox: Inbox<M>,
    /// Senders to every node's mailbox (index = destination node). The
    /// entry at this node's own index is `None`: self-sends bypass
    /// mailboxes.
    txs: Vec<Option<Outbox<M>>>,
    /// Armed timers, hashed by due tick (see [`TimerWheel`]).
    timers: TimerWheel,
    /// Scratch buffer for expired-timer batches (reused across fires).
    fired: Vec<(u64, u64)>,
    /// Remote sends parked locally until the per-batch flush, in send
    /// order across *all* destinations. Global (not per-destination)
    /// FIFO is load-bearing: protocols build happens-before chains that
    /// route through third nodes (e.g. a commit's `Replicate` to a
    /// replica holder must be enqueued before its unlock reaches the
    /// primary, or a later transaction's `Replicate` can overtake it),
    /// so the flush must never let a later send to one destination pass
    /// an earlier send to another.
    pending: VecDeque<(NodeId, Envelope<M>)>,
    /// Self-sends, delivered without touching the mailbox: the self link
    /// has exactly one sender and one receiver (this thread), so a plain
    /// FIFO queue preserves its order at zero synchronization cost.
    local: VecDeque<Envelope<M>>,
    /// Spawns (sends + armed timers) minus retirements (handled events)
    /// not yet published to `Shared::outstanding`.
    outstanding_delta: i64,
    stats: NetStats,
    /// Scheduler counters (plain fields, merged on read — one increment
    /// per batch, not per message).
    tel: RuntimeTelemetry,
}

impl<M> NodeState<M> {
    /// Publish the accumulated outstanding-work delta. Must run before
    /// this thread flushes pending sends, sleeps, or checks quiescence —
    /// see the module docs for why this ordering keeps quiescence sound.
    #[inline]
    fn publish_outstanding(&mut self, shared: &Shared) {
        if self.outstanding_delta != 0 {
            shared
                .outstanding
                .fetch_add(self.outstanding_delta, Ordering::SeqCst);
            self.outstanding_delta = 0;
        }
    }

    /// Push parked sends into their destination mailboxes in send order.
    /// Stops entirely at the first full mailbox: letting later sends
    /// overtake the blocked one would break the cross-destination
    /// ordering documented on [`NodeState::pending`]. The stall blocks
    /// only the flush, never this worker (it keeps draining its own
    /// mailbox, which is what frees the peer's capacity), so cyclic
    /// full-mailbox configurations still make progress.
    fn flush_pending(&mut self, shared: &Shared) {
        self.tel.parked_depth_hwm = self.tel.parked_depth_hwm.max(self.pending.len() as u64);
        while let Some((dst, env)) = self.pending.pop_front() {
            let tx = self.txs[dst.idx()]
                .as_mut()
                .expect("remote send routed to the sender's own mailbox");
            match tx.push(env) {
                Ok(()) => {
                    if shared.parkers[dst.idx()].wake() {
                        self.tel.unparks += 1;
                    }
                }
                Err(env) => {
                    self.pending.push_front((dst, env));
                    self.tel.flush_stalls += 1;
                    break;
                }
            }
        }
    }

    /// Park until a producer wakes this worker or `sleep_ns` passes,
    /// using the [`Parker`] handshake. The wait is bounded, so
    /// deadline/quiescence re-checks at the loop top are never starved,
    /// and the loop top re-drains whatever arrived.
    fn park(&mut self, shared: &Shared, sleep_ns: u64) {
        let parker = &shared.parkers[self.node.idx()];
        parker.sleeping.store(true, Ordering::SeqCst);
        // Re-check after publishing the flag: a producer that pushed
        // before the store cannot have seen it, so it falls to us to
        // notice the message; one that pushes after will see the flag and
        // unpark us.
        if self.inbox.has_ready() {
            parker.sleeping.store(false, Ordering::Relaxed);
            // A producer pushed in the publish-recheck window: the
            // handshake just prevented a lost wakeup.
            self.tel.lost_wakeups_avoided += 1;
            return;
        }
        if shared.outstanding.load(Ordering::SeqCst) == 0 {
            parker.sleeping.store(false, Ordering::Relaxed);
            return;
        }
        self.tel.parks += 1;
        std::thread::park_timeout(std::time::Duration::from_nanos(sleep_ns));
        parker.sleeping.store(false, Ordering::Relaxed);
    }
}

/// One OS thread per actor, scoped to each run phase. See the module docs
/// for the execution model and the batched hot path.
pub struct ThreadedRuntime<M, A> {
    actors: Vec<A>,
    states: Vec<NodeState<M>>,
    shared: Shared,
    started: bool,
}

impl<M: Send, A: Actor<M> + Send> ThreadedRuntime<M, A> {
    /// Build a threaded runtime over the given actors; actor `i` runs on
    /// `NodeId(i)`. Mailboxes hold [`DEFAULT_MAILBOX_CAPACITY`] messages.
    pub fn new(actors: Vec<A>) -> Self {
        Self::with_mailbox_capacity(actors, DEFAULT_MAILBOX_CAPACITY)
    }

    /// Build with an explicit per-node mailbox bound (messages, rounded
    /// up to a power of two by the rings).
    pub fn with_mailbox_capacity(actors: Vec<A>, capacity: usize) -> Self {
        assert!(capacity >= 1, "mailboxes must hold at least one message");
        let n = actors.len();
        let mut inboxes: Vec<Inbox<M>> = Vec::with_capacity(n);
        let mut txs_per_node: Vec<Vec<Option<Outbox<M>>>> =
            (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
        if n <= 2 {
            // Each mailbox has exactly one possible producer (the single
            // other node — self-sends bypass mailboxes, and the control
            // plane only injects between phases), so the cheaper SPSC
            // ring is sound. See DESIGN.md §11 for why this is the *only*
            // topology where per-mailbox SPSC is sound.
            for dst in 0..n {
                let (tx, rx) = ringq::spsc::bounded(capacity);
                inboxes.push(Inbox::Spsc(rx));
                if n == 2 {
                    txs_per_node[1 - dst][dst] = Some(Outbox::Spsc(tx));
                }
                // n == 1: no remote link exists; the producer drops.
            }
        } else {
            for dst in 0..n {
                let (tx, rx) = ringq::mpsc::bounded(capacity);
                inboxes.push(Inbox::Mpsc(rx));
                for (src, txs) in txs_per_node.iter_mut().enumerate() {
                    if src != dst {
                        txs[dst] = Some(Outbox::Mpsc(tx.clone()));
                    }
                }
            }
        }
        let states = inboxes
            .into_iter()
            .zip(txs_per_node)
            .enumerate()
            .map(|(i, (inbox, txs))| NodeState {
                node: NodeId(i as u32),
                inbox,
                txs,
                timers: TimerWheel::default(),
                fired: Vec::new(),
                pending: VecDeque::new(),
                local: VecDeque::new(),
                outstanding_delta: 0,
                stats: NetStats::default(),
                tel: RuntimeTelemetry::default(),
            })
            .collect();
        ThreadedRuntime {
            actors,
            states,
            shared: Shared {
                start: Instant::now(),
                outstanding: AtomicI64::new(0),
                deadline_ns: AtomicU64::new(0),
                event_limit: AtomicU64::new(u64::MAX),
                events: AtomicU64::new(0),
                spin_allowed: crate::sizing::spin_allowed(crate::sizing::threaded_workers(n)),
                parkers: (0..n).map(|_| Parker::default()).collect(),
            },
            started: false,
        }
    }

    /// Run one phase: spawn a scoped worker per node, join when every
    /// worker has hit the deadline, observed quiescence, or tripped the
    /// event limit. Returns events processed during the phase.
    fn run_phase(&mut self, deadline_ns: u64, max_events: u64) -> u64 {
        let first = !self.started;
        if first {
            self.started = true;
            // Startup hold: no worker may observe "quiescent" before every
            // actor's on_start has armed its initial work.
            self.shared
                .outstanding
                .fetch_add(self.actors.len() as i64, Ordering::SeqCst);
        }
        self.shared.deadline_ns.store(deadline_ns, Ordering::SeqCst);
        let before = self.shared.events.load(Ordering::SeqCst);
        self.shared
            .event_limit
            .store(before.saturating_add(max_events), Ordering::SeqCst);
        let shared = &self.shared;
        std::thread::scope(|scope| {
            for (actor, st) in self.actors.iter_mut().zip(self.states.iter_mut()) {
                scope.spawn(move || worker(actor, st, shared, first));
            }
        });
        self.shared.events.load(Ordering::SeqCst) - before
    }
}

/// Run the actor handler for one envelope. Retirement (the outstanding
/// decrement) is the caller's job, batched via `outstanding_delta`.
#[inline]
fn handle_message<M, A: Actor<M>>(
    actor: &mut A,
    st: &mut NodeState<M>,
    shared: &Shared,
    env: Envelope<M>,
) {
    st.stats.events_processed += 1;
    let mut mb = ThreadMailbox { st, shared };
    let mut ctx = Ctx::from_mailbox(&mut mb);
    actor.on_message(&mut ctx, env.src, env.verb, env.msg);
}

/// Retire `handled` events in one atomic publish: subtract them from the
/// local delta (spawned work the handlers registered is already in it)
/// and push the net change to the shared counter.
#[inline]
fn retire<M>(st: &mut NodeState<M>, shared: &Shared, handled: u64) {
    if handled > 0 {
        shared.events.fetch_add(handled, Ordering::Relaxed);
        st.outstanding_delta -= handled as i64;
    }
    st.publish_outstanding(shared);
}

/// Fire every due timer, batched through the wheel. The deadline and
/// event limit are re-checked per fire: a handler that re-arms a
/// zero-delay timer is immediately due again, and without the checks the
/// fire loop could neither pause nor trip the runaway guard. Timers
/// popped but not fired when a check trips are restored un-fired.
/// Returns the number of timers fired.
fn fire_due_timers<M, A: Actor<M>>(actor: &mut A, st: &mut NodeState<M>, shared: &Shared) -> u64 {
    let mut total = 0u64;
    loop {
        let mut batch = std::mem::take(&mut st.fired);
        batch.clear();
        st.timers.pop_expired(shared.now_ns(), &mut batch);
        if batch.is_empty() {
            st.fired = batch;
            break;
        }
        let mut stop = false;
        for (i, &(due, token)) in batch.iter().enumerate() {
            let now = shared.now_ns();
            if now >= shared.deadline_ns.load(Ordering::SeqCst) || shared.limit_hit() {
                // Phase over mid-batch: re-arm the un-fired remainder in
                // popped order (preserves FIFO among equal due times).
                for &(due, token) in &batch[i..] {
                    st.timers.restore(due, token);
                }
                stop = true;
                break;
            }
            st.tel.timer_slop.record(now.saturating_sub(due));
            st.stats.timer_fires += 1;
            st.stats.events_processed += 1;
            shared.events.fetch_add(1, Ordering::Relaxed);
            total += 1;
            st.outstanding_delta -= 1;
            let mut mb = ThreadMailbox { st, shared };
            let mut ctx = Ctx::from_mailbox(&mut mb);
            actor.on_timer(&mut ctx, token);
        }
        st.fired = batch;
        if stop {
            break;
        }
    }
    st.publish_outstanding(shared);
    total
}

/// The per-node worker loop. See the module docs for the batched hot
/// path; the loop invariant is that `outstanding_delta` is published
/// (and therefore zero) at every point where the thread may sleep, spin,
/// check quiescence, or return.
fn worker<M, A: Actor<M>>(actor: &mut A, st: &mut NodeState<M>, shared: &Shared, first: bool) {
    // Register for ring wakeups (new thread handle every phase).
    *shared.parkers[st.node.idx()]
        .thread
        .lock()
        .expect("parker lock") = Some(std::thread::current());
    if first {
        {
            let mut mb = ThreadMailbox { st, shared };
            let mut ctx = Ctx::from_mailbox(&mut mb);
            actor.on_start(&mut ctx);
        }
        st.publish_outstanding(shared);
        // Release the startup hold taken by `run_phase`.
        shared.outstanding.fetch_sub(1, Ordering::SeqCst);
    }
    loop {
        debug_assert_eq!(st.outstanding_delta, 0, "delta published before loop top");
        st.flush_pending(shared);
        let deadline = shared.deadline_ns.load(Ordering::SeqCst);
        if shared.now_ns() >= deadline {
            return; // Pause: state survives for the next phase.
        }
        if shared.limit_hit() {
            return; // Runaway guard tripped.
        }

        if fire_due_timers(actor, st, shared) > 0 {
            continue; // Re-flush what the timer handlers sent.
        }

        // Drain a batch of messages without touching shared state, then
        // publish the whole batch's bookkeeping at once. Self-sends
        // (including ones produced by handlers mid-batch) drain first —
        // they cost no mailbox synchronization at all.
        st.tel.ring_occupancy_hwm = st.tel.ring_occupancy_hwm.max(st.inbox.len() as u64);
        let mut handled = 0u64;
        while handled < MESSAGE_BATCH as u64 {
            let Some(env) = st.local.pop_front().or_else(|| st.inbox.pop()) else {
                break;
            };
            handle_message(actor, st, shared, env);
            handled += 1;
        }
        retire(st, shared, handled);
        if handled > 0 {
            st.tel.batches_drained += 1;
            actor.on_batch_end();
            continue;
        }

        // Going idle: give amortized side effects (group-commit fsyncs)
        // their boundary before any sleep, so a straggler commit is not
        // left buffered across a park. No-op unless something is pending.
        actor.on_batch_end();

        // Nothing ready here; if nothing is outstanding anywhere, the
        // cluster is quiescent.
        if shared.outstanding.load(Ordering::SeqCst) == 0 {
            return;
        }

        // Idle. Wake for the next local timer, the phase deadline, or a
        // park-tick, whichever is first; a message arrival wakes us early.
        // When the wake target is an armed timer, approach it in two
        // steps: sleep until `SPIN_BEFORE_SLEEP_NS` short of it, then spin
        // (polling the mailbox) to the due time — a timed sleep alone
        // overshoots by the OS sleep granularity.
        let now = shared.now_ns();
        let next_timer = st.timers.next_due().unwrap_or(u64::MAX);
        let wake = next_timer
            .min(deadline)
            .min(now.saturating_add(MAX_PARK_NS));
        if shared.spin_allowed
            && next_timer == wake
            && next_timer.saturating_sub(now) <= SPIN_BEFORE_SLEEP_NS
        {
            let mut iters: u32 = 0;
            while shared.now_ns() < next_timer {
                if let Some(env) = st.inbox.pop() {
                    handle_message(actor, st, shared, env);
                    retire(st, shared, 1);
                    break;
                }
                iters = iters.wrapping_add(1);
                if iters.is_multiple_of(SPIN_YIELD_EVERY) {
                    // Share the core with whoever else needs it.
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
            continue;
        }
        let wait = wake.saturating_sub(now).max(1);
        let sleep_ns = if shared.spin_allowed && next_timer == wake {
            // Leave the final approach to the spin phase above.
            wait.saturating_sub(SPIN_BEFORE_SLEEP_NS).max(1)
        } else {
            wait
        };
        st.park(shared, sleep_ns);
    }
}

impl<M: Send, A: Actor<M> + Send> Clock for ThreadedRuntime<M, A> {
    fn now(&self) -> SimTime {
        SimTime(self.shared.now_ns())
    }
}

impl<M: Send, A: Actor<M> + Send> Runtime<M, A> for ThreadedRuntime<M, A> {
    fn backend(&self) -> Backend {
        Backend::Threaded
    }

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
        crate::sizing::threaded_workers(self.actors.len())
    }

    fn telemetry(&self) -> RuntimeTelemetry {
        let mut merged = RuntimeTelemetry::default();
        for st in &self.states {
            merged.merge(&st.tel);
        }
        merged
    }

    fn with_actor_ctx(&mut self, node: NodeId, f: &mut dyn FnMut(&mut A, &mut Ctx<'_, M>)) {
        let st = &mut self.states[node.idx()];
        {
            let mut mb = ThreadMailbox {
                st,
                shared: &self.shared,
            };
            let mut ctx = Ctx::from_mailbox(&mut mb);
            f(&mut self.actors[node.idx()], &mut ctx)
        }
        // Register injected sends/timers now; the envelopes themselves
        // stay parked until the next phase's first flush.
        st.publish_outstanding(&self.shared);
    }
}

/// The threaded backend's [`Mailbox`]. Also used by the main thread for
/// control-plane injection between phases.
struct ThreadMailbox<'a, M> {
    st: &'a mut NodeState<M>,
    shared: &'a Shared,
}

impl<M> Mailbox<M> for ThreadMailbox<'_, M> {
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
        self.st.timers.insert(due, token);
    }

    fn set_timer_when_free(&mut self, d: Duration, token: u64) {
        // No busy horizon on real threads: the engine is free whenever it
        // is not executing.
        self.set_timer(d, token);
    }

    fn use_cpu(&mut self, _d: Duration) {
        // Real CPU is consumed by actually executing the handler.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One actor type covering every test role, so a single runtime can
    /// host heterogeneous behaviors.
    enum TestActor {
        /// Sends `count` messages to node 1 at start, counts replies.
        Pinger { count: u64, replies: u64 },
        /// Replies `msg + 1000` to every message below 1000.
        Echo { received: Vec<(NodeId, u64)> },
        /// Records payloads in arrival order.
        Recorder { received: Vec<u64> },
        /// Re-arms a 50us timer until it has fired `limit` times.
        Ticker {
            fired: u64,
            limit: u64,
            delay_ns: u64,
        },
        /// Forwards each received payload to `next`, decrementing a
        /// hop budget carried in the payload's low bits.
        Relay { next: NodeId, received: u64 },
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

    #[test]
    fn ping_pong_reaches_quiescence() {
        let mut rt = ThreadedRuntime::new(vec![
            TestActor::Pinger {
                count: 500,
                replies: 0,
            },
            TestActor::Echo {
                received: Vec::new(),
            },
        ]);
        rt.run_to_quiescence(u64::MAX);
        assert_eq!(replies(&rt.actors()[0]), 500);
        let stats = rt.stats();
        assert_eq!(stats.one_sided_msgs, 1000);
        assert_eq!(stats.events_processed, 1000);
    }

    /// The same ping-pong on both ring lanes: a 2-node cluster exercises
    /// the SPSC fast path, 5 nodes the MPSC ring.
    #[test]
    fn ping_pong_on_both_ring_lanes() {
        for nodes in [2, 5] {
            let mut actors = vec![
                TestActor::Pinger {
                    count: 300,
                    replies: 0,
                },
                TestActor::Echo {
                    received: Vec::new(),
                },
            ];
            for _ in 2..nodes {
                actors.push(TestActor::Recorder {
                    received: Vec::new(),
                });
            }
            let mut rt = ThreadedRuntime::with_mailbox_capacity(actors, 64);
            rt.run_to_quiescence(u64::MAX);
            assert_eq!(
                replies(&rt.actors()[0]),
                300,
                "{nodes}-node cluster lost replies"
            );
        }
    }

    /// Per-link FIFO even when the bounded mailbox overflows into the
    /// parked-send queue: node 1 must observe node 0's payloads in order.
    #[test]
    fn per_link_fifo_survives_mailbox_overflow() {
        let n = 500u64;
        let mut rt = ThreadedRuntime::with_mailbox_capacity(
            vec![
                TestActor::Pinger {
                    count: n,
                    replies: 0,
                },
                TestActor::Recorder {
                    received: Vec::new(),
                },
            ],
            4, // tiny mailbox: most sends park between flushes
        );
        rt.run_to_quiescence(u64::MAX);
        let TestActor::Recorder { received } = &rt.actors()[1] else {
            panic!("node 1 is the recorder");
        };
        assert_eq!(received, &(0..n).collect::<Vec<_>>(), "reordered");
    }

    /// Capacity-1 rings: every send overflows, every flush stalls, and
    /// the wakeup handshake fires constantly — FIFO must still be exact.
    #[test]
    fn capacity_one_ring_mailboxes_stay_fifo() {
        let n = 300u64;
        // 3 nodes forces the MPSC ring; 2 nodes the SPSC ring.
        for nodes in [2usize, 3] {
            let mut actors = vec![
                TestActor::Pinger {
                    count: n,
                    replies: 0,
                },
                TestActor::Recorder {
                    received: Vec::new(),
                },
            ];
            for _ in 2..nodes {
                actors.push(TestActor::Recorder {
                    received: Vec::new(),
                });
            }
            let mut rt = ThreadedRuntime::with_mailbox_capacity(actors, 1);
            rt.run_to_quiescence(u64::MAX);
            let TestActor::Recorder { received } = &rt.actors()[1] else {
                panic!("node 1 is the recorder");
            };
            assert_eq!(
                received,
                &(0..n).collect::<Vec<_>>(),
                "capacity-1 ring with {nodes} nodes reordered"
            );
        }
    }

    /// Quiescence must not be declared while a long message cascade is
    /// still bouncing between nodes — the batched delta publication may
    /// never let the outstanding count dip to zero mid-cascade.
    #[test]
    fn quiescence_waits_for_chained_cascades() {
        let hops = 10_000u64;
        let mut rt = ThreadedRuntime::new(vec![
            TestActor::Relay {
                next: NodeId(1),
                received: 0,
            },
            TestActor::Relay {
                next: NodeId(0),
                received: 0,
            },
        ]);
        // Kick off one cascade of `hops` forwards from outside.
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

    #[test]
    fn timers_fire_and_pause_resumes() {
        let mut rt = ThreadedRuntime::new(vec![TestActor::Ticker {
            fired: 0,
            limit: 20,
            delay_ns: 50_000,
        }]);
        // Phase 1: run a slice of wall time, then pause.
        let start = rt.now();
        rt.run_until(start + Duration::from_micros(300));
        let TestActor::Ticker { fired: mid, .. } = rt.actors()[0] else {
            panic!()
        };
        // Phase 2: any armed timer survives the pause; run to quiescence.
        rt.run_to_quiescence(u64::MAX);
        let TestActor::Ticker { fired, .. } = rt.actors()[0] else {
            panic!()
        };
        assert!(fired >= mid);
        assert_eq!(fired, 20);
        assert_eq!(rt.stats().timer_fires, 20);
    }

    #[test]
    fn control_plane_injection_between_phases() {
        let mut rt = ThreadedRuntime::new(vec![
            TestActor::Pinger {
                count: 0,
                replies: 0,
            },
            TestActor::Echo {
                received: Vec::new(),
            },
        ]);
        rt.run_to_quiescence(u64::MAX);
        // Inject a send from node 0 while paused.
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
        // A ticker with no limit would re-arm forever; the event guard
        // must stop the phase.
        let mut rt = ThreadedRuntime::new(vec![TestActor::Ticker {
            fired: 0,
            limit: u64::MAX,
            delay_ns: 50_000,
        }]);
        rt.run_to_quiescence(10);
        let TestActor::Ticker { fired, .. } = rt.actors()[0] else {
            panic!()
        };
        assert!(fired >= 10, "guard must not fire before the limit");
        assert!(fired < 1000, "guard must stop the runaway ticker");
    }

    /// Regression: a handler that re-arms a zero-delay timer is due again
    /// immediately; the timer-firing loop must still honor the event limit
    /// (and the phase deadline) instead of spinning forever.
    #[test]
    fn zero_delay_timer_rearm_cannot_hang_a_phase() {
        let mut rt = ThreadedRuntime::new(vec![TestActor::Ticker {
            fired: 0,
            limit: u64::MAX,
            delay_ns: 0,
        }]);
        rt.run_to_quiescence(1_000);
        let TestActor::Ticker { fired, .. } = rt.actors()[0] else {
            panic!()
        };
        assert!(fired >= 1_000, "guard must not fire before the limit");
        assert!(fired < 100_000, "guard must stop the zero-delay ticker");
    }

    /// Regression: a single-node cluster drops its ring's only producer
    /// (no remote link exists); the worker must still fire every armed
    /// timer rather than treat the producer-less mailbox as closed.
    #[test]
    fn single_node_cluster_fires_timers() {
        let mut rt = ThreadedRuntime::with_mailbox_capacity(
            vec![TestActor::Ticker {
                fired: 0,
                limit: 10,
                delay_ns: 20_000,
            }],
            16,
        );
        rt.run_to_quiescence(u64::MAX);
        let TestActor::Ticker { fired, .. } = rt.actors()[0] else {
            panic!()
        };
        assert_eq!(fired, 10, "single-node worker exited early");
    }

    /// Telemetry plausibility: a run that handles messages must report
    /// drained batches; tiny mailboxes must report flush stalls and a
    /// parked-queue high-water mark; timers must populate the slop
    /// histogram.
    #[test]
    fn telemetry_counters_reflect_the_run() {
        let mut rt = ThreadedRuntime::with_mailbox_capacity(
            vec![
                TestActor::Pinger {
                    count: 400,
                    replies: 0,
                },
                TestActor::Echo {
                    received: Vec::new(),
                },
            ],
            2, // tiny: force stalls and parking
        );
        rt.run_to_quiescence(u64::MAX);
        let tel = rt.telemetry();
        assert!(tel.batches_drained > 0, "messages were handled in batches");
        assert!(tel.flush_stalls > 0, "capacity-2 mailboxes must stall");
        assert!(tel.parked_depth_hwm > 0, "sends must have parked");
        assert_eq!(tel.timer_slop.count(), 0, "no timers in this run");

        let mut ticker = ThreadedRuntime::new(vec![TestActor::Ticker {
            fired: 0,
            limit: 10,
            delay_ns: 30_000,
        }]);
        ticker.run_to_quiescence(u64::MAX);
        assert_eq!(ticker.telemetry().timer_slop.count(), 10);
    }

    #[test]
    fn clock_is_monotonic() {
        let rt = ThreadedRuntime::<u64, TestActor>::new(vec![TestActor::Recorder {
            received: Vec::new(),
        }]);
        let a = rt.now();
        let b = rt.now();
        assert!(b >= a);
    }
}
