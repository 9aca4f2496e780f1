//! Backend-neutral execution runtime: the actor-facing surface shared by
//! the deterministic simulator and the wall-clock worker pool.
//!
//! The transaction engines in `chiller-cc` are written against exactly
//! three things defined here —
//!
//! * [`Actor`]: the event-handler trait (start / message / timer);
//! * [`Ctx`]: the handle an actor uses to read the clock, send messages,
//!   set timers and charge CPU. It is a thin wrapper over a
//!   [`Mailbox`] trait object, so actor code compiles once and runs on
//!   any backend;
//! * [`Runtime`]: the driver loop owning the actors. The deterministic
//!   [`Simulation`](crate::Simulation) interprets time as virtual
//!   nanoseconds and replays bit-identically per seed; the
//!   [`AsyncRuntime`](crate::AsyncRuntime) runs the actors on a pool of
//!   OS worker threads against a monotonic wall clock.
//!
//! The split gives the repo a *sim-as-oracle, threads-as-benchmark*
//! architecture: protocol correctness and paper parity are checked on the
//! simulator, hardware throughput is measured on the worker pool — same
//! engines, same messages, same workloads.

use chiller_common::ids::NodeId;
use chiller_common::time::{Duration, SimTime};

/// Message class, determining latency and delivery semantics.
///
/// The simulator models the two classes faithfully (NIC bypass, engine
/// queueing, CPU charges); the wall-clock backends deliver both through
/// the same mailbox and only keep the classification for stats.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verb {
    /// One-sided RDMA verb (READ / WRITE / atomic CAS-style lock word
    /// manipulation). Serviced by the destination *NIC*: delivered the
    /// moment it arrives, never queued behind the destination engine, and
    /// handlers for it must not charge CPU.
    OneSided,
    /// Two-sided RPC (send/recv). Queued until the destination engine core
    /// is free; handling charges `rpc_handler_cpu_ns` plus whatever the
    /// actor itself charges.
    Rpc,
}

/// Counters describing network usage of a run; exposed so experiments can
/// report message overhead alongside throughput. The wall-clock backends
/// keep one per engine and merge them on read.
#[derive(Debug, Clone, Copy, Default)]
pub struct NetStats {
    /// One-sided RDMA verbs sent between distinct nodes.
    pub one_sided_msgs: u64,
    /// Two-sided RPCs sent between distinct nodes.
    pub rpc_msgs: u64,
    /// Messages a node sent to itself (no network traversal).
    pub local_msgs: u64,
    /// Timer callbacks delivered.
    pub timer_fires: u64,
    /// Total events handled (messages + timer fires), all nodes.
    pub events_processed: u64,
}

impl NetStats {
    /// Fold another node's counters into this one.
    pub fn merge(&mut self, other: &NetStats) {
        self.one_sided_msgs += other.one_sided_msgs;
        self.rpc_msgs += other.rpc_msgs;
        self.local_msgs += other.local_msgs;
        self.timer_fires += other.timer_fires;
        self.events_processed += other.events_processed;
    }
}

/// Which execution backend drives a cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// Deterministic discrete-event simulation: virtual time, modelled
    /// network/CPU costs, bit-identical replays per seed. The correctness
    /// and paper-parity oracle.
    #[default]
    Simulated,
    /// The wall-clock worker pool ([`AsyncRuntime`](crate::AsyncRuntime))
    /// sized at one OS worker thread per node, with bounded lock-free
    /// ring mailboxes. Reports what the machine actually sustains; not
    /// deterministic.
    Threaded,
    /// The same worker pool sized by `ClusterBuilder::workers` (default
    /// `CHILLER_WORKERS`, then the detected parallelism): engines are
    /// tasks on a work-stealing ready queue, so thousands of partitions
    /// run on a handful of OS threads. Wall clock, not deterministic.
    Async,
}

impl Backend {
    /// Stable label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Backend::Simulated => "simulated",
            Backend::Threaded => "threaded",
            Backend::Async => "async",
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A source of "now". Virtual nanoseconds on the simulator; monotonic
/// wall-clock nanoseconds since runtime creation on the wall-clock
/// backends.
pub trait Clock {
    /// Current time: virtual on the simulator, wall-clock offset on the
    /// wall-clock backends.
    fn now(&self) -> SimTime;
}

/// The per-actor runtime surface behind [`Ctx`] — one implementation per
/// backend. Actor code never sees this trait directly; it goes through
/// [`Ctx`], which keeps call sites monomorphic and lets handlers stay
/// object-safe.
pub trait Mailbox<M> {
    /// Current time (see [`Clock`] for the per-backend meaning).
    fn now(&self) -> SimTime;

    /// The node whose actor is currently running.
    fn node(&self) -> NodeId;

    /// Send a message to `dst` with the given verb class. Both backends
    /// guarantee per-link FIFO: messages between a given (src, dst) pair
    /// arrive in send order (RDMA queue-pair in-order delivery — the
    /// assumption Chiller's inner-region replication protocol relies on).
    fn send(&mut self, dst: NodeId, verb: Verb, msg: M);

    /// Schedule `on_timer(token)` on this node after `d`.
    fn set_timer(&mut self, d: Duration, token: u64);

    /// Charge `d` of CPU time on this node's engine core. The simulator
    /// delays subsequent sends and queues arriving RPCs behind the charge;
    /// the wall-clock backends ignore it — real CPU is consumed by
    /// actually executing the handler.
    fn use_cpu(&mut self, d: Duration);
}

/// Handle given to actors during event handling. Lets the actor read the
/// clock, send messages, charge CPU, and set timers — on any backend.
pub struct Ctx<'a, M> {
    mailbox: &'a mut dyn Mailbox<M>,
}

impl<'a, M> Ctx<'a, M> {
    /// Wrap a backend's mailbox. Backends call this; actors never do.
    pub fn from_mailbox(mailbox: &'a mut dyn Mailbox<M>) -> Self {
        Ctx { mailbox }
    }

    /// Current time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.mailbox.now()
    }

    /// The node this actor instance runs on.
    #[inline]
    pub fn node(&self) -> NodeId {
        self.mailbox.node()
    }

    /// Charge `d` of CPU time on this node's engine core (see
    /// [`Mailbox::use_cpu`]).
    #[inline]
    pub fn use_cpu(&mut self, d: Duration) {
        self.mailbox.use_cpu(d);
    }

    /// Send a message to `dst` with the given verb class. Delivery respects
    /// per-link FIFO ordering and the backend's latency/queueing semantics.
    #[inline]
    pub fn send(&mut self, dst: NodeId, verb: Verb, msg: M) {
        self.mailbox.send(dst, verb, msg);
    }

    /// Schedule `on_timer(token)` on this node after `d`.
    #[inline]
    pub fn set_timer(&mut self, d: Duration, token: u64) {
        self.mailbox.set_timer(d, token);
    }
}

/// A simulated machine: one partition's storage plus its execution engine.
///
/// `M` is the protocol message type, defined by the concurrency-control
/// layer. Handlers must be deterministic functions of their inputs plus any
/// actor-owned seeded RNG state (the simulator turns that determinism into
/// bit-identical replays; the wall-clock backends interleave handlers in
/// wall-clock order).
pub trait Actor<M> {
    /// Called once at runtime start so engines can kick off their initial
    /// transactions.
    fn on_start(&mut self, ctx: &mut Ctx<'_, M>);

    /// A message arrived. For `Verb::OneSided` the handler models NIC
    /// processing and must not call `use_cpu`; for `Verb::Rpc` the simulator
    /// has already charged the configured handler cost and the actor may
    /// charge more.
    fn on_message(&mut self, ctx: &mut Ctx<'_, M>, src: NodeId, verb: Verb, msg: M);

    /// A timer set via [`Ctx::set_timer`] fired.
    fn on_timer(&mut self, ctx: &mut Ctx<'_, M>, token: u64);

    /// The wall-clock backends drained a batch of events for this actor
    /// and are about to look for more work. Amortized side effects —
    /// group-commit WAL fsyncs, most prominently — hang off this hook, the
    /// same boundary remote sends already flush on. Never called by the
    /// simulator (virtual time has no batches; the sim flushes at
    /// count-based thresholds and control-plane pauses instead, keeping
    /// its determinism contract). Default: nothing.
    fn on_batch_end(&mut self) {}
}

/// A cluster execution backend: owns the actors, delivers messages and
/// timers, and reports merged network counters.
///
/// Object-safe by design — the cluster layer holds a
/// `Box<dyn Runtime<Msg, EngineActor>>` and drives either backend through
/// the same warm-up / measure / quiesce protocol. Between `run_*` calls
/// the runtime is paused: [`Runtime::actors`], [`Runtime::actors_mut`] and
/// [`Runtime::with_actor_ctx`] give the control plane (metric resets,
/// epoch scheduling, invariant checks) exclusive access to actor state on
/// both backends.
pub trait Runtime<M, A: Actor<M>>: Clock {
    /// Merged network counters across all nodes/threads.
    fn stats(&self) -> NetStats;

    /// Number of nodes in the cluster (one actor each).
    fn num_nodes(&self) -> usize;

    /// The actors, in node order. Valid while the runtime is paused.
    fn actors(&self) -> &[A];

    /// Mutable actor access, in node order. Valid while paused.
    fn actors_mut(&mut self) -> &mut [A];

    /// Advance until `now()` passes `until` (virtual time for the
    /// simulator; wall-clock offset since runtime start for the worker
    /// pool), then pause. In-flight messages and timers survive the
    /// pause. Returns the number of events processed.
    fn run_until(&mut self, until: SimTime) -> u64;

    /// Run until no work remains anywhere: no queued messages, no armed
    /// timers, no handler mid-flight. `max_events` bounds runaway loops.
    /// Returns the number of events processed.
    fn run_to_quiescence(&mut self, max_events: u64) -> u64;

    /// Number of OS worker threads that drive a run phase: 0 on the
    /// simulator (it runs on the calling thread), the fixed pool size on
    /// the worker pool. Lets reports distinguish a 1000-engine run on
    /// 1000 threads from the same run multiplexed onto 4.
    fn workers(&self) -> usize {
        0
    }

    /// Scheduler-internal counters accumulated so far (batches drained,
    /// flush stalls, park/unpark handshakes, steals, timer slop — see
    /// [`chiller_obs::RuntimeTelemetry`]). Empty on the simulator, which
    /// has no scheduler: events pop off one ordered heap and timers are
    /// exact by construction.
    fn telemetry(&self) -> chiller_obs::RuntimeTelemetry {
        chiller_obs::RuntimeTelemetry::default()
    }

    /// Run `f` against one actor with a live [`Ctx`], outside normal event
    /// dispatch. This is the control-plane injection point: an epoch
    /// scheduler pauses the runtime at a boundary, inspects/mutates
    /// actors, and lets them send messages or set timers. On the simulator
    /// determinism is preserved as long as callers inject at deterministic
    /// times in a deterministic node order.
    fn with_actor_ctx(&mut self, node: NodeId, f: &mut dyn FnMut(&mut A, &mut Ctx<'_, M>));
}
