//! # chiller-simnet
//!
//! The execution substrate of the reproduction: a backend-neutral actor
//! runtime with one implementation per kind of substrate.
//!
//! * [`Simulation`] — deterministic discrete-event simulation of a
//!   NAM-DB-style RDMA cluster (§6 of the Chiller paper). This is the
//!   substrate substitution for the paper's 8-machine InfiniBand testbed:
//!   it models exactly the properties the evaluation depends on — latency
//!   classes (one-sided verbs vs RPCs vs local), NIC bypass, per-link
//!   FIFO, an engine CPU model — and makes reruns bit-identical, so it
//!   serves as the correctness and paper-parity **oracle**.
//! * [`AsyncRuntime`] — the wall clock: a worker pool multiplexing every
//!   node over a work-stealing ready queue, with bounded lock-free ring
//!   mailboxes. No modelled latencies: it measures what the machine
//!   actually sustains. Sized at one worker per engine it is the
//!   thread-per-engine **benchmark** path (`Backend::Threaded`); sized at
//!   the host's parallelism it runs thousands of partitions on a handful
//!   of OS threads, the **scale** path (`Backend::Async`).
//!
//! Both implement the [`Runtime`] trait over the same [`Actor`] surface;
//! the transaction engines in `chiller-cc` are [`Actor`]s plugged into
//! either unchanged. See [`runtime`] for the trait contracts.

#![warn(missing_docs)]

pub mod async_rt;
pub mod runtime;
pub mod sim;
pub mod sizing;
pub mod timer_wheel;

pub use async_rt::{AsyncConfig, AsyncRuntime, DEFAULT_MAILBOX_CAPACITY};
pub use runtime::{Actor, Backend, Clock, Ctx, Mailbox, NetStats, Runtime, Verb};
pub use sim::Simulation;
pub use timer_wheel::TimerWheel;
