//! # chiller-simnet
//!
//! The execution substrate of the reproduction: a backend-neutral actor
//! runtime with two interchangeable backends.
//!
//! * [`Simulation`] — deterministic discrete-event simulation of a
//!   NAM-DB-style RDMA cluster (§6 of the Chiller paper). This is the
//!   substrate substitution for the paper's 8-machine InfiniBand testbed:
//!   it models exactly the properties the evaluation depends on — latency
//!   classes (one-sided verbs vs RPCs vs local), NIC bypass, per-link
//!   FIFO, an engine CPU model — and makes reruns bit-identical, so it
//!   serves as the correctness and paper-parity **oracle**.
//! * [`ThreadedRuntime`] — one OS thread per node with bounded lock-free
//!   ring mailboxes and a monotonic wall clock. No modelled latencies: it
//!   measures what the machine actually sustains, so it serves as the
//!   hardware **benchmark** path.
//! * [`AsyncRuntime`] — a fixed worker pool multiplexing every node over
//!   a work-stealing ready queue, so thousands of partitions run on a
//!   handful of OS threads. The hardware **scale** path.
//!
//! All three implement the [`Runtime`] trait over the same [`Actor`]
//! surface; the transaction engines in `chiller-cc` are [`Actor`]s
//! plugged into any backend unchanged. See [`runtime`] for the trait
//! contracts.

#![warn(missing_docs)]

pub mod async_rt;
pub mod runtime;
pub mod sim;
pub mod sizing;
pub mod threaded;
pub mod timer_wheel;

pub use async_rt::{AsyncConfig, AsyncRuntime};
pub use runtime::{Actor, Backend, Clock, Ctx, Mailbox, NetStats, Runtime, Verb};
pub use sim::Simulation;
pub use threaded::{ThreadedRuntime, DEFAULT_MAILBOX_CAPACITY};
pub use timer_wheel::TimerWheel;
