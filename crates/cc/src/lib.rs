//! # chiller-cc
//!
//! Distributed transaction execution engines (§2, §3, §5 of the Chiller
//! paper), implemented as deterministic actors on the `chiller-simnet`
//! cluster:
//!
//! * **Chiller two-region execution** — outer region under NO_WAIT 2PL,
//!   inner region executed and unilaterally committed by the inner host,
//!   with the paper's §5 replication protocol (inner host fire-and-forget
//!   replicates, replicas ack the *coordinator*).
//! * **Traditional 2PL + 2PC** (NO_WAIT) — the paper's pessimistic baseline
//!   (Figure 3a), with the prepare phase piggybacked on the last execution
//!   round.
//! * **Distributed OCC** — the optimistic baseline: lock-free execution via
//!   one-sided reads, then parallel validate-and-commit (MaaT-inspired; see
//!   DESIGN.md for the substitution note).
//!
//! All three share one execution framework: stored procedures run in
//! dependency *waves* (each wave issues all ready operations to their
//! partitions in parallel), mirroring how a NAM-DB coordinator overlaps
//! one-sided accesses. One [`engine::EngineActor`] per node plays both the
//! coordinator role for transactions it originates and the participant role
//! for storage it owns, interleaving up to `concurrency` open transactions
//! exactly like the paper's co-routines (§6).
//!
//! Two coordinators live under [`coordinator`]: a lock-based one, which
//! runs Chiller and, as its single-region case, 2PL; and OCC. The
//! [`Protocol`] is read at admission, wave dispatch and waves-complete
//! time; the engine routes each response by its message kind.

pub mod coordinator;
pub mod engine;
pub mod input;
pub mod migration;
pub mod msg;
pub mod participant;
pub mod protocol;

pub use engine::{EngineActor, EngineReport, HotSet};
pub use input::{InputSource, ProcRegistry, TxnInput};
pub use migration::MigrationJob;
pub use msg::Msg;
pub use protocol::Protocol;
