//! # chiller-storage
//!
//! The NAM-DB-style storage layer (§6 of the Chiller paper): in-memory
//! tables split into **buckets**, each encapsulating its own shared/exclusive
//! **lock word** and a version counter — the design that lets remote engines
//! manipulate locks with one-sided RDMA atomics instead of talking to a
//! centralized lock manager.
//!
//! * [`bucket`] — records + embedded lock word + version.
//! * [`lock`] — NO_WAIT shared/exclusive lock semantics.
//! * [`store`] — per-partition table stores; primary and replica copies.
//! * [`placement`] — where records live: hash/range default partitioners and
//!   the hot-record lookup table (§4.4).
//! * [`schema`] — table metadata and key-packing helpers.
//! * [`wal`] — per-partition redo log, group commit, checkpoints (§15).

// Lets the WAL unit tests include the record generators that the
// integration suites share, which name this crate from outside.
#[cfg(test)]
extern crate self as chiller_storage;

pub mod bucket;
pub mod lock;
pub mod placement;
pub mod schema;
pub mod store;
pub mod wal;

pub use bucket::Bucket;
pub use lock::{LockMode, LockState};
pub use placement::{HashPlacement, LookupTable, Placement};
pub use schema::{KeyPacker, Schema, TableDef};
pub use store::{PartitionStore, TableStore};
pub use wal::{
    DecideWrite, RedoOp, RedoWrite, StoreSnapshot, TableSnapshot, Wal, WalReader, WalRecord,
    WalStats, DEFAULT_FSYNC_BATCH,
};
