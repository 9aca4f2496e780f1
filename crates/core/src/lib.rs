//! # chiller
//!
//! The public façade of the Chiller reproduction: build a simulated
//! RDMA cluster, load data, register stored procedures, pick a protocol
//! and a partitioning, run a closed-loop workload, and collect the metrics
//! the paper's evaluation reports.
//!
//! ## Quickstart
//!
//! ```
//! use chiller::prelude::*;
//! use chiller_common::value::Value;
//!
//! // 1. A schema with one table.
//! let mut schema = Schema::new();
//! let accounts = schema.add(TableDef::new(TableId(1), "accounts", vec!["id", "balance"]));
//!
//! // 2. A transfer procedure: read + update two accounts.
//! let transfer = ProcedureBuilder::new("transfer")
//!     .update(accounts, 0, "debit", |row, _| {
//!         let mut r = row.clone();
//!         r[1] = Value::F64(r[1].as_f64() - 1.0);
//!         r
//!     })
//!     .update(accounts, 1, "credit", |row, _| {
//!         let mut r = row.clone();
//!         r[1] = Value::F64(r[1].as_f64() + 1.0);
//!         r
//!     })
//!     .build()
//!     .unwrap();
//!
//! // 3. A 4-node cluster running Chiller over hash placement.
//! let mut builder = ClusterBuilder::new(schema, 4);
//! let proc_id = builder.register_proc(transfer);
//! builder
//!     .protocol(Protocol::Chiller)
//!     .load((0..1000u64).map(|k| {
//!         (RecordId::new(accounts, k), vec![Value::I64(k as i64), Value::F64(100.0)])
//!     }))
//!     .source_per_node(move |node| {
//!         Box::new(chiller_cc::input::ScriptedSource::new(vec![TxnInput {
//!             proc: proc_id,
//!             params: vec![Value::I64(node.0 as i64), Value::I64(500 + node.0 as i64)],
//!         }]))
//!     });
//! let mut cluster = builder.build().unwrap();
//! let report = cluster.run(RunSpec::millis(1, 5));
//! assert!(report.total_commits() > 0);
//! ```

pub mod cluster;
pub mod crash;
mod knobs;
pub mod report;

pub use cluster::{AdaptiveStats, Cluster, ClusterBuilder, RunSpec};
pub use crash::{CrashPlan, CrashSnapshot, RecoveryReport};
pub use report::RunReport;

/// Convenience re-exports covering the whole public API surface.
pub mod prelude {
    pub use crate::cluster::{AdaptiveStats, Cluster, ClusterBuilder, RunSpec};
    pub use crate::crash::{CrashPlan, CrashSnapshot, RecoveryReport};
    pub use crate::report::RunReport;
    pub use chiller_adaptive::{AdaptiveConfig, Directory};
    pub use chiller_cc::input::{InputSource, ProcRegistry, ScriptedSource, TxnInput};
    pub use chiller_cc::Protocol;
    pub use chiller_checker::{Anomaly, CheckMode, CheckReport};
    pub use chiller_common::config::{EngineConfig, NetworkConfig, ReplicationConfig, SimConfig};
    pub use chiller_common::ids::{NodeId, PartitionId, RecordId, TableId, TxnId};
    pub use chiller_common::time::{Duration, SimTime};
    pub use chiller_common::value::{Row, Value};
    pub use chiller_obs::{History, RuntimeTelemetry, TraceLog, TraceMode};
    pub use chiller_simnet::Backend;
    pub use chiller_sproc::{ProcedureBuilder, RegionSplit};
    pub use chiller_storage::placement::{HashPlacement, LookupTable, Placement};
    pub use chiller_storage::schema::{KeyPacker, Schema, TableDef};
}
