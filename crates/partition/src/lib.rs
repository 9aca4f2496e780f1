//! # chiller-partition
//!
//! Contention-aware data partitioning (§4 of the Chiller paper), plus the
//! baselines it is evaluated against:
//!
//! * [`stats`] — the sampling statistics service's input: a (sampled)
//!   workload trace of read/write-sets, and per-record read and write
//!   counts, which the pipelines count while indexing the trace.
//! * [`likelihood`] — the Poisson contention-likelihood model
//!   `Pc = 1 − e^{−λw} − λw·e^{−λw}·e^{−λr}` (§4.1).
//! * [`graph`] — workload-graph representations: Chiller's **star** graph
//!   (one t-vertex per transaction, edges to its records weighted by
//!   contention likelihood, §4.2) and Schism's **clique** co-access graph.
//! * [`metis`] — a from-scratch multilevel k-way graph partitioner in the
//!   METIS family: heavy-edge-matching coarsening, greedy initial
//!   partitioning, Fiduccia–Mattheyses boundary refinement under a
//!   `(1+ε)·µ` balance constraint (§4.3).
//! * [`chiller_part`] — the end-to-end Chiller pipeline: trace → contention
//!   likelihoods → star graph → partitioner → hot-record lookup table over
//!   a default hash partitioner (§4.4).
//! * [`schism`] — the Schism-like baseline: co-access clique graph → same
//!   partitioner → full per-record placement (its lookup table must cover
//!   every record, the paper's §7.2.2 observation).

pub mod chiller_part;
pub mod graph;
pub mod likelihood;
pub mod metis;
pub mod schism;
pub mod stats;

pub use chiller_part::{ChillerPartitioner, ChillerPartitioning};
pub use graph::{Graph, LoadMetric, StarGraph};
pub use likelihood::{contention_likelihood, ContentionModel};
pub use metis::{MetisLike, PartitionResult};
pub use schism::SchismPartitioner;
pub use stats::{RecordStats, TxnTrace, WorkloadTrace};
