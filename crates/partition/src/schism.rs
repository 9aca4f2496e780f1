//! Schism-like baseline partitioner (Curino et al., VLDB'10), as used in the
//! paper's §7.2 comparison.
//!
//! Schism's objective is to **minimize the number of distributed
//! transactions**: it models records as vertices with an edge per
//! co-accessed pair, weighted by co-access frequency, and asks METIS for a
//! balanced min-cut. Every record then needs an explicit lookup-table entry
//! (the layout is not expressible as ranges for workloads like Instacart),
//! which is the §7.2.2 lookup-table-size comparison.
//!
//! Faithfulness notes (documented substitutions): the original Schism also
//! post-processes the per-record placement into range predicates with a
//! decision tree and may replicate read-mostly records; neither affects the
//! objective being compared (distributed-transaction minimization), so both
//! are out of scope here.

use crate::graph::{clique_graph, LoadMetric, TraceIndex};
use crate::metis::{MetisLike, PartitionResult};
use crate::stats::WorkloadTrace;
use chiller_common::ids::{PartitionId, RecordId};
use chiller_storage::placement::{ExplicitPlacement, HashPlacement};
use std::collections::HashMap;

/// Configuration of the Schism-like partitioner.
#[derive(Debug, Clone)]
pub struct SchismPartitioner {
    pub k: u32,
    pub epsilon: f64,
    pub seed: u64,
    pub load_metric: LoadMetric,
}

impl SchismPartitioner {
    pub fn new(k: u32) -> Self {
        SchismPartitioner {
            k,
            epsilon: 0.05,
            seed: 0x5C415,
            load_metric: LoadMetric::Records,
        }
    }

    pub fn partition(&self, trace: &WorkloadTrace) -> SchismPartitioning {
        let index = TraceIndex::new(&trace.txns);
        let graph = clique_graph(&index, self.load_metric);
        let result = MetisLike::new(self.k, self.epsilon, self.seed).partition(&graph);

        let map: HashMap<RecordId, PartitionId> = index
            .records
            .iter()
            .zip(&result.assignment)
            .map(|(&r, &p)| (r, PartitionId(p)))
            .collect();
        let records = index.records;

        SchismPartitioning {
            k: self.k,
            map,
            records,
            result,
            graph_vertices: graph.num_vertices(),
            graph_edges: graph.num_edges(),
        }
    }
}

/// Output of the Schism-like pipeline.
#[derive(Debug, Clone)]
pub struct SchismPartitioning {
    pub k: u32,
    /// Every traced record gets an explicit entry — the source of Schism's
    /// large lookup tables.
    pub map: HashMap<RecordId, PartitionId>,
    pub records: Vec<RecordId>,
    pub result: PartitionResult,
    pub graph_vertices: usize,
    pub graph_edges: usize,
}

impl SchismPartitioning {
    /// Materialize as a placement (hash fallback for never-traced records).
    pub fn into_placement(&self) -> ExplicitPlacement<HashPlacement> {
        ExplicitPlacement::new(self.map.clone(), HashPlacement::new(self.k))
    }

    pub fn lookup_entries(&self) -> usize {
        self.map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chiller_part::distributed_ratio;
    use crate::stats::TxnTrace;
    use chiller_common::ids::TableId;
    use chiller_common::rng::seeded;
    use chiller_storage::placement::{HashPlacement, Placement};
    use rand::Rng;

    fn rid(k: u64) -> RecordId {
        RecordId::new(TableId(1), k)
    }

    /// Clusterable workload: transactions stay within groups of records.
    fn clustered_trace(groups: u64, per_group: u64, txns: usize) -> WorkloadTrace {
        let mut rng = seeded(23);
        let mut out = Vec::new();
        for _ in 0..txns {
            let g = rng.gen_range(0..groups);
            let base = g * per_group;
            let recs: Vec<RecordId> = (0..4)
                .map(|_| rid(base + rng.gen_range(0..per_group)))
                .collect();
            out.push(TxnTrace::new(vec![], recs));
        }
        WorkloadTrace::new(out, 1_000_000)
    }

    #[test]
    fn schism_minimizes_distributed_txns_vs_hash() {
        let trace = clustered_trace(4, 100, 4_000);
        let schism = SchismPartitioner::new(4).partition(&trace);
        let placement = schism.into_placement();
        let hash = HashPlacement::new(4);
        let r_schism = distributed_ratio(&trace.txns, &placement);
        let r_hash = distributed_ratio(&trace.txns, &hash);
        assert!(
            r_schism < 0.2,
            "clusterable workload must be mostly local under Schism (got {r_schism})"
        );
        assert!(
            r_hash > 0.8,
            "hash partitioning must break clusters (got {r_hash})"
        );
    }

    #[test]
    fn schism_lookup_covers_every_traced_record() {
        let trace = clustered_trace(2, 50, 500);
        let schism = SchismPartitioner::new(2).partition(&trace);
        let mut traced: Vec<RecordId> = trace
            .txns
            .iter()
            .flat_map(|t| t.distinct_records())
            .collect();
        traced.sort();
        traced.dedup();
        assert_eq!(schism.lookup_entries(), traced.len());
        for r in traced {
            assert!(schism.map.contains_key(&r));
        }
    }

    #[test]
    fn schism_balance_held() {
        let trace = clustered_trace(4, 100, 4_000);
        let schism = SchismPartitioner::new(4).partition(&trace);
        assert!(
            schism.result.imbalance() <= 1.15,
            "imbalance {}",
            schism.result.imbalance()
        );
    }

    #[test]
    fn placement_fallback_for_unseen_records() {
        let trace = clustered_trace(2, 10, 100);
        let schism = SchismPartitioner::new(2).partition(&trace);
        let placement = schism.into_placement();
        // A record never traced still resolves (hash fallback).
        let p = placement.partition_of(rid(999_999));
        assert!(p.0 < 2);
    }
}
