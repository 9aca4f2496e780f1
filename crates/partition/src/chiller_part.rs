//! The end-to-end Chiller partitioning pipeline (§4).
//!
//! trace → per-record contention likelihood (§4.1) → star graph (§4.2) →
//! multilevel min-cut partitioning (§4.3) → hot-record lookup table over a
//! default hash partitioner (§4.4).
//!
//! Only records whose contention likelihood clears `hot_threshold` receive
//! lookup-table entries; everything else falls back to hash placement. The
//! paper notes this "might cause more transactions to be distributed", which
//! is acceptable because distributed transactions are cheap on fast networks
//! — contention is what matters.

use crate::graph::{star_vertex_weights, LoadMetric, StarGraph, TraceIndex};
use crate::likelihood::{hottest_first, ContentionModel};
use crate::metis::{MetisLike, PartitionResult};
use crate::stats::{TxnTrace, WorkloadTrace};
use chiller_common::ids::{PartitionId, RecordId};
use chiller_storage::placement::{HashPlacement, LookupTable, Placement};
use std::collections::HashMap;

/// Configuration of the Chiller partitioner.
#[derive(Debug, Clone)]
pub struct ChillerPartitioner {
    pub k: u32,
    pub epsilon: f64,
    pub seed: u64,
    /// Contention-likelihood threshold above which a record is "hot" and
    /// receives a lookup-table entry.
    pub hot_threshold: f64,
    /// §4.4 co-optimization: positive floor on edge weights to also
    /// discourage distributed transactions as a secondary objective.
    pub min_edge_weight: f64,
    pub load_metric: LoadMetric,
    pub model: ContentionModel,
}

impl ChillerPartitioner {
    pub fn new(k: u32, model: ContentionModel) -> Self {
        ChillerPartitioner {
            k,
            epsilon: 0.05,
            seed: 0xC411E6,
            hot_threshold: 0.01,
            min_edge_weight: 1e-4,
            load_metric: LoadMetric::Accesses,
            model,
        }
    }

    /// Run the pipeline over a trace.
    ///
    /// Per-record statistics, likelihoods and loads live in arrays indexed
    /// by r-vertex, built in the same pass that numbers the records.
    pub fn partition(&self, trace: &WorkloadTrace) -> ChillerPartitioning {
        let index = TraceIndex::new(&trace.txns);
        let likelihood: Vec<f64> = index
            .stats
            .iter()
            .map(|&s| self.model.likelihood(s))
            .collect();
        let edge_weight: Vec<f64> = likelihood
            .iter()
            .map(|p| p + self.min_edge_weight)
            .collect();
        let vwgt = star_vertex_weights(&index, self.load_metric, |v| index.accesses(v));
        let star = StarGraph::assemble(index, &edge_weight, vwgt);

        let result = MetisLike::new(self.k, self.epsilon, self.seed).partition(&star.graph);

        // Keep assignments only for hot records, hottest first (the order
        // of `ContentionModel::hot_records`).
        let mut hot: Vec<((RecordId, f64), usize)> = likelihood
            .iter()
            .enumerate()
            .filter(|&(_, &p)| p >= self.hot_threshold)
            .map(|(v, &p)| ((star.records[v], p), v))
            .collect();
        hot.sort_by(|a, b| hottest_first(&a.0, &b.0));
        let hot_assignments = hot
            .iter()
            .map(|&((r, _), v)| (r, PartitionId(result.assignment[v])))
            .collect();
        let hot_likelihoods = hot.into_iter().map(|(hot, _)| hot).collect();

        // Inner-host preference per traced transaction: the partition of
        // its t-vertex (diagnostics; the run-time decision recomputes this
        // per instance).
        let txn_home: Vec<PartitionId> = (0..star.num_txns)
            .map(|t| PartitionId(result.assignment[(star.t_base as usize) + t]))
            .collect();

        ChillerPartitioning {
            k: self.k,
            hot_assignments,
            hot_likelihoods,
            txn_home,
            result,
            graph_vertices: star.graph.num_vertices(),
            graph_edges: star.graph.num_edges(),
        }
    }
}

/// Output of the Chiller pipeline.
#[derive(Debug, Clone)]
pub struct ChillerPartitioning {
    pub k: u32,
    /// Hot record → partition (the lookup table's content).
    pub hot_assignments: HashMap<RecordId, PartitionId>,
    /// Hot records with their likelihoods, descending.
    pub hot_likelihoods: Vec<(RecordId, f64)>,
    /// Partition of each traced transaction's t-vertex.
    pub txn_home: Vec<PartitionId>,
    pub result: PartitionResult,
    pub graph_vertices: usize,
    pub graph_edges: usize,
}

impl ChillerPartitioning {
    /// Materialize the §4.4 placement: lookup entries for hot records, hash
    /// for the rest.
    pub fn into_lookup_table(&self) -> LookupTable<HashPlacement> {
        LookupTable::with_entries(
            self.hot_assignments.iter().map(|(r, p)| (*r, *p)),
            HashPlacement::new(self.k),
        )
    }

    pub fn num_hot(&self) -> usize {
        self.hot_assignments.len()
    }
}

/// Fraction of transactions that touch more than one partition under a
/// placement — the paper's Figure 8 metric.
pub fn distributed_ratio<P: Placement>(txns: &[TxnTrace], placement: &P) -> f64 {
    if txns.is_empty() {
        return 0.0;
    }
    let distributed = txns
        .iter()
        .filter(|t| {
            let mut first: Option<PartitionId> = None;
            t.records().any(|r| {
                let p = placement.partition_of(r);
                match first {
                    None => {
                        first = Some(p);
                        false
                    }
                    Some(f) => f != p,
                }
            })
        })
        .count();
    distributed as f64 / txns.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiller_common::ids::TableId;
    use chiller_common::rng::{seeded, Zipf};
    use rand::Rng;

    fn rid(k: u64) -> RecordId {
        RecordId::new(TableId(1), k)
    }

    /// Synthetic skewed workload: a few hot records co-written in pairs,
    /// many cold records.
    fn skewed_trace() -> WorkloadTrace {
        let mut rng = seeded(17);
        let zipf = Zipf::new(200, 1.2);
        let mut txns = Vec::new();
        for _ in 0..3_000 {
            // Two skewed picks + two uniform cold picks.
            let h1 = zipf.sample(&mut rng) as u64;
            let h2 = zipf.sample(&mut rng) as u64;
            let c1 = 1_000 + rng.gen_range(0..50_000u64);
            let c2 = 1_000 + rng.gen_range(0..50_000u64);
            txns.push(TxnTrace::new(
                vec![rid(c1), rid(c2)],
                vec![rid(h1), rid(h2)],
            ));
        }
        WorkloadTrace::new(txns, 10_000_000)
    }

    fn model() -> ContentionModel {
        ContentionModel::new(20_000.0, 10_000_000.0)
    }

    #[test]
    fn hot_set_is_small_and_skew_ordered() {
        let trace = skewed_trace();
        let part = ChillerPartitioner::new(4, model()).partition(&trace);
        assert!(part.num_hot() > 0, "skew must produce hot records");
        assert!(
            part.num_hot() < 500,
            "hot set ({}) must be far smaller than the record population",
            part.num_hot()
        );
        // Likelihoods sorted descending.
        let ls: Vec<f64> = part.hot_likelihoods.iter().map(|(_, p)| *p).collect();
        assert!(ls.windows(2).all(|w| w[0] >= w[1]));
        // Rank-0 of the Zipf must be hot.
        assert!(part.hot_assignments.contains_key(&rid(0)));
    }

    #[test]
    fn lookup_table_entries_match_hot_set() {
        let trace = skewed_trace();
        let part = ChillerPartitioner::new(4, model()).partition(&trace);
        let lt = part.into_lookup_table();
        assert_eq!(lt.lookup_entries(), part.num_hot());
        for (r, p) in &part.hot_assignments {
            assert_eq!(lt.partition_of(*r), *p);
        }
    }

    #[test]
    fn partitions_are_balanced() {
        let trace = skewed_trace();
        let part = ChillerPartitioner::new(4, model()).partition(&trace);
        assert!(
            part.result.imbalance() <= 1.06,
            "imbalance {}",
            part.result.imbalance()
        );
    }

    #[test]
    fn cowritten_hot_pairs_tend_to_colocate() {
        // Build a workload where hot records 0&1 are always written
        // together, and 2&3 are always written together: Chiller must
        // co-locate each pair.
        let mut txns = Vec::new();
        for i in 0..2_000u64 {
            let pair = if i % 2 == 0 { (0, 1) } else { (2, 3) };
            let cold = 100 + i % 997;
            txns.push(TxnTrace::new(
                vec![rid(cold)],
                vec![rid(pair.0), rid(pair.1)],
            ));
        }
        let trace = WorkloadTrace::new(txns, 10_000_000);
        let part = ChillerPartitioner::new(2, model()).partition(&trace);
        let p0 = part.hot_assignments.get(&rid(0));
        let p1 = part.hot_assignments.get(&rid(1));
        let p2 = part.hot_assignments.get(&rid(2));
        let p3 = part.hot_assignments.get(&rid(3));
        assert!(p0.is_some() && p1.is_some() && p2.is_some() && p3.is_some());
        assert_eq!(p0, p1, "always-co-written pair must share a partition");
        assert_eq!(p2, p3, "always-co-written pair must share a partition");
    }

    #[test]
    fn distributed_ratio_counts_cross_partition_txns() {
        use chiller_storage::placement::HashPlacement;
        let txns = vec![
            TxnTrace::new(vec![rid(1)], vec![rid(1)]), // single record: local
            TxnTrace::new(vec![], (0..64).map(rid).collect()), // wide: distributed w.h.p.
        ];
        let r = distributed_ratio(&txns, &HashPlacement::new(8));
        assert!((r - 0.5).abs() < 1e-9, "ratio={r}");
    }

    #[test]
    fn deterministic_pipeline() {
        let trace = skewed_trace();
        let a = ChillerPartitioner::new(4, model()).partition(&trace);
        let b = ChillerPartitioner::new(4, model()).partition(&trace);
        assert_eq!(a.result.assignment, b.result.assignment);
        assert_eq!(a.num_hot(), b.num_hot());
    }
}
