//! Workload-graph representations (§4.2).
//!
//! Chiller models the workload as a **star graph**: every transaction is a
//! dummy *t-vertex* connected to the *r-vertices* of the records it
//! accesses; all edges of a record carry the record's contention likelihood
//! as weight. This needs only `n` edges per transaction, versus the
//! `n(n-1)/2` of Schism's clique representation — the reason the paper's
//! §4.4 reports ~5× faster graph construction + partitioning.
//!
//! The Schism-style **clique graph** is also provided as the baseline.

use crate::stats::{RecordStats, TxnTrace};
use chiller_common::ids::RecordId;
use std::collections::HashMap;

/// Undirected weighted graph with weighted vertices, adjacency-list form.
#[derive(Debug, Clone, Default)]
pub struct Graph {
    /// Vertex weights (the load metric).
    pub vwgt: Vec<f64>,
    /// `adj[v]` = (neighbor, edge weight); each edge stored in both lists.
    pub adj: Vec<Vec<(u32, f64)>>,
}

impl Graph {
    pub fn with_vertices(n: usize) -> Self {
        Graph {
            vwgt: vec![0.0; n],
            adj: vec![Vec::new(); n],
        }
    }

    pub fn num_vertices(&self) -> usize {
        self.vwgt.len()
    }

    pub fn num_edges(&self) -> usize {
        self.adj.iter().map(Vec::len).sum::<usize>() / 2
    }

    pub fn add_vertex(&mut self, weight: f64) -> u32 {
        self.vwgt.push(weight);
        self.adj.push(Vec::new());
        (self.vwgt.len() - 1) as u32
    }

    /// Add (or accumulate onto an existing) undirected edge. Each call
    /// searches `u`'s adjacency list, so it costs O(degree): building a
    /// large graph edge by edge through it is quadratic in the degree.
    pub fn add_edge(&mut self, u: u32, v: u32, w: f64) {
        debug_assert_ne!(u, v, "self loops are meaningless here");
        match self.adj[u as usize].iter_mut().find(|(n, _)| *n == v) {
            Some((_, ew)) => {
                *ew += w;
                let back = self.adj[v as usize]
                    .iter_mut()
                    .find(|(n, _)| *n == u)
                    .expect("edge stored in both directions");
                back.1 += w;
            }
            None => {
                self.adj[u as usize].push((v, w));
                self.adj[v as usize].push((u, w));
            }
        }
    }

    pub fn total_vertex_weight(&self) -> f64 {
        self.vwgt.iter().sum()
    }

    /// Total weight of edges whose endpoints land in different partitions.
    pub fn edge_cut(&self, assignment: &[u32]) -> f64 {
        debug_assert_eq!(assignment.len(), self.num_vertices());
        let mut cut = 0.0;
        for (u, nbrs) in self.adj.iter().enumerate() {
            for &(v, w) in nbrs {
                if assignment[u] != assignment[v as usize] && (u as u32) < v {
                    cut += w;
                }
            }
        }
        cut
    }
}

/// The balance constraint's definition of load (§4.3 end).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LoadMetric {
    /// Number of executed transactions: t-vertices weigh 1, r-vertices 0.
    Transactions,
    /// Number of hosted records: r-vertices weigh 1, t-vertices 0.
    Records,
    /// Number of record accesses: r-vertices weigh reads+writes.
    #[default]
    Accesses,
}

/// A trace's records as r-vertex ids, shared by both graph builders.
///
/// Records are numbered in first-access order (within a transaction,
/// writes before reads). Each record is hashed once per access, here;
/// everything downstream indexes dense per-vertex arrays.
pub(crate) struct TraceIndex {
    pub(crate) record_vertex: HashMap<RecordId, u32>,
    pub(crate) records: Vec<RecordId>,
    /// Read and write counts of each r-vertex.
    pub(crate) stats: Vec<RecordStats>,
    /// Transaction `i`'s distinct r-vertices, in `RecordId` order, are
    /// `vertices[start[i]..start[i + 1]]`.
    start: Vec<usize>,
    vertices: Vec<u32>,
}

impl TraceIndex {
    pub(crate) fn new(txns: &[TxnTrace]) -> TraceIndex {
        let mut index = TraceIndex {
            record_vertex: HashMap::new(),
            records: Vec::new(),
            stats: Vec::new(),
            start: Vec::with_capacity(txns.len() + 1),
            vertices: Vec::new(),
        };
        index.start.push(0);
        let mut distinct: Vec<(RecordId, u32)> = Vec::new();
        for t in txns {
            distinct.clear();
            let writes = t.writes.iter().map(|&r| (r, true));
            for (r, write) in writes.chain(t.reads.iter().map(|&r| (r, false))) {
                let v = *index.record_vertex.entry(r).or_insert_with(|| {
                    index.records.push(r);
                    index.stats.push(RecordStats::default());
                    (index.records.len() - 1) as u32
                });
                let stats = &mut index.stats[v as usize];
                if write {
                    stats.writes += 1.0;
                } else {
                    stats.reads += 1.0;
                }
                distinct.push((r, v));
            }
            distinct.sort_unstable();
            distinct.dedup();
            index.vertices.extend(distinct.iter().map(|&(_, v)| v));
            index.start.push(index.vertices.len());
        }
        index
    }

    pub(crate) fn num_records(&self) -> usize {
        self.records.len()
    }

    pub(crate) fn num_txns(&self) -> usize {
        self.start.len() - 1
    }

    /// Transaction `i`'s distinct r-vertices, in `RecordId` order.
    pub(crate) fn txn(&self, i: usize) -> &[u32] {
        &self.vertices[self.start[i]..self.start[i + 1]]
    }

    /// Reads + writes of r-vertex `v`, the `Accesses` load.
    pub(crate) fn accesses(&self, v: usize) -> f64 {
        self.stats[v].reads + self.stats[v].writes
    }
}

/// Chiller's star representation plus the bookkeeping to map the
/// partitioner's output back to records and transactions.
#[derive(Debug, Clone)]
pub struct StarGraph {
    pub graph: Graph,
    /// r-vertex index of each record (r-vertices occupy `0..records.len()`).
    pub record_vertex: HashMap<RecordId, u32>,
    /// Inverse of `record_vertex`.
    pub records: Vec<RecordId>,
    /// First t-vertex index (t-vertex `i` = transaction `i` of the trace).
    pub t_base: u32,
    pub num_txns: usize,
}

impl StarGraph {
    /// Build the star graph from a trace.
    ///
    /// * `likelihood(record)` — the record's contention likelihood, used as
    ///   the weight of all its edges (§4.2: "this weight is relative to the
    ///   record's contention likelihood").
    /// * `min_edge_weight` — the §4.4 co-optimization: a positive floor on
    ///   every edge weight re-introduces pressure to co-locate records of
    ///   the same transaction (minimizing distributed transactions) as a
    ///   secondary objective.
    /// * `accesses(record)` — reads+writes, for the `Accesses` load metric.
    pub fn build(
        txns: &[TxnTrace],
        likelihood: impl Fn(RecordId) -> f64,
        accesses: impl Fn(RecordId) -> f64,
        metric: LoadMetric,
        min_edge_weight: f64,
    ) -> StarGraph {
        let index = TraceIndex::new(txns);
        let edge_weight: Vec<f64> = index
            .records
            .iter()
            .map(|&r| likelihood(r) + min_edge_weight)
            .collect();
        let vwgt = star_vertex_weights(&index, metric, |v| accesses(index.records[v]));
        StarGraph::assemble(index, &edge_weight, vwgt)
    }

    /// The star over an indexed trace: every edge of r-vertex `v` weighs
    /// `edge_weight[v]`, and `vwgt` covers the r- then the t-vertices.
    /// Every (record, transaction) pair is distinct, so edges are pushed
    /// into adjacency lists sized up front, never searched for.
    pub(crate) fn assemble(index: TraceIndex, edge_weight: &[f64], vwgt: Vec<f64>) -> StarGraph {
        let nr = index.num_records();
        let nt = index.num_txns();
        let mut degree = vec![0usize; nr];
        for &rv in &index.vertices {
            degree[rv as usize] += 1;
        }
        let mut adj: Vec<Vec<(u32, f64)>> = Vec::with_capacity(nr + nt);
        adj.extend(degree.iter().map(|&d| Vec::with_capacity(d)));
        for ti in 0..nt {
            let tv = (nr + ti) as u32;
            let nbrs = index.txn(ti);
            for &rv in nbrs {
                adj[rv as usize].push((tv, edge_weight[rv as usize]));
            }
            adj.push(
                nbrs.iter()
                    .map(|&rv| (rv, edge_weight[rv as usize]))
                    .collect(),
            );
        }
        StarGraph {
            graph: Graph { vwgt, adj },
            record_vertex: index.record_vertex,
            records: index.records,
            t_base: nr as u32,
            num_txns: nt,
        }
    }

    pub fn num_records(&self) -> usize {
        self.records.len()
    }
}

/// Star vertex weights under `metric`: r-vertices, then t-vertices.
/// `accesses(v)` is r-vertex `v`'s reads+writes.
pub(crate) fn star_vertex_weights(
    index: &TraceIndex,
    metric: LoadMetric,
    accesses: impl Fn(usize) -> f64,
) -> Vec<f64> {
    let (nr, nt) = (index.num_records(), index.num_txns());
    let mut vwgt = Vec::with_capacity(nr + nt);
    vwgt.extend((0..nr).map(|v| match metric {
        LoadMetric::Transactions => 0.0,
        LoadMetric::Records => 1.0,
        LoadMetric::Accesses => accesses(v),
    }));
    let t_weight = match metric {
        LoadMetric::Transactions => 1.0,
        _ => 0.0,
    };
    vwgt.resize(nr + nt, t_weight);
    vwgt
}

/// Schism-style clique co-access graph: r-vertices only; every co-accessed
/// pair gets an edge weighted by co-access frequency.
pub fn build_clique_graph(
    txns: &[TxnTrace],
    accesses: impl Fn(RecordId) -> f64,
    metric: LoadMetric,
) -> (Graph, HashMap<RecordId, u32>, Vec<RecordId>) {
    let index = TraceIndex::new(txns);
    let graph = clique_graph(&index, metric, |v| accesses(index.records[v]));
    (graph, index.record_vertex, index.records)
}

/// The clique graph over an indexed trace; `accesses(v)` is r-vertex
/// `v`'s reads+writes.
///
/// Each adjacency list holds its neighbors in the order their pair was
/// first co-accessed, and each weight counts co-accesses: what one
/// `Graph::add_edge` per pair builds, without its linear searches. Every
/// directed pair occurrence is bucketed by its source with a stable
/// counting sort, then each bucket is deduplicated through a dense slot
/// table.
pub(crate) fn clique_graph(
    index: &TraceIndex,
    metric: LoadMetric,
    accesses: impl Fn(usize) -> f64,
) -> Graph {
    let n = index.num_records();
    let vwgt = (0..n)
        .map(|v| match metric {
            // Transactions isn't representable without t-vertices; Schism
            // balances records or accesses.
            LoadMetric::Transactions | LoadMetric::Records => 1.0,
            LoadMetric::Accesses => accesses(v),
        })
        .collect();

    let mut start = vec![0usize; n + 1];
    for t in 0..index.num_txns() {
        let rs = index.txn(t);
        for &v in rs {
            start[v as usize + 1] += rs.len() - 1;
        }
    }
    for v in 0..n {
        start[v + 1] += start[v];
    }
    let mut fill = start.clone();
    let mut occurrences = vec![0u32; start[n]];
    for t in 0..index.num_txns() {
        let rs = index.txn(t);
        for (i, &a) in rs.iter().enumerate() {
            for &b in &rs[i + 1..] {
                occurrences[fill[a as usize]] = b;
                fill[a as usize] += 1;
                occurrences[fill[b as usize]] = a;
                fill[b as usize] += 1;
            }
        }
    }

    const NONE: u32 = u32::MAX;
    let mut owner = vec![NONE; n];
    let mut slot = vec![0u32; n];
    let mut adj: Vec<Vec<(u32, f64)>> = Vec::with_capacity(n);
    for u in 0..n {
        let mut nbrs: Vec<(u32, f64)> = Vec::new();
        for &v in &occurrences[start[u]..start[u + 1]] {
            if owner[v as usize] == u as u32 {
                nbrs[slot[v as usize] as usize].1 += 1.0;
            } else {
                owner[v as usize] = u as u32;
                slot[v as usize] = nbrs.len() as u32;
                nbrs.push((v, 1.0));
            }
        }
        adj.push(nbrs);
    }
    Graph { vwgt, adj }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiller_common::ids::TableId;

    fn rid(k: u64) -> RecordId {
        RecordId::new(TableId(1), k)
    }

    fn trace() -> Vec<TxnTrace> {
        vec![
            TxnTrace::new(vec![rid(1)], vec![rid(2)]),
            TxnTrace::new(vec![], vec![rid(1), rid(2), rid(3)]),
        ]
    }

    #[test]
    fn graph_edge_accumulation() {
        let mut g = Graph::with_vertices(3);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 0, 2.0);
        g.add_edge(1, 2, 1.0);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.adj[0][0], (1, 3.0));
        assert_eq!(g.adj[1].iter().find(|(n, _)| *n == 0).unwrap().1, 3.0);
    }

    #[test]
    fn edge_cut_counts_cross_edges_once() {
        let mut g = Graph::with_vertices(4);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 2.0);
        g.add_edge(2, 3, 4.0);
        let cut = g.edge_cut(&[0, 0, 1, 1]);
        assert_eq!(cut, 2.0);
        assert_eq!(g.edge_cut(&[0, 0, 0, 0]), 0.0);
        assert_eq!(g.edge_cut(&[0, 1, 0, 1]), 7.0);
    }

    #[test]
    fn star_graph_shape_matches_paper() {
        // |V| = |R| + |T|, |E| = Σ records per txn (the §4.4 size claim).
        let txns = trace();
        let sg = StarGraph::build(&txns, |_| 0.5, |_| 1.0, LoadMetric::Records, 0.0);
        assert_eq!(sg.num_records(), 3);
        assert_eq!(sg.graph.num_vertices(), 3 + 2);
        assert_eq!(sg.graph.num_edges(), 2 + 3);
        // No record-to-record edges.
        for (u, nbrs) in sg.graph.adj.iter().enumerate().take(sg.num_records()) {
            for &(v, _) in nbrs {
                assert!(v >= sg.t_base, "r-vertex {u} connects to r-vertex {v}");
            }
        }
    }

    #[test]
    fn star_edge_weights_follow_likelihood_plus_floor() {
        let txns = trace();
        let lk = |r: RecordId| if r == rid(2) { 0.8 } else { 0.0 };
        let sg = StarGraph::build(&txns, lk, |_| 1.0, LoadMetric::Records, 0.1);
        let rv2 = sg.record_vertex[&rid(2)];
        for &(_, w) in &sg.graph.adj[rv2 as usize] {
            assert!((w - 0.9).abs() < 1e-12);
        }
        let rv1 = sg.record_vertex[&rid(1)];
        for &(_, w) in &sg.graph.adj[rv1 as usize] {
            assert!((w - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn star_load_metrics() {
        let txns = trace();
        let by_txn = StarGraph::build(&txns, |_| 0.0, |_| 2.0, LoadMetric::Transactions, 0.0);
        assert_eq!(by_txn.graph.vwgt[..3], [0.0, 0.0, 0.0]);
        assert_eq!(by_txn.graph.vwgt[3..], [1.0, 1.0]);
        let by_acc = StarGraph::build(&txns, |_| 0.0, |_| 2.0, LoadMetric::Accesses, 0.0);
        assert_eq!(by_acc.graph.vwgt[..3], [2.0, 2.0, 2.0]);
        assert_eq!(by_acc.graph.vwgt[3..], [0.0, 0.0]);
    }

    #[test]
    fn clique_graph_is_quadratic_per_txn() {
        let txns = trace();
        let (g, _, records) = build_clique_graph(&txns, |_| 1.0, LoadMetric::Records);
        assert_eq!(records.len(), 3);
        // txn1 (2 records): 1 edge; txn2 (3 records): 3 edges; pair (1,2)
        // repeats so it accumulates: distinct edges = 1+3-1 = 3.
        assert_eq!(g.num_edges(), 3);
        // Co-access frequency of (1,2) is 2.
        let v1 = records.iter().position(|&r| r == rid(1)).unwrap();
        let w12 = g.adj[v1]
            .iter()
            .find(|(n, _)| records[*n as usize] == rid(2))
            .unwrap()
            .1;
        assert_eq!(w12, 2.0);
    }

    /// The builders as they were: a hash lookup and one `add_edge` per
    /// edge. Kept as the reference the dense builders must match.
    fn reference_graphs(txns: &[TxnTrace], likelihood: impl Fn(RecordId) -> f64) -> (Graph, Graph) {
        let mut record_vertex: HashMap<RecordId, u32> = HashMap::new();
        let mut records: Vec<RecordId> = Vec::new();
        for t in txns {
            for r in t.records() {
                record_vertex.entry(r).or_insert_with(|| {
                    records.push(r);
                    (records.len() - 1) as u32
                });
            }
        }
        let nr = records.len();
        let mut star = Graph::with_vertices(nr + txns.len());
        let mut clique = Graph::with_vertices(nr);
        for (ti, txn) in txns.iter().enumerate() {
            let rs = txn.distinct_records();
            for &r in &rs {
                star.add_edge(record_vertex[&r], (nr + ti) as u32, likelihood(r) + 1e-4);
            }
            for i in 0..rs.len() {
                for j in (i + 1)..rs.len() {
                    clique.add_edge(record_vertex[&rs[i]], record_vertex[&rs[j]], 1.0);
                }
            }
        }
        (star, clique)
    }

    fn edge_bits(g: &Graph) -> Vec<Vec<(u32, u64)>> {
        g.adj
            .iter()
            .map(|nbrs| nbrs.iter().map(|&(u, w)| (u, w.to_bits())).collect())
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        /// Same adjacency order and same weight bits as the `add_edge`
        /// builders, on traces with repeated and read-written records.
        #[test]
        fn builders_match_add_edge_reference(
            txns in proptest::collection::vec(
                (
                    proptest::collection::vec(0u64..40, 0..6),
                    proptest::collection::vec(0u64..40, 0..6),
                ),
                0..80,
            ),
        ) {
            let ids = |keys: Vec<u64>| keys.into_iter().map(rid).collect();
            let txns: Vec<TxnTrace> = txns
                .into_iter()
                .map(|(reads, writes)| TxnTrace::new(ids(reads), ids(writes)))
                .collect();
            let likelihood = |r: RecordId| (r.key % 7) as f64 / 9.0;
            let (star_ref, clique_ref) = reference_graphs(&txns, likelihood);
            let star = StarGraph::build(&txns, likelihood, |_| 1.0, LoadMetric::Records, 1e-4);
            let (clique, _, _) = build_clique_graph(&txns, |_| 1.0, LoadMetric::Records);
            proptest::prop_assert_eq!(edge_bits(&star.graph), edge_bits(&star_ref));
            proptest::prop_assert_eq!(edge_bits(&clique), edge_bits(&clique_ref));
        }
    }

    #[test]
    fn star_vs_clique_edge_counts_diverge_for_wide_txns() {
        // A 10-record transaction: star = 10 edges, clique = 45.
        let txn = TxnTrace::new((0..10).map(rid).collect(), vec![]);
        let sg = StarGraph::build(
            std::slice::from_ref(&txn),
            |_| 0.0,
            |_| 1.0,
            LoadMetric::Records,
            0.0,
        );
        let (cg, _, _) =
            build_clique_graph(std::slice::from_ref(&txn), |_| 1.0, LoadMetric::Records);
        assert_eq!(sg.graph.num_edges(), 10);
        assert_eq!(cg.num_edges(), 45);
    }
}
