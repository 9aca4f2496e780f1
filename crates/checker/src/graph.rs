//! Dependency-graph construction, cycle search, and anomaly
//! classification.

use crate::mode::CheckMode;
use crate::model::CommittedTxn;
use chiller_common::{RecordId, TxnId};
use std::collections::{HashMap, HashSet};

/// A dependency-edge kind between two committed transactions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DepKind {
    /// `T1 → T2`: T2 read the version T1 installed (read-from).
    WriteRead,
    /// `T1 → T2`: T2 installed the next version after T1's (version order).
    WriteWrite,
    /// `T1 → T2`: T2 overwrote the version T1 read (anti-dependency).
    ReadWrite,
}

impl DepKind {
    /// Short tag for reports (`wr`/`ww`/`rw`).
    pub fn tag(self) -> &'static str {
        match self {
            DepKind::WriteRead => "wr",
            DepKind::WriteWrite => "ww",
            DepKind::ReadWrite => "rw",
        }
    }
}

/// One dependency edge, kept on a [`Violation`] as evidence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepEdge {
    /// Source transaction.
    pub from: TxnId,
    /// Destination transaction.
    pub to: TxnId,
    /// Dependency kind.
    pub kind: DepKind,
    /// The record inducing the edge.
    pub record: RecordId,
}

/// Classification of a dependency cycle, by the weakest anomaly class it
/// demonstrates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Anomaly {
    /// Circular information flow: every step of the cycle carries a WR or
    /// WW edge (no anti-dependency needed) — Adya's G1c.
    G1c,
    /// Two transactions read the same version of one record and both
    /// overwrote it: a 2-cycle of WW + RW on a single record.
    LostUpdate,
    /// A cycle of anti-dependencies only: every transaction overwrote
    /// state another one read, none saw another's writes.
    WriteSkew,
    /// Any other dependency cycle (general G2).
    General,
}

impl Anomaly {
    /// Stable snake_case name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Anomaly::G1c => "g1c",
            Anomaly::LostUpdate => "lost_update",
            Anomaly::WriteSkew => "write_skew",
            Anomaly::General => "general",
        }
    }
}

/// One detected serializability violation: a dependency cycle, its
/// classification, and one representative edge per step.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The anomaly class of the cycle.
    pub anomaly: Anomaly,
    /// The transactions on the cycle, in traversal order.
    pub cycle: Vec<TxnId>,
    /// One representative edge per step (`cycle[i] → cycle[i+1]`, wrapping).
    pub edges: Vec<DepEdge>,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} cycle:", self.anomaly.name())?;
        for e in &self.edges {
            write!(f, " {} -{}@{}-> {}", e.from, e.kind.tag(), e.record, e.to)?;
        }
        Ok(())
    }
}

/// Outcome of checking a history.
#[derive(Debug)]
pub struct CheckReport {
    /// The mode the check ran under.
    pub mode: CheckMode,
    /// Committed transactions considered.
    pub txns: usize,
    /// Dependency edges built.
    pub edges: usize,
    /// Dependency cycles found, at most one per strongly connected
    /// component of the dependency graph.
    pub violations: Vec<Violation>,
    /// Observations lost before the check. Always 0: engines record the
    /// history uncapped. Kept so callers that gate on
    /// [`Self::is_complete`] keep compiling.
    pub events_dropped: u64,
}

impl CheckReport {
    /// True when no dependency cycle was found.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// True when no observation was dropped: the verdict covers the whole
    /// recorded run, not a sample of it. Always true (see
    /// [`Self::events_dropped`]).
    pub fn is_complete(&self) -> bool {
        self.events_dropped == 0
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "check[{}]: {} txns, {} edges, {} violations, {} dropped",
            self.mode.label(),
            self.txns,
            self.edges,
            self.violations.len(),
            self.events_dropped
        )
    }
}

/// Check a committed history (already assembled and commit-ordered) for
/// dependency cycles under `mode`: build per-record edges over the whole
/// history, then one SCC pass. `CheckMode::Off` checks nothing and
/// reports vacuous success.
pub fn check(txns: &[CommittedTxn], mode: CheckMode) -> CheckReport {
    let mut report = CheckReport {
        mode,
        txns: txns.len(),
        edges: 0,
        violations: Vec::new(),
        events_dropped: 0,
    };
    if mode == CheckMode::Off {
        return report;
    }
    let n = txns.len();
    // Per-record version chains over the *observed* writes. Versions may
    // have gaps (writes of aborted-then-bumped loads never exist), so
    // "next version" means the next observed one, which only weakens —
    // never falsifies — the edges.
    let mut writers: HashMap<RecordId, Vec<(u64, usize)>> = HashMap::new();
    for (i, t) in txns.iter().enumerate() {
        for &(r, v) in &t.writes {
            writers.entry(r).or_default().push((v, i));
        }
    }
    for list in writers.values_mut() {
        list.sort_unstable();
    }

    let mut adj: Vec<Vec<(usize, DepKind, RecordId)>> = vec![Vec::new(); n];
    let push = |adj: &mut Vec<Vec<(usize, DepKind, RecordId)>>,
                from: usize,
                to: usize,
                kind: DepKind,
                record: RecordId| {
        adj[from].push((to, kind, record));
    };

    // WW: consecutive observed writers of each record. Two *different*
    // transactions installing the same version is storage corruption; the
    // both-ways edges make it surface as a (General) cycle instead of
    // passing silently.
    for (&r, list) in &writers {
        for w in list.windows(2) {
            let (v1, i1) = w[0];
            let (v2, i2) = w[1];
            if i1 == i2 {
                continue;
            }
            push(&mut adj, i1, i2, DepKind::WriteWrite, r);
            if v1 == v2 {
                push(&mut adj, i2, i1, DepKind::WriteWrite, r);
            }
        }
    }

    // WR (writer of the observed version → reader) and RW (reader → next
    // observed writer). Version 0 is the initial load: no writer, no WR.
    for (i, t) in txns.iter().enumerate() {
        for &(r, v) in &t.reads {
            let Some(list) = writers.get(&r) else {
                continue;
            };
            let lo = list.partition_point(|&(ver, _)| ver < v);
            let mut at = lo;
            while at < list.len() && list[at].0 == v {
                if list[at].1 != i {
                    push(&mut adj, list[at].1, i, DepKind::WriteRead, r);
                }
                at += 1;
            }
            // `at` now sits at the first writer of a later version; skip
            // the reader's own writes (an RMW installs the successor
            // version itself — no anti-dependency on oneself).
            while at < list.len() && list[at].1 == i {
                at += 1;
            }
            if at < list.len() {
                push(&mut adj, i, list[at].1, DepKind::ReadWrite, r);
            }
        }
    }
    report.edges += adj.iter().map(Vec::len).sum::<usize>();

    for scc in tarjan_sccs(&adj) {
        if scc.len() < 2 {
            continue; // self-edges are never built, so singletons are acyclic
        }
        let Some((cycle, edges)) = extract_cycle(&adj, &scc) else {
            continue;
        };
        let anomaly = classify(&adj, &cycle);
        report.violations.push(Violation {
            anomaly,
            cycle: cycle.iter().map(|&i| txns[i].txn).collect(),
            edges: edges
                .iter()
                .map(|&(from, to, kind, record)| DepEdge {
                    from: txns[from].txn,
                    to: txns[to].txn,
                    kind,
                    record,
                })
                .collect(),
        });
    }
    report
}

/// Iterative Tarjan SCC. Returns components in reverse-topological order;
/// members are indices into the checked history.
fn tarjan_sccs(adj: &[Vec<(usize, DepKind, RecordId)>]) -> Vec<Vec<usize>> {
    let n = adj.len();
    const UNSET: usize = usize::MAX;
    let mut index = vec![UNSET; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut sccs: Vec<Vec<usize>> = Vec::new();
    // Explicit DFS frames: (node, next-edge-position).
    let mut frames: Vec<(usize, usize)> = Vec::new();

    for root in 0..n {
        if index[root] != UNSET {
            continue;
        }
        frames.push((root, 0));
        index[root] = next_index;
        low[root] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root] = true;
        while let Some(&mut (v, ref mut ei)) = frames.last_mut() {
            if *ei < adj[v].len() {
                let (w, _, _) = adj[v][*ei];
                *ei += 1;
                if index[w] == UNSET {
                    index[w] = next_index;
                    low[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    sccs.push(comp);
                }
            }
        }
    }
    sccs
}

/// Extract one concrete (shortest-through-the-start-node) cycle from a
/// non-trivial SCC, returning the node sequence and one representative
/// edge per step, preferring WW > WR > RW so the evidence names the
/// strongest dependency available.
#[allow(clippy::type_complexity)]
fn extract_cycle(
    adj: &[Vec<(usize, DepKind, RecordId)>],
    scc: &[usize],
) -> Option<(Vec<usize>, Vec<(usize, usize, DepKind, RecordId)>)> {
    let members: HashSet<usize> = scc.iter().copied().collect();
    let start = *scc.iter().min().expect("non-empty SCC");
    // BFS from `start` within the SCC.
    let mut parent: HashMap<usize, usize> = HashMap::new();
    let mut dist: HashMap<usize, usize> = HashMap::new();
    dist.insert(start, 0);
    let mut queue = std::collections::VecDeque::from([start]);
    while let Some(v) = queue.pop_front() {
        for &(w, _, _) in &adj[v] {
            if members.contains(&w) && !dist.contains_key(&w) {
                dist.insert(w, dist[&v] + 1);
                parent.insert(w, v);
                queue.push_back(w);
            }
        }
    }
    // Close the loop through the shortest in-edge u → start.
    let mut best: Option<(usize, usize)> = None; // (dist, u)
    for &u in scc {
        if u == start {
            continue;
        }
        if adj[u].iter().any(|&(w, _, _)| w == start) {
            if let Some(&d) = dist.get(&u) {
                if best.map(|(bd, bu)| (d, u) < (bd, bu)).unwrap_or(true) {
                    best = Some((d, u));
                }
            }
        }
    }
    let (_, u) = best?;
    let mut path = vec![u];
    let mut v = u;
    while v != start {
        v = parent[&v];
        path.push(v);
    }
    path.reverse(); // start, ..., u
    let edges = path
        .iter()
        .zip(path.iter().cycle().skip(1))
        .map(|(&a, &b)| {
            let (to, kind, record) = best_edge(adj, a, b);
            (a, to, kind, record)
        })
        .collect();
    Some((path, edges))
}

/// The representative edge a → b, preferring WW > WR > RW.
fn best_edge(
    adj: &[Vec<(usize, DepKind, RecordId)>],
    a: usize,
    b: usize,
) -> (usize, DepKind, RecordId) {
    let mut choice: Option<(usize, DepKind, RecordId)> = None;
    for &(to, kind, record) in &adj[a] {
        if to != b {
            continue;
        }
        let better = match (&choice, kind) {
            (None, _) => true,
            (Some((_, DepKind::WriteWrite, _)), _) => false,
            (Some((_, DepKind::WriteRead, _)), DepKind::WriteWrite) => true,
            (Some((_, DepKind::WriteRead, _)), _) => false,
            (Some((_, DepKind::ReadWrite, _)), k) => k != DepKind::ReadWrite,
        };
        if better {
            choice = Some((to, kind, record));
        }
    }
    choice.expect("cycle step without an edge")
}

/// Classify a cycle by the edge kinds available at each step.
fn classify(adj: &[Vec<(usize, DepKind, RecordId)>], cycle: &[usize]) -> Anomaly {
    // Per step: the set of kinds and records of all parallel edges.
    let steps: Vec<Vec<(DepKind, RecordId)>> = cycle
        .iter()
        .zip(cycle.iter().cycle().skip(1))
        .map(|(&a, &b)| {
            adj[a]
                .iter()
                .filter(|&&(to, _, _)| to == b)
                .map(|&(_, k, r)| (k, r))
                .collect()
        })
        .collect();

    // G1c: traversable on information flow alone (WR/WW at every step).
    if steps
        .iter()
        .all(|s| s.iter().any(|&(k, _)| k != DepKind::ReadWrite))
    {
        return Anomaly::G1c;
    }
    // Lost update: a 2-cycle on one record combining version order (WW)
    // with an anti-dependency (RW) — both overwrote what one of them read.
    if cycle.len() == 2 {
        let records0: HashSet<RecordId> = steps[0].iter().map(|&(_, r)| r).collect();
        for &(_, r) in steps[1].iter() {
            if !records0.contains(&r) {
                continue;
            }
            let kinds: HashSet<DepKind> = steps
                .iter()
                .flatten()
                .filter(|&&(_, rec)| rec == r)
                .map(|&(k, _)| k)
                .collect();
            if kinds.contains(&DepKind::WriteWrite) && kinds.contains(&DepKind::ReadWrite) {
                return Anomaly::LostUpdate;
            }
        }
    }
    // Write skew: anti-dependencies only — no transaction saw another's
    // writes, yet the set is unserializable.
    if steps
        .iter()
        .all(|s| s.iter().all(|&(k, _)| k == DepKind::ReadWrite))
    {
        return Anomaly::WriteSkew;
    }
    Anomaly::General
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiller_common::{NodeId, TableId};

    fn txn(seq: u64) -> TxnId {
        TxnId::new(NodeId(0), seq)
    }

    fn rid(k: u64) -> RecordId {
        RecordId::new(TableId(1), k)
    }

    fn committed(
        seq: u64,
        ts: u64,
        reads: Vec<(RecordId, u64)>,
        writes: Vec<(RecordId, u64)>,
    ) -> CommittedTxn {
        CommittedTxn {
            txn: txn(seq),
            commit_ts: ts,
            reads,
            writes,
        }
    }

    #[test]
    fn empty_and_serial_histories_pass() {
        assert!(check(&[], CheckMode::Full).ok());
        // T1 writes x@1; T2 reads x@1, writes x@2; T3 reads x@2.
        let txns = vec![
            committed(1, 10, vec![(rid(1), 0)], vec![(rid(1), 1)]),
            committed(2, 20, vec![(rid(1), 1)], vec![(rid(1), 2)]),
            committed(3, 30, vec![(rid(1), 2)], vec![]),
        ];
        let rep = check(&txns, CheckMode::Full);
        assert!(rep.ok(), "{:?}", rep.violations);
        assert!(rep.edges > 0);
    }

    #[test]
    fn off_mode_is_vacuous() {
        let txns = vec![
            committed(1, 10, vec![(rid(1), 1)], vec![(rid(1), 2)]),
            committed(2, 20, vec![(rid(1), 1)], vec![(rid(1), 3)]),
        ];
        let rep = check(&txns, CheckMode::Off);
        assert!(rep.ok());
        assert_eq!(rep.edges, 0);
    }

    #[test]
    fn lost_update_two_rmws_of_one_version() {
        // Both read x@1, both overwrote it.
        let txns = vec![
            committed(1, 10, vec![(rid(1), 1)], vec![(rid(1), 2)]),
            committed(2, 20, vec![(rid(1), 1)], vec![(rid(1), 3)]),
        ];
        let rep = check(&txns, CheckMode::Full);
        assert_eq!(rep.violations.len(), 1);
        assert_eq!(rep.violations[0].anomaly, Anomaly::LostUpdate);
    }

    #[test]
    fn disjoint_cycles_are_reported_once_each() {
        // Two lost updates on different records, with a serial pair
        // between them: one SCC, hence one violation, per anomaly.
        let txns = vec![
            committed(1, 10, vec![(rid(1), 1)], vec![(rid(1), 2)]),
            committed(2, 20, vec![(rid(1), 1)], vec![(rid(1), 3)]),
            committed(3, 30, vec![(rid(2), 0)], vec![(rid(2), 1)]),
            committed(4, 40, vec![(rid(2), 1)], vec![(rid(2), 2)]),
            committed(5, 50, vec![(rid(3), 1)], vec![(rid(3), 2)]),
            committed(6, 60, vec![(rid(3), 1)], vec![(rid(3), 3)]),
        ];
        let rep = check(&txns, CheckMode::Full);
        assert_eq!(rep.violations.len(), 2, "{:?}", rep.violations);
    }

    #[test]
    fn cycles_far_apart_in_commit_order_are_caught() {
        // The two halves of the lost update commit far apart.
        let txns = vec![
            committed(1, 10, vec![(rid(1), 1)], vec![(rid(1), 2)]),
            committed(3, 20, vec![(rid(9), 0)], vec![]),
            committed(4, 30, vec![(rid(9), 0)], vec![]),
            committed(5, 40, vec![(rid(9), 0)], vec![]),
            committed(2, 50, vec![(rid(1), 1)], vec![(rid(1), 3)]),
        ];
        assert!(!check(&txns, CheckMode::Full).ok());
    }

    #[test]
    fn duplicate_installed_versions_surface_as_cycle() {
        // Storage corruption: two txns claim to have installed x@2.
        let txns = vec![
            committed(1, 10, vec![], vec![(rid(1), 2)]),
            committed(2, 20, vec![], vec![(rid(1), 2)]),
        ];
        let rep = check(&txns, CheckMode::Full);
        assert!(!rep.ok());
    }
}
