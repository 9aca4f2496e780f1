//! Incremental replanning: the control-plane half of the adaptation loop.
//!
//! The planner keeps a sliding window of the engines' sampled transactions
//! and, when asked, re-runs the *existing* §4 pipeline (`ContentionModel` →
//! `ChillerPartitioner`) over them. That one pass yields every statistic a
//! plan reads: the layout, the records hot enough to promote, and, as it
//! keeps every record at or above the lower `cool_threshold`, the hot
//! records that have cooled. Two things make the result usable online:
//!
//! * **label alignment** — the min-cut partitioner numbers its parts
//!   arbitrarily, so a naive diff against the live layout would migrate
//!   everything every epoch. The desired partition labels are permuted to
//!   maximize (likelihood-weighted) agreement with where the hot records
//!   currently live, so a stable hotspot produces an empty plan;
//! * **bounded diffing** — the aligned desired layout is diffed against the
//!   current [`Directory`] into promotions (metadata only), demotions
//!   (hysteresis-gated metadata), and at most `max_moves_per_epoch` record
//!   migrations, hottest first.

use crate::config::AdaptiveConfig;
use crate::directory::Directory;
use chiller_common::ids::{PartitionId, RecordId};
use chiller_partition::stats::{TxnTrace, WorkloadTrace};
use chiller_partition::{ChillerPartitioner, ContentionModel, LoadMetric};
use chiller_storage::placement::Placement;
use std::collections::{HashMap, HashSet, VecDeque};

/// One planned record migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordMove {
    pub record: RecordId,
    pub from: PartitionId,
    pub to: PartitionId,
    /// Whether the record is hot in the desired layout (false for
    /// cooled records being migrated back to their default partition).
    pub hot_after: bool,
}

/// The bounded diff between the desired and current layouts.
#[derive(Debug, Clone, Default)]
pub struct MigrationPlan {
    /// Data movements, hottest first, capped at `max_moves_per_epoch`.
    pub moves: Vec<RecordMove>,
    /// Records to flag hot in place (already on the right partition).
    pub promotions: Vec<(RecordId, PartitionId)>,
    /// Records to un-flag (entry dropped only if it matches the default).
    pub demotions: Vec<RecordId>,
}

impl MigrationPlan {
    pub fn is_empty(&self) -> bool {
        self.moves.is_empty() && self.promotions.is_empty() && self.demotions.is_empty()
    }
}

/// Sliding-window replanner over the engines' sampled transactions.
pub struct AdaptivePlanner {
    cfg: AdaptiveConfig,
    partitions: u32,
    /// Last `window_epochs` epochs of merged samples.
    window: VecDeque<Vec<TxnTrace>>,
}

impl AdaptivePlanner {
    pub fn new(cfg: AdaptiveConfig, partitions: u32) -> Self {
        assert!(partitions >= 1);
        AdaptivePlanner {
            cfg,
            partitions,
            window: VecDeque::new(),
        }
    }

    /// Fold one epoch's samples into the window. Their order must be
    /// deterministic: the harness concatenates the engines' samples in
    /// node-id order.
    pub fn absorb(&mut self, sampled: Vec<TxnTrace>) {
        self.window.push_back(sampled);
        while self.window.len() > self.cfg.window_epochs {
            self.window.pop_front();
        }
    }

    /// Replan over the current window and diff against `dir`. Records in
    /// `in_flight` (migrations still running) are never re-planned.
    pub fn plan(&self, dir: &Directory, in_flight: &HashSet<RecordId>) -> MigrationPlan {
        // Count before copying: an epoch that plans nothing copies nothing.
        if self.window.iter().map(Vec::len).sum::<usize>() < self.cfg.min_window_txns {
            return MigrationPlan::default();
        }
        let txns: Vec<TxnTrace> = self.window.iter().flatten().cloned().collect();

        // Samples are 1-in-k of the real stream: shrink the window span so
        // the model sees true arrival rates.
        let window_ns =
            (self.cfg.epoch.as_nanos() * self.window.len() as u64) / self.cfg.sample_every.max(1);
        let model = ContentionModel::new(self.cfg.lock_window_ns, window_ns.max(1) as f64);
        let mut partitioner = ChillerPartitioner::new(self.partitions, model);
        // Keep every record that has not cooled. The threshold only filters
        // the result after min-cut partitioning, so the layout is the one
        // the hot threshold would give, and a record it drops has cooled.
        partitioner.hot_threshold = self.cfg.cool_threshold.min(self.cfg.hot_threshold);
        partitioner.epsilon = self.cfg.epsilon;
        partitioner.load_metric = LoadMetric::Transactions;
        let part = partitioner.partition(&WorkloadTrace::new(txns, window_ns.max(1)));

        // Desired-hot records, hottest first: likelihoods are sorted
        // descending, so they are the prefix at or above the hot threshold.
        let n_hot = part
            .hot_likelihoods
            .partition_point(|&(_, p)| p >= self.cfg.hot_threshold);
        let hot = &part.hot_likelihoods[..n_hot];
        let relabel = align_labels(
            hot,
            &part.hot_assignments,
            |r| dir.partition_of(r),
            self.partitions,
        );
        let desired: HashMap<RecordId, PartitionId> = hot
            .iter()
            .map(|(r, _)| (*r, relabel[part.hot_assignments[r].idx()]))
            .collect();

        let mut plan = MigrationPlan::default();

        for &(r, _) in hot {
            if in_flight.contains(&r) {
                continue;
            }
            let want = desired[&r];
            let cur = dir.partition_of(r);
            if cur == want {
                if !dir.is_hot(r) {
                    plan.promotions.push((r, cur));
                }
            } else {
                plan.moves.push(RecordMove {
                    record: r,
                    from: cur,
                    to: want,
                    hot_after: true,
                });
            }
        }

        // Currently-hot records that cooled below the demotion threshold.
        for r in dir.hot_snapshot() {
            if !in_flight.contains(&r) && !part.hot_assignments.contains_key(&r) {
                plan.demotions.push(r);
            }
        }

        // Cooled records stranded away from home: migrate them back while
        // the move budget allows, so the lookup table shrinks again.
        for (r, cur) in dir.entries_snapshot() {
            if plan.moves.len() >= self.cfg.max_moves_per_epoch {
                break;
            }
            if in_flight.contains(&r) || desired.contains_key(&r) || dir.is_hot(r) {
                // (still-hot entries were handled above; hot records being
                // demoted this epoch go home in a later epoch)
                continue;
            }
            let home = dir.home_of(r);
            if cur != home {
                plan.moves.push(RecordMove {
                    record: r,
                    from: cur,
                    to: home,
                    hot_after: false,
                });
            }
        }

        plan.moves.truncate(self.cfg.max_moves_per_epoch);
        plan
    }
}

/// Permute the partitioner's arbitrary labels to best match the current
/// locations of the `hot` records (likelihood-weighted greedy matching);
/// `label` holds each one's partition in the new layout. Returns
/// `relabel[new_label] = partition to use instead`.
fn align_labels(
    hot: &[(RecordId, f64)],
    label: &HashMap<RecordId, PartitionId>,
    current: impl Fn(RecordId) -> PartitionId,
    k: u32,
) -> Vec<PartitionId> {
    let k = k as usize;
    // overlap[new][cur] = summed likelihood of records the relabeling
    // new -> cur would keep in place. Accumulate in record order: f64
    // addition is not associative, so the order decides near-tied greedy
    // picks, and `tests/parity.rs`'s adaptive pins fix this one.
    let mut sorted = hot.to_vec();
    sorted.sort_by_key(|&(r, _)| r);
    let mut overlap = vec![vec![0.0f64; k]; k];
    for (r, p) in sorted {
        let (new_label, cur) = (label[&r], current(r));
        if new_label.idx() < k && cur.idx() < k {
            overlap[new_label.idx()][cur.idx()] += p;
        }
    }
    let mut relabel: Vec<Option<PartitionId>> = vec![None; k];
    let mut used = vec![false; k];
    // Greedy: repeatedly take the heaviest unmatched (new, cur) pair.
    for _ in 0..k {
        let mut best: Option<(usize, usize, f64)> = None;
        for (n, row) in overlap.iter().enumerate() {
            if relabel[n].is_some() {
                continue;
            }
            for (c, &w) in row.iter().enumerate() {
                if used[c] {
                    continue;
                }
                if best.map(|(_, _, bw)| w > bw).unwrap_or(true) {
                    best = Some((n, c, w));
                }
            }
        }
        let Some((n, c, _)) = best else { break };
        relabel[n] = Some(PartitionId(c as u32));
        used[c] = true;
    }
    // Any leftover labels (k exhausted) keep remaining partitions in order.
    let mut free = (0..k).filter(|&c| !used[c]);
    relabel
        .into_iter()
        .map(|slot| slot.unwrap_or_else(|| PartitionId(free.next().expect("k slots") as u32)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiller_common::ids::TableId;
    use chiller_common::time::Duration;
    use chiller_storage::placement::HashPlacement;
    use std::sync::Arc;

    fn rid(k: u64) -> RecordId {
        RecordId::new(TableId(1), k)
    }

    fn cfg() -> AdaptiveConfig {
        AdaptiveConfig {
            epoch: Duration::from_millis(2),
            sample_every: 1,
            min_window_txns: 50,
            window_epochs: 2,
            ..AdaptiveConfig::default()
        }
    }

    fn dir() -> Directory {
        Directory::new(Arc::new(HashPlacement::new(4)), [], [])
    }

    /// A hotspot over records `base..base+4`, co-written in pairs, plus
    /// cold uniform traffic.
    fn hot_epoch(base: u64, n: usize) -> Vec<TxnTrace> {
        let mut sampled = Vec::new();
        for i in 0..n {
            let pair = (base + (i as u64 % 2) * 2, base + (i as u64 % 2) * 2 + 1);
            sampled.push(TxnTrace::new(
                vec![rid(10_000 + (i as u64 * 37) % 5_000)],
                vec![rid(pair.0), rid(pair.1)],
            ));
        }
        sampled
    }

    #[test]
    fn thin_data_yields_empty_plan() {
        let mut p = AdaptivePlanner::new(cfg(), 4);
        p.absorb(hot_epoch(0, 10));
        assert!(p.plan(&dir(), &HashSet::new()).is_empty());
    }

    #[test]
    fn detects_hotspot_and_plans_colocation() {
        let mut p = AdaptivePlanner::new(cfg(), 4);
        p.absorb(hot_epoch(0, 400));
        let d = dir();
        let plan = p.plan(&d, &HashSet::new());
        assert!(!plan.is_empty(), "hotspot must produce a plan");
        // Every hot record ends up either promoted in place or moved; the
        // co-written pairs must land on a common partition.
        let mut target: HashMap<RecordId, PartitionId> = HashMap::new();
        for (r, at) in &plan.promotions {
            target.insert(*r, *at);
        }
        for m in &plan.moves {
            assert_ne!(m.from, m.to, "no-op moves must be diffed away");
            assert!(m.hot_after);
            target.insert(m.record, m.to);
        }
        for pair in [(0u64, 1u64), (2, 3)] {
            if let (Some(a), Some(b)) = (target.get(&rid(pair.0)), target.get(&rid(pair.1))) {
                assert_eq!(a, b, "co-written pair split across partitions");
            }
        }
    }

    #[test]
    fn stable_hotspot_converges_to_empty_plan() {
        let mut p = AdaptivePlanner::new(cfg(), 4);
        p.absorb(hot_epoch(0, 400));
        let d = dir();
        let plan = p.plan(&d, &HashSet::new());
        // Apply the plan to the directory (as completed migrations would).
        for (r, at) in &plan.promotions {
            d.promote(*r, *at);
        }
        for m in &plan.moves {
            d.relocate(m.record, m.to, m.hot_after);
        }
        // Same workload again: label alignment must keep the layout.
        p.absorb(hot_epoch(0, 400));
        let plan2 = p.plan(&d, &HashSet::new());
        assert!(
            plan2.moves.is_empty() && plan2.promotions.is_empty(),
            "stable hotspot must not churn: {plan2:?}"
        );
    }

    #[test]
    fn shifted_hotspot_replans_and_old_set_cools() {
        let mut p = AdaptivePlanner::new(cfg(), 4);
        p.absorb(hot_epoch(0, 400));
        let d = dir();
        let plan = p.plan(&d, &HashSet::new());
        for (r, at) in &plan.promotions {
            d.promote(*r, *at);
        }
        for m in &plan.moves {
            d.relocate(m.record, m.to, m.hot_after);
        }
        // The hotspot moves to records 100..104 for two epochs (the old
        // epoch falls out of the window).
        p.absorb(hot_epoch(100, 400));
        p.absorb(hot_epoch(100, 400));
        let plan2 = p.plan(&d, &HashSet::new());
        let planned: HashSet<RecordId> = plan2
            .moves
            .iter()
            .map(|m| m.record)
            .chain(plan2.promotions.iter().map(|(r, _)| *r))
            .collect();
        assert!(
            planned.contains(&rid(100)) || planned.contains(&rid(101)),
            "new hotspot must be planned: {plan2:?}"
        );
        let demoted: HashSet<RecordId> = plan2.demotions.iter().copied().collect();
        assert!(
            demoted.contains(&rid(0)),
            "cooled hotspot must be demoted: {plan2:?}"
        );
    }

    #[test]
    fn in_flight_records_are_skipped() {
        let mut p = AdaptivePlanner::new(cfg(), 4);
        p.absorb(hot_epoch(0, 400));
        let d = dir();
        let all: HashSet<RecordId> = (0..4).map(rid).collect();
        let plan = p.plan(&d, &all);
        for m in &plan.moves {
            assert!(!all.contains(&m.record));
        }
        for (r, _) in &plan.promotions {
            assert!(!all.contains(r));
        }
    }

    #[test]
    fn move_budget_is_respected() {
        let mut c = cfg();
        c.max_moves_per_epoch = 1;
        let mut p = AdaptivePlanner::new(c, 4);
        p.absorb(hot_epoch(0, 400));
        let plan = p.plan(&dir(), &HashSet::new());
        assert!(plan.moves.len() <= 1);
    }

    #[test]
    fn align_labels_prefers_current_locations() {
        // New label 0 holds records currently on partition 2 and vice versa.
        let hot = [(rid(1), 0.9), (rid(2), 0.8)];
        let label = HashMap::from([(rid(1), PartitionId(0)), (rid(2), PartitionId(2))]);
        let current = |r: RecordId| {
            if r == rid(1) {
                PartitionId(2)
            } else {
                PartitionId(0)
            }
        };
        let relabel = align_labels(&hot, &label, current, 4);
        assert_eq!(relabel[0], PartitionId(2));
        assert_eq!(relabel[2], PartitionId(0));
        // Unused labels map to the remaining partitions, each used once.
        let mut all: Vec<u32> = relabel.iter().map(|p| p.0).collect();
        all.sort();
        assert_eq!(all, vec![0, 1, 2, 3]);
    }
}
