//! The run-time region decision (§3.3 steps 1–2).
//!
//! Given a transaction instance (procedure + resolved parameters), the
//! partition of every operation's record (from the placement/lookup table)
//! and per-operation hotness (from the hot-record lookup table), decide:
//!
//! 1. whether to run as a **two-region** transaction at all,
//! 2. which partition is the **inner host**, and
//! 3. which operations execute in the inner vs the outer region.
//!
//! A hot record `h` is an inner-region candidate only if (a) no op's key
//! depends on `h`, or (b) every pk-child of `h` is on the same partition as
//! `h` (§3.3 step 1). The same legality condition is applied transitively to
//! every op moved into the inner region: an op whose pk-child must be locked
//! elsewhere cannot be postponed, otherwise that child's lock could not be
//! acquired before the inner region commits — and the inner host would no
//! longer hold the sole commit decision.

use crate::op::Procedure;
use chiller_common::ids::{OpId, PartitionId};
use std::collections::HashMap;

/// Where a guard predicate is evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuardSite {
    /// All inputs available in the outer region: evaluated by the
    /// coordinator before the inner RPC is sent.
    Outer,
    /// Depends on at least one inner output: evaluated by the inner host,
    /// which folds it into its unilateral commit/abort decision.
    Inner,
}

/// Result of the region decision for one transaction instance.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RegionSplit {
    /// `None` ⇒ run as a normal (single-region, 2PC) transaction.
    pub inner_host: Option<PartitionId>,
    /// Ops executed by the inner host, in procedure order.
    pub inner_ops: Vec<OpId>,
    /// Ops executed by the coordinator in the outer region, in order.
    pub outer_ops: Vec<OpId>,
    /// Evaluation site of each guard (parallel to `procedure.guards`).
    pub guard_sites: Vec<GuardSite>,
}

impl RegionSplit {
    pub fn is_two_region(&self) -> bool {
        self.inner_host.is_some()
    }

    /// A split that runs every op in the outer region (normal execution).
    pub fn all_outer(proc_: &Procedure) -> RegionSplit {
        RegionSplit {
            inner_host: None,
            inner_ops: Vec::new(),
            outer_ops: (0..proc_.ops.len() as u16).map(OpId).collect(),
            guard_sites: vec![GuardSite::Outer; proc_.guards.len()],
        }
    }
}

/// Decide the regions for one transaction instance.
///
/// * `op_partition[i]` — partition of op `i`'s record, or `None` when the
///   key is computed and no home hint resolves it at decision time.
/// * `op_hot[i]` — whether op `i`'s record is in the hot lookup table.
pub fn decide_regions(
    proc_: &Procedure,
    op_partition: &[Option<PartitionId>],
    op_hot: &[bool],
) -> RegionSplit {
    let n = proc_.ops.len();
    debug_assert_eq!(op_partition.len(), n);
    debug_assert_eq!(op_hot.len(), n);

    if !op_hot.iter().any(|&h| h) {
        return RegionSplit::all_outer(proc_);
    }

    // legality[i] = true iff op i *and all its pk-descendants* live on
    // op i's own partition. Computed in reverse op order: validation
    // guarantees pk-children have higher indices than their parents.
    let mut self_consistent = vec![false; n];
    for i in (0..n).rev() {
        let Some(p) = op_partition[i] else {
            continue; // unknown location can never be moved inner
        };
        self_consistent[i] = proc_.graph.pk_children[i]
            .iter()
            .all(|c| op_partition[c.idx()] == Some(p) && self_consistent[c.idx()]);
    }

    // Step 1: candidate hot records, grouped by their partition.
    let mut hot_per_partition: HashMap<PartitionId, usize> = HashMap::new();
    for i in 0..n {
        if op_hot[i] && self_consistent[i] {
            let p = op_partition[i].expect("self_consistent implies known partition");
            *hot_per_partition.entry(p).or_insert(0) += 1;
        }
    }
    if hot_per_partition.is_empty() {
        // Hot records exist but none is movable: run normally.
        return RegionSplit::all_outer(proc_);
    }

    // Step 2: inner host = candidate partition with the most hot records
    // (§3.3); ties broken by lowest partition id for determinism.
    let inner_host = *hot_per_partition
        .iter()
        .max_by_key(|(p, count)| (**count, std::cmp::Reverse(p.0)))
        .map(|(p, _)| p)
        .expect("non-empty");

    // Inner ops: every op on the inner host whose pk-descendant closure
    // stays on the inner host (Figure 5c: r-vertices in the t-vertex's
    // partition run in the inner region).
    let mut inner_ops = Vec::new();
    let mut outer_ops = Vec::new();
    let mut is_inner = vec![false; n];
    for i in 0..n {
        if op_partition[i] == Some(inner_host) && self_consistent[i] {
            inner_ops.push(OpId(i as u16));
            is_inner[i] = true;
        } else {
            outer_ops.push(OpId(i as u16));
        }
    }

    let guard_sites = proc_
        .guards
        .iter()
        .map(|g| {
            if g.deps.iter().any(|d| is_inner[d.idx()]) {
                GuardSite::Inner
            } else {
                GuardSite::Outer
            }
        })
        .collect();

    RegionSplit {
        inner_host: Some(inner_host),
        inner_ops,
        outer_ops,
        guard_sites,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProcedureBuilder;
    use chiller_common::ids::TableId;

    /// Paper t3 (Figure 2a): read/write r5, r4, r1 — r4 and r1 hot,
    /// co-located on one partition.
    fn t3() -> Procedure {
        ProcedureBuilder::new("t3")
            .update(TableId(1), 0, "r5", |row, _| row.clone())
            .update(TableId(1), 1, "r4", |row, _| row.clone())
            .update(TableId(1), 2, "r1", |row, _| row.clone())
            .build()
            .unwrap()
    }

    fn p(id: u32) -> Option<PartitionId> {
        Some(PartitionId(id))
    }

    #[test]
    fn all_cold_runs_normally() {
        let pr = t3();
        let split = decide_regions(&pr, &[p(0), p(1), p(1)], &[false, false, false]);
        assert!(!split.is_two_region());
        assert_eq!(split.outer_ops.len(), 3);
    }

    #[test]
    fn colocated_hot_records_form_inner_region() {
        let pr = t3();
        // r5 on partition 0 (cold); r4, r1 hot on partition 2.
        let split = decide_regions(&pr, &[p(0), p(2), p(2)], &[false, true, true]);
        assert_eq!(split.inner_host, Some(PartitionId(2)));
        assert_eq!(split.inner_ops, vec![OpId(1), OpId(2)]);
        assert_eq!(split.outer_ops, vec![OpId(0)]);
    }

    #[test]
    fn host_chosen_by_most_hot_records() {
        let pr = t3();
        // One hot record on partition 0, two hot... here: ops 1,2 hot on
        // partition 2, op 0 hot on partition 0 → host must be partition 2.
        let split = decide_regions(&pr, &[p(0), p(2), p(2)], &[true, true, true]);
        assert_eq!(split.inner_host, Some(PartitionId(2)));
        // The hot op on partition 0 stays outer.
        assert_eq!(split.outer_ops, vec![OpId(0)]);
    }

    #[test]
    fn tie_breaks_to_lowest_partition() {
        let pr = t3();
        let split = decide_regions(&pr, &[p(3), p(1), p(0)], &[false, true, true]);
        assert_eq!(split.inner_host, Some(PartitionId(0)));
    }

    #[test]
    fn scattered_hot_cold_op_on_host_joins_inner() {
        let pr = t3();
        // Cold r5 shares partition 2 with hot r1: it rides along inner.
        let split = decide_regions(&pr, &[p(2), p(0), p(2)], &[false, false, true]);
        assert_eq!(split.inner_host, Some(PartitionId(2)));
        assert_eq!(split.inner_ops, vec![OpId(0), OpId(2)]);
        assert_eq!(split.outer_ops, vec![OpId(1)]);
    }

    /// Figure 4's constraint: a hot record whose pk-child lives on a
    /// different partition cannot move to the inner region.
    #[test]
    fn pk_child_on_other_partition_blocks_inner() {
        let pr = ProcedureBuilder::new("flightish")
            .read_for_update(TableId(1), 0, "flight")
            .insert_with_key_from(
                TableId(2),
                &[OpId(0)],
                "seat",
                |st| st.output_req(OpId(0))[0].as_i64() as u64,
                |_| vec![],
            )
            .build()
            .unwrap();
        // flight hot on partition 1; insert lands on partition 0.
        let split = decide_regions(&pr, &[p(1), p(0)], &[true, false]);
        assert!(!split.is_two_region(), "must fall back to normal execution");

        // Same procedure, child co-located: inner region allowed and the
        // dependent insert rides along.
        let split = decide_regions(&pr, &[p(1), p(1)], &[true, false]);
        assert_eq!(split.inner_host, Some(PartitionId(1)));
        assert_eq!(split.inner_ops, vec![OpId(0), OpId(1)]);
    }

    #[test]
    fn pk_child_with_unknown_location_blocks_inner() {
        let pr = ProcedureBuilder::new("unknown_child")
            .read_for_update(TableId(1), 0, "parent")
            .insert_with_key_from(
                TableId(2),
                &[OpId(0)],
                "child",
                |st| st.output_req(OpId(0))[0].as_i64() as u64,
                |_| vec![],
            )
            .build()
            .unwrap();
        let split = decide_regions(&pr, &[p(1), None], &[true, false]);
        assert!(!split.is_two_region());
    }

    #[test]
    fn guard_site_follows_deps() {
        let pr = ProcedureBuilder::new("guarded")
            .read(TableId(1), 0, "cold")
            .read_for_update(TableId(1), 1, "hot")
            .guard(&[OpId(0)], "outer_guard", |_| Ok(()))
            .guard(&[OpId(0), OpId(1)], "mixed_guard", |_| Ok(()))
            .build()
            .unwrap();
        let split = decide_regions(&pr, &[p(0), p(1)], &[false, true]);
        assert_eq!(split.guard_sites, vec![GuardSite::Outer, GuardSite::Inner]);
    }

    #[test]
    fn transitive_pk_chain_must_stay_on_host() {
        // a -> b -> c (by key); a hot on p1, b on p1, c on p0:
        // b's child c leaves the partition, so neither a nor b can be inner.
        let pr = ProcedureBuilder::new("chain")
            .read_for_update(TableId(1), 0, "a")
            .read_with_key_from(TableId(1), &[OpId(0)], "b", |st| {
                st.output_req(OpId(0))[0].as_i64() as u64
            })
            .read_with_key_from(TableId(1), &[OpId(1)], "c", |st| {
                st.output_req(OpId(1))[0].as_i64() as u64
            })
            .build()
            .unwrap();
        let split = decide_regions(&pr, &[p(1), p(1), p(0)], &[true, false, false]);
        assert!(!split.is_two_region());
    }
}
