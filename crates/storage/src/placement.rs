//! Record placement: which partition owns which record.
//!
//! §4.4 of the paper: only **hot** records get entries in a lookup table;
//! everything else falls back to an orthogonal default partitioner, which
//! "takes almost no lookup-table space". This module provides the hash
//! default and the combined [`LookupTable`] placement; a Schism layout,
//! which needs an entry for every record it traced, is a [`LookupTable`]
//! too (§7.2.2).

use chiller_common::ids::{PartitionId, RecordId};
use std::collections::HashMap;

/// Maps records to their owning partition.
pub trait Placement {
    fn partition_of(&self, record: RecordId) -> PartitionId;

    /// Number of explicit (per-record) entries this placement must store —
    /// the metric of the paper's lookup-table size comparison (§7.2.2).
    fn lookup_entries(&self) -> usize {
        0
    }
}

impl<P: Placement + ?Sized> Placement for std::sync::Arc<P> {
    fn partition_of(&self, record: RecordId) -> PartitionId {
        (**self).partition_of(record)
    }

    fn lookup_entries(&self) -> usize {
        (**self).lookup_entries()
    }
}

/// Hash partitioning on the primary key (the paper's baseline).
#[derive(Debug, Clone)]
pub struct HashPlacement {
    partitions: u32,
}

impl HashPlacement {
    pub fn new(partitions: u32) -> Self {
        assert!(partitions > 0);
        HashPlacement { partitions }
    }

    /// Stateless 64-bit mix (SplitMix64 finalizer); cheap and well spread.
    #[inline]
    fn mix(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl Placement for HashPlacement {
    fn partition_of(&self, record: RecordId) -> PartitionId {
        let h = Self::mix(record.key ^ ((record.table.0 as u64) << 48));
        PartitionId((h % self.partitions as u64) as u32)
    }
}

/// The paper's combined scheme: a small per-record lookup table for hot
/// records plus a default partitioner for everything else (§4.4).
pub struct LookupTable<P: Placement> {
    hot: HashMap<RecordId, PartitionId>,
    default: P,
}

impl<P: Placement> LookupTable<P> {
    pub fn new(default: P) -> Self {
        LookupTable {
            hot: HashMap::new(),
            default,
        }
    }

    pub fn with_entries(
        entries: impl IntoIterator<Item = (RecordId, PartitionId)>,
        default: P,
    ) -> Self {
        LookupTable {
            hot: entries.into_iter().collect(),
            default,
        }
    }

    pub fn insert(&mut self, record: RecordId, partition: PartitionId) {
        self.hot.insert(record, partition);
    }

    pub fn is_hot(&self, record: RecordId) -> bool {
        self.hot.contains_key(&record)
    }

    pub fn hot_entries(&self) -> impl Iterator<Item = (&RecordId, &PartitionId)> {
        self.hot.iter()
    }

    /// Approximate memory footprint in bytes (entry = RecordId + PartitionId).
    pub fn approx_size_bytes(&self) -> usize {
        self.hot.len() * (std::mem::size_of::<RecordId>() + std::mem::size_of::<PartitionId>())
    }
}

impl<P: Placement> Placement for LookupTable<P> {
    fn partition_of(&self, record: RecordId) -> PartitionId {
        match self.hot.get(&record) {
            Some(p) => *p,
            None => self.default.partition_of(record),
        }
    }

    fn lookup_entries(&self) -> usize {
        self.hot.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiller_common::ids::TableId;

    fn rid(t: u16, k: u64) -> RecordId {
        RecordId::new(TableId(t), k)
    }

    #[test]
    fn hash_placement_in_range_and_deterministic() {
        let p = HashPlacement::new(4);
        for k in 0..1000 {
            let a = p.partition_of(rid(1, k));
            assert!(a.0 < 4);
            assert_eq!(a, p.partition_of(rid(1, k)));
        }
    }

    #[test]
    fn hash_placement_spreads_keys() {
        let p = HashPlacement::new(4);
        let mut counts = [0usize; 4];
        for k in 0..10_000 {
            counts[p.partition_of(rid(1, k)).idx()] += 1;
        }
        for c in counts {
            assert!((2_000..3_000).contains(&c), "imbalanced: {counts:?}");
        }
    }

    #[test]
    fn hash_differs_across_tables() {
        let p = HashPlacement::new(16);
        let same_everywhere =
            (0..100).all(|k| p.partition_of(rid(1, k)) == p.partition_of(rid(2, k)));
        assert!(!same_everywhere);
    }

    #[test]
    fn lookup_table_overrides_default_only_for_hot() {
        let mut lt = LookupTable::new(HashPlacement::new(4));
        let hot = rid(1, 42);
        let want = PartitionId(3);
        lt.insert(hot, want);
        assert_eq!(lt.partition_of(hot), want);
        assert!(lt.is_hot(hot));
        assert!(!lt.is_hot(rid(1, 43)));
        assert_eq!(lt.lookup_entries(), 1);
        // Cold records use the hash fallback.
        let cold = rid(1, 7);
        assert_eq!(
            lt.partition_of(cold),
            HashPlacement::new(4).partition_of(cold)
        );
    }

    #[test]
    fn lookup_table_size_accounting() {
        let mut lt = LookupTable::new(HashPlacement::new(2));
        for k in 0..10 {
            lt.insert(rid(1, k), PartitionId(0));
        }
        assert_eq!(lt.approx_size_bytes(), 10 * (16 + 4));
    }
}
