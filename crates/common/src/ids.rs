//! Strongly-typed identifiers used across the workspace.
//!
//! All identifiers are thin newtypes over integers so they are `Copy`, hash
//! fast, and cannot be confused with one another at API boundaries.

use std::fmt;

/// Identifies a physical server (simulated machine) in the cluster.
///
/// In the NAM-DB style deployment each node hosts exactly one primary
/// partition and one execution engine (the paper pins one engine thread per
/// core and, in the partitioning experiments, one core per machine).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// Identifies a logical data partition.
///
/// Partition `p`'s primary copy lives on node `p` in the default topology;
/// replicas are placed on the following nodes (mod cluster size).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PartitionId(pub u32);

/// Identifies a table within the database schema.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TableId(pub u16);

/// Globally-unique transaction identifier.
///
/// Encodes the originating node in the upper bits and a locally increasing
/// sequence number in the lower bits so coordinators can mint ids without
/// coordination — mirroring how the paper derives unique message ids by
/// concatenating a partition id with a local counter (§5).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxnId(pub u64);

/// Identifies one operation within a stored procedure (index into the
/// procedure's operation list; also the node id in the dependency graph).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OpId(pub u16);

/// Fully-qualified record identifier: table + primary key.
///
/// Primary keys are 64-bit; composite keys are packed by the schema layer
/// (e.g. TPC-C `(w_id, d_id, c_id)` packs into bit-fields). Packing keeps
/// records `Copy` and makes the hot-record lookup table a flat hash map.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RecordId {
    pub table: TableId,
    pub key: u64,
}

impl NodeId {
    /// Index usable for `Vec`-based node tables.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl PartitionId {
    /// Index usable for `Vec`-based partition tables.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl TxnId {
    const NODE_SHIFT: u32 = 40;

    /// Mint a transaction id unique across the cluster: the upper 24 bits
    /// carry the coordinator node, the lower 40 bits a local sequence.
    #[inline]
    pub fn new(node: NodeId, seq: u64) -> Self {
        debug_assert!(seq < (1 << Self::NODE_SHIFT));
        TxnId(((node.0 as u64) << Self::NODE_SHIFT) | seq)
    }

    /// The node that coordinates this transaction.
    #[inline]
    pub fn coordinator(self) -> NodeId {
        NodeId((self.0 >> Self::NODE_SHIFT) as u32)
    }

    /// The coordinator-local sequence number.
    #[inline]
    pub fn seq(self) -> u64 {
        self.0 & ((1 << Self::NODE_SHIFT) - 1)
    }
}

impl RecordId {
    #[inline]
    pub fn new(table: TableId, key: u64) -> Self {
        RecordId { table, key }
    }
}

impl OpId {
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

macro_rules! impl_debug_display {
    ($ty:ident, $prefix:expr) => {
        impl fmt::Debug for $ty {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
        impl fmt::Display for $ty {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::Debug::fmt(self, f)
            }
        }
    };
}

impl_debug_display!(NodeId, "n");
impl_debug_display!(PartitionId, "p");
impl_debug_display!(TableId, "tbl");
impl_debug_display!(OpId, "op");

impl fmt::Debug for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "txn{}.{}", self.coordinator().0, self.seq())
    }
}

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl fmt::Debug for RecordId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.table, self.key)
    }
}

impl fmt::Display for RecordId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn txn_id_roundtrips_node_and_seq() {
        let id = TxnId::new(NodeId(7), 123_456);
        assert_eq!(id.coordinator(), NodeId(7));
        assert_eq!(id.seq(), 123_456);
    }

    #[test]
    fn txn_id_distinct_across_nodes() {
        let a = TxnId::new(NodeId(1), 5);
        let b = TxnId::new(NodeId(2), 5);
        assert_ne!(a, b);
    }

    #[test]
    fn txn_id_max_seq_supported() {
        let seq = (1u64 << 40) - 1;
        let id = TxnId::new(NodeId(u32::MAX >> 8), seq);
        assert_eq!(id.seq(), seq);
    }

    #[test]
    fn record_id_ordering_groups_by_table() {
        let a = RecordId::new(TableId(1), 999);
        let b = RecordId::new(TableId(2), 0);
        assert!(a < b);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", NodeId(3)), "n3");
        assert_eq!(format!("{}", PartitionId(4)), "p4");
        assert_eq!(format!("{}", TxnId::new(NodeId(2), 9)), "txn2.9");
        assert_eq!(format!("{}", RecordId::new(TableId(1), 42)), "tbl1#42");
    }
}
