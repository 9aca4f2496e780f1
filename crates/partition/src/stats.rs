//! The sampling statistics service's input (§4.1, first paragraph).
//!
//! Each partition manager samples running transactions and periodically
//! ships the read- and write-sets of the most frequently accessed records to
//! a global statistics service. Here a [`WorkloadTrace`] holds those sampled
//! read/write-sets for a time window; the partitioners count each record's
//! reads and writes into [`RecordStats`] while they index the trace.

use chiller_common::ids::RecordId;

/// One sampled transaction: its read set and write set.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TxnTrace {
    pub reads: Vec<RecordId>,
    pub writes: Vec<RecordId>,
}

impl TxnTrace {
    pub fn new(reads: Vec<RecordId>, writes: Vec<RecordId>) -> Self {
        TxnTrace { reads, writes }
    }

    /// All records the transaction touches (reads ∪ writes, writes first).
    pub fn records(&self) -> impl Iterator<Item = RecordId> + '_ {
        self.writes.iter().chain(self.reads.iter()).copied()
    }

    /// Deduplicated record set (a record both read and written counts once,
    /// as a write).
    pub fn distinct_records(&self) -> Vec<RecordId> {
        let mut v: Vec<RecordId> = self.records().collect();
        v.sort();
        v.dedup();
        v
    }
}

/// A workload trace: sampled transactions covering `window_ns` of run time.
#[derive(Debug, Clone, Default)]
pub struct WorkloadTrace {
    pub txns: Vec<TxnTrace>,
    /// Virtual-time span the trace covers, for rate normalization.
    pub window_ns: u64,
}

impl WorkloadTrace {
    pub fn new(txns: Vec<TxnTrace>, window_ns: u64) -> Self {
        WorkloadTrace { txns, window_ns }
    }
}

/// A record's read and write counts over a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RecordStats {
    pub reads: f64,
    pub writes: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiller_common::ids::TableId;

    fn rid(k: u64) -> RecordId {
        RecordId::new(TableId(1), k)
    }

    #[test]
    fn distinct_records_dedupes() {
        let t = TxnTrace::new(vec![rid(1), rid(2)], vec![rid(2), rid(3)]);
        assert_eq!(t.distinct_records(), vec![rid(1), rid(2), rid(3)]);
    }
}
