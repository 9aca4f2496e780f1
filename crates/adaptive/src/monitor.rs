//! Per-engine transaction sampling: the runtime replacement for the
//! paper's offline sampling service (§4.1).
//!
//! Each engine owns one [`ContentionMonitor`]. Every `sample_every`-th
//! transaction that commits at the engine contributes its read/write-set
//! to the epoch's samples, up to a cap. At each epoch boundary the run
//! harness drains the samples into the planner, which derives every
//! per-record statistic it needs from them; so monitor memory is bounded
//! by the cap, whatever the run's length or the records it touches.

use chiller_common::ids::RecordId;
pub use chiller_partition::stats::TxnTrace;

/// Bounded sampler of committed read/write-sets, owned by one engine.
#[derive(Debug)]
pub struct ContentionMonitor {
    sample_every: u64,
    max_samples: usize,
    commits_seen: u64,
    sampled: Vec<TxnTrace>,
}

impl ContentionMonitor {
    pub fn new(sample_every: u64, max_samples: usize) -> Self {
        ContentionMonitor {
            sample_every: sample_every.max(1),
            max_samples,
            commits_seen: 0,
            sampled: Vec::new(),
        }
    }

    /// A transaction committed at this engine (coordinator side). Every
    /// `sample_every`-th commit contributes its `(reads, writes)` sets to
    /// the epoch's samples, up to the cap. The sets are built lazily, so
    /// the commits not sampled (the vast majority) pay no allocation.
    pub fn on_commit(&mut self, build: impl FnOnce() -> (Vec<RecordId>, Vec<RecordId>)) {
        self.commits_seen += 1;
        if self.commits_seen.is_multiple_of(self.sample_every)
            && self.sampled.len() < self.max_samples
        {
            let (reads, writes) = build();
            self.sampled.push(TxnTrace::new(reads, writes));
        }
    }

    /// Drain the epoch's samples, in commit order.
    pub fn end_epoch(&mut self) -> Vec<TxnTrace> {
        std::mem::take(&mut self.sampled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiller_common::ids::TableId;

    fn rid(k: u64) -> RecordId {
        RecordId::new(TableId(1), k)
    }

    #[test]
    fn samples_every_kth_commit_up_to_cap() {
        let mut m = ContentionMonitor::new(2, 100);
        for i in 0..10 {
            m.on_commit(|| (vec![rid(i)], vec![]));
        }
        let s = m.end_epoch();
        assert_eq!(s.len(), 5, "1-in-2 sampling");
        assert_eq!(
            s[0].reads,
            vec![rid(1)],
            "the 2nd commit is the first sample"
        );
        // A drain empties the buffer.
        assert!(m.end_epoch().is_empty());
        // Cap respected.
        let mut m = ContentionMonitor::new(1, 3);
        for i in 0..10 {
            m.on_commit(|| (vec![], vec![rid(i)]));
        }
        assert_eq!(m.end_epoch().len(), 3);
    }
}
