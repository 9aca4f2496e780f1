//! Metric primitives: log-bucketed latency histograms and labelled counters.
//!
//! The transaction engines record per-transaction latency, per-record
//! contention spans, commit/abort counts per transaction type, and the
//! distributed-transaction ratio. The experiment harness aggregates these
//! into the rows the paper's figures report.

use crate::time::Duration;
use std::collections::BTreeMap;

/// Latency histogram with logarithmic buckets (HdrHistogram-style, base-2
/// buckets with 64 linear sub-buckets), covering 1ns .. ~18s.
///
/// Recording is O(1); quantile queries are O(buckets).
///
/// The sub-bucket count is calibrated for the *wall-clock* range: on the
/// threaded backend committed-transaction latencies sit in the
/// 100µs–100ms decades (scheduler quanta included), where a quantile's
/// relative error is one sub-bucket width — 1/64 ≈ 1.6% here, so a 10ms
/// p99 resolves to ±160µs. The original 16 sub-buckets (6.25%) were fine
/// for the simulator's tightly clustered virtual latencies but made
/// threaded p99s jump in ≥0.6ms steps. Memory cost is ~29KB per
/// histogram, irrelevant at one `MetricSet` per engine.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    max: u64,
    min: u64,
}

const SUB_BUCKETS: usize = 64;
const SUB_BITS: u32 = 6; // log2(SUB_BUCKETS)
const NUM_BUCKETS: usize = (64 - SUB_BITS as usize) * SUB_BUCKETS;

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
            min: u64::MAX,
        }
    }

    #[inline]
    fn bucket_index(value: u64) -> usize {
        let v = value.max(1);
        let msb = 63 - v.leading_zeros();
        if msb < SUB_BITS {
            return v as usize;
        }
        let exp = msb - SUB_BITS;
        let sub = (v >> exp) as usize & (SUB_BUCKETS - 1);
        ((exp + 1) as usize) * SUB_BUCKETS + sub
    }

    /// Representative (upper-bound) value of a bucket index.
    fn bucket_value(index: usize) -> u64 {
        if index < SUB_BUCKETS {
            return index as u64;
        }
        let exp = (index / SUB_BUCKETS - 1) as u32;
        let sub = (index % SUB_BUCKETS) as u64;
        ((SUB_BUCKETS as u64) + sub) << exp
    }

    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.max = self.max.max(value);
        self.min = self.min.min(value);
    }

    #[inline]
    pub fn record_duration(&mut self, d: Duration) {
        self.record(d.as_nanos());
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    pub fn max(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max
        }
    }

    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Approximate quantile (`q` in `[0, 1]`).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::bucket_value(i).min(self.max).max(self.min);
            }
        }
        self.max
    }

    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        self.min = self.min.min(other.min);
    }
}

/// Why a transaction attempt aborted — the structured taxonomy the tracing
/// layer and the per-protocol abort counters share.
///
/// Exactly one reason is recorded per *transient* abort (the aborts the
/// paper's abort-rate figures count); logic aborts (intentional rollbacks)
/// carry no reason. The sum over all reasons therefore equals
/// [`MetricSet::total_aborts`] — a property the test suite pins under all
/// three protocols.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AbortReason {
    /// NO_WAIT lock acquisition hit a conflicting holder (Chiller inner/outer
    /// regions and 2PL both abort rather than wait).
    NoWaitConflict,
    /// OCC backward validation found a conflicting committed writer.
    OccValidation,
    /// The request raced a live record migration: the addressed node had
    /// already migrated the record out, so the attempt must re-route.
    MigrationStaleRoute,
    /// The attempt exceeded its deadline. Reserved: no current protocol path
    /// emits it (the simulated fabric never times out), but socket backends
    /// will.
    Timeout,
}

impl AbortReason {
    /// Every reason, in counter order.
    pub const ALL: [AbortReason; 4] = [
        AbortReason::NoWaitConflict,
        AbortReason::OccValidation,
        AbortReason::MigrationStaleRoute,
        AbortReason::Timeout,
    ];

    /// Stable snake_case label (Prometheus label / JSON field value).
    pub fn label(self) -> &'static str {
        match self {
            AbortReason::NoWaitConflict => "no_wait_conflict",
            AbortReason::OccValidation => "occ_validation",
            AbortReason::MigrationStaleRoute => "migration_stale_route",
            AbortReason::Timeout => "timeout",
        }
    }

    #[inline]
    fn idx(self) -> usize {
        match self {
            AbortReason::NoWaitConflict => 0,
            AbortReason::OccValidation => 1,
            AbortReason::MigrationStaleRoute => 2,
            AbortReason::Timeout => 3,
        }
    }
}

impl std::fmt::Display for AbortReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Per-reason abort counters (one slot per [`AbortReason`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AbortReasons {
    counts: [u64; AbortReason::ALL.len()],
}

impl AbortReasons {
    #[inline]
    pub fn record(&mut self, reason: AbortReason) {
        self.counts[reason.idx()] += 1;
    }

    pub fn get(&self, reason: AbortReason) -> u64 {
        self.counts[reason.idx()]
    }

    /// Total transient aborts across all reasons.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// `(reason, count)` pairs in counter order (including zero counts).
    pub fn iter(&self) -> impl Iterator<Item = (AbortReason, u64)> + '_ {
        AbortReason::ALL.iter().map(|&r| (r, self.counts[r.idx()]))
    }

    pub fn merge(&mut self, other: &AbortReasons) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }
}

/// Commit/abort bookkeeping for one transaction type.
#[derive(Debug, Clone, Default)]
pub struct TxnTypeStats {
    pub commits: u64,
    /// Transient aborts (lock conflict / validation failure), i.e. the aborts
    /// the paper's abort-rate figures count.
    pub aborts: u64,
    /// Final logic aborts (e.g. TPC-C's intentional 1% NewOrder rollbacks);
    /// excluded from contention abort rates.
    pub logic_aborts: u64,
    /// Commits whose execution touched more than one partition.
    pub distributed_commits: u64,
}

impl TxnTypeStats {
    /// Abort rate as defined in the paper: aborts / (aborts + commits).
    pub fn abort_rate(&self) -> f64 {
        let attempts = self.aborts + self.commits;
        if attempts == 0 {
            0.0
        } else {
            self.aborts as f64 / attempts as f64
        }
    }

    pub fn distributed_ratio(&self) -> f64 {
        if self.commits == 0 {
            0.0
        } else {
            self.distributed_commits as f64 / self.commits as f64
        }
    }

    pub fn merge(&mut self, o: &TxnTypeStats) {
        self.commits += o.commits;
        self.aborts += o.aborts;
        self.logic_aborts += o.logic_aborts;
        self.distributed_commits += o.distributed_commits;
    }
}

/// Aggregated run metrics keyed by transaction-type name.
#[derive(Debug, Clone, Default)]
pub struct MetricSet {
    pub per_type: BTreeMap<String, TxnTypeStats>,
    pub latency: Histogram,
    /// Contention span (lock hold time) of records flagged hot.
    pub hot_contention_span: Histogram,
    /// Contention span of all other records.
    pub cold_contention_span: Histogram,
    /// Live record migrations completed by this engine (destination side).
    pub migrations_completed: u64,
    /// Migration attempts that hit a NO_WAIT conflict and were retried.
    pub migration_retries: u64,
    /// Migrations abandoned (retry budget exhausted, drained shutdown, or
    /// the record vanished from the source before the copy).
    pub migrations_abandoned: u64,
    /// Transient aborts broken down by [`AbortReason`]; totals match
    /// [`MetricSet::total_aborts`].
    pub abort_reasons: AbortReasons,
}

impl MetricSet {
    pub fn new() -> Self {
        MetricSet {
            per_type: BTreeMap::new(),
            latency: Histogram::new(),
            hot_contention_span: Histogram::new(),
            cold_contention_span: Histogram::new(),
            migrations_completed: 0,
            migration_retries: 0,
            migrations_abandoned: 0,
            abort_reasons: AbortReasons::default(),
        }
    }

    /// The stats of transaction type `name`, created on first use. Only
    /// that first call allocates the key; every later one is a lookup.
    pub fn type_stats(&mut self, name: &str) -> &mut TxnTypeStats {
        if !self.per_type.contains_key(name) {
            self.per_type
                .insert(name.to_owned(), TxnTypeStats::default());
        }
        self.per_type.get_mut(name).expect("inserted above")
    }

    pub fn total_commits(&self) -> u64 {
        self.per_type.values().map(|s| s.commits).sum()
    }

    pub fn total_aborts(&self) -> u64 {
        self.per_type.values().map(|s| s.aborts).sum()
    }

    pub fn overall_abort_rate(&self) -> f64 {
        let commits = self.total_commits();
        let aborts = self.total_aborts();
        if commits + aborts == 0 {
            0.0
        } else {
            aborts as f64 / (commits + aborts) as f64
        }
    }

    pub fn overall_distributed_ratio(&self) -> f64 {
        let commits = self.total_commits();
        if commits == 0 {
            return 0.0;
        }
        let dist: u64 = self.per_type.values().map(|s| s.distributed_commits).sum();
        dist as f64 / commits as f64
    }

    pub fn merge(&mut self, other: &MetricSet) {
        for (k, v) in &other.per_type {
            self.per_type.entry(k.clone()).or_default().merge(v);
        }
        self.latency.merge(&other.latency);
        self.hot_contention_span.merge(&other.hot_contention_span);
        self.cold_contention_span.merge(&other.cold_contention_span);
        self.migrations_completed += other.migrations_completed;
        self.migration_retries += other.migration_retries;
        self.migrations_abandoned += other.migrations_abandoned;
        self.abort_reasons.merge(&other.abort_reasons);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_basic_stats() {
        let mut h = Histogram::new();
        for v in [10, 20, 30, 40, 50] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.mean(), 30.0);
        assert_eq!(h.min(), 10);
        assert_eq!(h.max(), 50);
    }

    #[test]
    fn histogram_quantiles_within_error() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let p50 = h.p50() as f64;
        assert!((p50 - 5_000.0).abs() / 5_000.0 < 0.08, "p50={p50}");
        let p99 = h.p99() as f64;
        assert!((p99 - 9_900.0).abs() / 9_900.0 < 0.08, "p99={p99}");
    }

    #[test]
    fn histogram_bucket_roundtrip_monotone() {
        let mut last = 0;
        for v in [1u64, 2, 15, 16, 17, 100, 1_000, 123_456, u32::MAX as u64] {
            let idx = Histogram::bucket_index(v);
            assert!(idx >= last, "bucket index must be monotone in value");
            last = idx;
            let rep = Histogram::bucket_value(idx);
            // Representative within one sub-bucket (1/64 relative error).
            assert!(rep as f64 >= v as f64 * 0.98, "v={v} rep={rep}");
            assert!(rep as f64 <= v as f64 * 1.016 + 1.0, "v={v} rep={rep}");
        }
    }

    /// The calibration target: quantiles over the wall-clock decades
    /// (100µs..100ms in ns) must resolve to better than 2% relative
    /// error, so threaded p99s are as readable as simulated ones.
    #[test]
    fn histogram_wall_clock_range_resolves_fine() {
        let mut h = Histogram::new();
        // Uniform spread over 100µs..10ms — the threaded latency band.
        for v in (100_000u64..=10_000_000).step_by(1_000) {
            h.record(v);
        }
        let p99 = h.p99() as f64;
        let expect = 0.99 * (10_000_000.0 - 100_000.0) + 100_000.0;
        assert!(
            (p99 - expect).abs() / expect < 0.02,
            "p99={p99} expect~{expect}"
        );
        let p50 = h.p50() as f64;
        let expect50 = 0.50 * (10_000_000.0 - 100_000.0) + 100_000.0;
        assert!(
            (p50 - expect50).abs() / expect50 < 0.02,
            "p50={p50} expect~{expect50}"
        );
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(5);
        b.record(15);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 5);
        assert_eq!(a.max(), 15);
    }

    #[test]
    fn empty_histogram_is_safe() {
        let h = Histogram::new();
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.max(), 0);
    }

    /// Property test (satellite: quantile accuracy at 64-sub-bucket
    /// resolution): for randomized value sets spanning the nanosecond to
    /// multi-second decades, every queried quantile must land within one
    /// sub-bucket (1/64 ≈ 1.6%, plus rounding slack) of the exact answer
    /// computed from a sorted reference vector.
    #[test]
    fn histogram_quantiles_match_sorted_reference() {
        use rand::Rng;
        for seed in 0..16u64 {
            let mut rng = crate::rng::seeded(0x4157_0612 ^ seed);
            // Mix of decades: exercise low raw buckets, the wall-clock band,
            // and large outliers in the same histogram.
            let n = rng.gen_range(100usize..4_000);
            let mut values = Vec::with_capacity(n);
            let mut h = Histogram::new();
            for _ in 0..n {
                let decade = rng.gen_range(0u32..10);
                let base = 10u64.pow(decade);
                let v = rng.gen_range(base..base.saturating_mul(10).max(base + 1));
                values.push(v);
                h.record(v);
            }
            values.sort_unstable();
            for &q in &[0.0, 0.01, 0.10, 0.25, 0.50, 0.75, 0.90, 0.99, 0.999, 1.0] {
                let target = ((q * n as f64).ceil() as usize).clamp(1, n);
                let exact = values[target - 1] as f64;
                let approx = h.quantile(q) as f64;
                // One sub-bucket of relative error plus 1 for integer rounding.
                let tol = exact / SUB_BUCKETS as f64 + 1.0;
                assert!(
                    (approx - exact).abs() <= tol,
                    "seed={seed} q={q} exact={exact} approx={approx} tol={tol}"
                );
            }
        }
    }

    #[test]
    fn abort_reasons_record_and_total() {
        let mut r = AbortReasons::default();
        r.record(AbortReason::NoWaitConflict);
        r.record(AbortReason::NoWaitConflict);
        r.record(AbortReason::OccValidation);
        r.record(AbortReason::MigrationStaleRoute);
        assert_eq!(r.get(AbortReason::NoWaitConflict), 2);
        assert_eq!(r.get(AbortReason::OccValidation), 1);
        assert_eq!(r.get(AbortReason::Timeout), 0);
        assert_eq!(r.total(), 4);

        let mut other = AbortReasons::default();
        other.record(AbortReason::Timeout);
        r.merge(&other);
        assert_eq!(r.total(), 5);
        assert_eq!(r.get(AbortReason::Timeout), 1);

        let labels: Vec<&str> = r.iter().map(|(reason, _)| reason.label()).collect();
        assert_eq!(
            labels,
            [
                "no_wait_conflict",
                "occ_validation",
                "migration_stale_route",
                "timeout"
            ]
        );
    }

    #[test]
    fn metric_set_merges_abort_reasons() {
        let mut a = MetricSet::new();
        a.abort_reasons.record(AbortReason::NoWaitConflict);
        let mut b = MetricSet::new();
        b.abort_reasons.record(AbortReason::OccValidation);
        a.merge(&b);
        assert_eq!(a.abort_reasons.total(), 2);
    }

    #[test]
    fn txn_stats_rates() {
        let s = TxnTypeStats {
            commits: 75,
            aborts: 25,
            logic_aborts: 3,
            distributed_commits: 15,
        };
        assert!((s.abort_rate() - 0.25).abs() < 1e-12);
        assert!((s.distributed_ratio() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn type_stats_returns_one_entry_per_name() {
        let mut m = MetricSet::new();
        m.type_stats("Payment").commits += 1;
        m.type_stats("Payment").commits += 1;
        m.type_stats("Payment").aborts += 1;
        assert_eq!(m.per_type.len(), 1);
        assert_eq!(m.per_type["Payment"].commits, 2);
        assert_eq!(m.per_type["Payment"].aborts, 1);
    }

    #[test]
    fn metric_set_aggregation() {
        let mut m = MetricSet::new();
        m.type_stats("NewOrder").commits = 10;
        m.type_stats("NewOrder").aborts = 10;
        m.type_stats("Payment").commits = 30;
        assert_eq!(m.total_commits(), 40);
        assert!((m.overall_abort_rate() - 0.2).abs() < 1e-12);

        let mut other = MetricSet::new();
        other.type_stats("Payment").commits = 5;
        m.merge(&other);
        assert_eq!(m.per_type["Payment"].commits, 35);
    }
}
