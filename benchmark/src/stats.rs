//! The two statistics the benchmark reports.

/// Median of `values` (mean of the two middle values for an even
/// count); 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Quantile `q` of an ascending-sorted slice (nearest rank); 0 when empty.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Quantile `q` of a latency histogram, linearly interpolated inside
/// the bucket it falls in.
///
/// `Histogram::quantile` answers with a bucket's lower bound, and
/// buckets are 1/64 of a power of two wide (1.6%): two runs whose true
/// medians differ by less than that read exactly the same. The bucket's
/// cumulative shares (found by bisecting `q` through the public
/// `quantile`) place the quantile inside the bucket instead.
pub fn interpolated_quantile(h: &chiller_common::metrics::Histogram, q: f64) -> f64 {
    if h.is_empty() {
        return 0.0;
    }
    let at = h.quantile(q);
    // Bucket geometry: below 64 buckets are 1 wide; above, 64 per octave.
    let exp = (63 - at.max(1).leading_zeros()).saturating_sub(6);
    let lower = (at >> exp) << exp;
    let width = (1u64 << exp) as f64;
    // Largest share whose quantile still satisfies `below`.
    let share_where = |below: &dyn Fn(u64) -> bool| {
        let (mut lo, mut hi) = (0.0f64, 1.0f64);
        for _ in 0..40 {
            let mid = (lo + hi) / 2.0;
            if below(h.quantile(mid)) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    };
    let before = share_where(&|v| v < at);
    let through = share_where(&|v| v <= at);
    if through <= before {
        return lower as f64;
    }
    let inside = ((q - before) / (through - before)).clamp(0.0, 1.0);
    lower as f64 + width * inside
}
