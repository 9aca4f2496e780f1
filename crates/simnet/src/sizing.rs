//! Worker-pool sizing: "how parallel is this host?", answered in one
//! place so `RunReport::workers` has one source of truth.

/// Detected host parallelism: `std::thread::available_parallelism`, or 1
/// when the host refuses to say (restricted cgroups, exotic platforms —
/// the conservative answer for sizing decisions).
pub fn detected_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallelism_is_positive() {
        assert!(detected_parallelism() >= 1);
    }
}
