//! Worker-pool sizing: "how parallel is this host?" and "how many
//! workers should a pool of `n` engines get?", answered in one place so
//! `RunReport::workers` has one source of truth.

/// Detected host parallelism: `std::thread::available_parallelism`, or 1
/// when the host refuses to say (restricted cgroups, exotic platforms —
/// the conservative answer for sizing decisions).
pub fn detected_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// Worker-pool size of the async backend for `engines` engines:
/// `CHILLER_WORKERS` when set (panics on an unparsable or zero value —
/// silently mis-sizing the pool would poison every scaling number),
/// otherwise the detected parallelism; either way clamped to
/// `1..=engines` (a pool larger than the engine count would only park).
pub fn async_workers(engines: usize) -> usize {
    let requested = match std::env::var("CHILLER_WORKERS") {
        Ok(v) => match v.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => panic!("CHILLER_WORKERS must be a positive integer, got `{v}`"),
        },
        Err(_) => detected_parallelism(),
    };
    requested.clamp(1, engines.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn async_clamps_to_engine_count() {
        // Whatever the host parallelism, a 1-engine cluster gets 1 worker.
        if std::env::var("CHILLER_WORKERS").is_err() {
            assert_eq!(async_workers(1), 1);
            let w = async_workers(1_000);
            assert!((1..=1_000).contains(&w));
            assert_eq!(w, detected_parallelism().min(1_000));
        }
    }

    #[test]
    fn parallelism_is_positive() {
        assert!(detected_parallelism() >= 1);
    }
}
