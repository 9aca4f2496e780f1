//! The `CHILLER_CHECK` knob: off, bounded sliding windows, or full-history.

/// Default window size (committed transactions) for `CHILLER_CHECK=window`.
pub const DEFAULT_CHECK_WINDOW: usize = 1024;

/// How much of the commit order each cycle search covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckMode {
    /// No checking: nothing is recorded, record calls are a single branch.
    Off,
    /// Sliding windows of `n` committed transactions, overlapping by
    /// `n/2`: cycles among transactions committed within `n/2` of each
    /// other are always caught; wider cycles may be missed. Bounds the
    /// cycle search on long histories, not the memory the recorded
    /// history takes (O(history) in every mode).
    Window(usize),
    /// One window over the whole history: complete, O(history) memory.
    Full,
}

impl CheckMode {
    /// Parse `CHILLER_CHECK`: unset/`off`/`0` → `Off`, `window` →
    /// `Window(`[`DEFAULT_CHECK_WINDOW`]`)`, `window=N` → `Window(N)`,
    /// `full`/`1` → `Full`.
    ///
    /// # Panics
    /// On an unrecognized value, so a typo'd knob fails loudly instead of
    /// silently running unchecked (same contract as `CHILLER_TRACE`).
    pub fn from_env() -> CheckMode {
        match std::env::var("CHILLER_CHECK") {
            Err(_) => CheckMode::Off,
            Ok(v) => match v.as_str() {
                "" | "off" | "0" => CheckMode::Off,
                "full" | "1" => CheckMode::Full,
                "window" => CheckMode::Window(DEFAULT_CHECK_WINDOW),
                other => match other.strip_prefix("window=") {
                    Some(n) => CheckMode::Window(
                        n.parse::<usize>()
                            .unwrap_or_else(|_| {
                                panic!("CHILLER_CHECK=window=N needs an integer, got {n:?}")
                            })
                            .max(2),
                    ),
                    None => panic!("CHILLER_CHECK must be off|window|window=N|full, got {other:?}"),
                },
            },
        }
    }

    /// Whether any observations are recorded at all.
    pub fn enabled(self) -> bool {
        !matches!(self, CheckMode::Off)
    }

    /// Short label for reports and bench JSON.
    pub fn label(self) -> &'static str {
        match self {
            CheckMode::Off => "off",
            CheckMode::Window(_) => "window",
            CheckMode::Full => "full",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_enabled() {
        assert!(!CheckMode::Off.enabled());
        assert!(CheckMode::Window(16).enabled());
        assert!(CheckMode::Full.enabled());
        assert_eq!(CheckMode::Off.label(), "off");
        assert_eq!(CheckMode::Window(16).label(), "window");
        assert_eq!(CheckMode::Full.label(), "full");
    }
}
