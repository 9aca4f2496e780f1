//! The check mode: off, or the whole history.

/// Whether recorded histories are checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckMode {
    /// No checking: nothing is recorded, record calls are a single branch.
    Off,
    /// Every committed transaction is recorded and the whole history is
    /// searched for dependency cycles: complete, O(history) memory.
    Full,
}

impl CheckMode {
    /// Whether any observations are recorded at all.
    pub fn enabled(self) -> bool {
        !matches!(self, CheckMode::Off)
    }

    /// Short label for reports and bench JSON.
    pub fn label(self) -> &'static str {
        match self {
            CheckMode::Off => "off",
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
        assert!(CheckMode::Full.enabled());
        assert_eq!(CheckMode::Off.label(), "off");
        assert_eq!(CheckMode::Full.label(), "full");
    }
}
