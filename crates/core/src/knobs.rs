//! The `CHILLER_*` environment knobs, read once per
//! [`ClusterBuilder::build`](crate::ClusterBuilder::build). Builder setters
//! win over every knob; an unset knob keeps the built-in default. Every
//! parse is loud: a typo'd or zero value panics instead of silently
//! running the wrong configuration.

use chiller_checker::CheckMode;
use chiller_obs::{TraceMode, DEFAULT_TRACE_BUF};
use std::path::PathBuf;

/// Every `CHILLER_*` knob, parsed.
#[derive(Debug, PartialEq)]
pub(crate) struct Knobs {
    /// `CHILLER_TRACE=off|full` (unset: off).
    pub trace: TraceMode,
    /// `CHILLER_TRACE_BUF=<n>`: per-engine trace log cap between drains.
    pub trace_buf: usize,
    /// `CHILLER_CHECK=off|full` (unset: off).
    pub check: CheckMode,
    /// `CHILLER_WORKERS=<n>`: the async backend's pool size.
    pub workers: Option<usize>,
    /// `CHILLER_WAL=<dir>`: make the cluster durable under `dir`.
    pub wal: Option<PathBuf>,
    /// `CHILLER_FSYNC_BATCH=<n>`: the group-commit batch.
    pub fsync_batch: Option<u64>,
}

impl Knobs {
    /// Read the knobs from the process environment.
    pub(crate) fn from_env() -> Knobs {
        Knobs::parse(|name| std::env::var(name).ok())
    }

    /// Parse the knobs from `lookup`, which returns a variable's value or
    /// `None` when it is unset.
    ///
    /// # Panics
    /// On any value the knob does not accept.
    pub(crate) fn parse(lookup: impl Fn(&str) -> Option<String>) -> Knobs {
        let on = |name| lookup(name).is_some_and(|v| parse_on_off(name, &v));
        let positive = |name| lookup(name).map(|v| parse_positive(name, &v));
        Knobs {
            trace: if on("CHILLER_TRACE") {
                TraceMode::Full
            } else {
                TraceMode::Off
            },
            trace_buf: positive("CHILLER_TRACE_BUF").unwrap_or(DEFAULT_TRACE_BUF),
            check: if on("CHILLER_CHECK") {
                CheckMode::Full
            } else {
                CheckMode::Off
            },
            workers: positive("CHILLER_WORKERS"),
            wal: lookup("CHILLER_WAL").map(|v| {
                assert!(
                    !v.trim().is_empty(),
                    "CHILLER_WAL must name a directory, got an empty value \
                     (unset it to disable durability)"
                );
                PathBuf::from(v)
            }),
            fsync_batch: positive("CHILLER_FSYNC_BATCH").map(|n| n as u64),
        }
    }
}

/// `""`, `off` and `0` are off; `full` and `1` are on.
fn parse_on_off(name: &str, v: &str) -> bool {
    match v {
        "" | "off" | "0" => false,
        "full" | "1" => true,
        other => panic!("{name} must be off|full, got {other:?}"),
    }
}

fn parse_positive(name: &str, v: &str) -> usize {
    match v.trim().parse::<usize>() {
        Ok(n) if n > 0 => n,
        _ => panic!("{name} must be a positive integer, got {v:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn parse(vars: &[(&str, &str)]) -> Knobs {
        Knobs::parse(|name| {
            vars.iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| v.to_string())
        })
    }

    fn unset() -> Knobs {
        Knobs {
            trace: TraceMode::Off,
            trace_buf: DEFAULT_TRACE_BUF,
            check: CheckMode::Off,
            workers: None,
            wal: None,
            fsync_batch: None,
        }
    }

    /// Each knob's accepted values, and every value it must reject with
    /// the panic text that names it.
    #[test]
    fn each_knob_accepts_its_grammar_and_rejects_the_rest_loudly() {
        assert_eq!(parse(&[]), unset());
        let full_trace = || Knobs {
            trace: TraceMode::Full,
            ..unset()
        };
        let full_check = || Knobs {
            check: CheckMode::Full,
            ..unset()
        };
        let accepted = [
            ("CHILLER_TRACE", "", unset()),
            ("CHILLER_TRACE", "off", unset()),
            ("CHILLER_TRACE", "0", unset()),
            ("CHILLER_TRACE", "full", full_trace()),
            ("CHILLER_TRACE", "1", full_trace()),
            ("CHILLER_CHECK", "off", unset()),
            ("CHILLER_CHECK", "0", unset()),
            ("CHILLER_CHECK", "full", full_check()),
            ("CHILLER_CHECK", "1", full_check()),
            (
                "CHILLER_TRACE_BUF",
                "4096",
                Knobs {
                    trace_buf: 4096,
                    ..unset()
                },
            ),
            (
                "CHILLER_WORKERS",
                "3",
                Knobs {
                    workers: Some(3),
                    ..unset()
                },
            ),
            (
                "CHILLER_WAL",
                "/data/wal",
                Knobs {
                    wal: Some(PathBuf::from("/data/wal")),
                    ..unset()
                },
            ),
            (
                "CHILLER_FSYNC_BATCH",
                " 32 ",
                Knobs {
                    fsync_batch: Some(32),
                    ..unset()
                },
            ),
        ];
        for (name, value, want) in accepted {
            assert_eq!(parse(&[(name, value)]), want, "{name}={value:?}");
        }

        let rejected = [
            ("CHILLER_TRACE", "sample", "CHILLER_TRACE must be off|full"),
            (
                "CHILLER_TRACE",
                "sample=8",
                "CHILLER_TRACE must be off|full",
            ),
            ("CHILLER_TRACE", "on", "CHILLER_TRACE must be off|full"),
            ("CHILLER_CHECK", "window", "CHILLER_CHECK must be off|full"),
            (
                "CHILLER_CHECK",
                "window=64",
                "CHILLER_CHECK must be off|full",
            ),
            (
                "CHILLER_TRACE_BUF",
                "0",
                "CHILLER_TRACE_BUF must be a positive integer",
            ),
            (
                "CHILLER_TRACE_BUF",
                "big",
                "CHILLER_TRACE_BUF must be a positive integer",
            ),
            (
                "CHILLER_WORKERS",
                "0",
                "CHILLER_WORKERS must be a positive integer",
            ),
            (
                "CHILLER_WORKERS",
                "-2",
                "CHILLER_WORKERS must be a positive integer",
            ),
            ("CHILLER_WAL", "", "CHILLER_WAL must name a directory"),
            ("CHILLER_WAL", "  ", "CHILLER_WAL must name a directory"),
            (
                "CHILLER_FSYNC_BATCH",
                "0",
                "CHILLER_FSYNC_BATCH must be a positive integer",
            ),
            (
                "CHILLER_FSYNC_BATCH",
                "x",
                "CHILLER_FSYNC_BATCH must be a positive integer",
            ),
        ];
        for (name, value, text) in rejected {
            let err = catch_unwind(AssertUnwindSafe(|| parse(&[(name, value)])))
                .expect_err(&format!("{name}={value:?} must be rejected"));
            let msg = err
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            assert!(
                msg.contains(text),
                "{name}={value:?}: panicked with {msg:?}"
            );
        }
    }
}
