//! What the benchmark records about the machine it ran on: the
//! fingerprint `bench compare` refuses to compare across, and the
//! process's own memory counters.

use serde::json::Value;

/// Host facts that change what a wall-clock number means.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    pub nproc: usize,
    pub detected_parallelism: usize,
    pub kernel: String,
    pub rustc: String,
    /// cpufreq governor of cpu0, when the host exposes one.
    pub governor: Option<String>,
}

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_owned())
}

impl Fingerprint {
    pub fn detect() -> Fingerprint {
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            detected_parallelism: chiller_simnet::sizing::detected_parallelism(),
            kernel: read_trimmed("/proc/sys/kernel/osrelease").unwrap_or_else(|| "unknown".into()),
            rustc: env!("BENCH_RUSTC").to_owned(),
            governor: read_trimmed("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor"),
        }
    }

    /// Fewer cores than worker threads: every wall-clock number then
    /// measures time slicing, not the system.
    pub fn oversubscribed(&self) -> bool {
        self.nproc < crate::workloads::WORKERS
    }

    pub fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("nproc".into(), Value::Num(self.nproc as f64)),
            (
                "detected_parallelism".into(),
                Value::Num(self.detected_parallelism as f64),
            ),
            ("kernel".into(), Value::Str(self.kernel.clone())),
            ("rustc".into(), Value::Str(self.rustc.clone())),
            (
                "governor".into(),
                self.governor.clone().map_or(Value::Null, Value::Str),
            ),
        ])
    }

    pub fn from_json(v: &Value) -> Option<Fingerprint> {
        Some(Fingerprint {
            nproc: v.get("nproc")?.as_f64()? as usize,
            detected_parallelism: v.get("detected_parallelism")?.as_f64()? as usize,
            kernel: v.get("kernel")?.as_str()?.to_owned(),
            rustc: v.get("rustc")?.as_str()?.to_owned(),
            governor: v.get("governor")?.as_str().map(str::to_owned),
        })
    }
}

/// A `kB` field of `/proc/self/status` (0 where the file is missing).
fn status_kb(field: &str) -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Peak resident set of this process so far, KB.
pub fn peak_rss_kb() -> u64 {
    status_kb("VmHWM")
}

/// Current resident set of this process, KB.
pub fn rss_kb() -> u64 {
    status_kb("VmRSS")
}
