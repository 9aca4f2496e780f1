//! Result files: what one pass of one workload measured, what a whole
//! run of the benchmark measured, and the comparison of two runs
//! against the catalogue's bounds.

use crate::catalogue::{self, Better, END_TO_END};
use crate::gate::Outcome;
use crate::host::Fingerprint;
use serde::json::{parse, render, Value};
use std::path::Path;

/// One pass of one workload, as stored and compared.
#[derive(Clone)]
pub struct PassResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Wall seconds of the whole child process (set by the driver).
    pub wall_s: f64,
    pub metrics: Vec<(String, f64)>,
}

fn num(v: f64) -> Value {
    // JSON has no NaN/inf; a metric that degenerate is a bug to surface.
    assert!(v.is_finite(), "non-finite metric value {v}");
    Value::Num(v)
}

impl PassResult {
    pub fn of(outcome: &Outcome) -> PassResult {
        PassResult {
            correct: outcome.correct,
            attempted: outcome.attempted,
            failed: outcome.failed,
            wall_s: 0.0,
            metrics: outcome
                .metrics
                .iter()
                .map(|(k, v)| ((*k).to_owned(), *v))
                .collect(),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }

    pub fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("correct".into(), Value::Bool(self.correct)),
            ("attempted".into(), num(self.attempted as f64)),
            ("failed".into(), num(self.failed as f64)),
            ("wall_s".into(), num(self.wall_s)),
            (
                "metrics".into(),
                Value::Obj(
                    self.metrics
                        .iter()
                        .map(|(k, v)| (k.clone(), num(*v)))
                        .collect(),
                ),
            ),
        ])
    }

    pub fn from_json(v: &Value) -> Option<PassResult> {
        Some(PassResult {
            correct: v.get("correct")?.as_bool()?,
            attempted: v.get("attempted")?.as_f64()? as u64,
            failed: v.get("failed")?.as_f64()? as u64,
            wall_s: v.get("wall_s")?.as_f64()?,
            metrics: v
                .get("metrics")?
                .as_object()?
                .iter()
                .map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect::<Option<_>>()?,
        })
    }
}

/// Both passes of one workload.
pub struct WorkloadResult {
    pub name: String,
    pub e2e: PassResult,
    pub traced: PassResult,
}

/// One whole run of the benchmark.
pub struct RunSet {
    pub seed: u64,
    pub host: Fingerprint,
    pub total_wall_s: f64,
    pub workloads: Vec<WorkloadResult>,
    /// The workload-independent probes, run once.
    pub probes: PassResult,
}

impl RunSet {
    pub fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("seed".into(), num(self.seed as f64)),
            ("host".into(), self.host.to_json()),
            (
                "oversubscribed".into(),
                Value::Bool(self.host.oversubscribed()),
            ),
            ("total_wall_s".into(), num(self.total_wall_s)),
            (
                "workloads".into(),
                Value::Arr(
                    self.workloads
                        .iter()
                        .map(|w| {
                            Value::Obj(vec![
                                ("name".into(), Value::Str(w.name.clone())),
                                ("e2e".into(), w.e2e.to_json()),
                                ("traced".into(), w.traced.to_json()),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("probes".into(), self.probes.to_json()),
        ])
    }

    pub fn from_json(v: &Value) -> Option<RunSet> {
        Some(RunSet {
            seed: v.get("seed")?.as_f64()? as u64,
            host: Fingerprint::from_json(v.get("host")?)?,
            total_wall_s: v.get("total_wall_s")?.as_f64()?,
            workloads: v
                .get("workloads")?
                .as_array()?
                .iter()
                .map(|w| {
                    Some(WorkloadResult {
                        name: w.get("name")?.as_str()?.to_owned(),
                        e2e: PassResult::from_json(w.get("e2e")?)?,
                        traced: PassResult::from_json(w.get("traced")?)?,
                    })
                })
                .collect::<Option<_>>()?,
            probes: PassResult::from_json(v.get("probes")?)?,
        })
    }

    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, render(&self.to_json()) + "\n")
    }

    pub fn read(path: &Path) -> Result<RunSet, String> {
        RunSet::from_json(&load(path)?)
            .ok_or_else(|| format!("{}: not a benchmark result file", path.display()))
    }
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Read one pass's result file (written by a child process).
pub fn read_pass(path: &Path) -> Result<PassResult, String> {
    PassResult::from_json(&load(path)?)
        .ok_or_else(|| format!("{}: not a pass result", path.display()))
}

/// Compare two runs' end-to-end metrics against the catalogue's bounds
/// and print one row per workload × metric. `first` is the baseline.
/// With `symmetric`, a difference in either direction counts (two runs
/// of the same code must agree); otherwise only a worsening does.
/// Returns whether every gated row passed. Refuses (`Err`) when the
/// runs come from different hosts.
pub fn compare(first: &RunSet, second: &RunSet, symmetric: bool) -> Result<bool, String> {
    if first.host != second.host {
        return Err(format!(
            "host fingerprints differ, refusing to compare:\n  {:?}\n  {:?}",
            first.host, second.host
        ));
    }
    let mut all_pass = true;
    println!(
        "{:<15} {:<23} {:>14} {:>14} {:>9}  verdict",
        "workload", "metric", "first", "second", "diff"
    );
    for a in &first.workloads {
        let Some(b) = second.workloads.iter().find(|w| w.name == a.name) else {
            return Err(format!("workload {} missing from the second run", a.name));
        };
        for metric in &END_TO_END {
            let (Some(x), Some(y)) = (a.e2e.get(metric.name), b.e2e.get(metric.name)) else {
                continue;
            };
            let worse_by = match metric.better {
                Better::Higher => x - y,
                Better::Lower => y - x,
            };
            let off_by = if symmetric { worse_by.abs() } else { worse_by };
            let pass = off_by <= (metric.rel * x.abs()).max(metric.abs);
            let diff = if x != 0.0 {
                format!("{:+.1}%", (y - x) / x * 100.0)
            } else {
                format!("{:+.4}", y - x)
            };
            let verdict = match (pass, catalogue::informational(&a.name, metric.name)) {
                (true, _) => "PASS".to_owned(),
                (false, Some(spread)) => format!("informational (baseline spread {spread})"),
                (false, None) => {
                    all_pass = false;
                    "FAIL".to_owned()
                }
            };
            println!(
                "{:<15} {:<23} {:>14.4} {:>14.4} {:>9}  {verdict}",
                a.name, metric.name, x, y, diff
            );
        }
    }
    Ok(all_pass)
}
