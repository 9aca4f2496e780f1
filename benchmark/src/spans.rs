//! The harness's own spans: one around every call it makes into a layer.
//!
//! Spans live in memory and are written to `benchmark/out/spans.jsonl`
//! when the workload ends, one JSON object per line:
//! `{id, parent, name, workload, pass, start_ns, end_ns}`. `parent` is
//! the id of the enclosing span (`null` at the root); a span's self time
//! is its duration minus the durations of the spans naming it as parent.
//! Times are nanoseconds since the benchmark process started.

use serde::json::{render, Value};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

struct Span {
    parent: Option<usize>,
    name: String,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder for one workload × pass.
pub struct Spans {
    origin: Instant,
    workload: &'static str,
    pass: &'static str,
    rows: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder whose clock starts at `origin` (process start).
    pub fn new(origin: Instant, workload: &'static str, pass: &'static str) -> Self {
        Spans {
            origin,
            workload,
            pass,
            rows: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span called `name`, nested under whichever span
    /// is open; returns `f`'s result and the span's duration in seconds.
    pub fn timed<T>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> T) -> (T, f64) {
        let id = self.rows.len();
        let start_ns = self.now_ns();
        self.rows.push(Span {
            parent: self.open.last().copied(),
            name: name.to_owned(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.rows[id].end_ns = end_ns;
        (out, (end_ns - start_ns) as f64 / 1e9)
    }

    /// [`Self::timed`] without the duration.
    pub fn scope<T>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> T) -> T {
        self.timed(name, f).0
    }

    /// Summed duration, in seconds, of every finished span called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.rows
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |sum, s| sum + (s.end_ns - s.start_ns) as f64 / 1e9)
    }

    /// Write every span to `path` as JSON lines, appending when `append`
    /// (the all-workloads driver collects its children's spans in one file).
    pub fn write_jsonl(&self, path: &Path, append: bool) -> std::io::Result<()> {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .write(true)
            .append(append)
            .truncate(!append)
            .open(path)?;
        let mut out = String::new();
        for (id, s) in self.rows.iter().enumerate() {
            let row = Value::Obj(vec![
                ("id".into(), Value::Num(id as f64)),
                (
                    "parent".into(),
                    s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                ),
                ("name".into(), Value::Str(s.name.clone())),
                ("workload".into(), Value::Str(self.workload.into())),
                ("pass".into(), Value::Str(self.pass.into())),
                ("start_ns".into(), Value::Num(s.start_ns as f64)),
                ("end_ns".into(), Value::Num(s.end_ns as f64)),
            ]);
            out.push_str(&render(&row));
            out.push('\n');
        }
        file.write_all(out.as_bytes())
    }
}
