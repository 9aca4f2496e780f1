//! The repo's one benchmark (see `benchmark/README.md`).
//!
//! ```text
//! bench --workload W --seed N --seconds S --trace 0|1   one pass of one workload
//! bench [--seed N]                                      every workload, both passes
//! bench --agree [--seed N]                              the above twice, then compare
//! bench probes                                          the workload-independent probes alone
//! bench compare A.json B.json                           two result files against the bounds
//! bench manifest                                        print BENCHMARK.json
//! ```

mod catalogue;
mod e2e;
mod gate;
mod host;
mod probes;
mod results;
mod spans;
mod stats;
mod traced;
mod workloads;

use host::Fingerprint;
use results::{PassResult, RunSet, WorkloadResult};
use serde::json::{render, Value};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workloads::Workload;

/// Everything the benchmark writes lands here (relative to the repo
/// root, which `run.sh` makes the working directory).
const OUT_DIR: &str = "benchmark/out";
/// Measurement seconds of the two passes when every workload runs.
const ALL_E2E_SECONDS: f64 = 3.9;
const ALL_TRACED_SECONDS: f64 = 2.0;
/// The whole benchmark must finish within this many seconds of wall
/// time after the build, or it fails itself.
const TIME_LIMIT_S: f64 = 90.0;
const DEFAULT_SEED: u64 = 7;
/// `run_seconds` in BENCHMARK.json: what an external driver passes as
/// `--seconds` for each of its runs.
const MANIFEST_RUN_SECONDS: f64 = 12.0;

enum Cmd {
    Single {
        workload: Workload,
        seed: u64,
        seconds: f64,
        trace: bool,
        /// Set by the all-workloads driver: write the full pass result
        /// here, append (not truncate) the spans file, and leave the
        /// workload-independent probes to the `probes` child.
        result: Option<PathBuf>,
    },
    Probes {
        result: Option<PathBuf>,
    },
    All {
        seed: u64,
    },
    Agree {
        seed: u64,
    },
    Compare(PathBuf, PathBuf),
    Manifest,
}

fn parse_args(args: &[String]) -> Result<Cmd, String> {
    match args.first().map(String::as_str) {
        Some("compare") => {
            return match args {
                [_, a, b] => Ok(Cmd::Compare(a.into(), b.into())),
                _ => Err("usage: bench compare A.json B.json".into()),
            }
        }
        Some("manifest") => return Ok(Cmd::Manifest),
        _ => {}
    }
    let probes_only = args.first().is_some_and(|a| a == "probes");
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = ALL_E2E_SECONDS;
    let mut trace = false;
    let mut result = None;
    let mut agree = false;
    let mut it = args.iter().skip(usize::from(probes_only));
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::from_name(name).ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {seconds} is outside (0, 600]"));
                }
            }
            "--trace" => {
                trace = match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--result" => result = Some(PathBuf::from(value()?)),
            "--agree" => agree = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(match workload {
        _ if probes_only => Cmd::Probes { result },
        Some(workload) => Cmd::Single {
            workload,
            seed,
            seconds,
            trace,
            result,
        },
        None if agree => Cmd::Agree { seed },
        None => Cmd::All { seed },
    })
}

fn main() -> ExitCode {
    let origin = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match parse_args(&args) {
        Ok(cmd) => cmd,
        Err(e) => {
            eprintln!("bench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match cmd {
        Cmd::Single {
            workload,
            seed,
            seconds,
            trace,
            result,
        } => single(workload, seed, seconds, trace, result.as_deref(), origin),
        Cmd::Probes { result } => probes_alone(result.as_deref(), origin),
        Cmd::All { seed } => all(seed, &Path::new(OUT_DIR).join("results.json")).map(|_| ()),
        Cmd::Agree { seed } => agree(seed),
        Cmd::Compare(a, b) => RunSet::read(&a).and_then(|first| {
            let second = RunSet::read(&b)?;
            match results::compare(&first, &second, false)? {
                true => Ok(()),
                false => Err("at least one metric regressed beyond its bound".into()),
            }
        }),
        Cmd::Manifest => {
            println!("{}", manifest());
            Ok(())
        }
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_metrics(metrics: &[(String, f64)]) {
    for (name, value) in metrics {
        println!("  {name:<36} {value:>16.4} {}", catalogue::unit_of(name));
    }
}

/// One pass of one workload: run, print every metric, write spans, and
/// end with the one-line JSON result the benchmark contract asks for.
fn single(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    result: Option<&Path>,
    origin: Instant,
) -> Result<(), String> {
    let out = out_dir()?;
    let pass = if trace { "traced" } else { "e2e" };
    let mut spans = spans::Spans::new(origin, workload.name(), pass);
    let outcome = if trace {
        traced::run(workload, seed, seconds, result.is_none(), out, &mut spans)
    } else {
        e2e::run(workload, seed, seconds, origin, out, &mut spans)
    };
    let host = Fingerprint::detect();
    println!(
        "{} [{pass}] seed {seed}, nproc {}{}",
        workload.name(),
        host.nproc,
        if host.oversubscribed() {
            " (OVERSUBSCRIBED: fewer cores than workers)"
        } else {
            ""
        }
    );
    let full = report_pass(&spans, &outcome, result)?;

    // The contract line: only the metrics BENCHMARK.json lists.
    let listed = |name: &str| {
        if trace {
            catalogue::per_layer(name).is_some_and(|m| m.manifest)
        } else {
            catalogue::end_to_end(name).is_some_and(|m| m.manifest)
        }
    };
    let metrics = full
        .metrics
        .iter()
        .filter(|(name, _)| listed(name))
        .map(|(name, value)| {
            let entry = Value::Obj(vec![
                ("value".into(), Value::Num(*value)),
                ("unit".into(), Value::Str(catalogue::unit_of(name).into())),
            ]);
            (name.clone(), entry)
        })
        .collect();
    let line = Value::Obj(vec![
        ("correct".into(), Value::Bool(outcome.correct)),
        ("attempted".into(), Value::Num(outcome.attempted as f64)),
        ("failed".into(), Value::Num(outcome.failed as f64)),
        ("metrics".into(), Value::Obj(metrics)),
    ]);
    println!("{}", render(&line));
    if outcome.correct {
        Ok(())
    } else {
        Err(format!(
            "{} [{pass}]: correctness gate failed ({} of {} inputs failed)",
            workload.name(),
            outcome.failed,
            outcome.attempted
        ))
    }
}

/// The workload-independent probes in a process of their own.
fn probes_alone(result: Option<&Path>, origin: Instant) -> Result<(), String> {
    let mut spans = spans::Spans::new(origin, "probes", "traced");
    let outcome = gate::Outcome {
        correct: true,
        attempted: 1,
        failed: 0,
        metrics: probes::run_all(out_dir()?, &mut spans),
    };
    report_pass(&spans, &outcome, result).map(|_| ())
}

/// `benchmark/out`, created on first use.
fn out_dir() -> Result<&'static Path, String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
    Ok(Path::new(OUT_DIR))
}

/// What every pass does once it has run: write its spans, print every
/// metric, and, as a child of the all-workloads driver (`result` set),
/// append to the shared spans file and leave the full result behind.
fn report_pass(
    spans: &spans::Spans,
    outcome: &gate::Outcome,
    result: Option<&Path>,
) -> Result<PassResult, String> {
    spans
        .write_jsonl(&Path::new(OUT_DIR).join("spans.jsonl"), result.is_some())
        .map_err(|e| format!("cannot write spans.jsonl: {e}"))?;
    let full = PassResult::of(outcome);
    print_metrics(&full.metrics);
    if let Some(path) = result {
        std::fs::write(path, render(&full.to_json()))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(full)
}

/// Run `bench <args> --result <file>` as a child process and read the
/// result back. The child's stdout is swallowed (the parent prints the
/// tables); its stderr passes through.
fn child(label: &str, args: &[&str]) -> Result<PassResult, String> {
    let result = Path::new(OUT_DIR).join(format!("pass-{label}.json"));
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let start = Instant::now();
    let status = Command::new(exe)
        .args(args)
        .arg("--result")
        .arg(&result)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot start {label}: {e}"))?;
    let wall_s = start.elapsed().as_secs_f64();
    let mut parsed = results::read_pass(&result)
        .map_err(|e| format!("{label} left no result ({status}): {e}"))?;
    let _ = std::fs::remove_file(&result);
    parsed.wall_s = wall_s;
    Ok(parsed)
}

fn child_pass(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<PassResult, String> {
    let pass = if trace { "traced" } else { "e2e" };
    child(
        &format!("{}-{pass}", workload.name()),
        &[
            "--workload",
            workload.name(),
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ],
    )
}

/// Every workload, both passes, each pass in its own process. Prints
/// every metric, writes the result file, enforces the time limit.
fn all(seed: u64, out_file: &Path) -> Result<RunSet, String> {
    let start = Instant::now();
    let _ = std::fs::remove_file(out_dir()?.join("spans.jsonl"));
    let host = Fingerprint::detect();
    println!(
        "host: nproc {}, detected parallelism {}, kernel {}, {}, governor {}{}",
        host.nproc,
        host.detected_parallelism,
        host.kernel,
        host.rustc,
        host.governor.as_deref().unwrap_or("unreadable"),
        if host.oversubscribed() {
            " — OVERSUBSCRIBED: fewer cores than the 2 workers"
        } else {
            ""
        }
    );
    let mut workloads = Vec::new();
    for workload in Workload::ALL {
        let e2e = child_pass(workload, seed, ALL_E2E_SECONDS, false)?;
        let traced = child_pass(workload, seed, ALL_TRACED_SECONDS, true)?;
        println!(
            "\n== {} (seed {seed}) — {}",
            workload.name(),
            workload.why()
        );
        println!(" end to end ({:.1} s):", e2e.wall_s);
        print_metrics(&e2e.metrics);
        println!(" per layer ({:.1} s):", traced.wall_s);
        print_metrics(&traced.metrics);
        workloads.push(WorkloadResult {
            name: workload.name().to_owned(),
            e2e,
            traced,
        });
    }
    let probes = child("probes", &["probes"])?;
    println!("\n== probes ({:.1} s)", probes.wall_s);
    print_metrics(&probes.metrics);
    let run = RunSet {
        seed,
        host,
        total_wall_s: start.elapsed().as_secs_f64(),
        workloads,
        probes,
    };

    println!("\n== wall time");
    for w in &run.workloads {
        println!(
            "  {:<15} e2e {:>5.1} s   traced {:>5.1} s",
            w.name, w.e2e.wall_s, w.traced.wall_s
        );
    }
    println!("  {:<15} {:>9.1} s", "probes", run.probes.wall_s);
    println!(
        "  total {:.1} s (limit {TIME_LIMIT_S} s, build excluded)",
        run.total_wall_s
    );
    run.write(out_file)
        .map_err(|e| format!("cannot write {}: {e}", out_file.display()))?;
    println!(
        "results: {}, spans: {OUT_DIR}/spans.jsonl",
        out_file.display()
    );

    let incorrect: Vec<&str> = run
        .workloads
        .iter()
        .filter(|w| !(w.e2e.correct && w.traced.correct))
        .map(|w| w.name.as_str())
        .collect();
    if !incorrect.is_empty() {
        return Err(format!(
            "correctness gate failed on: {}",
            incorrect.join(", ")
        ));
    }
    if run.total_wall_s > TIME_LIMIT_S {
        return Err(format!(
            "took {:.1} s, over the {TIME_LIMIT_S} s limit",
            run.total_wall_s
        ));
    }
    Ok(run)
}

/// The whole benchmark twice; the two sets must agree within bounds.
fn agree(seed: u64) -> Result<(), String> {
    let first = all(seed, &Path::new(OUT_DIR).join("agree-a.json"))?;
    let second = all(seed, &Path::new(OUT_DIR).join("agree-b.json"))?;
    println!("\n== agreement of two runs of the same code (seed {seed})");
    match results::compare(&first, &second, true)? {
        true => Ok(()),
        false => Err("the two runs disagree beyond the bounds".into()),
    }
}

/// `BENCHMARK.json`, generated from the catalogue and the workload list.
fn manifest() -> String {
    let metric = |name: &str, unit: &str, better: catalogue::Better| {
        vec![
            ("name".to_owned(), Value::Str(name.into())),
            ("unit".to_owned(), Value::Str(unit.into())),
            ("better".to_owned(), Value::Str(better.label().into())),
        ]
    };
    let doc = Value::Obj(vec![
        (
            "command".into(),
            Value::Arr(vec![
                Value::Str("bash".into()),
                Value::Str("benchmark/run.sh".into()),
            ]),
        ),
        (
            "paths".into(),
            Value::Arr(vec![Value::Str("benchmark".into())]),
        ),
        ("run_seconds".into(), Value::Num(MANIFEST_RUN_SECONDS)),
        (
            "workloads".into(),
            Value::Arr(
                Workload::ALL
                    .iter()
                    .map(|w| {
                        Value::Obj(vec![
                            ("name".into(), Value::Str(w.name().into())),
                            ("why".into(), Value::Str(w.why().into())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end".into(),
            Value::Arr(
                catalogue::END_TO_END
                    .iter()
                    .filter(|m| m.manifest)
                    .map(|m| {
                        let mut entry = metric(m.name, m.unit, m.better);
                        entry.push(("bound".into(), Value::Num(m.rel)));
                        Value::Obj(entry)
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer".into(),
            Value::Arr(
                catalogue::PER_LAYER
                    .iter()
                    .filter(|m| m.manifest)
                    .map(|m| Value::Obj(metric(m.name, m.unit, m.better)))
                    .collect(),
            ),
        ),
    ]);
    render(&doc)
}
