//! `cc`: handler CPU per commit — the workload's own traffic on the
//! simulator, where no mailbox, scheduler or wall-clock timer takes part.

use super::{median_of_batches, BATCHES};
use crate::spans::Spans;
use crate::workloads::{Prepared, Variant};
use chiller::prelude::*;

/// Virtual time per batch; [`BATCHES`] of them stay within 5 virtual ms.
const BATCH_VIRTUAL_US: u64 = 800;

/// Wall µs per commit of the simulated run, median over batches. The
/// simulator is deterministic, so a second cluster from the same seed
/// must commit exactly as many transactions; that is asserted.
pub fn cpu_us_per_commit(prepared: &Prepared, spans: &mut Spans) -> f64 {
    let variant = Variant {
        simulated: true,
        ..Variant::default()
    };
    let batch = Duration::from_micros(BATCH_VIRTUAL_US);
    let mut cluster = prepared.build(variant, spans);
    let mut commits_before = 0;
    let us = median_of_batches(|| {
        let report = cluster.run_more(batch);
        let commits = report.total_commits() - commits_before;
        commits_before = report.total_commits();
        report.wall_elapsed.as_secs_f64() * 1e6 / commits.max(1) as f64
    });
    drop(cluster);
    let mut twin = prepared.build(variant, spans);
    let total = Duration::from_micros(BATCH_VIRTUAL_US * (BATCHES as u64 + 1));
    let repeat = twin
        .run(RunSpec::new(Duration::ZERO, total))
        .total_commits();
    assert_eq!(
        repeat, commits_before,
        "simulated commit count must repeat exactly for one seed"
    );
    us
}
