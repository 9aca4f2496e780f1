//! Recovery's memory follows the transactions still open in the logs, not
//! how long the cluster ran before it died.
//!
//! Measured without noise, as rows of the cost table in
//! `support/costs.rs`: SmallBank runs with a redo log on the deterministic
//! simulator, is killed, and is rebuilt on the same directory, and the
//! rebuild's high-water mark of live heap bytes is a row beside the log it
//! scanned, the transactions it held open and those it left in doubt.

#[path = "support/costs.rs"]
mod costs;

/// A recovery that decoded the logs whole would grow its peak fourfold for
/// a run four times as long; the streaming one must not notice. A drained
/// log closes every transaction it opened: nothing is in doubt.
#[test]
fn rebuild_memory_does_not_follow_run_length() {
    let row = costs::check(&["recovery.short", "recovery.long"]);
    let longer =
        |what| row[&format!("recovery.long.{what}")] / row[&format!("recovery.short.{what}")];
    assert!(
        longer("commits") > 3.5 && longer("log_bytes_scanned") > 3.5,
        "the long run must be about four times the work for the comparison to mean anything"
    );
    assert!(
        longer("rebuild_peak_bytes") < 1.5,
        "rebuild memory grew {}x for four times the log",
        longer("rebuild_peak_bytes")
    );
}

/// Killed under load, the logs end with transactions genuinely open, and
/// recovery carries those to the end of the scan. They are bounded by what
/// was in flight, so the rebuild stays inside the same budget.
#[test]
fn mid_run_kill_stays_inside_the_budget() {
    costs::check(&["recovery.midrun"]);
}
