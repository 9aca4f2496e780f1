//! Table-driven anomaly-injection tests: hand-built histories with known
//! anomalies must be flagged with the right classification, and serial
//! histories must always pass (ISSUE satellite 1).

use chiller_checker::{check_history, Anomaly, CheckMode};
use chiller_common::{NodeId, RecordId, TableId, TxnId};
use chiller_obs::{History, HistoryEvent, HistoryEventKind};

const T: TableId = TableId(7);

fn rid(k: u64) -> RecordId {
    RecordId::new(T, k)
}

fn txn(seq: u64) -> TxnId {
    TxnId::new(NodeId(0), seq)
}

/// Event-builder DSL: each event gets a monotonically increasing ts from
/// its position, so commit order == list order.
enum Ev {
    R(u64, u64, u64), // txn seq, key, version observed
    W(u64, u64, u64), // txn seq, key, version installed
    C(u64),           // txn seq commits
}

fn history(script: &[Ev]) -> History {
    let events = script
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let (ts, kind) = match *e {
                Ev::R(t, k, v) => (
                    i as u64,
                    HistoryEventKind::ReadObs {
                        txn: txn(t),
                        record: rid(k),
                        version: v,
                    },
                ),
                Ev::W(t, k, v) => (
                    i as u64,
                    HistoryEventKind::WriteObs {
                        txn: txn(t),
                        record: rid(k),
                        version: v,
                    },
                ),
                Ev::C(t) => (i as u64, HistoryEventKind::Commit { txn: txn(t) }),
            };
            HistoryEvent {
                ts,
                node: NodeId(0),
                kind,
            }
        })
        .collect();
    History { events }
}

struct Case {
    name: &'static str,
    script: Vec<Ev>,
    /// `None` = must pass; `Some(a)` = must flag exactly one violation of
    /// class `a`.
    expect: Option<Anomaly>,
}

fn cases() -> Vec<Case> {
    use Ev::*;
    vec![
        Case {
            name: "empty",
            script: vec![],
            expect: None,
        },
        Case {
            name: "serial_read_only",
            script: vec![R(1, 1, 0), C(1), R(2, 1, 0), R(2, 2, 0), C(2)],
            expect: None,
        },
        Case {
            name: "serial_rmw_chain",
            script: vec![
                R(1, 1, 0),
                W(1, 1, 1),
                C(1),
                R(2, 1, 1),
                W(2, 1, 2),
                C(2),
                R(3, 1, 2),
                W(3, 1, 3),
                C(3),
            ],
            expect: None,
        },
        Case {
            name: "serial_multi_key_transfer",
            // Classic conserving transfers, executed one after another.
            script: vec![
                R(1, 1, 0),
                R(1, 2, 0),
                W(1, 1, 1),
                W(1, 2, 1),
                C(1),
                R(2, 2, 1),
                R(2, 3, 0),
                W(2, 2, 2),
                W(2, 3, 1),
                C(2),
            ],
            expect: None,
        },
        Case {
            name: "concurrent_but_serializable_disjoint_keys",
            script: vec![R(1, 1, 0), R(2, 2, 0), W(2, 2, 1), W(1, 1, 1), C(2), C(1)],
            expect: None,
        },
        Case {
            name: "g1c_circular_information_flow",
            // T1 -wr(x)-> T2 -wr(y)-> T1: each saw the other's write.
            script: vec![W(1, 1, 1), W(2, 2, 1), R(2, 1, 1), R(1, 2, 1), C(1), C(2)],
            expect: Some(Anomaly::G1c),
        },
        Case {
            name: "lost_update_same_version_rmw",
            // Both read x@1, both overwrote it: T2's deposit vanishes.
            script: vec![
                R(0, 1, 0),
                W(0, 1, 1),
                C(0),
                R(1, 1, 1),
                R(2, 1, 1),
                W(1, 1, 2),
                W(2, 1, 3),
                C(1),
                C(2),
            ],
            expect: Some(Anomaly::LostUpdate),
        },
        Case {
            name: "write_skew_crossed_guards",
            // T1 checked x, wrote y; T2 checked y, wrote x — neither saw
            // the other's write (the classic on-call-doctors shape).
            script: vec![R(1, 1, 0), R(2, 2, 0), W(1, 2, 1), W(2, 1, 1), C(1), C(2)],
            expect: Some(Anomaly::WriteSkew),
        },
        Case {
            name: "general_three_txn_cycle",
            // T1 -rw(x)-> T2 -wr(y)-> T3 -rw(z)-> T1: mixed kinds, longer
            // than 2 — neither G1c nor lost update nor pure write skew.
            script: vec![
                R(1, 1, 0), // T1 read x@0 ...
                W(2, 1, 1), // ... T2 overwrote x        (T1 -rw-> T2)
                W(2, 2, 1), // T2 wrote y ...
                R(3, 2, 1), // ... T3 read it            (T2 -wr-> T3)
                R(3, 3, 0), // T3 read z@0 ...
                W(1, 3, 1), // ... T1 overwrote z        (T3 -rw-> T1)
                C(1),
                C(2),
                C(3),
            ],
            expect: Some(Anomaly::General),
        },
        Case {
            name: "aborted_attempt_cannot_poison",
            // Txn 9 read the about-to-be-lost version but never committed;
            // the survivors form a clean serial chain.
            script: vec![
                R(1, 1, 0),
                W(1, 1, 1),
                C(1),
                R(9, 1, 1), // aborted attempt: no C(9)
                R(2, 1, 1),
                W(2, 1, 2),
                C(2),
            ],
            expect: None,
        },
    ]
}

#[test]
fn table_driven_anomaly_classification() {
    for case in cases() {
        let h = history(&case.script);
        let report = check_history(&h, CheckMode::Full);
        match case.expect {
            None => assert!(
                report.ok(),
                "{}: expected pass, got {:?}",
                case.name,
                report.violations
            ),
            Some(anomaly) => {
                assert_eq!(
                    report.violations.len(),
                    1,
                    "{}: expected exactly one violation, got {:?}",
                    case.name,
                    report.violations
                );
                assert_eq!(
                    report.violations[0].anomaly, anomaly,
                    "{}: misclassified: {}",
                    case.name, report.violations[0]
                );
            }
        }
    }
}

#[test]
fn violation_evidence_names_the_cycle() {
    use Ev::*;
    let h = history(&[R(1, 1, 0), W(1, 1, 1), R(2, 1, 0), W(2, 1, 2), C(1), C(2)]);
    let report = check_history(&h, CheckMode::Full);
    assert!(!report.ok());
    let v = &report.violations[0];
    assert_eq!(v.cycle.len(), 2);
    assert_eq!(v.edges.len(), v.cycle.len(), "one edge per step");
    for (i, e) in v.edges.iter().enumerate() {
        assert_eq!(e.from, v.cycle[i], "edge {i} leaves cycle node {i}");
        assert_eq!(
            e.to,
            v.cycle[(i + 1) % v.cycle.len()],
            "edge {i} enters the next cycle node"
        );
        assert_eq!(e.record, rid(1));
    }
    let line = format!("{v}");
    assert!(line.contains("cycle:"), "display form is readable: {line}");
}

#[test]
fn off_mode_records_nothing_and_passes_everything() {
    use Ev::*;
    // Even a blatant lost update is vacuously "ok" when checking is off —
    // `ok()` means "no cycle found", and Off looks at nothing.
    let h = history(&[R(1, 1, 1), W(1, 1, 2), R(2, 1, 1), W(2, 1, 3), C(1), C(2)]);
    let report = check_history(&h, CheckMode::Off);
    assert!(report.ok());
    assert_eq!(report.edges, 0);
}
