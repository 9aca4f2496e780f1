//! Generators for WAL records, shared by the codec property suite
//! (`wal_props.rs`), the encoder check in `wal.rs` and the recovery
//! differential test in `chiller::crash` (which include this file by
//! path).

#![allow(dead_code)]

use chiller_common::ids::{NodeId, PartitionId, RecordId, TableId, TxnId};
use chiller_common::value::Value;
use chiller_storage::wal::{encode_record, DecideWrite, RedoOp, RedoWrite, WalRecord};
use proptest::prelude::*;

pub fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::I64),
        // Halves of integers: exact in f64, so PartialEq round-trips.
        any::<i32>().prop_map(|i| Value::F64(f64::from(i) * 0.5)),
        (0u32..1000).prop_map(|n| Value::Str(format!("s{n}"))),
        (0u8..1).prop_map(|_| Value::Null),
    ]
}

pub fn row_strategy() -> impl Strategy<Value = Vec<Value>> {
    prop::collection::vec(value_strategy(), 0..5)
}

pub fn op_strategy() -> impl Strategy<Value = RedoOp> {
    prop_oneof![
        row_strategy().prop_map(RedoOp::Put),
        row_strategy().prop_map(RedoOp::Insert),
        (0u8..1).prop_map(|_| RedoOp::Delete),
    ]
}

pub fn record_id_strategy() -> impl Strategy<Value = RecordId> {
    (1u16..9, any::<u64>()).prop_map(|(t, k)| RecordId::new(TableId(t), k))
}

pub fn txn_strategy() -> impl Strategy<Value = TxnId> {
    (0u32..16, 0u64..(1 << 40)).prop_map(|(n, s)| TxnId::new(NodeId(n), s))
}

pub fn redo_write_strategy() -> impl Strategy<Value = RedoWrite> {
    (record_id_strategy(), 1u64..1000, op_strategy()).prop_map(|(record, version, op)| RedoWrite {
        record,
        version,
        op,
    })
}

pub fn decide_write_strategy() -> impl Strategy<Value = DecideWrite> {
    (0u32..16, record_id_strategy(), op_strategy()).prop_map(|(p, record, op)| DecideWrite {
        partition: PartitionId(p),
        record,
        op,
    })
}

pub fn wal_record_strategy() -> impl Strategy<Value = WalRecord> {
    prop_oneof![
        (
            txn_strategy(),
            prop::collection::vec(redo_write_strategy(), 0..6)
        )
            .prop_map(|(txn, writes)| WalRecord::Redo { txn, writes }),
        (
            txn_strategy(),
            0u32..100,
            prop::option::of((0u32..16).prop_map(PartitionId)),
            prop::collection::vec(decide_write_strategy(), 0..6),
        )
            .prop_map(|(txn, p, pending_inner, writes)| WalRecord::Decide {
                txn,
                proc: format!("proc-{p}"),
                pending_inner,
                writes,
            }),
        txn_strategy().prop_map(|txn| WalRecord::InnerCommit { txn }),
        txn_strategy().prop_map(|txn| WalRecord::Ack { txn }),
        txn_strategy().prop_map(|txn| WalRecord::Abort { txn }),
    ]
}

pub fn encode_all(records: &[WalRecord]) -> Vec<u8> {
    let mut buf = Vec::new();
    for rec in records {
        encode_record(rec, &mut buf);
    }
    buf
}
