//! Cell values and rows for the in-memory storage layer.
//!
//! Records are stored as typed rows (`Vec<Value>`). The simulation does not
//! need a packed byte layout for correctness; the storage layer charges the
//! CPU-cost model per operation instead of per byte, matching the paper's
//! observation that with RDMA the network is no longer bandwidth-bound.

use std::fmt;

/// A single column value.
#[derive(Clone, PartialEq)]
pub enum Value {
    /// 64-bit signed integer (ids, counts, quantities).
    I64(i64),
    /// 64-bit float (balances, prices). TPC-C monetary columns use this.
    F64(f64),
    /// Variable-length string (names, addresses).
    Str(String),
    /// Absent / NULL.
    Null,
}

impl Value {
    /// Interpret as integer, panicking with a descriptive message otherwise.
    ///
    /// Stored procedures are compiled against a fixed schema, so a type
    /// mismatch is a programming error, not a runtime condition.
    #[inline]
    pub fn as_i64(&self) -> i64 {
        match self {
            Value::I64(v) => *v,
            other => panic!("expected I64, found {other:?}"),
        }
    }

    #[inline]
    pub fn as_f64(&self) -> f64 {
        match self {
            Value::F64(v) => *v,
            Value::I64(v) => *v as f64,
            other => panic!("expected F64, found {other:?}"),
        }
    }

    #[inline]
    pub fn as_str(&self) -> &str {
        match self {
            Value::Str(s) => s,
            other => panic!("expected Str, found {other:?}"),
        }
    }

    #[inline]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Approximate in-memory footprint in bytes, used by the storage layer
    /// to report table sizes and by the lookup-table size experiment.
    pub fn approx_size(&self) -> usize {
        match self {
            Value::I64(_) | Value::F64(_) => 8,
            Value::Str(s) => s.len() + 8,
            Value::Null => 1,
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::I64(v as i64)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::I64(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::I64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v:.2}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Null => write!(f, "NULL"),
        }
    }
}

/// A materialized record: an ordered list of column values.
pub type Row = Vec<Value>;

/// Helper to build rows tersely in data generators and tests.
///
/// ```
/// use chiller_common::value::{row, Value};
/// let r = row(&[Value::from(1i64), Value::from("abc")]);
/// assert_eq!(r.len(), 2);
/// ```
pub fn row(vals: &[Value]) -> Row {
    vals.to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        assert_eq!(Value::I64(5).as_i64(), 5);
        assert_eq!(Value::F64(2.5).as_f64(), 2.5);
        assert_eq!(Value::I64(3).as_f64(), 3.0);
        assert_eq!(Value::from("hi").as_str(), "hi");
        assert!(Value::Null.is_null());
    }

    #[test]
    #[should_panic(expected = "expected I64")]
    fn wrong_type_panics() {
        Value::Null.as_i64();
    }

    #[test]
    fn sizes() {
        assert_eq!(Value::I64(1).approx_size(), 8);
        assert_eq!(Value::from("abcd").approx_size(), 12);
        assert_eq!(Value::Null.approx_size(), 1);
    }

    #[test]
    fn from_impls() {
        assert_eq!(Value::from(7u64).as_i64(), 7);
        assert_eq!(Value::from(7i32).as_i64(), 7);
        assert_eq!(Value::from(String::from("x")).as_str(), "x");
    }

    #[test]
    fn debug_format() {
        assert_eq!(format!("{:?}", Value::F64(1.0)), "1.00");
        assert_eq!(format!("{:?}", Value::Null), "NULL");
    }
}
