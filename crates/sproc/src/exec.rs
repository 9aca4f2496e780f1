//! Run-time execution state for one transaction instance.
//!
//! Carries the input parameters and the output row of every completed
//! operation. Key functions, apply functions and guards all read from this
//! state, which is what lets the engines execute operations in any legal
//! order (outer region first, inner region later, possibly on a different
//! node after being shipped in an RPC).

use chiller_common::value::{Row, Value};

/// Parameters + per-op outputs of a transaction in flight.
#[derive(Debug, Clone, Default)]
pub struct ExecState {
    params: Vec<Value>,
    outputs: Vec<Option<Row>>,
}

impl ExecState {
    pub fn new(params: Vec<Value>, num_ops: usize) -> Self {
        ExecState {
            params,
            outputs: vec![None; num_ops],
        }
    }

    /// Start over with `params` and `num_ops` empty output slots, keeping
    /// both vectors' capacity.
    pub fn reset(&mut self, params: &[Value], num_ops: usize) {
        self.params.clear();
        self.params.extend_from_slice(params);
        self.outputs.clear();
        self.outputs.resize(num_ops, None);
    }

    pub fn params(&self) -> &[Value] {
        &self.params
    }

    /// Parameter as u64 key material.
    #[inline]
    pub fn param_u64(&self, i: usize) -> u64 {
        self.params[i].as_i64() as u64
    }

    #[inline]
    pub fn param_i64(&self, i: usize) -> i64 {
        self.params[i].as_i64()
    }

    #[inline]
    pub fn param_f64(&self, i: usize) -> f64 {
        self.params[i].as_f64()
    }

    /// Output row of op `id`, if it has executed.
    #[inline]
    pub fn output(&self, id: chiller_common::ids::OpId) -> Option<&Row> {
        self.outputs.get(id.idx()).and_then(|o| o.as_ref())
    }

    /// Output row of op `id`; panics if not yet executed — dependency
    /// violations are engine bugs, not run-time conditions.
    #[inline]
    pub fn output_req(&self, id: chiller_common::ids::OpId) -> &Row {
        self.output(id)
            .unwrap_or_else(|| panic!("output of {id} not available"))
    }

    /// Record the output of op `id`.
    pub fn set_output(&mut self, id: chiller_common::ids::OpId, row: Row) {
        self.outputs[id.idx()] = Some(row);
    }

    /// Move the output of op `id` out, leaving its slot empty: how the
    /// inner host ships its outputs back without copying them.
    pub fn take_output(&mut self, id: chiller_common::ids::OpId) -> Option<Row> {
        self.outputs.get_mut(id.idx()).and_then(Option::take)
    }

    /// Number of op output slots.
    pub fn num_ops(&self) -> usize {
        self.outputs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiller_common::ids::OpId;

    #[test]
    fn params_accessors() {
        let st = ExecState::new(vec![Value::I64(7), Value::F64(1.5)], 2);
        assert_eq!(st.param_u64(0), 7);
        assert_eq!(st.param_i64(0), 7);
        assert_eq!(st.param_f64(1), 1.5);
    }

    #[test]
    fn outputs_roundtrip() {
        let mut st = ExecState::new(vec![], 3);
        assert!(st.output(OpId(1)).is_none());
        st.set_output(OpId(1), vec![Value::I64(9)]);
        assert_eq!(st.output_req(OpId(1))[0].as_i64(), 9);
    }

    #[test]
    #[should_panic(expected = "not available")]
    fn missing_output_panics_on_req() {
        let st = ExecState::new(vec![], 1);
        st.output_req(OpId(0));
    }

    #[test]
    fn reset_matches_new() {
        let mut st = ExecState::new(vec![Value::I64(1)], 3);
        st.set_output(OpId(2), vec![Value::I64(9)]);
        st.reset(&[Value::I64(7), Value::I64(8)], 2);
        assert_eq!(st.params(), &[Value::I64(7), Value::I64(8)]);
        assert_eq!(st.num_ops(), 2);
        assert!(st.output(OpId(0)).is_none() && st.output(OpId(1)).is_none());
    }

    #[test]
    fn take_output_moves_the_row_out() {
        let mut st = ExecState::new(vec![], 2);
        st.set_output(OpId(1), vec![Value::I64(9)]);
        assert_eq!(st.take_output(OpId(1)), Some(vec![Value::I64(9)]));
        assert!(st.output(OpId(1)).is_none());
        assert_eq!(st.take_output(OpId(0)), None);
    }
}
