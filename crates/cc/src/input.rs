//! Transaction inputs and the stored-procedure registry.
//!
//! Workload crates implement [`InputSource`] to feed each engine a stream of
//! transaction invocations (the closed-loop driver keeps `concurrency` of
//! them in flight per engine).

use chiller_common::time::SimTime;
use chiller_common::value::Value;
use chiller_sproc::Procedure;
use rand::rngs::StdRng;
use std::sync::Arc;

/// One transaction invocation: which registered procedure, with what
/// parameters.
#[derive(Debug, Clone, Default)]
pub struct TxnInput {
    /// Index into the [`ProcRegistry`].
    pub proc: usize,
    pub params: Vec<Value>,
}

/// The system catalog of compiled stored procedures (§3.2: the dependency
/// graph is built "when registering a new stored procedure in the system").
#[derive(Clone, Default)]
pub struct ProcRegistry {
    procs: Vec<Arc<Procedure>>,
}

impl ProcRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a procedure, returning its index for [`TxnInput::proc`].
    pub fn register(&mut self, p: Procedure) -> usize {
        self.procs.push(Arc::new(p));
        self.procs.len() - 1
    }

    pub fn get(&self, idx: usize) -> &Arc<Procedure> {
        &self.procs[idx]
    }

    pub fn len(&self) -> usize {
        self.procs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.procs.is_empty()
    }
}

/// Produces the next transaction input for an engine. Implementations must
/// be deterministic given the RNG handed in (which is seeded per engine)
/// and the virtual time of the request — `now` lets sources model
/// time-varying workloads (hotspot shifts, diurnal skew) reproducibly.
pub trait InputSource: Send {
    fn next_input(&mut self, rng: &mut StdRng, now: SimTime) -> TxnInput;

    /// Called once per source by the cluster builder, after recovery and
    /// before the first [`next_input`](Self::next_input), with the restart
    /// epoch of the durable directory (0 for a volatile or fresh cluster).
    /// Sources that mint fresh record keys salt their sequences with it so
    /// a restarted incarnation never re-mints a key a dead one inserted.
    fn resume_at_epoch(&mut self, _epoch: u64) {}
}

/// Fixed round-robin over a list of inputs — used by tests.
pub struct ScriptedSource {
    inputs: Vec<TxnInput>,
    next: usize,
}

impl ScriptedSource {
    pub fn new(inputs: Vec<TxnInput>) -> Self {
        assert!(!inputs.is_empty());
        ScriptedSource { inputs, next: 0 }
    }
}

impl InputSource for ScriptedSource {
    fn next_input(&mut self, _rng: &mut StdRng, _now: SimTime) -> TxnInput {
        let input = self.inputs[self.next % self.inputs.len()].clone();
        self.next += 1;
        input
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiller_common::ids::TableId;
    use chiller_common::rng::seeded;
    use chiller_sproc::ProcedureBuilder;

    #[test]
    fn registry_roundtrip() {
        let mut reg = ProcRegistry::new();
        let p = ProcedureBuilder::new("noop")
            .read(TableId(1), 0, "r")
            .build()
            .unwrap();
        let idx = reg.register(p);
        assert_eq!(reg.get(idx).name, "noop");
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn scripted_source_round_robins() {
        let mut src = ScriptedSource::new(vec![
            TxnInput {
                proc: 0,
                params: vec![Value::I64(1)],
            },
            TxnInput {
                proc: 1,
                params: vec![Value::I64(2)],
            },
        ]);
        let mut rng = seeded(0);
        let t = SimTime::ZERO;
        assert_eq!(src.next_input(&mut rng, t).proc, 0);
        assert_eq!(src.next_input(&mut rng, t).proc, 1);
        assert_eq!(src.next_input(&mut rng, t).proc, 0);
    }
}
