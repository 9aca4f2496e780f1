//! The operation IR for stored procedures.
//!
//! Each operation touches exactly one record. Keys come either from the
//! transaction's input parameters ([`KeyExpr::Param`]) or are computed from
//! the outputs of earlier reads ([`KeyExpr::Computed`]) — the latter is a
//! **primary-key dependency** (pk-dep), the only kind of dependency that
//! constrains lock-acquisition reordering (§3.2). New values may reference
//! any earlier output; those **value dependencies** (v-deps) never constrain
//! reordering because they only matter once the lock is already held.

use crate::exec::ExecState;
use chiller_common::ids::{OpId, TableId};
use chiller_common::value::Row;
use std::fmt;
use std::sync::Arc;

/// Computes a key from run-time state.
pub type KeyFn = Arc<dyn Fn(&ExecState) -> u64 + Send + Sync>;
/// Computes a replacement row from the current row and run-time state.
pub type ApplyFn = Arc<dyn Fn(&Row, &ExecState) -> Row + Send + Sync>;
/// Builds a fresh row for an insert.
pub type RowFn = Arc<dyn Fn(&ExecState) -> Row + Send + Sync>;
/// Integrity check; `Err(reason)` aborts the transaction (logic abort).
pub type GuardFn = Arc<dyn Fn(&ExecState) -> Result<(), &'static str> + Send + Sync>;
/// Resolves a *representative* key from parameters only, for operations
/// whose exact key is not yet known at decision time (e.g. an order-line
/// insert whose o_id comes from reading the district). The representative
/// must land on the same partition as the eventual real key under every
/// placement the workload uses (e.g. same warehouse prefix).
pub type HintFn = Arc<dyn Fn(&ExecState) -> u64 + Send + Sync>;

/// How an operation's primary key is obtained.
#[derive(Clone)]
pub enum KeyExpr {
    /// `params[i]` interpreted as u64: known before execution starts.
    Param(usize),
    /// A key constant baked into the procedure (rare; used in tests).
    Const(u64),
    /// Computed from the outputs of earlier read operations: a pk-dep on
    /// each op in `deps`.
    Computed { deps: Vec<OpId>, f: KeyFn },
}

impl KeyExpr {
    /// Ops this key has a primary-key dependency on.
    pub fn pk_deps(&self) -> &[OpId] {
        match self {
            KeyExpr::Computed { deps, .. } => deps,
            _ => &[],
        }
    }

    /// Resolve the key if all pk-dep outputs are available.
    pub fn resolve(&self, st: &ExecState) -> Option<u64> {
        match self {
            KeyExpr::Param(i) => Some(st.param_u64(*i)),
            KeyExpr::Const(k) => Some(*k),
            KeyExpr::Computed { deps, f } => {
                if deps.iter().all(|d| st.output(*d).is_some()) {
                    Some(f(st))
                } else {
                    None
                }
            }
        }
    }
}

impl fmt::Debug for KeyExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KeyExpr::Param(i) => write!(f, "param[{i}]"),
            KeyExpr::Const(k) => write!(f, "const({k})"),
            KeyExpr::Computed { deps, .. } => write!(f, "computed{deps:?}"),
        }
    }
}

/// What the operation does to its record.
#[derive(Clone)]
pub enum OpKind {
    /// Read the record. `for_update` acquires an exclusive lock up front
    /// (the paper's `read_with_wl`), avoiding an upgrade later.
    Read { for_update: bool },
    /// Read-modify-write: replaces the row via the apply function.
    Update(ApplyFn),
    /// Insert a new record.
    Insert(RowFn),
    /// Delete the record.
    Delete,
}

impl OpKind {
    pub fn is_write(&self) -> bool {
        !matches!(self, OpKind::Read { .. })
    }

    /// Whether execution produces an output row usable by later ops.
    pub fn produces_output(&self) -> bool {
        matches!(self, OpKind::Read { .. } | OpKind::Update(_))
    }
}

impl fmt::Debug for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpKind::Read { for_update: true } => write!(f, "ReadForUpdate"),
            OpKind::Read { for_update: false } => write!(f, "Read"),
            OpKind::Update(_) => write!(f, "Update"),
            OpKind::Insert(_) => write!(f, "Insert"),
            OpKind::Delete => write!(f, "Delete"),
        }
    }
}

/// One operation of a stored procedure.
#[derive(Clone)]
pub struct Op {
    pub id: OpId,
    pub table: TableId,
    pub key: KeyExpr,
    pub kind: OpKind,
    /// Ops whose outputs this op's new *values* reference (v-deps). These do
    /// not constrain lock ordering but do constrain execution order.
    pub value_deps: Vec<OpId>,
    /// Representative key resolvable from params alone, for decision-time
    /// partition lookup when `key` is computed. `None` means the location is
    /// unknown at decision time, which (per §3.3 step 1) disqualifies this
    /// op's pk-parents from the inner region unless co-located by fiat.
    pub home_hint: Option<HintFn>,
    /// Human-readable label for diagnostics ("read flight", "insert seat").
    pub label: &'static str,
}

impl Op {
    /// The partition-relevant key available at decision time, if any:
    /// static keys resolve exactly; computed keys fall back to the hint.
    pub fn decision_key(&self, st: &ExecState) -> Option<u64> {
        match &self.key {
            KeyExpr::Param(i) => Some(st.param_u64(*i)),
            KeyExpr::Const(k) => Some(*k),
            KeyExpr::Computed { .. } => self.home_hint.as_ref().map(|h| h(st)),
        }
    }
}

impl fmt::Debug for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{:?} {} key={:?}",
            self.id, self.kind, self.label, self.key
        )
    }
}

/// An integrity constraint over run-time state. Evaluated as soon as every
/// dep's output is available; failure is a logic abort (the procedure's
/// `else abort` branch).
#[derive(Clone)]
pub struct Guard {
    /// Outputs the predicate reads.
    pub deps: Vec<OpId>,
    pub check: GuardFn,
    pub label: &'static str,
}

impl fmt::Debug for Guard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "guard({}) deps={:?}", self.label, self.deps)
    }
}

/// A registered stored procedure: operations plus precomputed static
/// analysis ([`crate::graph::DepGraph`]). The default is the empty
/// procedure.
#[derive(Clone, Default)]
pub struct Procedure {
    pub name: &'static str,
    pub ops: Vec<Op>,
    pub guards: Vec<Guard>,
    pub graph: crate::graph::DepGraph,
}

impl Procedure {
    pub fn op(&self, id: OpId) -> &Op {
        &self.ops[id.idx()]
    }

    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }
}

impl fmt::Debug for Procedure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "procedure {} ({} ops)", self.name, self.ops.len())?;
        for op in &self.ops {
            writeln!(f, "  {op:?}")?;
        }
        for g in &self.guards {
            writeln!(f, "  {g:?}")?;
        }
        Ok(())
    }
}
