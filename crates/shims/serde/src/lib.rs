//! Offline stand-in for `serde`: a small self-contained [`json`] module —
//! a recursive-descent JSON parser and renderer used to
//! round-trip-validate the JSON this workspace emits by hand (bench result
//! files, Chrome trace exports — DESIGN §13). Nothing in the workspace
//! derives serde's traits, so the shim does not define them.

pub mod json;
