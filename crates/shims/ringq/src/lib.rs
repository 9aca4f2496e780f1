//! Offline stand-in for crossbeam-style lock-free bounded queues.
//!
//! The build environment cannot fetch crates.io, so this crate vendors two
//! fixed-capacity lock-free rings. The MPSC ring is the mailbox of the
//! wall-clock runtime (`chiller_simnet::AsyncRuntime`, DESIGN.md §11):
//!
//! * [`mpsc`] — a multi-producer single-consumer bounded ring using the
//!   Vyukov / crossbeam-`ArrayQueue` *sequence-slot* protocol: every slot
//!   carries an `AtomicUsize` sequence number that encodes, at once, which
//!   "lap" of the ring the slot is on and whether it holds a value. Pushes
//!   claim a monotonically increasing ticket with one CAS; pops consume
//!   tickets in order, so the consumer observes messages in *global
//!   ticket order* — exactly the cross-producer arrival ordering a
//!   `std::sync::mpsc` channel provides, without its mutex.
//! * [`spsc`] — a single-producer single-consumer Lamport ring: two
//!   indices, no CAS at all. Nothing in the workspace uses it; it stays
//!   only for the benchmark's `ringq.spsc_push_pop_ns` probe.
//!
//! Both hand out owned `Producer`/`Consumer` endpoints so the
//! single-consumer (and, for SPSC, single-producer) contracts are enforced
//! by ownership rather than by convention; all `unsafe` is contained here.
//!
//! Capacities are rounded up to the next power of two: with power-of-two
//! capacities the `ticket & (cap - 1)` slot mapping stays consistent even
//! across `usize` wraparound, which the property tests exercise by
//! starting rings at tickets near `usize::MAX` (see `tests/props.rs`).

#![warn(missing_docs)]

pub mod mpsc;
pub mod spsc;

/// Pad-and-align wrapper keeping hot atomics on their own cache line, so
/// producer-side (tail) and consumer-side (head) traffic do not false-share.
#[derive(Debug, Default)]
#[repr(align(64))]
pub(crate) struct CachePadded<T>(pub(crate) T);

/// Round a requested capacity up to the power of two actually allocated.
/// Zero is rejected — a ring must hold at least one element.
pub(crate) fn effective_capacity(requested: usize) -> usize {
    assert!(requested >= 1, "ring capacity must be at least 1");
    requested
        .checked_next_power_of_two()
        .expect("ring capacity overflows usize")
}

#[cfg(test)]
mod tests {
    use super::effective_capacity;

    #[test]
    fn capacities_round_up_to_powers_of_two() {
        assert_eq!(effective_capacity(1), 1);
        assert_eq!(effective_capacity(2), 2);
        assert_eq!(effective_capacity(3), 4);
        assert_eq!(effective_capacity(1000), 1024);
        assert_eq!(effective_capacity(1024), 1024);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_capacity_rejected() {
        effective_capacity(0);
    }
}
