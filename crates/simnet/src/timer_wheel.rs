//! A coarse hashed timer wheel for the worker pool's per-worker timer
//! path.
//!
//! The wheel keeps the data-structure costs flat — O(1) arm, O(slots
//! visited) expiry — and exposes an exact [`TimerWheel::next_due`] bound
//! that an idle worker parks until (see `async_rt.rs`).
//!
//! ## Structure
//!
//! Time is divided into ticks of `granularity_ns`. A timer due at `d`
//! hashes to slot `(d / granularity_ns) % slots.len()`; far-future timers
//! share slots with near ones and are simply skipped (kept in place) when
//! their slot is visited before they are due — the classic "hashed wheel
//! with unbounded interval" scheme, chosen over a hierarchical wheel
//! because engines arm few, short, retry-backoff-scale timers.
//!
//! ## Ordering contract
//!
//! [`TimerWheel::pop_expired`] returns every entry due at or before `now`,
//! sorted by `(due, arm-sequence)` — the same order a min-heap pops them —
//! so replacing the heap cannot reorder same-instant timers (FIFO among
//! equal due times is part of the backend's documented behavior). A timer
//! never fires early; lateness is bounded by how often the owner calls
//! [`TimerWheel::pop_expired`], not by the wheel itself.

/// Default tick width. 16µs is comfortably finer than the OS sleep
/// granularity an idle worker wakes at, and coarse enough that a
/// retry-backoff timer rarely spans more than a few ticks.
pub const DEFAULT_GRANULARITY_NS: u64 = 16_384;

/// Default slot count: with the default granularity the wheel spans ~4ms
/// per revolution, several times the longest backoff the engines arm.
pub const DEFAULT_SLOTS: usize = 256;

/// One armed timer: absolute due time, arm sequence (FIFO tiebreak for
/// equal due times), and the opaque token handed back to the actor.
#[derive(Debug, Clone, Copy)]
struct Entry {
    due: u64,
    seq: u64,
    token: u64,
}

/// A hashed timer wheel over absolute nanosecond deadlines. See the
/// module docs for the design and the ordering contract.
#[derive(Debug)]
pub struct TimerWheel {
    slots: Vec<Vec<Entry>>,
    granularity_ns: u64,
    /// Next tick to visit; never ahead of any armed entry's tick.
    cursor: u64,
    /// Armed entries across all slots.
    len: usize,
    /// Monotone arm counter (FIFO among equal due times).
    seq: u64,
    /// Exact earliest due among armed entries (`u64::MAX` when empty).
    earliest: u64,
}

impl Default for TimerWheel {
    fn default() -> Self {
        Self::new(DEFAULT_GRANULARITY_NS, DEFAULT_SLOTS)
    }
}

impl TimerWheel {
    /// Build a wheel with `slots` ticks of `granularity_ns` each per
    /// revolution.
    pub fn new(granularity_ns: u64, slots: usize) -> Self {
        assert!(granularity_ns >= 1, "granularity must be positive");
        assert!(slots >= 1, "need at least one slot");
        TimerWheel {
            slots: vec![Vec::new(); slots],
            granularity_ns,
            cursor: 0,
            len: 0,
            seq: 0,
            earliest: u64::MAX,
        }
    }

    /// Number of armed timers.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no timer is armed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Arm a timer due at absolute time `due` (ns). O(1).
    pub fn insert(&mut self, due: u64, token: u64) {
        self.seq += 1;
        let entry = Entry {
            due,
            seq: self.seq,
            token,
        };
        let tick = due / self.granularity_ns;
        let slot = (tick % self.slots.len() as u64) as usize;
        self.slots[slot].push(entry);
        self.len += 1;
        self.earliest = self.earliest.min(due);
    }

    /// Exact earliest due time among armed timers, or `None` when empty.
    /// Safe to sleep until: no armed timer is due before it.
    pub fn next_due(&self) -> Option<u64> {
        if self.len == 0 {
            None
        } else {
            Some(self.earliest)
        }
    }

    /// Remove every entry due at or before `now` and append them to `out`
    /// as `(due, token)`, sorted by `(due, arm-sequence)`. Returns the
    /// number of expired entries.
    pub fn pop_expired(&mut self, now: u64, out: &mut Vec<(u64, u64)>) -> usize {
        let target = now / self.granularity_ns;
        if self.len == 0 || self.earliest > now {
            // Nothing can be due; still advance the cursor so future
            // visits start from the current tick.
            self.cursor = self.cursor.max(target);
            return 0;
        }
        let start = out.len();
        let n_slots = self.slots.len() as u64;
        // Walk from the earliest armed tick (`insert` accepts any due time,
        // so an entry can sit behind the cursor) to the current tick; a full
        // revolution touches every slot, so cap the walk there.
        let first = self.cursor.min(self.earliest / self.granularity_ns);
        let ticks = (target - first + 1).min(n_slots);
        let mut expired: Vec<Entry> = Vec::new();
        for t in first..first + ticks {
            let slot = (t % n_slots) as usize;
            let entries = &mut self.slots[slot];
            let mut i = 0;
            while i < entries.len() {
                if entries[i].due <= now {
                    expired.push(entries.swap_remove(i));
                } else {
                    i += 1;
                }
            }
        }
        self.cursor = target;
        self.len -= expired.len();
        expired.sort_unstable_by_key(|e| (e.due, e.seq));
        out.extend(expired.iter().map(|e| (e.due, e.token)));
        // Recompute the exact earliest bound over the survivors.
        self.earliest = self
            .slots
            .iter()
            .flatten()
            .map(|e| e.due)
            .min()
            .unwrap_or(u64::MAX);
        out.len() - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// Reference implementation: the min-heap the wheel replaced.
    struct HeapTimers {
        heap: BinaryHeap<Reverse<(u64, u64, u64)>>,
        seq: u64,
    }

    impl HeapTimers {
        fn new() -> Self {
            HeapTimers {
                heap: BinaryHeap::new(),
                seq: 0,
            }
        }
        fn insert(&mut self, due: u64, token: u64) {
            self.seq += 1;
            self.heap.push(Reverse((due, self.seq, token)));
        }
        fn pop_expired(&mut self, now: u64, out: &mut Vec<(u64, u64)>) {
            while let Some(Reverse((due, _, token))) = self.heap.peek().copied() {
                if due > now {
                    break;
                }
                self.heap.pop();
                out.push((due, token));
            }
        }
    }

    /// Deterministic pseudo-random stream (no external rand dependency
    /// needed at this layer).
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn fires_in_heap_order() {
        // The wheel must pop the exact sequence the heap would, for any
        // interleaving of arms and expiry sweeps.
        let mut wheel = TimerWheel::new(1_000, 16);
        let mut heap = HeapTimers::new();
        let mut rng = 0x5EED_u64;
        let mut now = 0u64;
        let mut wheel_out = Vec::new();
        let mut heap_out = Vec::new();
        for round in 0..200 {
            // Arm a burst of timers at pseudo-random offsets, including
            // duplicates of the same due time (FIFO tiebreak must match).
            for _ in 0..(xorshift(&mut rng) % 5) {
                let due = now + xorshift(&mut rng) % 50_000;
                let token = round;
                wheel.insert(due, token);
                heap.insert(due, token);
            }
            now += xorshift(&mut rng) % 20_000;
            wheel.pop_expired(now, &mut wheel_out);
            heap.pop_expired(now, &mut heap_out);
            assert_eq!(wheel_out, heap_out, "diverged at now={now}");
        }
        // Drain the stragglers.
        now += 1_000_000;
        wheel.pop_expired(now, &mut wheel_out);
        heap.pop_expired(now, &mut heap_out);
        assert_eq!(wheel_out, heap_out);
        assert!(wheel.is_empty());
        assert!(wheel_out.len() > 100, "test must actually fire timers");
    }

    #[test]
    fn same_due_timers_fire_in_arm_order() {
        let mut wheel = TimerWheel::new(1_000, 8);
        for token in 0..50 {
            wheel.insert(7_777, token);
        }
        let mut out = Vec::new();
        wheel.pop_expired(10_000, &mut out);
        let tokens: Vec<u64> = out.iter().map(|&(_, t)| t).collect();
        assert_eq!(tokens, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn never_fires_early() {
        let mut wheel = TimerWheel::default();
        let mut rng = 0xABCD_u64;
        for _ in 0..500 {
            wheel.insert(xorshift(&mut rng) % 10_000_000, 0);
        }
        let mut now = 0;
        let mut out = Vec::new();
        while !wheel.is_empty() {
            now += 100_000;
            out.clear();
            wheel.pop_expired(now, &mut out);
            for &(due, _) in &out {
                assert!(due <= now, "fired {due} early at {now}");
            }
        }
    }

    #[test]
    fn far_future_timers_survive_revolutions() {
        // A timer many revolutions out shares a slot with near timers and
        // must stay armed until actually due.
        let mut wheel = TimerWheel::new(1_000, 8); // 8µs revolution
        wheel.insert(100_000, 42); // 12.5 revolutions out
        wheel.insert(500, 1);
        let mut out = Vec::new();
        for step in 1..=120 {
            out.clear();
            wheel.pop_expired(step * 1_000, &mut out);
            for &(_, t) in &out {
                assert!(t != 42 || step * 1_000 >= 100_000, "fired early");
            }
        }
        assert!(wheel.is_empty(), "both timers fired eventually");
    }

    #[test]
    fn past_due_insert_fires_on_next_sweep() {
        let mut wheel = TimerWheel::default();
        let mut out = Vec::new();
        wheel.pop_expired(1_000_000, &mut out); // advance the cursor
        wheel.insert(999_999, 7); // due in the past relative to the cursor
        wheel.pop_expired(1_000_001, &mut out);
        assert_eq!(out, vec![(999_999, 7)]);
    }

    #[test]
    fn next_due_is_exact_and_safe_to_sleep_until() {
        let mut wheel = TimerWheel::default();
        assert_eq!(wheel.next_due(), None);
        wheel.insert(5_000_000, 1);
        wheel.insert(3_000_000, 2);
        assert_eq!(wheel.next_due(), Some(3_000_000));
        let mut out = Vec::new();
        wheel.pop_expired(3_000_000, &mut out);
        assert_eq!(out, vec![(3_000_000, 2)]);
        // After a pop the bound is recomputed over the survivors.
        assert_eq!(wheel.next_due(), Some(5_000_000));
    }
}
