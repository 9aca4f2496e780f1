//! Multi-producer single-consumer bounded ring on the sequence-slot
//! protocol (Vyukov's bounded MPMC queue, as vendored by crossbeam's
//! `ArrayQueue`, restricted here to one consumer).
//!
//! # The slot protocol
//!
//! Every push claims a *ticket* — a monotonically increasing `usize` taken
//! from `tail` with one CAS — and every pop consumes the next unconsumed
//! ticket from `head`. Ticket `t` lives in slot `t & (cap - 1)`; the
//! slot's `seq` field encodes its state relative to `t` (all arithmetic is
//! wrapping, compared via `wrapping_sub as isize`, so the protocol
//! survives `usize` overflow). Sequences advance at *stride 2* per ticket
//! so the three states stay distinct even at capacity 1, where Vyukov's
//! original stride-1 encoding collides (`t + 1 == t + cap`):
//!
//! | `seq` value        | meaning                                        |
//! |--------------------|------------------------------------------------|
//! | `2t`               | empty, ready for the producer holding ticket `t` |
//! | `2t + 1`           | full: value for ticket `t` published           |
//! | `2(t + cap)`       | empty again, ready for ticket `t + cap` (next lap) |
//!
//! No intermediate state exists — the producer writes the value *before*
//! the `seq = 2t + 1` release store. A producer that sees `seq < 2t` on
//! its candidate slot is a full lap
//! ahead of the consumer: the queue is full (it re-reads `tail` once to
//! distinguish a stale ticket from a genuinely full ring). A consumer
//! that sees `seq != 2·head + 1` reports "nothing poppable": either the
//! ring is empty or the producer holding ticket `head` has claimed but
//! not yet published — and because tickets are consumed **in order**, the
//! consumer waits for that ticket rather than skipping ahead. That stall
//! is what makes pop order equal global ticket order, the property
//! `AsyncRuntime`'s mailboxes need (DESIGN.md §11).
//!
//! # Memory ordering
//!
//! The value write is published by a `Release` store of `seq = 2t + 1`
//! and observed through the consumer's `Acquire` load of `seq`;
//! symmetrically the consumer's `Release` store of `seq = 2(t + cap)`
//! publishes "slot reusable" to the producer's `Acquire` load.
//! `head`/`tail` themselves only need `Relaxed`: they order nothing — all
//! value visibility flows through the slot sequences.

use crate::{effective_capacity, CachePadded};
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

struct Slot<T> {
    seq: AtomicUsize,
    val: UnsafeCell<MaybeUninit<T>>,
}

struct Shared<T> {
    /// Next ticket to consume. Written only by the (single) consumer.
    head: CachePadded<AtomicUsize>,
    /// Next ticket to claim. CAS-advanced by producers.
    tail: CachePadded<AtomicUsize>,
    slots: Box<[Slot<T>]>,
    /// Power-of-two slot count; `mask = cap - 1`.
    cap: usize,
}

// SAFETY: values of `T` cross threads through the slots (producer writes,
// consumer reads), so `T: Send` is required and sufficient; the slot
// protocol guarantees exclusive access to each slot's `UnsafeCell` between
// the claiming producer and the consuming pop.
unsafe impl<T: Send> Send for Shared<T> {}
unsafe impl<T: Send> Sync for Shared<T> {}

/// Sequence value meaning "slot empty, ready for ticket `t`".
#[inline]
fn seq_ready(t: usize) -> usize {
    t.wrapping_mul(2)
}

/// Sequence value meaning "value for ticket `t` published".
#[inline]
fn seq_full(t: usize) -> usize {
    t.wrapping_mul(2).wrapping_add(1)
}

impl<T> Shared<T> {
    #[inline]
    fn slot(&self, ticket: usize) -> &Slot<T> {
        &self.slots[ticket & (self.cap - 1)]
    }
}

impl<T> Drop for Shared<T> {
    fn drop(&mut self) {
        // Exclusive access (`&mut self`): drain with plain loads. No push
        // can be mid-flight — claim and publish happen inside one call.
        let mut head = *self.head.0.get_mut();
        let tail = *self.tail.0.get_mut();
        while head != tail {
            let idx = head & (self.cap - 1);
            let slot = &mut self.slots[idx];
            if *slot.seq.get_mut() == seq_full(head) {
                unsafe { slot.val.get_mut().assume_init_drop() };
            }
            head = head.wrapping_add(1);
        }
    }
}

/// Sending endpoint. Cloneable — any number of threads may hold one.
pub struct Producer<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Clone for Producer<T> {
    fn clone(&self) -> Self {
        Producer {
            shared: self.shared.clone(),
        }
    }
}

/// Receiving endpoint. Deliberately **not** `Clone`: the pop path advances
/// `head` with a plain store, which is sound only because ownership of
/// this endpoint proves there is exactly one consumer.
pub struct Consumer<T> {
    shared: Arc<Shared<T>>,
}

/// Create a bounded MPSC ring holding at least `capacity` elements
/// (rounded up to a power of two — see the crate docs).
pub fn bounded<T>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    bounded_at(capacity, 0)
}

/// [`bounded`], but with the ticket counters starting at `start` instead
/// of zero. Behaviour is identical for every `start`; the property tests
/// use values near `usize::MAX` to drive the wrapping arithmetic through
/// overflow within a few operations.
pub fn bounded_at<T>(capacity: usize, start: usize) -> (Producer<T>, Consumer<T>) {
    let cap = effective_capacity(capacity);
    // Slot `j`'s first ticket is the smallest `t >= start` (wrapping) with
    // `t & (cap - 1) == j`; its initial `seq` marks it ready for that ticket.
    let offset = start & (cap - 1);
    let slots: Box<[Slot<T>]> = (0..cap)
        .map(|j| {
            let delta = j.wrapping_sub(offset) & (cap - 1);
            Slot {
                seq: AtomicUsize::new(seq_ready(start.wrapping_add(delta))),
                val: UnsafeCell::new(MaybeUninit::uninit()),
            }
        })
        .collect();
    let shared = Arc::new(Shared {
        head: CachePadded(AtomicUsize::new(start)),
        tail: CachePadded(AtomicUsize::new(start)),
        slots,
        cap,
    });
    (
        Producer {
            shared: shared.clone(),
        },
        Consumer { shared },
    )
}

impl<T> Producer<T> {
    /// Push a value, never blocking. `Err(val)` hands the value back when
    /// the ring is full. On success the value is visible to the consumer
    /// in global ticket order (see the module docs).
    pub fn push(&self, val: T) -> Result<(), T> {
        let shared = &*self.shared;
        let mut tail = shared.tail.0.load(Ordering::Relaxed);
        loop {
            let slot = shared.slot(tail);
            let seq = slot.seq.load(Ordering::Acquire);
            let diff = seq.wrapping_sub(seq_ready(tail)) as isize;
            if diff == 0 {
                // Slot is ready for ticket `tail`; try to claim it.
                match shared.tail.0.compare_exchange_weak(
                    tail,
                    tail.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // Claimed: the slot is exclusively ours until the
                        // release store below publishes it.
                        unsafe { (*slot.val.get()).write(val) };
                        slot.seq.store(seq_full(tail), Ordering::Release);
                        return Ok(());
                    }
                    Err(current) => tail = current,
                }
            } else if diff < 0 {
                // The slot still holds last lap's value: the ring looks
                // full. Re-read `tail` to distinguish "our ticket went
                // stale while we looked" from "genuinely full".
                let current = shared.tail.0.load(Ordering::Relaxed);
                if current == tail {
                    return Err(val);
                }
                tail = current;
            } else {
                // Another producer claimed this ticket first; catch up.
                tail = shared.tail.0.load(Ordering::Relaxed);
            }
        }
    }

    /// Number of elements currently in the ring (racy snapshot).
    pub fn len(&self) -> usize {
        let shared = &*self.shared;
        let tail = shared.tail.0.load(Ordering::Relaxed);
        let head = shared.head.0.load(Ordering::Relaxed);
        tail.wrapping_sub(head).min(shared.cap)
    }

    /// Whether the ring currently holds no elements (racy snapshot).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The power-of-two capacity actually allocated.
    pub fn capacity(&self) -> usize {
        self.shared.cap
    }
}

impl<T> Consumer<T> {
    /// Pop the next value in global ticket order, or `None` when nothing
    /// is poppable right now (empty ring, or the in-order producer has
    /// claimed its ticket but not yet published — the pop waits for *that*
    /// ticket rather than reordering past it).
    pub fn pop(&mut self) -> Option<T> {
        let shared = &*self.shared;
        let head = shared.head.0.load(Ordering::Relaxed);
        let slot = shared.slot(head);
        let seq = slot.seq.load(Ordering::Acquire);
        if seq != seq_full(head) {
            return None;
        }
        // SAFETY: `seq == seq_full(head)` proves the ticket-`head` value
        // is published and unconsumed; we are the only consumer.
        let val = unsafe { (*slot.val.get()).assume_init_read() };
        // Hand the slot to the producer of ticket `head + cap` (next lap).
        slot.seq
            .store(seq_ready(head.wrapping_add(shared.cap)), Ordering::Release);
        shared.head.0.store(head.wrapping_add(1), Ordering::Relaxed);
        Some(val)
    }

    /// Whether a value is poppable right now. A conservative signal for
    /// the park/sleep decision: `false` may become `true` at any moment.
    pub fn has_ready(&self) -> bool {
        let shared = &*self.shared;
        let head = shared.head.0.load(Ordering::Relaxed);
        shared.slot(head).seq.load(Ordering::Acquire) == seq_full(head)
    }

    /// Number of elements currently in the ring (racy snapshot).
    pub fn len(&self) -> usize {
        let shared = &*self.shared;
        let tail = shared.tail.0.load(Ordering::Relaxed);
        let head = shared.head.0.load(Ordering::Relaxed);
        tail.wrapping_sub(head).min(shared.cap)
    }

    /// Whether the ring currently holds no elements (racy snapshot).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The power-of-two capacity actually allocated.
    pub fn capacity(&self) -> usize {
        self.shared.cap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_within_capacity() {
        let (tx, mut rx) = bounded(8);
        for i in 0..8 {
            tx.push(i).unwrap();
        }
        assert_eq!(tx.push(99), Err(99), "ninth push must report full");
        for i in 0..8 {
            assert_eq!(rx.pop(), Some(i));
        }
        assert_eq!(rx.pop(), None);
    }

    #[test]
    fn capacity_one_alternates() {
        let (tx, mut rx) = bounded(1);
        for i in 0..100 {
            tx.push(i).unwrap();
            assert_eq!(tx.push(i), Err(i), "capacity-1 ring full after one push");
            assert!(rx.has_ready());
            assert_eq!(rx.pop(), Some(i));
            assert!(!rx.has_ready());
            assert_eq!(rx.pop(), None);
        }
    }

    #[test]
    fn wraps_many_laps() {
        let (tx, mut rx) = bounded(4);
        for lap in 0u64..1000 {
            for i in 0..4 {
                tx.push(lap * 4 + i).unwrap();
            }
            for i in 0..4 {
                assert_eq!(rx.pop(), Some(lap * 4 + i));
            }
        }
    }

    #[test]
    fn ticket_counters_survive_usize_overflow() {
        let (tx, mut rx) = bounded_at(4, usize::MAX.wrapping_sub(1));
        for i in 0..64u64 {
            tx.push(i).unwrap();
            assert_eq!(rx.pop(), Some(i));
        }
        for i in 0..4u64 {
            tx.push(i).unwrap();
        }
        assert!(tx.push(9).is_err());
        for i in 0..4u64 {
            assert_eq!(rx.pop(), Some(i));
        }
    }

    #[test]
    fn drop_releases_unconsumed_values() {
        use std::sync::atomic::AtomicUsize;
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        let (tx, mut rx) = bounded(8);
        for _ in 0..5 {
            tx.push(D).ok().unwrap();
        }
        drop(rx.pop()); // one consumed
        drop(tx);
        drop(rx);
        assert_eq!(DROPS.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn multi_producer_preserves_per_producer_order() {
        let (tx, mut rx) = bounded::<(usize, u64)>(64);
        let producers = 4;
        let per = 2_000u64;
        std::thread::scope(|s| {
            for p in 0..producers {
                let tx = tx.clone();
                s.spawn(move || {
                    for i in 0..per {
                        let mut v = (p, i);
                        while let Err(back) = tx.push(v) {
                            v = back;
                            std::thread::yield_now();
                        }
                    }
                });
            }
            let mut last = vec![None::<u64>; producers];
            let mut got = 0u64;
            while got < producers as u64 * per {
                if let Some((p, i)) = rx.pop() {
                    got += 1;
                    assert!(
                        last[p].map_or(i == 0, |prev| i == prev + 1),
                        "producer {p} reordered: {:?} then {i}",
                        last[p]
                    );
                    last[p] = Some(i);
                } else {
                    std::thread::yield_now();
                }
            }
        });
        assert_eq!(rx.pop(), None);
    }

    /// Ticket order is arrival order across producers: when producer B's
    /// push starts after producer A's push returned, B's value pops after
    /// A's. (This is the cross-sender FIFO `AsyncRuntime`'s mailboxes
    /// need.)
    #[test]
    fn cross_producer_arrival_order_is_pop_order() {
        let (tx, mut rx) = bounded::<u32>(16);
        let tx2 = tx.clone();
        tx.push(1).unwrap(); // A completes...
        std::thread::scope(|s| {
            s.spawn(move || tx2.push(2).unwrap()); // ...before B starts.
        });
        assert_eq!(rx.pop(), Some(1));
        assert_eq!(rx.pop(), Some(2));
    }
}
