//! Single-producer single-consumer bounded ring (Lamport's classic
//! two-index queue): no CAS anywhere — the producer owns `tail`, the
//! consumer owns `head`, and each side only *reads* the other's index.
//!
//! Both contracts are enforced by ownership: [`Producer`] is not `Clone`
//! and [`Producer::push`] / [`Consumer::pop`] take `&mut self`, so a
//! second concurrent producer (or consumer) cannot be expressed safely.
//! Versus the MPSC ring it saves the claim CAS and the per-slot sequence
//! word.
//!
//! No workspace crate uses this ring any more: `AsyncRuntime`'s mailboxes
//! are all [`crate::mpsc`], and the trace and history logs are plain
//! per-engine `Vec`s. Its only reader is the `ringq.spsc_push_pop_ns`
//! probe in `benchmark/`; once that probe goes, this module can too.
//!
//! # Memory ordering
//!
//! The producer's `Release` store of `tail` publishes the value write it
//! precedes; the consumer's `Acquire` load of `tail` observes it.
//! Symmetrically the consumer's `Release` store of `head` publishes "slot
//! free" to the producer's `Acquire` load. Indices grow monotonically
//! with wrapping arithmetic and power-of-two capacity, so `usize`
//! overflow is harmless (exercised by the property tests).

use crate::{effective_capacity, CachePadded};
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

struct Shared<T> {
    head: CachePadded<AtomicUsize>,
    tail: CachePadded<AtomicUsize>,
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    cap: usize,
}

// SAFETY: values cross from the producer thread to the consumer thread;
// the index protocol gives each slot a single owner at any time.
unsafe impl<T: Send> Send for Shared<T> {}
unsafe impl<T: Send> Sync for Shared<T> {}

impl<T> Drop for Shared<T> {
    fn drop(&mut self) {
        let mut head = *self.head.0.get_mut();
        let tail = *self.tail.0.get_mut();
        while head != tail {
            unsafe {
                self.slots[head & (self.cap - 1)]
                    .get_mut()
                    .assume_init_drop()
            };
            head = head.wrapping_add(1);
        }
    }
}

/// The unique sending endpoint.
pub struct Producer<T> {
    shared: Arc<Shared<T>>,
}

/// The unique receiving endpoint.
pub struct Consumer<T> {
    shared: Arc<Shared<T>>,
}

/// Create a bounded SPSC ring holding at least `capacity` elements
/// (rounded up to a power of two — see the crate docs).
pub fn bounded<T>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    bounded_at(capacity, 0)
}

/// [`bounded`] with the indices starting at `start` instead of zero;
/// behaviour is identical for every `start` (the property tests start
/// near `usize::MAX` to push the wrapping arithmetic through overflow).
pub fn bounded_at<T>(capacity: usize, start: usize) -> (Producer<T>, Consumer<T>) {
    let cap = effective_capacity(capacity);
    let slots: Box<[UnsafeCell<MaybeUninit<T>>]> = (0..cap)
        .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
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
    /// Push a value, never blocking; `Err(val)` hands it back on a full
    /// ring.
    pub fn push(&mut self, val: T) -> Result<(), T> {
        let shared = &*self.shared;
        let tail = shared.tail.0.load(Ordering::Relaxed);
        let head = shared.head.0.load(Ordering::Acquire);
        if tail.wrapping_sub(head) == shared.cap {
            return Err(val);
        }
        // SAFETY: `tail - head < cap` proves this slot is consumed (or
        // never written); we are the only producer.
        unsafe { (*shared.slots[tail & (shared.cap - 1)].get()).write(val) };
        shared.tail.0.store(tail.wrapping_add(1), Ordering::Release);
        Ok(())
    }

    /// Number of elements currently in the ring (racy snapshot).
    pub fn len(&self) -> usize {
        let shared = &*self.shared;
        shared
            .tail
            .0
            .load(Ordering::Relaxed)
            .wrapping_sub(shared.head.0.load(Ordering::Relaxed))
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
    /// Pop the oldest value, or `None` on an empty ring.
    pub fn pop(&mut self) -> Option<T> {
        let shared = &*self.shared;
        let head = shared.head.0.load(Ordering::Relaxed);
        let tail = shared.tail.0.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        // SAFETY: `head != tail` proves the slot is published; we are the
        // only consumer.
        let val = unsafe { (*shared.slots[head & (shared.cap - 1)].get()).assume_init_read() };
        shared.head.0.store(head.wrapping_add(1), Ordering::Release);
        Some(val)
    }

    /// Whether a value is poppable right now (racy snapshot).
    pub fn has_ready(&self) -> bool {
        let shared = &*self.shared;
        shared.head.0.load(Ordering::Relaxed) != shared.tail.0.load(Ordering::Acquire)
    }

    /// Number of elements currently in the ring (racy snapshot).
    pub fn len(&self) -> usize {
        let shared = &*self.shared;
        shared
            .tail
            .0
            .load(Ordering::Relaxed)
            .wrapping_sub(shared.head.0.load(Ordering::Relaxed))
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
    fn fifo_and_full_detection() {
        let (mut tx, mut rx) = bounded(4);
        for i in 0..4 {
            tx.push(i).unwrap();
        }
        assert_eq!(tx.push(9), Err(9));
        for i in 0..4 {
            assert_eq!(rx.pop(), Some(i));
        }
        assert_eq!(rx.pop(), None);
    }

    #[test]
    fn capacity_one_alternates() {
        let (mut tx, mut rx) = bounded(1);
        for i in 0..100 {
            tx.push(i).unwrap();
            assert_eq!(tx.push(i), Err(i));
            assert_eq!(rx.pop(), Some(i));
            assert_eq!(rx.pop(), None);
        }
    }

    #[test]
    fn indices_survive_usize_overflow() {
        let (mut tx, mut rx) = bounded_at(2, usize::MAX);
        for i in 0..32u64 {
            tx.push(i).unwrap();
            assert_eq!(rx.pop(), Some(i));
        }
    }

    #[test]
    fn cross_thread_order_exact() {
        let (mut tx, mut rx) = bounded::<u64>(8);
        let n = 20_000u64;
        std::thread::scope(|s| {
            s.spawn(move || {
                for i in 0..n {
                    let mut v = i;
                    while let Err(back) = tx.push(v) {
                        v = back;
                        std::thread::yield_now();
                    }
                }
            });
            let mut expect = 0u64;
            while expect < n {
                if let Some(v) = rx.pop() {
                    assert_eq!(v, expect, "SPSC ring reordered or lost a value");
                    expect += 1;
                } else {
                    std::thread::yield_now();
                }
            }
        });
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
        let (mut tx, mut rx) = bounded(4);
        for _ in 0..3 {
            tx.push(D).ok().unwrap();
        }
        drop(rx.pop());
        drop(tx);
        drop(rx);
        assert_eq!(DROPS.load(Ordering::SeqCst), 3);
    }
}
