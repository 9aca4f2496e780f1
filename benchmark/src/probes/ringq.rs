//! `ringq`: the mailbox rings. MPSC carries the async runtime's
//! messages, SPSC the two-engine threaded runtime's.

use super::ns_per_op;
use std::hint::black_box;

const OPS: u64 = 50_000;
const CAPACITY: usize = 1024;

/// One push and one pop on an MPSC ring, same thread (no contention).
pub fn mpsc_push_pop_ns() -> f64 {
    let (tx, mut rx) = ringq::mpsc::bounded::<u64>(CAPACITY);
    ns_per_op(OPS, || {
        for i in 0..OPS {
            tx.push(black_box(i)).expect("ring has room");
            black_box(rx.pop());
        }
    })
}

/// One item through an MPSC ring from a producer thread to this one:
/// the cost with the cache line actually moving between cores.
pub fn mpsc_xthread_push_pop_ns() -> f64 {
    ns_per_op(OPS, || {
        let (tx, mut rx) = ringq::mpsc::bounded::<u64>(CAPACITY);
        std::thread::scope(|s| {
            s.spawn(move || {
                for i in 0..OPS {
                    let mut item = i;
                    while let Err(back) = tx.push(item) {
                        item = back;
                        std::hint::spin_loop();
                    }
                }
            });
            let mut got = 0;
            while got < OPS {
                match rx.pop() {
                    Some(v) => {
                        black_box(v);
                        got += 1;
                    }
                    None => std::hint::spin_loop(),
                }
            }
        });
    })
}

/// One push and one pop on an SPSC ring, same thread.
pub fn spsc_push_pop_ns() -> f64 {
    let (mut tx, mut rx) = ringq::spsc::bounded::<u64>(CAPACITY);
    ns_per_op(OPS, || {
        for i in 0..OPS {
            tx.push(black_box(i)).expect("ring has room");
            black_box(rx.pop());
        }
    })
}
