//! Hotspot-*shifting* workload wrappers.
//!
//! The paper's §4 pipeline freezes the layout from an offline trace; the
//! adaptive subsystem exists for workloads whose hotspot drifts (flash
//! sales, time-of-day skew, trending products). [`ShiftedSource`] wraps any
//! [`InputSource`] and, from a configured instant of virtual time onward,
//! rewrites each generated input's parameters — deterministically, since
//! engines pass the virtual clock into `next_input`. The shift moves the
//! *popularity distribution* to a different key range while the underlying
//! generator (and its RNG stream) is untouched, so pre- and post-shift
//! phases are statistically identical up to relabeling.

use chiller::prelude::*;
use rand::rngs::StdRng;

/// Parameter rewriter applied to every input generated at or after the
/// shift instant.
pub type Remap = Box<dyn Fn(&mut TxnInput) + Send>;

/// An [`InputSource`] whose output is remapped after `shift_at`.
pub struct ShiftedSource<S: InputSource> {
    inner: S,
    shift_at: SimTime,
    remap: Remap,
}

impl<S: InputSource> ShiftedSource<S> {
    pub fn new(
        inner: S,
        shift_at: SimTime,
        remap: impl Fn(&mut TxnInput) + Send + 'static,
    ) -> Self {
        ShiftedSource {
            inner,
            shift_at,
            remap: Box::new(remap),
        }
    }
}

impl<S: InputSource> InputSource for ShiftedSource<S> {
    fn next_input(&mut self, rng: &mut StdRng, now: SimTime) -> TxnInput {
        let mut input = self.inner.next_input(rng, now);
        if now >= self.shift_at {
            (self.remap)(&mut input);
        }
        input
    }

    fn resume_at_epoch(&mut self, epoch: u64) {
        self.inner.resume_at_epoch(epoch);
    }
}

/// Remap rotating a key parameter by `rotate` modulo `modulus`.
#[inline]
pub fn rotate_key(value: &Value, rotate: u64, modulus: u64) -> Value {
    Value::from((value.as_i64() as u64 + rotate) % modulus)
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiller_common::rng::seeded;

    struct Fixed;
    impl InputSource for Fixed {
        fn next_input(&mut self, _rng: &mut StdRng, _now: SimTime) -> TxnInput {
            TxnInput {
                proc: 0,
                params: vec![Value::from(3u64), Value::from(9u64)],
            }
        }
    }

    #[test]
    fn remap_applies_only_after_shift() {
        let mut src = ShiftedSource::new(Fixed, SimTime::from_micros(10), |input| {
            for p in &mut input.params {
                *p = rotate_key(p, 100, 1_000);
            }
        });
        let mut rng = seeded(1);
        let before = src.next_input(&mut rng, SimTime::from_micros(9));
        assert_eq!(before.params[0].as_i64(), 3);
        let at = src.next_input(&mut rng, SimTime::from_micros(10));
        assert_eq!(at.params[0].as_i64(), 103);
        assert_eq!(at.params[1].as_i64(), 109);
    }

    #[test]
    fn rotation_wraps_modulus() {
        assert_eq!(rotate_key(&Value::from(900u64), 150, 1_000).as_i64(), 50);
    }
}
