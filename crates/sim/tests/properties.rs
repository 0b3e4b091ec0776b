//! Property-based tests for the simulation kernel.

use proptest::prelude::*;
use rfd_sim::{event_key, DetRng, HeapScheduler, SimDuration, SimTime, TimerWheel};

/// Pops both queues to exhaustion, requiring identical streams.
fn drain_both<E: PartialEq + std::fmt::Debug>(
    wheel: &mut TimerWheel<E>,
    heap: &mut HeapScheduler<E>,
) -> Result<(), TestCaseError> {
    loop {
        let a = wheel.pop_keyed();
        let b = heap.pop_keyed();
        prop_assert_eq!(&a, &b);
        if a.is_none() {
            return Ok(());
        }
    }
}

proptest! {
    /// Events always pop in non-decreasing time order, regardless of the
    /// insertion order.
    #[test]
    fn wheel_pops_sorted(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
        let mut w = TimerWheel::new();
        for (i, &t) in times.iter().enumerate() {
            w.schedule_keyed(SimTime::from_micros(t), i as u64, i);
        }
        let mut last = SimTime::ZERO;
        let mut count = 0;
        while let Some((at, _, _)) = w.pop_keyed() {
            prop_assert!(at >= last);
            last = at;
            count += 1;
        }
        prop_assert_eq!(count, times.len());
    }

    /// Among events with equal timestamps, delivery follows the key,
    /// not the insertion order.
    #[test]
    fn wheel_equal_times_key_order(n in 1u64..100, t in 0u64..1_000, stride in 1u64..97) {
        // `stride` is coprime to the prime 101, so `k * stride % 101`
        // visits n distinct keys in scrambled order.
        let mut w = TimerWheel::new();
        for k in 0..n {
            let key = k * stride % 101;
            w.schedule_keyed(SimTime::from_micros(t), key, key);
        }
        let popped: Vec<u64> = std::iter::from_fn(|| w.pop_keyed().map(|(_, _, e)| e)).collect();
        let mut expect = popped.clone();
        expect.sort_unstable();
        prop_assert_eq!(popped.len() as u64, n);
        prop_assert_eq!(popped, expect);
    }

    /// Two engines with identical seeds and schedules produce identical
    /// random draw sequences (determinism).
    #[test]
    fn rng_determinism(seed in any::<u64>(), draws in 1usize..200) {
        let mut a = DetRng::from_seed(seed);
        let mut b = DetRng::from_seed(seed);
        for _ in 0..draws {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    /// Uniform duration draws stay within bounds.
    #[test]
    fn rng_duration_in_bounds(seed in any::<u64>(), lo in 0u64..1000, span in 0u64..1000) {
        let mut rng = DetRng::from_seed(seed);
        let lo_d = SimDuration::from_micros(lo);
        let hi_d = SimDuration::from_micros(lo + span);
        for _ in 0..50 {
            let d = rng.duration_between(lo_d, hi_d);
            prop_assert!(d >= lo_d && d <= hi_d);
        }
    }

    /// SimTime arithmetic: (t + d) - d == t and ordering is preserved
    /// under shifting.
    #[test]
    fn time_arithmetic_consistent(t in 0u64..u64::MAX / 4, d in 0u64..u64::MAX / 4) {
        let time = SimTime::from_micros(t);
        let dur = SimDuration::from_micros(d);
        prop_assert_eq!((time + dur) - dur, time);
        prop_assert_eq!((time + dur) - time, dur);
        prop_assert!(time + dur >= time);
    }

    /// Differential test: the keyed [`TimerWheel`] and the reference
    /// [`HeapScheduler`] deliver identical `(time, key, payload)`
    /// streams under randomized interleavings of schedule and pop.
    /// Keys are canonical [`event_key`]s from a handful of sources, so
    /// same-time ties are common and resolve by key, not insertion
    /// order.
    #[test]
    fn wheel_matches_heap_reference(
        ops in proptest::collection::vec(
            (0u8..8, 0u64..40, 0u32..8),
            1..300,
        )
    ) {
        let mut wheel = TimerWheel::new();
        let mut heap = HeapScheduler::new();
        let mut seqs = [0u64; 8];
        let mut next_payload = 0usize;
        for (sel, t_raw, src) in ops {
            if sel < 6 {
                // Mix a coarse palette (multiples of 250 ms, forcing
                // ties) with irregular fine-grained deadlines that
                // straddle wheel rotation boundaries.
                let at = if sel < 3 {
                    SimTime::from_micros(t_raw * 250_000)
                } else {
                    SimTime::from_micros(t_raw * 77_251)
                };
                let key = event_key(src, seqs[src as usize]);
                seqs[src as usize] += 1;
                wheel.schedule_keyed(at, key, next_payload);
                heap.schedule_keyed(at, key, next_payload);
                next_payload += 1;
            } else {
                prop_assert_eq!(wheel.pop_keyed(), heap.pop_keyed());
            }
            prop_assert_eq!(wheel.len(), heap.len());
            prop_assert_eq!(wheel.peek_time(), heap.peek_time());
        }
        drain_both(&mut wheel, &mut heap)?;
    }

    /// Same differential, but with timestamps spanning every wheel
    /// level and beyond its 76-hour top rotation (overflow map), plus
    /// behind-cursor inserts after pops.
    #[test]
    fn wheel_matches_heap_across_levels_and_overflow(
        ops in proptest::collection::vec(
            (0u8..6, 0u64..64, 0u32..46),
            1..200,
        )
    ) {
        let mut wheel = TimerWheel::new();
        let mut heap = HeapScheduler::new();
        for (i, (sel, mant, shift)) in ops.into_iter().enumerate() {
            if sel < 4 {
                // mant << shift sweeps from microseconds to ~2000 hours,
                // crossing every level boundary and into overflow.
                let at = SimTime::from_micros(mant << shift.min(45));
                // Keys descend with insertion so ties pop newest first.
                let key = u64::MAX - i as u64;
                wheel.schedule_keyed(at, key, (mant, shift));
                heap.schedule_keyed(at, key, (mant, shift));
            } else {
                prop_assert_eq!(wheel.pop_keyed(), heap.pop_keyed());
            }
            prop_assert_eq!(wheel.len(), heap.len());
        }
        drain_both(&mut wheel, &mut heap)?;
    }
}
