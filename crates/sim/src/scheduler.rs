//! The reference event queue the timer wheel is pinned against.
//!
//! [`HeapScheduler`] is a plain `BinaryHeap` popping in `(time, key)`
//! order — the same contract as the keyed
//! [`TimerWheel`](crate::TimerWheel), in the simplest form that can
//! obviously be trusted. The property tests drive both with identical
//! operation streams and require identical pops.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

#[derive(Debug)]
struct Entry<E> {
    at: SimTime,
    key: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.key) == (other.at, other.key)
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.key).cmp(&(other.at, other.key))
    }
}

/// A binary-heap event queue ordered by `(time, key)`: the test oracle
/// for [`TimerWheel`](crate::TimerWheel).
///
/// # Examples
///
/// ```
/// use rfd_sim::{HeapScheduler, SimTime};
///
/// let mut agenda = HeapScheduler::new();
/// agenda.schedule_keyed(SimTime::from_secs(2), 0, "late");
/// agenda.schedule_keyed(SimTime::from_secs(1), 9, "early");
/// assert_eq!(agenda.pop_keyed(), Some((SimTime::from_secs(1), 9, "early")));
/// ```
#[derive(Debug)]
pub struct HeapScheduler<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
}

impl<E> Default for HeapScheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> HeapScheduler<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        HeapScheduler {
            heap: BinaryHeap::new(),
        }
    }

    /// Schedules `event` at `at` under ordering key `key`.
    pub fn schedule_keyed(&mut self, at: SimTime, key: u64, event: E) {
        self.heap.push(Reverse(Entry { at, key, event }));
    }

    /// Removes and returns the earliest event with its key.
    pub fn pop_keyed(&mut self) -> Option<(SimTime, u64, E)> {
        self.heap
            .pop()
            .map(|Reverse(Entry { at, key, event })| (at, key, event))
    }

    /// The timestamp of the earliest event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(entry)| entry.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_then_key_order() {
        let mut s = HeapScheduler::new();
        s.schedule_keyed(SimTime::from_secs(3), 0, 'd');
        s.schedule_keyed(SimTime::from_secs(1), 5, 'b');
        s.schedule_keyed(SimTime::from_secs(1), 2, 'a');
        s.schedule_keyed(SimTime::from_secs(2), 1, 'c');
        assert_eq!(s.len(), 4);
        assert_eq!(s.peek_time(), Some(SimTime::from_secs(1)));
        let order: Vec<char> = std::iter::from_fn(|| s.pop_keyed().map(|(_, _, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c', 'd']);
        assert!(s.is_empty());
    }
}
