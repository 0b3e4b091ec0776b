//! Bounded SPSC channels between the generator and the shard workers,
//! with explicit backpressure accounting.
//!
//! One producer (the merge generator) and one consumer (a shard worker)
//! share each queue. The implementation is a mutex-guarded ring. Both
//! sides move items in batches — the producer hands over a staged
//! batch with [`SpscQueue::push_batch`], the consumer drains with
//! [`SpscQueue::pop_batch`] — so lock traffic and wake-ups are a
//! per-batch cost, not a per-update one. Every backpressure event is
//! *counted*: the report exposes how often the producer blocked on a
//! full queue and the deepest the queue ever got, so a slow consumer
//! shows up as data instead of mystery latency.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

#[derive(Debug)]
struct Inner<T> {
    buf: VecDeque<T>,
    closed: bool,
}

/// A bounded single-producer single-consumer queue.
#[derive(Debug)]
pub struct SpscQueue<T> {
    inner: Mutex<Inner<T>>,
    not_full: Condvar,
    not_empty: Condvar,
    capacity: usize,
    depth: AtomicUsize,
    max_depth: AtomicUsize,
    push_waits: AtomicU64,
}

impl<T> SpscQueue<T> {
    /// Creates a queue holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        SpscQueue {
            inner: Mutex::new(Inner {
                buf: VecDeque::with_capacity(capacity),
                closed: false,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            capacity,
            depth: AtomicUsize::new(0),
            max_depth: AtomicUsize::new(0),
            push_waits: AtomicU64::new(0),
        }
    }

    /// Moves every item of `items` into the queue in order, leaving
    /// `items` empty with its allocation kept for the next batch.
    ///
    /// Each chunk that fits is enqueued under one lock with one
    /// consumer wake-up. While the queue is full the call blocks; each
    /// such blocking episode counts as one push wait (the backpressure
    /// signal). Once the queue is closed the bound no longer applies
    /// and the remainder is enqueued at once.
    pub fn push_batch(&self, items: &mut Vec<T>) {
        let mut rest = items.drain(..);
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if inner.buf.len() >= self.capacity && !inner.closed {
                self.push_waits.fetch_add(1, Ordering::Relaxed);
                while inner.buf.len() >= self.capacity && !inner.closed {
                    inner = self.not_full.wait(inner).unwrap_or_else(|e| e.into_inner());
                }
            }
            let room = if inner.closed {
                rest.len()
            } else {
                self.capacity - inner.buf.len()
            };
            inner.buf.extend(rest.by_ref().take(room));
            let depth = inner.buf.len();
            self.depth.store(depth, Ordering::Relaxed);
            self.max_depth.fetch_max(depth, Ordering::Relaxed);
            if rest.len() == 0 {
                break;
            }
            // The queue is full again: wake the consumer to make room.
            self.not_empty.notify_one();
        }
        drop(inner);
        self.not_empty.notify_one();
    }

    /// Moves up to `max` items into `out`. Blocks until at least one
    /// item is available or the queue is closed; returns `false` once
    /// the queue is closed *and* drained.
    pub fn pop_batch(&self, out: &mut Vec<T>, max: usize) -> bool {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        while inner.buf.is_empty() && !inner.closed {
            inner = self
                .not_empty
                .wait(inner)
                .unwrap_or_else(|e| e.into_inner());
        }
        if inner.buf.is_empty() {
            return false;
        }
        let take = inner.buf.len().min(max);
        out.extend(inner.buf.drain(..take));
        let depth = inner.buf.len();
        drop(inner);
        self.depth.store(depth, Ordering::Relaxed);
        self.not_full.notify_one();
        true
    }

    /// Marks the stream complete; consumers drain the remainder and
    /// then see end-of-stream.
    pub fn close(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.closed = true;
        drop(inner);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Instantaneous queue depth (heartbeat gauge; racy by nature).
    pub fn depth(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }

    /// Deepest the queue has ever been.
    pub fn max_depth(&self) -> usize {
        self.max_depth.load(Ordering::Relaxed)
    }

    /// How many times a batch push found the queue full and had to
    /// wait — the explicit backpressure count.
    pub fn push_waits(&self) -> u64 {
        self.push_waits.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    /// Drains `q` until it is closed and empty.
    fn drain<T>(q: &SpscQueue<T>, max: usize) -> Vec<T> {
        let mut seen = Vec::new();
        let mut batch = Vec::new();
        while q.pop_batch(&mut batch, max) {
            seen.append(&mut batch);
        }
        seen
    }

    #[test]
    fn fifo_through_batches() {
        let q: SpscQueue<u32> = SpscQueue::new(4);
        let mut stage: Vec<u32> = (0..4).collect();
        q.push_batch(&mut stage);
        assert!(stage.is_empty(), "push_batch consumes the stage");
        assert!(stage.capacity() >= 4, "and keeps its allocation");
        q.close();
        let mut out = Vec::new();
        assert!(q.pop_batch(&mut out, 3));
        assert_eq!(out, vec![0, 1, 2]);
        assert!(q.pop_batch(&mut out, 3));
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert!(!q.pop_batch(&mut out, 3), "closed and drained");
        assert_eq!(q.push_waits(), 0, "it all fitted");
        assert_eq!(q.max_depth(), 4);
    }

    #[test]
    fn backpressure_blocks_and_is_counted() {
        let q: Arc<SpscQueue<u64>> = Arc::new(SpscQueue::new(2));
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                for v in (0..100u64).step_by(2) {
                    q.push_batch(&mut vec![v, v + 1]);
                }
                q.close();
            })
        };
        // Let the producer hit the 2-slot wall before draining.
        std::thread::sleep(Duration::from_millis(20));
        let seen = drain(&q, 8);
        producer.join().unwrap();
        assert_eq!(seen, (0..100).collect::<Vec<u64>>());
        assert!(q.push_waits() > 0, "producer never blocked");
        assert!(q.max_depth() <= 2);
    }

    /// A batch larger than the capacity goes in capacity-sized chunks,
    /// waiting for the consumer between them, in FIFO order.
    #[test]
    fn oversized_batch_is_split_across_waits_in_order() {
        for capacity in [1, 3, 7] {
            let q: Arc<SpscQueue<u32>> = Arc::new(SpscQueue::new(capacity));
            let producer = {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut stage: Vec<u32> = (0..1000).collect();
                    q.push_batch(&mut stage);
                    assert!(stage.is_empty());
                    q.close();
                })
            };
            let seen = drain(&q, 2);
            producer.join().unwrap();
            assert_eq!(seen, (0..1000).collect::<Vec<u32>>(), "capacity {capacity}");
            assert!(q.max_depth() <= capacity, "capacity {capacity}");
            assert!(q.push_waits() > 0, "capacity {capacity}");
        }
    }

    /// Each time a push finds the queue full and blocks is one push
    /// wait; pushes that fit count nothing.
    #[test]
    fn push_waits_counts_blocking_episodes() {
        let q: Arc<SpscQueue<u8>> = Arc::new(SpscQueue::new(2));
        q.push_batch(&mut vec![0, 1]);
        assert_eq!(q.push_waits(), 0);
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                q.push_batch(&mut vec![2, 3]);
                q.push_batch(&mut vec![4, 5]);
            })
        };
        let mut got = Vec::new();
        for episode in 1..=2 {
            // The producer is parked on the full queue: make room.
            while q.push_waits() < episode {
                std::thread::sleep(Duration::from_millis(1));
            }
            let mut out = Vec::new();
            assert!(q.pop_batch(&mut out, 2));
            got.append(&mut out);
        }
        producer.join().unwrap();
        q.close();
        got.append(&mut drain(&q, 2));
        assert_eq!(got, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(q.push_waits(), 2);
    }

    #[test]
    fn close_wakes_empty_consumer() {
        let q: Arc<SpscQueue<u8>> = Arc::new(SpscQueue::new(1));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut out = Vec::new();
                q.pop_batch(&mut out, 1)
            })
        };
        std::thread::sleep(Duration::from_millis(10));
        q.close();
        assert!(!consumer.join().unwrap());
    }

    /// A producer blocked in `push_batch` on a full queue returns when
    /// the queue is closed, and nothing it held is lost.
    #[test]
    fn close_wakes_blocked_producer() {
        let q: Arc<SpscQueue<u8>> = Arc::new(SpscQueue::new(1));
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push_batch(&mut vec![0, 1, 2]))
        };
        while q.push_waits() == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        q.close();
        producer.join().unwrap();
        assert_eq!(drain(&q, 8), vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _: SpscQueue<u8> = SpscQueue::new(0);
    }
}
