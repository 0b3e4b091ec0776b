//! Spans, marks and the per-thread recording buffers.

use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::marker::PhantomData;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::layer::{self, LayerTotal};
use crate::metrics::{Counter, Gauge, Histogram};
use crate::registry::{self, lock_unpoisoned, RING_CAP, SPAN_CAP};

/// One completed span (or instantaneous mark, with `dur_ns == None`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SpanRecord {
    /// The opening of a span, written to the flight ring only, so a
    /// dump taken while the span runs shows it in flight.
    pub(crate) opening: bool,
    pub(crate) name: &'static str,
    /// Nanoseconds since the registry epoch.
    pub(crate) start_ns: u64,
    /// `None` marks an instantaneous event.
    pub(crate) dur_ns: Option<u64>,
    /// Optional simulated-time annotation (microseconds of sim time).
    pub(crate) sim_us: Option<u64>,
    /// Layer self-times accrued inside the span, outside nested spans.
    pub(crate) layers: Vec<LayerTotal>,
    /// Time spent in spans nested inside this one on the same thread.
    pub(crate) nested_ns: u64,
}

impl SpanRecord {
    pub(crate) fn mark(name: &'static str, at_ns: u64) -> Self {
        SpanRecord {
            opening: false,
            name,
            start_ns: at_ns,
            dur_ns: None,
            sim_us: None,
            layers: Vec::new(),
            nested_ns: 0,
        }
    }

    fn opening(name: &'static str, at_ns: u64) -> Self {
        SpanRecord {
            opening: true,
            ..SpanRecord::mark(name, at_ns)
        }
    }
}

#[derive(Debug, Default)]
pub(crate) struct ThreadEvents {
    /// Completed spans/marks in completion order, capped at [`SPAN_CAP`].
    pub(crate) spans: Vec<SpanRecord>,
    /// Spans not stored because the cap was hit.
    pub(crate) dropped: u64,
    /// Flight-recorder ring: the most recent [`RING_CAP`] records.
    pub(crate) ring: Vec<SpanRecord>,
    /// Next ring slot to overwrite.
    pub(crate) ring_head: usize,
}

impl ThreadEvents {
    fn push(&mut self, record: SpanRecord) {
        if self.spans.len() < SPAN_CAP {
            self.spans.push(record.clone());
        } else {
            self.dropped += 1;
        }
        self.push_ring(record);
    }

    fn push_ring(&mut self, record: SpanRecord) {
        if self.ring.len() < RING_CAP {
            self.ring.push(record);
        } else {
            self.ring[self.ring_head] = record;
            self.ring_head = (self.ring_head + 1) % RING_CAP;
        }
    }

    /// Ring contents oldest-first.
    pub(crate) fn ring_in_order(&self) -> Vec<SpanRecord> {
        let mut out = Vec::with_capacity(self.ring.len());
        out.extend_from_slice(&self.ring[self.ring_head..]);
        out.extend_from_slice(&self.ring[..self.ring_head]);
        out
    }
}

/// Per-thread recording buffer, registered with the global registry so
/// exporters can walk every thread's events.
#[derive(Debug)]
pub(crate) struct ThreadBuf {
    /// Dense exporter-facing thread id (registration order).
    pub(crate) tid: usize,
    pub(crate) events: Mutex<ThreadEvents>,
}

impl ThreadBuf {
    pub(crate) fn new(tid: usize) -> Self {
        ThreadBuf {
            tid,
            events: Mutex::new(ThreadEvents::default()),
        }
    }
}

/// A name keyed by its address rather than its text: hashing it is one
/// multiply and comparing it one pointer compare. Two literals with the
/// same text may get two cache entries; both resolve to the one
/// registry entry, which stays keyed by content.
#[derive(Debug, Clone, Copy)]
struct NameAddr(&'static str);

impl PartialEq for NameAddr {
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self.0, other.0)
    }
}

impl Eq for NameAddr {}

impl Hash for NameAddr {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.0.as_ptr() as usize);
    }
}

/// Fibonacci multiply hash of one address.
#[derive(Debug, Default)]
struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_usize((self.0 as usize).rotate_left(8) ^ b as usize);
        }
    }

    fn write_usize(&mut self, n: usize) {
        let h = (n as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type AddrMap<V> = HashMap<NameAddr, V, BuildHasherDefault<AddrHasher>>;

/// Thread-local caches: the thread's buffer plus name→handle maps so
/// hot-path `inc`/`observe` calls skip the registry mutex.
pub(crate) struct TlsState {
    generation: u64,
    buf: Arc<ThreadBuf>,
    counters: AddrMap<Counter>,
    gauges: AddrMap<Gauge>,
    histograms: AddrMap<Histogram>,
}

impl TlsState {
    fn fresh() -> Self {
        let reg = registry::global();
        TlsState {
            generation: reg.generation.load(Ordering::SeqCst),
            buf: reg.register_thread(),
            counters: AddrMap::default(),
            gauges: AddrMap::default(),
            histograms: AddrMap::default(),
        }
    }

    pub(crate) fn counter(&mut self, name: &'static str) -> &Counter {
        self.counters
            .entry(NameAddr(name))
            .or_insert_with(|| registry::global().counter(name))
    }

    pub(crate) fn gauge(&mut self, name: &'static str) -> &Gauge {
        self.gauges
            .entry(NameAddr(name))
            .or_insert_with(|| registry::global().gauge(name))
    }

    pub(crate) fn histogram(&mut self, name: &'static str) -> &Histogram {
        self.histograms
            .entry(NameAddr(name))
            .or_insert_with(|| registry::global().histogram(name))
    }

    fn record(&self, record: SpanRecord) {
        lock_unpoisoned(&self.buf.events).push(record);
    }

    fn record_opening(&self, record: SpanRecord) {
        lock_unpoisoned(&self.buf.events).push_ring(record);
    }
}

thread_local! {
    static TLS: RefCell<Option<TlsState>> = const { RefCell::new(None) };
}

/// Runs `f` with this thread's (generation-fresh) TLS state.
pub(crate) fn with_tls<R>(f: impl FnOnce(&mut TlsState) -> R) -> R {
    TLS.with(|cell| {
        let mut slot = cell.borrow_mut();
        let current_gen = registry::global().generation.load(Ordering::SeqCst);
        match slot.as_mut() {
            Some(state) if state.generation == current_gen => f(state),
            _ => {
                *slot = Some(TlsState::fresh());
                f(slot.as_mut().expect("just filled"))
            }
        }
    })
}

/// Records an instantaneous mark.
pub(crate) fn record_mark(name: &'static str) {
    if !crate::is_enabled() {
        return;
    }
    let at = registry::global().now_ns();
    with_tls(|tls| tls.record(SpanRecord::mark(name, at)));
}

/// An active span; notes its opening in the flight ring, and records
/// itself, with the layer times accrued inside it, when dropped.
/// Obtained from [`crate::span`]; inert (and free) while recording is
/// disabled. It belongs to the thread that opened it.
#[derive(Debug)]
pub struct SpanGuard {
    /// `None` when recording was disabled at start.
    active: Option<ActiveSpan>,
    _thread: PhantomData<*const ()>,
}

#[derive(Debug)]
struct ActiveSpan {
    name: &'static str,
    started: Instant,
    /// This span's frame on the thread's layer clock.
    frame: usize,
    sim_us: Option<u64>,
}

impl SpanGuard {
    pub(crate) fn start(name: &'static str) -> SpanGuard {
        let active = crate::is_enabled().then(|| {
            let started = Instant::now();
            let at_ns = registry::global().ns_since_epoch(started);
            with_tls(|tls| tls.record_opening(SpanRecord::opening(name, at_ns)));
            ActiveSpan {
                name,
                started,
                frame: layer::open_span(started),
                sim_us: None,
            }
        });
        SpanGuard {
            active,
            _thread: PhantomData,
        }
    }

    /// Annotates the span with a simulated-time stamp (microseconds of
    /// sim time); shows up as an argument on the exported trace event.
    pub fn sim_time_us(&mut self, sim_us: u64) {
        if let Some(active) = &mut self.active {
            active.sim_us = Some(sim_us);
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(active) = self.active.take() else {
            return;
        };
        let now = Instant::now();
        let dur_ns = now.duration_since(active.started).as_nanos() as u64;
        let (layers, nested_ns) = layer::close_span(active.frame, now);
        let start_ns = registry::global().ns_since_epoch(active.started);
        with_tls(|tls| {
            tls.record(SpanRecord {
                opening: false,
                name: active.name,
                start_ns,
                dur_ns: Some(dur_ns),
                sim_us: active.sim_us,
                layers,
                nested_ns,
            })
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_overwrites_oldest() {
        let mut ev = ThreadEvents::default();
        for i in 0..(RING_CAP as u64 + 10) {
            ev.push(SpanRecord::mark("x", i));
        }
        let ring = ev.ring_in_order();
        assert_eq!(ring.len(), RING_CAP);
        assert_eq!(ring.first().unwrap().start_ns, 10);
        assert_eq!(ring.last().unwrap().start_ns, RING_CAP as u64 + 9);
    }

    #[test]
    fn span_cap_counts_drops() {
        let mut ev = ThreadEvents::default();
        for i in 0..(SPAN_CAP as u64 + 3) {
            ev.push(SpanRecord::mark("x", i));
        }
        assert_eq!(ev.spans.len(), SPAN_CAP);
        assert_eq!(ev.dropped, 3);
    }
}
