//! The process-wide recording registry.
//!
//! One [`Registry`] instance lives for the process (`global()`); all
//! public API routes through it. Counters and histograms are registered
//! by static name; span and flight events land in per-thread buffers
//! ([`ThreadBuf`]) registered here so the exporter can walk them.
//!
//! A `generation` counter lets [`Registry::reset`] invalidate the
//! thread-local handle caches without touching other threads: caches
//! compare their stored generation on every access and rebuild when
//! stale.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

use crate::metrics::{Counter, Gauge, Histogram};
use crate::span::ThreadBuf;

/// Locks a mutex, recovering the data behind a poisoned one.
///
/// The registry's locks only guard registration maps and export
/// snapshots — there is no invariant a mid-panic thread could leave
/// half-established — so treating poison as fatal would just let one
/// panicking instrumented thread wedge the flight-recorder dump that is
/// trying to explain that very panic.
pub(crate) fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Hard cap on completed span records kept per thread (beyond it spans
/// are counted as dropped, not stored). 1 M records ≈ 40 MB/thread at
/// worst; quick sweeps stay far below.
pub(crate) const SPAN_CAP: usize = 1 << 20;

/// Flight-recorder ring length per thread.
pub(crate) const RING_CAP: usize = 4096;

/// Whether recording is on. A plain static rather than a registry
/// field, so the check every entry point starts with is one relaxed
/// load with no lazy-initialisation test in front of it.
pub(crate) static ENABLED: AtomicBool = AtomicBool::new(false);

#[derive(Debug)]
pub(crate) struct Registry {
    pub(crate) generation: AtomicU64,
    pub(crate) epoch: Instant,
    pub(crate) counters: Mutex<BTreeMap<&'static str, Counter>>,
    pub(crate) gauges: Mutex<BTreeMap<&'static str, Gauge>>,
    pub(crate) histograms: Mutex<BTreeMap<&'static str, Histogram>>,
    pub(crate) threads: Mutex<Vec<Arc<ThreadBuf>>>,
    pub(crate) flight_path: Mutex<Option<PathBuf>>,
}

impl Registry {
    fn new() -> Self {
        Registry {
            generation: AtomicU64::new(0),
            epoch: Instant::now(),
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
            threads: Mutex::new(Vec::new()),
            flight_path: Mutex::new(None),
        }
    }

    /// Nanoseconds from the registry's creation to `at`; the time base
    /// of every exported event.
    pub(crate) fn ns_since_epoch(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Nanoseconds since the registry was created.
    pub(crate) fn now_ns(&self) -> u64 {
        self.ns_since_epoch(Instant::now())
    }

    pub(crate) fn counter(&self, name: &'static str) -> Counter {
        lock_unpoisoned(&self.counters)
            .entry(name)
            .or_insert_with(Counter::new)
            .clone()
    }

    pub(crate) fn gauge(&self, name: &'static str) -> Gauge {
        lock_unpoisoned(&self.gauges)
            .entry(name)
            .or_insert_with(Gauge::new)
            .clone()
    }

    pub(crate) fn histogram(&self, name: &'static str) -> Histogram {
        lock_unpoisoned(&self.histograms)
            .entry(name)
            .or_insert_with(Histogram::new)
            .clone()
    }

    /// Registers a fresh per-thread buffer.
    pub(crate) fn register_thread(&self) -> Arc<ThreadBuf> {
        let mut threads = lock_unpoisoned(&self.threads);
        let buf = Arc::new(ThreadBuf::new(threads.len()));
        threads.push(buf.clone());
        buf
    }

    /// Snapshot of all registered per-thread buffers.
    pub(crate) fn thread_bufs(&self) -> Vec<Arc<ThreadBuf>> {
        lock_unpoisoned(&self.threads).clone()
    }

    pub(crate) fn reset(&self) {
        lock_unpoisoned(&self.counters).clear();
        lock_unpoisoned(&self.gauges).clear();
        lock_unpoisoned(&self.histograms).clear();
        lock_unpoisoned(&self.threads).clear();
        self.generation.fetch_add(1, Ordering::SeqCst);
    }
}

pub(crate) fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}
