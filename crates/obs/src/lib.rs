//! # rfd-obs — std-only observability for the RFD reproduction
//!
//! The sweep engine runs thousands of simulations across a thread pool;
//! this crate makes that visible without perturbing it:
//!
//! * [`span`] — hierarchical wall-clock spans (with optional sim-time
//!   annotation) recorded into per-thread buffers;
//! * [`layer`] — per-thread self-time accumulators for the layers of
//!   work inside a span (timer wheel, router decision, damper store):
//!   no record per call, flushed into the enclosing span when it ends,
//!   so a span's layers plus an `unattributed` remainder sum to its
//!   wall time;
//! * [`counter`] / [`histogram`] — named counters and log₂-bucketed
//!   histograms, dumpable as a JSON summary;
//! * flight recorder — a bounded per-thread ring of the most recent
//!   span/mark records and span openings (so a dump shows the spans
//!   still in flight), dumped on panic or on an anomaly hook
//!   ([`dump_flight`], [`install_panic_hook`]);
//! * [`write_trace`] — a Chrome trace-event JSON exporter
//!   (`traceEvents` with `ph:"B"/"E"/"C"` records) openable in
//!   Perfetto / `chrome://tracing`.
//!
//! ## Non-perturbation contract
//!
//! Recording is **off by default** and every entry point starts with a
//! single relaxed atomic load, so instrumented hot paths cost nothing
//! measurable when observability is disabled. When enabled, the layer
//! only *observes* — it never feeds wall-clock time, thread identity or
//! any other nondeterministic value back into the simulation, so
//! simulator output is byte-identical with observability on or off (the
//! workspace asserts this end-to-end in `tests/obs_e2e.rs`).
//!
//! ```
//! rfd_obs::enable();
//! {
//!     let mut s = rfd_obs::span("doc.work");
//!     s.sim_time_us(1_500_000); // annotate with simulated time
//!     for _ in 0..3 {
//!         let _hot = rfd_obs::layer("doc.hot_loop"); // no record per call
//!         rfd_obs::inc("doc.widgets");
//!     }
//!     rfd_obs::observe("doc.sizes", 4096);
//! }
//! let summary = rfd_obs::summary_json();
//! assert!(summary.contains("doc.widgets"));
//! assert!(summary.contains("\"doc.hot_loop\":{\"calls\":3"));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod export;
mod flight;
pub mod json;
mod layer;
mod metrics;
mod registry;
mod report;
mod span;

pub use export::{render_trace, summary_json, write_trace};
pub use flight::{dump_flight, install_panic_hook, set_flight_path};
pub use layer::LayerGuard;
pub use metrics::{percentile_from_buckets, Counter, Gauge, Histogram, BUCKETS};
pub use report::{render_report, ReportError};
pub use span::SpanGuard;

use std::sync::atomic::Ordering;

/// Turns recording on (idempotent). Until this is called every
/// instrumentation entry point is a near-free no-op.
pub fn enable() {
    // Creating the registry first puts its epoch before any record.
    registry::global();
    registry::ENABLED.store(true, Ordering::SeqCst);
}

/// Turns recording off again. Existing data stays until [`reset`].
pub fn disable() {
    registry::ENABLED.store(false, Ordering::SeqCst);
}

/// Whether recording is currently on.
#[inline]
pub fn is_enabled() -> bool {
    registry::ENABLED.load(Ordering::Relaxed)
}

/// Drops all recorded counters, histograms, spans and flight events.
/// Thread-local handle caches refresh automatically (generation check),
/// so this is safe to call between runs or tests.
pub fn reset() {
    registry::global().reset();
}

/// A handle to the named counter, registering it on first use. The
/// handle is cheap to clone and increments with one atomic add — cache
/// it in hot loops.
pub fn counter(name: &'static str) -> Counter {
    registry::global().counter(name)
}

/// A handle to the named gauge, registering it on first use. Unlike a
/// counter a gauge is a *level* — it can be set outright or moved in
/// either direction (queue depths, slot occupancy).
pub fn gauge(name: &'static str) -> Gauge {
    registry::global().gauge(name)
}

/// A handle to the named log₂-bucketed histogram, registering it on
/// first use.
pub fn histogram(name: &'static str) -> Histogram {
    registry::global().histogram(name)
}

/// Adds 1 to the named counter (no-op while disabled). Uses a
/// thread-local handle cache, so casual call sites stay one-liners.
#[inline]
pub fn inc(name: &'static str) {
    add(name, 1);
}

/// Adds `n` to the named counter (no-op while disabled).
#[inline]
pub fn add(name: &'static str, n: u64) {
    if is_enabled() {
        span::with_tls(|tls| tls.counter(name).add(n));
    }
}

/// Records one sample into the named histogram (no-op while disabled).
#[inline]
pub fn observe(name: &'static str, value: u64) {
    if is_enabled() {
        span::with_tls(|tls| tls.histogram(name).observe(value));
    }
}

/// Sets the named gauge to `value` (no-op while disabled).
#[inline]
pub fn gauge_set(name: &'static str, value: i64) {
    if is_enabled() {
        span::with_tls(|tls| tls.gauge(name).set(value));
    }
}

/// Moves the named gauge by signed `delta` (no-op while disabled).
#[inline]
pub fn gauge_add(name: &'static str, delta: i64) {
    if is_enabled() {
        span::with_tls(|tls| tls.gauge(name).add(delta));
    }
}

/// Starts a wall-clock span; the guard records it when dropped, with
/// the [`layer`] times accrued inside it. A no-op guard is returned
/// while disabled.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    SpanGuard::start(name)
}

/// Enters a layer of work on this thread until the guard drops: its
/// elapsed nanoseconds and one call are added to thread-local totals,
/// which the enclosing [`span`] takes over when it ends. Nested layers
/// pause the enclosing one, so no time is counted twice. Costs two
/// clock reads and no record, lock or allocation; one relaxed load
/// while disabled.
#[inline]
pub fn layer(name: &'static str) -> LayerGuard {
    LayerGuard::enter(name)
}

/// Records an instantaneous point event (it lands in the flight
/// recorder ring and the trace). No-op while disabled.
#[inline]
pub fn mark(name: &'static str) {
    span::record_mark(name);
}

#[cfg(test)]
mod tests {
    use super::*;

    // The global registry is process-wide; tests that toggle it are
    // serialised through this lock.
    pub(crate) static GLOBAL_TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn disabled_by_default_and_cheap() {
        let _guard = GLOBAL_TEST_LOCK.lock().unwrap();
        disable();
        reset();
        inc("test.never");
        observe("test.never_h", 7);
        let s = span("test.never_span");
        drop(s);
        mark("test.never_mark");
        {
            let _l = layer("test.never_layer");
            assert_eq!(layer::open_depth(), 0, "a disabled layer touches no clock");
        }
        enable();
        let json = summary_json();
        disable();
        reset();
        assert!(!json.contains("test.never"), "{json}");
    }

    #[test]
    fn enable_records_and_reset_clears() {
        let _guard = GLOBAL_TEST_LOCK.lock().unwrap();
        reset();
        enable();
        inc("test.a");
        inc("test.a");
        add("test.a", 3);
        observe("test.h", 1024);
        {
            let mut s = span("test.s");
            s.sim_time_us(42);
        }
        mark("test.m");
        let json = summary_json();
        assert!(json.contains("\"test.a\":5"), "{json}");
        assert!(json.contains("test.h"), "{json}");
        assert!(json.contains("test.s"), "{json}");
        reset();
        let json = summary_json();
        disable();
        reset();
        assert!(!json.contains("test.a"), "{json}");
    }

    #[test]
    fn gauges_record_levels_and_respect_enable() {
        let _guard = GLOBAL_TEST_LOCK.lock().unwrap();
        disable();
        reset();
        gauge_set("test.g", 9);
        enable();
        let json = summary_json();
        assert!(
            !json.contains("test.g"),
            "disabled gauge writes must drop: {json}"
        );
        gauge_set("test.g", 9);
        gauge_add("test.g", 3);
        gauge_add("test.g", -5);
        let json = summary_json();
        disable();
        reset();
        assert!(json.contains("\"test.g\":7"), "{json}");
    }

    #[test]
    fn counter_handles_survive_reset_via_generation() {
        let _guard = GLOBAL_TEST_LOCK.lock().unwrap();
        reset();
        enable();
        inc("test.gen");
        reset();
        // After a reset the TLS cache must re-register, not write into
        // a detached counter.
        inc("test.gen");
        let json = summary_json();
        disable();
        reset();
        assert!(json.contains("\"test.gen\":1"), "{json}");
    }

    /// The `layers` entry of `span` in a parsed summary, as
    /// `(span_ns, nested_ns, layer → (calls, self_ns))`.
    fn layer_rows(
        summary: &json::Value,
        span: &str,
    ) -> (u64, u64, std::collections::BTreeMap<String, (u64, u64)>) {
        let entry = summary
            .get("layers")
            .and_then(|l| l.get(span))
            .unwrap_or_else(|| panic!("no layers for {span}"));
        let num = |v: &json::Value, key: &str| v.get(key).and_then(json::Value::as_u64).unwrap();
        let rows = entry
            .get("layers")
            .and_then(json::Value::as_object)
            .unwrap()
            .iter()
            .map(|(name, v)| (name.clone(), (num(v, "calls"), num(v, "self_ns"))))
            .collect();
        (num(entry, "span_ns"), num(entry, "nested_ns"), rows)
    }

    fn spin(d: std::time::Duration) {
        let t = std::time::Instant::now();
        while t.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn nested_layer_time_is_excluded_from_its_parent() {
        let _guard = GLOBAL_TEST_LOCK.lock().unwrap();
        reset();
        enable();
        let inner_wall;
        {
            let _s = span("test.layers");
            let _outer = layer("test.outer");
            spin(std::time::Duration::from_millis(2));
            let t = std::time::Instant::now();
            {
                let _inner = layer("test.inner");
                spin(std::time::Duration::from_millis(20));
            }
            inner_wall = t.elapsed().as_nanos() as u64;
            spin(std::time::Duration::from_millis(2));
        }
        let summary = json::parse(&summary_json()).unwrap();
        disable();
        reset();
        let (span_ns, nested_ns, rows) = layer_rows(&summary, "test.layers");
        let (outer_calls, outer_ns) = rows["test.outer"];
        let (inner_calls, inner_ns) = rows["test.inner"];
        assert_eq!((outer_calls, inner_calls, nested_ns), (1, 1, 0));
        assert!((20_000_000..=inner_wall).contains(&inner_ns), "{rows:?}");
        // The outer layer's own work is ~4 ms; the 20 ms inside the
        // inner layer must not be counted again.
        assert!(
            (4_000_000..20_000_000).contains(&outer_ns),
            "outer {outer_ns} ns must exclude the inner layer: {rows:?}"
        );
        assert!(outer_ns + inner_ns <= span_ns);
    }

    #[test]
    fn layers_nested_spans_and_unattributed_sum_to_the_span() {
        let _guard = GLOBAL_TEST_LOCK.lock().unwrap();
        reset();
        enable();
        {
            let _s = span("test.parent");
            for _ in 0..100 {
                let _l = layer("test.work");
                spin(std::time::Duration::from_micros(10));
            }
            {
                let _child = span("test.child");
                let _l = layer("test.work");
                spin(std::time::Duration::from_millis(1));
            }
            spin(std::time::Duration::from_micros(500));
        }
        let summary = json::parse(&summary_json()).unwrap();
        disable();
        reset();
        let (parent_ns, nested_ns, rows) = layer_rows(&summary, "test.parent");
        let (child_ns, child_nested, child_rows) = layer_rows(&summary, "test.child");
        // The child's layer call is the child's, not the parent's.
        assert_eq!(rows["test.work"].0, 100);
        assert_eq!(child_rows["test.work"].0, 1);
        assert_eq!(child_nested, 0);
        assert_eq!(nested_ns, child_ns, "the child is the only nested span");
        let layered: u64 = rows.values().map(|&(_, ns)| ns).sum();
        let unattributed = parent_ns - nested_ns - layered;
        assert_eq!(layered + nested_ns + unattributed, parent_ns);
        assert!(layered >= 1_000_000, "100 × 10 µs of layer work: {layered}");
        assert!(unattributed >= 500_000, "the 500 µs tail: {unattributed}");
        assert!(child_rows["test.work"].1 <= child_ns);
    }

    #[test]
    fn layer_dropped_by_an_unwind_leaves_the_stack_balanced() {
        let _guard = GLOBAL_TEST_LOCK.lock().unwrap();
        reset();
        enable();
        let depth = layer::open_depth();
        {
            let _s = span("test.unwind");
            let _outer = layer("test.outer");
            let caught = std::panic::catch_unwind(|| {
                let _inner = layer("test.inner");
                let _deeper = layer("test.deeper");
                panic!("unwind through two layers");
            });
            assert!(caught.is_err());
            assert_eq!(layer::open_depth(), depth + 1, "only the outer layer open");
            // The outer layer still accrues after the unwind.
            spin(std::time::Duration::from_millis(1));
        }
        assert_eq!(layer::open_depth(), depth);
        let summary = json::parse(&summary_json()).unwrap();
        disable();
        reset();
        let (_, _, rows) = layer_rows(&summary, "test.unwind");
        assert_eq!(rows["test.inner"].0, 1);
        assert_eq!(rows["test.deeper"].0, 1);
        assert!(rows["test.outer"].1 >= 1_000_000, "{rows:?}");
    }

    #[test]
    fn sub_microsecond_spans_sum_to_more_than_zero() {
        let _guard = GLOBAL_TEST_LOCK.lock().unwrap();
        reset();
        enable();
        for _ in 0..1_000 {
            let _s = span("test.tiny");
            spin(std::time::Duration::from_nanos(300));
        }
        let summary = json::parse(&summary_json()).unwrap();
        disable();
        reset();
        let total_us = summary
            .get("spans")
            .and_then(|s| s.get("test.tiny"))
            .and_then(|s| s.get("total_us"))
            .and_then(json::Value::as_f64)
            .unwrap();
        // 1,000 spans of ≥ 300 ns: at least 300 µs, where whole-µs
        // truncation per span used to sum to 0.
        assert!(total_us >= 300.0, "total_us {total_us}");
    }

    #[test]
    fn counter_caches_merge_same_text_literals() {
        let _guard = GLOBAL_TEST_LOCK.lock().unwrap();
        reset();
        enable();
        // Two distinct allocations with equal text, leaked to 'static:
        // distinct addresses, one registry entry.
        let a: &'static str = Box::leak(String::from("test.same").into_boxed_str());
        let b: &'static str = Box::leak(String::from("test.same").into_boxed_str());
        assert!(!std::ptr::eq(a, b));
        inc(a);
        add(b, 2);
        let json = summary_json();
        disable();
        reset();
        assert!(json.contains("\"test.same\":3"), "{json}");
    }
}
