//! Layer self-time accumulators: where a span's wall time went.
//!
//! A [`LayerGuard`] (from [`crate::layer`]) charges the time between its
//! creation and its drop to a named layer of work — the timer wheel,
//! router decision, the damper store — on the current thread. Nothing
//! is recorded per call: the guard adds elapsed nanoseconds and one call
//! to plain thread-local fields, with no lock, atomic, allocation or map
//! hash. Layers nest through a per-thread stack, and entering a layer
//! pauses the enclosing one, so every nanosecond inside layers is
//! counted in exactly one of them and each transition costs one clock
//! read.
//!
//! Spans are the flush points. Opening a span sets the enclosing
//! scope's totals aside; closing it hands the totals accrued inside it
//! (outside any nested span) to the span's record and restores the
//! enclosing scope's. The layer clock reads the same `Instant`s that
//! time the span, so a span's layers plus its nested spans never exceed
//! its duration; the exporter reports the remainder as `unattributed`.
//! Layer time outside every span is never exported.

use std::cell::RefCell;
use std::marker::PhantomData;
use std::time::Instant;

/// One layer's totals inside one span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct LayerTotal {
    pub(crate) name: &'static str,
    pub(crate) calls: u64,
    pub(crate) self_ns: u64,
}

/// One layer's running totals on this thread, keyed by the name's
/// address (a second literal with the same text gets its own slot; the
/// flush merges them by text).
#[derive(Debug)]
struct Slot {
    name: &'static str,
    calls: u64,
    self_ns: u64,
}

/// An open span: the enclosing scope's `(calls, self_ns)` per slot,
/// set aside until the span closes, the instant it opened at and the
/// time of spans nested in it.
#[derive(Debug)]
struct Frame {
    saved: Vec<(u64, u64)>,
    opened: Instant,
    nested_ns: u64,
}

fn ns_between(from: Instant, to: Instant) -> u64 {
    to.saturating_duration_since(from).as_nanos() as u64
}

#[derive(Debug)]
struct Clock {
    slots: Vec<Slot>,
    /// Slot indices of the open layers, innermost last. Only the
    /// innermost one accrues time.
    open: Vec<usize>,
    /// The last transition; the innermost open layer accrues from here.
    since: Option<Instant>,
    spans: Vec<Frame>,
}

impl Clock {
    const fn new() -> Self {
        Clock {
            slots: Vec::new(),
            open: Vec::new(),
            since: None,
            spans: Vec::new(),
        }
    }

    /// Credits the innermost open layer with the time up to `now`.
    fn settle(&mut self, now: Instant) {
        if let (Some(&top), Some(since)) = (self.open.last(), self.since) {
            self.slots[top].self_ns += ns_between(since, now);
        }
        self.since = Some(now);
    }

    fn enter(&mut self, name: &'static str) -> usize {
        self.settle(Instant::now());
        let slot = match self.slots.iter().position(|s| std::ptr::eq(s.name, name)) {
            Some(i) => i,
            None => {
                self.slots.push(Slot {
                    name,
                    calls: 0,
                    self_ns: 0,
                });
                self.slots.len() - 1
            }
        };
        self.slots[slot].calls += 1;
        self.open.push(slot);
        self.open.len() - 1
    }

    fn exit(&mut self, depth: usize) {
        self.settle(Instant::now());
        self.open.truncate(depth);
    }

    fn open_span(&mut self, now: Instant) -> usize {
        self.settle(now);
        let saved = self
            .slots
            .iter_mut()
            .map(|s| (std::mem::take(&mut s.calls), std::mem::take(&mut s.self_ns)))
            .collect();
        self.spans.push(Frame {
            saved,
            opened: now,
            nested_ns: 0,
        });
        self.spans.len() - 1
    }

    fn close_span(&mut self, depth: usize, now: Instant) -> (Vec<LayerTotal>, u64) {
        self.settle(now);
        if self.spans.len() <= depth {
            // Closed out of order: an enclosing span already took it.
            return (Vec::new(), 0);
        }
        self.spans.truncate(depth + 1);
        let frame = self.spans.pop().expect("depth checked above");
        let mut layers: Vec<LayerTotal> = Vec::new();
        for (i, slot) in self.slots.iter_mut().enumerate() {
            let (calls, self_ns) = frame.saved.get(i).copied().unwrap_or((0, 0));
            let calls = std::mem::replace(&mut slot.calls, calls);
            let self_ns = std::mem::replace(&mut slot.self_ns, self_ns);
            if calls == 0 && self_ns == 0 {
                continue;
            }
            match layers.iter_mut().find(|t| t.name == slot.name) {
                Some(total) => {
                    total.calls += calls;
                    total.self_ns += self_ns;
                }
                None => layers.push(LayerTotal {
                    name: slot.name,
                    calls,
                    self_ns,
                }),
            }
        }
        layers.sort_by_key(|t| t.name);
        if let Some(parent) = self.spans.last_mut() {
            parent.nested_ns += ns_between(frame.opened, now);
        }
        (layers, frame.nested_ns)
    }
}

thread_local! {
    static CLOCK: RefCell<Clock> = const { RefCell::new(Clock::new()) };
}

/// Sets the enclosing scope's layer totals aside for a span opening at
/// `now`; returns the span's frame depth for [`close_span`].
pub(crate) fn open_span(now: Instant) -> usize {
    CLOCK.with(|c| c.borrow_mut().open_span(now))
}

/// Takes the layer totals of the span at `depth`, closing at `now`,
/// plus the time of the spans nested in it, and restores the enclosing
/// scope's totals.
pub(crate) fn close_span(depth: usize, now: Instant) -> (Vec<LayerTotal>, u64) {
    CLOCK
        .try_with(|c| c.borrow_mut().close_span(depth, now))
        .unwrap_or_default()
}

/// How many layers are open on this thread.
#[cfg(test)]
pub(crate) fn open_depth() -> usize {
    CLOCK.with(|c| c.borrow().open.len())
}

/// An open layer; charges its time when dropped. Obtained from
/// [`crate::layer`]; inert (and free) while recording is disabled. It
/// belongs to the thread that opened it.
#[derive(Debug)]
pub struct LayerGuard {
    /// Stack depth to restore on drop; `None` when recording was
    /// disabled at entry.
    depth: Option<usize>,
    _thread: PhantomData<*const ()>,
}

impl LayerGuard {
    #[inline]
    pub(crate) fn enter(name: &'static str) -> LayerGuard {
        let depth = crate::is_enabled().then(|| CLOCK.with(|c| c.borrow_mut().enter(name)));
        LayerGuard {
            depth,
            _thread: PhantomData,
        }
    }
}

impl Drop for LayerGuard {
    #[inline]
    fn drop(&mut self) {
        if let Some(depth) = self.depth {
            let _ = CLOCK.try_with(|c| c.borrow_mut().exit(depth));
        }
    }
}
