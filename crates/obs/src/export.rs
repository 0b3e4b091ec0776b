//! Chrome trace-event export and the counters/histograms JSON summary.
//!
//! [`write_trace`] emits one JSON object with a `traceEvents` array in
//! the Chrome trace-event format — `ph:"B"`/`"E"` duration records per
//! span, one `ph:"X"` record per layer of a span (its `calls` and
//! `self_ns` as arguments), `ph:"i"` instants for marks and `ph:"C"`
//! counter records — so the file opens directly in Perfetto or
//! `chrome://tracing`. The same object carries `counters`,
//! `histograms`, `spans` and `layers` summary sections (extra top-level
//! keys are ignored by trace viewers), which is what `rfd obs-report`
//! pretty-prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

use crate::registry::{self, lock_unpoisoned};
use crate::span::SpanRecord;

/// JSON string literal with minimal escaping.
pub(crate) fn encode_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Nanoseconds written as microseconds with three decimals, the unit
/// of trace-event timestamps.
struct Us(u64);

impl std::fmt::Display for Us {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}.{:03}", self.0 / 1000, self.0 % 1000)
    }
}

/// Writes the `,\n` separator before every record but the first.
fn sep(out: &mut String, first: &mut bool) {
    if !*first {
        out.push_str(",\n");
    }
    *first = false;
}

/// Appends one `ph:"X"` record per layer of `span`, laid end to end from
/// the span's start and skipped past its nested spans (`children`), so
/// each layer reads as a slice of the span's own time.
fn push_layers(
    out: &mut String,
    tid: usize,
    span: &SpanRecord,
    children: &[(u64, u64)],
    first: &mut bool,
) {
    let mut at = span.start_ns;
    for layer in &span.layers {
        while let Some(&(_, end)) = children
            .iter()
            .find(|&&(start, end)| start < at + layer.self_ns && end > at)
        {
            at = end;
        }
        sep(out, first);
        let _ = write!(
            out,
            "{{\"name\":{},\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{tid},\"args\":{{\"calls\":{},\"self_ns\":{}}}}}",
            encode_str(layer.name),
            Us(at),
            Us(layer.self_ns),
            layer.calls,
            layer.self_ns
        );
        at += layer.self_ns;
    }
}

/// Open spans during [`push_thread_events`]: each record with the
/// intervals of its direct children.
type OpenSpans<'a> = Vec<(&'a SpanRecord, Vec<(u64, u64)>)>;

/// Closes every open span that ends by `now`: its layer records, then
/// its `E` record.
fn close_through(
    out: &mut String,
    tid: usize,
    open: &mut OpenSpans<'_>,
    now: u64,
    first: &mut bool,
) {
    while let Some(&(r, _)) = open.last() {
        let end = r.start_ns + r.dur_ns.unwrap_or(0);
        if end > now {
            break;
        }
        let (_, children) = open.pop().expect("checked non-empty");
        push_layers(out, tid, r, &children, first);
        sep(out, first);
        let _ = write!(
            out,
            "{{\"name\":{},\"ph\":\"E\",\"ts\":{},\"pid\":1,\"tid\":{tid}}}",
            encode_str(r.name),
            Us(end)
        );
    }
}

/// Appends the `ph:"B"/"E"/"i"` records of one thread, properly nested,
/// with each span's layers as `ph:"X"` records inside it.
///
/// Records arrive in completion order (children complete before
/// parents). Re-sorting by `(start, -dur)` yields begin order; a stack
/// of open spans then interleaves the `E` records so every `B`/`E` pair
/// nests correctly even without viewer-side sorting.
fn push_thread_events(out: &mut String, tid: usize, records: &[SpanRecord], first: &mut bool) {
    let mut sorted: Vec<&SpanRecord> = records.iter().collect();
    sorted.sort_by_key(|r| (r.start_ns, std::cmp::Reverse(r.dur_ns.unwrap_or(0))));
    let mut open: OpenSpans<'_> = Vec::new();
    for r in sorted {
        close_through(out, tid, &mut open, r.start_ns, first);
        sep(out, first);
        match r.dur_ns {
            Some(dur) => {
                if let Some((_, children)) = open.last_mut() {
                    children.push((r.start_ns, r.start_ns + dur));
                }
                let _ = write!(
                    out,
                    "{{\"name\":{},\"ph\":\"B\",\"ts\":{},\"pid\":1,\"tid\":{tid}",
                    encode_str(r.name),
                    Us(r.start_ns)
                );
                if let Some(sim_us) = r.sim_us {
                    let _ = write!(out, ",\"args\":{{\"sim_us\":{sim_us}}}");
                }
                out.push('}');
                open.push((r, Vec::new()));
            }
            None => {
                let _ = write!(
                    out,
                    "{{\"name\":{},\"ph\":\"i\",\"ts\":{},\"pid\":1,\"tid\":{tid},\"s\":\"t\"}}",
                    encode_str(r.name),
                    Us(r.start_ns)
                );
            }
        }
    }
    close_through(out, tid, &mut open, u64::MAX, first);
}

/// Per-span-name totals across all threads.
#[derive(Debug, Default)]
struct SpanAgg {
    count: u64,
    total_ns: u64,
    max_ns: u64,
    nested_ns: u64,
    /// Layer name → (calls, self ns).
    layers: BTreeMap<&'static str, (u64, u64)>,
}

fn span_aggregates() -> BTreeMap<&'static str, SpanAgg> {
    let mut agg: BTreeMap<&'static str, SpanAgg> = BTreeMap::new();
    for buf in registry::global().thread_bufs() {
        let events = lock_unpoisoned(&buf.events);
        for r in &events.spans {
            let Some(dur) = r.dur_ns else { continue };
            let entry = agg.entry(r.name).or_default();
            entry.count += 1;
            entry.total_ns += dur;
            entry.max_ns = entry.max_ns.max(dur);
            entry.nested_ns += r.nested_ns;
            for layer in &r.layers {
                let totals = entry.layers.entry(layer.name).or_insert((0, 0));
                totals.0 += layer.calls;
                totals.1 += layer.self_ns;
            }
        }
    }
    agg
}

/// The summary sections (`counters`, `histograms`, `spans`, `layers`,
/// `meta`) as the body of a JSON object — without the surrounding
/// braces, so it can be embedded into the trace file or wrapped
/// standalone.
fn summary_body() -> String {
    let reg = registry::global();
    let mut out = String::new();

    out.push_str("\"counters\":{");
    let counters = lock_unpoisoned(&reg.counters);
    for (i, (name, c)) in counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}:{}", encode_str(name), c.get());
    }
    drop(counters);
    out.push_str("},\n\"gauges\":{");
    let gauges = lock_unpoisoned(&reg.gauges);
    for (i, (name, g)) in gauges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}:{}", encode_str(name), g.get());
    }
    drop(gauges);
    out.push_str("},\n\"histograms\":{");
    let histograms = lock_unpoisoned(&reg.histograms);
    for (i, (name, h)) in histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{}:{{\"count\":{},\"sum\":{},\"buckets\":[",
            encode_str(name),
            h.count(),
            h.sum()
        );
        for (j, (floor, count)) in h.nonzero_buckets().into_iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{floor},{count}]");
        }
        out.push_str("]}");
    }
    drop(histograms);
    let spans = span_aggregates();
    out.push_str("},\n\"spans\":{");
    for (i, (name, span)) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{}:{{\"count\":{},\"total_us\":{},\"max_us\":{}}}",
            encode_str(name),
            span.count,
            Us(span.total_ns),
            Us(span.max_ns)
        );
    }
    // Where each span kind's wall time went: its layers' self time, the
    // spans nested in it, and (by subtraction) the unattributed rest.
    out.push_str("},\n\"layers\":{");
    let attributed = spans
        .iter()
        .filter(|(_, span)| !span.layers.is_empty() || span.nested_ns > 0);
    for (i, (name, span)) in attributed.enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{}:{{\"count\":{},\"span_ns\":{},\"nested_ns\":{},\"layers\":{{",
            encode_str(name),
            span.count,
            span.total_ns,
            span.nested_ns
        );
        for (j, (layer, (calls, self_ns))) in span.layers.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{}:{{\"calls\":{calls},\"self_ns\":{self_ns}}}",
                encode_str(layer)
            );
        }
        out.push_str("}}");
    }
    out.push_str("},\n\"meta\":{");
    let bufs = reg.thread_bufs();
    let dropped: u64 = bufs
        .iter()
        .map(|b| lock_unpoisoned(&b.events).dropped)
        .sum();
    let _ = write!(
        out,
        "\"threads\":{},\"dropped_spans\":{dropped}",
        bufs.len()
    );
    out.push('}');
    out
}

/// The counters/histograms/span-aggregate summary as one JSON object.
pub fn summary_json() -> String {
    format!("{{{}}}", summary_body())
}

/// Renders the full observability file: Chrome `traceEvents` plus the
/// summary sections.
pub fn render_trace() -> String {
    let reg = registry::global();
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    for buf in reg.thread_bufs() {
        let events = lock_unpoisoned(&buf.events);
        push_thread_events(&mut out, buf.tid, &events.spans, &mut first);
    }
    // Counter final values as ph:"C" records on a synthetic tid.
    let now = Us(reg.now_ns());
    let counters = lock_unpoisoned(&reg.counters);
    for (name, c) in counters.iter() {
        sep(&mut out, &mut first);
        let _ = write!(
            out,
            "{{\"name\":{},\"ph\":\"C\",\"ts\":{now},\"pid\":1,\"tid\":0,\"args\":{{\"value\":{}}}}}",
            encode_str(name),
            c.get()
        );
    }
    drop(counters);
    out.push_str("\n],\n");
    out.push_str(&summary_body());
    out.push_str("}\n");
    out
}

/// Writes the observability file (trace + summary) to `path`, creating
/// parent directories.
///
/// # Errors
///
/// Any I/O error from creating directories or writing the file.
pub fn write_trace(path: &Path) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, render_trace())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};
    use crate::layer::LayerTotal;

    #[test]
    fn nested_spans_emit_balanced_b_e_pairs() {
        let records = vec![
            // Child completes first (recorded first), parent second.
            SpanRecord {
                dur_ns: Some(5_000),
                ..SpanRecord::mark("child", 10_000)
            },
            SpanRecord {
                dur_ns: Some(100_000),
                sim_us: Some(7),
                layers: vec![LayerTotal {
                    name: "layer",
                    calls: 3,
                    self_ns: 20_000,
                }],
                nested_ns: 5_000,
                ..SpanRecord::mark("parent", 0)
            },
            SpanRecord::mark("mark", 50_000),
        ];
        let mut out = String::new();
        let mut first = true;
        push_thread_events(&mut out, 3, &records, &mut first);
        let json = format!("[{}]", out);
        let parsed = parse(&json).expect("valid JSON");
        let Value::Array(events) = parsed else {
            panic!("expected array")
        };
        let seq: Vec<(String, String)> = events
            .iter()
            .map(|e| {
                (
                    e.get("name").unwrap().as_str().unwrap().to_owned(),
                    e.get("ph").unwrap().as_str().unwrap().to_owned(),
                )
            })
            .collect();
        assert_eq!(
            seq,
            vec![
                ("parent".into(), "B".into()),
                ("child".into(), "B".into()),
                ("child".into(), "E".into()),
                ("mark".into(), "i".into()),
                ("layer".into(), "X".into()),
                ("parent".into(), "E".into()),
            ]
        );
        // The sim-time annotation rides on the parent's B record.
        let parent_b = &events[0];
        assert_eq!(
            parent_b
                .get("args")
                .and_then(|a| a.get("sim_us"))
                .and_then(Value::as_f64),
            Some(7.0)
        );
        // The layer slice starts past the nested child (10–15 µs) and
        // carries its totals.
        let layer = &events[4];
        let num = |e: &Value, key: &str| e.get(key).and_then(Value::as_f64);
        assert_eq!(num(layer, "ts"), Some(15.0));
        assert_eq!(num(layer, "dur"), Some(20.0));
        let args = layer.get("args").unwrap();
        assert_eq!(args.get("calls").and_then(Value::as_u64), Some(3));
        assert_eq!(args.get("self_ns").and_then(Value::as_u64), Some(20_000));
        assert_eq!(num(&events[5], "ts"), Some(100.0));
    }

    #[test]
    fn full_trace_renders_valid_json() {
        let _guard = crate::tests::GLOBAL_TEST_LOCK.lock().unwrap();
        crate::reset();
        crate::enable();
        {
            let _outer = crate::span("export.outer");
            let _inner = crate::span("export.inner");
            crate::inc("export.counter");
            crate::gauge_set("export.gauge", -4);
            crate::observe("export.hist", 33);
        }
        let text = render_trace();
        crate::disable();
        crate::reset();
        let parsed = parse(&text).expect("valid JSON");
        let events = parsed.get("traceEvents").expect("traceEvents key");
        let Value::Array(events) = events else {
            panic!("traceEvents must be an array")
        };
        assert!(!events.is_empty());
        assert!(parsed
            .get("counters")
            .and_then(|c| c.get("export.counter"))
            .is_some());
        assert_eq!(
            parsed
                .get("gauges")
                .and_then(|g| g.get("export.gauge"))
                .and_then(crate::json::Value::as_f64),
            Some(-4.0)
        );
        assert!(parsed
            .get("histograms")
            .and_then(|h| h.get("export.hist"))
            .is_some());
        assert!(parsed
            .get("spans")
            .and_then(|s| s.get("export.outer"))
            .is_some());
        // Counters appear as ph:"C" records too.
        assert!(events.iter().any(|e| {
            e.get("ph").and_then(Value::as_str) == Some("C")
                && e.get("name").and_then(Value::as_str) == Some("export.counter")
        }));
    }

    #[test]
    fn encode_str_escapes() {
        assert_eq!(encode_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(encode_str("\u{1}"), "\"\\u0001\"");
    }
}
