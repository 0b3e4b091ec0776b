//! Pretty-printing a saved observability file (`rfd obs-report`).

use std::fmt;

use crate::json::{parse, ParseError, Value};

/// Why a report could not be rendered.
#[derive(Debug)]
pub enum ReportError {
    /// The file was not valid JSON.
    Parse(ParseError),
    /// The JSON had none of the expected summary sections.
    NotAnObsFile,
}

impl fmt::Display for ReportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReportError::Parse(err) => write!(f, "{err}"),
            ReportError::NotAnObsFile => write!(
                f,
                "no counters/histograms/spans sections found — is this an rfd-obs file?"
            ),
        }
    }
}

impl std::error::Error for ReportError {}

impl From<ParseError> for ReportError {
    fn from(err: ParseError) -> Self {
        ReportError::Parse(err)
    }
}

/// How many spans the "top spans" table shows.
const TOP_SPANS: usize = 15;

fn fmt_us(us: f64) -> String {
    if us >= 1_000_000.0 {
        format!("{:.2}s", us / 1_000_000.0)
    } else if us >= 1_000.0 {
        format!("{:.2}ms", us / 1_000.0)
    } else {
        format!("{us:.0}µs")
    }
}

fn span_section(out: &mut String, spans: &Value) {
    let Some(map) = spans.as_object() else { return };
    let mut rows: Vec<(&str, u64, f64, f64)> = map
        .iter()
        .filter_map(|(name, v)| {
            Some((
                name.as_str(),
                v.get("count")?.as_u64()?,
                v.get("total_us")?.as_f64()?,
                v.get("max_us")?.as_f64()?,
            ))
        })
        .collect();
    rows.sort_by(|a, b| b.2.total_cmp(&a.2));
    out.push_str(&format!("top spans by total time (of {}):\n", rows.len()));
    out.push_str(&format!(
        "  {:<32} {:>10} {:>12} {:>12} {:>12}\n",
        "span", "count", "total", "mean", "max"
    ));
    for (name, count, total_us, max_us) in rows.into_iter().take(TOP_SPANS) {
        let mean = total_us / count.max(1) as f64;
        out.push_str(&format!(
            "  {:<32} {:>10} {:>12} {:>12} {:>12}\n",
            name,
            count,
            fmt_us(total_us),
            fmt_us(mean),
            fmt_us(max_us)
        ));
    }
}

/// One table per span kind: its layers' self time, the spans nested in
/// it and the unattributed rest — rows that sum to the span's wall time.
fn layer_section(out: &mut String, layers: &Value) {
    let Some(map) = layers.as_object() else {
        return;
    };
    for (span, v) in map {
        let num = |v: &Value, key: &str| v.get(key).and_then(Value::as_u64).unwrap_or(0);
        let (count, span_ns, nested_ns) = (num(v, "count"), num(v, "span_ns"), num(v, "nested_ns"));
        let mut rows: Vec<(String, Option<u64>, u64)> = v
            .get("layers")
            .and_then(Value::as_object)
            .into_iter()
            .flatten()
            .map(|(name, l)| (name.clone(), Some(num(l, "calls")), num(l, "self_ns")))
            .collect();
        rows.sort_by_key(|&(_, _, ns)| std::cmp::Reverse(ns));
        let layered: u64 = rows.iter().map(|&(_, _, ns)| ns).sum();
        if nested_ns > 0 {
            rows.push(("nested spans".to_owned(), None, nested_ns));
        }
        let unattributed = span_ns.saturating_sub(layered + nested_ns);
        rows.push(("unattributed".to_owned(), None, unattributed));
        out.push_str(&format!(
            "where {span} time went ({count} span{}, {} wall):\n",
            if count == 1 { "" } else { "s" },
            fmt_us(span_ns as f64 / 1000.0)
        ));
        out.push_str(&format!(
            "  {:<32} {:>12} {:>12} {:>8}\n",
            "layer", "calls", "self", "share"
        ));
        for (name, calls, ns) in rows {
            out.push_str(&format!(
                "  {:<32} {:>12} {:>12} {:>7.1}%\n",
                name,
                calls.map_or_else(String::new, |c| c.to_string()),
                fmt_us(ns as f64 / 1000.0),
                100.0 * ns as f64 / span_ns.max(1) as f64
            ));
        }
        out.push('\n');
    }
}

fn counter_section(out: &mut String, counters: &Value) {
    let Some(map) = counters.as_object() else {
        return;
    };
    out.push_str("counters:\n");
    for (name, v) in map {
        if let Some(n) = v.as_u64() {
            out.push_str(&format!("  {name:<40} {n:>14}\n"));
        }
    }
}

fn gauge_section(out: &mut String, gauges: &Value) {
    let Some(map) = gauges.as_object() else {
        return;
    };
    if map.is_empty() {
        return;
    }
    out.push_str("gauges:\n");
    for (name, v) in map {
        if let Some(n) = v.as_f64() {
            out.push_str(&format!("  {name:<40} {n:>14}\n"));
        }
    }
    out.push('\n');
}

fn histogram_section(out: &mut String, histograms: &Value) {
    let Some(map) = histograms.as_object() else {
        return;
    };
    out.push_str("histograms:\n");
    for (name, v) in map {
        let count = v.get("count").and_then(Value::as_u64).unwrap_or(0);
        let sum = v.get("sum").and_then(Value::as_u64).unwrap_or(0);
        let mean = sum as f64 / count.max(1) as f64;
        let buckets: Vec<(u64, u64)> = v
            .get("buckets")
            .and_then(Value::as_array)
            .map(|pairs| {
                pairs
                    .iter()
                    .filter_map(|p| {
                        let pair = p.as_array()?;
                        Some((pair.first()?.as_u64()?, pair.get(1)?.as_u64()?))
                    })
                    .collect()
            })
            .unwrap_or_default();
        let p50 = crate::metrics::percentile_from_buckets(&buckets, 50.0);
        let p99 = crate::metrics::percentile_from_buckets(&buckets, 99.0);
        out.push_str(&format!(
            "  {name} (count {count}, mean {mean:.1}, p50 {p50:.0}, p99 {p99:.0}):\n"
        ));
        let peak = buckets.iter().map(|&(_, c)| c).max().unwrap_or(1).max(1);
        for (floor, c) in buckets {
            let bar = "#".repeat(((c * 40).div_ceil(peak)) as usize);
            out.push_str(&format!("    >= {floor:>12}  {c:>10} {bar}\n"));
        }
    }
}

/// Renders a human-readable report from the text of a saved obs file
/// (either a full trace file or a bare summary): the top spans by total
/// time, where each span kind's time went by layer, a counter table and
/// histogram sketches.
///
/// # Errors
///
/// [`ReportError::Parse`] when the text is not JSON,
/// [`ReportError::NotAnObsFile`] when no known section is present.
pub fn render_report(text: &str) -> Result<String, ReportError> {
    let doc = parse(text)?;
    let counters = doc.get("counters");
    let gauges = doc.get("gauges");
    let histograms = doc.get("histograms");
    let spans = doc.get("spans");
    if counters.is_none() && gauges.is_none() && histograms.is_none() && spans.is_none() {
        return Err(ReportError::NotAnObsFile);
    }
    let mut out = String::new();
    if let Some(meta) = doc.get("meta") {
        let threads = meta.get("threads").and_then(Value::as_u64).unwrap_or(0);
        let dropped = meta
            .get("dropped_spans")
            .and_then(Value::as_u64)
            .unwrap_or(0);
        out.push_str(&format!(
            "threads: {threads}   dropped spans: {dropped}\n\n"
        ));
    }
    if let Some(spans) = spans {
        span_section(&mut out, spans);
        out.push('\n');
    }
    if let Some(layers) = doc.get("layers") {
        layer_section(&mut out, layers);
    }
    if let Some(counters) = counters {
        counter_section(&mut out, counters);
        out.push('\n');
    }
    if let Some(gauges) = gauges {
        gauge_section(&mut out, gauges);
    }
    if let Some(histograms) = histograms {
        histogram_section(&mut out, histograms);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
        "traceEvents": [],
        "counters": {"sim.events": 1200, "bgp.updates_sent": 450},
        "gauges": {"firehose.queue_depth": -2, "firehose.live_entries": 31},
        "histograms": {"sim.scheduler_depth": {"count": 4, "sum": 22, "buckets": [[4, 3], [8, 1]]}},
        "spans": {
            "sim.run": {"count": 2, "total_us": 5000000.000, "max_us": 3000000.000},
            "runner.cell": {"count": 8, "total_us": 900.250, "max_us": 200.125}
        },
        "layers": {
            "sim.run": {"count": 2, "span_ns": 5000000000, "nested_ns": 0, "layers": {
                "damper.charge": {"calls": 40, "self_ns": 1000000000},
                "bgp.decision": {"calls": 90, "self_ns": 3000000000}
            }}
        },
        "meta": {"threads": 2, "dropped_spans": 0}
    }"#;

    #[test]
    fn renders_all_sections() {
        let report = render_report(SAMPLE).expect("report renders");
        assert!(report.contains("threads: 2"), "{report}");
        assert!(report.contains("sim.events"), "{report}");
        assert!(report.contains("1200"), "{report}");
        assert!(report.contains("gauges:"), "{report}");
        assert!(report.contains("firehose.queue_depth"), "{report}");
        assert!(report.contains("-2"), "{report}");
        assert!(report.contains("sim.scheduler_depth"), "{report}");
        // Buckets [[4,3],[8,1]] → rank 2 is 2/3 through [4,8) ≈ 7,
        // rank 3.96 is 0.96 through [8,16) ≈ 16.
        assert!(report.contains("p50 7, p99 16"), "{report}");
        assert!(report.contains("sim.run"), "{report}");
        assert!(report.contains("5.00s"), "{report}");
        // Spans are sorted by total time: sim.run before runner.cell.
        assert!(
            report.find("sim.run").unwrap() < report.find("runner.cell").unwrap(),
            "{report}"
        );
        // The layer table: largest layer first, then the unattributed
        // remainder (5 s − 3 s − 1 s).
        assert!(
            report.contains("where sim.run time went (2 spans, 5.00s wall)"),
            "{report}"
        );
        let decision = report.find("bgp.decision").unwrap();
        let damper = report.find("damper.charge").unwrap();
        let rest = report.find("unattributed").unwrap();
        assert!(decision < damper && damper < rest, "{report}");
        assert!(
            report.contains("60.0%") && report.contains("20.0%"),
            "{report}"
        );
        assert!(!report.contains("nested spans"), "{report}");
    }

    #[test]
    fn rejects_non_obs_json() {
        assert!(matches!(
            render_report("{\"other\": 1}"),
            Err(ReportError::NotAnObsFile)
        ));
        assert!(matches!(
            render_report("not json"),
            Err(ReportError::Parse(_))
        ));
    }

    #[test]
    fn round_trips_live_summary() {
        let _guard = crate::tests::GLOBAL_TEST_LOCK.lock().unwrap();
        crate::reset();
        crate::enable();
        crate::inc("report.counter");
        crate::gauge_set("report.gauge", 17);
        crate::observe("report.hist", 9);
        {
            let _s = crate::span("report.span");
            let _l = crate::layer("report.layer");
        }
        let summary = crate::summary_json();
        crate::disable();
        crate::reset();
        let report = render_report(&summary).expect("summary renders");
        assert!(report.contains("report.counter"), "{report}");
        assert!(report.contains("report.gauge"), "{report}");
        assert!(report.contains("report.hist"), "{report}");
        assert!(report.contains("report.span"), "{report}");
        assert!(report.contains("where report.span time went"), "{report}");
        assert!(report.contains("report.layer"), "{report}");
        assert!(report.contains("unattributed"), "{report}");
    }
}
