//! End-to-end contract of the observability layer: recording must not
//! perturb simulation results (byte-identical CSV with obs on/off and
//! across thread counts), and an observed sweep must yield a valid
//! Chrome-trace file with spans from every instrumented layer.
//!
//! The obs registry is process-global, so the in-process tests here
//! serialise on [`OBS_LOCK`]; the `rfd run` checks run the binary in
//! processes of their own.

use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use route_flap_damping::bgp::{Network, NetworkConfig};
use route_flap_damping::experiments::figures::fig8_9;
use route_flap_damping::experiments::{SweepOptions, TopologyKind};
use route_flap_damping::firehose::{self, FirehoseConfig, WorkloadKind, WorkloadSpec};
use route_flap_damping::metrics::{TraceEventKind, TraceSink};
use route_flap_damping::obs::json::Value;
use route_flap_damping::sim::{SimDuration, SimTime};
use route_flap_damping::topology::{mesh_torus, NodeId};
use route_flap_damping::{obs, runner};

static OBS_LOCK: Mutex<()> = Mutex::new(());

fn opts(threads: usize) -> SweepOptions {
    SweepOptions {
        threads,
        max_pulses: 3,
        seeds: vec![1],
        ..SweepOptions::quick()
    }
}

#[test]
fn obs_and_threads_do_not_perturb_results_and_trace_is_valid() {
    let _serial = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mesh = TopologyKind::Mesh {
        width: 4,
        height: 4,
    };
    let internet = TopologyKind::Internet { nodes: 20, m: 2 };

    // Reference: observability off, single thread.
    obs::reset();
    obs::disable();
    let reference = fig8_9::figure8_9_on(&opts(1), mesh, internet);
    let ref_convergence = reference.convergence_table().to_csv();
    let ref_messages = reference.message_table().to_csv();

    // Observed: recording on, two threads. Results must not move by a
    // single byte — obs only watches, it never feeds back.
    obs::reset();
    obs::enable();
    let observed = fig8_9::figure8_9_on(&opts(2), mesh, internet);
    let trace = obs::render_trace();
    obs::disable();
    obs::reset();
    assert_eq!(
        observed.convergence_table().to_csv(),
        ref_convergence,
        "convergence CSV must be byte-identical with obs on and 2 threads"
    );
    assert_eq!(
        observed.message_table().to_csv(),
        ref_messages,
        "message CSV must be byte-identical with obs on and 2 threads"
    );

    // The trace parses as JSON and carries spans from all four
    // instrumented layers: sim engine, BGP network, damper, runner.
    let value = obs::json::parse(&trace).expect("trace is valid JSON");
    let events = value
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("traceEvents array");
    assert!(!events.is_empty(), "traceEvents must not be empty");
    let names: std::collections::BTreeSet<&str> = events
        .iter()
        .filter_map(|e| e.get("name").and_then(|n| n.as_str()))
        .collect();
    for layer_span in ["sim.run", "bgp.warmup", "damper.charge", "runner.cell"] {
        assert!(
            names.contains(layer_span),
            "trace missing span {layer_span}; saw {names:?}"
        );
    }
    let counters = value
        .get("counters")
        .and_then(|c| c.as_object())
        .expect("counters section");
    assert!(counters.contains_key("sim.events"));
    assert!(counters.contains_key("bgp.decisions"));
    assert!(counters.contains_key("damper.charges"));
    assert!(counters.contains_key("runner.cells_completed"));
    let histograms = value
        .get("histograms")
        .and_then(|h| h.as_object())
        .expect("histograms section");
    assert!(histograms.contains_key("runner.cell_us"));

    // The same file pretty-prints through the report path.
    let report = obs::render_report(&trace).expect("report renders");
    assert!(report.contains("sim.run"));
    assert!(report.contains("counters:"));

    // Chaos section: supervised-cell fault counters and the flight
    // recorder. A panic*2 plan with one retry yields exactly two
    // panics, one retry and one failure; a 1 ns cell budget times every
    // cell out. Each failure dumps the flight recorder to the
    // configured path.
    obs::reset();
    obs::enable();
    let flight =
        std::env::temp_dir().join(format!("rfd-obs-e2e-flight-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&flight);
    obs::set_flight_path(&flight);
    let victim = "Full Damping (simulation, mesh)|n=2|seed=1";
    let chaotic = fig8_9::figure8_9_on(
        &SweepOptions {
            chaos: runner::ChaosPlan::parse(&format!("panic*2@{victim}")).unwrap(),
            retries: 1,
            ..opts(2)
        },
        mesh,
        internet,
    );
    assert_eq!(chaotic.failures.len(), 1);
    let timed_out = fig8_9::figure8_9_on(
        &SweepOptions {
            cell_budget: Some(std::time::Duration::from_nanos(1)),
            ..opts(1)
        },
        mesh,
        internet,
    );
    assert!(!timed_out.failures.is_empty());
    let trace = obs::render_trace();
    obs::disable();
    obs::reset();
    let value = obs::json::parse(&trace).expect("chaos trace is valid JSON");
    let counters = value
        .get("counters")
        .and_then(|c| c.as_object())
        .expect("counters section");
    let counter = |name: &str| {
        counters
            .get(name)
            .and_then(|v| v.as_f64())
            .unwrap_or_else(|| panic!("counter {name} missing; saw {:?}", counters.keys()))
    };
    assert_eq!(counter("runner.cell.panics"), 2.0);
    assert_eq!(counter("runner.cell.retries"), 1.0);
    assert_eq!(
        counter("runner.cell.failures"),
        1.0 + timed_out.failures.len() as f64
    );
    assert!(counter("runner.cell.timeouts") >= 1.0);
    assert!(
        flight.exists() && std::fs::metadata(&flight).unwrap().len() > 0,
        "cell failure must dump the flight recorder to {}",
        flight.display()
    );
    let _ = std::fs::remove_file(&flight);
}

/// A trace sink that, once armed, holds its first event until the
/// flight recorder has been dumped, and keeps that dump: the cell is
/// then stopped inside `sim.run` while the dump is taken.
#[derive(Debug)]
struct HoldUntilDumped {
    path: std::path::PathBuf,
    armed: Arc<AtomicBool>,
    dump: Arc<Mutex<Option<String>>>,
}

impl TraceSink for HoldUntilDumped {
    fn record(&mut self, _at: SimTime, _kind: TraceEventKind) {
        if !self.armed.swap(false, Ordering::SeqCst) {
            return;
        }
        // The dump is written in place: retry until a whole file parses.
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        while std::time::Instant::now() < deadline {
            if let Ok(text) = std::fs::read_to_string(&self.path) {
                if obs::json::parse(&text).is_ok() {
                    *self.dump.lock().unwrap() = Some(text);
                    return;
                }
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

/// The `(tid, name)` of every span a flight dump shows opened on a
/// thread with no completed record after it.
fn in_flight(dump: &Value) -> Vec<(u64, String)> {
    let mut open: Vec<(u64, String)> = Vec::new();
    for e in dump
        .get("flightEvents")
        .and_then(Value::as_array)
        .expect("flightEvents array")
    {
        let tid = e.get("tid").and_then(Value::as_u64).unwrap();
        let name = e.get("name").and_then(Value::as_str).unwrap().to_owned();
        if e.get("open") == Some(&Value::Bool(true)) {
            open.push((tid, name));
        } else if e.get("dur_us").is_some() {
            // A wrapped ring may have lost the opening; nothing to close.
            if let Some(done) = open.iter().rposition(|o| *o == (tid, name.clone())) {
                open.remove(done);
            }
        }
    }
    open
}

#[test]
fn cell_budget_watchdog_dump_shows_the_running_cell() {
    let _serial = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let path = std::env::temp_dir().join(format!(
        "rfd-obs-e2e-watchdog-{}.flightrec.json",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    obs::reset();
    obs::enable();
    obs::set_flight_path(&path);
    let dump = Arc::new(Mutex::new(None));
    let grid = runner::RunGrid::new("watchdog")
        .series("only", ())
        .pulses(vec![1])
        .seeds(vec![1]);
    // The budget outlasts warm-up, so the watchdog's one dump for the
    // cell comes while the sink holds the run inside `sim.run`.
    let config = runner::RunnerConfig::sequential().cell_budget(Duration::from_millis(500));
    let out = runner::run_grid(&grid, &config, |_, cell| {
        let armed = Arc::new(AtomicBool::new(false));
        let sink = HoldUntilDumped {
            path: path.clone(),
            armed: Arc::clone(&armed),
            dump: Arc::clone(&dump),
        };
        let config = NetworkConfig::paper_full_damping(cell.seed);
        let mut net = Network::new_with_sink(&mesh_torus(4, 4), NodeId::new(5), config, sink);
        net.warm_up();
        armed.store(true, Ordering::SeqCst);
        net.run_paper_workload(cell.pulses);
        runner::RunMetrics {
            convergence_secs: 0.0,
            messages: 0.0,
            suppressed: 0.0,
        }
    })
    .unwrap();
    obs::disable();
    obs::reset();
    let _ = std::fs::remove_file(&path);
    assert_eq!(out.failures().len(), 1, "the held cell overran its budget");
    let text = dump
        .lock()
        .unwrap()
        .take()
        .expect("the watchdog dumped the flight recorder within 60 s");
    let flying = in_flight(&obs::json::parse(&text).unwrap());
    let names: Vec<&str> = flying.iter().map(|(_, n)| n.as_str()).collect();
    assert!(
        names.contains(&"runner.cell") && names.contains(&"sim.run"),
        "the dump must show the overrunning cell's spans in flight: {flying:?}"
    );
    assert!(
        !names.contains(&"bgp.warmup"),
        "warm-up had ended: {flying:?}"
    );
}

/// The `(calls, self_ns)` of `layer` inside spans named `span`, from a
/// summary's `layers` section.
fn layer_totals(doc: &Value, span: &str, layer: &str) -> (u64, u64) {
    let row = doc
        .get("layers")
        .and_then(|l| l.get(span))
        .and_then(|s| s.get("layers"))
        .and_then(|l| l.get(layer))
        .unwrap_or_else(|| panic!("no {layer} layer inside {span}"));
    let num = |key: &str| row.get(key).and_then(Value::as_u64).unwrap();
    (num("calls"), num("self_ns"))
}

/// Runs `rfd run` on a small torus with recording on and returns the
/// obs file's text.
fn observed_run(pulses: u32) -> String {
    let path = std::env::temp_dir().join(format!(
        "rfd-obs-e2e-run-{}-p{pulses}.json",
        std::process::id()
    ));
    let out = Command::new(env!("CARGO_BIN_EXE_rfd"))
        .args(["run", "--topology", "torus:8x8", "--damping", "cisco"])
        .args(["--pulses", &pulses.to_string(), "--seed", "3"])
        .arg(format!("--obs={}", path.display()))
        .env_remove("RFD_OBS")
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "rfd run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&path).expect("obs file written");
    let _ = std::fs::remove_file(&path);
    text
}

#[test]
fn run_trace_size_does_not_grow_with_events() {
    let texts = [observed_run(1), observed_run(3)];
    let docs: Vec<Value> = texts
        .iter()
        .map(|t| obs::json::parse(t).expect("obs file is valid JSON"))
        .collect();
    let (one, three) = (&docs[0], &docs[1]);
    let events = |doc: &Value| {
        doc.get("traceEvents")
            .and_then(Value::as_array)
            .unwrap()
            .len()
    };
    let counter = |doc: &Value, name: &str| {
        doc.get("counters")
            .and_then(|c| c.get(name))
            .and_then(Value::as_u64)
            .unwrap()
    };
    assert!(
        counter(three, "sim.events") > counter(one, "sim.events"),
        "three pulses must do more work than one"
    );
    assert_eq!(
        events(one),
        events(three),
        "the trace holds spans and layer totals, not per-event records"
    );
    for (doc, text) in docs.iter().zip(&texts) {
        // Every charge ran inside a `sim.run` span, so the layer saw all
        // of them.
        let (calls, self_ns) = layer_totals(doc, "sim.run", "damper.charge");
        assert_eq!(calls, counter(doc, "damper.charges"));
        assert!(calls > 0 && self_ns > 0);
        // The layers of the event loop, and rows that sum to the span.
        let sim_run = doc.get("layers").and_then(|l| l.get("sim.run")).unwrap();
        let span_ns = sim_run.get("span_ns").and_then(Value::as_u64).unwrap();
        let rows = sim_run.get("layers").and_then(Value::as_object).unwrap();
        for layer in ["sim.wheel", "bgp.decision", "sink.emit"] {
            assert!(rows.contains_key(layer), "missing layer {layer}: {rows:?}");
        }
        let layered: u64 = rows
            .values()
            .map(|r| r.get("self_ns").and_then(Value::as_u64).unwrap())
            .sum();
        assert!(
            layered <= span_ns,
            "layers {layered} ns > span {span_ns} ns"
        );
        let report = obs::render_report(text).expect("report renders");
        assert!(report.contains("where sim.run time went"), "{report}");
        assert!(report.contains("unattributed"), "{report}");
    }
}

#[test]
fn firehose_with_obs_keeps_its_aggregate_and_times_every_charge() {
    let _serial = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let config = FirehoseConfig {
        shards: 2,
        ..FirehoseConfig::new(WorkloadSpec {
            peers: 6,
            prefixes: 64,
            rate: 40.0,
            duration: SimDuration::from_secs(3600),
            kind: WorkloadKind::FlapStorm,
            seed: 11,
        })
    };
    obs::reset();
    obs::disable();
    let plain = firehose::run(&config).expect("runs");
    obs::enable();
    let observed = firehose::run(&config).expect("runs");
    let summary = obs::summary_json();
    obs::disable();
    obs::reset();
    assert_eq!(
        observed.aggregate_signature(),
        plain.aggregate_signature(),
        "recording must not move a firehose decision"
    );
    let doc = obs::json::parse(&summary).expect("summary is valid JSON");
    let (calls, _) = layer_totals(&doc, "firehose.shard", "damper.charge");
    assert_eq!(calls, observed.aggregate.updates);
    assert!(
        observed.aggregate.suppressions > 0,
        "the storm must suppress"
    );
}
