//! `torus40`: `rfd run --topology torus:40x40 --pulses 3 --damping
//! cisco` (1,600 routers, 3,200 links, 100 s lead-in, one shard, the
//! `SuppressionStats` sink), with the warm network checkpointed and the
//! pulses run on a restored copy.
//!
//! A round runs [`INPUTS`] inputs, each from its own sub-seed of the
//! workload seed: one input's work varies by about 7 % with its seed
//! (the timing draws), so a round's value is the mean over its inputs
//! and the run reports the median over rounds.

use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

use route_flap_damping::bgp::{snapshot, Network, NetworkConfig, RunReport, Snapshot, SnapshotKey};
use route_flap_damping::cli::{network_config, parse_run_options};
use route_flap_damping::damping::FlapPattern;
use route_flap_damping::experiments::pick_isp;
use route_flap_damping::metrics::{SuppressionStats, TraceEventKind, TraceSink};
use route_flap_damping::obs;
use route_flap_damping::sim::{SimDuration, SimTime};
use route_flap_damping::topology::{Graph, NodeId};

use crate::harness::{arm, mean, secs, Ctx, Report, Samples, Workload};

/// Inputs per round.
const INPUTS: u64 = 8;
/// Shards of the reference pass that measures the cross-shard exchange.
const REFERENCE_SHARDS: usize = 2;
/// The quiet lead-in `rfd run` uses before the first pulse.
const LEAD_IN: SimDuration = SimDuration::from_secs(100);

/// What `rfd run` prints plus the engine's event count for the
/// measured phase: the output every check compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RunOut {
    convergence_us: u64,
    updates: usize,
    suppressed: usize,
    noisy: usize,
    silent: usize,
    events: u64,
}

impl RunOut {
    fn new(report: &RunReport, stats: &SuppressionStats) -> Self {
        let (noisy, silent) = stats.reuse_counts();
        RunOut {
            convergence_us: report.convergence_time.as_micros(),
            updates: report.message_count,
            suppressed: stats.ever_suppressed_entries(),
            noisy,
            silent,
            events: report.events_processed,
        }
    }
}

/// Sub-seed 1, which `rfd run --seed 1` prints as "converged 18210.0 s
/// after the final announcement; 118991 updates observed / 6158 entries
/// suppressed; reuse timers: 1589 noisy / 12799 silent".
const PINNED: RunOut = RunOut {
    convergence_us: 18_209_997_318,
    updates: 118_991,
    suppressed: 6_158,
    noisy: 1_589,
    silent: 12_799,
    events: 175_839,
};

/// The generated input of one run, ready to construct networks from.
struct Input {
    graph: Graph,
    isp: NodeId,
    config: NetworkConfig,
    key: SnapshotKey,
    pattern: FlapPattern,
}

/// The input of sub-seed `seed`, built as `rfd run` builds it; also
/// returns the seconds the topology build took.
fn input(seed: u64) -> (Input, f64) {
    let args: Vec<String> = [
        "--topology",
        "torus:40x40",
        "--pulses",
        "3",
        "--damping",
        "cisco",
        "--seed",
        &seed.to_string(),
    ]
    .iter()
    .map(|a| a.to_string())
    .collect();
    let opts = parse_run_options(&args).expect("the benchmark's run flags parse");
    let t = Instant::now();
    let graph = opts.topology.build(seed);
    let build = secs(t);
    let isp = pick_isp(&graph, seed);
    let config = network_config(&opts, &graph);
    let key = snapshot::fingerprints(&graph, &[isp], &config);
    let pattern = FlapPattern::new(opts.pulses, opts.interval);
    let input = Input {
        graph,
        isp,
        config,
        key,
        pattern,
    };
    (input, build)
}

/// The trace sink of a traced round: wraps the real sink, times every
/// call into it and counts the events by kind.
#[derive(Debug, Default)]
struct Probe {
    inner: SuppressionStats,
    busy: Duration,
    records: u64,
    received: u64,
    best_changes: u64,
    charges: u64,
    suppressions: u64,
    reuses: u64,
}

impl Probe {
    fn add(&mut self, other: &Probe) {
        self.busy += other.busy;
        self.records += other.records;
        self.received += other.received;
        self.best_changes += other.best_changes;
        self.charges += other.charges;
        self.suppressions += other.suppressions;
        self.reuses += other.reuses;
    }
}

impl TraceSink for Probe {
    fn record(&mut self, at: SimTime, kind: TraceEventKind) {
        match kind {
            TraceEventKind::UpdateReceived { .. } => self.received += 1,
            TraceEventKind::BestRouteChanged { .. } => self.best_changes += 1,
            TraceEventKind::PenaltySample { .. } => self.charges += 1,
            TraceEventKind::Suppressed { .. } => self.suppressions += 1,
            TraceEventKind::Reused { .. } => self.reuses += 1,
            _ => {}
        }
        let t = Instant::now();
        self.inner.record(at, kind);
        self.busy += t.elapsed();
        self.records += 1;
    }

    fn finish(&mut self) {
        let t = Instant::now();
        self.inner.finish();
        self.busy += t.elapsed();
    }

    fn retained_events(&self) -> usize {
        self.inner.retained_events()
    }

    fn export_snapshot(&self) -> Option<Vec<u8>> {
        self.inner.export_snapshot()
    }

    fn import_snapshot(&mut self, bytes: &[u8]) -> bool {
        self.inner.import_snapshot(bytes)
    }
}

/// The sinks a drive can run with.
trait Sink: TraceSink + Sized + 'static {
    fn fresh() -> Self;
    fn stats(&self) -> &SuppressionStats;
}

impl Sink for SuppressionStats {
    fn fresh() -> Self {
        SuppressionStats::new()
    }
    fn stats(&self) -> &SuppressionStats {
        self
    }
}

impl Sink for Probe {
    fn fresh() -> Self {
        Probe::default()
    }
    fn stats(&self) -> &SuppressionStats {
        &self.inner
    }
}

/// Timings and results of one input driven through set-up, warm-up,
/// checkpoint, restore and the pulses.
struct Drive<S> {
    build: f64,
    new: f64,
    warm: f64,
    run: f64,
    /// Outer clock over warm-up and pulses, checkpoint/restore excluded.
    phase: f64,
    capture: f64,
    write: f64,
    read: f64,
    restore_new: f64,
    resume: f64,
    bytes: u64,
    out: RunOut,
    /// Sinks of the warm-up network and of the restored one.
    sinks: [S; 2],
    events: u64,
    dropped: u64,
}

fn drive<S: Sink>(seed: u64, tmp: &Path) -> Result<Drive<S>, String> {
    let t = Instant::now();
    let (input, build) = input(seed);
    let mut net = Network::new_with_sink(&input.graph, input.isp, input.config.clone(), S::fresh());
    let new = secs(t) - build;

    let t = Instant::now();
    net.warm_up();
    let warm = secs(t);
    let phase_start = Instant::now();

    let pause_start = Instant::now();
    let path = tmp.join(format!("torus40-{seed}.snap"));
    let t = Instant::now();
    let snap = Snapshot::capture(&mut net, input.key).map_err(|e| e.to_string())?;
    let capture = secs(t);
    let t = Instant::now();
    let bytes = snap.write(&path).map_err(|e| e.to_string())?;
    let write = secs(t);
    let warm_sink = net.into_sink();
    let t = Instant::now();
    let loaded = Snapshot::read(&path).map_err(|e| e.to_string())?;
    let read = secs(t);
    let t = Instant::now();
    let mut net = Network::new_with_sink(&input.graph, input.isp, input.config.clone(), S::fresh());
    let restore_new = secs(t);
    let t = Instant::now();
    loaded
        .resume_into(&mut net, &input.key)
        .map_err(|e| e.to_string())?;
    let resume = secs(t);
    std::fs::remove_file(&path).map_err(|e| e.to_string())?;
    let pause = secs(pause_start);

    let t = Instant::now();
    let report = net.run_pulses(input.pattern, LEAD_IN);
    let run = secs(t);
    let phase = warm + secs(phase_start) - pause;

    let (events, dropped) = (net.events_processed(), net.dropped_messages());
    let sink = net.into_sink();
    Ok(Drive {
        build,
        new,
        warm,
        run,
        phase,
        capture,
        write,
        read,
        restore_new,
        resume,
        bytes,
        out: RunOut::new(&report, sink.stats()),
        sinks: [warm_sink, sink],
        events,
        dropped,
    })
}

/// A warm-up and pulses run with no checkpoint in between.
struct Straight {
    secs: f64,
    out: RunOut,
    /// Engine events, barrier windows and barrier stall seconds over
    /// the network's lifetime.
    events: u64,
    windows: u64,
    stall: f64,
}

/// Runs one input straight through on `shards` simulation shards.
fn straight(seed: u64, shards: usize) -> Straight {
    let (mut input, _) = input(seed);
    input.config.sim_shards = shards;
    let mut net = Network::new_with_sink(
        &input.graph,
        input.isp,
        input.config,
        SuppressionStats::new(),
    );
    let t = Instant::now();
    net.warm_up();
    let report = net.run_pulses(input.pattern, LEAD_IN);
    let secs = secs(t);
    Straight {
        secs,
        events: net.events_processed(),
        windows: net.windows(),
        stall: net.barrier_stall().as_secs_f64(),
        out: RunOut::new(&report, &net.into_sink()),
    }
}

pub struct Torus40 {
    subs: Vec<u64>,
    seen: HashMap<u64, RunOut>,
}

impl Torus40 {
    pub fn new(seed: u64) -> Self {
        Torus40 {
            subs: (0..INPUTS).map(|i| (seed - 1) * INPUTS + i + 1).collect(),
            seen: HashMap::new(),
        }
    }

    /// Pinned output for sub-seed 1; for every input, the output of its
    /// first run in this process.
    fn check(&mut self, seed: u64, out: RunOut, what: &str) -> Result<(), String> {
        if seed == 1 && out != PINNED {
            return Err(format!("torus40 {what} seed 1: {out:?}, pinned {PINNED:?}"));
        }
        let first = *self.seen.entry(seed).or_insert(out);
        if out != first {
            return Err(format!(
                "torus40 {what} seed {seed}: {out:?}, earlier {first:?}"
            ));
        }
        Ok(())
    }
}

/// Pushes the mean of each named column of a round's per-input rows.
fn push_means(s: &mut Samples, rows: &[Vec<(&'static str, f64)>]) {
    if let Some(first) = rows.first() {
        for (k, (name, _)) in first.iter().enumerate() {
            let col: Vec<f64> = rows.iter().map(|r| r[k].1).collect();
            s.push(name, mean(&col));
        }
    }
}

impl Workload for Torus40 {
    fn plain(&mut self, ctx: &Ctx, s: &mut Samples, report: &mut Report) {
        let mut rows = Vec::new();
        for seed in self.subs.clone() {
            let _armed = arm("torus40");
            match drive::<SuppressionStats>(seed, &ctx.tmp) {
                Ok(d) => {
                    report.op(self.check(seed, d.out, "restored run"));
                    rows.push(vec![
                        ("setup_s", d.build + d.new),
                        ("wall_s", d.warm + d.run),
                        ("checkpoint_s", d.capture + d.write),
                        ("restore_s", d.read + d.restore_new + d.resume),
                    ]);
                }
                Err(e) => report.op(Err(format!("torus40 seed {seed}: {e}"))),
            }
        }
        push_means(s, &rows);
    }

    fn observed(&mut self, ctx: &Ctx, s: &mut Samples, report: &mut Report) {
        let mut rows = Vec::new();
        for seed in self.subs.clone() {
            let _armed = arm("torus40 with obs on");
            let (input, _) = input(seed);
            let mut net = Network::new_with_sink(
                &input.graph,
                input.isp,
                input.config,
                SuppressionStats::new(),
            );
            obs::reset();
            obs::enable();
            let t = Instant::now();
            net.warm_up();
            let run_report = net.run_pulses(input.pattern, LEAD_IN);
            let run = secs(t);
            let out = RunOut::new(&run_report, &net.into_sink());
            let path = ctx.tmp.join(format!("torus40-{seed}.trace.json"));
            let t = Instant::now();
            let written = obs::write_trace(&path);
            let write = secs(t);
            obs::disable();
            obs::reset();
            let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
            let _ = std::fs::remove_file(&path);
            report.op(written.map_err(|e| format!("obs trace: {e}")));
            report.op(self.check(seed, out, "run with obs on"));
            rows.push(vec![
                ("obs_wall_s", run + write),
                ("obs.write_trace_s", write),
                ("obs.trace_bytes", bytes as f64),
            ]);
        }
        push_means(s, &rows);
    }

    fn traced(&mut self, ctx: &Ctx, s: &mut Samples, report: &mut Report) {
        let mut rows = Vec::new();
        for seed in self.subs.clone() {
            let _armed = arm("torus40 traced");
            let d = match drive::<Probe>(seed, &ctx.tmp) {
                Ok(d) => d,
                Err(e) => {
                    report.op(Err(format!("torus40 seed {seed}: {e}")));
                    continue;
                }
            };
            report.op(self.check(seed, d.out, "traced run"));
            let mut probe = Probe::default();
            for sink in &d.sinks {
                probe.add(sink);
            }
            let sink = probe.busy.as_secs_f64();
            let bgp_self = d.warm + d.run - sink;
            let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
            rows.push(vec![
                ("topology.build_s", d.build),
                ("bgp.network_new_s", d.new),
                ("bgp.warm_up_s", d.warm),
                ("bgp.run_s", d.run),
                ("bgp.self_s", bgp_self),
                ("metrics.sink_s", sink),
                ("trace.measured_s", d.phase),
                ("unattributed_s", d.phase - bgp_self - sink),
                ("sim.events", d.events as f64),
                ("sim.events_per_s", d.events as f64 / (d.warm + d.run)),
                ("bgp.updates_received", probe.received as f64),
                ("bgp.best_route_changes", probe.best_changes as f64),
                (
                    "bgp.useful_update_ratio",
                    ratio(probe.best_changes, probe.received),
                ),
                ("bgp.dropped_messages", d.dropped as f64),
                ("metrics.sink.records", probe.records as f64),
                ("core.damper.charges", probe.charges as f64),
                ("core.damper.suppressions", probe.suppressions as f64),
                ("core.damper.reuses", probe.reuses as f64),
                ("snap.capture_s", d.capture),
                ("snap.write_s", d.write),
                ("snap.read_s", d.read),
                ("snap.resume_s", d.resume),
                ("snap.bytes", d.bytes as f64),
            ]);
        }
        push_means(s, &rows);

        // Cross-checks on the round's first input: the run without
        // checkpoint and restore, and the run on two shards, must give
        // the restored run's output. The two-shard run measures the
        // cross-shard exchange.
        let seed = self.subs[0];
        let _armed = arm("torus40 shard reference");
        let seq = straight(seed, 1);
        let sharded = straight(seed, REFERENCE_SHARDS);
        report.op(self.check(seed, seq.out, "uninterrupted run"));
        report.op(self.check(seed, sharded.out, "two-shard run"));
        for (name, value) in [
            ("sim.shard.seq_run_s", seq.secs),
            ("sim.shard.run_s", sharded.secs),
            ("sim.shard.speedup", seq.secs / sharded.secs),
            ("sim.windows", sharded.windows as f64),
            (
                "sim.events_per_window",
                sharded.events as f64 / sharded.windows.max(1) as f64,
            ),
            ("sim.shard.barrier_stall_s", sharded.stall),
        ] {
            s.push(name, value);
        }
    }
}
