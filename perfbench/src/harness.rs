//! What every workload shares: the run context, the round budget, the
//! hang watchdog, per-round samples, output checks and the result line.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The benchmark's arguments, as parsed by `main`.
pub struct Ctx {
    /// Workload seed; the inputs are a pure function of it.
    pub seed: u64,
    /// Measuring budget of the run.
    pub seconds: f64,
    /// `--trace 1`: report the per-layer metrics instead of the
    /// end-to-end ones.
    pub trace: bool,
    /// Benchmark-owned scratch directory for journals, snapshots and
    /// obs traces.
    pub tmp: PathBuf,
}

/// One workload, as rounds of three kinds. Every round checks the
/// outputs it produces through [`Report::op`].
pub trait Workload {
    /// A round as a user runs the workload: pushes `setup_s`, `wall_s`
    /// and the workload's own plain-run samples.
    fn plain(&mut self, ctx: &Ctx, s: &mut Samples, report: &mut Report);

    /// The plain round's measured phase with `rfd_obs` recording on,
    /// plus writing the trace: pushes `obs_wall_s`,
    /// `obs.write_trace_s` and `obs.trace_bytes`.
    fn observed(&mut self, ctx: &Ctx, s: &mut Samples, report: &mut Report);

    /// A round timed at every public call it makes: pushes the
    /// per-layer samples, including `trace.measured_s`.
    fn traced(&mut self, ctx: &Ctx, s: &mut Samples, report: &mut Report);

    /// After a traced run's rounds: cross-checks and per-layer metrics
    /// that are not medians of round samples.
    fn finish_traced(&mut self, _ctx: &Ctx, _report: &mut Report) {}
}

#[derive(Clone, Copy)]
enum Round {
    Plain,
    Traced,
    Observed,
}

/// Runs a workload's rounds within the run's budget, cycling through
/// the kinds so that every metric samples the whole run: plain and
/// obs rounds, and traced rounds in a traced run. Every kind runs at
/// least once; after that a round starts only while the budget has
/// room for one more round of the average length. `peak_rss_mb` is
/// read right after the first (plain) round, so it is the workload's
/// own peak and not that of the obs recorder.
pub fn drive(w: &mut dyn Workload, ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let mut s = Samples::default();
    let cycle: &[Round] = if ctx.trace {
        &[Round::Plain, Round::Traced, Round::Observed]
    } else {
        &[Round::Plain, Round::Observed]
    };
    let started = Instant::now();
    let mut rounds = 0;
    loop {
        let elapsed = secs(started);
        if rounds >= cycle.len() && elapsed * (rounds + 1) as f64 / rounds as f64 > ctx.seconds {
            break;
        }
        match cycle[rounds % cycle.len()] {
            Round::Plain => w.plain(ctx, &mut s, &mut report),
            Round::Traced => w.traced(ctx, &mut s, &mut report),
            Round::Observed => w.observed(ctx, &mut s, &mut report),
        }
        if rounds == 0 {
            report.e2e("peak_rss_mb", peak_rss_mib());
        }
        rounds += 1;
    }
    if ctx.trace {
        w.finish_traced(ctx, &mut report);
        report.layers_from(&s);
        report.layer(
            "obs.overhead_s",
            s.median("obs_wall_s") - s.median("wall_s"),
        );
        report.layer(
            "trace.overhead_s",
            s.median("trace.measured_s") - s.median("wall_s"),
        );
        report.sample_count("traced_rounds", s.count("trace.measured_s"));
    } else {
        let ok = 1.0 - report.failed as f64 / report.attempted.max(1) as f64;
        report.e2e("wall_s", s.median("wall_s"));
        report.e2e("setup_s", s.median("setup_s"));
        report.e2e("ok_share", ok);
        report.e2e("obs_wall_s", s.median("obs_wall_s"));
    }
    report.sample_count("plain_rounds", s.count("wall_s"));
    report.sample_count("setups", s.count("setup_s"));
    report.sample_count("observed_rounds", s.count("obs_wall_s"));
    report
}

/// Longest one operation (one input, one sweep, one firehose run) may
/// take before it counts as hung. The slowest, a torus:40x40 input on
/// two shards, takes a few seconds.
const DEADLINE: Duration = Duration::from_secs(60);

static ARMED: Mutex<Option<(Instant, &'static str)>> = Mutex::new(None);
static ATTEMPTED: AtomicU64 = AtomicU64::new(0);
static FAILED: AtomicU64 = AtomicU64::new(0);

/// Starts the thread that ends the process when an armed operation
/// overruns [`DEADLINE`]: a hang (for instance a deadlocked worker
/// pool) counts as one more failed operation, the result line says so,
/// and the exit code is non-zero. The thread sleeps between polls, so
/// it is not a busy thread.
pub fn start_watchdog() {
    std::thread::spawn(|| loop {
        std::thread::sleep(Duration::from_millis(50));
        let armed = *ARMED
            .lock()
            .expect("watchdog lock is never held across a panic");
        if let Some((since, label)) = armed {
            if since.elapsed() > DEADLINE {
                eprintln!(
                    "perfbench: `{label}` still running after {DEADLINE:?}: counted as a hang"
                );
                let attempted = ATTEMPTED.load(Ordering::SeqCst) + 1;
                let failed = FAILED.load(Ordering::SeqCst) + 1;
                println!(
                    "{{\"correct\": false, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{}}}}"
                );
                std::process::exit(3);
            }
        }
    });
}

/// Arms the watchdog for one operation; disarmed on drop.
pub struct Armed;

pub fn arm(label: &'static str) -> Armed {
    *ARMED
        .lock()
        .expect("watchdog lock is never held across a panic") = Some((Instant::now(), label));
    Armed
}

impl Drop for Armed {
    fn drop(&mut self) {
        if let Ok(mut armed) = ARMED.lock() {
            *armed = None;
        }
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Named per-round samples; a metric is the median over its rounds.
#[derive(Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    /// Median of the samples, 0 when there are none.
    pub fn median(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| quantile(v, 0.5))
    }

    pub fn count(&self, name: &str) -> usize {
        self.0.get(name).map_or(0, Vec::len)
    }
}

/// Mean of a round's per-input values.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Linear-interpolated quantile `q` in `[0, 1]`; 0 for no samples.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// FNV-1a over bytes: pins outputs without storing them.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The end-to-end metrics every plain run reports, with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_share", "ratio"),
    ("obs_wall_s", "s"),
];

/// The per-layer metrics every traced run reports, with their units.
/// A workload that does not exercise a layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.measured_s", "s"),
    ("unattributed_s", "s"),
    ("trace.overhead_s", "s"),
    ("machine.parallel_capacity", "ratio"),
    ("topology.build_s", "s"),
    ("bgp.network_new_s", "s"),
    ("bgp.warm_up_s", "s"),
    ("bgp.run_s", "s"),
    ("bgp.self_s", "s"),
    ("sim.events", "count"),
    ("sim.events_per_s", "1/s"),
    ("bgp.updates_received", "count"),
    ("bgp.best_route_changes", "count"),
    ("bgp.useful_update_ratio", "ratio"),
    ("bgp.dropped_messages", "count"),
    ("sim.windows", "count"),
    ("sim.events_per_window", "count"),
    ("sim.shard.barrier_stall_s", "s"),
    ("sim.shard.run_s", "s"),
    ("sim.shard.seq_run_s", "s"),
    ("sim.shard.speedup", "ratio"),
    ("metrics.sink_s", "s"),
    ("metrics.sink.records", "count"),
    ("core.damper.charges", "count"),
    ("core.damper.suppressions", "count"),
    ("core.damper.reuses", "count"),
    ("firehose.apply_s", "s"),
    ("core.store.live_entries", "count"),
    ("core.store.evictions", "count"),
    ("firehose.generate_s", "s"),
    ("firehose.queue_max_depth", "count"),
    ("firehose.push_waits", "count"),
    ("firehose.decisions_per_s", "1/s"),
    ("decision_p50_ns", "ns"),
    ("decision_p99_ns", "ns"),
    ("snap.capture_s", "s"),
    ("snap.write_s", "s"),
    ("snap.read_s", "s"),
    ("snap.resume_s", "s"),
    ("snap.bytes", "B"),
    ("checkpoint_s", "s"),
    ("restore_s", "s"),
    ("obs.overhead_s", "s"),
    ("obs.write_trace_s", "s"),
    ("obs.trace_bytes", "B"),
    ("experiments.t_up_s", "s"),
    ("runner.grid_s", "s"),
    ("experiments.calc_s", "s"),
    ("runner.cells", "count"),
    ("runner.cell_busy_s", "s"),
    ("runner.pool_busy_ratio", "ratio"),
    ("runner.worker_imbalance", "ratio"),
    ("runner.cell_inflation", "ratio"),
    ("runner.outside_pool_s", "s"),
    ("runner.retries", "count"),
    ("runner.failed_cells", "count"),
    ("runner.journal_bytes", "B"),
    ("cell_p50_s", "s"),
    ("cell_p90_s", "s"),
];

/// One run's outcome: operation counts, failed checks and metrics.
#[derive(Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    e2e: BTreeMap<&'static str, f64>,
    layers: BTreeMap<&'static str, f64>,
    samples: BTreeMap<&'static str, usize>,
}

impl Report {
    /// Records one operation and its output check.
    pub fn op(&mut self, check: Result<(), String>) {
        self.attempted += 1;
        ATTEMPTED.fetch_add(1, Ordering::SeqCst);
        if let Err(problem) = check {
            self.failed += 1;
            FAILED.fetch_add(1, Ordering::SeqCst);
            eprintln!("perfbench: output check failed: {problem}");
            self.problems.push(problem);
        }
    }

    pub fn e2e(&mut self, name: &'static str, value: f64) {
        self.e2e.insert(name, value);
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }

    /// Reports the median of every sampled per-layer metric.
    pub fn layers_from(&mut self, s: &Samples) {
        for (name, _) in PER_LAYER {
            if s.count(name) > 0 {
                self.layer(name, s.median(name));
            }
        }
    }

    /// Records how many samples a reported median or percentile rests on.
    pub fn sample_count(&mut self, what: &'static str, n: usize) {
        self.samples.insert(what, n);
    }

    /// Prints the detail line and the result line; `trace` selects
    /// the per-layer metrics over the end-to-end ones.
    pub fn print(&self, trace: bool) {
        let (names, values) = if trace {
            (PER_LAYER, &self.layers)
        } else {
            (END_TO_END, &self.e2e)
        };
        let body: Vec<String> = names
            .iter()
            .map(|(name, unit)| {
                let value = values.get(name).copied().unwrap_or(0.0);
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(value)
                )
            })
            .collect();
        let samples: Vec<String> = self
            .samples
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        let problems: Vec<String> = self.problems.iter().map(|p| json_str(p)).collect();
        println!(
            "detail {{\"parallel_capacity\": {}, \"samples\": {{{}}}, \"problems\": [{}]}}",
            json_num(
                self.layers
                    .get("machine.parallel_capacity")
                    .copied()
                    .unwrap_or(0.0)
            ),
            samples.join(", "),
            problems.join(", ")
        );
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            body.join(", ")
        );
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}

fn json_str(s: &str) -> String {
    let escaped: String = s
        .chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect();
    format!("\"{escaped}\"")
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// A fixed CPU-bound kernel that touches no memory.
fn spin(iterations: u64) -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..iterations {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    x
}

/// Throughput of [`spin`] on two threads divided by its throughput on
/// one: 2.0 on two idle cores, near 1.0 when the cores are shared.
/// Threaded numbers of this run are read against it. Median of three.
pub fn parallel_capacity() -> f64 {
    const WORK: u64 = 20_000_000;
    let mut ratios = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        black_box(spin(black_box(WORK)));
        let one = secs(t);
        let t = Instant::now();
        std::thread::scope(|s| {
            let a = s.spawn(|| black_box(spin(black_box(WORK))));
            black_box(spin(black_box(WORK)));
            a.join().expect("capacity kernel cannot panic");
        });
        let two = secs(t);
        ratios.push(2.0 * one / two);
    }
    quantile(&ratios, 0.5)
}
