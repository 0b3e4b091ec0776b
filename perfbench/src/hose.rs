//! `firehose-storm`: `rfd firehose --workload flap-storm --peers 64
//! --prefixes 1024 --rate 2000 --duration 36000 --shards 1` in-process:
//! the generator thread feeds one worker whose `DamperStore` charges,
//! suppresses, reuses and evicts, with no DES or BGP around it.

use std::hint::black_box;
use std::time::Instant;

use route_flap_damping::firehose::{
    self, Firehose, FirehoseConfig, FirehoseReport, ShardState, Update, WorkloadKind, WorkloadSpec,
};
use route_flap_damping::obs;
use route_flap_damping::sim::{SimDuration, SimTime};

use crate::harness::{arm, fnv64, secs, Ctx, Report, Samples, Workload};

/// Set-ups per round; setting up takes microseconds.
const SETUPS: usize = 50;
/// FNV-1a of `aggregate_signature()` for seed 1.
const PINNED: u64 = 0x234f_8384_8439_dc3a;

fn config(seed: u64) -> FirehoseConfig {
    FirehoseConfig::new(WorkloadSpec {
        peers: 64,
        prefixes: 1024,
        rate: 2000.0,
        duration: SimDuration::from_secs(36_000),
        kind: WorkloadKind::FlapStorm,
        seed,
    })
}

/// Config validation and generator construction, as `firehose::run`
/// does them before its threads start.
fn setup(seed: u64) -> Result<f64, String> {
    let t = Instant::now();
    let config = config(seed);
    config.validate()?;
    black_box(Firehose::new(&config.spec));
    Ok(secs(t))
}

pub struct Storm {
    seed: u64,
    config: FirehoseConfig,
    /// Aggregate hash of this seed's first run in this process.
    first: Option<u64>,
}

impl Storm {
    pub fn new(seed: u64) -> Self {
        Storm {
            seed,
            config: config(seed),
            first: None,
        }
    }

    /// Records one run as an operation: it must succeed and give the
    /// pinned aggregate for seed 1, and for other seeds the aggregate
    /// of the first run of this process.
    fn check(
        &mut self,
        run: Result<FirehoseReport, String>,
        what: &str,
        report: &mut Report,
    ) -> Option<FirehoseReport> {
        let checked = run.and_then(|fh| {
            let hash = fnv64(fh.aggregate_signature().as_bytes());
            let first = *self.first.get_or_insert(hash);
            if self.seed == 1 && hash != PINNED {
                Err(format!(
                    "aggregate hash {hash:#018x}, pinned {PINNED:#018x}"
                ))
            } else if hash != first {
                Err(format!(
                    "aggregate hash {hash:#018x}, earlier {first:#018x}"
                ))
            } else {
                Ok(fh)
            }
        });
        match checked {
            Ok(fh) => {
                report.op(Ok(()));
                Some(fh)
            }
            Err(e) => {
                report.op(Err(format!("{what}: {e}")));
                None
            }
        }
    }
}

impl Workload for Storm {
    fn plain(&mut self, _ctx: &Ctx, s: &mut Samples, report: &mut Report) {
        for _ in 0..SETUPS {
            match setup(self.seed) {
                Ok(t) => s.push("setup_s", t),
                Err(e) => report.op(Err(format!("firehose set-up: {e}"))),
            }
        }
        let _armed = arm("firehose-storm");
        let t = Instant::now();
        let run = firehose::run(&self.config);
        let wall = secs(t);
        if let Some(fh) = self.check(run, "firehose", report) {
            s.push("wall_s", wall);
            s.push("decision_p50_ns", fh.decision_ns.percentile(50.0));
            s.push("decision_p99_ns", fh.decision_ns.percentile(99.0));
        }
    }

    fn observed(&mut self, ctx: &Ctx, s: &mut Samples, report: &mut Report) {
        let _armed = arm("firehose-storm with obs on");
        obs::reset();
        obs::enable();
        let t = Instant::now();
        let run = firehose::run(&self.config);
        let secs_run = secs(t);
        let path = ctx.tmp.join("firehose.trace.json");
        let t = Instant::now();
        let written = obs::write_trace(&path);
        let write = secs(t);
        obs::disable();
        obs::reset();
        s.push("obs_wall_s", secs_run + write);
        s.push("obs.write_trace_s", write);
        s.push(
            "obs.trace_bytes",
            std::fs::metadata(&path).map_or(0.0, |m| m.len() as f64),
        );
        let _ = std::fs::remove_file(&path);
        report.op(written.map_err(|e| format!("obs trace: {e}")));
        self.check(run, "firehose with obs on", report);
    }

    /// The run again, then the generator and the damper store each on
    /// their own: the stream is generated into memory and applied to
    /// one `ShardState` on this thread, which must reach the engine's
    /// aggregate.
    fn traced(&mut self, _ctx: &Ctx, s: &mut Samples, report: &mut Report) {
        let _armed = arm("firehose-storm traced");
        let t = Instant::now();
        let run = firehose::run(&self.config);
        let measured = secs(t);
        let Some(fh) = self.check(run, "traced firehose", report) else {
            return;
        };

        let t = Instant::now();
        let stream: Vec<Update> = Firehose::new(&self.config.spec).collect();
        let generate = secs(t);
        let t = Instant::now();
        let mut state = ShardState::with_options(self.config.shard_options());
        for update in stream {
            black_box(state.apply(update));
        }
        let apply = secs(t);
        let agg = state.finish(SimTime::ZERO + self.config.spec.duration);
        report.op(if agg == fh.aggregate {
            Ok(())
        } else {
            Err(format!(
                "direct store pass {agg:?} differs from the engine's {:?}",
                fh.aggregate
            ))
        });

        let perf = fh.shard_perf.first().cloned().unwrap_or_default();
        for (name, value) in [
            ("trace.measured_s", measured),
            ("firehose.apply_s", apply),
            ("unattributed_s", measured - apply),
            ("firehose.generate_s", generate),
            ("firehose.queue_max_depth", perf.max_queue_depth as f64),
            ("firehose.push_waits", perf.push_waits as f64),
            (
                "firehose.decisions_per_s",
                fh.aggregate.updates as f64 / measured,
            ),
            ("core.damper.charges", fh.aggregate.updates as f64),
            ("core.damper.suppressions", fh.aggregate.suppressions as f64),
            ("core.damper.reuses", fh.aggregate.reuses as f64),
            ("core.store.live_entries", fh.aggregate.live_entries as f64),
            ("core.store.evictions", fh.aggregate.evictions as f64),
        ] {
            s.push(name, value);
        }
    }
}
