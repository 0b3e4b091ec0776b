//! The repository benchmark: one workload per process, driven
//! in-process through the `route_flap_damping` library.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 --tmp DIR
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the line before it,
//! prefixed `detail `, carries the sample counts, the machine's
//! parallel capacity and every failed output check. `perfbench/run.py`
//! builds this binary, runs it under a deadline and adds the machine
//! record; see `perfbench/README.md` for the workloads and metrics.

mod harness;
mod hose;
mod sweep;
mod torus;

use std::path::PathBuf;
use std::process::ExitCode;

use harness::{Ctx, Workload};

fn parse_args() -> Result<(String, Ctx), String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut tmp = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            "--tmp" => tmp = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if seed == 0 {
        return Err("--seed must be at least 1".into());
    }
    let workload = workload.ok_or("--workload is required")?;
    let tmp = tmp.ok_or("--tmp is required")?;
    std::fs::create_dir_all(&tmp).map_err(|e| format!("cannot create {}: {e}", tmp.display()))?;
    Ok((
        workload,
        Ctx {
            seed,
            seconds,
            trace,
            tmp,
        },
    ))
}

fn main() -> ExitCode {
    let (workload, ctx) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    harness::start_watchdog();
    let capacity = harness::parallel_capacity();
    let mut workload: Box<dyn Workload> = match workload.as_str() {
        "torus40" => Box::new(torus::Torus40::new(ctx.seed)),
        "fig89-sweep" => Box::new(sweep::Fig89::new(ctx.seed)),
        "firehose-storm" => Box::new(hose::Storm::new(ctx.seed)),
        other => {
            eprintln!("perfbench: unknown workload `{other}`");
            return ExitCode::from(2);
        }
    };
    let mut report = harness::drive(workload.as_mut(), &ctx);
    report.layer("machine.parallel_capacity", capacity);
    report.print(ctx.trace);
    ExitCode::SUCCESS
}
