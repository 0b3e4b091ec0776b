//! Command-line interface plumbing for the `rfd` binary.
//!
//! Argument parsing is hand-rolled (the workspace keeps its dependency
//! set minimal) and lives in the library so it is unit-testable; the
//! binary in `src/bin/rfd.rs` only dispatches.

use std::fmt;
use std::path::PathBuf;
use std::time::Duration;

use rfd_bgp::{DampingDeployment, NetworkConfig, PenaltyFilter, Policy, ProtocolOptions};
use rfd_core::DampingParams;
use rfd_experiments::scenarios::{infer_relationships, TopologyKind};
use rfd_experiments::SweepOptions;
use rfd_runner::ChaosPlan;
use rfd_sim::SimDuration;
use rfd_topology::Graph;

/// A parsed topology specification, e.g. `mesh:10x10`, `internet:100`,
/// `ring:8`, `line:5`, `clique:6`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologySpec {
    /// `mesh:WxH`
    Mesh(usize, usize),
    /// `internet:N`
    Internet(usize),
    /// `ring:N`
    Ring(usize),
    /// `line:N`
    Line(usize),
    /// `clique:N`
    Clique(usize),
}

impl TopologySpec {
    /// Parses a spec string.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on malformed specs, including
    /// sizes the generators cannot build: too few nodes for the kind,
    /// or more nodes than the `u32` node-id range holds.
    pub fn parse(spec: &str) -> Result<Self, CliError> {
        let (kind, size) = spec
            .split_once(':')
            .ok_or_else(|| CliError(format!("topology must look like kind:size, got `{spec}`")))?;
        let parse_n = |s: &str| {
            s.parse::<usize>()
                .map_err(|_| CliError(format!("bad size `{s}` in `{spec}`")))
        };
        let parsed = match kind {
            // `torus` is an alias for `mesh` (the paper's mesh *is* a
            // torus), `ba` for `internet` (Barabási–Albert).
            "mesh" | "torus" => {
                let (w, h) = size
                    .split_once('x')
                    .ok_or_else(|| CliError(format!("{kind} needs WxH, got `{size}`")))?;
                TopologySpec::Mesh(parse_n(w)?, parse_n(h)?)
            }
            "internet" | "ba" => TopologySpec::Internet(parse_n(size)?),
            "ring" => TopologySpec::Ring(parse_n(size)?),
            "line" => TopologySpec::Line(parse_n(size)?),
            "clique" => TopologySpec::Clique(parse_n(size)?),
            other => {
                return Err(CliError(format!(
                    "unknown topology kind `{other}` (mesh|torus|internet|ba|ring|line|clique)"
                )))
            }
        };
        // The generators' own preconditions: a Barabási–Albert graph
        // with attachment degree 2 and a ring both need 3 nodes.
        let (nodes, min) = match parsed {
            TopologySpec::Mesh(w, h) => (w.checked_mul(h), 1),
            TopologySpec::Internet(n) | TopologySpec::Ring(n) => (Some(n), 3),
            TopologySpec::Line(n) | TopologySpec::Clique(n) => (Some(n), 1),
        };
        match nodes {
            Some(n) if n < min => Err(CliError(format!(
                "topology `{spec}` needs at least {min} node(s), got {n}"
            ))),
            Some(n) if n <= u32::MAX as usize => Ok(parsed),
            _ => Err(CliError(format!(
                "topology `{spec}` has more nodes than the {} node ids available",
                u32::MAX
            ))),
        }
    }

    /// Builds the graph (Internet graphs use `seed`).
    pub fn build(self, seed: u64) -> Graph {
        match self {
            TopologySpec::Mesh(w, h) => rfd_topology::mesh_torus(w, h),
            TopologySpec::Internet(n) => rfd_topology::internet_like(n, 2, seed),
            TopologySpec::Ring(n) => rfd_topology::ring(n),
            TopologySpec::Line(n) => rfd_topology::line(n),
            TopologySpec::Clique(n) => rfd_topology::clique(n),
        }
    }
}

/// A CLI usage error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

/// Options for `rfd run`.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Topology to simulate on.
    pub topology: TopologySpec,
    /// ISP node (None = seeded random pick).
    pub isp: Option<u32>,
    /// Number of pulses.
    pub pulses: usize,
    /// Gap between flap events.
    pub interval: SimDuration,
    /// Master seed.
    pub seed: u64,
    /// Damping preset (`None` = off).
    pub damping: Option<DampingParams>,
    /// Penalty filter.
    pub filter: PenaltyFilter,
    /// Use the no-valley policy.
    pub no_valley: bool,
    /// Write the full trace here.
    pub trace_out: Option<String>,
    /// Print the state classification.
    pub states: bool,
    /// Protocol knobs (WRATE, loop avoidance, reuse quantisation).
    pub protocol: ProtocolOptions,
    /// Observability request: `None` off, `Some(None)` on at the
    /// default destination, `Some(Some(path))` on at `path`.
    pub obs: Option<Option<PathBuf>>,
    /// Conservative simulation shards (`--sim-shards N`); results are
    /// byte-identical at any count.
    pub sim_shards: usize,
    /// Snapshot file for `--checkpoint-every` / `--resume`
    /// (`--snapshot FILE`).
    pub snapshot: Option<PathBuf>,
    /// Write a checkpoint to the snapshot file every this much
    /// simulated time (`--checkpoint-every SECS`).
    pub checkpoint_every: Option<SimDuration>,
    /// Resume from the snapshot file when it holds a matching
    /// checkpoint; cold-start (with a warning) when it is missing or
    /// unusable (`--resume`).
    pub resume: bool,
    /// Deterministic fault injection for the checkpoint/resume path
    /// (hidden `--chaos` / `RFD_CHAOS`; stage keys `checkpoint`,
    /// `resume`).
    pub chaos: ChaosPlan,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            topology: TopologySpec::Mesh(10, 10),
            isp: None,
            pulses: 1,
            interval: SimDuration::from_secs(60),
            seed: 1,
            damping: Some(DampingParams::cisco()),
            filter: PenaltyFilter::Plain,
            no_valley: false,
            trace_out: None,
            states: false,
            protocol: ProtocolOptions::default(),
            obs: None,
            sim_shards: 1,
            snapshot: None,
            checkpoint_every: None,
            resume: false,
            chaos: ChaosPlan::none(),
        }
    }
}

/// Parses the arguments of `rfd run` (everything after the subcommand).
///
/// # Errors
///
/// Returns [`CliError`] on unknown flags, missing values, or malformed
/// values.
pub fn parse_run_options(args: &[String]) -> Result<RunOptions, CliError> {
    let mut opts = RunOptions::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| CliError(format!("{name} needs a value")))
        };
        match flag.as_str() {
            "--topology" => opts.topology = TopologySpec::parse(&value("--topology")?)?,
            "--isp" => {
                opts.isp = Some(
                    value("--isp")?
                        .parse()
                        .map_err(|_| CliError("--isp needs a node index".into()))?,
                )
            }
            "--pulses" => {
                opts.pulses = value("--pulses")?
                    .parse()
                    .map_err(|_| CliError("--pulses needs an integer".into()))?
            }
            "--interval" => {
                let secs: f64 = value("--interval")?
                    .parse()
                    .map_err(|_| CliError("--interval needs seconds".into()))?;
                if !(secs.is_finite() && secs > 0.0) {
                    return Err(CliError("--interval must be positive".into()));
                }
                opts.interval = SimDuration::from_secs_f64(secs);
            }
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|_| CliError("--seed needs an integer".into()))?
            }
            "--damping" => {
                opts.damping = match value("--damping")?.as_str() {
                    "off" => None,
                    "cisco" => Some(DampingParams::cisco()),
                    "juniper" => Some(DampingParams::juniper()),
                    "ripe229" => Some(DampingParams::ripe229_aggressive()),
                    other => {
                        return Err(CliError(format!(
                            "unknown damping preset `{other}` (off|cisco|juniper|ripe229)"
                        )))
                    }
                }
            }
            "--filter" => {
                opts.filter = match value("--filter")?.as_str() {
                    "plain" => PenaltyFilter::Plain,
                    "rcn" => PenaltyFilter::Rcn,
                    "selective" => PenaltyFilter::Selective,
                    other => {
                        return Err(CliError(format!(
                            "unknown filter `{other}` (plain|rcn|selective)"
                        )))
                    }
                }
            }
            "--policy" => {
                opts.no_valley = match value("--policy")?.as_str() {
                    "shortest" => false,
                    "novalley" => true,
                    other => {
                        return Err(CliError(format!(
                            "unknown policy `{other}` (shortest|novalley)"
                        )))
                    }
                }
            }
            "--trace" => opts.trace_out = Some(value("--trace")?),
            "--sim-shards" => {
                opts.sim_shards = value("--sim-shards")?
                    .parse()
                    .map_err(|_| CliError("--sim-shards needs an integer".into()))?;
                if opts.sim_shards == 0 {
                    return Err(CliError("--sim-shards must be at least 1".into()));
                }
            }
            "--snapshot" => opts.snapshot = Some(PathBuf::from(value("--snapshot")?)),
            "--checkpoint-every" => {
                let secs: f64 = value("--checkpoint-every")?
                    .parse()
                    .map_err(|_| CliError("--checkpoint-every needs seconds".into()))?;
                if !(secs.is_finite() && secs > 0.0) {
                    return Err(CliError("--checkpoint-every must be positive".into()));
                }
                opts.checkpoint_every = Some(SimDuration::from_secs_f64(secs));
            }
            "--resume" => opts.resume = true,
            "--chaos" => {
                opts.chaos = ChaosPlan::parse(&value("--chaos")?)
                    .map_err(|e| CliError(format!("--chaos: {e}")))?
            }
            "--obs" => opts.obs = Some(None),
            "--states" => opts.states = true,
            "--wrate" => opts.protocol.withdrawal_pacing = true,
            "--no-loop-avoidance" => opts.protocol.sender_side_loop_avoidance = false,
            "--reuse-granularity" => {
                let secs: f64 = value("--reuse-granularity")?
                    .parse()
                    .map_err(|_| CliError("--reuse-granularity needs seconds".into()))?;
                if !(secs.is_finite() && secs > 0.0) {
                    return Err(CliError("--reuse-granularity must be positive".into()));
                }
                opts.protocol.reuse_granularity = Some(SimDuration::from_secs_f64(secs));
            }
            other => match other.strip_prefix("--obs=") {
                Some(path) => opts.obs = Some(Some(PathBuf::from(path))),
                None => return Err(CliError(format!("unknown flag `{other}`"))),
            },
        }
    }
    if opts.filter != PenaltyFilter::Plain && opts.damping.is_none() {
        return Err(CliError(
            "--filter rcn|selective requires damping to be enabled".into(),
        ));
    }
    if (opts.checkpoint_every.is_some() || opts.resume) && opts.snapshot.is_none() {
        return Err(CliError(
            "--checkpoint-every and --resume need --snapshot FILE".into(),
        ));
    }
    Ok(opts)
}

/// A parsed `rfd explain` invocation: a normal run, replayed with the
/// damping ledger focused on one (peer, prefix) key.
#[derive(Debug, Clone)]
pub struct ExplainCommand {
    /// The run to replay (same flags as `rfd run`).
    pub run: RunOptions,
    /// Peer whose damping entries to audit (`None` = the origin AS,
    /// resolved once the network is built).
    pub peer: Option<u32>,
    /// Prefix id to audit (the paper's workloads use prefix 0).
    pub prefix: u32,
    /// Restrict the timeline to this observing router.
    pub node: Option<u32>,
    /// Emit machine-readable JSON instead of the human timeline.
    pub json: bool,
}

/// Parses the arguments of `rfd explain`: `--peer N`, `--prefix N`,
/// `--node N`, `--json`, plus every `rfd run` flag (the replayed run
/// must be describable exactly).
///
/// # Errors
///
/// Returns [`CliError`] on unknown flags, missing values, or malformed
/// values.
pub fn parse_explain_command(args: &[String]) -> Result<ExplainCommand, CliError> {
    let mut peer = None;
    let mut prefix = 0u32;
    let mut node = None;
    let mut json = false;
    let mut run_args: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| CliError(format!("{name} needs a value")))
        };
        match flag.as_str() {
            "--peer" => {
                peer = Some(
                    value("--peer")?
                        .parse()
                        .map_err(|_| CliError("--peer needs a node index".into()))?,
                );
            }
            "--prefix" => {
                prefix = value("--prefix")?
                    .parse()
                    .map_err(|_| CliError("--prefix needs a prefix id".into()))?;
            }
            "--node" => {
                node = Some(
                    value("--node")?
                        .parse()
                        .map_err(|_| CliError("--node needs a node index".into()))?,
                );
            }
            "--json" => json = true,
            // Everything else (flags and their values alike) belongs to
            // the embedded run description.
            other => run_args.push(other.to_owned()),
        }
    }
    let run = parse_run_options(&run_args)?;
    Ok(ExplainCommand {
        run,
        peer,
        prefix,
        node,
        json,
    })
}

/// Parses a `--ledger` key: `PEER:PREFIX`, or bare `PEER` (prefix 0).
fn parse_ledger_key(spec: &str) -> Result<(u32, u32), CliError> {
    let bad = || CliError(format!("--ledger needs PEER[:PREFIX], got `{spec}`"));
    let (peer, prefix) = match spec.split_once(':') {
        Some((p, x)) => (p, x),
        None => (spec, "0"),
    };
    Ok((
        peer.trim().parse().map_err(|_| bad())?,
        prefix.trim().parse().map_err(|_| bad())?,
    ))
}

/// Which figure `rfd sweep` regenerates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepFigure {
    /// Figures 8 and 9 (convergence / messages vs pulses).
    Fig8_9,
    /// Figures 13 and 14 (the above plus RCN).
    Fig13_14,
    /// Figure 15 (routing policy).
    Fig15,
}

/// A parsed `rfd sweep` invocation.
#[derive(Debug, Clone)]
pub struct SweepCommand {
    /// Which figure to regenerate.
    pub figure: SweepFigure,
    /// Grid axes and execution options (threads, journal, resume).
    pub opts: SweepOptions,
    /// Reduced topology sizes for smoke runs.
    pub quick: bool,
    /// Observability request: `None` off, `Some(None)` on at the
    /// default destination, `Some(Some(path))` on at `path`.
    pub obs: Option<Option<PathBuf>>,
}

/// Maps a `--topology` spec onto a sweep-capable [`TopologyKind`]: only
/// the paper's two families run whole pulse grids, so torus/mesh and
/// ba/internet are accepted and the micro-topology gallery is not.
fn sweep_topology(spec: &TopologySpec) -> Result<TopologyKind, CliError> {
    match *spec {
        TopologySpec::Mesh(width, height) => Ok(TopologyKind::Mesh { width, height }),
        TopologySpec::Internet(nodes) => Ok(TopologyKind::Internet { nodes, m: 2 }),
        _ => Err(CliError(
            "sweep topologies are torus:RxC (mesh:WxH) or ba:N (internet:N)".into(),
        )),
    }
}

/// Parses the arguments of `rfd sweep`: `--figure`, `--threads N`,
/// `--sim-shards N`, `--topology torus:RxC|ba:N`, `--resume`,
/// `--resume-force`, `--retries N`, `--cell-budget SECS`,
/// `--max-pulses N`, `--seeds A,B,C`, `--quick`, `--no-journal`,
/// `--full-traces`, `--warm-fork`, `--obs[=PATH]`, plus the hidden
/// fault-injection knob `--chaos SPEC` (see [`ChaosPlan::parse`]).
///
/// # Errors
///
/// Returns [`CliError`] on unknown flags, missing values, or malformed
/// values.
pub fn parse_sweep_command(args: &[String]) -> Result<SweepCommand, CliError> {
    let mut cmd = SweepCommand {
        figure: SweepFigure::Fig8_9,
        opts: SweepOptions {
            journal_dir: Some(PathBuf::from("results")),
            ..SweepOptions::default()
        },
        quick: false,
        obs: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| CliError(format!("{name} needs a value")))
        };
        match flag.as_str() {
            "--figure" => {
                cmd.figure = match value("--figure")?.as_str() {
                    "fig8-9" => SweepFigure::Fig8_9,
                    "fig13-14" => SweepFigure::Fig13_14,
                    "fig15" => SweepFigure::Fig15,
                    other => {
                        return Err(CliError(format!(
                            "unknown figure `{other}` (fig8-9|fig13-14|fig15)"
                        )))
                    }
                }
            }
            "--threads" => {
                cmd.opts.threads = value("--threads")?
                    .parse()
                    .map_err(|_| CliError("--threads needs an integer".into()))?
            }
            "--sim-shards" => {
                cmd.opts.sim_shards = value("--sim-shards")?
                    .parse()
                    .map_err(|_| CliError("--sim-shards needs an integer".into()))?;
                if cmd.opts.sim_shards == 0 {
                    return Err(CliError("--sim-shards must be at least 1".into()));
                }
            }
            "--topology" => {
                cmd.opts.topology = Some(sweep_topology(&TopologySpec::parse(&value(
                    "--topology",
                )?)?)?)
            }
            "--resume" => cmd.opts.resume = true,
            "--resume-force" => {
                cmd.opts.resume = true;
                cmd.opts.resume_force = true;
            }
            "--retries" => {
                cmd.opts.retries = value("--retries")?
                    .parse()
                    .map_err(|_| CliError("--retries needs an integer".into()))?
            }
            "--cell-budget" => {
                let secs: f64 = value("--cell-budget")?
                    .parse()
                    .map_err(|_| CliError("--cell-budget needs seconds".into()))?;
                cmd.opts.cell_budget = Some(Duration::from_secs_f64(secs));
            }
            "--chaos" => {
                cmd.opts.chaos = ChaosPlan::parse(&value("--chaos")?)
                    .map_err(|e| CliError(format!("--chaos: {e}")))?
            }
            "--max-pulses" => {
                cmd.opts.max_pulses = value("--max-pulses")?
                    .parse()
                    .map_err(|_| CliError("--max-pulses needs an integer".into()))?
            }
            "--seeds" => {
                cmd.opts.seeds = value("--seeds")?
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse()
                            .map_err(|_| CliError(format!("bad seed `{s}` in --seeds")))
                    })
                    .collect::<Result<Vec<u64>, _>>()?;
                if cmd.opts.seeds.is_empty() {
                    return Err(CliError("--seeds needs at least one seed".into()));
                }
            }
            "--quick" => {
                cmd.quick = true;
                cmd.opts.max_pulses = cmd.opts.max_pulses.min(5);
                cmd.opts.seeds.truncate(1);
            }
            "--no-journal" => cmd.opts.journal_dir = None,
            "--full-traces" => cmd.opts.full_traces = true,
            "--warm-fork" => cmd.opts.warm_fork = true,
            "--ledger" => {
                let spec = value("--ledger")?;
                cmd.opts.ledger_keys.push(parse_ledger_key(&spec)?);
            }
            "--obs" => cmd.obs = Some(None),
            other => match other.strip_prefix("--obs=") {
                Some(path) => cmd.obs = Some(Some(PathBuf::from(path))),
                None => return Err(CliError(format!("unknown flag `{other}`"))),
            },
        }
    }
    Ok(cmd)
}

/// Output format of the `rfd firehose` report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportFormat {
    /// `section,field,value` CSV rows.
    Csv,
    /// One JSON object.
    Json,
}

/// A parsed `rfd firehose` invocation.
#[derive(Debug, Clone)]
pub struct FirehoseCommand {
    /// Engine configuration (workload, shards, params, chaos).
    pub config: rfd_firehose::FirehoseConfig,
    /// How the report is printed on stdout.
    pub format: ReportFormat,
    /// Write per-shard telemetry snapshots (JSONL) here.
    pub telemetry: Option<PathBuf>,
    /// Wall-clock period between telemetry snapshots.
    pub telemetry_interval: Duration,
    /// Write the final Prometheus text exposition here.
    pub prom: Option<PathBuf>,
}

/// Parses the arguments of `rfd firehose`: `--peers N`, `--prefixes N`,
/// `--rate UPDATES_PER_SIM_SEC`, `--duration SIM_SECS`,
/// `--workload poisson|flap-storm`, `--seed N`, `--shards N`,
/// `--params cisco|juniper|ripe229`, `--queue-capacity N`,
/// `--reuse-tick SIM_SECS`, `--evict-every TICKS`,
/// `--decay exact|bucketed`, `--heartbeat SECS`, `--format csv|json`,
/// `--telemetry FILE`, `--telemetry-interval SECS`, `--prom FILE`,
/// plus the hidden fault-injection knob `--chaos SPEC` with shard keys
/// `shard0`, `shard1`, … (see [`ChaosPlan::parse`]).
///
/// # Errors
///
/// Returns [`CliError`] on unknown flags, missing values, malformed
/// values, or a config that fails engine validation.
pub fn parse_firehose_command(args: &[String]) -> Result<FirehoseCommand, CliError> {
    use rfd_firehose::{FirehoseConfig, WorkloadKind, WorkloadSpec};
    let mut cmd = FirehoseCommand {
        config: FirehoseConfig::new(WorkloadSpec {
            peers: 16,
            prefixes: 1024,
            rate: 200.0,
            duration: SimDuration::from_secs(3600),
            kind: WorkloadKind::FlapStorm,
            seed: 1,
        }),
        format: ReportFormat::Csv,
        telemetry: None,
        telemetry_interval: Duration::from_secs(1),
        prom: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| CliError(format!("{name} needs a value")))
        };
        let int = |name: &str, s: String| {
            s.parse::<u64>()
                .map_err(|_| CliError(format!("{name} needs an integer, got `{s}`")))
        };
        match flag.as_str() {
            "--peers" => cmd.config.spec.peers = int("--peers", value("--peers")?)? as u32,
            "--prefixes" => {
                cmd.config.spec.prefixes = int("--prefixes", value("--prefixes")?)? as u32
            }
            "--rate" => {
                cmd.config.spec.rate = value("--rate")?
                    .parse()
                    .map_err(|_| CliError("--rate needs updates per simulated second".into()))?
            }
            "--duration" => {
                let secs: f64 = value("--duration")?
                    .parse()
                    .map_err(|_| CliError("--duration needs simulated seconds".into()))?;
                if !(secs.is_finite() && secs > 0.0) {
                    return Err(CliError("--duration must be positive".into()));
                }
                cmd.config.spec.duration = SimDuration::from_secs_f64(secs);
            }
            "--workload" => {
                cmd.config.spec.kind =
                    rfd_firehose::WorkloadKind::parse(&value("--workload")?).map_err(CliError)?
            }
            "--seed" => cmd.config.spec.seed = int("--seed", value("--seed")?)?,
            "--shards" => cmd.config.shards = int("--shards", value("--shards")?)? as usize,
            "--params" => {
                cmd.config.params = match value("--params")?.as_str() {
                    "cisco" => DampingParams::cisco(),
                    "juniper" => DampingParams::juniper(),
                    "ripe229" => DampingParams::ripe229_aggressive(),
                    other => {
                        return Err(CliError(format!(
                            "unknown damping preset `{other}` (cisco|juniper|ripe229)"
                        )))
                    }
                }
            }
            "--queue-capacity" => {
                cmd.config.queue_capacity =
                    int("--queue-capacity", value("--queue-capacity")?)? as usize
            }
            "--reuse-tick" => {
                let secs: f64 = value("--reuse-tick")?
                    .parse()
                    .map_err(|_| CliError("--reuse-tick needs simulated seconds".into()))?;
                if !(secs.is_finite() && secs > 0.0) {
                    return Err(CliError("--reuse-tick must be positive".into()));
                }
                cmd.config.reuse_tick = SimDuration::from_secs_f64(secs);
            }
            "--evict-every" => {
                cmd.config.evict_every = int("--evict-every", value("--evict-every")?)?
            }
            "--decay" => {
                cmd.config.decay = match value("--decay")?.as_str() {
                    "exact" => rfd_core::DecayMode::Exact,
                    "bucketed" => rfd_core::DecayMode::Bucketed,
                    other => {
                        return Err(CliError(format!(
                            "unknown decay mode `{other}` (exact|bucketed)"
                        )))
                    }
                }
            }
            "--heartbeat" => {
                let secs: f64 = value("--heartbeat")?
                    .parse()
                    .map_err(|_| CliError("--heartbeat needs seconds".into()))?;
                if !(secs.is_finite() && secs > 0.0) {
                    return Err(CliError("--heartbeat must be positive".into()));
                }
                cmd.config.heartbeat = Some(Duration::from_secs_f64(secs));
            }
            "--chaos" => {
                cmd.config.chaos = ChaosPlan::parse(&value("--chaos")?)
                    .map_err(|e| CliError(format!("--chaos: {e}")))?
            }
            "--format" => {
                cmd.format = match value("--format")?.as_str() {
                    "csv" => ReportFormat::Csv,
                    "json" => ReportFormat::Json,
                    other => return Err(CliError(format!("unknown format `{other}` (csv|json)"))),
                }
            }
            "--telemetry" => cmd.telemetry = Some(PathBuf::from(value("--telemetry")?)),
            "--telemetry-interval" => {
                let secs: f64 = value("--telemetry-interval")?
                    .parse()
                    .map_err(|_| CliError("--telemetry-interval needs seconds".into()))?;
                if !(secs.is_finite() && secs > 0.0) {
                    return Err(CliError("--telemetry-interval must be positive".into()));
                }
                cmd.telemetry_interval = Duration::from_secs_f64(secs);
            }
            "--prom" => cmd.prom = Some(PathBuf::from(value("--prom")?)),
            other => return Err(CliError(format!("unknown flag `{other}`"))),
        }
    }
    cmd.config.validate().map_err(CliError)?;
    Ok(cmd)
}

/// A parsed `rfd snapshot` invocation.
#[derive(Debug, Clone)]
pub enum SnapshotCommand {
    /// `rfd snapshot save --out FILE [run flags]`: build the run's
    /// network, warm it up, and write the warm state to FILE.
    Save {
        /// Where to write the snapshot.
        out: PathBuf,
        /// The run whose warm state to capture (same flags as
        /// `rfd run`; pulse flags are ignored — nothing is injected).
        run: RunOptions,
    },
    /// `rfd snapshot restore --in FILE [run flags]`: restore FILE into
    /// the run's network and drive it to quiescence.
    Restore {
        /// The snapshot to restore.
        input: PathBuf,
        /// The run configuration the snapshot must match.
        run: RunOptions,
    },
    /// `rfd snapshot inspect FILE`: print the container header
    /// (version, fingerprints, payload size, warmth, sim time) without
    /// restoring anything.
    Inspect(PathBuf),
}

/// Parses the arguments of `rfd snapshot save|restore|inspect`.
///
/// # Errors
///
/// Returns [`CliError`] on a missing/unknown verb, missing
/// `--out`/`--in` file, or any malformed run flag.
pub fn parse_snapshot_command(args: &[String]) -> Result<SnapshotCommand, CliError> {
    let Some((verb, rest)) = args.split_first() else {
        return Err(CliError(
            "snapshot needs a verb: save|restore|inspect".into(),
        ));
    };
    match verb.as_str() {
        "save" | "restore" => {
            let mut file = None;
            let mut run_args: Vec<String> = Vec::new();
            let file_flag = if verb == "save" { "--out" } else { "--in" };
            let mut it = rest.iter();
            while let Some(flag) = it.next() {
                if flag == file_flag {
                    let v = it
                        .next()
                        .ok_or_else(|| CliError(format!("{file_flag} needs a file")))?;
                    file = Some(PathBuf::from(v));
                } else {
                    run_args.push(flag.clone());
                }
            }
            let file =
                file.ok_or_else(|| CliError(format!("snapshot {verb} needs {file_flag} FILE")))?;
            let run = parse_run_options(&run_args)?;
            Ok(match verb.as_str() {
                "save" => SnapshotCommand::Save { out: file, run },
                _ => SnapshotCommand::Restore { input: file, run },
            })
        }
        "inspect" => match rest {
            [file] => Ok(SnapshotCommand::Inspect(PathBuf::from(file))),
            _ => Err(CliError("snapshot inspect needs exactly one FILE".into())),
        },
        other => Err(CliError(format!(
            "unknown snapshot verb `{other}` (save|restore|inspect)"
        ))),
    }
}

/// Builds the [`NetworkConfig`] for parsed run options against a built
/// graph.
pub fn network_config(opts: &RunOptions, graph: &Graph) -> NetworkConfig {
    NetworkConfig {
        seed: opts.seed,
        protocol: opts.protocol,
        damping: match opts.damping {
            Some(p) => DampingDeployment::Full(p),
            None => DampingDeployment::Off,
        },
        filter: opts.filter,
        policy: if opts.no_valley {
            Policy::NoValley(infer_relationships(graph))
        } else {
            Policy::ShortestPath
        },
        sim_shards: opts.sim_shards,
        ..NetworkConfig::default()
    }
}

/// The top-level usage string.
pub const USAGE: &str = "\
rfd — route flap damping simulator (reproduction of ICDCS 2005)

USAGE:
  rfd run [--topology KIND:SIZE] [--isp N] [--pulses N] [--interval SECS]
          [--seed N] [--damping off|cisco|juniper|ripe229]
          [--filter plain|rcn|selective] [--policy shortest|novalley]
          [--trace FILE] [--states] [--wrate] [--no-loop-avoidance]
          [--reuse-granularity SECS] [--sim-shards N] [--obs[=PATH]]
          [--snapshot FILE [--checkpoint-every SECS] [--resume]]
  rfd explain [--peer N] [--prefix N] [--node N] [--json]
              [any `rfd run` flag: --topology, --pulses, --seed, ...]
  rfd snapshot save --out FILE [any `rfd run` flag]
  rfd snapshot restore --in FILE [any `rfd run` flag]
  rfd snapshot inspect FILE
  rfd sweep [--figure fig8-9|fig13-14|fig15] [--threads N] [--resume]
            [--resume-force] [--retries N] [--cell-budget SECS]
            [--max-pulses N] [--seeds A,B,C] [--quick] [--no-journal]
            [--topology torus:RxC|ba:N] [--sim-shards N] [--warm-fork]
            [--full-traces] [--ledger PEER[:PREFIX]]... [--obs[=PATH]]
  rfd firehose [--peers N] [--prefixes N] [--rate R] [--duration SIM_SECS]
               [--workload poisson|flap-storm] [--seed N] [--shards N]
               [--params cisco|juniper|ripe229] [--queue-capacity N]
               [--reuse-tick SIM_SECS] [--evict-every TICKS]
               [--decay exact|bucketed] [--heartbeat SECS]
               [--format csv|json] [--telemetry FILE]
               [--telemetry-interval SECS] [--prom FILE]
  rfd intended [--pulses N] [--interval SECS] [--params cisco|juniper]
  rfd topology --kind KIND:SIZE [--seed N] [--out FILE]
  rfd trace-stats FILE
  rfd obs-report FILE
  rfd table1
  rfd help

TOPOLOGIES: mesh:10x10 (alias torus:10x10), internet:100 (alias ba:100),
  ring:8, line:5, clique:6
SHARDING: --sim-shards N partitions the routers into N conservative
  lock-step simulation shards; results are byte-identical at any N.
EXPLAIN: replays a run with the timer-interaction ledger focused on
  one (peer, prefix) entry and prints its damping lifecycle — charges,
  threshold crossings, reuse-timer arms/deferrals, MRAI holds.
  `--peer` defaults to the origin AS; `--json` for machine output.
OBSERVABILITY: --obs (or RFD_OBS=1) records spans/counters to a
  Chrome-trace JSON under results/; inspect with `rfd obs-report` or
  load into Perfetto (ui.perfetto.dev).
SNAPSHOTS: `rfd run --snapshot FILE --checkpoint-every SECS` writes a
  crash-safe checkpoint of the whole simulation to FILE every SECS of
  simulated time; add --resume to continue from FILE after a crash —
  the finished run is byte-identical to an uninterrupted one. Files
  are fingerprinted: a snapshot from a different config, topology, or
  shard count is refused. `rfd sweep --warm-fork` warms one donor per
  (topology, seed) and forks every damping variant from its snapshot.
";

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn topology_specs_parse() {
        assert_eq!(
            TopologySpec::parse("mesh:10x10"),
            Ok(TopologySpec::Mesh(10, 10))
        );
        assert_eq!(
            TopologySpec::parse("internet:208"),
            Ok(TopologySpec::Internet(208))
        );
        assert_eq!(TopologySpec::parse("ring:8"), Ok(TopologySpec::Ring(8)));
        assert!(TopologySpec::parse("mesh:10").is_err());
        assert!(TopologySpec::parse("blob:3").is_err());
        assert!(TopologySpec::parse("mesh").is_err());
        // Sizes the generators would panic on or could not number.
        for spec in [
            "torus:0x0",
            "mesh:0x5",
            "ba:1",
            "ba:2",
            "ring:2",
            "line:0",
            "clique:0",
            "torus:100000x100000",
            "torus:18446744073709551615x2",
            "line:4294967296",
        ] {
            assert!(TopologySpec::parse(spec).is_err(), "{spec} accepted");
        }
        for spec in ["torus:1x1", "ba:3", "ring:3", "line:1", "clique:1"] {
            let parsed = TopologySpec::parse(spec).unwrap();
            assert!(parsed.build(1).node_count() > 0, "{spec}");
        }
    }

    #[test]
    fn topology_aliases_parse() {
        assert_eq!(
            TopologySpec::parse("torus:6x7"),
            Ok(TopologySpec::Mesh(6, 7))
        );
        assert_eq!(
            TopologySpec::parse("ba:2000"),
            Ok(TopologySpec::Internet(2000))
        );
        assert!(TopologySpec::parse("torus:6").is_err());
    }

    #[test]
    fn sim_shards_flag_parses_on_run_and_sweep() {
        let opts = parse_run_options(&args("--sim-shards 4")).unwrap();
        assert_eq!(opts.sim_shards, 4);
        assert_eq!(parse_run_options(&args("")).unwrap().sim_shards, 1);
        assert!(parse_run_options(&args("--sim-shards 0")).is_err());
        assert!(parse_run_options(&args("--sim-shards x")).is_err());

        let cmd = parse_sweep_command(&args("--sim-shards 2")).unwrap();
        assert_eq!(cmd.opts.sim_shards, 2);
        assert!(parse_sweep_command(&args("--sim-shards 0")).is_err());
    }

    #[test]
    fn checkpoint_flags_parse_and_require_snapshot() {
        let opts =
            parse_run_options(&args("--snapshot s.snap --checkpoint-every 30 --resume")).unwrap();
        assert_eq!(opts.snapshot, Some(PathBuf::from("s.snap")));
        assert_eq!(opts.checkpoint_every, Some(SimDuration::from_secs(30)));
        assert!(opts.resume);
        assert!(parse_run_options(&args("--checkpoint-every 30")).is_err());
        assert!(parse_run_options(&args("--resume")).is_err());
        assert!(parse_run_options(&args("--snapshot s --checkpoint-every 0")).is_err());
        assert!(parse_run_options(&args("--snapshot s --checkpoint-every x")).is_err());
    }

    #[test]
    fn run_chaos_flag_parses() {
        let opts = parse_run_options(&args(
            "--snapshot s.snap --checkpoint-every 30 --chaos kill*1@checkpoint",
        ))
        .unwrap();
        assert_eq!(
            opts.chaos.fault_for("checkpoint", 1),
            Some(rfd_runner::ChaosKind::Kill)
        );
        assert!(parse_run_options(&args("--chaos explode@x")).is_err());
    }

    #[test]
    fn snapshot_command_parses() {
        match parse_snapshot_command(&args("save --out warm.snap --seed 9")).unwrap() {
            SnapshotCommand::Save { out, run } => {
                assert_eq!(out, PathBuf::from("warm.snap"));
                assert_eq!(run.seed, 9);
            }
            other => panic!("wrong verb: {other:?}"),
        }
        match parse_snapshot_command(&args("restore --in warm.snap --topology ring:6")).unwrap() {
            SnapshotCommand::Restore { input, run } => {
                assert_eq!(input, PathBuf::from("warm.snap"));
                assert_eq!(run.topology, TopologySpec::Ring(6));
            }
            other => panic!("wrong verb: {other:?}"),
        }
        match parse_snapshot_command(&args("inspect warm.snap")).unwrap() {
            SnapshotCommand::Inspect(p) => assert_eq!(p, PathBuf::from("warm.snap")),
            other => panic!("wrong verb: {other:?}"),
        }
        assert!(parse_snapshot_command(&args("")).is_err());
        assert!(parse_snapshot_command(&args("save")).is_err());
        assert!(parse_snapshot_command(&args("restore --out x")).is_err());
        assert!(parse_snapshot_command(&args("inspect a b")).is_err());
        assert!(parse_snapshot_command(&args("explode x")).is_err());
        assert!(parse_snapshot_command(&args("save --out f --bogus")).is_err());
    }

    #[test]
    fn warm_fork_flag_parses_on_sweep() {
        assert!(
            parse_sweep_command(&args("--warm-fork"))
                .unwrap()
                .opts
                .warm_fork
        );
        assert!(!parse_sweep_command(&args("")).unwrap().opts.warm_fork);
    }

    #[test]
    fn sweep_topology_override_parses() {
        let cmd = parse_sweep_command(&args("--topology torus:5x8")).unwrap();
        assert_eq!(
            cmd.opts.topology,
            Some(TopologyKind::Mesh {
                width: 5,
                height: 8
            })
        );
        let cmd = parse_sweep_command(&args("--topology ba:500")).unwrap();
        assert_eq!(
            cmd.opts.topology,
            Some(TopologyKind::Internet { nodes: 500, m: 2 })
        );
        assert!(parse_sweep_command(&args("--topology ring:8")).is_err());
        assert_eq!(parse_sweep_command(&args("")).unwrap().opts.topology, None);
    }

    #[test]
    fn topology_specs_build() {
        assert_eq!(TopologySpec::Mesh(3, 3).build(1).node_count(), 9);
        assert_eq!(TopologySpec::Internet(20).build(1).node_count(), 20);
        assert_eq!(TopologySpec::Line(4).build(1).link_count(), 3);
        assert_eq!(TopologySpec::Clique(4).build(1).link_count(), 6);
    }

    #[test]
    fn run_options_defaults_and_overrides() {
        let opts = parse_run_options(&args(
            "--topology ring:6 --pulses 3 --seed 9 --damping juniper --filter rcn --states",
        ))
        .unwrap();
        assert_eq!(opts.topology, TopologySpec::Ring(6));
        assert_eq!(opts.pulses, 3);
        assert_eq!(opts.seed, 9);
        assert_eq!(opts.damping, Some(DampingParams::juniper()));
        assert_eq!(opts.filter, PenaltyFilter::Rcn);
        assert!(opts.states);
        assert!(!opts.no_valley);
    }

    #[test]
    fn bad_flags_are_rejected() {
        assert!(parse_run_options(&args("--bogus")).is_err());
        assert!(parse_run_options(&args("--pulses")).is_err());
        assert!(parse_run_options(&args("--pulses x")).is_err());
        assert!(parse_run_options(&args("--interval -5")).is_err());
        assert!(parse_run_options(&args("--damping never")).is_err());
    }

    #[test]
    fn protocol_knob_flags_parse() {
        let opts =
            parse_run_options(&args("--wrate --no-loop-avoidance --reuse-granularity 15")).unwrap();
        assert!(opts.protocol.withdrawal_pacing);
        assert!(!opts.protocol.sender_side_loop_avoidance);
        assert_eq!(
            opts.protocol.reuse_granularity,
            Some(SimDuration::from_secs(15))
        );
        assert!(parse_run_options(&args("--reuse-granularity nope")).is_err());
        assert!(parse_run_options(&args("--reuse-granularity -2")).is_err());
    }

    #[test]
    fn explain_command_parses_key_and_run_flags() {
        let cmd = parse_explain_command(&args(
            "--peer 4 --prefix 1 --json --topology line:4 --pulses 3 --seed 7",
        ))
        .unwrap();
        assert_eq!(cmd.peer, Some(4));
        assert_eq!(cmd.prefix, 1);
        assert_eq!(cmd.node, None);
        assert!(cmd.json);
        assert_eq!(cmd.run.topology, TopologySpec::Line(4));
        assert_eq!(cmd.run.pulses, 3);
        assert_eq!(cmd.run.seed, 7);
    }

    #[test]
    fn explain_command_defaults_to_origin_and_prefix_zero() {
        let cmd = parse_explain_command(&args("")).unwrap();
        assert_eq!(cmd.peer, None, "origin is resolved at replay time");
        assert_eq!(cmd.prefix, 0);
        assert!(!cmd.json);
    }

    #[test]
    fn explain_command_rejects_bad_input() {
        assert!(parse_explain_command(&args("--peer")).is_err());
        assert!(parse_explain_command(&args("--peer x")).is_err());
        assert!(parse_explain_command(&args("--bogus")).is_err());
        assert!(parse_explain_command(&args("--pulses nope")).is_err());
    }

    #[test]
    fn filter_requires_damping() {
        let e = parse_run_options(&args("--damping off --filter rcn")).unwrap_err();
        assert!(e.to_string().contains("requires damping"));
    }

    #[test]
    fn sweep_command_parses_runner_flags() {
        let cmd = parse_sweep_command(&args(
            "--figure fig13-14 --threads 4 --resume --max-pulses 6 --seeds 1,2,3",
        ))
        .unwrap();
        assert_eq!(cmd.figure, SweepFigure::Fig13_14);
        assert_eq!(cmd.opts.threads, 4);
        assert!(cmd.opts.resume);
        assert_eq!(cmd.opts.max_pulses, 6);
        assert_eq!(cmd.opts.seeds, vec![1, 2, 3]);
        assert_eq!(cmd.opts.journal_dir, Some(PathBuf::from("results")));
        assert!(!cmd.quick);
    }

    #[test]
    fn sweep_command_parses_full_traces() {
        assert!(!parse_sweep_command(&[]).unwrap().opts.full_traces);
        let cmd = parse_sweep_command(&args("--quick --full-traces")).unwrap();
        assert!(cmd.opts.full_traces);
    }

    #[test]
    fn sweep_command_parses_ledger_keys() {
        assert!(parse_sweep_command(&[])
            .unwrap()
            .opts
            .ledger_keys
            .is_empty());
        let cmd = parse_sweep_command(&args("--ledger 4:1 --ledger 7")).unwrap();
        assert_eq!(cmd.opts.ledger_keys, vec![(4, 1), (7, 0)]);
        assert!(parse_sweep_command(&args("--ledger")).is_err());
        assert!(parse_sweep_command(&args("--ledger x:y")).is_err());
        assert!(parse_sweep_command(&args("--ledger 4:")).is_err());
    }

    #[test]
    fn sweep_command_defaults_and_quick() {
        let cmd = parse_sweep_command(&[]).unwrap();
        assert_eq!(cmd.figure, SweepFigure::Fig8_9);
        assert_eq!(cmd.opts.threads, 0);
        assert!(!cmd.opts.resume);

        let quick = parse_sweep_command(&args("--quick --no-journal")).unwrap();
        assert!(quick.quick);
        assert!(quick.opts.max_pulses <= 5);
        assert_eq!(quick.opts.seeds.len(), 1);
        assert_eq!(quick.opts.journal_dir, None);
    }

    #[test]
    fn obs_flag_parses_in_run_and_sweep() {
        assert_eq!(parse_run_options(&[]).unwrap().obs, None);
        assert_eq!(parse_run_options(&args("--obs")).unwrap().obs, Some(None));
        assert_eq!(
            parse_run_options(&args("--obs=/tmp/t.trace.json"))
                .unwrap()
                .obs,
            Some(Some(PathBuf::from("/tmp/t.trace.json")))
        );
        let cmd = parse_sweep_command(&args("--quick --obs=x.json")).unwrap();
        assert_eq!(cmd.obs, Some(Some(PathBuf::from("x.json"))));
        assert_eq!(parse_sweep_command(&args("--obs")).unwrap().obs, Some(None));
    }

    #[test]
    fn sweep_command_rejects_bad_input() {
        assert!(parse_sweep_command(&args("--figure fig99")).is_err());
        assert!(parse_sweep_command(&args("--threads many")).is_err());
        assert!(parse_sweep_command(&args("--seeds 1,x")).is_err());
        assert!(parse_sweep_command(&args("--seeds")).is_err());
        assert!(parse_sweep_command(&args("--bogus")).is_err());
        assert!(parse_sweep_command(&args("--retries many")).is_err());
        assert!(parse_sweep_command(&args("--cell-budget soon")).is_err());
        assert!(parse_sweep_command(&args("--chaos panic")).is_err());
    }

    #[test]
    fn sweep_command_parses_fault_tolerance_flags() {
        let cmd = parse_sweep_command(&args(
            "--quick --retries 2 --resume-force --cell-budget 1.5 --chaos panic@a|n=1|seed=1",
        ))
        .unwrap();
        assert_eq!(cmd.opts.retries, 2);
        assert!(cmd.opts.resume, "--resume-force implies --resume");
        assert!(cmd.opts.resume_force);
        assert_eq!(cmd.opts.cell_budget, Some(Duration::from_secs_f64(1.5)));
        assert!(!cmd.opts.chaos.is_empty());
        assert!(cmd.opts.chaos.fault_for("a|n=1|seed=1", 1).is_some());
    }

    #[test]
    fn firehose_command_defaults_and_overrides() {
        use rfd_firehose::WorkloadKind;
        let cmd = parse_firehose_command(&[]).unwrap();
        assert_eq!(cmd.config.shards, 1);
        assert_eq!(cmd.config.spec.kind, WorkloadKind::FlapStorm);
        assert_eq!(cmd.format, ReportFormat::Csv);
        assert!(cmd.config.chaos.is_empty());
        assert_eq!(cmd.config.heartbeat, None);
        assert_eq!(cmd.config.reuse_tick, SimDuration::from_secs(10));
        assert_eq!(cmd.config.evict_every, 30);
        assert_eq!(cmd.config.decay, rfd_core::DecayMode::Exact);

        let cmd = parse_firehose_command(&args(
            "--peers 8 --prefixes 64 --rate 50 --duration 600 --workload poisson \
             --seed 9 --shards 4 --params juniper --queue-capacity 32 \
             --reuse-tick 5 --evict-every 12 --decay bucketed \
             --heartbeat 2 --format json --chaos panic*1@shard0",
        ))
        .unwrap();
        assert_eq!(cmd.config.reuse_tick, SimDuration::from_secs(5));
        assert_eq!(cmd.config.evict_every, 12);
        assert_eq!(cmd.config.decay, rfd_core::DecayMode::Bucketed);
        assert_eq!(cmd.config.spec.peers, 8);
        assert_eq!(cmd.config.spec.prefixes, 64);
        assert_eq!(cmd.config.spec.rate, 50.0);
        assert_eq!(cmd.config.spec.duration, SimDuration::from_secs(600));
        assert_eq!(cmd.config.spec.kind, WorkloadKind::Poisson);
        assert_eq!(cmd.config.spec.seed, 9);
        assert_eq!(cmd.config.shards, 4);
        assert_eq!(cmd.config.params, DampingParams::juniper());
        assert_eq!(cmd.config.queue_capacity, 32);
        assert_eq!(cmd.config.heartbeat, Some(Duration::from_secs(2)));
        assert_eq!(cmd.format, ReportFormat::Json);
        assert!(cmd.config.chaos.fault_for("shard0", 1).is_some());
    }

    #[test]
    fn firehose_command_parses_telemetry_flags() {
        let cmd = parse_firehose_command(&[]).unwrap();
        assert_eq!(cmd.telemetry, None);
        assert_eq!(cmd.telemetry_interval, Duration::from_secs(1));
        assert_eq!(cmd.prom, None);

        let cmd = parse_firehose_command(&args(
            "--telemetry shards.jsonl --telemetry-interval 0.5 --prom metrics.prom",
        ))
        .unwrap();
        assert_eq!(cmd.telemetry, Some(PathBuf::from("shards.jsonl")));
        assert_eq!(cmd.telemetry_interval, Duration::from_millis(500));
        assert_eq!(cmd.prom, Some(PathBuf::from("metrics.prom")));

        assert!(parse_firehose_command(&args("--telemetry")).is_err());
        assert!(parse_firehose_command(&args("--telemetry-interval 0")).is_err());
        assert!(parse_firehose_command(&args("--telemetry-interval nope")).is_err());
        assert!(parse_firehose_command(&args("--prom")).is_err());
    }

    #[test]
    fn firehose_command_rejects_bad_input() {
        assert!(parse_firehose_command(&args("--bogus")).is_err());
        assert!(parse_firehose_command(&args("--peers")).is_err());
        assert!(parse_firehose_command(&args("--peers many")).is_err());
        assert!(
            parse_firehose_command(&args("--peers 0")).is_err(),
            "fails validation"
        );
        assert!(parse_firehose_command(&args("--workload tsunami")).is_err());
        assert!(parse_firehose_command(&args("--duration -3")).is_err());
        assert!(parse_firehose_command(&args("--shards 0")).is_err());
        assert!(parse_firehose_command(&args("--params never")).is_err());
        assert!(parse_firehose_command(&args("--format yaml")).is_err());
        assert!(parse_firehose_command(&args("--chaos panic")).is_err());
        assert!(parse_firehose_command(&args("--heartbeat 0")).is_err());
        assert!(parse_firehose_command(&args("--reuse-tick 0")).is_err());
        assert!(parse_firehose_command(&args("--reuse-tick soon")).is_err());
        assert!(parse_firehose_command(&args("--evict-every 0")).is_err());
        assert!(parse_firehose_command(&args("--decay fuzzy")).is_err());
    }

    #[test]
    fn config_construction() {
        let opts = parse_run_options(&args("--topology internet:30 --policy novalley")).unwrap();
        let graph = opts.topology.build(opts.seed);
        let config = network_config(&opts, &graph);
        assert!(config.policy.is_no_valley());
        config.validate().unwrap();
    }
}
