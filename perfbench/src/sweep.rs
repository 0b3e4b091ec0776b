//! `fig89-sweep`: the paper-scale Figures 8/9 grid (10×10 torus and
//! `ba:100`, three measured series × pulses 0..=10 × three seeds = 99
//! cells, plus the calculation series) through `figure8_9_on`, on two
//! pool threads, journaling into the benchmark's scratch directory.
//!
//! The workload seed `s` picks the sweep seeds `3s-2, 3s-1, 3s`, so the
//! default seed runs the paper's seeds 1, 2, 3.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use route_flap_damping::damping::DampingParams;
use route_flap_damping::experiments::figures::fig8_9::{figure8_9_on, measured_specs};
use route_flap_damping::experiments::sweep::try_measure_sweep;
use route_flap_damping::experiments::{
    calculation_series, estimate_t_up, PulseSweep, SweepOptions, TopologyKind,
};
use route_flap_damping::obs;
use route_flap_damping::runner::{
    hash_params, journal_path, parse_record, Journal, Record, RunGrid,
};

use crate::harness::{arm, fnv64, quantile, secs, Ctx, Report, Samples, Workload};

/// Pool threads: two, so cells run concurrently on a two-core box (and
/// a pool defect that needs two workers can show).
const THREADS: usize = 2;
/// Journal name `figure8_9_on` uses.
const GRID: &str = "fig8-9";
/// Set-ups per round; setting up takes well under a millisecond.
const SETUPS: usize = 20;
/// FNV-1a of the convergence and message CSVs for sweep seeds 1, 2, 3.
const PINNED: u64 = 0xf782_3e53_8562_15d6;

const MESH: TopologyKind = TopologyKind::PAPER_MESH;
const INTERNET: TopologyKind = TopologyKind::PAPER_INTERNET;

fn options(seed: u64, threads: usize, journal: &Path) -> SweepOptions {
    SweepOptions {
        max_pulses: 10,
        seeds: vec![3 * seed - 2, 3 * seed - 1, 3 * seed],
        threads,
        journal_dir: Some(journal.to_path_buf()),
        ..SweepOptions::default()
    }
}

/// Options, grid and journal creation, as the sweep does them before
/// its first cell.
fn setup(seed: u64, dir: &Path) -> Result<f64, String> {
    let t = Instant::now();
    let opts = options(seed, THREADS, dir);
    let specs = measured_specs(MESH, INTERNET);
    let salt: Vec<String> = specs
        .iter()
        .flat_map(|s| [s.label.clone(), format!("{:?}", s.kind)])
        .collect();
    let mut grid = RunGrid::new(GRID)
        .pulses((0..=opts.max_pulses).collect())
        .seeds(opts.seeds.clone())
        .param_salt(hash_params(salt.iter().map(String::as_str)));
    for spec in specs {
        grid = grid.series(spec.label.clone(), spec);
    }
    Journal::create(dir, &grid.fingerprint()).map_err(|e| e.to_string())?;
    Ok(secs(t))
}

fn tables_hash(sweep: &PulseSweep) -> u64 {
    let csv = sweep.convergence_table().to_csv() + &sweep.message_table().to_csv();
    fnv64(csv.as_bytes())
}

/// What the journal says about the cells: per-cell seconds, busy
/// seconds per pool worker, retries, and the file's size.
#[derive(Default)]
struct Cells {
    durations: Vec<f64>,
    busy: HashMap<u64, f64>,
    retries: u64,
    bytes: u64,
}

fn read_journal(dir: &Path) -> Cells {
    let path = journal_path(dir, GRID);
    let text = std::fs::read_to_string(&path).unwrap_or_default();
    let mut cells = Cells {
        bytes: text.len() as u64,
        ..Cells::default()
    };
    for line in text.lines() {
        match parse_record(line) {
            Some(Record::Run { meta: Some(m), .. }) => {
                cells.durations.push(m.duration_secs);
                *cells.busy.entry(m.thread).or_default() += m.duration_secs;
                cells.retries += u64::from(m.retries);
            }
            Some(Record::Failure { attempts, .. }) => {
                cells.retries += u64::from(attempts.saturating_sub(1));
            }
            _ => {}
        }
    }
    cells
}

pub struct Fig89 {
    seed: u64,
    /// Tables hash of this seed's first sweep in this process.
    first: Option<u64>,
    /// Per-cell seconds of every plain round's journal.
    cells: Vec<f64>,
    rounds: usize,
}

impl Fig89 {
    pub fn new(seed: u64) -> Self {
        Fig89 {
            seed,
            first: None,
            cells: Vec::new(),
            rounds: 0,
        }
    }

    /// Pinned tables for seed 1; for other seeds, the tables of the
    /// first sweep of this process. Failed cells fail the check.
    fn check(&mut self, sweep: &PulseSweep, what: &str) -> Result<(), String> {
        if !sweep.failures.is_empty() {
            return Err(format!("{what}: {} failed cells", sweep.failures.len()));
        }
        let hash = tables_hash(sweep);
        if self.seed == 1 && hash != PINNED {
            return Err(format!(
                "{what}: tables hash {hash:#018x}, pinned {PINNED:#018x}"
            ));
        }
        let first = *self.first.get_or_insert(hash);
        if hash != first {
            return Err(format!(
                "{what}: tables hash {hash:#018x}, earlier {first:#018x}"
            ));
        }
        Ok(())
    }

    /// A fresh journal directory for the next sweep.
    fn journal_dir(&mut self, ctx: &Ctx) -> PathBuf {
        self.rounds += 1;
        let dir = ctx.tmp.join(format!("sweep-{}", self.rounds));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }
}

impl Workload for Fig89 {
    fn plain(&mut self, ctx: &Ctx, s: &mut Samples, report: &mut Report) {
        let dir = self.journal_dir(ctx);
        for _ in 0..SETUPS {
            match setup(self.seed, &dir) {
                Ok(t) => s.push("setup_s", t),
                Err(e) => report.op(Err(format!("sweep set-up: {e}"))),
            }
        }
        let _armed = arm("fig89-sweep");
        let opts = options(self.seed, THREADS, &dir);
        let t = Instant::now();
        let sweep = figure8_9_on(&opts, MESH, INTERNET);
        s.push("wall_s", secs(t));
        report.op(self.check(&sweep, "sweep"));
        self.cells.extend(read_journal(&dir).durations);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn observed(&mut self, ctx: &Ctx, s: &mut Samples, report: &mut Report) {
        let dir = self.journal_dir(ctx);
        let _armed = arm("fig89-sweep with obs on");
        let opts = options(self.seed, THREADS, &dir);
        obs::reset();
        obs::enable();
        let t = Instant::now();
        let sweep = figure8_9_on(&opts, MESH, INTERNET);
        let run = secs(t);
        let path = dir.join("sweep.trace.json");
        let t = Instant::now();
        let written = obs::write_trace(&path);
        let write = secs(t);
        obs::disable();
        obs::reset();
        s.push("obs_wall_s", run + write);
        s.push("obs.write_trace_s", write);
        s.push(
            "obs.trace_bytes",
            std::fs::metadata(&path).map_or(0.0, |m| m.len() as f64),
        );
        let _ = std::fs::remove_dir_all(&dir);
        report.op(written.map_err(|e| format!("obs trace: {e}")));
        report.op(self.check(&sweep, "sweep with obs on"));
    }

    /// The sweep split into the public steps `figure8_9_on` takes, each
    /// timed, plus a one-thread sweep for the cross-check and the cell
    /// inflation.
    fn traced(&mut self, ctx: &Ctx, s: &mut Samples, report: &mut Report) {
        let dir = self.journal_dir(ctx);
        let _armed = arm("fig89-sweep traced");
        let opts = options(self.seed, THREADS, &dir);
        let start = Instant::now();
        let t = Instant::now();
        let t_up = estimate_t_up(MESH, &opts);
        let t_up_s = secs(t);
        let t = Instant::now();
        let grid = try_measure_sweep(GRID, measured_specs(MESH, INTERNET), &opts);
        let grid_s = secs(t);
        let t = Instant::now();
        let calc = calculation_series(&DampingParams::cisco(), opts.max_pulses, t_up);
        let calc_s = secs(t);
        let measured = secs(start);
        let mut sweep = match grid {
            Ok(sweep) => sweep,
            Err(e) => {
                report.op(Err(format!("sweep grid: {e}")));
                return;
            }
        };
        sweep.series.push(calc);
        report.op(self.check(&sweep, "traced sweep"));
        let cells = read_journal(&dir);

        let one_dir = dir.join("threads1");
        let one = figure8_9_on(&options(self.seed, 1, &one_dir), MESH, INTERNET);
        report.op(self.check(&one, "sweep on one thread"));
        let busy_one: f64 = read_journal(&one_dir).durations.iter().sum();
        let _ = std::fs::remove_dir_all(&dir);

        let busy: f64 = cells.durations.iter().sum();
        let max_worker = (0..THREADS as u64)
            .map(|w| cells.busy.get(&w).copied().unwrap_or(0.0))
            .fold(0.0, f64::max);
        for (name, value) in [
            ("experiments.t_up_s", t_up_s),
            ("runner.grid_s", grid_s),
            ("experiments.calc_s", calc_s),
            ("trace.measured_s", measured),
            ("unattributed_s", measured - t_up_s - grid_s - calc_s),
            ("runner.cells", cells.durations.len() as f64),
            ("runner.cell_busy_s", busy),
            ("runner.pool_busy_ratio", busy / (THREADS as f64 * grid_s)),
            (
                "runner.worker_imbalance",
                max_worker / (busy / THREADS as f64),
            ),
            ("runner.cell_inflation", busy / busy_one),
            ("runner.outside_pool_s", measured - max_worker),
            ("runner.retries", cells.retries as f64),
            ("runner.failed_cells", sweep.failures.len() as f64),
            ("runner.journal_bytes", cells.bytes as f64),
        ] {
            s.push(name, value);
        }
    }

    /// Cell percentiles pool the cells of every plain round.
    fn finish_traced(&mut self, _ctx: &Ctx, report: &mut Report) {
        report.layer("cell_p50_s", quantile(&self.cells, 0.5));
        report.layer("cell_p90_s", quantile(&self.cells, 0.9));
        report.sample_count("cells", self.cells.len());
    }
}
