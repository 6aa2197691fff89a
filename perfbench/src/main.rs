//! Host-time benchmark of the Trident simulator and its job daemon.
//!
//! ```text
//! perfbench --workload native|fragmented|ladder|daemon --seed N --seconds N --trace 0|1
//! ```
//!
//! Runs one workload in this process for `--seconds`, checks every
//! output, and prints as its last stdout line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` prints
//! the end-to-end metrics; `--trace 1` alternates untraced and traced
//! passes and prints the per-layer metrics. The line before it carries
//! the run's provenance. See README.md.

mod checks;
mod daemon;
mod grid;
mod spans;
mod stats;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use trident_obs::SpanKind;

use crate::grid::{field, BestTimes, CellOutcome, CellTrace, Fingerprint, GridKind, Plan};

const USAGE: &str =
    "usage: perfbench --workload native|fragmented|ladder|daemon --seed N --seconds N --trace 0|1";

/// The daemon's set-up is repeated this many times and reported as the
/// median.
const SETUP_REPS: usize = 5;

/// End-to-end metrics (`--trace 0`), in output order: name and unit.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("cells_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("job_p50_ms", "ms"),
    ("job_tail_ms", "ms"),
];

/// Per-layer metrics (`--trace 1`), in output order: name and unit.
const PER_LAYER: [(&str, &str); 32] = [
    ("sim.build_s", "s"),
    ("sim.settle_s", "s"),
    ("sim.measure_s", "s"),
    ("sim.ticks", "count"),
    ("sim.touched_pages", "count"),
    ("sim.pages_per_s", "1/s"),
    ("sim.accesses_per_s", "1/s"),
    ("sim.unattributed_s", "s"),
    ("phys.fragment_s", "s"),
    ("phys.buddy_splits", "count"),
    ("phys.buddy_coalesces", "count"),
    ("core.fault_s", "s"),
    ("core.faults", "count"),
    ("core.promo_scan_s", "s"),
    ("core.promo_scans", "count"),
    ("core.promotions", "count"),
    ("core.compaction_s", "s"),
    ("core.compaction_runs", "count"),
    ("core.compaction_ok_ratio", "ratio"),
    ("core.compaction_moved_mb", "MB"),
    ("core.daemon_tick_self_s", "s"),
    ("core.zero_fill_s", "s"),
    ("tlb.accesses", "count"),
    ("tlb.walks", "count"),
    ("tlb.walk_cycles", "count"),
    ("serve.submit_ms", "ms"),
    ("serve.result_ms", "ms"),
    ("serve.execute_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.codec_us", "us"),
    ("serve.wire_bytes", "bytes"),
    ("trace.overhead_s", "s"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Grid(GridKind),
    Daemon,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "native" => Workload::Grid(GridKind::Native),
            "fragmented" => Workload::Grid(GridKind::Fragmented),
            "ladder" => Workload::Grid(GridKind::Ladder),
            "daemon" => Workload::Daemon,
            _ => return None,
        })
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    workload_name: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10u64, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: {value:?} is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                let w =
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?;
                workload = Some((w, value));
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let (workload, workload_name) = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        workload_name,
        seed,
        seconds,
        trace,
    })
}

/// What one run measured and checked.
#[derive(Debug, Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: Vec<(&'static str, &'static str, f64)>,
    /// Extra provenance: (key, JSON value).
    notes: Vec<(&'static str, String)>,
}

impl Outcome {
    fn metric(&mut self, name: &'static str, value: f64) {
        let unit = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .expect("every metric is declared");
        self.metrics.push((name, unit, value));
    }

    fn check(&mut self, result: Result<(), String>) {
        if let Err(e) = result {
            if !self.problems.contains(&e) {
                self.problems.push(e);
            }
        }
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, value)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let seconds = Duration::from_secs(args.seconds);
    let outcome = match args.workload {
        Workload::Grid(kind) => run_grid(kind, args.seed, seconds, args.trace),
        Workload::Daemon => run_daemon(args.seed, seconds, args.trace),
    };
    let mut outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.trace {
        // Layers a workload never reaches read 0.
        for (name, _) in PER_LAYER {
            if !outcome.metrics.iter().any(|m| m.0 == name) {
                outcome.metric(name, 0.0);
            }
        }
    }
    for p in &outcome.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    println!("{}", provenance(&args, &outcome));
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}

/// The commit checked out at the repository root, read from `.git`
/// itself so nothing outside the checkout is consulted.
fn git_rev() -> Option<String> {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let Some(reference) = head.trim().strip_prefix("ref: ") else {
        return Some(head.trim().to_owned());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_owned());
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()?
        .lines()
        .find_map(|l| Some(l.strip_suffix(reference)?.strip_suffix(' ')?.to_owned()))
}

fn provenance(args: &Args, outcome: &Outcome) -> String {
    let rev = git_rev().unwrap_or_else(|| "unknown".to_owned());
    let cpus = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let (scale, samples) = match args.workload {
        Workload::Grid(kind) => {
            let opts = Plan::new(kind, args.seed).opts;
            (opts.scale, opts.samples)
        }
        Workload::Daemon => (daemon::SCALE, daemon::SAMPLES),
    };
    let mut fields = vec![
        ("rev", format!("\"{rev}\"")),
        ("cpus", cpus.to_string()),
        ("rustc", format!("\"{}\"", env!("PERFBENCH_RUSTC"))),
        ("workload", format!("\"{}\"", args.workload_name)),
        ("scale", scale.to_string()),
        ("samples", samples.to_string()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
    ];
    fields.extend(outcome.notes.iter().cloned());
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{\"provenance\": {{{}}}}}", body.join(", "))
}

/// Runs every cell of `plan` once, untraced or traced, folding each
/// cell's host times into `best`. Returns the outcomes when every cell
/// booted, and the traces of a traced pass.
fn pass(
    plan: &Plan,
    traced: bool,
    best: &mut BestTimes,
    out: &mut Outcome,
) -> (Option<Vec<CellOutcome>>, Vec<CellTrace>) {
    let mut outcomes = Vec::with_capacity(plan.cells.len());
    let mut traces = Vec::new();
    for (i, cell) in plan.cells.iter().enumerate() {
        out.attempted += 1;
        let run = if traced {
            grid::run_cell_traced(cell).map(|(o, t)| {
                best.record(i, &t.times());
                traces.push(t);
                o
            })
        } else {
            grid::run_cell(cell).map(|(o, p)| {
                best.record(i, &p.fields());
                o
            })
        };
        match run {
            Ok(o) => outcomes.push(o),
            Err(e) => {
                out.failed += 1;
                eprintln!("perfbench: {e}");
            }
        }
    }
    let complete = outcomes.len() == plan.cells.len();
    (complete.then_some(outcomes), traces)
}

fn run_grid(kind: GridKind, seed: u64, seconds: Duration, trace: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    // Set-up: build the plan and run its first cell once untimed, so the
    // timed passes start on a warm process. It is repeated after every
    // pass, so its median spans the same stretch of host time as the
    // passes do.
    let mut setups = Vec::new();
    let mut set_up = |out: &mut Outcome| -> Result<Plan, String> {
        let t = Instant::now();
        let plan = Plan::new(kind, seed);
        let (warm, _) = grid::run_cell(&plan.cells[0])?;
        setups.push(t.elapsed());
        out.check(checks::cell(plan.cells[0].kind, &warm));
        Ok(plan)
    };
    let plan = set_up(&mut out)?;

    let window = Instant::now();
    let mut reference: Option<Vec<Fingerprint>> = None;
    let mut passes = 0usize;
    let mut peak_rss = None;
    let mut best = BestTimes::default();
    let mut best_traced = BestTimes::default();
    let mut last_traces = Vec::new();
    let mut sums = [0u64; 5];
    loop {
        for traced in [false, true].into_iter().take(1 + usize::from(trace)) {
            let bests = if traced { &mut best_traced } else { &mut best };
            let (outcomes, traces) = pass(&plan, traced, bests, &mut out);
            if let Some(outcomes) = &outcomes {
                out.check(grid::check_pass(&plan, outcomes));
                let prints: Vec<Fingerprint> =
                    outcomes.iter().map(CellOutcome::fingerprint).collect();
                match &reference {
                    None => reference = Some(prints),
                    Some(r) if *r != prints => out.check(Err(format!(
                        "a {} pass differs from the first pass",
                        if traced { "traced" } else { "untraced" }
                    ))),
                    Some(_) => {}
                }
                sums = outcomes.iter().fold([0; 5], |acc, o| {
                    [
                        acc[0] + o.ticks,
                        acc[1] + o.touched_pages,
                        acc[2] + o.m.tlb.total_accesses(),
                        acc[3] + o.m.walks,
                        acc[4] + o.m.walk_cycles,
                    ]
                });
            }
            if traced {
                if !traces
                    .iter()
                    .all(|t| t.spans.balanced() && t.self_within_phases)
                {
                    out.check(Err("spans unbalanced or outside their phase".to_owned()));
                }
                last_traces = traces;
            } else {
                passes += 1;
                // Peak memory through set-up and one pass: what running
                // the figure once costs. Later passes repeat the cells.
                peak_rss = peak_rss.or_else(stats::peak_rss_mb);
            }
        }
        set_up(&mut out)?;
        if window.elapsed() >= seconds {
            break;
        }
    }

    out.notes.push(("passes", passes.to_string()));
    out.notes
        .push(("cells_per_pass", plan.cells.len().to_string()));
    if trace {
        grid_layers(&mut out, &plan, &best, &best_traced, &last_traces, sums);
    } else {
        // A grid user waits for a whole pass, and a run yields one
        // least-interference pass time, so the median and the tail are
        // that one time.
        let pass_s = best.phases_total().as_secs_f64();
        out.metric("setup_s", stats::median_s(&setups));
        out.metric("cells_per_s", plan.cells.len() as f64 / pass_s);
        out.metric(
            "peak_rss_mb",
            peak_rss.ok_or("no VmHWM in /proc/self/status")?,
        );
        out.metric("job_p50_ms", pass_s * 1e3);
        out.metric("job_tail_ms", pass_s * 1e3);
    }
    Ok(out)
}

/// Per-layer metrics of a grid. Times are sums of per-cell minima over
/// the traced passes (see [`BestTimes`]); counts repeat exactly, so the
/// last pass gives them. `sums` holds one pass's ticks, touched pages,
/// TLB accesses, walks and walk cycles.
fn grid_layers(
    out: &mut Outcome,
    plan: &Plan,
    untraced: &BestTimes,
    traced: &BestTimes,
    traces: &[CellTrace],
    sums: [u64; 5],
) {
    let s = |f: usize| traced.total(f).as_secs_f64();
    let count = |f: &dyn Fn(&CellTrace) -> u64| traces.iter().map(f).sum::<u64>() as f64;
    let span_count = |k: SpanKind| count(&|t| t.spans.count_of(k));
    let [ticks, touched, accesses, walks, walk_cycles] = sums;
    let samples = (plan.opts.samples * plan.cells.len()) as f64;
    out.metric("sim.build_s", s(field::BUILD));
    out.metric("sim.settle_s", s(field::SETTLE));
    out.metric("sim.measure_s", s(field::MEASURE));
    out.metric("sim.ticks", ticks as f64);
    out.metric("sim.touched_pages", touched as f64);
    out.metric("sim.pages_per_s", touched as f64 / s(field::BUILD));
    out.metric("sim.accesses_per_s", samples / s(field::MEASURE));
    out.metric("sim.unattributed_s", s(field::UNATTRIBUTED));
    out.metric("phys.fragment_s", s(field::FRAGMENT));
    out.metric("phys.buddy_splits", count(&|t| t.spans.buddy_splits));
    out.metric("phys.buddy_coalesces", count(&|t| t.spans.buddy_coalesces));
    let self_s = |k: SpanKind| s(field::SELF + k as usize);
    out.metric("core.fault_s", self_s(SpanKind::Fault));
    out.metric("core.faults", span_count(SpanKind::Fault));
    out.metric("core.promo_scan_s", self_s(SpanKind::PromoScan));
    out.metric("core.promo_scans", span_count(SpanKind::PromoScan));
    out.metric("core.promotions", count(&|t| t.spans.promotions));
    out.metric("core.compaction_s", self_s(SpanKind::Compaction));
    let runs = count(&|t| t.spans.compaction_runs);
    out.metric("core.compaction_runs", runs);
    out.metric(
        "core.compaction_ok_ratio",
        if runs == 0.0 {
            0.0
        } else {
            count(&|t| t.spans.compaction_ok) / runs
        },
    );
    out.metric(
        "core.compaction_moved_mb",
        count(&|t| t.spans.compaction_moved_bytes) / f64::from(1u32 << 20),
    );
    out.metric("core.daemon_tick_self_s", self_s(SpanKind::DaemonTick));
    out.metric("core.zero_fill_s", self_s(SpanKind::ZeroFill));
    out.metric("tlb.accesses", accesses as f64);
    out.metric("tlb.walks", walks as f64);
    out.metric("tlb.walk_cycles", walk_cycles as f64);
    out.metric(
        "trace.overhead_s",
        traced.phases_total().as_secs_f64() - untraced.phases_total().as_secs_f64(),
    );
}

fn run_daemon(seed: u64, seconds: Duration, trace: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mix = daemon::job_mix(seed);
    // Set-up: start the service, connect, and run the mix's first job
    // once, so timed jobs start on a warm connection and worker.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut warm = None;
    let mut d = None;
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        let mut started = daemon::Daemon::start()?;
        let first = started.run(&mix[0])?;
        setups.push(t.elapsed());
        warm = Some(first.result);
        if rep + 1 == SETUP_REPS {
            d = Some(started);
        } else {
            started.stop()?;
        }
    }
    let mut d = d.expect("at least one set-up");

    let window = Instant::now();
    let mut reference: Vec<Option<trident_serve::JobResult>> = vec![None; mix.len()];
    reference[0] = warm;
    let mut latencies = Vec::new();
    let mut timed = Duration::ZERO;
    let mut rounds = 0usize;
    let mut peak_rss = None;
    let mut layer = LayerSamples::default();
    let mut tlb = [0u64; 3];
    loop {
        let mut round_time = [Duration::ZERO; 2];
        for traced in [false, true].into_iter().take(1 + usize::from(trace)) {
            let mut round = Vec::with_capacity(mix.len());
            for (i, spec) in mix.iter().enumerate() {
                out.attempted += 1;
                match d.run(spec) {
                    Ok(t) => {
                        match &reference[i] {
                            None => reference[i] = Some(t.result.clone()),
                            Some(r) if *r != t.result => out.check(Err(format!(
                                "job {i} answered differently in a later round"
                            ))),
                            Some(_) => {}
                        }
                        round_time[usize::from(traced)] += t.round_trip();
                        round.push((i, t));
                    }
                    Err(e) => {
                        out.failed += 1;
                        eprintln!("perfbench: job {i}: {e}");
                    }
                }
            }
            tlb = round.iter().fold([0; 3], |acc, (_, t)| {
                [
                    acc[0] + t.result.tlb_accesses,
                    acc[1] + t.result.walks,
                    acc[2] + t.result.walk_cycles,
                ]
            });
            if traced {
                for (i, t) in &round {
                    let (_, exec) = daemon::execute_local(&mix[*i])?;
                    let (codec, bytes) = daemon::codec(&mix[*i], t)?;
                    layer.submit.push(t.submit);
                    layer.result.push(t.result_wait);
                    layer.execute.push(exec);
                    layer
                        .overhead
                        .push(t.round_trip().as_secs_f64() - exec.as_secs_f64());
                    layer.codec.push(codec);
                    layer.bytes += bytes;
                    layer.jobs += 1;
                }
            } else {
                latencies.extend(
                    round
                        .iter()
                        .map(|(_, t)| t.round_trip().as_secs_f64() * 1e3),
                );
                timed += round_time[0];
            }
        }
        if trace {
            layer
                .trace_overhead
                .push(round_time[1].as_secs_f64() - round_time[0].as_secs_f64());
        }
        rounds += 1;
        // Peak memory through set-up and one round of the mix.
        peak_rss = peak_rss.or_else(stats::peak_rss_mb);
        if window.elapsed() >= seconds {
            break;
        }
    }
    d.stop()?;

    // Every distinct job, run in-process on the daemon's own execution
    // path, must equal what came back over the wire.
    for (spec, remote) in mix.iter().zip(&reference) {
        if let Some(remote) = remote {
            let (local, _) = daemon::execute_local(spec)?;
            out.check(checks::job(spec, remote, &local));
        }
    }

    out.notes.push(("rounds", rounds.to_string()));
    out.notes.push(("jobs_per_round", mix.len().to_string()));
    if trace {
        let ms = |v: &[Duration]| stats::median_s(v) * 1e3;
        out.metric("serve.submit_ms", ms(&layer.submit));
        out.metric("serve.result_ms", ms(&layer.result));
        out.metric("serve.execute_ms", ms(&layer.execute));
        out.metric("serve.overhead_ms", stats::median(&layer.overhead) * 1e3);
        out.metric("serve.codec_us", stats::median_s(&layer.codec) * 1e6);
        out.metric(
            "serve.wire_bytes",
            layer.bytes as f64 / layer.jobs.max(1) as f64,
        );
        out.metric("tlb.accesses", tlb[0] as f64);
        out.metric("tlb.walks", tlb[1] as f64);
        out.metric("tlb.walk_cycles", tlb[2] as f64);
        out.metric("trace.overhead_s", stats::median(&layer.trace_overhead));
    } else {
        let (pct, tail) = stats::tail(&latencies);
        out.notes.push(("jobs", latencies.len().to_string()));
        out.notes.push(("job_tail_percentile", pct.to_string()));
        out.metric("setup_s", stats::median_s(&setups));
        out.metric("cells_per_s", latencies.len() as f64 / timed.as_secs_f64());
        out.metric(
            "peak_rss_mb",
            peak_rss.ok_or("no VmHWM in /proc/self/status")?,
        );
        out.metric("job_p50_ms", stats::median(&latencies));
        out.metric("job_tail_ms", tail);
    }
    Ok(out)
}

/// Per-job serve-layer samples from traced rounds.
#[derive(Debug, Default)]
struct LayerSamples {
    submit: Vec<Duration>,
    result: Vec<Duration>,
    execute: Vec<Duration>,
    overhead: Vec<f64>,
    codec: Vec<Duration>,
    bytes: u64,
    jobs: u64,
    trace_overhead: Vec<f64>,
}
