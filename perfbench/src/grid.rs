//! The grid workloads: the figure grids a user of the reproduction runs,
//! executed serially cell by cell so each cell's host time is its own.
//!
//! Plans mirror the shipped experiments exactly (same cells, same row
//! seeds through `derive_cell_seed`), so a grid pass here costs what
//! `figure01`, `figure10` and `ladder` cost at the same options.

use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::SeedableRng;
use trident_core::{check_mm_consistent, ObsRecorder, StatsSnapshot};
use trident_phys::{Fragmenter, PhysicalMemory};
use trident_sim::experiments::ExpOptions;
use trident_sim::{
    derive_cell_seed, scaled_geometry_for, Measurement, PerfModel, PolicyKind, SimConfig, System,
};
use trident_tlb::TranslationStats;
use trident_types::{PageGeometry, MAX_RUNGS};
use trident_workloads::WorkloadSpec;

use crate::checks::{self, Row};
use crate::spans::{SpanClock, KINDS};

/// Which figure grid a plan reproduces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridKind {
    /// Figure 1: 12 apps × {4KB, THP, hugetlbfs-2MB, hugetlbfs-1GB} on
    /// clean memory.
    Native,
    /// Figure 10: 8 shaded apps × {THP, HawkEye, Trident} on heavily
    /// fragmented memory, plus each row's clean 4KB anchor.
    Fragmented,
    /// The ladder study: {GUPS, Redis} × {x86-64, Sv48, AArch64} under
    /// Trident.
    Ladder,
}

/// Figure 1's four bars per application, 4KB (the row anchor) first.
pub const FIG1_KINDS: [PolicyKind; 4] = [
    PolicyKind::Base,
    PolicyKind::Thp,
    PolicyKind::HugetlbfsHuge,
    PolicyKind::HugetlbfsGiant,
];

/// Figure 10's policies under test, after each row's 4KB anchor.
pub const FIG10_KINDS: [PolicyKind; 3] =
    [PolicyKind::Thp, PolicyKind::HawkEye, PolicyKind::Trident];

/// The shipped ladders the ladder workload compares.
pub const LADDERS: [PageGeometry; 3] = [
    PageGeometry::X86_64,
    PageGeometry::RISCV_SV48,
    PageGeometry::AARCH64,
];

/// The ladder study's applications.
pub const LADDER_APPS: [&str; 2] = ["GUPS", "Redis"];

/// One simulated-system run of a plan.
#[derive(Debug, Clone, Copy)]
pub struct GridCell {
    /// Row (application) index within the plan.
    pub row: usize,
    /// Kernel policy.
    pub kind: PolicyKind,
    /// Application.
    pub spec: WorkloadSpec,
    /// Complete run configuration.
    pub config: SimConfig,
}

/// A grid workload's cells in plan order.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Which grid.
    pub grid: GridKind,
    /// The options every cell derives from.
    pub opts: ExpOptions,
    /// Cells in plan order, grouped by row.
    pub cells: Vec<GridCell>,
}

impl Plan {
    /// Builds the plan for `grid` from the run seed.
    pub fn new(grid: GridKind, seed: u64) -> Plan {
        let opts = ExpOptions {
            scale: if grid == GridKind::Ladder { 64 } else { 256 },
            samples: 8_000,
            seed,
            threads: 1,
            trace_capacity: None,
            profile: false,
        };
        let row_config = |row: usize| {
            let mut c = opts.config();
            c.seed = derive_cell_seed(seed, row as u64);
            c
        };
        let mut cells = Vec::new();
        match grid {
            GridKind::Native => {
                for (row, spec) in WorkloadSpec::all().into_iter().enumerate() {
                    for kind in FIG1_KINDS {
                        cells.push(GridCell {
                            row,
                            kind,
                            spec,
                            config: row_config(row),
                        });
                    }
                }
            }
            GridKind::Fragmented => {
                for (row, spec) in WorkloadSpec::shaded().into_iter().enumerate() {
                    let config = row_config(row).fragmented();
                    let mut anchor = config;
                    anchor.fragment = None;
                    anchor.daemon_cap = None;
                    cells.push(GridCell {
                        row,
                        kind: PolicyKind::Base,
                        spec,
                        config: anchor,
                    });
                    for kind in FIG10_KINDS {
                        cells.push(GridCell {
                            row,
                            kind,
                            spec,
                            config,
                        });
                    }
                }
            }
            GridKind::Ladder => {
                for (row, name) in LADDER_APPS.iter().enumerate() {
                    let spec = WorkloadSpec::by_name(name).expect("built-in workload");
                    for arch in &LADDERS {
                        let mut config = row_config(row);
                        config.geo = scaled_geometry_for(arch, opts.scale);
                        cells.push(GridCell {
                            row,
                            kind: PolicyKind::Trident,
                            spec,
                            config,
                        });
                    }
                }
            }
        }
        Plan { grid, opts, cells }
    }
}

/// What one cell produced: the measurement plus the system state the
/// checks read after the timed region.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// The measurement phase's result.
    pub m: Measurement,
    /// The machine's ladder.
    pub geo: PageGeometry,
    /// Base pages touched during load.
    pub touched_pages: u64,
    /// Daemon ticks over all phases.
    pub ticks: u64,
    /// `check_mm_consistent` violations after the run.
    pub violations: usize,
}

/// The simulated outputs that must repeat bit for bit: across passes,
/// and between traced and untraced runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    samples: usize,
    walks: u64,
    walk_cycles: u64,
    tlb: TranslationStats,
    snapshot: StatsSnapshot,
    mapped_bytes: [u64; MAX_RUNGS],
    miss_by_chunk: Vec<(u64, u64)>,
    touched_pages: u64,
    ticks: u64,
}

impl CellOutcome {
    /// The outcome's bit-identity key.
    pub fn fingerprint(&self) -> Fingerprint {
        Fingerprint {
            samples: self.m.samples,
            walks: self.m.walks,
            walk_cycles: self.m.walk_cycles,
            tlb: self.m.tlb,
            snapshot: self.m.snapshot,
            mapped_bytes: self.m.mapped_bytes,
            miss_by_chunk: self.m.miss_by_chunk.clone(),
            touched_pages: self.touched_pages,
            ticks: self.ticks,
        }
    }
}

/// Host time of one cell's run, phase by phase.
#[derive(Debug, Clone, Copy)]
pub struct Phases {
    /// `build()`: fragmentation, policy set-up, load with first touch.
    pub build: Duration,
    /// `settle()`.
    pub settle: Duration,
    /// `measure()`.
    pub measure: Duration,
    /// Dropping the system.
    pub teardown: Duration,
}

impl Phases {
    /// The phases in [`field`] order.
    pub fn fields(&self) -> [Duration; field::PHASES] {
        [self.build, self.settle, self.measure, self.teardown]
    }
}

/// Host time of one traced cell, split by phase and by layer.
#[derive(Debug, Clone)]
pub struct CellTrace {
    /// The phases, as [`run_cell`] times them.
    pub phases: Phases,
    /// `Fragmenter::run` alone, on the cell's profile and seed.
    pub fragment: Duration,
    /// Phase time covered by no span.
    pub unattributed: Duration,
    /// Whether each phase's span self times summed to at most the phase.
    pub self_within_phases: bool,
    /// The folded span stream.
    pub spans: SpanClock,
}

/// Runs one cell untraced and times its phases; the consistency check
/// runs outside them.
///
/// # Errors
///
/// The boot failure, when the policy cannot start.
pub fn run_cell(cell: &GridCell) -> Result<(CellOutcome, Phases), String> {
    let t0 = Instant::now();
    let mut system = boot(cell, None)?;
    let t1 = Instant::now();
    system.settle();
    let t2 = Instant::now();
    let m = system.measure();
    let t3 = Instant::now();
    let outcome = finish(&system, m);
    let t4 = Instant::now();
    drop(system);
    let phases = Phases {
        build: t1 - t0,
        settle: t2 - t1,
        measure: t3 - t2,
        teardown: t4.elapsed(),
    };
    Ok((outcome, phases))
}

/// Runs one cell with the host-clock span recorder installed, timing
/// its phases as [`run_cell`] does and splitting them by layer.
///
/// # Errors
///
/// The boot failure, when the policy cannot start.
pub fn run_cell_traced(cell: &GridCell) -> Result<(CellOutcome, CellTrace), String> {
    let fragment = match cell.config.fragment {
        Some(profile) => {
            let t = Instant::now();
            let mut mem = PhysicalMemory::new(cell.config.geo, cell.config.host_pages());
            let mut rng = SmallRng::seed_from_u64(cell.config.seed);
            Fragmenter::new(profile).run(&mut mem, &mut rng);
            let d = t.elapsed();
            drop(mem);
            d
        }
        None => Duration::ZERO,
    };
    let recorder = ObsRecorder::custom(Box::new(SpanClock::default()));
    let t0 = Instant::now();
    let mut system = boot(cell, Some(recorder))?;
    let t1 = Instant::now();
    let after_build = clock(&system).root_time;
    system.settle();
    let t2 = Instant::now();
    let after_settle = clock(&system).root_time;
    let m = system.measure();
    let t3 = Instant::now();
    let spans = clock(&system).clone();
    let phases = [t1 - t0, t2 - t1, t3 - t2];
    let covered = [
        after_build,
        after_settle - after_build,
        spans.root_time - after_settle,
    ];
    let outcome = finish(&system, m);
    let t4 = Instant::now();
    drop(system);
    let trace = CellTrace {
        phases: Phases {
            build: phases[0],
            settle: phases[1],
            measure: phases[2],
            teardown: t4.elapsed(),
        },
        fragment,
        unattributed: phases
            .iter()
            .zip(covered)
            .map(|(p, c)| p.saturating_sub(c))
            .sum(),
        self_within_phases: phases.iter().zip(covered).all(|(p, c)| c <= *p),
        spans,
    };
    Ok((outcome, trace))
}

fn boot(cell: &GridCell, recorder: Option<ObsRecorder>) -> Result<System, String> {
    let mut builder = System::builder(cell.config)
        .policy(cell.kind)
        .workload(cell.spec);
    if let Some(recorder) = recorder {
        builder = builder.recorder(recorder);
    }
    builder.build().map_err(|e| {
        format!(
            "{} / {} failed to boot: {e}",
            cell.spec.name,
            cell.kind.label()
        )
    })
}

fn clock(system: &System) -> &SpanClock {
    system
        .ctx
        .recorder
        .custom_ref::<SpanClock>()
        .expect("the span recorder stays installed for the whole run")
}

fn finish(system: &System, m: Measurement) -> CellOutcome {
    CellOutcome {
        m,
        geo: system.geometry(),
        touched_pages: system.touched_pages(),
        ticks: system.ticks(),
        violations: check_mm_consistent(&system.ctx, &system.spaces)
            .map_or_else(|v| v.len(), |()| 0),
    }
}

/// Evaluates a pass the way the figure does: each row's 4KB anchor
/// primes the performance model, and bars normalize to the figure's
/// baseline (4KB for Figure 1, THP for Figure 10). Empty for the ladder.
pub fn figure_rows(plan: &Plan, outcomes: &[CellOutcome]) -> Vec<Row> {
    let mut model = PerfModel::new();
    let mut rows = Vec::new();
    let (kinds, baseline): (&[PolicyKind], usize) = match plan.grid {
        GridKind::Native => (&FIG1_KINDS, 0),
        GridKind::Fragmented => (&FIG10_KINDS, 1),
        GridKind::Ladder => return rows,
    };
    let per_row = if plan.grid == GridKind::Native {
        kinds.len()
    } else {
        kinds.len() + 1
    };
    for (first, cells) in plan
        .cells
        .chunks(per_row)
        .enumerate()
        .map(|(r, c)| (r * per_row, c))
    {
        let anchor = &cells[0];
        model.prime_anchor(&anchor.spec, &anchor.config, &outcomes[first].m, false);
        let base_cell = &cells[baseline];
        let base = model.evaluate(
            &base_cell.spec,
            &base_cell.config,
            &outcomes[first + baseline].m,
        );
        let offset = per_row - kinds.len();
        for (k, cell) in cells.iter().enumerate().skip(offset) {
            let point = model.evaluate(&cell.spec, &cell.config, &outcomes[first + k].m);
            rows.push(Row {
                workload: cell.spec.name,
                config: cell.kind.label(),
                shaded: cell.spec.giant_sensitive,
                perf_norm: point.speedup_over(&base),
                walk_fraction_norm: point.walk_fraction_ratio(&base),
            });
        }
    }
    rows
}

/// Checks one complete pass: every cell on its own, then the pass as a
/// figure (normalization and paper shape) or as a ladder study.
///
/// # Errors
///
/// The first failed check, naming the cell.
pub fn check_pass(plan: &Plan, outcomes: &[CellOutcome]) -> Result<(), String> {
    for (cell, outcome) in plan.cells.iter().zip(outcomes) {
        checks::cell(cell.kind, outcome)
            .map_err(|e| format!("{} / {}: {e}", cell.spec.name, cell.kind.label()))?;
    }
    match plan.grid {
        GridKind::Native => {
            let rows = figure_rows(plan, outcomes);
            checks::normalized(&rows, PolicyKind::Base.label())?;
            checks::giant_gain_over_thp(&rows)
        }
        GridKind::Fragmented => {
            let rows = figure_rows(plan, outcomes);
            checks::normalized(&rows, PolicyKind::Thp.label())?;
            checks::trident_gain_over_thp(&rows)
        }
        GridKind::Ladder => checks::ladder(&plan.cells, outcomes),
    }
}

/// Per-cell, per-field minima of host times over a run's passes.
/// Interference from other work on a shared host only ever adds time, so
/// the fastest of a cell's runs of a phase is that phase's cost with the
/// least interference; summing the minima gives a pass time that repeats
/// from run to run where the mean does not.
#[derive(Debug, Clone, Default)]
pub struct BestTimes(Vec<Vec<Duration>>);

impl BestTimes {
    /// Folds one run of cell `cell`: its host times, field by field.
    pub fn record(&mut self, cell: usize, times: &[Duration]) {
        if self.0.len() <= cell {
            self.0.resize(cell + 1, Vec::new());
        }
        let best = &mut self.0[cell];
        if best.is_empty() {
            best.extend_from_slice(times);
        } else {
            for (b, t) in best.iter_mut().zip(times) {
                *b = (*b).min(*t);
            }
        }
    }

    /// The sum over cells of field `field`'s minimum.
    pub fn total(&self, field: usize) -> Duration {
        self.0.iter().map(|c| c[field]).sum()
    }

    /// The sum over cells and phases of each phase's minimum: a pass's
    /// host time with the least interference.
    pub fn phases_total(&self) -> Duration {
        (0..field::PHASES).map(|f| self.total(f)).sum()
    }
}

/// Fields of [`CellTrace::times`]: the four phases (the fields an
/// untraced run records), then the standalone fragmenter, unattributed
/// time, and one self time per span kind.
pub mod field {
    use super::KINDS;
    /// `build()`.
    pub const BUILD: usize = 0;
    /// `settle()`.
    pub const SETTLE: usize = 1;
    /// `measure()`.
    pub const MEASURE: usize = 2;
    /// Number of phase fields (the last is teardown).
    pub const PHASES: usize = 4;
    /// `Fragmenter::run` alone.
    pub const FRAGMENT: usize = 4;
    /// Phase time covered by no span.
    pub const UNATTRIBUTED: usize = 5;
    /// Self time of span kind `k` is at `SELF + k`.
    pub const SELF: usize = 6;
    /// Number of fields.
    pub const COUNT: usize = SELF + KINDS;
}

impl CellTrace {
    /// The trace's host times in [`field`] order.
    pub fn times(&self) -> [Duration; field::COUNT] {
        let mut t = [Duration::ZERO; field::COUNT];
        t[..field::PHASES].copy_from_slice(&self.phases.fields());
        t[field::FRAGMENT] = self.fragment;
        t[field::UNATTRIBUTED] = self.unattributed;
        t[field::SELF..].copy_from_slice(&self.spans.self_time);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trident_obs::SpanKind;

    #[test]
    fn plans_have_the_figure_shapes() {
        assert_eq!(Plan::new(GridKind::Native, 1).cells.len(), 12 * 4);
        assert_eq!(Plan::new(GridKind::Fragmented, 1).cells.len(), 8 * 4);
        assert_eq!(Plan::new(GridKind::Ladder, 1).cells.len(), 2 * 3);
        let frag = Plan::new(GridKind::Fragmented, 1);
        for row in frag.cells.chunks(4) {
            assert!(row[0].config.fragment.is_none() && row[0].kind == PolicyKind::Base);
            assert!(row[1..].iter().all(|c| c.config.fragment.is_some()));
        }
    }

    #[test]
    fn traced_cells_balance_and_match_untraced_bit_for_bit() {
        let plan = Plan::new(GridKind::Fragmented, 7);
        let cell = plan.cells[3]; // Trident on fragmented memory
        let (plain, _) = run_cell(&cell).unwrap();
        let (traced, trace) = run_cell_traced(&cell).unwrap();
        assert_eq!(plain.fingerprint(), traced.fingerprint());
        assert!(trace.spans.balanced(), "spans must close in order");
        assert!(trace.self_within_phases);
        assert!(trace.spans.count_of(SpanKind::Fault) > 0);
        assert!(trace.fragment > Duration::ZERO);
        let phases: Duration = trace.phases.fields().iter().sum();
        assert!(trace.spans.self_time.iter().sum::<Duration>() <= phases);
        assert_eq!(
            trace.spans.overfull, 0,
            "children never exceed their parent"
        );
        for k in SpanKind::ALL {
            assert!(trace.spans.self_time[k as usize] <= trace.spans.inclusive[k as usize]);
        }
    }
}
