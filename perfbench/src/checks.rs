//! Output checks. Each is a property the method must have or a value
//! recomputed here independently of the program; none compares against
//! a stored copy of earlier output.

use trident_serve::{JobResult, JobSpec};
use trident_sim::PolicyKind;
use trident_tlb::{walk_accesses_at, PageTableDepth};
use trident_types::{PageGeometry, PageSize};

use crate::grid::{CellOutcome, GridCell, LADDERS};

/// One bar of a figure, normalized the way the figure normalizes it.
#[derive(Debug, Clone)]
pub struct Row {
    /// Application.
    pub workload: &'static str,
    /// Configuration label.
    pub config: &'static str,
    /// Whether the paper shades the application as 1GB-sensitive.
    pub shaded: bool,
    /// Performance over the figure's baseline.
    pub perf_norm: f64,
    /// Walk-cycle fraction over the baseline's.
    pub walk_fraction_norm: f64,
}

/// Checks one cell: MM consistency, TLB accounting, backing of touched
/// pages, and the page sizes its policy may map.
///
/// # Errors
///
/// The first property that does not hold.
pub fn cell(kind: PolicyKind, o: &CellOutcome) -> Result<(), String> {
    let m = &o.m;
    if o.violations != 0 {
        return Err(format!("{} MM consistency violations", o.violations));
    }
    let samples = m.samples as u64;
    if m.tlb.total_accesses() != samples {
        return Err(format!(
            "TLB saw {} accesses for {samples} samples",
            m.tlb.total_accesses()
        ));
    }
    if m.walks > samples {
        return Err(format!("{} walks exceed {samples} samples", m.walks));
    }
    let chunk_walks: u64 = m.miss_by_chunk.iter().map(|&(_, n)| n).sum();
    if chunk_walks != m.walks {
        return Err(format!(
            "per-chunk misses sum to {chunk_walks}, not {} walks",
            m.walks
        ));
    }
    let resident_pages = m.mapped_bytes.iter().sum::<u64>() / o.geo.base_bytes();
    if resident_pages < o.touched_pages {
        return Err(format!(
            "{} touched pages but only {resident_pages} backed",
            o.touched_pages
        ));
    }
    let top = o.geo.largest();
    let mapped_at = |size: PageSize| m.mapped_bytes[size.rung()];
    match kind {
        PolicyKind::Base => {
            if let Some(size) = o.geo.rungs().skip(1).find(|&s| mapped_at(s) != 0) {
                return Err(format!("4KB policy mapped {}", o.geo.label(size)));
            }
        }
        PolicyKind::Thp | PolicyKind::HugetlbfsHuge | PolicyKind::HawkEye
            if mapped_at(top) != 0 =>
        {
            return Err(format!("{} mapped the top rung", kind.label()));
        }
        _ => {}
    }
    Ok(())
}

/// Every application's baseline bar must normalize to exactly 1.
///
/// # Errors
///
/// The first baseline bar that does not.
pub fn normalized(rows: &[Row], baseline: &str) -> Result<(), String> {
    let mut seen = 0;
    for r in rows.iter().filter(|r| r.config == baseline) {
        seen += 1;
        if r.perf_norm != 1.0 || r.walk_fraction_norm != 1.0 {
            return Err(format!(
                "{} {baseline} row normalizes to {} / {}, not 1",
                r.workload, r.perf_norm, r.walk_fraction_norm
            ));
        }
    }
    if seen == 0 {
        return Err(format!("no {baseline} rows"));
    }
    Ok(())
}

/// Figure 1's shape: 1GB hugetlbfs beats THP on average over the shaded
/// (1GB-sensitive) applications.
///
/// # Errors
///
/// When the mean gain is not above 1.
pub fn giant_gain_over_thp(rows: &[Row]) -> Result<(), String> {
    let bar = |w: &str, cfg: &str| {
        rows.iter()
            .find(|r| r.workload == w && r.config == cfg)
            .map(|r| r.perf_norm)
    };
    let gains: Vec<f64> = rows
        .iter()
        .filter(|r| r.shaded && r.config == PolicyKind::Thp.label())
        .filter_map(|r| Some(bar(r.workload, PolicyKind::HugetlbfsGiant.label())? / r.perf_norm))
        .collect();
    let mean = gains.iter().sum::<f64>() / gains.len().max(1) as f64;
    if gains.is_empty() || mean <= 1.0 {
        return Err(format!(
            "1GB-hugetlbfs gain over THP on shaded apps is {mean}, not > 1"
        ));
    }
    Ok(())
}

/// Figure 10's shape: Trident's geometric-mean speedup over THP is
/// above 1.
///
/// # Errors
///
/// When it is not.
pub fn trident_gain_over_thp(rows: &[Row]) -> Result<(), String> {
    let logs: Vec<f64> = rows
        .iter()
        .filter(|r| r.config == PolicyKind::Trident.label())
        .map(|r| r.perf_norm.ln())
        .collect();
    let mean = (logs.iter().sum::<f64>() / logs.len().max(1) as f64).exp();
    if logs.is_empty() || mean <= 1.0 {
        return Err(format!(
            "Trident's mean speedup over THP is {mean}, not > 1"
        ));
    }
    Ok(())
}

/// Worst-case walk accesses with four-level tables, recomputed from the
/// rung's backing level: the deepest table level whose natural leaf is
/// no larger than the rung. Three modeled levels sit below one
/// unmodeled top directory, so a level-`l` leaf costs `5 - l` accesses.
/// Group rungs (NAPOT, contiguous bit) back onto a smaller level's
/// entries and so never shorten the walk.
pub fn expected_walk(geo: &PageGeometry, size: PageSize) -> u64 {
    let order = geo.order(size);
    let level = (1..=3u8)
        .rev()
        .find(|&l| geo.level_order(l) <= order)
        .expect("level 1 has order 0");
    5 - u64::from(level)
}

/// The ladder study's properties: every ladder keeps all the rungs its
/// shipped descriptor has, each rung's walk matches its backing level,
/// and each application draws the same samples on every ladder.
///
/// # Errors
///
/// The first property that does not hold.
pub fn ladder(cells: &[GridCell], outcomes: &[CellOutcome]) -> Result<(), String> {
    for (cell, o) in cells.iter().zip(outcomes) {
        let shipped = LADDERS
            .iter()
            .find(|g| g.name() == o.geo.name())
            .ok_or_else(|| format!("{} is not a shipped ladder", o.geo.name()))?;
        if o.geo.rung_count() != shipped.rung_count() {
            return Err(format!(
                "{} kept {} of its {} rungs",
                o.geo.name(),
                o.geo.rung_count(),
                shipped.rung_count()
            ));
        }
        for size in o.geo.rungs() {
            let walk = walk_accesses_at(&o.geo, size, PageTableDepth::FourLevel);
            let want = expected_walk(&o.geo, size);
            if walk != want {
                return Err(format!(
                    "{} {} walks {walk} levels, its backing level implies {want}",
                    o.geo.name(),
                    o.geo.label(size)
                ));
            }
        }
        let first = cells
            .iter()
            .position(|c| c.row == cell.row)
            .expect("the cell's own row");
        if o.m.samples != outcomes[first].m.samples {
            return Err(format!(
                "{} drew {} samples on {} but {} on {}",
                cell.spec.name,
                o.m.samples,
                o.geo.name(),
                outcomes[first].m.samples,
                outcomes[first].geo.name()
            ));
        }
    }
    Ok(())
}

/// Checks one daemon job's remote result against the same spec executed
/// in-process, plus the properties any result must have.
///
/// # Errors
///
/// The first property that does not hold.
pub fn job(spec: &JobSpec, remote: &JobResult, local: &JobResult) -> Result<(), String> {
    if remote != local {
        return Err("remote result differs from in-process execution".to_owned());
    }
    if spec.audit && remote.violations != 0 {
        return Err(format!("{} audit violations", remote.violations));
    }
    if remote.tlb_accesses != remote.samples || remote.walks > remote.samples {
        return Err(format!(
            "{} TLB accesses and {} walks for {} samples",
            remote.tlb_accesses, remote.walks, remote.samples
        ));
    }
    if remote.tenants.len() != spec.tenants.len() + 1 {
        return Err(format!(
            "{} tenant rows for {} tenants",
            remote.tenants.len(),
            spec.tenants.len() + 1
        ));
    }
    let sum = |f: fn(&trident_serve::TenantRow) -> u64| remote.tenants.iter().map(f).sum::<u64>();
    if (sum(|t| t.samples), sum(|t| t.walks), sum(|t| t.walk_cycles))
        != (remote.samples, remote.walks, remote.walk_cycles)
    {
        return Err(
            "tenant rows do not sum to the pooled samples, walks and walk cycles".to_owned(),
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{run_cell, GridKind, Plan};

    fn outcome(plan: &Plan, i: usize) -> CellOutcome {
        run_cell(&plan.cells[i]).expect("cell boots").0
    }

    #[test]
    fn cell_checks_reject_corrupted_outcomes() {
        let plan = Plan::new(GridKind::Native, 3);
        // Row 0's THP cell.
        let good = outcome(&plan, 1);
        cell(PolicyKind::Thp, &good).expect("a real outcome passes");

        let mut bad = good.clone();
        bad.violations = 1;
        assert!(cell(PolicyKind::Thp, &bad).is_err());

        let mut bad = good.clone();
        bad.m.samples += 1;
        assert!(cell(PolicyKind::Thp, &bad)
            .unwrap_err()
            .contains("accesses"));

        let mut bad = good.clone();
        bad.m.walks = bad.m.samples as u64 + 1;
        assert!(cell(PolicyKind::Thp, &bad).is_err());

        let mut bad = good.clone();
        bad.m.miss_by_chunk.push((999, 1));
        assert!(cell(PolicyKind::Thp, &bad)
            .unwrap_err()
            .contains("per-chunk"));

        let mut bad = good.clone();
        bad.touched_pages = u64::MAX;
        assert!(cell(PolicyKind::Thp, &bad).unwrap_err().contains("backed"));

        let mut bad = good.clone();
        let top = bad.geo.largest();
        bad.m.mapped_bytes[top.rung()] += bad.geo.bytes(top);
        assert!(cell(PolicyKind::Thp, &bad)
            .unwrap_err()
            .contains("top rung"));
        // A 4KB cell may map nothing above the base rung.
        let mut bad = good;
        bad.m.mapped_bytes[1] += bad.geo.bytes(PageSize::new(1));
        assert!(cell(PolicyKind::Base, &bad)
            .unwrap_err()
            .contains("4KB policy"));
    }

    fn row(workload: &'static str, config: &'static str, perf: f64) -> Row {
        Row {
            workload,
            config,
            shaded: true,
            perf_norm: perf,
            walk_fraction_norm: 1.0,
        }
    }

    #[test]
    fn figure_checks_reject_corrupted_rows() {
        let rows = vec![
            row("GUPS", "4KB", 1.0),
            row("GUPS", "2MB-THP", 1.2),
            row("GUPS", "1GB-Hugetlbfs", 1.5),
        ];
        normalized(&rows, "4KB").unwrap();
        giant_gain_over_thp(&rows).unwrap();
        let mut bad = rows.clone();
        bad[0].perf_norm = 1.0 + f64::EPSILON;
        assert!(normalized(&bad, "4KB").is_err());
        assert!(
            normalized(&rows, "Trident").is_err(),
            "missing baseline rows"
        );
        let mut bad = rows.clone();
        bad[2].perf_norm = 1.1;
        assert!(giant_gain_over_thp(&bad).is_err());

        let frag = vec![row("GUPS", "2MB-THP", 1.0), row("GUPS", "Trident", 1.3)];
        trident_gain_over_thp(&frag).unwrap();
        let mut bad = frag;
        bad[1].perf_norm = 0.9;
        assert!(trident_gain_over_thp(&bad).is_err());
    }

    #[test]
    fn walk_depth_follows_the_backing_level() {
        let x86 = PageGeometry::X86_64;
        let depths: Vec<u64> = x86.rungs().map(|s| expected_walk(&x86, s)).collect();
        assert_eq!(depths, [4, 3, 2]);
        let sv48 = PageGeometry::RISCV_SV48;
        let depths: Vec<u64> = sv48.rungs().map(|s| expected_walk(&sv48, s)).collect();
        assert_eq!(depths, [4, 4, 3, 2], "the NAPOT rung walks like 4KB");
        let arm = PageGeometry::AARCH64;
        let depths: Vec<u64> = arm.rungs().map(|s| expected_walk(&arm, s)).collect();
        assert_eq!(
            depths,
            [4, 4, 3, 3, 2],
            "contiguous rungs walk like their level"
        );
    }

    #[test]
    fn ladder_checks_reject_corrupted_outcomes() {
        let plan = Plan::new(GridKind::Ladder, 5);
        let outcomes: Vec<CellOutcome> = (0..plan.cells.len()).map(|i| outcome(&plan, i)).collect();
        ladder(&plan.cells, &outcomes).expect("real outcomes pass");

        let mut bad = outcomes.clone();
        bad[1].geo = PageGeometry::RISCV_SV48.scaled(8);
        assert!(
            ladder(&plan.cells, &bad).is_err(),
            "a ladder that lost a rung"
        );

        let mut bad = outcomes.clone();
        bad[2].m.samples += 1;
        assert!(ladder(&plan.cells, &bad).unwrap_err().contains("samples"));

        let mut bad = outcomes;
        bad[0].geo = PageGeometry::TINY;
        assert!(ladder(&plan.cells, &bad).unwrap_err().contains("shipped"));
    }

    #[test]
    fn job_checks_reject_corrupted_results() {
        let mut spec = JobSpec::new("GUPS", "Trident");
        spec.scale = 256;
        spec.samples = 2_000;
        spec.audit = true;
        spec.tenants.push(trident_serve::TenantJob::new("Redis"));
        let good = trident_serve::job::execute(&spec).unwrap();
        job(&spec, &good, &good).unwrap();

        let mut bad = good.clone();
        bad.walk_cycles += 1;
        assert!(job(&spec, &bad, &good).unwrap_err().contains("in-process"));
        assert!(job(&spec, &bad, &bad).unwrap_err().contains("tenant rows"));

        let mut bad = good.clone();
        bad.violations = 2;
        assert!(job(&spec, &bad, &bad).unwrap_err().contains("audit"));

        let mut bad = good.clone();
        bad.tlb_accesses -= 1;
        assert!(job(&spec, &bad, &bad).is_err());

        let mut bad = good;
        bad.tenants.pop();
        assert!(job(&spec, &bad, &bad)
            .unwrap_err()
            .contains("tenant rows for"));
    }
}
