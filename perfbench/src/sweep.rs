//! The sweep workload `attack-lifetime`: the Fig. 6 grid in cache, every
//! cell to first wear-out.
//!
//! Every cell is built the way `twl_lifetime::run_lifetime_cell` builds
//! it — `PcmDevice::new`, `build_scheme_spec`, `WorkloadSpec::build` — so
//! set-up can be timed apart from the drive loop, and driven through
//! `run_attack`. The device is fixed ([`DEVICE_SEED`]); the run's seed
//! seeds the streams.

use std::time::Instant;

use twl_attacks::AttackStream;
use twl_lifetime::{
    build_scheme_spec, run_attack, run_attack_unbatched, Calibration, LifetimeReport, SchemeSpec,
    SimLimits,
};
use twl_pcm::{PcmConfig, PcmDevice, PhysicalPageAddr};
use twl_wl_core::WearLeveler;
use twl_workloads::{BuiltWorkload, WorkloadSpec};

use crate::layer::{Metrics, SimLayers, TracedScheme, TracedStream};
use crate::{ensure, rounds, Check, Outcome, RunArgs, Scale, DEVICE_SEED};

/// The Fig. 6 axes.
const FIG6_SCHEMES: &[&str] = &["BWL", "SR", "TWL_ap", "TWL_swp", "NOWL"];
const FIG6_ATTACKS: &[&str] = &["repeat", "random", "scan", "inconsistent"];

/// `attack-lifetime` geometry: every table fits in the host caches.
const FIG6_PAGES: u64 = 4096;
const FIG6_ENDURANCE: u64 = 2_000;

/// One built cell.
pub struct Cell {
    pub device: PcmDevice,
    pub scheme: Box<dyn WearLeveler>,
    pub stream: BuiltWorkload,
    pub device_s: f64,
    pub scheme_s: f64,
    pub stream_s: f64,
}

/// Builds one cell on a fresh device drawn from `pcm`, with its stream
/// seeded by `seed`.
pub fn build_cell(
    pcm: &PcmConfig,
    scheme: &str,
    workload: &str,
    seed: u64,
) -> Result<Cell, String> {
    let spec: SchemeSpec = scheme.parse().map_err(|e| format!("{scheme}: {e}"))?;
    let workload: WorkloadSpec = workload.parse().map_err(|e| format!("{workload}: {e}"))?;
    let t = Instant::now();
    let device = PcmDevice::new(pcm);
    let device_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let scheme = build_scheme_spec(&spec, &device).map_err(|e| format!("{spec}: {e}"))?;
    let scheme_s = t.elapsed().as_secs_f64();
    let pages = if workload.addresses_scheme_space() {
        scheme.page_count()
    } else {
        pcm.pages
    };
    let t = Instant::now();
    let stream = workload
        .build(pages, seed)
        .map_err(|e| format!("{workload}: {e}"))?;
    let stream_s = t.elapsed().as_secs_f64();
    Ok(Cell {
        device,
        scheme,
        stream,
        device_s,
        scheme_s,
        stream_s,
    })
}

/// Drives `cell` for at most `budget` logical writes, through the
/// layer adapters when `layers` is given.
fn drive(cell: &mut Cell, budget: u64, layers: Option<&mut SimLayers>) -> LifetimeReport {
    let limits = SimLimits {
        max_logical_writes: budget,
    };
    let calibration = Calibration::attack_8gbps();
    let Some(layers) = layers else {
        return run_attack(
            cell.scheme.as_mut(),
            &mut cell.device,
            &mut cell.stream,
            &limits,
            &calibration,
        );
    };
    let scheme_name = cell.scheme.name().to_owned();
    let workload_name = cell.stream.name().to_owned();
    let before = cell.device.total_writes();
    let mut scheme = TracedScheme::new(cell.scheme.as_mut());
    let mut stream = TracedStream::new(&mut cell.stream);
    let t = Instant::now();
    let report = run_attack(
        &mut scheme,
        &mut cell.device,
        &mut stream,
        &limits,
        &calibration,
    );
    let drive_ns = t.elapsed().as_nanos() as f64;
    layers.add_cell(
        &scheme_name,
        &workload_name,
        &scheme.timer,
        &stream.timer,
        drive_ns,
        cell.device.total_writes() - before,
    );
    report
}

/// Properties every finished cell has, whatever the scheme.
fn check_cell(report: &LifetimeReport, device: &PcmDevice) -> Check {
    let cell = format!("{}/{}", report.scheme, report.workload);
    let wear_sum: u64 = device.wear_counters().iter().sum();
    ensure(wear_sum == report.device_writes, || {
        format!(
            "{cell}: wear counters sum to {wear_sum}, report says {} device writes",
            report.device_writes
        )
    })?;
    ensure(report.device_writes >= report.logical_writes, || {
        format!(
            "{cell}: {} device writes < {} logical writes",
            report.device_writes, report.logical_writes
        )
    })
}

/// `attack-lifetime`: the Fig. 6 grid, every cell run to first wear-out.
pub fn attack_lifetime(args: &RunArgs, traced: bool, out: &mut Outcome) -> Check {
    let (pages, endurance) = match args.scale {
        Scale::Full => (FIG6_PAGES, FIG6_ENDURANCE),
        Scale::Smoke => (2048, 2_000),
    };
    let pcm = PcmConfig::scaled(pages, endurance, DEVICE_SEED);
    let mut layers = SimLayers::default();
    let mut first_round: Vec<LifetimeReport> = Vec::new();
    rounds(args.seconds, |round| {
        let mut setup_s = 0.0;
        let mut reports = Vec::new();
        for scheme in FIG6_SCHEMES {
            for attack in FIG6_ATTACKS {
                out.attempted += 1;
                let mut cell = build_cell(&pcm, scheme, attack, args.seed)?;
                setup_s += cell.device_s + cell.scheme_s + cell.stream_s;
                layers.build_device_s += cell.device_s;
                layers.build_scheme_s += cell.scheme_s;
                let t = Instant::now();
                let report = drive(&mut cell, u64::MAX, traced.then_some(&mut layers));
                out.time_part(format!("{scheme}/{attack}"), t.elapsed().as_secs_f64());
                if round == 0 {
                    check_wear_out(&report, &cell.device)?;
                }
                out.sim_writes += report.logical_writes;
                out.completed += 1;
                reports.push(report);
            }
        }
        out.setup_s.push(setup_s);
        out.rounds += 1;
        if round == 0 {
            check_grid(&reports)?;
            first_round = reports;
        } else {
            ensure(reports == first_round, || {
                format!("round {round} differs from round 0 on the same seed")
            })?;
        }
        Ok(())
    })?;
    check_against_unbatched(&pcm, args.seed, &first_round)?;
    out.reports = first_round.iter().map(|r| format!("{r:?}")).collect();
    if traced {
        let mut m = Metrics::default();
        layers.metrics(&mut m);
        // Build figures per round, like setup_s.
        for name in ["build.device_s", "build.scheme_s"] {
            let total = m.get(name).unwrap_or(0.0);
            m.put(name, total / out.rounds.max(1) as f64, "s");
        }
        layers.print_breakdown("attack-lifetime");
        out.layers = m;
    }
    Ok(())
}

/// Per-cell properties of a run to first wear-out.
fn check_wear_out(report: &LifetimeReport, device: &PcmDevice) -> Check {
    let cell = format!("{}/{}", report.scheme, report.workload);
    check_cell(report, device)?;
    let failed = report
        .failed_page
        .filter(|_| report.completed)
        .ok_or_else(|| format!("{cell}: ended without a worn-out page"))?;
    ensure(device.wear(failed) == device.endurance(failed), || {
        format!(
            "{cell}: failed page {failed:?} has wear {} but endurance {}",
            device.wear(failed),
            device.endurance(failed)
        )
    })?;
    if report.scheme == "NOWL" && report.workload == "repeat" {
        // NOWL is the identity map and `repeat` targets logical page 0,
        // so the run serves exactly the tested endurance of physical
        // page 0: the write after it is the one that fails.
        let tested = device.endurance_map().endurance(PhysicalPageAddr::new(0));
        ensure(report.logical_writes == tested, || {
            format!(
                "NOWL/repeat served {} writes, page 0 endures {tested}",
                report.logical_writes
            )
        })?;
    }
    Ok(())
}

/// Cross-cell properties of the Fig. 6 grid: without leveling that
/// resists the attack, NOWL and BWL under `repeat` and `inconsistent`
/// serve under 1 % of what TWL_swp serves.
fn check_grid(reports: &[LifetimeReport]) -> Check {
    let writes = |scheme: &str, attack: &str| {
        reports
            .iter()
            .find(|r| r.scheme == scheme && r.workload == attack)
            .map(|r| r.logical_writes)
            .ok_or_else(|| format!("no {scheme}/{attack} cell"))
    };
    for attack in ["repeat", "inconsistent"] {
        let twl = writes("TWL_swp", attack)?;
        for weak in ["NOWL", "BWL"] {
            let served = writes(weak, attack)?;
            ensure(served.saturating_mul(100) < twl, || {
                format!("{weak}/{attack} served {served} writes, TWL_swp {twl}: not under 1 %")
            })?;
        }
    }
    Ok(())
}

/// One cell per scheme, each under a different attack, equals the
/// per-write reference loop. Untimed.
fn check_against_unbatched(pcm: &PcmConfig, seed: u64, reports: &[LifetimeReport]) -> Check {
    for (i, scheme) in FIG6_SCHEMES.iter().enumerate() {
        let attack = FIG6_ATTACKS[i % FIG6_ATTACKS.len()];
        let mut cell = build_cell(pcm, scheme, attack, seed)?;
        let reference = run_attack_unbatched(
            cell.scheme.as_mut(),
            &mut cell.device,
            &mut cell.stream,
            &SimLimits::default(),
            &Calibration::attack_8gbps(),
        );
        let batched = &reports[i * FIG6_ATTACKS.len() + i % FIG6_ATTACKS.len()];
        ensure(&reference == batched, || {
            format!("{scheme}/{attack}: batched {batched:?} != per-write reference {reference:?}")
        })?;
    }
    Ok(())
}
