//! `degrade-service`: a degradation matrix submitted to an in-process
//! `twl-serviced` with one worker and a checkpoint directory; every job
//! runs to its terminal result.

use std::path::Path;
use std::thread::JoinHandle;
use std::time::Instant;

use twl_faults::provision;
use twl_lifetime::{
    build_scheme_spec_for_region, run_degradation_attack, run_degradation_cell, Calibration,
    DegradationEnd, DegradationReport, SimLimits,
};
use twl_pcm::PcmConfig;
use twl_service::{
    decode_result, Client, JobEvent, JobKind, JobReports, JobSpec, Server, ServiceConfig,
    SubmitOutcome,
};

use crate::layer::{
    span_totals, Metrics, SimLayers, SpanBuffer, SpanRecord, SpanSink, TracedScheme, TracedStream,
};
use crate::{ensure, fresh_dir, rounds, stats, Check, Outcome, RunArgs, Scale};

const SCHEMES: &[&str] = &["TWL_swp", "SR", "BWL"];
const WORKLOADS: &[&str] = &["canneal", "bodytrack", "inconsistent"];

/// Daemon start-ups per run; `setup_s` is their median.
const SETUPS: usize = 15;

fn job_spec(args: &RunArgs) -> Result<JobSpec, String> {
    let (pages, endurance) = match args.scale {
        Scale::Full => (1024, 2_000),
        Scale::Smoke => (64, 300),
    };
    let spec = JobSpec {
        kind: JobKind::DegradationMatrix,
        pcm: PcmConfig::scaled(pages, endurance, args.seed),
        limits: SimLimits::default(),
        schemes: SCHEMES
            .iter()
            .map(|s| s.parse().map_err(|e| format!("{s}: {e}")))
            .collect::<Result<_, _>>()?,
        attacks: WORKLOADS
            .iter()
            .map(|w| w.parse().map_err(|e| format!("{w}: {e}")))
            .collect::<Result<_, _>>()?,
        benchmarks: Vec::new(),
        fault: None,
    };
    spec.validate()?;
    Ok(spec)
}

struct Daemon {
    client: Client,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Daemon {
    /// Binds a one-worker daemon on port 0 over `checkpoints` and
    /// connects a client to it.
    fn start(checkpoints: &Path) -> Result<Self, String> {
        let server = Server::bind(&ServiceConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 1,
            checkpoint_dir: Some(fresh_dir(checkpoints.to_path_buf())?),
            // A checkpoint after every cell.
            checkpoint_interval_writes: 1,
            ..ServiceConfig::default()
        })
        .map_err(|e| format!("cannot start twl-serviced: {e}"))?;
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        let thread = std::thread::spawn(move || server.run());
        let client = Client::connect(&addr.to_string()).map_err(|e| format!("connect: {e}"))?;
        Ok(Self { client, thread })
    }

    fn stop(mut self) -> Check {
        self.client
            .shutdown()
            .map_err(|e| format!("shutdown: {e}"))?;
        self.thread
            .join()
            .map_err(|_| "twl-serviced panicked".to_owned())?
            .map_err(|e| format!("twl-serviced: {e}"))
    }
}

/// Properties every degradation report has.
fn check_report(r: &DegradationReport) -> Check {
    let cell = format!("{}/{}", r.scheme, r.workload);
    ensure(r.end == DegradationEnd::SpareExhausted, || {
        format!("{cell}: ended {:?}, not at spare exhaustion", r.end)
    })?;
    for w in r.curve.windows(2) {
        let (a, b) = (&w[0], &w[1]);
        ensure(
            a.logical_writes <= b.logical_writes
                && a.device_writes <= b.device_writes
                && a.corrected_groups <= b.corrected_groups
                && a.retired_pages <= b.retired_pages
                && a.spares_remaining >= b.spares_remaining,
            || format!("{cell}: curve not monotone between {a:?} and {b:?}"),
        )?;
    }
    match (
        r.first_fault_device_writes,
        r.first_retirement_device_writes,
        r.spare_exhausted_device_writes,
    ) {
        (Some(f), Some(ret), Some(x)) if f <= ret && ret <= x => Ok(()),
        milestones => Err(format!(
            "{cell}: milestones (first fault, first retirement, exhaustion) = {milestones:?}"
        )),
    }
}

/// The calibration `run_degradation_cell` pins for a workload.
fn calibration_for(workload: &twl_workloads::WorkloadSpec) -> Calibration {
    workload
        .bandwidth_mbps()
        .map_or_else(Calibration::attack_8gbps, Calibration::for_bandwidth_mbps)
}

/// Every cell of `spec` run in-process: through `run_degradation_cell`,
/// or — traced — through the same calls with the scheme and stream
/// wrapped in the layer adapters.
fn in_process(
    spec: &JobSpec,
    layers: Option<&mut SimLayers>,
) -> Result<Vec<DegradationReport>, String> {
    let fault = spec.fault_config();
    let mut reports = Vec::new();
    let Some(layers) = layers else {
        for scheme in &spec.schemes {
            for workload in &spec.attacks {
                reports.push(run_degradation_cell(
                    &spec.pcm,
                    &fault,
                    *scheme,
                    workload,
                    &spec.limits,
                ));
            }
        }
        return Ok(reports);
    };
    for scheme_spec in &spec.schemes {
        for workload in &spec.attacks {
            let t = Instant::now();
            let mut domain = provision(&spec.pcm, &fault).map_err(|e| e.to_string())?;
            layers.build_device_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let mut scheme =
                build_scheme_spec_for_region(scheme_spec, &domain.device, domain.data_pages)
                    .map_err(|e| e.to_string())?;
            layers.build_scheme_s += t.elapsed().as_secs_f64();
            let pages = if workload.addresses_scheme_space() {
                scheme.page_count()
            } else {
                domain.data_pages
            };
            let mut stream = workload
                .build(pages, spec.pcm.seed)
                .map_err(|e| e.to_string())?;
            let scheme_name = scheme.name().to_owned();
            let workload_name = workload.label();
            let mut traced_scheme = TracedScheme::new(scheme.as_mut());
            let mut traced_stream = TracedStream::new(&mut stream);
            let t = Instant::now();
            let report = run_degradation_attack(
                &mut traced_scheme,
                &mut domain,
                &mut traced_stream,
                &spec.limits,
                &calibration_for(workload),
            );
            layers.add_cell(
                &scheme_name,
                &workload_name,
                &traced_scheme.timer,
                &traced_stream.timer,
                t.elapsed().as_nanos() as f64,
                report.device_writes,
            );
            reports.push(report);
        }
    }
    Ok(reports)
}

fn drain(spans: Option<&SpanBuffer>) -> Vec<SpanRecord> {
    spans.map_or_else(Vec::new, |s| {
        std::mem::take(&mut *s.lock().expect("span buffer poisoned"))
    })
}

/// `degrade-service`.
pub fn degrade_service(args: &RunArgs, traced: bool, out: &mut Outcome) -> Check {
    let spec = job_spec(args)?;
    let spans = traced.then(SpanSink::install);
    let result = serve_jobs(args, &spec, spans.as_ref(), out);
    twl_telemetry::clear_sinks();
    result
}

fn serve_jobs(
    args: &RunArgs,
    spec: &JobSpec,
    spans: Option<&SpanBuffer>,
    out: &mut Outcome,
) -> Check {
    let mut daemon = None;
    let checkpoints = args.scratch.join("checkpoints");
    for i in 0..SETUPS {
        let dir = checkpoints.join(format!("start-{i}"));
        let t = Instant::now();
        let started = Daemon::start(&dir)?;
        out.setup_s.push(t.elapsed().as_secs_f64());
        if let Some(previous) = daemon.replace(started) {
            previous.stop()?;
        }
    }
    let mut daemon = daemon.expect("SETUPS > 0");
    let _ = drain(spans);

    let mut first_job: Option<Vec<DegradationReport>> = None;
    let (mut submit_ms, mut overhead_s) = (Vec::new(), Vec::new());
    let mut job_spans = Vec::new();
    rounds(args.seconds, |job| {
        out.attempted += 1;
        let t = Instant::now();
        let id = match daemon
            .client
            .submit(spec)
            .map_err(|e| format!("submit: {e}"))?
        {
            SubmitOutcome::Accepted(id) => id,
            SubmitOutcome::Rejected { reason, .. } => {
                return Err(format!("submit rejected: {reason}"))
            }
        };
        submit_ms.push(t.elapsed().as_secs_f64() * 1e3);
        // The arrival of each cell's completion event splits the round
        // trip into one timed part per cell.
        let mut cells_done = Vec::new();
        let result = daemon
            .client
            .wait(id, |event| {
                if let JobEvent::CellDone { .. } = event {
                    cells_done.push(t.elapsed().as_secs_f64());
                }
            })
            .map_err(|e| format!("job {id}: {e}"))?;
        let wall = t.elapsed().as_secs_f64();
        ensure(cells_done.len() == spec.cell_count(), || {
            format!(
                "job {id}: {} cell events for {} cells",
                cells_done.len(),
                spec.cell_count()
            )
        })?;
        let JobReports::Degradation(reports) = decode_result(&result)? else {
            return Err(format!("job {id} returned lifetime reports"));
        };
        ensure(reports.len() == spec.cell_count(), || {
            format!(
                "job {id}: {} reports for {} cells",
                reports.len(),
                spec.cell_count()
            )
        })?;
        match &first_job {
            None => {
                reports.iter().try_for_each(check_report)?;
                first_job = Some(reports.clone());
            }
            Some(first) => ensure(&reports == first, || {
                format!("job {job} differs from job 0 on the same seed")
            })?,
        }
        let spans = drain(spans);
        let compute_us: u64 = ["cell.build", "drive_degraded"]
            .iter()
            .map(|name| span_totals(&spans, name).1)
            .sum();
        overhead_s.push(wall - compute_us as f64 / 1e6);
        job_spans.extend(spans);
        let mut since = 0.0;
        for (cell, done) in cells_done.iter().enumerate() {
            out.time_part(format!("cell-{cell}"), done - since);
            since = *done;
        }
        out.time_part("result", wall - since);
        out.sim_writes += reports.iter().map(|r| r.logical_writes).sum::<u64>();
        out.completed += 1;
        out.rounds += 1;
        Ok(())
    })?;
    let checkpoint_bytes = largest_file(&checkpoints.join(format!("start-{}", SETUPS - 1)))?;
    daemon.stop()?;

    if spans.is_some() {
        // The in-process cells are timed by the adapters; an installed
        // sink would also switch on the per-write run monitor there.
        twl_telemetry::clear_sinks();
    }
    let served = first_job.expect("at least one job ran");
    let mut layers = SimLayers::default();
    let local = in_process(spec, spans.map(|_| &mut layers))?;
    for (daemon_report, local_report) in served.iter().zip(&local) {
        ensure(daemon_report == local_report, || {
            format!(
                "{}/{}: daemon result differs from the in-process cell",
                daemon_report.scheme, daemon_report.workload
            )
        })?;
    }
    out.reports = served.iter().map(|r| format!("{r:?}")).collect();

    if spans.is_some() {
        let jobs = out.rounds as f64;
        let mut m = Metrics::default();
        layers.metrics(&mut m);
        let (absorb_calls, absorb_us) = span_totals(&job_spans, "absorb");
        let device_writes: u64 = served.iter().map(|r| r.device_writes).sum();
        m.put(
            "faults.absorb_ns",
            absorb_us as f64 * 1e3 / absorb_calls.max(1) as f64,
            "ns",
        );
        m.put("faults.absorb_calls", absorb_calls as f64 / jobs, "count");
        m.put(
            "faults.writes_per_absorb",
            device_writes as f64 * jobs / absorb_calls.max(1) as f64,
            "writes",
        );
        m.put("service.submit_ms", stats::median(&submit_ms), "ms");
        let mean_ms = |name: &str| {
            let (count, us) = span_totals(&job_spans, name);
            us as f64 / 1e3 / count.max(1) as f64
        };
        m.put("service.queue_wait_ms", mean_ms("job.queue_wait"), "ms");
        m.put("service.checkpoint_ms", mean_ms("job.checkpoint"), "ms");
        m.put("service.checkpoint_bytes", checkpoint_bytes as f64, "B");
        m.put("service.overhead_s", stats::median(&overhead_s), "s");
        layers.print_breakdown("degrade-service");
        out.layers = m;
    }
    Ok(())
}

fn largest_file(dir: &Path) -> Result<u64, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut largest = 0;
    for entry in entries {
        let meta = entry
            .and_then(|e| e.metadata())
            .map_err(|e| e.to_string())?;
        largest = largest.max(meta.len());
    }
    Ok(largest)
}
