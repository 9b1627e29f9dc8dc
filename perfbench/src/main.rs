//! `twl-perfbench`: the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload for about `--seconds` of timed work, checks every
//! output the workload produces, and prints as its last stdout line one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` they
//! are the per-layer ones, from a second, traced pass of the workload
//! (or, for [`SELF_TRACED`] workloads, from an untimed replica after the
//! one pass). See `README.md` beside this file for the workloads, the metric
//! map and reference figures.

mod layer;
mod nbd;
mod probe;
mod service;
mod stats;
mod sweep;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use layer::Metrics;

/// The end-to-end metrics every untraced run prints, with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("sim_writes_per_s", "1/s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics every traced run prints, with their units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("rng.ns_per_u64", "ns"),
    ("pcm.write_page_ns.4096p", "ns"),
    ("pcm.write_page_ns.8388608p", "ns"),
    ("stream.ns_per_call", "ns"),
    ("stream.calls", "count"),
    ("scheme.ns_per_write", "ns"),
    ("scheme.calls", "count"),
    ("scheme.mean_run_len", "writes"),
    ("scheme.device_writes_per_write", "ratio"),
    ("drive.self_ns_per_write", "ns"),
    ("build.device_s", "s"),
    ("build.scheme_s", "s"),
    ("build.device_s.8388608p", "s"),
    ("build.scheme_s.8388608p", "s"),
    ("faults.absorb_ns", "ns"),
    ("faults.absorb_calls", "count"),
    ("faults.writes_per_absorb", "writes"),
    ("service.submit_ms", "ms"),
    ("service.queue_wait_ms", "ms"),
    ("service.checkpoint_ms", "ms"),
    ("service.checkpoint_bytes", "B"),
    ("service.overhead_s", "s"),
    ("gateway.ns_per_page_write", "ns"),
    ("store.persist_ms", "ms"),
    ("capture.encode_ms", "ms"),
    ("capture.bytes", "B"),
    ("flush.write_amplification", "ratio"),
    ("revive.load_s", "s"),
    ("revive.replay_s", "s"),
    ("nbd.read_p50_us", "us"),
    ("nbd.read_p99_us", "us"),
    ("nbd.write_p50_us", "us"),
    ("nbd.write_p99_us", "us"),
    ("nbd.flush_p50_us", "us"),
    ("nbd.revive_s", "s"),
    ("trace.overhead", "ratio"),
];

/// The workloads `BENCHMARK.json` gates, in the order the traced run
/// borrows layer figures from their smoke-scale runs.
pub const WORKLOADS: &[&str] = &["attack-lifetime", "degrade-service", "nbd-durable"];

/// Workloads whose timed pass carries no layer adapters, so a traced
/// run takes its per-layer figures, tracing overhead included, from one
/// pass instead of repeating it.
pub const SELF_TRACED: &[&str] = &["nbd-durable"];

/// Endurance-map seed of the sweep devices and of the NBD export. The
/// device is the system under test and stays the same in every run;
/// `--seed` varies the inputs — the write streams and the NBD requests.
/// (`degrade-service` submits a job spec, whose one seed the service
/// uses for both device and streams.)
pub const DEVICE_SEED: u64 = 2017;

/// Full size, or the tiny geometry the self-tests and the traced run's
/// layer fill-in use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// What one workload pass is asked to do.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub scale: Scale,
    /// Where the pass may create state and checkpoint directories.
    pub scratch: PathBuf,
}

/// What one workload pass measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations started: cells, jobs or NBD requests.
    pub attempted: u64,
    /// Operations that finished and passed their own checks. A run stops
    /// at its first failure, so `attempted - completed` is what failed.
    pub completed: u64,
    /// Rounds of the timed phase.
    pub rounds: u64,
    /// Seconds each timed part took, by part. Every round runs the same
    /// parts the same number of times.
    pub parts: BTreeMap<String, Vec<f64>>,
    /// Set-up samples; `setup_s` is their median.
    pub setup_s: Vec<f64>,
    /// Logical page writes simulated in the timed phase.
    pub sim_writes: u64,
    /// Per-layer figures (traced passes only).
    pub layers: Metrics,
    /// The simulation results of one round, rendered exactly; a traced
    /// pass must reproduce them.
    pub reports: Vec<String>,
}

impl Outcome {
    /// Records that timed part `part` took `secs` once more.
    pub fn time_part(&mut self, part: impl Into<String>, secs: f64) {
        self.parts.entry(part.into()).or_default().push(secs);
    }

    /// Seconds one round takes with every part at its fastest in the
    /// run. The host runs the same work up to 2x slower in spells of a
    /// few seconds; such a spell only ever slows a part down, so the
    /// fastest of a part's repeats, taken at different times of the run,
    /// is the figure that least depends on when the run happened. A
    /// part a round runs `k` times counts `k` times its fastest repeat.
    pub fn wall_s(&self) -> f64 {
        let rounds = self.rounds.max(1) as f64;
        self.parts
            .values()
            .map(|v| stats::min(v) * v.len() as f64 / rounds)
            .sum()
    }

    /// Operations that failed.
    pub fn failed(&self) -> u64 {
        self.attempted - self.completed
    }
}

/// A failed correctness check.
pub type Check = Result<(), String>;

/// Fails with `msg` unless `cond` holds.
pub fn ensure(cond: bool, msg: impl FnOnce() -> String) -> Check {
    if cond {
        Ok(())
    } else {
        Err(msg())
    }
}

/// Runs `round` until `seconds` have passed, always at least once and
/// always whole rounds.
pub fn rounds(seconds: f64, mut round: impl FnMut(usize) -> Check) -> Check {
    let start = Instant::now();
    let mut i = 0;
    while i == 0 || start.elapsed().as_secs_f64() < seconds {
        round(i)?;
        i += 1;
    }
    Ok(())
}

/// Creates `dir`, which must not exist yet: a daemon bound to a reused
/// state or checkpoint directory would restore the previous run's state.
pub fn fresh_dir(dir: PathBuf) -> Result<PathBuf, String> {
    ensure(!dir.exists(), || {
        format!("{} already exists", dir.display())
    })?;
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Runs one pass of `workload`, counting its operations into `out` as
/// they start and finish, so the counts survive a failure.
pub fn run_workload(workload: &str, args: &RunArgs, traced: bool, out: &mut Outcome) -> Check {
    std::fs::create_dir_all(&args.scratch)
        .map_err(|e| format!("cannot create {}: {e}", args.scratch.display()))?;
    match workload {
        "attack-lifetime" => sweep::attack_lifetime(args, traced, out),
        "degrade-service" => service::degrade_service(args, traced, out),
        "nbd-durable" => nbd::nbd_durable(args, traced, out),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// The end-to-end metrics of an untraced pass.
pub fn end_to_end(outcome: &Outcome) -> Result<Metrics, String> {
    let mut m = Metrics::default();
    let wall_s = outcome.wall_s();
    let rounds = outcome.rounds.max(1) as f64;
    m.put("wall_s", wall_s, "s");
    m.put("setup_s", stats::median(&outcome.setup_s), "s");
    m.put(
        "sim_writes_per_s",
        outcome.sim_writes as f64 / rounds / wall_s,
        "1/s",
    );
    m.put(
        "ops_per_s",
        outcome.completed as f64 / rounds / wall_s,
        "1/s",
    );
    let rss = stats::peak_rss_mb().ok_or("cannot read peak RSS from /proc/self/status")?;
    m.put("peak_rss_mb", rss, "MiB");
    Ok(m)
}

/// The per-layer metrics of a traced run: the traced pass of
/// `workload` and its overhead against the untraced pass (or, where
/// `traced` is `None`, the figures the one pass took from its untimed
/// replica, overhead included), the direct probes, and — for layers
/// this workload never reaches — the traced smoke-scale passes of the
/// other workloads.
pub fn per_layer(
    workload: &str,
    args: &RunArgs,
    untraced: &Outcome,
    traced: Option<&Outcome>,
) -> Result<Metrics, String> {
    let mut m = match traced {
        Some(traced) => {
            ensure(traced.reports == untraced.reports, || {
                format!(
                    "traced reports differ from untraced ones:\n  untraced {:?}\n  traced   {:?}",
                    untraced.reports, traced.reports
                )
            })?;
            let mut m = traced.layers.clone();
            m.put(
                "trace.overhead",
                traced.wall_s() / untraced.wall_s() - 1.0,
                "ratio",
            );
            m
        }
        None => untraced.layers.clone(),
    };
    probe::direct_calls(args, &mut m)?;
    for other in WORKLOADS.iter().filter(|w| **w != workload) {
        if PER_LAYER.iter().all(|(name, _)| m.0.contains_key(*name)) {
            break;
        }
        let smoke = RunArgs {
            scale: Scale::Smoke,
            seconds: 0.0,
            scratch: args.scratch.join(format!("fill-{other}")),
            ..args.clone()
        };
        let mut outcome = Outcome::default();
        run_workload(other, &smoke, true, &mut outcome)?;
        m.fill_from(&outcome.layers);
    }
    Ok(m)
}

/// Renders a result line. `metrics` must hold exactly the metrics of
/// `names` when the run is correct; a run that is not prints none.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &Metrics,
    names: &[(&str, &str)],
) -> Result<String, String> {
    let mut fields = Vec::new();
    for (name, unit) in names.iter().filter(|_| correct) {
        let (value, got_unit) = metrics
            .0
            .get(*name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        ensure(got_unit == unit, || {
            format!("metric {name} in {got_unit}, expected {unit}")
        })?;
        ensure(value.is_finite(), || format!("metric {name} is {value}"))?;
        fields.push(format!(
            r#""{name}": {{"value": {value}, "unit": "{unit}"}}"#
        ));
    }
    Ok(format!(
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{{}}}}}"#,
        fields.join(", ")
    ))
}

struct Cli {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_cli(args: impl IntoIterator<Item = String>) -> Result<Cli, String> {
    let mut it = args.into_iter();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} `{value}`: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<u32>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    ensure(WORKLOADS.contains(&workload.as_str()), || {
        format!("unknown workload `{workload}`; expected one of {WORKLOADS:?}")
    })?;
    Ok(Cli {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: f64::from(seconds.ok_or("--seconds is required")?.max(1)),
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Confines this thread, and with it every thread it starts later, to
/// the lowest-numbered CPU it may run on, and returns that CPU. The
/// closed loops hand every request from a client thread to a daemon
/// thread and back; on one CPU each hand-off is a context switch, while
/// across two it waits for an idle virtual CPU to wake, whose latency
/// follows the other tenants of the host.
#[cfg(target_os = "linux")]
fn pin_to_one_cpu() -> Result<usize, String> {
    // glibc's `cpu_set_t`: 1,024 bits.
    const WORDS: usize = 16;
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; WORDS];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of `size` bytes; pid 0 is the
    // calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..WORDS * 64)
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .ok_or("the CPU mask is empty")?;
    let mut one = [0u64; WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of `size` bytes.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

#[cfg(not(target_os = "linux"))]
fn pin_to_one_cpu() -> Result<usize, String> {
    Err("CPU affinity is only set on Linux".to_owned())
}

/// Removes the run's scratch directory however the run ends.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn scratch_dir(root: &Path) -> PathBuf {
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.subsec_nanos());
    root.join(format!("run-{}-{nanos}", std::process::id()))
}

fn main() -> ExitCode {
    let cli = match parse_cli(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("twl-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Before any thread starts, so that every daemon thread inherits it.
    if let Err(e) = pin_to_one_cpu() {
        eprintln!("twl-perfbench: running unpinned: {e}");
    }
    let scratch = ScratchDir(scratch_dir(Path::new(".perfbench-tmp")));
    let args = RunArgs {
        seed: cli.seed,
        seconds: cli.seconds,
        scale: Scale::Full,
        scratch: scratch.0.clone(),
    };
    // The sessions of `nbd-durable` run no adapters: its traced figures
    // come from an untimed replica of the capture after the one pass.
    let one_pass = SELF_TRACED.contains(&cli.workload.as_str());
    let (mut untraced, mut traced) = (Outcome::default(), Outcome::default());
    let result = (|| {
        run_workload(&cli.workload, &args, cli.trace && one_pass, &mut untraced)?;
        let (metrics, names) = if !cli.trace {
            (end_to_end(&untraced)?, END_TO_END)
        } else if one_pass {
            (per_layer(&cli.workload, &args, &untraced, None)?, PER_LAYER)
        } else {
            let traced_args = RunArgs {
                scratch: args.scratch.join("traced"),
                ..args.clone()
            };
            run_workload(&cli.workload, &traced_args, true, &mut traced)?;
            (
                per_layer(&cli.workload, &args, &untraced, Some(&traced))?,
                PER_LAYER,
            )
        };
        result_line(true, untraced.attempted, untraced.failed(), &metrics, names)
    })();
    drop(scratch);
    let _ = std::fs::remove_dir(".perfbench-tmp");
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("twl-perfbench: {}: {e}", cli.workload);
            // A failure before the first operation (a daemon that cannot
            // start, say) counts as one failed operation.
            let attempted = untraced.attempted + traced.attempted;
            let failed = untraced.failed() + traced.failed();
            let (attempted, failed) = if attempted == 0 {
                (1, 1)
            } else {
                (attempted, failed)
            };
            let line = result_line(false, attempted, failed, &Metrics::default(), &[])
                .expect("a line without metrics always renders");
            println!("{line}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root names exactly the
    /// workloads and metrics this program runs and prints.
    #[test]
    fn benchmark_json_matches_the_program() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let doc = twl_telemetry::json::Json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(|v| v.as_arr())
                .expect("list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap_or("");
                    (field("name").to_owned(), field("unit").to_owned())
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(END_TO_END));
        assert_eq!(names("per_layer"), own(PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(
            workloads,
            WORKLOADS
                .iter()
                .map(|w| (*w).to_owned())
                .collect::<Vec<_>>()
        );
    }

    /// Run on a thread of its own, so no other test is pinned with it.
    #[cfg(target_os = "linux")]
    #[test]
    fn pinning_leaves_one_allowed_cpu() {
        let allowed = |status: &str| -> String {
            status
                .lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                .expect("Cpus_allowed_list in the thread's status")
                .trim()
                .to_owned()
        };
        let status = || std::fs::read_to_string("/proc/thread-self/status").unwrap();
        let before = allowed(&status());
        let cpu = std::thread::spawn(move || {
            let cpu = pin_to_one_cpu().unwrap();
            assert_eq!(allowed(&status()), cpu.to_string());
            cpu
        })
        .join()
        .unwrap();
        let first = before
            .split([',', '-'])
            .next()
            .and_then(|c| c.parse::<usize>().ok());
        assert_eq!(first, Some(cpu), "lowest of {before}");
    }

    #[test]
    fn cli_requires_every_flag_and_rejects_unknown_ones() {
        let argv = |s: &str| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
        let ok = parse_cli(argv(
            "--workload nbd-durable --seed 3 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!((ok.seed, ok.seconds, ok.trace), (3, 10.0, true));
        assert!(parse_cli(argv("--workload nbd-durable --seed 3 --seconds 10")).is_err());
        assert!(parse_cli(argv("--workload nope --seed 3 --seconds 10 --trace 0")).is_err());
        assert!(parse_cli(argv(
            "--workload nbd-durable --seed 3 --seconds 10 --trace 2"
        ))
        .is_err());
        assert!(parse_cli(argv("--bogus 1")).is_err());
    }

    #[test]
    fn result_line_keeps_exactly_the_named_metrics() {
        let mut m = Metrics::default();
        m.put("wall_s", 1.25, "s");
        m.put("extra", 2.0, "s");
        let line = result_line(true, 4, 0, &m, &[("wall_s", "s")]).unwrap();
        assert_eq!(
            line,
            r#"{"correct": true, "attempted": 4, "failed": 0, "metrics": {"wall_s": {"value": 1.25, "unit": "s"}}}"#
        );
        assert!(result_line(true, 4, 0, &m, &[("missing", "s")]).is_err());
        assert!(result_line(true, 4, 0, &m, &[("wall_s", "ms")]).is_err());
        assert_eq!(
            result_line(false, 7, 1, &m, &[("wall_s", "s")]).unwrap(),
            r#"{"correct": false, "attempted": 7, "failed": 1, "metrics": {}}"#
        );
    }

    #[test]
    fn wall_takes_every_part_at_its_fastest() {
        let mut out = Outcome {
            rounds: 2,
            ..Outcome::default()
        };
        // Round 0, then round 1: part `a` once per round, `b` twice.
        for (part, secs) in [
            ("a", 3.0),
            ("b", 1.0),
            ("b", 2.0),
            ("a", 5.0),
            ("b", 4.0),
            ("b", 1.5),
        ] {
            out.time_part(part, secs);
        }
        assert_eq!(out.wall_s(), 3.0 + 2.0 * 1.0);
        out.attempted = 5;
        out.completed = 4;
        assert_eq!(out.failed(), 1);
    }

    /// Every workload at tiny geometry, untraced and traced, with all
    /// of its checks on. One test, so the process-global telemetry
    /// pipeline is never shared between concurrently running passes.
    #[test]
    fn smoke_every_workload() {
        let root = Path::new(".perfbench-tmp").join(format!("smoke-{}", std::process::id()));
        for workload in WORKLOADS {
            let args = RunArgs {
                seed: 11,
                seconds: 0.0,
                scale: Scale::Smoke,
                scratch: root.join(workload),
            };
            let mut untraced = Outcome::default();
            run_workload(workload, &args, false, &mut untraced).unwrap();
            assert!(untraced.attempted > 0, "{workload}");
            assert_eq!(untraced.failed(), 0, "{workload}");
            let e2e = end_to_end(&untraced).unwrap();
            result_line(true, untraced.attempted, 0, &e2e, END_TO_END).unwrap();
            let traced_args = RunArgs {
                scratch: args.scratch.join("traced"),
                ..args.clone()
            };
            let mut traced = Outcome::default();
            run_workload(workload, &traced_args, true, &mut traced).unwrap();
            assert_eq!(traced.reports, untraced.reports, "{workload}");
            let layers = if SELF_TRACED.contains(workload) {
                per_layer(workload, &args, &traced, None)
            } else {
                per_layer(workload, &args, &untraced, Some(&traced))
            }
            .unwrap();
            result_line(true, untraced.attempted, 0, &layers, PER_LAYER).unwrap();
        }
        let _ = std::fs::remove_dir_all(&root);
        let _ = std::fs::remove_dir(".perfbench-tmp");
    }
}
