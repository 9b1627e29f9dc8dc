//! Per-layer instrumentation for the traced run.
//!
//! The scheme and the stream are wrapped in adapters that implement the
//! program's own traits and forward every method, so the simulation
//! under them is unchanged (the traced run checks that its reports equal
//! the untraced ones). A single write costs ~100 ns, about what two
//! clock reads cost, so the adapters time every call that carries more
//! than one write and, on average, one in [`SAMPLE`] single-write calls,
//! and scale the sampled time up. The sampled calls are picked by a
//! fixed pseudo-random sequence, not a fixed stride: schemes and streams
//! do periodic work (toss-ups every few writes, RNG buffer refills) whose
//! period a power-of-two stride would alias with.
//!
//! Spans the program already emits (`absorb`, `job.queue_wait`,
//! `job.checkpoint`, `cell.build`, `drive_degraded`) are collected by
//! [`SpanSink`], which keeps them in memory until the run reads them.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use twl_attacks::AttackStream;
use twl_pcm::{LogicalPageAddr, PcmDevice, PcmError, PhysicalPageAddr};
use twl_telemetry::{Sink, TelemetryRecord};
use twl_wl_core::{BatchOutcome, ReadOutcome, WearLeveler, WlStats, WriteOutcome};

/// One single-write call in this many is timed.
pub const SAMPLE: u64 = 64;

/// Call counts and sampled busy time of one layer.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct CallTimer {
    /// Calls made through the adapter.
    pub calls: u64,
    /// Units of work done (writes serviced; run lengths issued).
    pub units: u64,
    timed_ns: f64,
    timed_calls: u64,
    single_calls: u64,
    single_timed: u64,
    single_ns: f64,
    /// State of the xorshift sequence that picks the sampled calls.
    pick: u64,
}

impl CallTimer {
    /// Runs `f`, which does `weight` units of work, timing it when it
    /// carries more than one unit or falls on the sampling stride.
    pub fn time<R>(&mut self, weight: u64, f: impl FnOnce() -> R) -> R {
        self.calls += 1;
        if weight > 1 {
            let t = Instant::now();
            let r = f();
            self.timed_ns += t.elapsed().as_nanos() as f64;
            self.timed_calls += 1;
            return r;
        }
        self.single_calls += 1;
        // xorshift64; the zero state of a fresh timer is replaced by a
        // fixed odd seed, so every run samples the same calls.
        let mut x = if self.pick == 0 {
            0x9E37_79B9_7F4A_7C15
        } else {
            self.pick
        };
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.pick = x;
        if x % SAMPLE != 0 {
            return f();
        }
        let t = Instant::now();
        let r = f();
        self.single_ns += t.elapsed().as_nanos() as f64;
        self.single_timed += 1;
        r
    }

    /// Estimated busy time of every call, in nanoseconds, net of the
    /// clock reads that timed them.
    pub fn busy_ns(&self) -> f64 {
        let clock = clock_overhead_ns();
        let timed = (self.timed_ns - clock * self.timed_calls as f64).max(0.0);
        let singles = if self.single_timed == 0 {
            0.0
        } else {
            let sampled = (self.single_ns - clock * self.single_timed as f64).max(0.0);
            sampled * self.single_calls as f64 / self.single_timed as f64
        };
        timed + singles
    }

    /// Folds another timer into this one.
    pub fn add(&mut self, other: &CallTimer) {
        self.calls += other.calls;
        self.units += other.units;
        self.timed_ns += other.timed_ns;
        self.timed_calls += other.timed_calls;
        self.single_calls += other.single_calls;
        self.single_timed += other.single_timed;
        self.single_ns += other.single_ns;
    }
}

/// What timing an empty section reads, in nanoseconds: the cost of the
/// clock reads inside every measured interval. Median of many tries,
/// measured once per process.
pub fn clock_overhead_ns() -> f64 {
    static OVERHEAD: OnceLock<f64> = OnceLock::new();
    *OVERHEAD.get_or_init(|| {
        let samples: Vec<f64> = (0..20_000)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(());
                t.elapsed().as_nanos() as f64
            })
            .collect();
        crate::stats::median(&samples)
    })
}

/// A [`WearLeveler`] that times the scheme it wraps. `units` counts
/// logical writes serviced.
pub struct TracedScheme<'a> {
    pub inner: &'a mut dyn WearLeveler,
    pub timer: CallTimer,
}

impl<'a> TracedScheme<'a> {
    pub fn new(inner: &'a mut dyn WearLeveler) -> Self {
        Self {
            inner,
            timer: CallTimer::default(),
        }
    }
}

impl WearLeveler for TracedScheme<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn page_count(&self) -> u64 {
        self.inner.page_count()
    }

    fn translate(&self, la: LogicalPageAddr) -> PhysicalPageAddr {
        self.inner.translate(la)
    }

    fn write(
        &mut self,
        la: LogicalPageAddr,
        device: &mut PcmDevice,
    ) -> Result<WriteOutcome, PcmError> {
        let inner = &mut *self.inner;
        let out = self.timer.time(1, || inner.write(la, device));
        self.timer.units += u64::from(out.is_ok());
        out
    }

    fn write_batch(&mut self, la: LogicalPageAddr, n: u64, device: &mut PcmDevice) -> BatchOutcome {
        let inner = &mut *self.inner;
        let out = self.timer.time(n, || inner.write_batch(la, n, device));
        self.timer.units += out.serviced;
        out
    }

    fn write_batch_cap(&self, wear_margin: u64) -> u64 {
        self.inner.write_batch_cap(wear_margin)
    }

    fn read(&mut self, la: LogicalPageAddr, device: &PcmDevice) -> Result<ReadOutcome, PcmError> {
        self.inner.read(la, device)
    }

    fn stats(&self) -> &WlStats {
        self.inner.stats()
    }
}

/// An [`AttackStream`] that times the stream it wraps. `units` counts
/// the writes the stream issued (the sum of run lengths).
pub struct TracedStream<'a> {
    pub inner: &'a mut dyn AttackStream,
    pub timer: CallTimer,
}

impl<'a> TracedStream<'a> {
    pub fn new(inner: &'a mut dyn AttackStream) -> Self {
        Self {
            inner,
            timer: CallTimer::default(),
        }
    }
}

impl AttackStream for TracedStream<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn next_write(&mut self, feedback: Option<&WriteOutcome>) -> LogicalPageAddr {
        let inner = &mut *self.inner;
        let la = self.timer.time(1, || inner.next_write(feedback));
        self.timer.units += 1;
        la
    }

    fn next_run(&mut self, feedback: Option<&WriteOutcome>, max: u64) -> (LogicalPageAddr, u64) {
        // A stream call costs the same for any run length, so every
        // call is sampled at the single-write stride.
        let inner = &mut *self.inner;
        let run = self.timer.time(1, || inner.next_run(feedback, max));
        self.timer.units += run.1;
        run
    }
}

/// Scheme, stream and drive-loop time of a set of traced cells, in
/// total and per scheme and per workload label.
#[derive(Debug, Default)]
pub struct SimLayers {
    pub scheme: CallTimer,
    pub stream: CallTimer,
    /// Wall time of the drive calls that contained them.
    pub drive_ns: f64,
    pub logical_writes: u64,
    pub device_writes: u64,
    pub build_device_s: f64,
    pub build_scheme_s: f64,
    pub by_scheme: BTreeMap<String, (CallTimer, CallTimer)>,
    pub by_workload: BTreeMap<String, (CallTimer, CallTimer)>,
}

impl SimLayers {
    /// Folds one traced cell in.
    pub fn add_cell(
        &mut self,
        scheme_name: &str,
        workload_name: &str,
        scheme: &CallTimer,
        stream: &CallTimer,
        drive_ns: f64,
        device_writes: u64,
    ) {
        self.scheme.add(scheme);
        self.stream.add(stream);
        self.drive_ns += drive_ns;
        self.logical_writes += scheme.units;
        self.device_writes += device_writes;
        for (key, map) in [
            (scheme_name, &mut self.by_scheme),
            (workload_name, &mut self.by_workload),
        ] {
            let entry = map.entry(key.to_owned()).or_default();
            entry.0.add(scheme);
            entry.1.add(stream);
        }
    }

    /// The per-layer metrics these cells give.
    pub fn metrics(&self, out: &mut Metrics) {
        let writes = self.logical_writes.max(1) as f64;
        out.put("scheme.ns_per_write", self.scheme.busy_ns() / writes, "ns");
        out.put("scheme.calls", self.scheme.calls as f64, "count");
        out.put(
            "scheme.mean_run_len",
            self.scheme.units as f64 / self.scheme.calls.max(1) as f64,
            "writes",
        );
        out.put(
            "scheme.device_writes_per_write",
            self.device_writes as f64 / writes,
            "ratio",
        );
        out.put(
            "stream.ns_per_call",
            self.stream.busy_ns() / self.stream.calls.max(1) as f64,
            "ns",
        );
        out.put("stream.calls", self.stream.calls as f64, "count");
        if self.drive_ns > 0.0 {
            let self_ns = self.drive_ns - self.scheme.busy_ns() - self.stream.busy_ns();
            out.put("drive.self_ns_per_write", self_ns / writes, "ns");
        }
        out.put("build.device_s", self.build_device_s, "s");
        out.put("build.scheme_s", self.build_scheme_s, "s");
    }

    /// Prints the per-scheme and per-workload breakdown to stderr.
    pub fn print_breakdown(&self, workload: &str) {
        for (axis, map) in [("scheme", &self.by_scheme), ("workload", &self.by_workload)] {
            for (key, (scheme, stream)) in map {
                eprintln!(
                    "{workload} {axis}={key}: scheme.ns_per_write={:.1} scheme.calls={} \
                     scheme.mean_run_len={:.2} stream.ns_per_call={:.1} stream.calls={}",
                    scheme.busy_ns() / scheme.units.max(1) as f64,
                    scheme.calls,
                    scheme.units as f64 / scheme.calls.max(1) as f64,
                    stream.busy_ns() / stream.calls.max(1) as f64,
                    stream.calls,
                );
            }
        }
    }
}

/// Named metric values with units, in insertion-independent order.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Metrics(pub BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    /// Sets `name`, replacing any earlier value.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_owned(), (value, unit));
    }

    /// Copies every metric of `other` this set does not hold yet.
    pub fn fill_from(&mut self, other: &Metrics) {
        for (k, v) in &other.0 {
            self.0.entry(k.clone()).or_insert(*v);
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|v| v.0)
    }
}

/// One span record, as the program emitted it.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub name: String,
    pub count: u64,
    pub inclusive_us: u64,
}

/// Where [`SpanSink`] keeps its records.
pub type SpanBuffer = Arc<Mutex<Vec<SpanRecord>>>;

/// Keeps span records in memory; every other record kind is dropped.
#[derive(Default)]
pub struct SpanSink {
    spans: SpanBuffer,
}

impl SpanSink {
    /// Installs a fresh sink into the telemetry pipeline and returns the
    /// handle its records land in. [`twl_telemetry::clear_sinks`]
    /// removes it.
    pub fn install() -> SpanBuffer {
        let sink = SpanSink::default();
        let handle = Arc::clone(&sink.spans);
        twl_telemetry::install_sink(sink);
        handle
    }
}

impl Sink for SpanSink {
    fn record(&mut self, record: &TelemetryRecord) {
        if let TelemetryRecord::Span {
            name,
            count,
            inclusive_us,
            ..
        } = record
        {
            self.spans
                .lock()
                .expect("span buffer poisoned")
                .push(SpanRecord {
                    name: name.clone(),
                    count: *count,
                    inclusive_us: *inclusive_us,
                });
        }
    }
}

/// Sum of `count` and of inclusive microseconds over spans named `name`.
pub fn span_totals(spans: &[SpanRecord], name: &str) -> (u64, u64) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0, 0), |(c, us), s| (c + s.count, us + s.inclusive_us))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_calls_are_sampled_and_scaled() {
        let mut t = CallTimer::default();
        for _ in 0..(SAMPLE * 10) {
            t.time(1, || std::hint::black_box(1));
        }
        assert_eq!(t.calls, SAMPLE * 10);
        assert!((3..=30).contains(&t.single_timed), "{}", t.single_timed);
        t.time(5, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        assert!(t.busy_ns() >= 2e6);
    }
}
