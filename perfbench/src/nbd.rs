//! `nbd-durable`: one NBD client in a closed loop against a small
//! `twl-blockd` export with a state directory, until the capture
//! outgrows the image; then a clean shutdown, a revive from the state
//! directory, and a read-back of the whole export.

use std::fs;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::Instant;

use twl_attacks::AttackStream;
use twl_blockdev::{
    BlockServer, BlockStore, BlockdevConfig, GatewayConfig, NbdClient, WearGateway,
};
use twl_faults::{provision, FaultConfig};
use twl_lifetime::build_scheme_spec_for_region;
use twl_pcm::PcmConfig;
use twl_rng::{SimRng, Xoshiro256StarStar};
use twl_wl_core::WearLeveler;
use twl_workloads::{read_trace, write_trace, MemCmd, WorkloadSpec};

use crate::layer::{CallTimer, Metrics, SimLayers, TracedScheme, TracedStream};
use crate::{ensure, fresh_dir, rounds, stats, Check, Outcome, RunArgs, DEVICE_SEED};

/// Bytes per simulated page, and per NBD sector.
const PAGE: u64 = 4096;
const SECTOR: u64 = 512;
/// Bytes one captured page write takes in `capture.trace`.
const CAPTURE_RECORD: u64 = 9;
/// A FLUSH after every this many requests: the share of FLUSHes in
/// `twl_blockdev::client::drive_mixed` (one in ten), at fixed places.
const FLUSH_EVERY: u64 = 128;
/// Longest READ/WRITE/TRIM, in sectors, as in `drive_mixed`.
const MAX_SECTORS: u64 = 8;
/// Requests per timed part of a session: a few milliseconds, so that
/// the fastest repeat of each part finds the host's fast spells at many
/// places in the run (README, "Method").
const SEGMENT: u64 = 100;
/// Replicas of the final capture a traced run makes, with and without
/// the layer adapters each.
const REPLICAS: usize = 5;
/// Largest READ of the read-back pass.
const READBACK_CHUNK: u64 = 64 * 1024;

/// The client's model of the export: the bytes every acknowledged
/// request leaves behind, and the page writes the server must capture.
#[derive(Debug, Clone, PartialEq)]
pub struct Shadow {
    bytes: Vec<u8>,
    /// Page writes the acknowledged WRITEs imply.
    pub page_writes: u64,
    /// Payload bytes the acknowledged WRITEs carried.
    pub bytes_written: u64,
}

impl Shadow {
    pub fn new(len: u64) -> Self {
        Self {
            bytes: vec![0; usize::try_from(len).expect("export fits in memory")],
            page_writes: 0,
            bytes_written: 0,
        }
    }

    fn range(offset: u64, len: u64) -> std::ops::Range<usize> {
        let start = usize::try_from(offset).expect("offset fits");
        start..start + usize::try_from(len).expect("length fits")
    }

    /// Applies an acknowledged WRITE.
    pub fn write(&mut self, offset: u64, data: &[u8]) {
        self.bytes[Self::range(offset, data.len() as u64)].copy_from_slice(data);
        self.page_writes += pages_touched(offset, data.len() as u64);
        self.bytes_written += data.len() as u64;
    }

    /// Applies an acknowledged TRIM: the range reads back as zeros.
    pub fn trim(&mut self, offset: u64, len: u64) {
        self.bytes[Self::range(offset, len)].fill(0);
    }

    /// What a READ of the range must return.
    pub fn read(&self, offset: u64, len: u64) -> &[u8] {
        &self.bytes[Self::range(offset, len)]
    }
}

/// Pages a request of `len > 0` bytes at `offset` touches.
pub fn pages_touched(offset: u64, len: u64) -> u64 {
    (offset + len - 1) / PAGE - offset / PAGE + 1
}

/// One request of the closed loop.
#[derive(Debug, Clone, PartialEq)]
enum Op {
    Read { offset: u64, len: u64 },
    Write { offset: u64, data: Vec<u8> },
    Trim { offset: u64, len: u64 },
    Flush,
}

/// The seeded request generator. Between FLUSHes it draws the mix of
/// `twl_blockdev::client::drive_mixed`, the repository's own NBD traffic
/// generator: WRITE, READ and TRIM in the ratio 5 : 3 : 1, sector-aligned,
/// 1–8 sectors long. Where `drive_mixed` draws a FLUSH one time in ten,
/// this one issues it after every [`FLUSH_EVERY`] requests, so every
/// session flushes at the same places.
struct OpStream {
    rng: Xoshiro256StarStar,
    sectors: u64,
    issued: u64,
}

impl OpStream {
    fn new(seed: u64, export_bytes: u64) -> Self {
        Self {
            rng: Xoshiro256StarStar::seed_from(seed),
            sectors: export_bytes / SECTOR,
            issued: 0,
        }
    }

    fn next_op(&mut self) -> Op {
        self.issued += 1;
        if self.issued.is_multiple_of(FLUSH_EVERY) {
            return Op::Flush;
        }
        let kind = self.rng.next_bounded(9);
        let sector = self.rng.next_bounded(self.sectors);
        let len = (self
            .rng
            .next_bounded(MAX_SECTORS.min(self.sectors - sector))
            + 1)
            * SECTOR;
        let offset = sector * SECTOR;
        match kind {
            0..=4 => {
                let mut words = vec![0u64; usize::try_from(len / 8).expect("small io")];
                self.rng.fill_u64(&mut words);
                Op::Write {
                    offset,
                    data: words.iter().flat_map(|w| w.to_le_bytes()).collect(),
                }
            }
            5..=7 => Op::Read { offset, len },
            _ => Op::Trim { offset, len },
        }
    }
}

/// The export: 16 pages (64 KiB), at every scale. A session then lasts
/// about a third of a second, so a run repeats each of its parts about
/// fifty times, and its FLUSHes write about 350 MB to disk in a 20 s run.
fn gateway_config() -> GatewayConfig {
    GatewayConfig {
        pages: 16,
        seed: DEVICE_SEED,
        ..GatewayConfig::default()
    }
}

struct Daemon {
    data: SocketAddr,
    control: SocketAddr,
    handle: twl_blockdev::ShutdownHandle,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Daemon {
    fn start(config: &BlockdevConfig) -> Result<Self, String> {
        let server = BlockServer::bind(config, "127.0.0.1:0", "127.0.0.1:0")
            .map_err(|e| format!("cannot start twl-blockd: {e}"))?;
        let (data, control) = (server.data_addr(), server.control_addr());
        let handle = server.shutdown_handle();
        let thread = std::thread::spawn(move || server.run());
        Ok(Self {
            data,
            control,
            handle,
            thread,
        })
    }

    /// Clean shutdown through the control port; returns once the final
    /// persist is done.
    fn stop(self) -> Check {
        let mut control = twl_service::Client::connect(&self.control.to_string())
            .map_err(|e| format!("control connect: {e}"))?;
        control.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        self.thread
            .join()
            .map_err(|_| "twl-blockd panicked".to_owned())?
            .map_err(|e| format!("twl-blockd: {e}"))
    }
}

fn nbd_err(what: &str) -> impl Fn(twl_blockdev::NbdError) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// READ, WRITE and FLUSH latencies, in microseconds.
#[derive(Default)]
struct Latencies {
    read: Vec<f64>,
    write: Vec<f64>,
    flush: Vec<f64>,
}

/// What one session leaves behind for the checks across sessions.
struct Session {
    revive_s: f64,
    shadow: Shadow,
    persisted_bytes: u64,
    probe: String,
}

fn state_bytes(dir: &Path) -> u64 {
    ["store.img", "capture.trace", "meta.json"]
        .iter()
        .filter_map(|f| fs::metadata(dir.join(f)).ok())
        .map(|m| m.len())
        .sum()
}

/// One session on a fresh state directory. Its timed parts are every
/// [`SEGMENT`] requests of the closed loop, the clean shutdown, the
/// revive and the read-back; the capture check between them is untimed.
fn session(
    args: &RunArgs,
    state_dir: PathBuf,
    lat: &mut Latencies,
    out: &mut Outcome,
) -> Result<Session, String> {
    let config = BlockdevConfig {
        gateway: gateway_config(),
        bytes_per_page: PAGE,
        state_dir: Some(fresh_dir(state_dir.clone())?),
        idle_timeout_ms: 0,
    };
    let export = config.geometry().export_bytes();
    let t = Instant::now();
    let daemon = Daemon::start(&config)?;
    let mut client = NbdClient::connect(daemon.data).map_err(nbd_err("connect"))?;
    out.setup_s.push(t.elapsed().as_secs_f64());

    let mut shadow = Shadow::new(export);
    let mut ops = OpStream::new(args.seed, export);
    let mut persisted_bytes = 0u64;
    let mut segment = Instant::now();
    let mut requests = 0u64;
    while shadow.page_writes * CAPTURE_RECORD <= export {
        let op = ops.next_op();
        out.attempted += 1;
        let started = Instant::now();
        match &op {
            Op::Read { offset, len } => {
                let got = client
                    .read(*offset, u32::try_from(*len).expect("small io"))
                    .map_err(nbd_err("READ"))?;
                lat.read.push(started.elapsed().as_secs_f64() * 1e6);
                ensure(got == shadow.read(*offset, *len), || {
                    format!("READ {len} bytes at {offset} differs from the shadow image")
                })?;
            }
            Op::Write { offset, data } => {
                client.write(*offset, data).map_err(nbd_err("WRITE"))?;
                lat.write.push(started.elapsed().as_secs_f64() * 1e6);
                shadow.write(*offset, data);
            }
            Op::Trim { offset, len } => {
                client
                    .trim(*offset, u32::try_from(*len).expect("small io"))
                    .map_err(nbd_err("TRIM"))?;
                shadow.trim(*offset, *len);
            }
            Op::Flush => {
                client.flush().map_err(nbd_err("FLUSH"))?;
                lat.flush.push(started.elapsed().as_secs_f64() * 1e6);
                persisted_bytes += state_bytes(&state_dir);
            }
        }
        out.completed += 1;
        requests += 1;
        if requests.is_multiple_of(SEGMENT) {
            out.time_part(
                format!("requests-{:04}", requests / SEGMENT),
                segment.elapsed().as_secs_f64(),
            );
            segment = Instant::now();
        }
    }
    out.time_part("requests-tail", segment.elapsed().as_secs_f64());
    let t = Instant::now();
    client.disconnect().map_err(nbd_err("disconnect"))?;
    daemon.stop()?;
    out.time_part("shutdown", t.elapsed().as_secs_f64());

    let capture: Vec<MemCmd> = read_trace(
        fs::File::open(state_dir.join("capture.trace")).map_err(|e| format!("capture: {e}"))?,
    )
    .map_err(|e| format!("capture: {e}"))?;
    let captured = capture.iter().filter(|c| c.is_write()).count() as u64;
    ensure(captured == shadow.page_writes, || {
        format!(
            "capture holds {captured} page writes, acknowledged WRITEs touched {} pages",
            shadow.page_writes
        )
    })?;

    let revive = Instant::now();
    let daemon = Daemon::start(&config)?;
    let mut client = NbdClient::connect(daemon.data).map_err(nbd_err("connect after revive"))?;
    let revive_s = revive.elapsed().as_secs_f64();
    out.time_part("revive", revive_s);
    let t = Instant::now();
    let mut offset = 0;
    while offset < export {
        let len = READBACK_CHUNK.min(export - offset);
        out.attempted += 1;
        let got = client
            .read(offset, u32::try_from(len).expect("small io"))
            .map_err(nbd_err("read-back"))?;
        ensure(got == shadow.read(offset, len), || {
            format!("read-back of {len} bytes at {offset} after revive differs from the shadow")
        })?;
        out.completed += 1;
        offset += len;
    }
    client.disconnect().map_err(nbd_err("disconnect"))?;
    out.time_part("read-back", t.elapsed().as_secs_f64());
    let probe = format!("{:?}", daemon.handle.probe());
    daemon.stop()?;
    Ok(Session {
        revive_s,
        shadow,
        persisted_bytes,
        probe,
    })
}

/// `nbd-durable`. Traced, it adds the per-layer figures of an untimed
/// replica of the last session's capture to the latencies the sessions
/// measured; the sessions themselves run the same either way.
pub fn nbd_durable(args: &RunArgs, traced: bool, out: &mut Outcome) -> Check {
    let mut lat = Latencies::default();
    let mut revive_s = Vec::new();
    let mut first: Option<Session> = None;
    let mut last_dir = PathBuf::new();
    rounds(args.seconds, |i| {
        last_dir = args.scratch.join(format!("state-{i}"));
        let s = session(args, last_dir.clone(), &mut lat, out)?;
        out.sim_writes += s.shadow.page_writes;
        out.rounds += 1;
        revive_s.push(s.revive_s);
        match &first {
            None => first = Some(s),
            Some(f) => ensure(s.probe == f.probe && s.shadow == f.shadow, || {
                format!("session {i} differs from session 0 on the same seed")
            })?,
        }
        Ok(())
    })?;
    let first = first.expect("at least one session ran");
    out.reports = vec![first.probe.clone()];
    if traced {
        let mut m = layer_figures(&last_dir)?;
        m.put(
            "flush.write_amplification",
            first.persisted_bytes as f64 / first.shadow.bytes_written as f64,
            "ratio",
        );
        for (name, values, q) in [
            ("nbd.read_p50_us", &lat.read, 0.5),
            ("nbd.read_p99_us", &lat.read, 0.99),
            ("nbd.write_p50_us", &lat.write, 0.5),
            ("nbd.write_p99_us", &lat.write, 0.99),
            ("nbd.flush_p50_us", &lat.flush, 0.5),
        ] {
            m.put(name, stats::quantile(values, q), "us");
        }
        m.put("nbd.revive_s", stats::median(&revive_s), "s");
        out.layers = m;
    }
    Ok(())
}

/// Direct timings of the persistence and replay calls on the state the
/// last session left behind, and the capture replayed through the
/// layer adapters.
fn layer_figures(state_dir: &Path) -> Result<Metrics, String> {
    let gateway = gateway_config();
    let export = gateway.pages * PAGE;
    let io = |e: std::io::Error| e.to_string();
    let mut m = Metrics::default();

    let t = Instant::now();
    let store = BlockStore::load(&state_dir.join("store.img"), export).map_err(io)?;
    m.put("revive.load_s", t.elapsed().as_secs_f64(), "s");
    let capture_path = state_dir.join("capture.trace");
    let cmds = read_trace(fs::File::open(&capture_path).map_err(io)?).map_err(io)?;
    let t = Instant::now();
    let replayed = WearGateway::replay(gateway.clone(), &cmds).map_err(|e| e.to_string())?;
    let replay_s = t.elapsed().as_secs_f64();
    m.put("revive.replay_s", replay_s, "s");
    m.put(
        "gateway.ns_per_page_write",
        replay_s * 1e9 / cmds.len().max(1) as f64,
        "ns",
    );
    let t = Instant::now();
    store
        .persist(&state_dir.join("persist-probe.img"))
        .map_err(io)?;
    m.put("store.persist_ms", t.elapsed().as_secs_f64() * 1e3, "ms");
    let t = Instant::now();
    let mut encoded = Vec::new();
    write_trace(&mut encoded, &cmds).map_err(io)?;
    m.put("capture.encode_ms", t.elapsed().as_secs_f64() * 1e3, "ms");
    m.put("capture.bytes", encoded.len() as f64, "B");

    // The replica without and with the layer adapters, alternately: the
    // same calls, so the ratio of their fastest loops is what tracing
    // costs on this path. The layer figures are the last traced one's.
    let capture_path = capture_path.to_string_lossy();
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut layers = SimLayers::default();
    let mut traced = None;
    for i in 0..REPLICAS {
        let plain = replica(&gateway, &capture_path, cmds.len(), None)?;
        let last = (i + 1 == REPLICAS).then_some(&mut layers);
        let r = replica(&gateway, &capture_path, cmds.len(), last)?;
        for (which, r) in [("untraced", &plain), ("traced", &r)] {
            ensure(r.wear == replayed.wear_counters(), || {
                format!("the {which} replica's wear map differs from WearGateway::replay")
            })?;
        }
        plain_s.push(plain.secs);
        traced_s.push(r.secs);
        traced = Some(r);
    }
    let traced = traced.expect("REPLICAS > 0");
    layers.metrics(&mut m);
    m.put(
        "trace.overhead",
        stats::min(&traced_s) / stats::min(&plain_s) - 1.0,
        "ratio",
    );
    let absorb = &traced.absorb;
    m.put(
        "faults.absorb_ns",
        absorb.busy_ns() / absorb.calls.max(1) as f64,
        "ns",
    );
    m.put("faults.absorb_calls", absorb.calls as f64, "count");
    m.put(
        "faults.writes_per_absorb",
        traced.device_writes as f64 / absorb.calls.max(1) as f64,
        "writes",
    );
    layers.print_breakdown("nbd-durable");
    Ok(m)
}

/// What one replica of a capture left behind.
struct Replica {
    /// Seconds of the write loop.
    secs: f64,
    wear: Vec<u64>,
    device_writes: u64,
    absorb: CallTimer,
}

/// The gateway's write path — scheme write, then fault absorption — fed
/// the capture at `capture_path` as a `TRACE` stream, on a freshly
/// provisioned device. With `layers`, the scheme, the stream and the
/// absorption are timed through the adapters; without, the loop makes
/// the same calls bare.
fn replica(
    gateway: &GatewayConfig,
    capture_path: &str,
    writes: usize,
    layers: Option<&mut SimLayers>,
) -> Result<Replica, String> {
    let t = Instant::now();
    let data_cfg = PcmConfig::scaled(gateway.pages, gateway.mean_endurance, gateway.seed);
    let fault_cfg = FaultConfig {
        spare_fraction: gateway.spare_fraction,
        seed: gateway.fault_seed,
        ..FaultConfig::default()
    };
    let mut domain = provision(&data_cfg, &fault_cfg).map_err(|e| e.to_string())?;
    let device_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut scheme =
        build_scheme_spec_for_region(&gateway.scheme, &domain.device, domain.data_pages)
            .map_err(|e| e.to_string())?;
    let scheme_s = t.elapsed().as_secs_f64();
    let mut stream = WorkloadSpec::trace(capture_path)
        .build(domain.data_pages, 0)
        .map_err(|e| e.to_string())?;
    let mut absorb = CallTimer::default();
    let engine = &mut domain.engine;
    let device = &mut domain.device;
    let write_err = |e| format!("replica write: {e}");
    let absorb_err = |e| format!("replica absorb: {e}");
    let t = Instant::now();
    let secs = match layers {
        None => {
            for _ in 0..writes {
                let la = stream.next_write(None);
                scheme.write(la, device).map_err(write_err)?;
                engine.absorb(device).map_err(absorb_err)?;
            }
            t.elapsed().as_secs_f64()
        }
        Some(layers) => {
            let mut traced_scheme = TracedScheme::new(scheme.as_mut());
            let mut traced_stream = TracedStream::new(&mut stream);
            for _ in 0..writes {
                let la = traced_stream.next_write(None);
                traced_scheme.write(la, device).map_err(write_err)?;
                absorb
                    .time(1, || engine.absorb(device))
                    .map_err(absorb_err)?;
            }
            let secs = t.elapsed().as_secs_f64();
            layers.build_device_s += device_s;
            layers.build_scheme_s += scheme_s;
            layers.add_cell(
                &gateway.scheme.to_string(),
                "nbd-capture",
                &traced_scheme.timer,
                &traced_stream.timer,
                0.0,
                device.total_writes(),
            );
            secs
        }
    };
    Ok(Replica {
        secs,
        wear: device.wear_counters().to_vec(),
        device_writes: device.total_writes(),
        absorb,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_counts_follow_offsets() {
        assert_eq!(pages_touched(0, 512), 1);
        assert_eq!(pages_touched(0, 4096), 1);
        assert_eq!(pages_touched(3584, 1024), 2);
        assert_eq!(pages_touched(4096, 8192), 2);
        assert_eq!(pages_touched(512, 8192), 3);
    }

    #[test]
    fn shadow_tracks_writes_trims_and_page_writes() {
        let mut s = Shadow::new(16 * 1024);
        s.write(4000, &[7u8; 200]);
        assert_eq!(s.page_writes, 2);
        assert_eq!(s.bytes_written, 200);
        assert_eq!(s.read(3999, 3), &[0, 7, 7]);
        s.trim(4096, 512);
        assert_eq!(s.read(4095, 2), &[7, 0]);
        assert_eq!(s.read(4199, 2), &[0, 0]);
        s.write(4100, &[9u8; 4]);
        assert_eq!(s.read(4096, 8), &[0, 0, 0, 0, 9, 9, 9, 9]);
        assert_eq!(s.page_writes, 3);
    }

    #[test]
    fn op_stream_is_seeded_aligned_and_in_range() {
        let export = 64 * PAGE;
        let a: Vec<Op> = {
            let mut ops = OpStream::new(5, export);
            (0..500).map(|_| ops.next_op()).collect()
        };
        let mut ops = OpStream::new(5, export);
        let b: Vec<Op> = (0..500).map(|_| ops.next_op()).collect();
        assert_eq!(a, b);
        for (i, op) in a.iter().enumerate() {
            let (offset, len) = match op {
                Op::Flush => {
                    assert_eq!((i as u64 + 1) % FLUSH_EVERY, 0);
                    continue;
                }
                Op::Read { offset, len } | Op::Trim { offset, len } => (*offset, *len),
                Op::Write { offset, data } => (*offset, data.len() as u64),
            };
            assert_eq!(offset % SECTOR, 0);
            assert!((SECTOR..=MAX_SECTORS * SECTOR).contains(&len) && len % SECTOR == 0);
            assert!(offset + len <= export);
        }
    }
}
