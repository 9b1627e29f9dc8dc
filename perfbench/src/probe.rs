//! Direct timings of public calls that no workload isolates: the bulk
//! RNG draw, the device's single-page write at the in-cache and the
//! paper geometry, and the set-up of TWL_swp on the paper's device.

use std::hint::black_box;
use std::time::Instant;

use twl_pcm::{PcmConfig, PcmDevice, PhysicalPageAddr};
use twl_rng::Xoshiro256StarStar;

use crate::layer::Metrics;
use crate::sweep::build_cell;
use crate::{stats, RunArgs, Scale, DEVICE_SEED};

/// The paper's device (§5.1): 32 GB of 4 KiB pages, µ = 10⁸, σ = 11 %.
const PAPER_PAGES: u64 = 8_388_608;
const PAPER_ENDURANCE: u64 = 100_000_000;

/// Repetitions of each probe; the median is reported.
const REPEATS: usize = 5;

/// Adds `rng.ns_per_u64`, `pcm.write_page_ns.<pages>p` and
/// `build.{device,scheme}_s.8388608p` to `m`.
pub fn direct_calls(args: &RunArgs, m: &mut Metrics) -> Result<(), String> {
    let draws: usize = match args.scale {
        Scale::Full => 1 << 24,
        Scale::Smoke => 1 << 16,
    };
    m.put("rng.ns_per_u64", rng_ns_per_u64(args.seed, draws), "ns");
    for (pages, name) in [
        (4096, "pcm.write_page_ns.4096p"),
        (PAPER_PAGES, "pcm.write_page_ns.8388608p"),
    ] {
        m.put(name, write_page_ns(args.seed, pages, draws / 4), "ns");
    }
    // Endurance sampling and SWP pairing over 8.4 M pages: the set-up a
    // paper-scale run pays before its first write, and ≈ 0.6 GB.
    let pcm = PcmConfig::scaled(PAPER_PAGES, PAPER_ENDURANCE, DEVICE_SEED);
    let cell = build_cell(&pcm, "TWL_swp", "random", args.seed)?;
    m.put("build.device_s.8388608p", cell.device_s, "s");
    m.put("build.scheme_s.8388608p", cell.scheme_s, "s");
    Ok(())
}

/// Median ns per value of `Xoshiro256StarStar::fill_u64` over `draws`
/// values drawn in 4096-value blocks.
fn rng_ns_per_u64(seed: u64, draws: usize) -> f64 {
    let mut rng = Xoshiro256StarStar::seed_from(seed);
    let mut block = vec![0u64; 4096];
    let samples: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..draws / block.len() {
                rng.fill_u64(&mut block);
                black_box(&block);
            }
            t.elapsed().as_nanos() as f64 / draws as f64
        })
        .collect();
    stats::median(&samples)
}

/// Median ns per `PcmDevice::write_page` at uniformly random addresses
/// on a `pages`-page device whose endurance no probe can exhaust.
fn write_page_ns(seed: u64, pages: u64, writes: usize) -> f64 {
    let mut device = PcmDevice::new(&PcmConfig::scaled(pages, 100_000_000, seed));
    let mut addrs = vec![0u64; writes];
    Xoshiro256StarStar::seed_from(seed ^ pages).fill_u64(&mut addrs);
    let addrs: Vec<PhysicalPageAddr> = addrs
        .iter()
        .map(|a| PhysicalPageAddr::new(a % pages))
        .collect();
    let samples: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let t = Instant::now();
            for &a in &addrs {
                device
                    .write_page(a)
                    .expect("probe stays far below endurance");
            }
            t.elapsed().as_nanos() as f64 / writes as f64
        })
        .collect();
    black_box(device.total_writes());
    stats::median(&samples)
}
