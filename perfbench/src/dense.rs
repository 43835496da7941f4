//! `dense`: all-pairs Type-I 2-PCF and Type-II SDH over a uniform box.
//!
//! Chosen because the simulator's launch path does nearly all the work
//! here and the grid and serve layers do none. The two halves take
//! similar host time but use the output stage differently: per-thread
//! register counts read back and summed on the host, against
//! shared-memory atomic scatter into private copies plus a reduction
//! kernel.

use crate::report::{derive_seed, peak_rss_mb, Outcome};
use crate::stats::median;
use crate::trace::{self_time_by_name, unattributed_frac, Tracer};
use crate::{common_metrics, SETUP_REPEATS};
use gpu_sim::{Device, DeviceConfig, ExecMode, KernelRun, SimError};
use std::time::Instant;
use tbs_apps::{launch_pairwise, pcf_gpu, sdh_gpu, PairwisePlan, SdhOutputMode};
use tbs_core::distance::Euclidean;
use tbs_core::histogram::{Histogram, HistogramSpec};
use tbs_core::kernels::{pair_launch, HistogramReduceKernel, PairScope};
use tbs_core::output::{CountWithinRadius, SharedHistogramAction};
use tbs_core::point::SoaPoints;

pub const BOX: f32 = 100.0;
pub const RADIUS: f32 = 25.0;
pub const BUCKETS: u32 = 256;
pub const BLOCK: u32 = 1024;

/// Catalog sizes of the two halves.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub n_pcf: usize,
    pub n_sdh: usize,
}

pub const FULL: Sizes = Sizes {
    n_pcf: 131_072,
    n_sdh: 32_768,
};

#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    pub pcf: SoaPoints<3>,
    pub sdh: SoaPoints<3>,
    pub spec: HistogramSpec,
}

pub fn inputs(sizes: Sizes, seed: u64) -> Inputs {
    Inputs {
        pcf: tbs_datagen::uniform_points(sizes.n_pcf, BOX, derive_seed(seed, 1)),
        sdh: tbs_datagen::uniform_points(sizes.n_sdh, BOX, derive_seed(seed, 2)),
        spec: HistogramSpec::new(BUCKETS, tbs_datagen::box_diagonal(BOX, 3)),
    }
}

/// Unordered pairs one pass resolves.
fn pairs_per_pass(inp: &Inputs) -> f64 {
    let half = |n: usize| (n as f64) * (n as f64 - 1.0) / 2.0;
    half(inp.pcf.len()) + half(inp.sdh.len())
}

#[derive(Debug, Clone, PartialEq)]
pub struct Oracle {
    pub count: u64,
    pub hist: Histogram,
}

/// The `tbs-cpu` answers: the grid-pruned count under the device's
/// `√d² < r` predicate, and the single-threaded reference SDH.
pub fn oracle(inp: &Inputs) -> Oracle {
    std::thread::scope(|s| {
        let count =
            s.spawn(|| tbs_cpu::grid_pcf_device_reference(&inp.pcf, RADIUS, &Default::default()));
        let hist = tbs_cpu::sdh_reference(&inp.sdh, inp.spec);
        Oracle {
            count: count.join().expect("pcf oracle thread"),
            hist,
        }
    })
}

/// Outputs and launch profiles of one pass.
#[derive(Debug, Clone)]
pub struct PassOut {
    pub count: u64,
    pub hist: Histogram,
    /// 2-PCF launch, SDH pairwise launch, histogram reduction.
    pub runs: Vec<KernelRun>,
}

impl PassOut {
    pub fn sim_s(&self) -> f64 {
        self.runs.iter().map(|r| r.timing.seconds).sum()
    }

    pub fn matches(&self, o: &Oracle) -> bool {
        self.count == o.count && self.hist == o.hist
    }
}

fn plan() -> PairwisePlan {
    PairwisePlan::register_shm(BLOCK)
}

/// One pass through the public application calls.
pub fn pass(dev: &mut Device, inp: &Inputs) -> Result<PassOut, SimError> {
    let pcf = pcf_gpu(dev, &inp.pcf, RADIUS, plan())?;
    let sdh = sdh_gpu(dev, &inp.sdh, inp.spec, plan(), SdhOutputMode::Privatized)?;
    Ok(PassOut {
        count: pcf.count,
        hist: sdh.histogram,
        runs: vec![
            pcf.run,
            sdh.pair_run,
            sdh.reduce_run.expect("privatized SDH runs a reduction"),
        ],
    })
}

/// The same pass replayed step by step (`pcf_gpu` and `sdh_gpu` as
/// upload, pairwise launch, reduction launch and host fold), each step
/// inside a span.
pub fn traced_pass(dev: &mut Device, inp: &Inputs, tr: &mut Tracer) -> Result<PassOut, SimError> {
    let root = tr.enter("dense.pass", None);
    let out = (|| {
        let input = tr.span("core.point.upload", || inp.pcf.upload(dev));
        let lc = pair_launch(input.n, BLOCK);
        let out = dev.alloc_u64_zeroed(lc.total_threads() as usize);
        let action = CountWithinRadius {
            radius: RADIUS,
            out,
        };
        let pcf_run = tr.span("gpu_sim.pcf_launch", || {
            launch_pairwise(dev, input, Euclidean, action, plan(), PairScope::HalfPairs)
        })?;
        let count = tr.span("apps.readback", || dev.u64_slice(out).iter().sum::<u64>());

        let input = tr.span("core.point.upload", || inp.sdh.upload(dev));
        let lc = pair_launch(input.n, BLOCK);
        let private = dev.alloc_u32_zeroed((lc.grid_dim * inp.spec.buckets) as usize);
        let action = SharedHistogramAction {
            spec: inp.spec,
            private,
        };
        let pair_run = tr.span("gpu_sim.sdh_launch", || {
            launch_pairwise(dev, input, Euclidean, action, plan(), PairScope::HalfPairs)
        })?;
        let out = dev.alloc_u64_zeroed(inp.spec.buckets as usize);
        let reduce = HistogramReduceKernel {
            private,
            out,
            buckets: inp.spec.buckets,
            copies: lc.grid_dim,
        };
        let reduce_run = tr.span("gpu_sim.reduce_launch", || {
            dev.try_launch(&reduce, reduce.launch_config(256))
        })?;
        let hist = tr.span("apps.readback", || {
            Histogram::from_counts(dev.u64_slice(out).to_vec())
        });
        Ok(PassOut {
            count,
            hist,
            runs: vec![pcf_run, pair_run, reduce_run],
        })
    })();
    tr.exit(root);
    out
}

/// Modelled device counters of a set of launches. A change that only
/// makes the host faster leaves every one of them identical.
pub fn sim_counters(
    runs: &[KernelRun],
    sector_bytes: u32,
) -> Vec<(&'static str, f64, &'static str)> {
    let sum = |f: fn(&KernelRun) -> u64| runs.iter().map(f).sum::<u64>() as f64;
    let sim: f64 = runs.iter().map(|r| r.timing.seconds).sum();
    let l2_hits = sum(|r| r.tally.l2_hit_sectors);
    let sectors = sum(|r| r.tally.global_sectors());
    let occupancy = runs
        .iter()
        .map(|r| r.occupancy.occupancy * r.timing.seconds)
        .sum::<f64>()
        / sim;
    vec![
        (
            "gpu_sim.dram_bytes",
            sum(|r| r.tally.dram_sectors) * sector_bytes as f64,
            "bytes",
        ),
        ("gpu_sim.l2_hit_rate", l2_hits / sectors, "fraction"),
        (
            "gpu_sim.shared_atomic_serial",
            sum(|r| r.tally.shared_atomic_serial),
            "count",
        ),
        (
            "gpu_sim.shared_bank_replays",
            sum(|r| r.tally.shared_bank_replays),
            "count",
        ),
        ("gpu_sim.occupancy", occupancy, "fraction"),
    ]
}

/// Interpreter counters (host-side execution statistics).
fn interp_counters(runs: &[KernelRun]) -> Vec<(&'static str, f64, &'static str)> {
    let mut stats = gpu_sim::InterpStats::default();
    for r in runs {
        stats.merge(&r.interp);
    }
    let useful: u64 = runs.iter().map(|r| r.tally.useful_lane_ops).sum();
    vec![
        (
            "gpu_sim.compiled_coverage",
            stats.compiled_lane_ops as f64 / useful as f64,
            "fraction",
        ),
        ("gpu_sim.memo_hit_rate", stats.memo_hit_rate(), "fraction"),
        ("gpu_sim.dispatches", stats.dispatches as f64, "count"),
        ("gpu_sim.useful_lane_ops", useful as f64, "count"),
    ]
}

pub fn run(sizes: Sizes, seed: u64, seconds: f64, traced: bool, tr: &mut Tracer) -> Outcome {
    let inp = inputs(sizes, seed);
    let t = Instant::now();
    let oracle = oracle(&inp);
    let oracle_s = t.elapsed().as_secs_f64();
    // The workload has no caches to fill: the warm-up pass runs on the
    // first quarter of each catalog, which brings the engine's threads
    // and the allocator to steady state at a sixteenth of a pass's work.
    let warm_inp = Inputs {
        pcf: inp.pcf.slice(0..inp.pcf.len() / 4),
        sdh: inp.sdh.slice(0..inp.sdh.len() / 4),
        spec: inp.spec,
    };
    let warm_oracle = self::oracle(&warm_inp);

    let mut out = Outcome::default();
    let mut setups = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let mut dev = Device::new(DeviceConfig::titan_x());
        let warm = pass(&mut dev, &warm_inp);
        setups.push(t.elapsed().as_secs_f64());
        check(&mut out, warm, &warm_oracle);
    }
    // Every timed pass runs on a fresh device: device memory is never
    // freed, so one long-lived device would make peak RSS grow with the
    // number of passes the time box admits.
    let fresh = || Device::new(DeviceConfig::titan_x());

    if !traced {
        let mut passes = Vec::new();
        let mut sim = None;
        let t_loop = Instant::now();
        while t_loop.elapsed().as_secs_f64() < seconds || passes.len() < 2 {
            let mut dev = fresh();
            let t = Instant::now();
            let res = pass(&mut dev, &inp);
            passes.push(t.elapsed().as_secs_f64());
            if let Some(p) = check(&mut out, res, &oracle) {
                out.same_sim(&mut sim, p.sim_s());
            }
        }
        let rates: Vec<f64> = passes.iter().map(|s| pairs_per_pass(&inp) / s).collect();
        let loop_s = t_loop.elapsed().as_secs_f64();
        common_metrics(&mut out, &setups, &passes, loop_s, peak_rss_mb());
        out.metric("pairs_per_s", median(&rates), "1/s");
        out.metric("sim_s", sim.unwrap_or(0.0), "s");
        out.note(format!(
            "dense: {} passes, pass p50 {:.3} s, oracle {:.2} s (excluded)",
            passes.len(),
            median(&passes),
            oracle_s
        ));
        return out;
    }

    // Traced run: alternate plain and traced passes to measure tracing
    // overhead; per-layer self times come from the traced passes.
    let (mut plain, mut with_trace) = (Vec::new(), Vec::new());
    let mut runs = Vec::new();
    let t_loop = Instant::now();
    while t_loop.elapsed().as_secs_f64() < seconds || with_trace.len() < 2 {
        let mut dev = fresh();
        let t = Instant::now();
        let res = pass(&mut dev, &inp);
        plain.push(t.elapsed().as_secs_f64());
        check(&mut out, res, &oracle);
        let mut dev = fresh();
        let t = Instant::now();
        let res = traced_pass(&mut dev, &inp, tr);
        with_trace.push(t.elapsed().as_secs_f64());
        if let Some(p) = check(&mut out, res, &oracle) {
            runs = p.runs;
        }
    }
    let passes = with_trace.len() as f64;
    let selfs = self_time_by_name(tr.spans());
    let per_pass = |name: &str| selfs.get(name).copied().unwrap_or(0.0) / passes;
    for name in [
        "core.point.upload",
        "gpu_sim.pcf_launch",
        "gpu_sim.sdh_launch",
        "gpu_sim.reduce_launch",
        "apps.readback",
    ] {
        out.metric(&format!("{name}_s"), per_pass(name), "s");
    }
    let launch_s = per_pass("gpu_sim.pcf_launch")
        + per_pass("gpu_sim.sdh_launch")
        + per_pass("gpu_sim.reduce_launch");
    if !runs.is_empty() {
        for (name, v, unit) in sim_counters(&runs, DeviceConfig::titan_x().sector_bytes) {
            out.metric(name, v, unit);
        }
        for (name, v, unit) in interp_counters(&runs) {
            out.metric(name, v, unit);
        }
        let useful: u64 = runs.iter().map(|r| r.tally.useful_lane_ops).sum();
        out.metric("gpu_sim.lane_ops_per_s", useful as f64 / launch_s, "1/s");
    }
    out.metric(
        "trace.unattributed_frac",
        unattributed_frac(tr.spans(), "dense.pass"),
        "fraction",
    );
    out.metric(
        "trace.overhead_frac",
        median(&with_trace) / median(&plain) - 1.0,
        "fraction",
    );

    // Sequential over parallel host time for the same compiled-route
    // launches.
    let mut seq = Device::new(DeviceConfig::titan_x().with_exec_mode(ExecMode::Sequential));
    let t = Instant::now();
    let res = pass(&mut seq, &inp);
    let seq_s = t.elapsed().as_secs_f64();
    check(&mut out, res, &oracle);
    out.metric("gpu_sim.parallel_speedup", seq_s / median(&plain), "ratio");

    // Plain-host reference on the same inputs at `nproc` threads. The
    // parallel 2-PCF uses the sqrt-free `d² < r²` compare, so only its
    // time is reported.
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let sched = tbs_cpu::Schedule::dynamic_default();
    let t = Instant::now();
    std::hint::black_box(tbs_cpu::pcf_parallel(&inp.pcf, RADIUS, threads, sched));
    out.metric("cpu.pcf_parallel_s", t.elapsed().as_secs_f64(), "s");
    let t = Instant::now();
    let cfg = tbs_cpu::CpuSdhConfig {
        threads,
        schedule: sched,
    };
    let hist = tbs_cpu::sdh_parallel(&inp.sdh, inp.spec, cfg);
    out.metric("cpu.sdh_parallel_s", t.elapsed().as_secs_f64(), "s");
    out.ledger.record(hist == oracle.hist);

    out.note(format!(
        "dense traced: {} plain + {} traced passes, sequential pass {:.3} s, {} threads",
        plain.len(),
        with_trace.len(),
        seq_s,
        threads
    ));
    out
}

/// Record one operation against the oracle; returns its output if it
/// succeeded and matched.
fn check(out: &mut Outcome, res: Result<PassOut, SimError>, oracle: &Oracle) -> Option<PassOut> {
    match res {
        Ok(p) if out.ledger.record(p.matches(oracle)) => Some(p),
        Ok(_) => {
            out.note("dense: output differs from the oracle".to_string());
            None
        }
        Err(e) => {
            out.ledger.record(false);
            out.note(format!("dense: simulated fault: {e}"));
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: Sizes = Sizes {
        n_pcf: 3000,
        n_sdh: 1500,
    };

    #[test]
    fn same_seed_gives_identical_inputs_sim_time_and_counters() {
        let (a, b) = (inputs(SMALL, 5), inputs(SMALL, 5));
        assert_eq!(a, b);
        assert_ne!(a, inputs(SMALL, 6));
        let mut d1 = Device::new(DeviceConfig::titan_x());
        let mut d2 = Device::new(DeviceConfig::titan_x());
        let p1 = pass(&mut d1, &a).expect("pass");
        let mut tr = Tracer::new(Instant::now());
        let p2 = traced_pass(&mut d2, &b, &mut tr).expect("traced pass");
        assert_eq!(p1.sim_s().to_bits(), p2.sim_s().to_bits());
        let counters = |p: &PassOut| {
            sim_counters(&p.runs, 32)
                .into_iter()
                .map(|(n, v, _)| (n, v.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(counters(&p1), counters(&p2));
        assert_eq!((p1.count, &p1.hist), (p2.count, &p2.hist));
        let o = oracle(&a);
        assert!(p1.matches(&o) && p2.matches(&o));
    }

    #[test]
    fn an_oracle_mismatch_fails_the_run() {
        let inp = inputs(SMALL, 9);
        let mut wrong = oracle(&inp);
        wrong.count += 1;
        let mut dev = Device::new(DeviceConfig::titan_x());
        let mut out = Outcome::default();
        assert!(check(&mut out, pass(&mut dev, &inp), &wrong).is_none());
        assert_eq!((out.ledger.attempted, out.ledger.failed), (1, 1));
        assert_eq!(out.exit_code(), 1);
        assert!(out.result_line().starts_with("{\"correct\": false"));
    }
}
