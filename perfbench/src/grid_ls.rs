//! `grid-ls`: Landy–Szalay DD/DR/RR pair counts through the grid front
//! end.
//!
//! Chosen because the spatial front end does the work here: geometry
//! fit, binning, cell-pair culling, population-class planning under
//! clustering skew, and packed self and cross launches into histogram
//! sinks. It bypasses count sinks and the dense all-pairs kernel.

use crate::report::{derive_seed, peak_rss_mb, Outcome};
use crate::stats::median;
use crate::trace::{self_time_by_name, unattributed_frac, Tracer};
use crate::{common_metrics, SETUP_REPEATS};
use gpu_sim::{Device, DeviceConfig, SimError};
use std::time::Instant;
use tbs_apps::gridded::planned_packed_launches;
use tbs_apps::{
    estimate_packed_launches, gridded_cross_radial_histogram, gridded_radial_histogram,
    ls_pair_counts, GriddedCatalog, GriddedRun, PairwisePlan,
};
use tbs_bench::experiments::ext_ls::{BOX, CENTERS, R_MAX, SIGMA};
use tbs_core::distance::{DistanceKernel, Euclidean};
use tbs_core::grid::{
    candidate_cross_pairs, candidate_pairs, GridGeometry, GridOptions, RadialBins, UniformGrid,
};
use tbs_core::histogram::Histogram;
use tbs_core::point::SoaPoints;

pub const BINS: u32 = 16;
pub const BLOCK: u32 = 256;

/// Catalog sizes (data, randoms).
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub nd: usize,
    pub nr: usize,
}

pub const FULL: Sizes = Sizes {
    nd: 65_536,
    nr: 65_536,
};

#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    /// Gaussian blobs in the `ext_ls` layout.
    pub data: SoaPoints<3>,
    /// Uniform randoms over the same box.
    pub rand: SoaPoints<3>,
    pub bins: RadialBins,
}

pub fn inputs(sizes: Sizes, seed: u64) -> Inputs {
    Inputs {
        data: tbs_datagen::gaussian_blobs(
            sizes.nd,
            BOX,
            &CENTERS,
            &[SIGMA; 4],
            derive_seed(seed, 1),
        ),
        rand: tbs_datagen::uniform_points(sizes.nr, BOX, derive_seed(seed, 2)),
        bins: RadialBins::new(BINS, R_MAX),
    }
}

/// Logical pairs of DD (unordered), DR (ordered) and RR (unordered).
fn pairs_per_pass(inp: &Inputs) -> f64 {
    let (nd, nr) = (inp.data.len() as f64, inp.rand.len() as f64);
    nd * (nd - 1.0) / 2.0 + nd * nr + nr * (nr - 1.0) / 2.0
}

#[derive(Debug, Clone, PartialEq)]
pub struct Oracle {
    pub dd: Histogram,
    pub dr: Histogram,
    pub rr: Histogram,
}

/// `grid_radial_reference` of D and R gives DD and RR. The bipartite DR
/// follows from the union identity: the self pairs of D ∪ R are exactly
/// the DD, DR and RR pairs, so `DR = ref(D ∪ R) − DD − RR`, bin for bin.
pub fn oracle(inp: &Inputs) -> Oracle {
    let opts = GridOptions::default();
    let mut union = inp.data.clone();
    for p in inp.rand.iter() {
        union.push(p);
    }
    let (all, (dd, rr)) = std::thread::scope(|s| {
        let all = s.spawn(|| tbs_cpu::grid_radial_reference(&union, inp.bins, &opts));
        let dd = tbs_cpu::grid_radial_reference(&inp.data, inp.bins, &opts);
        let rr = tbs_cpu::grid_radial_reference(&inp.rand, inp.bins, &opts);
        (all.join().expect("union oracle thread"), (dd, rr))
    });
    let dr = all
        .counts()
        .iter()
        .zip(dd.counts())
        .zip(rr.counts())
        .map(|((&a, &d), &r)| {
            a.checked_sub(d)
                .and_then(|x| x.checked_sub(r))
                .expect("union holds at least the DD and RR pairs of every bin")
        })
        .collect();
    Oracle {
        dd,
        dr: Histogram::from_counts(dr),
        rr,
    }
}

/// Outputs and launch profiles of one pass.
#[derive(Debug, Clone)]
pub struct PassOut {
    pub dd: Histogram,
    pub dr: Histogram,
    pub rr: Histogram,
    /// DD, DR and RR sweeps.
    pub runs: [GriddedRun; 3],
}

impl PassOut {
    pub fn sim_s(&self) -> f64 {
        self.runs[0].seconds + self.runs[1].seconds + self.runs[2].seconds
    }

    pub fn matches(&self, o: &Oracle) -> bool {
        self.dd == o.dd && self.dr == o.dr && self.rr == o.rr
    }
}

fn plan() -> PairwisePlan {
    PairwisePlan::register_shm(BLOCK)
}

/// One pass through the public `ls_pair_counts` call.
pub fn pass(dev: &mut Device, inp: &Inputs) -> Result<PassOut, SimError> {
    let c = ls_pair_counts(
        dev,
        &inp.data,
        &inp.rand,
        inp.bins,
        plan(),
        &GridOptions::default(),
    )?;
    Ok(PassOut {
        dd: c.dd,
        dr: c.dr,
        rr: c.rr,
        runs: [c.dd_run, c.dr_run, c.rr_run],
    })
}

/// `ls_pair_counts` replayed as its steps, each inside a span.
pub fn traced_pass(dev: &mut Device, inp: &Inputs, tr: &mut Tracer) -> Result<PassOut, SimError> {
    let root = tr.enter("grid_ls.pass", None);
    let out = (|| {
        let opts = GridOptions::default();
        let geom = tr.span("core.grid.fit", || {
            GridGeometry::fit(&[&inp.data, &inp.rand], inp.bins.r_max, &opts)
        });
        let dcat = tr.span("apps.gridded.catalog_build", || {
            GriddedCatalog::build(dev, geom.clone(), &inp.data)
        });
        let rcat = tr.span("apps.gridded.catalog_build", || {
            GriddedCatalog::build(dev, geom, &inp.rand)
        });
        let dd = tr.span("apps.gridded.dd_sweep", || {
            gridded_radial_histogram(dev, &dcat, inp.bins, plan())
        })?;
        let dr = tr.span("apps.gridded.dr_sweep", || {
            gridded_cross_radial_histogram(dev, &dcat, &rcat, inp.bins, plan())
        })?;
        let rr = tr.span("apps.gridded.rr_sweep", || {
            gridded_radial_histogram(dev, &rcat, inp.bins, plan())
        })?;
        Ok(PassOut {
            dd: dd.histogram,
            dr: dr.histogram,
            rr: rr.histogram,
            runs: [dd.run, dr.run, rr.run],
        })
    })();
    tr.exit(root);
    out
}

/// Front-end steps that `GriddedCatalog::build` and the sweeps run
/// internally, timed as standalone calls: binning, cell-pair
/// enumeration and population-class planning. Returns the planned
/// packed launches of the DD and RR sweeps.
fn probe_front_end(inp: &Inputs, tr: &mut Tracer) -> u64 {
    let root = tr.enter("grid_ls.probe", None);
    let geom = GridGeometry::fit(
        &[&inp.data, &inp.rand],
        inp.bins.r_max,
        &GridOptions::default(),
    );
    let (dgrid, rgrid) = tr.span("core.grid.bin", || {
        (
            UniformGrid::bin(geom.clone(), &inp.data),
            UniformGrid::bin(geom.clone(), &inp.rand),
        )
    });
    let (dd, rr) = tr.span("core.grid.enumerate", || {
        let dd = candidate_pairs(&dgrid);
        let rr = candidate_pairs(&rgrid);
        std::hint::black_box(candidate_cross_pairs(&dgrid, &rgrid));
        (dd, rr)
    });
    // Planning needs device catalogs; build them outside the span.
    let mut dev = Device::new(DeviceConfig::titan_x());
    let dcat = GriddedCatalog::build(&mut dev, geom.clone(), &inp.data);
    let rcat = GriddedCatalog::build(&mut dev, geom, &inp.rand);
    let cost = <Euclidean as DistanceKernel<3>>::cost(&Euclidean);
    let buckets = Some(inp.bins.device_spec().buckets);
    let planned = tr.span("apps.gridded.plan", || {
        planned_packed_launches(&dev, &dcat, &dd, 3, cost, buckets)
            + planned_packed_launches(&dev, &rcat, &rr, 3, cost, buckets)
    });
    tr.exit(root);
    planned
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
        data: inp.data.slice(0..inp.data.len() / 4),
        rand: inp.rand.slice(0..inp.rand.len() / 4),
        bins: inp.bins,
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
            "grid-ls: {} passes, pass p50 {:.3} s, oracle {:.2} s (excluded)",
            passes.len(),
            median(&passes),
            oracle_s
        ));
        return out;
    }

    let (mut plain, mut with_trace) = (Vec::new(), Vec::new());
    let mut last = None;
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
        last = check(&mut out, res, &oracle).or(last);
    }
    let pass_spans = tr.spans().len();
    let planned = probe_front_end(&inp, tr);
    let selfs = self_time_by_name(tr.spans());
    let passes = with_trace.len() as f64;
    for name in [
        "core.grid.fit",
        "apps.gridded.catalog_build",
        "apps.gridded.dd_sweep",
        "apps.gridded.dr_sweep",
        "apps.gridded.rr_sweep",
    ] {
        out.metric(
            &format!("{name}_s"),
            selfs.get(name).copied().unwrap_or(0.0) / passes,
            "s",
        );
    }
    for name in ["core.grid.bin", "core.grid.enumerate", "apps.gridded.plan"] {
        out.metric(
            &format!("{name}_s"),
            selfs.get(name).copied().unwrap_or(0.0),
            "s",
        );
    }
    out.metric(
        "apps.gridded.planned_packed_launches",
        planned as f64,
        "count",
    );
    if let Some(p) = last {
        let sum = |f: fn(&GriddedRun) -> u64| p.runs.iter().map(f).sum::<u64>() as f64;
        let candidates = sum(|r| r.stats.candidate_point_pairs);
        let launches = sum(|r| r.packed_launches as u64);
        let in_range = (p.dd.total() + p.dr.total() + p.rr.total()) as f64;
        out.metric("core.grid.cell_pairs", sum(|r| r.stats.cell_pairs), "count");
        out.metric(
            "core.grid.pruned_pair_fraction",
            1.0 - candidates / sum(|r| r.stats.total_point_pairs),
            "fraction",
        );
        out.metric("apps.gridded.packed_launches", launches, "count");
        out.metric(
            "apps.gridded.population_classes",
            sum(|r| r.population_classes as u64),
            "count",
        );
        out.metric(
            "apps.gridded.useful_pair_fraction",
            in_range / candidates,
            "fraction",
        );
        out.metric(
            "core.plan.launch_estimate_ratio",
            sum(|r| estimate_packed_launches(r.stats.cell_pairs)) / launches,
            "ratio",
        );
    }
    out.metric(
        "trace.unattributed_frac",
        unattributed_frac(&tr.spans()[..pass_spans], "grid_ls.pass"),
        "fraction",
    );
    out.metric(
        "trace.overhead_frac",
        median(&with_trace) / median(&plain) - 1.0,
        "fraction",
    );
    out.metric("cpu.grid_radial_s", oracle_s, "s");
    out.note(format!(
        "grid-ls traced: {} plain + {} traced passes; cpu.grid_radial_s is the DD, RR and D∪R \
         reference on 2 threads",
        plain.len(),
        with_trace.len()
    ));
    out
}

fn check(out: &mut Outcome, res: Result<PassOut, SimError>, oracle: &Oracle) -> Option<PassOut> {
    match res {
        Ok(p) if out.ledger.record(p.matches(oracle)) => Some(p),
        Ok(_) => {
            out.note("grid-ls: output differs from the oracle".to_string());
            None
        }
        Err(e) => {
            out.ledger.record(false);
            out.note(format!("grid-ls: simulated fault: {e}"));
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: Sizes = Sizes { nd: 3000, nr: 2000 };

    #[test]
    fn dr_matches_the_union_identity_and_replay_matches_the_call() {
        let inp = inputs(SMALL, 3);
        assert_eq!(inp, inputs(SMALL, 3));
        let o = oracle(&inp);
        assert!(o.dr.total() > 0, "the identity must pin a non-empty DR");
        let mut dev = Device::new(DeviceConfig::titan_x());
        let p = pass(&mut dev, &inp).expect("pass");
        assert!(p.matches(&o));
        let mut tr = Tracer::new(Instant::now());
        let q = traced_pass(&mut Device::new(DeviceConfig::titan_x()), &inp, &mut tr)
            .expect("traced pass");
        assert!(q.matches(&o));
        assert_eq!(p.sim_s().to_bits(), q.sim_s().to_bits());
        assert!(probe_front_end(&inp, &mut tr) > 0);
    }

    #[test]
    fn a_wrong_dr_fails_the_run() {
        let inp = inputs(SMALL, 4);
        let mut wrong = oracle(&inp);
        let mut counts = wrong.dr.counts().to_vec();
        counts[BINS as usize - 1] += 1;
        wrong.dr = Histogram::from_counts(counts);
        let mut out = Outcome::default();
        let mut dev = Device::new(DeviceConfig::titan_x());
        assert!(check(&mut out, pass(&mut dev, &inp), &wrong).is_none());
        assert_eq!(out.exit_code(), 1);
    }
}
