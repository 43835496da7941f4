//! The repository benchmark: three oracle-checked workloads with
//! end-to-end metrics, and a separate traced run with per-layer metrics.
//!
//! ```text
//! tbs-perfbench --workload <dense|grid-ls|serve-mix> --seed <n> --seconds <s> --trace <0|1>
//!               [--trace-out <file>]
//! ```
//!
//! Prints human-readable lines, then one JSON result line. Exits 0 only
//! when every operation succeeded and matched its oracle bit for bit.
//! See `README.md` beside this file for the metric → layer → workload
//! table.

mod dense;
mod grid_ls;
mod report;
mod serve_mix;
mod stats;
mod trace;

use report::Outcome;
use stats::{median, percentile};
use std::time::Instant;
use trace::Tracer;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("pairs_per_s", "1/s"),
    ("sim_s", "s"),
    ("queries_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload's traced run. A layer
/// the workload never calls reports 0.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("core.point.upload_s", "s"),
    ("gpu_sim.pcf_launch_s", "s"),
    ("gpu_sim.sdh_launch_s", "s"),
    ("gpu_sim.reduce_launch_s", "s"),
    ("apps.readback_s", "s"),
    ("gpu_sim.parallel_speedup", "ratio"),
    ("gpu_sim.compiled_coverage", "fraction"),
    ("gpu_sim.memo_hit_rate", "fraction"),
    ("gpu_sim.dispatches", "count"),
    ("gpu_sim.lane_ops_per_s", "1/s"),
    ("gpu_sim.useful_lane_ops", "count"),
    ("gpu_sim.dram_bytes", "bytes"),
    ("gpu_sim.l2_hit_rate", "fraction"),
    ("gpu_sim.shared_atomic_serial", "count"),
    ("gpu_sim.shared_bank_replays", "count"),
    ("gpu_sim.occupancy", "fraction"),
    ("core.grid.fit_s", "s"),
    ("core.grid.bin_s", "s"),
    ("core.grid.enumerate_s", "s"),
    ("core.grid.cell_pairs", "count"),
    ("core.grid.pruned_pair_fraction", "fraction"),
    ("apps.gridded.catalog_build_s", "s"),
    ("apps.gridded.plan_s", "s"),
    ("apps.gridded.planned_packed_launches", "count"),
    ("apps.gridded.dd_sweep_s", "s"),
    ("apps.gridded.dr_sweep_s", "s"),
    ("apps.gridded.rr_sweep_s", "s"),
    ("apps.gridded.packed_launches", "count"),
    ("apps.gridded.population_classes", "count"),
    ("apps.gridded.useful_pair_fraction", "fraction"),
    ("core.plan.launch_estimate_ratio", "ratio"),
    ("apps.serve.idle_rtt_ms.pair_counts", "ms"),
    ("apps.serve.idle_rtt_ms.sdh", "ms"),
    ("apps.serve.idle_rtt_ms.count_within", "ms"),
    ("apps.serve.idle_rtt_ms.gridded", "ms"),
    ("apps.serve.idle_rtt_ms.knn", "ms"),
    ("apps.serve.register_ms", "ms"),
    ("apps.serve.coalesced_fraction", "fraction"),
    ("apps.serve.batches_per_query", "ratio"),
    ("apps.serve.tasks_per_batch", "ratio"),
    ("apps.serve.batch_gain", "ratio"),
    ("apps.serve.cache_hit_rate", "fraction"),
    ("apps.serve.sim_s", "s"),
    ("cpu.pcf_parallel_s", "s"),
    ("cpu.sdh_parallel_s", "s"),
    ("cpu.grid_radial_s", "s"),
    ("trace.unattributed_frac", "fraction"),
    ("trace.overhead_frac", "fraction"),
];

pub const WORKLOADS: [&str; 3] = ["dense", "grid-ls", "serve-mix"];

/// Catalog size of each served dataset.
const SERVE_N: usize = 8_192;

/// Metrics every workload derives the same way from its timed loop.
pub fn common_metrics(
    out: &mut Outcome,
    setups: &[f64],
    op_secs: &[f64],
    loop_secs: f64,
    rss_mb: f64,
) {
    out.metric("setup_s", median(setups), "s");
    out.metric("queries_per_s", op_secs.len() as f64 / loop_secs, "1/s");
    out.metric("latency_p50_ms", median(op_secs) * 1e3, "ms");
    out.metric("latency_p95_ms", percentile(op_secs, 95) * 1e3, "ms");
    out.metric("peak_rss_mb", rss_mb, "MB");
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<std::path::PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut trace_out) =
        (None, None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--trace-out" => trace_out = Some(value.into()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        trace_out,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tbs-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut tracer = Tracer::new(Instant::now());
    let mut out = match args.workload.as_str() {
        "dense" => dense::run(
            dense::FULL,
            args.seed,
            args.seconds,
            args.trace,
            &mut tracer,
        ),
        "grid-ls" => grid_ls::run(
            grid_ls::FULL,
            args.seed,
            args.seconds,
            args.trace,
            &mut tracer,
        ),
        _ => serve_mix::run(SERVE_N, args.seed, args.seconds, args.trace, &mut tracer),
    };
    let expected: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if args.trace {
        // Layers this workload never calls did no work.
        for &(name, unit) in expected {
            if out.get(name).is_none() {
                out.metric(name, 0.0, unit);
            }
        }
    }
    let mut reported: Vec<(&str, &str)> = out
        .metrics
        .iter()
        .map(|m| (m.name.as_str(), m.unit))
        .collect();
    let mut want = expected.to_vec();
    reported.sort();
    want.sort();
    assert_eq!(
        reported, want,
        "the run must report exactly the declared metrics"
    );
    out.metrics
        .sort_by_key(|m| expected.iter().position(|&(n, _)| n == m.name));

    if let Some(path) = &args.trace_out {
        if args.trace {
            if let Err(e) = tracer.write_jsonl(path) {
                eprintln!("tbs-perfbench: writing {}: {e}", path.display());
                std::process::exit(2);
            }
            out.note(format!(
                "{} spans written to {}",
                tracer.spans().len(),
                path.display()
            ));
        }
    }
    for line in &out.notes {
        println!("# {line}");
    }
    for m in &out.metrics {
        println!("# {:<40} {:>18.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", out.result_line());
    std::process::exit(out.exit_code());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root declares the same metric
    /// names, units and workloads this binary reports.
    #[test]
    fn benchmark_json_declares_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = tbs_json::Json::parse(&text).expect("BENCHMARK.json parses");
        let field = |key: &str, entry: &tbs_json::Json| -> String {
            entry
                .get(key)
                .and_then(|v| v.as_str())
                .unwrap_or_default()
                .to_string()
        };
        let pairs = |section: &str| -> Vec<(String, String)> {
            doc.get(section)
                .and_then(|v| v.as_arr())
                .expect(section)
                .iter()
                .map(|e| (field("name", e), field("unit", e)))
                .collect()
        };
        let owned = |xs: &[(&str, &str)]| -> Vec<(String, String)> {
            xs.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(pairs("end_to_end"), owned(&END_TO_END));
        assert_eq!(pairs("per_layer"), owned(&PER_LAYER));
        let workloads: Vec<String> = pairs("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
