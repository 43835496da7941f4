//! `serve-mix`: a closed loop of clients against the query service.
//!
//! Chosen because it is the only workload that drives the dispatcher,
//! batcher, shard planner and worker caches. About one request in 50 is
//! a write (re-registering a dataset with identical points): it bumps
//! the generation and evicts that dataset's shard uploads and grids, so
//! a cache or coalescing gain that costs the write path shows, while
//! every reply stays checkable against one oracle. Two datasets expose
//! head-of-line blocking between dataset groups.

use crate::report::{derive_seed, peak_rss_mb, Ledger, Outcome, SplitMix};
use crate::stats::{median, min_samples_for, percentile, samples_beyond};
use crate::trace::{unattributed_frac, Tracer};
use crate::{common_metrics, SETUP_REPEATS};
use gpu_sim::{Device, DeviceConfig};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;
use tbs_apps::serve::{Query, QueryResult, ServeConfig, Server, ServerHandle, ServerStats};
use tbs_bench::experiments::ext_ls::{BOX, CENTERS, SIGMA};
use tbs_core::histogram::{Histogram, HistogramSpec};
use tbs_core::point::SoaPoints;

/// Closed-loop clients (the dev host's `nproc`).
pub const CLIENTS: u64 = 2;
pub const DATASETS: [&str; 2] = ["uniform", "blobs"];
const LADDERS: [&[f32]; 3] = [
    &[2.0, 5.0, 10.0],
    &[5.0, 10.0, 20.0, 40.0],
    &[1.0, 2.5, 5.0, 10.0, 15.0, 20.0],
];
/// SDH specs `(buckets, width)`: the popular one, then a rarer one.
const SDH_SPECS: [(u32, f32); 2] = [(64, 2.75), (128, 1.5)];
const DENSE_RADII: [f32; 3] = [5.0, 10.0, 20.0];
const GRIDDED_RADII: [f32; 3] = [2.5, 5.0, 10.0];
const KNN_K: u32 = 4;

#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    pub sets: [SoaPoints<3>; 2],
}

pub fn inputs(n: usize, seed: u64) -> Inputs {
    Inputs {
        sets: [
            tbs_datagen::uniform_points(n, BOX, derive_seed(seed, 1)),
            tbs_datagen::gaussian_blobs(n, BOX, &CENTERS, &[SIGMA; 4], derive_seed(seed, 2)),
        ],
    }
}

/// Every answer a request of the mix can expect from one dataset.
#[derive(Debug, Clone)]
pub struct Oracle {
    counts: BTreeMap<u32, u64>,
    sdh: BTreeMap<(u32, u32), Histogram>,
    knn: QueryResult,
}

fn all_radii() -> Vec<f32> {
    let mut r: Vec<f32> = LADDERS
        .iter()
        .flat_map(|l| l.iter().copied())
        .chain(DENSE_RADII)
        .chain(GRIDDED_RADII)
        .collect();
    r.sort_by(f32::total_cmp);
    r.dedup();
    r
}

impl Oracle {
    pub fn new(pts: &SoaPoints<3>) -> Self {
        let counts = all_radii()
            .into_iter()
            .map(|r| (r.to_bits(), tbs_cpu::count_within_reference(pts, r)))
            .collect();
        let sdh = SDH_SPECS
            .iter()
            .map(|&(b, w)| {
                let spec = HistogramSpec::new(b, w * b as f32);
                ((b, w.to_bits()), tbs_cpu::sdh_reference(pts, spec))
            })
            .collect();
        let (neighbors, distances) = knn_reference(pts, KNN_K as usize);
        Oracle {
            counts,
            sdh,
            knn: QueryResult::Knn {
                neighbors,
                distances,
            },
        }
    }

    fn count(&self, r: f32) -> u64 {
        self.counts[&r.to_bits()]
    }

    /// The exact reply `q` must produce.
    pub fn expect(&self, q: &Query) -> QueryResult {
        match q {
            Query::PairCounts { radii } => {
                QueryResult::Counts(radii.iter().map(|&r| self.count(r)).collect())
            }
            Query::Sdh { buckets, width } => {
                QueryResult::Histogram(self.sdh[&(*buckets, width.to_bits())].clone())
            }
            Query::CountWithin { radius, .. } => QueryResult::Counts(vec![self.count(*radius)]),
            Query::Knn { .. } => self.knn.clone(),
        }
    }
}

/// Exact k-nearest neighbors with `tbs_apps::knn_reference`'s distance
/// arithmetic and its (distance, index) order, by insertion into a
/// k-slot list instead of a full sort per point.
pub fn knn_reference(pts: &SoaPoints<3>, k: usize) -> (Vec<Vec<u32>>, Vec<Vec<f32>>) {
    let n = pts.len();
    let (mut nbrs, mut dists) = (Vec::with_capacity(n), Vec::with_capacity(n));
    for i in 0..n {
        let a = pts.point(i);
        let mut best: Vec<(f32, u32)> = Vec::with_capacity(k + 1);
        for j in (0..n).filter(|&j| j != i) {
            let b = pts.point(j);
            let mut s = 0.0f32;
            for d in 0..3 {
                let diff = a[d] - b[d];
                s = diff.mul_add(diff, s);
            }
            let cand = (s.sqrt(), j as u32);
            let before = |x: &(f32, u32), y: &(f32, u32)| x.0.total_cmp(&y.0).then(x.1.cmp(&y.1));
            if best.len() == k && before(&cand, &best[k - 1]).is_ge() {
                continue;
            }
            let at = best.partition_point(|x| before(x, &cand).is_lt());
            best.insert(at, cand);
            best.truncate(k);
        }
        nbrs.push(best.iter().map(|x| x.1).collect());
        dists.push(best.iter().map(|x| x.0).collect());
    }
    (nbrs, dists)
}

/// One request of the mix.
#[derive(Debug, Clone)]
enum Request {
    Single(Query),
    Batch(Vec<Query>),
    Register,
}

#[derive(Debug, Clone)]
struct Drawn {
    dataset: usize,
    kind: &'static str,
    request: Request,
}

fn pick<T: Copy>(rng: &mut SplitMix, xs: &[T]) -> T {
    xs[rng.below(xs.len() as u64) as usize]
}

fn batchable(rng: &mut SplitMix) -> Query {
    match rng.below(3) {
        0 => ladder(rng.below(LADDERS.len() as u64) as usize),
        1 => sdh_query(rng),
        _ => count_within(pick(rng, &DENSE_RADII), false),
    }
}

/// The popular SDH spec four times in five.
fn sdh_query(rng: &mut SplitMix) -> Query {
    sdh(usize::from(rng.below(5) == 0))
}

fn sdh(spec: usize) -> Query {
    let (buckets, width) = SDH_SPECS[spec];
    Query::Sdh { buckets, width }
}

fn count_within(radius: f32, gridded: bool) -> Query {
    Query::CountWithin { radius, gridded }
}

fn ladder(i: usize) -> Query {
    Query::PairCounts {
        radii: LADDERS[i].to_vec(),
    }
}

/// Request kinds and their share of every 100 requests. Slow kinds
/// (SDH, kNN, admission groups) stay rare so that the median request is
/// a fast one: the dispatcher serves one dataset group at a time, so a
/// fast request queued behind a slow one waits for it, and a mix near
/// half blocked would put the median on the steep part of the latency
/// distribution.
const MIX: [(&str, u32); 7] = [
    ("pair_counts", 26),
    ("sdh", 8),
    ("count_within", 26),
    ("gridded", 30),
    ("knn", 2),
    ("batch", 6),
    ("register", 2),
];

/// A client's request stream: kinds are dealt from a shuffled deck
/// holding exactly the [`MIX`] shares, so every 100 consecutive
/// requests of a client have the same composition whatever the seed;
/// parameters and datasets are drawn independently.
struct Stream {
    rng: SplitMix,
    deck: Vec<&'static str>,
}

impl Stream {
    fn new(seed: u64) -> Self {
        Stream {
            rng: SplitMix(seed),
            deck: Vec::new(),
        }
    }

    fn next(&mut self) -> Drawn {
        if self.deck.is_empty() {
            self.deck = MIX
                .iter()
                .flat_map(|&(k, n)| std::iter::repeat_n(k, n as usize))
                .collect();
            for i in (1..self.deck.len()).rev() {
                let j = self.rng.below(i as u64 + 1) as usize;
                self.deck.swap(i, j);
            }
        }
        let kind = self.deck.pop().expect("deck refilled above");
        let rng = &mut self.rng;
        let dataset = rng.below(DATASETS.len() as u64) as usize;
        let request = match kind {
            "pair_counts" => Request::Single(ladder(rng.below(LADDERS.len() as u64) as usize)),
            "sdh" => Request::Single(sdh_query(rng)),
            "count_within" => Request::Single(count_within(pick(rng, &DENSE_RADII), false)),
            "gridded" => Request::Single(count_within(pick(rng, &GRIDDED_RADII), true)),
            "knn" => Request::Single(Query::Knn { k: KNN_K }),
            "batch" => {
                let size = 5 + rng.below(3) as usize;
                Request::Batch((0..size).map(|_| batchable(rng)).collect())
            }
            _ => Request::Register,
        };
        Drawn {
            dataset,
            kind,
            request,
        }
    }
}

/// Span name of a request kind.
fn span_name(kind: &str) -> &'static str {
    match kind {
        "pair_counts" => "apps.serve.request.pair_counts",
        "sdh" => "apps.serve.request.sdh",
        "count_within" => "apps.serve.request.count_within",
        "gridded" => "apps.serve.request.gridded",
        "knn" => "apps.serve.request.knn",
        "batch" => "apps.serve.request.batch",
        _ => "apps.serve.request.register",
    }
}

/// Unordered pairs a request's statistics resolve.
fn pairs_of(req: &Request, n: usize) -> f64 {
    let per_query = n as f64 * (n as f64 - 1.0) / 2.0;
    match req {
        Request::Single(_) => per_query,
        Request::Batch(qs) => per_query * qs.len() as f64,
        Request::Register => 0.0,
    }
}

/// Shared read-only context of a run.
struct Ctx<'a> {
    inp: &'a Inputs,
    oracles: &'a [Oracle; 2],
}

/// Per-client record of a closed loop.
#[derive(Default)]
struct ClientLog {
    latencies: Vec<f64>,
    /// Request kind of each latency sample.
    kinds: Vec<&'static str>,
    pairs: f64,
    ledger: Ledger,
    errors: Vec<String>,
    /// Highest generation this client has seen returned.
    last_gen: u64,
}

impl ClientLog {
    /// Send one request, time its round trip and check its reply.
    fn execute(&mut self, h: &ServerHandle, ctx: &Ctx, d: &Drawn) -> f64 {
        let name = DATASETS[d.dataset];
        let oracle = &ctx.oracles[d.dataset];
        let fresh = matches!(d.request, Request::Register).then(|| ctx.inp.sets[d.dataset].clone());
        let t = Instant::now();
        let ok = match &d.request {
            Request::Single(q) => {
                let reply = h.submit(name, q.clone());
                let ok = reply.as_ref().is_ok_and(|r| *r == oracle.expect(q));
                if !ok {
                    self.errors
                        .push(format!("{} on {name}: {:?}", d.kind, reply.err()));
                }
                ok
            }
            Request::Batch(qs) => {
                let reply = h.submit_batch(name, qs.clone());
                let ok = reply.as_ref().is_ok_and(|rs| {
                    rs.len() == qs.len() && rs.iter().zip(qs).all(|(r, q)| *r == oracle.expect(q))
                });
                if !ok {
                    self.errors
                        .push(format!("batch on {name}: {:?}", reply.err()));
                }
                ok
            }
            Request::Register => {
                let pts = fresh.expect("register request carries its points");
                match h.register_dataset(name, pts) {
                    Ok(gen) if gen > self.last_gen => {
                        self.last_gen = gen;
                        true
                    }
                    other => {
                        self.errors.push(format!("register {name}: {other:?}"));
                        false
                    }
                }
            }
        };
        let secs = t.elapsed().as_secs_f64();
        self.ledger.record(ok);
        if ok {
            self.latencies.push(secs);
            self.kinds.push(d.kind);
            self.pairs += pairs_of(&d.request, ctx.inp.sets[d.dataset].len());
        }
        secs
    }
}

/// The requests of one warm-up pass over a dataset: every query kind
/// once, each served alone, plus one admission group.
fn warm_requests() -> Vec<Drawn> {
    let mut reqs = Vec::new();
    for dataset in 0..DATASETS.len() {
        let singles = [
            ("pair_counts", ladder(2)),
            ("sdh", sdh(0)),
            ("sdh", sdh(1)),
            ("count_within", count_within(DENSE_RADII[2], false)),
            ("gridded", count_within(GRIDDED_RADII[2], true)),
            ("knn", Query::Knn { k: KNN_K }),
        ];
        for (kind, q) in singles {
            reqs.push(Drawn {
                dataset,
                kind,
                request: Request::Single(q),
            });
        }
        reqs.push(Drawn {
            dataset,
            kind: "batch",
            request: Request::Batch(fixed_batch()),
        });
    }
    reqs
}

/// The admission group whose round trip is compared with its singles.
fn fixed_batch() -> Vec<Query> {
    let mut batch = vec![ladder(0), ladder(1), sdh(0)];
    batch.extend(DENSE_RADII.map(|r| count_within(r, false)));
    batch
}

/// Merged record of a closed loop.
struct LoopOut {
    log: ClientLog,
    wall: f64,
    /// Peak RSS (MB) when the `min_requests`-th request completed.
    rss_at_min: f64,
}

/// Run `CLIENTS` closed-loop clients until `seconds` have passed and at
/// least `min_requests` have completed.
fn closed_loop(
    h: &ServerHandle,
    ctx: &Ctx,
    seed: u64,
    seconds: f64,
    min_requests: usize,
    tracer: Option<&mut Tracer>,
) -> LoopOut {
    let done = AtomicUsize::new(0);
    let rss_at_min = std::sync::Mutex::new(0.0);
    let origin = tracer.as_ref().map(|t| t.origin());
    let start = Instant::now();
    let results: Vec<(ClientLog, Option<Tracer>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (h, done, rss_at_min) = (h.clone(), &done, &rss_at_min);
                s.spawn(move || {
                    let mut stream = Stream::new(derive_seed(seed, 100 + c));
                    let mut tr = origin.map(Tracer::new);
                    let mut log = ClientLog::default();
                    let root = tr.as_mut().map(|t| t.enter("serve.client", None));
                    let mut seq = 0u64;
                    while start.elapsed().as_secs_f64() < seconds
                        || done.load(Ordering::Relaxed) < min_requests
                    {
                        let d = stream.next();
                        let span = tr
                            .as_mut()
                            .map(|t| t.enter(span_name(d.kind), Some(c << 32 | seq)));
                        log.execute(&h, ctx, &d);
                        if let (Some(t), Some(sp)) = (tr.as_mut(), span) {
                            t.exit(sp);
                        }
                        seq += 1;
                        if done.fetch_add(1, Ordering::Relaxed) + 1 == min_requests {
                            *rss_at_min.lock().expect("RSS slot poisoned") = peak_rss_mb();
                        }
                    }
                    if let (Some(t), Some(r)) = (tr.as_mut(), root) {
                        t.exit(r);
                    }
                    (log, tr)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|j| j.join().expect("client thread panicked"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let mut merged = ClientLog::default();
    let mut tracer = tracer;
    for (log, tr) in results {
        merged.latencies.extend(log.latencies);
        merged.kinds.extend(log.kinds);
        merged.pairs += log.pairs;
        merged.ledger.merge(log.ledger);
        merged.errors.extend(log.errors);
        if let (Some(dst), Some(src)) = (tracer.as_deref_mut(), tr) {
            dst.absorb(src);
        }
    }
    LoopOut {
        log: merged,
        wall,
        rss_at_min: rss_at_min.into_inner().expect("RSS slot poisoned"),
    }
}

fn stats(h: &ServerHandle) -> ServerStats {
    h.stats().expect("server answers stats")
}

/// Median idle round trip of `q` in milliseconds (3 tries).
fn idle_rtt_ms(
    h: &ServerHandle,
    ctx: &Ctx,
    log: &mut ClientLog,
    request: Request,
    kind: &'static str,
) -> f64 {
    let d = Drawn {
        dataset: 0,
        kind,
        request,
    };
    let rtts: Vec<f64> = (0..3).map(|_| log.execute(h, ctx, &d) * 1e3).collect();
    median(&rtts)
}

pub fn run(n: usize, seed: u64, seconds: f64, traced: bool, tr: &mut Tracer) -> Outcome {
    let inp = inputs(n, seed);
    let t = Instant::now();
    let oracles = std::thread::scope(|s| {
        let blobs = s.spawn(|| Oracle::new(&inp.sets[1]));
        let uniform = Oracle::new(&inp.sets[0]);
        [uniform, blobs.join().expect("oracle thread")]
    });
    let oracle_s = t.elapsed().as_secs_f64();
    let ctx = Ctx {
        inp: &inp,
        oracles: &oracles,
    };

    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut sim = None;
    for rep in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        Server::run(ServeConfig::default(), |h| {
            let mut log = ClientLog::default();
            for (name, pts) in DATASETS.iter().zip(&inp.sets) {
                log.ledger
                    .record(h.register_dataset(name, pts.clone()).is_ok());
            }
            let before = stats(&h);
            for d in warm_requests() {
                log.execute(&h, &ctx, &d);
            }
            let warm_sim = stats(&h).sim_seconds - before.sim_seconds;
            setups.push(t0.elapsed().as_secs_f64());
            out.same_sim(&mut sim, warm_sim);
            absorb(&mut out, log);
            if rep + 1 < SETUP_REPEATS {
                return;
            }
            if traced {
                measure_traced(&h, &ctx, seed, seconds, &mut out, tr);
            } else {
                // Worker devices keep every buffer a query allocates, so
                // memory grows with requests served: read it at a fixed
                // request count, not at the end of a time-boxed loop.
                let min = min_samples_for(95);
                let LoopOut {
                    log,
                    wall,
                    rss_at_min,
                } = closed_loop(&h, &ctx, seed, seconds, min, None);
                common_metrics(&mut out, &setups, &log.latencies, wall, rss_at_min);
                out.metric("pairs_per_s", log.pairs / wall, "1/s");
                kind_notes(&mut out, &log);
                out.metric("sim_s", sim.unwrap_or(0.0), "s");
                out.note(format!(
                    "serve-mix: {} requests from {CLIENTS} clients in {wall:.2} s, {} beyond p95, \
                     error rate {:.4}, oracle {oracle_s:.2} s (excluded)",
                    log.latencies.len(),
                    samples_beyond(&log.latencies, 95),
                    log.ledger.failed as f64 / log.ledger.attempted.max(1) as f64,
                ));
                absorb(&mut out, log);
            }
        });
    }
    out
}

/// Per-kind latency lines for the human-readable report.
fn kind_notes(out: &mut Outcome, log: &ClientLog) {
    let mut by_kind: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (k, &l) in log.kinds.iter().zip(&log.latencies) {
        by_kind.entry(k).or_default().push(l * 1e3);
    }
    for (k, v) in by_kind {
        out.note(format!(
            "serve-mix {k:<12} n {:>4}  p50 {:>8.1} ms  p95 {:>8.1} ms",
            v.len(),
            median(&v),
            percentile(&v, 95)
        ));
    }
}

fn absorb(out: &mut Outcome, log: ClientLog) {
    out.ledger.merge(log.ledger);
    for e in log.errors.into_iter().take(5) {
        out.note(format!("serve-mix failure: {e}"));
    }
}

fn measure_traced(
    h: &ServerHandle,
    ctx: &Ctx,
    seed: u64,
    seconds: f64,
    out: &mut Outcome,
    tr: &mut Tracer,
) {
    let mut log = ClientLog::default();
    let rtts = [
        ("pair_counts", ladder(1)),
        ("sdh", sdh(0)),
        ("count_within", count_within(DENSE_RADII[1], false)),
        ("gridded", count_within(GRIDDED_RADII[1], true)),
        ("knn", Query::Knn { k: KNN_K }),
    ];
    for (kind, q) in rtts {
        let ms = idle_rtt_ms(h, ctx, &mut log, Request::Single(q), kind);
        out.metric(&format!("apps.serve.idle_rtt_ms.{kind}"), ms, "ms");
    }
    let batch = fixed_batch();
    let singles_ms: f64 = batch
        .iter()
        .map(|q| idle_rtt_ms(h, ctx, &mut log, Request::Single(q.clone()), "batch_member"))
        .sum();
    let batch_ms = idle_rtt_ms(h, ctx, &mut log, Request::Batch(batch), "batch");
    out.metric("apps.serve.batch_gain", batch_ms / singles_ms, "ratio");
    out.metric(
        "apps.serve.register_ms",
        idle_rtt_ms(h, ctx, &mut log, Request::Register, "register"),
        "ms",
    );
    for d in warm_requests() {
        log.execute(h, ctx, &d);
    }
    let mut scratch = Device::new(DeviceConfig::titan_x());
    let uploads: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(ctx.inp.sets[0].upload(&mut scratch));
            t.elapsed().as_secs_f64()
        })
        .collect();
    out.metric("core.point.upload_s", median(&uploads), "s");
    absorb(out, log);

    // Half the time untraced, half traced, both drawing the same request
    // sequence: the throughput ratio is the tracing overhead.
    // ServerStats deltas span both halves.
    let before = stats(h);
    let half = seconds / 2.0;
    let plain = closed_loop(h, ctx, seed, half, 0, None);
    let with_trace = closed_loop(h, ctx, seed, half, 0, Some(tr));
    let after = stats(h);
    let dq = (after.queries - before.queries) as f64;
    let db = (after.batches - before.batches) as f64;
    let hits = (after.cache_hits - before.cache_hits) as f64;
    let misses = (after.cache_misses - before.cache_misses) as f64;
    out.metric(
        "apps.serve.coalesced_fraction",
        (after.coalesced_queries - before.coalesced_queries) as f64 / dq,
        "fraction",
    );
    out.metric("apps.serve.batches_per_query", db / dq, "ratio");
    out.metric(
        "apps.serve.tasks_per_batch",
        (after.tasks - before.tasks) as f64 / db,
        "ratio",
    );
    out.metric(
        "apps.serve.cache_hit_rate",
        hits / (hits + misses),
        "fraction",
    );
    out.metric(
        "apps.serve.sim_s",
        (after.sim_seconds - before.sim_seconds) / dq,
        "s",
    );
    let qps = |l: &LoopOut| l.log.latencies.len() as f64 / l.wall;
    out.metric(
        "trace.overhead_frac",
        qps(&plain) / qps(&with_trace) - 1.0,
        "fraction",
    );
    out.metric(
        "trace.unattributed_frac",
        unattributed_frac(tr.spans(), "serve.client"),
        "fraction",
    );
    out.note(format!(
        "serve-mix traced: {} plain + {} traced requests; apps.serve.sim_s is per answered query",
        plain.log.latencies.len(),
        with_trace.log.latencies.len()
    ));
    absorb(out, plain.log);
    absorb(out, with_trace.log);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knn_oracle_equals_the_apps_reference() {
        let pts = tbs_datagen::gaussian_blobs::<3>(600, BOX, &CENTERS, &[SIGMA; 4], 8);
        let (n, d) = knn_reference(&pts, 4);
        let (rn, rd) = tbs_apps::knn_reference::<3, 4>(&pts);
        assert_eq!(n, rn.iter().map(|a| a.to_vec()).collect::<Vec<_>>());
        let bits = |v: Vec<Vec<f32>>| {
            v.into_iter()
                .flatten()
                .map(f32::to_bits)
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(d), bits(rd.iter().map(|a| a.to_vec()).collect()));
    }

    #[test]
    fn same_seed_draws_the_same_mix_with_exact_shares() {
        let kinds = |seed| {
            let mut stream = Stream::new(seed);
            (0..200).map(|_| stream.next().kind).collect::<Vec<_>>()
        };
        assert_eq!(kinds(1), kinds(1));
        assert_ne!(kinds(1), kinds(2));
        for window in kinds(1).chunks(100) {
            for (k, n) in MIX {
                assert_eq!(
                    window.iter().filter(|&&x| x == k).count(),
                    n as usize,
                    "{k}"
                );
            }
        }
    }

    #[test]
    fn replies_are_checked_and_warm_sim_time_repeats() {
        let inp = inputs(600, 4);
        assert_eq!(inp, inputs(600, 4));
        let oracles = [Oracle::new(&inp.sets[0]), Oracle::new(&inp.sets[1])];
        let ctx = Ctx {
            inp: &inp,
            oracles: &oracles,
        };
        let warm_sim = || {
            Server::run(ServeConfig::default(), |h| {
                let mut log = ClientLog::default();
                for (name, pts) in DATASETS.iter().zip(&inp.sets) {
                    h.register_dataset(name, pts.clone()).expect("register");
                }
                let before = stats(&h).sim_seconds;
                for d in warm_requests() {
                    log.execute(&h, &ctx, &d);
                }
                assert!(log.ledger.correct(), "{:?}", log.errors);
                let warm = stats(&h).sim_seconds - before;
                let looped = closed_loop(&h, &ctx, 3, 0.0, 20, None);
                assert!(looped.log.ledger.correct(), "{:?}", looped.log.errors);
                assert!(looped.rss_at_min > 0.0);
                // A wrong oracle turns a reply into a failed operation.
                let mut wrong = oracles.clone();
                wrong[0].counts.values_mut().for_each(|c| *c += 1);
                let bad = Ctx {
                    inp: &inp,
                    oracles: &wrong,
                };
                let d = Drawn {
                    dataset: 0,
                    kind: "count_within",
                    request: Request::Single(count_within(5.0, false)),
                };
                log.execute(&h, &bad, &d);
                assert_eq!(log.ledger.failed, 1);
                warm
            })
        };
        assert_eq!(warm_sim().to_bits(), warm_sim().to_bits());
    }
}
