//! `tbs-serve` — a long-running 2-body-statistics query service layered
//! on the simulated-GPU engine (ROADMAP item 3, the "millions of users"
//! step).
//!
//! ## Shape
//!
//! ```text
//! clients ── mpsc ──► dispatcher ── mpsc ──► workers (one device each)
//!    ▲                   │  batcher + shard planner      │
//!    └──── replies ◄─────┴────────── merged results ◄────┘
//! ```
//!
//! * **Ingest/dispatch** ([`Server::run`]): clients hold a cloneable
//!   [`ServerHandle`] and talk to a single dispatcher thread over std
//!   `mpsc`; each request carries its own reply channel. The dispatcher
//!   drains bursts opportunistically, so concurrent clients' queries
//!   coalesce even when they never heard of each other.
//! * **Batcher** (`batch::SinkPlan`): queries that share a dataset and
//!   the Euclidean distance kernel flatten into the sink lists of one
//!   [`tbs_core::output::MultiQueryAction`] — one pairwise sweep feeds
//!   every consumer, and answers stay bit-identical to sequential runs.
//! * **Shard planner**: each coalesced sweep is decomposed with the
//!   multi-GPU machinery ([`crate::multi_gpu`]) — contiguous chunks,
//!   self/cross tasks, LPT onto the worker pool — and the host merges
//!   per-task integer outputs (sums/histogram merges commute, so the
//!   decomposition is invisible in the results).
//! * **Caches** (`cache::WorkerCache`): per-worker shard uploads and
//!   gridded catalogs keyed by dataset generation; re-registering a
//!   dataset bumps the generation and evicts stale entries.
//!
//! kNN runs monolithic on one worker (its f32 insertion order is not
//! re-shardable). Gridded count-withins coalesce per dataset group into
//! one packed multi-radius sweep over a shared covering
//! [`crate::GriddedCatalog`] from the worker cache. Everything else
//! batches dense.

mod batch;
mod cache;
mod query;

pub use query::{Query, QueryResult, ServeError};

/// Sinks the batcher's coalesced sweep would feed for `queries` (all
/// of which must be [`Query::batchable`]) — after histogram-sink dedup,
/// so benchmarks and capacity planning see the sweep the service
/// actually runs rather than the naive one-sink-per-query count.
pub fn planned_sinks(queries: &[Query]) -> usize {
    SinkPlan::plan(queries).sinks()
}

use crate::driver::PairwisePlan;
use crate::knn::knn_gpu;
use crate::multi_gpu::{build_tasks, chunk_ranges, lpt_schedule, SdhTask};
use batch::SinkPlan;
use cache::{DatasetKey, WorkerCache};
use gpu_sim::{Device, DeviceConfig};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use tbs_core::distance::Euclidean;
use tbs_core::histogram::{Histogram, HistogramSpec};
use tbs_core::kernels::{
    pair_launch, CrossShmKernel, HistogramReduceKernel, PairScope, RegisterShmKernel,
};
use tbs_core::output::{privatized_copy_fits, MultiCountSink, MultiHistSink, MultiQueryAction};
use tbs_core::point::SoaPoints;

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads; each owns one simulated device.
    pub workers: usize,
    /// Shards per dataset for the shard planner (defaults to
    /// `workers`). More shards → more, smaller tasks for LPT to balance.
    pub shards: usize,
    /// Pairwise plan for dense sweeps (block size, intra mode; self
    /// joins run Register-SHM, cross joins the bipartite SHM kernel).
    pub plan: PairwisePlan,
    /// Simulated device configuration for every worker.
    pub device: DeviceConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            shards: 2,
            plan: PairwisePlan::register_shm(256),
            device: DeviceConfig::titan_x(),
        }
    }
}

impl ServeConfig {
    /// `workers` workers, `workers` shards.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self.shards = self.workers;
        self
    }
}

/// Service counters, returned by [`ServerHandle::stats`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServerStats {
    /// Datasets currently registered.
    pub datasets: u64,
    /// Queries answered (including failed ones).
    pub queries: u64,
    /// Coalesced sweeps executed.
    pub batches: u64,
    /// Queries that shared a sweep with at least one other query.
    pub coalesced_queries: u64,
    /// Shard tasks launched across all workers.
    pub tasks: u64,
    /// Worker cache probes that found their entry.
    pub cache_hits: u64,
    /// Worker cache probes that had to (re)build their entry.
    pub cache_misses: u64,
    /// Total simulated kernel seconds across all workers.
    pub sim_seconds: f64,
}

impl ServerStats {
    /// Hit fraction of the worker caches (0 when never probed).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

// ---------------------------------------------------------------------
// Protocol
// ---------------------------------------------------------------------

type Reply<T> = Sender<Result<T, ServeError>>;

enum Request {
    Register {
        name: String,
        pts: Arc<SoaPoints<3>>,
        reply: Reply<u64>,
    },
    Submit {
        dataset: String,
        query: Query,
        reply: Reply<QueryResult>,
    },
    SubmitBatch {
        dataset: String,
        queries: Vec<Query>,
        reply: Reply<Vec<QueryResult>>,
    },
    Stats {
        reply: Sender<ServerStats>,
    },
    Shutdown,
}

/// A cloneable client handle; every method is a blocking round-trip to
/// the dispatcher (queries block until their results are merged).
#[derive(Clone)]
pub struct ServerHandle {
    tx: Sender<Request>,
}

impl ServerHandle {
    /// Register (or replace) dataset `name`; returns its generation.
    /// Re-registration bumps the generation, which evicts every cached
    /// shard upload and gridded catalog of the old revision.
    ///
    /// Points with a NaN or infinite coordinate are refused with
    /// [`ServeError::BadQuery`]: no sweep could answer them exactly.
    pub fn register_dataset(&self, name: &str, pts: SoaPoints<3>) -> Result<u64, ServeError> {
        if !(0..3).all(|d| pts.coord(d).iter().all(|c| c.is_finite())) {
            return Err(ServeError::BadQuery("coordinates must be finite"));
        }
        let (reply, rx) = channel();
        self.tx
            .send(Request::Register {
                name: name.to_string(),
                pts: Arc::new(pts),
                reply,
            })
            .map_err(|_| ServeError::Closed)?;
        rx.recv().map_err(|_| ServeError::Closed)?
    }

    /// Submit one query and block for its result.
    pub fn submit(&self, dataset: &str, query: Query) -> Result<QueryResult, ServeError> {
        let (reply, rx) = channel();
        self.tx
            .send(Request::Submit {
                dataset: dataset.to_string(),
                query,
                reply,
            })
            .map_err(|_| ServeError::Closed)?;
        rx.recv().map_err(|_| ServeError::Closed)?
    }

    /// Submit an atomic admission group: either every query is admitted
    /// (and the batchable ones share one sweep), or the whole group is
    /// rejected. Blocks until all results are in.
    pub fn submit_batch(
        &self,
        dataset: &str,
        queries: Vec<Query>,
    ) -> Result<Vec<QueryResult>, ServeError> {
        let (reply, rx) = channel();
        self.tx
            .send(Request::SubmitBatch {
                dataset: dataset.to_string(),
                queries,
                reply,
            })
            .map_err(|_| ServeError::Closed)?;
        rx.recv().map_err(|_| ServeError::Closed)?
    }

    /// Snapshot the service counters.
    pub fn stats(&self) -> Result<ServerStats, ServeError> {
        let (reply, rx) = channel();
        self.tx
            .send(Request::Stats { reply })
            .map_err(|_| ServeError::Closed)?;
        rx.recv().map_err(|_| ServeError::Closed)
    }

    /// Request graceful shutdown: queued work completes, then the
    /// dispatcher and workers exit. Idempotent.
    pub fn shutdown(&self) {
        let _ = self.tx.send(Request::Shutdown);
    }
}

// ---------------------------------------------------------------------
// Worker protocol
// ---------------------------------------------------------------------

/// Result of one worker's share of a coalesced sweep.
struct TasksOut {
    /// Per count sink, summed over this worker's tasks.
    counts: Vec<u64>,
    /// Per histogram sink, merged over this worker's tasks.
    hists: Vec<Histogram>,
    sim_seconds: f64,
    cache_hits: u64,
    cache_misses: u64,
}

struct SoloOut {
    result: QueryResult,
    sim_seconds: f64,
    cache_hits: u64,
    cache_misses: u64,
}

/// Result of one worker's coalesced gridded sweep.
struct GriddedOut {
    /// One count per requested radius, in request order.
    counts: Vec<u64>,
    sim_seconds: f64,
    cache_hits: u64,
    cache_misses: u64,
}

enum WorkOrder {
    /// Run `tasks` of the sharded sweep feeding `counts`/`hists` sinks.
    Tasks {
        key: DatasetKey,
        pts: Arc<SoaPoints<3>>,
        shards: usize,
        tasks: Vec<SdhTask>,
        counts: Vec<f32>,
        hists: Vec<HistogramSpec>,
        plan: PairwisePlan,
        reply: Sender<Result<TasksOut, String>>,
    },
    /// Every gridded count-within of one dataset group, coalesced into
    /// a single packed sweep over the cached catalog (one count sink
    /// per radius).
    Gridded {
        key: DatasetKey,
        pts: Arc<SoaPoints<3>>,
        radii: Vec<f32>,
        plan: PairwisePlan,
        reply: Sender<Result<GriddedOut, String>>,
    },
    /// A non-batchable query, run monolithic on this worker.
    Solo {
        key: DatasetKey,
        pts: Arc<SoaPoints<3>>,
        query: Query,
        plan: PairwisePlan,
        reply: Sender<Result<SoloOut, String>>,
    },
}

// ---------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------

/// The query service. See the module docs for the architecture.
pub struct Server;

impl Server {
    /// Run a server with `cfg`, hand a [`ServerHandle`] to `client`,
    /// and shut everything down (gracefully) when `client` returns.
    /// Workers and dispatcher run as scoped threads; the client runs on
    /// the calling thread and may clone the handle into threads of its
    /// own.
    pub fn run<R>(cfg: ServeConfig, client: impl FnOnce(ServerHandle) -> R) -> R {
        let workers = cfg.workers.max(1);
        let (tx, rx) = channel::<Request>();
        std::thread::scope(|s| {
            let mut worker_txs = Vec::with_capacity(workers);
            for _ in 0..workers {
                let (wtx, wrx) = channel::<WorkOrder>();
                worker_txs.push(wtx);
                let device = cfg.device.clone();
                s.spawn(move || worker_loop(device, wrx));
            }
            let dcfg = cfg.clone();
            s.spawn(move || Dispatcher::new(dcfg, worker_txs).run(rx));
            let handle = ServerHandle { tx };
            let out = client(handle.clone());
            handle.shutdown();
            out
        })
    }
}

// ---------------------------------------------------------------------
// Dispatcher
// ---------------------------------------------------------------------

/// Where one admitted query's answer goes.
enum Slot {
    Single(Reply<QueryResult>),
    /// Slot `i` of a [`GroupReply`].
    Grouped(Rc<RefCell<GroupReply>>, usize),
}

impl Slot {
    fn fill(self, result: Result<QueryResult, ServeError>) {
        match self {
            Slot::Single(reply) => {
                let _ = reply.send(result);
            }
            Slot::Grouped(group, i) => {
                let mut g = group.borrow_mut();
                g.slots[i] = Some(result);
                g.flush();
            }
        }
    }
}

/// Aggregates a `SubmitBatch`'s per-query results; replies once full.
struct GroupReply {
    slots: Vec<Option<Result<QueryResult, ServeError>>>,
    reply: Option<Reply<Vec<QueryResult>>>,
}

impl GroupReply {
    fn flush(&mut self) {
        if self.slots.iter().all(Option::is_some) {
            if let Some(reply) = self.reply.take() {
                let mut out = Vec::with_capacity(self.slots.len());
                for s in self.slots.drain(..) {
                    match s.expect("checked full") {
                        Ok(r) => out.push(r),
                        Err(e) => {
                            let _ = reply.send(Err(e));
                            return;
                        }
                    }
                }
                let _ = reply.send(Ok(out));
            }
        }
    }
}

struct Dataset {
    gen: u64,
    pts: Arc<SoaPoints<3>>,
}

struct Dispatcher {
    cfg: ServeConfig,
    worker_txs: Vec<Sender<WorkOrder>>,
    datasets: HashMap<String, Dataset>,
    stats: ServerStats,
    next_gen: u64,
    rr: usize,
}

/// One admitted query bound for the batcher/planner.
struct Admitted {
    dataset: String,
    query: Query,
    slot: Slot,
}

impl Dispatcher {
    fn new(cfg: ServeConfig, worker_txs: Vec<Sender<WorkOrder>>) -> Self {
        Dispatcher {
            cfg,
            worker_txs,
            datasets: HashMap::new(),
            stats: ServerStats::default(),
            next_gen: 0,
            rr: 0,
        }
    }

    fn run(mut self, rx: Receiver<Request>) {
        while let Ok(first) = rx.recv() {
            // Drain the burst: everything already queued coalesces with
            // `first` (bounded so a flood cannot starve the replies).
            let mut burst = vec![first];
            while burst.len() < 1024 {
                match rx.try_recv() {
                    Ok(req) => burst.push(req),
                    Err(_) => break,
                }
            }
            let mut queue = std::collections::VecDeque::from(burst);
            while let Some(req) = queue.pop_front() {
                match req {
                    Request::Register { name, pts, reply } => {
                        let gen = self.next_gen;
                        self.next_gen += 1;
                        if self.datasets.insert(name, Dataset { gen, pts }).is_none() {
                            self.stats.datasets += 1;
                        }
                        let _ = reply.send(Ok(gen));
                    }
                    Request::Stats { reply } => {
                        let _ = reply.send(self.stats.clone());
                    }
                    Request::Shutdown => return,
                    submit => {
                        // Gather the consecutive run of submissions so
                        // same-dataset queries share sweeps; stop at the
                        // next register/stats/shutdown to keep ordering
                        // semantics simple.
                        let mut submits = vec![submit];
                        while matches!(
                            queue.front(),
                            Some(Request::Submit { .. } | Request::SubmitBatch { .. })
                        ) {
                            submits.push(queue.pop_front().expect("just matched"));
                        }
                        self.process_submits(submits);
                    }
                }
            }
        }
    }

    /// Admission-check a run of submissions, then execute them grouped
    /// by dataset: batchable queries coalesce into one sharded sweep
    /// per dataset, the rest run solo on round-robin workers.
    fn process_submits(&mut self, submits: Vec<Request>) {
        let mut admitted: Vec<Admitted> = Vec::new();
        for req in submits {
            match req {
                Request::Submit {
                    dataset,
                    query,
                    reply,
                } => match self.admit(&dataset, &query) {
                    Ok(()) => admitted.push(Admitted {
                        dataset,
                        query,
                        slot: Slot::Single(reply),
                    }),
                    Err(e) => {
                        self.stats.queries += 1;
                        let _ = reply.send(Err(e));
                    }
                },
                Request::SubmitBatch {
                    dataset,
                    queries,
                    reply,
                } => {
                    // Atomic admission: any invalid member rejects the
                    // whole group before any work is scheduled.
                    let verdict = queries.iter().try_for_each(|q| self.admit(&dataset, q));
                    match verdict {
                        Err(e) => {
                            self.stats.queries += queries.len() as u64;
                            let _ = reply.send(Err(e));
                        }
                        Ok(()) => {
                            let group = Rc::new(RefCell::new(GroupReply {
                                slots: vec![None; queries.len()],
                                reply: Some(reply),
                            }));
                            for (i, query) in queries.into_iter().enumerate() {
                                admitted.push(Admitted {
                                    dataset: dataset.clone(),
                                    query,
                                    slot: Slot::Grouped(group.clone(), i),
                                });
                            }
                        }
                    }
                }
                _ => unreachable!("process_submits only receives submissions"),
            }
        }

        // Group by dataset, preserving admission order within a group.
        let mut order: Vec<String> = Vec::new();
        let mut by_dataset: HashMap<String, Vec<Admitted>> = HashMap::new();
        for a in admitted {
            if !by_dataset.contains_key(&a.dataset) {
                order.push(a.dataset.clone());
            }
            by_dataset.entry(a.dataset.clone()).or_default().push(a);
        }
        for name in order {
            let group = by_dataset.remove(&name).expect("grouped above");
            self.run_dataset_group(&name, group);
        }
    }

    fn admit(&self, dataset: &str, query: &Query) -> Result<(), ServeError> {
        let ds = self
            .datasets
            .get(dataset)
            .ok_or_else(|| ServeError::UnknownDataset(dataset.to_string()))?;
        query.validate(ds.pts.len())?;
        // Dense sweeps scatter SDH sinks into u32 privatized copies; a
        // dataset large enough to wrap one is refused, never answered
        // with a wrapped count. (Shards only shrink a block's partner
        // side, so the whole dataset bounds every task.)
        if matches!(query, Query::Sdh { .. })
            && !privatized_copy_fits(self.cfg.plan.block_size, ds.pts.len() as u64)
        {
            return Err(ServeError::BadQuery(
                "dataset too large for u32 privatized histogram copies",
            ));
        }
        Ok(())
    }

    /// Execute one dataset's admitted queries: one coalesced sweep for
    /// the batchable ones + solo orders for the rest, all in flight
    /// across the worker pool at once.
    fn run_dataset_group(&mut self, name: &str, group: Vec<Admitted>) {
        let ds = &self.datasets[name];
        let key: DatasetKey = (name.to_string(), ds.gen);
        let pts = ds.pts.clone();
        let n = pts.len();
        self.stats.queries += group.len() as u64;

        let (batchable, rest): (Vec<Admitted>, Vec<Admitted>) =
            group.into_iter().partition(|a| a.query.batchable());
        let (gridded, solo): (Vec<Admitted>, Vec<Admitted>) = rest
            .into_iter()
            .partition(|a| matches!(a.query, Query::CountWithin { gridded: true, .. }));

        // Launch the solo orders first so they overlap the sweep.
        let mut solo_waits = Vec::new();
        for a in solo {
            let (reply, rx) = channel();
            let wid = self.rr % self.worker_txs.len();
            self.rr += 1;
            let order = WorkOrder::Solo {
                key: key.clone(),
                pts: pts.clone(),
                query: a.query,
                plan: self.cfg.plan,
                reply,
            };
            if self.worker_txs[wid].send(order).is_err() {
                a.slot.fill(Err(ServeError::Closed));
                continue;
            }
            solo_waits.push((a.slot, rx));
        }

        // Gridded count-withins coalesce into ONE packed sweep over the
        // shared cached catalog: one count sink per radius, launches
        // paid once for the whole group instead of once per query.
        let mut gridded_wait = None;
        if !gridded.is_empty() {
            let radii: Vec<f32> = gridded
                .iter()
                .map(|a| match a.query {
                    Query::CountWithin { radius, .. } => radius,
                    _ => unreachable!("partitioned above"),
                })
                .collect();
            self.stats.batches += 1;
            if gridded.len() > 1 {
                self.stats.coalesced_queries += gridded.len() as u64;
            }
            let (reply, rx) = channel();
            // Dataset affinity, not round-robin: the covering catalog
            // lives in one worker's cache, so every gridded order for a
            // dataset goes to the same worker and repeat radii hit it.
            let wid = {
                use std::hash::{Hash, Hasher};
                let mut h = std::collections::hash_map::DefaultHasher::new();
                name.hash(&mut h);
                (h.finish() as usize) % self.worker_txs.len()
            };
            let order = WorkOrder::Gridded {
                key: key.clone(),
                pts: pts.clone(),
                radii,
                plan: self.cfg.plan,
                reply,
            };
            if self.worker_txs[wid].send(order).is_ok() {
                gridded_wait = Some((gridded, rx));
            } else {
                for a in gridded {
                    a.slot.fill(Err(ServeError::Closed));
                }
            }
        }

        // The coalesced sweep: flatten sinks, shard, LPT, merge.
        if !batchable.is_empty() {
            let queries: Vec<Query> = batchable.iter().map(|a| a.query.clone()).collect();
            let plan = SinkPlan::plan(&queries);
            debug_assert!(plan.sinks() > 0, "batchable queries always add sinks");
            let shards = self.cfg.shards.clamp(1, n.max(1));
            let sizes: Vec<usize> = chunk_ranges(n, shards).iter().map(|r| r.len()).collect();
            let tasks = build_tasks(&sizes);
            let assignment = lpt_schedule(&tasks, &sizes, self.worker_txs.len());
            self.stats.batches += 1;
            if batchable.len() > 1 {
                self.stats.coalesced_queries += batchable.len() as u64;
            }
            self.stats.tasks += tasks.len() as u64;

            let mut waits = Vec::new();
            for (wid, dev_tasks) in assignment.into_iter().enumerate() {
                if dev_tasks.is_empty() {
                    continue;
                }
                let (reply, rx) = channel();
                let order = WorkOrder::Tasks {
                    key: key.clone(),
                    pts: pts.clone(),
                    shards,
                    tasks: dev_tasks,
                    counts: plan.counts.clone(),
                    hists: plan.hists.clone(),
                    plan: self.cfg.plan,
                    reply,
                };
                if self.worker_txs[wid].send(order).is_ok() {
                    waits.push(rx);
                }
            }

            // Merge every worker's share (integer sums and histogram
            // merges commute — the shard decomposition is invisible).
            let mut counts = vec![0u64; plan.counts.len()];
            let mut hists: Vec<Histogram> = plan
                .hists
                .iter()
                .map(|s| Histogram::zeroed(s.buckets))
                .collect();
            let mut failure: Option<ServeError> = None;
            for rx in waits {
                match rx.recv() {
                    Ok(Ok(out)) => {
                        for (acc, c) in counts.iter_mut().zip(&out.counts) {
                            *acc += c;
                        }
                        for (acc, h) in hists.iter_mut().zip(&out.hists) {
                            acc.merge(h);
                        }
                        self.stats.cache_hits += out.cache_hits;
                        self.stats.cache_misses += out.cache_misses;
                        self.stats.sim_seconds += out.sim_seconds;
                    }
                    Ok(Err(e)) => failure = Some(ServeError::Sim(e)),
                    Err(_) => failure = Some(ServeError::Closed),
                }
            }
            match failure {
                None => {
                    let results = plan.demux(&counts, hists);
                    for (a, r) in batchable.into_iter().zip(results) {
                        a.slot.fill(Ok(r));
                    }
                }
                Some(e) => {
                    for a in batchable {
                        a.slot.fill(Err(e.clone()));
                    }
                }
            }
        }

        if let Some((gridded, rx)) = gridded_wait {
            match rx.recv() {
                Ok(Ok(out)) => {
                    self.stats.cache_hits += out.cache_hits;
                    self.stats.cache_misses += out.cache_misses;
                    self.stats.sim_seconds += out.sim_seconds;
                    for (a, c) in gridded.into_iter().zip(out.counts) {
                        a.slot.fill(Ok(QueryResult::Counts(vec![c])));
                    }
                }
                Ok(Err(e)) => {
                    let e = ServeError::Sim(e);
                    for a in gridded {
                        a.slot.fill(Err(e.clone()));
                    }
                }
                Err(_) => {
                    for a in gridded {
                        a.slot.fill(Err(ServeError::Closed));
                    }
                }
            }
        }

        for (slot, rx) in solo_waits {
            match rx.recv() {
                Ok(Ok(out)) => {
                    self.stats.cache_hits += out.cache_hits;
                    self.stats.cache_misses += out.cache_misses;
                    self.stats.sim_seconds += out.sim_seconds;
                    slot.fill(Ok(out.result));
                }
                Ok(Err(e)) => slot.fill(Err(ServeError::Sim(e))),
                Err(_) => slot.fill(Err(ServeError::Closed)),
            }
        }
    }
}

// ---------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------

fn worker_loop(device: DeviceConfig, rx: Receiver<WorkOrder>) {
    let mut dev = Device::new(device);
    let mut cache = WorkerCache::default();
    while let Ok(order) = rx.recv() {
        match order {
            WorkOrder::Tasks {
                key,
                pts,
                shards,
                tasks,
                counts,
                hists,
                plan,
                reply,
            } => {
                let (h0, m0) = (cache.hits, cache.misses);
                let out = run_tasks(
                    &mut dev, &mut cache, &key, &pts, shards, &tasks, &counts, &hists, plan,
                )
                .map(|mut out| {
                    out.cache_hits = cache.hits - h0;
                    out.cache_misses = cache.misses - m0;
                    out
                });
                let _ = reply.send(out);
            }
            WorkOrder::Gridded {
                key,
                pts,
                radii,
                plan,
                reply,
            } => {
                let (h0, m0) = (cache.hits, cache.misses);
                let out =
                    run_gridded(&mut dev, &mut cache, &key, &pts, &radii, plan).map(|mut out| {
                        out.cache_hits = cache.hits - h0;
                        out.cache_misses = cache.misses - m0;
                        out
                    });
                let _ = reply.send(out);
            }
            WorkOrder::Solo {
                key,
                pts,
                query,
                plan,
                reply,
            } => {
                let (h0, m0) = (cache.hits, cache.misses);
                let out =
                    run_solo(&mut dev, &mut cache, &key, &pts, &query, plan).map(|mut out| {
                        out.cache_hits = cache.hits - h0;
                        out.cache_misses = cache.misses - m0;
                        out
                    });
                let _ = reply.send(out);
            }
        }
    }
}

/// One worker's share of a coalesced sweep: for each assigned shard
/// task, launch the multi-sink action (self joins on Register-SHM,
/// cross joins on the bipartite SHM kernel), reduce each histogram
/// sink's private copies on-device, and accumulate host-side.
#[allow(clippy::too_many_arguments)]
fn run_tasks(
    dev: &mut Device,
    cache: &mut WorkerCache,
    key: &DatasetKey,
    pts: &SoaPoints<3>,
    shards: usize,
    tasks: &[SdhTask],
    counts: &[f32],
    hists: &[HistogramSpec],
    plan: PairwisePlan,
) -> Result<TasksOut, String> {
    let uploads = cache.shard_uploads(dev, key, pts, shards).to_vec();
    let mut out = TasksOut {
        counts: vec![0; counts.len()],
        hists: hists.iter().map(|s| Histogram::zeroed(s.buckets)).collect(),
        sim_seconds: 0.0,
        cache_hits: 0,
        cache_misses: 0,
    };
    for task in tasks {
        let (a, b) = match *task {
            SdhTask::SelfJoin { chunk } => (uploads[chunk], None),
            SdhTask::CrossJoin { left, right } => (uploads[left], Some(uploads[right])),
        };
        let lc = pair_launch(a.n, plan.block_size.min(a.n.max(32)));
        let count_bufs: Vec<_> = counts
            .iter()
            .map(|_| dev.alloc_u64_zeroed(lc.total_threads() as usize))
            .collect();
        let hist_bufs: Vec<_> = hists
            .iter()
            .map(|s| dev.alloc_u32_zeroed((lc.grid_dim * s.buckets) as usize))
            .collect();
        let action = MultiQueryAction {
            counts: counts
                .iter()
                .zip(&count_bufs)
                .map(|(&radius, &out)| MultiCountSink { radius, out })
                .collect(),
            hists: hists
                .iter()
                .zip(&hist_bufs)
                .map(|(&spec, &private)| MultiHistSink { spec, private })
                .collect(),
        };
        let run = match b {
            None => dev.try_launch(
                &RegisterShmKernel::new(
                    a,
                    Euclidean,
                    action,
                    lc.block_dim,
                    PairScope::HalfPairs,
                    plan.intra,
                ),
                lc,
            ),
            Some(b) => dev.try_launch(
                &CrossShmKernel::new(a, b, Euclidean, action, lc.block_dim),
                lc,
            ),
        }
        .map_err(|e| e.to_string())?;
        out.sim_seconds += run.timing.seconds;
        for (acc, &buf) in out.counts.iter_mut().zip(&count_bufs) {
            *acc += dev.u64_slice(buf).iter().sum::<u64>();
        }
        for ((acc, spec), &private) in out.hists.iter_mut().zip(hists).zip(&hist_bufs) {
            let hout = dev.alloc_u64_zeroed(spec.buckets as usize);
            let reduce = HistogramReduceKernel {
                private,
                out: hout,
                buckets: spec.buckets,
                copies: lc.grid_dim,
            };
            let rrun = dev
                .try_launch(&reduce, reduce.launch_config(256))
                .map_err(|e| e.to_string())?;
            out.sim_seconds += rrun.timing.seconds;
            acc.merge(&Histogram::from_counts(dev.u64_slice(hout).to_vec()));
        }
    }
    Ok(out)
}

/// A dataset group's gridded count-withins, coalesced: ONE covering
/// catalog (cached; built at the group's largest radius on a miss) and
/// ONE packed multi-radius sweep feeding every query its count. Each
/// count is bit-identical to a solo [`crate::gridded_count_within`] at
/// its radius — integer sinks make the sharing invisible.
fn run_gridded(
    dev: &mut Device,
    cache: &mut WorkerCache,
    key: &DatasetKey,
    pts: &SoaPoints<3>,
    radii: &[f32],
    plan: PairwisePlan,
) -> Result<GriddedOut, String> {
    let r_max = radii.iter().copied().fold(0.0f32, f32::max);
    let cat = cache.grid_covering(dev, key, pts, r_max);
    let (counts, run) = crate::gridded::gridded_count_within_multi(dev, cat, radii, plan)
        .map_err(|e| e.to_string())?;
    Ok(GriddedOut {
        counts,
        sim_seconds: run.seconds,
        cache_hits: 0,
        cache_misses: 0,
    })
}

/// A non-batchable query, monolithic on this worker's device.
fn run_solo(
    dev: &mut Device,
    cache: &mut WorkerCache,
    key: &DatasetKey,
    pts: &SoaPoints<3>,
    query: &Query,
    plan: PairwisePlan,
) -> Result<SoloOut, String> {
    match *query {
        Query::CountWithin { radius, gridded } => {
            debug_assert!(gridded, "dense count-within is batchable");
            let out = run_gridded(dev, cache, key, pts, &[radius], plan)?;
            Ok(SoloOut {
                result: QueryResult::Counts(out.counts),
                sim_seconds: out.sim_seconds,
                cache_hits: 0,
                cache_misses: 0,
            })
        }
        Query::Knn { k } => {
            // Monomorphic dispatch over the supported k range; kNN keeps
            // its single-launch insertion order (re-sharding would merge
            // f32 ties differently), so it bypasses the batcher.
            fn go<const K: usize>(
                dev: &mut Device,
                pts: &SoaPoints<3>,
                plan: PairwisePlan,
            ) -> Result<SoloOut, String> {
                let got = knn_gpu::<3, K>(dev, pts, plan).map_err(|e| e.to_string())?;
                Ok(SoloOut {
                    result: QueryResult::Knn {
                        neighbors: got.neighbors.iter().map(|a| a.to_vec()).collect(),
                        distances: got.distances.iter().map(|a| a.to_vec()).collect(),
                    },
                    sim_seconds: got.run.timing.seconds,
                    cache_hits: 0,
                    cache_misses: 0,
                })
            }
            match k {
                1 => go::<1>(dev, pts, plan),
                2 => go::<2>(dev, pts, plan),
                3 => go::<3>(dev, pts, plan),
                4 => go::<4>(dev, pts, plan),
                5 => go::<5>(dev, pts, plan),
                6 => go::<6>(dev, pts, plan),
                7 => go::<7>(dev, pts, plan),
                8 => go::<8>(dev, pts, plan),
                _ => Err("k out of range".to_string()),
            }
        }
        ref q => unreachable!("batchable query {q:?} routed solo"),
    }
}
