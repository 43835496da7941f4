//! Differential suite for the query service: coalescing must be
//! invisible in the answers.
//!
//! The batcher's contract is that a coalesced multi-consumer sweep is
//! **bit-identical** to running each query alone — same counts, same
//! histogram buckets — for any admission mix, any shard split, any
//! worker count, and under both simulator exec modes. Counts and
//! histograms are integer-exact, so "equals the CPU reference" *is*
//! bit-identity; kNN and the gridded route are additionally pinned
//! across exec modes on a scripted workload.

use gpu_sim::{DeviceConfig, ExecMode};
use proptest::prelude::*;
use tbs_apps::serve::{Query, QueryResult, ServeConfig, ServeError, Server};
use tbs_core::histogram::HistogramSpec;
use tbs_core::point::SoaPoints;
use tbs_cpu::{count_within_reference, sdh_reference};

const BOX: f32 = 60.0;

#[derive(Debug, Clone, Copy)]
enum Layout {
    Uniform,
    Clustered,
    OnePoint,
}

fn catalog(layout: Layout, n: usize, seed: u64) -> SoaPoints<3> {
    match layout {
        Layout::Uniform => tbs_datagen::uniform_points(n, BOX, seed),
        Layout::Clustered => tbs_datagen::clustered_points(n, BOX, 5, 2.0, seed),
        Layout::OnePoint => SoaPoints::from_points(&vec![[3.0, 4.0, 5.0]; n]),
    }
}

/// The ground truth for one batchable query, integer-exact.
fn oracle(pts: &SoaPoints<3>, q: &Query) -> QueryResult {
    match q {
        Query::PairCounts { radii } => QueryResult::Counts(
            radii
                .iter()
                .map(|&r| count_within_reference(pts, r))
                .collect(),
        ),
        Query::Sdh { buckets, width } => QueryResult::Histogram(sdh_reference(
            pts,
            HistogramSpec::new(*buckets, width * *buckets as f32),
        )),
        Query::CountWithin { radius, .. } => {
            QueryResult::Counts(vec![count_within_reference(pts, *radius)])
        }
        Query::Knn { .. } => unreachable!("kNN has no batch oracle here"),
    }
}

fn query_strategy() -> impl Strategy<Value = Query> {
    (
        0u32..3,
        prop::collection::vec(prop::sample::select(vec![2.0f32, 8.0, 15.0, 40.0]), 1..4),
        prop::sample::select(vec![1u32, 4, 16, 33]),
        prop::sample::select(vec![1.0f32, 2.5]),
        prop::sample::select(vec![5.0f32, 20.0]),
    )
        .prop_map(|(kind, radii, buckets, width, radius)| match kind {
            0 => Query::PairCounts { radii },
            1 => Query::Sdh { buckets, width },
            _ => Query::CountWithin {
                radius,
                gridded: false,
            },
        })
}

fn exec_strategy() -> impl Strategy<Value = ExecMode> {
    prop::sample::select(vec![
        ExecMode::Sequential,
        ExecMode::Parallel { threads: 2 },
    ])
}

fn layout_strategy() -> impl Strategy<Value = Layout> {
    prop::sample::select(vec![Layout::Uniform, Layout::Clustered, Layout::OnePoint])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The core service contract: a coalesced batch == one-at-a-time
    /// submissions == the CPU oracle, bit for bit, for any admission
    /// mix, worker count, shard split, and exec mode.
    #[test]
    fn batched_queries_equal_singles_and_oracles(
        n in 16usize..192,
        layout in layout_strategy(),
        seed in 0u64..1_000,
        queries in prop::collection::vec(query_strategy(), 1..5),
        workers in 1usize..4,
        shards in 1usize..5,
        exec in exec_strategy(),
    ) {
        let pts = catalog(layout, n, seed);
        let mut cfg = ServeConfig::default().with_workers(workers);
        cfg.shards = shards;
        cfg.device = DeviceConfig::titan_x().with_exec_mode(exec);
        Server::run(cfg, |h| {
            h.register_dataset("d", pts.clone()).expect("register");
            let batched = h.submit_batch("d", queries.clone()).expect("batch");
            prop_assert_eq!(batched.len(), queries.len());
            for (q, got) in queries.iter().zip(&batched) {
                let single = h.submit("d", q.clone()).expect("single");
                prop_assert_eq!(got, &single, "batched vs single mismatch for {:?}", q);
                prop_assert_eq!(got, &oracle(&pts, q), "oracle mismatch for {:?}", q);
            }
        });
    }
}

/// The same scripted workload on a sequential-exec server and a
/// parallel-exec server: answers AND accumulated simulated seconds must
/// be bit-identical (the engine's determinism contract extends through
/// the service).
#[test]
fn exec_modes_serve_identically() {
    let pts = tbs_datagen::uniform_points::<3>(512, BOX, 42);
    let script = |h: tbs_apps::serve::ServerHandle| {
        h.register_dataset("d", pts.clone()).expect("register");
        let mut results = h
            .submit_batch(
                "d",
                vec![
                    Query::PairCounts {
                        radii: vec![4.0, 9.0, 30.0],
                    },
                    Query::Sdh {
                        buckets: 24,
                        width: 2.0,
                    },
                    Query::CountWithin {
                        radius: 12.0,
                        gridded: false,
                    },
                ],
            )
            .expect("batch");
        results.push(
            h.submit(
                "d",
                Query::CountWithin {
                    radius: 12.0,
                    gridded: true,
                },
            )
            .expect("gridded"),
        );
        results.push(h.submit("d", Query::Knn { k: 3 }).expect("knn"));
        let stats = h.stats().expect("stats");
        (results, stats)
    };
    let mut cfg = ServeConfig::default().with_workers(2);
    cfg.device = DeviceConfig::titan_x().with_exec_mode(ExecMode::Sequential);
    let (seq_results, seq_stats) = Server::run(cfg.clone(), script);
    cfg.device = DeviceConfig::titan_x().with_exec_mode(ExecMode::Parallel { threads: 3 });
    let (par_results, par_stats) = Server::run(cfg, script);
    assert_eq!(seq_results, par_results);
    assert_eq!(
        seq_stats.sim_seconds.to_bits(),
        par_stats.sim_seconds.to_bits(),
        "simulated time must not depend on host parallelism"
    );
    assert_eq!(seq_stats.queries, par_stats.queries);
    assert_eq!(seq_stats.tasks, par_stats.tasks);

    // And the gridded route really pruned to the same integer count.
    assert_eq!(seq_results[2], seq_results[3]);
}

/// A burst of gridded count-withins coalesces into one packed sweep
/// over a shared covering catalog — and every count still equals its
/// solo run and the CPU oracle, bit for bit.
#[test]
fn gridded_queries_coalesce_and_stay_exact() {
    let pts = tbs_datagen::uniform_points::<3>(384, BOX, 23);
    let radii = [4.0f32, 11.0, 7.0, 11.0, 2.5];
    Server::run(ServeConfig::default().with_workers(2), |h| {
        h.register_dataset("d", pts.clone()).expect("register");
        let queries: Vec<Query> = radii
            .iter()
            .map(|&radius| Query::CountWithin {
                radius,
                gridded: true,
            })
            .collect();
        let before = h.stats().expect("stats");
        let batched = h.submit_batch("d", queries.clone()).expect("batch");
        let after = h.stats().expect("stats");
        assert_eq!(
            after.batches - before.batches,
            1,
            "the whole gridded burst must share one sweep"
        );
        assert_eq!(after.coalesced_queries - before.coalesced_queries, 5);
        for (q, got) in queries.iter().zip(&batched) {
            assert_eq!(got, &oracle(&pts, q), "oracle mismatch for {q:?}");
            let solo = h.submit("d", q.clone()).expect("solo");
            assert_eq!(got, &solo, "batched vs solo mismatch for {q:?}");
        }
        // Solo repeats ride the covering catalog built for the burst.
        let final_stats = h.stats().expect("stats");
        assert!(
            final_stats.cache_hits >= 5,
            "repeat gridded queries must reuse the covering grid: {final_stats:?}"
        );
    });
}

/// Concurrent clients hammering one server stay exact: every reply
/// equals the oracle no matter how the dispatcher interleaves or
/// coalesces the stream.
#[test]
fn concurrent_clients_get_exact_answers() {
    let pts = tbs_datagen::uniform_points::<3>(256, BOX, 7);
    let cfg = ServeConfig::default().with_workers(2);
    Server::run(cfg, |h| {
        h.register_dataset("d", pts.clone()).expect("register");
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let h = h.clone();
                let pts = &pts;
                s.spawn(move || {
                    for i in 0..3u64 {
                        let radius = 3.0 + (t * 3 + i) as f32 * 2.0;
                        let q = Query::PairCounts {
                            radii: vec![radius],
                        };
                        let got = h.submit("d", q.clone()).expect("submit");
                        assert_eq!(got, oracle(pts, &q), "client {t} query {i}");
                    }
                });
            }
        });
        let stats = h.stats().expect("stats");
        assert_eq!(stats.queries, 12);
        assert!(
            stats.cache_hits > 0,
            "repeat queries must hit the shard cache: {stats:?}"
        );
    });
}

/// Admission is atomic per batch and precise per error.
#[test]
fn admission_errors_are_atomic_and_precise() {
    let pts = tbs_datagen::uniform_points::<3>(64, BOX, 1);
    Server::run(ServeConfig::default(), |h| {
        h.register_dataset("d", pts.clone()).expect("register");
        // Unknown dataset.
        match h.submit("nope", Query::Knn { k: 2 }) {
            Err(ServeError::UnknownDataset(name)) => assert_eq!(name, "nope"),
            other => panic!("expected UnknownDataset, got {other:?}"),
        }
        // One bad member rejects the whole batch — including the valid
        // members, which must not run.
        let before = h.stats().expect("stats");
        let res = h.submit_batch(
            "d",
            vec![
                Query::PairCounts { radii: vec![5.0] },
                Query::Sdh {
                    buckets: 0,
                    width: 1.0,
                },
            ],
        );
        assert!(matches!(res, Err(ServeError::BadQuery(_))), "{res:?}");
        let after = h.stats().expect("stats");
        assert_eq!(
            before.batches, after.batches,
            "a rejected batch must not launch a sweep"
        );
        // Parameter validation catches each bad shape.
        for bad in [
            Query::PairCounts { radii: vec![] },
            Query::PairCounts {
                radii: vec![f32::NAN],
            },
            Query::CountWithin {
                radius: -1.0,
                gridded: false,
            },
            Query::Knn { k: 0 },
            Query::Knn { k: 9 },
            Query::Knn { k: 64 },
        ] {
            assert!(
                matches!(h.submit("d", bad.clone()), Err(ServeError::BadQuery(_))),
                "{bad:?} must be rejected"
            );
        }
    });
}

/// Re-registering a dataset swaps the data *and* invalidates every
/// worker cache: answers reflect the new points immediately.
#[test]
fn reregistration_serves_fresh_data() {
    let a = tbs_datagen::uniform_points::<3>(128, BOX, 11);
    let b = tbs_datagen::uniform_points::<3>(96, BOX, 12);
    Server::run(ServeConfig::default().with_workers(2), |h| {
        let q = Query::PairCounts { radii: vec![10.0] };
        let g0 = h.register_dataset("d", a.clone()).expect("register a");
        assert_eq!(h.submit("d", q.clone()).expect("a"), oracle(&a, &q));
        let g1 = h.register_dataset("d", b.clone()).expect("register b");
        assert!(g1 > g0, "generation must advance on re-registration");
        assert_eq!(h.submit("d", q.clone()).expect("b"), oracle(&b, &q));
        let stats = h.stats().expect("stats");
        assert_eq!(stats.datasets, 1, "same name re-registered");
    });
}

/// Non-finite coordinates are refused at registration — they would
/// otherwise fault a gridded sweep on a worker — and a refused
/// registration leaves the service answering the valid dataset exactly.
#[test]
fn non_finite_coordinates_are_refused_at_registration() {
    let good = tbs_datagen::uniform_points::<3>(256, BOX, 21);
    Server::run(ServeConfig::default().with_workers(2), |h| {
        h.register_dataset("d", good.clone()).expect("register");
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            for d in 0..3 {
                let mut pts: Vec<[f32; 3]> = good.iter().collect();
                pts[17][d] = bad;
                let res = h.register_dataset("d", SoaPoints::from_points(&pts));
                assert!(
                    matches!(res, Err(ServeError::BadQuery(_))),
                    "coordinate {bad} in dimension {d}: {res:?}"
                );
            }
        }
        for q in [
            Query::PairCounts {
                radii: vec![4.0, 12.0],
            },
            Query::CountWithin {
                radius: 6.0,
                gridded: true,
            },
        ] {
            assert_eq!(h.submit("d", q.clone()).expect("query"), oracle(&good, &q));
        }
        assert_eq!(h.stats().expect("stats").datasets, 1);
    });
}
