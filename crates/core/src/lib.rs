//! # tbs-core — a framework for 2-body statistics on (simulated) GPUs
//!
//! This crate is the primary contribution of the `twobody-rs`
//! reproduction of *"Efficient 2-Body Statistics Computation on GPUs:
//! Parallelization & Beyond"* (ICPP 2016): a framework in which any
//! 2-body statistic — a computation over all pairs of an N-point dataset
//! — is assembled from three orthogonal choices:
//!
//! 1. **a distance function** ([`distance`]) — Euclidean, cosine, RBF, …;
//! 2. **a pairwise-computation kernel** ([`kernels`]) — how input data is
//!    staged: naive global loads, shared-memory tiling (SHM-SHM /
//!    Register-SHM), the read-only cache (Register-ROC), or register
//!    tiling via warp shuffle, with regular or load-balanced intra-block
//!    iteration;
//! 3. **an output action** ([`output`]) — the paper's Type-I (registers),
//!    Type-II (privatized shared-memory histograms + reduction) and
//!    Type-III (global memory) output classes.
//!
//! The [`analytic`] module provides closed-form access-count models
//! (including the paper's equations 2–7) that mirror the simulator's
//! accounting rules exactly, and [`plan`] uses them to *select* the best
//! kernel combination for a problem — the "framework that can
//! automatically generate optimized code for any new 2-BS problem" the
//! paper sets as its vision.
//!
//! Applications built from these pieces (2-PCF, SDH, RDF, kNN, KDE,
//! joins, Gram matrices) live in the `tbs-apps` crate.
//!
//! ## Composing a 2-BS kernel
//!
//! ```
//! use gpu_sim::{Device, DeviceConfig};
//! use tbs_core::kernels::{pair_launch, IntraMode, PairScope, RegisterShmKernel};
//! use tbs_core::{CountWithinRadius, Euclidean, SoaPoints};
//!
//! // Twenty points on a line; count pairs closer than 2.5.
//! let pts = SoaPoints::<2>::from_points(
//!     &(0..20).map(|i| [i as f32, 0.0]).collect::<Vec<_>>(),
//! );
//! let mut dev = Device::new(DeviceConfig::titan_x());
//! let input = pts.upload(&mut dev);
//! let lc = pair_launch(input.n, 32);
//! let out = dev.alloc_u64_zeroed(lc.total_threads() as usize);
//!
//! // The paper's Algorithm 3 (Register-SHM) with a Type-I output.
//! let kernel = RegisterShmKernel::new(
//!     input,
//!     Euclidean,
//!     CountWithinRadius { radius: 2.5, out },
//!     32,
//!     PairScope::HalfPairs,
//!     IntraMode::LoadBalanced,
//! );
//! let run = dev.launch(&kernel, lc);
//! let count: u64 = dev.u64_slice(out).iter().sum();
//! assert_eq!(count, 19 + 18); // offsets 1 and 2 on the integer line
//! assert!(run.timing.seconds > 0.0);
//! ```

pub mod analytic;
pub mod distance;
pub mod grid;
pub mod histogram;
pub mod kernels;
pub mod output;
pub mod plan;
pub mod point;

pub use grid::{
    candidate_cross_pairs, candidate_pairs, cross_prune_stats, prune_stats, CellPair, GridGeometry,
    GridOptions, PruneStats, RadialBins, UniformGrid,
};

pub use distance::{
    CosineDissimilarity, DistanceKernel, DotProduct, Euclidean, GaussianRbf, Manhattan,
    PeriodicEuclidean, SquaredEuclidean,
};
pub use histogram::{Histogram, HistogramSpec};
pub use kernels::{
    CrossShmKernel, HistogramReduceKernel, IntraMode, NaiveKernel, PairScope, RegisterRocKernel,
    RegisterShmKernel, ShmShmKernel, ShuffleKernel, SumReduceKernel,
};
pub use output::{
    privatized_copy_fits, CountWithinRadius, GlobalHistogramAction, KdeAction, KnnAction,
    MatrixWriteAction, MultiCopyHistogramAction, MultiCountSink, MultiHistSink, MultiQueryAction,
    MultiQueryBlock, OutputClass, PairAction, PairListAction, SharedHistogramAction,
};
pub use point::{DeviceSoa, SoaPoints};
