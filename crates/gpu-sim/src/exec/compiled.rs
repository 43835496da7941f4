//! The plan compiler: whole kernel plans lowered to closed-form host
//! passes.
//!
//! The fused executor (`exec::fused` + `WarpCtx::fused_tile_pass`)
//! removed the per-*step* interpreter dispatch from the inner tile loop
//! but still re-derives every tally formula — coalescing sectors,
//! bank-conflict degrees, scatter contention, predicate overlap — on
//! every call, and it never covered the three other stages of a tiling
//! kernel plan: the cooperative tile fetch, the triangular intra-block
//! phase, and the ROC-sourced intra gathers. Those stages still run
//! op by op, one interpreter dispatch per warp instruction, and at
//! realistic sizes (the intra triangle is `B²/2` pairs per block) they
//! dominate host wall-clock.
//!
//! This module *lowers* a `(distance, action, tile shape)` plan once —
//! [`CompiledKernel::lower`] — into straight-line passes whose tally
//! charges are precomputed closed forms:
//!
//! * [`BlockCtx::compiled_tile_load`] — the whole cooperative
//!   global→shared tile fetch of every warp in one call.
//! * [`WarpCtx::compiled_euclidean_tile`] — the inner tile pass
//!   (the fused executor's scope) with a branch-free sqrt-free count
//!   loop and closed-form predicate-overlap accounting.
//! * [`WarpCtx::compiled_intra_regular`] — the triangular intra-block
//!   phase (`IntraMode::Regular`), previously a `divergent_loop` of
//!   op-by-op iterations, now one call with arithmetic-series charge
//!   totals.
//!
//! ## The contract
//!
//! Bit-identity with the op-by-op route in everything the differential
//! suite compares: outputs, the full [`AccessTally`], L2/ROC cache state
//! (hit/miss splits, eviction order) and first-fault behavior. Every
//! pass therefore pre-flights all faults it could hit and returns
//! `false` **with no side effects** on any unsupported shape — a
//! non-prefix mask, a foreign consumer, a would-fault access, a
//! speculation-abandoning read — and the caller falls back to the
//! fused or op-by-op route, which doubles as the differential oracle.
//!
//! Only host-side [`crate::tally::InterpStats`] differ between routes
//! (`compiled_ops` / `compiled_lane_ops` instead of per-op dispatches);
//! that split is exactly the fused executor's precedent.
//!
//! ## Why `s < T` can replace `sqrt(s) < r`
//!
//! The 2-PCF hot loop compares `sqrt(s) < radius` per pair. `sqrt` is
//! monotone on `[0, ∞)` and every lane's `s` is a sum of `mul_add`
//! squares (never negative, possibly NaN). [`sqrt_lt_threshold`]
//! computes the unique `T` with `s < T ⟺ s.sqrt() < radius` for every
//! such `s` (NaN fails both sides), so the compiled count loop drops
//! the sqrt *without changing a single count* — verified exhaustively
//! around the boundary by the unit tests below.

use crate::config::DeviceConfig;
use crate::exec::block::BlockCtx;
use crate::exec::fused::{FusedConsumer, FusedPred, FusedSink, FusedSrc};
use crate::exec::mask::Mask;
use crate::exec::warp::{charge_lanes, WarpCtx};
use crate::mem::{BufF32, ScatterScratch, ShmF32, ShmU32};
use crate::{F32x32, U32x32, U64x32, WARP_SIZE};

/// The output-sink shape of a lowered plan, declared by the action
/// (`PairAction::compiled_sink` in `tbs-core`). Mirrors
/// [`FusedConsumer`] minus the borrowed accumulator state: lowering
/// happens once per block, before any per-warp state exists.
#[derive(Debug, Clone, PartialEq)]
pub enum CompiledSinkSpec {
    /// Count pairs with `distance < radius` (2-PCF).
    CountLt {
        /// Strict comparison radius.
        radius: f32,
    },
    /// Sum the distance values (KDE).
    Sum,
    /// Privatized shared-memory histogram (SDH).
    Histogram {
        /// Reciprocal bucket width (`HistogramSpec::inv_width`).
        inv_width: f32,
        /// Highest bucket index (`buckets − 1`).
        hmax: u32,
    },
    /// Coalesced multi-query batch: every distance feeds each count
    /// sink and each histogram sink (`MultiQueryAction`). Sinks are
    /// declared in the action's partition order — counts first, then
    /// histograms — which is also the order every route feeds them.
    Multi {
        /// Count-sink radii, in sink order.
        counts: Vec<f32>,
        /// Histogram-sink `(inv_width, hmax)` geometry, in sink order.
        hists: Vec<(f32, u32)>,
    },
}

/// A lowered histogram sink: the bucket geometry plus whether the
/// vectorized bucketing of [`floor_bucket_exact`] is exact for it.
#[derive(Debug, Clone, PartialEq)]
struct LoweredHist {
    inv_width: f32,
    hmax: u32,
    /// `inv_width` finite and positive and `hmax < 2¹⁶` — the domain on
    /// which [`floor_bucket_exact`] equals the saturating cast chain.
    /// Degenerate geometry keeps the scalar cast chain.
    exact: bool,
}

impl LoweredHist {
    fn lower(inv_width: f32, hmax: u32) -> Self {
        LoweredHist {
            inv_width,
            hmax,
            exact: inv_width.is_finite() && inv_width > 0.0 && hmax < 1 << 16,
        }
    }
}

/// Which partner-tile storage an intra-block compiled pass reads.
pub enum CompiledTile<'t, const D: usize> {
    /// Partners gathered from a shared-memory tile (local indices).
    Shared(&'t [ShmF32; D]),
    /// Partners gathered through the read-only cache (global indices).
    Roc(&'t [BufF32; D]),
}

/// A kernel plan lowered to closed-form host passes: the sqrt-free
/// comparison threshold, the per-step instruction widths, and the
/// hot tile shape's predicate-overlap counts, all computed once at
/// `lower` time instead of on every dispatch.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledKernel {
    /// `s < threshold ⟺ s.sqrt() < radius` for all non-negative `s`.
    threshold: f32,
    /// The radius the threshold was derived from; a consumer carrying
    /// any other radius declines the pass (wrong plan).
    radius: f32,
    sink: CompiledSinkSpec,
    dims: u32,
    /// The plan's full tile length (= block size).
    full_steps: u32,
    /// Precomputed step counts for the hot shape: a full tile under a
    /// full warp with no predicate (`npm` executed steps, `sum_apm`
    /// active lane-steps).
    full_npm: u64,
    full_sum_apm: u64,
    /// Warp instructions per executed inner step (distance + consumer
    /// + one shared atomic per histogram sink when applicable).
    wi: u64,
    /// ALU instructions per executed inner step.
    per: u64,
    /// Histogram sinks per pair (0 for CountLt/Sum, 1 for Histogram,
    /// the hist-partition length for Multi).
    n_hist: u64,
    /// Lowered histogram geometry, in sink order.
    hists: Vec<LoweredHist>,
    /// Per count sink: `(radius, sqrt_lt_threshold(radius))`, in sink
    /// order (Multi only; the single CountLt sink uses `threshold`).
    count_thresholds: Vec<(f32, f32)>,
}

/// Smallest `T` such that `s < T ⟺ s.sqrt() < radius` for every
/// non-negative (or NaN) `f32` value `s`.
///
/// `T` is the infimum of `{ s ≥ 0 : s.sqrt() ≥ radius }`: we start from
/// `radius²` and ulp-walk to the exact boundary, so the equivalence
/// holds at the representable values adjacent to it. Degenerate radii:
/// `radius ≤ 0` or NaN never accepts any `s` (`T = 0`); `radius = +inf`
/// accepts every finite `s` (`T = +inf`, and `s = +inf` fails both
/// sides only through the `sqrt` form — see below — so +inf radii keep
/// the sqrt in [`WarpCtx::compiled_euclidean_tile`]).
pub fn sqrt_lt_threshold(radius: f32) -> f32 {
    // The negated form is the point: NaN radii must land in this arm.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    if !(radius > 0.0) {
        // radius ≤ 0 or NaN: sqrt(s) ≥ 0 never satisfies `< radius`.
        return 0.0;
    }
    if radius == f32::INFINITY {
        return f32::INFINITY;
    }
    let sq = radius * radius;
    let mut t = if sq.is_finite() { sq } else { f32::MAX };
    // Walk up while `t` itself would still be accepted: T must exclude
    // every s with sqrt(s) ≥ radius, so t.sqrt() < radius means t is
    // too small to be the boundary.
    while t.sqrt() < radius {
        t = f32::from_bits(t.to_bits() + 1);
    }
    // Walk down while the predecessor is still excluded by the sqrt
    // form: then it must be excluded by `s < T` too.
    loop {
        let p = f32::from_bits(t.to_bits() - 1);
        if p.sqrt() < radius {
            break;
        }
        t = p;
    }
    t
}

impl CompiledKernel {
    /// Lower a plan. Returns `None` when the compiled route is off (or
    /// overridden by scalar-reference mode) so call sites can hold an
    /// `Option<CompiledKernel>` and skip every compiled attempt.
    pub fn lower(
        cfg: &DeviceConfig,
        dims: u32,
        full_steps: u32,
        sink: CompiledSinkSpec,
    ) -> Option<CompiledKernel> {
        if !cfg.compiled || cfg.scalar_reference {
            return None;
        }
        let radius = match sink {
            CompiledSinkSpec::CountLt { radius } => radius,
            _ => 0.0,
        };
        let dist_cost = 2 * dims as u64 + 1; // Euclidean: sub+fma per dim, sqrt
        let (consumer_alu, n_hist) = match &sink {
            CompiledSinkSpec::CountLt { .. } => (2, 0),
            CompiledSinkSpec::Sum => (1, 0),
            CompiledSinkSpec::Histogram { .. } => (2, 1),
            CompiledSinkSpec::Multi { counts, hists } => (
                2 * (counts.len() as u64 + hists.len() as u64),
                hists.len() as u64,
            ),
        };
        let hists = match &sink {
            CompiledSinkSpec::Histogram { inv_width, hmax } => {
                vec![LoweredHist::lower(*inv_width, *hmax)]
            }
            CompiledSinkSpec::Multi { hists, .. } => hists
                .iter()
                .map(|&(inv_width, hmax)| LoweredHist::lower(inv_width, hmax))
                .collect(),
            _ => Vec::new(),
        };
        let count_thresholds = match &sink {
            CompiledSinkSpec::Multi { counts, .. } => {
                counts.iter().map(|&r| (r, sqrt_lt_threshold(r))).collect()
            }
            _ => Vec::new(),
        };
        let per = dist_cost + consumer_alu;
        Some(CompiledKernel {
            threshold: sqrt_lt_threshold(radius),
            radius,
            sink,
            dims,
            full_steps,
            full_npm: full_steps as u64,
            full_sum_apm: full_steps as u64 * WARP_SIZE as u64,
            wi: per + n_hist,
            per,
            n_hist,
            hists,
            count_thresholds,
        })
    }

    /// The sqrt-free comparison threshold (exposed for tests).
    pub fn threshold(&self) -> f32 {
        self.threshold
    }

    /// Executed-step counts `(npm, Σ active lanes)` for one inner tile
    /// pass — the quantities `fused_tile_impl` accumulates step by
    /// step, in closed form for the hot shapes and by a cheap mask walk
    /// for predicated ones.
    fn pass_counts(&self, len: u32, pred: FusedPred, valid: Mask) -> (u64, u64) {
        let steps = len as u64;
        let a = valid.count() as u64;
        match pred {
            FusedPred::All => {
                if len == self.full_steps && a == WARP_SIZE as u64 {
                    (self.full_npm, self.full_sum_apm)
                } else {
                    (steps, steps * a)
                }
            }
            _ => {
                // Predicated passes are short (≤ one tile) and rare
                // relative to the All-pred hot path; an exact mask walk
                // keeps them trivially bit-identical.
                let mut npm = 0u64;
                let mut sum_apm = 0u64;
                for j in 0..len {
                    let pm = WarpCtx::fused_pred_mask(pred, j, valid);
                    if pm.any() {
                        npm += 1;
                        sum_apm += pm.count() as u64;
                    }
                }
                (npm, sum_apm)
            }
        }
    }
}

/// Resolved per-step view of a [`FusedSrc`] for the compiled compute
/// loops: column slices plus a start offset, or a register fragment.
enum SrcView<'s, const D: usize> {
    Cols { cols: [&'s [f32]; D], start: usize },
    Lanes(&'s [F32x32; D]),
}

impl<'s, const D: usize> SrcView<'s, D> {
    #[inline]
    fn point(&self, j: usize) -> [f32; D] {
        match self {
            SrcView::Cols { cols, start } => std::array::from_fn(|d| cols[d][start + j]),
            SrcView::Lanes(l) => std::array::from_fn(|d| l[d][j % WARP_SIZE]),
        }
    }
}

/// One lane's Euclidean partial sum against one point — the exact
/// `Euclidean::eval_host` operation sequence minus the final sqrt:
/// per dimension ascending, `diff = own - p; s = diff.mul_add(diff, s)`.
#[inline(always)]
fn euclid_sumsq<const D: usize>(own: &[f32; D], p: &[f32; D]) -> f32 {
    let mut s = 0.0f32;
    for d in 0..D {
        let diff = own[d] - p[d];
        s = diff.mul_add(diff, s);
    }
    s
}

/// Per-block reusable buffers for the compiled output-stage passes,
/// owned by [`BlockCtx`] so the hot tile loop never reallocates: the
/// deferred bucket batches and the scatter walk's per-bank counters.
/// Contents are dead between passes (the bucket batches are cleared,
/// the scatter counters are reset via its touched list), so reuse
/// cannot leak state across passes — only the capacity persists.
#[derive(Debug, Default)]
pub struct CompiledScratch {
    /// Bucket indices of the pass's full-warp histogram steps,
    /// step-major, batched for one
    /// [`crate::mem::SharedSpace::scatter_account_update_rows`] walk.
    b: Vec<u32>,
    /// Per-sink bucket batches for the Multi consumer (same layout as
    /// `b`, indexed in histogram-sink declaration order).
    bs: Vec<Vec<u32>>,
    /// Per-sink partial-warp batches for the Multi consumer (same
    /// layout as `p`/`pn`: active-lane buckets concatenated, with the
    /// parallel vector holding each deferred step's lane count).
    pbs: Vec<Vec<u32>>,
    /// Per-sink per-step lane counts (indexes `pbs`).
    pbn: Vec<Vec<u32>>,
    /// Active-lane buckets of the pass's partial-warp (or
    /// degenerate-geometry) histogram steps, concatenated; `pn` holds
    /// each deferred step's lane count.
    p: Vec<u32>,
    /// Per partial step, its active-lane count (indexes `p`).
    pn: Vec<u32>,
    /// Persistent per-bank chain state for the merged scatter walk.
    scatter: ScatterScratch,
}

/// One lane's exact bucket index from an already-sqrt'd distance,
/// branch-free and vectorizable: bit-identical to the op-by-op chain
/// `((d * inv_width) as u32).min(hmax)` under the callers' gate
/// ([`LoweredHist::exact`]: a finite positive `inv_width` and
/// `hmax` < 2¹⁶), with `hmax_f == hmax as f32`
/// (exact, since `hmax` < 2²⁴) and `d ≥ 0` or NaN.
///
/// Rust's saturating float→int cast (`fptosi.sat`) scalarizes on
/// AVX2, so the cast is replaced by a clamp plus the 2²³
/// magic-number floor — every step lowers to plain vector ops
/// (`vmaxps`/`vminps`/`vaddps`/`vpand`/`vcmpps`):
///
/// - `t = (d * inv_width).max(0.0).min(hmax_f)` ∈ [0, hmax]: NaN
///   becomes 0 (`max` returns the non-NaN operand), matching the
///   saturating cast's NaN → 0; products above `hmax` clamp to
///   `hmax_f`, matching cast-then-`min`; in-range products are
///   untouched, and `⌊t⌋` then equals the cast's truncation.
/// - `r = t + 2²³` rounds to `2²³ + rne(t)` (the sum sits in
///   [2²³, 2²⁴) where the ulp is 1), so `r`'s low 23 mantissa bits
///   are `rne(t)`, round-half-even's integer; `f = r − 2²³` recovers
///   it exactly (the difference is a representable integer ≤ 2¹⁶).
/// - `rne(t)` is either `⌊t⌋` or `⌊t⌋ + 1`, and overshoots exactly
///   when `f > t` — subtracting that flag yields `⌊t⌋`.
#[inline(always)]
fn floor_bucket_exact(d: f32, inv_width: f32, hmax_f: f32) -> u32 {
    const MAGIC: f32 = 8_388_608.0; // 2^23
    let t = (d * inv_width).max(0.0).min(hmax_f);
    let r = t + MAGIC;
    let f = r - MAGIC;
    (r.to_bits() & 0x007F_FFFF) - ((f > t) as u32)
}

/// Vectorized exact bucketing of one full-warp row of squared
/// distances: lane `l` gets `((s[l].sqrt() * inv_width) as
/// u32).min(hmax)`, via [`floor_bucket_exact`] (same bits, vector
/// codegen).
#[inline]
fn bucket_row_exact(row: &[f32], inv_width: f32, hmax: u32, out: &mut [u32; WARP_SIZE]) {
    let hf = hmax as f32;
    for (b, &s) in out.iter_mut().zip(row.iter()) {
        *b = floor_bucket_exact(s.sqrt(), inv_width, hf);
    }
}

/// One lane's sqrt-free count over the column range `[j0, j1)`: how many
/// tile elements sit strictly inside the lowered squared threshold.
///
/// This is the innermost loop of every compiled CountLt pass, written so
/// LLVM can autovectorize it: the columns are re-sliced to exactly the
/// scanned range (hoisting every bounds check out of the loop), the
/// per-element arithmetic is the scalar `euclid_sumsq` chain (so each
/// element's bits match the op-by-op route no matter how wide the
/// vectorizer goes), and the accumulator is a plain `u32` reduction
/// (tile ranges never exceed a block, far below `u32::MAX`).
#[inline(always)]
fn count_lt_cols<const D: usize>(
    own: &[f32; D],
    cols: &[&[f32]; D],
    j0: usize,
    j1: usize,
    thr: f32,
) -> u64 {
    let n = j1 - j0;
    let c: [&[f32]; D] = std::array::from_fn(|d| &cols[d][j0..j0 + n]);
    let mut cnt = 0u32;
    // Indexing `j` across all D re-sliced columns (rather than zipping
    // iterators) is the shape LLVM packs into vector lanes here; see
    // the module doc.
    #[allow(clippy::needless_range_loop)]
    for j in 0..n {
        let mut s = 0.0f32;
        for d in 0..D {
            let diff = own[d] - c[d][j];
            s = diff.mul_add(diff, s);
        }
        cnt += (s < thr) as u32;
    }
    cnt as u64
}

impl<'b, 'a> WarpCtx<'b, 'a> {
    /// Compiled inner tile pass: the scope of
    /// [`WarpCtx::fused_euclidean_tile`], executed from the lowered
    /// plan. Charges are bit-identical to the fused pass (which is
    /// bit-identical to op-by-op); the compute loop is lane-major,
    /// branch-free, and — for the count sink — sqrt-free via the
    /// lowered threshold.
    ///
    /// Returns `false` with no side effects whenever a precondition
    /// fails, exactly like the fused pass; additionally declines when
    /// the consumer does not match the lowered sink (wrong plan). The
    /// histogram and multi sinks run here too: bucketing is one sqrt
    /// per lane and the branch-free [`floor_bucket_exact`] where the
    /// geometry allows it, and the scatter's accounting and data update
    /// share one walk
    /// ([`crate::mem::SharedSpace::scatter_account_update_rows`]) over
    /// the block's persistent scratch.
    #[allow(clippy::too_many_arguments)]
    pub fn compiled_euclidean_tile<const D: usize>(
        &mut self,
        ck: &CompiledKernel,
        src: FusedSrc<'_, D>,
        len: u32,
        pred: FusedPred,
        own: &[F32x32; D],
        consumer: FusedConsumer<'_>,
        valid: Mask,
    ) -> bool {
        if !self.blk.cfg.compiled
            || self.blk.cfg.scalar_reference
            || self.blk.dead()
            || len == 0
            || !valid.any()
            || !valid.is_prefix()
            || ck.dims != D as u32
        {
            return false;
        }
        // Consumer ↔ lowered-sink agreement: every parameter the
        // lowered plan baked in (radii, bucket geometry, sink order)
        // must match the consumer bit for bit, else this is the wrong
        // plan and the pass declines.
        match (&consumer, &ck.sink) {
            (FusedConsumer::CountLt { radius, .. }, CompiledSinkSpec::CountLt { radius: r })
                if radius.to_bits() == r.to_bits() => {}
            (FusedConsumer::Sum { .. }, CompiledSinkSpec::Sum) => {}
            (
                FusedConsumer::Histogram {
                    inv_width, hmax, ..
                },
                CompiledSinkSpec::Histogram {
                    inv_width: iw,
                    hmax: h,
                },
            ) if inv_width.to_bits() == iw.to_bits() && hmax == h => {}
            (FusedConsumer::Multi(sinks), CompiledSinkSpec::Multi { counts, hists }) => {
                // The consumer arrives in partition order (counts then
                // hists, each in declaration order) — the same order
                // `MultiQueryAction::compiled_sink` lowered.
                let mut cs = counts.iter();
                let mut hs = hists.iter();
                let agree = sinks.iter().all(|s| match s {
                    FusedSink::CountLt { radius, .. } => {
                        cs.next().is_some_and(|r| r.to_bits() == radius.to_bits())
                    }
                    FusedSink::Histogram {
                        inv_width, hmax, ..
                    } => hs
                        .next()
                        .is_some_and(|&(iw, h)| iw.to_bits() == inv_width.to_bits() && h == *hmax),
                });
                if !agree || cs.next().is_some() || hs.next().is_some() {
                    return false;
                }
            }
            _ => return false,
        }
        // Pre-flight every fault/abandon the pass could hit (same
        // checks, same order as the fused pass).
        match &src {
            FusedSrc::SharedBroadcast(tile) => {
                if tile.iter().any(|h| {
                    self.blk
                        .shared
                        .check_bounds(h.0, len - 1, "shared f32 load")
                        .is_err()
                }) {
                    return false;
                }
            }
            FusedSrc::RocBroadcast { bufs, start } => {
                let Some(last) = start.checked_add(len - 1) else {
                    return false;
                };
                if bufs.iter().any(|b| {
                    self.blk
                        .check_global_bounds(b.0, last, "roc f32 load")
                        .is_err()
                        || self.blk.read_would_abandon(b.0)
                }) {
                    return false;
                }
            }
            FusedSrc::LaneBroadcast(_) => {
                if !self.blk.cfg.has_shuffle {
                    return false;
                }
            }
        }
        // Histogram bucket memory pre-flights (same checks, same order
        // as the fused pass): a short array would fault mid-scatter, so
        // decline side-effect-free and let op-by-op assign exact blame.
        if let FusedConsumer::Histogram { hmax, shm, .. } = &consumer {
            if self
                .blk
                .shared
                .check_bounds(shm.0, *hmax, "shared u32 atomicAdd")
                .is_err()
            {
                return false;
            }
        }
        if let FusedConsumer::Multi(sinks) = &consumer {
            for sink in sinks.iter() {
                if let FusedSink::Histogram { hmax, shm, .. } = sink {
                    if self
                        .blk
                        .shared
                        .check_bounds(shm.0, *hmax, "shared u32 atomicAdd")
                        .is_err()
                    {
                        return false;
                    }
                }
            }
        }

        let a = valid.count() as u64;
        let steps = len as u64;
        let dims = D as u64;

        // ---- operand charges, identical to the fused pass ----
        match &src {
            FusedSrc::SharedBroadcast(_) => {
                let t = &mut self.blk.tally;
                charge_lanes(t, steps * dims, a);
                t.shared_load_instructions += steps * dims;
                t.shared_transactions += steps * dims;
                t.shared_bytes += 4 * a * steps * dims;
            }
            FusedSrc::RocBroadcast { bufs, start } => {
                {
                    let t = &mut self.blk.tally;
                    charge_lanes(t, steps * dims, a);
                    t.roc_load_instructions += steps * dims;
                    t.roc_bytes += 4 * a * steps * dims;
                }
                // The stateful ROC sector stream keeps its op-by-op
                // order; batched exactly as the fused pass batches it
                // (generation-stamped run replay — see
                // `fused_tile_impl` for the residency argument).
                let sb = self.blk.cfg.sector_bytes as u64;
                let bases: [u64; D] = std::array::from_fn(|d| self.blk.global_base_addr(bufs[d].0));
                let mut j = 0u64;
                while j < steps {
                    let e0 = *start as u64 + j;
                    let mut run = steps - j;
                    let mut sectors = [0u64; D];
                    for (s, &base) in sectors.iter_mut().zip(bases.iter()) {
                        let addr = base + e0 * 4;
                        *s = addr / sb;
                        run = run.min(((*s + 1) * sb - addr).div_ceil(4));
                    }
                    let gen0 = self.blk.roc.generation();
                    for &s in sectors.iter() {
                        self.roc_one_sector(s);
                    }
                    if run > 1 {
                        if self.blk.roc.generation() == gen0 {
                            let n = (run - 1) * dims;
                            self.blk.tally.roc_hit_sectors += n;
                            self.blk.roc.credit_replayed_hits(n);
                        } else {
                            for jj in 1..run {
                                for &base in &bases {
                                    self.roc_one_sector((base + (e0 + jj) * 4) / sb);
                                }
                            }
                        }
                    }
                    j += run;
                }
                for b in bufs.iter() {
                    // Read-set bookkeeping; cannot abandon (pre-checked).
                    let _ = self.blk.global_read_f32s(*b);
                }
            }
            FusedSrc::LaneBroadcast(_) => {
                let t = &mut self.blk.tally;
                charge_lanes(t, steps * dims, a);
                t.shuffle_instructions += steps * dims;
            }
        }
        let pred_alu = !matches!(pred, FusedPred::All) as u64;
        if pred_alu != 0 {
            let t = &mut self.blk.tally;
            charge_lanes(t, steps, a);
            t.alu_instructions += steps;
        }

        // ---- distance + consumer charges from the lowered formulas ----
        let (npm, sum_apm) = ck.pass_counts(len, pred, valid);
        {
            let t = &mut self.blk.tally;
            t.warp_instructions += npm * ck.wi;
            t.useful_lane_ops += ck.wi * sum_apm;
            t.predicated_lane_slots += ck.wi * (npm * WARP_SIZE as u64 - sum_apm);
            t.alu_instructions += npm * ck.per;
        }

        // ---- the compiled compute loop (lane-major) ----
        // The block's persistent scratch is taken out of `self.blk`
        // before the view borrows it (the view holds the whole block
        // immutably); restored after the compute match.
        let mut scr = std::mem::take(&mut self.blk.compiled_scratch);
        // Histogram scatter accounting, accumulated per step in closed
        // form (Σ multiplicity, Σ bank+contention replays) exactly as
        // the fused pass accumulates it.
        let mut atom_serial = 0u64;
        let mut atom_txns = 0u64;
        let mut atom_replays = 0u64;
        let view = match &src {
            FusedSrc::SharedBroadcast(tile) => SrcView::Cols {
                cols: std::array::from_fn(|d| self.blk.shared.f32s(tile[d])),
                start: 0,
            },
            FusedSrc::RocBroadcast { bufs, start } => SrcView::Cols {
                cols: std::array::from_fn(|d| self.blk.gmem().f32_slice(bufs[d])),
                start: *start as usize,
            },
            FusedSrc::LaneBroadcast(lanes) => SrcView::Lanes(lanes),
        };
        let nl = valid.count() as usize;
        match consumer {
            FusedConsumer::CountLt { acc, .. } => {
                let thr = ck.threshold;
                // `radius = +inf` accepts +inf distances that the
                // sqrt-free compare would reject (`inf < inf`); keep
                // the sqrt form for that (cold) case.
                let sqrt_free = ck.radius != f32::INFINITY;
                // A lane-broadcast tile wider than the warp would wrap
                // its indices (`j % 32`); the contiguous fast path
                // cannot express that, so such (never-emitted) shapes
                // take the generic loop below.
                let lanes_fit = match &view {
                    SrcView::Lanes(_) => len as usize <= WARP_SIZE,
                    SrcView::Cols { .. } => true,
                };
                if sqrt_free && lanes_fit {
                    // Hot path: bind contiguous columns once and count
                    // each lane's range through the autovectorized
                    // sweep (`count_lt_cols`). Identical bits: the
                    // per-element arithmetic is the same scalar chain,
                    // and integer counts commute.
                    let lane_cols: [[f32; WARP_SIZE]; D] = match &view {
                        SrcView::Lanes(l) => std::array::from_fn(|d| l[d]),
                        SrcView::Cols { .. } => [[0.0; WARP_SIZE]; D],
                    };
                    let (cols, start): ([&[f32]; D], usize) = match &view {
                        SrcView::Cols { cols, start } => (*cols, *start),
                        SrcView::Lanes(_) => (std::array::from_fn(|d| &lane_cols[d][..]), 0),
                    };
                    let hi = start + len as usize;
                    match pred {
                        FusedPred::All => {
                            for l in 0..nl {
                                let o: [f32; D] = std::array::from_fn(|d| own[d][l]);
                                acc[l] += count_lt_cols(&o, &cols, start, hi, thr);
                            }
                        }
                        FusedPred::NotEqual { gid0, base } => {
                            // Count everything, then take back each
                            // lane's self-pair term (integer adds
                            // commute; a step whose mask empties
                            // entirely can only be the single-lane
                            // self step, which the subtraction removes
                            // identically).
                            for l in 0..nl {
                                let o: [f32; D] = std::array::from_fn(|d| own[d][l]);
                                let mut cnt = count_lt_cols(&o, &cols, start, hi, thr);
                                let j_self = (gid0 as i64 + l as i64) - base as i64;
                                if (0..len as i64).contains(&j_self) {
                                    let s = euclid_sumsq(&o, &view.point(j_self as usize));
                                    cnt -= (s < thr) as u64;
                                }
                                acc[l] += cnt;
                            }
                        }
                        FusedPred::LessThan { gid0, base } => {
                            // Lane l is active from step j0 = gid0+l+1−base.
                            for l in 0..nl {
                                let o: [f32; D] = std::array::from_fn(|d| own[d][l]);
                                let j0 = (gid0 as i64 + l as i64 + 1 - base as i64)
                                    .clamp(0, len as i64)
                                    as usize;
                                acc[l] += count_lt_cols(&o, &cols, start + j0, hi, thr);
                            }
                        }
                    }
                } else {
                    match pred {
                        FusedPred::All => {
                            for l in 0..nl {
                                let o: [f32; D] = std::array::from_fn(|d| own[d][l]);
                                let mut cnt = 0u64;
                                for j in 0..len as usize {
                                    let s = euclid_sumsq(&o, &view.point(j));
                                    cnt += if sqrt_free {
                                        (s < thr) as u64
                                    } else {
                                        (s.sqrt() < ck.radius) as u64
                                    };
                                }
                                acc[l] += cnt;
                            }
                        }
                        FusedPred::NotEqual { gid0, base } => {
                            // Count everything, then take back each lane's
                            // self-pair term (integer adds commute; a step
                            // whose mask empties entirely can only be the
                            // single-lane self step, which the subtraction
                            // removes identically).
                            for l in 0..nl {
                                let o: [f32; D] = std::array::from_fn(|d| own[d][l]);
                                let mut cnt = 0u64;
                                for j in 0..len as usize {
                                    let s = euclid_sumsq(&o, &view.point(j));
                                    cnt += if sqrt_free {
                                        (s < thr) as u64
                                    } else {
                                        (s.sqrt() < ck.radius) as u64
                                    };
                                }
                                let j_self = (gid0 as i64 + l as i64) - base as i64;
                                if (0..len as i64).contains(&j_self) {
                                    let s = euclid_sumsq(&o, &view.point(j_self as usize));
                                    cnt -= if sqrt_free {
                                        (s < thr) as u64
                                    } else {
                                        (s.sqrt() < ck.radius) as u64
                                    };
                                }
                                acc[l] += cnt;
                            }
                        }
                        FusedPred::LessThan { gid0, base } => {
                            // Lane l is active from step j0 = gid0+l+1−base.
                            for l in 0..nl {
                                let o: [f32; D] = std::array::from_fn(|d| own[d][l]);
                                let j0 = (gid0 as i64 + l as i64 + 1 - base as i64)
                                    .clamp(0, len as i64)
                                    as usize;
                                let mut cnt = 0u64;
                                for j in j0..len as usize {
                                    let s = euclid_sumsq(&o, &view.point(j));
                                    cnt += if sqrt_free {
                                        (s < thr) as u64
                                    } else {
                                        (s.sqrt() < ck.radius) as u64
                                    };
                                }
                                acc[l] += cnt;
                            }
                        }
                    }
                }
            }
            FusedConsumer::Sum { acc } => {
                // f32 accumulation: per lane the adds stay in ascending
                // step order, exactly the op-by-op sequence.
                match pred {
                    FusedPred::All => {
                        for l in 0..nl {
                            let o: [f32; D] = std::array::from_fn(|d| own[d][l]);
                            let mut s_acc = acc[l];
                            for j in 0..len as usize {
                                s_acc += euclid_sumsq(&o, &view.point(j)).sqrt();
                            }
                            acc[l] = s_acc;
                        }
                    }
                    FusedPred::NotEqual { gid0, base } => {
                        for l in 0..nl {
                            let o: [f32; D] = std::array::from_fn(|d| own[d][l]);
                            let j_self = (gid0 as i64 + l as i64) - base as i64;
                            let mut s_acc = acc[l];
                            for j in 0..len as usize {
                                if j as i64 == j_self {
                                    continue;
                                }
                                s_acc += euclid_sumsq(&o, &view.point(j)).sqrt();
                            }
                            acc[l] = s_acc;
                        }
                    }
                    FusedPred::LessThan { gid0, base } => {
                        for l in 0..nl {
                            let o: [f32; D] = std::array::from_fn(|d| own[d][l]);
                            let j0 = (gid0 as i64 + l as i64 + 1 - base as i64).clamp(0, len as i64)
                                as usize;
                            let mut s_acc = acc[l];
                            for j in j0..len as usize {
                                s_acc += euclid_sumsq(&o, &view.point(j)).sqrt();
                            }
                            acc[l] = s_acc;
                        }
                    }
                }
            }
            FusedConsumer::Histogram { shm, .. } => {
                // Phase A: bucket every step's distance row straight off
                // the tile view — stack row, no squared-distance spill —
                // splitting full-warp steps (deferred to one batched
                // walk, whose broadcast shortcut covers clustered steps
                // closed-form) from partial-warp ones (deferred to the
                // per-step masked walk). Deferral is sound: the sink
                // pre-flights above ruled out faults, and the accounting
                // sums and wrapping data adds commute across steps. Per
                // pair the operation sequence is exactly the op-by-op
                // chain: `euclid_sumsq` in ascending dimensions, sqrt,
                // FMUL, saturating cast (exact-geometry rows through the
                // vectorized cast of `bucket_row_exact` — identical
                // bits).
                let lh = &ck.hists[0];
                let (inv_width, hmax) = (lh.inv_width, lh.hmax);
                let exact = lh.exact;
                scr.b.clear();
                scr.p.clear();
                scr.pn.clear();
                if matches!(pred, FusedPred::All) && valid.0 == u32::MAX && exact {
                    // Unpredicated full-valid pass — the hot shape:
                    // every step is a full-warp row, so one fused
                    // distance+bucket loop writes the batch buffer in
                    // place (no distance spill, no per-row copy).
                    scr.b.resize(len as usize * WARP_SIZE, 0);
                    let hf = hmax as f32;
                    for (j, out) in scr.b.chunks_exact_mut(WARP_SIZE).enumerate() {
                        let p = view.point(j);
                        for (l, o) in out.iter_mut().enumerate() {
                            let mut s = 0.0f32;
                            for d in 0..D {
                                let diff = own[d][l] - p[d];
                                s = diff.mul_add(diff, s);
                            }
                            *o = floor_bucket_exact(s.sqrt(), inv_width, hf);
                        }
                    }
                } else {
                    for j in 0..len {
                        let pm = Self::fused_pred_mask(pred, j, valid);
                        if !pm.any() {
                            continue;
                        }
                        let p = view.point(j as usize);
                        let mut srow = [0.0f32; WARP_SIZE];
                        for d in 0..D {
                            let pd = p[d];
                            for (sl, &ol) in srow.iter_mut().zip(own[d].iter()) {
                                let diff = ol - pd;
                                *sl = diff.mul_add(diff, *sl);
                            }
                        }
                        if pm.0 == u32::MAX && exact {
                            let mut tmp = [0u32; WARP_SIZE];
                            bucket_row_exact(&srow, inv_width, hmax, &mut tmp);
                            scr.b.extend_from_slice(&tmp);
                            continue;
                        }
                        // Partial-warp (or degenerate-geometry) step:
                        // the scalar cast chain over the active lanes.
                        let n0 = scr.p.len();
                        if pm.0 == u32::MAX {
                            scr.p.extend(
                                srow.iter()
                                    .map(|&s| ((s.sqrt() * inv_width) as u32).min(hmax)),
                            );
                        } else {
                            scr.p.extend(
                                pm.lanes()
                                    .map(|l| ((srow[l].sqrt() * inv_width) as u32).min(hmax)),
                            );
                        }
                        scr.pn.push((scr.p.len() - n0) as u32);
                    }
                }
                // Phase B: the batched walk over the full-warp rows,
                // then the ragged/masked steps one at a time.
                let (s_b, t_b, r_b) =
                    self.blk
                        .shared
                        .scatter_account_update_rows(shm, &scr.b, &mut scr.scatter);
                atom_serial += s_b;
                atom_txns += t_b;
                atom_replays += r_b;
                let mut off = 0usize;
                for &na in &scr.pn {
                    let na = na as usize;
                    let (mult, txns) = self.blk.shared.scatter_account_update(
                        shm,
                        &scr.p[off..off + na],
                        &mut scr.scatter,
                    );
                    off += na;
                    atom_serial += mult;
                    atom_txns += txns + mult - 1;
                    atom_replays += txns.saturating_sub(1);
                }
            }
            FusedConsumer::Multi(mut sinks) => {
                // One distance evaluation per step feeds every sink in
                // order, exactly like the fused Multi consumer — but the
                // squared distances stay in a stack row (no spill; the
                // per-sink compare loops then run over fixed-size
                // arrays, the shape LLVM vectorizes), count sinks
                // compare sqrt-free against the lowered thresholds, and
                // each histogram sink's scatter shares the merged
                // accounting+update walk.
                let mut count_sinks: Vec<(f32, &mut U64x32)> = Vec::new();
                let mut hist_sinks: Vec<(usize, ShmU32)> = Vec::new();
                let mut hk = 0usize;
                for sink in sinks.iter_mut() {
                    match sink {
                        FusedSink::CountLt { radius, acc } => count_sinks.push((*radius, acc)),
                        FusedSink::Histogram { shm, .. } => {
                            hist_sinks.push((hk, *shm));
                            hk += 1;
                        }
                    }
                }
                // Lowered parameters ride in sink order (checked against
                // the consumer in the agreement above). A +inf radius
                // keeps the sqrt form (see the CountLt arm); finite
                // radii compare squared.
                let cthr: Vec<(f32, f32, bool)> = ck
                    .count_thresholds
                    .iter()
                    .map(|&(r, t)| (r, t, r == f32::INFINITY))
                    .collect();
                let need_drow =
                    !hist_sinks.is_empty() || cthr.iter().any(|&(_, _, use_sqrt)| use_sqrt);
                let mut cnts: Vec<U32x32> = vec![[0u32; WARP_SIZE]; count_sinks.len()];
                if scr.bs.len() < hist_sinks.len() {
                    scr.bs.resize_with(hist_sinks.len(), Vec::new);
                    scr.pbs.resize_with(hist_sinks.len(), Vec::new);
                    scr.pbn.resize_with(hist_sinks.len(), Vec::new);
                }
                for k in 0..hist_sinks.len() {
                    scr.bs[k].clear();
                    scr.pbs[k].clear();
                    scr.pbn[k].clear();
                }
                for j in 0..len {
                    let pm = Self::fused_pred_mask(pred, j, valid);
                    if !pm.any() {
                        continue;
                    }
                    let p = view.point(j as usize);
                    let mut row = [0.0f32; WARP_SIZE];
                    for d in 0..D {
                        let pd = p[d];
                        for (sl, &ol) in row.iter_mut().zip(own[d].iter()) {
                            let diff = ol - pd;
                            *sl = diff.mul_add(diff, *sl);
                        }
                    }
                    let mut drow = [0.0f32; WARP_SIZE];
                    if need_drow {
                        for (d, &s) in drow.iter_mut().zip(row.iter()) {
                            *d = s.sqrt();
                        }
                    }
                    if pm.0 == u32::MAX {
                        for (&(r, thr, use_sqrt), cnt) in cthr.iter().zip(cnts.iter_mut()) {
                            if use_sqrt {
                                for l in 0..WARP_SIZE {
                                    cnt[l] += (drow[l] < r) as u32;
                                }
                            } else {
                                for l in 0..WARP_SIZE {
                                    cnt[l] += (row[l] < thr) as u32;
                                }
                            }
                        }
                    } else {
                        for (&(r, thr, use_sqrt), cnt) in cthr.iter().zip(cnts.iter_mut()) {
                            for l in pm.lanes() {
                                cnt[l] += if use_sqrt {
                                    (drow[l] < r) as u32
                                } else {
                                    (row[l] < thr) as u32
                                };
                            }
                        }
                    }
                    for (k, _) in hist_sinks.iter().enumerate() {
                        let lh = &ck.hists[k];
                        let (iw, h) = (lh.inv_width, lh.hmax);
                        if pm.0 == u32::MAX && lh.exact {
                            // Full-warp step with exact geometry: the
                            // vectorized magic-number floor (identical
                            // bits — see `floor_bucket_exact`, here
                            // applied to the already-sqrt'd row),
                            // deferred to the sink's batched scatter
                            // walk below.
                            let hf = h as f32;
                            let mut tmp = [0u32; WARP_SIZE];
                            for (b, &d) in tmp.iter_mut().zip(drow.iter()) {
                                *b = floor_bucket_exact(d, iw, hf);
                            }
                            scr.bs[k].extend_from_slice(&tmp);
                            continue;
                        }
                        // Partial or inexact step: deferred like the
                        // batched rows (the view still borrows the
                        // block's memory here, and the walks commute —
                        // pre-flights already ruled out faults).
                        if pm.0 == u32::MAX {
                            for &d in drow.iter() {
                                scr.pbs[k].push(((d * iw) as u32).min(h));
                            }
                            scr.pbn[k].push(WARP_SIZE as u32);
                        } else {
                            let mut na = 0u32;
                            for l in pm.lanes() {
                                scr.pbs[k].push(((drow[l] * iw) as u32).min(h));
                                na += 1;
                            }
                            scr.pbn[k].push(na);
                        }
                    }
                }
                for (k, &(_, shm)) in hist_sinks.iter().enumerate() {
                    let (s_b, t_b, r_b) = self.blk.shared.scatter_account_update_rows(
                        shm,
                        &scr.bs[k],
                        &mut scr.scatter,
                    );
                    atom_serial += s_b;
                    atom_txns += t_b;
                    atom_replays += r_b;
                    let mut off = 0usize;
                    for &na in scr.pbn[k].iter() {
                        let na = na as usize;
                        let (mult, txns) = self.blk.shared.scatter_account_update(
                            shm,
                            &scr.pbs[k][off..off + na],
                            &mut scr.scatter,
                        );
                        atom_serial += mult;
                        atom_txns += txns + mult - 1;
                        atom_replays += txns.saturating_sub(1);
                        off += na;
                    }
                }
                for ((_, acc), cnt) in count_sinks.iter_mut().zip(cnts.iter()) {
                    for l in 0..WARP_SIZE {
                        acc[l] += cnt[l] as u64;
                    }
                }
            }
        }
        self.blk.compiled_scratch = scr;

        // Histogram sink charges: one shared atomic per executed step
        // per sink, with the data-dependent serialization accumulated
        // above — summed after the loop because tally adds commute.
        if ck.n_hist != 0 {
            let t = &mut self.blk.tally;
            t.shared_atomics += npm * ck.n_hist;
            t.shared_atomic_serial += atom_serial;
            t.shared_transactions += atom_txns;
            t.shared_bank_replays += atom_replays;
            t.shared_bytes += 4 * sum_apm * ck.n_hist;
        }

        let interp = &mut self.blk.interp;
        interp.dispatches += 1;
        interp.compiled_ops += 1;
        interp.compiled_lane_ops += a * steps * (dims + pred_alu) + ck.wi * sum_apm;
        true
    }

    /// Compiled triangular intra-block pass (`IntraMode::Regular`,
    /// `HalfPairs`): thread `t` pairs with partners `t+1 … block_n−1`.
    /// Replaces the whole `divergent_loop` — per iteration one control
    /// charge, one address ALU, `D` partner gathers, the distance
    /// evaluation and the consumer — with arithmetic-series charge
    /// totals and one lane-major compute sweep. The op-by-op loop it
    /// replaces stays as the differential oracle (and the fallback for
    /// every declined shape: load-balanced intra, non-prefix masks,
    /// non-Euclidean plans, would-fault tiles).
    ///
    /// `valid` must be the caller's `tid < block_n ∧ active` mask and
    /// `own` the warp's register-resident points, exactly as the
    /// op-by-op `intra_block_shared` receives them.
    #[allow(clippy::too_many_arguments)]
    pub fn compiled_intra_regular<const D: usize>(
        &mut self,
        ck: &CompiledKernel,
        tile: CompiledTile<'_, D>,
        block_start: u32,
        block_n: u32,
        own: &[F32x32; D],
        consumer: FusedConsumer<'_>,
        valid: Mask,
    ) -> bool {
        if !self.blk.cfg.compiled
            || self.blk.cfg.scalar_reference
            || self.blk.dead()
            || !valid.is_prefix()
            || ck.dims != D as u32
        {
            return false;
        }
        match (&consumer, &ck.sink) {
            (FusedConsumer::CountLt { radius, .. }, CompiledSinkSpec::CountLt { radius: r })
                if radius.to_bits() == r.to_bits() => {}
            (FusedConsumer::Sum { .. }, CompiledSinkSpec::Sum) => {}
            (
                FusedConsumer::Histogram {
                    inv_width, hmax, ..
                },
                CompiledSinkSpec::Histogram {
                    inv_width: iw,
                    hmax: h,
                },
            ) if inv_width.to_bits() == iw.to_bits() && hmax == h => {}
            _ => return false,
        }
        let v = valid.count() as u64;
        let tid0 = self.warp_id * WARP_SIZE as u32;
        // Lane l's trip count is block_n−1−(tid0+l); the masked maximum
        // is lane 0's. An empty mask or a zero maximum runs zero
        // iterations and charges nothing — same as the divergent loop.
        let t_max = if v == 0 {
            0
        } else {
            block_n.saturating_sub(1).saturating_sub(tid0) as u64
        };
        if t_max == 0 {
            return true;
        }
        // Pre-flight: the deepest gather reaches element block_n−1;
        // histogram scatters reach hmax.
        match &tile {
            CompiledTile::Shared(tile) => {
                if tile.iter().any(|h| {
                    self.blk
                        .shared
                        .check_bounds(h.0, block_n - 1, "shared f32 load")
                        .is_err()
                }) {
                    return false;
                }
            }
            CompiledTile::Roc(bufs) => {
                let Some(last) = block_start.checked_add(block_n - 1) else {
                    return false;
                };
                if bufs.iter().any(|b| {
                    self.blk
                        .check_global_bounds(b.0, last, "roc f32 load")
                        .is_err()
                        || self.blk.read_would_abandon(b.0)
                }) {
                    return false;
                }
            }
        }
        if let FusedConsumer::Histogram { hmax, shm, .. } = &consumer {
            if self
                .blk
                .shared
                .check_bounds(shm.0, *hmax, "shared u32 atomicAdd")
                .is_err()
            {
                return false;
            }
        }

        // Iteration j runs a_j = min(v, T−j) lanes; the series sums in
        // closed form.
        let s_total = if t_max <= v {
            t_max * (t_max + 1) / 2
        } else {
            v * (v + 1) / 2 + (t_max - v) * v
        };
        let dims = D as u64;
        // Per-iteration warp instructions: loop test (1) + address ALU
        // (1) + D gathers + distance eval (2D+1) + consumer; histogram
        // adds the atomic memory op.
        let wi_j = 1 + 1 + dims + ck.wi;
        let alu_j = 1 + ck.per;
        {
            let t = &mut self.blk.tally;
            t.warp_instructions += t_max * wi_j;
            t.useful_lane_ops += wi_j * s_total;
            t.predicated_lane_slots += wi_j * (t_max * WARP_SIZE as u64 - s_total);
            t.alu_instructions += t_max * alu_j;
            t.control_instructions += t_max;
            t.divergent_iterations += t_max.min(v.saturating_sub(1));
            match &tile {
                CompiledTile::Shared(_) => {
                    t.shared_load_instructions += t_max * dims;
                    // Unit-stride (or single-lane broadcast) f32
                    // gathers: one conflict-free transaction each.
                    t.shared_transactions += t_max * dims;
                    t.shared_bytes += 4 * dims * s_total;
                }
                CompiledTile::Roc(_) => {
                    t.roc_load_instructions += t_max * dims;
                    t.roc_bytes += 4 * dims * s_total;
                }
            }
        }
        // Final (failing) loop test under the full mask.
        {
            let t = &mut self.blk.tally;
            charge_lanes(t, 1, v);
            t.control_instructions += 1;
        }
        // The stateful ROC sector stream replays per iteration in
        // op-by-op order: iteration j gathers elements
        // block_start+tid0+1+j … +a_j−1 per dimension (an ascending
        // contiguous sector run).
        if let CompiledTile::Roc(bufs) = &tile {
            let sb = self.blk.cfg.sector_bytes as u64;
            let bases: [u64; D] = std::array::from_fn(|d| self.blk.global_base_addr(bufs[d].0));
            let first0 = block_start as u64 + tid0 as u64 + 1;
            for j in 0..t_max {
                let a_j = v.min(t_max - j);
                let first = first0 + j;
                for &base in bases.iter() {
                    let s0 = (base + first * 4) / sb;
                    let s1 = (base + (first + a_j - 1) * 4) / sb;
                    for s in s0..=s1 {
                        self.roc_one_sector(s);
                    }
                }
            }
            for b in bufs.iter() {
                let _ = self.blk.global_read_f32s(*b);
            }
        }

        // ---- compute ----
        // Partner element index for lane l at iteration j (element
        // space of the tile columns).
        let elem0 = match &tile {
            CompiledTile::Shared(_) => tid0 as usize,
            CompiledTile::Roc(_) => (block_start + tid0) as usize,
        };
        match consumer {
            FusedConsumer::CountLt { acc, .. } => {
                let cols: [&[f32]; D] = match &tile {
                    CompiledTile::Shared(tile) => {
                        std::array::from_fn(|d| self.blk.shared.f32s(tile[d]))
                    }
                    CompiledTile::Roc(bufs) => {
                        std::array::from_fn(|d| self.blk.gmem().f32_slice(bufs[d]))
                    }
                };
                let hi = match &tile {
                    CompiledTile::Shared(_) => block_n as usize,
                    CompiledTile::Roc(_) => (block_start + block_n) as usize,
                };
                let thr = ck.threshold;
                let sqrt_free = ck.radius != f32::INFINITY;
                for l in 0..v as usize {
                    let o: [f32; D] = std::array::from_fn(|d| own[d][l]);
                    let e0 = (elem0 + l + 1).min(hi);
                    let cnt = if sqrt_free {
                        count_lt_cols(&o, &cols, e0, hi, thr)
                    } else {
                        // `radius = +inf` needs the sqrt form (see the
                        // inter-tile pass); cold.
                        let mut cnt = 0u64;
                        #[allow(clippy::needless_range_loop)]
                        for e in e0..hi {
                            let p: [f32; D] = std::array::from_fn(|d| cols[d][e]);
                            cnt += (euclid_sumsq(&o, &p).sqrt() < ck.radius) as u64;
                        }
                        cnt
                    };
                    acc[l] += cnt;
                }
            }
            FusedConsumer::Sum { acc } => {
                let cols: [&[f32]; D] = match &tile {
                    CompiledTile::Shared(tile) => {
                        std::array::from_fn(|d| self.blk.shared.f32s(tile[d]))
                    }
                    CompiledTile::Roc(bufs) => {
                        std::array::from_fn(|d| self.blk.gmem().f32_slice(bufs[d]))
                    }
                };
                let hi = match &tile {
                    CompiledTile::Shared(_) => block_n as usize,
                    CompiledTile::Roc(_) => (block_start + block_n) as usize,
                };
                for l in 0..v as usize {
                    let o: [f32; D] = std::array::from_fn(|d| own[d][l]);
                    let mut s_acc = acc[l];
                    #[allow(clippy::needless_range_loop)]
                    for e in (elem0 + l + 1)..hi {
                        let p: [f32; D] = std::array::from_fn(|d| cols[d][e]);
                        s_acc += euclid_sumsq(&o, &p).sqrt();
                    }
                    acc[l] = s_acc;
                }
            }
            FusedConsumer::Histogram {
                inv_width,
                hmax,
                shm,
            } => {
                let mut scr = std::mem::take(&mut self.blk.compiled_scratch);
                // Phase A: the whole triangle's bucket indices into the
                // scratch, step-major and compacted (iteration j
                // contributes a_j = min(v, t_max−j) lanes) — this ends
                // the tile columns' borrow so phase B can scatter into
                // `self.blk.shared` mutably. Per pair the operation
                // sequence is exactly the op-by-op chain: `euclid_sumsq`
                // in ascending dimensions, sqrt, FMUL, saturating cast
                // (the exact-geometry rows go through the vectorized
                // cast of `bucket_row_exact` — identical bits).
                let exact = ck.hists[0].exact;
                scr.b.clear();
                {
                    let cols: [&[f32]; D] = match &tile {
                        CompiledTile::Shared(tile) => {
                            std::array::from_fn(|d| self.blk.shared.f32s(tile[d]))
                        }
                        CompiledTile::Roc(bufs) => {
                            std::array::from_fn(|d| self.blk.gmem().f32_slice(bufs[d]))
                        }
                    };
                    for j in 0..t_max as usize {
                        let a_j = (v as usize).min((t_max as usize) - j);
                        // Lane l's partner at iteration j is element
                        // elem0 + l + 1 + j (in bounds: the deepest
                        // reach is elem0 + t_max, the tile's last
                        // element, pre-flighted above).
                        let e0 = elem0 + 1 + j;
                        let mut srow = [0.0f32; WARP_SIZE];
                        for d in 0..D {
                            let col = &cols[d][e0..e0 + a_j];
                            for ((sl, &ol), &pd) in
                                srow[..a_j].iter_mut().zip(own[d].iter()).zip(col.iter())
                            {
                                let diff = ol - pd;
                                *sl = diff.mul_add(diff, *sl);
                            }
                        }
                        if exact {
                            let mut tmp = [0u32; WARP_SIZE];
                            bucket_row_exact(&srow, inv_width, hmax, &mut tmp);
                            scr.b.extend_from_slice(&tmp[..a_j]);
                        } else {
                            scr.b.extend(
                                srow[..a_j]
                                    .iter()
                                    .map(|&s| ((s.sqrt() * inv_width) as u32).min(hmax)),
                            );
                        }
                    }
                }
                // Phase B: the full-warp iteration prefix (a_j = 32 ⟺
                // v = 32 ∧ j ≤ t_max − 32) takes the batched scatter
                // walk; the ragged tail goes per step. Accounting sums
                // and wrapping data adds commute across steps.
                let mut atom_serial = 0u64;
                let mut atom_txns = 0u64;
                let mut atom_replays = 0u64;
                let full_steps = if v == WARP_SIZE as u64 {
                    t_max.saturating_sub(WARP_SIZE as u64 - 1) as usize
                } else {
                    0
                };
                let split = full_steps * WARP_SIZE;
                let (s_b, t_b, r_b) = self.blk.shared.scatter_account_update_rows(
                    shm,
                    &scr.b[..split],
                    &mut scr.scatter,
                );
                atom_serial += s_b;
                atom_txns += t_b;
                atom_replays += r_b;
                let mut off = split;
                for j in full_steps..t_max as usize {
                    let a_j = (v as usize).min(t_max as usize - j);
                    let (mult, txns) = self.blk.shared.scatter_account_update(
                        shm,
                        &scr.b[off..off + a_j],
                        &mut scr.scatter,
                    );
                    off += a_j;
                    atom_serial += mult;
                    atom_txns += txns + mult - 1;
                    atom_replays += txns.saturating_sub(1);
                }
                self.blk.compiled_scratch = scr;
                let t = &mut self.blk.tally;
                t.shared_atomics += t_max;
                t.shared_atomic_serial += atom_serial;
                t.shared_transactions += atom_txns;
                t.shared_bank_replays += atom_replays;
                t.shared_bytes += 4 * s_total;
            }
            // Multi-sink batches lower for the inter-tile pass only; the
            // intra triangle keeps them on the fused/op route, so the
            // sink-agreement check above already declined them.
            FusedConsumer::Multi(_) => unreachable!("multi declines above"),
        }

        let interp = &mut self.blk.interp;
        interp.dispatches += 1;
        interp.compiled_ops += 1;
        interp.compiled_lane_ops += wi_j * s_total + v;
        true
    }
}

impl BlockCtx<'_> {
    /// Compiled cooperative tile fetch: the whole
    /// `load_tile_to_shared` sweep — every warp's coalesced global load
    /// and conflict-free shared store, per dimension — in one call.
    /// L2 sector runs issue in the exact op-by-op order (warp-major,
    /// dimension-minor); charges are per-warp closed forms. Returns
    /// `false` with no side effects when the compiled route is off or
    /// any access could fault/abandon, and the caller runs the op-by-op
    /// loop (which reproduces the exact fault point).
    pub fn compiled_tile_load<const D: usize>(
        &mut self,
        tile: &[ShmF32; D],
        bufs: &[BufF32; D],
        start: u32,
        count: u32,
    ) -> bool {
        if !self.cfg.compiled || self.cfg.scalar_reference || self.dead() {
            return false;
        }
        // Elements actually loaded: threads 0..min(count, block_dim).
        let nn = count.min(self.block_dim);
        if nn == 0 {
            // Every warp's mask is empty; the op-by-op loop charges
            // nothing either.
            return true;
        }
        let Some(last) = start.checked_add(nn - 1) else {
            return false;
        };
        for d in 0..D {
            if self
                .check_global_bounds(bufs[d].0, last, "global f32 load")
                .is_err()
                || self.read_would_abandon(bufs[d].0)
                || self
                    .shared
                    .check_bounds(tile[d].0, nn - 1, "shared f32 store")
                    .is_err()
            {
                return false;
            }
        }
        let dims = D as u64;
        let sb = self.cfg.sector_bytes as u64;
        let num_warps = self.num_warps();
        let mut warps_charged = 0u64;
        let mut lanes_total = 0u64;
        for w in 0..num_warps {
            let a = nn
                .saturating_sub(w * WARP_SIZE as u32)
                .min(WARP_SIZE as u32) as u64;
            if a == 0 {
                break;
            }
            warps_charged += 1;
            lanes_total += a;
            // Per-warp: one address ALU + per dimension (load + store).
            charge_lanes(&mut self.tally, 1 + 2 * dims, a);
            self.tally.alu_instructions += 1;
            // The L2 stream: one ascending sector run per (warp, dim),
            // dimension-minor — identical to the op-by-op loop order.
            let e0 = start as u64 + w as u64 * WARP_SIZE as u64;
            for buf in bufs {
                let base = self.global_base_addr(buf.0);
                let s0 = (base + e0 * 4) / sb;
                let s1 = (base + (e0 + a - 1) * 4) / sb;
                self.l2_access_run(s0, (s1 - s0 + 1) as u32);
            }
        }
        {
            let t = &mut self.tally;
            t.global_load_instructions += warps_charged * dims;
            t.global_load_bytes += 4 * lanes_total * dims;
            t.shared_store_instructions += warps_charged * dims;
            // Unit-stride (or single-lane) f32 stores: one
            // conflict-free transaction per warp per dimension.
            t.shared_transactions += warps_charged * dims;
            t.shared_bytes += 4 * lanes_total * dims;
        }
        // Data movement: tile[d][t] = buf[d][start + t] for t < nn.
        let mut row = vec![0.0f32; nn as usize];
        for d in 0..D {
            {
                let data = self.global_read_f32s(bufs[d]);
                row.copy_from_slice(&data[start as usize..(start + nn) as usize]);
            }
            let dst = self.shared.f32s_mut(tile[d]);
            dst[..nn as usize].copy_from_slice(&row);
        }
        self.interp.dispatches += 1;
        self.interp.compiled_ops += 1;
        self.interp.compiled_lane_ops += (1 + 2 * dims) * lanes_total;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_equiv(radius: f32, s: f32) {
        let t = sqrt_lt_threshold(radius);
        assert_eq!(
            s < t,
            s.sqrt() < radius,
            "radius={radius} s={s} T={t}: sqrt-free compare diverges"
        );
    }

    #[test]
    fn threshold_matches_sqrt_compare_around_boundaries() {
        for &radius in &[
            0.5f32, 1.0, 1.5, 25.0, 1e-20, 1e20, 3.0e19, 1.7e19, 123.456, 0.1,
        ] {
            let sq = radius * radius;
            let base = if sq.is_finite() { sq } else { f32::MAX };
            let mut probes = vec![0.0f32, base];
            let mut up = base;
            let mut dn = base;
            for _ in 0..64 {
                up = f32::from_bits(up.to_bits() + 1);
                if dn > 0.0 {
                    dn = f32::from_bits(dn.to_bits() - 1);
                }
                probes.push(up);
                probes.push(dn);
            }
            for s in probes {
                check_equiv(radius, s);
            }
        }
    }

    #[test]
    // The literal negated comparisons (including against NaN) are the
    // property under test: both forms must reject, not order.
    #[allow(clippy::neg_cmp_op_on_partial_ord, invalid_nan_comparisons)]
    fn threshold_degenerate_radii() {
        // radius ≤ 0 or NaN accepts nothing.
        for &radius in &[0.0f32, -1.0, f32::NAN] {
            let t = sqrt_lt_threshold(radius);
            assert_eq!(t, 0.0);
            for &s in &[0.0f32, 1.0, f32::MAX] {
                assert!(!(s < t));
                assert!(!(s.sqrt() < radius));
            }
        }
        // NaN distances fail both forms.
        let t = sqrt_lt_threshold(25.0);
        assert!(!(f32::NAN < t));
        assert!(!(f32::NAN.sqrt() < 25.0));
        // +inf radius accepts every finite s.
        assert_eq!(sqrt_lt_threshold(f32::INFINITY), f32::INFINITY);
    }

    #[test]
    fn threshold_exhaustive_small_grid() {
        // Dense sweep: many radii × many sums, including subnormals.
        let mut s_vals = vec![0.0f32];
        let mut x = f32::MIN_POSITIVE / 4.0;
        while x < 1e30 {
            s_vals.push(x);
            x *= 3.7;
        }
        for i in 1..200u32 {
            let radius = i as f32 * 0.37;
            for &s in &s_vals {
                check_equiv(radius, s);
            }
        }
    }

    #[test]
    fn lower_respects_config_gates() {
        let mut cfg = crate::config::DeviceConfig::titan_x();
        cfg.compiled = false;
        assert!(
            CompiledKernel::lower(&cfg, 3, 256, CompiledSinkSpec::Sum).is_none(),
            "compiled off must not lower"
        );
        cfg.compiled = true;
        cfg.scalar_reference = true;
        assert!(
            CompiledKernel::lower(&cfg, 3, 256, CompiledSinkSpec::Sum).is_none(),
            "scalar reference overrides"
        );
        cfg.scalar_reference = false;
        let ck = CompiledKernel::lower(&cfg, 3, 256, CompiledSinkSpec::CountLt { radius: 25.0 })
            .expect("lowering");
        assert_eq!(ck.full_steps, 256);
        // Euclidean cost 2·3+1 plus the CountLt compare+increment.
        assert_eq!(ck.wi, 9);
        assert_eq!(ck.per, 9);
        assert!(ck.threshold() > 0.0);
    }

    #[test]
    fn floor_bucket_exact_matches_cast_chain() {
        // The op-by-op chain the magic-number floor must reproduce bit
        // for bit on the `LoweredHist::exact` domain.
        let cast = |d: f32, iw: f32, hmax: u32| ((d * iw) as u32).min(hmax);
        for hmax in [0u32, 15, 31, 255] {
            let hf = hmax as f32;
            for iw in [0.2f32, 1.0, 1.6, 3.7, 0.177, 1e-3, 12.5] {
                assert!(LoweredHist::lower(iw, hmax).exact);
                // An ulp walk across every bucket boundary, including
                // the clamp boundary `hmax + 1` and the one above it.
                for b in 0..=hmax + 2 {
                    let edge = b as f32 / iw;
                    let mut lo = edge;
                    let mut hi = edge;
                    for _ in 0..48 {
                        for d in [lo, hi] {
                            assert_eq!(
                                floor_bucket_exact(d, iw, hf),
                                cast(d, iw, hmax),
                                "d={d} inv_width={iw} hmax={hmax}"
                            );
                        }
                        if lo > 0.0 {
                            lo = f32::from_bits(lo.to_bits() - 1);
                        }
                        hi = f32::from_bits(hi.to_bits() + 1);
                    }
                }
                // NaN → 0 (the saturating cast's NaN rule), +inf and
                // products far above `hmax` clamp to `hmax`.
                for d in [
                    f32::NAN,
                    f32::INFINITY,
                    f32::MAX,
                    0.0,
                    -0.0,
                    (hf + 7.5) / iw,
                ] {
                    assert_eq!(
                        floor_bucket_exact(d, iw, hf),
                        cast(d, iw, hmax),
                        "d={d} inv_width={iw} hmax={hmax}"
                    );
                }
            }
        }
        // Degenerate geometry stays on the cast chain.
        for (iw, hmax) in [
            (f32::INFINITY, 31),
            (f32::NAN, 31),
            (0.0, 31),
            (-1.0, 31),
            (0.5, 1 << 16),
        ] {
            assert!(
                !LoweredHist::lower(iw, hmax).exact,
                "inv_width={iw} hmax={hmax}"
            );
        }
        assert!(LoweredHist::lower(0.5, (1 << 16) - 1).exact);
    }

    #[test]
    fn pass_counts_match_mask_walk() {
        let cfg = {
            let mut c = crate::config::DeviceConfig::titan_x();
            c.compiled = true;
            c
        };
        let ck = CompiledKernel::lower(&cfg, 2, 128, CompiledSinkSpec::Sum).unwrap();
        // Closed form for the All-pred shapes vs the explicit walk.
        for &(len, nv) in &[(128u32, 32u32), (128, 7), (17, 32), (1, 1)] {
            let valid = Mask::first_n(nv);
            let (npm, sum) = ck.pass_counts(len, FusedPred::All, valid);
            let mut npm2 = 0;
            let mut sum2 = 0;
            for j in 0..len {
                let pm = WarpCtx::fused_pred_mask(FusedPred::All, j, valid);
                if pm.any() {
                    npm2 += 1;
                    sum2 += pm.count() as u64;
                }
            }
            assert_eq!((npm, sum), (npm2, sum2), "len={len} nv={nv}");
        }
    }
}
