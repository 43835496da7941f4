//! The data-output stage: the paper's Type-I/II/III taxonomy (§III-B)
//! realized as composable [`PairAction`]s.
//!
//! Every pairwise kernel variant (naive, tiled, shuffle — see
//! [`crate::kernels`]) is generic over a `PairAction`: the kernel owns
//! *where the inputs come from* (global / shared / ROC / registers), the
//! action owns *where each result goes*:
//!
//! * **Type-I** ([`CountWithinRadius`], [`KnnAction`], [`KdeAction`]) —
//!   output lives in per-thread registers and is written out once when
//!   the block finishes.
//! * **Type-II** ([`SharedHistogramAction`], [`GlobalHistogramAction`]) —
//!   a histogram, privatized per block in shared memory (the paper's
//!   Algorithm 3 + Figure 3 reduction) or updated directly in global
//!   memory with atomics (the unoptimized comparison point).
//! * **Type-III** ([`PairListAction`], [`MatrixWriteAction`]) — output too
//!   large for on-chip storage; written straight to global memory. The
//!   paper defers these to future work; we implement them, including a
//!   warp-aggregated allocation scheme that amortizes the output-counter
//!   atomic across the warp.

use crate::histogram::HistogramSpec;
use gpu_sim::{
    BlockCtx, BufF32, BufU32, BufU64, CompiledSinkSpec, F32x32, FusedConsumer, FusedSink, Mask,
    ShmU32, U32x32, U64x32, WarpCtx, WARP_SIZE,
};

/// The paper's output classification (§III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputClass {
    /// Output fits in registers (a few words per thread).
    TypeI,
    /// Output fits in shared memory (tens of KB per block).
    TypeII,
    /// Output only fits in global memory (up to O(N²)).
    TypeIII,
}

/// What a kernel does with each computed pair value.
///
/// `Block` is per-block state: shared-memory handles and/or per-warp
/// register accumulators (indexed by warp id).
pub trait PairAction: Sync {
    type Block;

    /// Name for reports.
    fn name(&self) -> &'static str;

    /// Which output class this action realizes.
    fn class(&self) -> OutputClass;

    /// Per-block setup: allocate/zero shared structures, set up register
    /// accumulators.
    fn begin_block(&self, blk: &mut BlockCtx<'_>) -> Self::Block;

    /// Consume one warp of pair results. `left`/`right` are the global
    /// point indices of each lane's pair and `value` the distance-function
    /// result; only `mask` lanes are valid.
    fn process(
        &self,
        w: &mut WarpCtx<'_, '_>,
        st: &mut Self::Block,
        left: &U32x32,
        right: &U32x32,
        value: &F32x32,
        mask: Mask,
    );

    /// Per-block teardown: write private output out.
    fn end_block(&self, blk: &mut BlockCtx<'_>, st: Self::Block);

    /// Shared-memory bytes the action allocates per block.
    fn shared_bytes(&self, _block_dim: u32) -> u32 {
        0
    }

    /// Registers per thread the action's accumulators occupy.
    fn regs_per_thread(&self) -> u32 {
        2
    }

    /// Fixed ALU instructions charged per `process` call (mirrored by the
    /// analytic model).
    fn alu_per_pair(&self) -> u64;

    /// A borrowed [`FusedConsumer`] view of warp `warp_id`'s accumulator
    /// state, when [`PairAction::process`] is one of the shapes
    /// `WarpCtx::fused_tile_pass` can execute (its per-step charges must
    /// equal [`PairAction::alu_per_pair`]). `None` — the default — keeps
    /// the kernel on the op-by-op interpretation route.
    fn fused_consumer<'s>(
        &self,
        _st: &'s mut Self::Block,
        _warp_id: u32,
    ) -> Option<FusedConsumer<'s>> {
        None
    }

    /// The action's output-sink shape for plan lowering
    /// (`gpu_sim::CompiledKernel::lower`). Unlike
    /// [`PairAction::fused_consumer`] this borrows no per-block state —
    /// lowering happens once, before any block runs. `None` — the
    /// default — keeps the plan off the compiled route (fused/op-by-op
    /// still apply).
    fn compiled_sink(&self) -> Option<CompiledSinkSpec> {
        None
    }
}

// ====================================================================
// Type-I
// ====================================================================

/// 2-point-correlation-function output: each thread counts pairs within
/// `radius` in a register; counts are stored to `out[global_tid]` when
/// the block exits and summed on the host.
#[derive(Debug, Clone, Copy)]
pub struct CountWithinRadius {
    /// Count pairs with distance strictly below this radius.
    pub radius: f32,
    /// Per-thread output counts, length ≥ total threads of the launch.
    pub out: BufU64,
}

impl PairAction for CountWithinRadius {
    /// One `U64x32` register accumulator per warp.
    type Block = Vec<U64x32>;

    fn name(&self) -> &'static str {
        "count-within-radius"
    }

    fn class(&self) -> OutputClass {
        OutputClass::TypeI
    }

    fn begin_block(&self, blk: &mut BlockCtx<'_>) -> Self::Block {
        vec![[0u64; WARP_SIZE]; blk.num_warps() as usize]
    }

    fn process(
        &self,
        w: &mut WarpCtx<'_, '_>,
        st: &mut Self::Block,
        _left: &U32x32,
        _right: &U32x32,
        value: &F32x32,
        mask: Mask,
    ) {
        // Compare (1 ALU) + predicated increment (1 ALU).
        let hits = w.lt_f32(value, self.radius, mask);
        w.charge_alu(1, mask);
        let acc = &mut st[w.warp_id as usize];
        for lane in hits.lanes() {
            acc[lane] += 1;
        }
    }

    fn end_block(&self, blk: &mut BlockCtx<'_>, st: Self::Block) {
        let out = self.out;
        blk.for_each_warp(|w| {
            let gid = w.global_thread_ids();
            let m = w.active_threads();
            w.global_store_u64(out, &gid, &st[w.warp_id as usize], m);
        });
    }

    fn alu_per_pair(&self) -> u64 {
        2
    }

    fn fused_consumer<'s>(
        &self,
        st: &'s mut Self::Block,
        warp_id: u32,
    ) -> Option<FusedConsumer<'s>> {
        Some(FusedConsumer::CountLt {
            radius: self.radius,
            acc: &mut st[warp_id as usize],
        })
    }

    fn compiled_sink(&self) -> Option<CompiledSinkSpec> {
        Some(CompiledSinkSpec::CountLt {
            radius: self.radius,
        })
    }
}

/// Per-point k-nearest-neighbor distances (small k — a Type-I output per
/// the paper's §III-B: "all-point k-nearest neighbors (when k is
/// small)"). Each thread keeps its k best distances and neighbor ids in
/// registers via predicated insertion.
///
/// Requires kernels running in [`crate::kernels::PairScope::AllPairs`]
/// mode so every point sees every other point.
#[derive(Debug, Clone, Copy)]
pub struct KnnAction<const K: usize> {
    /// Best-distance output, laid out `out_dist[k * n + point]`
    /// (coalesced per-k stores).
    pub out_dist: BufF32,
    /// Matching neighbor indices, same layout.
    pub out_idx: BufU32,
    /// Number of points.
    pub n: u32,
}

/// Per-warp kNN register state.
pub struct KnnBlock<const K: usize> {
    dists: Vec<[F32x32; K]>,
    idxs: Vec<[U32x32; K]>,
}

impl<const K: usize> PairAction for KnnAction<K> {
    type Block = KnnBlock<K>;

    fn name(&self) -> &'static str {
        "knn"
    }

    fn class(&self) -> OutputClass {
        OutputClass::TypeI
    }

    fn begin_block(&self, blk: &mut BlockCtx<'_>) -> Self::Block {
        let w = blk.num_warps() as usize;
        KnnBlock {
            dists: vec![[[f32::INFINITY; WARP_SIZE]; K]; w],
            idxs: vec![[[u32::MAX; WARP_SIZE]; K]; w],
        }
    }

    fn process(
        &self,
        w: &mut WarpCtx<'_, '_>,
        st: &mut Self::Block,
        _left: &U32x32,
        right: &U32x32,
        value: &F32x32,
        mask: Mask,
    ) {
        // SIMT predication: the insertion network executes on every lane
        // regardless of whether it inserts — fixed cost 2·K + 1.
        w.charge_alu(2 * K as u64 + 1, mask);
        let wid = w.warp_id as usize;
        for lane in mask.lanes() {
            let (d, idx) = (value[lane], right[lane]);
            let dists = &mut st.dists[wid];
            let idxs = &mut st.idxs[wid];
            if d < dists[K - 1][lane] {
                // Insertion sort from the back.
                let mut pos = K - 1;
                while pos > 0 && dists[pos - 1][lane] > d {
                    dists[pos][lane] = dists[pos - 1][lane];
                    idxs[pos][lane] = idxs[pos - 1][lane];
                    pos -= 1;
                }
                dists[pos][lane] = d;
                idxs[pos][lane] = idx;
            }
        }
    }

    fn end_block(&self, blk: &mut BlockCtx<'_>, st: Self::Block) {
        let (out_dist, out_idx, n) = (self.out_dist, self.out_idx, self.n);
        blk.for_each_warp(|w| {
            let gid = w.global_thread_ids();
            let m = w.mask_lt(&gid, n).and(w.active_threads());
            for k in 0..K {
                let slot: U32x32 = std::array::from_fn(|i| k as u32 * n + gid[i]);
                w.charge_alu(1, m);
                w.global_store_f32(out_dist, &slot, &st.dists[w.warp_id as usize][k], m);
                w.global_store_u32(out_idx, &slot, &st.idxs[w.warp_id as usize][k], m);
            }
        });
    }

    fn regs_per_thread(&self) -> u32 {
        2 + 2 * K as u32
    }

    fn alu_per_pair(&self) -> u64 {
        2 * K as u64 + 1
    }
}

/// Kernel density estimation: each thread accumulates Σ K(xᵢ, xⱼ) over
/// all other points in a register (Type-I). The "distance function"
/// should be a kernel weight such as [`crate::distance::GaussianRbf`].
///
/// Requires [`crate::kernels::PairScope::AllPairs`].
#[derive(Debug, Clone, Copy)]
pub struct KdeAction {
    /// Per-point density sums, length ≥ n.
    pub out: BufF32,
    /// Number of points.
    pub n: u32,
}

impl PairAction for KdeAction {
    type Block = Vec<F32x32>;

    fn name(&self) -> &'static str {
        "kde"
    }

    fn class(&self) -> OutputClass {
        OutputClass::TypeI
    }

    fn begin_block(&self, blk: &mut BlockCtx<'_>) -> Self::Block {
        vec![[0.0; WARP_SIZE]; blk.num_warps() as usize]
    }

    fn process(
        &self,
        w: &mut WarpCtx<'_, '_>,
        st: &mut Self::Block,
        _left: &U32x32,
        _right: &U32x32,
        value: &F32x32,
        mask: Mask,
    ) {
        w.charge_alu(1, mask);
        let acc = &mut st[w.warp_id as usize];
        for lane in mask.lanes() {
            acc[lane] += value[lane];
        }
    }

    fn end_block(&self, blk: &mut BlockCtx<'_>, st: Self::Block) {
        let (out, n) = (self.out, self.n);
        blk.for_each_warp(|w| {
            let gid = w.global_thread_ids();
            let m = w.mask_lt(&gid, n).and(w.active_threads());
            w.global_store_f32(out, &gid, &st[w.warp_id as usize], m);
        });
    }

    fn alu_per_pair(&self) -> u64 {
        1
    }

    fn fused_consumer<'s>(
        &self,
        st: &'s mut Self::Block,
        warp_id: u32,
    ) -> Option<FusedConsumer<'s>> {
        Some(FusedConsumer::Sum {
            acc: &mut st[warp_id as usize],
        })
    }

    fn compiled_sink(&self) -> Option<CompiledSinkSpec> {
        Some(CompiledSinkSpec::Sum)
    }
}

// ====================================================================
// Type-II
// ====================================================================

/// The paper's privatized histogram output (Algorithm 3): one private
/// `u32` copy per block in shared memory, updated with shared-memory
/// atomics, then flushed to a per-block region of global memory. A
/// separate reduction kernel ([`crate::kernels::HistogramReduceKernel`])
/// combines the private copies (Figure 3).
#[derive(Debug, Clone, Copy)]
pub struct SharedHistogramAction {
    /// Histogram geometry.
    pub spec: HistogramSpec,
    /// Private copies: `grid_dim × buckets` u32 values, block `b`'s copy
    /// at `[b * buckets .. (b+1) * buckets]`.
    pub private: BufU32,
}

/// Whether a privatized `u32` histogram copy is safe from wrapping: one
/// block of `block_size` threads sees fewer than `block_size · n` pairs
/// of a sweep whose partner side has `n` points, so even a single-bucket
/// pile-up stays below 2³² while `block_size · n < 2³²`. Callers refuse
/// larger sweeps instead of returning a silently wrapped count.
pub fn privatized_copy_fits(block_size: u32, n: u64) -> bool {
    (block_size as u128) * (n as u128) <= u32::MAX as u128
}

impl PairAction for SharedHistogramAction {
    type Block = ShmU32;

    fn name(&self) -> &'static str {
        "shared-histogram"
    }

    fn class(&self) -> OutputClass {
        OutputClass::TypeII
    }

    fn begin_block(&self, blk: &mut BlockCtx<'_>) -> Self::Block {
        let h = self.spec.buckets;
        let shm = blk.shared_alloc_u32(h as usize);
        // Algorithm 3, line 1: initialize shared memory to zero,
        // cooperatively (thread t zeroes buckets t, t+B, t+2B, …).
        let bd = blk.block_dim;
        blk.for_each_warp(|w| {
            let tid = w.thread_ids();
            let mut off = 0u32;
            while off < h {
                let idx: U32x32 = std::array::from_fn(|i| off + tid[i]);
                let m = w.mask_lt(&idx, h).and(w.active_threads());
                if m.any() {
                    w.shared_store_u32(shm, &idx, &[0; WARP_SIZE], m);
                }
                off += bd;
            }
        });
        blk.syncthreads();
        shm
    }

    fn process(
        &self,
        w: &mut WarpCtx<'_, '_>,
        st: &mut Self::Block,
        _left: &U32x32,
        _right: &U32x32,
        value: &F32x32,
        mask: Mask,
    ) {
        // Algorithm 3, line 7: SHMOut[d] += 1 via shared atomic.
        let bucket = self.spec.bucket_lanes(w, value, mask);
        w.shared_atomic_add_u32(*st, &bucket, &[1; WARP_SIZE], mask);
    }

    fn end_block(&self, blk: &mut BlockCtx<'_>, st: Self::Block) {
        // Algorithm 3, line 15: Output[b][t] <- SHMOut[t], strided so the
        // global stores coalesce.
        blk.syncthreads();
        let h = self.spec.buckets;
        let base = blk.block_id * h;
        let bd = blk.block_dim;
        let private = self.private;
        blk.for_each_warp(|w| {
            let tid = w.thread_ids();
            let mut off = 0u32;
            while off < h {
                let idx: U32x32 = std::array::from_fn(|i| off + tid[i]);
                let m = w.mask_lt(&idx, h).and(w.active_threads());
                if m.any() {
                    let vals = w.shared_load_u32(st, &idx, m);
                    let slot: U32x32 = std::array::from_fn(|i| base + idx[i]);
                    w.charge_alu(1, m);
                    w.global_store_u32(private, &slot, &vals, m);
                }
                off += bd;
            }
        });
    }

    fn shared_bytes(&self, _block_dim: u32) -> u32 {
        self.spec.shared_bytes()
    }

    fn alu_per_pair(&self) -> u64 {
        2 // bucket computation; the atomic itself is a memory op
    }

    fn fused_consumer<'s>(
        &self,
        st: &'s mut Self::Block,
        _warp_id: u32,
    ) -> Option<FusedConsumer<'s>> {
        Some(FusedConsumer::Histogram {
            inv_width: self.spec.inv_width(),
            hmax: self.spec.buckets.saturating_sub(1),
            shm: *st,
        })
    }

    fn compiled_sink(&self) -> Option<CompiledSinkSpec> {
        Some(CompiledSinkSpec::Histogram {
            inv_width: self.spec.inv_width(),
            hmax: self.spec.buckets.saturating_sub(1),
        })
    }
}

/// Multi-copy privatized histogram: `copies` private histograms per
/// block, lane `l` updating copy `l mod copies` — sub-warp privatization
/// that spreads a warp's simultaneous updates over several addresses.
///
/// Reproduces the paper's §IV-C aside: *"We tested more private copies
/// per block and found that it does not bring overall performance
/// advantage (data not shown)"* — extra copies cut same-address
/// contention but cost shared memory (occupancy) and a wider end-of-block
/// reduction; the `ext_multicopy` bench maps out both regimes.
#[derive(Debug, Clone, Copy)]
pub struct MultiCopyHistogramAction {
    /// Histogram geometry.
    pub spec: HistogramSpec,
    /// Private per-block output, `grid_dim × buckets` (copies are merged
    /// before leaving the block).
    pub private: BufU32,
    /// Private copies per block (≥ 1).
    pub copies: u32,
}

impl PairAction for MultiCopyHistogramAction {
    type Block = ShmU32;

    fn name(&self) -> &'static str {
        "multicopy-histogram"
    }

    fn class(&self) -> OutputClass {
        OutputClass::TypeII
    }

    fn begin_block(&self, blk: &mut BlockCtx<'_>) -> Self::Block {
        let total = self.spec.buckets * self.copies.max(1);
        let shm = blk.shared_alloc_u32(total as usize);
        let bd = blk.block_dim;
        blk.for_each_warp(|w| {
            let tid = w.thread_ids();
            let mut off = 0u32;
            while off < total {
                let idx: U32x32 = std::array::from_fn(|i| off + tid[i]);
                let m = w.mask_lt(&idx, total).and(w.active_threads());
                if m.any() {
                    w.shared_store_u32(shm, &idx, &[0; WARP_SIZE], m);
                }
                off += bd;
            }
        });
        blk.syncthreads();
        shm
    }

    fn process(
        &self,
        w: &mut WarpCtx<'_, '_>,
        st: &mut Self::Block,
        _left: &U32x32,
        _right: &U32x32,
        value: &F32x32,
        mask: Mask,
    ) {
        let bucket = self.spec.bucket_lanes(w, value, mask);
        let copies = self.copies.max(1);
        let h = self.spec.buckets;
        let idx: U32x32 = std::array::from_fn(|i| (i as u32 % copies) * h + bucket[i]);
        w.charge_alu(1, mask);
        w.shared_atomic_add_u32(*st, &idx, &[1; WARP_SIZE], mask);
    }

    fn end_block(&self, blk: &mut BlockCtx<'_>, st: Self::Block) {
        blk.syncthreads();
        let h = self.spec.buckets;
        let copies = self.copies.max(1);
        let base = blk.block_id * h;
        let bd = blk.block_dim;
        let private = self.private;
        blk.for_each_warp(|w| {
            let tid = w.thread_ids();
            let mut off = 0u32;
            while off < h {
                let idx: U32x32 = std::array::from_fn(|i| off + tid[i]);
                let m = w.mask_lt(&idx, h).and(w.active_threads());
                if m.any() {
                    // Sum the copies for these buckets — packed route
                    // first (one fused call for the whole copy loop,
                    // bit-identical charges), op-by-op fallback when it
                    // declines.
                    let mut acc = [0u32; WARP_SIZE];
                    if !w.fused_shared_copy_reduce_u32(st, &idx, h, copies, &mut acc, m) {
                        for c in 0..copies {
                            let src: U32x32 = std::array::from_fn(|i| c * h + idx[i]);
                            let vals = w.shared_load_u32(st, &src, m);
                            w.charge_alu(1, m);
                            for lane in m.lanes() {
                                acc[lane] = acc[lane].wrapping_add(vals[lane]);
                            }
                        }
                    }
                    let slot: U32x32 = std::array::from_fn(|i| base + idx[i]);
                    w.charge_alu(1, m);
                    w.global_store_u32(private, &slot, &acc, m);
                }
                off += bd;
            }
        });
    }

    fn shared_bytes(&self, _block_dim: u32) -> u32 {
        self.spec.shared_bytes() * self.copies.max(1)
    }

    fn alu_per_pair(&self) -> u64 {
        3
    }
}

/// Unprivatized Type-II output: every update is an atomic on the final
/// `u64` histogram in global memory — the paper's baseline output stage
/// whose cost privatization removes ("about one order of magnitude",
/// §IV-D).
#[derive(Debug, Clone, Copy)]
pub struct GlobalHistogramAction {
    /// Histogram geometry.
    pub spec: HistogramSpec,
    /// Final histogram, length = buckets.
    pub out: BufU64,
}

impl PairAction for GlobalHistogramAction {
    type Block = ();

    fn name(&self) -> &'static str {
        "global-histogram"
    }

    fn class(&self) -> OutputClass {
        OutputClass::TypeII
    }

    fn begin_block(&self, _blk: &mut BlockCtx<'_>) -> Self::Block {}

    fn process(
        &self,
        w: &mut WarpCtx<'_, '_>,
        _st: &mut Self::Block,
        _left: &U32x32,
        _right: &U32x32,
        value: &F32x32,
        mask: Mask,
    ) {
        let bucket = self.spec.bucket_lanes(w, value, mask);
        w.global_atomic_add_u64(self.out, &bucket, &[1; WARP_SIZE], mask);
    }

    fn end_block(&self, _blk: &mut BlockCtx<'_>, _st: Self::Block) {}

    fn alu_per_pair(&self) -> u64 {
        2
    }
}

// ====================================================================
// Type-III
// ====================================================================

/// Distance-join output: pairs within `radius` are appended to a global
/// pair list through an atomically-bumped cursor (Type-III — the output
/// can be quadratic).
///
/// With `aggregated = true`, the allocation atomic is issued once per
/// warp instead of once per lane: the warp counts its hits, one lane
/// reserves the whole range, and the base slot is shuffled to everyone —
/// our implementation of the paper's future-work direction for Type-III.
#[derive(Debug, Clone, Copy)]
pub struct PairListAction {
    /// Join radius (inclusive comparison is `<`).
    pub radius: f32,
    /// One-element cursor; final value = total matches (may exceed
    /// capacity, in which case the list is truncated).
    pub cursor: BufU32,
    /// Matched left indices.
    pub out_left: BufU32,
    /// Matched right indices.
    pub out_right: BufU32,
    /// Capacity of the output arrays.
    pub capacity: u32,
    /// Use warp-aggregated slot allocation.
    pub aggregated: bool,
}

impl PairAction for PairListAction {
    type Block = ();

    fn name(&self) -> &'static str {
        if self.aggregated {
            "pair-list-aggregated"
        } else {
            "pair-list"
        }
    }

    fn class(&self) -> OutputClass {
        OutputClass::TypeIII
    }

    fn begin_block(&self, _blk: &mut BlockCtx<'_>) -> Self::Block {}

    fn process(
        &self,
        w: &mut WarpCtx<'_, '_>,
        _st: &mut Self::Block,
        left: &U32x32,
        right: &U32x32,
        value: &F32x32,
        mask: Mask,
    ) {
        let hits = w.lt_f32(value, self.radius, mask);
        if !hits.any() {
            return;
        }
        let slots: U32x32;
        if self.aggregated {
            // ballot + popc + per-lane rank (prefix over the hit mask).
            w.charge_alu(3, mask);
            let total = hits.count();
            // One lane performs the allocation for the warp.
            let leader = Mask(1 << hits.lanes().next().expect("hits is non-empty"));
            let mut amounts = [0u32; WARP_SIZE];
            for lane in leader.lanes() {
                amounts[lane] = total;
            }
            let old = w.global_atomic_add_u32(self.cursor, &[0; WARP_SIZE], &amounts, leader);
            let base = w.shfl_bcast_u32(&old, hits.lanes().next().unwrap() as u32, hits);
            let mut rank = 0u32;
            slots = std::array::from_fn(|i| {
                if hits.lane(i) {
                    let s = base[i] + rank;
                    rank += 1;
                    s
                } else {
                    0
                }
            });
        } else {
            // Every hit lane bumps the cursor itself: maximal contention,
            // the naive Type-III allocation.
            let old = w.global_atomic_add_u32(self.cursor, &[0; WARP_SIZE], &[1; WARP_SIZE], hits);
            slots = old;
        }
        // Drop writes beyond capacity (the cursor still counts them).
        let writable = Mask::from_fn(|i| hits.lane(i) && slots[i] < self.capacity);
        w.charge_alu(1, hits);
        if writable.any() {
            w.global_store_u32(self.out_left, &slots, left, writable);
            w.global_store_u32(self.out_right, &slots, right, writable);
        }
    }

    fn end_block(&self, _blk: &mut BlockCtx<'_>, _st: Self::Block) {}

    fn alu_per_pair(&self) -> u64 {
        if self.aggregated {
            5
        } else {
            2
        }
    }
}

/// Kernel (Gram) matrix output: `out[j·n + i] = K(xᵢ, xⱼ)` for every
/// pair — a dense N × N Type-III output.
///
/// Stores are issued into the row of the *broadcast* point (`right`), so
/// consecutive lanes write consecutive addresses and coalesce; with
/// `symmetric = true`, the mirrored (strided, 32-sector) store fills the
/// other triangle — the honest cost of symmetric Type-III output.
#[derive(Debug, Clone, Copy)]
pub struct MatrixWriteAction {
    /// Output matrix, `n × n`, row-major.
    pub out: BufF32,
    /// Matrix dimension.
    pub n: u32,
    /// Also write the transposed entry.
    pub symmetric: bool,
}

impl PairAction for MatrixWriteAction {
    type Block = ();

    fn name(&self) -> &'static str {
        "matrix-write"
    }

    fn class(&self) -> OutputClass {
        OutputClass::TypeIII
    }

    fn begin_block(&self, _blk: &mut BlockCtx<'_>) -> Self::Block {}

    fn process(
        &self,
        w: &mut WarpCtx<'_, '_>,
        _st: &mut Self::Block,
        left: &U32x32,
        right: &U32x32,
        value: &F32x32,
        mask: Mask,
    ) {
        let n = self.n;
        // Coalesced row write: right is (usually) uniform across lanes,
        // left consecutive.
        let slot: U32x32 = std::array::from_fn(|i| right[i].wrapping_mul(n).wrapping_add(left[i]));
        w.charge_alu(1, mask);
        w.global_store_f32(self.out, &slot, value, mask);
        if self.symmetric {
            let t: U32x32 = std::array::from_fn(|i| left[i].wrapping_mul(n).wrapping_add(right[i]));
            w.charge_alu(1, mask);
            w.global_store_f32(self.out, &t, value, mask);
        }
    }

    fn end_block(&self, _blk: &mut BlockCtx<'_>, _st: Self::Block) {}

    fn alu_per_pair(&self) -> u64 {
        if self.symmetric {
            2
        } else {
            1
        }
    }
}

// ====================================================================
// Batched multi-query (the serve layer's coalesced sweep)
// ====================================================================

/// One count-within-radius consumer of a [`MultiQueryAction`] batch —
/// the [`CountWithinRadius`] shape with its own radius and output.
#[derive(Debug, Clone, Copy)]
pub struct MultiCountSink {
    /// Count pairs with distance strictly below this radius.
    pub radius: f32,
    /// Per-thread output counts, length ≥ total threads of the launch.
    pub out: BufU64,
}

/// One privatized-histogram consumer of a [`MultiQueryAction`] batch —
/// the [`SharedHistogramAction`] shape with its own geometry and
/// private-copy output.
#[derive(Debug, Clone, Copy)]
pub struct MultiHistSink {
    /// Histogram geometry.
    pub spec: HistogramSpec,
    /// Private copies: `grid_dim × buckets` u32 values, block `b`'s copy
    /// at `[b * buckets .. (b+1) * buckets]`.
    pub private: BufU32,
}

/// Many queries, one pairwise sweep: each computed distance feeds every
/// count sink and every histogram sink in order, so `k` queries that
/// share a dataset + distance kernel cost one O(N²) stage instead of
/// `k`. This is the engine half of the `tbs-serve` query batcher
/// (CADISHI's producer/consumer pipeline shape: one distance evaluation,
/// many histogram consumers).
///
/// Per-sink behaviour — outputs *and* charges — replicates the
/// standalone actions exactly ([`CountWithinRadius`],
/// [`SharedHistogramAction`]), and the fused route drives all sinks from
/// one `FusedConsumer::Multi` pass, so a batched run stays bit-identical
/// to issuing each query alone (the differential suites enforce this).
/// The compiled route lowers the same sink list
/// (`CompiledSinkSpec::Multi`, counts then histograms), so coalesced
/// SDH batches ride the compiled inter-tile pass; the intra triangle
/// stays on the fused route.
#[derive(Debug, Clone, Default)]
pub struct MultiQueryAction {
    /// Count consumers, fed first (in order).
    pub counts: Vec<MultiCountSink>,
    /// Histogram consumers, fed after the counts (in order).
    pub hists: Vec<MultiHistSink>,
}

/// Per-block state of a [`MultiQueryAction`]: one register accumulator
/// per warp per count sink, one privatized shared histogram per
/// histogram sink.
pub struct MultiQueryBlock {
    counts: Vec<Vec<U64x32>>,
    hists: Vec<ShmU32>,
}

impl PairAction for MultiQueryAction {
    type Block = MultiQueryBlock;

    fn name(&self) -> &'static str {
        "multi-query"
    }

    fn class(&self) -> OutputClass {
        if self.hists.is_empty() {
            OutputClass::TypeI
        } else {
            OutputClass::TypeII
        }
    }

    fn begin_block(&self, blk: &mut BlockCtx<'_>) -> Self::Block {
        let counts = self
            .counts
            .iter()
            .map(|_| vec![[0u64; WARP_SIZE]; blk.num_warps() as usize])
            .collect();
        // Zero every sink's private histogram cooperatively, then one
        // barrier covers them all (Algorithm 3, line 1, per sink).
        let bd = blk.block_dim;
        let hists: Vec<ShmU32> = self
            .hists
            .iter()
            .map(|hs| {
                let h = hs.spec.buckets;
                let shm = blk.shared_alloc_u32(h as usize);
                blk.for_each_warp(|w| {
                    let tid = w.thread_ids();
                    let mut off = 0u32;
                    while off < h {
                        let idx: U32x32 = std::array::from_fn(|i| off + tid[i]);
                        let m = w.mask_lt(&idx, h).and(w.active_threads());
                        if m.any() {
                            w.shared_store_u32(shm, &idx, &[0; WARP_SIZE], m);
                        }
                        off += bd;
                    }
                });
                shm
            })
            .collect();
        if !hists.is_empty() {
            blk.syncthreads();
        }
        MultiQueryBlock { counts, hists }
    }

    fn process(
        &self,
        w: &mut WarpCtx<'_, '_>,
        st: &mut Self::Block,
        _left: &U32x32,
        _right: &U32x32,
        value: &F32x32,
        mask: Mask,
    ) {
        // Sink order here must match `fused_consumer` below: counts
        // first, then histograms — each body identical to its standalone
        // action's `process`.
        for (cs, acc) in self.counts.iter().zip(st.counts.iter_mut()) {
            let hits = w.lt_f32(value, cs.radius, mask);
            w.charge_alu(1, mask);
            let acc = &mut acc[w.warp_id as usize];
            for lane in hits.lanes() {
                acc[lane] += 1;
            }
        }
        for (hs, shm) in self.hists.iter().zip(st.hists.iter()) {
            let bucket = hs.spec.bucket_lanes(w, value, mask);
            w.shared_atomic_add_u32(*shm, &bucket, &[1; WARP_SIZE], mask);
        }
    }

    fn end_block(&self, blk: &mut BlockCtx<'_>, st: Self::Block) {
        if !st.hists.is_empty() {
            blk.syncthreads();
        }
        let bd = blk.block_dim;
        for (hs, shm) in self.hists.iter().zip(st.hists.iter()) {
            let h = hs.spec.buckets;
            let base = blk.block_id * h;
            let private = hs.private;
            let shm = *shm;
            blk.for_each_warp(|w| {
                let tid = w.thread_ids();
                let mut off = 0u32;
                while off < h {
                    let idx: U32x32 = std::array::from_fn(|i| off + tid[i]);
                    let m = w.mask_lt(&idx, h).and(w.active_threads());
                    if m.any() {
                        let vals = w.shared_load_u32(shm, &idx, m);
                        let slot: U32x32 = std::array::from_fn(|i| base + idx[i]);
                        w.charge_alu(1, m);
                        w.global_store_u32(private, &slot, &vals, m);
                    }
                    off += bd;
                }
            });
        }
        for (cs, acc) in self.counts.iter().zip(st.counts.iter()) {
            let out = cs.out;
            blk.for_each_warp(|w| {
                let gid = w.global_thread_ids();
                let m = w.active_threads();
                w.global_store_u64(out, &gid, &acc[w.warp_id as usize], m);
            });
        }
    }

    fn shared_bytes(&self, _block_dim: u32) -> u32 {
        self.hists.iter().map(|hs| hs.spec.shared_bytes()).sum()
    }

    fn regs_per_thread(&self) -> u32 {
        (2 * self.counts.len() as u32).max(2)
    }

    fn alu_per_pair(&self) -> u64 {
        // Two per sink: compare+add for counts, bucket+clamp for
        // histograms (each atomic itself is a memory op).
        2 * (self.counts.len() + self.hists.len()) as u64
    }

    fn fused_consumer<'s>(
        &self,
        st: &'s mut Self::Block,
        warp_id: u32,
    ) -> Option<FusedConsumer<'s>> {
        let mut sinks = Vec::with_capacity(self.counts.len() + self.hists.len());
        for (cs, acc) in self.counts.iter().zip(st.counts.iter_mut()) {
            sinks.push(FusedSink::CountLt {
                radius: cs.radius,
                acc: &mut acc[warp_id as usize],
            });
        }
        for (hs, shm) in self.hists.iter().zip(st.hists.iter()) {
            sinks.push(FusedSink::Histogram {
                inv_width: hs.spec.inv_width(),
                hmax: hs.spec.buckets.saturating_sub(1),
                shm: *shm,
            });
        }
        Some(FusedConsumer::Multi(sinks))
    }

    fn compiled_sink(&self) -> Option<CompiledSinkSpec> {
        Some(CompiledSinkSpec::Multi {
            counts: self.counts.iter().map(|cs| cs.radius).collect(),
            hists: self
                .hists
                .iter()
                .map(|hs| (hs.spec.inv_width(), hs.spec.buckets.saturating_sub(1)))
                .collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn privatized_copy_bound_sits_at_two_to_the_32() {
        // 3 · 1,431,655,765 = 2³² − 1 fits; 1024 · 4,194,304 = 2³² wraps.
        assert!(privatized_copy_fits(3, 1_431_655_765));
        assert!(!privatized_copy_fits(3, 1_431_655_766));
        assert!(privatized_copy_fits(1, u32::MAX as u64));
        assert!(!privatized_copy_fits(1, 1 << 32));
        assert!(privatized_copy_fits(1024, (1 << 22) - 1));
        assert!(!privatized_copy_fits(1024, 1 << 22));
        assert!(!privatized_copy_fits(u32::MAX, u64::MAX));
    }
}
