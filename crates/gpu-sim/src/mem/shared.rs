//! Per-block programmable shared memory with 32-bank conflict modeling.
//!
//! Shared memory is the fastest programmable store on the SM (paper
//! §IV-A: 28-cycle latency, ≈ 3 TB/s aggregate bandwidth) and the home of
//! the paper's output-privatization technique. Conflicts follow the
//! hardware rule: lanes of a warp accessing *different 4-byte words in
//! the same bank* serialize; lanes reading the *same* word broadcast.

use crate::error::SimError;
use crate::WARP_SIZE;

/// Handle to an `f32` shared-memory array within one block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShmF32(pub(crate) usize);

/// Handle to a `u32` shared-memory array within one block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShmU32(pub(crate) usize);

/// Handle to a `u64` shared-memory array within one block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShmU64(pub(crate) usize);

#[derive(Debug)]
enum ShmStorage {
    F32(Vec<f32>),
    U32(Vec<u32>),
    U64(Vec<u64>),
}

impl ShmStorage {
    fn words_per_elem(&self) -> u64 {
        match self {
            ShmStorage::F32(_) | ShmStorage::U32(_) => 1,
            ShmStorage::U64(_) => 2,
        }
    }

    fn len(&self) -> usize {
        match self {
            ShmStorage::F32(v) => v.len(),
            ShmStorage::U32(v) => v.len(),
            ShmStorage::U64(v) => v.len(),
        }
    }
}

/// Reusable occupancy counters for [`SharedSpace::scatter_account`].
/// All counters are zero between calls (reset via the touched list).
#[derive(Debug, Default)]
pub struct ScatterScratch {
    /// Occurrence count per word offset, grown lazily to the largest
    /// offset seen.
    cnt: Vec<u8>,
    /// Distinct-word count per bank.
    bank_distinct: [u8; WARP_SIZE],
    /// `(word offset, bank)` of each distinct word of the current call.
    touched: Vec<(u32, u8)>,
}

/// One block's shared-memory allocations.
#[derive(Debug, Default)]
pub struct SharedSpace {
    arrays: Vec<ShmStorage>,
    /// Base offset of each array in 4-byte words (determines banks).
    base_words: Vec<u64>,
    next_word: u64,
    banks: u32,
    /// Route conflict counting through the legacy nested-scan
    /// implementation (differential testing / before-after measurement).
    scalar_reference: bool,
}

impl SharedSpace {
    pub fn new(banks: u32) -> Self {
        SharedSpace {
            arrays: Vec::new(),
            base_words: Vec::new(),
            next_word: 0,
            banks: banks.max(1),
            scalar_reference: false,
        }
    }

    /// Toggle the legacy conflict-counting path; the counts are
    /// identical either way (see `DeviceConfig::with_scalar_reference`).
    pub fn set_scalar_reference(&mut self, on: bool) {
        self.scalar_reference = on;
    }

    fn push(&mut self, s: ShmStorage) -> usize {
        let id = self.arrays.len();
        self.base_words.push(self.next_word);
        self.next_word += s.words_per_elem() * s.len() as u64;
        self.arrays.push(s);
        id
    }

    /// Allocate a zero-initialized `f32` array ("`__shared__ float[]`").
    pub fn alloc_f32(&mut self, len: usize) -> ShmF32 {
        ShmF32(self.push(ShmStorage::F32(vec![0.0; len])))
    }

    /// Allocate a zero-initialized `u32` array.
    pub fn alloc_u32(&mut self, len: usize) -> ShmU32 {
        ShmU32(self.push(ShmStorage::U32(vec![0; len])))
    }

    /// Allocate a zero-initialized `u64` array.
    pub fn alloc_u64(&mut self, len: usize) -> ShmU64 {
        ShmU64(self.push(ShmStorage::U64(vec![0; len])))
    }

    /// Bytes allocated so far (for occupancy accounting / limit checks).
    pub fn allocated_bytes(&self) -> u64 {
        self.next_word * 4
    }

    pub fn f32s(&self, h: ShmF32) -> &[f32] {
        match &self.arrays[h.0] {
            ShmStorage::F32(v) => v,
            _ => unreachable!("handle type guarantees f32 storage"),
        }
    }

    pub fn f32s_mut(&mut self, h: ShmF32) -> &mut [f32] {
        match &mut self.arrays[h.0] {
            ShmStorage::F32(v) => v,
            _ => unreachable!("handle type guarantees f32 storage"),
        }
    }

    pub fn u32s(&self, h: ShmU32) -> &[u32] {
        match &self.arrays[h.0] {
            ShmStorage::U32(v) => v,
            _ => unreachable!("handle type guarantees u32 storage"),
        }
    }

    pub fn u32s_mut(&mut self, h: ShmU32) -> &mut [u32] {
        match &mut self.arrays[h.0] {
            ShmStorage::U32(v) => v,
            _ => unreachable!("handle type guarantees u32 storage"),
        }
    }

    pub fn u64s(&self, h: ShmU64) -> &[u64] {
        match &self.arrays[h.0] {
            ShmStorage::U64(v) => v,
            _ => unreachable!("handle type guarantees u64 storage"),
        }
    }

    pub fn u64s_mut(&mut self, h: ShmU64) -> &mut [u64] {
        match &mut self.arrays[h.0] {
            ShmStorage::U64(v) => v,
            _ => unreachable!("handle type guarantees u64 storage"),
        }
    }

    pub(crate) fn check_bounds(&self, array: usize, idx: u32, what: &str) -> Result<(), SimError> {
        let len = self.arrays[array].len();
        if (idx as usize) < len {
            Ok(())
        } else {
            Err(SimError::OutOfBounds {
                what: what.to_string(),
                index: idx as usize,
                len,
            })
        }
    }

    /// Number of serialized transactions for a warp access to element
    /// indices `idxs` (active lanes only) of array `array`.
    ///
    /// Implements the hardware rule: the access replays once per extra
    /// distinct word mapped to the same bank; same-word lanes broadcast.
    /// Returns at least 1 when any lane is active.
    pub fn transactions_for(&self, array: usize, idxs: &[u32]) -> u64 {
        if self.scalar_reference {
            return self.transactions_for_reference(array, idxs);
        }
        if idxs.is_empty() {
            return 0;
        }
        let base = self.base_words[array];
        let wpe = self.arrays[array].words_per_elem();
        let banks = self.banks as u64;

        // Shape fast paths for the two warp access patterns the kernels
        // actually emit — broadcast (tile reuse) and unit stride (tile
        // loads / privatized outputs) — where the conflict degree follows
        // arithmetically from the shape.
        let first = idxs[0] as u64;
        if idxs.iter().all(|&i| i as u64 == first) {
            // Broadcast: one element, `wpe` adjacent words. One word is
            // always a single transaction; two adjacent words land in two
            // distinct banks whenever 2 <= banks <= 32.
            if wpe == 1 || (2..=32).contains(&banks) {
                return 1;
            }
        } else if banks == 32
            && idxs
                .iter()
                .enumerate()
                .all(|(k, &v)| v as u64 == first + k as u64)
        {
            // Unit stride: `len * wpe` contiguous words spread round-robin
            // over the 32 banks, so the fullest bank holds the ceiling.
            return (idxs.len() as u64 * wpe).div_ceil(32).max(1);
        }

        // General path: dedup words only against words already placed in
        // the same bank. `bank_entries[b]` is a bitmask over the slots of
        // `words` that hold bank-`b` words, so membership scans walk just
        // the (usually tiny) per-bank population and the per-bank counts
        // fall out as popcounts.
        let mut words = [0u64; 2 * WARP_SIZE];
        let mut n_words = 0usize;
        let mut bank_entries = [0u64; WARP_SIZE];
        for &idx in idxs {
            for w in 0..wpe {
                let word = base + idx as u64 * wpe + w;
                let bank = (word % banks) as usize % WARP_SIZE;
                let mut m = bank_entries[bank];
                let mut dup = false;
                while m != 0 {
                    let e = m.trailing_zeros() as usize;
                    m &= m - 1;
                    if words[e] == word {
                        dup = true;
                        break;
                    }
                }
                if !dup {
                    words[n_words] = word;
                    bank_entries[bank] |= 1 << n_words;
                    n_words += 1;
                }
            }
        }
        let max_count = bank_entries
            .iter()
            .map(|m| m.count_ones() as u64)
            .max()
            .unwrap_or(0);
        max_count.max(1)
    }

    /// The pre-optimization conflict counter, kept verbatim as the
    /// scalar reference for the differential tests.
    pub fn transactions_for_reference(&self, array: usize, idxs: &[u32]) -> u64 {
        if idxs.is_empty() {
            return 0;
        }
        let base = self.base_words[array];
        let wpe = self.arrays[array].words_per_elem();
        let banks = self.banks as u64;
        // Collect the distinct words touched by the warp (≤ 32 lanes × 2
        // words for u64), then count distinct words per bank: the access
        // serializes once per extra word in the fullest bank, and lanes
        // reading the same word broadcast in a single transaction.
        let mut words = [u64::MAX; 2 * WARP_SIZE];
        let mut n_words = 0usize;
        for &idx in idxs {
            for w in 0..wpe {
                let word = base + idx as u64 * wpe + w;
                if !words[..n_words].contains(&word) {
                    words[n_words] = word;
                    n_words += 1;
                }
            }
        }
        let mut bank_counts = [0u64; WARP_SIZE];
        let mut max_count = 0u64;
        for &word in &words[..n_words] {
            let bank = (word % banks) as usize % WARP_SIZE;
            bank_counts[bank] += 1;
            max_count = max_count.max(bank_counts[bank]);
        }
        max_count.max(1)
    }

    /// Closed-form accounting for a warp-wide atomic scatter: the maximum
    /// same-element multiplicity and the serialized bank transactions of
    /// the active-lane element indices `vals`, computed in one pass.
    ///
    /// Bit-identical to running the two halves separately — the quadratic
    /// same-address scan the op-by-op atomic uses, then
    /// [`SharedSpace::transactions_for`] on the same slice. The bank rule
    /// depends only on the *distinct*-element set, so the deduplicating
    /// multiplicity scan can feed the conflict counter its survivors
    /// directly (`transactions_for` would re-deduplicate the full slice
    /// to the same words; its broadcast/unit-stride shortcuts agree with
    /// the general count by construction). `vals` must hold at most one
    /// entry per warp lane. Returns `(0, 0)` for an empty slice.
    pub fn atomic_scatter_accounting(&self, array: usize, vals: &[u32]) -> (u64, u64) {
        debug_assert!(vals.len() <= WARP_SIZE);
        if vals.is_empty() {
            return (0, 0);
        }
        // The same shape shortcuts the op-by-op atomic takes: a broadcast
        // fully serializes on one element, a unit-stride scatter has no
        // same-address contention at all.
        let first = vals[0];
        if vals.iter().all(|&v| v == first) {
            return (vals.len() as u64, self.transactions_for(array, &vals[..1]));
        }
        if vals
            .iter()
            .enumerate()
            .all(|(k, &v)| v as u64 == first as u64 + k as u64)
        {
            return (1, self.transactions_for(array, vals));
        }
        if !self.scalar_reference && self.arrays[array].words_per_elem() == 1 {
            return self.scatter_accounting_w1(array, vals);
        }
        let mut uniq = [0u32; WARP_SIZE];
        let mut count = [0u64; WARP_SIZE];
        let mut n = 0usize;
        let mut mult = 0u64;
        'outer: for &v in vals {
            for e in 0..n {
                if uniq[e] == v {
                    count[e] += 1;
                    mult = mult.max(count[e]);
                    continue 'outer;
                }
            }
            uniq[n] = v;
            count[n] = 1;
            mult = mult.max(1);
            n += 1;
        }
        (mult, self.transactions_for(array, &uniq[..n]))
    }

    /// [`Self::atomic_scatter_accounting`] with caller-owned scratch —
    /// the fused histogram consumers call this once per tile step, and
    /// the per-call array zeroing plus chain walks of the stateless path
    /// dominate a fused SDH sweep's host time. Reusing occupancy
    /// counters across steps (reset via the touched list, never a full
    /// clear) makes the accounting a flat pass over the active lanes.
    /// The result is identical to [`Self::atomic_scatter_accounting`];
    /// non-histogram shapes (multi-word elements, the scalar-reference
    /// route) fall back to it.
    pub fn scatter_account(
        &self,
        array: usize,
        vals: &[u32],
        scratch: &mut ScatterScratch,
    ) -> (u64, u64) {
        debug_assert!(vals.len() <= WARP_SIZE);
        if vals.is_empty() || self.scalar_reference || self.arrays[array].words_per_elem() != 1 {
            return self.atomic_scatter_accounting(array, vals);
        }
        let base = self.base_words[array];
        let banks = self.banks as u64;
        // Shape shortcuts first — the two scatter shapes pileup-heavy and
        // perfectly-spread histograms produce constantly. Both are flat
        // vectorizable compares over the lanes and skip the counter walk
        // entirely. They agree with the general path by construction:
        // a one-word broadcast is 1 transaction with full serialization,
        // a unit-stride scatter has no same-address contention and its
        // transactions follow from `transactions_for`'s stride shortcut.
        let first = vals[0];
        if vals.iter().all(|&v| v == first) {
            return (vals.len() as u64, 1);
        }
        if vals
            .iter()
            .enumerate()
            .all(|(k, &v)| v as u64 == first as u64 + k as u64)
        {
            return (1, self.transactions_for(array, vals));
        }
        // General scatters: one flat pass over the active lanes against
        // the persistent occupancy counters. The counters live across
        // tile steps (reset via the touched list, never a full clear), so
        // each lane costs one counter bump and first occurrences one bank
        // bump — no quadratic dedup scan, no per-step allocation.
        let (mut mult, mut txns) = (0u64, 1u64);
        for &v in vals {
            let vi = v as usize;
            if vi >= scratch.cnt.len() {
                scratch.cnt.resize(vi + 1, 0);
            }
            let c = scratch.cnt[vi] + 1;
            scratch.cnt[vi] = c;
            if c == 1 {
                let word = base + v as u64;
                let bank = if banks == 32 {
                    (word & 31) as usize
                } else {
                    (word % banks) as usize % WARP_SIZE
                };
                let bd = scratch.bank_distinct[bank] + 1;
                scratch.bank_distinct[bank] = bd;
                txns = txns.max(bd as u64);
                scratch.touched.push((v, bank as u8));
            }
            mult = mult.max(c as u64);
        }
        for &(v, bank) in &scratch.touched {
            scratch.cnt[v as usize] = 0;
            scratch.bank_distinct[bank as usize] = 0;
        }
        scratch.touched.clear();
        (mult, txns)
    }

    /// [`Self::scatter_account`] fused with the histogram data update:
    /// one walk over the active-lane bucket indices yields the
    /// accounting pair *and* applies `data[v] += 1` per lane (batched as
    /// `data[v] += count(v)` per distinct value — wrapping u32 adds
    /// commute, so the result is bit-identical to the per-lane
    /// increments the op-by-op atomic performs). The compiled histogram
    /// sinks use this for partial-warp steps — full-warp steps batch
    /// through [`Self::scatter_account_update_rows`] — and either way
    /// each distinct bucket is touched once instead of once for
    /// accounting and once for the update.
    pub fn scatter_account_update(
        &mut self,
        h: ShmU32,
        vals: &[u32],
        scratch: &mut ScatterScratch,
    ) -> (u64, u64) {
        debug_assert!(vals.len() <= WARP_SIZE);
        if vals.is_empty() {
            return (0, 0);
        }
        if self.scalar_reference || self.arrays[h.0].words_per_elem() != 1 {
            // Same fallback split as `scatter_account`; the update is
            // the plain per-lane form.
            let acct = self.atomic_scatter_accounting(h.0, vals);
            let data = self.u32s_mut(h);
            for &v in vals {
                data[v as usize] = data[v as usize].wrapping_add(1);
            }
            return acct;
        }
        let base = self.base_words[h.0];
        let banks = self.banks as u64;
        // The same shape shortcuts as `scatter_account`, with the update
        // folded in.
        let first = vals[0];
        if vals.iter().all(|&v| v == first) {
            let data = self.u32s_mut(h);
            data[first as usize] = data[first as usize].wrapping_add(vals.len() as u32);
            return (vals.len() as u64, 1);
        }
        if vals
            .iter()
            .enumerate()
            .all(|(k, &v)| v as u64 == first as u64 + k as u64)
        {
            let txns = self.transactions_for(h.0, vals);
            let data = self.u32s_mut(h);
            for &v in vals {
                data[v as usize] = data[v as usize].wrapping_add(1);
            }
            return (1, txns);
        }
        let (mut mult, mut txns) = (0u64, 1u64);
        for &v in vals {
            let vi = v as usize;
            if vi >= scratch.cnt.len() {
                scratch.cnt.resize(vi + 1, 0);
            }
            let c = scratch.cnt[vi] + 1;
            scratch.cnt[vi] = c;
            if c == 1 {
                let word = base + v as u64;
                let bank = if banks == 32 {
                    (word & 31) as usize
                } else {
                    (word % banks) as usize % WARP_SIZE
                };
                let bd = scratch.bank_distinct[bank] + 1;
                scratch.bank_distinct[bank] = bd;
                txns = txns.max(bd as u64);
                scratch.touched.push((v, bank as u8));
            }
            mult = mult.max(c as u64);
        }
        let data = match &mut self.arrays[h.0] {
            ShmStorage::U32(v) => v,
            _ => unreachable!("handle type guarantees u32 storage"),
        };
        for &(v, bank) in &scratch.touched {
            data[v as usize] = data[v as usize].wrapping_add(scratch.cnt[v as usize] as u32);
            scratch.cnt[v as usize] = 0;
            scratch.bank_distinct[bank as usize] = 0;
        }
        scratch.touched.clear();
        (mult, txns)
    }

    /// [`Self::scatter_account_update`] batched over whole full-warp
    /// tile steps: `rows` holds `rows.len() / 32` steps' bucket
    /// indices, 32 lanes each. One call hoists the array binding, the
    /// bank mapping and the counter sizing out of the per-step loop and
    /// returns the accumulated charge sums
    /// `(Σ mult, Σ (txns + mult − 1), Σ (txns − 1))` — exactly what the
    /// compiled histogram sinks add to `shared_atomic_serial`,
    /// `shared_transactions` and `shared_bank_replays`. Per step the
    /// accounting pair and the data update are bit-identical to
    /// [`Self::scatter_account_update`] on that step's lanes: the
    /// broadcast shortcut, the windowed row counter (see below) and the
    /// general counter walk each agree with the op-by-op oracle shape
    /// by shape (the unit-stride shortcut is omitted here — the general
    /// walk reproduces its result, and 32 monotonically increasing
    /// buckets essentially never occur in a histogram step), and the
    /// wrapping data adds commute across steps, so batching changes no
    /// observable state.
    ///
    /// Most rows take the windowed counting path: when the row's values
    /// span less than 256 (every warp step of a privatized histogram
    /// scatters into one copy, so any spec with `hmax < 255` qualifies)
    /// `v & 255` is injective over the row and a 256-entry stack
    /// counter replaces the persistent occupancy scratch — no drain
    /// pass, no counter resets, no data-sized mirror traffic. With 32
    /// banks, `bank(v) = (base + v) & 31` is a fixed permutation of
    /// `v & 31`, so counting the distinct values per `v & 31` class
    /// yields the same maximum bank occupancy; the per-lane update is
    /// branch-free and both maxima reduce vectorized.
    ///
    /// Narrow arrays (at most 32 words under 32 banks — every few-bin
    /// radial count) skip the per-lane walk altogether; see
    /// [`scatter_rows_narrow`].
    ///
    /// Every index must be in bounds for `h` (the compiled pre-flights
    /// guarantee `hmax < len`, and buckets clamp to `hmax`); an index
    /// past the end panics like the per-lane `data[v]` update.
    /// Multi-word storage and the scalar-reference route fall back to
    /// the per-step path.
    pub fn scatter_account_update_rows(
        &mut self,
        h: ShmU32,
        rows: &[u32],
        scratch: &mut ScatterScratch,
    ) -> (u64, u64, u64) {
        debug_assert_eq!(rows.len() % WARP_SIZE, 0);
        let (mut serial, mut txns_sum, mut replays) = (0u64, 0u64, 0u64);
        if rows.is_empty() {
            return (serial, txns_sum, replays);
        }
        if self.scalar_reference || self.arrays[h.0].words_per_elem() != 1 {
            for row in rows.chunks_exact(WARP_SIZE) {
                let (mult, txns) = self.scatter_account_update(h, row, scratch);
                serial += mult;
                txns_sum += txns + mult - 1;
                replays += txns.saturating_sub(1);
            }
            return (serial, txns_sum, replays);
        }
        let base = self.base_words[h.0];
        let banks = self.banks as u64;
        let data = match &mut self.arrays[h.0] {
            ShmStorage::U32(v) => v,
            _ => unreachable!("handle type guarantees u32 storage"),
        };
        if banks == 32 && data.len() <= WARP_SIZE {
            return scatter_rows_narrow(data, rows);
        }
        if scratch.cnt.len() < data.len() {
            scratch.cnt.resize(data.len(), 0);
        }
        let bank_of = |word: u64| {
            if banks == 32 {
                (word & 31) as usize
            } else {
                (word % banks) as usize % WARP_SIZE
            }
        };
        let banks32 = banks == 32;
        for row in rows.chunks_exact(WARP_SIZE) {
            let first = row[0];
            if row.iter().all(|&v| v == first) {
                data[first as usize] = data[first as usize].wrapping_add(WARP_SIZE as u32);
                serial += WARP_SIZE as u64;
                txns_sum += WARP_SIZE as u64; // txns(1) + mult(32) − 1
                continue;
            }
            let (mut minv, mut maxv) = (first, first);
            for &v in row {
                minv = minv.min(v);
                maxv = maxv.max(v);
            }
            if banks32 && maxv - minv < 256 {
                // Windowed counting (see the method doc): values within
                // one 256-wide window keep `v & 255` injective, so the
                // stack counter is exact, and the `v & 31` classes are a
                // bank relabeling, so `max(bank8)` is the real maximum
                // bank occupancy of the distinct values.
                let mut cnt8 = [0u8; 256];
                let mut bank8 = [0u8; WARP_SIZE];
                // Running maxima equal the final-array maxima (counts
                // only grow), so no post-loop scan is needed.
                let (mut mult8, mut txns8) = (0u8, 0u8);
                for &v in row {
                    let c = cnt8[(v & 255) as usize] + 1;
                    cnt8[(v & 255) as usize] = c;
                    let bd = bank8[(v & 31) as usize] + (c == 1) as u8;
                    bank8[(v & 31) as usize] = bd;
                    mult8 = mult8.max(c);
                    txns8 = txns8.max(bd);
                    let vi = v as usize;
                    data[vi] = data[vi].wrapping_add(1);
                }
                let (mult, txns) = (mult8 as u64, txns8 as u64);
                serial += mult;
                txns_sum += txns + mult - 1;
                replays += txns - 1;
                continue;
            }
            let (mut mult, mut txns) = (0u64, 1u64);
            // Distinct values of this step fit a warp-sized stack array
            // (≤ 32 lanes), so the drain needs no heap bookkeeping.
            let mut touched = [0u32; WARP_SIZE];
            let mut nt = 0usize;
            for &v in row {
                let vi = v as usize;
                let c = scratch.cnt[vi] + 1;
                scratch.cnt[vi] = c;
                if c == 1 {
                    let bank = bank_of(base + v as u64);
                    let bd = scratch.bank_distinct[bank] + 1;
                    scratch.bank_distinct[bank] = bd;
                    txns = txns.max(bd as u64);
                    touched[nt] = v;
                    nt += 1;
                }
                mult = mult.max(c as u64);
            }
            for &v in &touched[..nt] {
                let vi = v as usize;
                data[vi] = data[vi].wrapping_add(scratch.cnt[vi] as u32);
                scratch.cnt[vi] = 0;
                scratch.bank_distinct[bank_of(base + v as u64)] = 0;
            }
            serial += mult;
            txns_sum += txns + mult - 1;
            replays += txns - 1;
        }
        (serial, txns_sum, replays)
    }

    /// [`Self::atomic_scatter_accounting`] for one-word elements, the
    /// histogram hot path: with `wpe == 1` an element *is* its word, so
    /// one pass over per-bank entry chains yields both the same-address
    /// multiplicity (occurrence count per distinct word) and the bank
    /// serialization (distinct words in the fullest bank — exactly what
    /// [`Self::transactions_for`]'s general path computes) without the
    /// quadratic dedup scan or a second pass.
    fn scatter_accounting_w1(&self, array: usize, vals: &[u32]) -> (u64, u64) {
        let base = self.base_words[array];
        let banks = self.banks as u64;
        // Entry `e` is a distinct word: `addrs[e]` its address, `cnt[e]`
        // its occurrence count, `next[e]` the previous entry in the same
        // bank's chain (`u8::MAX` terminates).
        let mut addrs = [0u64; WARP_SIZE];
        let mut cnt = [0u8; WARP_SIZE];
        let mut next = [u8::MAX; WARP_SIZE];
        let mut head = [u8::MAX; WARP_SIZE];
        let mut bank_words = [0u8; WARP_SIZE];
        let mut n = 0u8;
        let (mut mult, mut txns) = (0u64, 1u64);
        for &v in vals {
            let word = base + v as u64;
            let bank = if banks == 32 {
                (word & 31) as usize
            } else {
                (word % banks) as usize % WARP_SIZE
            };
            let mut e = head[bank];
            while e != u8::MAX && addrs[e as usize] != word {
                e = next[e as usize];
            }
            if e != u8::MAX {
                let c = &mut cnt[e as usize];
                *c += 1;
                mult = mult.max(*c as u64);
            } else {
                addrs[n as usize] = word;
                cnt[n as usize] = 1;
                next[n as usize] = head[bank];
                head[bank] = n;
                bank_words[bank] += 1;
                txns = txns.max(bank_words[bank] as u64);
                mult = mult.max(1);
                n += 1;
            }
        }
        (mult, txns)
    }
}

/// [`SharedSpace::scatter_account_update_rows`] for a `u32` array of at
/// most 32 words under 32 banks. Each in-bounds index is below 32, so a
/// row's distinct buckets map to distinct banks (`(base + v) & 31` is
/// injective over `v < 32`): exactly one transaction and no replay per
/// row, and the row's charges reduce to its multiplicity — the largest
/// per-bucket lane count. The row packs to 32 bytes and each bucket's
/// count is the popcount of one equality mask; counts gather in a
/// stack accumulator that is added to `data` once per call (wrapping
/// adds commute, so the final histogram equals the per-lane updates
/// bit for bit). The accumulator is sliced to the array's length, so a
/// row reaching past the end panics on it, as the per-lane `data[v]`
/// update does.
fn scatter_rows_narrow(data: &mut [u32], rows: &[u32]) -> (u64, u64, u64) {
    let mut acc_words = [0u32; WARP_SIZE];
    let acc = &mut acc_words[..data.len()];
    let mut serial = 0u64;
    for row in rows.chunks_exact(WARP_SIZE) {
        // Only buckets in the row's value range can be hit; a row with
        // one value (out-of-range pairs piling into the clamp bucket,
        // clustered partners) is a full-warp broadcast.
        let (lo, hi) = row
            .iter()
            .fold((u32::MAX, 0), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        if lo == hi {
            acc[lo as usize] = acc[lo as usize].wrapping_add(WARP_SIZE as u32);
            serial += WARP_SIZE as u64;
            continue;
        }
        let packed: [u8; WARP_SIZE] = std::array::from_fn(|k| row[k] as u8);
        let mut mult = 0u32;
        for (b, a) in (lo..=hi).zip(&mut acc[lo as usize..=hi as usize]) {
            let c = lane_mask(&packed, b as u8).count_ones();
            *a = a.wrapping_add(c);
            mult = mult.max(c);
        }
        serial += mult as u64;
    }
    for (d, &c) in data.iter_mut().zip(acc.iter()) {
        *d = d.wrapping_add(c);
    }
    // Per row `txns + mult − 1 = mult` and `txns − 1 = 0`.
    (serial, serial, 0)
}

#[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
use lane_mask_avx2 as lane_mask;
#[cfg(not(all(target_arch = "x86_64", target_feature = "avx2")))]
use lane_mask_scalar as lane_mask;

/// Bit `k` set ⟺ `packed[k] == b`: one byte-wise compare and movemask.
#[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
#[inline(always)]
fn lane_mask_avx2(packed: &[u8; WARP_SIZE], b: u8) -> u32 {
    use std::arch::x86_64::{
        __m256i, _mm256_cmpeq_epi8, _mm256_loadu_si256, _mm256_movemask_epi8, _mm256_set1_epi8,
    };
    // SAFETY: this function only exists when AVX2 is enabled for the
    // whole build, and the unaligned load reads exactly the 32 bytes of
    // `packed`.
    unsafe {
        let v = _mm256_loadu_si256(packed.as_ptr().cast::<__m256i>());
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(v, _mm256_set1_epi8(b as i8))) as u32
    }
}

/// Portable form of `lane_mask_avx2` (the AVX2 build keeps it only as
/// the test oracle).
#[cfg_attr(all(target_arch = "x86_64", target_feature = "avx2"), allow(dead_code))]
#[inline(always)]
fn lane_mask_scalar(packed: &[u8; WARP_SIZE], b: u8) -> u32 {
    packed
        .iter()
        .enumerate()
        .fold(0, |m, (k, &v)| m | (((v == b) as u32) << k))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conflict_free_unit_stride() {
        let mut s = SharedSpace::new(32);
        let a = s.alloc_f32(64);
        let idxs: Vec<u32> = (0..32).collect();
        assert_eq!(s.transactions_for(a.0, &idxs), 1);
    }

    #[test]
    fn broadcast_same_word_is_one_transaction() {
        let mut s = SharedSpace::new(32);
        let a = s.alloc_f32(64);
        let idxs = vec![7u32; 32];
        assert_eq!(s.transactions_for(a.0, &idxs), 1);
    }

    #[test]
    fn stride_two_gives_two_way_conflict() {
        let mut s = SharedSpace::new(32);
        let a = s.alloc_f32(128);
        let idxs: Vec<u32> = (0..32).map(|i| i * 2).collect();
        assert_eq!(s.transactions_for(a.0, &idxs), 2);
    }

    #[test]
    fn stride_thirty_two_fully_serializes() {
        let mut s = SharedSpace::new(32);
        let a = s.alloc_f32(32 * 32);
        let idxs: Vec<u32> = (0..32).map(|i| i * 32).collect();
        assert_eq!(s.transactions_for(a.0, &idxs), 32);
    }

    #[test]
    fn u64_arrays_occupy_two_banks_per_element() {
        let mut s = SharedSpace::new(32);
        let a = s.alloc_u64(64);
        // Unit-stride u64: lane i touches words 2i, 2i+1 -> each bank gets
        // two distinct words across the warp -> 2 transactions.
        let idxs: Vec<u32> = (0..32).collect();
        assert_eq!(s.transactions_for(a.0, &idxs), 2);
    }

    #[test]
    fn base_offsets_shift_banks() {
        let mut s = SharedSpace::new(32);
        let _pad = s.alloc_f32(1);
        let a = s.alloc_f32(64);
        // Array starts at word 1; unit stride still conflict-free.
        let idxs: Vec<u32> = (0..32).collect();
        assert_eq!(s.transactions_for(a.0, &idxs), 1);
        assert_eq!(s.allocated_bytes(), 4 * 65);
    }

    #[test]
    fn duplicate_words_in_a_conflicted_bank_still_broadcast() {
        let mut s = SharedSpace::new(32);
        let a = s.alloc_f32(64);
        // Words 0 and 32 share bank 0; many lanes reading word 32 must
        // not add transactions beyond the 2-way word conflict.
        let mut idxs = vec![32u32; 30];
        idxs.push(0);
        assert_eq!(s.transactions_for(a.0, &idxs), 2);
    }

    #[test]
    fn fast_and_reference_counters_agree() {
        for banks in [1u32, 2, 16, 32, 33, 48] {
            let mut s = SharedSpace::new(banks);
            let _pad = s.alloc_f32(3);
            let f = s.alloc_f32(4096);
            let u = s.alloc_u64(4096);
            let mut x = 0xace1u64;
            for trial in 0..400 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let len = (x % 33) as usize;
                let mut idxs = Vec::with_capacity(len);
                for k in 0..len {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    idxs.push(match trial % 4 {
                        0 => (x % 4096) as u32,              // random gather
                        1 => ((x % 64) + k as u64) as u32,   // unit stride
                        2 => (x % 64) as u32 * (trial % 33), // strided
                        _ => 7,                              // broadcast
                    });
                }
                for arr in [f.0, u.0] {
                    assert_eq!(
                        s.transactions_for(arr, &idxs),
                        s.transactions_for_reference(arr, &idxs),
                        "banks {banks} trial {trial} arr {arr} idxs {idxs:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn scatter_accounting_matches_split_computation() {
        // The fused histogram consumer relies on this equivalence: one
        // combined pass == (reference multiplicity scan, transactions_for).
        let max_multiplicity = |vals: &[u32]| -> u64 {
            vals.iter()
                .map(|v| vals.iter().filter(|&w| w == v).count() as u64)
                .max()
                .unwrap_or(0)
        };
        for banks in [1u32, 2, 16, 32, 48] {
            let mut s = SharedSpace::new(banks);
            let _pad = s.alloc_f32(5);
            let f = s.alloc_f32(256);
            let u = s.alloc_u64(256);
            let mut x = 0xbeefu64;
            for trial in 0..400 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let len = (x % 33) as usize;
                let mut vals = Vec::with_capacity(len);
                for k in 0..len {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    vals.push(match trial % 4 {
                        0 => (x % 256) as u32,             // random scatter
                        1 => ((x % 32) + k as u64) as u32, // unit stride
                        2 => (x % 17) as u32,              // heavy contention
                        _ => 9,                            // broadcast
                    });
                }
                for arr in [f.0, u.0] {
                    assert_eq!(
                        s.atomic_scatter_accounting(arr, &vals),
                        (max_multiplicity(&vals), s.transactions_for(arr, &vals)),
                        "banks {banks} trial {trial} arr {arr} vals {vals:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn scratch_scatter_accounting_matches_stateless_oracle() {
        // The compiled/fused histogram sinks reuse one `ScatterScratch`
        // across every tile step of a pass; the counters must come back
        // clean between calls (reset via the touched list) and every
        // shape — broadcast, unit stride, pileup, random — must agree
        // with the stateless combined pass.
        let mut s = SharedSpace::new(32);
        let _pad = s.alloc_f32(5);
        let f = s.alloc_f32(256);
        let mut scratch = ScatterScratch::default();
        let mut x = 0xfeedu64;
        for trial in 0..600 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let len = if trial % 3 == 0 {
                32
            } else {
                (x % 33) as usize
            };
            let mut vals = Vec::with_capacity(len);
            for k in 0..len {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                vals.push(match trial % 5 {
                    0 => (x % 256) as u32,             // random scatter
                    1 => ((x % 32) + k as u64) as u32, // unit stride
                    2 => (x % 17) as u32,              // heavy contention
                    3 => (x % 2) as u32 * 32,          // same-bank pair
                    _ => 9,                            // broadcast
                });
            }
            assert_eq!(
                s.scatter_account(f.0, &vals, &mut scratch),
                s.atomic_scatter_accounting(f.0, &vals),
                "trial {trial} vals {vals:?}"
            );
            assert!(scratch.touched.is_empty(), "scratch not reset");
        }
    }

    #[test]
    fn scatter_account_update_matches_split_halves() {
        // The merged accounting+update walk must equal running
        // `scatter_account` and then incrementing per lane, for every
        // scatter shape, with the scratch coming back clean.
        let mut s = SharedSpace::new(32);
        let _pad = s.alloc_f32(3);
        // `b` sits 256 words (≡ 0 mod 32 banks) past `a`, so both map
        // every element to the same bank and the accounting agrees.
        let a = s.alloc_u32(256);
        let b = s.alloc_u32(256);
        let mut scratch = ScatterScratch::default();
        let mut x = 0xabc1u64;
        let mut expect = vec![0u32; 256];
        for trial in 0..600 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let len = if trial % 3 == 0 {
                32
            } else {
                (x % 33) as usize
            };
            let mut vals = Vec::with_capacity(len);
            for k in 0..len {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                vals.push(match trial % 5 {
                    0 => (x % 256) as u32,
                    1 => ((x % 32) + k as u64) as u32,
                    2 => (x % 17) as u32,
                    3 => (x % 2) as u32 * 32,
                    _ => 9,
                });
            }
            let oracle = s.scatter_account(b.0, &vals, &mut scratch);
            assert_eq!(
                s.scatter_account_update(a, &vals, &mut scratch),
                oracle,
                "trial {trial} vals {vals:?}"
            );
            for &v in &vals {
                expect[v as usize] = expect[v as usize].wrapping_add(1);
            }
            assert!(scratch.touched.is_empty(), "scratch not reset");
        }
        assert_eq!(s.u32s(a), &expect[..], "merged updates diverge");
    }

    #[test]
    fn scatter_account_update_rows_matches_per_step() {
        // The batched full-warp walk must equal per-step
        // `scatter_account_update` calls — same charge sums, same final
        // histogram — across banked layouts and every step shape, with
        // the scratch coming back clean between batches.
        for banks in [32u32, 16] {
            let mut s = SharedSpace::new(banks);
            let _pad = s.alloc_f32(7);
            let a = s.alloc_u32(1024);
            let b = s.alloc_u32(1024);
            let mut scratch = ScatterScratch::default();
            let mut x = 0x5eed5u64;
            for trial in 0..200 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let steps = (x % 9) as usize;
                let mut rows = Vec::with_capacity(steps * WARP_SIZE);
                for j in 0..steps {
                    for k in 0..WARP_SIZE {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        rows.push(match (trial + j) % 6 {
                            0 => (x % 256) as u32,
                            1 => ((x % 32) + k as u64) as u32,
                            2 => (x % 17) as u32,
                            3 => (x % 2) as u32 * 32,
                            // Spread wider than one 256 window, so the
                            // batched walk's windowed fast path declines
                            // and its general fallback gets exercised
                            // under both bank layouts.
                            4 => (x % 1024) as u32,
                            _ => 9,
                        });
                    }
                }
                let mut expect = (0u64, 0u64, 0u64);
                for row in rows.chunks_exact(WARP_SIZE) {
                    let (mult, txns) = s.scatter_account_update(a, row, &mut scratch);
                    expect.0 += mult;
                    expect.1 += txns + mult - 1;
                    expect.2 += txns.saturating_sub(1);
                }
                assert_eq!(
                    s.scatter_account_update_rows(b, &rows, &mut scratch),
                    expect,
                    "banks {banks} trial {trial}"
                );
                assert!(scratch.touched.is_empty(), "scratch not reset");
            }
            // `b` sits 1024 words past `a` (≡ 0 mod either bank count),
            // so both map every element to the same bank and the
            // accounting comparison above is apples to apples; the
            // data must also agree since both saw the same rows.
            assert_eq!(s.u32s(a), s.u32s(b), "batched updates diverge");
        }
        // Narrow arrays: 32 banks take the per-bucket mask count, 16
        // banks must keep the per-lane walk (there `v` and `v + 16`
        // share a bank, so a mask count's flat 1 transaction would
        // diverge from the oracle).
        for (banks, len) in [
            (32u32, 1usize),
            (32, 2),
            (32, 16),
            (32, 32),
            (16, 32),
            (16, 16),
        ] {
            let mut s = SharedSpace::new(banks);
            let _pad = s.alloc_f32(5);
            let a = s.alloc_u32(len);
            let b = s.alloc_u32(len);
            let mut scratch = ScatterScratch::default();
            let mut x = 0x1a2b3u64 ^ len as u64;
            for trial in 0..120 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let steps = (x % 9) as usize;
                let mut rows = Vec::with_capacity(steps * WARP_SIZE);
                for j in 0..steps {
                    let (p, q) = ((x % len as u64) as u32, ((x >> 8) % len as u64) as u32);
                    for k in 0..WARP_SIZE {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        rows.push(match (trial + j) % 4 {
                            0 => p,                        // all-broadcast
                            1 => [p, q][(x & 1) as usize], // two values
                            2 => (x % len as u64) as u32,  // uniform
                            _ => (k % len) as u32,         // every bucket
                        });
                    }
                }
                let mut expect = (0u64, 0u64, 0u64);
                for row in rows.chunks_exact(WARP_SIZE) {
                    let (mult, txns) = s.scatter_account_update(a, row, &mut scratch);
                    expect.0 += mult;
                    expect.1 += txns + mult - 1;
                    expect.2 += txns.saturating_sub(1);
                }
                assert_eq!(
                    s.scatter_account_update_rows(b, &rows, &mut scratch),
                    expect,
                    "banks {banks} len {len} trial {trial}"
                );
                assert!(scratch.touched.is_empty(), "scratch not reset");
                assert_eq!(
                    s.u32s(a),
                    s.u32s(b),
                    "banks {banks} len {len} trial {trial}"
                );
            }
        }
    }

    #[test]
    fn scatter_account_update_rows_panics_on_out_of_range_narrow_index() {
        // A bucket past a narrow array's end must fault like `data[v]`,
        // never vanish from every per-bucket count — including a full
        // broadcast past the end and an index whose low byte aliases an
        // in-range bucket (259 packs to 3).
        for bad in [16u32, 40, 259] {
            for broadcast in [false, true] {
                let mut rows = vec![3u32; 2 * WARP_SIZE];
                rows[WARP_SIZE + 7] = bad;
                if broadcast {
                    rows[WARP_SIZE..].fill(bad);
                }
                let res = std::panic::catch_unwind(move || {
                    let mut s = SharedSpace::new(32);
                    let a = s.alloc_u32(16);
                    s.scatter_account_update_rows(a, &rows, &mut ScatterScratch::default())
                });
                assert!(
                    res.is_err(),
                    "index {bad} (broadcast {broadcast}) must panic"
                );
            }
        }
    }

    #[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
    #[test]
    fn lane_mask_scalar_matches_avx2() {
        let mut x = 0x77aau64;
        for trial in 0..2000 {
            let packed: [u8; WARP_SIZE] = std::array::from_fn(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                // Narrow rows, plus full-byte rows for the high bit.
                (if trial % 2 == 0 { x % 32 } else { x % 256 }) as u8
            });
            for b in 0..=255u8 {
                assert_eq!(
                    lane_mask_scalar(&packed, b),
                    lane_mask_avx2(&packed, b),
                    "trial {trial} b {b}"
                );
            }
        }
    }

    #[test]
    fn readback_roundtrip_and_bounds() {
        let mut s = SharedSpace::new(32);
        let a = s.alloc_u32(4);
        s.u32s_mut(a)[2] = 42;
        assert_eq!(s.u32s(a)[2], 42);
        assert!(s.check_bounds(a.0, 3, "t").is_ok());
        assert!(s.check_bounds(a.0, 4, "t").is_err());
    }
}
