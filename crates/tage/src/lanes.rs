//! Lane-batched probe paths: K independent predictors advanced in lockstep
//! over transposed, SIMD-friendly hot state.
//!
//! A multilane simulation runs K independent branch streams, each with its
//! own [`TagePredictor`], and advances every stream by one branch per cycle.
//! The scalar per-branch loop hides all of its parallelism from the CPU:
//! every folded-history update and every index hash is a short dependency
//! chain executed once per branch. A [`LaneGroup`] restructures that work
//! into *per-component passes* over state held **transposed across lanes**:
//!
//! * the 3 folded-history registers of each tagged table are *packed into a
//!   single `u64`* (index / tag-A / tag-B fields at 21-bit offsets) and,
//!   like the global history words, live in flat lane-major arrays
//!   (`value[t * lanes + k]`), so "advance table T's folds for all K lanes"
//!   is one tight loop over contiguous `u64`s with lane-uniform constants —
//!   exactly the shape an auto-vectorizer turns into AVX2/AVX-512 code —
//!   and each lane costs one load, one fused update chain and one store
//!   instead of three;
//! * **pass A** ([`LaneGroup::predict`]) computes all K table indices and
//!   tags component-major from the transposed folds;
//! * **pass B** probes each lane's tag rows, assembles the fixed-size
//!   [`crate::prediction::TableLookups`] and funnels it through `TagePredictor::resolve` —
//!   the *same* function the scalar `predict` tail uses, so
//!   provider/alternate selection cannot diverge between the two paths;
//! * [`LaneGroup::train`] applies the scalar
//!   counter/allocation update per lane (tables, RNG draws and statistics
//!   live in each lane's predictor, untouched), then advances all K global
//!   histories and all `3 × tables × K` folds in vectorized passes that are
//!   bit-identical to [`crate::folded::FoldedHistory::update`] and the history
//!   shift.
//!
//! The wide passes are compiled three times — baseline, AVX2 and AVX-512 —
//! and dispatched once per group from runtime feature detection, so the
//! crate stays portable while the hot loops use the widest vectors the
//! host offers.
//!
//! While a lane is in the group its predictor's own folded histories and
//! history register are *stale*: the transposed arrays are the live copy.
//! [`LaneGroup::store_lane`] writes them back, restoring a predictor
//! bit-for-bit equal to one that ran the same stream scalar — the in-crate
//! tests pin this, and `crates/sim/tests/multilane_parity.rs` pins the
//! whole engine end-to-end.

use tage_traces::snapshot::SnapshotError;

use crate::geometry::{TageBlueprint, TageGeometry};
use crate::prediction::{TableLookup, TagePrediction};
use crate::predictor::TagePredictor;

/// Maximum global-history words per lane the group supports (512 bits of
/// history plus slack — far above the 300-bit largest paper configuration).
const MAX_HISTORY_WORDS: usize = 8;

/// Bit offset of the tag-A fold within a packed fold word.
const FOLD_SHIFT_A: u32 = 21;
/// Bit offset of the tag-B fold within a packed fold word.
const FOLD_SHIFT_B: u32 = 42;
/// Widest fold a 21-bit packed field can update without bleeding into its
/// neighbour: the shift-in intermediate needs `compressed_length + 1` bits.
const MAX_PACKED_FOLD_BITS: u32 = FOLD_SHIFT_A - 1;
/// Shift-in value for a taken outcome: bit 0 of all three packed fields.
const INS_TAKEN: u64 = 1 | (1 << FOLD_SHIFT_A) | (1 << FOLD_SHIFT_B);

/// Vector instruction set the wide passes were dispatched to, detected once
/// per group at construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Isa {
    /// Whatever the build target guarantees (SSE2 on x86-64).
    Baseline,
    /// 256-bit integer vectors.
    Avx2,
    /// 512-bit integer vectors.
    Avx512,
}

fn detect_isa() -> Isa {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512bw")
            && std::arch::is_x86_feature_detected!("avx512dq")
            && std::arch::is_x86_feature_detected!("avx512vl")
        {
            return Isa::Avx512;
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return Isa::Avx2;
        }
    }
    Isa::Baseline
}

/// K lockstep lanes of TAGE predictors with their folded histories and
/// global histories held transposed (lane-major) for vectorized
/// per-component passes.
///
/// Lanes are armed contiguously ([`LaneGroup::arm`]), predicted and trained
/// as a front slice (`&pcs[..active]`), compacted with [`LaneGroup::swap`]
/// when a stream retires, and written back with [`LaneGroup::store_lane`]
/// when a predictor's full scalar state is needed again. All buffers are
/// allocated at construction — steady-state cycles are heap-free.
#[derive(Debug)]
pub struct LaneGroup {
    geometry: TageGeometry,
    lanes: usize,
    num_tables: usize,
    hist_words: usize,
    isa: Isa,
    predictors: Vec<TagePredictor>,
    /// Transposed fold values, flat `t * lanes + k`, with a table's three
    /// folds (index, tag A, tag B) packed into one word at bit offsets
    /// 0 / [`FOLD_SHIFT_A`] / [`FOLD_SHIFT_B`] — one load, one store and one
    /// fused update chain per table per lane instead of three.
    folds: Vec<u64>,
    /// Transposed global-history words, flat `w * lanes + k`; same word
    /// layout as [`tage_predictors::history::HistoryRegister`].
    hist: Vec<u64>,
    /// Per-lane path-history registers (the live copy while the lane is in
    /// the group). All-zero — and never advanced — for geometries without a
    /// path register.
    path: Vec<u64>,
    /// Per-table constants of the fold update (lane-uniform, hoisted out of
    /// the per-lane loops so each table's pass keeps vectorizing).
    evict_word: Vec<usize>,
    evict_shift: Vec<u32>,
    /// Per-table XOR mask applied when the evicted history bit is 1: the
    /// three outpoint bits, one per packed fold field.
    evict_mul: Vec<u64>,
    /// Per-table fold widths.
    cl_index: Vec<u32>,
    cl_tag_a: Vec<u32>,
    cl_tag_b: Vec<u32>,
    /// Per-table fold *field* masks in field position (for unpacking a
    /// stored lane) — these cover the fold registers' widths, which a
    /// geometry may set independently of the hash widths below.
    mask_fold_index: Vec<u64>,
    mask_fold_a: Vec<u64>,
    mask_fold_b: Vec<u64>,
    /// Per-table packed cleanup mask: all three field masks in packed
    /// position, clearing every intermediate bit above each fold's width.
    fold_mask: Vec<u64>,
    /// Per-table hash masks and PC shift of the index hash
    /// (`index_bits + rank + 1`).
    index_mask: Vec<u64>,
    tag_mask: Vec<u64>,
    index_shift: Vec<u64>,
    /// Width and mask of the per-lane path registers (0 / 0 when disabled).
    path_bits: u32,
    path_mask: u64,
    /// Per-cycle scratch, flat `t * lanes + k` (indices/tags) or `k`
    /// (inserted bits, shift carries, staged PCs).
    idxs: Vec<u32>,
    tags: Vec<u16>,
    ins: Vec<u64>,
    carry: Vec<u64>,
    /// The PCs of the cycle's staged lanes, captured by
    /// [`LaneGroup::predict`] so [`LaneGroup::advance`] can shift each
    /// lane's path history without changing its signature.
    staged_pcs: Vec<u64>,
}

impl LaneGroup {
    /// Creates a group of up to `lanes` lockstep lanes (clamped to at
    /// least one) sharing one blueprint — a [`TageGeometry`] or a reference
    /// to one. Lane predictors are constructed on
    /// first [`LaneGroup::arm`].
    ///
    /// # Panics
    ///
    /// Panics if the blueprint's geometry does not pass
    /// [`TageGeometry::validate`], or if a fold or index width exceeds the
    /// packed 21-bit lane layout ([`TageGeometry`] allows up to 32 bits;
    /// such geometries must run scalar).
    pub fn new(blueprint: impl TageBlueprint, lanes: usize) -> Self {
        let geometry = blueprint.tage_geometry();
        if let Err(reason) = geometry.validate() {
            panic!("invalid TAGE configuration: {reason}");
        }
        let lanes = lanes.max(1);
        let num_tables = geometry.num_tagged_tables();
        for (t, table) in geometry.tables.iter().enumerate() {
            assert!(
                table.index_bits <= MAX_PACKED_FOLD_BITS
                    && table.index_fold_bits <= MAX_PACKED_FOLD_BITS
                    && table.tag_fold_bits <= MAX_PACKED_FOLD_BITS
                    && table.tag_fold2_bits <= MAX_PACKED_FOLD_BITS,
                "table {t}: index/fold widths beyond {MAX_PACKED_FOLD_BITS} bits \
                 do not fit the packed lane-group layout"
            );
        }
        let hist_words = (geometry.max_history() + 8).div_ceil(64);
        assert!(
            hist_words <= MAX_HISTORY_WORDS,
            "history capacity exceeds the lane group's fixed word budget"
        );
        let tables = &geometry.tables;
        let mask_fold_index: Vec<u64> = tables
            .iter()
            .map(|t| (1u64 << t.index_fold_bits) - 1)
            .collect();
        let mask_fold_a: Vec<u64> = tables
            .iter()
            .map(|t| (1u64 << t.tag_fold_bits) - 1)
            .collect();
        let mask_fold_b: Vec<u64> = tables
            .iter()
            .map(|t| (1u64 << t.tag_fold2_bits) - 1)
            .collect();
        let fold_mask: Vec<u64> = (0..num_tables)
            .map(|t| {
                mask_fold_index[t]
                    | (mask_fold_a[t] << FOLD_SHIFT_A)
                    | (mask_fold_b[t] << FOLD_SHIFT_B)
            })
            .collect();
        let path_bits = geometry.path_history_bits;
        LaneGroup {
            lanes,
            num_tables,
            hist_words,
            isa: detect_isa(),
            predictors: Vec::with_capacity(lanes),
            folds: vec![0; num_tables * lanes],
            hist: vec![0; hist_words * lanes],
            path: vec![0; lanes],
            evict_word: tables.iter().map(|t| (t.history_length - 1) / 64).collect(),
            evict_shift: tables
                .iter()
                .map(|t| ((t.history_length - 1) % 64) as u32)
                .collect(),
            evict_mul: tables
                .iter()
                .map(|t| {
                    let l = t.history_length;
                    (1u64 << (l % t.index_fold_bits as usize))
                        | (1u64 << (FOLD_SHIFT_A + (l % t.tag_fold_bits as usize) as u32))
                        | (1u64 << (FOLD_SHIFT_B + (l % t.tag_fold2_bits as usize) as u32))
                })
                .collect(),
            cl_index: tables.iter().map(|t| t.index_fold_bits).collect(),
            cl_tag_a: tables.iter().map(|t| t.tag_fold_bits).collect(),
            cl_tag_b: tables.iter().map(|t| t.tag_fold2_bits).collect(),
            mask_fold_index,
            mask_fold_a,
            mask_fold_b,
            fold_mask,
            index_mask: tables.iter().map(|t| (1u64 << t.index_bits) - 1).collect(),
            tag_mask: tables.iter().map(|t| (1u64 << t.tag_bits) - 1).collect(),
            index_shift: (0..num_tables)
                .map(|t| u64::from(tables[t].index_bits) + t as u64 + 1)
                .collect(),
            path_bits,
            path_mask: if path_bits == 0 {
                0
            } else {
                (1u64 << path_bits) - 1
            },
            idxs: vec![0; num_tables * lanes],
            tags: vec![0; num_tables * lanes],
            ins: vec![0; lanes],
            carry: vec![0; lanes],
            staged_pcs: vec![0; lanes],
            geometry,
        }
    }

    /// Whether `geometry` fits the packed lane-group layout: every index
    /// and fold width within the packed 21-bit field size and the history
    /// register within the group's fixed word budget.
    /// [`TageGeometry::validate`] admits wider shapes (index widths up to
    /// 24 bits, fold widths up to 32); those must run through the scalar
    /// [`TagePredictor`] instead — [`LaneGroup::new`] panics on them.
    pub fn supports(geometry: &TageGeometry) -> bool {
        geometry.tables.iter().all(|t| {
            t.index_bits <= MAX_PACKED_FOLD_BITS
                && t.index_fold_bits <= MAX_PACKED_FOLD_BITS
                && t.tag_fold_bits <= MAX_PACKED_FOLD_BITS
                && t.tag_fold2_bits <= MAX_PACKED_FOLD_BITS
        }) && (geometry.max_history() + 8).div_ceil(64) <= MAX_HISTORY_WORDS
    }

    /// The geometry shared by every lane of the group.
    pub fn geometry(&self) -> &TageGeometry {
        &self.geometry
    }

    /// The lane capacity of the group.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The lane predictor at `k` — tables, counters, RNG and statistics are
    /// always live; folded histories and the global history are only
    /// current after [`LaneGroup::store_lane`].
    pub fn predictor(&self, k: usize) -> &TagePredictor {
        &self.predictors[k]
    }

    /// Arms lane `k` for a fresh stream: constructs its predictor on first
    /// use (lanes must be armed contiguously), resets a reused one in
    /// place, and loads the (fresh) hot state into the transposed arrays.
    ///
    /// # Panics
    ///
    /// Panics if `k` is at or beyond the lane capacity, or skips ahead of
    /// the armed prefix.
    pub fn arm(&mut self, k: usize) {
        assert!(k < self.lanes, "lane index beyond the group's capacity");
        if k < self.predictors.len() {
            self.predictors[k].reset();
        } else {
            assert_eq!(k, self.predictors.len(), "lanes must be armed in order");
            self.predictors.push(TagePredictor::new(&self.geometry));
        }
        self.load_lane(k);
    }

    /// Restores lane `k`'s predictor from a [`TagePredictor::snapshot`] and
    /// reloads the transposed hot state from it, as if the lane had been
    /// armed and run to the snapshot point scalar. The lane must already be
    /// armed. On error the lane is untouched (the restore is all-or-nothing
    /// and the transposed state is only refreshed on success).
    ///
    /// # Errors
    ///
    /// Propagates the [`SnapshotError`] from [`TagePredictor::restore`].
    ///
    /// # Panics
    ///
    /// Panics if lane `k` is not armed.
    pub fn restore_lane(&mut self, k: usize, bytes: &[u8]) -> Result<(), SnapshotError> {
        self.predictors[k].restore(bytes)?;
        self.load_lane(k);
        Ok(())
    }

    /// Copies predictor `k`'s folded histories and global history into the
    /// transposed arrays, making the lane's hot state live in the group.
    fn load_lane(&mut self, k: usize) {
        let lanes = self.lanes;
        let p = &self.predictors[k];
        for t in 0..self.num_tables {
            self.folds[t * lanes + k] = p.index_folds[t].value()
                | (p.tag_folds_a[t].value() << FOLD_SHIFT_A)
                | (p.tag_folds_b[t].value() << FOLD_SHIFT_B);
        }
        let words = p.history.words();
        for (w, &word) in words.iter().enumerate().take(self.hist_words) {
            self.hist[w * lanes + k] = word;
        }
        self.path[k] = p.path_history;
    }

    /// Writes the transposed hot state of lane `k` back into its predictor,
    /// restoring a [`TagePredictor`] bit-for-bit equal to one that ran the
    /// same stream through the scalar path.
    pub fn store_lane(&mut self, k: usize) {
        let lanes = self.lanes;
        let mut words = [0u64; MAX_HISTORY_WORDS];
        for (w, word) in words[..self.hist_words].iter_mut().enumerate() {
            *word = self.hist[w * lanes + k];
        }
        let p = &mut self.predictors[k];
        for t in 0..self.num_tables {
            let packed = self.folds[t * lanes + k];
            p.index_folds[t].set_value(packed & self.mask_fold_index[t]);
            p.tag_folds_a[t].set_value((packed >> FOLD_SHIFT_A) & self.mask_fold_a[t]);
            p.tag_folds_b[t].set_value((packed >> FOLD_SHIFT_B) & self.mask_fold_b[t]);
        }
        p.history.load_words(&words[..self.hist_words]);
        p.path_history = self.path[k];
    }

    /// Swaps lanes `a` and `b` — predictors and transposed columns — the
    /// compaction step when a retiring lane is replaced by the last active
    /// one.
    pub fn swap(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        self.predictors.swap(a, b);
        let lanes = self.lanes;
        for t in 0..self.num_tables {
            self.folds.swap(t * lanes + a, t * lanes + b);
        }
        for w in 0..self.hist_words {
            self.hist.swap(w * lanes + a, w * lanes + b);
        }
        self.path.swap(a, b);
    }

    /// Computes one prediction per staged lane: pass A hashes all
    /// `tables × lanes` indices and tags from the transposed folds in
    /// vectorized component-major loops, pass B probes and resolves per
    /// lane through the scalar tail.
    ///
    /// `out` is cleared first; `out[k]` is bit-for-bit what
    /// `self.predictor(k).predict(pcs[k])` would return with that lane's
    /// hot state written back.
    ///
    /// # Panics
    ///
    /// Panics if `pcs` is longer than the armed prefix.
    pub fn predict(&mut self, pcs: &[u64], out: &mut Vec<TagePrediction>) {
        let a = pcs.len();
        assert!(a <= self.predictors.len(), "unarmed lane staged");
        assert!(self.num_tables <= crate::prediction::MAX_TAGGED_TABLES);
        // Capture the cycle's PCs: `advance` shifts each lane's path history
        // from them after training, mirroring the scalar `update`.
        self.staged_pcs[..a].copy_from_slice(pcs);
        self.hash_pass(pcs);
        let lanes = self.lanes;
        // Resize, don't rebuild: the caller keeps `out` across cycles, so
        // in steady state each slot is resolved in place with no copy of
        // the ~150-byte prediction through a stack temporary.
        out.resize(a, TagePrediction::default());
        let out = &mut out[..a];
        let predictors = &self.predictors[..a];
        // Probe + assemble lane-major: each lane reads its indices and tags
        // from the (L1-resident) scratch rows, probes its own tag arrays —
        // the seven probes are independent loads, so they overlap across
        // tables and across lanes — accumulates the hit bitmask in a
        // register, writes the lookup slots sequentially and resolves in
        // place through the scalar tail.
        for (k, slot) in out.iter_mut().enumerate() {
            let tables = &predictors[k].tables;
            let mut hits = 0u16;
            for t in 0..self.num_tables {
                let index = self.idxs[t * lanes + k];
                let tag = self.tags[t * lanes + k];
                let hit = tables.tag_unchecked(t, index as usize) == tag;
                hits |= u16::from(hit) << t;
                *slot.tables.entry_mut(t) = TableLookup { index, tag, hit };
            }
            slot.tables.set_live(self.num_tables, hits);
            predictors[k].resolve_into(pcs[k], slot);
        }
    }

    /// Trains every staged lane with its resolved outcome: the scalar
    /// counter/allocation update per lane (mirroring
    /// [`TagePredictor::update`] step for step), then one vectorized
    /// history-advance pass over all lanes' folds and history words.
    ///
    /// # Panics
    ///
    /// Panics if the slices disagree in length or exceed the armed prefix.
    pub fn train(&mut self, takens: &[bool], predictions: &[TagePrediction]) {
        assert_eq!(takens.len(), predictions.len(), "one outcome per lane");
        assert!(takens.len() <= self.predictors.len(), "unarmed lane staged");
        for (k, p) in self.predictors[..takens.len()].iter_mut().enumerate() {
            p.update_counters(takens[k], &predictions[k]);
        }
        self.advance(takens);
    }

    /// The counter/allocation half of [`LaneGroup::train`] for one lane —
    /// for callers that fold their own per-lane bookkeeping into the same
    /// pass over the predictions and finish the cycle with one
    /// [`LaneGroup::advance`].
    ///
    /// # Panics
    ///
    /// Panics if lane `k` is not armed.
    #[inline]
    pub fn train_lane(&mut self, k: usize, taken: bool, prediction: &TagePrediction) {
        self.predictors[k].update_counters(taken, prediction);
    }

    /// The history half of [`LaneGroup::train`]: advances all staged lanes'
    /// global histories and packed folds in one vectorized pass. Must be
    /// called exactly once per cycle, after every staged lane was trained
    /// through [`LaneGroup::train_lane`] (or not at all when using
    /// [`LaneGroup::train`], which calls it).
    ///
    /// # Panics
    ///
    /// Panics if `takens` is longer than the armed prefix.
    pub fn advance(&mut self, takens: &[bool]) {
        assert!(takens.len() <= self.predictors.len(), "unarmed lane staged");
        self.push_pass(takens);
    }

    /// Pass A of [`LaneGroup::predict`], dispatched to the widest detected
    /// vector ISA.
    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)]
    fn hash_pass(&mut self, pcs: &[u64]) {
        match self.isa {
            // SAFETY: `detect_isa` verified the features at construction.
            Isa::Avx512 => unsafe { self.hash_pass_avx512(pcs) },
            // SAFETY: as above.
            Isa::Avx2 => unsafe { self.hash_pass_avx2(pcs) },
            Isa::Baseline => self.hash_pass_inner(pcs),
        }
    }

    /// Portable fallback dispatch of pass A.
    #[cfg(not(target_arch = "x86_64"))]
    fn hash_pass(&mut self, pcs: &[u64]) {
        self.hash_pass_inner(pcs);
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn hash_pass_avx2(&mut self, pcs: &[u64]) {
        self.hash_pass_inner(pcs);
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl")]
    fn hash_pass_avx512(&mut self, pcs: &[u64]) {
        self.hash_pass_inner(pcs);
    }

    /// The component-major index/tag hash: for each table rank the K lanes
    /// run the exact `table_index`/`table_tag` arithmetic of the scalar
    /// `predict` over contiguous transposed folds — no loop-carried
    /// dependency, lane-uniform constants, vectorizable as-is.
    #[inline(always)]
    fn hash_pass_inner(&mut self, pcs: &[u64]) {
        let a = pcs.len();
        let lanes = self.lanes;
        let path = &self.path[..];
        for t in 0..self.num_tables {
            let folds = &self.folds[t * lanes..][..a];
            let idxs = &mut self.idxs[t * lanes..][..a];
            let tags = &mut self.tags[t * lanes..][..a];
            let index_mask = self.index_mask[t];
            let tag_mask = self.tag_mask[t];
            let shift = self.index_shift[t];
            for k in 0..a {
                let pc = pcs[k];
                let packed = folds[k];
                let hashed_base = pc >> 2;
                let hashed_pc = hashed_base ^ (pc >> shift);
                // The index fold sits at bit 0 and `index_mask` (at most 20
                // bits) cuts the higher fields; tag fold A lands via
                // `>> FOLD_SHIFT_A` and fold B pre-shifted-by-one via
                // `>> (FOLD_SHIFT_B - 1)`, both cleaned by `tag_mask`
                // (at most 16 bits, so field gaps and neighbours drop out).
                // The path XOR matches the scalar hash: `path` is all-zero
                // when the geometry has no path register.
                idxs[k] = ((hashed_pc ^ packed ^ path[k]) & index_mask) as u32;
                tags[k] =
                    ((hashed_base ^ (packed >> FOLD_SHIFT_A) ^ (packed >> (FOLD_SHIFT_B - 1)))
                        & tag_mask) as u16;
            }
        }
    }

    /// History-advance pass of [`LaneGroup::train`], dispatched to the
    /// widest detected vector ISA.
    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)]
    fn push_pass(&mut self, takens: &[bool]) {
        match self.isa {
            // SAFETY: `detect_isa` verified the features at construction.
            Isa::Avx512 => unsafe { self.push_pass_avx512(takens) },
            // SAFETY: as above.
            Isa::Avx2 => unsafe { self.push_pass_avx2(takens) },
            Isa::Baseline => self.push_pass_inner(takens),
        }
    }

    /// Portable fallback dispatch of the history-advance pass.
    #[cfg(not(target_arch = "x86_64"))]
    fn push_pass(&mut self, takens: &[bool]) {
        self.push_pass_inner(takens);
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn push_pass_avx2(&mut self, takens: &[bool]) {
        self.push_pass_inner(takens);
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl")]
    fn push_pass_avx512(&mut self, takens: &[bool]) {
        self.push_pass_inner(takens);
    }

    /// Advances every staged lane's global history and folds by one
    /// outcome. Each inner loop is bit-identical to
    /// [`crate::folded::FoldedHistory::update`] (respectively the history shift) for
    /// that lane, restructured so the K lanes of one component update in one
    /// contiguous pass.
    #[inline(always)]
    fn push_pass_inner(&mut self, takens: &[bool]) {
        let a = takens.len();
        let lanes = self.lanes;
        for (ins, &taken) in self.ins[..a].iter_mut().zip(takens) {
            *ins = u64::from(taken) * INS_TAKEN;
        }
        // Fold updates: one fused chain per table rank and lane. The three
        // folds advance together in their packed fields — shift-in hits all
        // three bit-0 positions at once, the evicted history bit lands on
        // all three outpoints through one per-table mask, and each field's
        // wrap-around XOR pulls its own top intermediate bit down. Every
        // step is bit-identical to running `FoldedHistory::update` three
        // times (fields cannot bleed: a field is 21 bits wide and holds at
        // most `MAX_PACKED_FOLD_BITS + 1` live intermediate bits).
        let ins = &self.ins[..a];
        for t in 0..self.num_tables {
            let col = &self.hist[self.evict_word[t] * lanes..][..a];
            let shift = self.evict_shift[t];
            let evict_mul = self.evict_mul[t];
            let (cl_index, cl_tag_a, cl_tag_b) =
                (self.cl_index[t], self.cl_tag_a[t], self.cl_tag_b[t]);
            let fold_mask = self.fold_mask[t];
            let row = &mut self.folds[t * lanes..][..a];
            for k in 0..a {
                let ev = (col[k] >> shift) & 1;
                let mut v = (row[k] << 1) | ins[k];
                v ^= ev.wrapping_neg() & evict_mul;
                v ^= (v >> cl_index) & 1;
                v ^= (v >> cl_tag_a) & (1 << FOLD_SHIFT_A);
                v ^= (v >> cl_tag_b) & (1 << FOLD_SHIFT_B);
                row[k] = v & fold_mask;
            }
        }
        // Global-history shift, word-major with per-lane carries.
        for (carry, &taken) in self.carry[..a].iter_mut().zip(takens) {
            *carry = u64::from(taken);
        }
        for w in 0..self.hist_words {
            let row = &mut self.hist[w * lanes..][..a];
            let carry = &mut self.carry[..a];
            for k in 0..a {
                let next = row[k] >> 63;
                row[k] = (row[k] << 1) | carry[k];
                carry[k] = next;
            }
        }
        // Path-history shift from the cycle's staged PCs (skipped entirely
        // for geometries without a path register, where `path` stays zero).
        if self.path_bits > 0 {
            let mask = self.path_mask;
            let pcs = &self.staged_pcs[..a];
            let path = &mut self.path[..a];
            for k in 0..a {
                path[k] = ((path[k] << 1) | ((pcs[k] >> 2) & 1)) & mask;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::TageGeometry;
    use tage_traces::SplitMix64;

    /// Drives `lanes` interleaved streams through the batched path and the
    /// same streams through independent scalar predictors, asserting every
    /// per-step prediction and the final statistics match exactly, and that
    /// written-back predictors continue bit-for-bit like their scalar
    /// twins.
    fn assert_lanes_match_scalar(config: TageGeometry, lanes: usize, steps: u64) {
        let mut group = LaneGroup::new(config.clone(), lanes);
        for k in 0..lanes {
            group.arm(k);
        }
        let mut scalar: Vec<TagePredictor> = (0..lanes)
            .map(|_| TagePredictor::new(config.clone()))
            .collect();
        let mut rngs: Vec<SplitMix64> = (0..lanes)
            .map(|k| SplitMix64::new(0xBEE5 + 31 * k as u64))
            .collect();
        let mut preds = Vec::new();
        let mut pcs = vec![0u64; lanes];
        let mut takens = vec![false; lanes];
        for step in 0..steps {
            for k in 0..lanes {
                // Distinct per-lane walks over a few hundred branches.
                pcs[k] = 0x40_0000 + ((step * 7 + k as u64 * 13) % 251) * 8;
                takens[k] = rngs[k].chance(0.3 + 0.4 * (k as f64 / lanes as f64));
            }
            group.predict(&pcs, &mut preds);
            assert_eq!(preds.len(), lanes);
            for k in 0..lanes {
                let expected = scalar[k].predict(pcs[k]);
                assert_eq!(preds[k], expected, "lane {k} diverged at step {step}");
                scalar[k].update(pcs[k], takens[k], &expected);
            }
            group.train(&takens, &preds);
        }
        for k in 0..lanes {
            assert_eq!(
                group.predictor(k).stats(),
                scalar[k].stats(),
                "lane {k} stats"
            );
            // Writeback restores the full scalar state: the stored
            // predictor must keep matching its scalar twin standalone.
            group.store_lane(k);
            let mut stored = group.predictor(k).clone();
            for extra in 0..200u64 {
                let pc = 0x80_0000 + (extra % 97) * 4;
                let taken = rngs[k].chance(0.5);
                let batched = stored.predict(pc);
                let reference = scalar[k].predict(pc);
                assert_eq!(batched, reference, "lane {k} post-writeback step {extra}");
                stored.update(pc, taken, &batched);
                scalar[k].update(pc, taken, &reference);
            }
        }
    }

    #[test]
    fn batched_lanes_match_scalar_small() {
        for lanes in [1, 2, 4, 8] {
            assert_lanes_match_scalar(TageGeometry::small(), lanes, 1500);
        }
    }

    #[test]
    fn batched_lanes_match_scalar_medium() {
        assert_lanes_match_scalar(TageGeometry::medium(), 5, 2000);
    }

    #[test]
    fn batched_lanes_match_scalar_with_probabilistic_automaton() {
        let config = TageGeometry::small()
            .with_automaton(crate::automaton::CounterAutomaton::paper_default());
        assert_lanes_match_scalar(config, 4, 2000);
    }

    #[test]
    fn swap_moves_whole_lane_states() {
        let config = TageGeometry::small();
        let mut group = LaneGroup::new(config.clone(), 2);
        group.arm(0);
        group.arm(1);
        let mut preds = Vec::new();
        // Lane 0 sees taken branches at one pc, lane 1 not-taken at another.
        for _ in 0..300 {
            group.predict(&[0x1000, 0x2000], &mut preds);
            group.train(&[true, false], &preds);
        }
        group.swap(0, 1);
        // After the swap, lane 0 must behave exactly like lane 1 did.
        group.store_lane(0);
        group.store_lane(1);
        let p0 = group.predictor(0).clone();
        let p1 = group.predictor(1).clone();
        assert!(!p0.predict(0x2000).taken);
        assert!(p1.predict(0x1000).taken);
    }

    #[test]
    fn rearming_a_lane_restores_the_fresh_state() {
        let config = TageGeometry::small();
        let mut group = LaneGroup::new(config.clone(), 1);
        group.arm(0);
        let mut preds = Vec::new();
        for i in 0..500u64 {
            group.predict(&[0x4000 + (i % 13) * 4], &mut preds);
            group.train(&[i % 3 != 0], &preds);
        }
        group.arm(0);
        group.store_lane(0);
        let rearmed = group.predictor(0).clone();
        let fresh = TagePredictor::new(config);
        assert_eq!(rearmed.predict(0x4000), fresh.predict(0x4000));
        assert_eq!(rearmed.stats(), fresh.stats());
    }

    #[test]
    fn empty_stage_is_a_no_op() {
        let mut group = LaneGroup::new(TageGeometry::small(), 4);
        let mut out = vec![];
        group.predict(&[], &mut out);
        assert!(out.is_empty());
        group.train(&[], &[]);
    }

    #[test]
    #[should_panic(expected = "armed in order")]
    fn lanes_must_be_armed_contiguously() {
        let mut group = LaneGroup::new(TageGeometry::small(), 4);
        group.arm(2);
    }

    #[test]
    #[should_panic(expected = "beyond the group's capacity")]
    fn arming_beyond_capacity_is_rejected() {
        let mut group = LaneGroup::new(TageGeometry::small(), 2);
        group.arm(0);
        group.arm(1);
        group.arm(2);
    }
}
