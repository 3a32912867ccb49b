//! The TAGE predictor proper: prediction, update and allocation.
//!
//! The hot path is engineered to be allocation-free: the tagged components
//! live in the flat structure-of-arrays [`TageTables`] storage, and a
//! lookup's per-table observables are collected in the fixed-size
//! [`TableLookups`] scratch carried inside [`TagePrediction`], so
//! [`TagePredictor::predict`] and [`TagePredictor::update`] never touch the
//! heap. `tests/soa_parity.rs` pins this implementation bit-for-bit against
//! the nested-`Vec` [`crate::reference::ReferenceTagePredictor`].

use tage_predictors::counter::SignedCounter;
use tage_predictors::history::HistoryRegister;
use tage_predictors::PredictorCore;
use tage_traces::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use tage_traces::SplitMix64;

use crate::folded::FoldedHistory;
use crate::geometry::{TageBlueprint, TageGeometry};
use crate::prediction::{Provider, TableLookup, TableLookups, TagePrediction};
use crate::tables::TageTables;

/// Internal event counters, useful for tests and for reporting predictor
/// behaviour alongside experiment results.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TageStats {
    /// Number of `update` calls.
    pub updates: u64,
    /// Number of mispredictions observed at update time.
    pub mispredictions: u64,
    /// Number of tagged entries allocated.
    pub allocations: u64,
    /// Number of allocation attempts that found no `u == 0` victim.
    pub allocation_failures: u64,
    /// Number of graceful useful-counter reset steps performed.
    pub useful_resets: u64,
}

/// The TAGE conditional branch predictor.
///
/// See the crate-level documentation for the algorithm overview and
/// [`TageGeometry::small`] and its siblings for the three storage presets of
/// the paper.
///
/// # Example
///
/// ```
/// use tage::{TageGeometry, TagePredictor};
///
/// let mut predictor = TagePredictor::new(TageGeometry::small());
/// let prediction = predictor.predict(0x1234_5678);
/// predictor.update(0x1234_5678, true, &prediction);
/// assert_eq!(predictor.stats().updates, 1);
/// ```
#[derive(Debug, Clone)]
pub struct TagePredictor {
    pub(crate) geometry: TageGeometry,
    pub(crate) history_lengths: Vec<usize>,
    pub(crate) bimodal: Vec<SignedCounter>,
    pub(crate) tables: TageTables,
    pub(crate) history: HistoryRegister,
    pub(crate) index_folds: Vec<FoldedHistory>,
    pub(crate) tag_folds_a: Vec<FoldedHistory>,
    pub(crate) tag_folds_b: Vec<FoldedHistory>,
    /// The path-history register XORed into the tagged index hashes: the low
    /// address bit of the last `geometry.path_history_bits` branches. Stays
    /// zero (and the XOR a no-op) when the geometry disables path history —
    /// the legacy behaviour of every preset.
    pub(crate) path_history: u64,
    pub(crate) use_alt_on_na: SignedCounter,
    pub(crate) rng: SplitMix64,
    /// Updates left until the next periodic useful-counter reset — a
    /// countdown from `geometry.useful_reset_period`, not an absolute tick:
    /// testing a decrement for zero avoids the 64-bit remainder the
    /// reference predictor pays on every update.
    pub(crate) until_useful_reset: u64,
    pub(crate) reset_phase: u8,
    pub(crate) stats: TageStats,
}

impl TagePredictor {
    /// Creates a predictor from any blueprint — a [`TageGeometry`] or a
    /// reference to one.
    ///
    /// # Panics
    ///
    /// Panics if the blueprint's geometry does not pass
    /// [`TageGeometry::validate`].
    pub fn new(blueprint: impl TageBlueprint) -> Self {
        let geometry = blueprint.tage_geometry();
        if let Err(reason) = geometry.validate() {
            panic!("invalid TAGE configuration: {reason}");
        }
        let history_lengths = geometry.history_lengths();
        let index_bits: Vec<u32> = geometry.tables.iter().map(|t| t.index_bits).collect();
        let tables = TageTables::new(&index_bits, geometry.counter_bits, geometry.useful_bits);
        let bimodal =
            vec![SignedCounter::new(geometry.bimodal_counter_bits); geometry.bimodal_entries()];
        let history = HistoryRegister::new(geometry.max_history() + 8);
        let index_folds = geometry
            .tables
            .iter()
            .map(|t| FoldedHistory::new(t.history_length, t.index_fold_bits as usize))
            .collect();
        let tag_folds_a = geometry
            .tables
            .iter()
            .map(|t| FoldedHistory::new(t.history_length, t.tag_fold_bits as usize))
            .collect();
        let tag_folds_b = geometry
            .tables
            .iter()
            .map(|t| FoldedHistory::new(t.history_length, t.tag_fold2_bits as usize))
            .collect();
        let use_alt_on_na = SignedCounter::new(geometry.use_alt_on_na_bits);
        let rng = SplitMix64::new(geometry.rng_seed);
        TagePredictor {
            history_lengths,
            bimodal,
            tables,
            history,
            index_folds,
            tag_folds_a,
            tag_folds_b,
            path_history: 0,
            use_alt_on_na,
            rng,
            until_useful_reset: geometry.useful_reset_period,
            reset_phase: 0,
            stats: TageStats::default(),
            geometry,
        }
    }

    /// The predictor's geometry.
    pub fn geometry(&self) -> &TageGeometry {
        &self.geometry
    }

    /// Internal event counters.
    pub fn stats(&self) -> TageStats {
        self.stats
    }

    /// Total predictor storage in bits (delegates to the geometry).
    pub fn storage_bits(&self) -> u64 {
        self.geometry.storage_bits()
    }

    /// The current value of the `USE_ALT_ON_NA` counter (exposed for tests
    /// and diagnostics).
    pub fn use_alt_on_na(&self) -> i8 {
        self.use_alt_on_na.value()
    }

    /// Changes the counter-update automaton at run time.
    ///
    /// The adaptive saturation-probability controller of the paper's
    /// Section 6.2 uses this to steer the probability while the predictor
    /// runs; the predictor tables themselves are left untouched.
    pub fn set_automaton(&mut self, automaton: crate::CounterAutomaton) {
        self.geometry.automaton = automaton;
    }

    /// Computes the bimodal table index for `pc`.
    fn bimodal_index(&self, pc: u64) -> usize {
        ((pc >> 2) & (self.bimodal.len() as u64 - 1)) as usize
    }

    /// Looks the predictor up for the conditional branch at `pc`.
    ///
    /// This does not modify any predictor state, so it can be called
    /// repeatedly (e.g. by a confidence estimator *and* the simulation
    /// loop) before the matching [`TagePredictor::update`]. The lookup is
    /// allocation-free: every per-table observable lands in the returned
    /// prediction's fixed-size [`TableLookups`] scratch.
    pub fn predict(&self, pc: u64) -> TagePrediction {
        let mut lookups = TableLookups::new();
        // Zipping the per-table geometry with the folded-history registers
        // avoids four bounds checks per table; the arithmetic is exactly
        // `table_index`/`table_tag`. The path-history XOR vanishes for
        // geometries with `path_history_bits == 0` (`path_history` is then
        // always zero), preserving the legacy hash bit for bit.
        let hashed_base = pc >> 2;
        let path = self.path_history;
        let folds = self
            .geometry
            .tables
            .iter()
            .zip(&self.index_folds)
            .zip(&self.tag_folds_a)
            .zip(&self.tag_folds_b);
        for (t, (((table, index_fold), tag_fold_a), tag_fold_b)) in folds.enumerate() {
            let index_bits = u64::from(table.index_bits);
            let index_mask = (1u64 << index_bits) - 1;
            let tag_mask = (1u64 << table.tag_bits) - 1;
            let hashed_pc = hashed_base ^ (pc >> (index_bits + t as u64 + 1));
            let idx = ((hashed_pc ^ index_fold.value() ^ path) & index_mask) as usize;
            let tag =
                ((hashed_base ^ tag_fold_a.value() ^ (tag_fold_b.value() << 1)) & tag_mask) as u16;
            lookups.push(TableLookup {
                index: idx as u32,
                tag,
                hit: self.tables.tag(t, idx) == tag,
            });
        }
        self.resolve(pc, lookups)
    }

    /// Resolves a completed set of per-table probes into the final
    /// prediction: provider/alternate selection, `USE_ALT_ON_NA`, and the
    /// full observable [`TagePrediction`].
    ///
    /// Shared verbatim by the scalar [`TagePredictor::predict`] and the
    /// lane-batched [`crate::lanes::LaneGroup`] path, so the two cannot
    /// drift apart.
    pub(crate) fn resolve(&self, pc: u64, lookups: TableLookups) -> TagePrediction {
        let mut out = TagePrediction {
            tables: lookups,
            ..TagePrediction::default()
        };
        self.resolve_into(pc, &mut out);
        out
    }

    /// The in-place core of [`TagePredictor::resolve`]: reads the completed
    /// probes from `out.tables` and writes every other field of `out`.
    ///
    /// Taking the lookups through the output slot lets the lane-batched
    /// path assemble probes directly in its persistent per-lane buffers, so
    /// the ~150-byte prediction is written exactly once per branch instead
    /// of being copied through stack temporaries.
    pub(crate) fn resolve_into(&self, pc: u64, out: &mut TagePrediction) {
        let num_tables = self.tables.num_tables();
        let lookups = &out.tables;
        let bimodal_index = self.bimodal_index(pc);
        let bimodal_counter = self.bimodal[bimodal_index];
        let bimodal_taken = bimodal_counter.predict_taken();

        // Selecting the provider and alternate from the maintained hit
        // bitmask through `leading_zeros` is branch-free, where the natural
        // backward `find` scans cost one data-dependent (and hence
        // frequently mispredicted) branch each on the hot path.
        let hit_mask = u32::from(lookups.hit_mask());
        debug_assert_eq!(usize::from(lookups.hit_mask() >> num_tables), 0);
        // Provider: hitting component with the longest history.
        let provider_table = hit_mask.checked_ilog2().map(|t| t as usize);
        // Alternate: next hitting component, else the bimodal prediction.
        let alternate_table = provider_table
            .and_then(|p| (hit_mask & !(1u32 << p)).checked_ilog2())
            .map(|t| t as usize);

        let (alternate_taken, alternate_provider) = match alternate_table {
            Some(t) => {
                let ctr = self.tables.ctr(t, lookups.index(t));
                (ctr.predict_taken(), Provider::Tagged { table: t })
            }
            None => (bimodal_taken, Provider::Bimodal),
        };

        match provider_table {
            Some(t) => {
                let ctr = self.tables.ctr(t, lookups.index(t));
                let provider_taken = ctr.predict_taken();
                let weak = ctr.is_weak();
                // Use the alternate prediction for (likely newly allocated)
                // weak entries when USE_ALT_ON_NA is non-negative.
                let use_alt = weak && self.use_alt_on_na.value() >= 0;
                out.taken = if use_alt {
                    alternate_taken
                } else {
                    provider_taken
                };
                out.provider = Provider::Tagged { table: t };
                out.provider_counter = ctr.value();
                out.provider_magnitude = ctr.centered_magnitude();
                out.provider_weak = weak;
                out.alternate_taken = alternate_taken;
                out.alternate_provider = alternate_provider;
                out.used_alternate = use_alt;
            }
            None => {
                out.taken = bimodal_taken;
                out.provider = Provider::Bimodal;
                out.provider_counter = bimodal_counter.value();
                out.provider_magnitude = bimodal_counter.centered_magnitude();
                out.provider_weak = bimodal_counter.is_weak();
                out.alternate_taken = bimodal_taken;
                out.alternate_provider = Provider::Bimodal;
                out.used_alternate = false;
            }
        }
        out.bimodal_index = bimodal_index;
        out.bimodal_counter = bimodal_counter.value();
    }

    /// Updates the predictor with the resolved outcome of the branch at
    /// `pc`. `prediction` must be the value returned by the matching
    /// [`TagePredictor::predict`] call (made with the same global history).
    pub fn update(&mut self, pc: u64, taken: bool, prediction: &TagePrediction) {
        debug_assert_eq!(
            self.bimodal_index(pc),
            prediction.bimodal_index,
            "the prediction passed to update was computed for a different branch"
        );
        self.update_counters(taken, prediction);

        // 4. Advance the global history, the folded histories and the path
        //    history.
        self.push_history(taken);
        self.push_path(pc);
    }

    /// Steps 1–3 of [`TagePredictor::update`] (tick/graceful reset, provider
    /// counter update, allocation) without the history advance, so batched
    /// callers can sequence counter updates and history pushes separately.
    pub(crate) fn update_counters(&mut self, taken: bool, prediction: &TagePrediction) {
        self.stats.updates += 1;
        if prediction.taken != taken {
            self.stats.mispredictions += 1;
        }

        // 1. Periodic graceful reset of the useful counters.
        self.until_useful_reset -= 1;
        if self.until_useful_reset == 0 {
            self.until_useful_reset = self.geometry.useful_reset_period;
            self.tables.clear_useful_bit(self.reset_phase);
            self.reset_phase = (self.reset_phase + 1) % self.geometry.useful_bits;
            self.stats.useful_resets += 1;
        }

        // 2. Update the provider component.
        match prediction.provider {
            Provider::Tagged { table } => {
                let idx = prediction.tables.index(table);
                // The provider counter cannot have moved since the matching
                // predict, so its recorded value stands in for a (random,
                // usually L1-missing) reload of the table entry.
                let provider_taken = prediction.provider_counter >= 0;

                // USE_ALT_ON_NA management: when the provider entry is
                // weak (newly allocated) and the alternate prediction
                // disagrees with it, learn which of the two tends to be
                // right.
                if prediction.provider_weak && prediction.alternate_taken != provider_taken {
                    if prediction.alternate_taken == taken {
                        self.use_alt_on_na.increment();
                    } else {
                        self.use_alt_on_na.decrement();
                    }
                }

                // Useful counter: updated when the provider and the
                // alternate prediction disagree.
                if prediction.alternate_taken != provider_taken {
                    if provider_taken == taken {
                        self.tables.useful_mut(table, idx).increment();
                    } else {
                        self.tables.useful_mut(table, idx).decrement();
                    }
                }

                // Prediction counter, through the configured automaton.
                self.geometry.automaton.update_counter(
                    self.tables.ctr_mut(table, idx),
                    taken,
                    &mut self.rng,
                );
            }
            Provider::Bimodal => {
                let idx = prediction.bimodal_index;
                self.bimodal[idx].update(taken);
            }
        }

        // 3. Allocation on a misprediction (of the final prediction), in a
        //    component using a longer history than the provider.
        if prediction.taken != taken {
            let first_candidate = match prediction.provider {
                Provider::Bimodal => 0,
                Provider::Tagged { table } => table + 1,
            };
            if first_candidate < self.tables.num_tables() {
                self.allocate(first_candidate, taken, prediction);
            }
        }
    }

    /// Allocates at most one entry in a table with rank `first_candidate` or
    /// higher, following the paper's policy: choose among useless entries
    /// (`u == 0`), initialise the counter to weak-correct and `u` to zero.
    ///
    /// The candidate scan is a single allocation-free pass: candidates are
    /// consumed as they are found (prefer shorter histories, skip forward
    /// pseudo-randomly so allocations spread over the candidate tables — the
    /// geometric choice of the reference TAGE implementations), consulting
    /// the RNG exactly as the old collect-then-scan code did.
    fn allocate(&mut self, first_candidate: usize, taken: bool, prediction: &TagePrediction) {
        let num_tables = self.tables.num_tables();
        let mut chosen: Option<usize> = None;
        for t in first_candidate..num_tables {
            if !self.tables.is_allocatable(t, prediction.tables.index(t)) {
                continue;
            }
            if chosen.is_some() && self.rng.chance(0.5) {
                break;
            }
            chosen = Some(t);
        }
        let Some(chosen) = chosen else {
            // No victim: age all would-be victims so that an entry frees up
            // soon (standard TAGE behaviour).
            for t in first_candidate..num_tables {
                let idx = prediction.tables.index(t);
                self.tables.useful_mut(t, idx).decrement();
            }
            self.stats.allocation_failures += 1;
            return;
        };
        let idx = prediction.tables.index(chosen);
        let tag = prediction.tables.tag(chosen);
        self.tables.allocate(chosen, idx, tag, taken);
        self.stats.allocations += 1;
    }

    /// Pushes the resolved outcome into the global history and keeps every
    /// folded register consistent.
    pub(crate) fn push_history(&mut self, taken: bool) {
        let folds = self
            .index_folds
            .iter_mut()
            .zip(&mut self.tag_folds_a)
            .zip(&mut self.tag_folds_b);
        for (&length, ((index_fold, tag_fold_a), tag_fold_b)) in
            self.history_lengths.iter().zip(folds)
        {
            let evicted = self.history.bit(length - 1);
            index_fold.update(taken, evicted);
            tag_fold_a.update(taken, evicted);
            tag_fold_b.update(taken, evicted);
        }
        self.history.push(taken);
    }

    /// Shifts the low address bit of the committed branch into the path
    /// history. A no-op for geometries without a path register.
    pub(crate) fn push_path(&mut self, pc: u64) {
        let bits = self.geometry.path_history_bits;
        if bits == 0 {
            return;
        }
        let mask = (1u64 << bits) - 1;
        self.path_history = ((self.path_history << 1) | ((pc >> 2) & 1)) & mask;
    }

    /// Resets all dynamic state (tables, histories, counters, statistics)
    /// while keeping the configuration.
    ///
    /// The reset happens in place without heap allocation, and restores the
    /// exact state of a freshly constructed predictor (pinned by tests), so
    /// a multilane runner can recycle a predictor for the next stream on a
    /// lane without perturbing allocation counts.
    pub fn reset(&mut self) {
        self.tables.clear();
        self.bimodal
            .fill(SignedCounter::new(self.geometry.bimodal_counter_bits));
        self.history.clear();
        for fold in &mut self.index_folds {
            fold.clear();
        }
        for fold in &mut self.tag_folds_a {
            fold.clear();
        }
        for fold in &mut self.tag_folds_b {
            fold.clear();
        }
        self.path_history = 0;
        self.use_alt_on_na = SignedCounter::new(self.geometry.use_alt_on_na_bits);
        self.rng = SplitMix64::new(self.geometry.rng_seed);
        self.until_useful_reset = self.geometry.useful_reset_period;
        self.reset_phase = 0;
        self.stats = TageStats::default();
    }

    /// A digest of the predictor's specification — the geometry's
    /// [`TageGeometry::spec_digest`], which folds every structural field of
    /// every table (see [`PredictorCore::spec_digest`]). The counter
    /// automaton is deliberately **excluded** — adaptive runs mutate it at
    /// run time, so it travels in the snapshot payload instead. Distinct
    /// from the reference implementation's digest: the two predictors lay
    /// out their useful-reset state differently, so their snapshots are not
    /// interchangeable.
    pub fn spec_digest(&self) -> u64 {
        self.geometry.spec_digest()
    }

    /// [`TagePredictor::spec_digest`] computed from a blueprint alone,
    /// without building the predictor's tables — cheap enough for cache-key
    /// derivation on every sampled run.
    pub fn spec_digest_for(blueprint: impl TageBlueprint) -> u64 {
        blueprint.tage_geometry().spec_digest()
    }

    /// Serializes the predictor's **full** dynamic state — automaton,
    /// bimodal and tagged tables, history, folded histories, RNG, reset
    /// countdown and statistics — into the framed format of
    /// [`tage_traces::snapshot`].
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new(self.spec_digest());

        w.begin_section();
        crate::snapshot::write_automaton(&mut w, self.geometry.automaton);
        w.end_section();

        w.begin_section();
        for ctr in &self.bimodal {
            w.write_i8(ctr.value());
        }
        w.end_section();

        w.begin_section();
        let (tags, ctrs, useful) = self.tables.raw_parts();
        for &tag in tags {
            w.write_u16(tag);
        }
        for ctr in ctrs {
            w.write_i8(ctr.value());
        }
        for u in useful {
            w.write_u8(u.value());
        }
        w.end_section();

        w.begin_section();
        crate::snapshot::write_history(&mut w, &self.history);
        crate::snapshot::write_folds(&mut w, &self.index_folds);
        crate::snapshot::write_folds(&mut w, &self.tag_folds_a);
        crate::snapshot::write_folds(&mut w, &self.tag_folds_b);
        w.write_u64(self.path_history);
        w.end_section();

        w.begin_section();
        w.write_i8(self.use_alt_on_na.value());
        w.write_u64(self.rng.state());
        w.write_u64(self.until_useful_reset);
        w.write_u8(self.reset_phase);
        crate::snapshot::write_stats(&mut w, &self.stats);
        w.end_section();

        w.finish()
    }

    /// Restores state captured by [`TagePredictor::snapshot`]. The restore
    /// is all-or-nothing: the whole snapshot is decoded and validated before
    /// any live state is touched, so on error the predictor is exactly as it
    /// was.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`] carrying the byte offset of the problem
    /// when the bytes are truncated, corrupt, from a different format
    /// version, or from a different predictor specification.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        let mut r = SnapshotReader::new(bytes, TagePredictor::spec_digest(self))?;

        r.begin_section()?;
        let automaton = crate::snapshot::read_automaton(&mut r)?;
        r.end_section()?;

        r.begin_section()?;
        let mut bimodal = Vec::with_capacity(self.bimodal.len());
        for _ in 0..self.bimodal.len() {
            bimodal.push(r.read_i8()?);
        }
        r.end_section()?;

        r.begin_section()?;
        let total = self.tables.total_entries();
        let mut tags = Vec::with_capacity(total);
        for _ in 0..total {
            tags.push(r.read_u16()?);
        }
        let mut ctrs = Vec::with_capacity(total);
        for _ in 0..total {
            ctrs.push(r.read_i8()?);
        }
        let mut useful = Vec::with_capacity(total);
        for _ in 0..total {
            useful.push(r.read_u8()?);
        }
        r.end_section()?;

        r.begin_section()?;
        let history = crate::snapshot::read_history(&mut r, self.history.words().len())?;
        let index_folds = crate::snapshot::read_folds(&mut r, &self.index_folds)?;
        let tag_folds_a = crate::snapshot::read_folds(&mut r, &self.tag_folds_a)?;
        let tag_folds_b = crate::snapshot::read_folds(&mut r, &self.tag_folds_b)?;
        let path_history = r.read_u64()?;
        r.end_section()?;

        r.begin_section()?;
        let use_alt_on_na = r.read_i8()?;
        let rng_state = r.read_u64()?;
        let until_useful_reset = r.read_u64()?;
        let reset_phase = r.read_u8()?;
        let stats = crate::snapshot::read_stats(&mut r)?;
        r.end_section()?;

        r.finish()?;

        // Everything decoded and validated: commit.
        self.geometry.automaton = automaton;
        for (ctr, value) in self.bimodal.iter_mut().zip(bimodal) {
            ctr.set(value);
        }
        let (live_tags, live_ctrs, live_useful) = self.tables.raw_parts_mut();
        live_tags.copy_from_slice(&tags);
        for (ctr, value) in live_ctrs.iter_mut().zip(ctrs) {
            ctr.set(value);
        }
        for (u, value) in live_useful.iter_mut().zip(useful) {
            u.set(value);
        }
        self.history.load_words(&history);
        for (fold, value) in self.index_folds.iter_mut().zip(index_folds) {
            fold.set_value(value);
        }
        for (fold, value) in self.tag_folds_a.iter_mut().zip(tag_folds_a) {
            fold.set_value(value);
        }
        for (fold, value) in self.tag_folds_b.iter_mut().zip(tag_folds_b) {
            fold.set_value(value);
        }
        self.path_history = path_history;
        self.use_alt_on_na.set(use_alt_on_na);
        self.rng = SplitMix64::from_state(rng_state);
        self.until_useful_reset = until_useful_reset;
        self.reset_phase = reset_phase;
        self.stats = stats;
        Ok(())
    }
}

/// The engine-facing interface: the lookup is the full observable
/// [`TagePrediction`], so the storage-free confidence classification sees
/// the provider component and its counter exactly as the hardware would,
/// and the storage-based estimators grade its provider margin.
impl PredictorCore for TagePredictor {
    type Lookup = TagePrediction;

    fn predict(&mut self, pc: u64) -> TagePrediction {
        TagePredictor::predict(self, pc)
    }

    fn update(&mut self, pc: u64, taken: bool, lookup: &TagePrediction) {
        TagePredictor::update(self, pc, taken, lookup)
    }

    fn reset(&mut self) {
        TagePredictor::reset(self)
    }

    fn storage_bits(&self) -> u64 {
        self.geometry.storage_bits()
    }

    fn name(&self) -> String {
        self.geometry.name()
    }

    fn snapshot(&self) -> Vec<u8> {
        TagePredictor::snapshot(self)
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        TagePredictor::restore(self, bytes)
    }

    fn spec_digest(&self) -> u64 {
        TagePredictor::spec_digest(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::CounterAutomaton;
    use crate::geometry::TageGeometry;
    use tage_predictors::{BimodalPredictor, PredictionOutcome};

    fn run_branch(predictor: &mut TagePredictor, pc: u64, outcomes: &[bool]) -> u64 {
        let mut mispredictions = 0;
        for &taken in outcomes {
            let pred = TagePredictor::predict(predictor, pc);
            if pred.taken != taken {
                mispredictions += 1;
            }
            TagePredictor::update(predictor, pc, taken, &pred);
        }
        mispredictions
    }

    #[test]
    fn learns_a_strongly_biased_branch() {
        let mut p = TagePredictor::new(TageGeometry::small());
        let outcomes = vec![true; 200];
        let misses = run_branch(&mut p, 0x400100, &outcomes);
        assert!(misses <= 3, "misses = {misses}");
    }

    #[test]
    fn learns_a_loop_pattern_bimodal_cannot() {
        // Period-5 loop: bimodal alone mispredicts every 5th iteration.
        let mut tage = TagePredictor::new(TageGeometry::medium());
        let mut outcomes = Vec::new();
        for _ in 0..400 {
            for i in 0..5 {
                outcomes.push(i != 4);
            }
        }
        let misses = run_branch(&mut tage, 0x400200, &outcomes);
        // After warmup TAGE should capture the loop almost perfectly:
        // far fewer than the 400 exit mispredictions bimodal would make.
        assert!(misses < 100, "misses = {misses}");
    }

    /// Sixteen branches, each repeating its own seeded 6-outcome pattern,
    /// executed in turn for `rounds` rounds: every outcome follows from the
    /// global history, yet no branch is biased enough for a per-PC counter.
    fn interleaved_patterns(rounds: usize) -> Vec<(u64, bool)> {
        let mut rng = SplitMix64::new(1);
        let patterns: Vec<Vec<bool>> = (0..16)
            .map(|_| (0..6).map(|_| rng.chance(0.5)).collect())
            .collect();
        (0..rounds)
            .flat_map(|round| {
                patterns
                    .iter()
                    .enumerate()
                    .map(move |(b, pattern)| (0x1000 + b as u64 * 16, pattern[round % 6]))
            })
            .collect()
    }

    /// Mispredictions among `branches` after the first `warmup`.
    fn late_misses<P: PredictorCore>(
        predictor: &mut P,
        branches: &[(u64, bool)],
        warmup: usize,
    ) -> usize {
        let mut misses = 0;
        for (i, &(pc, taken)) in branches.iter().enumerate() {
            let lookup = predictor.predict(pc);
            if i >= warmup && lookup.predicted_taken() != taken {
                misses += 1;
            }
            predictor.update(pc, taken, &lookup);
        }
        misses
    }

    #[test]
    fn learns_interleaved_patterns_exactly_where_bimodal_cannot() {
        // Both geometries make their last misprediction within the first
        // 230 branches; 4,000 leaves a wide margin.
        let warmup = 4_000;
        let branches = interleaved_patterns(2_000);
        let measured = branches.len() - warmup;
        for geometry in [TageGeometry::small(), TageGeometry::large()] {
            let misses = late_misses(&mut TagePredictor::new(geometry.clone()), &branches, warmup);
            assert_eq!(misses, 0, "{}", geometry.name());
        }
        // The control: bimodal reads 520.8 mispredictions per thousand
        // branches here, so the workload is not trivially biased.
        let bimodal = late_misses(&mut BimodalPredictor::new(12), &branches, warmup);
        assert!(
            bimodal * 1000 > 500 * measured,
            "bimodal {bimodal} of {measured}"
        );
    }

    #[test]
    fn learns_history_correlated_branches() {
        // Branch B's outcome equals branch A's previous outcome.
        let mut p = TagePredictor::new(TageGeometry::medium());
        let mut b_misses_late = 0;
        let mut rng = SplitMix64::new(5);
        for i in 0..6000 {
            // Branch A: pseudo-random.
            let a_taken = rng.chance(0.5);
            let pred_a = p.predict(0x400300);
            p.update(0x400300, a_taken, &pred_a);
            // Branch B: copies A's outcome.
            let b_taken = a_taken;
            let pred_b = p.predict(0x400340);
            if i > 4000 && pred_b.taken != b_taken {
                b_misses_late += 1;
            }
            p.update(0x400340, b_taken, &pred_b);
        }
        assert!(b_misses_late < 150, "late misses = {b_misses_late}");
    }

    #[test]
    fn cold_predictor_uses_bimodal_provider() {
        let p = TagePredictor::new(TageGeometry::small());
        let pred = p.predict(0x1234);
        assert!(pred.provider.is_bimodal());
        assert!(!pred.used_alternate);
        assert_eq!(pred.alternate_provider, Provider::Bimodal);
    }

    #[test]
    fn mispredictions_allocate_tagged_entries() {
        let mut p = TagePredictor::new(TageGeometry::small());
        // Alternate outcomes so the bimodal keeps mispredicting.
        let outcomes: Vec<bool> = (0..100).map(|i| i % 2 == 0).collect();
        run_branch(&mut p, 0x400400, &outcomes);
        assert!(p.stats().allocations > 0);
        // Eventually a tagged component becomes the provider.
        let pred = p.predict(0x400400);
        assert!(
            !pred.provider.is_bimodal(),
            "provider = {:?}",
            pred.provider
        );
    }

    #[test]
    fn stats_track_updates_and_mispredictions() {
        let mut p = TagePredictor::new(TageGeometry::small());
        let outcomes: Vec<bool> = (0..50).map(|i| i % 3 == 0).collect();
        let misses = run_branch(&mut p, 0x400500, &outcomes);
        assert_eq!(p.stats().updates, 50);
        assert_eq!(p.stats().mispredictions, misses);
    }

    #[test]
    fn useful_reset_fires_periodically() {
        let config = TageGeometry {
            useful_reset_period: 64,
            ..TageGeometry::small()
        };
        let mut p = TagePredictor::new(config);
        let outcomes: Vec<bool> = (0..200).map(|i| i % 2 == 0).collect();
        run_branch(&mut p, 0x400600, &outcomes);
        assert!(p.stats().useful_resets >= 3);
    }

    #[test]
    fn in_place_reset_is_bit_identical_to_a_fresh_predictor() {
        let config = TageGeometry::small();
        let mut reset = TagePredictor::new(config.clone());
        let mut rng = SplitMix64::new(77);
        for i in 0..5_000u64 {
            let pc = 0x400000 + (i % 97) * 8;
            let taken = rng.chance(0.6);
            let pred = reset.predict(pc);
            reset.update(pc, taken, &pred);
        }
        reset.reset();
        let mut fresh = TagePredictor::new(config);
        assert_eq!(reset.stats(), fresh.stats());
        // Drive both through the same stream: every observable prediction
        // (tables, counters, RNG-driven allocations) must stay identical.
        let mut rng = SplitMix64::new(99);
        for i in 0..5_000u64 {
            let pc = 0x500000 + (i % 131) * 4;
            let taken = rng.chance(0.4);
            let a = reset.predict(pc);
            let b = fresh.predict(pc);
            assert_eq!(a, b, "diverged at step {i}");
            reset.update(pc, taken, &a);
            fresh.update(pc, taken, &b);
        }
        assert_eq!(reset.stats(), fresh.stats());
    }

    #[test]
    fn reset_clears_dynamic_state() {
        let mut p = TagePredictor::new(TageGeometry::small());
        run_branch(&mut p, 0x400700, &[true; 50]);
        assert!(p.stats().updates > 0);
        p.reset();
        assert_eq!(p.stats().updates, 0);
        let pred = p.predict(0x400700);
        assert!(pred.provider.is_bimodal());
    }

    #[test]
    fn predict_is_pure() {
        let mut p = TagePredictor::new(TageGeometry::medium());
        run_branch(&mut p, 0x400800, &[true, false, true, true, false]);
        let a = p.predict(0x400800);
        let b = p.predict(0x400800);
        assert_eq!(a, b);
    }

    #[test]
    fn update_uses_indices_from_prediction() {
        // The prediction carries the per-table indices/tags; update must not
        // panic even for a prediction taken just before the history moved.
        let mut p = TagePredictor::new(TageGeometry::small());
        let pred = p.predict(0x400900);
        p.update(0x400900, true, &pred);
        assert_eq!(p.stats().updates, 1);
    }

    #[test]
    fn predictor_core_matches_inherent_behaviour() {
        let config = TageGeometry::small();
        let mut a = TagePredictor::new(config.clone());
        let mut b = TagePredictor::new(config);
        let outcomes: Vec<bool> = (0..300).map(|i| (i / 3) % 2 == 0).collect();
        for &taken in &outcomes {
            let pa = a.predict(0x400a00);
            a.update(0x400a00, taken, &pa);

            let pb = PredictorCore::predict(&mut b, 0x400a00);
            assert_eq!(pa, pb);
            PredictorCore::update(&mut b, 0x400a00, taken, &pb);
        }
        assert_eq!(a.stats(), b.stats());
        assert_eq!(PredictorCore::storage_bits(&a), 16 * 1024);
        assert_eq!(PredictorCore::name(&a), "TAGE-16K");
    }

    #[test]
    fn probabilistic_automaton_changes_saturation_population() {
        // With the modified automaton, far fewer provider counters should be
        // saturated after steady-state training on mixed branches.
        let count_saturated = |automaton: CounterAutomaton| {
            let config = TageGeometry::small().with_automaton(automaton);
            let mut p = TagePredictor::new(config);
            let mut rng = SplitMix64::new(9);
            let mut saturated = 0u64;
            let mut total = 0u64;
            for i in 0..40_000u64 {
                let pc = 0x400000 + (i % 64) * 16;
                let taken = rng.chance(0.9);
                let pred = p.predict(pc);
                if !pred.provider.is_bimodal() {
                    total += 1;
                    if pred.is_saturated_tagged(3) {
                        saturated += 1;
                    }
                }
                p.update(pc, taken, &pred);
            }
            (saturated, total)
        };
        let (sat_std, tot_std) = count_saturated(CounterAutomaton::Standard);
        let (sat_mod, tot_mod) = count_saturated(CounterAutomaton::paper_default());
        assert!(tot_std > 1000 && tot_mod > 1000);
        let rate_std = sat_std as f64 / tot_std as f64;
        let rate_mod = sat_mod as f64 / tot_mod as f64;
        assert!(
            rate_mod < rate_std * 0.7,
            "modified automaton should shrink the saturated class: {rate_mod} vs {rate_std}"
        );
    }

    #[test]
    fn use_alt_on_na_counter_moves() {
        let mut p = TagePredictor::new(TageGeometry::small());
        let initial = p.use_alt_on_na();
        // Drive lots of mispredictions so newly allocated entries are used.
        let mut rng = SplitMix64::new(123);
        for i in 0..20_000u64 {
            let pc = 0x500000 + (i % 512) * 8;
            let taken = rng.chance(0.5);
            let pred = p.predict(pc);
            p.update(pc, taken, &pred);
        }
        // The counter should have been exercised (moved at least once).
        // Its final sign is workload dependent; just check it stays in range.
        let value = p.use_alt_on_na();
        assert!((-8..=7).contains(&value));
        let _ = initial;
    }

    #[test]
    #[should_panic(expected = "invalid TAGE configuration")]
    fn invalid_config_panics() {
        let mut config = TageGeometry::small();
        config.tables.clear();
        TagePredictor::new(config);
    }

    #[test]
    fn distinct_branches_do_not_trample_each_other_much() {
        let mut p = TagePredictor::new(TageGeometry::medium());
        // 32 branches, each strongly biased in its own direction.
        let mut misses = 0u64;
        let mut total = 0u64;
        for round in 0..300 {
            for b in 0..32u64 {
                let pc = 0x600000 + b * 32;
                let taken = b % 2 == 0;
                let pred = p.predict(pc);
                if round > 10 {
                    total += 1;
                    if pred.taken != taken {
                        misses += 1;
                    }
                }
                p.update(pc, taken, &pred);
            }
        }
        assert!(
            (misses as f64 / total as f64) < 0.01,
            "miss rate {misses}/{total}"
        );
    }
}
