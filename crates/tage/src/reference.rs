//! The nested-`Vec` reference TAGE implementation.
//!
//! [`ReferenceTagePredictor`] preserves the predictor exactly as it was
//! before the storage layer moved to the flat structure-of-arrays layout of
//! [`crate::tables::TageTables`]: tagged components stored as
//! `Vec<Vec<TaggedEntry>>`, per-lookup scratch collected in freshly
//! allocated `Vec`s, and the allocation policy scanning a collected
//! candidate list. It is deliberately *not* fast — it is the executable
//! specification the optimised [`crate::TagePredictor`] is pinned against.
//!
//! `tests/soa_parity.rs` drives both implementations in lockstep over
//! randomized configurations and seeded trace mixes and asserts bit-identical
//! [`TagePrediction`]s (including the per-table lookup metadata), statistics
//! and `USE_ALT_ON_NA` movement. If you change predictor behaviour on
//! purpose, change it **here and in [`crate::TagePredictor`]**, or the
//! parity suite will fail.

use tage_predictors::counter::SignedCounter;
use tage_predictors::history::HistoryRegister;
use tage_traces::snapshot::{fnv1a64, SnapshotError, SnapshotReader, SnapshotWriter};
use tage_traces::SplitMix64;

use crate::entry::TaggedEntry;
use crate::folded::FoldedHistory;
use crate::geometry::{TableGeometry, TageGeometry};
use crate::prediction::{Provider, TableLookup, TableLookups, TagePrediction};
use crate::predictor::TageStats;

/// The pre-SoA TAGE predictor: identical observable behaviour to
/// [`crate::TagePredictor`], nested-`Vec` storage and per-call heap scratch.
///
/// See the [module documentation](self) for why this type exists.
#[derive(Debug, Clone)]
pub struct ReferenceTagePredictor {
    geometry: TageGeometry,
    /// The one entry-count width every tagged table shares.
    index_bits: u32,
    /// The one tag width every tagged table shares.
    tag_bits: u32,
    history_lengths: Vec<usize>,
    bimodal: Vec<SignedCounter>,
    tables: Vec<Vec<TaggedEntry>>,
    history: HistoryRegister,
    index_folds: Vec<FoldedHistory>,
    tag_folds_a: Vec<FoldedHistory>,
    tag_folds_b: Vec<FoldedHistory>,
    use_alt_on_na: SignedCounter,
    rng: SplitMix64,
    tick: u64,
    reset_phase: u8,
    stats: TageStats,
}

impl ReferenceTagePredictor {
    /// Creates a reference predictor for a uniform geometry — one entry
    /// count and one tag width shared by every tagged table, the legacy
    /// fold footprints and no path history, as the paper's presets
    /// ([`TageGeometry::uniform`]) have.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not pass [`TageGeometry::validate`], or
    /// names the first feature the reference does not model: per-table
    /// widths, non-legacy folds, or path history.
    pub fn new(geometry: TageGeometry) -> Self {
        if let Err(reason) = geometry.validate() {
            panic!("invalid TAGE configuration: {reason}");
        }
        let TableGeometry {
            index_bits,
            tag_bits,
            ..
        } = geometry.tables[0];
        for (t, table) in geometry.tables.iter().enumerate() {
            if (table.index_bits, table.tag_bits) != (index_bits, tag_bits) {
                panic!("the reference predictor needs a uniform geometry: table {t} has per-table widths");
            }
            if *table != TableGeometry::uniform(index_bits, tag_bits, table.history_length) {
                panic!("the reference predictor needs a uniform geometry: table {t} has non-legacy folds");
            }
        }
        if geometry.path_history_bits != 0 {
            panic!("the reference predictor needs a uniform geometry: it has path history");
        }
        let history_lengths = geometry.history_lengths();
        let tables = vec![
            vec![
                TaggedEntry::new(geometry.counter_bits, geometry.useful_bits);
                1 << index_bits
            ];
            geometry.num_tagged_tables()
        ];
        let bimodal =
            vec![SignedCounter::new(geometry.bimodal_counter_bits); geometry.bimodal_entries()];
        let history = HistoryRegister::new(geometry.max_history() + 8);
        let index_folds = history_lengths
            .iter()
            .map(|&l| FoldedHistory::new(l, index_bits as usize))
            .collect();
        let tag_folds_a = history_lengths
            .iter()
            .map(|&l| FoldedHistory::new(l, tag_bits as usize))
            .collect();
        let tag_folds_b = history_lengths
            .iter()
            .map(|&l| FoldedHistory::new(l, (tag_bits - 1).max(1) as usize))
            .collect();
        let use_alt_on_na = SignedCounter::new(geometry.use_alt_on_na_bits);
        let rng = SplitMix64::new(geometry.rng_seed);
        ReferenceTagePredictor {
            index_bits,
            tag_bits,
            history_lengths,
            bimodal,
            tables,
            history,
            index_folds,
            tag_folds_a,
            tag_folds_b,
            use_alt_on_na,
            rng,
            tick: 0,
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

    /// The current value of the `USE_ALT_ON_NA` counter.
    pub fn use_alt_on_na(&self) -> i8 {
        self.use_alt_on_na.value()
    }

    fn bimodal_index(&self, pc: u64) -> usize {
        ((pc >> 2) & (self.bimodal.len() as u64 - 1)) as usize
    }

    fn table_index(&self, t: usize, pc: u64) -> usize {
        let bits = u64::from(self.index_bits);
        let mask = (1u64 << bits) - 1;
        let hashed_pc = (pc >> 2) ^ (pc >> (bits + t as u64 + 1));
        ((hashed_pc ^ self.index_folds[t].value()) & mask) as usize
    }

    fn table_tag(&self, t: usize, pc: u64) -> u16 {
        let mask = (1u64 << self.tag_bits) - 1;
        (((pc >> 2) ^ self.tag_folds_a[t].value() ^ (self.tag_folds_b[t].value() << 1)) & mask)
            as u16
    }

    /// Looks the predictor up for the conditional branch at `pc`, building
    /// the per-table scratch in per-call `Vec`s as the pre-SoA code did.
    pub fn predict(&self, pc: u64) -> TagePrediction {
        let num_tables = self.history_lengths.len();
        let mut table_indices = Vec::with_capacity(num_tables);
        let mut table_tags = Vec::with_capacity(num_tables);
        let mut table_hits = Vec::with_capacity(num_tables);
        for t in 0..num_tables {
            let idx = self.table_index(t, pc);
            let tag = self.table_tag(t, pc);
            let hit = self.tables[t][idx].tag == tag;
            table_indices.push(idx);
            table_tags.push(tag);
            table_hits.push(hit);
        }

        let bimodal_index = self.bimodal_index(pc);
        let bimodal_counter = self.bimodal[bimodal_index];
        let bimodal_taken = bimodal_counter.predict_taken();

        let provider_table = (0..num_tables).rev().find(|&t| table_hits[t]);
        let alternate_table = provider_table.and_then(|p| (0..p).rev().find(|&t| table_hits[t]));

        let (alternate_taken, alternate_provider) = match alternate_table {
            Some(t) => {
                let entry = &self.tables[t][table_indices[t]];
                (entry.ctr.predict_taken(), Provider::Tagged { table: t })
            }
            None => (bimodal_taken, Provider::Bimodal),
        };

        let mut lookups = TableLookups::new();
        for t in 0..num_tables {
            lookups.push(TableLookup {
                index: table_indices[t] as u32,
                tag: table_tags[t],
                hit: table_hits[t],
            });
        }

        match provider_table {
            Some(t) => {
                let entry = &self.tables[t][table_indices[t]];
                let provider_taken = entry.ctr.predict_taken();
                let weak = entry.ctr.is_weak();
                let use_alt = weak && self.use_alt_on_na.value() >= 0;
                let taken = if use_alt {
                    alternate_taken
                } else {
                    provider_taken
                };
                TagePrediction {
                    taken,
                    provider: Provider::Tagged { table: t },
                    provider_counter: entry.ctr.value(),
                    provider_magnitude: entry.ctr.centered_magnitude(),
                    provider_weak: weak,
                    alternate_taken,
                    alternate_provider,
                    used_alternate: use_alt,
                    tables: lookups,
                    bimodal_index,
                    bimodal_counter: bimodal_counter.value(),
                }
            }
            None => TagePrediction {
                taken: bimodal_taken,
                provider: Provider::Bimodal,
                provider_counter: bimodal_counter.value(),
                provider_magnitude: bimodal_counter.centered_magnitude(),
                provider_weak: bimodal_counter.is_weak(),
                alternate_taken: bimodal_taken,
                alternate_provider: Provider::Bimodal,
                used_alternate: false,
                tables: lookups,
                bimodal_index,
                bimodal_counter: bimodal_counter.value(),
            },
        }
    }

    /// Updates the predictor with the resolved outcome of the branch at
    /// `pc`, using the pre-SoA update sequence.
    pub fn update(&mut self, pc: u64, taken: bool, prediction: &TagePrediction) {
        debug_assert_eq!(self.bimodal_index(pc), prediction.bimodal_index);
        self.stats.updates += 1;
        if prediction.taken != taken {
            self.stats.mispredictions += 1;
        }

        self.tick += 1;
        if self.tick.is_multiple_of(self.geometry.useful_reset_period) {
            let phase = self.reset_phase;
            for table in self.tables.iter_mut() {
                for entry in table.iter_mut() {
                    entry.useful.clear_bit(phase);
                }
            }
            self.reset_phase = (self.reset_phase + 1) % self.geometry.useful_bits;
            self.stats.useful_resets += 1;
        }

        match prediction.provider {
            Provider::Tagged { table } => {
                let idx = prediction.tables.index(table);
                let entry = &mut self.tables[table][idx];
                let provider_taken = entry.ctr.predict_taken();

                if prediction.provider_weak && prediction.alternate_taken != provider_taken {
                    if prediction.alternate_taken == taken {
                        self.use_alt_on_na.increment();
                    } else {
                        self.use_alt_on_na.decrement();
                    }
                }

                if prediction.alternate_taken != provider_taken {
                    if provider_taken == taken {
                        entry.useful.increment();
                    } else {
                        entry.useful.decrement();
                    }
                }

                self.geometry
                    .automaton
                    .update_counter(&mut entry.ctr, taken, &mut self.rng);
            }
            Provider::Bimodal => {
                let idx = prediction.bimodal_index;
                self.bimodal[idx].update(taken);
            }
        }

        if prediction.taken != taken {
            let first_candidate = match prediction.provider {
                Provider::Bimodal => 0,
                Provider::Tagged { table } => table + 1,
            };
            if first_candidate < self.history_lengths.len() {
                self.allocate(first_candidate, taken, prediction);
            }
        }

        self.push_history(taken);
    }

    /// The pre-SoA allocation policy: collect the allocatable candidates
    /// into a per-call `Vec`, then scan with pseudo-random skip-forward.
    fn allocate(&mut self, first_candidate: usize, taken: bool, prediction: &TagePrediction) {
        let num_tables = self.history_lengths.len();
        let candidates: Vec<usize> = (first_candidate..num_tables)
            .filter(|&t| self.tables[t][prediction.tables.index(t)].is_allocatable())
            .collect();
        if candidates.is_empty() {
            for t in first_candidate..num_tables {
                let idx = prediction.tables.index(t);
                self.tables[t][idx].useful.decrement();
            }
            self.stats.allocation_failures += 1;
            return;
        }
        let mut chosen = candidates[0];
        for &candidate in &candidates[1..] {
            if self.rng.chance(0.5) {
                break;
            }
            chosen = candidate;
        }
        let idx = prediction.tables.index(chosen);
        let tag = prediction.tables.tag(chosen);
        self.tables[chosen][idx].allocate(tag, taken);
        self.stats.allocations += 1;
    }

    fn push_history(&mut self, taken: bool) {
        for t in 0..self.history_lengths.len() {
            let evicted = self.history.bit(self.history_lengths[t] - 1);
            self.index_folds[t].update(taken, evicted);
            self.tag_folds_a[t].update(taken, evicted);
            self.tag_folds_b[t].update(taken, evicted);
        }
        self.history.push(taken);
    }

    /// Resets all dynamic state while keeping the configuration.
    pub fn reset(&mut self) {
        *self = ReferenceTagePredictor::new(self.geometry.clone());
    }

    /// The specification string hashed into the snapshot spec digest. The
    /// `tage-reference` marker makes the digest distinct from the SoA
    /// implementation's: the two lay out useful-reset state differently
    /// (`tick` counts up here, a countdown there), so snapshots are not
    /// interchangeable across implementations.
    fn spec_string(&self) -> String {
        let g = &self.geometry;
        format!(
            "tage-reference|name={}|tables={}|index_bits={}|tag_bits={}|ctr_bits={}\
             |useful_bits={}|bim_index_bits={}|bim_ctr_bits={}|min_hist={}|max_hist={}\
             |alt_bits={}|reset_period={}|seed={}",
            g.name(),
            g.num_tagged_tables(),
            self.index_bits,
            self.tag_bits,
            g.counter_bits,
            g.useful_bits,
            g.bimodal_index_bits,
            g.bimodal_counter_bits,
            g.min_history(),
            g.max_history(),
            g.use_alt_on_na_bits,
            g.useful_reset_period,
            g.rng_seed,
        )
    }

    /// A digest of the predictor's specification (see
    /// [`tage_predictors::PredictorCore::spec_digest`]).
    pub fn spec_digest(&self) -> u64 {
        fnv1a64(self.spec_string().as_bytes())
    }

    /// Serializes the predictor's full dynamic state into the framed format
    /// of [`tage_traces::snapshot`].
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
        for table in &self.tables {
            for entry in table {
                w.write_u16(entry.tag);
                w.write_i8(entry.ctr.value());
                w.write_u8(entry.useful.value());
            }
        }
        w.end_section();

        w.begin_section();
        crate::snapshot::write_history(&mut w, &self.history);
        crate::snapshot::write_folds(&mut w, &self.index_folds);
        crate::snapshot::write_folds(&mut w, &self.tag_folds_a);
        crate::snapshot::write_folds(&mut w, &self.tag_folds_b);
        w.end_section();

        w.begin_section();
        w.write_i8(self.use_alt_on_na.value());
        w.write_u64(self.rng.state());
        w.write_u64(self.tick);
        w.write_u8(self.reset_phase);
        crate::snapshot::write_stats(&mut w, &self.stats);
        w.end_section();

        w.finish()
    }

    /// Restores state captured by [`ReferenceTagePredictor::snapshot`],
    /// all-or-nothing: on error the predictor is untouched.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`] carrying the byte offset of the problem
    /// when the bytes are truncated, corrupt, from a different format
    /// version, or from a different predictor specification.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        let mut r = SnapshotReader::new(bytes, ReferenceTagePredictor::spec_digest(self))?;

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
        let per_table = self.tables.first().map_or(0, Vec::len);
        let mut entries = Vec::with_capacity(self.tables.len() * per_table);
        for _ in 0..self.tables.len() * per_table {
            let tag = r.read_u16()?;
            let ctr = r.read_i8()?;
            let useful = r.read_u8()?;
            entries.push((tag, ctr, useful));
        }
        r.end_section()?;

        r.begin_section()?;
        let history = crate::snapshot::read_history(&mut r, self.history.words().len())?;
        let index_folds = crate::snapshot::read_folds(&mut r, &self.index_folds)?;
        let tag_folds_a = crate::snapshot::read_folds(&mut r, &self.tag_folds_a)?;
        let tag_folds_b = crate::snapshot::read_folds(&mut r, &self.tag_folds_b)?;
        r.end_section()?;

        r.begin_section()?;
        let use_alt_on_na = r.read_i8()?;
        let rng_state = r.read_u64()?;
        let tick = r.read_u64()?;
        let reset_phase = r.read_u8()?;
        let stats = crate::snapshot::read_stats(&mut r)?;
        r.end_section()?;

        r.finish()?;

        // Everything decoded and validated: commit.
        self.geometry.automaton = automaton;
        for (ctr, value) in self.bimodal.iter_mut().zip(bimodal) {
            ctr.set(value);
        }
        let mut flat = entries.into_iter();
        for table in &mut self.tables {
            for entry in table.iter_mut() {
                let (tag, ctr, useful) = flat.next().expect("sized above");
                entry.tag = tag;
                entry.ctr.set(ctr);
                entry.useful.set(useful);
            }
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
        self.use_alt_on_na.set(use_alt_on_na);
        self.rng = SplitMix64::from_state(rng_state);
        self.tick = tick;
        self.reset_phase = reset_phase;
        self.stats = stats;
        Ok(())
    }
}

/// Engine-facing interface, so the reference implementation can be driven
/// through `tage_sim::engine::SimEngine` for same-host before/after
/// comparisons (the `throughput` bin's `engine_reference_nested_vec`
/// measurement).
impl tage_predictors::PredictorCore for ReferenceTagePredictor {
    type Lookup = TagePrediction;

    fn predict(&mut self, pc: u64) -> TagePrediction {
        ReferenceTagePredictor::predict(self, pc)
    }

    fn update(&mut self, pc: u64, taken: bool, lookup: &TagePrediction) {
        ReferenceTagePredictor::update(self, pc, taken, lookup)
    }

    fn reset(&mut self) {
        ReferenceTagePredictor::reset(self)
    }

    fn storage_bits(&self) -> u64 {
        self.geometry.storage_bits()
    }

    fn name(&self) -> String {
        format!("{} (reference)", self.geometry.name())
    }

    fn snapshot(&self) -> Vec<u8> {
        ReferenceTagePredictor::snapshot(self)
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        ReferenceTagePredictor::restore(self, bytes)
    }

    fn spec_digest(&self) -> u64 {
        ReferenceTagePredictor::spec_digest(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_predictor_learns_a_biased_branch() {
        let mut p = ReferenceTagePredictor::new(TageGeometry::small());
        let mut misses = 0;
        for _ in 0..200 {
            let pred = p.predict(0x400100);
            if !pred.taken {
                misses += 1;
            }
            p.update(0x400100, true, &pred);
        }
        assert!(misses <= 3, "misses = {misses}");
        assert_eq!(p.stats().updates, 200);
    }

    #[test]
    fn reference_reset_restores_cold_state() {
        let mut p = ReferenceTagePredictor::new(TageGeometry::small());
        for _ in 0..50 {
            let pred = p.predict(0x400200);
            p.update(0x400200, true, &pred);
        }
        p.reset();
        assert_eq!(p.stats().updates, 0);
        assert!(p.predict(0x400200).provider.is_bimodal());
        assert_eq!(p.use_alt_on_na(), -1);
    }

    #[test]
    fn spec_string_names_the_uniform_shape() {
        let p = ReferenceTagePredictor::new(TageGeometry::small());
        assert_eq!(
            p.spec_string(),
            "tage-reference|name=TAGE-16K|tables=4|index_bits=8|tag_bits=9|ctr_bits=3\
             |useful_bits=2|bim_index_bits=10|bim_ctr_bits=2|min_hist=3|max_hist=80\
             |alt_bits=4|reset_period=262144|seed=8822093092261589005"
        );
    }

    #[test]
    #[should_panic(expected = "table 1 has per-table widths")]
    fn per_table_widths_are_refused() {
        let mut geometry = TageGeometry::small();
        geometry.tables[1].index_bits += 1;
        ReferenceTagePredictor::new(geometry);
    }

    #[test]
    #[should_panic(expected = "table 2 has non-legacy folds")]
    fn non_legacy_folds_are_refused() {
        let mut geometry = TageGeometry::small();
        geometry.tables[2].index_fold_bits += 1;
        ReferenceTagePredictor::new(geometry);
    }

    #[test]
    #[should_panic(expected = "it has path history")]
    fn path_history_is_refused() {
        let mut geometry = TageGeometry::small();
        geometry.path_history_bits = 8;
        ReferenceTagePredictor::new(geometry);
    }
}
