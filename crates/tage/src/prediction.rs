//! The observable output of a TAGE prediction.
//!
//! The whole point of the paper is that these observables — which component
//! provided the prediction and the value of its counter — are sufficient to
//! grade confidence. [`TagePrediction`] therefore exposes everything the
//! predictor "sees" at prediction time, and is consumed both by
//! [`crate::TagePredictor::update`] and by the confidence classifier in the
//! `tage-confidence` crate.

use core::fmt;

/// Upper bound on the number of tagged components a [`crate::TageGeometry`]
/// may declare (enforced by [`crate::TageGeometry::validate`]).
///
/// The bound exists so prediction-time state fits in the fixed-size
/// [`TableLookups`] scratch: a lookup never touches the heap, whatever the
/// configuration.
pub const MAX_TAGGED_TABLES: usize = 16;

/// The per-tagged-table result of one prediction lookup: the entry index the
/// hash selected, the partial tag that was compared, and whether it matched.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct TableLookup {
    /// Index of the selected entry within the table (fits in `u32`: table
    /// index widths are at most 24 bits).
    pub index: u32,
    /// The partial tag computed for this (PC, history) pair.
    pub tag: u16,
    /// Whether the stored tag matched (`true` = the component hit).
    pub hit: bool,
}

/// The fixed-size collection of per-table lookup results carried by a
/// [`TagePrediction`].
///
/// This is the allocation-free replacement for the three `Vec`s
/// (`table_indices`, `table_tags`, `table_hits`) the predictor used to build
/// on every lookup: a `[TableLookup; MAX_TAGGED_TABLES]` scratch plus a
/// length, living entirely on the stack. Equality compares only the live
/// prefix, so two predictions agree iff their observable lookups agree.
#[derive(Clone, Copy)]
pub struct TableLookups {
    entries: [TableLookup; MAX_TAGGED_TABLES],
    len: u8,
    /// Bit `t` set iff live slot `t` hit — maintained alongside the entries
    /// so provider selection reads one word instead of re-scanning the
    /// per-table hit flags. Bits at or above `len` are always zero.
    hits: u16,
}

impl TableLookups {
    /// An empty scratch, ready for [`TableLookups::push`].
    pub fn new() -> Self {
        TableLookups {
            entries: [TableLookup::default(); MAX_TAGGED_TABLES],
            len: 0,
            hits: 0,
        }
    }

    /// `tables` all-missing lookups (index 0, tag 0, no hit): the shape a
    /// cold predictor produces. Useful for building fixtures in tests.
    ///
    /// # Panics
    ///
    /// Panics if `tables > MAX_TAGGED_TABLES`.
    pub fn cold(tables: usize) -> Self {
        assert!(tables <= MAX_TAGGED_TABLES);
        TableLookups {
            entries: [TableLookup::default(); MAX_TAGGED_TABLES],
            len: tables as u8,
            hits: 0,
        }
    }

    /// Appends one table's lookup result.
    ///
    /// # Panics
    ///
    /// Panics if the scratch already holds [`MAX_TAGGED_TABLES`] lookups.
    #[inline]
    pub fn push(&mut self, lookup: TableLookup) {
        self.entries[usize::from(self.len)] = lookup;
        self.hits |= u16::from(lookup.hit) << self.len;
        self.len += 1;
    }

    /// Empties the scratch for in-place reuse without rewriting the dead
    /// slots (equality and every accessor only look at the live prefix, so
    /// stale entries beyond the new pushes are unobservable).
    #[inline]
    pub fn clear(&mut self) {
        self.len = 0;
        self.hits = 0;
    }

    /// Declares the first `n` slots live with hit mask `hits`, for batched
    /// writers that fill entries out of push order via
    /// [`TableLookups::entry_mut`]. `hits` must agree with the per-entry
    /// flags — bit `t` set iff slot `t` hit.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds [`MAX_TAGGED_TABLES`] or `hits` has bits at or
    /// above `n`.
    #[inline]
    pub(crate) fn set_live(&mut self, n: usize, hits: u16) {
        assert!(n <= MAX_TAGGED_TABLES);
        debug_assert_eq!(hits >> n, 0, "hit mask flags a dead slot");
        self.len = n as u8;
        self.hits = hits;
    }

    /// Direct mutable access to slot `t` of the fixed scratch (live or
    /// not) — the component-major assembly path of the lane-batched engine
    /// writes one table rank across many predictions, then declares the
    /// prefix live with [`TableLookups::set_live`].
    #[inline]
    pub(crate) fn entry_mut(&mut self, t: usize) -> &mut TableLookup {
        &mut self.entries[t]
    }

    /// Number of tagged tables observed by this prediction.
    #[inline]
    pub fn len(&self) -> usize {
        usize::from(self.len)
    }

    /// Returns `true` if no table lookups were recorded.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The entry index selected in table rank `t`.
    #[inline]
    pub fn index(&self, t: usize) -> usize {
        self.as_slice()[t].index as usize
    }

    /// The partial tag computed for table rank `t`.
    #[inline]
    pub fn tag(&self, t: usize) -> u16 {
        self.as_slice()[t].tag
    }

    /// Whether table rank `t` hit (tag match).
    #[inline]
    pub fn hit(&self, t: usize) -> bool {
        self.as_slice()[t].hit
    }

    /// The live hit flags as a bitmask: bit `t` set iff table rank `t` hit.
    #[inline]
    pub fn hit_mask(&self) -> u16 {
        self.hits
    }

    /// The live lookups as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[TableLookup] {
        &self.entries[..usize::from(self.len)]
    }

    /// Iterates over the live lookups.
    pub fn iter(&self) -> core::slice::Iter<'_, TableLookup> {
        self.as_slice().iter()
    }
}

impl Default for TableLookups {
    fn default() -> Self {
        TableLookups::new()
    }
}

impl core::ops::Index<usize> for TableLookups {
    type Output = TableLookup;

    fn index(&self, t: usize) -> &TableLookup {
        &self.as_slice()[t]
    }
}

impl<'a> IntoIterator for &'a TableLookups {
    type Item = &'a TableLookup;
    type IntoIter = core::slice::Iter<'a, TableLookup>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl PartialEq for TableLookups {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for TableLookups {}

impl fmt::Debug for TableLookups {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

/// Which component provided the final (or alternate) prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Provider {
    /// The bimodal base predictor (no tagged component hit).
    Bimodal,
    /// A tagged component; `table` is its rank (0 = shortest history).
    Tagged {
        /// Rank of the providing tagged component (0-based, increasing
        /// history length).
        table: usize,
    },
}

impl Provider {
    /// Returns `true` if the provider is the bimodal base predictor.
    pub fn is_bimodal(self) -> bool {
        matches!(self, Provider::Bimodal)
    }

    /// Returns the tagged-table rank, if the provider is a tagged component.
    pub fn table(self) -> Option<usize> {
        match self {
            Provider::Bimodal => None,
            Provider::Tagged { table } => Some(table),
        }
    }
}

impl fmt::Display for Provider {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Provider::Bimodal => write!(f, "bimodal"),
            Provider::Tagged { table } => write!(f, "T{}", table + 1),
        }
    }
}

/// Everything observable about one TAGE prediction.
///
/// The indices and tags computed at prediction time are carried along so the
/// update phase reuses exactly the values the prediction used (as the
/// hardware would), and so the structure is self-contained for confidence
/// classification.
///
/// The structure is `Copy` and lives entirely on the stack: the per-table
/// observables sit in the fixed-size [`TableLookups`] scratch, so producing
/// a prediction performs **zero heap allocations**.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TagePrediction {
    /// The final predicted direction.
    pub taken: bool,
    /// The component that provided the final prediction.
    pub provider: Provider,
    /// The value of the provider's prediction counter
    /// (bimodal counter if `provider` is [`Provider::Bimodal`]).
    pub provider_counter: i8,
    /// The centered magnitude `|2*ctr + 1|` of the provider counter.
    pub provider_magnitude: u8,
    /// Whether the provider counter was in a weak state.
    pub provider_weak: bool,
    /// The alternate prediction `altpred`: what the predictor would have
    /// predicted on a miss in the provider component.
    pub alternate_taken: bool,
    /// The component that provided the alternate prediction.
    pub alternate_provider: Provider,
    /// Whether the final prediction used the alternate prediction instead of
    /// the provider's counter (the `USE_ALT_ON_NA` path for newly allocated
    /// entries).
    pub used_alternate: bool,
    /// Per-tagged-table lookup results (index, partial tag, hit) in the
    /// allocation-free fixed-size scratch.
    pub tables: TableLookups,
    /// The bimodal table index for this prediction.
    pub bimodal_index: usize,
    /// The value of the bimodal counter at prediction time.
    pub bimodal_counter: i8,
}

impl Default for TagePrediction {
    /// A cold placeholder (bimodal-provided, not taken, no lookups) — the
    /// slot value batched engines pre-size their output buffers with before
    /// resolving in place.
    fn default() -> Self {
        TagePrediction {
            taken: false,
            provider: Provider::Bimodal,
            provider_counter: 0,
            provider_magnitude: 0,
            provider_weak: false,
            alternate_taken: false,
            alternate_provider: Provider::Bimodal,
            used_alternate: false,
            tables: TableLookups::new(),
            bimodal_index: 0,
            bimodal_counter: 0,
        }
    }
}

impl TagePrediction {
    /// Returns `true` if the prediction was provided by the bimodal base
    /// predictor.
    pub fn is_bimodal_provided(&self) -> bool {
        self.provider.is_bimodal()
    }

    /// Returns `true` if the prediction was provided by a tagged component
    /// whose counter was saturated (the `Stag` class before the three-level
    /// grouping).
    pub fn is_saturated_tagged(&self, counter_bits: u8) -> bool {
        !self.provider.is_bimodal()
            && u32::from(self.provider_magnitude) == (1u32 << counter_bits) - 1
    }

    /// Returns `true` if the bimodal counter observed at prediction time was
    /// weak (the `low-conf-bim` condition).
    pub fn bimodal_weak(&self) -> bool {
        self.bimodal_counter == 0 || self.bimodal_counter == -1
    }
}

impl tage_predictors::PredictionOutcome for TagePrediction {
    fn predicted_taken(&self) -> bool {
        self.taken
    }

    /// The provider counter's distance from its weak state.
    fn margin(&self) -> i64 {
        i64::from(self.provider_magnitude)
    }
}

impl fmt::Display for TagePrediction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} by {} (ctr {}, |2c+1| {}{})",
            if self.taken { "taken" } else { "not-taken" },
            self.provider,
            self.provider_counter,
            self.provider_magnitude,
            if self.used_alternate {
                ", alt used"
            } else {
                ""
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(provider: Provider, magnitude: u8) -> TagePrediction {
        TagePrediction {
            taken: true,
            provider,
            provider_counter: 3,
            provider_magnitude: magnitude,
            provider_weak: magnitude == 1,
            alternate_taken: false,
            alternate_provider: Provider::Bimodal,
            used_alternate: false,
            tables: TableLookups::cold(4),
            bimodal_index: 0,
            bimodal_counter: 1,
        }
    }

    #[test]
    fn provider_accessors() {
        assert!(Provider::Bimodal.is_bimodal());
        assert_eq!(Provider::Bimodal.table(), None);
        assert!(!Provider::Tagged { table: 2 }.is_bimodal());
        assert_eq!(Provider::Tagged { table: 2 }.table(), Some(2));
    }

    #[test]
    fn saturated_tagged_detection_depends_on_counter_width() {
        let p = sample(Provider::Tagged { table: 1 }, 7);
        assert!(p.is_saturated_tagged(3));
        assert!(!p.is_saturated_tagged(4));
        let bim = sample(Provider::Bimodal, 7);
        assert!(!bim.is_saturated_tagged(3));
    }

    #[test]
    fn bimodal_weak_uses_observed_bimodal_counter() {
        let mut p = sample(Provider::Bimodal, 1);
        p.bimodal_counter = 0;
        assert!(p.bimodal_weak());
        p.bimodal_counter = -1;
        assert!(p.bimodal_weak());
        p.bimodal_counter = 2;
        assert!(!p.bimodal_weak());
    }

    #[test]
    fn table_lookups_push_and_accessors() {
        let mut lookups = TableLookups::new();
        assert!(lookups.is_empty());
        lookups.push(TableLookup {
            index: 17,
            tag: 0x1ab,
            hit: true,
        });
        lookups.push(TableLookup {
            index: 3,
            tag: 0x2cd,
            hit: false,
        });
        assert_eq!(lookups.len(), 2);
        assert_eq!(lookups.index(0), 17);
        assert_eq!(lookups.tag(0), 0x1ab);
        assert!(lookups.hit(0));
        assert!(!lookups.hit(1));
        assert_eq!(lookups[1].index, 3);
        assert_eq!(lookups.iter().filter(|l| l.hit).count(), 1);
    }

    #[test]
    fn table_lookups_equality_ignores_dead_slots() {
        let mut a = TableLookups::new();
        let mut b = TableLookups::new();
        a.push(TableLookup {
            index: 1,
            tag: 2,
            hit: true,
        });
        b.push(TableLookup {
            index: 1,
            tag: 2,
            hit: true,
        });
        assert_eq!(a, b);
        b.push(TableLookup::default());
        assert_ne!(a, b, "different live lengths must not compare equal");
        assert_eq!(TableLookups::cold(4).len(), 4);
        assert!(!TableLookups::cold(4).hit(3));
    }

    #[test]
    #[should_panic]
    fn table_lookups_overflow_panics() {
        let mut lookups = TableLookups::new();
        for _ in 0..=MAX_TAGGED_TABLES {
            lookups.push(TableLookup::default());
        }
    }

    #[test]
    fn display_mentions_provider() {
        let p = sample(Provider::Tagged { table: 0 }, 5);
        assert!(format!("{p}").contains("T1"));
        assert!(format!("{}", Provider::Bimodal).contains("bimodal"));
    }
}
