//! The paper's Table-1 TAGE configurations, as [`TageGeometry`] presets.

use crate::automaton::CounterAutomaton;
use crate::geometry::{TableGeometry, TageGeometry};

impl TageGeometry {
    /// A uniform geometry in the paper's style: `tables` tagged components
    /// sharing one entry count (`2^index_bits`) and one tag width, with the
    /// legacy fold footprints, on the geometric history series from
    /// `min_history` to `max_history` ([`geometric_history_lengths`]).
    /// Every other field takes the paper's value: 3-bit prediction
    /// counters, 2-bit useful counters, 2-bit bimodal counters, a 4-bit
    /// `USE_ALT_ON_NA`, a useful reset every 256K updates, the standard
    /// automaton and no path history.
    ///
    /// The result is not validated; see [`TageGeometry::validate`].
    ///
    /// # Panics
    ///
    /// Panics if `tables` is zero or the history lengths do not satisfy
    /// `1 <= min_history <= max_history`.
    pub fn uniform(
        tables: usize,
        index_bits: u32,
        tag_bits: u32,
        bimodal_index_bits: u32,
        min_history: usize,
        max_history: usize,
    ) -> Self {
        TageGeometry {
            tables: geometric_history_lengths(tables, min_history, max_history)
                .into_iter()
                .map(|length| TableGeometry::uniform(index_bits, tag_bits, length))
                .collect(),
            counter_bits: 3,
            useful_bits: 2,
            bimodal_index_bits,
            bimodal_counter_bits: 2,
            path_history_bits: 0,
            use_alt_on_na_bits: 4,
            useful_reset_period: 256 * 1024,
            automaton: CounterAutomaton::Standard,
            rng_seed: 0x7A6E_5EED_0BAD_F00D,
        }
    }

    /// The 16 Kbit configuration of Table 1: 1 bimodal + 4 tagged tables,
    /// history lengths 3..80.
    pub fn small() -> Self {
        Self::uniform(4, 8, 9, 10, 3, 80)
    }

    /// The 64 Kbit configuration of Table 1: 1 bimodal + 7 tagged tables,
    /// history lengths 5..130.
    pub fn medium() -> Self {
        Self::uniform(7, 9, 11, 12, 5, 130)
    }

    /// The 256 Kbit configuration of Table 1: 1 bimodal + 8 tagged tables,
    /// history lengths 5..300.
    pub fn large() -> Self {
        Self::uniform(8, 11, 10, 13, 5, 300)
    }

    /// Returns this geometry with a different counter-update automaton.
    pub fn with_automaton(mut self, automaton: CounterAutomaton) -> Self {
        self.automaton = automaton;
        self
    }

    /// Returns this geometry with a different internal RNG seed.
    pub fn with_rng_seed(mut self, seed: u64) -> Self {
        self.rng_seed = seed;
        self
    }
}

/// Computes the geometric series of history lengths used by the tagged
/// components: `L(i) = (int)(α^(i-1) * L(1) + 0.5)` with the end points
/// pinned to `min` and `max`.
pub fn geometric_history_lengths(tables: usize, min: usize, max: usize) -> Vec<usize> {
    assert!(tables >= 1, "at least one tagged table is required");
    assert!(
        min >= 1 && max >= min,
        "history lengths must satisfy 1 <= min <= max"
    );
    if tables == 1 {
        return vec![max];
    }
    let alpha = (max as f64 / min as f64).powf(1.0 / (tables as f64 - 1.0));
    let mut lengths: Vec<usize> = (0..tables)
        .map(|i| ((min as f64) * alpha.powi(i as i32) + 0.5) as usize)
        .collect();
    lengths[0] = min;
    lengths[tables - 1] = max;
    // Guarantee strict monotonicity even after rounding.
    for i in 1..tables {
        if lengths[i] <= lengths[i - 1] {
            lengths[i] = lengths[i - 1] + 1;
        }
    }
    lengths
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_table_1_structure() {
        let small = TageGeometry::small();
        assert_eq!(small.num_tagged_tables(), 4);
        assert_eq!(small.min_history(), 3);
        assert_eq!(small.max_history(), 80);

        let medium = TageGeometry::medium();
        assert_eq!(medium.num_tagged_tables(), 7);
        assert_eq!(medium.min_history(), 5);
        assert_eq!(medium.max_history(), 130);

        let large = TageGeometry::large();
        assert_eq!(large.num_tagged_tables(), 8);
        assert_eq!(large.min_history(), 5);
        assert_eq!(large.max_history(), 300);
    }

    #[test]
    fn presets_hit_their_storage_budgets_exactly() {
        assert_eq!(TageGeometry::small().storage_bits(), 16 * 1024);
        assert_eq!(TageGeometry::medium().storage_bits(), 64 * 1024);
        assert_eq!(TageGeometry::large().storage_bits(), 256 * 1024);
    }

    #[test]
    fn presets_are_valid() {
        for geometry in [
            TageGeometry::small(),
            TageGeometry::medium(),
            TageGeometry::large(),
        ] {
            assert!(geometry.validate().is_ok(), "{geometry}");
        }
    }

    #[test]
    fn history_lengths_are_geometric_and_pinned() {
        let lengths = TageGeometry::large().history_lengths();
        assert_eq!(lengths.len(), 8);
        assert_eq!(lengths[0], 5);
        assert_eq!(*lengths.last().unwrap(), 300);
        assert!(lengths.windows(2).all(|w| w[0] < w[1]), "{lengths:?}");
        // The ratio between consecutive lengths should be roughly constant.
        let ratios: Vec<f64> = lengths
            .windows(2)
            .map(|w| w[1] as f64 / w[0] as f64)
            .collect();
        let avg = ratios.iter().sum::<f64>() / ratios.len() as f64;
        assert!(
            ratios.iter().all(|r| (r / avg - 1.0).abs() < 0.35),
            "{ratios:?}"
        );
    }

    #[test]
    fn geometric_lengths_single_table() {
        assert_eq!(geometric_history_lengths(1, 5, 80), vec![80]);
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let uniform =
            |tables, tag_bits, min, max| TageGeometry::uniform(tables, 8, tag_bits, 10, min, max);
        assert!(uniform(4, 9, 3, 80).validate().is_ok());
        // A history longer than 1024 bits.
        let err = uniform(4, 9, 3, 4096).validate().unwrap_err();
        assert!(err.contains("history_length must be in 1..=1024"), "{err}");
        // Tags too narrow to be worth a compare.
        assert!(uniform(4, 2, 3, 80).validate().is_err());
        // More tables than the prediction scratch holds.
        assert!(uniform(crate::MAX_TAGGED_TABLES + 1, 9, 3, 300)
            .validate()
            .is_err());
    }

    #[test]
    #[should_panic(expected = "1 <= min <= max")]
    fn uniform_rejects_a_zero_history() {
        TageGeometry::uniform(4, 8, 9, 10, 0, 80);
    }

    #[test]
    fn with_automaton_and_seed_are_fluent() {
        let g = TageGeometry::medium()
            .with_automaton(CounterAutomaton::probabilistic(7))
            .with_rng_seed(99);
        assert_eq!(g.rng_seed, 99);
        assert!(matches!(
            g.automaton,
            CounterAutomaton::ProbabilisticSaturation { .. }
        ));
    }

    #[test]
    fn display_mentions_name_and_tables() {
        let s = format!("{}", TageGeometry::large());
        assert!(s.contains("TAGE-256K"));
        assert!(s.contains("1+8"));
    }
}
