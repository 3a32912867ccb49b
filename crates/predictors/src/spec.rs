//! Enumerable baseline-predictor configurations for sweep grids.
//!
//! The campaign runner (`tage-bench`) expands declarative grids over
//! predictor kinds. For the baseline predictors of this crate the grid axis
//! values are the variants of [`BaselinePredictorSpec`]: each one is a named,
//! fully-parameterised configuration that can be parsed from a CLI token,
//! enumerated for `--list`, and stamped into a cold predictor instance per
//! sweep point.
//!
//! Each predictor kind has its own declarative spec struct
//! ([`BimodalSpec`], [`GshareSpec`], [`PerceptronSpec`], [`GehlSpec`]) with
//! a `Default` carrying the grid configuration, an exact
//! `storage_bits()` accounting, and a matching `from_spec` constructor on
//! the predictor — the same spec-first shape `TageGeometry` gives the TAGE
//! predictor, so sweep code never reaches for positional constructor
//! arguments.

use crate::{
    BimodalPredictor, BranchPredictor, GehlPredictor, GsharePredictor, PerceptronPredictor,
};

/// Declarative configuration of a [`BimodalPredictor`]: Smith's PC-indexed
/// counter table. The default is the grid configuration (`2^12` two-bit
/// counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BimodalSpec {
    /// log2 of the number of counters.
    pub index_bits: u32,
    /// Width of each counter, in bits.
    pub counter_bits: u8,
}

impl Default for BimodalSpec {
    fn default() -> Self {
        BimodalSpec {
            index_bits: 12,
            counter_bits: 2,
        }
    }
}

impl BimodalSpec {
    /// Exact table storage in bits.
    pub fn storage_bits(&self) -> u64 {
        (1u64 << self.index_bits) * u64::from(self.counter_bits)
    }
}

/// Declarative configuration of a [`GsharePredictor`]: McFarling's
/// global-history XOR predictor. The default is the grid configuration
/// (`2^14` counters × 14 history bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GshareSpec {
    /// log2 of the number of 2-bit counters.
    pub index_bits: u32,
    /// Global history bits XORed into the index.
    pub history_bits: usize,
}

impl Default for GshareSpec {
    fn default() -> Self {
        GshareSpec {
            index_bits: 14,
            history_bits: 14,
        }
    }
}

impl GshareSpec {
    /// Exact storage in bits: the counter table plus the history register.
    pub fn storage_bits(&self) -> u64 {
        (1u64 << self.index_bits) * 2 + self.history_bits as u64
    }
}

/// Declarative configuration of a [`PerceptronPredictor`]: the hashed
/// perceptron. The default is the grid configuration (256 rows × 24 history
/// bits, 8-bit weights).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerceptronSpec {
    /// Number of weight rows.
    pub rows: usize,
    /// Global history bits (one weight per bit, plus the bias weight).
    pub history_bits: usize,
}

impl Default for PerceptronSpec {
    fn default() -> Self {
        PerceptronSpec {
            rows: 256,
            history_bits: 24,
        }
    }
}

impl PerceptronSpec {
    /// Width of each stored weight, in bits (the implementation trains
    /// 8-bit weights).
    pub const WEIGHT_BITS: u64 = 8;

    /// Exact storage in bits: `rows × (history + bias)` weights plus the
    /// history register.
    pub fn storage_bits(&self) -> u64 {
        self.rows as u64 * (self.history_bits as u64 + 1) * Self::WEIGHT_BITS
            + self.history_bits as u64
    }
}

/// Declarative configuration of a [`GehlPredictor`]: geometric-history
/// tables feeding an adder tree. The default is the grid configuration
/// (6 tables × `2^11` counters, histories 2..64).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GehlSpec {
    /// Number of component tables (the first is the bias table).
    pub tables: usize,
    /// log2 of the number of counters of each table.
    pub index_bits: u32,
    /// Shortest non-zero history length of the geometric series.
    pub min_history: usize,
    /// Longest history length of the geometric series.
    pub max_history: usize,
}

impl Default for GehlSpec {
    fn default() -> Self {
        GehlSpec {
            tables: 6,
            index_bits: 11,
            min_history: 2,
            max_history: 64,
        }
    }
}

impl GehlSpec {
    /// Width of each stored counter, in bits (the implementation trains
    /// 4-bit counters).
    pub const COUNTER_BITS: u64 = 4;

    /// Exact storage in bits: every table's counters plus the history
    /// register.
    pub fn storage_bits(&self) -> u64 {
        self.tables as u64 * (1u64 << self.index_bits) * Self::COUNTER_BITS
            + self.max_history as u64
    }
}

/// A named, buildable baseline-predictor configuration — one value of the
/// predictor axis of a sweep grid.
///
/// The parameters mirror the configurations the comparison experiments use:
/// moderate table sizes that fit the synthetic traces' footprints. Each
/// variant's parameters live in the `Default` of its spec struct
/// ([`BimodalSpec`], [`GshareSpec`], [`PerceptronSpec`], [`GehlSpec`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaselinePredictorSpec {
    /// Smith's 2-bit bimodal table ([`BimodalSpec::default`]).
    Bimodal,
    /// McFarling's gshare ([`GshareSpec::default`]).
    Gshare,
    /// Hashed perceptron ([`PerceptronSpec::default`]).
    Perceptron,
    /// O-GEHL-style predictor ([`GehlSpec::default`]).
    Gehl,
}

impl BaselinePredictorSpec {
    /// Every baseline configuration, in grid-axis order.
    pub const ALL: [BaselinePredictorSpec; 4] = [
        BaselinePredictorSpec::Bimodal,
        BaselinePredictorSpec::Gshare,
        BaselinePredictorSpec::Perceptron,
        BaselinePredictorSpec::Gehl,
    ];

    /// The stable grid token naming this configuration (what `--predictors`
    /// parses and the campaign report records).
    pub fn token(&self) -> &'static str {
        match self {
            BaselinePredictorSpec::Bimodal => "bimodal",
            BaselinePredictorSpec::Gshare => "gshare",
            BaselinePredictorSpec::Perceptron => "perceptron",
            BaselinePredictorSpec::Gehl => "gehl",
        }
    }

    /// Parses a grid token back into a configuration.
    pub fn parse(token: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|spec| spec.token() == token)
    }

    /// Builds a cold predictor instance of this configuration.
    pub fn build(&self) -> Box<dyn BranchPredictor + Send> {
        match self {
            BaselinePredictorSpec::Bimodal => {
                Box::new(BimodalPredictor::from_spec(&BimodalSpec::default()))
            }
            BaselinePredictorSpec::Gshare => {
                Box::new(GsharePredictor::from_spec(&GshareSpec::default()))
            }
            BaselinePredictorSpec::Perceptron => {
                Box::new(PerceptronPredictor::from_spec(&PerceptronSpec::default()))
            }
            BaselinePredictorSpec::Gehl => Box::new(GehlPredictor::from_spec(&GehlSpec::default())),
        }
    }

    /// Exact storage budget of this configuration in bits, computed
    /// declaratively from its spec struct — equal to what the built
    /// instance reports, without building it.
    pub fn storage_bits(&self) -> u64 {
        match self {
            BaselinePredictorSpec::Bimodal => BimodalSpec::default().storage_bits(),
            BaselinePredictorSpec::Gshare => GshareSpec::default().storage_bits(),
            BaselinePredictorSpec::Perceptron => PerceptronSpec::default().storage_bits(),
            BaselinePredictorSpec::Gehl => GehlSpec::default().storage_bits(),
        }
    }

    /// A margin threshold suited to this predictor's self-confidence scale:
    /// counter-based predictors saturate at tiny margins, neural predictors
    /// produce wide sums.
    pub fn self_confidence_threshold(&self) -> i64 {
        match self {
            BaselinePredictorSpec::Bimodal | BaselinePredictorSpec::Gshare => 1,
            BaselinePredictorSpec::Perceptron => 40,
            BaselinePredictorSpec::Gehl => 24,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PredictorCore;

    #[test]
    fn tokens_round_trip_and_are_unique() {
        for spec in BaselinePredictorSpec::ALL {
            assert_eq!(BaselinePredictorSpec::parse(spec.token()), Some(spec));
        }
        let mut tokens: Vec<&str> = BaselinePredictorSpec::ALL.map(|s| s.token()).to_vec();
        tokens.sort_unstable();
        tokens.dedup();
        assert_eq!(tokens.len(), BaselinePredictorSpec::ALL.len());
        assert_eq!(BaselinePredictorSpec::parse("tage-16k"), None);
    }

    #[test]
    fn every_spec_builds_a_working_predictor() {
        for spec in BaselinePredictorSpec::ALL {
            let mut predictor = spec.build();
            let prediction = predictor.predict(0x4000);
            predictor.update(0x4000, true, &prediction);
            assert!(predictor.storage_bits() > 0, "{}", spec.token());
            assert!(spec.self_confidence_threshold() > 0);
        }
    }

    #[test]
    fn declarative_storage_matches_the_built_instance() {
        for spec in BaselinePredictorSpec::ALL {
            assert_eq!(
                spec.storage_bits(),
                spec.build().storage_bits(),
                "{}",
                spec.token()
            );
        }
    }

    #[test]
    fn from_spec_matches_the_positional_constructors() {
        // The spec structs' defaults are the grid configurations: building
        // from them must agree with the historical positional calls.
        let pairs: [(
            Box<dyn BranchPredictor + Send>,
            Box<dyn BranchPredictor + Send>,
        ); 4] = [
            (
                Box::new(BimodalPredictor::from_spec(&BimodalSpec::default())),
                Box::new(BimodalPredictor::new(12)),
            ),
            (
                Box::new(GsharePredictor::from_spec(&GshareSpec::default())),
                Box::new(GsharePredictor::new(14, 14)),
            ),
            (
                Box::new(PerceptronPredictor::from_spec(&PerceptronSpec::default())),
                Box::new(PerceptronPredictor::new(256, 24)),
            ),
            (
                Box::new(GehlPredictor::from_spec(&GehlSpec::default())),
                Box::new(GehlPredictor::new(6, 11, 2, 64)),
            ),
        ];
        for (from_spec, positional) in pairs {
            assert_eq!(from_spec.spec_digest(), positional.spec_digest());
            assert_eq!(from_spec.storage_bits(), positional.storage_bits());
        }
    }

    #[test]
    fn custom_specs_change_the_accounting() {
        let small = BimodalSpec {
            index_bits: 8,
            counter_bits: 3,
        };
        assert_eq!(small.storage_bits(), 256 * 3);
        let wide = GshareSpec {
            index_bits: 10,
            history_bits: 16,
        };
        assert_eq!(wide.storage_bits(), 1024 * 2 + 16);
        assert_eq!(
            GsharePredictor::from_spec(&wide).storage_bits(),
            wide.storage_bits()
        );
        let tall = GehlSpec {
            tables: 4,
            index_bits: 9,
            min_history: 2,
            max_history: 32,
        };
        assert_eq!(
            GehlPredictor::from_spec(&tall).storage_bits(),
            tall.storage_bits()
        );
    }
}
